"""Exact truth-value arithmetic on [0,1].

Truth values are `fractions.Fraction` instances kept in [0,1]; Fraction
already stores lowest terms, so no wrapper class is needed.  This module
holds rational parsing and printing, the connective table (each
connective's arity and per-argument monotonicity), packed int lanes, the forced-limit
recursion on finite prefixes, and piecewise-linear monotone functions
used as (inverse) continuity moduli, including the conversion between
the standard and inverse form.  The connectives are computed on int
numerators where formulas are evaluated (`structures`, `synthesis`); their
Fraction semantics, the reference those evaluators are tested against,
is in `tests/oracles.py`.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, le, lt
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import DomainError, StructuralError

ZERO = Fraction(0)
ONE = Fraction(1)


def ensure_unit(q) -> Fraction:
    """Coerce to Fraction and check membership in [0,1]."""
    v = Fraction(q)
    check_unit(v.numerator, v.denominator)
    return v


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse "p/q" or "p" as ints (p, q) in lowest terms, q > 0; each part is read by `int`.

    Decimal notation is rejected to avoid silent rounding.
    """
    if not isinstance(text, str):
        raise DomainError(f"rational literal {text!r} must be a string")
    s = text.strip()
    if "." in s:
        raise DomainError(f"decimal literal {text!r} rejected; use p/q")
    num, slash, den = s.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
        g = gcd(p, q) * (1 if q > 0 else -1 if q else 0)
        return p // g, q // g  # q = 0 divides by zero
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational literal {text!r}") from exc


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" as `parse_ratio` does."""
    return Fraction(*parse_ratio(text))


def parse_literals(cells, parsed: Optional[dict] = None) -> tuple[int, dict]:
    """(den, {literal: numerator over den}) for a table of rational literals, den the lcm
    of their denominators.  Each distinct literal is parsed once, in first-appearance order,
    so the first bad cell raises; an unhashable cell raises a TypeError before any is.
    `parsed` maps literals to their `parse_ratio` pairs: a literal found there is not
    parsed again, and each new one is added, so the tables of one file can share it."""
    ratios = dict.fromkeys(cells)
    if parsed is None:
        parsed = {}
    for text in ratios:
        if text not in parsed:
            parsed[text] = parse_ratio(text)
    ratios = {text: parsed[text] for text in ratios}
    den = lcm(*(q for _, q in ratios.values()))
    return den, {text: p * (den // q) for text, (p, q) in ratios.items()}


def check_unit(p: int, q: int) -> None:
    """Raise a DomainError unless p / q (q > 0) lies in [0,1]."""
    if not 0 <= p <= q:
        raise DomainError(f"value {Fraction(p, q)} outside [0,1]")


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return format_ratio(q.numerator, q.denominator)


def format_ratio(num: int, den: int) -> str:
    """`format_rational(Fraction(num, den))` for den > 0, without building the Fraction."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


# ---------------------------------------------------------------------------
# Connectives

# Each connective by its monotonicity in each argument: +1 non-decreasing,
# -1 non-increasing, 0 neither; the arity is the tuple's length.  `med` is
# not listed: with parameter n it takes 2n - 1 arguments, non-decreasing in
# each.  `prenex` hoists quantifiers by these signs; it rewrites `absdiff`
# first.
CONNECTIVES: dict[str, tuple[int, ...]] = {
    "neg": (-1,),
    "half": (+1,),
    "monus": (+1, -1),
    "min": (+1, +1),
    "max": (+1, +1),
    "plus_trunc": (+1, +1),
    "absdiff": (0, 0),
}


def check_connective(name: str, k: int, n: Optional[int] = None) -> None:
    """Raise a StructuralError unless `name` is a connective that takes k arguments.

    `n` is `med`'s arity parameter; the other connectives ignore it.
    """
    if name == "med":
        if not isinstance(n, int) or n < 1:
            raise StructuralError("med requires n >= 1")
        if k != 2 * n - 1:
            raise StructuralError(f"med_{n} expects {2 * n - 1} arguments, got {k}")
    elif name not in CONNECTIVES:
        raise StructuralError(f"unknown connective {name!r}")
    elif len(CONNECTIVES[name]) != k:
        raise StructuralError(f"{name} expects {len(CONNECTIVES[name])} arguments, got {k}")


# ---------------------------------------------------------------------------
# Packed lanes


class Lanes:
    """`count` ints in [0, bound] as the lanes of one int: lane i is bits
    [i * width, (i + 1) * width) and width = bound.bit_length() + 1, so the top
    bit of every lane, its guard, is 0 in a packed value.  Then x + guard - y
    borrows across no lane, and a lane keeps its guard bit iff x >= y there."""

    __slots__ = ("width", "count", "ones", "guard")

    def __init__(self, bound: int, count: int):
        self.width = width = bound.bit_length() + 1
        self.count = count
        self.ones = ((1 << width * count) - 1) // ((1 << width) - 1)  # 1 in every lane
        self.guard = self.ones << (width - 1)

    def pack(self, nums) -> int:
        width = self.width
        return sum(v << (i * width) for i, v in enumerate(nums))

    def unpack(self, x: int) -> list[int]:
        width, mask = self.width, (1 << self.width) - 1
        return [(x >> (i * width)) & mask for i in range(self.count)]

    def at_least(self, x: int, y: int) -> int:
        """The guard bit of every lane where x >= y, and no other bit."""
        return (x + self.guard - y) & self.guard

    def monus(self, x: int, y: int) -> int:
        """Lane-wise x -. y: each guard bit g of `at_least` spreads to g - (g >> (width - 1))."""
        t = x + self.guard - y
        g = t & self.guard
        return t & (g - (g >> (self.width - 1)))


# ---------------------------------------------------------------------------
# Immutable value classes


class Frozen:
    """Base of the immutable value classes: formula nodes, signature declarations,
    the checked values (`PLMonotone`, `GridFunction`, `FiniteTopometricSpace`) and
    `LadderWitness`.

    A subclass names its fields in `__slots__` and sets each in `__init__` with
    `object.__setattr__`.  Two instances are equal when they are of one class
    and their fields are equal; the hash is the hash of the field tuple;
    assigning or deleting a field raises an AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)  # the field tuple, or a lone field bare
        cls._fields_of = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields_of(self) == self._fields_of(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields_of(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self.__slots__, self._fields_of(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through the constructor, not field writes
        return type(self), self._fields_of(self)


# ---------------------------------------------------------------------------
# Forced limits on finite prefixes


class ForcedLimitTrace(NamedTuple):
    """Prefix of a forced-limit computation with its a-priori error bound.

    The true forced limit of any infinite extension of `input_prefix` lies
    within `error_bound` of the last entry of `modified_prefix`.
    """

    input_prefix: tuple[Fraction, ...]
    modified_prefix: tuple[Fraction, ...]
    error_bound: Fraction


def flim_prefix(seq: Sequence[Fraction]) -> ForcedLimitTrace:
    """Run the three-case forced-limit recursion over a finite prefix."""
    if not seq:
        raise StructuralError("flim_prefix needs a non-empty prefix")
    values = [ensure_unit(a) for a in seq]
    mods = [values[0]]
    for n, a in enumerate(values[1:]):
        step = Fraction(1, 2 ** (n + 1))
        lo, hi = mods[-1] - step, mods[-1] + step
        mods.append(min(max(a, lo), hi))
    bound = Fraction(1, 2 ** (len(values) - 1))
    return ForcedLimitTrace(tuple(values), tuple(mods), bound)


# ---------------------------------------------------------------------------
# Piecewise-linear monotone functions on [0,1]


class PLMonotone(Frozen):
    """Piecewise-linear non-decreasing function [0,1] -> [0,1].

    Breakpoint (xs[i] / den, ys[i] / den) for each i: int numerators over one
    denominator, inputs strictly increasing from 0 to den.  The function
    linearly interpolates between consecutive breakpoints.  Construction
    checks the breakpoints, drops interior ones collinear with their
    neighbours and reduces den to the lcm of the breakpoints' denominators,
    so equal functions are equal objects.  An inverse continuity modulus is
    a PLMonotone with value 0 at 0.
    """

    __slots__ = ("den", "xs", "ys")

    def __init__(self, den: int, xs: Sequence[int], ys: Sequence[int]):
        if not xs or xs[0] != 0 or xs[-1] != den:
            raise StructuralError("breakpoints must start at input 0 and end at input 1")
        if not all(map(lt, xs, xs[1:])):
            raise StructuralError("breakpoint inputs must be strictly increasing")
        if not all(map(le, ys, ys[1:])):
            raise StructuralError("breakpoint outputs must be non-decreasing")
        for y in ys:  # the inputs lie in [0, den] by now
            check_unit(y, den)
        keep = [0]  # drop interior points that are collinear with their neighbours
        for i in range(1, len(xs) - 1):
            k = keep[-1]
            if (ys[i] - ys[k]) * (xs[i + 1] - xs[k]) != (ys[i + 1] - ys[k]) * (xs[i] - xs[k]):
                keep.append(i)
        keep.append(len(xs) - 1)
        g = gcd(den, *(xs[i] for i in keep), *(ys[i] for i in keep))
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "xs", tuple(xs[i] // g for i in keep))
        object.__setattr__(self, "ys", tuple(ys[i] // g for i in keep))

    @staticmethod
    def through(points: Iterable[tuple[int, int, int, int]]) -> "PLMonotone":
        """The function through exact points (x_num, x_den, y_num, y_den), denominators > 0."""
        points = list(points)
        den = lcm(*(d for _, xd, _, yd in points for d in (xd, yd)))
        return PLMonotone(den, [xn * (den // xd) for xn, xd, _, _ in points],
                          [yn * (den // yd) for _, _, yn, yd in points])

    @property
    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(x, self.den), Fraction(y, self.den))
                     for x, y in zip(self.xs, self.ys))

    def formatted(self) -> list[tuple[str, str]]:
        """The breakpoints as (input, output) strings, as `format_rational` writes them."""
        return [(format_ratio(x, self.den), format_ratio(y, self.den))
                for x, y in zip(self.xs, self.ys)]

    def at(self, num: int, den: int) -> tuple[int, int]:
        """u(num / den) as an int pair (n, m), m > 0, not reduced; num / den in [0,1]."""
        L, xs, ys = self.den, self.xs, self.ys
        t = num * L
        i = bisect_right(xs, t // den) - 1  # xs[i] * den <= t < xs[i + 1] * den
        x0 = xs[i]
        if x0 * den == t:
            return ys[i], L
        dx = xs[i + 1] - x0
        return ys[i] * den * dx + (t - x0 * den) * (ys[i + 1] - ys[i]), L * den * dx

    def eval(self, x) -> Fraction:
        x = ensure_unit(x)
        return Fraction(*self.at(x.numerator, x.denominator))

    def is_inverse_modulus(self) -> bool:
        return self.ys[0] == 0


IDENTITY = PLMonotone(1, (0, 1), (0, 1))  # the metric symbols' modulus


def pl_compose(f: PLMonotone, g: PLMonotone) -> PLMonotone:
    """Composition f(g(x)): knots at g's knots and at the preimages of f's knots."""
    lf, lg = f.den, g.den
    points = []
    for x0, y0, x1, y1 in zip(g.xs, g.ys, g.xs[1:], g.ys[1:]):
        points.append((x0, lg, *f.at(y0, lg)))
        for b, fb in zip(f.xs, f.ys):
            if y0 * lf < b * lg < y1 * lf:  # g(x0) < b / lf < g(x1)
                points.append((x0 * lf * (y1 - y0) + (b * lg - y0 * lf) * (x1 - x0),
                               lf * lg * (y1 - y0), fb, lf))
    points.append((lg, lg, *f.at(g.ys[-1], lg)))
    return PLMonotone.through(points)


def pl_capped_sum(f: PLMonotone, g: PLMonotone) -> PLMonotone:
    """min(f + g, 1) as a PLMonotone."""
    L = lcm(f.den, g.den)
    knots = sorted({x * (L // f.den) for x in f.xs} | {x * (L // g.den) for x in g.xs})
    sums = []  # (f + g)(x / L) as a / b
    for x in knots:
        (n1, m1), (n2, m2) = f.at(x, L), g.at(x, L)
        sums.append((n1 * m2 + n2 * m1, m1 * m2))
    points = []
    for x0, x1, (a0, b0), (a1, b1) in zip(knots, knots[1:], sums, sums[1:]):
        points.append((x0, L, min(a0, b0), b0))
        if a0 < b0 and a1 > b1:  # crossing of the cap inside the segment
            q = a1 * b0 - a0 * b1
            points.append((x0 * q + (x1 - x0) * (b0 - a0) * b1, L * q, 1, 1))
    a, b = sums[-1]
    points.append((L, L, min(a, b), b))
    return PLMonotone.through(points)


def pl_half(f: PLMonotone) -> PLMonotone:
    return PLMonotone(2 * f.den, [2 * x for x in f.xs], f.ys)


# ---------------------------------------------------------------------------
# Continuity-modulus conversions


def delta_from_inverse(u: PLMonotone) -> Callable[[Fraction], Fraction]:
    """Standard modulus delta(eps) = sup{t : u(t) <= eps} from an inverse one.

    Returns an exact evaluator; the result need not be piecewise linear as a
    function of eps (it jumps where u has flat runs), hence the closure.
    """
    if not u.is_inverse_modulus():
        raise DomainError("inverse modulus must satisfy u(0) = 0")
    L, xs, ys = u.den, u.xs, u.ys

    def delta(eps) -> Fraction:
        e = ensure_unit(eps)
        if e == 0:
            raise DomainError("delta(eps) is only defined for eps > 0")
        a, b = e.numerator, e.denominator
        i = bisect_right(ys, a * L // b) - 1  # the last breakpoint with u <= eps
        if i == len(ys) - 1:
            return ONE
        x0, y0, x1, y1 = xs[i], ys[i], xs[i + 1], ys[i + 1]  # y0 <= eps < y1
        return Fraction(x0 * b * (y1 - y0) + (a * L - y0 * b) * (x1 - x0), L * b * (y1 - y0))

    return delta


def _u0_pieces(delta: PLMonotone):
    """Generalized inverse of delta as closed linear pieces over the value axis.

    The inverse u0(r) = sup{t : delta(t) <= r} is non-decreasing but jumps
    where delta has flat runs; pieces may therefore disagree at shared
    endpoints, the larger value being the function value.  Pieces are
    (r0, t0, r1, t1) over `delta.den`; their r-ranges meet only at endpoints.
    """
    L, es, vs = delta.den, delta.xs, delta.ys
    pieces = [(0, 0, vs[0], 0)] if vs[0] > 0 else []
    pieces += [(v0, e0, v1, e1) for e0, v0, e1, v1 in zip(es, vs, es[1:], vs[1:]) if v1 > v0]
    # u0(r) = 1 for every r >= delta(1); degenerate point piece when delta(1) = 1
    pieces.append((vs[-1], L, L, L))
    return pieces


def inverse_from_delta(delta: PLMonotone) -> PLMonotone:
    """Inverse modulus from a standard one, per the h-shaped three-case formula.

    Computes u0 as the generalized inverse of delta, then the upper envelope
    of u0 with one ramp per breakpoint of u0: the ramp anchored at (v, u0(v))
    rises linearly from v/2 and realizes the middle case of the formula.  The
    envelope is continuous, monotone and 0 at 0, and every function
    respecting delta respects it.  Knots are numerators over D = 2 * delta.den
    and component values numerators over one C; a crossing is an int pair.
    """
    if delta.ys[1] == 0:
        raise DomainError("delta must be positive on (0,1]")
    L = delta.den
    pieces = _u0_pieces(delta)
    anchors = sorted({r for piece in pieces for r in (piece[0], piece[2])} - {0})
    # an anchor is an endpoint of every piece that holds it
    ramps = [(v, max(t0 if r0 == v else t1 for r0, t0, r1, t1 in pieces if r0 <= v <= r1))
             for v in anchors]
    M = lcm(*(2 * (r1 - r0) for r0, _, r1, _ in pieces if r1 > r0), *anchors)
    D, C = 2 * L, L * M
    base = sorted({0, D}.union(*((2 * r0, 2 * r1) for r0, _, r1, _ in pieces),
                               *((v, 2 * v) for v in anchors)))
    # components of the envelope: u0's pieces plus one ramp per anchor
    table = []
    for r0, t0, r1, t1 in pieces:
        slope = (t1 - t0) * (M // (2 * (r1 - r0))) if r1 > r0 else 0
        table.append([t0 * M + (x - 2 * r0) * slope if 2 * r0 <= x <= 2 * r1 else None
                      for x in base])
    for v, h in ramps:
        m = M // v
        table.append([0 if x <= v else h * M if x >= 2 * v else h * m * (x - v) for x in base])
    points = [(x, D, max(c for c in column if c is not None), C)
              for x, column in zip(base, zip(*table))]
    # between two adjacent knots every component is linear, and two of them
    # cross strictly inside the interval exactly when their difference
    # changes sign strictly across it
    for k, (x0, x1) in enumerate(zip(base, base[1:])):
        live = [(row[k], row[k + 1]) for row in table
                if row[k] is not None and row[k + 1] is not None]
        for i, (a0, a1) in enumerate(live):
            for b0, b1 in live[i + 1:]:
                if (a0 < b0 and b1 < a1) or (b0 < a0 and a1 < b1):
                    p, q = b0 - a0, (a1 - a0) - (b1 - b0)  # at x0 + (x1 - x0) * p / q
                    if q < 0:
                        p, q = -p, -q
                    points.append((x0 * q + p * (x1 - x0), D * q,
                                   max(c0 * q + (c1 - c0) * p for c0, c1 in live), C * q))
    den = lcm(*(d for _, xd, _, yd in points for d in (xd, yd)))
    knots = {xn * (den // xd): yn * (den // yd) for xn, xd, yn, yd in points}
    xs, ys = zip(*sorted(knots.items()))
    if not all(map(le, ys, ys[1:])):
        raise AssertionError("inverse_from_delta produced a non-monotone envelope")
    return PLMonotone(den, xs, ys)
