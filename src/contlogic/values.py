"""Exact truth-value arithmetic on [0,1].

Truth values are `fractions.Fraction` instances kept in [0,1]; Fraction
already stores lowest terms, so no wrapper class is needed.  This module
holds the connective algebra, the median connective, the forced-limit
recursion on finite prefixes, and piecewise-linear monotone functions
used as (inverse) continuity moduli, including the conversion between
the standard and inverse form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import DomainError, StructuralError

ZERO = Fraction(0)
ONE = Fraction(1)


def ensure_unit(q) -> Fraction:
    """Coerce to Fraction and check membership in [0,1]."""
    v = Fraction(q)
    if v < 0 or v > 1:
        raise DomainError(f"value {v} outside [0,1]")
    return v


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p". Decimal notation is rejected to avoid silent rounding."""
    if not isinstance(text, str):
        raise DomainError(f"rational literal {text!r} must be a string")
    s = text.strip()
    if "." in s:
        raise DomainError(f"decimal literal {text!r} rejected; use p/q")
    num, slash, den = s.partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational literal {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


# ---------------------------------------------------------------------------
# Connectives


def neg(x: Fraction) -> Fraction:
    return 1 - x


def half(x: Fraction) -> Fraction:
    return x / 2


def monus(x: Fraction, y: Fraction) -> Fraction:
    return max(x - y, ZERO)


def meet(x: Fraction, y: Fraction) -> Fraction:
    return min(x, y)


def join(x: Fraction, y: Fraction) -> Fraction:
    return max(x, y)


def plus_trunc(x: Fraction, y: Fraction) -> Fraction:
    return min(x + y, ONE)


def absdiff(x: Fraction, y: Fraction) -> Fraction:
    return abs(x - y)


CONNECTIVES: dict[str, tuple[int, Callable[..., Fraction]]] = {
    "neg": (1, neg),
    "half": (1, half),
    "monus": (2, monus),
    "min": (2, meet),
    "max": (2, join),
    "plus_trunc": (2, plus_trunc),
    "absdiff": (2, absdiff),
}


def apply_connective(name: str, args: Sequence[Fraction]) -> Fraction:
    """Apply a named connective, at its declared arity, to exact rational arguments."""
    if name not in CONNECTIVES:
        raise StructuralError(f"unknown connective {name!r}")
    arity, fn = CONNECTIVES[name]
    if len(args) != arity:
        raise StructuralError(f"{name} expects {arity} arguments, got {len(args)}")
    return fn(*args)


def check_connective(name: str, k: int, n: Optional[int] = None) -> None:
    """Raise the StructuralError that applying `name` to k arguments raises.

    `n` is `med`'s arity parameter; the other connectives ignore it.
    """
    if name == "med":
        med([ZERO] * k, n)
    elif CONNECTIVES.get(name, (None,))[0] != k:
        apply_connective(name, [ZERO] * k)


def med(values: Sequence[Fraction], n: int) -> Fraction:
    """Median connective: min over n-subsets of 2n-1 arguments of their max.

    Equals the n-th smallest of the multiset, which is how it is computed.
    """
    if n < 1:
        raise StructuralError("med requires n >= 1")
    if len(values) != 2 * n - 1:
        raise StructuralError(f"med_{n} expects {2 * n - 1} arguments, got {len(values)}")
    return sorted(values)[n - 1]


# ---------------------------------------------------------------------------
# Forced limits on finite prefixes


@dataclass(frozen=True)
class ForcedLimitTrace:
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


def _normalize_breakpoints(points: Iterable[tuple[Fraction, Fraction]]):
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if not pts or pts[0][0] != 0 or pts[-1][0] != 1:
        raise StructuralError("breakpoints must start at input 0 and end at input 1")
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if x1 <= x0:
            raise StructuralError("breakpoint inputs must be strictly increasing")
    for (_, y0), (_, y1) in zip(pts, pts[1:]):
        if y1 < y0:
            raise StructuralError("breakpoint outputs must be non-decreasing")
    for x, y in pts:
        ensure_unit(x)
        ensure_unit(y)
    # drop interior points that are collinear with their neighbours
    out = [pts[0]]
    for i in range(1, len(pts) - 1):
        (x0, y0), (x1, y1), (x2, y2) = out[-1], pts[i], pts[i + 1]
        if (y1 - y0) * (x2 - x0) == (y2 - y0) * (x1 - x0):
            continue
        out.append((x1, y1))
    out.append(pts[-1])
    return tuple(out)


@dataclass(frozen=True)
class PLMonotone:
    """Piecewise-linear non-decreasing function [0,1] -> [0,1].

    Stored as breakpoints with strictly increasing inputs; the function
    linearly interpolates between consecutive breakpoints.  An inverse
    continuity modulus is a PLMonotone with value 0 at 0.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _normalize_breakpoints(self.breakpoints))

    @staticmethod
    def identity() -> "PLMonotone":
        return PLMonotone(((ZERO, ZERO), (ONE, ONE)))

    @staticmethod
    def constant(c) -> "PLMonotone":
        c = ensure_unit(c)
        return PLMonotone(((ZERO, c), (ONE, c)))

    @staticmethod
    def zero() -> "PLMonotone":
        return PLMonotone.constant(ZERO)

    def eval(self, x) -> Fraction:
        x = ensure_unit(x)
        pts = self.breakpoints
        if x == pts[0][0]:
            return pts[0][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= x <= x1:
                return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
        raise AssertionError("unreachable: breakpoints cover [0,1]")

    def is_inverse_modulus(self) -> bool:
        return self.breakpoints[0][1] == 0

    def input_knots(self) -> list[Fraction]:
        return [x for x, _ in self.breakpoints]


def pl_compose(f: PLMonotone, g: PLMonotone) -> PLMonotone:
    """Composition f(g(x)) as a PLMonotone."""
    xs = set(g.input_knots())
    # preimages under g of f's knots make f∘g linear between candidates
    for b, _ in f.breakpoints:
        for (x0, y0), (x1, y1) in zip(g.breakpoints, g.breakpoints[1:]):
            if y0 < b < y1:
                xs.add(x0 + (b - y0) * (x1 - x0) / (y1 - y0))
    pts = sorted(xs)
    return PLMonotone(tuple((x, f.eval(g.eval(x))) for x in pts))


def pl_capped_sum(f: PLMonotone, g: PLMonotone) -> PLMonotone:
    """min(f + g, 1) as a PLMonotone."""
    xs = set(f.input_knots()) | set(g.input_knots())
    for x0, x1 in zip(sorted(xs), sorted(xs)[1:]):
        s0 = f.eval(x0) + g.eval(x0)
        s1 = f.eval(x1) + g.eval(x1)
        if s0 < 1 < s1:  # crossing of the cap inside the segment
            xs.add(x0 + (1 - s0) * (x1 - x0) / (s1 - s0))
    pts = sorted(xs)
    return PLMonotone(tuple((x, min(f.eval(x) + g.eval(x), ONE)) for x in pts))


def pl_half(f: PLMonotone) -> PLMonotone:
    return PLMonotone(tuple((x, y / 2) for x, y in f.breakpoints))


# ---------------------------------------------------------------------------
# Continuity-modulus conversions


def delta_from_inverse(u: PLMonotone) -> Callable[[Fraction], Fraction]:
    """Standard modulus delta(eps) = sup{t : u(t) <= eps} from an inverse one.

    Returns an exact evaluator; the result need not be piecewise linear as a
    function of eps (it jumps where u has flat runs), hence the closure.
    """
    if not u.is_inverse_modulus():
        raise DomainError("inverse modulus must satisfy u(0) = 0")

    def delta(eps) -> Fraction:
        e = ensure_unit(eps)
        if e == 0:
            raise DomainError("delta(eps) is only defined for eps > 0")
        best = ZERO
        for (x0, y0), (x1, y1) in zip(u.breakpoints, u.breakpoints[1:]):
            if y1 <= e:
                best = x1
            elif y0 <= e:  # then y0 <= e < y1, so the segment crosses e
                best = x0 + (e - y0) * (x1 - x0) / (y1 - y0)
        return best

    return delta


def _u0_pieces(delta: PLMonotone):
    """Generalized inverse of delta as closed linear pieces over the value axis.

    The inverse u0(r) = sup{t : delta(t) <= r} is non-decreasing but jumps
    where delta has flat runs; pieces may therefore disagree at shared
    endpoints, the larger value being the function value.
    """
    bps = delta.breakpoints
    pieces = []
    d_first = bps[0][1]
    if d_first > 0:
        pieces.append((ZERO, ZERO, d_first, ZERO))
    for (e0, v0), (e1, v1) in zip(bps, bps[1:]):
        if v1 > v0:
            pieces.append((v0, e0, v1, e1))
    # u0(r) = 1 for every r >= delta(1); degenerate point piece when delta(1) = 1
    d_last = bps[-1][1]
    pieces.append((d_last, ONE, ONE, ONE))
    return pieces


def inverse_from_delta(delta: PLMonotone) -> PLMonotone:
    """Inverse modulus from a standard one, per the h-shaped three-case formula.

    Computes u0 as the generalized inverse of delta, then the upper envelope
    of u0 with one ramp per breakpoint of u0: the ramp anchored at (v, u0(v))
    rises linearly from v/2 and realizes the middle case of the formula.  The
    envelope is continuous, monotone and 0 at 0, and every function
    respecting delta respects it.
    """
    for _, y in delta.breakpoints[1:]:
        if y == 0:
            raise DomainError("delta must be positive on (0,1]")
    pieces = _u0_pieces(delta)

    def u0_at(r: Fraction) -> Fraction:
        best = ZERO
        for r0, t0, r1, t1 in pieces:
            if r0 <= r <= r1:
                t = t0 if r1 == r0 else t0 + (r - r0) * (t1 - t0) / (r1 - r0)
                best = max(best, t)
        return best

    anchors = sorted({r for piece in pieces for r in (piece[0], piece[2])} - {ZERO})
    # components of the envelope: u0's pieces plus one ramp per anchor
    components = [("seg", piece) for piece in pieces]
    for v in anchors:
        components.append(("ramp", (v, u0_at(v))))

    def comp_eval(comp, x: Fraction):
        kind, data = comp
        if kind == "seg":
            r0, t0, r1, t1 = data
            if not (r0 <= x <= r1):
                return None
            return t0 if r1 == r0 else t0 + (x - r0) * (t1 - t0) / (r1 - r0)
        v, h = data
        if x <= v / 2:
            return ZERO
        if x >= v:
            return h
        return h * (2 * x / v - 1)

    xs = {ZERO, ONE}
    for kind, data in components:
        if kind == "seg":
            xs.add(data[0])
            xs.add(data[2])
        else:
            xs.add(data[0] / 2)
            xs.add(data[0])
    # each component once per base knot; between two adjacent knots every
    # component is linear, and two of them cross strictly inside the interval
    # exactly when their difference changes sign strictly across it
    base = sorted(xs)
    table = [[comp_eval(c, x) for x in base] for c in components]
    for k, (x0, x1) in enumerate(zip(base, base[1:])):
        live = [(row[k], row[k + 1]) for row in table
                if row[k] is not None and row[k + 1] is not None]
        for i, (a0, a1) in enumerate(live):
            for b0, b1 in live[i + 1:]:
                if (a0 < b0 and b1 < a1) or (b0 < a0 and a1 < b1):
                    xs.add(x0 + (b0 - a0) * (x1 - x0) / ((a1 - a0) - (b1 - b0)))
    top = {x: max(v for v in column if v is not None) for x, column in zip(base, zip(*table))}

    def envelope(x: Fraction) -> Fraction:
        if x in top:
            return top[x]
        return max(v for v in (comp_eval(c, x) for c in components) if v is not None)

    pts = [(x, envelope(x)) for x in sorted(xs)]
    for (_, y0), (_, y1) in zip(pts, pts[1:]):
        if y1 < y0:
            raise AssertionError("inverse_from_delta produced a non-monotone envelope")
    return PLMonotone(tuple(pts))
