"""Connective synthesis: lattice approximation of grid functions.

Builds, for a target function tabulated on a dyadic grid, an expression
over value variables using only negation, truncated subtraction, and
dyadic constants, whose value agrees with the target within a requested
epsilon at every grid point.  The construction follows the two-point
interpolant / finite max-of-mins cover: for each ordered pair of grid
points a ramp expression matches (dyadic roundings of) the target at both
points; max over second points then min over first points yields the
approximation.  Certification is on the grid only; off-grid use must
absorb the target's oscillation over one pitch step into epsilon.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Optional, Sequence

from .errors import DomainError, StructuralError
from .language import Const, Op, ValueVar, nodes
from .values import (
    Frozen,
    Lanes,
    check_connective,
    ensure_unit,
    format_ratio,
    format_rational,
    is_dyadic,
    parse_rational,
)

MAX_SLOPE = 64


class GridFunction(Frozen):
    """A [0,1]-valued function tabulated on the dyadic grid of a given pitch.

    `from_json` is the checked entry; the constructor trusts its caller.
    """

    # values: in the order of `grid_points`, as the file lists them
    __slots__ = ("arity", "pitch", "values")

    def __init__(self, arity: int, pitch: Fraction, values: tuple[Fraction, ...]):
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "pitch", pitch)
        object.__setattr__(self, "values", values)

    def grid_points(self):
        axis = [self.pitch * k for k in range(self.pitch.denominator + 1)]
        return list(itertools.product(axis, repeat=self.arity))

    def to_json(self) -> dict:
        return {"arity": self.arity, "pitch": format_rational(self.pitch),
                "values": list(map(format_rational, self.values))}

    @staticmethod
    def from_json(data: dict) -> "GridFunction":
        """Checks arity, pitch and the value count before parsing the values."""
        if not isinstance(data, dict):
            raise StructuralError("grid function file must be a JSON object")
        for key in ("arity", "pitch", "values"):
            if key not in data:
                raise StructuralError(f"grid function file has no {key!r}")
        arity = data["arity"]
        if isinstance(arity, str) and arity.strip().isdecimal():
            arity = int(arity)
        if type(arity) is not int:
            raise StructuralError(f"arity {arity!r} is not an integer")
        if arity < 1:
            raise StructuralError("arity must be at least 1")
        pitch = ensure_unit(parse_rational(data["pitch"]))
        if pitch == 0 or not is_dyadic(pitch) or pitch.numerator != 1:
            raise StructuralError("pitch must be a dyadic unit fraction")
        texts = data["values"]
        if not isinstance(texts, list):
            raise StructuralError("grid function values must be a list")
        steps = pitch.denominator
        # (steps + 1) ** arity >= 2 ** arity exceeds the count once arity
        # passes its bit length, so a huge arity is never raised to a power
        if arity > len(texts).bit_length() or (steps + 1) ** arity != len(texts):
            raise StructuralError(
                f"expected {steps + 1}^{arity} grid values, got {len(texts)}")
        # every value is parsed before any is range-checked
        values = tuple(map(parse_rational, texts))
        for v in values:
            ensure_unit(v)
        return GridFunction(arity, pitch, values)


def eval_on_grid(expr, points: Sequence[Sequence[Fraction]]) -> tuple[list[int], int]:
    """Values of an expression at every point, as int numerators over one scale;
    t<i> reads coordinate i, and constants and coordinates must lie in [0,1]."""
    t, columns = _to_table(expr, points)
    return _certify(t, columns, len(points))[0], t.den


# Table kinds: the connectives by their index in _KINDS, then constants and variables
_KINDS = ("neg", "half", "monus", "min", "max", "absdiff", "plus_trunc", "med")
NEG, HALF, MONUS, MIN, MAX, ABSDIFF, PLUS_TRUNC, MED, CONST, VAR = range(10)


class _Table:
    """An expression as four parallel int lists, each entry after its arguments
    and the root last.  Entry i is the constant const[i] / den, the variable
    t<left[i]>, or the connective _KINDS[kind[i]] over entries left[i] and
    right[i] (equal when unary); a `med` takes n from const[i] and its
    arguments from meds[left[i]].  Folded constants can leave unreached entries."""

    __slots__ = ("kind", "left", "right", "const", "meds", "den")

    def __init__(self, den: int):
        self.kind, self.left, self.right, self.const, self.meds = [], [], [], [], []
        self.den = den

    def add(self, kind: int, left: int = 0, right: Optional[int] = None, const: int = 0) -> int:
        self.kind.append(kind)
        self.left.append(left)
        self.right.append(left if right is None else right)
        self.const.append(const)
        return len(self.const) - 1

    # one entry each, a constant when every argument is one: no all-constant subterm
    def monus(self, a: int, b: int) -> int:
        if self.kind[a] == CONST == self.kind[b]:
            return self.add(CONST, const=max(self.const[a] - self.const[b], 0))
        return self.add(MONUS, a, b)

    def neg(self, a: int) -> int:
        if self.kind[a] == CONST:
            return self.add(CONST, const=self.den - self.const[a])
        return self.add(NEG, a)


_ONLY_VALUE_NODES = "expression must use only value variables, connectives, constants"


def _to_table(expr, points):
    """An expression as a table, with its variables' coordinates as int
    numerators over the table's denominator D.  The walk over `nodes` finishes
    each distinct node once, children first: it checks the node, adds its
    entry and fixes its exact scale: a constant's denominator, the lcm of the
    coordinates' denominators at a variable, twice the child's scale under
    `half`, and the lcm of the children's scales otherwise.  D is their lcm,
    so a `half` argument's lanes are even at D."""
    columns = [[ensure_unit(pt[i]) for pt in points]
               for i in range(len(points[0]) if points else 0)]
    names = {f"t{i}": i for i in range(len(columns))}
    var_scale = [math.lcm(*(v.denominator for v in col)) for col in columns]
    t, index, scale = _Table(1), {}, []  # id(node) -> its entry; entry -> its exact scale
    try:
        order = nodes(expr)
    except StructuralError:  # an argument that is no node at all
        raise StructuralError(_ONLY_VALUE_NODES) from None
    for node in order:
        cls = type(node)
        if cls is Op:
            op, args = node.op, node.args
            check_connective(op, len(args), node.n)
            kids = [index[id(a)] for a in args]
            if op == "med":
                t.meds.append(kids)
                index[id(node)] = t.add(MED, len(t.meds) - 1, 0, node.n)
            else:
                index[id(node)] = t.add(_KINDS.index(op), kids[0], kids[-1])
            s = math.lcm(*(scale[i] for i in kids))
            scale.append(2 * s if op == "half" else s)
        elif cls is Const:
            v = node.value
            if not 0 <= v.numerator <= v.denominator:
                raise DomainError(f"value {v} outside [0,1]")
            index[id(node)] = t.add(CONST, const=v)  # a numerator over D once D is known
            scale.append(v.denominator)
        elif cls is ValueVar and node.name in names:
            index[id(node)] = t.add(VAR, names[node.name])
            scale.append(var_scale[names[node.name]])
        elif cls is ValueVar:
            raise StructuralError(f"unbound value variable {node.name!r}")
        else:
            raise StructuralError(_ONLY_VALUE_NODES)
    t.den = D = math.lcm(*scale)
    t.const = [c.numerator * (D // c.denominator) if k == CONST else c
               for k, c in zip(t.kind, t.const)]
    return t, [[v.numerator * (D // v.denominator) for v in col] for col in columns]


def _certify(t: _Table, columns, lanes: int) -> tuple[list[int], int, int]:
    """The root's value on every lane as int numerators over t.den, the count
    of entries the root reaches and its written-out size.  A backward loop
    counts the paths from the root to each entry: positive exactly where the
    root reaches, they add up to the written-out size.  A forward loop then
    evaluates each reached entry once on `Lanes` of values in [0, t.den]."""
    kind, left, right, const, meds = t.kind, t.left, t.right, t.const, t.meds
    n = len(kind)
    paths = [0] * n
    paths[-1] = 1
    for i in range(n - 1, -1, -1):
        p = paths[i]
        if p and kind[i] < MED:
            paths[left[i]] += p
            if kind[i] > HALF:
                paths[right[i]] += p
        elif p and kind[i] == MED:
            for a in meds[left[i]]:
                paths[a] += p
    packed = Lanes(t.den, lanes)
    ones, monus, full = packed.ones, packed.monus, t.den * packed.ones
    coords = [packed.pack(col) for col in columns]
    val = [0] * n
    for i in compress(range(n), paths):
        k = kind[i]
        if k == MONUS:  # monus and neg first: synthesis writes no other connective
            val[i] = monus(val[left[i]], val[right[i]])
        elif k == NEG:
            val[i] = full - val[left[i]]
        elif k == CONST:
            val[i] = const[i] * ones
        elif k == VAR:
            val[i] = coords[left[i]]
        elif k == HALF:
            val[i] = val[left[i]] >> 1
        elif k == MED:
            cols = zip(*(packed.unpack(val[a]) for a in meds[left[i]]))
            val[i] = packed.pack([sorted(c)[const[i] - 1] for c in cols])
        elif k == PLUS_TRUNC:
            val[i] = full - monus(full - val[left[i]], val[right[i]])
        else:
            a, b = val[left[i]], val[right[i]]
            d = monus(a, b)
            val[i] = a - d if k == MIN else b + d if k == MAX else d + monus(b, a)
    return packed.unpack(val[-1]), n - paths.count(0), sum(paths)


def _grid_error(t: _Table, columns, want) -> tuple[Fraction, int, int]:
    """Exact max of |expression - target| over the grid, `want` in grid order, and the counts."""
    got, distinct, written = _certify(t, columns, len(want))
    den = math.lcm(t.den, *(v.denominator for v in want))
    k = den // t.den
    return Fraction(max(abs(x * k - v.numerator * (den // v.denominator))
                        for x, v in zip(got, want)), den), distinct, written


def _fold(t: _Table, exprs, join: bool) -> int:
    """Balanced min tree, x /\\ y = x -. (x -. y), or with `join` its De Morgan dual."""
    if len(exprs) == 1:
        return exprs[0]
    mid = len(exprs) // 2
    x, y = _fold(t, exprs[:mid], join), _fold(t, exprs[mid:], join)
    if join:
        x, y = t.neg(x), t.neg(y)
    z = t.monus(x, t.monus(x, y))
    return t.neg(z) if join else z


def _to_dag(t: _Table):
    """A table without `med` as an `Op` DAG, one node per entry the root reaches."""
    node = []
    for k, a, b, c in zip(t.kind, t.left, t.right, t.const):
        node.append(Const(Fraction(c, t.den)) if k == CONST else ValueVar(f"t{a}")
                    if k == VAR else Op(_KINDS[k], (node[a], node[b]) if k > HALF else (node[a],)))
    return node[-1]


class SynthesisResult:
    """A synthesized table with its certificate; `expression` is its DAG, built on first use."""

    def __init__(self, table: _Table, max_error: Fraction, size: int,
                 requested_epsilon: Fraction, rounding_exponent: int, written_out_nodes: int):
        self.table = table
        self.max_error = max_error
        self.size = size
        self.requested_epsilon = requested_epsilon
        self.rounding_exponent = rounding_exponent
        self.written_out_nodes = written_out_nodes

    expression = cached_property(lambda self: _to_dag(self.table))


def expression_tree_size(expr) -> int:
    """Size of the expression written out as text (no sharing), exactly."""
    size: dict = {}
    for node in nodes(expr):
        size[id(node)] = 1 + sum(size[id(a)] for a in node.args) if type(node) is Op else 1
    return size[id(expr)]


def expression_text(res: SynthesisResult) -> Optional[str]:
    """The text `print_formula` gives for `res.expression`, written from the
    table, or None when the written-out size exceeds 200,000 nodes."""
    if res.written_out_nodes > 200_000:
        return None
    t, consts = res.table, {}  # consts: numerator -> its text
    text, last = [""] * len(t.kind), [0] * len(t.kind)  # last: the last entry reading each
    for i, (k, a, b) in enumerate(zip(t.kind, t.left, t.right)):
        if k == MONUS or k == NEG:
            last[a] = last[b] = i
    for i, (k, a, b, c) in enumerate(zip(t.kind, t.left, t.right, t.const)):
        if k == MONUS:  # a monus is parenthesized as a right argument and under not
            r = f"({text[b]})" if t.kind[b] == MONUS else text[b]
            text[i] = f"{text[a]} -. {r}"
        elif k == NEG:
            text[i] = f"not ({text[a]})" if t.kind[a] == MONUS else f"not {text[a]}"
        elif k == CONST:
            text[i] = consts.get(c) or consts.setdefault(c, format_rational(Fraction(c, t.den)))
        else:
            text[i] = f"t{a}"
        if last[a] == i:  # only a reader is an entry's last; the text goes with its use
            text[a] = ""
        if last[b] == i:
            text[b] = ""
    return text[-1]


def synthesize(target: GridFunction, epsilon,
               step_modulus: Optional[Fraction] = None) -> SynthesisResult:
    """Lattice-construction approximation of the target on its grid.

    The returned expression uses only negation, truncated subtraction and
    dyadic constants in the value variables t0..t(n-1), and differs from
    the target by at most epsilon at every grid point (the achieved error
    is the dyadic rounding error, at most 2^-(k+1) <= epsilon).  The caller
    owns the off-grid contract: epsilon should be at least twice the
    target's oscillation over one pitch step for the expression to be
    meaningful between grid points; it is enforced only when `step_modulus`
    is given.  A slope beyond the cap raises a DomainError naming the pair.
    The table is built on ints: coordinates as indices over steps = 1/pitch,
    roundings over K = 2^k, constants over D = max(K, steps)."""
    eps = ensure_unit(epsilon)
    if eps == 0:
        raise DomainError("epsilon must be positive")
    if not is_dyadic(eps):
        raise DomainError("epsilon must be dyadic")
    if step_modulus is not None and eps < 2 * ensure_unit(step_modulus):
        raise DomainError(
            f"epsilon {format_rational(eps)} is below twice the declared step "
            f"modulus {format_rational(Fraction(step_modulus))}")
    k = 0
    while Fraction(1, 2 ** (k + 1)) > eps:
        k += 1
    K = 2 ** k

    steps = target.pitch.denominator
    D = max(K, steps)
    idx = list(itertools.product(range(steps + 1), repeat=target.arity))
    # nearest multiple of 1/K, half rounded up
    approx = [(2 * v.numerator * K + v.denominator) // (2 * v.denominator)
              for v in target.values]
    t = _Table(D)
    add = t.add

    g_rows = []
    for xi, (x, ax) in enumerate(zip(idx, approx)):
        row = []
        for yi, (y, ay) in enumerate(zip(idx, approx)):
            if xi == yi:
                continue
            c = 0
            while x[c] == y[c]:
                c += 1
            u, v, a, b = (x[c], y[c], ax, ay) if x[c] < y[c] else (y[c], x[c], ay, ax)
            flip = a < b
            if flip:
                a, b = K - a, K - b
            if a == 0:
                row.append(add(CONST))
                continue
            m = -(-a * steps // ((v - u) * K))  # the least m with m * (v - u) / steps >= a / K
            if m > MAX_SLOPE:
                pair = " -> ".join(f"({', '.join(format_ratio(i, steps) for i in idx[j])})"
                                   for j in (xi, yi))
                raise DomainError(f"slope {m} exceeds the cap {MAX_SLOPE} for the pair {pair}")
            step = add(MONUS, add(VAR, c), add(CONST, const=u * (D // steps)))
            ramp = add(CONST, const=a * (D // K))
            for _ in range(m):
                ramp = add(MONUS, ramp, step)
            if b > 0:  # (A -. m(t -. u)) \\/ B
                nx = add(NEG, ramp)
                ramp = add(NEG, add(MONUS, nx, add(MONUS, nx, add(CONST, const=(K - b) * D // K))))
            row.append(add(NEG, ramp) if flip else ramp)
        g_rows.append(_fold(t, row, True))
    _fold(t, g_rows, False)  # the root: more than one row, so it is the last entry

    columns = [[x[c] * (D // steps) for x in idx] for c in range(target.arity)]
    worst, size, written = _grid_error(t, columns, target.values)
    if worst > eps:
        raise AssertionError("synthesis exceeded the requested error bound")
    return SynthesisResult(t, worst, size, eps, k, written)


def verify_synthesis(expr, target: GridFunction) -> Fraction:
    """Exact max over grid points of |expression - target|; an expression
    `eval_on_grid` rejects is rejected with the same error."""
    return _grid_error(*_to_table(expr, target.grid_points()), target.values)[0]
