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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import DomainError, StructuralError
from .language import Const, Op, ValueVar, nodes
from .values import (
    CONNECTIVES,
    ZERO,
    check_connective,
    ensure_unit,
    format_rational,
    is_dyadic,
    monus,
    neg,
    parse_rational,
)

MAX_SLOPE = 64
_ARITY = {name: arity for name, (arity, _) in CONNECTIVES.items()}


def _check_pitch(pitch: Fraction) -> Fraction:
    p = ensure_unit(pitch)
    if p == 0 or not is_dyadic(p) or p.numerator != 1:
        raise StructuralError("pitch must be a dyadic unit fraction")
    return p


@dataclass(frozen=True)
class GridFunction:
    """A [0,1]-valued function tabulated on the dyadic grid of a given pitch."""

    arity: int
    pitch: Fraction
    values: Mapping[tuple, Fraction]

    def __post_init__(self):
        if self.arity < 1:
            raise StructuralError("arity must be at least 1")
        _check_pitch(self.pitch)
        pts = set(self.grid_points())
        if set(self.values) != pts:
            raise StructuralError("values must cover exactly the grid")
        for v in self.values.values():
            ensure_unit(v)

    def axis(self):
        steps = int(1 / self.pitch)
        return [self.pitch * k for k in range(steps + 1)]

    def grid_points(self):
        return list(itertools.product(self.axis(), repeat=self.arity))

    def to_json(self) -> dict:
        flat = [format_rational(self.values[pt]) for pt in self.grid_points()]
        return {"arity": self.arity, "pitch": format_rational(self.pitch), "values": flat}

    @staticmethod
    def from_json(data: dict) -> "GridFunction":
        """Checks arity, pitch and the value count before building the grid."""
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
        pitch = _check_pitch(parse_rational(data["pitch"]))
        texts = data["values"]
        if not isinstance(texts, list):
            raise StructuralError("grid function values must be a list")
        steps = pitch.denominator
        # (steps + 1) ** arity >= 2 ** arity exceeds the count once arity
        # passes its bit length, so a huge arity is never raised to a power
        if arity > len(texts).bit_length() or (steps + 1) ** arity != len(texts):
            raise StructuralError(
                f"expected {steps + 1}^{arity} grid values, got {len(texts)}")
        axis = [pitch * k for k in range(steps + 1)]
        pts = itertools.product(axis, repeat=arity)
        return GridFunction(arity, pitch, dict(zip(pts, map(parse_rational, texts))))


def eval_on_grid(expr, points: Sequence[Sequence[Fraction]]) -> tuple[list[int], int]:
    """Values of an expression at every point, as int numerators over one scale.

    Value variable t<i> reads coordinate i of each point.  Constants and
    coordinates must lie in [0,1].
    """
    nums, scale, _, _ = _eval_packed(expr, points)
    return nums, scale


def _eval_packed(expr, points):
    """`eval_on_grid`, the count of distinct nodes and the written-out size.

    One children-first walk over the DAG, without recursion, finishes each
    distinct node once: it checks the node, records its written-out size (1
    plus its arguments' sizes) and fixes its exact scale: a constant's
    denominator, the lcm of the coordinates' denominators at a variable,
    twice the child's scale under `half`, and the lcm of the children's
    scales at a binary connective or `med`.  A second loop evaluates each
    connective once over D, the lcm of all those scales, with the points
    packed into one int, one lane of `D.bit_length() + 2` bits per point.
    Every value lies in [0, D], so the top bit of a lane is free as a guard
    for `monus`, and every lane of a `half` argument is even at scale D.
    """
    columns = {f"t{i}": [ensure_unit(pt[i]) for pt in points]
               for i in range(len(points[0]) if points else 0)}
    var_scale = {name: math.lcm(*(v.denominator for v in col)) for name, col in columns.items()}
    scale: dict = {}  # id(node) -> exact scale of the node's values
    size: dict = {}  # id(node) -> written-out size of the node
    ops, consts, variables = [], [], []  # the distinct nodes, each list children first
    lcm = math.lcm

    def leaf(node) -> int:
        cls = type(node)
        if cls is Const:
            if not 0 <= node.value.numerator <= node.value.denominator:
                raise DomainError(f"value {node.value} outside [0,1]")
            s = node.value.denominator
            consts.append(node)
        elif cls is ValueVar:
            if node.name not in columns:
                raise StructuralError(f"unbound value variable {node.name!r}")
            s = var_scale[node.name]
            variables.append(node)
        else:
            raise StructuralError(
                "expression must use only value variables, connectives, constants")
        scale[id(node)] = s
        size[id(node)] = 1
        return s

    stack = [expr] if type(expr) is Op else []
    if not stack:
        leaf(expr)
    push, pop = stack.append, stack.pop
    while stack:  # an Op stays on the stack until its arguments are finished
        node = stack[-1]
        key = id(node)
        if key in scale:  # pushed by two parents before either was finished
            pop()
            continue
        s = z = 1
        waiting = False
        for a in node.args:
            k = id(a)
            if k in scale:
                s = lcm(s, scale[k])
                z += size[k]
            elif type(a) is Op:
                push(a)
                waiting = True
            else:
                s = lcm(s, leaf(a))
                z += 1
        if waiting:
            continue
        pop()
        op, args = node.op, node.args
        if _ARITY.get(op) != len(args):  # med, or a call that raises
            check_connective(op, len(args), node.n)
        scale[key] = 2 * s if op == "half" else s
        size[key] = z
        ops.append(node)

    D = math.lcm(*set(scale.values()))
    written = size[id(expr)]
    scale.clear()  # the walk's tables go before the values come
    size.clear()
    lanes = len(points)
    width = D.bit_length() + 2
    mask = (1 << width) - 1
    ones = ((1 << (width * lanes)) - 1) // mask  # 1 in every lane
    full = D * ones
    guard = ones << (width - 1)
    shift = width - 1

    def pack(nums) -> int:
        x = 0
        for v in reversed(nums):
            x = (x << width) | v
        return x

    def unpack(x: int) -> list[int]:
        return [(x >> (i * width)) & mask for i in range(lanes)]

    def monus(x: int, y: int) -> int:
        t = x + guard - y  # lane = 2^shift + x - y, its guard bit set iff x >= y
        g = t & guard
        return t & (g - (g >> shift))

    coords = {name: pack([v.numerator * (D // v.denominator) for v in col])
              for name, col in columns.items()}
    val: dict = {id(v): coords[v.name] for v in variables}
    val.update((id(c), c.value.numerator * (D // c.value.denominator) * ones) for c in consts)
    for node in ops:
        op, args = node.op, node.args
        if op == "monus":  # monus and neg are inlined: synthesis writes nothing else
            t = val[id(args[0])] + guard - val[id(args[1])]
            g = t & guard
            x = t & (g - (g >> shift))
        elif op == "neg":
            x = full - val[id(args[0])]
        else:
            args = [val[id(a)] for a in args]
            if op == "half":
                x = args[0] >> 1
            elif op == "min":
                x = args[0] - monus(*args)
            elif op == "max":
                x = args[1] + monus(*args)
            elif op == "absdiff":
                x = monus(*args) + monus(args[1], args[0])
            elif op == "plus_trunc":
                x = full - monus(full - args[0], args[1])
            else:  # med
                k = node.n - 1
                x = pack([sorted(column)[k] for column in zip(*map(unpack, args))])
        val[id(node)] = x
    return unpack(val[id(expr)]), D, len(ops) + len(consts) + len(variables), written


def _grid_error(expr, target: GridFunction) -> tuple[Fraction, int, int]:
    """Exact max over grid points of |expression - target|, the distinct-node
    count and the written-out size."""
    pts = target.grid_points()
    got, scale, nodes, written = _eval_packed(expr, pts)
    want = [target.values[pt] for pt in pts]
    den = math.lcm(scale, *(v.denominator for v in want))
    k = den // scale
    return Fraction(max(abs(x * k - v.numerator * (den // v.denominator))
                        for x, v in zip(got, want)), den), nodes, written


def uses_only_neg_monus_constants(expr) -> bool:
    """AST scan: negation, truncated subtraction, dyadic constants, variables."""
    return all(isinstance(node, ValueVar)
               or isinstance(node, Const) and is_dyadic(node.value)
               or isinstance(node, Op) and node.op in ("neg", "monus")
               for node in nodes(expr))


def value_variables(expr) -> set:
    """Names of the value variables occurring in an expression (DAG-aware)."""
    return {node.name for node in nodes(expr) if isinstance(node, ValueVar)}


# Each constructor makes one node, and a Const when every argument is one,
# so synthesized expressions hold no all-constant subterm.
def _monus(a, b):
    if type(a) is Const and type(b) is Const:
        return Const(monus(a.value, b.value))
    return Op("monus", (a, b))


def _neg(a):
    return Const(neg(a.value)) if type(a) is Const else Op("neg", (a,))


def _fold_max(exprs):
    """Balanced max tree; x \\/ y = not((not x) -. ((not x) -. (not y)))."""
    if len(exprs) == 1:
        return exprs[0]
    mid = len(exprs) // 2
    x = _fold_max(exprs[:mid])
    y = _fold_max(exprs[mid:])
    nx, ny = _neg(x), _neg(y)
    return _neg(_monus(nx, _monus(nx, ny)))


def _fold_min(exprs):
    """Balanced min tree; x /\\ y = x -. (x -. y)."""
    if len(exprs) == 1:
        return exprs[0]
    mid = len(exprs) // 2
    x = _fold_min(exprs[:mid])
    y = _fold_min(exprs[mid:])
    return _monus(x, _monus(x, y))


@dataclass
class SynthesisResult:
    expression: object
    max_error: Fraction
    size: int
    requested_epsilon: Fraction
    rounding_exponent: int
    written_out_nodes: int


def expression_tree_size(expr) -> int:
    """Size of the expression written out as text (no sharing), exactly."""
    memo: dict = {}

    def go(node) -> int:
        key = id(node)
        if key in memo:
            return memo[key]
        size = 1 + sum(go(a) for a in node.args) if isinstance(node, Op) else 1
        memo[key] = size
        return size

    return go(expr)


def expression_text(expr, tree_size: int) -> Optional[str]:
    """Grammar text of the expression, or None when its `expression_tree_size`
    exceeds 200,000 nodes."""
    from .language import print_formula

    return None if tree_size > 200_000 else print_formula(expr)


def _point_text(pt) -> str:
    return f"({', '.join(map(format_rational, pt))})"


def synthesize(target: GridFunction, epsilon,
               step_modulus: Optional[Fraction] = None) -> SynthesisResult:
    """Lattice-construction approximation of the target on its grid.

    The returned expression uses only negation, truncated subtraction and
    dyadic constants in the value variables t0..t(n-1), and differs from
    the target by at most epsilon at every grid point (the achieved error
    is the dyadic rounding error, at most 2^-(k+1) <= epsilon).  The caller
    owns the off-grid contract: epsilon should be at least twice the
    target's oscillation over one pitch step for the expression to be
    meaningful between grid points.  That precondition is enforced only
    when `step_modulus` is supplied explicitly; the grid certificate
    itself never needs it.  A pair needing a slope beyond the cap raises
    a DomainError naming it.

    The pairs are built on ints: coordinates as indices over steps =
    1/pitch, roundings as numerators over K = 2^k, and constants take their
    Fractions from per-call tables.
    """
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
    axis = target.axis()
    pts = target.grid_points()
    idx = list(itertools.product(range(steps + 1), repeat=target.arity))
    # nearest multiple of 1/K, half rounded up
    approx = [(2 * v.numerator * K + v.denominator) // (2 * v.denominator)
              for v in map(target.values.__getitem__, pts)]
    level = {i: Fraction(i, K) for a in approx for i in (a, K - a)}
    names = [f"t{c}" for c in range(target.arity)]

    g_rows = []
    for xi, (x, ax) in enumerate(zip(idx, approx)):
        row = []
        for yi, (y, ay) in enumerate(zip(idx, approx)):
            if xi == yi:
                continue
            c = 0
            while x[c] == y[c]:
                c += 1
            u, v = x[c], y[c]
            a, b = (ax, ay) if u < v else (ay, ax)
            if u > v:
                u, v = v, u
            flip = a < b
            if flip:
                a, b = K - a, K - b
            if a == 0:
                row.append(Const(ZERO))
                continue
            m = -(-a * steps // ((v - u) * K))  # the least m with m * (v - u) / steps >= a / K
            if m > MAX_SLOPE:
                raise DomainError(f"slope {m} exceeds the cap {MAX_SLOPE} for the pair "
                                  f"{_point_text(pts[xi])} -> {_point_text(pts[yi])}")
            step = Op("monus", (ValueVar(names[c]), Const(axis[u])))
            ramp = Const(level[a])
            for _ in range(m):
                ramp = Op("monus", (ramp, step))
            if b > 0:  # (A -. m(t -. u)) \\/ B
                nx = Op("neg", (ramp,))
                ramp = Op("neg", (Op("monus", (nx, Op("monus", (nx, Const(level[K - b]))))),))
            row.append(Op("neg", (ramp,)) if flip else ramp)
        g_rows.append(_fold_max(row))
    expr = _fold_min(g_rows)

    worst, size, written = _grid_error(expr, target)
    if worst > eps:
        raise AssertionError("synthesis exceeded the requested error bound")
    return SynthesisResult(expr, worst, size, eps, k, written)


def verify_synthesis(expr, target: GridFunction) -> Fraction:
    """Exact max over grid points of |expression - target|."""
    names = value_variables(expr)
    allowed = {f"t{i}" for i in range(target.arity)}
    if not names <= allowed:
        raise StructuralError(f"expression uses variables {sorted(names - allowed)}")
    return _grid_error(expr, target)[0]


# ---------------------------------------------------------------------------
# Negative witness: the monotone-lattice system is 1-Lipschitz


def lattice_closure_vectors(axis: Sequence[Fraction], constants: Sequence[Fraction],
                            depth: int):
    """Value vectors on a 1-variable grid of all {neg, min, max} expressions.

    Seeds are the variable itself and the given constants; closure is taken
    to the stated depth with deduplication by value vector.  Every vector in
    the closure is 1-Lipschitz on the grid, which is the point of the
    negative witness.  The closure runs on int numerators over the common
    denominator of the axis and the constants.
    """
    constants = [ensure_unit(c) for c in constants]
    axis = [Fraction(t) for t in axis]
    den = math.lcm(*(v.denominator for v in [*axis, *constants]))
    var = tuple(t.numerator * (den // t.denominator) for t in axis)
    seeds = {var} | {(c.numerator * (den // c.denominator),) * len(var) for c in constants}
    known = dict.fromkeys(seeds, 0)
    frontier = set(seeds)
    for level in range(1, depth + 1):
        new = set()
        snapshot = list(known)
        for u in frontier:
            cand = tuple(den - x for x in u)
            if cand not in known:
                new.add(cand)
        for u in frontier:
            for v in snapshot:
                for cand in (tuple(map(min, u, v)), tuple(map(max, u, v))):
                    if cand not in known:
                        new.add(cand)
        for cand in new:
            known[cand] = level
        frontier = new
        if not new:
            break
    return [tuple(Fraction(x, den) for x in vec) for vec in known]
