"""Explicit finite topometric spaces and epsilon-Cantor-Bendixson ranks.

A space is a finite point set with an explicit closed-set family (checked
to contain the empty set and the full set and to be closed under union and
intersection), a genuine metric, and a declared test set of epsilons for
which closed metric neighbourhoods of closed sets must again be closed.
The derivative of a subset removes its relatively open pieces of metric
diameter at most epsilon; ranks iterate the derivative.

Internally a set of points is an int bitmask (bit p for point p) and the
metric is held as int numerators over its common denominator, so the
derivative and the epsilon-degree compare ints only.  For each epsilon,
`far[p]` is the mask of the points at distance > epsilon from p: a set S
has diameter <= epsilon iff `far[p] & S == 0` for every p in S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .errors import StructuralError
from .values import ensure_unit, format_rational, parse_rational


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _members(mask: int) -> frozenset:
    return frozenset(_bits(mask))


@dataclass(frozen=True)
class FiniteTopometricSpace:
    points: tuple[str, ...]
    closed_sets: tuple[frozenset, ...]  # frozensets of point indices
    metric: tuple[tuple[Fraction, ...], ...]
    test_epsilons: tuple[Fraction, ...]
    # derived in __post_init__: the closed sets as bitmasks, and the metric
    # as int numerators over the denominator `_den`
    _closed_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _num: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.points)
        if len(set(self.points)) != n or n == 0:
            raise StructuralError("points must be distinct and non-empty")
        masks = tuple(_mask(F) for F in self.closed_sets)
        fam = set(masks)
        if 0 not in fam or (1 << n) - 1 not in fam:
            raise StructuralError("closed sets must contain the empty and full sets")
        members = list(fam)
        for A in members:
            if not (fam.issuperset(map(A.__or__, members))
                    and fam.issuperset(map(A.__and__, members))):
                raise StructuralError("closed sets must be closed under union and intersection")
        if len(self.metric) != n or any(len(row) != n for row in self.metric):
            raise StructuralError("metric matrix has the wrong shape")
        rows = [[Fraction(v) for v in row] for row in self.metric]
        den = math.lcm(*(v.denominator for row in rows for v in row))
        num = tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in rows)
        cols = list(zip(*num))
        for i in range(n):
            row = num[i]
            if row[i] != 0:
                raise StructuralError("metric must vanish on the diagonal")
            for j in range(n):
                if not 0 <= row[j] <= den:
                    ensure_unit(rows[i][j])
                if row[j] != num[j][i]:
                    raise StructuralError("metric must be symmetric")
                if i != j and row[j] == 0:
                    raise StructuralError("metric must separate distinct points")
                if row[j] > min(map(add, row, cols[j])):
                    raise StructuralError("metric violates the triangle inequality")
        object.__setattr__(self, "_closed_masks", masks)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        # the metric refines the topology automatically on a finite point set
        # with a genuine metric; what needs checking is neighbourhood closure
        for eps in self.test_epsilons:
            eps = ensure_unit(eps)
            near = self._near(eps)
            for F in fam:
                if _neighbourhood(near, F) not in fam:
                    raise StructuralError(
                        f"closed {format_rational(eps)}-neighbourhood of a closed set "
                        "is not closed")

    def _near(self, eps: Fraction) -> list[int]:
        """near[q]: the mask of the points p with metric[p][q] <= eps."""
        bound, scale = eps.numerator * self._den, eps.denominator
        n = len(self.points)
        return [_mask(p for p in range(n) if self._num[p][q] * scale <= bound)
                for q in range(n)]

    def _far(self, eps: Fraction) -> list[int]:
        """far[p]: the mask of the points q with metric[p][q] > eps."""
        full = (1 << len(self.points)) - 1
        return [full & ~m for m in self._near(eps)]

    def index(self, name: str) -> int:
        try:
            return self.points.index(name)
        except ValueError:
            raise StructuralError(f"no point named {name!r}") from None

    def closed_neighbourhood(self, subset: frozenset, eps: Fraction) -> frozenset:
        return _members(_neighbourhood(self._near(Fraction(eps)), _mask(subset)))

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "closed_sets": [sorted(self.points[i] for i in F) for F in self.closed_sets],
            "metric": [[format_rational(v) for v in row] for row in self.metric],
            "test_epsilons": [format_rational(e) for e in self.test_epsilons],
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteTopometricSpace":
        if not isinstance(data, dict):
            raise StructuralError("space file must be a JSON object")
        for key in ("points", "closed_sets", "metric"):
            if key not in data:
                raise StructuralError(f"space file has no {key!r}")
            if not isinstance(data[key], list):
                raise StructuralError(f"space file's {key!r} must be a list")
        points = tuple(data["points"])
        if not all(isinstance(p, str) for p in points):
            raise StructuralError("point names must be strings")
        pos = {p: i for i, p in enumerate(points)}
        closed = []
        for F in data["closed_sets"]:
            if not isinstance(F, list):
                raise StructuralError("each closed set must be a list of point names")
            for p in F:
                if not isinstance(p, str) or p not in pos:
                    raise StructuralError(f"closed set names unknown point {p!r}")
            closed.append(frozenset(pos[p] for p in F))
        if not all(isinstance(row, list) for row in data["metric"]):
            raise StructuralError("each metric row must be a list")
        metric = tuple(tuple(parse_rational(v) for v in row) for row in data["metric"])
        if not isinstance(data.get("test_epsilons", []), list):
            raise StructuralError("space file's 'test_epsilons' must be a list")
        eps = tuple(parse_rational(e) for e in data.get("test_epsilons", []))
        return FiniteTopometricSpace(points, tuple(closed), metric, eps)


def _neighbourhood(near: list[int], subset: int) -> int:
    out = 0
    for q in _bits(subset):
        out |= near[q]
    return out


def _is_small(far: list[int], subset: int) -> bool:
    """Diameter of the subset <= epsilon, for the epsilon of `far`."""
    return not any(far[p] & subset for p in _bits(subset))


def _derive(closed: tuple[int, ...], far: list[int], subset: int) -> int:
    result = subset
    for F in closed:
        G = F & subset
        if _is_small(far, subset & ~G):
            result &= G
    return result


def cb_derivative(X: FiniteTopometricSpace, subset: frozenset, epsilon) -> frozenset:
    """One epsilon-Cantor-Bendixson step inside the subspace `subset`.

    Intersects all subsets closed in the subspace whose relative complement
    has diameter at most epsilon.
    """
    far = X._far(ensure_unit(epsilon))
    return _members(_derive(X._closed_masks, far, _mask(subset)))


@dataclass
class CBResult:
    stages: list  # decreasing closed stages, stages[0] = all points
    ranks: dict  # point index -> rank; None means the stages became stationary
    degrees: list  # epsilon-degree of each stage
    stationary: bool


def cb_rank(X: FiniteTopometricSpace, epsilon) -> CBResult:
    """Iterated derivative with per-point ranks and per-stage epsilon-degrees.

    A point's rank is the largest stage containing it; when the stages
    become stationary before emptying, the surviving points have unbounded
    rank, reported as None.
    """
    far = X._far(ensure_unit(epsilon))
    stages = [(1 << len(X.points)) - 1]
    while stages[-1]:
        nxt = _derive(X._closed_masks, far, stages[-1])
        if nxt == stages[-1]:
            break
        stages.append(nxt)
    stationary = bool(stages[-1])
    ranks: dict = {}
    for p in range(len(X.points)):
        if stationary and stages[-1] >> p & 1:
            ranks[p] = None
        else:
            ranks[p] = max(i for i, S in enumerate(stages) if S >> p & 1)
    degrees = [_degree(far, S) for S in stages]
    return CBResult([_members(S) for S in stages], ranks, degrees, stationary)


def epsilon_degree(X: FiniteTopometricSpace, subset: frozenset, epsilon) -> int:
    """Minimal number of diameter-<=epsilon blocks covering the subset.

    Every finite set is epsilon-finite, so this always terminates.  The
    empty set has degree 0.
    """
    return _degree(X._far(ensure_unit(epsilon)), _mask(subset))


def _degree(far: list[int], subset: int) -> int:
    """Minimum cover of the subset by maximal blocks, by iterative deepening.

    Restricting covers to maximal blocks is harmless: any admissible block
    extends to a maximal one.  Some block of any cover holds the lowest
    uncovered point, so each level branches only on the maximal blocks
    through that point.
    """
    if not subset:
        return 0
    through: dict = {p: [] for p in _bits(subset)}
    for block in _maximal_blocks(far, subset):
        for p in _bits(block):
            through[p].append(block)

    def covers(uncovered: int, k: int) -> bool:
        if not uncovered:
            return True
        if not k:
            return False
        low = (uncovered & -uncovered).bit_length() - 1
        return any(covers(uncovered & ~block, k - 1) for block in through[low])

    k = 1
    while not covers(subset, k):
        k += 1
    return k


def _maximal_blocks(far: list[int], subset: int) -> list[int]:
    """Inclusion-maximal subsets of diameter <= epsilon: the maximal cliques
    of the "within epsilon" graph on the subset (Bron-Kerbosch with pivoting).
    """
    adj = {p: subset & ~far[p] & ~(1 << p) for p in _bits(subset)}
    blocks: list[int] = []

    def expand(clique: int, cand: int, done: int):
        if not cand:
            if not done:
                blocks.append(clique)
            return
        pivot = max(_bits(cand | done), key=lambda u: (cand & adj[u]).bit_count())
        for v in _bits(cand & ~adj[pivot]):
            bit = 1 << v
            expand(clique | bit, cand & adj[v], done & adj[v])
            cand &= ~bit
            done |= bit

    expand(0, subset, 0)
    return blocks
