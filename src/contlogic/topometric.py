"""Explicit finite topometric spaces and epsilon-Cantor-Bendixson ranks.

A space is a finite point set with an explicit closed-set family (checked
to contain the empty set and the full set and to be closed under union and
intersection), a genuine metric, and a declared test set of epsilons for
which closed metric neighbourhoods of closed sets must again be closed.
The derivative of a subset removes its relatively open pieces of metric
diameter at most epsilon; ranks iterate the derivative.

A space holds ints only: a point set is a bitmask (bit p for point p) and
the metric is int numerators over one denominator.  Frozensets of point
indices are only taken and returned at the edges (`cb_derivative`,
`epsilon_degree`, the stages of `cb_rank`).  For an epsilon, `far[p]`
masks the points farther than epsilon from p: S has diameter <= epsilon
iff no p in S has `far[p] & S`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from operator import add, and_, or_
from typing import NamedTuple

from .errors import StructuralError
from .values import (
    Frozen,
    check_unit,
    ensure_unit,
    format_ratio,
    format_rational,
    parse_literals,
    parse_rational,
)


def _mask(indices) -> int:
    return reduce(or_, map((1).__lshift__, indices), 0)


def _members(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteTopometricSpace(Frozen):
    # closed_masks: bit p for point p; the distance from p to q is num[p][q] / den
    __slots__ = ("points", "closed_masks", "num", "den", "test_epsilons")

    def __init__(self, points: tuple[str, ...], closed_masks: tuple[int, ...],
                 num: tuple[tuple[int, ...], ...], den: int,
                 test_epsilons: tuple[Fraction, ...]):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "closed_masks", closed_masks)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "test_epsilons", test_epsilons)
        n = len(self.points)
        if len(set(self.points)) != n or n == 0:
            raise StructuralError("points must be distinct and non-empty")
        fam = set(self.closed_masks)
        if 0 not in fam or (1 << n) - 1 not in fam:
            raise StructuralError("closed sets must contain the empty and full sets")
        # each closed set is the union of least[p], the meet of the closed sets
        # through p, over its points p; if every closed set joined with every
        # least set is closed, so is every union of least sets: the down-sets of
        # the preorder "q in least[p]", a lattice that holds every closed set
        members = list(fam)
        union = reduce(or_, members)
        least = {reduce(and_, filter((1 << p).__and__, members), union)
                 for p in range(union.bit_length())}
        if not all(fam.issuperset(map(g.__or__, members)) for g in least):
            raise StructuralError("closed sets must be closed under union and intersection")
        num, den = self.num, self.den
        if len(num) != n or any(len(row) != n for row in num):
            raise StructuralError("metric matrix has the wrong shape")
        # scan cell by cell, in row order, only a row that fails the whole-row
        # test, so the first faulty cell names the error.  A row equal to its
        # column, after rows that passed, meets the triangle inequality at
        # (i, j) for j < i exactly when row j met it at (j, i)
        cols = list(zip(*num))
        for i, row in enumerate(num):
            if row[i] != 0:
                raise StructuralError("metric must vanish on the diagonal")
            if (min(row) >= 0 and max(row) <= den and row == cols[i] and row.count(0) == 1
                    and all(row[j] <= min(map(add, row, cols[j])) for j in range(i + 1, n))):
                continue
            for j in range(n):
                check_unit(row[j], den)
                if row[j] != num[j][i]:
                    raise StructuralError("metric must be symmetric")
                if i != j and row[j] == 0:
                    raise StructuralError("metric must separate distinct points")
                if row[j] > min(map(add, row, cols[j])):
                    raise StructuralError("metric violates the triangle inequality")
        # the metric refines the topology automatically on a finite point set
        # with a genuine metric; what needs checking is neighbourhood closure,
        # and as neighbourhoods preserve unions, only of the least closed sets
        for eps in map(ensure_unit, self.test_epsilons):
            near = [(1 << n) - 1 ^ far for far in self._far(eps)]
            if not all(reduce(or_, map(near.__getitem__, _members(g))) in fam for g in least):
                raise StructuralError(
                    f"closed {format_rational(eps)}-neighbourhood of a closed set "
                    "is not closed")

    def _far(self, eps: Fraction) -> list[int]:
        """far[p]: the mask of the points q with num[p][q] / den > eps."""
        limit = eps.numerator * self.den // eps.denominator
        bits = [1 << p for p in range(len(self.points))]
        return [sum(compress(bits, map(limit.__lt__, row))) for row in self.num]

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "closed_sets": [sorted(map(self.points.__getitem__, _members(F)))
                            for F in self.closed_masks],
            "metric": [[format_ratio(v, self.den) for v in row] for row in self.num],
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
        masks = []
        for F in data["closed_sets"]:
            if not isinstance(F, list):
                raise StructuralError("each closed set must be a list of point names")
            try:
                masks.append(_mask(map(pos.__getitem__, F)))
            except (KeyError, TypeError):
                bad = next(p for p in F if not isinstance(p, str) or p not in pos)
                raise StructuralError(f"closed set names unknown point {bad!r}") from None
        rows = data["metric"]
        if not all(isinstance(row, list) for row in rows):
            raise StructuralError("each metric row must be a list")
        cells = list(chain.from_iterable(rows))
        try:
            den, scaled = parse_literals(cells)
        except TypeError:  # an unhashable cell: the first bad cell in row order names the error
            for cell in cells:
                parse_rational(cell)
            raise
        if not isinstance(data.get("test_epsilons", []), list):
            raise StructuralError("space file's 'test_epsilons' must be a list")
        eps = tuple(parse_rational(e) for e in data.get("test_epsilons", []))
        return FiniteTopometricSpace(points, tuple(masks),
                                     tuple(tuple(map(scaled.__getitem__, r)) for r in rows),
                                     den, eps)


def _derive(closed: tuple[int, ...], far: list[int], subset: int) -> int:
    """The meet of the sets F & subset, F closed, whose relative complement
    has diameter <= epsilon: no p in it has `far[p]` meeting it."""
    result = subset
    for F in closed:
        rest = small = subset & ~F
        while rest:
            low = rest & -rest
            if far[low.bit_length() - 1] & small:
                break
            rest ^= low
        else:
            result &= F
    return result


def cb_derivative(X: FiniteTopometricSpace, subset: frozenset, epsilon) -> frozenset:
    """One epsilon-Cantor-Bendixson step inside the subspace `subset`.

    Intersects all subsets closed in the subspace whose relative complement
    has diameter at most epsilon.
    """
    far = X._far(ensure_unit(epsilon))
    return frozenset(_members(_derive(X.closed_masks, far, _mask(subset))))


class CBResult(NamedTuple):
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
        nxt = _derive(X.closed_masks, far, stages[-1])
        if nxt == stages[-1]:
            break
        stages.append(nxt)
    stationary = bool(stages[-1])
    ranks = {p: None if stationary and stages[-1] >> p & 1
             else max(i for i, S in enumerate(stages) if S >> p & 1)
             for p in range(len(X.points))}
    degrees = [_degree(far, S) for S in stages]
    return CBResult([frozenset(_members(S)) for S in stages], ranks, degrees, stationary)


def epsilon_degree(X: FiniteTopometricSpace, subset: frozenset, epsilon) -> int:
    """Minimal number of diameter-<=epsilon blocks covering the subset.

    Every finite set is epsilon-finite, so this always terminates.  The
    empty set has degree 0.
    """
    return _degree(X._far(ensure_unit(epsilon)), _mask(subset))


def _degree(far: list[int], subset: int) -> int:
    """Minimum cover of the subset by maximal blocks, level by level.

    Restricting covers to maximal blocks is harmless: any admissible block
    extends to a maximal one.  Some block of any cover holds the lowest
    uncovered point, so level k + 1 is every set of level k less one
    maximal block through its lowest point, starting from {subset}.  Equal
    sets merge.  The degree is the number of the first level that holds
    the empty set: 0 for the empty subset.
    """
    through: list[list[int]] = [[] for _ in far]
    for block in _maximal_blocks(far, subset):
        for p in _members(block):
            through[p].append(block)
    level = {subset}
    k = 0
    while 0 not in level:
        level = {u & ~b for u in level for b in through[(u & -u).bit_length() - 1]}
        k += 1
    return k


def _maximal_blocks(far: list[int], subset: int) -> list[int]:
    """Inclusion-maximal subsets of diameter <= epsilon: the maximal cliques
    of the "within epsilon" graph on the subset (Bron-Kerbosch with pivoting).

    The search is a loop over a list of (clique, cand, done) frames.  A
    node branches on each v of cand outside the pivot's neighbours in
    increasing order, each with the earlier ones moved from cand to done.
    Its children are pushed in reverse, so nodes are expanded, and blocks
    found, depth first with siblings in increasing vertex order.
    """
    adj = [subset & ~f & ~(1 << p) for p, f in enumerate(far)]
    blocks: list[int] = []
    frames = [(0, subset, 0)]
    while frames:
        clique, cand, done = frames.pop()
        if not cand:
            if not done:
                blocks.append(clique)
            continue
        best = -1
        for u in _members(cand | done):  # pivot: the first u with the most candidates
            if (cand & adj[u]).bit_count() > best:
                best, pivot = (cand & adj[u]).bit_count(), adj[u]
        branch = cand & ~pivot
        rest = branch
        while rest:  # the last branch vertex first; the earlier ones are moved to done
            v = rest.bit_length() - 1
            bit = 1 << v
            rest ^= bit
            earlier = branch & (bit - 1)
            frames.append((clique | bit, cand & ~earlier & adj[v], (done | earlier) & adj[v]))
    return blocks
