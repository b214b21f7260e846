"""Explicit finite topometric spaces and epsilon-Cantor-Bendixson ranks.

A space is a finite point set with an explicit closed-set family (checked
to contain the empty set and the full set and to be closed under union and
intersection), a genuine metric, and a declared test set of epsilons for
which closed metric neighbourhoods of closed sets must again be closed.
The derivative of a subset removes its relatively open pieces of metric
diameter at most epsilon; ranks iterate the derivative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import StructuralError
from .values import ZERO, ensure_unit, format_rational, parse_rational


@dataclass(frozen=True)
class FiniteTopometricSpace:
    points: tuple[str, ...]
    closed_sets: tuple[frozenset, ...]  # frozensets of point indices
    metric: tuple[tuple[Fraction, ...], ...]
    test_epsilons: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.points)
        if len(set(self.points)) != n or n == 0:
            raise StructuralError("points must be distinct and non-empty")
        fam = set(self.closed_sets)
        if frozenset() not in fam or frozenset(range(n)) not in fam:
            raise StructuralError("closed sets must contain the empty and full sets")
        for A in fam:
            for B in fam:
                if A | B not in fam or A & B not in fam:
                    raise StructuralError("closed sets must be closed under union and intersection")
        if len(self.metric) != n or any(len(row) != n for row in self.metric):
            raise StructuralError("metric matrix has the wrong shape")
        for i in range(n):
            if self.metric[i][i] != 0:
                raise StructuralError("metric must vanish on the diagonal")
            for j in range(n):
                ensure_unit(self.metric[i][j])
                if self.metric[i][j] != self.metric[j][i]:
                    raise StructuralError("metric must be symmetric")
                if i != j and self.metric[i][j] == 0:
                    raise StructuralError("metric must separate distinct points")
                for k in range(n):
                    if self.metric[i][j] > self.metric[i][k] + self.metric[k][j]:
                        raise StructuralError("metric violates the triangle inequality")
        # the metric refines the topology automatically on a finite point set
        # with a genuine metric; what needs checking is neighbourhood closure
        for eps in self.test_epsilons:
            ensure_unit(eps)
            for F in fam:
                nb = self.closed_neighbourhood(F, eps)
                if nb not in fam:
                    raise StructuralError(
                        f"closed {format_rational(eps)}-neighbourhood of a closed set "
                        "is not closed")

    def index(self, name: str) -> int:
        try:
            return self.points.index(name)
        except ValueError:
            raise StructuralError(f"no point named {name!r}") from None

    def closed_neighbourhood(self, subset: frozenset, eps: Fraction) -> frozenset:
        return frozenset(p for p in range(len(self.points))
                         if any(self.metric[p][q] <= eps for q in subset)) if subset \
            else frozenset()

    def diameter(self, subset) -> Fraction:
        pts = list(subset)
        if len(pts) < 2:
            return ZERO
        return max(self.metric[p][q] for p in pts for q in pts)

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
        points = tuple(data["points"])
        pos = {p: i for i, p in enumerate(points)}
        closed = tuple(frozenset(pos[p] for p in F) for F in data["closed_sets"])
        metric = tuple(tuple(parse_rational(v) for v in row) for row in data["metric"])
        eps = tuple(parse_rational(e) for e in data.get("test_epsilons", []))
        return FiniteTopometricSpace(points, closed, metric, eps)


def cb_derivative(X: FiniteTopometricSpace, subset: frozenset, epsilon) -> frozenset:
    """One epsilon-Cantor-Bendixson step inside the subspace `subset`.

    Intersects all subsets closed in the subspace whose relative complement
    has diameter at most epsilon.
    """
    eps = ensure_unit(epsilon)
    subset = frozenset(subset)
    result = subset
    for F in X.closed_sets:
        G = F & subset
        if X.diameter(subset - G) <= eps:
            result &= G
    return result


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
    eps = ensure_unit(epsilon)
    stages = [frozenset(range(len(X.points)))]
    while stages[-1]:
        nxt = cb_derivative(X, stages[-1], eps)
        if nxt == stages[-1]:
            break
        stages.append(nxt)
    stationary = bool(stages[-1])
    ranks: dict = {}
    for p in range(len(X.points)):
        if stationary and p in stages[-1]:
            ranks[p] = None
        else:
            ranks[p] = max(i for i, S in enumerate(stages) if p in S)
    degrees = [epsilon_degree(X, S, eps) for S in stages]
    return CBResult(stages, ranks, degrees, stationary)


def epsilon_degree(X: FiniteTopometricSpace, subset: frozenset, epsilon) -> int:
    """Minimal number of diameter-<=epsilon blocks covering the subset.

    Brute-force exact cover using maximal admissible blocks; every finite
    set is epsilon-finite, so this always terminates.  The empty set has
    degree 0.
    """
    eps = ensure_unit(epsilon)
    pts = sorted(subset)
    if not pts:
        return 0
    blocks = _maximal_small_blocks(X, pts, eps)
    for k in range(1, len(pts) + 1):
        for combo in itertools.combinations(blocks, k):
            covered = frozenset().union(*combo)
            if covered >= frozenset(pts):
                return k
    raise AssertionError("unreachable: singletons always cover")


def _maximal_small_blocks(X: FiniteTopometricSpace, pts: Sequence[int], eps: Fraction):
    """Inclusion-maximal subsets of pts with diameter <= eps.

    Restricting covers to maximal blocks is harmless: any admissible block
    extends to a maximal one.  Enumerated top-down; fine for desk-scale
    point counts.
    """
    candidates: list[frozenset] = []
    for size in range(len(pts), 0, -1):
        for combo in itertools.combinations(pts, size):
            S = frozenset(combo)
            if any(S <= c for c in candidates):
                continue
            if X.diameter(S) <= eps:
                candidates.append(S)
    return candidates
