"""Finite topometric spaces and epsilon-Cantor-Bendixson ranks."""

import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contlogic.errors import DomainError, StructuralError
from contlogic.topometric import (
    FiniteTopometricSpace,
    _bits,
    _mask,
    _maximal_blocks,
    cb_derivative,
    cb_rank,
    epsilon_degree,
)


def space(points, closed, metric, eps=()):
    pos = {p: i for i, p in enumerate(points)}
    fam = tuple(frozenset(pos[x] for x in C) for C in closed)
    return FiniteTopometricSpace(tuple(points), fam,
                                 tuple(tuple(F(v) for v in row) for row in metric),
                                 tuple(F(e) for e in eps))


def all_one_metric(n):
    return [[F(0) if i == j else F(1) for j in range(n)] for i in range(n)]


def discrete_space(n, eps=()):
    points = [f"p{i}" for i in range(n)]
    closed = []
    for size in range(n + 1):
        for combo in itertools.combinations(points, size):
            closed.append(list(combo))
    return space(points, closed, all_one_metric(n), eps)


def test_worked_three_point_example():
    X = space(["p", "q", "r"],
              [[], ["p"], ["p", "q"], ["p", "q", "r"]],
              all_one_metric(3))
    res = cb_rank(X, F(1, 2))
    ranks = {X.points[i]: r for i, r in res.ranks.items()}
    assert ranks == {"r": 0, "q": 1, "p": 2}
    assert not res.stationary
    assert res.stages[0] == frozenset({0, 1, 2})
    assert res.stages[1] == frozenset({0, 1})
    assert res.stages[2] == frozenset({0})


def test_discrete_topology_all_rank_zero():
    for eps in (F(0), F(1, 2), F(1)):
        X = discrete_space(4)
        res = cb_rank(X, eps)
        assert all(r == 0 for r in res.ranks.values())
        assert res.stages[-1] == frozenset()


def test_epsilon_at_least_diameter_kills_everything():
    X = space(["a", "b"], [[], ["a", "b"]], all_one_metric(2))
    res = cb_rank(X, F(1))
    assert res.stages[1] == frozenset()


def test_indiscrete_space_is_stationary():
    X = space(["a", "b"], [[], ["a", "b"]], all_one_metric(2))
    res = cb_rank(X, F(1, 2))
    assert res.stationary
    assert all(r is None for r in res.ranks.values())


def test_invariant_violations_raise():
    with pytest.raises(StructuralError):
        space(["a", "b"], [["a", "b"]], all_one_metric(2))  # empty set missing
    with pytest.raises(StructuralError):
        space(["a", "b"], [[], ["a"], ["b"], ["a", "b"]],
              [[F(0), F(0)], [F(0), F(0)]])  # metric not separating
    with pytest.raises(StructuralError):
        # closed sets not a lattice: missing the union of the two singletons
        space(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]], all_one_metric(3))
    with pytest.raises(StructuralError):
        # declared epsilon neighbourhood closure fails
        space(["a", "b", "c"],
              [[], ["a"], ["a", "b", "c"]],
              [[F(0), F(1, 4), F(1)], [F(1, 4), F(0), F(1)], [F(1), F(1), F(0)]],
              eps=[F(1, 4)])


def test_epsilon_degree():
    X = space(["a", "b", "c"],
              [[], ["a"], ["a", "b"], ["a", "b", "c"]],
              [[F(0), F(1, 4), F(1)], [F(1, 4), F(0), F(1)], [F(1), F(1), F(0)]])
    assert epsilon_degree(X, frozenset(), F(1, 2)) == 0
    assert epsilon_degree(X, frozenset({0, 1}), F(1, 4)) == 1
    assert epsilon_degree(X, frozenset({0, 1, 2}), F(1, 4)) == 2
    assert epsilon_degree(X, frozenset({0, 1, 2}), F(1, 8)) == 3


def test_random_spaces_stages_decrease():
    from oracles import random_valid_topometric_space

    rng = random.Random(97)
    for _ in range(50):
        X, eps = random_valid_topometric_space(rng)
        res = cb_rank(X, eps)
        for a, b in zip(res.stages, res.stages[1:]):
            assert b < a or (b == a and res.stationary)
        for S in res.stages:
            assert cb_derivative(X, S, eps) <= S


def test_json_round_trip():
    X = space(["p", "q", "r"],
              [[], ["p"], ["p", "q"], ["p", "q", "r"]],
              all_one_metric(3), eps=[F(1)])
    X2 = FiniteTopometricSpace.from_json(json.loads(json.dumps(X.to_json())))
    assert X2.points == X.points
    assert set(X2.closed_sets) == set(X.closed_sets)
    assert X2.metric == X.metric
    assert X2.test_epsilons == X.test_epsilons


EPSILONS = (F(0), F(1, 8), F(1, 4), F(1, 2), F(1))


def assert_matches_reference(X, eps):
    from oracles import (
        cb_derivative_reference,
        cb_rank_reference,
        epsilon_degree_reference,
    )

    got, want = cb_rank(X, eps), cb_rank_reference(X, eps)
    assert (got.stages, got.ranks, got.degrees, got.stationary) == \
        (want.stages, want.ranks, want.degrees, want.stationary)
    for S in got.stages:
        assert cb_derivative(X, S, eps) == cb_derivative_reference(X, S, eps)
    even = frozenset(range(0, len(X.points), 2))
    assert epsilon_degree(X, even, eps) == epsilon_degree_reference(X, even, eps)


def assert_blocks_match_reference(X, eps):
    """The maximal cliques are exactly the reference's maximal small blocks."""
    from oracles import _maximal_small_blocks

    full = range(len(X.points))
    blocks = {frozenset(_bits(b)) for b in _maximal_blocks(X._far(eps), _mask(full))}
    assert blocks == set(_maximal_small_blocks(X, full, eps))


def test_cb_rank_matches_reference_on_random_spaces():
    """Bitmask ranks == the frozenset/Fraction reference, 6-14 points."""
    from oracles import random_valid_topometric_space

    rng = random.Random(2024)
    for n in range(6, 15):
        for _ in range(2 if n <= 12 else 1):
            X, _ = random_valid_topometric_space(rng, n, rng.choice([F(1, 4), F(1, 2)]))
            for eps in EPSILONS:
                assert_matches_reference(X, eps)


def test_cb_rank_matches_reference_on_corpus_like_spaces():
    """Points on a line at sixteenths, as the benchmark corpus draws them."""
    rng = random.Random(11)
    for n in (6, 8, 10, 12):
        coords = sorted(rng.sample(range(17), n))
        metric = [[F(abs(a - b), 16) for b in coords] for a in coords]
        family = {frozenset(), frozenset(range(n))}
        for _ in range(3):
            lo = rng.randrange(n)
            family.add(frozenset(range(lo, rng.randrange(lo, n) + 1)))
        family = saturate(family)
        X = FiniteTopometricSpace(tuple(f"p{i}" for i in range(n)), tuple(family),
                                  tuple(tuple(row) for row in metric), ())
        for eps in EPSILONS:
            assert_matches_reference(X, eps)
            assert_blocks_match_reference(X, eps)


def saturate(family):
    """Close a family of frozensets under union and intersection."""
    family = set(family)
    while True:
        new = {op(A, B) for A in family for B in family for op in (frozenset.__or__,
                                                                   frozenset.__and__)}
        if new <= family:
            return family
        family |= new


def drawn_space(n, data):
    """A space on p0..p{n-1}: a seeded random metric, closed sets drawn and saturated."""
    from oracles import random_metric

    seed = data.draw(st.integers(0, 2 ** 16))
    metric = random_metric(random.Random(seed), n, [F(1, 8), F(1, 4), F(1, 2), F(1)])
    sets = data.draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=4))
    family = saturate({frozenset(), frozenset(range(n)), *sets})
    return FiniteTopometricSpace(tuple(f"p{i}" for i in range(n)), tuple(family),
                                 tuple(tuple(row) for row in metric), ())


@given(st.integers(2, 8), st.data(), st.sampled_from(EPSILONS))
def test_cb_rank_property(n, data, eps):
    X = drawn_space(n, data)
    assert_matches_reference(X, eps)
    assert_blocks_match_reference(X, eps)


@settings(max_examples=40)
@given(st.integers(2, 8), st.data(), st.sampled_from(EPSILONS))
def test_relabelled_space_keeps_ranks_and_degrees(n, data, eps):
    """Permuting the point order in the JSON gives an isomorphic space.

    Each point (by name) keeps its rank, each stage keeps its points and
    its epsilon-degree, and stationarity does not change.
    """
    X = drawn_space(n, data)
    perm = data.draw(st.permutations(range(n)))
    text = X.to_json()
    text["points"] = [text["points"][j] for j in perm]
    text["metric"] = [[text["metric"][i][j] for j in perm] for i in perm]
    Y = FiniteTopometricSpace.from_json(text)

    def by_name(Z):
        res = cb_rank(Z, eps)
        return ({Z.points[p]: r for p, r in res.ranks.items()},
                [{Z.points[p] for p in S} for S in res.stages], res.degrees, res.stationary)

    assert by_name(Y) == by_name(X)


def test_invariant_messages():
    third = [[F(0), F(1, 4), F(3, 4)], [F(1, 4), F(0), F(1, 4)], [F(3, 4), F(1, 4), F(0)]]
    closed = [[], ["a", "b", "c"]]
    with pytest.raises(StructuralError, match="triangle"):
        space(["a", "b", "c"], closed, third)
    with pytest.raises(StructuralError, match="symmetric"):
        space(["a", "b"], closed[:1] + [["a", "b"]], [[F(0), F(1)], [F(1, 2), F(0)]])
    with pytest.raises(StructuralError, match="diagonal"):
        space(["a", "b"], [[], ["a", "b"]], [[F(1), F(1)], [F(1), F(0)]])
    with pytest.raises(DomainError, match="outside"):
        space(["a", "b"], [[], ["a", "b"]], [[F(0), F(2)], [F(2), F(0)]])
    with pytest.raises(StructuralError, match="wrong shape"):
        space(["a", "b"], [[], ["a", "b"]], [[F(0), F(1)]])
    with pytest.raises(StructuralError, match="1/4-neighbourhood"):
        space(["a", "b", "c"], [[], ["a"], ["a", "b", "c"]],
              [[F(0), F(1, 4), F(1)], [F(1, 4), F(0), F(1)], [F(1), F(1), F(0)]],
              eps=[F(1, 4)])
