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
    _mask,
    _maximal_blocks,
    _members,
    cb_derivative,
    cb_rank,
    epsilon_degree,
)
from oracles import topometric_space


def space(points, closed, metric, eps=()):
    pos = {p: i for i, p in enumerate(points)}
    return topometric_space(points, [{pos[x] for x in C} for C in closed], metric, eps)


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
    """A space written by `to_json` loads back identical: the same masks in
    the same order, the same numerators over the same denominator."""
    from oracles import random_valid_topometric_space

    rng = random.Random(23)
    spaces = [space(["p", "q", "r"], [[], ["p"], ["p", "q"], ["p", "q", "r"]],
                    all_one_metric(3), eps=[F(1)])]
    for n in (2, 3, 5, 8, 12):
        for _ in range(4):
            spaces.append(random_valid_topometric_space(
                rng, n, rng.choice([F(1, 8), F(1, 4), F(1, 2)]))[0])
    for X in spaces:
        assert FiniteTopometricSpace.from_json(json.loads(json.dumps(X.to_json()))) == X


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
    blocks = {frozenset(_members(b)) for b in _maximal_blocks(X._far(eps), _mask(full))}
    assert blocks == set(_maximal_small_blocks(X, full, eps))


def test_maximal_blocks_in_bron_kerbosch_order():
    """The frame loop lists the blocks in the order of the recursive search."""
    from oracles import bron_kerbosch_reference

    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 12)
        far = [0] * n
        density = rng.random()
        for p, q in itertools.combinations(range(n), 2):
            if rng.random() < density:
                far[p] |= 1 << q
                far[q] |= 1 << p
        subset = rng.getrandbits(n)
        assert _maximal_blocks(far, subset) == bron_kerbosch_reference(far, subset)


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
        X = topometric_space([f"p{i}" for i in range(n)], saturate(family), metric)
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
    return topometric_space([f"p{i}" for i in range(n)], family, metric)


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
    # symmetric cells; a negative pair breaks the triangle inequality at the
    # diagonal cell, which comes first
    for far, error, message in ((F(2), DomainError, "outside"),
                                (F(-1, 4), StructuralError, "triangle")):
        with pytest.raises(error, match=message):
            space(["a", "b"], [[], ["a", "b"]], [[F(0), far], [far, F(0)]])
    with pytest.raises(StructuralError, match="wrong shape"):
        space(["a", "b"], [[], ["a", "b"]], [[F(0), F(1)]])
    with pytest.raises(StructuralError, match="1/4-neighbourhood"):
        space(["a", "b", "c"], [[], ["a"], ["a", "b", "c"]],
              [[F(0), F(1, 4), F(1)], [F(1, 4), F(0), F(1)], [F(1), F(1), F(0)]],
              eps=[F(1, 4)])


def _fault(kind, data, rng):
    """Put one fault of the given kind into a space file, in place."""
    rows, n = data["metric"], len(data["points"])
    i, j = rng.sample(range(n), 2)
    if kind == "asymmetric":
        rows[i][j] = "1" if rows[i][j] != "1" else "1/2"
    elif kind == "out of range":  # in one cell, or symmetric in two
        rows[i][j] = rng.choice(["3/2", "-1/4", "2", "-1"])
        if rng.random() < 0.5:
            rows[j][i] = rows[i][j]
    elif kind == "triangle" and n >= 3:  # two points cannot break it
        k = next(k for k in range(n) if k not in (i, j))
        for a, b, v in ((i, j, "1"), (i, k, "1/4"), (k, j, "1/4")):
            rows[a][b] = rows[b][a] = v
    elif kind == "zero":
        rows[i][j] = rows[j][i] = "0"
    elif kind == "diagonal":
        rows[i][i] = "1/8"
    elif kind == "cell":  # two bad cells, so the first in row order must name the error
        bad = rng.sample([1, ["1"], None, "1/0", "0.5", "x", "1/2/3"], 2)
        rows[i][j], rows[rng.randrange(n)][rng.randrange(n)] = bad
    elif kind == "row length" and rng.random() < 0.5:
        rows[i].append("1")
    elif kind == "row length":
        rows[i].pop()
    elif kind == "dropped closed set":
        data["closed_sets"].pop(rng.randrange(len(data["closed_sets"])))
    elif kind == "unknown point":
        rng.choice(data["closed_sets"]).append(rng.choice(["nowhere", 3, ["p0"]]))
    elif kind == "duplicate point":
        old, data["points"][i] = data["points"][i], data["points"][j]
        data["closed_sets"] = [[data["points"][j] if p == old else p for p in C]
                               for C in data["closed_sets"]]
    elif kind == "epsilon":
        data["test_epsilons"].append(rng.choice(["1/2", "3/4", "5/4"]))


FAULTS = ("asymmetric", "out of range", "triangle", "zero", "diagonal", "cell", "row length",
          "dropped closed set", "unknown point", "duplicate point", "epsilon")


def space_files():
    """Derandomized space files: valid ones written by `to_json` (random
    lattices, and points on a line at sixteenths as the benchmark draws
    them), and copies with one fault or two."""
    from oracles import random_valid_topometric_space

    rng = random.Random(18)
    valid = []
    for n in (2, 3, 5, 8, 11):
        for _ in range(3):
            X, _ = random_valid_topometric_space(rng, n, rng.choice([F(1, 8), F(1, 4), F(1, 2)]))
            valid.append(X.to_json())
    for n in (4, 9, 12):
        coords = sorted(rng.sample(range(17), n))
        family = saturate({frozenset(), frozenset(range(n)),
                           *(frozenset(rng.sample(range(n), 2)) for _ in range(3))})
        metric = [[F(abs(a - b), 16) for b in coords] for a in coords]
        valid.append(topometric_space([f"p{i}" for i in range(n)], family, metric).to_json())
    files = list(valid)
    for data in valid:
        for kinds in [[kind] for kind in FAULTS] + [rng.sample(FAULTS, 2) for _ in range(3)]:
            faulty = json.loads(json.dumps(data))
            for kind in kinds:
                _fault(kind, faulty, rng)
            files.append(faulty)
    return files


def test_from_json_matches_the_fraction_loader():
    """On each file the int loader gives the reference's fields, or raises
    its exception class with its message."""
    from oracles import topometric_from_json_reference

    outcomes = []
    for data in space_files():
        try:
            want = topometric_from_json_reference(json.loads(json.dumps(data)))
        except (StructuralError, DomainError) as exc:
            with pytest.raises(type(exc)) as got:
                FiniteTopometricSpace.from_json(data)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc)), data
            outcomes.append(str(exc))
            continue
        X = FiniteTopometricSpace.from_json(data)
        assert {name: getattr(X, name) for name in want} == want
        outcomes.append("valid")
    for message in ("valid", "symmetric", "outside", "triangle", "separate", "diagonal",
                    "must be a string", "rejected", "bad rational", "wrong shape",
                    "union and intersection", "empty and full", "unknown point",
                    "points must be distinct", "neighbourhood"):
        assert any(message in outcome for outcome in outcomes), message
