"""Ladders, N(phi,eps), median and monotone definitions, gluing."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contlogic.errors import DefinitionAbort, StructuralError
from contlogic.language import PLMonotone, PredDecl, Signature, SortDecl, parse
from contlogic.stability import (
    LadderWitness,
    _longest_triple_sequence,
    compute_N,
    find_ladder,
    global_definition,
    glue_formula,
    median_definition,
    monotone_definition,
    monotone_parameters,
    phi_type,
    phi_type_space,
    revalidate_ladder,
)
from contlogic.structures import (
    FiniteStructure,
    eval_formula,
    gen_halfgraph,
    gen_prob_algebra,
    make_split,
    phi_instance,
    tuple_names,
    tuples_of,
    value_matrix,
)
from oracles import (
    glued_halfgraph,
    monotone_sup_on_grid,
    pairwise_ladder_unpruned,
    triple_sequence_reference,
    triple_sequence_unpruned,
)

IDENT = PLMonotone.identity()


def halfgraph_setup(n):
    M = gen_halfgraph(n)
    phi = parse("phi(x,y)", M.sig)
    return M, phi, make_split(phi, ["x"], ["y"])


def algebra_setup(weights):
    M = gen_prob_algebra(weights)
    phi = parse("mu(meet(x,y))", M.sig)
    return M, phi, make_split(phi, ["x"], ["y"])


def binary_setup(table, n):
    """P(x,y) on n discrete points e0.., with P given by its value table."""
    sig = Signature([SortDecl("S", "d")],
                    predicates=[PredDecl("P", ("S", "S"), (IDENT, IDENT))])
    metric = {"S": [[F(0) if i == j else F(1) for j in range(n)] for i in range(n)]}
    M = FiniteStructure(sig, {"S": [f"e{i}" for i in range(n)]}, metric, {}, {"P": table})
    phi = parse("P(x,y)", sig)
    return M, phi, make_split(phi, ["x"], ["y"])


def constant_setup():
    return binary_setup({(i, j): F(1, 2) for i in range(3) for j in range(3)}, 3)


# -- type spaces -------------------------------------------------------------


def test_phi_type_space_constant():
    M, phi, split = constant_setup()
    space = phi_type_space(M, phi, split)
    assert len(space.points) == 1
    assert space.metric == ((F(0),),)


def test_phi_type_space_halfgraph():
    M, phi, split = halfgraph_setup(2)
    space = phi_type_space(M, phi, split)
    a0 = phi_type(M, phi, split, (M.element_index("V", "a0"),))
    a1 = phi_type(M, phi, split, (M.element_index("V", "a1"),))
    assert a0.values != a1.values
    d = max(abs(u - v) for u, v in zip(a0.values, a1.values))
    assert d == 1
    assert any(p.values == a0.values for p in space.points)


def test_phi_type_space_two_atom_algebra():
    M, phi, split = algebra_setup([F(1, 2), F(1, 2)])
    space = phi_type_space(M, phi, split)
    assert len(space.points) == 4


# -- ladders ----------------------------------------------------------------


def test_halfgraph_antisymmetric_ladder_length_8():
    M, phi, split = halfgraph_setup(8)
    w = find_ladder(M, phi, split, F(1), "antisym", max_len=8)
    assert len(w) == 8
    assert w.at_searched_bound
    assert revalidate_ladder(M, phi, split, w)


def test_constant_phi_antisym_ladder_length_1():
    M, phi, split = constant_setup()
    w = find_ladder(M, phi, split, F(1, 4), "antisym")
    assert len(w) == 1
    assert not w.at_searched_bound


def test_halfgraph_order_ladder():
    M, phi, split = halfgraph_setup(4)
    w = find_ladder(M, phi, split, F(1), "order", max_len=4)
    assert (w.r, w.s) == (F(0), F(1))
    assert len(w) == 4
    assert revalidate_ladder(M, phi, split, w)


def test_ladder_transpose_symmetry():
    M, phi, split = halfgraph_setup(3)
    phi_t = parse("phi(y,x)", M.sig)  # transpose: swap roles via the split
    split_t = make_split(phi_t, ["x"], ["y"])
    for eps in (F(1), F(1, 2)):
        w = find_ladder(M, phi, split, eps, "antisym", max_len=6)
        wt = find_ladder(M, phi_t, split_t, eps, "antisym", max_len=6)
        assert len(w) == len(wt)


@contextmanager
def deadline(seconds):
    """Fail with TimeoutError when the block runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("kind", ["antisym", "order"])
def test_halfgraph4_ladders_without_max_len(kind):
    """Length 9 on the half-graph n = 4 at eps 1: the search ends without a cap."""
    M, phi, split = halfgraph_setup(4)
    with deadline(20):
        w = find_ladder(M, phi, split, F(1), kind)
    assert len(w) == 9
    assert not w.at_searched_bound
    assert revalidate_ladder(M, phi, split, w)
    # the antisym witness lists its ladder in increasing pair order
    pairs = [(M.element_index("V", a[0]), M.element_index("V", b[0])) for a, b in w.pairs]
    if kind == "antisym":
        assert pairs == sorted(pairs)


def test_antisym_ladder_on_random_structures_finishes():
    """Antisym ladders of length 16 on quarter-valued structures on 8 points, eps 1/4.

    The search over increasing pair numbers takes well under 1 s on each.
    Searching every order of each ladder returns the same witness but runs
    past the deadline on the first of them, so the deadline tells the two
    apart.
    """
    rng = random.Random(5)
    for _ in range(3):
        table = {(i, j): F(rng.randint(0, 4), 4) for i in range(8) for j in range(8)}
        M, phi, split = binary_setup(table, 8)
        with deadline(20):
            w = find_ladder(M, phi, split, F(1, 4), "antisym")
        assert len(w) == 16
        assert revalidate_ladder(M, phi, split, w)


def test_revalidate_rejects_tampered_witness():
    M, phi, split = halfgraph_setup(2)
    w = find_ladder(M, phi, split, F(1), "antisym")
    assert revalidate_ladder(M, phi, split, w)
    if len(w.pairs) >= 2:
        tampered = LadderWitness(w.kind, w.epsilon, (w.pairs[0], w.pairs[0]), w.r, w.s)
        assert not revalidate_ladder(M, phi, split, tampered)


# -- N(phi, eps) --------------------------------------------------------------


def test_constant_phi_N_is_2():
    M, phi, split = constant_setup()
    for k in range(1, 9):
        assert compute_N(M, phi, split, F(k, 8)) == 2


def test_halfgraph_N_matches_naive_enumeration():
    """Cross-check the pruned search against plain enumeration of parameter runs.

    Only the parameter components constrain the triple condition, so the
    naive oracle enumerates parameter sequences and asks for a per-middle
    witness directly.  halfgraph(2) is small enough to enumerate fully.
    """
    M, phi, split = halfgraph_setup(2)
    xts, yts, vals = value_matrix(M, phi, split)
    eps = F(1)

    def ok_seq(ys):
        L = len(ys)
        return all(
            any(all(abs(vals[a][ys[i]] - vals[a][ys[k]]) >= eps
                    for i in range(j) for k in range(j + 1, L))
                for a in range(len(xts)))
            for j in range(1, L - 1))

    import itertools
    naive = 0
    for L in range(2, 9):
        if any(ok_seq(ys) for ys in itertools.product(range(len(yts)), repeat=L)):
            naive = L
        else:
            break
    assert naive == 6
    assert compute_N(M, phi, split, eps) == 6


def test_halfgraph_N_growth():
    """N = 2n + 2 on the half-graphs n = 2..16 at eps 1 and 1/2.

    Observed values, not a theorem.  The colouring bound at the root is
    2n + 2 as well: the n + 1 column classes are pairwise far somewhere.
    """
    for n in range(2, 17):
        M, phi, split = halfgraph_setup(n)
        for eps in (F(1), F(1, 2)):
            assert compute_N(M, phi, split, eps) == 2 * n + 2, (n, eps)


def triple_corpus():
    """(name, setup) pairs: half-graphs, 2-atom algebras, constant, random binary."""
    corpus = [(f"halfgraph{n}", halfgraph_setup(n)) for n in (2, 3, 4)]
    corpus += [(f"algebra-{w}", algebra_setup([w, 1 - w]))
               for w in (F(1, 2), F(5, 16), F(1, 4))]
    corpus.append(("constant", constant_setup()))
    rng = random.Random(2008)
    for k in range(30):
        n = rng.randint(3, 5)
        table = {(i, j): F(rng.randint(0, 4), 4) for i in range(n) for j in range(n)}
        corpus.append((f"random{k}", binary_setup(table, n)))
    return corpus


def test_triple_search_matches_fraction_reference():
    """The bitset kernel returns exactly what the Fraction search returned."""
    for name, (M, phi, split) in triple_corpus():
        xts, yts, vals = value_matrix(M, phi, split)
        inst = phi_instance(M, phi, split)
        for eps in (F(1, 2), F(1, 4), F(1, 8), F(3, 4)):
            for max_len in (None, 4, 6):
                expected = triple_sequence_reference(vals, len(xts), len(yts), eps, max_len)
                got = _longest_triple_sequence(inst.num, inst.scale, len(xts), len(yts),
                                               eps, max_len)
                assert got == expected, (name, eps, max_len)
                w = find_ladder(M, phi, split, eps, "triple", max_len=max_len)
                seq, bounded = expected
                assert w.pairs == tuple((tuple_names(M, split.x, xts[a]),
                                         tuple_names(M, split.y, yts[b])) for a, b in seq)
                assert w.at_searched_bound == bounded
                assert revalidate_ladder(M, phi, split, w)


MEDIUM_EPS = (F(1, 4), F(1, 2), F(3, 4), F(1))


def medium_corpus():
    """(name, setup, small) triples past the Fraction oracle's reach.

    Half-graphs n = 5, 6, the 2- and 3-atom algebras and seeded
    quarter-valued binary structures on 5-8 points.  `small` marks the
    inputs with at most 8 parameters other than the half-graphs, where the
    exhaustive unpruned searches finish at large eps.
    """
    corpus = [(f"halfgraph{n}", halfgraph_setup(n), False) for n in (5, 6)]
    corpus += [(f"algebra-{w}", algebra_setup(w), True)
               for w in ([F(1, 2)] * 2, [F(1, 4), F(3, 4)], [F(1, 3)] * 3)]
    rng = random.Random(2026)
    for k in range(3):
        n = rng.randint(5, 8)
        table = {(i, j): F(rng.randint(0, 4), 4) for i in range(n) for j in range(n)}
        corpus.append((f"random{k}-{n}", binary_setup(table, n), True))
    return corpus


def test_triple_search_matches_unpruned_kernel():
    """Column classes and the colouring bound change no witness and no flag.

    Without a max_len the unpruned search is exhaustive; on the half-graph
    n = 6, and at eps 1/4 on the larger inputs, it takes seconds per run,
    so those runs are left to the half-graph N test and the Fraction oracle.
    """
    for name, (M, phi, split), small in medium_corpus():
        inst = phi_instance(M, phi, split)
        nx, ny = len(inst.xts), len(inst.yts)
        for eps in MEDIUM_EPS:
            for max_len in (None, 3, 5, 6):
                if max_len is None and (name == "halfgraph6" or eps == F(1, 4) and ny > 6):
                    continue
                expected = triple_sequence_unpruned(inst.num, inst.scale, nx, ny, eps, max_len)
                got = _longest_triple_sequence(inst.num, inst.scale, nx, ny, eps, max_len)
                assert got == expected, (name, eps, max_len)


@pytest.mark.parametrize("kind", ["antisym", "order"])
def test_pairwise_ladders_match_unpruned_search(kind):
    """The bitset ladder DFS returns the witness, (r, s) and flag of the pair search.

    The unpruned search grows fast with max_len and as eps shrinks: without
    a max_len it ran for minutes on the half-graph n = 4 and takes 1.3 s on
    the 8-point structure here at eps 3/4, and with max_len 6 at eps 1/4 it
    takes 1 s there.  So max_len 6 runs at eps 1/2 and above, and the
    unbounded search at eps 1 on the inputs marked small.
    """
    for name, (M, phi, split), small in medium_corpus():
        for eps in MEDIUM_EPS:
            for max_len in (None, 3, 5, 6):
                if max_len is None and not (small and eps == 1) or max_len == 6 and eps < F(1, 2):
                    continue
                expected = pairwise_ladder_unpruned(M, phi, split, eps, kind, max_len)
                assert find_ladder(M, phi, split, eps, kind, max_len) == expected, \
                    (name, eps, max_len)


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data(),
       st.sampled_from([F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(3, 4), F(1)]),
       st.sampled_from([None, 2, 3, 4, 5, 6]))
def test_triple_search_property(nx, ny, data, eps, max_len):
    eighths = st.integers(0, 8).map(lambda k: F(k, 8))
    vals = [data.draw(st.lists(eighths, min_size=ny, max_size=ny)) for _ in range(nx)]
    num = [[int(v * 8) for v in row] for row in vals]
    assert _longest_triple_sequence(num, 8, nx, ny, eps, max_len) == \
        triple_sequence_reference(vals, nx, ny, eps, max_len)


def test_N_monotone_in_epsilon():
    M, phi, split = algebra_setup([F(1, 2), F(1, 2)])
    values = [compute_N(M, phi, split, F(k, 8)) for k in range(1, 9)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# -- median definitions -------------------------------------------------------


def test_median_definition_constant_target():
    M, phi, split = constant_setup()
    yts = tuples_of(M, split.y)
    target = [F(1, 2)] * len(yts)
    d = median_definition(M, phi, split, F(1, 4), target)
    assert d.observed_error == 0


def test_median_definition_realized_targets_all_eps():
    for M, phi, split in [halfgraph_setup(2), algebra_setup([F(1, 2), F(1, 2)])]:
        xts, yts, vals = value_matrix(M, phi, split)
        for eps in (F(1, 2), F(1, 4), F(1, 8)):
            for xi in range(len(xts)):
                d = median_definition(M, phi, split, eps, phi_type(M, phi, split, xts[xi]))
                assert d.observed_error <= eps


def test_median_definition_two_atom_example():
    M, phi, split = algebra_setup([F(1, 2), F(1, 2)])
    xts, yts, vals = value_matrix(M, phi, split)
    xi = M.element_index("B", "s1")
    d = median_definition(M, phi, split, F(1, 4), phi_type(M, phi, split, (xi,)))
    # re-verify the bound by an explicit scan over all parameters
    for b in range(len(yts)):
        assert abs(med([vals[c][b] for c in d.parameters], d.n_value) - vals[xi][b]) <= F(1, 4)


def test_median_definition_unrealizable_target_aborts():
    M, phi, split = halfgraph_setup(2)
    yts = tuples_of(M, split.y)
    # alternating extreme target far from every x-row
    target = [F(1) if i % 2 == 0 else F(0) for i in range(len(yts))]
    with pytest.raises(DefinitionAbort):
        median_definition(M, phi, split, F(1, 8), target)


def med(values, n):
    return sorted(values)[n - 1]


# -- monotone definitions ------------------------------------------------------


def test_monotone_constant_target_empty_parameters():
    M, phi, split = constant_setup()
    yts = tuples_of(M, split.y)
    target = [F(1, 2)] * len(yts)
    chosen, records, _ = monotone_parameters(M, phi, split, F(1, 8), target)
    assert chosen == [] and records == []
    d = monotone_definition(M, phi, split, F(1, 8), target)
    assert d.observed_error == 0
    assert d.evaluate(()) == F(1, 2)


def test_monotone_realized_targets():
    M, phi, split = algebra_setup([F(1, 2), F(1, 2)])
    xts, yts, vals = value_matrix(M, phi, split)
    eps = F(1, 8)
    for xi in range(len(xts)):
        d = monotone_definition(M, phi, split, eps, phi_type(M, phi, split, xts[xi]))
        assert d.observed_error <= 3 * eps
        # the displayed implication holds for every pair after termination
        for a in range(len(yts)):
            for b in range(len(yts)):
                if all(vals[c][a] <= vals[c][b] + eps for c in d.parameters):
                    assert vals[xi][a] <= vals[xi][b] + 3 * eps


def test_monotone_g_is_coordinatewise_monotone():
    M, phi, split = algebra_setup([F(1, 2), F(1, 2)])
    xts, _, _ = value_matrix(M, phi, split)
    eps = F(1, 8)
    d = monotone_definition(M, phi, split, eps, phi_type(M, phi, split, xts[1]))
    n = len(d.parameters)
    if n:
        grid = [F(k, 4) for k in range(5)]
        import itertools
        pts = list(itertools.product(grid, repeat=n))
        for u in pts:
            for i in range(n):
                if u[i] < 1:
                    v = list(u)
                    v[i] = u[i] + F(1, 4)
                    assert d.evaluate(tuple(v)) >= d.evaluate(u)


def test_monotone_candidate_sup_matches_grid_sup():
    M, phi, split = algebra_setup([F(1, 2), F(1, 2)])
    xts, yts, vals = value_matrix(M, phi, split)
    eps = F(1, 8)
    target = phi_type(M, phi, split, xts[1])
    d = monotone_definition(M, phi, split, eps, target)
    if len(d.parameters) <= 3:
        vs = [tuple(vals[c][a] for c in d.parameters) for a in range(len(yts))]
        assert [d.evaluate(v) for v in vs] == monotone_sup_on_grid(
            d, M, phi, split, target, vs, eps / 4)


def test_monotone_adversarial_target_aborts():
    M, phi, split = halfgraph_setup(2)
    yts = tuples_of(M, split.y)
    target = [F(1) if i % 2 == 0 else F(0) for i in range(len(yts))]
    with pytest.raises(DefinitionAbort):
        monotone_parameters(M, phi, split, F(1, 16), target)


# -- staged global definitions -------------------------------------------------


def test_global_definition_depths():
    M, phi, split = algebra_setup([F(1, 2), F(1, 2)])
    xts, _, _ = value_matrix(M, phi, split)
    target = phi_type(M, phi, split, xts[2])
    one = global_definition(M, phi, split, target, 1)
    assert one.error_bound == 1
    staged = global_definition(M, phi, split, target, 4)
    assert staged.error_bound == F(1, 8)
    assert all(e <= F(1, 8) for e in staged.errors)


def test_global_definition_constant_exact():
    M, phi, split = constant_setup()
    yts = tuples_of(M, split.y)
    target = [F(1, 2)] * len(yts)
    staged = global_definition(M, phi, split, target, 5)
    assert all(e == 0 for e in staged.errors)


# -- gluing --------------------------------------------------------------------


def test_glue_recovery_identities_exhaustive():
    M = glued_halfgraph(2)
    phi = parse("phi(x,y)", M.sig)
    psi = parse("psi(x,z)", M.sig)
    chi = glue_formula(phi, psi, "x", ("t", "w"), "E", M.sig)
    nV = len(M.carriers["V"])
    e0, e1 = 0, 1
    for a in range(nV):
        for b in range(nV):
            for c in range(nV):
                env = {"x": a, "y": b, "z": c, "t": e0, "w": e1}
                assert eval_formula(M, env, chi) == eval_formula(M, env, phi)
                env["w"] = e0
                assert eval_formula(M, env, chi) == eval_formula(M, env, psi)


def test_glue_rejects_bad_inputs():
    M = glued_halfgraph(2)
    phi = parse("phi(x,y)", M.sig)
    psi = parse("psi(x,z)", M.sig)
    with pytest.raises(StructuralError):
        glue_formula(phi, psi, "q", ("t", "w"), "E", M.sig)
    with pytest.raises(StructuralError):
        glue_formula(phi, psi, "x", ("y", "w"), "E", M.sig)
    with pytest.raises(StructuralError):
        glue_formula(phi, parse("psi(x,y)", M.sig), "x", ("t", "w"), "E", M.sig)


# -- finite-scale symmetry corollary -------------------------------------------


def test_symmetry_corollary_within_two_eps():
    M, phi, split = algebra_setup([F(1, 2), F(1, 2)])
    phi_t = parse("mu(meet(y,x))", M.sig)
    split_t = make_split(phi_t, ["y"], ["x"])  # transpose roles
    xts, yts, vals = value_matrix(M, phi, split)
    eps = F(1, 4)
    for a in range(len(xts)):
        for b in range(len(yts)):
            p = phi_type(M, phi, split, xts[a])
            q = phi_type(M, phi_t, split_t, yts[b])
            dp = median_definition(M, phi, split, eps, p)
            dq = median_definition(M, phi_t, split_t, eps, q)
            # both definitions approximate phi(a, b) within eps
            assert abs(dp.defined_values[b] - dq.defined_values[a]) <= 2 * eps
