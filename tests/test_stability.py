"""Ladders, N(phi,eps), median and monotone definitions, gluing."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contlogic.errors import DefinitionAbort, StructuralError
from contlogic.language import IDENTITY, PredDecl, Signature, SortDecl, parse
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
    PhiInstance,
    eval_formula,
    fraction_rows,
)
from oracles import (
    gen_halfgraph,
    gen_prob_algebra,
    glued_halfgraph,
    median_definition_reference,
    monotone_definition_reference,
    monotone_parameters_reference,
    monotone_sup_on_grid,
    pairwise_ladder_unpruned,
    relabelled_json,
    revalidate_ladder_reference,
    structure,
    triple_sequence_reference,
    triple_sequence_unpruned,
)


def instance(M, text, xs=("x",), ys=("y",)):
    """The instance of the formula `text` on M, split into xs and ys."""
    phi = parse(text, M.sig)
    return PhiInstance(M, phi, xs, ys)


def halfgraph_setup(n):
    return instance(gen_halfgraph(n), "phi(x,y)")


def algebra_setup(weights):
    return instance(gen_prob_algebra(weights), "mu(meet(x,y))")


def binary_structure(table, n):
    """n discrete points e0.., with the binary predicate P given by its value table."""
    sig = Signature([SortDecl("S", "d")],
                    predicates=[PredDecl("P", ("S", "S"), (IDENTITY, IDENTITY))])
    metric = {"S": [[F(0) if i == j else F(1) for j in range(n)] for i in range(n)]}
    return structure(sig, {"S": [f"e{i}" for i in range(n)]}, metric, {}, {"P": table})


def binary_setup(table, n):
    """P(x,y) on `binary_structure(table, n)`."""
    return instance(binary_structure(table, n), "P(x,y)")


def constant_setup():
    return binary_setup({(i, j): F(1, 2) for i in range(3) for j in range(3)}, 3)


# -- type spaces -------------------------------------------------------------


def test_phi_type_space_constant():
    inst = constant_setup()
    space = phi_type_space(inst)
    assert len(space.rows) == 1
    assert fraction_rows(space.distances, space.scale) == ((F(0),),)


def test_phi_type_space_halfgraph():
    inst = halfgraph_setup(2)
    space = phi_type_space(inst)
    a0 = phi_type(inst, inst.x_index[("a0",)])
    a1 = phi_type(inst, inst.x_index[("a1",)])
    assert a0 != a1
    d = max(abs(u - v) for u, v in zip(a0, a1))
    assert d == 1
    assert a0 in fraction_rows(space.rows, space.scale)


def test_phi_type_space_two_atom_algebra():
    inst = algebra_setup([F(1, 2), F(1, 2)])
    space = phi_type_space(inst)
    assert len(space.rows) == 4


# -- ladders ----------------------------------------------------------------


def test_halfgraph_antisymmetric_ladder_length_8():
    inst = halfgraph_setup(8)
    w = find_ladder(inst, F(1), "antisym", max_len=8)
    assert len(w) == 8
    assert w.at_searched_bound
    assert revalidate_ladder(inst, w)


def test_constant_phi_antisym_ladder_length_1():
    inst = constant_setup()
    w = find_ladder(inst, F(1, 4), "antisym")
    assert len(w) == 1
    assert not w.at_searched_bound


def test_halfgraph_order_ladder():
    inst = halfgraph_setup(4)
    w = find_ladder(inst, F(1), "order", max_len=4)
    assert (w.r, w.s) == (F(0), F(1))
    assert len(w) == 4
    assert revalidate_ladder(inst, w)


def test_ladder_transpose_symmetry():
    inst = halfgraph_setup(3)
    transposed = instance(inst.M, "phi(y,x)")  # swap roles via the split
    for eps in (F(1), F(1, 2)):
        w = find_ladder(inst, eps, "antisym", max_len=6)
        wt = find_ladder(transposed, eps, "antisym", max_len=6)
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
    inst = halfgraph_setup(4)
    with deadline(20):
        w = find_ladder(inst, F(1), kind)
    assert len(w) == 9
    assert not w.at_searched_bound
    assert revalidate_ladder(inst, w)
    # the antisym witness lists its ladder in increasing pair order
    pairs = [(inst.x_index[a], inst.y_index[b]) for a, b in w.pairs]
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
        inst = binary_setup(table, 8)
        with deadline(20):
            w = find_ladder(inst, F(1, 4), "antisym")
        assert len(w) == 16
        assert revalidate_ladder(inst, w)


def test_revalidate_rejects_tampered_witness():
    inst = halfgraph_setup(2)
    w = find_ladder(inst, F(1), "antisym")
    assert revalidate_ladder(inst, w)
    if len(w.pairs) >= 2:
        tampered = LadderWitness(w.kind, w.epsilon, (w.pairs[0], w.pairs[0]), w.r, w.s)
        assert not revalidate_ladder(inst, tampered)


def test_revalidate_matches_fraction_reference():
    """Int revalidation agrees with the Fraction check on seeded random witnesses.

    Each witness's eps (antisym, triple) or r and s (order) is the tightest
    value its pairs allow, moved by -1/97, 0 or +1/97, so both verdicts
    occur and the int thresholds are taken on and off the value scale.
    """
    rng = random.Random(3)
    off = F(1, 97)
    verdicts = set()
    for name, inst in triple_corpus()[:12]:
        xts, yts, vals = inst.xts, inst.yts, inst.vals
        for _ in range(60):
            ps = [(rng.randrange(len(xts)), rng.randrange(len(yts)))
                  for _ in range(rng.randint(2, 4))]
            n = len(ps)
            kind = rng.choice(("antisym", "order", "triple"))
            r = s = None
            if kind == "antisym":
                diffs = [abs(vals[ps[i][0]][ps[j][1]] - vals[ps[j][0]][ps[i][1]])
                         for i in range(n) for j in range(i + 1, n)]
            elif kind == "triple":
                diffs = [abs(vals[ps[j][0]][ps[i][1]] - vals[ps[j][0]][ps[k][1]])
                         for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
            else:
                r = max(vals[ps[i][0]][ps[j][1]] for i in range(n) for j in range(i + 1, n))
                s = min(vals[ps[j][0]][ps[i][1]] for i in range(n) for j in range(i + 1, n))
                r += rng.choice((-off, 0, off))
                s += rng.choice((-off, 0, off))
                diffs = [off]
            eps = max(min(diffs, default=off) + rng.choice((-off, 0, off)), off)
            pairs = tuple((inst.x_names[a], inst.y_names[b]) for a, b in ps)
            w = LadderWitness(kind, eps, pairs, r, s)
            want = revalidate_ladder_reference(inst, w)
            assert revalidate_ladder(inst, w) == want, (name, w)
            verdicts.add((kind, want))
    assert len(verdicts) == 6


# -- N(phi, eps) --------------------------------------------------------------


def test_constant_phi_N_is_2():
    inst = constant_setup()
    for k in range(1, 9):
        assert compute_N(inst, F(k, 8)) == 2


def test_halfgraph_N_matches_naive_enumeration():
    """Cross-check the pruned search against plain enumeration of parameter runs.

    Only the parameter components constrain the triple condition, so the
    naive oracle enumerates parameter sequences and asks for a per-middle
    witness directly.  halfgraph(2) is small enough to enumerate fully.
    """
    inst = halfgraph_setup(2)
    xts, yts, vals = inst.xts, inst.yts, inst.vals
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
    assert compute_N(inst, eps) == 6


def test_halfgraph_N_growth():
    """N = 2n + 2 on the half-graphs n = 2..16 at eps 1 and 1/2.

    Observed values, not a theorem.  The colouring bound at the root is
    2n + 2 as well: the n + 1 column classes are pairwise far somewhere.
    """
    for n in range(2, 17):
        inst = halfgraph_setup(n)
        for eps in (F(1), F(1, 2)):
            assert compute_N(inst, eps) == 2 * n + 2, (n, eps)


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


@pytest.mark.parametrize("kind", ["antisym", "order", "triple"])
def test_empty_witness_revalidates(kind):
    inst = constant_setup()
    assert revalidate_ladder(inst, LadderWitness(kind, F(1, 2), ()))
    with pytest.raises(StructuralError):
        revalidate_ladder(inst, LadderWitness("spiral", F(1, 2), ()))


def test_triple_search_matches_fraction_reference():
    """The bitset kernel returns exactly what the Fraction search returned."""
    for name, inst in triple_corpus():
        xts, yts, vals = inst.xts, inst.yts, inst.vals
        for eps in (F(1, 2), F(1, 4), F(1, 8), F(3, 4)):
            for max_len in (None, 4, 6):
                expected = triple_sequence_reference(vals, len(xts), len(yts), eps, max_len)
                got = _longest_triple_sequence(inst.num, inst.scale, len(xts), len(yts),
                                               eps, max_len)
                assert got == expected, (name, eps, max_len)
                w = find_ladder(inst, eps, "triple", max_len=max_len)
                seq, bounded = expected
                assert w.pairs == tuple((inst.x_names[a], inst.y_names[b]) for a, b in seq)
                assert w.at_searched_bound == bounded
                assert revalidate_ladder(inst, w)


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
    for name, inst, small in medium_corpus():
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
    for name, inst, small in medium_corpus():
        for eps in MEDIUM_EPS:
            for max_len in (None, 3, 5, 6):
                if max_len is None and not (small and eps == 1) or max_len == 6 and eps < F(1, 2):
                    continue
                expected = pairwise_ladder_unpruned(inst, eps, kind, max_len)
                assert find_ladder(inst, eps, kind, max_len) == expected, \
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
    inst = algebra_setup([F(1, 2), F(1, 2)])
    values = [compute_N(inst, F(k, 8)) for k in range(1, 9)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@settings(max_examples=60)
@given(st.integers(2, 6), st.sampled_from((2, 3, 4, 8)), st.data())
def test_N_and_ladder_lengths_as_epsilon_grows(n, den, data):
    """Metamorphic, on random binary structures of 2-6 points: N and the
    antisym, order and triple ladder lengths do not grow with eps, N equals
    max(2, the longest triple ladder found without a length cap), and N is
    even.  A ladder searched up to a drawn max_len is flagged exactly when
    it reaches that length."""
    cells = data.draw(st.lists(st.integers(0, den), min_size=n * n, max_size=n * n))
    inst = binary_setup({(i, j): F(cells[i * n + j], den) for i in range(n) for j in range(n)}, n)
    max_len = data.draw(st.sampled_from((None, 2, 3, 4, 6)))
    previous = None
    for eps in (F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)):
        N = compute_N(inst, eps)
        lengths = [N] + [len(find_ladder(inst, eps, kind))
                         for kind in ("antisym", "order", "triple")]
        assert N == max(2, lengths[3]) and N % 2 == 0, (eps, lengths)
        for kind in ("antisym", "order", "triple"):
            w = find_ladder(inst, eps, kind, max_len)
            assert w.at_searched_bound == (max_len is not None and len(w) >= max_len), (eps, w)
        if previous:
            assert all(b <= a for a, b in zip(previous, lengths)), (eps, previous, lengths)
        previous = lengths


@settings(max_examples=40)
@given(st.integers(2, 6), st.sampled_from((2, 3, 4)), st.data())
def test_relabelled_carrier_keeps_N_and_ladder_lengths(n, den, data):
    """Permuting the carrier order in the JSON of a random binary structure
    changes neither N nor the antisym, order and triple ladder lengths."""
    cells = data.draw(st.lists(st.integers(0, den), min_size=n * n, max_size=n * n))
    M = binary_structure({(i, j): F(cells[i * n + j], den) for i in range(n) for j in range(n)}, n)
    perm = data.draw(st.permutations(range(n)))
    N = FiniteStructure.from_json(relabelled_json(M.to_json(), {"S": perm}))
    eps = data.draw(st.sampled_from((F(1, 4), F(1, 3), F(1, 2), F(1))))

    def lengths(K):
        inst = instance(K, "P(x,y)")
        return [compute_N(inst, eps)] + [len(find_ladder(inst, eps, kind))
                                         for kind in ("antisym", "order", "triple")]

    assert lengths(N) == lengths(M)

# -- median definitions -------------------------------------------------------


def test_median_definition_constant_target():
    inst = constant_setup()
    target = [F(1, 2)] * len(inst.yts)
    d = median_definition(inst, F(1, 4), target)
    assert d.observed_error == 0


def test_median_definition_realized_targets_all_eps():
    for inst in [halfgraph_setup(2), algebra_setup([F(1, 2), F(1, 2)])]:
        for eps in (F(1, 2), F(1, 4), F(1, 8)):
            for xi in range(len(inst.xts)):
                d = median_definition(inst, eps, phi_type(inst, xi))
                assert d.observed_error <= eps


def test_median_definition_two_atom_example():
    inst = algebra_setup([F(1, 2), F(1, 2)])
    vals = inst.vals
    xi = inst.x_index[("s1",)]
    d = median_definition(inst, F(1, 4), phi_type(inst, xi))
    # re-verify the bound by an explicit scan over all parameters
    for b in range(len(inst.yts)):
        assert abs(med([vals[c][b] for c in d.parameters], d.n_value) - vals[xi][b]) <= F(1, 4)


def test_median_definition_unrealizable_target_aborts():
    inst = halfgraph_setup(2)
    # alternating extreme target far from every x-row
    target = [F(1) if i % 2 == 0 else F(0) for i in range(len(inst.yts))]
    with pytest.raises(DefinitionAbort):
        median_definition(inst, F(1, 8), target)


def med(values, n):
    return sorted(values)[n - 1]


def median_corpus():
    """(name, instance, targets) for the comparison with the K-family reference.

    Half-graphs n = 2-4, three 3-atom algebras and 60 seeded random binary
    structures of 3-5 points with quarter values; the targets are every
    realized phi-type and 4 seeded random vectors in eighths.  The
    comparison runs each at N = compute_N and at N = 2.
    """
    rng = random.Random(22)
    corpus = [(f"halfgraph{n}", halfgraph_setup(n)) for n in (2, 3, 4)]
    corpus += [(f"algebra-{w}", algebra_setup(w))
               for w in ([F(1, 2), F(1, 4), F(1, 4)], [F(1, 3)] * 3, [F(1, 8), F(3, 8), F(1, 2)])]
    for k in range(60):
        n = rng.randint(3, 5)
        table = {(i, j): F(rng.randint(0, 4), 4) for i in range(n) for j in range(n)}
        corpus.append((f"random{k}-{n}", binary_setup(table, n)))
    for name, inst in corpus:
        targets = [phi_type(inst, xi) for xi in range(len(inst.xts))]
        targets += [[F(rng.randint(0, 8), 8) for _ in inst.yts] for _ in range(4)]
        yield name, inst, targets


def median_outcome(defn, *args):
    """The choices of a median definition, or the reason and details of its abort."""
    try:
        d = defn(*args)
    except DefinitionAbort as abort:
        return ("aborted", abort.reason, abort.details)
    return d.n_value, d.parameters, d.defined_values, d.observed_error


def test_median_definition_matches_k_family_reference():
    """One set per witness chooses what every submask in a first-witness table chose."""
    outcomes = set()
    for name, inst, targets in median_corpus():
        for eps in (F(1), F(1, 2), F(3, 8), F(1, 4)):
            for n_value in (compute_N(inst, eps), 2):  # 2 undersizes N: the ladder-bound abort
                for target in targets:
                    want = median_outcome(median_definition_reference, inst, eps, target, n_value)
                    assert median_outcome(median_definition, inst, eps, target, n_value) == want, \
                        (name, eps, n_value, target)
                    outcomes.add(want[1] if want[0] == "aborted" else "defined")
    assert outcomes == {"defined", "no-admissible-parameter", "ladder-bound-exceeded"}


# -- monotone definitions ------------------------------------------------------


def test_monotone_constant_target_empty_parameters():
    inst = constant_setup()
    target = [F(1, 2)] * len(inst.yts)
    chosen, records, _ = monotone_parameters(inst, F(1, 8), target)
    assert chosen == [] and records == []
    d = monotone_definition(inst, F(1, 8), target)
    assert d.observed_error == 0
    assert d.evaluate(()) == F(1, 2)


def test_monotone_realized_targets():
    inst = algebra_setup([F(1, 2), F(1, 2)])
    xts, yts, vals = inst.xts, inst.yts, inst.vals
    eps = F(1, 8)
    for xi in range(len(xts)):
        d = monotone_definition(inst, eps, phi_type(inst, xi))
        assert d.observed_error <= 3 * eps
        # the displayed implication holds for every pair after termination
        for a in range(len(yts)):
            for b in range(len(yts)):
                if all(vals[c][a] <= vals[c][b] + eps for c in d.parameters):
                    assert vals[xi][a] <= vals[xi][b] + 3 * eps


def test_monotone_g_is_coordinatewise_monotone():
    inst = algebra_setup([F(1, 2), F(1, 2)])
    eps = F(1, 8)
    d = monotone_definition(inst, eps, phi_type(inst, 1))
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
    inst = algebra_setup([F(1, 2), F(1, 2)])
    eps = F(1, 8)
    target = phi_type(inst, 1)
    d = monotone_definition(inst, eps, target)
    if len(d.parameters) <= 3:
        vs = [tuple(inst.vals[c][a] for c in d.parameters) for a in range(len(inst.yts))]
        assert [d.evaluate(v) for v in vs] == monotone_sup_on_grid(d, inst, target, vs, eps / 4)


def test_monotone_adversarial_target_aborts():
    inst = halfgraph_setup(2)
    target = [F(1) if i % 2 == 0 else F(0) for i in range(len(inst.yts))]
    with pytest.raises(DefinitionAbort):
        monotone_parameters(inst, F(1, 16), target)


def monotone_corpus():
    """(name, setup, targets) triples for the int/Fraction monotone comparison.

    Inputs: 2- and 3-atom algebras, half-graphs n = 2, 3 and seeded random
    binary structures with values in quarters, sixths or eighths.  Targets: a few
    realized phi-types, seeded target-file vectors with denominator 7, a
    constant vector (no parameters are needed) and alternating 0/1 values
    (these abort on the half-graphs).
    """
    rng = random.Random(11)
    corpus = [(f"algebra-{w}", algebra_setup(w))
              for w in ([F(1, 2)] * 2, [F(1, 4), F(3, 4)], [F(1, 5), F(2, 5), F(2, 5)])]
    corpus += [(f"halfgraph{n}", halfgraph_setup(n)) for n in (2, 3)]
    for k, den in enumerate((4, 6, 8, 4, 6, 8)):
        n = rng.randint(3, 6)
        table = {(i, j): F(rng.randint(0, den), den) for i in range(n) for j in range(n)}
        corpus.append((f"random{k}-{n}", binary_setup(table, n)))
    for name, inst in corpus:
        xts, yts = inst.xts, inst.yts
        targets = [phi_type(inst, xi)
                   for xi in sorted(rng.sample(range(len(xts)), min(4, len(xts))))]
        targets += [[F(rng.randint(0, 7), 7) for _ in yts] for _ in range(3)]
        targets.append([F(3, 7)] * len(yts))
        targets.append([F(i % 2) for i in range(len(yts))])
        yield name, inst, targets


MONOTONE_EPS = (F(1, 24), F(1, 16), F(1, 12), F(1, 8), F(1, 5), F(1, 3), F(3, 7))


def outcome(fn, *args):
    """fn(*args), or the reason and details of the DefinitionAbort it raises."""
    try:
        return fn(*args)
    except DefinitionAbort as abort:
        return ("aborted", abort.reason, abort.details)


def test_monotone_ints_match_fraction_reference():
    """Int rounds and certificate give what the Fraction code gave, field by field.

    Compared: parameters, records, observed error, candidates and g on the
    observed tuples and on a seeded grid with denominators off the scale;
    for aborting targets, the reason and details.  The eps include values
    off the instances' scales (1/3, 1/5, 3/7, and 1/24 and 1/12 on some).
    """
    rng = random.Random(7)
    aborts = successes = empty = 0
    for name, inst, targets in monotone_corpus():
        for eps in MONOTONE_EPS:
            for target in targets:
                where = (name, eps, target)
                want = outcome(monotone_parameters_reference, inst, eps, target)
                assert outcome(monotone_parameters, inst, eps, target) == want, where
                if want[0] == "aborted":
                    aborts += 1
                    continue
                ref = monotone_definition_reference(inst, eps, target)
                got = monotone_definition(inst, eps, target)
                assert got.parameters == ref.parameters, where
                assert got.records == ref.records, where
                assert got.observed_error == ref.observed_error, where
                assert got.candidates == ref.candidates, where
                n = len(got.parameters)
                empty += n == 0
                successes += 1
                grid = list(ref.candidates)
                grid += [tuple(F(rng.randint(0, d), d) for _ in range(n))
                         for d in (1, 2, 3, 7, 12, 35) for _ in range(3)]
                for v in grid:
                    assert got.evaluate(v) == ref.evaluate(v), (where, v)
    assert aborts and successes and empty


def relabelling_inputs():
    """(structure, formula) pairs for the relabelling property, each of one sort."""
    rng = random.Random(5)
    inputs = [(gen_prob_algebra([F(1, 2), F(1, 4), F(1, 4)]), "mu(meet(x,y))"),
              (gen_prob_algebra([F(1, 3), F(2, 3)]), "sup z. mu(meet(meet(x,z),y))"),
              (gen_halfgraph(3), "phi(x,y)")]
    for n in (4, 5):
        table = {(i, j): F(rng.randint(0, 6), 6) for i in range(n) for j in range(n)}
        inputs.append((binary_structure(table, n), "P(x,y)"))
    return inputs


RELABELLING_INPUTS = relabelling_inputs()


@settings(max_examples=30)
@given(st.sampled_from(range(len(RELABELLING_INPUTS))), st.data())
def test_relabelled_carrier_keeps_monotone_bound_and_typespace(which, data):
    """Permuting the carrier order in the JSON gives an isomorphic structure.

    Its typespace has the same multiset of distances, and define-monotone
    for the same targets (a named realized type and a vector keyed by
    parameter names) still meets its 3*eps bound, checked through `evaluate`
    at the relabelled structure's own values.
    """
    M, text = RELABELLING_INPUTS[which]
    (sort, names), = M.carriers.items()
    perm = data.draw(st.permutations(range(len(names))))
    N = FiniteStructure.from_json(relabelled_json(M.to_json(), {sort: perm}))
    insts = [instance(K, text) for K in (M, N)]

    def distances(inst):
        space = phi_type_space(inst)
        return sorted(F(d, space.scale) for row in space.distances for d in row)

    assert distances(insts[1]) == distances(insts[0])
    eps = data.draw(st.sampled_from((F(1, 16), F(1, 24), F(1, 32))))
    x = data.draw(st.sampled_from(names))
    by_name = {name: F(data.draw(st.integers(0, 7)), 7) for name in names}
    for inst in insts:
        targets = [phi_type(inst, inst.x_index[(x,)]), [by_name[b] for (b,) in inst.y_names]]
        for target in targets:
            try:
                d = monotone_definition(inst, eps, target)
            except DefinitionAbort:
                continue
            assert d.observed_error <= 3 * eps
            for b, tb in enumerate(target):
                v = [F(inst.num[c][b], inst.scale) for c in d.parameters]
                assert abs(d.evaluate(v) - tb) <= 3 * eps


# -- staged global definitions -------------------------------------------------


def test_global_definition_depths():
    inst = algebra_setup([F(1, 2), F(1, 2)])
    target = phi_type(inst, 2)
    one = global_definition(inst, target, 1)
    assert one.error_bound == 1
    staged = global_definition(inst, target, 4)
    assert staged.error_bound == F(1, 8)
    assert all(e <= F(1, 8) for e in staged.errors)


@pytest.mark.parametrize("inst, target", [
    (algebra_setup([F(1, 2), F(1, 4), F(1, 4)]), 6),
    (halfgraph_setup(3), 3),
    (constant_setup(), [F(5, 8)] * 3),  # eighths on a matrix of halves: fails at eps 1/16
], ids=["algebra3", "halfgraph3", "constant-eighths"])
def test_global_definition_stages_are_the_median_definitions_at_their_eps(inst, target):
    """Each stage of a depth-16 run, reused from an earlier stage or not, is the
    median definition at its own eps, run on its own; a run fails at the first
    stage whose own run fails, with that failure."""
    if isinstance(target, int):
        target = phi_type(inst, target)
    alone = []
    for n in range(16):
        try:
            alone.append(median_definition(inst, F(1, 2 ** n), target))
        except DefinitionAbort as abort:
            with pytest.raises(DefinitionAbort) as staged:
                global_definition(inst, target, 16)
            assert (staged.value.reason, staged.value.details) == (
                "stage-failed", {"stage": n, "inner": abort.reason, **abort.details})
            break
    assert list(global_definition(inst, target, len(alone)).stages) == alone


def test_global_definition_constant_exact():
    inst = constant_setup()
    target = [F(1, 2)] * len(inst.yts)
    staged = global_definition(inst, target, 5)
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
    inst = algebra_setup([F(1, 2), F(1, 2)])
    transposed = instance(inst.M, "mu(meet(y,x))", ["y"], ["x"])  # transpose roles
    eps = F(1, 4)
    for a in range(len(inst.xts)):
        for b in range(len(inst.yts)):
            p = phi_type(inst, a)
            q = phi_type(transposed, b)
            dp = median_definition(inst, eps, p)
            dq = median_definition(transposed, eps, q)
            # both definitions approximate phi(a, b) within eps
            assert abs(dp.defined_values[b] - dq.defined_values[a]) <= 2 * eps
