"""Acceptance suite: one test per criterion, at the stated exact tolerances.

Each test prints a single PASS line (visible with -s or in failure output);
runtime ceilings are asserted with time.monotonic.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from contlogic.language import (
    Atom,
    Const,
    IDENTITY,
    Op,
    PredDecl,
    Quant,
    Signature,
    SortDecl,
    Var,
    parse,
    prenex,
)
from contlogic.stability import (
    compute_N,
    find_ladder,
    glue_formula,
    median_definition,
    monotone_definition,
    phi_type,
    revalidate_ladder,
)
from contlogic.structures import PhiInstance, eval_formula
from contlogic.synthesis import GridFunction, synthesize, verify_synthesis
from contlogic.topometric import cb_rank
from contlogic.values import delta_from_inverse, flim_prefix, inverse_from_delta

from oracles import (
    apa_sentence,
    apply_connective,
    atomless_defect_bruteforce,
    check_theory,
    from_classical,
    gen_halfgraph,
    gen_prob_algebra,
    glued_halfgraph,
    lattice_closure_vectors,
    med,
    monotone_sup_on_grid,
    pl_of,
    pra_axioms_bruteforce,
    pra_conditions,
    random_metric,
    random_valid_topometric_space,
    structure,
    topometric_space,
    uses_only_neg_monus_constants,
)


@contextmanager
def budget(criterion: int, limit_seconds: float, label: str):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, \
        f"criterion {criterion} exceeded its {limit_seconds}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE criterion {criterion} PASS ({label}, {elapsed:.2f}s)")


def test_criterion_01_connective_identities():
    with budget(1, 1.0, "connective identities on the 1/32 grid"):
        grid = [F(k, 32) for k in range(33)]
        for x in grid:
            for y in grid:
                m = apply_connective("monus", [x, y])
                mr = apply_connective("monus", [y, x])
                assert apply_connective("monus", [x, m]) == min(x, y)
                assert apply_connective("neg", [min(1 - x, 1 - y)]) == max(x, y)
                assert apply_connective("neg", [apply_connective("monus", [1 - x, y])]) \
                    == min(x + y, F(1))
                assert apply_connective("plus_trunc", [m, mr]) == abs(x - y)


def test_criterion_02_forced_limits():
    with budget(2, 5.0, "forced-limit recursion and stability properties"):
        cases = [
            ([F(2, 5)] * 4, (F(2, 5),) * 4),
            ([F(0), F(1), F(1), F(1), F(1)],
             (F(0), F(1, 2), F(3, 4), F(7, 8), F(15, 16))),
            ([F(0), F(1), F(0), F(1), F(0)],
             (F(0), F(1, 2), F(1, 4), F(3, 8), F(5, 16))),
        ]
        for seq, expected in cases:
            assert flim_prefix(seq).modified_prefix == expected

        rng = random.Random(2026)
        # fast-Cauchy agreement: steps bounded by the clamp window 2^-(n+1)
        # (at the looser rate 2^-n the prefixes genuinely differ: (0, 3/4))
        for _ in range(500):
            seq = [F(rng.randrange(0, 1025), 1024)]
            for n in range(11):
                step = F(rng.randrange(-2 ** (9 - n), 2 ** (9 - n) + 1), 1024) \
                    if n <= 9 else F(0)
                seq.append(min(max(seq[-1] + step, F(0)), F(1)))
            assert flim_prefix(seq).modified_prefix == tuple(seq)
        for _ in range(500):  # target agreement: |a_n - b| <= 2^-n exactly
            b = F(rng.randrange(0, 4097), 4096)
            seq = []
            for n in range(12):
                bound = 2 ** (12 - n)  # 2^-n in units of 1/4096
                step = F(rng.randrange(-bound, bound + 1), 4096)
                seq.append(min(max(b + step, F(0)), F(1)))
            mods = flim_prefix(seq).modified_prefix
            for n, v in enumerate(mods):
                assert abs(v - b) <= F(1, 2 ** n)


def test_criterion_03_pra_exactness():
    with budget(3, 60.0, "probability-algebra axioms and atomless defect"):
        weight_sets = [
            [F(1)],
            [F(1, 2), F(1, 2)],
            [F(1, 4)] * 4,
            [F(1, 2), F(1, 3), F(1, 6)],
        ]
        for weights in weight_sets:
            M = gen_prob_algebra(weights)
            ok, rows = check_theory(M, pra_conditions(M.sig))
            assert ok, rows
            assert pra_axioms_bruteforce(weights)
        for k, expected in [(1, F(1, 4)), (2, F(1, 8)), (3, F(1, 16))]:
            weights = [F(1, 2 ** k)] * 2 ** k
            assert atomless_defect_bruteforce(weights) == expected
            M = gen_prob_algebra(weights)
            assert eval_formula(M, {}, apa_sentence(M.sig)) == expected


def tphi_corpus():
    two = from_classical(["a", "b"], {}, {"E": []})
    hg2 = gen_halfgraph(2)
    hg3 = gen_halfgraph(3)
    alg1 = gen_prob_algebra([F(1)])
    alg2 = gen_prob_algebra([F(1, 2), F(1, 2)])
    alg2b = gen_prob_algebra([F(1, 4), F(3, 4)])
    alg3 = gen_prob_algebra([F(1, 3)] * 3)
    return [
        (two, "d(x,y)", (["x"], ["y"])),
        (two, "max(max(d(x,x), 1/2), d(y,y))", (["x"], ["y"])),
        (hg2, "phi(x,y)", (["x"], ["y"])),
        (hg2, "phi(y,x)", (["x"], ["y"])),
        (hg3, "phi(x,y)", (["x"], ["y"])),
        (alg1, "mu(meet(x,y))", (["x"], ["y"])),
        (alg2, "mu(meet(x,y))", (["x"], ["y"])),
        (alg2b, "mu(join(x,y))", (["x"], ["y"])),
        (alg3, "mu(meet(x,y))", (["x"], ["y"])),
        (two, "max(d(x0,y0), d(x1,y1))", (["x0", "x1"], ["y0", "y1"])),
    ]


def test_criterion_04_tphi_exactness():
    from contlogic.imaginaries import build_imaginary, verify_tphi

    with budget(4, 30.0, "canonical-parameter sentences on 10 corpus pairs"):
        corpus = tphi_corpus()
        assert len(corpus) == 10
        for M, text, (xs, ys) in corpus:
            phi = parse(text, M.sig)
            E = build_imaginary(PhiInstance(M, phi, xs, ys))
            ok, rows = verify_tphi(E)
            assert ok, (text, rows)


def constant_structure():
    sig = Signature([SortDecl("S", "d")],
                    predicates=[PredDecl("P", ("S", "S"), (IDENTITY, IDENTITY))])
    n = 3
    metric = {"S": [[F(0) if i == j else F(1) for j in range(n)] for i in range(n)]}
    table = {(i, j): F(1, 2) for i in range(n) for j in range(n)}
    return structure(sig, {"S": ["e0", "e1", "e2"]}, metric, {}, {"P": table})


def xy_instance(M, text):
    phi = parse(text, M.sig)
    return PhiInstance(M, phi, ["x"], ["y"])


def stability_corpus():
    """Named instances, split x;y, for the ladder and definition criteria."""
    hg2 = gen_halfgraph(2)
    hg4 = gen_halfgraph(4)
    alg2 = gen_prob_algebra([F(1, 2), F(1, 2)])
    alg2b = gen_prob_algebra([F(1, 4), F(3, 4)])
    two = from_classical(["a", "b"], {}, {"E": []})
    const = constant_structure()
    return [
        ("halfgraph2", xy_instance(hg2, "phi(x,y)")),
        ("halfgraph4", xy_instance(hg4, "phi(x,y)")),
        ("uniform-2-atoms", xy_instance(alg2, "mu(meet(x,y))")),
        ("skew-2-atoms", xy_instance(alg2b, "mu(meet(x,y))")),
        ("discrete-pair", xy_instance(two, "d(x,y)")),
        ("constant", xy_instance(const, "P(x,y)")),
    ]


def test_criterion_05_stability_quantities():
    with budget(5, 60.0, "half-graph ladder, constant N, N monotone in epsilon"):
        hg8 = xy_instance(gen_halfgraph(8), "phi(x,y)")
        w = find_ladder(hg8, F(1), "antisym", max_len=8)
        assert len(w) == 8
        assert revalidate_ladder(hg8, w)

        const = xy_instance(constant_structure(), "P(x,y)")
        for k in range(1, 9):
            assert compute_N(const, F(k, 8)) == 2

        for name, inst in stability_corpus():
            values = [compute_N(inst, F(k, 8)) for k in range(1, 9)]
            assert all(a >= b for a, b in zip(values, values[1:])), (name, values)


def test_criterion_06_median_definition_bound():
    with budget(6, 300.0, "median definitions for every realized type"):
        for name, inst in stability_corpus():
            xts, yts, vals = inst.xts, inst.yts, inst.vals
            assert len(yts) <= 16
            for eps in (F(1, 2), F(1, 4), F(1, 8)):
                n_value = compute_N(inst, eps)
                for xi in range(len(xts)):
                    target = phi_type(inst, xi)
                    d = median_definition(inst, eps, target, n_value=n_value)
                    # bound re-verified by an explicit exhaustive scan
                    worst = max(
                        abs(med([vals[c][b] for c in d.parameters], d.n_value)
                            - target[b])
                        for b in range(len(yts)))
                    assert worst <= eps, (name, eps, xi)
                    assert d.observed_error == worst


def test_criterion_07_monotone_definition_bound():
    with budget(7, 300.0, "monotone definitions for every realized type"):
        for name, inst in stability_corpus():
            xts, yts, vals = inst.xts, inst.yts, inst.vals
            for eps in (F(1, 2), F(1, 4), F(1, 8)):
                for xi in range(len(xts)):
                    target = phi_type(inst, xi)
                    d = monotone_definition(inst, eps, target)
                    assert d.observed_error <= 3 * eps, (name, eps, xi)
                    n = len(d.parameters)
                    evaluated = sorted({tuple(vals[c][a] for c in d.parameters)
                                        for a in range(len(yts))})
                    for u in evaluated:  # coordinatewise monotone on evaluated tuples
                        for v in evaluated:
                            if all(ui <= vi for ui, vi in zip(u, v)):
                                assert d.evaluate(u) <= d.evaluate(v)
                    if n <= 3 and n > 0:
                        vs = [tuple(vals[c][a] for c in d.parameters) for a in range(len(yts))]
                        assert [d.evaluate(v) for v in vs] == monotone_sup_on_grid(
                            d, inst, target, vs, eps / 4)


def test_criterion_08_gluing_identities():
    with budget(8, 10.0, "gluing recovery identities, exhaustive"):
        for n in (1, 2):
            M = glued_halfgraph(n)
            phi = parse("phi(x,y)", M.sig)
            psi = parse("psi(x,z)", M.sig)
            chi = glue_formula(phi, psi, "x", ("t", "w"), "E", M.sig)
            size = len(M.carriers["V"])
            for a in range(size):
                for b in range(size):
                    for c in range(size):
                        env = {"x": a, "y": b, "z": c, "t": 0, "w": 1}
                        assert eval_formula(M, env, chi) == eval_formula(M, env, phi)
                        env["w"] = 0
                        assert eval_formula(M, env, chi) == eval_formula(M, env, psi)


def test_criterion_09_cb_ranks():
    with budget(9, 10.0, "Cantor-Bendixson ranks and decreasing stages"):
        X = topometric_space(
            ("p", "q", "r"),
            (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})),
            tuple(tuple(F(0) if i == j else F(1) for j in range(3)) for i in range(3)))
        res = cb_rank(X, F(1, 2))
        assert {X.points[i]: r for i, r in res.ranks.items()} == {"r": 0, "q": 1, "p": 2}

        pts = tuple(f"p{i}" for i in range(4))
        family = tuple(frozenset(c) for size in range(5)
                       for c in itertools.combinations(range(4), size))
        disc = topometric_space(
            pts, family,
            tuple(tuple(F(0) if i == j else F(1) for j in range(4)) for i in range(4)))
        for eps in (F(0), F(1, 2), F(1)):
            res = cb_rank(disc, eps)
            assert all(r == 0 for r in res.ranks.values())

        rng = random.Random(907)
        for _ in range(50):
            X, eps = random_valid_topometric_space(rng)
            res = cb_rank(X, eps)
            for a, b in zip(res.stages, res.stages[1:]):
                assert b <= a and (b < a or res.stationary)


def _respects_u(metric_a, metric_b, fn, u):
    size = len(metric_a)
    return all(metric_b[fn[i]][fn[j]] <= u.eval(metric_a[i][j])
               for i in range(size) for j in range(size))


def test_criterion_10_modulus_conversion():
    with budget(10, 30.0, "modulus conversions against table functions"):
        assert inverse_from_delta(IDENTITY) == IDENTITY
        assert delta_from_inverse(inverse_from_delta(IDENTITY))(F(1, 2)) == F(1, 2)

        rng = random.Random(1003)
        eps_grid = [F(k, 32) for k in range(1, 33)]
        checked_violations = 0
        for trial in range(20):
            # random inverse modulus: u(0) = 0, u(1) = 1 so that distance-1
            # pairs carry information (delta never exceeds 1)
            xs = [F(0)] + sorted(rng.sample([F(k, 16) for k in range(1, 16)], 3)) + [F(1)]
            ys = [F(0)]
            for _ in xs[1:-1]:
                ys.append(min(ys[-1] + F(rng.randrange(0, 9), 16), F(1)))
            ys.append(F(1))
            u = pl_of(tuple(zip(xs, ys)))
            delta = delta_from_inverse(u)

            metric_a = random_metric(rng, 6, [F(1, 4), F(1, 2), F(3, 4)])
            metric_b = random_metric(rng, 6, [F(1, 4), F(1, 2), F(3, 4)])
            for _ in range(12):
                fn = [rng.randrange(6) for _ in range(6)]
                if _respects_u(metric_a, metric_b, fn, u):
                    # respecting u implies respecting the converted delta
                    for eps in eps_grid:
                        de = delta(eps)
                        for i in range(6):
                            for j in range(6):
                                if metric_a[i][j] < de:
                                    assert metric_b[fn[i]][fn[j]] <= eps
                else:
                    # vice versa, contrapositively: a u-violating pair yields
                    # an exact eps witnessing a delta violation
                    witness = next(
                        (i, j) for i in range(6) for j in range(6)
                        if metric_b[fn[i]][fn[j]] > u.eval(metric_a[i][j]))
                    i, j = witness
                    dist = metric_a[i][j]
                    moved = metric_b[fn[i]][fn[j]]
                    eps_star = (u.eval(dist) + moved) / 2
                    assert delta(eps_star) > dist
                    assert moved > eps_star
                    checked_violations += 1
        assert checked_violations > 0

        # inverse_from_delta: respecting delta implies respecting the result
        for trial in range(20):
            xs = [F(0)] + sorted(rng.sample([F(k, 16) for k in range(1, 16)], 3)) + [F(1)]
            ys = [F(rng.randrange(1, 5), 16)]
            for _ in xs[1:]:
                ys.append(min(ys[-1] + F(rng.randrange(0, 9), 16), F(1)))
            delta_pl = pl_of(tuple(zip(xs, ys)))
            uhat = inverse_from_delta(delta_pl)
            metric_a = random_metric(rng, 6, [F(1, 4), F(1, 2), F(3, 4)])
            metric_b = random_metric(rng, 6, [F(1, 4), F(1, 2), F(3, 4)])
            for _ in range(12):
                fn = [rng.randrange(6) for _ in range(6)]
                respects_delta = all(
                    not (metric_a[i][j] < delta_pl.eval(eps))
                    or metric_b[fn[i]][fn[j]] <= eps
                    for eps in eps_grid for i in range(6) for j in range(6))
                if respects_delta:
                    assert _respects_u(metric_a, metric_b, fn, uhat)


def test_criterion_11_synthesis():
    with budget(11, 300.0, "synthesis corpus and the lattice negative witness"):
        axis8 = [F(k, 8) for k in range(9)]
        targets = [
            GridFunction(1, F(1, 8), tuple(axis8)),
            GridFunction(1, F(1, 8), tuple(min(2 * t, F(1)) for t in axis8)),
            GridFunction(1, F(1, 8), (F(1, 3),) * 9),
            GridFunction(1, F(1, 8), tuple(1 - t for t in axis8)),
        ]
        axis4 = [F(k, 4) for k in range(5)]
        targets.append(GridFunction(
            2, F(1, 4), tuple(max(s - t, F(0)) for s in axis4 for t in axis4)))
        requests = [F(1, 8), F(1, 8), F(1, 16), F(1, 8), F(1, 8)]
        for target, eps in zip(targets, requests):
            res = synthesize(target, eps)
            assert res.max_error <= eps
            assert uses_only_neg_monus_constants(res.expression)
            assert verify_synthesis(res.expression, target) == res.max_error

        constants = [F(k, 16) for k in range(17)]
        vectors = lattice_closure_vectors(axis8, constants, depth=6)
        for vec in vectors:
            for a, b in zip(vec, vec[1:]):
                assert abs(a - b) <= F(1, 8)
        target_vec = tuple(min(2 * t, F(1)) for t in axis8)
        best = min(max(abs(a - b) for a, b in zip(vec, target_vec)) for vec in vectors)
        assert best >= F(1, 4)


def _prenex_signature():
    return Signature(
        [SortDecl("S", "d")],
        functions=[],
        predicates=[
            PredDecl("P", ("S",), (IDENTITY,)),
            PredDecl("R", ("S", "S"), (IDENTITY, IDENTITY)),
        ],
    )


def _random_closed_formula(rng, depth, scope=()):
    roll = rng.random()
    if depth == 0 or (roll < 0.3 and scope):
        kind = rng.randrange(3)
        if kind == 0 or not scope:
            return Const(F(rng.randrange(0, 9), 8))
        if kind == 1:
            return Atom("P", (Var(rng.choice(scope), "S"),))
        return Atom("R", (Var(rng.choice(scope), "S"), Var(rng.choice(scope), "S")))
    kind = rng.randrange(7)
    if kind == 0:
        name = f"v{len(scope)}"
        return Quant(rng.choice(["sup", "inf"]), name, "S",
                     _random_closed_formula(rng, depth - 1, scope + (name,)))
    if kind == 1:
        return Op("neg", (_random_closed_formula(rng, depth - 1, scope),))
    if kind == 2:
        return Op("half", (_random_closed_formula(rng, depth - 1, scope),))
    op = rng.choice(["monus", "plus_trunc", "min", "max", "absdiff"])
    return Op(op, (_random_closed_formula(rng, depth - 1, scope),
                   _random_closed_formula(rng, depth - 1, scope)))


def _random_structure(rng, sig):
    n = rng.choice([2, 3])
    names = [f"e{i}" for i in range(n)]
    metric = {"S": random_metric(rng, n, [F(1, 4), F(1, 2), F(1)])}
    preds = {
        "P": {(i,): F(rng.randrange(0, 9), 8) for i in range(n)},
        "R": {(i, j): F(rng.randrange(0, 9), 8) for i in range(n) for j in range(n)},
    }
    return structure(sig, {"S": names}, metric, {}, preds)


def _count_quantifiers(f):
    if isinstance(f, Quant):
        return 1 + _count_quantifiers(f.body)
    if isinstance(f, Op):
        return sum(_count_quantifiers(a) for a in f.args)
    return 0


def test_criterion_12_prenex_equivalence():
    with budget(12, 120.0, "prenex equivalence, 500 formulas x 20 structures"):
        sig = _prenex_signature()
        rng = random.Random(1212)
        structures = [_random_structure(rng, sig) for _ in range(20)]
        checked = 0
        while checked < 500:
            f = _random_closed_formula(rng, depth=4)
            g = prenex(f)
            # absdiff rewriting duplicates quantified subformulas, so the
            # prenex form can carry many more quantifiers than the input;
            # keep the corpus to evaluable sizes
            if _count_quantifiers(g) > 4:
                continue
            for M in structures:
                assert eval_formula(M, {}, f) == eval_formula(M, {}, g)
            checked += 1
        assert checked == 500
