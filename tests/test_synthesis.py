"""Connective synthesis on grids and the monotone-lattice negative witness."""

import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contlogic.errors import DomainError, StructuralError
from contlogic.language import Const, Op, Quant, ValueVar, nodes, print_formula
from contlogic.synthesis import (
    GridFunction,
    eval_on_grid,
    expression_tree_size,
    synthesize,
    verify_synthesis,
)

from oracles import lattice_closure_vectors, uses_only_neg_monus_constants


def grid1(pitch, fn):
    steps = int(1 / F(pitch))
    axis = [F(pitch) * k for k in range(steps + 1)]
    return GridFunction(1, F(pitch), tuple(map(fn, axis)))


def test_identity_target():
    target = grid1(F(1, 8), lambda t: t)
    res = synthesize(target, F(1, 8))
    assert res.max_error <= F(1, 8)
    assert uses_only_neg_monus_constants(res.expression)
    assert verify_synthesis(res.expression, target) == res.max_error
    # the trivial candidate passes the same check
    assert verify_synthesis(ValueVar("t0"), target) == 0


def test_double_capped_target():
    target = grid1(F(1, 8), lambda t: min(2 * t, F(1)))
    res = synthesize(target, F(1, 8))
    assert res.max_error <= F(1, 8)
    # cross-check against the exact form t +. t
    exact = Op("neg", (Op("monus", (Op("neg", (ValueVar("t0"),)), ValueVar("t0"))),))
    assert verify_synthesis(exact, target) == 0


def test_constant_third_target():
    target = grid1(F(1, 8), lambda t: F(1, 3))
    res = synthesize(target, F(1, 16))
    assert res.max_error <= F(1, 16)
    assert uses_only_neg_monus_constants(res.expression)


def test_two_dimensional_target():
    pitch = F(1, 4)
    axis = [pitch * k for k in range(5)]
    values = tuple(max(s - t, F(0)) for s in axis for t in axis)
    target = GridFunction(2, pitch, values)
    res = synthesize(target, F(1, 8))
    assert res.max_error <= F(1, 8)
    assert uses_only_neg_monus_constants(res.expression)


def test_verify_synthesis_basics():
    target = grid1(F(1, 2), lambda t: F(1))
    assert verify_synthesis(Const(F(0)), target) == 1
    with pytest.raises(StructuralError):
        verify_synthesis(ValueVar("t1"), target)


def test_epsilon_zero_and_declared_step_modulus():
    target = grid1(F(1, 8), lambda t: min(2 * t, F(1)))
    with pytest.raises(DomainError):
        synthesize(target, F(0))
    with pytest.raises(DomainError):
        synthesize(target, F(1, 8), step_modulus=F(1, 4))
    res = synthesize(target, F(1, 2), step_modulus=F(1, 4))
    assert res.max_error <= F(1, 2)


def test_grid_function_json_round_trip():
    """A grid written by `to_json` loads back identical, its values in grid order."""
    rng = random.Random(29)
    targets = [grid1(F(1, 4), lambda t: t * t if t < 1 else F(1))]
    for arity, pitch in ((1, F(1)), (1, F(1, 16)), (2, F(1, 4)), (3, F(1, 2))):
        for den in (1, 3, 64):
            count = (pitch.denominator + 1) ** arity
            values = tuple(F(rng.randrange(den + 1), den) for _ in range(count))
            targets.append(GridFunction(arity, pitch, values))
    for target in targets:
        assert GridFunction.from_json(json.loads(json.dumps(target.to_json()))) == target


def test_negative_witness_double_capped():
    """Depth-6 {neg, min, max} closure is 1-Lipschitz and misses min(2t,1) by 1/4."""
    axis = [F(k, 8) for k in range(9)]
    constants = [F(k, 16) for k in range(17)]
    vectors = lattice_closure_vectors(axis, constants, depth=6)
    for vec in vectors:
        for a, b in zip(vec, vec[1:]):
            assert abs(a - b) <= F(1, 8)
    target_vec = tuple(min(2 * t, F(1)) for t in axis)
    err = min(max(abs(a - b) for a, b in zip(vec, target_vec)) for vec in vectors)
    assert err >= F(1, 4)


def assert_grid_matches_reference(expr, points):
    from oracles import eval_value_formula_reference

    nums, scale = eval_on_grid(expr, points)
    want = [eval_value_formula_reference(expr, {f"t{i}": v for i, v in enumerate(pt)})
            for pt in points]
    assert [F(x, scale) for x in nums] == want


def test_grid_evaluator_matches_reference_on_synthesized_expressions():
    rng = random.Random(5)
    axis8 = [F(k, 8) for k in range(9)]
    for _ in range(4):
        values = tuple(F(rng.randrange(17), 16) for t in axis8)
        res = synthesize(GridFunction(1, F(1, 8), values), F(1, 16))
        points = [(t,) for t in axis8] + [(F(1, 3),), (F(5, 7),)]  # off-grid too
        assert_grid_matches_reference(res.expression, points)
    axis4 = [F(k, 4) for k in range(5)]
    values = tuple(F(rng.randrange(9), 8) for pt in itertools.product(axis4, repeat=2))
    res = synthesize(GridFunction(2, F(1, 4), values), F(1, 8))
    assert_grid_matches_reference(res.expression, list(itertools.product(axis4, repeat=2)))


BINARY = ("monus", "min", "max", "plus_trunc", "absdiff")


def random_dag(rng, arity, size):
    """Expression DAG over t0..t(arity-1) using every connective and med, with sharing."""
    nodes = [ValueVar(f"t{i}") for i in range(arity)]
    nodes += [Const(F(rng.randrange(d + 1), d)) for d in (1, 3, 8)]
    for _ in range(size):
        kind = rng.choice(("neg", "half", "med") + BINARY)
        if kind in ("neg", "half"):
            node = Op(kind, (rng.choice(nodes),))
        elif kind == "med":
            n = rng.choice([1, 2, 3])
            node = Op("med", tuple(rng.choice(nodes) for _ in range(2 * n - 1)), n)
        else:
            node = Op(kind, (rng.choice(nodes), rng.choice(nodes)))
        nodes.append(node)
    return nodes[-1], nodes


def test_grid_evaluator_matches_reference_on_random_dags():
    rng = random.Random(17)
    ops = set()
    for arity in (1, 2, 3):
        points = [tuple(F(rng.randrange(0, 7), 6) for _ in range(arity)) for _ in range(12)]
        for _ in range(40):
            expr, nodes = random_dag(rng, arity, 25)
            ops |= {n.op for n in nodes if isinstance(n, Op)}
            assert_grid_matches_reference(expr, points)
    assert ops == {"neg", "half", "med", *BINARY}


@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 40))
def test_grid_evaluator_property(seed, arity, size):
    rng = random.Random(seed)
    points = [tuple(F(rng.randrange(0, 9), 8) for _ in range(arity)) for _ in range(6)]
    expr, _ = random_dag(rng, arity, size)
    assert_grid_matches_reference(expr, points)


@pytest.mark.parametrize("expr, message", [
    (Op("neg", (ValueVar("t3"),)), "unbound value variable 't3'"),
    (Op("neg", ("t0",)), "only value variables, connectives, constants"),
    (Op("med", (ValueVar("t0"),) * 2, 2), "med_2 expects 3 arguments"),
    (Op("min", (ValueVar("t0"),)), "min expects 2 arguments"),
    (Op("sqrt", (ValueVar("t0"),)), "unknown connective 'sqrt'"),
    (Quant("sup", "x", "S", ValueVar("t0")), "only value variables, connectives, constants"),
    (Op("max", (ValueVar("t0"), Quant("inf", "x", "S", "x"))),
     "only value variables, connectives, constants"),
    (Op("med", (ValueVar("t0"),)), "med requires n >= 1"),  # built without n
])
def test_grid_evaluator_errors(expr, message):
    from oracles import eval_value_formula_reference

    with pytest.raises(StructuralError, match=message):
        eval_on_grid(expr, [(F(1, 2),)])
    with pytest.raises(StructuralError, match=message):
        eval_value_formula_reference(expr, {"t0": F(1, 2)})


@pytest.mark.parametrize("data, message", [
    ({"arity": 1, "pitch": "0", "values": ["0"]}, "pitch"),
    ({"arity": 1, "pitch": "1/3", "values": ["0"] * 4}, "pitch"),
    ({"arity": 1, "pitch": "2", "values": ["0"]}, "outside"),
    ({"arity": "x", "pitch": "1/2", "values": ["0"] * 3}, "arity"),
    ({"arity": 0, "pitch": "1/2", "values": []}, "arity"),
    ({"arity": 1.5, "pitch": "1/2", "values": ["0"] * 3}, "arity"),
    ({"arity": 1, "pitch": "1/2", "values": "0,0,0"}, "list"),
    ({"arity": 2, "pitch": "1/2", "values": ["0"] * 8}, "3\\^2 grid values, got 8"),
    ({"arity": 40, "pitch": "1/2", "values": ["0"]}, "3\\^40 grid values, got 1"),
    ({"arity": 10 ** 12, "pitch": "1", "values": ["0"] * 5}, "grid values, got 5"),
])
def test_grid_function_from_json_rejects(data, message):
    with pytest.raises((StructuralError, DomainError), match=message):
        GridFunction.from_json(data)


def test_grid_function_from_json_accepts_string_arity():
    back = GridFunction.from_json({"arity": "1", "pitch": "1/2", "values": ["0", "1/2", "1"]})
    assert back.values == (F(0), F(1, 2), F(1))


def test_lattice_closure_values_are_exact_unit_vectors():
    axis = [F(k, 4) for k in range(5)]
    vectors = lattice_closure_vectors(axis, [F(1, 3)], depth=3)
    assert len(set(vectors)) == len(vectors)
    assert tuple(axis) in vectors
    assert tuple(1 - t for t in axis) in vectors
    assert tuple(min(t, F(1, 3)) for t in axis) in vectors
    assert all(isinstance(v, F) for vec in vectors for v in vec)


# ---------------------------------------------------------------------------
# Folding while building, and the packed grid evaluator's lane boundaries


def distinct_nodes(expr) -> list:
    seen, out, stack = set(), [], [expr]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node.args if isinstance(node, Op) else ())
    return out


def fold_targets():
    """Seeded 1-D and 2-D targets, constant ones included (their ramps have a == 0)."""
    rng = random.Random(41)
    out = []
    for pitch, eps in ((F(1, 4), F(1, 8)), (F(1, 8), F(1, 16)), (F(1, 8), F(1, 4))):
        for _ in range(3):
            out.append((grid1(pitch, lambda t: F(rng.randrange(17), 16)), eps))
        for c in (F(0), F(1), F(1, 2), F(1, 3)):
            out.append((grid1(pitch, lambda t, c=c: c), eps))
    axis4 = [F(k, 4) for k in range(5)]
    for fn in (lambda s, t: F(rng.randrange(9), 8), lambda s, t: F(0),
               lambda s, t: F(1), lambda s, t: F(3, 8), lambda s, t: max(s - t, F(0))):
        values = tuple(fn(s, t) for s in axis4 for t in axis4)
        out.append((GridFunction(2, F(1, 4), values), F(1, 8)))
    return out


def test_synthesis_output_is_a_fixed_point_of_the_reference_fold():
    from oracles import constant_fold_reference

    for target, eps in fold_targets():
        res = synthesize(target, eps)
        nodes = distinct_nodes(res.expression)
        assert len(nodes) == res.size
        assert not any(isinstance(n, Op) and all(isinstance(a, Const) for a in n.args)
                       for n in nodes)
        folded = constant_fold_reference(res.expression)
        assert print_formula(folded) == print_formula(res.expression)
        assert len(distinct_nodes(folded)) == res.size
        assert verify_synthesis(res.expression, target) == res.max_error <= eps


def dag_shape(expr) -> list:
    """Each distinct node once, children first, with its arguments as positions."""
    pos, shape = {}, []
    for node in nodes(expr):
        pos[id(node)] = len(shape)
        shape.append((node.op, node.n, tuple(pos[id(a)] for a in node.args))
                     if isinstance(node, Op) else node)
    return shape


def reference_targets():
    """`fold_targets`, plus seeded 1-, 2- and 3-D grids with drawn targets, their
    flips 1 - f, zero and constant ones, at epsilons from 1 down to 2^-20."""
    rng = random.Random(43)
    out = fold_targets()
    for arity, pitch, eps in ((1, F(1), F(1)), (1, F(1, 4), F(3, 8)), (1, F(1, 16), F(1, 32)),
                              (1, F(1, 4), F(1, 2 ** 20)), (2, F(1, 2), F(1, 16)),
                              (3, F(1, 2), F(1, 8))):
        grid = list(itertools.product([pitch * i for i in range(pitch.denominator + 1)],
                                      repeat=arity))
        drawn = {pt: F(rng.randrange(65), 64) for pt in grid}
        for fn in (drawn.get, lambda pt: 1 - drawn[pt], lambda pt: F(0), lambda pt: F(1, 3)):
            out.append((GridFunction(arity, pitch, tuple(map(fn, grid))), eps))
    return out


def test_int_build_matches_the_fraction_reference():
    from oracles import synthesize_reference

    for target, eps in reference_targets():
        ref = synthesize_reference(target, eps)
        res = synthesize(target, eps)
        assert dag_shape(res.expression) == dag_shape(ref)
        assert print_formula(res.expression) == print_formula(ref)
        assert res.size == len(distinct_nodes(ref))
        assert res.written_out_nodes == expression_tree_size(ref) \
            == expression_tree_size(res.expression)
        assert res.max_error == verify_synthesis(ref, target)


@pytest.mark.parametrize("arity, spike, message", [
    (1, 1, "slope 128 exceeds the cap 64 for the pair (0) -> (1/128)"),
    (1, 128, "slope 128 exceeds the cap 64 for the pair (127/128) -> (1)"),
    (2, 1, "slope 128 exceeds the cap 64 for the pair (0, 0) -> (0, 1/128)"),
])
def test_slope_cap_names_the_pair_like_the_reference(arity, spike, message):
    """At pitch 1/128 a jump of 1 between neighbours in the last coordinate
    needs slope 128; the error names the first such pair in grid order."""
    from oracles import synthesize_reference

    axis = [F(k, 128) for k in range(129)]
    target = GridFunction(arity, F(1, 128), tuple(F(int(pt[-1] == axis[spike]))
                                                  for pt in itertools.product(axis, repeat=arity)))
    for build in (synthesize_reference, synthesize):
        with pytest.raises(DomainError) as info:
            build(target, F(1, 4))
        assert str(info.value) == message


def test_packed_evaluator_lane_boundaries():
    t0, t1 = ValueVar("t0"), ValueVar("t1")
    zero, one = Const(F(0)), Const(F(1))
    axis8 = [(F(k, 8),) for k in range(9)]
    deep = t0
    for _ in range(8):
        deep = Op("half", (deep,))
    deep_const = one
    for _ in range(8):
        deep_const = Op("half", (deep_const,))
    cases = [
        (deep, axis8),
        (deep_const, axis8),
        (Op("monus", (deep, Op("neg", (deep_const,)))), axis8),
        (Op("plus_trunc", (one, one)), axis8),
        (Op("plus_trunc", (t0, t0)), axis8),
        (Op("absdiff", (t0, t0)), axis8),
        (Op("absdiff", (zero, one)), axis8),
        (Op("absdiff", (t0, Op("neg", (t0,)))), [(F(0),), (F(1),)]),
        (Op("monus", (Const(F(1, 3)), t0)), axis8),
        (Op("max", (Const(F(5, 7)), Op("min", (t0, Const(F(1, 3)))))), axis8),
        (Op("plus_trunc", (Const(F(5, 7)), Op("half", (Const(F(1, 3)),)))), axis8),
        (Op("absdiff", (Const(F(1, 3)), Const(F(5, 7)))), [(F(1, 2),)]),
        (Op("neg", (t0,)), [(F(1, 2),)]),
        (Op("plus_trunc", (t0, Const(F(5, 7)))), [(F(1, 3),), (F(5, 7),), (F(0),), (F(1),)]),
    ]
    for expr, points in cases:
        assert_grid_matches_reference(expr, points)
    # the extremes themselves, not only agreement with the reference
    for expr, want in ((Op("plus_trunc", (one, one)), 1), (deep_const, F(1, 256)),
                       (Op("absdiff", (zero, one)), 1), (Op("absdiff", (one, one)), 0)):
        nums, scale = eval_on_grid(expr, [(F(0),), (F(1),)])
        assert [F(x, scale) for x in nums] == [want, want]


def test_packed_evaluator_med_over_81_lanes():
    """med over the 2-D pitch-1/8 grid: 81 lanes, unpacked, sorted and repacked."""
    t0, t1 = ValueVar("t0"), ValueVar("t1")
    points = list(itertools.product([F(k, 8) for k in range(9)], repeat=2))
    args = (t0, t1, Op("neg", (t0,)), Const(F(1, 3)), Op("half", (t1,)))
    for n, expr_args in ((3, args), (2, args[:3]), (1, args[:1])):
        expr = Op("med", expr_args, n)
        assert_grid_matches_reference(expr, points)
        assert_grid_matches_reference(Op("monus", (expr, Op("half", (expr,)))), points)


def test_packed_evaluator_rejects_values_outside_the_unit_interval():
    with pytest.raises(DomainError, match="outside"):
        eval_on_grid(Op("neg", (ValueVar("t0"),)), [(F(3, 2),)])
    with pytest.raises(DomainError, match="outside"):
        eval_on_grid(Op("neg", (Const(F(-1, 2)),)), [(F(1, 2),)])
    with pytest.raises(DomainError, match="outside"):
        eval_on_grid(Const(F(1, 2)), [(F(1, 2), F(3))])


# ---------------------------------------------------------------------------
# The node table: the evaluator against DAGs, reachability, no reference cycles


def point_values(expr, points):
    from oracles import eval_value_formula_reference

    return [eval_value_formula_reference(expr, {f"t{i}": v for i, v in enumerate(pt)})
            for pt in points]


def edge_points(rng, arity):
    """All-0 and all-1 points, whose lanes sit at 0 and at the scale, and drawn ones."""
    return [(F(0),) * arity, (F(1),) * arity, (F(0), F(1), F(1))[:arity]] + [
        tuple(F(rng.randrange(0, 7), 6) for _ in range(arity)) for _ in range(3)]


def test_table_evaluator_matches_the_dag_it_was_converted_from():
    """A DAG over every connective and med, converted to a table, evaluates to
    the DAG's values, and the table counts its distinct nodes and its
    written-out size."""
    from contlogic.synthesis import _certify, _to_table

    rng = random.Random(23)
    ops = set()
    for arity in (1, 2, 3):
        for _ in range(60):
            points = edge_points(rng, arity)
            expr, pool = random_dag(rng, arity, rng.randrange(1, 30))
            ops |= {n.op for n in pool if isinstance(n, Op)}
            t, columns = _to_table(expr, points)
            got, distinct, written = _certify(t, columns, len(points))
            assert all(0 <= x <= t.den for x in got)
            assert [F(x, t.den) for x in got] == point_values(expr, points)
            assert (distinct, written) == (len(distinct_nodes(expr)), expression_tree_size(expr))
    assert ops == {"neg", "half", "med", *BINARY}


def random_table(rng, arity):
    """A table built through the folding constructors over every binary
    connective; the constants 0 and the scale are among its leaves."""
    from contlogic.synthesis import ABSDIFF, CONST, MAX, MIN, PLUS_TRUNC, VAR, _Table

    t = _Table(rng.choice((1, 4, 12)))
    pool = [t.add(VAR, c) for c in range(arity)]
    pool += [t.add(CONST, const=c) for c in (0, t.den, rng.randrange(t.den + 1))]
    for _ in range(rng.randrange(1, 25)):
        a, b = rng.choice(pool), rng.choice(pool)
        kind = rng.randrange(5)
        if kind == 0:
            pool.append(t.neg(a))
        elif kind == 1:
            pool.append(t.monus(a, b))
        else:
            pool.append(t.add(rng.choice((MIN, MAX, ABSDIFF, PLUS_TRUNC)), a, b))
    return t


def test_table_counts_only_the_entries_the_root_reaches():
    """Folded constants and unused entries stay in the table; the certificate
    counts, and the DAG holds, only what the root reaches."""
    from contlogic.synthesis import CONST, VAR, _certify, _Table, _to_dag

    t = _Table(4)
    three, one = t.add(CONST, const=3), t.add(CONST, const=1)
    half = t.monus(three, one)  # folded: entries 0 and 1 are left unreachable
    t.monus(t.add(VAR, 0), half)
    assert len(t.kind) == 5 and t.kind[half] == CONST and t.const[half] == 2
    assert _certify(t, [[0, 2, 4]], 3) == ([0, 0, 2], 3, 3)

    rng = random.Random(29)
    skipped = 0
    for arity in (1, 2, 3):
        for _ in range(80):
            t = random_table(rng, arity)
            columns = [[0, t.den] + [rng.randrange(t.den + 1) for _ in range(4)]
                       for _ in range(arity)]
            points = [tuple(F(col[j], t.den) for col in columns) for j in range(6)]
            expr = _to_dag(t)
            got, distinct, written = _certify(t, columns, len(points))
            assert [F(x, t.den) for x in got] == point_values(expr, points)
            assert (distinct, written) == (len(distinct_nodes(expr)), expression_tree_size(expr))
            skipped += len(t.kind) - distinct
    assert skipped > 100


def test_text_from_the_table_is_the_text_of_the_dag():
    from contlogic.synthesis import expression_text

    printed = 0
    for target, eps in reference_targets():
        res = synthesize(target, eps)
        text = expression_text(res)
        if res.written_out_nodes > 200_000:
            assert text is None
        else:
            assert text == print_formula(res.expression)
            printed += 1
    assert printed > 20


def test_synthesis_path_leaves_no_cyclic_garbage():
    """synthesize, expression_text, the lazy DAG, eval_on_grid and print_formula
    free everything they build by reference counting."""
    import gc

    from contlogic.language import Atom, Var
    from contlogic.synthesis import expression_text

    axis = [F(k, 4) for k in range(5)]
    targets = [(grid1(F(1, 8), lambda t: min(2 * t, F(1))), F(1, 8)),
               (GridFunction(2, F(1, 4), tuple(max(s - t, F(0)) for s in axis for t in axis)),
                F(1, 8))]
    formula = Quant("sup", "x", None, Op("max", (Atom("P", (Var("x"),)), Const(F(1, 2)))))
    gc.collect()
    gc.disable()
    try:
        for target, eps in targets:
            res = synthesize(target, eps)
            text = expression_text(res)
            assert text is None or text == print_formula(res.expression)
            eval_on_grid(res.expression, target.grid_points())
            del res
        assert print_formula(formula) == "sup x. max(P(x), 1/2)"
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
