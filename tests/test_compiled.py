"""Differential tests: compiled evaluation and int-table validation against the oracles.

`eval_formula` and `compile_row` compile formulas to closures over integer
tables, whole rows at a time, and `validate` compares integers;
`oracles.eval_formula_reference` and `oracles.validate_reference` are the
Fraction interpreter and validator they replaced.  Values must agree bit
for bit, reports entry for entry.
"""

import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contlogic.errors import StructuralError
from contlogic.imaginaries import build_imaginary, tphi_sentences
from contlogic.language import (
    App,
    Atom,
    Const,
    FuncDecl,
    Op,
    PLMonotone,
    PredDecl,
    Quant,
    Signature,
    SortDecl,
    ValueVar,
    Var,
    expand_condition,
    is_prenex,
    parse,
    prenex,
)
from contlogic.structures import (
    FiniteStructure,
    PhiInstance,
    apa_sentence,
    compile_formula,
    compile_row,
    eval_formula,
    from_classical,
    gen_prob_algebra,
    make_split,
    pra_conditions,
    tuples_of,
    validate,
)

from oracles import eval_formula_reference, random_metric, validate_reference
from test_acceptance import _count_quantifiers, _prenex_signature, _random_closed_formula
from test_acceptance import _random_structure as _random_prenex_structure

IDENT = PLMonotone.identity()
QUARTERS = [F(k, 4) for k in range(5)]


def same_value(M, env, f):
    got = eval_formula(M, env, f)
    assert got == eval_formula_reference(M, env, f), f
    return got


def same_report(M):
    assert validate(M).to_json() == validate_reference(M).to_json()


def test_prenex_corpus_matches_reference():
    sig = _prenex_signature()
    rng = random.Random(1212)
    structures = [_random_prenex_structure(rng, sig) for _ in range(20)]
    checked = 0
    while checked < 150:
        f = _random_closed_formula(rng, depth=4)
        g = prenex(f)
        if _count_quantifiers(g) > 4:
            continue
        for M in structures:
            assert same_value(M, {}, f) == same_value(M, {}, g), (f, g)
        checked += 1


@pytest.mark.parametrize("weights", [
    [F(1)],
    [F(1, 2), F(1, 2)],
    [F(1, 4), F(3, 4)],
    [F(1, 3)] * 3,
    [F(1, 2), F(1, 4), F(1, 8), F(1, 8)],
])
def test_algebra_axioms_match_reference(weights):
    M = gen_prob_algebra(weights)
    for _, condition in pra_conditions(M.sig):
        same_value(M, {}, expand_condition(condition))
    same_value(M, {}, apa_sentence(M.sig))
    same_report(M)


def test_tphi_sentences_on_imaginary_expansions_match_reference():
    two = from_classical(["a", "b"], {}, {"E": []})
    alg2 = gen_prob_algebra([F(1, 4), F(3, 4)])
    cases = [
        (alg2, "mu(meet(x,y))", (["x"], ["y"])),
        # two x-variables make the class predicate ternary
        (two, "max(d(x0,y0), d(x1,y1))", (["x0", "x1"], ["y0", "y1"])),
    ]
    for M, text, (xs, ys) in cases:
        phi = parse(text, M.sig)
        E = build_imaginary(M, phi, make_split(phi, xs, ys))
        assert len(E.expanded.sig.sort_names) == 2
        for _, sentence in tphi_sentences(E):
            assert same_value(E.expanded, {}, sentence) == 0
        same_report(E.expanded)


def small_structure():
    sig = Signature([SortDecl("S", "d")],
                    functions=[FuncDecl("f", ("S",), "S", (IDENT,))],
                    predicates=[PredDecl("P", ("S",), (IDENT,)),
                                PredDecl("R", ("S", "S"), (IDENT, IDENT))])
    metric = {"S": [[F(0), F(1, 2), F(1)], [F(1, 2), F(0), F(1, 2)], [F(1), F(1, 2), F(0)]]}
    return FiniteStructure(
        sig, {"S": ["a", "b", "c"]}, metric, {"f": {(0,): 1, (1,): 2, (2,): 2}},
        {"P": {(0,): F(1, 3), (1,): F(3, 4), (2,): F(0)},
         "R": {(i, j): F((i * 3 + j) % 5, 7) for i in range(3) for j in range(3)}})


def test_shadowing_value_variables_med_and_half_match_reference():
    M = small_structure()
    x, y = Var("x", "S"), Var("y", "S")
    P = Atom("P", (x,))
    R = Atom("R", (x, y))
    half = lambda f: Op("half", (f,))  # noqa: E731
    formulas = [
        # the inner x shadows the outer one; P(x) after it reads the outer x again
        Quant("sup", "x", "S", Op("max", (Quant("inf", "x", "S", Atom("R", (x, x))), P))),
        Quant("sup", "x", "S", Quant("sup", "x", "S", Atom("P", (App("f", (x,), "S"),)))),
        Op("monus", (P, ValueVar("p"))),
        Op("plus_trunc", (ValueVar("p"), half(half(half(R))))),
        Op("absdiff", (half(P), half(half(Atom("d", (x, App("f", (y,), "S"))))))),
        Op("med", (P, R, ValueVar("p")), 2),
        Op("med", (half(P), Const(F(2, 3)), R, Op("neg", (P,)), half(half(R))), 3),
        Op("med", (R,), 1),
        Quant("inf", "y", "S", Op("min", (Op("neg", (R,)), half(ValueVar("p"))))),
    ]
    for f in formulas:
        for i in range(3):
            for j in range(3):
                same_value(M, {"x": i, "y": j, "p": F(5, 9)}, f)


def same_error(M, env, f):
    with pytest.raises(StructuralError) as got:
        eval_formula(M, env, f)
    with pytest.raises(StructuralError) as want:
        eval_formula_reference(M, env, f)
    assert str(got.value) == str(want.value)
    return str(got.value)


def test_errors_match_reference():
    M = small_structure()
    x = Var("x", "S")
    P = Atom("P", (x,))
    assert same_error(M, {}, P) == "unbound variable 'x'"
    assert same_error(M, {"y": 0}, Quant("sup", "y", "S", Atom("R", (Var("y", "S"), x)))) \
        == "unbound variable 'x'"
    assert same_error(M, {"x": 0}, Op("min", (P, ValueVar("p")))) \
        == "value variable 'p' not bound to a rational"
    # a quantifier over p hides the environment's value for p
    assert "'p'" in same_error(M, {"p": F(1, 2)}, Quant("sup", "p", "S", ValueVar("p")))
    assert "'p'" in same_error(M, {"p": 1}, ValueVar("p"))
    assert "med_2" in same_error(M, {"x": 0}, Op("med", (P, P), 2))
    assert "n >= 1" in same_error(M, {"x": 0}, Op("med", (), 0))
    assert "unknown connective" in same_error(M, {"x": 0}, Op("nand", (P, P)))
    assert "expects 1" in same_error(M, {"x": 0}, Op("neg", (P, P)))
    assert "const" in same_error(M, {"x": 0}, Op("const", ()))
    # the first error in evaluation order wins
    assert same_error(M, {}, Op("nand", (P,))) == "unbound variable 'x'"


# ---------------------------------------------------------------------------
# validate on mutated structures


def algebra_json():
    return gen_prob_algebra([F(1, 4), F(1, 4), F(1, 2)]).to_json()


def mutated(change):
    data = algebra_json()
    change(data)
    return FiniteStructure.from_json(json.loads(json.dumps(data)))


def break_triangle(data):
    rows = data["metric"]["B"]
    rows[1][2] = rows[2][1] = "1"  # d(s1,s2) = 1/2 through s0 or s3


def make_asymmetric(data):
    data["metric"]["B"][1][3] = "1/2"


def self_distance(data):
    data["metric"]["B"][5][5] = "1/8"


def function_violation(data):
    data["functions"]["meet"][6][7] = "s0"


def predicate_violation(data):
    data["predicates"]["mu"][3] = "0"


@pytest.mark.parametrize("change, kind", [
    (break_triangle, "metric_triangle"),
    (make_asymmetric, "metric_symmetry"),
    (self_distance, "metric_reflexivity"),
    (function_violation, "modulus_function"),
    (predicate_violation, "modulus_predicate"),
])
def test_validate_matches_reference_on_mutated_algebras(change, kind):
    M = mutated(change)
    report = validate(M)
    assert kind in {v.kind for v in report.violations}
    same_report(M)


# ---------------------------------------------------------------------------
# random structures


def binary_signature():
    return Signature([SortDecl("S", "d")],
                     functions=[FuncDecl("f", ("S",), "S", (IDENT,))],
                     predicates=[PredDecl("P", ("S",), (IDENT,)),
                                 PredDecl("R", ("S", "S"), (IDENT, PLMonotone(
                                     ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1))))))])


@st.composite
def binary_structures(draw):
    n = draw(st.integers(2, 4))
    quarter = st.sampled_from(QUARTERS)
    if draw(st.booleans()):
        metric = random_metric(random.Random(draw(st.integers(0, 2 ** 16))), n, QUARTERS[1:])
    else:  # any matrix, so every kind of metric violation can occur
        metric = [[draw(quarter) for _ in range(n)] for _ in range(n)]
    return FiniteStructure(
        binary_signature(), {"S": [f"e{i}" for i in range(n)]}, {"S": metric},
        {"f": {(i,): draw(st.integers(0, n - 1)) for i in range(n)}},
        {"P": {(i,): draw(quarter) for i in range(n)},
         "R": {(i, j): draw(quarter) for i in range(n) for j in range(n)}})


@st.composite
def formulas(draw, scope=("x",), depth=3, binders=("x", "y", "z"), values=("p",)):
    """Formulas over `binary_signature`: terms read the names in scope, a
    quantifier binds one of `binders` (it may shadow; none without binders),
    value variables are named from `values`."""

    def sub(scope=scope):
        return formulas(scope=scope, depth=depth - 1, binders=binders, values=values)

    def term():
        t = Var(draw(st.sampled_from(scope)), "S")
        for _ in range(draw(st.integers(0, 2))):
            t = App("f", (t,), "S")
        return t

    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(["P", "R", "d", "const", "value"]))
        if kind == "P":
            return Atom("P", (term(),))
        if kind in ("R", "d"):
            return Atom(kind, (term(), term()))
        if kind == "const":
            return Const(draw(st.sampled_from(QUARTERS + [F(1, 3)])))
        return ValueVar(draw(st.sampled_from(values)))
    kind = draw(st.sampled_from(["quant"] * bool(binders) + ["neg", "half", "binary", "med"]))
    if kind == "quant":
        name = draw(st.sampled_from(binders))
        body = draw(sub(scope=tuple(dict.fromkeys((*scope, name)))))  # in a fixed order
        return Quant(draw(st.sampled_from(["sup", "inf"])), name, "S", body)
    if kind in ("neg", "half"):
        return Op(kind, (draw(sub()),))
    if kind == "med":
        return Op("med", tuple(draw(sub()) for _ in range(3)), 2)
    op = draw(st.sampled_from(["monus", "min", "max", "plus_trunc", "absdiff"]))
    return Op(op, (draw(sub()), draw(sub())))


@given(binary_structures(), formulas(), st.sampled_from(QUARTERS + [F(2, 3)]))
def test_random_formulas_match_reference(M, f, p):
    for x in range(len(M.carriers["S"])):
        same_value(M, {"x": x, "p": p}, f)


# Free names that prenex's fresh names q1, q2, ... must skip, bound names that
# shadow free ones and each other, and names of the signature's symbols.
FREE_NAMES = ("q1", "f")
BOUND_NAMES = ("q1", "q2", "f", "P", "d")
VALUE_NAMES = ("q3", "R")  # a binder of the same name would hide the value


@st.composite
def colliding_formulas(draw):
    """Two nested quantifiers over `absdiff` and `med`, next to free uses of the names.

    The other subformulas are quantifier-free, so the prenex form has three
    quantifiers and every assignment can be checked.
    """
    def part(scope):
        return draw(formulas(scope=scope, depth=1, binders=(), values=VALUE_NAMES))

    kinds = st.sampled_from(["sup", "inf"])
    outer, inner = draw(st.sampled_from(BOUND_NAMES)), draw(st.sampled_from(BOUND_NAMES))
    mid = FREE_NAMES + (outer,)
    med = Op("med", (part(mid + (inner,)), part(mid), part(mid + (inner,))), 2)
    body = Op("absdiff", (part(mid), Quant(draw(kinds), inner, "S", med)))
    op = draw(st.sampled_from(["monus", "min", "max", "plus_trunc"]))
    args = [Quant(draw(kinds), outer, "S", body), part(FREE_NAMES)]
    return Op(op, tuple(args[::-1] if draw(st.booleans()) else args))


@given(binary_structures(), colliding_formulas())
def test_prenex_with_colliding_names_matches_reference(M, f):
    g = prenex(f)
    assert is_prenex(g)
    carrier = range(len(M.carriers["S"]))
    for ps in itertools.product((F(1, 4), F(2, 3)), repeat=len(VALUE_NAMES)):
        values = dict(zip(VALUE_NAMES, ps))
        prenex_value = compile_formula(M, g, FREE_NAMES, values)
        for xs in itertools.product(carrier, repeat=len(FREE_NAMES)):
            env = {**dict(zip(FREE_NAMES, xs)), **values}
            assert prenex_value(xs) == eval_formula_reference(M, env, f), (f, g)


@given(binary_structures())
def test_random_structures_validate_like_reference(M):
    same_report(M)


# ---------------------------------------------------------------------------
# row kernels: a quantifier's body over the whole carrier at once

# z (and w, u) are bound; x and y are free, p is a value variable.  Each term
# puts the bound variable at another argument position or depth.
ROW_TERMS = ["z", "meet(z,x)", "meet(x,z)", "join(z,y)", "join(y,z)", "compl(z)",
             "meet(compl(z),x)", "join(meet(x,z),compl(y))", "meet(z,z)", "join(meet(z,y),z)"]
ROW_ATOMS = [f"mu({t})" for t in ROW_TERMS] + [
    "d(z,x)", "d(x,z)", "d(z,z)", "d(meet(z,x),join(y,z))", "d(compl(z),meet(x,y))",
    "d(one,z)", "d(z,zero)"]
# children that do not read z, so a row parent broadcasts them
SCALARS = ["mu(x)", "d(x,y)", "p", "1/3", "mu(meet(compl(x),y))"]
ROW_BODIES = (
    ROW_ATOMS
    + [f"{op}({a}, {b})" for op in ("min", "max")
       for a, b in (("mu(z)", "d(z,x)"), ("mu(meet(z,x))", "p"), ("1/3", "mu(join(z,y))"))]
    + [f"{a} {op} {b}" for op in ("-.", "+.")
       for a, b in (("mu(z)", "d(z,y)"), ("mu(meet(x,z))", "mu(x)"), ("p", "d(z,x)"),
                    ("half mu(z)", "half half d(x,z)"))]
    + [f"|{a} - {b}|" for a, b in (("mu(meet(z,x))", "mu(meet(z,y))"), ("mu(z)", "1/3"),
                                    ("d(x,y)", "half d(z,y)"))]
    + ["not mu(meet(z,y))", "not half d(z,x)", "half half mu(compl(z))"]
    + ["med 1(mu(z))", "med 2(p, mu(z), d(z,x))", "med 2(mu(x), 1/3, d(z,y))",
       "med 3(mu(z), mu(x), half d(z,y), not mu(z), p)"]
    + SCALARS
)
NESTED = [
    # the inner quantifier reads the outer variable
    "sup z. inf w. |mu(meet(z,w)) - mu(x)|",
    "inf z. |sup w. d(w,z) -. mu(meet(w,x)) - mu(z)|",
    "sup z. inf w. sup u. d(meet(z,w), join(u,x))",
    "inf z. max(mu(z), inf w. d(join(w,y), z))",
    "sup z. med 2(inf w. d(w,meet(z,x)), p, mu(z))",
    # the inner quantifier ignores the outer variable
    "sup z. max(mu(z), inf w. mu(meet(w,x)))",
    "inf z. inf w. |mu(meet(w,x)) - p|",
    "sup z. |mu(meet(z,y)) - sup w. d(w,x)|",
    # bodies that ignore their variable
    "sup z. mu(meet(x,y))",
    "inf z. p",
    "sup z. inf w. mu(z)",
    # shadowed names: the inner binder hides the outer or the free variable
    "sup z. max(mu(z), sup z. d(z,x))",
    "sup x. |mu(meet(x,y)) - inf x. d(x,y)|",
    "inf z. (sup x. mu(meet(x,z))) -. mu(x)",
    "sup y. inf z. |mu(meet(z,y)) - half mu(x)|",
]


@pytest.mark.parametrize("weights", [[F(1)], [F(1, 4), F(1, 4), F(1, 2)]],
                         ids=["2-elements", "8-elements"])
def test_row_kernels_match_reference(weights):
    M = gen_prob_algebra(weights)
    carrier = range(M.sizes["B"])
    formulas = [f"{q} z. {body}" for body in ROW_BODIES for q in ("sup", "inf")] + NESTED
    for text in formulas:
        f = parse(text, M.sig)
        for x, y in itertools.product(carrier, repeat=2):
            same_value(M, {"x": x, "y": y, "p": F(2, 5)}, f)


def same_rows(M, f, variables, values):
    """compile_row over the last of `variables` against the reference, at every prefix."""
    row, scale = compile_row(M, f, variables, values)
    *head, (last, sort) = variables
    for prefix in itertools.product(*(range(M.sizes[s]) for _, s in head)):
        env = {**dict(zip([n for n, _ in head], prefix)), **values}
        want = [eval_formula_reference(M, {**env, last: i}, f) for i in range(M.sizes[sort])]
        assert [F(v, scale) for v in row(prefix)] == want, (f, prefix)


def test_row_entry_point_matches_reference():
    M = gen_prob_algebra([F(1, 4), F(1, 4), F(1, 2)])
    B = "B"
    for text in ROW_BODIES + NESTED:
        f = parse(text, M.sig)
        # z free: the row runs over it; a formula without z gives a broadcast row
        same_rows(M, f, [("x", B), ("y", B), ("z", B)], {"p": F(2, 5)})
    for text in ROW_BODIES[::3]:
        same_rows(M, parse(text, M.sig), [("z", B), ("y", B), ("x", B)], {"p": F(2, 5)})
    closed = apa_sentence(M.sig)
    row, scale = compile_row(M, closed, [])
    assert [F(v, scale) for v in row(())] == [eval_formula_reference(M, {}, closed)]
    same_rows(M, closed, [("x", B)], {})


def one_point_structure():
    return FiniteStructure(
        binary_signature(), {"S": ["e0"]}, {"S": [[F(0)]]}, {"f": {(0,): 0}},
        {"P": {(0,): F(1, 3)}, "R": {(0, 0): F(3, 4)}})


def test_row_kernels_on_one_and_three_points():
    x, z, w = Var("x", "S"), Var("z", "S"), Var("w", "S")
    fz = App("f", (z,), "S")
    bodies = [
        Atom("R", (z, x)), Atom("R", (x, fz)), Atom("R", (fz, z)), Atom("d", (z, z)),
        Op("absdiff", (Atom("P", (fz,)), ValueVar("p"))),
        Op("med", (Atom("P", (z,)), Atom("R", (x, x)), Const(F(1, 2))), 2),
        Quant("inf", "w", "S", Op("max", (Atom("R", (w, z)), Atom("P", (x,))))),
        Quant("inf", "w", "S", Atom("R", (w, x))),
    ]
    for M in (one_point_structure(), small_structure()):
        for body in bodies:
            for kind in ("sup", "inf"):
                f = Quant(kind, "z", "S", body)
                for i in range(M.sizes["S"]):
                    same_value(M, {"x": i, "p": F(1, 6)}, f)
            same_rows(M, body, [("x", "S"), ("z", "S")], {"p": F(1, 6)})


def test_row_kernels_on_ternary_symbols():
    sig = Signature([SortDecl("S", "d")],
                    functions=[FuncDecl("g", ("S", "S", "S"), "S", (IDENT,) * 3)],
                    predicates=[PredDecl("T", ("S", "S", "S"), (IDENT,) * 3)])
    n = 3
    cube = list(itertools.product(range(n), repeat=3))
    M = FiniteStructure(
        sig, {"S": ["a", "b", "c"]}, {"S": [[F(int(i != j)) for j in range(n)] for i in range(n)]},
        {"g": {t: (t[0] * 2 + t[1] + 2 * t[2]) % n for t in cube}},
        {"T": {t: F((t[0] + 3 * t[1] + 5 * t[2]) % 7, 6) for t in cube}})
    x, y, z = Var("x", "S"), Var("y", "S"), Var("z", "S")
    g = lambda *args: App("g", args, "S")  # noqa: E731
    for args in [(z, x, y), (x, z, y), (x, y, z), (z, z, x), (x, z, z), (z, y, z), (z, z, z),
                 (g(z, x, z), y, z), (x, g(y, z, x), g(z, z, z))]:
        f = Atom("T", args)
        same_rows(M, f, [("x", "S"), ("y", "S"), ("z", "S")], {})
        for i, j in itertools.product(range(n), repeat=2):
            same_value(M, {"x": i, "y": j}, Quant("sup", "z", "S", f))


def test_rows_over_an_imaginary_sort_match_reference():
    M = gen_prob_algebra([F(1, 4), F(3, 4)])
    phi = parse("mu(meet(x,y))", M.sig)
    E = build_imaginary(M, phi, make_split(phi, ["x"], ["y"]))
    N, pred = E.expanded, Atom(E.pred_name, (Var("x", "B"), Var("c", E.sort_name)))
    for f in (pred, Op("absdiff", (pred, Atom(E.metric_name, (Var("c", E.sort_name),
                                                               Var("c2", E.sort_name)))))):
        same_rows(N, f, [("c2", E.sort_name), ("x", "B"), ("c", E.sort_name)], {})
        same_rows(N, f, [("c2", E.sort_name), ("c", E.sort_name), ("x", "B")], {})


@pytest.mark.parametrize("text", [
    "|mu(meet(x,y1)) - d(y2, join(x,y1))|",
    "sup z. |mu(meet(x,z)) - mu(meet(y1,join(z,y2)))|",
    "inf z. max(d(z,y2), mu(meet(x,y1)))",
])
def test_phi_instance_rows_match_fraction_matrix(text):
    M = gen_prob_algebra([F(1, 4), F(1, 4), F(1, 2)])
    phi = parse(text, M.sig)
    split = make_split(phi, ["x"], ["y1", "y2"])
    inst = PhiInstance(M, phi, split)
    names = [n for n, _ in split.x + split.y]
    want = [[eval_formula_reference(M, dict(zip(names, xt + yt)), phi)
             for yt in tuples_of(M, split.y)] for xt in tuples_of(M, split.x)]
    assert [[F(v, inst.scale) for v in row] for row in inst.num] == want
