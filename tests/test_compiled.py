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
from contlogic.imaginaries import METRIC_NAME, PRED_NAME, SORT_NAME, build_imaginary, tphi_sentences
from contlogic.language import (
    App,
    Atom,
    Const,
    FuncDecl,
    IDENTITY,
    Op,
    PredDecl,
    Quant,
    Signature,
    SortDecl,
    ValueVar,
    Var,
    free_vars,
    parse,
    prenex,
)
from contlogic.structures import (
    FiniteStructure,
    PhiInstance,
    ScaledTable,
    compile_row,
    eval_formula,
    tuples_of,
    validate,
)

from oracles import (
    apa_sentence,
    eval_formula_reference,
    expand_condition,
    from_classical,
    gen_prob_algebra,
    is_prenex,
    pl_of,
    pra_conditions,
    random_metric,
    structure,
    validate_reference,
)
from test_acceptance import _count_quantifiers, _prenex_signature, _random_closed_formula
from test_acceptance import _random_structure as _random_prenex_structure

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
        E = build_imaginary(PhiInstance(M, phi, xs, ys))
        assert len(E.expanded.sig.sort_names) == 2
        for _, sentence in tphi_sentences(E):
            assert same_value(E.expanded, {}, sentence) == 0
        same_report(E.expanded)


def small_structure():
    sig = Signature([SortDecl("S", "d")],
                    functions=[FuncDecl("f", ("S",), "S", (IDENTITY,))],
                    predicates=[PredDecl("P", ("S",), (IDENTITY,)),
                                PredDecl("R", ("S", "S"), (IDENTITY, IDENTITY))])
    metric = {"S": [[F(0), F(1, 2), F(1)], [F(1, 2), F(0), F(1, 2)], [F(1), F(1, 2), F(0)]]}
    return structure(
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
    # a med built without its parameter, or with one that is not an int
    for n in (None, 2.0, "2"):
        assert same_error(M, {"x": 0}, Op("med", (P, P, P), n)) == "med requires n >= 1"
    assert "unknown connective" in same_error(M, {"x": 0}, Op("nand", (P, P)))
    assert "expects 1" in same_error(M, {"x": 0}, Op("neg", (P, P)))
    assert "const" in same_error(M, {"x": 0}, Op("const", ()))
    # the first error in evaluation order wins
    assert same_error(M, {}, Op("nand", (P,))) == "unbound variable 'x'"
    # also where the body reads its variable only inside a term that reads an unbound one
    A = gen_prob_algebra([F(1, 2), F(1, 2)])
    t = App("meet", (Var("y", "B"), Var("w", "B")), "B")
    assert "'p'" in same_error(A, {}, Quant("sup", "y", "B", Op("min", (ValueVar("p"),
                                                                       Atom("mu", (t,))))))


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
# validate's base pairs: structures valid by construction, and one mutation each

IDENT_J = [["0", "0"], ["1", "1"]]
CONVEX_J = [["0", "0"], ["1/2", "1/4"], ["1", "1"]]  # u(d) >= d/2: the threshold sum holds
CONCAVE_J = [["0", "0"], ["1/3", "1/2"], ["1", "1"]]  # u(d) >= d: the threshold sum fails
LIPSCHITZ = [IDENT_J, CONCAVE_J]  # u(d) >= d, so a 1-Lipschitz symbol is valid under either


def line_structure(rng):
    """Points of a line at 16ths, some coinciding; a second sort T, the line of
    |p - c| over the points p, with an extra point; f: S -> T, p |-> |p - c|, the
    identity g on S; distance-to-a-point predicates (P, Q on T; H at half the
    distance, under the convex modulus) and the distance R(x, y).  C climbs by
    u(gap) from point to point under the concave u, so only pairs with a
    midpoint can violate its modulus."""
    n = rng.randint(3, 7)
    pool = rng.sample(range(17), rng.randint(2, n))
    pos = [rng.choice(pool) for _ in range(n)]
    c, q, q_t = rng.randrange(17), rng.choice(pos), rng.randrange(17)
    tpos = sorted({abs(p - c) for p in pos} | {rng.randrange(17)})
    sig = {"sorts": [{"name": "S", "metric": "d"}, {"name": "T", "metric": "dT"}],
           "functions": [{"name": "f", "arg_sorts": ["S"], "target_sort": "T",
                          "moduli": [rng.choice(LIPSCHITZ)]},
                         {"name": "g", "arg_sorts": ["S"], "target_sort": "S",
                          "moduli": [rng.choice(LIPSCHITZ)]}],
           "predicates": [{"name": "P", "arg_sorts": ["S"], "moduli": [rng.choice(LIPSCHITZ)]},
                          {"name": "H", "arg_sorts": ["S"], "moduli": [CONVEX_J]},
                          {"name": "R", "arg_sorts": ["S", "S"],
                           "moduli": [rng.choice(LIPSCHITZ), rng.choice(LIPSCHITZ)]},
                          {"name": "Q", "arg_sorts": ["T"], "moduli": [rng.choice(LIPSCHITZ)]},
                          {"name": "C", "arg_sorts": ["S"], "moduli": [CONCAVE_J]}]}
    S, T = [f"e{i}" for i in range(n)], [f"t{i}" for i in range(len(tpos))]
    u, line = pl_of(CONCAVE_J).eval, sorted(set(pos))
    climb = {line[0]: F(0)}
    for a, b in itertools.pairwise(line):
        climb[b] = min(F(1), climb[a] + u(F(b - a, 16)))
    return {"signature": sig, "carriers": {"S": S, "T": T},
            "metric": {"S": [[f"{abs(a - b)}/16" for b in pos] for a in pos],
                       "T": [[f"{abs(a - b)}/16" for b in tpos] for a in tpos]},
            "functions": {"f": [T[tpos.index(abs(p - c))] for p in pos], "g": S},
            "predicates": {"P": [f"{abs(p - q)}/16" for p in pos],
                           "H": [f"{abs(p - q)}/32" for p in pos],
                           "R": [[f"{abs(a - b)}/16" for b in pos] for a in pos],
                           "Q": [f"{abs(p - q_t)}/16" for p in tpos],
                           "C": [str(climb[p]) for p in pos]}}


def algebra_structure(rng):
    """A probability algebra on 2-3 atoms with random weights and Lipschitz moduli."""
    weights = [rng.randint(1, 9) for _ in range(rng.randint(2, 3))]
    data = gen_prob_algebra([F(w, sum(weights)) for w in weights]).to_json()
    for decl in data["signature"]["functions"] + data["signature"]["predicates"]:
        decl["moduli"] = [rng.choice(LIPSCHITZ) for _ in decl["moduli"]]
    return data


def move_a_cell(rng, data):
    name = rng.choice(["P", "H", "Q", "C", "f", "g"] if "S" in data["carriers"]
                      else ["mu", "compl", "meet", "join"])
    section = "predicates" if name in data["predicates"] else "functions"
    cells, target = data[section][name], None
    if section == "functions":
        decl = next(d for d in data["signature"]["functions"] if d["name"] == name)
        target = data["carriers"][decl["target_sort"]]
    while isinstance(cells[0], list):
        cells = rng.choice(cells)
    k = rng.randrange(len(cells))
    cells[k] = rng.choice(target) if target else f"{rng.randrange(17)}/16"


def make_a_pair_asymmetric(rng, data):
    sort = rng.choice([s for s in data["carriers"] if len(data["carriers"][s]) > 1])
    i, j = rng.sample(range(len(data["carriers"][sort])), 2)
    data["metric"][sort][i][j] = f"{rng.randrange(17)}/16"


def break_the_target_triangle(rng, data):
    sort = "T" if "T" in data["carriers"] else "B"
    if len(data["carriers"][sort]) > 1:
        i, j = rng.sample(range(len(data["carriers"][sort])), 2)
        data["metric"][sort][i][j] = data["metric"][sort][j][i] = "1"


def test_base_pairs_give_the_reference_report():
    """validate scans only the base pairs of a symmetric metric; valid structures
    and each mutation of them get the reference's report entry for entry."""
    rng = random.Random(25)
    for build in [line_structure, algebra_structure] * 30:
        data = build(rng)
        M = FiniteStructure.from_json(json.loads(json.dumps(data)))
        assert {v.subject for v in validate(M).violations} <= {"C"}
        same_report(M)
        for mutate in (move_a_cell, make_a_pair_asymmetric, break_the_target_triangle):
            changed = json.loads(json.dumps(data))
            mutate(rng, changed)
            same_report(FiniteStructure.from_json(changed))


def test_symmetry_is_a_precondition_of_the_base_pairs():
    """Over 16ths: a midpoint through an asymmetric entry must not certify a pair."""
    def three_points(metric, values):
        return structure(
            Signature([SortDecl("S", "d")], predicates=[PredDecl("P", ("S",), (IDENTITY,))]),
            {"S": ["a", "b", "c"]}, {"S": [[F(d, 16) for d in row] for row in metric]},
            {}, {"P": {(i,): F(v, 16) for i, v in enumerate(values)}})

    M = three_points([[0, 2, 6], [2, 0, 5], [6, 4, 0]], [0, 2, 7])
    assert [(v.kind, v.witnesses, v.detail) for v in validate(M).violations] == [
        ("metric_symmetry", ("b", "c"), "d(x,y) != d(y,x)"),
        ("modulus_predicate", ("a", "c"), "argument 0: change 7/16 > u(d) = 3/8")]
    same_report(M)
    # b's midpoint a lies below b: d(b,a) + d(c,a) = d(b,c), but the scanned pair is (a,b)
    M = three_points([[0, 4, 3], [1, 0, 4], [3, 4, 0]], [4, 0, 7])
    assert [(v.kind, v.witnesses) for v in validate(M).violations] == [
        ("metric_symmetry", ("a", "b")), ("modulus_predicate", ("b", "c"))]
    same_report(M)


# ---------------------------------------------------------------------------
# random structures


def binary_signature():
    return Signature([SortDecl("S", "d")],
                     functions=[FuncDecl("f", ("S",), "S", (IDENTITY,))],
                     predicates=[PredDecl("P", ("S",), (IDENTITY,)),
                                 PredDecl("R", ("S", "S"), (IDENTITY, pl_of(
                                     ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1))))))])


@st.composite
def binary_structures(draw):
    n = draw(st.integers(2, 4))
    quarter = st.sampled_from(QUARTERS)
    if draw(st.booleans()):
        metric = random_metric(random.Random(draw(st.integers(0, 2 ** 16))), n, QUARTERS[1:])
    else:  # any matrix, so every kind of metric violation can occur
        metric = [[draw(quarter) for _ in range(n)] for _ in range(n)]
    return structure(
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
    *head, last = FREE_NAMES
    for ps in itertools.product((F(1, 4), F(2, 3)), repeat=len(VALUE_NAMES)):
        values = dict(zip(VALUE_NAMES, ps))
        prenex_row, scale = compile_row(M, g, [(name, "S") for name in FREE_NAMES], values)
        for prefix in itertools.product(carrier, repeat=len(head)):
            got = [F(v, scale) for v in prenex_row(prefix)]
            env = {**dict(zip(head, prefix)), **values}
            assert got == [eval_formula_reference(M, {**env, last: x}, f) for x in carrier], \
                (f, g)


@given(binary_structures())
def test_random_structures_validate_like_reference(M):
    same_report(M)


# ---------------------------------------------------------------------------
# row kernels: a quantifier's body over a whole row at once

# z (and w, u) are bound; x and y are free, p is a value variable.  Each term
# puts the bound variable at another argument position or depth.
ROW_TERMS = ["z", "meet(z,x)", "meet(x,z)", "join(z,y)", "join(y,z)", "compl(z)",
             "meet(compl(z),x)", "join(meet(x,z),compl(y))", "meet(z,z)", "join(meet(z,y),z)"]
ROW_ATOMS = [f"mu({t})" for t in ROW_TERMS] + [
    "d(z,x)", "d(x,z)", "d(z,z)", "d(meet(z,x),join(y,z))", "d(compl(z),meet(x,y))",
    "d(one,z)", "d(z,zero)"]
# children that do not read z, so a row parent takes each as one value
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
    return structure(
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
                    functions=[FuncDecl("g", ("S", "S", "S"), "S", (IDENTITY,) * 3)],
                    predicates=[PredDecl("T", ("S", "S", "S"), (IDENTITY,) * 3)])
    n = 3
    cube = list(itertools.product(range(n), repeat=3))
    M = structure(
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
    E = build_imaginary(PhiInstance(M, phi, ["x"], ["y"]))
    N, pred = E.expanded, Atom(PRED_NAME, (Var("x", "B"), Var("c", SORT_NAME)))
    for f in (pred, Op("absdiff", (pred, Atom(METRIC_NAME, (Var("c", SORT_NAME),
                                                             Var("c2", SORT_NAME)))))):
        same_rows(N, f, [("c2", SORT_NAME), ("x", "B"), ("c", SORT_NAME)], {})
        same_rows(N, f, [("c2", SORT_NAME), ("c", SORT_NAME), ("x", "B")], {})


@pytest.mark.parametrize("text", [
    "|mu(meet(x,y1)) - d(y2, join(x,y1))|",
    "sup z. |mu(meet(x,z)) - mu(meet(y1,join(z,y2)))|",
    "inf z. max(d(z,y2), mu(meet(x,y1)))",
])
def test_phi_instance_rows_match_fraction_matrix(text):
    M = gen_prob_algebra([F(1, 4), F(1, 4), F(1, 2)])
    phi = parse(text, M.sig)
    inst = PhiInstance(M, phi, ["x"], ["y1", "y2"])
    split = inst.split
    names = [n for n, _ in split.x + split.y]
    want = [[eval_formula_reference(M, dict(zip(names, xt + yt)), phi)
             for yt in tuples_of(M, split.y)] for xt in tuples_of(M, split.x)]
    assert [[F(v, inst.scale) for v in row] for row in inst.num] == want


# ---------------------------------------------------------------------------
# tables: a node that does per-element work keeps its output per value of the
# slots it reads while a variable it does not read changes

# x and y are free, p is a value variable; every other name is bound.
TABLED = [
    # inner rows that ignore an outer variable: mu(meet(x,z)) by x, mu(meet(w,z)) by w
    "sup w. inf z. |mu(meet(x,z)) - mu(meet(w,z))|",
    "inf w. sup z. max(mu(meet(w,z)), d(meet(x,z), y))",
    # a row that reads no slot at all is computed once
    "sup w. inf z. |mu(compl(z)) - mu(meet(w,z))|",
    "sup w. inf z. min(d(z,z), mu(meet(join(w,z),x)))",
    # T_phi shape: a row filled by a quantifier (phi over v) kept per w across u
    "sup u. inf w. sup v. |(sup z. |mu(meet(v,z)) - mu(meet(w,z))|) - mu(meet(v,u))|",
    "sup w. inf u. sup v. |(inf z. d(meet(v,z), join(u,z))) - mu(meet(v,x))|",
    # sup/inf nodes that ignore an enclosing variable
    "sup w. inf u. max(mu(meet(u,w)), sup z. mu(meet(z,x)))",
    "inf w. sup u. |mu(meet(u,w)) - inf z. d(meet(z,u), y)|",
    # a node that reads two slots (v and w) under a loop over u that it ignores
    "sup v. sup w. inf u. sup z. |mu(meet(meet(v,w),z)) - mu(meet(u,z))|",
    "inf v. sup w. inf u. sup z. med 2(mu(meet(v,z)), d(join(w,z), v), mu(meet(u,z)))",
    # shadowed names: each binder of z has its own slot and its own tables
    "sup z. inf w. sup z. |mu(meet(z,w)) - mu(meet(z,x))|",
    "sup z. inf w. max(mu(meet(z,w)), sup z. inf u. d(meet(u,z), w))",
    "sup w. inf z. max(mu(meet(z,w)), sup w. inf z. d(meet(z,w), x))",
    "inf x. sup w. |mu(meet(x,w)) - sup x. mu(meet(x,y))|",
    # med under a quantifier, and value variables
    "sup w. inf z. med 2(mu(meet(x,z)), mu(meet(w,z)), d(z,y))",
    "inf w. sup z. med 3(mu(meet(z,x)), p, mu(compl(z)), d(meet(w,z),y), half mu(z))",
    "sup w. inf z. (mu(meet(x,z)) -. p) +. mu(meet(w,z))",
    "inf w. sup u. min(p, sup z. |mu(meet(u,z)) - half mu(meet(x,z))|)",
    # a quantifier whose body ignores its variable sits between the loops
    "sup w. inf u. sup z. |mu(meet(w,z)) - mu(meet(x,z))|",
]


@pytest.mark.parametrize("weights", [[F(1, 2), F(1, 2)], [F(1, 4), F(1, 4), F(1, 2)]],
                         ids=["4-elements", "8-elements"])
def test_tabled_nodes_match_reference(weights):
    M = gen_prob_algebra(weights)
    carrier = range(M.sizes["B"])
    for text in TABLED:
        f = parse(text, M.sig)
        names = sorted(n for n, s in free_vars(f) if s == "B")  # x, y or both, if read
        for values in itertools.product(carrier, repeat=len(names)):
            same_value(M, {**dict(zip(names, values)), "p": F(2, 5)}, f)


def test_tables_hold_across_calls_in_any_order():
    """compile_row's prefix slots change between calls, in whatever order they come.

    Each formula has a node that reads both x and y under a loop over u that
    it ignores, so it keeps only its last output; a key without one of x, y
    returns a stale one when only that slot has changed since.  The row runs
    over r, which the formula reads beside that node or not at all.
    """
    M = gen_prob_algebra([F(1, 4), F(1, 4), F(1, 2)])
    carrier = range(M.sizes["B"])
    pairs = list(itertools.product(carrier, repeat=2))
    random.Random(13).shuffle(pairs)
    for text in ["inf u. sup z. |mu(meet(meet(x,y),z)) - mu(meet(u,z))|",
                 "sup u. |(inf z. d(meet(x,z), join(y,z))) - mu(meet(u,x))|",
                 "sup u. inf z. med 2(mu(meet(join(x,z),y)), mu(meet(u,z)), p)"]:
        for wrapped in (text, f"max(mu(meet(r,x)), {text})"):
            f = parse(wrapped, M.sig)
            row, scale = compile_row(M, f, [("x", "B"), ("y", "B"), ("r", "B")], {"p": F(2, 5)})
            for x, y in pairs + pairs[::-1]:
                env = {"x": x, "y": y, "p": F(2, 5)}
                assert [F(v, scale) for v in row((x, y))] == [
                    eval_formula_reference(M, {**env, "r": r}, f) for r in carrier], (wrapped, x, y)


def test_tabled_rows_across_calls_match_reference():
    """Tables live for one compile, so they span the calls of one row closure."""
    M = gen_prob_algebra([F(1, 4), F(3, 4)])
    B = "B"
    variables = [("v", B), ("w", B), ("x", B), ("y", B)]
    for text in ["sup z. |mu(meet(meet(v,w),z)) - mu(meet(x,join(y,z)))|",  # reads v and w
                 "inf z. max(mu(meet(v,z)), d(meet(y,z), x))",
                 "mu(meet(meet(w,x),y)) +. (sup z. mu(meet(y,z)))",
                 "sup u. |mu(meet(meet(u,v),y)) - inf z. mu(meet(z,w))|"]:
        same_rows(M, parse(text, M.sig), variables, {})


class CountingCells(list):
    """Table cells that count their single-element reads; slices are not counted."""

    reads = 0

    def __getitem__(self, i):
        if type(i) is int:
            self.reads += 1
        return super().__getitem__(i)


def counting_measure(M):
    """M with its `mu` table read through CountingCells, and those cells."""
    den, cells = M.predicate_table["mu"]
    counted = CountingCells(cells)
    tables = {**M.predicate_table, "mu": ScaledTable(den, counted)}
    return FiniteStructure(M.sig, M.carriers, M.metric_table, M.function_table,
                           tables), counted


SUP_PHI = "sup z. |mu(meet(x,z)) - mu(meet(y,z))|"


def test_tables_build_each_row_once():
    """The sup-phi's rows mu(meet(x,z)) and mu(meet(y,z)) are built once per x and per y."""
    M, counted = counting_measure(gen_prob_algebra([F(1, 4), F(1, 4), F(1, 2)]))
    n = M.sizes["B"]
    phi = parse(SUP_PHI, M.sig)
    inst = PhiInstance(M, phi, ["x"], ["y"])
    assert counted.reads == 2 * n * n  # without tables: one of each per (x, y), 2 * n**3
    E = build_imaginary(inst)
    counted.reads = 0
    for _, sentence in tphi_sentences(E):
        assert eval_formula(E.expanded, {}, sentence) == 0
    # sentences 2 and 3 each build the two rows at most once per x and per y
    assert counted.reads <= 4 * n * n


def sup_phi_algebra(k):
    return gen_prob_algebra([F(w, sum(range(5, 5 + k))) for w in range(5, 5 + k)])


@pytest.mark.parametrize("k", [3, 4, 5])
def test_tphi_sentences_vanish_for_the_sup_phi(k):
    M = sup_phi_algebra(k)
    phi = parse(SUP_PHI, M.sig)
    E = build_imaginary(PhiInstance(M, phi, ["x"], ["y"]))
    for _, sentence in tphi_sentences(E):
        if k == 3:
            assert same_value(E.expanded, {}, sentence) == 0
        else:
            assert eval_formula(E.expanded, {}, sentence) == 0


# ---------------------------------------------------------------------------
# term rows: a quantifier whose body reads its variable y only inside one
# function term t runs its row over the distinct values of t

# x and z are free, p is a value variable; every other name is bound.
TERM_ROWS = [
    "inf y. |mu(meet(y,x)) - half mu(x)|",
    "sup x. inf y. |mu(meet(y,x)) - half mu(x)|",  # the binder hides the free x
    "sup y. mu(meet(x,y)) -. p",
    "inf y. p -. mu(compl(y))",
    "sup y. half mu(meet(y,x)) +. p",
    "inf y. min(1/3, mu(meet(y,x)))",
    "sup y. max(mu(meet(y,x)), half p)",
    "inf y. med 2(mu(meet(x,y)), p, half mu(x))",
    "sup y. med 3(mu(meet(y,x)), p, half mu(meet(y,x)), not mu(meet(y,x)), 1/4)",
    "inf y. max(mu(meet(y,x)), d(meet(y,x), z))",  # two lookups through t
    "sup y. |d(meet(y,x), meet(y,x)) - half half mu(meet(y,x))|",  # t in both arguments
    "inf y. mu(join(meet(y,x), z))",  # t reads two free variables
    "sup y. mu(meet(y, one))",
    "inf y. (sup w. mu(meet(w,z))) -. mu(meet(y,x))",  # a quantifier that ignores y
    "sup y. max(mu(meet(y,x)), sup y. d(y,x))",  # the inner y is another variable
    "sup y. |mu(meet(y,x)) - inf x. mu(meet(x,z))|",  # t's x is free, the inner x bound
]
# bodies that keep the carrier row; under sup, a row over the values of
# meet(y,x) alone would miss the y outside x in the first two
CARRIER_ROWS = [f"{q} y. {body}" for q in ("sup", "inf") for body in [
    "max(mu(meet(y,x)), d(y,x))",  # y also bare
    "|mu(meet(y,x)) - mu(join(y,x))|",  # y in two different terms
    "min(mu(meet(y,x)), inf w. d(meet(y,x), w))",  # t inside a nested quantifier
    "sup w. mu(meet(y,w))",  # t reads a variable bound inside the body
    "max(mu(meet(y,x)), inf x. mu(meet(y,x)))",  # the same term, its x bound inside
]]


@pytest.mark.parametrize("atoms", [2, 3, 4, 5, 6])
def test_term_rows_match_reference(atoms):
    rng = random.Random(atoms)
    weights = [rng.randint(1, 9) for _ in range(atoms)]
    M = gen_prob_algebra([F(w, sum(weights)) for w in weights])
    pairs = list(itertools.product(range(M.sizes["B"]), repeat=2))
    pairs = rng.sample(pairs, min(len(pairs), 12))
    for text in TERM_ROWS + CARRIER_ROWS:
        f = parse(text, M.sig)
        for x, z in pairs:
            same_value(M, {"x": x, "z": z, "p": F(3, 7)}, f)


def test_term_row_reads_each_distinct_value_once():
    """inf y. mu(meet(y,x)) reads mu once per value of meet(y,x): 2^|x| times, not 8."""
    M, counted = counting_measure(gen_prob_algebra([F(1, 3)] * 3))
    term_row = parse("inf y. mu(meet(y,x))", M.sig)
    carrier_row = parse("inf y. max(mu(meet(y,x)), d(y,x))", M.sig)  # y also bare
    for x in range(M.sizes["B"]):
        counted.reads = 0
        assert eval_formula(M, {"x": x}, term_row) == 0
        assert counted.reads == 2 ** bin(x).count("1")
        counted.reads = 0
        eval_formula(M, {"x": x}, carrier_row)
        assert counted.reads == 8
