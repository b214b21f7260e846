"""Parser, printer, prenex shape, free variables, modulus inference."""

import copy
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contlogic.errors import (
    ContlogicError,
    DomainError,
    GrammarError,
    SortMismatchError,
    StructuralError,
    UnknownSymbolError,
)
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
    children,
    free_vars,
    infer_modulus,
    nodes,
    parse,
    prenex,
    print_formula,
    rebuild,
    rename_var,
)
from contlogic.structures import env_from_names, eval_formula, validate
from oracles import (
    Condition,
    expand_condition,
    fraction_tables,
    gen_halfgraph,
    gen_prob_algebra,
    is_prenex,
    parse_reference,
    structure,
)


def simple_sig():
    return Signature(
        [SortDecl("S", "d")],
        functions=[FuncDecl("g", ("S",), "S", (IDENTITY,))],
        predicates=[
            PredDecl("P", ("S",), (IDENTITY,)),
            PredDecl("Q", ("S",), (IDENTITY,)),
            PredDecl("R", ("S", "S"), (IDENTITY, IDENTITY)),
        ],
    )


def pra_like_sig():
    return Signature(
        [SortDecl("B", "d")],
        functions=[
            FuncDecl("zero", (), "B", ()),
            FuncDecl("one", (), "B", ()),
            FuncDecl("compl", ("B",), "B", (IDENTITY,)),
            FuncDecl("meet", ("B", "B"), "B", (IDENTITY, IDENTITY)),
            FuncDecl("join", ("B", "B"), "B", (IDENTITY, IDENTITY)),
        ],
        predicates=[PredDecl("mu", ("B",), (IDENTITY,))],
    )


def test_parse_simple_quantifier():
    sig = simple_sig()
    f = parse("sup x. P(x)", sig)
    assert f == Quant("sup", "x", "S", Atom("P", (Var("x", "S"),)))


def test_parse_monus_const():
    sig = simple_sig()
    f = parse("P(x) -. 1/4", sig)
    assert f == Op("monus", (Atom("P", (Var("x", "S"),)), Const(F(1, 4))))


def test_parse_apa_matrix_subformula():
    sig = pra_like_sig()
    f = parse("inf y. |mu(meet(x,y)) - half(mu(x))|", sig)
    assert isinstance(f, Quant) and f.kind == "inf"
    body = f.body
    assert isinstance(body, Op) and body.op == "absdiff"
    left, right = body.args
    assert isinstance(left, Atom) and left.pred == "mu"
    assert left.args[0].func == "meet"
    assert right == Op("half", (Atom("mu", (Var("x", "B"),)),))


def test_parse_errors_are_distinct():
    sig = simple_sig()
    with pytest.raises(GrammarError):
        parse("sup x P(x)", sig)
    with pytest.raises(UnknownSymbolError):
        parse("Nope(x)", sig)
    with pytest.raises(SortMismatchError):
        parse("R(x)", sig)
    with pytest.raises(GrammarError):
        parse("P(x) )", sig)


def test_bound_variable_may_not_be_a_function_symbol():
    # `inf zero. mu(compl(zero))` would read zero as the constant, giving 1 instead of 0
    sig = pra_like_sig()
    for text in ("inf zero. mu(compl(zero))", "sup compl. mu(x)"):
        with pytest.raises(GrammarError):
            parse(text, sig)


def test_free_vars():
    sig = simple_sig()
    assert free_vars(parse("sup x. R(x,y)", sig)) == {("y", "S")}
    assert free_vars(parse("P(x) -. Q(x)", sig)) == {("x", "S")}
    assert free_vars(parse("1/2", sig)) == set()


def test_nodes_children_and_rebuild():
    """The walker covers terms: an atom's and a function's argument terms are children."""
    x = Var("x", "S")
    gx = App("g", (x,), "S")
    p = Atom("P", (gx,))
    shared = Op("half", (p,))
    q = Quant("sup", "x", "S", shared)
    f = Op("med", (shared, q, Const(F(1, 2))), 2)
    assert [children(g) for g in (x, gx, p, shared, q, f)] == [
        (), (x,), (gx,), (p,), (shared,), f.args]
    assert nodes(f) == [x, gx, p, shared, q, Const(F(1, 2)), f]  # each once, children first
    assert rebuild(q, [p]) == Quant("sup", "x", "S", p)
    assert rebuild(p, [x]) == Atom("P", (x,)) and rebuild(gx, [gx]) == App("g", (gx,), "S")
    assert rebuild(f, f.args) == f and rebuild(x, []) is x


@pytest.mark.parametrize("f", [
    Op("neg", ("x",)),
    Quant("sup", "x", "S", "x"),
    Op("max", (Atom("P", (Var("x", "S"),)), Quant("inf", "y", "S", Op("half", ("x",))))),
])
def test_a_non_formula_node_raises_structural_error(f):
    sig = simple_sig()
    M = structure(sig, {"S": ["a", "b"]}, {"S": [[F(0), F(1)], [F(1), F(0)]]},
                  {"g": {(0,): 1, (1,): 0}},
                  {"P": {(0,): F(0), (1,): F(1)}, "Q": {(0,): F(1), (1,): F(0)},
                         "R": {(i, j): F(i * j) for i in range(2) for j in range(2)}})
    calls = [lambda: free_vars(f), lambda: rename_var(f, "x", "z"), lambda: prenex(f),
             lambda: infer_modulus(f, sig, "x"), lambda: print_formula(f, sig),
             lambda: eval_formula(M, {"x": 0}, f), lambda: nodes(f)]
    for call in calls:
        with pytest.raises(StructuralError, match="not a formula: 'x'"):
            call()


def test_round_trip_on_samples():
    sig = pra_like_sig()
    texts = [
        "sup x. inf y. |mu(meet(y,x)) - half mu(x)|",
        "mu(x) -. 1/4 +. half mu(join(x,y))",
        "not half (mu(x) -. mu(y))",
        "min(mu(x), max(mu(y), 1/2))",
        "med 2(mu(x), mu(y), d(x,y))",
        "sup x. (inf y. mu(meet(x,y))) -. mu(x)",
    ]
    for text in texts:
        f = parse(text, sig)
        assert parse(print_formula(f, sig), sig) == f


def test_round_trip_generated(depth=5):
    sig = simple_sig()
    rng = random.Random(41)
    for _ in range(300):
        f = random_formula(rng, sig, depth)
        assert parse(print_formula(f, sig), sig) == f


def random_formula(rng, sig, depth, scope=()):
    if depth == 0 or (rng.random() < 0.25 and scope):
        choice = rng.randrange(3)
        if choice == 0 or not scope:
            return Const(F(rng.randrange(0, 5), 4))
        v = rng.choice(scope)
        if choice == 1:
            return Atom("P", (Var(v, "S"),))
        return Atom("R", (Var(v, "S"), Var(rng.choice(scope), "S")))
    kind = rng.randrange(6)
    if kind == 0:
        name = f"v{len(scope)}"
        return Quant(rng.choice(["sup", "inf"]), name, "S",
                     random_formula(rng, sig, depth - 1, scope + (name,)))
    if kind == 1:
        return Op("neg", (random_formula(rng, sig, depth - 1, scope),))
    if kind == 2:
        return Op("half", (random_formula(rng, sig, depth - 1, scope),))
    op = rng.choice(["monus", "plus_trunc", "min", "max", "absdiff"])
    return Op(op, (random_formula(rng, sig, depth - 1, scope),
                   random_formula(rng, sig, depth - 1, scope)))


def two_sorted_sig():
    return Signature(
        [SortDecl("A", "dA"), SortDecl("B", "dB")],
        functions=[FuncDecl("a0", (), "A", ()), FuncDecl("f", ("A",), "B", (IDENTITY,))],
        predicates=[PredDecl("P", ("A",), (IDENTITY,)),
                    PredDecl("R", ("A", "B"), (IDENTITY, IDENTITY))],
    )


# variable names that collide with each other (shadowing) and with symbol names
VAR_NAMES = ("x", "y", "mu", "d", "dA")
VALUE_NAMES = ("x", "t", "zero", "mu", "f")


@st.composite
def terms(draw, sig, sort, scope, depth):
    """A term of the given sort over the variables in scope (name -> sort)."""
    names = [n for n, s in scope.items() if s == sort]
    funcs = [d for d in sig.functions.values() if d.target == sort and (depth or not d.arg_sorts)]
    options = [("var", n) for n in names] + [("fn", d) for d in funcs]
    kind, choice = draw(st.sampled_from(options))
    if kind == "var":
        return Var(choice, sort)
    args = tuple(draw(terms(sig, s, scope, depth - 1)) for s in choice.arg_sorts)
    return App(choice.name, args, choice.target)


@st.composite
def formulas(draw, sig, scope, depth):
    """Formulas whose sorts are resolved the way `parse` resolves them."""
    leaves = ["const", "value", "atom"]
    kind = draw(st.sampled_from(leaves if depth == 0 else
                                leaves + ["quant", "quant", "neg", "half", "binary", "med"]))
    if kind == "const":
        return Const(F(draw(st.integers(0, 8)), 8))
    if kind == "value":
        return ValueVar(draw(st.sampled_from(VALUE_NAMES)))
    if kind == "atom":
        preds = [sig.pred_decl(name) for name in [*sig.predicates, *sig.metric_sort]]
        decl = draw(st.sampled_from(preds))
        return Atom(decl.name, tuple(draw(terms(sig, s, scope, 2)) for s in decl.arg_sorts))
    if kind == "quant":
        var = draw(st.sampled_from(VAR_NAMES))
        sort = draw(st.sampled_from(sig.sort_names))
        body = draw(formulas(sig, {**scope, var: sort}, depth - 1))
        return Quant(draw(st.sampled_from(["sup", "inf"])), var, sort, body)
    if kind in ("neg", "half"):
        return Op(kind, (draw(formulas(sig, scope, depth - 1)),))
    if kind == "binary":
        op = draw(st.sampled_from(["monus", "plus_trunc", "min", "max", "absdiff"]))
        return Op(op, tuple(draw(formulas(sig, scope, depth - 1)) for _ in range(2)))
    n = draw(st.integers(1, 2))
    return Op("med", tuple(draw(formulas(sig, scope, depth - 1)) for _ in range(2 * n - 1)), n)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(["one sort", "two sorts"]), st.data())
def test_print_parse_round_trip_property(which, data):
    sig = pra_like_sig() if which == "one sort" else two_sorted_sig()
    # each free variable name keeps one sort, so parse can infer it from its positions
    free = {"x": sig.sort_names[0], "y": sig.sort_names[-1], "mu": sig.sort_names[0]}
    f = data.draw(formulas(sig, free, 4))
    assert parse(print_formula(f, sig), sig) == f


def test_prenex_shapes():
    sig = simple_sig()
    f = prenex(parse("not (sup x. P(x))", sig))
    assert isinstance(f, Quant) and f.kind == "inf"
    assert isinstance(f.body, Op) and f.body.op == "neg"

    f = prenex(parse("(sup x. P(x)) -. 1/4", sig))
    assert isinstance(f, Quant) and f.kind == "sup"

    f = prenex(parse("1/4 -. (sup x. P(x))", sig))
    assert isinstance(f, Quant) and f.kind == "inf"

    for text in [
        "sup x. (inf y. R(x,y)) -. P(x)",
        "not (sup x. P(x) +. (inf y. Q(y)))",
        "half (sup x. half (inf y. R(x,y)))",
        "|sup x. P(x) - inf y. Q(y)|",
    ]:
        g = prenex(parse(text, sig))
        assert is_prenex(g)
        assert {s for _, s in free_vars(g)} <= {"S"}


def test_prenex_free_vars_preserved():
    sig = simple_sig()
    for text in ["(sup x. R(x,y)) -. P(z)", "not (inf x. R(x,y))"]:
        f = parse(text, sig)
        assert free_vars(prenex(f)) == free_vars(f)


def test_prenex_fresh_names_avoid_free_and_bound_names():
    M = gen_halfgraph(2)
    f = parse("sup x. phi(x, q1)", M.sig)
    g = prenex(f)
    assert print_formula(g, M.sig) == "sup q2. phi(q2, q1)"
    env = env_from_names(M, {"q1": "b0"}, f)
    assert eval_formula(M, env, g) == eval_formula(M, env, f) == 1

    sig = simple_sig()
    f = parse("(sup q2. R(q2, q1)) -. (inf x. R(x, q3))", sig)
    g = prenex(f)
    assert free_vars(g) == free_vars(f)
    assert print_formula(g, sig) == "sup q4. sup q5. R(q4, q1) -. R(q5, q3)"


def test_infer_modulus_rules():
    sig = simple_sig()
    f = parse("P(x)", sig)
    assert infer_modulus(f, sig, "x") == IDENTITY

    f = parse("P(x) -. P(x)", sig)
    u = infer_modulus(f, sig, "x")
    assert u.eval(F(1, 4)) == F(1, 2)
    assert u.eval(F(3, 4)) == 1

    f = parse("half P(x)", sig)
    u = infer_modulus(f, sig, "x")
    assert u.eval(F(1, 2)) == F(1, 4)

    f = parse("sup y. R(y,x)", sig)
    assert infer_modulus(f, sig, "x") == IDENTITY

    with pytest.raises(StructuralError):
        infer_modulus(parse("P(x)", sig), sig, "y")


def test_infer_modulus_soundness_on_validated_structures():
    """Inferred moduli bound the value change under moving one free variable.

    Exhaustive over all pairs of carrier elements substituted for the
    variable, on structures that pass the axiom validator.
    """
    algebra = gen_prob_algebra([F(1, 4), F(3, 4)])
    halfgraph = gen_halfgraph(3)
    assert validate(algebra).valid and validate(halfgraph).valid
    cases = [
        (algebra, "mu(meet(x,y))", "x", {"y"}),
        (algebra, "mu(join(x,compl(x)))", "x", set()),
        (algebra, "half mu(x) +. mu(meet(x,y))", "x", {"y"}),
        (algebra, "sup z. |mu(meet(x,z)) - mu(meet(y,z))|", "x", {"y"}),
        (halfgraph, "phi(x,y) -. phi(y,x)", "x", {"y"}),
    ]
    for M, text, var, others in cases:
        f = parse(text, M.sig)
        u = infer_modulus(f, M.sig, var)
        sorts = dict(free_vars(f))
        sort = sorts[var]
        metric = fraction_tables(M).metric
        pools = {o: range(len(M.carriers[sorts[o]])) for o in others}
        import itertools

        for combo in itertools.product(*pools.values()):
            env = dict(zip(pools.keys(), combo))
            n = len(M.carriers[sort])
            for z in range(n):
                for w in range(n):
                    vz = eval_formula(M, {**env, var: z}, f)
                    vw = eval_formula(M, {**env, var: w}, f)
                    assert abs(vz - vw) <= u.eval(metric[sort][z][w])


def test_expand_condition():
    sig = simple_sig()
    p = parse("P(x)", sig)
    c = Condition(p, "le", F(1, 4))
    assert expand_condition(c) == Op("monus", (p, Const(F(1, 4))))
    c = Condition(p, "ge", F(0))
    assert expand_condition(c) == Op("monus", (Const(F(0)), p))
    c = Condition(p, "eq0")
    assert expand_condition(c) == p
    with pytest.raises(StructuralError):
        Condition(p, "le", F(1, 3))


def test_multisort_annotations():
    sig = Signature(
        [SortDecl("A", "d_A"), SortDecl("B", "d_B")],
        predicates=[PredDecl("across", ("A", "B"), (IDENTITY, IDENTITY))],
    )
    f = parse("sup x. inf y. across(x, y)", sig)
    assert f.sort == "A" and f.body.sort == "B"
    text = print_formula(f, sig)
    assert ":A" in text and ":B" in text
    assert parse(text, sig) == f
    with pytest.raises(SortMismatchError):
        parse("d_A(x, y) -. d_B(x, y)", sig)
    with pytest.raises(SortMismatchError):
        parse("sup x. d_A(x, x) -. d_B(x, x)", sig)
    # a binder of the same name starts a new variable, of its own sort
    f = parse("max(d_A(x, x), sup x. inf y. across(y, x))", sig)
    assert free_vars(f) == {("x", "A")} and f.args[1].sort == "B"



def arity_sig():
    """Two sorts, so a free variable gets its sort only from the position it stands in."""
    return Signature(
        [SortDecl("A", "dA"), SortDecl("B", "dB")],
        functions=[FuncDecl("f", ("A",), "B", (IDENTITY,)), FuncDecl("c", (), "A", ())],
        predicates=[PredDecl("P", ("A", "B"), (IDENTITY, IDENTITY))],
    )


@pytest.mark.parametrize("text, message", [
    ("sup x. sup y. P(x, f(y, z))", "f expects 1 arguments, got 2"),
    ("sup x. sup y. P(x, f(y, z:A))", "f expects 1 arguments, got 2"),
    ("sup x. P(x, f(x, x))", "f expects 1 arguments, got 2"),
    ("dA(c(x), c)", "c expects 0 arguments, got 1"),
    ("dA(c(x:A), c)", "c expects 0 arguments, got 1"),
])
def test_function_arity_is_reported_before_sort_inference(text, message):
    """An argument past a function's arity is an arity error, not an unsortable variable."""
    with pytest.raises(SortMismatchError) as err:
        parse(text, arity_sig())
    assert str(err.value) == message

def test_nodes_are_immutable_values_of_one_class():
    """Nodes of one class with equal fields are equal and hash alike; nodes of two
    classes with the same field shapes are not equal; a field cannot be set; the
    repr names the fields; a copy or a pickle round trip is an equal node."""
    x = Var("x", "S")
    same_shape = [(App("f", (x,)), Op("f", (x,))), (Atom("P", (x,)), App("P", (x,))),
                  (Var("t"), ValueVar("t"))]
    for a, b in same_shape:
        assert a != b and b != a
    f = Quant("sup", "x", "S", Op("min", (Atom("P", (x,)), Const(F(1, 3)))))
    g = Quant("sup", "x", "S", Op("min", (Atom("P", (Var("x", "S"),)), Const(F(1, 3)))))
    assert f == g and hash(f) == hash(g) and f is not g
    assert hash(x) == hash(("x", "S")) and hash(Const(F(1, 3))) == hash((F(1, 3),))
    assert Op("min", (x, x)) != Op("max", (x, x))
    assert repr(x) == "Var(name='x', sort='S')"
    assert repr(Op("med", (x,), 1)) == "Op(op='med', args=(Var(name='x', sort='S'),), n=1)"
    for node in (x, f):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            node.sort = "T"
        with pytest.raises(AttributeError, match="cannot delete field"):
            del node.sort
    assert x.sort == "S"
    for node in (x, f, IDENTITY, SortDecl("S", "d")):
        assert copy.copy(node) == node == copy.deepcopy(node) == pickle.loads(pickle.dumps(node))
    assert copy.deepcopy(IDENTITY) == IDENTITY and copy.deepcopy(IDENTITY) is not IDENTITY


def tree_copy(f):
    """The same formula with no node shared: every occurrence is its own object."""
    if isinstance(f, Op):
        return Op(f.op, tuple(tree_copy(a) for a in f.args), f.n)
    if isinstance(f, Quant):
        return Quant(f.kind, f.var, f.sort, tree_copy(f.body))
    if isinstance(f, Atom):
        return Atom(f.pred, f.args)
    if isinstance(f, Const):
        return Const(f.value)
    return ValueVar(f.name)


def test_print_formula_on_a_shared_graph_matches_its_tree_copy():
    sig = simple_sig()
    levels = [
        lambda x: Op("monus", (x, Op("neg", (x,)))),
        lambda x: Op("plus_trunc", (Op("half", (x,)), x)),
        lambda x: Op("min", (x, x)),
        lambda x: Quant("sup", "x", "S", Op("absdiff", (x, x))),
        lambda x: Op("max", (x, Op("monus", (Const(F(1, 3)), x)))),
        lambda x: Op("med", (x, Op("half", (x,)), x), 2),
    ]
    node = Op("monus", (Atom("P", (Var("x", "S"),)), ValueVar("t0")))
    size = 3  # written-out nodes; each level at least doubles it
    for k in range(12):
        node = levels[k % len(levels)](node)
        size = {0: 2 * size + 2, 1: 2 * size + 2, 2: 2 * size + 1,
                3: 2 * size + 2, 4: 2 * size + 3, 5: 3 * size + 2}[k % len(levels)]
    assert size >= 2 ** 14
    tree = tree_copy(node)
    text = print_formula(node, sig)
    # booleans: pytest's diff of two mismatched texts this long takes minutes
    same_text = text == print_formula(tree, sig)
    assert same_text
    round_trip = parse(text, sig) == tree
    assert round_trip


# ---------------------------------------------------------------------------
# The one-pass parser against the staged reference


def one_sort_sig():
    return Signature(
        [SortDecl("S", "d")],
        functions=[FuncDecl("c", (), "S", ()), FuncDecl("g", ("S",), "S", (IDENTITY,)),
                   FuncDecl("h", ("S", "S"), "S", (IDENTITY, IDENTITY))],
        predicates=[PredDecl("P", ("S",), (IDENTITY,)), PredDecl("R", ("S", "S"), (IDENTITY, IDENTITY)),
                    PredDecl("Z", (), ())],
    )


def two_sort_sig():
    return Signature(
        [SortDecl("A", "dA"), SortDecl("B", "dB")],
        functions=[FuncDecl("a0", (), "A", ()), FuncDecl("f", ("A",), "B", (IDENTITY,)),
                   FuncDecl("k", ("B", "A"), "A", (IDENTITY, IDENTITY))],
        predicates=[PredDecl("P", ("A",), (IDENTITY,)), PredDecl("Q", ("B",), (IDENTITY,)),
                    PredDecl("R", ("A", "B"), (IDENTITY, IDENTITY)), PredDecl("Z", (), ())],
    )


def random_formula_text(rng, sig, depth=3) -> str:
    """Formula text over sig: annotations (some at a wrong sort), shadowing binders,
    unused binders, 0-ary symbols, and now and then a wrong arity or target."""
    sorts = sig.sort_names

    def var():
        name = rng.choice("xyz")
        return f"{name}:{rng.choice(sorts)}" if rng.random() < 0.2 else name

    def arity(n):
        return max(n + rng.choice([-1, 1]), 0) if rng.random() < 0.05 else n

    def args(n, depth):
        return "(" + ", ".join(term(depth - 1) for _ in range(n)) + ")" if n else ""

    def term(depth):
        if depth <= 0 or rng.random() < 0.5:
            return var()
        decl = rng.choice(list(sig.functions.values()))
        return decl.name + args(arity(len(decl.arg_sorts)), depth)

    def formula(depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            if rng.random() < 0.1:
                return rng.choice(["1/2", "0", "1", "t"])
            decl = sig.pred_decl(rng.choice([*sig.predicates, *sig.metric_sort]))
            return decl.name + args(arity(len(decl.arg_sorts)), 3)
        if r < 0.55:
            return f"{rng.choice(['sup', 'inf'])} {var()}. {formula(depth - 1)}"
        if r < 0.65:
            return f"{rng.choice(['not', 'half'])} {formula(depth - 1)}"
        if r < 0.85:
            return f"({formula(depth - 1)} {rng.choice(['-.', '+.'])} {formula(depth - 1)})"
        if r < 0.95:
            return f"{rng.choice(['min', 'max'])}({formula(depth - 1)}, {formula(depth - 1)})"
        return f"|{formula(depth - 1)} - {formula(depth - 1)}|"

    return formula(depth)


def parse_outcome(parser, text, sig):
    """The parsed tree, or the error class and message."""
    try:
        return parser(text, sig)
    except ContlogicError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("sig", [one_sort_sig(), two_sort_sig()], ids=["one-sort", "two-sort"])
def test_parse_matches_the_staged_reference_on_random_texts(sig):
    rng = random.Random(20261020)
    accepted = rejected = 0
    for _ in range(2500):
        text = random_formula_text(rng, sig)
        want = parse_outcome(parse_reference, text, sig)
        got = parse_outcome(parse, text, sig)
        if isinstance(want, tuple):
            assert isinstance(got, tuple), (text, want)
            rejected += 1
        else:
            assert got == want, text
            accepted += 1
    assert accepted > 500 and rejected > 500


# one text per message `parse` can give, each with one fault
SINGLE_FAULTS = [
    ("one", "sup x P(x)"),
    ("one", "P(x) )"),
    ("one", "P(x"),
    ("one", "P(x) # 1"),
    ("one", "med 0(P(x))"),
    ("one", "1/0"),
    ("one", "sup not. P(x)"),
    ("one", "sup X. P(x)"),
    ("one", "sup g. P(x)"),
    ("one", "|P(x) , P(x)|"),
    ("one", "2"),
    ("one", "med 2(P(x), Z)"),
    ("one", "Nope(x)"),
    ("one", "P(nope(x))"),
    ("one", "P(x:C)"),
    ("one", "sup x:C. P(x)"),
    ("one", "P(X)"),
    ("one", "Nope"),
    ("one", "R(x)"),
    ("one", "R(x, y, z)"),
    ("one", "sup x. P(g(x, x))"),
    ("one", "P(c(x))"),
    ("one", "P(h)"),
    ("one", "g(x)"),
    ("two", "Q(a0)"),
    ("two", "sup x. P(f(x))"),
    ("two", "R(x, k(f(x), a0))"),
    ("two", "P(x) -. Q(x)"),
    ("two", "sup x. R(x, x)"),
    ("two", "sup x:B. P(x)"),
    ("two", "P(x:B)"),
    ("two", "inf y. P(x:A) -. Q(y:A)"),
    ("two", "sup y. P(x)"),
    ("two", "sup y. sup y:A. P(y)"),
    ("two", "P(x) -. sup x:B. Q(x) -. P(x)"),
]


@pytest.mark.parametrize("which, text", SINGLE_FAULTS)
def test_a_single_fault_gives_the_reference_message(which, text):
    sig = one_sort_sig() if which == "one" else two_sort_sig()
    want = parse_outcome(parse_reference, text, sig)
    assert isinstance(want, tuple), text
    assert parse_outcome(parse, text, sig) == want


def test_two_annotations_of_a_free_name_conflict_like_its_uses():
    text = "P(x:A) -. Q(x:B)"
    assert parse_outcome(parse_reference, text, two_sort_sig()) == (
        SortMismatchError, "variable 'x' annotated at two sorts")
    assert parse_outcome(parse, text, two_sort_sig()) == (
        SortMismatchError, "variable 'x' used at sorts ['A', 'B']")


def test_the_first_free_name_in_order_is_reported_under_every_hash_seed():
    script = ("from contlogic.language import *\n"
              "sig = Signature([SortDecl('A', 'dA'), SortDecl('B', 'dB')], predicates=["
              "PredDecl('P', ('A',), (IDENTITY,)), "
              "PredDecl('Q', ('B',), (IDENTITY,))])\n"
              "try:\n"
              "    parse('P(x:A) -. Q(x:B) -. P(y:A) -. Q(y:B)', sig)\n"
              "except Exception as exc:\n"
              "    print(exc)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    messages = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               check=True, env={**os.environ, "PYTHONPATH": src,
                                                "PYTHONHASHSEED": str(seed)}).stdout
                for seed in range(4)}
    assert messages == {"variable 'x' used at sorts ['A', 'B']\n"}


def test_int_literals_are_decimal_digits_that_int_reads():
    """A decimal digit of any script is a digit; a literal past the digits
    int() converts is a grammar error at the literal (tests/test_cli_fuzz.py
    runs the other literals int() rejects through the CLI)."""
    assert parse("P(x) -. ١/٢", one_sort_sig()).args[1] == Const(F(1, 2))
    with pytest.raises(GrammarError, match=r"^integer literal too long \(at position 4\)$"):
        parse("med " + "1" * 5000 + "(P(x))", one_sort_sig())


@pytest.mark.parametrize("text, error, message", [
    ("P(x) # 1", GrammarError, "unexpected character '#' (at position 5)"),
    ("sup x P(x)", GrammarError, "expected '.', found 'P' (at position 6)"),
    ("P(x) )", GrammarError, "trailing input ')' (at position 5)"),
    ("sup X. P(x)", GrammarError, "variable 'X' must start lowercase (at position 4)"),
    ("sup not. P(x)", GrammarError, "keyword 'not' cannot be a variable (at position 4)"),
    ("sup g. P(x)", GrammarError, "function symbol 'g' cannot be a variable (at position 4)"),
    ("med 0(P(x))", GrammarError, "med arity parameter must be >= 1 (at position 0)"),
    ("1/0", GrammarError, "zero denominator (at position 0)"),
    ("P(x) -. ,", GrammarError, "unexpected token ',' (at position 8)"),
    # a text error comes before the sort error held earlier in the text
    ("P(x) -. Q(x) )", GrammarError, "trailing input ')' (at position 13)"),
    # a digit or letter of any script: "²" is alphanumeric but not a letter
    ("²x", GrammarError, "unexpected character '²' (at position 0)"),
    ("٣", DomainError, "value 3 outside [0,1]"),
    ("x\u00a0y", GrammarError, "trailing input 'y' (at position 2)"),
], ids=["character", "expected", "trailing", "uppercase", "keyword", "function-symbol",
        "med-0", "zero-denominator", "token", "text-error-first", "superscript-first",
        "arabic-indic-digit", "no-break-space"])
def test_parse_reports_each_fault_with_its_position(text, error, message):
    sig = two_sort_sig() if "Q" in text else one_sort_sig()
    assert parse_outcome(parse, text, sig) == (error, message)


def test_identifiers_and_ints_follow_the_unicode_character_classes():
    """An identifier starts with a letter or "_" and goes on over alphanumerics;
    an int is decimal digits of any script; any Unicode space separates tokens."""
    sig = one_sort_sig()
    assert parse("P(x²)", sig) == Atom("P", (Var("x²", "S"),))
    assert parse("٣/٤", sig) == Const(F(3, 4))
    assert parse("sup\u00a0x.\u2003P(x)", sig) == Quant("sup", "x", "S",
                                                         Atom("P", (Var("x", "S"),)))


def test_a_whitespace_run_is_scanned_once():
    """Trailing whitespace costs time linear in its length (20,000 spaces took
    about 23 s when the tokenizer rescanned the run from each of its positions)."""
    start = time.perf_counter()
    assert parse("P(x)" + " " * 20_000, one_sort_sig()) == Atom("P", (Var("x", "S"),))
    assert time.perf_counter() - start < 2
