"""Finite structures: evaluation, validation, completion, TV, generators."""

import json
import re
from fractions import Fraction as F

import pytest

from contlogic import values
from contlogic.errors import CompletionError, ContlogicError, DomainError, StructuralError
from contlogic.language import IDENTITY, PredDecl, Signature, SortDecl, parse, prenex
from contlogic.structures import (
    FiniteStructure,
    complete_structure,
    env_from_names,
    eval_formula,
    is_elementary_substructure,
    validate,
)
from contlogic.values import parse_rational
from oracles import (
    Condition,
    apa_sentence,
    check_condition,
    check_theory,
    fraction_tables,
    from_classical,
    gen_halfgraph,
    gen_prob_algebra,
    pra_conditions,
    pred_value,
    structure,
)


def two_point(p_a=F(0), p_b=F(1), dist=F(1)):
    sig = Signature([SortDecl("S", "d")],
                    predicates=[PredDecl("P", ("S",), (IDENTITY,))])
    metric = {"S": [[F(0), dist], [dist, F(0)]]}
    return structure(sig, {"S": ["a", "b"]}, metric, {},
                     {"P": {(0,): p_a, (1,): p_b}})


def test_eval_sup_of_two_values():
    M = two_point(F(1, 4), F(3, 4))
    f = parse("sup x. P(x)", M.sig)
    assert eval_formula(M, {}, f) == F(3, 4)
    g = parse("P(x)", M.sig)
    assert eval_formula(M, env_from_names(M, {"x": "b"}, g), g) == F(3, 4)
    with pytest.raises(StructuralError):
        eval_formula(M, {}, g)


def test_validate_modulus_violation():
    M = two_point(F(0), F(1), dist=F(1, 2))
    report = validate(M)
    assert not report.valid
    kinds = {v.kind for v in report.violations}
    assert kinds == {"modulus_predicate"}
    assert report.violations[0].witnesses == ("a", "b")


def test_validate_one_point_structure():
    sig = Signature([SortDecl("S", "d")], predicates=[PredDecl("P", ("S",), (IDENTITY,))])
    M = structure(sig, {"S": ["a"]}, {"S": [[F(0)]]}, {}, {"P": {(0,): F(2, 3)}})
    assert validate(M).valid


def test_validate_catches_metric_violations():
    sig = Signature([SortDecl("S", "d")], predicates=[])
    metric = {"S": [[F(0), F(1), F(1, 4)], [F(1), F(0), F(1, 4)], [F(1, 4), F(1, 4), F(0)]]}
    M = structure(sig, {"S": ["a", "b", "c"]}, metric, {}, {})
    report = validate(M)
    assert any(v.kind == "metric_triangle" for v in report.violations)


def test_prob_algebra_pra_axioms_and_apa_value():
    M = gen_prob_algebra([F(1, 2), F(1, 2)])
    assert validate(M).valid
    ok, rows = check_theory(M, pra_conditions(M.sig))
    assert ok, rows
    assert eval_formula(M, {}, apa_sentence(M.sig)) == F(1, 4)
    # d({atom0},{atom1}) = 1
    assert pred_value(M, "d", (M.element_index("B", "s1"), M.element_index("B", "s2"))) == 1

    trivial = gen_prob_algebra([F(1)])
    assert len(trivial.carriers["B"]) == 2
    assert pred_value(trivial, "mu", (1,)) == 1
    ok, _ = check_theory(trivial, pra_conditions(trivial.sig))
    assert ok

    with pytest.raises(DomainError):
        gen_prob_algebra([F(1, 2)])
    with pytest.raises(DomainError):
        gen_prob_algebra([F(1, 2), F(-1, 2), F(1)])


def test_four_atom_algebra_measure_monotone_under_meet():
    M = gen_prob_algebra([F(1, 4)] * 4)
    assert len(M.carriers["B"]) == 16
    _, functions, predicates = fraction_tables(M)
    mu = predicates["mu"]
    meet = functions["meet"]
    for a in range(16):
        for b in range(16):
            assert mu[(meet[(a, b)],)] <= mu[(a,)]


def test_apa_condition_fails_on_two_atom_algebra():
    M = gen_prob_algebra([F(1, 2), F(1, 2)])
    c = Condition(apa_sentence(M.sig), "eq0")
    assert not check_condition(M, {}, c)


def test_metric_reflexivity_condition_via_env():
    M = gen_prob_algebra([F(1, 2), F(1, 2)])
    c = Condition(parse("d(x,x)", M.sig), "eq0")
    for name in M.carriers["B"]:
        env = env_from_names(M, {"x": name}, c.formula)
        assert check_condition(M, env, c)


def test_complete_quotients_zero_distance():
    sig = Signature([SortDecl("S", "d")], predicates=[PredDecl("P", ("S",), (IDENTITY,))])
    metric = {"S": [[F(0), F(0)], [F(0), F(0)]]}
    M = structure(sig, {"S": ["a", "b"]}, metric, {},
                  {"P": {(0,): F(1, 2), (1,): F(1, 2)}})
    res = complete_structure(M)
    assert len(res.structure.carriers["S"]) == 1
    assert res.classes["S"] == [("a", ["a", "b"])]

    # 3 elements, a~b, c apart
    metric = {"S": [[F(0), F(0), F(1, 2)], [F(0), F(0), F(1, 2)], [F(1, 2), F(1, 2), F(0)]]}
    M = structure(sig, {"S": ["a", "b", "c"]}, metric, {},
                  {"P": {(0,): F(1, 4), (1,): F(1, 4), (2,): F(1)}})
    res = complete_structure(M)
    assert res.structure.carriers["S"] == ("a", "c")
    assert fraction_tables(res.structure).metric["S"][0][1] == F(1, 2)

    # idempotence up to equality of presentation
    again = complete_structure(res.structure)
    assert again.structure.carriers == res.structure.carriers
    assert fraction_tables(again.structure).metric == fraction_tables(res.structure).metric

    # ill-defined predicate on a class
    M = structure(sig, {"S": ["a", "b"]}, {"S": [[F(0), F(0)], [F(0), F(0)]]}, {},
                  {"P": {(0,): F(0), (1,): F(1)}})
    with pytest.raises(CompletionError):
        complete_structure(M)


def test_completion_witnesses_name_the_sort_metric():
    """A metric not constant on zero-distance classes is reported under its own name."""
    sig = Signature([SortDecl("A", "d_A"), SortDecl("B", "d_B")])
    third = [[F(0), F(0), F(1)], [F(0), F(0), F(1, 2)], [F(1), F(1, 2), F(0)]]
    M = structure(sig, {"A": ["o"], "B": ["p", "q", "r"]},
                  {"A": [[F(0)]], "B": third}, {}, {})
    with pytest.raises(CompletionError) as info:
        complete_structure(M)
    assert info.value.witnesses == [("d_B", ("q", "r")), ("d_B", ("r", "q"))]


def test_already_metric_structure_completes_to_itself():
    M = gen_halfgraph(2)
    res = complete_structure(M)
    assert res.structure.carriers == M.carriers
    assert fraction_tables(res.structure).predicates == fraction_tables(M).predicates


def test_tarski_vaught():
    M = two_point(F(1), F(0))
    f = parse("P(y)", M.sig)
    ok, witness = is_elementary_substructure(M, {"S": ["a"]}, [(f, "y")])
    assert not ok
    assert witness["inf_over_structure"] == 0 and witness["inf_over_subset"] == 1

    ok, _ = is_elementary_substructure(M, {"S": ["a", "b"]}, [(f, "y")])
    assert ok
    ok, _ = is_elementary_substructure(M, {"S": ["a"]}, [])
    assert ok


def test_tarski_vaught_function_closure():
    M = gen_prob_algebra([F(1, 2), F(1, 2)])
    with pytest.raises(StructuralError):
        is_elementary_substructure(M, {"B": ["s0", "s1"]}, [])  # not closed under compl
    full = {"B": list(M.carriers["B"])}
    f = parse("mu(meet(y,x))", M.sig)
    ok, _ = is_elementary_substructure(M, full, [(f, "y")])
    assert ok
    # the first argument tuple in product order, over the subset as listed, is the witness
    M = gen_prob_algebra([F(1, 5)] * 5)
    with pytest.raises(StructuralError, match=r"^subset not closed under compl at \('s1',\)$"):
        is_elementary_substructure(M, {"B": ["s0", "s31", "s1"]}, [])
    with pytest.raises(StructuralError,
                       match=r"^subset not closed under meet at \('s30', 's29'\)$"):
        is_elementary_substructure(M, {"B": ["s0", "s31", "s1", "s30", "s2", "s29"]}, [])


def test_halfgraph_structure():
    M = gen_halfgraph(2)
    phi = fraction_tables(M).predicates["phi"]
    a0, a1 = M.element_index("V", "a0"), M.element_index("V", "a1")
    b0, b1 = M.element_index("V", "b0"), M.element_index("V", "b1")
    assert phi[(a0, b1)] == 1
    assert phi[(a1, b0)] == 0
    assert phi[(b0, a0)] == 0
    assert validate(gen_halfgraph(8)).valid
    with pytest.raises(DomainError):
        gen_halfgraph(17)


def test_from_classical_matches_naive_evaluator():
    """Random classical sentences agree with sup/inf/neg/max/min semantics.

    Truth is 0: classical AND becomes max, OR becomes min, forall becomes
    sup, exists becomes inf.  The naive evaluator works on the raw
    description, independent of the structure machinery.
    """
    import random

    from contlogic.language import Atom, Op, Quant, Var
    from oracles import classical_eval

    carrier = ["u", "v", "w"]
    edges = [("u", "v"), ("v", "u"), ("v", "w"), ("w", "w")]
    relations = {"E": set(edges)}
    M = from_classical(carrier, {}, {"E": edges})

    def build(rng, depth, scope):
        if depth == 0 and scope:
            a, b = rng.choice(scope), rng.choice(scope)
            return (("rel", "E", (a, b)),
                    Atom("E", (Var(a, "S"), Var(b, "S"))))
        kind = rng.randrange(4) if scope else 3
        if kind == 0:
            c, f = build(rng, depth - 1, scope)
            return ("not", c), Op("neg", (f,))
        if kind == 1:
            c1, f1 = build(rng, depth - 1, scope)
            c2, f2 = build(rng, depth - 1, scope)
            return ("and", c1, c2), Op("max", (f1, f2))
        if kind == 2:
            c1, f1 = build(rng, depth - 1, scope)
            c2, f2 = build(rng, depth - 1, scope)
            return ("or", c1, c2), Op("min", (f1, f2))
        v = f"q{len(scope)}"
        c, f = build(rng, depth - 1, scope + (v,))
        if rng.random() < 1 / 2:
            return ("forall", v, c), Quant("sup", v, "S", f)
        return ("exists", v, c), Quant("inf", v, "S", f)

    rng = random.Random(31)
    for _ in range(200):
        classical, continuous = build(rng, rng.randrange(2, 5), ())
        value = eval_formula(M, {}, continuous)
        assert value in (F(0), F(1))
        assert (value == 0) == classical_eval(carrier, relations, classical, {})


def test_json_round_trip():
    M = gen_prob_algebra([F(1, 4), F(3, 4)])
    data = M.to_json()
    M2 = FiniteStructure.from_json(json.loads(json.dumps(data)))
    assert M2.carriers == M.carriers
    assert fraction_tables(M2) == fraction_tables(M)


def test_from_json_parses_each_literal_of_a_file_once(monkeypatch):
    """The metric and mu tables of an algebra share their literals: each distinct
    one is parsed once per file, and the next file parses it again."""
    data = json.loads(json.dumps(gen_prob_algebra([F(1, 4), F(1, 4), F(1, 2)]).to_json()))
    parsed = []
    parse_ratio = values.parse_ratio
    monkeypatch.setattr(values, "parse_ratio",
                        lambda text: parsed.append(text) or parse_ratio(text))
    M = FiniteStructure.from_json(data)
    cells = [c for rows in data["metric"].values() for row in rows for c in row]
    cells += [c for table in data["predicates"].values() for c in table]
    assert sorted(parsed) == sorted(set(cells))
    assert data["predicates"]["mu"][1] in data["metric"]["B"][0]
    FiniteStructure.from_json(data)
    assert len(parsed) == 2 * len(set(cells))
    assert fraction_tables(M) == fraction_tables(gen_prob_algebra([F(1, 4), F(1, 4), F(1, 2)]))


def test_json_rejects_diameter_above_one():
    M = gen_halfgraph(2)
    data = M.to_json()
    data["metric"]["V"][0][1] = "3/2"
    with pytest.raises(DomainError, match=r"^metric diameter exceeds 1 in sort V$"):
        FiniteStructure.from_json(data)


@pytest.mark.parametrize("table, text, message", [
    ("metric", "-1/2", "value -1/2 outside [0,1]"),
    ("metric", " -6/-4 ", "metric diameter exceeds 1 in sort V"),
    ("predicates", "3/2", "value 3/2 outside [0,1]"),
    ("predicates", "-0/7", None),
    ("predicates", " 2/4 ", None),
    ("predicates", "1_0/2_0", None),
    ("predicates", "\u0661/\u0662", None),
    ("predicates", "1/-2", "value -1/2 outside [0,1]"),
    ("predicates", "1/0", "bad rational literal '1/0'"),
    ("predicates", "0.5", "decimal literal '0.5' rejected; use p/q"),
    ("predicates", 1, "rational literal 1 must be a string"),
])
def test_table_values_parse_and_range_check(table, text, message):
    """A table cell is read as `parse_rational` reads it and range-checked in the same order."""
    data = gen_halfgraph(2).to_json()
    cells = data[table]["V"] if table == "metric" else data[table]["phi"]
    cells[0][1] = text
    if message is not None:
        with pytest.raises(ContlogicError, match=f"^{re.escape(message)}$"):
            FiniteStructure.from_json(data)
        return
    M = FiniteStructure.from_json(data)
    assert fraction_tables(M).predicates["phi"][(0, 1)] == parse_rational(text)


DELETE = object()


@pytest.mark.parametrize("path, value, message", [
    ((), ["s0", "s1"], "structure file must be a JSON object"),
    (("signature",), DELETE, "structure file has no signature and none was supplied"),
    (("carriers",), DELETE, "structure file has no 'carriers'"),
    (("carriers", "B"), DELETE, "empty or missing carrier for sort B"),
    (("carriers", "B"), [], "empty or missing carrier for sort B"),
    (("carriers", "B"), ["s0", 1], "carrier of sort B must be a list of element names"),
    (("carriers", "B"), ["s0", "s0"], "duplicate element names in sort B"),
    (("metric", "B"), [["0", "1"]], "metric matrix for sort B must be 2x2"),
    (("metric", "B", 1), ["1", "0", "1"], "metric matrix for sort B must be 2x2"),
    (("functions", "meet", 0), "s0", "table meet has wrong shape"),
    (("predicates", "mu"), [["0"], ["1"]], "table mu has wrong shape"),
    (("functions", "compl"), DELETE, "structure file has no functions table for 'compl'"),
    (("predicates", "mu"), DELETE, "structure file has no predicates table for 'mu'"),
    (("functions", "meet", 1, 0), "s2", "function table meet has a value outside sort B"),
    (("carriers", "Z"), ["z0", "z1"], "carrier for undeclared sort Z"),
])
def test_loader_reports_each_structural_fault(path, value, message):
    """A structure file with one structural fault fails to load with a one-line
    message naming it: the entry at `path` is replaced by `value` or deleted."""
    data = gen_prob_algebra([F(1)]).to_json()
    if path:
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    else:
        data = value
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        FiniteStructure.from_json(data)


def test_apa_defect_law_small():
    for k, expected in [(1, F(1, 4)), (2, F(1, 8))]:
        M = gen_prob_algebra([F(1, 2**k)] * 2**k)
        assert eval_formula(M, {}, apa_sentence(M.sig)) == expected


def test_prenex_preserves_apa_sentence_value():
    M = gen_prob_algebra([F(1, 2), F(1, 2)])
    f = apa_sentence(M.sig)
    assert eval_formula(M, {}, prenex(f)) == eval_formula(M, {}, f)
