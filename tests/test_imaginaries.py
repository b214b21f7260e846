"""Canonical-parameter sort construction and its defining sentences."""

import json
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contlogic.errors import StructuralError
from contlogic.imaginaries import build_imaginary, tphi_sentences, verify_tphi
from contlogic.language import parse
from contlogic.structures import (
    FiniteStructure,
    PhiInstance,
    eval_formula,
    make_split,
    tuples_of,
    validate,
    value_matrix,
)
from oracles import (
    apa_sentence,
    automorphisms,
    fraction_tables,
    from_classical,
    gen_prob_algebra,
    relabelled_json,
    structure,
)


def discrete_two_point():
    return from_classical(["a", "b"], {}, {"E": []})


def test_distance_formula_two_classes():
    M = discrete_two_point()
    phi = parse("d(x,y)", M.sig)
    E = build_imaginary(PhiInstance(M, phi, make_split(phi, ["x"], ["y"])))
    assert len(E.class_names) == 2
    assert fraction_tables(E.expanded).metric["S_phi"][0][1] == 1
    assert validate(E.expanded).valid


def test_constant_formula_single_class():
    M = discrete_two_point()
    phi = parse("max(max(d(x,x), 1/2), d(y,y))", M.sig)
    E = build_imaginary(PhiInstance(M, phi, make_split(phi, ["x"], ["y"])))
    assert len(E.class_names) == 1
    ok, rows = verify_tphi(E)
    assert ok, rows


def test_meet_measure_four_classes():
    M = gen_prob_algebra([F(1, 2), F(1, 2)])
    phi = parse("mu(meet(x,y))", M.sig)
    E = build_imaginary(PhiInstance(M, phi, make_split(phi, ["x"], ["y"])))
    assert len(E.class_names) == 4
    ok, rows = verify_tphi(E)
    assert ok, rows
    assert validate(E.expanded).valid


def test_tphi_detects_perturbation():
    """Shifting one class's predicate row by 1/4 breaks the metric sentence."""
    M = discrete_two_point()
    phi = parse("d(x,y)", M.sig)
    E = build_imaginary(PhiInstance(M, phi, make_split(phi, ["x"], ["y"])))
    metric, functions, tables = fraction_tables(E.expanded)
    for key in list(tables["P_phi"]):
        if key[-1] == 0:  # every entry of class 0's row, moved 1/4 toward 1/2
            v = tables["P_phi"][key]
            tables["P_phi"][key] = v + F(1, 4) if v <= F(1, 2) else v - F(1, 4)
    mutated = structure(E.expanded.sig, E.expanded.carriers, metric, functions, tables)
    sentences = tphi_sentences(E)
    value = eval_formula(mutated, {}, sentences[0][1])
    assert value == F(1, 4)


def test_representatives_are_lexicographically_least():
    M = gen_prob_algebra([F(1, 2), F(1, 2)])
    phi = parse("mu(meet(x,y))", M.sig)
    E = build_imaginary(PhiInstance(M, phi, make_split(phi, ["x"], ["y"])))
    for members, rep in zip(E.class_members, E.representatives):
        assert min(members) == members[0]
        yts = tuples_of(M, E.instance.split.y)
        assert yts[members[0]] == rep


def test_tuple_sort_is_pairs_with_max_metric():
    M = discrete_two_point()
    phi = parse("max(d(x0,y0), d(x1,y1))", M.sig)
    split = make_split(phi, ["x0", "x1"], ["y0", "y1"])
    E = build_imaginary(PhiInstance(M, phi, split))
    yts = tuples_of(M, split.y)
    assert len(E.class_names) == len(yts) == 4
    metric, expanded = fraction_tables(M).metric, fraction_tables(E.expanded).metric
    for i, yi in enumerate(yts):
        for j, yj in enumerate(yts):
            ci, cj = E.projection[i], E.projection[j]
            expected = max(metric["S"][a][b] for a, b in zip(yi, yj))
            assert expanded["S_phi"][ci][cj] == expected


def test_automorphism_fixes_class_iff_it_fixes_row():
    M = gen_prob_algebra([F(1, 4), F(3, 4)])
    phi = parse("mu(meet(x,y))", M.sig)
    split = make_split(phi, ["x"], ["y"])
    E = build_imaginary(PhiInstance(M, phi, split))
    xts, yts, vals = value_matrix(M, phi, split)
    autos = list(automorphisms(M))
    assert autos  # identity at least
    for pi in autos:
        p = pi["B"]
        for yi, yt in enumerate(yts):
            mapped = tuple(p[i] for i in yt)
            yj = yts.index(mapped)
            fixes_class = E.projection[yi] == E.projection[yj]
            row_i = tuple(vals[xi][yi] for xi in range(len(xts)))
            row_j = tuple(vals[xi][yj] for xi in range(len(xts)))
            assert fixes_class == (row_i == row_j)


def test_split_must_partition_free_vars():
    M = discrete_two_point()
    phi = parse("d(x,y)", M.sig)
    with pytest.raises(StructuralError):
        make_split(phi, ["x"], ["z"])
    with pytest.raises(StructuralError):
        make_split(phi, ["x", "y"], ["y"])


# -- relabelling ----------------------------------------------------------------


def relabelling_bases():
    """Probability-algebra files: two valid ones and two that fail validation."""
    valid = [gen_prob_algebra([F(1, 2), F(1, 4), F(1, 4)]).to_json(),
             gen_prob_algebra([F(5, 18), F(6, 18), F(7, 18)]).to_json()]
    broken_meet = json.loads(json.dumps(valid[0]))
    broken_meet["functions"]["meet"][6][7] = "s0"  # breaks distributivity and the modulus
    broken_mu = json.loads(json.dumps(valid[1]))
    broken_mu["predicates"]["mu"][3] = "0"
    return valid + [broken_meet, broken_mu]


RELABELLING_BASES = relabelling_bases()
DISTRIBUTIVITY = "sup x. sup y. sup z. d(meet(x,join(y,z)), join(meet(x,y),meet(x,z)))"
SUP_PHI = "sup z. |mu(meet(x,z)) - mu(meet(y,z))|"


@settings(max_examples=24)
@given(st.sampled_from(range(len(RELABELLING_BASES))), st.permutations(range(8)))
def test_relabelled_carrier_keeps_validation_sentences_and_classes(which, perm):
    """Permuting the carrier order in the JSON gives an isomorphic structure.

    It has the same violations up to the order of their witnesses, the same
    values of the atomlessness and distributivity sentences, and, when it
    is valid, the same number of canonical-parameter classes with T_phi
    vanishing.
    """
    data = RELABELLING_BASES[which]
    M = FiniteStructure.from_json(data)
    N = FiniteStructure.from_json(relabelled_json(data, {"B": perm}))

    def violations(K):
        return Counter((v.kind, v.subject, v.detail) for v in validate(K).violations)

    assert violations(N) == violations(M)
    for sentence in (apa_sentence(M.sig), parse(DISTRIBUTIVITY, M.sig)):
        assert eval_formula(N, {}, sentence) == eval_formula(M, {}, sentence)
    if not validate(M).valid:
        phi = parse(SUP_PHI, N.sig)
        with pytest.raises(StructuralError):
            build_imaginary(PhiInstance(N, phi, make_split(phi, ["x"], ["y"])))
        return
    for text in (SUP_PHI, "mu(meet(x,y))", "|mu(y) - half mu(x)|"):  # 8, 8 and 5 or 8 classes
        classes = []
        for K in (M, N):
            phi = parse(text, K.sig)
            E = build_imaginary(PhiInstance(K, phi, make_split(phi, ["x"], ["y"])))
            all_zero, _ = verify_tphi(E)
            assert all_zero
            classes.append(len(E.class_names))
        assert classes[0] == classes[1]
