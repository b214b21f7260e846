"""One phi-instance per (structure, formula, split), and the int sup-difference metric."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contlogic import structures
from contlogic.cli import run
from contlogic.imaginaries import build_imaginary
from contlogic.language import parse
from contlogic.stability import phi_type_space
from contlogic.structures import (
    FiniteStructure,
    gen_prob_algebra,
    make_split,
    phi_instance,
    validate,
    value_matrix,
)
from oracles import (
    imaginary_tables_reference,
    phi_type_space_reference,
    validate_reference,
)
from test_stability import binary_setup

PHIS = ("sup z. |mu(meet(x,z)) - mu(meet(y,z))|", "mu(meet(x,y))",
        "|mu(meet(x,y)) - half mu(x)|")
WEIGHTS = ([F(1, 4), F(1, 4), F(1, 2)], [F(1, 6), F(1, 3), F(1, 2)],
           [F(1, 8), F(1, 8), F(1, 4), F(1, 2)], [F(1, 10), F(1, 5), F(3, 10), F(2, 5)],
           [F(k, 15) for k in range(1, 6)])


def binary_cases(M):
    """(phi, split) pairs on a binary structure, with one- and two-variable x-tuples."""
    for text, xs, ys in (("P(x,y)", ["x"], ["y"]), ("P(x,y)", ["y"], ["x"]),
                         ("min(P(x,y), P(z,y))", ["x", "z"], ["y"]),
                         ("sup w. |P(x,w) - P(y,w)|", ["x"], ["y"])):
        phi = parse(text, M.sig)
        yield phi, make_split(phi, xs, ys)


def assert_matches_references(M, phi, split, check_validator=False):
    assert phi_type_space(M, phi, split) == phi_type_space_reference(M, phi, split)
    E = build_imaginary(M, phi, split)
    classes, metric, predicate = imaginary_tables_reference(M, phi, split)
    assert E.class_members == classes
    assert E.expanded.metric_table[E.sort_name] == metric
    assert E.expanded.predicate_table[E.pred_name] == predicate
    report = validate(E.expanded)
    assert report.valid
    if check_validator:
        assert report.to_json() == validate_reference(E.expanded).to_json()


@pytest.mark.parametrize("weights", WEIGHTS, ids=lambda w: f"{len(w)}atoms")
def test_algebras_match_fraction_references(weights):
    M = gen_prob_algebra(weights)
    for text in PHIS:
        phi = parse(text, M.sig)
        assert_matches_references(M, phi, make_split(phi, ["x"], ["y"]),
                                  check_validator=len(weights) == 3)


def test_random_binary_structures_match_fraction_references():
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(2, 5)
        den = rng.choice([2, 3, 4, 6])
        M, _, _ = binary_setup({(i, j): F(rng.randint(0, den), den)
                                for i in range(n) for j in range(n)}, n)
        for phi, split in binary_cases(M):
            assert_matches_references(M, phi, split, check_validator=True)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.data())
def test_metric_property(n, data):
    cells = st.integers(0, 12).map(lambda k: F(k, 12))
    M, _, _ = binary_setup({(i, j): data.draw(cells) for i in range(n) for j in range(n)}, n)
    for phi, split in binary_cases(M):
        assert_matches_references(M, phi, split)


def test_value_matrix_is_a_view_of_the_instance():
    M = gen_prob_algebra([F(1, 4), F(3, 4)])
    phi = parse("mu(meet(x,y))", M.sig)
    split = make_split(phi, ["x"], ["y"])
    inst = phi_instance(M, phi, split)
    again = parse("mu(meet(x,y))", M.sig)
    assert phi_instance(M, again, make_split(again, ["x"], ["y"])) is inst
    xts, yts, vals = value_matrix(M, phi, split)
    assert (xts, yts) == (inst.xts, inst.yts)
    assert vals == tuple(tuple(F(v, inst.scale) for v in row) for row in inst.num)
    assert inst.x_index[("s1",)] == 1 and inst.y_index[("s3",)] == 3


def test_structures_from_one_file_share_no_instance(tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(gen_prob_algebra([F(1, 4), F(3, 4)]).to_json()))
    M1, M2 = (FiniteStructure.from_json(json.loads(path.read_text())) for _ in range(2))
    phi = parse("mu(meet(x,y))", M1.sig)
    split = make_split(phi, ["x"], ["y"])
    first = phi_instance(M1, phi, split)
    assert phi_instance(M2, phi, split) is not first
    assert phi_instance(M1, phi, split) is first


@pytest.mark.parametrize("argv", [
    ["typespace"],
    ["imaginary"],
    ["define-monotone", "--epsilon", "1/4", "--target", "s1"],
    ["define-median", "--epsilon", "1/4", "--target", "s2"],
    ["define-median", "--epsilon", "1/4", "--target-file", "TARGET"],
    ["define-global", "--depth", "2", "--target", "s1"],
], ids=lambda argv: "-".join(a for a in argv if not a.startswith(("-", "1/"))))
def test_each_command_compiles_phi_once(monkeypatch, capsys, tmp_path, argv):
    M = gen_prob_algebra([F(1, 4), F(3, 4)])
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(M.to_json()))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"values": {"s0": "0", "s1": "0", "s2": "3/4", "s3": "3/4"}}))
    text = "mu(meet(x,y))"
    phi = parse(text, M.sig)
    compiled = []
    original = structures.compile_row

    def counting(M, f, *args, **kwargs):
        compiled.append(f)
        return original(M, f, *args, **kwargs)

    monkeypatch.setattr(structures, "compile_row", counting)
    command = [a if a != "TARGET" else str(target) for a in argv]
    code = run([command[0], str(path), "--formula", text, "--split", "x;y", *command[1:]])
    assert code == 0, capsys.readouterr().err
    assert compiled.count(phi) == 1
