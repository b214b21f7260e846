"""One phi-instance per command, and the int sup-difference metric."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contlogic import cli, structures
from contlogic.cli import run
from contlogic.imaginaries import PRED_NAME, SORT_NAME, build_imaginary
from contlogic.language import parse
from contlogic.stability import phi_type_space
from contlogic.structures import PhiInstance, fraction_rows, make_split, validate, value_matrix
from oracles import (
    gen_prob_algebra,
    imaginary_tables_reference,
    phi_type_space_reference,
    validate_reference,
)
from test_stability import binary_structure, instance

PHIS = ("sup z. |mu(meet(x,z)) - mu(meet(y,z))|", "mu(meet(x,y))",
        "|mu(meet(x,y)) - half mu(x)|")
WEIGHTS = ([F(1, 4), F(1, 4), F(1, 2)], [F(1, 6), F(1, 3), F(1, 2)],
           [F(1, 8), F(1, 8), F(1, 4), F(1, 2)], [F(1, 10), F(1, 5), F(3, 10), F(2, 5)],
           [F(k, 15) for k in range(1, 6)])


def binary_cases(M):
    """Instances on a binary structure, with one- and two-variable x-tuples."""
    for text, xs, ys in (("P(x,y)", ["x"], ["y"]), ("P(x,y)", ["y"], ["x"]),
                         ("min(P(x,y), P(z,y))", ["x", "z"], ["y"]),
                         ("sup w. |P(x,w) - P(y,w)|", ["x"], ["y"])):
        yield instance(M, text, xs, ys)


def assert_matches_references(inst, check_validator=False):
    space = phi_type_space(inst)
    assert (fraction_rows(space.rows, space.scale), fraction_rows(space.distances, space.scale),
            space.realizers) == phi_type_space_reference(inst)
    E = build_imaginary(inst)
    classes, metric, predicate = imaginary_tables_reference(inst)
    assert E.class_members == classes
    assert E.expanded.metric_table[SORT_NAME] == metric
    assert E.expanded.predicate_table[PRED_NAME] == predicate
    report = validate(E.expanded)
    assert report.valid
    if check_validator:
        assert report.to_json() == validate_reference(E.expanded).to_json()


@pytest.mark.parametrize("weights", WEIGHTS, ids=lambda w: f"{len(w)}atoms")
def test_algebras_match_fraction_references(weights):
    M = gen_prob_algebra(weights)
    for text in PHIS:
        assert_matches_references(instance(M, text), check_validator=len(weights) == 3)


def test_random_binary_structures_match_fraction_references():
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(2, 5)
        den = rng.choice([2, 3, 4, 6])
        M = binary_structure({(i, j): F(rng.randint(0, den), den)
                              for i in range(n) for j in range(n)}, n)
        for inst in binary_cases(M):
            assert_matches_references(inst, check_validator=True)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.data())
def test_metric_property(n, data):
    cells = st.integers(0, 12).map(lambda k: F(k, 12))
    M = binary_structure({(i, j): data.draw(cells) for i in range(n) for j in range(n)}, n)
    for inst in binary_cases(M):
        assert_matches_references(inst)


def test_value_matrix_is_a_view_of_the_instance():
    M = gen_prob_algebra([F(1, 4), F(3, 4)])
    phi = parse("mu(meet(x,y))", M.sig)
    split = make_split(phi, ["x"], ["y"])
    inst = PhiInstance(M, phi, split)
    xts, yts, vals = value_matrix(M, phi, split)
    assert (xts, yts) == (inst.xts, inst.yts)
    assert vals == tuple(tuple(F(v, inst.scale) for v in row) for row in inst.num)
    assert inst.x_index[("s1",)] == 1 and inst.y_index[("s3",)] == 3
    assert inst.x_names == [("s0",), ("s1",), ("s2",), ("s3",)] == inst.y_names


COMMANDS = [
    ["typespace"],
    ["imaginary"],
    ["define-monotone", "--epsilon", "1/4", "--target", "s1"],
    ["define-median", "--epsilon", "1/4", "--target", "s2"],
    ["define-median", "--epsilon", "1/4", "--target-file", "TARGET"],
    ["define-global", "--depth", "2", "--target", "s1"],
]


def command_id(argv):
    return "-".join(a for a in argv if not a.startswith(("-", "1/")))


def run_on_algebra(tmp_path, argv, text):
    """Run a command on the 2-atom algebra with the formula `text` split x;y."""
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(gen_prob_algebra([F(1, 4), F(3, 4)]).to_json()))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"values": {"s0": "0", "s1": "0", "s2": "3/4", "s3": "3/4"}}))
    command = [a if a != "TARGET" else str(target) for a in argv]
    return run([command[0], str(path), "--formula", text, "--split", "x;y", *command[1:]])


@pytest.mark.parametrize("argv", COMMANDS, ids=command_id)
def test_each_command_compiles_phi_once(monkeypatch, capsys, tmp_path, argv):
    text = "mu(meet(x,y))"
    phi = parse(text, gen_prob_algebra([F(1, 4), F(3, 4)]).sig)
    compiled = []
    original = structures.compile_row

    def counting(M, f, *args, **kwargs):
        compiled.append(f)
        return original(M, f, *args, **kwargs)

    monkeypatch.setattr(structures, "compile_row", counting)
    assert run_on_algebra(tmp_path, argv, text) == 0, capsys.readouterr().err
    assert compiled.count(phi) == 1


@pytest.mark.parametrize("argv", COMMANDS, ids=command_id)
def test_each_command_leaves_the_structure_unchanged(monkeypatch, capsys, tmp_path, argv):
    """A command keeps nothing on the structure it loaded: its attributes stay as loaded."""
    loaded = []
    original = cli._load_structure

    def recording(path):
        M = original(path)
        loaded.append((M, dict(vars(M))))
        return M

    monkeypatch.setattr(cli, "_load_structure", recording)
    assert run_on_algebra(tmp_path, argv, "mu(meet(x,y))") == 0, capsys.readouterr().err
    [(M, before)] = loaded
    assert vars(M) == before
