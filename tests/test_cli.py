"""End-to-end command-line tests: dispatch, exit codes, report determinism."""

import gc
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from contlogic import cli
from contlogic.cli import _parsers, _verify_glue, run
from contlogic.language import FuncDecl, IDENTITY, PredDecl, Signature, SortDecl, parse
from contlogic.stability import glue_formula
from contlogic.errors import StructuralError
from contlogic.structures import make_split
from contlogic.synthesis import GridFunction
from oracles import (
    eval_formula_reference,
    gen_halfgraph,
    gen_prob_algebra,
    glued_halfgraph,
    structure,
)


@pytest.fixture(autouse=True)
def reports_match_json_dumps(monkeypatch):
    """Every report and --out file a test here writes has the text of
    `json.dumps(obj, indent=2)`: the writer is checked at each outermost call."""
    writer = cli._json_text

    def checked(obj, newline="\n"):
        text = writer(obj, newline)
        if newline == "\n":
            assert text == json.dumps(obj, indent=2)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)


@pytest.fixture()
def algebra_file(tmp_path):
    M = gen_prob_algebra([F(1, 2), F(1, 2)])
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(M.to_json()))
    return str(path)


@pytest.fixture()
def halfgraph_file(tmp_path):
    M = gen_halfgraph(8)
    path = tmp_path / "halfgraph.json"
    path.write_text(json.dumps(M.to_json()))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_check_valid_algebra(capsys, algebra_file):
    code, report = run_json(capsys, ["check", algebra_file])
    assert code == 0
    assert report["report"]["valid"] is True
    assert report["tool"] == "contlogic"
    import contlogic

    assert report["version"] == contlogic.__version__
    assert report["command"][0] == "check"
    assert algebra_file in report["inputs"]
    assert len(report["inputs"][algebra_file]) == 64  # sha256 hex


def test_eval_apa_sentence(capsys, algebra_file):
    code, report = run_json(capsys, [
        "eval", algebra_file,
        "-e", "sup x. inf y. |mu(meet(y,x)) - half(mu(x))|",
    ])
    assert code == 0
    assert report["report"]["value"] == "1/4"


def test_eval_with_binding(capsys, algebra_file):
    code, report = run_json(capsys, ["eval", algebra_file, "-e", "mu(x)", "--let", "x=s3"])
    assert code == 0
    assert report["report"]["value"] == "1"


def test_eval_let_on_term_rows_matches_reference(capsys, tmp_path):
    """Quantifiers whose bodies read y only through meet(y,x) or join(meet(y,x),z)."""
    M = gen_prob_algebra([F(1, 8), F(3, 8), F(1, 6), F(1, 3)])
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(M.to_json()))
    text = "(inf y. |mu(meet(y,x)) - half mu(x)|) +. (sup y. mu(join(meet(y,x),z)) -. d(x,z))"
    f = parse(text, M.sig)
    for x, z in [(5, 12), (15, 0), (0, 15), (9, 9), (6, 3)]:
        code, report = run_json(capsys, ["eval", str(path), "-e", text,
                                         "--let", f"x=s{x}", "--let", f"z=s{z}"])
        assert code == 0
        assert F(report["report"]["value"]) == eval_formula_reference(M, {"x": x, "z": z}, f)


@pytest.mark.parametrize("lets, message", [
    (["x=s1", "x=s2"], "--let binds 'x' twice"),
    (["x=s1", "u=1/2"], "value variable 'u' cannot be bound to an element"),
    (["z=s1"], "variable 'z' is not free in the formula"),
])
def test_eval_let_binds_each_element_variable_once(capsys, algebra_file, lets, message):
    argv = ["eval", algebra_file, "-e", "max(mu(x), u)"]
    fails_with(capsys, [*argv, *(arg for let in lets for arg in ("--let", let))], message)


@pytest.mark.parametrize("subset, message", [
    ("B:s0,s3|C:s1", "--subset names unknown sort 'C'"),
    ("B:s0,s3|B:s1", "--subset names sort 'B' twice"),
    ("s0,s3|s1", "--subset names sort 'B' twice"),
])
def test_tv_subset_names_each_sort_once(capsys, algebra_file, subset, message):
    fails_with(capsys, ["tv", algebra_file, "--subset", subset, "--formula", "y@mu(y)"],
               message)


def test_stability_ladder_length_8(capsys, halfgraph_file):
    code, report = run_json(capsys, [
        "stability", halfgraph_file, "--formula", "phi(x,y)", "--split", "x;y",
        "--epsilon", "1", "--kind", "antisym", "--max-len", "8",
    ])
    assert code == 0
    assert report["report"]["length"] == 8
    assert report["report"]["revalidated"] is True


def test_nvalue_constant(capsys, tmp_path):
    M = gen_prob_algebra([F(1)])
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(M.to_json()))
    code, report = run_json(capsys, [
        "nvalue", str(path), "--formula", "mu(meet(x,y))", "--split", "x;y",
        "--epsilon", "1/2",
    ])
    assert code == 0
    assert report["report"]["N"] >= 2


def test_imaginary_two_classes(capsys, tmp_path):
    M = gen_halfgraph(1)
    path = tmp_path / "two.json"
    path.write_text(json.dumps(M.to_json()))
    out_base = tmp_path / "imag"
    code, report = run_json(capsys, [
        "imaginary", str(path), "--formula", "d(x,y)", "--split", "x;y",
        "--out", str(out_base),
    ])
    assert code == 0
    assert report["report"]["class_count"] == 2
    assert report["report"]["all_zero"] is True
    files = report["report"]["written"]
    assert all(tmp_path.joinpath(p).exists() or p for p in files)
    sidecar = json.loads((tmp_path / "imag.classes.json").read_text())
    assert len(sidecar) == 2


def test_typespace(capsys, algebra_file):
    code, report = run_json(capsys, [
        "typespace", algebra_file, "--formula", "mu(meet(x,y))", "--split", "x;y",
    ])
    assert code == 0
    assert report["report"]["point_count"] == 4


def test_define_median(capsys, algebra_file):
    code, report = run_json(capsys, [
        "define-median", algebra_file, "--formula", "mu(meet(x,y))", "--split", "x;y",
        "--epsilon", "1/4", "--target", "s1",
    ])
    assert code == 0
    body = report["report"]
    assert F(body["observed_error"]) <= F(1, 4)
    assert len(body["parameters"]) == 2 * body["N"] - 1


def test_define_median_abort_exit_code(capsys, tmp_path):
    M = gen_halfgraph(2)
    path = tmp_path / "hg.json"
    path.write_text(json.dumps(M.to_json()))
    vec = {"values": {"a0": "1", "a1": "0", "b0": "1", "b1": "0"}}
    tf = tmp_path / "target.json"
    tf.write_text(json.dumps(vec))
    code, report = run_json(capsys, [
        "define-median", str(path), "--formula", "phi(x,y)", "--split", "x;y",
        "--epsilon", "1/8", "--target-file", str(tf),
    ])
    assert code == 1
    assert "aborted" in report["report"]


def test_define_global(capsys, algebra_file):
    code, report = run_json(capsys, [
        "define-global", algebra_file, "--formula", "mu(meet(x,y))", "--split", "x;y",
        "--target", "s2", "--depth", "3",
    ])
    assert code == 0
    assert report["report"]["error_bound"] == "1/4"


def test_glue_verify(capsys, tmp_path):
    M = glued_halfgraph(1)
    path = tmp_path / "glued.json"
    path.write_text(json.dumps(M.to_json()))
    code, report = run_json(capsys, [
        "glue", str(path), "--phi", "phi(x,y)", "--psi", "psi(x,z)",
        "--shared", "x", "--fresh", "t,w", "--fresh-sort", "E", "--verify",
    ])
    assert code == 0
    assert report["report"]["identities"] == {
        "recovers_phi_at_distance_1": True,
        "recovers_psi_at_distance_0": True,
    }


@pytest.mark.parametrize("chi, want", [
    ("glued", (True, True)),
    ("mu(meet(x,y))", (True, False)),
    ("mu(join(x,z))", (False, True)),
    ("mu(meet(x,z)) +. d(t,w)", (False, False)),
])
def test_glue_identities_report_each_failure(chi, want):
    """Each identity is checked on its own, whatever the other one gives."""
    M = gen_prob_algebra([F(1, 4), F(3, 4)])
    phi, psi = parse("mu(meet(x,y))", M.sig), parse("mu(join(x,z))", M.sig)
    chi = (glue_formula(phi, psi, "x", ("t", "w"), "B", M.sig) if chi == "glued"
           else parse(chi, M.sig))
    got = _verify_glue(M, phi, psi, chi, ("t", "w"), "B")
    assert (got["recovers_phi_at_distance_1"], got["recovers_psi_at_distance_0"]) == want


def test_cbrank(capsys, tmp_path):
    space = {
        "points": ["p", "q", "r"],
        "closed_sets": [[], ["p"], ["p", "q"], ["p", "q", "r"]],
        "metric": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
        "test_epsilons": [],
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    code, report = run_json(capsys, ["cbrank", str(path), "--epsilon", "1/2"])
    assert code == 0
    assert report["report"]["ranks"] == {"p": 2, "q": 1, "r": 0}


def test_synth(capsys, tmp_path):
    axis = [F(k, 8) for k in range(9)]
    target = GridFunction(1, F(1, 8), tuple(min(2 * t, F(1)) for t in axis))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(target.to_json()))
    code, report = run_json(capsys, ["synth", "--target", str(path), "--epsilon", "1/8"])
    assert code == 0
    assert F(report["report"]["max_error"]) <= F(1, 8)


def test_modulus_convert(capsys):
    code, report = run_json(capsys, [
        "modulus-convert", "--direction", "inverse-to-delta",
        "--pl", "0:0,1:1", "--epsilon", "1/4",
    ])
    assert code == 0
    assert report["report"]["delta"] == "1/4"
    code, report = run_json(capsys, [
        "modulus-convert", "--direction", "delta-to-inverse", "--pl", "0:0,1:1",
    ])
    assert code == 0
    assert report["report"]["inverse"] == "0:0,1:1"


@pytest.mark.parametrize("epsilon", ["1/4", "0.5"])
def test_modulus_convert_epsilon_with_delta_to_inverse_exits_1(capsys, epsilon):
    run_fails_with(capsys, ["modulus-convert", "--direction", "delta-to-inverse",
                            "--pl", "0:0,1:1", "--epsilon", epsilon],
                   "--epsilon applies only to inverse-to-delta")


def test_prenex_command(capsys, algebra_file):
    code, report = run_json(capsys, [
        "prenex", algebra_file, "--formula", "1/4 -. (sup x. mu(x))",
    ])
    assert code == 0
    assert report["report"]["prenex"].startswith("inf ")


def test_usage_error_exit_2(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


def test_reports_are_byte_identical(capsys, algebra_file):
    argv = ["eval", algebra_file, "-e", "sup x. mu(x)"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_grammar_error_diagnostic(capsys, algebra_file):
    code = run(["eval", algebra_file, "-e", "sup x mu(x)"])
    captured = capsys.readouterr()
    assert code == 1
    assert "contlogic:" in captured.err


def test_decimal_epsilon_rejected(capsys, halfgraph_file):
    code = run(["nvalue", halfgraph_file, "--formula", "phi(x,y)", "--split", "x;y",
                "--epsilon", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "decimal" in captured.err


def run_fails_cleanly(capsys, argv, expected_code):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == expected_code
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("command", ["define-median", "define-monotone", "define-global"])
def test_define_without_target_is_usage_error(capsys, algebra_file, command):
    argv = [command, algebra_file, "--formula", "mu(meet(x,y))", "--split", "x;y"]
    argv += ["--depth", "2"] if command == "define-global" else ["--epsilon", "1/4"]
    run_fails_cleanly(capsys, argv, 2)
    run_fails_cleanly(capsys, argv + ["--target", "s1", "--target-file", algebra_file], 2)


@pytest.mark.parametrize("command", ["define-median", "define-monotone", "define-global"])
def test_define_names_the_empty_x_tuple(capsys, algebra_file, command):
    """With the x side of the split empty, `--target ""` names its one x-tuple;
    any other name is still a one-line error."""
    argv = [command, algebra_file, "--formula", "mu(one)", "--split", ";"]
    argv += ["--depth", "2"] if command == "define-global" else ["--epsilon", "1/4"]
    code, report = run_json(capsys, argv + ["--target", ""])
    assert code == 0 and report["command"][0] == command
    assert run(argv + ["--target", "s9"]) == 1
    assert capsys.readouterr().err == "contlogic: no x-tuple named 's9'\n"


@pytest.mark.parametrize("kind", ["antisym", "order", "triple"])
@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_stability_max_len_below_one(capsys, halfgraph_file, kind, max_len):
    code = run(["stability", halfgraph_file, "--formula", "phi(x,y)", "--split", "x;y",
                "--epsilon", "1", "--kind", kind, "--max-len", max_len])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip() == "contlogic: max-len must be at least 1"


@pytest.mark.parametrize("key", ["carriers", "metric", "predicates"])
def test_check_structure_missing_section(capsys, algebra_file, tmp_path, key):
    data = json.loads(open(algebra_file).read())
    del data[key]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    run_fails_cleanly(capsys, ["check", str(path)], 1)


def test_synth_on_structure_file(capsys, algebra_file):
    run_fails_cleanly(capsys, ["synth", "--target", algebra_file, "--epsilon", "1/8"], 1)


def test_check_structure_file_not_an_object(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    run_fails_cleanly(capsys, ["check", str(path)], 1)


@pytest.mark.parametrize("content", [{"vals": {}}, ["1", "0"], {"values": {"s0": 1}}])
def test_define_median_bad_target_file(capsys, algebra_file, tmp_path, content):
    tf = tmp_path / "target.json"
    tf.write_text(json.dumps(content))
    run_fails_cleanly(capsys, ["define-median", algebra_file, "--formula", "mu(meet(x,y))",
                               "--split", "x;y", "--epsilon", "1/4", "--target-file", str(tf)], 1)


@pytest.mark.parametrize("missing", ["points", "closed_sets", "metric", None])
def test_cbrank_malformed_space(capsys, tmp_path, missing):
    space = {"points": ["p"], "closed_sets": [[], ["p"]], "metric": [["0"]]}
    if missing is None:
        space = [space]
    else:
        del space[missing]
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    run_fails_cleanly(capsys, ["cbrank", str(path), "--epsilon", "1/2"], 1)


@pytest.mark.parametrize("change", [
    {"closed_sets": [[], ["p", "x"], ["p", "q"]]},
    {"closed_sets": [[], [["p"]], ["p", "q"]]},
    {"closed_sets": [[], "p", ["p", "q"]]},
    {"points": [["p"], "q"]},
    {"metric": ["0 1", "1 0"]},
    {"test_epsilons": "1/2"},
])
def test_cbrank_malformed_members(capsys, tmp_path, change):
    space = {"points": ["p", "q"], "closed_sets": [[], ["p", "q"]],
             "metric": [["0", "1"], ["1", "0"]], **change}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    run_fails_cleanly(capsys, ["cbrank", str(path), "--epsilon", "1/2"], 1)


@pytest.mark.parametrize("section, key", [
    ("functions", "name"), ("functions", "arg_sorts"), ("functions", "target_sort"),
    ("functions", "moduli"), ("predicates", "name"), ("predicates", "moduli"),
    ("sorts", "name"),
])
def test_check_signature_entry_missing_key(capsys, algebra_file, tmp_path, section, key):
    data = json.loads(open(algebra_file).read())
    del data["signature"][section][0][key]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    run_fails_cleanly(capsys, ["check", str(path)], 1)


def _set_entry(section, key, value):
    def mutate(sig):
        sig[section][0][key] = value
    return mutate


def _set_breakpoint(sig):
    sig["functions"][2]["moduli"][0][0] = ["1"]  # compl, the first unary function


@pytest.mark.parametrize("mutate", [
    _set_entry("functions", "moduli", 5),
    _set_breakpoint,
    _set_entry("functions", "arg_sorts", 5),
    _set_entry("predicates", "arg_sorts", 5),
    _set_entry("predicates", "moduli", [5]),
    _set_entry("functions", "name", ["meet"]),
    _set_entry("functions", "target_sort", ["B"]),
    _set_entry("sorts", "metric", ["d"]),
], ids=["moduli-int", "breakpoint-short", "fn-arg-sorts-int", "pred-arg-sorts-int",
        "modulus-int", "name-list", "target-list", "metric-list"])
def test_check_signature_entry_bad_shape(capsys, algebra_file, tmp_path, mutate):
    data = json.loads(open(algebra_file).read())
    mutate(data["signature"])
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    run_fails_cleanly(capsys, ["check", str(path)], 1)


@pytest.mark.parametrize("value, message", [
    (0, "rational literal 0 must be a string"),
    ([["1"]], "rational literal [['1']] must be a string"),
    (None, "rational literal None must be a string"),
    ({"a": 1}, "rational literal {'a': 1} must be a string"),
    ("1/0", "bad rational literal '1/0'"),
])
def test_check_breakpoint_not_a_rational_string(capsys, algebra_file, tmp_path, value, message):
    """Signatures build each distinct breakpoint list once; a bad one still fails in one line.

    The bad value sits in meet's second modulus, after the same identity
    modulus has been built for compl and for meet's first argument.
    """
    data = json.loads(open(algebra_file).read())
    meet, = (f for f in data["signature"]["functions"] if f["name"] == "meet")
    meet["moduli"][1][1][1] = value
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert run(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"contlogic: {message}\n"


@pytest.mark.parametrize("grid", [
    {"arity": 1, "pitch": "0", "values": ["0"]},
    {"arity": "x", "pitch": "1/2", "values": ["0", "0", "0"]},
    {"arity": 1, "pitch": "1/2", "values": ["0", "0"]},
    {"arity": 40, "pitch": "1/2", "values": ["0"]},
])
def test_synth_malformed_grid(capsys, tmp_path, grid):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    run_fails_cleanly(capsys, ["synth", "--target", str(path), "--epsilon", "1/8"], 1)


def bad_literal_input(command, cells):
    """(argv before the input file, its contents, argv after it) for an input
    holding the literals `cells`, in that order, after valid ones."""
    if command == "synth":  # three grid values at pitch 1/2
        values = ["0"] * (3 - len(cells)) + cells
        return ["synth", "--target"], {"arity": 1, "pitch": "1/2", "values": values}, \
            ["--epsilon", "1/2"]
    flat = ["0"] * (4 - len(cells)) + cells
    table = [flat[:2], flat[2:]]
    if command == "cbrank":
        space = {"points": ["p", "q"], "closed_sets": [[], ["p"], ["p", "q"]], "metric": table}
        return ["cbrank"], space, ["--epsilon", "1/2"]
    M = gen_halfgraph(1).to_json()
    M["predicates"]["phi"] = table
    return ["check"], M, []


@pytest.mark.parametrize("cells, message", [
    (["x1", "x2"], "bad rational literal 'x1'"),
    (["2", "3", "5/4"], "value 2 outside [0,1]"),
])
@pytest.mark.parametrize("command", ["check", "cbrank", "synth"])
def test_the_first_bad_literal_is_reported_under_every_hash_seed(tmp_path, command, cells,
                                                                 message):
    before, data, after = bad_literal_input(command, cells)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    script = "from contlogic.cli import main; main()"
    src = str(Path(__file__).resolve().parent.parent / "src")
    lines = {subprocess.run([sys.executable, "-c", script, *before, str(path), *after],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src,
                                 "PYTHONHASHSEED": str(seed)}).stderr
             for seed in range(6)}
    assert lines == {f"contlogic: {message}\n"}


def test_module_entry_runs_the_cli(capsys, tmp_path):
    """`python -m contlogic.cli` is the CLI: on a structure that fails validation
    it prints the report `run` prints and exits 1, and --help exits 0."""
    data = gen_halfgraph(1).to_json()
    data["metric"]["V"] = [["0", "1/2"], ["1/2", "0"]]  # phi changes by 1 over distance 1/2
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(data))
    assert run(["check", str(path)]) == 1
    report = capsys.readouterr().out
    src = str(Path(__file__).resolve().parent.parent / "src")

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "contlogic.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})

    checked = module("check", str(path))
    assert (checked.returncode, checked.stdout, checked.stderr) == (1, report, "")
    helped = module("--help")
    assert helped.returncode == 0 and helped.stdout.startswith("usage: contlogic")


def test_back_to_back_runs_share_no_state(capsys, algebra_file):
    argv = ["tv", algebra_file, "--subset", "s0,s3",
            "--formula", "y@mu(meet(x,y))", "--formula", "y@d(x,y)"]
    assert _parsers().parse_args(argv).formula == ["y@mu(meet(x,y))", "y@d(x,y)"]
    run(argv)
    first = capsys.readouterr().out
    assert _parsers().parse_args(argv).formula == ["y@mu(meet(x,y))", "y@d(x,y)"]
    run(argv)
    assert capsys.readouterr().out == first
    assert run(["tv", algebra_file, "--subset", "s0", "--no-such-flag"]) == 2
    assert run(["check", algebra_file]) == 0
    assert run(["modulus-convert", "--direction", "sideways", "--pl", "0:0,1:1"]) == 2


def test_out_files_hold_the_text_of_json_dumps(capsys, algebra_file, tmp_path):
    out = tmp_path / "out.json"
    code, report = run_json(capsys, ["complete", algebra_file, "--out", str(out)])
    assert code == 0
    assert out.read_text() == json.dumps(report["report"]["structure"], indent=2) + "\n"
    assert run(["check", algebra_file, "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("flags", [["complete", "--out"], ["check", "--out"],
                                   ["prenex", "--formula", "mu(x)", "--out"]])
def test_unwritable_out_path_exits_1(capsys, algebra_file, tmp_path, flags):
    command, *rest = flags
    out = str(tmp_path / "missing-dir" / "out.json")
    run_fails_cleanly(capsys, [command, algebra_file, *rest, out], 1)


@pytest.mark.parametrize("depth", ["0", "17", str(10 ** 30)])
def test_define_global_depth_outside_the_cap_exits_1(capsys, algebra_file, depth):
    run_fails_cleanly(capsys, ["define-global", algebra_file, "--formula", "mu(meet(x,y))",
                               "--split", "x;y", "--target", "s2", "--depth", depth], 1)


def fails_with(capsys, argv, message):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"contlogic: {message}\n"


@pytest.mark.parametrize("command", [
    ["glue", "--phi", "mu(meet(x,y)) -. a", "--psi", "mu(join(x,z))", "--shared", "x",
     "--fresh", "t,w", "--fresh-sort", "B", "--verify"],
    ["tv", "--subset", "s0,s3", "--formula", "y@mu(y) -. a"],
    ["nvalue", "--formula", "mu(meet(x,y)) -. a", "--split", "x,a;y", "--epsilon", "1/2"],
    ["typespace", "--formula", "mu(meet(x,y)) -. a", "--split", "x;y,a"],
], ids=["glue-verify", "tv", "nvalue-split", "typespace-split"])
def test_value_variable_exits_1(capsys, algebra_file, command):
    name, *rest = command
    fails_with(capsys, [name, algebra_file, *rest], "value variable 'a' not bound to a rational")


def test_tv_distinguished_value_variable_exits_1(capsys, algebra_file):
    fails_with(capsys, ["tv", algebra_file, "--subset", "s0,s3", "--formula", "a@mu(y) -. a"],
               "distinguished variable 'a' is a value variable")


def test_tv_empty_subset_exits_1(capsys, halfgraph_file):
    fails_with(capsys, ["tv", halfgraph_file, "--subset", "", "--formula", "y@d(y,y)"],
               "subset is empty in sort V")


@pytest.mark.parametrize("fresh", ["t", "t,", ",w", "t,w,u", " , "])
def test_glue_fresh_needs_two_names(capsys, algebra_file, fresh):
    fails_with(capsys, ["glue", algebra_file, "--phi", "mu(meet(x,y))", "--psi", "mu(join(x,z))",
                        "--shared", "x", "--fresh", fresh, "--fresh-sort", "B"],
               "--fresh must be two variable names: t,w")


@pytest.mark.parametrize("value", ["2", "-1", "3/2"])
@pytest.mark.parametrize("command", ["define-median", "define-monotone", "define-global"])
def test_target_outside_unit_interval_exits_1(capsys, algebra_file, tmp_path, command, value):
    tf = tmp_path / "target.json"
    tf.write_text(json.dumps({"values": {"s0": "0", "s1": "1/2", "s2": value, "s3": "1"}}))
    argv = [command, algebra_file, "--formula", "mu(meet(x,y))", "--split", "x;y",
            "--target-file", str(tf)]
    argv += ["--depth", "2"] if command == "define-global" else ["--epsilon", "1/8"]
    fails_with(capsys, argv, f"target value {value} at parameter 's2' is outside [0, 1]")


@pytest.mark.parametrize("kind, length", [("antisym", 1), ("order", 0), ("triple", 2)])
def test_constant_structure_ladders_revalidate(capsys, tmp_path, kind, length):
    """On a constant structure the order ladder is empty, and it revalidates vacuously."""
    sig = Signature([SortDecl("S", "d")],
                    predicates=[PredDecl("P", ("S", "S"), (IDENTITY, IDENTITY))])
    metric = {"S": [[F(int(i != j)) for j in range(3)] for i in range(3)]}
    table = {(i, j): F(1, 2) for i in range(3) for j in range(3)}
    M = structure(sig, {"S": ["e0", "e1", "e2"]}, metric, {}, {"P": table})
    path = tmp_path / "const.json"
    path.write_text(json.dumps(M.to_json()))
    code, report = run_json(capsys, ["stability", str(path), "--formula", "P(x,y)",
                                     "--split", "x;y", "--epsilon", "1/2", "--kind", kind])
    assert code == 0
    body = report["report"]
    assert body["length"] == length
    assert body["revalidated"] is True


def write_grid(tmp_path, steps, value_at):
    """A 1-D grid file of pitch 1/steps with value_at(k) at the k-th point."""
    target = GridFunction(1, F(1, steps), tuple(map(value_at, range(steps + 1))))
    path = tmp_path / f"grid{steps}.json"
    path.write_text(json.dumps(target.to_json()))
    return str(path)


def run_fails_with(capsys, argv, message):
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"contlogic: {message}\n")


@pytest.mark.parametrize("modulus", ["-1", "-1/16", "2", "17/16"])
def test_synth_step_modulus_outside_unit_interval_exits_1(capsys, tmp_path, modulus):
    path = write_grid(tmp_path, 8, lambda k: F(k, 8))
    run_fails_with(capsys, ["synth", "--target", path, "--epsilon", "1/8",
                            f"--step-modulus={modulus}"], f"value {modulus} outside [0,1]")


def test_synth_slope_cap(capsys, tmp_path):
    """Alternating 0/1 needs slope 1/pitch: 128 passes the cap of 64, 64 meets it."""
    path = write_grid(tmp_path, 128, lambda k: F(k % 2))
    run_fails_with(capsys, ["synth", "--target", path, "--epsilon", "1/4"],
                   "slope 128 exceeds the cap 64 for the pair (0) -> (1/128)")
    path = write_grid(tmp_path, 64, lambda k: F(k % 2))
    code, report = run_json(capsys, ["synth", "--target", path, "--epsilon", "1/4"])
    assert code == 0
    assert report["report"]["max_error"] == "0"


@pytest.mark.parametrize("formula, message", [
    ("sup x. sup y. P(x, f(y, z))", "f expects 1 arguments, got 2"),
    ("dA(c(x), c)", "c expects 0 arguments, got 1"),
])
def test_eval_function_arity_error_exits_1(capsys, tmp_path, formula, message):
    """On two sorts, an extra function argument is reported as such, not as unsortable."""
    sig = Signature([SortDecl("A", "dA"), SortDecl("B", "dB")],
                    functions=[FuncDecl("f", ("A",), "B", (IDENTITY,)),
                               FuncDecl("c", (), "A", ())],
                    predicates=[PredDecl("P", ("A", "B"), (IDENTITY, IDENTITY))])
    discrete = [[F(0), F(1)], [F(1), F(0)]]
    M = structure(sig, {"A": ["a0", "a1"], "B": ["b0", "b1"]},
                  {"A": discrete, "B": discrete},
                  {"f": {(0,): 0, (1,): 1}, "c": {(): 0}},
                  {"P": {(i, j): F(i * j) for i in range(2) for j in range(2)}})
    path = tmp_path / "two-sorted.json"
    path.write_text(json.dumps(M.to_json()))
    fails_with(capsys, ["eval", str(path), "-e", formula], message)


def test_imaginary_name_already_in_the_signature_exits_1(capsys, algebra_file, tmp_path):
    """The expansion adds S_phi, d_phi and P_phi; a signature that has one of them is refused."""
    data = json.loads(open(algebra_file).read())
    data["signature"]["predicates"].append(
        {"name": "P_phi", "arg_sorts": ["B"], "moduli": [[["0", "0"], ["1", "1"]]]})
    data["predicates"]["P_phi"] = ["0"] * len(data["carriers"]["B"])
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(data))
    assert run(["check", str(path)]) == 0
    capsys.readouterr()
    fails_with(capsys, ["imaginary", str(path), "--formula", "mu(meet(x,y))", "--split", "x;y"],
               "name 'P_phi' already used in the signature")


def test_imaginary_on_an_invalid_base_names_its_first_violation(capsys, tmp_path):
    """The message gives the violation's fields as `check` reports them, not a repr."""
    data = gen_prob_algebra([F(1, 4), F(1, 4), F(1, 2)]).to_json()
    data["predicates"]["mu"][3] = "0"
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(data))
    code, report = run_json(capsys, ["check", str(path)])
    assert code == 1 and report["report"]["violations"] == [
        {"kind": "modulus_predicate", "subject": "mu", "witnesses": ["s3", "s7"],
         "detail": "argument 0: change 1 > u(d) = 1/2"}]
    fails_with(capsys, ["imaginary", str(path), "--formula", "mu(meet(x,y))", "--split", "x;y"],
               "base structure fails validation: "
               "modulus_predicate mu (s3, s7): argument 0: change 1 > u(d) = 1/2")


HALF_MODULUS = [["0", "0"], ["1", "1/2"]]


@pytest.mark.parametrize("section, change, message", [
    # a second mu with a stricter modulus, after and before the identity one
    ("predicates", lambda mu: [mu, {**mu, "moduli": [HALF_MODULUS]}],
     "duplicate predicate name 'mu'"),
    ("predicates", lambda mu: [{**mu, "moduli": [HALF_MODULUS]}, mu],
     "duplicate predicate name 'mu'"),
    ("functions", lambda meet: [meet, {**meet, "arg_sorts": ["B"], "moduli": [HALF_MODULUS]}],
     "duplicate function name 'meet'"),
    ("sorts", lambda B: [B, B], "duplicate sort name 'B'"),
], ids=["mu-identity-first", "mu-identity-second", "unary-meet", "sort"])
def test_check_rejects_a_symbol_declared_twice(capsys, tmp_path, section, change, message):
    data = gen_prob_algebra([F(1, 2), F(1, 2)]).to_json()
    entries = data["signature"][section]
    name = message.split("'")[1]
    at = next(i for i, entry in enumerate(entries) if entry["name"] == name)
    entries[at:at + 1] = change(entries[at])
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    fails_with(capsys, ["check", str(path)], message)


def _set_modulus(bps):
    def change(sig):
        sig["predicates"][0]["moduli"] = [bps]
    return change


def _add(section, entry):
    def change(sig):
        sig[section].append(entry)
    return change


@pytest.mark.parametrize("change, message", [
    (lambda sig: ["B"], "signature must be a JSON object"),
    (lambda sig: sig.update(functions={}), "signature functions must be a list"),
    (lambda sig: sig["predicates"].__setitem__(0, "mu"),
     "a signature predicates entry must be an object"),
    (lambda sig: sig["functions"][0].pop("target_sort") and None,
     "a signature functions entry has no 'target_sort'"),
    (lambda sig: sig["sorts"][0].update(name=1), "a signature sorts name must be a string"),
    (lambda sig: sig["predicates"][0].update(arg_sorts="B"),
     "mu: arg_sorts must be a list of sort names"),
    (lambda sig: sig["predicates"][0].update(moduli=[[["0", "0", "0"]]]),
     "mu: moduli must be a list of breakpoint lists, each breakpoint [in, out]"),
    (lambda sig: sig.update(sorts=[]), "a signature needs at least one sort"),
    (_add("sorts", {"name": "C", "metric": "d"}), "metric symbols must be distinct"),
    (_add("predicates", {"name": "meet", "arg_sorts": [], "moduli": []}),
     "function/predicate/metric names must be distinct"),
    (lambda sig: sig["predicates"][0].update(moduli=[]), "mu: one modulus per argument required"),
    (_set_modulus([["0", "1/2"], ["1", "1"]]), "mu: modulus must satisfy u(0) = 0"),
    (lambda sig: sig["predicates"][0].update(arg_sorts=["C"]), "mu: unknown sort C"),
    (lambda sig: sig["functions"][0].update(target_sort="C"), "zero: unknown target sort C"),
    (_set_modulus([["1/2", "0"], ["1", "1"]]),
     "breakpoints must start at input 0 and end at input 1"),
    (_set_modulus([["0", "0"], ["1/2", "1"]]),
     "breakpoints must start at input 0 and end at input 1"),
    (_set_modulus([["0", "0"], ["1/2", "1/2"], ["1/2", "1/2"], ["1", "1"]]),
     "breakpoint inputs must be strictly increasing"),
    (_set_modulus([["0", "0"], ["1/2", "1"], ["1", "1/2"]]),
     "breakpoint outputs must be non-decreasing"),
    (_set_modulus([["0", "0"], ["1", "3/2"]]), "value 3/2 outside [0,1]"),
    (_set_modulus([["0", "0"], ["1", "0.5"]]), "decimal literal '0.5' rejected; use p/q"),
    (_set_modulus([["0", "0"], [1, "1"]]), "rational literal 1 must be a string"),
], ids=["not-an-object", "section-not-a-list", "entry-not-an-object", "missing-key",
        "name-not-a-string", "arg-sorts", "moduli", "no-sorts", "metric-twice",
        "name-clash", "modulus-count", "u0-not-zero", "unknown-sort", "unknown-target",
        "pl-start", "pl-end", "pl-inputs", "pl-outputs", "pl-outside", "pl-decimal",
        "pl-not-a-string"])
def test_check_reports_each_signature_fault(capsys, tmp_path, change, message):
    """A structure file whose signature has one fault fails `check` with a
    one-line message naming it; `change` edits the signature in place or returns
    its replacement."""
    data = gen_prob_algebra([F(1, 2), F(1, 2)]).to_json()
    data["signature"] = change(data["signature"]) or data["signature"]
    path = tmp_path / "signature.json"
    path.write_text(json.dumps(data))
    fails_with(capsys, ["check", str(path)], message)


def test_eval_let_without_equals_exits_1(capsys, algebra_file):
    fails_with(capsys, ["eval", algebra_file, "-e", "mu(x)", "--let", "x"],
               "--let must look like VAR=ELEMENT")


SPLIT_COMMANDS = {
    "typespace": [],
    "nvalue": ["--epsilon", "1/4"],
    "define-median": ["--epsilon", "1/4", "--target", "s1"],
}


@pytest.mark.parametrize("command", SPLIT_COMMANDS)
@pytest.mark.parametrize("formula, split", [
    ("mu(x)", "x;"),  # no parameter variables
    ("mu(one)", ";"),  # no variables at all
    ("mu(meet(x,y))", "x;"),
    ("mu(meet(x,y))", ";"),
])
def test_split_with_an_empty_side(capsys, algebra_file, command, formula, split):
    """An empty side of the split gives a report or a one-line exit-1 error."""
    code = run([command, algebra_file, "--formula", formula, "--split", split,
                *SPLIT_COMMANDS[command]])
    captured = capsys.readouterr()
    if formula == "mu(meet(x,y))":
        assert (code, captured.out) == (1, "")
        assert captured.err == "contlogic: split must partition the free variables ['x', 'y']\n"
    elif code == 1:  # mu(one) has only the empty x-tuple, which no --target names
        assert (command, captured.out) == ("define-median", "")
        assert captured.err == "contlogic: no x-tuple named 's1'\n"
    else:
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["report"]


@pytest.mark.parametrize("command", SPLIT_COMMANDS)
@pytest.mark.parametrize("split", ["x,x;y", "x;y,y", "x;y,x"])
def test_split_with_a_repeated_variable_exits_1(capsys, halfgraph_file, command, split):
    """A variable named twice, on one side or on both, is no partition."""
    fails_with(capsys, [command, halfgraph_file, "--formula", "phi(x,y)", "--split", split,
                        *SPLIT_COMMANDS[command]],
               "split must partition the free variables ['x', 'y']")


@pytest.mark.parametrize("xs, ys", [(["x", "x"], ["y"]), (["x"], ["y", "y"]),
                                    (["x", "y"], ["y"]), (["x"], []), (["x", "y", "z"], [])])
def test_make_split_rejects_what_is_no_partition(xs, ys):
    phi = parse("mu(meet(x,y))", gen_prob_algebra([F(1, 2), F(1, 2)]).sig)
    split = make_split(phi, ["y"], ["x"])
    assert (split.x, split.y) == ((("y", "B"),), (("x", "B"),))
    with pytest.raises(StructuralError, match=r"^split must partition the free variables "):
        make_split(phi, xs, ys)


@pytest.mark.parametrize("command", SPLIT_COMMANDS)
def test_split_without_separator_exits_1(capsys, algebra_file, command):
    fails_with(capsys, [command, algebra_file, "--formula", "mu(x)", "--split", "x",
                        *SPLIT_COMMANDS[command]], "--split must look like x1,x2;y1,y2")


def random_json_value(rng, depth=0):
    """A report-like value: str-keyed dicts, lists, tuples, strings with escapes,
    bools, None and ints of any size, empty containers among them."""
    kind = rng.randrange(8 if depth < 4 else 3)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, -1, 2**64 + 1, -(3**90), rng.randrange(-10**6, 10**6)])
    if kind == 2:
        alphabet = "ab\"\\/\n\t\x00\x1f\x7f \xe9\u20ac\u2028\ud800\udfff\U0001f600"
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))
    items = [random_json_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 3:
        return tuple(items)
    if kind < 6:
        return items
    keys = [random_json_value(rng, 4) for _ in items]
    return {key if isinstance(key, str) else f"k{i}": item
            for i, (key, item) in enumerate(zip(keys, items))}


def test_writer_equals_json_dumps_on_nested_values():
    rng = random.Random(20261019)
    values = [random_json_value(rng) for _ in range(500)]
    values += [{}, [], (), [[]], [{}], {"": {}}, {"a": {"b": []}}, "\ud800", 2**64,
               [None, True, False]]
    for value in values:
        for wrapped in (value, {"report": value}, [value, (value,)]):
            assert cli._json_text(wrapped) == json.dumps(wrapped, indent=2)


INSTANCE = ["M.json", "--formula", "phi(x,y)", "--split", "x;y"]
# each subcommand with every required argument but one
MISSING_ONE = {
    "check": ["check", "--out", "report.json"],
    "eval": ["eval", "M.json"],
    "complete": ["complete"],
    "tv": ["tv", "M.json"],
    "imaginary": ["imaginary", "M.json", "--formula", "phi(x,y)"],
    "typespace": ["typespace", "M.json", "--split", "x;y"],
    "stability": ["stability", *INSTANCE],
    "nvalue": ["nvalue", *INSTANCE],
    "define-median": ["define-median", *INSTANCE, "--epsilon", "1/4"],
    "define-monotone": ["define-monotone", *INSTANCE, "--epsilon", "1/4"],
    "define-global": ["define-global", *INSTANCE, "--target", "s1"],
    "glue": ["glue", "M.json", "--phi", "a", "--psi", "b", "--shared", "x", "--fresh", "t,w"],
    "prenex": ["prenex", "M.json"],
    "cbrank": ["cbrank", "space.json"],
    "synth": ["synth", "--epsilon", "1/4"],
    "modulus-convert": ["modulus-convert", "--direction", "inverse-to-delta"],
}
ODD_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["no-such-command"],
    ["no-such-command", "-h"],
    ["-x", "check"],
    ["check"],
    ["check", "-h"],
    ["stability", *INSTANCE, "--epsilon", "1", "-h"],
    ["check", "M.json", "extra"],
    ["check", "M.json", "extra", "more", "--more"],
    ["check", "M.json", "--no-such-flag"],
    ["check", "M.json", "--no-such-flag=1", "-z"],
    ["stability", "M.json", "--form", "phi(x,y)", "--spl", "x;y", "--eps", "1", "--max", "3"],
    ["stability", *INSTANCE, "--epsilon=1", "--kind=order"],
    ["define-median", *INSTANCE, "--epsilon", "1/4", "--tar", "s1"],
    ["check", "--", "M.json"],
    ["check", "--", "M.json", "--", "x"],
    ["check", "M.json", "--"],
    ["stability", *INSTANCE, "--epsilon", "1", "--kind", "sideways"],
    ["modulus-convert", "--direction", "sideways", "--pl", "0:0,1:1"],
    ["stability", *INSTANCE, "--epsilon", "1", "--max-len", "two"],
    ["stability", *INSTANCE, "--epsilon", "1", "--max-len", "-3"],
    ["define-global", *INSTANCE, "--depth", "2.5", "--target", "s1"],
    ["define-median", *INSTANCE, "--epsilon", "1/4", "--target", "s1", "--target-file", "t"],
    ["define-median", *INSTANCE, "--epsilon", "1/4"],
    ["glue", "M.json", "--phi", "a", "--psi", "b", "--shared", "x", "--fresh", "t,w",
     "--fresh-sort", "E", "--verify", "--verify"],
    ["eval", "M.json", "-e", "mu(x)", "-e", "mu(y)", "--let", "x=s0", "--let", "y=s1"],
    ["tv", "M.json", "--subset", "s0", "--formula", "y@mu(y)", "--formula", "y@d(x,y)"],
    ["synth", "--target", "g.json"],
    ["modulus-convert", "--direction", "inverse-to-delta", "--pl", "0:0,1:1", "-e", "1"],
    ["cbrank", "space.json", "--epsilon", "1/2", "--out"],
    *([name, "--help"] for name in MISSING_ONE),
    *MISSING_ONE.values(),
]


def test_odd_argv_reach_every_subcommand():
    assert list(MISSING_ONE) == list(cli._COMMANDS)


@pytest.mark.parametrize("argv", ODD_ARGV, ids=lambda argv: " ".join(argv) or "(none)")
def test_odd_argv_parse_as_the_top_level_parser_does(capsys, monkeypatch, argv):
    """run gives the exit code, stdout and stderr of the top-level parser on argv,
    and on a successful parse hands the command the namespace that parser builds."""
    try:
        expected = ("args", vars(_parsers().parse_args(argv)))
    except SystemExit as exc:
        expected = ("exit", 2 if exc.code not in (0, None) else 0)
    want = capsys.readouterr()
    monkeypatch.setattr(cli, "_COMMANDS", {
        name: (lambda args: (0, {"args": vars(args)}), help_)
        for name, (_, help_) in cli._COMMANDS.items()})
    code = run(argv)
    got = capsys.readouterr()
    if expected[0] == "args":
        assert (code, got.err) == (0, "")
        assert json.loads(got.out)["report"] == {"args": expected[1]}
    else:
        assert (code, got.out, got.err) == (expected[1], want.out, want.err)


def test_a_command_builds_only_its_own_parser(capsys, algebra_file):
    """run builds the parser of the subcommand argv names, not the top-level one
    with all sixteen, unless argv names no subcommand or has arguments left over."""
    _parsers.cache_clear()
    try:
        assert run(["check", algebra_file]) == 0
        assert _parsers.cache_info().currsize == 1
        assert run(["check", algebra_file, "extra"]) == 2
        assert _parsers.cache_info().currsize == 2
    finally:
        _parsers.cache_clear()
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check", "ALGEBRA"],
    ["complete", "ALGEBRA", "--out", "OUT"],
    ["synth", "--target", "GRID", "--epsilon", "1/4"],
    ["modulus-convert", "--direction", "delta-to-inverse", "--pl", "0:0,1/2:1/4,1:1"],
    ["eval", "ALGEBRA", "-e", "inf y. |mu(meet(y,x)) - half(mu(x))|", "--let", "x=s1"],
    ["tv", "ALGEBRA", "--subset", "s0,s3", "--formula", "y@mu(meet(x,y))"],
    ["prenex", "ALGEBRA", "--formula", "not (sup x. mu(x)) -. (inf y. mu(compl(y)))"],
    ["typespace", "ALGEBRA", "--formula", "mu(meet(x,y))", "--split", "x;y"],
    ["imaginary", "ALGEBRA", "--formula", "mu(meet(x,y))", "--split", "x;y"],
    ["glue", "ALGEBRA", "--phi", "mu(meet(x,y))", "--psi", "mu(join(x,z))", "--shared", "x",
     "--fresh", "t,w", "--fresh-sort", "B", "--verify"],
    ["define-monotone", "ALGEBRA", "--formula", "mu(meet(x,y))", "--split", "x;y",
     "--epsilon", "1/8", "--target", "s1"],
    ["define-median", "ALGEBRA", "--formula", "mu(meet(x,y))", "--split", "x;y",
     "--epsilon", "1/2", "--target", "s1"],
    ["define-global", "ALGEBRA", "--formula", "mu(meet(x,y))", "--split", "x;y",
     "--target", "s2", "--depth", "2"],
    ["nvalue", "HG", "--formula", "phi(x,y)", "--split", "x;y", "--epsilon", "1/2"],
    ["stability", "HG", "--formula", "phi(x,y)", "--split", "x;y", "--epsilon", "1",
     "--kind", "antisym"],
    ["stability", "HG", "--formula", "phi(x,y)", "--split", "x;y", "--epsilon", "1",
     "--kind", "order"],
    ["stability", "HG", "--formula", "phi(x,y)", "--split", "x;y", "--epsilon", "1",
     "--kind", "triple"],
    ["cbrank", "SPACE", "--epsilon", "1/4"],
])
def test_a_command_leaves_no_reference_cycles(capsys, monkeypatch, tmp_path, algebra_file, argv):
    """Parsing argv and writing the report leave nothing for the cyclic collector,
    on commands whose loaders and kernels leave nothing either."""
    monkeypatch.undo()  # the checking writer calls json.dumps, which leaves cycles
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"arity": 1, "pitch": "1/4",
                                "values": ["0", "1/4", "1/2", "1/4", "0"]}))
    halfgraph = tmp_path / "halfgraph.json"
    halfgraph.write_text(json.dumps(gen_halfgraph(3).to_json()))
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "points": ["p", "q", "r"], "closed_sets": [[], ["p"], ["p", "r"], ["p", "q", "r"]],
        "metric": [["0", "1", "1/2"], ["1", "0", "1"], ["1/2", "1", "0"]],
        "test_epsilons": ["1/2"]}))
    words = {"ALGEBRA": algebra_file, "GRID": str(grid), "HG": str(halfgraph),
             "SPACE": str(space), "OUT": str(tmp_path / "out.json")}
    argv = [words.get(word, word) for word in argv]
    assert run(argv) == 0  # first use fills the caches of parsers and imports
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(argv) == 0
        gc.collect()
        left = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert left == []
