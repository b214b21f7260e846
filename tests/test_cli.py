"""End-to-end command-line tests: dispatch, exit codes, report determinism."""

import json
from fractions import Fraction as F

import pytest

from contlogic.cli import run
from contlogic.language import PLMonotone, PredDecl, Signature, SortDecl
from contlogic.structures import FiniteStructure, gen_halfgraph, gen_prob_algebra
from contlogic.synthesis import GridFunction
from oracles import glued_halfgraph


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
    target = GridFunction(1, F(1, 8), {(t,): min(2 * t, F(1)) for t in axis})
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


def test_back_to_back_runs_share_no_state(capsys, algebra_file):
    from contlogic.cli import _build_parser

    argv = ["tv", algebra_file, "--subset", "s0,s3",
            "--formula", "y@mu(meet(x,y))", "--formula", "y@d(x,y)"]
    assert _build_parser().parse_args(argv).formula == ["y@mu(meet(x,y))", "y@d(x,y)"]
    run(argv)
    first = capsys.readouterr().out
    assert _build_parser().parse_args(argv).formula == ["y@mu(meet(x,y))", "y@d(x,y)"]
    run(argv)
    assert capsys.readouterr().out == first
    assert run(["tv", algebra_file, "--subset", "s0", "--no-such-flag"]) == 2
    assert run(["check", algebra_file]) == 0
    assert run(["modulus-convert", "--direction", "sideways", "--pl", "0:0,1:1"]) == 2


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
], ids=["glue-verify", "tv"])
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
    identity = PLMonotone.identity()
    sig = Signature([SortDecl("S", "d")],
                    predicates=[PredDecl("P", ("S", "S"), (identity, identity))])
    metric = {"S": [[F(int(i != j)) for j in range(3)] for i in range(3)]}
    table = {(i, j): F(1, 2) for i in range(3) for j in range(3)}
    M = FiniteStructure(sig, {"S": ["e0", "e1", "e2"]}, metric, {}, {"P": table})
    path = tmp_path / "const.json"
    path.write_text(json.dumps(M.to_json()))
    code, report = run_json(capsys, ["stability", str(path), "--formula", "P(x,y)",
                                     "--split", "x;y", "--epsilon", "1/2", "--kind", kind])
    assert code == 0
    body = report["report"]
    assert body["length"] == length
    assert body["revalidated"] is True
