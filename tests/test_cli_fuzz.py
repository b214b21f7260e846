"""Seeded fuzzing of every subcommand through `cli.run`.

Each case mutates one JSON input file or the argv of a working command
line: a key or entry dropped, a value of another type, a value nested in a
list or object, an emptied container, a huge int.  Whatever the mutation,
the command must give a report or fail with exit code 1 or 2, never with a
Python traceback.  Exit code 1 comes with a one-line message free of Python
reprs, or with the report of an aborted definition.  The cases are drawn
from a fixed seed and interleaved across subcommands; the run stops at a
10 s deadline so it stays part of Tier-1, and each command runs under a
10 s alarm, so a hang fails too.
"""

import copy
import json
import random
import signal
import time
from fractions import Fraction as F

import pytest

from contlogic.cli import _COMMANDS, run
from oracles import gen_halfgraph, gen_prob_algebra

DEADLINE_S = 10
CASES_PER_COMMAND = 24

PHI = ["--formula", "mu(meet(x,y))", "--split", "x;y"]

ODD_VALUES = [None, True, False, 0, -1, 1.5, "", "x", "1/0", "-1/2", "2", "0.5",
              [], {}, [[]], {"a": "1"}, 10 ** 30, -10 ** 30, str(10 ** 30),
              f"1/{10 ** 30}", "s0", ["s0"], ["0", "1"]]

ODD_ARGS = ["", "-1", "0", "1", "2", "1/0", "0.5", "x", "x,y;", ";", ",", "@", "|",
            str(10 ** 30), f"1/{2 ** 70}", "s0,s0,s0", "not", "sup x.", "med 0(1)",
            "0:0", "1:1,0:0", "0:1/2,1:0"]


def inputs():
    """The JSON files the base command lines read, by name."""
    axis = [F(k, 4) for k in range(5)]
    return {
        "alg": gen_prob_algebra([F(1, 2), F(1, 4), F(1, 4)]).to_json(),
        "hg": gen_halfgraph(2).to_json(),
        "grid": {"arity": 1, "pitch": "1/4",
                 "values": [str(min(2 * t, F(1))) for t in axis]},
        "space": {"points": ["p", "q", "r"],
                  "closed_sets": [[], ["p"], ["p", "r"], ["p", "q", "r"]],
                  "metric": [["0", "1", "1/2"], ["1", "0", "1"], ["1/2", "1", "0"]],
                  "test_epsilons": ["1/2"]},
        "target": {"values": {f"s{i}": str(F(i, 8)) for i in range(8)}},
    }


# argv templates; "@name" is replaced by the path of input file `name`
BASE = {
    "check": ["check", "@alg"],
    "eval": ["eval", "@alg", "-e", "inf y. |mu(meet(y,x)) - half(mu(x))|", "--let", "x=s1"],
    "complete": ["complete", "@alg", "--out", "@out"],
    "tv": ["tv", "@alg", "--subset", "s0,s7", "--formula", "y@mu(meet(x,y))"],
    "imaginary": ["imaginary", "@alg", *PHI],
    "typespace": ["typespace", "@alg", *PHI],
    "stability": ["stability", "@hg", "--formula", "phi(x,y)", "--split", "x;y",
                  "--epsilon", "1", "--kind", "antisym", "--max-len", "4"],
    "nvalue": ["nvalue", "@hg", "--formula", "phi(x,y)", "--split", "x;y", "--epsilon", "1/2"],
    "define-median": ["define-median", "@alg", *PHI, "--epsilon", "1/2", "--target", "s1"],
    "define-monotone": ["define-monotone", "@alg", *PHI, "--epsilon", "1/2",
                        "--target-file", "@target"],
    "define-global": ["define-global", "@alg", *PHI, "--target", "s2", "--depth", "2"],
    "glue": ["glue", "@alg", "--phi", "mu(meet(x,y))", "--psi", "mu(join(x,z))",
             "--shared", "x", "--fresh", "t,w", "--fresh-sort", "B", "--verify"],
    "prenex": ["prenex", "@alg", "--formula", "not (sup x. mu(x)) -. (inf y. mu(y))"],
    "cbrank": ["cbrank", "@space", "--epsilon", "1/4"],
    "synth": ["synth", "--target", "@grid", "--epsilon", "1/8", "--step-modulus", "1/16"],
    "modulus-convert": ["modulus-convert", "--direction", "delta-to-inverse",
                        "--pl", "0:1/8,1/2:1/2,3/4:1/2,1:1"],
}


def json_paths(data, path=()):
    yield path
    if isinstance(data, dict):
        for key, value in data.items():
            yield from json_paths(value, path + (key,))
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from json_paths(value, path + (i,))


def mutate_json(rng, data):
    """A copy of the data with one mutation at one randomly chosen place."""
    data = copy.deepcopy(data)
    path = rng.choice(list(json_paths(data)))
    kind = rng.choice(["drop", "retype", "nest", "empty", "huge"])
    value = data
    for key in path:
        value = value[key]
    if kind == "drop" and path:
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        return kind, path, data
    if kind == "nest":
        new = rng.choice([[value], {"value": value}])
    elif kind == "empty":
        new = type(value)() if isinstance(value, (dict, list, str)) else []
    elif kind == "huge":
        new = rng.choice([10 ** 30, -10 ** 30, str(10 ** 30), f"{10 ** 30}/3"])
    else:
        new = rng.choice(ODD_VALUES)
    if not path:
        return kind, path, new
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return kind, path, data


def mutate_argv(rng, argv):
    argv = list(argv)
    kind = rng.choice(["drop", "replace", "replace", "repeat", "unknown"])
    i = rng.randrange(1, len(argv)) if len(argv) > 1 else 0
    if kind == "drop":
        del argv[i]
    elif kind == "replace":
        argv[i] = rng.choice(ODD_ARGS)
    elif kind == "repeat":
        argv += argv[i:i + 2]
    else:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["--bogus", "-z", "--"]))
    return kind, argv


def cases(rng, base_files):
    """(command, description, argv with @names, overriding inputs), round-robin."""
    per_command = []
    for command, argv in BASE.items():
        files = sorted(a[1:] for a in argv if a.startswith("@") and a != "@out")
        drawn = [(command, "unchanged", argv, {})]
        for _ in range(CASES_PER_COMMAND):
            if files and rng.random() < 0.6:
                name = rng.choice(files)
                kind, path, data = mutate_json(rng, base_files[name])
                drawn.append((command, f"{name} {kind} at {list(path)}", argv, {name: data}))
            else:
                kind, mutated = mutate_argv(rng, argv)
                drawn.append((command, f"argv {kind}", mutated, {}))
        per_command.append(drawn)
    for row in zip(*per_command):
        yield from row


class Hang(Exception):
    pass


def _alarm(signum, frame):
    raise Hang()


def test_every_subcommand_covered():
    assert set(BASE) == set(_COMMANDS)


@pytest.mark.parametrize("command", sorted(BASE))
def test_base_command_line_exits_0(tmp_path, capsys, command):
    """Each unchanged base command line works, so the fuzz starts from a working command."""
    paths = {"out": str(tmp_path / "out.json")}
    for name, data in inputs().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    code = run([paths.get(a[1:], a) if a.startswith("@") else a for a in BASE[command]])
    assert code == 0, capsys.readouterr().err


def test_mutated_inputs_exit_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a mutated --out value is a relative path
    rng = random.Random(20261018)
    base_files = inputs()
    start = time.monotonic()
    ran = 0
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for command, description, argv, override in cases(rng, base_files):
            if time.monotonic() - start > DEADLINE_S:
                break
            paths = {"out": str(tmp_path / "out.json")}
            for name, data in {**base_files, **override}.items():
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps(data))
                paths[name] = str(path)
            real = [paths.get(a[1:], a) if a.startswith("@") else a for a in argv]
            signal.alarm(10)
            try:
                code = run(real)
            except Hang:
                pytest.fail(f"{command}: {description}: no exit within 10 s: {real}")
            except Exception as exc:  # a traceback: report the case that raised it
                pytest.fail(f"{command}: {description}: {type(exc).__name__}: {exc}: {real}")
            finally:
                signal.alarm(0)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (command, description, real)
            assert "Traceback" not in err, (command, description, real)
            if code == 1:  # one line, or an aborted definition's report on stdout
                lines = err.splitlines()
                assert len(lines) == 1 or not lines and '"aborted"' in out, \
                    (command, description, real, err)
                assert "Fraction(" not in err, (command, description, real, err)
            ran += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert ran >= len(BASE)  # at least the unchanged command line of each subcommand


DEEP_FORMULAS = {
    "parens": "(" * 400 + "mu(x)" + ")" * 400,
    "terms": "mu(" + "compl(" * 400 + "x" + ")" * 400 + ")",
    "not": "not " * 1000 + "mu(x)",
    "sup": "".join(f"sup y{i}. " for i in range(1000)) + "mu(x)",
    "monus": " -. ".join(["mu(x)"] * 1001),
}


@pytest.mark.parametrize("command", ["eval", "prenex"])
@pytest.mark.parametrize("shape", DEEP_FORMULAS)
def test_a_deeply_nested_formula_exits_cleanly(tmp_path, capsys, command, shape):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(inputs()["alg"]))
    text = DEEP_FORMULAS[shape]
    argv = (["eval", str(path), "-e", text, "--let", "x=s1"] if command == "eval"
            else ["prenex", str(path), "--formula", text])
    assert run(argv) == 1
    assert capsys.readouterr().err == "contlogic: input nested too deeply\n"


@pytest.mark.parametrize("argv", [["check", "@deep"], ["cbrank", "@deep", "--epsilon", "1/4"],
                                  ["synth", "--target", "@deep", "--epsilon", "1/4"]])
def test_a_deeply_nested_json_input_exits_cleanly(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run([str(path) if a == "@deep" else a for a in argv]) == 1
    assert capsys.readouterr().err == "contlogic: input nested too deeply\n"


@pytest.mark.parametrize("text, message", [
    ("mu(x) -. ²", "unexpected character '²' (at position 9)"),
    ("mu(x) -. 1/²", "unexpected character '²' (at position 11)"),
    ("med ²(mu(x))", "unexpected character '²' (at position 4)"),
    ("mu(x) -. 1/" + "7" * 5000, "integer literal too long (at position 11)"),
])
def test_a_literal_int_cannot_read_exits_cleanly(tmp_path, capsys, text, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(inputs()["alg"]))
    assert run(["eval", str(path), "-e", text, "--let", "x=s1"]) == 1
    assert capsys.readouterr().err == f"contlogic: {message}\n"
