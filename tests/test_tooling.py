"""Checks on the source tree: the benchmark's tracer wraps contlogic functions by name,
so those names must exist, and `src/` holds no code that only the tests call."""

import argparse
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

# the CLI imports it on first use, and the tracer patches only loaded modules
import contlogic.imaginaries  # noqa: F401
from contlogic.cli import run
from oracles import gen_prob_algebra

ROOT = Path(__file__).resolve().parent.parent
LAYERTRACE = ROOT / "bench" / "layertrace.py"
SRC = ROOT / "src" / "contlogic"

# documented library entry points that nothing in src/ calls: the console
# script, the synthesis and topometric helpers the API offers beside the CLI,
# and the Fraction view of a modulus, which src/ reads as ints (the names the
# tracer wraps are added below)
LIBRARY_ENTRY_POINTS = {
    "cli.main",
    "synthesis.eval_on_grid",
    "synthesis.verify_synthesis",
    "topometric.cb_derivative",
    "topometric.epsilon_degree",
    "values.PLMonotone.breakpoints",
    "values.PLMonotone.eval",
}


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_every_traced_name_is_a_callable():
    layertrace = load_layertrace()
    missing = []
    for short, attrs in layertrace.WRAPPED.items():
        module = importlib.import_module(f"contlogic.{short}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"contlogic.{short}.{attr}")
    assert not missing, missing


def test_tracer_sees_every_stage_of_the_instance_commands(capsys, tmp_path):
    """Each traced stability and imaginaries stage these commands reach records a call,
    and tracing changes no report."""
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(gen_prob_algebra([F(1, 4), F(1, 4), F(1, 2)]).to_json()))
    instance = [str(path), "--formula", "mu(meet(x,y))", "--split", "x;y"]
    commands = [
        ["typespace", *instance],
        ["stability", *instance, "--epsilon", "1/4", "--kind", "triple"],
        ["nvalue", *instance, "--epsilon", "1/4"],
        ["define-median", *instance, "--epsilon", "1/4", "--target", "s3"],
        ["define-monotone", *instance, "--epsilon", "1/8", "--target", "s5"],
        ["define-global", *instance, "--depth", "2", "--target", "s1"],
        ["imaginary", *instance],
    ]

    untraced, traced, calls = run_traced(capsys, commands)
    assert [code for code, _ in untraced] == [0] * len(commands)
    assert traced == untraced
    reached = [f"{short}.{attr}" for short in ("stability", "imaginaries")
               for attr in load_layertrace().WRAPPED[short] if attr != "glue_formula"]
    assert [name for name in reached if not calls.get(f"{name}.calls")] == []


def test_tracer_sees_the_topometric_and_synthesis_stages(capsys, tmp_path):
    """A traced cbrank and synth record calls of the loaders and kernels the
    tracer wraps, which a wrapper it cannot install (on a classmethod, say)
    would lose, and tracing changes no report."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "points": ["p", "q", "r"], "closed_sets": [[], ["p"], ["p", "q"], ["p", "q", "r"]],
        "metric": [["0", "1/4", "1"], ["1/4", "0", "1"], ["1", "1", "0"]],
        "test_epsilons": ["1/8"]}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"arity": 1, "pitch": "1/4",
                                "values": ["0", "1/4", "1/2", "1/4", "0"]}))
    commands = [["cbrank", str(space), "--epsilon", "1/2"],
                ["synth", "--target", str(grid), "--epsilon", "1/4"]]
    untraced, traced, calls = run_traced(capsys, commands)
    assert [code for code, _ in untraced] == [0, 0]
    assert traced == untraced
    reached = ["topometric.from_json", "topometric.cb_rank", "synthesis.from_json",
               "synthesis.synthesize"]
    assert [name for name in reached if not calls.get(f"{name}.calls")] == []


def run_traced(capsys, commands):
    """Each command's (exit code, stdout), run plain and then under an
    installed tracer, and the traced pass's summary."""

    def reports(recorder=None):
        out = []
        for argv in commands:
            root = recorder.open_command() if recorder else None
            code = run(argv)
            text = capsys.readouterr().out
            if recorder:
                recorder.close_command(root, len(text))
            out.append((code, text))
        return out

    untraced = reports()
    recorder = load_layertrace().Recorder()
    recorder.install()
    try:
        traced = reports(recorder)
    finally:
        recorder.uninstall()
    return untraced, traced, recorder.summary()


def _module_state():
    """(id of each contlogic module global, size of each module-level dict, list
    and set, the names with a `cache_info`), keyed by "module.name"."""
    ids, sizes, cached = {}, {}, set()
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "contlogic":
            continue
        for name, value in vars(module).items():
            key = f"{module_name}.{name}"
            ids[key] = id(value)
            if isinstance(value, (dict, list, set)):
                sizes[key] = len(value)
            members = vars(value).items() if isinstance(value, type) else [(None, value)]
            for member, attr in members:
                if hasattr(getattr(attr, "__func__", attr), "cache_info"):
                    cached.add(key if member is None else f"{key}.{member}")
    return ids, sizes, cached


def test_no_state_derived_from_input_survives_a_command(capsys, tmp_path):
    """One command of each structure subcommand, on a file and formulas no other
    test uses, leaves every contlogic module global bound as it was and no
    module-level container larger (but the input hashes, which the next command
    clears), and `cli._parsers` is the one function with a cache: so no memo
    keyed by a file, a signature or a formula outlives a command."""
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(gen_prob_algebra([F(2, 7), F(5, 7)]).to_json()))
    alg = str(path)
    instance = [alg, "--formula", "mu(meet(x,y)) -. 1/7", "--split", "x;y"]
    commands = [
        ["check", alg],
        ["eval", alg, "-e", "sup x. mu(x) -. 1/7"],
        ["complete", alg, "--out", str(tmp_path / "completed.json")],
        ["tv", alg, "--subset", "s0,s3", "--formula", "y@d(x,y) -. 1/7"],
        ["imaginary", *instance, "--out", str(tmp_path / "imag")],
        ["typespace", *instance],
        ["stability", *instance, "--epsilon", "1/7"],
        ["nvalue", *instance, "--epsilon", "1/7"],
        ["define-median", *instance, "--epsilon", "1/7", "--target", "s1"],
        ["define-monotone", *instance, "--epsilon", "1/7", "--target", "s1"],
        ["define-global", *instance, "--depth", "2", "--target", "s1"],
        ["glue", alg, "--phi", "mu(meet(x,y)) -. 1/7", "--psi", "mu(join(x,z))",
         "--shared", "x", "--fresh", "t,w", "--fresh-sort", "B", "--verify"],
        ["prenex", alg, "--formula", "sup x. mu(x) -. 1/7"],
    ]
    ids, sizes, _ = _module_state()
    codes = []
    for argv in commands:
        codes.append(run(argv))
        capsys.readouterr()
    assert codes == [0] * len(commands)
    after_ids, after_sizes, cached = _module_state()
    assert {key for key in after_ids if ids.get(key) != after_ids[key]} == set()
    grown = {key for key, n in after_sizes.items() if n > sizes[key]}
    assert grown <= {"contlogic.cli._INPUT_HASHES"}
    assert cached == {"contlogic.cli._parsers"}


def _references(tree) -> list:
    """Every name a tree reads, as a bare name or as an attribute."""
    return [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def test_every_public_name_in_src_is_used_in_src():
    """Each public top-level function or class of src/contlogic, and each public
    method or property of a class there, is referenced in src/ outside its own
    definition, or is a library entry point; test-only code belongs in
    tests/oracles.py."""
    wrapped = {f"{short}.{attr}" for short, attrs in load_layertrace().WRAPPED.items()
               for attr in attrs}
    allowed = LIBRARY_ENTRY_POINTS | wrapped
    uses: Counter = Counter()
    defined = {}  # "module.name" or "module.Class.name" -> references to the name inside it
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        uses.update(_references(tree))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(f"{node.name}.{m.name}", m) for m in node.body
                       if isinstance(node, ast.ClassDef) and isinstance(m, ast.FunctionDef)]
            for name, definition in [(node.name, node), *members]:
                short = name.rpartition(".")[2]
                if not short.startswith("_"):
                    defined[f"{path.stem}.{name}"] = _references(definition).count(short)
    assert sorted(LIBRARY_ENTRY_POINTS - set(defined)) == []
    unused = [name for name, own in defined.items()
              if uses[name.rpartition(".")[2]] == own and name not in allowed]
    assert unused == []


def test_cli_reads_no_private_argparse_attribute():
    """cli.py reads argparse parsers, groups and actions only through public
    names, so its exact pass over a subcommand's actions holds on every Python
    argparse that pyproject.toml allows."""
    parser = argparse.ArgumentParser()
    group = parser.add_mutually_exclusive_group()
    objects = (parser, group, parser.add_argument("--a"), group.add_argument("--b"),
               parser.add_subparsers())
    private = {name for obj in objects for name in dir(obj)
               if name.startswith("_") and not name.startswith("__")}
    assert {"_actions", "_option_string_actions", "_mutually_exclusive_groups",
            "_group_actions", "_registries"} <= private
    tree = ast.parse((SRC / "cli.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(read & private) == []


def test_reports_have_one_writer():
    """No `json.dumps(..., indent=...)` is left in src/contlogic: every report and
    --out file goes through the CLI's one writer."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dumps"
                    and any(kw.arg == "indent" for kw in node.keywords)):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_no_module_imports_dataclasses():
    """The value classes are NamedTuples and `__slots__` classes: a `@dataclass`
    generates its methods' code each time its module is imported."""
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                imports.append(f"{path.name}:{node.lineno}")
    assert imports == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter that imports the CLI has not imported `dataclasses`, nor
    `inspect`, which it imports and which costs more still."""
    code = "import sys, contlogic.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _recursive_closures(node, name: str) -> list:
    """The qualified names of the functions nested in a function under node
    that call themselves, directly or through a sibling nested function."""
    defs = _direct_defs(node)
    found = []
    if isinstance(node, ast.FunctionDef):
        reads = {d.name: set(_references(d)) for d in defs if isinstance(d, ast.FunctionDef)}
        for start in reads:
            seen, todo = set(), [start]
            while todo:
                for callee in reads[todo.pop()] & reads.keys() - seen:
                    seen.add(callee)
                    todo.append(callee)
            if start in seen:
                found.append(f"{name}.{start}")
    for d in defs:
        found += _recursive_closures(d, f"{name}.{d.name}")
    return found


def _direct_defs(node) -> list:
    """The functions and classes defined in node, not inside another one."""
    out = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            out.append(child)
        elif not isinstance(child, ast.Lambda):
            stack.extend(ast.iter_child_nodes(child))
    return out


def test_no_nested_function_is_recursive():
    """A nested function that calls itself sits in a reference cycle with its
    closure cell, which the cyclic collector must free after every call."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _recursive_closures(ast.parse(path.read_text()), path.stem)
    assert found == []
