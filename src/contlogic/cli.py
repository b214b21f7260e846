"""Command-line front end: file loading, dispatch, deterministic JSON reports.

Every report embeds the tool version, a sha256 of each input file, and the
exact command line.  Values are exact rationals serialized as "p/q".
Exit codes: 0 success, 1 domain or validation failure (a report is still
emitted when one exists), 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

from . import __version__
from .errors import ContlogicError, DefinitionAbort, DomainError
from .language import (
    VALUE_SORT,
    PLMonotone,
    Signature,
    free_vars,
    parse,
    prenex,
    print_formula,
)
from .stability import (
    compute_N,
    find_ladder,
    global_definition,
    glue_formula,
    median_definition,
    monotone_definition,
    phi_type,
    phi_type_space,
    revalidate_ladder,
)
from .structures import (
    FiniteStructure,
    PhiInstance,
    compile_row,
    complete_structure,
    env_from_names,
    eval_formula,
    is_elementary_substructure,
    make_split,
    validate,
)
from .synthesis import GridFunction, expression_text, synthesize
from .topometric import FiniteTopometricSpace, cb_rank
from .values import format_ratio, format_rational, parse_ratio, parse_rational

_INPUT_HASHES: dict = {}


def _json_text(obj, newline: str = "\n") -> str:
    """`json.dumps(obj, indent=2)`, for the str, int, bool, None, list, tuple and
    str-keyed dict values that reports hold; `newline` is the line break and
    indentation before obj's closing bracket."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:  # a list of strings in one join; encode_basestring_ascii takes only str
            items = ("," + inner).join(map(encode_basestring_ascii, obj))
        except TypeError:
            items = ("," + inner).join([_json_text(v, inner) for v in obj])
        return "[" + inner + items + newline + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _read_json(path: str) -> dict:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    _INPUT_HASHES[path] = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {path}: {exc}") from exc


def _load_structure(path: str) -> FiniteStructure:
    data = _read_json(path)
    sig = None
    ref = data.get("signature") if isinstance(data, dict) else None
    if isinstance(ref, str):
        sig = Signature.from_json(_read_json(str(Path(path).parent / ref)))
    return FiniteStructure.from_json(data, sig)


def _parse_pl(text: str) -> PLMonotone:
    points = []
    for chunk in text.split(","):
        left, _, right = chunk.partition(":")
        if not right:
            raise DomainError(f"breakpoint {chunk!r} must look like in:out")
        points.append((*parse_ratio(left), *parse_ratio(right)))
    return PLMonotone.through(points)


def _fmt_pl(u: PLMonotone) -> str:
    return ",".join(f"{x}:{y}" for x, y in u.formatted())


def _split_from_flag(text: str):
    x_part, sep, y_part = text.partition(";")
    if not sep:
        raise DomainError("--split must look like x1,x2;y1,y2")
    xs = [v.strip() for v in x_part.split(",") if v.strip()]
    ys = [v.strip() for v in y_part.split(",") if v.strip()]
    return xs, ys


def _instance(args) -> PhiInstance:
    """The structure file, formula and split of a command, built into one instance."""
    M = _load_structure(args.structure)
    phi = parse(args.formula, M.sig)
    xs, ys = _split_from_flag(args.split)
    return PhiInstance(M, phi, make_split(phi, xs, ys))


def _target_vector_from_flags(inst, args):
    if args.target is not None:
        # "" names the empty x-tuple of a split whose x side is empty
        names = tuple(v.strip() for v in args.target.split(",")) if args.target.strip() else ()
        want = inst.x_index.get(names)
        if want is None:
            raise DomainError(f"no x-tuple named {args.target!r}")
        return phi_type(inst, want)
    data = _read_json(args.target_file)
    if not isinstance(data, dict) or not isinstance(data.get("values"), dict):
        raise DomainError(f"target file {args.target_file} needs a 'values' object")
    values = []
    for names in inst.y_names:
        key = ",".join(names)
        if key not in data["values"]:
            raise DomainError(f"target file misses parameter {key!r}")
        values.append(parse_rational(data["values"][key]))
    return tuple(values)


# ---------------------------------------------------------------------------
# Command handlers (each returns exit_code, report_payload)


def _cmd_check(args):
    M = _load_structure(args.structure)
    report = validate(M)
    return (0 if report.valid else 1), report.to_json()


def _cmd_eval(args):
    M = _load_structure(args.structure)
    f = parse(args.formula, M.sig)
    bindings = {}
    for binding in args.let or []:
        name, sep, elem = map(str.strip, binding.partition("="))
        if not sep:
            raise DomainError("--let must look like VAR=ELEMENT")
        if name in bindings:
            raise DomainError(f"--let binds {name!r} twice")
        bindings[name] = elem
    value = eval_formula(M, env_from_names(M, bindings, f), f)
    return 0, {"formula": print_formula(f, M.sig), "value": format_rational(value)}


def _cmd_complete(args):
    M = _load_structure(args.structure)
    result = complete_structure(M)
    structure = result.structure.to_json()
    payload = {
        "classes": {sort: [{"representative": rep, "members": members}
                           for rep, members in classes]
                    for sort, classes in result.classes.items()},
        "structure": structure,
    }
    if args.out:
        Path(args.out).write_text(_json_text(structure) + "\n")
        payload["written"] = args.out
    return 0, payload


def _cmd_tv(args):
    M = _load_structure(args.structure)
    subset = {}
    for chunk in args.subset.split("|"):
        sort, prefixed, names = chunk.partition(":")
        if not prefixed:
            sort, names = M.sig.single_sort(), chunk
        if sort is None:
            raise DomainError("--subset needs sort prefixes on multi-sorted structures")
        sort = sort.strip()
        if sort not in M.sig.sorts:
            raise DomainError(f"--subset names unknown sort {sort!r}")
        if sort in subset:
            raise DomainError(f"--subset names sort {sort!r} twice")
        subset[sort] = [v.strip() for v in names.split(",") if v.strip()]
    formulas = []
    for text in args.formula or []:
        var, _, body = text.partition("@")
        if not body:
            raise DomainError("each --formula must look like y@<formula text>")
        formulas.append((parse(body, M.sig), var.strip()))
    ok, witness = is_elementary_substructure(M, subset, formulas)
    payload = {"elementary_for_family": ok}
    if witness is not None:
        payload["witness"] = {
            "formula": print_formula(witness["formula"], M.sig),
            "tuple": list(witness["tuple"]),
            "inf_over_structure": format_rational(witness["inf_over_structure"]),
            "inf_over_subset": format_rational(witness["inf_over_subset"]),
        }
    return (0 if ok else 1), payload


def _cmd_imaginary(args):
    from .imaginaries import build_imaginary, verify_tphi

    inst = _instance(args)
    E = build_imaginary(inst)
    ok, rows = verify_tphi(E)
    payload = {
        "classes": {name: list(inst.y_names[members[0]])
                    for name, members in zip(E.class_names, E.class_members)},
        "class_count": len(E.class_names),
        "t_phi": [{"name": r["name"], "value": format_rational(r["value"]),
                   "holds": r["holds"]} for r in rows],
        "all_zero": ok,
    }
    if args.out:
        base = Path(args.out)
        base.with_suffix(".structure.json").write_text(
            _json_text(E.expanded.to_json()) + "\n")
        base.with_suffix(".classes.json").write_text(_json_text(payload["classes"]) + "\n")
        payload["written"] = [str(base.with_suffix(".structure.json")),
                              str(base.with_suffix(".classes.json"))]
    return (0 if ok else 1), payload


def _cmd_typespace(args):
    inst = _instance(args)
    space = phi_type_space(inst)
    text = {v: format_ratio(v, space.scale) for v in set().union(*space.rows, *space.distances)}
    payload = {
        "point_count": len(space.rows),
        "points": [
            {"realizers": [",".join(inst.x_names[i]) for i in reals],
             "values": list(map(text.__getitem__, row))}
            for row, reals in zip(space.rows, space.realizers)
        ],
        "metric": [list(map(text.__getitem__, row)) for row in space.distances],
    }
    return 0, payload


def _cmd_stability(args):
    inst = _instance(args)
    witness = find_ladder(inst, parse_rational(args.epsilon), args.kind, max_len=args.max_len)
    payload = {
        "kind": witness.kind,
        "epsilon": format_rational(witness.epsilon),
        "length": len(witness),
        "pairs": [{"a": list(a), "b": list(b)} for a, b in witness.pairs],
        "at_searched_bound": witness.at_searched_bound,
        "revalidated": revalidate_ladder(inst, witness),
    }
    if witness.r is not None:
        payload["r"] = format_rational(witness.r)
        payload["s"] = format_rational(witness.s)
    return 0, payload


def _cmd_nvalue(args):
    inst = _instance(args)
    eps = parse_rational(args.epsilon)
    return 0, {"epsilon": format_rational(eps), "N": compute_N(inst, eps)}


def _cmd_define_median(args):
    inst = _instance(args)
    target = _target_vector_from_flags(inst, args)
    d = median_definition(inst, parse_rational(args.epsilon), target)
    return 0, {
        "epsilon": format_rational(d.epsilon),
        "N": d.n_value,
        "parameters": [",".join(names) for names in d.parameter_names],
        "observed_error": format_rational(d.observed_error),
        "defined_values": [format_rational(v) for v in d.defined_values],
    }


def _cmd_define_monotone(args):
    inst = _instance(args)
    target = _target_vector_from_flags(inst, args)
    d = monotone_definition(inst, parse_rational(args.epsilon), target)
    return 0, {
        "epsilon": format_rational(d.epsilon),
        "parameters": [",".join(names) for names in d.parameter_names],
        "observed_error": format_rational(d.observed_error),
        "bound": format_rational(3 * d.epsilon),
        "rounds": len(d.records),
    }


def _cmd_define_global(args):
    inst = _instance(args)
    d = global_definition(inst, _target_vector_from_flags(inst, args), args.depth)
    return 0, {
        "depth": d.depth,
        "error_bound": format_rational(d.error_bound),
        "stage_epsilons": [format_rational(st.epsilon) for st in d.stages],
        "final_values": [format_rational(v) for v in d.final_values],
        "max_error": format_rational(max(d.errors)) if d.errors else "0",
    }


def _cmd_glue(args):
    fresh = tuple(name.strip() for name in args.fresh.split(","))
    if len(fresh) != 2 or not all(fresh):
        raise DomainError("--fresh must be two variable names: t,w")
    M = _load_structure(args.structure)
    phi = parse(args.phi, M.sig)
    psi = parse(args.psi, M.sig)
    chi = glue_formula(phi, psi, args.shared, fresh, args.fresh_sort, M.sig)
    payload = {"chi": print_formula(chi, M.sig)}
    if args.verify:
        payload["identities"] = _verify_glue(M, phi, psi, chi, fresh, args.fresh_sort)
    return 0, payload


def _verify_glue(M, phi, psi, chi, fresh, fresh_sort):
    """Whether chi equals phi at the first pair (t, w) at distance 1 and psi at (t, t).

    All three formulas are evaluated as rows over the last free variable of
    phi and psi; values over different scales are compared cross-multiplied.
    """
    fv = sorted(v for v in free_vars(phi) | free_vars(psi) if v[1] != VALUE_SORT)
    n = M.sizes[fresh_sort]
    dist = M.metric_table[fresh_sort]
    if dist.den not in dist.cells:
        raise DomainError(f"no pair at distance 1 in sort {fresh_sort}")
    e0, e1 = divmod(dist.cells.index(dist.den), n)  # the first pair at distance 1
    # a value variable is not among the variables, so compiling reports it unbound
    variables = [(fresh[0], fresh_sort), (fresh[1], fresh_sort), *fv]
    (chi_row, chi_scale), (phi_row, phi_scale), (psi_row, psi_scale) = (
        compile_row(M, f, variables) for f in (chi, phi, psi))

    pools = [range(M.sizes[s]) for _, s in fv[:-1]]

    def recovers(row, scale, t, w):  # one (t, w) at a time, so chi's tabled rows are reused
        return all(list(map(scale.__mul__, chi_row((t, w, *combo))))
                   == list(map(chi_scale.__mul__, row((t, w, *combo))))
                   for combo in itertools.product(*pools))

    return {"recovers_phi_at_distance_1": recovers(phi_row, phi_scale, e0, e1),
            "recovers_psi_at_distance_0": recovers(psi_row, psi_scale, e0, e0)}


def _cmd_cbrank(args):
    X = FiniteTopometricSpace.from_json(_read_json(args.space))
    eps = parse_rational(args.epsilon)
    res = cb_rank(X, eps)
    return 0, {
        "epsilon": format_rational(eps),
        "ranks": {X.points[p]: ("infinity" if r is None else r)
                  for p, r in sorted(res.ranks.items())},
        "stages": [sorted(X.points[p] for p in S) for S in res.stages],
        "degrees": res.degrees,
        "stationary": res.stationary,
    }


def _cmd_synth(args):
    target = GridFunction.from_json(_read_json(args.target))
    step = parse_rational(args.step_modulus) if args.step_modulus else None
    res = synthesize(target, parse_rational(args.epsilon), step_modulus=step)
    text = expression_text(res)
    return 0, {
        "expression": text if text is not None else "(too large to write out)",
        "max_error": format_rational(res.max_error),
        "distinct_nodes": res.size,
        "written_out_nodes": res.written_out_nodes,
        "requested_epsilon": format_rational(res.requested_epsilon),
    }


def _cmd_modulus_convert(args):
    u = _parse_pl(args.pl)
    if args.direction == "inverse-to-delta":
        from .values import delta_from_inverse

        if args.epsilon is None:
            raise DomainError("--epsilon is required for inverse-to-delta")
        delta = delta_from_inverse(u)
        return 0, {"delta": format_rational(delta(parse_rational(args.epsilon)))}
    from .values import inverse_from_delta

    if args.epsilon is not None:
        raise DomainError("--epsilon applies only to inverse-to-delta")
    return 0, {"inverse": _fmt_pl(inverse_from_delta(u))}


def _cmd_prenex(args):
    M = _load_structure(args.structure)
    f = parse(args.formula, M.sig)
    return 0, {"prenex": print_formula(prenex(f), M.sig)}


# each subcommand's handler and help, in the order the top-level usage lists them
_COMMANDS = {
    "check": (_cmd_check, "validate the metric and modulus axioms"),
    "eval": (_cmd_eval, "evaluate a formula"),
    "complete": (_cmd_complete, "quotient by zero distance"),
    "tv": (_cmd_tv, "Tarski-Vaught test for a formula family"),
    **{name: (handler, f"{name} for a formula with a split") for name, handler in (
        ("imaginary", _cmd_imaginary),
        ("typespace", _cmd_typespace),
        ("stability", _cmd_stability),
        ("nvalue", _cmd_nvalue),
        ("define-median", _cmd_define_median),
        ("define-monotone", _cmd_define_monotone),
        ("define-global", _cmd_define_global),
    )},
    "glue": (_cmd_glue, "glue two formulas sharing a variable"),
    "prenex": (_cmd_prenex, "prenex normal form of a formula"),
    "cbrank": (_cmd_cbrank, "epsilon-Cantor-Bendixson ranks"),
    "synth": (_cmd_synth, "synthesize a connective expression"),
    "modulus-convert": (_cmd_modulus_convert, "convert continuity moduli"),
}


def _add_arguments(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give p the arguments of subcommand `name`; returns p."""
    report_out = functools.partial(p.add_argument, "--out", dest="report_out",
                                   help="also write the report here")
    if name == "cbrank":
        report_out()
        p.add_argument("space", help="topometric space JSON file")
        p.add_argument("--epsilon", required=True)
        return p
    if name == "synth":
        report_out()
        p.add_argument("--target", required=True, help="grid function JSON file")
        p.add_argument("--epsilon", required=True)
        p.add_argument("--step-modulus", dest="step_modulus")
        return p
    if name == "modulus-convert":
        report_out()
        p.add_argument("--direction", required=True,
                       choices=["inverse-to-delta", "delta-to-inverse"])
        p.add_argument("--pl", required=True, help="breakpoints in:out,in:out")
        p.add_argument("--epsilon")
        return p
    p.add_argument("structure", help="structure JSON file")
    if name == "complete":
        p.add_argument("--out", help="write the completed structure here")
    elif name == "eval":
        report_out()
        p.add_argument("--formula", "-e", required=True)
        p.add_argument("--let", action="append", metavar="VAR=ELEMENT")
    elif name == "tv":
        report_out()
        p.add_argument("--subset", required=True, help="a,b or Sort:a,b|Sort2:c")
        p.add_argument("--formula", action="append", metavar="Y@TEXT")
    elif name == "glue":
        report_out()
        p.add_argument("--phi", required=True)
        p.add_argument("--psi", required=True)
        p.add_argument("--shared", required=True)
        p.add_argument("--fresh", required=True, help="t,w")
        p.add_argument("--fresh-sort", dest="fresh_sort", required=True)
        p.add_argument("--verify", action="store_true")
    elif name == "prenex":
        report_out()
        p.add_argument("--formula", required=True)
    elif name == "check":
        report_out()
    else:  # a formula with a split
        p.add_argument("--formula", required=True)
        p.add_argument("--split", required=True, help="x1,x2;y1,y2")
        if name == "imaginary":
            p.add_argument("--out", help="basename for the expansion and class files")
        else:
            report_out()
        if name in ("stability", "nvalue", "define-median", "define-monotone"):
            p.add_argument("--epsilon", required=True)
        if name == "stability":
            p.add_argument("--kind", choices=["antisym", "order", "triple"],
                           default="antisym")
            p.add_argument("--max-len", type=int, dest="max_len")
        if name.startswith("define-"):
            target = p.add_mutually_exclusive_group(required=True)
            target.add_argument("--target", help="comma-joined x-tuple element names")
            target.add_argument("--target-file", dest="target_file",
                                help="JSON file with a values map")
        if name == "define-global":
            p.add_argument("--depth", type=int, required=True)
    return p


@functools.cache
def _parsers(name: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of subcommand `name`, which reads the arguments after the name
    and writes the help and errors the top-level parser would hand it; with no
    name, the top-level parser holding every subcommand.  Each is built on first
    use, and each parse fills a fresh namespace."""
    if name is not None:
        return _add_arguments(argparse.ArgumentParser(prog=f"contlogic {name}"), name)
    top = argparse.ArgumentParser(prog="contlogic", description="continuous-logic workbench")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help_) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_), name)
    return top


def run(argv) -> int:
    """Dispatch a command line; prints the JSON report on stdout."""
    _INPUT_HASHES.clear()
    # argv naming no subcommand (none, -h, unknown) goes to the top-level parser;
    # extra arguments after a subcommand are the top-level parser's error
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        if name is None:
            args = _parsers().parse_args(argv)
        else:
            args, extra = _parsers(name).parse_known_args(argv[1:])
            if extra:
                _parsers().error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = name
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    def emit(code, payload):
        report = {
            "tool": "contlogic",
            "version": __version__,
            "command": list(argv),
            "inputs": dict(sorted(_INPUT_HASHES.items())),
            "report": payload,
        }
        out = _json_text(report)
        if getattr(args, "report_out", None):
            Path(args.report_out).write_text(out + "\n")
        print(out)
        return code

    try:
        handler, _ = _COMMANDS[args.command]
        code, payload = handler(args)
        return emit(code, payload)
    except DefinitionAbort as exc:
        return emit(1, {"aborted": exc.reason,
                        "details": {k: str(v) for k, v in sorted(exc.details.items())}})
    except (ContlogicError, OSError) as exc:  # OSError: an --out path cannot be written
        print(f"contlogic: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # a JSON input or a formula nested past the interpreter's stack
        print("contlogic: input nested too deeply", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
