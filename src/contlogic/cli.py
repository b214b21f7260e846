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
    return PhiInstance(M, phi, *_split_from_flag(args.split))


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


def _add_arguments(p: argparse.ArgumentParser, name: str) -> tuple:
    """Give p the arguments of subcommand `name`; returns the actions added, in
    order, and each mutually exclusive group with its actions."""
    actions, groups = [], []

    def add(*flags, **kwargs):
        actions.append(p.add_argument(*flags, **kwargs))

    report_out = functools.partial(add, "--out", dest="report_out",
                                   help="also write the report here")
    if name == "cbrank":
        report_out()
        add("space", help="topometric space JSON file")
        add("--epsilon", required=True)
        return actions, groups
    if name == "synth":
        report_out()
        add("--target", required=True, help="grid function JSON file")
        add("--epsilon", required=True)
        add("--step-modulus", dest="step_modulus")
        return actions, groups
    if name == "modulus-convert":
        report_out()
        add("--direction", required=True, choices=["inverse-to-delta", "delta-to-inverse"])
        add("--pl", required=True, help="breakpoints in:out,in:out")
        add("--epsilon")
        return actions, groups
    add("structure", help="structure JSON file")
    if name == "complete":
        add("--out", help="write the completed structure here")
    elif name == "eval":
        report_out()
        add("--formula", "-e", required=True)
        add("--let", action="append", metavar="VAR=ELEMENT")
    elif name == "tv":
        report_out()
        add("--subset", required=True, help="a,b or Sort:a,b|Sort2:c")
        add("--formula", action="append", metavar="Y@TEXT")
    elif name == "glue":
        report_out()
        add("--phi", required=True)
        add("--psi", required=True)
        add("--shared", required=True)
        add("--fresh", required=True, help="t,w")
        add("--fresh-sort", dest="fresh_sort", required=True)
        add("--verify", action="store_true")
    elif name == "prenex":
        report_out()
        add("--formula", required=True)
    elif name == "check":
        report_out()
    else:  # a formula with a split
        add("--formula", required=True)
        add("--split", required=True, help="x1,x2;y1,y2")
        if name == "imaginary":
            add("--out", help="basename for the expansion and class files")
        else:
            report_out()
        if name in ("stability", "nvalue", "define-median", "define-monotone"):
            add("--epsilon", required=True)
        if name == "stability":
            add("--kind", choices=["antisym", "order", "triple"], default="antisym")
            add("--max-len", type=int, dest="max_len")
        if name.startswith("define-"):
            target = p.add_mutually_exclusive_group(required=True)
            members = (target.add_argument("--target", help="comma-joined x-tuple element names"),
                       target.add_argument("--target-file", dest="target_file",
                                           help="JSON file with a values map"))
            actions.extend(members)
            groups.append((target, members))
        if name == "define-global":
            add("--depth", type=int, required=True)
    return actions, groups


@functools.cache
def _parsers(name: Optional[str] = None):
    """With no name, the top-level parser holding every subcommand.  With a
    name, (parser, actions, groups): the parser of that subcommand, which reads
    the arguments after the name and writes the help and errors the top-level
    parser would hand it, with the actions and groups `_add_arguments` gave it.
    Each is built on first use, and each parse fills a fresh namespace."""
    if name is not None:
        p = argparse.ArgumentParser(prog=f"contlogic {name}")
        return (p, *_add_arguments(p, name))
    top = argparse.ArgumentParser(prog="contlogic", description="continuous-logic workbench")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help_) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_), name)
    return top


def _parse_exact(parser, actions, groups, tokens) -> Optional[argparse.Namespace]:
    """The namespace `parser.parse_known_args(tokens)` builds, when tokens are
    well formed and plain, or None for argparse to read them and write its help
    and errors.  Plain: each token is an exact option string of one of
    `actions` (followed by its value, which does not start with "-", unless
    the action takes none) or fills the next positional, every required action
    is given, each of `groups` has at most one action given (one when it is
    required), and each value passes its action's type and choices."""
    flags = {flag: action for action in actions for flag in action.option_strings}
    positionals = [action for action in actions if not action.option_strings][::-1]
    given = []  # (action, option string or None, value text or None)
    tokens = iter(tokens)
    for token in tokens:
        if token[:1] != "-":
            if not positionals or positionals[-1].nargs is not None:
                return None
            given.append((positionals.pop(), None, token))
            continue
        action = flags.get(token)
        if action is None or action.nargs not in (None, 0):
            return None
        value = None if action.nargs == 0 else next(tokens, "-")  # none left: argparse's error
        if value is not None and value[:1] == "-":
            return None
        given.append((action, token, value))
    seen = {action for action, _, _ in given}
    if any(action.required and action not in seen for action in actions):
        return None
    for group, members in groups:
        count = len(seen.intersection(members))
        if count > 1 or (count == 0 and group.required):
            return None
    args = argparse.Namespace()
    for action in actions:
        if not hasattr(args, action.dest):
            setattr(args, action.dest, action.default)
    try:
        for action, flag, text in given:  # each action stores, appends or sets its const
            if text is None:
                action(parser, args, [], flag)
                continue
            value = text if action.type is None else action.type(text)
            if action.choices is not None and value not in action.choices:
                return None
            action(parser, args, value, flag)
        for action in actions:  # argparse converts a str default left in place
            if (action.type is not None and action not in seen
                    and isinstance(action.default, str)
                    and getattr(args, action.dest) is action.default):
                setattr(args, action.dest, action.type(action.default))
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return args


def run(argv) -> int:
    """Dispatch a command line; prints the JSON report on stdout."""
    _INPUT_HASHES.clear()
    # argv naming no subcommand (none, -h, unknown) goes to the top-level parser;
    # a subcommand's arguments are read in one exact pass when they are plain,
    # and by its argparse parser otherwise, whose extra arguments are the
    # top-level parser's error
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        if name is None:
            args = _parsers().parse_args(argv)
        else:
            parser, actions, groups = _parsers(name)
            args = _parse_exact(parser, actions, groups, argv[1:])
            if args is None:
                args, extra = parser.parse_known_args(argv[1:])
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
