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
from pathlib import Path

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
    PhiTypeVector,
    compute_N,
    find_ladder,
    global_definition,
    glue_formula,
    median_definition,
    monotone_definition,
    phi_type_at,
    phi_type_space,
    revalidate_ladder,
)
from .structures import (
    FiniteStructure,
    compile_row,
    complete_structure,
    env_from_names,
    eval_formula,
    is_elementary_substructure,
    make_split,
    phi_instance,
    tuple_names,
    validate,
)
from .synthesis import GridFunction, expression_text, expression_tree_size, synthesize
from .topometric import FiniteTopometricSpace, cb_rank
from .values import format_rational, parse_rational

_INPUT_HASHES: dict = {}


def _read_json(path: str) -> dict:
    try:
        raw = Path(path).read_bytes()
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
        points.append((parse_rational(left), parse_rational(right)))
    return PLMonotone(tuple(points))


def _fmt_pl(u: PLMonotone) -> str:
    return ",".join(f"{format_rational(x)}:{format_rational(y)}" for x, y in u.breakpoints)


def _split_from_flag(text: str):
    x_part, _, y_part = text.partition(";")
    if not y_part:
        raise DomainError("--split must look like x1,x2;y1,y2")
    xs = [v.strip() for v in x_part.split(",") if v.strip()]
    ys = [v.strip() for v in y_part.split(",") if v.strip()]
    return xs, ys


def _target_vector_from_flags(M, phi, split, args):
    inst = phi_instance(M, phi, split)
    if args.target is not None:
        want = inst.x_index.get(tuple(v.strip() for v in args.target.split(",")))
        if want is None:
            raise DomainError(f"no x-tuple named {args.target!r}")
        return phi_type_at(inst, want)
    data = _read_json(args.target_file)
    if not isinstance(data, dict) or not isinstance(data.get("values"), dict):
        raise DomainError(f"target file {args.target_file} needs a 'values' object")
    values = []
    for names in inst.y_index:
        key = ",".join(names)
        if key not in data["values"]:
            raise DomainError(f"target file misses parameter {key!r}")
        values.append(parse_rational(data["values"][key]))
    return PhiTypeVector(tuple(values))


def _phi_and_split(M, args):
    phi = parse(args.formula, M.sig)
    xs, ys = _split_from_flag(args.split)
    return phi, make_split(phi, xs, ys)


# ---------------------------------------------------------------------------
# Command handlers (each returns exit_code, report_payload)


def _cmd_check(args):
    M = _load_structure(args.structure)
    report = validate(M)
    return (0 if report.valid else 1), report.to_json()


def _cmd_eval(args):
    M = _load_structure(args.structure)
    f = parse(args.formula, M.sig)
    env = {}
    for binding in args.let or []:
        name, _, elem = binding.partition("=")
        env.update(env_from_names(M, {name.strip(): elem.strip()}, f))
    value = eval_formula(M, env, f)
    return 0, {"formula": print_formula(f, M.sig), "value": format_rational(value)}


def _cmd_complete(args):
    M = _load_structure(args.structure)
    result = complete_structure(M)
    payload = {
        "classes": {sort: [{"representative": rep, "members": members}
                           for rep, members in classes]
                    for sort, classes in result.classes.items()},
        "structure": result.structure.to_json(),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result.structure.to_json(), indent=2) + "\n")
        payload["written"] = args.out
    return 0, payload


def _cmd_tv(args):
    M = _load_structure(args.structure)
    subset = {}
    for chunk in args.subset.split("|"):
        if ":" in chunk:
            sort, _, names = chunk.partition(":")
            subset[sort.strip()] = [v.strip() for v in names.split(",") if v.strip()]
        else:
            only = M.sig.single_sort()
            if only is None:
                raise DomainError("--subset needs sort prefixes on multi-sorted structures")
            subset[only] = [v.strip() for v in chunk.split(",") if v.strip()]
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

    M = _load_structure(args.structure)
    phi, split = _phi_and_split(M, args)
    E = build_imaginary(M, phi, split)
    ok, rows = verify_tphi(E)
    payload = {
        "classes": {name: list(tuple_names(M, split.y, rep))
                    for name, rep in zip(E.class_names, E.representatives)},
        "class_count": len(E.class_names),
        "t_phi": [{"name": r["name"], "value": format_rational(r["value"]),
                   "holds": r["holds"]} for r in rows],
        "all_zero": ok,
    }
    if args.out:
        base = Path(args.out)
        base.with_suffix(".structure.json").write_text(
            json.dumps(E.expanded.to_json(), indent=2) + "\n")
        base.with_suffix(".classes.json").write_text(
            json.dumps(payload["classes"], indent=2) + "\n")
        payload["written"] = [str(base.with_suffix(".structure.json")),
                              str(base.with_suffix(".classes.json"))]
    return (0 if ok else 1), payload


def _cmd_typespace(args):
    M = _load_structure(args.structure)
    phi, split = _phi_and_split(M, args)
    space = phi_type_space(M, phi, split)
    xts = phi_instance(M, phi, split).xts
    payload = {
        "point_count": len(space.points),
        "points": [
            {"realizers": [",".join(tuple_names(M, split.x, xts[i])) for i in reals],
             "values": [format_rational(v) for v in p.values]}
            for p, reals in zip(space.points, space.realizers)
        ],
        "metric": [[format_rational(v) for v in row] for row in space.metric],
    }
    return 0, payload


def _cmd_stability(args):
    M = _load_structure(args.structure)
    phi, split = _phi_and_split(M, args)
    witness = find_ladder(M, phi, split, parse_rational(args.epsilon), args.kind,
                          max_len=args.max_len)
    payload = {
        "kind": witness.kind,
        "epsilon": format_rational(witness.epsilon),
        "length": len(witness),
        "pairs": [{"a": list(a), "b": list(b)} for a, b in witness.pairs],
        "at_searched_bound": witness.at_searched_bound,
        "revalidated": revalidate_ladder(M, phi, split, witness),
    }
    if witness.r is not None:
        payload["r"] = format_rational(witness.r)
        payload["s"] = format_rational(witness.s)
    return 0, payload


def _cmd_nvalue(args):
    M = _load_structure(args.structure)
    phi, split = _phi_and_split(M, args)
    n = compute_N(M, phi, split, parse_rational(args.epsilon))
    return 0, {"epsilon": args.epsilon, "N": n}


def _cmd_define_median(args):
    M = _load_structure(args.structure)
    phi, split = _phi_and_split(M, args)
    target = _target_vector_from_flags(M, phi, split, args)
    d = median_definition(M, phi, split, parse_rational(args.epsilon), target)
    return 0, {
        "epsilon": format_rational(d.epsilon),
        "N": d.n_value,
        "parameters": [",".join(names) for names in d.parameter_names],
        "observed_error": format_rational(d.observed_error),
        "defined_values": [format_rational(v) for v in d.defined_values],
    }


def _cmd_define_monotone(args):
    M = _load_structure(args.structure)
    phi, split = _phi_and_split(M, args)
    target = _target_vector_from_flags(M, phi, split, args)
    d = monotone_definition(M, phi, split, parse_rational(args.epsilon), target)
    return 0, {
        "epsilon": format_rational(d.epsilon),
        "parameters": [",".join(names) for names in d.parameter_names],
        "observed_error": format_rational(d.observed_error),
        "bound": format_rational(3 * d.epsilon),
        "rounds": len(d.records),
    }


def _cmd_define_global(args):
    M = _load_structure(args.structure)
    phi, split = _phi_and_split(M, args)
    target = _target_vector_from_flags(M, phi, split, args)
    d = global_definition(M, phi, split, target, args.depth)
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

    def recovers(row, scale, prefix):
        return (list(map(scale.__mul__, chi_row(prefix)))
                == list(map(chi_scale.__mul__, row(prefix))))

    phi_ok = psi_ok = True
    for combo in itertools.product(*(range(M.sizes[s]) for _, s in fv[:-1])):
        phi_ok = phi_ok and recovers(phi_row, phi_scale, (e0, e1, *combo))
        psi_ok = psi_ok and recovers(psi_row, psi_scale, (e0, e0, *combo))
        if not (phi_ok or psi_ok):
            break
    return {"recovers_phi_at_distance_1": phi_ok, "recovers_psi_at_distance_0": psi_ok}


def _cmd_cbrank(args):
    data = _read_json(args.space)
    X = FiniteTopometricSpace.from_json(data)
    res = cb_rank(X, parse_rational(args.epsilon))
    return 0, {
        "epsilon": args.epsilon,
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
    size = expression_tree_size(res.expression)
    text = expression_text(res.expression, size)
    return 0, {
        "expression": text if text is not None else "(too large to write out)",
        "max_error": format_rational(res.max_error),
        "distinct_nodes": res.size,
        "written_out_nodes": size,
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

    out = inverse_from_delta(u)
    return 0, {"inverse": _fmt_pl(out)}


def _cmd_prenex(args):
    M = _load_structure(args.structure)
    f = parse(args.formula, M.sig)
    return 0, {"prenex": print_formula(prenex(f), M.sig)}


_COMMANDS = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "complete": _cmd_complete,
    "tv": _cmd_tv,
    "imaginary": _cmd_imaginary,
    "typespace": _cmd_typespace,
    "stability": _cmd_stability,
    "nvalue": _cmd_nvalue,
    "define-median": _cmd_define_median,
    "define-monotone": _cmd_define_monotone,
    "define-global": _cmd_define_global,
    "glue": _cmd_glue,
    "cbrank": _cmd_cbrank,
    "synth": _cmd_synth,
    "modulus-convert": _cmd_modulus_convert,
    "prenex": _cmd_prenex,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; each parse_args call fills a fresh namespace."""
    top = argparse.ArgumentParser(prog="contlogic",
                                  description="continuous-logic workbench")
    sub = top.add_subparsers(dest="command", required=True)

    def report_out(p):
        p.add_argument("--out", dest="report_out", help="also write the report here")
        return p

    def structure_cmd(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("structure", help="structure JSON file")
        return p

    report_out(structure_cmd("check", "validate the metric and modulus axioms"))

    p = report_out(structure_cmd("eval", "evaluate a formula"))
    p.add_argument("--formula", "-e", required=True)
    p.add_argument("--let", action="append", metavar="VAR=ELEMENT")

    p = structure_cmd("complete", "quotient by zero distance")
    p.add_argument("--out", help="write the completed structure here")

    p = report_out(structure_cmd("tv", "Tarski-Vaught test for a formula family"))
    p.add_argument("--subset", required=True, help="a,b or Sort:a,b|Sort2:c")
    p.add_argument("--formula", action="append", metavar="Y@TEXT")

    for name in ("imaginary", "typespace", "stability", "nvalue",
                 "define-median", "define-monotone", "define-global"):
        p = structure_cmd(name, f"{name} for a formula with a split")
        p.add_argument("--formula", required=True)
        p.add_argument("--split", required=True, help="x1,x2;y1,y2")
        if name == "imaginary":
            p.add_argument("--out", help="basename for the expansion and class files")
        else:
            report_out(p)
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

    p = report_out(structure_cmd("glue", "glue two formulas sharing a variable"))
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--shared", required=True)
    p.add_argument("--fresh", required=True, help="t,w")
    p.add_argument("--fresh-sort", dest="fresh_sort", required=True)
    p.add_argument("--verify", action="store_true")

    p = report_out(structure_cmd("prenex", "prenex normal form of a formula"))
    p.add_argument("--formula", required=True)

    p = report_out(sub.add_parser("cbrank", help="epsilon-Cantor-Bendixson ranks"))
    p.add_argument("space", help="topometric space JSON file")
    p.add_argument("--epsilon", required=True)

    p = report_out(sub.add_parser("synth", help="synthesize a connective expression"))
    p.add_argument("--target", required=True, help="grid function JSON file")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--step-modulus", dest="step_modulus")

    p = report_out(sub.add_parser("modulus-convert", help="convert continuity moduli"))
    p.add_argument("--direction", required=True,
                   choices=["inverse-to-delta", "delta-to-inverse"])
    p.add_argument("--pl", required=True, help="breakpoints in:out,in:out")
    p.add_argument("--epsilon")

    return top


def run(argv) -> int:
    """Dispatch a command line; prints the JSON report on stdout."""
    _INPUT_HASHES.clear()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
        out = json.dumps(report, indent=2)
        if getattr(args, "report_out", None):
            Path(args.report_out).write_text(out + "\n")
        print(out)
        return code

    try:
        code, payload = _COMMANDS[args.command](args)
        return emit(code, payload)
    except DefinitionAbort as exc:
        return emit(1, {"aborted": exc.reason,
                        "details": {k: str(v) for k, v in sorted(exc.details.items())}})
    except (ContlogicError, OSError) as exc:  # OSError: an --out path cannot be written
        print(f"contlogic: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
