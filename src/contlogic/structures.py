"""Finite continuous pre-structures and structures.

Carriers are finite per-sort element lists; tables are total and exact.
Evaluation takes quantifiers to exact min/max over carriers, validation
checks the pseudo-metric axioms and the quantitative inverse-modulus form
of uniform continuity, and completion quotients by zero distance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import CompletionError, DomainError, StructuralError
from .language import (
    Atom,
    Condition,
    Const,
    FuncDecl,
    Op,
    PLMonotone,
    PredDecl,
    Quant,
    Signature,
    SortDecl,
    ValueVar,
    Var,
    expand_condition,
    free_vars,
    parse,
)
from .values import (
    ONE,
    ZERO,
    apply_connective,
    ensure_unit,
    format_rational,
    med,
    parse_rational,
)

IDENTITY = PLMonotone.identity()


class FiniteStructure:
    """A finite interpretation of a signature with exact rational tables.

    `metric` maps each sort to a square matrix indexed by carrier position;
    `functions` and `predicates` map symbol names to dicts keyed by argument
    index tuples.  Structures are immutable after construction.
    """

    def __init__(self, sig: Signature, carriers: Mapping[str, Sequence[str]],
                 metric: Mapping[str, Sequence[Sequence[Fraction]]],
                 functions: Mapping[str, Mapping[tuple, int]],
                 predicates: Mapping[str, Mapping[tuple, Fraction]]):
        self.sig = sig
        self.carriers = {s: tuple(names) for s, names in carriers.items()}
        for s in sig.sort_names:
            if not self.carriers.get(s):
                raise StructuralError(f"empty or missing carrier for sort {s}")
            if len(set(self.carriers[s])) != len(self.carriers[s]):
                raise StructuralError(f"duplicate element names in sort {s}")
        self.index = {s: {name: i for i, name in enumerate(names)}
                      for s, names in self.carriers.items()}
        self.metric = {}
        for s in sig.sort_names:
            n = len(self.carriers[s])
            rows = metric.get(s)
            if rows is None or len(rows) != n or any(len(r) != n for r in rows):
                raise StructuralError(f"metric matrix for sort {s} must be {n}x{n}")
            self.metric[s] = tuple(tuple(ensure_unit(v) for v in row) for row in rows)
        self.functions = {}
        for name, decl in sig.functions.items():
            table = functions.get(name)
            if table is None:
                raise StructuralError(f"missing table for function {name}")
            self.functions[name] = dict(table)
            for args in self._arg_tuples(decl.arg_sorts):
                if args not in self.functions[name]:
                    raise StructuralError(f"function table {name} not total at {args}")
                v = self.functions[name][args]
                if not 0 <= v < len(self.carriers[decl.target]):
                    raise StructuralError(f"function table {name} out of range at {args}")
        self.predicates = {}
        for name, decl in sig.predicates.items():
            table = predicates.get(name)
            if table is None:
                raise StructuralError(f"missing table for predicate {name}")
            self.predicates[name] = {k: ensure_unit(v) for k, v in table.items()}
            for args in self._arg_tuples(decl.arg_sorts):
                if args not in self.predicates[name]:
                    raise StructuralError(f"predicate table {name} not total at {args}")

    def _arg_tuples(self, arg_sorts: Sequence[str]):
        return itertools.product(*(range(len(self.carriers[s])) for s in arg_sorts))

    def element_name(self, sort: str, idx: int) -> str:
        return self.carriers[sort][idx]

    def element_index(self, sort: str, name: str) -> int:
        try:
            return self.index[sort][name]
        except KeyError:
            raise StructuralError(f"no element {name!r} in sort {sort}") from None

    def distance(self, sort: str, i: int, j: int) -> Fraction:
        return self.metric[sort][i][j]

    def pred_value(self, name: str, args: tuple) -> Fraction:
        if self.sig.is_metric(name):
            sort = self.sig.metric_sort[name]
            return self.metric[sort][args[0]][args[1]]
        return self.predicates[name][args]

    def fn_value(self, name: str, args: tuple) -> int:
        return self.functions[name][args]

    # -- JSON -----------------------------------------------------------------

    def to_json(self, inline_signature: bool = True) -> dict:
        def nested_fn(decl: FuncDecl):
            def build(prefix, sorts):
                if not sorts:
                    idx = self.functions[decl.name][tuple(prefix)]
                    return self.carriers[decl.target][idx]
                return [build(prefix + [i], sorts[1:])
                        for i in range(len(self.carriers[sorts[0]]))]
            return build([], list(decl.arg_sorts))

        def nested_pred(decl: PredDecl):
            def build(prefix, sorts):
                if not sorts:
                    return format_rational(self.predicates[decl.name][tuple(prefix)])
                return [build(prefix + [i], sorts[1:])
                        for i in range(len(self.carriers[sorts[0]]))]
            return build([], list(decl.arg_sorts))

        return {
            "signature": self.sig.to_json() if inline_signature else None,
            "carriers": {s: list(names) for s, names in self.carriers.items()},
            "metric": {s: [[format_rational(v) for v in row] for row in rows]
                       for s, rows in self.metric.items()},
            "functions": {name: nested_fn(decl) for name, decl in self.sig.functions.items()},
            "predicates": {name: nested_pred(decl) for name, decl in self.sig.predicates.items()},
        }

    @staticmethod
    def from_json(data: dict, sig: Optional[Signature] = None) -> "FiniteStructure":
        if sig is None:
            raw_sig = data.get("signature")
            if raw_sig is None:
                raise StructuralError("structure file has no signature and none was supplied")
            sig = Signature.from_json(raw_sig)
        for key in ("carriers", "metric"):
            if key not in data:
                raise StructuralError(f"structure file has no {key!r}")
        carriers = {s: list(names) for s, names in data["carriers"].items()}
        index = {s: {n: i for i, n in enumerate(ns)} for s, ns in carriers.items()}
        metric = {}
        for s, rows in data["metric"].items():
            mat = [[parse_rational(v) for v in row] for row in rows]
            for row in mat:
                for v in row:
                    if v > 1:
                        raise DomainError(f"metric diameter exceeds 1 in sort {s}")
            metric[s] = mat
        functions = {}
        for name, decl in sig.functions.items():
            nested = _symbol_table(data, "functions", name)
            table = {}

            def walk_fn(node, prefix, sorts, decl=decl, table=table):
                if not sorts:
                    table[tuple(prefix)] = index[decl.target][node]
                    return
                if len(node) != len(carriers[sorts[0]]):
                    raise StructuralError(f"table {decl.name} has wrong shape")
                for i, sub in enumerate(node):
                    walk_fn(sub, prefix + [i], sorts[1:])

            walk_fn(nested, [], list(decl.arg_sorts))
            functions[name] = table
        predicates = {}
        for name, decl in sig.predicates.items():
            nested = _symbol_table(data, "predicates", name)
            table = {}

            def walk_pred(node, prefix, sorts, decl=decl, table=table):
                if not sorts:
                    table[tuple(prefix)] = parse_rational(node)
                    return
                if len(node) != len(carriers[sorts[0]]):
                    raise StructuralError(f"table {decl.name} has wrong shape")
                for i, sub in enumerate(node):
                    walk_pred(sub, prefix + [i], sorts[1:])

            walk_pred(nested, [], list(decl.arg_sorts))
            predicates[name] = table
        return FiniteStructure(sig, carriers, metric, functions, predicates)


def _symbol_table(data: dict, section: str, name: str):
    try:
        return data[section][name]
    except (KeyError, TypeError):
        raise StructuralError(f"structure file has no {section} table for {name!r}") from None


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(M: FiniteStructure, env: Mapping[str, object], t) -> int:
    if isinstance(t, Var):
        if t.name not in env:
            raise StructuralError(f"unbound variable {t.name!r}")
        return env[t.name]  # type: ignore[return-value]
    return M.fn_value(t.func, tuple(eval_term(M, env, a) for a in t.args))


def eval_formula(M: FiniteStructure, env: Mapping[str, object], f) -> Fraction:
    """Exact truth value of a formula under an environment.

    Structure variables map to carrier indices; value variables map to
    Fractions.  Quantifiers take min/max over the bound sort's carrier.
    """
    if isinstance(f, Atom):
        return M.pred_value(f.pred, tuple(eval_term(M, env, t) for t in f.args))
    if isinstance(f, Const):
        return f.value
    if isinstance(f, ValueVar):
        v = env.get(f.name)
        if not isinstance(v, Fraction):
            raise StructuralError(f"value variable {f.name!r} not bound to a rational")
        return v
    if isinstance(f, Op):
        vals = [eval_formula(M, env, a) for a in f.args]
        if f.op == "med":
            return med(vals, f.n)
        return apply_connective(f.op, vals)
    if isinstance(f, Quant):
        inner = dict(env)
        best = None
        for i in range(len(M.carriers[f.sort])):
            inner[f.var] = i
            v = eval_formula(M, inner, f.body)
            if best is None or (f.kind == "sup" and v > best) or (f.kind == "inf" and v < best):
                best = v
        return best
    raise StructuralError(f"not a formula: {f!r}")


def env_from_names(M: FiniteStructure, bindings: Mapping[str, str], f) -> dict:
    """Build an evaluation environment from element names using f's variable sorts."""
    sorts = {name: sort for name, sort in free_vars(f) if sort != "@value"}
    env = {}
    for var, elem in bindings.items():
        if var not in sorts:
            raise StructuralError(f"variable {var!r} is not free in the formula")
        env[var] = M.element_index(sorts[var], elem)
    return env


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    witnesses: tuple[str, ...]
    detail: str


@dataclass
class ValidationReport:
    violations: list

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {"kind": v.kind, "subject": v.subject,
                 "witnesses": list(v.witnesses), "detail": v.detail}
                for v in self.violations
            ],
        }


def validate(M: FiniteStructure) -> ValidationReport:
    """Check the pseudo-metric axioms and every symbol's declared moduli.

    Violations are data, not errors; the report lists each with witnesses.
    Uniform continuity is checked in the quantitative inverse-modulus form,
    which is exact on finite structures.
    """
    out = []
    for sort in M.sig.sort_names:
        names = M.carriers[sort]
        dm = M.metric[sort]
        n = len(names)
        for i in range(n):
            if dm[i][i] != 0:
                out.append(Violation("metric_reflexivity", sort, (names[i],),
                                     f"d({names[i]},{names[i]}) = {format_rational(dm[i][i])}"))
        for i in range(n):
            for j in range(i + 1, n):
                if dm[i][j] != dm[j][i]:
                    out.append(Violation("metric_symmetry", sort, (names[i], names[j]),
                                         "d(x,y) != d(y,x)"))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if dm[i][j] > dm[i][k] + dm[k][j]:
                        out.append(Violation(
                            "metric_triangle", sort, (names[i], names[j], names[k]),
                            f"d = {format_rational(dm[i][j])} > "
                            f"{format_rational(dm[i][k] + dm[k][j])}"))

    def check_symbol(name, arg_sorts, moduli, value_at, is_function, target_sort=None):
        for pos, (sort, u) in enumerate(zip(arg_sorts, moduli)):
            other = [range(len(M.carriers[s])) for p, s in enumerate(arg_sorts) if p != pos]
            size = len(M.carriers[sort])
            for ctx in itertools.product(*other):
                for z in range(size):
                    for w in range(z + 1, size):
                        args_z = list(ctx[:pos]) + [z] + list(ctx[pos:])
                        args_w = list(ctx[:pos]) + [w] + list(ctx[pos:])
                        bound = u.eval(M.metric[sort][z][w])
                        if is_function:
                            vz = value_at(tuple(args_z))
                            vw = value_at(tuple(args_w))
                            change = M.metric[target_sort][vz][vw]
                        else:
                            change = abs(value_at(tuple(args_z)) - value_at(tuple(args_w)))
                        if change > bound:
                            wz = M.element_name(sort, z)
                            ww = M.element_name(sort, w)
                            out.append(Violation(
                                "modulus_function" if is_function else "modulus_predicate",
                                name, (wz, ww),
                                f"argument {pos}: change {format_rational(change)} > "
                                f"u(d) = {format_rational(bound)}"))
        return

    for name, decl in M.sig.functions.items():
        check_symbol(name, decl.arg_sorts, decl.moduli,
                     lambda args, name=name: M.fn_value(name, args),
                     True, decl.target)
    for name, decl in M.sig.predicates.items():
        check_symbol(name, decl.arg_sorts, decl.moduli,
                     lambda args, name=name: M.pred_value(name, args),
                     False)
    return ValidationReport(out)


# ---------------------------------------------------------------------------
# Condition checking


def check_condition(M: FiniteStructure, env: Mapping[str, object], c: Condition) -> bool:
    return eval_formula(M, env, expand_condition(c)) == 0


def check_theory(M: FiniteStructure, conditions: Sequence[tuple[str, Condition]]):
    """Evaluate named sentential conditions; returns (all satisfied, value list)."""
    rows = []
    for name, c in conditions:
        value = eval_formula(M, {}, expand_condition(c))
        rows.append({"name": name, "value": format_rational(value), "holds": value == 0})
    return all(r["holds"] for r in rows), rows


# ---------------------------------------------------------------------------
# Quotient completion


@dataclass
class CompletionResult:
    structure: FiniteStructure
    classes: dict  # sort -> list of (representative name, list of member names)


def complete_structure(M: FiniteStructure) -> CompletionResult:
    """Quotient each carrier by zero distance; finite spaces are already complete.

    Tables must be constant on classes (guaranteed by uniform continuity with
    respect to inverse moduli); otherwise a CompletionError reports witnesses.
    """
    class_of = {}
    classes = {}
    for sort in M.sig.sort_names:
        n = len(M.carriers[sort])
        rep = list(range(n))
        for i in range(n):
            for j in range(i):
                if M.metric[sort][i][j] == 0 and rep[i] == i:
                    rep[i] = rep[j]
        members: dict[int, list[int]] = {}
        for i in range(n):
            members.setdefault(rep[i], []).append(i)
        ordered = sorted(members)
        class_of[sort] = {i: ordered.index(rep[i]) for i in range(n)}
        classes[sort] = [(M.element_name(sort, r), [M.element_name(sort, m) for m in members[r]])
                         for r in ordered]

    bad = []
    new_carriers = {s: [rep for rep, _ in classes[s]] for s in M.sig.sort_names}
    reps = {s: [M.element_index(s, rep) for rep, _ in classes[s]] for s in M.sig.sort_names}

    new_metric = {}
    for sort in M.sig.sort_names:
        idxs = reps[sort]
        new_metric[sort] = [[M.metric[sort][i][j] for j in idxs] for i in idxs]
        # well-definedness of the metric on classes
        for i in range(len(M.carriers[sort])):
            for j in range(len(M.carriers[sort])):
                ci, cj = class_of[sort][i], class_of[sort][j]
                if M.metric[sort][i][j] != new_metric[sort][ci][cj]:
                    bad.append(("d", (M.element_name(sort, i), M.element_name(sort, j))))

    new_functions = {}
    for name, decl in M.sig.functions.items():
        table = {}
        for args in M._arg_tuples(decl.arg_sorts):
            cargs = tuple(class_of[s][a] for s, a in zip(decl.arg_sorts, args))
            value = class_of[decl.target][M.fn_value(name, args)]
            if cargs in table and table[cargs] != value:
                bad.append((name, tuple(M.element_name(s, a)
                                        for s, a in zip(decl.arg_sorts, args))))
            table[cargs] = value
        new_functions[name] = table
    new_predicates = {}
    for name, decl in M.sig.predicates.items():
        table = {}
        for args in M._arg_tuples(decl.arg_sorts):
            cargs = tuple(class_of[s][a] for s, a in zip(decl.arg_sorts, args))
            value = M.pred_value(name, args)
            if cargs in table and table[cargs] != value:
                bad.append((name, tuple(M.element_name(s, a)
                                        for s, a in zip(decl.arg_sorts, args))))
            table[cargs] = value
        new_predicates[name] = table
    if bad:
        raise CompletionError("tables not constant on zero-distance classes", bad)
    structure = FiniteStructure(M.sig, new_carriers, new_metric, new_functions, new_predicates)
    return CompletionResult(structure, classes)


# ---------------------------------------------------------------------------
# Tarski-Vaught test relative to a formula family


def is_elementary_substructure(M: FiniteStructure, subset: Mapping[str, Sequence[str]],
                               formulas: Sequence[tuple[object, str]]):
    """Tarski-Vaught criterion relativized to the supplied formula family.

    `subset` gives per-sort element names; it must be closed under the
    structure's functions.  Each entry is (formula, y) with y the
    distinguished variable: the criterion compares inf over the full
    carrier with inf over the subset for every tuple of remaining free
    variables drawn from the subset.  Full elementarity would need every
    formula, which the artifact never claims.
    """
    sub_idx = {}
    for sort in M.sig.sort_names:
        names = subset.get(sort, ())
        sub_idx[sort] = [M.element_index(sort, n) for n in names]
    for name, decl in M.sig.functions.items():
        pools = [sub_idx[s] for s in decl.arg_sorts]
        for args in itertools.product(*pools):
            value = M.fn_value(name, args)
            if value not in sub_idx[decl.target]:
                witness = tuple(M.element_name(s, a) for s, a in zip(decl.arg_sorts, args))
                raise StructuralError(
                    f"subset not closed under {name} at {witness}")
    for f, first in formulas:
        fv = sorted(free_vars(f))
        var_sorts = dict(fv)
        if first not in var_sorts:
            raise StructuralError(f"distinguished variable {first!r} not free in the formula")
        y_sort = var_sorts[first]
        params = [(n, s) for n, s in fv if n != first]
        pools = [sub_idx[s] for _, s in params]
        for combo in itertools.product(*pools):
            env = {n: i for (n, _), i in zip(params, combo)}
            inf_m = None
            for b in range(len(M.carriers[y_sort])):
                env[first] = b
                v = eval_formula(M, env, f)
                inf_m = v if inf_m is None else min(inf_m, v)
            inf_a = None
            for b in sub_idx[y_sort]:
                env[first] = b
                v = eval_formula(M, env, f)
                inf_a = v if inf_a is None else min(inf_a, v)
            if inf_a != inf_m:
                witness_names = tuple(M.element_name(s, i)
                                      for (_, s), i in zip(params, combo))
                return False, {"formula": f, "tuple": witness_names,
                               "inf_over_structure": inf_m, "inf_over_subset": inf_a}
    return True, None


# ---------------------------------------------------------------------------
# Formulas with a declared variable split


@dataclass(frozen=True)
class VariableSplit:
    """Free variables of a formula split into a kept tuple and a parameter tuple."""

    x: tuple[tuple[str, str], ...]
    y: tuple[tuple[str, str], ...]


def make_split(phi, x_names: Sequence[str], y_names: Sequence[str]) -> VariableSplit:
    fv = dict(free_vars(phi))
    if set(x_names) | set(y_names) != set(fv) or set(x_names) & set(y_names):
        raise StructuralError(f"split must partition the free variables {sorted(fv)}")
    return VariableSplit(tuple((n, fv[n]) for n in x_names),
                         tuple((n, fv[n]) for n in y_names))


def tuples_of(M: FiniteStructure, vars_: Sequence[tuple[str, str]]):
    """All assignments for a variable tuple, in carrier-lexicographic order."""
    pools = [range(len(M.carriers[s])) for _, s in vars_]
    return list(itertools.product(*pools))


def tuple_names(M: FiniteStructure, vars_: Sequence[tuple[str, str]], tup) -> tuple[str, ...]:
    return tuple(M.element_name(s, i) for (_, s), i in zip(vars_, tup))


def tuple_distance(M: FiniteStructure, vars_: Sequence[tuple[str, str]], t1, t2) -> Fraction:
    """Max metric on tuples, the standard tuple-sort distance."""
    return max((M.metric[s][a][b] for (_, s), a, b in zip(vars_, t1, t2)), default=ZERO)


def value_matrix(M: FiniteStructure, phi, split: VariableSplit):
    """vals[x_tuple_index][y_tuple_index] = phi(x_tuple, y_tuple), exact."""
    xts = tuples_of(M, split.x)
    yts = tuples_of(M, split.y)
    rows = []
    for xt in xts:
        env = {n: i for (n, _), i in zip(split.x, xt)}
        row = []
        for yt in yts:
            env.update({n: i for (n, _), i in zip(split.y, yt)})
            row.append(eval_formula(M, env, phi))
        rows.append(tuple(row))
    return xts, yts, tuple(rows)


# ---------------------------------------------------------------------------
# Generators: probability algebras, classical structures, half-graphs


def pra_signature() -> Signature:
    """Probability algebras: Boolean operations with a measure, identity moduli."""
    return Signature(
        [SortDecl("B", "d")],
        functions=[
            FuncDecl("zero", (), "B", ()),
            FuncDecl("one", (), "B", ()),
            FuncDecl("compl", ("B",), "B", (IDENTITY,)),
            FuncDecl("meet", ("B", "B"), "B", (IDENTITY, IDENTITY)),
            FuncDecl("join", ("B", "B"), "B", (IDENTITY, IDENTITY)),
        ],
        predicates=[PredDecl("mu", ("B",), (IDENTITY,))],
    )


def gen_prob_algebra(atom_weights: Sequence[Fraction]) -> FiniteStructure:
    """Finite probability algebra on the given atoms.

    Carrier is the power set of the atom index set (element s<mask>), the
    measure is the weight sum, and the metric is the measure of the
    symmetric difference.  The atom count is capped at 8: the metric matrix
    has 4^k entries, and larger algebras break the exhaustive-evaluation
    budget this artifact is designed around.
    """
    k = len(atom_weights)
    weights = [Fraction(w) for w in atom_weights]
    if k < 1 or k > 8:
        raise DomainError("atom count must be between 1 and 8")
    if any(w <= 0 for w in weights):
        raise DomainError("atom weights must be positive")
    if sum(weights) != 1:
        raise DomainError("atom weights must sum to 1")
    n = 1 << k
    names = [f"s{m}" for m in range(n)]
    mu = [sum((w for b, w in enumerate(weights) if m >> b & 1), ZERO) for m in range(n)]
    metric = {"B": [[mu[a ^ b] for b in range(n)] for a in range(n)]}
    functions = {
        "zero": {(): 0},
        "one": {(): n - 1},
        "compl": {(a,): (n - 1) ^ a for a in range(n)},
        "meet": {(a, b): a & b for a in range(n) for b in range(n)},
        "join": {(a, b): a | b for a in range(n) for b in range(n)},
    }
    predicates = {"mu": {(a,): mu[a] for a in range(n)}}
    return FiniteStructure(pra_signature(), {"B": names}, metric, functions, predicates)


def pra_conditions(sig: Signature) -> list[tuple[str, Condition]]:
    """The five probability-algebra axioms as named conditions."""
    bool_defects = [
        "d(meet(x,y), meet(y,x))",
        "d(join(x,y), join(y,x))",
        "d(meet(x,meet(y,z)), meet(meet(x,y),z))",
        "d(join(x,join(y,z)), join(join(x,y),z))",
        "d(meet(x,join(y,z)), join(meet(x,y),meet(x,z)))",
        "d(join(x,meet(y,z)), meet(join(x,y),join(x,z)))",
        "d(meet(x,compl(x)), zero)",
        "d(join(x,compl(x)), one)",
        "d(meet(x,one), x)",
        "d(join(x,zero), x)",
    ]
    combined = bool_defects[0]
    for defect in bool_defects[1:]:
        combined = f"max({combined}, {defect})"
    boolean = parse(f"sup x. sup y. sup z. {combined}", sig)
    modular = parse(
        "sup x. sup y. |half mu(x) +. half mu(y)"
        " - half mu(join(x,y)) +. half mu(meet(x,y))|", sig)
    metric_law = parse(
        "sup x. sup y. |d(x,y) - mu(join(meet(x,compl(y)), meet(y,compl(x))))|", sig)
    return [
        ("boolean_algebra", Condition(boolean, "eq0")),
        ("measure_of_one", Condition(parse("mu(one)", sig), "ge", ONE)),
        ("measure_of_zero", Condition(parse("mu(zero)", sig), "eq0")),
        ("modularity", Condition(modular, "eq0")),
        ("metric_is_symmetric_difference", Condition(metric_law, "eq0")),
    ]


def apa_sentence(sig: Signature):
    """Atomlessness defect: sup_x inf_y |mu(y meet x) - mu(x)/2|."""
    return parse("sup x. inf y. |mu(meet(y,x)) - half mu(x)|", sig)


def classical_signature(functions: Mapping[str, int], relations: Mapping[str, int]) -> Signature:
    return Signature(
        [SortDecl("S", "d")],
        functions=[FuncDecl(name, ("S",) * ar, "S", (IDENTITY,) * ar)
                   for name, ar in functions.items()],
        predicates=[PredDecl(name, ("S",) * ar, (IDENTITY,) * ar)
                    for name, ar in relations.items()],
    )


def from_classical(carrier: Sequence[str], functions: Mapping[str, Mapping[tuple, str]],
                   relations: Mapping[str, Iterable[tuple]]) -> FiniteStructure:
    """Continuous structure for a classical discrete one: d discrete, truth 0, falsity 1.

    Relation tables list the tuples (of element names) where the relation
    holds; those evaluate to 0 and all others to 1, matching the convention
    that 0 is true.  The discrete metric makes any table respect any moduli.
    """
    n = len(carrier)
    fn_arities = {}
    for name, table in functions.items():
        arities = {len(k) for k in table}
        if len(arities) != 1:
            raise StructuralError(f"mixed arity in function {name}")
        fn_arities[name] = arities.pop()
    rel_arities = {}
    rel_sets = {}
    for name, tuples in relations.items():
        tuples = [tuple(t) for t in tuples]
        arities = {len(t) for t in tuples}
        if len(arities) > 1:
            raise StructuralError(f"mixed arity in relation {name}")
        rel_arities[name] = arities.pop() if arities else 1
        rel_sets[name] = set(tuples)
    sig = classical_signature(fn_arities, rel_arities)
    index = {name: i for i, name in enumerate(carrier)}
    metric = {"S": [[ZERO if i == j else ONE for j in range(n)] for i in range(n)]}
    fn_tables = {}
    for name, table in functions.items():
        fn_tables[name] = {tuple(index[e] for e in args): index[val]
                           for args, val in table.items()}
    pred_tables = {}
    for name, tuples in rel_sets.items():
        ar = rel_arities[name]
        pred_tables[name] = {
            args: (ZERO if tuple(carrier[i] for i in args) in tuples else ONE)
            for args in itertools.product(range(n), repeat=ar)
        }
    return FiniteStructure(sig, {"S": list(carrier)}, metric, fn_tables, pred_tables)


def halfgraph_signature() -> Signature:
    return Signature([SortDecl("V", "d")],
                     predicates=[PredDecl("phi", ("V", "V"), (IDENTITY, IDENTITY))])


def gen_halfgraph(n: int) -> FiniteStructure:
    """Half-graph on 2n points: phi(a_i, b_j) = 1 iff i <= j, else 0 everywhere.

    Discrete metric, so the structure is trivially uniformly continuous.
    """
    if not 1 <= n <= 16:
        raise DomainError("half-graph size must be between 1 and 16")
    names = [f"a{i}" for i in range(n)] + [f"b{j}" for j in range(n)]
    size = 2 * n
    metric = {"V": [[ZERO if i == j else ONE for j in range(size)] for i in range(size)]}
    table = {}
    for i in range(size):
        for j in range(size):
            is_edge = i < n and j >= n and i <= j - n
            table[(i, j)] = ONE if is_edge else ZERO
    return FiniteStructure(halfgraph_signature(), {"V": names}, metric, {}, {"phi": table})
