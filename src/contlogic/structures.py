"""Finite continuous pre-structures and structures.

Carriers are finite per-sort element lists; tables are total and exact.
Evaluation takes quantifiers to exact min/max over carriers, validation
checks the pseudo-metric axioms and the quantitative inverse-modulus form
of uniform continuity, and completion quotients by zero distance.

Tables are stored flat and row-major: function tables as carrier indices,
metric and predicate tables as int numerators over one denominator per
table.  Formulas are compiled once into closures over those ints, so every
value is computed in exact integer arithmetic and divided once at the end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, getitem, itemgetter, mul, sub
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

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
    VALUE_SORT,
    SortDecl,
    ValueVar,
    Var,
    expand_condition,
    free_var_map,
    free_vars,
    parse,
)
from .values import (
    ONE,
    ZERO,
    check_connective,
    ensure_unit,
    format_rational,
    parse_rational,
)

IDENTITY = PLMonotone.identity()


class ScaledTable(NamedTuple):
    """Exact values as int numerators over one denominator, row-major."""

    den: int
    cells: list

    @staticmethod
    def of(values: Iterable[Fraction]) -> "ScaledTable":
        values = list(values)
        den = math.lcm(*{v.denominator for v in values})
        return ScaledTable(den, [v.numerator * (den // v.denominator) for v in values])

    @staticmethod
    def over(scale: int, cells: list) -> "ScaledTable":
        """The values cells[i] / scale, in the lowest terms `of` would give them."""
        g = math.gcd(scale, *cells)
        return ScaledTable(scale // g, [c // g for c in cells])

    def value(self, i: int) -> Fraction:
        return Fraction(self.cells[i], self.den)


def _strides(dims: Sequence[int]) -> list[int]:
    out = [1] * len(dims)
    for p in range(len(dims) - 2, -1, -1):
        out[p] = out[p + 1] * dims[p + 1]
    return out


class FiniteStructure:
    """A finite interpretation of a signature with exact rational tables.

    `metric_table` maps each sort to its n*n distance table, `function_table`
    maps each function symbol to its carrier indices and `predicate_table`
    each predicate symbol to its values; all are flat and row-major in the
    argument positions.  Structures are immutable after construction.
    """

    def __init__(self, sig: Signature, carriers: Mapping[str, Sequence[str]],
                 metric: Mapping[str, Sequence[Sequence[Fraction]]],
                 functions: Mapping[str, Mapping[tuple, int]],
                 predicates: Mapping[str, Mapping[tuple, Fraction]]):
        carriers = _checked_carriers(sig, carriers)
        sizes = {s: len(names) for s, names in carriers.items()}
        metric_table = {}
        for s in sig.sort_names:
            n = sizes[s]
            rows = metric.get(s)
            if rows is None or len(rows) != n or any(len(r) != n for r in rows):
                raise StructuralError(f"metric matrix for sort {s} must be {n}x{n}")
            metric_table[s] = ScaledTable.of(ensure_unit(v) for row in rows for v in row)
        function_table = {}
        for name, decl in sig.functions.items():
            table = functions.get(name)
            if table is None:
                raise StructuralError(f"missing table for function {name}")
            cells = []
            for args in _arg_tuples(sizes, decl.arg_sorts):
                if args not in table:
                    raise StructuralError(f"function table {name} not total at {args}")
                v = table[args]
                if not 0 <= v < sizes[decl.target]:
                    raise StructuralError(f"function table {name} out of range at {args}")
                cells.append(v)
            function_table[name] = cells
        predicate_table = {}
        for name, decl in sig.predicates.items():
            table = predicates.get(name)
            if table is None:
                raise StructuralError(f"missing table for predicate {name}")
            values = []
            for args in _arg_tuples(sizes, decl.arg_sorts):
                if args not in table:
                    raise StructuralError(f"predicate table {name} not total at {args}")
                values.append(ensure_unit(table[args]))
            predicate_table[name] = ScaledTable.of(values)
        self._set_tables(sig, carriers, metric_table, function_table, predicate_table)

    @classmethod
    def from_tables(cls, sig: Signature, carriers: Mapping[str, Sequence[str]],
                    metric_table: Mapping[str, ScaledTable],
                    function_table: Mapping[str, list],
                    predicate_table: Mapping[str, ScaledTable]) -> "FiniteStructure":
        """A structure on flat tables that are already checked, shared, not copied."""
        M = cls.__new__(cls)
        M._set_tables(sig, {s: tuple(names) for s, names in carriers.items()},
                      metric_table, function_table, predicate_table)
        return M

    def _set_tables(self, sig, carriers, metric_table, function_table, predicate_table):
        self.sig = sig
        self.carriers = carriers
        self.sizes = {s: len(names) for s, names in carriers.items()}
        self.index = {s: {name: i for i, name in enumerate(names)}
                      for s, names in carriers.items()}
        self.metric_table = dict(metric_table)
        self.function_table = dict(function_table)
        self.predicate_table = dict(predicate_table)
        decls = {**sig.functions, **sig.predicates}
        self._strides = {name: _strides([self.sizes[s] for s in decl.arg_sorts])
                         for name, decl in decls.items()}

    @cached_property
    def _phi_instances(self) -> dict:
        """(formula, split) -> PhiInstance, filled by `phi_instance`."""
        return {}

    def element_name(self, sort: str, idx: int) -> str:
        return self.carriers[sort][idx]

    def element_index(self, sort: str, name: str) -> int:
        try:
            return self.index[sort][name]
        except KeyError:
            raise StructuralError(f"no element {name!r} in sort {sort}") from None

    def distance(self, sort: str, i: int, j: int) -> Fraction:
        return self.metric_table[sort].value(i * self.sizes[sort] + j)

    def pred_value(self, name: str, args: tuple) -> Fraction:
        if self.sig.is_metric(name):
            return self.distance(self.sig.metric_sort[name], args[0], args[1])
        return self.predicate_table[name].value(sum(map(mul, args, self._strides[name])))

    def fn_value(self, name: str, args: tuple) -> int:
        return self.function_table[name][sum(map(mul, args, self._strides[name]))]

    # -- JSON -----------------------------------------------------------------

    def to_json(self, inline_signature: bool = True) -> dict:
        def dims(arg_sorts):
            return [self.sizes[s] for s in arg_sorts]

        def formatted(table: ScaledTable) -> list:
            text = {c: format_rational(Fraction(c, table.den)) for c in set(table.cells)}
            return list(map(text.__getitem__, table.cells))

        return {
            "signature": self.sig.to_json() if inline_signature else None,
            "carriers": {s: list(names) for s, names in self.carriers.items()},
            "metric": {s: _nested(formatted(table), dims((s, s)))
                       for s, table in self.metric_table.items()},
            "functions": {
                name: _nested(list(map(self.carriers[decl.target].__getitem__,
                                       self.function_table[name])), dims(decl.arg_sorts))
                for name, decl in self.sig.functions.items()},
            "predicates": {name: _nested(formatted(self.predicate_table[name]),
                                         dims(decl.arg_sorts))
                           for name, decl in self.sig.predicates.items()},
        }

    @staticmethod
    def from_json(data: dict, sig: Optional[Signature] = None) -> "FiniteStructure":
        """Load a structure file, filling the flat tables from its nested lists.

        Each distinct rational string of a table is parsed and range-checked once.
        """
        if not isinstance(data, dict):
            raise StructuralError("structure file must be a JSON object")
        if sig is None:
            raw_sig = data.get("signature")
            if raw_sig is None:
                raise StructuralError("structure file has no signature and none was supplied")
            sig = Signature.from_json(raw_sig)
        for key in ("carriers", "metric"):
            if not isinstance(data.get(key), dict):
                raise StructuralError(f"structure file has no {key!r}")
        carriers = {}
        for s, names in data["carriers"].items():
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise StructuralError(f"carrier of sort {s} must be a list of element names")
            carriers[s] = tuple(names)
        carriers = _checked_carriers(sig, carriers)
        sizes = {s: len(names) for s, names in carriers.items()}

        def scaled(texts: list, name: str, check) -> ScaledTable:
            try:
                distinct = set(texts)
            except TypeError:  # a leaf that is a list: the table is nested too deep
                raise StructuralError(f"table {name} has wrong shape") from None
            values = {text: parse_rational(text) for text in distinct}
            for v in values.values():
                check(v)
            den = math.lcm(*(v.denominator for v in values.values()))
            num = {text: v.numerator * (den // v.denominator) for text, v in values.items()}
            return ScaledTable(den, list(map(num.__getitem__, texts)))

        metric_table = {}
        for s in sig.sort_names:
            n = sizes[s]

            def in_metric(v, s=s):
                if v > 1:
                    raise DomainError(f"metric diameter exceeds 1 in sort {s}")
                ensure_unit(v)

            cells = _flatten(data["metric"].get(s), (n, n))
            if cells is None:
                raise StructuralError(f"metric matrix for sort {s} must be {n}x{n}")
            metric_table[s] = scaled(cells, sig.metric_of[s], in_metric)
        function_table = {}
        for name, decl in sig.functions.items():
            cells = _flatten(_symbol_table(data, "functions", name),
                             [sizes[s] for s in decl.arg_sorts])
            if cells is None:
                raise StructuralError(f"table {name} has wrong shape")
            index = {e: i for i, e in enumerate(carriers[decl.target])}
            try:
                function_table[name] = list(map(index.__getitem__, cells))
            except (KeyError, TypeError):
                raise StructuralError(
                    f"function table {name} has a value outside sort {decl.target}") from None
        predicate_table = {}
        for name, decl in sig.predicates.items():
            cells = _flatten(_symbol_table(data, "predicates", name),
                             [sizes[s] for s in decl.arg_sorts])
            if cells is None:
                raise StructuralError(f"table {name} has wrong shape")
            predicate_table[name] = scaled(cells, name, ensure_unit)
        return FiniteStructure.from_tables(sig, carriers, metric_table, function_table,
                                           predicate_table)


def _checked_carriers(sig: Signature, carriers: Mapping[str, Sequence[str]]) -> dict:
    carriers = {s: tuple(names) for s, names in carriers.items()}
    for s in sig.sort_names:
        if not carriers.get(s):
            raise StructuralError(f"empty or missing carrier for sort {s}")
        if len(set(carriers[s])) != len(carriers[s]):
            raise StructuralError(f"duplicate element names in sort {s}")
    return carriers


def _arg_tuples(sizes: Mapping[str, int], arg_sorts: Sequence[str]):
    return itertools.product(*(range(sizes[s]) for s in arg_sorts))


def _flatten(node, dims: Sequence[int]) -> Optional[list]:
    """Row-major leaves of a nested list of shape `dims`, or None if it has another shape."""
    level = [node]
    for n in dims:
        if any(type(x) is not list or len(x) != n for x in level):
            return None
        level = list(itertools.chain.from_iterable(level))
    return level


def _nested(cells: list, dims: Sequence[int]):
    """Inverse of `_flatten`: nested lists of shape `dims` over row-major cells."""
    if not dims:
        return cells[0]
    for n in reversed(dims[1:]):
        cells = [cells[i:i + n] for i in range(0, len(cells), n)]
    return cells


def _symbol_table(data: dict, section: str, name: str):
    try:
        return data[section][name]
    except (KeyError, TypeError):
        raise StructuralError(f"structure file has no {section} table for {name!r}") from None


# ---------------------------------------------------------------------------
# Evaluation
#
# A formula compiles once into closures over e, the list of carrier indices
# of the free variables followed by one slot per quantifier.  A node's value
# is an int over a scale fixed at compile time: a table's denominator at an
# atom, twice the child's scale under `half`, and the lcm of the children's
# scales at a binary connective or `med`.  Every value lies in [0, scale].
#
# Each node is compiled against at most one row variable: the last
# variable given to `compile_row`, or the variable of the innermost
# quantifier above it whose body reads it and is not itself a quantifier.
# A node that reads the row variable is a row node, a closure e -> list of
# numerators with one entry per element of that variable's carrier, in
# carrier order.  Rows are read-only: a node may return the same list on
# every call.  Any other node is a scalar node, a closure e -> int, and a
# row parent broadcasts it.  A lookup with the row variable in one
# argument reads a slice of the flat table, taken once per compile;
# connectives and `med` work element-wise on rows, and sup/inf over a row
# body is max/min of the row.  A quantifier whose body does not read its
# variable is its body, since carriers are not empty.  Python loops remain
# only where a nested quantifier reads an outer variable: a quantifier that
# reads the enclosing row variable sets that variable's slot element by
# element, and a quantifier whose body is a quantifier reading its variable
# sets its own slot, stopping early once the value reaches the scale (sup)
# or 0 (inf).  Which variables each node reads comes from one
# `free_var_map` pass, made when the first quantifier is compiled.


def compile_formula(M: FiniteStructure, f, variables: Sequence[str],
                    env: Optional[Mapping[str, object]] = None
                    ) -> Callable[[Sequence[int]], Fraction]:
    """Exact evaluator of f on M as a function of carrier indices.

    The returned function takes one carrier index per entry of `variables`,
    in that order, and returns the truth value as a Fraction.  Value
    variables are read from `env` now, as constants.  Unbound variables,
    bad `med` arities and unknown connectives raise StructuralError here.
    """
    node, scale, _, pad = _compile(M, f, variables, env, None)
    return lambda indices: Fraction(node([*indices, *pad]), scale)


def compile_row(M: FiniteStructure, f, variables: Sequence[tuple[str, str]],
                env: Optional[Mapping[str, object]] = None
                ) -> tuple[Callable[[Sequence[int]], list], int]:
    """Exact evaluator of f on M along the carrier of its last variable: (row, scale).

    `variables` are (name, sort) pairs.  row(prefix) takes one carrier index
    per variable but the last and returns one int per element of the last
    variable's carrier, in carrier order; each over `scale` is the truth
    value there.  Without variables, row(()) holds the one value.  The list
    is read-only.  Errors are those of `compile_formula`.
    """
    names = [name for name, _ in variables]
    if not variables:
        node, scale, _, pad = _compile(M, f, names, env, None)
        return (lambda prefix: [node([*pad])]), scale
    name, sort = variables[-1]
    carrier = range(M.sizes[sort])
    node, scale, is_row, pad = _compile(M, f, names, env, (name, carrier))
    pad = [0, *pad]  # the last variable's slot, which only quantifier loops set
    if is_row:
        return (lambda prefix: node([*prefix, *pad])), scale
    width = len(carrier)
    return (lambda prefix: [node([*prefix, *pad])] * width), scale


def _compile(M: FiniteStructure, f, names: Sequence[str], env, row):
    """(node, scale, is_row, pad): f compiled with `names` in slots 0, 1, ...

    `row` is (name, carrier) of the row variable, or None; `pad` fills the
    quantifier slots after the variables' slots.
    """
    compiler = _Compiler(M, env or {}, len(names), f)
    node, scale, is_row = compiler.formula(
        f, {name: slot for slot, name in enumerate(names)}, row)
    return node, scale, is_row, [0] * compiler.quantifiers


def eval_formula(M: FiniteStructure, env: Mapping[str, object], f) -> Fraction:
    """Exact truth value of a formula under an environment.

    Structure variables map to carrier indices; value variables map to
    Fractions.  Quantifiers take min/max over the bound sort's carrier.
    Callers that evaluate one formula many times compile it once with
    `compile_formula` or `compile_row` instead.
    """
    names = list(env)
    return compile_formula(M, f, names, env)([env[n] for n in names])


def _constant(c):
    return lambda e: c


class _Slices(dict):
    """base -> cells[base : base + span : stride], each slice taken on first use."""

    __slots__ = ("cells", "stride", "span")

    def __init__(self, cells: list, stride: int, span: int):
        self.cells, self.stride, self.span = cells, stride, span

    def __missing__(self, base: int) -> list:
        out = self[base] = self.cells[base:base + self.span:self.stride]
        return out


class _Compiler:
    def __init__(self, M: FiniteStructure, env: Mapping[str, object], free: int, f):
        self.M = M
        self.env = env
        self.free = free
        self.f = f
        self.quantifiers = 0
        self.slices: dict = {}  # (id(cells), argument position) -> _Slices

    @cached_property
    def reads(self) -> dict:
        """id(node) -> its free variables, for every node of f; only quantifiers ask."""
        return free_var_map(self.f)

    def reads_var(self, f, name: str) -> bool:
        return any(n == name and s != VALUE_SORT for n, s in self.reads[id(f)])

    def term(self, t, scope: Mapping[str, int], row):
        """(getter, is_row) of a term.

        A scalar getter is a variable's slot (an int) or a closure e ->
        carrier index; a row getter is the row variable's carrier (a range)
        or a closure e -> list of carrier indices.
        """
        if isinstance(t, Var):
            if t.name not in scope:
                raise StructuralError(f"unbound variable {t.name!r}")
            if row is not None and t.name == row[0]:
                return row[1], True
            return scope[t.name], False
        return self.lookup(self.M.function_table[t.func],
                           [self.term(a, scope, row) for a in t.args], self.M._strides[t.func])

    def lookup(self, cells: list, args: list, strides: Sequence[int]):
        """(closure, is_row): cells at the flat index of the argument terms."""
        rows = [p for p, (_, is_row) in enumerate(args) if is_row]
        if not rows:
            return _scalar_lookup(cells, [g for g, _ in args], strides), False
        scalars = [(g, strides[p]) for p, (g, is_row) in enumerate(args) if not is_row]
        if len(rows) > 1:
            return _index_lookup(cells, [(args[p][0], strides[p]) for p in rows], scalars), True
        p, = rows
        g = args[p][0]
        if not scalars:  # a unary table is its own row
            if type(g) is range:
                return (lambda e: cells), True
            return (lambda e: [cells[i] for i in g(e)]), True
        key = (id(cells), p)
        slices = self.slices.get(key)
        if slices is None:
            span = strides[p - 1] if p else len(cells)
            slices = self.slices[key] = _Slices(cells, strides[p], span)
        if len(scalars) == 1 and type(scalars[0][0]) is int:
            (a, s), = scalars
            at = lambda e: slices[e[a] * s]  # noqa: E731
        else:
            base = _offset(scalars)
            at = lambda e: slices[base(e)]  # noqa: E731
        if type(g) is range:
            return at, True

        def node(e):
            part = at(e)
            return [part[i] for i in g(e)]
        return node, True

    def formula(self, f, scope: Mapping[str, int], row):
        """(closure, scale, is_row); `row` is (name, carrier) of the row variable or None."""
        if isinstance(f, Atom):
            args = [self.term(t, scope, row) for t in f.args]
            sig = self.M.sig
            if sig.is_metric(f.pred):
                sort = sig.metric_sort[f.pred]
                table, strides = self.M.metric_table[sort], (self.M.sizes[sort], 1)
            else:
                table, strides = self.M.predicate_table[f.pred], self.M._strides[f.pred]
            node, is_row = self.lookup(table.cells, args, strides)
            return node, table.den, is_row
        if isinstance(f, Const):
            return _constant(f.value.numerator), f.value.denominator, False
        if isinstance(f, ValueVar):
            # a quantifier binding the same name hides the environment's value
            v = None if scope.get(f.name, -1) >= self.free else self.env.get(f.name)
            if not isinstance(v, Fraction):
                raise StructuralError(f"value variable {f.name!r} not bound to a rational")
            return _constant(v.numerator), v.denominator, False
        if isinstance(f, Op):
            args = [self.formula(a, scope, row) for a in f.args]
            check_connective(f.op, len(args), f.n)
            width = len(row[1]) if row is not None else 0
            if f.op == "med":
                return _median(args, f.n, width)
            return _connective(f.op, args, width)
        if isinstance(f, Quant):
            slot = self.free + self.quantifiers
            self.quantifiers += 1
            inner = {**scope, f.var: slot}
            if not self.reads_var(f.body, f.var):
                return self.formula(f.body, inner, row)  # the carrier is not empty
            carrier = range(self.M.sizes[f.sort])
            if isinstance(f.body, Quant):
                # a row of the body would loop over f.var anyway: loop here, stopping early
                body, scale, _ = self.formula(f.body, inner, None)
                node = _quantifier(f.kind, body, slot, carrier, scale)
            else:
                body, scale, _ = self.formula(f.body, inner, (f.var, carrier))
                best = max if f.kind == "sup" else min
                node = lambda e: best(body(e))  # noqa: E731
            if row is None or not self.reads_var(f, row[0]):
                return node, scale, False
            r, outer = scope[row[0]], row[1]
            return (lambda e: [node(e) for e[r] in outer]), scale, True
        raise StructuralError(f"not a formula: {f!r}")


def _quantifier(kind: str, body, slot: int, carrier: range, scale: int):
    """sup or inf of a scalar body over the carrier, stopping early at scale or 0."""
    if kind == "sup":
        def node(e):
            best = -1
            for i in carrier:
                e[slot] = i
                v = body(e)
                if v > best:
                    if v == scale:
                        return v
                    best = v
            return best
    else:
        def node(e):
            best = scale + 1
            for i in carrier:
                e[slot] = i
                v = body(e)
                if v < best:
                    if not v:
                        return v
                    best = v
            return best
    return node


def _offset(scalars: list):
    """Closure e -> the flat offset of the scalar arguments, from (getter, stride) pairs."""
    parts = [(itemgetter(g) if type(g) is int else g, s) for g, s in scalars]
    return lambda e: sum(g(e) * s for g, s in parts)


def _scalar_lookup(cells: list, args: list, strides: Sequence[int]):
    """Closure e -> cells[flat index of the scalar argument getters]."""
    if not args:
        return _constant(cells[0])
    if len(args) == 1:
        a = args[0]
        if type(a) is int:
            return lambda e: cells[e[a]]
        return lambda e: cells[a(e)]
    if len(args) == 2:
        a, b = args
        n = strides[0]
        if type(a) is int and type(b) is int:
            return lambda e: cells[e[a] * n + e[b]]
        ga = itemgetter(a) if type(a) is int else a
        gb = itemgetter(b) if type(b) is int else b
        return lambda e: cells[ga(e) * n + gb(e)]
    parts = [(itemgetter(a) if type(a) is int else a, s) for a, s in zip(args, strides)]
    return lambda e: cells[sum(g(e) * s for g, s in parts)]


def _index_lookup(cells: list, rows: list, scalars: list):
    """Row closure for two or more row arguments: cells at the element-wise flat index.

    `rows` and `scalars` are (getter, stride) pairs of the arguments.
    """
    getters = [(lambda e, g=g: g) if type(g) is range else g for g, _ in rows]
    if len(rows) == 2 and not scalars:
        (ga, gb), ((_, sa), (_, sb)) = getters, rows
        return lambda e: [cells[x * sa + y * sb] for x, y in zip(ga(e), gb(e))]
    strides = [s for _, s in rows]
    base = _offset(scalars)

    def node(e):
        b = base(e)
        return [cells[b + sum(map(mul, t, strides))] for t in zip(*[g(e) for g in getters])]
    return node


def _broadcast(a, k: int, is_row: bool, width: int):
    """Row closure of a child's numerators times k; a scalar child is repeated `width` times."""
    if is_row:
        return a if k == 1 else (lambda e: [k * x for x in a(e)])
    if k == 1:
        return lambda e: [a(e)] * width
    return lambda e: [a(e) * k] * width


def _connective(op: str, args: list, width: int):
    if op == "neg":
        (a, s, is_row), = args
        if is_row:
            return (lambda e: [s - x for x in a(e)]), s, True
        return (lambda e: s - a(e)), s, False
    if op == "half":
        (a, s, is_row), = args
        return a, 2 * s, is_row
    (a, sa, ra), (b, sb, rb) = args
    scale = math.lcm(sa, sb)
    ka, kb = scale // sa, scale // sb
    if ra or rb:
        a, b = _broadcast(a, ka, ra, width), _broadcast(b, kb, rb, width)
        if op == "monus":
            node = lambda e: [x - y if x > y else 0 for x, y in zip(a(e), b(e))]  # noqa: E731
        elif op == "min":
            node = lambda e: [x if x < y else y for x, y in zip(a(e), b(e))]  # noqa: E731
        elif op == "max":
            node = lambda e: [x if x > y else y for x, y in zip(a(e), b(e))]  # noqa: E731
        elif op == "plus_trunc":
            node = lambda e: [t if t < scale else scale  # noqa: E731
                              for t in map(add, a(e), b(e))]
        else:  # absdiff
            node = lambda e: [x - y if x > y else y - x for x, y in zip(a(e), b(e))]  # noqa: E731
        return node, scale, True
    if op == "monus":
        def node(e):
            d = a(e) * ka - b(e) * kb
            return d if d > 0 else 0
    elif op == "min":
        def node(e):
            x, y = a(e) * ka, b(e) * kb
            return x if x < y else y
    elif op == "max":
        def node(e):
            x, y = a(e) * ka, b(e) * kb
            return x if x > y else y
    elif op == "plus_trunc":
        def node(e):
            t = a(e) * ka + b(e) * kb
            return t if t < scale else scale
    else:  # absdiff
        def node(e):
            return abs(a(e) * ka - b(e) * kb)
    return node, scale, False


def _median(args: list, n: int, width: int):
    scale = math.lcm(*(s for _, s, _ in args))
    if not any(is_row for _, _, is_row in args):
        parts = [(a, scale // s) for a, s, _ in args]
        return (lambda e: sorted([a(e) * k for a, k in parts])[n - 1]), scale, False
    parts = [_broadcast(a, scale // s, is_row, width) for a, s, is_row in args]
    return (lambda e: [sorted(t)[n - 1] for t in zip(*[p(e) for p in parts])]), scale, True


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
    which is exact on finite structures.  All comparisons are on the int
    tables: a change c/D violates the bound u(d) iff c > floor(u(d) * D),
    and u is evaluated once per distinct distance.
    """
    out = []
    rows = {}
    for sort in M.sig.sort_names:
        names = M.carriers[sort]
        den, cells = M.metric_table[sort]
        n = len(names)
        dm = rows[sort] = [cells[i * n:(i + 1) * n] for i in range(n)]
        cols = [list(c) for c in zip(*dm)]
        for i in range(n):
            if dm[i][i] != 0:
                out.append(Violation("metric_reflexivity", sort, (names[i],),
                                     f"d({names[i]},{names[i]}) = "
                                     f"{format_rational(Fraction(dm[i][i], den))}"))
        for i in range(n):
            if dm[i][i + 1:] != cols[i][i + 1:]:
                for j in range(i + 1, n):
                    if dm[i][j] != dm[j][i]:
                        out.append(Violation("metric_symmetry", sort, (names[i], names[j]),
                                             "d(x,y) != d(y,x)"))
        for i, row in enumerate(dm):
            for j, col in enumerate(cols):
                dij = row[j]
                if dij and dij > min(map(add, row, col)):
                    for k in range(n):
                        if dij > row[k] + col[k]:
                            out.append(Violation(
                                "metric_triangle", sort, (names[i], names[j], names[k]),
                                f"d = {format_rational(Fraction(dij, den))} > "
                                f"{format_rational(Fraction(row[k] + col[k], den))}"))

    def check_symbol(name, decl, cells, den, target_rows=None):
        """Moduli of one symbol; `target_rows` (the target sort's metric) marks a function."""
        dims = [M.sizes[s] for s in decl.arg_sorts]
        for pos, (sort, u) in enumerate(zip(decl.arg_sorts, decl.moduli)):
            size = dims[pos]
            dist_den, dist = M.metric_table[sort]
            cols = _columns(cells, dims, pos)
            if target_rows is not None:
                rows_at = [[target_rows[a] for a in col] for col in cols]

                def changes(z, w):  # d(f(.., z, ..), f(.., w, ..)) per context
                    return map(getitem, rows_at[z], cols[w])
            else:
                def changes(z, w):  # |P(.., z, ..) - P(.., w, ..)| per context
                    return map(abs, map(sub, cols[z], cols[w]))
            bounds: dict = {}
            found = []
            for z in range(size):
                for w in range(z + 1, size):
                    d = dist[z * size + w]
                    if d not in bounds:
                        bound = u.eval(Fraction(d, dist_den))
                        bounds[d] = bound, bound.numerator * den // bound.denominator
                    bound, threshold = bounds[d]
                    if max(changes(z, w)) > threshold:
                        found += [(k, z, w, c, bound) for k, c in enumerate(changes(z, w))
                                  if c > threshold]
            found.sort(key=lambda v: v[:3])  # context, then z, then w
            for _, z, w, change, bound in found:
                out.append(Violation(
                    "modulus_function" if target_rows is not None else "modulus_predicate",
                    name, (M.element_name(sort, z), M.element_name(sort, w)),
                    f"argument {pos}: change {format_rational(Fraction(change, den))} > "
                    f"u(d) = {format_rational(bound)}"))

    for name, decl in M.sig.functions.items():
        check_symbol(name, decl, M.function_table[name], M.metric_table[decl.target].den,
                     rows[decl.target])
    for name, decl in M.sig.predicates.items():
        table = M.predicate_table[name]
        check_symbol(name, decl, table.cells, table.den)
    return ValidationReport(out)


def _columns(cells: list, dims: Sequence[int], pos: int) -> list:
    """cols[z] = the cells whose argument at `pos` is z, in the order of the other arguments."""
    inner = math.prod(dims[pos + 1:])
    block = dims[pos] * inner
    starts = range(0, len(cells), block)
    return [list(itertools.chain.from_iterable(cells[o + z * inner:o + (z + 1) * inner]
                                               for o in starts))
            for z in range(dims[pos])]


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
        n = M.sizes[sort]
        dist = M.metric_table[sort].cells
        rep = list(range(n))
        for i in range(n):
            earlier = dist[i * n:i * n + i]
            if 0 in earlier:
                rep[i] = rep[earlier.index(0)]
        members: dict[int, list[int]] = {}
        for i in range(n):
            members.setdefault(rep[i], []).append(i)
        ordered = sorted(members)
        class_of[sort] = [ordered.index(rep[i]) for i in range(n)]
        classes[sort] = [(M.element_name(sort, r), [M.element_name(sort, m) for m in members[r]])
                         for r in ordered]
    if all(len(classes[s]) == M.sizes[s] for s in M.sig.sort_names):
        return CompletionResult(M, classes)  # no two elements at distance 0

    bad = []
    new_carriers = {s: [rep for rep, _ in classes[s]] for s in M.sig.sort_names}
    reps = {s: [M.element_index(s, rep) for rep, _ in classes[s]] for s in M.sig.sort_names}

    new_metric = {}
    for sort in M.sig.sort_names:
        idxs = reps[sort]
        n = M.sizes[sort]
        den, dist = M.metric_table[sort]
        new_rows = [[dist[i * n + j] for j in idxs] for i in idxs]
        new_metric[sort] = ScaledTable(den, [v for row in new_rows for v in row])
        # well-definedness of the metric on classes
        cls = class_of[sort]
        for i in range(n):
            row = new_rows[cls[i]]
            for j in range(n):
                if dist[i * n + j] != row[cls[j]]:
                    bad.append(("d", (M.element_name(sort, i), M.element_name(sort, j))))

    def quotient(name, arg_sorts, cells, value_class):
        table = {}
        for args, value in zip(_arg_tuples(M.sizes, arg_sorts), cells):
            cargs = tuple(class_of[s][a] for s, a in zip(arg_sorts, args))
            value = value_class(value)
            if cargs in table and table[cargs] != value:
                bad.append((name, tuple(M.element_name(s, a) for s, a in zip(arg_sorts, args))))
            table[cargs] = value
        return [table[cargs] for cargs in itertools.product(
            *(range(len(reps[s])) for s in arg_sorts))]

    new_functions = {name: quotient(name, decl.arg_sorts, M.function_table[name],
                                    class_of[decl.target].__getitem__)
                     for name, decl in M.sig.functions.items()}
    new_predicates = {}
    for name, decl in M.sig.predicates.items():
        den, cells = M.predicate_table[name]
        new_predicates[name] = ScaledTable(den, quotient(name, decl.arg_sorts, cells, int))
    if bad:
        raise CompletionError("tables not constant on zero-distance classes", bad)
    structure = FiniteStructure.from_tables(M.sig, new_carriers, new_metric, new_functions,
                                            new_predicates)
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
        if not names:
            raise StructuralError(f"subset is empty in sort {sort}")
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
        if y_sort == VALUE_SORT:
            raise StructuralError(f"distinguished variable {first!r} is a value variable")
        # a value variable is not in params, so compiling reports it unbound
        params = [(n, s) for n, s in fv if n != first and s != VALUE_SORT]
        row, scale = compile_row(M, f, params + [(first, y_sort)])
        sub_y = sub_idx[y_sort]
        for combo in itertools.product(*(sub_idx[s] for _, s in params)):
            values = row(combo)
            inf_m = min(values)
            inf_a = min(map(values.__getitem__, sub_y))
            if inf_a != inf_m:
                witness_names = tuple(M.element_name(s, i)
                                      for (_, s), i in zip(params, combo))
                return False, {"formula": f, "tuple": witness_names,
                               "inf_over_structure": Fraction(inf_m, scale),
                               "inf_over_subset": Fraction(inf_a, scale)}
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


class PhiInstance:
    """A formula with a variable split on one structure, and its value matrix.

    `num[i][j]` over `scale` is phi(xts[i], yts[j]); `vals` holds the same
    values as Fractions and is built on first use.  `x_index` and `y_index`
    map a tuple of element names to its position in `xts` or `yts`.
    """

    def __init__(self, M: FiniteStructure, phi, split: VariableSplit):
        self.xts = xts = tuples_of(M, split.x)
        self.yts = yts = tuples_of(M, split.y)
        self.x_index = {tuple_names(M, split.x, t): i for i, t in enumerate(xts)}
        self.y_index = {tuple_names(M, split.y, t): i for i, t in enumerate(yts)}
        variables = split.x + split.y
        row, self.scale = compile_row(M, phi, variables)
        # one row per tuple of all variables but the last, in lexicographic order
        flat = list(itertools.chain.from_iterable(map(row, tuples_of(M, variables[:-1]))))
        m = len(yts)
        self.num = tuple(tuple(flat[i:i + m]) for i in range(0, len(flat), m))

    @cached_property
    def vals(self) -> tuple:
        return fraction_rows(self.num, self.scale)


def phi_instance(M: FiniteStructure, phi, split: VariableSplit) -> PhiInstance:
    """The instance of (M, phi, split), built on the first call and kept on M."""
    key = (phi, split)
    inst = M._phi_instances.get(key)
    if inst is None:
        inst = M._phi_instances[key] = PhiInstance(M, phi, split)
    return inst


def value_matrix(M: FiniteStructure, phi, split: VariableSplit):
    """vals[x_tuple_index][y_tuple_index] = phi(x_tuple, y_tuple), exact."""
    inst = phi_instance(M, phi, split)
    return inst.xts, inst.yts, inst.vals


def fraction_rows(rows, scale: int) -> tuple:
    """Int rows over `scale` as rows of Fractions, each distinct value converted once."""
    frac = {v: Fraction(v, scale) for v in set().union(*rows)}
    return tuple(tuple(map(frac.__getitem__, row)) for row in rows)


def sup_distances(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """d[i][j] = max_k |vectors[i][k] - vectors[j][k]|, 0 for empty vectors.

    The sup-difference metric of phi-types (on rows of a value matrix) and
    of canonical parameters (on its columns), on ints over one scale.
    """
    n = len(vectors)
    d = [[0] * n for _ in range(n)]
    for i, u in enumerate(vectors):
        row = d[i]
        for j in range(i + 1, n):
            row[j] = d[j][i] = max(map(abs, map(sub, u, vectors[j])), default=0)
    return d


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
