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
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import add, getitem, itemgetter, mul, sub
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import CompletionError, DomainError, StructuralError
from .language import (
    App,
    Atom,
    Const,
    Op,
    Quant,
    Signature,
    VALUE_SORT,
    ValueVar,
    Var,
    free_var_map,
    free_vars,
)
from .values import (
    Lanes,
    check_connective,
    check_unit,
    format_ratio,
    format_rational,
    parse_literals,
)


class ScaledTable(NamedTuple):
    """Exact values as int numerators over one denominator, row-major."""

    den: int
    cells: list

    @staticmethod
    def over(scale: int, cells: list) -> "ScaledTable":
        """The values cells[i] / scale over their least common denominator, as `from_json`
        reads them from a file."""
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
                 metric_table: Mapping[str, ScaledTable],
                 function_table: Mapping[str, list],
                 predicate_table: Mapping[str, ScaledTable]):
        """A structure on flat tables that are already checked, shared, not copied.

        `from_json` is the checked way to build one from a file's tables.
        """
        self.sig = sig
        self.carriers = {s: tuple(names) for s, names in carriers.items()}
        self.sizes = {s: len(names) for s, names in self.carriers.items()}
        self.index = {s: dict(zip(names, range(len(names)))) for s, names in self.carriers.items()}
        self.metric_table = metric_table
        self.function_table = function_table
        self.predicate_table = predicate_table
        self._strides = {name: _strides([self.sizes[s] for s in decl.arg_sorts])
                         for decls in (sig.functions, sig.predicates)
                         for name, decl in decls.items()}

    def element_name(self, sort: str, idx: int) -> str:
        return self.carriers[sort][idx]

    def element_index(self, sort: str, name: str) -> int:
        try:
            return self.index[sort][name]
        except KeyError:
            raise StructuralError(f"no element {name!r} in sort {sort}") from None

    def distance(self, sort: str, i: int, j: int) -> Fraction:
        return self.metric_table[sort].value(i * self.sizes[sort] + j)

    def fn_value(self, name: str, args: tuple) -> int:
        return self.function_table[name][sum(map(mul, args, self._strides[name]))]

    # -- JSON -----------------------------------------------------------------

    def to_json(self) -> dict:
        def dims(arg_sorts):
            return [self.sizes[s] for s in arg_sorts]

        def formatted(table: ScaledTable) -> list:
            text = {c: format_rational(Fraction(c, table.den)) for c in set(table.cells)}
            return list(map(text.__getitem__, table.cells))

        return {
            "signature": self.sig.to_json(),
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

        Each distinct rational string of the file is parsed once, and each of a
        table range-checked once.
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
        carriers = data["carriers"]
        for s, names in carriers.items():
            if s not in sig.sorts:
                raise StructuralError(f"carrier for undeclared sort {s}")
            if not isinstance(names, list) or not all(map(isinstance, names, repeat(str))):
                raise StructuralError(f"carrier of sort {s} must be a list of element names")
        for s in sig.sorts:
            names = carriers.get(s)
            if not names:
                raise StructuralError(f"empty or missing carrier for sort {s}")
            if len(set(names)) != len(names):
                raise StructuralError(f"duplicate element names in sort {s}")
        # the tables are read into the new structure's, which nothing else holds yet
        M = FiniteStructure(sig, carriers, {}, {}, {})
        parsed = {}  # literal -> its parse_ratio pair, shared by the file's tables
        for s in sig.sorts:
            n = M.sizes[s]
            cells = _flatten(data["metric"].get(s), (n, n))
            if cells is None:
                raise StructuralError(f"metric matrix for sort {s} must be {n}x{n}")
            den, num = _literals(cells, sig.metric_of[s], parsed)
            for v in num.values():
                if v > den:
                    raise DomainError(f"metric diameter exceeds 1 in sort {s}")
                check_unit(v, den)
            M.metric_table[s] = ScaledTable(den, list(map(num.__getitem__, cells)))
        for name, decl in sig.functions.items():
            cells = _flatten(_symbol_table(data, "functions", name),
                             [M.sizes[s] for s in decl.arg_sorts])
            if cells is None:
                raise StructuralError(f"table {name} has wrong shape")
            try:
                M.function_table[name] = list(map(M.index[decl.target].__getitem__, cells))
            except (KeyError, TypeError):
                raise StructuralError(
                    f"function table {name} has a value outside sort {decl.target}") from None
        for name, decl in sig.predicates.items():
            cells = _flatten(_symbol_table(data, "predicates", name),
                             [M.sizes[s] for s in decl.arg_sorts])
            if cells is None:
                raise StructuralError(f"table {name} has wrong shape")
            den, num = _literals(cells, name, parsed)
            for v in num.values():
                check_unit(v, den)
            M.predicate_table[name] = ScaledTable(den, list(map(num.__getitem__, cells)))
        return M


def _literals(cells: list, name: str, parsed: dict) -> tuple[int, dict]:
    """`parse_literals` of a table's flat cells; a cell that is a list is a wrong shape."""
    try:
        return parse_literals(cells, parsed)
    except TypeError:  # a leaf that is a list: the table is nested too deep
        raise StructuralError(f"table {name} has wrong shape") from None


def _arg_tuples(sizes: Mapping[str, int], arg_sorts: Sequence[str]):
    return itertools.product(*(range(sizes[s]) for s in arg_sorts))


def _flatten(node, dims: Sequence[int]) -> Optional[list]:
    """Row-major leaves of a nested list of shape `dims`, or None if it has another shape."""
    level = [node]
    for n in dims:
        for x in level:
            if type(x) is not list or len(x) != n:
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
# Each node is compiled against at most one row: the last variable given
# to `compile_row`, over its carrier in carrier order, or the row of the
# innermost quantifier above it whose body reads its variable y and is not
# itself a quantifier.  When that body reads y only inside one function
# term t, no quantifier in it reads y and t's other variables are bound
# outside, the row runs over the distinct values t takes as y runs over
# the carrier, in increasing order, and the body reads t there; otherwise
# it runs over y's carrier (the case t = y).  The sup or inf of a finite
# multiset is that of its support, so values are unchanged.  A node that
# reads y is a row node, a closure e -> list of numerators with one entry
# per row element; row lengths may change from call to call.  Rows are
# read-only: a node may return the same list on every call.  Any other node
# is a scalar node, a closure e -> int, and a row parent takes its value
# as one operand against every row entry.  A lookup with the row in one
# argument reads a slice of the flat table, taken once per compile;
# connectives and `med` work element-wise on rows, and sup/inf over a row
# body is max/min of the row.  A quantifier whose body does not read its
# variable is its body, since carriers are not empty.  Python loops remain
# only where a nested quantifier reads an outer variable: a quantifier that
# reads the enclosing row variable (whose row is then its carrier) sets
# that variable's slot element by element, and a quantifier whose body is
# a quantifier reading its variable sets its own slot, stopping early once
# the value reaches the scale (sup) or 0 (inf).  Which variables each node
# reads comes from one `free_var_map` pass, made when the compiler first
# needs it.
#
# Nodes that do per-element work are tabled: connective and `med` rows,
# lookups through a function term, rows filled by a quantifier, and
# sup/inf nodes.  Such a node keeps its output, for the life of the
# compile, keyed by the slots it reads, when its scope holds a variable
# other than the row variable that it does not read and whose slot a loop
# or a call sets (no loop sets the slot of a quantifier whose body
# ignores it).  A node that reads no slot is computed once; one that
# reads one slot keeps one output per value of it, at most one carrier's
# worth; one that reads more keeps only its last output, and is tabled
# only if an unread slot is bound inside all the slots it reads (slots
# are numbered outermost first), since only then does that output come
# round again.  Plain table slices are not tabled: `_Slices` keeps them
# already.  A table holds the values the node would compute, so values
# are unchanged.


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
    node, scale, is_row, pad = _compile(M, f, names, env, (name, carrier, None))
    pad = [0, *pad]  # the last variable's slot, which only quantifier loops set
    if is_row:
        return (lambda prefix: node([*prefix, *pad])), scale
    width = len(carrier)
    return (lambda prefix: [node([*prefix, *pad])] * width), scale


def _compile(M: FiniteStructure, f, names: Sequence[str], env, row):
    """(node, scale, is_row, pad): f compiled with `names` in slots 0, 1, ...

    `row` is (name, carrier, None) of the row variable, or None; `pad` fills the
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
        self.unset: set = set()  # slots of quantifiers whose body ignores them

    @cached_property
    def reads(self) -> dict:
        """id(node) -> its free variables, for every node of f; asked for on first need."""
        return free_var_map(self.f)

    def reads_var(self, f, name: str) -> bool:
        return any(n == name and s != VALUE_SORT for n, s in self.reads[id(f)])

    def tabled(self, f, node, scope: Mapping[str, int], row):
        """node, kept in a table keyed by the slots f reads where that saves work."""
        skip = row[0] if row is not None else None
        others = {slot for name, slot in scope.items()
                  if name != skip and slot not in self.unset}
        if not others:
            return node
        read = sorted({scope[n] for n, s in self.reads[id(f)] if s != VALUE_SORT and n != skip})
        others.difference_update(read)
        if not others or len(read) > 1 and max(others) < read[-1]:
            return node
        return _table(node, read)

    def term(self, t, scope: Mapping[str, int], row):
        """(getter, is_row) of a term.

        A scalar getter is a variable's slot (an int) or a closure e ->
        carrier index; a row getter is the row's values (at the row's
        variable or term) or a closure e -> list of carrier indices over them.
        """
        if isinstance(t, Var):
            if t.name not in scope:
                raise StructuralError(f"unbound variable {t.name!r}")
            if row is not None and t.name == row[0]:  # a term row never meets its bare variable
                return row[1], True
            return scope[t.name], False
        if row is not None and t == row[2]:
            return row[1], True
        return self.lookup(self.M.function_table[t.func],
                           [self.term(a, scope, row) for a in t.args], self.M._strides[t.func])

    def row(self, q, scope: Mapping[str, int]):
        """The row of quantifier q, whose body reads q.var: (q.var, values, term).

        values is a closure e -> the distinct values of the one term through
        which the body reads q.var, or q.var's carrier (a range, term None).
        """
        bare = q.var, range(self.M.sizes[q.sort]), None
        terms = set()
        stack = [q.body]
        while stack:
            g = stack.pop()
            if isinstance(g, Op):
                stack.extend(g.args)
            elif isinstance(g, Atom):
                terms.update(t for t in g.args if self.reads_var(t, q.var))
            elif isinstance(g, Quant) and self.reads_var(g, q.var):
                return bare
        t = terms.pop() if len(terms) == 1 else None
        # an unbound variable in t is reported where the body meets it
        if not isinstance(t, App) or not scope.keys() >= {n for n, _ in self.reads[id(t)]}:
            return bare
        g, _ = self.term(t, scope, bare)
        return q.var, (lambda e: sorted({*g(e)})), t

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
        """(closure, scale, is_row); `row` is (name, values, term) as `row` builds it, or None."""
        if isinstance(f, Atom):
            args = [self.term(t, scope, row) for t in f.args]
            sig = self.M.sig
            if sig.is_metric(f.pred):
                sort = sig.metric_sort[f.pred]
                table, strides = self.M.metric_table[sort], (self.M.sizes[sort], 1)
            else:
                table, strides = self.M.predicate_table[f.pred], self.M._strides[f.pred]
            node, is_row = self.lookup(table.cells, args, strides)
            rows = [g for g, r in args if r]
            if len(rows) > 1 or rows and type(rows[0]) is not range:  # not a plain slice
                node = self.tabled(f, node, scope, row)
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
            node, scale, is_row = (_median(args, f.n) if f.op == "med"
                                   else _connective(f.op, args))
            if is_row and f.op != "half":
                node = self.tabled(f, node, scope, row)
            return node, scale, is_row
        if isinstance(f, Quant):
            slot = self.free + self.quantifiers
            self.quantifiers += 1
            inner = {**scope, f.var: slot}
            if not self.reads_var(f.body, f.var):
                self.unset.add(slot)
                return self.formula(f.body, inner, row)  # the carrier is not empty
            if isinstance(f.body, Quant):
                # a row of the body would loop over f.var anyway: loop here, stopping early
                body, scale, _ = self.formula(f.body, inner, None)
                node = _quantifier(f.kind, body, slot, range(self.M.sizes[f.sort]), scale)
            else:
                body, scale, _ = self.formula(f.body, inner, self.row(f, inner))
                best = max if f.kind == "sup" else min
                node = lambda e: best(body(e))  # noqa: E731
            if row is None or not self.reads_var(f, row[0]):
                return self.tabled(f, node, scope, row), scale, False
            r, outer = scope[row[0]], row[1]  # a carrier: f reads the row's variable
            return self.tabled(f, lambda e: [node(e) for e[r] in outer], scope, row), scale, True
        raise StructuralError(f"not a formula: {f!r}")


def _table(node, slots: list):
    """node behind a table: its output per value of one slot, once for none, else the last."""
    if not slots:
        out = None

        def tabled(e):
            nonlocal out
            if out is None:
                out = node(e)
            return out
    elif len(slots) == 1:
        s, = slots
        memo: dict = {}

        def tabled(e):
            try:
                return memo[e[s]]
            except KeyError:
                out = memo[e[s]] = node(e)
                return out
    else:
        key = itemgetter(*slots)
        last = out = None

        def tabled(e):
            nonlocal last, out
            k = key(e)
            if k != last:
                last, out = k, node(e)
            return out
    return tabled


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


def _scaled(a, k: int):
    """Row closure of a row child's numerators times k."""
    return a if k == 1 else (lambda e: [k * x for x in a(e)])


# Element-wise kernels of the binary connectives on numerators over scale s:
# on two rows, and on a row with a value on the right or on the left.
_ROWS = {
    "monus": lambda r, q, s: [x - y if x > y else 0 for x, y in zip(r, q)],
    "min": lambda r, q, s: [x if x < y else y for x, y in zip(r, q)],
    "max": lambda r, q, s: [x if x > y else y for x, y in zip(r, q)],
    "plus_trunc": lambda r, q, s: [t if t < s else s for t in map(add, r, q)],
    "absdiff": lambda r, q, s: [x - y if x > y else y - x for x, y in zip(r, q)],
}
_ROW_VALUE = {
    "monus": lambda r, v, s: [x - v if x > v else 0 for x in r],
    "min": lambda r, v, s: [x if x < v else v for x in r],
    "max": lambda r, v, s: [x if x > v else v for x in r],
    "plus_trunc": lambda r, v, s: [t if t < s else s for t in map(v.__add__, r)],
    "absdiff": lambda r, v, s: [x - v if x > v else v - x for x in r],
}
_VALUE_ROW = {**_ROW_VALUE, "monus": lambda r, v, s: [v - x if v > x else 0 for x in r]}


def _connective(op: str, args: list):
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
    if ra and rb:
        a, b, kernel = _scaled(a, ka), _scaled(b, kb), _ROWS[op]
        return (lambda e: kernel(a(e), b(e), scale)), scale, True
    if ra or rb:  # the scalar child is one value, however long the row
        r, c, k, kernel = ((_scaled(a, ka), b, kb, _ROW_VALUE[op]) if ra
                           else (_scaled(b, kb), a, ka, _VALUE_ROW[op]))
        return (lambda e: kernel(r(e), c(e) * k, scale)), scale, True
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


def _median(args: list, n: int):
    scale = math.lcm(*(s for _, s, _ in args))
    if not any(is_row for _, _, is_row in args):
        parts = [(a, scale // s) for a, s, _ in args]
        return (lambda e: sorted([a(e) * k for a, k in parts])[n - 1]), scale, False
    rows = [_scaled(a, scale // s) for a, s, is_row in args if is_row]
    values = [(a, scale // s) for a, s, is_row in args if not is_row]

    def node(e):
        vs = tuple([a(e) * k for a, k in values])
        return [sorted(t + vs)[n - 1] for t in zip(*[r(e) for r in rows])]
    return node, scale, True


def env_from_names(M: FiniteStructure, bindings: Mapping[str, str], f) -> dict:
    """Build an evaluation environment from element names using f's variable sorts."""
    sorts = dict(free_vars(f))
    env = {}
    for var, elem in bindings.items():
        if var not in sorts:
            raise StructuralError(f"variable {var!r} is not free in the formula")
        if sorts[var] == VALUE_SORT:
            raise StructuralError(f"value variable {var!r} cannot be bound to an element")
        env[var] = M.element_index(sorts[var], elem)
    return env


# ---------------------------------------------------------------------------
# Validation


class Violation(NamedTuple):
    kind: str
    subject: str
    witnesses: tuple[str, ...]
    detail: str

    def __str__(self) -> str:  # as `check` reports it, on one line
        return f"{self.kind} {self.subject} ({', '.join(self.witnesses)}): {self.detail}"


class ValidationReport(NamedTuple):
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
    tables: a change c/D violates the bound u(d) = n/m iff c > floor(n * D / m),
    and u is evaluated on ints once per distinct distance of each sort, shared
    by every symbol and argument with that modulus and that D.

    A modulus scans only the base pairs of its (u, sort, D) when the argument
    sort's metric is symmetric and, for a function, the target sort's metric is
    symmetric and obeys the triangle inequality.  With thr(d) = floor(u(d) * D),
    a pair z < w is a base pair unless its first midpoint y, with d(z,y) > 0,
    d(y,w) > 0 and d(z,y) + d(y,w) = d(z,w), has thr(d(z,y)) + thr(d(y,w)) <=
    thr(d(z,w)).  If no base pair violates, no pair does, by strong induction on
    d(z,w): the halves of any other pair are nearer, so in every context
    change(z,w) <= change(z,y) + change(y,w) <= thr(d(z,y)) + thr(d(y,w)) <=
    thr(d(z,w)), by the triangle inequality of |.| on predicate values or of the
    target metric, exact on ints (symmetry makes d and change independent of a
    pair's order).  Otherwise every pair is scanned, so the report is always a
    full scan's.  Midpoints and the triangle check read the metric rows packed
    as `Lanes`: lane y of row z + row w is d(z,y) + d(y,w).
    """
    out = []
    rows, mids = {}, {}  # sort -> metric rows; symmetric sort -> [(z, w, first midpoint or -1)]
    metric_sorts = set()  # symmetric sorts that obey the triangle inequality
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
        symmetric = triangle = True
        for i in range(n):
            if dm[i][i + 1:] != cols[i][i + 1:]:
                symmetric = False
                for j in range(i + 1, n):
                    if dm[i][j] != dm[j][i]:
                        out.append(Violation("metric_symmetry", sort, (names[i], names[j]),
                                             "d(x,y) != d(y,x)"))
        lanes = Lanes(2 * den, n)
        level = {d: d * lanes.ones for d in set(cells)}
        prow = [lanes.pack(row) for row in dm]
        pcol = prow if symmetric else [lanes.pack(col) for col in cols]
        for i, row in enumerate(dm):
            for j, (c, col) in enumerate(zip(pcol, cols)):
                dij = row[j]  # some lane k has d(i,k) + d(k,j) < dij iff a guard bit is clear
                if dij and lanes.at_least(prow[i] + c, level[dij]) != lanes.guard:
                    triangle = False
                    for k in range(n):
                        if dij > row[k] + col[k]:
                            out.append(Violation(
                                "metric_triangle", sort, (names[i], names[j], names[k]),
                                f"d = {format_rational(Fraction(dij, den))} > "
                                f"{format_rational(Fraction(row[k] + col[k], den))}"))
        if symmetric:
            apart = [lanes.at_least(r, lanes.ones) for r in prow]  # the lanes y with d(z,y) > 0
            mids[sort] = pairs = []
            for z, w in itertools.combinations(range(n), 2):
                d, s = level[cells[z * n + w]], prow[z] + prow[w]
                m = lanes.at_least(s, d) & lanes.at_least(d, s) & apart[z] & apart[w]
                pairs.append((z, w, (m & -m).bit_length() // lanes.width - 1))
            if triangle:
                metric_sorts.add(sort)

    moduli = {}  # (u, sort, D) -> {distance: u(d) as (n, m)}, {distance: thr}, base pairs

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
            key = u, sort, den
            if key not in moduli:
                at = {d: u.at(d, dist_den) for d in set(dist)}
                thr = {d: n * den // m for d, (n, m) in at.items()}
                moduli[key] = at, thr, [
                    (z, w) for z, w, y in mids.get(sort, ())
                    if y < 0 or thr[dist[z * size + y]] + thr[dist[y * size + w]]
                    > thr[dist[z * size + w]]]
            at, thr, base = moduli[key]
            if sort in mids and (target_rows is None or decl.target in metric_sorts) \
                    and all(max(changes(z, w)) <= thr[dist[z * size + w]] for z, w in base):
                continue  # no base pair violates, so no pair does
            found = []
            for z, w in itertools.combinations(range(size), 2):
                d = dist[z * size + w]
                if max(changes(z, w)) > thr[d]:
                    found += [(k, z, w, c, at[d]) for k, c in enumerate(changes(z, w))
                              if c > thr[d]]
            found.sort(key=lambda v: v[:3])  # context, then z, then w
            for _, z, w, change, bound in found:
                out.append(Violation(
                    "modulus_function" if target_rows is not None else "modulus_predicate",
                    name, (M.element_name(sort, z), M.element_name(sort, w)),
                    f"argument {pos}: change {format_rational(Fraction(change, den))} > "
                    f"u(d) = {format_ratio(*bound)}"))

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
# Quotient completion


class CompletionResult(NamedTuple):
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
                    bad.append((M.sig.metric_of[sort],
                                (M.element_name(sort, i), M.element_name(sort, j))))

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
        if not names:
            raise StructuralError(f"subset is empty in sort {sort}")
        sub_idx[sort] = [M.element_index(sort, n) for n in names]
    for name, decl in M.sig.functions.items():
        # each argument tuple drawn from the subset, in product order, as its
        # offset into the flat table
        offsets = [[a * stride for a in sub_idx[s]]
                   for s, stride in zip(decl.arg_sorts, M._strides[name])]
        inside = set(sub_idx[decl.target])
        if not inside.issuperset(map(M.function_table[name].__getitem__,
                                     map(sum, itertools.product(*offsets)))):
            args = next(args for args in itertools.product(*(sub_idx[s] for s in decl.arg_sorts))
                        if M.fn_value(name, args) not in inside)
            witness = tuple(M.element_name(s, a) for s, a in zip(decl.arg_sorts, args))
            raise StructuralError(f"subset not closed under {name} at {witness}")
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


class VariableSplit(NamedTuple):
    """Free variables of a formula split into a kept tuple and a parameter tuple."""

    x: tuple[tuple[str, str], ...]
    y: tuple[tuple[str, str], ...]


def make_split(phi, x_names: Sequence[str], y_names: Sequence[str]) -> VariableSplit:
    fv = dict(free_vars(phi))
    # every free variable once: on one side, not both, and not twice on one
    if set(x_names) | set(y_names) != set(fv) or len(x_names) + len(y_names) != len(fv):
        raise StructuralError(f"split must partition the free variables {sorted(fv)}")
    for name in (*x_names, *y_names):  # split variables range over carriers
        if fv[name] == VALUE_SORT:
            raise StructuralError(f"value variable {name!r} not bound to a rational")
    return VariableSplit(tuple((n, fv[n]) for n in x_names),
                         tuple((n, fv[n]) for n in y_names))


def tuples_of(M: FiniteStructure, vars_: Sequence[tuple[str, str]]):
    """All assignments for a variable tuple, in carrier-lexicographic order."""
    return list(itertools.product(*[range(M.sizes[s]) for _, s in vars_]))


class PhiInstance:
    """A formula with a variable split on one structure, and its value matrix.

    The stability and canonical-parameter functions take one; a command
    builds it once and passes it on.  `num[i][j]` over `scale` is
    phi(xts[i], yts[j]); `vals` holds the same values as Fractions and is
    built on first use.  `x_names[i]` and `y_names[j]` are the element
    names of xts[i] and yts[j], and `x_index` and `y_index` map them back.
    """

    def __init__(self, M: FiniteStructure, phi, split: VariableSplit):
        self.M, self.phi, self.split = M, phi, split
        self.xts = tuples_of(M, split.x)
        self.yts = tuples_of(M, split.y)
        # the element names, in the order in which tuples_of orders the indices
        self.x_names = list(itertools.product(*[M.carriers[s] for _, s in split.x]))
        self.y_names = list(itertools.product(*[M.carriers[s] for _, s in split.y]))
        self.x_index = dict(zip(self.x_names, itertools.count()))
        self.y_index = dict(zip(self.y_names, itertools.count()))
        variables = split.x + split.y
        row, self.scale = compile_row(M, phi, variables)
        # one row per tuple of all variables but the last, in lexicographic order,
        # cut into one tuple of len(yts) values per x-tuple
        prefixes = itertools.product(*[range(M.sizes[s]) for _, s in variables[:-1]])
        flat = itertools.chain.from_iterable(map(row, prefixes))
        self.num = tuple(zip(*[flat] * len(self.yts)))

    @cached_property
    def vals(self) -> tuple:
        return fraction_rows(self.num, self.scale)


def value_matrix(M: FiniteStructure, phi, split: VariableSplit):
    """vals[x_tuple_index][y_tuple_index] = phi(x_tuple, y_tuple), exact."""
    inst = PhiInstance(M, phi, split)
    return inst.xts, inst.yts, inst.vals


def fraction_rows(rows, scale: int) -> tuple:
    """Int rows over `scale` as rows of Fractions, each distinct value converted once."""
    frac = {v: Fraction(v, scale) for v in set().union(*rows)}
    return tuple(tuple(map(frac.__getitem__, row)) for row in rows)


def equal_classes(vectors: Iterable[tuple]) -> list[list[int]]:
    """The index lists of equal vectors, in order of first appearance.

    Groups the equal rows of a value matrix (realized phi-types) or its
    equal columns (canonical parameters).  Each list is increasing, so its
    first index is the least of its class.
    """
    classes: dict = {}
    for i, v in enumerate(vectors):
        classes.setdefault(v, []).append(i)
    return list(classes.values())


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
            row[j] = d[j][i] = max([x - y if x > y else y - x for x, y in zip(u, vectors[j])],
                                   default=0)
    return d
