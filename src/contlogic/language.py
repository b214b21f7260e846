"""Signatures, term/formula syntax, the text grammar, prenex forms, moduli.

Formula grammar (UTF-8, whitespace-insensitive):

    formula := "sup" VAR "." formula | "inf" VAR "." formula | sum
    sum     := prod (("-." | "+.") prod)*            left-associative
    prod    := "not" prod | "half" prod | atom
    atom    := RATIONAL | IDENT "(" term ("," term)* ")" | VAR
             | "(" formula ")" | "|" formula "-" formula "|"
             | "min(" formula "," formula ")" | "max(" formula "," formula ")"
             | "med" INT "(" formula ("," formula)* ")"
    term    := VAR | IDENT "(" term ("," term)* ")"
    RATIONAL := INT ("/" INT)?      VAR := lowercase ident, optionally "x:S"

A bare identifier in formula position denotes a [0,1]-valued value
variable (used by connective synthesis); in term position it is a
structure variable of some sort.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count, repeat
from operator import is_
from typing import Optional, Sequence

from .errors import (
    GrammarError,
    SortMismatchError,
    StructuralError,
    UnknownSymbolError,
)
from .values import (
    CONNECTIVES,
    IDENTITY,
    Frozen,
    PLMonotone,
    ensure_unit,
    format_rational,
    parse_ratio,
    pl_capped_sum,
    pl_compose,
    pl_half,
)

VALUE_SORT = "@value"


# ---------------------------------------------------------------------------
# Signatures


class SortDecl(Frozen):
    __slots__ = ("name", "metric")

    def __init__(self, name: str, metric: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "metric", metric)


class FuncDecl(Frozen):
    __slots__ = ("name", "arg_sorts", "target", "moduli")

    def __init__(self, name: str, arg_sorts: tuple[str, ...], target: str,
                 moduli: tuple[PLMonotone, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg_sorts", arg_sorts)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "moduli", moduli)


class PredDecl(Frozen):
    __slots__ = ("name", "arg_sorts", "moduli")

    def __init__(self, name: str, arg_sorts: tuple[str, ...], moduli: tuple[PLMonotone, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg_sorts", arg_sorts)
        object.__setattr__(self, "moduli", moduli)


class Signature:
    """Sorts with distinguished metric symbols, plus function and predicate symbols.

    Metric symbols are implicit binary predicates with identity moduli; they
    need not (and may not) be redeclared among the predicates.
    """

    def __init__(self, sorts: Sequence[SortDecl], functions: Sequence[FuncDecl] = (),
                 predicates: Sequence[PredDecl] = ()):
        if not sorts:
            raise StructuralError("a signature needs at least one sort")
        self.sorts = _by_name("sort", sorts)
        self.metric_of = {s.name: s.metric for s in sorts}
        self.metric_sort = {s.metric: s.name for s in sorts}
        if len(self.metric_sort) != len(sorts):
            raise StructuralError("metric symbols must be distinct")
        self.functions = _by_name("function", functions)
        self.predicates = _by_name("predicate", predicates)
        if len({*self.functions, *self.predicates, *self.metric_sort}) != (
                len(self.functions) + len(self.predicates) + len(sorts)):
            raise StructuralError("function/predicate/metric names must be distinct")
        for decl in (*self.functions.values(), *self.predicates.values()):
            if len(decl.moduli) != len(decl.arg_sorts):
                raise StructuralError(f"{decl.name}: one modulus per argument required")
            for u in decl.moduli:
                if not u.is_inverse_modulus():
                    raise StructuralError(f"{decl.name}: modulus must satisfy u(0) = 0")
            for s in decl.arg_sorts:
                if s not in self.sorts:
                    raise UnknownSymbolError(f"{decl.name}: unknown sort {s}")
        for fdecl in self.functions.values():
            if fdecl.target not in self.sorts:
                raise UnknownSymbolError(f"{fdecl.name}: unknown target sort {fdecl.target}")
        self._pred_decls = {m: PredDecl(m, (s, s), (IDENTITY, IDENTITY))
                            for m, s in self.metric_sort.items()}
        self._pred_decls.update(self.predicates)

    @property
    def sort_names(self) -> list[str]:
        return list(self.sorts)

    def is_metric(self, name: str) -> bool:
        return name in self.metric_sort

    def pred_decl(self, name: str) -> PredDecl:
        """A declared predicate, or a metric symbol as a binary predicate with identity moduli."""
        decl = self._pred_decls.get(name)
        if decl is None:
            raise UnknownSymbolError(f"unknown predicate {name!r}")
        return decl

    def func_decl(self, name: str) -> FuncDecl:
        if name in self.functions:
            return self.functions[name]
        raise UnknownSymbolError(f"unknown function {name!r}")

    def single_sort(self) -> Optional[str]:
        names = self.sort_names
        return names[0] if len(names) == 1 else None

    def extended(self, sorts=(), functions=(), predicates=()) -> "Signature":
        return Signature(
            list(self.sorts.values()) + list(sorts),
            list(self.functions.values()) + list(functions),
            list(self.predicates.values()) + list(predicates),
        )

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        def pl(u: PLMonotone):
            return list(map(list, u.formatted()))

        return {
            "sorts": [{"name": s.name, "metric": s.metric} for s in self.sorts.values()],
            "functions": [
                {"name": f.name, "arg_sorts": list(f.arg_sorts), "target_sort": f.target,
                 "moduli": [pl(u) for u in f.moduli]}
                for f in self.functions.values()
            ],
            "predicates": [
                {"name": p.name, "arg_sorts": list(p.arg_sorts),
                 "moduli": [pl(u) for u in p.moduli]}
                for p in self.predicates.values()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Signature":
        if not isinstance(data, dict):
            raise StructuralError("signature must be a JSON object")
        # breakpoint strings -> their PLMonotone, built once per signature; the
        # identity, as `to_json` writes it, is not built at all
        built: dict = {(("0", "0"), ("1", "1")): IDENTITY}

        def checked(section: str, *keys: str) -> list:
            """The section's entries; a sort may also be a bare name."""
            raw = data.get(section, [])
            if not isinstance(raw, list):
                raise StructuralError(f"signature {section} must be a list")
            for entry in raw:
                if not isinstance(entry, dict):
                    if section == "sorts" and isinstance(entry, str):
                        continue
                    raise StructuralError(f"a signature {section} entry must be an object")
                for key in keys:
                    if key not in entry:
                        raise StructuralError(f"a signature {section} entry has no {key!r}")
                for key in ("name", "target_sort", "metric"):
                    if not isinstance(entry.get(key, ""), str):
                        raise StructuralError(f"a signature {section} {key} must be a string")
            return raw

        def declared(entry) -> tuple:
            """The entry's arg_sorts and moduli, each shape checked before any modulus is read."""
            value = entry["arg_sorts"]
            if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
                raise StructuralError(f"{entry['name']}: arg_sorts must be a list of sort names")
            keys = []
            for bps in entry["moduli"] if isinstance(entry["moduli"], list) else (None,):
                if not isinstance(bps, list) or not all(
                        isinstance(bp, list) and len(bp) == 2 for bp in bps):
                    raise StructuralError(f"{entry['name']}: moduli must be a list of "
                                          "breakpoint lists, each breakpoint [in, out]")
                keys.append(tuple(map(tuple, bps)))
            return tuple(value), tuple(map(modulus, keys))

        def modulus(key: tuple) -> PLMonotone:
            try:
                return built[key]
            except (KeyError, TypeError):  # TypeError: a breakpoint that is a list or a dict
                # parse_ratio rejects a breakpoint that is not a string, so only
                # hashable keys are stored
                u = built[key] = PLMonotone.through((*parse_ratio(x), *parse_ratio(y))
                                                    for x, y in key)
                return u

        raw_sorts = checked("sorts", "name")
        sorts = [SortDecl(entry, "d" if len(raw_sorts) == 1 else f"d_{entry}")
                 if isinstance(entry, str) else SortDecl(entry["name"], entry.get("metric", "d"))
                 for entry in raw_sorts]
        functions = []
        for f in checked("functions", "name", "arg_sorts", "target_sort", "moduli"):
            arg_sorts, moduli = declared(f)
            functions.append(FuncDecl(f["name"], arg_sorts, f["target_sort"], moduli))
        predicates = [PredDecl(p["name"], *declared(p))
                      for p in checked("predicates", "name", "arg_sorts", "moduli")]
        return Signature(sorts, functions, predicates)


def _by_name(kind: str, decls: Sequence) -> dict:
    """name -> declaration, in order; a name declared twice raises StructuralError."""
    out: dict = {}
    for decl in decls:
        if decl.name in out:
            raise StructuralError(f"duplicate {kind} name {decl.name!r}")
        out[decl.name] = decl
    return out


# ---------------------------------------------------------------------------
# Terms and formulas


class Var(Frozen):
    __slots__ = ("name", "sort")

    def __init__(self, name: str, sort: Optional[str] = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sort", sort)


class App(Frozen):
    __slots__ = ("func", "args", "sort")

    def __init__(self, func: str, args: tuple, sort: Optional[str] = None):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "sort", sort)


Term = object  # Var | App


class Atom(Frozen):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple):
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)


class Const(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        object.__setattr__(self, "value", value)


class ValueVar(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Op(Frozen):
    __slots__ = ("op", "args", "n")  # n: the median arity parameter, for op == "med" only

    def __init__(self, op: str, args: tuple, n: Optional[int] = None):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "n", n)


class Quant(Frozen):
    __slots__ = ("kind", "var", "sort", "body")  # kind: "sup" | "inf"

    def __init__(self, kind: str, var: str, sort: Optional[str], body):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "body", body)


Formula = object  # Atom | Const | ValueVar | Op | Quant


def children(f) -> tuple:
    """The subnodes of a node: the args of an `Op`, an `Atom` or an `App`, a
    `Quant`'s body, none at any other leaf."""
    if isinstance(f, (Op, Atom, App)):
        return f.args
    if isinstance(f, Quant):
        return (f.body,)
    if isinstance(f, (Var, Const, ValueVar)):
        return ()
    raise StructuralError(f"not a formula: {f!r}")


def rebuild(f, kids):
    """The node f with its subnodes replaced by kids, in `children` order;
    f itself when each kid is the subnode it replaces."""
    if all(map(is_, kids, children(f))):
        return f
    if isinstance(f, Op):
        return Op(f.op, tuple(kids), f.n)
    if isinstance(f, Quant):
        (body,) = kids
        return Quant(f.kind, f.var, f.sort, body)
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(kids))
    if isinstance(f, App):
        return App(f.func, tuple(kids), f.sort)
    return f


def nodes(f) -> list:
    """Each distinct node of f (by id) once, children first, without recursion."""
    seen = {id(f)}
    order = []
    stack = [(f, iter(children(f)))]  # each open node, with the children left to visit
    while stack:
        node, kids = stack[-1]
        for k in kids:
            if id(k) not in seen:
                seen.add(id(k))
                stack.append((k, iter(children(k))))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def free_vars(f) -> set[tuple[str, str]]:
    """Free variables of a formula as (name, sort) pairs.

    Value variables are reported with the pseudo-sort ``@value``.
    """
    return free_var_map(f)[id(f)]


def free_var_map(f) -> dict:
    """id(node) -> the free variables of that node, as in `free_vars`, for every node of f."""
    free: dict = {}
    for node in nodes(f):
        if isinstance(node, Var):
            out = {(node.name, node.sort)}
        elif isinstance(node, ValueVar):
            out = {(node.name, VALUE_SORT)}
        else:
            out = set().union(*(free[id(k)] for k in children(node)))
            if isinstance(node, Quant):
                out = {(n, s) for (n, s) in out if n != node.var}
        free[id(node)] = out
    return free


def rename_var(f, old: str, new: str):
    """Rename free occurrences of a structure variable, respecting shadowing."""
    out: dict = {}  # id(node) -> the renamed node
    for node in nodes(f):
        if isinstance(node, Var) and node.name == old:
            out[id(node)] = Var(new, node.sort)
        elif isinstance(node, Quant) and node.var == old:
            out[id(node)] = node
        else:
            out[id(node)] = rebuild(node, [out[id(k)] for k in children(node)])
    return out[id(f)]


# ---------------------------------------------------------------------------
# Tokenizer and parser

_KEYWORDS = {"sup", "inf", "not", "half", "min", "max", "med"}
# an int, an identifier, punctuation, any other visible character, or the end,
# after optional whitespace (the end stops a whitespace run from being rescanned
# from each of its positions); \d, \w and \s are str.isdecimal, str.isalnum
# plus "_" and str.isspace, character by character
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|(-\.|\+\.|[(),.:/|-])|(\S)|\Z)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of text as (kind, text, position), kind "int", "ident", "eof" or
    the punctuation itself; an identifier starts with a letter or "_"."""
    toks = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group is None:  # the end
            break
        tok, pos = m[group], m.start(group)
        if group == 3:
            toks.append((tok, tok, pos))
        elif group == 1:
            toks.append(("int", tok, pos))
        elif group == 2 and (tok[0].isalpha() or tok[0] == "_"):
            toks.append(("ident", tok, pos))
        else:  # a character that starts no token
            raise GrammarError(f"unexpected character {tok[0]!r}", pos)
    toks.append(("eof", "", len(text)))
    return toks


class _Binder:
    """A quantifier's variable, or a free name, while its formula is parsed:
    the sorts that its occurrences and annotations demand, its `Var` nodes,
    then its sort."""

    __slots__ = ("name", "demands", "vars", "sort")

    def __init__(self, name: str, annotation: Optional[str] = None):
        self.name = name
        self.demands = set() if annotation is None else {annotation}
        self.vars: list[Var] = []
        self.sort: Optional[str] = None


class _Parser:
    """Recursive descent that resolves sorts as it reads.

    Each variable occurrence belongs to a binder: the innermost enclosing
    quantifier of its name, else the free name.  A term is read at the sort
    its argument position declares, which the binder of a variable there
    collects; arities and function targets are checked where they are read.
    A quantifier's sort is resolved when its body closes, a free name's when
    the text ends.  The first sort error is held, so an error of the text
    itself is still reported first.  The tree is built once, as it is read:
    a `Var` node is made with no sort, and its binder sets the sort when it
    resolves, before `parse` returns the tree.
    """

    def __init__(self, text: str, sig: Signature):
        self.toks = _tokenize(text)
        self.sig = sig
        self.i = 0
        self.scope: list[_Binder] = []  # the enclosing quantifiers, innermost last
        self.free: dict[str, _Binder] = {}
        self.fault: Optional[str] = None  # the first sort error

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> tuple[str, str, int]:
        t = self.next()
        if t[0] != kind:
            raise GrammarError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def hold(self, message: str) -> None:
        if self.fault is None:
            self.fault = message

    def resolve(self, binder: _Binder) -> None:
        """Give the binder, and each of its `Var` nodes, the one sort it is demanded
        at, else the signature's only sort."""
        if len(binder.demands) > 1:
            self.hold(f"variable {binder.name!r} used at sorts {sorted(binder.demands)}")
            return
        if binder.demands:
            (binder.sort,) = binder.demands
        else:
            binder.sort = self.sig.single_sort()
            if binder.sort is None:
                self.hold(f"cannot infer the sort of variable {binder.name!r}; "
                          f"annotate as {binder.name}:S")
                return
        for var in binder.vars:  # made here and not yet read, so still free to set
            object.__setattr__(var, "sort", binder.sort)

    def formula(self):
        kind, text, _ = self.peek()
        if kind == "ident" and text in ("sup", "inf"):
            self.next()
            binder = self.variable()
            self.expect(".")
            self.scope.append(binder)
            body = self.formula()
            self.scope.pop()
            self.resolve(binder)
            return Quant(text, binder.name, binder.sort, body)
        return self.sum()

    def variable(self) -> _Binder:
        _, name, pos = self.expect("ident")
        if not name[0].islower():
            raise GrammarError(f"variable {name!r} must start lowercase", pos)
        if name in _KEYWORDS:
            raise GrammarError(f"keyword {name!r} cannot be a variable", pos)
        if name in self.sig.functions:
            # the body would read the name as the function symbol, never as this variable
            raise GrammarError(f"function symbol {name!r} cannot be a variable", pos)
        return _Binder(name, self.annotation())

    def annotation(self) -> Optional[str]:
        """The sort named after a ":", if one follows."""
        if self.peek()[0] != ":":
            return None
        self.next()
        sort = self.expect("ident")[1]
        if sort not in self.sig.sorts:
            raise UnknownSymbolError(f"unknown sort {sort!r}")
        return sort

    def sum(self):
        left = self.prod()
        while self.peek()[0] in ("-.", "+."):
            op = self.next()[0]
            right = self.prod()
            left = Op("monus" if op == "-." else "plus_trunc", (left, right))
        return left

    def prod(self):
        kind, text, _ = self.peek()
        if kind == "ident" and text in ("not", "half"):
            self.next()
            return Op("neg" if text == "not" else "half", (self.prod(),))
        return self.atom()

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "int":
            return Const(self.rational())
        if kind == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if kind == "|":
            self.next()
            a = self.formula()
            self.expect("-")
            b = self.formula()
            self.expect("|")
            return Op("absdiff", (a, b))
        if kind != "ident":
            raise GrammarError(f"unexpected token {text!r}", pos)
        self.next()
        if text in ("min", "max"):
            self.expect("(")
            a = self.formula()
            self.expect(",")
            b = self.formula()
            self.expect(")")
            return Op(text, (a, b))
        if text == "med":
            n = self.integer()
            if n < 1:
                raise GrammarError("med arity parameter must be >= 1", pos)
            self.expect("(")
            args = [self.formula()]
            while self.peek()[0] == ",":
                self.next()
                args.append(self.formula())
            self.expect(")")
            if len(args) != 2 * n - 1:
                raise StructuralError(f"med {n} expects {2 * n - 1} arguments, got {len(args)}")
            return Op("med", tuple(args), n=n)
        if self.peek()[0] == "(":
            if text in self.sig.functions:
                self.hold(f"function {text!r} used in formula position")
                return Atom(text, self.term_args(text, self.sig.functions[text]))
            return Atom(text, self.term_args(text, self.sig.pred_decl(text)))
        if text in self.sig.predicates and not self.sig.pred_decl(text).arg_sorts:
            return Atom(text, ())
        if not text[0].islower():
            raise UnknownSymbolError(f"unknown symbol {text!r}")
        return ValueVar(text)

    def integer(self) -> int:
        _, text, pos = self.expect("int")
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            raise GrammarError("integer literal too long", pos) from None

    def rational(self) -> Fraction:
        pos = self.peek()[2]
        num = self.integer()
        if self.peek()[0] == "/":
            self.next()
            den = self.integer()
            if den == 0:
                raise GrammarError("zero denominator", pos)
            return ensure_unit(Fraction(num, den))
        return ensure_unit(Fraction(num))

    def term_args(self, symbol: str, decl) -> tuple:
        """A symbol's parenthesized arguments, each read at its declared sort."""
        sorts = decl.arg_sorts
        self.expect("(")
        args = [self.term(sorts[0] if sorts else None)]
        while self.peek()[0] == ",":
            self.next()
            args.append(self.term(sorts[len(args)] if len(args) < len(sorts) else None))
        self.expect(")")
        if len(args) != len(sorts):
            self.hold(f"{symbol} expects {len(sorts)} arguments, got {len(args)}")
        return tuple(args)

    def term(self, expected: Optional[str]):
        """A term at a position of the expected sort (None past a symbol's arity)."""
        name = self.expect("ident")[1]
        if self.peek()[0] == "(":
            decl = self.sig.func_decl(name)
            args = self.term_args(name, decl)
        elif name in self.sig.functions:
            decl = self.sig.functions[name]
            args = ()
            if decl.arg_sorts:
                self.hold(f"function {name!r} needs {len(decl.arg_sorts)} arguments")
        elif not name[0].islower():
            raise UnknownSymbolError(f"unknown symbol {name!r}")
        else:
            for binder in reversed(self.scope):
                if binder.name == name:
                    break
            else:
                binder = self.free.get(name)
                if binder is None:
                    binder = self.free[name] = _Binder(name)
            binder.demands.update({expected, self.annotation()} - {None})
            var = Var(name)
            binder.vars.append(var)
            return var
        if expected is not None and decl.target != expected:
            self.hold(f"{name} has sort {decl.target}, used at sort {expected}")
        return App(name, args, decl.target)


def parse(text: str, sig: Signature):
    """Parse formula text against a signature; round-trips with `print_formula`.

    Errors of the text itself come first; then the first sort error in text
    order; then the free variables, by name, whose sort is not fixed."""
    p = _Parser(text, sig)
    f = p.formula()
    kind, rest, pos = p.peek()
    if kind != "eof":
        raise GrammarError(f"trailing input {rest!r}", pos)
    for name in sorted(p.free):
        p.resolve(p.free[name])
    if p.fault is not None:
        raise SortMismatchError(p.fault)
    return f


# ---------------------------------------------------------------------------
# Printer

_QUANT, _SUM, _PROD, _ATOM = 0, 1, 2, 3


def print_formula(f, sig: Optional[Signature] = None) -> str:
    """Canonical text for a formula; parse(print_formula(f)) == f."""
    return _text(f, _QUANT, sig is not None and sig.single_sort() is None, {})


def _text(f, level: int, annotate: bool, memo: dict) -> str:
    """`print_formula`'s text for f in a context of the given level.  The
    memo maps (id(node), level) to the text, so a shared node prints once per
    call; it is passed, not closed over, so no reference cycle outlives a call."""
    key = (id(f), level)
    if key not in memo:
        memo[key] = _write(f, level, annotate, memo)
    return memo[key]


def _write(f, level: int, annotate: bool, memo: dict) -> str:
    if isinstance(f, Quant):
        ann = f":{f.sort}" if annotate and f.sort else ""
        s = f"{f.kind} {f.var}{ann}. {_text(f.body, _QUANT, annotate, memo)}"
        return f"({s})" if level > _QUANT else s
    if isinstance(f, (Atom, App)):
        symbol = f.pred if isinstance(f, Atom) else f.func
        if not f.args:
            return symbol
        return f"{symbol}({', '.join(_text(t, _ATOM, annotate, memo) for t in f.args)})"
    if isinstance(f, (Var, ValueVar)):
        return f.name
    if isinstance(f, Const):
        return format_rational(f.value)
    if isinstance(f, Op):
        args = f.args
        if f.op in ("monus", "plus_trunc"):
            sym = "-." if f.op == "monus" else "+."
            s = (f"{_text(args[0], _SUM, annotate, memo)} {sym} "
                 f"{_text(args[1], _PROD, annotate, memo)}")
            return f"({s})" if level > _SUM else s
        if f.op in ("neg", "half"):
            s = f"{'not' if f.op == 'neg' else 'half'} {_text(args[0], _PROD, annotate, memo)}"
            return f"({s})" if level > _PROD else s
        if f.op in ("min", "max"):
            return (f"{f.op}({_text(args[0], _QUANT, annotate, memo)}, "
                    f"{_text(args[1], _QUANT, annotate, memo)})")
        if f.op == "absdiff":
            return (f"|{_text(args[0], _QUANT, annotate, memo)} - "
                    f"{_text(args[1], _QUANT, annotate, memo)}|")
        if f.op == "med":
            inner = ", ".join(_text(a, _QUANT, annotate, memo) for a in args)
            return f"med {f.n}({inner})"
    raise StructuralError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Prenex normal form


def rewrite_absdiff(f):
    """Replace |a-b| by (a -. b) +. (b -. a) throughout."""
    out: dict = {}  # id(node) -> the rewritten node
    for node in nodes(f):
        kids = [out[id(k)] for k in children(node)]
        if isinstance(node, Op) and node.op == "absdiff":
            a, b = kids
            out[id(node)] = Op("plus_trunc", (Op("monus", (a, b)), Op("monus", (b, a))))
        else:
            out[id(node)] = rebuild(node, kids)
    return out[id(f)]


def _flip(kind: str) -> str:
    return "inf" if kind == "sup" else "sup"


def prenex(f):
    """Equivalent formula with all quantifiers in front.

    Quantifiers are hoisted argument by argument using the monotonicity of
    each connective in `values.CONNECTIVES` (an increasing position preserves
    the quantifier kind, a decreasing one swaps sup and inf); every bound
    variable is renamed to a fresh name, which makes hoisting capture-free.
    Fresh names are `q1, q2, ...`, skipping every name that occurs in the
    formula, free or bound.  `absdiff` is first rewritten via its plus/monus
    identity; `med` is increasing in every argument and is hoisted like
    min/max.
    """
    taken = {name for name, _ in free_vars(f)}
    taken |= {node.var for node in nodes(f) if isinstance(node, Quant)}
    fresh = (f"q{i}" for i in count(1) if f"q{i}" not in taken)
    prefix, matrix = _hoist(rewrite_absdiff(f), fresh)
    out = matrix
    for kind, var, sort in reversed(prefix):
        out = Quant(kind, var, sort, out)
    return out


def _hoist(f, fresh) -> tuple:
    """(prefix, matrix) of f: its quantifiers, outermost first, each as (kind,
    name, sort) with a name drawn from `fresh`, and what is left below them."""
    if isinstance(f, Quant):
        name = next(fresh)
        prefix, matrix = _hoist(rename_var(f.body, f.var, name), fresh)
        return [(f.kind, name, f.sort)] + prefix, matrix
    kids = children(f)  # raises for a non-formula
    if not isinstance(f, Op):
        return [], f
    dirs = (+1,) * len(kids) if f.op == "med" else CONNECTIVES.get(f.op)
    if dirs is None:
        raise StructuralError(f"no monotonicity data for connective {f.op!r}")
    prefix = []
    matrices = []
    for direction, arg in zip(dirs, kids):
        sub_prefix, matrix = _hoist(arg, fresh)
        if direction < 0:
            sub_prefix = [(_flip(k), v, s) for k, v, s in sub_prefix]
        prefix.extend(sub_prefix)
        matrices.append(matrix)
    return prefix, rebuild(f, matrices)


# ---------------------------------------------------------------------------
# Continuity-modulus inference


def infer_modulus(f, sig: Signature, var: str) -> PLMonotone:
    """Sound inverse modulus for a formula in one of its free variables.

    On every structure satisfying the signature's uniform-continuity axioms,
    moving `var` by distance t moves the value of `f` by at most u(t).
    Tightness is not attempted.
    """
    if var not in {n for n, _ in free_vars(f)}:
        raise StructuralError(f"variable {var!r} is not free in the formula")
    zero = PLMonotone.zero()
    mods: dict = {}  # id(node) -> the node's modulus in var
    for node in nodes(f):
        kids = [mods[id(k)] for k in children(node)]
        if isinstance(node, (Atom, App)):
            decl = sig.pred_decl(node.pred) if isinstance(node, Atom) else sig.func_decl(node.func)
            kids = [pl_compose(u, m) for u, m in zip(decl.moduli, kids) if m != zero]
        out = zero
        if isinstance(node, Var) and node.name == var:
            out = IDENTITY
        elif not (isinstance(node, Quant) and node.var == var):
            for m in kids:
                if m != zero:
                    out = pl_capped_sum(out, m)
            if isinstance(node, Op) and node.op == "half":
                out = pl_half(out)
        mods[id(node)] = out
    return mods[id(f)]
