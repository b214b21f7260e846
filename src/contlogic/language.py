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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    GrammarError,
    SortMismatchError,
    StructuralError,
    UnknownSymbolError,
)
from .values import (
    PLMonotone,
    ensure_unit,
    format_rational,
    is_dyadic,
    parse_rational,
    pl_capped_sum,
    pl_compose,
    pl_half,
)

VALUE_SORT = "@value"


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class SortDecl:
    name: str
    metric: str


@dataclass(frozen=True)
class FuncDecl:
    name: str
    arg_sorts: tuple[str, ...]
    target: str
    moduli: tuple[PLMonotone, ...]


@dataclass(frozen=True)
class PredDecl:
    name: str
    arg_sorts: tuple[str, ...]
    moduli: tuple[PLMonotone, ...]


class Signature:
    """Sorts with distinguished metric symbols, plus function and predicate symbols.

    Metric symbols are implicit binary predicates with identity moduli; they
    need not (and may not) be redeclared among the predicates.
    """

    def __init__(self, sorts: Sequence[SortDecl], functions: Sequence[FuncDecl] = (),
                 predicates: Sequence[PredDecl] = ()):
        if not sorts:
            raise StructuralError("a signature needs at least one sort")
        self.sorts = {s.name: s for s in sorts}
        if len(self.sorts) != len(sorts):
            raise StructuralError("duplicate sort name")
        self.metric_of = {s.name: s.metric for s in sorts}
        self.metric_sort = {s.metric: s.name for s in sorts}
        if len(self.metric_sort) != len(sorts):
            raise StructuralError("metric symbols must be distinct")
        self.functions = {f.name: f for f in functions}
        self.predicates = {p.name: p for p in predicates}
        names = (list(self.functions) + list(self.predicates) + list(self.metric_sort))
        if len(set(names)) != len(names):
            raise StructuralError("function/predicate/metric names must be distinct")
        for decl in list(self.functions.values()) + list(self.predicates.values()):
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

    @property
    def sort_names(self) -> list[str]:
        return list(self.sorts)

    def is_metric(self, name: str) -> bool:
        return name in self.metric_sort

    def pred_decl(self, name: str) -> PredDecl:
        if name in self.predicates:
            return self.predicates[name]
        if name in self.metric_sort:
            s = self.metric_sort[name]
            ident = PLMonotone.identity()
            return PredDecl(name, (s, s), (ident, ident))
        raise UnknownSymbolError(f"unknown predicate {name!r}")

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
            return [[format_rational(x), format_rational(y)] for x, y in u.breakpoints]

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

        def checked(section: str, *keys: str) -> list:
            """The section's entries; a sort may also be a bare name."""
            raw = data.get(section, [])
            if not isinstance(raw, list):
                raise StructuralError(f"signature {section} must be a list")
            for entry in raw:
                if section == "sorts" and isinstance(entry, str):
                    continue
                if not isinstance(entry, dict):
                    raise StructuralError(f"a signature {section} entry must be an object")
                for key in keys:
                    if key not in entry:
                        raise StructuralError(f"a signature {section} entry has no {key!r}")
                for key in ("name", "target_sort", "metric"):
                    if not isinstance(entry.get(key, ""), str):
                        raise StructuralError(f"a signature {section} {key} must be a string")
            return raw

        def arg_sorts(entry) -> tuple:
            value = entry["arg_sorts"]
            if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
                raise StructuralError(f"{entry['name']}: arg_sorts must be a list of sort names")
            return tuple(value)

        def moduli(entry) -> tuple:
            value = entry["moduli"]
            if not isinstance(value, list) or not all(
                    isinstance(bps, list)
                    and all(isinstance(bp, list) and len(bp) == 2 for bp in bps)
                    for bps in value):
                raise StructuralError(f"{entry['name']}: moduli must be a list of "
                                      "breakpoint lists, each breakpoint [in, out]")
            return tuple(PLMonotone(tuple((parse_rational(x), parse_rational(y)) for x, y in bps))
                         for bps in value)

        raw_sorts = checked("sorts", "name")
        sorts = [SortDecl(entry, "d" if len(raw_sorts) == 1 else f"d_{entry}")
                 if isinstance(entry, str) else SortDecl(entry["name"], entry.get("metric", "d"))
                 for entry in raw_sorts]
        functions = [
            FuncDecl(f["name"], arg_sorts(f), f["target_sort"], moduli(f))
            for f in checked("functions", "name", "arg_sorts", "target_sort", "moduli")
        ]
        predicates = [
            PredDecl(p["name"], arg_sorts(p), moduli(p))
            for p in checked("predicates", "name", "arg_sorts", "moduli")
        ]
        return Signature(sorts, functions, predicates)


# ---------------------------------------------------------------------------
# Terms and formulas


@dataclass(frozen=True)
class Var:
    name: str
    sort: Optional[str] = None


@dataclass(frozen=True)
class App:
    func: str
    args: tuple
    sort: Optional[str] = None


Term = object  # Var | App


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class ValueVar:
    name: str


@dataclass(frozen=True)
class Op:
    op: str
    args: tuple
    n: Optional[int] = None  # median arity parameter, for op == "med" only


@dataclass(frozen=True)
class Quant:
    kind: str  # "sup" | "inf"
    var: str
    sort: Optional[str]
    body: object


Formula = object  # Atom | Const | ValueVar | Op | Quant

# monotonicity of each connective in each argument; +1 increasing, -1 decreasing
MONOTONICITY = {
    "neg": (-1,),
    "half": (+1,),
    "monus": (+1, -1),
    "min": (+1, +1),
    "max": (+1, +1),
    "plus_trunc": (+1, +1),
}


def _term_vars(t, out: set):
    if isinstance(t, Var):
        out.add((t.name, t.sort))
    else:
        for a in t.args:
            _term_vars(a, out)


def children(f) -> tuple:
    """The subformulas of a node: an `Op`'s args, a `Quant`'s body, none at a leaf."""
    if isinstance(f, Op):
        return f.args
    if isinstance(f, Quant):
        return (f.body,)
    if isinstance(f, (Atom, Const, ValueVar)):
        return ()
    raise StructuralError(f"not a formula: {f!r}")


def rebuild(f, kids):
    """The node f with its subformulas replaced by kids, in `children` order."""
    if isinstance(f, Op):
        return Op(f.op, tuple(kids), f.n)
    if isinstance(f, Quant):
        (body,) = kids
        return Quant(f.kind, f.var, f.sort, body)
    return f


def nodes(f) -> list:
    """Each distinct node of f (by id) once, children first, without recursion."""
    seen: set = set()
    order = []
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((k, False) for k in reversed(children(node)))
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
        out = set().union(*(free[id(k)] for k in children(node)))
        if isinstance(node, Atom):
            for t in node.args:
                _term_vars(t, out)
        elif isinstance(node, ValueVar):
            out.add((node.name, VALUE_SORT))
        elif isinstance(node, Quant):
            out = {(n, s) for (n, s) in out if n != node.var}
        free[id(node)] = out
    return free


def _rename_term(t, old: str, new: str):
    if isinstance(t, Var):
        return Var(new, t.sort) if t.name == old else t
    return App(t.func, tuple(_rename_term(a, old, new) for a in t.args), t.sort)


def rename_var(f, old: str, new: str):
    """Rename free occurrences of a structure variable, respecting shadowing."""
    out: dict = {}  # id(node) -> the renamed node
    for node in nodes(f):
        if isinstance(node, Atom):
            out[id(node)] = Atom(node.pred, tuple(_rename_term(t, old, new) for t in node.args))
        elif isinstance(node, Quant) and node.var == old:
            out[id(node)] = node
        else:
            out[id(node)] = rebuild(node, [out[id(k)] for k in children(node)])
    return out[id(f)]


# ---------------------------------------------------------------------------
# Tokenizer and parser

_KEYWORDS = {"sup", "inf", "not", "half", "min", "max", "med"}
_PUNCT = ["-.", "+.", "(", ")", ",", ".", ":", "/", "|", "-"]


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "ident" | punctuation literal
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("int", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], i))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(_Token(p, p, i))
                i += len(p)
                break
        else:
            raise GrammarError(f"unexpected character {c!r}", i)
    toks.append(_Token("eof", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.toks = _tokenize(text)
        self.sig = sig
        self.i = 0

    def peek(self, ahead=0) -> _Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise GrammarError(f"expected {kind!r}, found {t.text!r}", t.pos)
        return t

    # raw parse: sorts are attached later
    def formula(self):
        t = self.peek()
        if t.kind == "ident" and t.text in ("sup", "inf"):
            self.next()
            var, sort = self.variable()
            self.expect(".")
            return Quant(t.text, var, sort, self.formula())
        return self.sum()

    def variable(self):
        t = self.expect("ident")
        if not t.text[0].islower():
            raise GrammarError(f"variable {t.text!r} must start lowercase", t.pos)
        if t.text in _KEYWORDS:
            raise GrammarError(f"keyword {t.text!r} cannot be a variable", t.pos)
        if t.text in self.sig.functions:
            # the body would read the name as the function symbol, never as this variable
            raise GrammarError(f"function symbol {t.text!r} cannot be a variable", t.pos)
        sort = None
        if self.peek().kind == ":":
            self.next()
            sort = self.expect("ident").text
            if sort not in self.sig.sorts:
                raise UnknownSymbolError(f"unknown sort {sort!r}")
        return t.text, sort

    def sum(self):
        left = self.prod()
        while self.peek().kind in ("-.", "+."):
            op = self.next().kind
            right = self.prod()
            left = Op("monus" if op == "-." else "plus_trunc", (left, right))
        return left

    def prod(self):
        t = self.peek()
        if t.kind == "ident" and t.text == "not":
            self.next()
            return Op("neg", (self.prod(),))
        if t.kind == "ident" and t.text == "half":
            self.next()
            return Op("half", (self.prod(),))
        return self.atom()

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            return Const(self.rational())
        if t.kind == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t.kind == "|":
            self.next()
            a = self.formula()
            self.expect("-")
            b = self.formula()
            self.expect("|")
            return Op("absdiff", (a, b))
        if t.kind == "ident" and t.text in ("min", "max"):
            self.next()
            self.expect("(")
            a = self.formula()
            self.expect(",")
            b = self.formula()
            self.expect(")")
            return Op(t.text, (a, b))
        if t.kind == "ident" and t.text == "med":
            self.next()
            n = int(self.expect("int").text)
            if n < 1:
                raise GrammarError("med arity parameter must be >= 1", t.pos)
            self.expect("(")
            args = [self.formula()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.formula())
            self.expect(")")
            if len(args) != 2 * n - 1:
                raise StructuralError(f"med {n} expects {2 * n - 1} arguments, got {len(args)}")
            return Op("med", tuple(args), n=n)
        if t.kind == "ident":
            name = self.next().text
            if self.peek().kind == "(":
                if name in self.sig.predicates or self.sig.is_metric(name):
                    return Atom(name, self.term_args())
                if name in self.sig.functions:
                    raise SortMismatchError(f"function {name!r} used in formula position")
                raise UnknownSymbolError(f"unknown predicate {name!r}")
            if name in self.sig.predicates and not self.sig.pred_decl(name).arg_sorts:
                return Atom(name, ())
            if not name[0].islower():
                raise UnknownSymbolError(f"unknown symbol {name!r}")
            return ValueVar(name)
        raise GrammarError(f"unexpected token {t.text!r}", t.pos)

    def rational(self) -> Fraction:
        t = self.expect("int")
        num = int(t.text)
        if self.peek().kind == "/":
            self.next()
            den = int(self.expect("int").text)
            if den == 0:
                raise GrammarError("zero denominator", t.pos)
            return ensure_unit(Fraction(num, den))
        return ensure_unit(Fraction(num))

    def term_args(self) -> tuple:
        self.expect("(")
        args = [self.term()]
        while self.peek().kind == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        return tuple(args)

    def term(self):
        t = self.expect("ident")
        if self.peek().kind == "(":
            if t.text not in self.sig.functions:
                raise UnknownSymbolError(f"unknown function {t.text!r}")
            return App(t.text, self.term_args())
        if t.text in self.sig.functions:
            decl = self.sig.functions[t.text]
            if decl.arg_sorts:
                raise SortMismatchError(f"function {t.text!r} needs {len(decl.arg_sorts)} arguments")
            return App(t.text, ())
        if not t.text[0].islower():
            raise UnknownSymbolError(f"unknown symbol {t.text!r}")
        sort = None
        if self.peek().kind == ":":
            self.next()
            sort = self.expect("ident").text
            if sort not in self.sig.sorts:
                raise UnknownSymbolError(f"unknown sort {sort!r}")
        return Var(t.text, sort)


def _scan_sort_constraints(f, name: str, sig: Signature, out: set):
    """Collect the sorts demanded for variable `name` by symbol positions."""

    def scan_term(t, expected: str):
        if isinstance(t, Var):
            if t.name == name:
                out.add(expected)
                if t.sort is not None:
                    out.add(t.sort)
        else:
            decl = sig.func_decl(t.func)
            for a, s in zip(t.args, decl.arg_sorts):
                scan_term(a, s)

    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            decl = sig.pred_decl(node.pred)
            if len(node.args) != len(decl.arg_sorts):
                raise SortMismatchError(
                    f"{node.pred} expects {len(decl.arg_sorts)} arguments, got {len(node.args)}")
            for a, s in zip(node.args, decl.arg_sorts):
                scan_term(a, s)
        elif not (isinstance(node, Quant) and node.var == name):
            # identical names shadow; the inner scope is a new variable
            stack.extend(reversed(children(node)))


def _resolve_var_sort(f, name: str, annotated: Optional[str], sig: Signature) -> str:
    constraints: set = set()
    if annotated is not None:
        constraints.add(annotated)
    _scan_sort_constraints(f, name, sig, constraints)
    constraints.discard(None)
    if len(constraints) > 1:
        raise SortMismatchError(f"variable {name!r} used at sorts {sorted(constraints)}")
    if constraints:
        return constraints.pop()
    single = sig.single_sort()
    if single is not None:
        return single
    raise SortMismatchError(f"cannot infer the sort of variable {name!r}; annotate as {name}:S")


def _attach_sorts(f, sig: Signature, env: dict):
    """Rebuild the raw tree with every variable carrying its resolved sort."""

    def fix_term(t, expected: str):
        if isinstance(t, Var):
            sort = env.get(t.name, expected)
            if t.sort is not None and t.sort != sort:
                raise SortMismatchError(f"variable {t.name!r}: declared {t.sort}, used at {sort}")
            if sort != expected:
                raise SortMismatchError(f"variable {t.name!r} of sort {sort} used at sort {expected}")
            return Var(t.name, sort)
        decl = sig.func_decl(t.func)
        if len(t.args) != len(decl.arg_sorts):
            raise SortMismatchError(
                f"{t.func} expects {len(decl.arg_sorts)} arguments, got {len(t.args)}")
        if decl.target != expected:
            raise SortMismatchError(f"{t.func} has sort {decl.target}, used at sort {expected}")
        return App(t.func, tuple(fix_term(a, s) for a, s in zip(t.args, decl.arg_sorts)),
                   decl.target)

    if isinstance(f, Atom):
        decl = sig.pred_decl(f.pred)
        if len(f.args) != len(decl.arg_sorts):
            raise SortMismatchError(
                f"{f.pred} expects {len(decl.arg_sorts)} arguments, got {len(f.args)}")
        return Atom(f.pred, tuple(fix_term(a, s) for a, s in zip(f.args, decl.arg_sorts)))
    if isinstance(f, Quant):
        sort = _resolve_var_sort(f.body, f.var, f.sort, sig)
        return Quant(f.kind, f.var, sort, _attach_sorts(f.body, sig, {**env, f.var: sort}))
    return rebuild(f, [_attach_sorts(k, sig, env) for k in children(f)])


def parse(text: str, sig: Signature):
    """Parse formula text against a signature; round-trips with `print_formula`."""
    p = _Parser(text, sig)
    raw = p.formula()
    if p.peek().kind != "eof":
        t = p.peek()
        raise GrammarError(f"trailing input {t.text!r}", t.pos)
    annotations: dict = {}
    for name, sort in free_vars(raw):
        if sort == VALUE_SORT:
            continue
        if name in annotations:
            if sort is not None and annotations[name] is not None and sort != annotations[name]:
                raise SortMismatchError(f"variable {name!r} annotated at two sorts")
            annotations[name] = annotations[name] or sort
        else:
            annotations[name] = sort
    env = {}
    for name in sorted(annotations):
        env[name] = _resolve_var_sort(raw, name, annotations[name], sig)
    return _attach_sorts(raw, sig, env)


# ---------------------------------------------------------------------------
# Printer

_QUANT, _SUM, _PROD, _ATOM = 0, 1, 2, 3


def print_formula(f, sig: Optional[Signature] = None) -> str:
    """Canonical text for a formula; parse(print_formula(f)) == f."""
    annotate = sig is not None and sig.single_sort() is None

    def pt(t) -> str:
        if isinstance(t, Var):
            return t.name
        if not t.args:
            return t.func
        return f"{t.func}({', '.join(pt(a) for a in t.args)})"

    memo: dict = {}  # (id(node), level) -> text: a shared node prints once per call

    def go(f, level: int) -> str:
        key = (id(f), level)
        if key not in memo:
            memo[key] = write(f, level)
        return memo[key]

    def write(f, level: int) -> str:
        if isinstance(f, Quant):
            ann = f":{f.sort}" if annotate and f.sort else ""
            s = f"{f.kind} {f.var}{ann}. {go(f.body, _QUANT)}"
            return f"({s})" if level > _QUANT else s
        if isinstance(f, Atom):
            if not f.args:
                return f.pred
            return f"{f.pred}({', '.join(pt(t) for t in f.args)})"
        if isinstance(f, Const):
            return format_rational(f.value)
        if isinstance(f, ValueVar):
            return f.name
        if isinstance(f, Op):
            if f.op in ("monus", "plus_trunc"):
                sym = "-." if f.op == "monus" else "+."
                s = f"{go(f.args[0], _SUM)} {sym} {go(f.args[1], _PROD)}"
                return f"({s})" if level > _SUM else s
            if f.op == "neg":
                s = f"not {go(f.args[0], _PROD)}"
                return f"({s})" if level > _PROD else s
            if f.op == "half":
                s = f"half {go(f.args[0], _PROD)}"
                return f"({s})" if level > _PROD else s
            if f.op in ("min", "max"):
                return f"{f.op}({go(f.args[0], _QUANT)}, {go(f.args[1], _QUANT)})"
            if f.op == "absdiff":
                return f"|{go(f.args[0], _QUANT)} - {go(f.args[1], _QUANT)}|"
            if f.op == "med":
                inner = ", ".join(go(a, _QUANT) for a in f.args)
                return f"med {f.n}({inner})"
        raise StructuralError(f"not a formula: {f!r}")

    return go(f, _QUANT)


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
    each connective (an increasing position preserves the quantifier kind, a
    decreasing one swaps sup and inf); every bound variable is renamed to a
    fresh name, which makes hoisting capture-free.  Fresh names are
    `q1, q2, ...`, skipping every name that occurs in the formula, free or
    bound.  `absdiff` is first rewritten via its plus/monus identity; `med`
    is increasing in every argument and is hoisted like min/max.
    """
    taken = {name for name, _ in free_vars(f)}
    taken |= {node.var for node in nodes(f) if isinstance(node, Quant)}
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        while f"q{counter[0]}" in taken:
            counter[0] += 1
        return f"q{counter[0]}"

    def go(f):
        if isinstance(f, Quant):
            name = fresh()
            prefix, matrix = go(rename_var(f.body, f.var, name))
            return [(f.kind, name, f.sort)] + prefix, matrix
        kids = children(f)  # raises for a non-formula
        if not isinstance(f, Op):
            return [], f
        if f.op == "med":
            dirs = (+1,) * len(kids)
        elif f.op in MONOTONICITY:
            dirs = MONOTONICITY[f.op]
        else:
            raise StructuralError(f"no monotonicity data for connective {f.op!r}")
        prefix = []
        matrices = []
        for direction, arg in zip(dirs, kids):
            sub_prefix, matrix = go(arg)
            if direction < 0:
                sub_prefix = [(_flip(k), v, s) for k, v, s in sub_prefix]
            prefix.extend(sub_prefix)
            matrices.append(matrix)
        return prefix, rebuild(f, matrices)

    prefix, matrix = go(rewrite_absdiff(f))
    out = matrix
    for kind, var, sort in reversed(prefix):
        out = Quant(kind, var, sort, out)
    return out


def is_prenex(f) -> bool:
    while isinstance(f, Quant):
        f = f.body
    return not any(isinstance(node, Quant) for node in nodes(f))


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

    def total(mods) -> PLMonotone:
        out = zero
        for m in mods:
            if m != zero:
                out = pl_capped_sum(out, m)
        return out

    def through(moduli, args) -> PLMonotone:
        """Modulus of a symbol with these argument moduli applied to these terms."""
        return total(pl_compose(u, m) for u, m in zip(moduli, map(term_mod, args)) if m != zero)

    def term_mod(t) -> PLMonotone:
        if isinstance(t, Var):
            return PLMonotone.identity() if t.name == var else zero
        return through(sig.func_decl(t.func).moduli, t.args)

    mods: dict = {}  # id(node) -> the node's modulus in var
    for node in nodes(f):
        if isinstance(node, Atom):
            out = through(sig.pred_decl(node.pred).moduli, node.args)
        elif isinstance(node, Quant) and node.var == var:
            out = zero
        else:
            out = total(mods[id(k)] for k in children(node))
            if isinstance(node, Op) and node.op == "half":
                out = pl_half(out)
        mods[id(node)] = out
    return mods[id(f)]


# ---------------------------------------------------------------------------
# Conditions


@dataclass(frozen=True)
class Condition:
    """A formula paired with one of the relations = 0, <= r, >= r (r dyadic)."""

    formula: object
    relation: str  # "eq0" | "le" | "ge"
    bound: Optional[Fraction] = None

    def __post_init__(self):
        if self.relation == "eq0":
            if self.bound is not None:
                raise StructuralError("eq0 takes no bound")
        elif self.relation in ("le", "ge"):
            b = ensure_unit(self.bound)
            if not is_dyadic(b):
                raise StructuralError("condition bounds must be dyadic")
        else:
            raise StructuralError(f"unknown relation {self.relation!r}")


def expand_condition(c: Condition):
    """Rewrite a condition as an equivalent formula-equals-zero form."""
    if c.relation == "eq0":
        return c.formula
    if c.relation == "le":
        return Op("monus", (c.formula, Const(c.bound)))
    return Op("monus", (Const(c.bound), c.formula))
