"""Independent oracles and generators shared by the test modules.

The evaluators here deliberately avoid the package's formula and structure
machinery: they compute expected values directly from raw definitions, so
agreement with the main code paths is meaningful.  The module also holds
what only tests read: the Fraction semantics of the connectives, the
conditions and axiom sentences, which are checked through
`structures.eval_formula`, and the structure builders and generators,
which write a structure file's tables and load them through
`FiniteStructure.from_json`, so every structure a test builds passes the
loader's checks.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations, count
from typing import Iterable, Mapping, NamedTuple, Sequence

from contlogic.errors import (
    DefinitionAbort,
    DomainError,
    GrammarError,
    SortMismatchError,
    StructuralError,
    UnknownSymbolError,
)
from contlogic.language import (
    App,
    Atom,
    Const,
    FuncDecl,
    Op,
    PredDecl,
    Quant,
    Signature,
    SortDecl,
    ValueVar,
    Var,
    children,
    free_vars,
    nodes,
    parse,
    rebuild,
)
from contlogic.stability import (
    LadderWitness,
    MedianDefinition,
    MonotoneDefinition,
    _gap,
    _lowest_bit,
    _target_vector,
    compute_N,
)
from contlogic.structures import (
    FiniteStructure,
    ScaledTable,
    ValidationReport,
    Violation,
    eval_formula,
)
from contlogic.synthesis import MAX_SLOPE
from contlogic.topometric import CBResult, FiniteTopometricSpace
from contlogic.values import (
    CONNECTIVES,
    IDENTITY,
    ONE,
    ZERO,
    PLMonotone,
    check_connective,
    ensure_unit,
    format_rational,
    is_dyadic,
    parse_rational,
    pl_capped_sum,
    pl_compose,
    pl_half,
)


# ---------------------------------------------------------------------------
# Fraction semantics of the connectives, conditions and sentences


def neg(x: F) -> F:
    return 1 - x


def monus(x: F, y: F) -> F:
    return max(x - y, ZERO)


# each connective of `values.CONNECTIVES` on exact rationals
CONNECTIVE_SEMANTICS = {
    "neg": neg,
    "half": lambda x: x / 2,
    "monus": monus,
    "min": min,
    "max": max,
    "plus_trunc": lambda x, y: min(x + y, ONE),
    "absdiff": lambda x, y: abs(x - y),
}


def apply_connective(name: str, args: Sequence[F]) -> F:
    """A named connective, at its declared arity, on exact rational arguments."""
    check_connective(name, len(args))
    return CONNECTIVE_SEMANTICS[name](*args)


def med(values: Sequence[F], n: int) -> F:
    """Median connective: min over n-subsets of 2n-1 arguments of their max,
    which is the n-th smallest of the multiset (`med_by_subsets` is the definition)."""
    check_connective("med", len(values), n)
    return sorted(values)[n - 1]


def pred_value(M, name: str, args: tuple) -> F:
    """A predicate's or metric symbol's value at carrier indices, read as a Fraction."""
    if M.sig.is_metric(name):
        sort = M.sig.metric_sort[name]
        table, arg_sorts = M.metric_table[sort], (sort, sort)
    else:
        table, arg_sorts = M.predicate_table[name], M.sig.pred_decl(name).arg_sorts
    index = 0  # row-major over the argument sorts
    for sort, a in zip(arg_sorts, args):
        index = index * M.sizes[sort] + a
    return F(table.cells[index], table.den)


@dataclass(frozen=True)
class Condition:
    """A formula paired with one of the relations = 0, <= r, >= r (r dyadic)."""

    formula: object
    relation: str  # "eq0" | "le" | "ge"
    bound: F | None = None

    def __post_init__(self):
        if self.relation == "eq0":
            if self.bound is not None:
                raise StructuralError("eq0 takes no bound")
        elif self.relation in ("le", "ge"):
            if not is_dyadic(ensure_unit(self.bound)):
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


def check_condition(M, env: Mapping[str, object], c: Condition) -> bool:
    return eval_formula(M, env, expand_condition(c)) == 0


def check_theory(M, conditions: Sequence[tuple[str, Condition]]):
    """Evaluate named sentential conditions; returns (all satisfied, value list)."""
    rows = []
    for name, c in conditions:
        value = eval_formula(M, {}, expand_condition(c))
        rows.append({"name": name, "value": format_rational(value), "holds": value == 0})
    return all(r["holds"] for r in rows), rows


def pra_conditions(sig) -> list[tuple[str, Condition]]:
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


def apa_sentence(sig):
    """Atomlessness defect: sup_x inf_y |mu(y meet x) - mu(x)/2|."""
    return parse("sup x. inf y. |mu(meet(y,x)) - half mu(x)|", sig)


def is_prenex(f) -> bool:
    while isinstance(f, Quant):
        f = f.body
    return not any(isinstance(node, Quant) for node in nodes(f))


# ---------------------------------------------------------------------------
# Prenex forms and continuity moduli by separate walks: `prenex_reference`
# rewrites absdiff in one walk and renames each quantifier's variable in a walk
# of its body; `infer_modulus_reference` checks that the variable is free
# before a walk that keeps a modulus, zero or not, for every node


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


def _flip_reference(kind: str) -> str:
    return "inf" if kind == "sup" else "sup"


def prenex_reference(f):
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
    prefix, matrix = _hoist_reference(rewrite_absdiff(f), fresh)
    out = matrix
    for kind, var, sort in reversed(prefix):
        out = Quant(kind, var, sort, out)
    return out


def _hoist_reference(f, fresh) -> tuple:
    """(prefix, matrix) of f: its quantifiers, outermost first, each as (kind,
    name, sort) with a name drawn from `fresh`, and what is left below them."""
    if isinstance(f, Quant):
        name = next(fresh)
        prefix, matrix = _hoist_reference(rename_var(f.body, f.var, name), fresh)
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
        sub_prefix, matrix = _hoist_reference(arg, fresh)
        if direction < 0:
            sub_prefix = [(_flip_reference(k), v, s) for k, v, s in sub_prefix]
        prefix.extend(sub_prefix)
        matrices.append(matrix)
    return prefix, rebuild(f, matrices)


def infer_modulus_reference(f, sig: Signature, var: str) -> PLMonotone:
    """Sound inverse modulus for a formula in one of its free variables.

    On every structure satisfying the signature's uniform-continuity axioms,
    moving `var` by distance t moves the value of `f` by at most u(t).
    Tightness is not attempted.
    """
    if var not in {n for n, _ in free_vars(f)}:
        raise StructuralError(f"variable {var!r} is not free in the formula")
    zero = PLMonotone(1, (0, 1), (0, 0))
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


# ---------------------------------------------------------------------------
# Structure builders and generators
#
# Each writes a structure file's tables, as nested lists of element names
# and rational literals, and loads them with `FiniteStructure.from_json`.

def _nested(dims: Sequence[int], cell, args: tuple = ()):
    """Nested lists of shape `dims`, row-major, holding cell(t) at each index tuple t."""
    if len(args) == len(dims):
        return cell(args)
    return [_nested(dims, cell, (*args, i)) for i in range(dims[len(args)])]


def structure(sig, carriers, metric, functions, predicates) -> FiniteStructure:
    """The structure with these tables: `metric` maps each sort to its rows of
    rationals, `functions` each function symbol to {argument index tuple:
    carrier index} and `predicates` each predicate symbol to {argument index
    tuple: rational}."""
    sizes = {s: len(elements) for s, elements in carriers.items()}
    data = {"carriers": {s: list(elements) for s, elements in carriers.items()},
            "metric": {s: [[format_rational(F(v)) for v in row] for row in rows]
                       for s, rows in metric.items()},
            "functions": {}, "predicates": {}}
    for name, table in functions.items():
        decl = sig.functions[name]
        target = carriers[decl.target]
        data["functions"][name] = _nested([sizes[s] for s in decl.arg_sorts],
                                          lambda t: target[table[t]])
    for name, table in predicates.items():
        data["predicates"][name] = _nested([sizes[s] for s in sig.predicates[name].arg_sorts],
                                           lambda t: format_rational(F(table[t])))
    return FiniteStructure.from_json(data, sig)


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


def gen_prob_algebra(atom_weights: Sequence[F]) -> FiniteStructure:
    """Finite probability algebra on the given atoms.

    Carrier is the power set of the atom index set (element s<mask>), the
    measure is the weight sum, and the metric is the measure of the
    symmetric difference.  The atom count is capped at 8: the metric matrix
    has 4^k entries.
    """
    k = len(atom_weights)
    weights = [F(w) for w in atom_weights]
    if k < 1 or k > 8:
        raise DomainError("atom count must be between 1 and 8")
    if any(w <= 0 for w in weights):
        raise DomainError("atom weights must be positive")
    if sum(weights) != 1:
        raise DomainError("atom weights must sum to 1")
    n = 1 << k
    names = [f"s{m}" for m in range(n)]
    mu = [format_rational(sum((w for b, w in enumerate(weights) if m >> b & 1), ZERO))
          for m in range(n)]
    return FiniteStructure.from_json({
        "carriers": {"B": names},
        "metric": {"B": [[mu[a ^ b] for b in range(n)] for a in range(n)]},
        "functions": {"zero": names[0], "one": names[n - 1],
                      "compl": [names[(n - 1) ^ a] for a in range(n)],
                      "meet": [[names[a & b] for b in range(n)] for a in range(n)],
                      "join": [[names[a | b] for b in range(n)] for a in range(n)]},
        "predicates": {"mu": mu},
    }, pra_signature())


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

    Function tables map tuples of element names to element names.  Relation
    tables list the tuples (of element names) where the relation holds;
    those evaluate to 0 and all others to 1, matching the convention that 0
    is true.  The discrete metric makes any table respect any moduli.
    """
    fn_arities = {}
    for name, table in functions.items():
        arities = {len(k) for k in table}
        if len(arities) != 1:
            raise StructuralError(f"mixed arity in function {name}")
        fn_arities[name] = arities.pop()
    rel_sets = {name: {tuple(t) for t in tuples} for name, tuples in relations.items()}
    rel_arities = {}
    for name, tuples in rel_sets.items():
        arities = {len(t) for t in tuples}
        if len(arities) > 1:
            raise StructuralError(f"mixed arity in relation {name}")
        rel_arities[name] = arities.pop() if arities else 1

    def table(arity, cell):
        return _nested([len(carrier)] * arity, lambda t: cell(tuple(carrier[i] for i in t)))

    return FiniteStructure.from_json({
        "carriers": {"S": list(carrier)},
        "metric": {"S": [["0" if a == b else "1" for b in carrier] for a in carrier]},
        "functions": {name: table(fn_arities[name], functions[name].__getitem__)
                      for name in functions},
        "predicates": {name: table(rel_arities[name], lambda t, r=rel_sets[name]:
                                   "0" if t in r else "1")
                       for name in relations},
    }, classical_signature(fn_arities, rel_arities))


def halfgraph_signature() -> Signature:
    return Signature([SortDecl("V", "d")],
                     predicates=[PredDecl("phi", ("V", "V"), (IDENTITY, IDENTITY))])


def gen_halfgraph(n: int) -> FiniteStructure:
    """Half-graph on 2n points: phi(a_i, b_j) = 1 iff i <= j, else 0 everywhere.

    Discrete metric, so the structure is trivially uniformly continuous.
    """
    if not 1 <= n <= 16:
        raise DomainError("half-graph size must be between 1 and 16")
    size = 2 * n
    return FiniteStructure.from_json({
        "carriers": {"V": [f"a{i}" for i in range(n)] + [f"b{j}" for j in range(n)]},
        "metric": {"V": [["0" if i == j else "1" for j in range(size)] for i in range(size)]},
        "predicates": {"phi": [["1" if i + n <= j else "0" for j in range(size)]
                               for i in range(size)]},
    }, halfgraph_signature())


class FractionTables(NamedTuple):
    """A structure's tables in the form `structure` takes."""

    metric: dict  # sort -> n x n rows of Fractions
    functions: dict  # function -> {argument index tuple: carrier index}
    predicates: dict  # predicate -> {argument index tuple: Fraction}


def fraction_tables(M) -> FractionTables:
    """M's flat int tables read back as Fractions, cell by cell."""

    def arg_tuples(arg_sorts):
        return itertools.product(*(range(M.sizes[s]) for s in arg_sorts))

    metric = {s: tuple(tuple(pred_value(M, M.sig.metric_of[s], (i, j)) for j in range(n))
                       for i in range(n))
              for s, n in M.sizes.items()}
    functions = {name: dict(zip(arg_tuples(decl.arg_sorts), M.function_table[name]))
                 for name, decl in M.sig.functions.items()}
    predicates = {name: {args: pred_value(M, name, args) for args in arg_tuples(decl.arg_sorts)}
                  for name, decl in M.sig.predicates.items()}
    return FractionTables(metric, functions, predicates)


def glued_halfgraph(n):
    """Half-graph n with a discrete two-point sort E and psi(x, y) = phi(y, x), for gluing."""
    base = gen_halfgraph(n)
    sig = base.sig.extended(sorts=[SortDecl("E", "d_E")],
                            predicates=[PredDecl("psi", ("V", "V"), (IDENTITY, IDENTITY))])
    carriers = dict(base.carriers)
    carriers["E"] = ["e0", "e1"]
    metric, _, predicates = fraction_tables(base)
    metric["E"] = [[F(0), F(1)], [F(1), F(0)]]
    size = len(base.carriers["V"])
    predicates["psi"] = {(i, j): predicates["phi"][(j, i)]
                         for i in range(size) for j in range(size)}
    return structure(sig, carriers, metric, {}, predicates)


def relabelled_json(data: dict, perm: Mapping[str, Sequence[int]]) -> dict:
    """A structure file (with its signature inline) with each sort's carrier reordered.

    Position i of sort s holds the old element perm[s][i]; every metric,
    function and predicate table is re-indexed to match, so the result
    describes an isomorphic copy with the same element names.
    """
    def reindex(table, arg_sorts):
        if not arg_sorts:
            return table
        return [reindex(table[j], arg_sorts[1:]) for j in perm[arg_sorts[0]]]

    sig = data["signature"]
    return {
        "signature": sig,
        "carriers": {s: [names[j] for j in perm[s]] for s, names in data["carriers"].items()},
        "metric": {s: reindex(table, [s, s]) for s, table in data["metric"].items()},
        "functions": {d["name"]: reindex(data["functions"][d["name"]], d["arg_sorts"])
                      for d in sig["functions"]},
        "predicates": {d["name"]: reindex(data["predicates"][d["name"]], d["arg_sorts"])
                       for d in sig["predicates"]},
    }


def atomless_defect_bruteforce(weights):
    """sup_x inf_y |mu(y & x) - mu(x)/2| over the power-set algebra, via bitmasks."""
    k = len(weights)
    n = 1 << k
    mu = [sum((weights[b] for b in range(k) if m >> b & 1), F(0)) for m in range(n)]
    worst = F(0)
    for x in range(n):
        best = min(abs(mu[y & x] - mu[x] / 2) for y in range(n))
        worst = max(worst, best)
    return worst


def pra_axioms_bruteforce(weights):
    """True iff the five probability-algebra axioms hold exactly, via bitmasks."""
    k = len(weights)
    n = 1 << k
    full = n - 1
    mu = [sum((weights[b] for b in range(k) if m >> b & 1), F(0)) for m in range(n)]

    def d(a, b):
        return mu[a ^ b]

    if mu[full] != 1 or mu[0] != 0:
        return False
    for x in range(n):
        for y in range(n):
            if mu[x] + mu[y] != mu[x | y] + mu[x & y]:
                return False
            if d(x, y) != mu[(x & (full ^ y)) | (y & (full ^ x))]:
                return False
    return True


def random_metric(rng, n, choices):
    """Random symmetric matrix with zero diagonal, closed under shortest paths."""
    dists = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dists[i][j] = dists[j][i] = rng.choice(choices)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dists[i][j] > dists[i][k] + dists[k][j]:
                    dists[i][j] = dists[i][k] + dists[k][j]
    return dists


def random_valid_topometric_space(rng, n=8, eps=F(1, 2)):
    """Random metric plus a closed-set family saturated into a valid lattice."""
    points = tuple(f"p{i}" for i in range(n))
    dists = random_metric(rng, n, [F(1, 4), F(1, 2), F(3, 4), F(1)])
    fam = {frozenset(), frozenset(range(n))}
    for _ in range(4):
        fam.add(frozenset(rng.sample(range(n), rng.randrange(1, n))))
    changed = True
    while changed:
        changed = False
        for A in list(fam):
            for B in list(fam):
                for C in (A | B, A & B):
                    if C not in fam:
                        fam.add(C)
                        changed = True
        for A in list(fam):
            nb = frozenset(p for p in range(n) if any(dists[p][q] <= eps for q in A))
            if nb not in fam:
                fam.add(nb)
                changed = True
    return topometric_space(points, sorted(fam, key=sorted), dists, (eps,)), eps


def topometric_space(points, closed_sets, metric, test_epsilons=()) -> FiniteTopometricSpace:
    """A space from closed sets given as sets of point indices and a metric of
    rationals, held as `from_json` holds one: masks, and numerators over the
    lcm of the metric's denominators."""
    metric = [[F(v) for v in row] for row in metric]
    den = math.lcm(*(v.denominator for row in metric for v in row))
    return FiniteTopometricSpace(
        tuple(points), tuple(sum(1 << p for p in C) for C in closed_sets),
        tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in metric),
        den, tuple(map(F, test_epsilons)))


def classical_eval(carrier, relations, node, env):
    """Naive classical evaluator over a discrete relational description.

    `node` is a nested tuple: ("rel", name, vars), ("not", f), ("and", f, g),
    ("or", f, g), ("forall", v, f), ("exists", v, f).
    """
    tag = node[0]
    if tag == "rel":
        _, name, vars_ = node
        return tuple(env[v] for v in vars_) in relations[name]
    if tag == "not":
        return not classical_eval(carrier, relations, node[1], env)
    if tag == "and":
        return classical_eval(carrier, relations, node[1], env) and \
            classical_eval(carrier, relations, node[2], env)
    if tag == "or":
        return classical_eval(carrier, relations, node[1], env) or \
            classical_eval(carrier, relations, node[2], env)
    if tag == "forall":
        _, v, body = node
        return all(classical_eval(carrier, relations, body, {**env, v: e})
                   for e in carrier)
    if tag == "exists":
        _, v, body = node
        return any(classical_eval(carrier, relations, body, {**env, v: e})
                   for e in carrier)
    raise ValueError(tag)


def triple_sequence_reference(vals, nx, ny, eps, max_len):
    """Longest triple-condition sequence by direct comparison of the values.

    The list-based search that `stability._longest_triple_sequence` replaced
    with bitsets: same DFS order, same first-strictly-longer rule, same
    witness choice and bounded flag, so results must agree exactly.  The
    Fraction values and eps are compared as int numerators over their
    common denominator, one subtraction per pair and no table built ahead.
    """
    eps = F(eps)
    den = math.lcm(eps.denominator, *(v.denominator for row in vals for v in row))
    num = [[v.numerator * (den // v.denominator) for v in row] for row in vals]
    gap = eps.numerator * (den // eps.denominator)
    best_bs: list = []
    best_feasible: list = []
    bs: list = []
    feasible: list = []  # feasible[j] = list of a-indices usable at middle position j

    def extend():
        nonlocal best_bs, best_feasible
        if max_len is not None and len(bs) >= max_len:
            return True
        hit = False
        for b in range(ny):
            new_feasible = []
            ok = True
            for j in range(1, len(bs)):
                earlier = bs[:j]
                allowed = []
                for a in feasible[j]:
                    row = num[a]
                    v = row[b]
                    for c in earlier:
                        if abs(row[c] - v) < gap:
                            break
                    else:
                        allowed.append(a)
                if not allowed:
                    ok = False
                    break
                new_feasible.append(allowed)
            if not ok:
                continue
            saved = feasible[1:len(bs)]
            for j, allowed in enumerate(new_feasible, start=1):
                feasible[j] = allowed
            bs.append(b)
            feasible.append(list(range(nx)))  # the new last position, unconstrained so far
            if len(bs) > len(best_bs):
                best_bs = list(bs)
                best_feasible = [list(f) for f in feasible]
            hit = extend() or hit
            bs.pop()
            feasible.pop()
            for j, old in enumerate(saved, start=1):
                feasible[j] = old
            if max_len is not None and len(best_bs) >= max_len:
                return hit
        return hit

    hit_bound = extend()
    seq = [(best_feasible[j][0] if 0 < j < len(best_bs) - 1 else 0, b)
           for j, b in enumerate(best_bs)]
    bounded = bool(max_len is not None and len(best_bs) >= max_len and hit_bound)
    return seq, bounded


def triple_sequence_unpruned(num, scale, nx, ny, eps, max_len):
    """The bitset triple search without column classes or the colouring bound.

    `stability._longest_triple_sequence` as it was before it branched on
    column classes and cut branches by the colouring bound: every parameter
    is tried at every position, so the pruned kernel must return exactly
    this on inputs small enough for it to finish.
    """
    gap = _gap(eps, scale)
    far = [[0] * ny for _ in range(ny)]
    for a, row in enumerate(num):
        bit = 1 << a
        for b in range(ny):
            v = row[b]
            far_b = far[b]
            for c in range(b + 1, ny):
                if abs(v - row[c]) >= gap:
                    far_b[c] |= bit
                    far[c][b] |= bit
    everything = (1 << nx) - 1
    best_bs: list = []
    best_feasible: list = []

    def extend(bs, feasible):
        # feasible[j] = bitset of a-indices usable at position j of bs
        nonlocal best_bs, best_feasible
        if max_len is not None and len(bs) >= max_len:
            return True
        hit = False
        for b in range(ny):
            far_b = far[b]
            new_feasible = feasible[:1]
            acc = far_b[bs[0]] if bs else 0
            for j in range(1, len(bs)):
                allowed = feasible[j] & acc
                if not allowed:
                    break
                new_feasible.append(allowed)
                acc &= far_b[bs[j]]
            else:
                new_feasible.append(everything)  # the new last position, unconstrained so far
                new_bs = bs + [b]
                if len(new_bs) > len(best_bs):
                    best_bs, best_feasible = new_bs, new_feasible
                hit = extend(new_bs, new_feasible) or hit
                if max_len is not None and len(best_bs) >= max_len:
                    return hit
        return hit

    hit_bound = extend([], [])
    seq = [(_lowest_bit(best_feasible[j]) if 0 < j < len(best_bs) - 1 else 0, b)
           for j, b in enumerate(best_bs)]
    bounded = bool(max_len is not None and len(best_bs) >= max_len and hit_bound)
    return seq, bounded


def _search_pairwise(nx, ny, admits, max_len):
    """DFS over pairs in index order; returns the first longest pair sequence."""
    best: list = []
    stack: list = []
    hit_bound = [False]

    def extend():
        if max_len is not None and len(stack) >= max_len:
            hit_bound[0] = True
            return
        for a in range(nx):
            for b in range(ny):
                if admits(stack, a, b):
                    stack.append((a, b))
                    if len(stack) > len(best):
                        best[:] = stack
                    extend()
                    stack.pop()
                    if max_len is not None and len(best) >= max_len:
                        return

    extend()
    return list(best), hit_bound[0] and len(best) >= (max_len or 0)


def pairwise_ladder_unpruned(inst, epsilon, kind, max_len=None) -> LadderWitness:
    """The antisym and order ladders by the unpruned pair search.

    `stability.find_ladder` as it was before its bitset DFS: every pair is
    tried at every position and `admits` rescans the stack, so it finishes
    only on small inputs or with a small max_len.
    """
    eps = F(epsilon)
    num = inst.num
    nx, ny = len(inst.xts), len(inst.yts)
    gap = _gap(eps, inst.scale)

    def names(pairs):
        return tuple((inst.x_names[a], inst.y_names[b]) for a, b in pairs)

    if kind == "antisym":
        def admits(stack, a, b):
            return all(abs(num[pa][b] - num[a][pb]) >= gap for pa, pb in stack)

        pairs, bounded = _search_pairwise(nx, ny, admits, max_len)
        return LadderWitness("antisym", eps, names(pairs), at_searched_bound=bounded)

    assert kind == "order", kind
    values = sorted(set().union(*num))
    best_pairs: list = []
    best_rs = (None, None)
    bounded = False
    for r in values:
        for s in values:
            if s - r < gap:
                continue

            def admits(stack, a, b, r=r, s=s):
                return all(num[pa][b] <= r and num[a][pb] >= s for pa, pb in stack)

            pairs, hit = _search_pairwise(nx, ny, admits, max_len)
            if len(pairs) > len(best_pairs):
                best_rs = (F(r, inst.scale), F(s, inst.scale))
                best_pairs, bounded = pairs, hit
    return LadderWitness("order", eps, names(best_pairs),
                         r=best_rs[0], s=best_rs[1], at_searched_bound=bounded)


def eval_term_reference(M, env, t) -> int:
    if isinstance(t, Var):
        if t.name not in env:
            raise StructuralError(f"unbound variable {t.name!r}")
        return env[t.name]  # type: ignore[return-value]
    return M.fn_value(t.func, tuple(eval_term_reference(M, env, a) for a in t.args))


def eval_formula_reference(M, env, f) -> F:
    """Tree-walking Fraction interpreter, the reference for `structures.eval_formula`.

    Structure variables map to carrier indices; value variables map to
    Fractions.  Quantifiers take min/max over the bound sort's carrier.
    """
    if isinstance(f, Atom):
        return pred_value(M, f.pred, tuple(eval_term_reference(M, env, t) for t in f.args))
    if isinstance(f, Const):
        return f.value
    if isinstance(f, ValueVar):
        v = env.get(f.name)
        if not isinstance(v, F):
            raise StructuralError(f"value variable {f.name!r} not bound to a rational")
        return v
    if isinstance(f, Op):
        vals = [eval_formula_reference(M, env, a) for a in f.args]
        if f.op == "med":
            return med(vals, f.n)
        return apply_connective(f.op, vals)
    if isinstance(f, Quant):
        inner = dict(env)
        best = None
        for i in range(len(M.carriers[f.sort])):
            inner[f.var] = i
            v = eval_formula_reference(M, inner, f.body)
            if best is None or (f.kind == "sup" and v > best) or (f.kind == "inf" and v < best):
                best = v
        return best
    raise StructuralError(f"not a formula: {f!r}")


def validate_reference(M) -> ValidationReport:
    """Fraction-table validator, the reference for `structures.validate`.

    Compares every pair and triple directly and evaluates the modulus at
    every pair; the int-table validator must reproduce its report exactly.
    """
    out = []
    metric = fraction_tables(M).metric
    for sort in M.sig.sort_names:
        names = M.carriers[sort]
        dm = metric[sort]
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
            u = FractionPL.of(u)
            other = [range(len(M.carriers[s])) for p, s in enumerate(arg_sorts) if p != pos]
            size = len(M.carriers[sort])
            for ctx in itertools.product(*other):
                for z in range(size):
                    for w in range(z + 1, size):
                        args_z = list(ctx[:pos]) + [z] + list(ctx[pos:])
                        args_w = list(ctx[:pos]) + [w] + list(ctx[pos:])
                        bound = u.eval(metric[sort][z][w])
                        if is_function:
                            vz = value_at(tuple(args_z))
                            vw = value_at(tuple(args_w))
                            change = metric[target_sort][vz][vw]
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
                     lambda args, name=name: pred_value(M, name, args),
                     False)
    return ValidationReport(out)


# ---------------------------------------------------------------------------
# Topometric space files loaded on Fractions


def topometric_from_json_reference(data) -> dict:
    """The Fraction loader that `FiniteTopometricSpace.from_json` replaced.

    Parses every metric cell with `parse_rational`, checks the closed sets
    over every ordered pair and the metric cell by cell, and returns the
    fields a loaded space must have by name (`closed_masks`, `num`, `den`),
    or raises what the loader must raise.
    """
    if not isinstance(data, dict):
        raise StructuralError("space file must be a JSON object")
    for key in ("points", "closed_sets", "metric"):
        if key not in data:
            raise StructuralError(f"space file has no {key!r}")
        if not isinstance(data[key], list):
            raise StructuralError(f"space file's {key!r} must be a list")
    points = tuple(data["points"])
    if not all(isinstance(p, str) for p in points):
        raise StructuralError("point names must be strings")
    pos = {p: i for i, p in enumerate(points)}
    closed = []
    for C in data["closed_sets"]:
        if not isinstance(C, list):
            raise StructuralError("each closed set must be a list of point names")
        for p in C:
            if not isinstance(p, str) or p not in pos:
                raise StructuralError(f"closed set names unknown point {p!r}")
        closed.append(frozenset(pos[p] for p in C))
    if not all(isinstance(row, list) for row in data["metric"]):
        raise StructuralError("each metric row must be a list")
    metric = tuple(tuple(parse_rational(v) for v in row) for row in data["metric"])
    if not isinstance(data.get("test_epsilons", []), list):
        raise StructuralError("space file's 'test_epsilons' must be a list")
    epsilons = tuple(parse_rational(e) for e in data.get("test_epsilons", []))
    n = len(points)
    if len(set(points)) != n or n == 0:
        raise StructuralError("points must be distinct and non-empty")
    masks = tuple(sum(1 << i for i in C) for C in closed)
    fam = set(masks)
    if 0 not in fam or (1 << n) - 1 not in fam:
        raise StructuralError("closed sets must contain the empty and full sets")
    if any(A | B not in fam or A & B not in fam for A in fam for B in fam):
        raise StructuralError("closed sets must be closed under union and intersection")
    if len(metric) != n or any(len(row) != n for row in metric):
        raise StructuralError("metric matrix has the wrong shape")
    den = math.lcm(*(v.denominator for row in metric for v in row))
    num = tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in metric)
    for i in range(n):
        if metric[i][i] != 0:
            raise StructuralError("metric must vanish on the diagonal")
        for j in range(n):
            ensure_unit(metric[i][j])
            if metric[i][j] != metric[j][i]:
                raise StructuralError("metric must be symmetric")
            if i != j and metric[i][j] == 0:
                raise StructuralError("metric must separate distinct points")
            if any(metric[i][j] > metric[i][k] + metric[k][j] for k in range(n)):
                raise StructuralError("metric violates the triangle inequality")
    for eps in epsilons:
        eps = ensure_unit(eps)
        for A in fam:
            near = [p for p in range(n) if any(A >> q & 1 and metric[p][q] <= eps
                                                for q in range(n))]
            if sum(1 << p for p in near) not in fam:
                raise StructuralError(f"closed {format_rational(eps)}-neighbourhood of a "
                                      "closed set is not closed")
    return {"points": points, "closed_masks": masks, "num": num, "den": den,
            "test_epsilons": epsilons}


# ---------------------------------------------------------------------------
# Cantor-Bendixson ranks on frozensets and Fractions


def _diameter(X, subset) -> F:
    pts = list(subset)
    if len(pts) < 2:
        return F(0)
    # one Fraction: the denominator is shared and positive, so the max numerator is the max
    return F(max(X.num[p][q] for p in pts for q in pts), X.den)


def cb_derivative_reference(X, subset: frozenset, epsilon) -> frozenset:
    eps = ensure_unit(epsilon)
    subset = frozenset(subset)
    result = subset
    for C in X.closed_masks:
        G = frozenset(p for p in subset if C >> p & 1)
        if _diameter(X, subset - G) <= eps:
            result &= G
    return result


def cb_rank_reference(X, epsilon) -> CBResult:
    """Frozenset/Fraction CB ranks, the reference for `topometric.cb_rank`.

    Compares Fraction distances directly and finds each epsilon-degree by
    enumerating every subset of the stage.
    """
    eps = ensure_unit(epsilon)
    stages = [frozenset(range(len(X.points)))]
    while stages[-1]:
        nxt = cb_derivative_reference(X, stages[-1], eps)
        if nxt == stages[-1]:
            break
        stages.append(nxt)
    stationary = bool(stages[-1])
    ranks: dict = {}
    for p in range(len(X.points)):
        if stationary and p in stages[-1]:
            ranks[p] = None
        else:
            ranks[p] = max(i for i, S in enumerate(stages) if p in S)
    degrees = [epsilon_degree_reference(X, S, eps) for S in stages]
    return CBResult(stages, ranks, degrees, stationary)


def epsilon_degree_reference(X, subset: frozenset, epsilon) -> int:
    """Brute-force exact cover using maximal admissible blocks."""
    eps = ensure_unit(epsilon)
    pts = sorted(subset)
    if not pts:
        return 0
    blocks = _maximal_small_blocks(X, pts, eps)
    for k in range(1, len(pts) + 1):
        for combo in itertools.combinations(blocks, k):
            covered = frozenset().union(*combo)
            if covered >= frozenset(pts):
                return k
    raise AssertionError("unreachable: singletons always cover")


def _maximal_small_blocks(X, pts: Sequence[int], eps: F):
    """Inclusion-maximal subsets of pts with diameter <= eps, top-down."""
    candidates: list[frozenset] = []
    for size in range(len(pts), 0, -1):
        for combo in itertools.combinations(pts, size):
            S = frozenset(combo)
            if any(S <= c for c in candidates):
                continue
            if _diameter(X, S) <= eps:
                candidates.append(S)
    return candidates


def bron_kerbosch_reference(far: list, subset: int) -> list:
    """The maximal cliques of the "within epsilon" graph on the subset, as
    masks, in the order of a recursive Bron-Kerbosch with the pivot and
    branch order of `topometric._maximal_blocks`."""
    adj = [subset & ~f & ~(1 << p) for p, f in enumerate(far)]
    blocks: list = []
    _bron_kerbosch(adj, 0, subset, 0, blocks)
    return blocks


def _bron_kerbosch(adj, clique, cand, done, blocks):
    if not cand:
        if not done:
            blocks.append(clique)
        return
    members = [u for u in range(len(adj)) if (cand | done) >> u & 1]
    pivot = adj[max(members, key=lambda u: ((cand & adj[u]).bit_count(), -u))]
    for v in range(len(adj)):
        if (cand & ~pivot) >> v & 1:
            _bron_kerbosch(adj, clique | 1 << v, cand & adj[v], done & adj[v], blocks)
            cand &= ~(1 << v)
            done |= 1 << v


# ---------------------------------------------------------------------------
# Value expressions, one point at a time


def eval_value_formula_reference(expr, point: Mapping[str, F]) -> F:
    """Evaluate an expression over value variables at a point of [0,1]^n.

    The per-point Fraction evaluator that `synthesis` replaced with one pass
    over the whole grid; it memoizes on node identity.
    """
    memo: dict = {}

    def go(node) -> F:
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Const):
            value = node.value
        elif isinstance(node, ValueVar):
            if node.name not in point:
                raise StructuralError(f"unbound value variable {node.name!r}")
            value = point[node.name]
        elif isinstance(node, Op):
            vals = [go(a) for a in node.args]
            value = med(vals, node.n) if node.op == "med" else apply_connective(node.op, vals)
        else:
            raise StructuralError(
                "expression must use only value variables, connectives, constants")
        memo[key] = value
        return value

    return go(expr)


def apply_connective_reference(name: str, args: Sequence[F], const_value=None) -> F:
    """`apply_connective`, plus the nullary `const` that returns its payload."""
    if name == "const":
        if args:
            raise StructuralError("const takes no arguments")
        if const_value is None:
            raise StructuralError("const requires a payload")
        return ensure_unit(const_value)
    return apply_connective(name, args)


def constant_fold_reference(expr):
    """Fold all-constant subterms, preserving subterm sharing.

    The separate pass that `synthesis` used to run over a finished
    expression; the synthesis constructors now fold as they build.
    """
    memo: dict = {}

    def go(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Op):
            args = tuple(go(a) for a in node.args)
            if all(isinstance(a, Const) for a in args):
                vals = [a.value for a in args]
                folded = med(vals, node.n) if node.op == "med" \
                    else apply_connective(node.op, vals)
                out = Const(folded)
            else:
                out = Op(node.op, args, node.n)
        else:
            out = node
        memo[key] = out
        return out

    return go(expr)


def uses_only_neg_monus_constants(expr) -> bool:
    """AST scan: negation, truncated subtraction, dyadic constants, variables."""
    return all(isinstance(node, ValueVar)
               or isinstance(node, Const) and is_dyadic(node.value)
               or isinstance(node, Op) and node.op in ("neg", "monus")
               for node in nodes(expr))


def synthesize_reference(target, epsilon):
    """The expression `synthesis.synthesize` builds, built on Fractions.

    The builder that `synthesis` replaced with one on int numerators: the
    same nodes, built in the same order with the same sharing and folding.
    It certifies nothing; a pair whose slope passes the cap raises the same
    DomainError.
    """
    k = 0
    while F(1, 2 ** (k + 1)) > epsilon:
        k += 1
    pts = target.grid_points()
    approx = {pt: F((v * 2 ** (k + 1) + 1).__floor__() // 2, 2 ** k)
              for pt, v in zip(pts, target.values)}
    rows = []
    for x in pts:
        row = []
        for y in pts:
            differing = [c for c in range(target.arity) if x[c] != y[c]]
            if differing:
                row.append(_two_point_interpolant(x, y, approx[x], approx[y], differing[0]))
        rows.append(_fold_max(row))
    return _fold_min(rows)


def _two_point_interpolant(x, y, a, b, coord: int):
    """Expression in t_<coord> equal to a at x and to b at y (A >= B: the ramp
    (A -. m(t -. u)) \\/ B; A < B: the negated ramp of the negations)."""
    u, v = x[coord], y[coord]
    if u > v:
        u, v, a, b = v, u, b, a
    flip = a < b
    if flip:
        a, b = 1 - a, 1 - b
    if a == 0:
        core = Const(ZERO)
    else:
        m = (a / (v - u)).__ceil__()  # the least m with m * (v - u) >= a
        if m > MAX_SLOPE:
            raise DomainError(f"slope {m} exceeds the cap {MAX_SLOPE} for the pair "
                              f"({', '.join(map(format_rational, x))}) -> "
                              f"({', '.join(map(format_rational, y))})")
        t = ValueVar(f"t{coord}")
        step = _monus(t, Const(u))
        core = Const(a)
        for _ in range(m):
            core = _monus(core, step)
    ramp = _fold_max([core, Const(b)]) if b > 0 else core
    return _neg(ramp) if flip else ramp


def _monus(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(monus(a.value, b.value))
    return Op("monus", (a, b))


def _neg(a):
    return Const(neg(a.value)) if isinstance(a, Const) else Op("neg", (a,))


def _fold_max(exprs):
    if len(exprs) == 1:
        return exprs[0]
    mid = len(exprs) // 2
    x, y = _fold_max(exprs[:mid]), _fold_max(exprs[mid:])
    nx, ny = _neg(x), _neg(y)
    return _neg(_monus(nx, _monus(nx, ny)))


def _fold_min(exprs):
    if len(exprs) == 1:
        return exprs[0]
    mid = len(exprs) // 2
    x, y = _fold_min(exprs[:mid]), _fold_min(exprs[mid:])
    return _monus(x, _monus(x, y))


def lattice_closure_vectors(axis: Sequence[F], constants: Sequence[F], depth: int):
    """Value vectors on a 1-variable grid of all {neg, min, max} expressions.

    Seeds are the variable itself and the given constants; closure is taken
    to the stated depth with deduplication by value vector.  Every vector in
    the closure is 1-Lipschitz on the grid, which is the point of the
    negative witness: the monotone-lattice system cannot synthesize a
    steeper target.  The closure runs on int numerators over the common
    denominator of the axis and the constants.
    """
    constants = [ensure_unit(c) for c in constants]
    axis = [F(t) for t in axis]
    den = math.lcm(*(v.denominator for v in [*axis, *constants]))
    var = tuple(t.numerator * (den // t.denominator) for t in axis)
    seeds = {var} | {(c.numerator * (den // c.denominator),) * len(var) for c in constants}
    known = dict.fromkeys(seeds, 0)
    frontier = set(seeds)
    for level in range(1, depth + 1):
        new = set()
        snapshot = list(known)
        for u in frontier:
            cand = tuple(den - x for x in u)
            if cand not in known:
                new.add(cand)
        for u in frontier:
            for v in snapshot:
                for cand in (tuple(map(min, u, v)), tuple(map(max, u, v))):
                    if cand not in known:
                        new.add(cand)
        for cand in new:
            known[cand] = level
        frontier = new
        if not new:
            break
    return [tuple(F(x, den) for x in vec) for vec in known]


def med_by_subsets(values: Sequence[F], n: int) -> F:
    """The defining form of med_n: min over n-subsets of the arguments of their max."""
    if len(values) != 2 * n - 1:
        raise StructuralError(f"med_{n} expects {2 * n - 1} arguments, got {len(values)}")
    return min(max(values[i] for i in w) for w in combinations(range(2 * n - 1), n))


def automorphisms(M):
    """Brute-force sort-preserving automorphisms; carriers capped at 6 elements."""
    for s in M.sig.sort_names:
        if len(M.carriers[s]) > 6:
            raise StructuralError("automorphism search capped at 6-element carriers")
    sorts = M.sig.sort_names
    pools = [itertools.permutations(range(len(M.carriers[s]))) for s in sorts]
    tables = fraction_tables(M)
    for perms in itertools.product(*pools):
        pi = dict(zip(sorts, perms))
        if _is_automorphism(M, tables, pi):
            yield pi


def _is_automorphism(M, tables: FractionTables, pi: Mapping[str, Sequence[int]]) -> bool:
    for s in M.sig.sort_names:
        p = pi[s]
        dm = tables.metric[s]
        n = len(M.carriers[s])
        for i in range(n):
            for j in range(n):
                if dm[p[i]][p[j]] != dm[i][j]:
                    return False
    for name, decl in M.sig.functions.items():
        for args, value in tables.functions[name].items():
            mapped = tuple(pi[s][a] for s, a in zip(decl.arg_sorts, args))
            if M.fn_value(name, mapped) != pi[decl.target][value]:
                return False
    for name, decl in M.sig.predicates.items():
        for args, value in tables.predicates[name].items():
            mapped = tuple(pi[s][a] for s, a in zip(decl.arg_sorts, args))
            if pred_value(M, name, mapped) != value:
                return False
    return True


def monotone_sup_on_grid(defn, inst, target, vs: Sequence[Sequence[F]], pitch: F) -> list:
    """The monotone definition's sup over a full u-grid of the given pitch, at each v of vs.

    f(u) is computed once per grid point.  h(u, v) * f(u) is compared as
    ints: u, v and eps over one common denominator, the target over its own.
    """
    yts, vals = inst.yts, inst.vals
    t = _target_vector(inst, target)
    observed = [[vals[c][a] for c in defn.parameters] for a in range(len(yts))]
    den = math.lcm(pitch.denominator, defn.epsilon.denominator,
                   *(x.denominator for row in [*observed, *vs] for x in row))
    tden = math.lcm(*(x.denominator for x in t))

    def scaled(x, d=den) -> int:
        return x.numerator * (d // x.denominator)

    eps = scaled(defn.epsilon)
    axis = [scaled(pitch * k) for k in range(int(1 / pitch) + 1)]
    grid = list(itertools.product(axis, repeat=len(defn.parameters)))
    rows = [([scaled(x) for x in row], scaled(ta, tden)) for row, ta in zip(observed, t)]
    f = [max((ta for row, ta in rows if all(x <= ui for x, ui in zip(row, u))), default=0)
         for u in grid]
    out = []
    for v in vs:
        v = [scaled(x) for x in v]
        best = 0
        for u, fu in zip(grid, f):
            h = min((min(max(vi + eps - ui, 0), eps) for ui, vi in zip(u, v)), default=eps)
            best = max(best, h * fu)
        out.append(F(best, eps * tden))
    return out


def revalidate_ladder_reference(inst, witness) -> bool:
    """`stability.revalidate_ladder` on Fraction values, as it ran before ints.

    Kept as it was but for the empty witness, which satisfies its
    inequalities vacuously for every kind.
    """
    vals = inst.vals
    pairs = [(inst.x_index[a], inst.y_index[b]) for a, b in witness.pairs]
    eps = witness.epsilon
    n = len(pairs)
    if witness.kind == "antisym":
        return all(abs(vals[pairs[i][0]][pairs[j][1]] - vals[pairs[j][0]][pairs[i][1]]) >= eps
                   for i in range(n) for j in range(i + 1, n))
    if witness.kind == "order":
        r, s = witness.r, witness.s
        if r is None or s is None:
            return not pairs
        if r > s - eps:
            return False
        return all(vals[pairs[i][0]][pairs[j][1]] <= r and vals[pairs[j][0]][pairs[i][1]] >= s
                   for i in range(n) for j in range(i + 1, n))
    if witness.kind == "triple":
        return all(abs(vals[pairs[j][0]][pairs[i][1]] - vals[pairs[j][0]][pairs[k][1]]) >= eps
                   for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n))
    raise StructuralError(f"unknown ladder kind {witness.kind!r}")


def median_definition_reference(inst, epsilon, target, n_value=None) -> MedianDefinition:
    """`stability.median_definition` as it kept the family K before one set per witness.

    Every non-empty submask of each S_a goes into a first-witness table, and
    a candidate is rejected when a prefix position it does not move away
    from lies in one of the masks stored under some witness.
    """
    eps = F(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    xts, yts, vals = inst.xts, inst.yts, inst.vals
    t = _target_vector(inst, target)
    N = compute_N(inst, eps) if n_value is None else n_value
    if N < 2:
        raise DomainError("the ladder bound N is always at least 2")
    arity = 2 * N - 1

    witnesses: dict = {}  # index set (a bitmask over prefix positions) -> its first witness
    by_witness: dict = {}
    chosen: list = []
    for step in range(arity + 1):
        for a in range(len(yts)):
            S = 0
            size = 0
            for i, c in enumerate(chosen):
                if abs(t[a] - vals[c][a]) > eps:
                    S |= 1 << i
                    size += 1
            if size >= N:
                bits = tuple(i for i in range(len(chosen)) if S >> i & 1)
                raise DefinitionAbort("ladder-bound-exceeded", step=step, w=bits[:N],
                                      witness=inst.y_names[a])
            sub = S
            while sub:
                if sub not in witnesses:
                    witnesses[sub] = a
                    by_witness.setdefault(a, []).append(sub)
                sub = (sub - 1) & S
        if step == arity:
            break
        chosen_c = None
        for c in range(len(xts)):
            admissible = True
            for a, masks in by_witness.items():
                near = 0
                for i, ci in enumerate(chosen):
                    if abs(vals[ci][a] - vals[c][a]) <= eps:
                        near |= 1 << i
                if near and any(w & near for w in masks):
                    admissible = False
                    break
            if admissible:
                chosen_c = c
                break
        if chosen_c is None:
            raise DefinitionAbort("no-admissible-parameter", step=step)
        chosen.append(chosen_c)

    defined = tuple(sorted([vals[c][b] for c in chosen])[N - 1] for b in range(len(yts)))
    observed = max(abs(d - tv) for d, tv in zip(defined, t)) if defined else ZERO
    return MedianDefinition(eps, N, tuple(chosen), tuple(inst.x_names[c] for c in chosen),
                            t, observed, defined)


def monotone_parameters_reference(inst, epsilon, target):
    """`stability.monotone_parameters` by Fraction arithmetic, as it ran before ints.

    Each round rescans every parameter pair from the start and tries every
    x-tuple in carrier order against every record.
    """
    eps = F(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    xts, yts, vals = inst.xts, inst.yts, inst.vals
    t = _target_vector(inst, target)

    chosen: list = []
    records: list = []
    while True:
        violation = None
        for a in range(len(yts)):
            for b in range(len(yts)):
                if t[a] <= t[b] + 3 * eps:
                    continue
                if all(vals[c][a] <= vals[c][b] + eps for c in chosen):
                    violation = (a, b)
                    break
            if violation:
                break
        if violation is None:
            return chosen, records, t
        a, b = violation
        slack = (t[a] - t[b] - 3 * eps) / 3
        r = t[b] + slack
        s = r + 3 * eps + slack
        records.append((a, b, r, s))
        chosen_c = None
        for c in range(len(xts)):
            if all(vals[c][ai] > si and vals[c][bi] < ri for ai, bi, ri, si in records):
                chosen_c = c
                break
        if chosen_c is None:
            raise DefinitionAbort("no-admissible-parameter", step=len(records) - 1,
                                  pair=(inst.y_names[a], inst.y_names[b]))
        chosen.append(chosen_c)


def monotone_definition_reference(inst, epsilon, target) -> MonotoneDefinition:
    """`stability.monotone_definition` by Fraction arithmetic, as it ran before ints.

    g(v) multiplies h(u, v) by f(u) as Fractions at every candidate u.
    """
    eps = F(epsilon)
    chosen, records, t = monotone_parameters_reference(inst, eps, target)
    yts, vals = inst.yts, inst.vals
    n = len(chosen)

    observed = [tuple(vals[c][a] for c in chosen) for a in range(len(yts))]
    candidates = sorted({u for u in observed}
                        | {tuple(min(ui + eps, ONE) for ui in u) for u in observed})

    def f(u):
        best = ZERO
        for a in range(len(yts)):
            if all(vals[c][a] <= ui for c, ui in zip(chosen, u)):
                best = max(best, t[a])
        return best

    f_at = {u: f(u) for u in candidates}

    def h(u, v):
        if not u:
            return ONE
        return min(min(max(vi + eps - ui, ZERO), eps) for ui, vi in zip(u, v)) / eps

    def g(v):
        v = tuple(F(x) for x in v)
        if len(v) != n:
            raise StructuralError(f"g expects a {n}-tuple")
        return max((h(u, v) * f_at[u] for u in candidates), default=ZERO)

    errors = [abs(g(observed[a]) - t[a]) for a in range(len(yts))]
    bound = max(errors) if errors else ZERO
    if bound > 3 * eps:
        raise AssertionError("monotone-definition bound violated")
    return MonotoneDefinition(eps, tuple(chosen), tuple(inst.x_names[c] for c in chosen),
                              tuple(records), bound, tuple(candidates), g)


def phi_type_space_reference(inst) -> tuple:
    """(value rows, metric, realizers) of the realized phi-types by Fraction arithmetic.

    The code `stability.phi_type_space` ran before it worked on int rows.
    """
    xts, vals = inst.xts, inst.vals
    points: list = []
    realizers: list = []
    seen: dict = {}
    for xi in range(len(xts)):
        row = vals[xi]
        if row in seen:
            realizers[seen[row]].append(xi)
        else:
            seen[row] = len(points)
            points.append(row)
            realizers.append([xi])
    n = len(points)
    if points and points[0]:
        metric = tuple(
            tuple(max(abs(u - v) for u, v in zip(points[i], points[j]))
                  for j in range(n))
            for i in range(n))
    else:
        metric = tuple(tuple(ZERO for _ in range(n)) for _ in range(n))
    return tuple(points), metric, tuple(tuple(r) for r in realizers)


def imaginary_tables_reference(inst):
    """(classes, d_phi table, class-predicate table) by Fraction arithmetic.

    Classes are the parameter tuples with equal value columns, in order of
    first occurrence; d_phi is the sup over x-tuples of the column
    difference, as `imaginaries.build_imaginary` computed it before it
    worked on int columns.
    """
    xts, yts, vals = inst.xts, inst.yts, inst.vals
    columns = [tuple(vals[xi][yi] for xi in range(len(xts))) for yi in range(len(yts))]
    class_members: list = []
    column_to_class: dict = {}
    for yi, col in enumerate(columns):
        if col in column_to_class:
            class_members[column_to_class[col]].append(yi)
        else:
            column_to_class[col] = len(class_members)
            class_members.append([yi])
    representatives = [members[0] for members in class_members]

    def d_phi(ci: int, cj: int) -> F:
        a = columns[representatives[ci]]
        b = columns[representatives[cj]]
        return max(abs(u - v) for u, v in zip(a, b))

    def scaled(values: list) -> ScaledTable:  # over the least common denominator
        den = math.lcm(*(v.denominator for v in values))
        return ScaledTable(den, [v.numerator * (den // v.denominator) for v in values])

    n = len(class_members)
    metric = scaled([d_phi(i, j) for i in range(n) for j in range(n)])
    predicate = scaled([vals[xi][rep] for xi in range(len(xts)) for rep in representatives])
    return class_members, metric, predicate


# ---------------------------------------------------------------------------
# Continuity moduli on Fractions
#
# `values` held its piecewise-linear moduli as Fraction breakpoints before it
# moved them to int numerators over one denominator; this is that code, the
# reference the int code must reproduce: the same breakpoints, values,
# errors and messages.


def parse_rational_reference(text) -> F:
    """`values.parse_rational` as it read literals before the int parser."""
    if not isinstance(text, str):
        raise DomainError(f"rational literal {text!r} must be a string")
    s = text.strip()
    if "." in s:
        raise DomainError(f"decimal literal {text!r} rejected; use p/q")
    num, slash, den = s.partition("/")
    try:
        return F(int(num), int(den)) if slash else F(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational literal {text!r}") from exc


def pl_of(breakpoints) -> PLMonotone:
    """The int `PLMonotone` through rational (input, output) breakpoints."""
    pts = [(F(x), F(y)) for x, y in breakpoints]
    return PLMonotone.through((x.numerator, x.denominator, y.numerator, y.denominator)
                              for x, y in pts)


def normalize_breakpoints_reference(points):
    pts = [(F(x), F(y)) for x, y in points]
    if not pts or pts[0][0] != 0 or pts[-1][0] != 1:
        raise StructuralError("breakpoints must start at input 0 and end at input 1")
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if x1 <= x0:
            raise StructuralError("breakpoint inputs must be strictly increasing")
    for (_, y0), (_, y1) in zip(pts, pts[1:]):
        if y1 < y0:
            raise StructuralError("breakpoint outputs must be non-decreasing")
    for x, y in pts:
        ensure_unit(x)
        ensure_unit(y)
    # drop interior points that are collinear with their neighbours
    out = [pts[0]]
    for i in range(1, len(pts) - 1):
        (x0, y0), (x1, y1), (x2, y2) = out[-1], pts[i], pts[i + 1]
        if (y1 - y0) * (x2 - x0) == (y2 - y0) * (x1 - x0):
            continue
        out.append((x1, y1))
    out.append(pts[-1])
    return tuple(out)


@dataclass(frozen=True)
class FractionPL:
    """`values.PLMonotone` as Fraction breakpoints, normalized on construction."""

    breakpoints: tuple[tuple[F, F], ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints",
                           normalize_breakpoints_reference(self.breakpoints))

    @staticmethod
    def of(u: PLMonotone) -> "FractionPL":
        return FractionPL(u.breakpoints)

    def eval(self, x) -> F:
        x = ensure_unit(x)
        pts = self.breakpoints
        if x == pts[0][0]:
            return pts[0][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= x <= x1:
                return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
        raise AssertionError("unreachable: breakpoints cover [0,1]")

    def is_inverse_modulus(self) -> bool:
        return self.breakpoints[0][1] == 0

    def input_knots(self) -> list[F]:
        return [x for x, _ in self.breakpoints]


def pl_compose_reference(f: FractionPL, g: FractionPL) -> FractionPL:
    """Composition f(g(x)) as a FractionPL."""
    xs = set(g.input_knots())
    # preimages under g of f's knots make f∘g linear between candidates
    for b, _ in f.breakpoints:
        for (x0, y0), (x1, y1) in zip(g.breakpoints, g.breakpoints[1:]):
            if y0 < b < y1:
                xs.add(x0 + (b - y0) * (x1 - x0) / (y1 - y0))
    pts = sorted(xs)
    return FractionPL(tuple((x, f.eval(g.eval(x))) for x in pts))


def pl_capped_sum_reference(f: FractionPL, g: FractionPL) -> FractionPL:
    """min(f + g, 1) as a FractionPL."""
    xs = set(f.input_knots()) | set(g.input_knots())
    for x0, x1 in zip(sorted(xs), sorted(xs)[1:]):
        s0 = f.eval(x0) + g.eval(x0)
        s1 = f.eval(x1) + g.eval(x1)
        if s0 < 1 < s1:  # crossing of the cap inside the segment
            xs.add(x0 + (1 - s0) * (x1 - x0) / (s1 - s0))
    pts = sorted(xs)
    return FractionPL(tuple((x, min(f.eval(x) + g.eval(x), ONE)) for x in pts))


def pl_half_reference(f: FractionPL) -> FractionPL:
    return FractionPL(tuple((x, y / 2) for x, y in f.breakpoints))


def delta_from_inverse_reference(u: FractionPL):
    """Standard modulus delta(eps) = sup{t : u(t) <= eps} from an inverse one."""
    if not u.is_inverse_modulus():
        raise DomainError("inverse modulus must satisfy u(0) = 0")

    def delta(eps) -> F:
        e = ensure_unit(eps)
        if e == 0:
            raise DomainError("delta(eps) is only defined for eps > 0")
        best = ZERO
        for (x0, y0), (x1, y1) in zip(u.breakpoints, u.breakpoints[1:]):
            if y1 <= e:
                best = x1
            elif y0 <= e:  # then y0 <= e < y1, so the segment crosses e
                best = x0 + (e - y0) * (x1 - x0) / (y1 - y0)
        return best

    return delta


def u0_pieces_reference(delta: FractionPL):
    """Generalized inverse of delta as closed pieces (r0, t0, r1, t1) over the value axis."""
    bps = delta.breakpoints
    pieces = []
    d_first = bps[0][1]
    if d_first > 0:
        pieces.append((ZERO, ZERO, d_first, ZERO))
    for (e0, v0), (e1, v1) in zip(bps, bps[1:]):
        if v1 > v0:
            pieces.append((v0, e0, v1, e1))
    # u0(r) = 1 for every r >= delta(1); degenerate point piece when delta(1) = 1
    d_last = bps[-1][1]
    pieces.append((d_last, ONE, ONE, ONE))
    return pieces


def _envelope_components(delta: FractionPL):
    """u0's pieces and one ramp per anchor, with the base knots where any of them bends."""
    for _, y in delta.breakpoints[1:]:
        if y == 0:
            raise DomainError("delta must be positive on (0,1]")
    pieces = u0_pieces_reference(delta)

    def u0_at(r: F) -> F:
        best = ZERO
        for r0, t0, r1, t1 in pieces:
            if r0 <= r <= r1:
                t = t0 if r1 == r0 else t0 + (r - r0) * (t1 - t0) / (r1 - r0)
                best = max(best, t)
        return best

    anchors = sorted({r for piece in pieces for r in (piece[0], piece[2])} - {ZERO})
    components = [("seg", piece) for piece in pieces]
    for v in anchors:
        components.append(("ramp", (v, u0_at(v))))
    xs = {ZERO, ONE}
    for kind, data in components:
        if kind == "seg":
            xs.add(data[0])
            xs.add(data[2])
        else:
            xs.add(data[0] / 2)
            xs.add(data[0])
    return components, xs


def _component_at(comp, x: F):
    kind, data = comp
    if kind == "seg":
        r0, t0, r1, t1 = data
        if not (r0 <= x <= r1):
            return None
        return t0 if r1 == r0 else t0 + (x - r0) * (t1 - t0) / (r1 - r0)
    v, h = data
    if x <= v / 2:
        return ZERO
    if x >= v:
        return h
    return h * (2 * x / v - 1)


def _monotone_envelope(components, xs) -> FractionPL:
    def envelope(x: F) -> F:
        return max(v for v in (_component_at(c, x) for c in components) if v is not None)

    pts = [(x, envelope(x)) for x in sorted(xs)]
    for (_, y0), (_, y1) in zip(pts, pts[1:]):
        if y1 < y0:
            raise AssertionError("inverse_from_delta produced a non-monotone envelope")
    return FractionPL(tuple(pts))


def inverse_from_delta_reference(delta: FractionPL) -> FractionPL:
    """Inverse modulus from a standard one: u0's envelope with one ramp per anchor.

    The Fraction form of `values.inverse_from_delta`: one table of component
    values per base knot, and a crossing wherever two live components swap
    order strictly inside a base interval.
    """
    components, xs = _envelope_components(delta)
    base = sorted(xs)
    table = [[_component_at(c, x) for x in base] for c in components]
    for k, (x0, x1) in enumerate(zip(base, base[1:])):
        live = [(row[k], row[k + 1]) for row in table
                if row[k] is not None and row[k + 1] is not None]
        for i, (a0, a1) in enumerate(live):
            for b0, b1 in live[i + 1:]:
                if (a0 < b0 and b1 < a1) or (b0 < a0 and a1 < b1):
                    xs.add(x0 + (b0 - a0) * (x1 - x0) / ((a1 - a0) - (b1 - b0)))
    return _monotone_envelope(components, xs)


def inverse_from_delta_pairwise(delta: FractionPL) -> FractionPL:
    """`inverse_from_delta_reference` with the pairwise crossing scan it used to run.

    The same u0 pieces, ramps and base knots; then every pair of components
    is evaluated afresh at both ends of every base interval, and the
    crossing of the two lines is kept when it falls strictly inside.
    """
    components, xs = _envelope_components(delta)
    base = sorted(xs)
    for x0, x1 in zip(base, base[1:]):
        for i, c1 in enumerate(components):
            for c2 in components[i + 1:]:
                a0, a1 = _component_at(c1, x0), _component_at(c1, x1)
                b0, b1 = _component_at(c2, x0), _component_at(c2, x1)
                if None in (a0, a1, b0, b1):
                    continue
                num = (b0 - a0) * (x1 - x0)
                den = (a1 - a0) - (b1 - b0)
                if den != 0:
                    x = x0 + num / den
                    if x0 < x < x1:
                        xs.add(x)
    return _monotone_envelope(components, xs)


# ---------------------------------------------------------------------------
# The formula parser in stages
#
# `language.parse` resolves sorts while it reads.  Before, it parsed the text
# raw, collected the free variables' annotations, scanned the whole tree once
# per free variable and then rebuilt it top-down, scanning each quantifier's
# body again; this is that pipeline, the reference the one-pass parser must
# reproduce: an equal tree for every text it accepts, and for a text with one
# fault the same error and message.

_REF_KEYWORDS = {"sup", "inf", "not", "half", "min", "max", "med"}
_REF_PUNCT = ["-.", "+.", "(", ")", ",", ".", ":", "/", "|", "-"]


class _RefToken(NamedTuple):
    kind: str  # "int" | "ident" | punctuation literal
    text: str
    pos: int


def _ref_tokenize(text: str) -> list:
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
            toks.append(_RefToken("int", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_RefToken("ident", text[i:j], i))
            i = j
            continue
        for p in _REF_PUNCT:
            if text.startswith(p, i):
                toks.append(_RefToken(p, p, i))
                i += len(p)
                break
        else:
            raise GrammarError(f"unexpected character {c!r}", i)
    toks.append(_RefToken("eof", "", n))
    return toks


class _RawParser:
    """The grammar without sorts: variables keep only their annotations."""

    def __init__(self, text: str, sig):
        self.toks = _ref_tokenize(text)
        self.sig = sig
        self.i = 0

    def peek(self):
        return self.toks[min(self.i, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t.kind != kind:
            raise GrammarError(f"expected {kind!r}, found {t.text!r}", t.pos)
        return t

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
        if t.text in _REF_KEYWORDS:
            raise GrammarError(f"keyword {t.text!r} cannot be a variable", t.pos)
        if t.text in self.sig.functions:
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
        if t.kind == "ident" and t.text in ("not", "half"):
            self.next()
            return Op("neg" if t.text == "not" else "half", (self.prod(),))
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

    def rational(self) -> F:
        t = self.expect("int")
        num = int(t.text)
        if self.peek().kind == "/":
            self.next()
            den = int(self.expect("int").text)
            if den == 0:
                raise GrammarError("zero denominator", t.pos)
            return ensure_unit(F(num, den))
        return ensure_unit(F(num))

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


def _ref_children(f) -> tuple:
    """The subformulas of a formula node; atoms are leaves."""
    if isinstance(f, Op):
        return f.args
    if isinstance(f, Quant):
        return (f.body,)
    return ()


def _ref_free_vars(f) -> set:
    """(name, annotation or the value pseudo-sort) of each free variable of a raw tree."""
    if isinstance(f, Atom):
        out: set = set()
        stack = list(f.args)
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                out.add((t.name, t.sort))
            else:
                stack.extend(t.args)
        return out
    if isinstance(f, ValueVar):
        return {(f.name, "@value")}
    out = set().union(*map(_ref_free_vars, _ref_children(f)))
    if isinstance(f, Quant):
        out = {(n, s) for n, s in out if n != f.var}
    return out


def _ref_arg_sorts(symbol: str, args: tuple, decl) -> tuple:
    if len(args) != len(decl.arg_sorts):
        raise SortMismatchError(
            f"{symbol} expects {len(decl.arg_sorts)} arguments, got {len(args)}")
    return decl.arg_sorts


def _ref_scan_term(t, expected: str, name: str, sig, out: set) -> None:
    if isinstance(t, Var):
        if t.name == name:
            out.add(expected)
            if t.sort is not None:
                out.add(t.sort)
    else:
        for a, s in zip(t.args, _ref_arg_sorts(t.func, t.args, sig.func_decl(t.func))):
            _ref_scan_term(a, s, name, sig, out)


def _ref_resolve_var_sort(f, name: str, annotated, sig) -> str:
    constraints = {annotated}
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            for a, s in zip(node.args, _ref_arg_sorts(node.pred, node.args,
                                                      sig.pred_decl(node.pred))):
                _ref_scan_term(a, s, name, sig, constraints)
        elif not (isinstance(node, Quant) and node.var == name):
            stack.extend(reversed(_ref_children(node)))
    constraints.discard(None)
    if len(constraints) > 1:
        raise SortMismatchError(f"variable {name!r} used at sorts {sorted(constraints)}")
    if constraints:
        return constraints.pop()
    single = sig.single_sort()
    if single is not None:
        return single
    raise SortMismatchError(f"cannot infer the sort of variable {name!r}; annotate as {name}:S")


def _ref_fix_term(t, expected: str, sig, env: dict):
    if isinstance(t, Var):
        sort = env.get(t.name, expected)
        if t.sort is not None and t.sort != sort:
            raise SortMismatchError(f"variable {t.name!r}: declared {t.sort}, used at {sort}")
        if sort != expected:
            raise SortMismatchError(f"variable {t.name!r} of sort {sort} used at sort {expected}")
        return Var(t.name, sort)
    decl = sig.func_decl(t.func)
    sorts = _ref_arg_sorts(t.func, t.args, decl)
    if decl.target != expected:
        raise SortMismatchError(f"{t.func} has sort {decl.target}, used at sort {expected}")
    return App(t.func, tuple(_ref_fix_term(a, s, sig, env) for a, s in zip(t.args, sorts)),
               decl.target)


def _ref_attach_sorts(f, sig, env: dict):
    if isinstance(f, Atom):
        sorts = _ref_arg_sorts(f.pred, f.args, sig.pred_decl(f.pred))
        return Atom(f.pred, tuple(_ref_fix_term(a, s, sig, env) for a, s in zip(f.args, sorts)))
    if isinstance(f, Quant):
        sort = _ref_resolve_var_sort(f.body, f.var, f.sort, sig)
        return Quant(f.kind, f.var, sort, _ref_attach_sorts(f.body, sig, {**env, f.var: sort}))
    if isinstance(f, Op):
        return Op(f.op, tuple(_ref_attach_sorts(a, sig, env) for a in f.args), f.n)
    return f


def parse_reference(text: str, sig):
    """`language.parse` in stages: the raw parse, the annotation pass over the
    free variables, one whole-tree scan per free variable, and the top-down
    rebuild that scans each quantifier's body."""
    p = _RawParser(text, sig)
    raw = p.formula()
    if p.peek().kind != "eof":
        t = p.peek()
        raise GrammarError(f"trailing input {t.text!r}", t.pos)
    annotations: dict = {}
    for name, sort in _ref_free_vars(raw):
        if sort == "@value":
            continue
        if name in annotations:
            if sort is not None and annotations[name] is not None and sort != annotations[name]:
                raise SortMismatchError(f"variable {name!r} annotated at two sorts")
            annotations[name] = annotations[name] or sort
        else:
            annotations[name] = sort
    env = {name: _ref_resolve_var_sort(raw, name, annotations[name], sig)
           for name in sorted(annotations)}
    return _ref_attach_sorts(raw, sig, env)
