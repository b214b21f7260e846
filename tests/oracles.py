"""Independent oracles and generators shared by the test modules.

The evaluators here deliberately avoid the package's formula and structure
machinery: they compute expected values directly from raw definitions, so
agreement with the main code paths is meaningful.
"""

import itertools
import math
from fractions import Fraction as F
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from contlogic.errors import DefinitionAbort, DomainError, StructuralError
from contlogic.language import Atom, Const, Op, PredDecl, Quant, SortDecl, ValueVar, Var
from contlogic.stability import (
    LadderWitness,
    MonotoneDefinition,
    PhiTypeSpace,
    PhiTypeVector,
    _gap,
    _lowest_bit,
    _target_vector,
)
from contlogic.structures import (
    FiniteStructure,
    ScaledTable,
    ValidationReport,
    Violation,
    gen_halfgraph,
    phi_instance,
    tuple_names,
    value_matrix,
)
from contlogic.topometric import CBResult, FiniteTopometricSpace
from contlogic.values import (
    ONE,
    ZERO,
    PLMonotone,
    _u0_pieces,
    apply_connective,
    ensure_unit,
    format_rational,
    med,
)


class FractionTables(NamedTuple):
    """A structure's tables in the form the `FiniteStructure` constructor takes."""

    metric: dict  # sort -> n x n rows of Fractions
    functions: dict  # function -> {argument index tuple: carrier index}
    predicates: dict  # predicate -> {argument index tuple: Fraction}


def fraction_tables(M) -> FractionTables:
    """M's flat int tables read back as Fractions, cell by cell."""

    def arg_tuples(arg_sorts):
        return itertools.product(*(range(M.sizes[s]) for s in arg_sorts))

    metric = {s: tuple(tuple(M.distance(s, i, j) for j in range(n)) for i in range(n))
              for s, n in M.sizes.items()}
    functions = {name: dict(zip(arg_tuples(decl.arg_sorts), M.function_table[name]))
                 for name, decl in M.sig.functions.items()}
    predicates = {name: {args: M.pred_value(name, args) for args in arg_tuples(decl.arg_sorts)}
                  for name, decl in M.sig.predicates.items()}
    return FractionTables(metric, functions, predicates)


def glued_halfgraph(n):
    """Half-graph n with a discrete two-point sort E and psi(x, y) = phi(y, x), for gluing."""
    base = gen_halfgraph(n)
    ident = PLMonotone.identity()
    sig = base.sig.extended(sorts=[SortDecl("E", "d_E")],
                            predicates=[PredDecl("psi", ("V", "V"), (ident, ident))])
    carriers = dict(base.carriers)
    carriers["E"] = ["e0", "e1"]
    metric, _, predicates = fraction_tables(base)
    metric["E"] = [[F(0), F(1)], [F(1), F(0)]]
    size = len(base.carriers["V"])
    predicates["psi"] = {(i, j): predicates["phi"][(j, i)]
                         for i in range(size) for j in range(size)}
    return FiniteStructure(sig, carriers, metric, {}, predicates)


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
    stub = FiniteTopometricSpace(points, (frozenset(), frozenset(range(n))),
                                 tuple(tuple(row) for row in dists), ())
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
            nb = stub.closed_neighbourhood(A, eps)
            if nb not in fam:
                fam.add(nb)
                changed = True
    return FiniteTopometricSpace(points, tuple(sorted(fam, key=sorted)),
                                 tuple(tuple(row) for row in dists), (eps,)), eps


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


def pairwise_ladder_unpruned(M, phi, split, epsilon, kind, max_len=None) -> LadderWitness:
    """The antisym and order ladders by the unpruned pair search.

    `stability.find_ladder` as it was before its bitset DFS: every pair is
    tried at every position and `admits` rescans the stack, so it finishes
    only on small inputs or with a small max_len.
    """
    eps = F(epsilon)
    inst = phi_instance(M, phi, split)
    xts, yts, num = inst.xts, inst.yts, inst.num
    nx, ny = len(xts), len(yts)
    gap = _gap(eps, inst.scale)

    def names(pairs):
        return tuple((tuple_names(M, split.x, xts[a]), tuple_names(M, split.y, yts[b]))
                     for a, b in pairs)

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
        return M.pred_value(f.pred, tuple(eval_term_reference(M, env, t) for t in f.args))
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
                     lambda args, name=name: M.pred_value(name, args),
                     False)
    return ValidationReport(out)


# ---------------------------------------------------------------------------
# Cantor-Bendixson ranks on frozensets and Fractions


def _diameter(X, subset) -> F:
    pts = list(subset)
    if len(pts) < 2:
        return F(0)
    return max(X.metric[p][q] for p in pts for q in pts)


def cb_derivative_reference(X, subset: frozenset, epsilon) -> frozenset:
    eps = ensure_unit(epsilon)
    subset = frozenset(subset)
    result = subset
    for C in X.closed_sets:
        G = C & subset
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
    """`values.apply_connective`, plus the nullary `const` that returns its payload."""
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
            if M.pred_value(name, mapped) != value:
                return False
    return True


def monotone_sup_on_grid(defn, M, phi, split, target, vs: Sequence[Sequence[F]],
                         pitch: F) -> list:
    """The monotone definition's sup over a full u-grid of the given pitch, at each v of vs.

    f(u) is computed once per grid point.  h(u, v) * f(u) is compared as
    ints: u, v and eps over one common denominator, the target over its own.
    """
    _, yts, vals = value_matrix(M, phi, split)
    t = _target_vector(M, split, yts, target).values
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


def revalidate_ladder_reference(M, phi, split, witness) -> bool:
    """`stability.revalidate_ladder` on Fraction values, as it ran before ints.

    Kept as it was but for the empty witness, which satisfies its
    inequalities vacuously for every kind.
    """
    xts, yts, vals = value_matrix(M, phi, split)
    x_index = {tuple_names(M, split.x, t): i for i, t in enumerate(xts)}
    y_index = {tuple_names(M, split.y, t): i for i, t in enumerate(yts)}
    pairs = [(x_index[a], y_index[b]) for a, b in witness.pairs]
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


def monotone_parameters_reference(M, phi, split, epsilon, target):
    """`stability.monotone_parameters` by Fraction arithmetic, as it ran before ints.

    Each round rescans every parameter pair from the start and tries every
    x-tuple in carrier order against every record.
    """
    eps = F(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    xts, yts, vals = value_matrix(M, phi, split)
    tgt = _target_vector(M, split, yts, target)
    t = tgt.values

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
            return chosen, records, tgt
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
                                  pair=(tuple_names(M, split.y, yts[a]),
                                        tuple_names(M, split.y, yts[b])))
        chosen.append(chosen_c)


def monotone_definition_reference(M, phi, split, epsilon, target) -> MonotoneDefinition:
    """`stability.monotone_definition` by Fraction arithmetic, as it ran before ints.

    g(v) multiplies h(u, v) by f(u) as Fractions at every candidate u.
    """
    eps = F(epsilon)
    chosen, records, tgt = monotone_parameters_reference(M, phi, split, eps, target)
    xts, yts, vals = value_matrix(M, phi, split)
    t = tgt.values
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
    return MonotoneDefinition(eps, tuple(chosen),
                              tuple(tuple_names(M, split.x, xts[c]) for c in chosen),
                              tuple(records), bound, tuple(candidates), g)


def phi_type_space_reference(M, phi, split) -> PhiTypeSpace:
    """Realized phi-types and their sup-difference metric by Fraction arithmetic.

    The code `stability.phi_type_space` ran before it worked on int rows.
    """
    xts, yts, vals = value_matrix(M, phi, split)
    points: list = []
    realizers: list = []
    seen: dict = {}
    for xi in range(len(xts)):
        row = vals[xi]
        if row in seen:
            realizers[seen[row]].append(xi)
        else:
            seen[row] = len(points)
            points.append(PhiTypeVector(row, realizer=xi))
            realizers.append([xi])
    n = len(points)
    if points and points[0].values:
        metric = tuple(
            tuple(max(abs(u - v) for u, v in zip(points[i].values, points[j].values))
                  for j in range(n))
            for i in range(n))
    else:
        metric = tuple(tuple(ZERO for _ in range(n)) for _ in range(n))
    return PhiTypeSpace(tuple(points), metric, tuple(tuple(r) for r in realizers))


def imaginary_tables_reference(M, phi, split):
    """(classes, d_phi table, class-predicate table) by Fraction arithmetic.

    Classes are the parameter tuples with equal value columns, in order of
    first occurrence; d_phi is the sup over x-tuples of the column
    difference, as `imaginaries.build_imaginary` computed it before it
    worked on int columns.
    """
    xts, yts, vals = value_matrix(M, phi, split)
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

    n = len(class_members)
    metric = ScaledTable.of(d_phi(i, j) for i in range(n) for j in range(n))
    predicate = ScaledTable.of(vals[xi][rep] for xi in range(len(xts)) for rep in representatives)
    return class_members, metric, predicate


# ---------------------------------------------------------------------------
# Continuity moduli


def inverse_from_delta_reference(delta: PLMonotone) -> PLMonotone:
    """`values.inverse_from_delta` with the pairwise crossing scan it used to run.

    The same u0 pieces, ramps and base knots; then every pair of components
    is evaluated afresh at both ends of every base interval, and the
    crossing of the two lines is kept when it falls strictly inside.
    """
    for _, y in delta.breakpoints[1:]:
        if y == 0:
            raise DomainError("delta must be positive on (0,1]")
    pieces = _u0_pieces(delta)

    def u0_at(r: F) -> F:
        best = ZERO
        for r0, t0, r1, t1 in pieces:
            if r0 <= r <= r1:
                t = t0 if r1 == r0 else t0 + (r - r0) * (t1 - t0) / (r1 - r0)
                best = max(best, t)
        return best

    anchors = sorted({r for piece in pieces for r in (piece[0], piece[2])} - {ZERO})
    # components of the envelope: u0's pieces plus one ramp per anchor
    components = [("seg", piece) for piece in pieces]
    for v in anchors:
        components.append(("ramp", (v, u0_at(v))))

    def comp_eval(comp, x: F):
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

    xs = {ZERO, ONE}
    for kind, data in components:
        if kind == "seg":
            xs.add(data[0])
            xs.add(data[2])
        else:
            xs.add(data[0] / 2)
            xs.add(data[0])
    # crossings between component pairs refine the envelope grid
    base = sorted(xs)
    for x0, x1 in zip(base, base[1:]):
        for i, c1 in enumerate(components):
            for c2 in components[i + 1:]:
                a0, a1 = comp_eval(c1, x0), comp_eval(c1, x1)
                b0, b1 = comp_eval(c2, x0), comp_eval(c2, x1)
                if None in (a0, a1, b0, b1):
                    continue
                num = (b0 - a0) * (x1 - x0)
                den = (a1 - a0) - (b1 - b0)
                if den != 0:
                    x = x0 + num / den
                    if x0 < x < x1:
                        xs.add(x)

    def envelope(x: F) -> F:
        vals = [v for v in (comp_eval(c, x) for c in components) if v is not None]
        return max(vals)

    pts = [(x, envelope(x)) for x in sorted(xs)]
    for (_, y0), (_, y1) in zip(pts, pts[1:]):
        if y1 < y0:
            raise AssertionError("inverse_from_delta produced a non-monotone envelope")
    return PLMonotone(tuple(pts))
