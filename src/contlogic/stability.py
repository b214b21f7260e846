"""Local stability machinery at finite scale.

Every finite structure is stable in the infinite-sequence sense, so the
quantities reported here are the honest finite data: longest ladders of the
three kinds, the bound N(phi, eps) from the triple condition, median-value
definitions of phi-types with their verified error, monotone definitions
with the 3-eps bound, staged definitions combined through forced limits,
and the two-formula gluing combination.

All searches are deterministic: candidates are tried in carrier order and
the first witness of each strictly better length is kept, so the reported
witness is the lexicographically least maximal one in the documented
exploration order (pair order for the antisymmetric and order kinds,
parameter-sequence order for the triple kind).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import DefinitionAbort, DomainError, StructuralError
from .language import Atom, Op, Var, free_vars
from .structures import PhiInstance, equal_classes, fraction_rows, sup_distances
from .values import ZERO, Frozen, flim_prefix


# ---------------------------------------------------------------------------
# Phi-types and their metric space


class PhiTypeVector(NamedTuple):
    """A phi-type over M as its exact value vector b -> phi(a, b).

    `values` is indexed by the parameter-tuple enumeration of the split;
    `realizer` is the witnessing x-tuple index when the type is realized.
    """

    values: tuple[Fraction, ...]
    realizer: Optional[int] = None


class PhiTypeSpace(NamedTuple):
    """The realized phi-types as distinct int value rows over `scale`, with their sup-distances."""

    scale: int
    rows: tuple[tuple[int, ...], ...]
    distances: list[list[int]]
    realizers: tuple[tuple[int, ...], ...]  # x-tuple indices realizing each row


def phi_type(inst: PhiInstance, xi: int) -> PhiTypeVector:
    """The phi-type of the x-tuple at index `xi`: its values at every parameter."""
    return PhiTypeVector(fraction_rows([inst.num[xi]], inst.scale)[0], realizer=xi)


def phi_type_space(inst: PhiInstance) -> PhiTypeSpace:
    """Realized phi-types: the `equal_classes` of the rows, with the sup-difference metric."""
    realizers = equal_classes(inst.num)
    rows = tuple(inst.num[members[0]] for members in realizers)
    return PhiTypeSpace(inst.scale, rows, sup_distances(rows), tuple(map(tuple, realizers)))


# ---------------------------------------------------------------------------
# Ladder searches


class LadderWitness(Frozen):
    """A ladder with the exact inequalities it satisfies, re-checkable from names.

    Its length is the number of pairs (a NamedTuple's length is its field count).
    """

    __slots__ = ("kind", "epsilon", "pairs", "r", "s", "at_searched_bound")

    def __init__(self, kind: str, epsilon: Fraction,
                 pairs: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...],
                 r: Optional[Fraction] = None, s: Optional[Fraction] = None,
                 at_searched_bound: bool = False):
        object.__setattr__(self, "kind", kind)  # "antisym" | "order" | "triple"
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "at_searched_bound", at_searched_bound)

    def __len__(self) -> int:
        return len(self.pairs)


def revalidate_ladder(inst: PhiInstance, witness: LadderWitness) -> bool:
    """Re-check the stored inequalities of a witness on the exact values.

    The values are compared as ints over the instance's scale, against the
    integer thresholds that eps, r and s put on it.  An empty witness
    satisfies its inequalities vacuously, for every kind.
    """
    num, scale = inst.num, inst.scale
    pairs = [(inst.x_index[a], inst.y_index[b]) for a, b in witness.pairs]
    eps = Fraction(witness.epsilon)
    gap = _gap(eps, scale)
    if witness.kind == "antisym":
        return all(abs(num[pairs[i][0]][pairs[j][1]] - num[pairs[j][0]][pairs[i][1]]) >= gap
                   for i in range(len(pairs)) for j in range(i + 1, len(pairs)))
    if witness.kind == "order":
        if witness.r is None or witness.s is None:
            return not pairs
        r, s = Fraction(witness.r), Fraction(witness.s)
        if r > s - eps:
            return False
        at_most_r = r.numerator * scale // r.denominator  # the greatest k with k / scale <= r
        at_least_s = _gap(s, scale)
        return all(num[pairs[i][0]][pairs[j][1]] <= at_most_r
                   and num[pairs[j][0]][pairs[i][1]] >= at_least_s
                   for i in range(len(pairs)) for j in range(i + 1, len(pairs)))
    if witness.kind == "triple":
        return all(abs(num[pairs[j][0]][pairs[i][1]] - num[pairs[j][0]][pairs[k][1]]) >= gap
                   for i in range(len(pairs))
                   for j in range(i + 1, len(pairs))
                   for k in range(j + 1, len(pairs)))
    raise StructuralError(f"unknown ladder kind {witness.kind!r}")


def find_ladder(inst: PhiInstance, epsilon, kind: str,
                max_len: Optional[int] = None) -> LadderWitness:
    """Longest ladder of the requested kind, up to max_len when given.

    antisym: |phi(a_i,b_j) - phi(a_j,b_i)| >= eps for i < j.
    order:   phi(a_i,b_j) <= r and phi(a_j,b_i) >= s for i < j, where the
             pair (r, s) with r <= s - eps is chosen among observed values.
    triple:  |phi(a_j,b_i) - phi(a_j,b_k)| >= eps for i < j < k.

    Pairs (a, b) are numbered a * |y-tuples| + b.  The antisym and order
    witnesses are the first longest pair sequences of a DFS that tries pairs
    in that order at every position; the order kind keeps the first (r, s)
    in value order with a strictly longer ladder.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    if max_len is not None and max_len < 1:
        raise DomainError("max-len must be at least 1")
    num = inst.num
    nx, ny = len(inst.xts), len(inst.yts)
    gap = _gap(eps, inst.scale)

    def names(pairs):
        return tuple((inst.x_names[a], inst.y_names[b]) for a, b in pairs)

    def as_pairs(seq):
        return [divmod(p, ny) for p in seq]

    values = sorted(set().union(*num))
    if kind == "antisym":
        # The condition is symmetric in i and j and fails for i == j, so a
        # ladder is a clique of pairs and every reordering of it is one too.
        # The DFS meets sequences in lexicographic order, so its first
        # longest sequence is sorted: searching increasing pair numbers,
        # with the compatible q > p after p, returns the same witness.
        far_cols = [{v: _bits(abs(w - v) >= gap for w in row) for v in values} for row in num]

        def compatible(p):
            a, b = divmod(p, ny)
            return _pair_row(num, ny, far_cols[a], b)

        def after(p):
            return compatible(p) >> (p + 1) << (p + 1)

        seq, bounded = _longest_chain(nx * ny, after, compatible, max_len, 0)
        return LadderWitness("antisym", eps, names(as_pairs(seq)), at_searched_bound=bounded)

    if kind == "order":
        best_seq: list = []
        best_rs = (None, None)
        for r in values:
            at_most_r = [_bits(w <= r for w in row) for row in num]
            for s in values:
                if s - r < gap or max_len is not None and len(best_seq) >= max_len:
                    continue  # no later (r, s) can beat a ladder of length max_len
                # q = (c, d) may follow p = (a, b) iff phi(a, d) <= r and phi(c, b) >= s
                # and p may follow q iff phi(c, b) <= r and phi(a, d) >= s
                at_least_s = [_bits(w >= s for w in row) for row in num]
                later = [{v: low if v >= s else 0 for v in values} for low in at_most_r]
                earlier = [{v: high if v <= r else 0 for v in values} for high in at_least_s]

                def after(p, later=later):
                    a, b = divmod(p, ny)
                    return _pair_row(num, ny, later[a], b)

                def adjacent(p, later=later, earlier=earlier):
                    a, b = divmod(p, ny)
                    return _pair_row(num, ny, later[a], b) | _pair_row(num, ny, earlier[a], b)

                seq, _ = _longest_chain(nx * ny, after, adjacent, max_len, len(best_seq))
                if len(seq) > len(best_seq):
                    best_rs = (Fraction(r, inst.scale), Fraction(s, inst.scale))
                    best_seq = seq
        bounded = max_len is not None and len(best_seq) >= max_len
        return LadderWitness("order", eps, names(as_pairs(best_seq)),
                             r=best_rs[0], s=best_rs[1], at_searched_bound=bounded)

    if kind == "triple":
        seq, bounded = _longest_triple_sequence(num, inst.scale, nx, ny, eps, max_len)
        return LadderWitness("triple", eps, names(seq), at_searched_bound=bounded)

    raise StructuralError(f"unknown ladder kind {kind!r}")


def _bits(flags) -> int:
    """The bitset with bit i set for each true flags[i]."""
    return sum(1 << i for i, flag in enumerate(flags) if flag)


def _pair_row(num, ny, table, b):
    """The pairs (c, d) with d in table[phi(c, b)], as a bitset.

    Pair (c, d) is bit c * ny + d, so each row c contributes one shifted
    column bitset.
    """
    mask = 0
    for c, row in enumerate(num):
        mask |= table[row[b]] << (c * ny)
    return mask


def _longest_chain(n, after, adjacent, max_len, floor):
    """First longest sequence p_0, p_1, ... of elements 0..n-1 with p_j after p_i for i < j.

    `after(p)` is the bitset of the q allowed anywhere after p, and
    `adjacent(p)` that of the q allowed after p or with p allowed after
    them; p is in neither.  `after` is called once per node; the sets of
    `adjacent` are kept for the call once built, and are built only for
    the vertices a bound colours, so a search that ends early on a large
    input holds few of them.  The DFS tries the allowed q in increasing
    order at every position, stops at max_len when given, and keeps the
    first sequence of each strictly greater length, but only those longer
    than `floor`; it returns [] when there is none.  The flag says a
    sequence of length max_len was found: it is exactly
    `max_len is not None and len(best) >= max_len`.

    The DFS is a loop over a list of frames, one [candidates, untried
    candidates, last element of the prefix] per node on the current path,
    the root first, so the prefix of a node is read off the frames.

    Bound.  The candidates of a node are the q allowed after every element
    of its prefix.  Every later element is one of them and any two later
    elements are adjacent, so they form a clique inside the candidates.
    A node whose prefix length plus a bound on such cliques
    (`_cliques_at_most`) is not above the best length so far cannot yield
    a longer sequence, nor one of length max_len (the search ends once it
    has one), so cutting it changes neither the result nor the flag.  The
    bound is checked on entry to a node, and the number of candidates
    alone again before each later child.
    """
    built: list = [None] * n
    best: list = []
    target = floor  # a sequence must be longer than this to be kept

    def neighbours(p):
        if built[p] is None:
            built[p] = adjacent(p)
        return built[p]

    root = (1 << n) - 1
    frames = [] if _cliques_at_most(root, neighbours, target) else [[root, root, None]]
    while frames:
        frame = frames[-1]
        cand, rest, _ = frame
        depth = len(frames) - 1
        if not rest or cand.bit_count() <= target - depth:
            frames.pop()
            continue
        low = rest & -rest
        frame[1] = rest ^ low
        p = low.bit_length() - 1
        if depth + 1 > target:
            best, target = [f[2] for f in frames[1:]] + [p], depth + 1
            if max_len is not None and target >= max_len:
                break
        child = cand & after(p)
        if not _cliques_at_most(child, neighbours, target - depth - 1):
            frames.append([child, child, p])
    return best, max_len is not None and len(best) >= max_len


def _gap(eps: Fraction, scale: int) -> int:
    """The least int k with k / scale >= eps.

    Ints over `scale` differ by at least eps exactly when they differ by at
    least k, and an int over `scale` is at least eps exactly when it is at
    least k.
    """
    return -(-eps.numerator * scale // eps.denominator)


def _longest_triple_sequence(num, scale, nx, ny, eps, max_len):
    """Longest sequence for the triple condition (*).

    Only the parameter components b_t are branched on: the condition couples
    a_j solely at its own middle position j, so a per-position feasible set
    of witnesses a_j is maintained and narrowed as the sequence grows.
    The search visits valid sequences in lexicographic order (every prefix
    of a valid sequence is valid) and keeps the first one of each strictly
    greater length, so it returns the lexicographically least longest one,
    or the least one of length max_len.  The flag says one of length
    max_len was found: it is exactly `max_len is not None and len(seq) >=
    max_len`.  The DFS is a loop over a list of frames, one per node on
    the current path whose children are not all tried.

    Column classes.  Parameters b, c with equal columns (phi(a, b) =
    phi(a, c) for every a) are interchangeable: swapping one for the other
    anywhere in a sequence changes no comparison, no feasible set and no
    witness.  So the least sequence of any length uses only the lowest index
    of each class, and only those representatives are branched on; the
    classes are `equal_classes` of the columns, numbered by first appearance.

    Sets of x-tuple indices are int bitsets, bit a standing for x-tuple a.
    `far[k][l]` is the set of a with |phi(a, b) - phi(a, c)| >= eps for the
    representatives b, c of classes k, l, built once per call; it is the
    only place values are compared.  Appending b to the prefix b_0 ..
    b_{m-1} narrows middle position j to feasible[j] & far[b][b_0] & ... &
    far[b][b_{j-1}], one running AND over the prefix.  The lowest set bit,
    the first a in carrier order, is reported for each position.

    Bound.  Call b, c far somewhere when far[b][c] is not empty, and let
    nbr[b] be the classes far somewhere from b.

    1. If i + 2 <= k, taking j = i + 1 shows that some a is in
       far[b_k][b_i], so b_i and b_k are far somewhere (and so in
       different classes).
    2. So at a node with prefix b_0 .. b_{m-1}, every later position
       k >= m lies in C = nbr[b_0] & ... & nbr[b_{m-2}] (all classes when
       m < 2).  It also lies in the set V of classes that can be appended
       to the prefix: deleting positions m .. k-1 leaves a valid sequence,
       since each middle witness a_j of the longer sequence still meets
       every remaining condition.  V is within C, because a class outside C
       fails the middle position j = i + 1 for some i <= m - 2.
    3. Later positions of one parity are pairwise at least 2 apart, so by
       1 they form a clique of the far-somewhere graph inside V.  A clique
       meets each colour class of a proper colouring at most once.  So for
       every set S of classes containing V, with c(S) the size of S or the
       number of colours of its greedy colouring (`_cliques_at_most`), every
       extension of the prefix has

           length <= m + 2 * c(S).

    A node where this is at most the best length so far cannot yield a
    strictly longer sequence, nor one of length max_len (the search ends as
    soon as it has one), so cutting it changes neither the result nor the
    bounded flag.  The bound is checked on entry with S = the node's
    candidates: all classes at the root, and below it the parent's V &
    nbr[b_{m-2}], which contains V by 1 and 2 and lies within C.  It is
    checked again with S = V once the children are known and, before each
    later child, whenever the best length rose; only V is branched on.
    """
    gap = _gap(eps, scale)
    reps = [members[0] for members in equal_classes(zip(*num) if nx else [()] * ny)]
    nc = len(reps)
    far = [[0] * nc for _ in range(nc)]
    for a, row in enumerate(num):
        bit = 1 << a
        for k in range(nc):
            v = row[reps[k]]
            far_k = far[k]
            for l in range(k + 1, nc):
                if abs(v - row[reps[l]]) >= gap:
                    far_k[l] |= bit
                    far[l][k] |= bit
    nbr = [_bits(far_k) for far_k in far]
    far_somewhere = nbr.__getitem__
    everything = (1 << nx) - 1
    best_bs: list = []
    best_feasible: list = []
    # one frame per node on the path whose children are not all tried:
    # [prefix, valid classes, child candidates, untried children, best length at the last check]
    frames: list = []
    # the node to open next: its prefix, the x-tuples usable at each of its
    # positions, and a superset of the classes that can be appended to it
    bs, feasible, cand = [], [], (1 << nc) - 1
    while max_len is None or len(best_bs) < max_len:
        m = len(bs)
        if not _cliques_at_most(cand, far_somewhere, (len(best_bs) - m) // 2):
            children = []  # (class, feasible sets after appending it), the last class first
            valid = 0
            rest = cand
            while rest:
                b = rest.bit_length() - 1
                low = 1 << b
                rest ^= low
                far_b = far[b]
                new_feasible = feasible[:1]
                acc = far_b[bs[0]] if bs else 0
                for j in range(1, m):
                    allowed = feasible[j] & acc
                    if not allowed:
                        break
                    new_feasible.append(allowed)
                    acc &= far_b[bs[j]]
                else:
                    new_feasible.append(everything)  # the new last position, unconstrained so far
                    children.append((b, new_feasible))
                    valid |= low
            if not _cliques_at_most(valid, far_somewhere, (len(best_bs) - m) // 2):
                frames.append([bs, valid, valid & nbr[bs[-1]] if bs else valid, children,
                               len(best_bs)])
        while frames:  # drop the frames with no child left or cut since the best length rose
            frame = frames[-1]
            bs, valid, cand, children, last = frame
            if children and (len(best_bs) == last or not _cliques_at_most(
                    valid, far_somewhere, (len(best_bs) - len(bs)) // 2)):
                break
            frames.pop()
        if not frames:
            break
        frame[4] = len(best_bs)
        b, feasible = children.pop()  # the least class not tried yet
        bs = bs + [b]
        if len(bs) > len(best_bs):
            best_bs, best_feasible = bs, feasible
    seq = [(_lowest_bit(best_feasible[j]) if 0 < j < len(best_bs) - 1 else 0, reps[k])
           for j, k in enumerate(best_bs)]
    return seq, max_len is not None and len(best_bs) >= max_len


def _cliques_at_most(cand: int, adjacent, size: int) -> bool:
    """True when no clique inside the vertex set `cand` can have more than `size` vertices.

    `adjacent(v)` is the bitset of the neighbours of v in a graph without
    loops.  The proof is the number of vertices or a greedy colouring with
    at most `size` colours: each colour class is grown from the lowest
    uncoloured vertex, adding every later one not adjacent to those already
    taken, so the classes are independent and a clique meets each of them
    at most once.  False means neither proof holds; the colouring stops
    once it needs more than `size` classes, so it asks for the neighbours
    of few vertices when `size` is small.
    """
    if cand.bit_count() <= size:
        return True
    colours = 0
    while cand:
        if colours >= size:
            return False
        colours += 1
        free = cand
        while free:
            low = free & -free
            cand ^= low
            free &= ~adjacent(low.bit_length() - 1) & ~low
    return True


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def compute_N(inst: PhiInstance, epsilon) -> int:
    """Minimal N such that no length-(N+1) sequence satisfies the triple condition.

    Computed relative to M by exhaustive search; length-2 sequences satisfy
    the condition vacuously, so the result is always at least 2.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    if not inst.xts or not inst.yts:
        raise DomainError("empty structure")
    seq, _ = _longest_triple_sequence(inst.num, inst.scale, len(inst.xts), len(inst.yts),
                                      eps, None)
    return max(len(seq), 2)


# ---------------------------------------------------------------------------
# Median-value definitions


class MedianDefinition(NamedTuple):
    """2N-1 parameters whose median of phi-instances tracks a target vector."""

    epsilon: Fraction
    n_value: int
    parameters: tuple  # x-tuple indices, in choice order
    parameter_names: tuple
    target: PhiTypeVector
    observed_error: Fraction
    defined_values: tuple[Fraction, ...]


def _target_vector(inst: PhiInstance, target) -> PhiTypeVector:
    """The target as a PhiTypeVector with one value in [0, 1] per parameter tuple."""
    tgt = target if isinstance(target, PhiTypeVector) else PhiTypeVector(
        tuple(Fraction(v) for v in target))
    if len(tgt.values) != len(inst.yts):
        raise StructuralError("target vector length does not match the parameter carrier")
    for b, v in enumerate(tgt.values):
        if not 0 <= v <= 1:
            name = ",".join(inst.y_names[b])
            raise DomainError(f"target value {v} at parameter {name!r} is outside [0, 1]")
    return tgt


def median_definition(inst: PhiInstance, epsilon, target,
                      n_value: Optional[int] = None) -> MedianDefinition:
    """Constructive median-value definition of a target vector within eps.

    Runs the 2N-1 step loop with N = compute_N (which `n_value` may supply
    precomputed), choosing parameters c_i.  S_a is the set of prefix
    positions i with |target(a) - phi(c_i, a)| > eps; `seen` holds the sets
    S_a that no earlier set contained, and `kept[a]` the last such S_a.
    Each step picks the first c in carrier order that is admissible: for
    each kept (a, S), c moves by more than eps at a against every c_i with
    i in S.  Aborts when some S_a reaches size N (the target is
    inconsistent with the ladder bound) or no admissible c exists (the
    target is not realizable from M).  For targets realized in M the
    realizer is admissible at every step, so the construction always
    succeeds.  On success the verified bound
    max_b |med_N(phi(c_i, b)) - target(b)| <= eps is exact.

    This is the construction's test against its family K: every non-empty
    subset w of an S_a, stored under its first witness a, rejects the c
    that are near (within eps of) some c_i, i in w, at a.
    1. That test rejects c at a iff a near position lies in U[a], the
       union of the w stored under a.
    2. A subset of S_a is stored iff no earlier set contains it, so S_a
       stores sets only when S_a itself is new, and U[a] then contains S_a.
    3. S_a only grows as the prefix grows, so U[a] is the last new S_a:
       `kept[a] = S` is exact, not `|=`.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    xts, yts, vals = inst.xts, inst.yts, inst.vals
    tgt = _target_vector(inst, target)
    t = tgt.values
    N = compute_N(inst, eps) if n_value is None else n_value
    if N < 2:
        raise DomainError("the ladder bound N is always at least 2")
    arity = 2 * N - 1

    seen: list[int] = []  # bitmasks over positions of the chosen prefix
    kept: dict[int, int] = {}
    chosen: list[int] = []
    for step in range(arity + 1):
        for a in range(len(yts)):
            S = _bits(abs(t[a] - vals[c][a]) > eps for c in chosen)
            if S.bit_count() >= N:
                w = tuple(i for i in range(len(chosen)) if S >> i & 1)[:N]
                raise DefinitionAbort("ladder-bound-exceeded", step=step, w=w,
                                      witness=inst.y_names[a])
            if S and all(S & ~T for T in seen):
                seen.append(S)
                kept[a] = S
        if step == arity:
            break
        chosen_c = next((c for c in range(len(xts))
                         if all(abs(vals[ci][a] - vals[c][a]) > eps for a, S in kept.items()
                                for i, ci in enumerate(chosen) if S >> i & 1)), None)
        if chosen_c is None:
            raise DefinitionAbort("no-admissible-parameter", step=step)
        chosen.append(chosen_c)

    defined = tuple(sorted([vals[c][b] for c in chosen])[N - 1] for b in range(len(yts)))
    observed = max(abs(d - tv) for d, tv in zip(defined, t)) if defined else ZERO
    if observed > eps:
        raise AssertionError("median bound violated despite passing the ladder checks")
    return MedianDefinition(eps, N, tuple(chosen), tuple(inst.x_names[c] for c in chosen),
                            tgt, observed, defined)


# ---------------------------------------------------------------------------
# Monotone definitions (stability inside a single structure)


class MonotoneDefinition(NamedTuple):
    """Monotone combination of phi-instances tracking a target within 3*eps."""

    epsilon: Fraction
    parameters: tuple  # x-tuple indices
    parameter_names: tuple
    records: tuple  # (a_idx, b_idx, r, s) per violation round
    observed_error: Fraction
    candidates: tuple  # u-tuples the sup runs over
    evaluate: Callable[[Sequence[Fraction]], Fraction]


def _monotone_scale(scale: int, eps: Fraction, t) -> tuple:
    """One int scale L for the value matrix, the target t and eps.

    L is 3 times the lcm of `scale`, eps's denominator and t's denominators.
    Returns (L, k, T, E): a value-matrix numerator times k, T[b] and E are
    the numerators over L of phi, t[b] and eps.  T and E are multiples of 3,
    so the thirds of the violation slack are ints over L too.
    """
    L = 3 * math.lcm(scale, eps.denominator, *(v.denominator for v in t))
    return (L, L // scale, [v.numerator * (L // v.denominator) for v in t],
            eps.numerator * (L // eps.denominator))


def monotone_parameters(inst: PhiInstance, epsilon, target):
    """Parameter list from the violation-elimination loop, with its records.

    Repeatedly find parameters (a, b) where every chosen c has
    phi(c, a) <= phi(c, b) + eps yet target(a) > target(b) + 3*eps; split
    the gap into thirds to place the thresholds r < r + 3*eps < s strictly
    inside (target(b), target(a)), then take the first c in carrier order
    with phi(c, a_i) > s_i and phi(c, b_i) < r_i for every record.  Each
    round permanently eliminates its violating pair, so at most |M|^2
    rounds occur.

    Values are compared as ints over the scale of `_monotone_scale`; the
    records hold r and s as Fractions.  A pair stops being a violation for
    good once a chosen c separates it, and the new c separates the pair of
    its round, so the scan for the next violation resumes after it; the c
    admissible for every record so far are kept as one bitset.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    num = inst.num
    tgt = _target_vector(inst, target)
    L, k, T, E = _monotone_scale(inst.scale, eps, tgt.values)

    chosen: list[int] = []
    rows: list = []  # the chosen rows of the value matrix, over L
    records: list[tuple] = []
    admissible = (1 << len(num)) - 1

    def violations():  # reads `rows` as it stands when each pair is reached
        for a, ta in enumerate(T):
            for b, tb in enumerate(T):
                if ta - tb > 3 * E and all(row[a] <= row[b] + E for row in rows):
                    yield a, b

    for a, b in violations():
        slack = (T[a] - T[b] - 3 * E) // 3  # exact: both terms are multiples of 3
        r = T[b] + slack
        s = r + 3 * E + slack
        records.append((a, b, Fraction(r, L), Fraction(s, L)))
        admissible &= _bits(row[a] * k > s and row[b] * k < r for row in num)
        if not admissible:
            raise DefinitionAbort("no-admissible-parameter", step=len(records) - 1,
                                  pair=(inst.y_names[a], inst.y_names[b]))
        c = _lowest_bit(admissible)
        chosen.append(c)
        rows.append([v * k for v in num[c]])
    return chosen, records, tgt


def monotone_definition(inst: PhiInstance, epsilon, target) -> MonotoneDefinition:
    """Continuous increasing combination g with |g(phi(c_i,a)) - target(a)| <= 3*eps.

    g(v) = sup_u h_u(v) f(u) with f the monotone step function
    f(u) = max{target(a) : phi(c_i, a) <= u_i for all i} and h a
    piecewise-linear bump vanishing below u - eps.  The sup is exact over
    the finite candidate set
    of observed value tuples and their coordinatewise +eps shifts: any u
    with f(u) = target(a*) is dominated by the observed tuple of a*, where h
    is no smaller and f no smaller.

    Everything runs on ints over the scale L of `_monotone_scale`:
    h(u, v) * eps = min_i clamp(v_i + eps - u_i, 0, eps) and f(u) are ints
    over L, so g is an int over eps * L.  Since h <= 1, candidates are
    tried in decreasing f and the scan stops once f alone cannot beat the
    best product.
    """
    eps = Fraction(epsilon)
    chosen, records, tgt = monotone_parameters(inst, eps, target)
    L, k, T, E = _monotone_scale(inst.scale, eps, tgt.values)
    n = len(chosen)

    observed = list(zip(*([v * k for v in inst.num[c]] for c in chosen))) or [()] * len(T)
    candidates = sorted(set(observed) | {tuple(min(ui + E, L) for ui in u) for u in observed})
    f_at = [max((ta for ta, o in zip(T, observed) if all(map(int.__le__, o, u))), default=0)
            for u in candidates]
    # the candidates where f > 0, in decreasing f
    live = sorted(((fu, u) for fu, u in zip(f_at, candidates) if fu),
                  key=lambda pair: -pair[0])

    def g_scaled(v, m: int) -> int:
        # g(v) * eps * L * m for v over L * m
        em = E * m
        best = 0
        for fu, u in live:
            if fu * em <= best:
                break
            h = min(em, min((vi + em - ui * m for ui, vi in zip(u, v)), default=em))
            if h > 0 and h * fu > best:
                best = h * fu
        return best

    def g(v: Sequence[Fraction]) -> Fraction:
        v = tuple(Fraction(x) for x in v)
        if len(v) != n:
            raise StructuralError(f"g expects a {n}-tuple")
        den = math.lcm(L, *(x.denominator for x in v))
        m = den // L
        return Fraction(g_scaled([x.numerator * (den // x.denominator) for x in v], m),
                        E * L * m)

    worst = max((abs(g_scaled(o, 1) - ta * E) for ta, o in zip(T, observed)), default=0)
    if worst > 3 * E * E:
        raise AssertionError("monotone-definition bound violated")
    return MonotoneDefinition(eps, tuple(chosen), tuple(inst.x_names[c] for c in chosen),
                              tuple(records), Fraction(worst, E * L),
                              fraction_rows(candidates, L), g)


# ---------------------------------------------------------------------------
# Staged (global) definitions through forced limits


class StagedDefinition(NamedTuple):
    depth: int
    stages: tuple  # MedianDefinition per stage, eps = 2^-n
    final_values: tuple[Fraction, ...]
    errors: tuple[Fraction, ...]
    error_bound: Fraction


def global_definition(inst: PhiInstance, target, depth: int) -> StagedDefinition:
    """Median definitions at eps = 2^-n for n < depth, combined by forced limit.

    For targets whose every stage succeeds (realized targets in particular),
    the per-parameter error of the combined value against the target is at
    most 2^-(depth-1).

    A stage's N depends on eps only through `_gap(eps, scale)`, and its
    choices, values and error only through floor(eps * S), S the lcm of the
    scale and the target's denominators: every difference it compares with
    eps is an int over S.  So a stage whose pair of ints equals the previous
    stage's is that stage under its own eps, and one whose gap equals the
    previous gap reuses that N.  Neither int grows as eps halves, so no
    earlier stage can match where the previous one does not.
    """
    if not 1 <= depth <= 16:  # each stage is a full median search, seconds at small eps
        raise DomainError("depth must be between 1 and 16")
    tgt = _target_vector(inst, target)
    S = math.lcm(inst.scale, *(v.denominator for v in tgt.values))
    stages = []
    key = None
    for n in range(depth):
        eps = Fraction(1, 2 ** n)
        prev, key = key, (_gap(eps, inst.scale), S >> n)
        if key == prev:
            stages.append(stages[-1]._replace(epsilon=eps))
            continue
        n_value = stages[-1].n_value if prev is not None and key[0] == prev[0] else None
        try:
            stages.append(median_definition(inst, eps, tgt, n_value))
        except DefinitionAbort as abort:
            raise DefinitionAbort("stage-failed", stage=n, inner=abort.reason,
                                  **abort.details) from abort
    finals = []
    errors = []
    for b, target_value in enumerate(tgt.values):
        trace = flim_prefix([st.defined_values[b] for st in stages])
        finals.append(trace.modified_prefix[-1])
        errors.append(abs(finals[-1] - target_value))
    bound = Fraction(1, 2 ** (depth - 1))
    if any(e > bound for e in errors):
        raise AssertionError("staged-definition bound violated")
    return StagedDefinition(depth, tuple(stages), tuple(finals), tuple(errors), bound)


# ---------------------------------------------------------------------------
# Gluing two formulas sharing their first variable


def glue_formula(phi, psi, shared_x: str, fresh: tuple[str, str], fresh_sort: str,
                 sig) -> object:
    """chi(x, y, z, t, w) = (phi /\\ d(t,w)) +. (psi /\\ not d(t,w)).

    Substituting a pair at distance 1 for (t, w) recovers phi; substituting
    a pair at distance 0 recovers psi.  The fresh variable names must be
    unused in both formulas and live in one sort.
    """
    t_name, w_name = fresh
    phi_vars = dict(free_vars(phi))
    psi_vars = dict(free_vars(psi))
    if shared_x not in phi_vars or shared_x not in psi_vars:
        raise StructuralError(f"{shared_x!r} must be free in both formulas")
    if phi_vars[shared_x] != psi_vars[shared_x]:
        raise StructuralError(f"{shared_x!r} has different sorts in the two formulas")
    for other in set(phi_vars) & set(psi_vars) - {shared_x}:
        raise StructuralError(f"formulas share variable {other!r} besides {shared_x!r}")
    if t_name in phi_vars or t_name in psi_vars or w_name in phi_vars or w_name in psi_vars \
            or t_name == w_name:
        raise StructuralError("fresh variables must be new and distinct")
    if fresh_sort not in sig.sorts:
        raise StructuralError(f"unknown sort {fresh_sort!r}")
    d_name = sig.metric_of[fresh_sort]
    d_tw = Atom(d_name, (Var(t_name, fresh_sort), Var(w_name, fresh_sort)))
    return Op("plus_trunc", (Op("min", (phi, d_tw)),
                             Op("min", (psi, Op("neg", (d_tw,))))))
