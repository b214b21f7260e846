"""Seeded inputs and command corpora for the benchmark workloads.

Everything the program reads is generated here from the workload seed:
probability algebras, half-graphs, random binary structures, topometric
spaces saturated into valid closed-set lattices, grid functions and PL
moduli.  Nothing is imported from the program or its tests, so the program
sees only the JSON files written by `build_corpus`.

Sizes and command mixes are fixed per workload; the seed varies only the
values (atom weights, table entries, subsets, grid values, spaces), so two
seeds cost about the same and their timings can be compared.  The number of
commands per pass is chosen so that the pooled p90 falls inside a block of
samples of similar commands rather than between two blocks of different
cost, which keeps the tail from jumping with the number of passes.

Each command carries an independent invariant that the harness checks on
the report payload, on top of the pinned digests in `expected/`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("algebra-eval", "stability-search", "type-definitions", "synth-topometric")
# corpus seeds 0..PINNED_SEEDS-1 have their report digests pinned in expected/
PINNED_SEEDS = 20

IDENT = [["0", "0"], ["1", "1"]]
HALF = F(1, 2)

APA = "sup x. inf y. |mu(meet(y,x)) - half mu(x)|"
DISTRIBUTIVITY = ("sup x. sup y. sup z. max(d(meet(x,join(y,z)), join(meet(x,y),meet(x,z))),"
                  " d(join(x,meet(y,z)), meet(join(x,y),join(x,z))))")
MODULARITY = ("sup x. sup y. |half mu(x) +. half mu(y)"
              " - half mu(join(x,y)) +. half mu(meet(x,y))|")
PHI_SUP = "sup z. |mu(meet(x,z)) - mu(meet(y,z))|"
PHI_MEET = "mu(meet(x,y))"
HALVING = "|mu(meet(x,y)) - half mu(x)|"


def fmt(q: F) -> str:
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


Check = Callable[[int, dict], Optional[str]]


@dataclass
class Command:
    """One CLI command line with the invariant its report must satisfy."""

    label: str
    argv: list
    code: int = 0
    check: Optional[Check] = None


@dataclass
class Corpus:
    work: Path
    commands: list = field(default_factory=list)
    files: dict = field(default_factory=dict)  # name -> bytes, in creation order

    def write(self, name: str, obj) -> str:
        data = (json.dumps(obj) + "\n").encode()
        self.files[name] = data
        path = self.work / name
        path.write_bytes(data)
        return str(path)

    def path(self, name: str) -> str:
        return str(self.work / name)

    def add(self, label, argv, code=0, check=None):
        self.commands.append(Command(label, [str(a) for a in argv], code, check))

    def inputs_sha256(self) -> str:
        h = hashlib.sha256()
        for name, data in self.files.items():
            h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
        for cmd in self.commands:
            h.update(json.dumps(self.normalize(cmd.argv)).encode())
        return h.hexdigest()

    def normalize(self, obj):
        """Replace the work directory in strings so outputs compare across runs."""
        return json.loads(json.dumps(obj).replace(str(self.work), "<work>"))


# ---------------------------------------------------------------------------
# Invariant checks (independent of the program's own code)


def expect(key, want) -> Check:
    def check(code, payload):
        got = payload.get(key)
        return None if got == want else f"{key} = {got!r}, expected {want!r}"
    return check


def at_most(key, bound: F) -> Check:
    def check(code, payload):
        got = payload.get(key)
        if got is None:
            return f"no {key} in the report"
        return None if F(got) <= bound else f"{key} = {got} exceeds {fmt(bound)}"
    return check


def distinct_classes(n: int) -> Check:
    def check(code, payload):
        classes = (payload.get("classes") or {}).get("B")
        if not isinstance(classes, list):
            return "no classes of B in the report"
        return None if len(classes) == n else "completion merged distinct elements"
    return check


def aborted(code, payload):
    return None if "aborted" in payload else "definition did not abort"


def stages_decrease(code, payload):
    if not isinstance(payload.get("stages"), list):
        return "no stages in the report"
    stages = [set(s) for s in payload["stages"]]
    for a, b in zip(stages, stages[1:]):
        if not b < a:
            return "cbrank stages do not strictly decrease"
    return None


# ---------------------------------------------------------------------------
# Structure generators


def pra_signature() -> dict:
    return {
        "sorts": [{"name": "B", "metric": "d"}],
        "functions": [
            {"name": "zero", "arg_sorts": [], "target_sort": "B", "moduli": []},
            {"name": "one", "arg_sorts": [], "target_sort": "B", "moduli": []},
            {"name": "compl", "arg_sorts": ["B"], "target_sort": "B", "moduli": [IDENT]},
            {"name": "meet", "arg_sorts": ["B", "B"], "target_sort": "B",
             "moduli": [IDENT, IDENT]},
            {"name": "join", "arg_sorts": ["B", "B"], "target_sort": "B",
             "moduli": [IDENT, IDENT]},
        ],
        "predicates": [{"name": "mu", "arg_sorts": ["B"], "moduli": [IDENT]}],
    }


def random_weights(rng: random.Random, k: int, lo: int = 1) -> list:
    raw = [rng.randint(lo, 9) for _ in range(k)]
    total = sum(raw)
    return [F(w, total) for w in raw]


def measures(weights) -> list:
    return [sum((w for b, w in enumerate(weights) if m >> b & 1), F(0))
            for m in range(1 << len(weights))]


def prob_algebra(weights) -> dict:
    """Probability algebra on the power set of the atoms; element s<mask>."""
    n = 1 << len(weights)
    names = [f"s{m}" for m in range(n)]
    mu = measures(weights)
    mu_text = [fmt(v) for v in mu]
    return {
        "signature": pra_signature(),
        "carriers": {"B": names},
        "metric": {"B": [[mu_text[a ^ b] for b in range(n)] for a in range(n)]},
        "functions": {
            "zero": names[0],
            "one": names[n - 1],
            "compl": [names[(n - 1) ^ a] for a in range(n)],
            "meet": [[names[a & b] for b in range(n)] for a in range(n)],
            "join": [[names[a | b] for b in range(n)] for a in range(n)],
        },
        "predicates": {"mu": mu_text},
    }


def atomless_defect(weights) -> F:
    """sup_x inf_y |mu(y meet x) - mu(x)/2| by brute force over submasks."""
    mu = measures(weights)
    worst = F(0)
    for x in range(len(mu)):
        best = None
        sub = x
        while True:
            v = abs(mu[sub] - mu[x] / 2)
            best = v if best is None or v < best else best
            if sub == 0:
                break
            sub = (sub - 1) & x
        worst = max(worst, best)
    return worst


def closed_subalgebra(rng: random.Random, k: int, blocks_n: int) -> list:
    """Masks of the unions of blocks of a random partition of the atoms into blocks_n blocks."""
    labels = list(range(blocks_n)) + [rng.randrange(blocks_n) for _ in range(k - blocks_n)]
    rng.shuffle(labels)
    blocks = [sum(1 << a for a in range(k) if labels[a] == b) for b in range(blocks_n)]
    return sorted({sum(blk for blk, on in zip(blocks, pick) if on)
                   for pick in itertools.product((0, 1), repeat=blocks_n)})


def halving_is_elementary(weights, masks) -> bool:
    """Tarski-Vaught for HALVING with y distinguished, by brute force over masks."""
    mu = measures(weights)

    def best(x, pool):
        return min(abs(mu[y & x] - mu[x] / 2) for y in pool)

    return all(best(x, range(len(mu))) == best(x, masks) for x in masks)


def binary_signature(pred: str) -> dict:
    return {"sorts": [{"name": "V", "metric": "d"}],
            "predicates": [{"name": pred, "arg_sorts": ["V", "V"], "moduli": [IDENT, IDENT]}]}


def discrete_binary(names, pred: str, table) -> dict:
    n = len(names)
    return {
        "signature": binary_signature(pred),
        "carriers": {"V": list(names)},
        "metric": {"V": [["0" if i == j else "1" for j in range(n)] for i in range(n)]},
        "functions": {},
        "predicates": {pred: [[fmt(table[i][j]) for j in range(n)] for i in range(n)]},
    }


def halfgraph(n: int) -> dict:
    """phi(a_i, b_j) = 1 iff i <= j, 0 elsewhere, on 2n points."""
    names = [f"a{i}" for i in range(n)] + [f"b{j}" for j in range(n)]
    size = 2 * n
    table = [[F(1) if i < n <= j and i <= j - n else F(0) for j in range(size)]
             for i in range(size)]
    return discrete_binary(names, "phi", table)


def random_binary(rng: random.Random, n: int) -> dict:
    table = [[F(rng.randint(0, 4), 4) for _ in range(n)] for _ in range(n)]
    return discrete_binary([f"e{i}" for i in range(n)], "phi", table)


def constant_binary(n: int) -> dict:
    return discrete_binary([f"e{i}" for i in range(n)], "P", [[HALF] * n for _ in range(n)])


# ---------------------------------------------------------------------------
# Topometric spaces, grid functions and moduli


def topometric_space(rng: random.Random, n: int, eps: F, max_sets: int = 160) -> dict:
    """Points on a line with a seeded closed-set lattice.

    A few random generators are closed under union, intersection and the
    closed eps-neighbourhood until the family is a valid lattice; a draw
    whose family grows past `max_sets` is redrawn.
    """
    while True:
        coords = sorted(rng.sample(range(17), n))
        metric = [[F(abs(a - b), 16) for b in coords] for a in coords]
        full = frozenset(range(n))
        fam = {frozenset(), full}
        for _ in range(3):
            lo = rng.randrange(n)
            hi = rng.randrange(lo, n)
            fam.add(frozenset(range(lo, hi + 1)))
        todo = list(fam)
        while todo and len(fam) <= max_sets:
            A = todo.pop()
            new = {frozenset(p for p in range(n) if any(metric[p][q] <= eps for q in A))
                   if A else frozenset()}
            for B in list(fam):
                new.add(A | B)
                new.add(A & B)
            for C in new - fam:
                fam.add(C)
                todo.append(C)
        if len(fam) <= max_sets:
            break
    points = [f"p{i}" for i in range(n)]
    closed = sorted((sorted(points[i] for i in C) for C in fam), key=lambda s: (len(s), s))
    return {"points": points, "closed_sets": closed,
            "metric": [[fmt(v) for v in row] for row in metric],
            "test_epsilons": [fmt(eps)]}


def grid_function(rng: random.Random, arity: int, steps: int) -> dict:
    """Random walk of small dyadic steps along the row-major grid, kept in [0,1]."""
    values = []
    v = F(rng.randint(0, 8), 8)
    for _ in range((steps + 1) ** arity):
        v = min(F(1), max(F(0), v + F(rng.randint(-2, 2), 16)))
        values.append(fmt(v))
    return {"arity": arity, "pitch": fmt(F(1, steps)), "values": values}


def pl_modulus(rng: random.Random, pieces: int, start_zero: bool) -> str:
    xs = sorted(rng.sample(range(1, 16), pieces - 1))
    ys = sorted(rng.randint(1, 16) for _ in range(pieces))
    pts = [(F(0), F(0) if start_zero else F(ys[0], 32))]
    pts += [(F(x, 16), F(y, 16)) for x, y in zip(xs, ys)]
    pts.append((F(1), F(max(ys), 16)))
    return ",".join(f"{fmt(x)}:{fmt(y)}" for x, y in pts)


# ---------------------------------------------------------------------------
# Workloads


def _algebra_eval(c: Corpus, rng: random.Random):
    alg = {}
    for k in (4, 5):
        w = random_weights(rng, k)
        alg[k] = (c.write(f"alg{k}.json", prob_algebra(w)), w)
    valid = expect("valid", True)
    zero = expect("value", "0")
    for k in (4, 5):
        c.add(f"check/{k}", ["check", alg[k][0]], check=valid)
    # three 7-atom algebras: their evaluations hold the pooled p90
    for i, k in enumerate((6, 7, 7, 7, 8)):
        w = random_weights(rng, k)
        path = c.write(f"apa{i}-{k}.json", prob_algebra(w))
        c.add(f"eval-apa/{k}", ["eval", path, "-e", APA],
              check=expect("value", fmt(atomless_defect(w))))
    for k in (4, 5):
        c.add(f"eval-distributivity/{k}", ["eval", alg[k][0], "-e", DISTRIBUTIVITY], check=zero)
        c.add(f"eval-modularity/{k}", ["eval", alg[k][0], "-e", MODULARITY], check=zero)
    # 28 alike tv commands at 5 atoms hold the pooled median of this workload
    for k, blocks_n, count in ((4, 2, 2), (5, 3, 28)):
        path, w = alg[k]
        for _ in range(count):
            masks = closed_subalgebra(rng, k, blocks_n)
            ok = halving_is_elementary(w, masks)
            c.add(f"tv/{k}", ["tv", path, "--subset", ",".join(f"s{m}" for m in masks),
                              "--formula", "y@d(x,y)", "--formula", f"y@{HALVING}"],
                  code=0 if ok else 1, check=expect("elementary_for_family", ok))
    for i in range(2):
        r = F(rng.randint(1, 7), 8)
        c.add("prenex/4", ["prenex", alg[4][0], "--formula",
                           f"{fmt(r)} -. (sup x. mu(x)) +. (inf y. |mu(y) - d(y, one)|)"])
    for k in (4, 5):
        c.add(f"complete/{k}", ["complete", alg[k][0], "--out", c.path(f"completed{k}.json")],
              check=distinct_classes(1 << k))


def _stability_search(c: Corpus, rng: random.Random):
    hg = {n: c.write(f"hg{n}.json", halfgraph(n)) for n in (2, 3, 4)}
    # the small atom stays in [1/4, 3/8]: N is then 4 at eps 1/2 and 8 below,
    # so every seed's skewed algebra costs the same searches
    skew = F(rng.randint(4, 6), 16)
    algs = {"u": c.write("alg2u.json", prob_algebra([HALF, HALF])),
            "s": c.write("alg2s.json", prob_algebra([skew, 1 - skew]))}
    const = c.write("const.json", constant_binary(3))
    rnd = {n: c.write(f"rand{n}.json", random_binary(rng, n)) for n in (3, 4)}
    hg_args = ["--formula", "phi(x,y)", "--split", "x;y"]
    alg_args = ["--formula", PHI_MEET, "--split", "x;y"]
    eps_all = ("1/2", "1/4", "1/8")

    # half-graph values are 0 or 1, so N = 2n+2 at every eps in (0, 1].  The
    # eight seed-independent n = 2 commands hold the pooled median of this
    # workload and the five n = 3 ones its p90, so neither moves with the seed.
    extra = {2: ("1", "3/4", "3/8", "1/16", "1/32"), 3: ("3/4", "1/16")}
    for n in (2, 3):
        for eps in eps_all + extra[n]:
            c.add(f"nvalue-hg/{n}", ["nvalue", hg[n], *hg_args, "--epsilon", eps],
                  check=expect("N", 2 * n + 2))
    c.add("nvalue-hg/4", ["nvalue", hg[4], *hg_args, "--epsilon", "1/2"],
          check=expect("N", 10))
    for key in ("u", "s"):
        for eps in eps_all:
            c.add("nvalue-alg/2", ["nvalue", algs[key], *alg_args, "--epsilon", eps])
    for eps in eps_all:
        c.add("nvalue-const/3", ["nvalue", const, "--formula", "P(x,y)", "--split", "x;y",
                                 "--epsilon", eps], check=expect("N", 2))
        for n in (3, 4):
            c.add(f"nvalue-rand/{n}", ["nvalue", rnd[n], *hg_args, "--epsilon", eps])

    targets = [(hg[n], hg_args, f"stability-hg/{n}") for n in (2, 3, 4)]
    targets += [(algs[k], alg_args, "stability-alg/2") for k in ("u", "s")]
    targets += [(rnd[n], hg_args, f"stability-rand/{n}") for n in (3, 4)]
    for path, args, label in targets:
        for kind in ("antisym", "order", "triple"):
            c.add(f"{label}/{kind}", ["stability", path, *args, "--epsilon", "1/2",
                                      "--kind", kind, "--max-len", "4"],
                  check=expect("revalidated", True))

    def median(label, path, args, eps, target):
        c.add(label, ["define-median", path, *args, "--epsilon", eps, "--target", target],
              check=at_most("observed_error", F(eps)))

    for eps in ("1/2", "1/4"):
        for n in (2, 3):
            median(f"median-hg/{n}", hg[n], hg_args, eps, "a1")
        median("median-alg/2", algs["u"], alg_args, eps, "s1")
        median("median-alg/2", algs["s"], alg_args, eps, "s2")
        for target in ("e0", "e1"):
            median("median-rand/3", rnd[3], hg_args, eps, target)

    # alternating extreme targets, far from every realized row: these abort
    for n in (2, 3):
        names = [f"a{i}" for i in range(n)] + [f"b{j}" for j in range(n)]
        values = {name: "1" if i % 2 == 0 else "0" for i, name in enumerate(names)}
        tfile = c.write(f"abort-hg{n}.json", {"values": values})
        c.add(f"median-abort-hg/{n}", ["define-median", hg[n], *hg_args, "--epsilon", "1/8",
                                       "--target-file", tfile], code=1, check=aborted)

    for key, target, depth in (("u", "s1", 3), ("s", "s2", 4)):
        c.add(f"global-alg/{depth}", ["define-global", algs[key], *alg_args,
                                      "--target", target, "--depth", str(depth)],
              check=at_most("max_error", F(1, 2 ** (depth - 1))))
    c.add("global-hg/3", ["define-global", hg[2], *hg_args, "--target", "a1", "--depth", "3"],
          check=at_most("max_error", F(1, 4)))
    c.add("global-rand/3", ["define-global", rnd[3], *hg_args, "--target", "e1", "--depth", "3"],
          check=at_most("max_error", F(1, 4)))


def _type_definitions(c: Corpus, rng: random.Random):
    # raw atom weights 5..9: no atom carries half the mass.  With such an atom
    # the eps-1/2 ladder search of define-median grows from ~0.1 s to ~0.5 s
    # (the skewed algebras of stability-search cover that case), and a seed
    # that drew one would cost several times more than the others.
    alg = {k: c.write(f"alg{k}.json", prob_algebra(random_weights(rng, k, lo=5)))
           for k in (3, 4, 5)}
    sup_args = ["--formula", PHI_SUP, "--split", "x;y"]
    meet_args = ["--formula", PHI_MEET, "--split", "x;y"]
    all_zero = expect("all_zero", True)

    for k in (3, 4, 5):
        for args, name in ((sup_args, "sup"), (meet_args, "meet")):
            c.add(f"typespace-{name}/{k}", ["typespace", alg[k], *args])
    # phi = PHI_SUP makes the T_phi sentences nest two sups over the carrier;
    # at 5 atoms that takes ~26 s, so 5 atoms uses PHI_MEET only.
    for k, args, name in ((3, sup_args, "sup"), (3, meet_args, "meet"),
                          (4, meet_args, "meet"), (5, meet_args, "meet")):
        c.add(f"imaginary-{name}/{k}", ["imaginary", alg[k], *args,
                                        "--out", c.path(f"imag-{name}{k}")],
              check=all_zero)
    for k, targets in ((3, ("s1", "s3", "s6")), (4, ("s5",))):
        for target in targets:
            for eps in ("1/8", "1/16"):
                for args, name in ((sup_args, "sup"), (meet_args, "meet")):
                    c.add(f"monotone-{name}/{k}",
                          ["define-monotone", alg[k], *args, "--epsilon", eps,
                           "--target", target],
                          check=at_most("observed_error", 3 * F(eps)))
    # eps 1/2 at 3 atoms: the same command at 4 atoms spends ~3.5 s in compute_N
    for target in ("s1", "s6"):
        for args, name in ((sup_args, "sup"), (meet_args, "meet")):
            c.add(f"median-{name}/3",
                  ["define-median", alg[3], *args, "--epsilon", "1/2", "--target", target],
                  check=at_most("observed_error", HALF))
    glue_ok = expect("identities", {"recovers_phi_at_distance_1": True,
                                    "recovers_psi_at_distance_0": True})
    psis3 = ("mu(join(x,z))", "d(x,z)", "mu(meet(compl(x),z))", "d(meet(x,z), zero)")
    for k, psis in ((3, psis3), (4, ("mu(join(x,z))",))):
        for psi in psis:
            c.add(f"glue/{k}", ["glue", alg[k], "--phi", PHI_MEET, "--psi", psi,
                                "--shared", "x", "--fresh", "t,w", "--fresh-sort", "B",
                                "--verify"], check=glue_ok)


def _synth_topometric(c: Corpus, rng: random.Random):
    for steps, count, eps in ((8, 4, "1/8"), (16, 2, "1/16")):
        for i in range(count):
            path = c.write(f"grid1d-{steps}-{i}.json", grid_function(rng, 1, steps))
            c.add(f"synth-1d/{steps}", ["synth", "--target", path, "--epsilon", eps],
                  check=at_most("max_error", F(eps)))
    for i in range(2):
        path = c.write(f"grid2d-4-{i}.json", grid_function(rng, 2, 4))
        c.add("synth-2d/4", ["synth", "--target", path, "--epsilon", "1/8"],
              check=at_most("max_error", F(1, 8)))
    # ten 12-point spaces hold the pooled p90; their cost varies with the
    # drawn lattice, so the p90 is the middle of ten draws
    for n, count in ((8, 1), (10, 2), (12, 10), (14, 2)):
        for i in range(count):
            path = c.write(f"space{n}-{i}.json", topometric_space(rng, n, F(1, 8)))
            c.add(f"cbrank/{n}", ["cbrank", path, "--epsilon", "1/4"], check=stages_decrease)
    # inverse-to-delta is a few breakpoint comparisons, so these commands are
    # mostly CLI envelope and hold the pooled median
    for i in range(79):
        c.add("modulus-inverse-to-delta", [
            "modulus-convert", "--direction", "inverse-to-delta",
            "--pl", pl_modulus(rng, 3 + i % 3, True),
            "--epsilon", fmt(F(rng.randint(1, 15), 16))])
    for i in range(8):
        c.add("modulus-delta-to-inverse", [
            "modulus-convert", "--direction", "delta-to-inverse",
            "--pl", pl_modulus(rng, 3 + i % 3, False)])


_BUILDERS = {
    "algebra-eval": _algebra_eval,
    "stability-search": _stability_search,
    "type-definitions": _type_definitions,
    "synth-topometric": _synth_topometric,
}


def build_corpus(workload: str, seed: int, work: Path) -> Corpus:
    """Write the seeded inputs of a workload into `work` and list its commands."""
    work.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(work)
    _BUILDERS[workload](corpus, random.Random(f"{workload}:{seed}"))
    return corpus
