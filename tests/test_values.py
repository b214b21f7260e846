"""Tests for the exact truth-value layer: connectives, med, flim, PL moduli."""

import itertools
import math
import random
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contlogic.errors import ContlogicError, DomainError, StructuralError
from contlogic.values import (
    CONNECTIVES,
    Lanes,
    IDENTITY,
    PLMonotone,
    delta_from_inverse,
    flim_prefix,
    format_ratio,
    format_rational,
    inverse_from_delta,
    is_dyadic,
    parse_ratio,
    parse_rational,
    pl_capped_sum,
    pl_compose,
    pl_half,
)
from oracles import (
    FractionPL,
    apply_connective,
    apply_connective_reference,
    delta_from_inverse_reference,
    inverse_from_delta_reference,
    med,
    med_by_subsets,
    parse_rational_reference,
    pl_capped_sum_reference,
    pl_compose_reference,
    pl_half_reference,
    pl_of,
)


def grid(step_denom=32):
    return [F(k, step_denom) for k in range(step_denom + 1)]


def test_rational_parsing_round_trip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("1") == F(1)
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(2)) == "2"
    with pytest.raises(DomainError):
        parse_rational("0.5")
    with pytest.raises(DomainError):
        parse_rational("1/0")
    assert is_dyadic(F(3, 8)) and not is_dyadic(F(1, 3))


def test_connective_values():
    assert apply_connective("monus", [F(3, 4), F(1, 4)]) == F(1, 2)
    assert apply_connective("monus", [F(1, 4), F(3, 4)]) == 0
    assert apply_connective("min", [F(2, 3), F(1, 3)]) == F(1, 3)
    # min through its truncated-subtraction form: x /\ y = x -. (x -. y)
    x, y = F(2, 3), F(1, 3)
    assert apply_connective("monus", [x, apply_connective("monus", [x, y])]) == F(1, 3)
    assert apply_connective_reference("const", [], const_value=F(1, 3)) == F(1, 3)
    assert apply_connective_reference("min", [F(2, 3), F(1, 3)]) == F(1, 3)
    with pytest.raises(StructuralError, match="payload"):
        apply_connective_reference("const", [])
    with pytest.raises(StructuralError, match="unknown connective 'const'"):
        apply_connective("const", [])
    with pytest.raises(StructuralError):
        apply_connective("monus", [F(1, 2)])
    with pytest.raises(StructuralError):
        apply_connective("nope", [F(1, 2)])


def test_connective_identity_block_on_grid():
    """The four derived-connective identities, exactly, on a 33x33 grid."""
    for x in grid():
        for y in grid():
            land = min(x, y)
            lor = max(x, y)
            m = apply_connective("monus", [x, y])
            mrev = apply_connective("monus", [y, x])
            assert apply_connective("monus", [x, m]) == land
            assert apply_connective("neg", [apply_connective("min", [1 - x, 1 - y])]) == lor
            assert apply_connective("neg", [apply_connective("monus", [1 - x, y])]) == min(x + y, F(1))
            assert apply_connective("plus_trunc", [m, mrev]) == abs(x - y)


@pytest.mark.parametrize("name", [*CONNECTIVES, "med"])
def test_connective_signs_match_the_reference_semantics(name):
    """Each sign in CONNECTIVES against the Fraction semantics on the 1/8 grid: +1 is
    non-decreasing, -1 non-increasing, and 0 rises at some point and falls at another.
    `med` (n = 2) is non-decreasing in each argument; `prenex` relies on all of them."""
    signs = CONNECTIVES.get(name, (+1,) * 3)
    value = (lambda args: med(args, 2)) if name == "med" else partial(apply_connective, name)
    for i, sign in enumerate(signs):
        steps = set()  # the signs of the changes a step of 1/8 in argument i makes
        for args in itertools.product(grid(8), repeat=len(signs)):
            if args[i] < 1:
                bumped = args[:i] + (args[i] + F(1, 8),) + args[i + 1:]
                change = value(bumped) - value(args)
                steps.add((change > 0) - (change < 0))
        if sign == 0:
            assert {-1, +1} <= steps, (name, i, steps)
        else:
            assert -sign not in steps, (name, i, steps)


def test_med_examples_and_properties():
    assert med([F(0), F(2, 5), F(1)], 2) == F(2, 5)
    assert med([F(1, 3)] * 3, 2) == F(1, 3)
    assert med([F(0), F(0), F(1), F(1), F(1)], 3) == 1
    assert med_by_subsets([F(0), F(0), F(1), F(1), F(1)], 3) == 1
    with pytest.raises(StructuralError):
        med([F(0), F(1)], 2)
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        vals = [F(rng.randrange(0, 9), 8) for _ in range(2 * n - 1)]
        assert med(vals, n) == med_by_subsets(vals, n)
    # monotone in every argument
    rng2 = random.Random(19)
    for _ in range(100):
        vals = [F(rng2.randrange(0, 9), 8) for _ in range(5)]
        i = rng2.randrange(5)
        bumped = list(vals)
        bumped[i] = min(bumped[i] + F(1, 8), F(1))
        assert med(bumped, 3) >= med(vals, 3)


def test_flim_prefix_examples():
    c = F(2, 5)
    tr = flim_prefix([c, c, c, c])
    assert tr.modified_prefix == (c, c, c, c)
    assert tr.error_bound == F(1, 8)

    tr = flim_prefix([F(0), F(1), F(1), F(1), F(1)])
    assert tr.modified_prefix == (F(0), F(1, 2), F(3, 4), F(7, 8), F(15, 16))

    tr = flim_prefix([F(0), F(1), F(0), F(1), F(0)])
    assert tr.modified_prefix == (F(0), F(1, 2), F(1, 4), F(3, 8), F(5, 16))

    with pytest.raises(StructuralError):
        flim_prefix([])


def test_flim_cauchy_bound_holds():
    rng = random.Random(11)
    for _ in range(100):
        seq = [F(rng.randrange(0, 65), 64) for _ in range(10)]
        mods = flim_prefix(seq).modified_prefix
        for n in range(len(mods)):
            for m in range(n, len(mods)):
                assert abs(mods[n] - mods[m]) <= F(1, 2**n)


def test_flim_stability_property():
    """Prefixes close up to index m keep modified values close at m."""
    rng = random.Random(13)
    for _ in range(100):
        m = 6
        a = [F(rng.randrange(0, 129), 128) for _ in range(m + 1)]
        b = []
        for n, v in enumerate(a):
            delta = F(rng.randrange(-3, 4), 2 ** (m + 3))
            w = min(max(v + delta, F(0)), F(1))
            assert abs(w - v) < F(1, 2**m)
            b.append(w)
        am = flim_prefix(a).modified_prefix
        bm = flim_prefix(b).modified_prefix
        assert abs(am[m] - bm[m]) < F(1, 2**m)


def test_pl_eval_and_algebra():
    assert IDENTITY.eval(F(1, 3)) == F(1, 3)
    dbl = pl_of(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1))))
    assert dbl.eval(F(1, 4)) == F(1, 2)
    assert IDENTITY.eval(F(0)) == 0

    assert pl_compose(IDENTITY, IDENTITY) == IDENTITY
    assert pl_capped_sum(IDENTITY, IDENTITY).eval(F(3, 4)) == 1
    assert pl_capped_sum(IDENTITY, IDENTITY).eval(F(1, 4)) == F(1, 2)
    assert pl_half(IDENTITY).eval(F(1, 2)) == F(1, 4)

    with pytest.raises(StructuralError):
        pl_of(((F(0), F(1)), (F(1), F(0))))  # decreasing
    with pytest.raises(StructuralError):
        pl_of(((F(1, 4), F(0)), (F(1), F(1))))  # does not start at 0


def test_pl_compose_matches_pointwise():
    rng = random.Random(17)
    for _ in range(50):
        f = random_pl(rng)
        g = random_pl(rng)
        h = pl_compose(f, g)
        for x in grid(16):
            assert h.eval(x) == f.eval(g.eval(x))
        s = pl_capped_sum(f, g)
        for x in grid(16):
            assert s.eval(x) == min(f.eval(x) + g.eval(x), F(1))


def random_pl(rng, inverse=False):
    xs = sorted(rng.sample([F(k, 16) for k in range(1, 16)], rng.randrange(0, 4)))
    xs = [F(0)] + xs + [F(1)]
    start = F(0) if inverse else F(rng.randrange(0, 3), 8)
    ys = [start]
    for _ in xs[1:]:
        ys.append(min(ys[-1] + F(rng.randrange(0, 9), 16), F(1)))
    return pl_of(tuple(zip(xs, ys)))


def test_delta_from_inverse_examples():
    delta = delta_from_inverse(IDENTITY)
    assert delta(F(1, 4)) == F(1, 4)
    assert delta(F(1)) == 1
    dbl = pl_of(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1))))
    assert delta_from_inverse(dbl)(F(1, 2)) == F(1, 4)
    with pytest.raises(DomainError):
        delta(F(0))
    with pytest.raises(DomainError):
        delta_from_inverse(PLMonotone(2, (0, 2), (1, 1)))


def test_inverse_from_delta_identity_and_round_trip():
    u = inverse_from_delta(IDENTITY)
    assert u == IDENTITY
    delta = delta_from_inverse(u)
    assert delta(F(1, 2)) == F(1, 2)
    with pytest.raises(DomainError):
        inverse_from_delta(pl_of(((F(0), F(0)), (F(1, 2), F(0)), (F(1), F(1)))))


def test_inverse_from_delta_dominates_u0_and_stays_sound():
    """u-hat is continuous, monotone, >= u0, and respecting delta implies respecting u-hat."""
    rng = random.Random(23)
    for _ in range(30):
        delta = random_pl(rng)
        if any(y == 0 for _, y in delta.breakpoints[1:]):
            continue
        uhat = inverse_from_delta(delta)
        assert uhat.is_inverse_modulus()
        # u0(r) = sup{t : delta(t) <= r} is dominated by the envelope
        for r in grid(16):
            u0 = F(0)
            for (x0, y0), (x1, y1) in zip(delta.breakpoints, delta.breakpoints[1:]):
                if y1 <= r:
                    u0 = x1
                elif y0 <= r:
                    u0 = x0 + (r - y0) * (x1 - x0) / (y1 - y0)
            assert uhat.eval(r) >= u0


def random_delta(rng):
    """A PL delta positive on (0,1], with flat runs, delta(0) > 0 and delta(1) = 1 common."""
    xs = sorted(rng.sample([F(k, 32) for k in range(1, 32)], rng.randrange(0, 6)))
    xs = [F(0)] + xs + [F(1)]
    ys = [F(0) if rng.random() < 0.5 else F(rng.randrange(1, 9), 16)]
    for _ in xs[1:]:
        step = F(rng.randrange(1, 9), 32) if ys[-1] == 0 or rng.random() < 0.6 else F(0)
        ys.append(min(ys[-1] + step, F(1)))
    if rng.random() < 0.3:
        ys[-1] = F(1)
    return pl_of(tuple(zip(xs, ys)))


def test_inverse_from_delta_matches_the_pairwise_scan():
    """One table of component values per knot gives the reference's breakpoints exactly."""
    from oracles import inverse_from_delta_pairwise

    rng = random.Random(31)
    seen = {"flat run": 0, "delta(0) > 0": 0, "delta(1) = 1": 0}
    deltas = [IDENTITY, PLMonotone(1, (0, 1), (1, 1)),
              pl_of(((F(0), F(1, 2)), (F(1), F(1, 2))))]
    deltas += [random_delta(rng) for _ in range(240)]
    for delta in deltas:
        ys = [y for _, y in delta.breakpoints]
        seen["flat run"] += any(a == b for a, b in zip(ys, ys[1:]))
        seen["delta(0) > 0"] += ys[0] > 0
        seen["delta(1) = 1"] += ys[-1] == 1
        assert inverse_from_delta(delta).breakpoints == \
            inverse_from_delta_pairwise(delta).breakpoints
    assert min(seen.values()) >= 40, seen


# ---------------------------------------------------------------------------
# The int moduli against the Fraction reference


def outcome(fn, *args):
    """("ok", result) with a modulus read as its breakpoints, or the error's type and message."""
    try:
        out = fn(*args)
    except (ContlogicError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", getattr(out, "breakpoints", out)


UNIT_FRACTIONS = sorted({F(p, q) for q in range(1, 17) for p in range(q + 1)})
unit_fractions = st.sampled_from(UNIT_FRACTIONS)
inner_fractions = st.sampled_from(UNIT_FRACTIONS[1:-1])


@st.composite
def breakpoint_lists(draw, inverse=False):
    """2-6 pieces with inputs and outputs of denominator 1-16, flat runs and collinear points."""
    inner = draw(st.lists(inner_fractions, min_size=1, max_size=5, unique=True))
    xs = [F(0)] + sorted(inner) + [F(1)]
    ys = sorted(draw(st.lists(unit_fractions, min_size=len(xs), max_size=len(xs))))
    for j in draw(st.lists(st.integers(1, len(ys) - 1), max_size=2)):
        ys[j] = ys[j - 1]  # a flat run
    if inverse:
        ys[0] = F(0)
    pts = list(zip(xs, ys))
    for i in sorted(draw(st.lists(st.integers(0, len(pts) - 2), max_size=2, unique=True)),
                    reverse=True):  # a segment's midpoint is collinear with its ends
        (x0, y0), (x1, y1) = pts[i], pts[i + 1]
        pts.insert(i + 1, ((x0 + x1) / 2, (y0 + y1) / 2))
    return pts


@settings(max_examples=200)
@given(breakpoint_lists(), breakpoint_lists(), breakpoint_lists(inverse=True), unit_fractions)
def test_int_moduli_match_the_fraction_reference(a, b, c, x):
    """Breakpoints, values, the algebra and both conversions, errors included."""
    f, g, u = pl_of(a), pl_of(b), pl_of(c)
    rf, rg, ru = FractionPL(a), FractionPL(b), FractionPL(c)
    assert f.breakpoints == rf.breakpoints
    assert f.eval(x) == rf.eval(x)
    assert f.formatted() == [(format_rational(p), format_rational(q)) for p, q in rf.breakpoints]
    assert pl_compose(f, g).breakpoints == pl_compose_reference(rf, rg).breakpoints
    assert pl_capped_sum(f, g).breakpoints == pl_capped_sum_reference(rf, rg).breakpoints
    assert pl_half(f).breakpoints == pl_half_reference(rf).breakpoints
    assert outcome(inverse_from_delta, f) == outcome(inverse_from_delta_reference, rf)
    assert outcome(lambda: delta_from_inverse(f)(x)) == \
        outcome(lambda: delta_from_inverse_reference(rf)(x))
    assert outcome(delta_from_inverse(u), x) == outcome(delta_from_inverse_reference(ru), x)


CORRUPTIONS = {
    "not starting at 0": (lambda pts: [(F(1, 32), pts[0][1])] + pts[1:],
                          "breakpoints must start at input 0 and end at input 1"),
    "not ending at 1": (lambda pts: pts[:-1] + [(F(31, 32), pts[-1][1])],
                        "breakpoints must start at input 0 and end at input 1"),
    "non-increasing inputs": (lambda pts: [pts[0], (pts[2][0], pts[1][1])] + pts[2:],
                              "breakpoint inputs must be strictly increasing"),
    "decreasing outputs": (lambda pts: [(F(0), pts[1][1] + F(1, 16))] + pts[1:],
                           "breakpoint outputs must be non-decreasing"),
    "value below 0": (lambda pts: [(F(0), F(-1, 16))] + pts[1:], "value -1/16 outside [0,1]"),
    "value above 1": (lambda pts: pts[:-1] + [(F(1), F(17, 16))], "value 17/16 outside [0,1]"),
}


@settings(max_examples=120)
@given(breakpoint_lists(), st.sampled_from(sorted(CORRUPTIONS)))
def test_invalid_breakpoints_raise_what_the_reference_raises(pts, kind):
    corrupt, message = CORRUPTIONS[kind]
    bad = corrupt(pts)
    assert outcome(pl_of, bad) == outcome(FractionPL, bad)
    assert outcome(pl_of, bad)[1] == message


LITERALS = [" 1/2 ", "1_0", "2/4", "1/-2", "-6/-4", "\u0661/\u0662", "+3/6", "-0", "0/5",
            "0.5", "1/0", "1//2", "", "1/2/3", "_1", "1__0", "abc", "1 /2", "1/ 2"]


def assert_parses_like_the_reference(text):
    want = outcome(parse_rational_reference, text)
    got = outcome(parse_ratio, text)
    if want[0] == "ok":
        p, q = got[1]
        assert q > 0 and math.gcd(p, q) == 1 and F(p, q) == want[1]
        assert format_ratio(p, q) == format_rational(want[1])
    else:
        assert got == want
    assert outcome(parse_rational, text) == want


@pytest.mark.parametrize("text", LITERALS + [1, None, F(1, 2), ["1"]])
def test_int_parser_matches_parse_rational_on_edge_literals(text):
    assert_parses_like_the_reference(text)


@settings(max_examples=300)
@given(st.one_of(st.text(alphabet="0123456789\u0661\u0662 _/-+.", max_size=7),
                 st.sampled_from(LITERALS)))
def test_int_parser_matches_parse_rational(text):
    assert_parses_like_the_reference(text)


def test_lanes_match_the_list_form():
    """pack/unpack round-trip, and at_least and monus agree lane by lane with
    the list form, for bounds of 1 to 63 bits, at 0 and at the bound."""
    rng = random.Random(6)
    for bits in range(1, 64):
        bound = rng.randrange(1 << bits - 1, 1 << bits)
        count = rng.randint(1, 9)
        lanes = Lanes(bound, count)
        xs, ys = ([rng.choice([0, bound, rng.randint(0, bound)]) for _ in range(count)]
                  for _ in range(2))
        x, y = lanes.pack(xs), lanes.pack(ys)
        assert lanes.unpack(x) == xs
        assert lanes.unpack(lanes.monus(x, y)) == [max(a - b, 0) for a, b in zip(xs, ys)]
        at_least = [a >= b for a, b in zip(xs, ys)]
        assert lanes.at_least(x, y) == lanes.pack(at_least) << lanes.width - 1
