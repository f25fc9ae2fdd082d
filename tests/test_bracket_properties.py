"""Generated cross-checks of the three bracket paths: the exact sweep
against the state-sum oracle and against the sweep on the Laurent ring,
the numeric sweep against the exact bracket evaluated at a point of the
unit circle, and on long plat and trace words at the Fibonacci point
e^(i pi/10) and at e^(i pi/12) against the exact bracket's cyclotomic
decode, and the Jones polynomial against the bracket times an explicit
writhe monomial.  The exact sweep closes each closure arc as soon as it can and sweeps a trace word either in word order as given or
outward through its annulus (radial order), while the Laurent-ring
reference sweeps the word in word order and closes it at the end.  Both
trace schedules are also checked when forced, and trace closures under
the two Markov moves.  On words of 100-200 crossings the exact bracket is
held to itself under braid relations, far commutation, inserted inverse
pairs, trace conjugation, Markov stabilisation and a kink at a plat cap.
Hypothesis runs derandomized, so every run tries the same examples."""

import cmath
import inspect
import math
import random
from decimal import Decimal, localcontext
from unittest import mock

import plan_quality
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockbraid import (
    FIBONACCI_POINT,
    GOLDEN_RATIO,
    BraidWord,
    ClosedBraid,
    bracket,
    bracket_eval,
    bracket_poly,
    bracket_poly_state_sum,
    inverse,
    jones_from_bracket,
    kauffman_invariant,
    writhe,
)
from stockbraid.laurent import LaurentPoly

import fibonacci_decode
from fibonacci_decode import value_at_fibonacci_point, value_at_root
from laurent_ring import D, laurent_ring_bracket

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def closed_braids(draw, max_crossings: int = 12) -> ClosedBraid:
    closure = draw(st.sampled_from(["plat", "trace"]))
    n = draw(st.sampled_from([2, 4, 6, 8]) if closure == "plat" else st.integers(2, 8))
    generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, max_size=max_crossings))
    return ClosedBraid(BraidWord(n, [i * s for i, s in gens]), closure)


@st.composite
def wide_closed_braids(draw) -> ClosedBraid:
    """Closures on 2-12 strands (even for plat) of 0-24 crossings.  Trace
    closures on more than 6 strands get at most 12 crossings: their
    2n-point module has up to Catalan(n) states, which the Laurent-ring
    reference would sweep polynomial by polynomial."""
    closure = draw(st.sampled_from(["plat", "trace"]))
    n = draw(st.sampled_from(range(2, 13, 2)) if closure == "plat" else st.integers(2, 12))
    length = draw(st.integers(0, 12 if closure == "trace" and n > 6 else 24))
    generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, min_size=length, max_size=length))
    return ClosedBraid(BraidWord(n, [i * s for i, s in gens]), closure)


@SETTINGS
@given(closed_braids())
def test_sweep_matches_state_sum(k):
    assert bracket_poly(k) == bracket_poly_state_sum(k)


@SETTINGS
@given(closed_braids(), st.floats(0, 2 * math.pi))
def test_numeric_sweep_matches_exact_bracket(k, theta):
    a = cmath.exp(1j * theta)
    poly = bracket_poly(k)
    scale = 1 + sum(abs(c) for c in poly.terms.values())
    assert abs(bracket_eval(k, a) - poly.evaluate(a)) <= 1e-9 * scale


@st.composite
def long_plat_words(draw) -> ClosedBraid:
    """Plat closures on 4 or 6 strands of 100-200 crossings."""
    n = draw(st.sampled_from([4, 6]))
    length = draw(st.integers(100, 200))
    generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, min_size=length, max_size=length))
    return ClosedBraid(BraidWord(n, [i * s for i, s in gens]), "plat")


def test_the_decode_is_the_value_at_the_fibonacci_point():
    assert abs(value_at_fibonacci_point(D) + GOLDEN_RATIO) < 1e-15
    k = ClosedBraid(BraidWord(4, [1, -2, 3, 2, -1, 3]), "plat")
    poly = bracket_poly(k)
    assert abs(value_at_fibonacci_point(poly) - poly.evaluate(FIBONACCI_POINT)) < 1e-14


def test_numeric_sweep_matches_the_exact_decode_on_long_plat_words(monkeypatch):
    # The exact sweep is exact at any length; the cap only guards time.
    # LaurentPoly.evaluate is no reference here: its float sum over the
    # exact coefficients can be off by far more than 1e-12 on such words.
    monkeypatch.setattr(bracket, "CROSSING_CAP", 200)

    @settings(SETTINGS, max_examples=15)
    @given(long_plat_words())
    def check(k):
        exact = value_at_fibonacci_point(bracket_poly(k))
        assert abs(bracket_eval(k, FIBONACCI_POINT) - exact) <= 1e-12 * abs(exact)

    check()


# Invariance moves at full length.  The exact sweep is exact at any
# length, so a move that keeps the diagram's regular isotopy class keeps
# the bracket to the last coefficient, and the words that prob sweeps are
# this long.  Each size is (strands, most crossings): plat words of
# 100-200 crossings, trace words of 100-200 on 4 strands and 100 on 5 or
# 6, where one exact sweep takes about 0.1 s.
PLAT_SIZES = [(4, 200), (6, 200)]
TRACE_SIZES = [(4, 200), (5, 100), (6, 100)]


@st.composite
def long_words(draw, sizes, room: int = 0) -> BraidWord:
    """A word of one of sizes, room letters short of 100 up to its most
    crossings, so that a move may add room letters."""
    n, top = draw(st.sampled_from(sizes))
    length = draw(st.integers(100, top)) - room
    generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, min_size=length, max_size=length))
    return BraidWord(n, [i * s for i, s in gens])


@st.composite
def moved_words(draw, closure: str, move: str) -> tuple[ClosedBraid, ClosedBraid]:
    """A long closure and the same closure with move applied at a drawn
    spot: a braid relation sigma_i sigma_i+1 sigma_i -> sigma_i+1 sigma_i
    sigma_i+1 (of either sign), a far commutation sigma_i sigma_j ->
    sigma_j sigma_i with |i - j| >= 2, or an inserted g g^-1."""
    w = draw(long_words(PLAT_SIZES if closure == "plat" else TRACE_SIZES, room=3 if move == "relation" else 2))
    n, values = w.n_strands, list(w.values)
    spot = draw(st.integers(0, len(values)))
    sign = draw(st.sampled_from([1, -1]))
    if move == "relation":
        i = draw(st.integers(1, n - 2))
        before, after = [i, i + 1, i], [i + 1, i, i + 1]
        before, after = [sign * v for v in before], [sign * v for v in after]
    elif move == "commutation":
        i = draw(st.integers(1, n - 3))
        j = draw(st.integers(i + 2, n - 1))
        other = draw(st.sampled_from([1, -1]))
        before, after = [sign * i, other * j], [other * j, sign * i]
    else:
        g = sign * draw(st.integers(1, n - 1))
        before, after = [], [g, -g]
    words = [BraidWord(n, values[:spot] + letters + values[spot:]) for letters in (before, after)]
    return ClosedBraid(words[0], closure), ClosedBraid(words[1], closure)


def lifted_cap(monkeypatch) -> None:
    # The cap only guards time; these words are swept in well under a second.
    monkeypatch.setattr(bracket, "CROSSING_CAP", 200)


def test_the_decode_takes_any_q_and_keeps_its_table_at_q_10(monkeypatch):
    # cos and sin of k pi/10 by rotating with cos(pi/10) = sqrt(10 + 2
    # sqrt 5) / 4 and sin(pi/10) = (sqrt 5 - 1) / 4, the decode's table
    # before it took any q.
    with localcontext() as ctx:
        ctx.prec = 90
        root5 = Decimal(5).sqrt()
        c, s = (10 + 2 * root5).sqrt() / 4, (root5 - 1) / 4
        table = [(Decimal(1), Decimal(0))]
        for _ in range(19):
            re, im = table[-1]
            table.append((re * c - im * s, re * s + im * c))
    assert len(fibonacci_decode.powers(10)) == 20
    for (re, im), (want_re, want_im) in zip(fibonacci_decode.powers(10), table):
        assert abs(re - want_re) < Decimal("1e-79") and abs(im - want_im) < Decimal("1e-79")
    # and the same float as the old decode on a long word's bracket
    lifted_cap(monkeypatch)
    rng = random.Random(18)
    poly = bracket_poly(ClosedBraid(BraidWord(6, [rng.choice([1, -1]) * rng.randrange(1, 6) for _ in range(150)]),
                                    "plat"))
    buckets = [0] * 20
    for exponent, coeff in poly.terms.items():
        buckets[exponent % 20] += coeff
    with localcontext() as ctx:
        ctx.prec = 80
        want = complex(float(sum(b * c for b, (c, _) in zip(buckets, table))),
                       float(sum(b * s for b, (_, s) in zip(buckets, table))))
    assert value_at_fibonacci_point(poly) == want
    assert value_at_root(D, 12) == -math.sqrt(3) + 0j
    k = ClosedBraid(BraidWord(5, [1, -2, 3, 4, 2, -1, 3]), "trace")
    poly = bracket_poly(k)
    for q in (3, 12):
        assert abs(value_at_root(poly, q) - poly.evaluate(cmath.exp(1j * math.pi / q))) < 1e-13


@st.composite
def mid_trace_words(draw) -> ClosedBraid:
    """Trace closures on 4-6 strands of 50-100 crossings."""
    n = draw(st.integers(4, 6))
    length = draw(st.integers(50, 100))
    generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, min_size=length, max_size=length))
    return ClosedBraid(BraidWord(n, [i * s for i, s in gens]), "trace")


@pytest.mark.parametrize("closure, q", [("trace", 10), ("plat", 12), ("trace", 12)])
def test_numeric_sweep_matches_the_exact_decode_at_roots_of_unity(monkeypatch, closure, q):
    # Trace words at the Fibonacci point, and both closures at e^(i pi/12),
    # where d = -sqrt 3, held to the exact bracket's decode there.  The
    # float sweep's rounding scales with the size of its coefficients, not
    # with the value: a 6-strand trace word whose bracket is about 0.1 at
    # the Fibonacci point is off by about 1.2e-12 relative, 1.3e-13
    # absolute.  So a value below 1 is held to 1e-12 absolute.
    lifted_cap(monkeypatch)

    @settings(SETTINGS, max_examples=15)
    @given(long_plat_words() if closure == "plat" else mid_trace_words())
    def check(k):
        exact = value_at_root(bracket_poly(k), q)
        assert abs(bracket_eval(k, cmath.exp(1j * math.pi / q)) - exact) <= 1e-12 * max(abs(exact), 1)

    check()


@pytest.mark.parametrize("closure", ["plat", "trace"])
@pytest.mark.parametrize("move", ["relation", "commutation", "cancellation"])
def test_moves_keep_the_bracket_of_long_words(monkeypatch, closure, move):
    lifted_cap(monkeypatch)

    @settings(SETTINGS, max_examples=6)
    @given(moved_words(closure, move))
    def check(pair):
        k, moved = pair
        assert len(moved.braid) <= 200
        assert bracket_poly(moved) == bracket_poly(k)

    check()


def test_conjugation_keeps_the_bracket_of_long_trace_words(monkeypatch):
    # g beta g^-1, unreduced, has the trace closure of beta.
    lifted_cap(monkeypatch)

    @settings(SETTINGS, max_examples=6)
    @given(long_words(TRACE_SIZES, room=8).flatmap(lambda beta: st.tuples(st.just(beta), words_on(beta.n_strands, 4))))
    def check(words):
        beta, g = words
        conjugate = BraidWord(beta.n_strands, g.values + beta.values + inverse(g).values)
        assert bracket_poly(ClosedBraid(conjugate, "trace")) == bracket_poly(ClosedBraid(beta, "trace"))

    check()


def test_markov_stabilisation_of_long_trace_words_is_a_kink(monkeypatch):
    # sigma_m^s inserted anywhere into beta on m + 1 strands multiplies
    # the trace bracket by -A^(-3s), the factor the README states.
    lifted_cap(monkeypatch)

    @settings(SETTINGS, max_examples=6)
    # Each base is a strand narrower than a trace size, so the stabilised
    # word is of that size.
    @given(long_words([(n - 1, top) for n, top in TRACE_SIZES], room=1), st.sampled_from([1, -1]),
           st.integers(0, 200))
    def check(beta, s, spot):
        m, values = beta.n_strands, list(beta.values)
        spot %= len(values) + 1
        stabilised = BraidWord(m + 1, values[:spot] + [s * m] + values[spot:])
        want = bracket_poly(ClosedBraid(beta, "trace")).shifted(-3 * s, -1)
        assert bracket_poly(ClosedBraid(stabilised, "trace")) == want

    check()


def test_a_kink_at_a_plat_cap_multiplies_the_bracket_by_minus_a_cubed(monkeypatch):
    # sigma_i^s on a capped pair (i odd), first or last in the word, twists
    # the cap: the bracket takes the factor -A^(3s).
    lifted_cap(monkeypatch)

    @settings(SETTINGS, max_examples=6)
    @given(long_words(PLAT_SIZES, room=1), st.sampled_from([1, -1]), st.integers(0, 2), st.booleans())
    def check(beta, s, cap, first):
        n, values = beta.n_strands, list(beta.values)
        kink = s * (2 * (cap % (n // 2)) + 1)
        twisted = BraidWord(n, [kink] + values if first else values + [kink])
        want = bracket_poly(ClosedBraid(beta, "plat")).shifted(3 * s, -1)
        assert bracket_poly(ClosedBraid(twisted, "plat")) == want

    check()


@SETTINGS
@given(wide_closed_braids())
def test_packed_bracket_matches_the_laurent_ring(k):
    assert bracket_poly(k) == laurent_ring_bracket(k)


@SETTINGS
@given(wide_closed_braids())
def test_jones_is_the_bracket_times_the_writhe_monomial(k):
    w = writhe(k.braid)
    f = LaurentPoly({-3 * w: (-1) ** (w % 2)}) * bracket_poly(k)
    assert jones_from_bracket(k, "paper") == f
    assert jones_from_bracket(k, "standard") == f.mirrored()


def check_bracket(k: ClosedBraid, want: LaurentPoly) -> None:
    """bracket_poly(k), which sweeps a trace word in word order or
    radially, against want, and the state sum against want up to 14
    crossings."""
    if len(k.braid) <= 14:
        assert bracket_poly_state_sum(k) == want
    assert bracket_poly(k) == want


def check_exact(k: ClosedBraid) -> None:
    """bracket_poly(k) and the state sum against the Laurent-ring sweep
    closed at the end."""
    check_bracket(k, laurent_ring_bracket(k))


def rotated(k: ClosedBraid, r: int) -> ClosedBraid:
    values = k.braid.values
    return ClosedBraid(BraidWord(k.braid.n_strands, values[r:] + values[:r]), k.closure)


@st.composite
def trace_words(draw) -> ClosedBraid:
    """Trace closures on 2-6 strands of up to 10 crossings."""
    n = draw(st.integers(2, 6))
    generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, max_size=10))
    return ClosedBraid(BraidWord(n, [i * s for i, s in gens]), "trace")


@settings(SETTINGS, max_examples=40)
@given(trace_words())
def test_every_rotation_of_a_trace_word(k):
    for r in range(max(len(k.braid), 1)):
        check_exact(rotated(k, r))


@st.composite
def words_with_absent_indices(draw) -> ClosedBraid:
    """Closures on 3-8 strands whose words leave out at least one generator
    index, so the closure splits into unlinked parts."""
    closure = draw(st.sampled_from(["plat", "trace"]))
    n = draw(st.sampled_from([4, 6, 8]) if closure == "plat" else st.integers(3, 8))
    absent = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=n - 2))
    present = sorted(set(range(1, n)) - absent)
    generator = st.tuples(st.sampled_from(present), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, max_size=12))
    return ClosedBraid(BraidWord(n, [i * s for i, s in gens]), closure)


@SETTINGS
@given(words_with_absent_indices())
def test_words_with_absent_indices(k):
    check_exact(k)


def test_words_without_crossings():
    # k unlinked circles have bracket d^(k-1).  The empty trace word on 8
    # strands has coefficients up to 35, so it needs 7-bit digits where
    # W = bitlength(3^c) + 1 gives 2.
    for n in range(1, 13):
        for closure in ("plat", "trace") if n % 2 == 0 else ("trace",):
            k = ClosedBraid(BraidWord(n), closure)
            circles = n // 2 if closure == "plat" else n
            want = LaurentPoly.one()
            for _ in range(circles - 1):
                want = want * D
            check_exact(k)
            assert bracket_poly(k) == want


def schedule_cost(n: int, gens: list[int], step: list[int]) -> int:
    """The sum over crossings of 2^open, straight from the definition, for
    the trace closure of gens on n strands swept with the crossing at word
    position x as step[x]: around the closed braid an edge joins each
    crossing on a track to the next one, and after each step open counts
    the edges with exactly one end swept so far."""
    edges = []
    for p in range(n):
        xs = [x for x, i in enumerate(gens) if p in (i - 1, i)]
        edges += zip(xs, xs[1:] + xs[:1])
    cost = 0
    for j in range(len(gens)):
        cost += 2 ** sum((step[x] <= j) != (step[y] <= j) for x, y in edges)
    return cost


def test_the_planner_chooses_the_cheaper_schedule():
    rng = random.Random(13)
    chosen = set()
    for _ in range(300):
        n = rng.randrange(2, 31)
        gens = [rng.randrange(1, n) for _ in range(rng.randrange(0, 25))]
        c = len(gens)
        order = sorted(range(c), key=lambda x: (gens[x], x))
        radial = [order.index(x) for x in range(c)]
        want = schedule_cost(n, gens, radial) < schedule_cost(n, gens, list(range(c)))
        assert bracket._trace_plan(bracket._tracks(BraidWord(n, gens))) == want
        chosen.add(want)
    assert chosen == {False, True}


def test_the_planner_picks_within_five_percent_of_the_best_plan():
    # The same check runs without pytest: PYTHONPATH=src python tests/plan_quality.py
    result = plan_quality.check()
    assert result["words"] == 3000
    assert result["best_state_steps"] <= result["chosen_state_steps"]
    assert plan_quality.MAX_EXCESS == 0.05
    assert plan_quality.within_bar(result), result


def peak_states(k: ClosedBraid, sweep_steps, monkeypatch) -> int:
    """The most states bracket_poly's sweep of k holds after any step."""
    calls = []
    sweep = bracket._sweep
    monkeypatch.setattr(bracket, "_sweep", lambda schedule, **ring: calls.append((schedule, ring)) or sweep(schedule, **ring))
    bracket_poly(k)
    monkeypatch.setattr(bracket, "_sweep", sweep)
    ((schedule, ring),) = calls
    return max(len(states) for _, states in sweep_steps(schedule, ring))


def test_a_long_thin_trace_word_stays_small(sweep_steps, monkeypatch):
    # 23: 1 1 2 3 ... 21 22 22, 24 crossings.  Closed only at the end, its
    # sweep passed 4 million states; closing each arc after its last
    # crossing keeps it at a handful.
    k = ClosedBraid(BraidWord(23, [1, *range(1, 23), 22]), "trace")
    assert peak_states(k, sweep_steps, monkeypatch) <= 4


@st.composite
def words_on(draw, n: int, max_crossings: int) -> BraidWord:
    """Words on n strands of up to max_crossings crossings."""
    if n == 1:
        return BraidWord(1)
    generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, max_size=max_crossings))
    return BraidWord(n, [i * s for i, s in gens])


@SETTINGS
@given(st.integers(1, 8).flatmap(lambda m: words_on(m, 16)), st.sampled_from([1, -1]))
def test_trace_stabilisation_multiplies_the_bracket_by_a_kink(beta, s):
    # beta sigma_m^s on m + 1 strands is beta's trace closure with one kink
    # more: the bracket takes a factor -A^(-3s).  The writhe read off the
    # word grows by s, so f[K] moves by A^(-6s): it is not Markov-stable.
    m = beta.n_strands
    base = ClosedBraid(beta, "trace")
    stabilised = ClosedBraid(BraidWord(m + 1, [*beta.values, s * m]), "trace")
    check_bracket(stabilised, bracket_poly(base).shifted(-3 * s, -1))
    assert kauffman_invariant(stabilised) == kauffman_invariant(base).shifted(-6 * s)


@SETTINGS
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(words_on(n, 12), words_on(n, 6))))
def test_an_unreduced_conjugate_has_the_trace_bracket_of_the_word(words):
    beta, g = words
    conjugate = BraidWord(beta.n_strands, g.values + beta.values + inverse(g).values)
    check_bracket(ClosedBraid(conjugate, "trace"), bracket_poly(ClosedBraid(beta, "trace")))


def bracket_in(k: ClosedBraid, radial: bool) -> LaurentPoly:
    """bracket_poly(k) with its trace schedule forced: radial, or word
    order."""
    with mock.patch.object(bracket, "_trace_plan", lambda tracks: radial):
        return bracket_poly(k)


@st.composite
def annulus_words(draw) -> ClosedBraid:
    """Trace closures on 1-12 strands of up to 24 crossings, each index
    used 0-4 times: absent indices, tracks no crossing touches, tracks
    touched once (kinks) and the empty word all come up."""
    n = draw(st.integers(1, 12))
    counts = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 4]), min_size=n - 1, max_size=n - 1))
    indices = [i for i, m in enumerate(counts, 1) for _ in range(m)][:24]
    order = draw(st.permutations(indices))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(order), max_size=len(order)))
    return ClosedBraid(BraidWord(n, [i * s for i, s in zip(order, signs)]), "trace")


@SETTINGS
@given(annulus_words())
def test_the_radial_schedule_gives_the_bracket(k):
    got = bracket_in(k, radial=True)
    if len(k.braid) <= 14:
        assert got == bracket_poly_state_sum(k)
    assert got == bracket_in(k, radial=False)


@SETTINGS
@given(annulus_words())
def test_the_unclosed_radial_schedule_gives_the_bracket(k):
    # The radial schedule describes the closed diagram on its own: swept on
    # the Laurent ring with no closing steps and closed at the end by its
    # involution, it gives the bracket.
    got = laurent_ring_bracket(k, bracket._radial_schedule(k.braid, bracket._tracks(k.braid)))
    if len(k.braid) <= 14:
        assert got == bracket_poly_state_sum(k)
    assert got == bracket_poly(k)


def test_a_radial_schedule_without_the_weight_swap_is_caught():
    # Turned to sweep outward, sigma_i^s is weighted like sigma_i^(-s).
    # The same schedule with the word's own signs gives other brackets.
    source = inspect.getsource(bracket._radial_schedule)
    swapped = "-1 if values[x] > 0 else 1"
    assert source.count(swapped) == 1
    namespace = dict(vars(bracket))
    exec(source.replace(swapped, "1 if values[x] > 0 else -1"), namespace)
    rng = random.Random(17)
    caught = 0
    for _ in range(30):
        n = rng.randrange(2, 9)
        k = ClosedBraid(BraidWord(n, [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(8)]), "trace")
        with mock.patch.object(bracket, "_radial_schedule", namespace["_radial_schedule"]):
            if bracket_in(k, radial=True) != bracket_poly_state_sum(k):
                caught += 1
    assert caught > 0


def pool_word(rng: random.Random, n: int, c: int) -> BraidWord:
    """A word of the benchmark pool's shape: c generators whose indices
    repeat one seeded order of 1..n-1, with seeded signs."""
    order = list(range(1, n))
    rng.shuffle(order)
    return BraidWord(n, [rng.choice([1, -1]) * order[j % len(order)] for j in range(c)])


def test_the_planner_sweeps_wide_words_radially_and_narrow_ones_in_word_order():
    def radial(word: BraidWord) -> bool:
        return bracket._trace_plan(bracket._tracks(word))

    rng = random.Random(15)
    for c in range(20, 25):
        for _ in range(4):
            assert radial(pool_word(rng, 8, c))
            assert not radial(pool_word(rng, 4, c))
    # Ties go to word order: both schedules cost one state per crossing.
    for n in range(1, 13):
        assert not radial(BraidWord(n))
        assert not radial(BraidWord(n + 1, [-n]))


def test_an_interleaved_wide_word_stays_small(sweep_steps, monkeypatch):
    # 30: 1 3 5 ... 29 2 4 ... 18, 24 crossings.  In word order the sweep
    # peaks at 512 states; outward through the annulus it holds one state
    # at a time.
    k = ClosedBraid(BraidWord(30, [*range(1, 30, 2), *range(2, 19, 2)]), "trace")
    assert peak_states(k, sweep_steps, monkeypatch) <= 2
