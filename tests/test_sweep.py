"""The interned Temperley-Lieb sweep against the tuple-keyed sweep it
replaced, kept below as a reference copy, and the packed-integer ring of
``bracket_poly`` against the sweep on Laurent polynomials.

Interning must not change a single bit: the state vectors have to come
out item for item in the same order, and ``bracket_eval`` has to agree on
the ``repr`` of its real and imaginary parts, so a -0.0 against a 0.0
counts as a difference.  Hypothesis runs derandomized, so every run tries
the same examples.
"""

import cmath
import inspect
import random
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stockbraid import (
    FIBONACCI_POINT,
    BraidWord,
    ClosedBraid,
    bracket,
    bracket_eval,
    bracket_poly,
    format_word,
    free_reduce,
)
from stockbraid.cli import main
from stockbraid.closure import _involution
from stockbraid.outcome import interference_braid

from laurent_ring import EXACT_RING, laurent_ring_bracket

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)
POINTS = (cmath.exp(1j * cmath.pi / 10), 1j, 0.7 + 0.2j, 1.3 - 0.4j)


def tuple_keyed_sweep(schedule, one, weight_pos, weight_neg, d, closing):
    """The sweep as it was before interning: states keyed by their
    matchings, the cap-cup smoothing, or the closing, rebuilt for every
    state and step.  A closing step weighs a state ``join`` when it joins
    two open ends and ``loop`` when a and b are already paired."""
    states = {schedule.start: one}
    for a, b, sign in schedule.steps:
        nxt = {}
        if not sign:
            w_join, w_close = closing
            for m, coeff in states.items():
                if m[a] == b:
                    key, coeff = m, coeff * w_close
                else:
                    key, coeff = joined(m, a, b), coeff * w_join
                prev = nxt.get(key)
                nxt[key] = coeff if prev is None else prev + coeff
            states = nxt
            continue
        w_cup, w_vert, w_loop = weight_pos if sign > 0 else weight_neg
        for m, coeff in states.items():
            vert_coeff = coeff * w_vert
            prev = nxt.get(m)
            nxt[m] = vert_coeff if prev is None else prev + vert_coeff
            if m[a] == b:
                cup_coeff = coeff * w_loop * d
                key = m
            else:
                key = joined(m, a, b)
                cup_coeff = coeff * w_cup
            prev = nxt.get(key)
            nxt[key] = cup_coeff if prev is None else prev + cup_coeff
        states = nxt
    return states


def joined(m, a, b):
    """m with the partners of a and b joined and a paired with b."""
    j, kk = m[a], m[b]
    m2 = list(m)
    m2[j], m2[kk] = kk, j
    m2[a], m2[b] = b, a
    return tuple(m2)


def numeric_ring(a: complex) -> dict:
    a_inv = 1 / a
    d = -(a * a) - (a_inv * a_inv)
    return {"one": complex(1), "weight_pos": (a, a_inv, a), "weight_neg": (a_inv, a, a_inv), "d": d,
            "closing": (1, d)}



def parts(z: complex) -> tuple[str, str]:
    return repr(z.real), repr(z.imag)


def numeric_items(states: dict) -> list:
    return [(m, parts(c)) for m, c in states.items()]


def assert_bit_identical(sweep, k: ClosedBraid, a: complex) -> None:
    """sweep gives the reference's state vector and bracket value at A = a."""
    ring = numeric_ring(a)
    schedule = bracket._word_schedule(k)
    assert numeric_items(sweep(schedule, **ring)) == numeric_items(tuple_keyed_sweep(schedule, **ring))
    with mock.patch.object(bracket, "_sweep", sweep):
        value = bracket_eval(k, a)
    with mock.patch.object(bracket, "_sweep", tuple_keyed_sweep):
        reference = bracket_eval(k, a)
    assert parts(value) == parts(reference)


@st.composite
def closed_braids(draw, max_crossings: int) -> ClosedBraid:
    """Plat closures on 2-12 strands and trace closures on 2-6 strands
    with up to max_crossings crossings; trace closures on 7-12 strands
    get at most 12, because their 2n-point module has Catalan(n) states
    (58,786 at 11 strands) where the plat module has Catalan(n/2)."""
    closure = draw(st.sampled_from(["plat", "trace"]))
    n = draw(st.sampled_from(range(2, 13, 2)) if closure == "plat" else st.integers(2, 12))
    if closure == "trace" and n > 6:
        max_crossings = min(max_crossings, 12)
    length = draw(st.integers(0, max_crossings))
    generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, min_size=length, max_size=length))
    return ClosedBraid(BraidWord(n, [i * s for i, s in gens]), closure)


@SETTINGS
@given(closed_braids(max_crossings=300))
def test_numeric_sweep_is_bit_identical(k):
    for a in POINTS:
        assert_bit_identical(bracket._sweep, k, a)


@st.composite
def readout_words(draw) -> ClosedBraid:
    """The plat closure that prob sweeps: the free reduction of the
    interference braid of a system word sigma on 3-11 strands (odd, so
    that the braid has an even strand count) with 100-500 generators and
    a gamma with 2-20 generators, up to about 1,000 crossings."""

    def word(n: int, min_size: int, max_size: int) -> BraidWord:
        length = draw(st.integers(min_size, max_size))
        generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
        gens = draw(st.lists(generator, min_size=length, max_size=length))
        return BraidWord(n, [i * s for i, s in gens])

    n = draw(st.sampled_from(range(3, 12, 2)))
    sigma = word(n, 100, 500)
    gamma = word(n + 1, 2, 20)
    return ClosedBraid(free_reduce(interference_braid(sigma, gamma)), "plat")


def longest_readout_word() -> ClosedBraid:
    """readout_words' longest shape, seeded: sigma of 500 generators on 11
    strands and gamma of 20, which Hypothesis rarely draws by itself."""
    rng = random.Random(25)
    sigma = BraidWord(11, [rng.choice([1, -1]) * rng.randrange(1, 11) for _ in range(500)])
    gamma = BraidWord(12, [rng.choice([1, -1]) * rng.randrange(1, 12) for _ in range(20)])
    return ClosedBraid(free_reduce(interference_braid(sigma, gamma)), "plat")


@SETTINGS
@given(readout_words())
@example(longest_readout_word())
def test_long_readout_words_are_bit_identical(k):
    # closed_braids stops at 300 crossings; the readout sweeps longer words.
    assert_bit_identical(bracket._sweep, k, FIBONACCI_POINT)


@SETTINGS
@given(closed_braids(max_crossings=14))
def test_exact_sweep_is_identical(k):
    schedule = bracket._word_schedule(k)
    got = bracket._sweep(schedule, **EXACT_RING)
    assert list(got.items()) == list(tuple_keyed_sweep(schedule, **EXACT_RING).items())


def seeded_words(seed: int, count: int) -> list[ClosedBraid]:
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        closure = rng.choice(["plat", "trace"])
        n = rng.choice([4, 6, 8]) if closure == "plat" else rng.choice([3, 4, 5])
        ints = [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(rng.randrange(20, 120))]
        words.append(ClosedBraid(BraidWord(n, ints), closure))
    return words


def test_the_word_schedule_is_the_word():
    # The reference above sweeps whatever steps it is given, so pin the
    # word order: the word as given, plat on the n top points from the
    # bottom caps, which is bracket_eval's plat schedule, and trace on the
    # top points n..2n-1 from the identity tangle.
    for k in seeded_words(seed=4, count=12):
        n = k.braid.n_strands
        offset = 0 if k.closure == "plat" else n
        schedule = bracket._word_schedule(k)
        assert schedule.steps == [(offset + g.index - 1, offset + g.index, g.exponent) for g in k.braid.generators]
        pairs = [(i, i + 1) for i in range(0, n, 2)] if k.closure == "plat" else [(i, n + i) for i in range(n)]
        assert schedule.start == schedule.close == _involution(pairs, len(schedule.start))


def test_a_sweep_in_sorted_state_order_is_caught():
    # The same sweep, but visiting each step's states in id order instead
    # of insertion order: the same states, filled in another order.  The
    # sweep has one state loop for crossings and one for closing arcs.
    source = inspect.getsource(bracket._sweep)
    loop = "for s in order:"
    assert source.count(loop) == 2
    namespace = dict(vars(bracket))
    exec(source.replace(loop, "for s in sorted(order):"), namespace)
    sorted_sweep = namespace["_sweep"]

    caught = 0
    for k in seeded_words(seed=3, count=12):
        ring = numeric_ring(POINTS[0])
        schedule = bracket._word_schedule(k)
        assert set(sorted_sweep(schedule, **ring)) == set(bracket._sweep(schedule, **ring))
        try:
            assert_bit_identical(sorted_sweep, k, POINTS[0])
        except AssertionError:
            caught += 1
    assert caught > 0


def test_comparison_tells_signed_zeros_apart():
    assert parts(complex(0.0, -0.0)) != parts(0j)
    # A = i makes every weight and d exact, so the sweep produces exact
    # zeros, some of them negative: the bit-identity check sees their signs.
    zeros = set()
    for k in seeded_words(seed=5, count=12):
        for coeff in bracket._sweep(bracket._word_schedule(k), **numeric_ring(1j)).values():
            zeros.update(repr(x) for x in (coeff.real, coeff.imag) if x == 0)
    assert zeros == {"0.0", "-0.0"}


def words_of(seed: int, count: int, strands, crossings) -> list[ClosedBraid]:
    """count seeded closures on strand counts drawn from strands and
    crossing counts drawn from crossings: plat and trace alternate, and an
    odd strand count, which has no plat closure, is closed as a trace."""
    rng = random.Random(seed)
    words = []
    for i in range(count):
        n = rng.choice(strands)
        ints = [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(rng.choice(crossings))]
        closure = "plat" if i % 2 == 0 and n % 2 == 0 else "trace"
        words.append(ClosedBraid(BraidWord(n, ints), closure))
    return words


def test_packed_bracket_matches_the_laurent_ring_at_the_cap():
    for k in words_of(seed=8, count=16, strands=[8], crossings=[24]):
        assert bracket_poly(k) == laurent_ring_bracket(k)


def test_packed_bracket_matches_the_laurent_ring_above_the_cap(monkeypatch):
    monkeypatch.setattr(bracket, "CROSSING_CAP", 40)
    for k in words_of(seed=9, count=24, strands=[4, 5, 6], crossings=range(25, 41)):
        assert bracket_poly(k) == laurent_ring_bracket(k)


def test_packed_states_are_the_laurent_states_times_their_step_shifts(monkeypatch, sweep_steps):
    # After every step of bracket_poly's schedule, word order or radial,
    # every state's packed coefficient decodes to its Laurent coefficient
    # times A^(2 - s) per step of sign s so far: A per positive step, A^3
    # per negative step and A^2 per closed arc, in the same state order,
    # and the one final state, the schedule's closing involution, decodes
    # to the bracket.
    calls = []
    sweep = bracket._sweep

    def recorded(schedule, **ring):
        calls.append((schedule, ring))
        return sweep(schedule, **ring)

    monkeypatch.setattr(bracket, "_sweep", recorded)
    for k in words_of(seed=10, count=12, strands=[2, 3, 4, 6], crossings=range(0, 25)):
        for radial in (False, True) if k.closure == "trace" else (False,):
            monkeypatch.setattr(bracket, "_trace_plan", lambda tracks, radial=radial: radial)
            want = bracket_poly(k)
            (schedule, ring), = calls
            assert want == laurent_ring_bracket(k)
            calls.clear()
            # the cap-cup weight A^2 of either sign is 2^W
            width = ring["weight_pos"][0].bit_length() - 1
            assert ring["weight_neg"][0] == 1 << width
            packed = sweep_steps(schedule, ring)
            laurent = sweep_steps(schedule, EXACT_RING)
            # every crossing once, and every closing but the last once,
            # each right after the last crossing that touches either of its
            # points (before the first if none does) and only past other
            # closings
            kinds = [kind for kind, _ in packed]
            assert kinds.count("crossing") == len(k.braid)
            assert kinds.count("arc") == len(schedule.close) // 2 - 1
            for j, (x, y, sign) in enumerate(schedule.steps):
                if not sign:
                    assert schedule.close[x] == y
                    touching = [i for i, (a, b, s) in enumerate(schedule.steps) if s and {a, b} & {x, y}]
                    last = touching[-1] if touching else -1
                    assert last < j
                    assert all(kind == "arc" for kind in kinds[last + 1 : j])
            shift = 0
            for (_, _, sign), (_, p_states), (_, l_states) in zip(schedule.steps, packed, laurent):
                shift += 2 - sign
                assert list(p_states) == list(l_states)
                decoded = [bracket._unpack(p, width, 0) for p in p_states.values()]
                assert decoded == [coeff.shifted(shift) for coeff in l_states.values()]
            final = packed[-1][1] if packed else {schedule.start: 1}
            assert list(final) == [schedule.close]
            assert bracket._unpack(final[schedule.close], width, -shift) == want


def _narrowed(width: str):
    """bracket_poly with its digit width expression replaced by width."""
    source = inspect.getsource(bracket.bracket_poly)
    exact = "width = (3 ** c << closed).bit_length() + 1"
    assert source.count(exact) == 1
    namespace = dict(vars(bracket))
    exec(source.replace(exact, width), namespace)
    return namespace["bracket_poly"]


def test_a_narrower_digit_width_is_caught():
    # The same bracket_poly with W = c // 2 bits per digit.  The packed
    # sums are exact integers at any width, and only the one final state is
    # decoded, so the narrow digits overflow into their neighbours only
    # where the bracket's own coefficients need more than c // 2 bits:
    # wide strand counts at few crossings.
    narrow_bracket = _narrowed("width = c // 2")
    caught = 0
    for k in words_of(seed=11, count=40, strands=[8, 10, 12], crossings=range(4, 9)):
        if narrow_bracket(k) != laurent_ring_bracket(k):
            caught += 1
    assert caught > 0


def test_a_width_without_the_arc_factor_is_caught():
    # W = bitlength(3^c) + 1 leaves out the 2^(k-1) that closing k - 1
    # arcs can multiply a digit by: the unlinked circles of an empty trace
    # word on 8 strands already need 7-bit digits, where it gives 2.
    short_bracket = _narrowed("width = (3 ** c).bit_length() + 1")
    empty = [ClosedBraid(BraidWord(n), "trace") for n in range(1, 13)]
    caught = [k.braid.n_strands for k in empty if short_bracket(k) != laurent_ring_bracket(k)]
    assert 8 in caught


def interference_case():
    """A seeded system word on 11 strands and a gamma on 12 whose
    interference braid, freely reduced, has at least 400 crossings."""
    rng = random.Random(2014)
    sigma = free_reduce(
        BraidWord(11, [rng.choice([1, -1]) * rng.randrange(1, 11) for _ in range(260)])
    )
    gamma = BraidWord(12, [rng.choice([1, -1]) * rng.randrange(1, 12) for _ in range(12)])
    return sigma, gamma


def test_prob_builds_each_cupcap_move_once(capsys, monkeypatch):
    sigma, gamma = interference_case()
    braid = free_reduce(interference_braid(sigma, gamma))
    assert braid.n_strands == 12 and len(braid) >= 400
    argv = ["prob", format_word(sigma), "--gamma", format_word(gamma)]

    calls = []
    cupcap = bracket._cupcap

    def counted(m, a, b):
        calls.append(a)
        return cupcap(m, a, b)

    monkeypatch.setattr(bracket, "_cupcap", counted)
    assert main(argv) == 0
    out = capsys.readouterr().out
    # 11 generator positions times Catalan(6) = 132 plat states, against
    # one move per state and crossing without interning.
    assert 0 < len(calls) <= 11 * 132

    monkeypatch.setattr(bracket, "_sweep", tuple_keyed_sweep)
    assert main(argv) == 0
    assert capsys.readouterr().out == out

