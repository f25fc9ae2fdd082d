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

from hypothesis import given, settings
from hypothesis import strategies as st

from stockbraid import (
    BraidWord,
    ClosedBraid,
    bracket,
    bracket_eval,
    bracket_poly,
    format_word,
    free_reduce,
)
from stockbraid.cli import main
from stockbraid.closure import _cycles
from stockbraid.laurent import LaurentPoly
from stockbraid.outcome import interference_braid

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)
POINTS = (cmath.exp(1j * cmath.pi / 10), 1j, 0.7 + 0.2j, 1.3 - 0.4j)


def tuple_keyed_sweep(k, one, weight_pos, weight_neg, d):
    """The sweep as it was before interning: states keyed by their
    matchings, the cap-cup smoothing rebuilt for every state and step."""
    start, offset, close = bracket._module(k)
    states = {start: one}
    for g in k.braid.generators:
        a = offset + g.index - 1
        b = a + 1
        w_cup, w_vert, w_loop = weight_pos if g.exponent > 0 else weight_neg
        nxt = {}
        for m, coeff in states.items():
            vert_coeff = coeff * w_vert
            prev = nxt.get(m)
            nxt[m] = vert_coeff if prev is None else prev + vert_coeff
            if m[a] == b:
                cup_coeff = coeff * w_loop * d
                key = m
            else:
                j, kk = m[a], m[b]
                m2 = list(m)
                m2[j], m2[kk] = kk, j
                m2[a], m2[b] = b, a
                key = tuple(m2)
                cup_coeff = coeff * w_cup
            prev = nxt.get(key)
            nxt[key] = cup_coeff if prev is None else prev + cup_coeff
        states = nxt
    return states, close


def numeric_ring(a: complex) -> dict:
    a_inv = 1 / a
    d = -(a * a) - (a_inv * a_inv)
    return {"one": complex(1), "weight_pos": (a, a_inv, a), "weight_neg": (a_inv, a, a_inv), "d": d}


# Exact Laurent-polynomial weights: the reference for bracket_poly's packed ring.
A, A_INV = LaurentPoly({1: 1}), LaurentPoly({-1: 1})
EXACT_RING = {
    "one": LaurentPoly.one(),
    "weight_pos": (A, A_INV, A),
    "weight_neg": (A_INV, A, A_INV),
    "d": LaurentPoly({2: -1, -2: -1}),
}


def parts(z: complex) -> tuple[str, str]:
    return repr(z.real), repr(z.imag)


def numeric_items(states: dict) -> list:
    return [(m, parts(c)) for m, c in states.items()]


def assert_bit_identical(sweep, k: ClosedBraid, a: complex) -> None:
    """sweep gives the reference's state vector and bracket value at A = a."""
    ring = numeric_ring(a)
    got, got_close = sweep(k, **ring)
    want, want_close = tuple_keyed_sweep(k, **ring)
    assert got_close == want_close
    assert numeric_items(got) == numeric_items(want)
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
    return ClosedBraid(BraidWord.from_ints(n, [i * s for i, s in gens]), closure)


@SETTINGS
@given(closed_braids(max_crossings=300))
def test_numeric_sweep_is_bit_identical(k):
    for a in POINTS:
        assert_bit_identical(bracket._sweep, k, a)


@SETTINGS
@given(closed_braids(max_crossings=14))
def test_exact_sweep_is_identical(k):
    got, got_close = bracket._sweep(k, **EXACT_RING)
    want, want_close = tuple_keyed_sweep(k, **EXACT_RING)
    assert got_close == want_close
    assert list(got.items()) == list(want.items())


def seeded_words(seed: int, count: int) -> list[ClosedBraid]:
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        closure = rng.choice(["plat", "trace"])
        n = rng.choice([4, 6, 8]) if closure == "plat" else rng.choice([3, 4, 5])
        ints = [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(rng.randrange(20, 120))]
        words.append(ClosedBraid(BraidWord.from_ints(n, ints), closure))
    return words


def test_a_sweep_in_sorted_state_order_is_caught():
    # The same sweep, but visiting each step's states in id order instead
    # of insertion order: the same states, filled in another order.  The
    # sweep has one state loop for crossings and one for closing arcs.
    source = inspect.getsource(bracket._sweep)
    loop = "for s, coeff in states.items():"
    assert source.count(loop) == 2
    namespace = dict(vars(bracket))
    exec(source.replace(loop, "for s, coeff in sorted(states.items()):"), namespace)
    sorted_sweep = namespace["_sweep"]

    caught = 0
    for k in seeded_words(seed=3, count=12):
        ring = numeric_ring(POINTS[0])
        assert set(sorted_sweep(k, **ring)[0]) == set(bracket._sweep(k, **ring)[0])
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
        for coeff in bracket._sweep(k, **numeric_ring(1j))[0].values():
            zeros.update(repr(x) for x in (coeff.real, coeff.imag) if x == 0)
    assert zeros == {"0.0", "-0.0"}


def laurent_bracket(k: ClosedBraid) -> LaurentPoly:
    """The bracket from the sweep on the Laurent-polynomial ring."""
    states, close = bracket._sweep(k, **EXACT_RING)
    total = LaurentPoly()
    for m, coeff in states.items():
        for _ in range(_cycles(m, close) - 1):
            coeff = coeff * EXACT_RING["d"]
        total = total + coeff
    return total


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
        words.append(ClosedBraid(BraidWord.from_ints(n, ints), closure))
    return words


def test_packed_bracket_matches_the_laurent_ring_at_the_cap():
    for k in words_of(seed=8, count=16, strands=[8], crossings=[24]):
        assert bracket_poly(k) == laurent_bracket(k)


def test_packed_bracket_matches_the_laurent_ring_above_the_cap(monkeypatch):
    monkeypatch.setattr(bracket, "CROSSING_CAP", 40)
    for k in words_of(seed=9, count=24, strands=[4, 5, 6], crossings=range(25, 41)):
        assert bracket_poly(k) == laurent_bracket(k)


# The sweep on the Laurent ring closed on bracket_poly's schedule: a join
# weighs 1 and a loop d.
LAURENT_CLOSING = (LaurentPoly.one(), EXACT_RING["d"])


def test_packed_states_are_the_laurent_states_times_a_cubed(monkeypatch, sweep_steps):
    # After every step of bracket_poly's closing schedule, every state's
    # packed coefficient decodes to its Laurent coefficient times A^3 per
    # crossing and A^2 per closed arc so far, in the same state order, and
    # the one final state decodes to the bracket.
    calls = []
    sweep = bracket._sweep

    def recorded(k, **ring):
        calls.append((k, ring))
        return sweep(k, **ring)

    monkeypatch.setattr(bracket, "_sweep", recorded)
    for k in words_of(seed=10, count=12, strands=[2, 3, 4, 6], crossings=range(0, 25)):
        want = bracket_poly(k)
        (swept, ring), = calls
        calls.clear()
        width = ring["weight_pos"][1].bit_length() - 1
        packed = sweep_steps(sweep, swept, ring)
        laurent = sweep_steps(sweep, swept, dict(EXACT_RING, closing=LAURENT_CLOSING))
        # every crossing once, and every closure arc but the last once
        assert len(packed) == len(swept.braid) + len(bracket._module(swept)[2]) // 2 - 1
        shift = 0
        for (kind, p_states), (_, l_states) in zip(packed, laurent):
            shift += 3 if kind == "crossing" else 2
            assert list(p_states) == list(l_states)
            decoded = [bracket._unpack(p, width, 0) for p in p_states.values()]
            assert decoded == [coeff.shifted(shift) for coeff in l_states.values()]
        (final,) = packed[-1][1].values() if packed else (1,)
        assert bracket._unpack(final, width, -shift) == want


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
        if narrow_bracket(k) != laurent_bracket(k):
            caught += 1
    assert caught > 0


def test_a_width_without_the_arc_factor_is_caught():
    # W = bitlength(3^c) + 1 leaves out the 2^(k-1) that closing k - 1
    # arcs can multiply a digit by: the unlinked circles of an empty trace
    # word on 8 strands already need 7-bit digits, where it gives 2.
    short_bracket = _narrowed("width = (3 ** c).bit_length() + 1")
    empty = [ClosedBraid(BraidWord(n), "trace") for n in range(1, 13)]
    caught = [k.braid.n_strands for k in empty if short_bracket(k) != laurent_bracket(k)]
    assert 8 in caught


def interference_case():
    """A seeded system word on 11 strands and a gamma on 12 whose
    interference braid, freely reduced, has at least 400 crossings."""
    rng = random.Random(2014)
    sigma = free_reduce(
        BraidWord.from_ints(11, [rng.choice([1, -1]) * rng.randrange(1, 11) for _ in range(260)])
    )
    gamma = BraidWord.from_ints(12, [rng.choice([1, -1]) * rng.randrange(1, 12) for _ in range(12)])
    return sigma, gamma


def test_prob_builds_each_cupcap_move_once(capsys, monkeypatch):
    sigma, gamma = interference_case()
    braid = free_reduce(interference_braid(sigma, gamma))
    assert braid.n_strands == 12 and len(braid) >= 400
    argv = ["prob", format_word(sigma), "--gamma", format_word(gamma)]

    calls = []
    cupcap = bracket._cupcap

    def counted(m, a):
        calls.append(a)
        return cupcap(m, a)

    monkeypatch.setattr(bracket, "_cupcap", counted)
    assert main(argv) == 0
    out = capsys.readouterr().out
    # 11 generator positions times Catalan(6) = 132 plat states, against
    # one move per state and crossing without interning.
    assert 0 < len(calls) <= 11 * 132

    monkeypatch.setattr(bracket, "_sweep", tuple_keyed_sweep)
    assert main(argv) == 0
    assert capsys.readouterr().out == out

