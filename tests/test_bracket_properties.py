"""Generated cross-checks of the three bracket paths: the exact sweep
against the state-sum oracle and against the sweep on the Laurent ring,
the numeric sweep against the exact bracket evaluated at a point of the
unit circle, and the Jones polynomial against the bracket times an
explicit writhe monomial.  The exact sweep closes each closure arc as
soon as it can and may start a trace word at another rotation, while the
Laurent-ring reference sweeps the word as given and closes it at the end.
Hypothesis runs derandomized, so every run tries the same examples."""

import cmath
import math
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
    bracket_poly_state_sum,
    jones_from_bracket,
    writhe,
)
from stockbraid.closure import _cycles
from stockbraid.laurent import LaurentPoly

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def closed_braids(draw, max_crossings: int = 12) -> ClosedBraid:
    closure = draw(st.sampled_from(["plat", "trace"]))
    n = draw(st.sampled_from([2, 4, 6, 8]) if closure == "plat" else st.integers(2, 8))
    generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, max_size=max_crossings))
    return ClosedBraid(BraidWord.from_ints(n, [i * s for i, s in gens]), closure)


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
    return ClosedBraid(BraidWord.from_ints(n, [i * s for i, s in gens]), closure)


A, A_INV, D = LaurentPoly({1: 1}), LaurentPoly({-1: 1}), LaurentPoly({2: -1, -2: -1})


def laurent_ring_bracket(k: ClosedBraid) -> LaurentPoly:
    """The bracket from the sweep with LaurentPoly coefficients, each state
    multiplied by d once per loop beyond the first."""
    states, close = bracket._sweep(
        k, one=LaurentPoly.one(), weight_pos=(A, A_INV, A), weight_neg=(A_INV, A, A_INV), d=D
    )
    total = LaurentPoly()
    for m, coeff in states.items():
        for _ in range(_cycles(m, close) - 1):
            coeff = coeff * D
        total = total + coeff
    return total


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


def check_exact(k: ClosedBraid) -> None:
    """bracket_poly(k), as it chooses a rotation and rotating every trace
    word it can, against the state sum (up to 14 crossings) and the
    Laurent-ring sweep closed at the end."""
    want = laurent_ring_bracket(k)
    if len(k.braid) <= 14:
        assert bracket_poly_state_sum(k) == want
    assert bracket_poly(k) == want
    with mock.patch.object(bracket, "ROTATE_SCORE", 0):
        assert bracket_poly(k) == want


def rotated(k: ClosedBraid, r: int) -> ClosedBraid:
    gens = k.braid.generators
    return ClosedBraid(BraidWord(k.braid.n_strands, gens[r:] + gens[:r]), k.closure)


@st.composite
def trace_words(draw) -> ClosedBraid:
    """Trace closures on 2-6 strands of up to 10 crossings."""
    n = draw(st.integers(2, 6))
    generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, max_size=10))
    return ClosedBraid(BraidWord.from_ints(n, [i * s for i, s in gens]), "trace")


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
    return ClosedBraid(BraidWord.from_ints(n, [i * s for i, s in gens]), closure)


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


def score(gens: list[int]) -> int:
    """sum over crossings j of 2^open_j, straight from the definition."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for j, i in enumerate(gens):
        for p in (i - 1, i):
            first.setdefault(p, j)
            last[p] = j
    return sum(2 ** sum(first[p] <= j < last[p] for p in first) for j in range(len(gens)))


def test_the_chosen_rotation_has_the_least_score():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.choice([2, 3, 5, 7, 8, 12, 30])
        gens = [rng.randrange(1, n) for _ in range(rng.randrange(0, 25))]
        word = BraidWord.from_ints(n, gens)
        scores = [score(gens[r:] + gens[:r]) for r in range(len(gens))] or [0]
        best = scores.index(min(scores))
        with mock.patch.object(bracket, "ROTATE_SCORE", 0):
            assert bracket._cheapest_rotation(word) == best
        # Otherwise only a word whose own score averages ROTATE_SCORE per
        # crossing is rotated.
        expensive = scores[0] >= bracket.ROTATE_SCORE * len(gens) > 0
        assert bracket._cheapest_rotation(word) == (best if expensive else 0)


def test_a_long_thin_trace_word_stays_small(sweep_steps, monkeypatch):
    # 23: 1 1 2 3 ... 21 22 22, 24 crossings.  Closed only at the end, its
    # sweep passed 4 million states; closing each arc after its last
    # crossing keeps it at a handful.
    k = ClosedBraid(BraidWord.from_ints(23, [1, *range(1, 23), 22]), "trace")
    calls = []
    sweep = bracket._sweep
    monkeypatch.setattr(bracket, "_sweep", lambda k, **ring: calls.append((k, ring)) or sweep(k, **ring))
    bracket_poly(k)
    ((swept, ring),) = calls
    peak = max(len(states) for _, states in sweep_steps(sweep, swept, ring))
    assert peak <= 4
