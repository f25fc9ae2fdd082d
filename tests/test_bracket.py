import cmath
import math
import random

import pytest

from stockbraid import (
    BraidWord,
    ClosedBraid,
    CrossingCapExceeded,
    WordFormatError,
    bracket,
    bracket_eval,
    bracket_poly,
    bracket_poly_state_sum,
    jones_eval,
    jones_from_bracket,
    kauffman_invariant,
    parse_word,
    verify_jones_skein,
    writhe,
)
from stockbraid.bracket import smoothing_states, writhe_corrected
from stockbraid.laurent import LaurentPoly

D_POLY = LaurentPoly({2: -1, -2: -1})
FIB_A = cmath.exp(1j * math.pi / 10)
FIB_T = cmath.exp(2j * math.pi / 5)
PHI = (1 + math.sqrt(5)) / 2


def _random_closure(rng, rand_word, max_len=10):
    w = rand_word(rng, max_len=max_len)
    if w.n_strands % 2 == 0 and rng.random() < 0.6:
        return ClosedBraid(w, "plat")
    return ClosedBraid(w, "trace")


# --- bracket values pinned by hand expansion -------------------------------

def test_unknot_brackets_are_one():
    assert bracket_poly(ClosedBraid(BraidWord(2), "plat")) == LaurentPoly.one()
    assert bracket_poly(ClosedBraid(BraidWord(1), "trace")) == LaurentPoly.one()
    # hand expansion of the trace-closed curl: the A-weighted cup-cap state
    # leaves 1 loop, the A^{-1} vertical state 2, so A + A^{-1} d = -A^{-3}
    assert bracket_poly(ClosedBraid(parse_word("2: 1"), "trace")).terms == {-3: -1}


def test_two_circle_plat_gives_loop_value():
    assert bracket_poly(ClosedBraid(BraidWord(4), "plat")) == D_POLY


def test_positive_kink_hand_expansion():
    # two states: A * (2 loops -> d) + A^{-1} * (1 loop -> 1) = -A^3
    k = ClosedBraid(parse_word("2: 1"), "plat")
    states = sorted(smoothing_states(k))
    assert [(s.choices, s.loops) for s in states] == [((False,), 1), ((True,), 2)]
    assert bracket_poly(k).terms == {3: -1}
    assert bracket_poly_state_sum(k).terms == {3: -1}


def test_a_bracket_with_negative_digits_unpacks():
    # The trace-closed trefoil: its packed sum is positive, and each of its
    # two negative digits reads back only with its carry into the next.
    assert bracket_poly(ClosedBraid(parse_word("2: 1 1 1"), "trace")).terms == {-5: -1, 3: -1, 7: 1}


def test_state_sum_tallies_on_the_smallest_words():
    # No crossing: one state of A-exponent 0, worth d^(loops - 1).
    assert bracket_poly_state_sum(ClosedBraid(parse_word("2:"), "plat")).terms == {0: 1}
    assert bracket_poly_state_sum(ClosedBraid(parse_word("3:"), "trace")).terms == {-4: 1, 0: 2, 4: 1}
    # The trace-closed curl: (A, 1 loop) and (A^-1, 2 loops), so A + A^-1 d = -A^-3.
    k = ClosedBraid(parse_word("2: 1"), "trace")
    assert sorted((s.choices, s.loops) for s in smoothing_states(k)) == [
        ((False,), 2), ((True,), 1)]
    assert bracket_poly_state_sum(k).terms == {-3: -1}


def test_hopf_link_exhaustive_four_state_sum():
    # by hand: states (AA) 2 loops, (AB) and (BA) 1 loop, (BB) 2 loops:
    # A^2 d + 2 + A^-2 d = -A^4 - A^-4
    for k in (ClosedBraid(parse_word("2: 1 1"), "trace"), ClosedBraid(parse_word("4: 2 2"), "plat")):
        loops = {s.choices: s.loops for s in smoothing_states(k)}
        assert loops[(True, True)] == 2
        assert loops[(False, False)] == 2
        assert loops[(True, False)] == 1
        assert loops[(False, True)] == 1
        assert bracket_poly(k).terms == {4: -1, -4: -1}


def test_bracket_eval_examples():
    hopf = ClosedBraid(parse_word("2: 1 1"), "trace")
    value = bracket_eval(hopf, FIB_A)
    assert abs(value - (-2 * math.cos(2 * math.pi / 5))) < 1e-12
    rng = random.Random(3)
    for _ in range(5):
        a = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(bracket_eval(ClosedBraid(BraidWord(2), "plat"), a) - 1) < 1e-12


def test_bracket_eval_rejects_non_finite():
    with pytest.raises(ValueError):
        bracket_eval(ClosedBraid(BraidWord(2), "plat"), complex("inf"))
    with pytest.raises(ValueError):
        jones_eval(ClosedBraid(BraidWord(2), "plat"), complex("nan"))


def test_jones_eval_at_a_tiny_point_is_an_overflow():
    # t^(1/4) = 1e-75, so (-A)^(3 Wr) = A^6 underflows to 0 and its reciprocal overflows.
    with pytest.raises(OverflowError, match=r"overflows at A = \(1\.0+6e-75\+0j\) for writhe 2"):
        jones_eval(ClosedBraid(BraidWord(2, [1, 1]), "plat"), 1e-300)
    with pytest.raises(OverflowError):
        bracket._writhe_corrected_value(1.0, 1e-120, 1)


def test_a_non_finite_bracket_value_is_an_overflow():
    # A^2 and d overflow at 1e170; at 1e-150 they do not, and the value
    # stays finite.  (tests/test_cli.py runs the tiny points.)
    k = ClosedBraid(BraidWord(2, [1]), "plat")
    with pytest.raises(OverflowError, match=r"^the bracket is not finite at A = \(1e\+170\+0j\)$"):
        bracket_eval(k, 1e170)
    assert cmath.isfinite(bracket_eval(k, 1e-150))


def test_writhe_corrected_value_is_the_plain_power_where_it_is_finite():
    for a, w in [(1e-100, 1), (1e-30, 3), (0.3 + 0.9j, -2), (1e30, -3), (2.0, 0)]:
        assert bracket._writhe_corrected_value(0.5 - 1j, a, w) == (-complex(a)) ** (-3 * w) * (0.5 - 1j)


def test_eval_agrees_with_exact_polynomial(rand_word):
    rng = random.Random(31)
    for _ in range(60):
        k = _random_closure(rng, rand_word)
        poly = bracket_poly(k)
        a = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(poly.evaluate(a) - bracket_eval(k, a)) < 1e-9


def _value_at_i(poly):
    """poly at A = i, summed in integers: A^e is 1, i, -1 or -i by e mod 4."""
    sums = [0, 0, 0, 0]
    for e, c in poly.terms.items():
        sums[e % 4] += c
    return complex(sums[0] - sums[2], sums[1] - sums[3])


def test_trace_eval_of_a_wide_word_runs_the_exact_plan(monkeypatch):
    # Swept in word order and closed at the end, this 30-strand trace word
    # holds states of a 60-point module and did not finish in 20 s; on the
    # exact path's plan, closed early, it takes a handful of moves.
    word = BraidWord(30, [*range(1, 30, 2), *range(2, 19, 2)])
    k = ClosedBraid(word, "trace")
    calls = []
    cupcap = bracket._cupcap

    def counted(m, a, b):
        calls.append(a)
        assert len(calls) < 100, "too many cap-cup moves"
        return cupcap(m, a, b)

    monkeypatch.setattr(bracket, "_cupcap", counted)
    value = bracket_eval(k, 1j)
    assert value == _value_at_i(bracket_poly(k)) == 32


def test_trace_eval_agrees_with_the_exact_bracket_on_wide_words():
    # Trace words on up to 16 strands, which the radial plan sweeps when it
    # holds fewer states, at the Fibonacci point and two others on |A| = 1.
    rng = random.Random(30)
    plans = set()
    for _ in range(150):
        n = rng.randrange(2, 17)
        ints = [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(rng.randrange(25))]
        k = ClosedBraid(BraidWord(n, ints), "trace")
        plans.add(bracket._trace_plan(bracket._tracks(k.braid)))
        exact = bracket_poly(k)
        for a in (FIB_A, 1j, 0.8 + 0.6j):
            want = exact.evaluate(a)
            assert abs(bracket_eval(k, a) - want) <= 1e-11 * max(abs(want), 1)
    assert plans == {False, True}


def test_trace_eval_of_words_past_twice_the_crossing_cap(monkeypatch):
    # The planner has no limit on word length: these words run to 100
    # crossings.  At A = i every weight is a Gaussian integer and the
    # sweep's coefficients stay small, so the value is exactly the exact
    # bracket's.  Two of the words go radial.
    monkeypatch.setattr(bracket, "CROSSING_CAP", 120)
    words = [
        (3, [1, 2] * 50),
        (4, [1, -2, 3] * 35),
        (12, [1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10] * 6),
        (26, [*range(1, 26, 2), *range(2, 25, 2)] * 3),
    ]
    plans = []
    for n, ints in words:
        k = ClosedBraid(BraidWord(n, ints), "trace")
        plans.append(bracket._trace_plan(bracket._tracks(k.braid)))
        assert bracket_eval(k, 1j) == _value_at_i(bracket_poly(k))
    assert plans == [False, False, True, True]


# The free-reduced interference word of a 12-strand readout item, 104
# crossings, whose gamma is 12: 9 8.
READOUT_WORD_104 = (
    "12: -4 9 2 -1 -1 -4 9 1 4 4 1 -4 -7 -4 7 -8 4 -7 -7 4 5 -4 -5 -7 4 5 4 9 9 7 -5 9 9 7 10 "
    "-2 -7 -8 10 7 10 8 5 -7 5 -8 -7 -8 7 5 9 9 8 -9 -5 -7 8 7 8 -5 7 -5 -8 -10 -7 -10 8 7 2 "
    "-10 -7 -9 -9 5 -7 -9 -9 -4 -5 -4 7 5 4 -5 -4 7 7 -4 8 -7 4 7 4 -1 -4 -4 -1 -9 4 1 1 -2 -9 4"
)


def test_a_long_readout_trace_word_is_swept_in_word_order(monkeypatch):
    # Swept radially it takes about twice the state-steps of word order
    # closed early, and over 20x the time; 2^open summed over its
    # crossings is smaller in word order.
    k = ClosedBraid(parse_word(READOUT_WORD_104), "trace")
    assert len(k.braid) == 104
    assert not bracket._trace_plan(bracket._tracks(k.braid))
    monkeypatch.setattr(bracket, "CROSSING_CAP", 104)
    assert bracket_eval(k, 1j) == _value_at_i(bracket_poly(k))


def test_crossing_cap(monkeypatch):
    assert bracket.CROSSING_CAP == 24
    w = BraidWord(2, [1] * 25)
    with pytest.raises(CrossingCapExceeded, match="bracket_eval"):
        bracket_poly(ClosedBraid(w, "trace"))
    with pytest.raises(CrossingCapExceeded, match="bracket_eval"):
        bracket_poly_state_sum(ClosedBraid(w, "trace"))
    monkeypatch.setattr(bracket, "CROSSING_CAP", 25)
    assert bracket_poly(ClosedBraid(w, "trace"))
    monkeypatch.setattr(bracket, "CROSSING_CAP", 30)
    assert bracket_poly(ClosedBraid(w, "trace"))
    monkeypatch.setattr(bracket, "CROSSING_CAP", 10)
    with pytest.raises(CrossingCapExceeded):
        bracket_poly(ClosedBraid(BraidWord(2, [1] * 11), "trace"))


# --- writhe-corrected invariants -------------------------------------------

def test_kauffman_invariant_removes_kink():
    assert kauffman_invariant(ClosedBraid(parse_word("2: 1"), "plat")) == LaurentPoly.one()
    assert kauffman_invariant(ClosedBraid(BraidWord(2), "plat")) == LaurentPoly.one()


def test_kauffman_invariant_stable_under_pair_insertion(rand_word):
    rng = random.Random(33)
    for _ in range(100):
        w = rand_word(rng, max_len=8)
        k = ClosedBraid(w, "trace")
        spot = rng.randrange(0, len(w) + 1)
        i = rng.randrange(1, w.n_strands) if w.n_strands > 1 else None
        if i is None:
            continue
        ints = list(w.values)
        padded = BraidWord(w.n_strands, ints[:spot] + [i, -i] + ints[spot:])
        assert kauffman_invariant(ClosedBraid(padded, "trace")) == kauffman_invariant(k)


def test_jones_from_bracket_examples():
    assert jones_from_bracket(ClosedBraid(BraidWord(2), "plat")) == LaurentPoly.one()
    two_unlink = ClosedBraid(BraidWord(4), "plat")
    standard = jones_from_bracket(two_unlink, convention="standard")
    assert standard.terms == {2: -1, -2: -1}  # -t^{1/2} - t^{-1/2}
    hopf = ClosedBraid(parse_word("4: 2 2"), "plat")
    assert jones_from_bracket(hopf, "paper") == jones_from_bracket(hopf, "standard").mirrored()
    with pytest.raises(ValueError):
        jones_from_bracket(hopf, "other")
    trefoil = ClosedBraid(parse_word("2: 1 1 1"), "trace")
    with pytest.raises(ValueError, match="unknown Jones convention 'Paper'"):
        writhe_corrected(bracket_poly(trefoil), trefoil, "Paper")


def test_jones_eval_examples():
    assert abs(jones_eval(ClosedBraid(BraidWord(2), "plat"), FIB_T) - 1) < 1e-12
    value = jones_eval(ClosedBraid(BraidWord(4), "plat"), FIB_T)
    assert abs(value - (-PHI)) < 1e-12  # -t^{1/2}-t^{-1/2} at t = e^{2pi i/5}


def test_jones_eval_agrees_with_polynomial(rand_word):
    rng = random.Random(35)
    for _ in range(100):
        k = _random_closure(rng, rand_word, max_len=8)
        t = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        a = cmath.exp(cmath.log(t) / 4)
        poly_value = jones_from_bracket(k).evaluate(a)
        assert abs(poly_value - jones_eval(k, t)) < 1e-9


def test_eq10_shape_between_bracket_and_jones(rand_word):
    rng = random.Random(36)
    for _ in range(50):
        k = _random_closure(rng, rand_word, max_len=8)
        w = writhe(k.braid)
        v = jones_from_bracket(k)
        assert bracket_poly(k) == LaurentPoly({3 * w: (-1) ** (w % 2)}) * v


# --- skein relation ---------------------------------------------------------

def test_skein_trivial_triple_holds():
    # the inserted crossing cancels with w_left under free reduction
    assert verify_jones_skein(parse_word("2: -1"), 1, parse_word("2:"), FIB_T)


def test_skein_pinned_form_holds_on_random_triples(rand_word):
    rng = random.Random(37)
    for _ in range(30):
        n = rng.choice([2, 4, 6])
        wl, wr = rand_word(rng, n=n, max_len=5), rand_word(rng, n=n, max_len=5)
        i = rng.randrange(1, n)
        assert verify_jones_skein(wl, i, wr, FIB_T, closure="plat")
    for _ in range(10):
        n = rng.choice([2, 3, 4, 5])
        wl, wr = rand_word(rng, n=n, max_len=5), rand_word(rng, n=n, max_len=5)
        assert verify_jones_skein(wl, rng.randrange(1, n), wr, FIB_T, closure="trace")


@pytest.mark.parametrize("i", [0, -1, True, 1.5])
def test_skein_refuses_an_index_that_is_not_an_int_of_at_least_one(i):
    # -i is a valid signed value, so taking i = -1 would swap K+ and K-.
    wl, wr = parse_word("4: 1 -2 3"), parse_word("4: 2")
    with pytest.raises(WordFormatError, match="^generator index must be "):
        verify_jones_skein(wl, i, wr, FIB_T)
    assert verify_jones_skein(wl, 1, wr, FIB_T)


def test_skein_flipped_form_fails_negative_control(flipped_skein_residue):
    # V+ = V- = V0 = 1 here, so the flipped form misses by 2 t^{-1/2}
    wl, wr = parse_word("2: 1"), parse_word("2:")
    assert verify_jones_skein(wl, 1, wr, FIB_T)
    residue = flipped_skein_residue(wl, 1, wr, FIB_T)
    assert abs(residue - 2 / cmath.sqrt(FIB_T)) < 1e-9


# --- regular isotopy properties ---------------------------------------------

def test_r2_insertion_leaves_bracket_unchanged(rand_word):
    rng = random.Random(38)
    for _ in range(100):
        w = rand_word(rng, max_len=7)
        if w.n_strands < 2:
            continue
        k = ClosedBraid(w, "trace")
        spot = rng.randrange(0, len(w) + 1)
        i = rng.randrange(1, w.n_strands)
        sign = rng.choice([1, -1])
        ints = list(w.values)
        padded = BraidWord(w.n_strands, ints[:spot] + [sign * i, -sign * i] + ints[spot:])
        assert bracket_poly(ClosedBraid(padded, "trace")) == bracket_poly(k)


def test_r3_substitution_leaves_bracket_unchanged(rand_word):
    rng = random.Random(39)
    for _ in range(60):
        n = rng.choice([3, 4, 5, 6])
        wl, wr = rand_word(rng, n=n, max_len=5), rand_word(rng, n=n, max_len=5)
        i = rng.randrange(1, n - 1)
        one = BraidWord(n, [*wl.values, i, i + 1, i, *wr.values])
        other = BraidWord(n, [*wl.values, i + 1, i, i + 1, *wr.values])
        assert bracket_poly(ClosedBraid(one, "trace")) == bracket_poly(ClosedBraid(other, "trace"))
        if n % 2 == 0:
            assert bracket_poly(ClosedBraid(one, "plat")) == bracket_poly(ClosedBraid(other, "plat"))


def test_far_generators_commute(rand_word):
    rng = random.Random(40)
    for _ in range(40):
        n = rng.choice([4, 5, 6])
        wl, wr = rand_word(rng, n=n, max_len=4), rand_word(rng, n=n, max_len=4)
        i = rng.randrange(1, n - 2)
        j = rng.randrange(i + 2, n)
        one = BraidWord(n, [*wl.values, i, j, *wr.values])
        other = BraidWord(n, [*wl.values, j, i, *wr.values])
        assert bracket_poly(ClosedBraid(one, "trace")) == bracket_poly(ClosedBraid(other, "trace"))


def test_plat_kink_appending_scales_bracket(rand_word):
    rng = random.Random(41)
    for _ in range(60):
        n = rng.choice([2, 4, 6])
        w = rand_word(rng, n=n, max_len=6)
        j = rng.choice([x for x in range(1, n) if x % 2 == 1])
        sign = rng.choice([1, -1])
        base = bracket_poly(ClosedBraid(w, "plat"))
        kinked_word = BraidWord(n, [*w.values, sign * j])
        kinked = bracket_poly(ClosedBraid(kinked_word, "plat"))
        assert kinked == base.shifted(3 * sign, -1)  # times -A^{+/-3}
        assert kauffman_invariant(ClosedBraid(kinked_word, "plat")) == kauffman_invariant(ClosedBraid(w, "plat"))


def test_mirror_symmetry(rand_word):
    rng = random.Random(42)
    for _ in range(50):
        w = rand_word(rng, max_len=8)
        mirrored = BraidWord(w.n_strands, [-v for v in w.values])
        assert bracket_poly(ClosedBraid(mirrored, "trace")) == bracket_poly(ClosedBraid(w, "trace")).mirrored()
        if w.n_strands % 2 == 0:
            assert bracket_poly(ClosedBraid(mirrored, "plat")) == bracket_poly(ClosedBraid(w, "plat")).mirrored()


def test_disjoint_circle_multiplies_by_loop_value(rand_word):
    rng = random.Random(43)
    for _ in range(30):
        n = rng.choice([2, 4])
        w = rand_word(rng, n=n, max_len=6)
        widened = BraidWord(n + 2, w.values)
        assert bracket_poly(ClosedBraid(widened, "plat")) == D_POLY * bracket_poly(ClosedBraid(w, "plat"))


def test_three_paths_agree(rand_word):
    rng = random.Random(44)
    for _ in range(40):
        k = _random_closure(rng, rand_word, max_len=9)
        exact = bracket_poly(k)
        assert bracket_poly_state_sum(k) == exact
        a = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(exact.evaluate(a) - bracket_eval(k, a)) < 1e-9


def test_bracket_poly_does_no_laurent_arithmetic(monkeypatch):
    # The exact path packs its ring into integers and decodes once: no
    # LaurentPoly product or sum, on trace words swept in word order and
    # radially too.
    def refuse(*args):
        raise AssertionError("LaurentPoly arithmetic in bracket_poly")

    rng = random.Random(21)
    words = [
        (n, [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(c)])
        for n in (2, 4, 8)
        for c in (0, 5, 24)
    ]
    plans = [bracket._trace_plan(bracket._tracks(BraidWord(n, g))) for n, g in words]
    assert not all(plans)
    assert any(plans)
    want = [bracket_poly(ClosedBraid(BraidWord(n, g), kind)) for n, g in words for kind in ("plat", "trace")]
    for name in ("__mul__", "__rmul__", "__add__"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    got = [bracket_poly(ClosedBraid(BraidWord(n, g), kind)) for n, g in words for kind in ("plat", "trace")]
    assert got == want
