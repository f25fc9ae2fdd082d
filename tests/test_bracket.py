import cmath
import math
import random

import pytest

from stockbraid import (
    BraidWord,
    CrossingCapExceeded,
    bracket,
    bracket_eval,
    bracket_poly,
    bracket_poly_state_sum,
    jones_eval,
    jones_from_bracket,
    kauffman_invariant,
    parse_word,
    plat_close,
    trace_close,
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
        return plat_close(w)
    return trace_close(w)


# --- bracket values pinned by hand expansion -------------------------------

def test_unknot_brackets_are_one():
    assert bracket_poly(plat_close(BraidWord(2))) == LaurentPoly.one()
    assert bracket_poly(trace_close(BraidWord(1))) == LaurentPoly.one()
    # hand expansion of the trace-closed curl: the A-weighted cup-cap state
    # leaves 1 loop, the A^{-1} vertical state 2, so A + A^{-1} d = -A^{-3}
    assert bracket_poly(trace_close(parse_word("2: 1"))).terms == {-3: -1}


def test_two_circle_plat_gives_loop_value():
    assert bracket_poly(plat_close(BraidWord(4))) == D_POLY


def test_positive_kink_hand_expansion():
    # two states: A * (2 loops -> d) + A^{-1} * (1 loop -> 1) = -A^3
    k = plat_close(parse_word("2: 1"))
    states = sorted(smoothing_states(k))
    assert [(s.choices, s.loops) for s in states] == [((False,), 1), ((True,), 2)]
    assert bracket_poly(k).terms == {3: -1}
    assert bracket_poly_state_sum(k).terms == {3: -1}


def test_hopf_link_exhaustive_four_state_sum():
    # by hand: states (AA) 2 loops, (AB) and (BA) 1 loop, (BB) 2 loops:
    # A^2 d + 2 + A^-2 d = -A^4 - A^-4
    for k in (trace_close(parse_word("2: 1 1")), plat_close(parse_word("4: 2 2"))):
        loops = {s.choices: s.loops for s in smoothing_states(k)}
        assert loops[(True, True)] == 2
        assert loops[(False, False)] == 2
        assert loops[(True, False)] == 1
        assert loops[(False, True)] == 1
        assert bracket_poly(k).terms == {4: -1, -4: -1}


def test_bracket_eval_examples():
    hopf = trace_close(parse_word("2: 1 1"))
    value = bracket_eval(hopf, FIB_A)
    assert abs(value - (-2 * math.cos(2 * math.pi / 5))) < 1e-12
    rng = random.Random(3)
    for _ in range(5):
        a = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(bracket_eval(plat_close(BraidWord(2)), a) - 1) < 1e-12


def test_bracket_eval_rejects_non_finite():
    with pytest.raises(ValueError):
        bracket_eval(plat_close(BraidWord(2)), complex("inf"))
    with pytest.raises(ValueError):
        jones_eval(plat_close(BraidWord(2)), complex("nan"))


def test_eval_agrees_with_exact_polynomial(rand_word):
    rng = random.Random(31)
    for _ in range(60):
        k = _random_closure(rng, rand_word)
        poly = bracket_poly(k)
        a = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(poly.evaluate(a) - bracket_eval(k, a)) < 1e-9


def test_crossing_cap(monkeypatch):
    assert bracket.CROSSING_CAP == 24
    w = BraidWord.from_ints(2, [1] * 25)
    with pytest.raises(CrossingCapExceeded, match="bracket_eval"):
        bracket_poly(trace_close(w))
    with pytest.raises(CrossingCapExceeded, match="bracket_eval"):
        bracket_poly_state_sum(trace_close(w))
    monkeypatch.setattr(bracket, "CROSSING_CAP", 25)
    assert bracket_poly(trace_close(w))
    monkeypatch.setattr(bracket, "CROSSING_CAP", 30)
    assert bracket_poly(trace_close(w))
    monkeypatch.setattr(bracket, "CROSSING_CAP", 10)
    with pytest.raises(CrossingCapExceeded):
        bracket_poly(trace_close(BraidWord.from_ints(2, [1] * 11)))


# --- writhe-corrected invariants -------------------------------------------

def test_kauffman_invariant_removes_kink():
    assert kauffman_invariant(plat_close(parse_word("2: 1"))) == LaurentPoly.one()
    assert kauffman_invariant(plat_close(BraidWord(2))) == LaurentPoly.one()


def test_kauffman_invariant_stable_under_pair_insertion(rand_word):
    rng = random.Random(33)
    for _ in range(100):
        w = rand_word(rng, max_len=8)
        k = trace_close(w)
        spot = rng.randrange(0, len(w) + 1)
        i = rng.randrange(1, w.n_strands) if w.n_strands > 1 else None
        if i is None:
            continue
        ints = w.to_ints()
        padded = BraidWord.from_ints(w.n_strands, ints[:spot] + [i, -i] + ints[spot:])
        assert kauffman_invariant(trace_close(padded)) == kauffman_invariant(k)


def test_jones_from_bracket_examples():
    assert jones_from_bracket(plat_close(BraidWord(2))) == LaurentPoly.one()
    two_unlink = plat_close(BraidWord(4))
    standard = jones_from_bracket(two_unlink, convention="standard")
    assert standard.terms == {2: -1, -2: -1}  # -t^{1/2} - t^{-1/2}
    hopf = plat_close(parse_word("4: 2 2"))
    assert jones_from_bracket(hopf, "paper") == jones_from_bracket(hopf, "standard").mirrored()
    with pytest.raises(ValueError):
        jones_from_bracket(hopf, "other")
    trefoil = trace_close(parse_word("2: 1 1 1"))
    with pytest.raises(ValueError, match="unknown Jones convention 'Paper'"):
        writhe_corrected(bracket_poly(trefoil), trefoil, "Paper")


def test_jones_eval_examples():
    assert abs(jones_eval(plat_close(BraidWord(2)), FIB_T) - 1) < 1e-12
    value = jones_eval(plat_close(BraidWord(4)), FIB_T)
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
        k = trace_close(w)
        spot = rng.randrange(0, len(w) + 1)
        i = rng.randrange(1, w.n_strands)
        sign = rng.choice([1, -1])
        ints = w.to_ints()
        padded = BraidWord.from_ints(w.n_strands, ints[:spot] + [sign * i, -sign * i] + ints[spot:])
        assert bracket_poly(trace_close(padded)) == bracket_poly(k)


def test_r3_substitution_leaves_bracket_unchanged(rand_word):
    rng = random.Random(39)
    for _ in range(60):
        n = rng.choice([3, 4, 5, 6])
        wl, wr = rand_word(rng, n=n, max_len=5), rand_word(rng, n=n, max_len=5)
        i = rng.randrange(1, n - 1)
        one = BraidWord.from_ints(n, wl.to_ints() + [i, i + 1, i] + wr.to_ints())
        other = BraidWord.from_ints(n, wl.to_ints() + [i + 1, i, i + 1] + wr.to_ints())
        assert bracket_poly(trace_close(one)) == bracket_poly(trace_close(other))
        if n % 2 == 0:
            assert bracket_poly(plat_close(one)) == bracket_poly(plat_close(other))


def test_far_generators_commute(rand_word):
    rng = random.Random(40)
    for _ in range(40):
        n = rng.choice([4, 5, 6])
        wl, wr = rand_word(rng, n=n, max_len=4), rand_word(rng, n=n, max_len=4)
        i = rng.randrange(1, n - 2)
        j = rng.randrange(i + 2, n)
        one = BraidWord.from_ints(n, wl.to_ints() + [i, j] + wr.to_ints())
        other = BraidWord.from_ints(n, wl.to_ints() + [j, i] + wr.to_ints())
        assert bracket_poly(trace_close(one)) == bracket_poly(trace_close(other))


def test_plat_kink_appending_scales_bracket(rand_word):
    rng = random.Random(41)
    for _ in range(60):
        n = rng.choice([2, 4, 6])
        w = rand_word(rng, n=n, max_len=6)
        j = rng.choice([x for x in range(1, n) if x % 2 == 1])
        sign = rng.choice([1, -1])
        base = bracket_poly(plat_close(w))
        kinked_word = BraidWord.from_ints(n, w.to_ints() + [sign * j])
        kinked = bracket_poly(plat_close(kinked_word))
        assert kinked == base.shifted(3 * sign, -1)  # times -A^{+/-3}
        assert kauffman_invariant(plat_close(kinked_word)) == kauffman_invariant(plat_close(w))


def test_mirror_symmetry(rand_word):
    rng = random.Random(42)
    for _ in range(50):
        w = rand_word(rng, max_len=8)
        mirrored = BraidWord.from_ints(w.n_strands, [-v for v in w.to_ints()])
        assert bracket_poly(trace_close(mirrored)) == bracket_poly(trace_close(w)).mirrored()
        if w.n_strands % 2 == 0:
            assert bracket_poly(plat_close(mirrored)) == bracket_poly(plat_close(w)).mirrored()


def test_disjoint_circle_multiplies_by_loop_value(rand_word):
    rng = random.Random(43)
    for _ in range(30):
        n = rng.choice([2, 4])
        w = rand_word(rng, n=n, max_len=6)
        widened = BraidWord(n + 2, w.generators)
        assert bracket_poly(plat_close(widened)) == D_POLY * bracket_poly(plat_close(w))


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
    # LaurentPoly product or sum, on rotated trace words too.
    def refuse(*args):
        raise AssertionError("LaurentPoly arithmetic in bracket_poly")

    rng = random.Random(21)
    words = [
        (n, [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(c)])
        for n in (2, 4, 8)
        for c in (0, 5, 24)
    ]
    want = [bracket_poly(close(BraidWord.from_ints(n, g))) for n, g in words for close in (plat_close, trace_close)]
    for name in ("__mul__", "__rmul__", "__add__"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    monkeypatch.setattr(bracket, "ROTATE_SCORE", 0)
    got = [bracket_poly(close(BraidWord.from_ints(n, g))) for n, g in words for close in (plat_close, trace_close)]
    assert got == want
