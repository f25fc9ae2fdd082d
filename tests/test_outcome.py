import cmath
import math
import random
from decimal import Decimal, localcontext

import pytest

from stockbraid import (
    FIBONACCI_POINT,
    GOLDEN_RATIO,
    BraidWord,
    ClosureError,
    free_reduce,
    interference_braid,
    outcome_from_stats,
    outcome_probability,
    parse_word,
    plat_amplitude,
    plat_close,
    trace_close,
    writhe,
)
from stockbraid.outcome import _golden_power

PHI = (1 + math.sqrt(5)) / 2


def test_golden_power_matches_exact_field_floats():
    # Pinned bytes: float(a) + float(b) * sqrt(5) for phi^k = a + b sqrt 5
    # computed exactly in Z[sqrt 5], so probabilities keep their bytes.
    expected = {
        0: "1.0",
        1: "1.618033988749895",
        2: "2.618033988749895",
        3: "4.23606797749979",
        4: "6.854101966249685",
        5: "11.090169943749475",
        6: "17.94427190999916",
        1474: "1.1163020658834684e+308",
    }
    for k, text in expected.items():
        assert repr(_golden_power(k)) == text


def test_golden_power_is_accurate_over_the_float_range():
    with localcontext() as ctx:
        ctx.prec = 80
        phi = (1 + Decimal(5).sqrt()) / 2
        for k in range(-1472, 1475):
            reference = phi**k
            error = abs(Decimal(_golden_power(k)) - reference)
            assert error <= Decimal("4.5e-16") * reference, k


def test_prefactor_identity():
    phi2 = float(GOLDEN_RATIO * GOLDEN_RATIO)
    assert abs(1 / (1 + phi2) - (5 - math.sqrt(5)) / 10) < 1e-12


def test_fibonacci_point_fourth_power():
    assert abs(FIBONACCI_POINT**4 - cmath.exp(2j * math.pi / 5)) < 1e-15


# --- interference braid -----------------------------------------------------

def test_empty_gamma_cancels(rand_word):
    rng = random.Random(51)
    for _ in range(100):
        sigma = rand_word(rng)
        gamma = BraidWord(sigma.n_strands + 1)
        result = interference_braid(sigma, gamma)
        assert result.n_strands == sigma.n_strands + 1
        assert free_reduce(result).generators == ()


def test_empty_sigma_returns_gamma(rand_word):
    rng = random.Random(52)
    for _ in range(20):
        gamma = rand_word(rng)
        sigma = BraidWord(gamma.n_strands - 1)
        assert interference_braid(sigma, gamma) == gamma


def test_interference_writhe_equals_gamma_writhe(rand_word):
    rng = random.Random(53)
    for _ in range(100):
        sigma = rand_word(rng)
        gamma = rand_word(rng, n=sigma.n_strands + 1)
        assert writhe(interference_braid(sigma, gamma)) == writhe(gamma)


def test_interference_strand_mismatch():
    with pytest.raises(ValueError, match="strand"):
        interference_braid(BraidWord(3), BraidWord(3))


# --- plat amplitude ----------------------------------------------------------

def test_amplitude_two_strand_identity():
    assert abs(plat_amplitude(plat_close(BraidWord(2))) - 1) < 1e-12


def test_amplitude_four_strand_identity_is_minus_one():
    # bracket is -a^2 - a^-2 = -2 cos(pi/5) = -phi at the Fibonacci point
    value = plat_amplitude(plat_close(BraidWord(4)))
    assert abs(value - (-1)) < 1e-12


def test_amplitude_finite_on_random_plats(rand_word):
    # A unitary braid action between normalized cap states: |amplitude| <= 1.
    rng = random.Random(54)
    for _ in range(600):
        w = rand_word(rng, n=rng.choice([2, 4, 6, 8, 10]), max_len=60)
        assert abs(plat_amplitude(plat_close(w))) <= 1 + 1e-12


def test_amplitude_rejects_trace():
    with pytest.raises(ClosureError):
        plat_amplitude(trace_close(BraidWord(3)))


# --- outcome formula ---------------------------------------------------------

def test_probe_unknot_stats():
    report = outcome_from_stats(1, components=1, minima=1, writhe_value=0)
    assert abs(report.probability - (1 + PHI) / (1 + PHI**2)) < 1e-12
    assert abs(report.probability - 0.7236) < 1e-4
    assert report.imag_residue < 1e-12
    assert report.in_range


def test_probe_vanishing_jones_leaves_prefactor():
    report = outcome_from_stats(0, components=1, minima=1, writhe_value=0)
    assert abs(report.probability - 1 / (1 + PHI**2)) < 1e-12


def test_probe_two_minima():
    report = outcome_from_stats(1, components=1, minima=2, writhe_value=0)
    assert abs(report.probability - 2 / (1 + PHI**2)) < 1e-12
    assert abs(report.probability - 0.5528) < 1e-4


def test_out_of_range_probability_is_flagged_not_clamped():
    report = outcome_from_stats(10, components=1, minima=2, writhe_value=0)
    assert report.probability > 1
    assert not report.in_range


def test_outcome_probability_of_trivial_plat():
    # V = 1, c = 1, m = 1, Wr = 0: the first synthetic probe in the flesh
    report = outcome_probability(plat_close(BraidWord(2)))
    assert abs(report.probability - 0.7236) < 1e-4
    assert report.components == 1
    assert report.minima == 1
    assert report.writhe == 0


def test_outcome_probability_requires_plat():
    with pytest.raises(ClosureError):
        outcome_probability(trace_close(BraidWord(2)))


def test_outcome_invariant_under_free_reduce(rand_word):
    rng = random.Random(55)
    for _ in range(30):
        n = rng.choice([2, 4, 6])
        w = rand_word(rng, n=n, max_len=8)
        one = outcome_probability(plat_close(w))
        two = outcome_probability(plat_close(free_reduce(w)))
        assert abs(one.probability - two.probability) < 1e-9
        assert one.components == two.components
        assert one.writhe == two.writhe


def test_report_serialization():
    report = outcome_probability(plat_close(parse_word("4: 2 2")))
    doc = report.to_json()
    assert set(doc) == {
        "jones_value",
        "components",
        "minima",
        "writhe",
        "amplitude",
        "probability",
        "imag_residue",
        "in_range",
        "eval_point",
    }
    assert doc["eval_point"]["re"] == FIBONACCI_POINT.real
    assert doc["components"] == 2
