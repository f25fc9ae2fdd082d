"""Generated cross-checks of the three bracket paths: the exact sweep
against the state-sum oracle and against the sweep on the Laurent ring,
the numeric sweep against the exact bracket evaluated at a point of the
unit circle, and the Jones polynomial against the bracket times an
explicit writhe monomial.  Hypothesis runs derandomized, so every run
tries the same examples."""

import cmath
import math

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
