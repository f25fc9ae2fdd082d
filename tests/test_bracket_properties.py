"""Generated cross-checks of the three bracket paths: the exact sweep
against the state-sum oracle, and the numeric sweep against the exact
bracket evaluated at a point of the unit circle.  Hypothesis runs
derandomized, so every run tries the same examples."""

import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from stockbraid import BraidWord, ClosedBraid, bracket_eval, bracket_poly, bracket_poly_state_sum

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def closed_braids(draw, max_crossings: int = 12) -> ClosedBraid:
    closure = draw(st.sampled_from(["plat", "trace"]))
    n = draw(st.sampled_from([2, 4, 6, 8]) if closure == "plat" else st.integers(2, 8))
    generator = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    gens = draw(st.lists(generator, max_size=max_crossings))
    return ClosedBraid(BraidWord.from_ints(n, [i * s for i, s in gens]), closure)


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
