"""Interference braids and the anyonic outcome probability of a plat closure.

The readout braid is the sandwich lift(sigma) * gamma * lift(sigma)^{-1}
on one extra strand: the system braid sigma is lifted to n+1 strands
leaving the appended test strand untouched, and the caller supplies the
test trajectory gamma on n+1 strands.

The outcome probability of a plat-closed diagram K is evaluated at the
Fibonacci point A = e^(i pi / 10) and nowhere else: the formula's powers
of the golden ratio phi = (1 + sqrt 5) / 2 are the loop value there.

    prob = 1 / (1 + phi^2) *
           (1 + s * (-A)^(3 Wr) * V(A^4) / phi^(m - 2)),
    s = (-1)^(components - 1 + Wr)

with the component count, minima count, and writhe read off the diagram
and V the Jones value.  The right-hand side is complex for general
writhe; the real part is reported as the probability, the imaginary
residue is surfaced, and values outside [0, 1] are flagged rather than
clamped.  The powers of phi are floats, accurate to a few ulp for every
minima count where phi^(m - 2) is a finite, nonzero float.
"""

from __future__ import annotations

import cmath
import math

from .braid import BraidWord, _push_reduced, _Value, compose, inverse, writhe
from .bracket import _writhe_corrected_value, bracket_eval
from .closure import ClosedBraid, ClosureError, component_count, minima_count

#: The Fibonacci evaluation point e^(i pi / 10).
FIBONACCI_POINT = cmath.exp(1j * math.pi / 10)

#: The golden ratio (1 + sqrt 5) / 2, the Fibonacci loop value.
GOLDEN_RATIO = (1 + math.sqrt(5.0)) / 2

#: The minima counts m for which phi^(m - 2) is a finite, nonzero float;
#: checked before the power is built.
_MINIMA_RANGE = range(-1472, 1477)


def _golden_power(k: int) -> float:
    """phi^k as a float.

    For k >= 0, phi^k = (L_k + F_k sqrt 5) / 2 with the Lucas and
    Fibonacci numbers L_k, F_k kept as exact integers up to the final
    float expression.  A negative power is the reciprocal of the positive
    one: there the two halves have opposite signs and their sum cancels.
    """
    if k < 0:
        return 1 / _golden_power(-k)
    lucas, fib = 2, 0
    for _ in range(k):
        lucas, fib = (lucas + 5 * fib) // 2, (lucas + fib) // 2
    return lucas / 2 + fib / 2 * math.sqrt(5.0)


class OutcomeReport(_Value):
    """The evaluation bundle of the outcome-probability formula."""

    __slots__ = ("jones_value", "components", "minima", "writhe", "amplitude",
                 "probability", "imag_residue", "in_range", "eval_point")

    def __init__(self, jones_value: complex, components: int, minima: int, writhe: int,
                 amplitude: complex, probability: float, imag_residue: float,
                 in_range: bool, eval_point: complex) -> None:
        _Value.__init__(self, jones_value, components, minima, writhe, amplitude,
                        probability, imag_residue, in_range, eval_point)

    def to_json(self) -> dict:
        return {name: _complex_json(value) if isinstance(value, complex) else value
                for name, value in zip(self.__slots__, self._key(self))}


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def interference_braid(sigma: BraidWord, gamma: BraidWord) -> BraidWord:
    """lift(sigma) * gamma * lift(sigma)^{-1} on sigma.n_strands + 1 strands.

    gamma must already be given on the extended strand count.  The word
    is returned unreduced; free_reduce it to see the cancellation when
    gamma is trivial.
    """
    n = _readout_strands(sigma, gamma)
    lifted = BraidWord._unchecked(n, sigma.values)
    return compose(lifted, compose(gamma, inverse(lifted)))


def _readout_strands(sigma: BraidWord, gamma: BraidWord) -> int:
    n = sigma.n_strands + 1
    if gamma.n_strands != n:
        raise ValueError(
            f"gamma must be on {n} strands (system plus test strand), "
            f"got {gamma.n_strands}"
        )
    return n


def _readout_word(sigma: BraidWord, gamma: BraidWord) -> BraidWord:
    """free_reduce(interference_braid(sigma, gamma)), built as one word.

    sigma's values are reduced once and gamma's pushed onto them,
    cancelling as they go.  Then sigma's reduced inverse cancels against
    the top until one of its values stays, and the rest of it is appended
    in one step: a reduced word has no adjacent inverse pair, so nothing
    after that point can cancel.  Free reduction is confluent, so the
    word is the one free_reduce gives on the whole sandwich.
    """
    n = _readout_strands(sigma, gamma)
    reduced = _push_reduced([], sigma.values)
    stack = _push_reduced(reduced.copy(), gamma.values)
    tail = [-v for v in reversed(reduced)]
    cancelled = 0
    for v in tail:
        if not stack or stack[-1] != -v:
            break
        stack.pop()
        cancelled += 1
    stack += tail[cancelled:]
    return BraidWord._unchecked(n, tuple(stack))


def plat_amplitude(k: ClosedBraid) -> complex:
    """The normalized plat contraction <K> / phi^(n/2 - 1) at the Fibonacci point."""
    if k.closure != "plat":
        raise ClosureError("the plat amplitude is defined only for plat closures")
    n = k.braid.n_strands
    return bracket_eval(k, FIBONACCI_POINT) / _golden_power(n // 2 - 1)


def outcome_from_stats(
    jones_value: complex,
    components: int,
    minima: int,
    writhe_value: int,
) -> OutcomeReport:
    """Evaluate the outcome formula at the Fibonacci point on raw diagram statistics."""
    if not cmath.isfinite(jones_value):
        raise ValueError("Jones value must be finite")
    if minima not in _MINIMA_RANGE:
        raise ValueError(
            f"minima {minima} is out of range "
            f"({_MINIMA_RANGE.start}..{_MINIMA_RANGE.stop - 1})"
        )
    scale = _golden_power(minima - 2)
    try:
        turn = (-FIBONACCI_POINT) ** (3 * writhe_value)
    except OverflowError:
        raise ValueError(f"(-A)^(3 Wr) overflows for writhe {writhe_value}") from None
    phi2 = _golden_power(2)
    sign = -1 if (components - 1 + writhe_value) % 2 else 1
    numerator = sign * turn * jones_value
    amplitude = 1 + numerator / scale
    full = amplitude / (1 + phi2)
    probability = full.real
    return OutcomeReport(
        jones_value=complex(jones_value),
        components=components,
        minima=minima,
        writhe=writhe_value,
        amplitude=amplitude,
        probability=probability,
        imag_residue=abs(full.imag),
        in_range=0.0 <= probability <= 1.0,
        eval_point=FIBONACCI_POINT,
    )


def outcome_probability(k: ClosedBraid) -> OutcomeReport:
    """Evaluate the outcome formula for a plat-closed braid.

    The Jones value at t = A^4 is computed directly from the bracket at
    the Fibonacci point A, with no root extraction.
    """
    if k.closure != "plat":
        raise ClosureError("the outcome probability is defined only for plat closures")
    w = writhe(k.braid)
    bracket = bracket_eval(k, FIBONACCI_POINT)
    jones_value = _writhe_corrected_value(bracket, FIBONACCI_POINT, w)
    return outcome_from_stats(
        jones_value=jones_value,
        components=component_count(k),
        minima=minima_count(k),
        writhe_value=w,
    )
