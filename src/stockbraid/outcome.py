"""Interference braids and the anyonic outcome probability of a plat closure.

The readout braid is the sandwich lift(sigma) * gamma * lift(sigma)^{-1}
on one extra strand: the system braid sigma is lifted to n+1 strands
leaving the appended test strand untouched, and the caller supplies the
test trajectory gamma on n+1 strands.

The outcome probability of a plat-closed diagram K is evaluated at the
Fibonacci point A = e^(i pi / 10), where the loop value is the golden
ratio phi = (1 + sqrt 5) / 2:

    prob = 1 / (1 + phi^2) *
           (1 + s * (-A)^(3 Wr) * V(A^4) / phi^(m - 2)),
    s = (-1)^(components - 1 + Wr)

with the component count, minima count, and writhe read off the diagram
and V the Jones value.  The right-hand side is complex for general
writhe; the real part is reported as the probability, the imaginary
residue is surfaced, and values outside [0, 1] are flagged rather than
clamped.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .braid import BraidWord, compose, inverse, writhe
from .bracket import bracket_eval
from .closure import ClosedBraid, ClosureError, component_count, minima_count

#: The Fibonacci evaluation point e^(i pi / 10).
FIBONACCI_POINT = cmath.exp(1j * math.pi / 10)


@dataclass(frozen=True)
class GoldenConstant:
    """An exact element a + b*sqrt(5) of Z[sqrt 5] with rational a, b."""

    a: Fraction
    b: Fraction

    def __mul__(self, other: "GoldenConstant") -> "GoldenConstant":
        return GoldenConstant(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __add__(self, other: "GoldenConstant") -> "GoldenConstant":
        return GoldenConstant(self.a + other.a, self.b + other.b)

    def inverse(self) -> "GoldenConstant":
        norm = self.a * self.a - 5 * self.b * self.b
        return GoldenConstant(self.a / norm, -self.b / norm)

    def __pow__(self, n: int) -> "GoldenConstant":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = GoldenConstant(Fraction(1), Fraction(0))
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(5.0)


#: The golden ratio (1 + sqrt 5) / 2, the Fibonacci loop value.
GOLDEN_RATIO = GoldenConstant(Fraction(1, 2), Fraction(1, 2))

#: The minima counts m for which float(GOLDEN_RATIO ** (m - 2)) does not
#: overflow; checked first, so a huge m never builds the exact power.
_MINIMA_RANGE = range(-1474, 1479)


@dataclass(frozen=True)
class OutcomeReport:
    """The evaluation bundle of the outcome-probability formula."""

    jones_value: complex
    components: int
    minima: int
    writhe: int
    amplitude: complex
    probability: float
    imag_residue: float
    in_range: bool
    eval_point: complex

    def to_json(self) -> dict:
        return {
            "jones_value": _complex_json(self.jones_value),
            "components": self.components,
            "minima": self.minima,
            "writhe": self.writhe,
            "amplitude": _complex_json(self.amplitude),
            "probability": self.probability,
            "imag_residue": self.imag_residue,
            "in_range": self.in_range,
            "eval_point": _complex_json(self.eval_point),
        }


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def interference_braid(sigma: BraidWord, gamma: BraidWord) -> BraidWord:
    """lift(sigma) * gamma * lift(sigma)^{-1} on sigma.n_strands + 1 strands.

    gamma must already be given on the extended strand count.  The word
    is returned unreduced; free_reduce it to see the cancellation when
    gamma is trivial.
    """
    n = sigma.n_strands + 1
    if gamma.n_strands != n:
        raise ValueError(
            f"gamma must be on {n} strands (system plus test strand), "
            f"got {gamma.n_strands}"
        )
    lifted = BraidWord(n, sigma.generators)
    return compose(lifted, compose(gamma, inverse(lifted)))


def plat_amplitude(k: ClosedBraid, a: complex = FIBONACCI_POINT) -> complex:
    """The normalized plat contraction <K> / phi^(n/2 - 1)."""
    if k.closure != "plat":
        raise ClosureError("the plat amplitude is defined only for plat closures")
    n = k.braid.n_strands
    return bracket_eval(k, a) / float(GOLDEN_RATIO ** (n // 2 - 1))


def outcome_from_stats(
    jones_value: complex,
    components: int,
    minima: int,
    writhe_value: int,
    a: complex = FIBONACCI_POINT,
) -> OutcomeReport:
    """Evaluate the outcome formula on raw diagram statistics."""
    a = complex(a)
    if not cmath.isfinite(a) or a == 0:
        raise ValueError("evaluation point must be finite and nonzero")
    if not cmath.isfinite(jones_value):
        raise ValueError("Jones value must be finite")
    if minima not in _MINIMA_RANGE:
        raise ValueError(
            f"minima {minima} is out of range "
            f"({_MINIMA_RANGE.start}..{_MINIMA_RANGE.stop - 1})"
        )
    scale = float(GOLDEN_RATIO ** (minima - 2))
    if scale == 0:
        raise ValueError(f"phi^(minima - 2) evaluates to zero for minima {minima}")
    try:
        turn = (-a) ** (3 * writhe_value)
    except OverflowError:
        raise ValueError(f"(-A)^(3 Wr) overflows for writhe {writhe_value}") from None
    phi2 = float(GOLDEN_RATIO * GOLDEN_RATIO)
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
        eval_point=a,
    )


def outcome_probability(k: ClosedBraid, a: complex = FIBONACCI_POINT) -> OutcomeReport:
    """Evaluate the outcome formula for a plat-closed braid.

    The Jones value at t = a^4 is computed directly from the bracket at
    A = a, so the evaluation point of the Jones factor matches the
    fourth power of a by argument arithmetic, with no root extraction.
    """
    if k.closure != "plat":
        raise ClosureError("the outcome probability is defined only for plat closures")
    w = writhe(k.braid)
    # bracket_eval first: it rejects a = 0 before the power below divides by it.
    bracket = bracket_eval(k, a)
    jones_value = (-complex(a)) ** (-3 * w) * bracket
    return outcome_from_stats(
        jones_value=jones_value,
        components=component_count(k),
        minima=minima_count(k),
        writhe_value=w,
        a=a,
    )
