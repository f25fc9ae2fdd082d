"""The exact value of a Laurent polynomial in A at the Fibonacci point
A = e^(i pi/10), the reference that bracket_eval is held to on long words.

A has order 20, so the coefficients are summed, as exact integers, into
20 buckets by exponent mod 20, and the value is one dot product of the
buckets with cos and sin of k pi/10, taken in decimal at 80 digits and
rounded to a float once.  LaurentPoly.evaluate sums the coefficients as
floats; on long words they run to many digits and cancel, so it is no
reference there.  A plain module, like laurent_ring, so tests under
``@given`` can call it."""

from decimal import Decimal, localcontext

from stockbraid.laurent import LaurentPoly

ORDER = 20
DIGITS = 80


def _powers() -> list[tuple[Decimal, Decimal]]:
    """(cos, sin) of k pi/10 for k = 0..19, from cos(pi/10) = sqrt(10 + 2
    sqrt 5) / 4 and sin(pi/10) = (sqrt 5 - 1) / 4."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        root5 = Decimal(5).sqrt()
        c, s = (10 + 2 * root5).sqrt() / 4, (root5 - 1) / 4
        powers = [(Decimal(1), Decimal(0))]
        for _ in range(ORDER - 1):
            re, im = powers[-1]
            powers.append((re * c - im * s, re * s + im * c))
    return powers


POWERS = _powers()


def value_at_fibonacci_point(poly: LaurentPoly) -> complex:
    buckets = [0] * ORDER
    for exponent, coeff in poly.items():
        buckets[exponent % ORDER] += coeff
    with localcontext() as ctx:
        ctx.prec = DIGITS
        re = sum(b * c for b, (c, _) in zip(buckets, POWERS))
        im = sum(b * s for b, (_, s) in zip(buckets, POWERS))
    return complex(float(re), float(im))
