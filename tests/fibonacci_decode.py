"""The exact value of a Laurent polynomial in A at a root of unity
A = e^(i pi/q), the reference that bracket_eval is held to on long words.

A has order 2q, so the coefficients are summed, as exact integers, into
2q buckets by exponent mod 2q, and the value is one dot product of the
buckets with cos and sin of k pi/q, taken in decimal at 80 digits and
rounded to a float once.  At q = 10 that is the Fibonacci point, where
prob evaluates.  LaurentPoly.evaluate sums the coefficients as floats; on
long words they run to many digits and cancel, so it is no reference
there.  A plain module, like laurent_ring, so tests under ``@given`` can
call it."""

from decimal import Decimal, localcontext
from functools import cache

from stockbraid.laurent import LaurentPoly

DIGITS = 80
FIBONACCI_Q = 10
# The working precision, and the size below which a series stops.
_PREC = DIGITS + 10
_TINY = Decimal(10) ** -_PREC


def _arctan_inverse(m: int) -> Decimal:
    """arctan(1/m) by its series, to the context's precision."""
    total, power, j = Decimal(0), Decimal(1) / m, 0
    while power > _TINY:
        total += power / (2 * j + 1) if j % 2 == 0 else -power / (2 * j + 1)
        power /= m * m
        j += 1
    return total


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x by the series of e^(ix), to the context's precision."""
    re, im, term, n = Decimal(0), Decimal(0), Decimal(1), 0
    while abs(term) > _TINY:
        # term is x^n / n!, which i^n sends to re or im with a sign.
        if n % 2 == 0:
            re += term if n % 4 == 0 else -term
        else:
            im += term if n % 4 == 1 else -term
        n += 1
        term = term * x / n
    return re, im


@cache
def powers(q: int) -> list[tuple[Decimal, Decimal]]:
    """(cos, sin) of k pi/q for k = 0..2q-1, with pi from Machin's formula
    16 arctan(1/5) - 4 arctan(1/239), each to 80 digits."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        pi = 16 * _arctan_inverse(5) - 4 * _arctan_inverse(239)
        table = [_cos_sin(k * pi / q) for k in range(2 * q)]
        ctx.prec = DIGITS
        return [(+re, +im) for re, im in table]


def value_at_root(poly: LaurentPoly, q: int) -> complex:
    """poly at A = e^(i pi/q), exact up to the one final rounding."""
    buckets = [0] * (2 * q)
    for exponent, coeff in poly.terms.items():
        buckets[exponent % (2 * q)] += coeff
    with localcontext() as ctx:
        ctx.prec = DIGITS
        re = sum(b * c for b, (c, _) in zip(buckets, powers(q)))
        im = sum(b * s for b, (_, s) in zip(buckets, powers(q)))
    return complex(float(re), float(im))


def value_at_fibonacci_point(poly: LaurentPoly) -> complex:
    return value_at_root(poly, FIBONACCI_Q)
