"""The bracket from the Temperley-Lieb sweep on Laurent polynomials in A,
closed at the end, by default in word order: the reference that the
packed-integer ring of ``bracket_poly``, its closing schedules and its
radial order are checked against.  A plain module, not a fixture, so
tests under ``@given`` can call it."""

from stockbraid import ClosedBraid, bracket
from stockbraid.closure import _cycles
from stockbraid.laurent import LaurentPoly

A, A_INV, D = LaurentPoly({1: 1}), LaurentPoly({-1: 1}), LaurentPoly({2: -1, -2: -1})
EXACT_RING = {
    "one": LaurentPoly.one(),
    "weight_pos": (A, A_INV, A),
    "weight_neg": (A_INV, A, A_INV),
    "d": D,
    # A closing step joins two open ends with weight 1 and closes a loop with d.
    "closing": (LaurentPoly.one(), D),
}


def laurent_ring_bracket(k: ClosedBraid, schedule=None) -> LaurentPoly:
    """The sweep of schedule, by default k's word as given, on the Laurent
    ring, each final state multiplied by d once per loop beyond the first
    that its closing involution makes."""
    if schedule is None:
        schedule = bracket._word_schedule(k)
    total = LaurentPoly()
    for m, coeff in bracket._sweep(schedule, **EXACT_RING).items():
        for _ in range(_cycles(m, schedule.close) - 1):
            coeff = coeff * D
        total = total + coeff
    return total
