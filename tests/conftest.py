import cmath
import random
from pathlib import Path

import pytest

from stockbraid import BraidWord, ClosedBraid, bracket, jones_eval, parse_csv

DATA_DIR = Path(__file__).parent / "data"
DOW4_CSV = DATA_DIR / "dow4_2013.csv"


@pytest.fixture(scope="session")
def dow4_text() -> str:
    return DOW4_CSV.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def dow4_series(dow4_text):
    return parse_csv(dow4_text)


@pytest.fixture()
def rand_word():
    """Factory for seeded random braid words."""

    def make(rng: random.Random, n: int | None = None, max_len: int = 10) -> BraidWord:
        if n is None:
            n = rng.choice([2, 3, 4, 5, 6])
        length = rng.randrange(0, max_len + 1)
        if n == 1:
            return BraidWord(1)
        ints = [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(length)]
        return BraidWord(n, ints)

    return make


@pytest.fixture()
def flipped_skein_residue():
    """The residue of verify_jones_skein's relation on plat closures with
    the sign of the V(K-) term flipped, from jones_eval: the negative
    control for the pinned skein form."""

    def residue(wl: BraidWord, i: int, wr: BraidWord, t: complex) -> complex:
        n = wl.n_strands
        v_plus, v_minus, v_zero = (
            jones_eval(ClosedBraid(BraidWord(n, [*wl.values, *mid, *wr.values]), "plat"), t)
            for mid in ([i], [-i], [])
        )
        root = cmath.sqrt(t)
        return root * v_plus + v_minus / root - (root - 1 / root) * v_zero

    return residue


@pytest.fixture()
def sweep_steps():
    """The state vectors of a sweep after each of its steps.

    steps(schedule, ring) runs the package's bracket._sweep(schedule,
    **ring), where ring passes closing weights, once on every prefix of the
    schedule's steps and returns one (kind, state vector) pair per step,
    kind "crossing" or "arc".  It keeps the sweep it found at setup, so a
    test may wrap bracket._sweep to record the schedules it is given."""
    sweep = bracket._sweep

    def steps(schedule, ring: dict) -> list:
        out = []
        for j, (_, _, sign) in enumerate(schedule.steps, 1):
            prefix = bracket._Schedule(schedule.start, schedule.steps[:j], schedule.close)
            out.append(("crossing" if sign else "arc", sweep(prefix, **ring)))
        return out

    return steps
