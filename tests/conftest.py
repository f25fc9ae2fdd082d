import cmath
import random
from pathlib import Path

import pytest

from stockbraid import BraidWord, bracket, jones_eval, parse_csv, plat_close

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
        return BraidWord.from_ints(n, ints)

    return make


@pytest.fixture()
def flipped_skein_residue():
    """The residue of verify_jones_skein's relation on plat closures with
    the sign of the V(K-) term flipped, from jones_eval: the negative
    control for the pinned skein form."""

    def residue(wl: BraidWord, i: int, wr: BraidWord, t: complex) -> complex:
        n = wl.n_strands
        v_plus, v_minus, v_zero = (
            jones_eval(plat_close(BraidWord.from_ints(n, wl.to_ints() + mid + wr.to_ints())), t)
            for mid in ([i], [-i], [])
        )
        root = cmath.sqrt(t)
        return root * v_plus + v_minus / root - (root - 1 / root) * v_zero

    return residue


@pytest.fixture()
def sweep_steps(monkeypatch):
    """The state vectors of a closing sweep after each of its steps.

    steps(sweep, k, ring) runs sweep(k, **ring), where ring passes closing
    weights, once on every prefix of bracket._closing_schedule's runs and
    returns one (kind, state vector) pair per step, kind "crossing" or
    "arc"."""
    schedule = bracket._closing_schedule

    def prefix(runs, j):
        out = []
        for run, arcs in runs:
            if j <= 0:
                break
            out.append((run[:j], arcs[: max(j - len(run), 0)]))
            j -= len(run) + len(arcs)
        return out

    def steps(sweep, k, ring: dict) -> list:
        runs = []

        def recorded(*args):
            runs[:] = schedule(*args)
            return runs

        monkeypatch.setattr(bracket, "_closing_schedule", recorded)
        sweep(k, **ring)
        kinds = [kind for run, arcs in runs for kind in ["crossing"] * len(run) + ["arc"] * len(arcs)]
        out = []
        for j in range(1, len(kinds) + 1):
            monkeypatch.setattr(bracket, "_closing_schedule", lambda *args, j=j: prefix(schedule(*args), j))
            out.append((kinds[j - 1], sweep(k, **ring)[0]))
        monkeypatch.setattr(bracket, "_closing_schedule", schedule)
        return out

    return steps
