"""Replayable check of the trace planner's picks against the real cost of
both plans.

``bracket._trace_plan`` chooses, from an estimate, whether a trace closure
is swept in word order or radially.  This script draws seeded trace words
(2-30 strands, 0-24 crossings), counts the state-steps of both plans, that
is the states each step of ``bracket._closing(schedule)`` reads, with a
coefficient-free sweep that keeps one set of matchings per step, and
compares the plan the planner chose with the cheaper of the two.  The
draws come from a seeded ``random.Random``, so every run checks the same
words, and the check needs neither pytest nor Hypothesis:

    PYTHONPATH=src python tests/plan_quality.py

prints one JSON object: the number of words, the wrong picks, the
state-steps of the chosen plans and of the best of the two, summed over
the words, and the chosen total's excess over the best as a fraction.  It
exits 1 when that excess is above MAX_EXCESS.
"""

import json
import random
import sys

from stockbraid import bracket
from stockbraid.braid import BraidWord
from stockbraid.closure import ClosedBraid

# The largest excess of the chosen plans' state-steps over the best plans'.
MAX_EXCESS = 0.05


def state_steps(schedule) -> int:
    """The states the steps of schedule, closed early, read in all: a
    generator step keeps each state and adds its cap-cup smoothing, and a
    closing step replaces each state by its closing."""
    states = {schedule.start}
    total = 0
    for a, b, sign in bracket._closing(schedule).steps:
        total += len(states)
        moved = {bracket._cupcap(m, a, b) for m in states}
        states = states | moved if sign else moved
    return total


def draw_word(rng: random.Random) -> BraidWord:
    n = rng.randrange(2, 31)
    return BraidWord(
        n, [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(rng.randrange(25))])


def check(seed: int = 7, count: int = 3000) -> dict:
    """The planner's picks on `count` words drawn from `seed`, against the
    cheaper of the two plans on each."""
    rng = random.Random(seed)
    wrong = chosen_total = best_total = 0
    for _ in range(count):
        word = draw_word(rng)
        tracks = bracket._tracks(word)
        radial = state_steps(bracket._radial_schedule(word, tracks))
        in_order = state_steps(bracket._word_schedule(ClosedBraid(word, "trace")))
        chosen = radial if bracket._trace_plan(tracks) else in_order
        best = min(radial, in_order)
        wrong += chosen > best
        chosen_total += chosen
        best_total += best
    return {
        "words": count,
        "wrong_picks": wrong,
        "chosen_state_steps": chosen_total,
        "best_state_steps": best_total,
        "excess": round(chosen_total / best_total - 1, 4),
    }


def within_bar(result: dict) -> bool:
    return result["chosen_state_steps"] <= (1 + MAX_EXCESS) * result["best_state_steps"]


if __name__ == "__main__":
    result = check()
    print(json.dumps(result))
    sys.exit(0 if within_bar(result) else 1)
