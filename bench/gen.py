"""Seeded inputs for the benchmark: price CSVs and braid words.

The same seed gives the same bytes.  Item sizes follow fixed schedules
and the seed draws only the content (ticker names, price walks, window
offsets, generators), so runs with different seeds do the same amount of
work up to the variation of the content itself.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass
from datetime import date, timedelta

FIRST_DAY = date(2000, 1, 3)
MIN_CENTS = 500
MAX_CENTS = 20000


@dataclass(frozen=True)
class PriceTable:
    """cents[d][t] is the price of tickers[t] on dates[d], ascending dates."""

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    cents: tuple[tuple[int, ...], ...]


def business_days(count: int, start: date = FIRST_DAY) -> tuple[date, ...]:
    days = []
    d = start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return tuple(days)


def _ticker_names(rng: random.Random, count: int) -> tuple[str, ...]:
    names: list[str] = []
    while len(names) < count:
        name = "".join(rng.choice(string.ascii_uppercase) for _ in range(rng.choice((3, 4))))
        if name not in names:
            names.append(name)
    return tuple(names)


def _price_walk(rng: random.Random, n_tickers: int):
    """Endless daily price rows (cents) of mean-reverting random walks
    around anchors spread over one band.

    The pull back to each ticker's anchor keeps the crossing rate the same
    over the whole history and across seeds.  About 3% of days are flat
    for every ticker, each ticker stays flat on 15% of the other days, and
    on 2% of days one ticker is set to exactly another's price, so exact
    ties and the tie-break chain are exercised.
    """
    band = 40 * n_tickers
    anchors = [5000 + rng.randrange(-band, band + 1) for _ in range(n_tickers)]
    prices = list(anchors)
    day = 0
    while True:
        if day and rng.random() >= 0.03:
            for t in range(n_tickers):
                if rng.random() >= 0.15:
                    pull = (anchors[t] - prices[t]) // 50
                    prices[t] = min(MAX_CENTS, max(MIN_CENTS, prices[t] + pull + rng.randint(-30, 30)))
            if n_tickers > 1 and rng.random() < 0.02:
                i, j = rng.sample(range(n_tickers), 2)
                prices[i] = prices[j]
        yield tuple(prices)
        day += 1


def random_walk_table(rng: random.Random, n_tickers: int, n_days: int) -> PriceTable:
    """n_days of _price_walk for freshly drawn ticker names."""
    tickers = _ticker_names(rng, n_tickers)
    rows = tuple(itertools.islice(_price_walk(rng, n_tickers), n_days))
    return PriceTable(tickers, business_days(n_days), rows)


def interval_gens(tickers: tuple[str, ...], before: tuple[int, ...], after: tuple[int, ...]) -> list[int]:
    """The signed generators of one trading interval, by the paper's rule.

    Strands are price ranks, lowest first, ties by ticker name.  The rank
    order of the first day is bubble-sorted into that of the second by
    left-to-right sweeps, one generator per adjacent swap at its 1-based
    position.  The swap is positive when the pre-swap higher-priced stock
    moved strictly more in absolute cents, negative when strictly less;
    on equal moves the higher price on the second day goes over, and on
    equal prices the lexicographically smaller ticker.
    """
    col = {t: k for k, t in enumerate(tickers)}
    order = sorted(tickers, key=lambda t: (before[col[t]], t))
    target = {t: i for i, t in enumerate(sorted(tickers, key=lambda t: (after[col[t]], t)))}
    gens = []
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(order) - 1):
            lower, upper = order[i], order[i + 1]
            if target[lower] < target[upper]:
                continue
            order[i], order[i + 1] = upper, lower
            swapped = True
            lo, up = col[lower], col[upper]
            move_lo, move_up = abs(after[lo] - before[lo]), abs(after[up] - before[up])
            if move_up != move_lo:
                over = move_up > move_lo
            elif after[up] != after[lo]:
                over = after[up] > after[lo]
            else:
                over = upper < lower
            gens.append(i + 1 if over else -(i + 1))
    return gens


def market_word(rng: random.Random, n_tickers: int, min_reduced: int) -> tuple[PriceTable, list[int]]:
    """The braid word of a price walk from its first day to the first day
    on which the word's free reduction reaches min_reduced generators, and
    that window's table.

    This is the word `stockbraid braid FILE` prints for the table, so it
    keeps the adjacent inverse pairs that real price paths produce when a
    pair of stocks crosses and crosses back.  The window ends on the
    reduced length because that length, not the raw one, sets the cost of
    the sweeps that follow free reduction.
    """
    tickers = _ticker_names(rng, n_tickers)
    rows: list[tuple[int, ...]] = []
    gens: list[int] = []
    reduced: list[int] = []
    for row in _price_walk(rng, n_tickers):
        if rows:
            for g in interval_gens(tickers, rows[-1], row):
                gens.append(g)
                if reduced and reduced[-1] == -g:
                    reduced.pop()
                else:
                    reduced.append(g)
        rows.append(row)
        if len(reduced) >= min_reduced:
            return PriceTable(tickers, business_days(len(rows)), tuple(rows)), gens
    raise AssertionError("a price walk never ends")


def format_price(cents: int) -> str:
    """Shortest exact decimal: 7504 -> '75.04', 7510 -> '75.1', 7500 -> '75'."""
    whole, frac = divmod(cents, 100)
    if frac == 0:
        return str(whole)
    if frac % 10 == 0:
        return f"{whole}.{frac // 10}"
    return f"{whole}.{frac:02d}"


def format_date(d: date, us_style: bool) -> str:
    return f"{d.month}/{d.day}/{d.year}" if us_style else d.isoformat()


def table_csv(table: PriceTable, descending: bool, us_dates: bool) -> str:
    lines = ["Date," + ",".join(table.tickers)]
    order = range(len(table.dates) - 1, -1, -1) if descending else range(len(table.dates))
    for d in order:
        cells = ",".join(format_price(c) for c in table.cents[d])
        lines.append(f"{format_date(table.dates[d], us_dates)},{cells}")
    return "\n".join(lines) + "\n"


def rank_order(table: PriceTable, day: int) -> list[str]:
    """Tickers by ascending price on one day, ties by ticker name."""
    return [t for _, t in sorted(zip(table.cents[day], table.tickers))]


def random_word(rng: random.Random, n_strands: int, length: int) -> list[int]:
    """Signed generators with no adjacent inverse pair.

    The generator indices repeat one seeded order of 1..n-1, so crossings
    spread evenly over the strands and the sweep's state count varies
    little from seed to seed; signs are seeded too, except that a sign is
    flipped where it would cancel its neighbour, so free reduction removes
    nothing and the word has exactly `length` crossings.
    """
    order = list(range(1, n_strands))
    rng.shuffle(order)
    gens: list[int] = []
    for k in range(length):
        g = rng.choice((1, -1)) * order[k % len(order)]
        gens.append(-g if gens and gens[-1] == -g else g)
    return gens


def word_text(n_strands: int, gens: list[int]) -> str:
    return f"{n_strands}:" + "".join(f" {g}" for g in gens)
