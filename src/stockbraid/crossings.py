"""Crossing detection between consecutive trading days and braid assembly.

Strand positions are price ranks: position 1 holds the lowest-priced
stock of the day, ties broken by lexicographic ticker order.  When the
rank order changes between two days, the permutation is decomposed into
adjacent swaps by a bubble sort that sweeps positions left to right
repeatedly until sorted; one crossing event is emitted per swap, in
schedule order, and every event in the interval carries the two stocks'
own absolute price changes across the same pair of days.

Classification keys on the pre-swap higher-priced stock of the pair: the
crossing is an overcrossing (positive generator) when that stock's price
change strictly exceeds the other's, an undercrossing (negative
generator) when it is strictly smaller.  Equal changes fall back to the
higher price on the later day, then to the lexicographically smaller
ticker crossing over.

Cost: detection walks the price rows by index and sorts each day's
tickers once, by price alone and stably over the tickers in
lexicographic order, so no Python code runs per ticker; it is linear in
days (times one sort of the tickers).
Intervals whose rank order does not change are skipped.  In a changed
one the bubble sort compares each adjacent pair's later-day prices
directly, equal prices falling back to a tie rank computed once per
series.  Each pass runs from one position before the previous pass's
first swap to its last swap, and a pass with no swap ends the interval:
positions past the last swap are final and a stock moves down at most
one position per pass, so the swaps are those of full passes.  That is
O(tickers^2) comparisons at most, only between the first and last moved
positions, plus one event per swap.  An event is a named tuple built
without a Python call frame.  One rule, _exponent, signs a crossing from
the event's fields; braid_with_events applies it once per event and
hands the signed values to BraidWord(n, values), which checks each
distinct value once, and classify_crossing names its result.
write_audit streams the audit file from that word's signs: one fixed
template per record, each date, ticker and distinct price change
formatted once per file, and one write per chunk of records, so no
per-crossing dict or JSON encoder call is made.
"""

from __future__ import annotations

import enum
from datetime import date
from decimal import Decimal
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

from .braid import BraidWord, _Memo, _quote
from .market import PriceSeries, cents_to_decimal


class CrossingSign(enum.Enum):
    """Over maps to the positive generator, under to the negative one."""

    OVER = "over"
    UNDER = "under"

    @property
    def exponent(self) -> int:
        return 1 if self is CrossingSign.OVER else -1


class CrossingEvent(NamedTuple):
    """One adjacent swap between consecutive dates, as an immutable
    named tuple (fields in this order; compares and unpacks as a tuple).

    lower_ticker and upper_ticker occupied rank positions i and i+1
    before the swap; delta_* are the stocks' own absolute price changes
    across the interval and *_after_cents their prices on to_date, all
    in cents.  delta_lower and delta_upper give the changes as exact
    Decimals.
    """

    from_date: date
    to_date: date
    position: int
    lower_ticker: str
    upper_ticker: str
    delta_lower_cents: int
    delta_upper_cents: int
    lower_after_cents: int
    upper_after_cents: int

    @property
    def delta_lower(self) -> Decimal:
        return cents_to_decimal(self.delta_lower_cents)

    @property
    def delta_upper(self) -> Decimal:
        return cents_to_decimal(self.delta_upper_cents)


def _ranker(tickers: tuple[str, ...]) -> Callable[[tuple[int, ...]], list[int]]:
    """The rank rule as a function of one price row: the row's ticker
    indices sorted ascending by price, exact ties ranking the
    lexicographically smaller ticker lower.

    The sort is by price alone, over the indices already in
    lexicographic order of their tickers; it is stable, so tied prices
    keep that order and the result is the order of the pair (price,
    ticker), with no Python code run per ticker.
    """
    lexicographic = sorted(range(len(tickers)), key=tickers.__getitem__)

    def rank(row: tuple[int, ...]) -> list[int]:
        return sorted(lexicographic, key=row.__getitem__)

    return rank


def rank_order(series: PriceSeries, on: date) -> list[str]:
    """Tickers sorted ascending by price on the given date; exact ties
    rank the lexicographically smaller ticker lower."""
    row = series.prices_cents[series.date_index(on)]
    return [series.tickers[t] for t in _ranker(series.tickers)(row)]


def detect_crossings(series: PriceSeries) -> list[CrossingEvent]:
    """All crossing events of the series, one per adjacent swap, ordered
    by interval and then by bubble-sort schedule."""
    dates, rows, tickers = series.dates, series.prices_cents, series.tickers
    if len(dates) < 2:
        raise ValueError("crossing detection needs at least two dates")
    rank = _ranker(tickers)
    # lex[t] is ticker t's place in the rank order of equal prices: the tie rank.
    lex = [0] * len(tickers)
    for place, t in enumerate(rank((0,) * len(tickers))):
        lex[t] = place
    new = tuple.__new__
    events: list[CrossingEvent] = []
    append = events.append
    # Strands are ticker indices; arrangement holds them by rank on day d - 1.
    arrangement = rank(rows[0])
    for d in range(1, len(dates)):
        target = rank(rows[d])
        if target == arrangement:
            continue
        from_date, to_date, from_row, to_row = dates[d - 1], dates[d], rows[d - 1], rows[d]
        # Positions before the first and after the last difference already
        # hold their targets and never swap, so the passes skip them.
        lo, hi = 0, len(target) - 1
        while arrangement[lo] == target[lo]:
            lo += 1
        while arrangement[hi] == target[hi]:
            hi -= 1
        start, stop = lo, hi
        while True:
            first = last = -1
            for i in range(start, stop):
                lower, upper = arrangement[i], arrangement[i + 1]
                lower_after, upper_after = to_row[lower], to_row[upper]
                # The order _ranker sorts by: price, then ticker.
                if lower_after > upper_after or (
                    lower_after == upper_after and lex[lower] > lex[upper]
                ):
                    arrangement[i], arrangement[i + 1] = upper, lower
                    if first < 0:
                        first = i
                    last = i
                    append(new(CrossingEvent, (
                        from_date,
                        to_date,
                        i + 1,
                        tickers[lower],
                        tickers[upper],
                        abs(lower_after - from_row[lower]),
                        abs(upper_after - from_row[upper]),
                        lower_after,
                        upper_after,
                    )))
            if last < 0:
                break
            # Pairs below first - 1 stay in order and pairs from last up are final.
            start, stop = max(first - 1, lo), last
    return events


def _exponent(event: CrossingEvent) -> int:
    """+1 iff the pre-swap higher-priced stock out-moved the other, else -1.

    Equal changes fall back to the higher price on the later day, then
    to the lexicographically smaller ticker crossing over, so the sign
    is deterministic for any input.
    """
    _, _, _, lower, upper, delta_lower, delta_upper, lower_after, upper_after = event
    if delta_upper != delta_lower:
        return 1 if delta_upper > delta_lower else -1
    if upper_after != lower_after:
        return 1 if upper_after > lower_after else -1
    return 1 if upper < lower else -1


def classify_crossing(event: CrossingEvent) -> CrossingSign:
    """Over iff the pre-swap higher-priced stock out-moved the other
    (_exponent's sign, tie-break chain included)."""
    return CrossingSign.OVER if _exponent(event) > 0 else CrossingSign.UNDER


def braid_with_events(series: PriceSeries) -> tuple[BraidWord, list[CrossingEvent]]:
    """build_braid's word together with the events it was read from, so
    a caller that also wants the audit log detects crossings once."""
    if len(series.tickers) < 2:
        raise ValueError("braid construction needs at least two tickers")
    events = detect_crossings(series)
    values = [event.position * _exponent(event) for event in events]
    return BraidWord(len(series.tickers), values), events


# The keys of an audit record, in order.
_AUDIT_KEYS = ("from_date", "to_date", "position", "lower_ticker", "upper_ticker",
               "delta_lower", "delta_upper", "sign", "generator")
# Keys whose values are ASCII text with nothing to escape: dates, decimals, sign names.
_PLAIN_TEXT = {"from_date", "to_date", "delta_lower", "delta_upper", "sign"}
# One record laid out as json.dump(entries, fh, indent=2) lays out an entry.
_RECORD = (
    "  {\n"
    + ",\n".join(
        f'    "{key}": "%s"' if key in _PLAIN_TEXT else f'    "{key}": %s' for key in _AUDIT_KEYS
    )
    + "\n  }"
)
# Records per write of write_audit.
_CHUNK = 512
_SIGN_NAMES = {sign.exponent > 0: sign.value for sign in CrossingSign}


def _decimal_text(cents: int) -> str:
    # Exact at any length: a Decimal's str is not bound by the int-to-str digit limit.
    return str(cents_to_decimal(cents))


def _audit_values(
    events: list[CrossingEvent], values: Iterable[int], ticker_text: Callable[[str], str] = str
) -> Iterator[tuple]:
    """The values of each event's audit record in _AUDIT_KEYS order,
    given its signed generator value, with tickers written by ticker_text.
    Each date, ticker and distinct price change is formatted once per
    call."""
    dates = _Memo(date.isoformat)
    names = _Memo(ticker_text)
    deltas = _Memo(_decimal_text)
    for event, value in zip(events, values, strict=True):
        from_date, to_date, position, lower, upper, delta_lower, delta_upper, _, _ = event
        yield (
            dates[from_date],
            dates[to_date],
            position,
            names[lower],
            names[upper],
            deltas[delta_lower],
            deltas[delta_upper],
            _SIGN_NAMES[value > 0],
            value,
        )


def audit_entries(events: list[CrossingEvent]) -> list[dict]:
    """audit_log's records of the given events."""
    values = [event.position * _exponent(event) for event in events]
    return [dict(zip(_AUDIT_KEYS, record)) for record in _audit_values(events, values)]


def write_audit(fh: TextIO, events: list[CrossingEvent], word: BraidWord) -> None:
    """Write audit_entries(events) to fh exactly as json.dump(...,
    indent=2) followed by a newline would, taking each sign from the
    word that braid_with_events returned with the events.

    Tickers are quoted by json's ASCII escaper, which is what json.dumps
    writes for a str; records fill a fixed template and go out _CHUNK at
    a time.
    """
    records = map(_RECORD.__mod__, _audit_values(events, word.values, _quote))
    head = "[\n"
    while chunk := list(islice(records, _CHUNK)):
        fh.write(head + ",\n".join(chunk))
        head = ",\n"
    fh.write("[]\n" if head == "[\n" else "\n]\n")


def build_braid(series: PriceSeries) -> BraidWord:
    """The braid word of the whole series: classified crossings in
    detection order, strand 1 anchored to the lowest-priced stock on the
    first date."""
    return braid_with_events(series)[0]


def audit_log(series: PriceSeries) -> list[dict]:
    """JSON-ready record of every crossing: dates, tickers, both price
    changes as printed decimals, and the classified sign."""
    return audit_entries(detect_crossings(series))
