"""CSV ingest of daily closing prices into an exact, validated series.

Prices are stored as integer cents, never as binary floats: the crossing
rule downstream compares price differences as small as one cent, and a
rounding error there could flip a generator sign.  Missing cells are
rejected rather than filled; a fabricated price can fabricate a crossing.

Ingest validates every row whatever the date window.  A plain document
(a header with no quote, then lines of a date and plain, positive
prices, ASCII digits with at most two decimals) is accepted by one regex
match per line and one date pass per date format, with no Python loop
per row; only the window's rows are then converted to cents, each
distinct cell text once through one memo, so a window over a long
history does not pay for the rest.  Any other document is one
csv.reader pass, row by row, every cell read with Decimal as its row is
validated, and every error is raised there.
"""

from __future__ import annotations

import csv
import io
import re
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from datetime import date, datetime
from decimal import MAX_PREC, Context, Decimal, InvalidOperation, Overflow
from itertools import repeat
from operator import itemgetter

from .braid import _is_int, _Value

_EXACT = Context(prec=MAX_PREC)  # the default Emax still raises Overflow


def cents_to_decimal(cents: int) -> Decimal:
    """The price of an integer number of cents, exact for any number of digits."""
    return Decimal(cents).scaleb(-2, _EXACT)


class CsvFormatError(ValueError):
    """Raised when a price document cannot be parsed or validated."""


class WindowError(ValueError):
    """Raised when a date window selects no rows."""


class PriceSeries(_Value):
    """Aligned closing prices: prices_cents[d][t] is the price of
    tickers[t] on dates[d], in integer cents.

    tickers are pairwise distinct, non-empty str; dates are strictly
    increasing datetime.date values, not datetimes; every cell is a
    positive int (not a bool).  Each field is stored as a tuple, so a
    series built from lists hashes too.  Instances are immutable and safe
    to share across threads.
    """

    __slots__ = ("tickers", "dates", "prices_cents")

    def __init__(self, tickers: tuple[str, ...], dates: tuple[date, ...],
                 prices_cents: tuple[tuple[int, ...], ...]) -> None:
        tickers, dates = _items(tickers, "ticker list"), _items(dates, "date list")
        rows = _items(prices_cents, "price matrix")
        prices_cents = tuple(_items(row, "price row") for row in rows)
        for t in tickers:
            if not isinstance(t, str):
                raise CsvFormatError(f"ticker symbol {t!r} is not a str")
        _check_tickers(tickers)
        for d in dates:
            if not isinstance(d, date) or isinstance(d, datetime):
                raise CsvFormatError(f"date {d!r} is not a plain datetime.date")
        if len(prices_cents) != len(dates):
            raise CsvFormatError("price matrix and date list disagree")
        for earlier, later in zip(dates, dates[1:]):
            if earlier >= later:
                raise CsvFormatError(f"dates not strictly increasing at {later}")
        for d, row in zip(dates, prices_cents):
            if len(row) != len(tickers):
                raise CsvFormatError(f"row {d} has {len(row)} cells, expected {len(tickers)}")
            for t, cents in zip(tickers, row):
                if not _is_int(cents):
                    raise CsvFormatError(
                        f"price {cents!r} for {t} on {d} is not an int number of cents")
                if cents <= 0:
                    raise CsvFormatError(f"non-positive price for {t} on {d}")
        _Value.__init__(self, tickers, dates, prices_cents)

    def price_cents(self, on: date, ticker: str) -> int:
        return self.prices_cents[self.date_index(on)][self.ticker_index(ticker)]

    def price(self, on: date, ticker: str) -> Decimal:
        return cents_to_decimal(self.price_cents(on, ticker))

    def date_index(self, on: date) -> int:
        try:
            return self.dates.index(on)
        except ValueError:
            raise WindowError(f"date {on.isoformat()} not in series") from None

    def ticker_index(self, ticker: str) -> int:
        try:
            return self.tickers.index(ticker)
        except ValueError:
            raise CsvFormatError(f"unknown ticker {ticker!r}") from None


def _items(field: object, what: str) -> tuple:
    """The items of a PriceSeries field as a tuple; CsvFormatError if it is not iterable."""
    try:
        items = iter(field)
    except TypeError:
        raise CsvFormatError(f"{what} {field!r} is not iterable") from None
    return tuple(items)


def _check_tickers(tickers: tuple[str, ...]) -> None:
    if any(not t for t in tickers):
        raise CsvFormatError("ticker symbols must be non-empty")
    if len(set(tickers)) != len(tickers):
        raise CsvFormatError("tickers must be pairwise distinct")


def parse_price_date(text: str) -> date:
    """Accept ISO YYYY-MM-DD and M/D/YYYY forms only, in ASCII digits, on every Python."""
    text = text.strip()
    try:
        if re.fullmatch(_PLAIN_DATE, text):
            return _plain_dates([text])[0]
    except ValueError:
        pass
    raise CsvFormatError(f"unparseable date {text!r}")


def _parse_cents(raw: str, row_date: date, ticker: str) -> int:
    # row_date is formatted only into error messages; f"{d}" is d.isoformat().
    raw = raw.strip()
    if not raw:
        raise CsvFormatError(f"missing price for {ticker} on {row_date}")
    try:
        # Decimal also reads non-ASCII digits and underscores; a price cell takes neither.
        if not raw.isascii() or "_" in raw:
            raise InvalidOperation
        value = Decimal(raw)
    except InvalidOperation:
        raise CsvFormatError(f"unparseable price {raw!r} for {ticker} on {row_date}") from None
    if not value.is_finite():
        raise CsvFormatError(f"non-finite price {raw!r} for {ticker} on {row_date}")
    try:
        cents = value.scaleb(2, _EXACT)
    except Overflow:
        raise CsvFormatError(f"price {raw!r} for {ticker} on {row_date} is out of range") from None
    if cents != cents.to_integral_value():
        raise CsvFormatError(
            f"price {raw!r} for {ticker} on {row_date} has more than cent precision"
        )
    if cents <= 0:
        raise CsvFormatError(f"non-positive price {raw!r} for {ticker} on {row_date}")
    return int(cents)


# A plain price, the cell of _parse_plain's line pattern: ASCII digits
# with at most two decimals and no sign, space or exponent, as in the Dow
# sample; the lookahead refuses a cell of zeros, so a plain cell is
# positive.  A document with any other cell, and every error message,
# goes cell by cell through _parse_cents.  The digit bound keeps int()
# far below its string-length limit.
_PLAIN_CELL = r"(?!0+(?:\.0{1,2})?(?:,|\Z))[0-9]{1,15}(?:\.[0-9]{1,2})?"
# The shape of every date text read, ISO or M/D/YYYY; _plain_dates reads it.
_PLAIN_DATE = r"(?:[0-9]{4}-[0-9]{2}-[0-9]{2}|[0-9]{1,2}/[0-9]{1,2}/[0-9]{4})"
# The longest field of a plain line: 15 whole digits, a point, two decimals.
_PLAIN_FIELD_MAX = 18


def _cent_rows(texts: list[str], width: int) -> tuple[tuple[int, ...], ...]:
    """Rows of width cents from _parse_plain's row texts, each distinct cell text converted once."""
    cells = ",".join(texts).split(",") if texts else []
    distinct = dict.fromkeys(cells)
    cents = [int(w + f.ljust(2, "0")) for w, _, f in map(str.partition, distinct, repeat("."))]
    row_cells = map(dict(zip(distinct, cents)).__getitem__, cells)
    return tuple(zip(*[iter(row_cells)] * width))


def _plain_dates(fields: list[str]) -> list[date]:
    """The dates of _PLAIN_DATE fields, a pass per format; ValueError if one is not a date."""
    joined = "/".join(fields)
    if joined.count("/") == len(fields) - 1:  # no field holds a slash: all ISO
        return list(map(date.fromisoformat, fields))
    parts = joined.split("/")
    if len(parts) == 3 * len(fields):  # every field holds two: all M/D/YYYY
        return list(map(date, map(int, parts[2::3]), map(int, parts[::3]), map(int, parts[1::3])))
    return list(map(parse_price_date, fields))


def _records(text: str):
    """The CSV records of text after any leading byte-order marks, each
    with the physical line it starts on.  A record ends at LF, CRLF or a
    lone CR, as in a file opened with universal newlines; the csv
    module's own errors become CsvFormatError."""
    reader = csv.reader(io.StringIO(text.lstrip("﻿"), newline=""))
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise CsvFormatError(f"line {reader.line_num}: {exc}") from None


def _parse_plain(text: str) -> tuple[tuple[str, ...], list[tuple[date, str]]] | None:
    """The tickers and rows of a plain document, each row its date and
    the text of its prices, or None for any other document.

    A document is plain when its header is one physical line with no
    quote, no NUL, no CR and no field past the csv field limit, and every
    later line (split on LF only; one final empty piece is dropped) is a
    date and one plain cell per ticker, and no date repeats.  A CR
    anywhere keeps the document off this path; a file read with universal
    newlines holds none.  csv.reader splits such a document as this does
    and the row loop raises nothing on it.  A line costs a regex match and
    a partition; anything else, and every error, is left to _parse_records.
    """
    # Not splitlines, which also splits on \x0b, \x1c, \u2028 and others
    # that csv keeps inside a field.  A leading byte-order mark stays in
    # the date column's name, which is never read.
    head, *lines = text.split("\n")
    header = head.split(",")
    limit = csv.field_size_limit()
    if (len(header) < 2 or '"' in head or "\0" in head or "\r" in head
            or limit < _PLAIN_FIELD_MAX or max(map(len, header)) > limit):
        return None
    if lines and lines[-1] == "":
        lines.pop()
    line = re.compile(rf"{_PLAIN_DATE}(?:,{_PLAIN_CELL}){{{len(header) - 1}}}")
    if not all(map(line.fullmatch, lines)):
        return None
    fields = list(map(str.partition, lines, repeat(",")))
    try:
        dates = _plain_dates(list(map(itemgetter(0), fields)))
    except ValueError:
        return None
    if len(set(dates)) != len(dates):
        return None
    return tuple(h.strip() for h in header[1:]), list(zip(dates, map(itemgetter(2), fields)))


def _parse_records(text: str) -> tuple[tuple[str, ...], list[tuple[date, tuple[int, ...]]]]:
    """The tickers and rows of any document, each row its date and its
    cents, read record by record with csv.reader; the first bad cell in
    document order raises, with its line number where the shape of the
    record is at fault."""
    reader = _records(text)
    try:
        _, header = next(reader)
    except StopIteration:
        raise CsvFormatError("empty document: no header row") from None
    if len(header) < 2:
        raise CsvFormatError("header must name a date column and at least one ticker")
    tickers = tuple(h.strip() for h in header[1:])
    rows: list[tuple[date, tuple[int, ...]]] = []
    seen: set[date] = set()
    for lineno, row in reader:
        if not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise CsvFormatError(
                f"line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        row_date = parse_price_date(row[0])
        if row_date in seen:
            raise CsvFormatError(f"duplicate date {row_date.isoformat()}")
        seen.add(row_date)
        rows.append((row_date, tuple(map(_parse_cents, row[1:], repeat(row_date), tickers))))
    return tickers, rows


def parse_csv(
    text: str, window: Callable[[tuple[date, ...]], tuple[int, int]] | None = None
) -> PriceSeries:
    """Parse a price document: header ``Date,T1,T2,...`` then one row per
    trading day, in ascending or descending date order.

    The result is normalized to ascending dates.  Any missing, blank,
    non-positive, or over-precise cell rejects the whole document with
    the offending date and ticker named: the first such cell in document
    order.

    window, if given, is called once the whole document has validated,
    with the ascending dates, and returns the (lo, hi) slice of them to
    keep; in a plain document only the rows of that slice are converted
    to cents.  Whatever it raises propagates.
    """
    parsed = _parse_plain(text)
    plain = parsed is not None
    tickers, rows = parsed or _parse_records(text)
    del parsed  # so a window frees the rows outside it before the conversion
    rows.sort(key=itemgetter(0))
    # Checked before the window, so a bad header is reported before a bad window.
    _check_tickers(tickers)
    dates = tuple(map(itemgetter(0), rows))
    if window is not None:
        lo, hi = window(dates)
        dates, rows = dates[lo:hi], rows[lo:hi]
    prices = [p for _, p in rows]
    return PriceSeries._unchecked(
        tickers, dates, _cent_rows(prices, len(tickers)) if plain else tuple(prices))


def format_csv(series: PriceSeries) -> str:
    """Render back to the canonical CSV form (ISO dates, two decimals)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("Date",) + series.tickers)
    for d, row in zip(series.dates, series.prices_cents):
        writer.writerow([d.isoformat()] + [str(cents_to_decimal(c)) for c in row])
    return out.getvalue()


def window_bounds(dates: Sequence[date], start: date, end: date) -> tuple[int, int]:
    """The slice dates[lo:hi] of ascending dates d with start <= d <= end,
    bounds inclusive; WindowError if start is after end or the slice is empty."""
    if start > end:
        raise WindowError(f"window start {start} is after end {end}")
    lo = bisect_left(dates, start)
    hi = bisect_right(dates, end)
    if lo == hi:
        raise WindowError(
            f"window {start.isoformat()}..{end.isoformat()} selects no dates"
        )
    return lo, hi


def select_window(series: PriceSeries, start: date, end: date) -> PriceSeries:
    """The sub-series of dates d with start <= d <= end, bounds inclusive."""
    # Dates are strictly increasing, so the window is one contiguous slice.
    lo, hi = window_bounds(series.dates, start, end)
    return PriceSeries._unchecked(series.tickers, series.dates[lo:hi], series.prices_cents[lo:hi])
