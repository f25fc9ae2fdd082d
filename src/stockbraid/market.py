"""CSV ingest of daily closing prices into an exact, validated series.

Prices are stored as integer cents, never as binary floats: the crossing
rule downstream compares price differences as small as one cent, and a
rounding error there could flip a generator sign.  Missing cells are
rejected rather than filled; a fabricated price can fabricate a crossing.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import date, datetime
from decimal import MAX_PREC, Context, Decimal, InvalidOperation, Overflow

_EXACT = Context(prec=MAX_PREC)  # the default Emax still raises Overflow
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def cents_to_decimal(cents: int) -> Decimal:
    """The price of an integer number of cents, exact for any number of digits."""
    return Decimal(cents).scaleb(-2, _EXACT)


class CsvFormatError(ValueError):
    """Raised when a price document cannot be parsed or validated."""


class WindowError(ValueError):
    """Raised when a date window selects no rows."""


@dataclass(frozen=True)
class PriceSeries:
    """Aligned closing prices: prices_cents[d][t] is the price of
    tickers[t] on dates[d], in integer cents.

    dates are strictly increasing; every cell is present and positive;
    tickers are pairwise distinct.  Instances are immutable and safe to
    share across threads.
    """

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    prices_cents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if any(not t for t in self.tickers):
            raise CsvFormatError("ticker symbols must be non-empty")
        if len(set(self.tickers)) != len(self.tickers):
            raise CsvFormatError("tickers must be pairwise distinct")
        if len(self.prices_cents) != len(self.dates):
            raise CsvFormatError("price matrix and date list disagree")
        for earlier, later in zip(self.dates, self.dates[1:]):
            if earlier >= later:
                raise CsvFormatError(f"dates not strictly increasing at {later}")
        for d, row in zip(self.dates, self.prices_cents):
            if len(row) != len(self.tickers):
                raise CsvFormatError(f"row {d} has {len(row)} cells, expected {len(self.tickers)}")
            for t, cents in zip(self.tickers, row):
                if cents <= 0:
                    raise CsvFormatError(f"non-positive price for {t} on {d}")

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


def parse_price_date(text: str) -> date:
    """Accept ISO YYYY-MM-DD and M/D/YYYY forms only, on every Python."""
    text = text.strip()
    try:
        if "/" in text:
            return datetime.strptime(text, "%m/%d/%Y").date()
        if _ISO_DATE.fullmatch(text):
            return date.fromisoformat(text)
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


def _records(text: str):
    """The CSV records of text after any leading byte-order marks.  A
    record ends at LF, CRLF or a lone CR, as in a file opened with
    universal newlines; the csv module's own errors become CsvFormatError."""
    reader = csv.reader(io.StringIO(text.lstrip("﻿"), newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise CsvFormatError(f"line {reader.line_num}: {exc}") from None


def parse_csv(text: str) -> PriceSeries:
    """Parse a price document: header ``Date,T1,T2,...`` then one row per
    trading day, in ascending or descending date order.

    The result is normalized to ascending dates.  Any missing, blank,
    non-positive, or over-precise cell rejects the whole document with
    the offending date and ticker named.
    """
    reader = _records(text)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError("empty document: no header row") from None
    if len(header) < 2:
        raise CsvFormatError("header must name a date column and at least one ticker")
    tickers = tuple(h.strip() for h in header[1:])
    rows: list[tuple[date, tuple[int, ...]]] = []
    seen: set[date] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise CsvFormatError(
                f"line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        row_date = parse_price_date(row[0])
        if row_date in seen:
            raise CsvFormatError(f"duplicate date {row_date.isoformat()}")
        seen.add(row_date)
        cents = tuple(
            _parse_cents(cell, row_date, ticker)
            for cell, ticker in zip(row[1:], tickers)
        )
        rows.append((row_date, cents))
    rows.sort(key=lambda item: item[0])
    return PriceSeries(
        tickers=tickers,
        dates=tuple(d for d, _ in rows),
        prices_cents=tuple(p for _, p in rows),
    )


def format_csv(series: PriceSeries) -> str:
    """Render back to the canonical CSV form (ISO dates, two decimals)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("Date",) + series.tickers)
    for d, row in zip(series.dates, series.prices_cents):
        writer.writerow([d.isoformat()] + [str(cents_to_decimal(c)) for c in row])
    return out.getvalue()


def select_window(series: PriceSeries, start: date, end: date) -> PriceSeries:
    """The sub-series of dates d with start <= d <= end, bounds inclusive."""
    if start > end:
        raise WindowError(f"window start {start} is after end {end}")
    keep = [i for i, d in enumerate(series.dates) if start <= d <= end]
    if not keep:
        raise WindowError(
            f"window {start.isoformat()}..{end.isoformat()} selects no dates"
        )
    return PriceSeries(
        tickers=series.tickers,
        dates=tuple(series.dates[i] for i in keep),
        prices_cents=tuple(series.prices_cents[i] for i in keep),
    )
