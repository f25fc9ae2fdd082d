import csv
import re
from datetime import date, datetime, timedelta
from decimal import Decimal

import date_pass
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockbraid import (
    CsvFormatError,
    WindowError,
    format_csv,
    market,
    parse_csv,
    select_window,
    window_bounds,
)
from stockbraid.market import PriceSeries, parse_price_date


def test_parse_dow4_table(dow4_series):
    s = dow4_series
    assert s.tickers == ("AXP", "HD", "WMT", "PG")
    assert len(s.dates) == 17
    assert s.dates[0] == date(2013, 5, 15)
    assert s.dates[-1] == date(2013, 6, 7)
    assert s.price(date(2013, 5, 15), "AXP") == Decimal("72.78")
    assert s.price_cents(date(2013, 5, 15), "AXP") == 7278
    assert s.price_cents(date(2013, 6, 5), "HD") == 7510  # "75.1" parses exactly


def test_ascending_and_descending_encodings_agree(dow4_text, dow4_series):
    lines = dow4_text.strip().splitlines()
    ascending = "\n".join([lines[0]] + lines[:0:-1]) + "\n"
    assert parse_csv(ascending) == dow4_series


def test_header_only_document_is_valid():
    s = parse_csv("Date,AAA,BBB\n")
    assert s.dates == ()
    assert s.tickers == ("AAA", "BBB")


def test_blank_cell_names_date_and_ticker():
    text = "Date,AXP,WMT\n2013-05-15,72.78,79.86\n2013-05-16,72.23,\n2013-05-17,73.32,77.87\n"
    with pytest.raises(CsvFormatError) as err:
        parse_csv(text)
    assert "WMT" in str(err.value)
    assert "2013-05-16" in str(err.value)


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("2013-05-16,0,75.00", "non-positive"),
        ("2013-05-16,-1.00,75.00", "non-positive"),
        ("2013-05-15,72.00,75.00", "duplicate date"),
        ("15-05-2013,72.00,75.00", "unparseable date"),
        # Compact and week ISO dates: date.fromisoformat takes them from Python 3.11 on.
        ("20130515,72.00,75.00", "unparseable date"),
        ("2013-W20-3,72.00,75.00", "unparseable date"),
        ("2013W203,72.00,75.00", "unparseable date"),
        # The M/D/YYYY grammar is ASCII digits with no inner padding.
        ("3/1/٢٠١٣,72.00,75.00", "unparseable date"),
        ("3/ 1/2013,72.00,75.00", "unparseable date"),
        ("2/29/2013,72.00,75.00", "unparseable date"),
        ("2013-05-16,72.123,75.00", "cent precision"),
        ("2013-05-16,1234567890123456789012345678.991,75.00", "more than cent precision"),
        ("2013-05-16,72.00", "expected 3 fields"),
        ("2013-05-16,seventy,75.00", "unparseable price"),
        # Decimal reads these as 3.50, 12 and 1000; the price grammar is ASCII digits only.
        ("2013-05-16,٣.٥٠,75.00", "unparseable price"),
        ("2013-05-16,١٢,75.00", "unparseable price"),
        ("2013-05-16,1_000,75.00", "unparseable price"),
        ("2013-05-16,inf,75.00", "non-finite price"),
        ("2013-05-16,-Infinity,75.00", "non-finite price"),
        ("2013-05-16,nan,75.00", "non-finite price"),
        ("2013-05-16,sNaN,75.00", "non-finite price"),
        ("2013-05-16,1e999999,75.00", "out of range"),
    ],
)
def test_rejected_rows(row, fragment):
    text = f"Date,A,B\n2013-05-15,72.78,79.86\n{row}\n"
    with pytest.raises(CsvFormatError, match=fragment):
        parse_csv(text)


def test_rejects_missing_header():
    with pytest.raises(CsvFormatError):
        parse_csv("")
    with pytest.raises(CsvFormatError):
        parse_csv("Date\n")


def test_date_formats_accepted():
    iso = parse_csv("Date,A\n2013-05-15,10.00\n")
    us = parse_csv("Date,A\n5/15/2013,10.00\n")
    assert iso == us


def test_select_window_subrange(dow4_series):
    window = select_window(dow4_series, date(2013, 5, 15), date(2013, 6, 5))
    assert len(window.dates) == 15
    assert window.dates[-1] == date(2013, 6, 5)


def test_select_window_identity_and_idempotence(dow4_series):
    full = select_window(dow4_series, dow4_series.dates[0], dow4_series.dates[-1])
    assert full == dow4_series
    lo, hi = date(2013, 5, 20), date(2013, 5, 30)
    once = select_window(dow4_series, lo, hi)
    assert select_window(once, lo, hi) == once


def test_select_window_out_of_range(dow4_series):
    with pytest.raises(WindowError):
        select_window(dow4_series, date(2013, 7, 1), date(2013, 7, 31))
    with pytest.raises(WindowError):
        select_window(dow4_series, date(2013, 6, 5), date(2013, 5, 15))


def test_csv_round_trip(dow4_series):
    assert parse_csv(format_csv(dow4_series)) == dow4_series


def test_prices_past_28_digits_stay_exact():
    # 30 significant digits: the default 28-digit decimal context would round both alike.
    series = parse_csv("Date,A,B\n2013-05-15,1234567890123456789012345678.99,"
                       "1234567890123456789012345678.98\n")
    assert series.prices_cents == (
        (123456789012345678901234567899, 123456789012345678901234567898),
    )
    # 29 significant digits round-trip, in cents and as a Decimal price.
    long = parse_csv("Date,A\n2013-05-15,123456789012345678901234567.89\n")
    assert long.prices_cents == ((12345678901234567890123456789,),)
    assert format_csv(long) == "Date,A\n2013-05-15,123456789012345678901234567.89\n"
    assert long.price(date(2013, 5, 15), "A") == Decimal("123456789012345678901234567.89")


def test_lone_carriage_returns_end_records():
    assert parse_csv("Date,A\r2013-05-15,10.00\r") == parse_csv("Date,A\n2013-05-15,10.00\n")


def test_csv_module_errors_are_format_errors():
    with pytest.raises(CsvFormatError, match="line 2: field larger than field limit"):
        parse_csv('Date,A\n2013-05-15,"' + "9" * 200_000 + '"\n')


def test_line_numbers_count_quoted_line_breaks():
    # The second record spans lines 2 and 3, so the bad record starts on line 4.
    text = 'Date,A,B\n2013-01-01,"1.00","2\n"\n2013-01-02,1,2,3\n'
    with pytest.raises(CsvFormatError, match="^line 4: expected 3 fields, got 4$"):
        parse_csv(text)


def test_us_dates_match_strptime_on_ascii_digits():
    # Every month and day field from 0 to 13 and 0 to 32, bare and zero-padded,
    # against the strptime reading of M/D/YYYY that the grammar replaced.
    years = ["2013", "2012", "2000", "1900", "0001", "0000", "9999", "13", "02013", "201", "abcd"]
    padded = [f"{v:02d}" for v in range(10)]
    for m in [str(v) for v in range(14)] + padded:
        for d in [str(v) for v in range(33)] + padded:
            for y in years:
                text = f"{m}/{d}/{y}"
                try:
                    expected = datetime.strptime(text, "%m/%d/%Y").date()
                except ValueError:
                    expected = None
                try:
                    got = parse_price_date(text)
                except CsvFormatError as exc:
                    assert str(exc) == f"unparseable date {text!r}"
                    got = None
                assert got == expected, text
    # Inputs the grid leaves out: a sign, a three-digit month, an unpadded
    # ISO month, a non-ASCII digit, and tab or space padding, which is stripped.
    pinned = {"+5/16/2013": None, "005/16/2013": None, "2013-5-16": None,
              "5/16/201\u0663": None, "\u0665/16/2013": None, "2013-05-1\u0666": None,
              "\t5/16/2013": date(2013, 5, 16), "5/16/2013 ": date(2013, 5, 16),
              " \t2013-05-16\t ": date(2013, 5, 16)}
    for text, expected in pinned.items():
        try:
            assert parse_price_date(text) == expected, text
        except CsvFormatError as exc:
            assert expected is None and str(exc) == f"unparseable date {text.strip()!r}", text


def test_the_plain_date_pass_matches_parse_price_date():
    # The same check runs without pytest: PYTHONPATH=src python tests/date_pass.py
    assert date_pass.check() == {"grid": 4966, "ISO variants": 4, "whole documents": 17,
                                 "NUL documents": 3}


def test_post_init_names_the_first_non_positive_ticker():
    dates = (date(2013, 5, 15), date(2013, 5, 16))
    with pytest.raises(CsvFormatError, match="^non-positive price for B on 2013-05-16$"):
        PriceSeries(("A", "B", "C"), dates, ((1, 2, 3), (1, 0, -1)))
    assert PriceSeries((), dates, ((), ())).prices_cents == ((), ())


@pytest.mark.parametrize("tickers, dates, cents, message", [
    # A float cent would reach the crossing rule: build_braid printed 2: -1 from it.
    (("A", "B"), (date(2020, 1, 2), date(2020, 1, 3)), ((100.5, 250), (300, 90)),
     "price 100.5 for A on 2020-01-02 is not an int number of cents"),
    (("A", "B"), (date(2020, 1, 2), date(2020, 1, 3)), ((100, 250), (300, True)),
     "price True for B on 2020-01-03 is not an int number of cents"),
    ((1, "B"), (date(2020, 1, 2),), ((100, 250),), "ticker symbol 1 is not a str"),
    (("A",), ("2020-01-02",), ((100,),), "date '2020-01-02' is not a plain datetime.date"),
    (("A",), (datetime(2020, 1, 2),), ((100,),),
     "date datetime.datetime(2020, 1, 2, 0, 0) is not a plain datetime.date"),
    # Each was a bare TypeError from tuple(): 'int' object is not iterable.
    (("A",), (date(2020, 1, 2),), (5,), "price row 5 is not iterable"),
    (("A",), (date(2020, 1, 2),), 5, "price matrix 5 is not iterable"),
    (5, (date(2020, 1, 2),), ((100,),), "ticker list 5 is not iterable"),
    (("A",), None, ((100,),), "date list None is not iterable"),
], ids=["float cents", "bool cents", "int ticker", "str date", "datetime", "int row",
        "int matrix", "int tickers", "None dates"])
def test_the_constructor_refuses_fields_of_the_wrong_type(tickers, dates, cents, message):
    with pytest.raises(CsvFormatError) as err:
        PriceSeries(tickers, dates, cents)
    assert str(err.value) == message


def test_unchecked_refuses_a_missing_field():
    with pytest.raises(TypeError) as err:
        PriceSeries._unchecked(("A",), (date(2020, 1, 2),))
    assert str(err.value) == "PriceSeries takes 3 fields, got 2"


def test_the_constructor_stores_tuples():
    dates = [date(2020, 1, 2), date(2020, 1, 3)]
    listed = PriceSeries(["A", "B"], dates, [[100, 250], [300, 90]])
    built = PriceSeries(("A", "B"), tuple(dates), ((100, 250), (300, 90)))
    assert (listed.tickers, listed.dates, listed.prices_cents) == (
        ("A", "B"), tuple(dates), ((100, 250), (300, 90)))
    assert listed == built and hash(listed) == hash(built)


def _window_by_comprehension(series, start, end):
    if start > end:
        raise WindowError(f"window start {start} is after end {end}")
    keep = [i for i, d in enumerate(series.dates) if start <= d <= end]
    if not keep:
        raise WindowError(f"window {start.isoformat()}..{end.isoformat()} selects no dates")
    return PriceSeries(series.tickers, tuple(series.dates[i] for i in keep),
                       tuple(series.prices_cents[i] for i in keep))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (CsvFormatError, WindowError) as exc:
        return type(exc), str(exc)


def test_select_window_matches_the_comprehension(dow4_series):
    # Every pair of Dow dates, and of the days around them (weekends, holidays).
    one = timedelta(days=1)
    days = sorted({d + k * one for d in dow4_series.dates for k in (-1, 0, 1)})
    for start in days:
        for end in days:
            assert _outcome(select_window, dow4_series, start, end) == _outcome(
                _window_by_comprehension, dow4_series, start, end), (start, end)


def _one_row_cents(cells):
    """The cents of a one-row document of cells, spelled as in its line, when
    _parse_plain accepts it, or None; parse_csv reads it as _parse_cents does."""
    tickers = ",".join(f"T{i}" for i in range(1, len(cells) + 1))
    text = f"Date,{tickers}\n2013-05-15,{','.join(cells)}\n"
    got = _outcome(parse_csv, text)
    assert got == _outcome(_reference_parse_csv, text), cells
    return None if market._parse_plain(text) is None else got.prices_cents[0]


def test_plain_rows_match_the_per_cell_parser():
    # Every plain form (up to 15 whole digits, up to two decimals) reads as
    # _parse_cents reads it; a zero, a 16th digit or a third decimal is not plain.
    day = date(2013, 5, 15)
    plain_cells = {}
    for whole in ["0", "00", "1", "07", "100", "123456789012345", "1234567890123456"]:
        for frac in ["", ".0", ".5", ".00", ".05", ".50", ".99", ".000", ".123"]:
            cell = whole + frac
            try:
                expected = (market._parse_cents(cell, day, "A"),)
            except CsvFormatError:
                expected = None
            plain = len(whole) <= 15 and len(frac) <= 3
            assert _one_row_cents([cell]) == (expected if plain else None), cell
            if _one_row_cents([cell]) is not None:
                plain_cells[cell] = expected[0]
    # All of them at once: every text distinct, then each repeated on three rows.
    row = (",".join(plain_cells), tuple(plain_cells.values()))
    assert _one_row_cents(list(plain_cells)) == row[1]
    for copies in (1, 3):
        assert market._cent_rows([row[0]] * copies, len(plain_cells)) == (row[1],) * copies
    for cells in (['"1,5"', "2"], ["1", " 2"], ["+1"], ["1."], [".5"], ["1e2"], ["١"], ["1_0"],
                  [""]):
        assert _one_row_cents(cells) is None, cells


def test_a_zero_cell_anywhere_makes_a_row_not_plain():
    for zero in ["0", "00", "0.0", "0.00", "000.00"]:
        for cells in ([zero], [zero, "1"], ["1", zero], ["1", zero, "2.50"]):
            assert _one_row_cents(cells) is None, cells
    assert _one_row_cents(["0.01", "10", "01", "1.00"]) == (1, 1000, 100, 100)


def test_plain_documents_skip_the_row_loop(monkeypatch, dow4_text, dow4_series):
    def refuse(text):
        raise AssertionError("row loop called")

    monkeypatch.setattr(market, "_parse_records", refuse)
    assert parse_csv(dow4_text) == dow4_series
    us = "Date,A,B\n5/16/2013,1.5,2\n5/15/2013,1.00,2.25"
    assert parse_csv(us) == PriceSeries(
        ("A", "B"), (date(2013, 5, 15), date(2013, 5, 16)), ((100, 225), (150, 200)))


@pytest.mark.parametrize(
    "text",
    [
        "Date,A,B\r\n5/16/2013,1.5,2\r\n5/15/2013,1.00,2.25\r\n",
        "Date,A\n2013-05-15,1.00\r\n2013-05-16,2.00\n",
        "Date,A\r\n2013-05-15,1.00\r\n2013-05-16,0.00\r\n",
        "Date,A,B\r\n2013-05-15,1.00,0\r\n",
        "Date,A\n2013-05-15,1.00\n2013-05-16,0\n",
        "Date,A\r2013-05-15,1.00\r",
        "Date,A\n2013-05-15,1.00\x0b2013-05-16,2.00\n",
        "Date,A\n2013-05-15,1.00\u20282013-05-16,2.00\n",
        "Date,A\n2013-05-15,\x1c1.00\n",
        '"Date","A"\n2013-05-15,1.00\n',
        '"Date,A"\n2013-05-15,1.00\n',
        "Date,A\x00\n2013-05-15,1.00\n",
        "Date,A\r\r\n2013-05-15,1.00\n",
        "Date," + "A" * (csv.field_size_limit() + 1) + "\n2013-05-15,1.00\n",
        "Date,A\n\n2013-05-15,1.00\n",
        "Date,A\n2013-05-15,1.00\n\n",
        "Date,A\n 2013-05-15,1.00\n",
        "Date,A\n5/15/2013 ,1.00\n",
        "Date,A\n2/30/2013,1.00\n",
        "Date,A\n2013-02-30,1.00\n",
        "Date,A\n2013-05-15,1.00\n5/15/2013,2.00\n",
        "Date,A\n2013-05-15,1.00,2.00\n",
        "Date\n2013-05-15\n",
        "",
    ],
)
def test_documents_off_the_plain_path_match_the_reference(text):
    assert market._parse_plain(text) is None
    assert _outcome(parse_csv, text) == _outcome(_reference_parse_csv, text)


def test_a_lowered_field_limit_keeps_documents_off_the_plain_path():
    text = "Date,A\n2013-05-15,1234567.50\n"
    old = csv.field_size_limit(9)
    try:
        assert market._parse_plain(text) is None
        with pytest.raises(CsvFormatError, match=r"^line 2: field larger than field limit \(9\)$"):
            parse_csv(text)
    finally:
        csv.field_size_limit(old)


def _reference_parse_csv(text):
    """parse_csv as it was before plain rows: every cell parsed in order."""
    reader = market._records(text)
    try:
        _, header = next(reader)
    except StopIteration:
        raise CsvFormatError("empty document: no header row") from None
    if len(header) < 2:
        raise CsvFormatError("header must name a date column and at least one ticker")
    tickers = tuple(h.strip() for h in header[1:])
    rows = []
    seen = set()
    for lineno, row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise CsvFormatError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        row_date = parse_price_date(row[0])
        if row_date in seen:
            raise CsvFormatError(f"duplicate date {row_date.isoformat()}")
        seen.add(row_date)
        cents = tuple(market._parse_cents(cell, row_date, ticker)
                      for cell, ticker in zip(row[1:], tickers))
        rows.append((row_date, cents))
    rows.sort(key=lambda item: item[0])
    return PriceSeries(tickers, tuple(d for d, _ in rows), tuple(p for _, p in rows))


# One price spelled several ways ("75.5", "75.50", "075.5"): each spelling is its own text.
_PLAIN_CELLS = ["43.6", "75", "1.00", "0.01", "12.34", "075.50", "1.5", "999999999999999",
                "75.5", "75.50", "075.5", "75.00", "0075"]
_OTHER_GOOD_CELLS = [" 1.00", "1e2", "1.", ".5", "+2", "1.500", "1234567890123456"]
_BAD_CELLS = ["", " ", "0", "0.00", "-1", "1.001", "x", "nan", "1e999999", "١٢", "1_0", '"1,5"']


# Edits that keep a document off the plain path: the plain path must
# refuse each one and leave it to csv.reader and the row loop.
_ODD_LINES = ("padded date", "impossible date", "field char", "field char for a break",
              "blank line", "zero at the end")
# Not dates: a day past the month's end, Feb 29 of a common year, a year
# 0000, and a month or day of 0 or past its range, each in both formats.
_IMPOSSIBLE_DATES = ("2/30/2013", "2013-02-30", "2/29/2013", "02/29/2013", "2013-02-29",
                     "1/1/0000", "0000-01-01", "0/10/2013", "00/10/2013", "13/01/2013",
                     "1/0/2013", "1/32/2013", "2013-00-10", "2013-13-01", "2013-01-00")
# How a document spells its dates; "mixed" draws ISO or M/D/YYYY per row.
_DATE_FORMATS = ("ISO", "M/D/YYYY", "MM/DD/YYYY", "mixed")
_ODD_HEADERS = ("quoted", "NUL", "past the field limit")
# Characters that str.splitlines splits on and csv keeps inside a field.
_FIELD_CHARS = ("\x0b", "\x1c", "\u2028")


@st.composite
def price_documents(draw):
    """Rows of plain cells, some of them with other good cells or with up to
    two bad cells in place, maybe a blank row, and dates that may repeat.

    Cells come from a few spellings, so they repeat across rows, or are
    drawn from a wide range, so most are distinct.  Dates are ISO, M/D/YYYY
    bare or zero-padded, or a mix of both formats, and one may be the leap
    day of 2012; the rows are ascending, descending or in no order, and
    lines end in LF, CRLF or a lone CR, the last maybe in none; a
    byte-order mark may lead.  Now and then a date is padded or
    impossible, a field holds a character that splitlines splits on, or
    one stands in for a line break, a line is empty or ends in a zero
    cell, or the header is quoted, holds a NUL or has a field past the
    csv field limit."""
    n = draw(st.integers(1, 5))
    days = draw(st.integers(1, 12))
    offsets = draw(st.lists(st.integers(0, 40), min_size=days, max_size=days,
                            unique=draw(st.booleans())))
    order = draw(st.sampled_from([None, False, True]))
    if order is not None:
        offsets.sort(reverse=order)
    spelling = draw(st.sampled_from(_DATE_FORMATS))
    row_dates = [date(2013, 1, 1) + timedelta(days=k) for k in offsets]
    if draw(st.booleans()):
        row_dates[draw(st.integers(0, days - 1))] = date(2012, 2, 29)
    cell = (st.sampled_from(_PLAIN_CELLS) if draw(st.booleans()) else
            st.integers(1, 10**9).map(lambda c: f"{c // 100}.{c % 100:02d}"))
    rows = []
    for d in row_dates:
        form = draw(st.sampled_from(_DATE_FORMATS[:3])) if spelling == "mixed" else spelling
        text = {"ISO": d.isoformat(), "M/D/YYYY": f"{d.month}/{d.day}/{d.year}",
                "MM/DD/YYYY": f"{d.month:02d}/{d.day:02d}/{d.year}"}[form]
        rows.append([text] + draw(st.lists(cell, min_size=n, max_size=n)))
    # One document in three gets none of the edits below that can take it off the plain path.
    edits = draw(st.sampled_from([0, 2, 2]))
    for cells in (_OTHER_GOOD_CELLS,) * draw(st.integers(0, edits)) + (_BAD_CELLS,) * draw(st.integers(0, edits)):
        rows[draw(st.integers(0, days - 1))][draw(st.integers(1, n))] = draw(st.sampled_from(cells))
    if edits and draw(st.booleans()):
        rows.insert(draw(st.integers(0, days)), [" "] * draw(st.integers(1, n + 1)))
    header = ["Date"] + [f"T{k}" for k in range(n)]
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"] if edits else ["\n"]))
    breaks = [ending] * len(rows) + [draw(st.sampled_from([ending, ""]))]
    for odd in draw(st.lists(st.sampled_from(_ODD_LINES), max_size=edits)):
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        if odd == "padded date":
            row[0] = f" {row[0]} "
        elif odd == "impossible date":
            row[0] = draw(st.sampled_from(_IMPOSSIBLE_DATES))
        elif odd == "field char":
            k = draw(st.integers(0, len(row) - 1))
            row[k] = draw(st.sampled_from(_FIELD_CHARS)) + row[k]
        elif odd == "field char for a break":
            breaks[at] = draw(st.sampled_from(_FIELD_CHARS))
        elif odd == "zero at the end":
            row[-1] = draw(st.sampled_from(["0", "0.00"]))
        else:
            rows.insert(at, [""])
            breaks.insert(at, ending)
    odd = draw(st.sampled_from((None,) * 3 + _ODD_HEADERS)) if edits else None
    k = draw(st.integers(0, n))
    if odd == "quoted":
        header = [f'"{h}"' for h in header]
    elif odd == "NUL":
        header[k] += "\0"
    elif odd == "past the field limit":
        header[k] = "T" * (csv.field_size_limit() + 1)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "".join(",".join(r) + b for r, b in zip([header] + rows, breaks))


def _plain_passes(text):
    """The date pass and the cent branch a plain document takes, by the
    shape of its dates and the share of distinct cell texts."""
    lines = text.split("\n")[1:]
    dates = "".join(line.partition(",")[0] for line in lines)
    cells = ",".join(line.partition(",")[2] for line in lines if line).split(",")
    dates = ("ISO dates" if "/" not in dates else "M/D/YYYY dates" if "-" not in dates
             else "mixed dates")
    return dates, ("most cells distinct" if 2 * len(set(cells)) > len(cells)
                   else "cells repeat")


def test_plain_rows_match_the_per_cell_reference():
    seen = {"valid, not plain": 0, "valid, with CR": 0, "bad price": 0,
            "unparseable date": 0, "ISO dates": 0, "M/D/YYYY dates": 0, "mixed dates": 0,
            "most cells distinct": 0, "cells repeat": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(price_documents())
    def check(text):
        got = _outcome(parse_csv, text)
        assert got == _outcome(_reference_parse_csv, text)
        if isinstance(got, PriceSeries):
            # The unchecked constructor builds only what the public one accepts.
            assert PriceSeries(got.tickers, got.dates, got.prices_cents) == got
            if market._parse_plain(text) is not None:
                assert "\r" not in text
                for passed in _plain_passes(text):
                    seen[passed] += 1
            else:
                seen["valid, with CR" if "\r" in text else "valid, not plain"] += 1
        elif "price" in got[1]:
            seen["bad price"] += 1
        elif "unparseable date" in got[1]:
            seen["unparseable date"] += 1

    check()
    assert min(seen.values()) >= 5, seen


def test_windowed_parse_matches_parse_then_select():
    seen = {"valid": 0, "bad price": 0, "empty window": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(price_documents(), st.data())
    def check(text, data):
        # Window bounds among and around the dates the documents draw.
        days = st.dates(date(2012, 12, 30), date(2013, 2, 12))
        start, end = sorted([data.draw(days), data.draw(days)], reverse=data.draw(st.booleans()))
        got = _outcome(parse_csv, text, lambda dates: window_bounds(dates, start, end))
        assert got == _outcome(lambda: select_window(parse_csv(text), start, end))
        if isinstance(got, PriceSeries):
            assert PriceSeries(got.tickers, got.dates, got.prices_cents) == got
            seen["valid"] += 1
        elif "price" in got[1]:
            seen["bad price"] += 1
        elif "selects no dates" in got[1]:
            seen["empty window"] += 1

    check()
    assert all(seen.values()), seen


_FOUR_DAYS = "Date,A,B\n2013-05-15,1.00,2.00\n2013-05-16,1.10,2.10\n{row}\n2013-05-20,1.30,2.30\n"


@pytest.mark.parametrize(
    "row,message",
    [
        ("2013-05-17,1.20,", "missing price for B on 2013-05-17"),
        ("2013-05-17,1.20,oops", "unparseable price 'oops' for B on 2013-05-17"),
        ("2013-05-17,1.20,0.00", "non-positive price '0.00' for B on 2013-05-17"),
        ("2013-05-17,0,2.20", "non-positive price '0' for A on 2013-05-17"),
        ("2013-05-17,1.20,2.201", "price '2.201' for B on 2013-05-17 has more than cent precision"),
        ("2013-05-15,1.20,2.20", "duplicate date 2013-05-15"),
    ],
)
def test_a_bad_row_outside_the_window_rejects_the_document(row, message):
    text = _FOUR_DAYS.format(row=row)
    calls = []

    def window(dates):
        calls.append(dates)
        return window_bounds(dates, date(2013, 5, 15), date(2013, 5, 16))

    with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
        parse_csv(text, window=window)
    assert calls == []


def test_the_window_is_asked_only_after_the_header_validates():
    def refuse(dates):
        raise AssertionError("window called")

    with pytest.raises(CsvFormatError, match="^tickers must be pairwise distinct$"):
        parse_csv("Date,A,A\n2013-05-15,1.00,2.00\n", window=refuse)


def test_only_the_rows_in_the_window_are_converted(monkeypatch):
    converted = []

    def counting(texts, width):
        converted.extend(texts)
        return cent_rows(texts, width)

    cent_rows = market._cent_rows
    monkeypatch.setattr(market, "_cent_rows", counting)
    # Plain and descending: the window sees ascending dates.
    text = ("Date,A,B\n2013-05-20,1.30,2.30\n2013-05-17,1.20,2.20\n"
            "2013-05-16,1.10,2.10\n2013-05-15,1.00,2.00\n")
    assert market._parse_plain(text) is not None
    seen = []

    def window(dates):
        seen.append(dates)
        return window_bounds(dates, date(2013, 5, 16), date(2013, 5, 17))

    series = parse_csv(text, window=window)
    assert seen == [(date(2013, 5, 15), date(2013, 5, 16), date(2013, 5, 17), date(2013, 5, 20))]
    assert series.dates == (date(2013, 5, 16), date(2013, 5, 17))
    assert series.prices_cents == ((110, 210), (120, 220))
    assert converted == ["1.10,2.10", "1.20,2.20"]
    # A document that is not plain has its cents already: none reach _cent_rows.
    converted.clear()
    assert parse_csv(text.replace(",2.20", ", 2.20"), window=window) == series
    assert converted == []


def test_window_bounds_of_dates(dow4_series):
    dates = dow4_series.dates
    assert window_bounds(dates, date(2013, 5, 15), date(2013, 6, 5)) == (0, 15)
    assert window_bounds(list(dates), date(2013, 5, 17), date(2013, 5, 20)) == (2, 4)
    with pytest.raises(WindowError, match="^window 2013-05-18..2013-05-19 selects no dates$"):
        window_bounds(dates, date(2013, 5, 18), date(2013, 5, 19))
    with pytest.raises(WindowError, match="^window start 2013-05-20 is after end 2013-05-17$"):
        window_bounds((), date(2013, 5, 20), date(2013, 5, 17))
