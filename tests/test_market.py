from datetime import date
from decimal import Decimal

import pytest

from stockbraid import (
    CsvFormatError,
    WindowError,
    format_csv,
    parse_csv,
    select_window,
)


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
