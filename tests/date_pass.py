"""Differential check of the plain path's date pass against parse_price_date.

parse_price_date reads one date through the plain path's own date pass,
``market._plain_dates``, so the two share one grammar.  What can still
differ is the whole-document pass: the plain line pattern, the split of
every date field in one pass per format, the per-date fallback for a
document that mixes formats, and which documents are left to csv.reader.

``date.fromisoformat`` reads more forms on Python 3.11 and later
(``20130607``, ``2013-W01-1``) than on 3.10, and csv.reader refuses a NUL
only on 3.10, so the check runs on every Python the package supports.  It
needs neither pytest nor Hypothesis:

    PYTHONPATH=src python tests/date_pass.py

prints the counts and exits 0 when every document agrees.  Each date text
of the grid, bare and zero-padded M/D/YYYY fields from 0 to 13 and 0 to
32 with odd years, and of the ISO variants below is read alone in a
one-row document; the texts parse_price_date accepts are also read
together, one document per spelling and year and one mixing ISO and
M/D/YYYY rows.  The plain path (``market._parse_plain``) must read a
date exactly when parse_price_date does and to the same date, and leave
every document with a NUL to csv.reader.
"""

import sys
from datetime import date

from stockbraid import market
from stockbraid.market import CsvFormatError, parse_csv, parse_price_date

YEARS = ["2013", "2012", "2000", "1900", "0001", "0000", "9999", "13", "02013", "201", "abcd"]
FIELDS = [str(v) for v in range(33)] + [f"{v:02d}" for v in range(10)]
# Forms date.fromisoformat reads on some Pythons and parse_price_date never
# does, beside ISO dates that are impossible or at the ends of the range.
ISO_VARIANTS = ["20130607", "2013-W01-1", "2013W011", "2013-158", "2013158", "2013-06-07T00:00",
                "2013-06-07 00:00", "2013-6-07", "2013-06-7", "+2013-06-07", "2013/06/07",
                "2013-06", "13-06-07", "--06-07", "2013-06-07Z", "0000-01-01", "0001-01-01",
                "9999-12-31", "2012-02-29", "2013-02-29", "2013-02-30", "2013-00-10",
                "2013-13-01", "2013-01-00", "2013-01-32", "2013-06-07", "٢٠١٣-06-07"]
NUL_DOCUMENTS = ["Date,A\0\n2013-05-15,1.00\n", "Date,A\n2013-05-15,1.00\0\n",
                 "Date,A\n2013-05-15\0,1.00\n"]


def reference(text: str):
    try:
        return parse_price_date(text)
    except CsvFormatError:
        return None


def plain_dates(texts: list[str]):
    """The dates the plain path reads from one row per text, or None."""
    parsed = market._parse_plain("Date,A\n" + "".join(f"{t},1.00\n" for t in texts))
    return None if parsed is None else [d for d, _ in parsed[1]]


def check() -> dict[str, int]:
    """Compare the plain path with parse_price_date; return how many dates
    and documents of each kind were read.  Raises AssertionError on the
    first disagreement."""
    grid = [f"{m}/{d}/{y}" for m in FIELDS[:14] + FIELDS[33:] for d in FIELDS for y in YEARS]
    read = {"grid": 0, "ISO variants": 0, "whole documents": 0, "NUL documents": 0}
    good = []
    for kind, texts in (("grid", grid), ("ISO variants", ISO_VARIANTS)):
        for text in texts:
            expected = reference(text)
            got = plain_dates([text])
            assert got == (None if expected is None else [expected]), (text, got, expected)
            if expected is not None:
                read[kind] += 1
                good.append(text)
    # Every accepted text in documents of one spelling and year, each date
    # once, and one document that mixes both formats.
    groups = {}
    for text in good:
        spelling = ("ISO" if "-" in text else
                    "padded" if text.split("/")[0].startswith("0") else "bare")
        groups.setdefault((spelling, text[-4:]), {}).setdefault(reference(text), text)
    # The ISO variants come last in good, so their dates are spelled ISO here.
    mixed = {reference(text): text for text in good}
    for dated in list(groups.values()) + [mixed]:
        texts = list(dated.values())
        assert plain_dates(texts) == [reference(t) for t in texts], texts
        read["whole documents"] += 1
    assert len({"-" in t for t in mixed.values()}) == 2, "the mixed document mixes nothing"
    for text in NUL_DOCUMENTS:
        assert market._parse_plain(text) is None, repr(text)
        try:
            parse_csv(text)
        except CsvFormatError:
            pass
        read["NUL documents"] += 1
    assert date(2012, 2, 29) in mixed and read["grid"] > 0
    return read


if __name__ == "__main__":
    counts = check()
    print(f"Python {sys.version.split()[0]}: the plain date pass agrees with parse_price_date; "
          f"read {counts}")
