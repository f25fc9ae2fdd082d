"""Generated inputs for the ingest, the word parser and the command line.

Each parser either returns or raises its documented error.  The command
line keeps its contract for every argv: exit code 0, 1 or 2, at most
one line on stderr and never a traceback, and strict JSON on stdout for
`invariant` and `prob`.  Hypothesis runs derandomized, so every run
tries the same examples.
"""

import json
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockbraid import (
    BraidWord,
    CsvFormatError,
    PriceSeries,
    WordFormatError,
    format_csv,
    format_word,
    parse_csv,
    parse_word,
)
from stockbraid.bracket import CROSSING_CAP_ENV
from stockbraid.cli import main

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# Dates within one year: duplicates are possible but rare.
_VALID_DATES = st.dates(date(2013, 1, 1), date(2013, 12, 31)).flatmap(
    lambda d: st.sampled_from([d.isoformat(), f"{d.month}/{d.day}/{d.year}", f" {d} "]))
_ODD_DATES = st.one_of(
    st.sampled_from(["", "2013-02-30", "13/40/2013", "20130515", "2013-W20-3", "5/15/13",
                     "0/0/0", "2013-05-15T00:00", "yesterday"]),
    st.text(max_size=8),
)
_VALID_PRICES = st.integers(1, 9999).flatmap(
    lambda c: st.sampled_from([f"{c // 100}.{c % 100:02d}", str(c // 100 or 1), f"{c}e-2"]))
_ODD_PRICES = st.one_of(
    st.decimals(allow_nan=True, allow_infinity=True).map(str),
    st.sampled_from(["", " ", "0", "-0", "-1.00", "72.781", "1_000", "nan", "sNaN", "-Infinity",
                     "1e999999", "1e-999999", "0x10", "٣.٥٠", "7,5"]),
    st.text(max_size=6),
)
_ODD_TICKERS = st.one_of(st.sampled_from(["", " ", "a b", "\ufeffA", '"Q"', "Z,Z", "A\nB"]),
                         st.text(max_size=4))


def _cell(text: str) -> str:
    """A CSV field: quoted when it holds a separator, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_documents(draw) -> str:
    """Price documents with odd cells, dates, BOMs, blank rows and ragged
    lines.  Each document draws how often a field is odd (never, 1 in 20
    or 1 in 4), so many documents parse and the rest fail at any check."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=60))
    odd_every = draw(st.sampled_from([0, 20, 4]))

    def field(valid, odd):
        return draw(odd if odd_every and draw(st.integers(1, odd_every)) == 1 else valid)

    n = draw(st.integers(0, 4))
    tickers = draw(st.lists(st.text("ABCXYZ", min_size=1, max_size=3), min_size=n, max_size=n,
                            unique=True))
    lines = [["Date"] + [field(st.just(t), _ODD_TICKERS) for t in tickers]]
    for _ in range(draw(st.integers(0, 6))):
        if odd_every and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from([[], [""], [" ", " "], ["x"] * (n + 2)])))
            continue
        lines.append([field(_VALID_DATES, _ODD_DATES)]
                     + [field(_VALID_PRICES, _ODD_PRICES) for _ in range(n)])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(_cell(c) for c in line) for line in lines)
    bom = draw(st.sampled_from(["", "\ufeff", "\ufeff\ufeff"]))
    return bom + text + draw(st.sampled_from(["", newline, newline * 2]))


@SETTINGS
@given(csv_documents())
def test_parse_csv_returns_or_raises_format_error(text):
    try:
        series = parse_csv(text)
    except CsvFormatError:
        return
    assert isinstance(series, PriceSeries)
    assert parse_csv(format_csv(series)) == series


_WORD_TEXT = st.one_of(
    st.text(max_size=20),
    st.text("0123456789:- +\t\n_", max_size=20),
    st.builds(
        lambda n, gens, sep: f"{n}{sep}" + " ".join(gens),
        st.integers(-2, 12),
        st.lists(st.integers(-12, 12).map(str) | st.sampled_from(["+1", "1.0", "x", "--1"]),
                 max_size=8),
        st.sampled_from([":", ": ", " : ", ";", ""]),
    ),
)


@SETTINGS
@given(_WORD_TEXT)
def test_parse_word_returns_or_raises_word_format_error(text):
    try:
        word = parse_word(text)
    except WordFormatError:
        return
    assert parse_word(format_word(word)) == word


@pytest.fixture(scope="module")
def csv_paths(tmp_path_factory):
    """Price files for the argv below: the Dow sample shape, a tie-heavy
    file, a file with one ticker, one with a bad cell, a missing one and
    one that holds a generated document."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "walk.csv": "Date,AXP,HD,WMT\n2013-05-15,72.78,76.76,77.40\n2013-05-16,72.23,78.71,77.39\n"
                    "2013-05-17,73.32,77.10,77.87\n2013-05-20,77.40,77.40,76.00\n",
        "ties.csv": "Date,B,A\n1/2/2013,5.00,5.00\n1/3/2013,5.00,4.99\n1/4/2013,4.98,4.99\n",
        "one.csv": "Date,A\n2013-05-15,10.00\n2013-05-16,11.00\n",
        "bad.csv": "Date,A,B\n2013-05-15,10.00,oops\n",
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return [root / name for name in files] + [root / "missing.csv", root / "generated.csv"]


_POINTS = st.one_of(
    st.sampled_from(["0", "1", "-1", "1j", "inf", "nan", "1e-320", "1e300", "2", "0.5+0.5j",
                     "(1+1j)", "1+", "abc", "-0.809017-0.587785j"]),
    st.complex_numbers(max_magnitude=1e6).map(str),
)
_STATS = st.builds(
    lambda v, c, m, w: f"{v},{c},{m},{w}",
    st.sampled_from(["1", "nan", "-2+3j", "1e308", "0", "x"]),
    st.integers(-3, 5) | st.sampled_from([10**30]),
    st.integers(-60, 60) | st.sampled_from([-1475, 1478, 1479, 10**9]),
    st.integers(-400, 400) | st.sampled_from([10**6]),
)


@st.composite
def words(draw, max_crossings: int = 10) -> str:
    n = draw(st.integers(1, 6))
    if n == 1:
        return "1:"
    gens = draw(st.lists(st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
                         max_size=max_crossings))
    return format_word(BraidWord.from_ints(n, gens))


@st.composite
def argvs(draw, paths: list[str]) -> list[str]:
    command = draw(st.sampled_from(["braid", "invariant", "prob"]))
    options = []
    window = draw(st.sampled_from([[], ["--from=2013-05-16"], ["--to=5/17/2013"],
                                   ["--from=2013-05-17", "--to=2013-05-16"], ["--from=soon"]]))
    # The generated document, last in paths, is drawn about as often as the rest together.
    files = st.sampled_from(paths) | st.just(paths[-1])
    if command == "braid":
        return [command, *window, "--", draw(files)]
    source = draw(st.one_of(words(), files, st.sampled_from(["3: 9", "x: 1"])))
    if command == "invariant":
        options += draw(st.sampled_from([[], ["--closure=plat"], ["--closure=trace"]]))
        options += [flag for flag in ("--bracket", "--jones") if draw(st.booleans())]
        if draw(st.booleans()):
            options.append(draw(st.sampled_from(["--convention=paper", "--convention=standard"])))
        if draw(st.booleans()):
            options.append("--eval=" + draw(_POINTS))
        return [command, *options, *window, "--", source]
    if draw(st.integers(0, 2)) == 0:
        return [command, *options, "--stats=" + draw(_STATS)]
    if draw(st.booleans()):
        options.append("--gamma=" + draw(words(max_crossings=4)))
    return [command, *options, *window, "--", source]


def test_main_keeps_the_cli_contract(capsys, monkeypatch, csv_paths):
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.data())
    def check(data):
        # The last path is rewritten with a generated document for every example.
        csv_paths[-1].write_text(data.draw(csv_documents()), encoding="utf-8", newline="")
        argv = data.draw(argvs([str(p) for p in csv_paths]))
        # A low crossing cap makes the exact path refuse (exit 2) now and then.
        monkeypatch.setenv(CROSSING_CAP_ENV, data.draw(st.sampled_from(["24", "4"])))
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 0:
            assert err == "", argv
            if argv[0] != "braid":
                json.loads(out, parse_constant=_refuse)
        else:
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv

    check()


def _refuse(token: str):
    raise ValueError(f"non-standard JSON constant {token}")
