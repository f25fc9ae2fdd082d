import io
import json
import random
from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockbraid import (
    CrossingEvent,
    CrossingSign,
    audit_log,
    build_braid,
    classify_crossing,
    detect_crossings,
    format_word,
    parse_csv,
    permutation,
    rank_order,
    select_window,
)
from stockbraid.braid import BraidWord
from stockbraid.crossings import _CHUNK, _ranker, audit_entries, braid_with_events, write_audit
from stockbraid.market import PriceSeries

# the full crossing schedule of the 2013 sample data, tracked by hand from the
# printed prices: (from, to, position, lower, upper, sign)
DOW4_SCHEDULE = [
    ("2013-05-20", "2013-05-21", 2, "HD", "WMT", -1),
    ("2013-05-21", "2013-05-22", 3, "HD", "PG", -1),
    ("2013-05-23", "2013-05-24", 3, "PG", "HD", -1),
    ("2013-05-28", "2013-05-29", 3, "HD", "PG", 1),
    ("2013-05-29", "2013-05-30", 1, "AXP", "WMT", 1),
    ("2013-06-03", "2013-06-04", 3, "PG", "HD", 1),
    ("2013-06-04", "2013-06-05", 1, "WMT", "AXP", 1),
    ("2013-06-04", "2013-06-05", 2, "WMT", "HD", 1),
    ("2013-06-05", "2013-06-06", 2, "HD", "WMT", -1),
    ("2013-06-05", "2013-06-06", 3, "HD", "PG", -1),
    ("2013-06-05", "2013-06-06", 1, "AXP", "WMT", -1),
    ("2013-06-06", "2013-06-07", 2, "AXP", "PG", -1),
]


def test_rank_order_examples(dow4_series):
    assert rank_order(dow4_series, date(2013, 5, 15)) == ["AXP", "HD", "WMT", "PG"]
    assert rank_order(dow4_series, date(2013, 6, 7)) == ["WMT", "PG", "AXP", "HD"]


def test_rank_order_tie_break():
    s = parse_csv("Date,ZZ,AA\n2013-05-15,50.00,50.00\n")
    assert rank_order(s, date(2013, 5, 15)) == ["AA", "ZZ"]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_ranker_orders_by_price_then_ticker(data):
    # Few distinct prices, so most rows have ties, some of them many-way.
    tickers = data.draw(st.lists(st.text("ABZab", min_size=1, max_size=3),
                                 min_size=1, max_size=12, unique=True))
    rank = _ranker(tuple(tickers))
    for row in data.draw(st.lists(st.lists(st.integers(1, 3), min_size=len(tickers),
                                           max_size=len(tickers)), max_size=5)):
        expected = sorted(range(len(tickers)), key=lambda t: (row[t], tickers[t]))
        assert rank(tuple(row)) == expected, (tickers, row)


def test_rank_order_missing_date(dow4_series):
    with pytest.raises(Exception, match="2013-07-04"):
        rank_order(dow4_series, date(2013, 7, 4))


def test_hd_wmt_event(dow4_series):
    events = [
        e
        for e in detect_crossings(dow4_series)
        if e.from_date == date(2013, 5, 20) and {e.lower_ticker, e.upper_ticker} == {"HD", "WMT"}
    ]
    assert len(events) == 1
    event = events[0]
    assert {event.delta_lower_cents, event.delta_upper_cents} == {1, 195}
    assert event.delta_lower == Decimal("1.95")  # HD moved 76.76 -> 78.71
    assert event.delta_upper == Decimal("0.01")  # WMT moved 77.40 -> 77.39
    assert classify_crossing(event) is CrossingSign.UNDER


def test_constant_prices_produce_no_events():
    s = parse_csv(
        "Date,A,B\n2013-05-15,10.00,20.00\n2013-05-16,10.00,20.00\n2013-05-17,10.00,20.00\n"
    )
    assert detect_crossings(s) == []
    assert format_word(build_braid(s)) == "2:"


def test_full_schedule_matches_hand_tracking(dow4_series):
    events = detect_crossings(dow4_series)
    got = [
        (
            e.from_date.isoformat(),
            e.to_date.isoformat(),
            e.position,
            e.lower_ticker,
            e.upper_ticker,
            classify_crossing(e).exponent,
        )
        for e in events
    ]
    assert got == DOW4_SCHEDULE


def test_events_are_consistent_with_recomputed_ranks(dow4_series):
    """Oracle: replay each interval's swaps against independently sorted
    rank orders and recompute every delta from the raw prices."""
    s = dow4_series
    events = detect_crossings(s)
    for d_from, d_to in zip(s.dates, s.dates[1:]):
        ranked_from = sorted(s.tickers, key=lambda t: (s.price_cents(d_from, t), t))
        ranked_to = sorted(s.tickers, key=lambda t: (s.price_cents(d_to, t), t))
        arrangement = list(ranked_from)
        for e in [ev for ev in events if ev.from_date == d_from]:
            assert arrangement[e.position - 1] == e.lower_ticker
            assert arrangement[e.position] == e.upper_ticker
            assert e.delta_lower_cents == abs(
                s.price_cents(d_to, e.lower_ticker) - s.price_cents(d_from, e.lower_ticker)
            )
            assert e.delta_upper_cents == abs(
                s.price_cents(d_to, e.upper_ticker) - s.price_cents(d_from, e.upper_ticker)
            )
            arrangement[e.position - 1], arrangement[e.position] = (
                arrangement[e.position],
                arrangement[e.position - 1],
            )
        assert arrangement == ranked_to


def _event(delta_lower, delta_upper, lower_after=1000, upper_after=2000,
           lower="LOW", upper="UPP"):
    return CrossingEvent(
        from_date=date(2013, 1, 1),
        to_date=date(2013, 1, 2),
        position=1,
        lower_ticker=lower,
        upper_ticker=upper,
        delta_lower_cents=delta_lower,
        delta_upper_cents=delta_upper,
        lower_after_cents=lower_after,
        upper_after_cents=upper_after,
    )


def test_classify_direct_rule():
    # the pre-swap higher stock out-moves the other: overcrossing
    assert classify_crossing(_event(delta_lower=100, delta_upper=200)) is CrossingSign.OVER
    assert classify_crossing(_event(delta_lower=200, delta_upper=100)) is CrossingSign.UNDER


def test_classify_tie_breaks():
    by_price = _event(50, 50, lower_after=3000, upper_after=2000)
    assert classify_crossing(by_price) is CrossingSign.UNDER
    by_price_over = _event(50, 50, lower_after=2000, upper_after=3000)
    assert classify_crossing(by_price_over) is CrossingSign.OVER
    by_ticker = _event(50, 50, lower_after=2000, upper_after=2000, lower="BBB", upper="AAA")
    assert classify_crossing(by_ticker) is CrossingSign.OVER
    by_ticker_under = _event(50, 50, lower_after=2000, upper_after=2000, lower="AAA", upper="BBB")
    assert classify_crossing(by_ticker_under) is CrossingSign.UNDER


def test_build_braid_full_window(dow4_series):
    word = build_braid(dow4_series)
    assert word.n_strands == 4
    assert format_word(word) == "4: -2 -3 -3 3 1 3 1 2 -2 -3 -1 -2"


def test_build_braid_narrow_window(dow4_series):
    narrow = select_window(dow4_series, date(2013, 5, 15), date(2013, 6, 5))
    assert format_word(build_braid(narrow)) == "4: -2 -3 -3 3 1 3 1 2"


def test_build_braid_needs_two_tickers():
    s = parse_csv("Date,A\n2013-05-15,10.00\n2013-05-16,11.00\n")
    with pytest.raises(ValueError):
        build_braid(s)


def test_braid_permutation_matches_endpoint_ranks(dow4_series):
    word = build_braid(dow4_series)
    first = rank_order(dow4_series, dow4_series.dates[0])
    last = rank_order(dow4_series, dow4_series.dates[-1])
    perm = permutation(word)
    for bottom_pos, ticker in enumerate(first):
        assert last[perm[bottom_pos] - 1] == ticker


def test_determinism(dow4_text):
    one = build_braid(parse_csv(dow4_text))
    two = build_braid(parse_csv(dow4_text))
    assert format_word(one) == format_word(two)


def test_price_scaling_leaves_braid_unchanged(dow4_text, dow4_series):
    scaled_lines = ["Date,AXP,HD,WMT,PG"]
    for d, row in zip(dow4_series.dates, dow4_series.prices_cents):
        cells = [str(Decimal(c * 3).scaleb(-2)) for c in row]
        scaled_lines.append(",".join([d.isoformat()] + cells))
    scaled = parse_csv("\n".join(scaled_lines) + "\n")
    assert format_word(build_braid(scaled)) == format_word(build_braid(dow4_series))


def test_audit_log_matches_events(dow4_series):
    entries = audit_log(dow4_series)
    events = detect_crossings(dow4_series)
    assert len(entries) == len(events)
    first = entries[0]
    assert first == {
        "from_date": "2013-05-20",
        "to_date": "2013-05-21",
        "position": 2,
        "lower_ticker": "HD",
        "upper_ticker": "WMT",
        "delta_lower": "1.95",
        "delta_upper": "0.01",
        "sign": "under",
        "generator": -2,
    }


def test_audit_deltas_of_a_29_digit_move_are_exact():
    # A rises by 123456789012345678901234567.89 and overtakes B, which moves one cent.
    series = parse_csv("Date,A,B\n2013-05-15,1.00,2.00\n"
                       "2013-05-16,123456789012345678901234568.89,1.99\n")
    (entry,) = audit_log(series)
    assert (entry["lower_ticker"], entry["upper_ticker"]) == ("A", "B")
    assert entry["delta_lower"] == "123456789012345678901234567.89"
    assert entry["delta_upper"] == "0.01"



def test_crossing_event_is_a_named_tuple_in_field_order():
    event = _event(195, 1)
    assert isinstance(event, tuple)
    assert CrossingEvent._fields == (
        "from_date", "to_date", "position", "lower_ticker", "upper_ticker",
        "delta_lower_cents", "delta_upper_cents", "lower_after_cents", "upper_after_cents",
    )
    assert (event.delta_lower, event.delta_upper) == (Decimal("1.95"), Decimal("0.01"))


def _audit_oracle(events) -> str:
    """The audit file as json.dump writes it: the writer's specification."""
    fh = io.StringIO()
    json.dump(audit_entries(events), fh, indent=2)
    fh.write("\n")
    return fh.getvalue()


def _written_audit(series) -> tuple[list, str]:
    word, events = braid_with_events(series)
    fh = io.StringIO()
    write_audit(fh, events, word)
    return events, fh.getvalue()


# Ticker text that JSON must escape or that ensure_ascii rewrites.
AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "Ω", "中", "\U0001F4C8", "\ud800"]


@st.composite
def audit_series(draw):
    """2-6 tickers whose names mix plain letters with quotes, backslashes,
    control characters, non-ASCII and non-BMP characters, on one of
    three shapes: a walk in a band of a few cents (many crossings,
    repeated changes), a flat series (no crossings), or one swap of two
    neighbours (a single crossing)."""
    n = draw(st.integers(2, 6))
    tickers = draw(st.lists(st.text(st.sampled_from(AWKWARD + list("AB")), min_size=1, max_size=4),
                            min_size=n, max_size=n, unique=True))
    shape = draw(st.sampled_from(["walk", "flat", "single"]))
    if shape == "walk":
        cents = st.integers(1, 6)
        rows = draw(st.lists(st.lists(cents, min_size=n, max_size=n), min_size=2, max_size=30))
    elif shape == "flat":
        rows = [list(range(100, 100 * (n + 1), 100))] * draw(st.integers(2, 5))
    else:
        # Distinct prices 100, 200, ...; the stocks at rank k and k+1 trade places.
        k = draw(st.integers(0, n - 2))
        first = draw(st.permutations(range(100, 100 * (n + 1), 100)))
        at = {price: t for t, price in enumerate(first)}
        second = list(first)
        second[at[100 * (k + 1)]], second[at[100 * (k + 2)]] = 100 * (k + 2), 100 * (k + 1)
        rows = [first, second]
    return _series(tickers, rows)


def test_written_audit_matches_json_dump_of_entries():
    seen_counts = set()
    seen_awkward = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(audit_series())
    def check(series):
        events, text = _written_audit(series)
        assert text.encode("utf-8") == _audit_oracle(events).encode("utf-8")
        if not events:
            assert text == "[]\n"
        seen_counts.add(min(len(events), 2))
        seen_awkward.update(c for t in series.tickers for c in t if c in AWKWARD)

    check()
    # No crossings, one crossing and many; every awkward character in a ticker.
    assert seen_counts == {0, 1, 2}
    assert seen_awkward == set(AWKWARD)


def test_written_audit_of_a_5000_digit_price_is_exact():
    # A rises from 1.00 to a 5000-digit price and overtakes B, which moves one cent.
    price = "9" * 4998 + ".99"
    series = parse_csv(f"Date,A,B\n2013-05-15,1.00,2.00\n2013-05-16,{price},1.99\n")
    events, text = _written_audit(series)
    assert text == (
        "[\n"
        "  {\n"
        '    "from_date": "2013-05-15",\n'
        '    "to_date": "2013-05-16",\n'
        '    "position": 1,\n'
        '    "lower_ticker": "A",\n'
        '    "upper_ticker": "B",\n'
        f'    "delta_lower": "{"9" * 4997}8.99",\n'
        '    "delta_upper": "0.01",\n'
        '    "sign": "under",\n'
        '    "generator": -1\n'
        "  }\n"
        "]\n"
    )
    assert text == _audit_oracle(events)


@pytest.mark.parametrize("count", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 5])
def test_written_audit_across_chunk_boundaries(dow4_series, count):
    # The Dow sample's 12 records, repeated to fill whole and partial write chunks.
    word, events = braid_with_events(dow4_series)
    repeats = count // len(events) + 1
    events = (events * repeats)[:count]
    word = BraidWord(word.n_strands, (word.values * repeats)[:count])
    fh = io.StringIO()
    write_audit(fh, events, word)
    assert fh.getvalue() == _audit_oracle(events)


def test_written_audit_needs_one_generator_per_event(dow4_series):
    word, events = braid_with_events(dow4_series)
    with pytest.raises(ValueError):
        write_audit(io.StringIO(), events[:-1], word)

def _reference_detect_crossings(series):
    """The original ticker-keyed detection, kept as the oracle for the
    index-based one: ranks sorted per date, dict lookups per ticker and a
    full left-to-right bubble sort per interval.  It reads rows by index
    instead of looking dates up, so it runs in seconds on long series."""
    if len(series.dates) < 2:
        raise ValueError("crossing detection needs at least two dates")

    def ranked(row):
        return [t for _, t in sorted(zip(row, series.tickers), key=lambda pair: (pair[0], pair[1]))]

    events = []
    order = ranked(series.prices_cents[0])
    for d in range(1, len(series.dates)):
        from_date, to_date = series.dates[d - 1], series.dates[d]
        target = ranked(series.prices_cents[d])
        target_pos = {ticker: i for i, ticker in enumerate(target)}
        from_row = series.prices_cents[d - 1]
        to_row = series.prices_cents[d]
        delta = {t: abs(to_row[i] - from_row[i]) for i, t in enumerate(series.tickers)}
        after = {t: to_row[i] for i, t in enumerate(series.tickers)}
        arrangement = list(order)
        swapped = True
        while swapped:
            swapped = False
            for i in range(len(arrangement) - 1):
                lower, upper = arrangement[i], arrangement[i + 1]
                if target_pos[lower] > target_pos[upper]:
                    arrangement[i], arrangement[i + 1] = upper, lower
                    swapped = True
                    events.append(
                        CrossingEvent(
                            from_date=from_date,
                            to_date=to_date,
                            position=i + 1,
                            lower_ticker=lower,
                            upper_ticker=upper,
                            delta_lower_cents=delta[lower],
                            delta_upper_cents=delta[upper],
                            lower_after_cents=after[lower],
                            upper_after_cents=after[upper],
                        )
                    )
        order = target
    return events


def _reference_word(series):
    values = [e.position * classify_crossing(e).exponent for e in _reference_detect_crossings(series)]
    return BraidWord(len(series.tickers), values)


def _tie_break_rung(event):
    if event.delta_lower_cents != event.delta_upper_cents:
        return "delta"
    if event.lower_after_cents != event.upper_after_cents:
        return "later price"
    return "ticker"


def _series(tickers, rows):
    dates = tuple(date(2000, 1, 3) + timedelta(days=d) for d in range(len(rows)))
    return PriceSeries(tuple(tickers), dates, tuple(tuple(r) for r in rows))


@st.composite
def tied_series(draw):
    """2-12 tickers over 2-60 days of prices in a band of a few cents, so
    equal prices, flat days and equal moves are common.  Ticker names are
    drawn unsorted, so column order and ticker order differ."""
    n = draw(st.integers(2, 12))
    tickers = draw(st.lists(st.text("ABCXYZ", min_size=1, max_size=3),
                            min_size=n, max_size=n, unique=True))
    cents = st.integers(1, 6)
    rows = [draw(st.lists(cents, min_size=n, max_size=n))]
    for _ in range(draw(st.integers(1, 59))):
        move = draw(st.sampled_from(["flat", "fresh", "shift"]))
        if move == "flat":
            rows.append(rows[-1])
        elif move == "fresh":
            rows.append(draw(st.lists(cents, min_size=n, max_size=n)))
        else:
            # One move shared by the chosen tickers: equal absolute changes.
            step = draw(st.integers(-3, 3))
            chosen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            rows.append([max(1, p + step) if c else p for p, c in zip(rows[-1], chosen)])
    return _series(tickers, rows)


def test_detection_matches_reference_on_ties():
    rungs = set()
    tied_rows = 0

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(tied_series())
    def check(series):
        nonlocal tied_rows
        events = detect_crossings(series)
        assert events == _reference_detect_crossings(series)
        rungs.update(_tie_break_rung(e) for e in events)
        tied_rows += sum(len(set(row)) < len(row) for row in series.prices_cents)

    check()
    # The generated series reach every rung of the tie-break chain.
    assert rungs == {"delta", "later price", "ticker"}
    assert tied_rows > 0


def _walk(rng, n_tickers, n_days):
    """Mean-reverting cent walks with flat days and copied prices."""
    anchors = [5000 + rng.randrange(-40 * n_tickers, 40 * n_tickers + 1) for _ in range(n_tickers)]
    prices = list(anchors)
    rows = []
    for day in range(n_days):
        if day and rng.random() >= 0.03:
            for t in range(n_tickers):
                if rng.random() >= 0.15:
                    prices[t] = max(1, prices[t] + (anchors[t] - prices[t]) // 50 + rng.randint(-30, 30))
            if rng.random() < 0.02:
                i, j = rng.sample(range(n_tickers), 2)
                prices[i] = prices[j]
        rows.append(tuple(prices))
    return rows


def test_long_series_word_matches_reference():
    rng = random.Random(20131)
    tickers = [f"T{k:02d}" for k in rng.sample(range(100), 30)]
    series = _series(tickers, _walk(rng, 30, 10_000))
    word = build_braid(series)
    assert len(word) > 10_000
    assert format_word(word) == format_word(_reference_word(series))


def test_dow_sample_matches_reference(dow4_series):
    assert detect_crossings(dow4_series) == _reference_detect_crossings(dow4_series)
    for lo in range(0, 15, 3):
        window = select_window(dow4_series, dow4_series.dates[lo], dow4_series.dates[-1])
        assert detect_crossings(window) == _reference_detect_crossings(window)


# The interval shapes of reordered_series.
REORDERINGS = ("permutation", "reversal", "bottom to top", "top to bottom", "rotation", "two blocks")


def _priced(draw, order):
    """A price row that ranks the tickers as in order, bottom first, with
    gaps of 0-3 cents between neighbours: a zero gap ties two prices and
    leaves their rank to ticker order."""
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(order) - 1, max_size=len(order) - 1))
    price = draw(st.integers(1, 50))
    row = [0] * len(order)
    for t, gap in zip(order, [0] + gaps):
        price += gap
        row[t] = price
    return row


@st.composite
def reordered_series(draw, shapes):
    """2-30 tickers over 2-8 days whose intervals move strands far: a
    random permutation, a full reversal, the bottom ticker jumping to the
    top or the top one to the bottom, a block rotated by one, or two
    disjoint blocks each permuted.  Each interval's shape is recorded in
    shapes."""
    n = draw(st.integers(2, 30))
    tickers = draw(st.lists(st.text("ABCXYZ", min_size=1, max_size=3),
                            min_size=n, max_size=n, unique=True))
    order = draw(st.permutations(range(n)))
    rows = [_priced(draw, order)]
    for _ in range(draw(st.integers(1, 7))):
        shape = draw(st.sampled_from(REORDERINGS))
        shapes.add(shape)
        if shape == "permutation":
            order = draw(st.permutations(order))
        elif shape == "reversal":
            order = order[::-1]
        elif shape == "bottom to top":
            order = order[1:] + order[:1]
        elif shape == "top to bottom":
            order = order[-1:] + order[:-1]
        elif shape == "rotation":
            a = draw(st.integers(0, n - 2))
            b = draw(st.integers(a + 2, n))
            block = order[a:b]
            block = block[1:] + block[:1] if draw(st.booleans()) else block[-1:] + block[:-1]
            order = order[:a] + block + order[b:]
        else:
            a, b, c, e = sorted(draw(st.lists(st.integers(0, n), min_size=4, max_size=4)))
            order = (order[:a] + draw(st.permutations(order[a:b])) + order[b:c]
                     + draw(st.permutations(order[c:e])) + order[e:])
        rows.append(_priced(draw, order))
    return _series(tickers, rows)


def test_wide_reorderings_match_reference():
    shapes = set()
    longest = 0
    tied_swaps = 0

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(reordered_series(shapes))
    def check(series):
        nonlocal longest, tied_swaps
        events, text = _written_audit(series)
        assert events == _reference_detect_crossings(series)
        assert build_braid(series) == _reference_word(series)
        assert text.encode("utf-8") == _audit_oracle(events).encode("utf-8")
        per_interval = {}
        for e in events:
            per_interval[e.from_date] = per_interval.get(e.from_date, 0) + 1
        longest = max([longest, *per_interval.values()])
        tied_swaps += sum(e.lower_after_cents == e.upper_after_cents for e in events)

    check()
    assert shapes == set(REORDERINGS)
    # Some interval needs many passes; some swaps order equal prices by ticker.
    assert longest >= 100
    assert tied_swaps > 0


def test_classify_crossing_signs_as_the_word_does():
    rungs = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(tied_series())
    def check(series):
        word, events = braid_with_events(series)
        assert [classify_crossing(e).exponent for e in events] == [
            g.exponent for g in word.generators
        ]
        assert [e.position for e in events] == [g.index for g in word.generators]
        rungs.update(_tie_break_rung(e) for e in events)

    check()
    # The generated series reach every rung of the tie-break chain.
    assert rungs == {"delta", "later price", "ticker"}
