"""The package's value classes: immutable, comparable, hashable, picklable,
and importable without dataclasses."""

import copy
import datetime
import inspect
import os
import pickle
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import stockbraid
from stockbraid import (
    BraidWord,
    ClosedBraid,
    DiagramStats,
    Generator,
    OutcomeReport,
    PriceSeries,
    diagram_stats,
    outcome_probability,
    parse_word,
)


def _values():
    word = parse_word("4: 1 -2 3 2 -1")
    link = ClosedBraid(word, "plat")
    return [
        Generator(2, -1),
        word,
        link,
        diagram_stats(link),
        PriceSeries(("A", "B"), (date(2020, 1, 2), date(2020, 1, 3)), ((100, 250), (175, 90))),
        outcome_probability(ClosedBraid(parse_word("4: 1 -3 2"), "plat")),
    ]


VALUES = _values()
IDS = [type(v).__name__ for v in VALUES]


def test_every_value_class_is_covered():
    assert {type(v) for v in VALUES} == {
        Generator, BraidWord, ClosedBraid, DiagramStats, PriceSeries, OutcomeReport,
    }


@pytest.mark.parametrize("value", VALUES, ids=IDS)
@pytest.mark.parametrize(
    "clone",
    [
        lambda v: pickle.loads(pickle.dumps(v)),
        lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-0", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(value, clone):
    other = clone(value)
    assert type(other) is type(value)
    assert other == value
    assert hash(other) == hash(value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(value):
    twin = type(value)(*(getattr(value, name) for name in type(value).__slots__))
    assert twin is not value
    assert twin == value
    assert not twin != value
    assert hash(twin) == hash(value)
    assert len({twin, value}) == 1


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_repr_is_a_constructor_call_and_match_args_are_its_parameters(value):
    rebuilt = eval(repr(value), {**vars(stockbraid), "datetime": datetime})
    assert type(rebuilt) is type(value) and rebuilt == value
    assert list(type(value).__match_args__) == list(inspect.signature(type(value)).parameters)


def test_values_of_another_class_are_not_equal():
    assert Generator(1, 1) != (1, 1)
    assert (1, 1) != Generator(1, 1)
    assert Generator(1, 1).__eq__((1, 1)) is NotImplemented
    assert BraidWord(2) != ClosedBraid(BraidWord(2), "plat")
    assert Generator(1, 1) != Generator(1, -1)
    assert BraidWord(3) != BraidWord(4)


def test_repr_text():
    assert repr(Generator(1, 1)) == "Generator(index=1, exponent=1)"
    assert repr(BraidWord(3, (-2,))) == "BraidWord(n_strands=3, values=(-2,))"
    assert repr(ClosedBraid(BraidWord(2), "plat")) == (
        "ClosedBraid(braid=BraidWord(n_strands=2, values=()), closure='plat')"
    )
    assert repr(DiagramStats(components=1, minima=None, crossings=0, writhe=0)) == (
        "DiagramStats(components=1, minima=None, crossings=0, writhe=0)"
    )


def test_report_json_keys_are_the_fields_in_order():
    trace = diagram_stats(ClosedBraid(parse_word("3: 1 2"), "trace"))
    for report in [diagram_stats(ClosedBraid(parse_word("4: 1 -2 3"), "plat")), trace,
                   outcome_probability(ClosedBraid(parse_word("4: 1 -3 2"), "plat"))]:
        doc = report.to_json()
        assert list(doc) == list(type(report).__slots__)
        complex_fields = []
        for name, value in doc.items():
            field = getattr(report, name)
            if isinstance(field, complex):
                assert value == {"re": field.real, "im": field.imag}, name
                complex_fields.append(name)
            else:
                assert value is field, name
        assert complex_fields == ([] if isinstance(report, DiagramStats) else
                                  ["jones_value", "amplitude", "eval_point"])
        doc.clear()
        assert report.to_json() is not doc and len(report.to_json()) == len(type(report).__slots__)
    assert trace.to_json()["minima"] is None


def test_keyword_construction_and_defaults():
    assert Generator(index=2, exponent=-1) == Generator(2, -1)
    assert BraidWord(3).values == () and BraidWord(3).generators == ()
    assert BraidWord(n_strands=3, values=(1,)) == parse_word("3: 1")
    # A word keeps a tuple of its own, whatever later happens to the caller's list.
    values = [1]
    listed = BraidWord(3, values)
    values.append(5)
    assert listed.values == (1,) and listed.generators == (Generator(1, 1),)
    assert listed == parse_word("3: 1") and hash(listed) == hash(parse_word("3: 1"))
    link = ClosedBraid(braid=BraidWord(4), closure="trace")
    assert (link.braid, link.closure) == (BraidWord(4), "trace")
    series = PriceSeries(tickers=("A",), dates=(date(2020, 1, 2),), prices_cents=((1,),))
    assert series.price_cents(date(2020, 1, 2), "A") == 1


def test_positional_class_patterns():
    match Generator(2, -1):
        case Generator(index, exponent):
            assert (index, exponent) == (2, -1)
        case _:
            pytest.fail("no match")
    match parse_word("3: 1 -2"):
        case BraidWord(n, values):
            assert (n, values) == (3, (1, -2))
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value):
    name = type(value).__slots__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before


SRC = str(Path(stockbraid.__file__).resolve().parent.parent)
DOW4_CSV = Path(__file__).parent / "data" / "dow4_2013.csv"
# Modules that only reading a price CSV or drawing a word needs.
LAZY_MODULES = {"stockbraid.market", "stockbraid.crossings", "stockbraid.render", "decimal", "csv"}
# Modules that only help, --version and usage errors need.
PARSER_MODULES = {"argparse", "gettext"}
# The json package, which only the refusal of a non-finite float needs.
JSON_MODULES = {"json", "json.decoder", "json.scanner", "json.encoder"}
# Modules that every command needs, loaded with stockbraid.cli itself.
EAGER_MODULES = {"stockbraid.bracket", "stockbraid.outcome", "stockbraid.closure",
                 "stockbraid.laurent", "cmath"}


def new_modules(code: str) -> set[str]:
    """The modules a fresh isolated interpreter holds after running `code`
    with the package on its path, less those the bare interpreter (site
    included) already holds."""
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", script, SRC],
        capture_output=True, text=True, check=True,
    ).stdout
    return set(out.splitlines()[-1].split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    out = new_modules("import stockbraid.cli")
    assert {"stockbraid.cli"} | EAGER_MODULES <= out
    assert "dataclasses" not in out
    assert "inspect" not in out
    assert not out & LAZY_MODULES
    assert not out & PARSER_MODULES
    assert not out & JSON_MODULES


def test_word_commands_load_no_ingest_crossing_or_render_module():
    out = new_modules(
        "from stockbraid.cli import main\n"
        "assert main(['invariant', '4: 1 2 3', '--bracket', '--jones']) == 0\n"
        "assert main(['prob', '3: 1', '--gamma', '4: 1 -3']) == 0"
    )
    assert {"stockbraid.bracket", "stockbraid.outcome"} <= out
    assert not out & LAZY_MODULES
    assert not out & PARSER_MODULES
    assert not out & JSON_MODULES


def test_braid_loads_the_ingest_and_crossing_modules(tmp_path):
    audit = str(tmp_path / "audit.json")
    out = new_modules(
        "from stockbraid.cli import main\n"
        f"assert main(['braid', {str(DOW4_CSV)!r}, '--from', '2013-05-16', '--to', '6/5/2013']) == 0\n"
        f"assert main(['braid', {str(DOW4_CSV)!r}, '--audit', {audit!r}]) == 0"
    )
    assert LAZY_MODULES - {"stockbraid.render"} <= out
    assert not out & PARSER_MODULES
    assert not out & JSON_MODULES


def test_render_loads_the_render_module_and_no_json():
    out = new_modules(
        "from stockbraid.cli import main\n"
        "assert main(['render', '4: 1 -2 3']) == 0\n"
        "assert main(['render', '4: 1 -2 3', '--format', 'svg']) == 0"
    )
    assert "stockbraid.render" in out
    assert not out & PARSER_MODULES
    assert not out & JSON_MODULES


def test_a_usage_error_loads_argparse_and_prints_its_usage():
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from stockbraid.cli import main\n"
        "try:\n"
        "    main(['prob'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, sorted(m for m in ('argparse', 'gettext') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script, SRC],
        capture_output=True, text=True, check=True, env={**os.environ, "COLUMNS": "80"},
    )
    assert proc.stdout == "2 ['argparse', 'gettext']\n"
    assert proc.stderr == (
        "usage: stockbraid [-h] [--version] {braid,invariant,prob,render} ...\n"
        "stockbraid: error: prob needs a braid word, a CSV path, or --stats\n"
    )
