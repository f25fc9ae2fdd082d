"""Replayable mutation checks: small faults put into a copy of the
package, each of which named tests must catch.

Each row of MUTANTS names a module of the package, an exact source text,
the number of times that text occurs in the module, its replacement, and
the pytest node ids that must fail once every occurrence is replaced.
For each row the script copies src/ to a temporary directory, checks the
count, so that a refactor which moves the text has to update the row,
applies the replacement in the copy, and runs pytest on the node ids with
the copy first on the import path.  The node ids of all rows are first
run once against an unmutated copy, where they must pass, so a kill is
the mutant's doing.  The check needs no Hypothesis of its own, only
pytest for the node ids; from the repository root,

    python tests/mutants.py

prints one JSON kill table, a row per mutant, and exits 1 when a row is
stale, the unmutated run fails, or a mutant survives.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# The address space of each pytest run: a mutant may loop without bound,
# as _unpack does on a negative sum once its carry is gone.
MEMORY_LIMIT = 2 << 30
TIMEOUT_S = 300

# (module, source text, occurrences, replacement, killing node ids)
MUTANTS = [
    # free reduction cancels equal values instead of inverse pairs
    ("braid", "if stack and stack[-1] == -v:", 1, "if stack and stack[-1] == v:", [
        "tests/test_braid.py::test_free_reduce_examples",
        "tests/test_outcome.py::test_readout_word_is_the_reduced_interference_braid",
    ]),
    # the last tie-break of a crossing's sign, the smaller ticker over, flipped
    ("crossings", "return 1 if upper < lower else -1", 1, "return 1 if upper > lower else -1", [
        "tests/test_crossings.py::test_classify_tie_breaks",
    ]),
    # the arc that closes the final loop is closed too, weighing it twice
    ("bracket", "closed.pop()\n", 1, "\n", [
        "tests/test_bracket.py::test_unknot_brackets_are_one",
        "tests/test_bracket.py::test_two_circle_plat_gives_loop_value",
    ]),
    # a negative digit of the packed bracket without its carry
    ("bracket", "            packed += 1\n", 1, "", [
        "tests/test_bracket.py::test_a_bracket_with_negative_digits_unpacks",
    ]),
    # a window that ends on a date in the series leaves that date out
    ("market", "hi = bisect_right(dates, end)", 1, "hi = bisect_left(dates, end)", [
        "tests/test_market.py::test_window_bounds_of_dates",
    ]),
    # True passes as the int 1 in a word, a strand count and a price
    ("braid", "return isinstance(value, int) and not isinstance(value, bool)", 1,
     "return isinstance(value, int)", [
        "tests/test_braid.py::test_generator_validation",
    ]),
    # the outcome formula's sign (-1)^(components - 1 + Wr) off by one component
    ("outcome", "sign = -1 if (components - 1 + writhe_value) % 2 else 1", 1,
     "sign = -1 if (components + writhe_value) % 2 else 1", [
        "tests/test_outcome.py::test_probe_unknot_stats",
    ]),
    # a plat closure evaluated on the early-closed plan: the value holds, its float bytes move
    ("bracket", 'schedule = _word_schedule(k) if k.closure == "plat" else _schedule(k)', 1,
     "schedule = _schedule(k)", [
        "tests/test_golden.py::test_the_golden_items_are_byte_identical[readout_prob]",
    ]),
    # a one-decimal plain cell read as tenths of a cent: 72.5 -> 7205
    ("market", 'f.ljust(2, "0")', 1, 'f.rjust(2, "0")', [
        "tests/test_market.py::test_parse_dow4_table",
    ]),
    # a sub-cent price truncated to cents instead of refused
    ("market", "if cents != cents.to_integral_value():", 1, "if False:", [
        "tests/test_market.py::test_rejected_rows",
        "tests/test_market.py::test_a_bad_row_outside_the_window_rejects_the_document",
    ]),
    # the plain date pass reads M/D/YYYY as D/M/YYYY
    ("market", "map(int, parts[2::3]), map(int, parts[::3]), map(int, parts[1::3])", 1,
     "map(int, parts[2::3]), map(int, parts[1::3]), map(int, parts[::3])", [
        "tests/test_market.py::test_date_formats_accepted",
        "tests/test_market.py::test_us_dates_match_strptime_on_ascii_digits",
    ]),
    # a tie between the trace plans goes radial, not to word order
    ("bracket", "accumulate(radial[:c]))) < sum(", 1, "accumulate(radial[:c]))) <= sum(", [
        "tests/test_bracket_properties.py::test_the_planner_chooses_the_cheaper_schedule",
    ]),
    # a plat closure's minima one more than half its strand count
    ("closure", 'minima=k.braid.n_strands // 2 if k.closure == "plat"', 1,
     'minima=k.braid.n_strands // 2 + 1 if k.closure == "plat"', [
        "tests/test_closure.py::test_diagram_stats_minima",
        "tests/test_golden.py::test_the_golden_items_are_byte_identical[readout_prob]",
    ]),
    # terms written in stored order, which mirrored() reverses, not by exponent
    ("laurent", "sorted(poly._terms.items())", 1, "poly._terms.items()", [
        "tests/test_golden.py::test_the_golden_items_are_byte_identical[exact_invariants]",
    ]),
    # a superscript digit, which str.isdigit takes and \d does not, reads as a strand count
    ("cli", "head.strip().isdecimal()", 1, "head.strip().isdigit()", [
        "tests/test_cli.py::test_word_text_is_told_from_a_path_as_the_regex_reads_it",
    ]),
    # whitespace around the strand count makes word text a CSV path
    ("cli", "head.strip().isdecimal()", 1, "head.isdecimal()", [
        "tests/test_cli.py::test_word_text_is_told_from_a_path_as_the_regex_reads_it",
    ]),
    # a series checks every other pair of dates, so a swapped adjacent pair passes
    ("market", "zip(dates, dates[1:])", 1, "zip(dates, dates[2:])", [
        "tests/test_market.py::test_the_constructor_refuses_dates_not_strictly_increasing",
    ]),
    # a term of coefficient 1 written 1*x^e, and every other coefficient dropped
    ("laurent", 'f"{c}*x^{e}" if c != 1 else', 1, 'f"{c}*x^{e}" if c == 1 else', [
        "tests/test_laurent.py::test_repr_omits_a_coefficient_of_one_before_a_power",
    ]),
]


def _pytest(src: Path, node_ids: list[str]) -> int:
    """pytest's exit code on node_ids with src first on the import path;
    an error if stockbraid is not imported from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import stockbraid; print(stockbraid.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"stockbraid is imported from {where.strip()}, not from {src}")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids],
                          cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          timeout=TIMEOUT_S, preexec_fn=_limit_memory).returncode


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _copy(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def check() -> list[dict]:
    """The kill table: each row's module, text, replacement and outcome,
    "killed", "survived" or "stale".  Raises AssertionError when the node
    ids fail on an unmutated copy."""
    table = []
    with tempfile.TemporaryDirectory() as tmp:
        every = sorted({node for *_, nodes in MUTANTS for node in nodes})
        code = _pytest(_copy(Path(tmp) / "base"), every)
        assert code == 0, f"the killing tests fail on the unmutated package (pytest exit {code})"
        for row, (module, text, count, replacement, nodes) in enumerate(MUTANTS):
            entry = {"module": module, "text": text, "replacement": replacement, "tests": nodes}
            src = _copy(Path(tmp) / str(row))
            path = src / "stockbraid" / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            found = source.count(text)
            if found != count:
                entry["outcome"], entry["why"] = "stale", f"the text occurs {found} times, not {count}"
            else:
                path.write_text(source.replace(text, replacement), encoding="utf-8")
                # pytest exits 1 when a test failed; 2-5 mean the run itself went wrong.
                code = _pytest(src, nodes)
                if code not in (0, 1):
                    raise RuntimeError(f"pytest exit {code} on {nodes}")
                entry["outcome"] = "killed" if code == 1 else "survived"
            table.append(entry)
    return table


if __name__ == "__main__":
    table = check()
    print(json.dumps(table, indent=2))
    sys.exit(0 if all(entry["outcome"] == "killed" for entry in table) else 1)
