import argparse
import errno
import json
import math
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import argv_grammar
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fuzz import _VALID_PRICES, csv_documents

from stockbraid import (
    BraidWord,
    ClosedBraid,
    Generator,
    bracket,
    cli,
    crossings,
    detect_crossings,
    format_word,
    parse_csv,
    parse_word,
    writhe,
)
from stockbraid.cli import main
from stockbraid.market import PriceSeries, WindowError, parse_price_date, select_window

DOW4_CSV = Path(__file__).parent / "data" / "dow4_2013.csv"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_braid_command(capsys, tmp_path):
    audit_path = tmp_path / "audit.json"
    code, out, err = run_cli(
        capsys, "braid", str(DOW4_CSV), "--audit", str(audit_path)
    )
    assert code == 0
    assert out == "4: -2 -3 -3 3 1 3 1 2 -2 -3 -1 -2\n"
    entries = json.loads(audit_path.read_text())
    assert entries[0]["sign"] == "under"
    assert entries[0]["delta_lower"] == "1.95"


def test_braid_window_flags(capsys):
    code, out, _ = run_cli(
        capsys, "braid", str(DOW4_CSV), "--from", "2013-05-15", "--to", "2013-06-05"
    )
    assert code == 0
    assert out == "4: -2 -3 -3 3 1 3 1 2\n"


def test_compact_iso_window_date_is_an_input_error(capsys):
    # Only YYYY-MM-DD and M/D/YYYY, whatever date.fromisoformat takes on this Python.
    code, out, err = run_cli(capsys, "braid", str(DOW4_CSV), "--from", "20130520")
    assert (code, out, err) == (1, "", "error: unparseable date '20130520'\n")


@pytest.mark.parametrize("value", ["3/ 1/2013", "5/2٠/2013"])
def test_padded_or_non_ascii_window_date_is_an_input_error(capsys, value):
    code, out, err = run_cli(capsys, "braid", str(DOW4_CSV), "--from", value)
    assert (code, out, err) == (1, "", f"error: unparseable date {value!r}\n")


@pytest.mark.parametrize("flag", ["--from", "--to"])
@pytest.mark.parametrize("value", ["", "  "], ids=["empty", "spaces"])
def test_blank_window_date_is_an_input_error(capsys, flag, value):
    # An empty --from is a date that does not parse, not an absent bound.
    code, out, err = run_cli(capsys, "braid", str(DOW4_CSV), flag, value)
    assert (code, out, err) == (1, "", "error: unparseable date ''\n")


@pytest.mark.parametrize("audit", [False, True], ids=["plain", "audit"])
def test_one_date_window_is_an_input_error(capsys, tmp_path, audit):
    # A braid needs two dates; a window of one selects a series with no interval.
    audit_path = tmp_path / "audit.json"
    extra = ["--audit", str(audit_path)] if audit else []
    code, out, err = run_cli(
        capsys, "braid", str(DOW4_CSV), "--from", "5/15/2013", "--to", "5/15/2013", *extra
    )
    assert (code, out, err) == (1, "", "error: crossing detection needs at least two dates\n")
    assert not audit_path.exists()


def test_braid_constant_prices(capsys, tmp_path):
    csv = tmp_path / "flat.csv"
    csv.write_text("Date,A,B\n2013-05-15,10.00,20.00\n2013-05-16,10.00,20.00\n")
    code, out, _ = run_cli(capsys, "braid", str(csv))
    assert code == 0
    assert out == "2:\n"


def test_braid_missing_file(capsys):
    code, _, err = run_cli(capsys, "braid", "no-such-file.csv")
    assert code == 1
    assert "error" in err


def test_invariant_hopf_bracket(capsys):
    code, out, _ = run_cli(capsys, "invariant", "2: 1 1", "--closure", "trace", "--bracket")
    assert code == 0
    doc = json.loads(out)
    assert doc["stats"]["components"] == 2
    assert doc["bracket"]["terms"] == [[-4, -1], [4, -1]]


def test_invariant_two_strand_identity_trace(capsys):
    code, out, _ = run_cli(capsys, "invariant", "2:", "--closure", "trace", "--bracket")
    doc = json.loads(out)
    assert code == 0
    assert doc["stats"]["components"] == 2
    assert doc["bracket"]["terms"] == [[-2, -1], [2, -1]]


def test_invariant_odd_strand_plat_fails(capsys):
    code, _, err = run_cli(capsys, "invariant", "3: 1", "--closure", "plat")
    assert code == 1
    assert "2k" in err


@pytest.mark.parametrize(
    "word,message",
    [
        ("2: ١", "bad generator token '١'"),
        ("١٢: 1", "bad strand count '١٢'"),
        ("12: 1_1", "bad generator token '1_1'"),
    ],
)
def test_word_with_non_ascii_digits_or_underscores_is_an_input_error(capsys, word, message):
    assert run_cli(capsys, "invariant", word) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "word,message",
    [
        ("3: 1 5 x", "generator 5 out of range on 3 strands"),
        ("3: 5 0", "generator 5 out of range on 3 strands"),
        ("3: x 5", "bad generator token 'x'"),
        ("3: 0 5", "generator 0 is not defined"),
        ("2: ١", "bad generator token '١'"),
        ("12: 1_1", "bad generator token '1_1'"),
        ("0: 1", "strand count must be >= 1, got 0"),
    ],
)
def test_a_word_with_several_faults_reports_the_first(capsys, word, message):
    # Faults are reported in word order: the strand count, then the first
    # token that is not a number or not a generator on that many strands.
    assert run_cli(capsys, "invariant", word) == (1, "", f"error: {message}\n")


def test_invariant_jones_conventions_and_eval(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", "4: 2 2", "--jones", "--eval", "0.951056516+0.309016994j"
    )
    assert code == 0
    doc = json.loads(out)
    conventions = {entry["convention"] for entry in doc["jones"]}
    assert conventions == {"paper", "standard"}
    assert "bracket_value" in doc["eval"]
    assert abs(doc["eval"]["bracket_value"]["re"] - (-0.618033988)) < 1e-6


def test_invariant_from_csv(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", str(DOW4_CSV), "--closure", "plat", "--bracket"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == "4: -2 -3 -3 3 1 3 1 2 -2 -3 -1 -2"
    assert doc["stats"]["components"] == 2
    assert doc["bracket"]["terms"] == [[-4, -1], [4, -1]]


def test_invariant_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(bracket, "CROSSING_CAP", 3)
    code, _, err = run_cli(capsys, "invariant", "2: 1 1 1 1", "--bracket", "--closure", "trace")
    assert code == 2
    assert "bracket_eval" in err


@pytest.mark.parametrize("value", ["3", "abc", "-3"])
def test_the_environment_does_not_move_the_crossing_cap(capsys, monkeypatch, value):
    argv = ["invariant", "2: 1 1 1 1", "--closure", "trace", "--bracket"]
    over_cap = ["invariant", "2: " + " ".join(["1"] * 25), "--bracket"]
    monkeypatch.delenv("STOCKBRAID_CROSSING_CAP", raising=False)
    unset = run_cli(capsys, *argv)
    assert unset[0] == 0
    monkeypatch.setenv("STOCKBRAID_CROSSING_CAP", value)
    assert run_cli(capsys, *argv) == unset
    assert run_cli(capsys, *over_cap) == (
        2,
        "",
        "error: 25 crossings exceed the exact-path cap of 24; "
        "use bracket_eval or invariant --eval for numeric evaluation at a point\n",
    )


def test_prob_stats_probe(capsys):
    code, out, _ = run_cli(capsys, "prob", "--stats", "1,1,1,0")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["probability"] - 0.7236) < 1e-4


@pytest.mark.parametrize(
    "argv,message",
    [
        (["prob", "--stats=1,\u0661,1,0"], "--stats components '\u0661' is not an integer"),
        (["prob", "--stats=1,1,\uff13,0"], "--stats minima '\uff13' is not an integer"),
        (["prob", "--stats=1,1,1,1_0"], "--stats writhe '1_0' is not an integer"),
        (["prob", "--stats=1,1,1,x"], "--stats writhe 'x' is not an integer"),
        (["prob", "--stats=1_0,1,1,0"], "--stats V '1_0' is not a complex number"),
        (["prob", "--stats=\u0661+1j,1,1,0"], "--stats V '\u0661+1j' is not a complex number"),
        (["prob", "--stats=x,1,1,0"], "--stats V 'x' is not a complex number"),
        (["invariant", "2: 1", "--eval=1_0"], "--eval '1_0' is not a complex number"),
        (["invariant", "2: 1", "--eval=0.5+\u0661j"], "--eval '0.5+\u0661j' is not a complex number"),
        (["invariant", "2: 1", "--eval=x"], "--eval 'x' is not a complex number"),
        (["invariant", "2: 1", "--eval="], "--eval '' is not a complex number"),
    ],
)
def test_numeric_option_values_are_ascii_without_underscores(capsys, argv, message):
    # int() and complex() read other digits and "_"; an option's numbers, like a word's, do not.
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_numeric_option_values_keep_spaces_and_signs(capsys):
    plain = run_cli(capsys, "prob", "--stats", "1,1,1,0")
    assert plain[0] == 0
    assert run_cli(capsys, "prob", "--stats", "1 + 0j, +1, 1 ,-0") == plain
    point = run_cli(capsys, "invariant", "2: 1", "--eval", "0.5+1j")
    assert point[0] == 0
    assert run_cli(capsys, "invariant", "2: 1", "--eval", " 0.5 + 1j ") == point


def test_prob_empty_gamma_gives_unlink_report(capsys):
    code, out, _ = run_cli(capsys, "prob", "3: 1")
    assert code == 0
    doc = json.loads(out)
    assert doc["interference_word"] == "4:"
    assert doc["components"] == 2
    assert doc["minima"] == 2
    assert "in_range" in doc


def test_prob_gamma_word(capsys):
    code, out, _ = run_cli(capsys, "prob", "3: 1", "--gamma", "4: 1 -3")
    assert code == 0
    doc = json.loads(out)
    assert doc["writhe"] == 0


def test_prob_reduces_one_interference_braid(capsys, monkeypatch):
    # prob builds its readout word through the two names bench/spans.py
    # wraps in stockbraid.cli, each called once, so the tracer's
    # braid.free_reduce span sees the readout word.
    calls = []

    def counted(name):
        original = vars(cli)[name]

        def call(*args):
            calls.append(name)
            return original(*args)

        return call

    for name in ("interference_braid", "free_reduce"):
        monkeypatch.setattr(cli, name, counted(name))
    for sigma, gamma, word in [("3: 1 -1 2 1", "4: -1 -2 3", "4: 3 -1 -2"),
                               ("3: 2 -2 1 2", "4: -2 -1", "4: -2 -1")]:
        calls.clear()
        code, out, _ = run_cli(capsys, "prob", sigma, "--gamma", gamma)
        assert code == 0
        assert json.loads(out)["interference_word"] == word
        assert calls == ["interference_braid", "free_reduce"]


def test_cli_paths_build_no_generator(capsys, monkeypatch, tmp_path):
    # Words are kept as signed values end to end: reading, building,
    # sweeping, drawing and printing a word constructs no Generator.
    built = []
    init = Generator.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Generator, "__init__", counted)
    runs = [
        ("braid", str(DOW4_CSV), "--audit", str(tmp_path / "audit.json")),
        ("invariant", "4: 1 -2 3 2 -1", "--bracket", "--jones", "--closure", "plat"),
        ("invariant", "4: 1 -2 3 2 -1", "--bracket", "--jones", "--closure", "trace"),
        ("render", "4: 1 -2 3"),
        ("prob", "3: 1 -1 2 1", "--gamma", "4: -1 -2 3"),
        ("prob", "3: 2 -2 1 2", "--gamma", "4: -2 -1"),
    ]
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out, argv
    assert built == []


def test_prob_prints_values_of_the_documented_range(capsys):
    # The README's range of probability, [(1 - phi)/(1 + phi^2), (1 +
    # phi)/(1 + phi^2)]: an empty gamma prints its top, phi / sqrt 5, and
    # the formula itself goes below 0 on a 2-strand unknot.
    code, out, _ = run_cli(capsys, "prob", "3: 1")
    assert code == 0
    assert '\n  "probability": 0.7236067977499789,\n' in out
    assert json.loads(out)["in_range"] is True
    code, out, _ = run_cli(capsys, "prob", "1:", "--gamma", "2: -1 -1 -1")
    assert code == 0
    assert '\n  "probability": -0.148932201925999,\n' in out
    assert json.loads(out)["in_range"] is False


def test_prob_malformed_gamma(capsys):
    code, _, err = run_cli(capsys, "prob", "3: 1", "--gamma", "4: 9")
    assert code == 1
    assert "error" in err


def test_prob_even_system_braid_has_no_plat_closure(capsys):
    code, _, err = run_cli(capsys, "prob", "4: 1")
    assert code == 1
    assert "2k" in err


def test_render_ascii(capsys):
    code, out, _ = run_cli(capsys, "render", "2: 1")
    assert code == 0
    assert out.splitlines()[0] == "strands: 2"


def test_render_svg(capsys):
    code, out, _ = run_cli(capsys, "render", "4: 1 -2 3", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")


def test_render_invalid_word(capsys):
    code, _, err = run_cli(capsys, "render", "2: 5")
    assert code == 1
    assert "error" in err


def _run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "stockbraid", *argv],
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["braid", str(DOW4_CSV)],
        ["invariant", "4: 1 2 3", "--bracket"],
        ["prob", "--stats", "1+0j,1,1,0"],
        ["render", "4: " + " ".join(["1", "-2", "3"] * 1000)],
    ],
)
def test_a_closed_stdout_exits_1_in_silence(argv):
    # As under `| head -c 0`: the read end of stdout's pipe is closed before
    # the command writes, so its write fails with EPIPE; the render is far
    # larger than stdout's buffer, so it fails inside the command's write.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "stockbraid", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_a_broken_audit_pipe_is_reported(capsys, monkeypatch, tmp_path):
    # An --audit pipe whose reader has gone is an error, unlike a closed stdout.
    def broken(fh, events, word):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(crossings, "write_audit", broken)
    assert run_cli(capsys, "braid", str(DOW4_CSV), "--audit", str(tmp_path / "a.json")) == (
        1, "", "error: [Errno 32] Broken pipe\n")


def test_cli_runs_are_byte_identical(tmp_path):
    braid_runs = [_run_subprocess("braid", str(DOW4_CSV)) for _ in range(2)]
    assert braid_runs[0].returncode == 0
    assert braid_runs[0].stdout == braid_runs[1].stdout
    inv_runs = [
        _run_subprocess(
            "invariant", str(DOW4_CSV), "--closure", "plat", "--bracket", "--jones",
            "--eval", "0.951056516295153+0.309016994374947j",
        )
        for _ in range(2)
    ]
    assert inv_runs[0].returncode == 0
    assert inv_runs[0].stdout == inv_runs[1].stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "2: 1", "--eval", "0"],
    ],
)
def test_evaluation_point_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: evaluation point must be finite and nonzero\n"


@pytest.mark.parametrize(
    "option,value,command",
    [("--eval", "-0.5+1j", ["invariant", "2: 1"]), ("--stats", "-2+3j,1,1,0", ["prob"])],
)
def test_leading_minus_value_needs_the_equals_form(capsys, option, value, command):
    # argparse reads "-0.5+1j" after a space as an option, so only --opt=VALUE takes it.
    with pytest.raises(SystemExit) as exc:
        main([*command, option, value])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"argument {option}: expected one argument" in err

    code, out, err = run_cli(capsys, *command, f"{option}={value}")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    if option == "--eval":
        assert doc["eval"]["point_a"] == {"re": -0.5, "im": 1.0}
    else:
        assert doc["jones_value"] == {"re": -2.0, "im": 3.0}


@pytest.mark.parametrize("argv", [
    ["invariant", "2: 1"],
    ["render", "2: 1"],
    ["prob", "3: 1"],
])
def test_memory_error_is_one_error_line(capsys, monkeypatch, argv):
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_word", exhausted)
    assert run_cli(capsys, *argv) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("value", ["nan", "inf", "1+infj"])
def test_prob_stats_rejects_non_finite(capsys, value):
    code, out, err = run_cli(capsys, "prob", "--stats", f"{value},1,1,0")
    assert (code, out) == (1, "")
    assert err == "error: Jones value must be finite\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["1,1,5000,0"], "minima 5000 is out of range (-1472..1476)"),
        (["1,1,-99999,0"], "minima -99999 is out of range (-1472..1476)"),
        (["1,1,-1473,0"], "minima -1473 is out of range (-1472..1476)"),
        # 3 Wr does not convert to a float, so (-A)^(3 Wr) overflows.
        pytest.param(
            [f"1,1,2,{10**308}"], f"(-A)^(3 Wr) overflows for writhe {10**308}",
            id="writhe-10**308",
        ),
        (["1,1,1477,0"], "minima 1477 is out of range (-1472..1476)"),
    ],
)
def test_prob_stats_rejects_overflow(capsys, argv, message):
    code, out, err = run_cli(capsys, "prob", "--stats", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "stats,minima",
    [("1e300,1,-600,0", -600), ("1e300j,1,-600,1", -600), ("1e308,1,0,0", 0), ("-1e308,2,-1472,0", -1472)],
)
def test_prob_stats_overflowing_amplitude_is_a_numeric_overflow(capsys, stats, minima):
    # Each minima is in range, but 1 + V / phi^(m - 2) overflows: the CLI
    # reports it as invariant does, not through the JSON writer's refusal.
    code, out, err = run_cli(capsys, "prob", f"--stats={stats}")
    assert (code, out) == (1, "")
    assert err == f"error: numeric overflow: the amplitude overflows for minima {minima}\n"


@pytest.mark.parametrize("minima", [-1472, -40, -30, 1476])
def test_prob_stats_extreme_minima_in_range(capsys, minima):
    code, out, _ = run_cli(capsys, "prob", "--stats", f"1,1,{minima},0")
    assert code == 0
    doc = json.loads(out)
    assert doc["minima"] == minima
    if minima < 0:
        # amplitude = 1 + 1 / phi^(m - 2) = 1 + phi^(2 - m), not the 1 of a lost power
        phi = (1 + math.sqrt(5)) / 2
        assert math.isclose(doc["amplitude"]["re"] - 1, phi ** (2 - minima), rel_tol=1e-12)


def test_prob_stats_zero_minima_reads_probability_one(capsys):
    # phi^-2 is 1 / phi^2, so V = 1, c = 1, m = 0 gives 1 + phi^2 over 1 + phi^2.
    code, out, _ = run_cli(capsys, "prob", "--stats", "1,1,0,0")
    assert code == 0
    doc = json.loads(out)
    assert (doc["amplitude"]["re"], doc["probability"], doc["in_range"]) == (
        3.618033988749895, 1.0, True
    )


def test_non_finite_output_is_an_error(capsys):
    # 1/A overflows, so the bracket value is not finite and cannot be strict JSON.
    code, out, err = run_cli(capsys, "invariant", "2: 1", "--eval", "1e-320")
    assert (code, out) == (1, "")
    assert err == "error: numeric overflow: the bracket is not finite at A = (1e-320+0j)\n"


@pytest.mark.parametrize(
    "point,shown",
    [("1e-310", "(1e-310+0j)"), ("1e-170", "(1e-170+0j)"), ("1e155+1e155j", "(1e+155+1e+155j)")],
)
def test_a_non_finite_bracket_is_a_numeric_overflow(capsys, point, shown):
    # 1/A, or A^2 and d, overflow, and the sweep leaves a NaN, which is
    # no JSON number: the error names the point instead.
    code, out, err = run_cli(capsys, "invariant", "2: 1", "--closure", "plat", "--eval", point)
    assert (code, out) == (1, "")
    assert err == f"error: numeric overflow: the bracket is not finite at A = {shown}\n"


def test_an_overflowing_jones_value_is_a_numeric_overflow(capsys):
    # The bracket at 1e-4 is finite, and so is (-A)^(-72), but their
    # product is not.
    word = "2: " + " ".join(["1"] * 24)
    code, out, err = run_cli(capsys, "invariant", word, "--closure", "trace", "--eval", "1e-4", "--jones")
    assert (code, out) == (1, "")
    assert err == "error: numeric overflow: (-A)^(-3 Wr) overflows at A = (0.0001+0j) for writhe 24\n"
    code, out, _ = run_cli(capsys, "invariant", word, "--closure", "trace", "--eval", "1e-2", "--jones")
    assert code == 0 and json.loads(out)["eval"]["jones_value_at_a4"]["re"] == -9.999999999999993e+195


@pytest.mark.parametrize(
    "point,shown",
    [(["--eval", "1e-120"], "(1e-120+0j)"), (["--eval=1e-160j"], "1e-160j"),
     (["--eval=-1e-160"], "(-1e-160+0j)")],
)
def test_tiny_eval_point_with_jones_is_a_numeric_overflow(capsys, point, shown):
    # (-A)^(3 Wr) underflows to 0, so (-A)^(-3 Wr) overflows.  Below about
    # 1e-154 1/A^2 and d overflow too, and the bracket, computed first, is
    # not finite.
    code, out, err = run_cli(capsys, "invariant", "2: 1", *point, "--jones")
    assert (code, out) == (1, "")
    if abs(complex(shown)) > 1e-154:
        assert err == f"error: numeric overflow: (-A)^(-3 Wr) overflows at A = {shown} for writhe 1\n"
    else:
        assert err == f"error: numeric overflow: the bracket is not finite at A = {shown}\n"


_JSON_STRINGS = st.text() | st.sampled_from(['"', "\\", "a\nb", '\\"\t', "\u00e9", "\u2028", "\udc80"])
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.sampled_from([10**40, -(2**100)]),
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e300, 5e-324]),
    _JSON_STRINGS,
)
_INT_PAIRS = st.lists(st.integers(), min_size=2, max_size=2)
# Rows the pair template must leave to the general path.
_OTHER_ROWS = st.one_of(
    st.tuples(st.booleans(), st.integers()).map(list),
    st.tuples(st.integers(), st.floats(allow_nan=False, allow_infinity=False)).map(list),
    st.lists(st.integers(), min_size=3, max_size=3),
)
_JSON_DOCUMENTS = st.recursive(
    _JSON_SCALARS | st.lists(_INT_PAIRS) | st.lists(_INT_PAIRS | _OTHER_ROWS),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_JSON_STRINGS, children, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_JSON_DOCUMENTS)
@example({"terms": [[1, 2], [True, 1]], "e": [], "d": {}})
@example([[[-3, 1], [0, -(10**30)]], [[1, 2.5]], [[1, 2, 3]]])
@example(True)
@example(False)
@example([True, False, None, 0, 1])
@example({"in_range": True, "out": False, "rows": [[False, True]]})
def test_json_writer_matches_json_dumps_indent_2(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, allow_nan=False)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="json's C escaper is CPython's")
def test_strings_are_quoted_by_jsons_c_escaper():
    assert cli._quote is json.encoder.encode_basestring_ascii
    assert crossings._quote is cli._quote


def test_non_finite_refusal_is_jsons_in_an_interpreter_without_json():
    # _json_text imports json only to refuse; the message must still be json's.
    script = (
        "import math, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from stockbraid import cli\n"
        "print('json' in sys.modules)\n"
        "doc = {'a': [1, math.nan]}\n"
        "try:\n"
        "    cli._json_text(doc)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "import json\n"
        "try:\n"
        "    json.dumps(doc, indent=2, allow_nan=False)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-I", "-c", script, src], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert len(out) == 3 and out[0] == "False"
    assert out[1] == out[2] and out[1].startswith("Out of range float values are not JSON compliant")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place", [lambda v: v, lambda v: {"a": [1, {"b": v}]}, lambda v: [[1, v]]],
    ids=["alone", "nested", "in-a-pair"],
)
def test_json_writer_refuses_non_finite_floats_as_json_does(value, place):
    doc = place(value)
    with pytest.raises(ValueError) as expected:
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._json_text(doc)
    assert str(got.value) == str(expected.value)


@st.composite
def _emitting_argvs(draw) -> list[str]:
    """invariant and prob calls that print a document."""
    command = draw(st.sampled_from(["invariant", "prob", "prob --stats"]))
    if command == "prob --stats":
        v = draw(st.complex_numbers(max_magnitude=1e6))
        c, m, w = draw(st.integers(1, 4)), draw(st.integers(0, 12)), draw(st.integers(-30, 30))
        return ["prob", f"--stats={v},{c},{m},{w}"]
    closure = draw(st.sampled_from(["plat", "trace"])) if command == "invariant" else "plat"
    # plat caps strand pairs: invariant needs an even count, prob an odd one (n + 1 with the test strand).
    if closure == "trace":
        n = draw(st.integers(1, 6))
    else:
        n = 2 * draw(st.integers(1, 3)) - (command == "prob")
    gens = draw(st.lists(st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
                         max_size=10)) if n > 1 else []
    argv = [command, format_word(BraidWord(n, gens))]
    if command == "invariant":
        argv += ["--closure", closure, "--bracket", "--jones"]
        if draw(st.booleans()):
            argv.append("--eval=" + str(draw(st.complex_numbers(min_magnitude=0.5, max_magnitude=2))))
    return argv


def test_documents_are_json_dumps_indent_2(capsys):
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(_emitting_argvs())
    def check(argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv

    check()


@pytest.mark.parametrize("argv", [["invariant", "2: 1 1"], ["prob", "--stats", "1,1,1,0"]])
def test_pretty_is_a_usage_error(capsys, argv):
    # One output form: --pretty is an unknown option like any other.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--pretty"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: stockbraid")
    assert "unrecognized arguments: --pretty" in err


@pytest.mark.parametrize(
    "argv",
    [["prob", "3:"], ["prob", "3: 1", "--gamma", "4: 1"], ["prob", "--stats", "1,1,1,0"]],
)
def test_point_is_a_usage_error(capsys, argv):
    # The readout runs only at the Fibonacci point; --point is an unknown option.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--point", "2"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: stockbraid")
    assert "unrecognized arguments: --point" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "3: 1", "--gamma", "4: 1 -3", "--stats", "1,1,1,0"],
        ["prob", "3: 1", "--stats", "1,1,1,0"],
        ["prob", "--gamma", "4: 1 -3", "--stats", "1,1,1,0"],
        ["prob", "--stats", "1,1,1,0", "--from", "x"],
        ["prob", "--stats", "1,1,1,0", "--to", "2020-01-01"],
    ],
)
def test_stats_with_a_source_or_gamma_is_a_usage_error(capsys, argv):
    # --stats probes the bare formula; a word or window it would ignore is refused.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: stockbraid")
    assert err.endswith(": error: prob --stats takes no braid word, CSV path, --gamma or --from/--to\n")


def test_invariant_runs_one_bracket_sweep(capsys, monkeypatch):
    calls = []
    original = cli.bracket_poly

    def counted(k):
        calls.append(k)
        return original(k)

    monkeypatch.setattr(cli, "bracket_poly", counted)
    code, out, _ = run_cli(capsys, "invariant", "4: 1 -2 3 2 -1", "--bracket", "--jones")
    assert code == 0
    assert len(calls) == 1
    doc = json.loads(out)
    assert [j["convention"] for j in doc["jones"]] == ["paper", "standard"]


def test_invariant_eval_runs_one_numeric_sweep(capsys, monkeypatch):
    calls = []
    original = bracket.bracket_eval

    def counted(k, a):
        calls.append(k)
        return original(k, a)

    # Both bindings: the CLI's own and the one jones_eval looks up.
    monkeypatch.setattr(cli, "bracket_eval", counted)
    monkeypatch.setattr(bracket, "bracket_eval", counted)
    code, _, _ = run_cli(capsys, "invariant", "4: 1 -2 3 2 -1", "--jones", "--eval", "0.9+0.3j")
    assert code == 0
    assert len(calls) == 1


def test_invariant_eval_jones_is_the_writhe_corrected_bracket(capsys):
    k = ClosedBraid(parse_word("4: 1 -2 3 2 -1 1"), "plat")

    def jones_at(a):
        code, out, _ = run_cli(capsys, "invariant", format_word(k.braid), "--jones", "--eval", a)
        assert code == 0
        v = json.loads(out)["eval"]["jones_value_at_a4"]
        return complex(v["re"], v["im"])

    inside = complex("0.9+0.3j")  # arg in (-pi/4, pi/4]: a is the principal root of a^4
    assert abs(jones_at("0.9+0.3j") - bracket.jones_eval(k, inside**4)) < 1e-9
    outside = complex("0.3+0.9j")
    expected = bracket._writhe_corrected_value(
        bracket.bracket_eval(k, outside), outside, writhe(k.braid)
    )
    assert jones_at("0.3+0.9j") == expected


def test_braid_audit_detects_crossings_once(capsys, monkeypatch, tmp_path):
    calls = []
    classified = []
    words = []
    detect, sign, braid_with_events = (
        crossings.detect_crossings, crossings._exponent, crossings.braid_with_events
    )

    def counted(series):
        calls.append(series)
        return detect(series)

    def counted_sign(event):
        classified.append(event)
        return sign(event)

    def kept(series):
        word, events = braid_with_events(series)
        words.append(word)
        return word, events

    monkeypatch.setattr(crossings, "detect_crossings", counted)
    monkeypatch.setattr(crossings, "_exponent", counted_sign)
    monkeypatch.setattr(crossings, "braid_with_events", kept)
    audit_path = tmp_path / "audit.json"
    code, out, _ = run_cli(capsys, "braid", str(DOW4_CSV), "--audit", str(audit_path))
    assert code == 0
    assert out == "4: -2 -3 -3 3 1 3 1 2 -2 -3 -1 -2\n"
    assert len(calls) == 1
    (word,) = words
    # The sign rule runs once per event, and one Generator is shared per signed value.
    assert len(classified) == len(word) == 12
    assert len({id(g) for g in word.generators}) <= 2 * (word.n_strands - 1)
    monkeypatch.undo()
    entries = crossings.audit_log(calls[0])
    assert audit_path.read_bytes() == (json.dumps(entries, indent=2) + "\n").encode("utf-8")


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_audit_path_leaves_stdout_empty(capsys, tmp_path, where):
    audit = tmp_path / "missing" / "a.json" if where == "missing directory" else tmp_path
    code, out, err = run_cli(capsys, "braid", str(DOW4_CSV), "--audit", str(audit))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(audit) in err


@pytest.mark.parametrize("spelling", ["same", "dot-relative"])
def test_audit_path_that_is_the_input_csv_is_refused(capsys, monkeypatch, tmp_path, spelling):
    csv = tmp_path / "prices.csv"
    csv.write_bytes(DOW4_CSV.read_bytes())
    monkeypatch.chdir(tmp_path)
    audit = "prices.csv" if spelling == "same" else "./prices.csv"
    code, out, err = run_cli(capsys, "braid", "prices.csv", "--audit", audit)
    assert (code, out) == (1, "")
    assert err == f"error: audit path {audit} is the input CSV\n"
    assert csv.read_bytes() == DOW4_CSV.read_bytes()


def test_ingest_and_detection_never_look_dates_up(capsys, monkeypatch, tmp_path):
    def refuse(self, on):
        raise AssertionError(f"date_index({on}) called")

    monkeypatch.setattr(PriceSeries, "date_index", refuse)
    series = parse_csv(DOW4_CSV.read_text(encoding="utf-8"))
    assert len(detect_crossings(series)) == 12
    code, out, _ = run_cli(capsys, "braid", str(DOW4_CSV), "--audit", str(tmp_path / "a.json"))
    assert (code, out) == (0, "4: -2 -3 -3 3 1 3 1 2 -2 -3 -1 -2\n")


def test_error_naming_a_ticker_with_a_line_break_stays_on_one_line(capsys, tmp_path):
    csv = tmp_path / "break.csv"
    csv.write_text('Date,"A\nB",C\n2013-05-15,,1.00\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "braid", str(csv))
    assert (code, out) == (1, "")
    assert err == "error: missing price for A\\nB on 2013-05-15\n"


def test_window_on_a_file_without_dates(capsys, tmp_path):
    csv = tmp_path / "header.csv"
    csv.write_text("Date,A,B\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "braid", str(csv), "--from", "2013-05-16")
    assert (code, out) == (1, "")
    assert err == f"error: {csv} has no dates to window\n"


def test_main_builds_a_parser_only_for_an_argv_that_needs_it(capsys, monkeypatch):
    # Plain argvs build no parser; a usage error and each argv only argparse
    # reads build one of their own, and the module keeps none between calls.
    argvs = [
        ["braid", str(DOW4_CSV)],
        ["invariant", "4: 1 -2 3 2 -1", "--bracket", "--jones"],
        ["prob", "3: 1 2 -1", "--gamma", "4: 3 -2 3"],
        ["render", "3: 1 -2"],
        ["invariant", "3: 5"],
        ["prob"],
        ["invariant", "--bracket", "2: 1"],
        ["render", "--format", "svg", "--", "2: 1"],
    ]
    alone = [_run_subprocess(*argv) for argv in argvs]

    calls = []
    build = cli.build_parser

    def counted():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    built = []
    for argv, proc in zip(argvs, alone):
        calls.clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            proc.returncode,
            proc.stdout.decode("utf-8"),
            proc.stderr.decode("utf-8"),
        )
        built.append(len(calls))
    assert [proc.returncode for proc in alone] == [0, 0, 0, 0, 1, 2, 0, 0]
    assert built == [0, 0, 0, 0, 0, 1, 1, 1]
    assert not [name for name, value in vars(cli).items() if isinstance(value, argparse.ArgumentParser)]


def test_plain_reader_agrees_with_argparse():
    # The same check runs without pytest: PYTHONPATH=src python tests/argv_grammar.py
    read = argv_grammar.check()
    # Every plain argv, and a share of the edited and random ones, is read;
    # this seed reads 182 and 56 of them.  An = value is never read, so
    # most edited argvs are left to argparse.
    assert read["plain"] == 3000
    assert read["mutated"] >= 90 and read["tokens"] >= 40, read


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "2: 1", "--closure", "trace", "--bracket", "--jones", "--convention", "paper",
         "--eval", "1+1j"],
        ["invariant", "2: 1", "--bracket", "--bracket"],
        ["prob", "", "--gamma", ""],
        ["braid", "a b.csv", "--to", "5/16/2013", "--from", "", "--audit", "x"],
        ["render", "2: 1", "--format", "svg", "--format", "ascii"],
        ["invariant", "2: 1", "--closure", "plat", "--closure", "trace"],
    ],
)
def test_plain_argvs_read_as_argparse_reads_them(argv):
    assert vars(cli._read_plain(argv)) == argv_grammar.argparse_namespace(cli.build_parser(), argv)


# The command lines the benchmark sends (bench/workloads.py), then those of
# the installed-console-script CI step that are plain.
TRAFFIC = [
    ["braid", "tests/data/dow4_2013.csv", "--audit", "audit.json"],
    ["braid", "tests/data/dow4_2013.csv", "--from", "5/16/2013", "--to", "2013-06-05"],
    ["invariant", "4: 1 -2 3", "--closure", "trace", "--bracket", "--jones"],
    ["prob", "3: 1 -2", "--gamma", "4: 1 -3"],
    ["invariant", "4: 1 2 3", "--bracket"],
    ["invariant", "2: 1 1 1", "--closure", "trace", "--bracket"],
    ["invariant", "30: 1 3 5", "--closure", "trace", "--eval", "1j"],
    ["braid", "tests/data/dow4_2013.csv"],
    ["prob", "3: 1", "--gamma", "4: 1 -3"],
    ["render", "4: 1 -2 3"],
    ["invariant", "3: 1 5"],
    ["invariant", "0: 1"],
]


@pytest.mark.parametrize("argv", TRAFFIC)
def test_the_traffic_is_read_as_argparse_reads_it(argv):
    assert vars(cli._read_plain(argv)) == argv_grammar.argparse_namespace(cli.build_parser(), argv)


@pytest.mark.parametrize(
    "argv",
    [
        [], ["--version"], ["invariant", "-h"], ["invariant", "2: 1", "--help"],
        ["invariant", "--", "2: 1"], ["invariant", "2: 1", "--brack"],
        ["invariant", "2: 1", "--bracket=1"], ["invariant", "2: 1", "--closure", "Plat"],
        ["invariant", "2: 1", "--eval", "-1"], ["invariant", "--jones", "2: 1"], ["prob", "-"],
        ["prob", "3: 1", "--gamma=--"], ["braid", "a.csv", "--audit"], ["braid", "a.csv", "b.csv"],
        ["inv", "2: 1"], ["render", "2: 1", "--format", "svg", "--format=ascii"],
        ["prob", "3: 1", "--point", "2"],
        ["invariant", "2: 1", "--eval=-0.5+1j", "--closure=plat"], ["prob", "--stats=-2+3j,1,1,0"],
        ["prob", "--stats", "1,1,1,0"], ["prob"], ["prob", "", "--gamma="],
        ["braid", "a b.csv", "--to", "5/16/2013", "--from=", "--audit", "x"],
    ],
)
def test_other_argvs_are_left_to_argparse(argv):
    assert cli._read_plain(argv) is None


def _parse_then_select(path, start, end):
    """The CLI's ingest as parse_csv of the whole file, then select_window."""
    with open(path, encoding="utf-8") as fh:
        series = parse_csv(fh.read())
    if start is not None or end is not None:
        if not series.dates:
            raise WindowError(f"{path} has no dates to window")
        lo = series.dates[0] if start is None else parse_price_date(start)
        hi = series.dates[-1] if end is None else parse_price_date(end)
        series = select_window(series, lo, hi)
    return series


_FUZZ_WINDOWS = [[], ["--from=2013-05-16"], ["--to=5/17/2013"],
                 ["--from=2013-05-17", "--to=2013-05-16"], ["--from=soon"]]
_BAD_PRICES = ["", " ", "x", "0", "-1.00", "72.781", "1_000", "nan", "\u0663.\u0665\u0660"]
_BAD_DATES = ["2013-02-30", "20130515", "3/ 1/2013", "yesterday"]


@st.composite
def _valid_documents(draw, min_dates=0):
    """A price document that parses, on two tickers or more, and its
    distinct dates in order, at least min_dates of them."""
    tickers = draw(st.lists(st.text("ABCXYZ", min_size=1, max_size=3), min_size=2, max_size=4,
                            unique=True))
    dates = sorted(draw(st.lists(st.dates(date(2013, 1, 1), date(2013, 12, 31)),
                                 min_size=min_dates, max_size=6,
                                 unique=True)))
    rows = [[draw(st.sampled_from([d.isoformat(), f"{d.month}/{d.day}/{d.year}", f" {d} "]))]
            + [draw(_VALID_PRICES) for _ in tickers] for d in dates]
    if draw(st.booleans()):
        rows.reverse()
    lines = [",".join(["Date", *tickers])] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n", dates


def _bound(day):
    return st.sampled_from([day.isoformat(), f"{day.month}/{day.day}/{day.year}"])


@st.composite
def _word_case(draw):
    """A valid document and a window that selects two of its dates or more,
    as crossing detection needs."""
    text, dates = draw(_valid_documents(min_dates=2))
    lo, hi = sorted(draw(st.lists(st.sampled_from(dates), min_size=2, max_size=2, unique=True)))
    window = draw(st.sampled_from([[], ["--from"], ["--to"], ["--from", "--to"]]))
    return text, [f"{flag}={draw(_bound(lo if flag == '--from' else hi))}" for flag in window]


@st.composite
def _window_error_case(draw):
    """A valid document and a window it fails: no dates, an unparseable
    bound, a start after the end, or no date selected."""
    text, dates = draw(_valid_documents())
    if not dates:
        return text, draw(st.sampled_from(_FUZZ_WINDOWS[1:]))
    day = draw(st.sampled_from(dates))
    after = day + timedelta(days=1)
    return text, draw(st.sampled_from([
        ["--from=soon"],
        [f"--to={day}", "--from=later"],
        [f"--from={after}", f"--to={day}"],
        ["--from=2014-01-01"],
        ["--to=12/31/2012"],
    ]))


@st.composite
def _csv_error_case(draw):
    """A valid document with one cell made bad, under any window."""
    text, _ = draw(_valid_documents(min_dates=1))
    lines = [line.split(",") for line in text.splitlines()]
    row = draw(st.integers(1, len(lines) - 1))
    column = draw(st.integers(0, len(lines[0]) - 1))
    lines[row][column] = draw(st.sampled_from(_BAD_DATES if column == 0 else _BAD_PRICES))
    window = draw(st.sampled_from(_FUZZ_WINDOWS))
    return "\n".join(",".join(line) for line in lines) + "\n", window


@st.composite
def _fuzzed_case(draw):
    """Any generated document, under a window built from its own first fields."""
    text = draw(csv_documents())
    # The document's own first fields, good dates and odd ones, as bounds.
    own = [line.split(",")[0].strip('"') for line in text.splitlines()[1:]]
    bound = st.sampled_from(own) if own else st.just("2013-05-16")
    window = draw(st.one_of(
        st.sampled_from(_FUZZ_WINDOWS),
        st.builds(lambda a: [f"--from={a}"], bound),
        st.builds(lambda b: [f"--to={b}"], bound),
        st.builds(lambda a, b: [f"--from={a}", f"--to={b}"], bound, bound),
    ))
    return text, window


# The outcome each kind of case must have; a fuzzed case may have any.
_CASES = {"word": _word_case(), "window error": _window_error_case(),
          "csv error": _csv_error_case(), None: _fuzzed_case()}


def test_windowed_ingest_matches_parse_then_select(capsys, monkeypatch, tmp_path):
    path = tmp_path / "prices.csv"
    seen = {"word": 0, "csv error": 0, "window error": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def check(data):
        # The kind is drawn first, so each outcome's share of the examples
        # does not hang on how Hypothesis happens to fill the documents.
        kind = data.draw(st.sampled_from(list(_CASES)))
        text, window = data.draw(_CASES[kind])
        path.write_text(text, encoding="utf-8", newline="")
        argv = ["braid", *window, "--", str(path)]
        got = run_cli(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_load_series", _parse_then_select)
            assert got == run_cli(capsys, *argv), argv
        # A window's own errors; a row's bad date is a CSV error unless it is also a bound.
        window_errors = ["to window", "selects no dates", "is after end",
                         *(f"date {flag.partition('=')[2]!r}" for flag in window)]
        if got[0] == 0:
            outcome = "word"
        elif any(k in got[2] for k in window_errors):
            outcome = "window error"
        else:
            outcome = "csv error"
        assert kind in (None, outcome), (kind, got, text, window)
        seen[outcome] += 1

    check()
    assert all(v >= 10 for v in seen.values()), seen


@pytest.mark.parametrize(
    "text,window,message",
    [
        # A bad cell outside the window names its own date and ticker.
        ("Date,A,B\n2013-05-15,1.00,2.00\n2013-05-16,1.10,x\n", ["--to", "2013-05-15"],
         "unparseable price 'x' for B on 2013-05-16"),
        ("Date,A,B\n2013-05-15,1.00,2.00\n2013-05-16,0.00,2.10\n", ["--to", "2013-05-15"],
         "non-positive price '0.00' for A on 2013-05-16"),
        # 1. A CSV error comes before anything about the window, a bad header included.
        ("Date,A,B\n2013-05-15,1.00,\n", ["--from", "soon"], "missing price for B on 2013-05-15"),
        ("Date,A,A\n2013-05-15,1.00,2.00\n", ["--from", "soon"], "tickers must be pairwise distinct"),
        # 2. No dates to window, then 3. an unparseable bound, the start first.
        ("Date,A,B\n", ["--from", "soon"], "{path} has no dates to window"),
        ("Date,A\n2013-05-15,1.00\n", ["--from", "soon", "--to", "later"], "unparseable date 'soon'"),
        ("Date,A\n2013-05-15,1.00\n", ["--to", "later"], "unparseable date 'later'"),
        # 4. Start after end, then 5. an empty window.
        ("Date,A\n2013-05-15,1.00\n", ["--from", "2013-06-01", "--to", "2013-05-01"],
         "window start 2013-06-01 is after end 2013-05-01"),
        ("Date,A\n2013-05-15,1.00\n", ["--from", "2013-05-16", "--to", "2013-05-20"],
         "window 2013-05-16..2013-05-20 selects no dates"),
    ],
)
def test_windowed_ingest_error_order(capsys, tmp_path, text, window, message):
    csv = tmp_path / "prices.csv"
    csv.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "braid", str(csv), *window)
    assert (code, out, err) == (1, "", f"error: {message.format(path=csv)}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "3: 1", "--gamma", "4: 1", "--from", "x"],
        ["prob", "3: 1", "--to", "2020-01-01"],
        ["invariant", "4: 1 2", "--from", "2020-01-01"],
        ["invariant", "4: 1 2", "--closure", "trace", "--to", ""],
    ],
)
def test_window_on_a_braid_word_is_a_usage_error(capsys, argv):
    # A window selects rows of a price CSV; on a word it would be ignored.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: stockbraid")
    assert err.endswith(": error: --from/--to window a price CSV, not a braid word\n")
