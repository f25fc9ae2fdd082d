import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from stockbraid import (
    ClosedBraid,
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
from stockbraid.market import PriceSeries

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
    monkeypatch.setenv("STOCKBRAID_CROSSING_CAP", "3")
    code, _, err = run_cli(capsys, "invariant", "2: 1 1 1 1", "--bracket", "--closure", "trace")
    assert code == 2
    assert "bracket_eval" in err


def test_prob_stats_probe(capsys):
    code, out, _ = run_cli(capsys, "prob", "--stats", "1,1,1,0")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["probability"] - 0.7236) < 1e-4


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


def test_prob_malformed_gamma(capsys):
    code, _, err = run_cli(capsys, "prob", "3: 1", "--gamma", "4: 9")
    assert code == 1
    assert "error" in err


def test_prob_even_system_braid_cannot_plat_close(capsys):
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


@pytest.mark.parametrize("value", ["-3", "abc"])
def test_invalid_crossing_cap(capsys, monkeypatch, value):
    monkeypatch.setenv("STOCKBRAID_CROSSING_CAP", value)
    code, out, err = run_cli(capsys, "invariant", "2: ", "--bracket")
    assert (code, out) == (1, "")
    assert err.startswith("error: STOCKBRAID_CROSSING_CAP must be a non-negative integer")
    assert err.count("\n") == 1


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
    assert err.startswith("error: Out of range float values are not JSON compliant")


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
    original = crossings.detect_crossings

    def counted(series):
        calls.append(series)
        return original(series)

    monkeypatch.setattr(crossings, "detect_crossings", counted)
    audit_path = tmp_path / "audit.json"
    code, out, _ = run_cli(capsys, "braid", str(DOW4_CSV), "--audit", str(audit_path))
    assert code == 0
    assert out == "4: -2 -3 -3 3 1 3 1 2 -2 -3 -1 -2\n"
    assert len(calls) == 1
    assert json.loads(audit_path.read_text()) == crossings.audit_log(calls[0])


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


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    argvs = [
        ["braid", str(DOW4_CSV)],
        ["invariant", "4: 1 -2 3 2 -1", "--bracket", "--jones"],
        ["prob", "3: 1 2 -1", "--gamma", "4: 3 -2 3"],
        ["render", "3: 1 -2"],
        ["invariant", "3: 5"],
        ["prob"],
    ]
    alone = [_run_subprocess(*argv) for argv in argvs]

    calls = []
    build = cli.build_parser

    def counted():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    for argv, proc in zip(argvs, alone):
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
    assert [proc.returncode for proc in alone] == [0, 0, 0, 0, 1, 2]
    assert len(calls) == 1
    assert build() is not build()
