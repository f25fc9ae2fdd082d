"""Command-line front end for the price-to-braid-to-invariant pipeline.

Subcommands:

* ``braid CSV``: detect crossings and print the braid word; optionally
  write the crossing audit log as JSON.
* ``invariant WORD|CSV``: diagram statistics plus the bracket and Jones
  polynomials of the chosen closure, JSON on stdout.
* ``prob WORD|CSV``: build the interference braid against a test-strand
  word, plat-close it, and evaluate the outcome probability at A =
  e^(i pi/10) only; or probe the bare formula with ``--stats``.
* ``render WORD``: ASCII or SVG diagram of a braid word.

``invariant`` and ``prob`` print one strict-JSON document.  Exit codes:
0 success, 1 input error, 2 exact-path crossing cap exceeded or usage
error.  Identical invocations produce byte-identical output; nothing
here depends on clocks, locales, or iteration order of unordered sets.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .braid import BraidWord, format_word, free_reduce, parse_word, writhe
from .bracket import (
    CrossingCapExceeded,
    _writhe_corrected_value,
    bracket_eval,
    bracket_poly,
    writhe_corrected,
)
from .closure import ClosedBraid, diagram_stats
from .crossings import audit_entries, braid_with_events, build_braid
from .laurent import poly_to_json
from .market import WindowError, parse_csv, parse_price_date, select_window
from .outcome import interference_braid, outcome_from_stats, outcome_probability
from .render import render_ascii, render_svg

_WORD_RE = re.compile(r"^\s*\d+\s*:")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


def _load_series(path: str, start: str | None, end: str | None):
    with open(path, encoding="utf-8") as fh:
        series = parse_csv(fh.read())
    if start or end:
        if not series.dates:
            raise WindowError(f"{path} has no dates to window")
        lo = parse_price_date(start) if start else series.dates[0]
        hi = parse_price_date(end) if end else series.dates[-1]
        series = select_window(series, lo, hi)
    return series


def _load_word(source: str, start: str | None, end: str | None) -> BraidWord:
    if _WORD_RE.match(source):
        return parse_word(source)
    return build_braid(_load_series(source, start, end))


def _emit_json(doc: dict) -> None:
    # Dumped before printing, so a non-finite value is an error with nothing on stdout.
    print(json.dumps(doc, indent=2, allow_nan=False))


def _cmd_braid(args: argparse.Namespace) -> int:
    series = _load_series(args.csv, args.window_from, args.window_to)
    word, events = braid_with_events(series)
    print(format_word(word))
    if args.audit:
        entries = audit_entries(events)
        with open(args.audit, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_invariant(args: argparse.Namespace) -> int:
    word = _load_word(args.source, args.window_from, args.window_to)
    k = ClosedBraid(word, args.closure)
    doc: dict = {"word": format_word(word), "stats": diagram_stats(k).to_json()}
    if args.bracket or args.jones:
        bracket = bracket_poly(k)
    if args.bracket:
        doc["bracket"] = poly_to_json(bracket, variable="A")
    if args.jones:
        conventions = [args.convention] if args.convention else ["paper", "standard"]
        doc["jones"] = [
            poly_to_json(writhe_corrected(bracket, k, conv), variable="t^{1/4}", convention=conv)
            for conv in conventions
        ]
    if args.eval_point is not None:
        a = _parse_complex(args.eval_point)
        value = bracket_eval(k, a)
        doc["eval"] = {
            "point_a": {"re": a.real, "im": a.imag},
            "bracket_value": {"re": value.real, "im": value.imag},
        }
        if args.jones:
            v = _writhe_corrected_value(value, a, writhe(word))
            doc["eval"]["jones_value_at_a4"] = {"re": v.real, "im": v.imag}
    _emit_json(doc)
    return 0


def _cmd_prob(args: argparse.Namespace) -> int:
    if args.stats:
        fields = args.stats.split(",")
        if len(fields) != 4:
            raise ValueError("--stats expects V,components,minima,writhe")
        report = outcome_from_stats(
            jones_value=_parse_complex(fields[0]),
            components=int(fields[1]),
            minima=int(fields[2]),
            writhe_value=int(fields[3]),
        )
        _emit_json(report.to_json())
        return 0
    sigma = _load_word(args.source, args.window_from, args.window_to)
    if args.gamma:
        gamma = parse_word(args.gamma)
    else:
        gamma = BraidWord(sigma.n_strands + 1)
    braid = free_reduce(interference_braid(sigma, gamma))
    report = outcome_probability(ClosedBraid(braid, "plat"))
    doc = {"interference_word": format_word(braid)}
    doc.update(report.to_json())
    _emit_json(doc)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    word = parse_word(args.word)
    text = render_ascii(word) if args.format == "ascii" else render_svg(word)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stockbraid",
        description="Braid words from price crossings and knot invariants of their closures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_window(p: argparse.ArgumentParser) -> None:
        p.add_argument("--from", dest="window_from", metavar="DATE",
                       help="window start, inclusive (ISO or M/D/YYYY)")
        p.add_argument("--to", dest="window_to", metavar="DATE",
                       help="window end, inclusive")

    p_braid = sub.add_parser("braid", help="braid word of a price CSV")
    p_braid.add_argument("csv", help="price CSV path")
    add_window(p_braid)
    p_braid.add_argument("--audit", metavar="PATH", help="write the crossing audit log here")
    p_braid.set_defaults(func=_cmd_braid)

    p_inv = sub.add_parser("invariant", help="diagram stats and polynomials of a closure")
    p_inv.add_argument("source", help="braid word ('n: g1 g2 ...') or price CSV path")
    add_window(p_inv)
    p_inv.add_argument("--closure", choices=("plat", "trace"), default="plat")
    p_inv.add_argument("--bracket", action="store_true", help="include the bracket polynomial")
    p_inv.add_argument("--jones", action="store_true", help="include the Jones polynomial")
    p_inv.add_argument("--convention", choices=("paper", "standard"),
                       help="Jones variable convention (default: both)")
    p_inv.add_argument("--eval", dest="eval_point", metavar="COMPLEX",
                       help="also evaluate numerically at this point A")
    p_inv.set_defaults(func=_cmd_invariant)

    p_prob = sub.add_parser("prob", help="outcome probability of the interference closure")
    p_prob.add_argument("source", nargs="?",
                        help="system braid word or price CSV path (omit with --stats)")
    add_window(p_prob)
    p_prob.add_argument("--gamma", metavar="WORD",
                        help="test-strand word on n+1 strands (default: empty)")
    p_prob.add_argument("--stats", metavar="V,C,M,WR",
                        help="probe the formula on raw values instead of a braid")
    p_prob.set_defaults(func=_cmd_prob)

    p_render = sub.add_parser("render", help="draw a braid word")
    p_render.add_argument("word", help="braid word text 'n: g1 g2 ...'")
    p_render.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p_render.set_defaults(func=_cmd_render)
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # Built once per process and reused; parse_args keeps no state between calls.
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    args = parser.parse_args(argv)
    if args.command == "prob" and not args.stats and not args.source:
        parser.error("prob needs a braid word, a CSV path, or --stats")
    try:
        return args.func(args)
    except CrossingCapExceeded as exc:
        _report(str(exc))
        return 2
    except OverflowError as exc:
        # Float arithmetic at an extreme evaluation point or statistic.
        _report(f"numeric overflow: {exc}")
        return 1
    except (ValueError, OSError) as exc:
        _report(str(exc))
        return 1


def _report(message: str) -> None:
    # One line on stderr even when the message quotes a ticker with a line break.
    print("error: " + message.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
