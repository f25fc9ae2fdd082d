"""Command-line front end for the price-to-braid-to-invariant pipeline.

Subcommands:

* ``braid CSV``: detect crossings and print the braid word; optionally
  write the crossing audit log as JSON first, so the word is printed
  only once the log is complete.
* ``invariant WORD|CSV``: diagram statistics plus the bracket and Jones
  polynomials of the chosen closure, JSON on stdout.
* ``prob WORD|CSV``: build the interference braid against a test-strand
  word, plat-close it, and evaluate the outcome probability at A =
  e^(i pi/10) only; or probe the bare formula with ``--stats``.
* ``render WORD``: ASCII or SVG diagram of a braid word.

``invariant`` and ``prob`` print one strict-JSON document: the bytes of
``json.dumps(doc, indent=2)``, ASCII with ``\\uXXXX`` escapes, and a final
newline.  Exit codes: 0 success, 1 input error, 2 exact-path crossing cap
exceeded or usage error.  Identical invocations produce byte-identical
output; nothing here depends on clocks, locales, or iteration order of
unordered sets.

The ingest, crossing and render modules are imported inside the commands
that read a CSV or draw a word, so a braid-word ``invariant`` or ``prob``
starts without loading them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

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
from .laurent import poly_to_json
from .outcome import _complex_json, interference_braid, outcome_from_stats, outcome_probability

_WORD_RE = re.compile(r"^\s*\d+\s*:")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


def _load_series(path: str, start: str | None, end: str | None):
    from .market import WindowError, parse_csv, parse_price_date, window_bounds

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if start is None and end is None:
        return parse_csv(text)

    def window(dates):
        # Called only once the whole document has validated, so a CSV error
        # is reported before anything about the window.
        if not dates:
            raise WindowError(f"{path} has no dates to window")
        lo = dates[0] if start is None else parse_price_date(start)
        hi = dates[-1] if end is None else parse_price_date(end)
        return window_bounds(dates, lo, hi)

    return parse_csv(text, window=window)


def _load_word(source: str, start: str | None, end: str | None) -> BraidWord:
    if _WORD_RE.match(source):
        return parse_word(source)
    from .crossings import build_braid

    return build_braid(_load_series(source, start, end))


# Other scalars (bools, infinities, NaN) go through json's own indent-2
# encoder, so their text and the non-finite refusal are json's.
_scalar_json = json.JSONEncoder(indent=2, allow_nan=False).encode


def _json_text(value, newline: str = "\n") -> str:
    """The text json.dumps(value, indent=2, allow_nan=False) writes for a
    value nested where `newline` (a newline plus its indent) starts a line.

    Containers must be dicts with str keys and lists.  Strings are quoted
    by json's ASCII escaper, ints and finite floats are their repr, and a
    list of [int, int] rows, such as a polynomial's terms, fills one
    template per row.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int or (kind is float and isfinite(value)):
        # json writes both with their type's repr.
        return repr(value)
    if value is None:
        return "null"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [_quote(key) + ": " + _json_text(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        if all(type(row) is list and len(row) == 2 and type(row[0]) is int
               and type(row[1]) is int for row in value):
            pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
            items = [pair % (e, c) for e, c in value]
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return _scalar_json(value)


def _emit_json(doc: dict) -> None:
    # Written out before printing, so a non-finite value is an error with nothing on stdout.
    print(_json_text(doc))


def _cmd_braid(args: argparse.Namespace) -> int:
    from .crossings import braid_with_events, write_audit

    series = _load_series(args.csv, args.window_from, args.window_to)
    word, events = braid_with_events(series)
    if args.audit:
        if os.path.exists(args.audit) and os.path.samefile(args.csv, args.audit):
            raise ValueError(f"audit path {args.audit} is the input CSV")
        # Written before the word, so an unwritable path leaves stdout empty.
        with open(args.audit, "w", encoding="utf-8") as fh:
            write_audit(fh, events, word)
    print(format_word(word))
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
        doc["eval"] = {"point_a": _complex_json(a), "bracket_value": _complex_json(value)}
        if args.jones:
            v = _writhe_corrected_value(value, a, writhe(word))
            doc["eval"]["jones_value_at_a4"] = _complex_json(v)
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
    from .render import render_ascii, render_svg

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
                       help="also evaluate numerically at this point A; "
                            "a value with a leading minus needs the = form, --eval=-0.5+1j")
    p_inv.set_defaults(func=_cmd_invariant)

    p_prob = sub.add_parser("prob", help="outcome probability of the interference closure")
    p_prob.add_argument("source", nargs="?",
                        help="system braid word or price CSV path (omit with --stats)")
    add_window(p_prob)
    p_prob.add_argument("--gamma", metavar="WORD",
                        help="test-strand word on n+1 strands (default: empty)")
    p_prob.add_argument("--stats", metavar="V,C,M,WR",
                        help="probe the formula on raw values instead of a braid; "
                             "a value with a leading minus needs the = form, --stats=-2+3j,1,1,0")
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
    if args.command == "prob" and args.stats and (args.source or args.gamma or args.window_from is not None
                                                  or args.window_to is not None):
        parser.error("prob --stats takes no braid word, CSV path, --gamma or --from/--to")
    if (args.command in ("invariant", "prob") and args.source and _WORD_RE.match(args.source)
            and (args.window_from is not None or args.window_to is not None)):
        parser.error("--from/--to window a price CSV, not a braid word")
    try:
        return args.func(args)
    except CrossingCapExceeded as exc:
        _report(str(exc))
        return 2
    except OverflowError as exc:
        # Float arithmetic at an extreme evaluation point or statistic.
        _report(f"numeric overflow: {exc}")
        return 1
    except MemoryError:
        # A word on hundreds of millions of strands, say.
        _report("out of memory")
        return 1
    except (ValueError, OSError) as exc:
        _report(str(exc))
        return 1


def _report(message: str) -> None:
    # One line on stderr even when the message quotes a ticker with a line break.
    print("error: " + message.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
