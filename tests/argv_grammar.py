"""Differential check of the CLI's plain argv reader against argparse.

For every argv drawn from a token grammar, ``cli._read_plain`` must
return None or exactly ``vars()`` of ``build_parser().parse_args(argv)``,
and never a namespace where argparse exits.  Argvs of the plain form must
be read; ``=`` values come only from the edited and token draws.  The
draws come from a seeded ``random.Random``, so every run checks the same
argvs, and the check needs neither pytest nor Hypothesis:

    PYTHONPATH=src python tests/argv_grammar.py

prints the counts and exits 0 when every argv agrees.
"""

import contextlib
import io
import random
import sys

from stockbraid import cli

FLAG = object()
VALUES = ["2: 1", "4: 1 -2 3", "3:", "x", "a b", "", " ", "1=2", "=", "plat", "PLAT",
          "2013-05-16", "5/16/2013", "1,1,1,0", "0.5+1j", "tests/data/dow4_2013.csv"]
DASH_VALUES = ["-1", "-0.5", "-0.5+1j", "-2+3j,1,1,0", "-1 2", "-", "--", "-x"]
# Each subcommand's options: FLAG, a tuple of choices, or None for a free value.
WINDOW = {"--from": None, "--to": None}
OPTIONS = {
    "braid": {**WINDOW, "--audit": None},
    "invariant": {**WINDOW, "--closure": ("plat", "trace"), "--bracket": FLAG, "--jones": FLAG,
                  "--convention": ("paper", "standard"), "--eval": None},
    "prob": {**WINDOW, "--gamma": None, "--stats": None},
    "render": {"--format": ("ascii", "svg")},
}
ODD_COMMANDS = ["bogus", "inv", "Prob", "", "-h", "--help", "--version", "--", "-"]
ABBREVIATED = ["--fro", "--t", "--aud", "--clo", "--br", "--jo", "--conv", "--ev", "--gam",
               "--sta", "--form", "--f", "--b", "--vers", "--he"]
ODD_OPTIONS = ["-h", "--help", "--version", "--", "-", "---", "-x", "--pretty", "--point"]
FULL = sorted({name for options in OPTIONS.values() for name in options})


def plain_argv(rng: random.Random) -> list[str]:
    """An argv of the plain form: a subcommand, its positional, then some
    of its options in any order, a name given twice now and then, each
    flag bare and each other option as ``--name value``."""
    command = rng.choice(sorted(OPTIONS))
    argv = [command, rng.choice(VALUES)]
    options = OPTIONS[command]
    for _ in range(rng.randint(0, len(options))):
        name = rng.choice(sorted(options))
        kind = options[name]
        argv.append(name)
        if kind is not FLAG:
            argv.append(rng.choice(VALUES if kind is None else kind))
    return argv


def token(rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(FULL)
    if kind == 1:
        return rng.choice(ABBREVIATED + ODD_OPTIONS)
    if kind == 2:
        return rng.choice(FULL + ABBREVIATED + ["--bogus", "-h"]) + "=" + rng.choice(
            VALUES + DASH_VALUES + ["", "ascii", "svg", "png", "trace", "paper"])
    if kind == 3:
        return rng.choice(DASH_VALUES)
    if kind == 4:
        return rng.choice(sorted(OPTIONS))
    return rng.choice(VALUES + ["ascii", "svg", "png", "trace", "paper", "standard"])


def mutated_argv(rng: random.Random) -> list[str]:
    """A plain argv with one to three edits: a token inserted, repeated,
    dropped or moved, an option given an = value in place of its own
    token, or the subcommand replaced."""
    argv = plain_argv(rng)
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(6)
        at = rng.randrange(len(argv) + 1)
        options = [i for i, arg in enumerate(argv) if i and arg.startswith("--")]
        if edit == 5 and options:
            i = rng.choice(options)
            name, eq, _ = argv[i].partition("=")
            # An option of this subcommand that takes a value drops the token after it.
            if not eq and OPTIONS.get(argv[0], {}).get(name, FLAG) is not FLAG and i + 1 < len(argv):
                del argv[i + 1]
            argv[i] = name + "=" + rng.choice(VALUES + DASH_VALUES)
        elif edit == 0:
            argv.insert(at, token(rng))
        elif edit == 1 and len(argv) > 1:
            argv.insert(at, rng.choice(argv[1:]))
        elif edit == 2 and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        elif edit == 3 and len(argv) > 2:
            argv.insert(rng.randrange(1, len(argv)), argv.pop(rng.randrange(1, len(argv))))
        else:
            argv[0] = rng.choice(ODD_COMMANDS + sorted(OPTIONS))
    return argv


def token_argv(rng: random.Random) -> list[str]:
    head = [rng.choice(sorted(OPTIONS) + ODD_COMMANDS)] if rng.random() < 0.9 else []
    return head + [token(rng) for _ in range(rng.randint(0, 6))]


def argparse_namespace(parser, argv):
    """vars() of parse_args(argv), or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def check(seed: int = 0, count: int = 3000) -> dict[str, int]:
    """Compare the reader with argparse on `count` argvs of each kind;
    return how many of each kind the reader read.  Raises AssertionError
    on the first argv where they disagree."""
    rng = random.Random(seed)
    parser = cli.build_parser()
    read = {"plain": 0, "mutated": 0, "tokens": 0}
    for _ in range(count):
        for kind, draw in (("plain", plain_argv), ("mutated", mutated_argv), ("tokens", token_argv)):
            argv = draw(rng)
            got = cli._read_plain(argv)
            expected = argparse_namespace(parser, argv)
            if got is None:
                assert kind != "plain", f"plain argv not read: {argv!r}"
                continue
            assert expected is not None, f"read an argv argparse refuses: {argv!r}"
            assert vars(got) == expected, f"{argv!r}: {vars(got)} != {expected}"
            read[kind] += 1
    return read


if __name__ == "__main__":
    counts = check()
    print(f"Python {sys.version.split()[0]}: reader agrees with argparse; read {counts}")
