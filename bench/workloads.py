"""The benchmark's workloads: item pools built from a seed, and the checks
that every item's output must pass.

An item is one CLI invocation.  Its check receives the captured stdout
and returns the problems found plus the sizes that drive the item's cost
as read from the output.  Checks are computed independently of the
package where that is cheap (permutations, writhe, components, the Jones
shift, the outcome formula, the numeric plat bracket by a reference sweep
written here); the exact bracket is cross-checked against the package's
numeric path and, on small words, its state sum.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable

from gen import (
    PriceTable,
    format_date,
    market_word,
    random_walk_table,
    random_word,
    rank_order,
    table_csv,
    word_text,
)
from stockbraid.braid import BraidWord
from stockbraid.bracket import bracket_eval, bracket_poly_state_sum
from stockbraid.closure import ClosedBraid

FIB_A = cmath.exp(1j * math.pi / 10)
PHI = (1 + math.sqrt(5)) / 2

DOW_CSV = Path("tests") / "data" / "dow4_2013.csv"
DOW_WORD = "4: -2 -3 -3 3 1 3 1 2 -2 -3 -1 -2"
DOW_PLAT_BRACKET = [[-4, -1], [4, -1]]

# (tickers, days) of the price files.  Each file gives three items: the
# whole file with --audit, and windows over a half and a quarter of its
# days.  Short files are the many; the long ones carry the quadratic cost
# of the date lookups.
LONG_FILES = (
    (4, 250), (10, 250), (20, 250), (30, 250),
    (6, 500), (16, 500), (24, 500),
    (8, 750), (30, 750),
    (4, 1000), (12, 1000), (20, 1000), (30, 1000),
    (8, 1500), (16, 2000), (10, 3000), (4, 4000),
)
WINDOW_FRACTIONS = (2, 4)
# (strands, crossings) of the invariant words, each word closed both ways.
# Every crossing count is used, so the slowest tenth of the items is many
# words of similar cost.
EXACT_SHAPES = tuple((n, c) for n in (4, 6, 8) for c in range(8, 25))
# (system strands, system crossings after free reduction), PROB_COPIES
# words each; gamma lengths cycle independently of the shape.
PROB_SHAPES = tuple((n, c) for n in (3, 5, 7, 9, 11) for c in (50, 100, 200, 400))
PROB_COPIES = 6
GAMMA_LENGTHS = (2, 5, 10, 20)
# Words with at most this many crossings also have their bracket checked
# against the state sum.
STATE_SUM_MAX = 14

Check = Callable[[str], "tuple[list[str], dict[str, int]]"]


@dataclass
class Item:
    """One CLI invocation with its expected-output check.

    kind groups items for per-layer metrics (audit, window, plat, trace,
    prob); audit is the file the program writes besides stdout, if any.
    """

    argv: list[str]
    kind: str
    sizes: dict[str, int]
    check: Check
    audit: Path | None = None
    id: int = -1


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def refuse(token: str):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def _sign(g: int) -> int:
    return 1 if g > 0 else -1


def _apply_swaps(arrangement: list, gens: list[int]) -> list:
    out = list(arrangement)
    for g in gens:
        i = abs(g) - 1
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def components(n: int, gens: list[int], closure: str) -> int:
    """Link components of the closed braid, by union-find over strand ends."""
    top = [0] * n  # top[strand] = position where the strand leaves
    for pos, strand in enumerate(_apply_swaps(list(range(n)), gens)):
        top[strand] = pos
    parent = list(range(2 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for strand in range(n):
        join(strand, n + top[strand])
    if closure == "plat":
        for i in range(0, n, 2):
            join(i, i + 1)
            join(n + i, n + i + 1)
    else:
        for i in range(n):
            join(i, n + i)
    return len({find(x) for x in range(2 * n)})


def parse_word_text(text: str) -> tuple[int, list[int]]:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"not braid word text: {text!r}")
    return int(head), [int(tok) for tok in tail.split()]


def plat_bracket(n: int, gens: list[int], a: complex) -> tuple[complex, float]:
    """The bracket of the plat closure at A = a, and the size of the terms
    summed for it, which scales its rounding error.

    Written apart from the package's sweeps, with its conventions: a
    positive generator is a times the cup-cap smoothing plus 1/a times the
    vertical one, and a closed loop weighs d = -a^2 - a^-2.  It sweeps the
    diagram turned by 180 degrees, which leaves the plat closure and every
    crossing's handedness as they are: the word read backwards, with
    sigma_i becoming sigma_(n-i).  A state maps each of the n points on
    the sweep line to the point it is joined to below.
    """
    inv = 1 / a
    d = -a * a - inv * inv
    caps = tuple(p ^ 1 for p in range(n))  # (0 1)(2 3)...: plat minima and maxima
    states: dict[tuple[int, ...], complex] = {caps: 1 + 0j}
    for g in reversed(gens):
        i = n - abs(g) - 1
        cup, vertical = (a, inv) if g > 0 else (inv, a)
        nxt: dict[tuple[int, ...], complex] = {}
        for m, c in states.items():
            nxt[m] = nxt.get(m, 0j) + c * vertical
            if m[i] == i + 1:
                nxt[m] = nxt.get(m, 0j) + c * cup * d
                continue
            joined = list(m)
            x, y = m[i], m[i + 1]
            joined[x], joined[y], joined[i], joined[i + 1] = y, x, i + 1, i
            key = tuple(joined)
            nxt[key] = nxt.get(key, 0j) + c * cup
        states = nxt
    total, size = 0j, 0.0
    for m, c in states.items():
        loops, seen = 0, set()
        for p in range(n):
            if p in seen:
                continue
            loops += 1
            while p not in seen:
                seen.update((p, m[p]))
                p = caps[m[p]]
        term = c * d ** (loops - 1)
        total += term
        size += abs(term)
    return total, size


def free_reduce(gens: list[int]) -> list[int]:
    stack: list[int] = []
    for g in gens:
        if stack and stack[-1] == -g:
            stack.pop()
        else:
            stack.append(g)
    return stack


# ---------------------------------------------------------------------------
# long_history: braid FILE --audit OUT, and braid FILE --from D1 --to D2.

def check_braid(out: str, first: list[str], last: list[str], audit: Path | None,
                expect_word: str | None = None) -> tuple[list[str], dict[str, int]]:
    if not out.endswith("\n") or out.count("\n") != 1:
        return ["stdout is not one line of word text"], {}
    try:
        n, gens = parse_word_text(out)
    except ValueError as exc:
        return [f"stdout is not word text: {exc}"], {}
    problems = []
    if n != len(first):
        problems.append(f"{n} strands for {len(first)} tickers")
    elif any(not 1 <= abs(g) < n for g in gens):
        problems.append("generator out of range")
    elif _apply_swaps(first, gens) != last:
        problems.append("braid permutation does not map the first day's rank order onto the last's")
    if expect_word is not None and out.strip() != expect_word:
        problems.append(f"word {out.strip()!r}, expected {expect_word!r}")
    if audit is not None:
        try:
            entries = strict_json(audit.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"audit log unreadable: {exc}")
        else:
            if [e["generator"] for e in entries] != gens:
                problems.append("audit generators differ from the word")
            signs = [1 if e["sign"] == "over" else -1 for e in entries]
            if sum(signs) != sum(map(_sign, gens)):
                problems.append("audit signs do not sum to the writhe")
            if any(s != _sign(e["generator"]) for s, e in zip(signs, entries)):
                problems.append("audit sign disagrees with its generator")
    return problems, {"crossings": len(gens), "strands": n}


def _dow_table(path: Path) -> PriceTable:
    """The Dow sample read with the csv module alone, for its rank orders."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    rows.sort(key=lambda r: datetime.strptime(r[0], "%m/%d/%Y"))
    cents = tuple(tuple(round(float(x) * 100) for x in r[1:]) for r in rows)
    return PriceTable(tuple(header[1:]), tuple(r[0] for r in rows), cents)


def build_long_history(seed: int, workdir: Path, root: Path) -> list[Item]:
    rng = random.Random(f"long_history/{seed}")
    dow = _dow_table(root / DOW_CSV)
    dow_first, dow_last = rank_order(dow, 0), rank_order(dow, len(dow.dates) - 1)
    dow_audit = workdir / "audit-dow.json"
    items = [Item(
        ["braid", str(root / DOW_CSV), "--audit", str(dow_audit)], "audit",
        {"days": len(dow.dates), "tickers": len(dow.tickers),
         "cells": len(dow.dates) * len(dow.tickers)},
        lambda out: check_braid(out, dow_first, dow_last, dow_audit, DOW_WORD),
        audit=dow_audit,
    )]
    for k, (n_tickers, n_days) in enumerate(LONG_FILES):
        table = random_walk_table(rng, n_tickers, n_days)
        us_dates = rng.random() < 0.5
        path = workdir / f"prices-{k:02d}.csv"
        path.write_text(table_csv(table, rng.random() < 0.5, us_dates), encoding="utf-8")
        cells = n_tickers * n_days
        audit = workdir / f"audit-{k:02d}.json"
        first, last = rank_order(table, 0), rank_order(table, n_days - 1)
        items.append(Item(
            ["braid", str(path), "--audit", str(audit)], "audit",
            {"days": n_days, "tickers": n_tickers, "cells": cells},
            lambda out, f=first, l=last, a=audit: check_braid(out, f, l, a),
            audit=audit,
        ))
        for fraction in WINDOW_FRACTIONS:
            span = n_days // fraction
            lo = rng.randrange(0, n_days - span + 1)
            hi = lo + span - 1
            first, last = rank_order(table, lo), rank_order(table, hi)
            window_us = rng.random() < 0.5
            items.append(Item(
                ["braid", str(path),
                 "--from", format_date(table.dates[lo], window_us),
                 "--to", format_date(table.dates[hi], window_us)],
                "window",
                {"days": span, "tickers": n_tickers, "cells": cells},
                lambda out, f=first, l=last: check_braid(out, f, l, None),
            ))
    return items


# ---------------------------------------------------------------------------
# exact_invariants: invariant WORD --closure {plat,trace} --bracket --jones.

def check_invariant(out: str, n: int, gens: list[int], closure: str, oracle: bool,
                    expect_bracket: list | None = None) -> tuple[list[str], dict[str, int]]:
    try:
        doc = strict_json(out)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"], {}
    problems = []
    w = sum(map(_sign, gens))
    if doc.get("word") != word_text(n, gens):
        problems.append("word echo differs from the input")
    stats = {
        "components": components(n, gens, closure),
        "minima": n // 2 if closure == "plat" else None,
        "crossings": len(gens),
        "writhe": w,
    }
    if doc.get("stats") != stats:
        problems.append(f"stats {doc.get('stats')} != {stats}")
    terms = doc["bracket"]["terms"]
    if [e for e, _ in terms] != sorted({e for e, _ in terms}) or any(c == 0 for _, c in terms):
        problems.append("bracket terms not sorted, unique and nonzero")
    k = ClosedBraid(BraidWord.from_ints(n, gens), closure)
    exact_value = sum(c * FIB_A ** e for e, c in terms)
    numeric = bracket_eval(k, FIB_A)
    scale = 1 + sum(abs(c) for _, c in terms)
    if abs(exact_value - numeric) > 1e-9 * scale:
        problems.append(f"bracket at A=e^(i pi/10) is {exact_value}, bracket_eval gives {numeric}")
    if oracle and sorted(bracket_poly_state_sum(k).terms.items()) != [tuple(t) for t in terms]:
            problems.append("bracket_poly differs from bracket_poly_state_sum")
    if expect_bracket is not None and terms != expect_bracket:
        problems.append(f"bracket {terms}, expected {expect_bracket}")
    paper = sorted([e - 3 * w, c * (-1) ** w] for e, c in terms)
    standard = sorted([-e, c] for e, c in paper)
    jones = doc.get("jones", [])
    if [j.get("convention") for j in jones] != ["paper", "standard"]:
        problems.append("jones conventions missing")
    elif jones[0]["terms"] != paper or jones[1]["terms"] != standard:
        problems.append("jones is not (-A)^(-3w) times the bracket")
    return problems, {"strands": n, "crossings": len(gens), "terms": len(terms)}


def _invariant_item(n: int, gens: list[int], closure: str, oracle: bool,
                    expect_bracket: list | None = None) -> Item:
    return Item(
        ["invariant", word_text(n, gens), "--closure", closure, "--bracket", "--jones"],
        closure,
        {"strands": n, "crossings": len(gens)},
        lambda out: check_invariant(out, n, gens, closure, oracle, expect_bracket),
    )


def build_exact_invariants(seed: int, workdir: Path, root: Path) -> list[Item]:
    rng = random.Random(f"exact_invariants/{seed}")
    _, dow_gens = parse_word_text(DOW_WORD)
    items = [
        _invariant_item(4, dow_gens, "plat", True, DOW_PLAT_BRACKET),
        _invariant_item(4, dow_gens, "trace", True),
    ]
    for n, c in EXACT_SHAPES:
        gens = random_word(rng, n, c)
        for closure in ("plat", "trace"):
            items.append(_invariant_item(n, gens, closure, c <= STATE_SUM_MAX))
    return items


# ---------------------------------------------------------------------------
# readout_prob: prob WORD --gamma GAMMA.

def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-9 * (1 + abs(b))


def check_prob(out: str, n: int, sigma: list[int], gamma: list[int]) -> tuple[list[str], dict[str, int]]:
    try:
        doc = strict_json(out)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"], {}
    problems = []
    full = sigma + gamma + [-g for g in reversed(sigma)]
    reduced = free_reduce(full)
    m = n + 1
    if doc.get("interference_word") != word_text(m, reduced):
        problems.append("interference word is not the free-reduced sandwich")
    w = sum(map(_sign, reduced))
    comps = components(m, reduced, "plat")
    if (doc.get("components"), doc.get("minima"), doc.get("writhe")) != (comps, m // 2, w):
        problems.append("components, minima or writhe wrong")
    if doc.get("eval_point") != {"re": FIB_A.real, "im": FIB_A.imag}:
        problems.append("evaluation point is not e^(i pi/10)")
    jones = complex(doc["jones_value"]["re"], doc["jones_value"]["im"])
    bracket, size = plat_bracket(m, reduced, FIB_A)
    if abs(jones - (-FIB_A) ** (-3 * w) * bracket) > 1e-9 * (1 + size):
        problems.append("jones_value is not (-A)^(-3w) times the plat bracket of the reference sweep")
    s = -1 if (comps - 1 + w) % 2 else 1
    amplitude = 1 + s * (-FIB_A) ** (3 * w) * jones / PHI ** (m // 2 - 2)
    value = amplitude / (1 + PHI * PHI)
    got_amp = complex(doc["amplitude"]["re"], doc["amplitude"]["im"])
    if not (_close(got_amp, amplitude) and _close(doc["probability"], value.real)
            and _close(doc["imag_residue"], abs(value.imag))):
        problems.append("amplitude or probability does not follow the outcome formula")
    if doc.get("in_range") != (0.0 <= doc["probability"] <= 1.0):
        problems.append("in_range flag disagrees with the probability")
    return problems, {"strands": m, "crossings": len(full), "reduced_length": len(reduced)}


def build_readout_prob(seed: int, workdir: Path, root: Path) -> list[Item]:
    """System words are the braid words of seeded price walks, as the
    braid subcommand would print them; gammas are random words."""
    rng = random.Random(f"readout_prob/{seed}")
    items = []
    for k in range(PROB_COPIES * len(PROB_SHAPES)):
        n, c = PROB_SHAPES[k % len(PROB_SHAPES)]
        _, sigma = market_word(rng, n, c)
        gamma = random_word(rng, n + 1, GAMMA_LENGTHS[k // len(PROB_SHAPES) % len(GAMMA_LENGTHS)])
        items.append(Item(
            ["prob", word_text(n, sigma), "--gamma", word_text(n + 1, gamma)],
            "prob",
            {"strands": n + 1, "crossings": 2 * len(sigma) + len(gamma)},
            lambda out, n=n, s=sigma, g=gamma: check_prob(out, n, s, g),
        ))
    return items


# Workload name -> pool builder(seed, workdir, repository root).  Why each
# workload was chosen is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[int, Path, Path], "list[Item]"]] = {
    "long_history": build_long_history,
    "exact_invariants": build_exact_invariants,
    "readout_prob": build_readout_prob,
}
