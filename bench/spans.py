"""Spans around the package's public functions, recorded from outside.

`Tracer.install` rebinds each traced function wherever a `stockbraid`
module binds it, so calls between the package's own modules are caught
too (`jones_from_bracket` -> `kauffman_invariant` -> `bracket_poly`).
`uninstall` puts the originals back.  Spans stay in memory until
`write_jsonl` at the end of the run.

`LaurentPoly` arithmetic runs hundreds of thousands of times per run, so
it is counted rather than spanned: each call adds its count and time to
the enclosing span, and that time is charged as child time like a span.

A wrapper's own cost (its frame, clock reads and bookkeeping) falls
outside the time it books as child time, so it lands in the self time
of the enclosing span.  `wrapper_costs` times both wrappers around a
no-op, and `self_seconds` takes that cost off once per child span and
per counted call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

# Layer (package module) -> public functions that get a span.
SPANNED = {
    "market": ("parse_csv", "select_window"),
    "crossings": ("detect_crossings", "build_braid", "audit_log"),
    "braid": ("parse_word", "format_word", "free_reduce"),
    "closure": ("diagram_stats", "component_count"),
    "laurent": ("poly_to_json",),
    "bracket": ("bracket_poly", "bracket_eval", "kauffman_invariant", "jones_from_bracket"),
    "outcome": ("interference_braid", "outcome_probability"),
}
# Counter name -> LaurentPoly methods it counts.
COUNTED = {"laurent.mul": ("__mul__", "__rmul__"), "laurent.add": ("__add__",)}


def _observe_parse_csv(args, series) -> dict:
    return {"cells": len(series.dates) * len(series.tickers)}


def _observe_detect_crossings(args, events) -> dict:
    return {
        "events": len(events),
        "intervals": len(args[0].dates) - 1,
        "changed_intervals": len({e.from_date for e in events}),
    }


def _observe_free_reduce(args, word) -> dict:
    return {"length_in": len(args[0]), "length_out": len(word)}


def _observe_bracket_poly(args, poly) -> dict:
    return {"terms": len(poly.terms)}


OBSERVERS: dict[str, Callable] = {
    "market.parse_csv": _observe_parse_csv,
    "crossings.detect_crossings": _observe_detect_crossings,
    "braid.free_reduce": _observe_free_reduce,
    "bracket.bracket_poly": _observe_bracket_poly,
}


class Tracer:
    """Collects spans as lists [name, start, end, parent, item, child_s, counts].

    parent is the index of the enclosing span or None; child_s is the
    time covered by child spans and counted calls; counts holds the
    observer's sizes and the counted calls made directly inside the span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.origin = perf_counter()

    def next_item(self) -> None:
        """Spans from here on belong to the next item; items count from 0."""
        self.item += 1

    def span(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent, self.item, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[1], record[2] = start, end
                if parent is not None:
                    spans[parent][5] += end - start
            if observe is not None:
                sizes = observe(args, result)
                if record[6] is None:
                    record[6] = sizes
                else:
                    record[6].update(sizes)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        calls_key, time_key = name + ".calls", name + ".s"

        @functools.wraps(fn)
        def counter(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            if stack:
                record = spans[stack[-1]]
                record[5] += elapsed
                counts = record[6]
                if counts is None:
                    counts = record[6] = {}
                counts[calls_key] = counts.get(calls_key, 0) + 1
                counts[time_key] = counts.get(time_key, 0.0) + elapsed
            return result

        return counter

    def _rebind(self, original: object, wrapper: object) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "stockbraid" or name.startswith("stockbraid.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for layer, names in SPANNED.items():
            module = importlib.import_module(f"stockbraid.{layer}")
            for fname in names:
                span_name = f"{layer}.{fname}"
                original = getattr(module, fname)
                self._rebind(original, self.span(span_name, original, OBSERVERS.get(span_name)))
        laurent = importlib.import_module("stockbraid.laurent").LaurentPoly
        for counter_name, methods in COUNTED.items():
            for method in methods:
                original = vars(laurent)[method]
                self._patches.append((laurent, method, original))
                setattr(laurent, method, self.counted(counter_name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, item, _, counts) in enumerate(self.spans):
                doc = {"id": i, "name": name, "start": start - self.origin,
                       "end": end - self.origin, "parent": parent, "item": item}
                if counts:
                    doc["counts"] = counts
                fh.write(json.dumps(doc) + "\n")


def wrapper_costs(calls: int = 2000) -> tuple[float, float]:
    """Seconds per call that a span wrapper and a counted wrapper add to
    the self time of the span enclosing them: the time of a wrapped no-op
    call, less the loop around it and the time the wrapper books as child
    time.  Measured on a tracer of its own, so no span of the run changes."""

    def noop(*args):
        return None

    def cost(wrap: Callable) -> float:
        probe = Tracer()
        probe.spans.append(["probe", 0.0, 0.0, None, 0, 0.0, None])
        probe._stack.append(0)
        wrapped = wrap(probe)
        rounds = range(calls)
        start = perf_counter()
        for _ in rounds:
            wrapped(None, None)
        loop_with_calls = perf_counter() - start
        start = perf_counter()
        for _ in rounds:
            pass
        empty_loop = perf_counter() - start
        return (loop_with_calls - empty_loop - probe.spans[0][5]) / calls

    return (cost(lambda probe: probe.span("probe.span", noop)),
            cost(lambda probe: probe.counted("probe.counted", noop)))


def self_seconds(record: list, children: int = 0, costs: tuple[float, float] = (0.0, 0.0)) -> float:
    """Span time less child time, and less the wrapper costs of its
    `children` child spans and of its counted calls."""
    counted = sum(v for k, v in (record[6] or {}).items() if k.endswith(".calls"))
    return record[2] - record[1] - record[5] - children * costs[0] - counted * costs[1]
