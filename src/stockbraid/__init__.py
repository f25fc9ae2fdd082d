"""stockbraid: braid words from stock price crossings, knot invariants of
their closures, and the anyonic outcome probability of the plat-closed
interference braid."""

from .braid import (
    BraidWord,
    Generator,
    WordFormatError,
    compose,
    format_word,
    free_reduce,
    inverse,
    parse_word,
    permutation,
    writhe,
)
from .bracket import (
    CrossingCapExceeded,
    bracket_eval,
    bracket_poly,
    bracket_poly_state_sum,
    jones_eval,
    jones_from_bracket,
    kauffman_invariant,
    verify_jones_skein,
)
from .closure import (
    ClosedBraid,
    ClosureError,
    DiagramStats,
    component_count,
    diagram_stats,
)
from .laurent import LaurentPoly, poly_from_json, poly_to_json
from .outcome import (
    FIBONACCI_POINT,
    GOLDEN_RATIO,
    OutcomeReport,
    interference_braid,
    outcome_from_stats,
    outcome_probability,
    plat_amplitude,
)

# Ingest, crossing and render names load their module on first use, so a
# braid-word invariant or readout never imports csv, decimal or datetime.
_LAZY = {
    "CrossingEvent": "crossings",
    "CrossingSign": "crossings",
    "audit_log": "crossings",
    "build_braid": "crossings",
    "classify_crossing": "crossings",
    "detect_crossings": "crossings",
    "rank_order": "crossings",
    "CsvFormatError": "market",
    "PriceSeries": "market",
    "WindowError": "market",
    "format_csv": "market",
    "parse_csv": "market",
    "select_window": "market",
    "window_bounds": "market",
    "render_ascii": "render",
    "render_svg": "render",
}

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "ClosedBraid",
    "ClosureError",
    "CrossingCapExceeded",
    "CrossingEvent",
    "CrossingSign",
    "CsvFormatError",
    "DiagramStats",
    "FIBONACCI_POINT",
    "GOLDEN_RATIO",
    "Generator",
    "LaurentPoly",
    "OutcomeReport",
    "PriceSeries",
    "WindowError",
    "WordFormatError",
    "audit_log",
    "bracket_eval",
    "bracket_poly",
    "bracket_poly_state_sum",
    "build_braid",
    "classify_crossing",
    "component_count",
    "compose",
    "detect_crossings",
    "diagram_stats",
    "format_csv",
    "format_word",
    "free_reduce",
    "interference_braid",
    "inverse",
    "jones_eval",
    "jones_from_bracket",
    "kauffman_invariant",
    "outcome_from_stats",
    "outcome_probability",
    "parse_csv",
    "parse_word",
    "permutation",
    "plat_amplitude",
    "poly_from_json",
    "poly_to_json",
    "rank_order",
    "render_ascii",
    "render_svg",
    "select_window",
    "verify_jones_skein",
    "window_bounds",
    "writhe",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
