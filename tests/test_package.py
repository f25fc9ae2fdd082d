"""The package namespace: every exported name is its defining module's
object, and the ingest, crossing and render names load on first use."""

import sys

import pytest
from test_values import LAZY_MODULES, new_modules

import stockbraid

# Module-level constants carry no __module__ of their own.
CONSTANTS = {"FIBONACCI_POINT": "stockbraid.outcome", "GOLDEN_RATIO": "stockbraid.outcome"}


@pytest.mark.parametrize("name", stockbraid.__all__)
def test_every_export_is_its_defining_module_object(name):
    value = getattr(stockbraid, name)
    home = CONSTANTS.get(name) or value.__module__
    assert vars(sys.modules[home])[name] is value
    if name in stockbraid._LAZY:
        assert home == f"stockbraid.{stockbraid._LAZY[name]}"


def test_every_export_is_listed_by_dir_before_it_loads():
    out = new_modules("import stockbraid\nassert set(stockbraid.__all__) <= set(dir(stockbraid))")
    assert not out & LAZY_MODULES


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from stockbraid import *", namespace)
    assert {name: namespace[name] for name in stockbraid.__all__} == {
        name: getattr(stockbraid, name) for name in stockbraid.__all__
    }


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'stockbraid' has no attribute 'parse_cvs'$"):
        stockbraid.parse_cvs
    assert not hasattr(stockbraid, "braid_with_events")


def test_lazy_exports_load_their_module_on_first_use():
    assert not new_modules("import stockbraid") & LAZY_MODULES
    out = new_modules(
        "import stockbraid\n"
        "found = stockbraid.parse_csv\n"
        "assert found is sys.modules['stockbraid.market'].parse_csv\n"
        "assert vars(stockbraid)['parse_csv'] is found"
    )
    assert "stockbraid.market" in out
    assert not out & {"stockbraid.crossings", "stockbraid.render"}
