"""Every name a `wireqls` module lists in `__all__` resolves on it, so a
deleted public name cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import wireqls

MODULES = [
    importlib.import_module(f"wireqls.{info.name}")
    for info in pkgutil.iter_modules(wireqls.__path__)
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_modules_with_an_export_list_found():
    assert {"wireqls.circuit", "wireqls.config", "wireqls.magnetics"} <= {
        module.__name__ for module in EXPORTING
    }


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__), "a name is listed twice"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
