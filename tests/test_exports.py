"""Every name a module lists in ``__all__`` exists, so star imports work."""

import importlib
import pkgutil

import pytest

import qdsfm

MODULES = ["qdsfm"] + [f"qdsfm.{info.name}" for info in pkgutil.iter_modules(qdsfm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
