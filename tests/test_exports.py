"""Every name a module lists in ``__all__`` resolves: deleting a function
without its ``__all__`` entry breaks ``from tsousim.<module> import *``."""

import importlib
import pkgutil

import pytest

import tsousim

MODULES = [importlib.import_module(f"tsousim.{m.name}") for m in pkgutil.iter_modules(tsousim.__path__)]


@pytest.mark.parametrize(
    "module,name", [(m.__name__, name) for m in MODULES for name in getattr(m, "__all__", ())]
)
def test_every_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
