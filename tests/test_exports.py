"""Every name a module lists in ``__all__`` resolves: deleting a function
without its ``__all__`` entry breaks ``from tsousim.<module> import *``.
No public function or method has a scalar ``size=None`` form."""

import importlib
import inspect
import pkgutil

import pytest

import tsousim

MODULES = [importlib.import_module(f"tsousim.{m.name}") for m in pkgutil.iter_modules(tsousim.__path__)]


@pytest.mark.parametrize(
    "module,name", [(m.__name__, name) for m in MODULES for name in getattr(m, "__all__", ())]
)
def test_every_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def _public_functions():
    for m in MODULES:
        for name in getattr(m, "__all__", ()):
            obj = getattr(m, name)
            if inspect.isfunction(obj):
                yield f"{m.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        yield f"{m.__name__}.{name}.{attr}", member


def test_no_public_size_defaults_to_none():
    sized = {
        name: inspect.signature(fn).parameters["size"].default
        for name, fn in _public_functions()
        if "size" in inspect.signature(fn).parameters
    }
    assert len(sized) >= 13  # the 12 public samplers and StepLaw.sample
    assert [name for name, default in sized.items() if default is None] == []


# the modules whose ``__all__`` the package republishes, in import order
PACKAGE_MODULES = ("rand_core", "cts_ou", "ou_cts", "harness")


def test_package_publishes_exactly_its_modules_all():
    lists = [importlib.import_module(f"tsousim.{m}").__all__ for m in PACKAGE_MODULES]
    published = set().union(*lists)
    assert len(published) == sum(map(len, lists))  # no name shadows another
    public = {
        name for name, value in vars(tsousim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == published
    assert public.isdisjoint(importlib.import_module("tsousim.levy_core").__all__)
