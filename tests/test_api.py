import importlib
import inspect
import pkgutil

import pytest

import grushinlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(grushinlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_each_export_is_defined_by_the_module_that_exports_it(name):
    # the package __init__ gathers names on purpose and is not checked; a
    # module's __all__ lists only what it defines, so a name has one home
    # (and the benchmark tracer, which wraps a function under its defining
    # module, sees the same public API)
    mod = importlib.import_module(f"grushinlab.{name}")
    exported = [getattr(mod, attr) for attr in getattr(mod, "__all__", ())]
    strays = [obj.__qualname__ for obj in exported
              if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ != mod.__name__]
    assert strays == []
