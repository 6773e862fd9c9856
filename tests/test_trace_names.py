"""The benchmark's tracer wraps package names given as strings; they must exist.

``bench/tracing.py`` finds the modules and methods it wraps by name, so a
rename of a traced hot path would leave its per-layer metrics reading 0.
These tests fail at once instead, without running the benchmark.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module", tracing.MODULES)
def test_traced_module_imports(module):
    importlib.import_module(f"bdivkit.{module}")


@pytest.mark.parametrize("module, cls, method, span", tracing.METHODS,
                         ids=[span for *_, span in tracing.METHODS])
def test_traced_method_resolves(module, cls, method, span):
    owner = getattr(importlib.import_module(f"bdivkit.{module}"), cls)
    assert callable(getattr(owner, method))


_MODULES = {m: importlib.import_module(f"bdivkit.{m}") for m in tracing.MODULES}


@pytest.mark.parametrize("name", sorted(tracing._observers(_MODULES)))
def test_observed_name_resolves_to_a_wrapped_callable(name):
    """An observer reads the result of a wrapped call, so its name must be a
    span the tracer makes: a traced method, or a public function of a traced
    module that the module itself defines (``Tracer.install``)."""
    if name in {span for *_, span in tracing.METHODS}:
        return
    module, attr = name.split(".")
    assert not attr.startswith("_")
    func = getattr(_MODULES[module], attr)
    assert isinstance(func, types.FunctionType)
    assert func.__module__ == f"bdivkit.{module}" and func.__name__ == attr
