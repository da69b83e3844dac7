"""The benchmark's span recorder wraps library functions by name.

`bench/spans.py` looks every name in its tables up with getattr, so a
renamed or deleted function breaks every traced benchmark run.  These
tests load that file by path (it uses only the stdlib) and check that each
name still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in spans.TRACED_FUNCTIONS.items()
    for name in names], ids=lambda v: v)
def test_traced_function_resolves(layer, name):
    module = importlib.import_module(f"ammflow.{layer}")
    assert callable(getattr(module, name, None))


@pytest.mark.parametrize("method", spans.QUAD_METHODS)
def test_traced_quad_method_resolves(method):
    from ammflow.numeric import QuadExact
    assert callable(QuadExact.__dict__.get(method))
