"""The benchmark reaches into the library by name.

`bench/spans.py` looks every name in its tables up with getattr, so a
renamed or deleted function breaks every traced benchmark run.  These
tests load that file by path (it uses only the stdlib) and check that each
name still resolves.  `bench/test_checks.py` rebuilds library records with
`dataclasses.replace`, so those records must stay dataclasses, and no
other record of the library is one.
"""

import dataclasses
import importlib
import importlib.util
import pkgutil
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


REPLACED_RECORDS = [
    ("engine", "TransferEvent", {"amount"}),
    ("amm", "PoolState", {"reserve0", "reserve1"}),
    ("planner", "RelocationPlan", {"predicted_a_prime"}),
    ("graph", "AttributionResult", {"p_to_b_min", "p_to_b_max"}),
    ("semantic", "Migration", {"amount"})]


@pytest.mark.parametrize("layer, name, fields", REPLACED_RECORDS,
                         ids=[name for _, name, _ in REPLACED_RECORDS])
def test_replaced_record_is_a_dataclass(layer, name, fields):
    record = getattr(importlib.import_module(f"ammflow.{layer}"), name)
    assert dataclasses.is_dataclass(record)
    assert fields <= {f.name for f in dataclasses.fields(record)}


def test_no_other_record_is_a_dataclass():
    import ammflow
    found = set()
    for info in pkgutil.iter_modules(ammflow.__path__):
        module = importlib.import_module(f"ammflow.{info.name}")
        found |= {(info.name, name) for name, value in vars(module).items()
                  if isinstance(value, type)
                  and value.__module__ == module.__name__
                  and dataclasses.is_dataclass(value)}
    assert found == {(layer, name) for layer, name, _ in REPLACED_RECORDS}
