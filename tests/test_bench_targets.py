"""The names the benchmark harness traces exist in symsu.

bench/spans.py looks each traced function up with a bare getattr, so a
rename or deletion in symsu would break traced bench runs while the rest
of the test suite passes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.is_file():
        pytest.skip("bench/spans.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    names = [(home, attr) for home, attr, _ in spans.TARGETS] + [tuple(spans.UNITARY.split("."))]
    missing = [f"symsu.{home}.{attr}" for home, attr in names
               if not hasattr(importlib.import_module("symsu." + home), attr)]
    assert not missing, f"bench/spans.py traces names symsu lacks: {missing}"
    assert {home for home, _ in names} <= set(spans.MODULES)
