"""The names the benchmark harness traces and calls exist in symsu.

bench/spans.py looks each traced function up with a bare getattr, and
bench/workloads.py calls symsu through attribute chains resolved at run
time, so a rename or deletion in symsu would break bench runs while the
rest of the test suite passes.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import symsu

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS, WORKLOADS = BENCH / "spans.py", BENCH / "workloads.py"


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


def _dotted(node) -> list | None:
    """['symsu', 'basis', 'symmetrize'] for the chain symsu.basis.symmetrize, else None."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else head + [node.attr]
    return None


def _workload_chains(tree) -> tuple[dict, set]:
    """The aliases bound to symsu chains (``sym, ops, ser = symsu.symmetry, ...``)
    and every attribute chain rooted at symsu or at an alias, spelled out from symsu."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            both = isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
            pairs = zip(target.elts, value.elts) if both else [(target, value)]
            for name, chain in pairs:
                path = _dotted(chain)
                if isinstance(name, ast.Name) and path and path[0] == "symsu" and len(path) > 1:
                    aliases[name.id] = path
    chains = set()
    for node in ast.walk(tree):
        path = _dotted(node) if isinstance(node, ast.Attribute) else None
        if path and (path[0] == "symsu" or path[0] in aliases):
            chains.add(".".join(aliases.get(path[0], [path[0]]) + path[1:]))
    return aliases, chains


def _resolves(chain: str) -> bool:
    """True when each link of the chain is an attribute of the last, or a submodule to import."""
    parts, obj = chain.split("."), symsu
    for k in range(1, len(parts)):
        if hasattr(obj, parts[k]):
            obj = getattr(obj, parts[k])
            continue
        try:
            obj = importlib.import_module(".".join(parts[:k + 1]))
        except ImportError:
            return False
    return True


def test_every_workload_name_resolves():
    if not WORKLOADS.is_file():
        pytest.skip("bench/workloads.py is not in this checkout")
    aliases, chains = _workload_chains(ast.parse(WORKLOADS.read_text(encoding="utf-8")))
    assert aliases and chains, "no symsu names found in bench/workloads.py"
    missing = sorted(chain for chain in chains if not _resolves(chain))
    assert not missing, f"bench/workloads.py calls names symsu lacks: {missing}"
