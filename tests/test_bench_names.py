"""Every name the benchmark harness under ``bench/`` reads from the package still resolves.

A name trimmed from a module here would otherwise fail only in the traced
benchmark run and in the benchmark's set-up probe.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _imported_names():
    """(module, name) for each ``from modeconv... import name`` in a bench script."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("modeconv"):
                for alias in node.names:
                    yield node.module, alias.name


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _load_tracing().WRAP_POINTS])
def test_each_traced_function_exists(module, attr):
    assert hasattr(importlib.import_module(f"modeconv.{module}"), attr)


@pytest.mark.parametrize(
    "module, attr",
    [
        # the set-up probe builds one network through the cli module
        ("modeconv.cli", "ResonantParams"),
        ("modeconv.cli", "resonant_network"),
        ("modeconv.analysis", "DEFAULT_SCAN_POINTS"),
        ("modeconv.analysis", "default_omega_window"),
        *_imported_names(),
    ],
)
def test_each_name_the_bench_reads_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
