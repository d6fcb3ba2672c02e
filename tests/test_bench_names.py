"""Every name the benchmark harness under ``bench/`` reads from the package still resolves.

A name trimmed from a module here would otherwise fail only in the traced
benchmark run and in the benchmark's set-up probe.  Checked are the names the
tracer wraps, each ``from modeconv... import name`` and each attribute chain
read through an ``import modeconv`` binding (``mc.analysis.max_bandwidth``).
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


def _modeconv_reads():
    """The modules bench scripts ``import modeconv...``, and the attribute chains read through them.

    A chain is (bound module, dotted name): ``import modeconv as mc`` binds
    ``mc`` to ``modeconv``, so ``mc.analysis.max_bandwidth`` gives
    ``("modeconv", "analysis.max_bandwidth")``.  Only the longest chain is kept.
    """
    imports, chains = set(), set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        roots = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "modeconv":
                        imports.add(alias.name)
                        roots[alias.asname or "modeconv"] = alias.name if alias.asname else "modeconv"
        inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or id(node) in inner:
                continue
            names = []
            while isinstance(node, ast.Attribute):
                names.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in roots:
                chains.add((roots[node.id], ".".join(reversed(names))))
    return sorted(imports), sorted(chains)


BENCH_IMPORTS, BENCH_CHAINS = _modeconv_reads()


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
        # the optimize_families oracle and set-up probe build members with it
        ("modeconv", "ConverterFamily.build"),
        *BENCH_CHAINS,
    ],
)
def test_each_name_the_bench_reads_resolves(module, attr):
    for name in BENCH_IMPORTS:  # as the bench scripts do before reading a chain
        importlib.import_module(name)
    value = importlib.import_module(module)
    for part in attr.split("."):
        value = getattr(value, part)
