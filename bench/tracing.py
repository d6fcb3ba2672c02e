"""Layer tracing from outside the package: wrappers, spans and per-layer metrics.

The tracer replaces functions on the module attributes where callers look them
up (``modeconv.analysis.transmission_grid`` rather than only
``modeconv.scattering.transmission_grid``, which ``analysis`` never reads after
import).  Each wrapped call becomes a span (name, start, end, parent, operation
id, attributes) kept in memory and written out when the run ends.  A span's
layer is the part of its name before the first dot; its self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass

import numpy as np


def _grid_attrs(args, kwargs, result):
    omegas = args[1] if len(args) > 1 else kwargs["omegas"]
    return {"points": int(np.size(omegas)), "n": args[0].n_modes}


def _batched_attrs(args, kwargs, result):
    m, n, _ = np.shape(args[0])
    k = np.shape(args[1])[-1]
    return {"m": int(m), "n": int(n), "k": int(k), "singular": int(np.count_nonzero(result[1]))}


def _point_attrs(args, kwargs, result):
    n = np.shape(args[0])[0]
    rhs_shape = np.shape(args[1])
    return {"m": 1, "n": int(n), "k": 1 if len(rhs_shape) == 1 else int(rhs_shape[1])}


def _steps_attrs(args, kwargs, result):
    return {"steps": len(result[1].times) - 1}


def _csv_attrs(args, kwargs, result):
    return {"rows": result.count("\n") - 1, "bytes": len(result)}


def _json_attrs(args, kwargs, result):
    return {"rows": 1, "bytes": len(result)}


# (module, attribute, span name, attribute extractor).  Each entry is a place a
# caller looks the function up that some workload reaches; the span name says
# which layer does the work.  No workload builds a two-mode family, so
# ``analysis.two_mode_network`` is not wrapped.
_CONVERTERS = ("resonant_network", "detuned_network", "two_mode_network")
WRAP_POINTS = (
    [
        ("analysis", "transmission_grid", "scattering.transmission_grid", _grid_attrs),
        ("analysis", "eigenvalues_hermitian", "linalg.eigenvalues_hermitian", None),
        ("analysis", "high_efficiency_intervals", "analysis.high_efficiency_intervals", None),
        ("analysis", "max_bandwidth", "analysis.max_bandwidth", None),
        ("analysis", "optimize_kappa", "analysis.optimize_kappa", None),
        ("ensemble", "transmission_grid", "scattering.transmission_grid", _grid_attrs),
        ("ensemble", "new_network", "network.new_network", None),
        ("ensemble", "resonant_network", "converter.resonant_network", None),
        ("ensemble", "microscopic_network", "ensemble.microscopic_network", None),
        ("ensemble", "collective_couplings", "ensemble.collective_couplings", None),
        ("ensemble", "elimination_error", "ensemble.elimination_error", None),
        ("scattering", "solve_batched", "linalg.solve_batched", _batched_attrs),
        ("scattering", "solve_with_condition", "linalg.solve_with_condition", _point_attrs),
        ("converter", "new_network", "network.new_network", None),
        ("cli", "transmission_grid", "scattering.transmission_grid", _grid_attrs),
        ("cli", "high_efficiency_intervals", "analysis.high_efficiency_intervals", None),
        ("cli", "collective_couplings", "ensemble.collective_couplings", None),
        ("cli", "elimination_error", "ensemble.elimination_error", None),
        ("cli", "steady_state_response", "timedomain.steady_state_response", _steps_attrs),
        ("cli", "csv_text", "formatting.csv_text", _csv_attrs),
        ("cli", "json_text", "formatting.json_text", _json_attrs),
    ]
    + [("analysis", name, f"converter.{name}", None) for name in ("resonant_network", "detuned_network")]
    + [("cli", name, f"converter.{name}", None) for name in _CONVERTERS]
)


_MEASURED = {name for _, _, name, attrs in WRAP_POINTS if attrs is not None}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    attrs: dict | None


class Tracer:
    """Installs the wrappers, records spans, and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = attrs(args, kwargs, result) if attrs and result is not None else None
                spans[sid] = Span(name, start, end, parent, self.op, info)

        return traced

    def __enter__(self):
        for module_name, attr, span_name, attrs in WRAP_POINTS:
            module = importlib.import_module(f"modeconv.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, attrs))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def wrap(self, name: str, fn):
        """A traced version of ``fn`` recording spans named ``name``."""
        return self._wrap(name, fn, None)


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w") as handle:
        for s in spans:
            handle.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.attrs]) + "\n")


def read_spans(path, base: int) -> list[Span]:
    """Spans written by :func:`write_spans`, with parents shifted to follow ``base`` spans."""
    spans = []
    with open(path) as handle:
        for line in handle:
            name, start, end, parent, op, attrs = json.loads(line)
            spans.append(Span(name, start, end, parent + base if parent >= 0 else -1, op, attrs))
    return spans


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def flops_computed(n: int, k: int) -> float:
    """Real flops of complex LU on n x n plus forward and back substitution of k columns."""
    return (8.0 / 3.0) * n**3 + 8.0 * n * n * k


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], extra: dict) -> dict:
    """Per-layer metrics from one traced pass; ``extra`` supplies what spans cannot."""
    own = self_times(spans)
    total = {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + t
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def spans_of(name):
        # Spans of calls that raised carry no attributes; they count only as time.
        found = [spans[i] for i in by_name.get(name, [])]
        return [s for s in found if s.attrs is not None] if name in _MEASURED else found

    def layer_self(layer):
        return sum(t for name, t in total.items() if name.split(".", 1)[0] == layer)

    def duration(items):
        return sum(s.end - s.start for s in items)

    batched = spans_of("linalg.solve_batched")
    points = spans_of("linalg.solve_with_condition")
    solves = batched + points
    systems_by_n: dict[int, list[float]] = {}
    for s in batched:
        acc = systems_by_n.setdefault(s.attrs["n"], [0, 0.0])
        acc[0] += s.attrs["m"]
        acc[1] += s.end - s.start
    flops = sum(s.attrs["m"] * flops_computed(s.attrs["n"], s.attrs["k"]) for s in solves)

    grids = spans_of("scattering.transmission_grid")
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)
    scan, refine = [], []
    for i in by_name.get("analysis.high_efficiency_intervals", []):
        kids = [
            spans[j]
            for j in children.get(i, [])
            if spans[j].name == "scattering.transmission_grid" and spans[j].attrs is not None
        ]
        scan += kids[:1]
        refine += kids[1:]
    reports = len(by_name.get("analysis.high_efficiency_intervals", []))

    steps = sum(s.attrs["steps"] for s in spans_of("timedomain.steady_state_response"))
    td_s = duration(spans_of("timedomain.steady_state_response"))
    fmt = spans_of("formatting.csv_text") + spans_of("formatting.json_text")
    fmt_rows = sum(s.attrs["rows"] for s in fmt)
    fmt_s = duration(fmt)

    metrics = {
        "linalg.batched_calls": len(batched),
        "linalg.systems": sum(s.attrs["m"] for s in batched),
        "linalg.self_s": layer_self("linalg"),
        "linalg.flops_computed": flops,
        "linalg.gflops": _rate(flops, duration(solves)) / 1e9,
        "linalg.stack_bytes_max": max((s.attrs["m"] * s.attrs["n"] ** 2 * 16 for s in batched), default=0),
        "linalg.singular_flagged": sum(s.attrs["singular"] for s in batched),
        "linalg.point_solves": len(points),
        "linalg.eig_s": total.get("linalg.eigenvalues_hermitian", 0.0),
        "scattering.grid_calls": len(grids),
        "scattering.grid_points": sum(s.attrs["points"] for s in grids),
        "scattering.self_s": layer_self("scattering"),
        "scattering.us_per_grid_call": 1e6 * _rate(duration(grids), len(grids)),
        "network.builds": len(by_name.get("network.new_network", [])),
        "network.self_s": layer_self("network"),
        "converter.builds": sum(len(by_name.get(f"converter.{n}", [])) for n in _CONVERTERS),
        "converter.self_s": layer_self("converter"),
        "analysis.reports": reports,
        "analysis.scan_points": sum(s.attrs["points"] for s in scan),
        "analysis.scan_s": duration(scan),
        "analysis.refine_calls": len(refine),
        "analysis.refine_points": sum(s.attrs["points"] for s in refine),
        "analysis.refine_s": duration(refine),
        "analysis.refine_calls_per_report": _rate(len(refine), reports),
        "analysis.width_evals": len(by_name.get("analysis.max_bandwidth", [])),
        "analysis.self_s": layer_self("analysis"),
        "ensemble.build_s": total.get("ensemble.microscopic_network", 0.0),
        "ensemble.validate_self_s": total.get("ensemble.elimination_error", 0.0),
        "ensemble.couplings_s": total.get("ensemble.collective_couplings", 0.0),
        "timedomain.steps": steps,
        "timedomain.s": td_s,
        "timedomain.steps_per_s": _rate(steps, td_s),
        "formatting.rows": fmt_rows,
        "formatting.bytes": sum(s.attrs["bytes"] for s in fmt),
        "formatting.s": fmt_s,
        "formatting.rows_per_s": _rate(fmt_rows, fmt_s),
        "cli.main_self_s": total.get("cli.main", 0.0),
        # Measured outside the spans; a workload that has them passes them in ``extra``.
        "cli.startup_s": 0.0,
        "analysis.merge_dip_max": 0.0,
        "trace.spans": len(spans),
    }
    for n in (3, 34, 130):
        m, t = systems_by_n.get(n, (0, 0.0))
        metrics[f"linalg.systems_per_s.n{n}"] = _rate(m, t)
    metrics.update(extra)
    return metrics
