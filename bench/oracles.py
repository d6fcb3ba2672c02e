"""Correctness gates for the benchmark's outputs, run outside the timed section.

Each gate compares a program output with an oracle the package already trusts:
a closed form, a frozen acceptance value or unitarity.  No gate compares exact
bytes against a stored copy, so a change that moves printed digits within the
numerical tolerances still passes.  Every check returns a list of failure
messages; an empty list means the output is correct.

Tolerances and why they are what they are:

* band edges sit on the threshold to 1e-8 through the single-point path (the
  refinement stops at 1e-9; the worst seen is 7.4e-10);
* the dense recheck inside a reported interval allows eta below the threshold
  only in runs narrower than one spacing of the 4001-point scan that found the
  interval: every optimum ``optimize_kappa`` returns sits at a branch merge,
  where the scan-detected interval spans a dip the scan stepped over, so a
  strict eta >= theta check would reject correct code.  The scan cannot miss a
  region below the threshold that is wider than its spacing, so such a run
  means a wrong interval.  The depth of these sub-grid dips is not bounded:
  it depends on the curvature at the merge (measured 6.8e-8 to 1.4e-5 on the
  fig4 optima, 1.4e-4 on a detuned theta = 0.9 member at kappa* = 0.12);
* unitarity |S_aa|^2 + |S_ba|^2 = 1 to 1e-10 (the worst seen is 4e-15).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import modeconv as mc
from inputs import ENSEMBLE_GRID, ENSEMBLE_KAPPA, KAPPA_RANGE
from modeconv.analysis import DEFAULT_SCAN_POINTS, default_omega_window

EDGE_TOL = 1e-8
WIDTH_RTOL = 1e-9
DENSE_POINTS = 20001
UNITARITY_TOL = 1e-10
COUPLING_RTOL = 1e-12
FROZEN_DEFAULT_ERROR = 0.051973975123  # criterion 7
FROZEN_TOL = 1e-9
ERROR_CONSISTENCY_TOL = 1e-12
TIMEDOMAIN_TOL = 1e-3
SWEEP_TOL = 1e-10
FLAT_TOP_WIDTH = (1.30, 1.34)  # criterion 2


def family_of(call: dict) -> mc.ConverterFamily:
    return mc.ConverterFamily(kind=call["kind"], g=call["g"], delta_mu=call["delta_mu"])


def optimize_window(family) -> tuple[float, float]:
    """The omega window ``optimize_kappa`` uses when none is given."""
    return default_omega_window(family.build((KAPPA_RANGE[0] + KAPPA_RANGE[1]) / 2.0))


def refined_edges(interval: mc.Interval, omega_range) -> list[float]:
    """Edges found by refinement, i.e. not clipped at the scan window.

    The comparison allows for the 12-decimal rounding of printed reports.
    """
    return [
        e
        for e in (interval.lo, interval.hi)
        if all(abs(e - bound) > 1e-11 * max(1.0, abs(bound)) for bound in omega_range)
    ]


def edge_failures(net, theta: float, edges) -> list[str]:
    """eta at each edge equals theta to EDGE_TOL through the single-point path."""
    failures = []
    for edge in edges:
        eta = abs(mc.transmission(net, edge, "a", "b")) ** 2
        if not abs(eta - theta) <= EDGE_TOL:
            failures.append(f"edge {edge!r}: |eta - theta| = {abs(eta - theta):.3e} > {EDGE_TOL}")
    return failures


def closed_form_failures(g: float, kappa: float, theta: float, edges) -> list[str]:
    """Resonant members: the closed-form efficiency sits on theta at each edge."""
    failures = []
    for edge in edges:
        eta = mc.efficiency_closed_form(edge, g, kappa)
        if not abs(eta - theta) <= EDGE_TOL:
            failures.append(
                f"edge {edge!r}: closed form |eta - theta| = {abs(eta - theta):.3e} > {EDGE_TOL}"
            )
    return failures


def scan_spacing(omega_range) -> float:
    """Grid step of the default interval scan over ``omega_range``."""
    return (omega_range[1] - omega_range[0]) / (DEFAULT_SCAN_POINTS - 1)


def dense_recheck(net, theta: float, interval: mc.Interval) -> tuple[float, float]:
    """Deepest dip of eta below theta inside the interval, and the widest run below it.

    Both come from a DENSE_POINTS grid; a run's width is the distance between
    its first and last grid point below theta (0 when there is none).
    """
    grid = np.linspace(interval.lo, interval.hi, DENSE_POINTS)
    eta = np.abs(mc.transmission_grid(net, grid, "a", "b")) ** 2
    below = np.flatnonzero(eta < theta)
    if below.size == 0:
        return 0.0, 0.0
    breaks = np.flatnonzero(np.diff(below) > 1)
    starts = np.concatenate(([below[0]], below[breaks + 1]))
    ends = np.concatenate((below[breaks], [below[-1]]))
    return float(theta - eta.min()), float(np.max(grid[ends] - grid[starts]))


def dip_failures(net, theta: float, interval: mc.Interval, omega_range) -> tuple[list[str], float]:
    """eta stays at or above theta inside the interval, except in sub-grid dips."""
    dip, run = dense_recheck(net, theta, interval)
    spacing = scan_spacing(omega_range)
    if not run < spacing:
        return [f"eta is below theta over {run:.3e} inside the widest interval, "
                f"wider than the scan spacing {spacing:.3e}"], dip
    return [], dip


def optimum_failures(call: dict, kappa_star: float, width_star: float) -> tuple[list[str], float]:
    """Gate one optimize_kappa result; returns (failures, dense-recheck dip)."""
    family = family_of(call)
    theta = call["theta"]
    window = optimize_window(family)
    net = family.build(kappa_star)
    failures = []
    width = mc.max_bandwidth(net, "a", "b", theta, window)
    if not abs(width - width_star) <= WIDTH_RTOL * abs(width_star):
        failures.append(f"max_bandwidth at kappa* is {width!r}, optimize_kappa said {width_star!r}")
    report = mc.high_efficiency_intervals(net, "a", "b", theta, window)
    if not report.intervals or width_star <= 0.0:
        return failures + ["no interval above threshold at kappa*"], 0.0
    widest = max(report.intervals, key=lambda iv: iv.width)
    edges = refined_edges(widest, window)
    failures += edge_failures(net, theta, edges)
    if call["kind"] == "resonant":
        failures += closed_form_failures(call["g"], kappa_star, theta, edges)
    found, dip = dip_failures(net, theta, widest, window)
    return failures + found, dip


def ensemble_of(member: dict) -> mc.AtomEnsemble:
    if member["atoms"] is None:
        return mc.default_validation_ensemble()
    return mc.AtomEnsemble(tuple(mc.AtomParams(**atom) for atom in member["atoms"]))


def unitarity_defect(s_aa, s_ba) -> float:
    return float(np.max(np.abs(np.abs(s_aa) ** 2 + np.abs(s_ba) ** 2 - 1.0)))


def coupling_failures(ens: mc.AtomEnsemble, cc: mc.CollectiveCouplings) -> list[str]:
    """s_mu = sqrt(sum |g_mu|^2) and s_o = |<v_o, v_mu>| / s_mu, from the atoms."""
    g_mu = [complex(atom.g_mu) for atom in ens.atoms]
    v_o = [complex(atom.g_o) * atom.omega_rabi / atom.delta_o for atom in ens.atoms]
    s_mu = math.sqrt(sum(abs(g) ** 2 for g in g_mu))
    s_o = abs(sum(a.conjugate() * b for a, b in zip(v_o, g_mu))) / s_mu
    failures = []
    for name, got, want in (("s_mu", cc.s_mu, s_mu), ("s_o", cc.s_o, s_o)):
        if not abs(got - want) <= COUPLING_RTOL * max(1.0, abs(want)):
            failures.append(f"{name} = {got!r}, oracle {want!r}")
    return failures


def ensemble_failures(member: dict, error: float, cc: mc.CollectiveCouplings) -> list[str]:
    """Gate one elimination_error/collective_couplings result."""
    ens = ensemble_of(member)
    grid = np.linspace(*ENSEMBLE_GRID)
    kappa = ENSEMBLE_KAPPA
    failures = coupling_failures(ens, cc)
    if member["atoms"] is None and not abs(error - FROZEN_DEFAULT_ERROR) <= FROZEN_TOL:
        failures.append(f"default ensemble error {error!r}, frozen {FROZEN_DEFAULT_ERROR}")
    micro = mc.microscopic_network(ens, kappa, kappa, compensate_stark=True)
    s_aa = mc.transmission_grid(micro, grid, "a", "a")
    s_ba = mc.transmission_grid(micro, grid, "a", "b")
    defect = unitarity_defect(s_aa, s_ba)
    if not defect <= UNITARITY_TOL:
        failures.append(f"|S_aa|^2 + |S_ba|^2 misses 1 by {defect:.3e}")
    effective = mc.resonant_network(mc.ResonantParams(cc.s_o, cc.s_mu, kappa, kappa))
    eta_eff = np.abs(mc.transmission_grid(effective, grid, "a", "b")) ** 2
    recomputed = float(np.max(np.abs(np.abs(s_ba) ** 2 - eta_eff)))
    if not abs(recomputed - error) <= ERROR_CONSISTENCY_TOL:
        failures.append(f"elimination_error {error!r} disagrees with its parts {recomputed!r}")
    return failures


# ---------------------------------------------------------------- CLI outputs


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


def _find_row(rows, targets) -> list[str] | None:
    """The row whose leading fields match ``targets`` to 1e-9 (criterion 9)."""
    for fields in rows:
        if all(abs(float(f) - t) < 1e-9 for f, t in zip(fields, targets)):
            return fields
    return None


def _spot_failures(path: Path, targets, column: int, expected: str) -> list[str]:
    row = _find_row(_rows(path), targets)
    if row is None:
        return [f"{path.name}: no row at {targets}"]
    if row[column] != expected:
        return [f"{path.name} at {targets}: {row[column]!r}, expected {expected!r}"]
    return []


def fig2_failures(out_dir: Path) -> list[str]:
    """Criterion 9 spot values of the sweeps, and the criterion 2 flat-top width."""
    failures = []
    for name, expected in (
        ("fig2_detuned_sweep.csv", "8.000000000000e-1"),
        ("fig2_two_mode_sweep.csv", "1.000000000000e0"),
        ("fig2_resonant_sweep.csv", "1.000000000000e0"),
    ):
        failures += _spot_failures(out_dir / name, (0.0,), 1, expected)
    width = json.loads((out_dir / "fig2_resonant_bandwidth.json").read_text())["max_width"]
    if not FLAT_TOP_WIDTH[0] <= width <= FLAT_TOP_WIDTH[1]:
        failures.append(f"fig2 max_width {width!r} outside {FLAT_TOP_WIDTH}")
    return failures


def fig3_failures(out_dir: Path) -> list[str]:
    """Criterion 9: the kappa = 2 row of the resonant map is 1 at omega = 0, +/-1."""
    failures = []
    for omega in (-1.0, 0.0, 1.0):
        failures += _spot_failures(out_dir / "fig3_map_dmu0.csv", (2.0, omega), 2, "1.000000000000e0")
    return failures


def sweep_failures(path: Path, config: dict) -> list[str]:
    """Every row of a resonant sweep matches the closed form to SWEEP_TOL."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    window = config["window"]
    if data.shape != (window["points"], 2):
        return [f"sweep has shape {data.shape}, expected ({window['points']}, 2)"]
    eta = mc.efficiency_closed_form(data[:, 0], config["g"], config["kappa"])
    worst = float(np.max(np.abs(data[:, 1] - eta)))
    if not worst <= SWEEP_TOL:
        return [f"sweep deviates from the closed form by {worst:.3e}"]
    return []


def bandwidth_failures(path: Path, config: dict) -> list[str]:
    """Refined edges sit on theta (closed form) and max_width is the widest interval."""
    doc = json.loads(path.read_text())
    window = (config["window"]["min"], config["window"]["max"])
    intervals = [mc.Interval(iv["lo"], iv["hi"]) for iv in doc["intervals"]]
    if not intervals:
        return ["bandwidth report has no interval, but eta(0) = 1"]
    failures = []
    widest = max(iv["width"] for iv in doc["intervals"])
    if doc["max_width"] != widest:
        failures.append(f"max_width {doc['max_width']!r} is not the widest interval {widest!r}")
    for iv in intervals:
        # The report prints 12 decimals; the edge value is good to 1e-12 relative,
        # which moves eta by at most |d eta / d omega| * 1e-12 << EDGE_TOL.
        failures += closed_form_failures(
            config["g"], config["kappa"], config["threshold"], refined_edges(iv, window)
        )
    return failures


def eliminate_failures(path: Path) -> list[str]:
    error = json.loads(path.read_text())["max_eta_error"]
    if not abs(error - FROZEN_DEFAULT_ERROR) <= FROZEN_TOL:
        return [f"eliminate max_eta_error {error!r}, frozen {FROZEN_DEFAULT_ERROR}"]
    return []


def timedomain_failures(path: Path) -> list[str]:
    error = json.loads(path.read_text())["abs_error"]
    if not error < TIMEDOMAIN_TOL:
        return [f"timedomain abs_error {error!r} >= {TIMEDOMAIN_TOL}"]
    return []
