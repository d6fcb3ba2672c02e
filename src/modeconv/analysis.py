"""Efficiency curves, high-efficiency bandwidth extraction, and optimization over damping.

The conversion efficiency of a network is eta(omega) = |S_out,in(omega)|^2 for a
chosen port pair.  This module scans it over frequency, extracts the maximal
disjoint intervals where eta stays above a threshold, counts branches, builds
(kappa, omega) efficiency maps for one-parameter converter families, and finds
the damping that maximizes the widest interval.

Interval extraction works on one (runs x 2) array of (lo, hi) run ends.  Scan
points with eta >= threshold form runs; a single singular scan point between
two qualifying neighbors counts as qualifying (the curve is continuous through
it), while a wider singular gap splits the run.  Every end whose outer scan
neighbor exists and is finite is refined, all in one vectorized bisection, until
eta sits on the threshold to 1e-9; any other end stays on its scan point, so a
range boundary clips the interval there.  Several networks (the optimizer's
coarse kappa grid) go through the same path as one batch: each member is scanned
on its own and reduced to its runs before the next, then the edge brackets of
all members are refined as one stack, so each bisection step is a single
elimination over (member, omega) pairs (one stack per mode count, should a
callable family's members differ in size).

The width-versus-kappa curve is discontinuous where separate branches merge into
one (the merged interval is suddenly much wider), so the optimizer never trusts
local search alone: it evaluates a coarse grid as one batch, refines by golden
section around the best grid point, and returns the best evaluation it has ever
seen.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .converter import (
    DetunedParams,
    ResonantParams,
    detuned_network,
    resonant_network,
    two_mode_network,
)
from .linalg import eigenvalues_hermitian
from .network import CoupledModeNetwork
from .scattering import _member_stack, _pair_transmission, transmission_grid

# Dense-scan density for interval extraction, and the bisection stopping rule
# |eta - threshold| <= ETA_REFINE_TOL at refined endpoints.
DEFAULT_SCAN_POINTS = 4001
ETA_REFINE_TOL = 1e-9

# Coarse kappa-grid density for optimize_kappa before golden-section refinement.
COARSE_KAPPA_POINTS = 201


@dataclass(frozen=True)
class EfficiencyCurve:
    """eta over an ascending frequency grid for one port pair."""

    omegas: np.ndarray
    etas: np.ndarray
    in_port: str
    out_port: str


@dataclass(frozen=True)
class Interval:
    """One contiguous frequency interval; width = hi - lo."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class BandwidthReport:
    """Disjoint ascending intervals where eta >= threshold, and the widest width."""

    threshold: float
    intervals: tuple[Interval, ...]
    max_width: float


@dataclass(frozen=True)
class EfficiencyMap:
    """eta over a (kappa, omega) grid; one row per kappa, one column per omega."""

    kappas: np.ndarray
    omegas: np.ndarray
    etas: np.ndarray


@dataclass(frozen=True)
class ConverterFamily:
    """One-parameter converter family: kappa_o = kappa_mu = kappa, rest fixed.

    kind "resonant" builds the symmetric three-mode chain with coupling ``g``;
    "detuned" adds intermediate-mode detuning ``delta_mu``; "two_mode" couples
    the resonators directly with strength ``s`` (defaulting to ``g``).
    """

    kind: str
    g: float = 1.0
    delta_mu: float = 0.0
    s: float | None = None

    def build(self, kappa: float) -> CoupledModeNetwork:
        if self.kind == "resonant":
            return resonant_network(ResonantParams(self.g, self.g, kappa, kappa))
        if self.kind == "detuned":
            return detuned_network(
                DetunedParams(self.g, self.g, kappa, kappa, delta_mu=self.delta_mu)
            )
        if self.kind == "two_mode":
            s = self.g if self.s is None else self.s
            return two_mode_network(s, kappa, kappa)
        raise ValueError(f"unknown family kind {self.kind!r}")


def _build_member(family, kappa: float) -> CoupledModeNetwork:
    """A family is a ConverterFamily or any callable kappa -> network."""
    if hasattr(family, "build"):
        return family.build(kappa)
    return family(kappa)


def _conversion_ports(net: CoupledModeNetwork) -> tuple[str, str]:
    labels = net.port_labels()
    return labels[0], labels[-1]


def default_omega_window(net: CoupledModeNetwork) -> tuple[float, float]:
    """Frequency window guaranteed to contain every high-efficiency branch.

    Branches sit near the eigenvalues of the coupling matrix and extend no
    further than a few damping/coupling widths, so the eigenvalue span padded by
    four off-diagonal coupling strengths covers them with margin.
    """
    eigs = eigenvalues_hermitian(net.coupling)
    off = net.coupling - np.diag(np.diag(net.coupling))
    margin = 4.0 * max(1.0, float(np.abs(off).max()) if off.size else 0.0)
    return float(eigs.min() - margin), float(eigs.max() + margin)


def _eta_grid(net, omegas, in_port, out_port, on_singular="raise") -> np.ndarray:
    return np.abs(transmission_grid(net, omegas, in_port, out_port, on_singular)) ** 2


def _ascending_grid(name: str, values) -> np.ndarray:
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError(f"{name} must be strictly ascending")
    return grid


def efficiency_curve(net: CoupledModeNetwork, in_port: str, out_port: str, omega_grid) -> EfficiencyCurve:
    """eta at each grid frequency; singular frequencies become gaps, not errors.

    The grid must be strictly ascending.  Any frequency where the network is
    singular (an undamped resonance hit exactly) is dropped from the curve with
    a warning, so ``omegas`` may come back shorter than the request.
    """
    omega_grid = _ascending_grid("omega_grid", omega_grid)
    etas = _eta_grid(net, omega_grid, in_port, out_port, on_singular="nan")
    keep = np.isfinite(etas)
    if not keep.all():
        dropped = omega_grid[~keep]
        warnings.warn(
            f"network singular at {len(dropped)} grid frequencies "
            f"(first at omega={dropped[0]:g}); points omitted from the curve",
            stacklevel=2,
        )
    omegas = omega_grid[keep].copy()
    omegas.setflags(write=False)
    kept = etas[keep]
    kept.setflags(write=False)
    return EfficiencyCurve(omegas=omegas, etas=kept, in_port=in_port, out_port=out_port)


def _refine_crossings(nets, ports, member, threshold, lo, hi, f_lo_sign):
    """Vectorized bisection on eta - threshold inside the brackets [lo, hi].

    Bracket j belongs to ``nets[member[j]]``, driven at ``ports[member[j]]``;
    all networks have the same mode count.  Each bracket must change sign.
    Returns the refined crossing frequencies, stopping per-crossing once
    |eta - threshold| <= ETA_REFINE_TOL.  Each step solves the brackets still
    open as one stack of (member, omega) pairs; no brackets cost no evaluation.
    """
    if len(nets) == 1:
        # transmission_grid is the one-member case of the same pair solve; a
        # lone report refines through it, so layer tracing sees its steps.
        def eta(_, omegas):
            return _eta_grid(nets[0], omegas, *ports[0])

    else:
        stack = _member_stack(nets, ports)

        def eta(members, omegas):
            return np.abs(_pair_transmission(stack, members, omegas)) ** 2

    lo = lo.copy()
    hi = hi.copy()
    result = (lo + hi) / 2.0
    pending = np.arange(len(lo))
    for _ in range(96):
        if not pending.size:
            break
        mid = (lo[pending] + hi[pending]) / 2.0
        f_mid = eta(member[pending], mid) - threshold
        result[pending] = mid
        same = np.sign(f_mid) == f_lo_sign[pending]
        lo[pending[same]] = mid[same]
        hi[pending[~same]] = mid[~same]
        pending = pending[np.abs(f_mid) > ETA_REFINE_TOL]
    return result


def _bandwidth_reports(nets, ports, threshold: float, omega_range, points: int) -> list[BandwidthReport]:
    """One :class:`BandwidthReport` per network, ``ports[i]`` = (in, out) of ``nets[i]``.

    Each network is scanned on its own and reduced to its runs before the next
    is scanned; the edge brackets of all networks are then refined together,
    one bisection per mode count.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    w_lo, w_hi = float(omega_range[0]), float(omega_range[1])
    if not (math.isfinite(w_lo) and math.isfinite(w_hi)) or w_hi < w_lo:
        raise ValueError(f"omega_range must be finite with min <= max, got {omega_range}")
    if points < 2 or w_hi == w_lo:
        grid = np.array([w_lo])
    else:
        grid = np.linspace(w_lo, w_hi, int(points))
    runs, refine = [], []
    for net, (in_port, out_port) in zip(nets, ports):
        etas = _eta_grid(net, grid, in_port, out_port, on_singular="nan")
        finite = np.isfinite(etas)
        if not finite.all():
            warnings.warn(
                f"network singular at {int((~finite).sum())} scan frequencies; "
                "those points are excluded from interval detection",
                stacklevel=3,
            )
        above = finite & (etas >= threshold)
        # A one-point singular gap between qualifying neighbors does not split
        # an interval: the curve is continuous through a removable singularity.
        above[1:-1] |= ~finite[1:-1] & above[:-2] & above[2:]
        # (lo, hi) grid indices of each run of qualifying points, one row per run.
        edges = np.flatnonzero(np.diff(np.concatenate(([False], above, [False]))))
        member_runs = edges.reshape(-1, 2) - [0, 1]
        # An end is refined inside the bracket it forms with its outer neighbor
        # when that neighbor exists and is finite.
        runs.append(member_runs)
        refine.append(np.concatenate(([False], finite, [False]))[member_runs + [-1, 1] + 1])
    counts = [len(member_runs) for member_runs in runs]
    runs, refine = np.concatenate(runs), np.concatenate(refine)
    owner = np.repeat(np.arange(len(nets)), counts)[:, None].repeat(2, axis=1)
    ends = grid[runs]
    # outer - inner (-1 at a lower end, +1 at an upper end) is the sign of
    # eta - threshold at the bracket's lower point.
    outer = runs + [-1, 1]
    # Members of a callable family may differ in size; each size is one stack.
    sizes = np.array([net.n_modes for net in nets])
    for n in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == n)
        sel = refine & (sizes[owner] == n)
        inner, out = runs[sel], outer[sel]
        ends[sel] = _refine_crossings(
            [nets[i] for i in group],
            [ports[i] for i in group],
            np.searchsorted(group, owner[sel]),
            threshold,
            grid[np.minimum(inner, out)],
            grid[np.maximum(inner, out)],
            (out - inner).astype(float),
        )
    reports = []
    for member_ends in np.split(ends, np.cumsum(counts)[:-1]):
        intervals = tuple(Interval(lo=float(lo), hi=float(hi)) for lo, hi in member_ends)
        max_width = max((iv.width for iv in intervals), default=0.0)
        reports.append(
            BandwidthReport(threshold=float(threshold), intervals=intervals, max_width=float(max_width))
        )
    return reports


def high_efficiency_intervals(
    net: CoupledModeNetwork,
    in_port: str,
    out_port: str,
    threshold: float,
    omega_range,
    points: int = DEFAULT_SCAN_POINTS,
) -> BandwidthReport:
    """Maximal disjoint intervals with eta >= threshold inside omega_range.

    A dense scan (default 4001 points) locates the intervals; every endpoint
    with a finite scan point outside it is bisection-refined until eta equals
    the threshold to ``ETA_REFINE_TOL``.  Endpoints on the range boundary stay
    clipped there.  The report is empty (max_width 0) when no scan point
    qualifies.
    """
    return _bandwidth_reports([net], [(in_port, out_port)], threshold, omega_range, points)[0]


def max_bandwidth(
    net: CoupledModeNetwork,
    in_port: str,
    out_port: str,
    threshold: float,
    omega_range,
    points: int = DEFAULT_SCAN_POINTS,
) -> float:
    """Width of the widest interval with eta >= threshold (0 if none)."""
    return high_efficiency_intervals(net, in_port, out_port, threshold, omega_range, points).max_width


def branch_count(
    net: CoupledModeNetwork,
    in_port: str,
    out_port: str,
    threshold: float,
    omega_range,
    points: int = DEFAULT_SCAN_POINTS,
) -> int:
    """Number of disjoint intervals with eta >= threshold."""
    return len(
        high_efficiency_intervals(net, in_port, out_port, threshold, omega_range, points).intervals
    )


def efficiency_map(family, kappa_grid, omega_grid) -> EfficiencyMap:
    """eta over the (kappa, omega) grid for a one-parameter converter family.

    Rows follow ``kappa_grid`` ascending, columns ``omega_grid`` ascending.
    Singular points (possible only for undamped members) are recorded as NaN
    gaps with a warning, as in :func:`efficiency_curve`.
    """
    kappas = _ascending_grid("kappa_grid", kappa_grid)
    omegas = _ascending_grid("omega_grid", omega_grid)
    rows = np.empty((len(kappas), len(omegas)))
    gap_count = 0
    for i, kappa in enumerate(kappas):
        net = _build_member(family, float(kappa))
        in_port, out_port = _conversion_ports(net)
        rows[i] = _eta_grid(net, omegas, in_port, out_port, on_singular="nan")
        gap_count += int(np.count_nonzero(~np.isfinite(rows[i])))
    if gap_count:
        warnings.warn(f"map contains {gap_count} singular grid points recorded as NaN", stacklevel=2)
    rows.setflags(write=False)
    return EfficiencyMap(kappas=kappas.copy(), omegas=omegas.copy(), etas=rows)


def optimize_kappa(
    family,
    threshold: float,
    kappa_range,
    coarse_points: int = COARSE_KAPPA_POINTS,
    omega_range=None,
) -> tuple[float, float]:
    """Damping that maximizes the widest above-threshold interval.

    Coarse scan over ``kappa_range`` (default 201 points) followed by
    golden-section refinement bracketed by the best point's neighbors.  The
    width is discontinuous where branches merge, so the optimizer does not
    assume unimodality: it returns the best (kappa, width) pair it actually
    evaluated anywhere, never a merely-converged-to point.  A single-point
    range returns that kappa with its width.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    k_lo, k_hi = float(kappa_range[0]), float(kappa_range[1])
    if not (0.0 < k_lo <= k_hi) or not math.isfinite(k_hi):
        raise ValueError(f"kappa_range must be positive and finite, got {kappa_range}")

    if omega_range is None:
        omega_range = default_omega_window(_build_member(family, (k_lo + k_hi) / 2.0))

    def width_at(kappa: float) -> float:
        net = _build_member(family, kappa)
        in_port, out_port = _conversion_ports(net)
        return max_bandwidth(net, in_port, out_port, threshold, omega_range)

    if k_lo == k_hi:
        return k_lo, width_at(k_lo)

    ks = np.linspace(k_lo, k_hi, max(int(coarse_points), 2))
    nets = [_build_member(family, float(k)) for k in ks]
    reports = _bandwidth_reports(
        nets, [_conversion_ports(net) for net in nets], threshold, omega_range, DEFAULT_SCAN_POINTS
    )
    widths = np.array([report.max_width for report in reports])
    best_i = int(np.argmax(widths))
    best_k = float(ks[best_i])
    best_w = float(widths[best_i])

    def track(kappa: float) -> float:
        nonlocal best_k, best_w
        w = width_at(kappa)
        if w > best_w:
            best_k, best_w = kappa, w
        return w

    a = float(ks[max(best_i - 1, 0)])
    b = float(ks[min(best_i + 1, len(ks) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = track(c)
    fd = track(d)
    tol = 1e-8 * max(1.0, k_hi - k_lo)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = track(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = track(c)
    return best_k, best_w
