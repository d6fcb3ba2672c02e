"""Efficiency curves, high-efficiency bandwidth extraction, and optimization over damping.

The conversion efficiency of a network is eta(omega) = |S_out,in(omega)|^2 for a
chosen port pair.  This module scans it over frequency, extracts the maximal
disjoint intervals where eta stays above a threshold, counts branches, builds
(kappa, omega) efficiency maps for one-parameter converter families, and finds
the damping that maximizes the widest interval.

Interval edges come from a level-set eigenproblem, as in H-infinity norm
algorithms (Boyd, Balakrishnan & Kabamba, MCSS 1989; Bruinsma & Steinbuch,
SCL 1990): with H = A - iK/2, |S_out,in(omega)| = sqrt(threshold) exactly at
the real eigenvalues of a matrix L twice the size of H, so no grid decides
which passbands are found.  Between consecutive crossings (window ends
included) eta - threshold keeps its sign, so one evaluation at each gap's
midpoint classifies the gap; adjacent gaps above the threshold merge into one
interval, and an interval touching a window end is clipped there.  An edge
whose eta misses the threshold by more than ETA_REFINE_TOL (a root the
eigensolver got only roughly) is polished by regula falsi inside the gaps'
midpoints.  Several networks (the optimizer's coarse kappa grid) go through
the same path as one batch: one ``eigvals`` call on the stack of their L, one
pair solve for every gap midpoint and one for every edge (per mode count,
should a callable family's members differ in size).

A real eigenvalue of H is a pole: its mode is undamped, so no port sees it and
it cancels from S_out,in.  eta is continuous through it, but the network is
singular there.  Poles in the window (eigenvalues within REAL_AXIS_RTOL of the
real axis, so weakly damped modes too) are cuts as well, so no gap midpoint
sits on one.  A midpoint the pair solve still flags singular lies between
near-coincident cuts; its gap takes the class of the gap before it (the first
gap that of the next classified gap).

The width-versus-kappa curve is discontinuous where separate branches merge into
one (the merged interval is suddenly much wider).  A merge is where the number
of crossings changes, so the optimizer evaluates a coarse grid as one batch,
then bisects on the crossing count between the best grid point and each
neighbor whose count differs, one level-set eigen-solve per step and no pair
solve, to a bracket of 1e-12 * max(1, range width); one batched report measures
the bracket ends.  Where no merge beats the best grid point (a smooth
maximum), golden section around it refines instead.  Either way the optimizer
returns the best evaluation it has seen.
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
from .errors import NoPortsError
from .linalg import eigenvalues_hermitian
from .network import CoupledModeNetwork
from .scattering import _member_stack, _pair_transmission, transmission_grid

# Scan spacing of the merge-dip allowance in bench/oracles.py, its only reader.
DEFAULT_SCAN_POINTS = 4001
# The polishing rule |eta - threshold| <= ETA_REFINE_TOL at every edge.
ETA_REFINE_TOL = 1e-9
POLISH_STEPS = 60

# An eigenvalue within REAL_AXIS_RTOL * ||matrix||_F of the real axis counts as
# real: a threshold crossing of the level-set matrix, or a pole of H.
REAL_AXIS_RTOL = 1e-8

# Coarse kappa-grid density for optimize_kappa before it refines around the best point.
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
    the resonators directly with strength ``g``.  Calling the family builds
    its member at kappa, so it is one of the callables kappa -> network that
    :func:`efficiency_map` and :func:`optimize_kappa` take as a family.
    """

    kind: str
    g: float = 1.0
    delta_mu: float = 0.0

    def build(self, kappa: float) -> CoupledModeNetwork:
        if self.kind == "resonant":
            return resonant_network(ResonantParams(self.g, self.g, kappa, kappa))
        if self.kind == "detuned":
            return detuned_network(
                DetunedParams(self.g, self.g, kappa, kappa, delta_mu=self.delta_mu)
            )
        if self.kind == "two_mode":
            return two_mode_network(self.g, kappa, kappa)
        raise ValueError(f"unknown family kind {self.kind!r}")

    __call__ = build


def _conversion_ports(net: CoupledModeNetwork) -> tuple[str, str]:
    labels = net.port_labels()
    if not labels:
        raise NoPortsError("network has no damped modes, so no ports to convert between")
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


def _level_set_matrix(h, i: int, o: int, k_i: float, k_o: float, gamma: float) -> np.ndarray:
    """L_gamma, whose real eigenvalues are the frequencies where |S_oi| = gamma.

    With H = A - iK/2 (``h``), S_oi(omega) = D + C (omega - H)^-1 B for
    B = sqrt(k_i) e_i, C = i sqrt(k_o) e_o^T and feedthrough D = -1 when a port
    is driven into itself (0 otherwise).  For R = D^2 - gamma^2, nonzero when
    gamma < 1,

        L_gamma = [[H - B D C / R,       -gamma B B^H / R],
                   [-gamma C^H C / R,    H^H - C^H D B^H / R]],

    which for D = 0 is [[H, B B^H / gamma], [C^H C / gamma, H^H]] (Boyd,
    Balakrishnan & Kabamba, MCSS 1989).  B and C each have one nonzero entry,
    so L_gamma is diag(H, H^H) plus four entries.
    """
    n = len(h)
    d = -1.0 if i == o else 0.0
    r = d * d - gamma * gamma
    feed = math.sqrt(k_i * k_o) * d / r
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    mat[:n, :n] = h
    mat[n:, n:] = h.conj().T
    mat[i, o] -= 1j * feed
    mat[n + o, n + i] += 1j * feed
    mat[i, n + i] = -gamma * k_i / r
    mat[n + o, o] = -gamma * k_o / r
    return mat


def _real_eigenvalues(mats, w_lo: float, w_hi: float) -> list[np.ndarray]:
    """Sorted real eigenvalues in (w_lo, w_hi) of each matrix.

    Real means within REAL_AXIS_RTOL * ||matrix||_F of the real axis; the real
    part is kept.  One stacked ``eigvals`` call per matrix size.
    """
    out = [None] * len(mats)
    sizes = np.array([len(mat) for mat in mats])
    for n in set(sizes.tolist()):
        group = np.flatnonzero(sizes == n)
        stack = np.array([mats[i] for i in group])
        lam = np.linalg.eigvals(stack)
        real = np.abs(lam.imag) <= REAL_AXIS_RTOL * np.linalg.norm(stack, axis=(1, 2))[:, None]
        for i, values, keep in zip(group, lam.real, real):
            values = np.sort(values[keep])
            out[i] = values[(values > w_lo) & (values < w_hi)]
    return out


def _level_set_matrices(nets, ports, gamma: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """H = A - iK/2 of networks of one mode count, as a stack, and each L_gamma.

    L_gamma is built on the modes the coupling graph links to a port of the
    pair: the others cannot change S_out,in, and leaving them out keeps the
    crossings of a network with a decoupled dark mode bit for bit.  H is the
    whole network's, decoupled modes included, so its real eigenvalues are
    every pole.
    """
    n = nets[0].n_modes
    coupling = np.array([net.coupling for net in nets])
    damping = np.array([net.damping for net in nets])
    modes = np.array([[net.index_of(label) for label in pair] for net, pair in zip(nets, ports)])
    h = coupling - 0.5j * (damping[:, None, :] * np.eye(n))
    linked = coupling != 0.0
    reach = np.zeros(damping.shape, dtype=bool)
    reach[np.arange(len(nets))[:, None], modes] = True
    while True:
        grown = reach | (linked & reach[:, :, None]).any(axis=1)
        if (grown == reach).all():
            break
        reach = grown
    mats = []
    for h_j, k_j, keep, (i, o) in zip(h, damping, reach, modes):
        k_i, k_o = k_j[i], k_j[o]
        if not keep.all():
            keep = np.flatnonzero(keep)
            h_j, i, o = h_j[np.ix_(keep, keep)], np.searchsorted(keep, i), np.searchsorted(keep, o)
        mats.append(_level_set_matrix(h_j, i, o, k_i, k_o, gamma))
    return h, mats


def _per_mode_count(nets, ports, solve) -> list:
    """``solve(nets, ports)`` on each group of one mode count, results in the order of ``nets``."""
    out = [None] * len(nets)
    sizes = np.array([net.n_modes for net in nets])
    for n in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == n)
        for i, result in zip(group, solve([nets[i] for i in group], [ports[i] for i in group])):
            out[i] = result
    return out


def _polish(stack, member, threshold, x, lo, g_lo, hi, g_hi) -> np.ndarray:
    """Edges x on eta = threshold to ETA_REFINE_TOL, by regula falsi inside [lo, hi].

    Edge j belongs to member ``member[j]`` of ``stack``.  ``g_lo`` and
    ``g_hi`` are eta - threshold at the bracket ends, one >= 0 and one < 0,
    and x lies between them.  An edge that already meets the tolerance costs
    one evaluation; the others take Illinois steps (the end kept twice in a
    row has its value halved), each step one stack of the edges still open.
    """
    x, lo, g_lo, hi, g_hi = (np.array(a, dtype=float) for a in (x, lo, g_lo, hi, g_hi))
    kept = np.zeros(len(x))  # +1: lo moved last, -1: hi moved last
    pending = np.arange(len(x))
    for _ in range(POLISH_STEPS):
        if not pending.size:
            break
        g = np.abs(_pair_transmission(stack, member[pending], x[pending], "nan")) ** 2 - threshold
        far = np.abs(g) > ETA_REFINE_TOL
        p, g = pending[far], g[far]
        low = (g < 0.0) == (g_lo[p] < 0.0)
        lo[p[low]], g_lo[p[low]] = x[p[low]], g[low]
        hi[p[~low]], g_hi[p[~low]] = x[p[~low]], g[~low]
        g_hi[p[low & (kept[p] > 0)]] /= 2.0
        g_lo[p[~low & (kept[p] < 0)]] /= 2.0
        kept[p] = np.where(low, 1.0, -1.0)
        x[p] = (lo[p] * g_hi[p] - hi[p] * g_lo[p]) / (g_hi[p] - g_lo[p])
        pending = p
    return x


def _group_ends(nets, ports, threshold: float, w_lo: float, w_hi: float) -> list[np.ndarray]:
    """The (intervals x 2) edge array of each network, all of one mode count."""
    stack = _member_stack(nets, ports)
    h, mats = _level_set_matrices(nets, ports, math.sqrt(threshold))
    crossings = _real_eigenvalues(mats, w_lo, w_hi)
    poles = _real_eigenvalues(list(h), w_lo, w_hi)
    # Between consecutive cuts (crossings, poles and window ends) eta -
    # threshold keeps its sign, so the midpoint classifies the gap: one pair
    # solve covers every gap of every member.
    cuts = [np.sort(np.concatenate(([w_lo], c, p, [w_hi]))) for c, p in zip(crossings, poles)]
    mids = [(c[:-1] + c[1:]) / 2.0 for c in cuts]
    counts = [len(m) for m in mids]
    member = np.repeat(np.arange(len(nets)), counts)
    g_mid = np.abs(_pair_transmission(stack, member, np.concatenate(mids), "nan")) ** 2 - threshold
    ends = []
    edges = []  # (which ends, x, lo, g_lo, hi, g_hi) per member
    singular = set(member[np.isnan(g_mid)].tolist())
    for k, (c, m, g) in enumerate(zip(cuts, mids, np.split(g_mid, np.cumsum(counts)[:-1]))):
        if k in singular:
            # A gap with a singular midpoint takes the midpoint and value of
            # the gap before it (leading ones those of the first classified
            # gap), so each polish bracket stays a true bracket.
            src = np.maximum.accumulate(np.where(np.isfinite(g), np.arange(len(g)), -1))
            src[src < 0] = np.argmax(np.isfinite(g))
            m, g = m[src], g[src]
        runs = np.flatnonzero(np.diff(np.concatenate(([False], g >= 0.0, [False])))).reshape(-1, 2)
        ends.append(c[runs])
        inner = (runs > 0) & (runs < len(c) - 1)
        cut = runs[inner]
        edges.append((inner, c[cut], m[cut - 1], g[cut - 1], m[cut], g[cut]))
    sizes = [len(edge[1]) for edge in edges]
    member = np.repeat(np.arange(len(nets)), sizes)
    x = _polish(stack, member, threshold, *(np.concatenate(col) for col in list(zip(*edges))[1:]))
    for member_ends, (which, *_), polished in zip(ends, edges, np.split(x, np.cumsum(sizes)[:-1])):
        member_ends[which] = polished
    return ends


def _bandwidth_reports(nets, ports, threshold: float, omega_range) -> list[BandwidthReport]:
    """One :class:`BandwidthReport` per network, ``ports[i]`` = (in, out) of ``nets[i]``.

    Networks are handled one mode count at a time: one ``eigvals`` call on the
    stack of their level-set matrices gives every crossing, one pair solve
    classifies the gaps between them, and one more polishes every edge.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    w_lo, w_hi = float(omega_range[0]), float(omega_range[1])
    if not (math.isfinite(w_lo) and math.isfinite(w_hi)) or w_hi < w_lo:
        raise ValueError(f"omega_range must be finite with min <= max, got {omega_range}")
    ends = _per_mode_count(nets, ports, lambda group, pairs: _group_ends(group, pairs, threshold, w_lo, w_hi))
    reports = []
    for member_ends in ends:
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
) -> BandwidthReport:
    """Maximal disjoint intervals with eta >= threshold inside omega_range.

    Every edge inside the range is a crossing of the threshold, with eta on it
    to ``ETA_REFINE_TOL``; edges on the range boundary stay clipped there.  The
    report is empty (max_width 0) when eta stays below the threshold.
    """
    return _bandwidth_reports([net], [(in_port, out_port)], threshold, omega_range)[0]


def max_bandwidth(
    net: CoupledModeNetwork,
    in_port: str,
    out_port: str,
    threshold: float,
    omega_range,
) -> float:
    """Width of the widest interval with eta >= threshold (0 if none)."""
    return high_efficiency_intervals(net, in_port, out_port, threshold, omega_range).max_width


def branch_count(
    net: CoupledModeNetwork,
    in_port: str,
    out_port: str,
    threshold: float,
    omega_range,
) -> int:
    """Number of disjoint intervals with eta >= threshold."""
    return len(high_efficiency_intervals(net, in_port, out_port, threshold, omega_range).intervals)


def efficiency_map(family, kappa_grid, omega_grid) -> EfficiencyMap:
    """eta over the (kappa, omega) grid for a family, any callable kappa -> network.

    Rows follow ``kappa_grid`` ascending, columns ``omega_grid`` ascending.
    Singular points (possible only for undamped members) are recorded as NaN
    gaps with a warning, as in :func:`efficiency_curve`.
    """
    kappas = _ascending_grid("kappa_grid", kappa_grid)
    omegas = _ascending_grid("omega_grid", omega_grid)
    rows = np.empty((len(kappas), len(omegas)))
    gap_count = 0
    for i, kappa in enumerate(kappas):
        net = family(float(kappa))
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

    ``family`` is any callable kappa -> network (a :class:`ConverterFamily`
    is one); each member's conversion ports are its first and last damped
    modes.  The coarse grid over ``kappa_range`` (default 201 points) is one
    batch: one eigen-solve stack for all its members.  The width is
    discontinuous where branches merge, which is where the number of
    crossings (real eigenvalues of the level-set matrix in the window)
    changes.  For each neighbor of the best grid point whose crossing count
    differs from its own, the pair is bisected on the count, one member and
    one level-set eigen-solve per step, to a bracket of
    1e-12 * max(1, range width); one batched report then measures both ends
    of every bracket.  When no bracket end is wider than the best grid point
    (no neighbor differs in count, or the merge is narrower: a smooth
    interior maximum), golden section between the neighbors refines instead,
    one batch of one member per step.  Every width
    is measured the same way, and the optimizer returns the first widest
    (kappa, width) pair it evaluated anywhere, in evaluation order, never a
    merely-converged-to point.  A single-point range returns that kappa with
    its width.
    ``coarse_points`` must be an integer >= 2.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    whole = isinstance(coarse_points, (int, np.integer)) and not isinstance(coarse_points, bool)
    if not whole or coarse_points < 2:
        raise ValueError(f"coarse_points must be an integer >= 2, got {coarse_points!r}")
    k_lo, k_hi = float(kappa_range[0]), float(kappa_range[1])
    if not (0.0 < k_lo <= k_hi) or not math.isfinite(k_hi):
        raise ValueError(f"kappa_range must be positive and finite, got {kappa_range}")

    if omega_range is None:
        omega_range = default_omega_window(family((k_lo + k_hi) / 2.0))
    gamma = math.sqrt(threshold)
    w_lo, w_hi = float(omega_range[0]), float(omega_range[1])
    seen = []  # (kappa, width) of every member measured, in evaluation order

    def members(kappas):
        nets = [family(float(k)) for k in kappas]
        return nets, [_conversion_ports(net) for net in nets]

    def widths_at(kappas) -> list[float]:
        reports = _bandwidth_reports(*members(kappas), threshold, omega_range)
        seen.extend((float(k), report.max_width) for k, report in zip(kappas, reports))
        return [report.max_width for report in reports]

    def crossing_counts(kappas) -> list[int]:
        roots = _per_mode_count(
            *members(kappas),
            lambda group, pairs: _real_eigenvalues(_level_set_matrices(group, pairs, gamma)[1], w_lo, w_hi),
        )
        return [len(r) for r in roots]

    def best() -> tuple[float, float]:
        return max(seen, key=lambda entry: entry[1])  # the first of the widest

    if k_lo == k_hi:
        widths_at([k_lo])
        return best()

    ks = np.linspace(k_lo, k_hi, int(coarse_points))
    widths = widths_at(ks)
    best_i = int(np.argmax(widths))
    near = sorted({max(best_i - 1, 0), best_i, min(best_i + 1, len(ks) - 1)})
    counts = dict(zip(near, crossing_counts(ks[near])))
    tol = 1e-12 * max(1.0, k_hi - k_lo)
    brackets = []
    for i, j in zip(near, near[1:]):
        if counts[i] == counts[j]:
            continue
        a, b = float(ks[i]), float(ks[j])
        while b - a > tol:
            mid = (a + b) / 2.0
            if mid in (a, b):  # the ends are adjacent floats: tol is below one ulp of kappa
                break
            if crossing_counts([mid])[0] == counts[i]:
                a = mid
            else:
                b = mid
        brackets += [a, b]
    if brackets and max(widths_at(brackets)) > widths[best_i]:
        return best()

    a = float(ks[near[0]])
    b = float(ks[near[-1]])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    (fc,) = widths_at([c])
    (fd,) = widths_at([d])
    tol = 1e-8 * max(1.0, k_hi - k_lo)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            (fd,) = widths_at([d])
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            (fc,) = widths_at([c])
    return best()
