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
the same path as one batch with one port pair (:func:`_groups`: stacked once
per mode count, grouped by the modes the coupling graph links to the pair):
one ``eigvals`` call on the stack of each group's L, one pair solve for every
gap midpoint and one for every edge.  Crossings and poles come back padded
with +inf, so each other step is one array operation on (member x cut)
arrays, with no loop over members; a map reads its rows from the same
stacks.  Only reports and maps build the pair-solve arrays; crossing counts
read the coupling and damping stacks alone.

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
neighbor whose count differs, to a bracket of 1e-12 * max(1, range width).
Each level-set eigen-solve batch counts the midpoint and the midpoints of
both its halves, the kappas the next two binary steps can visit, so a batch
of at most three members takes two steps, with no pair solve; one batched
report measures the bracket ends.  Where no merge beats the best grid point
(a smooth maximum), golden section around it refines instead.  Either way
the optimizer returns the best evaluation it has seen.  A
:class:`ConverterFamily` hands over each batch of members as one validated
stack; any other family is called once per kappa.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .converter import (
    DetunedParams,
    ResonantParams,
    _chain,
    _two_mode,
    detuned_network,
    resonant_network,
    two_mode_network,
)
from .linalg import eigenvalues_hermitian
from .network import CoupledModeNetwork, new_networks
from .scattering import _member_stack, _pair_stack, _pair_transmission, transmission_grid

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
    the resonators directly with strength ``g``.  Any other kind, or a nonzero
    ``delta_mu`` on a kind that has no intermediate detuning, is a
    ``ValueError`` naming the field.  Calling the family builds its member at
    kappa, so it is one of the callables kappa -> network that
    :func:`efficiency_map` and :func:`optimize_kappa` take as a family;
    :meth:`members` builds many kappas as one validated stack.
    """

    kind: str
    g: float = 1.0
    delta_mu: float = 0.0

    def __post_init__(self):
        if self.kind not in ("resonant", "detuned", "two_mode"):
            raise ValueError(f"kind must be 'resonant', 'detuned' or 'two_mode', got {self.kind!r}")
        if self.kind != "detuned" and self.delta_mu != 0.0:
            raise ValueError(f"delta_mu applies only to kind 'detuned', got {self.delta_mu!r} for {self.kind!r}")

    def build(self, kappa: float) -> CoupledModeNetwork:
        if self.kind == "resonant":
            return resonant_network(ResonantParams(self.g, self.g, kappa, kappa))
        if self.kind == "detuned":
            return detuned_network(
                DetunedParams(self.g, self.g, kappa, kappa, delta_mu=self.delta_mu)
            )
        return two_mode_network(self.g, kappa, kappa)

    __call__ = build

    def members(self, kappas) -> list[CoupledModeNetwork]:
        """The member at each kappa of the 1-D ``kappas``, byte for byte ``[self.build(k) for k in kappas]``.

        The members come from one coupling and one damping stack, written by
        the same formula as :meth:`build` and validated at once by
        :func:`modeconv.network.new_networks`.
        """
        kappas = np.asarray(kappas, dtype=float)
        if self.kind == "two_mode":
            return new_networks(*_two_mode(self.g, kappas, kappas))
        # +0.0 for a resonant member, as resonant_network writes it, even for delta_mu = -0.0
        delta_mu = self.delta_mu if self.kind == "detuned" else 0.0
        return new_networks(*_chain(self.g, self.g, kappas, kappas, delta_mu))


def _members(family, kappas) -> list[CoupledModeNetwork]:
    """The members of ``family`` at ``kappas``.

    A :class:`ConverterFamily` builds them as one validated stack; any other
    callable kappa -> network is called once per kappa.
    """
    if isinstance(family, ConverterFamily):
        return family.members(kappas)
    return [family(float(k)) for k in kappas]


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
    etas = np.abs(transmission_grid(net, omega_grid, in_port, out_port, on_singular="nan")) ** 2
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


def _groups(nets, in_port, out_port):
    """The members of one batch, each between its ``port_pair(in_port, out_port)``, in groups.

    A group's members have one mode count and keep the same modes: those
    their coupling graph links to the pair.  Each mode count is stacked once
    (:func:`_member_stack`), and one whose members all keep every mode is one
    group, handed over without a copy.  Yields (rows, level): the group's
    indices in ``nets`` and the arguments of :func:`_level_set_matrices` but
    gamma, whose first three are those of :func:`_pair_stack` too; only a
    caller that solves builds that stack.
    """
    sizes = [net.n_modes for net in nets]
    for n in sorted(set(sizes)):
        rows = np.array([j for j, size in enumerate(sizes) if size == n])
        coupling, damping, modes = _member_stack([nets[j] for j in rows], in_port, out_port)
        linked = coupling != 0.0
        # the pair and its neighbors, then every mode linked to them
        reach = (linked | np.eye(n, dtype=bool))[np.arange(len(rows))[:, None], modes].any(axis=1)
        full = reach.all()
        while not full:
            grown = reach | (reach[:, None, :] @ linked)[:, 0]
            if (grown == reach).all():
                break
            reach, full = grown, grown.all()
        if full:
            yield rows, (coupling, damping, modes, None)
            continue
        keeps, group = np.unique(reach, axis=0, return_inverse=True)
        for g, keep in enumerate(keeps):
            sel = np.flatnonzero(group.reshape(-1) == g)
            yield rows[sel], (coupling[sel], damping[sel], modes[sel], keep)


def _real_eigenvalues(stack, w_lo: float, w_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted real eigenvalues in (w_lo, w_hi) of each matrix of ``stack``, and how many there are.

    One stacked ``eigvals`` call.  Real means within REAL_AXIS_RTOL *
    ||matrix||_F of the real axis; the real part is kept.  The values come
    back as one (m, n) array, each row ascending and padded with +inf,
    beside the (m,) array of counts.
    """
    lam = np.linalg.eigvals(stack)
    real = np.abs(lam.imag) <= REAL_AXIS_RTOL * np.linalg.norm(stack, axis=(1, 2))[:, None]
    values = np.where(real & (lam.real > w_lo) & (lam.real < w_hi), lam.real, np.inf)
    values.sort(axis=1)
    return values, (values < np.inf).sum(axis=1)


def _level_set_matrices(coupling, damping, modes, keep, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """H = A - iK/2 of a group of networks, and their L_gamma on the modes ``keep`` (None: all).

    With (i, o) = ``modes[j]``, S_oi(omega) = D + C (omega - H)^-1 B for
    B = sqrt(k_i) e_i, C = i sqrt(k_o) e_o^T and feedthrough D = -1 when a
    port is driven into itself (0 otherwise).  For R = D^2 - gamma^2, nonzero
    when gamma < 1, the real eigenvalues of

        L_gamma = diag(H, H^H) - [[B D C, gamma B B^H], [gamma C^H C, C^H D B^H]] / R

    are the frequencies where |S_oi| = gamma (Boyd, Balakrishnan & Kabamba,
    MCSS 1989).  The four entries of the second term go in by fancy indexing
    for the whole stack, the two off-diagonal-block ones as L_gamma's only
    entries in those blocks.  L_gamma keeps only the modes ``keep``, which
    :func:`_groups` takes as those the coupling graph links to a port:
    leaving the others out keeps the crossings of a network with a decoupled
    dark mode bit for bit.  H is the whole network's, so its real
    eigenvalues are every pole.
    """
    h = coupling - 0.5j * (damping[:, None, :] * np.eye(coupling.shape[-1]))
    sub, at = h, modes  # H on the kept modes, and the pair's places among them
    if keep is not None:
        sub, at = h[:, keep][:, :, keep], np.cumsum(keep)[modes] - 1
    i, o = at.T
    n, member = sub.shape[-1], np.arange(len(h))
    d = 0.0 - (i == o)  # D: -1.0 or +0.0
    r = d * d - gamma * gamma
    k = damping[member[:, None], modes]
    feed = 1j * (np.sqrt(k[:, 0] * k[:, 1]) * d / r)
    n_i, n_o = i + n, o + n
    mats = np.zeros((len(h), 2 * n, 2 * n), dtype=complex)
    mats[member, i, o], mats[member, n_o, n_i] = feed, -feed  # E's entries in the diagonal blocks
    np.subtract(sub, mats[:, :n, :n], out=mats[:, :n, :n])
    np.subtract(sub.conj().transpose(0, 2, 1), mats[:, n:, n:], out=mats[:, n:, n:])
    side = -gamma * k / r[:, None]
    mats[member, i, n_i], mats[member, n_o, o] = side[:, 0], side[:, 1]
    return h, mats


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


def _group_ends(level, threshold: float, w_lo: float, w_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The interval edges of one group of :func:`_groups`, and each member's interval count.

    The edges come as one (intervals, 2) array in member order.  Cuts, gap
    midpoints and gap classes are (member x cut) arrays padded past each
    member's last cut, so finding the runs of gaps above the threshold and
    writing back the polished edges take one array operation each.
    """
    h, mats = _level_set_matrices(*level, math.sqrt(threshold))
    stack = _pair_stack(*level[:3])
    crossings, n_crossings = _real_eigenvalues(mats, w_lo, w_hi)
    poles, n_poles = _real_eigenvalues(h, w_lo, w_hi)
    m = len(h)
    cuts = np.concatenate((np.full((m, 1), w_lo), crossings, poles, np.full((m, 1), w_hi)), axis=1)
    cuts.sort(axis=1)
    last = 1 + n_crossings + n_poles  # the column of w_hi
    # Between consecutive cuts (crossings, poles and window ends) eta -
    # threshold keeps its sign, so the midpoint classifies the gap: one pair
    # solve covers every gap of every member.
    mids = (cuts[:, :-1] + cuts[:, 1:]) / 2.0
    gap = np.arange(mids.shape[1]) < last[:, None]
    g = np.full(mids.shape, np.nan)
    g[gap] = np.abs(_pair_transmission(stack, np.nonzero(gap)[0], mids[gap], "nan")) ** 2 - threshold
    if np.isnan(g[gap]).any():
        # A gap with a singular midpoint takes the midpoint and value of the
        # gap before it (leading ones those of the first classified gap), so
        # each polish bracket stays a true bracket.
        classified = np.isfinite(g)
        src = np.maximum.accumulate(np.where(classified, np.arange(g.shape[1]), -1), axis=1)
        src = np.where(src < 0, np.argmax(classified, axis=1)[:, None], src)
        mids, g = np.take_along_axis(mids, src, axis=1), np.take_along_axis(g, src, axis=1)
    above = np.zeros((m, mids.shape[1] + 2), dtype=bool)
    above[:, 1:-1] = (g >= 0.0) & gap
    member, at = np.nonzero(above[:, 1:] != above[:, :-1])
    runs, member = at.reshape(-1, 2), member[::2]  # each run's first and last cut
    ends = cuts[member[:, None], runs]
    inner = (runs > 0) & (runs < last[member, None])
    edge, cut = member[np.nonzero(inner)[0]], runs[inner]
    ends[inner] = _polish(
        stack, edge, threshold, cuts[edge, cut], mids[edge, cut - 1], g[edge, cut - 1], mids[edge, cut], g[edge, cut]
    )
    return ends, np.bincount(member, minlength=m)


def _bandwidth_reports(nets, in_port, out_port, threshold: float, omega_range) -> list[BandwidthReport]:
    """One :class:`BandwidthReport` per network, each between its ``port_pair(in_port, out_port)``.

    Networks are handled one group of :func:`_groups` at a time: one
    ``eigvals`` call on the stack of their level-set matrices gives every
    crossing, one pair solve classifies the gaps between them, and one more
    polishes every edge.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    w_lo, w_hi = float(omega_range[0]), float(omega_range[1])
    if not (math.isfinite(w_lo) and math.isfinite(w_hi)) or w_hi < w_lo:
        raise ValueError(f"omega_range must be finite with min <= max, got {omega_range}")
    reports = [None] * len(nets)
    for rows, level in _groups(nets, in_port, out_port):
        ends, counts = _group_ends(level, threshold, w_lo, w_hi)
        edges = iter([Interval(lo=lo, hi=hi) for lo, hi in ends.tolist()])
        for row, count in zip(rows.tolist(), counts.tolist()):
            part = tuple(itertools.islice(edges, count))
            reports[row] = BandwidthReport(float(threshold), part, max((iv.width for iv in part), default=0.0))
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
    return _bandwidth_reports([net], in_port, out_port, threshold, omega_range)[0]


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

    Rows follow ``kappa_grid`` ascending, columns ``omega_grid`` ascending;
    each member's eta is between its default ``port_pair()``.  Singular
    points (possible only for undamped members) are recorded as NaN gaps with
    a warning, as in :func:`efficiency_curve`.

    The members go through the batches of :func:`optimize_kappa`, stacked
    once per mode count, and each row is one pair solve of one member over
    omega, so the solve holds one row's systems at a time: a row is byte for
    byte that member's :func:`transmission_grid` between its default ports.
    """
    kappas = _ascending_grid("kappa_grid", kappa_grid)
    omegas = _ascending_grid("omega_grid", omega_grid)
    etas = np.empty((len(kappas), len(omegas)))
    for rows, level in _groups(_members(family, kappas), None, None):
        stack = _pair_stack(*level[:3])
        for i, row in enumerate(rows.tolist()):
            etas[row] = np.abs(_pair_transmission(stack, i, omegas, "nan")) ** 2
    gap_count = int(np.count_nonzero(~np.isfinite(etas)))
    if gap_count:
        warnings.warn(f"map contains {gap_count} singular grid points recorded as NaN", stacklevel=2)
    etas.setflags(write=False)
    return EfficiencyMap(kappas=kappas.copy(), omegas=omegas.copy(), etas=etas)


def _crossing_counts(nets, in_port, out_port, threshold: float, omega_range) -> np.ndarray:
    """Each network's number of threshold crossings in the window, as one batch.

    A crossing is a real eigenvalue of the network's level-set matrix
    L_gamma, gamma = sqrt(threshold), inside ``omega_range``; one stacked
    ``eigvals`` call per group of :func:`_groups` counts them all, with no
    pole solve and no pair solve.
    """
    gamma, w_lo, w_hi = math.sqrt(threshold), float(omega_range[0]), float(omega_range[1])
    counts = np.empty(len(nets), dtype=int)
    for rows, level in _groups(nets, in_port, out_port):
        counts[rows] = _real_eigenvalues(_level_set_matrices(*level, gamma)[1], w_lo, w_hi)[1]
    return counts


def optimize_kappa(
    family,
    threshold: float,
    kappa_range,
    coarse_points: int = COARSE_KAPPA_POINTS,
    omega_range=None,
) -> tuple[float, float]:
    """Damping that maximizes the widest above-threshold interval.

    ``family`` is any callable kappa -> network (a :class:`ConverterFamily`
    is one, and builds each batch of members as one validated stack); each
    member converts between its default ``port_pair()``.  The coarse grid
    over ``kappa_range`` (default 201 points) is one batch: one eigen-solve
    stack for all its members.  The width is discontinuous where branches
    merge, which is where the number of crossings (real eigenvalues of the
    level-set matrix in the window) changes.  For each neighbor of the best
    grid point whose crossing count differs from its own, the pair is
    bisected on the count to a bracket of 1e-12 * max(1, range width), or
    until its ends are adjacent floats.  Each eigen-solve batch counts the
    midpoint and both midpoints the step after it can visit, so one batch
    of at most three members takes two binary steps; the bracket is the one
    a step at a time would reach.  One batched report then measures both ends
    of every bracket.  When no bracket end is wider than the best grid point
    (no neighbor differs in count, or the merge is narrower: a smooth
    interior maximum), golden section between the neighbors refines instead,
    one batch of one member per step.  Every width is measured the same way,
    and the optimizer returns the first widest (kappa, width) pair it
    evaluated anywhere, in evaluation order, never a merely-converged-to
    point.  A single-point range returns that kappa with its width.  When
    every width it evaluated is 0 (no member reaches the threshold in the
    window), it returns ``(kappa_range[0], 0.0)`` with a ``UserWarning``.
    ``coarse_points`` must be an integer >= 2.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    whole = isinstance(coarse_points, (int, np.integer)) and not isinstance(coarse_points, bool)
    if not whole or coarse_points < 2:
        raise ValueError(f"coarse_points must be an integer >= 2, got {coarse_points!r}")
    k_lo, k_hi = float(kappa_range[0]), float(kappa_range[1])
    if not (0.0 < k_lo <= k_hi) or not math.isfinite(k_hi):
        raise ValueError(f"kappa_range must be finite with 0 < min <= max, got {kappa_range}")

    if omega_range is None:
        omega_range = default_omega_window(family((k_lo + k_hi) / 2.0))
    seen = []  # (kappa, width) of every member measured, in evaluation order

    def widths_at(kappas) -> list[float]:
        reports = _bandwidth_reports(_members(family, kappas), None, None, threshold, omega_range)
        seen.extend((float(k), report.max_width) for k, report in zip(kappas, reports))
        return [report.max_width for report in reports]

    def best() -> tuple[float, float]:
        kappa, width = max(seen, key=lambda entry: entry[1])  # the first of the widest
        if width == 0.0:
            warnings.warn(
                f"no member reaches threshold {threshold} in the omega window "
                f"({float(omega_range[0]):g}, {float(omega_range[1]):g}); width 0 at kappa {kappa:g}",
                stacklevel=3,
            )
        return kappa, width

    if k_lo == k_hi:
        widths_at([k_lo])
        return best()

    ks = np.linspace(k_lo, k_hi, int(coarse_points))
    widths = widths_at(ks)
    best_i = int(np.argmax(widths))
    near = sorted({max(best_i - 1, 0), best_i, min(best_i + 1, len(ks) - 1)})
    counts = dict(zip(near, _crossing_counts(_members(family, ks[near]), None, None, threshold, omega_range)))
    tol = 1e-12 * max(1.0, k_hi - k_lo)

    def midpoint(a, b):
        """The bisection's next kappa in [a, b], or None where it stops."""
        mid = (a + b) / 2.0
        # Ends that are adjacent floats mean tol is below one ulp of kappa.
        return mid if b - a > tol and mid not in (a, b) else None

    brackets = []
    for i, j in zip(near, near[1:]):
        if counts[i] == counts[j]:
            continue
        a, b = float(ks[i]), float(ks[j])
        mid = midpoint(a, b)
        while mid is not None:
            batch = [k for k in (mid, midpoint(a, mid), midpoint(mid, b)) if k is not None]
            counted = dict(zip(batch, _crossing_counts(_members(family, batch), None, None, threshold, omega_range)))
            while mid in counted:  # popped: a step that could not move the bracket asks for a new batch
                if counted.pop(mid) == counts[i]:
                    a = mid
                else:
                    b = mid
                mid = midpoint(a, b)
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
