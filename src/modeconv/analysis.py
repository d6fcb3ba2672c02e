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
midpoints.  Several members (the optimizer's coarse kappa grid) go through
the same path as one batch with one port pair: one ``eigvals`` call on the
stack of each group's L (:func:`_groups`: cut down to the modes the coupling
graph links to the pair and grouped by them), one pair solve for every gap
midpoint and one for every edge.  Crossings come back padded with +inf, so
each other step is one array operation on (member x cut) arrays, with no
loop over members.

A batch is a (rows, coupling, damping, modes) stack of members that share
their labels, and :func:`modeconv.scattering._stacks` is the only place
networks become batches: one per label tuple, with each pair resolved once
by ``_pair_modes``.  :func:`_batches` is the only place a family becomes
batches: a :class:`modeconv.converter.ConverterFamily` hands over its
validated stack, with no network built, and any other family is called once
per kappa and its networks go through ``_stacks``.  The kappa search resolves
its family once, by :func:`_members`: a ConverterFamily is validated, its
pair resolved and its groups found on the coarse grid alone, and every later
batch is the same coupling and modes beside the damping kappa times the
family's unit row, since kappa moves no link of the coupling graph; any
other family goes through ``_batches`` and :func:`_groups` for every batch.
Past that point everything works on stacks: groups, edges, crossing counts,
pair solves and map rows.  Network objects appear only at the edges, where
the public report functions take one and a callable family gives them; only
reports and maps build the pair-solve arrays, and crossing counts read the
coupling and damping stacks alone.

The crossings and the window ends are the only cuts.  A real eigenvalue of H
is a pole: its mode x is undamped (Kx = 0), so it cancels from S_out,in and
eta is continuous through it, but the network is singular there.  A pole on
a kept mode is already a double real eigenvalue of L ([x; 0] and [0; x] are
both its eigenvectors); a mode the pair is not linked to is not solved at
all (a map keeps whole networks, so it reads NaN on such a pole).  A weakly
damped mode needs no cut either: eta is analytic through it.  A midpoint
the pair solve still flags singular lies between near-coincident cuts; its
gap takes the class of the gap before it (the first gap that of the next
classified gap).

The width-versus-kappa curve is discontinuous where separate branches merge into
one (the merged interval is suddenly much wider).  A merge is where the number
of crossings changes, so the optimizer evaluates a coarse grid as one batch,
then bisects on the crossing count between the best grid point and each
neighbor whose count differs, to a bracket of 1e-12 times the kappa range's
width.  The counts of the grid points come from the grid's own eigen-solve.
Each level-set eigen-solve batch counts the midpoint and the midpoints of
both its halves, the kappas the next two binary steps can visit, so a batch
of at most three members takes two steps, with no pair solve; one batch
measures the bracket ends.  The optimizer reads each member's widest width
from the edge arrays (:func:`_widths`) and builds no report.  Where no merge
beats the best grid point (a smooth maximum), golden section around it
refines instead, to 1e-8 times the range's width.  Either way the optimizer returns the best
evaluation it has seen.  Both tolerances are relative to the range, so
multiplying every rate by a power of two multiplies kappa* and the width by
it exactly.  Which kind builds which network is decided in
:mod:`modeconv.converter` alone: this module takes families and networks in
and gives reports, maps and optima out.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .converter import ConverterFamily
# Not called here: bench/tracing.py WRAP_POINTS wraps these two where this
# module looks them up, and tests/test_bench_names.py fails without them.
from .converter import detuned_network, resonant_network  # noqa: F401
from .linalg import eigenvalues_hermitian
from .network import CoupledModeNetwork, effective_hamiltonian
from .scattering import _pair_modes, _pair_stack, _pair_transmission, _stacks, transmission_grid

# Scan spacing of the merge-dip allowance in bench/oracles.py, its only reader.
DEFAULT_SCAN_POINTS = 4001
# The polishing rule |eta - threshold| <= ETA_REFINE_TOL at every edge.
ETA_REFINE_TOL = 1e-9
POLISH_STEPS = 60

# An eigenvalue of the level-set matrix within REAL_AXIS_RTOL * ||matrix||_F of
# the real axis counts as real: a threshold crossing (a pole counts twice).
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


def _batches(family, kappas):
    """The members of ``family`` at ``kappas`` as whole batches, each member between its default ``port_pair()``.

    A :class:`ConverterFamily` hands over its members as one validated
    stack, with every check and message of :meth:`ConverterFamily.members`
    and no network built; any other callable kappa -> network is called once
    per kappa and its networks stacked by
    :func:`modeconv.scattering._stacks`.  Yields what ``_stacks`` does, with
    ``rows`` the members' indices in ``kappas``.
    """
    if isinstance(family, ConverterFamily):
        labels, coupling, damping = family.stack(kappas)
        yield np.arange(len(damping)), coupling, damping, _pair_modes(labels, damping, None, None)
    else:
        yield from _stacks([family(float(k)) for k in kappas], None, None)


def _members(family, kappas):
    """``family`` resolved at ``kappas``: a function kappas -> the :func:`_groups` of its members there.

    The one place a family is resolved for the kappa search.  A
    :class:`ConverterFamily` is checked at ``kappas`` by :func:`_batches`,
    with every message there, and its coupling, its pair modes and the
    modes :func:`_groups` keeps are taken once, from those members: kappa
    scales the damping row and changes no link of the coupling graph, so
    each batch is only the damping ``np.multiply.outer(kappas, unit)``, with
    ``unit`` the family's damping row at kappa = 1.  kappa * 1.0 is kappa and
    kappa * 0.0 is +0.0, so that is the damping ``ConverterFamily.stack``
    writes.  Any other family is called once per kappa of every batch and
    grouped again.
    """
    if not isinstance(family, ConverterFamily):
        return lambda ks: _groups(_batches(family, ks))
    ((_, coupling, damping, modes),) = _groups(_batches(family, kappas))
    # Every member passed the checks, so kappa > 0 and kappa / kappa is exactly 1.0.
    coupling, unit, modes = coupling[0], damping[0] / kappas[0], modes[0]

    def members(ks):
        m = len(ks)
        return [(np.arange(m), np.broadcast_to(coupling, (m, *coupling.shape)), np.multiply.outer(ks, unit),
                 np.broadcast_to(modes, (m, 2)))]

    return members


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


def _bounds(name: str, values) -> tuple[float, float]:
    """The ends of the range ``values``, which must be a (min, max) pair."""
    try:
        lo, hi = values
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a (min, max) pair, got {values}") from None
    return float(lo), float(hi)


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


def _groups(batches):
    """The ``batches`` of :func:`_batches` or ``_stacks`` on the modes the port pair sees, in groups.

    A member keeps the modes its coupling graph links to the pair; no other
    mode takes part in S_out,in.  A group's members keep the same modes, and a
    stack whose members all keep every mode is one group, without a copy.
    Yields what ``_stacks`` does, with ``modes`` the pair's places among
    the kept modes.
    """
    for rows, coupling, damping, modes in batches:
        linked = coupling != 0.0
        # the pair and its neighbors, then every mode linked to them
        reach = (linked | np.eye(damping.shape[1], dtype=bool))[np.arange(len(rows))[:, None], modes].any(axis=1)
        full = reach.all()
        while not full:
            grown = reach | (reach[:, None, :] @ linked)[:, 0]
            if (grown == reach).all():
                break
            reach, full = grown, grown.all()
        if full:
            yield rows, coupling, damping, modes
            continue
        keeps, group = np.unique(reach, axis=0, return_inverse=True)
        for g, keep in enumerate(keeps):
            sel = np.flatnonzero(group.reshape(-1) == g)
            at = np.cumsum(keep)[modes[sel]] - 1
            yield rows[sel], coupling[sel][:, keep][:, :, keep], damping[sel][:, keep], at


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


def _level_set_matrices(coupling, damping, modes, gamma: float) -> np.ndarray:
    """L_gamma of each member of a group of :func:`_groups`.

    With H = A - iK/2 and (i, o) = ``modes[j]``, S_oi(omega) = D + C (omega -
    H)^-1 B for B = sqrt(k_i) e_i, C = i sqrt(k_o) e_o^T and feedthrough D =
    -1 when a port is driven into itself (0 otherwise).  For R = D^2 -
    gamma^2, nonzero when gamma < 1, the real eigenvalues of

        L_gamma = diag(H, H^H) - [[B D C, gamma B B^H], [gamma C^H C, C^H D B^H]] / R

    are the frequencies where |S_oi| = gamma (Boyd, Balakrishnan & Kabamba,
    MCSS 1989).  The four entries of the second term go in by fancy indexing
    for the whole stack, the two off-diagonal-block ones as L_gamma's only
    entries in those blocks.
    """
    h = effective_hamiltonian(coupling, damping)
    i, o = modes.T
    n, member = h.shape[-1], np.arange(len(h))
    d = 0.0 - (i == o)  # D: -1.0 or +0.0
    r = d * d - gamma * gamma
    k = damping[member[:, None], modes]
    feed = 1j * (np.sqrt(k[:, 0] * k[:, 1]) * d / r)
    n_i, n_o = i + n, o + n
    mats = np.zeros((len(h), 2 * n, 2 * n), dtype=complex)
    mats[member, i, o], mats[member, n_o, n_i] = feed, -feed  # E's entries in the diagonal blocks
    np.subtract(h, mats[:, :n, :n], out=mats[:, :n, :n])
    np.subtract(h.conj().transpose(0, 2, 1), mats[:, n:, n:], out=mats[:, n:, n:])
    side = -gamma * k / r[:, None]
    mats[member, i, n_i], mats[member, n_o, o] = side[:, 0], side[:, 1]
    return mats


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


def _group_ends(coupling, damping, modes, threshold: float, w_lo: float, w_hi: float) -> tuple:
    """The interval edges of one group of :func:`_groups`, each member's interval count and its crossing count.

    The edges come as one (intervals, 2) array in member order; the crossings
    are the real eigenvalues of L_gamma in the window, as
    :func:`_crossing_counts` counts them.  Cuts, gap midpoints and gap
    classes are (member x cut) arrays padded past each member's last cut, so
    finding the runs of gaps above the threshold and writing back the
    polished edges take one array operation each.
    """
    mats = _level_set_matrices(coupling, damping, modes, math.sqrt(threshold))
    crossings, n_crossings = _real_eigenvalues(mats, w_lo, w_hi)
    stack = _pair_stack(coupling, damping, modes)
    m = len(crossings)
    cuts = np.concatenate((np.full((m, 1), w_lo), crossings, np.full((m, 1), w_hi)), axis=1)
    cuts.sort(axis=1)
    last = 1 + n_crossings  # the column of w_hi
    # Between consecutive cuts (crossings and window ends) eta - threshold
    # keeps its sign, so the midpoint classifies the gap: one pair solve
    # covers every gap of every member.
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
    return ends, np.bincount(member, minlength=m), n_crossings


def _edges(groups, threshold: float, omega_range):
    """:func:`_group_ends` of each of the ``groups`` of :func:`_groups`, after the group's rows.

    Each group is one ``eigvals`` call on the stack of its level-set
    matrices, which gives every crossing, one pair solve that classifies the
    gaps between them and the window ends, and one more that polishes every
    edge.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    w_lo, w_hi = _bounds("omega_range", omega_range)
    if not (math.isfinite(w_lo) and math.isfinite(w_hi)) or w_hi < w_lo:
        raise ValueError(f"omega_range must be finite with min <= max, got {omega_range}")
    for rows, *group in groups:
        yield rows, *_group_ends(*group, threshold, w_lo, w_hi)


def _bandwidth_reports(nets, in_port, out_port, threshold: float, omega_range) -> list[BandwidthReport]:
    """One :class:`BandwidthReport` per network, each between its ``port_pair(in_port, out_port)``.

    The networks are stacked by ``_stacks``, grouped by :func:`_groups` and
    measured by :func:`_edges`.
    """
    reports = [None] * len(nets)
    for rows, ends, counts, _ in _edges(_groups(_stacks(nets, in_port, out_port)), threshold, omega_range):
        edges = iter([Interval(lo=lo, hi=hi) for lo, hi in ends.tolist()])
        for row, count in zip(rows.tolist(), counts.tolist()):
            part = tuple(itertools.islice(edges, count))
            reports[row] = BandwidthReport(float(threshold), part, max((iv.width for iv in part), default=0.0))
    return reports


def _widths(members, kappas, threshold: float, omega_range) -> tuple[np.ndarray, np.ndarray]:
    """The widest interval's width of each member at ``kappas`` of a family resolved by :func:`_members`, and its crossing count.

    ``members`` is the function :func:`_members` returns, and each member is
    between its default ``port_pair()``.  The widths are
    :func:`_bandwidth_reports`' ``max_width`` (0 where there is no interval),
    read from the edge arrays of :func:`_edges` with no report built.
    """
    widths, crossings = np.zeros(len(kappas)), np.empty(len(kappas), dtype=int)
    for rows, ends, counts, n_crossings in _edges(members(kappas), threshold, omega_range):
        np.maximum.at(widths, np.repeat(rows, counts), ends[:, 1] - ends[:, 0])
        crossings[rows] = n_crossings
    return widths, crossings


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

    The members are the whole batches of :func:`_batches`, not cut down to
    the modes the pair sees: a :class:`ConverterFamily` hands over one
    validated stack, any other family is stacked once per label tuple.  Each
    row is one pair solve of one member over omega, so the solve holds one
    row's systems at a time: a row is byte for byte that member's
    :func:`transmission_grid` between its default ports.
    """
    kappas = _ascending_grid("kappa_grid", kappa_grid)
    omegas = _ascending_grid("omega_grid", omega_grid)
    etas = np.empty((len(kappas), len(omegas)))
    for rows, *members in _batches(family, kappas):
        stack = _pair_stack(*members)
        for i, row in enumerate(rows.tolist()):
            etas[row] = np.abs(_pair_transmission(stack, i, omegas, "nan")) ** 2
    gap_count = int(np.count_nonzero(~np.isfinite(etas)))
    if gap_count:
        warnings.warn(f"map contains {gap_count} singular grid points recorded as NaN", stacklevel=2)
    etas.setflags(write=False)
    return EfficiencyMap(kappas=kappas.copy(), omegas=omegas.copy(), etas=etas)


def _crossing_counts(members, kappas, threshold: float, omega_range) -> np.ndarray:
    """Each member's number of threshold crossings in the window, as one batch.

    ``members`` is a family resolved by :func:`_members`.  A crossing is a
    real eigenvalue of the member's level-set matrix L_gamma, gamma =
    sqrt(threshold), inside ``omega_range``; one stacked ``eigvals`` call per
    group of ``members(kappas)`` counts them all, with no pair solve.
    """
    gamma, w_lo, w_hi = math.sqrt(threshold), float(omega_range[0]), float(omega_range[1])
    counts = np.empty(len(kappas), dtype=int)
    for rows, *group in members(kappas):
        counts[rows] = _real_eigenvalues(_level_set_matrices(*group, gamma), w_lo, w_hi)[1]
    return counts


def optimize_kappa(
    family,
    threshold: float,
    kappa_range,
    coarse_points: int = COARSE_KAPPA_POINTS,
    omega_range=None,
) -> tuple[float, float]:
    """Damping that maximizes the widest above-threshold interval.

    ``family`` is any callable kappa -> network; each member converts
    between its default ``port_pair()``.  The family is resolved once per
    call, by :func:`_members` on the coarse grid, and every batch of members
    comes from that resolution: a :class:`ConverterFamily` is validated,
    paired and grouped once and builds no network (but the one its default
    omega window comes from), each later batch only scaling its damping row;
    any other family is called once per kappa.  The coarse grid over
    ``kappa_range`` (default 201 points) is one batch: one eigen-solve stack
    for all its members, which gives each member's widest width and its
    crossing count.  The width is discontinuous where branches merge, which
    is where the number of crossings (real eigenvalues of the level-set
    matrix in the window) changes.  For each neighbor of the best grid point
    whose crossing count differs from its own, the pair is bisected on the
    count to a bracket of 1e-12 times the range's width, or until its ends
    are adjacent floats.  Each eigen-solve batch counts the midpoint and both
    midpoints the step after it can visit, so one batch of at most three
    members takes two binary steps; the bracket is the one a step at a time
    would reach.  One batch then measures both ends of every bracket.  When
    no bracket end is wider than the best grid point (no neighbor differs in
    count, or the merge is narrower: a smooth interior maximum), golden
    section between the neighbors refines instead, to 1e-8 times the range's
    width, one batch of one member per step.  Every width is read from the
    same edge arrays a report's would be, with no report built, and the
    optimizer returns the
    first widest (kappa, width) pair it evaluated anywhere, in evaluation
    order, never a merely-converged-to point.  A single-point range returns
    that kappa with its width.  When every width it evaluated is 0 (no
    member reaches the threshold in the window), it returns
    ``(kappa_range[0], 0.0)`` with a ``UserWarning``.  ``coarse_points``
    must be an integer >= 2.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    whole = isinstance(coarse_points, (int, np.integer)) and not isinstance(coarse_points, bool)
    if not whole or coarse_points < 2:
        raise ValueError(f"coarse_points must be an integer >= 2, got {coarse_points!r}")
    k_lo, k_hi = _bounds("kappa_range", kappa_range)
    if not (0.0 < k_lo <= k_hi) or not math.isfinite(k_hi):
        raise ValueError(f"kappa_range must be finite with 0 < min <= max, got {kappa_range}")

    if omega_range is None:
        omega_range = default_omega_window(family((k_lo + k_hi) / 2.0))
    ks = np.linspace(k_lo, k_hi, int(coarse_points)) if k_lo < k_hi else np.array([k_lo])
    members = _members(family, ks)
    seen = []  # (kappa, width) of every member measured, in evaluation order

    def widths_at(kappas) -> tuple[list[float], np.ndarray]:
        widths, crossings = _widths(members, kappas, threshold, omega_range)
        widths = widths.tolist()
        seen.extend(zip(map(float, kappas), widths))
        return widths, crossings

    def best() -> tuple[float, float]:
        kappa, width = max(seen, key=lambda entry: entry[1])  # the first of the widest
        if width == 0.0:
            warnings.warn(
                f"no member reaches threshold {threshold} in the omega window "
                f"({float(omega_range[0]):g}, {float(omega_range[1]):g}); width 0 at kappa {kappa:g}",
                stacklevel=3,
            )
        return kappa, width

    widths, crossings = widths_at(ks)
    if k_lo == k_hi:
        return best()

    best_i = int(np.argmax(widths))
    near = sorted({max(best_i - 1, 0), best_i, min(best_i + 1, len(ks) - 1)})
    counts = {i: crossings[i] for i in near}
    tol = 1e-12 * (k_hi - k_lo)

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
            counted = dict(zip(batch, _crossing_counts(members, batch, threshold, omega_range)))
            while mid in counted:  # popped: a step that could not move the bracket asks for a new batch
                if counted.pop(mid) == counts[i]:
                    a = mid
                else:
                    b = mid
                mid = midpoint(a, b)
        brackets += [a, b]
    if brackets and max(widths_at(brackets)[0]) > widths[best_i]:
        return best()

    a = float(ks[near[0]])
    b = float(ks[near[-1]])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    (fc,), _ = widths_at([c])
    (fd,), _ = widths_at([d])
    tol = 1e-8 * (k_hi - k_lo)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            (fd,), _ = widths_at([d])
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            (fc,), _ = widths_at([c])
    return best()
