"""Frequency-domain scattering off a coupled-mode network.

For a drive at frequency omega (convention: time dependence e^{-i omega t}),
the steady-state mode amplitudes solve

    M(omega) a = -2 sqrt(K) a_in,      M(omega) = K - 2i omega I + 2i A,

and the outgoing fields follow from the input-output relation
a_out = -sqrt(K) a - a_in.  Eliminating the internal amplitudes gives the
scattering matrix on the damped modes (the ports),

    S(omega) = 2 sqrt(K) M(omega)^{-1} sqrt(K) - I,

restricted to port rows and columns.  With every undamped mode strictly
off-resonant, S is unitary; a drive hitting an undamped resonance makes
M singular, which surfaces as :class:`SingularAtFrequencyError` — the physical
statement that no steady state exists there.

A network with at most |P| + 2 undamped modes for |P| ports (every built-in
converter, and small networks with dark modes; :func:`_near_directions` sets
the 2) solves M(omega) itself, in mode order.  A larger one is solved in port
space, the exact form of the adiabatic elimination that
:func:`modeconv.ensemble.effective_network` approximates.  Its undamped
block is Hermitian: one ``eigh`` per batch (whose members share it),
A_UU = V diag(lam) V^H with W = A_PU V, leaves one bordered system per
frequency, whose unknowns are the ports, carrying

    K_PP + 2i (A_PP - omega) - 2i sum_far w_j w_j^H / (lam_j - omega),

and the |P| + 2 eigen-directions nearest omega, so a mode on omega never
enters as 1/0.  Inside a cluster of equal eigenvalues the basis is rotated by
an SVD of W, which puts the cluster's bright part in its first directions, and
those come first among equally near ones; a dark combination on omega then
keeps its zero pivot, so the singular frequencies stay the real eigenvalues of
H = A - iK/2.  The eigendecomposition is only normwise backward stable, so the
port-space solution is refined once: a residual against M(omega) itself, then
a replay of the same elimination.  A grid's bordered stack is eliminated once,
in place, and both passes substitute into that record, as iterative
refinement reuses its factorization; a point solve, which also reports the
pivot ratio, eliminates its stack of one for each pass.  Every product over
modes is taken one frequency at a time (stacked matrix-vector products, not
one matrix product across frequencies, whose rounding depends on how many
columns it has), so a single frequency and a grid round alike.

One function, :func:`_solve`, knows both kinds of system: it solves a K + 2iA
as M(omega) itself and a :class:`_PortSpace` by the bordered pass and its
refinement, which rebuilds the undamped modes only when the caller reads one.
So a point and a grid run the package's one elimination kernel on the same
systems and trip the same pivot test, and a singular frequency can never slip
through disguised as a plausible number.  The pair solve,
:func:`_pair_transmission` with :func:`modeconv.linalg.solve_batched`, gives
the transmissions of one port pair from a stack of :func:`_pair_stack`.
Networks become such batches in one way, :func:`_stacks`: one batch per label
tuple, coupling and set of damped modes, so its members share A_UU and one
port pair, which :func:`_pair_modes` resolves to mode indices once.
:func:`transmission_grid` solves the batch of one network, :func:`transmission`
its grid of one frequency, and :mod:`modeconv.analysis` whole batches.  The
point solve, :func:`_solve_at` with :func:`modeconv.linalg.solve_with_condition`
(which also reports the pivot ratio), gives whole columns at one frequency:
:func:`scattering_matrix` drives every port, :func:`internal_amplitudes` the
given inputs.  A non-finite drive frequency or input amplitude is a
``ValueError``, not a singular system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularAtFrequencyError, SingularMatrixError
from .linalg import _eliminate_stack, solve_batched, solve_with_condition
from .network import CoupledModeNetwork, _port_pair, effective_hamiltonian

# Eigenvalues of an undamped block closer than this times its largest
# magnitude form one cluster: one degenerate level split by rounding.
_CLUSTER_RTOL = 1e-12


@dataclass(frozen=True)
class ScatteringResult:
    """Scattering matrix at one frequency, with a pivot-ratio conditioning estimate."""

    omega: float
    s: np.ndarray
    condition_estimate: float


@dataclass(frozen=True)
class _PortSpace:
    """One network seen from its ports: A_UU = V diag(lam) V^H, W = A_PU V.

    ``lam`` ascends and is equal within a cluster, whose directions are
    ordered brightest first; ``outer[j]`` holds w_j w_j^H, flattened.  The
    members of a batch share every field but ``h``, their own K + 2iA.
    """

    ports: np.ndarray
    inner: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    w: np.ndarray
    outer: np.ndarray
    h: np.ndarray  # K + 2iA, for the residual


def dynamical_matrix(net: CoupledModeNetwork, omega: float) -> np.ndarray:
    """M(omega) = K - 2i omega I + 2i A."""
    return _shifted(2j * effective_hamiltonian(net.coupling, net.damping), np.array([omega]))[0]


def _frequencies(omegas) -> np.ndarray:
    omegas = np.asarray(omegas, dtype=float)
    if not np.isfinite(omegas).all():
        raise ValueError(f"drive frequency must be finite, got {omegas[~np.isfinite(omegas)][0]}")
    return omegas


def _solve_at(net: CoupledModeNetwork, omega: float, rhs, rows) -> tuple[np.ndarray, float]:
    """Rows ``rows`` of M(omega)^-1 rhs and the pivot ratio; a singular system is :class:`SingularAtFrequencyError`."""
    omegas = _frequencies([omega])
    net.port_pair()  # NoPortsError without a damped mode
    ratios = []

    def solve(mats, b):
        x, ratio = solve_with_condition(mats[0], b[0])
        ratios.append(ratio)
        return x[None], np.zeros(1, dtype=bool)

    try:
        x = _solve(_systems(net.coupling, net.damping[None])[0], omegas, rhs[None], rows, solve, eliminate=False)[0][0]
    except SingularMatrixError as exc:
        raise SingularAtFrequencyError(omega) from exc
    return x, ratios[0]


def internal_amplitudes(net: CoupledModeNetwork, omega: float, a_in) -> np.ndarray:
    """Steady-state amplitude of every mode for the given per-port inputs.

    ``a_in`` lists one complex amplitude per port, in port order.
    """
    ports = net.ports()
    a_in = np.asarray(a_in, dtype=complex)
    if a_in.shape != (len(ports),):
        raise ValueError(f"expected {len(ports)} port inputs, got shape {a_in.shape}")
    if not np.isfinite(a_in).all():
        raise ValueError(f"port inputs a_in must be finite, got {a_in[~np.isfinite(a_in)][0]}")
    drive = np.zeros(net.n_modes, dtype=complex)
    drive[ports] = np.sqrt(net.damping[ports]) * a_in
    return _solve_at(net, omega, -2.0 * drive[:, None], np.arange(net.n_modes))[0][:, 0]


def scattering_matrix(net: CoupledModeNetwork, omega: float) -> ScatteringResult:
    """Full port-to-port scattering matrix at one frequency.

    Entry (i, j) is the amplitude leaving port i when unit amplitude enters
    port j.  Raises :class:`NoPortsError` for a network with no damped modes and
    :class:`SingularAtFrequencyError` when the dynamical matrix is singular.
    """
    ports = net.ports()
    roots = np.sqrt(net.damping[ports])
    columns = np.zeros((net.n_modes, len(ports)), dtype=complex)
    columns[ports, range(len(ports))] = roots
    x, condition = _solve_at(net, omega, columns, ports)
    s = 2.0 * (roots[:, None] * x) - np.eye(len(ports))
    return ScatteringResult(omega=float(omega), s=s, condition_estimate=condition)


def transmission(net: CoupledModeNetwork, omega: float, in_port: str, out_port: str) -> complex:
    """S-matrix element from ``in_port`` to ``out_port``: a frequency grid of one."""
    return complex(transmission_grid(net, [omega], in_port, out_port)[0])


def transmission_grid(
    net: CoupledModeNetwork,
    omegas,
    in_port: str,
    out_port: str,
    on_singular: str = "raise",
) -> np.ndarray:
    """Transmission ``in_port -> out_port`` (labels of damped modes) over a frequency grid.

    ``omegas`` must be 1-D, or a ``ValueError`` names its shape; an empty grid
    gives an empty array.  ``on_singular`` chooses what a singular frequency
    does: ``"raise"`` propagates :class:`SingularAtFrequencyError` (reporting
    the first offending omega), ``"nan"`` records NaN so callers can leave a
    gap in a curve.
    """
    if on_singular not in ("raise", "nan"):
        raise ValueError(f"on_singular must be 'raise' or 'nan', got {on_singular!r}")
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1:
        raise ValueError(f"omegas must be a 1-D frequency grid, got shape {omegas.shape}")
    return _pair_transmission(_pair_stack(*next(_stacks([net], in_port, out_port))[1:]), 0, omegas, on_singular)


def _shifted(h, omegas) -> np.ndarray:
    """The stack H - 2i omega I over ``omegas``, laid out batch-last as the kernel works.

    ``h`` is one (n, n) matrix or one per frequency; the result is an
    (m, n, n) view of (n, n, m) memory, so the kernel's copy is a straight one.
    """
    n = h.shape[-1]
    work = np.empty((n, n, len(omegas)), dtype=complex)
    stack = work.transpose(2, 0, 1)
    stack[...] = h
    shift = 2j * omegas
    for i in range(n):
        work[i, i] -= shift
    return stack


def _port_space(coupling, damping, h) -> _PortSpace:
    """The port-space form of one network: one ``eigh`` of its undamped block.

    Within each cluster of eigenvalues (one level split by rounding) the
    directions are rotated by the right singular vectors of W on the cluster,
    so the bright part sits in its first directions and the rest are dark to
    rounding, and the cluster's eigenvalues are replaced by their mean.
    ``h`` is the network's K + 2iA, kept for the residual.
    """
    ports, inner = np.flatnonzero(damping > 0.0), np.flatnonzero(damping == 0.0)
    lam, v = np.linalg.eigh(coupling[np.ix_(inner, inner)])
    w = coupling[np.ix_(ports, inner)] @ v
    bounds = np.flatnonzero(np.diff(lam, prepend=-np.inf, append=np.inf) > _CLUSTER_RTOL * np.abs(lam).max(initial=0.0))
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s > 1:
            rotation = np.linalg.svd(w[:, s:e])[2].conj().T
            v[:, s:e], w[:, s:e], lam[s:e] = v[:, s:e] @ rotation, w[:, s:e] @ rotation, lam[s:e].mean()
    outer = (w[:, None, :] * w.conj()[None, :, :]).reshape(-1, len(inner)).T
    return _PortSpace(ports, inner, lam, v, w, outer, h)


def _near_directions(ports: int) -> int:
    """How many eigen-directions nearest omega a port space keeps as unknowns: |P| + 2.

    A network with no more undamped modes than this would keep every one, so
    :func:`_systems` solves it as M(omega) itself instead.
    """
    return ports + 2


def _port_system(space: _PortSpace, omegas) -> tuple:
    """The bordered matrices at ``omegas``, one per row, and what their unknowns mean.

    Returns the (m, q, q) stack, laid out batch-last as the kernel works, the
    (m, r) indices of the eigen-directions each row keeps as unknowns (the
    nearest, brightest first within a cluster), and the (m, u) weights
    1/(lam - omega) of the far ones (0 on the near ones).
    """
    p, m = len(space.ports), len(omegas)
    r = _near_directions(p)
    d = space.lam - omegas[:, None]
    near = np.argsort(np.abs(d), axis=1, kind="stable")[:, :r]
    at = np.arange(m)[:, None]
    far = np.ones(d.shape, dtype=bool)
    far[at, near] = False
    # A far level on omega belongs to a cluster wider than r > |P|, so with a
    # dark direction among the near ones: it is left out, and the pivot of
    # that direction flags omega.
    rf = np.divide(1.0, d, out=np.zeros(d.shape), where=far & (d != 0.0))
    w_near = space.w[:, near].transpose(1, 0, 2)
    work = np.zeros((p + r, p + r, m), dtype=complex)
    mats = work.transpose(2, 0, 1)
    mats[:, :p, :p] = space.h[np.ix_(space.ports, space.ports)] - 2j * (rf[:, None, :] @ space.outer).reshape(m, p, p)
    mats[:, :p, p:], mats[:, p:, :p] = 2j * w_near, 2j * w_near.conj().transpose(0, 2, 1)
    diagonal = np.concatenate((np.broadcast_to(-omegas[:, None], (m, p)), d[at, near]), axis=1)
    work.reshape(-1, m)[:: p + r + 1] += 2j * diagonal.T
    return mats, near, rf


def _port_pass(space: _PortSpace, system, b_p, c, solve, inner: bool):
    """One bordered solve for drives b_p (m, k, p) on the ports and c (m, k, u) on the eigen-directions.

    ``solve`` maps the stack and its (m, q, k) right-hand sides to the
    solutions and the mask of systems flagged singular.  Returns the
    amplitudes on the ports, or on every mode when ``inner``, and that mask.
    """
    mats, near, rf = system
    p, at = len(space.ports), np.arange(len(near))[:, None]
    cf = c * rf[:, None, :]  # far: c_j / (lam_j - omega)
    top, bottom = b_p - (cf[..., None, :] @ space.w.T)[..., 0, :], c[at, :, near].transpose(0, 2, 1)
    z, singular = solve(mats, np.concatenate((top, bottom), axis=2).transpose(0, 2, 1))
    # Contiguous, as every other operand: numpy multiplies strided vectors without BLAS.
    z = np.ascontiguousarray(z.transpose(0, 2, 1))
    if not inner:
        return z[..., :p], singular
    y = cf / 2j - (z[..., None, :p] @ space.w.conj())[..., 0, :] * rf[:, None, :]
    y[at, :, near] = z[..., p:].transpose(0, 2, 1)
    x = np.empty(z.shape[:2] + (len(space.h),), dtype=complex)
    x[..., space.ports] = z[..., :p]
    x[..., space.inner] = (y[..., None, :] @ space.v.T)[..., 0, :]
    return x, singular


def _solve(system, omegas, b, rows, solve, eliminate=True) -> tuple[np.ndarray, np.ndarray]:
    """The (m, r, k) stack x[j, rows[j]] of x = M(omega)^-1 b at each of ``omegas``, and the singular mask.

    ``system`` is one K + 2iA, a stack of one per frequency, or a
    :class:`_PortSpace`; ``b`` and ``rows`` (mode indices) are one (n, k)
    block and one row, or one per frequency; ``solve`` is the kernel.  A port
    space's bordered stack is eliminated once and both passes hand ``solve``
    that elimination, which :func:`modeconv.linalg.solve_batched` replays;
    with ``eliminate`` false they hand it the stack itself, as a point solve
    reporting its pivot ratio needs.  The refinement step rebuilds the
    undamped modes only if ``rows`` reads one.
    """
    if isinstance(system, _PortSpace):
        space, system = system, _port_system(system, omegas)
        if eliminate:
            # Eliminated in place: the stack's memory becomes the record both passes replay.
            system = (_eliminate_stack(system[0]),) + system[1:]
        inner = not set(np.ravel(rows).tolist()) <= set(space.ports.tolist())
        b = np.broadcast_to(b, (len(omegas),) + b.shape[-2:]).transpose(0, 2, 1)  # (m, k, n)
        no_inner_drive = np.zeros(b.shape[:2] + space.inner.shape, dtype=complex)
        x, singular = _port_pass(space, system, b[..., space.ports], no_inner_drive, solve, True)
        x[singular] = 0.0  # a flagged system's solution is meaningless, and may overflow the residual
        residual = b - (x[..., None, :] @ space.h.T)[..., 0, :] + 2j * omegas[:, None, None] * x
        c = (residual[..., None, space.inner] @ space.v.conj())[..., 0, :]  # V^H r_U
        step = _port_pass(space, system, residual[..., space.ports], c, solve, inner)[0]
        x = ((x if inner else x[..., space.ports]) + step).transpose(0, 2, 1)
        rows = rows if inner else np.searchsorted(space.ports, rows)
    else:
        x, singular = solve(_shifted(system, omegas), b)
    return x[np.arange(len(omegas))[:, None], rows], singular


def _stacks(nets, in_port, out_port):
    """The networks ``nets`` as batches, one per label tuple, coupling and set of damped modes, each between its ``port_pair(in_port, out_port)``.

    Yields (rows, coupling, damping, pair): the members' indices in
    ``nets``, their one (n, n) coupling, their (m, n) damping stack and the
    mode indices (in, out) of the one pair they share, from
    :func:`_pair_modes`: the arguments of :func:`_pair_stack`.  Members share
    a batch when their couplings are equal byte for byte and they damp the
    same modes, so networks built one at a time from one coupling, whose
    rates differ but not the modes they damp, form one batch.
    """
    batches: dict[tuple, list[int]] = {}
    for j, net in enumerate(nets):
        batches.setdefault((net.labels, net.coupling.tobytes(), (net.damping > 0.0).tobytes()), []).append(j)
    for (labels, *_), rows in batches.items():
        damping = np.array([nets[j].damping for j in rows])
        yield np.array(rows), nets[rows[0]].coupling, damping, _pair_modes(labels, damping, in_port, out_port)


def _pair_modes(labels, damping, in_port, out_port) -> np.ndarray:
    """The mode indices (in, out) of ``port_pair(in_port, out_port)``, for members sharing ``labels`` and damped modes.

    The only place a port pair becomes mode indices, resolved once from the
    (m, n) ``damping`` stack.  A ConverterFamily stack is the one batch
    :func:`_stacks` does not build: its members damp the same modes but at
    kappa = 0, where none is, so the first such member is the one resolved
    and raises :class:`NoPortsError`.
    """
    row = damping[np.argmin((damping > 0.0).any(axis=1))]
    return np.array([labels.index(label) for label in _port_pair(labels, row, in_port, out_port)])


def _systems(coupling, damping):
    """What :func:`_solve` works on: the stack 2iH = K + 2iA, or one :class:`_PortSpace` per member.

    ``coupling`` is the (n, n) matrix every member of the (m, n) ``damping``
    stack shares, and the members damp the same modes, so the choice is made
    once: members with more undamped modes than :func:`_near_directions`
    keeps share one ``eigh`` of A_UU, and each holds only its own K + 2iA.
    """
    h = 2j * effective_hamiltonian(coupling, damping)
    undamped = int((damping[0] == 0.0).sum())
    if undamped <= _near_directions(len(coupling) - undamped):
        return h
    space = _port_space(coupling, damping[0], h[0])
    return [replace(space, h=x) for x in h]


def _pair_stack(coupling, damping, pair) -> tuple:
    """The pair-solve arrays of a (coupling, damping, pair) batch of :func:`_stacks`.

    Returns the :func:`_systems`, the drives sqrt(K_in) e_in as an (m, n, 1)
    stack, the out mode, the readout factors 2 sqrt(K_out), and whether the
    ports coincide.
    """
    (m, n), (i, o) = damping.shape, pair
    roots = np.sqrt(damping[:, pair])
    drive = np.zeros((m, n, 1), dtype=complex)
    drive[:, i, 0] = roots[:, 0]
    return _systems(coupling, damping), drive, o, 2.0 * roots[:, 1], i == o


def _pair_transmission(stack, member, omegas, on_singular: str = "raise") -> np.ndarray:
    """Transmission of member ``member[j]`` of ``stack`` at ``omegas[j]``, for every pair j.

    ``member`` may also be one index for every pair (a frequency grid).
    Pairs of a stack of K + 2iA are one :func:`solve_batched` call; a list of
    port spaces solves each member's pairs as one grid.  A pair flagged singular
    raises :class:`SingularAtFrequencyError` at the first such omega
    (``on_singular="raise"``) or reads NaN (``"nan"``).
    """
    systems, drive, out_mode, scale, same = stack
    omegas = _frequencies(omegas)
    members = np.broadcast_to(member, (len(omegas),))
    x = np.empty((len(members), 1, 1), dtype=complex)
    singular = np.zeros(len(members), dtype=bool)
    if isinstance(systems, list):
        for k in np.unique(members).tolist():
            at = np.flatnonzero(members == k)
            x[at], singular[at] = _solve(systems[k], omegas[at], drive[k], [[out_mode]], solve_batched)
    elif len(members):
        k = members[0] if (members == members[0]).all() else members
        x, singular = _solve(systems[k], omegas, drive[k], [[out_mode]], solve_batched)
    out = scale[members] * x[:, 0, 0]
    out -= same  # the feedthrough D = -1 where the ports coincide (x - 0 is x, bit for bit)
    if singular.any():
        if on_singular == "raise":
            raise SingularAtFrequencyError(float(omegas[np.argmax(singular)]))
        out[singular] = np.nan
    return out
