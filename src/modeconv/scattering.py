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

Every route first reduces the network once, with Householder reflections
(Laub, IEEE TAC 1981): K + 2iA = Q H Q^H with Q unitary and H upper
Hessenberg, so M(omega) = Q (H - 2i omega I) Q^H.  Each frequency is then one
Hessenberg system, which the package's one elimination kernel solves in O(n^2)
rather than O(n^3); the drive enters as Q^H sqrt(K) e_in and the answer is read
out through the rows Q[out, :], one term-by-term sum in real arithmetic
(:func:`_read_out`) for every network.  A network that is already Hessenberg
(a chain, or modes coupled to nothing) needs no reflector and keeps Q = I
exactly, so its readout selects entries exactly, up to the sign of a zero.

There are two solves, each written once.  Transmissions of one port pair go
through the pair solve (:func:`_pair_transmission`): the (member, omega)
pairs of a stack of reduced networks are solved in chunks of consecutive
pairs, each chunk one :func:`modeconv.linalg.solve_batched` call on at most
``_PAIR_STACK_BYTES`` of systems, so memory stays bounded on networks of
hundreds of modes and the result is the same, bit for bit, as one stack.  A
chunk of one member broadcasts that member's H instead of gathering copies.
:func:`_member_stack` stacks a batch of networks of one mode count and one
port pair: :func:`transmission_grid` solves the stack of one network,
:func:`transmission` its grid of one frequency, and :mod:`modeconv.analysis`
whole batches (bandwidth reports, crossing counts, map rows).
Whole columns at one frequency go through the point solve (:func:`_solve_at`,
via :func:`modeconv.linalg.solve_with_condition`, which also reports the pivot
ratio as a conditioning estimate): :func:`scattering_matrix` drives every port,
:func:`internal_amplitudes` the given inputs.  Both solves run the same kernel
on the same reduced systems, so a point and a grid trip the same pivot test
and a singular frequency can never slip through disguised as a plausible
number.  The pivot threshold is relative to the Frobenius norm, which the
reduction preserves.  The reduction is normwise backward stable: S carries an
error of order n eps cond(M(omega)).  A non-finite drive frequency is a
``ValueError``, not a singular system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularAtFrequencyError, SingularMatrixError
from .linalg import solve_batched, solve_with_condition
from .network import CoupledModeNetwork

# Bytes of complex (pairs, n, n) stack that one chunk of the pair solve may
# hold; a chunk takes max(1, _PAIR_STACK_BYTES // (16 n^2)) pairs.
_PAIR_STACK_BYTES = 2**25


@dataclass(frozen=True)
class ScatteringResult:
    """Scattering matrix at one frequency, with a pivot-ratio conditioning estimate."""

    omega: float
    s: np.ndarray
    condition_estimate: float


def dynamical_matrix(net: CoupledModeNetwork, omega: float) -> np.ndarray:
    """M(omega) = K - 2i omega I + 2i A."""
    n = net.n_modes
    return (
        np.diag(net.damping).astype(complex)
        - 2j * omega * np.eye(n)
        + 2j * net.coupling
    )


def _solve_at(net: CoupledModeNetwork, omega: float, rhs) -> tuple[np.ndarray, float]:
    """M(omega)^-1 rhs in mode space, and the pivot ratio of the solve.

    The one single-frequency solve: it reduces the network, carries ``rhs``
    into the reduced basis and back, and turns a singular system into
    :class:`SingularAtFrequencyError`.
    """
    net.port_pair()  # NoPortsError for a network with no damped mode
    h, q = _reduced(net)
    try:
        y, condition = solve_with_condition(_shifted(h, [omega])[0], _read_out(q.conj().T, rhs))
    except SingularMatrixError as exc:
        raise SingularAtFrequencyError(omega) from exc
    return _read_out(q, y), condition


def internal_amplitudes(net: CoupledModeNetwork, omega: float, a_in) -> np.ndarray:
    """Steady-state amplitude of every mode for the given per-port inputs.

    ``a_in`` lists one complex amplitude per port, in port order.
    """
    ports = net.ports()
    a_in = np.asarray(a_in, dtype=complex)
    if a_in.shape != (len(ports),):
        raise ValueError(f"expected {len(ports)} port inputs, got shape {a_in.shape}")
    drive = np.zeros(net.n_modes, dtype=complex)
    drive[ports] = np.sqrt(net.damping[ports]) * a_in
    return _solve_at(net, omega, -2.0 * drive[:, None])[0][:, 0]


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
    x, condition = _solve_at(net, omega, columns)
    s = 2.0 * (roots[:, None] * x[ports]) - np.eye(len(ports))
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
    return _pair_transmission(_member_stack([net], in_port, out_port)[0], 0, omegas, on_singular)


def _reduced(net: CoupledModeNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Householder reduction K + 2iA = Q H Q^H, with H upper Hessenberg and Q unitary.

    A column already zero below its subdiagonal gets no reflector, so a network
    that is already Hessenberg (a chain, or uncoupled modes) keeps Q = I and
    H = K + 2iA exactly.
    """
    h = np.diag(net.damping).astype(complex) + 2j * net.coupling
    n = len(h)
    q = np.eye(n, dtype=complex)
    for k in range(n - 2):
        x = h[k + 1 :, k]
        if not x[1:].any():
            continue
        v = x.copy()
        v[0] += np.exp(1j * np.angle(x[0])) * np.linalg.norm(x)
        v /= np.linalg.norm(v)
        h[k + 1 :, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1 :, k:])
        h[:, k + 1 :] -= 2.0 * np.outer(h[:, k + 1 :] @ v, v.conj())
        q[:, k + 1 :] -= 2.0 * np.outer(q[:, k + 1 :] @ v, v.conj())
        h[k + 2 :, k] = 0.0
    return h, q


def _shifted(h, omegas) -> np.ndarray:
    """The stack H - 2i omega I over ``omegas``: M(omega) in the reduced basis.

    ``h`` is one (n, n) matrix or one per frequency.  The result is an
    (m, n, n) view of memory laid out (n, n, m), batch-last, which is the
    layout the elimination kernel works in, so its one copy is a straight one.
    """
    omegas = np.asarray(omegas, dtype=float)
    if not np.isfinite(omegas).all():
        raise ValueError(f"drive frequency must be finite, got {omegas[~np.isfinite(omegas)][0]}")
    n = h.shape[-1]
    work = np.empty((n, n, len(omegas)), dtype=complex)
    stack = work.transpose(2, 0, 1)
    stack[...] = h
    shift = 2j * omegas
    for i in range(n):
        work[i, i] -= shift
    return stack


def _read_out(rows, y) -> np.ndarray:
    """``rows @ y`` for rows (..., n) and y (..., n, k), taken in mode order.

    The sum runs term by term in real arithmetic: numpy's complex multiply may
    fuse its products or not depending on the array layout, and a single
    frequency and a grid, laid out differently, must round their readout
    alike.  Unit rows (modes no reflector touched) give the selected entries
    exactly, up to the sign of a zero.
    """
    re = im = 0.0
    for j in range(rows.shape[-1]):
        w, v = rows[..., j : j + 1], y[..., j, :]
        re = re + (w.real * v.real - w.imag * v.imag)
        im = im + (w.real * v.imag + w.imag * v.real)
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _member_stack(nets, in_port, out_port) -> tuple:
    """A batch of networks of one mode count as stacks, for the pair solve and the level-set matrices.

    Each member converts between its ``port_pair(in_port, out_port)``.  The
    stack K + 2iA is built at once, and only a member with an entry below the
    subdiagonal is reduced (:func:`_reduced`): the others keep Q = I.  Returns
    the pair-solve arrays (H as an (m, n, n) stack, the reduced drive
    Q^H sqrt(K_in) e_in as an (m, n, 1) stack, the readout rows Q[out, :], the
    readout factors 2 sqrt(K_out), and whether each member's ports coincide),
    then the coupling and damping stacks and the (m, 2) mode indices of each
    member's (in, out) pair.
    """
    modes = np.array([[net.index_of(label) for label in net.port_pair(in_port, out_port)] for net in nets])
    coupling = np.array([net.coupling for net in nets])
    damping = np.array([net.damping for net in nets])
    m, n = damping.shape
    member, in_modes, out_modes = np.arange(m), modes[:, 0], modes[:, 1]
    lower = coupling[:, np.tri(n, k=-2, dtype=bool)].any(axis=1)
    reduced = [(j, *_reduced(nets[j])) for j in np.flatnonzero(lower)]
    h = np.zeros((m, n, n), dtype=complex)
    h.reshape(m, -1)[:, :: n + 1] = damping
    h += 2j * coupling
    roots = np.sqrt(damping[member[:, None], modes])
    drive, readout = np.zeros((2, m, n), dtype=complex)
    drive[member, in_modes], readout[member, out_modes] = roots[:, 0], 1.0
    for j, h_j, q in reduced:
        h[j], drive[j], readout[j] = h_j, q[in_modes[j]].conj() * roots[j, 0], q[out_modes[j]]
    return (h, drive[:, :, None], readout, 2.0 * roots[:, 1], in_modes == out_modes), coupling, damping, modes


def _pair_transmission(stack, member, omegas, on_singular: str = "raise") -> np.ndarray:
    """Transmission of member ``member[j]`` of ``stack`` at ``omegas[j]``, for every pair j.

    ``member`` may also be one index for every pair (a frequency grid).  The
    pairs are solved in chunks of consecutive pairs, each one
    :func:`solve_batched` call on a stack of at most ``_PAIR_STACK_BYTES``
    (or of one pair, if a single system is larger), so memory stays bounded
    however many pairs there are.  A chunk whose pairs all belong to one
    member passes that member's arrays to broadcast over its pairs; only a
    chunk that mixes members gathers them.  Elimination is elementwise per
    system, so the chunking does not change a bit of the result.  A pair
    flagged singular raises :class:`SingularAtFrequencyError` at the first
    such omega (``on_singular="raise"``) or reads NaN (``"nan"``).
    """
    h, drive, readout, scale, same = stack
    members = np.broadcast_to(member, (len(omegas),))
    out = np.empty(len(members), dtype=complex)
    singular = np.empty(len(members), dtype=bool)
    size = max(1, _PAIR_STACK_BYTES // (16 * h.shape[-1] ** 2))
    for start in range(0, len(members), size):
        part = slice(start, start + size)
        k = members[part]
        if (k == k[0]).all():
            k = k[0]
        x, singular[part] = solve_batched(_shifted(h[k], omegas[part]), drive[k])
        np.multiply(scale[k], _read_out(readout[k], x)[:, 0], out=out[part])
        out[part] -= same[k]  # the feedthrough D = -1 where the ports coincide (x - 0 is x, bit for bit)
    if singular.any():
        if on_singular == "raise":
            raise SingularAtFrequencyError(float(omegas[np.argmax(singular)]))
        out[singular] = np.nan
    return out
