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

Both routes share the package's one elimination kernel.  A single frequency is
solved as a stack of one (:func:`modeconv.linalg.solve_with_condition`), which
raises on a near-singular system and reports the pivot ratio as a conditioning
estimate; a dense grid is solved as one stack over all frequencies
(:func:`modeconv.linalg.solve_batched`).  A grid point therefore gets the same
arithmetic and trips the same pivot test as a single-point call, and a singular
frequency can never slip through the fast path disguised as a plausible number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPortsError, SingularAtFrequencyError, SingularMatrixError
from .linalg import solve_batched, solve_with_condition
from .network import CoupledModeNetwork


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


def _port_drive(net: CoupledModeNetwork, a_in) -> np.ndarray:
    """Embed per-port inputs into mode space, scaled by sqrt(K)."""
    ports = net.ports()
    a_in = np.asarray(a_in, dtype=complex)
    if a_in.shape != (len(ports),):
        raise ValueError(f"expected {len(ports)} port inputs, got shape {a_in.shape}")
    drive = np.zeros(net.n_modes, dtype=complex)
    for value, p in zip(a_in, ports):
        drive[p] = np.sqrt(net.damping[p]) * value
    return drive


def internal_amplitudes(net: CoupledModeNetwork, omega: float, a_in) -> np.ndarray:
    """Steady-state amplitude of every mode for the given per-port inputs.

    ``a_in`` lists one complex amplitude per port, in port order.
    """
    if not net.ports():
        raise NoPortsError("network has no damped modes to drive")
    rhs = -2.0 * _port_drive(net, a_in)
    try:
        amps, _ = solve_with_condition(dynamical_matrix(net, omega), rhs)
    except SingularMatrixError as exc:
        raise SingularAtFrequencyError(omega) from exc
    return amps


def scattering_matrix(net: CoupledModeNetwork, omega: float) -> ScatteringResult:
    """Full port-to-port scattering matrix at one frequency.

    Entry (i, j) is the amplitude leaving port i when unit amplitude enters
    port j.  Raises :class:`NoPortsError` for a network with no damped modes and
    :class:`SingularAtFrequencyError` when the dynamical matrix is singular.
    """
    ports = net.ports()
    if not ports:
        raise NoPortsError("network has no damped modes, so no scattering ports")
    m = dynamical_matrix(net, omega)
    roots = np.sqrt(net.damping[ports])
    rhs = np.zeros((net.n_modes, len(ports)), dtype=complex)
    for col, (p, root) in enumerate(zip(ports, roots)):
        rhs[p, col] = root
    try:
        x, condition = solve_with_condition(m, rhs)
    except SingularMatrixError as exc:
        raise SingularAtFrequencyError(omega) from exc
    s = 2.0 * (roots[:, None] * x[ports, :]) - np.eye(len(ports))
    return ScatteringResult(omega=float(omega), s=s, condition_estimate=condition)


def transmission(net: CoupledModeNetwork, omega: float, in_port: str, out_port: str) -> complex:
    """S-matrix element from ``in_port`` to ``out_port`` (labels of damped modes)."""
    result = scattering_matrix(net, omega)
    ports = net.ports()
    try:
        row = ports.index(net.index_of(out_port))
        col = ports.index(net.index_of(in_port))
    except ValueError:
        raise ValueError(
            f"ports must be damped modes; got {in_port!r} -> {out_port!r} "
            f"with ports {net.port_labels()}"
        ) from None
    return complex(result.s[row, col])


def transmission_grid(
    net: CoupledModeNetwork,
    omegas,
    in_port: str,
    out_port: str,
    on_singular: str = "raise",
) -> np.ndarray:
    """Transmission ``in_port -> out_port`` over a frequency grid.

    All frequencies are eliminated as one stack by the kernel the single-point
    path also uses, so the two agree wherever both are defined.
    ``on_singular`` chooses what a singular frequency does: ``"raise"``
    propagates :class:`SingularAtFrequencyError` (reporting the first offending
    omega), ``"nan"`` records NaN so callers can leave a gap in a curve.
    """
    if on_singular not in ("raise", "nan"):
        raise ValueError(f"on_singular must be 'raise' or 'nan', got {on_singular!r}")
    ports = net.ports()
    if not ports:
        raise NoPortsError("network has no damped modes, so no scattering ports")
    omegas = np.asarray(omegas, dtype=float)
    i_in = net.index_of(in_port)
    i_out = net.index_of(out_port)
    if i_in not in ports or i_out not in ports:
        raise ValueError(
            f"ports must be damped modes; got {in_port!r} -> {out_port!r} "
            f"with ports {net.port_labels()}"
        )
    n = net.n_modes
    base = np.diag(net.damping).astype(complex) + 2j * net.coupling
    stacked = base[None, :, :] - 2j * omegas[:, None, None] * np.eye(n)[None, :, :]
    rhs = np.zeros((n, 1), dtype=complex)
    rhs[i_in, 0] = np.sqrt(net.damping[i_in])
    x, singular = solve_batched(stacked, rhs)
    out = 2.0 * np.sqrt(net.damping[i_out]) * x[:, i_out, 0]
    if i_out == i_in:
        out -= 1.0
    if singular.any():
        if on_singular == "raise":
            raise SingularAtFrequencyError(float(omegas[np.argmax(singular)]))
        out[singular] = np.nan
    return out
