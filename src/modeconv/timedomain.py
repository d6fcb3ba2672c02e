"""Direct time integration of the coupled-mode Langevin equation.

The mean (classical coherent) amplitudes obey exactly

    da/dt = -i A a - (K/2) a - sqrt(K) a_in(t) = -i H a - sqrt(K) a_in(t),

with H = A - iK/2 (:func:`modeconv.network.effective_hamiltonian`), which this
module integrates with fixed-step classical Runge-Kutta (RK4) as an independent
cross-check of the frequency-domain scattering engine: driving one port with a
slowly ramped monochromatic tone and demodulating the late-time output
reproduces the corresponding S-matrix element.

Drive signals are sampled on the half-step grid t_j = j*dt/2 (2*n_steps + 1
samples for n_steps integration steps), so the RK4 stages consume exact drive
values at t, t + dt/2 and t + dt and the integrator keeps its full 4th-order
accuracy for driven systems; per-step sampling with interpolated midpoints
would silently degrade it to 2nd order.

Because the equation is linear, one RK4 step is exactly an affine map
a -> P a + k_i: P is the 4th-degree Taylor polynomial of e^{M dt} and each
drive term k_i is a fixed combination of the step's three half-step samples.
The integrator builds P and every k_i with a few matrix products before it
steps, so the time loop does one matrix-vector product per step; the result
is the four-stage RK4 result up to rounding.

Drives enter and outputs leave at the ports (damped modes) alone, with
a_out = -sqrt(K) a - a_in, so drive, forcing and output arrays hold one row
per port; the amplitudes of every mode are stored once, in the record returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergentError, StepTooLargeError
from .formatting import csv_text
from .network import CoupledModeNetwork, effective_hamiltonian
from .scattering import transmission

# dt must satisfy dt <= MAX_STEP_FACTOR / (fastest rate); the default step is
# DEFAULT_STEP_FACTOR / (fastest rate).
MAX_STEP_FACTOR = 0.01
DEFAULT_STEP_FACTOR = 0.005

# Demodulation averages the last quarter of the run; the convergence gate
# compares the two halves of the last tenth.
DEMOD_WINDOW_FRACTION = 0.25
DRIFT_WINDOW_FRACTION = 0.10
DRIFT_LIMIT = 1e-4


@dataclass(frozen=True)
class DriveSignal:
    """Input field entering one port, sampled on the half-step grid (see module docstring)."""

    port: str
    samples: np.ndarray


@dataclass(frozen=True)
class SimResult:
    """Integration record: times, per-mode amplitudes, per-port outputs.

    ``mode_amplitudes[m, t]`` follows label order; ``outputs[p, t]`` follows
    port order and already includes the -a_in term of the output relation.
    """

    times: np.ndarray
    mode_amplitudes: np.ndarray
    outputs: np.ndarray


def _max_rate(net: CoupledModeNetwork) -> float:
    rate = float(np.abs(net.coupling).max()) if net.coupling.size else 0.0
    if net.damping.size:
        rate = max(rate, float(net.damping.max()))
    return rate


def integrate(
    net: CoupledModeNetwork,
    drives,
    t_max: float,
    dt: float,
    initial_amplitudes=None,
) -> SimResult:
    """Evolve the network for n_steps = round(t_max / dt) classical RK4 steps.

    Each step is applied as its precomputed affine map (see the module
    docstring), which is 4th-order RK4 on the half-step drive samples.

    ``drives`` is a list of :class:`DriveSignal`, at most one per port, each
    carrying 2*n_steps + 1 half-step samples covering [0, t_max]; drives and
    outputs are rows in port order, the amplitudes rows in label order.  Raises
    :class:`StepTooLargeError` when dt exceeds MAX_STEP_FACTOR over the fastest
    rate in the network (largest coupling entry or damping rate).  A
    non-finite ``t_max`` or initial amplitude, or a ``dt`` that is not
    positive and finite, is a ``ValueError`` naming it.
    """
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    n_steps = int(round(t_max / dt))
    if n_steps < 1:
        raise ValueError(f"t_max={t_max} spans no steps at dt={dt}")
    rate = _max_rate(net)
    if rate > 0.0 and dt > MAX_STEP_FACTOR / rate:
        raise StepTooLargeError(
            f"dt={dt:g} exceeds {MAX_STEP_FACTOR}/max_rate={MAX_STEP_FACTOR / rate:g}; "
            "the step cannot resolve the fastest dynamics"
        )
    n = net.n_modes
    ports, port_labels = net.ports(), net.port_labels()
    n_half = 2 * n_steps + 1

    drive_samples = np.zeros((len(ports), n_half), dtype=complex)
    seen: set[str] = set()
    for drive in drives:
        if drive.port not in port_labels:
            raise ValueError(f"drive port {drive.port!r} is not a damped mode")
        if drive.port in seen:
            raise ValueError(f"duplicate drive for port {drive.port!r}")
        seen.add(drive.port)
        samples = np.asarray(drive.samples, dtype=complex)
        if samples.shape != (n_half,):
            raise ValueError(
                f"drive for port {drive.port!r} must supply {n_half} half-step samples "
                f"covering [0, t_max], got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"drive for port {drive.port!r} contains non-finite samples")
        drive_samples[port_labels.index(drive.port)] = samples

    sqrt_k = np.sqrt(net.damping[ports])
    forcing = -sqrt_k[:, None] * drive_samples
    m_op = -1j * effective_hamiltonian(net.coupling, net.damping)

    a = np.zeros(n, dtype=complex)
    if initial_amplitudes is not None:
        a = np.asarray(initial_amplitudes, dtype=complex)
        if a.shape != (n,):
            raise ValueError(f"initial amplitudes must have shape ({n},), got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"initial amplitudes must be finite, got {a[~np.isfinite(a)][0]}")

    # One RK4 step of da/dt = M a + f(t), M = -iH, is the affine map a -> P a + k_i
    # with h = dt M, P = I + h + h^2/2 + h^3/6 + h^4/24 and
    # k_i = dt/6 [(I + h + h^2/2 + h^3/4) f_2i + (4I + 2h + h^2/2) f_2i+1 + f_2i+2],
    # where f_j is the forcing at half-step sample j.  f is zero off the ports,
    # so only the weights' port columns enter.  Rows here are time steps.
    eye = np.eye(n)
    h = dt * m_op
    h2 = h @ h
    h3 = h2 @ h
    propagator = eye + h + h2 / 2.0 + h3 / 6.0 + h3 @ h / 24.0
    kicks = forcing[:, 0:-1:2].T @ (eye + h + h2 / 2.0 + h3 / 4.0)[:, ports].T
    kicks += forcing[:, 1::2].T @ (4.0 * eye + 2.0 * h + h2 / 2.0)[:, ports].T
    kicks[:, ports] += forcing[:, 2::2].T
    kicks *= dt / 6.0

    amplitudes = np.empty((n, n_steps + 1), dtype=complex)
    amplitudes[:, 0] = a
    for i in range(n_steps):
        a = propagator @ a + kicks[i]
        amplitudes[:, i + 1] = a

    times = np.arange(n_steps + 1) * dt
    outputs = -sqrt_k[:, None] * amplitudes[ports] - drive_samples[:, ::2]
    return SimResult(times=times, mode_amplitudes=amplitudes, outputs=outputs)


def steady_state_response(
    net: CoupledModeNetwork,
    omega: float,
    in_port: str,
    out_port: str,
    amplitude: complex = 1.0,
) -> tuple[complex, SimResult]:
    """Drive ``in_port`` at frequency omega and demodulate the ``out_port`` output.

    The drive amplitude ramps on over 20/kappa_min with a half-Gaussian envelope
    (sigma = ramp/4) to avoid exciting off-resonant transients, then holds until
    t = ramp + 40/kappa_min.  The step is DEFAULT_STEP_FACTOR over the larger of
    the fastest rate and |omega|; :func:`integrate` takes any other step.  The
    returned ratio, read from ``out_port``'s output row, is the mean of
    output * e^{+i omega t} over the last quarter of the run, divided by the
    drive amplitude; a zero amplitude returns ratio 0.  Raises
    :class:`NonConvergentError` when the demodulated ratio still drifts by more
    than 1e-4 across the last tenth of the run.  A non-finite ``omega`` or
    ``amplitude``, or a port that
    :meth:`~modeconv.network.CoupledModeNetwork.port_pair` rejects, is an
    error naming it, raised before any integration.
    """
    omega = float(omega)
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    in_port, out_port = net.port_pair(in_port, out_port)
    ports = net.ports()
    out_row = net.port_labels().index(out_port)
    kappa_min = float(net.damping[ports].min())
    t_ramp = 20.0 / kappa_min
    t_total = t_ramp + 40.0 / kappa_min
    rate = max(_max_rate(net), abs(omega))
    dt = DEFAULT_STEP_FACTOR / rate
    n_steps = int(math.ceil(t_total / dt))
    t_max = n_steps * dt

    t_half = np.arange(2 * n_steps + 1) * (dt / 2.0)
    sigma = t_ramp / 4.0
    envelope = np.where(
        t_half < t_ramp, np.exp(-((t_half - t_ramp) ** 2) / (2.0 * sigma**2)), 1.0
    )
    samples = amplitude * envelope * np.exp(-1j * omega * t_half)
    result = integrate(net, [DriveSignal(port=in_port, samples=samples)], t_max, dt)

    demodulated = result.outputs[out_row] * np.exp(1j * omega * result.times)
    if amplitude == 0.0:
        return 0.0 + 0.0j, result
    demodulated = demodulated / amplitude

    n_times = len(result.times)
    drift_start = n_times - max(int(DRIFT_WINDOW_FRACTION * n_times), 4)
    mid = (drift_start + n_times) // 2
    first = complex(demodulated[drift_start:mid].mean())
    second = complex(demodulated[mid:].mean())
    if abs(second - first) > DRIFT_LIMIT:
        raise NonConvergentError(
            f"demodulated ratio drifts by {abs(second - first):.2e} over the last "
            f"{DRIFT_WINDOW_FRACTION:.0%} of the run (limit {DRIFT_LIMIT:g})"
        )
    window = n_times - max(int(DEMOD_WINDOW_FRACTION * n_times), 4)
    ratio = complex(demodulated[window:].mean())
    return ratio, result


def steady_state_transmission(
    net: CoupledModeNetwork, omega: float, in_port: str, out_port: str
) -> complex:
    """Late-time output/drive ratio; matches the S-matrix element within ~1e-3."""
    ratio, _ = steady_state_response(net, omega, in_port, out_port)
    return ratio


def frequency_domain_check(
    net: CoupledModeNetwork, omega: float, in_port: str, out_port: str
) -> tuple[complex, complex, float]:
    """(time-domain ratio, frequency-domain S element, absolute difference)."""
    ratio = steady_state_transmission(net, omega, in_port, out_port)
    reference = transmission(net, omega, in_port, out_port)
    return ratio, reference, abs(ratio - reference)


def trace_csv_text(net: CoupledModeNetwork, result: SimResult) -> str:
    """CSV trace: time, each mode's re/im, each port output's re/im."""
    header = ["time"]
    for label in net.labels:
        header += [f"{label}_re", f"{label}_im"]
    for label in net.port_labels():
        header += [f"out_{label}_re", f"out_{label}_im"]
    columns = [result.times]
    for amps in (*result.mode_amplitudes, *result.outputs):
        columns += [amps.real, amps.imag]
    return csv_text(",".join(header), np.column_stack(columns))
