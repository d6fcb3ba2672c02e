"""Tests for the RK4 integrator and the time/frequency cross-check."""

import tracemalloc

import numpy as np
import pytest

from modeconv import timedomain
from modeconv.converter import ResonantParams, resonant_network
from modeconv.ensemble import default_validation_ensemble, microscopic_network
from modeconv.errors import NonConvergentError, StepTooLargeError
from modeconv.network import new_network
from modeconv.timedomain import (
    DriveSignal,
    frequency_domain_check,
    integrate,
    steady_state_response,
    steady_state_transmission,
    trace_csv_text,
)
from modeconv.scattering import transmission


def one_mode(kappa=2.0):
    return new_network(("a",), np.zeros((1, 1)), (kappa,))


def test_free_decay_matches_exponential():
    net = one_mode(2.0)
    result = integrate(net, [], t_max=5.0, dt=0.002, initial_amplitudes=[1.0])
    expected = np.exp(-result.times)  # e^{-kappa t / 2} with kappa = 2
    err = np.abs(result.mode_amplitudes[0] - expected).max()
    assert err < 1e-8


def test_two_mode_beat_against_exact_rotation():
    # undamped pair with coupling g: amplitudes rotate as exp(-iAt) exactly
    g = 0.8
    a = np.array([[0.0, g], [g, 0.0]])
    net = new_network(("a", "b"), a, (0.0, 0.0))
    result = integrate(net, [], t_max=4.0, dt=0.001, initial_amplitudes=[1.0, 0.0])
    t = result.times
    assert np.abs(result.mode_amplitudes[0] - np.cos(g * t)).max() < 1e-7
    assert np.abs(result.mode_amplitudes[1] - (-1j) * np.sin(g * t)).max() < 1e-7


def test_driven_single_mode_is_fourth_order():
    # da/dt = -(kappa/2) a - sqrt(kappa) e^{-i omega t} from a(0) = 0 has the
    # exact solution -sqrt(kappa) (e^{-i omega t} - e^{-kappa t/2}) / (kappa/2 - i omega)
    kappa, omega, t_max = 1.0, 20.0, 2.0
    net = one_mode(kappa)

    def error(dt):
        n_steps = int(round(t_max / dt))
        t_half = np.arange(2 * n_steps + 1) * (dt / 2.0)
        result = integrate(net, [DriveSignal("a", np.exp(-1j * omega * t_half))], t_max, dt)
        t = result.times
        exact = (
            -np.sqrt(kappa)
            * (np.exp(-1j * omega * t) - np.exp(-kappa * t / 2.0))
            / (kappa / 2.0 - 1j * omega)
        )
        return np.abs(result.mode_amplitudes[0] - exact).max()

    assert 12.0 <= error(0.01) / error(0.005) <= 20.0


def test_matches_a_four_stage_rk4_loop():
    # "b" is mode 2 but port row 1: a drive landing in the wrong row fails here
    net = resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6))
    dt, t_max = 0.003, 3.0
    n_steps = int(round(t_max / dt))
    t_half = np.arange(2 * n_steps + 1) * (dt / 2.0)
    signals = {"a": np.tanh(t_half) * np.exp(-0.5j * t_half), "b": np.sin(0.7 * t_half) + 0.3j}
    a0 = np.array([0.3, -0.2j, 0.1 + 0.1j])
    m_op = -1j * net.coupling - np.diag(net.damping) / 2.0
    for driven in (("a",), ("b",), ("a", "b")):
        drives = [DriveSignal(port, signals[port]) for port in driven]
        result = integrate(net, drives, t_max, dt, initial_amplitudes=a0)

        forcing = np.zeros((3, len(t_half)), dtype=complex)
        for port in driven:
            forcing[net.labels.index(port)] = -np.sqrt(net.damping[net.labels.index(port)]) * signals[port]
        a = a0.astype(complex)
        expected = [a]
        for i in range(n_steps):
            f0, f1, f2 = forcing[:, 2 * i], forcing[:, 2 * i + 1], forcing[:, 2 * i + 2]
            k1 = m_op @ a + f0
            k2 = m_op @ (a + dt / 2.0 * k1) + f1
            k3 = m_op @ (a + dt / 2.0 * k2) + f1
            k4 = m_op @ (a + dt * k3) + f2
            a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            expected.append(a)
        expected = np.array(expected).T
        scale = np.abs(expected).max()
        assert np.abs(result.mode_amplitudes - expected).max() <= 1e-12 * scale, driven


def test_output_record_is_input_output_consistent():
    # two ports, a (mode 0) and b (mode 2), with an undamped mode between them
    coupling = np.array([[0.0, 0.6, 0.0], [0.6, 0.0, 0.8], [0.0, 0.8, 0.0]])
    net = new_network(("a", "c", "b"), coupling, (1.0, 0.0, 0.5))
    samples = np.ones(2 * 100 + 1, dtype=complex)
    result = integrate(net, [DriveSignal("b", samples)], t_max=1.0, dt=0.01)
    assert result.outputs.shape == (2, 101)
    # a_out = -sqrt(kappa) a - a_in at every stored step, on every port
    for row, (port, a_in) in enumerate((("a", 0.0), ("b", samples[::2]))):
        mode = net.labels.index(port)
        expect = -np.sqrt(net.damping[mode]) * result.mode_amplitudes[mode] - a_in
        assert np.abs(result.outputs[row] - expect).max() < 1e-14
    assert np.abs(result.outputs[0]).max() > 0.0  # the drive on b reaches a's output


def test_integrate_holds_at_most_three_amplitude_records():
    # Drives, forcing and outputs have a row per port, not per mode, and the
    # amplitudes are written once: the 34-mode network's peak is the record,
    # the kicks and one product temporary, at most.
    net = microscopic_network(default_validation_ensemble(), 2.6, 2.6)
    n_steps = 20000
    dt = timedomain.DEFAULT_STEP_FACTOR / timedomain._max_rate(net)
    samples = np.exp(-0.3j * np.arange(2 * n_steps + 1) * (dt / 2.0))
    tracemalloc.start()
    try:
        result = integrate(net, [DriveSignal("a", samples)], n_steps * dt, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = (n_steps + 1) * net.n_modes * 16
    assert result.mode_amplitudes.nbytes == record
    assert peak <= 3 * record


def test_step_size_guard():
    with pytest.raises(StepTooLargeError):
        integrate(one_mode(200.0), [], t_max=1.0, dt=0.01)
    with pytest.raises(ValueError):
        integrate(one_mode(1.0), [], t_max=1.0, dt=-0.1)


def test_drive_validation():
    net = one_mode(1.0)
    with pytest.raises(ValueError, match="^drive port 'nope' is not a damped mode$"):
        integrate(net, [DriveSignal("nope", np.ones(201))], t_max=1.0, dt=0.01)
    with pytest.raises(ValueError):
        # samples must cover half-steps: 2*n_steps + 1 points
        integrate(net, [DriveSignal("a", np.ones(100))], t_max=1.0, dt=0.01)
    with pytest.raises(ValueError):
        integrate(
            net,
            [DriveSignal("a", np.ones(201)), DriveSignal("a", np.ones(201))],
            t_max=1.0,
            dt=0.01,
        )


def test_steady_state_reflection_single_mode():
    net = one_mode(2.0)
    for omega in (0.0, 0.7):
        ratio, reference, err = frequency_domain_check(net, omega, "a", "a")
        assert abs(reference - (2.0 + 2j * omega) / (2.0 - 2j * omega)) < 1e-12
        assert err < 1e-3


def test_steady_state_conversion_matches_engine():
    net = resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6))
    ratio = steady_state_transmission(net, 0.5, "a", "b")
    reference = transmission(net, 0.5, "a", "b")
    assert abs(ratio - reference) < 1e-3


def test_zero_drive_short_circuits():
    ratio, result = steady_state_response(one_mode(1.0), 0.3, "a", "a", amplitude=0.0)
    assert ratio == 0.0
    assert np.abs(result.mode_amplitudes).max() == 0.0


def test_slow_ring_up_detected_as_non_convergent():
    # a weakly coupled, undamped partner mode ringing up for ~1/(effective
    # linewidth) longer than the integration window trips the drift guard
    a = np.array([[0.0, 0.05], [0.05, 5.0]])
    net = new_network(("a", "d"), a, (1.0, 0.0))
    with pytest.raises(NonConvergentError):
        steady_state_response(net, 5.0, "a", "a")


@pytest.mark.parametrize(
    "params",
    [
        ResonantParams(1.0, 1.0, 4.0 * np.sqrt(2.0), 4.0 * np.sqrt(2.0)),
        ResonantParams(0.5, 0.5, 8.0, 8.0),
    ],
    ids=["exceptional_point", "overdamped"],
)
def test_slowest_decay_outlasting_the_run_is_non_convergent(params):
    # The run length is set by kappa_min, not by the network's slowest decay
    # rate, which is far slower at the exceptional point and when overdamped;
    # the drift guard must raise rather than return an unsettled ratio.
    net = resonant_network(params)
    with pytest.raises(NonConvergentError, match="drifts by"):
        steady_state_response(net, 0.0, "a", "b")


def test_trace_csv_layout():
    net = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
    _, result = steady_state_response(net, 0.0, "a", "b")
    text = trace_csv_text(net, result)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "time"
    assert "a_re" in header and "c_im" in header
    assert "out_a_re" in header and "out_b_im" in header
    assert len(lines) == 1 + len(result.times)
    # numeric fields parse back
    values = [float(entry) for entry in lines[1].split(",")]
    assert len(values) == len(header)


@pytest.mark.parametrize("omega", [np.inf, -np.inf, np.nan])
def test_non_finite_omega_is_named(omega):
    net = resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6))
    with pytest.raises(ValueError, match="omega must be finite"):
        steady_state_response(net, omega, "a", "b")
    with pytest.raises(ValueError, match="omega must be finite"):
        steady_state_transmission(net, omega, "a", "b")


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.01])
def test_bad_step_is_named(dt):
    net = one_mode(1.0)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        integrate(net, [], t_max=1.0, dt=dt, initial_amplitudes=[1.0])


@pytest.mark.parametrize("t_max", [np.inf, np.nan])
def test_non_finite_t_max_is_named(t_max):
    with pytest.raises(ValueError, match="t_max must be finite"):
        integrate(one_mode(1.0), [], t_max=t_max, dt=0.01, initial_amplitudes=[1.0])


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_initial_amplitude_is_named(value):
    with pytest.raises(ValueError, match="initial amplitudes must be finite"):
        integrate(one_mode(1.0), [], t_max=1.0, dt=0.01, initial_amplitudes=[value])


@pytest.mark.parametrize(
    "in_port, out_port, message",
    [
        ("a", "c", r"out_port 'c' is not a damped mode; ports are \['a', 'b'\]"),
        ("a", "nope", "out_port 'nope' is not a damped mode"),
        ("c", "b", "in_port 'c' is not a damped mode"),
    ],
    ids=["undamped", "unknown", "undamped_in"],
)
def test_bad_output_port_is_named_before_integrating(monkeypatch, in_port, out_port, message):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate was called")

    monkeypatch.setattr(timedomain, "integrate", no_integration)
    net = resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6))
    assert net.damping[net.labels.index("c")] == 0.0
    with pytest.raises(ValueError, match=message):
        steady_state_response(net, 0.3, in_port, out_port)
    with pytest.raises(ValueError, match=message):
        frequency_domain_check(net, 0.3, in_port, out_port)
