"""Tests for the RK4 integrator and the time/frequency cross-check."""

import numpy as np
import pytest

from modeconv import timedomain
from modeconv.converter import ResonantParams, resonant_network
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


def test_output_record_is_input_output_consistent():
    net = one_mode(1.0)
    samples = np.ones(2 * 100 + 1, dtype=complex)
    result = integrate(net, [DriveSignal("a", samples)], t_max=1.0, dt=0.01)
    # a_out = -sqrt(kappa) a - a_in at every stored step
    expect = -1.0 * result.mode_amplitudes[0] - samples[::2]
    assert np.abs(result.outputs[0] - expect).max() < 1e-14


def test_step_size_guard():
    with pytest.raises(StepTooLargeError):
        integrate(one_mode(200.0), [], t_max=1.0, dt=0.01)
    with pytest.raises(ValueError):
        integrate(one_mode(1.0), [], t_max=1.0, dt=-0.1)


def test_drive_validation():
    net = one_mode(1.0)
    with pytest.raises(ValueError):
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
        steady_state_response(net, 0.3, "a", "a", dt=dt)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        integrate(net, [], t_max=1.0, dt=dt, initial_amplitudes=[1.0])


@pytest.mark.parametrize("t_max", [np.inf, np.nan])
def test_non_finite_t_max_is_named(t_max):
    with pytest.raises(ValueError, match="t_max must be finite"):
        integrate(one_mode(1.0), [], t_max=t_max, dt=0.01, initial_amplitudes=[1.0])


@pytest.mark.parametrize(
    "out_port, message",
    [("c", "output port 'c' is not a damped mode"), ("nope", "no mode labeled 'nope'")],
    ids=["undamped", "unknown"],
)
def test_bad_output_port_is_named_before_integrating(monkeypatch, out_port, message):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate was called")

    monkeypatch.setattr(timedomain, "integrate", no_integration)
    net = resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6))
    assert net.damping[net.index_of("c")] == 0.0
    with pytest.raises(ValueError, match=message):
        steady_state_response(net, 0.3, "a", out_port)
    with pytest.raises(ValueError, match=message):
        frequency_domain_check(net, 0.3, "a", out_port)
