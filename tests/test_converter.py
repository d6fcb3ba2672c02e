"""Tests for the converter constructors and closed-form efficiency.

The dark/bright decomposition gives two scalar reflections,

    r_minus = (kappa + 2i omega) / (kappa - 2i omega)
    r_plus  = ((kappa + 2i omega) omega - 4i g^2) / ((kappa - 2i omega) omega + 4i g^2)

and eta = |r_minus - r_plus|^2 / 4.  These are exact for the symmetric
three-mode converter and serve as the oracle for the matrix engine.
"""

import warnings

import numpy as np
import pytest

from modeconv.converter import (
    DetunedParams,
    ResonantParams,
    detuned_network,
    efficiency_closed_form,
    reflection_coefficients,
    resonant_network,
    two_mode_network,
)
from modeconv.ensemble import AtomEnsemble, AtomParams, direct_coupling_strength, uniform_ensemble
from modeconv.errors import DegenerateParametersError, EmptyEnsembleError, ZeroDetuningError
from modeconv.scattering import transmission, transmission_grid


def test_network_layouts():
    net = resonant_network(ResonantParams(1.5, 0.5, 2.0, 3.0))
    assert net.labels == ("a", "c", "b")
    assert net.coupling[0, 1] == 1.5 and net.coupling[1, 2] == 0.5
    assert net.coupling[0, 2] == 0.0 and net.coupling[1, 1] == 0.0
    assert tuple(net.damping) == (2.0, 0.0, 3.0)

    det = detuned_network(DetunedParams(1.0, 1.0, 0.2, 0.2, delta_mu=10.0))
    assert det.coupling[1, 1] == 10.0

    two = two_mode_network(0.1, 0.2, 0.4)
    assert two.labels == ("a", "b")
    assert two.coupling[0, 1] == 0.1
    assert tuple(two.damping) == (0.2, 0.4)


def test_detuned_defaults_to_resonant():
    d = detuned_network(DetunedParams(1.0, 1.0, 2.0, 2.0))
    r = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
    assert np.array_equal(d.coupling, r.coupling)
    assert np.array_equal(d.damping, r.damping)


def test_reflection_values_at_matched_point():
    # kappa = 2g, omega = g: dark mode reflects with phase i, bright with -i
    r_minus, r_plus = reflection_coefficients(1.0, 1.0, 2.0)
    assert abs(r_minus - 1j) < 1e-12
    assert abs(r_plus + 1j) < 1e-12
    assert abs(efficiency_closed_form(1.0, 1.0, 2.0) - 1.0) < 1e-12


def test_reflections_are_unimodular():
    rng = np.random.default_rng(51)
    for _ in range(300):
        omega = float(rng.normal(scale=3.0))
        g = float(rng.uniform(0.1, 3.0))
        kappa = float(rng.uniform(0.1, 6.0))
        r_minus, r_plus = reflection_coefficients(omega, g, kappa)
        assert abs(abs(r_minus) - 1.0) < 1e-12
        assert abs(abs(r_plus) - 1.0) < 1e-12
        eta = efficiency_closed_form(omega, g, kappa)
        assert -1e-12 <= eta <= 1.0 + 1e-12


def test_zero_frequency_is_always_perfect():
    # at omega = 0 the bright mode reflects with -1 and the dark with +1,
    # independent of kappa and g: eta(0) = 1 for every converter in the family
    for kappa in (0.1, 1.0, 2.0, 7.0):
        for g in (0.2, 1.0, 4.0):
            assert abs(efficiency_closed_form(0.0, g, kappa) - 1.0) < 1e-12


def test_closed_form_matches_engine():
    rng = np.random.default_rng(52)
    for _ in range(25):
        g = float(rng.uniform(0.2, 2.0))
        kappa = float(rng.uniform(0.2, 5.0))
        net = resonant_network(ResonantParams(g, g, kappa, kappa))
        grid = np.linspace(-3.0, 3.0, 41)
        eta_engine = np.abs(transmission_grid(net, grid, "a", "b")) ** 2
        eta_closed = efficiency_closed_form(grid, g, kappa)
        assert np.abs(eta_engine - eta_closed).max() < 1e-10


def test_two_mode_matched_transmission():
    # kappa = 2S: impedance matched, t(0) = -i exactly
    t = transmission(two_mode_network(0.1, 0.2, 0.2), 0.0, "a", "b")
    assert abs(t + 1j) < 1e-12


def test_vectorized_and_scalar_forms_agree():
    grid = np.linspace(-2.0, 2.0, 7)
    vec = efficiency_closed_form(grid, 1.0, 2.6)
    for w, eta in zip(grid, vec):
        assert abs(efficiency_closed_form(float(w), 1.0, 2.6) - eta) < 1e-14
    r_minus, r_plus = reflection_coefficients(0.5, 1.0, 2.6)
    assert np.isscalar(r_minus) or r_minus.ndim == 0


def test_parameter_validation():
    with pytest.raises(ValueError):
        reflection_coefficients(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        efficiency_closed_form(0.0, 0.0, 2.0)
    with pytest.raises(DegenerateParametersError):
        reflection_coefficients(0.0, 0.0, 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
def test_a_nonfinite_coupling_or_damping_yields_no_number(bad):
    # The closed forms are the reference oracle: a wrong input, the frequency
    # included, must raise, not return nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^kappa must be positive and finite, got {bad}$"):
            reflection_coefficients(0.5, 1.0, bad)
        with pytest.raises(ValueError, match=f"^g must be finite, got {bad}$"):
            reflection_coefficients(0.5, bad, 1.0)
        with pytest.raises(ValueError, match=f"^kappa must be positive and finite, got {bad}$"):
            efficiency_closed_form(0.0, 1.0, bad)
        with pytest.raises(ValueError, match=f"^g must be positive and finite, got {bad}$"):
            efficiency_closed_form(0.0, bad, 1.0)
        with pytest.raises(ValueError, match=f"^omega must be finite, got {bad}$"):
            reflection_coefficients(bad, 1.0, 1.0)
        with pytest.raises(ValueError, match=f"^omega must be finite, got {bad}$"):
            efficiency_closed_form(np.array([0.5, bad]), 1.0, 1.0)


class TestDirectCoupling:
    def test_single_atom_value(self):
        ens = AtomEnsemble((AtomParams(1.0, 1.0, 1.0, 10.0, 10.0),))
        assert abs(direct_coupling_strength(ens) - 0.01) < 1e-15

    def test_uniform_ensemble_value(self):
        # N atoms tuned so the collective couplings are S_o = S_mu = 1 at
        # Delta_mu = 10 give the effective direct rate g^2/Delta_mu = 0.1
        ens = uniform_ensemble(16, 2.5, 0.25, 5.0, 50.0, delta_mu=10.0)
        assert abs(direct_coupling_strength(ens) - 0.1) < 1e-12

    def test_empty_ensemble_rejected(self):
        with pytest.raises(EmptyEnsembleError):
            direct_coupling_strength(AtomEnsemble(()))

    def test_zero_detuning_reported_with_index(self):
        atoms = (
            AtomParams(1.0, 1.0, 1.0, 10.0, 10.0),
            AtomParams(1.0, 1.0, 1.0, 10.0, 0.0),
        )
        with pytest.raises(ZeroDetuningError) as info:
            direct_coupling_strength(AtomEnsemble(atoms))
        assert info.value.atom_index == 1
