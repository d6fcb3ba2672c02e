"""Tests for the microscopic ensemble model and its reduction."""

import numpy as np
import pytest

from modeconv.ensemble import (
    AtomEnsemble,
    AtomParams,
    collective_couplings,
    default_validation_ensemble,
    effective_network,
    elimination_error,
    ensemble_from_dict,
    ensemble_to_dict,
    microscopic_network,
    uniform_ensemble,
)
from modeconv.errors import EmptyEnsembleError, HighMismatchWarning, ZeroDetuningError
from modeconv.scattering import transmission_grid


def test_default_ensemble_collective_values():
    ens = default_validation_ensemble()
    assert len(ens.atoms) == 16
    cc = collective_couplings(ens)
    assert abs(cc.s_o - 1.0) < 1e-12
    assert abs(cc.s_mu - 1.0) < 1e-12
    assert cc.mode_mismatch < 1e-14
    assert abs(cc.stark_a - 2.0) < 1e-12
    assert abs(cc.stark_c - 8.0) < 1e-12


def test_collective_coupling_formulas():
    # two distinct atoms, worked by hand:
    #   s_mu = sqrt(|1|^2 + |2|^2) = sqrt(5)
    #   v_o = (g_o Omega / Delta_o) = (0.5, 0.2), v_mu = (1, 2)
    #   s_o = |<v_o, v_mu>| / s_mu = 0.9 / sqrt(5)
    atoms = (
        AtomParams(1.0, 1.0, 5.0, 10.0, 0.0),
        AtomParams(2.0, 2.0, 2.0, 20.0, 0.0),
    )
    cc = collective_couplings(AtomEnsemble(atoms))
    assert abs(cc.s_mu - np.sqrt(5.0)) < 1e-12
    assert abs(cc.s_o - 0.9 / np.sqrt(5.0)) < 1e-12
    overlap_sq = 0.81 / (0.29 * 5.0)
    assert abs(cc.mode_mismatch - (1.0 - overlap_sq)) < 1e-12
    assert abs(cc.stark_a - (0.1 + 0.2)) < 1e-12
    assert abs(cc.stark_c - (2.5 + 0.2)) < 1e-12


def test_microscopic_network_layout():
    ens = uniform_ensemble(2, 2.5, 0.25, 5.0, 50.0)
    net = microscopic_network(ens, 2.6, 1.3)
    assert net.labels == ("a", "b", "s13_1", "s13_2", "s12_1", "s12_2")
    assert net.port_labels() == ["a", "b"]
    assert tuple(net.damping) == (2.6, 1.3, 0.0, 0.0, 0.0, 0.0)
    a = net.coupling
    assert a[0, 2] == 2.5 and a[0, 3] == 2.5          # a <-> sigma13
    assert a[1, 4] == 0.25 and a[1, 5] == 0.25        # b <-> sigma12
    assert a[2, 4] == 5.0 and a[3, 5] == 5.0          # Rabi drive
    assert a[2, 3] == 0.0 and a[4, 5] == 0.0          # no atom-atom terms
    assert a[2, 2] == 50.0                            # optical detuning
    # Stark compensation: |g_o|^2/Delta_o on a, Omega^2/Delta_o on sigma12
    assert abs(a[0, 0] - 2 * 2.5**2 / 50.0) < 1e-15
    assert abs(a[4, 4] - 25.0 / 50.0) < 1e-15


def test_stark_compensation_flag():
    ens = uniform_ensemble(2, 2.5, 0.25, 5.0, 50.0)
    bare = microscopic_network(ens, 2.6, 2.6, compensate_stark=False)
    assert bare.coupling[0, 0] == 0.0
    assert bare.coupling[4, 4] == 0.0


def test_compensation_restores_peak_efficiency():
    # without the Stark terms the optical resonance is pulled off omega = 0
    # and the near-resonant efficiency collapses
    ens = default_validation_ensemble()
    probe = np.array([1e-3])
    on = microscopic_network(ens, 2.6, 2.6, compensate_stark=True)
    off = microscopic_network(ens, 2.6, 2.6, compensate_stark=False)
    eta_on = abs(transmission_grid(on, probe, "a", "b")[0]) ** 2
    eta_off = abs(transmission_grid(off, probe, "a", "b")[0]) ** 2
    assert eta_on > 0.999
    assert eta_off < 0.75


def test_zero_detuning_rejected_when_compensating():
    atoms = (AtomParams(1.0, 1.0, 1.0, 0.0, 0.0),)
    with pytest.raises(ZeroDetuningError) as info:
        microscopic_network(AtomEnsemble(atoms), 1.0, 1.0)
    assert info.value.atom_index == 0
    with pytest.raises(ZeroDetuningError):
        collective_couplings(AtomEnsemble(atoms))


def test_empty_ensemble_rejected():
    with pytest.raises(EmptyEnsembleError):
        microscopic_network(AtomEnsemble(()), 1.0, 1.0)
    with pytest.raises(EmptyEnsembleError):
        collective_couplings(AtomEnsemble(()))


def test_effective_network_matches_collective_couplings():
    ens = default_validation_ensemble()
    net = effective_network(ens, 2.6, 2.6)
    assert net.labels == ("a", "c", "b")
    assert abs(net.coupling[0, 1] - 1.0) < 1e-12
    assert abs(net.coupling[1, 2] - 1.0) < 1e-12


def test_orthogonal_modes_warn():
    atoms = (
        AtomParams(1.0, 0.0, 1.0, 10.0, 0.0),
        AtomParams(0.0, 1.0, 1.0, 10.0, 0.0),
    )
    ens = AtomEnsemble(atoms)
    cc = collective_couplings(ens)
    assert abs(cc.mode_mismatch - 1.0) < 1e-12
    with pytest.warns(HighMismatchWarning):
        effective_network(ens, 1.0, 1.0)


def test_elimination_error_small_for_far_detuned_ensemble():
    ens = default_validation_ensemble()
    grid = np.linspace(-1.5, 1.5, 300)
    err = elimination_error(ens, 2.6, 2.6, grid)
    assert 0.0 < err < 0.06
    # strongly detuned scaling family: doubling Delta_o while keeping the
    # collective couplings fixed roughly halves the residual
    strong = uniform_ensemble(16, 2.5 * np.sqrt(4.0), 0.25, 5.0 * np.sqrt(4.0), 200.0)
    err_strong = elimination_error(strong, 2.6, 2.6, grid)
    assert err_strong < err / 3.0


@pytest.mark.parametrize("grid", [[], np.zeros((0, 3))], ids=["list", "2d"])
def test_elimination_error_rejects_an_empty_grid(grid):
    with pytest.raises(ValueError, match="omega_grid must hold at least one frequency"):
        elimination_error(default_validation_ensemble(), 2.6, 2.6, grid)


def test_serialization_round_trip():
    atoms = (
        AtomParams(1.0 + 0.5j, 0.25, 5.0, 50.0, 1.0),
        AtomParams(2.5, 0.25 - 0.1j, 4.0, 45.0, 0.0),
    )
    ens = AtomEnsemble(atoms)
    back = ensemble_from_dict(ensemble_to_dict(ens))
    assert len(back.atoms) == 2
    for orig, copy in zip(ens.atoms, back.atoms):
        assert orig.g_o == copy.g_o
        assert orig.g_mu == copy.g_mu
        assert orig.omega_rabi == copy.omega_rabi
        assert orig.delta_o == copy.delta_o
        assert orig.delta_mu == copy.delta_mu


def test_malformed_document_names_atom():
    doc = ensemble_to_dict(default_validation_ensemble())
    doc["atoms"][3] = {"g_o": [1.0, 0.0]}
    with pytest.raises(ValueError, match="atom 3"):
        ensemble_from_dict(doc)


def test_non_finite_atom_rejected():
    with pytest.raises(ValueError):
        AtomParams(np.inf, 1.0, 1.0, 10.0, 0.0)
