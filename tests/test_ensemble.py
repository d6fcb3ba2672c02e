"""Tests for the microscopic ensemble model and its reduction."""

import re

import numpy as np
import pytest

from modeconv.analysis import high_efficiency_intervals
from modeconv.ensemble import (
    AtomEnsemble,
    AtomParams,
    collective_couplings,
    default_validation_ensemble,
    direct_coupling_strength,
    effective_network,
    elimination_error,
    ensemble_from_dict,
    ensemble_to_dict,
    microscopic_network,
    uniform_ensemble,
)
from modeconv.errors import EmptyEnsembleError, HighMismatchWarning, ZeroDetuningError
from modeconv.scattering import dynamical_matrix, transmission_grid


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


def test_zero_detuning_names_the_first_offending_atom():
    atoms = [AtomParams(1.0, 1.0, 1.0, 10.0, 10.0) for _ in range(5)]
    atoms[3] = AtomParams(1.0, 1.0, 1.0, 0.0, 10.0)
    atoms[1] = AtomParams(1.0, 1.0, 1.0, 10.0, 0.0)
    ens = AtomEnsemble(atoms)
    for reduce, index in ((collective_couplings, 3), (direct_coupling_strength, 1)):
        with pytest.raises(ZeroDetuningError) as info:
            reduce(ens)
        assert info.value.atom_index == index
    with pytest.raises(ZeroDetuningError, match="atom 3: .* delta_o = 0$") as info:
        microscopic_network(ens, 1.0, 1.0)
    assert info.value.atom_index == 3
    # Without compensation nothing divides by a detuning.
    assert microscopic_network(ens, 1.0, 1.0, compensate_stark=False).coupling[5, 5] == 0.0


@pytest.mark.parametrize(
    "atoms, index, bad",
    [((1, 2), 0, 1), ([AtomParams(1.0, 1.0, 1.0, 10.0, 0.0), {"g_o": 1}], 1, {"g_o": 1})],
    ids=["ints", "dict"],
)
def test_an_atom_that_is_not_atom_params_is_named(atoms, index, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(f'atom {index} must be an AtomParams, got {bad!r}')}$"):
        AtomEnsemble(atoms)


def test_empty_ensemble_rejected():
    with pytest.raises(EmptyEnsembleError):
        microscopic_network(AtomEnsemble(()), 1.0, 1.0)
    with pytest.raises(EmptyEnsembleError):
        collective_couplings(AtomEnsemble(()))


def test_microscopic_network_places_each_atom():
    atoms = (
        AtomParams(1.0 + 0.5j, 0.2, 3.0, 40.0, 0.1),
        AtomParams(2.0, 0.3 - 0.1j, 4.0, 50.0, -0.2),
        AtomParams(-1.5, 0.4, 5.0, 60.0, 0.3),
    )
    a = microscopic_network(AtomEnsemble(atoms), 1.0, 1.0).coupling
    stark_a = 0.0
    for k, atom in enumerate(atoms):
        s13, s12 = 2 + k, 5 + k
        assert a[0, s13] == atom.g_o and a[s13, 0] == np.conj(atom.g_o)
        assert a[1, s12] == atom.g_mu and a[s12, 1] == np.conj(atom.g_mu)
        assert a[s13, s12] == a[s12, s13] == atom.omega_rabi
        assert a[s13, s13] == atom.delta_o
        assert a[s12, s12] == atom.delta_mu + atom.omega_rabi**2 / atom.delta_o
        stark_a += abs(atom.g_o) ** 2 / atom.delta_o
    assert abs(a[0, 0] - stark_a) < 1e-15
    assert np.count_nonzero(a) == 1 + 6 * len(atoms) + 2 * len(atoms)
    # A real coupling mirrors to a conjugate with +0 imaginary part.
    assert not np.signbit(a[4, 0].imag) and not np.signbit(a[5, 1].imag)


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("omega_rabi", 5.0 + 0.5j, "real"),
        ("delta_o", 50.0 + 1j, "real"),
        ("delta_mu", 0.1j, "real"),
        ("g_o", "1", "a number"),  # complex("1") parses; a coupling may be complex, not a string
        ("g_mu", None, "a number"),
    ],
)
def test_parameter_of_the_wrong_kind_rejected(field, value, kind):
    params = {"g_o": 2.5j, "g_mu": 0.25 - 0.1j, "omega_rabi": 5.0, "delta_o": 50.0, "delta_mu": 0.0}
    AtomParams(**params)
    with pytest.raises(ValueError, match=re.escape(f"atom parameter {field} must be {kind}, got {value!r}")):
        AtomParams(**{**params, field: value})


def _jittered_ensemble(n, spread):
    """The CI memory gate's ensemble: couplings (2.5, 0.25) 4/sqrt(N), Delta_o = 50 + 2 N(0, 1), delta_mu = spread N(0, 1)."""
    rng = np.random.default_rng(3)
    scale = 4.0 / np.sqrt(n)
    return AtomEnsemble(
        tuple(
            AtomParams(2.5 * scale, 0.25 * scale, 5.0, delta_o=50.0 + 2.0 * rng.normal(), delta_mu=spread * rng.normal())
            for _ in range(n)
        )
    )


@pytest.mark.parametrize(
    "n_atoms, spread, count, widest, covered",
    [
        (16, 0.0, 2, 1.068782, 2.096095),
        (16, 0.05, 16, 0.917140, 2.088251),
        (64, 0.0, 2, 1.071273, 2.101015),
        (64, 0.05, 64, 0.912857, 2.094820),
    ],
)
def test_holes_in_the_atom_band(n_atoms, spread, count, widest, covered):
    # The effective three-mode network reports one interval of 2.122867; the
    # microscopic one has a hole beside each weakly damped dark spin mode,
    # one per atom once the delta_mu spread lifts their degeneracy.
    net = microscopic_network(_jittered_ensemble(n_atoms, spread), 2.6, 2.6)
    report = high_efficiency_intervals(net, "a", "b", 0.9, (-3.0, 3.0))
    assert len(report.intervals) == count
    assert abs(report.max_width - widest) < 1e-6
    assert abs(sum(iv.width for iv in report.intervals) - covered) < 1e-6
    drive = np.zeros(net.n_modes, dtype=complex)
    drive[0] = np.sqrt(2.6)

    def eta(omega):
        return abs(2.0 * np.sqrt(2.6) * np.linalg.solve(dynamical_matrix(net, omega), drive)[1]) ** 2

    for iv in report.intervals:
        for edge in (iv.lo, iv.hi):
            assert abs(eta(edge) - 0.9) <= 2e-9
    for left, right in zip(report.intervals, report.intervals[1:]):
        assert eta((left.hi + right.lo) / 2.0) < 0.9


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


@pytest.mark.parametrize("field", ["g_o", "g_mu", "omega_rabi", "delta_o", "delta_mu"])
def test_atom_parameters_refuse_a_bool(field):
    values = {"g_o": 2.5, "g_mu": 0.25, "omega_rabi": 5.0, "delta_o": 50.0, "delta_mu": 0.0, field: True}
    with pytest.raises(ValueError, match=f"^atom parameter {field} must be "):
        AtomParams(**values)
    assert getattr(AtomParams(**{**values, field: 1}), field) == 1


MISSING = object()


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("delta_o", "50", "delta_o must be a number, got '50'"),
        ("omega_rabi", True, "omega_rabi must be a number, got True"),
        ("delta_mu", None, "delta_mu must be a number, got None"),
        ("g_o", ["2.5", "0"], "g_o must be a number, got '2.5'"),
        ("g_mu", [0.25, False], "g_mu must be a number, got False"),
        ("g_o", 2.5, "g_o must be an [re, im] pair of numbers, got 2.5"),
        ("g_o", [2.5, 0, 1], "g_o must be an [re, im] pair of numbers, got [2.5, 0, 1]"),
        ("g_mu", [0.25], "g_mu must be an [re, im] pair of numbers, got [0.25]"),
        (None, 2.5, "an atom must be an object, got 2.5"),
        (None, [2.5, 0.25], "an atom must be an object, got [2.5, 0.25]"),
        ("g_mu", MISSING, "missing field 'g_mu'"),
        ("delta_mu", MISSING, "missing field 'delta_mu'"),
    ],
)
def test_document_takes_numbers_only(field, value, named):
    # field None: the atom itself is the value; MISSING: the field is left out
    doc = ensemble_to_dict(default_validation_ensemble())
    atom = {key: item for key, item in doc["atoms"][2].items() if key != field}
    doc["atoms"][2] = value if field is None else atom if value is MISSING else {**atom, field: value}
    with pytest.raises(ValueError, match=f"^atom 2 is malformed: {re.escape(named)}$"):
        ensemble_from_dict(doc)


def test_document_accepts_integers():
    doc = {"atoms": [{"g_o": [2, 0], "g_mu": [1, -1], "omega_rabi": 5, "delta_o": 50, "delta_mu": 0}]}
    (atom,) = ensemble_from_dict(doc).atoms
    assert atom == AtomParams(2.0 + 0.0j, 1.0 - 1.0j, 5.0, 50.0, 0.0)
    assert [type(getattr(atom, name)) for name in ("g_o", "omega_rabi")] == [complex, float]


def test_non_finite_atom_rejected():
    with pytest.raises(ValueError):
        AtomParams(np.inf, 1.0, 1.0, 10.0, 0.0)
