"""Tests for the frequency-domain scattering engine.

The single-mode network has the exact reflection (kappa + 2i omega)/(kappa -
2i omega), and the three-mode converter has closed-form efficiencies; both are
used as ground truth here.  Grid evaluation must agree with the strict
single-point path everywhere, including on which frequencies are singular.
"""

import re

import numpy as np
import pytest

from modeconv import linalg, scattering
from modeconv.analysis import _bandwidth_reports, efficiency_map, high_efficiency_intervals
from modeconv.converter import (
    DetunedParams,
    ResonantParams,
    detuned_network,
    resonant_network,
    two_mode_network,
)
from modeconv.ensemble import AtomEnsemble, AtomParams, default_validation_ensemble, microscopic_network
from modeconv.errors import NoPortsError, SingularAtFrequencyError
from modeconv.network import new_network
from modeconv.scattering import (
    _pair_stack,
    _pair_transmission,
    _stacks,
    dynamical_matrix,
    internal_amplitudes,
    scattering_matrix,
    transmission,
    transmission_grid,
)

from dark_modes import with_dark_modes


def one_mode(kappa=2.0):
    return new_network(("a",), np.zeros((1, 1)), (kappa,))


def random_net(rng, n=None):
    n = int(rng.integers(1, 7)) if n is None else n
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (raw + raw.conj().T) / 2.0
    damping = np.where(rng.random(n) < 0.7, rng.uniform(0.05, 4.0, n), 0.0)
    if not damping.any():
        damping[rng.integers(n)] = 1.0
    labels = tuple(f"m{i}" for i in range(n))
    return new_network(labels, a, damping)


# ---------------------------------------------------------------- dynamical matrix


def test_dynamical_matrix_one_mode():
    m = dynamical_matrix(one_mode(3.0), 0.25)
    assert m.shape == (1, 1)
    assert abs(m[0, 0] - (3.0 - 0.5j)) < 1e-15


def test_dynamical_matrix_resonant_at_zero():
    net = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
    m = dynamical_matrix(net, 0.0)
    expect = np.array([[2.0, 2j, 0.0], [2j, 0.0, 2j], [0.0, 2j, 2.0]])
    assert np.abs(m - expect).max() < 1e-15


def test_dynamical_matrix_reduces_to_damping():
    net = new_network(("a", "b"), np.zeros((2, 2)), (1.0, 3.0))
    assert np.abs(dynamical_matrix(net, 0.0) - np.diag([1.0, 3.0])).max() == 0.0


# ---------------------------------------------------------------- amplitudes


def test_zero_input_gives_zero_amplitudes():
    net = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
    amps = internal_amplitudes(net, 0.3, [0.0, 0.0])
    assert np.abs(amps).max() == 0.0


def test_one_mode_amplitude_formula():
    for omega in (-1.0, 0.0, 0.7):
        amps = internal_amplitudes(one_mode(2.0), omega, [1.0])
        expect = -2.0 * np.sqrt(2.0) / (2.0 - 2j * omega)
        assert abs(amps[0] - expect) < 1e-12


def test_matched_converter_internal_state():
    # kappa = 2g: full conversion at omega = 0, so |b_out| = 1 and the three
    # internal amplitudes take the values (-s, is, s) with s = sqrt(2)/2.
    net = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
    amps = internal_amplitudes(net, 0.0, [1.0, 0.0])
    s = np.sqrt(2.0) / 2.0
    assert abs(amps[0] + s) < 1e-12
    assert abs(amps[1] - 1j * s) < 1e-12
    assert abs(amps[2] - s) < 1e-12
    b_out = -np.sqrt(2.0) * amps[2]
    assert abs(abs(b_out) - 1.0) < 1e-12


def test_no_ports_raises():
    net = new_network(("x",), np.zeros((1, 1)), (0.0,))
    with pytest.raises(NoPortsError):
        internal_amplitudes(net, 0.0, [])
    with pytest.raises(NoPortsError):
        scattering_matrix(net, 0.0)
    with pytest.raises(NoPortsError):
        transmission(net, 0.0, "x", "x")


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_port_input_is_a_value_error(bad):
    # omega = 0.3 is a regular frequency, so a bad input must not be blamed on it
    net = resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6))
    with pytest.raises(ValueError, match=r"a_in must be finite, got"):
        internal_amplitudes(net, 0.3, [bad, 0.0])
    assert np.isfinite(internal_amplitudes(net, 0.3, [1.0, 0.0])).all()


@pytest.mark.parametrize("a_in", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]], ids=["short", "long", "2d"])
def test_port_inputs_of_the_wrong_shape_are_named(a_in):
    net = resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6))
    message = f"expected 2 port inputs, got shape {np.shape(a_in)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        internal_amplitudes(net, 0.3, a_in)


# ---------------------------------------------------------------- scattering matrix


def test_one_mode_reflection_phase():
    kappa = 1.3
    for omega in np.linspace(-2.0, 2.0, 9):
        s = scattering_matrix(one_mode(kappa), omega).s
        expect = (kappa + 2j * omega) / (kappa - 2j * omega)
        assert abs(s[0, 0] - expect) < 1e-12
        assert abs(abs(s[0, 0]) - 1.0) < 1e-12


def test_matched_converter_unit_transmission_at_side_peaks():
    net = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
    for omega in (-1.0, 1.0):
        t = transmission(net, omega, "a", "b")
        assert abs(abs(t) - 1.0) < 1e-12


def test_detuned_anchor_efficiency():
    # Delta_mu = 10, kappa = 0.2: |t(0)|^2 = 1/(1 + (Delta kappa / 4 g^2)^2) = 0.8
    a = np.array([[0.0, 1.0, 0.0], [1.0, 10.0, 1.0], [0.0, 1.0, 0.0]])
    net = new_network(("a", "c", "b"), a, (0.2, 0.0, 0.2))
    t = transmission(net, 0.0, "a", "b")
    assert abs(abs(t) ** 2 - 0.8) < 1e-12


def test_transmission_requires_damped_ports():
    net = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
    with pytest.raises(ValueError, match=r"out_port 'c' is not a damped mode; ports are \['a', 'b'\]"):
        transmission(net, 0.0, "a", "c")
    with pytest.raises(ValueError, match="in_port 'z' is not a damped mode"):
        transmission(net, 0.0, "z", "b")


def test_transmission_is_reciprocal_for_real_couplings():
    rng = np.random.default_rng(31)
    for _ in range(20):
        net = random_net(rng)
        ports = net.port_labels()
        omega = float(rng.normal())
        # reciprocity S_ab = S_ba holds for real-symmetric A (symmetric M)
        rebuilt = new_network(net.labels, net.coupling.real, net.damping)
        forward = transmission(rebuilt, omega, ports[0], ports[-1])
        backward = transmission(rebuilt, omega, ports[-1], ports[0])
        assert abs(forward - backward) < 1e-12


def test_unitarity_and_passivity_random():
    rng = np.random.default_rng(32)
    for _ in range(60):
        net = random_net(rng)
        omega = float(rng.normal(scale=2.0))
        s = scattering_matrix(net, omega).s
        gram = s.conj().T @ s
        assert np.abs(gram - np.eye(len(s))).max() < 1e-10
        assert np.abs(s).max() <= 1.0 + 1e-9


def test_zero_coupling_diagonal_scattering():
    net = new_network(("a", "b"), np.zeros((2, 2)), (1.0, 2.5))
    omega = 0.4
    s = scattering_matrix(net, omega).s
    for i, kappa in enumerate((1.0, 2.5)):
        assert abs(s[i, i] - (kappa + 2j * omega) / (kappa - 2j * omega)) < 1e-12
    assert abs(s[0, 1]) < 1e-14 and abs(s[1, 0]) < 1e-14


# ---------------------------------------------------------------- grids


class TestTransmissionGrid:
    def test_matches_strict_path_pointwise(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            net = random_net(rng)
            ports = net.port_labels()
            grid = np.sort(rng.normal(scale=2.0, size=17))
            fast = transmission_grid(net, grid, ports[0], ports[-1])
            slow = np.array([transmission(net, w, ports[0], ports[-1]) for w in grid])
            assert np.abs(fast - slow).max() < 1e-12

    def test_singular_point_raises_with_omega(self):
        # an uncoupled undamped mode sitting at detuning 5 makes omega = 5 singular
        net = new_network(("a", "d"), np.array([[0.0, 0.0], [0.0, 5.0]]), (1.0, 0.0))
        with pytest.raises(SingularAtFrequencyError) as info:
            transmission_grid(net, np.array([4.0, 5.0, 6.0]), "a", "a")
        assert info.value.omega == 5.0

    def test_singular_point_as_nan(self):
        net = new_network(("a", "d"), np.array([[0.0, 0.0], [0.0, 5.0]]), (1.0, 0.0))
        out = transmission_grid(net, np.array([4.0, 5.0, 6.0]), "a", "a", on_singular="nan")
        assert np.isnan(out[1])
        assert np.isfinite(out[0]) and np.isfinite(out[2])

    @pytest.mark.parametrize("omegas", [np.zeros((2, 3)), np.zeros((1, 1)), 0.5])
    def test_grid_that_is_not_1d_is_named(self, omegas):
        net = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
        shape = np.shape(omegas)
        with pytest.raises(ValueError, match=rf"1-D frequency grid, got shape {re.escape(str(shape))}"):
            transmission_grid(net, omegas, "a", "b")

    def test_empty_grid_gives_an_empty_array(self):
        net = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
        out = transmission_grid(net, [], "a", "b")
        assert out.shape == (0,) and out.dtype == complex

    def test_bad_mode_and_option_validation(self):
        net = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
        with pytest.raises(ValueError):
            transmission_grid(net, np.array([0.0]), "a", "c")
        with pytest.raises(ValueError):
            transmission_grid(net, np.array([0.0]), "a", "b", on_singular="skip")


# ---------------------------------------------------------------- the routes agree


def spread_ensemble(n_atoms, seed):
    """``n_atoms`` atoms with jittered couplings and detunings, couplings scaled as sqrt(16 / N)."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(16.0 / n_atoms)

    def jitter(value):
        return value * (1.0 + rng.uniform(-0.1, 0.1))

    return AtomEnsemble(
        tuple(
            AtomParams(jitter(2.5 * scale), jitter(0.25 * scale), jitter(5.0), jitter(50.0), 0.0)
            for _ in range(n_atoms)
        )
    )


def jittered_n16():
    return microscopic_network(spread_ensemble(16, 4), 2.6, 2.6)


def dense_six_modes():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    damping = rng.uniform(0.5, 2.0, 6)
    damping[3] = 0.0
    return new_network(tuple("abcdef"), (raw + raw.conj().T) / 2.0, damping)


ROUTE_NETWORKS = {
    "resonant": lambda: resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6)),
    "detuned": lambda: detuned_network(DetunedParams(1.0, 1.0, 0.2, 0.2, delta_mu=10.0)),
    "two_mode": lambda: two_mode_network(0.1, 0.2, 0.2),
    "default_ensemble": lambda: microscopic_network(default_validation_ensemble(), 2.6, 2.6),
    "jittered_n16": jittered_n16,
    "dense_six_modes": dense_six_modes,
}


@pytest.mark.parametrize("name", sorted(ROUTE_NETWORKS))
@pytest.mark.parametrize("omega", [-0.45, 0.3, 1.7])
def test_every_route_gives_the_same_number(name, omega):
    net = ROUTE_NETWORKS[name]()
    ports = net.ports()
    labels = net.port_labels()
    s = scattering_matrix(net, omega).s
    for i, in_port in enumerate(labels):
        for o, out_port in enumerate(labels):
            point = transmission(net, omega, in_port, out_port)
            assert point == transmission_grid(net, [omega], in_port, out_port)[0] == s[o, i]
        # a_out = -sqrt(K) a - a_in rebuilds column i from the mode amplitudes.
        a_in = np.eye(len(ports))[i]
        amps = internal_amplitudes(net, omega, a_in)
        column = -np.sqrt(net.damping[ports]) * amps[ports] - a_in
        assert np.abs(column - s[:, i]).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_drive_frequency_is_rejected_on_every_route(bad):
    net = resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6))
    routes = [
        lambda w: transmission(net, w, "a", "b"),
        lambda w: transmission_grid(net, [0.0, w], "a", "b"),
        lambda w: transmission_grid(net, [0.0, w], "a", "b", on_singular="nan"),
        lambda w: scattering_matrix(net, w),
        lambda w: internal_amplitudes(net, w, [1.0, 0.0]),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="drive frequency must be finite"):
            route(bad)


# ---------------------------------------------------------------- chunked pair solve


class TestChunkedPairSolve:
    """The pair solve gives the same bits however its pairs are split.

    A port-space grid takes every product over modes one frequency at a time,
    so a grid solved in pieces, a single frequency, and a member solved in a
    batch of others or alone all round alike.
    """

    def test_n64_grid_is_bit_identical_in_any_chunking(self):
        net = microscopic_network(spread_ensemble(64, 5), 2.6, 2.6)
        assert net.n_modes == 130
        grid = np.linspace(-1.5, 1.5, 300)
        whole = transmission_grid(net, grid, "a", "b")
        for size in (7, 299):
            pieces = [transmission_grid(net, grid[i : i + size], "a", "b") for i in range(0, len(grid), size)]
            assert np.concatenate(pieces).tobytes() == whole.tobytes()
        points = [transmission(net, w, "a", "b") for w in grid[::23]]
        assert np.array(points).tobytes() == whole[::23].tobytes()

    def test_gap_and_edge_stacks_mixing_members_are_bit_identical(self):
        nets = [microscopic_network(spread_ensemble(4, seed), 2.6, 2.6) for seed in range(4)]

        def edges(reports):
            return [np.array([(iv.lo, iv.hi) for iv in report.intervals]).tobytes() for report in reports]

        # Equal labels, four couplings: four batches, each as the network alone.
        assert [rows.tolist() for rows, *_ in _stacks(nets, "a", "b")] == [[0], [1], [2], [3]]
        batch = _bandwidth_reports(nets, "a", "b", 0.9, (-3.0, 3.0))
        alone = [high_efficiency_intervals(net, "a", "b", 0.9, (-3.0, 3.0)) for net in nets]
        assert edges(batch) == edges(alone)
        grid = np.linspace(-1.5, 1.5, 40)  # even: off the compensated ensembles' pole at 0
        rows = efficiency_map(lambda k: nets[int(k)], np.arange(4.0), grid).etas
        for row, net in zip(rows, nets):
            assert row.tobytes() == (np.abs(transmission_grid(net, grid, *net.port_pair())) ** 2).tobytes()

    def test_pinned_16_atom_report_is_bit_identical(self):
        rng = np.random.default_rng(3)
        atoms = [
            AtomParams(2.5, 0.25, 5.0, delta_o=50.0 + 2.0 * rng.normal(), delta_mu=0.05 * rng.normal())
            for _ in range(16)
        ]
        net = microscopic_network(AtomEnsemble(tuple(atoms)), 2.6, 2.6)
        others = [microscopic_network(spread_ensemble(16, seed), 2.6, 2.6) for seed in range(2)]

        def edges(report):
            return np.array([(iv.lo, iv.hi) for iv in report.intervals]).tobytes()

        alone = edges(high_efficiency_intervals(net, "a", "b", 0.9, (-3.0, 3.0)))
        assert len(alone) == 16 * 2 * 8
        batch = _bandwidth_reports([others[0], net, others[1]], "a", "b", 0.9, (-3.0, 3.0))
        assert edges(batch[1]) == alone

    def test_singular_pair_in_a_later_chunk(self):
        # Two decoupled undamped modes at 5 and 3 make those frequencies
        # singular beside a port-space ensemble; in pair order 5 comes first,
        # and a grid solved from position 3 on keeps the same gaps.
        net = with_dark_modes(jittered_n16(), [5.0, 3.0])
        grid = np.array([0.1, 1.0, 2.0, 4.0, 5.0, 6.0, 3.0, 7.0])
        whole = transmission_grid(net, grid, "a", "a", on_singular="nan")
        assert np.flatnonzero(np.isnan(whole)).tolist() == [4, 6]
        with pytest.raises(SingularAtFrequencyError) as info:
            transmission_grid(net, grid, "a", "a")
        assert info.value.omega == 5.0
        later = transmission_grid(net, grid[3:], "a", "a", on_singular="nan")
        assert later.tobytes() == whole[3:].tobytes()
        plain = transmission_grid(jittered_n16(), grid[[0, 1, 2, 3, 5, 7]], "a", "a")
        assert np.abs(whole[[0, 1, 2, 3, 5, 7]] - plain).max() <= 1e-12

    def test_members_of_one_size_keep_their_own_solve_in_a_batch(self):
        # Six undamped modes behind two ports go to port space, four behind
        # four ports solve M(omega) itself; one coupling damped at different
        # modes makes one batch per set of damped modes, and each member keeps
        # the bits of its own grid.
        rng = np.random.default_rng(12)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        coupling = (raw + raw.conj().T) / 2.0
        nets = [
            new_network(tuple("abcdefgh"), coupling, [1.0, 0.7] + [0.0] * 6),
            new_network(tuple("abcdefgh"), coupling, [1.0, 0.7, 0.4, 0.9] + [0.0] * 4),
        ]
        batches = list(_stacks(nets, "a", "b"))
        assert [rows.tolist() for rows, *_ in batches] == [[0], [1]]
        stacks = [_pair_stack(*batch) for _, *batch in batches]
        assert isinstance(stacks[0][0], list) and type(stacks[0][0][0]).__name__ == "_PortSpace"
        assert isinstance(stacks[1][0], np.ndarray) and stacks[1][0].shape == (1, 8, 8)
        omegas = np.linspace(-2.0, 2.0, 41)
        for stack, net in zip(stacks, nets):
            alone = transmission_grid(net, omegas, "a", "b").tobytes()
            assert _pair_transmission(stack, 0, omegas).tobytes() == alone

    def test_one_eigh_per_port_space_batch(self, monkeypatch):
        # kappa moves only the damping of a and b, so the members of an atom
        # family share A_UU: the map's one batch makes one eigh of it.
        ensemble = spread_ensemble(16, 1)

        def family(kappa):
            return microscopic_network(ensemble, kappa, kappa)

        kappas, omegas = np.linspace(0.5, 6.0, 7), np.linspace(-3.0, 3.0, 60)  # even: off the pole at 0
        shapes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        rows = efficiency_map(family, kappas, omegas).etas
        assert shapes == [(32, 32)]
        monkeypatch.undo()
        for kappa, row in zip(kappas, rows):
            alone = np.abs(transmission_grid(family(kappa), omegas, "a", "b")) ** 2
            assert row.tobytes() == alone.tobytes()

    def test_port_space_stacks_hold_ports_and_nearest_directions(self, monkeypatch):
        stacks = []
        solve = scattering.solve_batched

        def spy(mats, rhs):
            stacks.append(mats.shape)
            return solve(mats, rhs)

        monkeypatch.setattr(scattering, "solve_batched", spy)
        nets = [microscopic_network(spread_ensemble(16, seed), 2.6, 2.6) for seed in range(3)]
        _bandwidth_reports(nets, "a", "b", 0.9, (-3.0, 3.0))
        transmission_grid(nets[0], np.linspace(-1.5, 1.5, 300), "a", "b")
        assert stacks and sum(m for m, _, _ in stacks) >= 2 * 300
        # two ports and the four eigen-directions nearest each frequency
        assert {(n, k) for _, n, k in stacks} == {(6, 6)}

    def test_one_elimination_per_port_space_grid(self, monkeypatch):
        # The refinement replays the bordered stack's elimination instead of
        # eliminating it again, and a 3-mode grid is one elimination as before.
        shapes = []
        eliminate = linalg._eliminate_stack

        def spy(mats, *args):
            shapes.append(np.shape(mats))
            return eliminate(mats, *args)

        monkeypatch.setattr(linalg, "_eliminate_stack", spy)
        monkeypatch.setattr(scattering, "_eliminate_stack", spy)
        net = microscopic_network(default_validation_ensemble(), 2.6, 2.6)
        grid = transmission_grid(net, np.linspace(-1.5, 1.5, 300), "a", "b")
        assert shapes == [(300, 6, 6)]
        shapes.clear()
        transmission_grid(resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0)), np.linspace(-3.0, 3.0, 300), "a", "b")
        assert shapes == [(300, 3, 3)]
        monkeypatch.undo()
        assert np.isfinite(grid).all()
