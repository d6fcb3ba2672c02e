"""Tests for the port-space solve and the elimination kernel.

A network with more than |P| + 2 undamped modes for |P| ports is solved in
port space: one ``eigh`` of its undamped block, A_UU = V diag(lam) V^H with
W = A_PU V, then per frequency one bordered system of the ports and the
eigen-directions nearest it, refined once against M(omega) itself.  The
decomposition is checked on the microscopic atom networks against its
defining identities, the grids and points it feeds against
``np.linalg.solve`` of the unreduced M(omega) with three refinement steps,
and the hard cases — exactly singular frequencies, including a dark mode
hidden in a dense block or inside a degenerate level, and a bright mode on
the drive frequency — are pinned on every route.  Smaller networks solve
M(omega) itself, exactly as given.
"""

import subprocess
import sys

import numpy as np
import pytest

from modeconv.analysis import ConverterFamily
from modeconv.ensemble import (
    AtomEnsemble,
    AtomParams,
    default_validation_ensemble,
    elimination_error,
    microscopic_network,
)
from modeconv.errors import SingularAtFrequencyError
from modeconv.linalg import solve_batched
from modeconv.network import new_network
from modeconv.scattering import (
    _pair_stack,
    _PortSpace,
    _stacks,
    dynamical_matrix,
    internal_amplitudes,
    scattering_matrix,
    transmission,
    transmission_grid,
)

from dark_modes import with_dark_modes

KAPPA = 2.6
# An even point count straddles omega = 0, where compensated ensembles with
# delta_mu = 0 are exactly singular.
GRID = np.linspace(-1.5, 1.5, 300)


def jittered_ensemble(n, seed):
    """N atoms around the default atom, each parameter jittered by up to 10 %.

    Couplings are scaled by sqrt(16/N) so the collective couplings stay near 1.
    """
    rng = np.random.default_rng(seed)
    scale = np.sqrt(16.0 / n)

    def jitter(value):
        return value * (1.0 + rng.uniform(-0.1, 0.1))

    return AtomEnsemble(
        tuple(
            AtomParams(
                g_o=jitter(2.5 * scale),
                g_mu=jitter(0.25 * scale),
                omega_rabi=jitter(5.0),
                delta_o=jitter(50.0),
                delta_mu=0.0,
            )
            for _ in range(n)
        )
    )


def detuning_spread_ensemble(n, seed):
    """Delta_o = 50 + N(0, 2) and delta_mu = N(0, 0.05): M(omega) reaches cond ~1e5 on GRID."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(16.0 / n)
    return AtomEnsemble(
        tuple(
            AtomParams(
                g_o=2.5 * scale * (1.0 + 0.1 * rng.normal()),
                g_mu=0.25 * scale * (1.0 + 0.1 * rng.normal()),
                omega_rabi=5.0,
                delta_o=50.0 + 2.0 * rng.normal(),
                delta_mu=0.05 * rng.normal(),
            )
            for _ in range(n)
        )
    )


def micro(ens):
    return microscopic_network(ens, KAPPA, KAPPA)


def unreduced(net):
    return np.diag(net.damping).astype(complex) + 2j * net.coupling


def refined_solve(net, omega, rhs):
    """M(omega)^-1 rhs by np.linalg.solve of the unreduced matrix, refined three times."""
    m = dynamical_matrix(net, omega)
    x = np.linalg.solve(m, rhs)
    for _ in range(3):
        x = x + np.linalg.solve(m, rhs - m @ x)
    return x


def refined_transmission(net, omegas, in_mode, out_mode):
    """S_out,in from :func:`refined_solve`, one frequency at a time."""
    drive = np.zeros(net.n_modes, dtype=complex)
    drive[in_mode] = np.sqrt(net.damping[in_mode])
    x = np.array([refined_solve(net, w, drive) for w in omegas])
    return 2.0 * np.sqrt(net.damping[out_mode]) * x[:, out_mode] - float(in_mode == out_mode)


def numpy_transmission(net, omegas, in_mode, out_mode):
    """S_out,in from np.linalg.solve of the unreduced M(omega), one frequency at a time."""
    n = net.n_modes
    drive = np.zeros(n, dtype=complex)
    drive[in_mode] = np.sqrt(net.damping[in_mode])
    x = np.array([np.linalg.solve(dynamical_matrix(net, w), drive) for w in omegas])
    return 2.0 * np.sqrt(net.damping[out_mode]) * x[:, out_mode] - float(in_mode == out_mode)


MICRO_NETWORKS = {
    "default_n34": lambda: micro(default_validation_ensemble()),
    "jittered_n130": lambda: micro(jittered_ensemble(64, seed=11)),
}


# ---------------------------------------------------------------- the port space


@pytest.mark.parametrize("name", sorted(MICRO_NETWORKS))
def test_reduction_identities_on_microscopic_networks(name):
    net = MICRO_NETWORKS[name]()
    space = _pair_stack(*next(_stacks([net], "a", "b"))[1:])[0][0]
    ports, inner = space.ports, space.inner
    assert ports.tolist() == [0, 1] and inner.tolist() == list(range(2, net.n_modes))
    a_uu = net.coupling[np.ix_(inner, inner)]
    v, lam = space.v, space.lam
    assert np.linalg.norm(v.conj().T @ v - np.eye(len(inner)), 2) <= 1e-14
    assert np.linalg.norm(v @ np.diag(lam) @ v.conj().T - a_uu) <= 1e-13 * np.linalg.norm(a_uu)
    assert np.abs(space.w - net.coupling[np.ix_(ports, inner)] @ v).max() <= 1e-14
    # Each cluster of equal levels (the compensated atoms' dark level at 0
    # holds one per atom) is rotated so that only its first |P| directions
    # couple to the ports.
    bounds = np.flatnonzero(np.diff(lam, prepend=-np.inf, append=np.inf) != 0.0)
    sizes = np.diff(bounds)
    assert sizes.max() >= 16
    for start, size in zip(bounds[:-1], sizes):
        assert np.abs(space.w[:, start + 2 : start + size]).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("n_atoms", [16, 64])
def test_port_space_scattering_matrix_equals_the_full_one(n_atoms):
    net = micro(detuning_spread_ensemble(n_atoms, seed=3))
    assert isinstance(_pair_stack(*next(_stacks([net], "a", "b"))[1:])[0][0], _PortSpace)
    roots = np.sqrt(net.damping[:2])
    columns = np.zeros((net.n_modes, 2), dtype=complex)
    columns[[0, 1], [0, 1]] = roots
    for w in GRID[::29]:
        x = refined_solve(net, w, columns)
        full = 2.0 * roots[:, None] * x[:2] - np.eye(2)
        assert np.abs(scattering_matrix(net, w).s - full).max() <= 1e-11
        amps = internal_amplitudes(net, w, [1.0, 0.0])
        assert np.abs(amps + 2.0 * x[:, 0]).max() <= 1e-11 * np.abs(x[:, 0]).max()


@pytest.mark.parametrize(
    "net",
    [
        ConverterFamily("resonant", 1.3).build(2.6),
        ConverterFamily("detuned", 0.8, delta_mu=3.0).build(0.2),
        ConverterFamily("two_mode", 0.5).build(1.0),
        with_dark_modes(ConverterFamily("resonant", 1.0).build(2.6), [0.0]),
        with_dark_modes(ConverterFamily("resonant", 1.0).build(2.6), [-0.7, 0.0015, 0.003]),
    ],
    ids=["resonant", "detuned", "two_mode", "one_dark_mode", "three_dark_modes"],
)
def test_networks_already_hessenberg_are_left_exactly_alone(net):
    # At most |P| + 2 undamped modes: the pair solve works on M(omega) itself.
    systems = _pair_stack(*next(_stacks([net], "a", None))[1:])[0]
    assert isinstance(systems, np.ndarray)
    assert np.array_equal(systems[0], unreduced(net))


# ---------------------------------------------------------------- grids in port space


@pytest.mark.parametrize("name", sorted(MICRO_NETWORKS))
def test_grid_matches_numpy_solve_of_the_unreduced_matrix(name):
    net = MICRO_NETWORKS[name]()
    for in_mode, out_mode in ((0, 1), (1, 0), (0, 0)):
        labels = net.labels[in_mode], net.labels[out_mode]
        grid = transmission_grid(net, GRID, *labels)
        expected = numpy_transmission(net, GRID, in_mode, out_mode)
        assert np.abs(grid - expected).max() <= 1e-12
    # The point path solves the same port-space systems: equal, not merely close.
    points = np.array([transmission(net, w, "a", "b") for w in GRID[::37]])
    assert np.all(points == transmission_grid(net, GRID, "a", "b")[::37])


def test_ill_conditioned_grid_stays_within_the_normwise_bound():
    # The eigendecomposition is only normwise backward stable, so S could move
    # by up to ~n eps cond(M); one refinement step against M(omega) itself
    # brings it to the refined reference, where cond(M) passes 1e4.
    omegas = GRID[::5]
    for seed in (2, 3):
        net = micro(detuning_spread_ensemble(64, seed))
        grid = transmission_grid(net, omegas, "a", "b")
        expected = refined_transmission(net, omegas, 0, 1)
        cond = np.array([np.linalg.cond(dynamical_matrix(net, w)) for w in omegas])
        assert cond.max() > 1e4
        assert np.abs(grid - expected).max() <= 1e-11


def test_258_mode_grid_matches_the_refined_reference():
    # The atom-scale report of the CI memory gate: 128 atoms, couplings scaled by 4/sqrt(N).
    rng = np.random.default_rng(3)
    scale = 4.0 / np.sqrt(128)
    atoms = [
        AtomParams(2.5 * scale, 0.25 * scale, 5.0, delta_o=50.0 + 2.0 * rng.normal(), delta_mu=0.05 * rng.normal())
        for _ in range(128)
    ]
    net = micro(AtomEnsemble(tuple(atoms)))
    assert net.n_modes == 258
    omegas = np.linspace(-3.0, 3.0, 601) + 1e-3
    grid = transmission_grid(net, omegas, "a", "b")
    sample = omegas[::15]
    assert np.abs(grid[::15] - refined_transmission(net, sample, 0, 1)).max() <= 1e-11
    assert all(transmission(net, w, "a", "b") == g for w, g in zip(sample[::8], grid[::15][::8]))


@pytest.mark.parametrize("omega", [0.0, 1e-14, -1e-14, 1e-8, -1e-8])
def test_bright_mode_on_the_drive_frequency(omega):
    # The chain's middle mode sits at omega = 0 and carries the conversion.
    net = ConverterFamily("resonant", 1.0).build(2.6)
    expected = numpy_transmission(net, [omega], 0, 2)[0]
    assert abs(transmission(net, omega, "a", "b") - expected) <= 1e-14
    assert transmission_grid(net, [-0.5, omega, 0.5], "a", "b")[1] == transmission(net, omega, "a", "b")
    assert abs(scattering_matrix(net, omega).s[1, 0] - expected) <= 1e-14


def test_kernel_on_banded_stacks_matches_numpy():
    rng = np.random.default_rng(77)
    for n, band in ((3, 1), (8, 1), (34, 1), (9, 2), (12, 4)):
        mats = rng.normal(size=(20, n, n)) + 1j * rng.normal(size=(20, n, n))
        mats = np.triu(mats, -band)
        rhs = rng.normal(size=(20, n, 2)) + 1j * rng.normal(size=(20, n, 2))
        x, singular = solve_batched(mats, rhs)
        assert not singular.any()
        expected = np.linalg.solve(mats, rhs)
        assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()


# ---------------------------------------------------------------- exactly singular frequencies


def test_uniform_compensated_ensemble_is_singular_at_zero_on_every_route():
    ens = default_validation_ensemble()
    net = micro(ens)
    with pytest.raises(SingularAtFrequencyError) as info:
        transmission(net, 0.0, "a", "b")
    assert info.value.omega == 0.0
    with pytest.raises(SingularAtFrequencyError) as info:
        transmission_grid(net, [-0.5, 0.0, 0.5], "a", "b")
    assert info.value.omega == 0.0
    values = transmission_grid(net, [-0.5, 0.0, 0.5], "a", "b", on_singular="nan")
    assert np.isnan(values[1]) and np.isfinite(values[[0, 2]]).all()
    with pytest.raises(SingularAtFrequencyError):
        internal_amplitudes(net, 0.0, [1.0, 0.0])
    with pytest.raises(SingularAtFrequencyError):
        elimination_error(ens, KAPPA, KAPPA, np.linspace(-1.5, 1.5, 301))


DARK_LEVEL = 0.7


def hidden_dark_mode_networks():
    """Two ports on a dense undamped block that hides a dark mode at DARK_LEVEL.

    The block is U diag(levels) U^H for a fixed unitary U, and the ports couple
    only to the other three eigenvectors, so the mode U[:, 0] is undamped and
    dark.  Returns the network and the same network with the dark mode removed,
    which has the same scattering matrix away from DARK_LEVEL.
    """
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    levels = np.array([DARK_LEVEL, 2.0, -1.5, 3.0])
    g_a = np.array([0.0, 0.8, 0.5, 0.3])
    g_b = np.array([0.0, 0.4, -0.6, 0.9])

    def build(block, c_a, c_b):
        k = len(block)
        a = np.zeros((k + 2, k + 2), dtype=complex)
        a[2:, 2:] = block
        a[0, 2:], a[2:, 0] = c_a, np.conj(c_a)
        a[1, 2:], a[2:, 1] = c_b, np.conj(c_b)
        return new_network(("a", "b") + tuple(f"c{i}" for i in range(k)), a, [1.0, 1.5] + [0.0] * k)

    hidden = build(u @ np.diag(levels) @ u.conj().T, g_a @ u.conj().T, g_b @ u.conj().T)
    return hidden, build(np.diag(levels[1:]), g_a[1:], g_b[1:])


def test_hidden_dark_mode_is_singular_on_every_route():
    net, _ = hidden_dark_mode_networks()
    routes = [
        lambda w: transmission(net, w, "a", "b"),
        lambda w: scattering_matrix(net, w),
        lambda w: internal_amplitudes(net, w, [1.0, 0.0]),
        lambda w: transmission_grid(net, [w - 0.1, w, w + 0.1], "a", "b"),
    ]
    for route in routes:
        with pytest.raises(SingularAtFrequencyError) as info:
            route(DARK_LEVEL)
        assert info.value.omega == DARK_LEVEL
    values = transmission_grid(net, [DARK_LEVEL - 0.1, DARK_LEVEL, DARK_LEVEL + 0.1], "a", "b", on_singular="nan")
    assert np.isnan(values[1]) and np.isfinite(values[[0, 2]]).all()


@pytest.mark.parametrize("offset", [-1e-6, 1e-6])
def test_hidden_dark_mode_has_one_finite_value_beside_it(offset):
    net, bright = hidden_dark_mode_networks()
    w = DARK_LEVEL + offset
    point = transmission(net, w, "a", "b")
    assert np.isfinite(point)
    assert transmission_grid(net, [w], "a", "b")[0] == point
    assert transmission_grid(net, [w], "a", "b", on_singular="nan")[0] == point
    assert scattering_matrix(net, w).s[1, 0] == point
    # b_out = -sqrt(kappa_b) b for a drive at a alone.
    amps = internal_amplitudes(net, w, [1.0, 0.0])
    assert abs(-np.sqrt(1.5) * amps[1] - point) <= 1e-9
    # Away from its own level the dark mode changes nothing at the ports.
    assert abs(transmission(bright, w, "a", "b") - point) <= 1e-9


def test_uniform_compensated_ensemble_is_regular_beside_zero():
    # The bright collective mode shares the dark atoms' level at 0; beside it
    # the dark combinations cancel from S and the conversion is complete.
    net = micro(default_validation_ensemble())
    values = [transmission(net, w, "a", "b") for w in (-1e-9, 1e-9)]
    assert np.allclose(np.abs(values) ** 2, 1.0, rtol=0.0, atol=1e-12)
    assert abs(values[1] - values[0]) <= 1e-8
    assert transmission_grid(net, [-1e-9, 1e-9], "a", "b").tolist() == values


def hidden_dark_level_networks():
    """Two ports on a dense ten-mode undamped block whose level DARK_LEVEL is threefold.

    The block is U diag(levels) U^H for a fixed unitary U, and the ports
    couple to two of the level's three eigenvectors, so U[:, 0] is undamped
    and dark while its level is bright; an eigensolver returns any basis of
    it.  Returns the network and the same network with U[:, 0] removed,
    which has the same scattering matrix away from DARK_LEVEL.
    """
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)))
    levels = np.array([DARK_LEVEL, DARK_LEVEL, DARK_LEVEL, 2.0, -1.5, 3.0, 1.1, -0.4, 2.5, -2.2])
    g_a = np.array([0.0, 0.8, 0.5, 0.3, 0.2, 0.6, 0.1, 0.4, 0.3, 0.5])
    g_b = np.array([0.0, 0.4, -0.6, 0.9, 0.5, -0.2, 0.3, 0.1, -0.4, 0.2])

    def build(block, c_a, c_b):
        k = len(block)
        a = np.zeros((k + 2, k + 2), dtype=complex)
        a[2:, 2:] = block
        a[0, 2:], a[2:, 0] = c_a, np.conj(c_a)
        a[1, 2:], a[2:, 1] = c_b, np.conj(c_b)
        return new_network(("a", "b") + tuple(f"c{i}" for i in range(k)), a, [1.0, 1.5] + [0.0] * k)

    hidden = build(u @ np.diag(levels) @ u.conj().T, g_a @ u.conj().T, g_b @ u.conj().T)
    return hidden, build(np.diag(levels[1:]), g_a[1:], g_b[1:])


def test_dark_direction_inside_a_bright_level_is_singular_only_on_it():
    net, bright = hidden_dark_level_networks()
    routes = [
        lambda w: transmission(net, w, "a", "b"),
        lambda w: scattering_matrix(net, w),
        lambda w: internal_amplitudes(net, w, [1.0, 0.0]),
        lambda w: transmission_grid(net, [w - 0.1, w, w + 0.1], "a", "b"),
    ]
    for route in routes:
        with pytest.raises(SingularAtFrequencyError) as info:
            route(DARK_LEVEL)
        assert info.value.omega == DARK_LEVEL
    for w in (DARK_LEVEL - 1e-6, DARK_LEVEL + 1e-6, -0.4, 1.1):
        point = transmission(net, w, "a", "b")
        assert transmission_grid(net, [w], "a", "b")[0] == point == scattering_matrix(net, w).s[1, 0]
        assert abs(transmission(bright, w, "a", "b") - point) <= 1e-9


# ---------------------------------------------------------------- dependencies


def test_import_leaves_scipy_unloaded():
    code = "import sys, modeconv; sys.exit(1 if 'scipy' in sys.modules else 0)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
