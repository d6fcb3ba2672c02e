"""Tests for the once-per-network Hessenberg reduction and the banded kernel.

Every frequency of a network is solved in the reduced basis K + 2iA = Q H Q^H,
with H upper Hessenberg, so each system costs O(n^2).  The reduction is checked
on the microscopic atom networks against its defining identities and against
scipy's LAPACK reduction (a test-only oracle), the grid it feeds is checked
against ``np.linalg.solve`` of the unreduced M(omega), and the hard cases —
exactly singular frequencies, including a dark mode hidden in a dense block —
are pinned on every route.
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
    _reduced,
    dynamical_matrix,
    internal_amplitudes,
    scattering_matrix,
    transmission,
    transmission_grid,
)

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


# ---------------------------------------------------------------- the reduction


@pytest.mark.parametrize("name", sorted(MICRO_NETWORKS))
def test_reduction_identities_on_microscopic_networks(name):
    net = MICRO_NETWORKS[name]()
    b = unreduced(net)
    h, q = _reduced(net)
    n = net.n_modes
    assert np.all(np.tril(h, -2) == 0.0)
    assert np.linalg.norm(q.conj().T @ q - np.eye(n), 2) <= 1e-14
    assert np.linalg.norm(q @ h @ q.conj().T - b) <= 1e-13 * np.linalg.norm(b)
    # Householder reflectors act below the first row, so mode 0 is never mixed.
    assert np.all(q[0] == np.eye(n)[0]) and np.all(q[:, 0] == np.eye(n)[0])


@pytest.mark.parametrize("n_atoms", [16, 64])
def test_reduction_matches_scipy_hessenberg_in_magnitude(n_atoms):
    # With Q e_0 = e_0 and no vanishing subdiagonal, the Hessenberg form is
    # unique up to the phase of each basis vector, so |H| is comparable
    # entry by entry with LAPACK's (which makes the subdiagonal real).  The
    # jittered ensembles do not qualify: with delta_mu = 0 their compensated
    # atoms leave N - 2 dark modes, so the subdiagonal vanishes to rounding.
    scipy_linalg = pytest.importorskip("scipy.linalg")
    net = micro(detuning_spread_ensemble(n_atoms, seed=3))
    b = unreduced(net)
    h, _ = _reduced(net)
    assert np.abs(np.diag(h, -1)).min() > 1e-8 * np.linalg.norm(b)
    oracle = scipy_linalg.hessenberg(b)
    assert np.abs(np.abs(h) - np.abs(oracle)).max() <= 1e-12 * np.linalg.norm(b)


def with_decoupled_modes(net, omegas):
    """``net`` plus one decoupled undamped mode at each frequency in ``omegas``."""
    n, m = net.n_modes, net.n_modes + len(omegas)
    coupling = np.zeros((m, m), dtype=complex)
    coupling[:n, :n] = net.coupling
    coupling[range(n, m), range(n, m)] = omegas
    labels = net.labels + tuple(f"d{k}" for k in range(len(omegas)))
    return new_network(labels, coupling, np.concatenate([net.damping, np.zeros(len(omegas))]))


@pytest.mark.parametrize(
    "net",
    [
        ConverterFamily("resonant", 1.3).build(2.6),
        ConverterFamily("detuned", 0.8, delta_mu=3.0).build(0.2),
        ConverterFamily("two_mode", 0.5).build(1.0),
        with_decoupled_modes(ConverterFamily("resonant", 1.0).build(2.6), [0.0]),
        with_decoupled_modes(ConverterFamily("resonant", 1.0).build(2.6), [-0.7, 0.0015, 0.003]),
    ],
    ids=["resonant", "detuned", "two_mode", "one_dark_mode", "three_dark_modes"],
)
def test_networks_already_hessenberg_are_left_exactly_alone(net):
    h, q = _reduced(net)
    assert np.array_equal(q, np.eye(net.n_modes))
    assert np.array_equal(h, unreduced(net))


# ---------------------------------------------------------------- grids on the reduced form


@pytest.mark.parametrize("name", sorted(MICRO_NETWORKS))
def test_grid_matches_numpy_solve_of_the_unreduced_matrix(name):
    net = MICRO_NETWORKS[name]()
    for in_mode, out_mode in ((0, 1), (1, 0), (0, 0)):
        labels = net.labels[in_mode], net.labels[out_mode]
        grid = transmission_grid(net, GRID, *labels)
        expected = numpy_transmission(net, GRID, in_mode, out_mode)
        assert np.abs(grid - expected).max() <= 1e-12
    # The point path solves the same reduced systems: equal, not merely close.
    points = np.array([transmission(net, w, "a", "b") for w in GRID[::37]])
    assert np.all(points == transmission_grid(net, GRID, "a", "b")[::37])


def test_ill_conditioned_grid_stays_within_the_normwise_bound():
    # The unitary reduction is normwise backward stable: the solve is exact for
    # some M + dM with |dM| ~ eps |M|, so S moves by up to ~n eps cond(M).
    # (The unreduced sparse elimination is componentwise stable and can do
    # better; np.linalg.solve, dense like the reduced form, does not.)
    net = micro(detuning_spread_ensemble(64, seed=3))
    omegas = GRID[::5]
    grid = transmission_grid(net, omegas, "a", "b")
    expected = numpy_transmission(net, omegas, 0, 1)
    cond = np.array([np.linalg.cond(dynamical_matrix(net, w)) for w in omegas])
    bound = net.n_modes * np.finfo(float).eps * cond
    assert cond.max() > 1e4
    assert np.all(np.abs(grid - expected) <= bound)


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


# ---------------------------------------------------------------- dependencies


def test_import_leaves_scipy_unloaded():
    code = "import sys, modeconv; sys.exit(1 if 'scipy' in sys.modules else 0)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
