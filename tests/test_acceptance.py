"""Acceptance suite: one test per criterion, each line pass/fail on its own.

Values quoted to 9+ digits are frozen from independent dense-scan/bisection
oracle runs performed before the engine was built; tolerance bands come from
the published anchors.  Criterion 7's bound is 0.0525: the frozen oracle for
the default ensemble residual is 0.051974, slightly above a rounder 0.05.
"""

import numpy as np

from modeconv.analysis import ConverterFamily, branch_count, high_efficiency_intervals, optimize_kappa
from modeconv.cli import main
from modeconv.converter import (
    DetunedParams,
    ResonantParams,
    detuned_network,
    efficiency_closed_form,
    resonant_network,
    two_mode_network,
)
from modeconv.ensemble import default_validation_ensemble, elimination_error, uniform_ensemble
from modeconv.formatting import format_float
from modeconv.network import new_network
from modeconv.scattering import scattering_matrix, transmission
from modeconv.timedomain import frequency_domain_check, integrate


def eta(net, omega):
    return abs(transmission(net, omega, "a", "b")) ** 2


def test_criterion_1_unity_efficiency_points():
    # kappa = 2g: eta = 1 at omega = 0 and omega = +/-g, closed form and engine
    net = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
    for omega in (0.0, 1.0, -1.0):
        assert abs(efficiency_closed_form(omega, 1.0, 2.0) - 1.0) < 1e-9
        assert abs(eta(net, omega) - 1.0) < 1e-9


def test_criterion_2_flat_top_width():
    net = resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6))
    report = high_efficiency_intervals(net, "a", "b", 0.999, (-3.0, 3.0))
    assert len(report.intervals) == 1
    assert 1.30 <= report.max_width <= 1.34
    # pre-registered dense-scan oracle for the 0.99-threshold width at kappa = 2.6
    report99 = high_efficiency_intervals(net, "a", "b", 0.99, (-3.0, 3.0))
    assert len(report99.intervals) == 1
    assert abs(report99.max_width - 1.596649817) < 1e-6


def test_criterion_3_optimum_bandwidth():
    resonant = ConverterFamily(kind="resonant", g=1.0)
    _, width_star = optimize_kappa(resonant, 0.99, (0.1, 8.0))
    assert 1.8 <= width_star <= 2.2
    widths = [width_star]
    for delta_mu in (1.0, 3.0, 10.0):
        fam = ConverterFamily(kind="detuned", g=1.0, delta_mu=delta_mu)
        _, w = optimize_kappa(fam, 0.99, (0.1, 8.0))
        widths.append(w)
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_criterion_4_branch_structure():
    fam = ConverterFamily(kind="resonant", g=1.0)
    window = (-3.0, 3.0)
    counts = [
        branch_count(fam.build(float(k)), "a", "b", 0.99, window)
        for k in np.arange(2.0, 2.6 + 1e-9, 0.01)
    ]
    assert counts[0] == 3
    assert counts[-1] == 1
    assert set(counts) == {1, 3}
    transitions = sum(1 for a, b in zip(counts, counts[1:]) if a != b)
    assert transitions == 1


def test_criterion_5_detuned_and_two_mode_anchors():
    detuned = detuned_network(DetunedParams(1.0, 1.0, 0.2, 0.2, delta_mu=10.0))
    assert abs(eta(detuned, 0.0) - 0.8) < 1e-9
    two = two_mode_network(0.1, 0.2, 0.2)
    assert abs(eta(two, 0.0) - 1.0) < 1e-9


def test_criterion_6_property_suite():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        coupling = (raw + raw.conj().T) / 2.0
        damping = np.where(rng.random(n) < 0.7, rng.uniform(0.05, 4.0, n), 0.0)
        if not damping.any():
            damping[int(rng.integers(n))] = 1.0
        labels = tuple(f"m{i}" for i in range(n))
        net = new_network(labels, coupling, damping)
        omega = float(rng.normal(scale=2.0))
        s = scattering_matrix(net, omega).s
        p = len(s)
        assert np.abs(s.conj().T @ s - np.eye(p)).max() <= 1e-10
        assert np.abs(s).max() <= 1.0 + 1e-9
        sym = new_network(labels, coupling.real, damping)
        s_sym = scattering_matrix(sym, omega).s
        assert np.abs(s_sym - s_sym.T).max() <= 1e-12
        checked += 1
    assert checked >= 1000
    # closed form vs engine across the resonant family
    for _ in range(40):
        g = float(rng.uniform(0.2, 2.0))
        kappa = float(rng.uniform(0.2, 5.0))
        omega = float(rng.normal(scale=2.0))
        net = resonant_network(ResonantParams(g, g, kappa, kappa))
        assert abs(eta(net, omega) - efficiency_closed_form(omega, g, kappa)) <= 1e-10


def test_criterion_7_adiabatic_elimination():
    grid = np.linspace(-1.5, 1.5, 300)
    err = elimination_error(default_validation_ensemble(), 2.6, 2.6, grid)
    assert err <= 0.0525
    assert abs(err - 0.051973975123) < 1e-9
    frozen = {
        25.0: 0.100713028190,
        50.0: 0.051973975123,
        100.0: 0.026385052864,
        200.0: 0.013292154908,
    }
    errors = []
    for delta_o, expect in frozen.items():
        scale = np.sqrt(delta_o / 50.0)
        ens = uniform_ensemble(16, 2.5 * scale, 0.25, 5.0 * scale, delta_o)
        e = elimination_error(ens, 2.6, 2.6, grid)
        assert abs(e - expect) < 1e-9
        errors.append(e)
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_criterion_8_time_frequency_consistency():
    one = new_network(("a",), np.zeros((1, 1)), (2.0,))
    _, _, err = frequency_domain_check(one, 0.7, "a", "a")
    assert err < 1e-3
    matched = resonant_network(ResonantParams(1.0, 1.0, 2.0, 2.0))
    for omega in (0.0, 1.0):
        _, _, err = frequency_domain_check(matched, omega, "a", "b")
        assert err < 1e-3
    flat = resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6))
    _, _, err = frequency_domain_check(flat, 0.5, "a", "b")
    assert err < 1e-3
    # single-mode free decay against the exact exponential
    result = integrate(one, [], t_max=5.0, dt=0.002, initial_amplitudes=[1.0])
    assert np.abs(result.mode_amplitudes[0] - np.exp(-result.times)).max() < 1e-8


def _find_row(path, targets):
    """Return the fields of the CSV row whose leading columns match ``targets``."""
    for line in path.read_text().strip().split("\n")[1:]:
        fields = line.split(",")
        if all(abs(float(f) - t) < 1e-9 for f, t in zip(fields, targets)):
            return fields
    raise AssertionError(f"no row matching {targets} in {path.name}")


def test_criterion_9_cli_regression(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    for preset in ("fig2", "fig3", "fig4"):
        assert main(["reproduce", "--preset", preset, "--out-dir", str(first)]) == 0
        assert main(["reproduce", "--preset", preset, "--out-dir", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert len(names) == 12
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()

    # criterion 1 spot values: kappa = 2 row of the resonant map at omega = 0, +/-1
    for omega in (-1.0, 0.0, 1.0):
        fields = _find_row(first / "fig3_map_dmu0.csv", (2.0, omega))
        assert fields[2] == "1.000000000000e0"
    # criterion 2 spot value: the flat-top width in the bandwidth report matches
    # the engine's own value at full precision
    net = resonant_network(ResonantParams(1.0, 1.0, 2.6, 2.6))
    report = high_efficiency_intervals(net, "a", "b", 0.999, (-3.0, 3.0))
    text = (first / "fig2_resonant_bandwidth.json").read_text()
    assert f'"max_width": {format_float(report.max_width)}' in text
    assert 1.30 <= report.max_width <= 1.34
    # criterion 5 spot values at omega = 0
    assert _find_row(first / "fig2_detuned_sweep.csv", (0.0,))[1] == "8.000000000000e-1"
    assert _find_row(first / "fig2_two_mode_sweep.csv", (0.0,))[1] == "1.000000000000e0"
    assert _find_row(first / "fig2_resonant_sweep.csv", (0.0,))[1] == "1.000000000000e0"
