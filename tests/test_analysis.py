"""Tests for bandwidth extraction and damping optimization."""

import math
import re
import warnings

import numpy as np
import pytest

from modeconv import analysis
from modeconv import converter as converter_module
from modeconv import network as network_module
from modeconv.analysis import (
    ETA_REFINE_TOL,
    ConverterFamily,
    Interval,
    _bandwidth_reports,
    _crossing_counts,
    _groups,
    _level_set_matrices,
    _members,
    _polish,
    _real_eigenvalues,
    branch_count,
    default_omega_window,
    efficiency_curve,
    efficiency_map,
    high_efficiency_intervals,
    max_bandwidth,
    optimize_kappa,
)
from modeconv.converter import (
    DetunedParams,
    ResonantParams,
    detuned_network,
    efficiency_closed_form,
    resonant_network,
    two_mode_network,
)
from modeconv.ensemble import default_validation_ensemble, microscopic_network
from modeconv.errors import NegativeDampingError, NoPortsError
from modeconv.network import new_network
from modeconv.scattering import _pair_stack, _stacks, dynamical_matrix, transmission_grid

from dark_modes import with_dark_modes, with_extra_modes


def resonant(kappa):
    return resonant_network(ResonantParams(1.0, 1.0, kappa, kappa))


def dark_mode_report(omegas, omega_range=(-3.0, 3.0)):
    """0.99-threshold report of the kappa = 2.6 resonant net with dark modes, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = high_efficiency_intervals(with_dark_modes(resonant(2.6), omegas), "a", "b", 0.99, omega_range)
    return report, [str(w.message) for w in caught]


def test_family_builders():
    fam = ConverterFamily(kind="resonant", g=1.0)
    net = fam.build(2.0)
    assert net.labels == ("a", "c", "b")
    assert tuple(net.damping) == (2.0, 0.0, 2.0)
    det = ConverterFamily(kind="detuned", g=1.0, delta_mu=3.0).build(0.5)
    assert det.coupling[1, 1] == 3.0
    two = ConverterFamily(kind="two_mode", g=0.1).build(0.2)
    assert two.labels == ("a", "b")
    with pytest.raises(ValueError):
        ConverterFamily(kind="nope").build(1.0)


class TestConverterFamily:
    @pytest.mark.parametrize(
        "family, construct",
        [
            (ConverterFamily("resonant", g=1.3), lambda k: resonant_network(ResonantParams(1.3, 1.3, k, k))),
            (
                ConverterFamily("detuned", g=0.8, delta_mu=-3.0),
                lambda k: detuned_network(DetunedParams(0.8, 0.8, k, k, -3.0)),
            ),
            (ConverterFamily("two_mode", g=0.5), lambda k: two_mode_network(0.5, k, k)),
        ],
        ids=["resonant", "detuned", "two_mode"],
    )
    def test_members_are_the_built_networks_byte_for_byte(self, family, construct):
        kappas = np.append(np.linspace(0.1, 8.0, 201), [8.0, 0.1, EXCEPTIONAL_KAPPA])
        # Both the stack and a member built alone (as the CLI builds one) are the constructor's network.
        nets = family.members(kappas) + [family(float(k)) for k in kappas]
        for net, built in zip(nets, 2 * [construct(float(k)) for k in kappas], strict=True):
            assert net.labels == built.labels
            for stacked, single in ((net.coupling, built.coupling), (net.damping, built.damping)):
                assert stacked.dtype == single.dtype and stacked.shape == single.shape
                assert stacked.tobytes() == single.tobytes()
                assert not stacked.flags.writeable and not single.flags.writeable

    def test_fields_are_checked_at_construction(self):
        with pytest.raises(ValueError, match="kind must be 'resonant', 'detuned' or 'two_mode', got 'nope'"):
            ConverterFamily("nope")
        for kind in ("resonant", "two_mode"):
            with pytest.raises(ValueError, match=f"delta_mu applies only to kind 'detuned', got 3.0 for '{kind}'"):
                ConverterFamily(kind, delta_mu=3.0)

    @pytest.mark.parametrize("bad", ["2", True, np.nan, np.inf, 1j, None], ids=repr)
    def test_a_coupling_or_detuning_that_is_not_a_finite_real_is_refused(self, bad):
        for field in ("g", "delta_mu"):
            message = re.escape(f"family parameter {field} must be a finite real number, got {bad!r}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                ConverterFamily("detuned", **{field: bad})
        with pytest.raises(ValueError, match="^family parameter g "):
            ConverterFamily("resonant", g=bad)

    def test_numpy_reals_are_accepted(self):
        family = ConverterFamily("detuned", g=np.float32(0.5), delta_mu=np.int64(2))
        assert family.build(1.0).coupling.tobytes() == ConverterFamily("detuned", 0.5, 2.0).build(1.0).coupling.tobytes()

    def test_a_bad_kappa_names_its_member(self):
        with pytest.raises(ValueError, match="^member 2: damping must be finite$"):
            ConverterFamily("resonant").members([1.0, 2.0, np.nan, np.inf])

    @pytest.mark.parametrize("kappas", [[[1.0, 2.0]], [[1.0], [2.0]]], ids=["row", "column"])
    def test_kappas_of_more_than_one_dimension_are_refused(self, kappas):
        message = re.escape(f"kappas must be a 1-D array, got shape {np.shape(kappas)}")
        for kind in ("resonant", "two_mode"):
            for make in (ConverterFamily(kind).stack, ConverterFamily(kind).members):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    make(kappas)


def test_efficiency_curve_values():
    net = resonant(2.6)
    grid = np.linspace(-2.0, 2.0, 101)
    curve = efficiency_curve(net, "a", "b", grid)
    direct = np.abs(transmission_grid(net, grid, "a", "b")) ** 2
    assert np.abs(curve.etas - direct).max() < 1e-14
    with pytest.raises(ValueError):
        efficiency_curve(net, "a", "b", grid[::-1])


class TestIntervals:
    def test_triple_branch_structure_at_matching(self):
        # kappa = 2g: three maxima at omega = 0, +/-g; threshold 0.99 cuts
        # three separate intervals whose endpoints are known to 1e-8
        report = high_efficiency_intervals(resonant(2.0), "a", "b", 0.99, (-3.0, 3.0))
        assert report.threshold == 0.99
        assert len(report.intervals) == 3
        lo, mid, hi = report.intervals
        assert abs(lo.lo + 1.088428613) < 1e-7
        assert abs(lo.hi + 0.878119032) < 1e-7
        assert abs(mid.lo + 0.210309581) < 1e-7
        assert abs(mid.hi - 0.210309581) < 1e-7
        assert abs(hi.lo - 0.878119032) < 1e-7
        assert abs(hi.hi - 1.088428613) < 1e-7
        assert abs(report.max_width - 0.420619162) < 1e-7
        assert max_bandwidth(resonant(2.0), "a", "b", 0.99, (-3.0, 3.0)) == report.max_width

    def test_flat_top_merged_interval(self):
        report = high_efficiency_intervals(resonant(2.6), "a", "b", 0.999, (-3.0, 3.0))
        assert len(report.intervals) == 1
        assert abs(report.max_width - 1.318723019) < 1e-6

    def test_refined_edges_sit_on_threshold(self):
        report = high_efficiency_intervals(resonant(2.6), "a", "b", 0.99, (-3.0, 3.0))
        for iv in report.intervals:
            for edge in (iv.lo, iv.hi):
                assert abs(efficiency_closed_form(edge, 1.0, 2.6) - 0.99) < 1e-8

    def test_interval_clipped_at_scan_boundary(self):
        # a scan window cutting through the passband leaves the boundary as an
        # interval edge rather than refining past it
        report = high_efficiency_intervals(resonant(2.6), "a", "b", 0.99, (0.0, 3.0))
        assert len(report.intervals) == 1
        assert report.intervals[0].lo == 0.0

    def test_side_unity_points_survive_extreme_thresholds(self):
        # kappa = 2.6 still touches eta = 1 at omega = 0 and two side points,
        # so even a near-one threshold keeps three slivers of passband
        report = high_efficiency_intervals(resonant(2.6), "a", "b", 0.9999999, (-3.0, 3.0))
        assert len(report.intervals) == 3
        for iv in report.intervals:
            assert iv.width < 0.02

    def test_no_intervals_when_curve_stays_below_threshold(self):
        report = high_efficiency_intervals(resonant(2.6), "a", "b", 0.9999999, (2.0, 3.0))
        assert report.intervals == ()
        assert report.max_width == 0.0

    # A dark mode is a real-axis pole that cancels from S_ab.  No port is
    # linked to it, so no report solves it: each report below is the plain
    # report, bit for bit and without a warning.

    def test_one_point_singular_gap_is_bridged(self):
        # omega = 0 lies inside the passband
        report, caught = dark_mode_report([0.0])
        assert report == high_efficiency_intervals(resonant(2.6), "a", "b", 0.99, (-3.0, 3.0))
        assert caught == []

    def test_edge_beside_a_pole_is_the_plain_edge(self):
        plain = high_efficiency_intervals(resonant(2.6), "a", "b", 0.99, (-3.0, 3.0))
        grid = np.linspace(-3.0, 3.0, 4001)
        first = int(np.searchsorted(grid, plain.intervals[0].lo))
        report, caught = dark_mode_report([grid[first - 1]])
        assert report == plain
        assert caught == []

    def test_two_poles_inside_a_passband_keep_it_whole(self):
        plain = high_efficiency_intervals(resonant(2.6), "a", "b", 0.99, (-3.0, 3.0))
        grid = np.linspace(-3.0, 3.0, 4001)
        report, caught = dark_mode_report([grid[2100], grid[2101]])
        assert report == plain
        assert caught == []

    @pytest.mark.parametrize(
        "net, threshold",
        [
            (resonant(2.0), 0.99),
            (ConverterFamily(kind="detuned", g=1.5, delta_mu=1.0).build(0.7), 0.5),
            (two_mode_network(1.0, 1.0, 1.0), 0.9),
        ],
        ids=["resonant", "detuned", "two_mode"],
    )
    def test_pole_at_each_gap_midpoint_and_each_edge(self, net, threshold):
        # The gap midpoints are where a report classifies its gaps, and the
        # edges are its cuts: a pole on either, or one ulp either side of an
        # edge, must not move the answer.
        window = (-3.0, 3.0)
        plain = high_efficiency_intervals(net, "a", "b", threshold, window)
        assert len(plain.intervals) >= 2
        cuts = np.array([window[0], *(e for iv in plain.intervals for e in (iv.lo, iv.hi)), window[1]])
        edges = cuts[1:-1]
        beside = [np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        for omega in np.concatenate([edges, (cuts[:-1] + cuts[1:]) / 2.0, *beside]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = high_efficiency_intervals(with_dark_modes(net, [omega]), "a", "b", threshold, window)
            assert report == plain, omega

    def test_single_point_range(self):
        # eta(1.0) < 0.99 < eta(0.5) on the kappa = 2.6 flat top
        net = resonant(2.6)
        assert high_efficiency_intervals(net, "a", "b", 0.99, (1.0, 1.0)).intervals == ()
        report = high_efficiency_intervals(net, "a", "b", 0.99, (0.5, 0.5))
        assert report.intervals == (Interval(lo=0.5, hi=0.5),)
        assert report.max_width == 0.0

    def test_parameter_validation(self):
        net = resonant(2.0)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                high_efficiency_intervals(net, "a", "b", bad, (-1.0, 1.0))
        for omega_range in ((1.0, -1.0), (-np.inf, 1.0), (-1.0, np.nan)):
            message = re.escape(f"omega_range must be finite with min <= max, got {omega_range}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                high_efficiency_intervals(net, "a", "b", 0.9, omega_range)

    @pytest.mark.parametrize("omega_range", [(3.0,), (-3.0, 0.0, 3.0), (), 3.0], ids=repr)
    def test_a_range_that_is_not_a_pair_is_named(self, omega_range):
        message = re.escape(f"omega_range must be a (min, max) pair, got {omega_range}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            high_efficiency_intervals(resonant(2.0), "a", "b", 0.9, omega_range)
        with pytest.raises(ValueError, match=f"^{message}$"):
            optimize_kappa(ConverterFamily("resonant"), 0.9, (0.1, 8.0), 5, omega_range=omega_range)


class TestButterworth:
    """The maximally flat converters: eta = 1 / (1 + (omega / omega_c)^(2k)).

    At kappa = 2 sqrt(2) g the three-mode chain is third order, 1/eta - 1 =
    omega^6 / (8 g^6); at kappa = 2s the two-mode network is second order,
    1/eta - 1 = omega^4 / (4 s^4).  The criterion's kappa = 2.6 g is not this
    point: its curve dips below one between its unity points.
    """

    @pytest.mark.parametrize("g", [1.0, 0.7])
    @pytest.mark.parametrize("threshold", [0.9, 0.99])
    def test_chain_width_is_the_butterworth_width(self, g, threshold):
        kappa = 2.0 * math.sqrt(2.0) * g
        net = resonant_network(ResonantParams(g, g, kappa, kappa))
        report = high_efficiency_intervals(net, "a", "b", threshold, (-4.0 * g, 4.0 * g))
        width = 2.0 * math.sqrt(2.0) * g * ((1.0 - threshold) / threshold) ** (1.0 / 6.0)
        assert len(report.intervals) == 1
        assert report.max_width == pytest.approx(width, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("g", [1.0, 0.7])
    def test_chain_edges_sit_on_a_near_one_threshold(self, g):
        # Edges are polished in eta, not in omega: near theta = 1 the width
        # moves by (1 - theta)^(-5/6) per unit of eta, so pin eta on the edge.
        threshold = 1.0 - 1e-6
        kappa = 2.0 * math.sqrt(2.0) * g
        net = resonant_network(ResonantParams(g, g, kappa, kappa))
        (iv,) = high_efficiency_intervals(net, "a", "b", threshold, (-4.0 * g, 4.0 * g)).intervals
        for edge in (iv.lo, iv.hi):
            assert abs(efficiency_closed_form(edge, g, kappa) - threshold) <= 1e-9

    def test_optimum_tends_to_the_maximally_flat_damping(self):
        # As theta -> 1 the chain's widest band approaches the Butterworth one:
        # kappa* rises towards 2 sqrt(2) g from below, and each decade of
        # 1 - theta narrows the widest band by a ratio tending to 10^(-1/6).
        thresholds = [1.0 - 10.0**-e for e in range(2, 7)]
        optima = {
            g: [optimize_kappa(ConverterFamily(kind="resonant", g=g), th, (0.1, 8.0)) for th in thresholds]
            for g in (1.0, 0.7)
        }
        kappas = np.array([kappa for kappa, _ in optima[1.0]])
        assert kappas == pytest.approx([2.27458, 2.56569, 2.70531, 2.77104, 2.80174], abs=1e-5)
        assert (np.diff(kappas) > 0.0).all() and kappas[-1] < 2.0 * math.sqrt(2.0)
        widths = np.array([width for _, width in optima[1.0]])
        ratios = widths[1:] / widths[:-1]
        assert ratios == pytest.approx([0.708, 0.693, 0.687, 0.684], abs=1e-3)
        assert (np.diff(np.abs(ratios - 10.0 ** (-1.0 / 6.0))) < 0.0).all()
        assert [kappa / 0.7 for kappa, _ in optima[0.7]] == pytest.approx(kappas, rel=1e-6)

    @pytest.mark.parametrize("s", [1.0, 0.7])
    def test_two_mode_network_is_second_order(self, s):
        net = two_mode_network(s, 2.0 * s, 2.0 * s)
        omegas = np.array([0.3, 1.0])
        eta = np.abs(transmission_grid(net, omegas, "a", "b")) ** 2
        assert (1.0 / eta - 1.0) / omegas**4 == pytest.approx(1.0 / (4.0 * s**4), rel=1e-12, abs=0.0)


class TestClosedFormOptima:
    """optimize_kappa against the optima in closed form, with eps = (1 - theta) / theta.

    The chain has 1/eta - 1 = x (x + 2u)^2 / k^2 (x = omega^2/g^2, k = kappa/g,
    u = k^2/8 - 1), a third-order Chebyshev response: its widest band puts the
    dip between its unity points on theta, where 4u^3 + 27 eps (1 + u) = 0.
    The two-mode network has 1/eta - 1 = (x - x0)^2 / k^2 (x = omega^2/s^2,
    k = kappa/s, x0 = 1 - k^2/4): from theta = 3/4 up its optimum is the
    merge where eta(0) = theta, below it the smooth maximum k = 2 sqrt(eps) of
    the single band's width 2s sqrt(x0 + k sqrt(eps)).
    """

    @pytest.mark.parametrize("g", [1.0, 0.7])
    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
    def test_chain(self, e, g):
        threshold = 1.0 - 10.0**-e
        eps = (1.0 - threshold) / threshold
        # 4u^3 + 27 eps (1 + u) rises monotonically: one real root, in (-1, 0)
        (u,) = [r.real for r in np.roots([4.0, 0.0, 27.0 * eps, 27.0 * eps]) if abs(r.imag) < 1e-9]
        kappa, width = optimize_kappa(ConverterFamily("resonant", g), threshold, (0.1, 8.0))
        assert kappa == pytest.approx(g * math.sqrt(8.0 * (1.0 + u)), rel=1e-10)
        assert width == pytest.approx(2.0 * g * math.sqrt(-8.0 * u / 3.0), rel=1e-10)

    @pytest.mark.parametrize("s", [1.0, 0.5])
    @pytest.mark.parametrize("threshold", [0.76, 0.8, 0.9, 0.99, 0.9999])
    def test_two_mode_merge(self, threshold, s):
        eps = (1.0 - threshold) / threshold
        kappa, width = optimize_kappa(ConverterFamily("two_mode", s), threshold, (0.1, 8.0))
        expected = 2.0 * s * (math.sqrt(1.0 + eps) - math.sqrt(eps))
        assert kappa == pytest.approx(expected, rel=1e-10)
        assert width == pytest.approx(2.0 * s * math.sqrt(2.0 * (1.0 - (expected / s) ** 2 / 4.0)), rel=1e-9)

    @pytest.mark.parametrize("s", [1.0, 0.5])
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.6, 0.74])
    def test_two_mode_smooth_maximum(self, threshold, s):
        # Golden section stops on a bracket of 1e-8 times the range's width;
        # the width is flat at its maximum, so only kappa carries that error.
        eps = (1.0 - threshold) / threshold
        kappa, width = optimize_kappa(ConverterFamily("two_mode", s), threshold, (0.1, 8.0))
        assert kappa == pytest.approx(2.0 * s * math.sqrt(eps), rel=0.0, abs=1e-8 * (8.0 - 0.1))
        assert width == pytest.approx(2.0 * s * math.sqrt(1.0 + eps), rel=1e-14)


def test_branch_count_transition():
    fam = ConverterFamily(kind="resonant")
    assert branch_count(fam.build(2.0), "a", "b", 0.99, (-3.0, 3.0)) == 3
    assert branch_count(fam.build(2.6), "a", "b", 0.99, (-3.0, 3.0)) == 1


def test_efficiency_map_matches_rows():
    fam = ConverterFamily(kind="resonant")
    kappas = np.array([1.0, 2.0, 3.0])
    omegas = np.linspace(-2.0, 2.0, 21)
    emap = efficiency_map(fam, kappas, omegas)
    assert emap.etas.shape == (3, 21)
    row = np.abs(transmission_grid(fam.build(2.0), omegas, "a", "b")) ** 2
    assert emap.etas[1].tobytes() == row.tobytes()


def test_map_of_a_three_port_family_is_the_first_to_last_port_efficiency():
    def lossy_chain(kappa):
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        return new_network(("a", "c", "b"), a, (kappa, 0.3, kappa))

    omegas = np.linspace(-2.0, 2.0, 9)
    emap = efficiency_map(lossy_chain, [1.0, 2.0], omegas)
    for kappa, row in zip(emap.kappas, emap.etas):
        net = lossy_chain(kappa)
        assert net.port_pair() == ("a", "b")
        assert row.tobytes() == (np.abs(transmission_grid(net, omegas, "a", "b")) ** 2).tobytes()


def test_map_across_mode_counts_matches_each_members_grid():
    # Members of two, three and four modes with different labels and port
    # modes; kappa in [1, 2) adds an undamped mode coupled to nothing at
    # omega = 0.5, a grid frequency, and kappa = 6 one coupled to the chain.
    def family(kappa):
        if 1.0 <= kappa < 2.0:
            return with_dark_modes(resonant(kappa), [0.5])
        if kappa >= 5.5:
            return with_extra_modes(resonant(kappa), [(0.4, 0.3)])
        return mixed_family(kappa)

    kappas = [0.5, 1.2, 1.5, 2.2, 3.0, 5.2, 6.0]
    omegas = np.linspace(-2.0, 2.0, 9)
    assert [family(k).n_modes for k in kappas] == [2, 4, 4, 3, 3, 3, 4] and omegas[5] == 0.5
    with pytest.warns(UserWarning, match="map contains 2 singular grid points"):
        emap = efficiency_map(family, kappas, omegas)
    assert np.argwhere(np.isnan(emap.etas)).tolist() == [[1, 5], [2, 5]]
    for kappa, row in zip(kappas, emap.etas):
        net = family(kappa)
        grid = transmission_grid(net, omegas, *net.port_pair(), on_singular="nan")
        assert row.tobytes() == (np.abs(grid) ** 2).tobytes()


def test_member_without_ports_raises_no_ports_error():
    # kappa = 0 leaves the resonant member with no damped mode
    with pytest.raises(NoPortsError):
        efficiency_map(ConverterFamily(kind="resonant"), [0.0, 1.0], [0.5])

    def portless(kappa):
        return new_network(("x", "y"), np.array([[0.0, kappa], [kappa, 0.0]]), (0.0, 0.0))

    with pytest.raises(NoPortsError):
        optimize_kappa(portless, 0.99, (0.5, 1.0))


class TestOptimizeKappa:
    def test_resonant_optimum(self):
        fam = ConverterFamily(kind="resonant")
        kappa_star, width_star = optimize_kappa(fam, 0.99, (0.1, 8.0))
        # the width-vs-kappa curve jumps where the three branches merge;
        # the optimum sits just above the merge near kappa = 2.2746
        assert abs(kappa_star - 2.274578) < 1e-3
        assert abs(width_star - 1.941235) < 1e-5

    def test_works_with_plain_builder_function(self):
        def build(kappa):
            return resonant(kappa)

        kappa_star, width_star = optimize_kappa(build, 0.99, (0.1, 8.0))
        assert abs(width_star - 1.941235) < 1e-5

    def test_degenerate_range(self):
        fam = ConverterFamily(kind="resonant")
        kappa_star, width_star = optimize_kappa(fam, 0.99, (2.6, 2.6))
        assert kappa_star == 2.6
        assert abs(width_star - 1.596649817) < 1e-6

    def test_range_validation(self):
        fam = ConverterFamily(kind="resonant")
        # The message names the condition a reversed, non-positive or non-finite range breaks.
        for kappa_range in ((2.0, 1.0), (8.0, 0.1), (0.0, 1.0), (-1.0, 1.0), (0.1, np.inf), (np.nan, 1.0)):
            message = re.escape(f"kappa_range must be finite with 0 < min <= max, got {kappa_range}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                optimize_kappa(fam, 0.99, kappa_range)
        with pytest.raises(ValueError):
            optimize_kappa(fam, 1.5, (0.1, 1.0))
        # A range is a pair: a third value is an error, not ignored.
        for kappa_range in ((0.1, 8.0, 3.0), (2.6,), 2.6):
            message = re.escape(f"kappa_range must be a (min, max) pair, got {kappa_range}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                optimize_kappa(fam, 0.9, kappa_range)

    @pytest.mark.parametrize("omega_range", [None, (-3.0, 3.0)], ids=["default_window", "given_window"])
    def test_no_member_reaching_the_threshold_is_named(self, omega_range):
        # g = 0 decouples the ports: every width is 0.
        with pytest.warns(UserWarning, match="no member reaches threshold 0.9 in the omega window") as caught:
            optimum = optimize_kappa(
                ConverterFamily("resonant", g=0.0), 0.9, (0.1, 8.0), 21, omega_range=omega_range
            )
        assert optimum == (0.1, 0.0)
        assert len(caught) == 1 and caught[0].filename == __file__

    def test_no_warning_when_a_member_reaches_the_threshold(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert optimize_kappa(ConverterFamily("resonant"), 0.99, (2.6, 2.6))[1] > 0.0

    @pytest.mark.parametrize("coarse_points", [1, 0, -5, 2.7, True, "3"])
    def test_coarse_points_validation(self, coarse_points):
        # no silent rounding to a two-point grid
        with pytest.raises(ValueError, match="coarse_points"):
            optimize_kappa(ConverterFamily(kind="resonant"), 0.99, (0.1, 8.0), coarse_points)


@pytest.mark.parametrize(
    "delta_mu, optimum",
    [
        (0.0, (2.2745788930491546, 1.9412335800714173)),
        (1.0, (1.1647479086702806, 0.6252656726628188)),
        (3.0, (0.5495275550098738, 0.33946159530050934)),
        (10.0, (0.17914071837760273, 0.11828794849073528)),
    ],
    ids=["dmu0", "dmu1", "dmu3", "dmu10"],
)
def test_fig4_optima(delta_mu, optimum):
    # The families, threshold, range, coarse grid and window of the fig4 bundle.
    family = ConverterFamily(kind="detuned" if delta_mu else "resonant", delta_mu=delta_mu)
    assert optimize_kappa(family, 0.99, (0.1, 8.0)) == pytest.approx(optimum, rel=1e-12)


@pytest.mark.parametrize(
    "family",
    [ConverterFamily("resonant"), ConverterFamily("detuned", g=1.0, delta_mu=3.0), ConverterFamily("two_mode", g=0.5)],
    ids=["resonant", "detuned", "two_mode"],
)
def test_a_family_and_its_plain_callable_agree_bit_for_bit(family):
    # The two ways into the batches: the family's validated stack, and one
    # network per kappa stacked by mode count.
    def plain(kappa):
        return family.build(kappa)

    assert repr(optimize_kappa(plain, 0.9, (0.1, 8.0))) == repr(optimize_kappa(family, 0.9, (0.1, 8.0)))
    kappas, omegas = np.linspace(0.1, 5.0, 25), np.linspace(-3.0, 3.0, 61)
    assert efficiency_map(plain, kappas, omegas).etas.tobytes() == efficiency_map(family, kappas, omegas).etas.tobytes()


def mixed_family(kappa):
    """Members that differ in size, labels and port modes across the kappa range."""
    net = resonant(kappa)
    if kappa < 1.0:
        return two_mode_network(1.0, kappa, kappa)
    if kappa < 2.5:
        return net
    if kappa < 5.0:
        perm = [0, 2, 1]  # ports on modes 0 and 1 instead of 0 and 2
        return new_network(("p", "q", "r"), net.coupling[np.ix_(perm, perm)], net.damping[perm])
    return new_network(("x", "y", "z"), net.coupling, net.damping)


def batch_and_single(build, kappas, threshold, omega_range):
    """Reports of the members at ``kappas``, batched and one at a time, and the warnings of each."""
    nets = [build(float(k)) for k in kappas]
    ports = [net.port_pair() for net in nets]
    with warnings.catch_warnings(record=True) as caught_batch:
        warnings.simplefilter("always")
        batch = _bandwidth_reports(nets, None, None, threshold, omega_range)
    with warnings.catch_warnings(record=True) as caught_single:
        warnings.simplefilter("always")
        single = [
            high_efficiency_intervals(net, in_port, out_port, threshold, omega_range)
            for net, (in_port, out_port) in zip(nets, ports)
        ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        widths = [max_bandwidth(net, *ports_, threshold, omega_range) for net, ports_ in zip(nets, ports)]
    assert [report.max_width for report in single] == widths
    return batch, single, [str(w.message) for w in caught_batch], [str(w.message) for w in caught_single]


def one_at_a_time(nets, in_port, out_port, threshold, omega_range):
    """The report of each member on its own."""
    return [high_efficiency_intervals(net, in_port, out_port, threshold, omega_range) for net in nets]


# g = 1: the resonant family's exceptional point kappa = 4 sqrt(2) g sits in the
# optimizer's default range (0.1, 8).
EXCEPTIONAL_KAPPA = 4.0 * math.sqrt(2.0)


class TestBatchedReports:
    @pytest.mark.parametrize(
        "build",
        [
            ConverterFamily(kind="resonant").build,
            ConverterFamily(kind="detuned", g=1.5, delta_mu=1.0).build,
            ConverterFamily(kind="two_mode", g=2.0).build,
            resonant,
        ],
        ids=["resonant", "detuned", "two_mode", "callable"],
    )
    @pytest.mark.parametrize("threshold", [0.5, 0.99])
    def test_batch_equals_one_member_at_a_time(self, build, threshold):
        kappas = np.sort(np.append(np.linspace(0.1, 8.0, 24), EXCEPTIONAL_KAPPA))
        batch, single, _, _ = batch_and_single(build, kappas, threshold, (-3.0, 3.0))
        assert batch == single
        assert sum(len(report.intervals) for report in batch) >= 20  # most members have refined edges

    def test_refined_edges_at_the_exceptional_point(self):
        kappas = np.array([2.0, EXCEPTIONAL_KAPPA, 7.0])
        batch, single, _, _ = batch_and_single(resonant, kappas, 0.99, (-3.0, 3.0))
        assert batch == single
        (edge,) = batch[1].intervals
        # two eigenvalues of one level-set matrix of norm ~8: symmetric to a few ulp of that norm
        assert abs(edge.lo + edge.hi) < 1e-15
        assert abs(edge.hi - 0.09461470968326868) < 1e-12
        for omega in (edge.lo, edge.hi):
            assert abs(efficiency_closed_form(omega, 1.0, EXCEPTIONAL_KAPPA) - 0.99) < 1e-12

    def test_members_of_different_size_labels_and_ports(self):
        kappas = np.linspace(0.1, 8.0, 41)
        batch, single, _, _ = batch_and_single(mixed_family, kappas, 0.99, (-3.0, 3.0))
        assert batch == single
        # (kappa*, width*) on the merge, where the crossing count changes
        assert optimize_kappa(mixed_family, 0.99, (0.1, 8.0), 41) == pytest.approx(
            (2.2745788930526034, 1.941233580068154), rel=1e-12
        )

    def test_pole_members_batch_like_plain_members(self):
        grid = np.linspace(-3.0, 3.0, 4001)

        def build(kappa):
            # a dark mode on a scan point for kappa < 3, between two otherwise
            return with_dark_modes(resonant(kappa), [grid[2000] if kappa < 3.0 else 1e-4])

        kappas = np.linspace(1.0, 5.0, 9)
        batch, single, caught_batch, caught_single = batch_and_single(build, kappas, 0.99, (-3.0, 3.0))
        assert batch == single
        assert caught_batch == caught_single == []
        plain, _, _, _ = batch_and_single(resonant, kappas, 0.99, (-3.0, 3.0))
        assert batch == plain

    def test_single_point_range_and_two_coarse_points(self):
        net = mixed_family(0.5)
        width = max_bandwidth(net, "a", "b", 0.99, default_omega_window(net))
        assert optimize_kappa(mixed_family, 0.99, (0.5, 0.5)) == (0.5, width)
        assert width == pytest.approx(0.051918592786257656, rel=1e-12)
        assert optimize_kappa(mixed_family, 0.9, (1.0, 6.0), 2) == pytest.approx(
            (1.6877088010651278, 2.620849481322734), rel=1e-12
        )
        fam = ConverterFamily(kind="detuned", g=1.0, delta_mu=3.0)
        assert optimize_kappa(fam, 0.99, (0.5, 4.0), 2) == pytest.approx(
            (0.5495275550110819, 0.33946159529902403), rel=1e-12
        )

    def test_one_batch_per_port_pair(self):
        # a -> a and b -> b drive a port into itself (feedthrough D = -1)
        for build in (resonant, ConverterFamily(kind="detuned", g=1.5, delta_mu=1.0).build):
            nets = [build(float(k)) for k in np.linspace(0.3, 6.0, 12)]
            for pair in (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")):
                for threshold in (0.5, 0.99):
                    batch = _bandwidth_reports(nets, *pair, threshold, (-3.0, 3.0))
                    assert batch == one_at_a_time(nets, *pair, threshold, (-3.0, 3.0))
                    assert pair[0] != pair[1] or any(report.intervals for report in batch)

    def test_members_with_and_without_dark_modes(self):
        # Four-mode members whose extra mode is decoupled (a dark mode) or
        # coupled to the middle mode, and five-mode members with either or
        # both, interleaved with plain three-mode members: three groups of
        # kept modes in the five-mode batch, two in the four-mode one.
        def member(j):
            net = resonant(1.5 + 0.25 * j)
            extra = [((0.4, 0.0),), ((0.4, 0.3),), ((0.4, 0.0), (-0.9, 0.0)), ((0.4, 0.3), (-0.9, 0.0)), ()]
            return with_extra_modes(net, extra[j % len(extra)])

        nets = [member(j) for j in range(15)]
        assert sorted({net.n_modes for net in nets}) == [3, 4, 5]
        batch = _bandwidth_reports(nets, "a", "b", 0.99, (-3.0, 3.0))
        assert batch == one_at_a_time(nets, "a", "b", 0.99, (-3.0, 3.0))
        plain = one_at_a_time([resonant(1.5 + 0.25 * j) for j in range(15)], "a", "b", 0.99, (-3.0, 3.0))
        for j, (report, reference) in enumerate(zip(batch, plain)):
            if j % 5 in (0, 2):  # only dark extra modes: the plain report, bit for bit
                assert report == reference

    def test_members_without_crossings_beside_members_with_several(self):
        # Mismatched damping keeps the chain's eta below 0.2 everywhere, and
        # on the narrow window the kappa = 2.6 flat top covers it whole.
        mismatched = resonant_network(ResonantParams(1.0, 1.0, 0.2, 5.0))
        nets = [resonant(2.0), mismatched, resonant(2.6), resonant(1.0)]
        for window in ((-3.0, 3.0), (-0.5, 0.5)):
            batch = _bandwidth_reports(nets, "a", "b", 0.99, window)
            assert batch == one_at_a_time(nets, "a", "b", 0.99, window)
            inner = [sum(e not in window for iv in report.intervals for e in (iv.lo, iv.hi)) for report in batch]
            assert inner[1] == 0 and max(inner) >= 2
        assert batch[1].intervals == ()
        assert batch[2].intervals == (Interval(lo=-0.5, hi=0.5),)

    def test_singular_gap_midpoint_inside_a_batch(self):
        # Two dark modes one ulp apart are two poles whose midpoint is one of
        # them, so the whole network is singular there.  No port is linked to
        # them, so a batch mixing them with other dark modes reports what the
        # plain members do, with the window starting on the first pole too.
        pole = 0.3
        pair = [pole, np.nextafter(pole, 1.0)]
        assert np.isnan(transmission_grid(with_dark_modes(resonant(2.6), pair), [np.mean(pair)], "a", "b", "nan"))
        kappas = [2.6, 2.2, 3.0, 2.6, 2.4]
        nets = [with_dark_modes(resonant(k), pair if j % 2 == 0 else [1.7, 2.9]) for j, k in enumerate(kappas)]
        for window in ((-3.0, 3.0), (pole, 3.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch = _bandwidth_reports(nets, "a", "b", 0.99, window)
            assert batch == one_at_a_time(nets, "a", "b", 0.99, window)
            assert batch == one_at_a_time([resonant(k) for k in kappas], "a", "b", 0.99, window)

    @pytest.mark.parametrize(
        "build",
        [ConverterFamily(kind="resonant").build, ConverterFamily(kind="detuned", g=1.5, delta_mu=1.0).build, mixed_family],
        ids=["resonant", "detuned", "mixed"],
    )
    def test_batched_crossing_counts_equal_single_counts(self, build):
        # The count the merge bisection compares, batched as for the coarse grid.
        kappas = np.sort(np.append(np.linspace(0.1, 8.0, 40), EXCEPTIONAL_KAPPA))
        nets = [build(float(k)) for k in kappas]
        gamma = math.sqrt(0.99)

        def crossings(group):
            out = [None] * len(group)
            for rows, *members in _groups(_stacks(group, None, None)):
                for row, *values in zip(rows, *_real_eigenvalues(_level_set_matrices(*members, gamma), -3.0, 3.0)):
                    out[row] = values
            return out

        batch = crossings(nets)
        single = [crossings([net])[0] for net in nets]
        counts = _crossing_counts(_members(build, kappas), kappas, 0.99, (-3.0, 3.0))
        assert counts.tolist() == [count for _, count in batch]
        for (values, count), (one_values, one_count) in zip(batch, single):
            assert count == one_count == np.count_nonzero(np.isfinite(values))
            assert values[:count].tobytes() == one_values[:one_count].tobytes()
        assert len({count for _, count in batch}) > 1
        if build is not mixed_family:
            # one interval at the exceptional point, so two crossings
            assert batch[int(np.searchsorted(kappas, EXCEPTIONAL_KAPPA))][1] == 2


def eta_by_solve(net, in_port, out_port, omegas):
    """|S_out,in|^2 at each frequency from np.linalg.solve of the unreduced M(omega)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    i, o = net.labels.index(in_port), net.labels.index(out_port)
    drive = np.zeros((len(omegas), net.n_modes, 1), dtype=complex)
    drive[:, i, 0] = np.sqrt(net.damping[i])
    m = dynamical_matrix(net, 0.0) - 2j * omegas[:, None, None] * np.eye(net.n_modes)
    x = np.linalg.solve(m, drive)[:, :, 0]
    return np.abs(2.0 * np.sqrt(net.damping[o]) * x[:, o] - (1.0 if i == o else 0.0)) ** 2


def assert_exact(net, in_port, out_port, threshold, window, report):
    """Every edge inside the window sits on the threshold, every interval is above it, every gap below."""
    edges = [e for iv in report.intervals for e in (iv.lo, iv.hi) if e not in window]
    assert np.all(np.abs(eta_by_solve(net, in_port, out_port, edges) - threshold) <= 1e-9)
    inside = [(iv.lo + iv.hi) / 2.0 for iv in report.intervals]
    gaps = [(a.hi + b.lo) / 2.0 for a, b in zip(report.intervals, report.intervals[1:])]
    assert np.all(eta_by_solve(net, in_port, out_port, inside) >= threshold)
    assert np.all(eta_by_solve(net, in_port, out_port, gaps) < threshold)


def scan_above(net, threshold, window, points=4001):
    """Points of an evenly spaced scan with eta >= threshold."""
    grid = np.linspace(*window, points)
    return grid[np.abs(transmission_grid(net, grid, "a", "b")) ** 2 >= threshold]


class TestLevelSetEdges:
    """Edges are the real eigenvalues of the level-set matrix, so no grid decides what is found."""

    def test_third_interval_the_scan_misses(self):
        net = ConverterFamily(kind="detuned", g=1.0, delta_mu=3.0).build(0.02)
        window = default_omega_window(net)
        report = high_efficiency_intervals(net, "a", "b", 0.9, window)
        assert len(report.intervals) == 3
        third = report.intervals[2]
        assert third.lo == pytest.approx(3.561094893581, abs=1e-9)
        assert third.hi == pytest.approx(3.562002868204, abs=1e-9)
        assert not np.any(scan_above(net, 0.9, window) > 3.0)
        assert_exact(net, "a", "b", 0.9, window, report)

    def test_passband_where_the_scan_finds_nothing(self):
        net = ConverterFamily(kind="detuned", g=1.0, delta_mu=30.0).build(0.2)
        window = default_omega_window(net)
        report = high_efficiency_intervals(net, "a", "b", 0.5, window)
        ((lo, hi),) = [(iv.lo, iv.hi) for iv in report.intervals]
        assert lo == pytest.approx(30.066297686664, abs=1e-9)
        assert hi == pytest.approx(30.066739185094, abs=1e-9)
        assert scan_above(net, 0.5, window).size == 0
        assert_exact(net, "a", "b", 0.5, window, report)

    def test_detuned_optimum_splits_at_its_dip(self):
        # The optimum optimize_kappa found for this member with the 4001-point
        # scan: the scan's one interval spans a dip 1.4e-4 below the threshold.
        net = ConverterFamily(kind="detuned", g=0.828568972017736, delta_mu=7.992628041608895).build(
            0.12249073264815259
        )
        window = default_omega_window(net)
        report = high_efficiency_intervals(net, "a", "b", 0.9, window)
        first, second = report.intervals[:2]
        above = scan_above(net, 0.9, window)
        assert above.min() < first.hi < second.lo < above.max()
        assert 1.4e-4 < 0.9 - eta_by_solve(net, "a", "b", (first.hi + second.lo) / 2.0)[0] < 1.5e-4
        assert_exact(net, "a", "b", 0.9, window, report)

    @pytest.mark.parametrize("offset, count", [(1e-12, 2), (-1e-12, 1)])
    def test_dip_that_just_touches_the_threshold(self, offset, count):
        # Overcoupled two-mode converter: one dip, at omega = 0 by symmetry.
        net = two_mode_network(1.0, 1.0, 1.0)
        threshold = float(eta_by_solve(net, "a", "b", 0.0)[0]) + offset
        report = high_efficiency_intervals(net, "a", "b", threshold, (-3.0, 3.0))
        assert len(report.intervals) == count
        assert_exact(net, "a", "b", threshold, (-3.0, 3.0), report)

    def test_reflection_port_against_a_dense_grid(self):
        # a -> a has feedthrough -1, so the level set takes its D != 0 form.
        net = ConverterFamily(kind="detuned", g=1.0, delta_mu=1.0).build(0.7)
        window = (-4.0, 4.0)
        report = high_efficiency_intervals(net, "a", "a", 0.5, window)
        assert len(report.intervals) >= 2
        assert_exact(net, "a", "a", 0.5, window, report)
        grid = np.linspace(*window, 200001)
        eta = eta_by_solve(net, "a", "a", grid)
        inside = np.zeros(len(grid), dtype=bool)
        for iv in report.intervals:
            inside |= (grid >= iv.lo) & (grid <= iv.hi)
        assert np.all(eta[inside] >= 0.5 - 1e-9)
        assert np.all(eta[~inside] < 0.5 + 1e-9)

    def test_uniform_ensemble_poles_keep_the_level_set_edges(self):
        # The compensated uniform ensemble has 30 dark modes at omega = 0,
        # inside its one passband.
        net = microscopic_network(default_validation_ensemble(), 2.6, 2.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = high_efficiency_intervals(net, "a", "b", 0.9, (-3.0, 3.0))
        (interval,) = report.intervals
        assert interval.lo == pytest.approx(-1.0291141843804537, abs=1e-12)
        assert interval.hi == pytest.approx(1.0705453457466003, abs=1e-12)
        edges = [interval.lo, interval.hi]
        assert np.all(np.abs(eta_by_solve(net, "a", "b", edges) - 0.9) <= 1e-12)
        # A window end on the poles: the first gaps, between near-coincident
        # poles, take the class of the first gap the pair solve classifies.
        assert high_efficiency_intervals(net, "a", "b", 0.9, (0.0, 3.0)).intervals == (
            Interval(lo=0.0, hi=interval.hi),
        )
        assert high_efficiency_intervals(net, "a", "b", 0.9, (-3.0, 0.0)).intervals == (
            Interval(lo=interval.lo, hi=0.0),
        )

    @pytest.mark.parametrize(
        "net, threshold, count",
        [(resonant(1e-8), 0.9, 3), (two_mode_network(1.0, 1e-8, 1e-8), 0.5, 2)],
        ids=["resonant", "two_mode"],
    )
    def test_weakly_damped_passbands(self, net, threshold, count):
        # Every eigenvalue of H lies within 1e-8 ||H||_F of the real axis.
        # eta is analytic through these weakly damped modes, so the level-set
        # crossings alone bound their passbands, ~1e-8 wide: the side bands
        # of the resonant chain sit at +/- sqrt(2).
        window = (-3.0, 3.0)
        report = high_efficiency_intervals(net, "a", "b", threshold, window)
        assert len(report.intervals) == count
        # Double precision pins edges this steep only to ~4e-8 in eta, so
        # classify midpoints rather than edges.
        inside = [(iv.lo + iv.hi) / 2.0 for iv in report.intervals]
        cuts = [window[0], *(e for iv in report.intervals for e in (iv.lo, iv.hi)), window[1]]
        gaps = [(lo + hi) / 2.0 for lo, hi in zip(cuts[::2], cuts[1::2])]
        assert np.all(eta_by_solve(net, "a", "b", inside) >= threshold)
        assert np.all(eta_by_solve(net, "a", "b", gaps) < threshold)

    def test_polish_converges_from_a_far_start(self):
        # Level-set roots rarely need polishing; start one bracket per edge
        # side from its middle, far from the closed-form edge of the flat top.
        net = resonant(2.6)
        (edge,) = high_efficiency_intervals(net, "a", "b", 0.99, (-3.0, 3.0)).intervals
        lo, hi = np.array([-1.0, 0.5]), np.array([-0.5, 1.0])
        g_lo, g_hi = (eta_by_solve(net, "a", "b", ends) - 0.99 for ends in (lo, hi))
        stack = _pair_stack(*next(_stacks([net], "a", "b"))[1:])
        x = _polish(stack, np.array([0, 0]), 0.99, (lo + hi) / 2.0, lo, g_lo, hi, g_hi)
        assert np.all(np.abs(efficiency_closed_form(x, 1.0, 2.6) - 0.99) <= ETA_REFINE_TOL)
        assert x == pytest.approx([edge.lo, edge.hi], abs=1e-9)


def record_widths(monkeypatch):
    """Each ``_widths`` call optimize_kappa makes, as (member kappas, widths, crossing counts)."""
    calls = []
    widths_of = analysis._widths

    def recorded(members, kappas, threshold, omega_range):
        widths, crossings = widths_of(members, kappas, threshold, omega_range)
        calls.append(([float(k) for k in kappas], widths.tolist(), crossings.tolist()))
        return widths, crossings

    monkeypatch.setattr(analysis, "_widths", recorded)
    return calls


def record_count_batches(monkeypatch):
    """Each crossing-count batch optimize_kappa makes, as (member kappas, counts).

    More than 200 batches fail the test, so a walk that does not stop ends it.
    """
    calls = []
    batch = analysis._crossing_counts

    def recorded(members, kappas, threshold, omega_range):
        assert len(calls) < 200, "the merge bisection did not stop"
        counts = batch(members, kappas, threshold, omega_range)
        calls.append(([float(k) for k in kappas], counts))
        return counts

    monkeypatch.setattr(analysis, "_crossing_counts", recorded)
    return calls


def assert_optimum_on_theta(family, threshold, kappa_range, kappa_star, width_star):
    """The report at kappa* has width*, and its widest interval's edges sit on the threshold."""
    net = family.build(kappa_star)
    window = default_omega_window(family.build((kappa_range[0] + kappa_range[1]) / 2.0))
    report = high_efficiency_intervals(net, "a", "b", threshold, window)
    assert report.max_width == width_star
    widest = max(report.intervals, key=lambda iv: iv.width)
    edges = [e for e in (widest.lo, widest.hi) if e not in window]
    assert edges and np.all(np.abs(eta_by_solve(net, "a", "b", edges) - threshold) <= 1e-9)


class TestMergeBisection:
    """optimize_kappa bisects the level-set crossing count onto the branch merge."""

    @pytest.mark.parametrize("delta_mu", [0.0, 3.0, 10.0], ids=["resonant", "detuned3", "detuned10"])
    def test_optimum_sits_on_the_merge(self, monkeypatch, delta_mu):
        family = ConverterFamily(kind="detuned" if delta_mu else "resonant", delta_mu=delta_mu)
        calls = record_widths(monkeypatch)
        kappa_star, width_star = optimize_kappa(family, 0.99, (0.1, 8.0))
        (_, coarse, _), (bracket, ends, _) = calls
        lo, hi = bracket
        assert 0.0 < hi - lo <= 1e-12 * 7.9
        # The widths are the reports' max_width at the bracket ends, one of
        # them split into more intervals, the other merged and far wider.
        window = default_omega_window(family.build((0.1 + 8.0) / 2.0))
        reports = [high_efficiency_intervals(family.build(k), "a", "b", 0.99, window) for k in bracket]
        assert [report.max_width for report in reports] == ends
        assert len(reports[0].intervals) != len(reports[1].intervals)
        narrow, wide = sorted(ends)
        assert wide > 1.5 * narrow
        assert (kappa_star, width_star) in zip(bracket, ends)
        assert width_star == wide > max(coarse)
        assert_optimum_on_theta(family, 0.99, (0.1, 8.0), kappa_star, width_star)

    def test_two_coarse_points_find_the_merge(self):
        # Golden section between the grid's two ends stayed at kappa = 0.5
        # (width 0.0886); the crossing count differs between them, and the
        # bisection reaches the merge the 201-point grid finds.
        family = ConverterFamily(kind="detuned", g=1.0, delta_mu=3.0)
        kappa_star, width_star = optimize_kappa(family, 0.99, (0.5, 4.0), 2)
        assert kappa_star == pytest.approx(0.54953, abs=1e-5)
        assert width_star == pytest.approx(0.33946, abs=1e-5)
        assert (kappa_star, width_star) == pytest.approx(optimize_kappa(family, 0.99, (0.1, 8.0)), abs=1e-10)
        assert_optimum_on_theta(family, 0.99, (0.5, 4.0), kappa_star, width_star)

    @pytest.mark.parametrize(
        "kind, threshold, kappa_range, bracketed, optimum",
        [
            (
                "resonant",
                0.99,
                (EXCEPTIONAL_KAPPA - 1.0, EXCEPTIONAL_KAPPA + 1.0),
                False,
                (4.656854249492381, 0.2721047401480283),
            ),
            (
                "resonant",
                0.99,
                (EXCEPTIONAL_KAPPA, EXCEPTIONAL_KAPPA + 1.0),
                False,
                (5.656854249492381, 0.1892294193665372),
            ),
            ("resonant", 0.99, (3.0, 8.0), False, (3.0, 1.0959039870799352)),
            ("resonant", 0.5, (0.1, 8.0), True, (1.2871886078273223, 3.107547948060075)),
            ("two_mode", 0.5, (0.1, 8.0), False, (2.000000048617225, 2.8284271247461916)),
        ],
        ids=["exceptional_inside", "exceptional_end", "no_count_change", "narrower_merge", "two_mode"],
    )
    def test_golden_section_where_no_merge_beats_the_grid(
        self, monkeypatch, kind, threshold, kappa_range, bracketed, optimum
    ):
        # The coarse grid (21 points) puts the exceptional point kappa = 4 sqrt(2)
        # on a grid point in the first case and on the best one in the second.
        # The optimum is pinned bit for bit: no reference bundle reaches this path.
        family = ConverterFamily(kind=kind)
        calls = record_widths(monkeypatch)
        kappa_star, width_star = optimize_kappa(family, threshold, kappa_range, 21)
        assert (kappa_star, width_star) == optimum
        (_, coarse, _), *rest = calls
        # a bracket pair, if any, and then golden section's one-member batches
        assert [len(kappas) for kappas, _, _ in rest[:1]] == [2 if bracketed else 1]
        assert len(rest) > 20 and all(len(kappas) == 1 for kappas, _, _ in rest[1:])
        assert width_star >= max(coarse)
        assert_optimum_on_theta(family, threshold, kappa_range, kappa_star, width_star)

    @pytest.mark.parametrize("omega_range", [None, (-3.0, 3.0)], ids=["default_window", "given_window"])
    def test_equal_widths_keep_the_first_evaluated(self, omega_range):
        # Every member is the same network, so every width ties: the coarse
        # grid's first point wins over the later grid points and golden section.
        net = resonant(2.6)
        optimum = optimize_kappa(lambda kappa: net, 0.9, (0.5, 4.0), 11, omega_range=omega_range)
        assert optimum == (0.5, 2.122773489718325)

    def test_bisection_stops_at_adjacent_floats(self, monkeypatch):
        # Near kappa = 1e6 one ulp (1.2e-10) exceeds the 1e-12 bracket, so the
        # bisection ends when its midpoint rounds onto an end.
        def shifted(kappa):
            return resonant(kappa - 1e6 + 2.0)

        batches = record_count_batches(monkeypatch)
        kappa_star, width_star = optimize_kappa(shifted, 0.99, (1e6, 1e6 + 1.0), 11)
        assert 1 < len(batches) < 40
        assert abs(kappa_star - 1e6 - 0.2745789) < 1e-6
        assert width_star == pytest.approx(1.9412335, abs=1e-6)


@pytest.mark.parametrize("k", [-60, -20, -4, 4, 20])
def test_optimum_scales_with_the_unit_of_frequency(k):
    # Multiplying every rate by s = 2^k is exact in floating point, so kappa*
    # and the width must be s times their s = 1 values, bit for bit: the
    # optimizer's tolerances are relative to the kappa range.
    s = 2.0**k
    kappa_1, width_1 = optimize_kappa(ConverterFamily("detuned", g=1.0, delta_mu=3.0), 0.99, (0.1, 8.0))
    kappa_s, width_s = optimize_kappa(ConverterFamily("detuned", g=s, delta_mu=3.0 * s), 0.99, (0.1 * s, 8.0 * s))
    assert (kappa_s, width_s) == (kappa_1 * s, width_1 * s)


# fig2's three networks at s = 1: (kind, g, delta_mu, kappa)
FIG2_NETWORKS = {
    "resonant": ("resonant", 1.0, 0.0, 2.6),
    "detuned": ("detuned", 1.0, 10.0, 0.2),
    "two_mode": ("two_mode", 0.1, 0.0, 0.2),
}


@pytest.mark.parametrize("name", sorted(FIG2_NETWORKS))
@pytest.mark.parametrize("k", [-60, -20, -4, 4, 20, 60, 300])
def test_reports_and_grids_scale_with_the_unit_of_frequency(k, name):
    # Every rate and frequency times s = 2^k is exact in floating point, so
    # each band edge is s times its s = 1 edge and each transmission, a ratio
    # of rates, keeps its bits.
    s = 2.0**k
    kind, g, delta_mu, kappa = FIG2_NETWORKS[name]
    net_1 = ConverterFamily(kind, g=g, delta_mu=delta_mu).build(kappa)
    net_s = ConverterFamily(kind, g=g * s, delta_mu=delta_mu * s).build(kappa * s)
    report_1 = high_efficiency_intervals(net_1, "a", "b", 0.9, (-12.0, 12.0))
    report_s = high_efficiency_intervals(net_s, "a", "b", 0.9, (-12.0 * s, 12.0 * s))
    assert report_1.intervals
    assert [(iv.lo, iv.hi) for iv in report_s.intervals] == [(iv.lo * s, iv.hi * s) for iv in report_1.intervals]
    omegas = np.linspace(-3.0, 3.0, 601)
    grid_1 = transmission_grid(net_1, omegas, "a", "b")
    assert transmission_grid(net_s, s * omegas, "a", "b").tobytes() == grid_1.tobytes()


class TestCountBatches:
    """The merge bisection takes two binary steps per crossing-count batch."""

    @pytest.mark.parametrize("delta_mu", [0.0, 1.0, 3.0, 10.0], ids=["dmu0", "dmu1", "dmu3", "dmu10"])
    def test_two_steps_per_batch_reach_the_one_step_bracket(self, monkeypatch, delta_mu):
        family = ConverterFamily(kind="detuned" if delta_mu else "resonant", delta_mu=delta_mu)
        window = default_omega_window(family.build((0.1 + 8.0) / 2.0))
        crossing_counts = analysis._crossing_counts

        def count(kappas):
            # one count batch of the callable family, resolved on its own
            return crossing_counts(_members(family.build, kappas), kappas, 0.99, window)

        steps = record_count_batches(monkeypatch)
        widths = record_widths(monkeypatch)
        optimize_kappa(family, 0.99, (0.1, 8.0))
        (ks, coarse, coarse_counts), (bracket, _, _) = widths
        best = int(np.argmax(coarse))
        assert 0 < best < len(ks) - 1 and all(0 < len(kappas) <= 3 for kappas, _ in steps)
        # The neighbors' counts come from the coarse grid's eigen-solve, and
        # equal those of a count batch of their own.
        near = ks[best - 1 : best + 2]
        count_of = dict(zip(near, coarse_counts[best - 1 : best + 2]))
        assert count(near).tolist() == list(count_of.values())
        # The same walk one count per step, from the neighbor pair whose counts differ.
        ((a, b),) = [(lo, hi) for lo, hi in zip(near, near[1:]) if count_of[lo] != count_of[hi]]
        count_a = count_of[a]
        tol, walked = 1e-12 * (8.0 - 0.1), 0
        while b - a > tol and (a + b) / 2.0 not in (a, b):
            mid = (a + b) / 2.0
            walked += 1
            if count([mid])[0] == count_a:
                a = mid
            else:
                b = mid
        assert bracket == [a, b]
        assert walked > 30 and len(steps) == math.ceil(walked / 2)

    def test_coarse_grid_is_one_stack_without_single_builds(self, monkeypatch):
        singles, stacks = [], []
        new_network, validated_stack = network_module.new_network, converter_module.validated_stack

        def single(*args):
            singles.append(args)
            return new_network(*args)

        def stack(labels, coupling, dampings):
            stacks.append(len(dampings))
            return validated_stack(labels, coupling, dampings)

        monkeypatch.setattr(converter_module, "new_network", single)
        monkeypatch.setattr(network_module, "new_network", single)
        monkeypatch.setattr(converter_module, "validated_stack", stack)
        family = ConverterFamily("detuned", delta_mu=3.0)
        optimize_kappa(family, 0.99, (0.1, 8.0), omega_range=(-4.0, 7.0))
        assert singles == [] and stacks == [201]
        # The default window's member is a stack of one, built before the grid.
        stacks.clear()
        optimize_kappa(family, 0.99, (0.1, 8.0))
        assert singles == [] and stacks == [1, 201]


FAMILY_CASES = [
    pytest.param(kind, delta_mu, id=name)
    for kind, delta_mu, name in [
        ("resonant", 0.0, "resonant"),
        ("detuned", 1.0, "dmu1"),
        ("detuned", 3.0, "dmu3"),
        ("detuned", 10.0, "dmu10"),
        ("two_mode", 0.0, "two_mode"),
    ]
]


class TestResolvedFamily:
    """A ConverterFamily is resolved once per optimize_kappa call; a callable family is built per batch.

    Both routes must give the same optimum and the same map, bit for bit.
    """

    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("kind, delta_mu", FAMILY_CASES)
    def test_optimum_equals_the_callable_routes(self, kind, delta_mu, g):
        family = ConverterFamily(kind, g=g, delta_mu=delta_mu)
        kappa_range = (0.1 * g, 8.0 * g)  # spans the exceptional point 4 sqrt(2) g
        assert kappa_range[0] < EXCEPTIONAL_KAPPA * g < kappa_range[1]
        for threshold in (0.5, 0.9, 0.99, 1.0 - 1e-5):
            # 51 grid points: the callable route builds every member, and the
            # bisection and golden section run past the grid alike
            resolved = optimize_kappa(family, threshold, kappa_range, 51)
            assert repr(resolved) == repr(optimize_kappa(lambda k: family.build(k), threshold, kappa_range, 51))

    def test_uncoupled_family_warns_alike_on_both_routes(self):
        # With g = 0 the pair sees neither c nor the other resonator: no width anywhere.
        family = ConverterFamily("resonant", g=0.0)
        optima = []
        for route in (family, lambda k: family.build(k)):
            with pytest.warns(UserWarning, match="no member reaches threshold 0.9"):
                optima.append(optimize_kappa(route, 0.9, (0.1, 8.0)))
        assert repr(optima[0]) == repr(optima[1]) == repr((0.1, 0.0))

    @pytest.mark.parametrize("kind, delta_mu", FAMILY_CASES)
    @pytest.mark.parametrize("g", [0.0, 1.0])
    def test_map_equals_the_callable_routes(self, kind, delta_mu, g):
        family = ConverterFamily(kind, g=g, delta_mu=delta_mu)
        kappas, omegas = np.linspace(0.1, 8.0, 17), np.linspace(-12.0, 12.0, 97)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # g = 0 leaves c undamped: NaN on its pole
            resolved = efficiency_map(family, kappas, omegas)
            called = efficiency_map(lambda k: family.build(k), kappas, omegas)
        assert resolved.etas.tobytes() == called.etas.tobytes()

    @pytest.mark.parametrize(
        "kappa_grid, error, message",
        [
            ([0.0, 1.0], NoPortsError, "network has no damped modes, so no scattering ports"),
            ([-1.0, 1.0], NegativeDampingError, "member 0: mode 'a' has damping -1.0 < 0"),
            ([1.0, math.nan], ValueError, "member 1: damping must be finite"),
        ],
        ids=["zero", "negative", "nan"],
    )
    def test_map_keeps_the_member_checks(self, kappa_grid, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            efficiency_map(ConverterFamily("resonant"), kappa_grid, [0.0, 1.0])
        assert type(raised.value) is error
