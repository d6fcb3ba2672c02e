"""Tests of the benchmark itself: each gate passes real output and rejects a perturbed one.

Run with ``python3 -m pytest bench/gate_tests.py`` from the root of the checkout.
"""

import dataclasses
import json
import warnings

import env

env.use_checkout_source()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import inputs  # noqa: E402
import modeconv as mc  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
from modeconv.cli import main as cli_main  # noqa: E402
from modeconv.formatting import format_float  # noqa: E402


# ---------------------------------------------------------------- inputs


def test_inputs_follow_the_seed():
    for make in (inputs.optimize_families, inputs.ensemble_members, inputs.cli_commands):
        assert make(3) == make(3)
        assert make(3) != make(4)


def test_optimize_inputs_stay_in_their_ranges():
    calls = inputs.optimize_families(inputs.DEV_SEED)
    assert sorted(c["theta"] for c in calls) == sorted(inputs.THRESHOLDS * 2)
    for c in calls:
        assert 0.5 <= c["g"] <= 2.0
        assert c["kind"] == "resonant" or 0.5 <= c["delta_mu"] <= 10.0


# ---------------------------------------------------------------- optimize_families


@pytest.fixture(scope="module")
def optimum():
    call = {"kind": "resonant", "g": 1.0, "delta_mu": 0.0, "theta": 0.99}
    kappa, width = mc.optimize_kappa(oracles.family_of(call), 0.99, inputs.KAPPA_RANGE, coarse_points=21)
    return call, kappa, width


def _widest(call, kappa):
    family = oracles.family_of(call)
    window = oracles.optimize_window(family)
    net = family.build(kappa)
    report = mc.high_efficiency_intervals(net, "a", "b", call["theta"], window)
    return net, max(report.intervals, key=lambda iv: iv.width), window


def test_optimum_gate_passes_real_output(optimum):
    failures, dip = oracles.optimum_failures(*optimum)
    assert failures == []
    assert dip >= 0.0


def test_optimum_gate_rejects_a_wrong_width(optimum):
    call, kappa, width = optimum
    failures, _ = oracles.optimum_failures(call, kappa, width * (1.0 + 1e-7))
    assert any("max_bandwidth" in f for f in failures)


def test_edge_gates_reject_a_moved_edge(optimum):
    call, kappa, _ = optimum
    net, widest, window = _widest(call, kappa)
    edges = oracles.refined_edges(widest, window)
    assert edges and oracles.edge_failures(net, call["theta"], edges) == []
    moved = [edges[0] + 1e-6]
    assert oracles.edge_failures(net, call["theta"], moved)
    assert oracles.closed_form_failures(call["g"], kappa, call["theta"], moved)


def test_dense_recheck_rejects_an_interval_past_its_edge(optimum):
    call, kappa, _ = optimum
    net, widest, window = _widest(call, kappa)
    wider = mc.Interval(widest.lo - 0.05, widest.hi)
    assert oracles.dip_failures(net, call["theta"], widest, window)[0] == []
    failures, _ = oracles.dip_failures(net, call["theta"], wider, window)
    assert any("wider than the scan spacing" in f for f in failures)


def test_dense_recheck_accepts_a_deep_sub_grid_merge_dip():
    # optimize_kappa's optimum for this detuned member: its widest interval
    # spans a dip 1.4e-4 below theta, 0.0033 wide, which the 0.0041-spaced
    # scan steps over.
    call = {"kind": "detuned", "g": 0.828568972017736, "delta_mu": 7.992628041608895, "theta": 0.9}
    net, widest, window = _widest(call, 0.12249073264815259)
    failures, dip = oracles.dip_failures(net, call["theta"], widest, window)
    assert failures == []
    assert dip > 1e-4
    _, run = oracles.dense_recheck(net, call["theta"], widest)
    assert 0.0 < run < oracles.scan_spacing(window)


# ---------------------------------------------------------------- ensemble_scaling


def _ensemble_output(member):
    ens = oracles.ensemble_of(member)
    kappa = inputs.ENSEMBLE_KAPPA
    with warnings.catch_warnings():
        # The workload records mismatch warnings; they are not failures.
        warnings.simplefilter("ignore", mc.HighMismatchWarning)
        error = mc.elimination_error(ens, kappa, kappa, np.linspace(*inputs.ENSEMBLE_GRID))
    return error, mc.collective_couplings(ens)


@pytest.fixture(scope="module")
def members():
    default, inhomogeneous = inputs.ensemble_members(inputs.DEV_SEED)[:2]
    return [(m, *_ensemble_output(m)) for m in (default, inhomogeneous)]


def test_ensemble_gate_passes_real_output(members):
    for member, error, cc in members:
        assert oracles.ensemble_failures(member, error, cc) == []


def test_ensemble_gate_rejects_a_wrong_error(members):
    for member, error, cc in members:
        failures = oracles.ensemble_failures(member, error + 1e-8, cc)
        assert any("disagrees" in f for f in failures)
    member, error, cc = members[0]
    assert any("frozen" in f for f in oracles.ensemble_failures(member, error + 1e-8, cc))


def test_ensemble_gate_rejects_wrong_couplings(members):
    member, error, cc = members[1]
    ens = oracles.ensemble_of(member)
    for field in ("s_mu", "s_o"):
        wrong = dataclasses.replace(cc, **{field: getattr(cc, field) * (1.0 + 1e-10)})
        assert any(field in f for f in oracles.coupling_failures(ens, wrong))


def test_unitarity_check_rejects_a_scaled_transmission():
    net = mc.microscopic_network(mc.default_validation_ensemble(), 2.6, 2.6)
    grid = np.linspace(*inputs.ENSEMBLE_GRID)
    s_aa = mc.transmission_grid(net, grid, "a", "a")
    s_ba = mc.transmission_grid(net, grid, "a", "b")
    assert oracles.unitarity_defect(s_aa, s_ba) <= oracles.UNITARITY_TOL
    assert oracles.unitarity_defect(s_aa, s_ba * (1.0 + 1e-9)) > oracles.UNITARITY_TOL


# ---------------------------------------------------------------- cli_bundles


def _run(*argv):
    assert cli_main([str(a) for a in argv]) == 0


def _replace_field(path, targets, column, value):
    lines = path.read_text().split("\n")
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if line and all(abs(float(f) - t) < 1e-9 for f, t in zip(fields, targets)):
            fields[column] = value
            lines[i] = ",".join(fields)
            path.write_text("\n".join(lines))
            return
    raise AssertionError(f"no row at {targets}")


def _edit_json(path, key, value):
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))


def test_fig2_gate(tmp_path):
    _run("reproduce", "--preset", "fig2", "--out-dir", tmp_path)
    assert oracles.fig2_failures(tmp_path) == []
    _edit_json(tmp_path / "fig2_resonant_bandwidth.json", "max_width", 1.35)
    assert oracles.fig2_failures(tmp_path)
    _run("reproduce", "--preset", "fig2", "--out-dir", tmp_path)
    _replace_field(tmp_path / "fig2_detuned_sweep.csv", (0.0,), 1, "8.000000000001e-1")
    assert oracles.fig2_failures(tmp_path)


def test_fig3_gate(tmp_path):
    _run("reproduce", "--preset", "fig3", "--out-dir", tmp_path)
    assert oracles.fig3_failures(tmp_path) == []
    _replace_field(tmp_path / "fig3_map_dmu0.csv", (2.0, 1.0), 2, "9.999999999999e-1")
    assert oracles.fig3_failures(tmp_path)


@pytest.fixture
def commands():
    return {c["name"]: c for c in inputs.cli_commands(inputs.DEV_SEED)}


def _run_config(tmp_path, cmd):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cmd["config"]))
    out = tmp_path / f"{cmd['name']}.out"
    _run(*cmd["args"], config, "--out", out)
    return out


def test_sweep_gate(tmp_path, commands):
    cmd = commands["sweep"]
    cmd["config"]["window"]["points"] = 201
    out = _run_config(tmp_path, cmd)
    assert oracles.sweep_failures(out, cmd["config"]) == []
    lines = out.read_text().split("\n")
    omega, eta = lines[100].split(",")
    lines[100] = f"{omega},{float(eta) + 1e-9!r}"
    out.write_text("\n".join(lines))
    assert oracles.sweep_failures(out, cmd["config"])


def test_bandwidth_gate(tmp_path, commands):
    cmd = commands["bandwidth"]
    out = _run_config(tmp_path, cmd)
    assert oracles.bandwidth_failures(out, cmd["config"]) == []
    doc = json.loads(out.read_text())
    doc["intervals"][0]["lo"] -= 1e-6
    out.write_text(json.dumps(doc))
    assert oracles.bandwidth_failures(out, cmd["config"])
    _run_config(tmp_path, cmd)
    _edit_json(out, "max_width", json.loads(out.read_text())["max_width"] * 0.5)
    assert oracles.bandwidth_failures(out, cmd["config"])


def test_refined_edges_skip_printed_window_bounds():
    window = (-4.0 * 1.2345678901234567, 4.0 * 1.2345678901234567)
    printed = float(format_float(window[0]))
    assert printed != window[0]
    assert oracles.refined_edges(mc.Interval(printed, 0.5), window) == [0.5]


def test_eliminate_gate(tmp_path):
    out = tmp_path / "eliminate.json"
    _run("eliminate", "--out", out)
    assert oracles.eliminate_failures(out) == []
    _edit_json(out, "max_eta_error", oracles.FROZEN_DEFAULT_ERROR + 1e-8)
    assert oracles.eliminate_failures(out)


def test_timedomain_gate(tmp_path, commands):
    out = _run_config(tmp_path, commands["timedomain"])
    assert oracles.timedomain_failures(out) == []
    _edit_json(out, "abs_error", 2e-3)
    assert oracles.timedomain_failures(out)


# ---------------------------------------------------------------- tracing


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("analysis.max_bandwidth", 0.0, 10.0, -1, 0, None),
        tracing.Span("analysis.high_efficiency_intervals", 1.0, 9.0, 0, 0, None),
        tracing.Span("scattering.transmission_grid", 2.0, 5.0, 1, 0, {"points": 4001, "n": 3}),
        tracing.Span("scattering.transmission_grid", 6.0, 7.0, 1, 0, {"points": 2, "n": 3}),
    ]
    assert tracing.self_times(spans) == [2.0, 4.0, 3.0, 1.0]
    metrics = tracing.layer_metrics(spans, {})
    assert metrics["analysis.scan_points"] == 4001 and metrics["analysis.scan_s"] == 3.0
    assert metrics["analysis.refine_calls"] == 1 and metrics["analysis.refine_s"] == 1.0


def test_traced_counts_repeat_and_wrappers_come_off():
    net = mc.resonant_network(mc.ResonantParams(1.0, 1.0, 2.6, 2.6))
    original = mc.analysis.transmission_grid
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            mc.analysis.max_bandwidth(net, "a", "b", 0.99, (-3.0, 3.0))
        metrics = tracing.layer_metrics(tracer.spans, {})
        counts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["analysis.reports"] == 1 and counts[0]["analysis.scan_points"] == 4001
    assert counts[0]["analysis.refine_calls"] > 0
    assert counts[0]["linalg.batched_calls"] == counts[0]["scattering.grid_calls"]
    assert mc.analysis.transmission_grid is original
