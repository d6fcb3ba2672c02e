"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import io
import json
import warnings

import numpy as np
import pytest

from modeconv.analysis import ConverterFamily, high_efficiency_intervals, optimize_kappa
from modeconv.cli import _PRESETS, _build_parser, main
from modeconv.ensemble import AtomEnsemble, AtomParams, ensemble_to_dict, microscopic_network
from modeconv.formatting import csv_text, json_text
from modeconv.network import network_from_dict
from modeconv.scattering import _pair_stack, _PortSpace, _stacks, dynamical_matrix, transmission_grid


def write_cfg(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SWEEP_CFG = {
    "setup": "resonant",
    "kappa": 2.6,
    "window": {"min": -1.0, "max": 1.0, "points": 5},
}


def test_sweep_to_file(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", SWEEP_CFG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "omega,eta"
    assert len(lines) == 6
    assert lines[3] == "0.000000000000e0,1.000000000000e0"
    assert lines[2] == "-5.000000000000e-1,9.998668816282e-1"


def test_sweep_to_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", SWEEP_CFG)
    assert main(["sweep", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "omega,eta"
    assert len(lines) == 6


def test_stdin_config(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SWEEP_CFG)))
    assert main(["sweep", "-"]) == 0
    assert "omega,eta" in capsys.readouterr().out


def test_flag_overrides_config(tmp_path, capsys):
    doc = dict(SWEEP_CFG, kappa=1.0)
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["sweep", cfg, "--kappa", "2.6"]) == 0
    out = capsys.readouterr().out
    assert "9.998668816282e-1" in out  # the kappa = 2.6 value at omega = 0.5


def test_window_flags(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {"setup": "resonant", "kappa": 2.6})
    code = main(
        ["sweep", cfg, "--omega-min", "-1", "--omega-max", "1", "--omega-points", "3"]
    )
    assert code == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 4


class TestConfigErrors:
    def test_unknown_field_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", dict(SWEEP_CFG, bogus=1))
        assert main(["sweep", cfg]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_inapplicable_field_rejected(self, tmp_path, capsys):
        # delta_mu belongs to the detuned setup only
        cfg = write_cfg(tmp_path, "cfg.json", dict(SWEEP_CFG, delta_mu=3.0))
        assert main(["sweep", cfg]) == 1
        assert "delta_mu" in capsys.readouterr().err

    def test_missing_kappa(self, tmp_path, capsys):
        doc = {"setup": "resonant", "window": {"min": -1.0, "max": 1.0, "points": 3}}
        cfg = write_cfg(tmp_path, "cfg.json", doc)
        assert main(["sweep", cfg]) == 1
        assert "kappa" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["sweep", str(path)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["sweep", str(tmp_path / "absent.json")]) == 1

    def test_bad_setup_value(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", dict(SWEEP_CFG, setup="sideways"))
        assert main(["sweep", cfg]) == 1
        assert "setup" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert main(["sweep", "--frobnicate"]) == 1

    def test_no_command(self):
        assert main([]) == 1


def test_singular_frequency_exits_2(tmp_path, capsys):
    # the compensated uniform ensemble is exactly singular at omega = 0, and
    # an odd-point symmetric window lands a grid point there
    doc = {
        "setup": "microscopic",
        "kappa": 2.6,
        "window": {"min": -1.0, "max": 1.0, "points": 3},
    }
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["sweep", cfg]) == 2
    err = capsys.readouterr().err
    assert "omega" in err and "0" in err


def test_microscopic_sweep_even_grid(tmp_path, capsys):
    doc = {
        "setup": "microscopic",
        "kappa": 2.6,
        "window": {"min": -1.0, "max": 1.0, "points": 4},
    }
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["sweep", cfg]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 5


def test_bandwidth_report(tmp_path, capsys):
    doc = {
        "setup": "resonant",
        "kappa": 2.6,
        "threshold": 0.999,
        "window": {"min": -3.0, "max": 3.0},
    }
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["bandwidth", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["threshold", "intervals", "max_width"]
    assert len(report["intervals"]) == 1
    assert abs(report["max_width"] - 1.3187) < 1e-3


def test_map_ordering(tmp_path, capsys):
    doc = {
        "setup": "resonant",
        "kappa_range": {"min": 1.0, "max": 2.0, "points": 3},
        "window": {"min": -1.0, "max": 1.0, "points": 5},
    }
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["map", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "kappa,omega,eta"
    assert len(lines) == 1 + 3 * 5
    kappas = [float(line.split(",")[0]) for line in lines[1:]]
    assert kappas == sorted(kappas)
    # within one kappa block, omega ascends
    omegas = [float(line.split(",")[1]) for line in lines[1:6]]
    assert omegas == sorted(omegas)


def test_map_rejects_microscopic(tmp_path, capsys):
    doc = {
        "setup": "microscopic",
        "kappa_range": {"min": 1.0, "max": 2.0, "points": 2},
        "window": {"min": -1.0, "max": 1.0, "points": 3},
    }
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["map", cfg]) == 1
    assert "microscopic" in capsys.readouterr().err


def test_optimize_two_mode(tmp_path, capsys):
    doc = {
        "setup": "two_mode",
        "g": 1.0,
        "threshold": 0.99,
        "kappa_range": {"min": 0.5, "max": 4.0},
    }
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["optimize", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["threshold", "kappa_star", "max_width"]
    assert 0.5 <= report["kappa_star"] <= 4.0
    assert report["max_width"] > 0.0


def test_optimize_with_no_member_above_threshold_warns_and_reports_width_zero(tmp_path, capsys):
    doc = {
        "setup": "resonant",
        "g": 0.0,
        "threshold": 0.9,
        "kappa_range": {"min": 0.1, "max": 8.0, "points": 21},
    }
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    with pytest.warns(UserWarning, match="no member reaches threshold 0.9"):
        assert main(["optimize", cfg]) == 0
    assert capsys.readouterr().out == json_text({"threshold": 0.9, "kappa_star": 0.1, "max_width": 0.0}) + "\n"


def test_eliminate_defaults(capsys):
    assert main(["eliminate"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "s_o",
        "s_mu",
        "mode_mismatch",
        "stark_a",
        "stark_c",
        "max_eta_error",
        "omega_window",
    ]
    assert abs(report["s_o"] - 1.0) < 1e-12
    assert abs(report["stark_c"] - 8.0) < 1e-12
    assert report["max_eta_error"] < 0.06
    assert report["omega_window"] == [-1.5, 1.5, 300]


def test_eliminate_inline_ensemble(tmp_path, capsys):
    atoms = [
        {
            "g_o": [2.5, 0.0],
            "g_mu": [0.25, 0.0],
            "omega_rabi": 5.0,
            "delta_o": 50.0,
            "delta_mu": 0.0,
        }
        for _ in range(16)
    ]
    doc = {"ensemble": {"atoms": atoms}}
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["eliminate", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["s_mu"] - 1.0) < 1e-12


def test_timedomain_summary_and_trace(tmp_path, capsys):
    doc = {"setup": "resonant", "kappa": 2.0, "omega": 0.5}
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    trace = tmp_path / "trace.csv"
    assert main(["timedomain", cfg, "--trace-out", str(trace)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["abs_error"] < 1e-3
    header = trace.read_text().split("\n")[0]
    assert header.startswith("time,")
    assert "out_b_re" in header


def test_timedomain_zero_drive(tmp_path, capsys):
    doc = {"setup": "resonant", "kappa": 2.0, "omega": 0.5, "amplitude": 0.0}
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["timedomain", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["note"] == "ZeroDrive"
    assert report["ratio_re"] == 0.0
    assert report["abs_error"] == 0.0


def test_custom_network(tmp_path, capsys):
    net_doc = {
        "labels": ["p", "q"],
        "coupling_re": [[0.0, 0.3], [0.3, 0.0]],
        "coupling_im": [[0.0, 0.0], [0.0, 0.0]],
        "damping": [0.6, 0.6],
    }
    doc = {
        "setup": "custom",
        "network": net_doc,
        "window": {"min": -1.0, "max": 1.0, "points": 3},
    }
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["sweep", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    # kappa = 2S: matched, so eta(0) = 1
    assert lines[2] == "0.000000000000e0,1.000000000000e0"


def test_custom_network_bad_port(tmp_path, capsys):
    net_doc = {
        "labels": ["p", "q"],
        "coupling_re": [[0.0, 0.3], [0.3, 0.0]],
        "coupling_im": [[0.0, 0.0], [0.0, 0.0]],
        "damping": [0.6, 0.0],
    }
    doc = {
        "setup": "custom",
        "network": net_doc,
        "in_port": "p",
        "out_port": "q",
        "window": {"min": -1.0, "max": 1.0, "points": 3},
    }
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["sweep", cfg]) == 1
    assert capsys.readouterr().err == "config error: out_port 'q' is not a damped mode; ports are ['p']\n"


def test_custom_network_with_three_ports_converts_between_the_named_pair(tmp_path, capsys):
    net_doc = {
        "labels": ["p", "m", "q"],
        "coupling_re": [[0.0, 0.4, 0.0], [0.4, 0.0, 0.3], [0.0, 0.3, 0.0]],
        "coupling_im": [[0.0] * 3] * 3,
        "damping": [0.6, 0.2, 0.8],
    }
    window = {"min": -1.0, "max": 1.0, "points": 5}
    net = network_from_dict(net_doc)
    omegas = np.linspace(-1.0, 1.0, 5)
    for pair in (("q", "m"), ("m", "p"), ("p", "q")):
        doc = {"setup": "custom", "network": net_doc, "in_port": pair[0], "out_port": pair[1], "window": window}
        assert main(["sweep", write_cfg(tmp_path, "cfg.json", doc)]) == 0
        etas = np.abs(transmission_grid(net, omegas, *pair)) ** 2
        assert capsys.readouterr().out == csv_text("omega,eta", np.column_stack([omegas, etas]))
    # with no pair given, the first and last port: the p -> q output
    doc = {"setup": "custom", "network": net_doc, "window": window}
    assert main(["sweep", write_cfg(tmp_path, "cfg.json", doc)]) == 0
    assert capsys.readouterr().out == csv_text("omega,eta", np.column_stack([omegas, etas]))


def test_custom_network_without_ports_is_an_input_error(tmp_path, capsys):
    net_doc = {
        "labels": ["p", "q"],
        "coupling_re": [[0.0, 0.3], [0.3, 0.0]],
        "coupling_im": [[0.0, 0.0], [0.0, 0.0]],
        "damping": [0.0, 0.0],
    }
    doc = {"setup": "custom", "network": net_doc, "window": {"min": -1.0, "max": 1.0, "points": 3}}
    assert main(["sweep", write_cfg(tmp_path, "cfg.json", doc)]) == 1
    assert capsys.readouterr().err == "input error: network has no damped modes, so no scattering ports\n"


def test_reproduce_writes_bundle(tmp_path):
    assert main(["reproduce", "--preset", "fig2", "--out-dir", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names == [
        "fig2_detuned_sweep.csv",
        "fig2_resonant_bandwidth.json",
        "fig2_resonant_sweep.csv",
        "fig2_two_mode_sweep.csv",
    ]


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_each_bundle_file_is_what_its_command_writes_for_its_config(tmp_path, preset):
    # One path: a bundle file is a user's run of its command on a plain JSON config.
    assert main(["reproduce", "--preset", preset, "--out-dir", str(tmp_path / "bundle")]) == 0
    for name, command, config in _PRESETS[preset]:
        cfg = write_cfg(tmp_path, f"{name}.cfg.json", config)
        out = tmp_path / name
        assert main([command, cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "bundle" / name).read_bytes()


def test_reproduce_rejects_unknown_preset(tmp_path):
    assert main(["reproduce", "--preset", "fig9", "--out-dir", str(tmp_path)]) == 1


def test_custom_network_non_iterable_labels(tmp_path, capsys):
    net_doc = {
        "labels": 5,
        "coupling_re": [[0.0, 0.3], [0.3, 0.0]],
        "coupling_im": [[0.0, 0.0], [0.0, 0.0]],
        "damping": [0.6, 0.6],
    }
    doc = {"setup": "custom", "network": net_doc, "window": {"min": -1.0, "max": 1.0, "points": 3}}
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["sweep", cfg]) == 1
    assert "config error" in capsys.readouterr().err


def test_undecodable_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"setup": "\xff"}')
    assert main(["sweep", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_library_value_error_is_not_reported_as_config_error(tmp_path, monkeypatch):
    # A ValueError from the numerics is a bug, not bad input: it must surface.
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr("modeconv.cli.transmission_grid", broken)
    cfg = write_cfg(tmp_path, "cfg.json", SWEEP_CFG)
    with pytest.raises(ValueError, match="internal failure"):
        main(["sweep", cfg])


def test_map_singular_member_exits_2(tmp_path, capsys):
    # with g = 0 the interior mode is uncoupled and undamped, so every member
    # is singular at omega = 0, which the odd-point window contains
    doc = {
        "setup": "resonant",
        "g": 0.0,
        "kappa_range": {"min": 0.5, "max": 1.5, "points": 3},
        "window": {"min": -1.0, "max": 1.0, "points": 5},
    }
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a library warning would escape main as an exception
        assert main(["map", cfg]) == 2
    assert capsys.readouterr().err == "numerical failure: dynamical matrix is singular at omega=0.0\n"


@pytest.mark.parametrize("k_max", [1.0, float(np.nextafter(1.0, 2.0))])
def test_map_rejects_kappa_range_without_distinct_points(tmp_path, capsys, k_max):
    doc = {
        "setup": "resonant",
        "kappa_range": {"min": 1.0, "max": k_max, "points": 3},
        "window": {"min": -1.0, "max": 1.0, "points": 5},
    }
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    assert main(["map", cfg]) == 1
    assert "kappa_range" in capsys.readouterr().err



@pytest.mark.parametrize("field", ["window", "kappa_range"])
@pytest.mark.parametrize("bound", ["min", "max"])
def test_range_bound_errors_name_the_field(tmp_path, capsys, field, bound):
    doc = {
        "setup": "resonant",
        "kappa_range": {"min": 1.0, "max": 2.0, "points": 3},
        "window": {"min": -1.0, "max": 1.0, "points": 5},
    }
    missing = dict(doc, **{field: {k: v for k, v in doc[field].items() if k != bound}})
    assert main(["map", write_cfg(tmp_path, "missing.json", missing)]) == 1
    assert f"missing required field '{field}.{bound}'" in capsys.readouterr().err
    not_a_number = dict(doc, **{field: dict(doc[field], **{bound: "1"})})
    assert main(["map", write_cfg(tmp_path, "text.json", not_a_number)]) == 1
    assert f"field '{field}.{bound}' must be a number, got '1'" in capsys.readouterr().err


OPTIMIZE_CFG = {
    "setup": "two_mode",
    "g": 1.0,
    "threshold": 0.99,
    "kappa_range": {"min": 0.5, "max": 4.0, "points": 5},
}


def test_optimize_window_takes_min_and_max(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", dict(OPTIMIZE_CFG, window={"min": -3.0, "max": 3.0}))
    assert main(["optimize", cfg]) == 0
    family = ConverterFamily(kind="two_mode", g=1.0)
    kappa_star, width_star = optimize_kappa(family, 0.99, (0.5, 4.0), 5, omega_range=(-3.0, 3.0))
    doc = {"threshold": 0.99, "kappa_star": kappa_star, "max_width": width_star}
    assert capsys.readouterr().out == json_text(doc) + "\n"


# The commands whose window is {min, max}: band edges come from no frequency grid.
gridless_window_commands = pytest.mark.parametrize(
    "command, doc",
    [
        ("optimize", OPTIMIZE_CFG),
        ("bandwidth", {"setup": "resonant", "kappa": 2.6, "threshold": 0.99}),
    ],
    ids=["optimize", "bandwidth"],
)


@gridless_window_commands
def test_window_rejects_points(tmp_path, capsys, command, doc):
    # Band edges come from no frequency grid, so a point count would be ignored.
    window = {"min": -3.0, "max": 3.0}
    cfg = write_cfg(tmp_path, "cfg.json", dict(doc, window=dict(window, points=7)))
    assert main([command, cfg]) == 1
    assert "window.points" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, "cfg.json", dict(doc, window=window))
    assert main([command, cfg]) == 0


@gridless_window_commands
def test_omega_points_flag_is_rejected_by_its_own_name(tmp_path, capsys, command, doc):
    # The flag is named, not the config field 'window.points' the user never wrote.
    cfg = write_cfg(tmp_path, "cfg.json", doc)
    flags = ["--omega-min", "-3", "--omega-max", "3"]
    assert main([command, cfg, *flags, "--omega-points", "7"]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: unrecognized arguments: --omega-points 7\n"
    assert main([command, cfg, *flags]) == 0


COMMAND_OPTIONS = {
    "sweep": "--g --kappa --delta-mu --omega-min --omega-max --omega-points --out",
    "bandwidth": "--g --kappa --delta-mu --threshold --omega-min --omega-max --out",
    "map": "--g --delta-mu --omega-min --omega-max --omega-points --out",
    "optimize": "--g --delta-mu --threshold --omega-min --omega-max --out",
    "eliminate": "--kappa --omega-min --omega-max --omega-points --out",
    "timedomain": "--g --kappa --delta-mu --omega --amplitude --trace-out --out",
    "reproduce": "--preset --out-dir",
}


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_each_command_takes_only_its_own_flags(command):
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {flag for action in commands.choices[command]._actions for flag in action.option_strings}
    assert options - {"-h", "--help"} == set(COMMAND_OPTIONS[command].split())


@pytest.mark.parametrize(
    "command, doc, flag",
    [
        ("timedomain", {"setup": "resonant", "kappa": 2.6, "omega": 0.5}, ["--omega-min", "-3"]),
        ("eliminate", {"setup": "microscopic"}, ["--threshold", "0.9"]),
    ],
    ids=["timedomain-window", "eliminate-threshold"],
)
def test_flag_a_command_does_not_read_is_rejected_by_its_name(tmp_path, capsys, command, doc, flag):
    # The flag is named: not ignored, and not reported as a config field the user never wrote.
    assert main([command, write_cfg(tmp_path, "cfg.json", doc), *flag]) == 1
    assert capsys.readouterr().err == f"usage error: unrecognized arguments: {' '.join(flag)}\n"


def test_timedomain_rejects_a_window_field(tmp_path, capsys):
    # timedomain drives one frequency, so a window would be silently ignored.
    window = {"min": -3.0, "max": 3.0, "points": 3}
    doc = {"setup": "resonant", "kappa": 2.6, "omega": 0.5, "window": window}
    assert main(["timedomain", write_cfg(tmp_path, "cfg.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: field 'window' does not apply to 'timedomain' with this setup\n"


@pytest.mark.parametrize(
    "args, window, expected",
    [
        (["--omega-points", "4"], None, [-1.5, 1.5, 4]),
        (["--omega-min", "-1"], None, [-1.0, 1.5, 300]),
        ([], {"points": 4}, [-1.5, 1.5, 4]),
        (["--omega-max", "1"], {"min": -1.0}, [-1.0, 1.0, 300]),
    ],
    ids=["points-flag", "min-flag", "points-field", "max-flag-min-field"],
)
def test_eliminate_partial_window_takes_the_rest_from_the_default(
    tmp_path, capsys, args, window, expected
):
    cfg = [] if window is None else [write_cfg(tmp_path, "cfg.json", {"window": window})]
    assert main(["eliminate", *cfg, *args]) == 0
    assert json.loads(capsys.readouterr().out)["omega_window"] == expected


@pytest.mark.parametrize(
    "command, doc, args",
    [
        ("eliminate", {"window": 5}, ["--omega-min", "-1"]),
        (
            "sweep",
            {"setup": "resonant", "kappa": 2.6, "window": 5},
            ["--omega-min", "-1", "--omega-max", "1", "--omega-points", "3"],
        ),
    ],
    ids=["eliminate-min-flag", "sweep-all-flags"],
)
def test_window_flag_keeps_a_malformed_window_field(tmp_path, capsys, command, doc, args):
    # A flag merges into a window object only; a malformed field is rejected by its name.
    assert main([command, write_cfg(tmp_path, "cfg.json", doc), *args]) == 1
    err = capsys.readouterr().err
    assert err == "config error: field 'window' must be an object with min, max, points\n"


def test_timedomain_checks_trace_output_before_integrating(tmp_path, capsys, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("integrated before the config was checked")

    monkeypatch.setattr("modeconv.cli.steady_state_response", not_called)
    doc = {"setup": "resonant", "kappa": 0.5, "omega": 0.5, "trace_output": "-"}
    assert main(["timedomain", write_cfg(tmp_path, "cfg.json", doc)]) == 1
    assert "field 'trace_output' must be a file path" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["coupling_re", "damping"])
def test_custom_network_with_nan_is_malformed(tmp_path, capsys, field):
    net_doc = {
        "labels": ["p", "q"],
        "coupling_re": [[0.0, 0.3], [0.3, 0.0]],
        "coupling_im": [[0.0, 0.0], [0.0, 0.0]],
        "damping": [0.6, 0.6],
    }
    net_doc[field][0] = [float("nan"), 0.3] if field == "coupling_re" else float("nan")
    doc = {"setup": "custom", "network": net_doc, "window": {"min": -1.0, "max": 1.0, "points": 3}}
    cfg = write_cfg(tmp_path, "cfg.json", doc)  # json writes the NaN literal it also reads
    assert main(["sweep", cfg]) == 1
    assert "field 'network' is malformed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, document, message",
    [
        ("ensemble", {"delta_o": "50"}, "atom 0 is malformed: delta_o must be a number, got '50'"),
        ("ensemble", {"omega_rabi": True}, "atom 0 is malformed: omega_rabi must be a number, got True"),
        ("ensemble", {"g_o": ["2.5", "0"]}, "atom 0 is malformed: g_o must be a number, got '2.5'"),
        ("network", {"labels": "ab"}, "labels must be a list of strings, got 'ab'"),
        ("network", {"labels": "opt"}, "labels must be a list of strings, got 'opt'"),
        ("network", {"coupling_re": [[0.0, "0"], [0.3, 0.0]]}, "coupling_re entry must be a number, got '0'"),
        ("network", {"damping": [0.6, True]}, "damping entry must be a number, got True"),
        ("network", {"damping": [[0.6], 0.6]}, "damping must be a rectangular list of numbers, got [[0.6], 0.6]"),
        ("network", {"coupling_re": [[0.0, 0.3], [0.3]]},
         "coupling_re must be a rectangular list of numbers, got [[0.0, 0.3], [0.3]]"),
        ("ensemble", {"g_o": 2.5}, "atom 0 is malformed: g_o must be an [re, im] pair of numbers, got 2.5"),
        ("ensemble", {"g_o": [2.5, 0, 1]},
         "atom 0 is malformed: g_o must be an [re, im] pair of numbers, got [2.5, 0, 1]"),
        ("network", {"coupling_im": [[0.0] * 3] * 3}, "coupling_re shape (2, 2) does not match coupling_im shape (3, 3)"),
    ],
)
def test_documents_take_numbers_only(tmp_path, capsys, field, document, message):
    if field == "ensemble":
        atom = {"g_o": [2.5, 0.0], "g_mu": [0.25, 0.0], "omega_rabi": 5.0, "delta_o": 50.0, "delta_mu": 0.0}
        doc = {"setup": "microscopic", "kappa": 2.6, "ensemble": {"atoms": [{**atom, **document}]}}
    else:
        net_doc = {
            "labels": ["p", "q"],
            "coupling_re": [[0.0, 0.3], [0.3, 0.0]],
            "coupling_im": [[0.0, 0.0], [0.0, 0.0]],
            "damping": [0.6, 0.6],
        }
        doc = {"setup": "custom", "network": {**net_doc, **document}}
    doc["window"] = {"min": -1.0, "max": 1.0, "points": 4}
    assert main(["sweep", write_cfg(tmp_path, "cfg.json", doc)]) == 1
    assert capsys.readouterr().err == f"config error: field '{field}' is malformed: {message}\n"


def test_microscopic_bandwidth_report_matches_the_library(tmp_path, capsys):
    rng = np.random.default_rng(3)
    atoms = [
        AtomParams(2.5, 0.25, 5.0, delta_o=50.0 + 2.0 * rng.normal(), delta_mu=0.05 * rng.normal())
        for _ in range(16)
    ]
    ens = AtomEnsemble(tuple(atoms))
    doc = {
        "setup": "microscopic",
        "kappa": 2.6,
        "threshold": 0.9,
        "ensemble": ensemble_to_dict(ens),
        "window": {"min": -3.0, "max": 3.0},
    }
    assert main(["bandwidth", write_cfg(tmp_path, "cfg.json", doc)]) == 0
    net = microscopic_network(ens, 2.6, 2.6)
    # 32 undamped modes behind two ports: the edges are refined in port space.
    assert isinstance(_pair_stack(*next(_stacks([net], "a", "b"))[1:])[0][0], _PortSpace)
    report = high_efficiency_intervals(net, "a", "b", 0.9, (-3.0, 3.0))
    intervals = [{"lo": iv.lo, "hi": iv.hi, "width": iv.width} for iv in report.intervals]
    expected = {"threshold": 0.9, "intervals": intervals, "max_width": report.max_width}
    assert capsys.readouterr().out == json_text(expected) + "\n"
    assert len(intervals) == 16
    a, b = net.labels.index("a"), net.labels.index("b")
    drive = np.zeros(net.n_modes, dtype=complex)
    drive[a] = np.sqrt(net.damping[a])

    def eta(omega):
        x = np.linalg.solve(dynamical_matrix(net, omega), drive)
        return abs(2.0 * np.sqrt(net.damping[b]) * x[b]) ** 2

    for iv in report.intervals:
        for edge in (iv.lo, iv.hi):
            assert abs(eta(edge) - 0.9) <= 2e-9
    for left, right in zip(report.intervals, report.intervals[1:]):
        assert eta((left.hi + right.lo) / 2.0) < 0.9
