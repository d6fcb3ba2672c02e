"""Command-line front end: sweeps, bandwidth reports, maps, optimization, validation.

Configuration is a single JSON document given as a file path (or ``-`` for
standard input); a handful of flags override top-level scalars for quick
variations.  Each command is one function from a config to text.  The
reference bundles of ``reproduce`` are a table of (file, command, config)
entries, so every bundle file is exactly what its command writes for that
config.  Every emitted CSV/JSON value uses a fixed 12-decimal scientific
format and fixed row/key order, so identical runs produce byte-identical files.

Exit codes: 0 success, 1 configuration/input error, 2 numerical failure
(singular drive frequency, non-convergent time integration).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import COARSE_KAPPA_POINTS, efficiency_map, high_efficiency_intervals, optimize_kappa
from .converter import FAMILY_KINDS, ConverterFamily
# Not called here: the benchmark's set-up probe builds a network through
# ``cli.resonant_network`` and ``cli.ResonantParams``, and its tracer wraps the
# three constructors where this module looks them up.
from .converter import ResonantParams, detuned_network, resonant_network, two_mode_network  # noqa: F401
from .ensemble import (
    collective_couplings,
    default_validation_ensemble,
    elimination_error,
    ensemble_from_dict,
    microscopic_network,
)
from .errors import (
    ModeconvError,
    NonConvergentError,
    SingularAtFrequencyError,
    StepTooLargeError,
)
from .formatting import csv_text, grid_csv_text, json_text
from .network import network_from_dict
from .scattering import transmission, transmission_grid
from .timedomain import steady_state_response, trace_csv_text

SETUPS = FAMILY_KINDS + ("microscopic", "custom")
# Fields every kappa-family command (map, optimize) accepts besides g and delta_mu.
FAMILY_FIELDS = frozenset({"setup", "kappa_range", "window", "output"})

# Each flag overrides one config field: (field, type, help).  The field is the
# flag's argparse dest, and "window.min" names the key "min" of the field "window".
FLAGS = {
    "--g": ("g", float, "override coupling strength g"),
    "--kappa": ("kappa", float, "override damping rate kappa"),
    "--delta-mu": ("delta_mu", float, "override intermediate-mode detuning"),
    "--threshold": ("threshold", float, "override efficiency threshold"),
    "--omega-min": ("window.min", float, "override the frequency window's lower end"),
    "--omega-max": ("window.max", float, "override the frequency window's upper end"),
    "--omega-points": ("window.points", int, "override the frequency window's point count"),
    "--omega": ("omega", float, "override drive frequency"),
    "--amplitude": ("amplitude", float, "override drive amplitude"),
    "--trace-out": ("trace_output", str, "write the integration trace CSV here"),
    "--out": ("output", str, "output path (default: stdout)"),
}

# Defaults for the `eliminate` command: the reference damping and an
# even-point window straddling omega = 0 (uniform compensated ensembles are
# exactly singular there).
ELIMINATE_DEFAULT_KAPPA = 2.6
ELIMINATE_DEFAULT_WINDOW = {"min": -1.5, "max": 1.5, "points": 300}


class ConfigError(Exception):
    """Configuration problem; the message names the offending field."""


class UsageError(Exception):
    """Bad command-line usage."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------- config plumbing


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        cfg: dict = {}
    else:
        if path == "-":
            text = sys.stdin.read()
        else:
            text = Path(path).read_text()
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        cfg = dict(cfg)

    for field, _, _ in FLAGS.values():
        if (value := getattr(args, field, None)) is None:
            continue
        name, _, key = field.partition(".")
        if key:
            if not isinstance(doc := cfg.get(name, {}), dict):
                continue  # left as written, so the field is rejected by its name
            value = {**doc, key: value}
        cfg[name] = value
    if not isinstance(cfg.get("output", "-"), str):
        raise ConfigError("field 'output' must be a path string")
    return cfg


def _check_keys(cfg: dict, allowed: set, command: str):
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"field '{unknown[0]}' does not apply to '{command}' with this setup")


def _number(cfg: dict, key: str, default=None, required: bool = False, field: str | None = None) -> float:
    """``cfg[key]`` as a finite float; errors name it ``field`` (default ``key``)."""
    field = key if field is None else field
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required field '{field}'")
        return default
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{field}' must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"field '{field}' must be finite, got {value}")
    return value


def _positive(cfg: dict, key: str, default=None, required: bool = False) -> float:
    value = _number(cfg, key, default=default, required=required)
    if value is not None and value <= 0.0:
        raise ConfigError(f"field '{key}' must be positive, got {value}")
    return value


# The ordering each range field must satisfy: (test, wording for the error).
_RANGE_ORDER = {
    "window": (lambda lo, hi: lo < hi, "min < max"),
    "kappa_range": (lambda lo, hi: 0.0 < lo <= hi, "0 < min <= max"),
}


def _range(cfg: dict, name: str, keys=("min", "max", "points"), default=None) -> tuple:
    """Parse the field ``name``, an object with ``keys``, as a tuple in that order.

    ``default`` (a dict) fills the keys the field leaves out; a missing field
    takes the default only when the default gives every key.
    """
    default = default or {}
    if name not in cfg and not set(keys) <= set(default):
        raise ConfigError(f"missing required field '{name}' ({{{', '.join(keys)}}})")
    doc = cfg.get(name, {})
    if not isinstance(doc, dict):
        raise ConfigError(f"field '{name}' must be an object with {', '.join(keys)}")
    extra = sorted(set(doc) - set(keys))
    if extra:
        raise ConfigError(f"unknown field '{name}.{extra[0]}'")
    doc = {**default, **doc}
    lo = _number(doc, "min", required=True, field=f"{name}.min")
    hi = _number(doc, "max", required=True, field=f"{name}.max")
    in_order, wording = _RANGE_ORDER[name]
    if not in_order(lo, hi):
        raise ConfigError(f"{name} requires {wording}, got [{lo}, {hi}]")
    if "points" not in keys:
        return lo, hi
    if "points" not in doc:
        raise ConfigError(f"missing required field '{name}.points'")
    value = doc["points"]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{name}.points' must be an integer, got {value!r}")
    if value < 2:
        raise ConfigError(f"field '{name}.points' must be >= 2, got {value}")
    return lo, hi, value


def _threshold(cfg: dict) -> float:
    value = _number(cfg, "threshold", required=True)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"field 'threshold' must lie in (0, 1), got {value}")
    return value


def _setup(cfg: dict) -> str:
    if "setup" not in cfg:
        raise ConfigError("missing required field 'setup'")
    setup = cfg["setup"]
    if setup not in SETUPS:
        raise ConfigError(f"field 'setup' must be one of {', '.join(SETUPS)}; got {setup!r}")
    return setup


def _load_document(cfg: dict, name: str, what: str, parse):
    """Field ``name`` parsed by ``parse``: an inline object, or a path to a JSON file holding one."""
    raw = cfg[name]
    if isinstance(raw, str):
        try:
            raw = json.loads(Path(raw).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{name} file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"field '{name}' must be {what} object or a path to one")
    try:
        return parse(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"field '{name}' is malformed: {exc}") from None


def _load_ensemble(cfg: dict):
    if cfg.get("ensemble") is None:
        return default_validation_ensemble()
    return _load_document(cfg, "ensemble", "an ensemble", ensemble_from_dict)


def _build_single_network(cfg: dict, command: str, fields: set):
    """Resolve (network, in_port, out_port) for commands driving one network.

    ``fields`` lists the command's own fields besides setup and output.  The
    ports are the network's ``port_pair`` of the config's ``in_port`` and
    ``out_port``; a label it rejects is a config error.
    """
    setup = _setup(cfg)
    common = {"setup", "output"} | fields
    if setup in FAMILY_KINDS:
        family = _family(cfg, command, common | {"kappa"})
        net = family(_positive(cfg, "kappa", required=True))
    elif setup == "microscopic":
        _check_keys(cfg, common | {"kappa", "ensemble", "compensate_stark"}, command)
        kappa = _positive(cfg, "kappa", required=True)
        compensate = cfg.get("compensate_stark", True)
        if not isinstance(compensate, bool):
            raise ConfigError("field 'compensate_stark' must be true or false")
        net = microscopic_network(_load_ensemble(cfg), kappa, kappa, compensate_stark=compensate)
    else:  # custom
        _check_keys(cfg, common | {"network", "in_port", "out_port"}, command)
        if cfg.get("network") is None:
            raise ConfigError("setup 'custom' requires field 'network'")
        net = _load_document(cfg, "network", "a network", network_from_dict)
    try:
        return (net, *net.port_pair(cfg.get("in_port"), cfg.get("out_port")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _family(cfg: dict, command: str, allowed: set) -> ConverterFamily:
    """The converter family of a family setup; ``allowed`` lists the fields besides g and delta_mu."""
    setup = _setup(cfg)
    if setup not in FAMILY_KINDS:
        raise ConfigError(
            f"setup '{setup}' does not define a kappa family; "
            f"'{command}' accepts {', '.join(FAMILY_KINDS)}"
        )
    if setup == "detuned":
        allowed = allowed | {"delta_mu"}
    _check_keys(cfg, allowed | {"g"}, command)
    g = _number(cfg, "g", default=1.0)
    delta_mu = _number(cfg, "delta_mu", default=0.0) if setup == "detuned" else 0.0
    return ConverterFamily(kind=setup, g=g, delta_mu=delta_mu)


def _write_text(target, text: str):
    """Write ``text`` to the file ``target``, or to standard output when it is ``-``."""
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w", newline="\n") as handle:
            handle.write(text)


# ---------------------------------------------------------------- commands: config -> text


def _cmd_sweep(cfg: dict) -> str:
    net, in_port, out_port = _build_single_network(cfg, "sweep", {"window"})
    grid = np.linspace(*_range(cfg, "window"))
    etas = np.abs(transmission_grid(net, grid, in_port, out_port, on_singular="raise")) ** 2
    return csv_text("omega,eta", np.column_stack([grid, etas]))


def _cmd_bandwidth(cfg: dict) -> str:
    net, in_port, out_port = _build_single_network(cfg, "bandwidth", {"threshold", "window"})
    threshold = _threshold(cfg)
    omega_range = _range(cfg, "window", ("min", "max"))
    report = high_efficiency_intervals(net, in_port, out_port, threshold, omega_range)
    intervals = [{"lo": iv.lo, "hi": iv.hi, "width": iv.width} for iv in report.intervals]
    doc = {"threshold": report.threshold, "intervals": intervals, "max_width": report.max_width}
    return json_text(doc) + "\n"


def _cmd_map(cfg: dict) -> str:
    family = _family(cfg, "map", FAMILY_FIELDS)
    kappas = np.linspace(*_range(cfg, "kappa_range"))
    omegas = np.linspace(*_range(cfg, "window"))
    for name, grid in (("kappa_range", kappas), ("window", omegas)):
        if np.any(np.diff(grid) <= 0.0):
            raise ConfigError(f"field '{name}' is too narrow for {len(grid)} distinct points")
    with warnings.catch_warnings():
        # A singular point fails the command, so the library's warning about it would only repeat that.
        warnings.filterwarnings("ignore", "map contains", UserWarning)
        emap = efficiency_map(family, kappas, omegas)
    singular = np.argwhere(~np.isfinite(emap.etas))
    if len(singular):
        raise SingularAtFrequencyError(float(emap.omegas[singular[0][1]]))
    return grid_csv_text("kappa,omega,eta", emap.kappas, emap.omegas, emap.etas)


def _cmd_optimize(cfg: dict) -> str:
    family = _family(cfg, "optimize", FAMILY_FIELDS | {"threshold"})
    threshold = _threshold(cfg)
    k_min, k_max, coarse = _range(cfg, "kappa_range", default={"points": COARSE_KAPPA_POINTS})
    omega_range = _range(cfg, "window", ("min", "max")) if "window" in cfg else None
    kappa_star, width_star = optimize_kappa(
        family, threshold, (k_min, k_max), coarse_points=coarse, omega_range=omega_range
    )
    return json_text({"threshold": threshold, "kappa_star": kappa_star, "max_width": width_star}) + "\n"


def _cmd_eliminate(cfg: dict) -> str:
    if cfg.get("setup", "microscopic") != "microscopic":
        raise ConfigError("'eliminate' validates the microscopic setup only")
    _check_keys(cfg, {"setup", "ensemble", "kappa", "window", "output"}, "eliminate")
    ens = _load_ensemble(cfg)
    kappa = _positive(cfg, "kappa", default=ELIMINATE_DEFAULT_KAPPA)
    w_min, w_max, points = _range(cfg, "window", default=ELIMINATE_DEFAULT_WINDOW)
    cc = collective_couplings(ens)
    error = elimination_error(ens, kappa, kappa, np.linspace(w_min, w_max, points))
    doc = {
        "s_o": cc.s_o,
        "s_mu": cc.s_mu,
        "mode_mismatch": cc.mode_mismatch,
        "stark_a": cc.stark_a,
        "stark_c": cc.stark_c,
        "max_eta_error": error,
        "omega_window": [w_min, w_max, points],
    }
    return json_text(doc) + "\n"


def _cmd_timedomain(cfg: dict) -> str:
    """The JSON cross-check; the trace CSV, when asked for, is written here first."""
    net, in_port, out_port = _build_single_network(cfg, "timedomain", {"omega", "amplitude", "trace_output"})
    omega = _number(cfg, "omega", required=True)
    amplitude = _number(cfg, "amplitude", default=1.0)
    trace_target = cfg.get("trace_output")
    if trace_target is not None and (not isinstance(trace_target, str) or trace_target == "-"):
        raise ConfigError("field 'trace_output' must be a file path")
    reference = transmission(net, omega, in_port, out_port)
    ratio, result = steady_state_response(net, omega, in_port, out_port, amplitude=amplitude)
    doc = {
        "omega": omega,
        "ratio_re": ratio.real,
        "ratio_im": ratio.imag,
        "freq_domain_re": reference.real,
        "freq_domain_im": reference.imag,
        "abs_error": 0.0 if amplitude == 0.0 else abs(ratio - reference),
    }
    if amplitude == 0.0:
        doc["note"] = "ZeroDrive"
    if trace_target is not None:
        _write_text(trace_target, trace_csv_text(net, result))
    return json_text(doc) + "\n"


def _run(command, args):
    """The shell of every config command: load the config, write ``command(cfg)`` to its output."""
    cfg = _load_config(args)
    _write_text(cfg.get("output", "-"), command(cfg))


# Each config command: name -> (config -> text, help, the flags it reads).
_COMMANDS = {
    "sweep": (_cmd_sweep, "efficiency vs frequency (CSV omega,eta)",
              ("--g", "--kappa", "--delta-mu", "--omega-min", "--omega-max", "--omega-points", "--out")),
    "bandwidth": (_cmd_bandwidth, "above-threshold intervals (JSON report)",
                  ("--g", "--kappa", "--delta-mu", "--threshold", "--omega-min", "--omega-max", "--out")),
    "map": (_cmd_map, "efficiency map over kappa and omega (CSV kappa,omega,eta)",
            ("--g", "--delta-mu", "--omega-min", "--omega-max", "--omega-points", "--out")),
    "optimize": (_cmd_optimize, "bandwidth-maximizing kappa (JSON report)",
                 ("--g", "--delta-mu", "--threshold", "--omega-min", "--omega-max", "--out")),
    "eliminate": (_cmd_eliminate, "validate the microscopic-to-effective reduction (JSON)",
                  ("--kappa", "--omega-min", "--omega-max", "--omega-points", "--out")),
    "timedomain": (_cmd_timedomain, "time-domain cross-check of one S element (JSON)",
                   ("--g", "--kappa", "--delta-mu", "--omega", "--amplitude", "--trace-out", "--out")),
}


# ---------------------------------------------------------------- presets

# The g = 1 converter families of the fig3/fig4 bundles, by interior detuning.
_FAMILIES = {
    0: {"setup": "resonant", "g": 1.0},
    1: {"setup": "detuned", "g": 1.0, "delta_mu": 1.0},
    3: {"setup": "detuned", "g": 1.0, "delta_mu": 3.0},
    10: {"setup": "detuned", "g": 1.0, "delta_mu": 10.0},
}
_FIG2_WINDOW = {"min": -3.0, "max": 3.0, "points": 601}

# Each bundle file is what its command writes for a fixed config: (file, command, config).
_PRESETS = {
    "fig2": (
        ("fig2_resonant_sweep.csv", "sweep",
         {"setup": "resonant", "g": 1.0, "kappa": 2.6, "window": _FIG2_WINDOW}),
        ("fig2_detuned_sweep.csv", "sweep",
         {"setup": "detuned", "g": 1.0, "delta_mu": 10.0, "kappa": 0.2, "window": _FIG2_WINDOW}),
        ("fig2_two_mode_sweep.csv", "sweep",
         {"setup": "two_mode", "g": 0.1, "kappa": 0.2, "window": _FIG2_WINDOW}),
        ("fig2_resonant_bandwidth.json", "bandwidth",
         {"setup": "resonant", "g": 1.0, "kappa": 2.6, "threshold": 0.999,
          "window": {"min": -3.0, "max": 3.0}}),
    ),
    "fig3": tuple(
        (f"fig3_map_dmu{delta_mu}.csv", "map",
         {**_FAMILIES[delta_mu], "kappa_range": {"min": 0.1, "max": 5.0, "points": 99},
          "window": {"min": -3.0, "max": w_max, "points": points}})
        for delta_mu, w_max, points in ((0, 3.0, 241), (1, 5.0, 321), (3, 7.0, 401), (10, 12.0, 601))
    ),
    "fig4": tuple(
        (f"fig4_optimize_dmu{delta_mu}.json", "optimize",
         {**family, "threshold": 0.99, "kappa_range": {"min": 0.1, "max": 8.0}})
        for delta_mu, family in _FAMILIES.items()
    ),
}


def _cmd_reproduce(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, command, cfg in _PRESETS[args.preset]:
        _write_text(out_dir / name, _COMMANDS[command][0](cfg))


# ---------------------------------------------------------------- entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="modeconv",
        description="Frequency-domain coupled-mode converter simulator",
    )
    subparsers = parser.add_subparsers(dest="command")
    for name, (handler, extra, flags) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=extra)
        sub.add_argument("config", nargs="?", default=None, help="JSON config path, or - for stdin")
        for flag in flags:
            field, kind, text = FLAGS[flag]
            sub.add_argument(flag, dest=field, type=kind, help=text)
        sub.set_defaults(handler=partial(_run, handler))

    repro = subparsers.add_parser("reproduce", help="emit a named reference data bundle")
    repro.add_argument("--preset", required=True, choices=sorted(_PRESETS))
    repro.add_argument("--out-dir", dest="out_dir", default=".", help="directory for the bundle")
    repro.set_defaults(handler=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except (SingularAtFrequencyError, NonConvergentError, StepTooLargeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except ModeconvError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
