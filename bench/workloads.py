"""The three workloads: seeded operations, one closed-loop pass, gates, set-up probe.

Each workload is one caller in a closed loop: the next operation starts when
the previous one ends.  A pass runs every operation of the seed-drawn list
once, in order; a timed run repeats passes (see ``run.py``), a traced run makes
one untraced and one traced pass.

* ``optimize_families`` calls ``optimize_kappa`` in process.  It stresses
  ``analysis`` (thousands of tiny 3-mode grids, scan plus refinement) and the
  per-call overhead of ``scattering``/``linalg``; it bypasses ``formatting``
  and large-n elimination.
* ``ensemble_scaling`` calls ``elimination_error`` and ``collective_couplings``
  in process on 34- and 130-mode networks.  The O(n^3)-per-frequency
  elimination dominates, in a few large stacks; it bypasses ``analysis`` and
  ``formatting``.
* ``cli_bundles`` runs CLI commands as subprocesses, so each pays interpreter
  start and import.  It is where ``formatting``, ``cli``, ``timedomain`` and
  start-up show; it bypasses the optimizer's refinement loop.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

import env
import inputs
import modeconv
import oracles
import tracing


@dataclass
class OpRecord:
    op: int
    seconds: float
    output: object  # None when the operation failed
    error: str | None


class Workload:
    """Base: subclasses define ``ops``, ``groups``, ``run_op`` and ``gate``."""

    name = ""
    setup_snippet = ""
    # The names the workload's metrics go by in performance claims: an alias of
    # a generic metric, or the median time of one group of operations.
    aliases: dict[str, str] = {}
    group_medians: dict[str, str] = {}

    def __init__(self):
        self.ops: list = []
        self.groups: list[str] = []

    def run_op(self, i: int, tracer=None):
        raise NotImplementedError

    def warm_up(self) -> None:
        """Finish lazy set-up (imports, first allocations) before timing."""

    def gate(self, outputs: dict) -> tuple[list[str], dict]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_pass(self, tracer=None, between=None, deadline=None) -> tuple[float, list[OpRecord]]:
        """One pass; returns its wall time and a record per operation.

        ``between`` is called before each operation, outside its timing.  A
        pass given a ``deadline`` (a ``time.perf_counter`` value) starts no
        operation after it, so it may end part-way.
        """
        records = []
        start = time.perf_counter()
        for i in range(len(self.ops)):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if between is not None:
                between()
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                output, error = self.run_op(i, tracer), None
            except Exception as exc:  # a failed operation is counted, and the loop goes on
                output, error = None, f"{type(exc).__name__}: {exc}"
            records.append(OpRecord(i, time.perf_counter() - t0, output, error))
        return time.perf_counter() - start, records

    def named_metrics(self, samples: dict, records: list[OpRecord]) -> dict:
        named = {alias: samples[generic] for alias, generic in self.aliases.items()}
        for alias, group in self.group_medians.items():
            times = [r.seconds for r in records if self.groups[r.op] == group]
            named[alias] = (median(times), len(times))
        return named

    def traced_extra(self) -> dict:
        """Per-layer metrics the spans cannot give (filled by a traced pass)."""
        return {}

    def measure_setup(self) -> float:
        """Wall time of a fresh interpreter that imports modeconv and builds the first network."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.setup_snippet], cwd=env.ROOT, check=True)
        return time.perf_counter() - start


class OptimizeFamilies(Workload):
    name = "optimize_families"
    aliases = {"optimize_wall_s": "pass_s", "optimize_p50_s": "op_p50_s"}

    def __init__(self, seed: int):
        super().__init__()
        self.ops = inputs.optimize_families(seed)
        self.groups = [f"{c['kind']}_{c['theta']}" for c in self.ops]
        self.families = [oracles.family_of(c) for c in self.ops]
        first = self.ops[0]
        mid = (inputs.KAPPA_RANGE[0] + inputs.KAPPA_RANGE[1]) / 2.0
        self.setup_snippet = (
            "import modeconv as mc; "
            f"mc.ConverterFamily(kind={first['kind']!r}, g={first['g']!r}, "
            f"delta_mu={first['delta_mu']!r}).build({mid!r})"
        )
        self.dips: list[float] = []

    def run_op(self, i, tracer=None):
        return modeconv.analysis.optimize_kappa(
            self.families[i], self.ops[i]["theta"], inputs.KAPPA_RANGE
        )

    def warm_up(self):
        call = self.ops[0]
        family = self.families[0]
        modeconv.analysis.max_bandwidth(
            family.build(1.0), "a", "b", call["theta"], oracles.optimize_window(family)
        )

    def gate(self, outputs):
        failures = []
        self.dips = []
        for i, (kappa_star, width_star) in outputs.items():
            found, dip = oracles.optimum_failures(self.ops[i], kappa_star, width_star)
            failures += [f"op {i} ({self.groups[i]}): {f}" for f in found]
            self.dips.append(dip)
        return failures, {"merge_dips": self.dips}

    def traced_extra(self):
        return {"analysis.merge_dip_max": max(self.dips, default=0.0)}


class EnsembleScaling(Workload):
    name = "ensemble_scaling"
    aliases = {"ensemble_wall_s": "pass_s"}
    group_medians = {"validate_n34_s": "n34", "validate_n130_s": "n130"}
    setup_snippet = (
        "import modeconv as mc; "
        f"mc.microscopic_network(mc.default_validation_ensemble(), "
        f"{inputs.ENSEMBLE_KAPPA!r}, {inputs.ENSEMBLE_KAPPA!r})"
    )

    def __init__(self, seed: int):
        super().__init__()
        self.ops = inputs.ensemble_members(seed)
        self.ensembles = [oracles.ensemble_of(m) for m in self.ops]
        self.groups = [f"n{2 * len(e.atoms) + 2}" for e in self.ensembles]
        self.grid = np.linspace(*inputs.ENSEMBLE_GRID)

    def run_op(self, i, tracer=None):
        ens = self.ensembles[i]
        kappa = inputs.ENSEMBLE_KAPPA
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            error = modeconv.ensemble.elimination_error(ens, kappa, kappa, self.grid)
            cc = modeconv.ensemble.collective_couplings(ens)
        mismatch = sum(isinstance(w.message, modeconv.HighMismatchWarning) for w in caught)
        return error, cc, mismatch

    def warm_up(self):
        self.run_op(0)

    def gate(self, outputs):
        failures = []
        warned = []
        for i, (error, cc, mismatch) in outputs.items():
            found = oracles.ensemble_failures(self.ops[i], error, cc)
            failures += [f"op {i} ({self.ops[i]['name']}): {f}" for f in found]
            if mismatch:
                warned.append(self.ops[i]["name"])
        return failures, {"high_mismatch_warnings": warned}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliBundles(Workload):
    name = "cli_bundles"
    aliases = {"cli_wall_s": "pass_s", "cli_cmd_p50_s": "op_p50_s"}
    group_medians = {"fig3_bundle_s": "fig3"}
    setup_snippet = (
        "import modeconv.cli as cli; cli.resonant_network(cli.ResonantParams(1.0, 1.0, 2.6, 2.6))"
    )

    def __init__(self, seed: int):
        super().__init__()
        self.ops = inputs.cli_commands(seed)
        self.groups = [c["name"] for c in self.ops]
        self.work = env.WORK / self.name
        self.child_rss_mb: list[float] = []
        self.startups: list[float] = []

    def _argv(self, cmd: dict) -> tuple[list[str], list[Path]]:
        """CLI arguments for one command, and the files it writes."""
        args = list(cmd["args"])
        if cmd["args"][0] == "reproduce":
            out_dir = self.work / cmd["name"]
            return args + ["--out-dir", str(out_dir)], [out_dir]
        if cmd["config"] is not None:
            config = self.work / f"{cmd['name']}.config.json"
            config.write_text(json.dumps(cmd["config"]))
            args.append(str(config))
        out = self.work / f"{cmd['name']}.out"
        return args + ["--out", str(out)], [out]

    def outputs_of(self, targets: list[Path]) -> dict:
        files = []
        for target in targets:
            files += sorted(target.iterdir()) if target.is_dir() else [target]
        return {f.name: _sha256(f) for f in files}

    def run_op(self, i, tracer=None):
        cmd = self.ops[i]
        self.work.mkdir(parents=True, exist_ok=True)
        args, targets = self._argv(cmd)
        if tracer is None:
            argv = [sys.executable, "-m", "modeconv.cli", *args]
        else:
            spans_path = self.work / f"{cmd['name']}.spans.jsonl"
            argv = [sys.executable, str(env.BENCH_DIR / "cli_launcher.py"), str(spans_path), str(i), *args]
        stderr_path = self.work / f"{cmd['name']}.stderr"
        start = time.perf_counter()
        with open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(argv, cwd=env.ROOT, stdout=subprocess.DEVNULL, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb.append(usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            tail = stderr_path.read_text(errors="replace")[-500:]
            raise RuntimeError(f"{cmd['name']} exited {proc.returncode}: {tail}")
        if tracer is not None:
            spans = tracing.read_spans(spans_path, len(tracer.spans))
            tracer.spans.extend(spans)
            main_s = sum(s.end - s.start for s in spans if s.name == "cli.main")
            self.startups.append(wall - main_s)
        return self.outputs_of(targets)

    def peak_rss_mb(self):
        return max(self.child_rss_mb)

    def gate(self, outputs):
        failures = []
        for i, cmd in enumerate(self.ops):
            if i not in outputs:
                continue
            name = cmd["name"]
            if name == "fig2":
                found = oracles.fig2_failures(self.work / "fig2")
            elif name == "fig3":
                found = oracles.fig3_failures(self.work / "fig3")
            elif name == "sweep":
                found = oracles.sweep_failures(self.work / "sweep.out", cmd["config"])
            elif name == "bandwidth":
                found = oracles.bandwidth_failures(self.work / "bandwidth.out", cmd["config"])
            elif name == "eliminate":
                found = oracles.eliminate_failures(self.work / "eliminate.out")
            else:
                found = oracles.timedomain_failures(self.work / "timedomain.out")
            failures += [f"{name}: {f}" for f in found]
        bundles = {
            name: digest
            for i, cmd in enumerate(self.ops)
            if cmd["name"] in ("fig2", "fig3") and i in outputs
            for name, digest in outputs[i].items()
        }
        return failures, {"bundle_sha256": bundles}

    def traced_extra(self):
        return {"cli.startup_s": median(self.startups) if self.startups else 0.0}


WORKLOADS = {w.name: w for w in (OptimizeFamilies, EnsembleScaling, CliBundles)}
