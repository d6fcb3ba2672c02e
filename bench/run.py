"""Benchmark of the modeconv package: three workloads, oracle-checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is ``optimize_families``, ``ensemble_scaling``, ``cli_bundles`` or
``all`` (each workload in turn, in its own process).  With ``--trace 0`` the
run times passes over the seed-drawn operations for about S seconds and
reports the end-to-end metrics; with ``--trace 1`` it makes one untraced and
one traced pass and reports the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json`` at the root of the checkout.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A full report goes to ``.bench_work/reports/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

import env


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _outputs_agree(passes) -> list[str]:
    """Every pass must give the first pass's output for each operation."""
    failures = []
    first = {}
    for records in passes:
        for r in records:
            if r.error is None:
                if r.op not in first:
                    first[r.op] = r.output
                elif r.output != first[r.op]:
                    failures.append(f"op {r.op}: output differs between passes")
    return failures


def _first_outputs(records) -> dict:
    return {r.op: r.output for r in records if r.error is None}


# Set-up probes per ``--seconds`` of run.  Set-up time drifts with the machine
# over a few seconds, so the probes are spread over the run, between
# operations, rather than taken back to back.
SETUP_PROBES = 9


def timed_run(wl, seconds: float):
    wl.warm_up()
    setup = []
    passes = []
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start

    def probe():
        nonlocal next_probe
        if time.perf_counter() >= next_probe:
            setup.append(wl.measure_setup())
            next_probe = time.perf_counter() + seconds / SETUP_PROBES

    # The first pass is whole, so every operation is timed at least once; later
    # passes stop at the deadline, part-way if need be.
    while not passes or time.perf_counter() < deadline:
        passes.append(wl.run_pass(between=probe, deadline=deadline if passes else None)[1])
    peak = wl.peak_rss_mb()
    records = [r for recs in passes for r in recs]
    failures = _outputs_agree(passes)
    gate_failures, info = wl.gate(_first_outputs(passes[0]))
    # Each operation's median across passes.  The median over operations of
    # these is steadier than a median of the pooled times, which would flip
    # between the two middle operations' times; their sum is the time of one
    # pass, whether or not the last pass ran to its end.
    per_op = [median(r.seconds for r in records if r.op == i) for i in range(len(wl.ops))]
    samples = {
        "setup_s": (median(setup), len(setup)),
        "peak_rss_mb": (peak, 1),
        "pass_s": (sum(per_op), len(records)),
        "op_p50_s": (median(per_op), len(records)),
    }
    named = wl.named_metrics(samples, records)
    named["error_rate"] = (sum(r.error is not None for r in records) / len(records), len(records))
    return samples, named, records, failures + gate_failures, info, None


def traced_run(wl):
    import tracing

    wl.warm_up()
    wall_plain, plain = wl.run_pass()
    tracer = tracing.Tracer()
    with tracer:
        wall_traced, traced = wl.run_pass(tracer)
    failures = _outputs_agree([plain, traced])
    gate_failures, info = wl.gate(_first_outputs(plain))
    extra = wl.traced_extra()
    extra["trace.overhead_s"] = wall_traced - wall_plain
    metrics = tracing.layer_metrics(tracer.spans, extra)
    samples = {name: (value, 1) for name, value in metrics.items()}
    records = plain + traced
    named = {"error_rate": (sum(r.error is not None for r in records) / len(records), len(records))}
    info["wall_untraced_s"] = wall_plain
    info["wall_traced_s"] = wall_traced
    return samples, named, records, failures + gate_failures, info, tracer.spans


def run_one(args, spec) -> int:
    import numpy

    import inputs
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        choices = ", ".join([*workloads.WORKLOADS, "all"])
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {choices}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        samples, named, records, failures, info, spans = traced_run(wl)
        listed = spec["per_layer"]
    else:
        samples, named, records, failures, info, spans = timed_run(wl, args.seconds)
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in samples]
    if missing:
        raise KeyError(f"benchmark computed no value for {missing}")
    failed = sum(r.error is not None for r in records)
    header = {
        "workload": wl.name,
        "seed": args.seed,
        "claim_seed": inputs.CLAIM_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": env.git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": env.NPROC,
        "blas_thread_cap": {name: os.environ[name] for name in env.THREAD_VARS},
        "samples": {name: n for name, (_, n) in {**samples, **named}.items()},
    }
    result = {
        "correct": not failures and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": samples[m["name"]][0], "unit": m["unit"]} for m in listed},
    }
    reports = env.WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "header": header,
        "result": result,
        "named": {name: value for name, (value, _) in named.items()},
        "failures": failures,
        "info": info,
        "ops": [
            {"op": r.op, "group": wl.groups[r.op], "seconds": r.seconds, "error": r.error}
            for r in records
        ],
    }
    (reports / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        tracing.write_spans(reports / f"{stem}.spans.jsonl", spans)

    print("header " + json.dumps(header))
    for m in listed:
        value, n = samples[m["name"]]
        print(f"{wl.name:18s} {m['name']:34s} {value:>16.6g} {m['unit']:8s} n={n}")
    for name, (value, n) in named.items():
        print(f"{wl.name:18s} {name:34s} {value:>16.6g} {'ratio' if name == 'error_rate' else 's':8s} n={n}")
    for failure in failures:
        print(f"INCORRECT {failure}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is measured per workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=env.ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    try:
        env.use_checkout_source()
    except env.CheckoutError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
