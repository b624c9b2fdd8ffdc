#!/usr/bin/env python3
"""Run one ncal benchmark workload, or all of them, and print its metrics.

    python3 bench/run.py --workload train_paper --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the package is imported from ./src and the
metric lists come from ./BENCHMARK.json. Each metric is printed as
"name value unit"; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list; with --trace 1 the workload runs once
untraced and once with wrappers around every layer, and the metrics are its
per_layer list. A fuller record (machine stamp, every metric, failures, and
the spans of a traced run) is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import stamp
import stats

ROOT = Path(__file__).resolve().parent.parent
# Not read from workloads.WORKLOADS: importing that module imports numpy,
# which has to wait until the BLAS thread cap is in the environment.
WORKLOAD_NAMES = ("train_paper", "train_small", "recal_online")
CHILD_TIMEOUT_S = 900


def load_spec(path: Path) -> dict:
    spec = json.loads(path.read_text())
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not stats.valid_name(m["name"]) or not stats.valid_unit(m["unit"]):
                raise ValueError(f"bad metric name or unit in {path.name}: {m}")
    return spec


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: Path):
    import tracing
    import workloads

    tracer = tracing.Tracer() if traced else None
    installed = tracing.install(tracer) if traced else None
    run = workloads.Run(seed, seconds, workdir, tracer)
    try:
        workloads.WORKLOADS[name](run)
    finally:
        if installed is not None:
            installed.remove()
    workloads.finish(run)
    if traced:
        workloads.layer_metrics(run)
    return run


def result_line(run, wanted: list) -> dict:
    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing:
        raise KeyError(f"workload did not produce metrics {missing}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": run.metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }


def one(args, spec: dict) -> int:
    stamp.cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    machine = stamp.machine_stamp(ROOT, args.workload, args.seed)
    print("# machine " + json.dumps(machine), flush=True)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = run_workload(args.workload, args.seed, args.seconds, False, workdir)
        if args.trace:
            base = run
            run = run_workload(args.workload, args.seed, args.seconds, True, workdir)
            run.put("trace.overhead_ratio",
                    run.metrics["step_p50_ms"][0] / base.metrics["step_p50_ms"][0] - 1.0, "ratio")
            run.attempted += base.attempted
            run.failed += base.failed
            run.failures += base.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run.tracer.dump(out_dir / f"{tag}.spans.json")
    with open(out_dir / f"{tag}.json", "w") as f:
        json.dump({"machine": machine, "seconds": args.seconds, "attempted": run.attempted,
                   "failed": run.failed, "failures": run.failures,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()}},
                  f, indent=1)
    for failure in run.failures:
        print(f"# FAILED {failure}")
    for name, (value, unit) in run.metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    line = result_line(run, spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(line), flush=True)
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in its own process. Returns the lines it printed
    before its result, and the parsed result line (None when it failed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed} exited with code {proc.returncode}", file=sys.stderr)
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def every_workload(args) -> int:
    """Run each workload in its own process and merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        lines, result = run_child(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        if result is None:
            return 1
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncal" / "__init__.py").is_file():
        print(f"no ncal package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"missing {spec_path}", file=sys.stderr)
        return 2
    spec = load_spec(spec_path)
    if args.workload == "all":
        return every_workload(args)
    return one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
