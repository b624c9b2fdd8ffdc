#!/usr/bin/env python3
"""Run workloads over several seeds and judge each end-to-end metric
against its bound in BENCHMARK.json.

    python3 bench/sweep.py --workloads train_small recal_online --seeds 1-10 --out a.jsonl
    python3 bench/sweep.py --seeds 11-20 --out b.jsonl --against a.jsonl

For every workload and metric it prints the median over the seeds and the
spread (interquartile distance over the median). A spread passes when it
is within the metric's bound. With --against, a metric passes when this
set's median differs from the earlier set's by at most the bound, in either
direction: both sets are runs of the same code and must agree. Runs happen
one at a time; each result line is written to --out as it arrives. The exit
code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import run
import stats

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(path: Path) -> dict:
    """workload -> metric -> list of values, from a --out file."""
    values = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        row = json.loads(line)
        for name, m in row["result"]["metrics"].items():
            values[row["workload"]][name].append(m["value"])
    return values


def worse_by(new: float, old: float, better: str) -> float:
    """Share by which new is worse than old (negative when better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path, help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    failures = 0
    with open(args.out, "w") as out:
        for workload in args.workloads:
            for seed in parse_seeds(args.seeds):
                _, result = run.run_child(workload, seed, args.seconds, 0)
                if result is None:
                    raise RuntimeError(f"{workload} seed {seed} gave no result")
                failures += not result["correct"]
                out.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']}", flush=True)

    now = load(args.out)
    before = load(args.against) if args.against else None
    print(f"{'workload':14s} {'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}"
          + ("  vs-before" if before else ""))
    for workload in args.workloads:
        for m in spec["end_to_end"]:
            vals = now[workload][m["name"]]
            med = statistics.median(vals)
            sp = stats.spread(vals) if len(vals) >= 2 else 0.0
            ok = sp <= m["bound"]
            line = f"{workload:14s} {m['name']:16s} {med:12.5g} {sp:8.3f} {m['bound']:6.2f}"
            if before:
                drift = worse_by(med, statistics.median(before[workload][m["name"]]), m["better"])
                ok = ok and abs(drift) <= m["bound"]
                line += f"  {drift:+.3f}"
            failures += not ok
            print(line + ("" if ok else "  FAIL"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
