#!/usr/bin/env python3
"""Per-epoch wall time, minor page faults and peak RSS of a training run.

    python3 tools/step_probe.py              # the train_paper shape
    python3 tools/step_probe.py --small      # the train_small shape
    python3 tools/step_probe.py --epochs 5

The shapes, scene and model are the benchmark's own (bench/workloads.py's
PAPER, SMALL and build), with seed 1 and train_paper's PAPER_PHASE1
phase-1 epochs.

One line per epoch, read in train()'s epoch_callback: the wall seconds
since the previous callback (the first epoch's since train() was called),
the minor page faults the process took in that time (getrusage's
ru_minflt, all threads) and its peak RSS so far (ru_maxrss). Then the
medians of the seconds and of the faults over the phase-2 epochs, the
steady ones. The probe reads only its own process's counters and sets no
allocator or BLAS variable, so it measures the environment it starts in.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from ncal import training  # noqa: E402
from workloads import PAPER, PAPER_PHASE1, SMALL, build  # noqa: E402

SEED = 1


def probe(spec, epochs: int, out=print) -> dict:
    """Train build(spec, SEED)'s fresh model for `epochs` epochs, the first
    PAPER_PHASE1 of them in phase 1, printing one line per epoch through
    `out`, then the phase-2 medians. Returns {"epochs": [(epoch, seconds,
    minor faults, ru_maxrss in MB)], "steady_s": median seconds,
    "steady_faults": median faults}, the medians over the phase-2 epochs."""
    sc, model = build(spec, SEED)
    cfg = training.TrainConfig(epochs=epochs, phase1_epochs=PAPER_PHASE1,
                               batch_size=spec.batch, seed=SEED)
    rows = []

    def usage():
        r = resource.getrusage(resource.RUSAGE_SELF)
        return time.perf_counter(), r.ru_minflt, r.ru_maxrss / 1024.0

    def callback(epoch, _record, _model, _optimizer, _scheduler):
        nonlocal last
        now, faults, maxrss = usage()
        rows.append((epoch, now - last[0], faults - last[1], maxrss))
        out(f"epoch {epoch} phase {1 if epoch < PAPER_PHASE1 else 2}: {rows[-1][1]:.4f} s, "
            f"{rows[-1][2]} minor faults, ru_maxrss {maxrss:.1f} MB")
        last = usage()

    last = usage()
    training.train(model, sc, cfg, epoch_callback=callback)
    steady = rows[PAPER_PHASE1:]
    result = {"epochs": rows,
              "steady_s": statistics.median(r[1] for r in steady) if steady else None,
              "steady_faults": statistics.median(r[2] for r in steady) if steady else None}
    if steady:
        out(f"median of {len(steady)} phase-2 epochs: {result['steady_s']:.4f} s, "
            f"{result['steady_faults']:g} minor faults; ru_maxrss {rows[-1][3]:.1f} MB")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true", help="the train_small shape")
    parser.add_argument("--epochs", type=int, default=8, help="epochs in all (default 8)")
    args = parser.parse_args(argv)
    probe(SMALL if args.small else PAPER, args.epochs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
