"""Smoke test of tools/step_probe.py, the per-epoch time and fault probe."""

import dataclasses
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "step_probe.py"


def test_one_line_per_epoch_then_phase2_medians():
    spec = importlib.util.spec_from_file_location("step_probe", SCRIPT)
    step_probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step_probe)
    lines = []
    shape = dataclasses.replace(step_probe.SMALL, rig="T-4", d_model=16, n_layers=1, n_heads=2,
                                d_ff=32, batch=8)
    result = step_probe.probe(shape, epochs=4, out=lines.append)
    assert step_probe.PAPER_PHASE1 == 2
    assert [r[0] for r in result["epochs"]] == [0, 1, 2, 3]
    assert all(s > 0 and faults >= 0 and rss > 0 for _, s, faults, rss in result["epochs"])
    assert result["steady_s"] == (result["epochs"][2][1] + result["epochs"][3][1]) / 2
    assert len(lines) == 5
    assert lines[1].startswith("epoch 1 phase 1: ") and lines[2].startswith("epoch 2 phase 2: ")
    assert lines[4].startswith("median of 2 phase-2 epochs: ")
