#!/usr/bin/env python3
"""Print sha256 digests of ncal's deterministic outputs, one per line.

    python3 tools/digests.py

Run from any directory; the package is imported from the checkout's src/.
Two checkouts whose outputs are bitwise equal print identical lines, so a
refactor is checked by running this at both commits and comparing the text.

Covered: synthesis bytes and attempt counts (including a configuration that
rejects poses and one that stalls), the records, final weights, Adam moments
and checkpoint bytes of a small fixed-seed training run, evaluation figures,
the reprojection loss and its gradient on a prediction that puts fiducials
behind cameras, and the reference calibration of every built-in rig.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncal import losses, scene, training  # noqa: E402
from ncal.errors import SynthesisStalled  # noqa: E402
from ncal.nn import autodiff, checkpoint  # noqa: E402
from ncal.nn.model import PtModel, PtModelConfig  # noqa: E402
from ncal.scene import PerturbationSpec, PoseRanges, SceneConfig  # noqa: E402


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else str(p).encode())
    return h.hexdigest()


def arrays_digest(arrays: dict) -> str:
    return digest(*(x for k in sorted(arrays) for x in (k, np.ascontiguousarray(arrays[k]))))


def config(rig: str, obj: str, kappa: float, **kw) -> SceneConfig:
    r, oem = scene.make_rig(rig)
    return SceneConfig(r, oem, scene.make_object(obj),
                       perturbation=PerturbationSpec(kappa, kappa), **kw)


def synthesis_lines():
    cases = [
        ("O-10/cube27 kappa 0", config("O-10", "cube27", 0.0), 512, 3),
        ("O-10/cube27 kappa 0.05", config("O-10", "cube27", 0.05), 512, 3),
        ("O-6/cube8 radius 0.7 kappa 0.2", config("O-6", "cube8", 0.2, radius=0.7), 48, 7),
    ]
    for name, cfg, n, seed in cases:
        b = scene.synthesize_batch(cfg, n, seed)
        yield f"synthesis {name} n={n} seed={seed} attempts={b.attempts}", digest(
            b.gt_params, b.observations, b.attempts)
    # A fixed pose: a sample whose perturbed mounts miss the margin can never
    # be accepted, so synthesis stalls on the first such sample.
    fixed = PoseRanges(theta=(0.0, 0.0), phi=(0.0, 0.0), alpha=(0.0, 0.0))
    cfg = config("O-6", "cube8", 0.2, radius=0.7, pose_ranges=fixed)
    try:
        scene.synthesize_batch(cfg, 16, 11)
        message = "no stall"
    except SynthesisStalled as e:
        message = str(e)
    yield f"stall message: {message}", digest(message)


def training_lines():
    cfg = config("O-6", "cube8", 0.05)
    mcfg = PtModelConfig(cfg.n_cameras, cfg.n_fiducials, d_model=64, n_layers=2,
                         n_heads=4, d_ff=128)
    ref = scene.reference_params(cfg.rig, cfg.oem, cfg.radius)
    model = PtModel(mcfg, ref, cfg.rig.image_size, cfg.radius, seed=1)
    run = training.TrainConfig(epochs=30, phase1_epochs=20, batch_size=32, seed=1)
    result = training.train(model, cfg, run)
    yield "train records", digest(json.dumps(result.records, sort_keys=True))
    yield "train weights", arrays_digest(model.state_arrays())
    yield "train adam m", arrays_digest(result.optimizer.m)
    yield "train adam v", arrays_digest(result.optimizer.v)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.ckpt"
        checkpoint.save_checkpoint(path, model, result.optimizer)
        yield "checkpoint bytes", digest(np.frombuffer(path.read_bytes(), dtype=np.uint8))
    rep = training.evaluate(model, cfg, n_samples=64, trials=3, seed=2)
    yield f"evaluate re_avg={rep.re_avg!r}", digest(rep.re_avg, rep.re_std,
                                                    np.asarray(rep.per_camera))


def penalty_lines():
    # Camera 0 of sample 0 sits at the cube's center, so half the fiducials
    # are behind it; camera 1 is turned 180 degrees about its x axis and sees
    # none of them.
    cfg = config("O-6", "cube8", 0.05)
    b = scene.synthesize_batch(cfg, 8, 5)
    pred = b.gt_params.copy()
    pred[..., 12:16] *= 1.01
    c, s = np.cos(0.1), np.sin(0.1)
    pred[0, 0, :9] = [1.0, 0.0, 0.0, 0.0, c, -s, 0.0, s, c]
    pred[0, 0, 9:12] = 0.0
    pred[0, 1, 3:9] *= -1.0
    pred[0, 1, 10:12] *= -1.0
    t = autodiff.parameter(pred)
    loss = losses.loss_reproj(t, b.observations, cfg.obj.fiducials, cfg.rig.image_size)
    loss.backward()
    value = float(loss.data)
    yield f"loss_reproj behind cameras value={value!r}", digest(value, t.grad)


def reference_lines():
    for kind in ("O-10", "O-6", "U-7", "T-4"):
        rig, oem = scene.make_rig(kind)
        yield f"reference_params {kind}", digest(scene.reference_params(rig, oem))


def main() -> None:
    for lines in (synthesis_lines, training_lines, penalty_lines, reference_lines):
        for label, h in lines():
            print(h, label)


if __name__ == "__main__":
    main()
