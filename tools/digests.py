#!/usr/bin/env python3
"""Print sha256 digests of ncal's deterministic outputs, one per line.

    python3 tools/digests.py                  # print the lines
    python3 tools/digests.py --write [PATH]   # print them and write PATH
    python3 tools/digests.py --check [PATH]   # compare a run against PATH

Run from any directory; the package is imported from the checkout's src/.
Two checkouts whose outputs are bitwise equal print identical lines, so a
refactor is checked by comparing the text. ``--write`` writes the lines to
PATH (by default DIGESTS.txt at the checkout's root) under a header that
stamps Python, numpy, the BLAS and the core count, which the values hold
for. ``--check`` runs the script and names every label whose line differs
from PATH's, or that one of them lacks, and exits 1 if any does. A change
that moves lines commits the file it writes, so its diff shows which.

Covered, in the order the lines print:

- synthesis bytes and attempt counts, including a configuration that
  rejects poses, one that stalls, and factory intrinsics with zero
  distortion, which are perturbed additively;
- a small fixed-seed training run: its records, final weights, Adam
  moments, checkpoint bytes and what loading them returns, with the Adam
  moments and model-only, as a deployed model is saved; then its
  evaluation figures;
- the reprojection loss and its gradient on a prediction that puts
  fiducials behind cameras;
- the parameters of a freshly built small model (drawn on one thread) and
  paper-width model (drawn on two), and the bytes of the latter's
  model-only checkpoint, large enough for the save to hash on a second
  thread;
- the forward and gradients of a paper-width encoder in float64 and in
  float32;
- training steps of a d_model 64 x 2 model with random non-zero heads
  (``random_heads_model``), each digested as its prediction, loss parts and
  parameter gradients (``step_digest``): both phases in float64;
- the gradients of the three loss terms at the ground truth and next to it,
  where arccos is steepest, and the reference calibration of every built-in
  rig;
- two float32 steps of that model: one at a batch whose pullback runs
  in two halves, one on each core, and a phase-2 step whose reprojection
  backward builds its Jacobian in several blocks, with one camera that sees
  every fiducial behind it;
- two Adam steps of a model large enough that the update runs in two
  parts, one on each core: the parameters and both moments;
- last, the deployed path at the paper's width, with heads near zero: the
  prediction of a batch, of one capture alone, and that capture's drift
  distances.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ncal import losses, scene, training  # noqa: E402
from ncal.errors import SynthesisStalled  # noqa: E402
from ncal.nn import checkpoint, optim  # noqa: E402
from ncal.nn import model as model_module  # noqa: E402
from ncal.nn.model import PtModel, PtModelConfig  # noqa: E402
from ncal.scene import PerturbationSpec, PoseRanges, SceneConfig  # noqa: E402


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else str(p).encode())
    return h.hexdigest()


def arrays_digest(arrays: dict) -> str:
    return digest(*(x for k in sorted(arrays) for x in (k, np.ascontiguousarray(arrays[k]))))


def loaded_digest(path) -> str:
    """What load_checkpoint returns: the model's state arrays, the Adam
    moments and step, and the extra dict."""
    model, opt, extra = checkpoint.load_checkpoint(path)
    parts = ["no optimizer"] if opt is None else [arrays_digest(opt.m), arrays_digest(opt.v),
                                                  opt.step]
    return digest(arrays_digest(model.state_arrays()), *parts, json.dumps(extra, sort_keys=True))


def config(rig: str, obj: str, kappa: float, **kw) -> SceneConfig:
    r, oem = scene.make_rig(rig)
    return SceneConfig(r, oem, scene.make_object(obj),
                       perturbation=PerturbationSpec(kappa, kappa), **kw)


def synthesis_lines():
    # No built-in rig has a zero distortion coefficient, so this OEM is the
    # only case that perturbs by delta * ZERO_DISTORTION_SCALE.
    o6 = config("O-6", "cube8", 0.05)
    pinhole = scene.OEMCalibration(np.where(np.arange(9) < 4, o6.oem.intrinsics, 0.0))
    cases = [
        ("O-10/cube27 kappa 0", config("O-10", "cube27", 0.0), 512, 3),
        ("O-10/cube27 kappa 0.05", config("O-10", "cube27", 0.05), 512, 3),
        ("O-6/cube8 radius 0.7 kappa 0.2", config("O-6", "cube8", 0.2, radius=0.7), 48, 7),
        # A seed of four 32-bit words, so SeedSequence mixes entropy past its
        # pool of four.
        ("O-6/cube8 radius 0.7 kappa 0.2", config("O-6", "cube8", 0.2, radius=0.7), 48,
         2**100 + 11),
        ("O-6/cube8 zero distortion kappa 0.05", replace(o6, oem=pinhole), 64, 5),
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
        yield "checkpoint load", loaded_digest(path)
        checkpoint.save_checkpoint(path, model)
        yield "checkpoint bytes model-only", digest(
            np.frombuffer(path.read_bytes(), dtype=np.uint8))
        yield "checkpoint load model-only", loaded_digest(path)
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
    loss, backward = losses.loss_reproj(pred, b.observations, cfg.obj.fiducials,
                                        cfg.rig.image_size)
    value = float(loss)
    yield f"loss_reproj behind cameras value={value!r}", digest(value, backward(np.ones(())))


def construction_lines():
    # The Glorot draws and the reference of a small model, few enough draws
    # that the calling thread makes them all.
    cfg = config("O-6", "cube8", 0.0)
    mcfg = PtModelConfig(cfg.n_cameras, cfg.n_fiducials, d_model=64, n_layers=2,
                         n_heads=4, d_ff=128)
    ref = scene.reference_params(cfg.rig, cfg.oem, cfg.radius)
    model = PtModel(mcfg, ref, cfg.rig.image_size, cfg.radius, seed=1)
    yield (f"model init O-6/cube8 d_model {mcfg.d_model} seed 1",
           arrays_digest(model.state_arrays()))
    # The same at the paper's architecture (the PtModelConfig defaults),
    # enough draws that a second thread makes part of them.
    cfg = config("O-10", "cube27", 0.0)
    mcfg = PtModelConfig(cfg.n_cameras, cfg.n_fiducials)
    ref = scene.reference_params(cfg.rig, cfg.oem, cfg.radius)
    model = PtModel(mcfg, ref, cfg.rig.image_size, cfg.radius, seed=1)
    yield (f"model init O-10/cube27 d_model {mcfg.d_model} seed 1",
           arrays_digest(model.state_arrays()))
    # Its 67.6 MB model-only file, large enough that the save hashes on a
    # second thread while it writes.
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "paper.ckpt"
        checkpoint.save_checkpoint(path, model)
        yield "checkpoint bytes paper width model-only", digest(
            np.frombuffer(path.read_bytes(), dtype=np.uint8))


def encoder_lines():
    # The paper's encoder width with random weights, gains and biases: the
    # forward of encode and the gradients of every block parameter and of
    # the input under a fixed upstream gradient.
    cfg = config("O-10", "cube27", 0.0)
    mcfg = PtModelConfig(cfg.n_cameras, cfg.n_fiducials, d_model=512, n_heads=8, d_ff=1024)
    ref = scene.reference_params(cfg.rig, cfg.oem, cfg.radius)
    model = PtModel(mcfg, ref, cfg.rig.image_size, cfg.radius, seed=3)
    rng = np.random.default_rng(4)
    layers = sorted(k for k in model.params if k.startswith("layer"))
    for k in layers:
        t = model.params[k]
        t.data = rng.normal(size=t.data.shape) * (0.04 if t.data.ndim == 2 else 0.2)
        if k.endswith(("ln1_g", "ln2_g")):
            t.data += 1.0
    x = rng.normal(size=(4, cfg.n_cameras, 512))
    halves = model._halves(len(x))
    stages = []
    out = model.encode(x, stages)
    g = rng.normal(size=out.shape)
    gx, grads = model_module._backward(stages, g, halves, np.float64)
    yield "encoder paper width", digest(out, gx, *(grads[k] for k in layers))
    # The same encoder on the same input cast to float32, the precision
    # train() runs it in, under g cast to float32; the gradients come back
    # in float64.
    out = model.encode(x.astype(np.float32), stages)
    gx, grads = model_module._backward(stages, g.astype(np.float32), halves, np.float32)
    yield "encoder paper width float32", digest(out, gx, *(grads[k] for k in layers))


def with_random_heads(model, scale, seed) -> PtModel:
    """model, its heads set to scale * N(0, 1) from seed's generator."""
    rng = np.random.default_rng(seed)
    for k, t in model.params.items():
        if k.startswith("head_"):
            t.data = scale * rng.standard_normal(t.data.shape)
    return model


def random_heads_model(cfg, ref, scale, seed) -> PtModel:
    """A d_model 64 x 2 model on cfg's rig and the reference ref, built from
    seed 6, whose heads are scale * N(0, 1) from seed's generator: non-zero,
    so that the affine map, Gram-Schmidt and the reference rotation product
    all carry gradient."""
    mcfg = PtModelConfig(cfg.n_cameras, cfg.n_fiducials, d_model=64, n_layers=2,
                         n_heads=4, d_ff=128)
    return with_random_heads(PtModel(mcfg, ref, cfg.rig.image_size, cfg.radius, seed=6),
                             scale, seed)


def step_digest(model, cfg, batch, phase, dtype=np.float64) -> str:
    """The digest of one training step on batch: the prediction with the
    embedding and encoder in dtype, the compound loss of phase, its parts,
    and every parameter gradient in parameter order, which must be finite."""
    pred = model.forward(batch.observations, dtype)
    total, parts, grad = losses.compound_loss(pred.data, batch.gt_params, batch.observations,
                                              cfg.obj.fiducials, cfg.rig.image_size, phase)
    grads = pred.backward(grad)
    if not all(np.isfinite(g).all() for g in grads.values()):
        raise SystemExit(f"a phase {phase} step's gradients are not finite")
    return digest(pred.data, np.asarray(total), json.dumps(parts, sort_keys=True),
                  *(grads[k] for k in model.params))


def heads_lines():
    cfg = config("O-10", "cube27", 0.05)
    model = random_heads_model(cfg, scene.reference_params(cfg.rig, cfg.oem, cfg.radius),
                               0.05, 7)
    b = scene.synthesize_batch(cfg, 32, 8)
    for phase in (1, 2):
        yield (f"heads and loss gradients O-10/cube27 phase {phase}",
               step_digest(model, cfg, b, phase))


def split_lines():
    # A batch above the pullback's gate, so that every stage's backward runs
    # in two row halves, one on each core, joined per stage; the encoder in
    # float32, as train() runs it.
    cfg = config("O-10", "cube27", 0.05)
    model = random_heads_model(cfg, scene.reference_params(cfg.rig, cfg.oem, cfg.radius),
                               0.05, 7)
    batch = 1639
    if model._halves(batch) is None:
        raise SystemExit(f"batch {batch} is below the pullback's gate")
    b = scene.synthesize_batch(cfg, batch, 8)
    yield (f"split pullback O-10/cube27 batch {batch} float32 phase 1",
           step_digest(model, cfg, b, 1, np.float32))


def blocked_jacobian_lines():
    # A float32 phase-2 step at O-10/cube27, 40 captures: at 1 MiB of
    # Jacobian per block (11 captures of 10 cameras x 27 fiducials) the
    # reprojection backward runs three whole blocks and a partial one. The
    # model's reference turns camera 1 around, so it sees every fiducial
    # behind it in every capture. Heads at 1e-3, as a deployed model starts
    # near its reference, keep the phase-2 gradient inside float32's range.
    cfg = config("O-10", "cube27", 0.05)
    ref = scene.reference_params(cfg.rig, cfg.oem, cfg.radius)
    flip = np.diag([1.0, -1.0, -1.0])
    ref[1, :9] = (flip @ ref[1, :9].reshape(3, 3)).reshape(9)
    ref[1, 9:12] = flip @ ref[1, 9:12]
    model = random_heads_model(cfg, ref, 1e-3, 9)
    batch = 40
    b = scene.synthesize_batch(cfg, batch, 10)
    yield (f"blocked jacobian O-10/cube27 batch {batch} float32 phase 2",
           step_digest(model, cfg, b, 2, np.float32))


def split_adam_lines():
    # Two steps by fixed random gradients at d_model 128 x 2, d_ff 256 on
    # O-10/cube27: 274,066 values, above the gate from which adam_step
    # updates them in two parts, one on each core.
    cfg = config("O-10", "cube27", 0.0)
    mcfg = PtModelConfig(cfg.n_cameras, cfg.n_fiducials, d_model=128, n_layers=2,
                         n_heads=4, d_ff=256)
    model = PtModel(mcfg, scene.reference_params(cfg.rig, cfg.oem, cfg.radius),
                    cfg.rig.image_size, cfg.radius, seed=1)
    params = {k: t.data for k, t in model.params.items()}
    values = sum(a.size for a in params.values())
    if values < optim._SPLIT_MIN_VALUES:
        raise SystemExit(f"{values} values are below adam_step's gate")
    rng = np.random.default_rng(12)
    state = optim.AdamState()
    for _ in range(2):
        grads = {k: rng.standard_normal(a.shape) for k, a in params.items()}
        optim.adam_step(params, grads, state, training.LEARNING_RATES, model.param_group,
                        lr_min=training.LR_MIN)
    yield (f"split adam O-10/cube27 d_model 128 values {values} two steps",
           digest(arrays_digest(params), arrays_digest(state.m), arrays_digest(state.v)))


def deployed_lines():
    # The deployed recalibrator: a paper-width model whose heads are 1e-3 *
    # N(0, 1), as a model starts near its reference, predicts a batch, then
    # the batch's first capture alone, then that capture's drift distances
    # from the model's reference.
    cfg = config("O-10", "cube27", 0.05)
    mcfg = PtModelConfig(cfg.n_cameras, cfg.n_fiducials)
    model = with_random_heads(PtModel(mcfg, scene.reference_params(cfg.rig, cfg.oem, cfg.radius),
                                      cfg.rig.image_size, cfg.radius, seed=1), 1e-3, 13)
    batch = scene.synthesize_batch(cfg, 32, 14).observations
    flags = training.detect_decalibration(model, batch[0], model.reference_params, 1.0)
    yield (f"deployed predict O-10/cube27 d_model {mcfg.d_model} batch 32, one capture and "
           "its drift distances",
           digest(model.predict(batch), model.predict(batch[0]), flags["distances"]))


def ground_truth_lines():
    # At pred = gt the parameter and reprojection residuals are exactly zero;
    # scaling the rotations by 1 - 4 eps puts (trace - 1) / 2 a few ULP
    # below 1, where the arccos gradient is largest.
    cfg = config("O-6", "cube8", 0.05)
    b = scene.synthesize_batch(cfg, 8, 9)
    nudged = b.gt_params.copy()
    nudged[..., :9] *= 1.0 - 4.0 * np.finfo(float).eps
    for name, pred in (("", b.gt_params), (" rotations scaled by 1 - 4 eps", nudged)):
        parts = []
        for value, backward in (losses.loss_diff(pred, b.gt_params),
                                losses.loss_geo(pred, b.gt_params),
                                losses.loss_reproj(pred, b.observations, cfg.obj.fiducials,
                                                   cfg.rig.image_size)):
            parts += [np.asarray(value), backward(np.ones(()))]
        yield f"losses at ground truth{name}", digest(*parts)


def reference_lines():
    for kind in ("O-10", "O-6", "U-7", "T-4"):
        rig, oem = scene.make_rig(kind)
        yield f"reference_params {kind}", digest(scene.reference_params(rig, oem))


SECTIONS = (synthesis_lines, training_lines, penalty_lines, construction_lines, encoder_lines,
            heads_lines, ground_truth_lines, reference_lines, split_lines,
            blocked_jacobian_lines, split_adam_lines, deployed_lines)


def lines() -> list:
    """Every digest line, "<sha256> <label>", in the order they print."""
    return [f"{h} {label}" for section in SECTIONS for label, h in section()]


def stamp() -> list:
    """The header of a written file: what the values were computed on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        "# sha256 and label of each tools/digests.py line; compare with --check",
        f"# python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}, nproc {len(os.sched_getaffinity(0))}",
    ]


def key(line: str) -> str:
    """A line's label less a trailing "=value", a figure its check computed,
    so that a moved figure names the label it moved under."""
    return re.sub(r"=[-+.\w]+$", "", line.split(" ", 1)[1])


def moved(expected: list, got: list) -> list:
    """The keys of the lines that differ between two lists of digest lines,
    or that only one of them has, in the order they first appear."""
    want = {key(line): line for line in expected}
    have = {key(line): line for line in got}
    return [k for k in dict.fromkeys([*have, *want]) if want.get(k) != have.get(k)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    default = ROOT / "DIGESTS.txt"
    mode.add_argument("--write", nargs="?", const=default, type=Path, metavar="PATH",
                      help=f"also write the lines to PATH (default {default.name})")
    mode.add_argument("--check", nargs="?", const=default, type=Path, metavar="PATH",
                      help=f"name the lines that differ from PATH's (default {default.name})")
    args = parser.parse_args(argv)
    if args.check is not None:
        expected = [line for line in args.check.read_text().splitlines()
                    if line and not line.startswith("#")]
        changed = moved(expected, lines())
        for k in changed:
            print(f"moved: {k}")
        print(f"{len(changed)} of {len(expected)} lines moved against {args.check}")
        return 1 if changed else 0
    out = lines()
    print("\n".join(out))
    if args.write is not None:
        args.write.write_text("\n".join(stamp() + out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
