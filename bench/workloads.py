"""The three benchmark workloads, each a closed loop driven from one process.

Every workload takes its inputs from the workload seed, uses a non-zero
perturbation (kappa_int = kappa_ext = 0.05), checks the package's outputs,
and counts each operation it attempts and each that fails or whose check
fails. Timings come from time.perf_counter around public ncal calls; the
epoch time of a training run is taken in train()'s public epoch_callback.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import stats
import tracing
from ncal import geometry, scene, training
from ncal.errors import NcalError
from ncal.nn import checkpoint
from ncal.nn.model import PtModel, PtModelConfig
from ncal.scene import PerturbationSpec, SceneConfig

KAPPA = 0.05


@dataclass(frozen=True)
class Spec:
    """Rig, calibration object, architecture and batch of one workload."""

    rig: str
    obj: str
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    batch: int


PAPER = Spec("O-10", "cube27", 512, 4, 8, 1024, 512)
SMALL = Spec("O-6", "cube8", 64, 2, 4, 128, 64)

# train_paper: epochs 0-1 are phase 1 and warm-up (they first-touch the
# activation memory); later epochs are phase 2 and timed.
PAPER_PHASE1 = 2
PAPER_MIN_EPOCHS = 5
PAPER_EPOCH_CAP = 10_000
PAPER_SETUPS_PER_EPOCH = 3  # set-ups timed after each epoch
PAPER_ROUND_TRIPS = 2

# train_small: one unit is a fresh model trained for a fixed number of
# epochs, then evaluated; units repeat with the same seed until time is up,
# and at least SMALL_MIN_UNITS run: a run of ~30 s averages over more of a
# shared machine's speed shifts than one of ~15 s.
SMALL_EPOCHS = 150
SMALL_PHASE1 = 100
SMALL_WARMUP = 5
SMALL_MIN_UNITS = 4
SMALL_ROUND_TRIP_EVERY = 5  # epochs between checkpoint round trips
EVAL_SAMPLES = 256
EVAL_TRIALS = 2

# recal_online: a stream of single captures through predict + detection.
RECAL_STREAM = 256
RECAL_MIN_CAPTURES = 1000
RECAL_SAVES = 2
RECAL_LOADS = 7
RECAL_CAPTURE_STREAM = 4  # derive_seed stream id; ncal uses 1-3
HEAD_INIT_STD = 1e-3
THRESHOLD_SAMPLES = 32
ORTHO_TOL = 1e-9
BATCHED_CHUNK = 32  # captures per batched predict, the reference for single ones
BATCH_TOL = 1e-9  # |single - batched| <= BATCH_TOL * (1 + |batched|)


class Run:
    """Inputs, counters and results of one workload run."""

    def __init__(self, seed: int, seconds: float, workdir, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}  # name -> (value, unit)
        self.steps = 0  # timed epochs or captures, the unit of per-layer figures
        self.group = 0  # id shared by the spans of one epoch, capture or evaluation
        self.model = None  # the workload's model, for shape-derived figures
        self.forward_batch = 0

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; ok=False counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def window(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.window = on

    def step(self) -> None:
        """Start a new group: the spans that follow belong to one step."""
        self.group += 1
        if self.tracer is not None:
            self.tracer.group = self.group


def make_scene(spec: Spec, kappa: float = KAPPA) -> SceneConfig:
    rig, oem = scene.make_rig(spec.rig)
    return SceneConfig(rig, oem, scene.make_object(spec.obj),
                       perturbation=PerturbationSpec(kappa, kappa))


def build(spec: Spec, seed: int):
    """The workload's set-up: scene configuration and a freshly initialised model."""
    sc = make_scene(spec)
    return sc, make_model(spec, sc, seed)


def make_model(spec: Spec, sc: SceneConfig, seed: int) -> PtModel:
    cfg = PtModelConfig(sc.n_cameras, sc.n_fiducials, spec.d_model, spec.n_layers,
                        spec.n_heads, spec.d_ff)
    ref = scene.reference_params(sc.rig, sc.oem, sc.radius)
    return PtModel(cfg, ref, sc.rig.image_size, sc.radius, seed=seed)


def forward_gflop(cfg: PtModelConfig, batch: int) -> float:
    """Matmul GFLOP of one forward pass (2 per multiply-add), from shapes."""
    n, f, d, ff = cfg.n_cameras, cfg.n_fiducials, cfg.d_model, cfg.d_ff
    per_layer = 4 * 2 * n * d * d + 2 * 2 * n * n * d + 2 * 2 * n * d * ff
    per_capture = 2 * n * 2 * f * d + cfg.n_layers * per_layer + 2 * n * d * geometry.N_PARAMS
    return batch * per_capture / 1e9


def weight_bytes(model: PtModel) -> int:
    return sum(t.data.nbytes for t in model.params.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _same_arrays(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


def _round_trips(run: Run, path, model, optimizer, repeats: int):
    """Save and load a checkpoint `repeats` times; each load must be bitwise
    equal to what was saved. Returns (save seconds, load seconds)."""
    saves, loads = [], []
    for _ in range(repeats):
        dt, _ = _timed(lambda: checkpoint.save_checkpoint(path, model, optimizer))
        saves.append(dt)
        dt, (loaded, opt, _extra) = _timed(lambda: checkpoint.load_checkpoint(path))
        loads.append(dt)
        same = loaded.config == model.config and _same_arrays(model.state_arrays(), loaded.state_arrays())
        if optimizer is not None:
            same = same and opt is not None and opt.step == optimizer.step
            same = same and _same_arrays(optimizer.m, opt.m) and _same_arrays(optimizer.v, opt.v)
        run.op(same, "checkpoint round trip is not bitwise equal")
        del loaded, opt  # free this copy before the next one is read
    os.remove(path)
    return saves, loads


def _finite_record(record: dict) -> bool:
    keys = ("loss", "loss_diff", "loss_geo", "loss_reproj", "grad_norm")
    return all(record[k] is None or np.isfinite(record[k]) for k in keys)


class _Stop(Exception):
    """Raised from the epoch callback to end a time-bounded train() call."""


def _train(run: Run, model, sc, cfg, warmup: int, stop=None, between=None):
    """train() with each epoch's wall time taken in the epoch callback.

    Epochs before `warmup` run outside the measured window. stop(epoch,
    elapsed) ends the call early. between(epoch, model, optimizer) runs
    after each epoch, outside the epoch times and the traced window: a shared
    machine's speed can shift for seconds at a time, so set-ups and
    checkpoint round trips timed there sample the same stretch of time as
    the epochs, not one moment before or after them. Returns (epoch seconds,
    records, optimizer).
    """
    tracer = run.tracer
    times, records, state = [], [], {}
    t_start = time.perf_counter()
    last = [t_start]
    span = [None]

    def open_epoch(epoch):
        run.window(epoch >= warmup)
        run.step()
        if tracer is not None:
            span[0] = tracer.open("training.train")

    def close_epoch():
        if span[0] is not None:
            tracer.close(span[0])
            span[0] = None

    def on_epoch(epoch, record, _model, optimizer, _scheduler):
        now = time.perf_counter()
        close_epoch()
        times.append(now - last[0])
        last[0] = now
        if epoch >= warmup:
            run.steps += 1
        records.append(record)
        state["optimizer"] = optimizer
        run.op(_finite_record(record), f"epoch {epoch}: non-finite loss record")
        if stop is not None and stop(epoch, now - t_start):
            raise _Stop
        if between is not None:
            run.window(False)
            between(epoch, _model, optimizer)
            last[0] = time.perf_counter()
        if epoch + 1 < cfg.epochs:
            open_epoch(epoch + 1)

    open_epoch(0)
    try:
        training.train(model, sc, cfg, epoch_callback=on_epoch)
    except _Stop:
        pass
    except NcalError as e:
        close_epoch()
        run.op(False, f"train raised {e!r}")
    run.window(False)
    return times, records, state.get("optimizer")


# -- train_paper ----------------------------------------------------------------


def train_paper(run: Run) -> None:
    """Paper-scale training across the phase 1 -> 2 transition, then a
    checkpoint round trip with the Adam moments."""
    dt, (sc, model) = _timed(lambda: build(PAPER, run.seed))
    setups = [dt]
    run.model, run.forward_batch = model, PAPER.batch

    cfg = training.TrainConfig(epochs=PAPER_EPOCH_CAP, phase1_epochs=PAPER_PHASE1,
                               batch_size=PAPER.batch, seed=run.seed)

    def stop(epoch, elapsed):
        return epoch + 1 >= PAPER_MIN_EPOCHS and elapsed >= run.seconds

    def between(_epoch, _model, _optimizer):
        for _ in range(PAPER_SETUPS_PER_EPOCH):
            setups.append(_timed(lambda: build(PAPER, run.seed))[0])

    times, records, optimizer = _train(run, model, sc, cfg, warmup=PAPER_PHASE1, stop=stop,
                                       between=between)
    phases = {r["phase"] for r in records}
    run.op(phases == {1, 2}, f"training did not cross the phase transition: phases {phases}")
    timed = times[PAPER_PHASE1:] or times

    saves, loads = _round_trips(run, run.workdir / "paper.ckpt", model, optimizer,
                                   PAPER_ROUND_TRIPS)
    epoch_s = statistics.median(timed)
    run.put("setup_s", statistics.median(setups), "s")
    run.put("train.epoch_s", epoch_s, "s")
    run.put("train.samples_per_s", PAPER.batch * len(timed) / sum(timed), "1/s")
    run.put("ckpt.save_s", statistics.median(saves), "s")
    run.put("ckpt.load_s", statistics.median(loads), "s")
    run.put("step_p50_ms", 1000.0 * epoch_s, "ms")
    run.put("samples_per_s", run.metrics["train.samples_per_s"][0], "1/s")


# -- train_small ----------------------------------------------------------------


def train_small(run: Run) -> None:
    """Small-model training for a fixed number of epochs, then evaluate() on
    the held-out stream; repeated with the same seed until time is up."""
    dt, (sc, model) = _timed(lambda: build(SMALL, run.seed))
    setups, saves, loads = [dt], [], []

    def between(epoch, live, optimizer):
        setups.append(_timed(lambda: build(SMALL, run.seed))[0])
        if epoch % SMALL_ROUND_TRIP_EVERY == 0:
            s, l = _round_trips(run, run.workdir / "small.ckpt", live, optimizer, 1)
            saves.extend(s)
            loads.extend(l)

    run.model, run.forward_batch = model, SMALL.batch
    untrained = training.evaluate(model, sc, EVAL_SAMPLES, EVAL_TRIALS, seed=run.seed).re_avg

    cfg = training.TrainConfig(epochs=SMALL_EPOCHS, phase1_epochs=SMALL_PHASE1,
                               batch_size=SMALL.batch, seed=run.seed)
    epochs, evals, first, re_px, optimizer = [], [], None, float("nan"), None
    t_start = time.perf_counter()
    while True:
        model = make_model(SMALL, sc, run.seed)
        times, records, optimizer = _train(run, model, sc, cfg,
                                           warmup=SMALL_WARMUP if first is None else 0,
                                           between=between)
        epochs.extend(times[SMALL_WARMUP:] if first is None else times)
        losses = [(r["loss"], r["loss_reproj"]) for r in records]
        if first is None:
            first = losses
        else:
            run.op(losses == first, "a repeated unit did not reproduce the first unit's losses")
        run.window(True)
        run.step()
        dt, report = _timed(lambda: training.evaluate(model, sc, EVAL_SAMPLES, EVAL_TRIALS,
                                                      seed=run.seed))
        run.window(False)
        evals.append(dt)
        re_px = report.re_avg
        run.op(bool(np.isfinite(re_px)) and re_px < untrained,
               f"training did not improve reprojection error: {re_px} >= {untrained}")
        if len(evals) >= SMALL_MIN_UNITS and time.perf_counter() - t_start >= run.seconds:
            break

    epoch_s = statistics.median(epochs)
    run.put("setup_s", statistics.median(setups), "s")
    run.put("train.epoch_s", epoch_s, "s")
    run.put("train.samples_per_s", SMALL.batch * len(epochs) / sum(epochs), "1/s")
    run.put("train.re_px", re_px, "px")
    run.put("train.re_px_untrained", untrained, "px")
    run.put("eval.samples_per_s", EVAL_SAMPLES * EVAL_TRIALS / statistics.median(evals), "1/s")
    run.put("ckpt.save_s", statistics.median(saves), "s")
    run.put("ckpt.load_s", statistics.median(loads), "s")
    run.put("step_p50_ms", 1000.0 * epoch_s, "ms")
    run.put("samples_per_s", run.metrics["train.samples_per_s"][0], "1/s")


# -- recal_online ---------------------------------------------------------------


def _capture_ok(pred, expected, flags):
    """Finite, orthonormal rotations, equal to the batched row, finite distances."""
    if not np.all(np.isfinite(pred)):
        return "non-finite prediction"
    R = pred[:, geometry.ROT_SLICE].reshape(-1, 3, 3)
    if np.max(np.abs(R @ np.swapaxes(R, -1, -2) - np.eye(3))) > ORTHO_TOL:
        return "rotation block not orthonormal"
    if np.any(np.abs(pred - expected) > BATCH_TOL * (1.0 + np.abs(expected))):
        return "single-capture predict differs from the batched row"
    if not np.all(np.isfinite(flags["distances"])):
        return "non-finite drift distance"
    return None


def recal_online(run: Run) -> None:
    """Load a paper-scale model-only checkpoint, then recalibrate a stream of
    single captures: predict + detect_decalibration, one at a time."""
    sc = make_scene(PAPER)
    source = make_model(PAPER, sc, run.seed)
    # Non-zero heads, so predictions depend on the capture.
    rng = np.random.default_rng(np.random.SeedSequence([run.seed, RECAL_CAPTURE_STREAM]))
    for name, t in source.params.items():
        if name.startswith("head_"):
            t.data = HEAD_INIT_STD * rng.standard_normal(t.data.shape)

    path = run.workdir / "recal.ckpt"
    saves = []
    for _ in range(RECAL_SAVES):
        dt, _ = _timed(lambda: checkpoint.save_checkpoint(path, source))
        saves.append(dt)
    loads = []
    for _ in range(RECAL_LOADS):
        model = None  # free the previous copy before the next one is read
        dt, (model, _opt, _extra) = _timed(lambda: checkpoint.load_checkpoint(path))
        loads.append(dt)
    run.op(_same_arrays(source.state_arrays(), model.state_arrays()),
           "model-only checkpoint round trip is not bitwise equal")
    os.remove(path)
    del source
    run.model, run.forward_batch = model, 1

    batch = scene.synthesize_batch(
        sc, RECAL_STREAM, training.derive_seed(run.seed, RECAL_CAPTURE_STREAM, 0))
    captures = batch.observations
    clean = SceneConfig(sc.rig, sc.oem, sc.obj, radius=sc.radius)
    threshold = training.calibrate_detection_threshold(model, clean, THRESHOLD_SAMPLES,
                                                       seed=run.seed)
    reference = model.reference_params
    batched = np.concatenate([model.predict(captures[lo : lo + BATCHED_CHUNK])
                              for lo in range(0, RECAL_STREAM, BATCHED_CHUNK)])

    lat = []
    run.window(True)
    t_start = time.perf_counter()
    while len(lat) < RECAL_MIN_CAPTURES or time.perf_counter() - t_start < run.seconds:
        i = len(lat)
        obs = captures[i % RECAL_STREAM]
        run.step()
        span = run.tracer.open("recal.capture") if run.tracer is not None else None
        error = None
        t0 = time.perf_counter()
        try:
            pred = model.predict(obs)
            flags = training.detect_decalibration(model, obs, reference, threshold)
        except NcalError as e:
            error = e
        lat.append(time.perf_counter() - t0)
        if span is not None:
            run.tracer.close(span)
        if error is not None:
            run.op(False, f"capture {i} raised {error!r}")
            continue
        problem = _capture_ok(pred, batched[i % RECAL_STREAM], flags)
        run.op(problem is None, f"capture {i}: {problem}")
    run.window(False)
    run.steps = len(lat)

    run.op((stats.tail_percentile(len(lat)) or 0.0) >= 99.0,
           f"{len(lat)} captures leave fewer than 10 beyond p99")
    run.put("setup_s", statistics.median(loads), "s")
    run.put("recal.p50_ms", 1000.0 * stats.percentile(lat, 50), "ms")
    run.put("recal.p99_ms", 1000.0 * stats.percentile(lat, 99), "ms")
    run.put("recal.captures_per_s", len(lat) / sum(lat), "1/s")
    run.put("recal.captures", len(lat), "count")
    run.put("ckpt.save_s", statistics.median(saves), "s")
    run.put("ckpt.load_s", statistics.median(loads), "s")
    run.put("step_p50_ms", run.metrics["recal.p50_ms"][0], "ms")
    run.put("samples_per_s", run.metrics["recal.captures_per_s"][0], "1/s")


WORKLOADS = {"train_paper": train_paper, "train_small": train_small, "recal_online": recal_online}


def finish(run: Run) -> None:
    """Metrics every workload reports after its loop."""
    run.put("peak_rss_mb", peak_rss_mb(), "MB")
    run.put("error_rate", run.failed / max(run.attempted, 1), "ratio")


# -- per-layer figures from a traced run -----------------------------------------

# (metric, span name, field of tracing.summarize, unit); totals over the
# measured loop divided by its steps (epochs or captures).
PER_STEP = [
    ("scene.synthesize_batch.s", "scene.synthesize_batch", "s", "s"),
    ("geometry.project_array.s", "geometry.project_array", "s", "s"),
    ("geometry.project_array.calls", "geometry.project_array", "calls", "count"),
    ("geometry.project_jacobian_array.s", "geometry.project_jacobian_array", "s", "s"),
    ("model.forward.s", "model.forward", "s", "s"),
    ("model.embed.s", "model.embed", "s", "s"),
    ("model.encode.s", "model.encode", "s", "s"),
    ("functional.linear.s", "functional.linear", "s", "s"),
    ("functional.linear.calls", "functional.linear", "calls", "count"),
    ("functional.layer_norm.s", "functional.layer_norm", "s", "s"),
    ("autodiff.softmax.s", "autodiff.softmax", "s", "s"),
    ("functional.rot6d_to_matrix_t.s", "functional.rot6d_to_matrix_t", "s", "s"),
    ("autodiff.backward.s", "autodiff.backward", "s", "s"),
    ("losses.loss_diff.s", "losses.loss_diff", "s", "s"),
    ("losses.loss_geo.s", "losses.loss_geo", "s", "s"),
    ("losses.loss_reproj.s", "losses.loss_reproj", "s", "s"),
    ("losses.compound_loss.s", "losses.compound_loss", "s", "s"),
    ("losses.reprojection_rmse.s", "losses.reprojection_rmse", "s", "s"),
    ("optim.clip_gradients.s", "optim.clip_gradients", "s", "s"),
    ("optim.adam_step.s", "optim.adam_step", "s", "s"),
    ("training.train.self_s", "training.train", "self_s", "s"),
    ("training.detect_decalibration.s", "training.detect_decalibration", "s", "s"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(run: Run) -> None:
    """Per-layer figures from the run's spans and counters."""
    tr = run.tracer
    rows = tracing.summarize(tr)
    steps = max(run.steps, 1)
    for metric, name, field, unit in PER_STEP:
        run.put(metric, rows[name][field] / steps if name in rows else 0.0, unit)

    embed_encode = {"model.embed", "model.encode"}
    heads = tracing.self_times(tr.spans, keep=embed_encode.__contains__)
    run.put("model.heads.self_s", sum(
        h for s, h, inside in zip(tr.spans, heads, tr.in_window)
        if inside and s[tracing.NAME] == "model.forward") / steps, "s")

    synth = rows["scene.synthesize_batch"]["s"] if "scene.synthesize_batch" in rows else 0.0
    run.put("scene.samples_per_s", _ratio(tr.counts["scene.samples"], synth), "1/s")
    run.put("scene.accept_ratio", _ratio(tr.counts["scene.samples"], tr.counts["scene.attempts"]), "ratio")
    run.put("optim.clip_fired_ratio", _ratio(tr.counts["optim.clip_fired"], tr.counts["optim.clip_calls"]), "ratio")

    wbytes = weight_bytes(run.model)
    forward = rows.get("model.forward", {"calls": 0, "s": 0.0})
    run.put("model.forward.gflop", forward_gflop(run.model.config, run.forward_batch), "GFLOP")
    run.put("model.weight_bytes", wbytes, "B")
    run.put("model.weight_GBps", _ratio(wbytes * forward["calls"] / 1e9, forward["s"]), "GB/s")

    save = tracing.durations(tr, "checkpoint.save")
    load = tracing.durations(tr, "checkpoint.load")
    save_s = statistics.median(save) if save else 0.0
    run.put("checkpoint.save.s", save_s, "s")
    run.put("checkpoint.load.s", statistics.median(load) if load else 0.0, "s")
    run.put("checkpoint.bytes", tr.counts.get("checkpoint.bytes", 0.0), "B")
    run.put("checkpoint.save.MBps", _ratio(tr.counts.get("checkpoint.bytes", 0.0) / 1e6, save_s), "MB/s")
