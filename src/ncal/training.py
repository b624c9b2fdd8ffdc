"""Two-phase training loop, evaluation protocol, and decalibration detection.

An "epoch" is one freshly synthesized batch: every epoch draws new poses and
new perturbations, runs the forward pass, the compound loss for the phase
implied by the epoch index, backward, gradient clipping, one Adam step, and
a plateau-scheduler update. Epoch e of a run with seed s consumes the batch
seeded by (s, stream=1, e), so training is bitwise reproducible and a run
resumed from a checkpoint continues the identical trajectory.

Evaluation draws from a separate seed stream (s, stream=2, trial), making
test sets out-of-sample by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteLoss
from .geometry import INTRINSICS_SLICE
from .losses import PARAM_SCALE, compound_loss, reprojection_rmse
from .nn.model import PtModel
from .nn.optim import AdamState, PlateauScheduler, adam_step, clip_gradients
from .scene import SceneConfig, synthesize_batch

_TRAIN_STREAM = 1
_EVAL_STREAM = 2
_DETECT_STREAM = 3

# The training recipe: Adam with one base learning rate per parameter group,
# floored at LR_MIN once the plateau schedule has scaled it down, and the
# global gradient norm clipped to CLIP_NORM before every step. The embedding
# and the encoder blocks run in COMPUTE_DTYPE on casts of the float64 weights;
# the heads, the losses, the gradients that clipping and Adam see, the
# weights and the moments stay float64 (PtModel.forward).
LEARNING_RATES = {"encoder": 1e-4, "heads": 1e-3}
LR_MIN = 1e-6
CLIP_NORM = 1.0
COMPUTE_DTYPE = np.float32


def derive_seed(root_seed: int, stream: int, index: int) -> int:
    """Deterministic child seed for (root, stream, index)."""
    ss = np.random.SeedSequence([int(root_seed), int(stream), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class TrainConfig:
    """Length, batch size and seed of a run; epochs must be set explicitly.
    The rest of the recipe is constants: the rates and clipping here, the
    loss weights in ``losses`` and the plateau schedule in ``nn.optim``."""

    epochs: int
    phase1_epochs: int = 10_000
    batch_size: int = 512
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "phase1_epochs", "batch_size", "seed"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if min(self.epochs, self.phase1_epochs, self.seed) < 0 or self.batch_size < 1:
            raise ConfigError("epochs, phase1_epochs and seed must be >= 0 and batch_size >= 1")
        if self.phase1_epochs > self.epochs:
            raise ConfigError(
                f"phase1_epochs ({self.phase1_epochs}) exceeds total epochs ({self.epochs})"
            )


@dataclass
class TrainResult:
    records: list
    optimizer: AdamState
    scheduler: PlateauScheduler


@dataclass
class EvalReport:
    """Reprojection accuracy over repeated trials."""

    re_avg: float
    re_std: float
    re_trials: list
    per_camera: list  # mean per-camera RMSE across trials
    n_samples: int
    trials: int
    seed: int = 0


def train(
    model: PtModel,
    scene_cfg: SceneConfig,
    cfg: TrainConfig,
    optimizer: AdamState | None = None,
    scheduler: PlateauScheduler | None = None,
    start_epoch: int = 0,
    epoch_callback=None,
) -> TrainResult:
    """Run epochs [start_epoch, cfg.epochs); the model is updated in place.

    start_epoch must lie in [0, cfg.epochs]: start_epoch == cfg.epochs is a
    finished run and returns no records, and a larger one raises ConfigError,
    so a resume under a shortened TrainConfig cannot silently train nothing.

    Each epoch runs the model's embedding and encoder in COMPUTE_DTYPE,
    clips the float64 gradients of its phase's compound loss to CLIP_NORM
    and takes one Adam step at the LEARNING_RATES times the plateau
    scheduler's scale, floored at LR_MIN.

    Raises NonFiniteLoss (with the offending epoch and batch seed) if the
    loss or the gradient norm ever leaves the finite range; both checks run
    before the Adam step, so no NaN or inf reaches the weights.
    epoch_callback(epoch, record, model, optimizer, scheduler) runs after
    each update, e.g. to write checkpoints.
    """
    if not 0 <= start_epoch <= cfg.epochs:
        raise ConfigError(f"start_epoch must be in [0, {cfg.epochs}], got {start_epoch}")
    optimizer = optimizer if optimizer is not None else AdamState()
    scheduler = scheduler if scheduler is not None else PlateauScheduler()
    fiducials = scene_cfg.obj.fiducials
    image_size = scene_cfg.rig.image_size
    records = []

    for epoch in range(start_epoch, cfg.epochs):
        batch_seed = derive_seed(cfg.seed, _TRAIN_STREAM, epoch)
        batch = synthesize_batch(scene_cfg, cfg.batch_size, batch_seed)
        phase = 1 if epoch < cfg.phase1_epochs else 2

        pred = model.forward(batch.observations, COMPUTE_DTYPE)
        total, parts, grad = compound_loss(
            pred.data, batch.gt_params, batch.observations, fiducials, image_size, phase
        )
        loss_value = float(total)
        if not np.isfinite(loss_value):
            raise NonFiniteLoss(epoch, batch_seed)

        # The pullback frees what the forward kept stage by stage as it runs
        # (about 324 MB at paper scale, O-10/cube27 at batch 512, as
        # tracemalloc counts a float32 forward, which keeps no weight cast).
        # The gradients go after the Adam step, so no gradient set lives
        # into the next step.
        grads = pred.backward(grad)
        del pred, grad
        grad_norm = clip_gradients(grads, CLIP_NORM)
        if not np.isfinite(grad_norm):
            raise NonFiniteLoss(
                epoch,
                batch_seed,
                f"non-finite gradient norm {grad_norm} at epoch {epoch} (batch seed {batch_seed})",
            )
        adam_step(
            model.params,
            grads,
            optimizer,
            LEARNING_RATES,
            model.param_group,
            lr_scale=scheduler.lr_scale,
            lr_min=LR_MIN,
        )
        del grads
        scheduler.update(loss_value)

        record = {
            "epoch": epoch,
            "phase": phase,
            "phase_transition": epoch == cfg.phase1_epochs,
            "loss": loss_value,
            "loss_diff": parts["loss_diff"],
            "loss_geo": parts["loss_geo"],
            "loss_reproj": parts["loss_reproj"],
            "grad_norm": float(grad_norm),
            "lr_scale": scheduler.lr_scale,
            "batch_seed": batch_seed,
        }
        records.append(record)
        if epoch_callback is not None:
            epoch_callback(epoch, record, model, optimizer, scheduler)
    return TrainResult(records, optimizer, scheduler)


def evaluate(
    model: PtModel,
    scene_cfg: SceneConfig,
    n_samples: int,
    trials: int = 3,
    seed: int = 0,
) -> EvalReport:
    """Reprojection RMSE of model predictions over freshly drawn test sets.

    Each trial synthesizes n_samples captures from the evaluation seed
    stream, predicts all camera parameters, and scores the RMSE between
    fiducial projections under the predicted parameters and the observed
    (ground-truth) projections.
    """
    if n_samples < 1 or trials < 1 or seed < 0:
        raise ConfigError(
            f"need n_samples >= 1, trials >= 1 and seed >= 0, got {n_samples}, {trials} and {seed}"
        )
    fiducials = scene_cfg.obj.fiducials
    image_size = scene_cfg.rig.image_size
    res, cams = [], []
    for t in range(trials):
        batch = synthesize_batch(scene_cfg, n_samples, derive_seed(seed, _EVAL_STREAM, t))
        pred = model.predict(batch.observations)
        total, per_cam = reprojection_rmse(pred, batch.observations, fiducials, image_size)
        res.append(total)
        cams.append(per_cam)
    return EvalReport(
        re_avg=float(np.mean(res)),
        re_std=float(np.std(res, ddof=1)) if trials > 1 else 0.0,
        re_trials=[float(r) for r in res],
        per_camera=list(np.mean(cams, axis=0)),
        n_samples=n_samples,
        trials=trials,
        seed=seed,
    )


# -- decalibration detection -------------------------------------------------


def parameter_distances(pred_params: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-camera RMSE over the intrinsic entries between predicted and
    reference parameters, using the same entry scaling as the parameter loss.
    Intrinsics are pose-invariant, so they can be compared against the
    factory values."""
    d = ((np.asarray(pred_params) - np.asarray(reference)) * PARAM_SCALE)[..., INTRINSICS_SLICE]
    return np.sqrt((d**2).mean(axis=-1))


def detect_decalibration(
    model: PtModel,
    observations: np.ndarray,
    reference: np.ndarray,
    threshold: float,
) -> dict:
    """Flag cameras whose predicted calibration drifted from the reference.

    observations: (N_C, N_fid, 2) capture from the live system.
    reference: (N_C, 21) factory calibration to compare against.
    threshold: >= 0; an infinite one flags only non-finite distances.
    Returns {"distances": per-camera values, "drifted": bool per camera,
    "any_drift": bool}. A camera whose distance is not finite (a NaN or inf
    in the capture or the prediction) counts as drifted.
    """
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be >= 0 and not NaN, got {threshold!r}")
    pred = model.predict(observations)
    dist = parameter_distances(pred, reference)
    drifted = ~(np.isfinite(dist) & (dist <= threshold))
    return {
        "distances": dist,
        "drifted": drifted,
        "any_drift": bool(drifted.any()),
        "threshold": threshold,
    }


def calibrate_detection_threshold(
    model: PtModel,
    scene_cfg: SceneConfig,
    n_samples: int,
    seed: int = 0,
    margin: float = 1.25,
) -> float:
    """Threshold = margin x the largest per-camera distance observed on a
    clean (unperturbed) sample set drawn from the detection seed stream.
    Raises ValueError unless 1 <= margin < inf (a NaN, infinite or shrinking
    margin would give a NaN, negative or too tight threshold), or if any of
    those distances is not finite."""
    if n_samples < 1 or seed < 0:
        raise ConfigError(f"need n_samples >= 1 and seed >= 0, got {n_samples} and {seed}")
    if not 1.0 <= margin < np.inf:
        raise ValueError(f"margin must be finite and >= 1, got {margin!r}")
    reference = model.reference_params
    batch = synthesize_batch(scene_cfg, n_samples, derive_seed(seed, _DETECT_STREAM, 0))
    pred = model.predict(batch.observations)
    dist = parameter_distances(pred, reference)
    bad = np.count_nonzero(~np.isfinite(dist))
    if bad:
        raise ValueError(f"{bad} of {dist.size} clean-set distances are not finite")
    return float(dist.max() * margin)
