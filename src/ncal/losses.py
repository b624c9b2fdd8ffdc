"""Training losses.

Three terms drive the network toward the ground-truth calibration:

- a parameter-space RMSE over all 21 values per camera, with the rotation
  and distortion entries amplified by ``LAM_SCALE`` so their small magnitudes
  still register against pixel-scale values,
- a geodesic rotation loss (mean rotation angle between predicted and
  ground-truth matrices),
- a reprojection RMSE between fiducial projections under the predicted and
  ground-truth parameters, differentiable through the analytic projection
  Jacobian.

The compound loss is ``LAM1 * (diff + geo)`` in phase 1 and additionally
``+ LAM2 * reproj`` in phase 2. All RMSEs pool over every element of the
batch (a single square root of the grand mean).
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .nn import autodiff as ad
from .nn import functional as F
from .nn.autodiff import Tensor

# Weights of the compound loss: LAM1 on the parameter and geodesic terms,
# LAM2 on the phase-2 reprojection term.
LAM1 = 100.0
LAM2 = 0.01

# Amplification of the rotation and distortion entries in the parameter loss.
LAM_SCALE = 1000.0

# Per-entry scaling of the flattened 21-vector, shared by the parameter loss
# and the drift monitor.
PARAM_SCALE = np.ones(geometry.N_PARAMS)
PARAM_SCALE[geometry.ROT_SLICE] = LAM_SCALE
PARAM_SCALE[geometry.DIST_SLICE] = LAM_SCALE
PARAM_SCALE.flags.writeable = False

# A fiducial that falls behind a predicted camera contributes a fixed error
# of this many image diagonals instead of aborting the step.
BEHIND_CAMERA_PENALTY_DIAGONALS = 10.0


def behind_camera_penalty(image_size) -> float:
    """Squared pixel error charged for a fiducial behind a predicted camera."""
    w, h = image_size
    return (BEHIND_CAMERA_PENALTY_DIAGONALS * float(np.hypot(w, h))) ** 2


def loss_diff(pred: Tensor, gt_params: np.ndarray) -> Tensor:
    """RMSE over all PARAM_SCALE-scaled parameter entries, pooled over the
    whole batch."""
    d = (pred - ad.constant(gt_params)) * ad.constant(PARAM_SCALE)
    return (d * d).mean() ** 0.5


def loss_geo(pred: Tensor, gt_params: np.ndarray) -> Tensor:
    """Mean geodesic angle between predicted and ground-truth rotations."""
    gt_rot = np.asarray(gt_params, dtype=float)[..., geometry.ROT_SLICE.start : geometry.ROT_SLICE.stop]
    angles = F.geodesic_angles_t(pred[..., 0:9], gt_rot)
    return angles.mean()


def loss_reproj(
    pred: Tensor,
    observations: np.ndarray,
    fiducials: np.ndarray,
    image_size,
) -> Tensor:
    """Pixel RMSE between projections under predicted parameters and the
    observed (ground-truth) projections.

    Points behind a predicted camera contribute a fixed squared error of
    (10 x image diagonal)^2 with zero gradient, so one bad camera cannot
    poison the gradients of the rest.
    """
    pix, valid = F.project_fiducials_t(pred, fiducials)
    diff = pix - ad.constant(observations)
    sq = (diff * diff).sum(axis=-1)
    sq = ad.masked_fill(sq, valid, behind_camera_penalty(image_size))
    return sq.mean() ** 0.5


def compound_loss(
    pred: Tensor,
    gt_params: np.ndarray,
    observations: np.ndarray,
    fiducials: np.ndarray,
    image_size,
    phase: int,
):
    """Phase-dependent weighted sum; returns (total, parts dict).

    Phase 1: LAM1 * (diff + geo). Phase 2 adds LAM2 * reproj.
    """
    if phase not in (1, 2):
        raise ValueError(f"phase must be 1 or 2, got {phase}")
    ldiff = loss_diff(pred, gt_params)
    lgeo = loss_geo(pred, gt_params)
    total = LAM1 * ldiff + LAM1 * lgeo
    parts = {"loss_diff": float(ldiff.data), "loss_geo": float(lgeo.data), "loss_reproj": None}
    if phase == 2:
        lrep = loss_reproj(pred, observations, fiducials, image_size)
        total = total + LAM2 * lrep
        parts["loss_reproj"] = float(lrep.data)
    return total, parts


def reprojection_rmse(
    pred_params: np.ndarray,
    gt_params: np.ndarray,
    fiducials: np.ndarray,
    image_size,
    per_camera: bool = False,
):
    """Plain-array reprojection RMSE between two parameter sets.

    Projections are compared pointwise; a point behind a predicted camera
    contributes (10 x diagonal)^2. With per_camera=True also returns the
    RMSE restricted to each camera axis entry.
    """
    pred_pix, pred_valid = geometry.project_array(pred_params, fiducials)
    gt_pix, _ = geometry.project_array(gt_params, fiducials)
    sq = ((pred_pix - gt_pix) ** 2).sum(axis=-1)
    sq = np.where(pred_valid, sq, behind_camera_penalty(image_size))
    total = float(np.sqrt(sq.mean()))
    if not per_camera:
        return total
    # camera axis is the second-to-last of (..., N_C, N_fid)
    axes = tuple(i for i in range(sq.ndim) if i != sq.ndim - 2)
    return total, np.sqrt(sq.mean(axis=axes))
