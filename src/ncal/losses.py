"""Training losses.

Three terms drive the network toward the ground-truth calibration:

- a parameter-space RMSE over all 21 values per camera, with the rotation
  and distortion entries amplified by ``LAM_SCALE`` so their small magnitudes
  still register against pixel-scale values,
- a geodesic rotation loss (mean rotation angle between predicted and
  ground-truth matrices),
- a reprojection RMSE between fiducial projections under the predicted
  parameters and the observed pixels, whose backward contracts the upstream
  gradient with the analytic projection Jacobian. Its squared errors,
  behind-camera penalty included, come from ``_squared_errors``, which the
  evaluation metric ``reprojection_rmse`` shares.

Each term is one node on the prediction, and the compound loss,
``LAM1 * (diff + geo)`` in phase 1 and ``+ LAM2 * reproj`` in phase 2, one
node over the terms; each backward returns its parents' gradients. All
RMSEs pool over every element of the batch (a single square root of the
grand mean). Every square root and the arccos take the zero subgradient
where their derivative is infinite (``nn.autodiff.subgradient``).
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .nn import autodiff as ad
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


def _squared_errors(pixels, valid, observations, image_size):
    """Squared pixel error per fiducial, (..., N_C, N_fid), and the residuals
    pixels - observations, (..., N_C, N_fid, 2).

    A fiducial behind its camera (``valid`` False) is charged a fixed
    (BEHIND_CAMERA_PENALTY_DIAGONALS x image diagonal)^2 instead, so one bad
    camera cannot poison the rest.
    """
    diff = pixels - observations
    penalty = (BEHIND_CAMERA_PENALTY_DIAGONALS * float(np.hypot(*image_size))) ** 2
    return np.where(valid, (diff * diff).sum(axis=-1), penalty), diff


def loss_diff(pred: Tensor, gt_params: np.ndarray) -> Tensor:
    """RMSE over all PARAM_SCALE-scaled parameter entries, pooled over the
    whole batch."""
    d = (pred.data - gt_params) * PARAM_SCALE
    n = d.size
    ms = np.asarray((d * d).sum() * (1.0 / n))

    def backward(g):
        gd = g * ad.subgradient(lambda: 0.5 * ms**-0.5, ms == 0.0) * (1.0 / n) * d
        return ((gd + gd) * PARAM_SCALE,)

    return ad.node(ms**0.5, (pred,), backward)


def loss_geo(pred: Tensor, gt_params: np.ndarray) -> Tensor:
    """Mean geodesic angle between predicted and ground-truth rotations,
    arccos((trace(R^T R_gt) - 1) / 2) with the argument clamped to [-1, 1].

    Wherever the argument is at or past the clamp the gradient is zero, the
    true derivative of the clamped function, so coincident rotations
    contribute no gradient.
    """
    gt_rot = np.asarray(gt_params, dtype=float)[..., geometry.ROT_SLICE]
    c = ((pred.data[..., geometry.ROT_SLICE] * gt_rot).sum(axis=-1) - 1.0) * 0.5
    cc = np.clip(c, -1.0, 1.0)
    angles = np.arccos(cc)
    n = angles.size

    def backward(g):
        dc = ad.subgradient(lambda: -1.0 / np.sqrt(1.0 - cc * cc), np.abs(c) >= 1.0)
        gc = g * (1.0 / n) * dc * 0.5
        gp = np.zeros(pred.data.shape)
        gp[..., geometry.ROT_SLICE] += gc[..., None] * gt_rot
        return (gp,)

    return ad.node(np.asarray(angles.sum() * (1.0 / n)), (pred,), backward)


def loss_reproj(pred: Tensor, observations: np.ndarray, fiducials, image_size) -> Tensor:
    """Pixel RMSE between projections under predicted parameters and the
    observed (ground-truth) projections.

    Points behind a predicted camera contribute the fixed penalty of
    ``_squared_errors`` with zero gradient.
    """
    pix, valid, jac = geometry.project_jacobian_array(pred.data, fiducials)
    sq, diff = _squared_errors(pix, valid, observations, image_size)
    n = sq.size
    ms = np.asarray(sq.sum() * (1.0 / n))

    def backward(g):
        # d(sqrt ms)/d(pixels) = 0.5 / sqrt(ms) * 2 * diff / n, contracted with
        # the (..., F, 2, 21) Jacobian over (F, 2); its rows are zero for
        # points behind their camera, so those points pass no gradient.
        gp = g * ad.subgradient(lambda: 0.5 * ms**-0.5, ms == 0.0) * (1.0 / n) * diff
        return (np.einsum("...fc,...fcp->...p", gp + gp, jac),)

    return ad.node(ms**0.5, (pred,), backward)


def compound_loss(
    pred: Tensor,
    gt_params: np.ndarray,
    observations: np.ndarray,
    fiducials: np.ndarray,
    image_size,
    phase: int,
):
    """Phase-dependent weighted sum as one node; returns (total, parts dict).

    Phase 1: LAM1 * (diff + geo). Phase 2 adds LAM2 * reproj.
    """
    if phase not in (1, 2):
        raise ValueError(f"phase must be 1 or 2, got {phase}")
    terms = (loss_diff(pred, gt_params), loss_geo(pred, gt_params))
    weights = (LAM1, LAM1)
    total = LAM1 * terms[0].data + LAM1 * terms[1].data
    parts = {"loss_diff": float(terms[0].data), "loss_geo": float(terms[1].data),
             "loss_reproj": None}
    if phase == 2:
        lrep = loss_reproj(pred, observations, fiducials, image_size)
        terms, weights = terms + (lrep,), weights + (LAM2,)
        total = total + LAM2 * lrep.data
        parts["loss_reproj"] = float(lrep.data)

    def backward(g):
        return [g * w for w in weights]

    return ad.node(total, terms, backward), parts


def reprojection_rmse(pred_params: np.ndarray, observations: np.ndarray, fiducials, image_size):
    """Plain-array reprojection RMSE of predicted parameters against the
    observed pixels, penalty included. Returns (total, per_camera): the RMSE
    over every fiducial and the RMSE of each camera axis entry."""
    pix, valid = geometry.project_array(pred_params, fiducials)
    sq, _ = _squared_errors(pix, valid, observations, image_size)
    # camera axis is the second-to-last of (..., N_C, N_fid)
    axes = tuple(i for i in range(sq.ndim) if i != sq.ndim - 2)
    return float(np.sqrt(sq.mean())), np.sqrt(sq.mean(axis=axes))
