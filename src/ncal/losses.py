"""Training losses.

Three terms drive the network toward the ground-truth calibration:

- a parameter-space RMSE over all 21 values per camera, with the rotation
  and distortion entries amplified by ``LAM_SCALE`` so their small magnitudes
  still register against pixel-scale values,
- a geodesic rotation loss (mean rotation angle between predicted and
  ground-truth matrices),
- a reprojection RMSE between fiducial projections under the predicted
  parameters and the observed pixels. Its forward keeps the residuals only;
  its backward contracts the upstream gradient with the analytic projection
  Jacobian, which it builds one block of captures at a time, so that a
  phase-2 step never holds the whole batch's Jacobian. Its squared errors,
  behind-camera penalty included, come from ``_squared_errors``, which the
  evaluation metric ``reprojection_rmse`` shares.

Each term maps the prediction array to ``(value, backward)``, where
``backward(g)`` returns the prediction's gradient for the upstream gradient
g of the value. The compound loss, ``LAM1 * (diff + geo)`` in phase 1 and
``+ LAM2 * reproj`` in phase 2, returns the total, the parts and the
prediction's gradient of the total. All RMSEs pool over every element of
the batch (a single square root of the grand mean). Every square root and
the arccos take the zero subgradient where their derivative is infinite
(``nn.autodiff.subgradient``).
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .nn import autodiff as ad

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

# Bytes of projection Jacobian that the reprojection backward builds at a
# time, one block of captures: 11 captures at O-10/cube27. Sweep of that
# backward at O-10/cube27, batch 512 (2 cores, medians of 7): blocks of 1
# capture took 122 ms, of 4 64 ms, of 8-16 (0.7-1.5 MB) 57 ms, of 32 68 ms
# and of 64 81 ms, against 134 ms for the whole batch's 46 MB at once. At
# O-6/cube8 a batch of 64 (1.0 MB) stays one block.
JACOBIAN_BLOCK_BYTES = 1 << 20

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


def loss_diff(pred: np.ndarray, gt_params: np.ndarray):
    """RMSE over all PARAM_SCALE-scaled parameter entries, pooled over the
    whole batch, and its backward."""
    d = (pred - gt_params) * PARAM_SCALE
    n = d.size
    ms = np.asarray((d * d).sum() * (1.0 / n))

    def backward(g):
        gd = g * ad.subgradient(lambda: 0.5 * ms**-0.5, ms == 0.0) * (1.0 / n) * d
        return (gd + gd) * PARAM_SCALE

    return ms**0.5, backward


def loss_geo(pred: np.ndarray, gt_params: np.ndarray):
    """Mean geodesic angle between predicted and ground-truth rotations,
    arccos((trace(R^T R_gt) - 1) / 2) with the argument clamped to [-1, 1],
    and its backward.

    Wherever the argument is at or past the clamp the gradient is zero, the
    true derivative of the clamped function, so coincident rotations
    contribute no gradient.
    """
    gt_rot = np.asarray(gt_params, dtype=float)[..., geometry.ROT_SLICE]
    c = ((pred[..., geometry.ROT_SLICE] * gt_rot).sum(axis=-1) - 1.0) * 0.5
    cc = np.clip(c, -1.0, 1.0)
    angles = np.arccos(cc)
    n = angles.size

    def backward(g):
        dc = ad.subgradient(lambda: -1.0 / np.sqrt(1.0 - cc * cc), np.abs(c) >= 1.0)
        gc = g * (1.0 / n) * dc * 0.5
        gp = np.zeros(pred.shape)
        gp[..., geometry.ROT_SLICE] += gc[..., None] * gt_rot
        return gp

    return angles.sum() * (1.0 / n), backward


def loss_reproj(pred: np.ndarray, observations: np.ndarray, fiducials, image_size):
    """Pixel RMSE between projections under predicted parameters and the
    observed (ground-truth) projections, and its backward.

    pred: (..., 21) cameras whose leading axes are the batch's; fiducials:
    (F, 3), or (..., F, 3) with pred's leading axes. Points behind a
    predicted camera contribute the fixed penalty of ``_squared_errors``
    with zero gradient.

    The forward keeps the residuals only. The backward builds the analytic
    projection Jacobian (``geometry.project_jacobian_array``) over
    pred's first axis in blocks of about JACOBIAN_BLOCK_BYTES and contracts
    each into its rows of one gradient array, so it never holds the whole
    batch's Jacobian. It reads pred and fiducials as they are when it runs.
    """
    pix, valid = geometry.project_array(pred, fiducials)
    sq, diff = _squared_errors(pix, valid, observations, image_size)
    n = sq.size
    ms = np.asarray(sq.sum() * (1.0 / n))

    def backward(g):
        # d(sqrt ms)/d(pixels) = 0.5 / sqrt(ms) * 2 * diff / n, contracted with
        # the (..., F, 2, 21) Jacobian over (F, 2); its rows are zero for
        # points behind their camera, so those points pass no gradient.
        gp = g * ad.subgradient(lambda: 0.5 * ms**-0.5, ms == 0.0) * (1.0 / n) * diff
        gp += gp
        grad = np.empty(gp.shape[:-2] + (geometry.N_PARAMS,))
        if grad.ndim == 1:  # one camera, no batch axis
            blocks = [slice(None)]
        else:
            step = max(1, JACOBIAN_BLOCK_BYTES // (gp[0].size * geometry.N_PARAMS * 8))
            blocks = [slice(lo, lo + step) for lo in range(0, len(grad), step)]
        pts = np.asarray(fiducials, dtype=float)
        per_row = pts.ndim == np.ndim(pred) + 1 and len(pts) > 1
        for rows in blocks:
            jac = geometry.project_jacobian_array(pred[rows], pts[rows] if per_row else pts)[2]
            np.einsum("...fc,...fcp->...p", gp[rows], jac, out=grad[rows])
        return grad

    return ms**0.5, backward


def compound_loss(
    pred: np.ndarray,
    gt_params: np.ndarray,
    observations: np.ndarray,
    fiducials: np.ndarray,
    image_size,
    phase: int,
):
    """Phase-dependent weighted sum; returns (total, parts dict, gradient of
    the total with respect to pred).

    Phase 1: LAM1 * (diff + geo). Phase 2 adds LAM2 * reproj. Each term's
    backward gets its weight as upstream gradient, and their gradients are
    summed as (reproj + geo) + diff, or geo + diff in phase 1.
    """
    if phase not in (1, 2):
        raise ValueError(f"phase must be 1 or 2, got {phase}")
    ldiff, diff_backward = loss_diff(pred, gt_params)
    lgeo, geo_backward = loss_geo(pred, gt_params)
    total = LAM1 * ldiff + LAM1 * lgeo
    parts = {"loss_diff": float(ldiff), "loss_geo": float(lgeo), "loss_reproj": None}
    grad = geo_backward(LAM1)
    if phase == 2:
        lrep, reproj_backward = loss_reproj(pred, observations, fiducials, image_size)
        total = total + LAM2 * lrep
        parts["loss_reproj"] = float(lrep)
        grad = reproj_backward(LAM2) + grad
    return total, parts, grad + diff_backward(LAM1)


def reprojection_rmse(pred_params: np.ndarray, observations: np.ndarray, fiducials, image_size):
    """Plain-array reprojection RMSE of predicted parameters against the
    observed pixels, penalty included. Returns (total, per_camera): the RMSE
    over every fiducial and the RMSE of each camera axis entry."""
    pix, valid = geometry.project_array(pred_params, fiducials)
    sq, _ = _squared_errors(pix, valid, observations, image_size)
    # camera axis is the second-to-last of (..., N_C, N_fid)
    axes = tuple(i for i in range(sq.ndim) if i != sq.ndim - 2)
    return float(np.sqrt(sq.mean())), np.sqrt(sq.mean(axis=axes))
