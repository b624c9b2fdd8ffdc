"""Differentiable building blocks composed from autodiff primitives.

Includes the bridge between the network and the camera model: an
orthogonalizing 6D-to-matrix expansion whose gradient comes from the
primitive chain rule, and a fiducial-projection op whose backward pass uses
the analytic projection Jacobian.
"""

from __future__ import annotations

import numpy as np

from .. import geometry
from ..errors import DegenerateRotation
from . import autodiff as ad
from .autodiff import Tensor


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map along the last axis: x @ weight + bias.

    Leading axes are flattened around one large matrix product, which is far
    faster than numpy's batched matmul of many small blocks.
    """
    shape = x.data.shape
    if x.data.ndim == 2:
        return x @ weight + bias
    flat = x.reshape((-1, shape[-1]))
    out = flat @ weight + bias
    return out.reshape(shape[:-1] + (weight.data.shape[-1],))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    return ad.layer_norm(x, gain, bias)


def rot6d_to_matrix_t(r6: Tensor) -> Tensor:
    """Differentiable Gram-Schmidt: (..., 6) -> (..., 9) row-major rotation.

    The two 3-vectors are the unnormalized first and second columns; the
    third column is their Gram-Schmidt cross product. Raises
    DegenerateRotation when any first column is near zero or the columns
    are near parallel.
    """
    a1 = r6[..., 0:3]
    a2 = r6[..., 3:6]
    n1sq = (a1 * a1).sum(axis=-1, keepdims=True)
    if np.any(n1sq.data <= geometry.GS_EPS**2):
        raise DegenerateRotation("first 6D column has near-zero norm")
    b1 = a1 / n1sq**0.5
    d = (b1 * a2).sum(axis=-1, keepdims=True)
    u2 = a2 - d * b1
    n2sq = (u2 * u2).sum(axis=-1, keepdims=True)
    if np.any(n2sq.data <= geometry.GS_EPS**2):
        raise DegenerateRotation("6D columns are near parallel")
    b2 = u2 / n2sq**0.5
    b3 = cross3_t(b1, b2)
    # Rows of the (3, 3) block are b1, b2, b3 == R^T; transpose to row-major R.
    cols = ad.concat([b1, b2, b3], axis=-1)
    batch = cols.data.shape[:-1]
    rt = cols.reshape(batch + (3, 3))
    ndim = len(batch) + 2
    r = rt.transpose(tuple(range(ndim - 2)) + (ndim - 1, ndim - 2))
    return r.reshape(batch + (9,))


def cross3_t(a: Tensor, b: Tensor) -> Tensor:
    """Cross product along the last axis (size 3)."""
    a0, a1, a2 = a[..., 0:1], a[..., 1:2], a[..., 2:3]
    b0, b1, b2 = b[..., 0:1], b[..., 1:2], b[..., 2:3]
    return ad.concat([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def geodesic_angles_t(pred_r9: Tensor, gt_r9) -> Tensor:
    """Per-camera rotation angle between predicted and target rotations.

    Both arguments are (..., 9) row-major matrices; the target is constant.
    Uses trace(R1^T R2) = sum of elementwise products.
    """
    gt = gt_r9 if isinstance(gt_r9, Tensor) else ad.constant(gt_r9)
    tr = (pred_r9 * gt).sum(axis=-1)
    return ad.acos((tr - 1.0) * 0.5)


def project_fiducials_t(params: Tensor, fiducials: np.ndarray):
    """Project fiducials through predicted cameras, differentiably.

    params: (..., 21) flattened camera parameters (Tensor).
    fiducials: (N_fid, 3) constant world points.

    Returns (pixels, valid): pixels is a (..., N_fid, 2) Tensor whose backward
    pass contracts the upstream gradient with the analytic projection
    Jacobian; valid is a constant bool array marking points in front of the
    camera. Gradients through invalid points are zeroed (their forward values
    are computed with clamped depth and should be masked by the caller).
    """
    fid = np.asarray(fiducials, dtype=np.float64)
    pix, valid, jac = geometry.project_jacobian_array(params.data, fid)

    def backward(g):
        # (..., F, 2, 21) contracted with upstream (..., F, 2) over (F, 2).
        params._accum(np.einsum("...fc,...fcp->...p", g * valid[..., None], jac))

    out = ad.Tensor(
        pix,
        requires_grad=params.requires_grad,
        parents=(params,),
        backward=backward if params.requires_grad else None,
    )
    return out, valid

