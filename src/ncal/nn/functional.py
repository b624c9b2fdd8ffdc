"""Differentiable building blocks composed from autodiff primitives.

Includes the bridge between the network and the camera model: an
orthogonalizing 6D-to-matrix expansion whose gradient comes from the
primitive chain rule.

The transformer encoder block is the exception: ``encoder_block`` is one
tape node whose forward keeps only the arrays its backward needs, and whose
backward, ``encoder_block_backward``, is written out. Its arithmetic is that
of the same block composed from tape primitives, step for step, so its
values and gradients are bitwise equal to that composition.
"""

from __future__ import annotations

import numpy as np

from .. import geometry
from ..errors import DegenerateRotation, ShapeMismatch
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


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b along the last axis, on x flattened to one matrix as in linear."""
    out = x.reshape(-1, x.shape[-1]) @ w
    out += b
    return out.reshape(x.shape[:-1] + (w.shape[-1],))


def _affine_grad(g: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of _affine(x, w, b) for the upstream gradient g: (gx, gw, gb)."""
    gflat = g.reshape(-1, g.shape[-1])
    xflat = x.reshape(-1, x.shape[-1])
    gx = (gflat @ np.swapaxes(w, -1, -2)).reshape(x.shape)
    return gx, np.swapaxes(xflat, -1, -2) @ gflat, gflat.sum(axis=0)


def _split_heads(t: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, N, D) -> (B, n_heads, N, D // n_heads) view."""
    B, N, D = t.shape
    return t.reshape(B, N, n_heads, D // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(t: np.ndarray) -> np.ndarray:
    """(B, H, N, dh) -> (B, N, H * dh), a contiguous copy."""
    B, H, N, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(B, N, H * dh)


def encoder_block(x: Tensor, params, n_heads: int) -> Tensor:
    """One pre-norm transformer encoder block over axis 1 of x, (B, N, D),
    as one tape node.

    params: the block's 16 tensors in parameter order, (ln1 gain, ln1 bias,
    wq, bq, wk, bk, wv, bv, wo, bo, ln2 gain, ln2 bias, ff1 weight, ff1 bias,
    ff2 weight, ff2 bias). With dh = D / n_heads and attention per head,

        a = LN1(x),  q, k, v = a @ wq + bq, a @ wk + bk, a @ wv + bv
        x1 = x + softmax(q k^T / sqrt(dh)) v @ wo + bo
        out = x1 + relu(LN2(x1) @ ff1_w + ff1_b) @ ff2_w + ff2_b

    When a gradient is wanted the node keeps the normalized inputs and
    inverse deviations of both norms, a, q, k, v, the attention weights, the
    merged head outputs o, LN2's output and the ReLU output, and nothing
    else; the backward reads the weights as they were at the forward.
    """
    (g1, b1, wq, bq, wk, bk, wv, bv, wo, bo, g2, b2, w1, c1, w2, c2) = weights = [
        p.data for p in params
    ]
    if x.data.ndim != 3 or x.data.shape[-1] % n_heads != 0:
        raise ShapeMismatch(f"encoder block expects (B, N, d_model), got {x.data.shape}")
    xhat1, inv_std1 = ad.normalize(x.data)
    a = g1 * xhat1 + b1
    q, k, v = _affine(a, wq, bq), _affine(a, wk, bk), _affine(a, wv, bv)
    scores = _split_heads(q, n_heads) @ _split_heads(k, n_heads).transpose(0, 1, 3, 2)
    scores *= 1.0 / np.sqrt(x.data.shape[-1] // n_heads)
    attn = ad.softmax_array(scores)
    o = _merge_heads(attn @ _split_heads(v, n_heads))
    x1 = _affine(o, wo, bo)
    x1 += x.data
    xhat2, inv_std2 = ad.normalize(x1)
    f = g2 * xhat2 + b2
    h = _affine(f, w1, c1)
    np.maximum(h, 0.0, out=h)
    out = _affine(h, w2, c2)
    out += x1

    parents = (x, *params)
    if not any(t.requires_grad for t in parents):
        return Tensor(out)
    saved = (xhat1, inv_std1, a, q, k, v, attn, o, xhat2, inv_std2, f, h)

    def backward(g):
        gx, grads = encoder_block_backward(g, saved, weights)
        for t, gt in zip(parents, (gx, *grads)):
            if t.requires_grad:
                t._accum(gt)

    return Tensor(out, True, parents, backward)


def encoder_block_backward(g: np.ndarray, saved: tuple, weights: list):
    """Gradients of encoder_block for the upstream gradient g of its output.

    saved: the arrays the forward kept; weights: the 16 parameter arrays.
    Returns (gradient of x, list of the 16 parameter gradients in parameter
    order). Each step is the tape primitive's backward for the same step,
    including where a gradient is the sum of several: x and x1 each get the
    residual path plus their norm's, and a gets (k + v) + q.
    """
    xhat1, inv_std1, a, q, k, v, attn, o, xhat2, inv_std2, f, h = saved
    g1, _, wq, _, wk, _, wv, _, wo, _, g2, _, w1, _, w2, _ = weights
    n_heads = attn.shape[1]

    # Feed-forward residual.
    gh, gw2, gc2 = _affine_grad(g, h, w2)
    gh *= h > 0.0
    gf, gw1, gc1 = _affine_grad(gh, f, w1)
    del gh
    gg2, gb2 = (gf * xhat2).sum(axis=(0, 1)), gf.sum(axis=(0, 1))
    gf *= g2
    gx1 = ad.normalize_grad(gf, xhat2, inv_std2)
    gx1 += g

    # Attention residual.
    go, gwo, gbo = _affine_grad(gx1, o, wo)
    go = _split_heads(go, n_heads)
    qh, kh, vh = _split_heads(q, n_heads), _split_heads(k, n_heads), _split_heads(v, n_heads)
    gv = _merge_heads(np.swapaxes(attn, -1, -2) @ go)
    gs = ad.softmax_grad(go @ np.swapaxes(vh, -1, -2), attn)
    del go
    gs *= 1.0 / np.sqrt(q.shape[-1] // n_heads)
    gq = _merge_heads(gs @ kh)
    gk = _merge_heads((np.swapaxes(qh, -1, -2) @ gs).transpose(0, 1, 3, 2))
    del gs
    ga, gwv, gbv = _affine_grad(gv, a, wv)
    ga_k, gwk, gbk = _affine_grad(gk, a, wk)
    ga += ga_k
    del ga_k
    ga_q, gwq, gbq = _affine_grad(gq, a, wq)
    ga += ga_q
    del ga_q
    gg1, gb1 = (ga * xhat1).sum(axis=(0, 1)), ga.sum(axis=(0, 1))
    ga *= g1
    gx = ad.normalize_grad(ga, xhat1, inv_std1)
    gx += gx1
    return gx, [gg1, gb1, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo,
                gg2, gb2, gw1, gc1, gw2, gc2]


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
