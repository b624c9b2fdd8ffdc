"""The network's nodes: each computes its forward on plain arrays and has a
written-out backward.

``linear`` is the embedding, ``encoder_block`` one transformer encoder
block, and ``heads`` the five output heads with the bridge to the camera
model: an affine output map, the Gram-Schmidt expansion of the 6D rotation
(``rot6d_to_matrix_t``) and the product with the reference rotations. Each
node keeps only the arrays its backward needs. The arithmetic is that of
the same step composed from generic tape primitives (kept in the tests as
the oracle), op for op and in the tape's order of accumulation, so values
and gradients are bitwise equal to that composition.
"""

from __future__ import annotations

import numpy as np

from .. import geometry
from ..errors import DegenerateRotation, ShapeMismatch
from . import autodiff as ad
from .autodiff import Tensor


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map along the last axis, x @ weight + bias, as one node.

    Leading axes are flattened around one large matrix product, which is far
    faster than numpy's batched matmul of many small blocks.
    """
    parents = (x, weight, bias)

    def backward(g):
        _accum(parents, _affine_grad(g, x.data, weight.data, x.requires_grad))

    return ad.node(_affine(x.data, weight.data, bias.data), parents, backward)


def _accum(parents, grads):
    """Hand each parent that wants a gradient its own."""
    for t, g in zip(parents, grads):
        if t.requires_grad:
            t._accum(g)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    return ad.layer_norm(x, gain, bias)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b along the last axis, on x flattened to one matrix."""
    out = x.reshape(-1, x.shape[-1]) @ w
    out += b
    return out.reshape(x.shape[:-1] + (w.shape[-1],))


def _affine_grad(g: np.ndarray, x: np.ndarray, w: np.ndarray, want_x=True):
    """Gradients of _affine(x, w, b) for the upstream gradient g: (gx, gw, gb);
    gx is None unless want_x."""
    gflat = g.reshape(-1, g.shape[-1])
    xflat = x.reshape(-1, x.shape[-1])
    gx = (gflat @ np.swapaxes(w, -1, -2)).reshape(x.shape) if want_x else None
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
    as one node.

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
    saved = (xhat1, inv_std1, a, q, k, v, attn, o, xhat2, inv_std2, f, h)

    def backward(g):
        gx, grads = encoder_block_backward(g, saved, weights)
        _accum(parents, (gx, *grads))

    return ad.node(out, parents, backward)


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


def heads(h: Tensor, params, center, scale, reference_R) -> Tensor:
    """The output heads on the encoder output h, (B, N, D), as one node.

    params: the heads' (weight, bias) pairs in output-column order, 18
    columns per camera in all (r6, t, fc, pp, kc). With raw their outputs
    side by side and the constant maps center and scale, (N, 18), and
    reference rotations reference_R, (N, 3, 3),

        out = center + scale * raw
        R = reference_R @ GramSchmidt(out[..., 0:6])
        pred = (R row-major, out[..., 6:])                      (B, N, 21)

    The backward adds the heads' input gradients last head first, the order
    of the tape composition, which keeps the sum bitwise equal to it.
    """
    ws = [p.data for p in params]
    raw = np.concatenate([_affine(h.data, w, b) for w, b in zip(ws[0::2], ws[1::2])], axis=-1)
    out = center + scale * raw
    r9, saved = rot6d_to_matrix_t(out[..., 0:6])
    batch = out.shape[:-1]
    r9 = (reference_R @ r9.reshape(batch + (3, 3))).reshape(batch + (9,))
    bounds = np.cumsum([0] + [w.shape[-1] for w in ws[0::2]])
    parents = (h, *params)

    def backward(g):
        gr9 = np.swapaxes(reference_R, -1, -2) @ g[..., 0:9].reshape(batch + (3, 3))
        ga1, ga2 = rot6d_grad(gr9.reshape(batch + (9,)), saved)
        graw = np.concatenate([ga1, ga2, g[..., 9:]], axis=-1) * scale
        grads = [None] * len(ws)
        gh = None
        for i in reversed(range(len(bounds) - 1)):
            gx, grads[2 * i], grads[2 * i + 1] = _affine_grad(
                graw[..., bounds[i] : bounds[i + 1]], h.data, ws[2 * i], h.requires_grad)
            gh = gx if gh is None else gh + gx
        _accum(parents, (gh, *grads))

    return ad.node(np.concatenate([r9, out[..., 6:]], axis=-1), parents, backward)


def rot6d_to_matrix_t(r6: np.ndarray):
    """Gram-Schmidt: 6D rotations (..., 6) to row-major matrices (..., 9),
    and the intermediates rot6d_grad needs.

    The two 3-vectors are the unnormalized first and second columns; the
    third column is their cross product. Raises DegenerateRotation when any
    first column is near zero or the columns are near parallel.
    """
    a1, a2 = r6[..., 0:3], r6[..., 3:6]
    n1sq = (a1 * a1).sum(axis=-1, keepdims=True)
    if np.any(n1sq <= geometry.GS_EPS**2):
        raise DegenerateRotation("first 6D column has near-zero norm")
    n1 = n1sq**0.5
    b1 = a1 / n1
    d = (b1 * a2).sum(axis=-1, keepdims=True)
    u2 = a2 - d * b1
    n2sq = (u2 * u2).sum(axis=-1, keepdims=True)
    if np.any(n2sq <= geometry.GS_EPS**2):
        raise DegenerateRotation("6D columns are near parallel")
    n2 = n2sq**0.5
    b2 = u2 / n2
    # Rows of the (3, 3) block are b1, b2, b3 == R^T; transpose to row-major R.
    rt = np.concatenate([b1, b2, _cross3(b1, b2)], axis=-1)
    batch = rt.shape[:-1]
    r9 = np.swapaxes(rt.reshape(batch + (3, 3)), -1, -2).reshape(batch + (9,))
    return r9, (a1, a2, n1sq, n1, b1, d, u2, n2sq, n2, b2)


def rot6d_grad(g: np.ndarray, saved: tuple):
    """Gradients of rot6d_to_matrix_t's two input columns, (..., 3) each,
    for the upstream gradient g of its (..., 9) output."""
    a1, a2, n1sq, n1, b1, d, u2, n2sq, n2, b2 = saved
    grt = np.swapaxes(g.reshape(g.shape[:-1] + (3, 3)), -1, -2).reshape(g.shape)
    gb3 = grt[..., 6:9]
    # b3 = b1 x b2
    gb1 = grt[..., 0:3] + _cross3(b2, gb3)
    gb2 = grt[..., 3:6] + _cross3(gb3, b1)
    # b2 = u2 / n2 with n2 = (u2 . u2) ** 0.5
    gn2 = (-gb2 * u2 / (n2 * n2)).sum(axis=-1, keepdims=True)
    t = gn2 * ad.subgradient(lambda: 0.5 * n2sq**-0.5, n2sq == 0.0) * u2
    gu2 = gb2 / n2 + t + t
    # u2 = a2 - d * b1 with d = b1 . a2
    gd = (-gu2 * b1).sum(axis=-1, keepdims=True)
    gb1 = gb1 + -gu2 * d + gd * a2
    ga2 = gu2 + gd * b1
    # b1 = a1 / n1 with n1 = (a1 . a1) ** 0.5
    gn1 = (-gb1 * a1 / (n1 * n1)).sum(axis=-1, keepdims=True)
    t = gn1 * ad.subgradient(lambda: 0.5 * n1sq**-0.5, n1sq == 0.0) * a1
    return gb1 / n1 + t + t, ga2


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product along the last axis (size 3)."""
    a0, a1, a2 = a[..., 0:1], a[..., 1:2], a[..., 2:3]
    b0, b1, b2 = b[..., 0:1], b[..., 1:2], b[..., 2:3]
    return np.concatenate([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)
