"""The network's stages: each computes its forward on plain arrays and
returns it with its written-out backward, ``(out, backward)``.

``embed`` is the embedding, ``encoder_block`` one transformer encoder
block, and ``heads`` the output head, one linear map to all 18 outputs
per camera, with the bridge to the camera model: an affine output map, the
Gram-Schmidt expansion of the 6D rotation (``rot6d_to_matrix_t``) and the
product with the reference rotations. Their affine maps are the array
kernel ``linear``, the block's norms ``layer_norm`` and its attention
weights ``autodiff.softmax``, each looked up through its module at every
call. The embedding and the encoder block compute in the dtype of their
input and weights, float64 or float32: their scalar constants are Python
floats, which NumPy's promotion rules (NEP 50) never let widen an array.
The heads run in float64 on any input dtype.

Each stage keeps only the arrays its backward needs and cannot rebuild from
the others: an encoder block's backward recomputes its two norms' outputs
(an elementwise affine map each) and its merged attention output (one
batched product) instead of keeping them, the recompute-for-memory trade of
Chen et al. 2016 (*Training Deep Nets with Sublinear Memory Cost*). A
backward maps its output's gradient to its inputs' gradients, writes into
nothing and frees nothing, so it can run again. The encoder block's keeps no
weights: its caller passes them again, ``backward(g, weights, rows)``. Every
backward takes an optional row slice, ``rows``, by default every row: g is
then the gradient of those rows of the output, and the backward reads the
same rows of what its stage saved, as views, and returns those rows' input
gradient and their share of the parameter gradients. Two calls on the
halves of a batch can run at once, one per thread (``model._backward``);
they call none of the four kernels named above, which the benchmark's
tracer wraps. Freeing is the caller's: ``model._backward`` drops each
backward, and with it the arrays its stage saved, once it has run, and
``PtModel.predict`` runs the stages with no list to keep them in, so each
backward goes as its stage returns. The arithmetic is that of the same step
composed from generic tape primitives (kept in the tests as the oracle), op
for op and in the tape's order of accumulation, so values and gradients are
bitwise equal to that composition.
"""

from __future__ import annotations

import math

import numpy as np

from .. import geometry
from ..errors import DegenerateRotation
from . import autodiff as ad


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """x @ w + b along the last axis, or x @ w when b is None.

    Leading axes are flattened around one large matrix product, which is far
    faster than numpy's batched matmul of many small blocks.
    """
    out = x.reshape(-1, x.shape[-1]) @ w
    if b is not None:
        out += b
    return out.reshape(x.shape[:-1] + (w.shape[-1],))


def linear_grad(g: np.ndarray, x: np.ndarray, w: np.ndarray, want_x=True):
    """Gradients of linear(x, w, b) for the upstream gradient g: (gx, gw, gb);
    gx is None unless want_x, and w is read only for gx."""
    gflat = g.reshape(-1, g.shape[-1])
    xflat = x.reshape(-1, x.shape[-1])
    gx = (gflat @ np.swapaxes(w, -1, -2)).reshape(x.shape) if want_x else None
    return gx, np.swapaxes(xflat, -1, -2) @ gflat, gflat.sum(axis=0)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Last-axis layer normalization, gain * (x - mean) / std + bias, and
    the normalized x and inverse deviation that its gradient needs."""
    xhat, inv_std = ad.normalize(x)
    return _scale_shift(xhat, gain, bias), xhat, inv_std


def _scale_shift(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """layer_norm's output from its normalized input, gain * xhat + bias,
    with the bias added in place."""
    out = gain * xhat
    out += bias
    return out


def embed(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """The affine embedding x @ weight + bias of the data x, and its
    backward, which returns linear_grad's (None, gw, gb): x is data, so it
    gets no gradient."""

    def backward(g, rows=slice(None)):
        return linear_grad(g, x[rows], None, False)

    return linear(x, weight, bias), backward


def _split_heads(t: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, N, D) -> (B, n_heads, N, D // n_heads) view."""
    B, N, D = t.shape
    return t.reshape(B, N, n_heads, D // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(t: np.ndarray) -> np.ndarray:
    """(B, H, N, dh) -> (B, N, H * dh), a contiguous copy."""
    B, H, N, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(B, N, H * dh)


def _attend(attn: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The merged head outputs o: the attention weights attn, (B, H, N, N),
    applied to the values v, (B, N, D)."""
    return _merge_heads(attn @ _split_heads(v, attn.shape[1]))


def encoder_block(x: np.ndarray, weights, n_heads: int):
    """One pre-norm transformer encoder block over axis 1 of x, (B, N, D),
    and its backward.

    weights: the block's 15 arrays in parameter order, (ln1 gain, ln1 bias,
    wq, bq, wk, wv, bv, wo, bo, ln2 gain, ln2 bias, ff1 weight, ff1 bias,
    ff2 weight, ff2 bias). With dh = D / n_heads and attention per head,

        a = LN1(x),  q, k, v = a @ wq + bq, a @ wk, a @ wv + bv
        x1 = x + softmax(q k^T / sqrt(dh)) v @ wo + bo
        out = x1 + relu(LN2(x1) @ ff1_w + ff1_b) @ ff2_w + ff2_b

    The keys have no bias: one would add q . bk to a whole row of scores,
    which the softmax over the row cancels (Namazifar et al., ICASSP 2023).

    The backward keeps the normalized inputs and inverse deviations of both
    norms, q, k, v, the attention weights and the ReLU output, and nothing
    else: not the weights, which the caller passes again,
    ``backward(g, weights, rows)``, so that a float32 forward need not keep
    its weight casts until the backward. It rebuilds LN1's output a, the
    merged head outputs o and LN2's output f from those and the weights,
    each through the expression the forward used, so they are bit for bit
    the forward's when the weights are. It frees nothing, so it can run more
    than once.
    """
    (g1, b1, wq, bq, wk, wv, bv, wo, bo, g2, b2, w1, c1, w2, c2) = weights
    a, xhat1, inv_std1 = layer_norm(x, g1, b1)
    q, k, v = linear(a, wq, bq), linear(a, wk), linear(a, wv, bv)
    del a
    scores = _split_heads(q, n_heads) @ _split_heads(k, n_heads).transpose(0, 1, 3, 2)
    scores *= 1.0 / math.sqrt(x.shape[-1] // n_heads)
    attn = ad.softmax(scores)
    x1 = linear(_attend(attn, v), wo, bo)
    x1 += x
    f, xhat2, inv_std2 = layer_norm(x1, g2, b2)
    h = linear(f, w1, c1)
    del f
    np.maximum(h, 0.0, out=h)
    out = linear(h, w2, c2)
    out += x1

    saved = (xhat1, inv_std1, q, k, v, attn, xhat2, inv_std2, h)

    def backward(g, weights, rows=slice(None)):
        return encoder_block_backward(g, tuple(a[rows] for a in saved), weights)

    return out, backward


def encoder_block_backward(g: np.ndarray, saved: tuple, weights: list):
    """Gradients of encoder_block for the upstream gradient g of its output.

    saved: the arrays the forward kept; weights: the 15 parameter arrays.
    Returns the gradient of x, then the 15 parameter gradients in parameter
    order; the bias sum linear_grad returns for the unbiased keys is
    dropped. Each step is the tape primitive's backward for the same step,
    including where a gradient is the sum of several: x and x1 each get the
    residual path plus their norm's, and a gets (k + v) + q. The rebuilt a,
    o and f, and each head gradient, are dropped once their last product is
    taken.
    """
    xhat1, inv_std1, q, k, v, attn, xhat2, inv_std2, h = saved
    g1, b1, wq, _, wk, wv, _, wo, _, g2, b2, w1, _, w2, _ = weights
    n_heads = attn.shape[1]

    # Feed-forward residual.
    gh, gw2, gc2 = linear_grad(g, h, w2)
    gh *= h > 0.0
    f = _scale_shift(xhat2, g2, b2)
    gf, gw1, gc1 = linear_grad(gh, f, w1)
    del gh, f
    gg2, gb2 = (gf * xhat2).sum(axis=(0, 1)), gf.sum(axis=(0, 1))
    gf *= g2
    gx1 = ad.normalize_grad(gf, xhat2, inv_std2)
    gx1 += g

    # Attention residual.
    o = _attend(attn, v)
    go, gwo, gbo = linear_grad(gx1, o, wo)
    del o
    go = _split_heads(go, n_heads)
    qh, kh, vh = _split_heads(q, n_heads), _split_heads(k, n_heads), _split_heads(v, n_heads)
    gv = _merge_heads(np.swapaxes(attn, -1, -2) @ go)
    gs = ad.softmax_grad(go @ np.swapaxes(vh, -1, -2), attn)
    del go
    gs *= 1.0 / math.sqrt(q.shape[-1] // n_heads)
    a = _scale_shift(xhat1, g1, b1)
    ga, gwv, gbv = linear_grad(gv, a, wv)
    del gv
    gk = _merge_heads((np.swapaxes(qh, -1, -2) @ gs).transpose(0, 1, 3, 2))
    ga_k, gwk, _ = linear_grad(gk, a, wk)
    del gk
    ga += ga_k
    del ga_k
    gq = _merge_heads(gs @ kh)
    del gs
    ga_q, gwq, gbq = linear_grad(gq, a, wq)
    del gq, a
    ga += ga_q
    del ga_q
    gg1, gb1 = (ga * xhat1).sum(axis=(0, 1)), ga.sum(axis=(0, 1))
    ga *= g1
    gx = ad.normalize_grad(ga, xhat1, inv_std1)
    gx += gx1
    return (gx, gg1, gb1, gwq, gbq, gwk, gwv, gbv, gwo, gbo,
            gg2, gb2, gw1, gc1, gw2, gc2)


def heads(h: np.ndarray, w: np.ndarray, b: np.ndarray, center, scale, reference_R):
    """The output head on the encoder output h, (B, N, D), and its backward,
    which returns the gradient of h, in float64, then those of w and b.

    w, b: the head's (D, 18) weight and (18,) bias, one column per output,
    in the column order r6, t, fc, pp, kc. With the constant maps center
    and scale, (N, 18), and reference rotations reference_R, (N, 3, 3),

        raw = h @ w + b
        out = center + scale * raw
        R = reference_R @ GramSchmidt(out[..., 0:6])
        pred = (R row-major, out[..., 6:])                      (B, N, 21)

    h keeps its dtype and is cast to float64 for the product, and again,
    per row slice, for the weight gradient; the cast values are the same,
    so a float32 h gives the result of its float64 copy.
    """
    raw = linear(h.astype(np.float64, copy=False), w, b)
    out = center + scale * raw
    r9, saved = rot6d_to_matrix_t(out[..., 0:6])
    batch = out.shape[:-1]
    r9 = (reference_R @ r9.reshape(batch + (3, 3))).reshape(batch + (9,))

    def backward(g, rows=slice(None)):
        batch = g.shape[:-1]
        gr9 = np.swapaxes(reference_R, -1, -2) @ g[..., 0:9].reshape(batch + (3, 3))
        ga1, ga2 = rot6d_grad(gr9.reshape(batch + (9,)), tuple(a[rows] for a in saved))
        graw = np.concatenate([ga1, ga2, g[..., 9:]], axis=-1) * scale
        return linear_grad(graw, h[rows].astype(np.float64, copy=False), w)

    return np.concatenate([r9, out[..., 6:]], axis=-1), backward


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
    rt = np.concatenate([b1, b2, geometry.cross(b1, b2)], axis=-1)
    batch = rt.shape[:-1]
    r9 = np.swapaxes(rt.reshape(batch + (3, 3)), -1, -2).reshape(batch + (9,))
    return r9, (a1, a2, n1sq, n1, b1, d, u2, n2sq, n2, b2)


def rot6d_grad(g: np.ndarray, saved: tuple):
    """Gradients of rot6d_to_matrix_t's two input columns, (..., 3) each,
    for the upstream gradient g of its (..., 9) output. Both norms exceed
    GS_EPS (rot6d_to_matrix_t checks), so their derivatives are finite."""
    a1, a2, n1sq, n1, b1, d, u2, n2sq, n2, b2 = saved
    grt = np.swapaxes(g.reshape(g.shape[:-1] + (3, 3)), -1, -2).reshape(g.shape)
    gb3 = grt[..., 6:9]
    # b3 = b1 x b2
    gb1 = grt[..., 0:3] + geometry.cross(b2, gb3)
    gb2 = grt[..., 3:6] + geometry.cross(gb3, b1)
    # b2 = u2 / n2 with n2 = (u2 . u2) ** 0.5
    gn2 = (-gb2 * u2 / (n2 * n2)).sum(axis=-1, keepdims=True)
    t = gn2 * (0.5 * n2sq**-0.5) * u2
    gu2 = gb2 / n2 + t + t
    # u2 = a2 - d * b1 with d = b1 . a2
    gd = (-gu2 * b1).sum(axis=-1, keepdims=True)
    gb1 = gb1 + -gu2 * d + gd * a2
    ga2 = gu2 + gd * b1
    # b1 = a1 / n1 with n1 = (a1 . a1) ** 0.5
    gn1 = (-gb1 * a1 / (n1 * n1)).sum(axis=-1, keepdims=True)
    t = gn1 * (0.5 * n1sq**-0.5) * a1
    return gb1 / n1 + t + t, ga2
