"""The generic reverse-mode tape: the test oracle for the package's nodes.

Each op below records one node on ``ncal.nn.autodiff.Tensor``'s tape with
the textbook gradient closure, and ``Tensor`` here adds the operator sugar.
Composed from them are the references the package's written-out nodes must
equal bit for bit: ``linear``, ``rot6d_to_matrix_t`` with ``cross3_t``,
``geodesic_angles_t``, ``heads``, ``forward``, ``loss_diff``, ``loss_geo``
and ``compound_loss``, each as the package computed it before it became one
node. Binary elementwise operations broadcast like numpy; gradients are
summed back over the broadcast axes.

A package node's output has no operators; ``as_tape`` passes it through one
identity node, which leaves every value and gradient bitwise unchanged.
"""

from __future__ import annotations

import numpy as np

from ncal import geometry
from ncal.errors import DegenerateRotation, ShapeMismatch
from ncal.losses import LAM1, LAM2, PARAM_SCALE, loss_reproj
from ncal.nn import autodiff as ad
from ncal.nn.autodiff import _unbroadcast, subgradient
from ncal.nn.model import HEADS


class Tensor(ad.Tensor):
    """A tape node with operator sugar."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True)


def _lift(x):
    return x if isinstance(x, ad.Tensor) else constant(x)


def _node(data, parents, backward):
    """Wrap an op result; drops the backward closure for constant subgraphs."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data, requires_grad=False)


def as_tape(t) -> Tensor:
    """t as a Tensor of this module: itself, or an identity node over a
    package Tensor (a leaf or a node's output), so the operators apply."""
    if isinstance(t, Tensor):
        return t
    t = _lift(t)
    return _node(t.data, (t,), t._accum)


# -- elementwise primitives ----------------------------------------------


def add(a, b) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.data.shape))

    return _node(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(a.data / b.data, (a, b), backward)


def neg(a) -> Tensor:
    def backward(g):
        a._accum(-g)

    return _node(-a.data, (a,), backward)


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent; for p < 1 the gradient at
    a == 0 is the zero subgradient. Square roots are written a**0.5."""
    p = float(p)

    def backward(g):
        singular = a.data == 0.0 if p < 1.0 else False
        a._accum(g * subgradient(lambda: p * a.data ** (p - 1.0), singular))

    return _node(a.data**p, (a,), backward)


def relu(a) -> Tensor:
    def backward(g):
        a._accum(g * (a.data > 0.0))

    return _node(np.maximum(a.data, 0.0), (a,), backward)


def acos(a) -> Tensor:
    """arccos with the argument clamped to [-1, 1].

    The forward value is exact at the clamp boundaries (0 and pi). Wherever
    the argument is at or past the clamp the gradient is zero, the true
    derivative of the clamped function, so coincident rotations contribute
    no gradient.
    """
    xc = np.clip(a.data, -1.0, 1.0)

    def backward(g):
        a._accum(g * subgradient(lambda: -1.0 / np.sqrt(1.0 - xc * xc), np.abs(a.data) >= 1.0))

    return _node(np.arccos(xc), (a,), backward)


# -- reductions and shape ops ----------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.data.shape).copy())

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return tsum(a, axis, keepdims) * (1.0 / n)


def reshape(a, shape) -> Tensor:
    def backward(g):
        a._accum(g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), backward)


def transpose(a, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        a._accum(g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), backward)


def getitem(a, idx) -> Tensor:
    """Basic (slice/int) indexing; gradients scatter back into place."""

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[idx] += g
        a._accum(buf)

    return _node(a.data[idx], (a,), backward)


def concat(tensors, axis=-1) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accum(g[tuple(idx)])

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def matmul(a, b) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeMismatch("matmul operands must have at least 2 dimensions")
    try:
        out_data = a.data @ b.data
    except ValueError as e:
        raise ShapeMismatch(str(e)) from e

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(out_data, (a, b), backward)


def softmax(a, axis=-1) -> Tensor:
    return as_tape(ad.softmax(a, axis))


def layer_norm(x, gain, bias) -> Tensor:
    return as_tape(ad.layer_norm(x, gain, bias))


# -- references composed from the ops above --------------------------------


def linear(x, weight, bias) -> Tensor:
    """Affine map along the last axis: x @ weight + bias.

    Leading axes are flattened around one large matrix product, which is far
    faster than numpy's batched matmul of many small blocks.
    """
    x = as_tape(x)
    shape = x.data.shape
    if x.data.ndim == 2:
        return x @ weight + bias
    flat = x.reshape((-1, shape[-1]))
    out = flat @ weight + bias
    return out.reshape(shape[:-1] + (weight.data.shape[-1],))


def rot6d_to_matrix_t(r6) -> Tensor:
    """Differentiable Gram-Schmidt: (..., 6) -> (..., 9) row-major rotation.

    The two 3-vectors are the unnormalized first and second columns; the
    third column is their Gram-Schmidt cross product. Raises
    DegenerateRotation when any first column is near zero or the columns
    are near parallel.
    """
    r6 = as_tape(r6)
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
    cols = concat([b1, b2, b3], axis=-1)
    batch = cols.data.shape[:-1]
    rt = cols.reshape(batch + (3, 3))
    ndim = len(batch) + 2
    r = rt.transpose(tuple(range(ndim - 2)) + (ndim - 1, ndim - 2))
    return r.reshape(batch + (9,))


def cross3_t(a, b) -> Tensor:
    """Cross product along the last axis (size 3)."""
    a0, a1, a2 = a[..., 0:1], a[..., 1:2], a[..., 2:3]
    b0, b1, b2 = b[..., 0:1], b[..., 1:2], b[..., 2:3]
    return concat([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def geodesic_angles_t(pred_r9, gt_r9) -> Tensor:
    """Per-camera rotation angle between predicted and target rotations.

    Both arguments are (..., 9) row-major matrices; the target is constant.
    Uses trace(R1^T R2) = sum of elementwise products.
    """
    pred_r9 = as_tape(pred_r9)
    gt = gt_r9 if isinstance(gt_r9, ad.Tensor) else constant(gt_r9)
    tr = (pred_r9 * gt).sum(axis=-1)
    return acos((tr - 1.0) * 0.5)


def heads(model, h) -> Tensor:
    """The model's heads on the encoder output h: five linear heads, the
    affine output map, Gram-Schmidt and the reference rotation product."""
    h = as_tape(h)
    raw = concat([
        linear(h, model.params[f"head_{nm}_w"], model.params[f"head_{nm}_b"])
        for nm in HEADS
    ], axis=-1)
    out = constant(model._center) + constant(model._scale) * raw
    batch = out.data.shape[:-1]
    r_delta = rot6d_to_matrix_t(out[..., 0:6]).reshape(batch + (3, 3))
    r9 = (constant(model._reference_R) @ r_delta).reshape(batch + (9,))
    return concat([r9, out[..., 6:]], axis=-1)


def forward(model, X) -> Tensor:
    """PtModel.forward composed from this tape around the encoder blocks."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 3:
        X = X[None]
    cfg = model.config
    flat = constant(model.normalize_input(X).reshape(X.shape[0], cfg.n_cameras, -1))
    h = linear(flat, model.params["embed_w"], model.params["embed_b"])
    h = h + constant(model.cie)
    return heads(model, model.encode(h))


def loss_diff(pred, gt_params) -> Tensor:
    """RMSE over all PARAM_SCALE-scaled parameter entries, pooled over the
    whole batch."""
    pred = as_tape(pred)
    d = (pred - constant(gt_params)) * constant(PARAM_SCALE)
    return (d * d).mean() ** 0.5


def loss_geo(pred, gt_params) -> Tensor:
    """Mean geodesic angle between predicted and ground-truth rotations."""
    pred = as_tape(pred)
    gt_rot = np.asarray(gt_params, dtype=float)[..., geometry.ROT_SLICE]
    angles = geodesic_angles_t(pred[..., geometry.ROT_SLICE], gt_rot)
    return angles.mean()


def compound_loss(pred, gt_params, observations, fiducials, image_size, phase):
    """losses.compound_loss with the weighted sum composed on this tape."""
    ldiff = loss_diff(pred, gt_params)
    lgeo = loss_geo(pred, gt_params)
    total = LAM1 * ldiff + LAM1 * lgeo
    parts = {"loss_diff": float(ldiff.data), "loss_geo": float(lgeo.data), "loss_reproj": None}
    if phase == 2:
        lrep = loss_reproj(pred, observations, fiducials, image_size)
        total = total + LAM2 * as_tape(lrep)
        parts["loss_reproj"] = float(lrep.data)
    return total, parts
