"""The generic reverse-mode tape: the test oracle for the package's stages.

``Tensor`` here records one node per op: the parent tensors and the
textbook gradient closure, which returns one gradient per parent.
``Tensor.backward()`` walks the recorded nodes once in reverse topological
order, detecting cycles, and adds each returned gradient into every parent
created with ``requires_grad=True``, in the walk's order where several
nodes feed one tensor. Composed from the ops below are the references the
package's written-out stages must equal bit for bit: ``linear``,
``rot6d_to_matrix_t`` with ``cross3_t``, ``geodesic_angles_t``, ``heads``,
``forward``, ``loss_diff``, ``loss_geo`` and ``compound_loss``, each as the
package computed it before it became one stage. ``softmax`` and
``layer_norm`` are one node each over the package's array kernels, as the
encoder block's reference uses them, and ``encode`` and ``loss_reproj`` one
node each over the package's stage and its backward. Binary elementwise
operations broadcast like numpy; gradients are summed back over the
broadcast axes.

The compositions over a model read its parameters from ``model.params``;
``on_tape`` makes those tape leaves over the model's own arrays.
"""

from __future__ import annotations

import numpy as np

from ncal import geometry, losses
from ncal.errors import DegenerateRotation, NcalError, ShapeMismatch
from ncal.losses import LAM1, LAM2, PARAM_SCALE
from ncal.nn import autodiff as ad
from ncal.nn import functional as F
from ncal.nn.autodiff import subgradient


class GraphCycle(NcalError):
    """The tape contains a cycle (impossible through the ops; indicates a bug)."""


class Tensor:
    """A node of the tape: value, gradient slot, and provenance, with
    operator sugar."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward

    def _accum(self, g):
        self.grad = g if self.grad is None else self.grad + g

    def backward(self, grad=None):
        """Populate .grad for every requires_grad tensor reachable from here."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeMismatch("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        self._accum(np.asarray(grad, dtype=np.float64))
        if not self.requires_grad:
            return
        # Iterative DFS: topological order with cycle detection. State is
        # 0 while a node is on the stack, 1 once all parents are emitted.
        order = []
        state = {id(self): 0}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            pushed = False
            for p in parents:
                if not p.requires_grad:
                    continue
                s = state.get(id(p))
                if s == 0:
                    raise GraphCycle("cycle detected in autodiff graph")
                if s is None:
                    state[id(p)] = 0
                    stack.append((p, iter(p._parents)))
                    pushed = True
                    break
            if not pushed:
                state[id(node)] = 1
                order.append(node)
                stack.pop()
        for node in reversed(order):
            if node._backward is not None:
                for p, g in zip(node._parents, node._backward(node.grad), strict=True):
                    if g is not None and p.requires_grad:
                        p._accum(g)
            if node._parents:
                # interior node: its gradient has been fully consumed
                node.grad = None

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


def on_tape(model):
    """Replace the model's parameters by tape leaves over the same arrays and
    return the model. The package reads a parameter's .data, which a tape
    leaf has too."""
    model.params = {k: Tensor(t.data, requires_grad=True) for k, t in model.params.items()}
    return model


def _lift(x):
    return x if isinstance(x, Tensor) else constant(x)


def _node(data, parents, backward):
    """Wrap an op result; drops the backward closure for constant subgraphs."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data, requires_grad=False)


def _stage(x, stage, *args):
    """A package stage, out, backward = stage(x.data, *args), as one node
    over x whose gradient is backward's."""
    out, backward = stage(x.data, *args)
    return _node(out, (x,), lambda g: (backward(g),))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g back down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise primitives ----------------------------------------------


def add(a, b) -> Tensor:
    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _node(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    def backward(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _node(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    def backward(g):
        return (_unbroadcast(g / b.data, a.data.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(a.data / b.data, (a, b), backward)


def neg(a) -> Tensor:
    def backward(g):
        return (-g,)

    return _node(-a.data, (a,), backward)


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent; for p < 1 the gradient at
    a == 0 is the zero subgradient. Square roots are written a**0.5."""
    p = float(p)

    def backward(g):
        singular = a.data == 0.0 if p < 1.0 else False
        return (g * subgradient(lambda: p * a.data ** (p - 1.0), singular),)

    return _node(a.data**p, (a,), backward)


def relu(a) -> Tensor:
    def backward(g):
        return (g * (a.data > 0.0),)

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
        return (g * subgradient(lambda: -1.0 / np.sqrt(1.0 - xc * xc), np.abs(a.data) >= 1.0),)

    return _node(np.arccos(xc), (a,), backward)


# -- reductions and shape ops ----------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return tsum(a, axis, keepdims) * (1.0 / n)


def reshape(a, shape) -> Tensor:
    def backward(g):
        return (g.reshape(a.data.shape),)

    return _node(a.data.reshape(shape), (a,), backward)


def transpose(a, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return _node(a.data.transpose(axes), (a,), backward)


def getitem(a, idx) -> Tensor:
    """Basic (slice/int) indexing; gradients scatter back into place."""

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[idx] += g
        return (buf,)

    return _node(a.data[idx], (a,), backward)


def concat(tensors, axis=-1) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])

    def backward(g):
        return np.split(g, offsets[:-1], axis=axis)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def matmul(a, b) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeMismatch("matmul operands must have at least 2 dimensions")
    try:
        out_data = a.data @ b.data
    except ValueError as e:
        raise ShapeMismatch(str(e)) from e

    def backward(g):
        return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape),
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(out_data, (a, b), backward)


def softmax(a, axis=-1) -> Tensor:
    """Numerically-stable softmax as one node; rows along `axis` sum to 1."""
    s = ad.softmax(a.data, axis)

    def backward(g):
        return (ad.softmax_grad(g, s, axis),)

    return _node(s, (a,), backward)


def layer_norm(x, gain, bias) -> Tensor:
    """Fused last-axis layer normalization as one node:
    gain * (x - mean) / std + bias."""
    out, xhat, inv_std = F.layer_norm(x.data, gain.data, bias.data)

    def backward(g):
        return (ad.normalize_grad(g * gain.data, xhat, inv_std),
                _unbroadcast(g * xhat, gain.data.shape), _unbroadcast(g, bias.data.shape))

    return _node(out, (x, gain, bias), backward)


# -- references composed from the ops above --------------------------------


def linear(x, weight, bias) -> Tensor:
    """Affine map along the last axis: x @ weight + bias.

    Leading axes are flattened around one large matrix product, which is far
    faster than numpy's batched matmul of many small blocks.
    """
    x = _lift(x)
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
    r6 = _lift(r6)
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
    pred_r9 = _lift(pred_r9)
    tr = (pred_r9 * _lift(gt_r9)).sum(axis=-1)
    return acos((tr - 1.0) * 0.5)


def heads(model, h) -> Tensor:
    """The model's head on the encoder output h: one linear map to the 18
    outputs, the affine output map, Gram-Schmidt and the reference rotation
    product."""
    raw = linear(_lift(h), model.params["head_w"], model.params["head_b"])
    out = constant(model._center) + constant(model._scale) * raw
    batch = out.data.shape[:-1]
    r_delta = rot6d_to_matrix_t(out[..., 0:6]).reshape(batch + (3, 3))
    r9 = (constant(model._reference_R) @ r_delta).reshape(batch + (9,))
    return concat([r9, out[..., 6:]], axis=-1)


def forward(model, X) -> Tensor:
    """PtModel.forward composed from this tape around the encoder blocks."""
    X = np.asarray(X, dtype=np.float64)
    cfg = model.config
    flat = constant(model.normalize_input(X).reshape(X.shape[0], cfg.n_cameras, -1))
    h = linear(flat, model.params["embed_w"], model.params["embed_b"])
    h = h + constant(model.cie)
    return heads(model, encode(model, h))


def encode(model, x) -> Tensor:
    """The model's encoder stack as one node over x and the block
    parameters, whose gradients its pullback returns with x's."""
    names = [k for k in model.params if k.startswith("layer")]
    out, pullback = model.encode(x.data)

    def backward(g):
        gx, grads = pullback(g)
        return (gx, *(grads[k] for k in names))

    return _node(out, (x, *(model.params[k] for k in names)), backward)


def loss_diff(pred, gt_params) -> Tensor:
    """RMSE over all PARAM_SCALE-scaled parameter entries, pooled over the
    whole batch."""
    pred = _lift(pred)
    d = (pred - constant(gt_params)) * constant(PARAM_SCALE)
    return (d * d).mean() ** 0.5


def loss_geo(pred, gt_params) -> Tensor:
    """Mean geodesic angle between predicted and ground-truth rotations."""
    pred = _lift(pred)
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
        total = total + LAM2 * lrep
        parts["loss_reproj"] = float(lrep.data)
    return total, parts


def loss_reproj(pred, observations, fiducials, image_size) -> Tensor:
    """The package's reprojection term as one node over pred."""
    return _stage(_lift(pred), losses.loss_reproj, observations, fiducials, image_size)
