"""Reverse-mode automatic differentiation on dense float64 numpy arrays.

A Tensor wraps an ndarray plus the record of the primitive operation that
produced it (parents + a gradient closure). The implicit graph is the tape:
``Tensor.backward()`` walks it once in reverse topological order and
accumulates gradients into every tensor created with ``requires_grad=True``.

Gradient closures receive the upstream gradient as an argument and reference
only their parent tensors, never their output, so finished graphs are free
of reference cycles and are reclaimed immediately by reference counting.

Binary elementwise operations broadcast like numpy; gradients are summed
back over the broadcast axes. All data is float64 and every operation is
deterministic, so a fixed graph yields bitwise-identical gradients.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphCycle, ShapeMismatch

# Added to the variance in layer_norm; keeps a row of equal values finite.
LAYER_NORM_EPS = 1e-5


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


class Tensor:
    """A node of the autodiff tape: value, gradient slot, and provenance."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

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
                node._backward(node.grad)
            if node._parents:
                # interior node: its gradient has been fully consumed
                node.grad = None

    # -- operator sugar -------------------------------------------------

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
    return x if isinstance(x, Tensor) else constant(x)


def _node(data, parents, backward):
    """Wrap an op result; drops the backward closure for constant subgraphs."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data, requires_grad=False)


# -- elementwise primitives ----------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.data.shape))

    return _node(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(a.data / b.data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        a._accum(-g)

    return _node(-a.data, (a,), backward)


def subgradient(derivative, singular) -> np.ndarray:
    """Evaluate a local derivative, taking 0 wherever `singular` is set.

    This is the one convention for every op whose derivative is infinite or
    undefined at an edge of its domain (a**p with p < 1 at 0, acos at or
    past the clamp, the square root in ``losses.loss_reproj``): the gradient
    there is the zero subgradient, so a residual that is exactly zero
    contributes nothing instead of inf/NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        d = derivative()
    return np.where(singular, 0.0, d)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent; for p < 1 the gradient at
    a == 0 is the zero subgradient. Square roots are written a**0.5."""
    p = float(p)

    def backward(g):
        singular = a.data == 0.0 if p < 1.0 else False
        a._accum(g * subgradient(lambda: p * a.data ** (p - 1.0), singular))

    return _node(a.data**p, (a,), backward)


def relu(a: Tensor) -> Tensor:
    def backward(g):
        a._accum(g * (a.data > 0.0))

    return _node(np.maximum(a.data, 0.0), (a,), backward)


def acos(a: Tensor) -> Tensor:
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


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.data.shape).copy())

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return tsum(a, axis, keepdims) * (1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        a._accum(g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        a._accum(g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), backward)


def getitem(a: Tensor, idx) -> Tensor:
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
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


def softmax(a: Tensor, axis=-1) -> Tensor:
    """Numerically-stable softmax; rows along `axis` sum to 1."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        a._accum(s * (g - (g * s).sum(axis=axis, keepdims=True)))

    return _node(s, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Fused last-axis layer normalization: gain * (x - mean) / std + bias."""
    n = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv_std

    def backward(g):
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gx = g * gain.data
            x._accum(
                inv_std
                * (
                    gx
                    - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
                )
            )

    return _node(gain.data * xhat + bias.data, (x, gain, bias), backward)
