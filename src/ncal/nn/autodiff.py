"""Reverse-mode gradients over nodes with written-out backward passes.

A Tensor holds a float64 ndarray, its gradient slot, and the record of the
node that produced it: the parent tensors and a gradient closure. The
network's nodes (``nn.functional``: the embedding, each encoder block, the
output heads; ``losses``: each loss term and their weighted total) each
compute their forward on plain arrays and write their backward out.
``Tensor.backward()`` walks the recorded nodes once in reverse topological
order. A node's gradient closure maps the upstream gradient to one gradient
per parent, in parent order (None for none), and writes into no tensor: the
walker alone adds them into every parent created with ``requires_grad=True``,
in the walk's order where several nodes feed one tensor. Closures reference
only their parent tensors, never their output, so finished graphs are free
of reference cycles and are reclaimed immediately by reference counting.

Besides the holder, ``node`` and the walker, this module keeps the array
kernels the encoder block shares: softmax and layer normalization with their
gradients, and the zero-subgradient rule. All data is float64 and every
kernel is deterministic, so a fixed graph yields bitwise-identical gradients.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphCycle, ShapeMismatch

# Added to the variance in normalize; keeps a row of equal values finite.
LAYER_NORM_EPS = 1e-5


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
                for p, g in zip(node._parents, node._backward(node.grad), strict=True):
                    if g is not None and p.requires_grad:
                        p._accum(g)
            if node._parents:
                # interior node: its gradient has been fully consumed
                node.grad = None


def node(data, parents, backward) -> Tensor:
    """A node over `parents` whose backward(g) returns their gradients; a
    constant, with no parents or closure, when none of them needs one."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data, requires_grad=False)


def subgradient(derivative, singular) -> np.ndarray:
    """Evaluate a local derivative, taking 0 wherever `singular` is set.

    This is the one convention for every derivative that is infinite or
    undefined at an edge of its domain (a square root at 0, acos at or past
    the clamp in ``losses.loss_geo``): the gradient there is the zero
    subgradient, so a residual that is exactly zero contributes nothing
    instead of inf/NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        d = derivative()
    return np.where(singular, 0.0, d)


def softmax(a: np.ndarray, axis=-1) -> np.ndarray:
    """Numerically-stable softmax of a plain array; rows along `axis` sum to 1."""
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax_grad(g: np.ndarray, s: np.ndarray, axis=-1) -> np.ndarray:
    """Gradient through softmax output `s` for the upstream gradient g."""
    return s * (g - (g * s).sum(axis=axis, keepdims=True))


def normalize(x: np.ndarray):
    """Last-axis (x - mean) / sqrt(var + LAYER_NORM_EPS), and the
    1 / sqrt(var + LAYER_NORM_EPS) factor, (..., 1), that it applied."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xc *= inv_std
    return xc, inv_std


def normalize_grad(gx: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """Gradient through normalize for the upstream gradient gx of its output
    xhat; overwrites gx."""
    mean_g = gx.mean(axis=-1, keepdims=True)
    mean_gxhat = (gx * xhat).mean(axis=-1, keepdims=True)
    gx -= mean_g
    gx -= xhat * mean_gxhat
    gx *= inv_std
    return gx
