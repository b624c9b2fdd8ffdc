"""The prediction's holder and the array kernels the encoder block shares.

A training step is a straight-line program: the embedding, the encoder
blocks and the heads (``nn.functional``), then the loss terms
(``losses``). Each stage computes its forward on plain arrays and returns it
with a written-out backward, a pure function from its output's gradient to
its inputs' gradients. ``PtModel.forward`` composes the stages' backwards,
in reverse, into one pullback and returns the prediction as a ``Tensor``
holding it; ``Tensor.backward(g)`` runs that pullback once and returns every
parameter's gradient as a dict of float64 arrays. The pullback frees each
stage's saved arrays as the stage's backward finishes, and nothing keeps a
gradient once the caller drops the dict. There is no graph to walk.

``Tensor`` holds a float64 array (a parameter's master copy, or the
prediction) and, for a prediction, its one-shot pullback. The parameters
stay ``Tensor`` rather than plain arrays because the benchmark assigns
``model.params[k].data`` (``bench/workloads.py``) and wraps
``autodiff.Tensor.backward`` by name (``bench/tracing.py`` and
``bench/tests/test_helpers.py``).

The kernels are softmax and layer normalization with their gradients, and
the zero-subgradient rule. Each computes in its input's dtype: float64, or
float32 where a training step runs the encoder in single precision. Every
kernel is deterministic, so a fixed step yields bitwise-identical gradients.
"""

from __future__ import annotations

import numpy as np

# Added to the variance in normalize; keeps a row of equal values finite.
LAYER_NORM_EPS = 1e-5


class Tensor:
    """A float64 array and, for a prediction, the pullback that maps its
    gradient to the parameters'. The data is float64 even when the forward
    computed in float32, and so is every gradient the pullback returns."""

    __slots__ = ("data", "_pullback")

    def __init__(self, data, pullback=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._pullback = pullback

    def backward(self, grad) -> dict:
        """Run the pullback on this tensor's gradient `grad` and return its
        result: for a prediction, name -> float64 gradient of every
        parameter, in parameter order. It runs once."""
        return self._pullback(grad)


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
