"""Adam with per-group learning rates, gradient clipping, plateau scheduling."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the shared step count."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict, state: AdamState, lr_map: dict, group_of, lr_scale: float = 1.0,
              lr_min: float = 0.0) -> None:
    """One Adam update over a dict of name -> Tensor with .grad populated.

    lr_map gives the base learning rate per group name; group_of(name)
    resolves a parameter to its group. lr_scale (from the scheduler)
    multiplies every base rate, floored at lr_min.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        lr = max(lr_map[group_of(name)] * lr_scale, lr_min)
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def clip_gradients(grads: dict, max_norm: float):
    """Scale the whole gradient set so its global L2 norm is at most max_norm.

    Direction is preserved. Returns the pre-clip norm.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    for g in grads.values():
        if g is not None:
            total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            if g is not None:
                g *= scale
    return norm


@dataclass
class PlateauScheduler:
    """Multiply the learning-rate scale by `factor` when the monitored loss
    stops improving by a relative threshold for `patience` evaluations."""

    factor: float = 0.5
    patience: int = 200
    rel_threshold: float = 1e-4
    best: float = float("inf")
    bad_count: int = 0
    lr_scale: float = 1.0

    def update(self, loss: float) -> bool:
        """Feed one monitored value; returns True when a reduction fired."""
        if loss < self.best * (1.0 - self.rel_threshold):
            self.best = loss
            self.bad_count = 0
            return False
        self.bad_count += 1
        if self.bad_count >= self.patience:
            self.lr_scale *= self.factor
            self.bad_count = 0
            return True
        return False

    def state_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_state_dict(d: dict) -> "PlateauScheduler":
        return PlateauScheduler(**d)
