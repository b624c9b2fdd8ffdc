"""Adam with per-group learning rates, gradient clipping, plateau scheduling."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Plateau schedule: the learning-rate scale is multiplied by PLATEAU_FACTOR
# once the monitored loss has failed to improve on its best value by the
# relative margin PLATEAU_REL_THRESHOLD for PLATEAU_PATIENCE updates.
PLATEAU_FACTOR = 0.5
PLATEAU_PATIENCE = 200
PLATEAU_REL_THRESHOLD = 1e-4


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
    multiplies every base rate, floored at lr_min. Raises ValueError, with
    the parameters and state untouched, when any resulting rate is not
    finite or is negative.
    """
    rates = {group: max(base * lr_scale, lr_min) for group, base in lr_map.items()}
    bad = {group: lr for group, lr in rates.items() if not 0.0 <= lr < np.inf}
    if bad:
        raise ValueError(f"learning rates must be finite and >= 0, got {bad}")
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
        p.data = p.data - rates[group_of(name)] * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def clip_gradients(grads: dict, max_norm: float):
    """Scale the whole gradient set so its global L2 norm is at most max_norm.

    Direction is preserved; max_norm = inf never clips. Returns the pre-clip
    norm.
    """
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm!r}")
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
    """Multiply the learning-rate scale by PLATEAU_FACTOR when the monitored
    loss stops improving by PLATEAU_REL_THRESHOLD (relative) for
    PLATEAU_PATIENCE updates. Holds only the schedule's state."""

    best: float = float("inf")
    bad_count: int = 0
    lr_scale: float = 1.0

    def update(self, loss: float) -> bool:
        """Feed one monitored value; returns True when a reduction fired."""
        if loss < self.best * (1.0 - PLATEAU_REL_THRESHOLD):
            self.best = loss
            self.bad_count = 0
            return False
        self.bad_count += 1
        if self.bad_count >= PLATEAU_PATIENCE:
            self.lr_scale *= PLATEAU_FACTOR
            self.bad_count = 0
            return True
        return False

    def state_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_state_dict(d: dict) -> "PlateauScheduler":
        return PlateauScheduler(**d)
