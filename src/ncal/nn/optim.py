"""Adam with per-group learning rates, gradient clipping, plateau scheduling."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import parallel

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Parameter values from which adam_step updates them in two parts, one on
# each core; below it the calling thread updates them all. Medians of 16
# interleaved steps (2 cores), two parts against one: 1.19 against 1.02 ms
# at 72 k values, 3.9 against 5.0 ms at 274 k, 106 against 180 ms at the
# paper's 8.4 M.
_SPLIT_MIN_VALUES = 1 << 17

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


def adam_step(params: dict, grads: dict, state: AdamState, lr_map: dict, group_of,
              lr_scale: float = 1.0, lr_min: float = 0.0) -> None:
    """One Adam update, in place, of params (name -> float64 array) by grads
    (name -> float64 gradient array of the parameter's shape).

    lr_map gives the base learning rate per group name; group_of(name)
    resolves a parameter to its group. lr_scale (from the scheduler)
    multiplies every base rate, floored at lr_min. Raises ValueError, with
    the parameters and state untouched, when any resulting rate is not
    finite or is negative, when group_of names a group lr_map lacks, when
    grads names other parameters than params, or when a parameter and its
    gradient are not float64 arrays of one shape.

    Each parameter and its moments are written in their own arrays. From
    _SPLIT_MIN_VALUES values on, the kept worker updates the parameters
    after the first array boundary past half the values while the calling
    thread updates the rest (parallel.on_both_cores); the arithmetic per
    parameter is the same either way, so the result is bitwise the same. If
    the update raises partway, on either path, the parameters it had reached
    stay updated with their moments.
    """
    rates = {group: max(base * lr_scale, lr_min) for group, base in lr_map.items()}
    bad = {group: lr for group, lr in rates.items() if not 0.0 <= lr < np.inf}
    if bad:
        raise ValueError(f"learning rates must be finite and >= 0, got {bad}")
    rate = {name: rates.get(group_of(name)) for name in params}
    unknown = [name for name, r in rate.items() if r is None]
    if unknown:
        raise ValueError(f"lr_map has no rate for the groups of {unknown}")
    if grads.keys() != params.keys():
        raise ValueError(
            f"gradients missing for {sorted(params.keys() - grads.keys())}, "
            f"given for unknown {sorted(grads.keys() - params.keys())}")
    wrong = [name for name, g in grads.items()
             if not all(isinstance(a, np.ndarray) and a.dtype == np.float64
                        for a in (params[name], g)) or params[name].shape != g.shape]
    if wrong:
        raise ValueError(f"parameters and gradients must be float64 arrays of one shape: {wrong}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)

    def update(names):
        for name in names:
            g, m, v = grads[name], state.m[name], state.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            params[name] -= rate[name] * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    names = list(params)
    sizes = [p.size for p in params.values()]
    if sum(sizes) < _SPLIT_MIN_VALUES:
        update(names)
    else:
        cut = parallel.split_point(sizes)
        parallel.on_both_cores((update, names[:cut]), (update, names[cut:]))


def clip_gradients(grads: dict, max_norm: float):
    """Scale the whole gradient set so its global L2 norm is at most max_norm.

    The squares are summed in grads' order. Direction is preserved;
    max_norm = inf never clips. Returns the pre-clip norm.
    """
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm!r}")
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
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
        """The scheduler a state_dict() describes. Raises ValueError unless d
        holds exactly best, a float but not NaN, bad_count, an int in
        [0, PLATEAU_PATIENCE), and lr_scale, a finite float >= 0, so a
        damaged state fails where it is read."""
        if not isinstance(d, dict) or d.keys() != {"best", "bad_count", "lr_scale"}:
            raise ValueError(f"scheduler state must hold exactly best, bad_count and lr_scale, "
                             f"got {d!r}")
        s = PlateauScheduler(**d)
        if not all(isinstance(v, float) for v in (s.best, s.lr_scale)):
            raise ValueError(f"scheduler best and lr_scale must be floats, got {d!r}")
        if np.isnan(s.best):
            raise ValueError("scheduler best must not be NaN")
        if (isinstance(s.bad_count, bool) or not isinstance(s.bad_count, int)
                or not 0 <= s.bad_count < PLATEAU_PATIENCE):
            raise ValueError(
                f"scheduler bad_count must be an int in [0, {PLATEAU_PATIENCE}), "
                f"got {s.bad_count!r}")
        if not 0.0 <= s.lr_scale < np.inf:
            raise ValueError(f"scheduler lr_scale must be finite and >= 0, got {s.lr_scale!r}")
        return s
