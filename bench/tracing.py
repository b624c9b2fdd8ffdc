"""In-memory span tracing around the public functions of each ncal layer.

The package itself carries no tracing. A traced run installs wrappers from
this file at the module attributes where callers look the functions up,
records one span per call, and removes the wrappers afterwards, so an
untraced run executes the unmodified package.

A span is ``[name, start, end, parent, group]``: start and end are
``time.perf_counter()`` seconds, parent is the index of the enclosing span
(or -1), and group is the id of the epoch or capture the span belongs to, so
spans of one step share an id. Spans stay in memory until ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

NAME, START, END, PARENT, GROUP = range(5)


class Tracer:
    """Span recorder; ``group`` tags new spans, ``window`` marks the measured loop."""

    def __init__(self):
        self.spans = []
        self.in_window = []
        self.counts = defaultdict(float)
        self.group = None
        self.window = False
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.group])
        self.in_window.append(self.window)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]!r} closed out of order")
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a counter; counters follow the window like spans do."""
        if self.window:
            self.counts[name] += value

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "group"],
                       "spans": self.spans, "counts": dict(self.counts)}, f)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans, keep=None):
    """Per span: duration minus the part its child spans cover.

    keep(name) selects which children count; by default all do.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0 and (keep is None or keep(s[NAME])):
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - covered(children.get(i, ()), s[START], s[END])
        for i, s in enumerate(spans)
    ]


def summarize(tracer: Tracer):
    """Per span name over the measured window: calls, total and self seconds."""
    selfs = self_times(tracer.spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s, own, inside in zip(tracer.spans, selfs, tracer.in_window):
        if inside:
            row = out[s[NAME]]
            row["calls"] += 1
            row["s"] += s[END] - s[START]
            row["self_s"] += own
    return out


def durations(tracer: Tracer, name: str):
    """Durations of every span with this name, inside the window or not."""
    return [s[END] - s[START] for s in tracer.spans if s[NAME] == name]


# -- wrappers -----------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    return traced


class Installed:
    """Wrappers placed on (owner, attribute) pairs; ``remove`` puts the originals back."""

    def __init__(self):
        self._saved = []

    def wrap(self, tracer, owner, attr, name, on_result=None):
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original, had_own))
        setattr(owner, attr, _wrap(tracer, name, original, on_result))

    def remove(self):
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _count_samples(tracer, args, kwargs, batch):
    tracer.count("scene.samples", len(batch))
    tracer.count("scene.attempts", batch.attempts)


def _count_clip(tracer, args, kwargs, norm):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    tracer.count("optim.clip_calls")
    tracer.count("optim.clip_fired", float(norm > max_norm))


def _count_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["checkpoint.bytes"] = os.path.getsize(path)


def install(tracer: Tracer) -> Installed:
    """Wrap the public functions of every layer where their callers find them.

    ``ncal.training`` binds synthesize_batch, compound_loss, adam_step,
    clip_gradients and reprojection_rmse by name; everything else is looked
    up through its module or class at call time.
    """
    from ncal import geometry, losses, training
    from ncal.nn import autodiff, checkpoint, functional
    from ncal.nn.model import PtModel

    inst = Installed()
    targets = [
        (training, "synthesize_batch", "scene.synthesize_batch", _count_samples),
        (geometry, "project_array", "geometry.project_array", None),
        (geometry, "project_jacobian_array", "geometry.project_jacobian_array", None),
        (PtModel, "forward", "model.forward", None),
        (PtModel, "embed", "model.embed", None),
        (PtModel, "encode", "model.encode", None),
        (functional, "linear", "functional.linear", None),
        (functional, "layer_norm", "functional.layer_norm", None),
        (functional, "rot6d_to_matrix_t", "functional.rot6d_to_matrix_t", None),
        (autodiff, "softmax", "autodiff.softmax", None),
        (autodiff.Tensor, "backward", "autodiff.backward", None),
        (losses, "loss_diff", "losses.loss_diff", None),
        (losses, "loss_geo", "losses.loss_geo", None),
        (losses, "loss_reproj", "losses.loss_reproj", None),
        (training, "compound_loss", "losses.compound_loss", None),
        (training, "reprojection_rmse", "losses.reprojection_rmse", None),
        (training, "clip_gradients", "optim.clip_gradients", _count_clip),
        (training, "adam_step", "optim.adam_step", None),
        (checkpoint, "save_checkpoint", "checkpoint.save", _count_bytes),
        (checkpoint, "load_checkpoint", "checkpoint.load", None),
        (training, "evaluate", "training.evaluate", None),
        (training, "detect_decalibration", "training.detect_decalibration", None),
    ]
    for owner, attr, name, on_result in targets:
        inst.wrap(tracer, owner, attr, name, on_result)
    return inst
