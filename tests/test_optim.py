"""Tests for Adam, gradient clipping, and the plateau scheduler."""

import numpy as np
import pytest

from ncal.nn.optim import (
    PLATEAU_FACTOR,
    PLATEAU_PATIENCE,
    AdamState,
    PlateauScheduler,
    adam_step,
    clip_gradients,
)

import tape


def groups(name):
    return "heads" if name.startswith("head") else "encoder"


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = {"w": tape.parameter([1.0, 2.0])}
        p["w"].grad = np.zeros(2)
        state = AdamState()
        adam_step(p, state, {"encoder": 1e-3, "heads": 1e-3}, groups)
        np.testing.assert_array_equal(p["w"].data, [1.0, 2.0])
        assert state.step == 1

    def test_constant_gradient_step_approaches_lr_sign(self):
        p = {"w": tape.parameter([0.0])}
        state = AdamState()
        lr = 1e-2
        prev = p["w"].data.copy()
        for _ in range(300):
            p["w"].grad = np.array([2.5])
            adam_step(p, state, {"encoder": lr, "heads": lr}, groups)
        step = prev[0] - p["w"].data[0]
        # after warm-up each step is ~ lr * sign(g)
        last = []
        for _ in range(5):
            before = p["w"].data[0]
            p["w"].grad = np.array([2.5])
            adam_step(p, state, {"encoder": lr, "heads": lr}, groups)
            last.append(before - p["w"].data[0])
        np.testing.assert_allclose(last, lr, rtol=1e-3)

    def test_quadratic_bowl_converges(self):
        # minimize 0.5 * ||x - target||^2
        target = np.array([3.0, -2.0, 1.0])
        p = {"x": tape.parameter(np.zeros(3))}
        state = AdamState()
        losses = []
        for _ in range(100):
            diff = p["x"].data - target
            losses.append(0.5 * float(diff @ diff))
            p["x"].grad = diff
            adam_step(p, state, {"encoder": 0.02, "heads": 0.02}, groups)
        # monotone decrease once the moment estimates have warmed up
        tail = losses[10:]
        assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))
        # and with more budget the bowl is actually solved
        for _ in range(900):
            diff = p["x"].data - target
            p["x"].grad = diff
            adam_step(p, state, {"encoder": 0.02, "heads": 0.02}, groups)
        final = 0.5 * float((p["x"].data - target) @ (p["x"].data - target))
        assert final < 1e-2 * losses[0]

    def test_per_group_learning_rates(self):
        p = {"head_w": tape.parameter([0.0]), "enc_w": tape.parameter([0.0])}
        state = AdamState()
        for t in p.values():
            t.grad = np.array([1.0])
        adam_step(p, state, {"encoder": 1e-4, "heads": 1e-2}, groups)
        assert abs(p["head_w"].data[0]) > abs(p["enc_w"].data[0]) * 10

    @pytest.mark.parametrize("lr_map, lr_scale, lr_min", [
        ({"encoder": 1e-3, "heads": 1e-3}, np.nan, 1e-6),
        ({"encoder": 1e-3, "heads": 1e-3}, np.inf, 1e-6),
        ({"encoder": 1e-3, "heads": np.nan}, 1.0, 1e-6),
        ({"encoder": -1e-3, "heads": 1e-3}, 1.0, -1.0),
    ])
    def test_non_finite_or_negative_rate_rejected_untouched(self, lr_map, lr_scale, lr_min):
        # A scheduler state read back with lr_scale NaN would otherwise write
        # NaN into every weight: max(nan * lr, lr_min) is NaN.
        rng = np.random.default_rng(3)
        p = {"head_w": tape.parameter(rng.normal(size=3)),
             "enc_w": tape.parameter(rng.normal(size=(2, 2)))}
        state = AdamState()
        for _ in range(2):
            for t in p.values():
                t.grad = rng.normal(size=t.data.shape)
            adam_step(p, state, {"encoder": 1e-3, "heads": 1e-3}, groups, lr_min=1e-6)
        data = {k: t.data.tobytes() for k, t in p.items()}
        moments = {k: (state.m[k].tobytes(), state.v[k].tobytes()) for k in p}
        with pytest.raises(ValueError, match="learning rates must be finite"):
            adam_step(p, state, lr_map, groups, lr_scale=lr_scale, lr_min=lr_min)
        assert state.step == 2
        assert {k: t.data.tobytes() for k, t in p.items()} == data
        assert {k: (state.m[k].tobytes(), state.v[k].tobytes()) for k in p} == moments


class TestClip:
    def test_below_max_unchanged(self):
        g = {"a": np.array([0.3, 0.4])}
        norm = clip_gradients(g, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(g["a"], [0.3, 0.4])

    def test_unit_norm_scaling(self):
        g = {"a": np.array([3.0, 4.0])}
        clip_gradients(g, 1.0)
        np.testing.assert_allclose(g["a"], [0.6, 0.8])

    def test_random_grads_norm_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = {k: rng.normal(size=rng.integers(2, 20)) for k in "abc"}
            clip_gradients(g, 0.7)
            total = np.sqrt(sum(float(v @ v) for v in g.values()))
            assert total <= 0.7 + 1e-12

    def test_direction_preserved(self):
        g = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}
        before = np.concatenate([g["a"], g["b"]])
        clip_gradients(g, 2.0)
        after = np.concatenate([g["a"], g["b"]])
        cos = before @ after / (np.linalg.norm(before) * np.linalg.norm(after))
        assert cos == pytest.approx(1.0)


    @pytest.mark.parametrize("max_norm", [0.0, -1.0, -np.inf, np.nan])
    def test_max_norm_not_positive_rejected(self, max_norm):
        g = {"a": np.array([3.0, 4.0])}
        with pytest.raises(ValueError, match="max_norm must be positive"):
            clip_gradients(g, max_norm)
        np.testing.assert_array_equal(g["a"], [3.0, 4.0])

    def test_infinite_max_norm_never_clips(self):
        g = {"a": np.array([3e100, 4e100])}
        assert clip_gradients(g, np.inf) == pytest.approx(5e100)
        np.testing.assert_array_equal(g["a"], [3e100, 4e100])


class TestPlateauScheduler:
    def test_decreasing_loss_never_reduces(self):
        s = PlateauScheduler()
        for i in range(3 * PLATEAU_PATIENCE):
            assert not s.update(100.0 / (i + 1))
        assert s.lr_scale == 1.0

    def test_flat_loss_exactly_one_reduction(self):
        s = PlateauScheduler()
        fired = [s.update(1.0) for _ in range(PLATEAU_PATIENCE + 1)]
        assert sum(fired) == 1
        assert s.lr_scale == PLATEAU_FACTOR

    def test_noisy_flat_reductions_spaced_by_patience(self):
        rng = np.random.default_rng(1)
        s = PlateauScheduler()
        fire_epochs = []
        loss = 1.0
        for e in range(20 * PLATEAU_PATIENCE):
            val = loss * (1.0 + 1e-6 * rng.normal())
            if s.update(val):
                fire_epochs.append(e)
        assert len(fire_epochs) >= 2
        gaps = np.diff(fire_epochs)
        assert (gaps >= PLATEAU_PATIENCE).all()

    def test_state_round_trip(self):
        s = PlateauScheduler()
        s.update(1.0)
        s.update(1.0)
        s2 = PlateauScheduler.from_state_dict(s.state_dict())
        assert s2 == s
