"""The two-core paths: on_both_cores, the pullback in row halves and the
Adam update in two parts."""

import sys
import threading

import numpy as np
import pytest

from ncal.losses import compound_loss
from ncal.nn import functional as F
from ncal.nn import model as model_module
from ncal.nn import checkpoint, optim, parallel
from ncal.nn.model import PtModel, PtModelConfig
from ncal.nn.optim import AdamState, adam_step
from ncal.scene import PerturbationSpec, SceneConfig, make_object, make_rig, reference_params
from ncal.scene import synthesize_batch

GROUPS = {"encoder": 1e-3, "heads": 1e-2}


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at 2 threads for the test, so that a split that does not
    restore the count is seen; the old count afterwards."""
    old = parallel.blas_threads()
    assert old is not None, "numpy's bundled OpenBLAS was not found"
    parallel._set_blas_threads(2)
    yield 2
    parallel._set_blas_threads(old)


def random_model():
    """An O-6/cube8 model, d_model 16 x 2 layers, with every weight, gain
    and bias random."""
    rig, oem = make_rig("O-6")
    cfg = PtModelConfig(n_cameras=6, n_fiducials=8, d_model=16, n_layers=2, n_heads=4, d_ff=32)
    model = PtModel(cfg, reference_params(rig, oem), rig.image_size, 1.5, seed=1)
    rng = np.random.default_rng(2)
    for k, t in model.params.items():
        t.data = t.data + rng.normal(size=t.data.shape) * (0.05 if k.startswith("head_") else 0.3)
    return model


def step_inputs(batch):
    """(observations, the compound loss's other arguments) of a phase-2 step
    on O-6/cube8 at kappa 0.05."""
    rig, oem = make_rig("O-6")
    scn = SceneConfig(rig=rig, oem=oem, obj=make_object("cube8"),
                      perturbation=PerturbationSpec(0.05, 0.05))
    b = synthesize_batch(scn, batch, seed=3)
    return b.observations, (b.gt_params, b.observations, scn.obj.fiducials, rig.image_size, 2)


def gradients(model, X, args, dtype):
    pred = model.forward(X, dtype)
    return pred.backward(compound_loss(pred.data, *args)[2])


def split_above(monkeypatch, batch, cfg):
    """Put the pullback's gate at batch captures of cfg."""
    monkeypatch.setattr(model_module, "_SPLIT_MIN_VALUES", batch * cfg.n_cameras * cfg.d_model)


def recorded(names, fn):
    """fn, appending the name of the thread of each call to names."""

    def call(*args):
        names.append(threading.current_thread().name)
        return fn(*args)

    return call


class TestOnBothCores:
    def test_second_call_runs_on_the_worker_at_one_blas_thread(self, two_blas_threads):
        seen = []

        def record(tag):
            seen.append((tag, threading.current_thread() is threading.main_thread(),
                         parallel.blas_threads()))
            return tag

        def record_upper(tag):
            return record(tag).upper()

        # The same function twice, then another one in the second call.
        for second, want in ((record, ("a", "b")), (record_upper, ("a", "B"))):
            seen.clear()
            assert parallel.on_both_cores((record, "a"), (second, "b")) == want
            assert sorted(seen) == [("a", True, 1), ("b", False, 1)]
            assert parallel.blas_threads() == two_blas_threads

    # "ab": both calls fail, in two functions; the calling thread's error wins.
    @pytest.mark.parametrize("failing", ["a", "b", "ab"])
    def test_error_in_either_call_restores_the_count(self, failing, two_blas_threads):
        done = []

        def maybe_fail(tag):
            if tag in failing:
                raise ValueError(f"half {tag} failed")
            done.append(tag)

        def fail_otherwise(tag):
            raise KeyError(tag)

        second = fail_otherwise if failing == "ab" else maybe_fail
        with pytest.raises(ValueError, match=f"half {failing[0]} failed"):
            parallel.on_both_cores((maybe_fail, "a"), (second, "b"))
        assert done == [tag for tag in "ab" if tag not in failing]
        assert parallel.blas_threads() == two_blas_threads

    def test_every_two_core_job_runs_on_the_kept_worker(self, tmp_path, monkeypatch):
        # The Glorot fill, the save and load hashes, a split pullback and a
        # split Adam step, each past its gate: the second call of each runs
        # on the worker that on_both_cores keeps, and no thread is started.
        threads = threading.active_count()
        main = threading.current_thread().name
        worker = parallel.on_both_cores((int,), (lambda: threading.current_thread().name,))[1]
        names = {job: [] for job in ("fill", "save", "load", "pullback", "adam")}
        monkeypatch.setattr(model_module, "_SPLIT_MIN_DRAWS", 0)
        monkeypatch.setattr(model_module, "_fill_glorot",
                            recorded(names["fill"], model_module._fill_glorot))
        model = random_model()
        monkeypatch.setattr(checkpoint, "_THREAD_MIN_BYTES", 0)
        monkeypatch.setattr(checkpoint, "_sha256", recorded(names["save"], checkpoint._sha256))
        monkeypatch.setattr(checkpoint, "_digest_matches",
                            recorded(names["load"], checkpoint._digest_matches))
        checkpoint.save_checkpoint(tmp_path / "m.ncal", model)
        checkpoint.load_checkpoint(tmp_path / "m.ncal")
        X, args = step_inputs(8)
        split_above(monkeypatch, 8, model.config)
        monkeypatch.setattr(F, "encoder_block_backward",
                            recorded(names["pullback"], F.encoder_block_backward))
        grads = gradients(model, X, args, np.float64)

        class Recorded(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                names["adam"].append(threading.current_thread().name)
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        # head_b, the last parameter, is updated by the second call.
        grads["head_b"] = grads["head_b"].view(Recorded)
        monkeypatch.setattr(optim, "_SPLIT_MIN_VALUES", 0)
        adam_step({k: t.data for k, t in model.params.items()}, grads, AdamState(), GROUPS,
                  model.param_group)
        assert worker not in (main, None)
        assert {job: sorted(set(seen)) for job, seen in names.items()} == {
            "fill": sorted([main, worker]), "save": [worker], "load": [worker],
            "pullback": sorted([main, worker]), "adam": [worker]}
        assert threading.active_count() == threads


    def test_concurrent_callers_restore_the_count(self, two_blas_threads):
        # Callers on several threads take turns, so none restores a count
        # that another one set.
        seen, done = [], []

        def double(x):
            seen.append(parallel.blas_threads())
            return 2 * x

        def caller(i):
            for _ in range(25):
                done.append(parallel.on_both_cores((double, i), (double, -i)) == (2 * i, -2 * i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert done == [True] * 100 and seen == [1] * 200
        assert parallel.blas_threads() == two_blas_threads


class TestSplitPullback:
    def test_gate_at_the_benchmark_shapes(self):
        # train_small's shape stays on the serial path; train_paper's splits.
        for rig, obj, d, batch, want in (("O-6", "cube8", 64, 64, None),
                                         ("O-10", "cube27", 512, 512, (256, 512))):
            r, oem = make_rig(rig)
            scn = SceneConfig(rig=r, oem=oem, obj=make_object(obj))
            cfg = PtModelConfig(scn.n_cameras, scn.n_fiducials, d_model=d, n_layers=1,
                                n_heads=4, d_ff=d)
            halves = PtModel(cfg, reference_params(r, oem), r.image_size, 1.5)._halves(batch)
            assert (halves if halves is None else (halves[0].stop, halves[1].stop)) == want

    @pytest.mark.parametrize("batch", [64, 65])
    @pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-13), (np.float32, 1e-5)])
    def test_gradients_match_the_serial_path(self, batch, dtype, bound, split_calls,
                                             monkeypatch):
        # The batch gradient is the sum of the halves' (Goyal et al. 2017);
        # only the order of the sums over rows differs from the serial path.
        model = random_model()
        X, args = step_inputs(batch)
        want = gradients(model, X, args, dtype)
        assert split_calls == []
        split_above(monkeypatch, batch, model.config)
        got = gradients(model, X, args, dtype)
        # The heads, each block and the embedding, each in two halves.
        assert len(split_calls) == model.config.n_layers + 2
        assert list(got) == list(want)
        for k, g in got.items():
            assert g.dtype == np.float64 and g.shape == want[k].shape, k
            assert np.linalg.norm(g - want[k]) <= bound * np.linalg.norm(want[k]), k

    def test_split_is_deterministic(self, monkeypatch):
        model = random_model()
        X, args = step_inputs(33)
        split_above(monkeypatch, 33, model.config)
        first = gradients(model, X, args, np.float32)
        second = gradients(model, X, args, np.float32)
        for k, g in first.items():
            assert g.tobytes() == second[k].tobytes(), k

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_second_backward_raises(self, dtype, split_calls, monkeypatch):
        model = random_model()
        X, args = step_inputs(8)
        split_above(monkeypatch, 8, model.config)
        pred = model.forward(X, dtype)
        grad = compound_loss(pred.data, *args)[2]
        pred.backward(grad)
        assert split_calls
        with pytest.raises(RuntimeError, match="backward runs once"):
            pred.backward(grad)

    @pytest.mark.parametrize("on_worker", [False, True])
    def test_blas_threads_restored_when_a_half_raises(self, on_worker, two_blas_threads,
                                                       monkeypatch):
        model = random_model()
        X, args = step_inputs(8)
        split_above(monkeypatch, 8, model.config)
        seen = []
        block_backward = F.encoder_block_backward

        def failing(g, saved, weights):
            worker = threading.current_thread() is not threading.main_thread()
            seen.append(parallel.blas_threads())
            if worker == on_worker:
                raise ArithmeticError("a half failed")
            return block_backward(g, saved, weights)

        monkeypatch.setattr(F, "encoder_block_backward", failing)
        pred = model.forward(X)
        with pytest.raises(ArithmeticError, match="a half failed"):
            pred.backward(compound_loss(pred.data, *args)[2])
        assert seen == [1, 1]
        assert parallel.blas_threads() == two_blas_threads
        # The worker is free again: the next split pullback runs.
        monkeypatch.setattr(F, "encoder_block_backward", block_backward)
        assert gradients(model, X, args, np.float64).keys() == model.params.keys()
        assert parallel.blas_threads() == two_blas_threads


class TestSplitAdam:
    def stepped(self, gate, steps=3):
        """random_model's parameters and AdamState after `steps` updates by
        fixed random gradients, with the split gate at `gate` values."""
        model = random_model()
        rng = np.random.default_rng(5)
        state = AdamState()
        old = optim._SPLIT_MIN_VALUES
        optim._SPLIT_MIN_VALUES = gate
        try:
            for _ in range(steps):
                grads = {k: rng.normal(size=t.data.shape) for k, t in model.params.items()}
                adam_step({k: t.data for k, t in model.params.items()}, grads, state, GROUPS,
                          model.param_group, lr_min=1e-6)
        finally:
            optim._SPLIT_MIN_VALUES = old
        return model, state

    def test_bitwise_equal_to_serial(self, split_calls):
        model, state = self.stepped(gate=0)
        assert len(split_calls) == 3
        serial, serial_state = self.stepped(gate=1 << 62)
        assert len(split_calls) == 3
        assert state.step == serial_state.step == 3
        assert list(state.m) == list(serial_state.m) == list(model.params)
        for k, t in model.params.items():
            assert t.data.tobytes() == serial.params[k].data.tobytes(), k
            assert state.m[k].tobytes() == serial_state.m[k].tobytes(), k
            assert state.v[k].tobytes() == serial_state.v[k].tobytes(), k

    @pytest.mark.parametrize("failing", ["embed_w", "head_b"])
    def test_blas_threads_restored_when_a_half_raises(self, failing, two_blas_threads,
                                                       monkeypatch):
        # embed_w is updated on the calling thread, head_b, the last
        # parameter, on the worker.
        class Poisoned(np.ndarray):
            def __array_ufunc__(self, *args, **kwargs):
                raise FloatingPointError("poisoned gradient")

        model = random_model()
        grads = {k: np.ones_like(t.data) for k, t in model.params.items()}
        grads[failing] = grads[failing].view(Poisoned)
        monkeypatch.setattr(optim, "_SPLIT_MIN_VALUES", 0)
        params = {k: t.data for k, t in model.params.items()}
        unchanged = params[failing].copy()
        with pytest.raises(FloatingPointError, match="poisoned gradient"):
            adam_step(params, grads, AdamState(), GROUPS, model.param_group)
        assert parallel.blas_threads() == two_blas_threads
        # Every parameter is still updated in its own array, and the one
        # whose gradient raised is not written.
        assert all(model.params[k].data is a for k, a in params.items())
        assert params[failing].tobytes() == unchanged.tobytes()
