"""Training loop: determinism, resume, phases, evaluation, drift detection."""

import gc
import weakref

import numpy as np
import pytest

import tape
from ncal.errors import ConfigError, NonFiniteLoss, ShapeMismatch
from ncal.losses import compound_loss
from ncal.nn.checkpoint import load_checkpoint, save_checkpoint
from ncal.nn.autodiff import Tensor
from ncal.nn.model import PtModel, PtModelConfig
from ncal.scene import (
    TWO_PI,
    PerturbationSpec,
    PoseRanges,
    SceneConfig,
    make_object,
    make_rig,
    reference_params,
    synthesize_batch,
)
from ncal.training import (
    TrainConfig,
    calibrate_detection_threshold,
    derive_seed,
    detect_decalibration,
    evaluate,
    parameter_distances,
    train,
)


def small_setup(kappa=0.0, alpha_free=True, seed=0):
    rig, oem = make_rig("T-4")
    scn = SceneConfig(
        rig=rig,
        oem=oem,
        obj=make_object("cube8"),
        perturbation=PerturbationSpec(kappa, 0.0),
        pose_ranges=PoseRanges(
            theta=(0.0, 0.0), phi=(0.0, 0.0), alpha=(0.0, TWO_PI if alpha_free else 0.0)
        ),
    )
    cfg = PtModelConfig(
        n_cameras=4, n_fiducials=8, d_model=16, n_layers=1, n_heads=2, d_ff=32
    )
    model = PtModel(cfg, reference_params(rig, oem), rig.image_size, scn.radius, seed=seed)
    return scn, model


class TestTrainLoop:
    def test_zero_epochs_returns_model_unchanged(self):
        scn, model = small_setup()
        before = {k: t.data.copy() for k, t in model.params.items()}
        result = train(model, scn, TrainConfig(epochs=0, phase1_epochs=0, batch_size=4))
        assert result.records == []
        for k, t in model.params.items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_records_and_phase_transition(self):
        scn, model = small_setup()
        cfg = TrainConfig(epochs=6, phase1_epochs=3, batch_size=8, seed=1)
        result = train(model, scn, cfg)
        assert len(result.records) == 6
        phases = [r["phase"] for r in result.records]
        assert phases == [1, 1, 1, 2, 2, 2]
        transitions = [r["phase_transition"] for r in result.records]
        assert transitions == [False, False, False, True, False, False]
        for r in result.records:
            assert np.isfinite(r["loss"])
            assert r["loss_diff"] >= 0 and r["loss_geo"] >= 0
            assert (r["loss_reproj"] is None) == (r["phase"] == 1)

    def test_loss_decreases_on_tiny_problem(self):
        scn, model = small_setup(alpha_free=False)  # fully fixed pose, kappa=0
        # A zero-initialized model is exactly optimal on this regime (loss 0),
        # so start it off the optimum: translation biases of 0.05 in the
        # normalized head space are 0.15 m at rho = 1.5.
        model.params["head_b"].data[6:9] = 0.05
        cfg = TrainConfig(epochs=30, phase1_epochs=30, batch_size=8, seed=2)
        result = train(model, scn, cfg)
        losses = [r["loss"] for r in result.records]
        assert losses[-1] < losses[0]

    def test_bitwise_deterministic(self):
        def run():
            scn, model = small_setup()
            cfg = TrainConfig(epochs=5, phase1_epochs=2, batch_size=8, seed=7)
            result = train(model, scn, cfg)
            return result.records, {k: t.data.tobytes() for k, t in model.params.items()}

        rec_a, par_a = run()
        rec_b, par_b = run()
        assert rec_a == rec_b
        assert par_a == par_b

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = TrainConfig(epochs=8, phase1_epochs=4, batch_size=8, seed=3)

        scn, model_full = small_setup()
        full = train(model_full, scn, cfg)

        scn2, model_part = small_setup()
        part1 = train(model_part, scn2, TrainConfig(epochs=4, phase1_epochs=4, batch_size=8, seed=3))
        ckpt = tmp_path / "mid.ckpt"
        save_checkpoint(
            ckpt,
            model_part,
            optimizer_state=part1.optimizer,
            extra={"epoch": 4, "scheduler": part1.scheduler.state_dict()},
        )
        model_res, opt_res, extra = load_checkpoint(ckpt)
        from ncal.nn.optim import PlateauScheduler

        sched = PlateauScheduler.from_state_dict(extra["scheduler"])
        part2 = train(
            model_res,
            scn2,
            cfg,
            optimizer=opt_res,
            scheduler=sched,
            start_epoch=extra["epoch"],
        )
        assert part1.records + part2.records == full.records
        for k in model_full.params:
            assert (
                model_res.params[k].data.tobytes() == model_full.params[k].data.tobytes()
            )

    def test_step_graph_freed_before_callback(self):
        # Only the parameters may outlive a step: the forward pass's graph
        # is released once its gradients are taken, so it is not held while
        # the callback runs or while the next forward pass builds its own.
        scn, model = small_setup()
        alive = []

        def count_tensors(*_):
            gc.collect()
            alive.append(sum(isinstance(o, Tensor) for o in gc.get_objects()))

        count_tensors()
        train(model, scn, TrainConfig(epochs=2, phase1_epochs=1, batch_size=4, seed=1),
              epoch_callback=count_tensors)
        assert alive == [alive[0]] * 3

    def test_no_gradient_set_alive_at_callback(self, monkeypatch):
        # Each step's gradients are freed once Adam has used them, so no
        # gradient set is held while the callback runs or lives into the
        # next step's forward and backward.
        from ncal import training

        real_clip = training.clip_gradients
        handed = []

        def clip_and_watch(grads, max_norm):
            handed.append([weakref.ref(g) for g in grads.values()])
            return real_clip(grads, max_norm)

        def count_alive(*_):
            gc.collect()
            alive.append(sum(r() is not None for refs in handed for r in refs))

        monkeypatch.setattr(training, "clip_gradients", clip_and_watch)
        scn, model = small_setup()
        alive = []
        train(model, scn, TrainConfig(epochs=3, phase1_epochs=1, batch_size=4, seed=1),
              epoch_callback=count_alive)
        assert len(handed) == 3 and all(len(refs) == len(model.params) for refs in handed)
        assert alive == [0, 0, 0]

    def test_non_finite_loss_reports_epoch_and_seed(self):
        scn, model = small_setup()
        model.params["embed_w"].data[0, 0] = np.nan
        with pytest.raises(NonFiniteLoss) as exc:
            train(model, scn, TrainConfig(epochs=2, phase1_epochs=1, batch_size=4, seed=5))
        assert exc.value.epoch == 0
        assert exc.value.batch_seed == derive_seed(5, 1, 0)

    def test_exact_reference_regime_stays_exact(self):
        # Zero residual in every loss term (both phases): the zero-subgradient
        # convention must give zero gradients, so the weights never move and
        # no NaN from power(0, -0.5) can reach them.
        scn, model = small_setup(alpha_free=False)
        before = {k: t.data.copy() for k, t in model.params.items()}
        cfg = TrainConfig(epochs=30, phase1_epochs=20, batch_size=8, seed=2)
        result = train(model, scn, cfg)
        assert [r["loss"] for r in result.records] == [0.0] * 30
        assert all(r["loss_reproj"] == 0.0 for r in result.records[20:])
        assert len(model.params) == 19
        for k, t in model.params.items():
            assert np.isfinite(t.data).all()
            np.testing.assert_array_equal(t.data, before[k])

    def test_non_finite_gradient_reports_epoch_before_step(self, monkeypatch):
        from ncal import training

        real_loss = training.compound_loss
        calls = []

        def loss_with_nan_gradient(pred, *args):
            total, parts, grad = real_loss(pred, *args)
            calls.append(None)
            if len(calls) < 3:
                return total, parts, grad
            # Finite value, NaN gradient into every weight.
            return total, parts, np.full(grad.shape, np.nan)

        monkeypatch.setattr(training, "compound_loss", loss_with_nan_gradient)
        scn, model = small_setup()
        snapshot = {}

        def keep_weights(epoch, record, model, optimizer, scheduler):
            snapshot.update({k: t.data.copy() for k, t in model.params.items()})

        cfg = TrainConfig(epochs=4, phase1_epochs=4, batch_size=4, seed=5)
        with pytest.raises(NonFiniteLoss, match="gradient") as exc:
            train(model, scn, cfg, epoch_callback=keep_weights)
        assert exc.value.epoch == 2
        assert exc.value.batch_seed == derive_seed(5, 1, 2)
        for k, t in model.params.items():
            np.testing.assert_array_equal(t.data, snapshot[k])

    def test_negative_start_epoch_rejected(self):
        scn, model = small_setup()
        with pytest.raises(ConfigError, match="start_epoch"):
            train(model, scn, TrainConfig(epochs=2, phase1_epochs=1, batch_size=4),
                  start_epoch=-1)

    def test_start_epoch_past_the_end_rejected(self):
        # A resume under a shortened TrainConfig must not silently train nothing.
        scn, model = small_setup()
        with pytest.raises(ConfigError, match="start_epoch"):
            train(model, scn, TrainConfig(epochs=2, phase1_epochs=1, batch_size=4),
                  start_epoch=3)

    def test_start_epoch_at_the_end_is_a_finished_run(self):
        scn, model = small_setup()
        before = {k: t.data.copy() for k, t in model.params.items()}
        result = train(model, scn, TrainConfig(epochs=2, phase1_epochs=1, batch_size=4),
                       start_epoch=2)
        assert result.records == [] and result.optimizer.step == 0
        for k, t in model.params.items():
            assert t.data.tobytes() == before[k].tobytes(), k

    def test_phase1_longer_than_total_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=10, phase1_epochs=20)

    # Non-integer counts too: derive_seed would truncate a float seed, and a
    # float count would fail later inside range(). A bool is not a count.
    @pytest.mark.parametrize("bad", [{"phase1_epochs": -2}, {"seed": -1}, {"seed": 1.5},
                                     {"epochs": 10.5}, {"phase1_epochs": 5.0},
                                     {"batch_size": 2.5}, {"batch_size": True},
                                     {"seed": np.float64(1.0)}])
    def test_negative_phase1_or_seed_rejected(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainConfig(**{"epochs": 10, "phase1_epochs": 5, **bad})

    def test_numpy_integer_counts_accepted(self):
        cfg = TrainConfig(epochs=np.int64(10), phase1_epochs=np.int32(5),
                          batch_size=np.uint16(4), seed=np.int64(3))
        assert (cfg.epochs, cfg.phase1_epochs, cfg.batch_size, cfg.seed) == (10, 5, 4, 3)


def small_step_inputs(random_heads, phase):
    """The model and batch of one training step at the train_small
    benchmark's shape (O-6, cube8, d_model 64 x 2 layers, 4 heads, d_ff 128),
    on a batch of 16: (model, observations, the compound loss's other
    arguments)."""
    rig, oem = make_rig("O-6")
    scn = SceneConfig(rig=rig, oem=oem, obj=make_object("cube8"),
                      perturbation=PerturbationSpec(0.05, 0.05))
    cfg = PtModelConfig(n_cameras=6, n_fiducials=8, d_model=64, n_layers=2, n_heads=4, d_ff=128)
    model = PtModel(cfg, reference_params(rig, oem), rig.image_size, scn.radius, seed=1)
    if random_heads:
        rng = np.random.default_rng(2)
        for name, t in model.params.items():
            if name.startswith("head_"):
                t.data = 0.05 * rng.standard_normal(t.data.shape)
    batch = synthesize_batch(scn, 16, seed=3)
    args = (batch.gt_params, batch.observations, scn.obj.fiducials, rig.image_size, phase)
    return model, batch.observations, args


def small_train_step(random_heads, phase, taped=False):
    """The step of small_step_inputs through backward: (prediction, total,
    parts, name -> parameter gradient) with arrays for the first two; on the
    generic tape (tests/tape.py) if taped."""
    model, X, args = small_step_inputs(random_heads, phase)
    if taped:
        pred = tape.forward(tape.on_tape(model), X)
        total, parts = tape.compound_loss(pred, *args)
        total.backward()
        return pred.data, total.data, parts, {k: t.grad for k, t in model.params.items()}
    pred = model.forward(X)
    total, parts, grad = compound_loss(pred.data, *args)
    grads = pred.backward(grad)
    return pred.data, np.asarray(total), parts, grads


class TestStep:
    @pytest.mark.parametrize("random_heads", [False, True])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_bitwise_equal_to_tape(self, phase, random_heads):
        # The forward's pullback and the compound loss's gradient against
        # the same step composed on the generic tape (tests/tape.py): the
        # prediction, the loss parts and every parameter gradient.
        got = small_train_step(random_heads, phase)
        want = small_train_step(random_heads, phase, taped=True)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]
        # Keyed and ordered like the parameters, the order clip_gradients
        # sums the squares in.
        assert list(got[3]) == list(want[3])
        for k, g in got[3].items():
            assert g.tobytes() == want[3][k].tobytes(), k

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_second_backward_raises(self, dtype):
        # The pullback frees each stage's saved arrays as it runs, so it
        # cannot run again.
        model, X, args = small_step_inputs(True, 2)
        pred = model.forward(X, dtype)
        grad = compound_loss(pred.data, *args)[2]
        pred.backward(grad)
        with pytest.raises(RuntimeError, match="backward runs once"):
            pred.backward(grad)

    def test_backward_reads_weights_as_at_forward(self):
        # The backward rebuilds each block's norm outputs from the gains and
        # biases, and takes products with the weights, captured at the
        # forward: rebinding them in between (as an epoch callback may)
        # changes no gradient. In float32 the pullback casts again the
        # float64 arrays the forward read, not the rebound ones.
        def gradients(rebind, dtype):
            model, X, args = small_step_inputs(True, 2)
            pred = model.forward(X, dtype)
            grad = compound_loss(pred.data, *args)[2]
            if rebind:
                for nm in ("ln1_g", "ln1_b", "ln2_g", "ln2_b", "wq"):
                    t = model.params[f"layer0_{nm}"]
                    t.data = t.data + 1.0
            return pred.backward(grad)

        for dtype in (np.float64, np.float32):
            want = gradients(False, dtype)
            got = gradients(True, dtype)
            for k, g in got.items():
                assert g.tobytes() == want[k].tobytes(), (dtype, k)

    def test_parameter_gradients_share_no_memory(self):
        # Every parameter gets a float64 gradient of its own shape, from a
        # float64 or a float32 encoder. clip_gradients scales the gradients
        # in place, so one array handed to two parameters would be scaled
        # twice.
        for dtype in (np.float64, np.float32):
            grads = step_gradients(2, dtype)
            for k, t in small_step_inputs(True, 2)[0].params.items():
                assert grads[k].dtype == np.float64 and grads[k].shape == t.data.shape, k
            grads = list(grads.values())
            for i, a in enumerate(grads):
                for b in grads[i + 1:]:
                    assert not np.shares_memory(a, b)


def step_gradients(phase, dtype):
    """Every parameter gradient of one small_step_inputs step, with random
    heads, and the embedding and the encoder in dtype."""
    model, X, args = small_step_inputs(True, phase)
    pred = model.forward(X, dtype)
    return pred.backward(compound_loss(pred.data, *args)[2])


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestMixedPrecision:
    @pytest.mark.parametrize("phase", [1, 2])
    def test_float32_gradients_agree_with_float64(self, phase):
        # Relative L2 error of the float32 step's gradients against the
        # float64 step's, over all of them and per parameter.
        want = step_gradients(phase, np.float64)
        got = step_gradients(phase, np.float32)
        assert all(g.dtype == np.float64 for g in got.values())
        flat = [np.concatenate([d[k].ravel() for k in want]) for d in (got, want)]
        assert relative_error(*flat) <= 1e-2
        for k in want:
            assert relative_error(got[k], want[k]) <= 1e-2, k

    def test_train_runs_the_encoder_in_float32_and_predict_in_float64(self, monkeypatch):
        from ncal.nn import functional as F

        real_block = F.encoder_block
        seen = []

        def spy(x, weights, n_heads):
            seen.append((x.dtype.name, sorted({w.dtype.name for w in weights})))
            return real_block(x, weights, n_heads)

        monkeypatch.setattr(F, "encoder_block", spy)
        scn, model = small_setup(kappa=0.02)
        train(model, scn, TrainConfig(epochs=1, phase1_epochs=1, batch_size=4, seed=1))
        assert seen == [("float32", ["float32"])]
        assert all(t.data.dtype == np.float64 for t in model.params.values())
        seen.clear()
        model.predict(synthesize_batch(scn, 3, seed=2).observations)
        assert seen == [("float64", ["float64"])]

    def test_float32_forward_overflow_raises_at_its_epoch(self):
        # Weights that float32 holds but whose products it cannot: q and k
        # overflow to inf and the scores' softmax turns NaN.
        scn, model = small_setup()
        for nm in ("ln1_g", "wq", "wk"):
            model.params[f"layer0_{nm}"].data *= 1e15
        before = {k: t.data.copy() for k, t in model.params.items()}
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLoss) as exc:
            train(model, scn, TrainConfig(epochs=2, phase1_epochs=1, batch_size=4, seed=5))
        assert exc.value.epoch == 0
        for k, t in model.params.items():
            assert t.data.tobytes() == before[k].tobytes(), k

    def test_float32_gradient_overflow_raises_before_the_step(self, monkeypatch):
        # From epoch 2 the loss gradient is 1e60 times larger: finite in
        # float64, but inf once cast into the float32 encoder, so the
        # gradient norm is not finite and Adam never runs.
        from ncal import training

        real_loss = training.compound_loss
        calls = []

        def loss_with_huge_gradient(pred, *args):
            total, parts, grad = real_loss(pred, *args)
            calls.append(None)
            return total, parts, grad * (1e60 if len(calls) >= 3 else 1.0)

        monkeypatch.setattr(training, "compound_loss", loss_with_huge_gradient)
        scn, model = small_setup(kappa=0.02)
        snapshot = {}

        def keep_weights(epoch, record, model, optimizer, scheduler):
            snapshot.update({k: t.data.copy() for k, t in model.params.items()})

        cfg = TrainConfig(epochs=4, phase1_epochs=4, batch_size=4, seed=5)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteLoss, match="gradient") as exc:
            train(model, scn, cfg, epoch_callback=keep_weights)
        assert exc.value.epoch == 2
        for k, t in model.params.items():
            assert t.data.tobytes() == snapshot[k].tobytes(), k


class TestEvaluate:
    def test_untrained_model_exact_at_reference_regime(self):
        # kappa = 0 and a fully pinned pose: ground truth equals the factory
        # calibration, which is exactly what zero-initialized heads predict.
        scn, model = small_setup(kappa=0.0, alpha_free=False)
        report = evaluate(model, scn, n_samples=10, trials=2, seed=11)
        assert report.re_avg == 0.0

    def test_deterministic_given_seed(self):
        scn, model = small_setup(kappa=0.02)
        a = evaluate(model, scn, n_samples=15, trials=2, seed=13)
        b = evaluate(model, scn, n_samples=15, trials=2, seed=13)
        assert a.re_trials == b.re_trials

    @pytest.mark.parametrize("n_samples,trials", [(0, 3), (10, 0)])
    def test_empty_test_set_rejected(self, n_samples, trials):
        scn, model = small_setup()
        with pytest.raises(ConfigError):
            evaluate(model, scn, n_samples=n_samples, trials=trials)

    def test_negative_seed_rejected(self):
        scn, model = small_setup()
        with pytest.raises(ConfigError, match="seed"):
            evaluate(model, scn, n_samples=4, trials=1, seed=-1)

    # derive_seed's int() would truncate a float seed, and a float count
    # would fail inside numpy rather than as a ConfigError.
    @pytest.mark.parametrize("bad", [{"seed": 1.5}, {"seed": True}, {"n_samples": 4.0},
                                     {"trials": 1.0}, {"seed": "2"}])
    def test_non_integer_counts_rejected(self, bad):
        scn, model = small_setup()
        with pytest.raises(ConfigError, match="integers"):
            evaluate(model, scn, **{"n_samples": 4, "trials": 1, "seed": 0, **bad})

    def test_numpy_integer_counts_accepted(self):
        scn, model = small_setup(kappa=0.02)
        rep = evaluate(model, scn, n_samples=np.int64(5), trials=np.int32(2), seed=np.uint8(3))
        assert rep.re_trials == evaluate(model, scn, n_samples=5, trials=2, seed=3).re_trials

    def test_trials_use_distinct_draws(self):
        scn, model = small_setup(kappa=0.02)
        rep = evaluate(model, scn, n_samples=15, trials=3, seed=17)
        assert len(set(rep.re_trials)) == 3


class TestDetection:
    def test_distance_formula(self):
        ref = np.zeros((2, 21))
        ref[:, :9] = np.eye(3).reshape(9)
        ref[:, 12] = 1000.0
        pred = ref.copy()
        pred[1, 12] += 50.0  # fx drift on camera 1 only
        d = parameter_distances(pred, ref)
        assert d[0] == 0.0
        assert d[1] == pytest.approx(np.sqrt(50.0**2 / 9.0))

    def test_distance_with_extrinsics_includes_rotation_scaling(self):
        ref = np.zeros((1, 21))
        ref[:, :9] = np.eye(3).reshape(9)
        pred = ref.copy()
        pred[0, 1] += 0.001  # rotation entry; scaled by 1000 -> deviation 1.0
        # The distance compares intrinsics only, so a scaled rotation
        # deviation leaves it at zero.
        assert parameter_distances(pred, ref)[0] == 0.0

    def test_infinite_threshold_always_ok(self):
        scn, model = small_setup()
        batch = synthesize_batch(scn, 1, seed=0)
        verdict = detect_decalibration(
            model, batch.observations[0], model.reference_params, threshold=np.inf
        )
        assert not verdict["any_drift"]

    def test_untrained_model_clean_reference_is_exact(self):
        scn, model = small_setup(kappa=0.0, alpha_free=False)
        batch = synthesize_batch(scn, 1, seed=0)
        verdict = detect_decalibration(
            model, batch.observations[0], model.reference_params, threshold=1e-12
        )
        np.testing.assert_allclose(verdict["distances"], 0.0, atol=1e-12)
        assert not verdict["any_drift"]

    def test_threshold_calibration_scales_max(self):
        scn, model = small_setup(kappa=0.0)
        thr = calibrate_detection_threshold(model, scn, n_samples=8, seed=1, margin=2.0)
        thr2 = calibrate_detection_threshold(model, scn, n_samples=8, seed=1, margin=4.0)
        assert thr2 == pytest.approx(2.0 * thr)

    def test_threshold_needs_samples(self):
        scn, model = small_setup()
        with pytest.raises(ConfigError):
            calibrate_detection_threshold(model, scn, n_samples=0)

    def test_threshold_negative_seed_rejected(self):
        scn, model = small_setup()
        with pytest.raises(ConfigError, match="seed"):
            calibrate_detection_threshold(model, scn, n_samples=4, seed=-1)

    @pytest.mark.parametrize("bad", [{"seed": 1.5}, {"seed": True}, {"n_samples": 4.0}])
    def test_threshold_non_integer_counts_rejected(self, bad):
        scn, model = small_setup()
        with pytest.raises(ConfigError, match="integers"):
            calibrate_detection_threshold(model, scn, **{"n_samples": 4, "seed": 0, **bad})

    def test_threshold_numpy_integer_counts_accepted(self):
        scn, model = small_setup(kappa=0.0)
        thr = calibrate_detection_threshold(model, scn, n_samples=np.int64(8), seed=np.int32(1))
        assert thr == calibrate_detection_threshold(model, scn, n_samples=8, seed=1)

    @pytest.mark.parametrize("threshold", [1.0, np.inf])
    def test_non_finite_capture_counts_as_drift(self, threshold):
        # One NaN fiducial makes every camera's distance NaN, which must
        # flag every camera rather than pass as "no drift".
        scn, model = small_setup()
        obs = synthesize_batch(scn, 1, seed=0).observations[0].copy()
        obs[0, 0, 0] = np.nan
        verdict = detect_decalibration(model, obs, model.reference_params, threshold)
        assert np.isnan(verdict["distances"]).all()
        assert verdict["drifted"].all() and verdict["any_drift"]

    @pytest.mark.parametrize("threshold", [np.nan, -1.0, -np.inf])
    def test_nan_or_negative_threshold_rejected(self, threshold):
        scn, model = small_setup()
        obs = synthesize_batch(scn, 1, seed=0).observations[0]
        with pytest.raises(ValueError, match="threshold"):
            detect_decalibration(model, obs, model.reference_params, threshold)

    @pytest.mark.parametrize("cut", [np.s_[0], np.s_[:1], np.s_[:, :12]],
                             ids=["(21,)", "(1, 21)", "(4, 12)"])
    def test_misshaped_reference_rejected_before_predicting(self, cut, monkeypatch):
        # A (21,) or (1, 21) reference would broadcast against every camera
        # and read as no drift; a (4, 12) one fail inside numpy.
        scn, model = small_setup()
        obs = synthesize_batch(scn, 1, seed=0).observations[0]
        monkeypatch.setattr(model, "predict", lambda _: pytest.fail("predicted"))
        with pytest.raises(ShapeMismatch, match=r"reference must be \(4, 21\)"):
            detect_decalibration(model, obs, model.reference_params[cut], threshold=1.0)

    def test_threshold_calibration_rejects_non_finite_distances(self):
        # A NaN focal-length bias makes every clean-set distance NaN.
        scn, model = small_setup()
        model.params["head_b"].data[9:11] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            calibrate_detection_threshold(model, scn, n_samples=4, seed=1)

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -1.0, 0.5])
    def test_threshold_margin_below_one_or_not_finite_rejected(self, margin):
        # NaN would give a NaN threshold, -1 a threshold of -0.0 that
        # detect_decalibration accepts, and inf a NaN wherever every clean
        # distance is 0, as it is for this untrained model at kappa 0.
        scn, model = small_setup(kappa=0.0)
        with pytest.raises(ValueError, match="margin"):
            calibrate_detection_threshold(model, scn, n_samples=4, seed=1, margin=margin)

    def test_threshold_margin_one_accepted(self):
        # A focal-length bias puts every clean distance above 0.
        scn, model = small_setup(kappa=0.0)
        model.params["head_b"].data[9:11] = 0.01
        thr = calibrate_detection_threshold(model, scn, n_samples=8, seed=1, margin=1.0)
        thr2 = calibrate_detection_threshold(model, scn, n_samples=8, seed=1, margin=2.0)
        assert 0.0 < thr < np.inf and thr2 == 2.0 * thr
