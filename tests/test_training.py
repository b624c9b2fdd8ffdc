"""Training loop: determinism, resume, phases, evaluation, drift detection."""

import gc

import numpy as np
import pytest

import tape
from ncal.errors import ConfigError, NonFiniteLoss
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
        model.params["head_t_b"].data[:] = 0.05
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
        assert len(model.params) == 28
        for k, t in model.params.items():
            assert np.isfinite(t.data).all()
            np.testing.assert_array_equal(t.data, before[k])

    def test_non_finite_gradient_reports_epoch_before_step(self, monkeypatch):
        from ncal import training
        from ncal.nn import autodiff as ad

        real_loss = training.compound_loss
        calls = []

        def loss_with_nan_gradient(pred, *args):
            total, parts = real_loss(pred, *args)
            calls.append(None)
            if len(calls) < 3:
                return total, parts
            # Finite value (adds 0), NaN gradient into every weight.
            poison = ad.Tensor(
                0.0,
                requires_grad=True,
                parents=(pred,),
                backward=lambda g: (np.full(pred.data.shape, np.nan),),
            )
            return tape.add(total, poison), parts

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

    def test_phase1_longer_than_total_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=10, phase1_epochs=20)

    @pytest.mark.parametrize("bad", [{"phase1_epochs": -2}, {"seed": -1}])
    def test_negative_phase1_or_seed_rejected(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**{"epochs": 10, "phase1_epochs": 5, **bad})


def small_train_step(random_heads, phase, forward=None, loss=None, backward=True):
    """One training step at the train_small benchmark's shape (O-6, cube8,
    d_model 64 x 2 layers, 4 heads, d_ff 128), on a batch of 16: returns
    (pred, total, parts, model), after backward unless told otherwise."""
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
    pred = (forward or PtModel.forward)(model, batch.observations)
    total, parts = (loss or compound_loss)(pred, batch.gt_params, batch.observations,
                                           scn.obj.fiducials, rig.image_size, phase)
    model.zero_grad()
    if backward:
        total.backward()
    return pred, total, parts, model


def recorded_nodes(root):
    """Nodes reachable from root that carry a backward closure."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return [t for t in seen.values() if t._backward is not None]


class TestStep:
    @pytest.mark.parametrize("random_heads", [False, True])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_bitwise_equal_to_tape(self, phase, random_heads):
        # The forward and the compound loss as one node per stage against
        # the same step composed on the generic tape (tests/tape.py): the
        # prediction, the loss parts and every parameter gradient.
        got = small_train_step(random_heads, phase)
        want = small_train_step(random_heads, phase, tape.forward, tape.compound_loss)
        assert got[0].data.tobytes() == want[0].data.tobytes()
        assert got[1].data.tobytes() == want[1].data.tobytes()
        assert got[2] == want[2]
        for k, t in got[3].params.items():
            assert t.grad.tobytes() == want[3].params[k].grad.tobytes(), k

    def test_phase2_step_records_eight_nodes(self):
        # The embedding, two encoder blocks, the heads, three loss terms and
        # their weighted total.
        _, total, _, _ = small_train_step(True, 2)
        assert len(recorded_nodes(total)) == 8

    def test_every_node_returns_its_parents_gradients(self):
        # The node contract: a backward maps the upstream gradient to one
        # gradient per parent, in parent order, and writes into no tensor;
        # only the walker adds into .grad.
        _, total, _, _ = small_train_step(True, 2, backward=False)
        nodes = recorded_nodes(total)
        kinds = {t._backward.__qualname__.split(".")[0] for t in nodes}
        assert kinds == {"embed", "encoder_block", "heads", "loss_diff", "loss_geo",
                         "loss_reproj", "compound_loss"}
        for t in nodes:
            grads = t._backward(np.ones_like(t.data))
            assert len(grads) == len(t._parents)
            for p, g in zip(t._parents, grads):
                assert p.grad is None
                assert g is None or g.shape == p.data.shape

    def test_parameter_gradients_share_no_memory(self):
        # clip_gradients scales the gradients in place, so one array handed
        # to two parameters would be scaled twice.
        _, _, _, model = small_train_step(True, 2)
        grads = [t.grad for t in model.params.values()]
        assert all(g is not None for g in grads)
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)


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

    def test_threshold_calibration_rejects_non_finite_distances(self):
        # A NaN focal-length bias makes every clean-set distance NaN.
        scn, model = small_setup()
        model.params["head_fc_b"].data[:] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            calibrate_detection_threshold(model, scn, n_samples=4, seed=1)
