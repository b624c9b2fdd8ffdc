"""Loss-term tests against independent scalar oracles."""

import tracemalloc

import numpy as np
import pytest

from ncal import geometry, losses
from ncal.losses import (
    LAM1,
    LAM2,
    LAM_SCALE,
    compound_loss,
    loss_diff,
    loss_geo,
    loss_reproj,
    reprojection_rmse,
)
import tape
from ncal.scene import PerturbationSpec, SceneConfig, make_object, make_rig, synthesize_batch
from oracle import geodesic_distance, rot6d_to_matrix


@pytest.fixture(scope="module")
def batch():
    rig, oem = make_rig("O-6")
    cfg = SceneConfig(
        rig=rig, oem=oem, obj=make_object("cube8"), perturbation=PerturbationSpec(0.05, 0.05)
    )
    return synthesize_batch(cfg, 6, seed=123), cfg


def perturbed_pred(gt, seed=0, scale=1e-3):
    """A plausible prediction: gt plus small noise, rotation re-orthogonalized."""
    rng = np.random.default_rng(seed)
    pred = gt + rng.normal(size=gt.shape) * scale
    r6 = np.concatenate(
        [pred[..., [0, 3, 6]], pred[..., [1, 4, 7]]], axis=-1
    )  # columns 0 and 1 of the noisy matrix
    R = rot6d_to_matrix(r6)
    pred[..., :9] = np.swapaxes(R, -1, -2).reshape(pred.shape[:-1] + (9,))[..., [0, 3, 6, 1, 4, 7, 2, 5, 8]]
    return pred


def partly_behind(gt):
    """A prediction for the cube8 batch in which camera 0 of sample 0 sits at
    the cube's center, turned 0.1 rad off its faces, so four fiducials are in
    front of it (depth >= 0.045 m, well clear of the clamp) and four behind;
    camera 1 of sample 0 is turned around and sees every fiducial behind it."""
    pred = perturbed_pred(gt, seed=7)
    c, s = np.cos(0.1), np.sin(0.1)
    pred[0, 0, :9] = [1.0, 0.0, 0.0, 0.0, c, -s, 0.0, s, c]
    pred[0, 0, 9:12] = 0.0
    flip = np.diag([1.0, -1.0, -1.0])
    pred[0, 1, :9] = (flip @ pred[0, 1, :9].reshape(3, 3)).reshape(9)
    pred[0, 1, 9:12] = flip @ pred[0, 1, 9:12]
    return pred


class TestLossDiff:
    def test_zero_at_ground_truth(self, batch):
        b, _ = batch
        assert float(loss_diff(b.gt_params, b.gt_params)[0]) == 0.0

    def test_scaled_distortion_slot(self):
        gt = np.zeros((1, 21))
        gt[0, :9] = np.eye(3).reshape(9)
        pred = gt.copy()
        pred[0, 16] += 1.0 / LAM_SCALE  # k1 off by 1 / LAM_SCALE -> scaled deviation of 1.0
        val = float(loss_diff(pred, gt)[0])
        assert val == pytest.approx(np.sqrt(1.0 / 21.0))

    def test_matches_flatten_scale_rmse_oracle(self, batch):
        b, _ = batch
        rng = np.random.default_rng(1)
        pred = b.gt_params + rng.normal(size=b.gt_params.shape) * 0.01
        got = float(loss_diff(pred, b.gt_params)[0])
        s = np.ones(21)
        s[0:9] = LAM_SCALE  # rotation entries
        s[16:21] = LAM_SCALE  # distortion entries
        expected = np.sqrt((((pred - b.gt_params) * s) ** 2).mean())
        assert got == pytest.approx(expected, rel=1e-12)


class TestLossGeo:
    def test_zero_for_identical_exact_rotations(self):
        gt = np.zeros((3, 21))
        gt[:, :9] = np.eye(3).reshape(9)
        assert float(loss_geo(gt, gt)[0]) == 0.0

    def test_near_zero_for_identical_composed_rotations(self, batch):
        # Rotations assembled from matrix products carry ~1e-13 orthogonality
        # defects; arccos near 1 amplifies those to ~1e-6 radians.
        b, _ = batch
        assert float(loss_geo(b.gt_params, b.gt_params)[0]) < 1e-5

    def test_mean_of_single_offset(self):
        gt = np.zeros((2, 21))
        gt[:, :9] = np.eye(3).reshape(9)
        pred = gt.copy()
        rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        pred[1, :9] = rz.reshape(9)
        val = float(loss_geo(pred, gt)[0])
        assert val == pytest.approx(np.pi / 4)

    def test_matches_geometry_oracle(self, batch):
        b, _ = batch
        pred = perturbed_pred(b.gt_params, seed=2)
        got = float(loss_geo(pred, b.gt_params)[0])
        R1 = pred[..., :9].reshape(pred.shape[:-1] + (3, 3))
        R2 = b.gt_params[..., :9].reshape(pred.shape[:-1] + (3, 3))
        expected = geodesic_distance(R1, R2).mean()
        assert got == pytest.approx(expected, rel=1e-10)


class TestLossReproj:
    def test_zero_at_ground_truth(self, batch):
        b, cfg = batch
        val, _ = loss_reproj(
            b.gt_params, b.observations, cfg.obj.fiducials, cfg.rig.image_size
        )
        assert float(val) == 0.0

    def test_uniform_principal_point_shift(self, batch):
        b, cfg = batch
        pred = b.gt_params.copy()
        pred[..., 14] += 2.0  # cx + 2 px shifts every projection by exactly 2 px in x
        val, _ = loss_reproj(
            pred, b.observations, cfg.obj.fiducials, cfg.rig.image_size
        )
        assert float(val) == pytest.approx(2.0, rel=1e-12)

    def test_matches_project_then_rmse_oracle(self, batch):
        b, cfg = batch
        pred = perturbed_pred(b.gt_params, seed=3)
        val = float(
            loss_reproj(
                pred, b.observations, cfg.obj.fiducials, cfg.rig.image_size
            )[0]
        )
        pix, valid = geometry.project_array(pred, cfg.obj.fiducials)
        assert valid.all()
        expected = np.sqrt((((pix - b.observations) ** 2).sum(axis=-1)).mean())
        assert val == pytest.approx(expected, rel=1e-10)

    def test_behind_camera_penalty_keeps_loss_finite(self, batch):
        b, cfg = batch
        pred = b.gt_params.copy()
        # turn one camera 180 degrees about its x-axis so the object is behind it
        flip = np.diag([1.0, -1.0, -1.0])
        R = pred[0, 0, :9].reshape(3, 3)
        pred[0, 0, :9] = (flip @ R).reshape(9)
        pred[0, 0, 9:12] = flip @ pred[0, 0, 9:12]
        _, valid = geometry.project_array(pred, cfg.obj.fiducials)
        assert not valid[0, 0].any() and valid[0, 1:].all()
        val, backward = loss_reproj(pred, b.observations, cfg.obj.fiducials, cfg.rig.image_size)
        assert np.isfinite(val)
        assert np.isfinite(backward(1.0)).all()
        # the 8 masked points dominate the RMSE with the fixed penalty
        diag = np.hypot(*cfg.rig.image_size)
        n_points = b.observations.shape[0] * 6 * 8
        expected_floor = 10.0 * diag * np.sqrt(8 / n_points)
        assert float(val) >= expected_floor * 0.99

    def test_gradient_matches_central_differences_with_points_behind(self, batch):
        b, cfg = batch
        fid, size = cfg.obj.fiducials, cfg.rig.image_size
        pred = partly_behind(b.gt_params[:2])
        obs = b.observations[:2]
        _, valid = geometry.project_array(pred, fid)
        assert valid[0, 0].sum() == 4
        assert not valid[0, 1].any() and valid[0, 2:].all() and valid[1].all()

        val, backward = loss_reproj(pred, obs, fid, size)
        assert np.isfinite(val)
        grad = backward(1.0)
        assert np.isfinite(grad).all()
        # the camera that sees nothing has no gradient
        np.testing.assert_array_equal(grad[0, 1], 0.0)

        def f(p):
            return float(loss_reproj(p, obs, fid, size)[0])

        # The penalty puts the loss near 5e3, so its rounding sets the floor
        # of the differences; the cameras that see everything have gradient
        # entries up to ~1e-2, well above atol.
        num = np.zeros_like(pred)
        for idx in np.ndindex(pred.shape):
            h = 3e-5 * max(1.0, abs(pred[idx]))
            hi, lo = pred.copy(), pred.copy()
            hi[idx] += h
            lo[idx] -= h
            num[idx] = (f(hi) - f(lo)) / (2 * h)
        np.testing.assert_allclose(grad, num, rtol=1e-4, atol=1e-7)

    def test_points_behind_contribute_no_gradient(self, batch):
        # Moving the observation of a fiducial behind its camera changes
        # neither the loss nor any gradient entry.
        b, cfg = batch
        fid, size = cfg.obj.fiducials, cfg.rig.image_size
        pred = partly_behind(b.gt_params)
        _, valid = geometry.project_array(pred, fid)
        moved = b.observations.copy()
        moved[~valid] += 123.0
        runs = []
        for obs in (b.observations, moved):
            val, backward = loss_reproj(pred, obs, fid, size)
            runs.append((float(val), backward(1.0)))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])


def jacobian_block_captures(cfg):
    """Captures per block of loss_reproj's backward at cfg's rig and object."""
    per_capture = cfg.n_cameras * cfg.n_fiducials * 2 * geometry.N_PARAMS * 8
    return losses.JACOBIAN_BLOCK_BYTES // per_capture


@pytest.fixture(scope="module")
def big_batch(batch):
    """Five blocks of captures and 5 more, from batch's scene."""
    _, cfg = batch
    return synthesize_batch(cfg, 5 * jacobian_block_captures(cfg) + 5, seed=321)


def whole_batch_reproj(pred, observations, fiducials, image_size, g):
    """loss_reproj's value and gradient for the upstream gradient g, from the
    whole batch's Jacobian at once."""
    pix, valid, jac = geometry.project_jacobian_array(pred, fiducials)
    sq, diff = losses._squared_errors(pix, valid, observations, image_size)
    n = sq.size
    ms = np.asarray(sq.sum() * (1.0 / n))
    gp = g * (0.5 * ms**-0.5) * (1.0 / n) * diff
    return ms**0.5, np.einsum("...fc,...fcp->...p", gp + gp, jac)


class TestBlockedJacobian:
    """loss_reproj's backward builds the Jacobian a block of captures at a
    time, bit for bit the whole batch's contraction."""

    @pytest.mark.parametrize("blocks", ["1 capture", "one block - 1", "one block",
                                        "one block + 1", "several blocks"])
    @pytest.mark.parametrize("per_capture_fiducials", [False, True])
    def test_equals_whole_batch_contraction(self, batch, big_batch, blocks,
                                            per_capture_fiducials):
        _, cfg = batch
        per_block = jacobian_block_captures(cfg)
        assert per_block > 1
        n = {"1 capture": 1, "one block - 1": per_block - 1, "one block": per_block,
             "one block + 1": per_block + 1, "several blocks": len(big_batch.gt_params)}[blocks]
        pred = partly_behind(big_batch.gt_params[:n])
        obs, size = big_batch.observations[:n], cfg.rig.image_size
        fid = cfg.obj.fiducials
        if per_capture_fiducials:
            fid = np.repeat(fid[None, None], n, axis=0)
        _, valid = geometry.project_array(pred, fid)
        assert not valid.all()
        val, backward = loss_reproj(pred, obs, fid, size)
        want_val, want = whole_batch_reproj(pred, obs, fid, size, LAM2)
        got = backward(LAM2)
        assert np.asarray(val).tobytes() == np.asarray(want_val).tobytes()
        assert got.shape == pred.shape and got.tobytes() == want.tobytes()

    def test_one_camera_without_a_batch_axis(self, batch):
        # Camera 0 of sample 0 in partly_behind sees half the fiducials.
        b, cfg = batch
        pred = partly_behind(b.gt_params)[0, 0]
        args = (b.observations[0, 0], cfg.obj.fiducials, cfg.rig.image_size)
        val, backward = loss_reproj(pred, *args)
        want_val, want = whole_batch_reproj(pred, *args, 1.0)
        assert np.asarray(val).tobytes() == np.asarray(want_val).tobytes()
        assert backward(1.0).tobytes() == want.tobytes() and want.shape == (21,)

    def test_phase2_peak_below_the_whole_jacobian(self, batch, big_batch):
        # The backward holds one block's Jacobian at a time, never the
        # whole batch's.
        _, cfg = batch
        pred = partly_behind(big_batch.gt_params)
        args = (big_batch.gt_params, big_batch.observations, cfg.obj.fiducials,
                cfg.rig.image_size, 2)
        whole = pred.size // geometry.N_PARAMS * cfg.n_fiducials * 2 * geometry.N_PARAMS * 8
        assert len(pred) >= 4 * jacobian_block_captures(cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            compound_loss(pred, *args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert 0 < peak < whole


class TestCompound:
    def test_zero_at_gt_in_both_phases(self, batch):
        b, cfg = batch
        for phase in (1, 2):
            total, parts, _ = compound_loss(
                b.gt_params,
                b.gt_params,
                b.observations,
                cfg.obj.fiducials,
                cfg.rig.image_size,
                phase,
            )
            # diff and reproj vanish exactly; geo sits at the arccos
            # amplification floor of the rotations' orthogonality defect
            assert parts["loss_diff"] == 0.0
            if phase == 2:
                assert parts["loss_reproj"] == 0.0
            assert float(total) < 1e-3

    def test_phase1_independent_of_lam2(self, batch):
        # Phase 1 is exactly LAM1 * (diff + geo): any reprojection term,
        # however small its weight, would change the total.
        b, cfg = batch
        pred = perturbed_pred(b.gt_params, seed=4)
        total, parts, _ = compound_loss(
            pred,
            b.gt_params,
            b.observations,
            cfg.obj.fiducials,
            cfg.rig.image_size,
            phase=1,
        )
        assert parts["loss_reproj"] is None
        assert float(total) == LAM1 * parts["loss_diff"] + LAM1 * parts["loss_geo"]

    def test_phase2_recomposition(self, batch):
        b, cfg = batch
        pred = perturbed_pred(b.gt_params, seed=5)
        total, parts, _ = compound_loss(
            pred,
            b.gt_params,
            b.observations,
            cfg.obj.fiducials,
            cfg.rig.image_size,
            phase=2,
        )
        expected = LAM1 * parts["loss_diff"] + LAM1 * parts["loss_geo"] + LAM2 * parts["loss_reproj"]
        assert float(total) == pytest.approx(expected, rel=1e-12)

    def test_invalid_phase(self, batch):
        b, cfg = batch
        with pytest.raises(ValueError):
            compound_loss(
                b.gt_params,
                b.gt_params,
                b.observations,
                cfg.obj.fiducials,
                cfg.rig.image_size,
                phase=3,
            )


def nudged(gt):
    """gt with its rotation entries scaled by 1 - 4 eps, which puts
    (trace(R^T R_gt) - 1) / 2 a few ULP below 1: where arccos is steepest."""
    pred = gt.copy()
    pred[..., :9] *= 1.0 - 4.0 * np.finfo(float).eps
    return pred


def gradients(loss_fn, pred, *args):
    """Value, as an array, and gradient of a loss term at pred under a unit
    upstream gradient."""
    val, backward = loss_fn(pred, *args)
    return np.asarray(val), backward(np.ones(()))


def tape_gradients(loss_fn, pred, *args):
    """gradients() for a loss composed on the tape."""
    t = tape.parameter(pred)
    val = loss_fn(t, *args)
    val.backward()
    return val.data, t.grad


class TestNodesAgainstTape:
    """loss_diff, loss_geo and compound_loss give values and gradients equal
    to the tape composition (tests/tape.py) bit for bit."""

    def cases(self, gt):
        near = nudged(gt)
        assert np.all(((near[..., :9] * gt[..., :9]).sum(-1) - 1.0) * 0.5 < 1.0)
        return {
            "perturbed": perturbed_pred(gt, seed=8),
            "ground truth": gt,
            "nudged": near,
            "past clamp": gt * np.where(np.arange(21) < 9, 1.0 + 1e-12, 1.0),
        }

    @pytest.mark.parametrize("name", ["loss_diff", "loss_geo"])
    def test_terms(self, batch, name):
        b, _ = batch
        for case, pred in self.cases(b.gt_params).items():
            got = gradients(getattr(losses, name), pred, b.gt_params)
            want = tape_gradients(getattr(tape, name), pred, b.gt_params)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), case
            assert np.isfinite(got[1]).all(), case

    @pytest.mark.parametrize("phase", [1, 2])
    def test_compound(self, batch, phase):
        b, cfg = batch
        args = (b.gt_params, b.observations, cfg.obj.fiducials, cfg.rig.image_size, phase)
        for case, pred in self.cases(b.gt_params).items():
            total, parts, grad = losses.compound_loss(pred, *args)
            t = tape.parameter(pred)
            want_total, want_parts = tape.compound_loss(t, *args)
            want_total.backward()
            got = (np.asarray(total).tobytes(), parts, grad.tobytes())
            assert got == (want_total.data.tobytes(), want_parts, t.grad.tobytes()), case

    def test_diff_gradient_zero_at_exact_zero_residual(self, batch):
        b, _ = batch
        val, grad = gradients(losses.loss_diff, b.gt_params, b.gt_params)
        assert val == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_gradient_zero_at_and_past_clamp(self):
        gt = np.zeros((2, 21))
        gt[:, :9] = np.eye(3).reshape(9)
        pred = gt.copy()
        pred[1, :9] *= 1.0 + 1e-12  # (trace - 1) / 2 just past 1
        val, grad = gradients(losses.loss_geo, pred, gt)
        assert val == 0.0
        np.testing.assert_array_equal(grad, 0.0)


class TestReprojectionRmse:
    def test_oracle_zero(self, batch):
        b, cfg = batch
        total, per_cam = reprojection_rmse(
            b.gt_params, b.observations, cfg.obj.fiducials, cfg.rig.image_size
        )
        assert total == 0.0
        np.testing.assert_array_equal(per_cam, 0.0)

    def test_per_camera_breakdown(self, batch):
        b, cfg = batch
        pred = b.gt_params.copy()
        pred[:, 2, 14] += 3.0  # shift camera 2's principal point only
        total, per_cam = reprojection_rmse(
            pred, b.observations, cfg.obj.fiducials, cfg.rig.image_size
        )
        assert per_cam.shape == (6,)
        assert per_cam[2] == pytest.approx(3.0, rel=1e-12)
        others = np.delete(per_cam, 2)
        np.testing.assert_array_equal(others, 0.0)
        assert total == pytest.approx(np.sqrt((3.0**2) / 6.0), rel=1e-12)

    def test_agrees_with_loss_reproj(self, batch):
        b, cfg = batch
        pred = partly_behind(b.gt_params)
        for p in (pred, perturbed_pred(b.gt_params, seed=6)):
            term = float(
                loss_reproj(p, b.observations, cfg.obj.fiducials, cfg.rig.image_size)[0]
            )
            total, _ = reprojection_rmse(p, b.observations, cfg.obj.fiducials, cfg.rig.image_size)
            assert term == pytest.approx(total, rel=1e-15)
