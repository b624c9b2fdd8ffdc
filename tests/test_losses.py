"""Loss-term tests against independent scalar oracles."""

import numpy as np
import pytest

from ncal import geometry
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
from ncal.nn import autodiff as ad
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


class TestLossDiff:
    def test_zero_at_ground_truth(self, batch):
        b, _ = batch
        assert float(loss_diff(ad.constant(b.gt_params), b.gt_params).data) == 0.0

    def test_scaled_distortion_slot(self):
        gt = np.zeros((1, 21))
        gt[0, :9] = np.eye(3).reshape(9)
        pred = gt.copy()
        pred[0, 16] += 1.0 / LAM_SCALE  # k1 off by 1 / LAM_SCALE -> scaled deviation of 1.0
        val = float(loss_diff(ad.constant(pred), gt).data)
        assert val == pytest.approx(np.sqrt(1.0 / 21.0))

    def test_matches_flatten_scale_rmse_oracle(self, batch):
        b, _ = batch
        rng = np.random.default_rng(1)
        pred = b.gt_params + rng.normal(size=b.gt_params.shape) * 0.01
        got = float(loss_diff(ad.constant(pred), b.gt_params).data)
        s = np.ones(21)
        s[0:9] = LAM_SCALE  # rotation entries
        s[16:21] = LAM_SCALE  # distortion entries
        expected = np.sqrt((((pred - b.gt_params) * s) ** 2).mean())
        assert got == pytest.approx(expected, rel=1e-12)


class TestLossGeo:
    def test_zero_for_identical_exact_rotations(self):
        gt = np.zeros((3, 21))
        gt[:, :9] = np.eye(3).reshape(9)
        assert float(loss_geo(ad.constant(gt), gt).data) == 0.0

    def test_near_zero_for_identical_composed_rotations(self, batch):
        # Rotations assembled from matrix products carry ~1e-13 orthogonality
        # defects; arccos near 1 amplifies those to ~1e-6 radians.
        b, _ = batch
        assert float(loss_geo(ad.constant(b.gt_params), b.gt_params).data) < 1e-5

    def test_mean_of_single_offset(self):
        gt = np.zeros((2, 21))
        gt[:, :9] = np.eye(3).reshape(9)
        pred = gt.copy()
        rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        pred[1, :9] = rz.reshape(9)
        val = float(loss_geo(ad.constant(pred), gt).data)
        assert val == pytest.approx(np.pi / 4)

    def test_matches_geometry_oracle(self, batch):
        b, _ = batch
        pred = perturbed_pred(b.gt_params, seed=2)
        got = float(loss_geo(ad.constant(pred), b.gt_params).data)
        R1 = pred[..., :9].reshape(pred.shape[:-1] + (3, 3))
        R2 = b.gt_params[..., :9].reshape(pred.shape[:-1] + (3, 3))
        expected = geodesic_distance(R1, R2).mean()
        assert got == pytest.approx(expected, rel=1e-10)


class TestLossReproj:
    def test_zero_at_ground_truth(self, batch):
        b, cfg = batch
        val = loss_reproj(
            ad.constant(b.gt_params), b.observations, cfg.obj.fiducials, cfg.rig.image_size
        )
        assert float(val.data) == 0.0

    def test_uniform_principal_point_shift(self, batch):
        b, cfg = batch
        pred = b.gt_params.copy()
        pred[..., 14] += 2.0  # cx + 2 px shifts every projection by exactly 2 px in x
        val = loss_reproj(
            ad.constant(pred), b.observations, cfg.obj.fiducials, cfg.rig.image_size
        )
        assert float(val.data) == pytest.approx(2.0, rel=1e-12)

    def test_matches_project_then_rmse_oracle(self, batch):
        b, cfg = batch
        pred = perturbed_pred(b.gt_params, seed=3)
        val = float(
            loss_reproj(
                ad.constant(pred), b.observations, cfg.obj.fiducials, cfg.rig.image_size
            ).data
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
        t = ad.parameter(pred)
        val = loss_reproj(t, b.observations, cfg.obj.fiducials, cfg.rig.image_size)
        assert np.isfinite(float(val.data))
        val.backward()
        assert np.isfinite(t.grad).all()
        # the 8 masked points dominate the RMSE with the fixed penalty
        diag = np.hypot(*cfg.rig.image_size)
        n_points = b.observations.shape[0] * 6 * 8
        expected_floor = 10.0 * diag * np.sqrt(8 / n_points)
        assert float(val.data) >= expected_floor * 0.99


class TestCompound:
    def test_zero_at_gt_in_both_phases(self, batch):
        b, cfg = batch
        for phase in (1, 2):
            total, parts = compound_loss(
                ad.constant(b.gt_params),
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
            assert float(total.data) < 1e-3

    def test_phase1_independent_of_lam2(self, batch):
        # Phase 1 is exactly LAM1 * (diff + geo): any reprojection term,
        # however small its weight, would change the total.
        b, cfg = batch
        pred = perturbed_pred(b.gt_params, seed=4)
        total, parts = compound_loss(
            ad.constant(pred),
            b.gt_params,
            b.observations,
            cfg.obj.fiducials,
            cfg.rig.image_size,
            phase=1,
        )
        assert parts["loss_reproj"] is None
        assert float(total.data) == LAM1 * parts["loss_diff"] + LAM1 * parts["loss_geo"]

    def test_phase2_recomposition(self, batch):
        b, cfg = batch
        pred = perturbed_pred(b.gt_params, seed=5)
        total, parts = compound_loss(
            ad.constant(pred),
            b.gt_params,
            b.observations,
            cfg.obj.fiducials,
            cfg.rig.image_size,
            phase=2,
        )
        expected = LAM1 * parts["loss_diff"] + LAM1 * parts["loss_geo"] + LAM2 * parts["loss_reproj"]
        assert float(total.data) == pytest.approx(expected, rel=1e-12)

    def test_invalid_phase(self, batch):
        b, cfg = batch
        with pytest.raises(ValueError):
            compound_loss(
                ad.constant(b.gt_params),
                b.gt_params,
                b.observations,
                cfg.obj.fiducials,
                cfg.rig.image_size,
                phase=3,
            )


class TestReprojectionRmse:
    def test_oracle_zero(self, batch):
        b, cfg = batch
        assert reprojection_rmse(
            b.gt_params, b.gt_params, cfg.obj.fiducials, cfg.rig.image_size
        ) == 0.0

    def test_per_camera_breakdown(self, batch):
        b, cfg = batch
        pred = b.gt_params.copy()
        pred[:, 2, 14] += 3.0  # shift camera 2's principal point only
        total, per_cam = reprojection_rmse(
            pred, b.gt_params, cfg.obj.fiducials, cfg.rig.image_size, per_camera=True
        )
        assert per_cam.shape == (6,)
        assert per_cam[2] == pytest.approx(3.0, rel=1e-12)
        others = np.delete(per_cam, 2)
        np.testing.assert_array_equal(others, 0.0)
        assert total == pytest.approx(np.sqrt((3.0**2) / 6.0), rel=1e-12)
