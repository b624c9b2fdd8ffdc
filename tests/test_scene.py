"""Tests for pose synthesis, perturbation, visibility, and rig/object IO."""

import json

import numpy as np
import pytest

from ncal import geometry, scene
from ncal.errors import BadObjectFile, DegenerateLookAt, SynthesisStalled
from ncal.scene import (
    OEMCalibration,
    PerturbationSpec,
    PoseRanges,
    RigSpec,
    SceneConfig,
    hemisphere_centroid,
    look_at_rotation,
    make_object,
    make_rig,
    perturb_intrinsics,
    perturb_mounts,
    place_rig,
    reference_params,
    roll_rotation,
    synthesize_batch,
)
from oracle import CameraParams, geodesic_distance, mount_draws, perturb_rig


@pytest.fixture
def o6_config():
    rig, oem = make_rig("O-6")
    return SceneConfig(rig=rig, oem=oem, obj=make_object("cube8"))


class TestHemisphere:
    def test_pole(self):
        for theta in (0.0, 1.0, 3.0):
            np.testing.assert_allclose(hemisphere_centroid(theta, 0.0, 1.5), [0, 0, 1.5])

    def test_equator_x_axis(self):
        np.testing.assert_allclose(
            hemisphere_centroid(0.0, np.pi / 2, 2.0), [2, 0, 0], atol=1e-15
        )

    def test_norm_equals_radius(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            theta = rng.uniform(0, 2 * np.pi)
            phi = rng.uniform(0, np.pi / 2)
            c = hemisphere_centroid(theta, phi, 1.5)
            assert abs(np.linalg.norm(c) - 1.5) < 1e-12

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            hemisphere_centroid(0.0, 0.0, 0.0)


class TestLookAt:
    def test_straight_down_view(self):
        R = look_at_rotation([0, 0, 2.0], [0, 0, 0])
        np.testing.assert_allclose(R @ [0, 0, 1], [0, 0, -1], atol=1e-15)

    def test_x_axis_view(self):
        R = look_at_rotation([1.0, 0, 0], [0, 0, 0])
        np.testing.assert_allclose(R @ [0, 0, 1], [-1, 0, 0], atol=1e-15)

    def test_alignment_on_random_hemisphere_points(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            eye = hemisphere_centroid(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi / 2), 1.5)
            R = look_at_rotation(eye, [0, 0, 0])
            view = R @ [0, 0, 1]
            expected = -eye / np.linalg.norm(eye)
            # chord length bounds the angle tightly for small angles
            assert np.linalg.norm(view - expected) < 1e-9
            # Proper rotation.
            assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-12
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_up_fallback_near_y_axis(self):
        # View along +y: default up hint must fall back to +x.
        R = look_at_rotation([0, -1.0, 0], [0, 0, 0])
        np.testing.assert_allclose(R @ [0, 0, 1], [0, 1, 0], atol=1e-15)

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateLookAt):
            look_at_rotation([0, 0, 1], [0, 0, 1])


class TestRoll:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(roll_rotation(0.0), np.eye(3))

    def test_full_turn_is_identity(self):
        np.testing.assert_allclose(roll_rotation(2 * np.pi), np.eye(3), atol=1e-12)

    def test_roll_preserves_view_axis_rotates_up(self):
        R_focus = look_at_rotation([0, 0, 1.5], [0, 0, 0])
        W = R_focus @ roll_rotation(np.pi / 3)
        np.testing.assert_array_equal(W @ [0, 0, 1], R_focus @ [0, 0, 1])
        up0 = R_focus @ [0, 1, 0]
        up1 = W @ [0, 1, 0]
        angle = np.arccos(np.clip(up0 @ up1, -1, 1))
        assert angle == pytest.approx(np.pi / 3, abs=1e-12)


def posed(rig, oem, theta, phi, alpha, rho):
    return place_rig(rig.mount_R, rig.mount_t, oem.intrinsics, theta, phi, alpha, rho)


class TestPoseRig:
    def test_single_camera_at_pole(self):
        rig = RigSpec("single", np.eye(3)[None], np.zeros((1, 3)))
        oem = OEMCalibration(scene.RIG_INTRINSICS[None])
        params = posed(rig, oem, 0.0, 0.0, 0.0, 1.5)
        cam = CameraParams.from_vector(params[0])
        center = -cam.extrinsics.R.T @ cam.extrinsics.t
        np.testing.assert_allclose(center, [0, 0, 1.5], atol=1e-12)
        view = cam.extrinsics.R.T @ [0, 0, 1]
        np.testing.assert_allclose(view, [0, 0, -1], atol=1e-12)

    def test_fixed_pose_deterministic_given_alpha(self):
        rig, oem = make_rig("O-6")
        a = posed(rig, oem, 0.0, 0.0, 1.23, 1.5)
        b = posed(rig, oem, 0.0, 0.0, 1.23, 1.5)
        np.testing.assert_array_equal(a, b)

    def test_central_camera_sees_object_centroid_at_image_center(self):
        # A mount at the rig origin with identity rotation looks straight at
        # the object centroid for any pose; tangential distortion vanishes at
        # the principal axis, so the projection is exactly the principal point.
        rig = RigSpec("central", np.eye(3)[None], np.zeros((1, 3)))
        oem = OEMCalibration(scene.RIG_INTRINSICS[None])
        rng = np.random.default_rng(3)
        for _ in range(100):
            pose = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
            params = posed(rig, oem, *pose, 1.5)
            pix, valid = geometry.project_array(params[0], np.zeros((1, 3)))
            assert valid.all()
            assert abs(pix[0, 0] - 512.0) < 1.0
            assert abs(pix[0, 1] - 512.0) < 1.0

    def test_reference_pose_defines_oem_world_params(self):
        rig, oem = make_rig("O-6")
        ref = reference_params(rig, oem, 1.5)
        again = posed(rig, oem, 0.0, 0.0, 0.0, 1.5)
        np.testing.assert_array_equal(ref, again)
        assert ref.shape == (6, 21)

    def test_rig_placement_preserves_pairwise_distances(self):
        rig, oem = make_rig("O-10")
        rng = np.random.default_rng(4)
        nominal = rig.mount_t
        d_nominal = np.linalg.norm(nominal[:, None] - nominal[None, :], axis=-1)
        for _ in range(20):
            pose = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
            params = posed(rig, oem, *pose, 1.5)
            R = params[:, :9].reshape(-1, 3, 3)
            t = params[:, 9:12]
            centers = -np.einsum("nji,nj->ni", R, t)
            d = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
            np.testing.assert_allclose(d, d_nominal, atol=1e-9)


class TestPerturb:
    INTR = np.array([[1000.0, 1100.0, 512.0, 500.0, 0.01, 0.01, 0.01, 0.01, 0.01]])
    MOUNT_R = np.eye(3)[None]
    MOUNT_T = np.array([[0.1, -0.2, 0.3]])

    def test_zero_kappa_identity(self):
        rng = np.random.default_rng(0)
        u = rng.random((1,) + self.INTR.shape)
        np.testing.assert_array_equal(perturb_intrinsics(self.INTR, 0.0, u)[0], self.INTR)
        R, t = (a[0] for a in perturb_mounts(self.MOUNT_R, self.MOUNT_T, 0.0,
                                             *mount_draws(rng, 1, 1)))
        np.testing.assert_array_equal(R, self.MOUNT_R)
        np.testing.assert_array_equal(t, self.MOUNT_T)

    def test_multiplicative_formula(self):
        # The same delta draw from a twin generator: nonzero entries are
        # scaled by (1 + delta), zero distortion slots become delta * scale.
        intr = np.array([[1000.0, 1100.0, 512.0, 500.0, 0.01, 0.0, -0.02, 0.0, 0.01]] * 3)
        out = perturb_intrinsics(intr, 0.1, np.random.default_rng(5).random((1,) + intr.shape))[0]
        delta = np.random.default_rng(5).uniform(-0.1, 0.1, size=intr.shape)
        zero = intr == 0.0
        np.testing.assert_array_equal(out[~zero], (intr * (1.0 + delta))[~zero])
        np.testing.assert_array_equal(out[zero], (delta * scene.ZERO_DISTORTION_SCALE)[zero])

    def test_bounds_over_many_draws(self):
        rng = np.random.default_rng(7)
        kappa = 0.1
        ratios = []
        for _ in range(2000):
            out = perturb_intrinsics(self.INTR, kappa, rng.random((1,) + self.INTR.shape))[0]
            ratios.append(out / self.INTR - 1.0)
            # extrinsics untouched when kappa_ext = 0
            R, t = (a[0] for a in perturb_mounts(self.MOUNT_R, self.MOUNT_T, 0.0,
                                                 *mount_draws(rng, 1, 1)))
            np.testing.assert_array_equal(R, self.MOUNT_R)
            np.testing.assert_array_equal(t, self.MOUNT_T)
        ratios = np.concatenate(ratios)
        assert np.abs(ratios).max() <= kappa

    def test_uniform_bounds_tight(self):
        # The perturbation spans the whole [-kappa, kappa] range.
        rng = np.random.default_rng(11)
        kappa = 0.1
        ratios = np.stack([
            perturb_intrinsics(self.INTR, kappa, rng.random((1,) + self.INTR.shape))[0]
            / self.INTR - 1.0 for _ in range(2000)])
        assert 0.95 * kappa <= np.abs(ratios).max() <= kappa

    def test_extrinsic_perturbation_keeps_rotation_valid(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            R = perturb_mounts(self.MOUNT_R, self.MOUNT_T, 0.1, *mount_draws(rng, 1, 1))[0][0, 0]
            assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-12
            # rotation deviation bounded by kappa_ext * 10 degrees
            angle = geodesic_distance(self.MOUNT_R[0], R)
            assert angle <= 0.1 * np.pi / 18 + 1e-12

    def test_zero_distortion_perturbs_additively(self):
        intr = np.array([[1000.0, 1000.0, 512.0, 512.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        rng = np.random.default_rng(17)
        dist = perturb_intrinsics(intr, 0.1, rng.random((1,) + intr.shape))[0, 0, 4:9]
        assert np.any(dist != 0.0)
        assert np.abs(dist).max() <= 0.1 * scene.ZERO_DISTORTION_SCALE

    @pytest.mark.parametrize("kappa", [0.0, 0.15])
    @pytest.mark.parametrize("distortion", [0.01, 0.0])
    def test_stacked_equals_one_generator_per_call(self, kappa, distortion):
        # The draws of n generators in one call give bitwise the n
        # single-generator calls and the one-camera-at-a-time oracle, also
        # where zero distortion takes the ZERO_DISTORTION_SCALE branch.
        rig, oem = make_rig("O-6")
        intr = oem.intrinsics.copy()
        intr[:, 4:9] = distortion

        def rngs():
            return [np.random.default_rng([3, i]) for i in range(5)]

        def draws(rng):
            # One generator's draws in synthesis order, each with a leading axis of 1.
            return (rng.random((1,) + intr.shape),) + mount_draws(rng, 1, rig.n_cameras)

        u, *mount = (np.concatenate(a) for a in zip(*map(draws, rngs())))
        intr_n = perturb_intrinsics(intr, kappa, u)
        R_n, t_n = perturb_mounts(rig.mount_R, rig.mount_t, kappa, *mount)
        assert intr_n.shape == (5, 6, 9) and R_n.shape == (5, 6, 3, 3) and t_n.shape == (5, 6, 3)
        for i, (rng, twin) in enumerate(zip(rngs(), rngs())):
            u, *mount = draws(rng)
            assert intr_n[i].tobytes() == perturb_intrinsics(intr, kappa, u)[0].tobytes()
            R, t = perturb_mounts(rig.mount_R, rig.mount_t, kappa, *mount)
            assert R_n[i].tobytes() == R[0].tobytes()
            assert t_n[i].tobytes() == t[0].tobytes()
            ref = perturb_rig(intr, rig.mount_R, rig.mount_t, kappa, kappa, twin)
            assert [a.tobytes() for a in ref] == [x[i].tobytes() for x in (intr_n, R_n, t_n)]
        if kappa and not distortion:
            assert np.all(intr_n[..., 4:9] != 0.0)

class TestObjects:
    def test_cube8_corners(self):
        obj = make_object("cube8")
        assert obj.n_fiducials == 8
        np.testing.assert_allclose(np.abs(obj.fiducials), 0.05)
        np.testing.assert_allclose(obj.fiducials.mean(axis=0), [0, 0, 0], atol=1e-15)

    def test_cube27_contains_origin(self):
        obj = make_object("cube27")
        assert obj.n_fiducials == 27
        assert any(np.all(p == 0.0) for p in obj.fiducials)

    def test_sphere64_norms(self):
        obj = make_object("sphere64")
        assert obj.n_fiducials == 64
        norms = np.linalg.norm(obj.fiducials, axis=1)
        np.testing.assert_allclose(norms, 0.1, atol=1e-12)

    def test_object_file_round_trip(self, tmp_path):
        obj = make_object("sphere64")
        path = tmp_path / "obj.json"
        scene.save_object(obj, path)
        back = scene.load_object(str(path))
        assert back.name == obj.name
        np.testing.assert_allclose(back.fiducials, obj.fiducials)

    def test_malformed_object_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(BadObjectFile):
            scene.load_object(str(path))
        path.write_text("not json")
        with pytest.raises(BadObjectFile):
            scene.load_object(str(path))

    def test_fewer_than_four_fiducials_rejected(self):
        with pytest.raises(ValueError, match="at least 4 fiducials"):
            scene.CalibrationObject("three", make_object("cube8").fiducials[:3])

    @pytest.mark.parametrize("kind", ["cube8", "cube27", "sphere64"])
    def test_make_object_reads_an_object_file(self, tmp_path, kind):
        obj = make_object(kind)
        path = tmp_path / "obj.json"
        scene.save_object(obj, path)
        back = make_object(str(path))
        assert back.name == kind
        assert back.fiducials.tobytes() == obj.fiducials.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_object_file_with_non_finite_fiducial_rejected(self, tmp_path, value):
        obj = make_object("cube8")
        fid = obj.fiducials.copy()
        fid[3, 1] = value
        path = tmp_path / "obj.json"
        path.write_text(json.dumps({"name": "bad", "fiducials": fid.tolist()}))
        with pytest.raises(BadObjectFile, match="finite"):
            scene.load_object(str(path))


class TestRigs:
    @pytest.mark.parametrize("defect", [np.diag([1.01, 1.0, 1.0]), np.diag([1.0, 1.0, -1.0])])
    def test_rejects_non_rotation_mount(self, defect):
        rig, _ = make_rig("T-4")
        mount_R = rig.mount_R.copy()
        mount_R[2] = mount_R[2] @ defect  # a scaled axis, or a reflection
        with pytest.raises(ValueError, match="proper rotations"):
            RigSpec("bad", mount_R, rig.mount_t)

    @pytest.mark.parametrize("mount_R, mount_t", [
        (np.tile(np.eye(3), (2, 1, 1)), np.zeros((3, 3))),
        (np.eye(3), np.zeros((1, 3))),
        (np.zeros((2, 3, 2)), np.zeros((2, 3))),
        (np.tile(np.eye(3), (2, 1, 1)), np.zeros((2, 2))),
    ], ids=["counts differ", "no camera axis", "not 3 x 3", "translations not 3-vectors"])
    def test_inconsistent_mount_shapes_rejected(self, mount_R, mount_t):
        with pytest.raises(ValueError, match="inconsistent mount shapes"):
            RigSpec("bad", mount_R, mount_t)

    def test_rig_without_cameras_rejected(self):
        with pytest.raises(ValueError, match="at least one camera"):
            RigSpec("empty", np.zeros((0, 3, 3)), np.zeros((0, 3)))

    @pytest.mark.parametrize("kind,n", [("O-10", 10), ("O-6", 6), ("U-7", 7), ("T-4", 4)])
    def test_builtin_counts(self, kind, n):
        rig, oem = make_rig(kind)
        assert rig.n_cameras == n
        assert oem.n_cameras == n

    @pytest.mark.parametrize("size", [[1024], [-5, 3], [0, 0], [1024, 1024, 3]])
    def test_rig_file_with_bad_image_size_rejected(self, tmp_path, size):
        rig, oem = make_rig("T-4")
        path = tmp_path / "rig.json"
        scene.save_rig(rig, oem, path)
        doc = json.loads(path.read_text())
        doc["image_size"] = size
        path.write_text(json.dumps(doc))
        with pytest.raises(BadObjectFile):
            scene.load_rig(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rig_file_with_non_finite_mount_translation_rejected(self, tmp_path, value):
        rig, oem = make_rig("T-4")
        path = tmp_path / "rig.json"
        scene.save_rig(rig, oem, path)
        doc = json.loads(path.read_text())
        doc["cameras"][1]["t"][2] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(BadObjectFile, match="finite"):
            scene.load_rig(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rig_file_with_non_finite_intrinsic_rejected(self, tmp_path, value):
        rig, oem = make_rig("T-4")
        path = tmp_path / "rig.json"
        scene.save_rig(rig, oem, path)
        doc = json.loads(path.read_text())
        doc["intrinsics"][2]["fx"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(BadObjectFile, match="finite"):
            scene.load_rig(str(path))

    def test_rig_file_camera_count_mismatch_rejected(self, tmp_path):
        rig, oem = make_rig("T-4")
        path = tmp_path / "rig.json"
        scene.save_rig(rig, oem, path)
        doc = json.loads(path.read_text())
        doc["intrinsics"].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(BadObjectFile, match="camera/intrinsics count mismatch"):
            scene.load_rig(str(path))

    @pytest.mark.parametrize("kind", ["O-6", "U-7"])
    def test_make_rig_reads_a_rig_file(self, tmp_path, kind):
        rig, oem = make_rig(kind)
        path = tmp_path / "rig.json"
        scene.save_rig(rig, oem, path)
        rig2, oem2 = make_rig(str(path))
        assert (rig2.name, rig2.image_size) == (kind, rig.image_size)
        assert rig2.mount_R.tobytes() == rig.mount_R.tobytes()
        assert rig2.mount_t.tobytes() == rig.mount_t.tobytes()
        assert oem2.intrinsics.tobytes() == oem.intrinsics.tobytes()

    def test_rig_file_round_trip(self, tmp_path):
        rig, oem = make_rig("T-4")
        path = tmp_path / "rig.json"
        scene.save_rig(rig, oem, path)
        rig2, oem2 = scene.load_rig(str(path))
        np.testing.assert_allclose(rig2.mount_R, rig.mount_R)
        np.testing.assert_allclose(rig2.mount_t, rig.mount_t)
        np.testing.assert_allclose(oem2.intrinsics, oem.intrinsics)
        assert rig2.image_size == rig.image_size


class TestOEMCalibration:
    @pytest.mark.parametrize("shape", [(9,), (4, 8), (4, 10), (2, 4, 9)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"must be \(N_C, 9\)"):
            OEMCalibration(np.ones(shape))

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("focal", [0.0, -1100.0])
    def test_non_positive_focal_length_rejected(self, column, focal):
        intr = np.tile(scene.RIG_INTRINSICS, (3, 1))
        intr[1, column] = focal
        with pytest.raises(ValueError, match="focal lengths must be positive"):
            OEMCalibration(intr)


class TestPerturbationSpec:
    @pytest.mark.parametrize("name", ["kappa_int", "kappa_ext"])
    @pytest.mark.parametrize("kappa", [-0.01, 0.51, np.inf, np.nan])
    def test_kappa_outside_its_range_rejected(self, name, kappa):
        with pytest.raises(ValueError, match=r"kappa must lie in \[0, 0.5\]"):
            PerturbationSpec(**{name: kappa})


class TestSynthesis:
    def test_empty_batch(self, o6_config):
        batch = synthesize_batch(o6_config, 0, seed=1)
        assert len(batch) == 0
        assert batch.gt_params.shape == (0, 6, 21)

    def test_negative_count_rejected(self, o6_config):
        with pytest.raises(ValueError, match="n must be >= 0"):
            synthesize_batch(o6_config, -1, seed=1)

    @pytest.mark.parametrize("seed,error", [(-1, ValueError), (2.5, TypeError)])
    def test_bad_seed_rejected(self, o6_config, seed, error):
        # NumPy's SeedSequence refuses the seed of sample 0.
        with pytest.raises(error):
            synthesize_batch(o6_config, 2, seed)

    def test_seeded_determinism(self, o6_config):
        a = synthesize_batch(o6_config, 16, seed=42)
        b = synthesize_batch(o6_config, 16, seed=42)
        assert a.gt_params.tobytes() == b.gt_params.tobytes()
        assert a.observations.tobytes() == b.observations.tobytes()
        c = synthesize_batch(o6_config, 16, seed=43)
        assert a.observations.tobytes() != c.observations.tobytes()

    def test_prefix_independent_of_batch_size(self, o6_config):
        # Sample i draws from its own (seed, i) stream, so a smaller batch is
        # bitwise the prefix of a larger one.
        a = synthesize_batch(o6_config, 10, seed=5)
        b = synthesize_batch(o6_config, 24, seed=5)
        assert a.gt_params.tobytes() == b.gt_params[:10].tobytes()
        assert a.observations.tobytes() == b.observations[:10].tobytes()

    def test_all_samples_pass_visibility_recheck(self, o6_config):
        cfg = SceneConfig(
            rig=o6_config.rig,
            oem=o6_config.oem,
            obj=o6_config.obj,
            perturbation=PerturbationSpec(0.1, 0.1),
        )
        batch = synthesize_batch(cfg, 64, seed=3)
        # Re-project from the parameters, independently of the stored observations.
        pix, valid = geometry.project_array(batch.gt_params, cfg.obj.fiducials)
        assert valid.all()
        w, h = cfg.rig.image_size
        m = scene.VISIBILITY_MARGIN
        assert (pix >= m).all()
        assert (pix[..., 0] <= w - m).all() and (pix[..., 1] <= h - m).all()

    def test_observations_match_reprojection(self, o6_config):
        batch = synthesize_batch(o6_config, 8, seed=9)
        for gt, obs in zip(batch.gt_params, batch.observations):
            pix, valid = geometry.project_array(gt, o6_config.obj.fiducials)
            assert valid.all()
            np.testing.assert_array_equal(pix, obs)
        # evaluate scores predictions against observations on this premise:
        # one projection over the whole stack reproduces them bitwise.
        pix, valid = geometry.project_array(batch.gt_params, o6_config.obj.fiducials)
        assert valid.all()
        np.testing.assert_array_equal(pix, batch.observations)

    def test_fixed_pose_constant_centroid(self):
        rig, oem = make_rig("O-6")
        cfg = SceneConfig(
            rig=rig,
            oem=oem,
            obj=make_object("cube8"),
            pose_ranges=PoseRanges(theta=(0.0, 0.0), phi=(0.0, 0.0)),
        )
        batch = synthesize_batch(cfg, 16, seed=2)
        for gt in batch.gt_params:
            R = gt[:, :9].reshape(-1, 3, 3)
            t = gt[:, 9:12]
            centers = -np.einsum("nji,nj->ni", R, t)
            np.testing.assert_allclose(centers.mean(axis=0), [0, 0, 1.5], atol=1e-9)

    def test_reference_pose_with_zero_kappa_reproduces_oem(self):
        rig, oem = make_rig("O-6")
        cfg = SceneConfig(
            rig=rig,
            oem=oem,
            obj=make_object("cube8"),
            pose_ranges=PoseRanges(theta=(0.0, 0.0), phi=(0.0, 0.0), alpha=(0.0, 0.0)),
        )
        batch = synthesize_batch(cfg, 4, seed=0)
        ref = reference_params(rig, oem, cfg.radius)
        for gt in batch.gt_params:
            np.testing.assert_array_equal(gt, ref)

    def test_intrinsic_bounds_hold_in_batches(self):
        rig, oem = make_rig("O-6")
        kappa = 0.1
        cfg = SceneConfig(
            rig=rig, oem=oem, obj=make_object("cube8"), perturbation=PerturbationSpec(kappa, 0.0)
        )
        batch = synthesize_batch(cfg, 128, seed=21)
        ratios = batch.gt_params[:, :, 12:21] / oem.intrinsics[None, :, :] - 1.0
        assert np.abs(ratios).max() <= kappa

    @pytest.mark.parametrize("ranges", [
        PoseRanges(), PoseRanges(theta=(0.5, 5.0), phi=(0.2, 1.3), alpha=(1.0, 4.0))])
    def test_each_sample_rebuilt_from_its_own_stream(self, ranges):
        # Sample i draws from default_rng(SeedSequence([seed, i])): its
        # intrinsic perturbation, its mount perturbation, then theta, phi and
        # alpha per attempt until the pose is visible. At radius 0.7 some
        # poses are rejected, so the attempt rounds are exercised.
        rig, oem = make_rig("O-6")
        cfg = SceneConfig(rig, oem, make_object("cube8"), radius=0.7,
                          perturbation=PerturbationSpec(0.2, 0.2), pose_ranges=ranges)
        n, seed = 48, 7
        batch = synthesize_batch(cfg, n, seed)
        margin = scene.VISIBILITY_MARGIN
        hi = np.subtract(rig.image_size, margin)
        attempts = 0
        for i in range(n):
            rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
            intr, mR, mt = perturb_rig(oem.intrinsics, rig.mount_R, rig.mount_t, 0.2, 0.2, rng)
            for _ in range(scene.MAX_ATTEMPTS_PER_SAMPLE):
                attempts += 1
                pose = [rng.uniform(*r) for r in (ranges.theta, ranges.phi, ranges.alpha)]
                params = place_rig(mR, mt, intr, *pose, cfg.radius)
                pixels, valid = geometry.project_array(params, cfg.obj.fiducials)
                if valid.all() and (pixels >= margin).all() and (pixels <= hi).all():
                    break
            assert batch.gt_params[i].tobytes() == params.tobytes()
            assert batch.observations[i].tobytes() == pixels.tobytes()
        assert attempts > n
        assert batch.attempts == attempts

    @pytest.mark.parametrize("ranges", [
        PoseRanges(),
        PoseRanges(theta=(0.3, 2.0), phi=(0.1, 1.2), alpha=(1.0, 6.0)),
        PoseRanges(theta=(0.0, 0.0), phi=(0.0, 0.0), alpha=(0.0, 0.0)),
        PoseRanges(theta=(1.5, 1.5), phi=(0.7, 0.7), alpha=(2.0, 2.0)),
    ])
    def test_pose_draw_mapping_equals_uniform(self, ranges):
        # Synthesis maps one random(3) draw to lo + (hi - lo) * u, which must
        # equal three Generator.uniform(lo, hi) calls bitwise.
        bounds = (ranges.theta, ranges.phi, ranges.alpha)
        lo, hi = np.transpose(bounds)
        for seed in range(500):
            mapped = lo + (hi - lo) * np.random.default_rng(seed).random(3)
            rng = np.random.default_rng(seed)
            assert mapped.tobytes() == np.array([rng.uniform(*b) for b in bounds]).tobytes()

    def test_vectorized_seeding_checked_against_numpy(self, o6_config, monkeypatch):
        # One wrong starting state must stop the batch, not be drawn from.
        vectorized = scene._pcg64_states

        def one_wrong(seed, n):
            states = vectorized(seed, n)
            states[0]["state"]["state"] ^= 1
            return states

        monkeypatch.setattr(scene, "_pcg64_states", one_wrong)
        with pytest.raises(RuntimeError, match=r"disagrees with SeedSequence\(\[5, 0\]\)"):
            synthesize_batch(o6_config, 3, seed=5)

    def test_stall_on_infeasible_radius(self):
        rig, oem = make_rig("O-6")
        cfg = SceneConfig(rig=rig, oem=oem, obj=make_object("cube8"), radius=0.01)
        with pytest.raises(SynthesisStalled):
            synthesize_batch(cfg, 4, seed=0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_radius_rejected(self, radius):
        rig, oem = make_rig("O-6")
        with pytest.raises(ValueError):
            SceneConfig(rig=rig, oem=oem, obj=make_object("cube8"), radius=radius)

    def test_camera_count_mismatch_rejected(self):
        rig, _ = make_rig("O-6")
        _, oem10 = make_rig("O-10")
        with pytest.raises(ValueError):
            SceneConfig(rig=rig, oem=oem10, obj=make_object("cube8"))


class TestPoseRanges:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            PoseRanges(theta=(0.0, 7.0))
