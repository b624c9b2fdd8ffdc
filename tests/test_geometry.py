"""Tests for the camera model: projection, distortion, rotations, Jacobians."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from ncal.errors import BehindCamera, DegenerateRotation
from ncal.geometry import (
    CameraParams,
    Extrinsics,
    Intrinsics,
    distort,
    geodesic_distance,
    matrix_to_rot6d,
    project,
    project_array,
    project_jacobian,
    project_jacobian_array,
    rot6d_to_matrix,
    world_to_camera,
)


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng):
    q = rng.normal(size=4)
    return ScipyRotation.from_quat(q / np.linalg.norm(q)).as_matrix()


def random_params(rng):
    """A well-conditioned random camera with the point cloud in front of it."""
    R = random_rotation(rng)
    t = rng.uniform(-0.5, 0.5, size=3)
    t[2] = rng.uniform(1.0, 3.0)  # keep depth positive for points near origin
    intr = Intrinsics(
        fx=rng.uniform(600, 1500),
        fy=rng.uniform(600, 1500),
        cx=rng.uniform(400, 600),
        cy=rng.uniform(400, 600),
        k1=rng.uniform(-0.05, 0.05),
        k2=rng.uniform(-0.05, 0.05),
        k3=rng.uniform(-0.05, 0.05),
        p1=rng.uniform(-0.02, 0.02),
        p2=rng.uniform(-0.02, 0.02),
    )
    return CameraParams(Extrinsics(R=R, t=t), intr)


class TestWorldToCamera:
    def test_identity(self):
        ext = Extrinsics(R=np.eye(3), t=np.zeros(3))
        np.testing.assert_array_equal(world_to_camera([1.0, 2.0, 3.0], ext), [1, 2, 3])

    def test_pure_translation(self):
        ext = Extrinsics(R=np.eye(3), t=np.array([0.1, 0.2, 0.3]))
        np.testing.assert_allclose(world_to_camera([0.0, 0.0, 0.0], ext), [0.1, 0.2, 0.3])

    def test_axis_rotation(self):
        ext = Extrinsics(R=rot_z(np.pi / 2), t=np.zeros(3))
        np.testing.assert_allclose(
            world_to_camera([1.0, 0.0, 0.0], ext), [0, 1, 0], atol=1e-15
        )


class TestDistort:
    def test_zero_coefficients_identity(self):
        intr = Intrinsics(fx=1000, fy=1000, cx=512, cy=512)
        assert distort(0.1, 0.2, intr) == (0.1, 0.2)

    def test_on_axis_point(self):
        intr = Intrinsics(fx=1000, fy=1000, cx=512, cy=512, k1=0.3, k2=0.2, k3=0.1)
        assert distort(0.0, 0.0, intr) == (0.0, 0.0)

    def test_radial_only_reference_value(self):
        # r^2 = 0.05, radial factor = 1 + 0.1 * 0.05 = 1.005
        intr = Intrinsics(fx=1000, fy=1000, cx=512, cy=512, k1=0.1)
        x_d, y_d = distort(0.1, 0.2, intr)
        assert x_d == pytest.approx(0.1005, abs=1e-15)
        assert y_d == pytest.approx(0.2010, abs=1e-15)

    def test_scalar_polynomial_oracle(self):
        # Independent term-by-term evaluation of the distortion polynomial.
        rng = np.random.default_rng(7)
        intr = Intrinsics(
            fx=1000, fy=1000, cx=0, cy=0, k1=0.11, k2=-0.07, k3=0.02, p1=0.01, p2=-0.03
        )
        for _ in range(50):
            x, y = rng.uniform(-0.5, 0.5, size=2)
            r2 = x**2 + y**2
            radial = 1 + intr.k1 * r2 + intr.k2 * r2**2 + intr.k3 * r2**3
            ex = x * radial + 2 * intr.p1 * x * y + intr.p2 * (r2 + 2 * x**2)
            ey = y * radial + intr.p1 * (r2 + 2 * y**2) + 2 * intr.p2 * x * y
            x_d, y_d = distort(x, y, intr)
            assert x_d == pytest.approx(ex, rel=1e-14)
            assert y_d == pytest.approx(ey, rel=1e-14)


class TestProject:
    def test_principal_axis_point(self):
        params = CameraParams(
            Extrinsics(R=np.eye(3), t=np.zeros(3)),
            Intrinsics(fx=1000, fy=1000, cx=512, cy=512),
        )
        np.testing.assert_allclose(project([0, 0, 2.0], params), [512, 512])

    def test_pinhole_arithmetic(self):
        params = CameraParams(
            Extrinsics(R=np.eye(3), t=np.zeros(3)),
            Intrinsics(fx=1000, fy=1000, cx=512, cy=512),
        )
        np.testing.assert_allclose(project([0.1, 0.2, 1.0], params), [612, 712])

    def test_pinhole_with_distortion(self):
        params = CameraParams(
            Extrinsics(R=np.eye(3), t=np.zeros(3)),
            Intrinsics(fx=1000, fy=1000, cx=512, cy=512, k1=0.1),
        )
        np.testing.assert_allclose(project([0.1, 0.2, 1.0], params), [612.5, 713.0])

    def test_behind_camera_raises(self):
        params = CameraParams(
            Extrinsics(R=np.eye(3), t=np.zeros(3)),
            Intrinsics(fx=1000, fy=1000, cx=512, cy=512),
        )
        with pytest.raises(BehindCamera):
            project([0.0, 0.0, -1.0], params)
        with pytest.raises(BehindCamera):
            project([0.0, 0.0, 0.0], params)

    def test_zero_distortion_matches_bare_pinhole(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            params = random_params(rng)
            intr = params.intrinsics
            clean = Intrinsics(fx=intr.fx, fy=intr.fy, cx=intr.cx, cy=intr.cy)
            params = CameraParams(params.extrinsics, clean)
            P = rng.uniform(-0.2, 0.2, size=3)
            Pc = world_to_camera(P, params.extrinsics)
            expected = [
                intr.fx * Pc[0] / Pc[2] + intr.cx,
                intr.fy * Pc[1] / Pc[2] + intr.cy,
            ]
            np.testing.assert_allclose(project(P, params), expected, rtol=1e-14)

    def test_array_agrees_with_scalar(self):
        rng = np.random.default_rng(11)
        params = random_params(rng)
        pts = rng.uniform(-0.2, 0.2, size=(20, 3))
        pix, valid = project_array(params.to_vector(), pts)
        assert valid.all()
        for i in range(20):
            np.testing.assert_allclose(pix[i], project(pts[i], params), rtol=1e-13)

    def test_array_flags_behind_camera(self):
        params = CameraParams(
            Extrinsics(R=np.eye(3), t=np.zeros(3)),
            Intrinsics(fx=1000, fy=1000, cx=512, cy=512),
        )
        pts = np.array([[0, 0, 1.0], [0, 0, -1.0]])
        pix, valid = project_array(params.to_vector(), pts)
        assert valid.tolist() == [True, False]
        assert np.isfinite(pix).all()


class TestRot6d:
    def test_canonical_columns(self):
        np.testing.assert_allclose(rot6d_to_matrix([1, 0, 0, 0, 1, 0]), np.eye(3))

    def test_scale_invariance(self):
        np.testing.assert_allclose(rot6d_to_matrix([2, 0, 0, 0, 3, 0]), np.eye(3))

    def test_orthogonality_over_random_draws(self):
        rng = np.random.default_rng(0)
        r6 = rng.normal(size=(10_000, 6))
        R = rot6d_to_matrix(r6)
        err = np.linalg.norm(np.swapaxes(R, -1, -2) @ R - np.eye(3), axis=(-2, -1))
        assert err.max() < 1e-9
        assert np.abs(np.linalg.det(R) - 1.0).max() < 1e-9

    def test_degenerate_zero_column(self):
        with pytest.raises(DegenerateRotation):
            rot6d_to_matrix([0, 0, 0, 0, 1, 0])

    def test_degenerate_parallel_columns(self):
        with pytest.raises(DegenerateRotation):
            rot6d_to_matrix([1, 0, 0, 2, 0, 0])

    def test_identity_readoff(self):
        np.testing.assert_array_equal(matrix_to_rot6d(np.eye(3)), [1, 0, 0, 0, 1, 0])

    def test_rz_readoff(self):
        np.testing.assert_allclose(
            matrix_to_rot6d(rot_z(np.pi / 2)), [0, 1, 0, -1, 0, 0], atol=1e-15
        )

    def test_round_trip_random_rotations(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            R = random_rotation(rng)
            R2 = rot6d_to_matrix(matrix_to_rot6d(R))
            assert np.linalg.norm(R2 - R) < 1e-9


class TestGeodesic:
    def test_identity_pair(self):
        assert geodesic_distance(np.eye(3), np.eye(3)) == 0.0

    def test_quarter_turn(self):
        assert geodesic_distance(np.eye(3), rot_z(np.pi / 2)) == pytest.approx(np.pi / 2)

    def test_quaternion_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            R1, R2 = random_rotation(rng), random_rotation(rng)
            q1 = ScipyRotation.from_matrix(R1).as_quat()
            q2 = ScipyRotation.from_matrix(R2).as_quat()
            expected = 2.0 * np.arccos(np.clip(abs(q1 @ q2), -1.0, 1.0))
            assert geodesic_distance(R1, R2) == pytest.approx(expected, abs=1e-8)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            A, B, C = (random_rotation(rng) for _ in range(3))
            assert geodesic_distance(A, B) == pytest.approx(geodesic_distance(B, A), abs=1e-12)
            assert geodesic_distance(A, C) <= (
                geodesic_distance(A, B) + geodesic_distance(B, C) + 1e-8
            )

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = geodesic_distance(random_rotation(rng), random_rotation(rng))
            assert 0.0 <= d <= np.pi


def finite_difference_jacobian(params_vec, P, h=1e-6):
    """Central-difference 2x21 Jacobian oracle, independent of the analytic path."""
    jac = np.zeros((2, 21))
    for j in range(21):
        hi = params_vec.copy()
        lo = params_vec.copy()
        hi[j] += h
        lo[j] -= h
        pix_hi, _ = project_array(hi, P.reshape(1, 3))
        pix_lo, _ = project_array(lo, P.reshape(1, 3))
        jac[:, j] = (pix_hi[0] - pix_lo[0]) / (2 * h)
    return jac


class TestProjectJacobian:
    def test_principal_point_columns(self):
        rng = np.random.default_rng(2)
        params = random_params(rng)
        J = project_jacobian(rng.uniform(-0.1, 0.1, size=3), params)
        assert J[0, 14] == 1.0 and J[1, 15] == 1.0
        assert J[0, 15] == 0.0 and J[1, 14] == 0.0

    def test_focal_column_is_distorted_coordinate(self):
        rng = np.random.default_rng(4)
        params = random_params(rng)
        P = rng.uniform(-0.1, 0.1, size=3)
        J = project_jacobian(P, params)
        Pc = world_to_camera(P, params.extrinsics)
        x_d, y_d = distort(Pc[0] / Pc[2], Pc[1] / Pc[2], params.intrinsics)
        assert J[0, 12] == pytest.approx(x_d, rel=1e-12)
        assert J[1, 13] == pytest.approx(y_d, rel=1e-12)

    def test_full_block_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        params = random_params(rng)
        P = rng.uniform(-0.1, 0.1, size=3)
        vec = params.to_vector()
        J = project_jacobian(P, params)
        J_fd = finite_difference_jacobian(vec, P)
        np.testing.assert_allclose(J, J_fd, rtol=1e-4, atol=1e-6)

    def test_behind_camera_raises(self):
        params = CameraParams(
            Extrinsics(R=np.eye(3), t=np.zeros(3)),
            Intrinsics(fx=1000, fy=1000, cx=512, cy=512),
        )
        with pytest.raises(BehindCamera):
            project_jacobian([0, 0, -1.0], params)

    def test_batched_jacobian_matches_single(self):
        rng = np.random.default_rng(21)
        vecs = np.stack([random_params(rng).to_vector() for _ in range(4)])
        pts = rng.uniform(-0.15, 0.15, size=(4, 6, 3))
        _, valid, jac = project_jacobian_array(vecs, pts)
        assert valid.all()
        for i in range(4):
            for f in range(6):
                single = project_jacobian(pts[i, f], CameraParams.from_vector(vecs[i]))
                np.testing.assert_allclose(jac[i, f], single, rtol=1e-12, atol=1e-12)


class TestParamVector:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        params = random_params(rng)
        vec = params.to_vector()
        assert vec.shape == (21,)
        back = CameraParams.from_vector(vec)
        np.testing.assert_array_equal(back.to_vector(), vec)

    def test_layout(self):
        params = CameraParams(
            Extrinsics(R=rot_z(0.3), t=np.array([1.0, 2.0, 3.0])),
            Intrinsics(fx=100, fy=200, cx=10, cy=20, k1=1, k2=2, k3=3, p1=4, p2=5),
        )
        vec = params.to_vector()
        np.testing.assert_array_equal(vec[0:9], rot_z(0.3).reshape(9))
        np.testing.assert_array_equal(vec[9:12], [1, 2, 3])
        np.testing.assert_array_equal(vec[12:21], [100, 200, 10, 20, 1, 2, 3, 4, 5])

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ValueError):
            Extrinsics(R=np.eye(3) * 2.0, t=np.zeros(3))
