"""Property tests of the camera model's invariants over random valid cameras,
and of pose synthesis's determinism over random seeds, sizes and kappas."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncal.geometry import (
    matrix_to_rot6d,
    project_array,
    project_jacobian_array,
    rot6d_to_matrix,
)
from ncal.scene import PerturbationSpec, SceneConfig, make_object, make_rig, synthesize_batch

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def rotations(draw):
    q = np.array(draw(st.lists(_floats(-1.0, 1.0), min_size=4, max_size=4)))
    n = np.linalg.norm(q)
    assume(n > 0.1)
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


@st.composite
def cameras_and_points(draw, min_depth=0.5):
    """A flattened 21-vector camera and 1-8 world points whose camera-frame
    depth lies in [min_depth, 5] and whose normalized coordinates lie in
    [-0.6, 0.6]."""
    R = draw(rotations())
    t = np.array(draw(st.lists(_floats(-2.0, 2.0), min_size=3, max_size=3)))
    intr = [
        draw(_floats(200.0, 2000.0)),  # fx
        draw(_floats(200.0, 2000.0)),  # fy
        draw(_floats(0.0, 1024.0)),  # cx
        draw(_floats(0.0, 1024.0)),  # cy
        *(draw(_floats(-0.1, 0.1)) for _ in range(3)),  # k1, k2, k3
        *(draw(_floats(-0.02, 0.02)) for _ in range(2)),  # p1, p2
    ]
    n = draw(st.integers(1, 8))
    z = np.array(draw(st.lists(_floats(min_depth, 5.0), min_size=n, max_size=n)))
    xy = np.array(draw(st.lists(_floats(-0.6, 0.6), min_size=2 * n, max_size=2 * n)))
    Pc = np.stack([xy[:n] * z, xy[n:] * z, z], axis=1)
    pts = (Pc - t) @ R  # inverse of P_cam = R @ P + t
    return np.concatenate([R.reshape(9), t, intr]), pts


@PROPERTY
@given(cameras_and_points(min_depth=-2.0))
def test_jacobian_kernel_pixels_equal_projection(cam):
    params, pts = cam
    pix, valid = project_array(params, pts)
    pix_j, valid_j, _ = project_jacobian_array(params, pts)
    assert pix_j.tobytes() == pix.tobytes()
    np.testing.assert_array_equal(valid_j, valid)


@PROPERTY
@given(cameras_and_points())
def test_jacobian_matches_central_differences(cam):
    params, pts = cam
    _, valid, jac = project_jacobian_array(params, pts)
    assert valid.all()
    num = np.empty_like(jac)
    for j in range(params.size):
        h = 1e-6 * max(1.0, abs(params[j]))
        hi, lo = params.copy(), params.copy()
        hi[j] += h
        lo[j] -= h
        num[..., j] = (project_array(hi, pts)[0] - project_array(lo, pts)[0]) / (2 * h)
    np.testing.assert_allclose(jac, num, rtol=1e-5, atol=1e-4)


@PROPERTY
@given(rotations())
def test_rot6d_round_trip(R):
    np.testing.assert_allclose(rot6d_to_matrix(matrix_to_rot6d(R)), R, atol=1e-12)


@PROPERTY
@given(st.lists(_floats(-10.0, 10.0), min_size=6, max_size=6))
def test_rot6d_gives_proper_rotation(values):
    r6 = np.array(values)
    a1, a2 = r6[:3], r6[3:]
    n1 = np.linalg.norm(a1)
    assume(n1 > 1e-3)
    assume(np.linalg.norm(a2 - (a1 @ a2) / n1**2 * a1) > 1e-3 * max(1.0, np.linalg.norm(a2)))
    R = rot6d_to_matrix(r6)
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)
    assert abs(np.linalg.det(R) - 1.0) < 1e-9


_O6_RIG, _O6_OEM = make_rig("O-6")


@PROPERTY
@given(
    seed=st.integers(0, 2**63 - 1),
    n=st.integers(0, 4),
    extra=st.integers(1, 4),
    kappa_int=_floats(0.0, 0.2),
    kappa_ext=_floats(0.0, 0.2),
)
def test_synthesis_repeatable_and_prefix_stable(seed, n, extra, kappa_int, kappa_ext):
    cfg = SceneConfig(_O6_RIG, _O6_OEM, make_object("cube8"),
                      perturbation=PerturbationSpec(kappa_int, kappa_ext))
    small = synthesize_batch(cfg, n, seed)
    again = synthesize_batch(cfg, n, seed)
    large = synthesize_batch(cfg, n + extra, seed)
    assert again.gt_params.tobytes() == small.gt_params.tobytes()
    assert again.observations.tobytes() == small.observations.tobytes()
    assert again.attempts == small.attempts
    assert large.gt_params[:n].tobytes() == small.gt_params.tobytes()
    assert large.observations[:n].tobytes() == small.observations.tobytes()
