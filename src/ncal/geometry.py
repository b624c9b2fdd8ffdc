"""Camera mathematics on flattened parameter arrays: projection, its
Jacobian, the proper-rotation test, the integer and image-size rules and
the cross product.

Conventions
-----------
- World-to-camera transform: ``P_cam = R @ P_world + t``. The camera looks
  along its local +z axis; points with ``z <= Z_MIN`` cannot be projected.
- Normalized image coordinates are taken before distortion:
  ``x_n = X_cam / Z_cam``, ``y_n = Y_cam / Z_cam``. Distortion is applied to
  the normalized coordinates, then the pixel mapping
  ``u = fx * x_dist + cx``, ``v = fy * y_dist + cy``.
- Distortion model: radial polynomial in r^2, r^4, r^6 (coefficients
  k1, k2, k3) plus first-order tangential terms (p1, p2).
- A camera is described by 21 scalars, flattened in the fixed order
  ``[R row-major (9), t (3), fx, fy, cx, cy, k1, k2, k3, p1, p2]``.
- The 6D rotation representation is the two leading columns of R, stacked
  column-first: ``r6 = (R[:,0], R[:,1])``. Gram-Schmidt maps any
  non-degenerate 6D vector back to an orthonormal, right-handed matrix
  (``nn.functional.rot6d_to_matrix_t``, inside the network's heads node).

The projection kernels take cameras as ``(..., 21)`` arrays with any leading
batch axes. All functions are pure, and everything is float64.
"""

from __future__ import annotations

import numpy as np

# Perspective-divide guard: points with camera-frame z below this are
# treated as invalid rather than producing enormous pixel values.
Z_MIN = 1e-6

# Gram-Schmidt degeneracy threshold on column norms.
GS_EPS = 1e-9

# Proper-rotation test tolerance on both ||R^T R - I||_F and |det R - 1|.
ROTATION_TOL = 1e-9

# Slices of the flattened 21-parameter vector.
ROT_SLICE = slice(0, 9)
TRANS_SLICE = slice(9, 12)
FOCAL_SLICE = slice(12, 14)
PP_SLICE = slice(14, 16)
DIST_SLICE = slice(16, 21)
INTRINSICS_SLICE = slice(12, 21)  # focal, principal point and distortion
N_PARAMS = 21


def is_integer(v) -> bool:
    """Whether v is a Python or numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def checked_image_size(image_size) -> tuple[int, int]:
    """(width, height) as two Python ints; raises ValueError unless the value
    is two positive integers (bools and floats are refused)."""
    size = tuple(image_size) if np.ndim(image_size) == 1 else ()
    if len(size) != 2 or not all(is_integer(v) and v > 0 for v in size):
        raise ValueError(f"image_size must be two positive integers, got {image_size!r}")
    return int(size[0]), int(size[1])


def is_proper_rotation(R) -> bool:
    """True iff every (3, 3) block of R (..., 3, 3) is orthonormal with
    determinant +1 within ROTATION_TOL; non-finite entries fail."""
    R = np.asarray(R, dtype=float)
    err = np.linalg.norm(np.swapaxes(R, -1, -2) @ R - np.eye(3), axis=(-2, -1))
    return bool(np.all(err <= ROTATION_TOL) and np.all(abs(np.linalg.det(R) - 1.0) <= ROTATION_TOL))


def cross(a, b) -> np.ndarray:
    """Cross product along the last axis (size 3) of broadcast arrays: bitwise
    np.cross, which computes the same three differences of products, at a
    fraction of its per-call cost."""
    a0, a1, a2 = a[..., 0:1], a[..., 1:2], a[..., 2:3]
    b0, b1, b2 = b[..., 0:1], b[..., 1:2], b[..., 2:3]
    return np.concatenate([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _project_forward(params_vec, pts):
    """Forward pass shared by the array kernels.

    Returns (pixels, valid, parts) where parts holds the intermediates the
    Jacobian reuses: (p, pts, zs, x_n, y_n, r2, radial, x_d, y_d).
    """
    p = np.asarray(params_vec, dtype=float)
    pts = np.asarray(pts, dtype=float)
    R = p[..., ROT_SLICE].reshape(p.shape[:-1] + (3, 3))
    t = p[..., TRANS_SLICE]
    # (..., F, 3) @ (..., 3, 3)^T + t
    Pc = pts @ np.swapaxes(R, -1, -2) + t[..., None, :]
    z = Pc[..., 2]
    valid = z > Z_MIN
    zs = np.where(valid, z, Z_MIN)
    x_n = Pc[..., 0] / zs
    y_n = Pc[..., 1] / zs
    k1, k2, k3 = p[..., 16, None], p[..., 17, None], p[..., 18, None]
    p1, p2 = p[..., 19, None], p[..., 20, None]
    r2 = x_n * x_n + y_n * y_n
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    x_d = x_n * radial + 2.0 * p1 * x_n * y_n + p2 * (r2 + 2.0 * x_n * x_n)
    y_d = y_n * radial + p1 * (r2 + 2.0 * y_n * y_n) + 2.0 * p2 * x_n * y_n
    u = p[..., 12, None] * x_d + p[..., 14, None]
    v = p[..., 13, None] * y_d + p[..., 15, None]
    return np.stack([u, v], axis=-1), valid, (p, pts, zs, x_n, y_n, r2, radial, x_d, y_d)


def project_array(params_vec, pts):
    """Vectorized projection of many points through many cameras.

    Parameters
    ----------
    params_vec : (..., 21) flattened camera parameters.
    pts : (..., F, 3) world points; leading axes broadcast against params_vec.

    Returns
    -------
    pixels : (..., F, 2) projected pixels. Entries where ``valid`` is False are
        computed with the depth clamped to Z_MIN and are meaningless.
    valid : (..., F) bool, True where depth > Z_MIN.
    """
    pixels, valid, _ = _project_forward(params_vec, pts)
    return pixels, valid


def project_jacobian_array(params_vec, pts):
    """Analytic Jacobian of the projection w.r.t. all 21 camera parameters.

    Same broadcasting as project_array, with bitwise-equal pixels. Returns
    (pixels, valid, jac) with jac of shape (..., F, 2, 21). Columns follow
    the canonical parameter layout; rotation derivatives are taken w.r.t.
    the 9 matrix entries. Jacobian rows for invalid points are zeroed.
    """
    pixels, valid, (p, pts, zs, x_n, y_n, r2, radial, x_d, y_d) = _project_forward(params_vec, pts)
    fx, fy = p[..., 12, None], p[..., 13, None]
    k1, k2, k3 = p[..., 16, None], p[..., 17, None], p[..., 18, None]
    p1, p2 = p[..., 19, None], p[..., 20, None]
    # g = d(radial)/d(r2)
    g = k1 + r2 * (2.0 * k2 + 3.0 * k3 * r2)

    # Distorted-coordinate partials w.r.t. normalized coordinates.
    dxd_dxn = radial + 2.0 * x_n * x_n * g + 2.0 * p1 * y_n + 6.0 * p2 * x_n
    dxd_dyn = 2.0 * x_n * y_n * g + 2.0 * p1 * x_n + 2.0 * p2 * y_n
    dyd_dxn = dxd_dyn
    dyd_dyn = radial + 2.0 * y_n * y_n * g + 6.0 * p1 * y_n + 2.0 * p2 * x_n

    # Normalized-coordinate partials w.r.t. the camera-frame point.
    inv_z = 1.0 / zs
    dxn_dPc = np.stack([inv_z, np.zeros_like(inv_z), -x_n * inv_z], axis=-1)
    dyn_dPc = np.stack([np.zeros_like(inv_z), inv_z, -y_n * inv_z], axis=-1)

    # Pixel partials w.r.t. the camera-frame point: (..., F, 3) each.
    du_dPc = fx[..., None] * (dxd_dxn[..., None] * dxn_dPc + dxd_dyn[..., None] * dyn_dPc)
    dv_dPc = fy[..., None] * (dyd_dxn[..., None] * dxn_dPc + dyd_dyn[..., None] * dyn_dPc)

    jac = np.zeros(x_n.shape + (2, N_PARAMS))
    # Rotation entries: dPc_i/dR[i,j] = P_j; pixel depends on R row i via Pc_i.
    # d(pixel)/dR[i,j] = d(pixel)/dPc_i * P_j  -> outer product over (i, j).
    jac[..., 0, 0:9] = (du_dPc[..., :, None] * pts[..., None, :]).reshape(x_n.shape + (9,))
    jac[..., 1, 0:9] = (dv_dPc[..., :, None] * pts[..., None, :]).reshape(x_n.shape + (9,))
    # Translation: dPc/dt = I.
    jac[..., 0, 9:12] = du_dPc
    jac[..., 1, 9:12] = dv_dPc
    # Focal lengths and principal point.
    jac[..., 0, 12] = x_d
    jac[..., 1, 13] = y_d
    jac[..., 0, 14] = 1.0
    jac[..., 1, 15] = 1.0
    # Distortion coefficients.
    r4 = r2 * r2
    jac[..., 0, 16] = fx * x_n * r2
    jac[..., 0, 17] = fx * x_n * r4
    jac[..., 0, 18] = fx * x_n * r4 * r2
    jac[..., 0, 19] = fx * 2.0 * x_n * y_n
    jac[..., 0, 20] = fx * (r2 + 2.0 * x_n * x_n)
    jac[..., 1, 16] = fy * y_n * r2
    jac[..., 1, 17] = fy * y_n * r4
    jac[..., 1, 18] = fy * y_n * r4 * r2
    jac[..., 1, 19] = fy * (r2 + 2.0 * y_n * y_n)
    jac[..., 1, 20] = fy * 2.0 * x_n * y_n

    jac[~valid] = 0.0
    return pixels, valid, jac
