"""Pure camera mathematics: projection, distortion, rotations, and Jacobians.

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
  non-degenerate 6D vector back to an orthonormal, right-handed matrix.

All functions are pure and accept either single items or leading batch axes
where documented. Everything is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, DegenerateRotation

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
N_PARAMS = 21


@dataclass(frozen=True)
class Intrinsics:
    """Internal camera parameters: focal lengths, principal point, distortion."""

    fx: float
    fy: float
    cx: float
    cy: float
    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got {self.fx}, {self.fy}")

    def to_array(self) -> np.ndarray:
        return np.array(
            [self.fx, self.fy, self.cx, self.cy, self.k1, self.k2, self.k3, self.p1, self.p2]
        )

    @staticmethod
    def from_array(a) -> "Intrinsics":
        a = np.asarray(a, dtype=float)
        if a.shape != (9,):
            raise ValueError(f"expected 9 intrinsic values, got shape {a.shape}")
        return Intrinsics(*a.tolist())


def is_proper_rotation(R) -> bool:
    """True iff every (3, 3) block of R (..., 3, 3) is orthonormal with
    determinant +1 within ROTATION_TOL; non-finite entries fail."""
    R = np.asarray(R, dtype=float)
    err = np.linalg.norm(np.swapaxes(R, -1, -2) @ R - np.eye(3), axis=(-2, -1))
    return bool(np.all(err <= ROTATION_TOL) and np.all(abs(np.linalg.det(R) - 1.0) <= ROTATION_TOL))


@dataclass(frozen=True)
class Extrinsics:
    """Camera pose as a world-to-camera rotation matrix and translation."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        t = np.asarray(self.t, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"R must be 3x3, got {R.shape}")
        if not is_proper_rotation(R):
            raise ValueError("R is not a proper rotation (orthogonality/det check failed)")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class CameraParams:
    """Full per-camera calibration: extrinsics + intrinsics (21 scalars)."""

    extrinsics: Extrinsics
    intrinsics: Intrinsics

    def to_vector(self) -> np.ndarray:
        """Flatten to the canonical 21-vector (R row-major, t, fx, fy, cx, cy, kc)."""
        v = np.empty(N_PARAMS)
        v[ROT_SLICE] = self.extrinsics.R.reshape(9)
        v[TRANS_SLICE] = self.extrinsics.t
        v[FOCAL_SLICE.start : DIST_SLICE.stop] = self.intrinsics.to_array()
        return v

    @staticmethod
    def from_vector(v) -> "CameraParams":
        v = np.asarray(v, dtype=float).reshape(N_PARAMS)
        return CameraParams(
            extrinsics=Extrinsics(R=v[ROT_SLICE].reshape(3, 3), t=v[TRANS_SLICE]),
            intrinsics=Intrinsics.from_array(v[FOCAL_SLICE.start : DIST_SLICE.stop]),
        )


def world_to_camera(P, ext: Extrinsics) -> np.ndarray:
    """Transform world point(s) (..., 3) into the camera frame: R @ P + t."""
    P = np.asarray(P, dtype=float)
    return P @ ext.R.T + ext.t


def distort(x_n, y_n, intr: Intrinsics):
    """Apply radial (sixth-order) + tangential distortion to normalized coordinates.

    Accepts scalars or arrays; returns distorted coordinates of the same shape.
    Identity map when all five coefficients are zero.
    """
    x = np.asarray(x_n, dtype=float)
    y = np.asarray(y_n, dtype=float)
    r2 = x * x + y * y
    radial = 1.0 + r2 * (intr.k1 + r2 * (intr.k2 + r2 * intr.k3))
    x_d = x * radial + 2.0 * intr.p1 * x * y + intr.p2 * (r2 + 2.0 * x * x)
    y_d = y * radial + intr.p1 * (r2 + 2.0 * y * y) + 2.0 * intr.p2 * x * y
    if np.isscalar(x_n) and np.isscalar(y_n):
        return float(x_d), float(y_d)
    return x_d, y_d


def project(P, params: CameraParams) -> np.ndarray:
    """Project one world point to pixel coordinates.

    Raises BehindCamera if the camera-frame depth is at or below Z_MIN.
    """
    Pc = world_to_camera(np.asarray(P, dtype=float).reshape(3), params.extrinsics)
    if Pc[2] <= Z_MIN:
        raise BehindCamera(f"point has camera-frame depth {Pc[2]:.3g} <= {Z_MIN}")
    x_n, y_n = Pc[0] / Pc[2], Pc[1] / Pc[2]
    x_d, y_d = distort(x_n, y_n, params.intrinsics)
    intr = params.intrinsics
    return np.array([intr.fx * x_d + intr.cx, intr.fy * y_d + intr.cy])


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


def project_jacobian(P, params: CameraParams) -> np.ndarray:
    """2x21 Jacobian of the pixel w.r.t. the flattened parameters for one point.

    Raises BehindCamera for invalid depth, matching project().
    """
    vec = params.to_vector()
    pts = np.asarray(P, dtype=float).reshape(1, 3)
    _, valid, jac = project_jacobian_array(vec, pts)
    if not valid[0]:
        raise BehindCamera("point at or behind the camera")
    return jac[0]


def rot6d_to_matrix(r6) -> np.ndarray:
    """Orthogonalize 6D rotation vectors: (..., 6) -> (..., 3, 3).

    The two 3-vectors are interpreted as (unnormalized) first and second
    columns; Gram-Schmidt yields b1, b2 and the third column is b1 x b2.
    Raises DegenerateRotation when any first vector is near zero or any two
    vectors are near parallel.
    """
    r6 = np.asarray(r6, dtype=float)
    a1, a2 = r6[..., :3], r6[..., 3:]
    n1 = np.linalg.norm(a1, axis=-1, keepdims=True)
    if np.any(n1 <= GS_EPS):
        raise DegenerateRotation(f"first column norm {n1.min():.3g} below {GS_EPS}")
    b1 = a1 / n1
    u2 = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    n2 = np.linalg.norm(u2, axis=-1, keepdims=True)
    if np.any(n2 <= GS_EPS):
        raise DegenerateRotation(f"columns nearly parallel (residual norm {n2.min():.3g})")
    b2 = u2 / n2
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=-1)


def matrix_to_rot6d(R) -> np.ndarray:
    """Extract the 6D representation: the first two columns of R, stacked."""
    R = np.asarray(R, dtype=float)
    return np.concatenate([R[..., :, 0], R[..., :, 1]], axis=-1)


def geodesic_distance(R1, R2) -> float:
    """Rotation angle of R1^T R2 in radians: arccos((trace - 1) / 2), in [0, pi].

    The arccos argument is clamped to [-1, 1] to absorb floating-point drift.
    """
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    tr = np.einsum("...ij,...ij->...", R1, R2)
    c = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
    out = np.arccos(c)
    return float(out) if out.ndim == 0 else out
