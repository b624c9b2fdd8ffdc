"""Dynamic camera pose synthesis for fixed multi-camera rigs.

A rig is a set of camera mounts (camera-to-rig rigid transforms) sharing one
set of factory ("OEM") intrinsics per camera. Training data is produced by

1. perturbing the OEM intrinsics and the camera mounts,
2. placing the rig centroid on a hemisphere around the calibration object
   (azimuth theta, elevation phi, radius rho),
3. orienting the rig toward the aim point, the origin of the object frame
   (focus rotation), and applying an in-place roll by alpha about the
   viewing axis,
4. projecting the object's fiducials into every camera, and
5. rejecting poses for which any fiducial leaves any camera's field of view.

The factory calibration is defined as the rig posed at the reference pose
theta = phi = alpha = 0, aimed at the same point as synthesis, so an
unperturbed sample at the reference pose reproduces the OEM parameters
exactly.

The aim point is the object-frame origin, not the fiducials' centroid: the
hemisphere is centered there and the built-in rigs cant their mounts toward
it. Built-in objects are centered on the origin; a JSON object whose
fiducials are not is still aimed at its origin.

Sampling is deterministic: sample ``i`` of a batch generated with seed ``s``
draws from its own PCG64 stream seeded by ``(s, i)``, so a sample does not
depend on the size of the batch it is drawn in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import BadObjectFile, DegenerateLookAt, SynthesisStalled
from .geometry import CameraParams, Intrinsics, N_PARAMS

# Additive scale used when perturbing a distortion coefficient that is
# exactly zero (a multiplicative perturbation of zero would be a no-op).
ZERO_DISTORTION_SCALE = 0.01

# Small-angle budget for extrinsic rotation perturbation: the mount rotation
# is composed with a random axis-angle rotation of at most kappa_ext * 10 deg.
EXT_ROT_MAX_ANGLE = np.pi / 18.0

# Per-sample rejection budget; exceeding it means the rig/object/radius
# combination is infeasible for the requested pose ranges.
MAX_ATTEMPTS_PER_SAMPLE = 1000

DEFAULT_IMAGE_SIZE = (1024, 1024)
DEFAULT_RADIUS = 1.5

# A visible fiducial projects at least this many pixels inside every image edge.
VISIBILITY_MARGIN = 8.0

# Built-in rigs: the O rigs place their cameras on a ring of this radius (the
# U and T layouts use it as their grid pitch), every camera has these factory
# intrinsics, and the mounts aim at a point DEFAULT_RADIUS in front of the rig.
RING_RADIUS = 0.25
RIG_INTRINSICS = Intrinsics(
    fx=1100.0, fy=1100.0, cx=512.0, cy=512.0, k1=0.01, k2=0.01, k3=0.01, p1=0.01, p2=0.01
)

# Built-in objects: the cube's edge and the sphere's radius, in meters.
OBJECT_EDGE = 0.1
SPHERE_RADIUS = 0.1

TWO_PI = 2.0 * np.pi
HALF_PI = np.pi / 2.0

# Object-frame point every posed rig looks at (the hemisphere's center).
AIM_POINT = np.zeros(3)


@dataclass(frozen=True)
class RigSpec:
    """Geometric definition of a multi-camera rig.

    mount_R / mount_t are camera-to-rig transforms relative to the rig
    centroid; image_size is (width, height) in pixels, shared by all cameras.
    """

    name: str
    mount_R: np.ndarray  # (N_C, 3, 3)
    mount_t: np.ndarray  # (N_C, 3)
    image_size: tuple[int, int] = DEFAULT_IMAGE_SIZE

    def __post_init__(self):
        mR = np.asarray(self.mount_R, dtype=float)
        mt = np.asarray(self.mount_t, dtype=float)
        if mR.ndim != 3 or mR.shape[1:] != (3, 3) or mt.shape != (mR.shape[0], 3):
            raise ValueError(f"inconsistent mount shapes {mR.shape} / {mt.shape}")
        if mR.shape[0] < 1:
            raise ValueError("a rig needs at least one camera")
        if not geometry.is_proper_rotation(mR):
            raise ValueError("mount rotations must be proper rotations")
        object.__setattr__(self, "mount_R", mR)
        object.__setattr__(self, "mount_t", mt)

    @property
    def n_cameras(self) -> int:
        return self.mount_R.shape[0]


@dataclass(frozen=True)
class CalibrationObject:
    """A named set of 3D fiducial points, expressed in the object frame."""

    name: str
    fiducials: np.ndarray  # (N_fid, 3)

    def __post_init__(self):
        f = np.asarray(self.fiducials, dtype=float)
        if f.ndim != 2 or f.shape[1] != 3 or f.shape[0] < 4:
            raise ValueError(f"need at least 4 fiducials of dim 3, got shape {f.shape}")
        object.__setattr__(self, "fiducials", f)

    @property
    def n_fiducials(self) -> int:
        return self.fiducials.shape[0]

    @property
    def centroid(self) -> np.ndarray:
        return self.fiducials.mean(axis=0)


@dataclass(frozen=True)
class OEMCalibration:
    """Factory intrinsics for every camera of a rig, one 9-vector per camera."""

    intrinsics: np.ndarray  # (N_C, 9): fx, fy, cx, cy, k1, k2, k3, p1, p2

    def __post_init__(self):
        a = np.asarray(self.intrinsics, dtype=float)
        if a.ndim != 2 or a.shape[1] != 9:
            raise ValueError(f"intrinsics must be (N_C, 9), got {a.shape}")
        if np.any(a[:, :2] <= 0):
            raise ValueError("focal lengths must be positive")
        object.__setattr__(self, "intrinsics", a)

    @property
    def n_cameras(self) -> int:
        return self.intrinsics.shape[0]


@dataclass(frozen=True)
class PerturbationSpec:
    """Maximum fractional perturbation for intrinsics and extrinsics."""

    kappa_int: float = 0.0
    kappa_ext: float = 0.0

    def __post_init__(self):
        for k in (self.kappa_int, self.kappa_ext):
            if not 0.0 <= k <= 0.5:
                raise ValueError(f"kappa must lie in [0, 0.5], got {k}")


@dataclass(frozen=True)
class PoseRanges:
    """Uniform sampling ranges for the pose angles (radians)."""

    theta: tuple[float, float] = (0.0, TWO_PI)
    phi: tuple[float, float] = (0.0, HALF_PI)
    alpha: tuple[float, float] = (0.0, TWO_PI)

    def __post_init__(self):
        for name, (lo, hi), cap in (
            ("theta", self.theta, TWO_PI),
            ("phi", self.phi, HALF_PI),
            ("alpha", self.alpha, TWO_PI),
        ):
            if not (0.0 <= lo <= hi <= cap):
                raise ValueError(f"{name} range [{lo}, {hi}] outside [0, {cap}]")

    @staticmethod
    def fixed(theta=0.0, phi=0.0, alpha=None):
        """Collapse ranges to points; alpha=None keeps the full roll range."""
        a = (0.0, TWO_PI) if alpha is None else (alpha, alpha)
        return PoseRanges(theta=(theta, theta), phi=(phi, phi), alpha=a)


@dataclass(frozen=True)
class PoseSample:
    """One placement of the rig centroid on the hemisphere."""

    theta: float
    phi: float
    alpha: float
    rho: float

    def __post_init__(self):
        if not (0.0 <= self.theta < TWO_PI + 1e-12):
            raise ValueError(f"theta {self.theta} outside [0, 2pi)")
        if not (0.0 <= self.phi <= HALF_PI + 1e-12):
            raise ValueError(f"phi {self.phi} outside [0, pi/2]")
        if not (0.0 <= self.alpha < TWO_PI + 1e-12):
            raise ValueError(f"alpha {self.alpha} outside [0, 2pi)")
        if self.rho <= 0:
            raise ValueError("rho must be positive")

    @property
    def centroid(self) -> np.ndarray:
        return hemisphere_centroid(self.theta, self.phi, self.rho)


@dataclass(frozen=True)
class Batch:
    """A stack of training samples: gt (B, N_C, 21), obs (B, N_C, N_fid, 2)."""

    gt_params: np.ndarray
    observations: np.ndarray
    seed: int
    attempts: int  # total pose draws including rejections

    def __len__(self) -> int:
        return self.gt_params.shape[0]


@dataclass(frozen=True)
class SceneConfig:
    """Everything needed to synthesize training samples."""

    rig: RigSpec
    oem: OEMCalibration
    obj: CalibrationObject
    radius: float = DEFAULT_RADIUS
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    pose_ranges: PoseRanges = field(default_factory=PoseRanges)

    def __post_init__(self):
        if self.rig.n_cameras != self.oem.n_cameras:
            raise ValueError(
                f"rig has {self.rig.n_cameras} cameras, OEM has {self.oem.n_cameras}"
            )
        if self.radius <= 0:
            raise ValueError("hemisphere radius must be positive")

    @property
    def n_cameras(self) -> int:
        return self.rig.n_cameras

    @property
    def n_fiducials(self) -> int:
        return self.obj.n_fiducials


def hemisphere_centroid(theta: float, phi: float, rho: float) -> np.ndarray:
    """Point on the upper hemisphere: rho * (sin phi cos theta, sin phi sin theta, cos phi)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    sp = np.sin(phi)
    return rho * np.array([sp * np.cos(theta), sp * np.sin(theta), np.cos(phi)])


# Hand-written rather than np.cross: bitwise equal on 3-vectors, but about
# 3 us per call against 40 us (float64, 2-core x86-64). look_at_rotation
# calls it twice per pose attempt, so np.cross would add ~25% to synthesis.
def _cross3(a, b):
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def look_at_rotation(eye, target, up_hint=None) -> np.ndarray:
    """Camera-to-world rotation whose +z axis points from eye toward target.

    With up_hint=None the world +y axis is used, falling back to +x when the
    view direction is within ~1e-6 of +/-y. An explicit up_hint that is
    parallel to the view direction raises DegenerateLookAt.
    """
    eye = np.asarray(eye, dtype=float)
    target = np.asarray(target, dtype=float)
    f = target - eye
    n = np.sqrt(f @ f)
    if n < 1e-12:
        raise DegenerateLookAt("eye and target coincide")
    f = f / n
    if up_hint is None:
        # cross((0,1,0), f) has norm sqrt(fz^2 + fx^2)
        if np.hypot(f[0], f[2]) < 1e-6:
            up = np.array([1.0, 0.0, 0.0])
        else:
            up = np.array([0.0, 1.0, 0.0])
    else:
        up = np.asarray(up_hint, dtype=float)
    x = _cross3(up, f)
    nx = np.sqrt(x @ x)
    if nx < 1e-9:
        raise DegenerateLookAt("up_hint parallel to view direction")
    x = x / nx
    y = _cross3(f, x)
    out = np.empty((3, 3))
    out[:, 0] = x
    out[:, 1] = y
    out[:, 2] = f
    return out


def roll_rotation(alpha: float) -> np.ndarray:
    """Rotation by alpha about the local +z (viewing) axis."""
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _place_rig(mount_R, mount_t, intrinsics, theta, phi, alpha, rho, target) -> np.ndarray:
    """Compose rig placement with mounts into flattened world camera parameters."""
    centroid = hemisphere_centroid(theta, phi, rho)
    W = look_at_rotation(centroid, target) @ roll_rotation(alpha)
    R_c2w = W @ mount_R  # (N, 3, 3)
    centers = mount_t @ W.T + centroid  # (N, 3)
    R = np.swapaxes(R_c2w, -1, -2)  # world-to-camera
    t = -np.einsum("nij,nj->ni", R, centers)
    n = mount_R.shape[0]
    out = np.empty((n, N_PARAMS))
    out[:, geometry.ROT_SLICE] = R.reshape(n, 9)
    out[:, geometry.TRANS_SLICE] = t
    out[:, 12:21] = intrinsics
    return out


def pose_rig(rig: RigSpec, pose: PoseSample, oem: OEMCalibration, target=AIM_POINT):
    """World camera parameters (N_C, 21) for a rig placed at the given pose.

    Extrinsics compose the mount transforms with the rig placement (focus
    rotation toward `target`, by default the aim point shared with
    synthesis, then roll); intrinsics are copied from the OEM.
    """
    return _place_rig(
        rig.mount_R,
        rig.mount_t,
        oem.intrinsics,
        pose.theta,
        pose.phi,
        pose.alpha,
        pose.rho,
        np.asarray(target, dtype=float),
    )


def reference_params(rig: RigSpec, oem: OEMCalibration, radius: float = DEFAULT_RADIUS):
    """OEM world parameters: the rig posed at theta = phi = alpha = 0."""
    return pose_rig(rig, PoseSample(0.0, 0.0, 0.0, radius), oem)


def _perturb_intrinsics(intr, kappa, rng):
    """Multiplicative perturbation of each intrinsic scalar by U(-kappa, kappa).

    Distortion coefficients that are exactly zero are instead shifted by
    delta * ZERO_DISTORTION_SCALE so the perturbation is not a no-op.
    """
    delta = rng.uniform(-kappa, kappa, size=intr.shape)
    out = intr * (1.0 + delta)
    if np.any(intr[..., 4:9] == 0.0):
        zero_dist = np.zeros(intr.shape, dtype=bool)
        zero_dist[..., 4:9] = intr[..., 4:9] == 0.0
        out = np.where(zero_dist, delta * ZERO_DISTORTION_SCALE, out)
    return out


_EYE3 = np.eye(3)


def _axis_angle_batch(axes, angles):
    """Rodrigues formula for unit axes (N, 3) and angles (N,)."""
    n = axes.shape[0]
    K = np.zeros((n, 3, 3))
    x, y, z = axes[:, 0], axes[:, 1], axes[:, 2]
    K[:, 0, 1] = -z
    K[:, 0, 2] = y
    K[:, 1, 0] = z
    K[:, 1, 2] = -x
    K[:, 2, 0] = -y
    K[:, 2, 1] = x
    s = np.sin(angles)[:, None, None]
    c = (1.0 - np.cos(angles))[:, None, None]
    return _EYE3 + s * K + c * (K @ K)


def _perturb_mounts(mount_R, mount_t, kappa, rng):
    """Perturb mount transforms: translation multiplicatively per component,
    rotation by composing a random axis-angle of at most kappa * 10 degrees."""
    n = mount_R.shape[0]
    delta_t = rng.uniform(-kappa, kappa, size=(n, 3))
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    u = rng.uniform(-1.0, 1.0, size=n)
    t = mount_t * (1.0 + delta_t)
    R = mount_R @ _axis_angle_batch(axes, u * kappa * EXT_ROT_MAX_ANGLE)
    return R, t


def perturb(params: CameraParams, spec: PerturbationSpec, rng) -> CameraParams:
    """Perturb one camera's parameters.

    Intrinsics and the translation are scaled per component by (1 + delta)
    with delta ~ U(-kappa, kappa); the rotation is composed with a random
    small-angle rotation bounded by kappa_ext * 10 degrees. Zero-valued
    distortion coefficients receive an additive delta * 0.01 instead.
    """
    intr = _perturb_intrinsics(params.intrinsics.to_array()[None], spec.kappa_int, rng)[0]
    R, t = _perturb_mounts(
        params.extrinsics.R[None],
        params.extrinsics.t[None],
        spec.kappa_ext,
        rng,
    )
    return CameraParams(
        extrinsics=geometry.Extrinsics(R=R[0], t=t[0]),
        intrinsics=Intrinsics.from_array(intr),
    )


def _bounds_ok(pixels, valid, image_size) -> bool:
    if not valid.all():
        return False
    w, h = image_size
    x, y = pixels[..., 0], pixels[..., 1]
    m = VISIBILITY_MARGIN
    return bool((x >= m).all() and (x <= w - m).all() and (y >= m).all() and (y <= h - m).all())


def visibility_check(
    gt_params: np.ndarray, obj: CalibrationObject, image_size=DEFAULT_IMAGE_SIZE
) -> bool:
    """True iff every fiducial projects in front of every camera of
    gt_params (N_C, 21) and at least VISIBILITY_MARGIN pixels inside the image
    bounds. Re-projects from the parameters, so it can re-verify emitted
    samples independently of their stored observations."""
    pixels, valid = geometry.project_array(gt_params, obj.fiducials)
    return _bounds_ok(pixels, valid, image_size)


def _synthesize_one(cfg: SceneConfig, seed: int, index: int):
    """Generate one visible sample from the (seed, index) stream, with the
    rig aimed at AIM_POINT like reference_params."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    ranges = cfg.pose_ranges
    pert = cfg.perturbation
    fid = cfg.obj.fiducials

    intr = _perturb_intrinsics(cfg.oem.intrinsics, pert.kappa_int, rng)
    mR, mt = _perturb_mounts(cfg.rig.mount_R, cfg.rig.mount_t, pert.kappa_ext, rng)

    for attempt in range(1, MAX_ATTEMPTS_PER_SAMPLE + 1):
        theta = rng.uniform(*ranges.theta)
        phi = rng.uniform(*ranges.phi)
        alpha = rng.uniform(*ranges.alpha)
        gt = _place_rig(mR, mt, intr, theta, phi, alpha, cfg.radius, AIM_POINT)
        pixels, valid = geometry.project_array(gt, fid)
        if _bounds_ok(pixels, valid, cfg.rig.image_size):
            return gt, pixels, attempt
    raise SynthesisStalled(
        f"sample {index}: no visible pose in {MAX_ATTEMPTS_PER_SAMPLE} attempts "
        f"(rig={cfg.rig.name}, object={cfg.obj.name}, radius={cfg.radius})"
    )


def synthesize_batch(cfg: SceneConfig, n: int, seed: int) -> Batch:
    """Generate exactly n visible training samples.

    Deterministic in (cfg, seed): sample i always draws from the stream
    seeded by (seed, i), so the first k samples of a batch of n > k equal a
    batch of k. Raises SynthesisStalled when the pose rejection rate makes
    the configuration infeasible.
    """
    gt = np.empty((n, cfg.n_cameras, N_PARAMS))
    obs = np.empty((n, cfg.n_cameras, cfg.n_fiducials, 2))
    attempts = 0
    for i in range(n):
        gt[i], obs[i], a = _synthesize_one(cfg, seed, i)
        attempts += a
    return Batch(gt_params=gt, observations=obs, seed=seed, attempts=attempts)


def make_object(kind: str) -> CalibrationObject:
    """Built-in calibration objects: cube8, cube27, sphere64, or a JSON file path.

    cube8: corners of an axis-aligned cube of edge OBJECT_EDGE, centered at the
    origin. cube27: the 3x3x3 grid spanning the same cube. sphere64: 64 points
    on a Fibonacci lattice of radius SPHERE_RADIUS.
    """
    if kind == "cube8":
        h = OBJECT_EDGE / 2.0
        pts = np.array([[x, y, z] for x in (-h, h) for y in (-h, h) for z in (-h, h)])
        return CalibrationObject("cube8", pts)
    if kind == "cube27":
        h = OBJECT_EDGE / 2.0
        axis = (-h, 0.0, h)
        pts = np.array([[x, y, z] for x in axis for y in axis for z in axis])
        return CalibrationObject("cube27", pts)
    if kind == "sphere64":
        n = 64
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        pts = SPHERE_RADIUS * np.stack([r * np.cos(golden * i), r * np.sin(golden * i), z], axis=1)
        return CalibrationObject("sphere64", pts)
    return load_object(kind)


def load_object(path: str) -> CalibrationObject:
    """Load a calibration object from JSON: {"name": ..., "fiducials": [[x,y,z],...]}."""
    try:
        with open(path) as f:
            doc = json.load(f)
        return CalibrationObject(str(doc["name"]), np.asarray(doc["fiducials"], dtype=float))
    except (OSError, KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
        raise BadObjectFile(f"cannot load calibration object from {path!r}: {e}") from e


def save_object(obj: CalibrationObject, path: str) -> None:
    with open(path, "w") as f:
        json.dump({"name": obj.name, "fiducials": obj.fiducials.tolist()}, f, indent=2)


def _ring_positions(n, ring_radius):
    ang = TWO_PI * np.arange(n) / n
    return np.stack([ring_radius * np.cos(ang), ring_radius * np.sin(ang), np.zeros(n)], axis=1)


_RIG_LAYOUTS = {
    "O-10": lambda r: _ring_positions(10, r),
    "O-6": lambda r: _ring_positions(6, r),
    "U-7": lambda r: np.array(
        [[-r, r, 0], [-r, 0, 0], [-r, -r, 0], [0, -r, 0], [r, -r, 0], [r, 0, 0], [r, r, 0]],
        dtype=float,
    ),
    "T-4": lambda r: np.array(
        [[-r, 0.8 * r, 0], [0, 0.8 * r, 0], [r, 0.8 * r, 0], [0, -0.8 * r, 0]], dtype=float
    ),
}


def make_rig(kind: str):
    """Built-in rigs (O-10, O-6, U-7, T-4) or a JSON rig file path.

    Built-in mounts sit in the rig's x-y plane and are canted to aim at the
    rig-frame point (0, 0, DEFAULT_RADIUS), which coincides with AIM_POINT
    once the rig is posed on a hemisphere of that radius. Every built-in
    camera has a DEFAULT_IMAGE_SIZE image and RIG_INTRINSICS. Returns
    (RigSpec, OEMCalibration).
    """
    layout = _RIG_LAYOUTS.get(kind)
    if layout is None:
        return load_rig(kind)
    positions = layout(RING_RADIUS)
    focus = np.array([0.0, 0.0, DEFAULT_RADIUS])
    mount_R = np.stack([look_at_rotation(p, focus) for p in positions])
    rig = RigSpec(kind, mount_R, positions, DEFAULT_IMAGE_SIZE)
    oem = OEMCalibration(np.tile(RIG_INTRINSICS.to_array(), (positions.shape[0], 1)))
    return rig, oem


def load_rig(path: str):
    """Load a rig + OEM file: {"name", "image_size", "cameras": [{"R": [9 row-major],
    "t": [3]}], "intrinsics": [{fx, fy, cx, cy, k1, k2, k3, p1, p2}]}."""
    try:
        with open(path) as f:
            doc = json.load(f)
        cams = doc["cameras"]
        mount_R = np.stack([np.asarray(c["R"], dtype=float).reshape(3, 3) for c in cams])
        mount_t = np.stack([np.asarray(c["t"], dtype=float).reshape(3) for c in cams])
        keys = ("fx", "fy", "cx", "cy", "k1", "k2", "k3", "p1", "p2")
        intr = np.array([[float(d[k]) for k in keys] for d in doc["intrinsics"]])
        rig = RigSpec(str(doc["name"]), mount_R, mount_t, tuple(doc["image_size"]))
        oem = OEMCalibration(intr)
        if oem.n_cameras != rig.n_cameras:
            raise ValueError("camera/intrinsics count mismatch")
        return rig, oem
    except (OSError, KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
        raise BadObjectFile(f"cannot load rig from {path!r}: {e}") from e


def save_rig(rig: RigSpec, oem: OEMCalibration, path: str) -> None:
    keys = ("fx", "fy", "cx", "cy", "k1", "k2", "k3", "p1", "p2")
    doc = {
        "name": rig.name,
        "image_size": list(rig.image_size),
        "cameras": [
            {"R": rig.mount_R[i].reshape(9).tolist(), "t": rig.mount_t[i].tolist()}
            for i in range(rig.n_cameras)
        ],
        "intrinsics": [
            dict(zip(keys, oem.intrinsics[i].tolist())) for i in range(oem.n_cameras)
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
