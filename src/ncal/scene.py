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

Cameras are ``(N_C, 21)`` arrays in the ``geometry`` layout. ``place_rig``
is the one placement: synthesis and ``reference_params`` both call it, and
the factory intrinsics and their perturbations are ``(N_C, 9)`` arrays. The
pose kernels take leading batch axes: pose angles ``(...)`` give rotations
``(..., 3, 3)`` and placed rigs ``(..., N_C, 21)``, bitwise as if one by one.

Sampling is deterministic: sample ``i`` of a batch generated with seed ``s``
draws from the stream of ``default_rng(SeedSequence([s, i]))``, so a sample
does not depend on the size of the batch it is drawn in. Each sample draws,
in this order: its intrinsic uniforms ``(N_C, 9)``, its mount translation
uniforms ``(N_C, 3)``, its mount rotation axes ``(N_C, 3)`` (standard
normal), its mount rotation angle uniforms ``(N_C,)``, then one theta, phi,
alpha uniform triple per attempt round. A batch computes every stream's
starting PCG64 state in one vectorized pass (``_pcg64_states``) and draws
all samples from one generator, whose state it sets before each sample's
draws; a rejected sample resumes from the state its last draw left. The
arithmetic is stacked: the perturbation kernels take the batch's draws and
compute once over ``(n, N_C, ...)``, and each attempt round places,
projects and checks all samples still without a visible pose at once.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import BadObjectFile, DegenerateLookAt, SynthesisStalled
from .geometry import N_PARAMS

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

# The nine intrinsics in their column order, as a rig file names them.
INTRINSIC_NAMES = ("fx", "fy", "cx", "cy", "k1", "k2", "k3", "p1", "p2")

# Built-in rigs: the O rigs place their cameras on a ring of this radius (the
# U and T layouts use it as their grid pitch), every camera has these factory
# intrinsics, in INTRINSIC_NAMES order, and the mounts aim at a point
# DEFAULT_RADIUS in front of the rig.
RING_RADIUS = 0.25
RIG_INTRINSICS = np.array([1100.0, 1100.0, 512.0, 512.0, 0.01, 0.01, 0.01, 0.01, 0.01])
RIG_INTRINSICS.flags.writeable = False

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
        if not np.isfinite(mt).all():
            raise ValueError("mount translations must be finite")
        object.__setattr__(self, "mount_R", mR)
        object.__setattr__(self, "mount_t", mt)
        object.__setattr__(self, "image_size", geometry.checked_image_size(self.image_size))

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
        if not np.isfinite(f).all():
            raise ValueError("fiducials must be finite")
        object.__setattr__(self, "fiducials", f)

    @property
    def n_fiducials(self) -> int:
        return self.fiducials.shape[0]


@dataclass(frozen=True)
class OEMCalibration:
    """Factory intrinsics for every camera of a rig, one 9-vector per camera."""

    intrinsics: np.ndarray  # (N_C, 9): fx, fy, cx, cy, k1, k2, k3, p1, p2

    def __post_init__(self):
        a = np.asarray(self.intrinsics, dtype=float)
        if a.ndim != 2 or a.shape[1] != 9:
            raise ValueError(f"intrinsics must be (N_C, 9), got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("intrinsics must be finite")
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


@dataclass(frozen=True)
class Batch:
    """A stack of training samples: gt (B, N_C, 21), obs (B, N_C, N_fid, 2)."""

    gt_params: np.ndarray
    observations: np.ndarray
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
        if not 0.0 < self.radius < np.inf:
            raise ValueError(f"hemisphere radius must be positive and finite, got {self.radius}")

    @property
    def n_cameras(self) -> int:
        return self.rig.n_cameras

    @property
    def n_fiducials(self) -> int:
        return self.obj.n_fiducials


def hemisphere_centroid(theta, phi, rho: float) -> np.ndarray:
    """Points (..., 3) on the upper hemisphere for angle arrays (...):
    rho * (sin phi cos theta, sin phi sin theta, cos phi)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    sp = np.sin(phi)
    return rho * np.stack([sp * np.cos(theta), sp * np.sin(theta), np.cos(phi)], axis=-1)


def _dot(u, v):
    # A stacked matmul is bitwise equal to the scalar u @ v on each row;
    # (u * v).sum(-1) and einsum are not.
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def look_at_rotation(eye, target) -> np.ndarray:
    """Camera-to-world rotations (..., 3, 3) whose +z axis points from each
    eye (..., 3) toward target.

    The world +y axis is the up hint, replaced by +x when the view direction
    is within ~1e-6 of +/-y. Raises DegenerateLookAt when an eye and the
    target coincide.
    """
    f = np.asarray(target, dtype=float) - np.asarray(eye, dtype=float)
    n = np.sqrt(_dot(f, f))
    if np.any(n < 1e-12):
        raise DegenerateLookAt("eye and target coincide")
    f = f / n[..., None]
    # cross((0,1,0), f) has norm sqrt(fz^2 + fx^2), so |x| >= 1e-6 below.
    near_y = np.hypot(f[..., 0], f[..., 2]) < 1e-6
    up = np.where(near_y[..., None], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    x = geometry.cross(up, f)
    x = x / np.sqrt(_dot(x, x))[..., None]
    return np.stack([x, geometry.cross(f, x), f], axis=-1)


def roll_rotation(alpha) -> np.ndarray:
    """Rotations (..., 3, 3) by angles alpha (...) about the local +z
    (viewing) axis."""
    c, s = np.cos(alpha), np.sin(alpha)
    z, o = np.zeros_like(c), np.ones_like(c)
    return np.stack([c, -s, z, s, c, z, z, z, o], axis=-1).reshape(np.shape(c) + (3, 3))


def place_rig(mount_R, mount_t, intrinsics, theta, phi, alpha, rho) -> np.ndarray:
    """World camera parameters (..., N_C, 21) of rigs posed on the hemisphere.

    The pose angles are arrays (...) and rho a scalar; mounts (..., N_C, 3, 3)
    / (..., N_C, 3) and intrinsics (..., N_C, 9) broadcast against them. Each
    rig centroid sits at hemisphere_centroid(theta, phi, rho); the focus
    rotation turns the rig toward AIM_POINT, then it rolls by alpha about
    the viewing axis.
    """
    centroid = hemisphere_centroid(theta, phi, rho)
    W = look_at_rotation(centroid, AIM_POINT) @ roll_rotation(alpha)  # (..., 3, 3)
    R = np.swapaxes(W[..., None, :, :] @ mount_R, -1, -2)  # world-to-camera
    centers = mount_t @ np.swapaxes(W, -1, -2) + centroid[..., None, :]
    t = -np.einsum("...ij,...j->...i", R, centers)
    out = np.empty(t.shape[:-1] + (N_PARAMS,))
    out[..., geometry.ROT_SLICE] = R.reshape(t.shape[:-1] + (9,))
    out[..., geometry.TRANS_SLICE] = t
    out[..., geometry.INTRINSICS_SLICE] = intrinsics
    return out


def reference_params(rig: RigSpec, oem: OEMCalibration, radius: float = DEFAULT_RADIUS):
    """OEM world parameters: the rig posed at theta = phi = alpha = 0."""
    return place_rig(rig.mount_R, rig.mount_t, oem.intrinsics, 0.0, 0.0, 0.0, radius)


def _uniform(lo, hi, u):
    """Map Generator.random draws u to [lo, hi): bitwise what
    Generator.uniform(lo, hi) draws, which computes lo + (hi - lo) * next_double,
    at a fraction of its per-call cost."""
    return lo + (hi - lo) * u


def perturb_intrinsics(intr, kappa, u):
    """Multiplicative perturbation of each intrinsic scalar by U(-kappa, kappa):
    intrinsics (N_C, 9) and uniform draws u (n, N_C, 9) in [0, 1), one per
    scalar, give (n, N_C, 9).

    Distortion coefficients that are exactly zero are instead shifted by
    delta * ZERO_DISTORTION_SCALE so the perturbation is not a no-op.
    """
    delta = _uniform(-kappa, kappa, u)
    zero_dist = np.zeros(intr.shape, dtype=bool)
    zero_dist[..., 4:9] = intr[..., 4:9] == 0.0
    return np.where(zero_dist, delta * ZERO_DISTORTION_SCALE, intr * (1.0 + delta))


_EYE3 = np.eye(3)


def _axis_angle_batch(axes, angles):
    """Rodrigues formula for unit axes (..., 3) and angles (...)."""
    K = np.zeros(axes.shape + (3,))
    x, y, z = axes[..., 0], axes[..., 1], axes[..., 2]
    K[..., 0, 1] = -z
    K[..., 0, 2] = y
    K[..., 1, 0] = z
    K[..., 1, 2] = -x
    K[..., 2, 0] = -y
    K[..., 2, 1] = x
    s = np.sin(angles)[..., None, None]
    c = (1.0 - np.cos(angles))[..., None, None]
    return _EYE3 + s * K + c * (K @ K)


def perturb_mounts(mount_R, mount_t, kappa, u_t, axes, u_angle):
    """Perturb mount transforms: translation multiplicatively per component,
    rotation by composing a random axis-angle of at most kappa * 10 degrees.
    Mounts (N_C, 3, 3) / (N_C, 3) and the draws give (n, N_C, 3, 3) /
    (n, N_C, 3): translation uniforms u_t (n, N_C, 3) in [0, 1), rotation axes
    (n, N_C, 3) drawn standard normal and angle uniforms u_angle (n, N_C)."""
    axes = axes / np.linalg.norm(axes, axis=-1, keepdims=True)
    t = mount_t * (1.0 + _uniform(-kappa, kappa, u_t))
    R = mount_R @ _axis_angle_batch(axes, _uniform(-1.0, 1.0, u_angle) * kappa * EXT_ROT_MAX_ANGLE)
    return R, t


# NumPy's SeedSequence hash (NEP 19): its pool size and hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (O'Neill 2014).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(h, mult):
    """NumPy's SeedSequence hashmix on uint32 arrays, from hash constant h:
    each call xors its value with the constant, steps the constant by mult
    and multiplies by it, then folds the high half into the low."""
    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * mult & _MASK32
        v = v * h
        return v ^ (v >> 16)
    return hashmix


def _mix(x, y):
    """NumPy's SeedSequence mix of two uint32 arrays."""
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _pcg64_states(seed: int, n: int) -> list:
    """The starting state dicts of default_rng(SeedSequence([seed, i])).bit_generator
    for i < n, for an integer seed >= 0, without a generator per sample.

    SeedSequence hashes the entropy's uint32 words, those of seed and then
    i, into a pool of four: vectorized over i here, since every sample's
    entropy has the same length. generate_state(4, uint64) gives two 128-bit
    words s0, s1, and PCG64 seeds with inc = 2 s1 + 1 and state
    ((s0 + inc) M + inc) mod 2^128.
    """
    seed = operator.index(seed)
    words = [np.full(n, seed >> shift & _MASK32, dtype=np.uint32)
             for shift in range(0, max(seed.bit_length(), 1), 32)]
    words.append(np.arange(n, dtype=np.uint32))
    hashmix = _hashmix(_INIT_A, _MULT_A)
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[k] if k < len(words) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    out = np.array([hashmix(pool[k % _POOL_SIZE]) for k in range(8)], dtype=np.uint64)
    s0_hi, s0_lo, s1_hi, s1_lo = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    states = []
    for a, b, c, d in zip(s0_hi, s0_lo, s1_hi, s1_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = (((a << 64 | b) + inc) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def synthesize_batch(cfg: SceneConfig, n: int, seed: int) -> Batch:
    """Generate exactly n visible samples: gt (n, N_C, 21), obs (n, N_C, N_fid, 2).

    Sample i draws from the stream seeded by (seed, i) in the order the
    module docstring states, so the first k samples of a batch of n > k
    equal a batch of k; its draws up to its first attempt round take three
    calls. Raises ValueError for a negative n or seed, TypeError for a seed
    that is not an integer, and SynthesisStalled, naming the lowest sample
    with no visible pose in MAX_ATTEMPTS_PER_SAMPLE draws.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    nc = cfg.n_cameras
    u = np.empty((n, 13 * nc + 3))
    axes = np.empty((n, nc, 3))
    states = []
    if n:
        # NumPy validates the seed; its state for sample 0 checks the others'.
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
        states = _pcg64_states(seed, n)
        if states[0] != gen.bit_generator.state:
            raise RuntimeError(f"vectorized seeding disagrees with SeedSequence([{seed}, 0])")
    for i, state in enumerate(states):
        gen.bit_generator.state = state
        gen.random(out=u[i, :12 * nc])
        axes[i] = gen.normal(size=(nc, 3))
        gen.random(out=u[i, 12 * nc:])
        states[i] = gen.bit_generator.state  # where a rejected sample resumes
    pert, ranges = cfg.perturbation, cfg.pose_ranges
    intr = perturb_intrinsics(cfg.oem.intrinsics, pert.kappa_int, u[:, :9 * nc].reshape(n, nc, 9))
    mR, mt = perturb_mounts(cfg.rig.mount_R, cfg.rig.mount_t, pert.kappa_ext,
                            u[:, 9 * nc:12 * nc].reshape(n, nc, 3), axes, u[:, 12 * nc:13 * nc])
    pose_lo, pose_hi = np.transpose([ranges.theta, ranges.phi, ranges.alpha])

    gt = np.empty((n, nc, N_PARAMS))
    obs = np.empty((n, nc, cfg.n_fiducials, 2))
    hi = np.subtract(cfg.rig.image_size, VISIBILITY_MARGIN)
    pending = np.arange(n)
    pose_u = u[:, 13 * nc:]
    attempts = 0
    for r in range(MAX_ATTEMPTS_PER_SAMPLE):
        if pending.size == 0:
            break
        if r:
            pose_u = np.empty((pending.size, 3))
            for k, i in enumerate(pending):
                gen.bit_generator.state = states[i]
                gen.random(out=pose_u[k])
                states[i] = gen.bit_generator.state
        theta, phi, alpha = _uniform(pose_lo, pose_hi, pose_u).T
        attempts += pending.size
        params = place_rig(mR[pending], mt[pending], intr[pending], theta, phi, alpha, cfg.radius)
        pixels, valid = geometry.project_array(params, cfg.obj.fiducials)
        ok = (valid[..., None] & (pixels >= VISIBILITY_MARGIN) & (pixels <= hi)).all(axis=(1, 2, 3))
        gt[pending[ok]], obs[pending[ok]] = params[ok], pixels[ok]
        pending = pending[~ok]
    if pending.size:
        raise SynthesisStalled(
            f"sample {pending[0]}: no visible pose in {MAX_ATTEMPTS_PER_SAMPLE} attempts "
            f"(rig={cfg.rig.name}, object={cfg.obj.name}, radius={cfg.radius})"
        )
    return Batch(gt_params=gt, observations=obs, attempts=attempts)


def make_object(kind: str) -> CalibrationObject:
    """Built-in calibration objects: cube8, cube27, sphere64, or a JSON file path.

    cube8: corners of an axis-aligned cube of edge OBJECT_EDGE, centered at the
    origin. cube27: the 3x3x3 grid spanning the same cube. sphere64: 64 points
    on a Fibonacci lattice of radius SPHERE_RADIUS.
    """
    if kind in ("cube8", "cube27"):
        h = OBJECT_EDGE / 2.0
        axis = (-h, h) if kind == "cube8" else (-h, 0.0, h)
        pts = np.array([[x, y, z] for x in axis for y in axis for z in axis])
        return CalibrationObject(kind, pts)
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
    rig = RigSpec(kind, look_at_rotation(positions, focus), positions, DEFAULT_IMAGE_SIZE)
    oem = OEMCalibration(np.tile(RIG_INTRINSICS, (positions.shape[0], 1)))
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
        intr = np.array([[float(d[k]) for k in INTRINSIC_NAMES] for d in doc["intrinsics"]])
        rig = RigSpec(str(doc["name"]), mount_R, mount_t, tuple(doc["image_size"]))
        oem = OEMCalibration(intr)
        if oem.n_cameras != rig.n_cameras:
            raise ValueError("camera/intrinsics count mismatch")
        return rig, oem
    except (OSError, KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
        raise BadObjectFile(f"cannot load rig from {path!r}: {e}") from e


def save_rig(rig: RigSpec, oem: OEMCalibration, path: str) -> None:
    doc = {
        "name": rig.name,
        "image_size": list(rig.image_size),
        "cameras": [
            {"R": rig.mount_R[i].reshape(9).tolist(), "t": rig.mount_t[i].tolist()}
            for i in range(rig.n_cameras)
        ],
        "intrinsics": [
            dict(zip(INTRINSIC_NAMES, oem.intrinsics[i].tolist())) for i in range(oem.n_cameras)
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
