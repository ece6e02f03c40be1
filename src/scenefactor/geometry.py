"""Rotations, poses, and the pinhole camera model shared by all modules.

Coordinate conventions, used consistently across the package:

* Camera frame: the camera sits at the origin with x right, y down and
  z forward (right-handed).  Depth is the z coordinate, in meters.
* Quaternions are scalar-first ``(w, x, y, z)``.  ``q`` and ``-q`` encode
  the same rotation.
* Canonical object frame: axes parallel to the camera axes, shapes live
  inside ``[-0.5, 0.5]^3`` and the object's front face points along -z.

All types here are immutable values and all operations are pure
functions, so they are safe for unrestricted parallel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_CAMERA",
    "Camera",
    "Pose",
    "UnitQuaternion",
    "apply_pose",
    "as_points",
    "backproject",
    "image_extent",
    "project",
    "quat_to_matrix",
    "random_unit_quaternion",
    "rotation_about_y",
    "validate_rotation_matrix",
]

# Maximum allowed deviation of a quaternion norm from 1; it also bounds
# each entry of R^T R - I and det(R) - 1 in validate_rotation_matrix.
UNIT_NORM_TOL = 1e-6


def _vec3(value, name: str) -> np.ndarray:
    """A read-only float64 copy of a finite 3-vector; ValueError for anything else."""
    arr = np.array(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"{name} must be finite, got {arr}")
    arr.setflags(write=False)
    return arr


def _nonnegative_image(value, name: str) -> np.ndarray:
    """A read-only float64 copy of a 2D image of finite, non-negative values."""
    img = np.array(value, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"{name} must be a 2D image, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError(f"{name} values must be finite")
    if img.size and img.min() < 0.0:
        raise ValueError(f"{name} values must be non-negative")
    img.setflags(write=False)
    return img


@dataclass(frozen=True)
class UnitQuaternion:
    """Unit rotation quaternion, stored scalar-first as (w, x, y, z)."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"quaternion component {name} is not finite")
            object.__setattr__(self, name, v)
        norm = math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"quaternion is not unit length (norm {norm!r})")

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def normalized(cls, wxyz) -> "UnitQuaternion":
        """Build a unit quaternion from any nonzero 4-vector."""
        arr = np.asarray(wxyz, dtype=float)
        if arr.shape != (4,):
            raise ValueError(f"expected a 4-vector, got shape {arr.shape}")
        norm = float(np.linalg.norm(arr))
        if not math.isfinite(norm) or norm < 1e-12:
            raise ValueError("cannot normalize a zero or non-finite quaternion")
        w, x, y, z = (arr / norm).tolist()
        return cls(w, x, y, z)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "UnitQuaternion":
        ax = np.asarray(axis, dtype=float)
        norm = float(np.linalg.norm(ax))
        if norm < 1e-12:
            raise ValueError("rotation axis must be nonzero")
        ax = ax / norm
        half = 0.5 * float(angle)
        s = math.sin(half)
        return cls(math.cos(half), s * ax[0], s * ax[1], s * ax[2])

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])


def rotation_about_y(angle: float) -> UnitQuaternion:
    """Rotation about the vertical (y) axis, the common case for furniture."""
    return UnitQuaternion.from_axis_angle((0.0, 1.0, 0.0), angle)


def random_unit_quaternion(rng: np.random.Generator) -> UnitQuaternion:
    """Draw a rotation uniformly over the rotation group."""
    while True:
        v = rng.normal(size=4)
        if np.linalg.norm(v) > 1e-6:
            return UnitQuaternion.normalized(v)


def quat_to_matrix(q: UnitQuaternion) -> np.ndarray:
    """Convert a unit quaternion to a 3x3 rotation matrix."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def validate_rotation_matrix(R: np.ndarray) -> np.ndarray:
    """Check orthonormality and det=+1; returns the matrix as float64."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got {R.shape}")
    # A rotation's entries lie in [-1, 1]; the bound keeps NaN and inf out of R^T R.
    if not (np.all(np.abs(R) <= 2.0) and np.allclose(R.T @ R, np.eye(3), atol=UNIT_NORM_TOL)):
        raise ValueError("matrix is not orthonormal")
    if abs(np.linalg.det(R) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("matrix determinant is not +1 (improper rotation)")
    return R


@dataclass(frozen=True, eq=False)
class Pose:
    """Similarity pose: anisotropic scale, then rotation, then translation.

    Maps canonical-frame points p to camera-frame points
    ``R(q) @ diag(scale) @ p + translation``.
    """

    scale: np.ndarray
    rotation: UnitQuaternion
    translation: np.ndarray

    def __post_init__(self):
        scale = _vec3(self.scale, "scale")
        if min(scale.tolist()) <= 0.0:
            raise ValueError(f"scale components must be strictly positive, got {scale}")
        object.__setattr__(self, "scale", scale)
        if not isinstance(self.rotation, UnitQuaternion):
            raise ValueError(f"rotation must be a UnitQuaternion, got {type(self.rotation).__name__}")
        object.__setattr__(self, "translation", _vec3(self.translation, "translation"))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.ones(3), UnitQuaternion.identity(), np.zeros(3))

    @property
    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)


def as_points(points) -> np.ndarray:
    """``points`` as a float64 (n, 3) array; ValueError for any other shape."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be an (n, 3) array, got shape {pts.shape}")
    return pts


def apply_pose(pose: Pose, points: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Apply a pose (or its inverse) to one 3-vector point or an (N, 3) batch."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = as_points(np.atleast_2d(pts))
    R = pose.rotation_matrix
    if inverse:
        out = ((pts - pose.translation) @ R) / pose.scale
    else:
        out = (pts * pose.scale) @ R.T + pose.translation
    return out[0] if single else out


@dataclass(frozen=True)
class Camera:
    """Pinhole intrinsics.  Pixel coordinates are continuous; the center of
    image-grid pixel (row i, col j) is at (u, v) = (j + 0.5, i + 0.5)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("width", "height"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be finite and positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def scaled(self, width: int, height: int) -> "Camera":
        """Intrinsics for the same field of view at another resolution."""
        sx = width / self.width
        sy = height / self.height
        return Camera(self.fx * sx, self.fy * sy, self.cx * sx, self.cy * sy, width, height)


DEFAULT_CAMERA = Camera(fx=519.0, fy=519.0, cx=320.0, cy=240.0, width=640, height=480)


def backproject(cam: Camera, u, v, depth) -> np.ndarray:
    """Lift pixel coordinates plus depth to camera-frame 3D points.

    Accepts scalars or broadcastable arrays; returns shape (..., 3).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if np.any(depth <= 0.0):
        raise ValueError("depth must be strictly positive")
    x = (u - cam.cx) * depth / cam.fx
    y = (v - cam.cy) * depth / cam.fy
    return np.stack(np.broadcast_arrays(x, y, depth), axis=-1)


def project(cam: Camera, points: np.ndarray):
    """Project camera-frame 3D points; returns (u, v, depth)."""
    pts = np.asarray(points, dtype=float)
    z = pts[..., 2]
    if np.any(z <= 0.0):
        raise ValueError("points must have strictly positive z to project")
    u = pts[..., 0] * cam.fx / z + cam.cx
    v = pts[..., 1] * cam.fy / z + cam.cy
    return u, v, z


def image_extent(cam: Camera, pose: Pose, points: np.ndarray):
    """Image-plane bounds ``(u_min, v_min, u_max, v_max)`` of local-frame
    points under ``pose``, not clipped to the image.

    None when any posed point lies at or behind z = 1e-6, where the
    projection is unbounded or flips.
    """
    world = apply_pose(pose, points)
    if np.any(world[:, 2] <= 1e-6):
        return None
    u, v, _ = project(cam, world)
    return float(u.min()), float(v.min()), float(u.max()), float(v.max())
