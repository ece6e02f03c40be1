"""Occupancy voxel grids: canonical object shapes and camera-frame scene grids.

Two grid families exist, one lattice each.  Canonical grids hold object
shapes: always 32^3 cells spanning [-0.5, 0.5]^3 in the canonical object
frame (:data:`CANONICAL_SPEC`).  Scene grids live in the camera frame with
8 cm cells; every scene grid built here is :data:`DEFAULT_SCENE_SPEC`,
spanning x in [-2.56, 2.56], y in [-1.28, 1.28], z in [0, 5.12], which
centers the grid laterally on the optical axis and covers the forward
frustum.  Grids read from FVOX files carry their own extent.

Occupancy is stored as a dense float32 array in [0, 1], indexed
``[ix, iy, iz]``; files serialize it x-fastest.  Grids are immutable after
construction.  Every consumer binarizes at one fixed threshold,
:data:`OCCUPANCY_THRESHOLD`: a cell is occupied iff its value reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Pose, apply_pose

__all__ = [
    "CANONICAL_SPEC",
    "DEFAULT_SCENE_SPEC",
    "OCCUPANCY_THRESHOLD",
    "SCENE_CELL_SIZE",
    "Cuboid",
    "GridSpec",
    "VoxelGrid",
    "cuboid_voxelize",
    "resample_to_scene",
    "voxel_centers",
    "voxel_iou",
    "voxelize_posed_cuboids",
]

SCENE_CELL_SIZE = 0.08
CANONICAL_CELL_SIZE = 1.0 / 32.0
# A cell whose occupancy probability reaches this value is occupied.
OCCUPANCY_THRESHOLD = 0.5


def _dims_tuple(dims) -> tuple[int, int, int]:
    t = tuple(int(d) for d in dims)
    if len(t) != 3 or any(d <= 0 for d in t):
        raise ValueError(f"dims must be three positive integers, got {dims}")
    return t


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a voxel lattice: dims, minimum corner, and cell size."""

    dims: tuple[int, int, int]
    origin: tuple[float, float, float]
    cell_size: float

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims_tuple(self.dims))
        origin = tuple(float(v) for v in self.origin)
        if len(origin) != 3 or not all(np.isfinite(origin)):
            raise ValueError(f"origin must be a finite 3-vector, got {self.origin}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "cell_size", float(self.cell_size))
        if not (self.cell_size > 0 and np.isfinite(self.cell_size)):
            raise ValueError("cell_size must be positive and finite")

    @property
    def extent(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array(self.origin)
        hi = lo + np.array(self.dims) * self.cell_size
        return lo, hi


CANONICAL_SPEC = GridSpec(dims=(32, 32, 32), origin=(-0.5, -0.5, -0.5), cell_size=CANONICAL_CELL_SIZE)
DEFAULT_SCENE_SPEC = GridSpec(dims=(64, 32, 64), origin=(-2.56, -1.28, 0.0), cell_size=SCENE_CELL_SIZE)


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Occupancy-probability lattice in the canonical or scene frame."""

    occupancy: np.ndarray
    frame: str
    origin: tuple[float, float, float]
    cell_size: float

    def __post_init__(self):
        occ = np.asarray(self.occupancy)
        if occ.ndim != 3:
            raise ValueError(f"occupancy must be a 3D array, got shape {occ.shape}")
        occ = np.array(occ, dtype=np.float32)
        if not np.all(np.isfinite(occ)):
            raise ValueError("occupancy values must be finite")
        if occ.size and (occ.min() < 0.0 or occ.max() > 1.0):
            raise ValueError("occupancy values must lie in [0, 1]")
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "cell_size", float(self.cell_size))
        if self.frame == "canonical":
            if self.spec != CANONICAL_SPEC:
                raise ValueError("canonical grids must be 32^3 over [-0.5, 0.5]^3")
        elif self.frame == "scene":
            if abs(self.cell_size - SCENE_CELL_SIZE) > 1e-12:
                raise ValueError(f"scene grids use {SCENE_CELL_SIZE} m cells, got {self.cell_size}")
        else:
            raise ValueError(f"unknown frame {self.frame!r}")

    @classmethod
    def canonical(cls, occupancy) -> "VoxelGrid":
        return cls(occupancy, "canonical", CANONICAL_SPEC.origin, CANONICAL_SPEC.cell_size)

    @classmethod
    def scene(cls, occupancy, origin=DEFAULT_SCENE_SPEC.origin) -> "VoxelGrid":
        return cls(occupancy, "scene", origin, SCENE_CELL_SIZE)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.occupancy.shape

    @property
    def spec(self) -> GridSpec:
        return GridSpec(self.dims, self.origin, self.cell_size)

    @property
    def extent(self) -> tuple[np.ndarray, np.ndarray]:
        return self.spec.extent

    @property
    def occupied(self) -> np.ndarray:
        """Boolean mask of the cells at or above :data:`OCCUPANCY_THRESHOLD`."""
        return self.occupancy >= OCCUPANCY_THRESHOLD

    @cached_property
    def _packed(self) -> tuple[np.ndarray, int]:
        """:attr:`occupied` packed eight cells to a byte, and its popcount.
        Built on first use and kept, so a grid is packed once however many
        IoUs it enters."""
        bits = np.packbits(self.occupied)
        bits.setflags(write=False)
        return bits, int(np.bitwise_count(bits).sum())

    def count(self) -> int:
        return int(self.occupied.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoxelGrid):
            return NotImplemented
        return (self.frame == other.frame and self.origin == other.origin
                and self.cell_size == other.cell_size
                and np.array_equal(self.occupancy, other.occupancy))


def _same_lattice(a: VoxelGrid, b: VoxelGrid) -> None:
    if a.dims != b.dims:
        raise ValueError(f"grid dims differ: {a.dims} vs {b.dims}")
    if a.frame != b.frame:
        raise ValueError(f"grid frames differ: {a.frame} vs {b.frame}")
    if a.origin != b.origin or a.cell_size != b.cell_size:
        raise ValueError("grids do not share the same lattice geometry")


def voxel_iou(a: VoxelGrid, b: VoxelGrid) -> float:
    """Intersection over union of the occupied cells of two grids.

    Both grids empty counts as perfect agreement (1.0).  Cells are counted
    on each grid's packed mask; the zero bits that pad the last byte count
    in neither grid.
    """
    _same_lattice(a, b)
    bits_a, count_a = a._packed
    bits_b, count_b = b._packed
    inter = int(np.bitwise_count(bits_a & bits_b).sum())
    union = count_a + count_b - inter
    if union == 0:
        return 1.0
    return inter / union


def voxel_centers(grid: VoxelGrid) -> np.ndarray:
    """Centers of occupied cells, shape (M, 3), ordered by (ix, iy, iz)."""
    idx = np.argwhere(grid.occupied)
    if idx.size == 0:
        return np.zeros((0, 3))
    return np.array(grid.origin) + (idx + 0.5) * grid.cell_size


@dataclass(frozen=True)
class Cuboid:
    """Axis-aligned solid box given by its center and half extents."""

    center: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self):
        center = np.array(self.center, dtype=float)
        half = np.array(self.half_extents, dtype=float)
        if center.shape != (3,) or half.shape != (3,):
            raise ValueError("cuboid center and half_extents must be 3-vectors")
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(half))):
            raise ValueError("cuboid parameters must be finite")
        if np.any(half <= 0.0):
            raise ValueError(f"half_extents must be strictly positive, got {half}")
        center.setflags(write=False)
        half.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_extents", half)

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.half_extents, self.center + self.half_extents

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Inclusive point-in-box test over (..., 3) points."""
        pts = np.asarray(points, dtype=float)
        return np.all(np.abs(pts - self.center) <= self.half_extents, axis=-1)

    def corners(self) -> np.ndarray:
        return _box_corners(*self.bounds)


def cuboid_voxelize(cuboids) -> VoxelGrid:
    """Binary voxelization of a canonical-frame solid onto the 32^3
    canonical lattice: a cell is occupied iff its center lies inside the
    union of the cuboids (boundary inclusive)."""
    return VoxelGrid.canonical(_cuboid_occupancy(cuboids, Pose.identity(), CANONICAL_SPEC))


def _box_corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The eight corners of the box [lo, hi], x slowest and z fastest."""
    xs, ys, zs = np.meshgrid(*[(lo[k], hi[k]) for k in range(3)], indexing="ij")
    return np.stack([xs, ys, zs], axis=-1).reshape(-1, 3)


def _crop_slices(spec: GridSpec, pose: Pose, local_lo, local_hi) -> tuple[slice, slice, slice] | None:
    """Index ranges of spec cells whose centers can fall inside the world
    image of a local-frame box; None if the box misses the grid."""
    world = apply_pose(pose, _box_corners(np.asarray(local_lo, float), np.asarray(local_hi, float)))
    w_lo, w_hi = world.min(axis=0), world.max(axis=0)
    origin = np.asarray(spec.origin)
    i_lo = np.floor((w_lo - origin) / spec.cell_size - 0.5).astype(int)
    i_hi = np.ceil((w_hi - origin) / spec.cell_size - 0.5).astype(int) + 1
    i_lo = np.maximum(i_lo, 0)
    i_hi = np.minimum(i_hi, spec.dims)
    if np.any(i_lo >= i_hi):
        return None
    return tuple(slice(int(a), int(b)) for a, b in zip(i_lo, i_hi))


def _crop_centers(spec: GridSpec, slices) -> np.ndarray:
    ax = [np.asarray(spec.origin)[k] + (np.arange(s.start, s.stop) + 0.5) * spec.cell_size
          for k, s in enumerate(slices)]
    gx, gy, gz = np.meshgrid(*ax, indexing="ij")
    return np.stack([gx, gy, gz], axis=-1)


def _cuboid_occupancy(cuboids, pose: Pose, spec: GridSpec) -> np.ndarray:
    """Boolean lattice of the cells whose centers, mapped back through the
    pose, lie inside the union of the cuboids (boundary inclusive).  Each
    cuboid tests only the cells around its own posed bounding box."""
    occ = np.zeros(spec.dims, dtype=bool)
    for c in cuboids:
        slices = _crop_slices(spec, pose, *c.bounds)
        if slices is None:
            continue
        centers = _crop_centers(spec, slices)
        local = apply_pose(pose, centers.reshape(-1, 3), inverse=True)
        occ[slices] |= c.contains(local).reshape(centers.shape[:-1])
    return occ


def voxelize_posed_cuboids(cuboids, pose: Pose) -> VoxelGrid:
    """Exact voxelization of canonical-frame cuboids under a pose onto the
    default scene grid.

    Each scene-cell center is mapped back to the canonical frame and tested
    against the cuboid union, so the result is free of resampling error.
    Serves as the analytic reference for :func:`resample_to_scene`.
    """
    return VoxelGrid.scene(_cuboid_occupancy(cuboids, pose, DEFAULT_SCENE_SPEC))


def _trilinear_sample(grid: VoxelGrid, points: np.ndarray) -> np.ndarray:
    """Sample occupancy at arbitrary points in the grid's frame.

    Interpolates between cell centers with edge clamping; points outside
    the grid extent sample to 0.
    """
    values = grid.occupancy.astype(float)
    lo, hi = grid.extent
    pts = np.asarray(points, dtype=float)
    inside = np.all((pts >= lo) & (pts <= hi), axis=-1)

    g = (pts - np.asarray(grid.origin)) / grid.cell_size - 0.5
    dims = np.array(grid.dims)
    g = np.clip(g, 0.0, dims - 1.0)
    i0 = np.minimum(np.floor(g).astype(int), np.maximum(dims - 2, 0))
    frac = g - i0
    i1 = np.minimum(i0 + 1, dims - 1)

    out = np.zeros(pts.shape[:-1])
    for corner in range(8):
        pick = [(corner >> k) & 1 for k in range(3)]
        idx = [i1[..., k] if pick[k] else i0[..., k] for k in range(3)]
        weight = np.ones(pts.shape[:-1])
        for k in range(3):
            weight = weight * (frac[..., k] if pick[k] else 1.0 - frac[..., k])
        out += weight * values[idx[0], idx[1], idx[2]]
    return np.where(inside, out, 0.0)


def resample_to_scene(obj: VoxelGrid, pose: Pose) -> VoxelGrid:
    """Place a canonical object grid into the default scene grid under a pose.

    Every scene-cell center is mapped through the pose inverse into the
    canonical frame; the object's occupancy is sampled there by trilinear
    interpolation (less aliasing under rotation than nearest-neighbor) and
    the cell is marked occupied iff the sample reaches
    :data:`OCCUPANCY_THRESHOLD`.
    """
    if obj.frame != "canonical":
        raise ValueError("resample_to_scene expects a canonical-frame object grid")
    occ = np.zeros(DEFAULT_SCENE_SPEC.dims, dtype=bool)
    lo, hi = obj.extent
    slices = _crop_slices(DEFAULT_SCENE_SPEC, pose, lo, hi)
    if slices is not None:
        centers = _crop_centers(DEFAULT_SCENE_SPEC, slices)
        local = apply_pose(pose, centers.reshape(-1, 3), inverse=True)
        vals = _trilinear_sample(obj, local)
        occ[slices] = (vals >= OCCUPANCY_THRESHOLD).reshape(centers.shape[:-1])
    return VoxelGrid.scene(occ)
