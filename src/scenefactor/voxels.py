"""Occupancy voxel grids: canonical object shapes and camera-frame scene grids.

Two grid families exist, one lattice each, and a grid's frame fixes its
lattice (:data:`FRAME_SPECS`).  Canonical grids hold object shapes: always
32^3 cells spanning [-0.5, 0.5]^3 in the canonical object frame
(:data:`CANONICAL_SPEC`).  Scene grids live in the camera frame with 8 cm
cells: always :data:`DEFAULT_SCENE_SPEC`, spanning x in [-2.56, 2.56],
y in [-1.28, 1.28], z in [0, 5.12], which centers the grid laterally on
the optical axis and covers the forward frustum.  No other module spells
out either lattice's origin or cell size.

Occupancy values lie in [0, 1] and are indexed ``[ix, iy, iz]``.  Every
consumer binarizes at one fixed threshold, :data:`OCCUPANCY_THRESHOLD`: a
cell is occupied iff its value reaches it.  Each grid keeps its occupied
mask packed eight cells to a byte, x-fastest (the bytes of a scene file's
``bits`` payload), and its popcount.  A binary grid, whose every cell is
0.0 or 1.0, keeps nothing else: its float32 cells are unpacked afresh on
each read of :attr:`VoxelGrid.occupancy`.  Any other (soft) grid also
keeps its float32 cells.  Grids are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, _vec3, apply_pose

__all__ = [
    "CANONICAL_SPEC",
    "DEFAULT_SCENE_SPEC",
    "FRAME_SPECS",
    "OCCUPANCY_THRESHOLD",
    "Cuboid",
    "GridSpec",
    "VoxelGrid",
    "boundary_centers",
    "boundary_mask",
    "cuboid_voxelize",
    "resample_to_scene",
    "voxel_centers",
    "voxel_iou",
    "voxel_iou_matrix",
    "voxelize_posed_cuboids",
]

# A cell whose occupancy probability reaches this value is occupied.
OCCUPANCY_THRESHOLD = 0.5


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a voxel lattice: dims, minimum corner, and cell size.
    The library builds exactly two, one per frame (:data:`FRAME_SPECS`)."""

    dims: tuple[int, int, int]
    origin: tuple[float, float, float]
    cell_size: float

    @property
    def extent(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array(self.origin)
        hi = lo + np.array(self.dims) * self.cell_size
        return lo, hi


CANONICAL_SPEC = GridSpec(dims=(32, 32, 32), origin=(-0.5, -0.5, -0.5), cell_size=1.0 / 32.0)
DEFAULT_SCENE_SPEC = GridSpec(dims=(64, 32, 64), origin=(-2.56, -1.28, 0.0), cell_size=0.08)
# The one lattice of each grid frame.
FRAME_SPECS = {"canonical": CANONICAL_SPEC, "scene": DEFAULT_SCENE_SPEC}


@dataclass(frozen=True, eq=False, init=False)
class VoxelGrid:
    """Occupancy-probability lattice in the canonical or scene frame.  The
    frame fixes the lattice, so ``dims``, ``origin``, ``cell_size``,
    ``extent`` and ``spec`` are read from :data:`FRAME_SPECS`.

    ``VoxelGrid(occupancy, frame)`` takes the cells as any array of the
    frame's dims; :meth:`from_bits` takes a binary grid's packed mask."""

    frame: str
    # The occupied mask, packed x-fastest, and its popcount.
    _bits: np.ndarray = field(init=False, repr=False)
    _count: int = field(init=False)
    # The float32 cells of a soft grid; None for a binary grid.
    _cells: np.ndarray | None = field(init=False, repr=False)

    def __init__(self, occupancy, frame: str):
        spec = _frame_spec(frame)
        cells = np.array(occupancy, dtype=np.float32)
        if cells.shape != spec.dims:
            raise ValueError(f"{frame} grids have dims {spec.dims}, got shape {cells.shape}")
        ones = cells == 1.0
        if np.all(ones | (cells == 0.0)):
            mask, cells = ones, None
        else:
            if not np.all(np.isfinite(cells)):
                raise ValueError("occupancy values must be finite")
            if cells.min() < 0.0 or cells.max() > 1.0:
                raise ValueError("occupancy values must lie in [0, 1]")
            cells.setflags(write=False)
            mask = cells >= OCCUPANCY_THRESHOLD
        self._set(frame, np.packbits(mask.ravel(order="F")), cells)

    @classmethod
    def from_bits(cls, bits: bytes, frame: str) -> "VoxelGrid":
        """The binary grid whose occupied mask is ``bits``, packed eight
        cells to a byte, x-fastest.  The bytes are kept, not copied."""
        spec = _frame_spec(frame)
        mask = np.frombuffer(bits, dtype=np.uint8)
        if 8 * len(mask) != math.prod(spec.dims):
            raise ValueError(f"{frame} grids pack into {math.prod(spec.dims) // 8} bytes, "
                             f"got {len(mask)}")
        grid = object.__new__(cls)
        grid._set(frame, mask, None)
        return grid

    def _set(self, frame: str, bits: np.ndarray, cells: np.ndarray | None) -> None:
        bits.setflags(write=False)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_count", int(np.bitwise_count(bits).sum()))
        object.__setattr__(self, "_cells", cells)

    @classmethod
    def canonical(cls, occupancy) -> "VoxelGrid":
        return cls(occupancy, "canonical")

    @classmethod
    def scene(cls, occupancy) -> "VoxelGrid":
        return cls(occupancy, "scene")

    @property
    def spec(self) -> GridSpec:
        return FRAME_SPECS[self.frame]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.spec.dims

    @property
    def origin(self) -> tuple[float, float, float]:
        return self.spec.origin

    @property
    def cell_size(self) -> float:
        return self.spec.cell_size

    @property
    def extent(self) -> tuple[np.ndarray, np.ndarray]:
        return self.spec.extent

    @property
    def bits(self) -> np.ndarray | None:
        """The packed mask of a binary grid (read-only, eight cells to a
        byte, x-fastest); None for a soft grid."""
        return self._bits if self._cells is None else None

    @property
    def occupancy(self) -> np.ndarray:
        """Read-only float32 cells.  A binary grid builds them afresh on
        each read and does not keep them."""
        if self._cells is not None:
            return self._cells
        cells = self.occupied.astype(np.float32)
        cells.setflags(write=False)
        return cells

    @property
    def occupied(self) -> np.ndarray:
        """Boolean mask of the cells at or above :data:`OCCUPANCY_THRESHOLD`."""
        nx, ny, nz = self.dims
        mask = np.unpackbits(self._bits).view(bool).reshape(nz, ny, nx)
        return np.ascontiguousarray(mask.transpose(2, 1, 0))

    def count(self) -> int:
        return self._count

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoxelGrid):
            return NotImplemented
        if self.frame != other.frame or not np.array_equal(self._bits, other._bits):
            return False
        if self._cells is None and other._cells is None:
            return True
        return np.array_equal(self.occupancy, other.occupancy)


def _frame_spec(frame: str) -> GridSpec:
    if frame not in FRAME_SPECS:
        raise ValueError(f"unknown frame {frame!r}")
    return FRAME_SPECS[frame]


def voxel_iou(a: VoxelGrid, b: VoxelGrid) -> float:
    """Intersection over union of the occupied cells of two grids of one
    frame, counted on their packed masks.

    Both grids empty counts as perfect agreement (1.0).
    """
    return float(voxel_iou_matrix([a], [b])[0, 0])


def voxel_iou_matrix(a: list[VoxelGrid], b: list[VoxelGrid]) -> np.ndarray:
    """``voxel_iou(a[i], b[j])`` for every pair, from one AND of the masks."""
    if not a or not b:
        return np.zeros((len(a), len(b)))
    other = next((g.frame for g in b + a if g.frame != a[0].frame), None)
    if other is not None:
        raise ValueError(f"grid frames differ: {a[0].frame} vs {other}")
    bits_a, bits_b = (np.stack([g._bits for g in grids]).view(np.uint64) for grids in (a, b))
    inter = np.bitwise_count(bits_a[:, None] & bits_b[None]).sum(axis=-1, dtype=np.int64)
    union = np.array([g._count for g in a])[:, None] + np.array([g._count for g in b]) - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 1.0)


def voxel_centers(grid: VoxelGrid) -> np.ndarray:
    """Centers of occupied cells, shape (M, 3), ordered by (ix, iy, iz)."""
    return _cell_centers(grid, grid.occupied)


def boundary_mask(grid: VoxelGrid) -> np.ndarray:
    """Occupied cells with at least one empty 6-neighbour; a neighbour
    outside the grid counts as empty, so occupied cells on the grid's
    faces are always boundary cells."""
    occ = grid.occupied
    interior = np.zeros_like(occ)
    interior[1:-1, 1:-1, 1:-1] = (
        occ[1:-1, 1:-1, 1:-1]
        & occ[:-2, 1:-1, 1:-1] & occ[2:, 1:-1, 1:-1]
        & occ[1:-1, :-2, 1:-1] & occ[1:-1, 2:, 1:-1]
        & occ[1:-1, 1:-1, :-2] & occ[1:-1, 1:-1, 2:])
    return occ & ~interior


def boundary_centers(grid: VoxelGrid) -> np.ndarray:
    """Centers of the :func:`boundary_mask` cells: the rows of
    :func:`voxel_centers` that lie on the surface, in the same order."""
    return _cell_centers(grid, boundary_mask(grid))


def _cell_centers(grid: VoxelGrid, mask: np.ndarray) -> np.ndarray:
    idx = np.argwhere(mask)
    if idx.size == 0:
        return np.zeros((0, 3))
    return np.array(grid.origin) + (idx + 0.5) * grid.cell_size


@dataclass(frozen=True, eq=False)
class Cuboid:
    """Axis-aligned solid box given by its center and half extents."""

    center: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self):
        center = _vec3(self.center, "center")
        half = _vec3(self.half_extents, "half_extents")
        if min(half.tolist()) <= 0.0:
            raise ValueError(f"half_extents must be strictly positive, got {half}")
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
    i0 = np.minimum(np.floor(g).astype(int), dims - 2)
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
