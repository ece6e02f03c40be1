"""Depth synthesis from factored scenes and depth/point/voxel conversions.

Two independent render paths exist on purpose.  The analytic path
intersects pixel rays exactly with the room box and each object's cuboid
solid; it serves as the correctness oracle.  The voxel path ray-marches
each object's canonical occupancy grid, which is a z-buffer over the
world-space cubes of occupied voxels and works for arbitrary predicted
shapes.  Both sample rays at pixel centers, (u, v) = (j + 0.5, i + 0.5).

Depth maps use 0 as the empty marker; valid depths are strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Camera, apply_pose, backproject
from .scene import FactoredScene, Layout
from .voxels import DEFAULT_SCENE_SPEC, GridSpec, VoxelGrid

__all__ = [
    "DepthMap",
    "depth_to_disparity",
    "depth_to_pointcloud",
    "disparity_to_depth",
    "pointcloud_to_voxels",
    "points_outside_extent",
    "render_depth_analytic",
    "render_depth_voxel",
    "render_surface_ids",
]

# Surface id codes used by the analytic renderer.
ROOM_SURFACE = -1
NO_SURFACE = -2


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel z-depth in meters; 0 marks pixels with no surface."""

    depth: np.ndarray
    camera: Camera

    def __post_init__(self):
        d = np.array(self.depth, dtype=float)
        if d.ndim != 2:
            raise ValueError(f"depth must be a 2D image, got shape {d.shape}")
        if d.shape != (self.camera.height, self.camera.width):
            raise ValueError("depth dimensions must match the camera")
        if not np.all(np.isfinite(d)):
            raise ValueError("depth values must be finite")
        if d.size and d.min() < 0.0:
            raise ValueError("depth values must be non-negative (0 = empty)")
        d.setflags(write=False)
        object.__setattr__(self, "depth", d)

    @property
    def valid(self) -> np.ndarray:
        return self.depth > 0.0


def _pixel_rays(cam: Camera) -> np.ndarray:
    """Ray directions through pixel centers, normalized to unit z.

    With this parametrization the ray parameter t is the z-depth directly,
    and it is preserved by the affine map into any object's local frame.
    """
    u = (np.arange(cam.width) + 0.5 - cam.cx) / cam.fx
    v = (np.arange(cam.height) + 0.5 - cam.cy) / cam.fy
    gu, gv = np.meshgrid(u, v)
    return np.stack([gu, gv, np.ones_like(gu)], axis=-1)


def _slab(origin: np.ndarray, dirs: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Entry and exit ray parameters of an axis-aligned box (Kay & Kajiya
    slab test); the ray misses unless ``t_near <= t_far``."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origin) / dirs
        t2 = (hi - origin) / dirs
    tmin = np.fmin(t1, t2)
    tmax = np.fmax(t1, t2)
    # A ray parallel to a slab and exactly on its boundary yields nan;
    # treat it as inside that slab.
    tmin = np.where(np.isnan(tmin), -np.inf, tmin)
    tmax = np.where(np.isnan(tmax), np.inf, tmax)
    return tmin.max(axis=-1), tmax.min(axis=-1)


def _slab_hit(origin: np.ndarray, dirs: np.ndarray, lo, hi) -> np.ndarray:
    """First positive ray parameter hitting an axis-aligned box, else inf.

    A ray starting inside the box reports the exit face, which is what an
    interior camera should see of the room shell.
    """
    t_near, t_far = _slab(origin, dirs, lo, hi)
    hit = (t_near <= t_far) & (t_far > 0.0)
    t = np.where(t_near > 0.0, t_near, t_far)
    return np.where(hit, t, np.inf)


def _raycast_analytic(scene: FactoredScene,
                      include_objects: bool) -> tuple[np.ndarray, np.ndarray]:
    if scene.room is None:
        raise ValueError("analytic rendering needs a scene with room geometry")
    dirs = _pixel_rays(scene.camera)
    origin = np.zeros(3)
    lo, hi = scene.room.bounds
    if np.any(lo >= 0.0) or np.any(hi <= 0.0):
        raise ValueError("camera (the origin) must lie inside the room box")
    depth = _slab_hit(origin, dirs, lo, hi)
    ids = np.full(depth.shape, ROOM_SURFACE, dtype=np.int32)
    if include_objects:
        flat_dirs = dirs.reshape(-1, 3)
        for index, obj in enumerate(scene.objects):
            if obj.solid is None:
                raise ValueError("analytic rendering needs objects with cuboid solids")
            local_origin = apply_pose(obj.pose, origin, inverse=True)
            R = obj.pose.rotation_matrix
            local_dirs = (flat_dirs @ R) / obj.pose.scale
            t_obj = np.full(len(flat_dirs), np.inf)
            for c in obj.solid:
                clo, chi = c.bounds
                t_obj = np.minimum(t_obj, _slab_hit(local_origin, local_dirs, clo, chi))
            t_obj = t_obj.reshape(depth.shape)
            closer = t_obj < depth
            depth = np.where(closer, t_obj, depth)
            ids = np.where(closer, np.int32(index), ids)
    miss = ~np.isfinite(depth)
    ids = np.where(miss, np.int32(NO_SURFACE), ids)
    depth = np.where(miss, 0.0, depth)
    return depth, ids


def render_depth_analytic(scene: FactoredScene, include_objects: bool = True) -> DepthMap:
    """Exact ray-cast depth of the room and (optionally) the object solids,
    seen by the scene's camera.

    With ``include_objects=False`` this is the amodal layout depth: the
    scene as if there were no objects.
    """
    depth, _ = _raycast_analytic(scene, include_objects)
    return DepthMap(depth, scene.camera)


def render_surface_ids(scene: FactoredScene) -> tuple[DepthMap, np.ndarray]:
    """Full analytic render from the scene's camera plus a per-pixel
    surface id image.

    Ids: object index for object surfaces, -1 for room surfaces, -2 for
    rays that miss everything (impossible inside a closed room).
    """
    depth, ids = _raycast_analytic(scene, True)
    return DepthMap(depth, scene.camera), ids


def _march_grid(occ: np.ndarray, origin: float, cell: float,
                start: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Ray-march a canonical occupancy grid; returns entry parameter of the
    first occupied cell per ray, or inf.

    ``start`` is the ray origin in grid coordinates, ``dirs`` the per-ray
    directions (shared ray parameter with the world rays).
    """
    n = np.array(occ.shape)
    lo = np.full(3, origin)
    t_near, t_far = _slab(start, dirs, lo, lo + n * cell)
    alive = (t_near <= t_far) & (t_far > 0.0)
    t_enter = np.maximum(t_near, 0.0)

    result = np.full(len(dirs), np.inf)
    if not alive.any():
        return result

    idx_alive = np.flatnonzero(alive)
    t_in = t_enter[idx_alive]
    d = dirs[idx_alive]
    p = start[None, :] + t_in[:, None] * d
    cell_idx = np.clip(np.floor((p - lo) / cell).astype(int), 0, n - 1)

    step = np.sign(d).astype(int)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_delta = np.where(d != 0.0, cell / np.abs(d), np.inf)
        # Parameter at which each ray crosses the next cell boundary per axis.
        next_bound = lo + (cell_idx + (step > 0)) * cell
        t_max = (next_bound - start[None, :]) / d
    t_max = np.where(np.isfinite(t_max), t_max, np.inf)

    max_steps = int(n.sum()) + 4
    for _ in range(max_steps):
        if len(idx_alive) == 0:
            break
        occupied = occ[cell_idx[:, 0], cell_idx[:, 1], cell_idx[:, 2]]
        hit = occupied
        if hit.any():
            result[idx_alive[hit]] = t_in[hit]
        keep = ~hit
        idx_alive = idx_alive[keep]
        if len(idx_alive) == 0:
            break
        cell_idx = cell_idx[keep]
        t_max = t_max[keep]
        t_delta = t_delta[keep]
        step = step[keep]
        t_in = t_in[keep]

        axis = np.argmin(t_max, axis=-1)
        rows = np.arange(len(idx_alive))
        t_in = t_max[rows, axis]
        cell_idx = cell_idx.copy()
        cell_idx[rows, axis] += step[rows, axis]
        t_max = t_max.copy()
        t_max[rows, axis] += t_delta[rows, axis]

        inside = (cell_idx[rows, axis] >= 0) & (cell_idx[rows, axis] < n[axis])
        idx_alive = idx_alive[inside]
        cell_idx = cell_idx[inside]
        t_max = t_max[inside]
        t_delta = t_delta[inside]
        step = step[inside]
        t_in = t_in[inside]
    return result


def render_depth_voxel(scene: FactoredScene) -> DepthMap:
    """Depth image of every occupied voxel's world-space cube, z-buffered,
    seen by the scene's camera.

    Occupied voxels (:attr:`VoxelGrid.occupied`, at or above
    ``OCCUPANCY_THRESHOLD``) are rasterized as full-size cubes; occupancy
    probability only gates through the threshold.  The scene layout, if
    present, is composited behind the objects; otherwise pixels that miss
    every object are empty.
    """
    cam = scene.camera
    dirs = _pixel_rays(cam).reshape(-1, 3)
    origin = np.zeros(3)
    best = np.full(len(dirs), np.inf)
    for obj in scene.objects:
        occ = obj.shape.occupied
        if not occ.any():
            continue
        local_origin = apply_pose(obj.pose, origin, inverse=True)
        R = obj.pose.rotation_matrix
        local_dirs = (dirs @ R) / obj.pose.scale
        t = _march_grid(occ, obj.shape.origin[0], obj.shape.cell_size, local_origin, local_dirs)
        best = np.minimum(best, t)
    depth = best.reshape(cam.height, cam.width)
    if scene.layout is not None:
        background = disparity_to_depth(scene.layout, cam).depth
        background = np.where(background > 0.0, background, np.inf)
        depth = np.minimum(depth, background)
    return DepthMap(np.where(np.isfinite(depth), depth, 0.0), cam)


def _reciprocal(values: np.ndarray) -> np.ndarray:
    """Elementwise 1/x over positive entries; every other entry is 0."""
    out = np.zeros_like(values)
    mask = values > 0.0
    out[mask] = 1.0 / values[mask]
    return out


def depth_to_disparity(d: DepthMap) -> Layout:
    """Elementwise reciprocal; empty markers (0) are preserved."""
    return Layout(_reciprocal(d.depth))


def disparity_to_depth(layout: Layout, camera: Camera) -> DepthMap:
    """Elementwise reciprocal; zero-disparity pixels stay empty."""
    return DepthMap(_reciprocal(layout.disparity), camera)


def depth_to_pointcloud(d: DepthMap) -> np.ndarray:
    """Backproject every non-empty pixel center; returns (N, 3) points in
    row-major pixel order."""
    mask = d.valid
    if not mask.any():
        return np.zeros((0, 3))
    rows, cols = np.nonzero(mask)
    return backproject(d.camera, cols + 0.5, rows + 0.5, d.depth[rows, cols])


def _grid_index(points: np.ndarray, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cell index of every point, and whether it lies inside the grid."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    idx = np.floor((pts - np.asarray(spec.origin)) / spec.cell_size).astype(int)
    return idx, np.all((idx >= 0) & (idx < np.array(spec.dims)), axis=1)


def pointcloud_to_voxels(points: np.ndarray) -> VoxelGrid:
    """Default scene grid with a cell occupied iff at least one point lies
    inside it.

    Points outside the grid extent are dropped; :func:`points_outside_extent`
    counts them.
    """
    idx, inside = _grid_index(points, DEFAULT_SCENE_SPEC)
    idx = idx[inside]
    occ = np.zeros(DEFAULT_SCENE_SPEC.dims, dtype=np.float32)
    occ[idx[:, 0], idx[:, 1], idx[:, 2]] = 1.0
    return VoxelGrid.scene(occ)


def points_outside_extent(points: np.ndarray) -> int:
    """How many points fall outside the default scene grid (dropped by
    voxelization)."""
    _, inside = _grid_index(points, DEFAULT_SCENE_SPEC)
    return int((~inside).sum())
