"""Depth synthesis from factored scenes and depth/point/voxel conversions.

Two independent render paths exist on purpose.  The analytic path
intersects pixel rays exactly with the room box and each object's cuboid
solid; it serves as the correctness oracle.  The voxel path ray-marches
each object's canonical occupancy grid, which is a z-buffer over the
world-space cubes of occupied voxels and works for arbitrary predicted
shapes.  Both sample rays at pixel centers, (u, v) = (j + 0.5, i + 0.5).

Rays have unit z, so the ray parameter is the z-depth.  The camera sits
inside the room box, so every ray leaves the room through its exit face,
and that slab-test exit splits by axis: x depends on the pixel column only,
y on the row only, and z is the far wall.  The room depth is therefore
computed in closed form from one value per column, one per row and one
scalar.  An object can only be hit by rays whose pixel centers fall inside
the projection of its posed bounding box (its cuboids' corners, or its
grid's extent), so each renderer casts an object's rays only inside that
window, padded by one pixel against rounding.  A box with a corner at or
behind the camera plane, or one whose projection overflows, gets the whole
image.  Both shortcuts give the same bits as casting every ray.

The voxel marcher is the Amanatides & Woo grid traversal.  It pads the
occupancy grid by one cell on each side into an int8 code grid (empty,
occupied, outside), flattens it, and steps each ray's flat cell index by
the signed axis stride, so one gather per step finds both hits and exits.

Depth maps use 0 as the empty marker; valid depths are strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Camera, Pose, apply_pose, backproject, image_extent
from .scene import FactoredScene, Layout
from .voxels import DEFAULT_SCENE_SPEC, Cuboid, VoxelGrid, _box_corners

__all__ = [
    "DepthMap",
    "depth_to_disparity",
    "depth_to_pointcloud",
    "disparity_to_depth",
    "pointcloud_to_voxels",
    "render_depth_analytic",
    "render_depth_voxel",
    "render_surface_ids",
]

# Surface id codes used by the analytic renderer.
ROOM_SURFACE = -1
NO_SURFACE = -2
_NO_ROOM = "analytic rendering needs a scene with room geometry"

# Cell codes of the voxel marcher's padded grid.
_EMPTY, _OCCUPIED, _OUTSIDE = 0, 1, 2


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


def _pixel_slopes(cam: Camera) -> tuple[np.ndarray, np.ndarray]:
    """x/z of the ray through each pixel column's center, and y/z of the
    ray through each row's center."""
    u = (np.arange(cam.width) + 0.5 - cam.cx) / cam.fx
    v = (np.arange(cam.height) + 0.5 - cam.cy) / cam.fy
    return u, v


def _pixel_rays(cam: Camera) -> np.ndarray:
    """(H, W, 3) ray directions through pixel centers, normalized to unit z.

    With this parametrization the ray parameter t is the z-depth directly,
    and it is preserved by the affine map into any object's local frame.
    """
    gu, gv = np.meshgrid(*_pixel_slopes(cam))
    return np.stack([gu, gv, np.ones_like(gu)], axis=-1)


def _centers_within(lo: float, hi: float) -> slice:
    """Pixel indices i with center i + 0.5 in [lo, hi], padded by one
    index on each side; the caller's array bounds clip the stop."""
    return slice(max(math.ceil(lo - 0.5) - 1, 0), max(math.floor(hi - 0.5) + 2, 0))


def _window_rays(cam: Camera, dirs: np.ndarray, pose: Pose, corners: np.ndarray):
    """The pixel window whose rays can meet the posed box with local-frame
    ``corners`` (possibly empty; the whole image when the box reaches the
    camera plane or its projection overflows), and that window's rays in
    the local frame.

    Returns ``(rows, cols), local_origin, local_dirs`` with ``local_dirs``
    flattened in row-major window order.
    """
    extent = image_extent(cam, pose, corners)
    if extent is None or not np.all(np.isfinite(extent)):
        window = slice(None), slice(None)
    else:
        u0, v0, u1, v1 = extent
        window = _centers_within(v0, v1), _centers_within(u0, u1)
    local_origin = apply_pose(pose, np.zeros(3), inverse=True)
    local_dirs = (dirs[window].reshape(-1, 3) @ pose.rotation_matrix) / pose.scale
    return window, local_origin, local_dirs


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


def _room_exits(cam: Camera, room: Cuboid) -> tuple[np.ndarray, np.ndarray, float]:
    """Exit parameters of a camera inside the room: per row (ty), per
    column (tx) and along z (hi_z); pixel (r, c) exits at
    min(ty[r], tx[c], hi_z).

    With lo < 0 < hi on every axis no quotient is 0/0, an entry parameter
    is never positive, and the z exit of a unit-z ray is hi_z.
    """
    lo, hi = room.bounds
    if np.any(lo >= 0.0) or np.any(hi <= 0.0):
        raise ValueError("camera (the origin) must lie inside the room box")
    u, v = _pixel_slopes(cam)
    with np.errstate(divide="ignore"):
        tx = np.fmax(lo[0] / u, hi[0] / u)
        ty = np.fmax(lo[1] / v, hi[1] / v)
    return ty, tx, hi[2]


def _room_depth(cam: Camera, room: Cuboid) -> np.ndarray:
    """``_slab_hit(0, _pixel_rays(cam), *room.bounds)`` for a camera inside
    the room, bit for bit: the exit parameter min(tx, ty, tz)."""
    ty, tx, hi_z = _room_exits(cam, room)
    return np.minimum(np.minimum(ty[:, None], tx[None, :]), hi_z)


def _raycast_analytic(scene: FactoredScene,
                      include_objects: bool) -> tuple[np.ndarray, np.ndarray]:
    if scene.room is None:
        raise ValueError(_NO_ROOM)
    cam = scene.camera
    depth = _room_depth(cam, scene.room)
    ids = np.full(depth.shape, ROOM_SURFACE, dtype=np.int32)
    if include_objects:
        dirs = _pixel_rays(cam)
        for index, obj in enumerate(scene.objects):
            if obj.solid is None:
                raise ValueError("analytic rendering needs objects with cuboid solids")
            window, local_origin, local_dirs = _window_rays(
                cam, dirs, obj.pose, np.concatenate([c.corners() for c in obj.solid]))
            t_obj = np.full(len(local_dirs), np.inf)
            for c in obj.solid:
                clo, chi = c.bounds
                t_obj = np.minimum(t_obj, _slab_hit(local_origin, local_dirs, clo, chi))
            # Views: writing them writes the window of depth and ids.
            near, near_ids = depth[window], ids[window]
            t_obj = t_obj.reshape(near.shape)
            closer = t_obj < near
            near[closer] = t_obj[closer]
            near_ids[closer] = index
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


def _check_room_layout(scene: FactoredScene) -> None:
    """Raise what rendering the scene's layout would, without making it.

    A pixel's depth min(ty, tx, hi_z) is positive when its row and column
    exits are, so the least positive depth is the least of the positive
    row exits, the positive column exits and hi_z.  Exits that underflow
    to 0 are empty pixels; with no positive row or column there is none.
    """
    if scene.room is None:
        raise ValueError(_NO_ROOM)
    ty, tx, hi_z = _room_exits(scene.camera, scene.room)
    ty, tx = ty[ty > 0.0], tx[tx > 0.0]
    if len(ty) and len(tx) and not math.isfinite(1.0 / float(min(ty.min(), tx.min(), hi_z))):
        raise ValueError("disparity values must be finite")


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

    # One cell of padding on every side: a ray that steps out of the grid
    # lands on an OUTSIDE cell, so one gather per step finds hits and exits.
    code = np.full(n + 2, _OUTSIDE, dtype=np.int8)
    code[1:-1, 1:-1, 1:-1] = occ
    strides = np.array([(n[1] + 2) * (n[2] + 2), n[2] + 2, 1])
    code = code.ravel()
    flat = (cell_idx + 1) @ strides
    flat_step = step * strides

    max_steps = int(n.sum()) + 4
    for _ in range(max_steps):
        here = code[flat]
        hit = here == _OCCUPIED
        if hit.any():
            result[idx_alive[hit]] = t_in[hit]
        keep = here == _EMPTY
        if not keep.all():
            idx_alive = idx_alive[keep]
            if len(idx_alive) == 0:
                break
            flat = flat[keep]
            t_max = t_max[keep]
            t_delta = t_delta[keep]
            flat_step = flat_step[keep]

        # Offsets of each ray's (row, nearest axis) entry in the raveled
        # (rays, 3) arrays.
        k = np.argmin(t_max, axis=-1)
        k += np.arange(0, 3 * len(k), 3)
        t_max = t_max.ravel()
        t_in = t_max[k]
        flat += flat_step.ravel()[k]
        t_max[k] += t_delta.ravel()[k]
        t_max = t_max.reshape(-1, 3)
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
    dirs = _pixel_rays(cam)
    depth = np.full((cam.height, cam.width), np.inf)
    for obj in scene.objects:
        occ = obj.shape.occupied
        if not occ.any():
            continue
        window, local_origin, local_dirs = _window_rays(
            cam, dirs, obj.pose, _box_corners(*obj.shape.extent))
        t = _march_grid(occ, obj.shape.origin[0], obj.shape.cell_size, local_origin, local_dirs)
        near = depth[window]
        np.minimum(near, t.reshape(near.shape), out=near)
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


def pointcloud_to_voxels(points: np.ndarray) -> VoxelGrid:
    """Default scene grid with a cell occupied iff at least one point lies
    inside it; points outside the grid extent are dropped."""
    spec = DEFAULT_SCENE_SPEC
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    idx = np.floor((pts - np.asarray(spec.origin)) / spec.cell_size).astype(int)
    idx = idx[np.all((idx >= 0) & (idx < np.array(spec.dims)), axis=1)]
    occ = np.zeros(spec.dims, dtype=np.float32)
    occ[idx[:, 0], idx[:, 1], idx[:, 2]] = 1.0
    return VoxelGrid.scene(occ)
