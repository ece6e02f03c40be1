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

from .geometry import (Camera, Pose, _nonnegative_image, apply_pose, as_points, backproject,
                       image_extent)
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
    "room_layout",
]

# Surface id codes used by the analytic renderer.
ROOM_SURFACE = -1
NO_SURFACE = -2

# Cell codes of the voxel marcher's padded grid.
_EMPTY, _OCCUPIED, _OUTSIDE = 0, 1, 2


@dataclass(frozen=True, eq=False)
class DepthMap:
    """Per-pixel z-depth in meters; 0 marks pixels with no surface."""

    depth: np.ndarray
    camera: Camera

    def __post_init__(self):
        d = _nonnegative_image(self.depth, "depth")
        if d.shape != (self.camera.height, self.camera.width):
            raise ValueError(f"depth image is {d.shape[1]}x{d.shape[0]}, "
                             f"camera is {self.camera.width}x{self.camera.height}")
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


def _slab_axis(lo: float, hi: float, origin: float, d) -> tuple[np.ndarray, np.ndarray]:
    """Entry and exit ray parameters of one axis's slab [lo, hi] for rays
    from ``origin`` whose direction components on that axis are ``d``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origin) / d
        t2 = (hi - origin) / d
    # A ray parallel to a slab and exactly on its boundary yields nan for
    # both planes; treat it as inside that slab.
    return np.fmax(np.fmin(t1, t2), -np.inf), np.fmin(np.fmax(t1, t2), np.inf)


def _slab(origin: np.ndarray, dirs: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Entry and exit ray parameters of an axis-aligned box (Kay & Kajiya
    slab test) for rays from one ``origin`` along (..., 3) ``dirs``; the
    ray misses unless ``t_near <= t_far``.

    ``dirs`` is read one axis column at a time, and each axis's entry and
    exit parameters (:func:`_slab_axis`) are folded into the running ones
    with ``np.maximum``/``np.minimum`` in x, y, z order.  Those return the
    second operand of an equal pair (-0.0 against 0.0), as a ``max``/``min``
    reduction over a last axis of length 3 does, so the result has that
    reduction's bits.  ``fmax``/``fmin`` cannot fold: their pick from an
    equal pair depends on the array length.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    t_near, t_far = -np.inf, np.inf
    for axis in range(3):
        near, far = _slab_axis(lo[axis], hi[axis], origin[axis], dirs[..., axis])
        t_near = np.maximum(t_near, near)
        t_far = np.minimum(t_far, far)
    return t_near, t_far


def _slab_hit(origin: np.ndarray, dirs: np.ndarray, lo, hi) -> np.ndarray:
    """First positive ray parameter hitting an axis-aligned box, else inf.

    A ray starting inside the box reports the exit face, which is what an
    interior camera should see of the room shell.
    """
    t_near, t_far = _slab(origin, dirs, lo, hi)
    hit = (t_near <= t_far) & (t_far > 0.0)
    t = np.where(t_near > 0.0, t_near, t_far)
    return np.where(hit, t, np.inf)


def _room_exits(cam: Camera, room: Cuboid | None) -> tuple[np.ndarray, np.ndarray, float]:
    """Slab exit parameters (:func:`_slab_axis`) of a camera inside the
    room: per row (ty), per column (tx) and along z (tz).  Pixel (r, c)
    exits at min(ty[r], tx[c], tz), and misses the room when that is not
    positive (a wall so near that its parameter underflows to 0).  Every
    analytic render starts here, so a scene with no room fails here.

    With lo < 0 < hi on every axis no quotient is 0/0, and every entry
    parameter is at most 0 and every exit at least 0.  So ``_slab_hit``'s
    miss rule, ``t_near <= t_far and t_far > 0``, reduces to its second
    half, and a hit is at the exit.
    """
    if room is None:
        raise ValueError("analytic rendering needs a scene with room geometry")
    lo, hi = room.bounds
    if np.any(lo >= 0.0) or np.any(hi <= 0.0):
        raise ValueError("camera (the origin) must lie inside the room box")
    u, v = _pixel_slopes(cam)
    tx = _slab_axis(lo[0], hi[0], 0.0, u)[1]
    ty = _slab_axis(lo[1], hi[1], 0.0, v)[1]
    tz = float(_slab_axis(lo[2], hi[2], 0.0, 1.0)[1])
    return ty, tx, tz


def _room_depth(cam: Camera, room: Cuboid | None, miss: float = np.inf) -> np.ndarray:
    """``_slab_hit(0, _pixel_rays(cam), *room.bounds)`` for a camera inside
    the room, bit for bit: the exit parameter min(tx, ty, tz) where it is
    positive, else ``miss``."""
    ty, tx, tz = _room_exits(cam, room)
    t_far = np.minimum(np.minimum(tx[None, :], ty[:, None]), tz)
    return np.where(t_far > 0.0, t_far, miss)


def _raycast_analytic(scene: FactoredScene) -> tuple[np.ndarray, np.ndarray]:
    cam = scene.camera
    depth = _room_depth(cam, scene.room)
    ids = np.full(depth.shape, ROOM_SURFACE, dtype=np.int32)
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
    if include_objects:
        depth, _ = _raycast_analytic(scene)
    else:
        depth = _room_depth(scene.camera, scene.room, miss=0.0)
    return DepthMap(depth, scene.camera)


def room_layout(camera: Camera, room: Cuboid | None) -> Layout:
    """The amodal layout of a camera inside ``room``, bit for bit
    ``depth_to_disparity(render_depth_analytic(scene, include_objects=False))``:
    1 / min(ty, tx, tz) of each pixel's room exit, 0 where that exit is
    not positive.  A wall so near that its disparity overflows makes
    ``Layout`` raise.

    Rounded division is monotone, so 1 / min(ty, tx, tz) is exactly
    max(1 / ty, 1 / tx, 1 / tz): the reciprocals are taken once per row
    and per column.  tz is positive, because the camera is inside.
    """
    ty, tx, tz = _room_exits(camera, room)
    with np.errstate(divide="ignore", over="ignore"):
        disparity = np.maximum(np.maximum(1.0 / tx[None, :], 1.0 / ty[:, None]), 1.0 / tz)
    disparity[ty <= 0.0] = 0.0
    disparity[:, tx <= 0.0] = 0.0
    return Layout(disparity)


def render_surface_ids(scene: FactoredScene) -> tuple[DepthMap, np.ndarray]:
    """Full analytic render from the scene's camera plus a per-pixel
    surface id image.

    Ids: object index for object surfaces, -1 for room surfaces, -2 for
    rays that miss everything (impossible inside a closed room).
    """
    depth, ids = _raycast_analytic(scene)
    return DepthMap(depth, scene.camera), ids


def _march_grid(occ: np.ndarray, origin: float, cell: float,
                start: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Ray-march a canonical occupancy grid; returns entry parameter of the
    first occupied cell per ray, or inf.

    ``start`` is the ray origin in grid coordinates, ``dirs`` the (n, 3)
    per-ray directions (shared ray parameter with the world rays).

    The per-ray state (next boundary parameter, boundary spacing and flat
    index step) is held as (3, alive) arrays, one contiguous row per axis.
    Each step advances the axis with the least next boundary parameter,
    x before y before z on ties: ``argmin``'s first-minimum rule, on which
    bit identity with the row-wise marcher rests.
    """
    n = np.array(occ.shape)
    lo = np.full(3, origin)
    t_near, t_far = _slab(start, dirs, lo, lo + n * cell)
    idx_alive = np.flatnonzero((t_near <= t_far) & (t_far > 0.0))
    result = np.full(len(dirs), np.inf)
    if len(idx_alive) == 0:
        return result

    t_in = np.maximum(t_near[idx_alive], 0.0)
    d = dirs.T.take(idx_alive, axis=1)
    start, lo = start[:, None], lo[:, None]
    p = start + t_in * d
    cell_idx = np.clip(np.floor((p - lo) / cell).astype(int), 0, n[:, None] - 1)

    step = np.sign(d).astype(int)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_delta = np.where(d != 0.0, cell / np.abs(d), np.inf)
        # Parameter at which each ray crosses the next cell boundary per axis.
        next_bound = lo + (cell_idx + (step > 0)) * cell
        t_max = (next_bound - start) / d
    t_max = np.where(np.isfinite(t_max), t_max, np.inf)

    # One cell of padding on every side: a ray that steps out of the grid
    # lands on an OUTSIDE cell, so one gather per step finds hits and exits.
    code = np.full(n + 2, _OUTSIDE, dtype=np.int8)
    code[1:-1, 1:-1, 1:-1] = occ
    strides = np.array([(n[1] + 2) * (n[2] + 2), n[2] + 2, 1])
    code = code.ravel()
    flat = strides @ (cell_idx + 1)
    flat_step = step * strides[:, None]

    lanes = np.arange(len(flat))
    max_steps = int(n.sum()) + 4
    for _ in range(max_steps):
        here = code[flat]
        hit = here == _OCCUPIED
        if hit.any():
            result[idx_alive[hit]] = t_in[hit]
        keep = here == _EMPTY
        if not keep.all():
            rows = np.flatnonzero(keep)
            if len(rows) == 0:
                break
            idx_alive = idx_alive[rows]
            flat = flat[rows]
            t_max = t_max.take(rows, axis=1)
            t_delta = t_delta.take(rows, axis=1)
            flat_step = flat_step.take(rows, axis=1)

        # Offsets of each ray's nearest-axis entry in the raveled (3, alive)
        # arrays, ties to x, then y.
        tx, ty, tz = t_max
        m = len(tx)
        k = np.where((tx <= ty) & (tx <= tz), 0, np.where(ty <= tz, m, 2 * m))
        k += lanes[:m]
        t_max_flat = t_max.reshape(-1)
        t_in = t_max_flat[k]
        flat += flat_step.reshape(-1)[k]
        t_max_flat[k] = t_in + t_delta.reshape(-1)[k]
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
    rows, cols = np.nonzero(d.valid)
    return backproject(d.camera, cols + 0.5, rows + 0.5, d.depth[rows, cols])


def pointcloud_to_voxels(points: np.ndarray) -> VoxelGrid:
    """Default scene grid with a cell occupied iff any of the (n, 3) points
    lies inside it; points outside the grid extent are dropped."""
    spec = DEFAULT_SCENE_SPEC
    pts = as_points(points)
    idx = np.floor((pts - np.asarray(spec.origin)) / spec.cell_size).astype(int)
    idx = idx[np.all((idx >= 0) & (idx < np.array(spec.dims)), axis=1)]
    occ = np.zeros(spec.dims, dtype=np.float32)
    occ[idx[:, 0], idx[:, 1], idx[:, 2]] = 1.0
    return VoxelGrid.scene(occ)
