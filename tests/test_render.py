import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import (
    DEFAULT_CAMERA,
    Camera,
    Pose,
    UnitQuaternion,
    apply_pose,
    backproject,
    rotation_about_y,
)
from scenefactor.render import (
    DepthMap,
    _march_grid,
    _pixel_rays,
    _room_depth,
    _slab,
    _slab_hit,
    depth_to_disparity,
    depth_to_pointcloud,
    disparity_to_depth,
    pointcloud_to_voxels,
    render_depth_analytic,
    render_depth_voxel,
    render_surface_ids,
    room_layout,
)
from scenefactor.scene import FactoredScene, Layout, SceneObject
from scenefactor.voxels import DEFAULT_SCENE_SPEC, Cuboid, VoxelGrid, cuboid_voxelize

CAM = DEFAULT_CAMERA.scaled(64, 48)


def room_scene(objects=(), half=(2.0, 1.2, 3.0), center=(0.0, 0.0, 1.5)):
    return FactoredScene(camera=CAM, objects=tuple(objects),
                         room=Cuboid(center, half))


class TestAnalyticRender:
    def test_wall_ahead_center_pixel(self):
        # Front wall at z = 3: every wall pixel reads z-depth 3.
        scene = room_scene(half=(3.0, 2.0, 2.0), center=(0.0, 0.0, 1.0))
        depth = render_depth_analytic(scene)
        i, j = CAM.height // 2, CAM.width // 2
        assert depth.depth[i, j] == pytest.approx(3.0, abs=1e-12)

    def test_occlusion_monotonicity(self, scene_batch):
        for scene in scene_batch:
            without = render_depth_analytic(scene, include_objects=False)
            with_objects = render_depth_analytic(scene, include_objects=True)
            assert np.all(with_objects.depth <= without.depth + 1e-12)

    def test_corner_pixel_closed_form(self):
        scene = room_scene()
        depth = render_depth_analytic(scene)
        lo, hi = scene.room.bounds
        for (i, j) in [(0, 0), (0, CAM.width - 1), (CAM.height - 1, 0)]:
            d = np.array([(j + 0.5 - CAM.cx) / CAM.fx, (i + 0.5 - CAM.cy) / CAM.fy, 1.0])
            t_best = math.inf
            for axis in range(3):
                for bound in (lo[axis], hi[axis]):
                    if d[axis] == 0.0:
                        continue
                    t = bound / d[axis]
                    if t > 0:
                        p = t * d
                        others = [k for k in range(3) if k != axis]
                        if all(lo[k] - 1e-9 <= p[k] <= hi[k] + 1e-9 for k in others):
                            t_best = min(t_best, t)
            assert abs(depth.depth[i, j] - t_best) < 1e-9

    def test_needs_room(self):
        scene = FactoredScene(camera=CAM)
        with pytest.raises(ValueError):
            render_depth_analytic(scene)

    def test_surface_ids_partition(self, scene_batch):
        for scene in scene_batch:
            depth, ids = render_surface_ids(scene)
            assert set(np.unique(ids)) <= set(range(len(scene.objects))) | {-1}
            assert np.all(depth.depth > 0)

    def test_points_lie_on_surfaces(self, scene_batch):
        # Backprojected points satisfy the implicit surface equations.
        scene = scene_batch[0]
        depth, ids = render_surface_ids(scene)
        cloud = depth_to_pointcloud(depth)
        flat_ids = ids.ravel()[depth.valid.ravel()]
        lo, hi = scene.room.bounds
        for point, sid in zip(cloud, flat_ids):
            if sid == -1:
                assert min(np.abs(point - lo).min(), np.abs(point - hi).min()) < 1e-6
            else:
                obj = scene.objects[sid]
                local = (point - obj.pose.translation) @ obj.pose.rotation_matrix / obj.pose.scale
                residual = min(
                    abs(np.max(np.abs(local - c.center) - c.half_extents)) for c in obj.solid)
                assert residual < 1e-6


def slab_reference(origin, dirs, lo, hi):
    """The slab test as a reduction over the last axis of (..., 3)
    parameter arrays: the reference for the per-axis ``_slab``."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origin) / dirs
        t2 = (hi - origin) / dirs
    tmin = np.fmin(t1, t2)
    tmax = np.fmax(t1, t2)
    tmin = np.where(np.isnan(tmin), -np.inf, tmin)
    tmax = np.where(np.isnan(tmax), np.inf, tmax)
    return tmin.max(axis=-1), tmax.min(axis=-1)


def slab_hit_reference(origin, dirs, lo, hi):
    t_near, t_far = slab_reference(origin, dirs, lo, hi)
    hit = (t_near <= t_far) & (t_far > 0.0)
    return np.where(hit, np.where(t_near > 0.0, t_near, t_far), np.inf)


def same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and np.array_equal(got.view(np.int64),
                                                          expected.view(np.int64))


def slab_directions():
    """Every pattern of -1.5, -0.0, 0.0 and 0.7 components, the zero
    directions among them, then random rays."""
    values = (-1.5, -0.0, 0.0, 0.7)
    grid = np.array([(x, y, z) for x in values for y in values for z in values])
    return np.concatenate([grid, np.random.default_rng(5).normal(size=(64, 3))])


# A box, and one that is flat in x: a ray on its x plane gives nan for both
# slab planes of that axis.
SLAB_BOXES = {"box": ((-0.5, -0.25, 0.5), (0.5, 0.75, 2.0)),
              "flat": ((0.25, -0.25, 0.5), (0.25, 0.75, 2.0))}
SLAB_ORIGINS = {"inside": (0.1, 0.2, 1.0), "outside": (2.0, -1.0, -3.0),
                "on_face": (-0.5, 0.2, 1.0), "on_edge": (0.5, 0.75, 1.0),
                "on_corner": (-0.5, -0.25, 0.5), "on_flat_plane": (0.25, 0.2, 1.0),
                # On a low plane and a high one: entry (and exit) parameters
                # of 0.0 and -0.0 on two axes, where fold order shows.
                "on_mixed_edge": (-0.5, 0.75, 1.0), "on_mixed_corner": (-0.5, 0.75, 2.0),
                "negative_zero": (-0.0, 0.0, -0.0)}


@pytest.mark.parametrize("box", SLAB_BOXES.values(), ids=SLAB_BOXES.keys())
@pytest.mark.parametrize("origin", SLAB_ORIGINS.values(), ids=SLAB_ORIGINS.keys())
def test_slab_matches_reduction_reference(box, origin):
    origin = np.array(origin)
    dirs = slab_directions()
    # ndim 2, ndim 3 and each single ray as ndim 1.
    inputs = [dirs, dirs.reshape(8, 16, 3)] + list(dirs[:64])
    for d in inputs:
        got, expected = _slab(origin, d, *box), slab_reference(origin, d, *box)
        assert same_bits(got[0], expected[0]) and same_bits(got[1], expected[1])
        assert same_bits(_slab_hit(origin, d, *box), slab_hit_reference(origin, d, *box))


# Column 20 and row 10 have their centers on the principal point: u = v = 0.
AXIS_CAMERA = Camera(fx=40.0, fy=40.0, cx=20.5, cy=10.5, width=48, height=32)
# Column 20 has its center on the principal point and every other column
# a slope of at least 1000; with cx = 20 no column has a slope below 500.
WIDE_CAMERA = Camera(fx=1e-3, fy=40.0, cx=20.5, cy=10.5, width=48, height=32)
WIDER_CAMERA = Camera(fx=1e-3, fy=40.0, cx=20.0, cy=10.5, width=48, height=32)
# The same with rows: row 10 on the axis, every other row's slope >= 1000.
TALL_CAMERA = Camera(fx=40.0, fy=1e-3, cx=20.5, cy=10.5, width=48, height=32)


def room_slab_hit(cam, room):
    return _slab_hit(np.zeros(3), _pixel_rays(cam), *room.bounds)


@pytest.mark.parametrize("cam", [DEFAULT_CAMERA, CAM, DEFAULT_CAMERA.scaled(333, 217),
                                 AXIS_CAMERA])
def test_room_exit_matches_slab_test(scene_batch, cam):
    for scene in scene_batch:
        assert same_bits(_room_depth(cam, scene.room), room_slab_hit(cam, scene.room))


# Rooms whose wall parameters are subnormal or underflow to 0, where a
# wall is so near that a ray's exit reads 0 and the ray misses.
DEGENERATE_ROOMS = {
    "subnormal_x": (CAM, Cuboid((0.0, 0.0, 0.0), (1e-310, 1.0, 1.0))),
    "subnormal_y": (CAM, Cuboid((0.0, 0.0, 0.0), (1.0, 1e-310, 1.0))),
    "subnormal_z": (CAM, Cuboid((0.0, 0.0, 0.0), (1.0, 1.0, 1e-310))),
    "off_center_subnormal": (AXIS_CAMERA, Cuboid((5e-324, -5e-324, 0.5), (1e-323, 1e-323, 1.0))),
    "tiny_fx": (WIDE_CAMERA, Cuboid((0.3, -0.2, 1.0), (2.0, 1.2, 3.0))),
    "underflow_all_but_axis_column": (WIDE_CAMERA, Cuboid((0.0, 0.0, 0.0), (5e-324, 1.0, 1.0))),
    "underflow_every_column": (WIDER_CAMERA, Cuboid((0.0, 0.0, 0.0), (5e-324, 1.0, 1.0))),
    "underflow_some_columns": (WIDE_CAMERA, Cuboid((0.0, 0.0, 0.0), (1e-320, 1.0, 1.0))),
    "underflow_all_but_axis_row": (TALL_CAMERA, Cuboid((0.0, 0.0, 0.0), (1.0, 5e-324, 1.0))),
}


@pytest.mark.parametrize("cam, room", DEGENERATE_ROOMS.values(), ids=DEGENERATE_ROOMS.keys())
def test_degenerate_room_exit_matches_slab_test(cam, room):
    assert same_bits(_room_depth(cam, room), room_slab_hit(cam, room))


# Room half extents from the everyday to the subnormal, and focal lengths
# that give pixel slopes from 0 (a center on the principal point) to ~1e4.
WALLS = st.floats(5e-324, 10.0) | st.sampled_from([5e-324, 1e-323, 1e-320, 1e-310, 1.0])
FOCALS = st.floats(1e-3, 1e3) | st.sampled_from([1e-3, 40.0, 519.0])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_room_depth_matches_slab_test_property(data):
    width, height = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    offset = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)
    cx = data.draw(st.integers(0, width - 1)) + data.draw(offset)
    cy = data.draw(st.integers(0, height - 1)) + data.draw(offset)
    cam = Camera(fx=data.draw(FOCALS), fy=data.draw(FOCALS), cx=min(cx, width - 0.5),
                 cy=min(cy, height - 0.5), width=width, height=height)
    half = np.array([data.draw(WALLS) for _ in range(3)])
    # The camera (the origin) inside: |center| < half on every axis.
    shift = np.array([data.draw(st.sampled_from([0.0, 0.5, -0.9]) | st.floats(-0.99, 0.99))
                      for _ in range(3)])
    room = Cuboid(shift * half, half)
    lo, hi = room.bounds
    assume(np.all(lo < 0.0) and np.all(hi > 0.0))
    assert same_bits(_room_depth(cam, room), room_slab_hit(cam, room))
    # room_layout takes its reciprocals per row and column.
    scene = FactoredScene(camera=cam, room=room)
    assert layout_outcome(scene_room_layout, scene) == layout_outcome(full_size_room_layout, scene)


def scene_room_layout(scene):
    return room_layout(scene.camera, scene.room)


def full_size_room_layout(scene):
    """The layout as the disparity of the full-size room render."""
    with np.errstate(over="ignore"):
        return depth_to_disparity(render_depth_analytic(scene, include_objects=False))


def layout_outcome(make, scene):
    """The layout's disparity bits, or the message of the error raised."""
    try:
        return make(scene).disparity.tobytes()
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("cam, room, error", [
    (CAM, Cuboid((0.0, 0.0, 1.5), (2.0, 1.2, 3.0)), None),
    (AXIS_CAMERA, Cuboid((0.3, -0.2, 1.0), (2.0, 1.2, 3.0)), None),
    (CAM, None, "room geometry"),
    (CAM, Cuboid((0.0, 0.0, 101.5), (2.0, 1.2, 3.0)), "inside the room box"),
    (CAM, Cuboid((0.0, 0.0, 1.0), (1.0, 1.2, 1.0)), "inside the room box"),
    # Walls 1e-310 m away: a subnormal depth whose disparity overflows.
    (CAM, Cuboid((0.0, 0.0, 0.0), (1e-310, 1.0, 1.0)), "disparity values must be finite"),
    (CAM, Cuboid((0.0, 0.0, 0.0), (1.0, 1e-310, 1.0)), "disparity values must be finite"),
    (CAM, Cuboid((0.0, 0.0, 0.0), (1.0, 1.0, 1e-310)), "disparity values must be finite"),
    # Every column but the axis one underflows to depth 0, an empty pixel.
    (WIDE_CAMERA, Cuboid((0.0, 0.0, 0.0), (5e-324, 1.0, 1.0)), None),
    # Every column underflows: the layout is empty, which is no error.
    (WIDER_CAMERA, Cuboid((0.0, 0.0, 0.0), (5e-324, 1.0, 1.0)), None),
    # Some columns underflow and the others are subnormal.
    (WIDE_CAMERA, Cuboid((0.0, 0.0, 0.0), (1e-320, 1.0, 1.0)), "disparity values must be finite"),
])
def test_room_layout_check_matches_full_size_render(cam, room, error):
    scene = FactoredScene(camera=cam, room=room)
    outcome = layout_outcome(scene_room_layout, scene)
    assert outcome == layout_outcome(full_size_room_layout, scene)
    assert isinstance(outcome, bytes) == (error is None)
    assert error is None or error in outcome


def object_rays(scene, obj):
    """An object's local-frame ray origin and every pixel ray of the
    scene's camera in its local frame, flattened row-major."""
    flat = _pixel_rays(scene.camera).reshape(-1, 3)
    local_origin = apply_pose(obj.pose, np.zeros(3), inverse=True)
    return local_origin, (flat @ obj.pose.rotation_matrix) / obj.pose.scale


def analytic_all_rays(scene):
    """Analytic depth and surface ids from the reference slab test on every
    pixel ray, at the room and at each cuboid of every object."""
    depth = slab_hit_reference(np.zeros(3), _pixel_rays(scene.camera), *scene.room.bounds)
    ids = np.full(depth.shape, -1, dtype=np.int32)
    for index, obj in enumerate(scene.objects):
        local_origin, local_dirs = object_rays(scene, obj)
        # A ray that misses the solid's bounding box misses each cuboid.
        lows, highs = zip(*(c.bounds for c in obj.solid))
        box = np.isfinite(slab_hit_reference(local_origin, local_dirs,
                                             np.min(lows, axis=0), np.max(highs, axis=0)))
        t = np.full(len(local_dirs), np.inf)
        for c in obj.solid:
            t[box] = np.minimum(t[box], slab_hit_reference(local_origin, local_dirs[box], *c.bounds))
        t = t.reshape(depth.shape)
        ids = np.where(t < depth, np.int32(index), ids)
        depth = np.minimum(depth, t)
    return depth, ids


def all_rays(scene):
    """Analytic depth and surface ids, and voxel depth, from the reference
    kernels on every pixel ray: the reference for the per-object pixel
    windows."""
    depth, ids = analytic_all_rays(scene)
    voxel = np.full(depth.shape, np.inf)
    for obj in scene.objects:
        t = march_grid_reference(obj.shape.occupied, obj.shape.origin[0], obj.shape.cell_size,
                                 *object_rays(scene, obj))
        voxel = np.minimum(voxel, t.reshape(depth.shape))
    return depth, ids, np.where(np.isfinite(voxel), voxel, 0.0)


# A table: a top slab on one leg, in the canonical frame.
TABLE = (Cuboid((0.0, -0.4, 0.0), (0.5, 0.1, 0.5)), Cuboid((0.1, 0.1, 0.0), (0.1, 0.4, 0.1)))
UNIT_CUBE = (Cuboid((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)),)


def solid_object(solid, scale, theta, translation):
    pose = Pose(np.array(scale, dtype=float), rotation_about_y(theta),
                np.array(translation, dtype=float))
    return SceneObject(shape=cuboid_voxelize(solid), pose=pose, solid=solid)


@pytest.mark.parametrize("obj", [
    # Cut by the left image border.
    solid_object(TABLE, (0.8, 0.6, 0.7), 0.6, (-1.1, 0.3, 2.0)),
    # Left of the view frustum: an empty window.
    solid_object(TABLE, (0.3, 0.3, 0.3), 0.0, (-1.7, 0.0, 1.0)),
    # Below the camera and reaching behind its plane (z from -0.3 to 0.7):
    # no bounded projection, so the whole image is cast.
    solid_object(TABLE, (0.8, 0.3, 1.0), 0.0, (0.0, 0.45, 0.2)),
    # The left face's far edge passes exactly through the centers of
    # column 61.  The rays there graze it and hit, while the rounded
    # projection puts that edge just right of the centers, at
    # u = 61.50000000000001: only the one-pixel pad keeps the column.
    solid_object(UNIT_CUBE, (0.3, 0.5, 0.5), 0.0, (1.4289017341040462, 0.0, 2.0)),
    # So far to the side that its projected u overflows to inf.
    solid_object(UNIT_CUBE, (1.0, 1.0, 1.0), 0.0, (1e307, 0.0, 1.0)),
], ids=["image_border", "off_screen", "behind_camera_plane", "grazing_edge",
        "projection_overflow"])
def test_pixel_windows_match_all_rays(obj):
    scene = room_scene([obj])
    # The far object's slab and march parameters overflow to inf, with or
    # without windows.
    with np.errstate(over="ignore"):
        depth, ids = render_surface_ids(scene)
        voxel = render_depth_voxel(scene)
        expected_depth, expected_ids, expected_voxel = all_rays(scene)
    assert np.array_equal(depth.depth, expected_depth)
    assert np.array_equal(ids, expected_ids)
    assert np.array_equal(voxel.depth, expected_voxel)


class TestVoxelRender:
    def test_layout_only(self):
        scene_room = room_scene()
        layout = depth_to_disparity(render_depth_analytic(scene_room, include_objects=False))
        scene = FactoredScene(camera=CAM, layout=layout)
        depth = render_depth_voxel(scene)
        expected = disparity_to_depth(layout, CAM)
        assert np.array_equal(depth.depth, expected.depth)

    def test_single_voxel_cube_depth(self):
        # One occupied canonical cell straddling the optical axis; its cube's
        # near face sits half a cell in front of the cell center.
        occ = np.zeros((32, 32, 32), dtype=np.float32)
        occ[16, 16, 16] = 1.0  # cell center at +1/64 on each axis
        pose = Pose(np.ones(3), UnitQuaternion.identity(), np.array([0.0, 0.0, 2.0]))
        obj = SceneObject(shape=VoxelGrid.canonical(occ), pose=pose)
        scene = FactoredScene(camera=CAM, objects=(obj,))
        depth = render_depth_voxel(scene)
        cell = 1.0 / 32.0
        center_z = 2.0 + cell / 2.0
        expected = center_z - cell / 2.0
        # The cube spans [0, 1/32] laterally, so the ray through the image
        # center at (0 + eps) hits it.
        i, j = 24, 32  # pixel center (32.5, 24.5) maps to a ray just off axis
        ray = np.array([(j + 0.5 - CAM.cx) / CAM.fx, (i + 0.5 - CAM.cy) / CAM.fy, 1.0])
        lateral = ray[:2] * expected
        assert np.all(lateral >= 0.0) and np.all(lateral <= cell)
        assert depth.depth[i, j] == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_analytic_on_object_pixels(self, scene_batch):
        for scene in scene_batch[:3]:
            depth, ids = render_surface_ids(scene)
            voxel = render_depth_voxel(scene)
            obj_pix = ids >= 0
            if not obj_pix.any():
                continue
            err = np.abs(depth.depth - voxel.depth)[obj_pix]
            assert (err <= 0.0693).mean() >= 0.95

    def test_empty_background_without_layout(self):
        obj_occ = np.zeros((32, 32, 32), dtype=np.float32)
        obj = SceneObject(shape=VoxelGrid.canonical(obj_occ), pose=Pose.identity())
        scene = FactoredScene(camera=CAM, objects=(obj,))
        depth = render_depth_voxel(scene)
        assert np.all(depth.depth == 0.0)


def march_grid_reference(occ, origin, cell, start, dirs):
    """The voxel marcher as it was before its padded code grid: a
    three-array occupancy index per step and a separate in-grid test.  The
    reference for the bit-identity tests below."""
    n = np.array(occ.shape)
    lo = np.full(3, origin)
    t_near, t_far = slab_reference(start, dirs, lo, lo + n * cell)
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
        next_bound = lo + (cell_idx + (step > 0)) * cell
        t_max = (next_bound - start[None, :]) / d
    t_max = np.where(np.isfinite(t_max), t_max, np.inf)

    max_steps = int(n.sum()) + 4
    for _ in range(max_steps):
        if len(idx_alive) == 0:
            break
        hit = occ[cell_idx[:, 0], cell_idx[:, 1], cell_idx[:, 2]]
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
        cell_idx[rows, axis] += step[rows, axis]
        t_max[rows, axis] += t_delta[rows, axis]

        inside = (cell_idx[rows, axis] >= 0) & (cell_idx[rows, axis] < n[axis])
        idx_alive = idx_alive[inside]
        cell_idx = cell_idx[inside]
        t_max = t_max[inside]
        t_delta = t_delta[inside]
        step = step[inside]
        t_in = t_in[inside]
    return result


def assert_march_bits(occ, start, dirs, origin=-0.5, cell=1.0 / 32.0):
    """The marcher and its reference give the same float64 bits; returns
    the depths."""
    start = np.asarray(start, dtype=float)
    got = _march_grid(occ, origin, cell, start, dirs)
    expected = march_grid_reference(occ, origin, cell, start, dirs)
    assert same_bits(got, expected)
    return got


def grids():
    rng = np.random.default_rng(3)
    single = np.zeros((32, 32, 32), dtype=bool)
    single[16, 7, 25] = True
    return {
        "empty": np.zeros((32, 32, 32), dtype=bool),
        "full": np.ones((32, 32, 32), dtype=bool),
        "single": single,
        "random": rng.random((32, 32, 32)) < 0.3,
        "sparse": rng.random((32, 32, 32)) < 0.02,
        # Unequal sides catch a wrong axis order in the flat index.
        "oblong": rng.random((7, 5, 3)) < 0.1,
    }


@pytest.mark.parametrize("occ", grids().values(), ids=grids().keys())
@pytest.mark.parametrize("start", [(0.1, -1.3, -2.0), (2.0, 0.3, 0.7), (0.01, 0.02, -0.03),
                                   (-0.49, 0.45, 0.3)],
                         ids=["outside", "outside_beside", "inside_center", "inside_corner"])
def test_march_random_rays_bit_identical(occ, start):
    rng = np.random.default_rng(4)
    dirs = rng.normal(size=(4000, 3))
    dirs[:, 2] += 1.0
    # Every zero pattern of the components but all three: t_delta = inf on
    # those axes.
    for k, mask in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]):
        dirs[500 * k:500 * (k + 1)] *= mask
    assert_march_bits(occ, start, dirs)


@pytest.mark.parametrize("occ", grids().values(), ids=grids().keys())
def test_march_rays_along_cell_boundaries(occ):
    cell = 1.0 / 32.0
    ticks = -0.5 + cell * np.arange(33)
    rays = []
    for a in ticks[::4]:
        for b in ticks[::4]:
            for axis in range(3):
                # An axis-parallel ray, and a diagonal one, along the grid
                # lines through (a, b), from outside the grid.
                start = np.insert(np.array([a, b]), axis, -1.0)
                for other in (0.0, 1.0):
                    d = np.insert(np.array([other, other]), axis, 1.0)
                    rays.append((start, d))
    for start, d in rays:
        assert_march_bits(occ, start, d[None, :])
    # A fan of rays from a grid vertex inside the grid.
    dirs = np.array([[x, y, 1.0] for x in (-1.0, -0.5, 0.0, 0.5, 1.0)
                     for y in (-1.0, 0.0, 0.5, 1.0)])
    assert_march_bits(occ, (ticks[10], ticks[20], ticks[16]), dirs)


def march_objects(scene):
    """Every object's march over every pixel ray matches the reference;
    returns the number of rays that hit."""
    hits = 0
    for obj in scene.objects:
        t = assert_march_bits(obj.shape.occupied, *object_rays(scene, obj),
                              obj.shape.origin[0], obj.shape.cell_size)
        hits += np.isfinite(t).sum()
    return hits


@pytest.mark.parametrize("seed", range(20))
def test_march_generated_objects_bit_identical(seed):
    assert march_objects(generate_scene(GeneratorConfig(seed=seed))) > 0


# Full size (640x480), four mid-size pieces of furniture per scene.
FULL_SIZE = {"camera": DEFAULT_CAMERA, "anchor_classes": (), "object_count_range": (4, 4),
             "class_mix": {"chair": 1.0, "desk": 1.0, "table": 1.0}}


@pytest.fixture(scope="module", params=[0, 1], ids=["seed0", "seed1"])
def full_size_scene(request):
    return generate_scene(GeneratorConfig(seed=request.param, **FULL_SIZE))


def test_march_full_size_bit_identical(full_size_scene):
    assert march_objects(full_size_scene) > 0


def test_surface_ids_full_size_match_reference(full_size_scene):
    depth, ids = render_surface_ids(full_size_scene)
    expected_depth, expected_ids = analytic_all_rays(full_size_scene)
    assert same_bits(depth.depth, expected_depth)
    assert np.array_equal(ids, expected_ids)
    assert set(np.unique(ids)) == {-1, 0, 1, 2, 3}


class TestDepthDisparity:
    def test_reciprocal(self):
        d = DepthMap(np.full((48, 64), 2.0), CAM)
        disp = depth_to_disparity(d)
        assert np.all(disp.disparity == 0.5)

    def test_roundtrip_identity(self, rng):
        depth = rng.uniform(0.5, 8.0, (48, 64))
        d = DepthMap(depth, CAM)
        back = disparity_to_depth(depth_to_disparity(d), CAM)
        assert np.allclose(back.depth, depth, rtol=1e-12, atol=0)

    def test_empty_marker_preserved(self):
        depth = np.full((48, 64), 3.0)
        depth[0, 0] = 0.0
        back = disparity_to_depth(depth_to_disparity(DepthMap(depth, CAM)), CAM)
        assert back.depth[0, 0] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DepthMap(np.full((48, 64), -1.0), CAM)
        with pytest.raises(ValueError):
            Layout(np.full((48, 64), -0.1))


class TestPointClouds:
    def test_all_empty_map(self):
        d = DepthMap(np.zeros((48, 64)), CAM)
        assert depth_to_pointcloud(d).shape == (0, 3)

    def test_constant_plane(self):
        d = DepthMap(np.ones((48, 64)), CAM)
        cloud = depth_to_pointcloud(d)
        assert cloud.shape == (48 * 64, 3)
        assert np.all(cloud[:, 2] == 1.0)

    def test_2x2_hand_computed(self):
        cam = Camera(fx=10.0, fy=20.0, cx=1.0, cy=1.0, width=2, height=2)
        depth = np.array([[1.0, 2.0], [4.0, 0.0]])
        cloud = depth_to_pointcloud(DepthMap(depth, cam))
        expected = np.array([
            backproject(cam, 0.5, 0.5, 1.0),
            backproject(cam, 1.5, 0.5, 2.0),
            backproject(cam, 0.5, 1.5, 4.0),
        ])
        assert np.allclose(cloud, expected)
        assert np.allclose(expected[0], [-0.05, -0.025, 1.0])

    def test_pointcloud_to_voxels_empty(self):
        assert pointcloud_to_voxels(np.zeros((0, 3))).count() == 0

    @pytest.mark.parametrize("shape", [(2, 6), (3, 2), (6,), (0,), (2, 3, 1)])
    def test_pointcloud_to_voxels_needs_n_by_3_points(self, shape):
        # A (2, 6) array is not four points.
        with pytest.raises(ValueError, match=r"\(n, 3\) array"):
            pointcloud_to_voxels(np.full(shape, 0.01))

    def test_known_cell_center(self):
        lo = np.array(DEFAULT_SCENE_SPEC.origin)
        point = lo + np.array([0.04, 0.04, 0.04]) + np.array([0.08, 0.0, 0.16])
        grid = pointcloud_to_voxels(point[None, :])
        assert grid.count() == 1
        assert grid.occupancy[1, 0, 2] == 1.0

    def test_idempotent_same_cell(self):
        p = np.array([[0.01, 0.01, 0.01], [0.02, 0.02, 0.02]])
        assert pointcloud_to_voxels(p).count() == 1

    def test_outside_points_ignored_and_counted(self):
        pts = np.array([[0.0, 0.0, 100.0], [0.0, 0.0, 1.0], [-50.0, 0.0, 1.0]])
        grid = pointcloud_to_voxels(pts)
        assert grid.count() == 1

    def test_voxelized_cloud_cells_contain_points(self, scene_batch):
        scene = scene_batch[1]
        cloud = depth_to_pointcloud(render_depth_analytic(scene))
        grid = pointcloud_to_voxels(cloud)
        idx = np.floor((cloud - np.array(DEFAULT_SCENE_SPEC.origin)) / 0.08).astype(int)
        ok = np.all((idx >= 0) & (idx < np.array(DEFAULT_SCENE_SPEC.dims)), axis=1)
        unique = {tuple(v) for v in idx[ok]}
        assert grid.count() == len(unique)
        for (i, j, k) in unique:
            assert grid.occupancy[i, j, k] == 1.0
