import math

import numpy as np
import pytest

from scenefactor.geometry import DEFAULT_CAMERA, Camera, Pose, UnitQuaternion, backproject
from scenefactor.render import (
    DepthMap,
    depth_to_disparity,
    depth_to_pointcloud,
    disparity_to_depth,
    pointcloud_to_voxels,
    points_outside_extent,
    render_depth_analytic,
    render_depth_voxel,
    render_surface_ids,
)
from scenefactor.scene import FactoredScene, Layout, SceneObject
from scenefactor.voxels import DEFAULT_SCENE_SPEC, Cuboid, VoxelGrid

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
        assert points_outside_extent(pts) == 2

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
