import math

import numpy as np
import pytest

from scenefactor.geometry import quat_to_matrix, random_unit_quaternion
from scenefactor import registration
from scenefactor.registration import (
    NNIndex,
    RigidTransform,
    bbox_diagonal,
    icp,
    kabsch_align,
)


def rotation_angle(Ra, Rb):
    """Angle of the relative rotation ``Ra.T @ Rb``, from its trace."""
    return math.acos(min(1.0, max(-1.0, (np.trace(Ra.T @ Rb) - 1.0) / 2.0)))


def cuboid_surface_cloud(half, rng, n=400):
    """Dense samples on the surface of an axis-aligned box."""
    points = []
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    probs = areas / areas.sum()
    for _ in range(n):
        axis = rng.choice(3, p=probs)
        sign = rng.choice([-1.0, 1.0])
        p = rng.uniform(-1.0, 1.0, 3) * half
        p[axis] = sign * half[axis]
        points.append(p)
    return np.array(points)


class TestNNIndex:
    def test_query_indexed_point(self, rng):
        pts = rng.normal(size=(50, 3))
        index = NNIndex(pts)
        d, i = index.query(pts[17:18])
        assert d[0] == 0.0 and i[0] == 17

    def test_matches_brute_force(self, rng):
        pts = rng.normal(size=(1000, 3))
        queries = rng.normal(size=(100, 3))
        index = NNIndex(pts)
        d, i = index.query(queries)
        for k in range(len(queries)):
            dists = np.linalg.norm(pts - queries[k], axis=1)
            assert i[k] == np.argmin(dists)
            assert d[k] == pytest.approx(dists.min(), rel=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        index = NNIndex(pts)
        d, i = index.query(np.zeros((1, 3)))
        assert d[0] == 1.0 and i[0] == 0
        # Same distances, different insertion order.
        index2 = NNIndex(pts[::-1])
        _, i2 = index2.query(np.zeros((1, 3)))
        assert i2[0] == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NNIndex(np.zeros((0, 3)))

    def test_parallel_query_matches_brute_force_with_ties(self, rng):
        # Integer lattice points in shuffled order and half-integer queries:
        # squared distances are exact, so most queries have exact ties and
        # the answer must be the lowest index among them.
        axis = np.arange(8.0)
        pts = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
        pts = pts[rng.permutation(len(pts))]
        queries = rng.integers(-2, 17, size=(3000, 3)) / 2.0
        d, i = NNIndex(pts).query(queries)
        sq = ((queries[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        ties = (sq == sq.min(axis=1, keepdims=True)).sum(axis=1)
        assert (ties > 1).sum() > 1000
        assert np.array_equal(i, np.argmin(sq, axis=1))
        assert np.allclose(d, np.sqrt(sq.min(axis=1)), rtol=1e-12, atol=0.0)

    def test_tie_missed_by_ball_lookup(self):
        # Default generator seed 105: the voxel-centre cloud's row 1408 is
        # equidistant from depth points 1638 and 1953, and the kd-tree's
        # ball lookup at that distance rounds to an empty set.
        from scenefactor.compare import gt_scene_voxels
        from scenefactor.generator import GeneratorConfig, generate_scene
        from scenefactor.render import depth_to_pointcloud, render_depth_analytic
        from scenefactor.voxels import voxel_centers

        scene = generate_scene(GeneratorConfig(seed=105))
        depth_cloud = depth_to_pointcloud(render_depth_analytic(scene, include_objects=True))
        voxel_cloud = voxel_centers(gt_scene_voxels(scene))
        d, i = NNIndex(depth_cloud).query(voxel_cloud)
        gap = np.linalg.norm(depth_cloud - voxel_cloud[1408], axis=1)
        assert np.flatnonzero(gap == gap.min()).tolist() == [1638, 1953]
        assert i[1408] == 1638
        assert d[1408] == gap.min()


class TestKabsch:
    def test_identity(self, rng):
        pts = rng.normal(size=(20, 3))
        T = kabsch_align(pts, pts)
        assert np.allclose(T.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(T.translation, 0.0, atol=1e-12)

    def test_known_transform_recovered(self, rng):
        src = rng.normal(size=(40, 3))
        R = quat_to_matrix(random_unit_quaternion(rng))
        t = np.array([1.0, -0.3, 0.7])
        dst = src @ R.T + t
        T = kabsch_align(src, dst)
        assert np.allclose(T.rotation, R, atol=1e-9)
        assert np.allclose(T.translation, t, atol=1e-9)
        assert np.allclose(src @ T.rotation.T + T.translation, dst, atol=1e-9)

    def test_30deg_plus_shift_exact(self):
        rng = np.random.default_rng(3)
        src = rng.normal(size=(30, 3))
        angle = math.pi / 6
        R = np.array([
            [math.cos(angle), -math.sin(angle), 0.0],
            [math.sin(angle), math.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ])
        dst = src @ R.T + np.array([1.0, 0.0, 0.0])
        T = kabsch_align(src, dst)
        assert np.allclose(T.rotation, R, atol=1e-9)
        assert np.allclose(T.translation, [1.0, 0.0, 0.0], atol=1e-9)

    def test_noisy_recovery_bounds(self):
        rng = np.random.default_rng(11)
        src = rng.normal(size=(200, 3))
        R = quat_to_matrix(random_unit_quaternion(rng))
        t = rng.normal(size=3)
        dst = src @ R.T + t + rng.normal(scale=0.01, size=(200, 3))
        T = kabsch_align(src, dst)
        rot_err = rotation_angle(T.rotation, R)
        assert rot_err < 0.05
        assert np.linalg.norm(T.translation - t) < 0.05
        residual = np.linalg.norm(src @ T.rotation.T + T.translation - dst, axis=1)
        noise = np.linalg.norm(src @ R.T + t - dst, axis=1)
        assert (residual ** 2).sum() <= (noise ** 2).sum() + 1e-12

    def test_degenerate_flagged(self):
        line = np.stack([np.linspace(0, 1, 10)] * 3, axis=1)
        with pytest.raises(ValueError):
            kabsch_align(line, line + 1.0)
        same = np.zeros((5, 3))
        with pytest.raises(ValueError):
            kabsch_align(same, same)
        with pytest.raises(ValueError):
            kabsch_align(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_reflection_excluded(self, rng):
        src = rng.normal(size=(50, 3))
        dst = src.copy()
        dst[:, 0] = -dst[:, 0]
        T = kabsch_align(src, dst)
        assert np.linalg.det(T.rotation) == pytest.approx(1.0, abs=1e-9)


class TestIcp:
    def test_identical_clouds(self, rng):
        cloud = cuboid_surface_cloud(np.array([0.3, 0.5, 0.8]), rng)
        result = icp(cloud, cloud, size_norm=bbox_diagonal(cloud))
        assert result.fitness == 0.0
        assert result.converged and result.stop == "converged"
        assert np.allclose(result.transform.rotation, np.eye(3), atol=1e-9)

    def test_stop_at_iteration_cap(self, rng, monkeypatch):
        dst = cuboid_surface_cloud(np.array([0.3, 0.5, 0.8]), rng)
        monkeypatch.setattr(registration, "ICP_MAX_ITER", 1)
        result = icp(dst + [0.05, 0.0, 0.0], dst, size_norm=bbox_diagonal(dst))
        assert result.iterations == 1
        assert not result.converged and not result.degenerate
        assert result.stop == "max_iter"

    def test_known_perturbation_recovery(self):
        rng = np.random.default_rng(5)
        dst = cuboid_surface_cloud(np.array([0.3, 0.5, 0.8]), rng, n=600)
        angle = math.radians(10.0)
        R = quat_to_matrix(random_unit_quaternion(rng))
        # Small rotation: interpolate toward identity via axis-angle.
        from scenefactor.geometry import UnitQuaternion

        axis = rng.normal(size=3)
        q = UnitQuaternion.from_axis_angle(axis, angle)
        Rp = quat_to_matrix(q)
        tp = np.array([0.1, 0.0, 0.0])
        src = dst @ Rp.T + tp
        result = icp(src, dst, size_norm=bbox_diagonal(dst))
        # Expected inverse transform.
        R_exp = Rp.T
        t_exp = -Rp.T @ tp
        rot_err = rotation_angle(result.transform.rotation, R_exp)
        assert rot_err < 0.02
        assert np.linalg.norm(result.transform.translation - t_exp) < 0.02
        assert result.fitness < 1e-4

    def test_scaled_cloud_has_residual(self, rng):
        dst = cuboid_surface_cloud(np.array([0.4, 0.4, 0.4]), rng)
        src = dst * 2.0
        result = icp(src, dst, size_norm=bbox_diagonal(dst))
        assert result.fitness > 0.0

    def test_fitness_monotone(self, rng):
        for _ in range(5):
            dst = cuboid_surface_cloud(rng.uniform(0.2, 0.8, 3), rng)
            src = dst @ quat_to_matrix(
                random_unit_quaternion(rng)).T * 1.0 + rng.normal(scale=0.1, size=3)
            result = icp(src, dst, size_norm=bbox_diagonal(dst))
            hist = np.array(result.fitness_history)
            assert np.all(np.diff(hist) <= 1e-15)

    def test_equivariance_under_common_rotation(self):
        rng = np.random.default_rng(9)
        dst = cuboid_surface_cloud(np.array([0.3, 0.5, 0.7]), rng, n=500)
        from scenefactor.geometry import UnitQuaternion

        q = UnitQuaternion.from_axis_angle(rng.normal(size=3), math.radians(8.0))
        src = dst @ quat_to_matrix(q).T + np.array([0.05, -0.02, 0.08])
        base = icp(src, dst, size_norm=1.0)
        R0 = quat_to_matrix(random_unit_quaternion(rng))
        rotated = icp(src @ R0.T, dst @ R0.T, size_norm=1.0)
        conj_R = R0 @ base.transform.rotation @ R0.T
        conj_t = R0 @ base.transform.translation
        assert np.allclose(rotated.transform.rotation, conj_R, atol=1e-6)
        assert np.allclose(rotated.transform.translation, conj_t, atol=1e-6)

    def test_degenerate_correspondences_stop_at_identity(self, rng):
        # Coincident or collinear destinations leave the first Kabsch fit
        # under-determined, so ICP stops there and keeps the identity.
        src = rng.normal(size=(30, 3))
        coincident = np.tile([0.2, -0.1, 1.5], (5, 1))
        collinear = np.outer(np.linspace(-1.0, 1.0, 20), [1.0, 2.0, 0.5])
        for dst in (coincident, collinear):
            result = icp(src, dst, size_norm=1.0)
            assert result.iterations == 1 and not result.converged
            assert result.degenerate and result.stop == "degenerate"
            assert np.array_equal(result.transform.rotation, np.eye(3))
            assert np.array_equal(result.transform.translation, np.zeros(3))
            assert len(result.fitness_history) == 1
            assert result.fitness == result.fitness_history[0] > 0.0

    def test_size_norm_quarters_fitness(self, rng):
        dst = cuboid_surface_cloud(np.array([0.4, 0.3, 0.5]), rng)
        src = dst * 1.3
        a = icp(src, dst, size_norm=1.0)
        b = icp(src, dst, size_norm=2.0)
        assert b.fitness == a.fitness / 4.0

    def test_input_validation(self, rng):
        cloud = rng.normal(size=(10, 3))
        with pytest.raises(ValueError):
            icp(np.zeros((0, 3)), cloud, size_norm=1.0)
        with pytest.raises(ValueError):
            icp(cloud, cloud, size_norm=0.0)

    def test_bbox_diagonal(self):
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        assert bbox_diagonal(pts) == 5.0
        with pytest.raises(ValueError):
            bbox_diagonal(np.zeros((0, 3)))

    def test_rigid_transform_validation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
