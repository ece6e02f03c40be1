import math

import numpy as np
import pytest

from scenefactor.geometry import quat_to_matrix, random_unit_quaternion
from scenefactor import registration
from scenefactor.registration import (
    IcpResult,
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
        d, c, _ = index.query(pts[17:18])
        assert d[0] == 0.0 and c[0, 0] == 17

    def test_matches_brute_force(self, rng):
        pts = rng.normal(size=(1000, 3))
        queries = rng.normal(size=(100, 3))
        index = NNIndex(pts)
        d, c, third = index.query(queries)
        for k in range(len(queries)):
            dists = np.linalg.norm(pts - queries[k], axis=1)
            order = np.argsort(dists)
            assert c[k].tolist() == order[:2].tolist()
            assert d[k] == pytest.approx(dists[order[0]], rel=1e-12)
            assert third[k] == pytest.approx(dists[order[2]], rel=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        # Three-way tie: the ball lookup decides.
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        index = NNIndex(pts)
        d, c, third = index.query(np.zeros((1, 3)))
        assert d[0] == 1.0 and c[0, 0] == 0 and c[0, 1] in (1, 2) and third[0] == 1.0
        # Same distances, different insertion order.
        index2 = NNIndex(pts[::-1])
        _, c2, _ = index2.query(np.zeros((1, 3)))
        assert c2[0, 0] == 0 and c2[0, 1] in (1, 2)

    def test_two_way_tie_breaks_to_lowest_index(self):
        # Two tied points and a farther third: no ball lookup.
        pts = np.array([[0.0, 3.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        for order in ([0, 1, 2], [0, 2, 1]):
            d, c, third = NNIndex(pts[order]).query(np.zeros((1, 3)))
            assert d[0] == 1.0 and c[0].tolist() == [1, 2] and third[0] == 3.0

    def test_tie_missed_by_every_ball_point(self):
        # Four points at (+-x, +-y, z) are tied from the origin, and for this
        # draw the ball lookup at their rounded distance finds none of them.
        x, y, z = np.random.default_rng(0).uniform(0.1, 1.0, size=(8, 3))[7]
        tied = np.array([[x, y, z], [-x, y, z], [x, -y, z], [-x, -y, z]])
        pts = np.concatenate([[[3.0, 3.0, 3.0], [0.0, 0.0, 2.0]], tied])
        index = NNIndex(pts)
        d, c, third = index.query(np.zeros((1, 3)))
        assert index._tree.query_ball_point(np.zeros(3), r=d[0]) == []
        assert c[0, 0] == 2 and c[0, 1] in (3, 4, 5) and third[0] == d[0]
        assert d[0] == registration._norms(tied[0])

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
        d, c, third = NNIndex(pts).query(queries)
        sq = ((queries[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        ties = (sq == sq.min(axis=1, keepdims=True)).sum(axis=1)
        assert (ties > 1).sum() > 1000
        assert (ties > 2).sum() > 500
        assert np.array_equal(c[:, 0], np.argmin(sq, axis=1))
        assert np.allclose(d, np.sqrt(sq.min(axis=1)), rtol=1e-12, atol=0.0)
        # The second candidate is a second-nearest point, and the third
        # distance is the third-nearest one.
        rows = np.arange(len(queries))
        ranked = np.sort(sq, axis=1)
        assert np.all(c[:, 1] != c[:, 0])
        assert np.array_equal(sq[rows, c[:, 1]], ranked[:, 1])
        assert np.allclose(third, np.sqrt(ranked[:, 2]), rtol=1e-12, atol=0.0)

    def test_tie_missed_by_ball_lookup(self):
        # Default generator seed 105: the voxel-centre cloud's row 1408 is
        # equidistant from depth points 1638 and 1953 only, and the
        # kd-tree's ball lookup at that distance rounds to an empty set.
        # A two-way tie is now settled from the k=3 query alone.
        from scenefactor.compare import gt_scene_voxels
        from scenefactor.generator import GeneratorConfig, generate_scene
        from scenefactor.render import depth_to_pointcloud, render_depth_analytic
        from scenefactor.voxels import voxel_centers

        scene = generate_scene(GeneratorConfig(seed=105))
        depth_cloud = depth_to_pointcloud(render_depth_analytic(scene, include_objects=True))
        voxel_cloud = voxel_centers(gt_scene_voxels(scene))
        d, c, third = NNIndex(depth_cloud).query(voxel_cloud)
        gap = np.linalg.norm(depth_cloud - voxel_cloud[1408], axis=1)
        assert np.flatnonzero(gap == gap.min()).tolist() == [1638, 1953]
        assert c[1408].tolist() == [1638, 1953]
        assert d[1408] == gap.min() < third[1408]

    def test_one_point_index_has_no_second_neighbour(self):
        d, c, third = NNIndex(np.array([[1.0, 2.0, 2.0]])).query(np.zeros((2, 3)))
        assert d.tolist() == [3.0, 3.0] and c.tolist() == [[0, 0], [0, 0]]
        assert third.tolist() == [math.inf, math.inf]

    def test_two_point_index_has_no_third_neighbour(self):
        pts = np.array([[0.0, 0.0, 5.0], [1.0, 2.0, 2.0]])
        d, c, third = NNIndex(pts).query(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 6.0]]))
        assert d.tolist() == [3.0, 1.0] and c.tolist() == [[1, 0], [0, 1]]
        assert third.tolist() == [math.inf, math.inf]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_distances_are_norms_summed_in_xyz_order(self, rng, scale):
        # ICP recomputes the distance of a kept answer with _norms; the
        # results are exact only while that equals the kd-tree bit for bit.
        pts = rng.normal(size=(2000, 3)) * scale
        queries = rng.normal(size=(20000, 3)) * scale
        d, c, _ = NNIndex(pts).query(queries)
        assert np.array_equal(d, registration._norms(pts[c[:, 0]] - queries))

    def test_lattice_distances_are_norms_summed_in_xyz_order(self, rng):
        axis = np.arange(10.0) / 16.0
        pts = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
        pts = pts[rng.permutation(len(pts))]
        # Cell centres and cell corners, so many answers are exact ties.
        half_cells = rng.integers(-6, 26, size=(5000, 3)) / 32.0
        d, c, _ = NNIndex(pts).query(half_cells)
        assert (registration._norms(pts[c[:, 1]] - half_cells) == d).sum() > 1000
        assert np.array_equal(d, registration._norms(pts[c[:, 0]] - half_cells))
        off_lattice = rng.uniform(-0.2, 0.8, size=(5000, 3))
        d, c, _ = NNIndex(pts).query(off_lattice)
        assert np.array_equal(d, registration._norms(pts[c[:, 0]] - off_lattice))


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
        assert not result.converged and result.stop == "max_iter"

    def test_stop_names_one_known_reason(self):
        identity = RigidTransform(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="unknown ICP stop"):
            IcpResult(identity, 0.0, 1, "stalled", (0.0,))

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
            assert result.stop == "degenerate"
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


def reference_icp(src, dst, size_norm):
    """ICP that queries every source point on every iteration: the loop
    that ``icp`` reproduces while skipping the queries whose answer cannot
    change."""
    index = NNIndex(dst)
    norm2 = size_norm * size_norm
    src_mean = src.mean(axis=0)
    src_centered = src - src_mean
    rotation, translation = np.eye(3), np.zeros(3)

    def fitness_of(R, t):
        d, c, _ = index.query(src @ R.T + t)
        return float(np.mean(d * d)) / norm2, dst[c[:, 0]]

    fitness, corr = fitness_of(rotation, translation)
    history = [fitness]
    stop = "max_iter"
    iterations = 0
    for _ in range(registration.ICP_MAX_ITER):
        iterations += 1
        try:
            R, t = registration._kabsch(src_centered, src_mean, corr)
        except ValueError:
            stop = "degenerate"
            break
        new_fitness, new_corr = fitness_of(R, t)
        if new_fitness > fitness:
            stop = "converged"
            break
        improvement = (fitness - new_fitness) / max(fitness, 1e-300)
        rotation, translation, fitness, corr = R, t, new_fitness, new_corr
        history.append(fitness)
        if improvement < registration.ICP_REL_TOL:
            stop = "converged"
            break
    return IcpResult(transform=RigidTransform(rotation, translation), fitness=fitness,
                     iterations=iterations, stop=stop, fitness_history=tuple(history))


def result_bits(result):
    """Every field of an IcpResult, floats as their bytes."""
    return (result.transform.rotation.tobytes(), result.transform.translation.tobytes(),
            np.float64(result.fitness).tobytes(),
            np.array(result.fitness_history, dtype=np.float64).tobytes(),
            result.iterations, result.stop)


def scene_registrations(scene):
    """(src, dst, size_norm) of every registration compare_representations
    runs on ``scene``."""
    from scenefactor.compare import gt_scene_voxels
    from scenefactor.geometry import apply_pose
    from scenefactor.render import depth_to_pointcloud, render_depth_analytic, render_depth_voxel
    from scenefactor.voxels import voxel_centers

    clouds = [depth_to_pointcloud(render_depth_voxel(scene)),
              depth_to_pointcloud(render_depth_analytic(scene, include_objects=True)),
              voxel_centers(gt_scene_voxels(scene))]
    jobs = []
    for obj in scene.objects:
        src = apply_pose(obj.pose, voxel_centers(obj.shape))
        jobs.extend((src, cloud, bbox_diagonal(src)) for cloud in clouds if len(cloud))
    return jobs


@pytest.fixture
def queried_points(monkeypatch):
    """Count the points passed to NNIndex.query."""
    count = [0]
    query = NNIndex.query

    def counted(self, queries):
        count[0] += len(queries)
        return query(self, queries)

    monkeypatch.setattr(NNIndex, "query", counted)
    return count


class TestIcpMatchesFullQueries:
    """icp skips nearest-neighbor queries whose answer cannot change; every
    result must equal, bit for bit, that of querying every point."""

    def assert_matches(self, jobs, queried_points):
        saved = []
        for src, dst, size in jobs:
            before = queried_points[0]
            want = reference_icp(src, dst, size)
            full = queried_points[0] - before
            got = icp(src, dst, size)
            issued = queried_points[0] - before - full
            saved.append(1.0 - issued / full)
            assert result_bits(got) == result_bits(want)
        return saved

    def test_piece_scenes(self, queried_points):
        from scenefactor.generator import GeneratorConfig, generate_scene

        jobs = []
        for seed in (11, 12):
            config = GeneratorConfig(seed=seed, object_count_range=(1, 1), anchor_classes=(),
                                     class_mix={"chair": 1.0, "desk": 1.0, "table": 1.0})
            jobs += scene_registrations(generate_scene(config))
        assert len(jobs) == 6
        saved = self.assert_matches(jobs, queried_points)
        # The reuse is what makes icp fast: most queries are skipped.
        assert min(saved) > 0.7

    def test_run_capped_at_max_iter(self, queried_points):
        # The television of default scene 41 stops at the cap against the
        # factored and depth clouds.
        from scenefactor.generator import GeneratorConfig, generate_scene

        jobs = scene_registrations(generate_scene(GeneratorConfig(seed=41)))[3:5]
        assert [icp(*job).stop for job in jobs] == ["max_iter", "max_iter"]
        self.assert_matches(jobs, queried_points)

    def test_one_television_scene(self, queried_points):
        from scenefactor.generator import GeneratorConfig, generate_scene

        config = GeneratorConfig(seed=7, object_count_range=(1, 1), anchor_classes=(),
                                 class_mix={"television": 1.0})
        jobs = scene_registrations(generate_scene(config))
        assert len(jobs) == 3
        self.assert_matches(jobs, queried_points)

    def test_degenerate_and_one_point_destinations(self, rng, queried_points):
        src = rng.normal(size=(30, 3))
        coincident = np.tile([0.2, -0.1, 1.5], (5, 1))
        collinear = np.outer(np.linspace(-1.0, 1.0, 20), [1.0, 2.0, 0.5])
        one_point = np.array([[0.3, 0.1, -0.4]])
        jobs = [(src, dst, 1.0) for dst in (coincident, collinear, one_point)]
        assert {icp(*job).stop for job in jobs} == {"degenerate"}
        self.assert_matches(jobs, queried_points)

    def test_two_point_destination(self, rng, queried_points):
        # Two dst points give an infinite third distance; the correspondences
        # are collinear, so the first fit is degenerate.
        src = rng.normal(size=(30, 3))
        dst = np.array([[0.5, 0.0, 0.0], [-0.5, 0.2, 0.1]])
        before = queried_points[0]
        assert icp(src, dst, 1.0).stop == "degenerate"
        assert queried_points[0] - before == len(src)
        self.assert_matches([(src, dst, 1.0)], queried_points)

    def test_lattice_with_exact_ties(self, rng, queried_points):
        # src and dst are cell centres of one lattice with power-of-two
        # spacing, so distances are exact and many start out tied.
        axis = np.arange(8.0) / 16.0
        lattice = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
        src = lattice[rng.random(len(lattice)) < 0.5]
        dst = lattice[rng.random(len(lattice)) < 0.5] + [1.0 / 16.0, 0.0, 2.0 / 16.0]
        d, c, _ = NNIndex(dst).query(src)
        assert (registration._norms(dst[c[:, 1]] - src) == d).sum() > len(src) / 4
        self.assert_matches([(src, dst, bbox_diagonal(src))], queried_points)

    def test_lattice_with_three_way_ties(self, rng, queried_points):
        # dst sits half a cell off src on every axis, so a src point starts
        # out equidistant from up to eight dst points: the ball lookup
        # settles those queries.
        axis = np.arange(8.0) / 16.0
        lattice = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
        src = lattice[rng.random(len(lattice)) < 0.5]
        dst = lattice[rng.random(len(lattice)) < 0.5] + 1.0 / 32.0
        d, _, third = NNIndex(dst).query(src)
        assert (third <= d).sum() > len(src) / 4
        self.assert_matches([(src, dst, bbox_diagonal(src))], queried_points)
