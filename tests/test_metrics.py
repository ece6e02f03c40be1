import math

import numpy as np
import pytest
from scipy.linalg import logm
from scipy.spatial.distance import cdist

from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import (
    DEFAULT_CAMERA,
    Pose,
    UnitQuaternion,
    quat_to_matrix,
    random_unit_quaternion,
    rotation_about_y,
)
from scenefactor.metrics import (
    ComponentErrors,
    box_iou_2d,
    component_error_matrix,
    component_errors,
    layout_depth_error,
    summarize,
    visible_surface_error,
)
from scenefactor.render import (
    DepthMap,
    disparity_to_depth,
    render_depth_analytic,
    render_surface_ids,
)
from scenefactor.scene import FactoredScene, SceneObject
from scenefactor.voxels import CANONICAL_SPEC, Cuboid, VoxelGrid, cuboid_voxelize

CAM = DEFAULT_CAMERA.scaled(64, 48)


def make_object(pose, half=(0.4, 0.4, 0.4), box2d=None):
    solid = [Cuboid((0, 0, 0), half)]
    return SceneObject(shape=cuboid_voxelize(solid), pose=pose, box2d=box2d, solid=tuple(solid))


class TestComponentErrors:
    def test_identity(self):
        obj = make_object(Pose(np.array([1.0, 2.0, 0.5]), rotation_about_y(0.3),
                               np.array([0.2, 0.1, 2.0])), box2d=(1.0, 2.0, 5.0, 7.0))
        err = component_errors(obj, obj)
        assert err == ComponentErrors(1.0, 0.0, 0.0, 0.0, 1.0)

    def test_scale_doubled(self):
        gt = make_object(Pose(np.ones(3), UnitQuaternion.identity(), np.zeros(3)))
        pred = make_object(Pose(np.full(3, 2.0), UnitQuaternion.identity(), np.zeros(3)))
        err = component_errors(pred, gt)
        assert err.scale_err == pytest.approx(1.0, abs=1e-12)

    def test_rotation_30_about_vertical(self):
        gt = make_object(Pose(np.ones(3), UnitQuaternion.identity(), np.zeros(3)))
        pred = make_object(Pose(np.ones(3), rotation_about_y(math.pi / 6), np.zeros(3)))
        err = component_errors(pred, gt)
        assert err.rot_err == pytest.approx(math.pi / 6, abs=1e-9)

    def test_translation_euclidean(self):
        gt = make_object(Pose(np.ones(3), UnitQuaternion.identity(), np.zeros(3)))
        pred = make_object(Pose(np.ones(3), UnitQuaternion.identity(),
                                np.array([3.0, 0.0, 4.0])))
        assert component_errors(pred, gt).trans_err == pytest.approx(5.0)

    def test_box_none_when_missing(self):
        gt = make_object(Pose.identity())
        assert component_errors(gt, gt).box_iou is None

    def test_symmetry_and_triangle(self, rng):
        poses = [Pose(rng.uniform(0.3, 3.0, 3), random_unit_quaternion(rng), rng.normal(size=3))
                 for _ in range(3)]
        objs = [make_object(p) for p in poses]
        errs = {}
        for i in range(3):
            for j in range(3):
                errs[(i, j)] = component_errors(objs[i], objs[j])
        for i in range(3):
            for j in range(3):
                assert errs[(i, j)].rot_err == pytest.approx(errs[(j, i)].rot_err, abs=1e-12)
                assert errs[(i, j)].trans_err == errs[(j, i)].trans_err
                assert errs[(i, j)].scale_err == pytest.approx(errs[(j, i)].scale_err, abs=1e-12)
        for field in ("rot_err", "trans_err", "scale_err"):
            d = lambda i, j: getattr(errs[(i, j)], field)
            assert d(0, 2) <= d(0, 1) + d(1, 2) + 1e-9

    def test_scale_common_factor_invariance(self, rng):
        a = rng.uniform(0.3, 3.0, 3)
        b = rng.uniform(0.3, 3.0, 3)
        factor = 3.7
        base = component_errors(
            make_object(Pose(a, UnitQuaternion.identity(), np.zeros(3))),
            make_object(Pose(b, UnitQuaternion.identity(), np.zeros(3))))
        scaled = component_errors(
            make_object(Pose(a * factor, UnitQuaternion.identity(), np.zeros(3))),
            make_object(Pose(b * factor, UnitQuaternion.identity(), np.zeros(3))))
        assert scaled.scale_err == pytest.approx(base.scale_err, abs=1e-12)


UNIT_BOX = cuboid_voxelize([Cuboid((0, 0, 0), (0.4, 0.4, 0.4))])


def rot_err(a, b):
    """``component_errors(...).rot_err`` of two objects that differ only in
    rotation."""
    pred, gt = (SceneObject(shape=UNIT_BOX, pose=Pose(np.ones(3), q, np.zeros(3)))
                for q in (a, b))
    return component_errors(pred, gt).rot_err


def log_geodesic(qa, qb):
    """Matrix-logarithm rotation distance oracle."""
    rel = quat_to_matrix(qa).T @ quat_to_matrix(qb)
    return np.linalg.norm(logm(rel), "fro") / math.sqrt(2.0)


class TestRotationError:
    def test_identical(self, rng):
        q = random_unit_quaternion(rng)
        assert rot_err(q, q) == 0.0

    def test_30_degrees(self):
        q = rotation_about_y(math.pi / 6)
        assert abs(rot_err(UnitQuaternion.identity(), q) - math.pi / 6) < 1e-9

    def test_antipodal_same_rotation(self, rng):
        q = random_unit_quaternion(rng)
        assert rot_err(q, UnitQuaternion(*-q.as_array())) == 0.0

    def test_range_and_symmetry(self, rng):
        for _ in range(200):
            a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
            d = rot_err(a, b)
            assert 0.0 <= d <= math.pi + 1e-12
            assert d == rot_err(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            a, b, c = (random_unit_quaternion(rng) for _ in range(3))
            assert rot_err(a, c) <= rot_err(a, b) + rot_err(b, c) + 1e-12

    def test_matches_matrix_log_form(self, rng):
        worst = 0.0
        for _ in range(1000):
            a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
            worst = max(worst, abs(rot_err(a, b) - log_geodesic(a, b)))
        assert worst < 1e-7


def scalar_errors(pred, gt):
    """The per-pair formulas that ``component_error_matrix`` replaced: the
    oracle for its bits."""
    a, b = pred.shape.occupied, gt.shape.occupied
    inter, union = int((a & b).sum()), int((a | b).sum())
    shape_iou = 1.0 if union == 0 else inter / union
    av, bv = pred.pose.rotation.as_array(), gt.pose.rotation.as_array()
    chord = min(float(np.linalg.norm(av - bv)), float(np.linalg.norm(av + bv)))
    rot = 4.0 * math.asin(min(1.0, 0.5 * chord))
    trans = float(np.linalg.norm(pred.pose.translation - gt.pose.translation))
    scale = float(np.mean(np.abs(np.log2(pred.pose.scale) - np.log2(gt.pose.scale))))
    box = None if pred.box2d is None or gt.box2d is None else box_iou_2d(pred.box2d, gt.box2d)
    return shape_iou, rot, trans, scale, box


def assert_matrix_matches_scalar(preds, gts):
    matrix = component_error_matrix(preds, gts)
    assert len(matrix) == len(preds) and all(len(row) == len(gts) for row in matrix)
    for pred, row in zip(preds, matrix):
        for gt, err in zip(gts, row):
            got = (err.shape_iou, err.rot_err, err.trans_err, err.scale_err, err.box_iou)
            assert got == scalar_errors(pred, gt)
            assert all(type(v) is float for v in got if v is not None)


class TestComponentErrorMatrix:
    def random_object(self, rng, shape=None, box2d=None, pose=None):
        if shape is None:
            shape = VoxelGrid.canonical(rng.random(CANONICAL_SPEC.dims) < rng.uniform(0.05, 0.9))
        if pose is None:
            pose = Pose(rng.uniform(0.3, 3.0, 3), random_unit_quaternion(rng),
                        rng.normal(scale=3.0, size=3))
        return SceneObject(shape=shape, pose=pose, box2d=box2d)

    def test_every_cell_matches_the_scalar_formulas(self, rng):
        boxes = [None, (0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 2.0, 1.0), (2.0, 2.0, 3.0, 3.0),
                 (0.5, 0.25, 1.5, 3.0)]
        gts = [self.random_object(rng, box2d=boxes[i % len(boxes)]) for i in range(9)]
        empty = VoxelGrid.canonical(np.zeros(CANONICAL_SPEC.dims))
        gts.append(self.random_object(rng, shape=empty))
        preds = [self.random_object(rng, box2d=boxes[i % len(boxes)]) for i in range(20)]
        for gt in gts[:4]:
            pose = gt.pose
            preds.append(gt)  # identical pose, shape and box
            flipped = UnitQuaternion(*-pose.rotation.as_array())  # -q: the same rotation
            preds.append(self.random_object(rng, box2d=gt.box2d, pose=Pose(
                pose.scale, flipped, pose.translation)))
            near = UnitQuaternion.normalized(
                pose.rotation.as_array() + rng.normal(scale=1e-9, size=4))
            preds.append(self.random_object(rng, pose=Pose(pose.scale * 1.001, near,
                                                           pose.translation + 1e-12)))
        preds.append(self.random_object(rng, shape=empty))  # empty vs empty: IoU 1.0
        assert_matrix_matches_scalar(preds, gts)
        assert component_error_matrix(preds, gts)[-1][-1].shape_iou == 1.0
        flipped = component_error_matrix([preds[21]], [gts[0]])[0][0]
        assert flipped.rot_err == 0.0

    def test_box_iou_cases(self, rng):
        gts = [self.random_object(rng, box2d=(0.0, 0.0, 1.0, 1.0))]
        touching, disjoint = (1.0, 0.0, 2.0, 1.0), (2.0, 2.0, 3.0, 3.0)
        preds = [self.random_object(rng, box2d=b) for b in (touching, disjoint, None)]
        assert [row[0].box_iou for row in component_error_matrix(preds, gts)] == [0.0, 0.0, None]
        assert_matrix_matches_scalar(preds, gts)

    def test_one_by_one_is_component_errors(self, rng):
        pred, gt = self.random_object(rng), self.random_object(rng)
        assert component_errors(pred, gt) == component_error_matrix([pred], [gt])[0][0]

    def test_empty_sides(self, rng):
        objs = [self.random_object(rng) for _ in range(2)]
        assert component_error_matrix([], objs) == []
        assert component_error_matrix(objs, []) == [[], []]


class TestBoxIou:
    def test_identical(self):
        assert box_iou_2d((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert box_iou_2d((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0

    def test_half_overlap_area_arithmetic(self):
        # Contained box: intersection 2, union 4.
        assert box_iou_2d((0, 0, 4, 1), (1, 0, 3, 1)) == 0.5


class TestSummarize:
    def test_example(self):
        s = summarize([0.1, 0.2, 0.9], 0.5, "below")
        assert s.median == 0.2
        assert s.fraction_within == pytest.approx(2 / 3)

    def test_all_equal(self):
        assert summarize([0.4, 0.4, 0.4, 0.4], 1.0, "below").median == 0.4

    def test_strict_boundary(self):
        assert summarize([0.5], 0.5, "below").fraction_within == 0.0
        assert summarize([0.5], 0.5, "above").fraction_within == 0.0

    def test_even_length_lower_middle(self):
        assert summarize([1.0, 2.0, 3.0, 4.0], 10.0, "below").median == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([], 0.5)


class TestVisibleSurfaceError:
    def test_subset_is_zero(self, rng):
        gt = rng.normal(size=(50, 3))
        assert visible_surface_error(gt[:20], gt) == 0.0

    def test_translated_plane(self, rng):
        xs, zs = np.meshgrid(np.linspace(0, 1, 30), np.linspace(0, 1, 30))
        gt = np.stack([xs.ravel(), np.zeros(xs.size), zs.ravel()], axis=1)
        pred = gt + np.array([0.1, 0.0, 0.0])
        err = visible_surface_error(pred, gt)
        assert 0.0 < err <= 0.1 + 1e-12

    def test_single_points(self):
        assert visible_surface_error(np.array([[0.0, 0.0, 0.0]]),
                                     np.array([[1.0, 0.0, 0.0]])) == 1.0

    def test_empty_pred_is_inf(self):
        assert visible_surface_error(np.zeros((0, 3)), np.ones((3, 3))) == math.inf

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            visible_surface_error(np.ones((3, 3)), np.zeros((0, 3)))

    @pytest.mark.parametrize("shape", [(2, 6), (3, 2), (6,), (0,), (2, 3, 1)])
    def test_clouds_must_be_n_by_3(self, shape):
        # A (2, 6) array is not four points, on either side.
        cloud, bad = np.ones((4, 3)), np.ones(shape)
        for pred, gt in [(bad, cloud), (cloud, bad)]:
            with pytest.raises(ValueError, match=r"\(n, 3\) array"):
                visible_surface_error(pred, gt)

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            pred = rng.normal(size=(120, 3))
            gt = rng.normal(size=(150, 3))
            brute = cdist(pred, gt).min(axis=1).mean()
            assert abs(visible_surface_error(pred, gt) - brute) < 1e-9


class TestLayoutDepthError:
    def test_amodal_self_is_zero(self, scene_batch):
        scene = scene_batch[0]
        pred = render_depth_analytic(scene, include_objects=False)
        assert layout_depth_error(pred, scene, "amodal") == 0.0

    def test_factored_layout_amodal_zero(self, scene_batch):
        # Reading depth back out of the stored disparity costs one float64
        # reciprocal round trip (about 1 ulp), hence the 1e-12 bound.
        scene = scene_batch[0]
        pred = disparity_to_depth(scene.layout, scene.camera)
        assert layout_depth_error(pred, scene, "amodal") <= 1e-12

    def test_modal_render_positive_amodal_error(self, scene_batch):
        # A visible-depth prediction hides walls behind objects, so its
        # amodal layout error is strictly positive when anything occludes.
        for scene in scene_batch:
            _, ids = render_surface_ids(scene)
            if not (ids >= 0).any():
                continue
            pred = render_depth_analytic(scene, include_objects=True)
            assert layout_depth_error(pred, scene, "amodal") > 0.0
            assert layout_depth_error(pred, scene, "modal") == 0.0

    def test_empty_room_modes_agree(self):
        scene = generate_scene(GeneratorConfig(seed=5, object_count_range=(0, 0)))
        pred_depth = np.full((scene.camera.height, scene.camera.width), 2.0)
        pred = DepthMap(pred_depth, scene.camera)
        assert layout_depth_error(pred, scene, "modal") == \
            layout_depth_error(pred, scene, "amodal")

    def test_camera_mismatch_rejected(self, scene_batch):
        scene = scene_batch[0]
        other = DepthMap(np.ones((48, 64)), DEFAULT_CAMERA.scaled(64, 48).scaled(64, 48))
        bad = DepthMap(np.ones((24, 32)), DEFAULT_CAMERA.scaled(32, 24))
        with pytest.raises(ValueError):
            layout_depth_error(bad, scene)
        with pytest.raises(ValueError):
            layout_depth_error(other, scene, "sideways")
