import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import DEFAULT_CAMERA, Pose, UnitQuaternion, random_unit_quaternion, rotation_about_y
from scenefactor.metrics import (
    ComponentErrors,
    box_iou_2d,
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
from scenefactor.voxels import Cuboid, cuboid_voxelize

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
