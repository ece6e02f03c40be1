import numpy as np
import pytest

from scenefactor.geometry import DEFAULT_CAMERA, Pose, UnitQuaternion
from scenefactor.scene import (
    CLASS_LABELS,
    FactoredScene,
    Layout,
    SceneObject,
    compose_scene_voxels,
    parametric_shape,
)
from scenefactor.voxels import Cuboid, VoxelGrid, cuboid_voxelize, resample_to_scene


def make_object(center, half, translation, label=None):
    solid = [Cuboid(center, half)]
    return SceneObject(shape=cuboid_voxelize(solid),
                       pose=Pose(np.ones(3), UnitQuaternion.identity(), translation),
                       class_label=label, solid=tuple(solid))


class TestParametricShapes:
    @pytest.mark.parametrize("kind,count", [
        ("table", 5), ("desk", 5), ("chair", 6), ("bed", 2), ("sofa", 4), ("television", 1),
    ])
    def test_counts_and_containment(self, kind, count):
        cuboids = parametric_shape(kind)
        assert len(cuboids) == count
        for c in cuboids:
            lo, hi = c.bounds
            assert lo.min() >= -0.5 - 1e-12
            assert hi.max() <= 0.5 + 1e-12

    def test_table_example_params(self):
        cuboids = parametric_shape("table", top_thickness=0.1, leg_width=0.06)
        assert len(cuboids) == 5

    def test_television_thin_panel(self):
        (panel,) = parametric_shape("television")
        assert panel.half_extents.min() <= 0.05

    @pytest.mark.parametrize("kind", CLASS_LABELS)
    def test_voxelization_nonempty(self, kind):
        assert cuboid_voxelize(parametric_shape(kind)).count() > 0

    def test_out_of_range_params_rejected(self):
        with pytest.raises(ValueError):
            parametric_shape("table", top_thickness=0.4)
        with pytest.raises(ValueError):
            parametric_shape("television", panel_thickness=0.2)
        with pytest.raises(ValueError):
            parametric_shape("wardrobe")
        with pytest.raises(ValueError):
            parametric_shape("chair", armrest=0.1)


class TestSceneTypes:
    def test_layout_validation(self):
        with pytest.raises(ValueError):
            Layout(np.full((4, 4), -0.5))
        with pytest.raises(ValueError):
            Layout(np.full((4, 4), np.nan))
        layout = Layout(np.full((48, 64), 0.5))
        assert (layout.height, layout.width) == (48, 64)

    def test_object_validation(self):
        shape = VoxelGrid.canonical(np.zeros((32, 32, 32)))
        pose = Pose.identity()
        with pytest.raises(ValueError):
            SceneObject(shape=shape, pose=pose, score=1.5)
        with pytest.raises(ValueError):
            SceneObject(shape=shape, pose=pose, class_label="lamp")
        with pytest.raises(ValueError):
            SceneObject(shape=shape, pose=pose, box2d=(10.0, 5.0, 10.0, 20.0))
        with pytest.raises(ValueError):
            SceneObject(shape=VoxelGrid.scene(np.zeros((64, 32, 64))), pose=pose)

    def test_scene_layout_camera_mismatch(self):
        cam = DEFAULT_CAMERA.scaled(64, 48)
        with pytest.raises(ValueError):
            FactoredScene(camera=cam, layout=Layout(np.ones((10, 10))))

    def test_scene_box_bounds(self):
        cam = DEFAULT_CAMERA.scaled(64, 48)
        obj = make_object((0, 0, 0), (0.5, 0.5, 0.5), np.array([0.0, 0.0, 2.0]))
        bad = SceneObject(shape=obj.shape, pose=obj.pose, box2d=(0.0, 0.0, 100.0, 10.0))
        with pytest.raises(ValueError):
            FactoredScene(camera=cam, objects=(bad,))


class TestComposeSceneVoxels:
    def test_empty_scene(self):
        scene = FactoredScene(camera=DEFAULT_CAMERA.scaled(64, 48))
        assert compose_scene_voxels(scene).count() == 0

    def test_single_object_matches_resample(self):
        obj = make_object((0, 0, 0), (0.5, 0.5, 0.5), np.array([0.0, 0.0, 2.56]))
        scene = FactoredScene(camera=DEFAULT_CAMERA.scaled(64, 48), objects=(obj,))
        composed = compose_scene_voxels(scene)
        alone = resample_to_scene(obj.shape, obj.pose)
        assert composed == alone

    def test_disjoint_objects_counts_add(self):
        a = make_object((0, 0, 0), (0.4, 0.4, 0.4), np.array([-1.2, 0.0, 2.0]))
        b = make_object((0, 0, 0), (0.4, 0.4, 0.4), np.array([1.2, 0.0, 3.5]))
        scene = FactoredScene(camera=DEFAULT_CAMERA.scaled(64, 48), objects=(a, b))
        composed = compose_scene_voxels(scene)
        na = resample_to_scene(a.shape, a.pose).count()
        nb = resample_to_scene(b.shape, b.pose).count()
        assert composed.count() == na + nb

    def test_permutation_invariant(self, scene_batch):
        scene = scene_batch[0]
        reversed_scene = FactoredScene(camera=scene.camera,
                                       objects=tuple(reversed(scene.objects)),
                                       layout=scene.layout, room=scene.room)
        assert compose_scene_voxels(scene) == compose_scene_voxels(reversed_scene)
