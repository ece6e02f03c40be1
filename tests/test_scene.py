import itertools

import numpy as np
import pytest

from scenefactor import generator
from scenefactor.detection import DEFAULT_THRESHOLDS, ApRow, EvalOutcome
from scenefactor.geometry import DEFAULT_CAMERA, Pose, UnitQuaternion
from scenefactor.losses import LossValueGrad
from scenefactor.registration import IcpResult, RigidTransform
from scenefactor.render import DepthMap
from scenefactor.scene import (
    CLASS_LABELS,
    FactoredScene,
    Layout,
    SceneObject,
    compose_scene_voxels,
)
from scenefactor.voxels import Cuboid, VoxelGrid, cuboid_voxelize, resample_to_scene


def make_object(center, half, translation, label=None):
    solid = [Cuboid(center, half)]
    return SceneObject(shape=cuboid_voxelize(solid),
                       pose=Pose(np.ones(3), UnitQuaternion.identity(), translation),
                       class_label=label, solid=tuple(solid))


# The canonical lattice: 32 cells across [-0.5, 0.5].
CELL = 1 / 32


def drawable_solids(kind):
    """The solid of each length combination the generator can draw for
    ``kind``: every lattice multiple inside each length's range."""
    _, build, lengths = generator._CLASSES[kind]
    values = [[k * CELL for k in range(round(lo / CELL), round(hi / CELL) + 1)]
              for lo, hi in lengths.values()]
    return [build(**dict(zip(lengths, combo))) for combo in itertools.product(*values)]


# Length combinations per class, 907 in all.
COMBINATIONS = {"table": 16, "desk": 12, "chair": 252, "bed": 24, "sofa": 600,
                "television": 3}


class TestParametricShapes:
    """The generator's class solids, each one it can draw."""

    @pytest.mark.parametrize("kind,count", [
        ("table", 5), ("desk", 5), ("chair", 6), ("bed", 2), ("sofa", 4), ("television", 1),
    ])
    def test_counts_and_containment(self, kind, count):
        solids = drawable_solids(kind)
        assert len(solids) == COMBINATIONS[kind]
        for cuboids in solids:
            assert len(cuboids) == count
            for c in cuboids:
                faces = np.concatenate(c.bounds) / CELL
                # Inside the unit box, every face on a lattice plane.
                assert np.all(np.abs(faces) <= 16) and np.all(faces == np.round(faces))

    def test_television_thin_panel(self):
        for (panel,) in drawable_solids("television"):
            assert panel.half_extents.min() <= 0.05

    @pytest.mark.parametrize("kind", CLASS_LABELS)
    def test_voxelization_nonempty(self, kind):
        assert cuboid_voxelize(drawable_solids(kind)[0]).count() > 0


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

    def test_empty_solid_rejected_when_built(self):
        # So no scene file with an empty solid, which the reader rejects,
        # can be written.
        obj = make_object((0, 0, 0), (0.5, 0.5, 0.5), np.array([0.0, 0.0, 2.0]))
        with pytest.raises(ValueError, match="solid must hold at least one cuboid"):
            SceneObject(shape=obj.shape, pose=obj.pose, solid=())

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


# Two equal-valued instances of each type that holds arrays.
ARRAY_HOLDERS = {
    "Pose": lambda: Pose(np.ones(3), UnitQuaternion.identity(), np.zeros(3)),
    "Cuboid": lambda: Cuboid((0, 0, 0), (0.5, 0.5, 0.5)),
    "Layout": lambda: Layout(np.full((48, 64), 0.5)),
    "DepthMap": lambda: DepthMap(np.full((48, 64), 2.0), DEFAULT_CAMERA.scaled(64, 48)),
    "SceneObject": lambda: make_object((0, 0, 0), (0.5, 0.5, 0.5), np.array([0.0, 0.0, 2.0])),
    "FactoredScene": lambda: FactoredScene(
        camera=DEFAULT_CAMERA.scaled(64, 48), layout=Layout(np.full((48, 64), 0.5)),
        objects=(make_object((0, 0, 0), (0.5, 0.5, 0.5), np.array([0.0, 0.0, 2.0])),)),
    "RigidTransform": lambda: RigidTransform(np.eye(3), np.zeros(3)),
    "IcpResult": lambda: IcpResult(RigidTransform(np.eye(3), np.zeros(3)), 0.0, 1, "converged",
                                   (0.0,)),
    "LossValueGrad": lambda: LossValueGrad(0.5, np.zeros(3)),
    "EvalOutcome": lambda: EvalOutcome((), np.ones(2), np.ones(2), 1.0, 2),
    "ApRow": lambda: ApRow("all", DEFAULT_THRESHOLDS,
                           EvalOutcome((), np.ones(2), np.ones(2), 1.0, 2)),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(make):
    # A field-wise == would ask an array for its truth value, and a hash
    # would hash an array; these types compare by identity instead.
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and isinstance(hash(b), int)


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
