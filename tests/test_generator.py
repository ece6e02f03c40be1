import numpy as np
import pytest

import scenefactor.generator as generator
from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import apply_pose
from scenefactor.render import depth_to_disparity, render_depth_analytic
from scenefactor.scene import CLASS_LABELS
from scenefactor.voxels import voxel_centers


def scenes_equal(a, b):
    if len(a.objects) != len(b.objects) or a.warnings != b.warnings:
        return False
    if a.camera != b.camera:
        return False
    if not np.array_equal(a.layout.disparity, b.layout.disparity):
        return False
    if not (np.array_equal(a.room.center, b.room.center)
            and np.array_equal(a.room.half_extents, b.room.half_extents)):
        return False
    for oa, ob in zip(a.objects, b.objects):
        if oa.class_label != ob.class_label or oa.box2d != ob.box2d:
            return False
        if not np.array_equal(oa.shape.occupancy, ob.shape.occupancy):
            return False
        if not (np.array_equal(oa.pose.scale, ob.pose.scale)
                and oa.pose.rotation == ob.pose.rotation
                and np.array_equal(oa.pose.translation, ob.pose.translation)):
            return False
    return True


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate_scene(GeneratorConfig(seed=7))
        b = generate_scene(GeneratorConfig(seed=7))
        assert scenes_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_scene(GeneratorConfig(seed=1))
        b = generate_scene(GeneratorConfig(seed=2))
        assert not scenes_equal(a, b)


class TestGeneratedGeometry:
    def test_one_table_entry_per_class(self):
        # tests/test_scene.py::TestParametricShapes draws every entry's solids.
        assert sorted(generator._CLASSES) == list(CLASS_LABELS)

    def test_zero_objects(self):
        scene = generate_scene(GeneratorConfig(seed=0, object_count_range=(0, 0)))
        assert scene.objects == ()
        assert scene.room is not None and scene.layout is not None

    def test_camera_inside_room(self, scene_batch):
        for scene in scene_batch:
            lo, hi = scene.room.bounds
            assert np.all(lo < 0.0) and np.all(hi > 0.0)

    def test_pairwise_world_boxes_disjoint(self, scene_batch):
        # Interval-overlap oracle on world AABBs of the analytic solids.
        for scene in scene_batch:
            boxes = []
            for obj in scene.objects:
                corners = np.concatenate([c.corners() for c in obj.solid])
                world = apply_pose(obj.pose, corners)
                boxes.append((world.min(axis=0), world.max(axis=0)))
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    lo_i, hi_i = boxes[i]
                    lo_j, hi_j = boxes[j]
                    overlap = all(lo_i[k] < hi_j[k] and lo_j[k] < hi_i[k] for k in range(3))
                    assert not overlap

    def test_objects_rest_on_floor(self, scene_batch):
        for scene in scene_batch:
            floor = scene.room.bounds[1][1]
            for obj in scene.objects:
                corners = np.concatenate([c.corners() for c in obj.solid])
                world = apply_pose(obj.pose, corners)
                assert world[:, 1].max() == pytest.approx(floor, abs=1e-9)

    def test_rotations_about_vertical_only(self, scene_batch):
        for scene in scene_batch:
            for obj in scene.objects:
                q = obj.pose.rotation
                assert abs(q.x) < 1e-12 and abs(q.z) < 1e-12

    def test_voxel_centers_inside_room(self, scene_batch):
        for scene in scene_batch:
            lo, hi = scene.room.bounds
            for obj in scene.objects:
                world = apply_pose(obj.pose, voxel_centers(obj.shape))
                assert np.all(world >= lo - 1e-9) and np.all(world <= hi + 1e-9)

    def test_scores_one_and_boxes_present(self, scene_batch):
        for scene in scene_batch:
            for obj in scene.objects:
                assert obj.score == 1.0
                assert obj.box2d is not None
                x0, y0, x1, y1 = obj.box2d
                assert 0 <= x0 < x1 <= scene.camera.width
                assert 0 <= y0 < y1 <= scene.camera.height


class TestGeneratedLayout:
    def test_layout_equals_renderer_bit_for_bit(self, scene_batch):
        for scene in scene_batch:
            rendered = depth_to_disparity(render_depth_analytic(scene, include_objects=False))
            assert np.array_equal(scene.layout.disparity, rendered.disparity)

    def test_layout_matches_closed_form_ray_room(self, scene_batch):
        # Independent per-pixel oracle: nearest positive axis crossing of
        # the ray with the room planes.
        scene = scene_batch[0]
        cam = scene.camera
        lo, hi = scene.room.bounds
        disp = scene.layout.disparity
        rng = np.random.default_rng(1)
        for _ in range(200):
            i = int(rng.integers(cam.height))
            j = int(rng.integers(cam.width))
            d = np.array([(j + 0.5 - cam.cx) / cam.fx, (i + 0.5 - cam.cy) / cam.fy, 1.0])
            t_best = np.inf
            for axis in range(3):
                for bound in (lo[axis], hi[axis]):
                    if d[axis] == 0.0:
                        continue
                    t = bound / d[axis]
                    if t <= 0:
                        continue
                    p = t * d
                    others = [k for k in range(3) if k != axis]
                    if all(lo[k] - 1e-12 <= p[k] <= hi[k] + 1e-12 for k in others):
                        t_best = min(t_best, t)
            assert abs(disp[i, j] - 1.0 / t_best) < 1e-6


class TestPlacementFailure:
    def test_overfull_room_warns_and_returns_fewer(self, monkeypatch):
        monkeypatch.setattr(generator, "MAX_ATTEMPTS", 5)
        scene = generate_scene(GeneratorConfig(seed=3, object_count_range=(12, 12)))
        assert len(scene.objects) < 12
        assert scene.warnings == (
            f"placement failed after 5 attempts; placed {len(scene.objects)} of 12 objects",)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(object_count_range=(3, 2))
        with pytest.raises(ValueError):
            GeneratorConfig(class_mix={"lamp": 1.0})
        with pytest.raises(ValueError):
            GeneratorConfig(class_mix={"bed": 0.0})
        with pytest.raises(ValueError):
            GeneratorConfig(anchor_classes=("wardrobe",))
        with pytest.raises(ValueError):
            GeneratorConfig(object_count_range=(-1, 3))

    def test_config_counts_are_integers_and_weights_numbers(self):
        # Integral floats (JSON "2.0") are counts; booleans and fractions are not.
        config = GeneratorConfig(object_count_range=(1.0, 2), class_mix={"chair": 1})
        assert config.object_count_range == (1, 2)
        assert config.class_mix == {"chair": 1.0}
        for counts in ((True, 2), (1, 2.5), (1, np.float64(2.5)), (0, float("inf"))):
            with pytest.raises(ValueError, match="integers"):
                GeneratorConfig(object_count_range=counts)
        with pytest.raises(ValueError, match="numbers"):
            GeneratorConfig(class_mix={"chair": True})
        # class_mix is left out of the hash but not out of equality.
        same = GeneratorConfig(object_count_range=(1, 2), class_mix={"chair": 1.0})
        assert config == same and hash(config) == hash(same)
        assert config != GeneratorConfig(object_count_range=(1, 2), class_mix={"chair": 2.0})

    def test_anchor_and_tv_cap(self):
        for seed in range(12):
            scene = generate_scene(GeneratorConfig(seed=seed))
            if not scene.objects:
                continue
            assert scene.objects[0].class_label in ("bed", "sofa")
            tvs = sum(o.class_label == "television" for o in scene.objects)
            assert tvs <= 1

    @pytest.mark.parametrize("anchors", [(), ("television",)])
    def test_tv_cap_holds_for_a_television_only_mix(self, anchors):
        scene = generate_scene(GeneratorConfig(
            seed=0, object_count_range=(3, 3), class_mix={"television": 1.0},
            anchor_classes=anchors))
        assert [o.class_label for o in scene.objects] == ["television"]
        assert scene.warnings == (
            "television cap of 1 leaves no class to place; placed 1 of 3 objects",)
