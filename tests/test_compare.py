import threading

import numpy as np
import pytest

import scenefactor.compare as compare
import scenefactor.registration as registration
from scenefactor.compare import REPRESENTATIONS, compare_representations, gt_scene_voxels
from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import apply_pose
from scenefactor.registration import IcpResult, RigidTransform, bbox_diagonal, icp
from scenefactor.render import depth_to_pointcloud, render_depth_analytic, render_depth_voxel
from scenefactor.voxels import voxel_centers


@pytest.fixture(scope="module")
def two_object_scene():
    scene = generate_scene(GeneratorConfig(seed=3, object_count_range=(2, 2), anchor_classes=(),
                                           class_mix={"chair": 1.0, "desk": 1.0, "table": 1.0}))
    assert len(scene.objects) == 2
    return scene


def representation_clouds(scene):
    return {
        "factored": depth_to_pointcloud(render_depth_voxel(scene)),
        "depth": depth_to_pointcloud(render_depth_analytic(scene, include_objects=True)),
        "voxels": voxel_centers(gt_scene_voxels(scene)),
    }


def icp_threads():
    return [t for t in threading.enumerate() if t.name.startswith("scenefactor-icp")]


def test_pooled_fitness_rows_equal_serial_icp(two_object_scene, monkeypatch):
    # A few iterations exercise the pool and its ordering without full ICP cost.
    monkeypatch.setattr(registration, "ICP_MAX_ITER", 4)
    clouds = representation_clouds(two_object_scene)
    expected = []
    for index, obj in enumerate(two_object_scene.objects):
        src = apply_pose(obj.pose, voxel_centers(obj.shape))
        size = bbox_diagonal(src)
        for rep in REPRESENTATIONS:
            result = icp(src, clouds[rep], size_norm=size)
            expected.append((index, rep, result.fitness))
    rows = compare_representations(two_object_scene, "s3")
    got = [(r.object_index, r.representation, r.value)
           for r in rows if r.task == "object_fitness"]
    assert got == expected


def test_registration_error_propagates_and_pool_drains(two_object_scene, monkeypatch):
    depth_cloud = representation_clouds(two_object_scene)["depth"]

    def flaky_icp(src, dst, size_norm):
        if np.array_equal(dst, depth_cloud):
            raise RuntimeError("registration failed")
        return IcpResult(RigidTransform.identity(), 0.0, 1, True, (0.0,))

    monkeypatch.setattr(compare, "icp", flaky_icp)
    with pytest.raises(RuntimeError, match="registration failed"):
        compare_representations(two_object_scene, "s3")
    for thread in icp_threads():
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in icp_threads())
