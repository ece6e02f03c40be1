import dataclasses
import math
import os
import threading

import numpy as np
import pytest

import scenefactor.compare as compare
import scenefactor.metrics as metrics
import scenefactor.registration as registration
from scenefactor.cli import main
from scenefactor.compare import REPRESENTATIONS, compare_representations, gt_scene_voxels
from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import DEFAULT_CAMERA, apply_pose
from scenefactor.io_formats import write_scene
from scenefactor.registration import IcpResult, RigidTransform, bbox_diagonal, icp
from scenefactor.render import (
    depth_to_pointcloud,
    disparity_to_depth,
    render_depth_analytic,
    render_depth_voxel,
)
from scenefactor.voxels import CANONICAL_SPEC, VoxelGrid, boundary_centers, voxel_centers


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
        src = apply_pose(obj.pose, boundary_centers(obj.shape))
        size = bbox_diagonal(src)
        for rep in REPRESENTATIONS:
            result = icp(src, clouds[rep], size_norm=size)
            expected.append((index, rep, result.fitness))
    rows = compare_representations(two_object_scene, "s3")
    got = [(r.object_index, r.representation, r.value)
           for r in rows if r.task == "object_fitness"]
    assert got == expected


def test_icp_source_is_the_posed_boundary_cells(two_object_scene, monkeypatch):
    # Every registration of an object starts from its posed boundary cells,
    # sized by their bounding box, which is that of all its occupied cells.
    received = []

    def recording_icp(src, dst, size_norm):
        received.append((src, size_norm))
        return IcpResult(RigidTransform(np.eye(3), np.zeros(3)), 0.0, 1, "converged", (0.0,))

    monkeypatch.setattr(compare, "icp", recording_icp)
    compare_representations(two_object_scene, "s3")
    expected = []
    for obj in two_object_scene.objects:
        src = apply_pose(obj.pose, boundary_centers(obj.shape))
        assert len(src) < obj.shape.count()
        size = bbox_diagonal(apply_pose(obj.pose, voxel_centers(obj.shape)))
        expected += [(src.shape, src.tobytes(), size)] * len(REPRESENTATIONS)
    # The pool's threads may call in any order.
    got = [(src.shape, src.tobytes(), size) for src, size in received]
    assert sorted(got) == sorted(expected)


def test_registration_error_propagates_and_pool_drains(two_object_scene, monkeypatch):
    depth_cloud = representation_clouds(two_object_scene)["depth"]

    def flaky_icp(src, dst, size_norm):
        if np.array_equal(dst, depth_cloud):
            raise RuntimeError("registration failed")
        return identity_result()

    monkeypatch.setattr(compare, "icp", flaky_icp)
    with pytest.raises(RuntimeError, match="registration failed"):
        compare_representations(two_object_scene, "s3")
    for thread in icp_threads():
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in icp_threads())


def identity_result():
    return IcpResult(RigidTransform(np.eye(3), np.zeros(3)), 0.0, 1, "converged", (0.0,))


def test_scene_metrics_run_while_registrations_are_in_flight(two_object_scene, monkeypatch):
    # Every registration waits for the layout rows, which the calling
    # thread scores only after it has handed the registrations to the pool.
    layout_scored = threading.Event()
    waited = []

    def waiting_icp(src, dst, size_norm):
        waited.append(layout_scored.wait(timeout=10.0))
        return identity_result()

    def signalling_layout_errors(*args):
        value = metrics._layout_errors(*args)
        layout_scored.set()
        return value

    monkeypatch.setattr(compare, "icp", waiting_icp)
    monkeypatch.setattr(compare, "_layout_errors", signalling_layout_errors)
    rows = compare_representations(two_object_scene, "s3")
    assert waited == [True] * 2 * len(REPRESENTATIONS)
    assert [r.task for r in rows] == (["visible_depth"] * 3 + ["scene_voxel_iou"] * 3
                                      + ["object_fitness"] * 6 + ["modal_layout"] * 2
                                      + ["amodal_layout"] * 2)


def test_calling_thread_error_propagates_and_cancels_registrations(two_object_scene,
                                                                   monkeypatch):
    # The registrations that started block until the pool is shut down, so
    # the other registrations are still queued when the calling thread fails.
    workers = min(2 * len(REPRESENTATIONS), len(os.sched_getaffinity(0)))
    started, all_started, release, shutdowns = [], threading.Event(), threading.Event(), []
    error = ValueError("layout failed")

    class CancelFirstPool(compare.ThreadPoolExecutor):
        # Cancels the queued jobs before it releases the running ones.
        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append(cancel_futures)
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()
            super().shutdown(wait=wait)

    def blocking_icp(src, dst, size_norm):
        started.append(threading.current_thread().name)
        if len(started) == workers:
            all_started.set()
        release.wait(timeout=10.0)
        return identity_result()

    def failing_layout_errors(*args):
        assert all_started.wait(timeout=10.0)
        raise error

    monkeypatch.setattr(compare, "ThreadPoolExecutor", CancelFirstPool)
    monkeypatch.setattr(compare, "icp", blocking_icp)
    monkeypatch.setattr(compare, "_layout_errors", failing_layout_errors)
    with pytest.raises(ValueError) as raised:
        compare_representations(two_object_scene, "s3")
    assert raised.value is error
    assert shutdowns == [True]
    assert len(started) == workers < 2 * len(REPRESENTATIONS)
    assert all(name.startswith("scenefactor-icp") for name in started)
    assert icp_threads() == []


def test_layout_rows_render_each_ground_truth_image_once(two_object_scene, monkeypatch):
    # One full render with surface ids and one room render per scene feed
    # all four layout rows, which equal the public metric's values.
    monkeypatch.setattr(registration, "ICP_MAX_ITER", 1)
    renders = []

    def count_renders(module, name):
        render = getattr(module, name)

        def counted(*args, **kwargs):
            renders.append((module.__name__, name, kwargs.get("include_objects", True)))
            return render(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (compare, metrics):
        count_renders(module, "render_depth_analytic")
        count_renders(module, "render_surface_ids")
    rows = compare_representations(two_object_scene, "s3")
    assert sorted(renders) == [("scenefactor.compare", "render_depth_analytic", False),
                               ("scenefactor.compare", "render_surface_ids", True)]
    monkeypatch.undo()
    preds = {"factored": disparity_to_depth(two_object_scene.layout, two_object_scene.camera),
             "depth": render_depth_analytic(two_object_scene, include_objects=True)}
    for mode in ("modal", "amodal"):
        got = {r.representation: r.value for r in rows if r.task == f"{mode}_layout"}
        assert got == {rep: metrics.layout_depth_error(pred, two_object_scene, mode)
                       for rep, pred in preds.items()}


def test_one_kd_tree_per_ground_truth_cloud(two_object_scene, monkeypatch):
    # Three ground-truth clouds (the visible scene and the modal and amodal
    # room pixels) score ten rows; the visible rows equal the public metric.
    built = []

    class CountedIndex(metrics.NNIndex):
        def __init__(self, points):
            super().__init__(points)
            built.append(self.points)

    monkeypatch.setattr(compare, "icp", lambda src, dst, size_norm: identity_result())
    monkeypatch.setattr(metrics, "NNIndex", CountedIndex)
    rows = compare_representations(two_object_scene, "s3")
    assert len(built) == 3
    assert len({points.tobytes() for points in built}) == 3
    monkeypatch.undo()
    clouds = representation_clouds(two_object_scene)
    assert {r.representation: r.value for r in rows if r.task == "visible_depth"} == {
        rep: metrics.visible_surface_error(cloud, clouds["depth"]) for rep, cloud in clouds.items()}


def test_one_cell_shape_is_skipped_and_counted(two_object_scene, tmp_path, monkeypatch, capsys):
    # One occupied cell poses to one point, whose size (bounding-box
    # diagonal) is 0, so its fitness has no normalization.
    monkeypatch.setattr(registration, "ICP_MAX_ITER", 1)
    occ = np.zeros(CANONICAL_SPEC.dims)
    occ[16, 16, 16] = 1.0
    first, second = two_object_scene.objects
    scene = dataclasses.replace(two_object_scene, objects=(
        dataclasses.replace(first, shape=VoxelGrid.canonical(occ)), second))
    rows = compare_representations(scene, "s3")
    assert {r.object_index for r in rows if r.task == "object_fitness"} == {1}
    write_scene(scene, tmp_path / "s3.json")
    assert main(["compare-reps", "--scenes", str(tmp_path), "--out-dir",
                 str(tmp_path / "out")]) == 0
    assert ("skipped 3 of 6 object registration(s) (empty or one-cell shape, or empty cloud)"
            in capsys.readouterr().err)


def test_scene_without_a_visible_room_pixel_has_nan_modal_layout(tmp_path, monkeypatch, capsys):
    # At 1x1 the one pixel sees an object, so no room surface is visible
    # to score; the amodal rows still score the whole room.
    monkeypatch.setattr(registration, "ICP_MAX_ITER", 1)
    scene = generate_scene(GeneratorConfig(seed=20, camera=DEFAULT_CAMERA.scaled(1, 1)))
    rows = compare_representations(scene, "s20")
    layout = {(r.task, r.representation): r.value for r in rows if r.task.endswith("_layout")}
    assert math.isnan(layout["modal_layout", "factored"])
    assert math.isnan(layout["modal_layout", "depth"])
    assert math.isfinite(layout["amodal_layout", "factored"])
    assert math.isfinite(layout["amodal_layout", "depth"])
    assert sum(not math.isfinite(r.value) for r in rows) == 2
    write_scene(scene, tmp_path / "s20.json")
    assert main(["compare-reps", "--scenes", str(tmp_path), "--out-dir",
                 str(tmp_path / "out")]) == 0
    assert "left 2 non-finite value(s) out of curves.csv" in capsys.readouterr().err
