"""Cross-representation scene evaluation.

Given a ground-truth scene, three representations are derived from it and
scored on how well each explains five aspects of the scene:

* ``factored``: the layout plus posed voxel objects (rendered or composed
  as each task requires);
* ``depth``: the visible per-pixel depth image;
* ``voxels``: a single camera-frame occupancy grid of the scene.

Tasks: visible-depth error (m), scene-voxel IoU, per-object alignment
fitness after ICP, and modal/amodal layout depth error (m).  The layout
tasks only apply to representations that can say anything about layout
(factored and depth).  Point clouds come from each representation the way
its consumers would build them: depth images backproject, voxel grids
contribute occupied-cell centers.  Each object's ICP source is the posed
centers of its shape's boundary cells only (``voxels.boundary_centers``:
the occupied cells with an empty 6-neighbour), not of every occupied cell
(Rusinkiewicz & Levoy 2001 on choosing ICP source points).

The registrations are most of the work.  They run on a thread pool as wide
as the visible CPUs, started as soon as the clouds exist; the calling
thread scores every scene-level task (visible depth, scene-voxel IoU and
layout) while they run, then collects them.  The kd-tree searches and
most NumPy kernels release the interpreter lock, so the two sides overlap.

The protocol is fixed: every grid is binarized at
``voxels.OCCUPANCY_THRESHOLD``, scene voxels live on the default scene grid,
and ICP runs at most ``registration.ICP_MAX_ITER`` iterations.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import apply_pose
# The benchmark's tracer patches visible_surface_error and layout_depth_error
# here; the rows use _surface_errors and _layout_errors, one kd-tree per cloud.
from .metrics import (_layout_errors, _surface_errors, layout_depth_error,  # noqa: F401
                      visible_surface_error)
from .registration import bbox_diagonal, icp
from .render import (
    depth_to_pointcloud,
    disparity_to_depth,
    pointcloud_to_voxels,
    render_depth_analytic,
    render_depth_voxel,
    render_surface_ids,
)
from .scene import FactoredScene, compose_scene_voxels
from .voxels import (
    DEFAULT_SCENE_SPEC,
    VoxelGrid,
    boundary_centers,
    voxel_centers,
    voxel_iou,
    voxelize_posed_cuboids,
)

__all__ = ["ComparisonRow", "compare_representations", "cumulative_curve", "gt_scene_voxels"]

REPRESENTATIONS = ("factored", "depth", "voxels")


@dataclass(frozen=True)
class ComparisonRow:
    scene_id: str
    task: str
    representation: str
    value: float
    object_index: int | None = None
    # How the ICP run of an object_fitness row stopped (IcpResult.stop).
    icp_stop: str | None = None


def gt_scene_voxels(scene: FactoredScene) -> VoxelGrid:
    """Exact objects-only occupancy of the default scene grid, from the
    analytic solids."""
    occ = np.zeros(DEFAULT_SCENE_SPEC.dims, dtype=bool)
    for obj in scene.objects:
        if obj.solid is None:
            raise ValueError("ground-truth scene voxels need objects with cuboid solids")
        occ |= voxelize_posed_cuboids(obj.solid, obj.pose).occupied
    return VoxelGrid.scene(occ)


def compare_representations(scene: FactoredScene, scene_id: str = "scene") -> list[ComparisonRow]:
    """Score the three representations of one ground-truth scene on the
    five tasks; returns one row per (task, representation[, object]), in
    task order: visible depth, scene-voxel IoU, object fitness, then
    modal and amodal layout.  Scene voxels live on the default scene grid.

    Each ``object_fitness`` row registers the centers of the object's
    boundary cells (``boundary_centers(obj.shape)``), posed, to the
    representation's cloud.  Objects whose shape is empty or one cell,
    which has no size to normalize the fitness by, and representations
    with an empty cloud get no ``object_fitness`` row.

    The calling thread builds the three clouds and the posed sources, then
    hands every registration to a pool as wide as the visible CPUs (no
    wider than the registrations).  While the pool runs, the calling
    thread scores the visible-depth, scene-voxel IoU and layout rows, and
    then collects the registrations in submission order.  Rows and values
    are independent of scheduling.  An error on either side propagates
    unchanged; registrations not yet started are cancelled, and the call
    returns only after the pool's threads have finished.
    """
    if scene.layout is None or scene.room is None:
        raise ValueError("representation comparison needs synthetic ground truth "
                         "(layout and room)")
    # One render of each ground-truth image per scene: the full analytic
    # render with its surface ids here, the room alone for the amodal rows.
    gt_depth, surface_ids = render_surface_ids(scene)
    gt_cloud = depth_to_pointcloud(gt_depth)
    gt_grid = gt_scene_voxels(scene)
    clouds = {"factored": depth_to_pointcloud(render_depth_voxel(scene)),
              "depth": gt_cloud, "voxels": voxel_centers(gt_grid)}

    keys, jobs = [], []
    for index, obj in enumerate(scene.objects):
        src = apply_pose(obj.pose, boundary_centers(obj.shape))
        size = bbox_diagonal(src) if len(src) else 0.0
        if not size > 0.0:
            continue
        for rep in REPRESENTATIONS:
            if len(clouds[rep]):
                keys.append((index, rep))
                jobs.append((src, clouds[rep], size))

    # A pool starts its threads only as jobs arrive, so a scene without
    # registrations starts none.
    workers = max(1, min(len(jobs), len(os.sched_getaffinity(0))))
    pool = ThreadPoolExecutor(workers, thread_name_prefix="scenefactor-icp")
    try:
        futures = [pool.submit(icp, *job) for job in jobs]

        visible = [ComparisonRow(scene_id, "visible_depth", rep, value) for rep, value in
                   zip(clouds, _surface_errors(clouds.values(), gt_cloud))]
        grids = {"factored": compose_scene_voxels(scene),
                 "depth": pointcloud_to_voxels(gt_cloud), "voxels": gt_grid}
        iou = [ComparisonRow(scene_id, "scene_voxel_iou", rep, voxel_iou(grids[rep], gt_grid))
               for rep in REPRESENTATIONS]
        layout_preds = {"factored": disparity_to_depth(scene.layout, scene.camera),
                        "depth": gt_depth}
        layout_truth = {"modal": (gt_depth, surface_ids),
                        "amodal": (render_depth_analytic(scene, include_objects=False), None)}
        layout = [ComparisonRow(scene_id, f"{mode}_layout", rep, value)
                  for mode, truth in layout_truth.items() for rep, value in
                  zip(layout_preds, _layout_errors(list(layout_preds.values()), *truth))]

        fitness = []
        for (index, rep), future in zip(keys, futures):
            result = future.result()
            fitness.append(ComparisonRow(scene_id, "object_fitness", rep, result.fitness,
                                         object_index=index, icp_stop=result.stop))
    finally:
        pool.shutdown(cancel_futures=True)
    return visible + iou + fitness + layout


def cumulative_curve(values) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values with the cumulative fraction of data at or below each,
    the form the per-task result plots use."""
    v = np.sort(np.asarray(list(values), dtype=float))
    if len(v) == 0:
        return v, v
    frac = (np.arange(len(v)) + 1.0) / len(v)
    return v, frac
