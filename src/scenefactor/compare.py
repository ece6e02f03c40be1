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
contribute occupied-cell centers.

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
from .metrics import layout_depth_error, visible_surface_error
from .registration import bbox_diagonal, icp
from .render import (
    depth_to_pointcloud,
    disparity_to_depth,
    pointcloud_to_voxels,
    render_depth_analytic,
    render_depth_voxel,
)
from .scene import FactoredScene, compose_scene_voxels
from .voxels import DEFAULT_SCENE_SPEC, VoxelGrid, voxel_centers, voxel_iou, voxelize_posed_cuboids

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
    occ = np.zeros(DEFAULT_SCENE_SPEC.dims, dtype=np.float32)
    for obj in scene.objects:
        if obj.solid is None:
            raise ValueError("ground-truth scene voxels need objects with cuboid solids")
        occ = np.maximum(occ, voxelize_posed_cuboids(obj.solid, obj.pose).occupancy)
    return VoxelGrid.scene(occ)


def compare_representations(scene: FactoredScene, scene_id: str = "scene") -> list[ComparisonRow]:
    """Score the three representations of one ground-truth scene on the
    five tasks; returns one row per (task, representation[, object]).
    Scene voxels live on the default scene grid.

    Objects with an empty shape and representations with an empty cloud get
    no ``object_fitness`` row.  The per-object ICP registrations run
    concurrently on all visible CPUs; rows and values are independent of
    scheduling.
    """
    if scene.layout is None or scene.room is None:
        raise ValueError("representation comparison needs synthetic ground truth "
                         "(layout and room)")
    rows: list[ComparisonRow] = []

    gt_depth = render_depth_analytic(scene, include_objects=True)
    gt_cloud = depth_to_pointcloud(gt_depth)
    gt_grid = gt_scene_voxels(scene)

    factored_depth = render_depth_voxel(scene)
    factored_cloud = depth_to_pointcloud(factored_depth)
    voxel_cloud = voxel_centers(gt_grid)

    clouds = {"factored": factored_cloud, "depth": gt_cloud, "voxels": voxel_cloud}
    for rep in REPRESENTATIONS:
        rows.append(ComparisonRow(scene_id, "visible_depth", rep,
                                  visible_surface_error(clouds[rep], gt_cloud)))

    grids = {
        "factored": compose_scene_voxels(scene),
        "depth": pointcloud_to_voxels(gt_cloud),
        "voxels": gt_grid,
    }
    for rep in REPRESENTATIONS:
        rows.append(ComparisonRow(scene_id, "scene_voxel_iou", rep,
                                  voxel_iou(grids[rep], gt_grid)))

    # Registrations are independent: they run on a pool as wide as the
    # visible CPUs, and pool.map returns them in submission order.
    keys, jobs = [], []
    for index, obj in enumerate(scene.objects):
        local = voxel_centers(obj.shape)
        if len(local) == 0:
            continue
        src = apply_pose(obj.pose, local)
        size = bbox_diagonal(src)
        for rep in REPRESENTATIONS:
            if len(clouds[rep]):
                keys.append((index, rep))
                jobs.append((src, clouds[rep], size))
    if jobs:
        workers = min(len(jobs), len(os.sched_getaffinity(0)))
        with ThreadPoolExecutor(workers, thread_name_prefix="scenefactor-icp") as pool:
            results = list(pool.map(icp, *zip(*jobs)))
        rows.extend(ComparisonRow(scene_id, "object_fitness", rep, result.fitness,
                                  object_index=index, icp_stop=result.stop)
                    for (index, rep), result in zip(keys, results))

    layout_preds = {
        "factored": disparity_to_depth(scene.layout, scene.camera),
        "depth": gt_depth,
    }
    for mode, task in (("modal", "modal_layout"), ("amodal", "amodal_layout")):
        for rep, pred in layout_preds.items():
            rows.append(ComparisonRow(scene_id, task, rep,
                                      layout_depth_error(pred, scene, mode)))
    return rows


def cumulative_curve(values) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values with the cumulative fraction of data at or below each,
    the form the per-task result plots use."""
    v = np.sort(np.asarray(list(values), dtype=float))
    if len(v) == 0:
        return v, v
    frac = (np.arange(len(v)) + 1.0) / len(v)
    return v, frac
