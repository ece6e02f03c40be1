"""Per-object component errors and whole-scene cross-representation metrics.

Component errors compare a predicted object against its ground truth along
five axes: voxel-shape IoU, rotation geodesic (radians), translation
distance (meters), mean per-axis log2 scale ratio, and 2D box IoU.  Their
detection thresholds are strict in the favorable direction, so a true
positive needs error < delta, or IoU > delta.

Angles are radians everywhere; degrees appear only in human-readable
summaries and are flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import rotation_geodesic
from .registration import NNIndex
from .render import DepthMap, depth_to_pointcloud, render_depth_analytic, render_surface_ids
from .scene import FactoredScene, SceneObject
from .voxels import voxel_iou

__all__ = [
    "DEFAULT_DELTAS",
    "ComponentErrors",
    "SummaryStats",
    "box_iou_2d",
    "component_errors",
    "layout_depth_error",
    "summarize",
    "visible_surface_error",
]

# Detection thresholds: box IoU, shape IoU, rotation (rad), translation (m),
# scale (log2 units).
DEFAULT_DELTAS = {
    "box2d": 0.5,
    "shape": 0.25,
    "rotation": math.pi / 6.0,
    "translation": 1.0,
    "scale": 0.5,
}


def box_iou_2d(a, b) -> float:
    """IoU of two (xmin, ymin, xmax, ymax) boxes."""
    ax0, ay0, ax1, ay1 = (float(v) for v in a)
    bx0, by0, bx1, by1 = (float(v) for v in b)
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union > 0.0 else 0.0


@dataclass(frozen=True)
class ComponentErrors:
    shape_iou: float
    rot_err: float
    trans_err: float
    scale_err: float
    box_iou: float | None

    def __post_init__(self):
        if not (0.0 <= self.shape_iou <= 1.0):
            raise ValueError(f"shape_iou out of range: {self.shape_iou}")
        if self.rot_err < 0.0 or self.trans_err < 0.0 or self.scale_err < 0.0:
            raise ValueError("errors must be non-negative")
        if self.box_iou is not None and not (0.0 <= self.box_iou <= 1.0):
            raise ValueError(f"box_iou out of range: {self.box_iou}")


def component_errors(pred: SceneObject, gt: SceneObject) -> ComponentErrors:
    """All five component errors between a prediction and its ground truth.

    Shape IoU compares occupied cells (:attr:`VoxelGrid.occupied`).  Box
    IoU is present only when both objects carry a 2D box.
    """
    shape_iou = voxel_iou(pred.shape, gt.shape)
    rot = rotation_geodesic(pred.pose.rotation, gt.pose.rotation)
    trans = float(np.linalg.norm(pred.pose.translation - gt.pose.translation))
    scale = float(np.mean(np.abs(np.log2(pred.pose.scale) - np.log2(gt.pose.scale))))
    box = None
    if pred.box2d is not None and gt.box2d is not None:
        box = box_iou_2d(pred.box2d, gt.box2d)
    return ComponentErrors(shape_iou, rot, trans, scale, box)


@dataclass(frozen=True)
class SummaryStats:
    """Median plus the fraction of instances on the favorable side of a
    threshold (strictly below for errors, strictly above for IoU)."""

    median: float
    fraction_within: float
    threshold: float
    direction: str


def summarize(errors, threshold: float, direction: str = "below") -> SummaryStats:
    """Aggregate per-instance values the way result tables report them.

    The median of an even-length list is the lower of the two middle
    values, and the threshold predicate is strict.
    """
    values = [float(v) for v in errors]
    if not values:
        raise ValueError("cannot summarize an empty list")
    if direction not in ("below", "above"):
        raise ValueError(f"direction must be 'below' or 'above', got {direction!r}")
    ordered = sorted(values)
    median = ordered[(len(ordered) - 1) // 2]
    if direction == "below":
        fraction = sum(v < threshold for v in values) / len(values)
    else:
        fraction = sum(v > threshold for v in values) / len(values)
    return SummaryStats(median, fraction, float(threshold), direction)


def visible_surface_error(pred_points: np.ndarray, gt_points: np.ndarray) -> float:
    """Mean distance from each predicted point to its nearest ground-truth
    point (one-directional, prediction to ground truth).

    Returns +inf for an empty prediction; a symmetric Chamfer variant is
    deliberately not the default.
    """
    gt = np.asarray(gt_points, dtype=float).reshape(-1, 3)
    if len(gt) == 0:
        raise ValueError("ground-truth point cloud must be non-empty")
    pred = np.asarray(pred_points, dtype=float).reshape(-1, 3)
    if len(pred) == 0:
        return math.inf
    dist, _ = NNIndex(gt).query(pred)
    return float(np.mean(dist))


def layout_depth_error(pred: DepthMap, gt_scene: FactoredScene, mode: str = "amodal") -> float:
    """How well a depth image explains the scene's layout surfaces.

    Amodal mode compares against the full-extent layout render (no
    objects) over all pixels.  Modal mode restricts both clouds to pixels
    where a layout surface is actually visible, as decided by the analytic
    renderer's per-pixel surface ids.
    """
    if mode not in ("modal", "amodal"):
        raise ValueError(f"mode must be 'modal' or 'amodal', got {mode!r}")
    if pred.camera != gt_scene.camera:
        raise ValueError("prediction and ground truth must share the camera")
    if mode == "amodal":
        gt_depth = render_depth_analytic(gt_scene, include_objects=False)
        mask = np.ones(gt_depth.depth.shape, dtype=bool)
    else:
        gt_depth, ids = render_surface_ids(gt_scene)
        mask = ids == -1
    gt_pts = depth_to_pointcloud(DepthMap(np.where(mask, gt_depth.depth, 0.0), gt_depth.camera))
    pred_pts = depth_to_pointcloud(DepthMap(np.where(mask, pred.depth, 0.0), pred.camera))
    return visible_surface_error(pred_pts, gt_pts)

