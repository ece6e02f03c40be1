"""Per-object component errors and whole-scene cross-representation metrics.

Component errors compare a predicted object against its ground truth along
five axes: voxel-shape IoU, rotation geodesic (radians), translation
distance (meters), mean per-axis log2 scale ratio, and 2D box IoU.  The
detection thresholds on them live in :mod:`scenefactor.detection`.

Angles are radians everywhere; degrees appear only in human-readable
summaries and are flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_points
from .registration import NNIndex
from .render import (
    ROOM_SURFACE,
    DepthMap,
    depth_to_pointcloud,
    render_depth_analytic,
    render_surface_ids,
)
from .scene import FactoredScene, SceneObject
from .voxels import voxel_iou_matrix

__all__ = [
    "ComponentErrors",
    "SummaryStats",
    "box_iou_2d",
    "component_error_matrix",
    "component_errors",
    "layout_depth_error",
    "summarize",
    "visible_surface_error",
]


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
    return component_error_matrix([pred], [gt])[0][0]


def _chord_angle(chord: float) -> float:
    """The rotation angle whose sign-folded quaternion chord is ``chord``:
    ``min(|a - b|, |a + b|)`` gives the geodesic ``2 * arccos(|<a, b>|)``
    in [0, pi] for either sign of either quaternion, and stays exact at 0
    where the arccos form loses digits."""
    return 4.0 * math.asin(min(1.0, 0.5 * chord))


def component_error_matrix(preds: list[SceneObject],
                           gts: list[SceneObject]) -> list[list[ComponentErrors]]:
    """:func:`component_errors` of every (prediction, ground truth) pair, one
    row per prediction, bit for bit: lengths take the BLAS dot of a 1-D
    ``np.linalg.norm`` (``np.vecdot``), log2 and arcsine are taken per item."""
    if not preds or not gts:
        return [[] for _ in preds]
    # Per object: quaternion (4), translation (3), log2 scale (3).
    p, g = (np.array([[*o.pose.rotation.as_array(), *o.pose.translation,
                       *np.log2(o.pose.scale)] for o in objs]) for objs in (preds, gts))
    d, q_sum = p[:, None] - g[None], p[:, None, :4] + g[None, :, :4]
    shape, chord, trans, scale = (m.tolist() for m in (
        voxel_iou_matrix([o.shape for o in preds], [o.shape for o in gts]),
        np.sqrt(np.minimum(np.vecdot(d[..., :4], d[..., :4]), np.vecdot(q_sum, q_sum))),
        np.sqrt(np.vecdot(d[..., 4:7], d[..., 4:7])),
        np.mean(np.abs(d[..., 7:]), axis=-1)))
    return [[ComponentErrors(shape[i][j], _chord_angle(chord[i][j]), trans[i][j], scale[i][j],
                             None if a.box2d is None or b.box2d is None
                             else box_iou_2d(a.box2d, b.box2d))
             for j, b in enumerate(gts)] for i, a in enumerate(preds)]


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
    point (one-directional, prediction to ground truth), both (n, 3) clouds.

    Returns +inf for an empty prediction; a symmetric Chamfer variant is
    deliberately not the default.
    """
    return _surface_errors([pred_points], gt_points)[0]


def _surface_errors(preds, gt_points) -> list[float]:
    """:func:`visible_surface_error` of each prediction, one kd-tree for all."""
    gt, preds = as_points(gt_points), [as_points(p) for p in preds]
    if len(gt) == 0:
        raise ValueError("ground-truth point cloud must be non-empty")
    index = NNIndex(gt)
    return [float(np.mean(index.distances(p))) if len(p) else math.inf for p in preds]


def layout_depth_error(pred: DepthMap, gt_scene: FactoredScene, mode: str = "amodal") -> float:
    """How well a depth image explains the scene's layout surfaces.

    Amodal mode compares against the full-extent layout render (no
    objects) over all pixels.  Modal mode restricts both clouds to pixels
    where a layout surface is actually visible, as decided by the analytic
    renderer's per-pixel surface ids; it is NaN when objects cover every
    pixel, since no layout surface is visible to score.
    """
    if mode not in ("modal", "amodal"):
        raise ValueError(f"mode must be 'modal' or 'amodal', got {mode!r}")
    if pred.camera != gt_scene.camera:
        raise ValueError("prediction and ground truth must share the camera")
    if mode == "amodal":
        return _layout_errors([pred], render_depth_analytic(gt_scene, include_objects=False))[0]
    return _layout_errors([pred], *render_surface_ids(gt_scene))[0]


def _layout_errors(preds: list[DepthMap], gt_depth: DepthMap,
                   surface_ids: np.ndarray | None = None) -> list[float]:
    """:func:`layout_depth_error` of each prediction against ground-truth
    renders of one scene: the room render over every pixel (amodal), or,
    given the full render and its surface ids, the pixels where the room
    is visible (modal); NaN when the room is visible nowhere."""
    if surface_ids is None:
        mask = np.ones(gt_depth.depth.shape, dtype=bool)
    else:
        mask = surface_ids == ROOM_SURFACE
        if not mask.any():
            return [math.nan] * len(preds)
    gt_pts, *pred_pts = (depth_to_pointcloud(DepthMap(np.where(mask, d.depth, 0.0), d.camera))
                         for d in (gt_depth, *preds))
    return _surface_errors(pred_pts, gt_pts)
