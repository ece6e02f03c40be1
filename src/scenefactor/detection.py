"""Five-predicate detection matching, precision-recall curves, and AP.

A detection is a true positive only if it satisfies the thresholds on all
five component metrics (2D box IoU, shape IoU, rotation, translation,
scale) against some still-unmatched ground-truth object.  The thresholds
are fixed at the paper's values, ``DEFAULT_THRESHOLDS``, and are strict
in the favorable direction: a true positive needs error < delta, or
IoU > delta.  Any threshold can be a wildcard (None), which removes that
predicate; relaxing predicates one at a time diagnoses which factor
limits performance.

Detections are processed in descending score, ties in insertion order.
Among the ground truths that satisfy every active predicate, a detection
matches the one with the highest 2D box IoU, or the smallest translation
error when the box threshold is wildcarded.  Average precision is the
exact area under the precision envelope over recall (all-point
interpolation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .metrics import component_error_matrix
from .scene import SceneObject

__all__ = [
    "DEFAULT_THRESHOLDS",
    "ApRow",
    "EvalOutcome",
    "MatchRecord",
    "ThresholdTuple",
    "ap_sweep",
    "evaluate_dataset",
]

@dataclass(frozen=True)
class ThresholdTuple:
    """The five detection predicates; None means wildcard (relaxed).  The
    defaults are the paper's: box IoU, shape IoU, rotation (rad),
    translation (m), scale (log2 units)."""

    box2d: float | None = 0.5
    shape: float | None = 0.25
    rotation: float | None = math.pi / 6.0
    translation: float | None = 1.0
    scale: float | None = 0.5

    def __post_init__(self):
        for name in ("box2d", "shape", "rotation", "translation", "scale"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} threshold must be finite (none is the wildcard), "
                                 f"got {v}")
        for name in ("box2d", "shape"):
            v = getattr(self, name)
            if v is not None and not (0.0 < v <= 1.0):
                raise ValueError(f"{name} threshold must lie in (0, 1], got {v}")
        for name in ("rotation", "translation", "scale"):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise ValueError(f"{name} threshold must be positive, got {v}")

    def relax(self, name: str) -> "ThresholdTuple":
        if name not in ("box2d", "shape", "rotation", "translation", "scale"):
            raise ValueError(f"unknown predicate {name!r}")
        return replace(self, **{name: None})


DEFAULT_THRESHOLDS = ThresholdTuple()


@dataclass(frozen=True)
class MatchRecord:
    """Outcome for one detection after matching."""

    score: float
    tp: bool
    scene_index: int
    det_index: int
    gt_index: int | None


@dataclass(frozen=True, eq=False)
class EvalOutcome:
    """Pooled detection results: per-detection records, PR arrays, and AP."""

    matches: tuple[MatchRecord, ...]
    precision: np.ndarray
    recall: np.ndarray
    ap: float
    n_gt: int


def _passes(errors, thresholds: ThresholdTuple) -> bool:
    if thresholds.box2d is not None:
        if errors.box_iou is None or not errors.box_iou > thresholds.box2d:
            return False
    if thresholds.shape is not None and not errors.shape_iou > thresholds.shape:
        return False
    if thresholds.rotation is not None and not errors.rot_err < thresholds.rotation:
        return False
    if thresholds.translation is not None and not errors.trans_err < thresholds.translation:
        return False
    if thresholds.scale is not None and not errors.scale_err < thresholds.scale:
        return False
    return True


def _scene_errors(scene_pairs) -> list[tuple[list[SceneObject], int, list]]:
    """Per scene: its detections, its ground-truth count, and the
    (detections x ground truths) matrix of component errors."""
    pairs = [(list(dets), list(gts)) for dets, gts in scene_pairs]
    return [(dets, len(gts), component_error_matrix(dets, gts)) for dets, gts in pairs]


def _match_scene(dets, errors, thresholds: ThresholdTuple,
                 scene_index: int) -> list[MatchRecord]:
    """Greedy matching inside one scene; each GT matches at most once."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    taken = set()
    records = []
    for det_index in order:
        det = dets[det_index]
        best_gt = None
        best_key = None
        for gt_index, err in enumerate(errors[det_index]):
            if gt_index in taken or not _passes(err, thresholds):
                continue
            if thresholds.box2d is not None:
                key = (-err.box_iou, gt_index)
            else:
                key = (err.trans_err, gt_index)
            if best_key is None or key < best_key:
                best_key = key
                best_gt = gt_index
        if best_gt is not None:
            taken.add(best_gt)
            records.append(MatchRecord(det.score, True, scene_index, det_index, best_gt))
        else:
            records.append(MatchRecord(det.score, False, scene_index, det_index, None))
    return records


def _evaluate(scenes, thresholds: ThresholdTuple) -> EvalOutcome:
    all_records: list[MatchRecord] = []
    n_gt = 0
    for scene_index, (dets, gt_count, errors) in enumerate(scenes):
        n_gt += gt_count
        all_records.extend(_match_scene(dets, errors, thresholds, scene_index))
    if n_gt == 0:
        raise ValueError("cannot evaluate without ground-truth objects")

    scores = np.array([r.score for r in all_records])
    order = np.argsort(-scores, kind="stable")
    ordered = [all_records[i] for i in order]
    tp = np.array([r.tp for r in ordered], dtype=float)
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1.0)
    ap = _envelope_ap(precision, recall)
    return EvalOutcome(tuple(ordered), precision, recall, ap, n_gt)


def evaluate_dataset(scene_pairs, thresholds: ThresholdTuple = DEFAULT_THRESHOLDS) -> EvalOutcome:
    """Match every (detections, ground_truths) pair and pool the records
    into one precision-recall curve and AP.

    Pooled detections sort by descending score; equal scores keep scene
    order then insertion order.  AP needs at least one ground truth.
    """
    return _evaluate(_scene_errors(scene_pairs), thresholds)


def _envelope_ap(precision: np.ndarray, recall: np.ndarray) -> float:
    """Exact area under the running-maximum precision envelope."""
    if len(precision) == 0:
        return 0.0
    env = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for p, r in zip(env, recall):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


@dataclass(frozen=True, eq=False)
class ApRow:
    name: str
    thresholds: ThresholdTuple
    outcome: EvalOutcome

    @property
    def ap(self) -> float:
        return self.outcome.ap


def ap_sweep(scene_pairs) -> list[ApRow]:
    """AP table over the relaxation families of ``DEFAULT_THRESHOLDS``.

    Emits the full tuple, each single-predicate relaxation, the box-only
    tuple, and box-only plus each single predicate restored.  Component
    errors are computed once per (detection, ground truth) pair and shared
    by every row.
    """
    scenes = _scene_errors(scene_pairs)
    base = DEFAULT_THRESHOLDS
    box = ThresholdTuple(shape=None, rotation=None, translation=None, scale=None)
    named = [("all", base)]
    named += [(f"all-{name}", base.relax(name))
              for name in ("shape", "rotation", "translation", "scale", "box2d")]
    named.append(("box2d", box))
    named += [(f"box2d+{name}", replace(box, **{name: getattr(base, name)}))
              for name in ("shape", "rotation", "translation", "scale")]
    return [ApRow(name, t, _evaluate(scenes, t)) for name, t in named]
