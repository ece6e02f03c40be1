import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from scenefactor.detection import (
    DEFAULT_THRESHOLDS,
    ThresholdTuple,
    ap_sweep,
    evaluate_dataset,
)
from scenefactor.geometry import Pose, UnitQuaternion, rotation_about_y
from scenefactor.metrics import component_error_matrix, component_errors
from scenefactor.scene import SceneObject
from scenefactor.voxels import Cuboid, cuboid_voxelize


def make_object(translation, score=1.0, box2d=None, theta=0.0, scale=1.0,
                half=(0.4, 0.4, 0.4)):
    solid = [Cuboid((0, 0, 0), half)]
    return SceneObject(
        shape=cuboid_voxelize(solid),
        pose=Pose(np.full(3, float(scale)), rotation_about_y(theta),
                  np.asarray(translation, dtype=float)),
        score=score,
        box2d=box2d,
        solid=tuple(solid),
    )


def spread_gts(n, spacing=2.5):
    gts = []
    for i in range(n):
        box = (10.0 * i, 0.0, 10.0 * i + 8.0, 8.0)
        gts.append(make_object([spacing * i, 0.0, 3.0], box2d=box))
    return gts


def naive_reference_matcher(dets, gts, thresholds, n_gt_total=None):
    """Plain re-implementation of the documented matching rule."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = set()
    results = []
    for di in order:
        best = None
        for gi in range(len(gts)):
            if gi in taken:
                continue
            e = component_errors(dets[di], gts[gi])
            ok = True
            if thresholds.box2d is not None:
                ok &= e.box_iou is not None and e.box_iou > thresholds.box2d
            if thresholds.shape is not None:
                ok &= e.shape_iou > thresholds.shape
            if thresholds.rotation is not None:
                ok &= e.rot_err < thresholds.rotation
            if thresholds.translation is not None:
                ok &= e.trans_err < thresholds.translation
            if thresholds.scale is not None:
                ok &= e.scale_err < thresholds.scale
            if not ok:
                continue
            key = (-e.box_iou, gi) if thresholds.box2d is not None else (e.trans_err, gi)
            if best is None or key < best[0]:
                best = (key, gi)
        if best is not None:
            taken.add(best[1])
            results.append((dets[di].score, True))
        else:
            results.append((dets[di].score, False))
    # Envelope AP.
    results.sort(key=lambda r: -r[0])
    n_gt = len(gts) if n_gt_total is None else n_gt_total
    tp = fp = 0
    points = []
    for _, is_tp in results:
        tp += is_tp
        fp += not is_tp
        points.append((tp / n_gt, tp / (tp + fp)))
    ap = 0.0
    prev_r = 0.0
    for i, (r, _) in enumerate(points):
        env = max(p for (rr, p) in points[i:])
        ap += (r - prev_r) * env
        prev_r = r
    return ap


class TestEvaluateDetections:
    def test_perfect_detector(self):
        gts = spread_gts(4)
        out = evaluate_dataset([(gts, gts)])
        assert out.ap == 1.0
        assert sum(m.tp for m in out.matches) == 4

    def test_two_gts_one_good_one_bad(self):
        gts = spread_gts(2)
        good = replace(gts[0], score=0.9)
        bad = make_object([50.0, 0.0, 3.0], score=0.5, box2d=(100.0, 50.0, 108.0, 58.0))
        out = evaluate_dataset([([good, bad], gts)])
        assert out.ap == pytest.approx(0.5)
        assert [m.tp for m in out.matches] == [True, False]

    def test_boxes_below_threshold_zero_ap(self):
        gts = spread_gts(3)
        dets = [make_object(g.pose.translation, score=0.8,
                            box2d=(g.box2d[0] + 100.0, g.box2d[1], g.box2d[2] + 100.0, g.box2d[3]))
                for g in gts]
        thresholds = ThresholdTuple(shape=None, rotation=None, translation=None, scale=None)
        assert evaluate_dataset([(dets, gts)], thresholds).ap == 0.0

    def test_unscored_rejected(self):
        # A detection cannot reach the evaluator without a finite score:
        # building or replacing a SceneObject already rejects it.
        gt = spread_gts(1)[0]
        for score in (math.nan, math.inf):
            with pytest.raises(ValueError, match="score must lie in"):
                make_object([0.0, 0.0, 3.0], score=score)
            with pytest.raises(ValueError, match="score must lie in"):
                replace(gt, score=score)

    def test_no_gts_rejected(self):
        with pytest.raises(ValueError):
            evaluate_dataset([([], [])])

    def test_true_positives_equal_distinct_matched(self, rng):
        gts = spread_gts(5)
        dets = []
        for g in gts:
            dets.append(replace(g, score=float(rng.random())))
            dets.append(replace(g, score=float(rng.random())))  # duplicate detection
        out = evaluate_dataset([(dets, gts)])
        matched = {m.gt_index for m in out.matches if m.tp}
        assert sum(m.tp for m in out.matches) == len(matched) == 5

    def test_score_monotone_transform_invariance(self, rng):
        gts = spread_gts(4)
        dets = [replace(g, score=float(rng.uniform(0.1, 0.9))) for g in gts]
        dets[1] = make_object([40.0, 0.0, 3.0], score=dets[1].score,
                              box2d=(90.0, 90.0, 98.0, 98.0))
        base = evaluate_dataset([(dets, gts)]).ap
        squashed = [replace(d, score=d.score ** 3) for d in dets]
        assert evaluate_dataset([(squashed, gts)]).ap == base

    def test_matches_naive_reference(self, rng):
        # Randomized small instances incl. tied scores; insertion order is
        # the documented tie rule in both implementations.
        for _ in range(60):
            n_gt = int(rng.integers(1, 5))
            gts = spread_gts(n_gt)
            dets = []
            for _ in range(int(rng.integers(0, 6))):
                g = gts[int(rng.integers(n_gt))]
                jitter = rng.normal(scale=0.4, size=3)
                theta = float(rng.uniform(0, 0.8))
                score = float(rng.choice([0.3, 0.6, 0.9]))
                box = g.box2d if rng.random() < 0.8 else (0.0, 0.0, 4.0, 4.0)
                dets.append(make_object(g.pose.translation + jitter, score=score,
                                        theta=theta, box2d=box))
            if not dets:
                continue
            ours = evaluate_dataset([(dets, gts)])
            ref = naive_reference_matcher(dets, gts, DEFAULT_THRESHOLDS)
            assert ours.ap == pytest.approx(ref, abs=1e-12)

    def test_pooling_across_scenes(self):
        gts_a = spread_gts(2)
        gts_b = spread_gts(3)
        out = evaluate_dataset([(gts_a, gts_a), (gts_b, gts_b)])
        assert out.n_gt == 5
        assert out.ap == 1.0
        single = evaluate_dataset([(gts_a + gts_b, gts_a + gts_b)])
        assert single.ap == 1.0

    def test_wildcard_box_prefers_smallest_translation(self):
        gt_near = make_object([0.0, 0.0, 3.0])
        gt_far = make_object([0.6, 0.0, 3.0])
        det = make_object([0.1, 0.0, 3.0], score=0.9)
        thresholds = ThresholdTuple(box2d=None)
        out = evaluate_dataset([([det], [gt_near, gt_far])], thresholds)
        assert out.matches[0].tp and out.matches[0].gt_index == 0


class TestThresholdTuple:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdTuple(box2d=1.5)
        with pytest.raises(ValueError):
            ThresholdTuple(rotation=-0.1)
        with pytest.raises(ValueError):
            ThresholdTuple(shape=0.0)

    @pytest.mark.parametrize("name", ["box2d", "shape", "rotation", "translation", "scale"])
    def test_nan_threshold_rejected(self, name):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                ThresholdTuple(**{name: value})

    def test_relax(self):
        t = DEFAULT_THRESHOLDS.relax("rotation")
        assert t.rotation is None and t.box2d == 0.5
        with pytest.raises(ValueError):
            DEFAULT_THRESHOLDS.relax("color")

    def test_defaults_match_protocol(self):
        t = DEFAULT_THRESHOLDS
        assert (t.box2d, t.shape, t.rotation, t.translation, t.scale) == \
            (0.5, 0.25, math.pi / 6, 1.0, 0.5)


class TestApSweep:
    def test_perfect_everywhere(self):
        gts = spread_gts(4)
        rows = ap_sweep([(gts, gts)])
        assert len(rows) == 11
        assert all(r.ap == 1.0 for r in rows)
        names = [r.name for r in rows]
        assert names[0] == "all" and "box2d" in names
        assert "all-rotation" in names and "box2d+shape" in names

    def test_relaxation_never_hurts(self, rng):
        gts = spread_gts(5)
        dets = []
        for g in gts:
            jitter = rng.normal(scale=0.5, size=3)
            theta = float(rng.uniform(0, math.pi))
            dets.append(make_object(g.pose.translation + jitter, theta=theta,
                                    score=float(rng.random()), box2d=g.box2d,
                                    scale=float(rng.uniform(0.7, 1.5))))
        rows = {r.name: r.ap for r in ap_sweep([(dets, gts)])}
        for name in ("all-shape", "all-rotation", "all-translation", "all-scale", "all-box2d"):
            assert rows[name] >= rows["all"] - 1e-12

    def test_rows_match_separate_evaluations(self, rng, monkeypatch):
        import scenefactor.detection as detection

        gts = spread_gts(3)
        dets = [make_object(gt.pose.translation + rng.normal(scale=0.6, size=3),
                            score=float(rng.uniform(0.1, 1.0)), theta=float(rng.uniform(0, 1)),
                            box2d=gt.box2d)
                for gt in gts for _ in range(2)]
        pairs = [(dets[:4], gts[:2]), (dets[4:], gts[2:])]
        calls = []

        def counted(scene_dets, scene_gts):
            calls.append((len(scene_dets), len(scene_gts)))
            return component_error_matrix(scene_dets, scene_gts)

        monkeypatch.setattr(detection, "component_error_matrix", counted)
        rows = ap_sweep(pairs)
        # One (detections x ground truths) error matrix per scene.
        assert calls == [(4, 2), (2, 1)]
        for row in rows:
            alone = evaluate_dataset(pairs, row.thresholds)
            assert row.ap == alone.ap
            assert row.outcome.matches == alone.matches
            assert np.array_equal(row.outcome.precision, alone.precision)
            assert np.array_equal(row.outcome.recall, alone.recall)

    def test_box_only_row(self):
        # The eleven rows: the paper's thresholds, each one relaxed, box
        # IoU alone, and box IoU with each other predicate restored.
        rot = math.pi / 6
        rows = [(r.name, r.thresholds) for r in ap_sweep([([], spread_gts(1))])]
        assert rows == [
            ("all", ThresholdTuple(0.5, 0.25, rot, 1.0, 0.5)),
            ("all-shape", ThresholdTuple(0.5, None, rot, 1.0, 0.5)),
            ("all-rotation", ThresholdTuple(0.5, 0.25, None, 1.0, 0.5)),
            ("all-translation", ThresholdTuple(0.5, 0.25, rot, None, 0.5)),
            ("all-scale", ThresholdTuple(0.5, 0.25, rot, 1.0, None)),
            ("all-box2d", ThresholdTuple(None, 0.25, rot, 1.0, 0.5)),
            ("box2d", ThresholdTuple(0.5, None, None, None, None)),
            ("box2d+shape", ThresholdTuple(0.5, 0.25, None, None, None)),
            ("box2d+rotation", ThresholdTuple(0.5, None, rot, None, None)),
            ("box2d+translation", ThresholdTuple(0.5, None, None, 1.0, None)),
            ("box2d+scale", ThresholdTuple(0.5, None, None, None, 0.5)),
        ]
