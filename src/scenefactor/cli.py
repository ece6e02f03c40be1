"""Command-line surface tying the modules into reproducible pipelines.

Commands: ``gen`` (synthetic scenes), ``render`` (depth/disparity/layout),
``convert`` (a factored scene to scene voxels; a depth map to voxels or a
point cloud), ``eval`` (component metrics with summary columns), ``ap``
(detection AP with the relaxation sweep), ``compare-reps`` (the five-task
cross-representation evaluation of a directory of scenes, as CSV), and
``grad-check`` (loss-kernel gradient verification).

Exit codes: 0 success, 1 validation failure, 2 I/O failure.  Diagnostics
go to stderr; files are written atomically.  Every command driven by a
``--seed`` is byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import registration
from .compare import REPRESENTATIONS, compare_representations, cumulative_curve
from .detection import DEFAULT_THRESHOLDS, ap_sweep
from .generator import GeneratorConfig, generate_scene
from .geometry import DEFAULT_CAMERA
from .io_formats import (
    MAX_IMAGE_SIDE,
    atomic_write_text,
    load_json,
    read_camera,
    read_depth_pfm,
    read_scene,
    write_pfm,
    write_pointcloud_csv,
    write_scene,
    write_voxels,
)
from .losses import gradient_report
# component_errors is unused here, but bench/tracer.py patches it under
# this module's name.
from .metrics import component_error_matrix, component_errors, summarize
from .render import (
    depth_to_disparity,
    depth_to_pointcloud,
    pointcloud_to_voxels,
    render_depth_analytic,
    render_depth_voxel,
)
from .scene import compose_scene_voxels
from .voxels import OCCUPANCY_THRESHOLD

__all__ = ["main"]


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_json(path, doc) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _scene_files(spec: str) -> list[Path]:
    p = Path(spec)
    if p.is_dir():
        files = sorted(p.glob("*.json"))
        if not files:
            raise ValueError(f"no scene JSON files in {p}")
        return files
    if not p.exists():
        raise FileNotFoundError(f"no such file or directory: {p}")
    return [p]


# ---------------------------------------------------------------------------
# gen

def _cmd_gen(args) -> int:
    overrides = {}
    if args.config:
        overrides = load_json(args.config)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: the config must be a JSON object")
        # --seed sets the seed and --width/--height the camera.
        known = {f.name for f in fields(GeneratorConfig)} - {"seed", "camera"}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ValueError(f"{args.config}: {unknown[0]!r} is not a GeneratorConfig field "
                             "that --config can set")
    if args.objects is not None:
        overrides["object_count_range"] = args.objects
    if args.width or args.height:
        overrides["camera"] = DEFAULT_CAMERA.scaled(args.width or 64, args.height or 48)
    try:
        config = GeneratorConfig(seed=args.seed, **overrides)
    except (TypeError, ValueError, OverflowError) as exc:
        # The parser has checked --seed, --objects and the image size, so
        # only a --config value can be rejected here.
        raise ValueError(f"{args.config}: {exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        scene = generate_scene(replace(config, seed=args.seed + i))
        out = out_dir / f"scene_{args.seed + i:05d}.json"
        write_scene(scene, out)
        for warning in scene.warnings:
            _log(f"{out.name}: {warning}")
    _log(f"wrote {args.count} scene(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# render

def _cmd_render(args) -> int:
    if args.what == "layout" and args.method == "voxel":
        raise ValueError("the layout renders analytically only; drop --method voxel")
    scene = read_scene(args.scene)
    if args.what == "layout":
        depth = render_depth_analytic(scene, include_objects=False)
    elif args.method == "analytic":
        depth = render_depth_analytic(scene, include_objects=True)
    else:
        depth = render_depth_voxel(scene)
    if args.unit == "disparity":
        write_pfm(args.out, depth_to_disparity(depth).disparity)
    else:
        write_pfm(args.out, depth.depth)
    return 0


# ---------------------------------------------------------------------------
# convert

def _cmd_convert(args) -> int:
    if args.scene and args.depth:
        raise ValueError("pass either --scene or --depth, not both")
    if not (args.scene or args.depth):
        raise ValueError("convert needs --scene or --depth")
    # A scene converts only to scene voxels, a depth map only to the others.
    if (args.to == "scene-voxels") != bool(args.scene):
        source = "a scene" if args.scene else "a depth map"
        raise ValueError(f"cannot convert {source} to {args.to!r}")
    if args.scene:
        write_voxels(args.out, compose_scene_voxels(read_scene(args.scene)))
        return 0
    if not args.camera_scene:
        raise ValueError("--depth input needs --camera-scene for intrinsics")
    camera = read_camera(args.camera_scene)
    points = depth_to_pointcloud(read_depth_pfm(args.depth, camera))
    if args.to == "voxels":
        write_voxels(args.out, pointcloud_to_voxels(points))
    else:
        write_pointcloud_csv(args.out, points)
    return 0


# ---------------------------------------------------------------------------
# eval

def _paired_scenes(pred_spec: str, gt_spec: str):
    """Yield (prediction, ground truth, name) per ground-truth file, in
    file order, reading each pair when it is asked for.

    Two single files form one pair; otherwise files pair by stem, and a
    stem found on one side only is an error.
    """
    pred_files = _scene_files(pred_spec)
    gt_files = _scene_files(gt_spec)
    if Path(pred_spec).is_dir() or Path(gt_spec).is_dir():
        preds = {f.stem: f for f in pred_files}
        unmatched = sorted(set(preds) ^ {g.stem for g in gt_files})
        if unmatched:
            stem = unmatched[0]
            raise ValueError(f"unmatched scene {stem!r}: no {stem}.json in "
                             f"{gt_spec if stem in preds else pred_spec}")
        pred_files = [preds[g.stem] for g in gt_files]
    for p, g in zip(pred_files, gt_files):
        yield read_scene(p), read_scene(g), g.stem


def _cmd_eval(args) -> int:
    per_instance = []
    for pred_scene, gt_scene, name in _paired_scenes(args.pred, args.gt):
        if len(pred_scene.objects) != len(gt_scene.objects):
            raise ValueError(
                f"{name}: object counts differ "
                f"({len(pred_scene.objects)} vs {len(gt_scene.objects)}); "
                "eval pairs objects by index")
        matrix = component_error_matrix(pred_scene.objects, gt_scene.objects)
        for i, g in enumerate(gt_scene.objects):
            err = matrix[i][i]
            per_instance.append({
                "scene": name, "index": i, "class_label": g.class_label,
                "shape_iou": err.shape_iou, "rot_err_rad": err.rot_err,
                "trans_err_m": err.trans_err, "scale_err_log2": err.scale_err,
                "box_iou": err.box_iou,
            })
    if not per_instance:
        raise ValueError("no object instances to evaluate")

    def stats(key, threshold, direction, units):
        s = summarize([r[key] for r in per_instance], threshold, direction)
        return {"median": s.median, "fraction_within": s.fraction_within,
                "threshold": s.threshold, "direction": s.direction, "units": units}

    t = DEFAULT_THRESHOLDS
    summary = {
        "shape": stats("shape_iou", t.shape, "above", "iou"),
        "rotation": stats("rot_err_rad", t.rotation, "below", "radians"),
        "translation": stats("trans_err_m", t.translation, "below", "meters"),
        "scale": stats("scale_err_log2", t.scale, "below", "log2"),
    }
    boxed = all(r["box_iou"] is not None for r in per_instance)
    summary["box2d"] = stats("box_iou", t.box2d, "above", "iou") if boxed else None

    report = {"format_version": 1, "tau": OCCUPANCY_THRESHOLD, "count": len(per_instance),
              "per_instance": per_instance, "summary": summary}
    _write_json(args.out, report)
    if args.csv:
        rows = [[name, s["median"], s["fraction_within"], s["threshold"], s["direction"],
                 s["units"]]
                for name, s in summary.items() if s is not None]
        _write_csv(args.csv, ["component", "median", "fraction_within", "threshold",
                              "direction", "units"], rows)
    med_deg = math.degrees(summary["rotation"]["median"])
    _log(f"evaluated {len(per_instance)} instances; median rotation error "
         f"{med_deg:.2f} deg (report stores radians)")
    return 0


# ---------------------------------------------------------------------------
# ap

def _cmd_ap(args) -> int:
    pairs = [(list(d.objects), list(g.objects)) for d, g, _ in _paired_scenes(args.dets, args.gt)]
    rows = []
    for row in ap_sweep(pairs):
        rows.append({
            "name": row.name,
            "thresholds": asdict(row.thresholds),
            "ap": row.ap,
            "precision": row.outcome.precision.tolist(),
            "recall": row.outcome.recall.tolist(),
        })
    n_gt = sum(len(g) for _, g in pairs)
    n_det = sum(len(d) for d, _ in pairs)
    report = {"format_version": 1, "tau": OCCUPANCY_THRESHOLD, "n_gt": n_gt,
              "n_detections": n_det, "rows": rows}
    _write_json(args.out, report)
    if args.csv:
        _write_csv(args.csv, ["name", "ap"], [[r["name"], r["ap"]] for r in rows])
    _log(f"AP over {n_det} detections / {n_gt} ground truths: "
         + ", ".join(f"{r['name']}={r['ap']:.3f}" for r in rows[:1]))
    return 0


# ---------------------------------------------------------------------------
# compare-reps

def _cmd_compare_reps(args) -> int:
    scenes = [(f.stem, read_scene(f)) for f in _scene_files(args.scenes)]
    rows = []
    for name, scene in scenes:
        try:
            rows.extend(compare_representations(scene, name))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
    # compare_representations leaves out registrations of empty or one-cell
    # shapes and of empty clouds, and curves.csv leaves out non-finite
    # values; both are counted, as are the registrations that stopped
    # without converging.
    registrations = len(REPRESENTATIONS) * sum(len(scene.objects) for _, scene in scenes)
    stops = Counter(r.icp_stop for r in rows if r.task == "object_fitness")
    skipped = registrations - stops.total()
    nonfinite = sum(not math.isfinite(r.value) for r in rows)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "values.csv",
               ["scene", "task", "representation", "object_index", "value"],
               [[r.scene_id, r.task, r.representation,
                 "" if r.object_index is None else r.object_index, repr(r.value)]
                for r in rows])
    curve_rows = []
    for task in sorted({r.task for r in rows}):
        for rep in sorted({r.representation for r in rows if r.task == task}):
            values = [r.value for r in rows if r.task == task and r.representation == rep
                      and math.isfinite(r.value)]
            xs, fracs = cumulative_curve(values)
            curve_rows.extend([[task, rep, repr(float(x)), repr(float(f))]
                               for x, f in zip(xs, fracs)])
    _write_csv(out_dir / "curves.csv", ["task", "representation", "value", "fraction"],
               curve_rows)
    _log(f"compared {len(scenes)} scene(s); skipped {skipped} of {registrations} object "
         f"registration(s) (empty or one-cell shape, or empty cloud); "
         f"{stops['max_iter']} stopped at ICP_MAX_ITER = {registration.ICP_MAX_ITER} "
         f"without converging and "
         f"{stops['degenerate']} on degenerate correspondences; left {nonfinite} "
         f"non-finite value(s) out of curves.csv; wrote values.csv and curves.csv to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# grad-check

def _cmd_grad_check(args) -> int:
    report = gradient_report(seed=args.seed, n_points=args.points)
    _write_json(args.out, report)
    for entry in report["kernels"]:
        status = "ok" if entry["passed"] else "FAIL"
        _log(f"{entry['kernel']}: max rel err {entry['max_rel_err']:.3e} [{status}]")
    if not report["all_passed"]:
        _log("gradient verification failed")
        return 1
    return 0


# ---------------------------------------------------------------------------

def _positive_int(value: str) -> int:
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {n}")
    return n


def _non_negative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {n}")
    return n


class _CountRange(argparse.Action):
    """Stores ``LO HI`` as a tuple; a usage error unless LO <= HI."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values[0] > values[1]:
            raise argparse.ArgumentError(
                self, f"LO must not exceed HI, got {values[0]} {values[1]}")
        setattr(namespace, self.dest, tuple(values))


def _image_side(value: str) -> int:
    n = _positive_int(value)
    if n > MAX_IMAGE_SIDE:
        raise argparse.ArgumentTypeError(f"image sides are at most {MAX_IMAGE_SIDE}, got {n}")
    return n


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves no state on
    it (``_CountRange`` writes only to the namespace)."""
    parser = argparse.ArgumentParser(prog="scenefactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic ground-truth scenes")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--objects", type=_non_negative_int, nargs=2, metavar=("LO", "HI"),
                   action=_CountRange)
    p.add_argument("--width", type=_image_side)
    p.add_argument("--height", type=_image_side)
    p.add_argument("--config", help="JSON file with GeneratorConfig fields")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("render", help="render depth/disparity from a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--what", choices=["visible", "layout"], default="visible")
    p.add_argument("--method", choices=["analytic", "voxel"], default="analytic")
    p.add_argument("--unit", choices=["depth", "disparity"], default="depth")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--scene")
    p.add_argument("--depth")
    p.add_argument("--camera-scene", help="scene JSON supplying intrinsics for --depth")
    p.add_argument("--to", required=True,
                   choices=["scene-voxels", "voxels", "pointcloud"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("eval", help="component metrics for paired scenes")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ap", help="detection AP with the relaxation sweep")
    p.add_argument("--dets", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_ap)

    p = sub.add_parser("compare-reps", help="five-task representation comparison")
    p.add_argument("--scenes", required=True, help="directory of scene JSON files")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_compare_reps)

    p = sub.add_parser("grad-check", help="verify loss-kernel gradients")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--points", type=_positive_int, default=100)
    p.set_defaults(func=_cmd_grad_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        _log(f"error: {exc}")
        return 1
    except OSError as exc:
        _log(f"i/o error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
