"""In-memory span tracer that the benchmark patches around scenefactor's
public functions, and the per-layer metrics derived from its spans.

A span has a name, a start, an end and the index of its parent span.  The
tracer wraps each function where its callers look it up (for example
``scenefactor.compare.icp`` rather than ``scenefactor.registration.icp``),
so no program file changes.  Patches are installed only around traced ops
and removed afterwards; untraced runs never import this module's wrappers.
A patch target that no longer exists is reported as missing, never as an
error, and every metric that depends only on it reads ``None``.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# ---------------------------------------------------------------------------
# Counters computed from a wrapped call's arguments and result.


def _scene_rays(args, kwargs):
    scene = args[0] if args else kwargs["scene"]
    cam = kwargs.get("camera") or scene.camera
    return cam.width * cam.height * len(scene.objects)


# render_depth_analytic is the object render or, without objects, the layout.
_ANALYTIC_NAMES = ("render.analytic", "render.layout")


def _analytic_name(args, kwargs):
    include = args[1] if len(args) > 1 else kwargs.get("include_objects", True)
    return _ANALYTIC_NAMES[0] if include else _ANALYTIC_NAMES[1]


def _count_analytic(tracer, args, kwargs, result):
    if _analytic_name(args, kwargs) == _ANALYTIC_NAMES[0]:
        tracer.counts["render.analytic.rays"] += _scene_rays(args, kwargs)


def _count_voxel(tracer, args, kwargs, result):
    tracer.counts["render.voxel.rays"] += _scene_rays(args, kwargs)


def _count_icp(tracer, args, kwargs, result):
    tracer.counts["registration.icp.iterations"] += result.iterations
    tracer.counts["registration.icp.converged"] += bool(result.converged)


def _count_query(tracer, args, kwargs, result):
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    tracer.counts["registration.nn_query.points"] += len(queries)


def _count_cloud_points(tracer, args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    tracer.counts["render.pointcloud_to_voxels.points"] += len(points)


def _count_centers(tracer, args, kwargs, result):
    tracer.counts["voxels.voxel_centers.points"] += len(result)


def _count_pair(tracer, args, kwargs, result):
    pred = args[0] if args else kwargs["pred"]
    gt = args[1] if len(args) > 1 else kwargs["gt"]
    # Holding the objects keeps their ids unique until the op ends.
    tracer.op_pairs[(id(pred), id(gt))] = (pred, gt)


def _count_scene_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["io_formats.read_scene.bytes"] += os.path.getsize(path)


def _count_placement(tracer, args, kwargs, result):
    tracer.counts["generator.placement_failures"] += bool(result.warnings)


def _span_names(name):
    return _ANALYTIC_NAMES if callable(name) else (name,)

# Patch targets: (module, attribute path, span name, counter).  A function
# imported into several modules is patched in each one that calls it.
_ANALYTIC = ("render_depth_analytic", _analytic_name, _count_analytic)
_VOXEL = ("render_depth_voxel", "render.voxel", _count_voxel)
_TO_CLOUD = ("depth_to_pointcloud", "render.depth_to_pointcloud", None)
_TO_GRID = ("pointcloud_to_voxels", "render.pointcloud_to_voxels", _count_cloud_points)
_COMPOSE = ("compose_scene_voxels", "voxels.compose_scene_voxels", None)
_IOU = ("voxel_iou", "voxels.voxel_iou", None)
_ERRORS = ("component_errors", "metrics.component_errors", _count_pair)
_EVALUATE = ("evaluate_dataset", "detection.evaluate_dataset", None)
_WRITE_PFM = ("write_pfm", "io_formats.write_pfm", None)

TARGETS = [
    ("scenefactor.cli", "main", "cli.main", None),
    ("scenefactor.cli", "compare_representations", "compare.compare_representations", None),
    ("scenefactor.cli", "ap_sweep", "detection.ap_sweep", None),
    ("scenefactor.cli", "generate_scene", "generator.generate_scene", _count_placement),
    ("scenefactor.cli", "read_scene", "io_formats.read_scene", _count_scene_bytes),
    ("scenefactor.cli", "write_scene", "io_formats.write_scene", None),
    ("scenefactor.cli", "read_depth_pfm", "io_formats.read_depth_pfm", None),
    ("scenefactor.cli", "write_voxels", "io_formats.write_voxels", None),
    ("scenefactor.cli", *_WRITE_PFM),
    ("scenefactor.cli", *_EVALUATE),
    ("scenefactor.cli", *_ERRORS),
    ("scenefactor.cli", *_ANALYTIC),
    ("scenefactor.cli", *_VOXEL),
    ("scenefactor.cli", *_TO_CLOUD),
    ("scenefactor.cli", *_TO_GRID),
    ("scenefactor.cli", *_COMPOSE),
    ("scenefactor.io_formats", *_WRITE_PFM),
    # io_formats imports the renderer inside a function, from this module.
    ("scenefactor.render", *_ANALYTIC),
    ("scenefactor.generator", *_ANALYTIC),
    ("scenefactor.compare", "icp", "registration.icp", _count_icp),
    ("scenefactor.compare", "visible_surface_error", "metrics.visible_surface_error", None),
    ("scenefactor.compare", "layout_depth_error", "metrics.layout_depth_error", None),
    ("scenefactor.compare", "voxel_centers", "voxels.voxel_centers", _count_centers),
    ("scenefactor.compare", "voxelize_posed_cuboids", "voxels.voxelize_posed_cuboids", None),
    ("scenefactor.compare", *_ANALYTIC),
    ("scenefactor.compare", *_VOXEL),
    ("scenefactor.compare", *_TO_CLOUD),
    ("scenefactor.compare", *_TO_GRID),
    ("scenefactor.compare", *_COMPOSE),
    ("scenefactor.compare", *_IOU),
    ("scenefactor.metrics", "render_surface_ids", "render.surface_ids", None),
    ("scenefactor.metrics", *_ANALYTIC),
    ("scenefactor.metrics", *_IOU),
    ("scenefactor.registration", "kabsch_align", "registration.kabsch_align", None),
    ("scenefactor.registration", "NNIndex.query", "registration.nn_query", _count_query),
    ("scenefactor.detection", *_ERRORS),
    ("scenefactor.detection", *_EVALUATE),
    ("scenefactor.scene", "resample_to_scene", "voxels.resample_to_scene", None),
]


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op_pairs: dict = {}
        self.ops = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        found = {n for t in targets if self._resolve(t[0], t[1]) for n in _span_names(t[2])}
        self.missing = sorted({n for t in targets for n in _span_names(t[2])} - found)

    @staticmethod
    def _resolve(module_name, attr_path):
        """(owner, attribute, function) for a dotted attribute, or None."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        fn = getattr(owner, attr, None)
        return None if fn is None else (owner, attr, fn)

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1])
            counts[span_name + ".calls"] += 1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self):
        """Trace one op: install every patch, then restore the originals."""
        for module_name, attr_path, name, counter in self.targets:
            found = self._resolve(module_name, attr_path)
            if found is None:
                continue
            owner, attr, fn = found
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))
        try:
            yield
        finally:
            for owner, attr, fn in reversed(self._patches):
                setattr(owner, attr, fn)
            self._patches.clear()
            self._stack.clear()
            self.counts["metrics.component_errors.distinct_pairs"] += len(self.op_pairs)
            self.op_pairs.clear()
            self.ops += 1

    def totals(self) -> tuple[dict, dict]:
        """Total and self time in ms per span name, over every traced op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            total[name] += (end - start) * 1e3
            own[name] += (end - start - child[k]) * 1e3
        return total, own


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better).  Each is a per-traced-op mean.

LAYER_METRICS = [
    ("registration.icp.ms", "ms/op", "lower"),
    ("registration.icp.calls", "calls/op", "lower"),
    ("registration.icp.iterations", "iters/op", "lower"),
    ("registration.icp.converged_frac", "fraction", "higher"),
    ("registration.nn_query.ms", "ms/op", "lower"),
    ("registration.nn_query.calls", "calls/op", "lower"),
    ("registration.nn_query.points", "points/op", "lower"),
    ("registration.kabsch_align.ms", "ms/op", "lower"),
    ("registration.self_ms", "ms/op", "lower"),
    ("render.analytic.ms", "ms/op", "lower"),
    ("render.analytic.rays", "rays/op", "lower"),
    ("render.layout.ms", "ms/op", "lower"),
    ("render.layout.calls", "calls/op", "lower"),
    ("render.voxel.ms", "ms/op", "lower"),
    ("render.voxel.rays", "rays/op", "lower"),
    ("render.surface_ids.ms", "ms/op", "lower"),
    ("render.depth_to_pointcloud.ms", "ms/op", "lower"),
    ("render.pointcloud_to_voxels.ms", "ms/op", "lower"),
    ("render.pointcloud_to_voxels.points", "points/op", "lower"),
    ("voxels.voxel_iou.ms", "ms/op", "lower"),
    ("voxels.voxel_iou.calls", "calls/op", "lower"),
    ("voxels.voxel_centers.ms", "ms/op", "lower"),
    ("voxels.voxel_centers.points", "points/op", "lower"),
    ("voxels.voxelize_posed_cuboids.ms", "ms/op", "lower"),
    ("voxels.resample_to_scene.ms", "ms/op", "lower"),
    ("voxels.compose_scene_voxels.ms", "ms/op", "lower"),
    ("metrics.component_errors.ms", "ms/op", "lower"),
    ("metrics.component_errors.calls", "calls/op", "lower"),
    ("metrics.visible_surface_error.ms", "ms/op", "lower"),
    ("metrics.layout_depth_error.ms", "ms/op", "lower"),
    ("detection.ap_sweep.ms", "ms/op", "lower"),
    ("detection.evaluate_dataset.ms", "ms/op", "lower"),
    ("detection.evaluate_dataset.calls", "calls/op", "lower"),
    ("detection.pair_reuse", "ratio", "higher"),
    ("io_formats.read_scene.ms", "ms/op", "lower"),
    ("io_formats.read_scene.calls", "calls/op", "lower"),
    ("io_formats.read_scene.bytes", "bytes/op", "lower"),
    ("io_formats.write_scene.ms", "ms/op", "lower"),
    ("io_formats.write_pfm.ms", "ms/op", "lower"),
    ("io_formats.read_depth_pfm.ms", "ms/op", "lower"),
    ("io_formats.write_voxels.ms", "ms/op", "lower"),
    ("io_formats.self_ms", "ms/op", "lower"),
    ("generator.generate_scene.ms", "ms/op", "lower"),
    ("generator.generate_scene.calls", "calls/op", "lower"),
    ("generator.placement_failures", "scenes/op", "lower"),
    ("compare.compare_representations.ms", "ms/op", "lower"),
    ("compare.self_ms", "ms/op", "lower"),
    ("cli.main.ms", "ms/op", "lower"),
    ("cli.self_ms", "ms/op", "lower"),
]

# Self time summed over these spans: time in the layer's own code, outside
# every traced callee.  For registration that is the ICP loop around its NN
# queries and Kabsch fits.
_SELF_GROUPS = {
    "registration.self_ms": ("registration.icp",),
    "io_formats.self_ms": ("io_formats.read_scene", "io_formats.write_scene",
                           "io_formats.write_pfm", "io_formats.read_depth_pfm",
                           "io_formats.write_voxels"),
    "compare.self_ms": ("compare.compare_representations",),
    "cli.self_ms": ("cli.main",),
}

# Metrics whose span is not their name minus its last part.
_SPAN_OF = {
    "detection.pair_reuse": "metrics.component_errors",
    "generator.placement_failures": "generator.generate_scene",
    "registration.icp.converged_frac": "registration.icp",
    **{name: spans[0] for name, spans in _SELF_GROUPS.items()},
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Every per-layer metric as a per-traced-op mean; None if missing."""
    total, own = tracer.totals()
    counts = tracer.counts
    ops = max(tracer.ops, 1)
    missing = set(tracer.missing)
    out: dict[str, float | None] = {}
    for name, _, _ in LAYER_METRICS:
        if name in _SELF_GROUPS:
            value = sum(own.get(span, 0.0) for span in _SELF_GROUPS[name]) / ops
        elif name == "registration.icp.converged_frac":
            value = _ratio(counts["registration.icp.converged"],
                           counts["registration.icp.calls"])
        elif name == "detection.pair_reuse":
            value = _ratio(counts["metrics.component_errors.distinct_pairs"],
                           counts["metrics.component_errors.calls"])
        elif name.endswith(".ms"):
            value = total.get(name[:-3], 0.0) / ops
        else:
            value = counts[name] / ops
        out[name] = None if _SPAN_OF.get(name, name.rsplit(".", 1)[0]) in missing else value
    return out
