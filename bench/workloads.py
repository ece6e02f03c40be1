"""The benchmark's workloads: seeded inputs, one op through
``scenefactor.cli.main``, and a check of every output the op writes.

Each workload builds its inputs from the run's seed with public API only
(``generate_scene``, ``SceneObject``, ``Pose``, ``write_scene``), so the
program receives nothing but generated files.  Why each workload exists:

* ``compare-reps``: ICP does most of the work here and none in the other
  two, so it is where registration changes show.
* ``render-640``: the ray kernels do most of the work at 640x480, and the op
  writes and reads scene JSON, PFM and FVOX at full size.
* ``ap-eval``: many file reads plus five-predicate detection matching, with
  no ICP and no full-resolution rendering.

A tiny instance of each workload (``tiny=True``) runs the same op on the
smallest inputs: it is the benchmark's untimed warm-up op and the input of
its smoke tests.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.resources
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scenefactor import (
    FactoredScene,
    GeneratorConfig,
    Pose,
    SceneObject,
    UnitQuaternion,
    VoxelGrid,
    generate_scene,
)
from scenefactor.io_formats import read_scene, write_scene


# Generator settings for every workload's scenes: mid-size furniture (chair,
# desk, table) without the bed or sofa anchor of the default mix.  The cost
# of ICP on one bed or sofa ranges 2.5-9.5 s with its pose, and a run covers
# few scenes, so default scenes made runs differ by ~30% between seeds.
FURNITURE = {"anchor_classes": [], "class_mix": {"chair": 1.0, "desk": 1.0, "table": 1.0}}
# One piece per compare-reps scene: a scene's ICP cost varies as much with
# one piece as with four, so single pieces give four times the ops per run.
PIECE = {**FURNITURE, "object_count_range": [1, 1]}
ROOM = {**FURNITURE, "object_count_range": [4, 4]}


class OpFailed(Exception):
    """The CLI returned non-zero, or an output failed its check."""


def cli(*argv) -> None:
    """Run one CLI command in-process; raise OpFailed unless it exits 0."""
    # Looked up on every call, so a patch on ``main`` (the tracer) applies.
    from scenefactor import cli as program

    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = program.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    if code != 0:
        raise OpFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailed(message)


def read_pfm(path: Path) -> np.ndarray:
    """Grayscale PFM as float32, top row first.  Independent of the
    program's reader, so a defect there cannot hide one in the writer."""
    magic, size, scale, payload = path.read_bytes().split(b"\n", 3)
    expect(magic == b"Pf", f"{path.name}: magic {magic!r}, expected b'Pf'")
    width, height = (int(v) for v in size.split())
    expect(len(payload) == 4 * width * height,
           f"{path.name}: {len(payload)} payload bytes for {width}x{height}")
    img = np.frombuffer(payload, dtype="<f4" if float(scale) < 0 else ">f4")
    return np.flipud(img.reshape(height, width))


def check_fvox(path: Path, dims: tuple[int, int, int]) -> None:
    head = path.read_bytes()[:20]
    expect(head[:4] == b"FVOX", f"{path.name}: bad magic {head[:4]!r}")
    found = tuple(int(v) for v in np.frombuffer(head[8:20], dtype="<u4"))
    expect(found == dims, f"{path.name}: dims {found}, expected {dims}")


def digest(files: list[Path]) -> str:
    """sha256 over each output's name and bytes, in the op's order."""
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def derived_seeds(seed: int, stream: int, n: int) -> list[int]:
    """n generator seeds drawn from (seed, stream)."""
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


@dataclass
class OpOutput:
    scenes: int
    files: list[Path]


# ---------------------------------------------------------------------------


class CompareReps:
    """One op: ``compare-reps --scenes <dir>`` on one 64x48 scene holding one
    PIECE of furniture.  Ops cycle through a pool of distinct scenes."""

    name = "compare-reps"
    POOL = 32

    def __init__(self, seed: int, root: Path, tiny: bool = False):
        self.root = root
        self.tiny = tiny
        self.seeds = derived_seeds(seed, 1, 2 if tiny else self.POOL)
        self.objects: list[int] = []

    def _config(self, seed: int) -> GeneratorConfig:
        if self.tiny:  # one small object: a television panel
            return GeneratorConfig(seed=seed, object_count_range=(1, 1), anchor_classes=(),
                                   class_mix={"television": 1.0})
        return GeneratorConfig(seed=seed, **PIECE)

    def _scene_dir(self, i: int) -> Path:
        return self.root / "inputs" / f"scene_{i % len(self.seeds):02d}"

    def build(self) -> None:
        for k, seed in enumerate(self.seeds):
            scene = generate_scene(self._config(seed))
            self._scene_dir(k).mkdir(parents=True)
            write_scene(scene, self._scene_dir(k) / f"scene_{seed:010d}.json")
            self.objects.append(len(scene.objects))

    def op(self, i: int, out: Path) -> OpOutput:
        cli("compare-reps", "--scenes", self._scene_dir(i), "--out-dir", out)
        return OpOutput(1, [out / "values.csv", out / "curves.csv"])

    def check(self, i: int, result: OpOutput) -> None:
        n = self.objects[i % len(self.seeds)]
        with open(result.files[0], newline="") as handle:
            rows = list(csv.DictReader(handle))
        expect(len(rows) == 10 + 3 * n, f"values.csv has {len(rows)} rows, expected {10 + 3 * n}")

        def value(task, rep):
            found = [float(r["value"]) for r in rows
                     if r["task"] == task and r["representation"] == rep]
            expect(len(found) == 1, f"{len(found)} {task}/{rep} rows, expected 1")
            return found[0]

        iou = value("scene_voxel_iou", "voxels")
        expect(iou == 1.0, f"scene_voxel_iou of voxels is {iou}, expected 1.0")
        err = value("visible_depth", "depth")
        expect(err == 0.0, f"visible_depth of depth is {err}, expected 0.0")
        fitness = [float(r["value"]) for r in rows if r["task"] == "object_fitness"]
        expect(len(fitness) == 3 * n, f"{len(fitness)} object_fitness rows, expected {3 * n}")
        expect(all(math.isfinite(f) and f >= 0.0 for f in fitness),
               f"object_fitness not finite and >= 0: {fitness}")
        expect(result.files[1].read_text().startswith("task,representation,value,fraction\n"),
               "curves.csv header")


class Render640:
    """One op: a ROOM scene generated at 640x480, rendered analytic,
    voxel and as layout disparity, converted to scene voxels, and its voxel
    depth converted to voxels and to a point cloud."""

    name = "render-640"
    SCENE_DIMS = (64, 32, 64)
    POOL = 12

    def __init__(self, seed: int, root: Path, tiny: bool = False):
        self.root = root
        self.width, self.height = (64, 48) if tiny else (640, 480)
        self.seeds = derived_seeds(seed, 2, 2 if tiny else self.POOL)

    def build(self) -> None:
        self.root.mkdir(parents=True)
        (self.root / "room.json").write_text(json.dumps(ROOM))

    def op(self, i: int, out: Path) -> OpOutput:
        seed = self.seeds[i % len(self.seeds)]
        cli("gen", "--seed", seed, "--width", self.width, "--height", self.height,
            "--count", 1, "--config", self.root / "room.json", "--out-dir", out)
        scene = out / f"scene_{seed:05d}.json"
        analytic, voxel, layout = out / "analytic.pfm", out / "voxel.pfm", out / "layout.pfm"
        cli("render", "--scene", scene, "--out", analytic)
        cli("render", "--scene", scene, "--out", voxel, "--method", "voxel")
        cli("render", "--scene", scene, "--out", layout, "--what", "layout",
            "--unit", "disparity")
        cli("convert", "--scene", scene, "--to", "scene-voxels", "--out", out / "scene.fvox")
        cli("convert", "--depth", voxel, "--camera-scene", scene, "--to", "voxels",
            "--out", out / "depth.fvox")
        cli("convert", "--depth", voxel, "--camera-scene", scene, "--to", "pointcloud",
            "--out", out / "points.csv")
        return OpOutput(1, [scene, analytic, voxel, layout, out / "scene.fvox",
                            out / "depth.fvox", out / "points.csv"])

    def check(self, i: int, result: OpOutput) -> None:
        scene_file, analytic_file, voxel_file, layout_file, *_ = result.files
        analytic, voxel, layout = (read_pfm(f) for f in (analytic_file, voxel_file, layout_file))
        for f, img in ((analytic_file, analytic), (voxel_file, voxel), (layout_file, layout)):
            expect(img.shape == (self.height, self.width),
                   f"{f.name} is {img.shape}, expected {(self.height, self.width)}")
        # The generator's solids lie on the voxel lattice, so both renderers
        # see the same surfaces; they may differ only by float32 rounding.
        ulp = np.spacing(np.maximum(analytic, voxel))
        bad = int(np.count_nonzero(np.abs(analytic - voxel) > ulp))
        expect(bad == 0, f"analytic and voxel depth differ on {bad} pixels")
        stored = read_scene(scene_file).layout.disparity.astype(np.float32)
        expect(np.array_equal(layout, stored), "layout disparity differs from the scene's layout")
        check_fvox(result.files[4], self.SCENE_DIMS)
        check_fvox(result.files[5], self.SCENE_DIMS)
        with open(result.files[6], "rb") as handle:
            lines = sum(1 for _ in handle)
        expect(lines == 1 + np.count_nonzero(voxel),
               f"points.csv has {lines} lines, expected {1 + np.count_nonzero(voxel)}")


def _perturbed(obj: SceneObject, rng: np.random.Generator, width: int,
               height: int) -> SceneObject:
    """A detection of ``obj`` whose errors straddle every default threshold:
    rotation pi/6, translation 1 m, scale 0.5 log2, shape IoU 0.25 and box
    IoU 0.5."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    half = rng.uniform(0.0, math.pi / 3.0) / 2.0
    a = np.array([math.cos(half), *(math.sin(half) * axis)])
    q = obj.pose.rotation
    b = np.array([q.w, q.x, q.y, q.z])
    product = [a[0] * b[0] - a[1:] @ b[1:],
               *(a[0] * b[1:] + b[0] * a[1:] + np.cross(a[1:], b[1:]))]
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    pose = Pose(obj.pose.scale * 2.0 ** rng.uniform(-1.0, 1.0, size=3),
                UnitQuaternion.normalized(product),
                obj.pose.translation + rng.uniform(0.0, 2.0) * direction)
    shape = VoxelGrid.canonical(np.roll(obj.shape.occupancy, int(rng.integers(0, 12)),
                                        axis=int(rng.integers(0, 3))))
    x0, y0, x1, y1 = obj.box2d
    dx, dy = rng.uniform(-0.6, 0.6, size=2) * (x1 - x0, y1 - y0)
    # The shift is under the box size, so the clipped box is never empty.
    box = (max(0.0, x0 + dx), max(0.0, y0 + dy), min(width, x1 + dx), min(height, y1 + dy))
    return SceneObject(shape, pose, score=rng.uniform(0.05, 1.0),
                       class_label=obj.class_label, box2d=box)


class ApEval:
    """One op: ``eval`` of predictions and ``ap`` of detections against a
    dataset of ROOM ground-truth scenes.  Each ground-truth object gets
    three perturbed detections and one perturbed prediction, written under
    the ground truth's file stem."""

    name = "ap-eval"
    AP_ROWS = 11
    SCENES = 30

    def __init__(self, seed: int, root: Path, tiny: bool = False):
        self.root = root
        self.seed = seed
        self.seeds = derived_seeds(seed, 3, 2 if tiny else self.SCENES)
        self.n_gt = 0
        self.n_det = 0

    def build(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        for sub in ("gt", "dets", "preds"):
            (self.root / sub).mkdir(parents=True)
        for k, seed in enumerate(self.seeds):
            gt = generate_scene(GeneratorConfig(seed=seed, **ROOM))
            cam = gt.camera
            dets = [_perturbed(o, rng, cam.width, cam.height) for o in gt.objects for _ in range(3)]
            preds = [_perturbed(o, rng, cam.width, cam.height) for o in gt.objects]
            stem = f"scene_{k:03d}.json"
            write_scene(gt, self.root / "gt" / stem)
            for sub, objects in (("dets", dets), ("preds", preds)):
                scene = FactoredScene(camera=cam, objects=objects, layout=gt.layout, room=gt.room)
                write_scene(scene, self.root / sub / stem)
            self.n_gt += len(gt.objects)
            self.n_det += len(dets)

    def op(self, i: int, out: Path) -> OpOutput:
        cli("eval", "--pred", self.root / "preds", "--gt", self.root / "gt",
            "--out", out / "eval.json", "--csv", out / "eval.csv")
        cli("ap", "--dets", self.root / "dets", "--gt", self.root / "gt",
            "--out", out / "ap.json", "--csv", out / "ap.csv")
        return OpOutput(len(self.seeds), [out / "eval.json", out / "eval.csv",
                                          out / "ap.json", out / "ap.csv"])

    def check(self, i: int, result: OpOutput) -> None:
        import jsonschema

        eval_report = json.loads(result.files[0].read_text())
        ap_report = json.loads(result.files[2].read_text())
        schemas = importlib.resources.files("scenefactor") / "schemas"
        for report, schema in ((eval_report, "eval_report.schema.json"),
                               (ap_report, "ap_report.schema.json")):
            try:
                jsonschema.validate(report, json.loads((schemas / schema).read_text()))
            except jsonschema.ValidationError as exc:
                raise OpFailed(f"report does not match {schema}: {exc.message}") from exc
        expect(eval_report["count"] == self.n_gt,
               f"eval count {eval_report['count']}, expected {self.n_gt}")
        expect(ap_report["n_gt"] == self.n_gt and ap_report["n_detections"] == self.n_det,
               "ap report counts differ from the dataset")
        aps = [row["ap"] for row in ap_report["rows"]]
        expect(len(aps) == self.AP_ROWS, f"{len(aps)} AP rows, expected {self.AP_ROWS}")
        expect(all(0.0 <= a <= 1.0 for a in aps), f"AP outside [0, 1]: {aps}")
        lines = result.files[3].read_text().splitlines()
        expect(len(lines) == 1 + self.AP_ROWS, f"ap.csv has {len(lines)} lines")


WORKLOADS = {w.name: w for w in (CompareReps, Render640, ApEval)}
