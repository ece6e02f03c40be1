"""Golden digests: seeded CLI outputs must stay byte-identical.

A change that alters a metric on purpose updates these digests and says so;
any other change must reproduce them exactly.
"""

import hashlib
import json

import numpy as np
import pytest

from scenefactor.cli import main
from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import Pose, rotation_about_y
from scenefactor.io_formats import write_scene
from scenefactor.scene import FactoredScene, SceneObject
from scenefactor.voxels import VoxelGrid

COMPARE_REPS_SHA256 = {
    "values.csv": "ea5e4d078347fadca8597b0deac180548c62e204e3184ed3f6af284ccb9924af",
    "curves.csv": "4b04eaf97b9cb85a2722a257d9ef5f8a624fb3d9e99153339f2797314c92855c",
}

FURNITURE = {"anchor_classes": [], "class_mix": {"chair": 1.0, "desk": 1.0, "table": 1.0}}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


def test_compare_reps_digests(tmp_path):
    # Two objects per scene: six registrations each, more than the CPUs.
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for seed in (3, 4):
        config = GeneratorConfig(seed=seed, object_count_range=(2, 2), anchor_classes=(),
                                 class_mix={"chair": 1.0, "desk": 1.0, "table": 1.0})
        write_scene(generate_scene(config), scenes / f"s{seed}.json")
    out = tmp_path / "out"
    assert main(["compare-reps", "--scenes", str(scenes), "--out-dir", str(out)]) == 0
    digests = {name: sha256(out / name) for name in COMPARE_REPS_SHA256}
    assert digests == COMPARE_REPS_SHA256


# ---------------------------------------------------------------------------
# gen, render and convert on two 64x48 three-piece scenes.

# Scene JSON bytes embed zlib's deflate output for each voxel payload, so
# these digests (and the two scene files in WIDE_SHA256) hold for the zlib
# they were recorded with: zlib.ZLIB_RUNTIME_VERSION 1.2.13.
GEN_SHA256 = {
    "scene_00007.json": "175edf8a993e1e0b2c4623950b73cdeff448ca95ec071ed76c03632a6dffe5c1",
    "scene_00008.json": "ece72050330d51dc244d98cfd9ef70914047747dd718d60f08f5b0829d66d02c",
}

RENDER_CONVERT_SHA256 = {
    "analytic.pfm": "4aebfc70bf7082e1028ec8dacd60615bee1d6ead921c04487a72a1ec667bed95",
    "voxel.pfm": "4aebfc70bf7082e1028ec8dacd60615bee1d6ead921c04487a72a1ec667bed95",
    "layout.pfm": "d4ffbe93231ce7ac5580fae61295abbf5e099f912ffa10b7cbcfbfc70162c636",
    "scene.fvox": "e62df10fe3a99bbab6b6e96dbf8a5ecdb9870bffd611ba99bbf9c4df2cc31436",
    "depth.fvox": "e08a215ea9f432513517c0589a8ce467dd5eeb2a723c6315d5418e29e78c8ba3",
    "points.csv": "9aecc7092a0d2f10d4f1ebc5e9fb3176b05ebc025046dc7b66d6e41de8528b0d",
}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = root / "furniture.json"
    config.write_text(json.dumps(FURNITURE))
    out = root / "gen"
    run("gen", "--seed", 7, "--count", 2, "--objects", 3, 3, "--config", config,
        "--out-dir", out)
    return out


def test_gen_digests(generated):
    assert {name: sha256(generated / name) for name in GEN_SHA256} == GEN_SHA256


def test_render_and_convert_digests(generated, tmp_path):
    scene = generated / "scene_00007.json"
    voxel = tmp_path / "voxel.pfm"
    run("render", "--scene", scene, "--out", tmp_path / "analytic.pfm")
    run("render", "--scene", scene, "--out", voxel, "--method", "voxel")
    run("render", "--scene", scene, "--out", tmp_path / "layout.pfm", "--what", "layout",
        "--unit", "disparity")
    run("convert", "--scene", scene, "--to", "scene-voxels", "--out", tmp_path / "scene.fvox")
    run("convert", "--depth", voxel, "--camera-scene", scene, "--to", "voxels",
        "--out", tmp_path / "depth.fvox")
    run("convert", "--depth", voxel, "--camera-scene", scene, "--to", "pointcloud",
        "--out", tmp_path / "points.csv")
    digests = {name: sha256(tmp_path / name) for name in RENDER_CONVERT_SHA256}
    assert digests == RENDER_CONVERT_SHA256


# ---------------------------------------------------------------------------
# gen, render and convert on two 333x217 default-mix scenes: a size that is
# neither square nor a multiple of 64x48, with objects cut by the image border.

WIDE_SHA256 = {
    "scene_00012.json": "a4dadffd8c58a34f1813b49fd80e5271dbb65d0039daec9a234cd81c519de25a",
    "scene_00013.json": "54c7565ef7626566fe39f88144518b6a0dbf947a71b405c6ca4b7cba293bf3ce",
    "analytic_00012.pfm": "a4556c3e14aefa87edc1684e3b62815ca91636bf218aefad5c1410d46035dde8",
    "voxel_00012.pfm": "a4556c3e14aefa87edc1684e3b62815ca91636bf218aefad5c1410d46035dde8",
    "layout_00012.pfm": "594bfebcff5f78b0617b7f4a409fcaaec65f3f0910bac18f246811c53751e94a",
    "analytic_00013.pfm": "630699ec31388db084d673f0258d54a6d143e7203b57048ad570c4da69f7c10f",
    "voxel_00013.pfm": "630699ec31388db084d673f0258d54a6d143e7203b57048ad570c4da69f7c10f",
    "layout_00013.pfm": "a389d4bdf25a70e7cc254fb532bdd2de8abb289107448aafa661fb29bc885755",
    "points_00012.csv": "ef1d1abcd91b8dc10f2caf87ac8f5496a86e1b92cbb9f3d244bf6105fb8e3234",
    "depth_00012.fvox": "298885041c5afa4f9cc5ed2ec20904f6164f5a1d783978b7cca32b889f3bd96f",
    "points_00013.csv": "bc18fc4bbba863283958c644e4464f47564d0fc2b5b784a3ef4d2292ac24809a",
    "depth_00013.fvox": "55ce7f8f9e25a7b63082cbd5066f0c9f5c4327ab7189d8d1b83d54568ba96227",
}


def test_non_square_render_digests(tmp_path):
    run("gen", "--seed", 12, "--count", 2, "--width", 333, "--height", 217,
        "--out-dir", tmp_path)
    for seed in (12, 13):
        scene = tmp_path / f"scene_{seed:05d}.json"
        run("render", "--scene", scene, "--out", tmp_path / f"analytic_{seed:05d}.pfm")
        run("render", "--scene", scene, "--out", tmp_path / f"voxel_{seed:05d}.pfm",
            "--method", "voxel")
        run("render", "--scene", scene, "--out", tmp_path / f"layout_{seed:05d}.pfm",
            "--what", "layout", "--unit", "disparity")
        for to, out in (("pointcloud", f"points_{seed:05d}.csv"),
                        ("voxels", f"depth_{seed:05d}.fvox")):
            run("convert", "--depth", tmp_path / f"voxel_{seed:05d}.pfm", "--camera-scene",
                scene, "--to", to, "--out", tmp_path / out)
    assert {name: sha256(tmp_path / name) for name in WIDE_SHA256} == WIDE_SHA256


# ---------------------------------------------------------------------------
# eval and ap on perturbed predictions and detections of three scenes.

EVAL_AP_SHA256 = {
    "eval.json": "8a7aa8c8b6dc12fa1a0d1c5bcc0108fae0f29d47c3770d6f5f8120e3032ad2e2",
    "eval.csv": "ea3edbcda1b0b7501a22289eabda43559ab5ac352b6692b91f3d6e20048f36e4",
    "ap.json": "9324d41062eeda7bede219be832d4638b49c2fc9f8932880d70e7a82c01c0f85",
    "ap.csv": "48338657603d548616d0d1023038916cc13812855cb9c9b4fe1d6454e748277f",
}


def _perturbed(obj: SceneObject, rng: np.random.Generator, scene: FactoredScene) -> SceneObject:
    """A copy of ``obj`` whose errors straddle the default thresholds."""
    theta = rng.uniform(-1.0, 1.0)
    pose = Pose(obj.pose.scale * 2.0 ** rng.uniform(-0.8, 0.8, size=3),
                rotation_about_y(theta) if rng.random() < 0.5 else obj.pose.rotation,
                obj.pose.translation + rng.uniform(-0.8, 0.8, size=3))
    shape = VoxelGrid.canonical(np.roll(obj.shape.occupancy, int(rng.integers(0, 16)),
                                        axis=int(rng.integers(0, 3))))
    x0, y0, x1, y1 = obj.box2d
    dx, dy = rng.uniform(-0.5, 0.5, size=2) * (x1 - x0, y1 - y0)
    box = (max(0.0, x0 + dx), max(0.0, y0 + dy),
           min(scene.camera.width, x1 + dx), min(scene.camera.height, y1 + dy))
    return SceneObject(shape, pose, score=round(rng.uniform(0.05, 1.0), 2),
                       class_label=obj.class_label, box2d=box)


def test_eval_and_ap_digests(tmp_path):
    rng = np.random.default_rng(11)
    for sub in ("gt", "dets", "preds"):
        (tmp_path / sub).mkdir()
    for k, seed in enumerate((20, 21, 22)):
        gt = generate_scene(GeneratorConfig(seed=seed, object_count_range=(3, 3), **FURNITURE))
        dets = [_perturbed(o, rng, gt) for o in gt.objects for _ in range(3)]
        preds = [_perturbed(o, rng, gt) for o in gt.objects]
        stem = f"scene_{k:03d}.json"
        write_scene(gt, tmp_path / "gt" / stem)
        for sub, objects in (("dets", dets), ("preds", preds)):
            write_scene(FactoredScene(gt.camera, objects, gt.layout, gt.room),
                        tmp_path / sub / stem)
    run("eval", "--pred", tmp_path / "preds", "--gt", tmp_path / "gt",
        "--out", tmp_path / "eval.json", "--csv", tmp_path / "eval.csv")
    run("ap", "--dets", tmp_path / "dets", "--gt", tmp_path / "gt",
        "--out", tmp_path / "ap.json", "--csv", tmp_path / "ap.csv")
    assert {name: sha256(tmp_path / name) for name in EVAL_AP_SHA256} == EVAL_AP_SHA256


# ---------------------------------------------------------------------------
# grad-check at its default step and tolerance.

GRAD_CHECK_SHA256 = "c14b3ee8ef1d7658eb776975c36d0f5c8962757721abf419c3ecf45baf0bc046"


def test_grad_check_digest(tmp_path):
    run("grad-check", "--seed", 0, "--points", 10, "--out", tmp_path / "report.json")
    assert sha256(tmp_path / "report.json") == GRAD_CHECK_SHA256
