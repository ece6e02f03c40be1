"""Golden digests: seeded CLI outputs must stay byte-identical.

A change that alters a metric on purpose updates these digests and says so;
any other change must reproduce them exactly.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from scenefactor.cli import main
from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import Pose, rotation_about_y
from scenefactor.io_formats import read_scene, write_scene
from scenefactor.scene import FactoredScene, Layout, SceneObject
from scenefactor.voxels import VoxelGrid

COMPARE_REPS_SHA256 = {
    "values.csv": "3b7cc131812b60929c2c648f6f857954466aea704d39e79d8d9afd9c79db4a30",
    "curves.csv": "c1d86f42e72f4981a012fa920283bb29e851d6b9ec27792f9f3323432bdcac49",
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

GEN_SHA256 = {
    "scene_00007.json": "063075a6ac696fd967a5d0a0d4b0a4418ff894289e071b0a7034ff3ecfbbbe57",
    "scene_00008.json": "54ac932fa170ee3ac75899dfc88cc21f096db1d3e7e23bc6bd16d8e3b3e4f30a",
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
    "scene_00012.json": "c08f2fa47eb343b757276379ff2267322c6ecf3367c48fabbad9db4e3843343e",
    "scene_00013.json": "368a1cc0d4fc4cbfdb530f8fcc70277fb7a8b05211624c8abec52b3c4b51b3bd",
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


# An odd point count on two seeds: seed 0 rejects two rot_regression draws
# at 7 points, seed 3 rejects none.
GRAD_CHECK_ODD_SHA256 = {
    (3, 7): "746d86699130702238e1cc45d11a307d4847135b96c49fd7011c799ecac8a1e1",
    (0, 7): "b0a4b9cd070fb54f2e8ba16b5e904041db5c179f8677dd20bdb238fe6f3c7ebb",
}


@pytest.mark.parametrize("seed,points", sorted(GRAD_CHECK_ODD_SHA256))
def test_grad_check_odd_count_digests(tmp_path, seed, points):
    run("grad-check", "--seed", seed, "--points", points, "--out", tmp_path / "report.json")
    assert sha256(tmp_path / "report.json") == GRAD_CHECK_ODD_SHA256[seed, points]


# ---------------------------------------------------------------------------
# render, convert, eval and compare-reps on a scene holding the two forms a
# prediction takes: a soft occupancy grid and a layout that is not the room
# render.

SOFT_SHA256 = {
    "read_back": "5df802515e5321d1c2e67143266ce16d8d05bcb8574a04edd771c2fcc286273e",
    "voxel.pfm": "6c85752515380e157fe0f3912a0ce18e1d311e091609f44f25abe2cf37059409",
    "scene.fvox": "d283bc82e83caa95a029f6435e270d9d9285c900ee93795f92fa8b17e644f8ce",
    "eval.json": "5c92d4e2caca2a92bd3d18d42cb30f8df8416987a35829fec023cc7696240655",
    "values.csv": "6e3c5a2f56989ed61703450fdc9980d6a3d28ba70ead70675ac0d1ea92ccbecc",
    "curves.csv": "cb794f5ef8dd555dfef72ec37f773979c08f32956067164c3e1a2af6e4d4b738",
}


def test_soft_grid_and_custom_layout_digests(tmp_path):
    rng = np.random.default_rng(17)
    gt = generate_scene(GeneratorConfig(seed=17, object_count_range=(1, 1), **FURNITURE))
    (obj,) = gt.objects
    occ = obj.shape.occupancy.copy()
    occ[occ == 1.0] = rng.uniform(0.01, 0.99, size=int((occ == 1.0).sum()))
    soft = replace(gt, objects=(replace(obj, shape=VoxelGrid.canonical(occ)),),
                   layout=Layout(gt.layout.disparity * 0.9))
    for sub in ("gt", "soft"):
        (tmp_path / sub).mkdir()
    write_scene(gt, tmp_path / "gt" / "s.json")
    scene = tmp_path / "soft" / "s.json"
    write_scene(soft, scene)
    back = read_scene(scene)
    (tmp_path / "read_back").write_bytes(back.objects[0].shape.occupancy.tobytes()
                                         + back.layout.disparity.tobytes())
    run("render", "--scene", scene, "--out", tmp_path / "voxel.pfm", "--method", "voxel")
    run("convert", "--scene", scene, "--to", "scene-voxels", "--out", tmp_path / "scene.fvox")
    run("eval", "--pred", scene, "--gt", tmp_path / "gt" / "s.json",
        "--out", tmp_path / "eval.json")
    run("compare-reps", "--scenes", tmp_path / "soft", "--out-dir", tmp_path)
    assert {name: sha256(tmp_path / name) for name in SOFT_SHA256} == SOFT_SHA256
