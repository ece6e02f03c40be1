import argparse
import csv
import dataclasses
import gc
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import weakref

import importlib.resources as resources
import jsonschema
import numpy as np
import pytest

import scenefactor
import scenefactor.cli as cli
import scenefactor.losses as losses
from scenefactor.cli import main
from scenefactor.compare import ComparisonRow, compare_representations
from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import Camera
from scenefactor.io_formats import (
    read_depth_pfm,
    read_pfm,
    read_scene,
    read_voxels,
    write_pfm,
    write_scene,
)
from scenefactor.render import depth_to_pointcloud
from scenefactor.scene import FactoredScene


def run(args):
    return main([str(a) for a in args])


def schema(name):
    return json.loads(resources.files("scenefactor").joinpath(f"schemas/{name}").read_text())


@pytest.fixture(scope="module")
def deep_json(tmp_path_factory):
    """A JSON file nested deeper than the parser's recursion limit."""
    path = tmp_path_factory.mktemp("deep") / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes")
    assert run(["gen", "--seed", 40, "--count", 3, "--out-dir", out]) == 0
    return out


class TestGen:
    def test_writes_scene_files(self, scene_dir):
        files = sorted(scene_dir.glob("*.json"))
        assert len(files) == 3
        scene = read_scene(files[0])
        assert scene.room is not None and scene.layout is not None

    def test_seed_byte_reproducible(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["gen", "--seed", 5, "--count", 2, "--out-dir", a]) == 0
        assert run(["gen", "--seed", 5, "--count", 2, "--out-dir", b]) == 0
        for fa, fb in zip(sorted(a.glob("*")), sorted(b.glob("*"))):
            assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize("flag, side", [("--width", 32), ("--height", 24)])
    def test_one_side_keeps_the_default_other_side(self, tmp_path, flag, side):
        assert run(["gen", flag, side, "--objects", 0, 0, "--out-dir", tmp_path]) == 0
        camera = read_scene(next(tmp_path.glob("*.json"))).camera
        default = GeneratorConfig().camera
        expected = (32, default.height) if flag == "--width" else (default.width, 24)
        assert (camera.width, camera.height) == expected

    def test_objects_flag(self, tmp_path):
        out = tmp_path / "solo"
        assert run(["gen", "--seed", 1, "--count", 1, "--out-dir", out,
                    "--objects", 0, 0]) == 0
        scene = read_scene(next(out.glob("*.json")))
        assert scene.objects == ()

    def test_flags_do_not_leak_between_calls(self, tmp_path):
        # One parser serves every call in a process.
        alone, objects, after = (tmp_path / name for name in ("alone", "objects", "after"))
        assert run(["gen", "--out-dir", alone]) == 0
        assert run(["gen", "--objects", 1, 1, "--out-dir", objects]) == 0
        assert run(["gen", "--out-dir", after]) == 0
        scene = "scene_00000.json"
        assert (objects / scene).read_bytes() != (alone / scene).read_bytes()
        assert (after / scene).read_bytes() == (alone / scene).read_bytes()

    @pytest.mark.parametrize("config, key", [({"bogus": 1}, "bogus"), ({"seed": 3}, "seed"),
                                             ({"camera": {"fx": 1}}, "camera"),
                                             ({"max_attempts": 5}, "max_attempts"),
                                             ({"floor_y_range": [1, 2]}, "floor_y_range")])
    def test_config_unknown_key(self, tmp_path, capsys, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"anchor_classes": [], **config}))
        assert run(["gen", "--config", path, "--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(key) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config", [{"class_mix": {"chair": "x"}}, {"class_mix": 5},
                                        {"object_count_range": ["a", 2]},
                                        {"object_count_range": [1e999, 2]},
                                        {"object_count_range": [5, 2]},
                                        {"object_count_range": [True, 2]},
                                        {"object_count_range": [1, 2.9]},
                                        {"object_count_range": [1, 1e999]},
                                        {"class_mix": {"chair": True}},
                                        {"object_count_range": [True, 2.9],
                                         "class_mix": {"chair": True}}])
    def test_config_mistyped_value(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run(["gen", "--config", path, "--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err
        assert not (tmp_path / "out").exists()

    def test_config_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert run(["gen", "--config", path, "--out-dir", tmp_path / "out"]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_config_nested_too_deeply(self, deep_json, tmp_path, capsys):
        assert run(["gen", "--config", deep_json, "--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nested too deeply" in err
        assert not (tmp_path / "out").exists()


class TestRender:
    def test_scene_nested_too_deeply(self, deep_json, tmp_path, capsys):
        assert run(["render", "--scene", deep_json, "--out", tmp_path / "d.pfm"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nested too deeply" in err

    def test_depth_and_layout(self, scene_dir, tmp_path):
        scene_file = sorted(scene_dir.glob("*.json"))[0]
        out_depth = tmp_path / "d.pfm"
        out_layout = tmp_path / "l.pfm"
        assert run(["render", "--scene", scene_file, "--out", out_depth]) == 0
        assert run(["render", "--scene", scene_file, "--out", out_layout,
                    "--what", "layout", "--unit", "disparity"]) == 0
        depth = read_pfm(out_depth)
        layout = read_pfm(out_layout)
        scene = read_scene(scene_file)
        assert depth.shape == layout.shape == (scene.camera.height, scene.camera.width)
        assert np.allclose(layout, scene.layout.disparity.astype(np.float32), atol=0)

    def test_voxel_method(self, scene_dir, tmp_path):
        scene_file = sorted(scene_dir.glob("*.json"))[0]
        out = tmp_path / "v.pfm"
        assert run(["render", "--scene", scene_file, "--out", out,
                    "--method", "voxel"]) == 0
        assert read_pfm(out).min() >= 0.0


class TestConvert:
    def test_scene_to_voxels(self, scene_dir, tmp_path):
        scene_file = sorted(scene_dir.glob("*.json"))[0]
        out = tmp_path / "g.fvox"
        assert run(["convert", "--scene", scene_file, "--to", "scene-voxels",
                    "--out", out]) == 0
        grid = read_voxels(out)
        assert grid.frame == "scene" and grid.dims == (64, 32, 64)

    def test_depth_to_voxels_and_pointcloud(self, scene_dir, tmp_path):
        scene_file = sorted(scene_dir.glob("*.json"))[0]
        depth_file = tmp_path / "d.pfm"
        assert run(["render", "--scene", scene_file, "--out", depth_file]) == 0
        out_vox = tmp_path / "d.fvox"
        out_csv = tmp_path / "d.csv"
        assert run(["convert", "--depth", depth_file, "--camera-scene", scene_file,
                    "--to", "voxels", "--out", out_vox]) == 0
        assert run(["convert", "--depth", depth_file, "--camera-scene", scene_file,
                    "--to", "pointcloud", "--out", out_csv]) == 0
        assert read_voxels(out_vox).count() > 0
        lines = out_csv.read_text().splitlines()
        scene = read_scene(scene_file)
        assert lines[0] == "x,y,z"
        assert len(lines) == 1 + scene.camera.width * scene.camera.height

    @pytest.mark.parametrize("empty", [False, True], ids=["mixed", "all_empty"])
    def test_pointcloud_bytes(self, tmp_path, empty):
        """The point cloud is the text csv.writer makes of repr(float(v))
        per coordinate."""
        # Column 3 and row 2 have their centers on the principal point, so
        # their points have 0.0 coordinates.  -0.0 depths are empty pixels
        # that the reader accepts.
        cam = Camera(fx=7.0, fy=9.0, cx=3.5, cy=2.5, width=8, height=5)
        depth = np.random.default_rng(5).uniform(0.1, 9.0, (5, 8)).astype(np.float32)
        depth[0, :3] = -0.0
        depth[4, 5] = 0.0
        depth[1, 1] = 1e-30
        depth[3, 6] = 3e38
        if empty:
            depth[depth > 0.0] = -0.0
        write_pfm(tmp_path / "d.pfm", depth)
        write_scene(FactoredScene(camera=cam), tmp_path / "cam.json")
        out = tmp_path / "points.csv"
        assert run(["convert", "--depth", tmp_path / "d.pfm", "--camera-scene",
                    tmp_path / "cam.json", "--to", "pointcloud", "--out", out]) == 0
        points = depth_to_pointcloud(read_depth_pfm(tmp_path / "d.pfm", cam))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["x", "y", "z"])
        writer.writerows([repr(float(v)) for v in p] for p in points)
        assert out.read_bytes() == expected.getvalue().encode()
        assert len(points) == (0 if empty else 5 * 8 - 4)
        if empty:
            assert out.read_bytes() == b"x,y,z\n"

    @pytest.mark.parametrize("bad, location", [
        (np.nan, "payload"), (np.inf, "payload"), (None, "payload")],
        ids=["nan", "inf", "dims"])
    def test_bad_depth_pfm_is_one_line(self, tmp_path, capsys, bad, location):
        cam = Camera(fx=7.0, fy=9.0, cx=3.5, cy=2.5, width=8, height=5)
        depth = np.ones((4, 8) if bad is None else (5, 8), dtype=np.float32)
        if bad is not None:
            depth[2, 3] = bad
        write_pfm(tmp_path / "d.pfm", depth)
        write_scene(FactoredScene(camera=cam), tmp_path / "cam.json")
        assert run(["convert", "--depth", tmp_path / "d.pfm", "--camera-scene",
                    tmp_path / "cam.json", "--to", "pointcloud",
                    "--out", tmp_path / "points.csv"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"d.pfm: {location}: " in err
        assert not (tmp_path / "points.csv").exists()

    @pytest.mark.parametrize("field, value, code", [
        ("camera", {"fx": 7.0}, 1), ("objects", [{"score": "x"}], 0)],
        ids=["camera", "objects"])
    def test_depth_reads_only_the_camera_of_camera_scene(self, tmp_path, capsys,
                                                         field, value, code):
        cam = Camera(fx=7.0, fy=9.0, cx=3.5, cy=2.5, width=8, height=5)
        write_pfm(tmp_path / "d.pfm", np.ones((5, 8), dtype=np.float32))
        write_scene(FactoredScene(camera=cam), tmp_path / "cam.json")
        doc = json.loads((tmp_path / "cam.json").read_text())
        doc[field] = value
        (tmp_path / "cam.json").write_text(json.dumps(doc))
        assert run(["convert", "--depth", tmp_path / "d.pfm", "--camera-scene",
                    tmp_path / "cam.json", "--to", "pointcloud",
                    "--out", tmp_path / "points.csv"]) == code
        err = capsys.readouterr().err
        if code:
            assert err.count("\n") == 1 and "cam.json: $.camera: missing field 'fy'" in err
        assert (tmp_path / "points.csv").exists() == (code == 0)

    def test_invalid_combination(self, scene_dir, tmp_path):
        scene_file = sorted(scene_dir.glob("*.json"))[0]
        assert run(["convert", "--scene", scene_file, "--to", "pointcloud",
                    "--out", tmp_path / "x.csv"]) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["convert", "--scene", tmp_path / "nope.json", "--to",
                    "scene-voxels", "--out", tmp_path / "x.fvox"]) == 2


class TestEval:
    def test_perfect_predictions(self, scene_dir, tmp_path):
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        assert run(["eval", "--pred", scene_dir, "--gt", scene_dir,
                    "--out", out, "--csv", csv_out]) == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("eval_report.schema.json"))
        assert report["summary"]["shape"]["median"] == 1.0
        assert report["summary"]["rotation"]["median"] == 0.0
        assert report["summary"]["translation"]["fraction_within"] == 1.0
        assert report["summary"]["scale"]["units"] == "log2"
        assert csv_out.read_text().startswith("component,")

    def test_count_mismatch_is_validation_error(self, scene_dir, tmp_path):
        empty = tmp_path / "empty"
        assert run(["gen", "--seed", 123, "--count", 3, "--out-dir", empty,
                    "--objects", 0, 0]) == 0
        assert run(["eval", "--pred", empty, "--gt", scene_dir,
                    "--out", tmp_path / "r.json"]) == 1


class TestPairing:
    @pytest.fixture()
    def renamed(self, scene_dir, tmp_path):
        """The three scenes of ``scene_dir`` with one file renamed."""
        out = tmp_path / "renamed"
        out.mkdir()
        files = sorted(scene_dir.glob("*.json"))
        for f in files[:-1]:
            (out / f.name).write_bytes(f.read_bytes())
        (out / "zz_other.json").write_bytes(files[-1].read_bytes())
        return out, files[-1].stem

    @pytest.mark.parametrize("command", ["eval", "ap"])
    def test_stem_mismatch_with_equal_counts(self, scene_dir, renamed, tmp_path, capsys,
                                             command):
        other, missing = renamed
        flag = "--pred" if command == "eval" else "--dets"
        assert run([command, flag, other, "--gt", scene_dir,
                    "--out", tmp_path / "r.json"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(missing) in err
        assert not (tmp_path / "r.json").exists()

    def test_two_single_files_pair(self, scene_dir, tmp_path):
        gt = sorted(scene_dir.glob("*.json"))[0]
        pred = tmp_path / "prediction.json"
        pred.write_bytes(gt.read_bytes())
        assert run(["eval", "--pred", pred, "--gt", gt, "--out", tmp_path / "r.json"]) == 0


class TestAp:
    def test_perfect_detector_report(self, scene_dir, tmp_path):
        out = tmp_path / "ap.json"
        assert run(["ap", "--dets", scene_dir, "--gt", scene_dir, "--out", out,
                    "--csv", tmp_path / "ap.csv"]) == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("ap_report.schema.json"))
        assert all(r["ap"] == 1.0 for r in report["rows"])
        assert {r["name"] for r in report["rows"]} >= {"all", "box2d", "all-rotation"}


class TestCompareReps:
    def test_scene_dir_input(self, scene_dir, tmp_path, capsys):
        out_dir = tmp_path / "cmp2"
        assert run(["compare-reps", "--scenes", scene_dir, "--out-dir", out_dir]) == 0
        # Six of the 36 boundary-cell registrations on these scenes (beds
        # and sofas) stop at the cap.
        log = capsys.readouterr().err
        assert "skipped 0 of 36 object registration(s)" in log
        assert ("6 stopped at ICP_MAX_ITER = 50 without converging and 0 on degenerate "
                "correspondences") in log
        values = (out_dir / "values.csv").read_text().splitlines()
        curves = (out_dir / "curves.csv").read_text().splitlines()
        assert values[0] == "scene,task,representation,object_index,value"
        assert curves[0] == "task,representation,value,fraction"
        tasks = {line.split(",")[1] for line in values[1:]}
        assert tasks == {"visible_depth", "scene_voxel_iou", "object_fitness",
                         "modal_layout", "amodal_layout"}

    def test_skipped_registrations_reported(self, tmp_path, capsys):
        scene = generate_scene(GeneratorConfig(seed=3, object_count_range=(2, 2),
                                               anchor_classes=(), class_mix={"chair": 1.0}))
        first = scene.objects[0]
        empty = dataclasses.replace(first.shape, occupancy=np.zeros_like(first.shape.occupancy))
        scene = dataclasses.replace(
            scene, objects=(dataclasses.replace(first, shape=empty), *scene.objects[1:]))
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        write_scene(scene, scenes / "s3.json")
        out_dir = tmp_path / "cmp3"
        assert run(["compare-reps", "--scenes", scenes, "--out-dir", out_dir]) == 0
        log = capsys.readouterr().err
        assert "skipped 3 of 6 object registration(s)" in log
        assert "left 0 non-finite value(s) out of curves.csv" in log
        values = (out_dir / "values.csv").read_text().splitlines()
        assert sum(",object_fitness," in line for line in values) == 3

    def test_icp_stops_counted(self, scene_dir, tmp_path, capsys, monkeypatch):
        def fake_compare(scene, scene_id):
            return [ComparisonRow(scene_id, "object_fitness", rep, 0.5, object_index=0,
                                  icp_stop=stop)
                    for rep, stop in (("factored", "max_iter"), ("depth", "degenerate"),
                                      ("voxels", "converged"))]

        monkeypatch.setattr(cli, "compare_representations", fake_compare)
        assert run(["compare-reps", "--scenes", scene_dir, "--out-dir", tmp_path / "out"]) == 0
        log = capsys.readouterr().err
        assert "skipped 27 of 36 object registration(s)" in log
        assert ("3 stopped at ICP_MAX_ITER = 50 without converging and 3 on degenerate "
                "correspondences") in log

    def test_nonfinite_values_reported(self, scene_dir, tmp_path, capsys, monkeypatch):
        def fake_compare(scene, scene_id):
            return [ComparisonRow(scene_id, "visible_depth", "depth", value)
                    for value in (math.nan, 0.5)]

        monkeypatch.setattr(cli, "compare_representations", fake_compare)
        out_dir = tmp_path / "cmp4"
        assert run(["compare-reps", "--scenes", scene_dir, "--out-dir", out_dir]) == 0
        assert "left 3 non-finite value(s) out of curves.csv" in capsys.readouterr().err
        curves = (out_dir / "curves.csv").read_text().splitlines()
        assert curves[1:] == ["visible_depth,depth,0.5,0.3333333333333333",
                              "visible_depth,depth,0.5,0.6666666666666666",
                              "visible_depth,depth,0.5,1.0"]


    @pytest.fixture()
    def copies(self, tmp_path):
        """Three copies of a one-object scene."""
        scene = generate_scene(GeneratorConfig(seed=3, object_count_range=(1, 1)))
        scenes = tmp_path / "copies"
        scenes.mkdir()
        for i in range(3):
            write_scene(scene, scenes / f"s{i}.json")
        return scenes

    def test_holds_one_scene_at_a_time(self, copies, tmp_path, monkeypatch, capsys):
        held = []

        def reading(path):
            # The scene before is dropped before this one is read.
            gc.collect()
            assert all(ref() is None for ref in held)
            scene = read_scene(path)
            held.append(weakref.ref(scene))
            return scene

        def comparing(scene, scene_id):
            gc.collect()
            assert [ref() is None for ref in held] == [True] * (len(held) - 1) + [False]
            return compare_representations(scene, scene_id)

        monkeypatch.setattr(cli, "read_scene", reading)
        monkeypatch.setattr(cli, "compare_representations", comparing)
        assert run(["compare-reps", "--scenes", copies, "--out-dir", tmp_path / "out"]) == 0
        assert len(held) == 3
        assert "compared 3 scene(s); skipped 0 of 9 object" in capsys.readouterr().err

    def test_a_failing_last_scene_writes_nothing(self, copies, tmp_path, capsys):
        doc = json.loads((copies / "s2.json").read_text())
        doc["room"] = doc["layout"] = None
        (copies / "s2.json").write_text(json.dumps(doc))
        assert run(["compare-reps", "--scenes", copies, "--out-dir", tmp_path / "out"]) == 1
        assert "error: s2: representation comparison needs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def assert_usage_error(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["compare-reps", "--gen-count", "1", "--out-dir", "d"],
    ["compare-reps", "--out-dir", "d"],
    ["convert", "--scene", "s.json", "--to", "depth", "--out", "x.pfm"],
    ["grad-check", "--step", "1e-4", "--out", "r.json"],
    ["render", "--scene", "s.json", "--out", "d.pfm", "--tau", "0.5"],
    ["convert", "--scene", "s.json", "--to", "scene-voxels", "--out", "v.fvox", "--tau", "0.5"],
    ["eval", "--pred", "p", "--gt", "g", "--out", "e.json", "--tau", "0.5"],
    ["ap", "--dets", "d", "--gt", "g", "--out", "a.json", "--tau", "0.5"],
    ["compare-reps", "--scenes", "s", "--out-dir", "d", "--tau", "0.5"],
    *(["ap", "--dets", "d", "--gt", "g", "--out", "a.json", flag, "0.3"]
      for flag in ("--delta-box2d", "--delta-shape", "--delta-rot", "--delta-trans",
                   "--delta-scale")),
])
def test_removed_flags_are_usage_errors(argv, tmp_path, monkeypatch):
    assert_usage_error(argv, tmp_path, monkeypatch)


@pytest.mark.parametrize("argv", [
    ["gen", "--count", "-2", "--out-dir", "d"],
    ["gen", "--width", "0", "--height", "30", "--out-dir", "d"],
    ["gen", "--width", "9000", "--out-dir", "d"],
    ["gen", "--height", "8193", "--out-dir", "d"],
    ["grad-check", "--points", "0", "--out", "r.json"],
    ["gen", "--seed", "-3", "--out-dir", "d"],
    ["grad-check", "--seed", "-1", "--out", "r.json"],
    ["gen", "--objects", "5", "2", "--out-dir", "d"],
    ["gen", "--objects", "-1", "3", "--out-dir", "d"],
])
def test_bad_sizes_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    assert_usage_error(argv, tmp_path, monkeypatch)
    flag = capsys.readouterr().err.splitlines()[-1].split("error: argument ")[1].split(":")[0]
    assert flag in argv


@pytest.fixture(scope="module")
def error_inputs(scene_dir, tmp_path_factory):
    """A scene, its depth map, an empty directory, one-scene directories
    that share a stem but not an object count, and a scene without a room."""
    root = tmp_path_factory.mktemp("error_inputs")
    scene_file = scene_dir / "scene_00040.json"
    (root / "s.json").write_bytes(scene_file.read_bytes())
    assert run(["render", "--scene", root / "s.json", "--out", root / "d.pfm"]) == 0
    (root / "empty").mkdir()
    (root / "gt").mkdir()
    (root / "gt" / scene_file.name).write_bytes(scene_file.read_bytes())
    assert run(["gen", "--seed", 40, "--objects", 0, 0, "--out-dir", root / "zero"]) == 0
    # An integer literal past Python's 4,300-digit limit for int().
    text = scene_file.read_text()
    assert '"width": 64' in text
    (root / "big.json").write_text(text.replace('"width": 64', '"width": ' + "9" * 5000))
    # Integers that JSON allows but a float cannot hold.
    for name, field, key in (("huge_score", "objects", "score"), ("huge_fx", "camera", "fx")):
        doc = json.loads(text)
        (doc[field][0] if field == "objects" else doc[field])[key] = 10**400
        (root / f"{name}.json").write_text(json.dumps(doc))
    doc = json.loads(text)
    doc["room"] = doc["layout"] = None
    (root / "no_room.json").write_text(json.dumps(doc))
    # A class_mix weight that reads as inf, and two whose sum overflows.
    (root / "inf_mix.json").write_text('{"class_mix": {"chair": 1e400}}')
    (root / "overflow_mix.json").write_text('{"class_mix": {"chair": 1e308, "desk": 1e308}}')
    return root


@pytest.mark.parametrize("argv, code, message", [
    (["convert", "--scene", "in/s.json", "--depth", "in/d.pfm", "--to", "voxels",
      "--out", "out/v.fvox"], 1, "either --scene or --depth, not both"),
    (["convert", "--to", "voxels", "--out", "out/v.fvox"], 1, "needs --scene or --depth"),
    (["convert", "--depth", "in/d.pfm", "--to", "voxels", "--out", "out/v.fvox"], 1,
     "needs --camera-scene"),
    (["convert", "--scene", "in/s.json", "--to", "voxels", "--out", "out/v.fvox"], 1,
     "cannot convert a scene to 'voxels'"),
    (["convert", "--depth", "in/d.pfm", "--camera-scene", "in/s.json", "--to", "scene-voxels",
      "--out", "out/v.fvox"], 1, "cannot convert a depth map to 'scene-voxels'"),
    # The input and --to are checked before any file is read.
    (["convert", "--scene", "in/missing.json", "--to", "pointcloud", "--out", "out/p.csv"], 1,
     "cannot convert a scene to 'pointcloud'"),
    (["convert", "--depth", "in/missing.pfm", "--camera-scene", "in/missing.json", "--to",
      "scene-voxels", "--out", "out/v.fvox"], 1, "cannot convert a depth map to 'scene-voxels'"),
    (["eval", "--pred", "in/zero", "--gt", "in/gt", "--out", "out/e.json"], 1,
     "object counts differ"),
    (["eval", "--pred", "in/zero", "--gt", "in/zero", "--out", "out/e.json"], 1,
     "no object instances"),
    (["eval", "--pred", "in/empty", "--gt", "in/empty", "--out", "out/e.json"], 1,
     "no scene JSON files"),
    (["compare-reps", "--scenes", "in/empty", "--out-dir", "out/cmp"], 1, "no scene JSON files"),
    (["eval", "--pred", "in/missing.json", "--gt", "in/s.json", "--out", "out/e.json"], 2,
     "no such file"),
    (["render", "--scene", "in/s.json", "--what", "layout", "--method", "voxel",
      "--out", "out/l.pfm"], 1, "the layout renders analytically only"),
    (["gen", "--config", "in/big.json", "--out-dir", "out/gen"], 1,
     "error: in/big.json: $: Exceeds the limit (4300 digits)"),
    (["render", "--scene", "in/big.json", "--out", "out/d.pfm"], 1,
     "error: in/big.json: $: Exceeds the limit (4300 digits)"),
    (["convert", "--depth", "in/d.pfm", "--camera-scene", "in/big.json", "--to", "voxels",
      "--out", "out/v.fvox"], 1, "error: in/big.json: $: Exceeds the limit (4300 digits)"),
    (["eval", "--pred", "in/huge_score.json", "--gt", "in/s.json", "--out", "out/e.json"], 1,
     "error: in/huge_score.json: $.objects[0].score: integer too large for a float"),
    (["render", "--scene", "in/huge_fx.json", "--out", "out/d.pfm"], 1,
     "error: in/huge_fx.json: $.camera.fx: integer too large for a float"),
    (["compare-reps", "--scenes", "in/no_room.json", "--out-dir", "out/cmp"], 1,
     "error: no_room: representation comparison needs synthetic ground truth"),
    *[(["gen", "--config", f"in/{name}.json", "--out-dir", "out/gen"], 1,
       f"error: in/{name}.json: class_mix weights must have a positive, finite sum")
      for name in ("inf_mix", "overflow_mix")],
], ids=["scene_and_depth", "no_input", "depth_without_camera", "scene_to_voxels",
        "depth_to_scene_voxels", "missing_scene_to_pointcloud", "missing_depth_to_scene_voxels",
        "object_counts_differ", "no_objects", "eval_empty_dir",
        "compare_empty_dir", "missing_pred", "layout_by_voxel", "gen_config_digit_limit",
        "render_scene_digit_limit", "convert_camera_scene_digit_limit", "eval_score_overflow",
        "render_camera_overflow", "compare_no_room", "gen_config_inf_weight",
        "gen_config_weight_sum_overflow"])
def test_rejected_input_is_one_line_and_writes_nothing(error_inputs, tmp_path, monkeypatch,
                                                       capsys, argv, code, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").symlink_to(error_inputs)
    (tmp_path / "out").mkdir()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and "Traceback" not in err
    assert not any((tmp_path / "out").iterdir())


# Every option of each command.  A new flag fails this test until it is
# recorded here.
OPTIONS = {
    "gen": ["--config", "--count", "--height", "--objects", "--out-dir", "--seed", "--width"],
    "render": ["--method", "--out", "--scene", "--unit", "--what"],
    "convert": ["--camera-scene", "--depth", "--out", "--scene", "--to"],
    "eval": ["--csv", "--gt", "--out", "--pred"],
    "ap": ["--csv", "--dets", "--gt", "--out"],
    "compare-reps": ["--out-dir", "--scenes"],
    "grad-check": ["--out", "--points", "--seed"],
}


def test_option_surface_is_pinned():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: sorted(s for a in sub._actions if a.dest != "help" for s in a.option_strings)
               for name, sub in commands.choices.items()}
    assert surface == OPTIONS


def test_largest_image_side_accepted(tmp_path):
    assert run(["gen", "--width", 8192, "--height", 1, "--objects", 0, 0,
                "--out-dir", tmp_path]) == 0
    assert read_scene(tmp_path / "scene_00000.json").camera.width == 8192


class TestGradCheck:
    def test_report_and_schema(self, tmp_path):
        out = tmp_path / "grad.json"
        assert run(["grad-check", "--out", out, "--points", 10]) == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("gradcheck_report.schema.json"))
        assert report["all_passed"]

    def test_byte_reproducible(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(["grad-check", "--out", a, "--points", 10, "--seed", 3]) == 0
        assert run(["grad-check", "--out", b, "--points", 10, "--seed", 3]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_failed_verification_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(losses, "GRAD_TOLERANCE", 0.0)
        out = tmp_path / "grad.json"
        assert run(["grad-check", "--out", out, "--points", 2]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "gradient verification failed"
        report = json.loads(out.read_text())
        assert not report["all_passed"]
        assert not any(entry["passed"] for entry in report["kernels"])


# Run in a fresh interpreter: after each step, whether SciPy is loaded.
SCIPY_STEPS = """
import json, sys
loaded = {}
import scenefactor
loaded["import scenefactor"] = "scipy" in sys.modules
from scenefactor.cli import main
loaded["import scenefactor.cli"] = "scipy" in sys.modules
d = sys.argv[1]
scene = d + "/scenes/scene_00000.json"
for argv in (
        ["gen", "--out-dir", d + "/scenes"],
        ["render", "--scene", scene, "--out", d + "/depth.pfm"],
        ["convert", "--scene", scene, "--to", "scene-voxels", "--out", d + "/scene.fvox"],
        ["convert", "--depth", d + "/depth.pfm", "--camera-scene", scene, "--to", "pointcloud",
         "--out", d + "/cloud.csv"],
        ["eval", "--pred", d + "/scenes", "--gt", d + "/scenes", "--out", d + "/eval.json"],
        ["ap", "--dets", d + "/scenes", "--gt", d + "/scenes", "--out", d + "/ap.json"],
        ["grad-check", "--points", "10", "--out", d + "/grad.json"],
        ["compare-reps", "--scenes", d + "/scenes", "--out-dir", d + "/compare"]):
    assert main(argv) == 0, argv
    loaded[" ".join(argv[:2] if argv[0] == "convert" else argv[:1])] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_only_compare_reps_loads_scipy(tmp_path):
    """SciPy is loaded only where a kd-tree is built, which no command but
    ``compare-reps`` does."""
    src = pathlib.Path(scenefactor.__file__).parent.parent
    done = subprocess.run([sys.executable, "-c", SCIPY_STEPS, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {
        "import scenefactor": False, "import scenefactor.cli": False, "gen": False,
        "render": False, "convert --scene": False, "convert --depth": False, "eval": False,
        "ap": False, "grad-check": False, "compare-reps": True}
