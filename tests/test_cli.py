import dataclasses
import json
import math

import importlib.resources as resources
import jsonschema
import numpy as np
import pytest

import scenefactor.cli as cli
from scenefactor.cli import main
from scenefactor.compare import ComparisonRow
from scenefactor.detection import ThresholdTuple
from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.io_formats import read_pfm, read_scene, read_voxels, write_scene


def run(args):
    return main([str(a) for a in args])


def schema(name):
    return json.loads(resources.files("scenefactor").joinpath(f"schemas/{name}").read_text())


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

    def test_objects_flag(self, tmp_path):
        out = tmp_path / "solo"
        assert run(["gen", "--seed", 1, "--count", 1, "--out-dir", out,
                    "--objects", 0, 0]) == 0
        scene = read_scene(next(out.glob("*.json")))
        assert scene.objects == ()

    @pytest.mark.parametrize("config, key", [({"bogus": 1}, "bogus"), ({"seed": 3}, "seed"),
                                             ({"camera": {"fx": 1}}, "camera")])
    def test_config_unknown_key(self, tmp_path, capsys, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"max_televisions": 0, **config}))
        assert run(["gen", "--config", path, "--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(key) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config", [{"max_attempts": "x"}, {"class_mix": 5},
                                        {"max_televisions": "x"},
                                        {"object_count_range": [1e999, 2]}])
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


class TestRender:
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

    def test_threshold_flags(self, scene_dir, tmp_path):
        out = tmp_path / "ap2.json"
        assert run(["ap", "--dets", scene_dir, "--gt", scene_dir, "--out", out,
                    "--delta-rot", "none", "--delta-trans", "0.5"]) == 0
        report = json.loads(out.read_text())
        row = next(r for r in report["rows"] if r["name"] == "all")
        assert row["thresholds"]["rotation"] is None
        assert row["thresholds"]["translation"] == 0.5

    @pytest.mark.parametrize("name, flag", [
        ("box2d", "--delta-box2d"), ("shape", "--delta-shape"), ("rotation", "--delta-rot"),
        ("translation", "--delta-trans"), ("scale", "--delta-scale"),
    ])
    def test_nan_threshold_rejected(self, scene_dir, tmp_path, capsys, name, flag):
        with pytest.raises(ValueError, match=name):
            ThresholdTuple(**{name: math.nan})
        out = tmp_path / "ap.json"
        assert run(["ap", "--dets", scene_dir, "--gt", scene_dir, "--out", out,
                    flag, "nan"]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()


class TestCompareReps:
    def test_scene_dir_input(self, scene_dir, tmp_path):
        out_dir = tmp_path / "cmp2"
        assert run(["compare-reps", "--scenes", scene_dir, "--out-dir", out_dir]) == 0
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
])
def test_removed_flags_are_usage_errors(argv, tmp_path, monkeypatch):
    assert_usage_error(argv, tmp_path, monkeypatch)


@pytest.mark.parametrize("argv", [
    ["gen", "--count", "-2", "--out-dir", "d"],
    ["gen", "--width", "0", "--height", "30", "--out-dir", "d"],
    ["gen", "--width", "9000", "--out-dir", "d"],
    ["gen", "--height", "8193", "--out-dir", "d"],
    ["grad-check", "--points", "0", "--out", "r.json"],
])
def test_bad_sizes_are_usage_errors(argv, tmp_path, monkeypatch):
    assert_usage_error(argv, tmp_path, monkeypatch)


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
