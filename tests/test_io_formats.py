import base64
import json
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import DEFAULT_CAMERA
from scenefactor import render
from scenefactor.cli import main
from scenefactor.io_formats import (
    MAX_IMAGE_SIDE,
    SCENE_FORMAT_VERSION,
    BadMagicError,
    FileFormatError,
    TruncatedFileError,
    UnknownVersionError,
    read_pfm,
    read_scene,
    read_voxels,
    write_pfm,
    write_scene,
    write_voxels,
)
from scenefactor.scene import FactoredScene, Layout
from scenefactor.voxels import DEFAULT_SCENE_SPEC, VoxelGrid


class TestPfm:
    def test_constant_roundtrip(self, tmp_path):
        img = np.full((6, 9), 2.5)
        write_pfm(tmp_path / "c.pfm", img)
        assert np.array_equal(read_pfm(tmp_path / "c.pfm"), img)

    def test_random_float32_roundtrip(self, tmp_path, rng):
        img = rng.random((17, 13)).astype(np.float32).astype(float)
        write_pfm(tmp_path / "r.pfm", img)
        assert np.array_equal(read_pfm(tmp_path / "r.pfm"), img)

    def test_empty_markers_preserved(self, tmp_path):
        img = np.full((4, 4), 3.0)
        img[1, 2] = 0.0
        write_pfm(tmp_path / "m.pfm", img)
        back = read_pfm(tmp_path / "m.pfm")
        assert back[1, 2] == 0.0

    def test_hand_encoded_fixture_bottom_up(self, tmp_path):
        # 2x2 little-endian grayscale PFM built byte by byte.  PFM stores
        # rows bottom-up, so the first payload row is the image's last.
        values_bottom_row = [1.5, 2.5]
        values_top_row = [3.5, 4.5]
        payload = struct.pack("<4f", *(values_bottom_row + values_top_row))
        raw = b"Pf\n2 2\n-1.0\n" + payload
        p = tmp_path / "hand.pfm"
        p.write_bytes(raw)
        img = read_pfm(p)
        assert np.array_equal(img, [[3.5, 4.5], [1.5, 2.5]])
        # And our writer reproduces the identical bytes.
        write_pfm(tmp_path / "ours.pfm", img)
        assert (tmp_path / "ours.pfm").read_bytes() == raw

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.pfm"
        p.write_bytes(b"Px\n1 1\n-1.0\n" + b"\x00" * 4)
        with pytest.raises(BadMagicError):
            read_pfm(p)

    def test_color_rejected(self, tmp_path):
        p = tmp_path / "color.pfm"
        p.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(FileFormatError):
            read_pfm(p)

    def test_truncated_names_offset(self, tmp_path):
        p = tmp_path / "t.pfm"
        p.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 7)
        with pytest.raises(TruncatedFileError) as err:
            read_pfm(p)
        assert "byte" in str(err.value)


class TestFvox:
    def test_canonical_roundtrip(self, tmp_path, rng):
        occ = rng.random((32, 32, 32)).astype(np.float32)
        grid = VoxelGrid.canonical(occ)
        write_voxels(tmp_path / "g.fvox", grid)
        assert read_voxels(tmp_path / "g.fvox") == grid

    def test_scene_roundtrip_byte_exact(self, tmp_path, rng):
        occ = (rng.random(DEFAULT_SCENE_SPEC.dims) < 0.2).astype(np.float32)
        grid = VoxelGrid.scene(occ)
        f1 = tmp_path / "a.fvox"
        f2 = tmp_path / "b.fvox"
        write_voxels(f1, grid)
        write_voxels(f2, read_voxels(f1))
        assert f1.read_bytes() == f2.read_bytes()

    def test_file_size_formula(self, tmp_path, rng):
        occ = rng.random((5, 7, 3)).astype(np.float32)
        grid = VoxelGrid.scene(occ, origin=(0.0, 0.0, 0.0))
        path = tmp_path / "s.fvox"
        write_voxels(path, grid)
        header = 4 + 4 + 12 + 4 + 48
        assert path.stat().st_size == header + 4 * 5 * 7 * 3

    def test_payload_x_fastest(self, tmp_path):
        occ = np.zeros((2, 2, 2), dtype=np.float32)
        occ[1, 0, 0] = 1.0  # second value in x-fastest order
        path = tmp_path / "x.fvox"
        write_voxels(path, VoxelGrid.scene(occ, origin=(0.0, 0.0, 0.0)))
        payload = np.frombuffer(path.read_bytes()[-32:], dtype="<f4")
        assert payload[1] == 1.0 and payload.sum() == 1.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fvox"
        good = tmp_path / "good.fvox"
        write_voxels(good, VoxelGrid.canonical(np.zeros((32, 32, 32))))
        data = bytearray(good.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            read_voxels(path)

    def test_unknown_version(self, tmp_path):
        good = tmp_path / "good.fvox"
        write_voxels(good, VoxelGrid.canonical(np.zeros((32, 32, 32))))
        data = bytearray(good.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "v.fvox"
        bad.write_bytes(bytes(data))
        with pytest.raises(UnknownVersionError):
            read_voxels(bad)

    def test_truncation_detected(self, tmp_path):
        good = tmp_path / "good.fvox"
        write_voxels(good, VoxelGrid.canonical(np.zeros((32, 32, 32))))
        data = good.read_bytes()
        bad = tmp_path / "short.fvox"
        bad.write_bytes(data[:-10])
        with pytest.raises(TruncatedFileError):
            read_voxels(bad)
        longer = tmp_path / "long.fvox"
        longer.write_bytes(data + b"\x00")
        with pytest.raises(TruncatedFileError):
            read_voxels(longer)


def scenes_identical(a, b):
    if a.camera != b.camera or a.warnings != b.warnings:
        return False
    if (a.layout is None) != (b.layout is None):
        return False
    if a.layout is not None and not np.array_equal(a.layout.disparity, b.layout.disparity):
        return False
    if (a.room is None) != (b.room is None):
        return False
    if a.room is not None and not (np.array_equal(a.room.center, b.room.center)
                                   and np.array_equal(a.room.half_extents, b.room.half_extents)):
        return False
    if len(a.objects) != len(b.objects):
        return False
    for oa, ob in zip(a.objects, b.objects):
        if oa.class_label != ob.class_label or oa.score != ob.score or oa.box2d != ob.box2d:
            return False
        if oa.shape != ob.shape:
            return False
        if not (np.array_equal(oa.pose.scale, ob.pose.scale)
                and oa.pose.rotation == ob.pose.rotation
                and np.array_equal(oa.pose.translation, ob.pose.translation)):
            return False
        if (oa.solid is None) != (ob.solid is None):
            return False
        if oa.solid is not None:
            for ca, cb in zip(oa.solid, ob.solid):
                if not (np.array_equal(ca.center, cb.center)
                        and np.array_equal(ca.half_extents, cb.half_extents)):
                    return False
    return True


class TestSceneJson:
    def test_empty_scene_roundtrip(self, tmp_path):
        scene = FactoredScene(camera=DEFAULT_CAMERA)
        write_scene(scene, tmp_path / "empty.json")
        assert scenes_identical(read_scene(tmp_path / "empty.json"), scene)

    def test_generated_scene_field_exact(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=7))
        write_scene(scene, tmp_path / "s7.json")
        back = read_scene(tmp_path / "s7.json")
        assert scenes_identical(back, scene)
        # The layout regenerates from the room and must match bit for bit.
        assert np.array_equal(back.layout.disparity, scene.layout.disparity)

    def test_reserialization_byte_identical(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=9))
        write_scene(scene, tmp_path / "a.json")
        write_scene(read_scene(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_custom_layout_goes_to_pfm(self, tmp_path):
        disparity = np.full((DEFAULT_CAMERA.height, DEFAULT_CAMERA.width), 0.25,
                            dtype=np.float32).astype(float)
        scene = FactoredScene(camera=DEFAULT_CAMERA, layout=Layout(disparity))
        write_scene(scene, tmp_path / "layout.json")
        assert (tmp_path / "layout.layout.pfm").exists()
        back = read_scene(tmp_path / "layout.json")
        assert np.array_equal(back.layout.disparity, disparity)

    def test_invalid_layout_pfm_names_location(self, tmp_path):
        disparity = np.full((DEFAULT_CAMERA.height, DEFAULT_CAMERA.width), 0.25)
        write_scene(FactoredScene(camera=DEFAULT_CAMERA, layout=Layout(disparity)),
                    tmp_path / "layout.json")
        write_pfm(tmp_path / "layout.layout.pfm", np.full(disparity.shape, np.nan))
        with pytest.raises(FileFormatError) as err:
            read_scene(tmp_path / "layout.json")
        assert err.value.location == "$.layout.pfm"

    def test_truncated_json_reports_location(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=2))
        write_scene(scene, tmp_path / "x.json")
        data = (tmp_path / "x.json").read_bytes()
        (tmp_path / "trunc.json").write_bytes(data[: len(data) // 2])
        with pytest.raises(FileFormatError) as err:
            read_scene(tmp_path / "trunc.json")
        assert "byte" in str(err.value) or "line" in str(err.value)

    def test_unknown_version_rejected(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=2))
        write_scene(scene, tmp_path / "v.json")
        v2 = json.loads((tmp_path / "v.json").read_text())
        v1 = json.loads(json.dumps(v2))  # the version 1 layout: raw float32 payloads
        v1["format_version"] = 1
        for obj, entry in zip(scene.objects, v1["objects"]):
            entry["voxels"]["b64"] = base64.b64encode(
                obj.shape.occupancy.astype("<f4").ravel(order="F").tobytes()).decode()
        for doc in (v1, {**v2, "format_version": 3}):
            (tmp_path / "v.json").write_text(json.dumps(doc))
            with pytest.raises(UnknownVersionError) as err:
                read_scene(tmp_path / "v.json")
            assert err.value.location == "$.format_version"
            assert f"reads version {SCENE_FORMAT_VERSION}" in str(err.value)

    def test_schema_version_matches_reader(self):
        import importlib.resources as resources

        schema = json.loads(
            resources.files("scenefactor").joinpath("schemas/scene.schema.json").read_text())
        assert schema["properties"]["format_version"]["const"] == SCENE_FORMAT_VERSION

    def test_deeply_nested_json_names_location(self, tmp_path):
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(FileFormatError) as err:
            read_scene(tmp_path / "deep.json")
        assert err.value.location == "$"

    def test_malformed_field_names_location(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=2))
        write_scene(scene, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["objects"][0]["pose"]["scale"] = [1.0, 2.0]
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(FileFormatError) as err:
            read_scene(tmp_path / "m.json")
        assert "objects[0].pose.scale" in str(err.value)

    def test_unresolvable_reference(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=2))
        write_scene(scene, tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        doc["objects"][0]["voxels"] = {"dims": [32, 32, 32], "fvox": "missing.fvox"}
        (tmp_path / "r.json").write_text(json.dumps(doc))
        with pytest.raises(FileFormatError) as err:
            read_scene(tmp_path / "r.json")
        assert "missing.fvox" in str(err.value)

    def test_fvox_reference_supported(self, tmp_path, rng):
        scene = generate_scene(GeneratorConfig(seed=4))
        write_scene(scene, tmp_path / "inline.json")
        doc = json.loads((tmp_path / "inline.json").read_text())
        write_voxels(tmp_path / "obj0.fvox", scene.objects[0].shape)
        doc["objects"][0]["voxels"] = {"dims": [32, 32, 32], "fvox": "obj0.fvox"}
        (tmp_path / "ref.json").write_text(json.dumps(doc))
        back = read_scene(tmp_path / "ref.json")
        assert back.objects[0].shape == scene.objects[0].shape

    def test_schema_validation(self, tmp_path):
        import importlib.resources as resources

        import jsonschema

        scene = generate_scene(GeneratorConfig(seed=7))
        write_scene(scene, tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        schema = json.loads(
            resources.files("scenefactor").joinpath("schemas/scene.schema.json").read_text())
        jsonschema.validate(doc, schema)


    def _edited(self, tmp_path, edit):
        """Write a generated scene (layout stored ``from_room``), apply
        ``edit`` to its JSON document, and return the edited file."""
        scene = generate_scene(GeneratorConfig(seed=2))
        write_scene(scene, tmp_path / "e.json")
        doc = json.loads((tmp_path / "e.json").read_text())
        assert doc["layout"] == {"from_room": True}
        edit(doc)
        (tmp_path / "e.json").write_text(json.dumps(doc))
        return tmp_path / "e.json"

    def test_camera_outside_room_names_location(self, tmp_path):
        def move_room(doc):
            doc["room"]["center"][2] += 100.0

        with pytest.raises(FileFormatError) as err:
            read_scene(self._edited(tmp_path, move_room))
        assert err.value.location == "$.room"
        assert "inside the room box" in str(err.value)

    def test_box2d_out_of_bounds_names_location(self, tmp_path):
        def widen_box(doc):
            doc["objects"][0]["box2d"][2] = doc["camera"]["width"] + 5.0

        with pytest.raises(FileFormatError) as err:
            read_scene(self._edited(tmp_path, widen_box))
        assert err.value.location == "$.objects"
        assert "image bounds" in str(err.value)

    @pytest.mark.parametrize("where, value, location", [
        (("objects", 0, "score"), True, "$.objects[0].score"),
        (("objects", 0, "pose", "scale", 1), True, "$.objects[0].pose.scale"),
        (("objects", 0, "box2d", 1), False, "$.objects[0].box2d"),
        (("room", "center", 0), False, "$.room.center"),
        (("camera", "fx"), True, "$.camera.fx"),
        (("camera", "width"), True, "$.camera.width"),
        (("warnings",), ["ok", 7], "$.warnings[1]"),
    ], ids=["score", "scale", "box2d", "room", "fx", "width", "warning"])
    def test_wrong_json_type_names_location(self, tmp_path, where, value, location):
        # JSON booleans are not numbers, and warnings are strings.
        def put(doc):
            for key in where[:-1]:
                doc = doc[key]
            doc[where[-1]] = value

        with pytest.raises(FileFormatError) as err:
            read_scene(self._edited(tmp_path, put))
        assert err.value.location == location

    @pytest.mark.parametrize("key, value", [("width", 2**40), ("height", 2**40),
                                            ("width", 1e309)])
    def test_huge_camera_rejected_before_allocation(self, tmp_path, monkeypatch, key, value):
        def grow(doc):
            doc["camera"][key] = value

        def no_rays(cam):
            raise AssertionError("pixel rays allocated for an oversized camera")

        path = self._edited(tmp_path, grow)
        monkeypatch.setattr(render, "_pixel_slopes", no_rays)
        with pytest.raises(FileFormatError) as err:
            read_scene(path)
        assert err.value.location == "$.camera"
        assert str(MAX_IMAGE_SIDE) in str(err.value)

    @pytest.mark.parametrize("dims", [[math.inf, 32, 32], [math.nan, 32, 32], [32.5, 32, 32],
                                      [-32, -32, 32]])
    def test_bad_voxel_dims_name_location(self, tmp_path, dims):
        def set_dims(doc):
            doc["objects"][0]["voxels"]["dims"] = dims

        with pytest.raises(FileFormatError) as err:
            read_scene(self._edited(tmp_path, set_dims))
        assert err.value.location == "$.objects[0].voxels.dims"

    @pytest.mark.parametrize("key, value", [("fx", math.nan), ("fy", math.inf)])
    def test_nonfinite_focal_length_rejected(self, tmp_path, key, value):
        def set_focal(doc):
            doc["camera"][key] = value

        with pytest.raises(FileFormatError) as err:
            read_scene(self._edited(tmp_path, set_focal))
        assert err.value.location == "$.camera"

    def test_largest_camera_accepted(self, tmp_path):
        def largest(doc):
            doc["camera"]["width"] = MAX_IMAGE_SIDE
            doc["layout"] = None

        assert read_scene(self._edited(tmp_path, largest)).camera.width == MAX_IMAGE_SIDE


GRID_BYTES = 4 * 32**3


def _bomb(size: int) -> bytes:
    """A zlib stream of ``size`` zero bytes, built without holding them."""
    packer = zlib.compressobj()
    chunk = bytes(1 << 20)
    return b"".join(packer.compress(chunk) for _ in range(size >> 20)) + packer.flush()


class TestInlinePayload:
    """An inline voxel payload is base64 of a zlib stream that inflates to
    exactly one canonical grid; anything else fails at its location."""

    def _scene(self, tmp_path, payload: bytes, dims=(32, 32, 32)):
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        write_scene(scene, tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        doc["objects"][0]["voxels"] = {"dims": list(dims),
                                       "b64": base64.b64encode(payload).decode()}
        (tmp_path / "s.json").write_text(json.dumps(doc))
        return scene, tmp_path / "s.json"

    def _grid(self, scene) -> bytes:
        return scene.objects[0].shape.occupancy.astype("<f4").ravel(order="F").tobytes()

    def test_payload_is_compressed_grid(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        write_scene(scene, tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        payload = base64.b64decode(doc["objects"][0]["voxels"]["b64"])
        assert payload == zlib.compress(self._grid(scene))
        assert len(payload) < GRID_BYTES // 10

    def test_recompressed_payload_read(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        _, path = self._scene(tmp_path, zlib.compress(self._grid(scene), 9))
        assert read_scene(path).objects[0].shape == scene.objects[0].shape

    def test_zip_bomb_rejected_within_one_grid(self, tmp_path):
        _, path = self._scene(tmp_path, _bomb(64 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError) as err:
                read_scene(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.location == "$.objects[0].voxels.b64"
        assert "inflates past" in str(err.value)
        assert peak < 8 * GRID_BYTES

    @pytest.mark.parametrize("cut", [4, 1000])
    def test_truncated_stream_rejected(self, tmp_path, cut):
        # Cutting 4 bytes drops only the checksum: the grid inflates in full.
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        _, path = self._scene(tmp_path, zlib.compress(self._grid(scene))[:-cut])
        with pytest.raises(TruncatedFileError) as err:
            read_scene(path)
        assert err.value.location == "$.objects[0].voxels.b64"

    def test_bytes_after_stream_rejected(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        _, path = self._scene(tmp_path, zlib.compress(self._grid(scene)) + b"\0")
        with pytest.raises(FileFormatError) as err:
            read_scene(path)
        assert err.value.location == "$.objects[0].voxels.b64"
        assert "after the zlib stream" in str(err.value)

    @pytest.mark.parametrize("size", [0, GRID_BYTES - 4, GRID_BYTES + 4])
    def test_wrong_inflated_length_rejected(self, tmp_path, size):
        _, path = self._scene(tmp_path, zlib.compress(bytes(size)))
        with pytest.raises(FileFormatError) as err:
            read_scene(path)
        assert err.value.location == "$.objects[0].voxels.b64"

    def test_not_a_zlib_stream_rejected(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        _, path = self._scene(tmp_path, self._grid(scene))
        with pytest.raises(FileFormatError) as err:
            read_scene(path)
        assert err.value.location == "$.objects[0].voxels.b64"
        assert "zlib" in str(err.value)

    @pytest.mark.parametrize("dims", [(64, 64, 64), (16, 32, 32), (32, 32, 128)])
    def test_non_canonical_dims_rejected_before_inflating(self, tmp_path, monkeypatch, dims):
        def no_inflate(*args):
            raise AssertionError("payload inflated for non-canonical dims")

        _, path = self._scene(tmp_path, zlib.compress(bytes(4 * math.prod(dims))), dims)
        monkeypatch.setattr(zlib, "decompressobj", no_inflate)
        with pytest.raises(FileFormatError) as err:
            read_scene(path)
        assert err.value.location == "$.objects[0].voxels.dims"


class TestReferences:
    """``voxels.fvox`` and ``layout.pfm`` name regular files inside the
    scene's directory; subdirectories are allowed."""

    def _scene(self, tmp_path, fvox, pfm):
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        scenes = tmp_path / "scenes"
        (scenes / "sub").mkdir(parents=True)
        for folder in (tmp_path, scenes / "sub"):
            write_voxels(folder / "obj.fvox", scene.objects[0].shape)
            write_pfm(folder / "layout.pfm", scene.layout.disparity)
        write_scene(scene, scenes / "s.json")
        doc = json.loads((scenes / "s.json").read_text())
        doc["objects"][0]["voxels"] = {"dims": [32, 32, 32], "fvox": fvox}
        doc["layout"] = {"pfm": pfm}
        (scenes / "s.json").write_text(json.dumps(doc))
        return scene, scenes / "s.json"

    def test_subdirectory_reference_read(self, tmp_path):
        scene, path = self._scene(tmp_path, "sub/obj.fvox", "sub/layout.pfm")
        back = read_scene(path)
        assert back.objects[0].shape == scene.objects[0].shape
        assert np.array_equal(back.layout.disparity,
                              scene.layout.disparity.astype(np.float32))

    @pytest.mark.parametrize("which", ["fvox", "pfm"])
    @pytest.mark.parametrize("where", ["absolute", "parent", "directory"])
    def test_reference_outside_directory_rejected(self, tmp_path, capsys, which, where):
        target = {"fvox": "obj.fvox", "pfm": "layout.pfm"}[which]
        name = {"absolute": str(tmp_path / target), "parent": f"../{target}",
                "directory": "sub"}[where]
        refs = {"fvox": "sub/obj.fvox", "pfm": "sub/layout.pfm", which: name}
        _, path = self._scene(tmp_path, refs["fvox"], refs["pfm"])
        with pytest.raises(FileFormatError) as err:
            read_scene(path)
        assert err.value.location == {"fvox": "$.objects[0].voxels.fvox",
                                      "pfm": "$.layout.pfm"}[which]
        assert main(["render", "--scene", str(path), "--out", str(tmp_path / "d.pfm")]) == 1
        assert capsys.readouterr().err.count("\n") == 1
