import base64
import dataclasses
import json
import math
import struct
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
        v3 = json.loads((tmp_path / "v.json").read_text())
        older = []
        # Versions 1 and 2 stored each grid's float32 cells under "b64":
        # raw, then zlib-compressed.
        for version, encode in ((1, bytes), (2, zlib.compress)):
            doc = json.loads(json.dumps(v3))
            doc["format_version"] = version
            for obj, entry in zip(scene.objects, doc["objects"]):
                raw = obj.shape.occupancy.astype("<f4").ravel(order="F").tobytes()
                entry["voxels"] = {"dims": [32, 32, 32],
                                   "b64": base64.b64encode(encode(raw)).decode()}
            older.append(doc)
        for doc in (*older, {**v3, "format_version": 4}):
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


# A packed canonical grid, and the float32 grid that format 1 stored inline.
PACKED_BYTES = 32**3 // 8
PACKED_CHARS = 5464
GRID_BYTES = 4 * 32**3


class TestInlinePayload:
    """An inline voxel payload is base64 of exactly one canonical grid, one
    bit per cell; anything else fails at its location, and a payload of the
    wrong length fails before it is decoded."""

    def _scene(self, tmp_path, payload, dims=(32, 32, 32)):
        """A one-object scene file whose payload is ``payload``: bytes to
        encode, or base64 text to store as it is."""
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        write_scene(scene, tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        text = payload if isinstance(payload, str) else base64.b64encode(payload).decode()
        doc["objects"][0]["voxels"] = {"dims": list(dims), "bits": text}
        (tmp_path / "s.json").write_text(json.dumps(doc))
        return scene, tmp_path / "s.json"

    def _bits(self, scene) -> bytes:
        return np.packbits(scene.objects[0].shape.occupied.ravel(order="F")).tobytes()

    def _rejected(self, path, error=FileFormatError):
        with pytest.raises(error) as err:
            read_scene(path)
        assert err.value.location == "$.objects[0].voxels.bits"
        return str(err.value)

    def test_payload_is_compressed_grid(self, tmp_path):
        # One bit per cell: 32 times smaller than the float32 grid.
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        write_scene(scene, tmp_path / "s.json")
        voxels = json.loads((tmp_path / "s.json").read_text())["objects"][0]["voxels"]
        assert set(voxels) == {"dims", "bits"} and len(voxels["bits"]) == PACKED_CHARS
        payload = base64.b64decode(voxels["bits"])
        assert payload == self._bits(scene)
        assert len(payload) == PACKED_BYTES == GRID_BYTES // 32
        assert read_scene(tmp_path / "s.json").objects[0].shape == scene.objects[0].shape

    @pytest.mark.parametrize("cut", [4, 1000])
    def test_truncated_stream_rejected(self, tmp_path, cut):
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        _, path = self._scene(tmp_path, self._bits(scene)[:-cut])
        assert "expected 5464" in self._rejected(path, TruncatedFileError)

    def test_bytes_after_stream_rejected(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        # One or two bytes more still take 5,464 characters; three do not.
        for extra in (1, 2):
            _, path = self._scene(tmp_path, self._bits(scene) + bytes(extra))
            message = self._rejected(path)
            assert f"decodes to {PACKED_BYTES + extra} bytes, expected 4096" in message
        _, path = self._scene(tmp_path, self._bits(scene) + bytes(3))
        assert "expected 5464" in self._rejected(path)

    @pytest.mark.parametrize("size", [0, GRID_BYTES - 4, GRID_BYTES + 4])
    def test_wrong_inflated_length_rejected(self, tmp_path, size):
        # Empty, and about the size of a float32 grid.
        _, path = self._scene(tmp_path, bytes(size))
        self._rejected(path)

    @pytest.mark.parametrize("text", [
        "!" + "A" * (PACKED_CHARS - 1),  # outside the alphabet
        "A" * (PACKED_CHARS - 4) + "A=A=",  # padding inside the text
        "A" * PACKED_CHARS,  # no padding: 4,098 bytes
        "A" * (PACKED_CHARS - 1) + "=",  # one '=': 4,097 bytes
    ], ids=["alphabet", "inner-padding", "unpadded", "short-padding"])
    def test_invalid_base64_rejected(self, tmp_path, text):
        _, path = self._scene(tmp_path, text)
        self._rejected(path)

    @pytest.mark.parametrize("chars", [0, PACKED_CHARS - 4, PACKED_CHARS - 1,
                                       PACKED_CHARS + 1, PACKED_CHARS + 4, 1 << 20])
    def test_wrong_length_rejected_before_decoding(self, tmp_path, monkeypatch, chars):
        def no_decode(*args, **kwargs):
            raise AssertionError("payload decoded despite its length")

        _, path = self._scene(tmp_path, "A" * chars)
        monkeypatch.setattr(base64, "b64decode", no_decode)
        self._rejected(path, TruncatedFileError if chars < PACKED_CHARS else FileFormatError)

    def test_payload_must_be_text(self, tmp_path):
        _, path = self._scene(tmp_path, "")
        doc = json.loads(path.read_text())
        doc["objects"][0]["voxels"]["bits"] = [1, 0, 1]
        path.write_text(json.dumps(doc))
        assert "base64 string" in self._rejected(path)

    @pytest.mark.parametrize("dims", [(64, 64, 64), (16, 32, 32), (32, 32, 128)])
    def test_non_canonical_dims_rejected_before_inflating(self, tmp_path, monkeypatch, dims):
        def no_decode(*args, **kwargs):
            raise AssertionError("payload decoded for non-canonical dims")

        _, path = self._scene(tmp_path, bytes(math.prod(dims) // 8), dims)
        monkeypatch.setattr(base64, "b64decode", no_decode)
        monkeypatch.setattr(np, "unpackbits", no_decode)
        with pytest.raises(FileFormatError) as err:
            read_scene(path)
        assert err.value.location == "$.objects[0].voxels.dims"

    @pytest.mark.parametrize("voxels", [
        {"dims": [32, 32, 32], "bits": "", "fvox": "obj.fvox"},
        {"dims": [32, 32, 32]},
        {"dims": [32, 32, 32], "bits": None, "fvox": None},
        {"dims": [32, 32, 32], "b64": ""},
    ], ids=["both", "neither", "nulls", "v2-key"])
    def test_bits_xor_fvox(self, tmp_path, voxels):
        scene, path = self._scene(tmp_path, "")
        if "fvox" in voxels:
            write_voxels(tmp_path / "obj.fvox", scene.objects[0].shape)
        if voxels.get("bits") == "":
            voxels = {**voxels, "bits": base64.b64encode(self._bits(scene)).decode()}
        doc = json.loads(path.read_text())
        doc["objects"][0]["voxels"] = voxels
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError) as err:
            read_scene(path)
        assert err.value.location == "$.objects[0].voxels"
        assert "either a 'bits' payload or an 'fvox' reference" in str(err.value)

    def test_non_binary_grid_goes_to_sibling_fvox(self, tmp_path, rng):
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(2, 2)))
        first, second = scene.objects
        occ = first.shape.occupancy.copy()
        occ[occ == 1.0] = rng.uniform(0.0, 1.0, size=int((occ == 1.0).sum()))
        soft = VoxelGrid.canonical(occ)
        scene = dataclasses.replace(scene, objects=(dataclasses.replace(first, shape=soft),
                                                    second))
        write_scene(scene, tmp_path / "s.json")
        docs = [o["voxels"] for o in json.loads((tmp_path / "s.json").read_text())["objects"]]
        assert docs[0] == {"dims": [32, 32, 32], "fvox": "s.obj0.fvox"}
        assert set(docs[1]) == {"dims", "bits"}
        assert sorted(p.name for p in tmp_path.glob("*.fvox")) == ["s.obj0.fvox"]
        assert read_voxels(tmp_path / "s.obj0.fvox") == soft
        back = read_scene(tmp_path / "s.json")
        assert scenes_identical(back, scene)
        assert np.array_equal(back.objects[0].shape.occupancy.view(np.uint32),
                              occ.astype(np.float32).view(np.uint32))
        write_scene(back, tmp_path / "t.json")
        assert (tmp_path / "t.obj0.fvox").read_bytes() == (tmp_path / "s.obj0.fvox").read_bytes()


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
