import base64
import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import pathlib
import stat
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import DEFAULT_CAMERA, Pose
from scenefactor import io_formats, render
from scenefactor.cli import main
from scenefactor.io_formats import (
    MAX_IMAGE_SIDE,
    SCENE_FORMAT_VERSION,
    BadMagicError,
    FileFormatError,
    TruncatedFileError,
    UnknownVersionError,
    atomic_write_text,
    read_camera,
    read_pfm,
    read_scene,
    read_voxels,
    write_pfm,
    write_pointcloud_csv,
    write_scene,
    write_voxels,
)
from scenefactor.scene import FactoredScene, Layout, SceneObject
from scenefactor.voxels import CANONICAL_SPEC, DEFAULT_SCENE_SPEC, FRAME_SPECS, VoxelGrid, voxel_iou


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

    def test_writer_rejects_a_3d_array(self, tmp_path):
        with pytest.raises(ValueError, match="must be 2D"):
            write_pfm(tmp_path / "cube.pfm", np.ones((2, 2, 2)))
        assert not any(tmp_path.iterdir())


# Magic, version, dims, frame tag and extent.
FVOX_HEADER_BYTES = 4 + 4 + 12 + 4 + 48


def csv_reference(points) -> bytes:
    """What ``csv.writer`` makes of ``repr(float(v))`` per coordinate."""
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["x", "y", "z"])
    writer.writerows([repr(float(v)) for v in p] for p in points)
    return expected.getvalue().encode()


def write_pointcloud_csv_oneshot(path, points):
    """The one-shot point-cloud writer: the whole cloud's text built as one
    string, then written.  The reference for the streamed writer's bytes
    and memory."""
    points = np.asarray(points, dtype=float)
    cells = np.empty((len(points), 6), dtype=object)
    cells[:, 1] = cells[:, 3] = ","
    cells[:, 5] = "\n"
    for axis in range(3):
        bits, inverse = np.unique(points[:, axis].view(np.uint64), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
        cells[:, 2 * axis] = text[inverse]
    atomic_write_text(path, "x,y,z\n" + "".join(cells.ravel().tolist()))


def repeating_cloud(n, seed=0):
    """``n`` points drawn from a few values each, -0.0 and 0.0 among them."""
    pool = np.array([0.0, -0.0, 1.5, -2.25, 5e-324, 1e308, 0.1, 3.0])
    return np.random.default_rng(seed).choice(pool, size=(n, 3))


def depth_cloud(camera, depths=(2.0371, 2.7183, 3.1416)):
    """The cloud of ``camera``'s depth image of a few fronto-parallel
    planes in bands of rows: x repeats per column and plane, y per row,
    z per plane."""
    u = (np.arange(camera.width) + 0.5 - camera.cx) / camera.fx
    v = (np.arange(camera.height) + 0.5 - camera.cy) / camera.fy
    z = np.repeat(depths, -(-camera.height // len(depths)))[:camera.height, None]
    x, y, z = np.broadcast_arrays(u * z, v[:, None] * z, z)
    return np.stack([x, y, z], axis=-1).reshape(-1, 3)


class FailingHandle:
    """A file handle that passes ``writes`` writes through, then flushes,
    records the bytes of each temp file beside ``path`` and raises
    ``OSError``."""

    def __init__(self, handle, path, writes):
        self.handle, self.path, self.writes = handle, pathlib.Path(path), writes
        self.temp_files = None

    def write(self, data):
        if self.writes == 0:
            self.handle.flush()
            self.temp_files = {p.name: p.read_bytes()
                               for p in self.path.parent.glob(f".{self.path.name}.*")}
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes -= 1
        return self.handle.write(data)


WRITERS = {
    "write_scene": lambda path: write_scene(FactoredScene(camera=DEFAULT_CAMERA), path),
    "write_pfm": lambda path: write_pfm(path, np.ones((2, 3))),
    "write_voxels": lambda path: write_voxels(
        path, VoxelGrid.canonical(np.zeros(CANONICAL_SPEC.dims))),
    "write_pointcloud_csv": lambda path: write_pointcloud_csv(path, np.ones((2, 3))),
    "atomic_write_text": lambda path: atomic_write_text(path, "text\n"),
}


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_written_file_mode_follows_the_umask(tmp_path, writer, umask, mode):
    """Each writer leaves the mode ``open()`` would give a new file."""
    old = os.umask(umask)
    try:
        WRITERS[writer](tmp_path / "out")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestPointCloudCsv:
    CHUNK = 8

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_streamed_bytes_match_reference(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(io_formats, "_CSV_CHUNK_ROWS", self.CHUNK)
        points = repeating_cloud(n, seed=n)
        write_pointcloud_csv(tmp_path / "points.csv", points)
        data = (tmp_path / "points.csv").read_bytes()
        assert data == csv_reference(points)
        write_pointcloud_csv_oneshot(tmp_path / "oneshot.csv", points)
        assert data == (tmp_path / "oneshot.csv").read_bytes()

    @pytest.mark.parametrize("existing", [None, b"x,y,z\n1.0,2.0,3.0\n"])
    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch,
                                                         existing):
        monkeypatch.setattr(io_formats, "_CSV_CHUNK_ROWS", self.CHUNK)
        real_writer = io_formats.atomic_writer
        handles = []

        @contextlib.contextmanager
        def failing_writer(path):
            with real_writer(path) as handle:
                # The header, then the first chunk; the second chunk fails.
                handles.append(FailingHandle(handle, path, writes=2))
                yield handles[-1]

        monkeypatch.setattr(io_formats, "atomic_writer", failing_writer)
        target = tmp_path / "points.csv"
        if existing is not None:
            target.write_bytes(existing)
        points = repeating_cloud(3 * self.CHUNK)
        with pytest.raises(OSError, match="No space left"):
            write_pointcloud_csv(target, points)
        # The write failed in a temp file holding the header and first chunk.
        (written,) = handles[0].temp_files.values()
        lines = csv_reference(points).splitlines(keepends=True)
        assert written == b"".join(lines[:self.CHUNK + 1])
        assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else [target.name])
        if existing is not None:
            assert target.read_bytes() == existing

    @staticmethod
    def traced_peak(writer, path, points):
        tracemalloc.start()
        try:
            writer(path, points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_streamed_peak_memory_at_most_half_the_oneshot(self, tmp_path):
        # 307,200 points of a 640x480 image, 37.5 chunks of 8,192 rows.
        points = depth_cloud(DEFAULT_CAMERA)
        assert len(points) >= 4 * io_formats._CSV_CHUNK_ROWS
        peaks = {name: self.traced_peak(writer, tmp_path / f"{name}.csv", points)
                 for name, writer in [("oneshot", write_pointcloud_csv_oneshot),
                                      ("streamed", write_pointcloud_csv)]}
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "oneshot.csv").read_bytes()
        assert peaks["streamed"] <= 0.5 * peaks["oneshot"], peaks

    def test_peak_memory_does_not_grow_with_the_cloud(self, tmp_path):
        # Nothing outlives a chunk, so four copies of a 640x480 cloud peak
        # where one does.
        points = depth_cloud(DEFAULT_CAMERA)
        peaks = [self.traced_peak(write_pointcloud_csv, tmp_path / f"{copies}.csv",
                                  np.concatenate([points] * copies))
                 for copies in (1, 4)]
        assert max(peaks) <= 1.5 * min(peaks), peaks

    @pytest.mark.parametrize("shape", [(2, 4), (2, 2), (6,), (0,), (2, 3, 1)])
    def test_only_n_by_3_points_are_written(self, tmp_path, shape):
        with pytest.raises(ValueError, match=r"\(n, 3\) array"):
            write_pointcloud_csv(tmp_path / "points.csv", np.arange(math.prod(shape), dtype=float)
                                 .reshape(shape))
        assert list(tmp_path.iterdir()) == []


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
        for frame, spec in FRAME_SPECS.items():
            path = tmp_path / f"{frame}.fvox"
            write_voxels(path, VoxelGrid(rng.random(spec.dims), frame))
            assert path.stat().st_size == FVOX_HEADER_BYTES + 4 * math.prod(spec.dims)

    def test_payload_x_fastest(self, tmp_path):
        occ = np.zeros(DEFAULT_SCENE_SPEC.dims, dtype=np.float32)
        occ[1, 0, 0] = 1.0  # second value in x-fastest order
        path = tmp_path / "x.fvox"
        write_voxels(path, VoxelGrid.scene(occ))
        payload = np.frombuffer(path.read_bytes()[FVOX_HEADER_BYTES:], dtype="<f4")
        assert payload[1] == 1.0 and payload.sum() == 1.0

    @pytest.mark.parametrize("frame", ["canonical", "scene"])
    def test_other_frames_dims_rejected(self, tmp_path, frame):
        # The file holds a grid of the other frame and is tagged ``frame``.
        other = "scene" if frame == "canonical" else "canonical"
        path = tmp_path / "g.fvox"
        write_voxels(path, VoxelGrid(np.zeros(FRAME_SPECS[other].dims), other))
        data = bytearray(path.read_bytes())
        data[20:24] = struct.pack("<I", ("canonical", "scene").index(frame))
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match=f"{frame} grids have dims") as err:
            read_voxels(path)
        assert err.value.location == "header"

    @pytest.mark.parametrize("frame", ["canonical", "scene"])
    def test_extent_shifted_by_one_cell_rejected(self, tmp_path, frame):
        spec = FRAME_SPECS[frame]
        path = tmp_path / "g.fvox"
        write_voxels(path, VoxelGrid(np.zeros(spec.dims), frame))
        data = bytearray(path.read_bytes())
        lo, hi = spec.extent
        data[24:72] = struct.pack("<6d", *(lo + spec.cell_size), *(hi + spec.cell_size))
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match=f"{frame} grids span") as err:
            read_voxels(path)
        assert err.value.location == "extent"

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


def soft_first_object(scene, rng):
    """``scene`` with its first object's occupied cells set to values in
    (0, 1), so that the grid is not binary."""
    first, *rest = scene.objects
    occ = first.shape.occupancy.copy()
    occ[occ == 1.0] = rng.uniform(0.01, 0.99, size=int((occ == 1.0).sum()))
    soft = dataclasses.replace(first, shape=VoxelGrid.canonical(occ))
    return dataclasses.replace(scene, objects=(soft, *rest))


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

    def test_custom_layout_stored_inline(self, tmp_path):
        disparity = np.linspace(0.1, 0.4, DEFAULT_CAMERA.height * DEFAULT_CAMERA.width)
        disparity = disparity.reshape(DEFAULT_CAMERA.height, DEFAULT_CAMERA.width)
        scene = FactoredScene(camera=DEFAULT_CAMERA, layout=Layout(disparity))
        write_scene(scene, tmp_path / "layout.json")
        layout = json.loads((tmp_path / "layout.json").read_text())["layout"]
        # float32 disparities, rows top-down.
        assert base64.b64decode(layout["f4"]) == disparity.astype("<f4").tobytes()
        back = read_scene(tmp_path / "layout.json")
        assert np.array_equal(back.layout.disparity, disparity.astype(np.float32))

    def test_layout_beyond_float32_not_written(self, tmp_path):
        layout = Layout(np.full((DEFAULT_CAMERA.height, DEFAULT_CAMERA.width), 1e39))
        with pytest.raises(ValueError, match="float32"):
            write_scene(FactoredScene(camera=DEFAULT_CAMERA, layout=layout),
                        tmp_path / "layout.json")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("room", [
        {"center": [0.0, 0.0, 10.0], "half_extents": [1.0, 1.0, 1.0]},
        {"center": [0.0, 0.0, 0.0], "half_extents": [1e-310, 1.0, 1.0]},
    ], ids=["camera-outside", "wall-at-1e-310"])
    def test_custom_layout_beside_a_room_that_cannot_render(self, tmp_path, room):
        """An f4 layout is not checked against the room, so the reader takes
        a room that could not render one; writing that scene keeps the
        layout as f4."""
        disparity = np.linspace(0.1, 0.4, DEFAULT_CAMERA.height * DEFAULT_CAMERA.width)
        disparity = disparity.reshape(DEFAULT_CAMERA.height, DEFAULT_CAMERA.width)
        write_scene(FactoredScene(camera=DEFAULT_CAMERA, layout=Layout(disparity)),
                    tmp_path / "a.json")
        doc = json.loads((tmp_path / "a.json").read_text())
        doc["room"] = room
        (tmp_path / "a.json").write_text(json.dumps(doc))
        scene = read_scene(tmp_path / "a.json")
        write_scene(scene, tmp_path / "b.json")
        assert set(json.loads((tmp_path / "b.json").read_text())["layout"]) == {"f4"}
        back = read_scene(tmp_path / "b.json")
        assert np.array_equal(back.layout.disparity, disparity.astype(np.float32))
        assert back.layout.disparity.tobytes() == scene.layout.disparity.tobytes()

    def test_read_camera_skips_objects_and_layout(self, tmp_path):
        scene = generate_scene(GeneratorConfig(seed=9))
        write_scene(scene, tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        doc["objects"] = doc["layout"] = "not read"
        (tmp_path / "s.json").write_text(json.dumps(doc))
        assert read_camera(tmp_path / "s.json") == scene.camera

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_invalid_layout_values_name_location(self, tmp_path, value):
        disparity = np.full((DEFAULT_CAMERA.height, DEFAULT_CAMERA.width), 0.25)
        write_scene(FactoredScene(camera=DEFAULT_CAMERA, layout=Layout(disparity)),
                    tmp_path / "layout.json")
        doc = json.loads((tmp_path / "layout.json").read_text())
        doc["layout"]["f4"] = base64.b64encode(
            np.full(disparity.shape, value, dtype="<f4").tobytes()).decode()
        (tmp_path / "layout.json").write_text(json.dumps(doc))
        with pytest.raises(FileFormatError) as err:
            read_scene(tmp_path / "layout.json")
        assert err.value.location == "$.layout.f4"

    @pytest.mark.parametrize("cut, error", [(4, TruncatedFileError), (-4, FileFormatError)])
    def test_layout_payload_sized_by_camera(self, tmp_path, monkeypatch, cut, error):
        # 4 * 64 * 48 bytes: 16,384 base64 characters, checked before decoding.
        scene = generate_scene(GeneratorConfig(seed=2))
        layout = Layout(scene.layout.disparity * 0.9)
        write_scene(dataclasses.replace(scene, objects=(), layout=layout), tmp_path / "l.json")
        doc = json.loads((tmp_path / "l.json").read_text())
        assert len(doc["layout"]["f4"]) == 16_384
        doc["layout"]["f4"] = doc["layout"]["f4"][:-cut] if cut > 0 else \
            doc["layout"]["f4"] + "A" * -cut
        (tmp_path / "l.json").write_text(json.dumps(doc))

        def no_decode(*args, **kwargs):
            raise AssertionError("layout decoded despite its length")

        monkeypatch.setattr(base64, "b64decode", no_decode)
        with pytest.raises(error) as err:
            read_scene(tmp_path / "l.json")
        assert err.value.location == "$.layout.f4"
        assert "expected 16384" in str(err.value)

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
        current = json.loads((tmp_path / "v.json").read_text())
        older = []
        # Versions 1 and 2 stored each grid's float32 cells under "b64":
        # raw, then zlib-compressed.  Version 3 stored binary grids as
        # "bits", as version 4 does.
        for version, encode in ((1, bytes), (2, zlib.compress)):
            doc = json.loads(json.dumps(current))
            doc["format_version"] = version
            for obj, entry in zip(scene.objects, doc["objects"]):
                raw = obj.shape.occupancy.astype("<f4").ravel(order="F").tobytes()
                entry["voxels"] = {"dims": [32, 32, 32],
                                   "b64": base64.b64encode(encode(raw)).decode()}
            older.append(doc)
        for doc in (*older, {**current, "format_version": 3},
                    {**current, "format_version": 5}):
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

    def test_schema_validation(self, tmp_path):
        import importlib.resources as resources

        import jsonschema

        # Every form write_scene emits: "bits" and "f4" grids; "from_room",
        # "f4" and null layouts.
        scene = generate_scene(GeneratorConfig(seed=7))
        soft = soft_first_object(scene, np.random.default_rng(7))
        schema = json.loads(
            resources.files("scenefactor").joinpath("schemas/scene.schema.json").read_text())
        forms = set()
        for variant in (scene, dataclasses.replace(soft, layout=Layout(
                scene.layout.disparity * 0.9)), dataclasses.replace(scene, layout=None)):
            write_scene(variant, tmp_path / "s.json")
            doc = json.loads((tmp_path / "s.json").read_text())
            jsonschema.validate(doc, schema)
            forms |= {tuple(o["voxels"]) for o in doc["objects"]}
            forms.add(tuple(doc["layout"]) if doc["layout"] is not None else None)
        assert forms == {("dims", "bits"), ("dims", "f4"), ("from_room",), ("f4",), None}
        # The schema rejects what the reader rejects.
        for layout in ({"from_room": True, "pfm": "nowhere.pfm"}, {"from_room": 1},
                       {"pfm": "s.layout.pfm"}):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**doc, "layout": layout}, schema)

    @pytest.mark.parametrize("layout", [
        {"from_room": True, "pfm": "nowhere.pfm"},
        {"from_room": "yes"},
        {"from_room": 1},
        {"from_room": False},
        {"from_room": True, "f4": ""},
        {},
        [],
    ], ids=["extra-key", "string", "one", "false", "both", "empty", "list"])
    def test_layout_needs_from_room_xor_f4(self, tmp_path, layout):
        def put(doc):
            doc["layout"] = layout

        with pytest.raises(FileFormatError) as err:
            read_scene(self._edited(tmp_path, put))
        assert err.value.location == "$.layout"


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

    def test_room_whose_layout_overflows_names_location(self, tmp_path):
        """The camera is inside this room, but a wall 1e-310 m away has a
        disparity beyond float64.  The reader fails at the room."""
        def thin_room(doc):
            doc["room"] = {"center": [0.0, 0.0, 0.0], "half_extents": [1e-310, 1.0, 1.0]}

        with pytest.raises(FileFormatError) as err:
            read_scene(self._edited(tmp_path, thin_room))
        assert err.value.location == "$.room"
        assert "disparity values must be finite" in str(err.value)

    def test_room_layout_round_trips_as_from_room(self, tmp_path):
        """A generated scene's layout is stored as ``from_room``, read back
        as the full-size room render, and written again to the same bytes."""
        write_scene(generate_scene(GeneratorConfig(seed=2)), tmp_path / "a.json")
        assert json.loads((tmp_path / "a.json").read_text())["layout"] == {"from_room": True}
        scene = read_scene(tmp_path / "a.json")
        write_scene(scene, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        full = render.render_depth_analytic(scene, include_objects=False)
        assert scene.layout.disparity.tobytes() == \
            render.depth_to_disparity(full).disparity.tobytes()

    def test_each_scene_built_once(self, tmp_path, monkeypatch):
        """``read_scene`` makes the layout first, then builds the scene
        once, with or without a layout."""
        scene = generate_scene(GeneratorConfig(seed=2))
        write_scene(scene, tmp_path / "a.json")
        write_scene(dataclasses.replace(scene, layout=None), tmp_path / "b.json")
        built = []
        post_init = FactoredScene.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(FactoredScene, "__post_init__", counted)
        scenes = [read_scene(tmp_path / name) for name in ("a.json", "b.json")]
        assert built == scenes

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


# A packed canonical grid, and a float32 one: its bytes and base64 length.
PACKED_BYTES = 32**3 // 8
PACKED_CHARS = 5464
GRID_BYTES = 4 * 32**3
F4_CHARS = 174_764


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
        {"dims": [32, 32, 32], "bits": "", "f4": ""},
        {"dims": [32, 32, 32]},
        {"dims": [32, 32, 32], "bits": None, "f4": None},
        {"dims": [32, 32, 32], "b64": ""},
        {"dims": [32, 32, 32], "fvox": "obj.fvox"},
    ], ids=["both", "neither", "nulls", "v2-key", "v3-fvox"])
    def test_bits_xor_f4(self, tmp_path, voxels):
        scene, path = self._scene(tmp_path, "")
        if voxels.get("bits") == "":
            voxels = {**voxels, "bits": base64.b64encode(self._bits(scene)).decode()}
        doc = json.loads(path.read_text())
        doc["objects"][0]["voxels"] = voxels
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError) as err:
            read_scene(path)
        assert err.value.location == "$.objects[0].voxels"
        assert "exactly one of a 'bits' and an 'f4' payload" in str(err.value)

    def test_non_binary_grid_stored_as_f4(self, tmp_path, rng):
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(2, 2)))
        scene = soft_first_object(scene, rng)
        # float32 values, which the file stores exactly.
        disparity = (scene.layout.disparity * 0.9).astype(np.float32)
        scene = dataclasses.replace(scene, layout=Layout(disparity))
        occ = scene.objects[0].shape.occupancy
        for _ in range(2):  # a rewrite leaves nothing behind either
            write_scene(scene, tmp_path / "s.json")
            assert [p.name for p in tmp_path.iterdir()] == ["s.json"]
        doc = json.loads((tmp_path / "s.json").read_text())
        docs = [o["voxels"] for o in doc["objects"]]
        assert set(docs[0]) == {"dims", "f4"} and len(docs[0]["f4"]) == F4_CHARS
        assert base64.b64decode(docs[0]["f4"]) == occ.astype("<f4").ravel(order="F").tobytes()
        assert set(docs[1]) == {"dims", "bits"}
        assert set(doc["layout"]) == {"f4"}
        back = read_scene(tmp_path / "s.json")
        assert scenes_identical(back, scene)
        assert np.array_equal(back.objects[0].shape.occupancy.view(np.uint32),
                              occ.view(np.uint32))
        write_scene(back, tmp_path / "t.json")
        assert (tmp_path / "t.json").read_bytes() == (tmp_path / "s.json").read_bytes()

    def _f4_scene(self, tmp_path, occ):
        """A one-object scene file whose first grid is stored as ``f4``
        holding ``occ``, written whatever its values."""
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        write_scene(soft_first_object(scene, np.random.default_rng(0)), tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        doc["objects"][0]["voxels"]["f4"] = base64.b64encode(
            np.asarray(occ, dtype="<f4").ravel(order="F").tobytes()).decode()
        (tmp_path / "s.json").write_text(json.dumps(doc))
        return tmp_path / "s.json"

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1.5, -0.25])
    def test_invalid_f4_values_name_location(self, tmp_path, value):
        occ = np.zeros((32, 32, 32))
        occ[3, 4, 5] = value
        with pytest.raises(FileFormatError) as err:
            read_scene(self._f4_scene(tmp_path, occ))
        assert err.value.location == "$.objects[0].voxels.f4"

    @pytest.mark.parametrize("cells, error", [(32**3 - 1, TruncatedFileError),
                                              (32**3 + 1, FileFormatError),
                                              (32**3 // 8, TruncatedFileError)],
                             ids=["short", "long", "bits-sized"])
    def test_f4_length_checked_before_decoding(self, tmp_path, monkeypatch, cells, error):
        path = self._f4_scene(tmp_path, np.zeros(cells))

        def no_decode(*args, **kwargs):
            raise AssertionError("payload decoded despite its length")

        monkeypatch.setattr(base64, "b64decode", no_decode)
        with pytest.raises(error) as err:
            read_scene(path)
        assert err.value.location == "$.objects[0].voxels.f4"
        assert f"expected {F4_CHARS}" in str(err.value)


class TestReferences:
    """A scene names no other file: a format-3 ``fvox`` or ``pfm``
    reference fails at its location wherever it points, and the file it
    names is never opened."""

    @pytest.mark.parametrize("which", ["fvox", "pfm"])
    @pytest.mark.parametrize("where", ["absolute", "parent", "directory"])
    def test_reference_outside_directory_rejected(self, tmp_path, capsys, monkeypatch,
                                                  which, where):
        scene = generate_scene(GeneratorConfig(seed=4, object_count_range=(1, 1)))
        scenes = tmp_path / "scenes"
        (scenes / "sub").mkdir(parents=True)
        write_voxels(tmp_path / "obj.fvox", scene.objects[0].shape)
        write_pfm(tmp_path / "layout.pfm", scene.layout.disparity)
        write_scene(scene, scenes / "s.json")
        target = {"fvox": "obj.fvox", "pfm": "layout.pfm"}[which]
        name = {"absolute": str(tmp_path / target), "parent": f"../{target}",
                "directory": "sub"}[where]
        doc = json.loads((scenes / "s.json").read_text())
        if which == "fvox":
            doc["objects"][0]["voxels"] = {"dims": [32, 32, 32], "fvox": name}
        else:
            doc["layout"] = {"pfm": name}
        (scenes / "s.json").write_text(json.dumps(doc))

        opened = []
        read_bytes = pathlib.Path.read_bytes
        monkeypatch.setattr(pathlib.Path, "read_bytes",
                            lambda self: opened.append(self.name) or read_bytes(self))
        with pytest.raises(FileFormatError) as err:
            read_scene(scenes / "s.json")
        assert err.value.location == {"fvox": "$.objects[0].voxels", "pfm": "$.layout"}[which]
        assert opened == ["s.json"]
        assert main(["render", "--scene", str(scenes / "s.json"),
                     "--out", str(tmp_path / "d.pfm")]) == 1
        assert capsys.readouterr().err.count("\n") == 1


def damaged_pfm(header: bytes):
    def read(tmp_path):
        (tmp_path / "d.pfm").write_bytes(header + b"\x00" * 4)
        return read_pfm(tmp_path / "d.pfm")
    return read


def damaged_fvox_cell(value: float):
    def read(tmp_path):
        path = tmp_path / "d.fvox"
        write_voxels(path, VoxelGrid.canonical(np.zeros(CANONICAL_SPEC.dims)))
        data = bytearray(path.read_bytes())
        struct.pack_into("<f", data, FVOX_HEADER_BYTES, value)
        path.write_bytes(bytes(data))
        return read_voxels(path)
    return read


def damaged_scene(value, *where):
    """A generated scene file with ``value`` put at the key path ``where``."""
    def read(tmp_path):
        write_scene(generate_scene(GeneratorConfig(seed=2)), tmp_path / "d.json")
        doc = json.loads((tmp_path / "d.json").read_text())
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        (tmp_path / "d.json").write_text(json.dumps(doc))
        return read_scene(tmp_path / "d.json")
    return read


def scene_with_long_integer(read_file):
    """A scene file whose camera width is an integer literal past Python's
    4,300-digit limit, read with ``read_file``."""
    def read(tmp_path):
        path = tmp_path / "d.json"
        write_scene(FactoredScene(camera=DEFAULT_CAMERA), path)
        width = f'"width": {DEFAULT_CAMERA.width}'
        text = path.read_text()
        assert width in text
        path.write_text(text.replace(width, '"width": ' + "9" * 5000))
        return read_file(path)
    return read


@pytest.mark.parametrize("read, location, fragment", [
    (damaged_pfm(b"Pf\n0 1\n-1.0\n"), "header", "bad dimensions 0x1"),
    (damaged_pfm(b"Pf\n1 1\n0.0\n"), "header", "scale must be nonzero"),
    (damaged_pfm(b"Pf\n1 1\nnan\n"), "header", "scale must be nonzero and finite"),
    (damaged_fvox_cell(2.0), "payload", "occupancy values must lie in [0, 1]"),
    (damaged_scene(5, "objects", 0, "pose"), "$.objects[0].pose", "'pose' has type int"),
    (damaged_scene(64.0, "camera", "width"), "$.camera.width", "must be an integer"),
    (damaged_scene([0.0, 1.0, 1.0], "room", "half_extents"), "$.room",
     "half_extents must be strictly positive"),
    (damaged_scene(5, "objects", 0), "$.objects[0]", "object entry must be a JSON object"),
    # A value rule lives in the constructor, which the reader reports at the object.
    (damaged_scene("lamp", "objects", 0, "class_label"), "$.objects[0]",
     "unknown class label 'lamp'"),
    (damaged_scene([], "objects", 0, "solid"), "$.objects[0]",
     "solid must hold at least one cuboid"),
    (damaged_scene([2, 0, 0, 0], "objects", 0, "pose", "rotation"), "$.objects[0].pose",
     "not unit length"),
    (damaged_scene([0, 1, 1], "objects", 0, "pose", "scale"), "$.objects[0].pose",
     "scale components must be strictly positive"),
    (damaged_scene(1.5, "objects", 0, "score"), "$.objects[0]", "score must lie in [0, 1]"),
    (damaged_scene([5, 5, 5, 9], "objects", 0, "box2d"), "$.objects[0]",
     "box2d must be non-degenerate"),
    (damaged_scene(None, "room"), "$.layout", "from_room but the scene has no room"),
    (scene_with_long_integer(read_scene), "$", "d.json: $: Exceeds the limit (4300 digits)"),
    (scene_with_long_integer(read_camera), "$", "d.json: $: Exceeds the limit (4300 digits)"),
    # Legal JSON integers that a float cannot hold.
    *[(damaged_scene(10**400, *where), location, "integer too large for a float")
      for where, location in [
          (("objects", 0, "score"), "$.objects[0].score"),
          (("objects", 0, "pose", "scale", 0), "$.objects[0].pose.scale"),
          (("objects", 0, "box2d", 0), "$.objects[0].box2d"),
          (("room", "center", 0), "$.room.center"),
          (("camera", "fx"), "$.camera.fx"),
          (("camera", "cx"), "$.camera.cx")]],
], ids=["pfm-width", "pfm-scale", "pfm-nan-scale", "fvox-cell", "pose-type", "camera-width",
        "room-half", "object-entry", "class-label", "empty-solid", "rotation", "scale", "score", "box2d", "from-room",
        "scene-long-integer", "camera-long-integer", "score-overflow", "scale-overflow",
        "box2d-overflow", "room-overflow", "fx-overflow", "cx-overflow"])
def test_damaged_input_names_class_location_and_cause(tmp_path, read, location, fragment):
    with pytest.raises(FileFormatError) as err:
        read(tmp_path)
    assert type(err.value) is FileFormatError
    assert err.value.location == location
    assert fragment in str(err.value)


def one_object_scene(shape: VoxelGrid) -> FactoredScene:
    return FactoredScene(camera=DEFAULT_CAMERA, objects=(SceneObject(shape, Pose.identity()),))


class TestMaskBackedGrids:
    """A binary grid keeps only its packed mask; nothing that reads or
    writes it can tell how the grid was built."""

    @pytest.mark.parametrize("frame", sorted(FRAME_SPECS))
    def test_grid_from_floats_matches_grid_from_bits(self, tmp_path, rng, frame):
        dims = FRAME_SPECS[frame].dims
        cells = (rng.random(dims) < 0.3).astype(np.float32)
        built = VoxelGrid(cells, frame)
        read = VoxelGrid.from_bits(np.packbits(cells.ravel(order="F") == 1.0).tobytes(), frame)
        assert built == read and read == built
        for grid in (built, read):
            assert grid.occupancy.dtype == np.float32 and not grid.occupancy.flags.writeable
            assert np.array_equal(grid.occupancy, cells)
            assert np.array_equal(grid.occupied, cells == 1.0)
            assert grid.count() == int(cells.sum())
        thirds = [VoxelGrid(rng.random(dims) < fill, frame) for fill in (0.0, 0.3, 0.9)]
        thirds.append(VoxelGrid(rng.random(dims), frame))  # a soft grid
        for third in thirds:
            assert voxel_iou(built, third) == voxel_iou(read, third) == voxel_iou(third, read)
        write_voxels(tmp_path / "built.fvox", built)
        write_voxels(tmp_path / "read.fvox", read)
        assert (tmp_path / "built.fvox").read_bytes() == (tmp_path / "read.fvox").read_bytes()
        assert read_voxels(tmp_path / "read.fvox") == built

    def test_scene_file_of_either_grid_is_the_same(self, tmp_path, rng):
        cells = (rng.random(CANONICAL_SPEC.dims) < 0.3).astype(np.float32)
        built = VoxelGrid.canonical(cells)
        write_scene(one_object_scene(built), tmp_path / "built.json")
        read = read_scene(tmp_path / "built.json").objects[0].shape
        assert read == built and np.array_equal(read.occupancy, cells)
        write_scene(one_object_scene(read), tmp_path / "read.json")
        assert (tmp_path / "built.json").read_bytes() == (tmp_path / "read.json").read_bytes()
        voxels = json.loads((tmp_path / "read.json").read_text())["objects"][0]["voxels"]
        packed = np.packbits(cells.ravel(order="F") == 1.0).tobytes()
        assert base64.b64decode(voxels["bits"]) == packed

    def test_soft_grid_round_trips_through_f4(self, tmp_path, rng):
        cells = rng.random(CANONICAL_SPEC.dims).astype(np.float32)
        cells[cells < 0.25] = 0.0
        soft = VoxelGrid.canonical(cells)
        assert soft.bits is None
        assert soft != VoxelGrid.canonical(soft.occupied)  # same mask, other cells
        write_scene(one_object_scene(soft), tmp_path / "s.json")
        voxels = json.loads((tmp_path / "s.json").read_text())["objects"][0]["voxels"]
        assert set(voxels) == {"dims", "f4"}
        back = read_scene(tmp_path / "s.json").objects[0].shape
        assert back == soft and back.bits is None
        assert np.array_equal(back.occupancy.view(np.uint32), cells.view(np.uint32))
        write_voxels(tmp_path / "s.fvox", soft)
        assert read_voxels(tmp_path / "s.fvox") == soft

    def test_reading_binary_grids_keeps_only_their_masks(self, tmp_path, rng):
        n = 40
        objects = tuple(SceneObject(VoxelGrid.canonical(rng.random(CANONICAL_SPEC.dims) < 0.3),
                                    Pose.identity()) for _ in range(n))
        write_scene(FactoredScene(camera=DEFAULT_CAMERA, objects=objects), tmp_path / "s.json")
        tracemalloc.start()
        try:
            scene = read_scene(tmp_path / "s.json")
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(scene.objects) == n
        # A 4 KiB mask per grid, where float32 cells would take 128 KiB.
        assert retained < 8 * 1024 * n
