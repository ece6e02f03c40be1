"""Bit-exact file formats: scene JSON, FVOX voxel grids, PFM depth images,
point-cloud CSV.

Formats
-------
* Scene JSON (``format_version`` 4), one self-contained file: camera,
  optional room cuboid, layout, warnings, and objects (pose, score,
  class, optional 2D box, canonical voxel grid, optional analytic cuboid
  solid).  A binary grid, whose every value is 0.0 or 1.0, is stored as
  ``{"dims": [32, 32, 32], "bits": base64(packbits(occupied,
  x-fastest))}``, 4,096 bytes.  These are the bytes of the grid's own
  mask, and the reader hands them back to a grid that keeps only them
  (:meth:`~scenefactor.voxels.VoxelGrid.from_bits`).  Any other (soft)
  grid is stored as ``{"dims": [32, 32, 32], "f4": base64(<f4 cells,
  x-fastest>)}``, 131,072 bytes, and read back into a grid that keeps its
  float32 cells.  A layout
  that matches the analytic room render is stored as ``{"from_room":
  true}`` and made again from the room when read, which keeps the round
  trip exact at float64; any other layout as ``{"f4": base64(<f4 disparity, rows
  top-down>)}``, 4 * width * height bytes of the scene's camera.  The
  reader checks each payload's base64 length before it decodes anything.
* FVOX: magic ``FVOX``, u32 version, u32 dims[3], u32 frame tag
  (0 canonical, 1 scene), f64 extent[6] (min then max), then float32
  occupancy, x-fastest, little-endian, for binary and soft grids alike.
  The frame tag fixes the lattice, so the reader takes only that frame's
  dims and extent (:data:`~scenefactor.voxels.FRAME_SPECS`).
* PFM: grayscale ``Pf``, bottom-up rows, negative scale marks
  little-endian.  Depth files use 0 as the empty marker.
* Point-cloud CSV (written only): header ``x,y,z``, then one row per point,
  each coordinate the shortest ``repr`` of its float64 value, ``\n`` line
  ends.

All writes are atomic and go through one writer, :func:`atomic_writer`:
each file is written to a ``.<name>.*`` temp file beside it, then renamed
onto it; a failed write leaves the target as it was and no temp file.
A written file gets the mode that ``open()`` would give it, 0o666 less
the umask.  PFM and FVOX write their header and then their payload
through it, and the point-cloud CSV is formatted and streamed through it
one chunk of rows at a time.  Parse errors carry the file path and the
offending location.

The scene reader checks, at the field, only what a file can get wrong
there: presence, JSON type, list length, payload size and the camera's
image-side bound.  Every rule on a value (a unit rotation, a positive
scale, a known class label, a non-empty solid, a finite non-negative
layout) lives in the constructor of the type that holds it, and the reader
reports that constructor's ``ValueError`` at the enclosing object, such as
``$.objects[0]``, ``$.objects[0].pose`` or ``$.room``.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .geometry import Camera, Pose, UnitQuaternion, as_points
from .render import DepthMap, room_layout
from .scene import FactoredScene, Layout, SceneObject
from .voxels import CANONICAL_SPEC, FRAME_SPECS, Cuboid, VoxelGrid

__all__ = [
    "BadMagicError",
    "FileFormatError",
    "TruncatedFileError",
    "UnknownVersionError",
    "atomic_write_text",
    "atomic_writer",
    "load_json",
    "read_camera",
    "read_depth_pfm",
    "read_pfm",
    "read_scene",
    "read_voxels",
    "write_pfm",
    "write_pointcloud_csv",
    "write_scene",
    "write_voxels",
]

SCENE_FORMAT_VERSION = 4
FVOX_MAGIC = b"FVOX"
FVOX_VERSION = 1
# Largest camera width or height a scene file may declare; checked before
# any image-sized array is allocated.
MAX_IMAGE_SIDE = 8192
_FVOX_HEADER = struct.Struct("<4sI3II6d")
# Scene voxels are canonical grids: their dims and cell count.
_GRID_DIMS = list(CANONICAL_SPEC.dims)
_GRID_CELLS = math.prod(CANONICAL_SPEC.dims)


class FileFormatError(ValueError):
    """A file could not be read or did not match its format."""

    def __init__(self, message: str, path=None, location: str | None = None):
        self.path = str(path) if path is not None else None
        self.location = location
        parts = []
        if self.path:
            parts.append(self.path)
        if location:
            parts.append(location)
        prefix = ": ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class BadMagicError(FileFormatError):
    pass


class UnknownVersionError(FileFormatError):
    pass


class TruncatedFileError(FileFormatError):
    pass


@contextlib.contextmanager
def atomic_writer(path):
    """A binary handle on a ``.<name>.*`` temp file in ``path``'s
    directory.  The temp file is renamed onto ``path`` when the block ends,
    and removed if the block raises.  It is created with mode 0o666 less
    the umask, as ``open()`` creates a file."""
    path = Path(path)
    while True:
        tmp = str(path.parent / f".{path.name}.{secrets.token_hex(8)}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_writer(path) as handle:
        handle.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# PFM

def write_pfm(path, image: np.ndarray) -> None:
    """Write a single-channel float32 PFM (little-endian, bottom-up rows)."""
    img = np.asarray(image, dtype="<f4")
    if img.ndim != 2:
        raise ValueError(f"PFM images must be 2D, got shape {img.shape}")
    with atomic_writer(path) as handle:
        handle.write(f"Pf\n{img.shape[1]} {img.shape[0]}\n-1.0\n".encode("ascii"))
        handle.write(np.flipud(img).tobytes())


def _pfm_tokens(data: bytes, count: int, path) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated header tokens and the payload
    offset (one whitespace byte past the last token)."""
    tokens = []
    pos = 0
    whitespace = b" \t\n\r\f\v"
    while len(tokens) < count:
        while pos < len(data) and data[pos:pos + 1] in whitespace:
            pos += 1
        start = pos
        while pos < len(data) and data[pos:pos + 1] not in whitespace:
            pos += 1
        if start == pos:
            raise TruncatedFileError("header ended early", path, location=f"byte {pos}")
        tokens.append(data[start:pos])
    if pos >= len(data):
        raise TruncatedFileError("no payload after header", path, location=f"byte {pos}")
    return tokens, pos + 1


def read_pfm(path) -> np.ndarray:
    """Read a single-channel PFM into a float array (top-down rows)."""
    data = Path(path).read_bytes()
    tokens, offset = _pfm_tokens(data, 4, path)
    magic = tokens[0]
    if magic == b"PF":
        raise FileFormatError("color PFM is not supported (expected grayscale 'Pf')", path,
                              location="byte 0")
    if magic != b"Pf":
        raise BadMagicError(f"bad magic {magic!r}, expected b'Pf'", path, location="byte 0")
    try:
        width, height = int(tokens[1]), int(tokens[2])
        scale = float(tokens[3])
    except ValueError as exc:
        raise FileFormatError(f"malformed header: {exc}", path, location="header") from exc
    if width <= 0 or height <= 0:
        raise FileFormatError(f"bad dimensions {width}x{height}", path, location="header")
    if scale == 0.0 or not math.isfinite(scale):
        raise FileFormatError("scale must be nonzero and finite", path, location="header")
    dtype = "<f4" if scale < 0 else ">f4"
    expected = width * height * 4
    payload = data[offset:]
    if len(payload) != expected:
        raise TruncatedFileError(
            f"payload has {len(payload)} bytes, expected {expected}", path,
            location=f"byte {offset}")
    img = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return np.flipud(img).astype(float)


def read_depth_pfm(path, camera: Camera) -> DepthMap:
    img = read_pfm(path)
    if img.shape != (camera.height, camera.width):
        raise FileFormatError(f"depth image is {img.shape[1]}x{img.shape[0]}, "
                              f"camera is {camera.width}x{camera.height}", path,
                              location="header")
    try:
        return DepthMap(img, camera)
    except ValueError as exc:  # non-finite or negative values
        raise FileFormatError(str(exc), path, location="payload") from exc


# ---------------------------------------------------------------------------
# Point-cloud CSV

# Rows per point-cloud CSV chunk: the writer's memory is one chunk's.
_CSV_CHUNK_ROWS = 8_192


def write_pointcloud_csv(path, points: np.ndarray) -> None:
    """Write (n, 3) points as ``x,y,z`` CSV, each coordinate as ``repr``
    of its float64 value; any other shape is a ValueError, written nowhere.

    The cloud is formatted and written one chunk of ``_CSV_CHUNK_ROWS`` rows
    at a time, keeping nothing between chunks, so memory is bounded by the
    chunk, not the cloud.  Each column of a chunk formats only its distinct
    values (distinct bits: -0.0 stays apart from 0.0), which repeat a lot in
    a depth-map cloud, and scatters the text back.
    """
    points = as_points(points)
    with atomic_writer(path) as handle:
        handle.write(b"x,y,z\n")
        for start in range(0, len(points), _CSV_CHUNK_ROWS):
            chunk = points[start:start + _CSV_CHUNK_ROWS]
            cells = np.full((len(chunk), 6), ",", dtype=object)
            cells[:, 5] = "\n"
            for axis in range(3):
                bits, inverse = np.unique(chunk[:, axis].view(np.uint64), return_inverse=True)
                text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
                cells[:, 2 * axis] = text[inverse]
            handle.write("".join(cells.ravel().tolist()).encode("utf-8"))


# ---------------------------------------------------------------------------
# FVOX

_FRAME_TAGS = {"canonical": 0, "scene": 1}
_TAG_FRAMES = {v: k for k, v in _FRAME_TAGS.items()}


def write_voxels(path, grid: VoxelGrid) -> None:
    lo, hi = grid.extent
    header = _FVOX_HEADER.pack(FVOX_MAGIC, FVOX_VERSION, *grid.dims,
                               _FRAME_TAGS[grid.frame], *lo.tolist(), *hi.tolist())
    with atomic_writer(path) as handle:
        handle.write(header)
        handle.write(grid.occupancy.astype("<f4").ravel(order="F").tobytes())


def read_voxels(path) -> VoxelGrid:
    """Read an FVOX grid; its header must give the lattice of its frame tag."""
    data = Path(path).read_bytes()
    if len(data) < _FVOX_HEADER.size:
        raise TruncatedFileError(
            f"file has {len(data)} bytes, header needs {_FVOX_HEADER.size}", path,
            location=f"byte {len(data)}")
    magic, version, nx, ny, nz, tag, *extent = _FVOX_HEADER.unpack_from(data)
    if magic != FVOX_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {FVOX_MAGIC!r}", path,
                            location="byte 0")
    if version != FVOX_VERSION:
        raise UnknownVersionError(f"unknown version {version}", path, location="byte 4")
    if tag not in _TAG_FRAMES:
        raise FileFormatError(f"unknown frame tag {tag}", path, location="byte 20")
    frame = _TAG_FRAMES[tag]
    spec = FRAME_SPECS[frame]
    if (nx, ny, nz) != spec.dims:
        raise FileFormatError(f"{frame} grids have dims {spec.dims}, got {(nx, ny, nz)}",
                              path, location="header")
    lattice = [v for corner in spec.extent for v in corner.tolist()]
    if extent != lattice:
        raise FileFormatError(f"{frame} grids span {lattice}, got {extent}", path,
                              location="extent")
    expected = _FVOX_HEADER.size + 4 * math.prod(spec.dims)
    if len(data) != expected:
        raise TruncatedFileError(
            f"file has {len(data)} bytes, format requires exactly {expected}", path,
            location=f"byte {min(len(data), expected)}")
    occ = np.frombuffer(data, dtype="<f4", offset=_FVOX_HEADER.size)
    try:
        return VoxelGrid(occ.reshape(spec.dims, order="F"), frame)
    except ValueError as exc:
        raise FileFormatError(str(exc), path, location="payload") from exc


# ---------------------------------------------------------------------------
# JSON plumbing with location-aware errors

def _expect(doc, key, loc, path, kind=None, allow_none=False):
    if key not in doc:
        raise FileFormatError(f"missing field {key!r}", path, location=loc)
    value = doc[key]
    if value is None:
        if allow_none:
            return None
        raise FileFormatError(f"field {key!r} must not be null", path, location=loc)
    if kind is not None and not isinstance(value, kind):
        raise FileFormatError(
            f"field {key!r} has type {type(value).__name__}", path, location=f"{loc}.{key}")
    return value


def _numbers(values: list, loc, path) -> list[float]:
    """JSON numbers as floats; anything else raises a FileFormatError at
    ``loc``.  ``json.loads`` makes exact types, so a ``bool`` fails the type
    test, and an integer of more than ~308 digits fails the conversion."""
    if not {int, float}.issuperset(map(type, values)):
        raise FileFormatError("expected a number", path, location=loc)
    try:
        return list(map(float, values))
    except OverflowError:
        raise FileFormatError("integer too large for a float", path, location=loc) from None


def _floats(value, n, loc, path) -> list[float]:
    """A JSON list of ``n`` numbers (:func:`_numbers`)."""
    if not isinstance(value, list) or len(value) != n:
        raise FileFormatError(f"expected a list of {n} numbers", path, location=loc)
    return _numbers(value, loc, path)


def load_json(path):
    """Parse a JSON file; every malformed input raises a located FileFormatError."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data)
    except RecursionError as exc:
        raise FileFormatError("JSON nested too deeply", path, location="$") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not UTF-8 text: {exc.reason}", path,
                              location=f"byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}",
                              path, location=f"byte {exc.pos}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise FileFormatError(str(exc), path, location="$") from exc


def _encode(cells: np.ndarray) -> str:
    return base64.b64encode(cells.tobytes()).decode("ascii")


def _payload(text, size: int, loc, path) -> bytes:
    """The ``size`` bytes of a base64 payload.  Its length is checked
    before anything is decoded."""
    if not isinstance(text, str):
        raise FileFormatError("payload must be a base64 string", path, location=loc)
    chars = 4 * math.ceil(size / 3)
    if len(text) != chars:
        error = TruncatedFileError if len(text) < chars else FileFormatError
        raise error(f"payload has {len(text)} base64 characters, expected {chars}", path,
                    location=loc)
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise FileFormatError(f"invalid base64 payload: {exc}", path, location=loc) from exc
    if len(data) != size:  # the padding decides the last byte or two
        raise FileFormatError(f"payload decodes to {len(data)} bytes, expected {size}", path,
                              location=loc)
    return data


# ---------------------------------------------------------------------------
# Scene JSON

def _camera_to_dict(cam: Camera) -> dict:
    return {"fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
            "width": cam.width, "height": cam.height}


def _camera_from_dict(doc, loc, path) -> Camera:
    vals = {}
    for key in ("fx", "fy", "cx", "cy", "width", "height"):
        vals[key] = _expect(doc, key, loc, path)
        _numbers([vals[key]], f"{loc}.{key}", path)
    for key in ("width", "height"):
        if vals[key] > MAX_IMAGE_SIDE:
            raise FileFormatError(f"camera {key} {vals[key]!r} exceeds the limit of "
                                  f"{MAX_IMAGE_SIDE} pixels", path, location=loc)
        if not isinstance(vals[key], int):
            raise FileFormatError(f"field {key!r} must be an integer", path,
                                  location=f"{loc}.{key}")
    try:
        return Camera(**vals)
    except ValueError as exc:
        raise FileFormatError(str(exc), path, location=loc) from exc


def _cuboid_to_dict(c: Cuboid) -> dict:
    return {"center": c.center.tolist(), "half_extents": c.half_extents.tolist()}


def _cuboid_from_dict(doc, loc, path) -> Cuboid:
    if not isinstance(doc, dict):
        raise FileFormatError("cuboid must be an object", path, location=loc)
    center = _floats(_expect(doc, "center", loc, path), 3, f"{loc}.center", path)
    half = _floats(_expect(doc, "half_extents", loc, path), 3, f"{loc}.half_extents", path)
    try:
        return Cuboid(center, half)
    except ValueError as exc:
        raise FileFormatError(str(exc), path, location=loc) from exc


def _object_to_dict(obj: SceneObject) -> dict:
    if obj.shape.bits is not None:
        kind, cells = "bits", obj.shape.bits
    else:
        kind, cells = "f4", obj.shape.occupancy.astype("<f4").ravel(order="F")
    return {
        "class_label": obj.class_label,
        "score": obj.score,
        "pose": {
            "scale": obj.pose.scale.tolist(),
            "rotation": obj.pose.rotation.as_array().tolist(),
            "translation": obj.pose.translation.tolist(),
        },
        "box2d": list(obj.box2d) if obj.box2d is not None else None,
        "voxels": {"dims": list(obj.shape.dims), kind: _encode(cells)},
        "solid": [_cuboid_to_dict(c) for c in obj.solid] if obj.solid is not None else None,
    }


def _object_from_dict(doc, loc, path) -> SceneObject:
    if not isinstance(doc, dict):
        raise FileFormatError("object entry must be a JSON object", path, location=loc)
    label = _expect(doc, "class_label", loc, path, kind=str, allow_none=True)
    (score,) = _numbers([_expect(doc, "score", loc, path)], f"{loc}.score", path)

    pose_doc = _expect(doc, "pose", loc, path, kind=dict)
    scale = _floats(_expect(pose_doc, "scale", f"{loc}.pose", path), 3, f"{loc}.pose.scale", path)
    rot = _floats(_expect(pose_doc, "rotation", f"{loc}.pose", path), 4, f"{loc}.pose.rotation", path)
    trans = _floats(_expect(pose_doc, "translation", f"{loc}.pose", path), 3,
                    f"{loc}.pose.translation", path)
    try:
        pose = Pose(scale, UnitQuaternion(*rot), trans)
    except ValueError as exc:
        raise FileFormatError(str(exc), path, location=f"{loc}.pose") from exc

    box = _expect(doc, "box2d", loc, path, allow_none=True)
    box2d = tuple(_floats(box, 4, f"{loc}.box2d", path)) if box is not None else None

    vox = _expect(doc, "voxels", loc, path, kind=dict)
    dims = _expect(vox, "dims", f"{loc}.voxels", path)
    if dims != _GRID_DIMS:
        raise FileFormatError(f"voxels must have dims {_GRID_DIMS}, got {dims!r}", path,
                              location=f"{loc}.voxels.dims")
    kinds = set(vox) - {"dims"}
    if kinds not in ({"bits"}, {"f4"}):
        raise FileFormatError("voxels need exactly one of a 'bits' and an 'f4' payload",
                              path, location=f"{loc}.voxels")
    (kind,) = kinds
    payload_loc = f"{loc}.voxels.{kind}"
    if kind == "bits":
        # The payload is the grid's packed mask: kept as it is, no cell unpacked.
        shape = VoxelGrid.from_bits(_payload(vox[kind], _GRID_CELLS // 8, payload_loc, path),
                                    "canonical")
    else:
        occ = np.frombuffer(_payload(vox[kind], 4 * _GRID_CELLS, payload_loc, path), dtype="<f4")
        try:
            shape = VoxelGrid.canonical(occ.reshape(_GRID_DIMS, order="F"))
        except ValueError as exc:
            raise FileFormatError(str(exc), path, location=payload_loc) from exc

    solid_doc = _expect(doc, "solid", loc, path, kind=list, allow_none=True)
    solid = None
    if solid_doc is not None:
        solid = tuple(_cuboid_from_dict(c, f"{loc}.solid[{i}]", path)
                      for i, c in enumerate(solid_doc))
    try:
        return SceneObject(shape=shape, pose=pose, score=score, class_label=label,
                           box2d=box2d, solid=solid)
    except ValueError as exc:
        raise FileFormatError(str(exc), path, location=loc) from exc


def _is_room_render(scene: FactoredScene) -> bool:
    """Whether the scene's layout equals its room's analytic render bit for
    bit; a scene whose room cannot render a layout has no such render."""
    try:
        rendered = room_layout(scene.camera, scene.room)
    except ValueError:
        return False
    return np.array_equal(scene.layout.disparity, rendered.disparity)


def write_scene(scene: FactoredScene, path) -> None:
    """Serialize a scene as one JSON file.  A binary grid is stored as
    packed bits, any other grid as float32 cells; the layout is stored as
    ``from_room`` when it is exactly the analytic room render, else as
    float32 disparities.  A custom layout that float32 cannot hold raises
    ``ValueError`` before anything is written."""
    layout_doc = None
    if scene.layout is not None:
        if _is_room_render(scene):
            layout_doc = {"from_room": True}
        else:
            with np.errstate(over="ignore"):
                disparity = scene.layout.disparity.astype("<f4")
            if not np.all(np.isfinite(disparity)):
                raise ValueError("layout disparities exceed the float32 range of a scene file")
            layout_doc = {"f4": _encode(disparity)}
    doc = {
        "format_version": SCENE_FORMAT_VERSION,
        "camera": _camera_to_dict(scene.camera),
        "room": _cuboid_to_dict(scene.room) if scene.room is not None else None,
        "layout": layout_doc,
        "warnings": list(scene.warnings),
        "objects": [_object_to_dict(o) for o in scene.objects],
    }
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def _scene_doc(path) -> tuple[dict, Camera]:
    """A scene file's JSON document and its camera, past the checks of the
    top level, ``format_version`` and ``$.camera``."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be a JSON object", path, location="$")
    version = _expect(doc, "format_version", "$", path)
    if version != SCENE_FORMAT_VERSION:
        raise UnknownVersionError(f"unknown format_version {version!r}; this build reads "
                                  f"version {SCENE_FORMAT_VERSION}", path,
                                  location="$.format_version")
    camera = _camera_from_dict(_expect(doc, "camera", "$", path, kind=dict), "$.camera", path)
    return doc, camera


def read_camera(path) -> Camera:
    """The camera of a scene file, without decoding its objects or layout."""
    return _scene_doc(path)[1]


def read_scene(path) -> FactoredScene:
    path = Path(path)
    doc, camera = _scene_doc(path)
    room_doc = _expect(doc, "room", "$", path, allow_none=True)
    room = _cuboid_from_dict(room_doc, "$.room", path) if room_doc is not None else None
    warnings_doc = _expect(doc, "warnings", "$", path, kind=list)
    for i, w in enumerate(warnings_doc):
        if not isinstance(w, str):
            raise FileFormatError("warnings must be strings", path, location=f"$.warnings[{i}]")
    objects_doc = _expect(doc, "objects", "$", path, kind=list)
    objects = tuple(_object_from_dict(o, f"$.objects[{i}]", path)
                    for i, o in enumerate(objects_doc))
    layout_doc = _expect(doc, "layout", "$", path, allow_none=True)
    layout = None if layout_doc is None else _layout_from_doc(layout_doc, camera, room, path)
    try:
        return FactoredScene(camera=camera, objects=objects, layout=layout, room=room,
                             warnings=tuple(warnings_doc))
    except ValueError as exc:
        raise FileFormatError(str(exc), path, location="$.objects") from exc


def _layout_from_doc(layout_doc, camera: Camera, room: Cuboid | None, path) -> Layout:
    # JSON 1 and 1.0 compare equal to true, so the value is also checked by identity.
    from_room = layout_doc == {"from_room": True} and layout_doc["from_room"] is True
    if not (from_room or isinstance(layout_doc, dict) and set(layout_doc) == {"f4"}):
        raise FileFormatError('layout must be null, {"from_room": true} or {"f4": <base64>}',
                              path, location="$.layout")
    if from_room:
        if room is None:
            raise FileFormatError("layout says from_room but the scene has no room", path,
                                  location="$.layout")
        try:
            return room_layout(camera, room)
        except ValueError as exc:
            raise FileFormatError(str(exc), path, location="$.room") from exc
    data = _payload(layout_doc["f4"], 4 * camera.width * camera.height, "$.layout.f4", path)
    try:
        return Layout(np.frombuffer(data, dtype="<f4").reshape(camera.height, camera.width))
    except ValueError as exc:
        raise FileFormatError(str(exc), path, location="$.layout.f4") from exc
