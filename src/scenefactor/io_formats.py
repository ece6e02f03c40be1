"""Bit-exact file formats: scene JSON, FVOX voxel grids, PFM depth images,
point-cloud CSV.

Formats
-------
* Scene JSON (``format_version`` 3): camera, optional room cuboid,
  layout policy, warnings, and objects (pose, score, class, optional 2D
  box, voxel payload inline or as an FVOX reference, optional analytic
  cuboid solid).  A grid whose every value is 0.0 or 1.0 is stored
  inline as ``{"dims": [32, 32, 32], "bits": base64(packbits(occupied,
  x-fastest))}``: exactly 4,096 bytes, so 5,464 base64 characters, which
  the reader checks before it decodes anything.  Any other grid goes to
  an FVOX file next to the scene file, ``<stem>.obj<i>.fvox``, named by
  ``{"dims": [...], "fvox": ...}``.  A layout that matches the analytic
  room render is stored as ``{"from_room": true}`` and regenerated on
  parse, which keeps the round trip exact at float64; otherwise the
  disparity goes to a single-precision PFM next to the scene file.  So
  each field is stored inline when that is exact, else in a sibling
  file.
* FVOX: magic ``FVOX``, u32 version, u32 dims[3], u32 frame tag
  (0 canonical, 1 scene), f64 extent[6] (min then max), then float32
  occupancy, x-fastest, little-endian.
* PFM: grayscale ``Pf``, bottom-up rows, negative scale marks
  little-endian.  Depth files use 0 as the empty marker.
* Point-cloud CSV (written only): header ``x,y,z``, then one row per point,
  each coordinate the shortest ``repr`` of its float64 value, ``\n`` line
  ends.

All writes are atomic (write to a temp file, then rename).  Parse errors
carry the file path and the offending location.
"""

from __future__ import annotations

import base64
import json
import math
import os
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .geometry import Camera, Pose, UnitQuaternion
from .scene import CLASS_LABELS, FactoredScene, Layout, SceneObject
from .voxels import CANONICAL_SPEC, Cuboid, VoxelGrid

__all__ = [
    "BadMagicError",
    "FileFormatError",
    "TruncatedFileError",
    "UnknownVersionError",
    "atomic_write_bytes",
    "atomic_write_text",
    "load_json",
    "read_depth_pfm",
    "read_pfm",
    "read_scene",
    "read_voxels",
    "write_depth_pfm",
    "write_pfm",
    "write_pointcloud_csv",
    "write_scene",
    "write_voxels",
]

SCENE_FORMAT_VERSION = 3
FVOX_MAGIC = b"FVOX"
FVOX_VERSION = 1
# Largest camera width or height a scene file may declare; checked before
# any image-sized array is allocated.
MAX_IMAGE_SIDE = 8192
_FVOX_HEADER = struct.Struct("<4sI3II6d")
# Inline scene voxels are binary canonical grids, one bit per cell: their
# dims, packed size and base64 length.
_INLINE_DIMS = list(CANONICAL_SPEC.dims)
_INLINE_BYTES = math.prod(CANONICAL_SPEC.dims) // 8
_INLINE_CHARS = 4 * math.ceil(_INLINE_BYTES / 3)


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


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# PFM

def write_pfm(path, image: np.ndarray) -> None:
    """Write a single-channel float32 PFM (little-endian, bottom-up rows)."""
    img = np.asarray(image, dtype="<f4")
    if img.ndim != 2:
        raise ValueError(f"PFM images must be 2D, got shape {img.shape}")
    header = f"Pf\n{img.shape[1]} {img.shape[0]}\n-1.0\n".encode("ascii")
    atomic_write_bytes(path, header + np.flipud(img).tobytes())


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
    if scale == 0.0:
        raise FileFormatError("scale must be nonzero", path, location="header")
    dtype = "<f4" if scale < 0 else ">f4"
    expected = width * height * 4
    payload = data[offset:]
    if len(payload) != expected:
        raise TruncatedFileError(
            f"payload has {len(payload)} bytes, expected {expected}", path,
            location=f"byte {offset}")
    img = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return np.flipud(img).astype(float)


def write_depth_pfm(path, depth_map) -> None:
    write_pfm(path, depth_map.depth)


def read_depth_pfm(path, camera: Camera):
    from .render import DepthMap

    img = read_pfm(path)
    if img.shape != (camera.height, camera.width):
        raise FileFormatError(f"depth image is {img.shape[1]}x{img.shape[0]}, "
                              f"camera is {camera.width}x{camera.height}", path,
                              location="header")
    if not np.all(np.isfinite(img)):
        raise FileFormatError("depth values must be finite", path, location="payload")
    if np.any(img < 0.0):
        raise FileFormatError("depth values must be non-negative (0 = empty)", path,
                              location="payload")
    return DepthMap(img, camera)


# ---------------------------------------------------------------------------
# Point-cloud CSV

def write_pointcloud_csv(path, points: np.ndarray) -> None:
    """Write (n, 3) points as ``x,y,z`` CSV, each coordinate as ``repr``
    of its float64 value.

    Coordinates of a depth-map cloud repeat a lot, so each column formats
    only its distinct values and scatters the strings back.  Distinct means
    distinct bits: equal bits give equal text, and -0.0 stays apart from
    0.0.
    """
    points = np.asarray(points, dtype=float)
    cells = np.empty((len(points), 6), dtype=object)
    cells[:, 1] = cells[:, 3] = ","
    cells[:, 5] = "\n"
    for axis in range(3):
        bits, inverse = np.unique(points[:, axis].view(np.uint64), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
        cells[:, 2 * axis] = text[inverse]
    atomic_write_text(path, "x,y,z\n" + "".join(cells.ravel().tolist()))


# ---------------------------------------------------------------------------
# FVOX

_FRAME_TAGS = {"canonical": 0, "scene": 1}
_TAG_FRAMES = {v: k for k, v in _FRAME_TAGS.items()}


def write_voxels(path, grid: VoxelGrid) -> None:
    lo, hi = grid.extent
    header = _FVOX_HEADER.pack(FVOX_MAGIC, FVOX_VERSION, *grid.dims,
                               _FRAME_TAGS[grid.frame], *lo.tolist(), *hi.tolist())
    payload = grid.occupancy.astype("<f4").ravel(order="F").tobytes()
    atomic_write_bytes(path, header + payload)


def read_voxels(path) -> VoxelGrid:
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
    if min(nx, ny, nz) <= 0:
        raise FileFormatError(f"bad dims {(nx, ny, nz)}", path, location="byte 8")
    expected = _FVOX_HEADER.size + 4 * nx * ny * nz
    if len(data) != expected:
        raise TruncatedFileError(
            f"file has {len(data)} bytes, format requires exactly {expected}", path,
            location=f"byte {min(len(data), expected)}")
    occ = np.frombuffer(data, dtype="<f4", offset=_FVOX_HEADER.size)
    occ = occ.reshape((nx, ny, nz), order="F")
    if not np.all(np.isfinite(extent)):
        raise FileFormatError(f"extent {extent} is not finite", path, location="extent")
    lo = np.array(extent[:3])
    hi = np.array(extent[3:])
    frame = _TAG_FRAMES[tag]
    cells = (hi - lo) / np.array([nx, ny, nz])
    if np.any(np.abs(cells - cells[0]) > 1e-9) or cells[0] <= 0:
        raise FileFormatError(f"extent implies non-cubic cells {cells.tolist()}", path,
                              location="extent")
    try:
        return VoxelGrid(occ, frame, tuple(lo.tolist()), float(cells[0]))
    except ValueError as exc:
        raise FileFormatError(str(exc), path, location="header") from exc


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


def _is_number(value) -> bool:
    """A JSON number; ``bool`` is excluded although Python counts it as an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _floats(value, n, loc, path) -> list[float]:
    """A JSON list of ``n`` numbers."""
    if not isinstance(value, list) or len(value) != n or not all(map(_is_number, value)):
        raise FileFormatError(f"expected a list of {n} numbers", path, location=loc)
    return [float(v) for v in value]


def load_json(path):
    """Parse a JSON file; every malformed input raises a located FileFormatError."""
    try:
        return json.loads(Path(path).read_bytes())
    except RecursionError as exc:
        raise FileFormatError("JSON nested too deeply", path, location="$") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not UTF-8 text: {exc.reason}", path,
                              location=f"byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}",
                              path, location=f"byte {exc.pos}") from exc


def _reference(doc, key, loc, path) -> Path:
    """The file a scene names under ``doc[key]``: a regular file inside the
    scene's directory (subdirectories allowed)."""
    name = str(doc[key])
    base = Path(path).parent.resolve()
    try:
        ref = (base / name).resolve()
        inside = ref.is_relative_to(base) and ref.is_file()
    except (OSError, ValueError):  # a name the file system rejects
        inside = False
    if not inside:
        raise FileFormatError(f"reference {name!r} is not a file in the scene's directory",
                              path, location=f"{loc}.{key}")
    return ref


# ---------------------------------------------------------------------------
# Scene JSON

def _camera_to_dict(cam: Camera) -> dict:
    return {"fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
            "width": cam.width, "height": cam.height}


def _camera_from_dict(doc, loc, path) -> Camera:
    vals = {}
    for key in ("fx", "fy", "cx", "cy", "width", "height"):
        v = _expect(doc, key, loc, path)
        if not _is_number(v):
            raise FileFormatError(f"field {key!r} must be a number", path, location=f"{loc}.{key}")
        vals[key] = v
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


def _object_to_dict(obj: SceneObject, fvox_name: str) -> dict:
    """The object's document; a grid that is not binary is referenced as
    ``fvox_name``, which the caller writes."""
    occ = obj.shape.occupancy
    voxels = {"dims": list(obj.shape.dims)}
    if np.all((occ == 0.0) | (occ == 1.0)):
        bits = np.packbits(obj.shape.occupied.ravel(order="F"))
        voxels["bits"] = base64.b64encode(bits).decode("ascii")
    else:
        voxels["fvox"] = fvox_name
    return {
        "class_label": obj.class_label,
        "score": obj.score,
        "pose": {
            "scale": obj.pose.scale.tolist(),
            "rotation": obj.pose.rotation.as_array().tolist(),
            "translation": obj.pose.translation.tolist(),
        },
        "box2d": list(obj.box2d) if obj.box2d is not None else None,
        "voxels": voxels,
        "solid": [_cuboid_to_dict(c) for c in obj.solid] if obj.solid is not None else None,
    }


def _unpack(payload, loc, path) -> np.ndarray:
    """The cells of an inline ``bits`` payload, 0 or 1, x-fastest.  Its
    length is checked before anything is decoded."""
    if not isinstance(payload, str):
        raise FileFormatError("voxel payload must be a base64 string", path, location=loc)
    if len(payload) != _INLINE_CHARS:
        error = TruncatedFileError if len(payload) < _INLINE_CHARS else FileFormatError
        raise error(f"voxel payload has {len(payload)} base64 characters, expected "
                    f"{_INLINE_CHARS}", path, location=loc)
    try:
        packed = base64.b64decode(payload, validate=True)
    except ValueError as exc:
        raise FileFormatError(f"invalid base64 payload: {exc}", path, location=loc) from exc
    if len(packed) != _INLINE_BYTES:  # the padding decides the last byte or two
        raise FileFormatError(f"voxel payload decodes to {len(packed)} bytes, expected "
                              f"{_INLINE_BYTES}", path, location=loc)
    return np.unpackbits(np.frombuffer(packed, dtype=np.uint8))


def _object_from_dict(doc, loc, path) -> SceneObject:
    if not isinstance(doc, dict):
        raise FileFormatError("object entry must be a JSON object", path, location=loc)
    label = _expect(doc, "class_label", loc, path, allow_none=True)
    if label is not None and label not in CLASS_LABELS:
        raise FileFormatError(f"unknown class label {label!r}", path,
                              location=f"{loc}.class_label")
    score = _expect(doc, "score", loc, path)
    if not _is_number(score):
        raise FileFormatError("score must be a number", path, location=f"{loc}.score")

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
    if not (isinstance(dims, list) and len(dims) == 3
            and all(_is_number(d) and isinstance(d, int) and d > 0 for d in dims)):
        raise FileFormatError(f"dims must be three positive integers, got {dims!r}", path,
                              location=f"{loc}.voxels.dims")
    inline, fvox = vox.get("bits") is not None, vox.get("fvox") is not None
    if inline == fvox:
        raise FileFormatError("voxels need either a 'bits' payload or an 'fvox' reference",
                              path, location=f"{loc}.voxels")
    if inline:
        if dims != _INLINE_DIMS:
            raise FileFormatError(f"inline voxels must have dims {_INLINE_DIMS}, got {dims!r}",
                                  path, location=f"{loc}.voxels.dims")
        occ = _unpack(vox["bits"], f"{loc}.voxels.bits", path).reshape(dims, order="F")
        shape = VoxelGrid.canonical(occ)
    else:
        shape = read_voxels(_reference(vox, "fvox", f"{loc}.voxels", path))
        if list(shape.dims) != dims:
            raise FileFormatError("referenced grid dims do not match the document", path,
                                  location=f"{loc}.voxels.fvox")

    solid_doc = _expect(doc, "solid", loc, path, allow_none=True)
    solid = None
    if solid_doc is not None:
        if not isinstance(solid_doc, list) or not solid_doc:
            raise FileFormatError("solid must be a non-empty list of cuboids", path,
                                  location=f"{loc}.solid")
        solid = tuple(_cuboid_from_dict(c, f"{loc}.solid[{i}]", path)
                      for i, c in enumerate(solid_doc))
    try:
        return SceneObject(shape=shape, pose=pose, score=float(score), class_label=label,
                           box2d=box2d, solid=solid)
    except ValueError as exc:
        raise FileFormatError(str(exc), path, location=loc) from exc


def _analytic_layout(scene: FactoredScene) -> Layout:
    from .render import depth_to_disparity, render_depth_analytic

    return depth_to_disparity(render_depth_analytic(scene, include_objects=False))


def write_scene(scene: FactoredScene, path) -> None:
    """Serialize a scene.  A binary canonical grid is stored inline as
    packed bits, any other grid as a sibling FVOX file; the layout is stored
    as ``from_room`` when it is exactly the analytic room render, else as a
    sibling PFM file."""
    path = Path(path)
    layout_doc = None
    pfm_to_write = None
    if scene.layout is not None:
        if scene.room is not None and np.array_equal(
                scene.layout.disparity, _analytic_layout(scene).disparity):
            layout_doc = {"from_room": True}
        else:
            pfm_name = path.stem + ".layout.pfm"
            layout_doc = {"pfm": pfm_name}
            pfm_to_write = path.parent / pfm_name
    doc = {
        "format_version": SCENE_FORMAT_VERSION,
        "camera": _camera_to_dict(scene.camera),
        "room": _cuboid_to_dict(scene.room) if scene.room is not None else None,
        "layout": layout_doc,
        "warnings": list(scene.warnings),
        "objects": [_object_to_dict(o, f"{path.stem}.obj{i}.fvox")
                    for i, o in enumerate(scene.objects)],
    }
    for obj, obj_doc in zip(scene.objects, doc["objects"]):
        if "fvox" in obj_doc["voxels"]:
            write_voxels(path.parent / obj_doc["voxels"]["fvox"], obj.shape)
    if pfm_to_write is not None:
        write_pfm(pfm_to_write, scene.layout.disparity)
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def read_scene(path) -> FactoredScene:
    path = Path(path)
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be a JSON object", path, location="$")
    version = _expect(doc, "format_version", "$", path)
    if version != SCENE_FORMAT_VERSION:
        raise UnknownVersionError(f"unknown format_version {version!r}; this build reads "
                                  f"version {SCENE_FORMAT_VERSION}", path,
                                  location="$.format_version")
    camera = _camera_from_dict(_expect(doc, "camera", "$", path, kind=dict), "$.camera", path)
    room_doc = _expect(doc, "room", "$", path, allow_none=True)
    room = _cuboid_from_dict(room_doc, "$.room", path) if room_doc is not None else None
    warnings_doc = _expect(doc, "warnings", "$", path, kind=list)
    for i, w in enumerate(warnings_doc):
        if not isinstance(w, str):
            raise FileFormatError("warnings must be strings", path, location=f"$.warnings[{i}]")
    objects_doc = _expect(doc, "objects", "$", path, kind=list)
    objects = tuple(_object_from_dict(o, f"$.objects[{i}]", path)
                    for i, o in enumerate(objects_doc))
    try:
        scene = FactoredScene(camera=camera, objects=objects, room=room,
                              warnings=tuple(warnings_doc))
    except ValueError as exc:
        raise FileFormatError(str(exc), path, location="$.objects") from exc

    layout_doc = _expect(doc, "layout", "$", path, allow_none=True)
    if layout_doc is None:
        return scene
    if not isinstance(layout_doc, dict):
        raise FileFormatError("layout must be an object or null", path, location="$.layout")
    if layout_doc.get("from_room"):
        if room is None:
            raise FileFormatError("layout says from_room but the scene has no room", path,
                                  location="$.layout")
        try:
            layout = _analytic_layout(scene)
        except ValueError as exc:
            raise FileFormatError(str(exc), path, location="$.room") from exc
    elif "pfm" in layout_doc:
        disparity = read_pfm(_reference(layout_doc, "pfm", "$.layout", path))
        try:
            layout = Layout(disparity)
        except ValueError as exc:
            raise FileFormatError(str(exc), path, location="$.layout.pfm") from exc
    else:
        raise FileFormatError("layout needs 'from_room' or a 'pfm' reference", path,
                              location="$.layout")
    try:
        return replace(scene, layout=layout)
    except ValueError as exc:
        raise FileFormatError(str(exc), path, location="$.layout") from exc
