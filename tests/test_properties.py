"""Property tests of the file readers and the CLI on damaged input.

Whatever the bytes, ``read_scene``, ``read_voxels``, ``read_pfm`` and
``read_depth_pfm`` fail only with a ``FileFormatError`` that names a
location, and ``render`` on a damaged scene exits 1 or 2 instead of
raising.  The damage is a random JSON value put at a random path of a
valid document, random bytes written over a valid file, random bytes
written into an inline voxel or layout payload, before or after its
base64 encoding, or a well-formed PFM whose size or values (NaN,
infinities, negatives) a depth map cannot take.  The value types and the
point functions, given any float array or nested list, return a value or
raise ``ValueError``.  The point-cloud writer's
bytes equal what ``csv.writer`` makes of ``repr(float(v))`` per
coordinate, whatever the finite values and chunk size, and ``voxel_iou``
on packed masks equals the cell-by-cell boolean reference.
Examples are derandomized and capped, so every run checks the same inputs.
"""

import base64
import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenefactor import io_formats
from scenefactor.cli import main
from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.geometry import (Camera, Pose, UnitQuaternion, apply_pose, project,
                                  rotation_about_y)
from scenefactor.io_formats import (
    FileFormatError,
    read_depth_pfm,
    read_pfm,
    read_scene,
    read_voxels,
    write_pfm,
    write_pointcloud_csv,
    write_scene,
    write_voxels,
)
from scenefactor.registration import RigidTransform, bbox_diagonal
from scenefactor.render import DepthMap
from scenefactor.scene import Layout
from scenefactor.voxels import CANONICAL_SPEC, FRAME_SPECS, Cuboid, VoxelGrid, voxel_iou

# The camera of ``small_files``'s 4x5 ``image.pfm``.
CAMERA_5X4 = Camera(fx=5.0, fy=5.0, cx=2.5, cy=2.0, width=5, height=4)

EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=120)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=6)


def json_paths(doc, prefix=()):
    """Every path (tuple of keys and indices) into a JSON document."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def replaced(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def damaged_bytes(data: bytes, header: int):
    """Random bytes, or ``data`` with some bytes overwritten (mostly within
    the first ``header`` bytes) and possibly truncated."""
    position = st.integers(0, header - 1) | st.integers(0, len(data) - 1)
    edits = st.lists(st.tuples(position, st.integers(0, 255)), min_size=1, max_size=4)

    def apply(args):
        changes, cut = args
        out = bytearray(data)
        for pos, byte in changes:
            out[pos] = byte
        return bytes(out[:cut])

    return st.binary(max_size=2 * header) | \
        st.tuples(edits, st.integers(0, len(data))).map(apply)


def only_format_errors(read, path) -> bool:
    """True if ``read(path)`` succeeds; False if it raises a located
    FileFormatError.  Any other exception propagates."""
    try:
        read(path)
    except FileFormatError as exc:
        assert exc.location, f"no location in {exc}"
        return False
    return True


@pytest.fixture(scope="module")
def scene_docs(tmp_path_factory):
    """Two valid 64x48 scene documents in one directory: one with binary
    grids and a ``from_room`` layout, one whose first grid and layout are
    float32 ``f4`` payloads."""
    root = tmp_path_factory.mktemp("damaged")
    scene = generate_scene(GeneratorConfig(seed=5, object_count_range=(2, 2)))
    write_scene(scene, root / "base.json")
    first, second = scene.objects
    occ = first.shape.occupancy.copy()
    occ[occ == 1.0] = np.random.default_rng(5).uniform(0.01, 0.99, int((occ == 1.0).sum()))
    soft = replace(scene, objects=(replace(first, shape=VoxelGrid.canonical(occ)), second),
                   layout=Layout(scene.layout.disparity * 0.9))
    write_scene(soft, root / "soft.json")
    return root, [json.loads((root / name).read_text()) for name in ("base.json", "soft.json")]


@EXAMPLES
@given(data=st.data())
def test_damaged_scene_json(scene_docs, data):
    root, docs = scene_docs
    doc = data.draw(st.sampled_from(docs))
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    damaged = replaced(doc, path, data.draw(JSON_VALUES))
    scene_file = root / "damaged.json"
    scene_file.write_text(json.dumps(damaged))
    readable = only_format_errors(read_scene, scene_file)
    code = main(["render", "--scene", str(scene_file), "--out", str(root / "depth.pfm")])
    assert code in ((0, 1) if readable else (1,))


@EXAMPLES
@given(data=st.data())
def test_damaged_scene_bytes(scene_docs, data):
    root, _ = scene_docs
    original = (root / "base.json").read_bytes()
    scene_file = root / "damaged_bytes.json"
    scene_file.write_bytes(data.draw(damaged_bytes(original, 200)))
    only_format_errors(read_scene, scene_file)


BASE64_TEXT = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                              "0123456789+/=-_ \n!", min_size=5460, max_size=5468)


@EXAMPLES
@given(data=st.data())
def test_damaged_voxel_payload(scene_docs, data):
    root, docs = scene_docs
    # Both grids' "bits", and the "f4" payloads of a grid and of a layout.
    doc, where = data.draw(st.sampled_from([
        (docs[0], ("objects", 0, "voxels", "bits")), (docs[0], ("objects", 1, "voxels", "bits")),
        (docs[1], ("objects", 0, "voxels", "f4")), (docs[1], ("layout", "f4"))]))
    text = doc
    for key in where:
        text = text[key]
    choice = data.draw(st.integers(0, 2))
    if choice == 0:  # damage the decoded bytes, then encode them again
        packed = base64.b64decode(text)
        # Edits mostly within the first 4,096 bytes: all of a "bits" payload.
        text = base64.b64encode(data.draw(damaged_bytes(packed, 4096))).decode()
    elif choice == 1:  # damage the base64 text
        chars = st.sampled_from("A/+=_ \n!")
        edits = data.draw(st.lists(st.tuples(st.integers(0, len(text) - 1), chars),
                                   min_size=1, max_size=4))
        for pos, char in edits:
            text = text[:pos] + char + text[pos + 1:]
        text = text[:data.draw(st.integers(len(text) - 8, len(text) + 8))]
    else:  # text of about a "bits" payload's length, from near the base64 alphabet
        text = data.draw(BASE64_TEXT)
    damaged = replaced(doc, where, text)
    scene_file = root / "damaged_payload.json"
    scene_file.write_text(json.dumps(damaged))
    only_format_errors(read_scene, scene_file)


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    rng = np.random.default_rng(1)
    write_voxels(root / "grid.fvox", VoxelGrid.canonical(rng.random(CANONICAL_SPEC.dims)))
    write_pfm(root / "image.pfm", rng.random((4, 5)))
    return root


@EXAMPLES
@given(data=st.data())
def test_damaged_fvox(small_files, data):
    damaged = small_files / "damaged.fvox"
    damaged.write_bytes(data.draw(damaged_bytes((small_files / "grid.fvox").read_bytes(), 64)))
    only_format_errors(read_voxels, damaged)


@EXAMPLES
@given(data=st.data())
def test_damaged_pfm(small_files, data):
    damaged = small_files / "damaged.pfm"
    damaged.write_bytes(data.draw(damaged_bytes((small_files / "image.pfm").read_bytes(), 16)))
    only_format_errors(read_pfm, damaged)
    only_format_errors(lambda path: read_depth_pfm(path, CAMERA_5X4), damaged)


@EXAMPLES
@given(shape=st.sampled_from([(4, 5), (5, 4), (4, 4), (1, 20)]),
       data=st.data())
def test_unfit_depth_pfm(small_files, shape, data):
    values = st.floats(width=32) | st.sampled_from([0.0, -0.0, 1.0])
    image = np.array(data.draw(st.lists(values, min_size=20, max_size=20)), dtype=np.float32)
    path = small_files / "unfit.pfm"
    write_pfm(path, image[:shape[0] * shape[1]].reshape(shape))
    only_format_errors(lambda p: read_depth_pfm(p, CAMERA_5X4), path)


# Finite float64 values that stress repr: signed zeros, subnormals, the
# extremes of the range and integers stored as floats.
COORDINATES = st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308,
                       1.7976931348623157e308]) \
    | st.integers(-2**53, 2**53).map(float)


@EXAMPLES
@given(data=st.data())
def test_pointcloud_csv_bytes(small_files, data):
    n = data.draw(st.integers(0, 60))
    if data.draw(st.booleans()):  # a few values, heavily repeated
        pool = data.draw(st.lists(COORDINATES, min_size=1, max_size=4))
        values = data.draw(st.lists(st.sampled_from(pool), min_size=3 * n, max_size=3 * n))
    else:
        values = data.draw(st.lists(COORDINATES, min_size=3 * n, max_size=3 * n))
    points = np.array(values, dtype=float).reshape(n, 3)
    path = small_files / "points.csv"
    # Small chunks put repeated bits, -0.0 beside 0.0 and subnormals on both
    # sides of chunk boundaries.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_formats, "_CSV_CHUNK_ROWS", data.draw(st.integers(1, 8)))
        write_pointcloud_csv(path, points)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["x", "y", "z"])
    writer.writerows([repr(float(v)) for v in p] for p in points)
    assert path.read_bytes() == expected.getvalue().encode()


def reference_iou(a: VoxelGrid, b: VoxelGrid) -> float:
    union = int(np.logical_or(a.occupied, b.occupied).sum())
    inter = int(np.logical_and(a.occupied, b.occupied).sum())
    return 1.0 if union == 0 else inter / union


@EXAMPLES
@given(data=st.data())
def test_packed_iou_matches_boolean_reference(data):
    frame = data.draw(st.sampled_from(sorted(FRAME_SPECS)))
    dims = FRAME_SPECS[frame].dims
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    fills = data.draw(st.tuples(*[st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0])] * 2))
    # Values on both sides of the occupancy threshold, not only 0 and 1.
    a, b = (VoxelGrid(np.where(rng.random(dims) < fill, rng.uniform(0.5, 1.0, dims),
                               rng.uniform(0.0, 0.5, dims)), frame) for fill in fills)
    assert voxel_iou(a, b) == reference_iou(a, b)
    assert voxel_iou(b, a) == voxel_iou(a, b)
    assert voxel_iou(a, a) == 1.0
    if not fills[0]:
        assert voxel_iou(a, VoxelGrid(np.zeros(dims), frame)) == 1.0  # both empty


POSE = Pose(np.array([0.5, 2.0, 1.0]), rotation_about_y(0.3), np.array([0.1, -0.2, 3.0]))
ONES, ZEROS = np.ones(3), np.zeros(3)
CAMERA = Camera(fx=2.0, fy=2.0, cx=1.5, cy=1.0, width=3, height=2)
# Each value type or point function with the drawn value in one argument.
VALUE_TAKERS = {
    "Pose.scale": lambda v: Pose(v, UnitQuaternion.identity(), ZEROS),
    "Pose.rotation": lambda v: Pose(ONES, v, ZEROS),
    "Pose.translation": lambda v: Pose(ONES, UnitQuaternion.identity(), v),
    "Cuboid.center": lambda v: Cuboid(v, ONES),
    "Cuboid.half_extents": lambda v: Cuboid(ZEROS, v),
    "RigidTransform.rotation": lambda v: RigidTransform(v, ZEROS),
    "RigidTransform.translation": lambda v: RigidTransform(np.eye(3), v),
    "Layout": Layout,
    "DepthMap": lambda v: DepthMap(v, CAMERA),
    "apply_pose": lambda v: apply_pose(POSE, v),
    "apply_pose.inverse": lambda v: apply_pose(POSE, v, inverse=True),
    "bbox_diagonal": bbox_diagonal,
    "project": lambda v: project(CAMERA, v),
}
# The point functions check only the shape and compute on whatever values
# they get, so NumPy's warnings for NaN and inf arithmetic are theirs to give.
COMPUTES = {"apply_pose", "apply_pose.inverse", "bbox_diagonal", "project"}
SHAPES = st.sampled_from([(), (0,), (2,), (3,), (4,), (0, 3), (1, 3), (2, 3), (3, 3), (2, 2),
                          (3, 2), (1, 3, 3)])
ENTRIES = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -0.0, 0.0, 1.0])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_value_checks_raise_only_value_error(data):
    name = data.draw(st.sampled_from(sorted(VALUE_TAKERS)))
    shape = data.draw(SHAPES)
    cells = data.draw(st.lists(ENTRIES, min_size=math.prod(shape), max_size=math.prod(shape)))
    value = np.array(cells, dtype=float).reshape(shape)
    if data.draw(st.booleans()):
        if cells and data.draw(st.booleans()):  # an integer beyond the float range
            cells[data.draw(st.integers(0, len(cells) - 1))] = 10**400
        value = np.array(cells, dtype=object).reshape(shape).tolist()
    try:
        with np.errstate(all="ignore" if name in COMPUTES else "warn"):
            VALUE_TAKERS[name](value)
    except ValueError:
        pass
