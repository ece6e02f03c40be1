"""The factored scene representation: amodal layout plus posed objects.

A scene is a camera, an optional amodal layout (the enclosing surfaces as
a disparity image, as if no objects were present), an optional room box
(synthetic ground truth only), and a list of objects.  Each object carries
a canonical-frame voxel shape, a pose, a foreground score, and optionally
a 2D box and the analytic cuboid solid it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Camera, Pose
from .voxels import DEFAULT_SCENE_SPEC, Cuboid, VoxelGrid, resample_to_scene

__all__ = [
    "CLASS_LABELS",
    "FactoredScene",
    "Layout",
    "SceneObject",
    "compose_scene_voxels",
    "parametric_shape",
]

CLASS_LABELS = ("bed", "chair", "desk", "sofa", "table", "television")


@dataclass(frozen=True)
class Layout:
    """Amodal layout as a per-pixel disparity (inverse depth) image.

    Disparity is in 1/meters; 0 marks pixels with no surface (cannot occur
    for a camera inside a closed room).
    """

    disparity: np.ndarray

    def __post_init__(self):
        disp = np.array(self.disparity, dtype=float)
        if disp.ndim != 2:
            raise ValueError(f"disparity must be a 2D image, got shape {disp.shape}")
        if not np.all(np.isfinite(disp)):
            raise ValueError("disparity values must be finite")
        if disp.size and disp.min() < 0.0:
            raise ValueError("disparity values must be non-negative")
        disp.setflags(write=False)
        object.__setattr__(self, "disparity", disp)

    @property
    def height(self) -> int:
        return self.disparity.shape[0]

    @property
    def width(self) -> int:
        return self.disparity.shape[1]


@dataclass(frozen=True)
class SceneObject:
    """One object: canonical voxel shape, pose, score, and optional extras.

    ``solid`` preserves the analytic cuboids a synthetic object was built
    from, which lets the exact ray-cast renderer treat it as geometry.
    """

    shape: VoxelGrid
    pose: Pose
    score: float = 1.0
    class_label: str | None = None
    box2d: tuple[float, float, float, float] | None = None
    solid: tuple[Cuboid, ...] | None = None

    def __post_init__(self):
        if self.shape.frame != "canonical":
            raise ValueError("object shapes must live in the canonical frame")
        score = float(self.score)
        if not (0.0 <= score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {score}")
        object.__setattr__(self, "score", score)
        if self.class_label is not None and self.class_label not in CLASS_LABELS:
            raise ValueError(f"unknown class label {self.class_label!r}")
        if self.box2d is not None:
            box = tuple(float(v) for v in self.box2d)
            if len(box) != 4 or not all(np.isfinite(box)):
                raise ValueError(f"box2d must be four finite numbers, got {self.box2d}")
            if box[0] >= box[2] or box[1] >= box[3]:
                raise ValueError(f"box2d must be non-degenerate, got {box}")
            object.__setattr__(self, "box2d", box)
        if self.solid is not None:
            object.__setattr__(self, "solid", tuple(self.solid))

    def with_score(self, score: float) -> "SceneObject":
        return SceneObject(self.shape, self.pose, score, self.class_label, self.box2d, self.solid)


@dataclass(frozen=True)
class FactoredScene:
    """Camera + amodal layout + objects (+ room box for synthetic GT)."""

    camera: Camera
    objects: tuple[SceneObject, ...] = ()
    layout: Layout | None = None
    room: Cuboid | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "warnings", tuple(str(w) for w in self.warnings))
        if self.layout is not None:
            if (self.layout.height, self.layout.width) != (self.camera.height, self.camera.width):
                raise ValueError("layout dimensions must match the camera")
        if self.box2d_bounds_violated():
            raise ValueError("object box2d must lie inside the image bounds")

    def box2d_bounds_violated(self) -> bool:
        for obj in self.objects:
            if obj.box2d is None:
                continue
            x0, y0, x1, y1 = obj.box2d
            if x0 < 0 or y0 < 0 or x1 > self.camera.width or y1 > self.camera.height:
                return True
        return False


def compose_scene_voxels(scene: FactoredScene) -> VoxelGrid:
    """Default scene-grid occupancy of the objects: cell-wise maximum over
    every object resampled into the grid with :func:`resample_to_scene`.
    Layout surfaces are not included.
    """
    occ = np.zeros(DEFAULT_SCENE_SPEC.dims, dtype=np.float32)
    for obj in scene.objects:
        occ = np.maximum(occ, resample_to_scene(obj.shape, obj.pose).occupancy)
    return VoxelGrid.scene(occ)


# Parametric shape builders.  All cuboids are expressed in the canonical
# frame (y points down, the front face is -z) and must fit in the unit box.
# Parameters are canonical lengths; documented ranges are validated.

def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    value = float(value)
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def _table_like(top_thickness: float, leg_width: float) -> list[Cuboid]:
    tt = _check_range("top_thickness", top_thickness, 0.05, 0.3)
    lw = _check_range("leg_width", leg_width, 0.05, 0.3)
    top = Cuboid((0.0, -0.5 + tt / 2.0, 0.0), (0.5, tt / 2.0, 0.5))
    legs = []
    leg_half_y = (1.0 - tt) / 2.0
    leg_center_y = tt / 2.0
    for sx in (-1.0, 1.0):
        for sz in (-1.0, 1.0):
            legs.append(Cuboid((sx * (0.5 - lw / 2.0), leg_center_y, sz * (0.5 - lw / 2.0)),
                               (lw / 2.0, leg_half_y, lw / 2.0)))
    return [top] + legs


def _chair(seat_top: float, seat_thickness: float, back_thickness: float,
           leg_width: float) -> list[Cuboid]:
    st = _check_range("seat_top", seat_top, -0.2, 0.2)
    th = _check_range("seat_thickness", seat_thickness, 0.08, 0.3)
    bt = _check_range("back_thickness", back_thickness, 0.08, 0.3)
    lw = _check_range("leg_width", leg_width, 0.08, 0.3)
    seat_bottom = st + th
    if seat_bottom >= 0.5 - 0.05:
        raise ValueError("seat leaves no room for legs")
    seat = Cuboid((0.0, st + th / 2.0, 0.0), (0.5, th / 2.0, 0.5))
    back = Cuboid((0.0, (seat_bottom - 0.5) / 2.0, 0.5 - bt / 2.0),
                  (0.5, (seat_bottom + 0.5) / 2.0, bt / 2.0))
    legs = []
    leg_half_y = (0.5 - seat_bottom) / 2.0
    leg_center_y = (0.5 + seat_bottom) / 2.0
    for sx in (-1.0, 1.0):
        for sz in (-1.0, 1.0):
            legs.append(Cuboid((sx * (0.5 - lw / 2.0), leg_center_y, sz * (0.5 - lw / 2.0)),
                               (lw / 2.0, leg_half_y, lw / 2.0)))
    return [seat, back] + legs


def _bed(mattress_depth: float, headboard_thickness: float) -> list[Cuboid]:
    md = _check_range("mattress_depth", mattress_depth, 0.3, 0.8)
    ht = _check_range("headboard_thickness", headboard_thickness, 0.06, 0.3)
    slab = Cuboid((0.0, 0.5 - md / 2.0, 0.0), (0.5, md / 2.0, 0.5))
    headboard = Cuboid((0.0, 0.0, 0.5 - ht / 2.0), (0.5, 0.5, ht / 2.0))
    return [slab, headboard]


def _sofa(seat_depth: float, back_thickness: float, arm_width: float,
          arm_top: float) -> list[Cuboid]:
    sd = _check_range("seat_depth", seat_depth, 0.3, 0.7)
    bt = _check_range("back_thickness", back_thickness, 0.1, 0.35)
    aw = _check_range("arm_width", arm_width, 0.08, 0.25)
    at = _check_range("arm_top", arm_top, -0.3, 0.2)
    seat = Cuboid((0.0, 0.5 - sd / 2.0, 0.0), (0.5, sd / 2.0, 0.5))
    back = Cuboid((0.0, 0.0, 0.5 - bt / 2.0), (0.5, 0.5, bt / 2.0))
    arms = [Cuboid((sx * (0.5 - aw / 2.0), (at + 0.5) / 2.0, 0.0),
                   (aw / 2.0, (0.5 - at) / 2.0, 0.5)) for sx in (-1.0, 1.0)]
    return [seat, back] + arms


def _television(panel_width: float, panel_thickness: float) -> list[Cuboid]:
    pw = _check_range("panel_width", panel_width, 0.5, 1.0)
    pt = _check_range("panel_thickness", panel_thickness, 0.05, 0.1)
    return [Cuboid((0.0, 0.0, 0.0), (pw / 2.0, 0.5, pt / 2.0))]


_SHAPE_DEFAULTS = {
    "table": (_table_like, {"top_thickness": 0.18, "leg_width": 0.24}),
    "desk": (_table_like, {"top_thickness": 0.2, "leg_width": 0.26}),
    "chair": (_chair, {"seat_top": 0.0, "seat_thickness": 0.18,
                       "back_thickness": 0.18, "leg_width": 0.2}),
    "bed": (_bed, {"mattress_depth": 0.55, "headboard_thickness": 0.16}),
    "sofa": (_sofa, {"seat_depth": 0.45, "back_thickness": 0.24,
                     "arm_width": 0.18, "arm_top": -0.15}),
    "television": (_television, {"panel_width": 0.9, "panel_thickness": 0.1}),
}


def parametric_shape(kind: str, **params) -> list[Cuboid]:
    """Analytic stand-in solid for one object class, in the canonical frame.

    Returns cuboids whose union fits inside [-0.5, 0.5]^3.  Unspecified
    parameters take class defaults; out-of-range values are rejected.
    """
    if kind not in _SHAPE_DEFAULTS:
        raise ValueError(f"unknown shape kind {kind!r}; expected one of {CLASS_LABELS}")
    builder, defaults = _SHAPE_DEFAULTS[kind]
    merged = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise ValueError(f"unknown parameter {key!r} for shape {kind!r}")
        merged[key] = value
    cuboids = builder(**merged)
    for c in cuboids:
        lo, hi = c.bounds
        if lo.min() < -0.5 - 1e-9 or hi.max() > 0.5 + 1e-9:
            raise ValueError(f"shape {kind!r} does not fit the canonical box")
    return cuboids
