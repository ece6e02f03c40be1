"""Deterministic synthetic indoor scenes with exact ground truth.

A scene is a single axis-aligned room box (the camera at the origin,
strictly inside), furniture objects resting on the floor with rotations
about the vertical axis only, and an analytically rendered amodal layout.
All world bounding boxes are pairwise disjoint.  A seed fully determines
the scene.

Two realism constraints keep the scene grid well resolved: each room
gets one large anchor piece (bed or sofa by default; ``anchor_classes``
sets the choice), and televisions are capped at ``MAX_TELEVISIONS`` per
scene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .geometry import Camera, DEFAULT_CAMERA, Pose, image_extent, rotation_about_y
from .render import room_layout
from .scene import CLASS_LABELS, FactoredScene, SceneObject, parametric_shape
from .voxels import CANONICAL_SPEC, Cuboid, cuboid_voxelize

__all__ = ["GeneratorConfig", "generate_scene"]

# World-size ranges (x width, y height, z depth) per class, in meters.
# The canonical solid spans the unit box in x/y/z for all classes except
# television, whose thin panel sets its own world thickness via scale.
CLASS_SIZE_RANGES: dict[str, tuple[tuple[float, float], ...]] = {
    "bed": ((1.4, 1.9), (0.85, 1.15), (1.9, 2.2)),
    "chair": ((0.5, 0.65), (0.85, 1.05), (0.5, 0.65)),
    "desk": ((1.1, 1.6), (0.72, 0.8), (0.55, 0.8)),
    "sofa": ((1.6, 2.2), (0.8, 1.0), (0.85, 1.05)),
    "table": ((1.0, 1.7), (0.65, 0.78), (0.8, 1.1)),
    "television": ((0.85, 1.2), (0.5, 0.7), (0.9, 1.4)),
}


# Room ranges in camera coordinates (y down): the floor lies below the
# camera and the ceiling range is negative.  Every room they allow fits
# inside the default scene voxel grid.
ROOM_X_MIN_RANGE = (-2.4, -1.5)
ROOM_X_MAX_RANGE = (1.5, 2.4)
FLOOR_Y_RANGE = (0.95, 1.25)
CEILING_Y_RANGE = (-1.25, -0.95)
BACK_WALL_Z_RANGE = (-1.0, -0.4)
FRONT_WALL_Z_RANGE = (3.4, 5.0)

MAX_TELEVISIONS = 1
# Placement tries per object before the scene gives up with a warning.
MAX_ATTEMPTS = 60
# Clearance between an object's footprint and the walls, in meters.
PLACEMENT_MARGIN = 0.06
# Nearest camera depth an object's footprint may reach, in meters.
MIN_OBJECT_Z = 0.9


@dataclass(frozen=True)
class GeneratorConfig:
    """The settings a caller chooses; the seed fully determines the output."""

    seed: int = 0
    object_count_range: tuple[int, int] = (3, 5)
    # A dict cannot be hashed; equality still compares it.
    class_mix: Mapping[str, float] = field(
        default_factory=lambda: {label: 1.0 for label in CLASS_LABELS}, hash=False)
    anchor_classes: tuple[str, ...] = ("bed", "sofa")
    camera: Camera = field(default_factory=lambda: DEFAULT_CAMERA.scaled(64, 48))

    def __post_init__(self):
        # Booleans and fractions are not counts, and booleans are not weights,
        # although int() and float() would take them.
        if any(isinstance(v, bool) or (isinstance(v, float) and not v.is_integer())
               for v in self.object_count_range):
            raise ValueError(f"object_count_range must hold integers, got "
                             f"{list(self.object_count_range)}")
        lo, hi = (int(v) for v in self.object_count_range)
        if lo < 0 or hi < lo:
            raise ValueError(f"bad object_count_range {self.object_count_range}")
        object.__setattr__(self, "object_count_range", (lo, hi))
        if any(isinstance(v, bool) for v in dict(self.class_mix).values()):
            raise ValueError(f"class_mix weights must be numbers, got {dict(self.class_mix)}")
        mix = {str(k): float(v) for k, v in dict(self.class_mix).items()}
        if not mix or any(k not in CLASS_LABELS for k in mix) or any(v < 0 for v in mix.values()):
            raise ValueError(f"class_mix must map known classes to non-negative weights, got {mix}")
        # NaN fails this test, and so do weights whose sum overflows.
        if not 0 < sum(mix.values()) < math.inf:
            raise ValueError(f"class_mix weights must have a positive, finite sum, got {mix}")
        object.__setattr__(self, "class_mix", mix)
        anchors = tuple(self.anchor_classes)
        if any(a not in CLASS_LABELS for a in anchors):
            raise ValueError(f"unknown anchor class in {anchors}")
        object.__setattr__(self, "anchor_classes", anchors)


def _sample_room(rng: np.random.Generator) -> Cuboid:
    x_min = rng.uniform(*ROOM_X_MIN_RANGE)
    x_max = rng.uniform(*ROOM_X_MAX_RANGE)
    floor_y = rng.uniform(*FLOOR_Y_RANGE)
    ceil_y = rng.uniform(*CEILING_Y_RANGE)
    z_back = rng.uniform(*BACK_WALL_Z_RANGE)
    z_front = rng.uniform(*FRONT_WALL_Z_RANGE)
    lo = np.array([x_min, ceil_y, z_back])
    hi = np.array([x_max, floor_y, z_front])
    return Cuboid((lo + hi) / 2.0, (hi - lo) / 2.0)


def _shape_params(kind: str, rng: np.random.Generator) -> dict[str, float]:
    """Mild per-scene variation of the class default proportions.

    Every length is snapped to the canonical voxel lattice, which makes
    the 32^3 voxelization of the sampled solid exact: every cuboid face
    lands on a lattice plane, so the voxel shape, the analytic solid, and
    the trilinear iso-surface all coincide.  The television panel snaps
    to an even cell count because its faces sit at +-half its size.
    """
    jitter = {
        "table": {"top_thickness": (0.14, 0.22), "leg_width": (0.2, 0.28)},
        "desk": {"top_thickness": (0.16, 0.24), "leg_width": (0.22, 0.29)},
        "chair": {"seat_top": (-0.08, 0.08), "seat_thickness": (0.15, 0.22),
                  "back_thickness": (0.15, 0.22), "leg_width": (0.16, 0.24)},
        "bed": {"mattress_depth": (0.45, 0.65), "headboard_thickness": (0.12, 0.2)},
        "sofa": {"seat_depth": (0.4, 0.55), "back_thickness": (0.2, 0.3),
                 "arm_width": (0.14, 0.22), "arm_top": (-0.22, -0.08)},
        "television": {"panel_width": (0.8, 0.95), "panel_thickness": (0.06, 0.09)},
    }[kind]
    centered = ("panel_width", "panel_thickness")
    out = {}
    for name, (lo, hi) in jitter.items():
        unit = (2 if name in centered else 1) * CANONICAL_SPEC.cell_size
        out[name] = round(float(rng.uniform(lo, hi)) / unit) * unit
    return out


def _solid_bounds(cuboids) -> tuple[np.ndarray, np.ndarray]:
    lows = np.array([c.bounds[0] for c in cuboids])
    highs = np.array([c.bounds[1] for c in cuboids])
    return lows.min(axis=0), highs.max(axis=0)


def _project_box(cuboids, pose: Pose, cam: Camera):
    extent = image_extent(cam, pose, np.concatenate([c.corners() for c in cuboids]))
    if extent is None:
        return None
    u0, v0, u1, v1 = extent
    x0 = max(0.0, u0)
    y0 = max(0.0, v0)
    x1 = min(float(cam.width), u1)
    y1 = min(float(cam.height), v1)
    if x0 >= x1 or y0 >= y1:
        return None
    return (x0, y0, x1, y1)


def generate_scene(cfg: GeneratorConfig) -> FactoredScene:
    """Generate one ground-truth scene; identical configs give identical
    scenes bit for bit.

    Placement is rejection sampling on world-space bounding boxes.  If an
    object cannot be placed within ``MAX_ATTEMPTS`` tries, or the
    television cap leaves no class with weight, placing stops and the
    scene carries a warning.
    """
    rng = np.random.default_rng(cfg.seed)
    room = _sample_room(rng)
    room_lo, room_hi = room.bounds
    floor_y = float(room_hi[1])

    count = int(rng.integers(cfg.object_count_range[0], cfg.object_count_range[1] + 1))
    labels = list(cfg.class_mix)
    weights = np.array([cfg.class_mix[k] for k in labels], dtype=float)

    objects: list[SceneObject] = []
    placed_boxes: list[tuple[np.ndarray, np.ndarray]] = []
    warnings: list[str] = []
    margin = PLACEMENT_MARGIN

    for slot in range(count):
        anchor = slot == 0 and cfg.anchor_classes
        if not anchor:
            pool = weights.copy()
            n_tv = sum(1 for o in objects if o.class_label == "television")
            if n_tv >= MAX_TELEVISIONS and "television" in labels:
                pool[labels.index("television")] = 0.0
            if pool.sum() <= 0:
                warnings.append(
                    f"television cap of {MAX_TELEVISIONS} leaves no class to place; "
                    f"placed {len(objects)} of {count} objects")
                break
        placed = False
        for _ in range(MAX_ATTEMPTS):
            if anchor:
                kind = str(rng.choice(cfg.anchor_classes))
            else:
                kind = str(rng.choice(labels, p=pool / pool.sum()))

            size_ranges = CLASS_SIZE_RANGES[kind]
            scale = np.array([rng.uniform(lo, hi) for lo, hi in size_ranges])
            solid = parametric_shape(kind, **_shape_params(kind, rng))
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            rotation = rotation_about_y(theta)

            lo_c, hi_c = _solid_bounds(solid)
            half = (hi_c - lo_c) / 2.0 * scale
            # Rotation about y turns the footprint into a larger AABB.
            cos_t, sin_t = abs(np.cos(theta)), abs(np.sin(theta))
            half_x = cos_t * half[0] + sin_t * half[2]
            half_z = sin_t * half[0] + cos_t * half[2]

            x_lo = room_lo[0] + margin + half_x
            x_hi = room_hi[0] - margin - half_x
            z_lo = max(MIN_OBJECT_Z + half_z, room_lo[2] + margin + half_z)
            z_hi = room_hi[2] - margin - half_z
            if x_lo >= x_hi or z_lo >= z_hi:
                continue
            tx = rng.uniform(x_lo, x_hi)
            tz = rng.uniform(z_lo, z_hi)
            # The solid reaches +0.5 in canonical y for every class, so this
            # rests the object exactly on the floor.
            ty = floor_y - 0.5 * scale[1]

            center_y = ty + (lo_c[1] + hi_c[1]) / 2.0 * scale[1]
            box_lo = np.array([tx - half_x, center_y - half[1], tz - half_z])
            box_hi = np.array([tx + half_x, center_y + half[1], tz + half_z])
            overlap = any(
                np.all(box_lo < other_hi) and np.all(other_lo < box_hi)
                for other_lo, other_hi in placed_boxes
            )
            if overlap:
                continue

            pose = Pose(scale, rotation, np.array([tx, ty, tz]))
            box2d = _project_box(solid, pose, cfg.camera)
            if box2d is None:
                # Entirely outside the camera frustum: not usable ground
                # truth for image-based evaluation.
                continue
            objects.append(SceneObject(
                shape=cuboid_voxelize(solid),
                pose=pose,
                score=1.0,
                class_label=kind,
                box2d=box2d,
                solid=tuple(solid),
            ))
            placed_boxes.append((box_lo, box_hi))
            placed = True
            break
        if not placed:
            warnings.append(
                f"placement failed after {MAX_ATTEMPTS} attempts; "
                f"placed {len(objects)} of {count} objects")
            break

    return FactoredScene(camera=cfg.camera, objects=tuple(objects),
                         layout=room_layout(cfg.camera, room), room=room,
                         warnings=tuple(warnings))
