"""The factored scene representation: amodal layout plus posed objects.

A scene is a camera, an optional amodal layout (the enclosing surfaces as
a disparity image, as if no objects were present), an optional room box
(synthetic ground truth only), and a list of objects.  A synthetic
scene's layout is its room's render, ``render.room_layout``.  Each object
carries a canonical-frame voxel shape, a pose, a foreground score, and
optionally a 2D box and the analytic cuboid solid it was built from;
``generator`` builds the solids of the synthetic furniture classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Camera, Pose, _nonnegative_image
from .voxels import DEFAULT_SCENE_SPEC, Cuboid, VoxelGrid, resample_to_scene

__all__ = [
    "CLASS_LABELS",
    "FactoredScene",
    "Layout",
    "SceneObject",
    "compose_scene_voxels",
]

CLASS_LABELS = ("bed", "chair", "desk", "sofa", "table", "television")


@dataclass(frozen=True, eq=False)
class Layout:
    """Amodal layout as a per-pixel disparity (inverse depth) image.

    Disparity is in 1/meters; 0 marks pixels with no surface (cannot occur
    for a camera inside a closed room).
    """

    disparity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "disparity", _nonnegative_image(self.disparity, "disparity"))

    @property
    def height(self) -> int:
        return self.disparity.shape[0]

    @property
    def width(self) -> int:
        return self.disparity.shape[1]


@dataclass(frozen=True, eq=False)
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
            box = tuple(map(float, self.box2d))
            if len(box) != 4 or not all(map(math.isfinite, box)):
                raise ValueError(f"box2d must be four finite numbers, got {self.box2d}")
            if box[0] >= box[2] or box[1] >= box[3]:
                raise ValueError(f"box2d must be non-degenerate, got {box}")
            object.__setattr__(self, "box2d", box)
        if self.solid is not None:
            solid = tuple(self.solid)
            if not solid:
                raise ValueError("solid must hold at least one cuboid")
            object.__setattr__(self, "solid", solid)


@dataclass(frozen=True, eq=False)
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
        for obj in self.objects:
            if obj.box2d is not None:
                x0, y0, x1, y1 = obj.box2d
                if x0 < 0 or y0 < 0 or x1 > self.camera.width or y1 > self.camera.height:
                    raise ValueError("object box2d must lie inside the image bounds")


def compose_scene_voxels(scene: FactoredScene) -> VoxelGrid:
    """Default scene-grid occupancy of the objects: the union of every
    object resampled into the grid with :func:`resample_to_scene`.
    Layout surfaces are not included.
    """
    occ = np.zeros(DEFAULT_SCENE_SPEC.dims, dtype=bool)
    for obj in scene.objects:
        occ |= resample_to_scene(obj.shape, obj.pose).occupied
    return VoxelGrid.scene(occ)

