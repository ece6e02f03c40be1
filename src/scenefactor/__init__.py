"""Factored 3D scene representation toolkit.

A scene is factored into an amodal layout (the enclosing surfaces as a
disparity image) plus a set of objects, each with an independent shape
(canonical 32^3 voxel occupancy grid) and pose (anisotropic scale,
quaternion rotation, translation).  The package provides the
representation types, converters to and from depth maps and scene voxel
grids, the component and detection-AP evaluation protocol, rigid ICP
alignment, training-loss kernels with verified gradients, and a
deterministic synthetic scene generator for ground truth.
"""

from .geometry import (
    DEFAULT_CAMERA,
    Camera,
    Pose,
    UnitQuaternion,
    apply_pose,
    backproject,
    project,
    quat_to_matrix,
)
from .voxels import (
    CANONICAL_SPEC,
    DEFAULT_SCENE_SPEC,
    Cuboid,
    GridSpec,
    VoxelGrid,
    boundary_centers,
    cuboid_voxelize,
    resample_to_scene,
    voxel_centers,
    voxel_iou,
    voxelize_posed_cuboids,
)
from .scene import (
    CLASS_LABELS,
    FactoredScene,
    Layout,
    SceneObject,
    compose_scene_voxels,
    parametric_shape,
)
from .generator import GeneratorConfig, generate_scene
from .render import (
    DepthMap,
    depth_to_disparity,
    depth_to_pointcloud,
    disparity_to_depth,
    pointcloud_to_voxels,
    render_depth_analytic,
    render_depth_voxel,
    render_surface_ids,
)
from .metrics import (
    ComponentErrors,
    SummaryStats,
    box_iou_2d,
    component_errors,
    layout_depth_error,
    summarize,
    visible_surface_error,
)
from .registration import IcpResult, NNIndex, RigidTransform, bbox_diagonal, icp, kabsch_align
from .detection import (
    DEFAULT_THRESHOLDS,
    EvalOutcome,
    ThresholdTuple,
    ap_sweep,
    evaluate_dataset,
)
from .losses import (
    LossValueGrad,
    combined_objective,
    finite_diff_check,
    foreground_ce,
    gradient_report,
    layout_l1,
    rot_class_nll,
    rot_regression,
    trans_scale_l2,
    voxel_bce,
)

__version__ = "0.1.0"
