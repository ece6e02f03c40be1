"""Factored 3D scene representation toolkit.

A scene is factored into an amodal layout (the enclosing surfaces as a
disparity image) plus a set of objects, each with an independent shape
(canonical 32^3 voxel occupancy grid) and pose (anisotropic scale,
quaternion rotation, translation).  The package provides the
representation types, converters to and from depth maps and scene voxel
grids, the component and detection-AP evaluation protocol, rigid ICP
alignment, training-loss kernels with verified gradients, the scene file
readers and writers, and a deterministic synthetic scene generator for
ground truth.

The package namespace is exactly the union of every library module's
``__all__``, one star import per module; ``cli`` is the program, not a
library module, and is left out.  A module's ``__all__`` is the one list
of its public names.
"""

from .geometry import *  # noqa: F401,F403
from .voxels import *  # noqa: F401,F403
from .scene import *  # noqa: F401,F403
from .generator import *  # noqa: F401,F403
from .render import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .registration import *  # noqa: F401,F403
from .detection import *  # noqa: F401,F403
from .losses import *  # noqa: F401,F403
from .compare import *  # noqa: F401,F403
from .io_formats import *  # noqa: F401,F403

__version__ = "0.1.0"
