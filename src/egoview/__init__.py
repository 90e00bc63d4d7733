"""egoview: egocentric-view visibility analysis, multi-view question synthesis,
and 2D-3D-text corpus tooling for annotated indoor scenes."""

__version__ = "0.1.0"

from .geometry import (
    CameraIntrinsics,
    CameraPose,
    OrientedBox3D,
    Rect2D,
    iosa,
    project_box,
    project_point,
)
from .solvability import (
    Objects,
    SceneObject,
    View,
    Views,
    ViewRequirement,
    WitnessConfig,
    is_solvable,
    min_view_count,
    view_requirement_stats,
    witness_matrix,
    witnesses,
)

__all__ = [
    "__version__",
    "CameraIntrinsics",
    "CameraPose",
    "OrientedBox3D",
    "Rect2D",
    "iosa",
    "project_box",
    "project_point",
    "Objects",
    "SceneObject",
    "View",
    "Views",
    "ViewRequirement",
    "WitnessConfig",
    "is_solvable",
    "min_view_count",
    "view_requirement_stats",
    "witness_matrix",
    "witnesses",
]
