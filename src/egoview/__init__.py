"""egoview: egocentric-view visibility analysis, multi-view question synthesis,
and 2D-3D-text corpus tooling for annotated indoor scenes.

The names in `__all__` are read from their home modules on first use (PEP
562), so importing the package, or a command that needs no arrays, loads
no numpy."""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_HOMES = {
    "CameraIntrinsics": "geometry",
    "CameraPose": "geometry",
    "OrientedBox3D": "geometry",
    "Rect2D": "geometry",
    "iosa": "geometry",
    "project_box": "geometry",
    "project_point": "geometry",
    "Objects": "solvability",
    "SceneObject": "solvability",
    "View": "solvability",
    "Views": "solvability",
    "ViewRequirement": "solvability",
    "WitnessConfig": "solvability",
    "is_solvable": "solvability",
    "min_view_count": "solvability",
    "view_requirement_stats": "solvability",
    "witness_matrix": "solvability",
    "witnesses": "solvability",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__():
    return sorted({*globals(), *_HOMES})
