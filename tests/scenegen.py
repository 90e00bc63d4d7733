"""Seeded random scene instances for solver-vs-brute-force comparisons.

Line scenes: objects sit along a line two meters apart; cameras are dropped
at random lateral positions and standoff depths, so each view witnesses a
run of zero or more objects and the witness structure varies freely with
the seed.  Their cameras never rotate and never straddle a box.

Posed scenes: yawed and pitched cameras inside a room of boxes, so that
some boxes cross the near plane and need clipping.
"""

from __future__ import annotations

import math

import numpy as np

from egoview.geometry import CameraIntrinsics, CameraPose, OrientedBox3D
from egoview.scene import SceneObject, View

_INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
_STANDOFFS = (0.0, -2.0, -5.0, -20.0)


def random_line_scene(
    rng: np.random.Generator, n_views: int, n_objects: int
) -> tuple[list[View], list[SceneObject]]:
    objects = [
        SceneObject(
            object_id=j,
            label=f"obj{j}",
            box=OrientedBox3D(
                center=(2.0 * j, 0.0, 2.5),
                size=(0.5, 0.5, 0.5),
                heading=float(rng.uniform(-math.pi, math.pi)),
            ),
        )
        for j in range(n_objects)
    ]
    views = []
    for i in range(n_views):
        x = float(rng.uniform(-2.0, 2.0 * n_objects))
        z = float(rng.choice(_STANDOFFS))
        y = 80.0 if rng.random() < 0.1 else 0.0  # occasional blind view
        views.append(
            View(
                view_id=f"v{i:02d}",
                intrinsics=_INTR,
                pose=CameraPose(rotation=np.eye(3), translation=(x, y, z)),
            )
        )
    return views, objects


def _camera_to_world(yaw: float, pitch: float) -> np.ndarray:
    """Rotation whose columns are the camera's right, down and forward axes
    for a camera yawed about world +z and pitched up by `pitch`."""
    forward = np.array(
        [math.cos(yaw) * math.cos(pitch), math.sin(yaw) * math.cos(pitch), math.sin(pitch)]
    )
    right = np.array([math.sin(yaw), -math.cos(yaw), 0.0])
    return np.stack([right, np.cross(forward, right), forward], axis=1)


def random_posed_scene(
    rng: np.random.Generator, n_views: int, n_objects: int
) -> tuple[list[View], list[SceneObject]]:
    """A 6 x 5 m room of boxes seen by yawed and pitched head-height cameras
    with varied intrinsics.  Cameras stand among the boxes, so a share of
    (view, object) pairs straddles the near plane."""
    objects = [
        SceneObject(
            object_id=j,
            label=f"obj{j}",
            box=OrientedBox3D(
                center=rng.uniform([0.0, 0.0, 0.2], [6.0, 5.0, 1.5]),
                size=rng.uniform(0.2, 1.5, size=3),
                heading=float(rng.uniform(-math.pi, math.pi)),
            ),
        )
        for j in range(n_objects)
    ]
    views = []
    for i in range(n_views):
        width, height = (640, 480) if rng.random() < 0.5 else (480, 640)
        focal = float(rng.uniform(300.0, 700.0))
        intr = CameraIntrinsics(
            fx=focal,
            fy=focal * float(rng.uniform(0.9, 1.1)),
            cx=width / 2 + float(rng.uniform(-20.0, 20.0)),
            cy=height / 2 + float(rng.uniform(-20.0, 20.0)),
            width=width,
            height=height,
        )
        pose = CameraPose(
            rotation=_camera_to_world(rng.uniform(-math.pi, math.pi), rng.uniform(-0.6, 0.6)),
            translation=rng.uniform([0.0, 0.0, 1.2], [6.0, 5.0, 1.8]),
        )
        views.append(View(view_id=f"v{i:02d}", intrinsics=intr, pose=pose))
    return views, objects


def scene_to_dict(
    views: list[View], objects: list[SceneObject], scene_id: str = "generated"
) -> dict:
    """The scene-file JSON object for generated views and objects."""
    return {
        "scene_id": scene_id,
        "split": "train",
        "objects": [
            {
                "object_id": obj.object_id,
                "label": obj.label,
                "box": {
                    "center": obj.box.center.tolist(),
                    "size": obj.box.size.tolist(),
                    "heading": obj.box.heading,
                },
            }
            for obj in objects
        ],
        "views": [
            {
                "view_id": view.view_id,
                "intrinsics": {
                    "fx": view.intrinsics.fx,
                    "fy": view.intrinsics.fy,
                    "cx": view.intrinsics.cx,
                    "cy": view.intrinsics.cy,
                    "width": view.intrinsics.width,
                    "height": view.intrinsics.height,
                },
                "pose": {
                    "rotation": view.pose.rotation.tolist(),
                    "translation": view.pose.translation.tolist(),
                    "convention": "camera_to_world",
                },
            }
            for view in views
        ],
    }


def random_relevant_ids(rng: np.random.Generator, n_objects: int, max_size: int = 8) -> frozenset[int]:
    size = int(rng.integers(1, min(max_size, n_objects) + 1))
    return frozenset(int(x) for x in rng.choice(n_objects, size=size, replace=False))


def random_abstract_instance(
    rng: np.random.Generator, max_sets: int = 12, max_elements: int = 8
) -> tuple[list[tuple[str, frozenset]], frozenset]:
    n_sets = int(rng.integers(1, max_sets + 1))
    n_elements = int(rng.integers(1, max_elements + 1))
    sets_by_id = []
    for i in range(n_sets):
        members = frozenset(
            int(e) for e in range(n_elements) if rng.random() < rng.uniform(0.1, 0.7)
        )
        sets_by_id.append((f"s{i:02d}", members))
    universe = frozenset(range(n_elements))
    return sets_by_id, universe
