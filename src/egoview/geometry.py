"""Pinhole camera math: batched oriented-box projection plus 2D rectangle overlap.

Coordinate conventions used throughout the toolkit:

  World frame:
    - Right-handed, up-axis is +z.
    - Oriented boxes yaw about the world +z axis.

  Camera frame (standard computer vision):
    - Poses are stored camera-to-world: p_world = R @ p_cam + t.
    - The camera looks along its +z axis; image u grows rightward and
      v grows downward.

  Image frame:
    - Pixels, origin at the top-left corner, u in [0, width], v in [0, height].

Projection uses a fixed near plane at 0.01 m.  Box edges crossing the near
plane are clipped at the plane so partially-behind boxes still yield a finite
bounding rectangle.

`project_boxes` is the one projector, and `project_box`, `project_point` and
`iosa` are batch-of-one wrappers over it and `iosa_rects`.  It takes boxes as
world corners (N, 8, 3), from `box_corners`, and cameras as columns: an
object whose `rotations` (V, 3, 3), `translations` (V, 3) and `pinhole`
(V, 4) rows of (fx, fy, cx, cy) hold one camera-to-world pose and pinhole
each, plus `sizes` (V, 2) of (width, height) for `image_rects`;
`solvability.Views` is that object for a scene.  It projects N boxes into V
views a fixed block of views at a time, with no Python loop per box or view
inside a block, and clips only the (view, box) pairs that straddle the near
plane, as a masked intersection over the 12 cube edges.  All operations are
pure functions of value inputs and are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from types import SimpleNamespace

import numpy as np

from .errors import BehindCamera, NotVisible

NEAR_PLANE = 0.01

_ORTHO_TOL = 1e-6

# Views projected together: bounds the kernel's working memory (a block of
# 8 views over 250 boxes needs about 1 MB of intermediates).
_VIEW_BLOCK = 8

# Cube corner i has sign bits (sx, sy, sz) = (i >> 2, (i >> 1) & 1, i & 1);
# edges connect corners differing in exactly one bit.
_CORNER_SIGNS = np.array([[(-1.0, 1.0)[i >> k & 1] for k in (2, 1, 0)] for i in range(8)])
_EDGE_FROM, _EDGE_TO = np.array(
    [(i, i ^ bit) for i in range(8) for bit in (1, 2, 4) if i < (i ^ bit)]
).T


def _require_finite(name: str, values) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        _require_finite("focal lengths and principal point", (self.fx, self.fy, self.cx, self.cy))
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx <= self.width) or not (0 <= self.cy <= self.height):
            raise ValueError("principal point must lie inside the image")
        if int(self.width) <= 0 or int(self.height) <= 0:
            raise ValueError("image dimensions must be positive")


def pose_arrays(rotation, translation) -> tuple[np.ndarray, np.ndarray]:
    """One pose's rotation and translation as float64 arrays of shape (3, 3) and (3,)."""
    rotation = np.asarray(rotation, dtype=np.float64)
    translation = np.asarray(translation, dtype=np.float64)
    if rotation.shape != (3, 3):
        raise ValueError("rotation must be 3x3")
    if translation.shape != (3,):
        raise ValueError("translation must be a 3-vector")
    return rotation, translation


def first_bad_pose(rotations: np.ndarray, translations: np.ndarray) -> tuple[int, str] | None:
    """Index and reason of the first pose failing the numeric checks, or None.

    `rotations` (V, 3, 3) and `translations` (V, 3) are checked together: a
    pose needs a finite translation and a finite, orthonormal rotation with
    determinant +1.  A pose failing several checks reports the first of them.
    """
    with np.errstate(invalid="ignore"):  # NaN and inf entries fail the checks below
        residual = np.abs(np.swapaxes(rotations, 1, 2) @ rotations - np.eye(3)).max(axis=(1, 2))
        det_error = np.abs(np.linalg.det(rotations) - 1.0)
        checks = (
            ("translation must be finite", ~np.isfinite(translations).all(axis=1)),
            ("rotation must be finite and orthonormal", ~(residual <= _ORTHO_TOL)),
            ("rotation determinant must be +1", det_error > _ORTHO_TOL),
        )
    failed = np.stack([mask for _, mask in checks], axis=1)
    bad = failed.any(axis=1)
    if not bad.any():
        return None
    index = int(bad.argmax())
    return index, checks[int(failed[index].argmax())][0]


@dataclass(eq=False)
class CameraPose:
    """Camera-to-world pose: rotation (3x3 orthonormal) and translation (meters)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation, self.translation = pose_arrays(self.rotation, self.translation)
        bad = first_bad_pose(self.rotation[None], self.translation[None])
        if bad is not None:
            raise ValueError(bad[1])


@dataclass(eq=False)
class OrientedBox3D:
    """Axis-extent box with yaw about the world up-axis.

    `size` holds full extents; corners are center +/- size/2 rotated by
    `heading` (radians) about world +z.
    """

    center: np.ndarray
    size: np.ndarray
    heading: float = 0.0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.size = np.asarray(self.size, dtype=np.float64)
        if self.center.shape != (3,) or self.size.shape != (3,):
            raise ValueError("center and size must be 3-vectors")
        _require_finite(
            "center, size and heading", [*self.center.tolist(), *self.size.tolist(), self.heading]
        )
        if np.any(self.size <= 0):
            raise ValueError("all size components must be positive")

    def corners(self) -> np.ndarray:
        """World-frame corners, shape (8, 3), as `box_corners` orders them."""
        return box_corners(self.center[None], self.size[None], [self.heading])[0]


def box_corners(centers: np.ndarray, sizes: np.ndarray, headings) -> np.ndarray:
    """World-frame corners of N boxes, shape (N, 8, 3), from centers (N, 3),
    full extents (N, 3) and headings (N,): center +/- size/2 rotated by the
    heading (radians) about world +z, corners ordered by sign bits (x, y, z)."""
    offsets = _CORNER_SIGNS * (sizes / 2.0)[:, None, :]
    # math.cos and math.sin, as the per-box corners always used: numpy's
    # vectorised ones may round the last bit differently.
    c = np.array([math.cos(h) for h in headings], dtype=np.float64).reshape(-1, 1)
    s = np.array([math.sin(h) for h in headings], dtype=np.float64).reshape(-1, 1)
    rotated = np.empty_like(offsets)
    rotated[..., 0] = c * offsets[..., 0] - s * offsets[..., 1]
    rotated[..., 1] = s * offsets[..., 0] + c * offsets[..., 1]
    rotated[..., 2] = offsets[..., 2]
    return centers[:, None, :] + rotated


@dataclass(frozen=True)
class Rect2D:
    """Axis-aligned rectangle in continuous pixel coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("rectangle extents must be ordered")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


def image_rects(views) -> np.ndarray:
    """Each view's image rectangle as (x_min, y_min, x_max, y_max), shape (V, 4)."""
    sizes = views.sizes.astype(np.float64)
    return np.concatenate([np.zeros_like(sizes), sizes], axis=1)


def _project_block(
    points: np.ndarray, rotation: np.ndarray, translation: np.ndarray, pinhole: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rects (B, N, 4) and visibility (B, N) of N boxes in a block of B views.

    points holds the box corners coordinate-major, shape (3, 8, N), so every
    coordinate of every corner is a contiguous row.  Corners at or behind
    the near plane project to NaN, which the fmin/fmax reductions skip.
    """
    n_views, n_boxes = len(rotation), points.shape[2]
    offset = (points[None] - translation[:, :, None, None]).reshape(n_views, 3, -1)
    # p_cam = R^T (p - t)
    x, y, z = (rotation.transpose(0, 2, 1) @ offset).reshape(n_views, 3, 8, n_boxes).swapaxes(0, 1)
    fx, fy, cx, cy = pinhole.T[:, :, None, None]
    front = z > NEAR_PLANE
    depth = np.where(front, z, np.nan)
    uv = np.stack([cx + fx * x / depth, cy + fy * y / depth])
    rects = np.concatenate([np.fmin.reduce(uv, axis=2), np.fmax.reduce(uv, axis=2)])
    straddle = front.any(axis=1) & ~front.all(axis=1)
    if straddle.any():
        # Only straddling pairs are clipped: each crossing edge adds its
        # near-plane intersection; the other edges give NaN.
        cam = np.stack([x, y, z], axis=3).swapaxes(1, 2)[straddle]
        a, b = cam[:, _EDGE_FROM], cam[:, _EDGE_TO]
        crosses = (a[..., 2] > NEAR_PLANE) != (b[..., 2] > NEAR_PLANE)
        f = np.divide(
            NEAR_PLANE - a[..., 2], b[..., 2] - a[..., 2],
            out=np.full(crosses.shape, np.nan), where=crosses,
        )
        hit = a[..., :2] + f[..., None] * (b[..., :2] - a[..., :2])
        s_pinhole = pinhole[np.nonzero(straddle)[0], None, :]
        hit_uv = s_pinhole[..., 2:] + s_pinhole[..., :2] * hit / NEAR_PLANE
        rects[:2, straddle] = np.fmin(rects[:2, straddle], np.fmin.reduce(hit_uv, axis=1).T)
        rects[2:, straddle] = np.fmax(rects[2:, straddle], np.fmax.reduce(hit_uv, axis=1).T)
    return np.moveaxis(rects, 0, 2), front.any(axis=1)


def _blocks(corners: np.ndarray, views):
    """Yield (views slice, rects, visible) for consecutive blocks of views."""
    points = np.ascontiguousarray(np.asarray(corners, dtype=np.float64).transpose(2, 1, 0))
    for start in range(0, len(views.rotations), _VIEW_BLOCK):
        block = slice(start, start + _VIEW_BLOCK)
        yield block, *_project_block(
            points, views.rotations[block], views.translations[block], views.pinhole[block]
        )


def project_boxes(corners: np.ndarray, views) -> tuple[np.ndarray, np.ndarray]:
    """Project boxes, as world corners (N, 8, 3), into camera columns (see the
    module docstring): rects (V, N, 4) of (x_min, y_min, x_max, y_max) and a
    visible mask (V, N).  A rect bounds the box's corners in front of
    the near plane and its crossing edges' near-plane intersections, and is
    not intersected with the image.  Boxes wholly behind are not visible and
    their rects are NaN."""
    rects = np.empty((len(views.rotations), len(corners), 4))
    visible = np.empty((len(views.rotations), len(corners)), dtype=bool)
    for block, block_rects, block_visible in _blocks(corners, views):
        rects[block], visible[block] = block_rects, block_visible
    return rects, visible


def rect_area(rects: np.ndarray) -> np.ndarray:
    """Areas of rects stored as (..., 4) arrays of (x_min, y_min, x_max, y_max)."""
    return (rects[..., 2] - rects[..., 0]) * (rects[..., 3] - rects[..., 1])


def iosa_rects(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise `iosa` of broadcastable (..., 4) rect arrays; NaN rects give 0."""
    smaller = np.minimum(rect_area(a), rect_area(b))
    inter_w = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    inter_h = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.where((inter_w > 0.0) & (inter_h > 0.0), inter_w * inter_h, 0.0)
    ratio = np.divide(inter, smaller, out=np.zeros(inter.shape), where=smaller > 0.0)
    return np.minimum(1.0, ratio)


def image_visibility(
    corners: np.ndarray, views, iosa_threshold: float, min_area_ratio: float = 0.0
) -> np.ndarray:
    """Boolean (V, N) table: box j is visible in view i with IoSA against the
    image strictly above iosa_threshold and a projected area of at least
    min_area_ratio times the image area.

    Views are projected a block at a time and only the booleans are kept.
    """
    images = image_rects(views)[:, None, :]
    out = np.empty((len(views.rotations), len(corners)), dtype=bool)
    for block, rects, visible in _blocks(corners, views):
        image = images[block]
        out[block] = (
            visible
            & (rect_area(rects) >= min_area_ratio * rect_area(image))
            & (iosa_rects(rects, image) > iosa_threshold)
        )
    return out


def _one_camera(intr: CameraIntrinsics, pose: CameraPose) -> SimpleNamespace:
    """Camera columns holding one camera."""
    return SimpleNamespace(
        rotations=pose.rotation[None],
        translations=pose.translation[None],
        pinhole=np.array([[intr.fx, intr.fy, intr.cx, intr.cy]], dtype=np.float64),
        sizes=np.array([[intr.width, intr.height]]),
    )


def project_point(point, intr: CameraIntrinsics, pose: CameraPose) -> tuple[float, float]:
    """Project a world point to image pixels (u, v).

    Raises BehindCamera when the point's camera depth is at or behind the
    near plane (0.01 m).
    """
    corners = np.broadcast_to(np.asarray(point, dtype=np.float64), (1, 8, 3))
    rects, visible = project_boxes(corners, _one_camera(intr, pose))
    if not visible[0, 0]:
        raise BehindCamera("point lies at or behind the near plane")
    return float(rects[0, 0, 0]), float(rects[0, 0, 1])


def project_box(box: OrientedBox3D, intr: CameraIntrinsics, pose: CameraPose) -> Rect2D:
    """Project an oriented box and return the bounding rectangle of its image,
    as `project_boxes` does.  The rectangle is NOT intersected with the image
    rectangle; overlap with the frame is the caller's concern (see `iosa`).

    Raises NotVisible when every corner lies at or behind the near plane.
    """
    rects, visible = project_boxes(box.corners()[None], _one_camera(intr, pose))
    if not visible[0, 0]:
        raise NotVisible("box lies entirely behind the camera")
    return Rect2D(*rects[0, 0].tolist())


def iosa(a: Rect2D, b: Rect2D) -> float:
    """Intersection area over the smaller rectangle's area, in [0, 1].

    Equals 1 when one rectangle contains the other.  By convention a
    degenerate (zero-area) rectangle yields 0: an empty projection carries
    no visual evidence.
    """
    return float(iosa_rects(np.array(astuple(a)), np.array(astuple(b))))
