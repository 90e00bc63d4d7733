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

`_project_pairs` is the one projection kernel.  It takes M (box, camera)
pairs, each a box's world corners (8, 3), from `box_corners`, with one
camera's rotation (3, 3), translation (3,) and pinhole row (fx, fy, cx, cy),
and clips only the pairs that straddle the near plane, as a masked
intersection over the 12 cube edges.  Cameras come as columns: an object
whose `rotations` (V, 3, 3), `translations` (V, 3) and `pinhole` (V, 4) rows
hold one camera each, plus `sizes` (V, 2) of (width, height);
`scene.Views` is that object for a scene.  One function feeds it a
scene's pairs, a fixed chunk at a time: `image_overlap` first drops the
pairs whose box's bounding sphere lies wholly outside one of the view's
five frustum planes (near, left, right, top, bottom), and returns the IoSA
against the image and the unclipped rect's area of the rest.  A dropped
pair's IoSA is 0: its box projects outside the image or lies wholly behind
the near plane.  So no rule that takes only IoSA above a threshold >= 0
changes: `image_visibility`, the alignment sets and the dc picks of
`corpus` and `selection`.  `project_box` and `project_point` pass their one
pair to the kernel directly; `iosa` is a batch-of-one wrapper over
`iosa_rects`.

The value rules are `first_bad_box`, `first_bad_intrinsics` and
`first_bad_pose`, which name the first failing row of columns and its reason;
the dataclasses check their one row with them, `scene.load_scene` whole tables.

All operations are pure functions of value inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import BehindCamera, NotVisible

NEAR_PLANE = 0.01

_ORTHO_TOL = 1e-6

# (view, box) pairs projected together: bounds the kernel's working memory.
# 1024 pairs peak at about 0.9 MB of intermediates (tracemalloc; 0.47 MB at
# 512), less than a command's scene loading peaks at.  Two interleaved
# sweeps of `image_overlap` over the two seed-301 solvability witness
# tables (2 vCPUs, medians of 40 rounds) took 21.8 and 23.1 ms at 512
# pairs, 19.0 and 19.5 at 1024, 18.3 and 20.3 at 2048, 19.5 and 20.2 at
# 4096: larger chunks gain nothing over 1024 and need more memory.  At 1024
# each chunk's corner temporaries (196 KB) cross glibc's 128 KB mmap
# threshold: in one process per setting, getrusage's ru_minflt counted about
# 215 minor page faults per corpus job and 244-340 per synthesize job (seed
# 301), against 4-12 at 512, with no job_s difference beyond noise.
_PAIR_CHUNK = 1024

# Relative and absolute widening of a box's bounding sphere in the frustum
# test, far above the rounding error of the test and of the projection.
_SPHERE_SLACK = 1e-9

# Cube corner i has sign bits (sx, sy, sz) = (i >> 2, (i >> 1) & 1, i & 1);
# edges connect corners differing in exactly one bit.
_CORNER_SIGNS = np.array([[(-1.0, 1.0)[i >> k & 1] for k in (2, 1, 0)] for i in range(8)])
_EDGE_FROM, _EDGE_TO = np.array(
    [(i, i ^ bit) for i in range(8) for bit in (1, 2, 4) if i < (i ^ bit)]
).T


def _first_failed(checks) -> tuple[int, str] | None:
    """The first row failing one of `checks`, (reason, passes) pairs with a
    bool per row, and the first reason it fails; None when all rows pass."""
    failed = ~np.stack([np.asarray(passes, dtype=bool) for _, passes in checks], axis=1)
    bad = failed.any(axis=1)
    if not bad.any():
        return None
    index = int(bad.argmax())
    return index, checks[int(failed[index].argmax())][0]


def first_bad_box(centers: np.ndarray, sizes: np.ndarray, headings: np.ndarray):
    """Index and reason of the first box failing a value check, or None:
    centers (N, 3), extents (N, 3) and headings (N,) finite, extents > 0."""
    finite = np.isfinite(centers).all(axis=1) & np.isfinite(sizes).all(axis=1)
    return _first_failed((
        ("center, size and heading must be finite", finite & np.isfinite(headings)),
        ("all size components must be positive", (sizes > 0).all(axis=1)),
    ))


def first_bad_intrinsics(pinhole: np.ndarray, sizes: np.ndarray):
    """Index and reason of the first camera failing a value check, or None:
    pinhole rows (V, 4) of (fx, fy, cx, cy) finite, focal lengths > 0, the
    principal point inside the image, and image sizes (V, 2) of (width,
    height) in [1, 2**63), as int64 or, beyond it, Python ints in an object array."""
    (fx, fy, cx, cy), (width, height) = pinhole.T, sizes.T
    with np.errstate(invalid="ignore"):  # NaN entries fail the checks below
        principal = (0 <= cx) & (cx <= width) & (0 <= cy) & (cy <= height)
    return _first_failed((
        ("focal lengths and principal point must be finite", np.isfinite(pinhole).all(axis=1)),
        ("focal lengths must be positive", (fx > 0) & (fy > 0)),
        ("principal point must lie inside the image", principal),
        ("image dimensions must be positive", (width > 0) & (height > 0)),
        ("image dimensions must be below 2**63", (width < 2**63) & (height < 2**63)),
    ))


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
        pinhole = np.array([[self.fx, self.fy, self.cx, self.cy]], dtype=np.float64)
        sizes = np.array([[self.width, self.height]])  # int64 as in `Views`, else objects
        if bad := first_bad_intrinsics(pinhole, sizes):
            raise ValueError(bad[1])


def first_bad_pose(rotations: np.ndarray, translations: np.ndarray) -> tuple[int, str] | None:
    """Index and reason of the first pose failing a value check, or None:
    translations (V, 3) finite, rotations (V, 3, 3) finite and orthonormal
    with determinant +1.

    Both are closed forms over the columns c0, c1, c2 of each rotation, one
    array operation per term: the residual is the largest deviation of the
    six dot products ci . cj from the identity's entries, the determinant the
    triple product (c0 x c1) . c2.  A non-finite entry, or one whose square
    overflows, makes a diagonal dot product inf or NaN, which fails."""
    # xc, yc, zc: the entries of column c, each an array over the views.
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = np.transpose(rotations, (1, 2, 0))
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.abs(np.stack([
            x0 * x0 + y0 * y0 + z0 * z0 - 1.0,
            x1 * x1 + y1 * y1 + z1 * z1 - 1.0,
            x2 * x2 + y2 * y2 + z2 * z2 - 1.0,
            x0 * x1 + y0 * y1 + z0 * z1,
            x0 * x2 + y0 * y2 + z0 * z2,
            x1 * x2 + y1 * y2 + z1 * z2,
        ])).max(axis=0)
        det = x2 * (y0 * z1 - z0 * y1) + y2 * (z0 * x1 - x0 * z1) + z2 * (x0 * y1 - y0 * x1)
        det_error = np.abs(det - 1.0)
    return _first_failed((
        ("translation must be finite", np.isfinite(translations).all(axis=1)),
        ("rotation must be finite and orthonormal", residual <= _ORTHO_TOL),
        ("rotation determinant must be +1", det_error <= _ORTHO_TOL),
    ))


@dataclass(eq=False)
class CameraPose:
    """Camera-to-world pose: rotation (3x3 orthonormal) and translation (meters)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if self.rotation.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if self.translation.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        if bad := first_bad_pose(self.rotation[None], self.translation[None]):
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
        heading = np.array([self.heading], dtype=np.float64)
        if bad := first_bad_box(self.center[None], self.size[None], heading):
            raise ValueError(bad[1])

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


def _project_pairs(
    corners: np.ndarray, rotations: np.ndarray, translations: np.ndarray, pinhole: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rects (M, 4) and visibility (M,) of M (box, camera) pairs: pair m is
    the box with world corners corners[m] (8, 3) seen by the camera with
    pose rotations[m], translations[m] and pinhole row pinhole[m].

    Corners at or behind the near plane project to NaN, which the fmin/fmax
    reductions skip.
    """
    # p_cam = R^T (p - t), then coordinate-major: (3, 8, M)
    cam = rotations.transpose(0, 2, 1) @ (corners - translations[:, None, :]).transpose(0, 2, 1)
    cam = np.ascontiguousarray(cam.transpose(1, 2, 0))
    x, y, z = cam
    fx, fy, cx, cy = pinhole.T
    front = z > NEAR_PLANE
    depth = np.where(front, z, np.nan)
    u = cx + fx * x / depth
    v = cy + fy * y / depth
    rects = np.stack([np.fmin.reduce(u), np.fmin.reduce(v), np.fmax.reduce(u), np.fmax.reduce(v)])
    visible = front.any(axis=0)
    straddle = np.flatnonzero(visible & ~front.all(axis=0))
    if len(straddle):
        # Only straddling pairs are clipped: each crossing edge adds its
        # near-plane intersection; the other edges give NaN.
        cam = cam[:, :, straddle]
        a, b = cam[:, _EDGE_FROM], cam[:, _EDGE_TO]
        crosses = (a[2] > NEAR_PLANE) != (b[2] > NEAR_PLANE)
        f = np.divide(
            NEAR_PLANE - a[2], b[2] - a[2], out=np.full(crosses.shape, np.nan), where=crosses
        )
        hit = a[:2] + f * (b[:2] - a[:2])
        s_pinhole = pinhole.T[:, None, straddle]
        hit_uv = s_pinhole[2:] + s_pinhole[:2] * hit / NEAR_PLANE
        rects[:, straddle] = np.concatenate([
            np.fmin(rects[:2, straddle], np.fmin.reduce(hit_uv, axis=1)),
            np.fmax(rects[2:, straddle], np.fmax.reduce(hit_uv, axis=1)),
        ])
    return rects.T, visible


def _pair_chunks(corners: np.ndarray, views, pairs: np.ndarray):
    """Yield (pair slice, view rows, rects, visible) for the (view, box)
    pairs given as flat indices view * N + box, `_PAIR_CHUNK` at a time."""
    for start in range(0, len(pairs), _PAIR_CHUNK):
        chunk = slice(start, start + _PAIR_CHUNK)
        view, box = np.divmod(pairs[chunk], len(corners))
        yield chunk, view, *_project_pairs(
            corners[box], views.rotations[view], views.translations[view], views.pinhole[view]
        )


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


def _in_frustum(corners: np.ndarray, views) -> np.ndarray:
    """Boolean (V, N) mask, False where box j's bounding sphere lies wholly
    outside one of view i's five frustum planes: near, left, right, top or
    bottom.  Built one plane at a time, so no (V, 5, N) array exists.

    The sphere is centred on the mean of the corners, with the largest corner
    distance as radius, widened by `_SPHERE_SLACK` relative to the radius
    and to the largest coordinate of boxes and cameras, plus `_SPHERE_SLACK`
    metres.
    """
    centres = corners.mean(axis=1)
    radii = np.sqrt(((corners - centres[:, None, :]) ** 2).sum(axis=2).max(axis=1))
    scale = max(np.abs(centres).max(initial=0.0), np.abs(views.translations).max(initial=0.0))
    radii += _SPHERE_SLACK * (radii + scale + 1.0)
    # Camera axes in world coordinates; image u grows along right, v along down.
    right, down, forward = np.moveaxis(views.rotations, 2, 0)
    fx, fy, cx, cy = views.pinhole.T[:, :, None]
    width, height = views.sizes.T[:, :, None].astype(np.float64)
    # Inward plane normals, each with its offset along the normal: a camera
    # point p with p_z > 0 projects inside [0, width] x [0, height] exactly
    # when it lies on the inner side of the four side planes.
    planes = (
        (forward, NEAR_PLANE),
        (fx * right + cx * forward, 0.0),
        ((width - cx) * forward - fx * right, 0.0),
        (fy * down + cy * forward, 0.0),
        ((height - cy) * forward - fy * down, 0.0),
    )
    inside = np.ones((len(views.rotations), len(corners)), dtype=bool)
    reach = np.empty(inside.shape)  # each sphere's farthest point along the normal
    for normal, offset in planes:
        normal = normal / np.linalg.norm(normal, axis=1, keepdims=True)
        np.matmul(normal, centres.T, out=reach)
        reach += radii
        inside &= reach > ((normal * views.translations).sum(axis=1) + offset)[:, None]
    return inside


def image_overlap(corners: np.ndarray, views) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The overlap of boxes, as world corners (N, 8, 3), with the images of
    camera columns, for the (view, box) pairs that pass `_in_frustum` only:
    each pair's index view * N + box (increasing), its IoSA against its
    view's image, and the area of its rect, which is not intersected with
    the image.  A box wholly behind the near plane has a NaN area and IoSA
    0; so has, in IoSA, every dropped pair."""
    corners = np.asarray(corners, dtype=np.float64)
    pairs = np.flatnonzero(_in_frustum(corners, views))
    overlap, area = np.empty(len(pairs)), np.empty(len(pairs))
    images = image_rects(views)
    for chunk, view, rects, _ in _pair_chunks(corners, views, pairs):
        overlap[chunk] = iosa_rects(rects, images[view])
        area[chunk] = rect_area(rects)
    return pairs, overlap, area


def image_visibility(
    corners: np.ndarray, views, iosa_threshold: float, min_area_ratio: float = 0.0
) -> np.ndarray:
    """Boolean (V, N) table: box j is visible in view i with IoSA against the
    image strictly above iosa_threshold and a projected area of at least
    min_area_ratio times the image area.

    Premise: iosa_threshold >= 0 (`WitnessConfig` keeps it in (0, 1)); a
    negative one raises ValueError.  It thresholds `image_overlap`: a pair
    that drops has IoSA 0, which fails `> iosa_threshold`, and a box wholly
    behind the near plane a NaN area, which fails `>=`.
    """
    if not iosa_threshold >= 0.0:
        raise ValueError("iosa_threshold must be >= 0")
    out = np.zeros((len(views.rotations), len(corners)), dtype=bool)
    pairs, overlap, area = image_overlap(corners, views)
    image_area = rect_area(image_rects(views))[pairs // len(corners)]  # by each pair's view
    out.flat[pairs[(area >= min_area_ratio * image_area) & (overlap > iosa_threshold)]] = True
    return out


def _project_one(corners: np.ndarray, intr: CameraIntrinsics, pose: CameraPose):
    """Rect (4,) and visibility of one box's world corners (8, 3) in one camera."""
    pinhole = np.array([[intr.fx, intr.fy, intr.cx, intr.cy]], dtype=np.float64)
    rects, visible = _project_pairs(
        corners[None], pose.rotation[None], pose.translation[None], pinhole
    )
    return rects[0], visible[0]


def project_point(point, intr: CameraIntrinsics, pose: CameraPose) -> tuple[float, float]:
    """Project a world point to image pixels (u, v).

    Raises BehindCamera when the point's camera depth is at or behind the
    near plane (0.01 m).
    """
    corners = np.broadcast_to(np.asarray(point, dtype=np.float64), (8, 3))
    rect, visible = _project_one(corners, intr, pose)
    if not visible:
        raise BehindCamera("point lies at or behind the near plane")
    return float(rect[0]), float(rect[1])


def project_box(box: OrientedBox3D, intr: CameraIntrinsics, pose: CameraPose) -> Rect2D:
    """Project an oriented box and return the bounding rectangle of its image,
    the rect `image_overlap` measures.  It is NOT intersected with the image
    rectangle; overlap with the frame is the caller's concern (see `iosa`).

    Raises NotVisible when every corner lies at or behind the near plane.
    """
    rect, visible = _project_one(box.corners(), intr, pose)
    if not visible:
        raise NotVisible("box lies entirely behind the camera")
    return Rect2D(*rect.tolist())


def iosa(a: Rect2D, b: Rect2D) -> float:
    """Intersection area over the smaller rectangle's area, in [0, 1].

    Equals 1 when one rectangle contains the other.  By convention a
    degenerate (zero-area) rectangle yields 0: an empty projection carries
    no visual evidence.
    """
    return float(iosa_rects(np.array(astuple(a)), np.array(astuple(b))))
