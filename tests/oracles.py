"""Independent reference implementations used only to cross-check results.

Each oracle takes a deliberately different route from the production code:
counting grid cells instead of interval arithmetic, polytope vertex
enumeration plus surface sampling instead of edge clipping, a scalar loop
over points instead of batched arrays, a matrix product and an LU
determinant instead of closed-form dot products, exhaustive subset enumeration
instead of branch and bound, a recursive search instead of an explicit stack
with a node budget, and a from-scratch set Jaccard per text instead of token
sets kept across calls.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from egoview.geometry import NEAR_PLANE, Rect2D

GRID_STEP = 0.001
# Grid rects live inside [-3, 3]; the counting lattice covers that range.
_GRID_LO = -3200
_GRID_HI = 3200
_CENTERS = (np.arange(_GRID_LO, _GRID_HI) + 0.5) * GRID_STEP


def random_grid_rect(rng: np.random.Generator, allow_degenerate: bool = True) -> Rect2D:
    """Random rect whose coordinates are exact multiples of the grid step."""
    low = 0 if allow_degenerate else 1
    x0 = int(rng.integers(-3000, 2000))
    y0 = int(rng.integers(-3000, 2000))
    w = int(rng.integers(low, 1000))
    h = int(rng.integers(low, 1000))
    return Rect2D(x0 * GRID_STEP, y0 * GRID_STEP, (x0 + w) * GRID_STEP, (y0 + h) * GRID_STEP)


def grid_count_iosa(a: Rect2D, b: Rect2D) -> float:
    """Overlap ratio by counting 0.001-sized cells whose centers fall inside.

    Exact for rects aligned to the grid: no cell center ever sits on a
    boundary.  Axis-aligned rects factorize the 2D count into 1D counts.
    """
    in_a_x = (_CENTERS > a.x_min) & (_CENTERS < a.x_max)
    in_a_y = (_CENTERS > a.y_min) & (_CENTERS < a.y_max)
    in_b_x = (_CENTERS > b.x_min) & (_CENTERS < b.x_max)
    in_b_y = (_CENTERS > b.y_min) & (_CENTERS < b.y_max)
    cells_a = int(in_a_x.sum()) * int(in_a_y.sum())
    cells_b = int(in_b_x.sum()) * int(in_b_y.sum())
    cells_inter = int((in_a_x & in_b_x).sum()) * int((in_a_y & in_b_y).sum())
    smaller = min(cells_a, cells_b)
    if smaller == 0:
        return 0.0
    return cells_inter / smaller


def _box_halfspaces_camera(box, pose) -> tuple[np.ndarray, np.ndarray]:
    """The box's six face constraints plus the near plane, in camera frame.

    Rows (A, b) satisfy A @ p_cam <= b exactly on the clipped solid.
    """
    c, s = math.cos(box.heading), math.sin(box.heading)
    axes = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    rows, bounds = [], []
    for axis, half in zip(axes, box.size / 2.0):
        mid = float(axis @ box.center)
        rows.append(axis)
        bounds.append(mid + half)
        rows.append(-axis)
        bounds.append(-mid + half)
    a_world = np.array(rows)
    b_world = np.array(bounds)
    # world constraint a.p_w <= b with p_w = R p_c + t becomes (a R) p_c <= b - a.t
    a_cam = a_world @ pose.rotation
    b_cam = b_world - a_world @ pose.translation
    a_cam = np.vstack([a_cam, [0.0, 0.0, -1.0]])
    b_cam = np.append(b_cam, -NEAR_PLANE)
    return a_cam, b_cam


def _polytope_vertices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertices of {p | A p <= b} by enumerating plane triples."""
    vertices = []
    for i, j, k in itertools.combinations(range(len(b)), 3):
        m = a[[i, j, k]]
        if abs(np.linalg.det(m)) < 1e-10:
            continue
        p = np.linalg.solve(m, b[[i, j, k]])
        if np.all(a @ p <= b + 1e-9):
            vertices.append(p)
    if not vertices:
        return np.empty((0, 3))
    unique = []
    for p in vertices:
        if not any(np.linalg.norm(p - q) < 1e-9 for q in unique):
            unique.append(p)
    return np.array(unique)


def scalar_box_corners(box) -> np.ndarray:
    """A box's eight world corners, one coordinate at a time in Python floats,
    ordered by sign bits (x, y, z) as `geometry.box_corners` orders them."""
    c, s = math.cos(box.heading), math.sin(box.heading)
    cx, cy, cz = box.center.tolist()
    hx, hy, hz = (box.size / 2.0).tolist()
    corners = []
    for i in range(8):
        ox = hx if i >> 2 & 1 else -hx
        oy = hy if i >> 1 & 1 else -hy
        oz = hz if i & 1 else -hz
        corners.append((cx + (c * ox - s * oy), cy + (s * ox + c * oy), cz + oz))
    return np.array(corners)


def scalar_box_rect(box, intr, pose) -> Rect2D | None:
    """Projected bounding rect by a scalar loop over corners and edges.

    Each corner is moved to the camera frame on its own, corners in front
    of the near plane are kept, and each crossing edge adds its near-plane
    intersection.  This is the production arithmetic one point at a time,
    so the batched projector must match it bit for bit.  None when no
    corner lies in front of the near plane.
    """
    cam = [pose.rotation.T @ (corner - pose.translation) for corner in scalar_box_corners(box)]
    points = [p for p in cam if p[2] > NEAR_PLANE]
    for i, j in itertools.combinations(range(8), 2):
        if (i ^ j).bit_count() == 1 and (cam[i][2] > NEAR_PLANE) != (cam[j][2] > NEAR_PLANE):
            f = (NEAR_PLANE - cam[i][2]) / (cam[j][2] - cam[i][2])
            p = cam[i] + f * (cam[j] - cam[i])
            p[2] = NEAR_PLANE
            points.append(p)
    if not points:
        return None
    us = [intr.cx + intr.fx * p[0] / p[2] for p in points]
    vs = [intr.cy + intr.fy * p[1] / p[2] for p in points]
    return Rect2D(float(min(us)), float(min(vs)), float(max(us)), float(max(vs)))


def clipped_box_rect_oracle(box, intr, pose, n_samples: int = 100_000, seed: int = 0) -> Rect2D:
    """Projected bounding rect of the near-plane-clipped box, computed from
    the clipped polytope's vertices plus random points of its solid.

    Vertex enumeration over plane triples replaces the production edge
    clipping; the random samples (convex combinations of the vertices) guard
    against a vertex set that misses part of the solid.
    """
    a, b = _box_halfspaces_camera(box, pose)
    vertices = _polytope_vertices(a, b)
    if len(vertices) == 0:
        raise ValueError("box does not intersect the viewable halfspace")
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=(n_samples, len(vertices)))
    weights /= weights.sum(axis=1, keepdims=True)
    samples = weights @ vertices
    points = np.vstack([vertices, samples])
    u = intr.cx + intr.fx * points[:, 0] / points[:, 2]
    v = intr.cy + intr.fy * points[:, 1] / points[:, 2]
    return Rect2D(float(u.min()), float(v.min()), float(u.max()), float(v.max()))


def matmul_pose_errors(rotations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormality residual max |R^T R - I| and determinant error
    |det R - 1| of rotations (V, 3, 3), by a batched matrix product and
    LAPACK's determinant; non-finite entries give inf or NaN."""
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.abs(np.swapaxes(rotations, 1, 2) @ rotations - np.eye(3)).max(axis=(1, 2))
        det_error = np.abs(np.linalg.det(rotations) - 1.0)
    return residual, det_error


def reference_first_bad_pose(rotations, translations, tol: float) -> tuple[int, str] | None:
    """`geometry.first_bad_pose` from `matmul_pose_errors`, one row at a time."""
    residual, det_error = matmul_pose_errors(rotations)
    for index in range(len(rotations)):
        if not np.isfinite(translations[index]).all():
            return index, "translation must be finite"
        if not residual[index] <= tol:
            return index, "rotation must be finite and orthonormal"
        if not det_error[index] <= tol:
            return index, "rotation determinant must be +1"
    return None


def brute_force_min_cover(sets: list[frozenset], universe: frozenset) -> int | None:
    """Smallest covering subset size by exhaustive enumeration; None if impossible."""
    union = frozenset().union(*sets) if sets else frozenset()
    if not universe <= union:
        return None
    for k in range(0, len(sets) + 1):
        for combo in itertools.combinations(sets, k):
            if universe <= frozenset().union(frozenset(), *combo):
                return k
    return None


def recursive_cover_nodes(masks: list[int], universe: int, upper_bound: int) -> int:
    """Nodes visited by the branch and bound of `solvability._exact_cover_size`
    written as recursion with no budget: the same bound, branching element
    and child order, so the stack form visits the same nodes in this order."""
    element_bits = [1 << i for i in range(universe.bit_length()) if universe >> i & 1]
    best, nodes = upper_bound, 0

    def visit(covered: int, used: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if covered == universe:
            best = min(best, used)
            return
        remaining = universe & ~covered
        max_gain = max(bin(m & remaining).count("1") for m in masks)
        if used + math.ceil(bin(remaining).count("1") / max_gain) >= best:
            return
        bit = min((b for b in element_bits if remaining & b), key=lambda b: sum(1 for m in masks if m & b))
        for m in sorted((m for m in masks if m & bit), key=lambda m: bin(m & remaining).count("1"), reverse=True):
            visit(covered | m, used + 1)

    visit(0, 0)
    return nodes


def brute_force_eligible_pairs(questions) -> set[tuple[str, str]]:
    """Unordered eligible pair ids via an explicit double loop of set checks."""
    out = set()
    for a in questions:
        for b in questions:
            if a.question_id >= b.question_id:
                continue
            if a.scene_id != b.scene_id:
                continue
            oa, ob = a.related_object_ids, b.related_object_ids
            if not oa & ob:
                continue
            if oa.issubset(ob) or ob.issubset(oa):
                continue
            out.add((a.question_id, b.question_id))
    return out


def jaccard_score(text: str, labels) -> float:
    """Set Jaccard of the text's lowercased alphanumeric words and the
    labels' words, built from scratch; 0.0 when both sets are empty."""
    a = set(re.findall(r"[a-z0-9]+", text.lower()))
    b = {word for label in labels for word in re.findall(r"[a-z0-9]+", label.lower())}
    return len(a & b) / len(a | b) if a | b else 0.0
