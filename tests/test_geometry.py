from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoview import geometry
from egoview.errors import BehindCamera, NotVisible
from egoview.geometry import (
    _PAIR_CHUNK,
    NEAR_PLANE,
    CameraIntrinsics,
    CameraPose,
    OrientedBox3D,
    Rect2D,
    first_bad_box,
    first_bad_intrinsics,
    first_bad_pose,
    image_overlap,
    image_rects,
    image_visibility,
    iosa,
    iosa_rects,
    project_box,
    project_point,
    rect_area,
)
from egoview.scene import Objects, SceneObject, View, Views
from egoview.solvability import witness_matrix

from .oracles import (
    clipped_box_rect_oracle,
    grid_count_iosa,
    matmul_pose_errors,
    random_grid_rect,
    reference_first_bad_pose,
    scalar_box_rect,
)
from .scenegen import random_line_scene, random_posed_scene


def make_pose(rotation=None, translation=(0.0, 0.0, 0.0)) -> CameraPose:
    return CameraPose(
        rotation=np.eye(3) if rotation is None else rotation,
        translation=np.asarray(translation, dtype=float),
    )


class TestProjectPoint:
    def test_optical_axis_maps_to_principal_point(self, intr, identity_pose):
        assert project_point((0, 0, 2), intr, identity_pose) == (320.0, 240.0)

    def test_pinhole_equation(self, intr, identity_pose):
        u, v = project_point((1, 0, 2), intr, identity_pose)
        assert u == pytest.approx(320 + 500 * (1 / 2))
        assert v == 240.0

    def test_behind_camera(self, intr, identity_pose):
        with pytest.raises(BehindCamera):
            project_point((0, 0, -1), intr, identity_pose)

    def test_at_near_plane_rejected(self, intr, identity_pose):
        with pytest.raises(BehindCamera):
            project_point((0, 0, NEAR_PLANE), intr, identity_pose)

    def test_translated_pose(self, intr):
        pose = make_pose(translation=(1.0, 0.0, 0.0))
        u, v = project_point((1, 0, 2), intr, pose)
        assert (u, v) == (320.0, 240.0)

    def test_rotated_pose(self, intr):
        # Camera yawed 90 degrees about world z looks along world -x... the
        # point one meter along the camera's own +z must hit the center.
        yaw = math.pi / 2
        rot = np.array(
            [
                [math.cos(yaw), -math.sin(yaw), 0.0],
                [math.sin(yaw), math.cos(yaw), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        pose = make_pose(rotation=rot)
        forward = rot @ np.array([0.0, 0.0, 2.0])
        u, v = project_point(forward, intr, pose)
        assert (u, v) == pytest.approx((320.0, 240.0))

    @given(
        x=st.floats(-5, 5),
        y=st.floats(-5, 5),
        z=st.floats(0.1, 50),
        scale=st.floats(0.1, 100),
    )
    @settings(max_examples=200)
    def test_scale_consistency(self, x, y, z, scale):
        intr = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
        pose = CameraPose(np.eye(3), np.zeros(3))
        u1, v1 = project_point((x, y, z), intr, pose)
        u2, v2 = project_point((x * scale, y * scale, z * scale), intr, pose)
        assert u1 == pytest.approx(u2, rel=1e-9, abs=1e-6)
        assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-6)


class TestProjectBox:
    def test_unit_cube_front(self, intr, identity_pose):
        rect = project_box(OrientedBox3D((0, 0, 5), (1, 1, 1)), intr, identity_pose)
        # Near face at z=4.5 dominates the extremes.
        assert rect.x_min == pytest.approx(320 - 500 * 0.5 / 4.5, abs=1e-3)
        assert rect.y_min == pytest.approx(240 - 500 * 0.5 / 4.5, abs=1e-3)
        assert rect.x_max == pytest.approx(320 + 500 * 0.5 / 4.5, abs=1e-3)
        assert rect.y_max == pytest.approx(240 + 500 * 0.5 / 4.5, abs=1e-3)

    def test_cube_behind_camera(self, intr, identity_pose):
        with pytest.raises(NotVisible):
            project_box(OrientedBox3D((0, 0, -5), (1, 1, 1)), intr, identity_pose)

    def test_contains_all_front_corner_projections(self, intr, identity_pose):
        rng = np.random.default_rng(3)
        for _ in range(50):
            box = OrientedBox3D(
                center=rng.uniform([-2, -2, 2], [2, 2, 8]),
                size=rng.uniform(0.2, 1.5, size=3),
                heading=rng.uniform(-math.pi, math.pi),
            )
            rect = project_box(box, intr, identity_pose)
            for corner in box.corners():
                u, v = project_point(corner, intr, identity_pose)
                assert rect.x_min <= u <= rect.x_max
                assert rect.y_min <= v <= rect.y_max

    def test_matches_corner_oracle_exactly(self, intr, identity_pose):
        rng = np.random.default_rng(11)
        for _ in range(25):
            box = OrientedBox3D(
                center=rng.uniform([-3, -3, 1.5], [3, 3, 9]),
                size=rng.uniform(0.1, 1.0, size=3),
                heading=rng.uniform(-math.pi, math.pi),
            )
            rect = project_box(box, intr, identity_pose)
            pts = [project_point(c, intr, identity_pose) for c in box.corners()]
            assert rect.x_min == min(p[0] for p in pts)
            assert rect.x_max == max(p[0] for p in pts)
            assert rect.y_min == min(p[1] for p in pts)
            assert rect.y_max == max(p[1] for p in pts)

    def test_straddling_cube_matches_sampling_oracle(self, intr, identity_pose):
        box = OrientedBox3D((0.0, 0.0, 0.3), (1.0, 1.0, 1.0), heading=0.2)
        rect = project_box(box, intr, identity_pose)
        oracle = clipped_box_rect_oracle(box, intr, identity_pose, n_samples=100_000, seed=0)
        assert rect.x_min == pytest.approx(oracle.x_min, abs=2.0)
        assert rect.x_max == pytest.approx(oracle.x_max, abs=2.0)
        assert rect.y_min == pytest.approx(oracle.y_min, abs=2.0)
        assert rect.y_max == pytest.approx(oracle.y_max, abs=2.0)

    def test_heading_rotates_footprint(self, intr, identity_pose):
        flat = project_box(OrientedBox3D((0, 0, 5), (1.0, 0.2, 0.2)), intr, identity_pose)
        turned = project_box(
            OrientedBox3D((0, 0, 5), (1.0, 0.2, 0.2), heading=math.pi / 2), intr, identity_pose
        )
        # Quarter turn about the up-axis swaps the wide extent from u to v.
        assert flat.x_max - flat.x_min > flat.y_max - flat.y_min
        assert turned.y_max - turned.y_min > turned.x_max - turned.x_min


def _straddles(box: OrientedBox3D, pose: CameraPose) -> bool:
    depth = (box.corners() - pose.translation) @ pose.rotation[:, 2]
    return bool(depth.min() <= NEAR_PLANE < depth.max())


def dense_pairs(corners, views) -> tuple[np.ndarray, np.ndarray]:
    """Rects (V, N, 4) and visibility (V, N) of every (view, box) pair: the
    projection kernel over all pairs through `_pair_chunks`, no frustum test."""
    n_views, n_boxes = len(views.rotations), len(corners)
    rects = np.empty((n_views * n_boxes, 4))
    visible = np.empty(n_views * n_boxes, dtype=bool)
    pairs = np.arange(n_views * n_boxes)
    for chunk, _, chunk_rects, chunk_visible in geometry._pair_chunks(corners, views, pairs):
        rects[chunk], visible[chunk] = chunk_rects, chunk_visible
    return rects.reshape(n_views, n_boxes, 4), visible.reshape(n_views, n_boxes)


class TestProjectBoxes:
    """The kernel over every (view, box) pair, fed through `_pair_chunks`."""

    @pytest.mark.parametrize("make_scene", [random_line_scene, random_posed_scene])
    @pytest.mark.parametrize("seed", [47, 48])
    def test_equals_batch_of_one_and_scalar_loop_bit_for_bit(self, make_scene, seed):
        # 40 views x 30 boxes = 1200 pairs: more than one chunk, a pair count
        # that is not a multiple of the chunk size, and a chunk edge (at
        # pair 1024) that splits one view's boxes.
        n_views, n_boxes = 40, 30
        assert n_views * n_boxes > _PAIR_CHUNK
        assert n_views * n_boxes % _PAIR_CHUNK and _PAIR_CHUNK % n_boxes
        views, objects = make_scene(np.random.default_rng(seed), n_views, n_boxes)
        rects, visible = dense_pairs(Objects.of(objects).corners, Views.of(views))
        assert rects.shape == (n_views, n_boxes, 4) and visible.shape == (n_views, n_boxes)
        for i, view in enumerate(views):
            for j, obj in enumerate(objects):
                reference = scalar_box_rect(obj.box, view.intrinsics, view.pose)
                assert visible[i, j] == (reference is not None)
                if reference is None:
                    assert np.isnan(rects[i, j]).all()
                    with pytest.raises(NotVisible):
                        project_box(obj.box, view.intrinsics, view.pose)
                    continue
                single = project_box(obj.box, view.intrinsics, view.pose)
                assert single == reference
                assert tuple(rects[i, j]) == (single.x_min, single.y_min, single.x_max, single.y_max)

    @pytest.mark.parametrize("chunk", [1, 7, 12, 25])
    def test_chunk_edges_bit_for_bit(self, monkeypatch, chunk):
        # 5 views x 12 boxes = 60 pairs; chunks of 7 and 25 end inside a
        # view's boxes and leave a short last chunk.
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        views, objects = random_posed_scene(np.random.default_rng(61), 5, 12)
        rects, visible = dense_pairs(Objects.of(objects).corners, Views.of(views))
        for i, view in enumerate(views):
            for j, obj in enumerate(objects):
                reference = scalar_box_rect(obj.box, view.intrinsics, view.pose)
                assert visible[i, j] == (reference is not None)
                if reference is None:
                    assert np.isnan(rects[i, j]).all()
                else:
                    assert tuple(rects[i, j]) == astuple(reference)

    def test_straddling_pairs_match_sampling_oracle(self):
        views, objects = random_posed_scene(np.random.default_rng(53), 8, 12)
        rects, visible = dense_pairs(Objects.of(objects).corners, Views.of(views))
        checked = 0
        for i, view in enumerate(views):
            for j, obj in enumerate(objects):
                if not _straddles(obj.box, view.pose):
                    continue
                checked += 1
                assert visible[i, j]
                oracle = clipped_box_rect_oracle(
                    obj.box, view.intrinsics, view.pose, n_samples=20_000, seed=checked
                )
                got = Rect2D(*rects[i, j])
                assert got.x_min == pytest.approx(oracle.x_min, abs=2.0)
                assert got.x_max == pytest.approx(oracle.x_max, abs=2.0)
                assert got.y_min == pytest.approx(oracle.y_min, abs=2.0)
                assert got.y_max == pytest.approx(oracle.y_max, abs=2.0)
        assert checked >= 10, f"only {checked} straddling pairs exercised"

    def test_no_boxes_or_no_views(self):
        views, objects = random_posed_scene(np.random.default_rng(3), 3, 2)
        rects, visible = dense_pairs(np.empty((0, 8, 3)), Views.of(views))
        assert rects.shape == (3, 0, 4) and visible.shape == (3, 0)
        rects, visible = dense_pairs(Objects.of(objects).corners, Views.of([]))
        assert rects.shape == (0, 2, 4) and visible.shape == (0, 2)


_INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)

# Each frustum plane of `_INTR` in the camera frame: inward normal (not unit)
# and a point on the plane at 3 m depth (on the near plane for the first).
_PLANES = {
    "near": ((0.0, 0.0, 1.0), (0.0, 0.0, NEAR_PLANE)),
    "left": ((500.0, 0.0, 320.0), (-320.0 * 3 / 500, 0.0, 3.0)),
    "right": ((-500.0, 0.0, 320.0), (320.0 * 3 / 500, 0.0, 3.0)),
    "top": ((0.0, 500.0, 240.0), (0.0, -240.0 * 3 / 500, 3.0)),
    "bottom": ((0.0, -500.0, 240.0), (0.0, 240.0 * 3 / 500, 3.0)),
}


def _turning_to_world_x(normal: np.ndarray) -> np.ndarray:
    """A camera-to-world rotation that maps the camera-frame unit `normal`
    onto world +x, where a box of heading 0 has its first axis."""
    side = np.cross(normal, (0.0, 1.0, 0.0) if abs(normal[1]) < 0.9 else (1.0, 0.0, 0.0))
    side /= np.linalg.norm(side)
    return np.stack([normal, side, np.cross(normal, side)])


def plane_scene(shift: float) -> tuple[list[View], list[SceneObject]]:
    """One view per frustum plane, turned so that the plane's normal is world
    +x, and for each plane boxes placed across it, their inner face `depth`
    metres inside the plane (from 1 mm outside to 1 mm inside): needles
    0.2 m along the normal and 1e-9 m across, whose bounding sphere reaches
    past them by far less than rounding error, and 0.3 m cubes.  All
    coordinates are offset by `shift` metres.  A needle touching the near
    plane is the case the sphere's slack exists for: rounding can put its
    tip in front of the plane in the projection and behind it in the test."""
    views, objects = [], []
    for name, (normal, point) in _PLANES.items():
        normal = np.array(normal) / np.linalg.norm(normal)
        rotation = _turning_to_world_x(normal)
        translation = np.full(3, shift)
        views.append(View(f"{name}@{shift:g}", _INTR, CameraPose(rotation, translation)))
        on_plane = rotation @ np.array(point) + translation
        for depth in (-1e-3, -1e-6, -1e-9, -1e-12, -1e-16, 0.0, 1e-16, 1e-12, 1e-9, 1e-6, 1e-3):
            for size in ((0.2, 1e-9, 1e-9), (0.3, 0.3, 0.3)):
                center = on_plane + (depth - size[0] / 2) * np.array([1.0, 0.0, 0.0])
                objects.append(SceneObject(len(objects), name, OrientedBox3D(center, size)))
    return views, objects


def dense_visibility(corners, views, tau: float, min_area_ratio: float) -> np.ndarray:
    """`image_visibility` with every (view, box) pair projected: no frustum test."""
    rects, visible = dense_pairs(corners, views)
    image = image_rects(views)[:, None, :]
    return (
        visible
        & (rect_area(rects) >= min_area_ratio * rect_area(image))
        & (iosa_rects(rects, image) > tau)
    )


def _scene_columns(scene):
    """Box corners and camera columns of a posed scene (by seed) or a plane scene (by shift)."""
    if isinstance(scene, int):
        views, objects = random_posed_scene(np.random.default_rng(scene), 25, 40)
    else:
        views, objects = plane_scene(scene)
    return Objects.of(objects).corners, Views.of(views)


class TestImageVisibility:
    """The frustum test only skips pairs that the dense predicate rejects."""

    @pytest.mark.parametrize(
        "scene",
        [
            *(pytest.param(seed, id=f"posed-{seed}") for seed in (71, 72, 73)),
            *(pytest.param(shift, id=f"planes-{shift:g}") for shift in (0.0, 1.0, 1e5)),
        ],
    )
    def test_equals_dense_reference(self, scene):
        corners, views = _scene_columns(scene)
        culled = ~geometry._in_frustum(corners, views)
        assert culled.any() and not culled.all()
        for tau in (0.0, 1e-9, 0.5, 0.99):
            for min_area_ratio in (0.0, 0.005):
                expected = dense_visibility(corners, views, tau, min_area_ratio)
                got = image_visibility(corners, views, tau, min_area_ratio)
                np.testing.assert_array_equal(got, expected, f"tau={tau} area={min_area_ratio}")

    def test_negative_threshold_rejected(self):
        views, objects = random_posed_scene(np.random.default_rng(3), 2, 2)
        with pytest.raises(ValueError, match="iosa_threshold must be >= 0"):
            image_visibility(Objects.of(objects).corners, Views.of(views), -0.1)

    def test_witness_matrix_projects_only_pairs_in_frustum(self, monkeypatch):
        # Cameras in a room of boxes see about a quarter of the (view, box)
        # pairs' bounding spheres; only those reach the projector.
        views, objects = random_posed_scene(np.random.default_rng(81), 30, 40)
        project_pairs = geometry._project_pairs
        projected = []

        def counting_project_pairs(corners, *cameras):
            projected.append(len(corners))
            return project_pairs(corners, *cameras)

        monkeypatch.setattr(geometry, "_project_pairs", counting_project_pairs)
        matrix = witness_matrix(objects, views)
        assert sum(projected) < len(views) * len(objects) / 2
        monkeypatch.undo()
        corners = Objects.of(objects).corners
        np.testing.assert_array_equal(matrix, dense_visibility(corners, Views.of(views), 0.5, 0.005))

    def test_plane_scene_covers_both_sides_of_every_plane(self):
        views, objects = plane_scene(0.0)
        corners, views = Objects.of(objects).corners, Views.of(views)
        seen = dense_visibility(corners, views, 1e-9, 0.0)
        culled = ~geometry._in_frustum(corners, views)
        for i, plane in enumerate(_PLANES):
            own = np.array([obj.label == plane for obj in objects])
            assert seen[i, own].any() and culled[i, own].any(), plane


class TestImageOverlap:
    """The one overlap: the dense values on the pairs the frustum test keeps,
    and only pairs whose dense IoSA is 0 dropped."""

    @pytest.mark.parametrize("scene", [72, 0.0, 1.0, 1e5])
    def test_kept_pairs_equal_dense_and_dropped_pairs_have_iosa_0(self, scene):
        corners, views = _scene_columns(scene)
        pairs, overlap, area = image_overlap(corners, views)
        np.testing.assert_array_equal(pairs, np.flatnonzero(geometry._in_frustum(corners, views)))
        rects, visible = dense_pairs(corners, views)
        dense_iosa = iosa_rects(rects, image_rects(views)[:, None, :]).ravel()
        dense_area = rect_area(rects).ravel()
        assert overlap.tolist() == dense_iosa[pairs].tolist()
        np.testing.assert_array_equal(area, dense_area[pairs])  # NaN where wholly behind
        behind = ~visible.ravel()[pairs]
        assert behind.any() and np.isnan(area[behind]).all() and not overlap[behind].any()
        assert not np.isnan(area[~behind]).any()
        dropped = np.setdiff1d(np.arange(visible.size), pairs)
        assert len(dropped) and not dense_iosa[dropped].any()

    def test_no_boxes_or_no_views(self):
        views, objects = random_posed_scene(np.random.default_rng(3), 3, 2)
        for corners, columns in (
            (np.empty((0, 8, 3)), Views.of(views)),
            (Objects.of(objects).corners, Views.of([])),
        ):
            pairs, overlap, area = image_overlap(corners, columns)
            assert len(pairs) == len(overlap) == len(area) == 0


class TestIosa:
    def test_identical(self):
        r = Rect2D(0, 0, 10, 10)
        assert iosa(r, r) == 1.0

    def test_disjoint(self):
        assert iosa(Rect2D(0, 0, 1, 1), Rect2D(5, 5, 6, 6)) == 0.0

    def test_quarter_overlap(self):
        assert iosa(Rect2D(0, 0, 2, 2), Rect2D(1, 1, 3, 3)) == 0.25

    def test_containment(self):
        assert iosa(Rect2D(0, 0, 100, 100), Rect2D(10, 10, 20, 20)) == 1.0

    def test_degenerate_is_zero(self):
        assert iosa(Rect2D(0, 0, 0, 10), Rect2D(0, 0, 10, 10)) == 0.0

    @given(
        st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 100), st.floats(0, 100)),
        st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 100), st.floats(0, 100)),
    )
    @settings(max_examples=300)
    def test_symmetric_and_bounded(self, a, b):
        ra = Rect2D(a[0], a[1], a[0] + a[2], a[1] + a[3])
        rb = Rect2D(b[0], b[1], b[0] + b[2], b[1] + b[3])
        assert iosa(ra, rb) == iosa(rb, ra)
        assert 0.0 <= iosa(ra, rb) <= 1.0

    @given(
        st.floats(-50, 50), st.floats(-50, 50), st.floats(0.5, 100), st.floats(0.5, 100),
        st.floats(0, 0.4), st.floats(0, 0.4),
    )
    @settings(max_examples=200)
    def test_contained_rect_scores_one(self, x, y, w, h, fx, fy):
        outer = Rect2D(x, y, x + w, y + h)
        inner = Rect2D(x + fx * w, y + fy * h, x + (1 - fx) * w, y + (1 - fy) * h)
        assert iosa(outer, inner) == 1.0

    def test_matches_grid_counting_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = random_grid_rect(rng)
            b = random_grid_rect(rng)
            assert iosa(a, b) == pytest.approx(grid_count_iosa(a, b), abs=1e-3)


def _bad_pose_rows():
    rotations, translations = np.stack([np.eye(3)] * 6), np.zeros((6, 3))
    rotations[2, 0, 0] = math.nan  # neither orthonormal nor of determinant +1
    rotations[4] = np.diag([1.0, 1.0, -1.0])
    return rotations, translations


def _bad_box_rows():
    centers, sizes, headings = np.zeros((6, 3)), np.ones((6, 3)), np.zeros(6)
    sizes[2, 0] = -math.inf  # neither finite nor positive
    sizes[4, 1] = 0.0
    return centers, sizes, headings


def _bad_intrinsics_rows(size_type):
    """int64 sizes: row 2 has an infinite, negative focal length and row 4
    its principal point outside.  Python-int sizes: row 2 has width 0, left
    of its principal point, and row 4 height 2**63."""
    pinhole = np.array([[500.0, 500.0, 320.0, 240.0]] * 6)
    sizes = np.array([[640, 480]] * 6, dtype=size_type)
    if size_type is object:
        sizes[2, 0], sizes[4, 1] = 0, 2**63
    else:
        pinhole[2, 0], pinhole[4, 2] = -math.inf, 700.0
    return pinhole, sizes


def _random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _pose_row(rng, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """One (rotation, translation) row of `kind`; the moved rotations land
    1e-7 to 1e-5 off orthonormal, either side of the 1e-6 tolerance."""
    rotation, translation = _random_rotation(rng), rng.normal(scale=10.0, size=3)
    offset = 10.0 ** rng.uniform(-7, -5)
    if kind == "moved":
        rotation += offset * rng.normal(size=(3, 3))
    elif kind == "scaled":  # residual about 2x, determinant error 3x the offset
        rotation *= 1.0 + rng.choice([-1, 1]) * offset / 3
    elif kind == "reflection":
        rotation[:, rng.integers(3)] *= -1.0
    elif kind in ("special rotation", "special translation"):
        target = rotation if kind == "special rotation" else translation
        target.flat[rng.integers(target.size)] = rng.choice(
            [math.nan, math.inf, -math.inf, 1e200, -1e200]
        )
    return rotation, translation


_POSE_KINDS = ["rotation", "moved", "scaled", "reflection", "special rotation", "special translation"]


class TestValidation:
    def test_bad_rotation_rejected(self):
        with pytest.raises(ValueError):
            CameraPose(rotation=np.eye(3) * 2, translation=np.zeros(3))

    def test_reflection_rejected(self):
        rot = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            CameraPose(rotation=rot, translation=np.zeros(3))

    @given(st.lists(st.sampled_from(_POSE_KINDS), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_pose_closed_form_matches_matmul_reference(self, kinds, seed):
        """Over the batch, and row by row, so that no row hides behind an
        earlier failing one."""
        rng = np.random.default_rng(seed)
        rows = [_pose_row(rng, kind) for kind in kinds]
        rotations, translations = np.array([r for r, _ in rows]), np.array([t for _, t in rows])
        # Rounding differs between the two forms: keep rows clear of the tolerance.
        tol = geometry._ORTHO_TOL
        near = [np.abs(error - tol) <= 1e-12 for error in matmul_pose_errors(rotations)]
        keep = ~np.logical_or(*near)
        rotations, translations = rotations[keep], translations[keep]
        assert first_bad_pose(rotations, translations) == reference_first_bad_pose(
            rotations, translations, tol
        )
        for row in range(len(rotations)):
            one = slice(row, row + 1)
            assert first_bad_pose(rotations[one], translations[one]) == reference_first_bad_pose(
                rotations[one], translations[one], tol
            )

    @pytest.mark.parametrize(
        "rotation,translation,reason",
        [
            (np.eye(3), (0.0, math.nan, 0.0), "translation must be finite"),
            (np.eye(3) * 2, (0.0, math.inf, 0.0), "translation must be finite"),
            (np.diag([1.0, math.inf, 1.0]), (0, 0, 0), "rotation must be finite and orthonormal"),
            (np.diag([1.0, 1.0, -1.0]), (0.0, 0.0, 0.0), "rotation determinant must be +1"),
            ([[1.0, 0.0], [0.0, 1.0]], (0.0, 0.0, 0.0), "rotation must be 3x3"),
            (np.eye(3), (0.0, 0.0), "translation must be a 3-vector"),
        ],
    )
    def test_pose_reason(self, rotation, translation, reason):
        with pytest.raises(ValueError) as excinfo:
            CameraPose(rotation=rotation, translation=translation)
        assert str(excinfo.value) == reason

    @pytest.mark.parametrize(
        "first_bad,columns,reasons",
        [
            pytest.param(
                first_bad_pose, _bad_pose_rows(),
                ("rotation must be finite and orthonormal", "rotation determinant must be +1"),
                id="pose",
            ),
            pytest.param(
                first_bad_box, _bad_box_rows(),
                ("center, size and heading must be finite", "all size components must be positive"),
                id="box",
            ),
            pytest.param(
                first_bad_intrinsics, _bad_intrinsics_rows(np.int64),
                (
                    "focal lengths and principal point must be finite",
                    "principal point must lie inside the image",
                ),
                id="intrinsics",
            ),
            pytest.param(
                first_bad_intrinsics, _bad_intrinsics_rows(object),
                (
                    "principal point must lie inside the image",
                    "image dimensions must be below 2**63",
                ),
                id="intrinsics-python-ints",
            ),
        ],
    )
    def test_first_bad_pose_names_lowest_index(self, first_bad, columns, reasons):
        """Six rows, of which rows 2 and 4 fail; row 2 fails two checks."""
        assert first_bad(*columns) == (2, reasons[0])
        assert first_bad(*(column[3:] for column in columns)) == (1, reasons[1])
        assert first_bad(*(column[:2] for column in columns)) is None
        assert first_bad(*(column[:0] for column in columns)) is None

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            OrientedBox3D((0, 0, 0), (1.0, 0.0, 1.0))

    def test_principal_point_outside_rejected(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(500, 500, 700, 240, 640, 480)

    @pytest.mark.parametrize(
        "width,height", [(10**400, 480), (640, 10**400), (2**63, 480), (640, 2**63)]
    )
    def test_image_size_from_2_63_rejected(self, width, height):
        with pytest.raises(ValueError, match=r"image dimensions must be below 2\*\*63"):
            CameraIntrinsics(500, 500, 320, 240, width, height)

    def test_image_size_below_2_63_accepted(self):
        intr = CameraIntrinsics(500, 500, 320, 240, 2**63 - 1, 2**63 - 1)
        assert Views.of([View("v", intr, CameraPose(np.eye(3), np.zeros(3)))]).sizes.max() == 2**63 - 1

    def test_unordered_rect_rejected(self):
        with pytest.raises(ValueError):
            Rect2D(5, 0, 0, 10)
