from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from egoview.errors import NoneVisible, NoViews, TooManyViews, UnknownObjectId
from egoview.geometry import CameraIntrinsics, CameraPose, OrientedBox3D, Rect2D, iosa
from egoview.selection import (
    DiversityConfig,
    alignment,
    build_grid_manifest,
    filter_captions,
    image_ref,
    pose_distance,
    select_diverse_views,
    select_view_for_dc,
    select_view_for_qa,
    select_views_for_dc,
    select_views_for_qa,
    visible_objects,
)
from egoview.services import StubModelService
from egoview.solvability import SceneObject, View, WitnessConfig, WitnessTable, witnesses

from .oracles import brute_force_maximin_subset, scalar_box_rect
from .scenegen import random_line_scene, random_posed_scene

INTR = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def make_view(view_id="v", translation=(0, 0, 0), intr=INTR, image_path=None) -> View:
    return View(
        view_id=view_id,
        intrinsics=intr,
        pose=CameraPose(np.eye(3), np.asarray(translation, dtype=float)),
        image_path=image_path,
    )


def make_object(object_id, label, center, size=(0.5, 0.5, 0.5)) -> SceneObject:
    return SceneObject(object_id, label, OrientedBox3D(center, size))


class TestVisibleObjects:
    def test_all_in_frustum(self):
        objects = [make_object(1, "desk", (0, 0, 2.5)), make_object(2, "chair", (1, 0, 2.5))]
        assert visible_objects(make_view(translation=(0.5, 0, 0)), objects) == {1, 2}

    def test_behind_camera_excluded(self):
        objects = [make_object(1, "desk", (0, 0, -5))]
        assert visible_objects(make_view(), objects) == set()

    def test_exactly_half_in_frame_excluded_at_default_tau(self):
        intr = CameraIntrinsics(500.0, 500.0, 0.0, 240.0, 640, 480)
        objects = [make_object(1, "desk", (0, 0, 2.5))]
        assert visible_objects(make_view(intr=intr), objects) == set()
        assert visible_objects(make_view(intr=intr), objects, tau=0.49) == {1}

    def test_no_min_area_rule_unlike_witnesses(self):
        # A far, tiny projection is fully contained: the alignment filter
        # keeps it while the witness predicate rejects it.
        obj = make_object(1, "desk", (0, 0, 30.0))
        view = make_view()
        assert visible_objects(view, [obj]) == {1}
        assert witnesses(view, obj) is False

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            views, objects = random_line_scene(rng, 3, 4)
            for view in views:
                lower = visible_objects(view, objects, tau=0.3)
                higher = visible_objects(view, objects, tau=0.7)
                assert higher <= lower

    def test_equals_witness_set_without_min_area(self):
        rng = np.random.default_rng(19)
        views, objects = random_line_scene(rng, 6, 5)
        cfg = WitnessConfig(iosa_threshold=0.5, min_area_ratio=0.0)
        for view in views:
            witness_set = {o.object_id for o in objects if witnesses(view, o, cfg)}
            assert visible_objects(view, objects, tau=0.5) == witness_set

    @pytest.mark.parametrize("make_scene", [random_line_scene, random_posed_scene])
    def test_table_and_set_equal_per_object_results(self, make_scene):
        views, objects = make_scene(np.random.default_rng(29), 12, 9)
        table = WitnessTable.build(objects, views, alignment(0.5)).matrix
        assert table.any()
        no_min_area = WitnessConfig(iosa_threshold=0.5, min_area_ratio=0.0)
        for i, view in enumerate(views):
            per_object = {o.object_id for o in objects if visible_objects(view, [o])}
            assert visible_objects(view, objects) == per_object
            assert {o.object_id for o, seen in zip(objects, table[i]) if seen} == per_object
            assert {o.object_id for o in objects if witnesses(view, o, no_min_area)} == per_object


class TestSelectViewForQA:
    def _stub_for(self, views_labels):
        stub = StubModelService()
        for view, labels in views_labels:
            stub.register_view_labels(image_ref(view), labels)
        return stub

    def test_single_view_wins_regardless(self):
        view = make_view("only")
        stub = self._stub_for([(view, [])])
        assert select_view_for_qa("anything", [view], stub)[0] == "only"

    def test_prefers_matching_labels(self):
        va = make_view("va")
        vb = make_view("vb")
        stub = self._stub_for([(va, ["desk", "chair"]), (vb, ["bed"])])
        best_id, score = select_view_for_qa("where is the desk and chair", [va, vb], stub)
        assert best_id == "va"
        # tokens {where,is,the,desk,and,chair} vs labels {desk,chair}
        assert score == pytest.approx(2 / 6)

    def test_tie_breaks_to_smaller_view_id(self):
        va, vb = make_view("va"), make_view("vb")
        stub = self._stub_for([(va, ["desk"]), (vb, ["desk"])])
        assert select_view_for_qa("desk", [vb, va], stub)[0] == "va"

    def test_no_views(self):
        with pytest.raises(NoViews):
            select_view_for_qa("q", [], StubModelService())


class TestSelectViewForDC:
    def test_single_containing_view(self, scene_a):
        assert select_view_for_dc(7, scene_a.views, scene_a.objects)[0] == "v04"

    def test_closer_view_wins_area_tie_break(self, scene_a):
        # Both v05 and v08 fully contain the sofa (ratio 1.0); v08 stands
        # half a meter closer so its projection is larger.
        view_id, score = select_view_for_dc(5, scene_a.views, scene_a.objects)
        assert view_id == "v08"
        assert score == 1.0

    def test_invariant_to_view_ordering(self, scene_a):
        for perm_seed in range(5):
            rng = np.random.default_rng(perm_seed)
            shuffled = list(scene_a.views)
            rng.shuffle(shuffled)
            assert select_view_for_dc(3, shuffled, scene_a.objects)[0] == "v03"

    def test_matches_scalar_reference_on_posed_scene(self):
        views, objects = random_posed_scene(np.random.default_rng(31), 16, 10)
        for obj in objects:
            ranked = []
            for view in views:
                rect = scalar_box_rect(obj.box, view.intrinsics, view.pose)
                if rect is not None:
                    image = Rect2D(0.0, 0.0, view.intrinsics.width, view.intrinsics.height)
                    score = iosa(rect, image)
                    ranked.append((-score, -rect.area, view.view_id))
            if not ranked:
                with pytest.raises(NoneVisible):
                    select_view_for_dc(obj.object_id, views, objects)
                continue
            neg_score, _, view_id = min(ranked)
            assert select_view_for_dc(obj.object_id, views, objects) == (view_id, -neg_score)

    def test_none_visible(self):
        objects = [make_object(1, "desk", (0, 0, -5))]
        with pytest.raises(NoneVisible):
            select_view_for_dc(1, [make_view()], objects)

    def test_unknown_target(self, scene_a):
        with pytest.raises(UnknownObjectId):
            select_view_for_dc(99, scene_a.views, scene_a.objects)


def _with_twins(views, count=3):
    """`views` plus copies of the first `count` under smaller ids, so those
    views tie exactly with their twins."""
    return list(views) + [
        View(f"u{i:02d}", view.intrinsics, view.pose) for i, view in enumerate(views[:count])
    ]


class TestBatchSelectors:
    """The batch selectors equal their per-instruction wrappers."""

    def test_qa_batch_equals_wrapper(self):
        views, objects = random_posed_scene(np.random.default_rng(37), 12, 9)
        views = _with_twins(views)
        stub = StubModelService()
        table = WitnessTable.build(objects, views, alignment(0.5)).matrix
        for view, row in zip(views, table):
            stub.register_view_labels(image_ref(view), [o.label for o, s in zip(objects, row) if s])
        texts = [
            "where is obj1",
            "obj2 and obj5 and obj7",
            "where is obj1",  # repeated
            "nothing matches here",  # scores 0 everywhere: all views tie
            "obj3",
            "obj2 and obj5 and obj7",
        ]
        batch = select_views_for_qa(texts, views, stub)
        assert batch == [select_view_for_qa(text, views, stub) for text in texts]
        assert batch[3] == ("u00", 0.0)
        assert select_views_for_qa([], [], stub) == []

    @pytest.mark.parametrize("first,last", [(0, 14), (5, 7), (5, 6), (0, 0)])
    def test_dc_batch_equals_wrapper(self, first, last):
        views, objects = random_posed_scene(np.random.default_rng(41), 14, 10)
        views = _with_twins(views[first:last])
        targets = [obj.object_id for obj in objects] + [3, 0, 3]
        batch = select_views_for_dc(targets, views, objects)
        for target, best in zip(targets, batch):
            if best is None:
                with pytest.raises(NoneVisible):
                    select_view_for_dc(target, views, objects)
            else:
                assert best == select_view_for_dc(target, views, objects)
        if last - first <= 2:
            assert None in batch  # some boxes lie behind the few cameras
        if last - first == 14:
            assert any(best[0].startswith("u") for best in batch if best is not None)

    def test_dc_first_unknown_target_raises(self, scene_a):
        with pytest.raises(UnknownObjectId, match="unknown target object id 98"):
            select_views_for_dc([7, 98, 99], scene_a.views, scene_a.objects)
        assert select_views_for_dc([], scene_a.views, scene_a.objects) == []


class TestFilterCaptions:
    def test_threshold_and_order(self):
        view = make_view("v")
        stub = StubModelService()
        stub.register_view_labels("v", ["sofa", "table"])
        captions = ["a sofa next to a table", "an empty corridor", "the table"]
        kept = filter_captions(view, captions, stub, threshold=0.3)
        assert [c for c, _ in kept] == ["a sofa next to a table", "the table"]
        scores = [s for _, s in kept]
        # token sets: {a,sofa,next,to,table} and {the,table} vs {sofa,table}
        assert scores[0] == pytest.approx(2 / 5)
        assert scores[1] == pytest.approx(1 / 3)

    def test_semantic_fixture_ordering(self):
        view = make_view("v")
        stub = StubModelService()
        stub.register_view_labels("v", ["sofa", "table"])
        scores = stub.score_image_text("v", ["a sofa next to a table", "an empty corridor"]).scores
        assert scores[0] > scores[1]

    def test_empty_caption_list(self):
        assert filter_captions(make_view(), [], StubModelService(), 0.5) == []

    def test_keeps_all_at_zero_threshold(self):
        view = make_view("v")
        stub = StubModelService()
        stub.register_view_labels("v", ["desk"])
        captions = ["x", "y"]
        assert len(filter_captions(view, captions, stub, threshold=0.0)) == 2


class TestSelectDiverseViews:
    def _line_views(self, n=10):
        return [make_view(f"p{i}", (float(i), 0, 0)) for i in range(n)]

    def test_farthest_point_on_a_line(self):
        result = select_diverse_views(self._line_views(), DiversityConfig(k=4))
        assert result.view_ids[:3] == ("p0", "p9", "p4")
        assert result.short_selection is False
        # Greedy dispersion is a 2-approximation of the brute-force maximin.
        chosen = [v for v in self._line_views() if v.view_id in result.view_ids]
        greedy_maximin = min(
            pose_distance(a, b) for a, b in itertools.combinations(chosen, 2)
        )
        best = brute_force_maximin_subset(self._line_views(), 4, pose_distance)
        assert greedy_maximin >= best / 2

    def test_identical_poses_collapse_to_one(self):
        views = [make_view(f"p{i}", (0, 0, 0)) for i in range(5)]
        result = select_diverse_views(views, DiversityConfig(k=4))
        assert result.view_ids == ("p0",)
        assert result.short_selection is True

    def test_k_equals_one_returns_seed(self):
        result = select_diverse_views(self._line_views(), DiversityConfig(k=1))
        assert result.view_ids == ("p0",)

    def test_pairwise_separation_invariant(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            views = [
                make_view(f"p{i}", tuple(rng.uniform(-2, 2, size=3))) for i in range(8)
            ]
            cfg = DiversityConfig(k=4, min_separation=1.0)
            result = select_diverse_views(views, cfg)
            chosen = [v for v in views if v.view_id in result.view_ids]
            for a, b in itertools.combinations(chosen, 2):
                assert pose_distance(a, b) >= cfg.min_separation

    def test_rotation_contributes_to_distance(self):
        quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        a = make_view("a")
        b = View("b", INTR, CameraPose(quarter, np.zeros(3)))
        assert pose_distance(a, b) == pytest.approx(math.pi / 2)
        assert pose_distance(a, b, lambda_rot=2.0) == pytest.approx(math.pi)

    def test_no_views(self):
        with pytest.raises(NoViews):
            select_diverse_views([], DiversityConfig())


class TestGridManifest:
    def test_four_views_row_major(self):
        views = [make_view(x, image_path=f"frames/{x}.jpg") for x in "abcd"]
        manifest = build_grid_manifest(views)
        assert manifest.view_ids == ("a", "b", "c", "d")
        assert (manifest.rows, manifest.cols) == (2, 2)
        assert manifest.cells[0][0].view_id == "a"
        assert manifest.cells[0][1].view_id == "b"
        assert manifest.cells[1][0].view_id == "c"
        assert manifest.cells[1][1].image_path == "frames/d.jpg"

    def test_two_views_leave_empty_cells(self):
        manifest = build_grid_manifest([make_view("a"), make_view("b")])
        assert manifest.cells[0][0].view_id == "a"
        assert manifest.cells[0][1].view_id == "b"
        assert manifest.cells[1] == (None, None)

    def test_too_many_views(self):
        with pytest.raises(TooManyViews):
            build_grid_manifest([make_view(str(i)) for i in range(5)])

    def test_empty(self):
        with pytest.raises(NoViews):
            build_grid_manifest([])

    def test_duplicate_views_rejected(self):
        with pytest.raises(ValueError):
            build_grid_manifest([make_view("a"), make_view("a")])


class TestImageRef:
    def test_prefers_image_path(self):
        assert image_ref(make_view("v", image_path="frames/v.jpg")) == "frames/v.jpg"

    def test_falls_back_to_view_id(self):
        assert image_ref(make_view("v")) == "v"
