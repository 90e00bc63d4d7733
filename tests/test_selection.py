from __future__ import annotations

import numpy as np
import pytest

from egoview import services
from egoview.corpus import CaptionBuildConfig, build_caption_triplets
from egoview.errors import NoneVisible, NoViews, UnknownObjectId
from egoview.geometry import (
    CameraIntrinsics,
    CameraPose,
    OrientedBox3D,
    Rect2D,
    image_overlap,
    iosa,
)
from egoview.selection import (
    alignment,
    image_refs,
    select_view_for_dc,
    select_view_for_qa,
    select_views_for_dc,
    select_views_for_qa,
    visible_objects,
)
from egoview.scene import Objects, SceneObject, View, Views
from egoview.services import StubModelService
from egoview.solvability import WitnessConfig, WitnessTable, witnesses

from .oracles import scalar_box_rect
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


def select_dc(targets, views, objects):
    """`select_views_for_dc` over the overlap of all of `objects` in `views`."""
    views, objects = Views.of(views), Objects.of(objects)
    return select_views_for_dc(targets, views, objects, image_overlap(objects.corners, views))


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
        views = Views.of([view for view, _ in views_labels])
        for ref, (_, labels) in zip(image_refs(views), views_labels):
            stub.register_view_labels(ref, labels)
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

    def test_each_distinct_text_is_tokenized_once(self, monkeypatch):
        views, objects = random_posed_scene(np.random.default_rng(43), 12, 9)
        table = WitnessTable.build(objects, views, alignment(0.5)).matrix
        labels = [[o.label for o, s in zip(objects, row) if s] for row in table]
        stub = self._stub_for(list(zip(views, labels)))
        texts = ["where is obj1", "obj2 and obj5", "where is obj1", "", "obj3", ""]
        expected = select_views_for_qa(texts, views, self._stub_for(list(zip(views, labels))))
        calls = []
        tokenize = services.tokenize

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(services, "tokenize", counting_tokenize)
        assert select_views_for_qa(texts, views, stub) == expected
        # One token set per distinct text, not one per (view, text).
        assert len(calls) <= len(set(texts)) < len(views) * len(set(texts))


class _ScriptedScorer:
    """Scores each text against each image reference from a fixed table."""

    def __init__(self, columns: dict[str, dict[str, float]]):
        self.columns = columns

    def score_image_text(self, image_ref, texts):
        return tuple(self.columns[text][image_ref] for text in texts)


def key_reduction(texts, view_ids, columns):
    """The reference qa pick: the least (-score, view_id) of each text's column."""
    return [
        min(zip(view_ids, [columns[text][v] for v in view_ids]), key=lambda kv: (-kv[1], kv[0]))
        for text in texts
    ]


class TestQAPicksUnderTies:
    """`select_views_for_qa` picks as the key-based reduction does.  The ids
    are unpadded, so their string order (v1 < v10 < v2 < v9) differs from
    their numeric order and from their order in the table."""

    ORDER = ("v9", "v2", "v10", "v1")
    COLUMNS = {
        "three-way tie": {"v9": 0.75, "v2": 0.75, "v10": 0.75, "v1": 0.5},
        "all zero": {"v9": 0.0, "v2": 0.0, "v10": 0.0, "v1": 0.0},
        "one top": {"v9": 0.25, "v2": 1.0, "v10": 0.25, "v1": 0.0},
    }

    def test_picks_equal_the_key_reduction(self):
        views = [make_view(view_id) for view_id in self.ORDER]
        texts = ["all zero", "three-way tie", "one top", "three-way tie"]
        picks = select_views_for_qa(texts, views, _ScriptedScorer(self.COLUMNS))
        assert picks == key_reduction(texts, self.ORDER, self.COLUMNS)
        assert picks == [("v1", 0.0), ("v10", 0.75), ("v2", 1.0), ("v10", 0.75)]

    @pytest.mark.parametrize("view_id", ORDER)
    def test_single_view(self, view_id):
        texts = list(self.COLUMNS)
        picks = select_views_for_qa(texts, [make_view(view_id)], _ScriptedScorer(self.COLUMNS))
        assert picks == key_reduction(texts, [view_id], self.COLUMNS)
        assert picks == [(view_id, self.COLUMNS[text][view_id]) for text in texts]


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
                    if score > 0.0:
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

    def test_in_front_but_outside_every_image_is_none_visible(self):
        # In front of the camera, far off to the side: its rect misses the
        # image, so the view's IoSA is 0 and it is no candidate.
        objects = [make_object(1, "desk", (50, 0, 5)), make_object(2, "chair", (0, 0, 2.5))]
        assert select_dc([1, 2], [make_view("v0")], objects) == [None, ("v0", 1.0)]
        with pytest.raises(NoneVisible):
            select_view_for_dc(1, [make_view("v0")], objects)

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
        for ref, row in zip(image_refs(Views.of(views)), table):
            stub.register_view_labels(ref, [o.label for o, s in zip(objects, row) if s])
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
        batch = select_dc(targets, views, objects)
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
            select_dc([7, 98, 99], scene_a.views, scene_a.objects)
        assert select_dc([], scene_a.views, scene_a.objects) == []


class _FixedReplies:
    """Model client that gives every view the same captions, and scores every
    view against one fixed label set with the stub's scorer."""

    def __init__(self, captions, labels):
        self._captions = list(captions)
        self._stub = StubModelService()
        self._labels = list(labels)

    def caption_image(self, image_ref, n):
        return self._captions[:n]

    def score_image_text(self, image_ref, texts):
        self._stub.register_view_labels(image_ref, self._labels)
        return self._stub.score_image_text(image_ref, texts)


class TestFilterCaptions:
    """The caption keep rule `build_caption_triplets` applies per view."""

    CAPTIONS = ["a sofa next to a table", "an empty corridor", "the table"]

    def test_threshold_and_order(self, scene_a):
        cfg = CaptionBuildConfig(stride=len(scene_a.views), num_captions=3, threshold=0.3)
        client = _FixedReplies(self.CAPTIONS, ["sofa", "table"])
        records = build_caption_triplets(scene_a, client, cfg)
        assert [r.text for r in records] == ["a sofa next to a table", "the table"]
        view_id = scene_a.views.ids[0]
        assert [r.triplet_id for r in records] == [
            f"cap:{scene_a.scene_id}:{view_id}:0",
            f"cap:{scene_a.scene_id}:{view_id}:2",
        ]
        scores = [r.provenance.retrieval_score for r in records]
        # token sets: {a,sofa,next,to,table} and {the,table} vs {sofa,table}
        assert scores[0] == pytest.approx(2 / 5)
        assert scores[1] == pytest.approx(1 / 3)

    def test_semantic_fixture_ordering(self):
        stub = StubModelService()
        stub.register_view_labels("v", ["sofa", "table"])
        scores = stub.score_image_text("v", self.CAPTIONS)
        # token sets: {a,sofa,next,to,table}, {an,empty,corridor} and
        # {the,table} against the labels' {sofa,table}
        assert scores == pytest.approx((2 / 5, 0.0, 1 / 3))
        assert scores[0] > scores[1]


class TestImageRef:
    def test_prefers_image_path(self):
        views = Views.of([make_view("v", image_path="frames/v.jpg")])
        assert image_refs(views) == ["frames/v.jpg"]

    def test_falls_back_to_view_id(self):
        views = Views.of([make_view("v"), make_view("w", image_path="frames/w.jpg")])
        assert image_refs(views) == ["v", "frames/w.jpg"]
