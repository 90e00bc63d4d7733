from __future__ import annotations

import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egoview import solvability
from egoview._util import percent
from egoview.errors import EmptyInput, UnknownObjectId, UnknownScene
from egoview.geometry import CameraIntrinsics, CameraPose, OrientedBox3D
from egoview.scene import Objects, SceneObject, View, Views
from egoview.solvability import (
    ViewRequirement,
    WitnessConfig,
    WitnessTable,
    format_solvability_report,
    greedy_cover,
    min_cover,
    min_view_count,
    solvability_report,
    view_requirement_stats,
    witness_matrix,
    witnesses,
)

from .oracles import brute_force_min_cover, recursive_cover_nodes, scalar_box_corners
from .scenegen import (
    random_abstract_instance,
    random_line_scene,
    random_posed_scene,
    random_relevant_ids,
)


class TestTables:
    """Objects and Views hold a scene's records as columns."""

    def test_view_records_round_trip(self):
        views, _ = random_posed_scene(np.random.default_rng(21), 5, 1)
        views[2] = View(views[2].view_id, views[2].intrinsics, views[2].pose, "frames/2.jpg")
        table = Views.of(views)
        assert Views.of(table) is table
        assert len(table) == 5 and table.ids == tuple(v.view_id for v in views)
        assert table.sizes.dtype == np.int64 and table.pinhole.shape == (5, 4)
        for view, record in zip(views, table):
            assert record.view_id == view.view_id and record.image_path == view.image_path
            assert record.intrinsics == view.intrinsics
            assert np.array_equal(record.pose.rotation, view.pose.rotation)
            assert np.array_equal(record.pose.translation, view.pose.translation)
        assert table[-1].view_id == views[-1].view_id
        with pytest.raises(IndexError):
            table[5]

    def test_slices_and_masks_are_tables(self):
        views, objects = random_posed_scene(np.random.default_rng(22), 7, 6)
        table = Views.of(views)
        strided = table[::3]
        assert isinstance(strided, Views) and strided.ids == ("v00", "v03", "v06")
        assert np.array_equal(strided.rotations, table.rotations[::3])
        chosen = Objects.of(objects)[np.array([True, False, True, False, False, True])]
        assert chosen.ids == (0, 2, 5) and chosen.labels == ("obj0", "obj2", "obj5")
        assert np.array_equal(chosen.corners, Objects.of(objects).corners[[0, 2, 5]])

    @pytest.mark.parametrize("seed", [31, 32])
    def test_corners_equal_scalar_corners_bit_for_bit(self, seed):
        _, objects = random_posed_scene(np.random.default_rng(seed), 1, 40)
        corners = Objects.of(objects).corners
        for obj, got in zip(objects, corners):
            assert np.array_equal(got, scalar_box_corners(obj.box))
            assert np.array_equal(got, obj.box.corners())

    def test_object_records_round_trip(self):
        _, objects = random_posed_scene(np.random.default_rng(23), 1, 4)
        for obj, record in zip(objects, Objects.of(objects)):
            assert (record.object_id, record.label) == (obj.object_id, obj.label)
            assert np.array_equal(record.box.center, obj.box.center)
            assert np.array_equal(record.box.size, obj.box.size)
            assert record.box.heading == obj.box.heading


def make_view(view_id="v", translation=(0, 0, 0), intr=None) -> View:
    return View(
        view_id=view_id,
        intrinsics=intr or CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480),
        pose=CameraPose(np.eye(3), np.asarray(translation, dtype=float)),
    )


def make_object(object_id=1, label="desk", center=(0, 0, 2.5), size=(0.5, 0.5, 0.5)):
    return SceneObject(object_id, label, OrientedBox3D(center, size))


class TestWitnesses:
    def test_fully_visible(self):
        assert witnesses(make_view(), make_object()) is True

    def test_exactly_half_inside_fails_strict_threshold(self):
        # Principal point at the left border makes the projection hang exactly
        # half out of frame: overlap ratio is exactly 0.5, not above it.
        intr = CameraIntrinsics(500.0, 500.0, 0.0, 240.0, 640, 480)
        view = make_view(intr=intr)
        obj = make_object()
        assert witnesses(view, obj) is False
        assert witnesses(view, obj, WitnessConfig(iosa_threshold=0.49)) is True

    def test_distant_object_fails_min_area(self):
        obj = make_object(center=(0, 0, 30.0))
        view = make_view()
        assert witnesses(view, obj) is False
        assert witnesses(view, obj, WitnessConfig(min_area_ratio=0.0)) is True

    def test_behind_camera(self):
        assert witnesses(make_view(), make_object(center=(0, 0, -5))) is False

    def test_straddling_box_goes_through_clipping(self):
        # A box the camera is inside of blows up to cover the frame: the
        # image becomes the smaller rect and is fully contained, ratio 1.
        engulfing = make_object(center=(0, 0, 0.3), size=(0.2, 0.2, 1.0))
        assert witnesses(make_view(), engulfing) is True
        # The same straddling box far off-axis projects beside the frame.
        lateral = make_object(center=(5.0, 0, 0.3), size=(0.2, 0.2, 1.0))
        assert witnesses(make_view(), lateral) is False


class TestWitnessMatrix:
    def test_single_pair(self):
        matrix = witness_matrix([make_object()], [make_view()])
        assert matrix.shape == (1, 1)
        assert matrix[0, 0]

    def test_matches_elementwise_calls(self):
        rng = np.random.default_rng(5)
        views, objects = random_line_scene(rng, n_views=10, n_objects=5)
        matrix = witness_matrix(objects, views)
        for i, view in enumerate(views):
            for j, obj in enumerate(objects):
                assert matrix[i, j] == witnesses(view, obj), (view.view_id, obj.object_id)

    def test_matches_elementwise_on_many_fixtures(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            views, objects = random_line_scene(
                rng, n_views=int(rng.integers(1, 5)), n_objects=int(rng.integers(1, 4))
            )
            matrix = witness_matrix(objects, views)
            expected = np.array(
                [[witnesses(v, o) for o in objects] for v in views], dtype=bool
            )
            assert np.array_equal(matrix, expected)

    def test_matches_elementwise_on_posed_scenes(self):
        # Yawed and pitched cameras with straddling boxes; up to 12 views
        # span more than one projection block.
        rng = np.random.default_rng(61)
        for _ in range(20):
            views, objects = random_posed_scene(
                rng, n_views=int(rng.integers(1, 13)), n_objects=int(rng.integers(1, 8))
            )
            matrix = witness_matrix(objects, views)
            expected = np.array(
                [[witnesses(v, o) for o in objects] for v in views], dtype=bool
            )
            assert np.array_equal(matrix, expected)

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyInput):
            witness_matrix([], [make_view()])
        with pytest.raises(EmptyInput):
            witness_matrix([make_object()], [])


def solvable(ids, views, objects) -> bool:
    return min_view_count(ids, views, objects).n is not None


class TestIsSolvable:
    """A set of views solves an instruction when it jointly witnesses every
    relevant object: `min_view_count(...).n is not None`."""

    def test_single_view_covers_all(self):
        objects = [make_object(1, "desk", (0, 0, 2.5)), make_object(2, "chair", (1.0, 0, 2.5))]
        view = make_view(translation=(0.5, 0, 0))
        assert solvable({1, 2}, [view], objects)

    def test_missing_object_not_solvable(self):
        objects = [make_object(1), make_object(2, center=(100, 0, 2.5))]
        view = make_view()
        assert not solvable({1, 2}, [view], objects)

    def test_fixture_instruction_needs_two_specific_views(self, scene_a):
        # Chair (2) only in v01/v12, lamp (7) only in v04: the full view set
        # solves it, v01 alone does not.
        assert solvable({2, 7}, scene_a.views, scene_a.objects)
        v01 = [scene_a.views[scene_a.views.ids.index("v01")]]
        assert not solvable({2, 7}, v01, scene_a.objects)

    def test_unknown_object_id(self):
        with pytest.raises(UnknownObjectId):
            solvable({99}, [make_view()], [make_object(1)])

    def test_monotone_under_supersets(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            views, objects = random_line_scene(rng, 8, 5)
            ids = random_relevant_ids(rng, 5)
            subset_size = int(rng.integers(1, len(views) + 1))
            chosen = list(rng.choice(len(views), size=subset_size, replace=False))
            subset = [views[i] for i in chosen]
            if solvable(ids, subset, objects):
                assert solvable(ids, views, objects)


class TestMinCover:
    def test_spec_example(self):
        sets = [("v1", frozenset("ab")), ("v2", frozenset("bc")), ("v3", frozenset("c"))]
        req = min_cover(sets, frozenset("abc"))
        assert req == ViewRequirement(2, "exact")

    def test_uncoverable(self):
        req = min_cover([("v1", frozenset("a"))], frozenset("ab"))
        assert req.n is None
        assert req.bucket == "unsolvable"

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(120):
            sets_by_id, universe = random_abstract_instance(rng)
            expected = brute_force_min_cover([s for _, s in sets_by_id], universe)
            req = min_cover(sets_by_id, universe)
            assert req.n == expected, (sets_by_id, universe)
            if req.n is not None:
                assert req.solver == "exact"

    def test_greedy_bound_and_ordering(self):
        rng = np.random.default_rng(31)
        for _ in range(120):
            sets_by_id, universe = random_abstract_instance(rng)
            exact = brute_force_min_cover([s for _, s in sets_by_id], universe)
            if exact is None:
                continue
            greedy = len(greedy_cover(sets_by_id, universe))
            assert greedy >= exact
            m = len(universe)
            assert greedy <= exact * (math.ceil(math.log(m)) + 1 if m > 1 else 1)

    def test_greedy_tie_breaks_lexicographically(self):
        sets = [("vb", frozenset("ab")), ("va", frozenset("cd")), ("vc", frozenset("ab"))]
        chosen = greedy_cover(sets, frozenset("abcd"))
        assert chosen == ["va", "vb"]

    def test_greedy_tag_when_the_search_has_no_nodes(self, monkeypatch):
        # 30 pairwise-incomparable chain sets {i, i+1} survive pruning; with
        # no search nodes the greedy bound is the answer, tagged greedy.
        sets = [(f"s{i:02d}", frozenset({i, i + 1})) for i in range(30)]
        universe = frozenset(range(31))
        assert min_cover(sets, universe) == ViewRequirement(16, "exact")  # every other link
        monkeypatch.setattr(solvability, "EXACT_SEARCH_NODES", 0)
        assert min_cover(sets, universe) == ViewRequirement(16, "greedy")

    @staticmethod
    def _given_as(sets_by_id, universe, kind):
        """The instance as frozensets, or as int masks with bit e for element e."""
        if kind == "frozenset":
            return sets_by_id, universe
        return [(set_id, sum(1 << e for e in s)) for set_id, s in sets_by_id], sum(
            1 << e for e in universe
        )

    @pytest.mark.parametrize("kind", ["frozenset", "mask"])
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_covering_set_among_more_than_the_exact_limit(self, seed, kind):
        rng = np.random.default_rng(seed)
        universe = frozenset(range(int(rng.integers(6, 40))))
        sets_by_id = [
            (f"s{i:02d}", frozenset(int(e) for e in universe if rng.random() < 0.3))
            for i in range(int(rng.integers(25, 40)))
        ]
        cover = universe | {100, 101}  # members outside the universe do not count
        sets_by_id.insert(int(rng.integers(len(sets_by_id) + 1)), ("s99", cover))
        assert brute_force_min_cover([s for _, s in sets_by_id], universe) == 1
        req = min_cover(*self._given_as(sets_by_id, universe, kind))
        assert req == ViewRequirement(1, "exact")

    @pytest.mark.parametrize("kind", ["frozenset", "mask"])
    @pytest.mark.parametrize("seed", [64, 65, 66])
    def test_uncoverable_universe_with_more_than_the_exact_limit(self, seed, kind):
        # Pairwise-incomparable chain links {i, i + 1} would all survive
        # pruning; the last element of the universe is in no set.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(25, 40))
        sets_by_id = [(f"s{i:02d}", frozenset({i, i + 1})) for i in rng.permutation(n).tolist()]
        universe = frozenset(range(n + 2))
        assert brute_force_min_cover([s for _, s in sets_by_id], universe) is None
        req = min_cover(*self._given_as(sets_by_id, universe, kind))
        assert req == ViewRequirement(None, "exact")

    def test_dominance_pruning_preserves_optimum(self):
        rng = np.random.default_rng(37)
        for _ in range(80):
            sets_by_id, universe = random_abstract_instance(rng, max_sets=9, max_elements=6)
            # Duplicate and nest a few sets so pruning has something to do.
            extra = [
                (f"dup{i}", members) for i, (_, members) in enumerate(sets_by_id[:2])
            ]
            padded = sets_by_id + extra
            expected = brute_force_min_cover([s for _, s in padded], universe)
            assert min_cover(padded, universe).n == expected


class TestMinViewCount:
    def test_single_view(self):
        objects = [make_object(1), make_object(2, center=(1.0, 0, 2.5))]
        views = [make_view("v1", (0.5, 0, 0))]
        assert min_view_count({1, 2}, views, objects) == ViewRequirement(1, "exact")

    def test_unsolvable(self):
        objects = [make_object(1), make_object(2, center=(500, 0, 2.5))]
        views = [make_view("v1")]
        req = min_view_count({1, 2}, views, objects)
        assert req.n is None

    def test_unknown_id(self):
        with pytest.raises(UnknownObjectId):
            min_view_count({42}, [make_view()], [make_object(1)])

    def test_empty_relevant_set(self):
        with pytest.raises(EmptyInput):
            min_view_count(set(), [make_view()], [make_object(1)])

    def test_fixture_counts(self, scene_a, scene_b):
        cases = [
            (scene_a, {1, 2}, 1),
            (scene_a, {3}, 1),
            (scene_a, {2, 7}, 2),
            (scene_a, {2, 7, 8}, 3),
            (scene_b, {1, 2, 3, 4, 5}, 5),
        ]
        for scene, ids, expected in cases:
            req = min_view_count(ids, scene.views, scene.objects)
            assert (req.n, req.solver) == (expected, "exact"), ids

    def test_matches_brute_force_on_geometric_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            views, objects = random_line_scene(
                rng, n_views=int(rng.integers(2, 9)), n_objects=int(rng.integers(2, 6))
            )
            ids = random_relevant_ids(rng, len(objects))
            witness_sets = [
                frozenset(
                    o.object_id for o in objects if o.object_id in ids and witnesses(v, o)
                )
                for v in views
            ]
            expected = brute_force_min_cover(witness_sets, ids)
            assert min_view_count(ids, views, objects).n == expected

    def test_single_view_solvability_equivalence(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            views, objects = random_line_scene(rng, 6, 4)
            ids = random_relevant_ids(rng, 4)
            req = min_view_count(ids, views, objects)
            relevant = [o.object_id in ids for o in objects]
            single = witness_matrix(objects, views)[:, relevant].all(axis=1).any()
            assert (req.n == 1) == single


def one_set_per_view(table: WitnessTable, ids) -> list[tuple[str, frozenset]]:
    """Every view's witness set over `ids`, one per view in table order; the
    columns of a repeated object id are OR-ed under that id."""
    return [
        (view_id, frozenset(oid for oid, hit in zip(table.objects.ids, row) if hit and oid in ids))
        for view_id, row in zip(table.views.ids, table.matrix.tolist())
    ]


def hand_table(rows: list[tuple[str, set[int]]], object_ids: list[int]) -> WitnessTable:
    """A table over the given view and object ids whose matrix is `rows`, one
    (view id, witnessed object ids) pair per view; the geometry is unused."""
    views, objects = random_posed_scene(np.random.default_rng(0), len(rows), len(object_ids))
    return WitnessTable(
        Views.of([View(view_id, v.intrinsics, v.pose) for (view_id, _), v in zip(rows, views)]),
        Objects.of([SceneObject(oid, o.label, o.box) for oid, o in zip(object_ids, objects)]),
        np.array([[oid in hits for oid in object_ids] for _, hits in rows], dtype=bool),
    )


def random_table(rng: np.random.Generator, n_views: int, object_ids: list[int]) -> WitnessTable:
    """A random table over the given object ids and shuffled, unpadded view
    ids (table order is not id order, and "v10" < "v9"); about a quarter of
    its rows are all empty."""
    matrix = rng.random((n_views, len(object_ids))) < rng.uniform(0.1, 0.6)
    matrix[rng.random(n_views) < 0.25] = False
    table = hand_table([(f"v{k}", set()) for k in rng.permutation(n_views)], object_ids)
    return WitnessTable(table.views, table.objects, matrix)


def decode(table: WitnessTable, call) -> tuple[list[tuple[str, set[int]]], set[int]]:
    """A (sets_by_id, universe) pair of int masks handed to min_cover, as
    object id sets read through the table's bit of each object id."""
    bit_of = table._masks[0]

    def ids_of(mask: int) -> set[int]:
        return {oid for oid, bit in bit_of.items() if mask & bit}

    sets_by_id, universe = call
    return [(view_id, ids_of(mask)) for view_id, mask in sets_by_id], ids_of(universe)


class TestDistinctWitnessRows:
    """WitnessTable.min_view_count hands min_cover one mask per distinct
    non-empty witness row; it must answer as one set per view does."""

    @pytest.fixture
    def min_cover_calls(self, monkeypatch):
        """Every (sets_by_id, universe) pair min_cover gets through its
        module name, after checking that the sets are int masks with no zero
        mask and no two equal masks."""
        calls = []

        def spy(sets_by_id, universe):
            masks = [mask for _, mask in sets_by_id]
            assert all(isinstance(mask, int) for mask in [*masks, universe]), sets_by_id
            assert all(masks) and len(set(masks)) == len(masks), sets_by_id
            calls.append((list(sets_by_id), universe))
            return min_cover(sets_by_id, universe)

        monkeypatch.setattr(solvability, "min_cover", spy)
        return calls

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_matches_one_set_per_view_on_posed_scenes(self, seed, min_cover_calls):
        rng = np.random.default_rng(seed)
        views, objects = random_posed_scene(rng, 16, 20)
        # Unpadded ids in shuffled order: table order is not id order ("v10" < "v2").
        order = rng.permutation(len(views))
        views = [View(f"v{k}", views[k].intrinsics, views[k].pose) for k in order]
        table = WitnessTable.build(objects, views, WitnessConfig())
        id_sets = [random_relevant_ids(rng, len(objects)) for _ in range(40)]
        solved = 0
        for ids in id_sets:
            reference = one_set_per_view(table, ids)
            req = table.min_view_count(ids)
            assert req == min_cover(reference, ids), ids
            if req.solver == "exact":
                distinct = list({members for _, members in reference if members})
                assert req.n == brute_force_min_cover(distinct, ids), ids
            solved += req.n is not None
        assert len(min_cover_calls) == len(id_sets)
        for ids, call in zip(id_sets, min_cover_calls):
            named: dict[frozenset, str] = {}
            for view_id, members in one_set_per_view(table, ids):
                if members and (members not in named or view_id < named[members]):
                    named[members] = view_id
            sets, universe = decode(table, call)
            assert universe == ids
            assert sorted(sets) == sorted((view_id, set(m)) for m, view_id in named.items())
        assert 0 < solved < len(id_sets)  # both outcomes occur

    def test_equal_rows_are_named_by_smallest_view_id(self, min_cover_calls):
        table = hand_table(
            [("v9", {1, 2}), ("v2", {1, 2, 5}), ("v10", {1, 2}), ("v3", set()), ("v1", {3})],
            [1, 2, 3, 5],
        )
        assert table.min_view_count({1, 2, 3}) == ViewRequirement(2, "exact")
        sets, universe = decode(table, min_cover_calls[0])
        assert sorted(sets) == [("v1", {3}), ("v10", {1, 2})]
        assert universe == {1, 2, 3}

    def test_greedy_tie_break_sees_the_smallest_id(self, min_cover_calls, monkeypatch):
        # {1, 2} (views v5 and v1), {2, 3} (v3) and {3, 4} (v4) tie at gain 2
        # with 30 chain links {i, i + 1}, so 33 sets survive pruning, and with
        # no search nodes greedy decides.  Taking {1, 2} first costs 2 + 16
        # sets; were it named v5, v3 would come first and cost 3 + 16.
        chain = [(f"z{i:02d}", {100 + i, 101 + i}) for i in range(30)]
        rows = [("v5", {1, 2}), ("v3", {2, 3}), ("v1", {1, 2}), ("v4", {3, 4}), *chain]
        object_ids = [1, 2, 3, 4, *range(100, 131)]
        table = hand_table(rows, object_ids)
        ids = frozenset(object_ids)
        misnamed = [(view_id, frozenset(m)) for view_id, m in rows if view_id != "v1"]
        assert table.min_view_count(ids) == min_cover(misnamed, ids) == ViewRequirement(18, "exact")
        monkeypatch.setattr(solvability, "EXACT_SEARCH_NODES", 0)
        req = table.min_view_count(ids)
        assert req == min_cover(one_set_per_view(table, ids), ids) == ViewRequirement(18, "greedy")
        sets, _ = decode(table, min_cover_calls[-1])
        assert len(sets) == len(rows) - 1 and ("v1", {1, 2}) in sets
        assert min_cover(misnamed, ids) == ViewRequirement(19, "greedy")

    def test_unsolvable_set_still_reaches_min_cover(self, min_cover_calls):
        table = hand_table([("v1", {1}), ("v2", {1}), ("v3", set())], [1, 2])
        assert table.min_view_count({1, 2}) == ViewRequirement(None, "exact")
        assert table.min_view_count({2}) == ViewRequirement(None, "exact")
        assert [decode(table, call) for call in min_cover_calls] == [
            ([("v1", {1})], {1, 2}),
            ([], {2}),
        ]

    def test_repeated_object_id_ors_its_columns(self, min_cover_calls):
        # Object id 7 names two columns; v00 and v01 each see one of them, so
        # both witness 7 and their rows collapse to one set.
        views, objects = random_posed_scene(np.random.default_rng(74), 3, 3)
        boxes = [o.box for o in objects]
        records = [SceneObject(7, "a", boxes[0]), SceneObject(8, "b", boxes[1]),
                   SceneObject(7, "c", boxes[2])]
        matrix = np.array([[True, False, False], [False, False, True], [False, True, False]])
        table = WitnessTable(Views.of(views), Objects.of(records), matrix)
        for ids in (frozenset({7}), frozenset({7, 8}), frozenset({8})):
            assert table.min_view_count(ids) == min_cover(one_set_per_view(table, ids), ids)
        assert decode(table, min_cover_calls[0]) == ([("v00", {7})], {7})
        assert table._masks[0] == {7: 1, 8: 2}  # one bit per distinct id
        built = WitnessTable.build(records, views, WitnessConfig())
        assert built.min_view_count({7, 8}) == min_cover(
            one_set_per_view(built, {7, 8}), frozenset({7, 8})
        )


class TestBitLayout:
    """Each table is packed once into int masks, one bit per distinct object
    id; the counts must not depend on where the bits fall: across the byte
    padding of packbits, across 64 bits, over repeated ids and empty rows."""

    @pytest.mark.parametrize("n_ids", [1, 7, 8, 9, 63, 64, 65, 130])
    def test_matches_one_set_per_view(self, n_ids):
        rng = np.random.default_rng(900 + n_ids)
        distinct = [int(x) for x in rng.choice(10 * n_ids, size=n_ids, replace=False)]
        repeated = [int(x) for x in rng.choice(distinct, size=n_ids // 4)]
        object_ids = [int(x) for x in rng.permutation(distinct + repeated)]
        table = random_table(rng, int(rng.integers(8, 17)), object_ids)
        table.matrix[:, np.array(object_ids) == distinct[0]] = False  # no view sees it
        assert sorted(table._masks[0].values()) == [1 << k for k in range(n_ids)]
        id_sets = [frozenset(distinct)] + [
            frozenset(distinct[i] for i in random_relevant_ids(rng, n_ids)) for _ in range(12)
        ]
        outcomes = set()
        for ids in id_sets:
            reference = one_set_per_view(table, ids)
            req = table.min_view_count(ids)
            assert req == min_cover(reference, ids), ids
            if req.solver == "exact":
                distinct_sets = list({members for _, members in reference if members})
                assert req.n == brute_force_min_cover(distinct_sets, ids), ids
            outcomes.add(req.n is None)
        assert outcomes == ({True} if n_ids == 1 else {True, False})

    def test_32_kept_rows_with_and_without_search_nodes(self, monkeypatch):
        # Rows {2i, 2i + 1, 2i + 2} over ids 0..64 are pairwise incomparable,
        # so all 32 are kept; each odd id is in one row only.
        rows = [(f"v{i}", {2 * i, 2 * i + 1, 2 * i + 2}) for i in range(32)]
        order = np.random.default_rng(77).permutation(len(rows))
        table = hand_table([rows[k] for k in order], list(range(65)))
        ids = frozenset(range(65))
        assert table.min_view_count(ids) == ViewRequirement(32, "exact")
        monkeypatch.setattr(solvability, "EXACT_SEARCH_NODES", 0)
        req = table.min_view_count(ids)
        assert req == min_cover(one_set_per_view(table, ids), ids) == ViewRequirement(32, "greedy")


@st.composite
def wide_instances(draw):
    """25 to 32 distinct sets of one size over 9 to 20 elements, jointly
    covering them: no set holds another, so all of them survive pruning.
    The sets come from a drawn seed, so a failure shrinks in a few steps."""
    n = draw(st.integers(9, 20))
    size = draw(st.integers(n // 3 + 1, n // 2))
    count = draw(st.integers(25, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets: dict[frozenset, None] = {}
    while len(sets) < count:
        sets[frozenset(rng.choice(n, size, replace=False).tolist())] = None
    universe = frozenset(range(n))
    assume(universe == frozenset().union(*sets))
    return [(f"s{i:02d}", s) for i, s in enumerate(sets)], universe


class TestSearchBudget:
    """Every count the settle pass leaves is searched, however many sets
    survive pruning; only a search that runs out of EXACT_SEARCH_NODES
    nodes is tagged greedy."""

    @settings(max_examples=50, deadline=None)
    @given(wide_instances())
    def test_more_than_24_kept_sets_match_brute_force(self, instance):
        sets_by_id, universe = instance
        expected = brute_force_min_cover([s for _, s in sets_by_id], universe)
        assert min_cover(sets_by_id, universe) == ViewRequirement(expected, "exact")

    def test_posed_scene_where_greedy_overshoots(self):
        rng = np.random.default_rng(6)
        views, objects = random_posed_scene(rng, 300, 30)
        table = WitnessTable.build(objects, views, WitnessConfig())
        overshoots = 0
        for _ in range(20):
            ids = random_relevant_ids(rng, 30, max_size=30)
            req = table.min_view_count(ids)
            reference = one_set_per_view(table, ids)
            if req.n is None or len(greedy_cover(reference, ids)) == req.n:
                continue
            distinct = list({members for _, members in reference if members})
            assert req == ViewRequirement(brute_force_min_cover(distinct, ids), "exact"), ids
            overshoots += 1
        assert overshoots == 7

    def test_a_search_of_k_nodes_is_exact_at_budget_k(self, monkeypatch):
        searches = []
        search = solvability._exact_cover_size

        def spy(masks, universe, upper_bound):
            searches.append((masks, universe, upper_bound))
            return search(masks, universe, upper_bound)

        monkeypatch.setattr(solvability, "_exact_cover_size", spy)
        rng = np.random.default_rng(41)
        searched = []
        for sets_by_id, universe in (random_abstract_instance(rng) for _ in range(60)):
            searches.clear()
            req = min_cover(sets_by_id, universe)
            if searches:  # (instance, optimum, nodes, greedy's count)
                searched.append((sets_by_id, universe, req.n, recursive_cover_nodes(*searches[0]), searches[0][2]))
        assert len(searched) > 20
        for sets_by_id, universe, optimum, k, greedy_n in searched:
            assert optimum == brute_force_min_cover([s for _, s in sets_by_id], universe)
            monkeypatch.setattr(solvability, "EXACT_SEARCH_NODES", k)
            assert min_cover(sets_by_id, universe) == ViewRequirement(optimum, "exact")
            monkeypatch.setattr(solvability, "EXACT_SEARCH_NODES", k - 1)
            short = min_cover(sets_by_id, universe)
            assert short.solver == "greedy" and optimum <= short.n <= greedy_n

    def test_a_search_deeper_than_the_recursion_limit(self):
        # 300 pairs {2i, 2i + 1} and one set of every even element: greedy
        # takes the even set first and needs 301 sets; the optimum, the 300
        # pairs, lies 300 nodes deep.
        sets = [(f"p{i:03d}", 0b11 << 2 * i) for i in range(300)]
        sets.append(("even", sum(1 << 2 * i for i in range(300))))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            req = min_cover(sets, (1 << 600) - 1)
        finally:
            sys.setrecursionlimit(limit)
        assert req == ViewRequirement(300, "exact")

    def test_readme_gives_the_node_budget(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        note = re.search(r"^- \*\*Minimum view counts\*\*.*?(?=^- \*\*)", readme, re.M | re.S)
        assert note is not None
        assert f"`EXACT_SEARCH_NODES = {solvability.EXACT_SEARCH_NODES}`" in note.group()


class TestViewRequirementBuckets:
    @pytest.mark.parametrize(
        "n,bucket",
        [(1, "1"), (2, "2"), (3, "3"), (4, "4+"), (7, "4+"), (None, "unsolvable")],
    )
    def test_bucket(self, n, bucket):
        assert ViewRequirement(n, "exact").bucket == bucket


class TestViewRequirementStats:
    def test_fixture_histogram(self, scenes, data_dir):
        from egoview.corpus import read_instructions

        instructions = read_instructions(data_dir / "instructions_solvability.jsonl")
        reqs = view_requirement_stats(instructions, scenes)
        assert [req.n for req in reqs] == [1, 1, 2, 3, 5]
        report = solvability_report(reqs, WitnessConfig(), 1)
        assert report["counts"] == {"1": 2, "2": 1, "3": 1, "4+": 1, "unsolvable": 0}
        assert report["percentages"] == {
            "1": 40.0,
            "2": 20.0,
            "3": 20.0,
            "4+": 20.0,
            "unsolvable": 0.0,
        }
        assert report["solver_mix"] == {"exact": 5, "greedy": 0}

    def test_empty_instruction_list(self, scenes):
        assert view_requirement_stats([], scenes) == []
        report = solvability_report([], WitnessConfig(), 1)
        assert report["total"] == 0
        assert all(count == 0 for count in report["counts"].values())
        assert all(value == 0.0 for value in report["percentages"].values())

    def test_unknown_scene(self, scenes):
        class FakeInstruction:
            instruction_id = "i1"
            scene_id = "missing"
            related_object_ids = frozenset({1})

        with pytest.raises(UnknownScene):
            view_requirement_stats([FakeInstruction()], scenes)

    def test_equals_per_instruction_min_view_count(self):
        rng = np.random.default_rng(53)
        views, objects = random_posed_scene(rng, 20, 30)
        scene = SimpleNamespace(views=views, objects=objects)
        instructions = [
            SimpleNamespace(
                instruction_id=f"i{k}",
                scene_id="s",
                related_object_ids=random_relevant_ids(rng, 30, 3),
            )
            for k in range(12)
        ]
        reqs = view_requirement_stats(instructions, {"s": scene})
        assert len(set().union(*(i.related_object_ids for i in instructions))) < len(objects)
        assert reqs == [min_view_count(i.related_object_ids, views, objects) for i in instructions]

    @pytest.mark.parametrize(
        "order,error",
        [
            (("unknown-object", "unknown-scene"), UnknownObjectId),
            (("unknown-scene", "unknown-object"), UnknownScene),
            (("ok", "empty", "unknown-scene"), UnknownObjectId),
        ],
    )
    def test_first_offending_instruction_raises(self, scenes, order, error):
        make = {
            name: SimpleNamespace(instruction_id=name, scene_id=scene_id, related_object_ids=ids)
            for name, scene_id, ids in [
                ("ok", "scene-a", frozenset({1})),
                ("unknown-object", "scene-a", {1, 99}),
                ("unknown-scene", "missing", {1}),
                ("empty", "scene-a", frozenset()),
            ]
        }
        first = next(name for name in order if name != "ok")
        with pytest.raises(error, match=f"^instruction {first!r}: "):
            view_requirement_stats([make[name] for name in order], scenes)

    def test_stride_subsamples_views(self, scenes, data_dir):
        from egoview.corpus import read_instructions

        instructions = read_instructions(data_dir / "instructions_solvability.jsonl")
        # Stride 4 keeps v01/v05/v09 of scene-a and w01/w05 of scene-b, so
        # every instruction except the desk-and-chair one becomes unsolvable.
        reqs = view_requirement_stats(instructions, scenes, stride=4)
        report = solvability_report(reqs, WitnessConfig(), 4)
        assert report["stride"] == 4
        assert report["counts"]["1"] == 1
        assert report["counts"]["unsolvable"] == 4
        assert report["total"] == 5


class TestSolvabilityReport:
    @staticmethod
    def _reqs(counts):
        return [ViewRequirement(n, "exact") for n in counts]

    def test_percentages(self):
        report = solvability_report(self._reqs([1, 1, 2, 3, 5]), WitnessConfig(), 1)
        assert report["percentages"] == {
            "1": 40.0,
            "2": 20.0,
            "3": 20.0,
            "4+": 20.0,
            "unsolvable": 0.0,
        }
        assert report["config"]["iosa_threshold"] == 0.5
        assert report["total_zero"] is False

    @given(
        reqs=st.lists(
            st.builds(
                ViewRequirement, st.none() | st.integers(1, 9), st.sampled_from(["exact", "greedy"])
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_tally_sums_to_the_total(self, reqs):
        report = solvability_report(reqs, WitnessConfig(), 1)
        assert report["total"] == len(reqs)
        assert sum(report["counts"].values()) == report["total"]
        assert sum(report["solver_mix"].values()) == report["total"]
        for bucket, count in report["counts"].items():
            assert count == sum(req.bucket == bucket for req in reqs)
            assert report["percentages"][bucket] == percent(count, report["total"])

    def test_zero_histogram_flagged(self):
        report = solvability_report([], WitnessConfig(), 1)
        assert report["total_zero"] is True
        assert all(v == 0.0 for v in report["percentages"].values())

    def test_format_is_printable(self):
        reqs = self._reqs([1, 1, 2, 3, 5])
        text = format_solvability_report(solvability_report(reqs, WitnessConfig(), 1))
        assert "40.0%" in text
        assert "view stride: 1" in text
