"""Witness predicates, minimum-view analysis and the view-requirement report
for egocentric view sets.

An object is "witnessed" by a view when its projected 3D box overlaps the
image rectangle with intersection-over-smaller-area above a threshold and the
projection is not impractically small.  An instruction is "solvable" under a
view set when every referenced object is witnessed by at least one view in
the set; the minimum number of views needed is a set-cover optimum over the
per-view witness sets.  A witness table of a scene's `Objects` and `Views`
(see `scene`) packs its rows once into Python-int bitmasks, one bit per
object id, and every count stays on those ints down through the solver's
pruning, greedy bound and exact search.  The search is budgeted by nodes: a
count whose search runs out is the best cover found, tagged 'greedy'.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import geometry
from ._util import check_stride, percent
from .errors import EmptyInput, UnknownObjectId, UnknownScene
from .records import BUCKETS, bucket_counts, view_bucket
from .scene import Objects, SceneObject, View, Views

# The exact search stops after this many nodes, keeping the best cover found;
# a count, not a time, so the tag is the same on every machine.
EXACT_SEARCH_NODES = 20000
_Sets = Sequence[tuple[str, "frozenset | int"]]  # (id, members) pairs


@dataclass(frozen=True)
class WitnessConfig:
    """Thresholds for the witness predicate.

    iosa_threshold is strict: overlap must exceed it.  min_area_ratio
    disregards projections smaller than that fraction of the image area,
    which the bare overlap ratio would otherwise count as fully visible.
    """

    iosa_threshold: float = 0.5
    min_area_ratio: float = 0.005

    def __post_init__(self):
        if not (0.0 < self.iosa_threshold < 1.0):
            raise ValueError("iosa_threshold must be in (0, 1)")
        if not (0.0 <= self.min_area_ratio < 1.0):
            raise ValueError("min_area_ratio must be in [0, 1)")


@dataclass(frozen=True)
class ViewRequirement:
    """Minimum-view result: n is None when unsolvable; solver is 'exact', or
    'greedy' when the search ran out of nodes and n is the best cover found."""

    n: int | None
    solver: str

    @property
    def bucket(self) -> str:
        return view_bucket(self.n)


def witnesses(view: View, obj: SceneObject, cfg: WitnessConfig = WitnessConfig()) -> bool:
    """True when the object is sufficiently visible in the view.

    Requires a finite projection, projected area at least
    min_area_ratio * image area, and overlap with the image rectangle
    strictly above iosa_threshold.  Geometry failures count as not witnessed.
    """
    return bool(witness_matrix([obj], [view], cfg)[0, 0])


def witness_matrix(
    scene_objects: Objects | Sequence[SceneObject],
    views: Views | Sequence[View],
    cfg: WitnessConfig = WitnessConfig(),
) -> np.ndarray:
    """Boolean matrix of shape (n_views, n_objects): entry (i, j) is witnesses(views[i], objects[j])."""
    if not len(scene_objects) or not len(views):
        raise EmptyInput("witness_matrix requires at least one view and one object")
    return geometry.image_visibility(
        Objects.of(scene_objects).corners, Views.of(views), cfg.iosa_threshold, cfg.min_area_ratio
    )


def _check_known(relevant_ids: Iterable[int], known_ids: Iterable[int]) -> frozenset[int]:
    ids = frozenset(relevant_ids)
    missing = ids.difference(known_ids)
    if missing:
        raise UnknownObjectId(f"unknown object ids: {sorted(missing)}")
    if not ids:
        raise EmptyInput("relevant object set is empty")
    return ids


def _among(objects: Objects, ids: Iterable[int]) -> Objects:
    """The rows of `objects` whose id is in `ids`, in table order."""
    ids = set(ids)
    return objects[np.array([oid in ids for oid in objects.ids], dtype=bool)]


def referenced_objects(
    records: Iterable, scenes_by_id: Mapping[str, object], kind: str
) -> dict[str, Objects]:
    """Per scene id, the rows of that scene's objects that `records`
    reference, in table order.  Records carry `<kind>_id`, `scene_id` and
    `related_object_ids`; scenes carry `objects`, as a table or a list of
    records.  The first record whose scene is not loaded raises
    UnknownScene, and whose ids are empty or not all in its scene
    UnknownObjectId, naming the record by its `<kind>_id`."""
    objects: dict[str, Objects] = {}
    known: dict[str, set[int]] = {}
    referenced: dict[str, set[int]] = {}

    def named(record, reason: str) -> str:  # built only for an error
        return f"{kind} {getattr(record, f'{kind}_id')!r}: {reason}"

    for record in records:
        scene = scenes_by_id.get(record.scene_id)
        if scene is None:
            raise UnknownScene(named(record, f"scene {record.scene_id!r} is not loaded"))
        if not record.related_object_ids:
            raise UnknownObjectId(named(record, "references no object"))
        if record.scene_id not in known:
            objects[record.scene_id] = Objects.of(scene.objects)
            known[record.scene_id] = set(objects[record.scene_id].ids)
            referenced[record.scene_id] = set()
        try:
            ids = _check_known(record.related_object_ids, known[record.scene_id])
        except UnknownObjectId as exc:
            raise UnknownObjectId(named(record, str(exc))) from None
        referenced[record.scene_id] |= ids
    return {scene_id: _among(objects[scene_id], ids) for scene_id, ids in referenced.items()}


def _as_masks(sets_by_id: _Sets, universe: frozenset | int) -> tuple[_Sets, int]:
    """The sets and universe as int bitmasks: as given when `universe` is an
    int, else one bit per universe element, dropping members outside it."""
    if isinstance(universe, int):
        return sets_by_id, universe
    bit_of = {element: 1 << i for i, element in enumerate(universe)}
    masks = [(set_id, sum(bit_of.get(e, 0) for e in members)) for set_id, members in sets_by_id]
    return masks, (1 << len(bit_of)) - 1


def _bits(mask: int):
    """The set bits of `mask`, lowest first, each as an int of that one bit."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def greedy_cover(sets_by_id: _Sets, universe: frozenset | int) -> list[str]:
    """Greedy max-coverage: repeatedly take the set covering the most uncovered
    elements, breaking ties by lexicographically smallest id.  Sets and
    universe are frozensets or int bitmasks; the sets must cover the universe."""
    sets_by_id, remaining = _as_masks(sets_by_id, universe)
    chosen: list[str] = []
    ordered = sorted(sets_by_id, key=lambda kv: kv[0])
    while remaining:
        # The first of the largest gains: ties go to the smallest id.
        best_id, best = max(ordered, key=lambda kv: (kv[1] & remaining).bit_count(), default=("", 0))
        if not best & remaining:
            raise ValueError("sets do not cover the universe")
        chosen.append(best_id)
        remaining &= ~best
    return chosen


def _exact_cover_size(masks: Sequence[int], universe: int, upper_bound: int) -> tuple[int, bool]:
    """Minimum number of masks whose union covers `universe`, by branch and
    bound below upper_bound (a known feasible size), depth first from a stack
    so no recursion limit applies; and whether it ended within
    EXACT_SEARCH_NODES nodes.  If not, the size is the best cover found.
    The masks must jointly cover the universe."""
    element_bits = list(_bits(universe))
    masks_for = {bit: [m for m in masks if m & bit] for bit in element_bits}
    best = upper_bound
    stack = [(0, 0)]  # (covered, used) of the nodes still to visit
    budget = EXACT_SEARCH_NODES
    while stack and budget:
        budget -= 1
        covered, used = stack.pop()
        if covered == universe:
            best = min(best, used)
            continue
        remaining = universe & ~covered
        max_gain = max((m & remaining).bit_count() for m in masks)
        if used + math.ceil(remaining.bit_count() / max_gain) >= best:
            continue
        # Branch on the rarest uncovered element: smallest fan-out first.
        bit = min((b for b in element_bits if remaining & b), key=lambda b: len(masks_for[b]))
        children = sorted(masks_for[bit], key=lambda m: (m & remaining).bit_count(), reverse=True)
        stack.extend((covered | m, used + 1) for m in reversed(children))
    return best, not stack


def min_cover(sets_by_id: _Sets, universe: frozenset | int) -> ViewRequirement:
    """Minimum number of sets needed to cover the universe.

    Sets and universe are frozensets, turned into int bitmasks first, or
    int bitmasks.  One pass over the sets settles the easy counts: a set
    that covers the universe alone answers 1, and a union that falls short
    of the universe answers unsolvable (n None), both tagged 'exact'.  Only
    the counts left go on: dominated sets (subsets of another candidate)
    are pruned, which never changes the optimum; greedy max-coverage gives
    the first upper bound, and branch and bound searches below it.  A search
    that ends within EXACT_SEARCH_NODES nodes is tagged 'exact'; one that
    runs out answers the best cover found, tagged 'greedy'.
    """
    if not universe:
        raise EmptyInput("universe is empty")
    sets_by_id, universe = _as_masks(sets_by_id, universe)
    union = 0
    for _, mask in sets_by_id:
        if not universe & ~mask:
            return ViewRequirement(1, "exact")
        union |= mask
    if universe & ~union:
        return ViewRequirement(None, "exact")
    # Dominance pruning: keep a set only if no kept set is a strict superset
    # (equal sets keep the lexicographically smallest id).  What is pruned
    # lies inside what is kept, so the kept sets still cover the universe;
    # an empty set sorts last and lies inside the first kept one.
    trimmed = [(set_id, mask & universe) for set_id, mask in sets_by_id]
    trimmed.sort(key=lambda kv: (-kv[1].bit_count(), kv[0]))
    kept: list[tuple[str, int]] = []
    for set_id, mask in trimmed:
        if all(mask & ~other for _, other in kept):
            kept.append((set_id, mask))
    greedy_n = len(greedy_cover(kept, universe))
    n, finished = _exact_cover_size([mask for _, mask in kept], universe, upper_bound=greedy_n)
    return ViewRequirement(n, "exact" if finished else "greedy")


@dataclass(frozen=True, eq=False)
class WitnessTable:
    """witness_matrix of views over objects, kept to answer the minimum view
    count of many sets of those objects without projecting again."""

    views: Views
    objects: Objects
    matrix: np.ndarray

    @classmethod
    def build(
        cls,
        objects: Objects | Sequence[SceneObject],
        views: Views | Sequence[View],
        cfg: WitnessConfig,
    ):
        """The table of views x objects; all False when either is empty."""
        objects, views = Objects.of(objects), Views.of(views)
        if len(objects) and len(views):
            return cls(views, objects, witness_matrix(objects, views, cfg))
        return cls(views, objects, np.zeros((len(views), len(objects)), bool))

    @cached_property
    def _masks(self) -> tuple[dict[int, int], list[tuple[str, int]], dict[int, int]]:
        """The bit of each object id (a repeated id ORs its columns into one);
        the distinct non-empty rows as masks, each named by the smallest view
        id that has it, in order of that name; and per object id, the mask
        over those rows of the ones that see it."""
        columns_of: dict[int, list[int]] = {}
        for j, oid in enumerate(self.objects.ids):
            columns_of.setdefault(oid, []).append(j)
        order = [j for columns in columns_of.values() for j in columns]
        starts = np.cumsum([0, *map(len, columns_of.values())])[:-1]
        by_id = np.logical_or.reduceat(self.matrix[:, order], starts, axis=1)
        packed = np.packbits(by_id, axis=1, bitorder="little")
        width, data = packed.shape[1], packed.tobytes()
        first: dict[int, int] = {}  # row mask -> index of its smallest-named view
        for i in sorted(np.flatnonzero(by_id.any(axis=1)).tolist(), key=self.views.ids.__getitem__):
            first.setdefault(int.from_bytes(data[i * width:(i + 1) * width], "little"), i)
        seen_by = np.packbits(by_id[list(first.values())].T, axis=1, bitorder="little")
        return (
            {oid: 1 << k for k, oid in enumerate(columns_of)},
            [(self.views.ids[i], row) for row, i in first.items()],
            {oid: int.from_bytes(rows.tobytes(), "little") for oid, rows in zip(columns_of, seen_by)},
        )

    def min_view_count(self, relevant_object_ids: Iterable[int]) -> ViewRequirement:
        """Smallest number of the views that jointly witness all relevant objects.

        min_cover gets one mask per distinct non-empty row over the ids, named
        by the smallest id of the views that share it.  Its dominance pruning
        keeps only that id among equal sets, so this answers as one set per
        view would."""
        bit_of, rows, rows_of = self._masks
        ids = _check_known(relevant_object_ids, bit_of)
        universe = candidates = 0
        for oid in ids:
            universe |= bit_of[oid]
            candidates |= rows_of[oid]
        named: dict[int, str] = {}
        for low in _bits(candidates):  # rows in order of their names
            view_id, row = rows[low.bit_length() - 1]
            named.setdefault(row & universe, view_id)
        return min_cover([(view_id, mask) for mask, view_id in named.items()], universe)


def min_view_count(
    relevant_object_ids: Iterable[int],
    views: Views | Sequence[View],
    scene_objects: Objects | Sequence[SceneObject],
    cfg: WitnessConfig = WitnessConfig(),
) -> ViewRequirement:
    """Smallest number of views that jointly witness all relevant objects."""
    objects = Objects.of(scene_objects)
    ids = _check_known(relevant_object_ids, objects.ids)
    return WitnessTable.build(_among(objects, ids), views, cfg).min_view_count(ids)


def witness_tables(
    records: Iterable, scenes_by_id: Mapping, kind: str, cfg: WitnessConfig, stride: int = 1
) -> dict[str, WitnessTable]:
    """Per scene id, the witness table of that scene's every stride-th view
    (first always included) over the objects `records` reference (see
    `referenced_objects`), one per scene, for this call only."""
    check_stride(stride)
    return {
        scene_id: WitnessTable.build(objects, Views.of(scenes_by_id[scene_id].views)[::stride], cfg)
        for scene_id, objects in referenced_objects(records, scenes_by_id, kind).items()
    }


def solvability_report(reqs: Sequence[ViewRequirement], cfg: WitnessConfig, stride: int) -> dict:
    """Structured view-requirement report of `reqs`: counts and percentages
    per bucket, solver mix, stride and config."""
    counts = bucket_counts(req.bucket for req in reqs)
    return {
        "record": "solvability_report",
        "total": len(reqs),
        "counts": counts,
        "percentages": {bucket: percent(n, len(reqs)) for bucket, n in counts.items()},
        "solver_mix": bucket_counts((req.solver for req in reqs), ("exact", "greedy")),
        "stride": stride,
        "config": asdict(cfg),
        "total_zero": not reqs,
    }


def format_solvability_report(report: Mapping) -> str:
    """Human-readable table for terminal output."""
    lines = [
        f"instructions: {report['total']}"
        + ("  (empty input)" if report.get("total_zero") else ""),
        "views needed   count   share",
    ]
    for bucket in BUCKETS:
        lines.append(
            f"{bucket:>11}   {report['counts'][bucket]:>5}   {report['percentages'][bucket]:>5.1f}%"
        )
    mix = report["solver_mix"]
    lines.append(f"solved exactly: {mix.get('exact', 0)}, greedily: {mix.get('greedy', 0)}")
    lines.append(f"view stride: {report['stride']}")
    return "\n".join(lines)


def view_requirement_stats(
    instructions: Sequence,
    scenes_by_id: Mapping[str, object],
    cfg: WitnessConfig = WitnessConfig(),
    stride: int = 1,
) -> list[ViewRequirement]:
    """The minimum view count of each instruction, in input order; its
    `bucket` is one of {1, 2, 3, 4+, unsolvable} (see `solvability_report`).

    Instructions must carry `instruction_id`, `scene_id` and
    `related_object_ids`; scenes must carry `views` and `objects`, as tables
    or lists of records.  Candidate views are subsampled with `stride`
    (every stride-th view, first always included).  Each scene's witness
    table is computed once, over the objects its instructions reference,
    and shared by its instructions.
    """
    tables = witness_tables(instructions, scenes_by_id, "instruction", cfg, stride)
    return [tables[ins.scene_id].min_view_count(ins.related_object_ids) for ins in instructions]
