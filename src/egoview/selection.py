"""View selection and filtering: per-instruction best views, caption filtering,
the view-dependent object visibility filter, and diverse-view picking for
2x2 grids."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from . import geometry
from .errors import NoneVisible, NoViews, TooManyViews, UnknownObjectId
from .solvability import Objects, SceneObject, View, Views, WitnessConfig, WitnessTable


def alignment(tau: float) -> WitnessConfig:
    """The alignment filter: the witness predicate at IoSA > tau with no
    minimum-area rule, a bare overlap test against the image rectangle."""
    if not (0.0 < tau < 1.0):
        raise ValueError("tau must be in (0, 1)")
    return WitnessConfig(iosa_threshold=tau, min_area_ratio=0.0)


@dataclass(frozen=True)
class DiversityConfig:
    """Pose-based view diversity: translation distance plus weighted rotation angle."""

    k: int = 4
    lambda_rot: float = 1.0
    min_separation: float = 0.3

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.lambda_rot < 0 or self.min_separation < 0:
            raise ValueError("weights must be >= 0")


@dataclass(frozen=True)
class GridCell:
    view_id: str
    image_path: str | None


@dataclass(frozen=True)
class GridManifest:
    """Row-major placement of selected views into a grid; no pixels touched."""

    view_ids: tuple[str, ...]
    rows: int
    cols: int
    cells: tuple[tuple[GridCell | None, ...], ...]


@dataclass(frozen=True)
class DiverseSelection:
    """Selected view ids in pick order; short_selection marks early exhaustion."""

    view_ids: tuple[str, ...]
    short_selection: bool


def image_ref(view: View) -> str:
    """Image reference used in service calls: the image path, else the view id."""
    return view.image_path or view.view_id


def image_refs(views: Views) -> list[str]:
    """`image_ref` of each view in a table."""
    return [path or view_id for view_id, path in zip(views.ids, views.image_paths)]


def visible_objects(
    view: View, objects: Objects | Sequence[SceneObject], tau: float = 0.5
) -> set[int]:
    """Ids of objects whose projected box overlaps the image with IoSA > tau."""
    table = WitnessTable.build(objects, [view], alignment(tau))
    return set(compress(table.objects.ids, table.matrix[0].tolist()))


def select_views_for_qa(
    texts: Sequence[str],
    views: Views | Sequence[View],
    scorer,
) -> list[tuple[str, float]]:
    """The view most semantically similar to each text, via the scoring client.

    Each view gets one `score_image_text` call carrying every distinct text,
    so the client must score each text independently of the others in the
    call.  Each text's column of scores is reduced canonically: highest
    score wins, ties broken by smaller view_id.  Returns (view_id, score)
    per text, in input order.
    """
    distinct = list(dict.fromkeys(texts))
    if not distinct:
        return []
    if not len(views):
        raise NoViews("select_view_for_qa requires at least one view")
    views = Views.of(views)
    columns = zip(*(scorer.score_image_text(ref, distinct).scores for ref in image_refs(views)))
    best = {
        text: min(zip(views.ids, column), key=lambda kv: (-kv[1], kv[0]))
        for text, column in zip(distinct, columns)
    }
    return [best[text] for text in texts]


def select_view_for_qa(
    question_text: str,
    views: Views | Sequence[View],
    scorer,
) -> tuple[str, float]:
    """`select_views_for_qa` for one text: (view_id, score) of its best view."""
    return select_views_for_qa([question_text], views, scorer)[0]


def select_views_for_dc(
    target_object_ids: Sequence[int],
    views: Views | Sequence[View],
    objects: Objects | Sequence[SceneObject],
) -> list[tuple[str, float] | None]:
    """The view that best captures each target object, by overlap with the image.

    One `project_boxes` call covers every distinct target.  Ties on overlap
    break toward the larger projected rectangle (the closer view), then the
    smaller view_id.  Returns (view_id, score) per target, in input order,
    and None for a target that projects into no view.  The first unknown
    target id raises UnknownObjectId.
    """
    objects = Objects.of(objects)
    row_of = {object_id: j for j, object_id in enumerate(objects.ids)}
    distinct = list(dict.fromkeys(target_object_ids))
    for target in distinct:
        if target not in row_of:
            raise UnknownObjectId(f"unknown target object id {target}")
    if not distinct:
        return []
    views = Views.of(views)
    corners = objects.corners[[row_of[target] for target in distinct]]
    rects, visible = geometry.project_boxes(corners, views)
    scores = geometry.iosa_rects(rects, geometry.image_rects(views)[:, None]).T.tolist()
    areas = geometry.rect_area(rects).T.tolist()
    best = {}
    for target, row_scores, row_areas, row_visible in zip(
        distinct, scores, areas, visible.T.tolist()
    ):
        candidates = list(compress(zip(views.ids, row_scores, row_areas), row_visible))
        best[target] = (
            min(candidates, key=lambda c: (-c[1], -c[2], c[0]))[:2] if candidates else None
        )
    return [best[target] for target in target_object_ids]


def select_view_for_dc(
    target_object_id: int,
    views: Views | Sequence[View],
    objects: Objects | Sequence[SceneObject],
) -> tuple[str, float]:
    """`select_views_for_dc` for one target: (view_id, score) of its best
    view.  Raises NoneVisible when the target projects into no view."""
    (best,) = select_views_for_dc([target_object_id], views, objects)
    if best is None:
        raise NoneVisible(f"object {target_object_id} projects into no view")
    return best


def filter_captions(
    view: View,
    captions: Sequence[str],
    scorer,
    threshold: float,
) -> list[tuple[str, float]]:
    """Keep captions scoring >= threshold against the view, preserving order."""
    if not captions:
        return []
    scores = scorer.score_image_text(image_ref(view), list(captions)).scores
    return [
        (caption, score)
        for caption, score in zip(captions, scores)
        if score >= threshold
    ]


def pose_distance(a: View, b: View, lambda_rot: float = 1.0) -> float:
    """Translation distance plus lambda_rot times the rotation geodesic angle."""
    dt = float(np.linalg.norm(a.pose.translation - b.pose.translation))
    cos_angle = (np.trace(a.pose.rotation.T @ b.pose.rotation) - 1.0) / 2.0
    angle = math.acos(min(1.0, max(-1.0, cos_angle)))
    return dt + lambda_rot * angle


def select_diverse_views(
    views: Sequence[View],
    cfg: DiversityConfig = DiversityConfig(),
) -> DiverseSelection:
    """Greedy farthest-point pick of up to k pose-diverse views.

    Seeded at the lexicographically smallest view_id; each step adds the
    candidate maximizing its minimum pose distance to the already-selected
    views (ties toward the smaller view_id).  Candidates closer than
    min_separation to any selected view are skipped, so the result's
    pairwise distances are all >= min_separation.
    """
    if not views:
        raise NoViews("select_diverse_views requires at least one view")
    by_id = {view.view_id: view for view in views}
    seed_id = min(by_id)
    selected = [seed_id]
    remaining = sorted(vid for vid in by_id if vid != seed_id)
    while len(selected) < cfg.k and remaining:
        best_id, best_dist = None, -1.0
        for vid in remaining:
            dists = [
                pose_distance(by_id[vid], by_id[sid], cfg.lambda_rot) for sid in selected
            ]
            nearest = min(dists)
            if nearest < cfg.min_separation:
                continue
            if nearest > best_dist:
                best_id, best_dist = vid, nearest
        if best_id is None:
            break
        selected.append(best_id)
        remaining.remove(best_id)
    return DiverseSelection(
        view_ids=tuple(selected), short_selection=len(selected) < cfg.k
    )


def build_grid_manifest(views: Sequence[View]) -> GridManifest:
    """Place up to four views row-major into a 2x2 grid manifest."""
    if not views:
        raise NoViews("build_grid_manifest requires at least one view")
    if len(views) > 4:
        raise TooManyViews(f"grid holds at most 4 views, got {len(views)}")
    ids = [view.view_id for view in views]
    if len(set(ids)) != len(ids):
        raise ValueError("grid views must be distinct")
    slots: list[GridCell | None] = [None] * 4
    for i, view in enumerate(views):
        slots[i] = GridCell(view_id=view.view_id, image_path=view.image_path)
    return GridManifest(
        view_ids=tuple(ids),
        rows=2,
        cols=2,
        cells=(tuple(slots[0:2]), tuple(slots[2:4])),
    )
