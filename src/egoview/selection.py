"""View selection and filtering: per-instruction best views and the
view-dependent object visibility filter."""

from __future__ import annotations

from itertools import compress
from typing import Sequence

import numpy as np

from . import geometry
from ._util import check_unit_interval
from .errors import NoneVisible, NoViews, UnknownObjectId
from .scene import Objects, SceneObject, View, Views
from .solvability import WitnessConfig, WitnessTable


def alignment(tau: float) -> WitnessConfig:
    """The alignment filter: the witness predicate at IoSA > tau with no
    minimum-area rule, a bare overlap test against the image rectangle."""
    return WitnessConfig(iosa_threshold=check_unit_interval("tau", tau), min_area_ratio=0.0)


def image_refs(views: Views) -> list[str]:
    """The image reference each view of a table is known by in service
    calls: its image path, else its view id."""
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
    score wins, ties broken by smaller view_id.  Scores are finite (the
    stub's are overlaps, the remote client rejects the rest), so the top
    is one `max`, and the pick is the smallest id among the views that
    reach it.  Returns (view_id, score) per text, in input order.
    """
    distinct = list(dict.fromkeys(texts))
    if not distinct:
        return []
    if not len(views):
        raise NoViews("select_view_for_qa requires at least one view")
    views = Views.of(views)
    columns = zip(*(scorer.score_image_text(ref, distinct) for ref in image_refs(views)))
    best = {}
    for text, column in zip(distinct, columns):
        top = max(column)
        best[text] = (min(compress(views.ids, [score == top for score in column])), top)
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
    views: Views,
    objects: Objects,
    overlap: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> list[tuple[str, float] | None]:
    """The view that best captures each target object, by overlap with the image.

    The picks are read from `overlap`, `geometry.image_overlap` of the whole
    `objects` table in the `views` table; nothing is projected.  Ties on
    overlap break toward the larger projected rectangle (the closer view),
    then the smaller view_id.  Only views where the target's IoSA is above
    0 are candidates, so no pair `image_overlap` drops is one.  Returns
    (view_id, score) per target, in input order, and None for a target that
    overlaps no view's image.  The first unknown target id raises
    UnknownObjectId.
    """
    row_of = {object_id: j for j, object_id in enumerate(objects.ids)}
    distinct = list(dict.fromkeys(target_object_ids))
    for target in distinct:
        if target not in row_of:
            raise UnknownObjectId(f"unknown target object id {target}")
    if not distinct:
        return []
    pairs, scores, areas = overlap
    view, box = np.divmod(pairs, len(objects))
    take = (scores > 0.0) & np.isin(box, [row_of[target] for target in distinct])
    best = {}  # per box row, the least (-score, -area, view_id)
    for v, j, score, area in zip(*(a[take].tolist() for a in (view, box, scores, areas))):
        key = (-score, -area, views.ids[v])
        if j not in best or key < best[j]:
            best[j] = key
    picks = {row: (key[2], -key[0]) for row, key in best.items()}
    return [picks.get(row_of[target]) for target in target_object_ids]


def select_view_for_dc(
    target_object_id: int,
    views: Views | Sequence[View],
    objects: Objects | Sequence[SceneObject],
) -> tuple[str, float]:
    """`select_views_for_dc` for one target, projecting for this call: (view_id,
    score) of its best view.  Raises NoneVisible when it overlaps no view's image."""
    views, objects = Views.of(views), Objects.of(objects)
    overlap = geometry.image_overlap(objects.corners, views)
    (best,) = select_views_for_dc([target_object_id], views, objects, overlap)
    if best is None:
        raise NoneVisible(f"object {target_object_id} overlaps no view's image")
    return best
