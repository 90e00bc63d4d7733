"""Instructions and the triplet corpus: the instruction and triplet record
declarations, and the builders of <2D view, set of 3D objects, text>
triplets from the scenes `scene` loads.  `records`, which needs no numpy,
reads and writes these files from those declarations, so identical inputs
give byte-identical outputs.  The triplet builders import `selection` when
they run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import geometry
from ._util import check_stride, finite_number
from .errors import DuplicateId, NoViews, UnknownObjectId, UnknownScene
from .records import _claim_id, check_rules, dc_target, non_empty, one_of, qa_answer
from .records import read_records, record_field
from .scene import Objects, Scene, Views

# perfbench/probe.py, tracer.py and test_perfbench.py read these here.
from .records import write_jsonl  # noqa: F401
from .scene import load_scene, load_scenes_dir  # noqa: F401

logger = logging.getLogger(__name__)


@dataclass(eq=False)
class Instruction:
    """A task record: question answering, dense captioning, or captioning."""

    instruction_id: str = record_field("text")
    scene_id: str = record_field("text")
    task: str = record_field("text", one_of(("qa", "dc", "caption")))
    text: str = record_field("text", non_empty)
    answer: str | None = record_field("text or null", qa_answer, default=None)
    related_object_ids: frozenset[int] = record_field("integer list", default=frozenset())
    target_object_id: int | None = record_field("integer or null", dc_target, default=None)

    def __post_init__(self):
        self.related_object_ids = frozenset(self.related_object_ids)
        check_rules(self)


@dataclass(frozen=True)
class TripletProvenance:
    config_hash: str = record_field("text", default="")
    retrieval_score: float | None = record_field("finite number or null", default=None)
    parent_instruction_id: str | None = record_field("text or null", default=None)


@dataclass(eq=False)
class TripletRecord:
    """One <2D view, set of 3D objects, text> alignment record."""

    triplet_id: str = record_field("text")
    scene_id: str = record_field("text")
    view_id: str = record_field("text")
    object_ids: frozenset[int] = record_field("integer list")
    text: str = record_field("text", non_empty)
    source: str = record_field("text", one_of(("generated_caption", "extended_qa", "extended_dc")))
    provenance: TripletProvenance = record_field(TripletProvenance, default=TripletProvenance())

    def __post_init__(self):
        self.object_ids = frozenset(self.object_ids)
        check_rules(self)


@dataclass(frozen=True)
class CaptionBuildConfig:
    """Caption-strategy knobs: view stride, captions per view, keep threshold,
    and the visibility threshold for the aligned object set."""

    stride: int = 20
    num_captions: int = 3
    threshold: float = 0.5
    tau: float = 0.5

    def __post_init__(self):
        check_stride(self.stride)
        if self.num_captions < 1:
            raise ValueError("num_captions must be >= 1")
        if not finite_number(self.threshold):  # NaN would keep every caption
            raise ValueError(f"threshold must be a finite number, got {self.threshold!r}")


def read_instructions(path: str | Path) -> list[Instruction]:
    """Read the instruction lines of a JSONL file (see `records.read_records`)."""
    return read_records(path, Instruction)


def check_image_refs(scenes: Mapping[str, Scene]) -> None:
    """Raise DuplicateId naming a scene's first two views that share one image
    reference (`selection.image_refs`), which the services would take for one
    image."""
    from .selection import image_refs

    for scene_id in sorted(scenes):
        first: dict[str, str] = {}
        views = scenes[scene_id].views
        for view_id, ref in zip(views.ids, image_refs(views)):
            other = first.setdefault(ref, view_id)
            if other != view_id:
                raise DuplicateId(
                    f"scene {scene_id!r}: views {other!r} and {view_id!r} "
                    f"share the image reference {ref!r}"
                )


def _caption_id(scene_id: str, view_id: str, idx: int) -> str:
    return f"cap:{scene_id}:{view_id}:{idx}"


def check_caption_ids(scenes: Mapping[str, Scene], cfg: CaptionBuildConfig) -> None:
    """Raise DuplicateId naming the first two captions of the views that
    `build_caption_triplets` samples that would take one triplet id, before
    any caption is made."""
    seen: dict[str, str] = {}
    for scene_id in sorted(scenes):
        for view_id in scenes[scene_id].views.ids[:: cfg.stride]:
            for idx in range(cfg.num_captions):
                where = f"scene {scene_id!r} view {view_id!r} caption {idx}"
                _claim_id(seen, _caption_id(scene_id, view_id, idx), where)


def _register_sidecar(client, views: Views, objects: Objects, overlap, tau: float):
    """The aligned ids of a view by view_id: the ids of the objects it shows
    with IoSA > tau, read from `overlap`, `geometry.image_overlap` of
    `objects` in `views`, whose pairs are sorted by view.  Registers each
    view's labels on the client if it takes them (the stub); builds a view's
    id set only when it is first asked for."""
    from .selection import alignment, image_refs

    tau = alignment(tau).iosa_threshold
    pairs, scores, _ = overlap
    kept = pairs[scores > tau]
    ends = np.searchsorted(kept, np.arange(1, len(views) + 1) * len(objects)).tolist()
    boxes = (kept % len(objects)).tolist()  # kept is empty when there are no objects
    rows = {
        view_id: boxes[start:end] for view_id, start, end in zip(views.ids, [0, *ends], ends)
    }
    register = getattr(client, "register_view_labels", None)
    if register is not None:
        labels = objects.labels
        for ref, row in zip(image_refs(views), rows.values()):
            register(ref, sorted({labels[j] for j in row}))
    ids = objects.ids

    @cache
    def aligned(view_id: str) -> frozenset[int]:
        return frozenset([ids[j] for j in rows[view_id]])

    return aligned


def build_caption_triplets(
    scene: Scene,
    client,
    cfg: CaptionBuildConfig = CaptionBuildConfig(),
    config_hash: str = "",
) -> list[TripletRecord]:
    """Caption-strategy corpus: sample views, caption them, keep strong matches.

    Every stride-th view (first always included) is captioned num_captions
    times; captions scoring >= threshold against the view survive, each
    becoming one triplet whose object set is the view's visible objects;
    a scene with no views gives none.  Output order is canonical: view
    order, then caption index.
    """
    from .selection import image_refs

    sampled = scene.views[:: cfg.stride]
    overlap = geometry.image_overlap(scene.objects.corners, sampled)
    aligned = _register_sidecar(client, sampled, scene.objects, overlap, cfg.tau)

    records = []
    for view_id, ref in zip(sampled.ids, image_refs(sampled)):
        captions = client.caption_image(ref, cfg.num_captions)
        scores = client.score_image_text(ref, captions)
        for idx, (caption, score) in enumerate(zip(captions, scores)):
            if score < cfg.threshold:
                continue
            records.append(
                TripletRecord(
                    triplet_id=_caption_id(scene.scene_id, view_id, idx),
                    scene_id=scene.scene_id,
                    view_id=view_id,
                    object_ids=aligned(view_id),
                    text=caption,
                    source="generated_caption",
                    provenance=TripletProvenance(
                        config_hash=config_hash, retrieval_score=score
                    ),
                )
            )
    return records


def _named(ins: Instruction, reason: str) -> str:
    """An error message naming instruction `ins`, built only for an error."""
    return f"instruction {ins.instruction_id!r}: {reason}"


def extend_dataset_triplets(
    instructions: Sequence[Instruction],
    scenes_by_id: Mapping[str, Scene],
    scorer_client,
    tau: float = 0.5,
    config_hash: str = "",
) -> list[TripletRecord]:
    """Extension-strategy corpus: bind each instruction to its most informative view.

    qa (and caption) instructions pick the view most similar to their text;
    dc instructions pick the view that best captures the target object.
    dc targets visible in no view are logged and skipped, never fatal.
    Before any projection or service call, the first instruction naming an
    unknown scene or dc target, or a qa text in a scene with no views,
    raises naming it.  Views are then selected once per scene for all of
    its instructions; records and warnings follow instruction order.
    """
    from .selection import select_views_for_dc, select_views_for_qa

    by_scene: dict[str, list[int]] = {}
    for i, ins in enumerate(instructions):
        scene = scenes_by_id.get(ins.scene_id)
        if scene is None:
            raise UnknownScene(_named(ins, f"scene {ins.scene_id!r} is not loaded"))
        if ins.task == "dc":
            if ins.target_object_id not in scene.objects.ids:
                raise UnknownObjectId(
                    _named(ins, f"unknown target object id {ins.target_object_id}")
                )
        elif not scene.views:
            raise NoViews(_named(ins, "select_view_for_qa requires at least one view"))
        by_scene.setdefault(ins.scene_id, []).append(i)

    picks: dict[int, tuple[str, float] | None] = {}
    aligned = {}
    for scene_id, indices in by_scene.items():
        views, objects = scenes_by_id[scene_id].views, scenes_by_id[scene_id].objects
        overlap = geometry.image_overlap(objects.corners, views)
        aligned[scene_id] = _register_sidecar(scorer_client, views, objects, overlap, tau)
        qa = [i for i in indices if instructions[i].task != "dc"]
        dc = [i for i in indices if instructions[i].task == "dc"]
        texts = [instructions[i].text for i in qa]
        targets = [instructions[i].target_object_id for i in dc]
        picks.update(zip(qa, select_views_for_qa(texts, views, scorer_client)))
        picks.update(zip(dc, select_views_for_dc(targets, views, objects, overlap)))

    records = []
    for i, ins in enumerate(instructions):
        pick = picks[i]
        if pick is None:
            logger.warning(
                "skipping %s: target object %s visible in no view of %s",
                ins.instruction_id,
                ins.target_object_id,
                ins.scene_id,
            )
            continue
        view_id, score = pick
        text = f"{ins.text} {ins.answer}" if ins.answer else ins.text
        records.append(
            TripletRecord(
                triplet_id=f"ext:{ins.instruction_id}",
                scene_id=ins.scene_id,
                view_id=view_id,
                object_ids=aligned[ins.scene_id](view_id),
                text=text,
                source="extended_dc" if ins.task == "dc" else "extended_qa",
                provenance=TripletProvenance(
                    config_hash=config_hash,
                    retrieval_score=score,
                    parent_instruction_id=ins.instruction_id,
                ),
            )
        )
    return records


def read_triplets(path: str | Path) -> list[TripletRecord]:
    """Read the triplet lines of a JSONL file (see `records.read_records`)."""
    return read_records(path, TripletRecord)
