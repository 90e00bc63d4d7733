"""Scene and instruction data model, file schemas, and triplet corpus building.

Scene files are JSON, one scene per file:

    {"scene_id": ..., "split": "train"|"val"|"test", "points_path"?: ...,
     "objects": [{"object_id", "label", "box": {"center": [3], "size": [3], "heading"}}],
     "views": [{"view_id", "image_path"?,
                "intrinsics": {"fx","fy","cx","cy","width","height"},
                "pose": {"rotation": [3][3], "translation": [3],
                         "convention": "camera_to_world"}}]}

`load_scene` decodes a scene file's bytes with orjson, or with the stdlib
decoder where orjson refuses or misreads them (see `_scene`), and reads the
tree straight into two tables: `Objects` (ids, labels, box parameters and
world corners (N, 8, 3)) and `Views` (ids, image paths, rotations (V, 3, 3),
translations (V, 3), pinhole rows (V, 4) and image sizes (V, 2)).  One
table of fields per entry kind (`_OBJECT_FIELDS`, `_VIEW_FIELDS`) states
each leaf's key path, kind and shape.  `_gather` reads each field of
every entry as one column, one `np.array` call per numeric field, and the
`geometry.first_bad_*` value checks run over whole columns.  If either
rejects a table, `_walk` reads its entries in file order against the same
table and raises the first error.  When only a
value check rejects it, the walk starts at the first entry that check
names: every earlier entry passed every rule.  Float fields take
JSON numbers only, integer fields JSON integers only.  The cyclic GC is
paused for one `load_scene`: the decoded tree has many fresh containers and
no cycles.

Scene and record files must be UTF-8, and no text field may hold a lone
surrogate; either is a SchemaError naming the file, line or field.  Record
files (instructions, triplets, predictions, composed questions) are
line-delimited JSON with keys in a fixed order so identical inputs produce
byte-identical outputs.  Their field tables, their one reader and
`OutputFiles` live in `records`, which needs no numpy; this module reads
instructions and triplets with them and writes JSONL through them.  The
triplet builders import `selection` when they run; loading scenes needs none.
"""

from __future__ import annotations

import gc
import io
import json
import logging
import re
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Mapping, NoReturn, Sequence

import numpy as np
import orjson

from . import geometry
from ._util import check_stride, finite_number
from .errors import DuplicateId, NoViews, RuleError, SchemaError, UnknownObjectId, UnknownScene
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    OrientedBox3D,
    box_corners,
    first_bad_box,
    first_bad_intrinsics,
    first_bad_pose,
)
from .records import (
    INSTRUCTIONS,
    TRIPLETS,
    OutputFiles,
    _encodable,
    _integer,
    _list,
    _require,
    _text,
    check_rules,
    read_records,
)
from .solvability import Objects, SceneObject, View, Views

logger = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")


def _check_split(split) -> str:
    """`split` if it is one of SPLITS, else RuleError naming `scene.split`."""
    if split not in SPLITS:
        raise RuleError("scene.split", f"must be one of {SPLITS}, got {split!r}")
    return split


def _check_scene_id(scene_id: str) -> str:
    """`scene_id` if it is non-empty, else RuleError naming `scene.scene_id`."""
    if not scene_id:
        raise RuleError("scene.scene_id", "must be non-empty")
    return scene_id


@dataclass(eq=False)
class Scene:
    """A 3D scene: annotated objects and posed views, as tables (lists of
    records are converted), and a dataset split."""

    scene_id: str
    objects: Objects
    views: Views
    split: str
    points_path: str | None = None

    def __post_init__(self):
        _check_scene_id(self.scene_id)
        _check_split(self.split)
        self.objects = Objects.of(self.objects)
        self.views = Views.of(self.views)
        self._check_unique(self.objects.ids, "objects", "object_id")
        self._check_unique(self.views.ids, "views", "view_id")

    def _check_unique(self, ids: tuple, table: str, key: str) -> None:
        """Raise DuplicateId naming the first entry whose id repeats an earlier one."""
        if len(set(ids)) == len(ids):
            return
        first: dict = {}
        for i, value in enumerate(ids):
            j = first.setdefault(value, i)
            if j != i:
                raise DuplicateId(
                    f"scene {self.scene_id}: {table}[{i}].{key}: {value!r} repeats {table}[{j}]"
                )


@dataclass(eq=False)
class Instruction:
    """A task record: question answering, dense captioning, or captioning."""

    instruction_id: str
    scene_id: str
    task: str
    text: str
    answer: str | None = None
    related_object_ids: frozenset[int] = frozenset()
    target_object_id: int | None = None

    def __post_init__(self):
        self.related_object_ids = frozenset(self.related_object_ids)
        check_rules(INSTRUCTIONS, self)


@dataclass(frozen=True)
class TripletProvenance:
    config_hash: str = ""
    retrieval_score: float | None = None
    parent_instruction_id: str | None = None


@dataclass(eq=False)
class TripletRecord:
    """One <2D view, set of 3D objects, text> alignment record."""

    triplet_id: str
    scene_id: str
    view_id: str
    object_ids: frozenset[int]
    text: str
    source: str
    provenance: TripletProvenance

    def __post_init__(self):
        self.object_ids = frozenset(self.object_ids)
        check_rules(TRIPLETS, self)


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


def _number(value, path: str, depth: int = 0):
    """`value` if it is a JSON number or, for depth > 0, if the entries
    `depth` lists deep in it are; the first that is not raises SchemaError
    naming its path.  A non-list where one is expected is left alone."""
    if depth:
        for k, item in enumerate(value if isinstance(value, list) else ()):
            _number(item, f"{path}[{k}]", depth - 1)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"must be a number, got {value!r}")
    return value


# One row per field of a scene entry, in the order `_walk` reports errors:
# key path, kind and, for a vector or matrix, its shape error.  Kinds:
# "integer", "id" and "label" (non-empty text), "path" (text or null, may be
# absent), "convention" ("camera_to_world"), "size" (an integer below 2**63)
# and "number", "vector", "matrix" (a JSON number, 3 numbers, 3 rows of 3).
# Value rules are `geometry.first_bad_*`.
_OBJECT_FIELDS = (
    (("object_id",), "integer", None),
    (("label",), "label", None),
    (("box", "center"), "vector", "center and size must be 3-vectors"),
    (("box", "size"), "vector", "center and size must be 3-vectors"),
    (("box", "heading"), "number", None),
)
_VIEW_FIELDS = (
    (("view_id",), "id", None),
    (("intrinsics", "fx"), "number", None),
    (("intrinsics", "fy"), "number", None),
    (("intrinsics", "cx"), "number", None),
    (("intrinsics", "cy"), "number", None),
    (("intrinsics", "width"), "size", None),
    (("intrinsics", "height"), "size", None),
    (("pose", "convention"), "convention", None),
    (("pose", "rotation"), "matrix", "rotation must be 3x3"),
    (("pose", "translation"), "vector", "translation must be a 3-vector"),
    (("image_path",), "path", None),
)
_DEPTH = {"number": 0, "vector": 1, "matrix": 2}
_REJECTED = (KeyError, TypeError, ValueError, OverflowError)


def _expect(ok: bool) -> None:
    if not ok:
        raise ValueError("rejected")


def _strings(values: Sequence) -> bool:
    """Whether every value is a string UTF-8 can encode; some non-strings raise TypeError."""
    return all(map(str.isascii, values)) or all(map(_encodable, values))


def _gather(fields, entries: list) -> list:
    """Each field of every entry as a column, in table order: a tuple, None
    (convention) or an array (N, *shape); a field of the wrong kind or shape
    raises one of _REJECTED.  Rows are measured before their leaves are
    flattened: a 3-character string or a 3-key object unpacks like 3 numbers."""
    nodes = {(): entries}
    columns = []
    for keys, kind, _ in fields:
        if kind == "path":
            values = list(map(dict.get, _node(nodes, keys[:-1]), repeat(keys[-1])))
        else:
            values = _node(nodes, keys)
        if kind in _DEPTH:
            for _ in range(_DEPTH[kind]):
                _expect({3}.issuperset(map(len, values)))
                values = list(chain.from_iterable(values))
            _expect({int, float}.issuperset(map(type, values)))
            columns.append(np.array(values, dtype=np.float64).reshape(-1, *(3,) * _DEPTH[kind]))
        elif kind in ("integer", "size"):
            _expect({int}.issuperset(map(type, values)))
            columns.append(np.array(values, dtype=np.int64) if kind == "size" else tuple(values))
        elif kind == "convention":
            _expect(values.count("camera_to_world") == len(values))
            columns.append(None)
        else:
            present = [value for value in values if value is not None] if kind == "path" else values
            _expect(_strings(present) and (kind == "path" or all(values)))
            columns.append(tuple(values))
    return columns


def _node(nodes: dict, keys: tuple) -> list:
    """Every entry's value at `keys`, cached in `nodes` ({(): entries}).  Not a
    closure: one calling itself is a reference cycle, which would keep the
    decoded tree alive while the cyclic GC is paused."""
    if keys not in nodes:
        nodes[keys] = list(map(itemgetter(keys[-1]), _node(nodes, keys[:-1])))
    return nodes[keys]


def _walk(fields, entry, where: str) -> list:
    """Each field of the entry at `where`, converted, in table order; the
    first that is missing or of the wrong kind or shape raises SchemaError
    naming it, or, for a failed conversion, the object holding it."""
    values = []
    for keys, kind, shape in fields:
        value, path = entry, where
        for key in keys:
            parent = path
            try:
                if key not in value and kind != "path":
                    raise SchemaError(f"{path}.{key}", "missing")
                value = value.get(key) if kind == "path" else value[key]
            except TypeError as exc:  # a non-object is named; inside a pose, by its entry
                raise SchemaError(where if keys[0] == "pose" else path, str(exc)) from exc
            path = f"{path}.{key}"
        if kind in _DEPTH:
            try:
                value = _number(value, path, _DEPTH[kind])
                value = float(value) if kind == "number" else np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(parent, str(exc)) from exc
            if np.shape(value) != (3,) * _DEPTH[kind]:
                raise SchemaError(parent, shape)
        elif kind in ("integer", "size"):
            _integer(value, path)
            if kind == "size" and value >= 2**63:
                raise SchemaError(path, f"must be below 2**63, got {value!r}")
        elif kind == "convention":
            if value != "camera_to_world":
                raise SchemaError(path, f"unsupported convention {value!r}")
        else:
            _text(value, path, optional=kind == "path")
            if kind == "label" and not value:
                raise SchemaError(where, "label must be non-empty")
            if kind == "id" and not value:
                raise SchemaError(path, "must be non-empty")
        values.append(value)
    return values


def _checked(path: str, record, *args):
    """record(*args), with its ValueError raised as SchemaError naming `path`."""
    try:
        return record(*args)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _object_record(entry, where: str) -> SceneObject:
    """The objects entry at `where` as a record; raises its first error."""
    object_id, label, center, size, heading = _walk(_OBJECT_FIELDS, entry, where)
    box = _checked(f"{where}.box", OrientedBox3D, center, size, heading)
    return SceneObject(object_id, label, box)


def _view_record(entry, where: str) -> View:
    """The views entry at `where` as a record; raises its first error."""
    view_id, *pinhole, width, height, _, rotation, translation, path = _walk(
        _VIEW_FIELDS, entry, where
    )
    intrinsics = _checked(f"{where}.intrinsics", CameraIntrinsics, *pinhole, width, height)
    pose = _checked(f"{where}.pose", CameraPose, rotation, translation)
    return View(view_id, intrinsics, pose, path)


def _first_error(record, table: str, entries: list, start: int) -> NoReturn:
    """Raise the first error of the first entry of `table`, from `start` on,
    that has one."""
    for i in range(start, len(entries)):
        record(entries[i], f"{table}[{i}]")
    raise AssertionError(f"{table} fail a column check, but no entry fails its walk")


def _object_table(entries: list) -> Objects:
    start = 0
    try:
        ids, labels, centers, sizes, headings = _gather(_OBJECT_FIELDS, entries)
        bad = first_bad_box(centers, sizes, headings)
        if bad is None:
            corners = box_corners(centers, sizes, headings.tolist())
            return Objects(ids, labels, centers, sizes, headings, corners)
        start = bad[0]  # every earlier entry passed every rule
    except _REJECTED:  # walked below, outside the handler: no chained internal error
        pass
    _first_error(_object_record, "objects", entries, start)


def _view_table(entries: list) -> Views:
    start = 0
    try:
        ids, *pinhole, width, height, _, rotations, translations, paths = _gather(
            _VIEW_FIELDS, entries
        )
        pinhole, sizes = np.stack(pinhole, axis=1), np.stack([width, height], axis=1)
        found = (first_bad_intrinsics(pinhole, sizes), first_bad_pose(rotations, translations))
        bad = [index for index, _ in filter(None, found)]
        if not bad:
            return Views(ids, paths, rotations, translations, pinhole, sizes)
        start = min(bad)  # every earlier entry passed every rule
    except _REJECTED:
        pass
    _first_error(_view_record, "views", entries, start)


def load_scene(path: str | Path) -> Scene:
    """Parse and validate one scene file into object and view tables; raises
    SchemaError / DuplicateId naming the first bad entry in file order.  The
    cyclic GC is paused until the decoded tree, which holds no cycles, is freed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _scene(Path(path))
    finally:
        if enabled:
            gc.enable()


# orjson 3.8 builds its tree recursively with no depth limit: valid text
# nested some 40,000 deep overflows the C stack.  Later releases refuse
# text nested deeper than 1024 themselves; the stdlib decoder names it.
_ORJSON_DEPTH = 1024
_NOT_STRUCTURAL = bytes(sorted(set(range(256)) - set(b'"[]{}')))
# Where an integer literal outside [-2**63, 2**64), which orjson reads as a
# float, could start: any such literal has 19 digits or more, and the
# digits of a fraction, which follow a point, never match.
_LONG_DIGITS = re.compile(rb"(?<![.\d])\d{19}")


def _scene(path: Path) -> Scene:
    """The scene in the file at `path`.  orjson decodes its bytes; the
    stdlib decoder is the reference, and decodes them instead when orjson
    refuses them (NaN, Infinity, an overflowing number, a lone surrogate,
    a BOM, invalid UTF-8 or JSON), when they nest deeper than
    _ORJSON_DEPTH, or when the orjson tree fails a check and the bytes
    hold a digit run long enough for an integer orjson reads as a float."""
    raw = path.read_bytes()
    if _nesting(raw) <= _ORJSON_DEPTH:
        try:
            tree = orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
        else:
            try:
                return _scene_of(tree, path)
            except (SchemaError, DuplicateId):
                if not _LONG_DIGITS.search(raw):
                    raise
    return _scene_of(_reference_tree(raw, path), path)


def _nesting(raw: bytes) -> int:
    """How deep the brackets of the JSON text `raw` nest outside its strings;
    exact for valid JSON, the only text orjson builds a tree from."""
    if b"\\" in raw:  # drop escaped backslashes, then escaped quotes
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    # Brackets and quotes, less the quote pairs that enclose no bracket.
    marks = np.frombuffer(raw.translate(None, _NOT_STRUCTURAL).replace(b'""', b""), np.uint8)
    step = (marks & 2).astype(np.int64) - 1  # [ and { have bit 1 set, ] and } clear
    quotes = marks == ord('"')
    step[quotes | (np.cumsum(quotes) % 2 == 1)] = 0  # quotes and what they enclose
    return int(step.cumsum().max(initial=0))


def _reference_tree(raw: bytes, path: Path):
    """`raw` decoded as `Path.read_text` and `json.loads` decode a file;
    their errors are SchemaErrors naming `path`."""
    try:
        return json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except UnicodeDecodeError as exc:
        raise SchemaError(str(path), f"invalid UTF-8: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(str(path), f"invalid JSON: {exc}") from exc


def _scene_of(data, path: Path) -> Scene:
    """The scene a decoded file holds; raises its first error."""
    if not isinstance(data, dict):
        raise SchemaError(str(path), "scene file must hold a JSON object")

    scene_id = _check_scene_id(_text(_require(data, "scene_id", "scene"), "scene.scene_id"))
    split = _check_split(_require(data, "split", "scene"))
    objects = _object_table(_list(_require(data, "objects", "scene"), "scene.objects"))
    views = _view_table(_list(_require(data, "views", "scene"), "scene.views"))
    return Scene(
        scene_id=scene_id,
        objects=objects,
        views=views,
        split=split,
        points_path=_text(data.get("points_path"), "scene.points_path", optional=True),
    )


def load_scenes_dir(directory: str | Path) -> dict[str, Scene]:
    """Load every *.json scene file in a directory, keyed by scene_id.

    Errors name the file, as record errors do: `path:field: reason` for a
    SchemaError and `path: message` for a DuplicateId; a scene_id repeated
    across files names both files.  A `directory` that is missing or is
    not a directory raises the OSError naming it."""
    scenes: dict[str, Scene] = {}
    files: dict[str, Path] = {}
    for path in sorted(p for p in Path(directory).iterdir() if p.match("*.json")):
        try:
            scene = load_scene(path)
        except SchemaError as exc:
            if exc.field == str(path):  # whole-file errors already name it
                raise
            raise SchemaError(f"{path}:{exc.field}", exc.reason) from exc
        except DuplicateId as exc:
            raise DuplicateId(f"{path}: {exc}") from exc
        if scene.scene_id in scenes:
            raise DuplicateId(
                f"{path}: scene id {scene.scene_id!r} already used in {files[scene.scene_id]}"
            )
        scenes[scene.scene_id] = scene
        files[scene.scene_id] = path
    return scenes


def read_instructions(path: str | Path) -> list[Instruction]:
    """Read the instruction lines of a JSONL file (see `records.read_records`)."""
    return read_records(path, INSTRUCTIONS, Instruction)


def _register_sidecar(clients, views: Views, objects: Objects, overlap, tau: float) -> dict:
    """Ids of the objects each view shows with IoSA > tau, keyed by view_id,
    read from `overlap`, `geometry.image_overlap` of `objects` in `views`;
    registers each view's labels on any client that takes them (the stub)."""
    from .selection import alignment, image_refs

    tau = alignment(tau).iosa_threshold
    pairs, scores, _ = overlap
    table = np.zeros((len(views), len(objects)), dtype=bool)
    table.flat[pairs[scores > tau]] = True
    registers = [c.register_view_labels for c in clients if hasattr(c, "register_view_labels")]
    visible: dict[str, set[int]] = {}
    for view_id, ref, row in zip(views.ids, image_refs(views), table.tolist()):
        visible[view_id] = set(compress(objects.ids, row))
        labels = sorted(set(compress(objects.labels, row)))
        for register in registers:
            register(ref, labels)
    return visible


def build_caption_triplets(
    scene: Scene,
    caption_client,
    scorer_client,
    cfg: CaptionBuildConfig = CaptionBuildConfig(),
    config_hash: str = "",
) -> list[TripletRecord]:
    """Caption-strategy corpus: sample views, caption them, keep strong matches.

    Every stride-th view (first always included) is captioned num_captions
    times; captions scoring >= threshold against the view survive, each
    becoming one triplet whose object set is the view's visible objects.
    Output order is canonical: view order, then caption index.
    """
    from .selection import image_refs

    if not scene.views:
        raise ValueError(f"scene {scene.scene_id} has no views")
    sampled = scene.views[:: cfg.stride]
    clients = [caption_client]
    if scorer_client is not caption_client:
        clients.append(scorer_client)
    overlap = geometry.image_overlap(scene.objects.corners, sampled)
    visible = _register_sidecar(clients, sampled, scene.objects, overlap, cfg.tau)

    records = []
    for view_id, ref in zip(sampled.ids, image_refs(sampled)):
        captions = caption_client.caption_image(ref, cfg.num_captions)
        scores = scorer_client.score_image_text(ref, captions)
        object_ids = frozenset(visible[view_id])
        for idx, (caption, score) in enumerate(zip(captions, scores)):
            if score < cfg.threshold:
                continue
            records.append(
                TripletRecord(
                    triplet_id=f"cap:{scene.scene_id}:{view_id}:{idx}",
                    scene_id=scene.scene_id,
                    view_id=view_id,
                    object_ids=object_ids,
                    text=caption,
                    source="generated_caption",
                    provenance=TripletProvenance(
                        config_hash=config_hash, retrieval_score=score
                    ),
                )
            )
    return records


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
        where = f"instruction {ins.instruction_id!r}: "
        scene = scenes_by_id.get(ins.scene_id)
        if scene is None:
            raise UnknownScene(f"{where}scene {ins.scene_id!r} is not loaded")
        if ins.task == "dc":
            if ins.target_object_id not in scene.objects.ids:
                raise UnknownObjectId(f"{where}unknown target object id {ins.target_object_id}")
        elif not scene.views:
            raise NoViews(f"{where}select_view_for_qa requires at least one view")
        by_scene.setdefault(ins.scene_id, []).append(i)

    picks: dict[int, tuple[str, float] | None] = {}
    visible: dict[str, dict[str, set[int]]] = {}
    for scene_id, indices in by_scene.items():
        views, objects = scenes_by_id[scene_id].views, scenes_by_id[scene_id].objects
        overlap = geometry.image_overlap(objects.corners, views)
        visible[scene_id] = _register_sidecar([scorer_client], views, objects, overlap, tau)
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
                object_ids=frozenset(visible[ins.scene_id][view_id]),
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


def triplet_to_dict(record: TripletRecord) -> dict:
    """Serialize with fixed key order for byte-stable files."""
    return {
        "triplet_id": record.triplet_id,
        "scene_id": record.scene_id,
        "view_id": record.view_id,
        "object_ids": sorted(record.object_ids),
        "text": record.text,
        "source": record.source,
        "provenance": {
            "config_hash": record.provenance.config_hash,
            "retrieval_score": record.provenance.retrieval_score,
            "parent_instruction_id": record.provenance.parent_instruction_id,
        },
    }


def write_jsonl(
    path: str | Path,
    rows: Sequence[dict],
    provenance: dict | None = None,
    outputs: OutputFiles | None = None,
) -> None:
    """Write records as UTF-8 JSON lines with an optional provenance header.

    The file appears whole or not at all; pass `outputs` to move it into
    place together with the other files written to it.
    """
    header = [] if provenance is None else [{"record": "provenance", **provenance}]
    text = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in [*header, *rows])
    with nullcontext(outputs) if outputs is not None else OutputFiles() as staged:
        staged.write(path, text)


def read_triplets(path: str | Path) -> list[TripletRecord]:
    """Read triplet lines (see `records.read_records`); TRIPLETS ends with the provenance."""
    return read_records(path, TRIPLETS, lambda *v: TripletRecord(*v[:6], TripletProvenance(*v[6:])))
