"""Scene files: their schema, the object and view tables, and the loader.

Scene files are JSON, one scene per file:

    {"scene_id": ..., "split": "train"|"val"|"test", "points_path"?: ...,
     "objects": [{"object_id", "label", "box": {"center": [3], "size": [3], "heading"}}],
     "views": [{"view_id", "image_path"?,
                "intrinsics": {"fx","fy","cx","cy","width","height"},
                "pose": {"rotation": [3][3], "translation": [3],
                         "convention": "camera_to_world"}}]}

`load_scene` reads a file into a `Scene` of two column tables, `Objects`
and `Views`, whose rows are `SceneObject` and `View` records.  orjson
decodes the bytes, the stdlib decoder what orjson refuses or misreads
(see `_scene`).  One field table per level (`_SCENE_FIELDS`,
`_OBJECT_FIELDS`, `_VIEW_FIELDS`) states each leaf's key path and kind.
`_walk` reads the top level row by row.  `_gather` reads each entry field
as one column, and the `geometry.first_bad_*` value rules check whole
columns; when either rejects a table, `_walk` reads its entries in file
order, from the first entry a value rule names, and raises the first
error.  `points_path` is checked but not kept: no command reads it.  A
`Scene` built in code follows the loader's rules for its id, split, object
ids, labels and view ids.
"""

from __future__ import annotations

import gc
import io
import json
import re
from dataclasses import dataclass, fields
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np
import orjson

from .errors import DuplicateId, RuleError, SchemaError
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    OrientedBox3D,
    box_corners,
    first_bad_box,
    first_bad_intrinsics,
    first_bad_pose,
)
from .records import _encodable, _integer, _list, _text

SPLITS = ("train", "val", "test")


@dataclass(eq=False)
class SceneObject:
    """An annotated scene object: id, label, oriented 3D box.  A `Scene`
    holds its id and label to the loader's rules."""

    object_id: int
    label: str
    box: OrientedBox3D


@dataclass(eq=False)
class View:
    """A posed egocentric camera, optionally backed by an image file."""

    view_id: str
    intrinsics: CameraIntrinsics
    pose: CameraPose
    image_path: str | None = None


class _Columns:
    """Rows of a column table.  An int index gives one row as a record and
    iteration yields every record; a slice, index array or boolean mask gives
    the selected rows as a table of the same kind."""

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(self._record, range(len(self)))

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._record(range(len(self))[key])
        index = np.arange(len(self))[key]
        rows = index.tolist()
        return type(self)(**{
            f.name: tuple(map(value.__getitem__, rows)) if isinstance(value, tuple) else value[index]
            for f in fields(self)
            for value in [getattr(self, f.name)]
        })


@dataclass(frozen=True, eq=False)
class Objects(_Columns):
    """Scene objects as columns, one row per object: ids, labels, box centers
    (N, 3), full extents (N, 3), headings (N,) and world corners (N, 8, 3)."""

    ids: tuple[int, ...]
    labels: tuple[str, ...]
    centers: np.ndarray
    sizes: np.ndarray
    headings: np.ndarray
    corners: np.ndarray

    @classmethod
    def of(cls, objects: Objects | Iterable[SceneObject]) -> Objects:
        """`objects` itself if it is a table, else the table of the records."""
        if isinstance(objects, Objects):
            return objects
        objects = list(objects)
        centers = np.array([obj.box.center for obj in objects], dtype=np.float64).reshape(-1, 3)
        sizes = np.array([obj.box.size for obj in objects], dtype=np.float64).reshape(-1, 3)
        headings = np.array([obj.box.heading for obj in objects], dtype=np.float64)
        corners = box_corners(centers, sizes, headings.tolist())
        ids, labels = tuple(obj.object_id for obj in objects), tuple(obj.label for obj in objects)
        return cls(ids, labels, centers, sizes, headings, corners)

    def _record(self, i: int) -> SceneObject:
        box = OrientedBox3D(self.centers[i], self.sizes[i], float(self.headings[i]))
        return SceneObject(self.ids[i], self.labels[i], box)


@dataclass(frozen=True, eq=False)
class Views(_Columns):
    """Posed cameras as columns, one row per view: ids, image paths (None
    where a view has none), camera-to-world rotations (V, 3, 3) and
    translations (V, 3), pinhole rows (V, 4) of (fx, fy, cx, cy), and image
    sizes (V, 2) of (width, height) as integers.  These are the camera
    columns the `geometry` projector reads."""

    ids: tuple[str, ...]
    image_paths: tuple[str | None, ...]
    rotations: np.ndarray
    translations: np.ndarray
    pinhole: np.ndarray
    sizes: np.ndarray

    @classmethod
    def of(cls, views: Views | Iterable[View]) -> Views:
        """`views` itself if it is a table, else the table of the records."""
        if isinstance(views, Views):
            return views
        views = list(views)
        intrinsics = [view.intrinsics for view in views]
        return cls(
            ids=tuple(view.view_id for view in views),
            image_paths=tuple(view.image_path for view in views),
            rotations=np.array([view.pose.rotation for view in views]).reshape(-1, 3, 3),
            translations=np.array([view.pose.translation for view in views]).reshape(-1, 3),
            pinhole=np.array(
                [(i.fx, i.fy, i.cx, i.cy) for i in intrinsics], dtype=np.float64
            ).reshape(-1, 4),
            sizes=np.array([(i.width, i.height) for i in intrinsics], dtype=np.int64).reshape(-1, 2),
        )

    def _record(self, i: int) -> View:
        fx, fy, cx, cy = self.pinhole[i].tolist()
        width, height = self.sizes[i].tolist()
        return View(
            view_id=self.ids[i],
            intrinsics=CameraIntrinsics(fx, fy, cx, cy, width, height),
            pose=CameraPose(self.rotations[i], self.translations[i]),
            image_path=self.image_paths[i],
        )


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


# One row per field, in the order `_walk` reports errors: key path, kind
# and a detail.  Kinds: "integer", "id" and "label" (non-empty text),
# "path" (text or null, may be absent), "convention" ("camera_to_world"),
# "size" (an integer below 2**63), "number", "vector" and "matrix" (a JSON
# number, 3 numbers, 3 rows of 3; the detail is the shape error), "one of"
# (the detail holds the choices) and "entries" (a list, which the detail
# reads into a table).  Value rules are `geometry.first_bad_*`.
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


def _column(kind: str, values: list):
    """One field of every entry as a column: a tuple, None (convention) or an
    array (N, *shape); a value of the wrong kind or shape raises one of _REJECTED."""
    if kind in _DEPTH:
        for _ in range(_DEPTH[kind]):
            _expect({3}.issuperset(map(len, values)))
            values = list(chain.from_iterable(values))
        _expect({int, float}.issuperset(map(type, values)))
        return np.array(values, dtype=np.float64).reshape(-1, *(3,) * _DEPTH[kind])
    if kind in ("integer", "size"):
        _expect({int}.issuperset(map(type, values)))
        return np.array(values, dtype=np.int64) if kind == "size" else tuple(values)
    if kind == "convention":
        _expect(values.count("camera_to_world") == len(values))
        return None
    present = [value for value in values if value is not None] if kind == "path" else values
    # Strings UTF-8 can encode; some non-strings raise TypeError.
    _expect(all(map(str.isascii, present)) or all(map(_encodable, present)))
    _expect(kind == "path" or all(values))
    return tuple(values)


def _gather(fields, entries: list) -> list:
    """Each field of every entry as a column (see `_column`), in table order.
    Rows are measured before their leaves are flattened: a 3-character
    string or a 3-key object unpacks like 3 numbers."""
    nodes = {(): entries}
    columns = []
    for keys, kind, _ in fields:
        if kind == "path":
            values = list(map(dict.get, _node(nodes, keys[:-1]), repeat(keys[-1])))
        else:
            values = _node(nodes, keys)
        columns.append(_column(kind, values))
    return columns


def _node(nodes: dict, keys: tuple) -> list:
    """Every entry's value at `keys`, cached in `nodes` ({(): entries}).  Not a
    closure: one calling itself is a reference cycle, which would keep the
    decoded tree alive while the cyclic GC is paused."""
    if keys not in nodes:
        nodes[keys] = list(map(itemgetter(keys[-1]), _node(nodes, keys[:-1])))
    return nodes[keys]


def _walk(fields, entry, where: str) -> list:
    """Each field of the entry at `where`, converted (see `_leaf`), in table
    order; the first that is missing or not an object where one is expected
    raises SchemaError naming it."""
    values = []
    for keys, kind, detail in fields:
        value, path = entry, where
        for key in keys:
            try:
                if key not in value and kind != "path":
                    raise SchemaError(f"{path}.{key}", "missing")
                value = value.get(key) if kind == "path" else value[key]
            except TypeError as exc:  # a non-object is named; inside a pose, by its entry
                raise SchemaError(where if keys[0] == "pose" else path, str(exc)) from exc
            path = f"{path}.{key}"
        values.append(_leaf(kind, detail, value, path, where))
    return values


def _leaf(kind: str, detail, value, path: str, where: str):
    """`value`, the field at `path` of the entry at `where`, converted; a bad
    value raises SchemaError naming it or, for a failed conversion, its object."""
    if kind in _DEPTH:
        parent = path.rpartition(".")[0]
        try:
            value = _number(value, path, _DEPTH[kind])
            value = float(value) if kind == "number" else np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(parent, str(exc)) from exc
        if np.shape(value) != (3,) * _DEPTH[kind]:
            raise SchemaError(parent, detail)
    elif kind in ("integer", "size"):
        _integer(value, path)
        if kind == "size" and value >= 2**63:
            raise SchemaError(path, f"must be below 2**63, got {value!r}")
    elif kind == "convention":
        if value != "camera_to_world":
            raise SchemaError(path, f"unsupported convention {value!r}")
    elif kind == "one of":
        if value not in detail:
            raise SchemaError(path, f"must be one of {detail}, got {value!r}")
    elif kind == "entries":
        value = detail(_list(value, path))
    else:
        _text(value, path, optional=kind == "path")
        if kind == "label" and not value:
            raise SchemaError(where, "label must be non-empty")
        if kind == "id" and not value:
            raise SchemaError(path, "must be non-empty")
    return value


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


# The top level: each entry list is read into its table before the next row.
_SCENE_FIELDS = (
    (("scene_id",), "id", None),
    (("split",), "one of", SPLITS),
    (("objects",), "entries", _object_table),
    (("views",), "entries", _view_table),
    (("points_path",), "path", None),
)


@dataclass(eq=False)
class Scene:
    """A 3D scene: annotated objects and posed views, as tables (lists of
    records are converted), and a dataset split.  An id, split, label or
    image path that breaks a loader rule raises the loader's error as a
    RuleError."""

    scene_id: str
    objects: Objects
    views: Views
    split: str

    def __post_init__(self):
        try:
            _walk(_SCENE_FIELDS[:2], vars(self), "scene")  # its id and split
            self.objects, self.views = Objects.of(self.objects), Views.of(self.views)
            for table, key, kind, values in (  # the columns no record checks
                ("objects", "object_id", "integer", self.objects.ids),
                ("objects", "label", "label", self.objects.labels),
                ("views", "view_id", "id", self.views.ids),
                ("views", "image_path", "path", self.views.image_paths),
            ):
                try:
                    _column(kind, values)
                except _REJECTED:  # name the first value that breaks its rule
                    for i, value in enumerate(values):
                        _leaf(kind, None, value, f"{table}[{i}].{key}", f"{table}[{i}]")
        except SchemaError as exc:
            raise RuleError(exc.field, exc.reason) from None
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
    exact for valid JSON, the only text orjson builds a tree from.

    Once the quote pairs that enclose no bracket are gone, a quote remains
    only where a string holds a bracket (no generated or fixture scene
    has one); only then are quotes and what they enclose zeroed, by quote
    parity.  Otherwise the depth is the running sum of +1 per [ or { and
    -1 per ] or }.  That sum moves by one per bracket, so in int32 it
    cannot wrap without first passing any depth limit."""
    if b"\\" in raw:  # drop escaped backslashes, then escaped quotes
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    # Brackets and quotes, less the quote pairs that enclose no bracket.
    marks = raw.translate(None, _NOT_STRUCTURAL).replace(b'""', b"")
    codes = np.frombuffer(marks, np.uint8)
    step = (codes & 2).astype(np.int32) - 1  # [ and { have bit 1 set, ] and } clear
    if b'"' in marks:
        quotes = codes == ord('"')
        step[quotes | (np.cumsum(quotes) % 2 == 1)] = 0  # quotes and what they enclose
    return int(np.cumsum(step, dtype=np.int32).max(initial=0))


def _reference_tree(raw: bytes, path: Path):
    """`raw` decoded as `Path.read_text` and `json.loads` decode a file;
    their errors are SchemaErrors naming `path`."""
    try:
        return json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except UnicodeDecodeError as exc:
        raise SchemaError(str(path), f"invalid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # json.loads refuses ints past 4300 digits
        raise SchemaError(str(path), f"invalid JSON: {exc}") from exc


def _scene_of(data, path: Path) -> Scene:
    """The scene a decoded file holds; raises its first error."""
    if not isinstance(data, dict):
        raise SchemaError(str(path), "scene file must hold a JSON object")
    scene_id, split, objects, views, _ = _walk(_SCENE_FIELDS, data, "scene")
    return Scene(scene_id, objects, views, split)


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
