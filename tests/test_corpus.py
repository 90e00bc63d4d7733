from __future__ import annotations

import copy
import dataclasses
import functools
import gc
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
from itertools import compress
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egoview.scene
from egoview import geometry
from egoview.corpus import (
    CaptionBuildConfig,
    Instruction,
    TripletProvenance,
    TripletRecord,
    build_caption_triplets,
    extend_dataset_triplets,
    read_instructions,
    read_triplets,
)
from egoview.errors import (
    DuplicateId,
    NoViews,
    RuleError,
    SchemaError,
    UnknownObjectId,
    UnknownScene,
)
from egoview.evaluate import read_gold, read_predictions
from egoview.geometry import CameraIntrinsics, CameraPose, OrientedBox3D
from egoview.records import OutputFiles, record_json, write_jsonl
from egoview.scene import Scene, SceneObject, View, load_scene, load_scenes_dir
from egoview.selection import alignment, image_refs
from egoview.services import StubModelService
from egoview.solvability import WitnessTable
from egoview.synthesis import read_questions

from .oracles import scalar_box_rect
from .scenegen import random_posed_scene, scene_to_dict
from .test_geometry import dense_pairs
from .test_scene_errors import VALUES, _paths, base_scene, refuse


def scene_payload(**overrides):
    payload = {
        "scene_id": "s1",
        "split": "train",
        "objects": [
            {
                "object_id": 1,
                "label": "desk",
                "box": {"center": [0, 0, 2.5], "size": [0.5, 0.5, 0.5], "heading": 0.0},
            }
        ],
        "views": [
            {
                "view_id": "v1",
                "intrinsics": {
                    "fx": 500.0,
                    "fy": 500.0,
                    "cx": 320.0,
                    "cy": 240.0,
                    "width": 640,
                    "height": 480,
                },
                "pose": {
                    "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "translation": [0, 0, 0],
                    "convention": "camera_to_world",
                },
            }
        ],
    }
    payload.update(overrides)
    return payload


class TestLoadScene:
    def test_fixture_counts(self, scene_a):
        assert scene_a.scene_id == "scene-a"
        assert len(scene_a.objects) == 8
        assert len(scene_a.views) == 12
        assert scene_a.split == "train"
        assert not hasattr(scene_a, "points_path")  # checked, not kept

    def test_split_is_read_from_the_scene_file(self, scenes):
        assert {scene_id: scene.split for scene_id, scene in scenes.items()} == {
            "scene-a": "train", "scene-b": "val"
        }

    def test_view_record_of_a_loaded_scene_builds(self, tmp_path):
        """A principal point that rounds onto a huge image width passes the
        column check, and the view's record accepts it too."""
        payload = scene_payload()
        payload["views"][0]["intrinsics"].update(width=2**60 - 1, cx=float(2**60))
        scene = load_scene(_write_scene(tmp_path, payload))
        assert scene.views[0].intrinsics.width == 2**60 - 1

    def test_missing_intrinsics_field(self, tmp_path):
        payload = scene_payload()
        del payload["views"][0]["intrinsics"]["fx"]
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_scene(path)
        assert "fx" in str(excinfo.value)

    def test_duplicate_object_id(self, tmp_path):
        payload = scene_payload()
        payload["objects"].append(dict(payload["objects"][0]))
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DuplicateId):
            load_scene(path)

    def test_invalid_split(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_payload(split="dev")), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_scene(path)

    def test_scene_checks_its_split_with_the_loaders_rule(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_payload(split="dev")), encoding="utf-8")
        with pytest.raises(SchemaError) as loaded:
            load_scene(path)
        with pytest.raises(ValueError) as built:
            Scene("s", [], [], "dev")
        reason = "must be one of ('train', 'val', 'test'), got 'dev'"
        for error in (loaded.value, built.value):
            assert isinstance(error, SchemaError)
            assert (error.field, error.reason) == ("scene.split", reason)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_scene(path)

    def test_non_orthonormal_rotation(self, tmp_path):
        payload = scene_payload()
        payload["views"][0]["pose"]["rotation"] = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_scene(path)

    def test_unsupported_pose_convention(self, tmp_path):
        payload = scene_payload()
        payload["views"][0]["pose"]["convention"] = "world_to_camera"
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_scene(path)

    def test_load_scenes_dir(self, data_dir):
        scenes = load_scenes_dir(data_dir / "scenes")
        assert set(scenes) == {"scene-a", "scene-b"}

    def test_load_scenes_dir_raises_for_a_missing_path_or_a_file(self, tmp_path, data_dir):
        with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "nowhere"))):
            load_scenes_dir(tmp_path / "nowhere")
        scene = data_dir / "scenes" / "scene-a.json"
        with pytest.raises(NotADirectoryError, match=re.escape(str(scene))):
            load_scenes_dir(scene)

    def test_gc_state_is_restored_after_load_and_error(self, tmp_path, data_dir):
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps(scene_payload(split="dev")), encoding="utf-8")
        try:
            for enabled in (False, True):
                gc.enable() if enabled else gc.disable()
                load_scene(data_dir / "scenes" / "scene-a.json")
                assert gc.isenabled() is enabled
                with pytest.raises(SchemaError):
                    load_scene(bad)
                assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_load_leaves_no_cyclic_garbage(self, data_dir):
        """The GC is paused during a load because the decoded tree holds no
        cycles; nothing of it may be left for the collector afterwards."""
        gc.collect()
        try:
            gc.disable()
            load_scene(data_dir / "scenes" / "scene-a.json")
            assert gc.collect() == 0
        finally:
            gc.enable()


def _columns(table) -> tuple:
    """Every column of a table: a tuple by its repr, which tells 1 from 1.0,
    an array by its dtype, shape and bytes."""
    return tuple(
        (value.dtype.str, value.shape, value.tobytes()) if isinstance(value, np.ndarray)
        else repr(value)
        for value in (getattr(table, f.name) for f in dataclasses.fields(table))
    )


def _load_outcome(path) -> tuple:
    try:
        scene = load_scene(path)
    except SchemaError as exc:
        return ("SchemaError", exc.field, exc.reason)
    except DuplicateId as exc:
        return ("DuplicateId", str(exc))
    return (repr(scene.scene_id), scene.split, _columns(scene.objects), _columns(scene.views))


def _both_decoders(path) -> tuple:
    """The outcome of loading `path` as it is, and with the stdlib decoder forced."""
    fast = _load_outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orjson, "loads", refuse)
        return fast, _load_outcome(path)


def _depth(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    return 1 + max(map(_depth, value), default=0) if isinstance(value, list) else 0


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(alphabet='"\\[]{}a\u00e9\U0001f600'),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(alphabet='"\\[]{}b'), children, max_size=4),
    max_leaves=40,
)


class TestDecodePaths:
    """orjson and the stdlib decoder, which reads what orjson refuses or
    misreads, load every scene file alike."""

    @pytest.mark.parametrize(
        "keys",
        [("objects", 0, "object_id"), ("views", 0, "intrinsics", "width"),
         ("objects", 0, "label"), ("objects", 0, "box", "heading")],
        ids=["object_id", "width", "label", "heading"],
    )
    @pytest.mark.parametrize(
        "value",
        [2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 10**19, 10**30, 10**400],
        ids=["2**63-1", "2**63", "2**64-1", "2**64", "-2**63", "-2**63-1",
             "10**19", "10**30", "10**400"],
    )
    def test_integer_literals_load_alike(self, tmp_path, keys, value):
        """orjson reads an integer outside [-2**63, 2**64) as a float."""
        fast, reference = _both_decoders(_write_scene(tmp_path, _edited(scene_payload(), keys, value)))
        assert fast == reference

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=7, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_finite_floats_load_bit_identical(self, numbers):
        payload = scene_payload()
        box = payload["objects"][0]["box"]
        box["center"], box["heading"] = numbers[:3], numbers[3]
        payload["views"][0]["pose"]["translation"] = numbers[4:]
        with tempfile.TemporaryDirectory() as tmp:
            fast, reference = _both_decoders(_write_scene(Path(tmp), payload))
        assert fast == reference
        assert fast[0] == "'s1'"

    @given(_JSON_VALUES, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_nesting_counts_brackets_outside_strings(self, value, ascii_only):
        text = json.dumps(value, ensure_ascii=ascii_only).encode("utf-8")
        assert egoview.scene._nesting(text) == _depth(value)

    @pytest.mark.parametrize("level", [b"[", b'{"a": ', b'[{"a": '])
    def test_deep_nesting_is_named_by_the_stdlib_decoder(self, tmp_path, level):
        """orjson 3.8 overflows the C stack on valid text nested some 40,000
        deep.  Such a file goes to the stdlib decoder, which names it as
        invalid JSON.  A fresh interpreter loads it, so that a crash fails
        this test instead of the test run."""
        closing = level.replace(b"[", b"]").replace(b'{"a": ', b"}")[::-1]
        deep = level * 200_000 + b"1" + closing * 200_000
        path = tmp_path / "scene.json"
        path.write_bytes(json.dumps(scene_payload()).encode()[:-1] + b', "extra": ' + deep + b"}")
        script = (
            "import sys\n"
            "from egoview.scene import load_scene\n"
            "try:\n"
            "    load_scene(sys.argv[1])\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc.reason)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env={**os.environ, "PYTHONPATH": str(Path(egoview.scene.__file__).parents[1])},
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("SchemaError invalid JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize(
        "text,depth",
        [
            (b'{"a": [1, [2, {"b": []}]], "c": {}}', 5),
            (b'[[], [[]], "x"]', 3),
            (b'{"a": "[[[{", "b": [1]}', 2),
            (b'{"a": "}}]]", "b": {"c": "{"}}', 2),
            (b'{"a": "\\"[", "b": []}', 2),
            (b'{"a": "\\\\", "b": [[]]}', 3),
            (b'{"a": "\\\\\\"[[", "b": [], "c": "\\\\["}', 2),
        ],
        ids=["quote-free", "quote-free-list", "bracket-in-string", "closing-in-strings",
             "escaped-quote", "escaped-backslash", "both-escapes"],
    )
    def test_nesting_of_explicit_texts(self, text, depth):
        """Where no string holds a bracket (quote-free, escaped-backslash), no
        quote is left once the empty quote pairs are gone; the others go
        through the quote-parity pass."""
        assert _depth(json.loads(text)) == depth
        assert egoview.scene._nesting(text) == depth

    @staticmethod
    def _nested_scene(tmp_path, depth: int) -> Path:
        """A valid scene file whose brackets nest `depth` deep, the scene
        object included, in a key the loader ignores."""
        path = tmp_path / "scene.json"
        path.write_bytes(
            json.dumps(scene_payload()).encode()[:-1]
            + b', "extra": ' + b"[" * (depth - 1) + b"]" * (depth - 1) + b"}"
        )
        assert egoview.scene._nesting(path.read_bytes()) == depth
        return path

    @staticmethod
    def _spy_reference_tree(monkeypatch) -> list:
        calls = []
        reference_tree = egoview.scene._reference_tree

        def spy(raw, path):
            calls.append(path)
            return reference_tree(raw, path)

        monkeypatch.setattr(egoview.scene, "_reference_tree", spy)
        return calls

    def test_nesting_within_the_limit_is_decoded_by_orjson(self, tmp_path, monkeypatch):
        path = self._nested_scene(tmp_path, egoview.scene._ORJSON_DEPTH)
        calls = self._spy_reference_tree(monkeypatch)
        assert load_scene(path).scene_id == "s1"
        assert calls == []

    def test_nesting_beyond_the_limit_goes_to_the_stdlib_decoder(self, tmp_path, monkeypatch):
        """Whether the stdlib decoder then names the text as too deep
        depends on the caller's stack depth; only the route is pinned."""
        path = self._nested_scene(tmp_path, egoview.scene._ORJSON_DEPTH + 1)
        calls = self._spy_reference_tree(monkeypatch)
        try:
            load_scene(path)
        except SchemaError as exc:
            assert exc.reason.startswith("invalid JSON: maximum recursion depth exceeded")
        assert calls == [path]

    def test_stdlib_errors_count_lines_as_read_text_does(self, tmp_path):
        """The stdlib decoder reads the bytes with universal newlines, as
        `Path.read_text` did, so a CRLF file's error names the same place."""
        path = tmp_path / "scene.json"
        path.write_bytes(b'{\r\n"scene_id": "s1",\r\r\n"split": }\r\n')
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads(path.read_text(encoding="utf-8"))
        with pytest.raises(SchemaError) as loaded:
            load_scene(path)
        assert decoded.value.pos == 30  # 33 in the undecoded bytes
        assert (loaded.value.field, loaded.value.reason) == (
            str(path), f"invalid JSON: {decoded.value}"
        )


def _bad_rotation_scale(pose):
    pose["rotation"][0] = [2 * x for x in pose["rotation"][0]]


def _bad_rotation_reflection(pose):
    for row in pose["rotation"]:
        row[2] = -row[2]


def _bad_rotation_nan(pose):
    pose["rotation"][1][2] = math.nan


def _bad_rotation_2x2(pose):
    pose["rotation"] = [row[:2] for row in pose["rotation"][:2]]


def _bad_translation_2_vector(pose):
    pose["translation"] = pose["translation"][:2]


BAD_POSES = {
    "non-orthonormal": (_bad_rotation_scale, "rotation must be finite and orthonormal"),
    "reflection": (_bad_rotation_reflection, "rotation determinant must be +1"),
    "nan-rotation": (_bad_rotation_nan, "rotation must be finite and orthonormal"),
    "2x2-rotation": (_bad_rotation_2x2, "rotation must be 3x3"),
    "2-vector-translation": (_bad_translation_2_vector, "translation must be a 3-vector"),
}


class TestBatchedPoseCheck:
    """load_scene checks every view's pose in one batch over the scene."""

    N_VIEWS = 40

    def _payload(self, seed=3):
        views, objects = random_posed_scene(np.random.default_rng(seed), self.N_VIEWS, 6)
        return views, scene_to_dict(views, objects)

    def _load_with(self, tmp_path, payload, edits):
        for k, name in edits:
            BAD_POSES[name][0](payload["views"][k]["pose"])
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_scene(path)
        return excinfo.value

    @pytest.mark.parametrize("name", sorted(BAD_POSES))
    def test_bad_pose_at_late_index_is_named(self, tmp_path, name):
        k = self.N_VIEWS - 3
        error = self._load_with(tmp_path, self._payload()[1], [(k, name)])
        assert error.field == f"views[{k}].pose"
        assert error.reason == BAD_POSES[name][1]

    @pytest.mark.parametrize(
        "first,second",
        [
            ("nan-rotation", "reflection"),
            ("reflection", "2x2-rotation"),
            ("2-vector-translation", "non-orthonormal"),
        ],
    )
    def test_lowest_bad_index_is_named(self, tmp_path, first, second):
        edits = [(30, second), (17, first)]
        error = self._load_with(tmp_path, self._payload()[1], edits)
        assert error.field == "views[17].pose"
        assert error.reason == BAD_POSES[first][1]

    def test_earlier_bad_pose_named_before_later_bad_intrinsics(self, tmp_path):
        payload = self._payload()[1]
        del payload["views"][25]["intrinsics"]["fx"]
        error = self._load_with(tmp_path, payload, [(20, "reflection")])
        assert error.field == "views[20].pose"

    def test_earlier_bad_intrinsics_named_before_later_bad_pose(self, tmp_path):
        payload = self._payload()[1]
        del payload["views"][12]["intrinsics"]["fx"]
        error = self._load_with(tmp_path, payload, [(20, "reflection")])
        assert error.field == "views[12].intrinsics.fx"

    def test_loaded_poses_equal_directly_constructed(self, tmp_path):
        views, payload = self._payload(seed=11)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_scene(path).views
        assert len(loaded) == len(views)
        for view, expected in zip(loaded, views):
            direct = CameraPose(expected.pose.rotation.tolist(), expected.pose.translation.tolist())
            assert np.array_equal(view.pose.rotation, direct.rotation)
            assert np.array_equal(view.pose.translation, direct.translation)
            assert view.pose.rotation.dtype == view.pose.translation.dtype == np.float64


def _write_scene(tmp_path, payload):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _edited(payload, keys, value):
    target = payload
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return payload


class TestColumnLoad:
    """load_scene parses columns; errors match a record-by-record parse."""

    def test_loaded_rects_equal_scalar_oracle_bit_for_bit(self, tmp_path):
        views, objects = random_posed_scene(np.random.default_rng(61), 12, 15)
        scene = load_scene(_write_scene(tmp_path, scene_to_dict(views, objects)))
        rects, visible = dense_pairs(scene.objects.corners, scene.views)
        for i, view in enumerate(views):
            for j, obj in enumerate(objects):
                reference = scalar_box_rect(obj.box, view.intrinsics, view.pose)
                assert visible[i, j] == (reference is not None)
                if reference is not None:
                    assert tuple(rects[i, j]) == (
                        reference.x_min, reference.y_min, reference.x_max, reference.y_max
                    )

    @pytest.mark.parametrize(
        "keys,value,field,bad",
        [
            (("views", 0, "intrinsics", "fx"), "500", "views[0].intrinsics.fx", "500"),
            (("views", 0, "intrinsics", "cy"), False, "views[0].intrinsics.cy", False),
            (("objects", 0, "box", "heading"), True, "objects[0].box.heading", True),
            (("objects", 0, "box", "center"), ["1", 2, True], "objects[0].box.center[0]", "1"),
            (("objects", 0, "box", "size"), [0.5, 0.5, "0.5"], "objects[0].box.size[2]", "0.5"),
            (("views", 0, "pose", "rotation", 1), [0, True, 0], "views[0].pose.rotation[1][1]", True),
            (("views", 0, "pose", "translation", 2), "0", "views[0].pose.translation[2]", "0"),
        ],
    )
    def test_float_fields_take_numbers_only(self, tmp_path, keys, value, field, bad):
        path = _write_scene(tmp_path, _edited(scene_payload(), keys, value))
        with pytest.raises(SchemaError) as excinfo:
            load_scene(path)
        assert excinfo.value.field == field
        assert excinfo.value.reason == f"must be a number, got {bad!r}"

    @pytest.mark.parametrize("table,key", [("objects", "object_id"), ("views", "view_id")])
    def test_duplicate_id_names_the_repeated_entry(self, tmp_path, data_dir, table, key):
        scene = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        scene[table][5][key] = scene[table][2][key]
        with pytest.raises(DuplicateId) as excinfo:
            load_scene(_write_scene(tmp_path, scene))
        value = scene[table][2][key]
        assert str(excinfo.value) == (
            f"scene scene-a: {table}[5].{key}: {value!r} repeats {table}[2]"
        )

    def test_column_checks_agree_with_record_parse(self, tmp_path):
        """Scenes with two faults anywhere in their entries: load_scene names
        the same error as parsing every object, then every view, as a record."""
        rng = np.random.default_rng(71)
        views, objects = random_posed_scene(rng, 6, 4)
        base = scene_to_dict(views, objects)
        paths = [keys for keys in _paths(base) if keys[0] in ("objects", "views") and len(keys) > 2]
        edits = ["delete", *VALUES]
        checked = 0
        for _ in range(300):
            payload = copy.deepcopy(base)
            for k in rng.choice(len(paths), size=2, replace=False):
                keys, edit = paths[k], edits[rng.integers(len(edits))]
                try:  # the first edit may have replaced a container on this path
                    target = functools.reduce(operator.getitem, keys[:-1], payload)
                    if edit == "delete":
                        del target[keys[-1]]
                    else:
                        target[keys[-1]] = copy.deepcopy(VALUES[edit])
                except (KeyError, IndexError, TypeError):
                    pass
            try:
                for i, entry in enumerate(payload["objects"]):
                    egoview.scene._object_record(entry, f"objects[{i}]")
                for i, entry in enumerate(payload["views"]):
                    egoview.scene._view_record(entry, f"views[{i}]")
                expected = None
            except SchemaError as exc:
                expected = (exc.field, exc.reason)
            try:
                load_scene(_write_scene(tmp_path, payload))
                got = None
            except SchemaError as exc:
                got = (exc.field, exc.reason)
            except DuplicateId:
                got = None
            assert got == expected
            checked += expected is not None
        assert checked > 200

    def test_shape_traps_agree_with_record_parse(self, tmp_path):
        """Values that unpack like a 3-vector or a rotation, or hold too many
        or no leaves, at every path inside the entries of a small scene, one
        at a time: load_scene names the same error as a record-by-record parse."""
        traps = ["abc", {"a": 1, "b": 2, "c": 3}, [1.5, 2.5, 3.5], [1.5] * 4, [[1.5] * 3] * 3, []]
        views, objects = random_posed_scene(np.random.default_rng(83), 3, 3)
        base = scene_to_dict(views, objects)
        paths = [keys for keys in _paths(base) if keys[0] in ("objects", "views") and len(keys) > 1]
        rejected = 0
        for keys in paths:
            for trap in traps:
                payload = _edited(copy.deepcopy(base), keys, copy.deepcopy(trap))
                try:
                    for i, entry in enumerate(payload["objects"]):
                        egoview.scene._object_record(entry, f"objects[{i}]")
                    for i, entry in enumerate(payload["views"]):
                        egoview.scene._view_record(entry, f"views[{i}]")
                    expected = "loads"
                except SchemaError as exc:
                    expected = (exc.field, exc.reason)
                try:
                    load_scene(_write_scene(tmp_path, payload))
                    got = "loads"
                except SchemaError as exc:
                    got = (exc.field, exc.reason)
                assert got == expected, (keys, trap)
                rejected += expected != "loads"
        assert rejected > 0.9 * len(paths) * len(traps)

    def test_empty_label_is_rejected(self, tmp_path):
        payload = scene_payload()
        payload["objects"][0]["label"] = ""
        with pytest.raises(SchemaError) as excinfo:
            load_scene(_write_scene(tmp_path, payload))
        assert (excinfo.value.field, excinfo.value.reason) == (
            "objects[0]", "label must be non-empty"
        )

    def test_empty_scene_id_is_rejected_by_the_loader_and_the_scene(self, tmp_path):
        with pytest.raises(SchemaError) as loaded:
            load_scene(_write_scene(tmp_path, scene_payload(scene_id="")))
        with pytest.raises(SchemaError) as built:
            Scene("", [], [], "train")
        for error in (loaded.value, built.value):
            assert (error.field, error.reason) == ("scene.scene_id", "must be non-empty")

    def test_empty_view_id_is_rejected(self, tmp_path):
        payload = scene_payload()
        payload["views"][0]["view_id"] = ""
        payload["views"][0].pop("image_path", None)
        with pytest.raises(SchemaError) as excinfo:
            load_scene(_write_scene(tmp_path, payload))
        assert (excinfo.value.field, excinfo.value.reason) == ("views[0].view_id", "must be non-empty")

    @pytest.mark.parametrize(
        "table,edits",
        [
            ("views", {("pose", "rotation"): [[1, 0, 0, 0], [1, 0], [0, 0, 1]]}),
            ("objects", {("box", "center"): [0, 0, 2.5, 0.5], ("box", "size"): [0.5, 0.5]}),
        ],
    )
    def test_lengths_that_add_up_are_still_checked(self, tmp_path, table, edits):
        """A long row beside a short one leaves an entry the right number of
        leaves; load_scene still names the error a record parse names."""
        payload = scene_payload()
        for keys, value in edits.items():
            _edited(payload, (table, 0, *keys), value)
        parse = egoview.scene._view_record if table == "views" else egoview.scene._object_record
        with pytest.raises(SchemaError) as expected:
            parse(payload[table][0], f"{table}[0]")
        with pytest.raises(SchemaError) as excinfo:
            load_scene(_write_scene(tmp_path, payload))
        assert (excinfo.value.field, excinfo.value.reason) == (
            expected.value.field, expected.value.reason
        )


_SKEWED = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


class TestFirstErrorWalk:
    """When the columns load and only a value rule rejects a table, the walk
    builds the first entry that rule names, not every entry before it."""

    @pytest.fixture(scope="class")
    def big_scene(self):
        views, objects = random_posed_scene(np.random.default_rng(97), 1000, 1000)
        return scene_to_dict(views, objects)

    @pytest.mark.parametrize(
        "table,edits,walked,error",
        [
            ("views", {(999, "intrinsics", "fx"): -500.0},
             "views[999]", ("views[999].intrinsics", "focal lengths must be positive")),
            ("objects", {(999, "box", "size", 0): -0.5},
             "objects[999]", ("objects[999].box", "all size components must be positive")),
            ("views", {(999, "intrinsics", "fx"): -500.0, (500, "pose", "rotation"): _SKEWED},
             "views[500]", ("views[500].pose", "rotation must be finite and orthonormal")),
            ("views", {(500, "intrinsics", "fx"): -500.0, (999, "pose", "rotation"): _SKEWED},
             "views[500]", ("views[500].intrinsics", "focal lengths must be positive")),
        ],
    )
    def test_walk_builds_one_entry(
        self, tmp_path, monkeypatch, big_scene, table, edits, walked, error
    ):
        payload = copy.deepcopy(big_scene)
        for keys, value in edits.items():
            _edited(payload, (table, *keys), copy.deepcopy(value))
        name = "_view_record" if table == "views" else "_object_record"
        record, walks = getattr(egoview.scene, name), []

        def counted(entry, where):
            walks.append(where)
            return record(entry, where)

        monkeypatch.setattr(egoview.scene, name, counted)
        with pytest.raises(SchemaError) as excinfo:
            load_scene(_write_scene(tmp_path, payload))
        assert (excinfo.value.field, excinfo.value.reason) == error
        assert walks == [walked]


def _leaf_keys(node: dict, prefix=()):
    """Key paths of the values below `node` that are not objects."""
    for key, child in node.items():
        if isinstance(child, dict):
            yield from _leaf_keys(child, (*prefix, key))
        else:
            yield (*prefix, key)


class TestSchemaDrift:
    """The field tables, a generated scene and the module docstring's schema
    name the same keys."""

    @pytest.mark.parametrize(
        "table,fields,index",
        [("objects", egoview.scene._OBJECT_FIELDS, 0), ("views", egoview.scene._VIEW_FIELDS, 1)],
    )
    def test_field_table_matches_scene_and_docstring(self, table, fields, index):
        rows = [keys for keys, _, _ in fields]
        assert len(set(rows)) == len(rows)
        assert sorted(rows) == sorted(_leaf_keys(base_scene()[table][index]))
        schema = egoview.scene.__doc__.split("\n\n")[2]
        documented = schema.split(f'"{table}": ')[1].split('"views": ')[0]
        named = set(re.findall(r'(?<!: )"(\w+)"', documented))  # ': "..."' is a value
        assert named == {key for keys in rows for key in keys}

    def test_top_level_table_matches_scene_file_and_docstring(self, data_dir):
        rows = [keys for keys, _, _ in egoview.scene._SCENE_FIELDS]
        assert all(len(keys) == 1 for keys in rows)
        scene = json.loads((data_dir / "scenes" / "scene-a.json").read_text(encoding="utf-8"))
        assert sorted(keys[0] for keys in rows) == sorted(scene)
        schema = egoview.scene.__doc__.split("\n\n")[2]
        top_level = re.sub(r"\[\{.*?\}\]", "", schema, flags=re.DOTALL)  # drop the entries
        assert set(re.findall(r'"(\w+)"\??:', top_level)) == set(scene)


class TestSceneRules:
    """A Scene built in code is held to the loader's rules, with its reasons."""

    @staticmethod
    def _loader_error(tmp_path, data_dir, keys, value) -> tuple:
        scene = json.loads((data_dir / "scenes" / "scene-a.json").read_text(encoding="utf-8"))
        with pytest.raises(SchemaError) as excinfo:
            load_scene(_write_scene(tmp_path, _edited(scene, keys, value)))
        return excinfo.value.field, excinfo.value.reason

    @pytest.mark.parametrize("value", [5, None, "\ud800"])
    def test_scene_id(self, tmp_path, data_dir, value):
        """An empty id and a bad split: see TestLoadScene and TestColumnLoad."""
        expected = self._loader_error(tmp_path, data_dir, ("scene_id",), value)
        assert expected[0] == "scene.scene_id"
        with pytest.raises(RuleError) as built:
            Scene(value, [], [], "train")
        assert (built.value.field, built.value.reason) == expected

    @pytest.mark.parametrize(
        "table,index,key,value",
        [("views", 3, "view_id", ""), ("views", 3, "view_id", 7), ("views", 0, "view_id", "\ud800"),
         ("objects", 2, "object_id", "a"), ("objects", 2, "object_id", True),
         ("objects", 1, "label", 7), ("views", 0, "image_path", 5),
         ("views", 2, "image_path", "\ud800")],
    )
    def test_records_with_a_bad_id_or_label(self, tmp_path, data_dir, scene_a, table, index, key, value):
        """scene-a's own records, one of them edited after it was built."""
        expected = self._loader_error(tmp_path, data_dir, (table, index, key), value)
        records = {"objects": list(scene_a.objects), "views": list(scene_a.views)}
        setattr(records[table][index], key, value)
        with pytest.raises(RuleError) as built:
            Scene("scene-a", records["objects"], records["views"], "train")
        assert (built.value.field, built.value.reason) == expected

    def test_table_with_an_empty_label(self, tmp_path, data_dir, scene_a):
        expected = self._loader_error(tmp_path, data_dir, ("objects", 4, "label"), "")
        assert expected == ("objects[4]", "label must be non-empty")
        labels = list(scene_a.objects.labels)
        labels[4] = ""
        objects = dataclasses.replace(scene_a.objects, labels=tuple(labels))
        with pytest.raises(RuleError) as built:
            Scene("scene-a", objects, scene_a.views, "train")
        assert (built.value.field, built.value.reason) == expected

    @pytest.mark.parametrize(
        "edits,field",
        [
            ({("scene_id",): "", ("objects", 0, "object_id"): "x"}, "scene.scene_id"),
            ({("objects", 0, "object_id"): "x", ("points_path",): 5}, "objects[0].object_id"),
        ],
        ids=["scene_id-before-objects", "objects-before-points_path"],
    )
    def test_error_order_across_two_faults(self, tmp_path, edits, field):
        payload = scene_payload(points_path="points/s1.ply")
        for keys, value in edits.items():
            _edited(payload, keys, value)
        fast, reference = _both_decoders(_write_scene(tmp_path, payload))
        assert fast == reference
        assert fast[:2] == ("SchemaError", field)


class TestStrictIntegers:
    """Ids, image sizes and view counts accept JSON integers only."""

    @pytest.mark.parametrize(
        "reader,record,field",
        [
            (
                read_instructions,
                {"instruction_id": "i", "scene_id": "s", "task": "qa", "text": "?",
                 "answer": "a", "related_object_ids": [1, 2.5]},
                "related_object_ids[1]",
            ),
            (
                read_instructions,
                {"instruction_id": "i", "scene_id": "s", "task": "dc", "text": "d",
                 "target_object_id": True},
                "target_object_id",
            ),
            (
                read_triplets,
                {"triplet_id": "t", "scene_id": "s", "view_id": "v", "object_ids": [False],
                 "text": "x", "source": "extended_qa"},
                "object_ids[0]",
            ),
            (
                read_questions,
                {"question_id": "q", "scene_id": "s", "text": "?", "answer": "a",
                 "related_object_ids": [3.0]},
                "related_object_ids[0]",
            ),
            (
                read_gold,
                {"question_id": "q", "answer": "a", "min_views": 2.5},
                "min_views",
            ),
            *(
                (
                    read_instructions,
                    {"instruction_id": "i", "scene_id": "s", "task": "qa", "text": "?",
                     "answer": "a", "related_object_ids": ids},
                    "related_object_ids",
                )
                for ids in (5, "12", {"a": 1})
            ),
            *(
                (
                    read_questions,
                    {"question_id": "q", "scene_id": "s", "text": "?", "answer": "a",
                     "related_object_ids": ids},
                    "related_object_ids",
                )
                for ids in (5, "12", {"a": 1})
            ),
            *(
                (
                    read_triplets,
                    {"triplet_id": "t", "scene_id": "s", "view_id": "v", "object_ids": ids,
                     "text": "x", "source": "extended_qa"},
                    "object_ids",
                )
                for ids in (5, "12", {"a": 1})
            ),
            (
                read_instructions,
                {"instruction_id": "i", "scene_id": "s", "task": "dc", "text": "describe"},
                "target_object_id",
            ),
            (
                read_questions,
                {"question_id": "q", "scene_id": "s", "text": "?", "answer": "a",
                 "related_object_ids": []},
                "related_object_ids",
            ),
        ],
    )
    def test_record_fields(self, tmp_path, reader, record, field):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            reader(path)
        assert excinfo.value.field == f"{path}:1.{field}"


class TestStrictText:
    """Ids, labels and texts accept JSON strings only; optional ones also null."""

    @pytest.mark.parametrize(
        "reader,record,field,reason",
        [
            (
                read_instructions,
                {"instruction_id": "i", "scene_id": "s", "task": "qa", "text": ["what"],
                 "answer": "a"},
                "text",
                "must be a string, got ['what']",
            ),
            (
                read_instructions,
                {"instruction_id": 7, "scene_id": "s", "task": "qa", "text": "?", "answer": "a"},
                "instruction_id",
                "must be a string, got 7",
            ),
            (
                read_instructions,
                {"instruction_id": "i", "scene_id": "s", "task": "qa", "text": "?", "answer": 3},
                "answer",
                "must be a string or null, got 3",
            ),
            (
                read_triplets,
                {"triplet_id": "t", "scene_id": "s", "view_id": 4, "object_ids": [1],
                 "text": "x", "source": "extended_qa"},
                "view_id",
                "must be a string, got 4",
            ),
            (
                read_triplets,
                {"triplet_id": "t", "scene_id": "s", "view_id": "v", "object_ids": [1],
                 "text": "x", "source": "extended_qa",
                 "provenance": {"parent_instruction_id": ["i"]}},
                "provenance.parent_instruction_id",
                "must be a string or null, got ['i']",
            ),
            (
                read_questions,
                {"question_id": "q", "scene_id": "s", "text": "?", "answer": 2,
                 "related_object_ids": [3]},
                "answer",
                "must be a string, got 2",
            ),
            (read_gold, {"question_id": "q", "answer": None}, "answer", "must be a string, got None"),
            (
                read_predictions,
                {"question_id": "q", "prediction": None},
                "prediction",
                "must be a string, got None",
            ),
            (
                read_triplets,
                {"triplet_id": "t", "scene_id": "s", "view_id": "v", "object_ids": [1],
                 "text": "x", "source": "extended_qa", "provenance": None},
                "provenance",
                "must be an object, got None",
            ),
            *(
                (
                    read_triplets,
                    {"triplet_id": "t", "scene_id": "s", "view_id": "v", "object_ids": [1],
                     "text": "x", "source": "extended_qa",
                     "provenance": {"retrieval_score": score}},
                    "provenance.retrieval_score",
                    f"must be a finite number or null, got {score!r}",
                )
                for score in ("high", True, [1], math.nan, 10**400)
            ),
            (
                read_instructions,
                {"instruction_id": "i", "scene_id": "s", "task": "retrieval", "text": "x"},
                "task",
                "must be one of ('qa', 'dc', 'caption'), got 'retrieval'",
            ),
            *(
                (
                    read_instructions,
                    {"instruction_id": "i", "scene_id": "s", "task": "qa", "text": "?", **answer},
                    "answer",
                    f"must be a non-empty string for a qa instruction, got {value!r}",
                )
                for answer, value in (({}, None), ({"answer": ""}, ""))
            ),
            (
                read_questions,
                {"question_id": "q", "scene_id": "s", "text": "?", "answer": "",
                 "related_object_ids": [3]},
                "answer",
                "must be non-empty",
            ),
            (
                read_triplets,
                {"triplet_id": "t", "scene_id": "s", "view_id": "v", "object_ids": [1],
                 "text": "", "source": "extended_qa"},
                "text",
                "must be non-empty",
            ),
            (
                read_triplets,
                {"triplet_id": "t", "scene_id": "s", "view_id": "v", "object_ids": [1],
                 "text": "x", "source": "imagined"},
                "source",
                "must be one of ('generated_caption', 'extended_qa', 'extended_dc'), "
                "got 'imagined'",
            ),
        ],
    )
    def test_record_fields(self, tmp_path, reader, record, field, reason):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            reader(path)
        assert excinfo.value.field == f"{path}:1.{field}"
        assert excinfo.value.reason == reason

    def test_optional_fields_accept_null(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            json.dumps({"instruction_id": "i", "scene_id": "s", "task": "caption", "text": "x",
                        "answer": None}) + "\n",
            encoding="utf-8",
        )
        assert read_instructions(path)[0].answer is None
        path.write_text(
            json.dumps({"triplet_id": "t", "scene_id": "s", "view_id": "v", "object_ids": [1],
                        "text": "x", "source": "extended_qa",
                        "provenance": {"parent_instruction_id": None}}) + "\n",
            encoding="utf-8",
        )
        assert read_triplets(path)[0].provenance.parent_instruction_id is None
        for score in (None, 0, 0.25):
            path.write_text(
                json.dumps({"triplet_id": "t", "scene_id": "s", "view_id": "v",
                            "object_ids": [1], "text": "x", "source": "extended_qa",
                            "provenance": {"retrieval_score": score}}) + "\n",
                encoding="utf-8",
            )
            assert read_triplets(path)[0].provenance.retrieval_score == score

    @pytest.mark.parametrize(
        "keys,value,field",
        [
            (("scene_id",), 12, "scene.scene_id"),
            (("points_path",), ["a.ply"], "scene.points_path"),
            (("objects", 1, "label"), None, "objects[1].label"),
            (("views", 3, "view_id"), 3, "views[3].view_id"),
            (("views", 5, "image_path"), 1.5, "views[5].image_path"),
        ],
    )
    def test_scene_fields(self, tmp_path, data_dir, keys, value, field):
        scene = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        target = scene
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene), encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_scene(path)
        assert excinfo.value.field == field
        assert excinfo.value.reason.startswith("must be a string")

    def test_null_image_and_points_paths_load(self, tmp_path, data_dir):
        scene = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        scene["points_path"] = None
        scene["views"][0]["image_path"] = None
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene), encoding="utf-8")
        assert load_scene(path).views[0].image_path is None


class TestInstructionIO:
    def test_read_fixture(self, data_dir):
        instructions = read_instructions(data_dir / "instructions_solvability.jsonl")
        assert [i.instruction_id for i in instructions] == ["i1", "i2", "i3", "i4", "i5"]

    def test_dc_requires_target(self):
        with pytest.raises(ValueError):
            Instruction("i", "s", "dc", "describe")

    def test_qa_requires_answer(self):
        with pytest.raises(ValueError):
            Instruction("i", "s", "qa", "what?")

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            Instruction("i", "s", "retrieval", "x")


class TestBuildCaptionTriplets:
    def test_fixture_run(self, scene_a):
        stub = StubModelService()
        cfg = CaptionBuildConfig(stride=4, num_captions=3, threshold=0.2, tau=0.5)
        records = build_caption_triplets({"scene-a": scene_a}, stub, cfg, config_hash="abc")
        # Views v01, v05, v09 sampled; every stub caption clears 0.2.
        assert len(records) == 9
        assert [r.view_id for r in records[:3]] == ["v01", "v01", "v01"]
        assert records[0].triplet_id == "cap:scene-a:v01:0"
        assert records[0].text == "a view containing chair and desk"
        assert records[0].object_ids == {1, 2}
        assert records[0].source == "generated_caption"
        assert records[0].provenance.retrieval_score == pytest.approx(2 / 6)
        assert records[0].provenance.config_hash == "abc"

    def test_threshold_above_stub_range_drops_everything(self, scene_a):
        stub = StubModelService()
        cfg = CaptionBuildConfig(stride=4, num_captions=2, threshold=1.1)
        assert build_caption_triplets({"scene-a": scene_a}, stub, cfg) == []

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, "0.5", None, True])
    def test_threshold_must_be_a_finite_number(self, threshold):
        with pytest.raises(ValueError, match="^threshold must be a finite number, got "):
            CaptionBuildConfig(threshold=threshold)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_tau_must_be_in_the_open_unit_interval(self, tau):
        with pytest.raises(ValueError, match=r"^tau must be in \(0, 1\)$"):
            CaptionBuildConfig(tau=tau)

    def test_stride_beyond_view_count_keeps_first_view(self, scene_a):
        stub = StubModelService()
        cfg = CaptionBuildConfig(stride=99, num_captions=1, threshold=0.0)
        records = build_caption_triplets({"scene-a": scene_a}, stub, cfg)
        assert {r.view_id for r in records} == {"v01"}

    def test_record_bound_and_equality_condition(self, scene_a):
        stub = StubModelService()
        cfg = CaptionBuildConfig(stride=4, num_captions=3, threshold=0.0)
        records = build_caption_triplets({"scene-a": scene_a}, stub, cfg)
        sampled_views = len(scene_a.views[::4])
        assert len(records) == sampled_views * cfg.num_captions

    def test_deterministic(self, scene_a):
        cfg = CaptionBuildConfig(stride=4, num_captions=3, threshold=0.2)
        run1 = build_caption_triplets({"scene-a": scene_a}, StubModelService(), cfg)
        run2 = build_caption_triplets({"scene-a": scene_a}, StubModelService(), cfg)
        assert [record_json(r) for r in run1] == [record_json(r) for r in run2]


class TestExtendDatasetTriplets:
    def test_fixture_run(self, data_dir, scenes):
        instructions = read_instructions(data_dir / "instructions_extend.jsonl")
        stub = StubModelService()
        records = extend_dataset_triplets(instructions, scenes, stub, config_hash="h")
        by_id = {r.triplet_id: r for r in records}
        assert len(records) == 5

        e1 = by_id["ext:e1"]
        assert e1.view_id == "v01"  # ties with v12 break to the smaller id
        assert e1.source == "extended_qa"
        assert e1.text == "where is the desk and the chair by the window"
        assert e1.object_ids == {1, 2}
        assert e1.provenance.parent_instruction_id == "e1"

        e2 = by_id["ext:e2"]
        assert e2.view_id == "v08"
        assert e2.source == "extended_dc"
        assert e2.text == "describe the sofa"
        assert e2.object_ids == {5, 6}
        assert e2.provenance.retrieval_score == 1.0

        assert by_id["ext:e3"].view_id == "w01"
        assert by_id["ext:e4"].view_id == "v04"
        assert by_id["ext:e5"].view_id == "v03"

    def test_unknown_scene(self, scenes):
        bad = Instruction("x", "ghost", "qa", "where?", answer="here", related_object_ids={1})
        with pytest.raises(UnknownScene):
            extend_dataset_triplets([bad], scenes, StubModelService())

    def test_invisible_dc_target_is_skipped_not_fatal(self, caplog):
        intr = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
        scene = Scene(
            scene_id="mini",
            objects=[SceneObject(1, "ghost lamp", OrientedBox3D((0, 0, -5), (0.5, 0.5, 0.5)))],
            views=[View("v1", intr, CameraPose(np.eye(3), np.zeros(3)))],
            split="train",
        )
        ins = Instruction("d1", "mini", "dc", "describe the lamp", target_object_id=1)
        with caplog.at_level("WARNING"):
            records = extend_dataset_triplets([ins], {"mini": scene}, StubModelService())
        assert records == []
        assert any("skipping d1" in message for message in caplog.messages)

    def test_unknown_dc_target_is_fatal(self, scenes):
        ins = Instruction("d2", "scene-a", "dc", "describe", target_object_id=77)
        with pytest.raises(UnknownObjectId):
            extend_dataset_triplets([ins], scenes, StubModelService())

    def test_caption_task_treated_as_qa(self, scenes):
        ins = Instruction("c1", "scene-a", "caption", "a desk with a chair")
        records = extend_dataset_triplets([ins], scenes, StubModelService())
        assert records[0].source == "extended_qa"
        assert records[0].text == "a desk with a chair"  # no answer appended


class _NoSidecar:
    """A model client shaped as the remote one: it takes no view labels.
    Every caption it gives scores 1, so a threshold of 0 keeps them all."""

    def caption_image(self, image_ref, n):
        return ["a view"] * n

    def score_image_text(self, image_ref, texts):
        return (1.0,) * len(texts)


class TestClientWithoutSidecar:
    """A client without `register_view_labels` gets the same visible-object
    sets as the stub, which takes each view's labels."""

    @staticmethod
    def _visible(scenes, client) -> dict:
        cfg = CaptionBuildConfig(stride=1, num_captions=1, threshold=0.0)
        return {
            (r.scene_id, r.view_id): r.object_ids
            for r in build_caption_triplets(scenes, client, cfg)
        }

    def test_captions(self, scenes):
        visible = self._visible(scenes, StubModelService())
        assert self._visible(scenes, _NoSidecar()) == visible
        assert len(visible) == sum(len(scene.views) for scene in scenes.values())

    def test_extend(self, data_dir, scenes):
        visible = self._visible(scenes, StubModelService())
        instructions = read_instructions(data_dir / "instructions_extend.jsonl")
        records = extend_dataset_triplets(instructions, scenes, _NoSidecar())
        assert len(records) == len(instructions)
        assert all(r.object_ids == visible[r.scene_id, r.view_id] for r in records)


def _blind_view(view_id: str) -> View:
    """A view high above the room looking up: it aligns no object."""
    intr = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    return View(view_id, intr, CameraPose(np.eye(3), (3.0, 2.5, 50.0)))


class TestAlignedIds:
    """Every triplet's object set is its view's row of the alignment table,
    with the stub and with a client that takes no view labels."""

    TAU = 0.5

    @staticmethod
    def _scenes() -> dict[str, Scene]:
        views, objects = random_posed_scene(np.random.default_rng(97), 14, 11)
        views.insert(5, _blind_view("v-blind"))
        return {
            "posed": Scene("posed", objects, views, "train"),
            "bare": Scene("bare", [], [_blind_view("b0"), *views[:3]], "train"),
        }

    @classmethod
    def _rows(cls, scene: Scene) -> dict[str, frozenset[int]]:
        table = WitnessTable.build(scene.objects, scene.views, alignment(cls.TAU))
        return {
            view_id: frozenset(compress(table.objects.ids, row))
            for view_id, row in zip(scene.views.ids, table.matrix.tolist())
        }

    def test_scenes_hold_the_cases(self):
        scenes = self._scenes()
        rows = self._rows(scenes["posed"])
        assert rows["v-blind"] == frozenset()
        assert len(set(rows.values())) > 3
        assert len(scenes["bare"].objects) == 0 and len(scenes["bare"].views) == 4

    @pytest.mark.parametrize("client", [StubModelService, _NoSidecar])
    def test_captions(self, client):
        cfg = CaptionBuildConfig(stride=1, num_captions=1, threshold=0.0, tau=self.TAU)
        for scene in self._scenes().values():
            records = build_caption_triplets({scene.scene_id: scene}, client(), cfg)
            assert [r.view_id for r in records] == list(scene.views.ids)
            rows = self._rows(scene)
            assert all(r.object_ids == rows[r.view_id] for r in records)

    @pytest.mark.parametrize("client", [StubModelService, _NoSidecar])
    def test_extend(self, client):
        scenes = self._scenes()
        texts = ["where is obj3", "obj1 and obj7 near obj10", "nothing named here"]
        instructions = [
            Instruction(f"{scene_id}-q{k}", scene_id, "qa", text, answer="here")
            for scene_id in scenes
            for k, text in enumerate(texts)
        ] + [
            Instruction(f"posed-d{j}", "posed", "dc", "describe it", target_object_id=j)
            for j in scenes["posed"].objects.ids
        ]
        cfg = CaptionBuildConfig(tau=self.TAU)
        records = extend_dataset_triplets(instructions, scenes, client(), cfg)
        rows = {scene_id: self._rows(scene) for scene_id, scene in scenes.items()}
        assert {r.scene_id for r in records} == set(scenes)
        assert all(r.object_ids == rows[r.scene_id][r.view_id] for r in records)


class _CountingStub(StubModelService):
    """The stub, recording each scoring call and the name of every service
    method called."""

    def __init__(self):
        super().__init__()
        self.score_calls: list[tuple[str, tuple[str, ...]]] = []
        self.calls: list[str] = []

    def register_view_labels(self, image_ref, labels):
        self.calls.append("register_view_labels")
        return super().register_view_labels(image_ref, labels)

    def caption_image(self, image_ref, n):
        self.calls.append("caption_image")
        return super().caption_image(image_ref, n)

    def score_image_text(self, image_ref, texts):
        self.calls.append("score_image_text")
        self.score_calls.append((image_ref, tuple(texts)))
        return super().score_image_text(image_ref, texts)


def _mini_scene(scene_id: str, label: str, views=("v1", "v2"), center=(0, 0, 2.5)) -> Scene:
    """One object, by default straight ahead of view v1; v2 looks past it."""
    intr = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    return Scene(
        scene_id=scene_id,
        objects=[SceneObject(1, label, OrientedBox3D(center, (0.5, 0.5, 0.5)))],
        views=[
            View(view_id, intr, CameraPose(np.eye(3), (100.0 * i, 0, 0)))
            for i, view_id in enumerate(views)
        ],
        split="train",
    )


class TestExtendBatching:
    """extend selects views once per scene, and checks every instruction first."""

    def test_one_score_call_per_view_and_one_projection_per_scene(
        self, data_dir, scenes, monkeypatch
    ):
        fixture = read_instructions(data_dir / "instructions_extend.jsonl")
        instructions = fixture + [
            Instruction(f"{ins.instruction_id}-again", ins.scene_id, ins.task, ins.text,
                        ins.answer, ins.related_object_ids, ins.target_object_id)
            for ins in fixture
        ]
        overlaps, inside, stray = [], [], []
        image_overlap, project_pairs = geometry.image_overlap, geometry._project_pairs

        def counting_image_overlap(corners, views):
            overlaps.append((len(corners), views.ids))
            inside.append(True)
            try:
                return image_overlap(corners, views)
            finally:
                inside.pop()

        def checked_project_pairs(corners, *cameras):
            if not inside:
                stray.append(len(corners))
            return project_pairs(corners, *cameras)

        monkeypatch.setattr(geometry, "image_overlap", counting_image_overlap)
        monkeypatch.setattr(geometry, "_project_pairs", checked_project_pairs)
        stub = _CountingStub()
        records = extend_dataset_triplets(instructions, scenes, stub)

        assert [r.triplet_id for r in records] == [f"ext:{i.instruction_id}" for i in instructions]
        texts = {
            scene_id: tuple(dict.fromkeys(
                i.text for i in fixture if i.scene_id == scene_id and i.task != "dc"
            ))
            for scene_id in ("scene-a", "scene-b")
        }
        assert stub.score_calls == [
            (ref, texts[scene_id])
            for scene_id in ("scene-a", "scene-b")
            for ref in image_refs(scenes[scene_id].views)
        ]
        # One overlap per scene, of all of its objects in all of its views,
        # read by the sidecar and by scene-a's dc picks; nothing else projects.
        assert overlaps == [
            (len(scenes[scene_id].objects), scenes[scene_id].views.ids)
            for scene_id in ("scene-a", "scene-b")
        ]
        assert stray == []
        single = extend_dataset_triplets(fixture, scenes, StubModelService())
        assert [record_json(r) for r in records[: len(fixture)]] == [
            record_json(r) for r in single
        ]

    def test_score_calls_have_the_shape_the_tracer_counts(self, data_dir, scenes, monkeypatch):
        # The benchmark's tracer counts calls of and texts passed to this
        # binding: one call per view per scene, carrying that scene's
        # distinct qa and caption texts.
        instructions = read_instructions(data_dir / "instructions_extend.jsonl") + [
            Instruction("c1", "scene-a", "caption", "a desk by the window"),
            Instruction("q1", "scene-a", "qa", "where is the desk and the chair", answer="here"),
            Instruction("c2", "scene-b", "caption", "a desk by the window"),
        ]
        calls = []
        score_image_text = StubModelService.score_image_text

        def counting_score_image_text(self, image_ref, texts):
            calls.append((image_ref, tuple(texts)))
            return score_image_text(self, image_ref, texts)

        monkeypatch.setattr(StubModelService, "score_image_text", counting_score_image_text)
        extend_dataset_triplets(instructions, scenes, StubModelService())
        texts = {
            "scene-a": ("where is the desk and the chair", "a desk by the window"),
            "scene-b": ("is there a plant by the mirror", "a desk by the window"),
        }
        assert calls == [
            (ref, texts[scene_id])
            for scene_id in ("scene-a", "scene-b")
            for ref in image_refs(scenes[scene_id].views)
        ]
        views = sum(len(scenes[scene_id].views) for scene_id in texts)
        assert len(calls) == views
        assert sum(len(call_texts) for _, call_texts in calls) == 2 * views

    @pytest.mark.parametrize(
        "order,error,message",
        [
            (("unknown-target", "ghost-scene"), UnknownObjectId, "unknown target object id 77"),
            (("ghost-scene", "unknown-target"), UnknownScene, "scene 'ghost' is not loaded"),
            (("no-views", "unknown-target"), NoViews, "scene 'bare' has no views"),
            (("ok", "unknown-target", "no-views"), UnknownObjectId, "unknown target object id 77"),
        ],
    )
    def test_first_offending_instruction_raises(self, scenes, order, error, message):
        scenes = {**scenes, "bare": _mini_scene("bare", "desk", views=())}
        make = {
            "ok": Instruction("a", "scene-a", "qa", "where is the desk", answer="here"),
            "unknown-target": Instruction("b", "scene-a", "dc", "describe", target_object_id=77),
            "ghost-scene": Instruction("c", "ghost", "qa", "where?", answer="here"),
            "no-views": Instruction("d", "bare", "qa", "where is the desk", answer="here"),
        }
        stub = _CountingStub()
        with pytest.raises(error) as excinfo:
            extend_dataset_triplets([make[name] for name in order], scenes, stub)
        first = next(make[name] for name in order if name != "ok")
        assert str(excinfo.value) == f"instruction {first.instruction_id!r}: {message}"
        assert stub.score_calls == []

    def test_the_error_comes_before_any_warning(self, caplog):
        scene = _mini_scene("mini", "lamp", center=(0, 0, -5))  # behind every view
        instructions = [
            Instruction("d1", "mini", "dc", "describe the lamp", target_object_id=1),
            Instruction("d2", "mini", "dc", "describe the lamp", target_object_id=1),
            Instruction("q1", "ghost", "qa", "where?", answer="here"),
        ]
        with caplog.at_level("WARNING"), pytest.raises(UnknownScene):
            extend_dataset_triplets(instructions, {"mini": scene}, StubModelService())
        assert caplog.messages == []

    def test_scenes_sharing_view_ids_score_against_their_own_labels(self):
        # Both scenes name their views v1 and v2 with no image path, so their
        # stub label sidecars share keys.
        scenes = {"x": _mini_scene("x", "desk"), "y": _mini_scene("y", "bed")}
        instructions = [
            Instruction("x1", "x", "qa", "where is the desk", answer="here"),
            Instruction("y1", "y", "qa", "where is the bed", answer="here"),
            Instruction("x2", "x", "qa", "the desk", answer="here"),
        ]
        records = extend_dataset_triplets(instructions, scenes, StubModelService())
        assert [(r.view_id, r.provenance.retrieval_score) for r in records] == [
            ("v1", 0.25), ("v1", 0.25), ("v1", 0.5)
        ]


class TestBuildersCheckTheirInputs:
    """Each builder checks its scene map before any service call, so a
    library caller gets the errors the CLI reports."""

    @staticmethod
    def _shared_image() -> dict[str, Scene]:
        # v1 shows the desk and v2 the sofa, but both name one image, which
        # the services would take for one view.
        intr = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
        scene = Scene(
            scene_id="room",
            objects=[
                SceneObject(1, "desk", OrientedBox3D((0, 0, 2.5), (0.5, 0.5, 0.5))),
                SceneObject(2, "sofa", OrientedBox3D((100, 0, 2.5), (0.5, 0.5, 0.5))),
            ],
            views=[
                View(view_id, intr, CameraPose(np.eye(3), (100.0 * i, 0, 0)), "frames/a.jpg")
                for i, view_id in enumerate(("v1", "v2"))
            ],
            split="train",
        )
        return {"room": scene}

    SHARED = "scene 'room': views 'v1' and 'v2' share the image reference 'frames/a.jpg'"

    def test_captions_refuse_views_sharing_an_image(self):
        stub = _CountingStub()
        with pytest.raises(DuplicateId) as excinfo:
            build_caption_triplets(self._shared_image(), stub, CaptionBuildConfig(stride=1))
        assert str(excinfo.value) == self.SHARED
        assert stub.calls == []

    def test_extend_refuses_views_sharing_an_image_before_checking_instructions(self):
        # The instruction names a scene that is not loaded; the image check,
        # over every scene in the map, comes first.
        stub = _CountingStub()
        ghost = Instruction("q", "ghost", "qa", "where is the desk", answer="here")
        with pytest.raises(DuplicateId) as excinfo:
            extend_dataset_triplets([ghost], self._shared_image(), stub)
        assert str(excinfo.value) == self.SHARED
        assert stub.calls == []

    def test_captions_claim_every_id_before_any_caption(self):
        # Scene 'a' with view 'b:c' and scene 'a:b' with view 'c' both caption 'cap:a:b:c:0'.
        scenes = {
            "a": _mini_scene("a", "desk", views=("b:c",)),
            "a:b": _mini_scene("a:b", "desk", views=("c",)),
        }
        stub = _CountingStub()
        with pytest.raises(DuplicateId) as excinfo:
            build_caption_triplets(scenes, stub, CaptionBuildConfig(threshold=0.0))
        assert str(excinfo.value) == (
            "scene 'a:b' view 'c' caption 0: id 'cap:a:b:c:0' already used at "
            "scene 'a' view 'b:c' caption 0"
        )
        assert stub.calls == []


class TestTripletIO:
    def test_round_trip_is_byte_stable(self, scene_a, tmp_path):
        stub = StubModelService()
        cfg = CaptionBuildConfig(stride=4, num_captions=2, threshold=0.2)
        records = build_caption_triplets({"scene-a": scene_a}, stub, cfg, config_hash="h")
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        with OutputFiles() as outputs:
            write_jsonl(first, records, {"seed": 7}, outputs)
        reread = read_triplets(first)
        with OutputFiles() as outputs:
            write_jsonl(second, reread, {"seed": 7}, outputs)
        assert first.read_bytes() == second.read_bytes()

    def test_provenance_header_is_skipped_on_read(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record = TripletRecord(
            triplet_id="t1",
            scene_id="s",
            view_id="v",
            object_ids=frozenset({2, 1}),
            text="x",
            source="extended_qa",
            provenance=TripletProvenance(config_hash="h"),
        )
        with OutputFiles() as outputs:
            write_jsonl(path, [record], {"seed": 7}, outputs)
        loaded = read_triplets(path)
        assert len(loaded) == 1
        assert loaded[0].object_ids == {1, 2}

    def test_repeated_triplet_id_names_both_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [
            TripletRecord(
                triplet_id=triplet_id,
                scene_id="s",
                view_id=view_id,
                object_ids=frozenset({1}),
                text="x",
                source="extended_qa",
                provenance=TripletProvenance(config_hash="h"),
            )
            for triplet_id, view_id in [("t", "v1"), ("u", "v1"), ("t", "v2")]
        ]
        message = f"{path}:4: id 't' already used at {path}:2"
        with pytest.raises(DuplicateId) as excinfo, OutputFiles() as outputs:
            write_jsonl(path, records, {"seed": 7}, outputs)
        assert str(excinfo.value) == message
        assert not path.exists()
        lines = [{"record": "provenance"}, *map(record_json, records)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(DuplicateId) as excinfo:
            read_triplets(path)
        assert str(excinfo.value) == message

    def test_triplets_reference_only_scene_views_and_objects(self, scenes, golden_dir):
        for name in ("triplets_captions.jsonl", "triplets_extend.jsonl"):
            for record in read_triplets(golden_dir / name):
                scene = scenes[record.scene_id]
                assert record.view_id in scene.views.ids
                assert record.object_ids <= set(scene.objects.ids)

    def test_invalid_source_rejected(self):
        with pytest.raises(ValueError):
            TripletRecord(
                triplet_id="t",
                scene_id="s",
                view_id="v",
                object_ids=frozenset(),
                text="x",
                source="imagined",
                provenance=TripletProvenance(),
            )
