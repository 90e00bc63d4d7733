"""Scene-boundary error golden: every mutation at every JSON path of a small
generated scene, loaded with `load_scene`, and its outcome pinned.

The outcome of a case is the error type with its field and reason (or its
message, for DuplicateId), or "loads".  `tests/golden/scene_errors.jsonl`
holds one line per case; nothing but SchemaError and DuplicateId may escape.
Both decode paths reproduce it: orjson, which hands what it refuses to the
stdlib decoder, and the stdlib decoder alone.
A property test runs sampled cases through the `solvability` command: each
exits 0 or 2, an error names the file and the mutated entry, and no output
or temp file is left behind a failure.

Regenerate the golden from the repository root with
`PYTHONPATH=src python3 -m tests.test_scene_errors`.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egoview.scene
from egoview.cli import main
from egoview.errors import DuplicateId, SchemaError
from egoview.scene import load_scene

from .scenegen import random_posed_scene, scene_to_dict

GOLDEN = Path(__file__).parent / "golden" / "scene_errors.jsonl"

# Replacement values, named as they appear in the golden.
VALUES = {
    "null": None,
    "true": True,
    "1.5": 1.5,
    "1e400": 10**400,
    "nan": math.nan,
    "'x'": "x",
    "list": [1.5],
    "object": {},
}


def base_scene() -> dict:
    """Three views (the second with an image path) and three objects."""
    views, objects = random_posed_scene(np.random.default_rng(5), 3, 3)
    scene = scene_to_dict(views, objects, scene_id="mutated")
    scene["views"][1]["image_path"] = "frames/v01.jpg"
    return scene


def _paths(node, prefix=()):
    """Key paths of every value below `node`, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from _paths(child, (*prefix, key))


def _path_name(keys) -> str:
    name = ""
    for key in keys:
        name += f"[{key}]" if isinstance(key, int) else f".{key}" if name else key
    return name


def mutation_names(scene: dict, keys) -> list[str]:
    """The mutations that apply at the key path `keys` of `scene`."""
    parent = scene
    for key in keys[:-1]:
        parent = parent[key]
    names = ["delete", *VALUES]
    if isinstance(parent[keys[-1]], list):
        names.append("empty")
    if isinstance(parent, list):
        names.append("duplicate")
    return names


def mutated(scene: dict, keys, mutation: str) -> dict:
    """A copy of `scene` with `mutation` applied at the key path `keys`."""
    scene = copy.deepcopy(scene)
    target = scene
    for key in keys[:-1]:
        target = target[key]
    last = keys[-1]
    if mutation == "delete":
        del target[last]
    elif mutation == "empty":
        target[last] = []
    elif mutation == "duplicate":
        target.insert(last + 1, copy.deepcopy(target[last]))
    else:
        target[last] = copy.deepcopy(VALUES[mutation])
    return scene


def _mutations(scene: dict):
    """(path name, mutation name, mutated scene) for every case."""
    for keys in _paths(scene):
        for mutation in mutation_names(scene, keys):
            yield _path_name(keys), mutation, mutated(scene, keys, mutation)


def _outcome(path: Path):
    try:
        load_scene(path)
    except SchemaError as exc:
        return {"error": "SchemaError", "field": exc.field, "reason": exc.reason}
    except DuplicateId as exc:
        return {"error": "DuplicateId", "message": str(exc)}
    return "loads"


def scene_error_cases(workdir: Path) -> list[dict]:
    """Every case with its outcome; anything else raised propagates."""
    path = workdir / "scene.json"
    cases = []
    for where, mutation, scene in _mutations(base_scene()):
        path.write_text(json.dumps(scene), encoding="utf-8")
        cases.append({"path": where, "mutation": mutation, "outcome": _outcome(path)})
    return cases


def _lines(cases) -> list[str]:
    return [json.dumps(case, ensure_ascii=False) for case in cases]


def refuse(raw):
    """Stands in for `orjson.loads` to force the stdlib decoder."""
    raise orjson.JSONDecodeError("refused", "", 0)


@pytest.mark.parametrize("decoder", ["orjson", "stdlib"])
def test_every_mutation_matches_golden(tmp_path, monkeypatch, decoder):
    reference_tree, references = egoview.scene._reference_tree, []

    def counted(raw, path):
        references.append(path)
        return reference_tree(raw, path)

    monkeypatch.setattr(egoview.scene, "_reference_tree", counted)
    if decoder == "stdlib":
        monkeypatch.setattr(orjson, "loads", refuse)
    cases = scene_error_cases(tmp_path)
    assert len(cases) > 1000
    assert _lines(cases) == GOLDEN.read_text(encoding="utf-8").splitlines()
    # orjson refuses the NaN and 1e400 mutations; it decodes every other case.
    refused = [case for case in cases if case["mutation"] in ("nan", "1e400")]
    assert len(references) == (len(refused) if decoder == "orjson" else len(cases))


BASE = base_scene()


@st.composite
def _scene_mutations(draw):
    keys = draw(st.sampled_from(list(_paths(BASE))))
    return keys, draw(st.sampled_from(mutation_names(BASE, keys)))


def _entry_name(keys) -> str:
    """What an error about a mutation at `keys` must name: the objects or
    views entry it lies in, else the top-level key."""
    return _path_name(keys[:2]) if keys[0] in ("objects", "views") and len(keys) > 1 else keys[0]


def _instructions(scene: dict) -> str:
    """One instruction line per integer object id left in `scene`, naming its
    scene id: a mutated scene that loads holds everything they reference."""
    objects = scene.get("objects") if isinstance(scene.get("objects"), list) else []
    ids = [o["object_id"] for o in objects if isinstance(o, dict) and type(o.get("object_id")) is int]
    record = {"scene_id": scene.get("scene_id"), "task": "qa", "text": "where?", "answer": "here"}
    return "".join(
        json.dumps({"instruction_id": f"i{k}", **record, "related_object_ids": [object_id]}) + "\n"
        for k, object_id in enumerate(ids)
    )


@given(_scene_mutations())
@settings(max_examples=120, deadline=None)
def test_solvability_names_the_file_and_entry_of_a_mutation(case):
    keys, mutation = case
    scene = mutated(BASE, keys, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "scenes").mkdir()
        path = workdir / "scenes" / "mutated.json"
        path.write_text(json.dumps(scene), encoding="utf-8")
        instructions = workdir / "instructions.jsonl"
        instructions.write_text(_instructions(scene), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([
                "solvability", "--scenes", str(workdir / "scenes"),
                "--instructions", str(instructions), "--out", str(workdir / "report.json"),
            ])
        left = sorted(child.name for child in workdir.iterdir())
        assert sorted(child.name for child in (workdir / "scenes").iterdir()) == ["mutated.json"]
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(f"error: {path}:"), err.getvalue()
        assert _entry_name(keys) in err.getvalue(), err.getvalue()
        assert left == ["instructions.jsonl", "scenes"]
    else:
        assert left == ["instructions.jsonl", "report.json", "scenes"]


def test_unmutated_scene_loads(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(base_scene()), encoding="utf-8")
    assert _outcome(path) == "loads"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        text = "".join(line + "\n" for line in _lines(scene_error_cases(Path(tmp))))
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN}")
