"""Scene-boundary error golden: every mutation at every JSON path of a small
generated scene, loaded with `load_scene`, and its outcome pinned.

The outcome of a case is the error type with its field and reason (or its
message, for DuplicateId), or "loads".  `tests/golden/scene_errors.jsonl`
holds one line per case; nothing but SchemaError and DuplicateId may escape.

Regenerate the golden from the repository root with
`PYTHONPATH=src python3 -m tests.test_scene_errors`.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

from egoview.corpus import load_scene
from egoview.errors import DuplicateId, SchemaError

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


def _mutations(scene: dict):
    """(path name, mutation name, mutated scene) for every case."""
    for keys in _paths(scene):
        parent = scene
        for key in keys[:-1]:
            parent = parent[key]
        value = parent[keys[-1]]
        edits = {"delete": None, **{name: name for name in VALUES}}
        if isinstance(value, list):
            edits["empty"] = "empty"
        if isinstance(parent, list):
            edits["duplicate"] = "duplicate"
        for mutation in edits:
            mutated = copy.deepcopy(scene)
            target = mutated
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
            yield _path_name(keys), mutation, mutated


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


def test_every_mutation_matches_golden(tmp_path):
    cases = scene_error_cases(tmp_path)
    assert len(cases) > 1000
    assert _lines(cases) == GOLDEN.read_text(encoding="utf-8").splitlines()


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
