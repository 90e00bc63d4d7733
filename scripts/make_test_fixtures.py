#!/usr/bin/env python3
"""Regenerate the bundled test fixtures under tests/data/.

The two scenes are authored so their witness structure is exactly known:
every object sits in a far-separated cluster and every camera is placed to
fully contain its intended objects, so the designed witness sets below are
asserted against the real projector before anything is written.

Run from the repository root:  python3 scripts/make_test_fixtures.py
"""

from __future__ import annotations

import json
import sys
from itertools import compress
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"

sys.path.insert(0, str(REPO / "src"))

from egoview.geometry import image_overlap  # noqa: E402
from egoview.scene import load_scene  # noqa: E402
from egoview.selection import alignment, select_views_for_dc  # noqa: E402
from egoview.solvability import WitnessConfig, min_view_count, witness_matrix  # noqa: E402
from egoview.synthesis import eligible_pairs, read_questions  # noqa: E402

INTRINSICS = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480}
IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
CUBE = [0.5, 0.5, 0.5]
QUARTER_TURN = 0.7853981633974483  # pi/4


def obj(object_id, label, center, heading=0.0):
    return {
        "object_id": object_id,
        "label": label,
        "box": {"center": list(center), "size": list(CUBE), "heading": heading},
    }


def view(view_id, translation, image_path=None):
    record = {
        "view_id": view_id,
        "intrinsics": dict(INTRINSICS),
        "pose": {
            "rotation": [row[:] for row in IDENTITY],
            "translation": list(translation),
            "convention": "camera_to_world",
        },
    }
    if image_path:
        record["image_path"] = image_path
    return record


SCENE_A = {
    "scene_id": "scene-a",
    "split": "train",
    "points_path": "points/scene-a.ply",
    "objects": [
        obj(1, "desk", (0.0, 0.0, 2.5)),
        obj(2, "chair", (2.0, 0.0, 2.5)),
        obj(3, "waste basket", (100.0, 0.0, 2.5)),
        obj(4, "bed", (102.0, 0.0, 2.5), heading=QUARTER_TURN),
        obj(5, "sofa", (200.0, -1.1, 4.5)),
        obj(6, "table", (200.0, 1.1, 4.5)),
        obj(7, "lamp", (300.0, 0.0, 2.5)),
        obj(8, "shelf", (400.0, 0.0, 2.5)),
    ],
    "views": [
        view("v01", (1.0, 0.0, 0.0), "frames/v01.jpg"),
        view("v02", (-0.5, 0.0, 0.0), "frames/v02.jpg"),
        view("v03", (101.0, 0.0, 0.0), "frames/v03.jpg"),
        view("v04", (300.0, 0.0, 0.0), "frames/v04.jpg"),
        view("v05", (200.0, -1.1, 0.5), "frames/v05.jpg"),
        view("v06", (200.0, 1.1, 0.5), "frames/v06.jpg"),
        view("v07", (400.0, 0.0, 0.0), "frames/v07.jpg"),
        view("v08", (200.0, 0.0, 1.0), "frames/v08.jpg"),
        view("v09", (102.5, 0.0, 0.0), "frames/v09.jpg"),
        view("v10", (99.5, 0.0, 0.0), "frames/v10.jpg"),
        view("v11", (500.0, 0.0, 0.0), "frames/v11.jpg"),
        view("v12", (1.0, 0.001, 0.0), "frames/v12.jpg"),
    ],
}

# Designed witness sets for scene-a (asserted below).
WITNESS_A = {
    "v01": {1, 2},
    "v02": {1},
    "v03": {3, 4},
    "v04": {7},
    "v05": {5},
    "v06": {6},
    "v07": {8},
    "v08": {5, 6},
    "v09": {4},
    "v10": {3},
    "v11": set(),
    "v12": {1, 2},
}

SCENE_B = {
    "scene_id": "scene-b",
    "split": "val",
    "objects": [
        obj(1, "plant", (0.0, 0.0, 2.5)),
        obj(2, "mirror", (100.0, 0.0, 2.5)),
        obj(3, "cabinet", (200.0, 0.0, 2.5)),
        obj(4, "heater", (300.0, 0.0, 2.5)),
        obj(5, "curtain", (400.0, 0.0, 2.5)),
    ],
    "views": [
        view("w01", (0.0, 0.0, 0.0)),
        view("w02", (100.0, 0.0, 0.0)),
        view("w03", (200.0, 0.0, 0.0)),
        view("w04", (300.0, 0.0, 0.0)),
        view("w05", (400.0, 0.0, 0.0)),
        view("w06", (600.0, 0.0, 0.0)),
    ],
}

WITNESS_B = {
    "w01": {1},
    "w02": {2},
    "w03": {3},
    "w04": {4},
    "w05": {5},
    "w06": set(),
}

# Five instructions with minimum view counts [1, 1, 2, 3, 5].
SOLVABILITY_INSTRUCTIONS = [
    {
        "instruction_id": "i1",
        "scene_id": "scene-a",
        "task": "qa",
        "text": "what is next to the desk?",
        "answer": "chair",
        "related_object_ids": [1, 2],
    },
    {
        "instruction_id": "i2",
        "scene_id": "scene-a",
        "task": "qa",
        "text": "what color is the waste basket?",
        "answer": "gray",
        "related_object_ids": [3],
    },
    {
        "instruction_id": "i3",
        "scene_id": "scene-a",
        "task": "qa",
        "text": "what stands between the chair and the lamp?",
        "answer": "nothing",
        "related_object_ids": [2, 7],
    },
    {
        "instruction_id": "i4",
        "scene_id": "scene-a",
        "task": "qa",
        "text": "which objects surround the shelf?",
        "answer": "lamp and chair",
        "related_object_ids": [2, 7, 8],
    },
    {
        "instruction_id": "i5",
        "scene_id": "scene-b",
        "task": "qa",
        "text": "list the items along the wall",
        "answer": "plant mirror cabinet heater curtain",
        "related_object_ids": [1, 2, 3, 4, 5],
    },
]
EXPECTED_MIN_COUNTS = [1, 1, 2, 3, 5]

# Six questions yielding exactly three eligible pairs:
# (q01,q02) share {1}, (q03,q04) share {5}, (q04,q05) share {6};
# (q05,q06) is rejected because {7} nests inside {6,7}.
QUESTIONS = [
    {
        "question_id": "q01",
        "scene_id": "scene-a",
        "text": "On which side of the brown wooden desk is the waste basket located?",
        "answer": "on right side",
        "related_object_ids": [1, 3],
    },
    {
        "question_id": "q02",
        "scene_id": "scene-a",
        "text": "What is the wooden chair in front of?",
        "answer": "small desk",
        "related_object_ids": [1, 2],
    },
    {
        "question_id": "q03",
        "scene_id": "scene-a",
        "text": "What color is the bed beside the sofa?",
        "answer": "blue",
        "related_object_ids": [4, 5],
    },
    {
        "question_id": "q04",
        "scene_id": "scene-a",
        "text": "How many cushions are on the sofa near the table?",
        "answer": "two",
        "related_object_ids": [5, 6],
    },
    {
        "question_id": "q05",
        "scene_id": "scene-a",
        "text": "Where is the table relative to the lamp?",
        "answer": "near the window",
        "related_object_ids": [6, 7],
    },
    {
        "question_id": "q06",
        "scene_id": "scene-a",
        "text": "What material is the lamp?",
        "answer": "metal",
        "related_object_ids": [7],
    },
]

EXTEND_INSTRUCTIONS = [
    {
        "instruction_id": "e1",
        "scene_id": "scene-a",
        "task": "qa",
        "text": "where is the desk and the chair",
        "answer": "by the window",
        "related_object_ids": [1, 2],
    },
    {
        "instruction_id": "e2",
        "scene_id": "scene-a",
        "task": "dc",
        "text": "describe the sofa",
        "related_object_ids": [5],
        "target_object_id": 5,
    },
    {
        "instruction_id": "e3",
        "scene_id": "scene-b",
        "task": "qa",
        "text": "is there a plant by the mirror",
        "answer": "yes",
        "related_object_ids": [1, 2],
    },
    {
        "instruction_id": "e4",
        "scene_id": "scene-a",
        "task": "dc",
        "text": "describe the lamp",
        "related_object_ids": [7],
        "target_object_id": 7,
    },
    {
        "instruction_id": "e5",
        "scene_id": "scene-a",
        "task": "dc",
        "text": "describe the waste basket",
        "related_object_ids": [3],
        "target_object_id": 3,
    },
]

EVAL_GOLD = [
    {"question_id": "g1", "answer": "red", "min_views": 1},
    {"question_id": "g2", "answer": "on right side", "min_views": 2},
    {"question_id": "g3", "answer": "two", "min_views": 2},
    {"question_id": "g4", "answer": "waste basket", "min_views": 3},
]

EVAL_PRED = [
    {"question_id": "g1", "prediction": "Red."},
    {"question_id": "g2", "prediction": "left side"},
    {"question_id": "g3", "prediction": " two "},
    {"question_id": "g4", "prediction": "Waste  Basket"},
]


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def check_scene(path: Path, designed: dict) -> None:
    scene = load_scene(path)
    matrix = witness_matrix(scene.objects, scene.views, WitnessConfig())
    for view_id, row in zip(scene.views.ids, matrix.tolist()):
        got = set(compress(scene.objects.ids, row))
        assert got == designed[view_id], (scene.scene_id, view_id, got, designed[view_id])


def main() -> None:
    write_json(DATA / "scenes" / "scene-a.json", SCENE_A)
    write_json(DATA / "scenes" / "scene-b.json", SCENE_B)
    check_scene(DATA / "scenes" / "scene-a.json", WITNESS_A)
    check_scene(DATA / "scenes" / "scene-b.json", WITNESS_B)

    scene_a = load_scene(DATA / "scenes" / "scene-a.json")
    scene_b = load_scene(DATA / "scenes" / "scene-b.json")
    scenes = {"scene-a": scene_a, "scene-b": scene_b}

    write_jsonl(DATA / "instructions_solvability.jsonl", SOLVABILITY_INSTRUCTIONS)
    for ins, expected in zip(SOLVABILITY_INSTRUCTIONS, EXPECTED_MIN_COUNTS):
        scene = scenes[ins["scene_id"]]
        req = min_view_count(ins["related_object_ids"], scene.views, scene.objects)
        assert req.n == expected, (ins["instruction_id"], req, expected)
        assert req.solver == "exact"

    write_jsonl(DATA / "questions.jsonl", QUESTIONS)
    pairs = eligible_pairs(read_questions(DATA / "questions.jsonl"))
    got_pairs = [(p.first.question_id, p.second.question_id) for p in pairs]
    assert got_pairs == [("q01", "q02"), ("q03", "q04"), ("q04", "q05")], got_pairs

    write_jsonl(DATA / "instructions_extend.jsonl", EXTEND_INSTRUCTIONS)
    overlap = image_overlap(scene_a.objects.corners, scene_a.views)
    picks = select_views_for_dc([5, 7, 3], scene_a.views, scene_a.objects, overlap)
    assert [pick and pick[0] for pick in picks] == ["v08", "v04", "v03"], picks
    v08 = scene_a.views.ids.index("v08")
    row = witness_matrix(scene_a.objects, scene_a.views, alignment(0.5))[v08]
    assert set(compress(scene_a.objects.ids, row.tolist())) == {5, 6}

    write_jsonl(DATA / "eval_gold.jsonl", EVAL_GOLD)
    write_jsonl(DATA / "eval_pred.jsonl", EVAL_PRED)
    print("fixtures written and verified under", DATA)


if __name__ == "__main__":
    main()
