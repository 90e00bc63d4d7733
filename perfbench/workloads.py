"""The benchmark's workloads: input sizes, the CLI commands of one job, and
the checks every job's outputs must pass.

A job is all of a workload's commands run in sequence through
`egoview.cli.main`, with the in-process stub services.  Output paths never
enter the outputs themselves, so output digests compare across checkouts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from gen import SceneSize


@dataclass(frozen=True)
class Workload:
    name: str
    size: SceneSize
    stride: int  # --stride of solvability and captions; views the properties count


# Sizes are scaled so one job takes about one second on one core: a run
# then holds some twenty-five jobs, enough for a steady median on a shared host.
WORKLOADS = {
    "solvability": Workload("solvability", SceneSize(2, (30.0, 24.0), 1000, 250, 20), stride=4),
    "corpus": Workload("corpus", SceneSize(2, (12.0, 10.0), 60, 60, 50), stride=5),
    "synthesize": Workload("synthesize", SceneSize(3, (18.0, 14.0), 80, 80, 48), stride=1),
}


def job_commands(name: str, inputs: Path, out: Path, stride: int) -> list[tuple[str, list[str]]]:
    """(command label, argv) for each CLI command of one job, in order."""
    scenes = str(inputs / "scenes")
    if name == "solvability":
        return [("solvability", [
            "solvability", "--scenes", scenes,
            "--instructions", str(inputs / "instructions.jsonl"),
            "--out", str(out / "solvability.json"), "--stride", str(stride),
        ])]
    if name == "corpus":
        return [
            ("captions", [
                "build-corpus", "--scenes", scenes, "--mode", "captions",
                "--stride", str(stride), "--threshold", "0.2",
                "--out", str(out / "captions.jsonl"), "--stub",
            ]),
            ("extend", [
                "build-corpus", "--scenes", scenes, "--mode", "extend",
                "--instructions", str(inputs / "instructions.jsonl"),
                "--out", str(out / "extend.jsonl"), "--stub",
            ]),
        ]
    if name == "synthesize":
        return [
            ("synthesize", [
                "synthesize", "--scenes", scenes, "--questions", str(inputs / "questions.jsonl"),
                "--out", str(out / "composed.jsonl"), "--stub", "--seed", "7",
            ]),
            ("eval", [
                "eval", "--gold", str(out / "composed.jsonl"),
                "--pred", str(inputs / "predictions.jsonl"), "--out", str(out / "eval.json"),
            ]),
        ]
    raise KeyError(name)


OUTPUTS = {
    "solvability": ("solvability.json",),
    "corpus": ("captions.jsonl", "captions.jsonl.report.json",
               "extend.jsonl", "extend.jsonl.report.json"),
    "synthesize": ("composed.jsonl", "composed.jsonl.report.json", "eval.json"),
}


def _records(path: Path) -> list[dict]:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    return [row for row in rows if row.get("record") != "provenance"]


def check_outputs(name: str, out: Path, reference: dict) -> list[str]:
    """Invariant violations in one job's outputs; empty when all hold.

    reference holds the generated scenes' view and object ids and the input
    records (instructions or questions)."""
    problems: list[str] = []
    scenes = reference["scenes"]
    records = reference["records"]

    if name == "solvability":
        report = json.loads((out / "solvability.json").read_text(encoding="utf-8"))
        if sum(report["counts"].values()) != len(records) or report["total"] != len(records):
            problems.append(f"solvability counts {report['counts']} do not sum to {len(records)}")
        if sum(report["solver_mix"].values()) != len(records):
            problems.append(f"solver mix {report['solver_mix']} does not sum to {len(records)}")

    elif name == "corpus":
        instruction_ids = {r["instruction_id"] for r in records}
        seen: set[str] = set()
        for fname in ("captions.jsonl", "extend.jsonl"):
            triplets = _records(out / fname)
            report = json.loads((out / f"{fname}.report.json").read_text(encoding="utf-8"))
            if report["triplets"] != len(triplets):
                problems.append(f"{fname}: report counts {report['triplets']} of {len(triplets)}")
            for t in triplets:
                scene = scenes.get(t["scene_id"])
                if t["triplet_id"] in seen:
                    problems.append(f"duplicate triplet id {t['triplet_id']}")
                seen.add(t["triplet_id"])
                if scene is None:
                    problems.append(f"{t['triplet_id']}: unknown scene {t['scene_id']}")
                    continue
                if t["view_id"] not in scene["views"]:
                    problems.append(f"{t['triplet_id']}: unknown view {t['view_id']}")
                if not set(t["object_ids"]) <= set(scene["objects"]):
                    problems.append(f"{t['triplet_id']}: unknown object ids {t['object_ids']}")
                parent = t["provenance"]["parent_instruction_id"]
                if parent is not None and parent not in instruction_ids:
                    problems.append(f"{t['triplet_id']}: unknown parent {parent}")

    elif name == "synthesize":
        questions = {q["question_id"]: q for q in records}
        composed = _records(out / "composed.jsonl")
        for c in composed:
            parents = [questions.get(pid) for pid in c["parent_question_ids"]]
            if None in parents:
                problems.append(f"{c['question_id']}: missing parent")
                continue
            anchors = set(c["anchor_object_ids"])
            if not anchors or any(
                p["scene_id"] != c["scene_id"] or not anchors <= set(p["related_object_ids"])
                for p in parents
            ):
                problems.append(f"{c['question_id']}: parents do not share its anchor")
        report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        if report["total"] != len(composed):
            problems.append(f"eval total {report['total']} != {len(composed)} gold records")
    else:
        raise KeyError(name)
    return problems


def output_summary(name: str, out: Path) -> dict:
    """The headline figures of one job's outputs, for the results."""
    if name == "solvability":
        report = json.loads((out / "solvability.json").read_text(encoding="utf-8"))
        return {"counts": report["counts"], "solver_mix": report["solver_mix"]}
    if name == "corpus":
        return {
            fname: json.loads((out / f"{fname}.report.json").read_text(encoding="utf-8"))["per_source"]
            for fname in ("captions.jsonl", "extend.jsonl")
        }
    report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    return {"composed": report["total"], "overall_em": report["overall_em"],
            "bucket_counts": report["bucket_counts"]}
