from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoview.cli import build_parser, main
from egoview.corpus import CaptionBuildConfig
from egoview.solvability import WitnessConfig

from .conftest import DATA_DIR
from .test_scene_errors import _paths, mutated, mutation_names

DATA = "tests/data"


def run(*argv) -> int:
    return main(list(argv))


def with_repeated_first_record(src, dst):
    """Copy a JSONL file and append its first data line again: a duplicate id."""
    lines = src.read_text(encoding="utf-8").splitlines()
    dst.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
    return dst


class TestSolvabilityCommand:
    def test_fixture_histogram(self, tmp_path, data_dir):
        out = tmp_path / "report.json"
        code = run(
            "solvability",
            "--scenes", str(data_dir / "scenes"),
            "--instructions", str(data_dir / "instructions_solvability.jsonl"),
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["counts"] == {"1": 2, "2": 1, "3": 1, "4+": 1, "unsolvable": 0}
        assert report["percentages"] == {
            "1": 40.0, "2": 20.0, "3": 20.0, "4+": 20.0, "unsolvable": 0.0,
        }

    def test_empty_instruction_file(self, tmp_path, data_dir):
        empty = tmp_path / "none.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "report.json"
        code = run(
            "solvability",
            "--scenes", str(data_dir / "scenes"),
            "--instructions", str(empty),
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["total"] == 0
        assert report["total_zero"] is True

    def test_malformed_scene_exits_2(self, tmp_path, data_dir):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "bad.json").write_text('{"scene_id": "x"}', encoding="utf-8")
        code = run(
            "solvability",
            "--scenes", str(scenes),
            "--instructions", str(data_dir / "instructions_solvability.jsonl"),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2

    def _run_on_scene_files(self, tmp_path, data_dir, files, instructions=None):
        """Run solvability on a scenes directory holding `files` (name ->
        scene dict, or the file's bytes) with the fixture instructions or
        `instructions`; return (code, out)."""
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for name, scene in files.items():
            if isinstance(scene, bytes):
                (scenes / name).write_bytes(scene)
            else:
                (scenes / name).write_text(json.dumps(scene), encoding="utf-8")
        out = tmp_path / "r.json"
        code = run(
            "solvability",
            "--scenes", str(scenes),
            "--instructions", str(instructions or data_dir / "instructions_solvability.jsonl"),
            "--out", str(out),
        )
        return code, out

    def test_scene_error_names_the_file(self, tmp_path, data_dir, capsys):
        good = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        bad = json.loads((data_dir / "scenes" / "scene-b.json").read_text())
        bad["views"][2]["intrinsics"]["fx"] = "500"
        code, out = self._run_on_scene_files(
            tmp_path, data_dir, {"scene-a.json": good, "scene-b.json": bad}
        )
        assert code == 2
        bad_path = tmp_path / "scenes" / "scene-b.json"
        assert capsys.readouterr().err == (
            f"error: {bad_path}:views[2].intrinsics.fx: must be a number, got '500'\n"
        )
        assert not out.exists()

    def test_duplicate_entry_names_the_file(self, tmp_path, data_dir, capsys):
        good = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        bad = json.loads((data_dir / "scenes" / "scene-b.json").read_text())
        bad["views"].append(bad["views"][0])
        code, out = self._run_on_scene_files(
            tmp_path, data_dir, {"scene-a.json": good, "scene-b.json": bad}
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'scenes' / 'scene-b.json'}: scene ")
        assert f"views[{len(bad['views']) - 1}].view_id" in err
        assert not out.exists()

    def test_repeated_scene_id_names_both_files(self, tmp_path, data_dir, capsys):
        scene = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        code, out = self._run_on_scene_files(
            tmp_path, data_dir, {"one.json": scene, "two.json": scene}
        )
        assert code == 2
        scenes = tmp_path / "scenes"
        assert capsys.readouterr().err == (
            f"error: {scenes / 'two.json'}: scene id {scene['scene_id']!r} "
            f"already used in {scenes / 'one.json'}\n"
        )
        assert not out.exists()

    def test_undecodable_scene_file_names_the_file(self, tmp_path, data_dir, capsys):
        good = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        code, out = self._run_on_scene_files(
            tmp_path, data_dir, {"scene-a.json": good, "scene-b.json": b"\xff\xfe{}"}
        )
        assert code == 2
        bad_path = tmp_path / "scenes" / "scene-b.json"
        assert capsys.readouterr().err == (
            f"error: {bad_path}: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"
        )
        assert not out.exists()

    def test_undecodable_instruction_line_names_the_line(self, tmp_path, data_dir, capsys):
        lines = (data_dir / "instructions_solvability.jsonl").read_bytes().splitlines(True)
        lines[1] = lines[1].replace(b"waste basket", b"waste\xffbasket")
        instructions = tmp_path / "ins.jsonl"
        instructions.write_bytes(b"".join(lines))
        scene = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        code, out = self._run_on_scene_files(
            tmp_path, data_dir, {"scene-a.json": scene}, instructions
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {instructions}:2: invalid UTF-8: 'utf-8' codec ")
        assert "can't decode byte 0xff" in err
        assert not out.exists()

    def test_deeply_nested_scene_file_names_the_file(self, tmp_path, data_dir, capsys):
        code, out = self._run_on_scene_files(tmp_path, data_dir, {"scene-a.json": b"[" * 100_000})
        assert code == 2
        bad_path = tmp_path / "scenes" / "scene-a.json"
        assert capsys.readouterr().err.startswith(
            f"error: {bad_path}: invalid JSON: maximum recursion depth exceeded"
        )
        assert sorted(child.name for child in tmp_path.iterdir()) == ["scenes"]
        assert not out.exists()

    def test_scene_integer_past_the_conversion_limit_names_the_file(
        self, tmp_path, data_dir, capsys
    ):
        text = (data_dir / "scenes" / "scene-a.json").read_text(encoding="utf-8")
        text = re.sub(r'"width": \d+', '"width": ' + "6" * 5000, text, count=1)
        code, out = self._run_on_scene_files(tmp_path, data_dir, {"scene-a.json": text.encode()})
        assert code == 2
        bad_path = tmp_path / "scenes" / "scene-a.json"
        assert capsys.readouterr().err.startswith(
            f"error: {bad_path}: invalid JSON: Exceeds the limit (4300 digits)"
        )
        assert not out.exists()

    def test_deeply_nested_instruction_line_names_the_line(self, tmp_path, data_dir, capsys):
        lines = (data_dir / "instructions_solvability.jsonl").read_bytes().splitlines(True)
        lines[1] = b'{"a": ' + b"[" * 100_000 + b"\n"
        instructions = tmp_path / "ins.jsonl"
        instructions.write_bytes(b"".join(lines))
        scene = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        code, out = self._run_on_scene_files(
            tmp_path, data_dir, {"scene-a.json": scene}, instructions
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {instructions}:2: invalid JSON: maximum recursion depth exceeded"
        )
        assert sorted(child.name for child in tmp_path.iterdir()) == ["ins.jsonl", "scenes"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys,field",
        [
            (("scene_id",), "scene.scene_id"),
            (("objects", 4, "label"), "objects[4].label"),
            (("views", 3, "view_id"), "views[3].view_id"),
            (("views", 7, "image_path"), "views[7].image_path"),
        ],
    )
    def test_lone_surrogate_in_scene_text_exits_2(
        self, tmp_path, data_dir, capsys, keys, field
    ):
        code, out = self._run_on_edited_scene(tmp_path, data_dir, keys, "desk\ud800")
        assert code == 2
        assert f"{field}: must not hold a lone surrogate, got 'desk\\ud800'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def _run_on_edited_scene(self, tmp_path, data_dir, keys, value):
        """Run solvability with one value of scene-a replaced; return (code, out)."""
        scene = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        target = scene
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return self._run_on_scene_files(tmp_path, data_dir, {"scene-a.json": scene})

    @pytest.mark.parametrize(
        "keys,value,field",
        [
            (("objects", 0, "box", "center", 2), math.nan, "objects[0].box"),
            (("views", 0, "intrinsics", "fx"), math.nan, "views[0].intrinsics"),
            (("views", 2, "pose", "translation", 1), math.nan, "views[2].pose"),
            (("objects", 1, "box", "heading"), math.inf, "objects[1].box"),
            (("views", 11, "pose", "rotation", 2, 0), math.nan, "views[11].pose"),
            (("views", 10, "pose", "translation", 0), -math.inf, "views[10].pose"),
            pytest.param(
                ("views", 3, "pose", "translation", 0), 10**400, "views[3].pose",
                id="keys6-1e400-views[3].pose",
            ),
            pytest.param(
                ("objects", 2, "box", "heading"), -(10**400), "objects[2].box",
                id="keys7-minus1e400-objects[2].box",
            ),
            pytest.param(
                ("views", 4, "intrinsics", "width"), -(10**400), "views[4].intrinsics",
                id="keys8-minus1e400-views[4].intrinsics",
            ),
        ],
    )
    def test_non_finite_scene_number_exits_2(
        self, tmp_path, data_dir, capsys, keys, value, field
    ):
        code, out = self._run_on_edited_scene(tmp_path, data_dir, keys, value)
        assert code == 2
        assert f"{field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys,value,field",
        [
            (("objects", 0, "object_id"), 1.7, "objects[0].object_id"),
            (("objects", 3, "object_id"), True, "objects[3].object_id"),
            (("views", 0, "intrinsics", "width"), 640.9, "views[0].intrinsics.width"),
            (("views", 4, "intrinsics", "height"), 480.0, "views[4].intrinsics.height"),
            (("objects", 2, "object_id"), "3", "objects[2].object_id"),
        ],
    )
    def test_non_integer_scene_field_exits_2(
        self, tmp_path, data_dir, capsys, keys, value, field
    ):
        code, out = self._run_on_edited_scene(tmp_path, data_dir, keys, value)
        assert code == 2
        assert f"{field}: must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["width", "height"])
    def test_huge_image_size_exits_2(self, tmp_path, data_dir, capsys, key):
        keys = ("views", 4, "intrinsics", key)
        code, out = self._run_on_edited_scene(tmp_path, data_dir, keys, 10**400)
        assert code == 2
        assert f"views[4].intrinsics.{key}: must be below 2**63" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value", [("objects", 5), ("views", {"view_id": "v01"}), ("objects", None)]
    )
    def test_non_list_scene_array_exits_2(self, tmp_path, data_dir, capsys, key, value):
        code, out = self._run_on_edited_scene(tmp_path, data_dir, (key,), value)
        assert code == 2
        assert f"scene.{key}: must be a list" in capsys.readouterr().err
        assert not out.exists()

    def test_non_string_instruction_text_exits_2(self, tmp_path, data_dir, capsys):
        instructions = tmp_path / "ins.jsonl"
        instructions.write_text(
            '{"instruction_id": "i1", "scene_id": "scene-a", "task": "qa", '
            '"text": ["what"], "answer": "chair", "related_object_ids": [1]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "r.json"
        code = run(
            "solvability",
            "--scenes", str(data_dir / "scenes"),
            "--instructions", str(instructions),
            "--out", str(out),
        )
        assert code == 2
        assert f"{instructions}:1.text: must be a string" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [instructions]

    def test_unknown_scene_exits_3(self, tmp_path, data_dir, capsys):
        instructions = tmp_path / "ins.jsonl"
        instructions.write_text(
            '{"instruction_id": "z", "scene_id": "ghost", "task": "qa", '
            '"text": "?", "answer": "x", "related_object_ids": [1]}\n',
            encoding="utf-8",
        )
        code = run(
            "solvability",
            "--scenes", str(data_dir / "scenes"),
            "--instructions", str(instructions),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 3
        assert capsys.readouterr().err == "error: instruction 'z': scene 'ghost' is not loaded\n"

    @pytest.mark.parametrize(
        "ids,reason", [([1, 999], "unknown object ids: [999]"), ([], "references no object")]
    )
    def test_unknown_or_no_object_exits_3_naming_the_instruction(
        self, tmp_path, data_dir, capsys, ids, reason
    ):
        lines = (data_dir / "instructions_solvability.jsonl").read_text().splitlines()
        record = {**json.loads(lines[1]), "instruction_id": "i9", "related_object_ids": ids}
        instructions = tmp_path / "ins.jsonl"
        instructions.write_text("\n".join([*lines, json.dumps(record)]) + "\n", encoding="utf-8")
        code = run(
            "solvability", "--scenes", str(data_dir / "scenes"),
            "--instructions", str(instructions), "--out", str(tmp_path / "r.json"),
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: instruction 'i9': {reason}\n"
        assert list(tmp_path.iterdir()) == [instructions]


    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--iosa-threshold", "1.5", "iosa_threshold must be in (0, 1)"),
            ("--min-area-ratio", "1", "min_area_ratio must be in [0, 1)"),
        ],
    )
    def test_witness_setting_out_of_range_exits_2(
        self, tmp_path, data_dir, capsys, flag, value, message
    ):
        code = run(
            "solvability",
            "--scenes", str(data_dir / "scenes"),
            "--instructions", str(data_dir / "instructions_solvability.jsonl"),
            flag, value,
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_object_instruction_line_exits_2(self, tmp_path, data_dir, capsys):
        instructions = tmp_path / "ins.jsonl"
        instructions.write_text("[1]\n", encoding="utf-8")
        code = run(
            "solvability",
            "--scenes", str(data_dir / "scenes"),
            "--instructions", str(instructions),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {instructions}:1: record must be a JSON object\n"
        assert list(tmp_path.iterdir()) == [instructions]

    def test_non_object_scene_file_exits_2(self, tmp_path, data_dir, capsys):
        code, out = self._run_on_scene_files(tmp_path, data_dir, {"scene-a.json": b"[]"})
        assert code == 2
        path = tmp_path / "scenes" / "scene-a.json"
        assert capsys.readouterr().err == f"error: {path}: scene file must hold a JSON object\n"
        assert not out.exists()

    def test_viewless_scenes_count_every_instruction_unsolvable(self, tmp_path, data_dir):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for name in ("scene-a.json", "scene-b.json"):
            scene = json.loads((data_dir / "scenes" / name).read_text())
            (scenes / name).write_text(json.dumps({**scene, "views": []}), encoding="utf-8")
        out = tmp_path / "r.json"
        code = run(
            "solvability",
            "--scenes", str(scenes),
            "--instructions", str(data_dir / "instructions_solvability.jsonl"),
            "--stride", "3",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["counts"] == {"1": 0, "2": 0, "3": 0, "4+": 0, "unsolvable": 5}
        assert report["solver_mix"] == {"exact": 5, "greedy": 0}


class TestSynthesizeCommand:
    def test_reproduces_committed_golden(self, tmp_path, data_dir, golden_dir):
        out = tmp_path / "composed.jsonl"
        report = tmp_path / "composed.report.json"
        code = run(
            "synthesize",
            "--scenes", str(data_dir / "scenes"),
            "--questions", str(data_dir / "questions.jsonl"),
            "--out", str(out),
            "--report", str(report),
            "--stub",
            "--seed", "7",
        )
        assert code == 0
        assert out.read_bytes() == (golden_dir / "composed.jsonl").read_bytes()
        assert report.read_bytes() == (golden_dir / "composed.report.json").read_bytes()

    def test_repeated_composed_id_exits_2_without_output(
        self, tmp_path, data_dir, capsys, monkeypatch
    ):
        # The pairs (a, b+c) and (a+b, c) both compose to the id 'a+b+c'.
        prompts = []
        monkeypatch.setattr(
            "egoview.services.StubModelService.generate_text",
            lambda self, prompt, **kw: prompts.append(prompt),
        )
        questions = tmp_path / "q.jsonl"
        questions.write_text(
            "".join(
                json.dumps({"question_id": qid, "scene_id": "scene-a", "text": f"where is {qid}?",
                            "answer": "here", "related_object_ids": [1, other]}) + "\n"
                for qid, other in [("a", 2), ("a+b", 3), ("b+c", 4), ("c", 5)]
            ),
            encoding="utf-8",
        )
        out = tmp_path / "c.jsonl"
        code = run(
            "synthesize", "--scenes", str(data_dir / "scenes"), "--questions", str(questions),
            "--out", str(out), "--stub",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: pair ('a+b', 'c'): id 'a+b+c' already used at pair ('a', 'b+c')\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["q.jsonl"]
        assert prompts == []

    def test_unencodable_reply_drops_its_pair(self, tmp_path, data_dir, golden_dir, monkeypatch):
        """A reply holding a lone surrogate, which no output could encode, drops
        its pair as 'unencodable_text'; the other records are written as ever."""
        from egoview.services import StubModelService

        stub_reply = StubModelService.generate_text
        calls = []

        def generate_text(self, prompt, **kwargs):
            calls.append(prompt)
            if len(calls) == 1:  # the first pair, q01+q02
                return '{"question": "Which \\ud800 one?", "answer": "x"}'
            return stub_reply(self, prompt, **kwargs)

        monkeypatch.setattr(StubModelService, "generate_text", generate_text)
        out = tmp_path / "composed.jsonl"
        code = run(
            "synthesize",
            "--scenes", str(data_dir / "scenes"),
            "--questions", str(data_dir / "questions.jsonl"),
            "--out", str(out),
            "--stub",
            "--seed", "7",
        )
        assert code == 0
        golden = (golden_dir / "composed.jsonl").read_text(encoding="utf-8").splitlines()
        assert out.read_text(encoding="utf-8").splitlines() == [golden[0], *golden[2:]]
        report = json.loads((tmp_path / "composed.jsonl.report.json").read_text())
        assert (report["composed"], report["dropped"]) == (2, {"unencodable_text": 1})
        assert len(calls) == 3

    def test_two_runs_identical(self, tmp_path, data_dir):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert run(
                "synthesize",
                "--scenes", str(data_dir / "scenes"),
                "--questions", str(data_dir / "questions.jsonl"),
                "--out", str(out),
                "--stub",
                "--seed", "7",
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unreachable_service_exits_4_without_partial_output(
        self, tmp_path, data_dir, monkeypatch
    ):
        monkeypatch.setattr("egoview.services.time.sleep", lambda _: None)
        out = tmp_path / "c.jsonl"
        code = run(
            "synthesize",
            "--scenes", str(data_dir / "scenes"),
            "--questions", str(data_dir / "questions.jsonl"),
            "--out", str(out),
            "--service", "http://127.0.0.1:9",
            "--seed", "7",
        )
        assert code == 4
        assert not out.exists()  # failures never leave partial files behind

    @pytest.mark.parametrize("directory", ["out", "report"])
    def test_unwritable_output_exits_2_without_partial_output(
        self, tmp_path, data_dir, capsys, directory
    ):
        paths = {"out": tmp_path / "composed.jsonl", "report": tmp_path / "composed.report.json"}
        paths[directory].mkdir()
        code = run(
            "synthesize",
            "--scenes", str(data_dir / "scenes"),
            "--questions", str(data_dir / "questions.jsonl"),
            "--out", str(paths["out"]),
            "--report", str(paths["report"]),
            "--stub",
        )
        assert code == 2
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [paths[directory].name]
        assert not any(paths[directory].iterdir())

    def test_duplicate_question_id_exits_2(self, tmp_path, data_dir, capsys):
        questions = with_repeated_first_record(
            data_dir / "questions.jsonl", tmp_path / "q.jsonl"
        )
        out = tmp_path / "composed.jsonl"
        code = run(
            "synthesize",
            "--scenes", str(data_dir / "scenes"),
            "--questions", str(questions),
            "--out", str(out),
            "--stub",
        )
        assert code == 2
        assert "'q01' already used" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "question_id,reference",
        [
            ("q02", {"related_object_ids": [1, 999]}),  # paired with q01
            ("q06", {"related_object_ids": [999]}),  # in no pair
            ("q06", {"scene_id": "ghost"}),  # in no pair
        ],
    )
    def test_unknown_reference_exits_3_before_any_generation(
        self, tmp_path, data_dir, capsys, monkeypatch, question_id, reference
    ):
        calls = []
        monkeypatch.setattr(
            "egoview.services.StubModelService.generate_text", lambda *args, **kw: calls.append(args)
        )
        lines = []
        for line in (data_dir / "questions.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record["question_id"] == question_id:
                record.update(reference)
            lines.append(json.dumps(record) + "\n")
        questions = tmp_path / "q.jsonl"
        questions.write_text("".join(lines), encoding="utf-8")
        code = run(
            "synthesize",
            "--scenes", str(data_dir / "scenes"),
            "--questions", str(questions),
            "--out", str(tmp_path / "composed.jsonl"),
            "--stub",
        )
        assert code == 3
        assert f"question {question_id!r}: " in capsys.readouterr().err
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["q.jsonl"]

    def test_no_eligible_pairs(self, tmp_path, data_dir):
        questions = tmp_path / "q.jsonl"
        questions.write_text(
            '{"question_id": "q1", "scene_id": "scene-a", "text": "?", "answer": "a", "related_object_ids": [1]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "composed.jsonl"
        code = run(
            "synthesize",
            "--scenes", str(data_dir / "scenes"),
            "--questions", str(questions),
            "--out", str(out),
            "--stub",
            "--seed", "7",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1  # provenance only
        report = json.loads((tmp_path / "composed.jsonl.report.json").read_text())
        assert report["pairs_considered"] == 0


QUESTIONS = [
    json.loads(line)
    for line in (DATA_DIR / "questions.jsonl").read_text(encoding="utf-8").splitlines()
]


@st.composite
def _question_mutations(draw):
    """(line index, key path, mutation) of one mutation of one question line."""
    index = draw(st.integers(0, len(QUESTIONS) - 1))
    keys = draw(st.sampled_from(list(_paths(QUESTIONS[index]))))
    return index, keys, draw(st.sampled_from(mutation_names(QUESTIONS[index], keys)))


@given(_question_mutations())
@settings(max_examples=80, deadline=None)
def test_synthesize_names_the_line_and_field_of_a_question_mutation(case):
    """A mutated question line exits 0, 2 or 3 with no traceback: exit 2
    names the file, the line and the field, exit 3 the question, and a
    failure leaves no output or temp file behind."""
    index, keys, mutation = case
    record = mutated(QUESTIONS[index], keys, mutation)
    lines = [json.dumps(q) for q in QUESTIONS]
    lines[index] = json.dumps(record)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        questions = workdir / "questions.jsonl"
        questions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([
                "synthesize", "--scenes", str(DATA_DIR / "scenes"), "--questions", str(questions),
                "--out", str(workdir / "composed.jsonl"), "--stub",
            ])
        left = sorted(child.name for child in workdir.iterdir())
    message = err.getvalue()
    assert code in (0, 2, 3), message
    if code == 2:
        assert re.match(rf"error: {re.escape(str(questions))}:{index + 1}[.:]", message), message
        assert keys[0] in message, message
    if code == 3:
        assert message.startswith(f"error: question {record['question_id']!r}: "), message
    if code:
        assert left == ["questions.jsonl"]
    else:
        assert left == ["composed.jsonl", "composed.jsonl.report.json", "questions.jsonl"]


class TestBuildCorpusCommand:
    def test_captions_golden(self, tmp_path, data_dir, golden_dir):
        out = tmp_path / "triplets.jsonl"
        report = tmp_path / "triplets.report.json"
        code = run(
            "build-corpus",
            "--scenes", str(data_dir / "scenes"),
            "--mode", "captions",
            "--stride", "4",
            "--threshold", "0.2",
            "--num-captions", "3",
            "--out", str(out),
            "--report", str(report),
            "--stub",
            "--seed", "0",
        )
        assert code == 0
        assert out.read_bytes() == (golden_dir / "triplets_captions.jsonl").read_bytes()
        assert report.read_bytes() == (golden_dir / "triplets_captions.report.json").read_bytes()

    def test_viewless_scene_adds_no_caption_triplets(self, tmp_path, data_dir):
        """Beside a scene with no views, the other scenes' triplets and the
        report are byte for byte those of a run without it."""
        scene_a = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        written = {}
        for name, viewless in [("with", True), ("without", False)]:
            scenes = tmp_path / name
            scenes.mkdir()
            shutil.copy(data_dir / "scenes" / "scene-b.json", scenes)
            if viewless:
                (scenes / "scene-a.json").write_text(
                    json.dumps({**scene_a, "views": []}), encoding="utf-8"
                )
            out = tmp_path / f"{name}.jsonl"
            code = run(
                "build-corpus",
                "--scenes", str(scenes),
                "--mode", "captions",
                "--threshold", "0.2",
                "--stride", "1",
                "--out", str(out),
                "--stub",
            )
            assert code == 0
            written[name] = (out.read_bytes(), Path(f"{out}.report.json").read_bytes())
        assert written["with"] == written["without"]
        assert len(written["with"][0].splitlines()) == 1 + 15  # provenance, scene-b's triplets

    def test_extend_golden(self, tmp_path, data_dir, golden_dir):
        out = tmp_path / "triplets.jsonl"
        code = run(
            "build-corpus",
            "--scenes", str(data_dir / "scenes"),
            "--mode", "extend",
            "--instructions", str(data_dir / "instructions_extend.jsonl"),
            "--out", str(out),
            "--stub",
            "--seed", "0",
        )
        assert code == 0
        assert out.read_bytes() == (golden_dir / "triplets_extend.jsonl").read_bytes()

    def test_lone_surrogate_label_exits_2_before_captioning(self, tmp_path, data_dir, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        scene = json.loads((data_dir / "scenes" / "scene-a.json").read_text())
        scene["objects"][0]["label"] = "desk\ud800"
        (scenes / "scene-a.json").write_text(json.dumps(scene), encoding="utf-8")
        out = tmp_path / "triplets.jsonl"
        code = run(
            "build-corpus", "--scenes", str(scenes), "--mode", "captions",
            "--threshold", "0", "--out", str(out), "--stub",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {scenes / 'scene-a.json'}:objects[0].label: "
            "must not hold a lone surrogate, got 'desk\\ud800'\n"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == ["scenes"]

    def test_lone_surrogate_instruction_text_exits_2(self, tmp_path, data_dir, capsys):
        lines = (data_dir / "instructions_extend.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        record["text"] += "\ud800"
        lines[2] = json.dumps(record)
        instructions = tmp_path / "ins.jsonl"
        instructions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "triplets.jsonl"
        code = run(
            "build-corpus", "--scenes", str(data_dir / "scenes"), "--mode", "extend",
            "--instructions", str(instructions), "--out", str(out), "--stub",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {instructions}:3.text: must not hold a lone surrogate, got "
        )
        assert list(tmp_path.iterdir()) == [instructions]

    def test_unknown_scene_exits_3_before_any_service_call(
        self, tmp_path, data_dir, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            "egoview.services.StubModelService.score_image_text",
            lambda *args, **kw: calls.append(args),
        )
        lines = (data_dir / "instructions_extend.jsonl").read_text().splitlines()
        ghost = {"instruction_id": "g1", "scene_id": "ghost", "task": "qa", "text": "where?",
                 "answer": "here", "related_object_ids": [1]}
        instructions = tmp_path / "ins.jsonl"
        instructions.write_text("\n".join([*lines, json.dumps(ghost)]) + "\n", encoding="utf-8")
        code = run(
            "build-corpus", "--scenes", str(data_dir / "scenes"), "--mode", "extend",
            "--instructions", str(instructions), "--out", str(tmp_path / "t.jsonl"), "--stub",
        )
        assert code == 3
        assert capsys.readouterr().err == "error: instruction 'g1': scene 'ghost' is not loaded\n"
        assert calls == []
        assert list(tmp_path.iterdir()) == [instructions]

    def test_empty_instruction_text_exits_2_before_any_service_call(
        self, tmp_path, data_dir, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            "egoview.services.StubModelService.score_image_text",
            lambda *args, **kw: calls.append(args),
        )
        lines = (data_dir / "instructions_extend.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        assert record["task"] == "dc"
        record["text"] = ""
        lines[1] = json.dumps(record)
        instructions = tmp_path / "ins.jsonl"
        instructions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(
            "build-corpus", "--scenes", str(data_dir / "scenes"), "--mode", "extend",
            "--instructions", str(instructions), "--out", str(tmp_path / "t.jsonl"), "--stub",
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {instructions}:2.text: must be non-empty\n"
        assert calls == []
        assert list(tmp_path.iterdir()) == [instructions]

    def test_duplicate_instruction_id_exits_2(self, tmp_path, data_dir, capsys):
        instructions = with_repeated_first_record(
            data_dir / "instructions_extend.jsonl", tmp_path / "ins.jsonl"
        )
        out = tmp_path / "t.jsonl"
        code = run(
            "build-corpus",
            "--scenes", str(data_dir / "scenes"),
            "--mode", "extend",
            "--instructions", str(instructions),
            "--out", str(out),
            "--stub",
        )
        assert code == 2
        assert "already used" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_report_exits_2_without_partial_output(self, tmp_path, data_dir, capsys):
        report = tmp_path / "missing-dir" / "t.report.json"
        code = run(
            "build-corpus",
            "--scenes", str(data_dir / "scenes"),
            "--mode", "captions",
            "--out", str(tmp_path / "t.jsonl"),
            "--report", str(report),
            "--stub",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "missing-dir/t.report.json" in err
        assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["captions", "extend"])
    def test_tau_out_of_range_exits_2(self, tmp_path, data_dir, capsys, mode):
        code = run(
            "build-corpus",
            "--scenes", str(data_dir / "scenes"),
            "--mode", mode,
            "--instructions", str(data_dir / "instructions_extend.jsonl"),
            "--tau", "1.5",
            "--out", str(tmp_path / "t.jsonl"),
            "--stub",
        )
        assert code == 2
        assert "error: tau must be in (0, 1)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_2(self, tmp_path, data_dir, capsys, value):
        # NaN would keep every caption: no score is below it.
        code = run(
            "build-corpus",
            "--scenes", str(data_dir / "scenes"),
            "--mode", "captions",
            f"--threshold={value}",
            "--out", str(tmp_path / "t.jsonl"),
            "--stub",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: threshold must be a finite number, got {float(value)!r}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_repeated_caption_id_exits_2_without_output(
        self, tmp_path, data_dir, capsys, monkeypatch
    ):
        # Scene 'a' with view 'b:c' and scene 'a:b' with view 'c' both caption 'cap:a:b:c:0'.
        captioned = []
        monkeypatch.setattr(
            "egoview.services.StubModelService.caption_image",
            lambda self, ref, num_captions=1: captioned.append(ref),
        )
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        scene = json.loads((data_dir / "scenes" / "scene-a.json").read_text(encoding="utf-8"))
        for scene_id, view_id in [("a", "b:c"), ("a:b", "c")]:
            view = {**scene["views"][0], "view_id": view_id}
            (scenes / f"{view_id}.json").write_text(
                json.dumps({**scene, "scene_id": scene_id, "views": [view]}), encoding="utf-8"
            )
        out = tmp_path / "t.jsonl"
        code = run(
            "build-corpus", "--scenes", str(scenes), "--mode", "captions", "--threshold", "0",
            "--out", str(out), "--stub",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: scene 'a:b' view 'c' caption 0: id 'cap:a:b:c:0' already used at "
            "scene 'a' view 'b:c' caption 0\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["scenes"]
        assert captioned == []

    @pytest.mark.parametrize("mode", ["captions", "extend"])
    @pytest.mark.parametrize(
        "paths,ref",
        [({"v01": "frames/a.jpg", "v02": "frames/a.jpg"}, "frames/a.jpg"),
         ({"v01": "v02", "v02": None}, "v02")],
        ids=["same-path", "path-is-view-id"],
    )
    def test_views_sharing_an_image_exit_2_before_any_service_call(
        self, tmp_path, data_dir, capsys, monkeypatch, mode, paths, ref
    ):
        calls = []
        for method in ("register_view_labels", "caption_image", "score_image_text"):
            monkeypatch.setattr(
                f"egoview.services.StubModelService.{method}",
                lambda *args, **kw: calls.append(args),
            )
        scenes = tmp_path / "scenes"
        shutil.copytree(data_dir / "scenes", scenes)
        scene = json.loads((scenes / "scene-a.json").read_text(encoding="utf-8"))
        for view in scene["views"]:
            if view["view_id"] in paths:
                view.pop("image_path")
                if paths[view["view_id"]] is not None:
                    view["image_path"] = paths[view["view_id"]]
        (scenes / "scene-a.json").write_text(json.dumps(scene), encoding="utf-8")
        code = run(
            "build-corpus", "--scenes", str(scenes), "--mode", mode,
            "--instructions", str(data_dir / "instructions_extend.jsonl"),
            "--out", str(tmp_path / "t.jsonl"), "--stub",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: scene 'scene-a': views 'v01' and 'v02' share the image reference {ref!r}\n"
        )
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["scenes"]

    def test_extend_requires_instructions(self, tmp_path, data_dir):
        code = run(
            "build-corpus",
            "--scenes", str(data_dir / "scenes"),
            "--mode", "extend",
            "--out", str(tmp_path / "t.jsonl"),
            "--stub",
        )
        assert code == 1

    def test_modes_have_disjoint_id_namespaces(self, golden_dir):
        from egoview.corpus import read_triplets

        caption_ids = {r.triplet_id for r in read_triplets(golden_dir / "triplets_captions.jsonl")}
        extend_ids = {r.triplet_id for r in read_triplets(golden_dir / "triplets_extend.jsonl")}
        assert caption_ids.isdisjoint(extend_ids)
        assert all(t.startswith("cap:") for t in caption_ids)
        assert all(t.startswith("ext:") for t in extend_ids)


_COMMAND_ARGS = {
    "synthesize": ("synthesize", "--questions", f"{DATA}/questions.jsonl"),
    "build-corpus": (
        "build-corpus", "--mode", "extend", "--instructions", f"{DATA}/instructions_extend.jsonl",
    ),
}


class TestReportIsNotOut:
    """A report that resolves to the --out file would replace the records."""

    @pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
    @pytest.mark.parametrize("spelling", ["identical", "dotdot"])
    def test_exits_1_naming_the_path_and_writes_nothing(self, tmp_path, capsys, command, spelling):
        out = tmp_path / "y.jsonl"
        report = out if spelling == "identical" else tmp_path / ".." / tmp_path.name / "y.jsonl"
        code = run(
            *_COMMAND_ARGS[command],
            "--scenes", f"{DATA}/scenes",
            "--out", str(out),
            "--report", str(report),
            "--stub",
        )
        assert code == 1
        assert capsys.readouterr().err == f"usage error: --report {report} names the --out file\n"
        assert list(tmp_path.iterdir()) == []


class TestExtendCaptionOnlyFlags:
    """Extend reads none of the caption-only flags, so they may not change
    its provenance."""

    @pytest.mark.parametrize(
        "flag,value",
        [("--stride", "0"), ("--stride", "4"), ("--num-captions", "2"),
         ("--threshold", "nan"), ("--threshold", "0.3")],
    )
    def test_a_value_other_than_the_default_exits_1(self, tmp_path, capsys, flag, value):
        code = run(
            *_COMMAND_ARGS["build-corpus"],
            "--scenes", f"{DATA}/scenes",
            f"{flag}={value}",
            "--out", str(tmp_path / "t.jsonl"),
            "--stub",
        )
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {flag} is read only by --mode captions\n"
        assert list(tmp_path.iterdir()) == []

    def test_the_defaults_given_keep_the_golden(self, tmp_path, data_dir, golden_dir):
        out = tmp_path / "triplets.jsonl"
        code = run(
            *_COMMAND_ARGS["build-corpus"],
            "--scenes", str(data_dir / "scenes"),
            "--stride", "20", "--num-captions", "3", "--threshold", "0.50",
            "--out", str(out),
            "--stub",
            "--seed", "0",
        )
        assert code == 0
        assert out.read_bytes() == (golden_dir / "triplets_extend.jsonl").read_bytes()


class TestMissingScenes:
    """A --scenes path that is missing or names a file is an unreadable
    input, not an empty scene set."""

    @pytest.mark.parametrize("command", ["solvability", "synthesize", "build-corpus"])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_exits_2_naming_the_path_and_writes_nothing(self, tmp_path, capsys, command, kind):
        argv = {
            "solvability": ("solvability", "--instructions", f"{DATA}/instructions_solvability.jsonl"),
            "synthesize": ("synthesize", "--questions", f"{DATA}/questions.jsonl", "--stub"),
            "build-corpus": ("build-corpus", "--mode", "captions", "--stub"),
        }[command]
        scenes = tmp_path / "nowhere" if kind == "missing" else DATA_DIR / "scenes" / "scene-a.json"
        code = run(*argv, "--scenes", str(scenes), "--out", str(tmp_path / "out.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{scenes}'" in err
        assert list(tmp_path.iterdir()) == []


# Each command's input flags with the fixture inputs they name, and its
# other arguments.
_INPUTS = {
    "solvability": (
        {"--scenes": "scenes", "--instructions": "instructions_solvability.jsonl"}, (),
    ),
    "synthesize": ({"--scenes": "scenes", "--questions": "questions.jsonl"}, ("--stub",)),
    "build-corpus": (
        {"--scenes": "scenes", "--instructions": "instructions_extend.jsonl"},
        ("--mode", "extend", "--stub"),
    ),
    "eval": ({"--gold": "eval_gold.jsonl", "--pred": "eval_pred.jsonl"}, ()),
}


def _file_bytes(root: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


class TestOutputIsNotAnInput:
    """An output that resolves to an input file would replace it."""

    @pytest.mark.parametrize(
        "command,source,output",
        [
            ("solvability", "--instructions", "--out"),
            ("solvability", "--scenes", "--out"),
            ("synthesize", "--questions", "--out"),
            ("synthesize", "--questions", "--report"),
            ("synthesize", "--scenes", "--out"),
            ("synthesize", "--scenes", "--report"),
            ("build-corpus", "--instructions", "--out"),
            ("build-corpus", "--instructions", "--report"),
            ("build-corpus", "--scenes", "--out"),
            ("build-corpus", "--scenes", "--report"),
            ("eval", "--gold", "--out"),
            ("eval", "--pred", "--out"),
        ],
    )
    def test_exits_1_and_leaves_the_input_as_it_was(
        self, tmp_path, capsys, command, source, output
    ):
        inputs = tmp_path / "in"
        shutil.copytree(DATA_DIR, inputs)
        flags, extra = _INPUTS[command]
        target = inputs / ("scenes/scene-a.json" if source == "--scenes" else flags[source])
        argv = [command, *extra, "--out", str(tmp_path / "y.json")]
        for flag, name in flags.items():
            argv += [flag, str(inputs / name)]
        before = _file_bytes(inputs)
        code = run(*argv, output, str(target))  # a repeated --out replaces the first
        assert code == 1
        named = "a --scenes file" if source == "--scenes" else f"the {source} file"
        assert capsys.readouterr().err == f"usage error: {output} {target} names {named}\n"
        assert _file_bytes(inputs) == before
        assert sorted(tmp_path.iterdir()) == [inputs]


class TestUnwritableOutputFirst:
    """An output that cannot be written is refused before any input is read
    or any model called: with --service each call is a paid request."""

    @pytest.mark.parametrize("command", sorted(_INPUTS))
    def test_missing_directory_exits_2_before_any_model_call(
        self, tmp_path, capsys, monkeypatch, command
    ):
        calls = []
        for method in ("register_view_labels", "caption_image", "score_image_text", "generate_text"):
            monkeypatch.setattr(
                f"egoview.services.StubModelService.{method}",
                lambda *args, **kw: calls.append(args),
            )
        flags, extra = _INPUTS[command]
        argv = [command, *extra]
        for flag, name in flags.items():
            argv += [flag, str(DATA_DIR / name)]
        out = tmp_path / "missing" / "o.jsonl"
        code = run(*argv, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert calls == []
        assert list(tmp_path.iterdir()) == []


class TestReportProvenance:
    @pytest.mark.parametrize(
        "argv",
        [
            ("synthesize", "--questions", f"{DATA}/questions.jsonl"),
            ("build-corpus", "--mode", "captions"),
            ("build-corpus", "--mode", "extend", "--instructions", f"{DATA}/instructions_extend.jsonl"),
        ],
        ids=["synthesize", "captions", "extend"],
    )
    def test_report_ends_with_the_header_provenance(self, tmp_path, argv):
        out = tmp_path / "o.jsonl"
        assert run(*argv, "--scenes", f"{DATA}/scenes", "--out", str(out), "--stub") == 0
        header = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        report = json.loads((tmp_path / "o.jsonl.report.json").read_text(encoding="utf-8"))
        assert list(report)[-1] == "provenance"
        assert header.pop("record") == "provenance"
        assert report["provenance"] == header


class TestBuildCorpusChecksSettingsFirst:
    """A bad setting is named before any scene is read, even a malformed one."""

    @pytest.mark.parametrize(
        "mode,flag,message",
        [
            ("captions", "--tau=1.5", "tau must be in (0, 1)"),
            ("extend", "--tau=1.5", "tau must be in (0, 1)"),
            ("captions", "--stride=0", "stride must be >= 1"),
            ("captions", "--num-captions=0", "num_captions must be >= 1"),
            ("captions", "--threshold=nan", "threshold must be a finite number, got nan"),
        ],
    )
    def test_the_flag_is_named_not_the_scene(self, tmp_path, capsys, mode, flag, message):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "bad.json").write_text('{"scene_id": "x"}', encoding="utf-8")
        code = run(
            "build-corpus",
            "--scenes", str(scenes),
            "--mode", mode,
            "--instructions", f"{DATA}/instructions_extend.jsonl",
            flag,
            "--out", str(tmp_path / "t.jsonl"),
            "--stub",
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == [scenes]


def test_solvability_names_a_bad_stride_before_a_malformed_scene(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    (scenes / "bad.json").write_text('{"scene_id": "x"}', encoding="utf-8")
    code = run(
        "solvability",
        "--scenes", str(scenes),
        "--instructions", f"{DATA}/instructions_solvability.jsonl",
        "--stride=0",
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 2
    assert capsys.readouterr().err == "error: stride must be >= 1\n"
    assert sorted(tmp_path.iterdir()) == [scenes]


def test_empty_view_id_exits_2_naming_the_field(tmp_path, capsys):
    scene = json.loads((DATA_DIR / "scenes" / "scene-a.json").read_text(encoding="utf-8"))
    scene["views"][3]["view_id"] = ""
    scene["views"][3].pop("image_path", None)
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    (scenes / "scene-a.json").write_text(json.dumps(scene), encoding="utf-8")
    code = run(
        "build-corpus",
        "--scenes", str(scenes),
        "--mode", "captions",
        "--out", str(tmp_path / "t.jsonl"),
        "--stub",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {scenes / 'scene-a.json'}:views[3].view_id: must be non-empty\n"
    assert sorted(tmp_path.iterdir()) == [scenes]


def test_empty_scene_id_exits_2_naming_the_field(tmp_path, capsys):
    scene = json.loads((DATA_DIR / "scenes" / "scene-a.json").read_text(encoding="utf-8"))
    scene["scene_id"] = ""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    (scenes / "scene-a.json").write_text(json.dumps(scene), encoding="utf-8")
    code = run(
        "build-corpus",
        "--scenes", str(scenes),
        "--mode", "captions",
        "--out", str(tmp_path / "t.jsonl"),
        "--stub", "--threshold", "0", "--stride", "1",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {scenes / 'scene-a.json'}:scene.scene_id: must be non-empty\n"
    assert sorted(tmp_path.iterdir()) == [scenes]


# Each command on the fixture inputs, less --out.
_RUNS = {
    "solvability": (
        "solvability",
        "--scenes", f"{DATA}/scenes",
        "--instructions", f"{DATA}/instructions_solvability.jsonl",
    ),
    "synthesize": _COMMAND_ARGS["synthesize"] + ("--scenes", f"{DATA}/scenes", "--stub"),
    "captions": ("build-corpus", "--mode", "captions", "--scenes", f"{DATA}/scenes", "--stub"),
    "extend": _COMMAND_ARGS["build-corpus"] + ("--scenes", f"{DATA}/scenes", "--stub"),
    "eval": ("eval", "--gold", f"{DATA}/eval_gold.jsonl", "--pred", f"{DATA}/eval_pred.jsonl"),
}


def _config_hash(tmp_path, argv) -> str:
    """The config hash in the provenance of a run of `argv`."""
    out = tmp_path / "out.json"
    assert run(*argv, "--out", str(out)) == 0
    report = out if argv[0] in ("solvability", "eval") else Path(f"{out}.report.json")
    return json.loads(report.read_text(encoding="utf-8"))["provenance"]["config_hash"]


class TestConfigHash:
    @pytest.mark.parametrize(
        "name,config,values",
        [
            ("solvability", WitnessConfig, {"iosa_threshold": "0.4", "min_area_ratio": "0.01"}),
            ("captions", CaptionBuildConfig,
             {"stride": "3", "num_captions": "2", "threshold": "0.3", "tau": "0.4"}),
        ],
    )
    def test_every_setting_enters_the_hash(self, tmp_path, capsys, name, config, values):
        assert set(values) == {field.name for field in fields(config)}
        default = _config_hash(tmp_path, _RUNS[name])
        for field, value in values.items():
            flag = "--" + field.replace("_", "-")
            assert _config_hash(tmp_path, _RUNS[name] + (f"{flag}={value}",)) != default, flag

    # Non-default settings, hashed by the release that first pinned them;
    # a hash may change only with the tool version.
    @pytest.mark.parametrize(
        "name,settings,expected",
        [
            ("solvability",
             ("--stride", "2", "--iosa-threshold", "0.4", "--min-area-ratio", "0.01"),
             "52b153c087c6"),
            ("synthesize", (), "61183b65eac7"),
            ("captions",
             ("--stride", "3", "--num-captions", "2", "--threshold", "0.3", "--tau", "0.4"),
             "34f1cafe0182"),
            ("extend", ("--tau", "0.4"), "1b2e4e0db4db"),
            ("eval", (), "4ccf4787c9e9"),
        ],
    )
    def test_pinned_hash(self, tmp_path, capsys, name, settings, expected):
        assert _config_hash(tmp_path, _RUNS[name] + settings + ("--seed", "7")) == expected


class TestEvalCommand:
    def test_perfect_predictions(self, tmp_path, data_dir):
        preds = tmp_path / "pred.jsonl"
        rows = [
            {"question_id": "g1", "prediction": "red"},
            {"question_id": "g2", "prediction": "on right side"},
            {"question_id": "g3", "prediction": "two"},
            {"question_id": "g4", "prediction": "waste basket"},
        ]
        preds.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        out = tmp_path / "report.json"
        code = run(
            "eval", "--gold", str(data_dir / "eval_gold.jsonl"),
            "--pred", str(preds), "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["overall_em"] == 100.0

    def test_fixture_pattern(self, tmp_path, data_dir, golden_dir):
        out = tmp_path / "report.json"
        code = run(
            "eval", "--gold", str(data_dir / "eval_gold.jsonl"),
            "--pred", str(data_dir / "eval_pred.jsonl"), "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (golden_dir / "eval.report.json").read_bytes()

    def test_long_output_name(self, tmp_path, data_dir, golden_dir):
        # 250 bytes, within the usual 255-byte limit; its temp name is short.
        out = tmp_path / ("r" * 245 + ".json")
        code = run(
            "eval", "--gold", str(data_dir / "eval_gold.jsonl"),
            "--pred", str(data_dir / "eval_pred.jsonl"), "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (golden_dir / "eval.report.json").read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == [out.name]

    def test_null_gold_answer_exits_2(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"question_id": "g1", "answer": null}\n', encoding="utf-8")
        preds = tmp_path / "pred.jsonl"
        preds.write_text('{"question_id": "g1", "prediction": "None"}\n', encoding="utf-8")
        code = run("eval", "--gold", str(gold), "--pred", str(preds), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert f"{gold}:1.answer: must be a string, got None" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [gold, preds]

    def test_duplicate_gold_id_names_both_lines(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(
            '{"question_id": "g1", "answer": "a"}\n'
            '{"question_id": "g2", "answer": "b"}\n'
            '{"question_id": "g1", "answer": "c"}\n',
            encoding="utf-8",
        )
        preds = tmp_path / "pred.jsonl"
        preds.write_text('{"question_id": "g1", "prediction": "a"}\n', encoding="utf-8")
        code = run("eval", "--gold", str(gold), "--pred", str(preds), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert f"{gold}:3: id 'g1' already used at {gold}:1" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [gold, preds]

    def test_min_views_below_one_exits_2(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(
            '{"question_id": "g1", "answer": "a", "min_views": -2}\n'
            '{"question_id": "g2", "answer": "b", "min_views": 0}\n',
            encoding="utf-8",
        )
        preds = tmp_path / "pred.jsonl"
        preds.write_text('{"question_id": "g1", "prediction": "a"}\n', encoding="utf-8")
        code = run("eval", "--gold", str(gold), "--pred", str(preds), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert f"{gold}:1.min_views: must be at least 1, got -2" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [gold, preds]

    def test_duplicate_prediction_exits_3(self, tmp_path, data_dir, capsys):
        preds = tmp_path / "pred.jsonl"
        preds.write_text(
            '{"question_id": "g1", "prediction": "a"}\n'
            '{"question_id": "g1", "prediction": "b"}\n',
            encoding="utf-8",
        )
        code = run(
            "eval", "--gold", str(data_dir / "eval_gold.jsonl"),
            "--pred", str(preds), "--out", str(tmp_path / "r.json"),
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {preds}:2: id 'g1' already used at {preds}:1\n"

    def test_unknown_question_exits_3(self, tmp_path, data_dir):
        preds = tmp_path / "pred.jsonl"
        preds.write_text('{"question_id": "ghost", "prediction": "a"}\n', encoding="utf-8")
        code = run(
            "eval", "--gold", str(data_dir / "eval_gold.jsonl"),
            "--pred", str(preds), "--out", str(tmp_path / "r.json"),
        )
        assert code == 3


class TestUsageAndConfig:
    def test_unknown_command_exits_1(self):
        assert run("frobnicate") == 1

    def test_missing_required_argument_exits_1(self):
        assert run("solvability", "--scenes", "x") == 1

    def test_env_var_overrides_service_url(self, monkeypatch):
        from egoview.cli import _service_client

        class Args:
            stub = False
            service = "http://from-flag"

        monkeypatch.setenv("MODEL_SERVICE_URL", "http://from-env")
        client = _service_client(Args())
        assert client.base_url == "http://from-env"

        monkeypatch.delenv("MODEL_SERVICE_URL")
        client = _service_client(Args())
        assert client.base_url == "http://from-flag"

    def test_stub_runs_never_import_requests(self, tmp_path, data_dir):
        script = (
            "import sys\n"
            "import egoview.cli\n"
            "code = egoview.cli.main(sys.argv[1:])\n"
            "assert code == 0, code\n"
            "assert 'requests' not in sys.modules\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [
                sys.executable, "-c", script, "synthesize",
                "--scenes", str(data_dir / "scenes"),
                "--questions", str(data_dir / "questions.jsonl"),
                "--out", str(tmp_path / "composed.jsonl"),
                "--stub",
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr

    def test_record_commands_are_clean_in_dev_mode(self, tmp_path, data_dir):
        """`solvability`, both `build-corpus` modes and `synthesize` decode
        scenes and write records, and `eval` reads them, with no unclosed
        handle or warning, each in a fresh `python -X dev -W error`."""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        scenes = str(data_dir / "scenes")
        for argv in (
            ("solvability", "--scenes", scenes,
             "--instructions", str(data_dir / "instructions_solvability.jsonl"),
             "--out", str(tmp_path / "report.json")),
            ("build-corpus", "--scenes", scenes, "--mode", "captions",
             "--out", str(tmp_path / "captions.jsonl"), "--stub"),
            ("build-corpus", "--scenes", scenes, "--mode", "extend",
             "--instructions", str(data_dir / "instructions_extend.jsonl"),
             "--out", str(tmp_path / "extend.jsonl"), "--stub"),
            ("synthesize", "--scenes", scenes,
             "--questions", str(data_dir / "questions.jsonl"),
             "--out", str(tmp_path / "composed.jsonl"), "--stub"),
            ("eval", "--gold", str(data_dir / "eval_gold.jsonl"),
             "--pred", str(data_dir / "eval_pred.jsonl"), "--out", str(tmp_path / "eval.json")),
        ):
            result = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-m", "egoview.cli", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (result.returncode, result.stderr) == (0, ""), argv[0]

    def test_seed_recorded_in_provenance(self, tmp_path, data_dir):
        out = tmp_path / "composed.jsonl"
        run(
            "synthesize",
            "--scenes", str(data_dir / "scenes"),
            "--questions", str(data_dir / "questions.jsonl"),
            "--out", str(out),
            "--stub",
            "--seed", "123",
        )
        header = json.loads(out.read_text().splitlines()[0])
        assert header["record"] == "provenance"
        assert header["seed"] == 123
        assert header["config_hash"]

    def test_seed_reaches_no_record(self, tmp_path, data_dir):
        """`--seed` changes only `seed` and `config_hash` in the provenance
        header and the report; every record is the same."""

        def unseeded(block):
            return {key: unseeded(value) if isinstance(value, dict) else value
                    for key, value in block.items() if key not in ("seed", "config_hash")}

        runs = []
        for seed in ("0", "123"):
            out = tmp_path / f"composed-{seed}.jsonl"
            code = run(
                "synthesize", "--scenes", str(data_dir / "scenes"),
                "--questions", str(data_dir / "questions.jsonl"),
                "--out", str(out), "--stub", "--seed", seed,
            )
            assert code == 0
            header, *records = out.read_text().splitlines()
            report = json.loads(Path(f"{out}.report.json").read_text())
            runs.append((json.loads(header), records, report))
        (header0, records0, report0), (header123, records123, report123) = runs
        assert (header0["seed"], header123["seed"]) == (0, 123)
        assert records0 and records0 == records123
        assert unseeded(header0) == unseeded(header123)
        assert unseeded(report0) == unseeded(report123)


# `egoview <command> --help` at 80 columns.  Building the parser imports no
# command's modules, yet each command's options and defaults read as before.
HELP = {
    "solvability": """\
usage: egoview solvability [-h] --scenes SCENES --instructions INSTRUCTIONS
                           --out OUT [--stride STRIDE]
                           [--iosa-threshold IOSA_THRESHOLD]
                           [--min-area-ratio MIN_AREA_RATIO] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --scenes SCENES       directory of scene JSON files
  --instructions INSTRUCTIONS
                        instruction JSONL file
  --out OUT             report JSON output path
  --stride STRIDE       candidate view stride (default 1)
  --iosa-threshold IOSA_THRESHOLD
  --min-area-ratio MIN_AREA_RATIO
  --seed SEED
""",
    "synthesize": """\
usage: egoview synthesize [-h] --scenes SCENES --questions QUESTIONS --out OUT
                          [--report REPORT] [--seed SEED]
                          (--stub | --service URL)

options:
  -h, --help            show this help message and exit
  --scenes SCENES
  --questions QUESTIONS
                        question JSONL file
  --out OUT             composed-question JSONL output path
  --report REPORT       report JSON path (default: <out>.report.json)
  --seed SEED
  --stub                use deterministic in-process stubs
  --service URL         model service base URL
""",
    "build-corpus": """\
usage: egoview build-corpus [-h] --scenes SCENES --mode {captions,extend}
                            [--instructions INSTRUCTIONS] --out OUT
                            [--report REPORT] [--stride STRIDE]
                            [--num-captions NUM_CAPTIONS]
                            [--threshold THRESHOLD] [--tau TAU] [--seed SEED]
                            (--stub | --service URL)

options:
  -h, --help            show this help message and exit
  --scenes SCENES
  --mode {captions,extend}
  --instructions INSTRUCTIONS
                        instruction JSONL (required for extend mode)
  --out OUT             triplet JSONL output path
  --report REPORT       summary JSON path (default: <out>.report.json)
  --stride STRIDE       view sampling stride (default 20)
  --num-captions NUM_CAPTIONS
  --threshold THRESHOLD
                        caption keep threshold
  --tau TAU             visibility threshold
  --seed SEED
  --stub                use deterministic in-process stubs
  --service URL         model service base URL
""",
    "eval": """\
usage: egoview eval [-h] --gold GOLD --pred PRED --out OUT [--seed SEED]

options:
  -h, --help   show this help message and exit
  --gold GOLD  gold answer JSONL
  --pred PRED  prediction JSONL
  --out OUT    report JSON output path
  --seed SEED
""",
}


# `egoview --help` at 80 columns, the `cli` docstring first: what a user
# reads, with no notes for developers.
TOP_HELP = """\
usage: egoview [-h] [--version] {solvability,synthesize,build-corpus,eval} ...

Count the views that questions need, compose multi-view questions, build
view/object/text triplets and score answers by exact match.

exit codes:
  0  success
  1  usage error
  2  schema or data error, unreadable input or unwritable output
  3  unknown reference
  4  model-service failure

A failing command leaves no partial output.  Nothing is random: --seed enters
only the provenance and the config hash.

positional arguments:
  {solvability,synthesize,build-corpus,eval}
    solvability         view-requirement analysis over instructions
    synthesize          compose multi-view questions from pairs
    build-corpus        build view/object/text triplets
    eval                exact-match evaluation of predictions

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""


class TestParser:
    def test_defaults_come_from_the_config_classes(self):
        from egoview.corpus import CaptionBuildConfig
        from egoview.solvability import WitnessConfig

        for argv, config in [
            (["solvability", "--scenes", "s", "--instructions", "i", "--out", "o"],
             WitnessConfig()),
            (["build-corpus", "--scenes", "s", "--mode", "captions", "--out", "o", "--stub"],
             CaptionBuildConfig()),
        ]:
            args = vars(build_parser().parse_args(argv))
            assert {key: args[key] for key in asdict(config)} == asdict(config)

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text_is_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == HELP[command]

    def test_top_level_help_text_is_pinned(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == TOP_HELP
