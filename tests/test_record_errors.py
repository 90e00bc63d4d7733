"""Record-boundary property: mutations generated from each record kind's
field table, run through the command that reads that kind.

A case is one mutation of one data line of a fixture file: a field of the
kind's table deleted, set to one of `test_scene_errors.VALUES` or, for an
id list, emptied (the list's first entry gets the values too), or the whole
line duplicated.  Instructions go through `solvability` and `build-corpus
--mode extend`, gold answers and predictions through `eval`, and triplets,
which no command reads, through `corpus.read_triplets`.  Each exits 0, 2 or
3 with no traceback: exit 2 names the file, the line and the field, exit 3
the record, and a failure leaves no output or temp file.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoview import records
from egoview.cli import main
from egoview.corpus import read_triplets
from egoview.errors import DuplicateId, SchemaError

from .conftest import DATA_DIR, GOLDEN_DIR
from .test_scene_errors import VALUES, mutated

README = Path(__file__).parent.parent / "README.md"


def _data_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def table_mutations(kind: records.RecordKind, lines: list[str]) -> list[tuple]:
    """(line index, key path, mutation) of every case on the data lines of
    `lines`; a key path of None duplicates the line."""
    cases = []
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record.get("record") == "provenance":
            continue
        cases.append((index, None, "duplicate"))
        for field in kind.fields:
            keys = tuple(field.key.split("."))
            value, present = record, True
            for key in keys:
                present = isinstance(value, dict) and key in value
                value = value[key] if present else None
            names = [*VALUES, "delete"] if present else [*VALUES]
            if field.kind == "integer list":
                names.append("empty")
                if value:
                    cases.extend((index, (*keys, 0), name) for name in VALUES)
            cases.extend((index, keys, name) for name in names)
    return cases


def _write_mutated(path: Path, lines: list[str], case) -> tuple[int, dict]:
    """Write `lines` with `case` applied to `path`; the 1-based number of
    the offending line and the record on it."""
    index, keys, mutation = case
    lines = list(lines)
    if keys is None:
        lines.insert(index + 1, lines[index])
        offending = index + 2
    else:
        lines[index] = json.dumps(mutated(json.loads(lines[index]), keys, mutation))
        offending = index + 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return offending, json.loads(lines[offending - 1])


def _run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


def _check_exit(code, message, path, line, keys, names, left, inputs, outputs):
    """The property for one command run on a mutated record file: exit 2
    names the file, the line and the field (for a repeated line, its id),
    exit 3 one of `names`, and a failure leaves only the inputs."""
    assert code in (0, 2, 3), message
    if code == 2:
        assert re.match(rf"error: {re.escape(str(path))}:{line}[.:]", message), message
        assert (keys[0] if keys else "already used") in message, message
    if code == 3:
        assert any(name in message for name in names), message
    assert left == sorted([*inputs, *([] if code else outputs)]), message


INSTRUCTION_LINES = _data_lines(DATA_DIR / "instructions_extend.jsonl")
GOLD_LINES = _data_lines(DATA_DIR / "eval_gold.jsonl")
PREDICTION_LINES = _data_lines(DATA_DIR / "eval_pred.jsonl")
TRIPLET_LINES = _data_lines(GOLDEN_DIR / "triplets_extend.jsonl")


@given(st.sampled_from(table_mutations(records.INSTRUCTIONS, INSTRUCTION_LINES)))
@settings(max_examples=80, deadline=None)
def test_instruction_mutations_through_solvability_and_extend(case):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        path = workdir / "ins.jsonl"
        line, record = _write_mutated(path, INSTRUCTION_LINES, case)
        names = [f"error: instruction {record.get('instruction_id')!r}: "]
        scenes = str(DATA_DIR / "scenes")
        code, message = _run(
            "solvability", "--scenes", scenes, "--instructions", str(path),
            "--out", str(workdir / "report.json"),
        )
        left = sorted(child.name for child in workdir.iterdir())
        _check_exit(code, message, path, line, case[1], names, left, ["ins.jsonl"], ["report.json"])
        (workdir / "report.json").unlink(missing_ok=True)
        code, message = _run(
            "build-corpus", "--scenes", scenes, "--mode", "extend", "--instructions", str(path),
            "--out", str(workdir / "t.jsonl"), "--stub",
        )
        left = sorted(child.name for child in workdir.iterdir())
        outputs = ["t.jsonl", "t.jsonl.report.json"]
        _check_exit(code, message, path, line, case[1], names, left, ["ins.jsonl"], outputs)


EVAL_CASES = [
    *(("gold.jsonl", case) for case in table_mutations(records.GOLD, GOLD_LINES)),
    *(("pred.jsonl", case) for case in table_mutations(records.PREDICTIONS, PREDICTION_LINES)),
]


@given(st.sampled_from(EVAL_CASES))
@settings(max_examples=80, deadline=None)
def test_gold_and_prediction_mutations_through_eval(name_and_case):
    name, case = name_and_case
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        files = {"gold.jsonl": GOLD_LINES, "pred.jsonl": PREDICTION_LINES}
        for other, lines in files.items():
            (workdir / other).write_text("\n".join(lines) + "\n", encoding="utf-8")
        path = workdir / name
        original = json.loads(files[name][case[0]])
        line, record = _write_mutated(path, files[name], case)
        code, message = _run(
            "eval", "--gold", str(workdir / "gold.jsonl"), "--pred", str(workdir / "pred.jsonl"),
            "--out", str(workdir / "r.json"),
        )
        left = sorted(child.name for child in workdir.iterdir())
    names = [repr(original["question_id"]), repr(record.get("question_id"))]
    _check_exit(code, message, path, line, case[1], names, left, list(files), ["r.json"])


@given(st.sampled_from(table_mutations(records.TRIPLETS, TRIPLET_LINES)))
@settings(max_examples=100, deadline=None)
def test_triplet_mutations_through_read_triplets(case):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        line, _ = _write_mutated(path, TRIPLET_LINES, case)
        try:
            read_triplets(path)
        except SchemaError as exc:
            assert exc.field.startswith(f"{path}:{line}.{case[1][0]}"), exc
        except DuplicateId as exc:
            assert str(exc).startswith(f"{path}:{line}: id "), exc


# The README's name for each record kind's row group in its "Record files" table.
KINDS = {
    "instructions": records.INSTRUCTIONS,
    "questions": records.QUESTIONS,
    "gold answers": records.GOLD,
    "predictions": records.PREDICTIONS,
    "triplets": records.TRIPLETS,
}


def _readme_rows() -> dict[str, list[tuple[str, str, str, bool]]]:
    """(field, kind, if absent, whether a rule is given) of each row of
    README's record table, by file."""
    section = README.read_text(encoding="utf-8").split("**Record files**")[1].split("\n## ")[0]
    rows: dict[str, list] = {}
    name = None
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|") or len(cells) != 5 or not cells[1].startswith("`"):
            continue
        name = cells[0] or name
        rows.setdefault(name, []).append((cells[1].strip("`"), cells[2], cells[3], bool(cells[4])))
    return rows


@pytest.mark.parametrize("name", KINDS)
def test_readme_lists_each_table(name):
    kind = KINDS[name]
    expected = [
        (
            field.key,
            field.kind,
            "required" if field.absent is records.REQUIRED else f"`{json.dumps(field.absent)}`",
            field.rule is not None,
        )
        for field in kind.fields
    ]
    assert _readme_rows()[name] == expected
    assert kind.id_key == kind.fields[0].key
