"""The benchmark's set-up probe (`perfbench/probe.py`) and its own tests
(`perfbench/test_perfbench.py`) reach egoview by module and attribute
name.  These tests read both files with `ast`, without running them, and
check that every `from egoview.X import Y`, `import egoview.X` and
`egoview.X.Y` they use still resolves, so that moving a name the
benchmark reads fails here first instead of failing every benchmark run.
`tests/test_tracer_targets.py` does the same for the tracer's targets."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Names the benchmark's own tests read that egoview has not bound since
# their layers moved (`corpus` stopped importing `visible_objects`, and
# `cli` imports `load_scenes_dir` inside its commands).  The benchmark
# change of ROADMAP item 2 mends them.
STALE = {"egoview.corpus.visible_objects", "egoview.cli.load_scenes_dir"}


def _egoview_names(path: Path) -> set[tuple[str, str | None]]:
    """(module, attribute) of every egoview name the file reads; the
    attribute is None for a bare `import egoview.X`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("egoview."):
            names.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update((a.name, None) for a in node.names if a.name.startswith("egoview."))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "egoview"
        ):
            names.add((f"egoview.{node.value.attr}", node.attr))
    return names


def _resolves(module: str, attr: str | None) -> bool:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    return attr is None or hasattr(owner, attr)


@pytest.mark.parametrize(
    "name,required",
    [
        ("probe.py", {("egoview.cli", None), ("egoview.corpus", "load_scenes_dir")}),
        ("test_perfbench.py", {("egoview.corpus", "load_scene"), ("egoview.cli", "main")}),
    ],
)
def test_benchmark_names_resolve(name, required):
    names = _egoview_names(PERFBENCH / name)
    assert required <= names  # the parse finds what the file is known to read
    broken = {f"{m}.{a}" if a else m for m, a in names if not _resolves(m, a)}
    assert broken <= STALE, sorted(broken - STALE)
