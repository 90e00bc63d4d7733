"""The benchmark tracer (`perfbench/tracer.py`) wraps egoview functions by
module and attribute name and reads some of their arguments by parameter
name.  These tests load it by file path, without installing it, and check
that every hook still resolves, so a rename or deletion that would break
`perfbench/run.py --trace 1` fails here first."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    name = "_perfbench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


def _resolve(target):
    owner = importlib.import_module(f"egoview.{target.module}")
    for part in target.attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_has_targets():
    assert len(TARGETS) >= 28


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_target_resolves(target):
    fn = _resolve(target)
    assert callable(fn)
    params = inspect.signature(fn).parameters
    for suffix, source, _ in target.counters:
        if source != "return":
            assert source in params, f"counter {suffix!r} reads missing parameter {source!r}"


def test_patched_min_cover_sees_every_count(monkeypatch):
    """The tracer counts `solvability.min_cover.calls` and its exact share by
    patching that module attribute.  Every minimum view count must reach the
    solver through it, or those metrics read 0 without notice."""
    from types import SimpleNamespace

    import numpy as np

    from egoview import solvability

    from .scenegen import random_posed_scene

    answers = []
    real = solvability.min_cover

    def traced(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(solvability, "min_cover", traced)
    views, objects = random_posed_scene(np.random.default_rng(5), 8, 6)
    id_sets = [frozenset({0}), frozenset({1, 2}), frozenset({3, 4, 5}), frozenset(range(6))]
    table = solvability.WitnessTable.build(objects, views, solvability.WitnessConfig())
    counts = [
        *(table.min_view_count(ids) for ids in id_sets),
        *(solvability.min_view_count(ids, views, objects) for ids in id_sets),
    ]
    assert answers == counts
    answers.clear()
    scene = SimpleNamespace(views=views, objects=objects)
    instructions = [
        SimpleNamespace(instruction_id=f"i{k}", scene_id="s", related_object_ids=ids)
        for k, ids in enumerate(id_sets)
    ]
    reqs = solvability.view_requirement_stats(instructions, {"s": scene})
    assert answers == reqs
    assert {req.n is None for req in answers} == {True, False}
