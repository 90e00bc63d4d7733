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
