"""A tracer that times egoview's layers from outside the package.

It wraps the public functions of each layer in place and restores them on
uninstall.  Callers reach a function through several bindings: `cli`
imports its callees by name, `corpus` imports the selection functions by
name, `synthesis` imports `min_view_count` by name, `solvability` calls
`witness_matrix` and `min_cover` as module globals, `selection` and
`witnesses` call `geometry.project_box` and `geometry.iosa` through the
module, and the stub routes are methods of `StubModelService`.  So install
replaces the function at every module attribute of the package that holds
it; a binding it missed would lose spans silently, and shows up as
untraced or parent self time.

Spans (name, start, end, parent, job) stay in memory in flat arrays and
are written once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    module and attr locate it (attr may be Class.method); name is the span
    name, or a function of the call's arguments for spans named per command.
    span=False only counts calls.  Each counter is (suffix, source, fn): fn
    of the named argument, or of the return value when source is "return",
    is added to the counter `<name>.<suffix>`.
    """

    module: str
    attr: str
    name: str | Callable = ""
    span: bool = True
    counters: tuple = ()


def _corpus_mode(args, kwargs):
    return f"cli.{args[0].mode}"


TARGETS = (
    Target("cli", "cmd_solvability", "cli.solvability"),
    Target("cli", "cmd_build_corpus", _corpus_mode),
    Target("cli", "cmd_synthesize", "cli.synthesize"),
    Target("cli", "cmd_eval", "cli.eval"),
    Target("corpus", "load_scenes_dir", counters=(
        ("views", "return", lambda scenes: sum(len(s.views) for s in scenes.values())),)),
    Target("corpus", "read_instructions"),
    Target("corpus", "write_jsonl", counters=(("records", "rows", len),)),
    Target("corpus", "build_caption_triplets"),
    Target("corpus", "extend_dataset_triplets"),
    Target("geometry", "project_box"),
    Target("geometry", "iosa", span=False),
    Target("solvability", "witness_matrix", counters=(("rows", "views", len),)),
    Target("solvability", "min_cover", counters=(
        ("exact", "return", lambda req: int(req.solver == "exact")),)),
    Target("solvability", "min_view_count"),
    Target("solvability", "view_requirement_stats"),
    Target("selection", "visible_objects"),
    Target("selection", "select_view_for_dc"),
    Target("selection", "select_view_for_qa"),
    Target("services", "StubModelService.score_image_text", counters=(("texts", "texts", len),)),
    Target("services", "StubModelService.caption_image"),
    Target("services", "StubModelService.register_view_labels", span=False),
    Target("services", "StubModelService.generate_text"),
    Target("synthesis", "read_questions"),
    Target("synthesis", "synthesize_dataset", counters=(
        ("composed", "return", lambda out: len(out[0])),
        ("pairs_considered", "return", lambda out: out[1].pairs_considered),
    )),
    Target("synthesis", "eligible_pairs", counters=(("pairs", "return", len),)),
    Target("synthesis", "compose_question"),
    Target("synthesis", "verify_composition"),
    Target("evaluate", "em_score", counters=(("gold", "gold", len),)),
)

# The per-layer metrics, in report order: (name, unit, better).
_COUNT, _TIME, _SHARE = "count", "s", "share"
METRICS = (
    ("solvability.witness_matrix.calls", _COUNT, "lower"),
    ("solvability.witness_matrix.rows", _COUNT, "lower"),
    ("solvability.witness_matrix.self_s", _TIME, "lower"),
    ("selection.visible_objects.calls", _COUNT, "lower"),
    ("selection.visible_objects.self_s", _TIME, "lower"),
    ("selection.select_view_for_dc.calls", _COUNT, "lower"),
    ("selection.select_view_for_dc.self_s", _TIME, "lower"),
    ("selection.select_view_for_qa.calls", _COUNT, "lower"),
    ("selection.select_view_for_qa.self_s", _TIME, "lower"),
    ("geometry.project_box.calls", _COUNT, "lower"),
    ("geometry.project_box.self_s", _TIME, "lower"),
    ("geometry.iosa.calls", _COUNT, "lower"),
    ("solvability.min_cover.calls", _COUNT, "lower"),
    ("solvability.min_cover.self_s", _TIME, "lower"),
    ("solvability.min_cover.exact_share", _SHARE, "higher"),
    ("solvability.min_view_count.calls", _COUNT, "lower"),
    ("solvability.min_view_count.self_s", _TIME, "lower"),
    ("solvability.view_requirement_stats.self_s", _TIME, "lower"),
    ("services.score_image_text.calls", _COUNT, "lower"),
    ("services.score_image_text.texts", _COUNT, "lower"),
    ("services.score_image_text.self_s", _TIME, "lower"),
    ("services.caption_image.calls", _COUNT, "lower"),
    ("services.caption_image.self_s", _TIME, "lower"),
    ("services.register_view_labels.calls", _COUNT, "lower"),
    ("services.generate_text.calls", _COUNT, "lower"),
    ("services.generate_text.self_s", _TIME, "lower"),
    ("corpus.load_scenes_dir.self_s", _TIME, "lower"),
    ("corpus.load_scenes_dir.views", _COUNT, "lower"),
    ("corpus.read_instructions.self_s", _TIME, "lower"),
    ("corpus.write_jsonl.self_s", _TIME, "lower"),
    ("corpus.write_jsonl.records", _COUNT, "lower"),
    ("corpus.build_caption_triplets.self_s", _TIME, "lower"),
    ("corpus.extend_dataset_triplets.self_s", _TIME, "lower"),
    ("synthesis.eligible_pairs.self_s", _TIME, "lower"),
    ("synthesis.eligible_pairs.pairs", _COUNT, "lower"),
    ("synthesis.compose_question.calls", _COUNT, "lower"),
    ("synthesis.compose_question.self_s", _TIME, "lower"),
    ("synthesis.verify_composition.self_s", _TIME, "lower"),
    ("synthesis.synthesize_dataset.self_s", _TIME, "lower"),
    ("synthesis.composed_share", _SHARE, "higher"),
    ("synthesis.read_questions.self_s", _TIME, "lower"),
    ("evaluate.em_score.self_s", _TIME, "lower"),
    ("evaluate.em_score.gold", _COUNT, "lower"),
    ("cli.solvability.wall_s", _TIME, "lower"),
    ("cli.captions.wall_s", _TIME, "lower"),
    ("cli.extend.wall_s", _TIME, "lower"),
    ("cli.synthesize.wall_s", _TIME, "lower"),
    ("cli.eval.wall_s", _TIME, "lower"),
    ("cli.self_s", _TIME, "lower"),
    ("trace.untraced_share", _SHARE, "lower"),
    ("trace.overhead_share", _SHARE, "lower"),
)

JOB_SPAN = "job"


def _span_name(target: Target) -> str | Callable:
    if target.name:
        return target.name
    return f"{target.module}.{target.attr.rsplit('.', 1)[-1]}"


def _getter(fn, source: str, extract):
    """Turn a counter's source into fn(args, kwargs, result) -> number."""
    if source == "return":
        return lambda args, kwargs, result: extract(result)
    params = inspect.signature(fn).parameters
    pos = list(params).index(source)
    default = params[source].default

    def get(args, kwargs, result):
        if pos < len(args):
            return extract(args[pos])
        return extract(kwargs.get(source, default))

    return get


class Tracer:
    """Span recorder with install/uninstall patching of egoview's layers."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._job = array("q")
        self._start = array("d")
        self._end = array("d")
        self.counts: dict[int, dict[str, float]] = {}
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._job_id = -1
        self._counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        ix = self._index.get(name)
        if ix is None:
            ix = self._index[name] = len(self.names)
            self.names.append(name)
        return ix

    def _open(self, ix: int) -> int:
        i = len(self._start)
        self._name.append(ix)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._job.append(self._job_id)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    def _add(self, key: str, amount: float) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def _wrap(self, fn, target: Target):
        name = _span_name(target)
        counters = tuple(
            (f"{name}.{suffix}", _getter(fn, source, extract))
            for suffix, source, extract in target.counters
        )
        tracer = self

        if not target.span:
            key = f"{name}.calls"

            def counted(*args, **kwargs):
                tracer._add(key, 1)
                return fn(*args, **kwargs)

            return counted

        fixed = self._name_index(name) if isinstance(name, str) else None

        def spanned(*args, **kwargs):
            ix = fixed if fixed is not None else tracer._name_index(name(args, kwargs))
            i = tracer._open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            for key, get in counters:
                tracer._add(key, get(args, kwargs, result))
            return result

        return spanned

    def install(self) -> None:
        """Replace every target at each egoview module attribute bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "egoview" or n.startswith("egoview."))
        ]
        for target in TARGETS:
            owner = importlib.import_module(f"egoview.{target.module}")
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, target)
            if path:
                sites = [(owner, attr, f"egoview.{target.module}.{target.attr}")]
            else:
                sites = [(m, a, f"{m.__name__}.{a}")
                         for m in modules for a, v in vars(m).items() if v is original]
            self.bindings[f"{target.module}.{target.attr}"] = [where for _, _, where in sites]
            for site, site_attr, _ in sites:
                setattr(site, site_attr, wrapper)
                self._patched.append((site, site_attr, original))

    def uninstall(self) -> None:
        while self._patched:
            site, attr, original = self._patched.pop()
            setattr(site, attr, original)

    @contextmanager
    def job(self, job_id: int):
        """Record one job as a root span; counters collect under its id."""
        if self._stack:
            raise RuntimeError("job span opened inside another span")
        self._job_id = job_id
        self._counts = self.counts.setdefault(job_id, {})
        i = self._open(self._name_index(JOB_SPAN))
        try:
            yield
        finally:
            self._close(i)
            self._job_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self._name, dtype=np.int64),
            "parent": np.array(self._parent, dtype=np.int64),
            "job": np.array(self._job, dtype=np.int64),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def span_stats(self) -> dict[int, dict[str, tuple[int, float, float]]]:
        """Per job: span name -> (calls, self seconds, wall seconds).

        A span's self time is its duration minus its children's durations;
        spans of one thread nest, so children never overlap."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        self_t = dur - np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        n_names = len(self.names)
        key = a["job"] * n_names + a["name"]
        out: dict[int, dict[str, tuple[int, float, float]]] = {}
        for k in np.unique(key):
            sel = key == k
            job, ix = divmod(int(k), n_names)
            out.setdefault(job, {})[self.names[ix]] = (
                int(sel.sum()), float(self_t[sel].sum()), float(dur[sel].sum()))
        return out


def job_metrics(spans: dict[str, tuple[int, float, float]], counts: dict[str, float]) -> dict:
    """Every metric in METRICS but trace.overhead_share, for one traced job."""
    def stat(name: str, field: int):
        return spans.get(name, (0, 0.0, 0.0))[field]

    out: dict[str, float] = {}
    for metric, _, _ in METRICS:
        base, _, suffix = metric.rpartition(".")
        if metric == "trace.overhead_share":
            continue
        if metric == "trace.untraced_share":
            out[metric] = stat(JOB_SPAN, 1) / stat(JOB_SPAN, 2)
        elif metric == "cli.self_s":
            out[metric] = sum(s[1] for n, s in spans.items() if n.startswith("cli."))
        elif metric == "solvability.min_cover.exact_share":
            calls = stat("solvability.min_cover", 0)
            out[metric] = counts.get("solvability.min_cover.exact", 0) / calls if calls else 0.0
        elif metric == "synthesis.composed_share":
            pairs = counts.get("synthesis.synthesize_dataset.pairs_considered", 0)
            kept = counts.get("synthesis.synthesize_dataset.composed", 0)
            out[metric] = kept / pairs if pairs else 0.0
        elif suffix == "calls" and base in spans:
            out[metric] = stat(base, 0)
        elif suffix == "self_s":
            out[metric] = stat(base, 1)
        elif suffix == "wall_s":
            out[metric] = stat(base, 2)
        else:
            out[metric] = counts.get(metric, 0)
    return out


def median_metrics(per_job: list[dict]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
