"""Tests of the benchmark itself: input generator, tracer coverage, output
checks and the result contract.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import egoview.cli  # noqa: E402
import egoview.corpus  # noqa: E402
import egoview.selection  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import worker  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402
from egoview.solvability import witness_matrix  # noqa: E402
from gen import SceneSize  # noqa: E402
from workloads import WORKLOADS, check_outputs, job_commands  # noqa: E402

TINY = {
    "solvability": SceneSize(1, (8.0, 6.0), 24, 16, 10),
    "corpus": SceneSize(1, (6.0, 5.0), 20, 10, 6),
    "synthesize": SceneSize(1, (6.0, 5.0), 20, 20, 12),
}

# Call counts each workload must make (> 0); every other `.calls` metric
# must be zero on it.  This is the layer map of README.md.
CALLED = {
    "solvability": {
        "solvability.witness_matrix.calls", "solvability.min_cover.calls",
        "solvability.min_view_count.calls",
    },
    "corpus": {
        "selection.visible_objects.calls", "selection.select_view_for_dc.calls",
        "selection.select_view_for_qa.calls", "geometry.project_box.calls",
        "geometry.iosa.calls", "services.score_image_text.calls",
        "services.caption_image.calls", "services.register_view_labels.calls",
    },
    "synthesize": {
        "solvability.witness_matrix.calls", "solvability.min_cover.calls",
        "solvability.min_view_count.calls", "services.generate_text.calls",
        "synthesis.compose_question.calls",
    },
}


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _generate(name: str, seed: int, directory: Path) -> dict:
    generated = gen.write_inputs(name, seed, TINY[name], WORKLOADS[name].stride, directory)
    (directory / "reference.json").write_text(json.dumps(generated["reference"]))
    return generated


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_same_seed_same_bytes(tmp_path, name):
    _generate(name, 5, tmp_path / "a")
    _generate(name, 5, tmp_path / "b")
    _generate(name, 6, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert a != c


def test_generated_views_straddle_the_near_plane(tmp_path):
    """A share of (view, object) pairs crosses the near plane, and the
    generator's witness density is the program's own witness matrix."""
    size = WORKLOADS["corpus"].size
    scene = gen.make_scene(gen.np.random.default_rng(0), "s", size)
    (tmp_path / "s.json").write_text(json.dumps(gen.scene_to_dict(scene)))
    loaded = egoview.corpus.load_scene(tmp_path / "s.json")
    vis = gen.visibility(scene, gen.np.arange(size.views))
    assert 0.05 < vis["straddle"].mean() < 0.3
    assert 0.3 < vis["front"].mean() < 0.7
    assert vis["witnessed"].any()
    assert (vis["witnessed"] == witness_matrix(loaded.objects, loaded.views)).all()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run(tmp_path, name):
    """A short traced run: every job passes its checks, spans reach every
    layer the workload uses and none it bypasses, and the tracer leaves the
    package as it found it."""
    originals = (egoview.corpus.visible_objects, egoview.cli.load_scenes_dir)
    _generate(name, 3, tmp_path / "in")
    result = worker.run({
        "workload": name, "inputs": str(tmp_path / "in"), "out": str(tmp_path / "out"),
        "stride": WORKLOADS[name].stride, "seconds": 0, "trace": True,
        "spans": str(tmp_path / "spans.npz"),
    })
    assert (egoview.corpus.visible_objects, egoview.cli.load_scenes_dir) == originals
    assert result["failed"] == 0 and not result["problems"]
    assert result["attempted"] == 1 + worker.MIN_TIMED_JOBS
    assert set(result["layers"]) == {m for m, _, _ in METRICS}
    for metric, value in result["layers"].items():
        if metric.endswith(".calls"):
            assert (value > 0) == (metric in CALLED[name]), metric
    # Argument parsing is untraced; it is a fixed cost per command that the
    # tiny jobs magnify.  At benchmark size the share stays under 1%.
    assert result["layers"]["trace.untraced_share"] <= 0.25
    spans = gen.np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) == len(spans["end"]) > 0


def test_tiny_untraced_run_scales_every_time(tmp_path):
    """An untraced run reports each job and set-up probe twice, as measured
    and scaled to reference speed, with one kernel sample between every two
    measured intervals."""
    _generate("synthesize", 3, tmp_path / "in")
    result = worker.run({
        "workload": "synthesize", "inputs": str(tmp_path / "in"),
        "out": str(tmp_path / "out"), "stride": 1, "seconds": 0, "trace": False,
    })
    assert result["failed"] == 0 and not result["problems"]
    assert len(result["job_s"]) == len(result["job_scaled_s"]) == worker.MIN_TIMED_JOBS
    n_setup = len(range(1, worker.MIN_TIMED_JOBS + 1, worker.SETUP_EVERY))
    assert len(result["setup_s"]) == len(result["setup_scaled_s"]) == n_setup
    assert len(result["kernel_s"]) == 1 + worker.MIN_TIMED_JOBS + n_setup
    assert all(t > 0 for t in result["job_scaled_s"] + result["setup_scaled_s"])


def test_scaling_follows_the_kernel_around_each_interval():
    ref = hostspeed.REFERENCE_S
    # A host twice as slow as the reference doubles the kernel and the job.
    assert hostspeed.scaled([(3.0, 1)], [2 * ref, 2 * ref]) == [pytest.approx(1.5)]
    # Only the samples within reach of an interval set its scale.
    kernels = [ref] * 3 + [4 * ref] * 3
    fast, slow = hostspeed.scaled([(1.0, 1), (1.0, 5)], kernels, reach=1)
    assert fast == pytest.approx(1.0) and slow == pytest.approx(0.25)


def test_tracer_patches_every_binding():
    tracer = Tracer()
    tracer.install()
    try:
        bindings = tracer.bindings
        patched = egoview.corpus.visible_objects
    finally:
        tracer.uninstall()
    assert patched is not egoview.selection.visible_objects
    assert "egoview.cli.load_scenes_dir" in bindings["corpus.load_scenes_dir"]
    assert "egoview.corpus.load_scenes_dir" in bindings["corpus.load_scenes_dir"]
    assert "egoview.cli.view_requirement_stats" in bindings["solvability.view_requirement_stats"]
    assert "egoview.corpus.visible_objects" in bindings["selection.visible_objects"]
    assert "egoview.corpus.select_view_for_dc" in bindings["selection.select_view_for_dc"]
    assert "egoview.synthesis.min_view_count" in bindings["solvability.min_view_count"]
    assert "egoview.solvability.witness_matrix" in bindings["solvability.witness_matrix"]
    assert "egoview.solvability.min_cover" in bindings["solvability.min_cover"]
    assert "egoview.geometry.project_box" in bindings["geometry.project_box"]
    assert bindings["services.StubModelService.score_image_text"] == [
        "egoview.services.StubModelService.score_image_text"]
    assert all(bindings.values())


def test_fixture_solvability_histogram(tmp_path):
    """The harness's solvability invocation reproduces the bundled fixture's
    [1, 1, 2, 3, 5] view-requirement histogram."""
    data = ROOT / "tests" / "data"
    shutil.copytree(data / "scenes", tmp_path / "scenes")
    shutil.copy(data / "instructions_solvability.jsonl", tmp_path / "instructions.jsonl")
    for _, argv in job_commands("solvability", tmp_path, tmp_path, stride=1):
        assert egoview.cli.main(argv) == 0
    report = json.loads((tmp_path / "solvability.json").read_text())
    assert report["counts"] == {"1": 2, "2": 1, "3": 1, "4+": 1, "unsolvable": 0}
    records = [json.loads(line) for line in (tmp_path / "instructions.jsonl").open()]
    assert check_outputs("solvability", tmp_path, {"scenes": {}, "records": records}) == []


def test_output_check_catches_a_bad_triplet(tmp_path):
    _generate("corpus", 2, tmp_path)
    for _, argv in job_commands("corpus", tmp_path, tmp_path, stride=WORKLOADS["corpus"].stride):
        assert egoview.cli.main(argv) == 0
    reference = json.loads((tmp_path / "reference.json").read_text())
    assert check_outputs("corpus", tmp_path, reference) == []
    path = tmp_path / "extend.jsonl"
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row["view_id"] = "no-such-view"
    path.write_text("\n".join([lines[0], json.dumps(row), *lines[2:]]) + "\n")
    assert any("unknown view" in p for p in check_outputs("corpus", tmp_path, reference))


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(METRICS)
    assert {m["name"] for m in bench["end_to_end"]} == {"job_s", "setup_s", "peak_rss_mb"}


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    without printing a result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
