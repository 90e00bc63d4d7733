"""Runs one workload's jobs in a closed loop, one at a time, in this process.

Usage: python3 worker.py SPEC_JSON   (with egoview importable)

The spec names the workload, its input and output directories, how long to
measure, whether to trace, and where to write the result JSON.  One
untimed warm-up job comes first.  Without tracing, every third timed job,
from the first on, is followed by one set-up measurement in a fresh process (probe.py), so
jobs and set-up are sampled across the same stretch of machine time.  The
reference kernel of hostspeed.py is timed between every two of these
measured intervals, and every time is also reported scaled to reference
speed.  Every job's outputs are hashed; the first
successful job's outputs are checked against the workload's invariants and
every later job must reproduce them byte for byte.  A job fails on a
non-zero exit, an uncaught exception, a failed check or different bytes.

With tracing, untraced and traced jobs alternate, so the tracing overhead
is measured under the same conditions as the layer split.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import egoview.cli as cli
from hostspeed import scaled, time_reference
from tracer import Tracer, job_metrics, median_metrics
from workloads import OUTPUTS, check_outputs, job_commands, output_summary

MIN_TIMED_JOBS = 4
# Set-up is probed after timed jobs 1, 4, 7, ...: the probe's fresh process
# costs half a job, and job_s needs the samples more than setup_s.  The
# first job is probed so that even a run cut short has a set-up time.
SETUP_EVERY = 3
# Jobs stop starting after this long even when fewer than MIN_TIMED_JOBS
# ran, so that a run on a much slower program still ends within its limit.
MAX_LOOP_S = 100.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process.  VmHWM belongs to the process's
    own address space; ru_maxrss would also carry the parent's peak across
    fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(scenes: Path) -> float:
    """Seconds to import egoview.cli and load the scenes in a fresh process."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")), str(scenes)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _digests(out: Path, names) -> dict[str, str | None]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        if (out / name).is_file() else None
        for name in names
    }


def run(spec: dict) -> dict:
    name = spec["workload"]
    inputs, out = Path(spec["inputs"]), Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    commands = job_commands(name, inputs, out, spec["stride"])
    reference = json.loads((inputs / "reference.json").read_text(encoding="utf-8"))
    tracer = Tracer() if spec["trace"] else None

    untraced_s: list[float] = []
    traced_s: list[float] = []
    setup_s: list[float] = []
    # Kernel samples between measured intervals, and the untraced jobs and
    # set-up probes as (elapsed, index of the sample after) for scaling.
    kernels: list[float] = []
    job_intervals: list[tuple[float, int]] = []
    setup_intervals: list[tuple[float, int]] = []
    attempted = failed = 0
    first: dict | None = None
    problems: list[str] = []

    def one_job(job_id: int, traced: bool) -> float:
        nonlocal attempted, failed, first
        for fname in OUTPUTS[name]:
            (out / fname).unlink(missing_ok=True)
        # Each CLI invocation normally starts in a fresh process; start each
        # job from a collected heap so earlier jobs' garbage is not its cost.
        gc.collect()
        errors = io.StringIO()
        ok = True
        if traced:
            tracer.install()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(errors):
                t0 = time.perf_counter()
                with tracer.job(job_id) if traced else contextlib.nullcontext():
                    for _, argv in commands:
                        try:
                            code = cli.main(argv)
                        except Exception:  # a crash fails the job, not the run
                            traceback.print_exc()
                            code = -1
                        if code != 0:
                            ok = False
                            errors.write(f"egoview {argv[0]} exited with {code}\n")
                            break
                elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()

        attempted += 1
        if ok:
            digests = _digests(out, OUTPUTS[name])
            if first is None:
                try:
                    found = check_outputs(name, out, reference)
                    summary = output_summary(name, out)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    found, summary = [f"outputs unreadable: {exc!r}"], {}
                first = {"digests": digests, "problems": found, "summary": summary}
                problems.extend(found)
            if first["problems"]:
                ok = False
            elif digests != first["digests"]:
                ok = False
                problems.append(f"job {job_id}: outputs differ from the first job's")
        if not ok:
            failed += 1
            sys.stderr.write(errors.getvalue())
        return elapsed

    one_job(0, traced=False)  # warm-up: lazy imports and first-call costs
    if tracer is None:
        measure_setup(inputs / "scenes")  # fills the bytecode and file caches
        time_reference()
        kernels.append(time_reference())
    t_start = time.perf_counter()
    job_id = 1
    while True:
        traced = tracer is not None and job_id % 2 == 0
        elapsed = one_job(job_id, traced)
        (traced_s if traced else untraced_s).append(elapsed)
        if tracer is None:
            kernels.append(time_reference())
            job_intervals.append((elapsed, len(kernels) - 1))
            if job_id % SETUP_EVERY == 1:
                setup_s.append(measure_setup(inputs / "scenes"))
                kernels.append(time_reference())
                setup_intervals.append((setup_s[-1], len(kernels) - 1))
        job_id += 1
        elapsed = time.perf_counter() - t_start
        timed = len(untraced_s) + len(traced_s)
        if (elapsed >= spec["seconds"] and timed >= MIN_TIMED_JOBS) or elapsed >= MAX_LOOP_S:
            break

    result = {
        "job_s": untraced_s,
        "setup_s": setup_s,
        "job_scaled_s": scaled(job_intervals, kernels),
        "setup_scaled_s": scaled(setup_intervals, kernels),
        "kernel_s": kernels,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb(),
        "digests": first["digests"] if first else {},
        "outputs": first["summary"] if first else {},
        "numpy": np.__version__,
    }
    if tracer is not None:
        stats = tracer.span_stats()
        per_job = [job_metrics(stats[j], tracer.counts.get(j, {})) for j in sorted(stats)]
        layers = median_metrics(per_job)
        layers["trace.overhead_share"] = (
            statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
            if traced_s and untraced_s else 0.0
        )
        result.update(traced_job_s=traced_s, layers=layers, bindings=tracer.bindings)
        tracer.save(spec["spans"])
    return result


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    Path(spec["result"]).write_text(json.dumps(run(spec)), encoding="utf-8")
