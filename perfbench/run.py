"""egoview benchmark: time whole CLI jobs on seeded synthetic scenes.

Usage (from the repository root):

    python3 perfbench/run.py --workload solvability --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py and listed with their reasons in
BENCHMARK.json.  The run generates its inputs from --seed, then runs the
workload's jobs in a closed loop in one worker process for --seconds,
checking every job's outputs and timing set-up in a fresh process after
each job.

With --trace 0 it reports the end-to-end metrics: job_s (median seconds per
job), setup_s (median seconds to import egoview.cli and load the scenes in
a fresh process) and peak_rss_mb (peak resident memory of the job
process).  Both times are in reference-speed seconds: each is scaled by
the time of a fixed kernel timed around it (hostspeed.py), so that the
drifting speed of a shared host cancels out.  The raw wall-clock medians
and quartiles are in the details line.  The failure share is failed /
attempted jobs, from the result's own keys.  With --trace 1 it reports the
per-layer metrics of tracer.py instead.  The last line of standard output
is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen
from tracer import METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench-run"
CHILD_TIMEOUT_S = 150
# One process, one thread: keep numeric libraries from starting worker threads.
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _child_env() -> dict[str, str]:
    return {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(ROOT / "src")}


def environment(numpy_version: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "egoview" / "cli.py").is_file():
        print(f"perfbench: no egoview sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = RUN_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    inputs, out = work / "inputs", work / "out"
    try:
        generated = gen.write_inputs(workload.name, args.seed, workload.size, workload.stride,
                                     inputs)
        (inputs / "reference.json").write_text(json.dumps(generated["reference"]),
                                               encoding="utf-8")
        spans = RUN_DIR / "traces" / f"{workload.name}.spans.npz"
        if args.trace:
            spans.parent.mkdir(parents=True, exist_ok=True)
        spec = {
            "workload": workload.name, "inputs": str(inputs), "out": str(out),
            "stride": workload.stride, "seconds": args.seconds, "trace": bool(args.trace),
            "result": str(work / "result.json"), "spans": str(spans),
        }
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
            env=_child_env(), timeout=CHILD_TIMEOUT_S, check=True,
            stdout=subprocess.DEVNULL,
        )
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs": generated["properties"],
        "outputs": result["outputs"],
        "output_sha256": result["digests"],
        "problems": result["problems"],
        "environment": environment(result["numpy"]),
    }
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in METRICS}
        details["bindings"] = result["bindings"]
        details["traced_job_s"] = _spread(result["traced_job_s"])
        details["untraced_job_s"] = _spread(result["job_s"])
        for name, entry in metrics.items():
            print(f"{name:<45} {entry['value']:>14.6g} {entry['unit']}")
    else:
        job, setup_s = _spread(result["job_scaled_s"]), _spread(result["setup_scaled_s"])
        metrics = {
            "job_s": {"value": job["median"], "unit": "s"},
            "setup_s": {"value": setup_s["median"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        details.update(job_s=job, setup_s=setup_s, job_wall_s=_spread(result["job_s"]),
                       setup_wall_s=_spread(result["setup_s"]),
                       reference_kernel_s=_spread(result["kernel_s"]))
        for name, s in (("job_s", job), ("setup_s", setup_s)):
            wall = details[name.replace("_s", "_wall_s")]
            print(f"{name:<12} median {s['median']:.4f} s  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                  f"  n={s['n']}  (wall median {wall['median']:.4f} s)")
        print(f"{'peak_rss_mb':<12} {result['peak_rss_mb']:.1f} MB")
        print(f"{'fail_share':<12} {failed / attempted:.4f} share  ({failed} of {attempted} jobs)")
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
