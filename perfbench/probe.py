"""Times one set-up in a fresh process: importing egoview.cli and loading the
workload's scenes, the cost every CLI invocation pays before its first unit
of work.

Usage: python3 probe.py SCENES_DIR   (with egoview importable)
Prints {"setup_s": seconds, "scenes": count} as one JSON line.
"""

import sys
import time

t0 = time.perf_counter()
import egoview.cli  # noqa: E402
from egoview.corpus import load_scenes_dir  # noqa: E402

scenes = load_scenes_dir(sys.argv[1])
elapsed = time.perf_counter() - t0

import json  # noqa: E402

print(json.dumps({"setup_s": elapsed, "scenes": len(scenes)}))
