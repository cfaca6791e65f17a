"""Set-up probe: one fresh process brought to ready, then torn down.

    python3 perfbench/probe.py WORKLOAD SEED N DATASET SCRATCH_DIR

Prints one JSON line ``{"ready": true, "import_s": ...}`` as soon as the
workload is ready (``import repro``, inputs generated, stores opened, both
trees bulk-loaded; for the service also the bootstrap and a first read),
then releases everything and exits.  The parent times process start to
that line, so interpreter start-up counts as set-up.
"""

import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))


def main() -> int:
    name, scratch = sys.argv[1], sys.argv[5]
    seed, n, dataset = (int(arg) for arg in sys.argv[2:5])
    import_start = time.perf_counter()
    import repro  # noqa: F401 - timed: the package import is set-up cost

    import_s = time.perf_counter() - import_start
    import workloads

    workloads.prepare_environment(scratch)
    teardown = workloads.ready(name, seed, n, dataset)
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    teardown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
