"""zrlab benchmark: one process runs one workload.

    python3 perfbench/run.py --workload ness_large --seed 1 --seconds 30 --trace 0

Run from the repository root; zrlab is imported from ``src/``.  The
workloads are defined in ``workloads.py``.  A pass runs every job of the
workload once; a run measures whole passes, at least one and more while
they fit in ``--seconds``.  With ``--trace 0`` the run reports the
end-to-end metrics of untraced passes; with ``--trace 1`` it runs one
traced pass and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Job outputs go to a
temporary directory under ``.perfbench_work/``, removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _cap_threads() -> int:
    """Run BLAS and OpenMP pools on one thread; must run before numpy is
    imported.  The jobs run one at a time, and where the CPUs are shared
    with other processes a second pool thread mostly waits on the first,
    which costs time and makes the timings uneven.  Returns the number of
    CPUs this process may use."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "zrlab" / "__init__.py").is_file():
        print(f"perfbench: no zrlab package under {src}", file=sys.stderr)
        return 2
    cpus = _cap_threads()
    sys.path.insert(0, str(src))
    import bench

    result = bench.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), ROOT, cpus)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
