"""hybridkit benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the benchmark imports hybridkit from
`src/` next to this directory and exits 2 if it is not there. It sets up the
workload from the seed, measures for about S seconds, checks the program's
outputs, and prints two lines: first a JSON record of the machine, the
operations attempted and failed by kind, and the decode tail percentile with
the steps per request and the request count; last the result,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are all the end-to-end ones with --trace 0 and all the
per-layer ones, from a traced run, with --trace 1. Workloads, metrics and
the map from each layer metric to the end-to-end metric it moves:
perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("long_ctx", "short_ctx")


def import_program(root: Path) -> None:
    """Put the checkout's own sources first on the path, or exit 2."""
    src = root / "src"
    if not (src / "hybridkit" / "__init__.py").is_file():
        print(f"perfbench: no hybridkit sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import hybridkit
    if Path(hybridkit.__file__).resolve().parent != (src / "hybridkit").resolve():
        print(f"perfbench: hybridkit imported from {hybridkit.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_facts(root: Path) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(root),
    }


def main(argv=None, sizes=None) -> int:
    """`sizes` (a bench.Sizes) shrinks the model and workloads for tests."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program(ROOT)
    import bench
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
                       sizes)
    metrics = result.layers if args.trace else result.metrics
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_facts(ROOT),
        "operations": {k: {"attempted": a, "failed": f}
                       for k, (a, f) in result.ops.items()},
        **result.details,
    }))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
