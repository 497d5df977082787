"""Benchmark entry point.

    python3 perfbench/run.py --workload fit-synth12 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout.  The package is imported from the
checkout's ``src/`` and driven through ``stratasim.cli.main``, the code path
of the ``stratasim`` command.  Work files go to ``.perfbench_work/`` in the
checkout.  The last line of standard output is the result object; the line
before it records the run environment.  With ``--trace 1`` the run reports
per-layer metrics instead of end-to-end ones and writes its spans to
``.perfbench_work/<workload>-s<seed>-t1/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: on a shared two-core host a second thread gains about 15%
# on the 50x50 conditional grid but makes the first mid-sized Cholesky in a
# process about 1 s slower, which would land in whichever call comes first.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "stratasim" / "__init__.py").is_file():
        print(f"perfbench: no stratasim package under {src}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    result = workloads.run(workloads.WORKLOADS[args.workload], work / "data",
                           args.seed, args.seconds, bool(args.trace))
    spans = result.pop("spans")
    samples = result.pop("samples")
    env = environment(args)
    if spans is not None:
        spans.write(work / "spans.jsonl")
    (work / "result.json").write_text(
        json.dumps({"environment": env, **result, "samples": samples}, indent=1))
    shutil.rmtree(work / "data")

    bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        print(f"perfbench: no measurement for {', '.join(bad)}", file=sys.stderr)
        if not result["failed"]:
            return 1
        # Every call of some kind failed: report the failures, not the gap.
        for k in bad:
            del result["metrics"][k]
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
