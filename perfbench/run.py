"""Feeder-dispatch benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload day_track --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it imports ``feederdispatch`` from
``src/`` there. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run and writes its spans to
``perfbench/out/trace-<workload>-seed<seed>.json``. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; failed checks are
listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The solves are small (at most 30 variables in the MPC): one BLAS thread keeps
# the timings free of thread start-up and of contention with the second core.
# Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("day_track", "rate_bound", "soc_floor", "plan_days"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "feederdispatch" / "__init__.py").is_file():
        print(f"perfbench: no feederdispatch package under {SRC}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import feederdispatch
    if Path(feederdispatch.__file__).resolve().parent != SRC / "feederdispatch":
        print(f"perfbench: imported feederdispatch from {feederdispatch.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import scenarios

    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "plan_days":
        outcome = scenarios.run_plan_days(args.seed, args.seconds, trace, OUT)
    else:
        outcome = scenarios.run_closed_loop(args.workload, args.seconds, trace)
    if outcome.tracer is not None:
        outcome.tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                            {"workload": args.workload, "seed": args.seed})
    for error in outcome.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not outcome.errors, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in outcome.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
