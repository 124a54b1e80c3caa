"""Run one grothlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tableau_routes --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the task count, the error rate and the output digests.
A traced run also writes every span to ``.bench_build/spans.tsv``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import harness


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    os.environ.pop("GROTHLAB_THREADS", None)  # one thread: the knob is not measured
    try:
        if args.trace:
            res, metrics, info = harness.traced_run(args.workload, args.seed, args.seconds)
        else:
            res, metrics, info = harness.timed_run(args.workload, args.seed, args.seconds)
    except harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for err in res.errors:
        print(f"failed task {err}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "tasks": res.attempted, **info},
                     sort_keys=True))
    print(harness.result_line(res, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
