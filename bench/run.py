"""Benchmark entry point.

    python3 bench/run.py --workload cc_search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Runs the workload in a child process
(bench/worker.py) against the checkout's own ``src``, and set-up alone in
six more, so that ``setup_s`` is the median of seven fresh set-ups.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run.  Prints one line of JSON with the
environment and run details, then, as the last line, the result.  Also
writes both to ``.bench_out/`` in the checkout (and, when traced, the spans).
Exits non-zero, without a result, when the package is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIMIT_S = 170            # the whole benchmark must end well within 180 s
OP_MARGIN_S = 50         # no op starts later than this before LIMIT_S
SETUP_RUNS = 7

sys.path.insert(0, HERE)
from harness import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def child(args, deadline, *extra):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("CURVED_NBODY_THREADS", None)   # the pools run as users get them
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.time()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.time() + LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "curved_nbody",
                                       "__init__.py")):
        print(f"no curved_nbody package under {ROOT}/src", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")

    try:
        setups = [child(args, deadline, "--setup-only")
                  for _ in range(SETUP_RUNS - 1)]
        extra = ["--stop-after", str(deadline - OP_MARGIN_S - time.time())]
        if args.trace:
            extra += ["--spans", stem + ".spans.jsonl.gz"]
        result = child(args, deadline, *extra)
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        print(f"worker still running after {LIMIT_S} s; the machine is too "
              "slow for this workload", file=sys.stderr)
        return 3
    setups.append(result)
    setup_s = statistics.median(s["setup_s"] for s in setups)

    if args.trace:
        units = PER_LAYER
        values = result["metrics"]
    else:
        units = END_TO_END
        values = dict(result["metrics"], setup_s=setup_s)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_runs_s": [s["setup_s"] for s in setups],
              "raw_setup_runs_s": [s["raw_setup_s"] for s in setups],
              "env": result["env"],
              "problems": result["problems"], "detail": result["detail"]}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(dict(record, result=line), fh, indent=1)
    detail = record.pop("detail")
    for key in ("tail", "cut", "raw", "scale"):
        if key in detail:
            record[key] = detail[key]
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
