"""One workload in its own process: set up, run the closed loop, report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
Prints one JSON object as its last line of stdout.  With ``--setup-only``
it stops after set-up and reports only the set-up time.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import gzip  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import speed  # noqa: E402
from harness import end_to_end, environment, per_layer, run_loop  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="gzip JSONL file for spans")
    p.add_argument("--stop-after", type=float, default=float("inf"),
                   help="start no op later than this many seconds after start")
    args = p.parse_args(argv)

    import curved_nbody

    src = os.path.join(os.path.realpath(args.root), "src", "")
    if not os.path.realpath(curved_nbody.__file__).startswith(src):
        print(f"curved_nbody imported from {curved_nbody.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    work_root = os.path.join(args.root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        raw_setup_s = time.perf_counter() - T_START
        # the set-up time on the reference machine, from kernel samples
        # taken right after it (speed.py)
        kernel, _ = speed.kernel_s(speed.SETUP_KIND, speed.SETUP_REPS)
        setup = {"setup_s": raw_setup_s * speed.REFERENCE[speed.SETUP_KIND][0]
                 / kernel, "raw_setup_s": raw_setup_s}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = dict(measure(workload, args, T_START + args.stop_after),
                      **setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["env"] = environment(args.root, args.seed)
    print(json.dumps(result))
    return 0


def measure(workload, args, stop_at=float("inf")):
    if not args.trace:
        records, cut = run_loop(workload, workload.rounds(), args.seconds,
                                stop_at=stop_at)
        metrics, detail = end_to_end(records)
        detail["raw"] = end_to_end(records, scaled=False)[0]
        detail["scale"] = [min(r["scale"] for r in records),
                           statistics.median(r["scale"] for r in records),
                           max(r["scale"] for r in records)]
        return summary(records, metrics, dict(detail, cut=cut), [])

    # One round traced (every round is the same work), then its ops again
    # untraced, for the overhead and to compare outputs.
    tracer = Tracer()
    tracer.install()
    try:
        traced, cut = run_loop(workload, itertools.islice(
            workload.rounds(), 1), tracer=tracer, stop_at=stop_at)
    finally:
        tracer.uninstall()
    plain, cut_plain = run_loop(workload, [[r["spec"] for r in traced]],
                                stop_at=stop_at)
    problems = [f"op {k}: traced output differs from untraced"
                for k, (a, b) in enumerate(zip(traced, plain))
                if (a["error"], a["sig"]) != (b["error"], b["sig"])]
    traces = [r.pop("trace") for r in traced]
    # span bookkeeping against the root span; the small allowance is for
    # the clock reads at either end of each span
    problems += [f"op {k}: self times miss its root span by {t['gap_s']:.2e} s"
                 for k, (t, r) in enumerate(zip(traces, traced))
                 if t["gap_s"] > 1e-4 + 1e-3 * r["wall"]]
    escapes = sum(t["escaped"] for t in traces)
    if escapes:
        problems.append(f"{escapes} spans outside their parent")
    overhead = (sum(r["wall"] for r in traced[:len(plain)])
                / sum(r["wall"] for r in plain) - 1.0)
    failed = sum(1 for r in traced if r["error"])
    metrics = per_layer(traces, overhead, failed / len(traced))
    if args.spans:
        with gzip.open(args.spans, "wt", encoding="utf-8") as fh:
            for k, t in enumerate(traces):
                fh.write(json.dumps({"op": k, **t}) + "\n")
    detail = {"ops": len(traced), "replayed": len(plain),
              "cut": cut or cut_plain,
              "self_time_gap_s": max(t["gap_s"] for t in traces),
              "spans": sum(row[0] for t in traces
                           for row in t["names"].values())}
    return summary(traced, metrics, detail, problems)


def summary(records, metrics, detail, problems):
    problems = problems + [f"op {k}: {r['wrong']}"
                           for k, r in enumerate(records) if r["wrong"]]
    detail["op_errors"] = sorted({r["error"] for r in records if r["error"]})
    detail["ops_record"] = [
        {"round": r["round"], "wall": r["wall"], "cpu": r["cpu"],
         "scale": r["scale"], "cpu_scale": r["cpu_scale"],
         "error": r["error"]}
        for r in records]
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["error"]),
        "metrics": metrics,
        "detail": detail,
    }


if __name__ == "__main__":
    sys.exit(main())
