"""Closed-loop runner, end-to-end and per-layer metrics, environment record."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time

import speed
from tracing import (ERROR, EXTRA, ID, NAME, ROOT, SAMPLED, T0, T1, escaped,
                     overlap_excess, self_times)

END_TO_END = {                     # name -> unit
    "setup_s": "s",
    "ok_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ok_frac": "ratio",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics: name -> unit.  "_per_op" is a mean over the traced ops.
PER_LAYER = {
    "manifold.inner.calls_per_op": "count/op",
    "manifold.project_point.calls_per_op": "count/op",
    "manifold.project_tangent.calls_per_op": "count/op",
    "manifold.self_s_per_op": "s/op",
    "dynamics.Configuration.calls_per_op": "count/op",
    "dynamics.Configuration.self_s_per_op": "s/op",
    "dynamics.grad_U.calls_per_op": "count/op",
    "dynamics.force_function.calls_per_op": "count/op",
    "dynamics.self_s_per_op": "s/op",
    "dynamics.integrate.step_us": "us",
    "dynamics.integrate.s_per_op": "s/op",
    "dynamics.integrate.fail": "count",
    "dynamics.integrate.pairs_per_s": "1/s",
    "dynamics.PhaseState.self_s_per_op": "s/op",
    "dynamics.trajectory_to_csv.s_per_op": "s/op",
    "dynamics.trajectory_to_csv.bytes_per_op": "B/op",
    "inertia.moment_of_inertia.calls_per_op": "count/op",
    "inertia.grad_I.calls_per_op": "count/op",
    "inertia.self_s_per_op": "s/op",
    "centralconfig.find_cc.attempts_per_op": "count/op",
    "centralconfig.find_cc.ok_ratio.S3": "ratio",
    "centralconfig.find_cc.ok_ratio.H3": "ratio",
    "centralconfig.find_cc.s_p50.S3": "s",
    "centralconfig.find_cc.s_p50.H3": "s",
    "centralconfig.find_cc.fail.NoConvergenceError": "count",
    "centralconfig.find_cc.fail.SingularApproachError": "count",
    "centralconfig.self_s_per_op": "s/op",
    "centralconfig.make_report.calls_per_op": "count/op",
    "relequil.certify_rigidity.step_us": "us",
    "relequil.certify_rigidity.s_per_op": "s/op",
    "relequil.self_s_per_op": "s/op",
    "moulton.solve_geodesic_h.calls_per_op": "count/op",
    "moulton.solve_geodesic_h.s_p50": "s",
    "moulton.solve_geodesic_h.fail": "count",
    "moulton.hessian_geodesic_h.calls_per_op": "count/op",
    "moulton.enumerate_geodesic_h.s_per_op": "s/op",
    "moulton.pool_overlap": "ratio",
    "moulton.self_s_per_op": "s/op",
    "cli.main.s_per_op": "s/op",
    "cli.self_s_per_op": "s/op",
    "trace_overhead_frac": "ratio",
    "op.self_frac": "ratio",
    "fail_frac": "ratio",
}

# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def run_loop(workload, rounds, seconds=float("inf"), tracer=None,
             stop_at=float("inf")):
    """One caller, one op at a time: starts rounds (lists of op specs) while
    less than ``seconds`` of op time has passed.  Every round of a workload
    is the same work, so each op record carries the index of its round
    (``"round"``) for the per-round medians.  Only ``workload.run`` is
    timed; each output is checked right after its op, outside the timed
    region, and so is the reduction of the op's spans when ``tracer`` is
    given.  Before each op, and once after the last, the loop times the
    workload's speed kernel (``workload.SPEED``, see speed.py), also outside
    the timed region, and gives each record the ``"scale"`` and
    ``"cpu_scale"`` that put its wall and CPU times on the reference
    machine; both are 1 for a workload with no kernel.  No op but the first starts after
    ``stop_at`` (a ``perf_counter`` time), the guard that keeps a run on a
    badly slowed machine within its time limit.
    Returns one record per op and whether ``stop_at`` cut the run short."""
    from curved_nbody.errors import CurvedNBodyError
    from workloads import CheckFailed, SolverFailure

    kind = workload.SPEED
    records, samples, busy, cut = [], [], 0.0, False
    for index, rnd in enumerate(rounds):
        if busy >= seconds or cut:
            break
        for spec in rnd:
            if records and time.perf_counter() >= stop_at:
                cut = True
                break
            rec = {"spec": spec, "round": index, "error": None,
                   "wrong": None, "sig": None}
            if kind:
                samples.append(speed.kernel_s(kind))
            if tracer:
                tracer.open_op(len(records))
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                raw = workload.run(spec)
            except CurvedNBodyError as exc:
                raw, rec["error"] = None, type(exc).__name__
            except SolverFailure as exc:
                raw, rec["error"] = None, exc.kind
            except Exception as exc:  # a bug, not a solver failure: report it
                raw, rec["error"] = None, type(exc).__name__
                rec["wrong"] = f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
            rec["wall"], rec["cpu"] = t1 - t0, c1 - c0
            if tracer:
                rec["trace"] = reduce_op(tracer.close_op())
            busy += rec["wall"]
            if raw is not None:
                try:
                    rec["sig"] = workload.check(spec, raw)
                except (CheckFailed, CurvedNBodyError, KeyError,
                        ValueError) as exc:   # malformed output is wrong too
                    rec["error"] = "CheckFailed"
                    rec["wrong"] = f"{type(exc).__name__}: {exc}"
            records.append(rec)
    if kind:
        samples.append(speed.kernel_s(kind))
        factors = speed.scales(kind, samples)
    else:
        factors = [(1.0, 1.0)] * len(records)
    for rec, (scale, cpu_scale) in zip(records, factors):
        rec["scale"], rec["cpu_scale"] = scale, cpu_scale
    return records, cut


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def tail(values):
    """The highest percentile that has at least 10 values beyond it, never
    below the median.  Returns (value, percentile, values beyond it)."""
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    median = statistics.median(xs)
    return median, 50.0, sum(1 for x in xs if x > median)


def whole_rounds(records):
    """The records grouped by round, less a last round that the stop time
    cut short (unless it is the only one)."""
    groups: dict = {}
    for r in records:
        groups.setdefault(r["round"], []).append(r)
    rounds = list(groups.values())
    if len(rounds) > 1 and len(rounds[-1]) < len(rounds[0]):
        rounds.pop()
    return rounds


def end_to_end(records, scaled=True):
    """Every END_TO_END metric but setup_s, which run.py takes as a median
    over several processes.  The op times are medians and a tail over all
    ops; throughput and CPU time per op are medians over whole rounds, each
    round being the same work, so that a stretch of a slowed machine moves
    one round's figure, not the run's.  Times are scaled to the reference
    machine (speed.py) unless ``scaled`` is false."""
    def wall(r):
        return r["wall"] * (r["scale"] if scaled else 1.0)

    def cpu(r):
        return r["cpu"] * (r["cpu_scale"] if scaled else 1.0)

    walls = [wall(r) for r in records]
    ok = sum(1 for r in records if r["error"] is None)
    value, pct, beyond = tail(walls)
    rounds = whole_rounds(records)
    metrics = {
        "ok_per_s": statistics.median(
            sum(1 for r in rnd if r["error"] is None)
            / sum(wall(r) for r in rnd) for rnd in rounds),
        "op_s_p50": statistics.median(walls),
        "op_s_tail": value,
        "ok_frac": ok / len(records),
        "cpu_s_per_op": statistics.median(
            sum(cpu(r) for r in rnd) / len(rnd) for rnd in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"ops": len(records), "ok": ok, "rounds": len(rounds),
              "tail": {"percentile": pct, "ops": len(records),
                       "beyond": beyond}}
    return metrics, detail


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run
# ---------------------------------------------------------------------------

def reduce_op(spans):
    """One op's spans reduced to per-name [calls, duration, self time],
    samples of the SAMPLED spans as (duration, error, extra), and two
    bookkeeping checks: spans that fell outside their parent, and the gap
    in seconds between the self-time sum (less time counted twice across
    threads) and the root ``op`` span's duration.  The root span takes
    whatever no layer span covers, so the gap only shows spans that were
    lost; how much of the op no layer covered is the root's self time.
    The root span, not the harness's own clock reads around the op, is the
    reference, so that the process being descheduled between the two does
    not read as lost time."""
    selfs = self_times(spans)
    names, samples = {}, {}
    for s in spans:
        row = names.setdefault(s[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s[T1] - s[T0]
        row[2] += selfs[s[ID]]
        if s[NAME] in SAMPLED:
            samples.setdefault(s[NAME], []).append(
                (s[T1] - s[T0], s[ERROR], s[EXTRA]))
    total = sum(selfs.values()) - overlap_excess(spans)
    wall = sum(s[T1] - s[T0] for s in spans if s[NAME] == ROOT)
    return {"names": names, "samples": samples,
            "gap_s": abs(total - wall), "escaped": escaped(spans)}


def per_layer(traces, overhead, fail_frac):
    """The PER_LAYER metrics from the reduced spans of the traced ops."""
    n_ops = len(traces)
    names: dict = {}
    samples: dict = {}
    for t in traces:
        for name, row in t["names"].items():
            acc = names.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        for name, rows in t["samples"].items():
            samples.setdefault(name, []).extend(rows)

    def calls(name):
        return names.get(name, (0, 0.0, 0.0))[0]

    def dur(name):
        return names.get(name, (0, 0.0, 0.0))[1]

    def self_of(name):
        return names.get(name, (0, 0.0, 0.0))[2]

    def fails(name, err=None):
        return float(sum(1 for _, e, _ in samples.get(name, ())
                         if e and (err is None or e == err)))

    def extra_sum(name, weight):
        return sum(weight(x) for _, _, x in samples.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    def p50(xs):
        return statistics.median(xs) if xs else 0.0

    m = {}
    for name in ("manifold.inner", "manifold.project_point",
                 "manifold.project_tangent", "dynamics.Configuration",
                 "dynamics.grad_U", "dynamics.force_function",
                 "inertia.moment_of_inertia", "inertia.grad_I",
                 "centralconfig.make_report", "moulton.solve_geodesic_h",
                 "moulton.hessian_geodesic_h"):
        m[f"{name}.calls_per_op"] = calls(name) / n_ops
    for layer in ("manifold", "dynamics", "inertia", "centralconfig",
                  "relequil", "moulton", "cli"):
        m[f"{layer}.self_s_per_op"] = sum(
            row[2] for name, row in names.items()
            if name.split(".")[0] == layer) / n_ops
    for name in ("dynamics.Configuration", "dynamics.PhaseState"):
        m[f"{name}.self_s_per_op"] = self_of(name) / n_ops

    integ = "dynamics.integrate"
    steps = extra_sum(integ, lambda x: x["steps"])
    m[f"{integ}.step_us"] = 1e6 * ratio(dur(integ), steps)
    m[f"{integ}.s_per_op"] = dur(integ) / n_ops
    m[f"{integ}.fail"] = fails(integ)
    m[f"{integ}.pairs_per_s"] = ratio(
        extra_sum(integ, lambda x: x["steps"] * x["n"] * (x["n"] - 1) / 2),
        dur(integ))
    csv = "dynamics.trajectory_to_csv"
    m[f"{csv}.s_per_op"] = dur(csv) / n_ops
    m[f"{csv}.bytes_per_op"] = extra_sum(csv, lambda x: x["bytes"]) / n_ops

    find = "centralconfig.find_cc"
    m[f"{find}.attempts_per_op"] = calls(find) / n_ops
    for space in ("S3", "H3"):
        rows = [(d, e) for d, e, x in samples.get(find, ())
                if x["space"] == space]
        m[f"{find}.ok_ratio.{space}"] = ratio(
            sum(1 for _, e in rows if not e), len(rows))
        m[f"{find}.s_p50.{space}"] = p50([d for d, _ in rows])
    for err in ("NoConvergenceError", "SingularApproachError"):
        m[f"{find}.fail.{err}"] = fails(find, err)

    cert = "relequil.certify_rigidity"
    m[f"{cert}.step_us"] = 1e6 * ratio(dur(cert),
                                       extra_sum(cert, lambda x: x["steps"]))
    m[f"{cert}.s_per_op"] = dur(cert) / n_ops

    solve, enum = "moulton.solve_geodesic_h", "moulton.enumerate_geodesic_h"
    m[f"{solve}.s_p50"] = p50([d for d, _, _ in samples.get(solve, ())])
    m[f"{solve}.fail"] = fails(solve)
    m[f"{enum}.s_per_op"] = dur(enum) / n_ops
    m["moulton.pool_overlap"] = ratio(dur(solve), dur(enum))
    m["cli.main.s_per_op"] = dur("cli.main") / n_ops
    m["trace_overhead_frac"] = overhead
    # the share of traced op time that no layer span covered
    m["op.self_frac"] = ratio(self_of(ROOT), dur(ROOT))
    m["fail_frac"] = fail_frac
    return m


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment(root, seed):
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_commit": commit,
        "seed": seed,
        "CURVED_NBODY_THREADS": os.environ.get("CURVED_NBODY_THREADS"),
    }
