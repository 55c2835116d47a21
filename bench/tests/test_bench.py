"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

import json
import os
import shutil
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

import harness
import speed
import worker
import workloads
from conftest import BENCH
from tracing import (ID, NAME, PARENT, T0, T1, Tracer, covered, escaped,
                     overlap_excess, self_times)


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize("n, value, pct, beyond", [
    (30, 20.0, 100.0 * 20 / 30, 10),   # 10 of 30 above the 20th value
    (20, 10.0, 50.0, 10),
    (21, 11.0, 100.0 * 11 / 21, 10),
    (7, 4.0, 50.0, 3),                 # too few ops: the median
    (1, 1.0, 50.0, 0),
])
def test_tail_has_ten_ops_beyond_it(n, value, pct, beyond):
    xs = list(np.random.default_rng(n).permutation(np.arange(1.0, n + 1)))
    got = harness.tail(xs)
    assert got == pytest.approx((value, pct, beyond))
    assert sum(1 for x in xs if x > got[0]) == beyond


# -- self-time arithmetic ----------------------------------------------------

def span(name, t0, t1, parent=None, thread=1):
    span.ids = getattr(span, "ids", 0) + 1
    return (span.ids, name, parent and parent[ID], t0, t1, thread, None, None)


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert covered([]) == 0.0


def test_self_times_of_nested_spans_sum_to_the_wall():
    root = span("op", 0.0, 10.0)
    a = span("centralconfig.find_cc", 1.0, 4.0, root)
    aa = span("dynamics.grad_U", 2.0, 3.0, a)
    b = span("inertia.grad_I", 5.0, 6.0, root)
    spans = [root, a, aa, b]
    selfs = self_times(spans)
    assert [selfs[s[ID]] for s in spans] == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert overlap_excess(spans) == 0.0
    assert escaped(spans) == 0


def test_self_times_with_children_on_two_threads():
    root = span("op", 0.0, 10.0)
    enum = span("moulton.enumerate_geodesic_h", 1.0, 9.0, root)
    s1 = span("moulton.solve_geodesic_h", 1.0, 6.0, enum, thread=2)
    s2 = span("moulton.solve_geodesic_h", 2.0, 8.0, enum, thread=3)
    spans = [root, enum, s1, s2]
    selfs = self_times(spans)
    assert selfs[enum[ID]] == pytest.approx(1.0)    # 8 s minus [1, 8]
    assert selfs[root[ID]] == pytest.approx(2.0)
    # the two solves overlap for 4 s, which the self-time sum counts twice
    assert overlap_excess(spans) == pytest.approx(4.0)
    assert sum(selfs.values()) - overlap_excess(spans) == pytest.approx(10.0)


def test_root_self_time_is_the_share_no_layer_covered():
    root = span("op", 0.0, 10.0)
    a = span("centralconfig.make_report", 1.0, 4.0, root)
    b = span("inertia.grad_I", 5.0, 6.0, root)
    trace = harness.reduce_op([root, a, b])
    assert trace["gap_s"] == pytest.approx(0.0) and trace["escaped"] == 0
    metrics = harness.per_layer([trace], overhead=0.5, fail_frac=0.0)
    assert metrics["op.self_frac"] == pytest.approx(0.6)
    assert metrics["centralconfig.self_s_per_op"] == pytest.approx(3.0)
    assert metrics["trace_overhead_frac"] == 0.5


def test_a_child_outside_its_parent_is_clipped_and_counted():
    root = span("op", 0.0, 2.0)
    late = span("cli.main", 1.0, 3.0, root)
    assert self_times([root, late])[root[ID]] == pytest.approx(1.0)
    assert escaped([root, late]) == 1


def test_tracer_records_nested_spans_and_restores_the_package():
    import curved_nbody
    from curved_nbody import dynamics, inertia

    original = dynamics.grad_U
    tracer = Tracer()
    tracer.install()
    try:
        cfg = curved_nbody.fixtures.example1_s3().config   # not inside an op
        tracer.open_op(0)
        curved_nbody.grad_U(cfg)
        inertia.grad_I(cfg.with_points(cfg.points))
        spans = tracer.close_op()
    finally:
        tracer.uninstall()
    assert dynamics.grad_U is original and curved_nbody.grad_U is original
    grad_u, inner, config, grad_i, root = spans   # in the order they ended
    assert [s[NAME] for s in spans] == [
        "dynamics.grad_U", "manifold.inner", "dynamics.Configuration",
        "inertia.grad_I", "op"]
    assert inner[PARENT] == config[ID]     # validation checks the quadric
    assert {s[PARENT] for s in (grad_u, config, grad_i)} == {root[ID]}
    assert escaped(spans) == 0


def test_spans_from_another_thread_attach_to_the_callers_open_span():
    from curved_nbody import manifold

    tracer = Tracer()
    tracer.install()
    try:
        tracer.open_op(0)
        worker_thread = threading.Thread(
            target=manifold.inner, args=([1.0, 0, 0, 0], [1.0, 0, 0, 0],
                                         manifold.Space.S3))
        worker_thread.start()
        worker_thread.join(timeout=10)
        assert not worker_thread.is_alive()
        inner, root = tracer.close_op()
    finally:
        tracer.uninstall()
    assert inner[NAME] == "manifold.inner" and inner[PARENT] == root[ID]
    assert root[T0] <= inner[T0] <= inner[T1] <= root[T1]


# -- the closed loop ---------------------------------------------------------

class Stub:
    """A workload whose ops return their spec or raise it."""

    SPEED = "interp"

    def run(self, spec):
        if isinstance(spec, Exception):
            raise spec
        return spec

    def check(self, spec, raw):
        if raw == "wrong":
            raise workloads.CheckFailed("wrong")
        return raw


def test_loop_counts_failures_and_flags_wrong_answers():
    from curved_nbody.errors import NoConvergenceError

    ops = ["a", NoConvergenceError("x"),
           workloads.SolverFailure("InadmissibleBetaError", "y"),
           "wrong", RuntimeError("bug")]
    records, cut = harness.run_loop(Stub(), [ops])
    assert not cut
    assert [r["error"] for r in records] == [
        None, "NoConvergenceError", "InadmissibleBetaError", "CheckFailed",
        "RuntimeError"]
    assert [bool(r["wrong"]) for r in records] == [
        False, False, False, True, True]


def test_loop_scales_every_op_by_the_speed_samples_around_it():
    records, _ = harness.run_loop(Stub(), [["a", "b"], ["c"]])
    assert [r["round"] for r in records] == [0, 0, 1]
    assert all(0.0 < r[k] < 100.0 for r in records
               for k in ("scale", "cpu_scale"))


def test_speed_scale_uses_the_samples_around_each_op():
    wall, cpu = speed.REFERENCE["pairwise"]

    def samples(*ks):   # wall k times the reference, CPU at the reference
        return [(k * wall, cpu) for k in ks]

    got = speed.scales("pairwise", samples(1, 1, 3), half=1)
    assert [w for w, _ in got] == pytest.approx([1.0, 0.5])
    assert [c for _, c in got] == pytest.approx([1.0, 1.0])
    # ops 0..3 between five samples; two samples each side of each op
    got = speed.scales("pairwise", samples(1, 1, 1, 5, 1), half=2)
    assert [w for w, _ in got] == pytest.approx([3 / 3, 4 / 8, 4 / 8, 3 / 7])


def test_throughput_is_a_median_over_whole_rounds():
    def rec(rnd, wall, scale=1.0, error=None):
        return {"round": rnd, "wall": wall, "cpu": 2 * wall,
                "scale": scale, "cpu_scale": scale, "error": error}

    records = [rec(0, 1.0), rec(0, 1.0),               # 1 ok/s
               rec(1, 2.0), rec(1, 2.0, error="X"),    # 0.25 ok/s
               rec(2, 0.5, scale=2.0), rec(2, 0.5, scale=2.0),   # 1 ok/s
               rec(3, 9.0)]                            # cut short: dropped
    assert len(harness.whole_rounds(records)) == 3
    m, detail = harness.end_to_end(records)
    assert m["ok_per_s"] == pytest.approx(1.0)
    assert m["cpu_s_per_op"] == pytest.approx(2.0)
    assert detail["rounds"] == 3
    raw, _ = harness.end_to_end(records, scaled=False)
    assert raw["cpu_s_per_op"] == pytest.approx(2.0)
    assert raw["op_s_p50"] == pytest.approx(1.0)


def test_loop_starts_no_op_after_the_stop_time():
    records, cut = harness.run_loop(Stub(), [["a", "b"], ["c"]], stop_at=0.0)
    assert cut and [r["sig"] for r in records] == ["a"]


def test_a_cli_package_error_is_a_solver_failure(tmp_path):
    from curved_nbody import fixtures

    path = tmp_path / "h3.json"
    path.write_text(json.dumps(fixtures.example2_h3().config.to_dict()))
    with pytest.raises(workloads.SolverFailure) as info:
        workloads._run_cli(["simulate", str(path), "--beta", "100",
                            "--horizon", "0.01"])
    assert info.value.kind == "InadmissibleBetaError"
    code, _, err = workloads._run_cli(
        ["simulate", str(tmp_path / "missing.json"), "--beta", "0"])
    assert code == 1 and err.startswith("error: ")   # not a package error


# -- seeded inputs -----------------------------------------------------------

def test_generators_are_deterministic_for_a_seed(tmp_path):
    def geo(seed):
        rounds = workloads.GeodesicCount(seed, str(tmp_path))._rounds
        return [(s["masses"].tolist(), s["c"]) for r in rounds for s in r]

    assert geo(5) == geo(5) and geo(5) != geo(6)
    assert sorted(geo(5)[:5]) == sorted(geo(6)[:5]) == sorted(geo(5)[5:10])
    levels = sorted(c for _, c in geo(5)[:5])
    fifths = np.linspace(np.log(0.5), np.log(3.0), 6)
    assert all(fifths[k] <= np.log(c) <= fifths[k + 1]
               for k, c in enumerate(levels))

    def cc(seed, **kw):
        return workloads.CCSearch(seed, str(tmp_path), **kw)._rounds

    a, b, c = (cc(seed, panel=range(6)) for seed in (5, 5, 6))
    key = lambda p: (p["space"], tuple(p["masses"]), p["c"])
    assert [key(p) for r in a for p in r] == [key(p) for r in b for p in r]
    assert [key(p) for r in a for p in r] != [key(p) for r in c for p in r]
    # every round is three passes over one fixed panel, alternating spaces
    passes = [r[k:k + 6] for r in a + c for k in (0, 6, 12)]
    assert all(sorted(map(key, p)) == sorted(map(key, passes[0]))
               for p in passes)
    assert all([p["space"] for p in r] == ["S3", "H3"] * 9 for r in c)
    full = cc(6)[0]                                      # 7 S3, 6 H3
    assert [p["space"] for p in full] == (["S3", "H3"] * 6 + ["S3"]) * 3

    def orbits(seed):
        wl = workloads.RigidOrbit(seed, str(tmp_path / str(seed)))
        return [(json.load(open(op["input"])), op["beta"], op["out"])
                for r in wl._rounds for op in r]

    (tmp_path / "7").mkdir()
    (tmp_path / "8").mkdir()
    assert orbits(7) == orbits(7) != orbits(8)

    s1 = workloads.cluster_state(np.random.default_rng(3), "S3", 64)
    s2 = workloads.cluster_state(np.random.default_rng(3), "S3", 64)
    assert np.array_equal(s1.config.points, s2.config.points)
    assert np.array_equal(s1.momenta, s2.momenta)


@pytest.mark.parametrize("space", ["S3", "H3"])
def test_cluster_bodies_are_kept_apart(space):
    state = workloads.cluster_state(np.random.default_rng(0), space, 256)
    Q = state.config.points
    sp = state.config.space
    s = sp.sigma * ((Q * sp.metric_diagonal) @ Q.T)
    np.fill_diagonal(s, np.nan)
    if space == "S3":
        assert np.nanmax(np.abs(s)) <= np.cos(0.05)
    else:
        assert np.nanmin(s) >= np.cosh(0.05)


def test_rejected_levels_are_redrawn():
    from curved_nbody import LevelSetSpec, Space

    rng = np.random.default_rng(0)
    for k in range(50):
        p = workloads.draw_cc_problem(rng, "S3" if k % 2 else "H3")
        LevelSetSpec(p["c"]).validate(Space(p["space"]), p["masses"])


# -- tiny smoke runs ---------------------------------------------------------

def tiny(name, workdir):
    if name == "cc_search":
        return workloads.CCSearch(0, workdir, panel=(0, 1))
    if name == "geodesic_count":
        return workloads.GeodesicCount(0, workdir, sizes=(2, 3))
    if name == "rigid_orbit":
        return workloads.RigidOrbit(0, workdir, horizon=0.02)
    return workloads.ClusterStep(0, workdir, n=16)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(name, trace, tmp_path):
    wl = tiny(name, str(tmp_path))
    wl.warm_up()
    args = types.SimpleNamespace(trace=trace, seconds=1e-9, spans=None)
    result = worker.measure(wl, args)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1
    expected = set(harness.PER_LAYER if trace else harness.END_TO_END)
    assert set(result["metrics"]) == expected - {"setup_s"}
    assert trace or result["metrics"]["ok_frac"] > 0


def test_benchmark_json_lists_what_the_harness_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cluster_step",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
