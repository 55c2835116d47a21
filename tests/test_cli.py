"""End-to-end command tests driven through main(argv)."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from curved_nbody import dynamics, relequil
from curved_nbody.centralconfig import make_report
from curved_nbody.cli import main
from curved_nbody.dynamics import Configuration, Trajectory, generator_momenta
from curved_nbody.fixtures import FIXTURE_BUILDERS
from curved_nbody.manifold import isometry_matrix
from curved_nbody.relequil import pick_member, re_family_from_cc


def _payload(name, *args, lam=None):
    fix = FIXTURE_BUILDERS[name](*args)
    d = fix.config.to_dict()
    if lam is not None:
        d["lambda"] = lam
    return d


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# ─── verify ──────────────────────────────────────────────────────────────


def test_verify_confirms_known_solution(tmp_path, capsys):
    path = _write(tmp_path, "ex1.json", _payload("example1_s3"))
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["confirmed"] is True
    assert out["space"] == "S3"
    assert out["lambda"] == pytest.approx(-0.5, abs=1e-10)


def test_verify_rejects_perturbed_points(tmp_path):
    payload = _payload("example1_s3")
    payload["points"][0][0] += 1e-3
    # renormalize so the point still lies on the sphere
    row = np.array(payload["points"][0])
    payload["points"][0] = list(row / np.linalg.norm(row))
    path = _write(tmp_path, "bad.json", payload)
    assert main(["verify", path]) == 2


def test_verify_catalog_requires_every_item(tmp_path, capsys):
    good = _payload("example2_h3")
    path = _write(tmp_path, "cat.json", {"items": [good, good]})
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["items"]) == 2

    perturbed = _payload("example2_h3")
    perturbed["points"][1][0] += 1e-2
    w = float(np.sqrt(1.0 + perturbed["points"][1][0] ** 2
                      + perturbed["points"][1][1] ** 2
                      + perturbed["points"][1][2] ** 2))
    perturbed["points"][1][3] = w
    path2 = _write(tmp_path, "cat2.json", {"items": [good, perturbed]})
    assert main(["verify", path2]) == 2


def test_verify_accepts_decimal_strings(tmp_path, capsys):
    payload = _payload("example2_h3")
    payload["masses"] = [repr(m) for m in payload["masses"]]
    payload["points"] = [[repr(c) for c in row] for row in payload["points"]]
    path = _write(tmp_path, "strings.json", payload)
    assert main(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["confirmed"] is True


def test_verify_reports_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"space": "S3",\n  "masses": [1, 2,]\n}')
    assert main(["verify", str(path)]) == 1
    assert "line" in capsys.readouterr().err


def test_verify_reports_missing_fields(tmp_path, capsys):
    path = _write(tmp_path, "partial.json", {"space": "S3", "masses": [1.0]})
    assert main(["verify", path]) == 1
    assert "points" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-4, 1e-6])
def test_verify_refuses_a_non_cc_at_any_mass_scale(tmp_path, capsys, scale):
    # acceptance criterion 9's witness, the Lagrangian S2 triangle with body
    # 0 moved by 0.05: its rows are 2.4 % of its largest pair force at every
    # scale, while an absolute --tol would confirm it at masses x1e-4
    base = FIXTURE_BUILDERS["lagrangian_s2"](1.0, 0.5).config
    Q = base.points.copy()
    Q[0, 0] += 0.05
    witness = Configuration.from_raw(base.space, base.masses * scale, Q)
    assert main(["verify", _write(tmp_path, "witness.json", witness.to_dict())]) == 2
    assert json.loads(capsys.readouterr().out)["confirmed"] is False


# ─── find ────────────────────────────────────────────────────────────────


def test_find_locates_equal_mass_triangle(tmp_path):
    out = tmp_path / "found.json"
    code = main(["find", "1,1,1", "--space", "S3", "--c", "0.4",
                 "--seeds", "4", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["count"] >= 1
    for item in data["items"]:
        assert item["confirmed"] is True
        assert max(abs(v) for v in item["orth"]) < 1e-9
    # every located solution feeds back through verify
    assert main(["verify", str(out)]) == 0


def test_find_is_deterministic(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.json"
        assert main(["find", "1.0,2.0", "--space", "H3", "--c", "1.0",
                     "--seeds", "3", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_find_rejects_bad_level(capsys):
    assert main(["find", "1,1", "--space", "S3", "--c", "-0.5"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("space", ["S3", "H3"])
@pytest.mark.parametrize("flag,value", [
    ("--c", "nan"), ("--c", "inf"), ("--tol", "nan"), ("--tol", "0"),
])
def test_find_rejects_a_non_finite_level_or_tolerance(space, flag, value, capsys):
    # an operational error (1), not a search that found nothing (2)
    args = {"--c": "0.5", "--tol": "1e-10"}
    args[flag] = value
    argv = ["find", "1,1", "--space", space, "--seeds", "1"]
    assert main(argv + [a for kv in args.items() for a in kv]) == 1
    assert "OutOfRangeError" in capsys.readouterr().err


# ─── moulton ─────────────────────────────────────────────────────────────


def test_moulton_hyperbolic_catalog(tmp_path, capsys):
    out = tmp_path / "h3.csv"
    code = main(["moulton", "1,2,3", "--space", "H3", "--c", "1.0",
                 "--out", str(out)])
    assert code == 0
    assert "count: 3" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "ordering,theta_1,theta_2,theta_3,lambda,I,U,min_hessian_eig"
    assert len(lines) == 4
    sidecar = json.loads((tmp_path / "h3.csv.json").read_text())
    assert sidecar["count"] == 3
    for item in sidecar["items"]:
        assert item["confirmed"] is True
    # the sidecar catalog is itself verifiable input
    assert main(["verify", str(tmp_path / "h3.csv.json")]) == 0


def test_moulton_confirms_heavy_geodesic_ccs(tmp_path, capsys):
    # residual_max reads 1.2e-7 to 1.6e-7 here, above an absolute 1e-8, but
    # about 4e-15 of the largest pair force: the catalog confirms every item
    # and round-trips through verify
    out = tmp_path / "heavy.csv"
    assert main(["moulton", "1000,2000,3000", "--space", "H3", "--c", "400",
                 "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "heavy.csv.json").read_text())
    assert sidecar["count"] == 3
    assert all(item["confirmed"] is True for item in sidecar["items"])
    assert max(item["residual_max"] for item in sidecar["items"]) > 1e-8
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "heavy.csv.json")]) == 0
    # simulate's re_family_from_cc makes the same relative test
    item = sidecar["items"][0]
    path = _write(tmp_path, "item0.json", {k: item[k] for k in
                                           ("space", "masses", "points", "lambda")})
    assert main(["simulate", path, "--beta", "0", "--horizon", "0.01"]) == 0


def test_moulton_two_body_circle(tmp_path, capsys):
    out = tmp_path / "s3.csv"
    assert main(["moulton", "1,2", "--space", "S3", "--c", "0.5",
                 "--out", str(out)]) == 0
    assert "count: 2" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert main(["verify", str(tmp_path / "s3.csv.json")]) == 0


def test_moulton_equal_mass_continuum(capsys):
    assert main(["moulton", "1,1", "--space", "S3", "--c", "1.0"]) == 0
    assert "count: inf" in capsys.readouterr().out


def test_moulton_sphere_needs_exactly_two_bodies(capsys):
    assert main(["moulton", "1,2,3", "--space", "S3", "--c", "1.0"]) == 1
    assert "two bodies" in capsys.readouterr().err


def test_moulton_out_of_range_level(capsys):
    assert main(["moulton", "1,2", "--space", "S3", "--c", "9.0"]) == 1
    capsys.readouterr()


# ─── simulate ────────────────────────────────────────────────────────────


def test_simulate_writes_certificates(tmp_path):
    path = _write(tmp_path, "ex1.json", _payload("example1_s3"))
    out = tmp_path / "orbit.csv"
    code = main(["simulate", path, "--beta", "0", "--horizon", "0.5",
                 "--out", str(out)])
    assert code == 0
    drift = json.loads((tmp_path / "orbit.csv.drift.json").read_text())
    assert drift["max_distance_drift"] < 1e-8
    assert drift["max_conserved_drift"] < 1e-10
    assert drift["type"] == "positive elliptic"
    assert drift["periodic"] is True
    header = out.read_text().splitlines()[0]
    assert header == "t,i,x,y,z,w,px,py,pz,pw"
    assert (tmp_path / "orbit.csv.conserved.json").exists()


def test_simulate_without_out_skips_the_trajectory(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "ex1.json", _payload("example1_s3"))
    argv = ["simulate", path, "--beta", "0", "--horizon", "0.2"]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("a trajectory was written without --out")

    monkeypatch.setattr("curved_nbody.cli.trajectory_to_csv", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ex1.json"]


def test_simulate_runs_one_rk4_loop(tmp_path, monkeypatch):
    path = _write(tmp_path, "ex2.json", _payload("example2_h3"))
    calls, rk4 = [], dynamics._rk4

    def counted(*args):
        calls.append(args)
        return rk4(*args)

    # both names: integrate reaches the stepper through dynamics
    monkeypatch.setattr(dynamics, "_rk4", counted)
    monkeypatch.setattr(relequil, "_rk4", counted)
    assert main(["simulate", path, "--beta", "1", "--horizon", "0.05",
                 "--out", str(tmp_path / "orbit.csv")]) == 0
    assert len(calls) == 1


def test_simulate_csv_follows_the_certified_orbit(tmp_path):
    # a boost at dt = 1e-2: the orbit is certified, and every CSV row must
    # be the exact rigid motion exp(t xi) q0, however large the boost
    # coordinates grow by T = 10
    payload = _payload("example2_h3")
    path = _write(tmp_path, "ex2.json", payload)
    out = tmp_path / "orbit.csv"
    assert main(["simulate", path, "--beta", "1", "--horizon", "10",
                 "--dt", "1e-2", "--out", str(out)]) == 0

    config = Configuration.from_dict(payload)
    family = re_family_from_cc(make_report(config, lam=payload.get("lambda")),
                               config)
    g = pick_member(family, 1.0).generator
    rows = np.loadtxt(out, delimiter=",", skiprows=1).reshape(-1, config.n, 10)
    times = rows[:, 0, 0]
    traj = Trajectory(config.space, config.masses, times, rows[:, :, 2:6],
                      rows[:, :, 6:])
    q0, p0 = config.points, generator_momenta(config, g)
    for k, t in enumerate(times):
        RT = isometry_matrix(g, t).T
        for got, want in ((traj.positions[k], q0 @ RT), (traj.momenta[k], p0 @ RT)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        traj.state_at(k)
    assert times[-1] == pytest.approx(10.0)


def _simulate_panel():
    """(payload, beta) of the simulate digest: the five criterion-4
    members, one seeded member of each of bench's three seeded families
    (mass U(0.5, 1.5), radius U(0.5, 0.9), beta U(0, cap) with bench's
    cap) and the tetrahedron, at the largest N the pair loop serves."""
    panel = [(_payload("example1_s3"), 0.0), (_payload("example1_s3"), 1.0),
             (_payload("example2_h3"), 0.0), (_payload("example2_h3"), 1.0),
             (_payload("example2_h3"), math.sqrt(3.0) / 2.0)]
    rng = np.random.default_rng(5)
    for name in ("lagrangian_s2", "lagrangian_h2", "geodesic_h1"):
        fixture = FIXTURE_BUILDERS[name](rng.uniform(0.5, 1.5),
                                         rng.uniform(0.5, 0.9))
        cap = 1.0
        if fixture.config.space.value == "H3":
            cap = min(cap, math.sqrt(-2.0 * fixture.expected_lambda))
        panel.append((fixture.config.to_dict(), float(rng.uniform(0.0, cap))))
    panel.append((_payload("tetrahedron_s2"), 1.0))
    return panel


_SIMULATE_DIGEST = (
    "f32dceff00b3cbf48df4c8180437e97823605e087d09240057e53bfa8ea83f8d"
)


def test_simulate_is_pinned_bitwise_on_the_reference_panel(
        tmp_path, capsys, monkeypatch):
    # stdout, and with --out (every other member) the CSV and both JSON
    # sidecars, at T = 0.5; relative paths keep tmp_path out of the bytes
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for k, (payload, beta) in enumerate(_simulate_panel()):
        _write(tmp_path, "cfg.json", payload)
        argv = ["simulate", "cfg.json", "--beta", repr(beta),
                "--horizon", "0.5"]
        files = []
        if k % 2:
            argv += ["--out", "orbit.csv"]
            files = ["orbit.csv", "orbit.csv.conserved.json",
                     "orbit.csv.drift.json"]
        assert main(argv) == 0
        h.update(capsys.readouterr().out.encode())
        for name in files:
            h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == _SIMULATE_DIGEST


@pytest.mark.parametrize("out,message", [
    ("no/such/x.csv", "[Errno 2] No such file or directory"),
    ("ex1.json/x.csv", "[Errno 20] Not a directory"),
    (".", "[Errno 21] Is a directory"),
])
def test_simulate_refuses_an_output_path_it_cannot_open_before_it_runs(
        tmp_path, capsys, monkeypatch, out, message):
    # open's error, before a step is taken, and no file made
    from curved_nbody import cli

    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "ex1.json", _payload("example1_s3"))
    runs = []
    monkeypatch.setattr(cli, "_comoving_run",
                        lambda *a, **k: runs.append(a) or relequil._comoving_run(*a, **k))
    assert main(["simulate", "ex1.json", "--beta", "0", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}: {out!r}\n"
    assert runs == [] and [p.name for p in tmp_path.iterdir()] == ["ex1.json"]


def test_simulate_requires_a_rate(tmp_path, capsys):
    path = _write(tmp_path, "ex1.json", _payload("example1_s3"))
    assert main(["simulate", path, "--horizon", "0.5"]) == 1
    assert "beta" in capsys.readouterr().err


def test_simulate_rejects_non_solutions(tmp_path, capsys):
    payload = _payload("example1_s3")
    payload["lambda"] = 3.0  # inconsistent multiplier claim
    path = _write(tmp_path, "claim.json", payload)
    assert main(["simulate", path, "--beta", "0"]) == 1
    assert "NotACentralConfig" in capsys.readouterr().err


# ─── sweep and fixtures ──────────────────────────────────────────────────


def test_sweep_family_over_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "lagrangian_s2",
                 "--grid", "m=1;r=0.2:0.8:4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,r,lambda,residual,class"
    assert len(lines) == 5
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[2]) < 0.0
        assert float(cells[3]) < 1e-9
        assert cells[4] == "sphere_s2"


def test_sweep_skips_out_of_domain_points(tmp_path):
    out = tmp_path / "empty.csv"
    code = main(["sweep", "lagrangian_s2",
                 "--grid", "m=1;r=1.5:2.0:3", "--out", str(out)])
    assert code == 2
    assert out.read_text().strip().splitlines() == ["m,r,lambda,residual,class"]


def test_sweep_unknown_family(capsys):
    assert main(["sweep", "no_such_family", "--grid", "m=1"]) == 1
    assert "no_such_family" in capsys.readouterr().err


def test_fixtures_export_round_trips(tmp_path):
    out = tmp_path / "fixtures.json"
    assert main(["fixtures", "export", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 12
    names = {item["name"] for item in data["items"]}
    assert len(names) == 12
    for item in data["items"]:
        assert item["confirmed"] is True
    assert main(["verify", str(out)]) == 0


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "curved_nbody.cli", "fixtures", "export"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 12


# ─── the parser ──────────────────────────────────────────────────────────


def test_main_dispatches_each_call_to_its_own_command(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; each call still runs its own
    # command, looked up when it runs, so a rebound cmd_* is honoured
    from curved_nbody import cli

    path = _write(tmp_path, "ex1.json", _payload("example1_s3"))
    assert main(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["confirmed"] is True
    assert main(["moulton", "1,2", "--space", "S3", "--c", "0.5"]) == 0
    assert '"count": 2' in capsys.readouterr().out
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.input) or 7)
    assert main(["verify", path]) == 7
    assert seen == [path]
    assert main(["sweep", "no_such_family", "--grid", "m=1"]) == 1
