"""End-to-end command tests driven through main(argv)."""

import json
import subprocess
import sys

import numpy as np
import pytest

from curved_nbody.cli import main
from curved_nbody.fixtures import FIXTURE_BUILDERS


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
        raise AssertionError("integrate ran without --out")

    monkeypatch.setattr("curved_nbody.cli.integrate", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


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
