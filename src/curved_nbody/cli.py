"""Command-line surface: verify, find, simulate, moulton, sweep, fixtures.

Input configurations are JSON objects {"space": "S3"|"H3", "masses": [...],
"points": [[x,y,z,w], ...]} with an optional "lambda"; numbers may be given
as decimal strings when exactness matters.  Catalog outputs embed the same
schema per item, so any produced catalog can be fed back to ``verify``.

Exit codes: 0 success/confirmed, 2 checked-and-false, 1 operational error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import stat
import sys

import numpy as np

from .centralconfig import (
    LevelSetSpec,
    _is_cc,
    canonicalize,
    equivalent,
    find_cc,
    make_report,
)
from .dynamics import Configuration, step_count, trajectory_to_csv
from .errors import CurvedNBodyError, check_scalar
from .fixtures import FIXTURE_BUILDERS, default_fixtures
from .manifold import Space
from .moulton import enumerate_geodesic_h, solve_two_body_s
from .relequil import _comoving_run, pick_member, re_family_from_cc

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# small plumbing helpers
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def _check_out_path(path: str) -> None:
    """Raise, before any work, the OSError that opening path for writing
    would raise because its directory is missing or is not a directory, or
    because path is a directory, with open's class and message; creates
    nothing."""
    parent = os.path.dirname(path) or "."
    try:
        parent_is_dir = stat.S_ISDIR(os.stat(parent).st_mode)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    if not parent_is_dir:
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _config_from_payload(payload: dict) -> Configuration:
    for key in ("space", "masses", "points"):
        if key not in payload:
            raise ValueError(f"input JSON is missing the '{key}' field")
    return Configuration.from_dict(payload)


def _emit_json(obj, out_path):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_item(config: Configuration, lam=None, tol: float = 1e-8) -> dict:
    report = make_report(config, lam=lam)
    item = report.to_json_dict()
    item["space"] = config.space.value
    item["confirmed"] = _is_cc(report.residual_max, report.scale, tol)
    return item


def _parse_masses(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip()])
    except ValueError as exc:
        raise ValueError(f"cannot parse masses '{text}': {exc}") from exc


def _parse_grid(text: str):
    """Parse 'name=a:b:n;other=value' into an ordered (name, values) list."""
    entries = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"grid entry '{part}' is not name=spec")
        name, spec = part.split("=", 1)
        if ":" in spec:
            pieces = spec.split(":")
            if len(pieces) != 3:
                raise ValueError(f"grid range '{spec}' is not start:stop:count")
            start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
            if count < 1:
                raise ValueError("grid count must be >= 1")
            values = np.linspace(start, stop, count)
        else:
            values = np.array([float(spec)])
        entries.append((name.strip(), values))
    if not entries:
        raise ValueError("empty grid specification")
    return entries


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else repr(float(cell)) for cell in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    check_scalar("tolerance --tol", args.tol)
    payload = _load_json(args.input)
    items = payload["items"] if "items" in payload else [payload]
    reports = []
    all_ok = True
    for entry in items:
        config = _config_from_payload(entry)
        item = _report_item(config, lam=entry.get("lambda"), tol=args.tol)
        all_ok = all_ok and item["confirmed"]
        reports.append(item)
    _emit_json(reports[0] if "items" not in payload else {"items": reports},
               args.out)
    return 0 if all_ok else 2


def cmd_find(args) -> int:
    check_scalar("seed count --seeds", args.seeds)
    masses = _parse_masses(args.masses)
    space = Space(args.space)
    level = LevelSetSpec(args.c, tol=args.tol)
    level.validate(space, masses)  # reject impossible levels before searching

    kept = []
    for seed in range(args.seeds):
        try:
            config, _ = find_cc(masses, space, level,
                                rng=np.random.default_rng(seed))
        except CurvedNBodyError:
            continue
        canon, _ = canonicalize(config)
        if any(equivalent(canon, other) for other in kept):
            continue
        kept.append(canon)

    items = [_report_item(cfg, tol=10.0 * level.tol) for cfg in kept]
    _emit_json({
        "space": space.value,
        "masses": [float(m) for m in masses],
        "c": float(args.c),
        "seeds": args.seeds,
        "count": len(items),
        "items": items,
    }, args.out)
    return 0 if items else 2


def cmd_simulate(args) -> int:
    """Certify the rigid orbit of the input CC at rate --beta (and --alpha).

    One co-moving RK4 run gives the drift certificate and, with --out, the
    trajectory CSV: the certified states mapped back by exp(t xi), so the
    rows follow the orbit the certificate measured.
    """
    step_count(args.horizon, args.dt)  # refuse a bad step before any work
    if args.out:
        _check_out_path(args.out)  # and an output file open cannot make
    payload = _load_json(args.input)
    config = _config_from_payload(payload)
    report = make_report(config, lam=payload.get("lambda"))
    family = re_family_from_cc(report, config)

    beta = args.beta if args.beta is not None else payload.get("beta")
    if beta is None:
        raise ValueError("simulate needs --beta (or a 'beta' field in the input)")
    alpha = args.alpha if args.alpha is not None else payload.get("alpha")
    instance = pick_member(family, float(beta),
                           alpha=None if alpha is None else float(alpha))

    drift, cons_drift, traj = _comoving_run(
        instance, args.horizon, args.dt, record=bool(args.out))
    if traj is not None:
        trajectory_to_csv(traj, args.out,
                          sidecar_path=f"{args.out}.conserved.json")

    summary = instance.to_json_dict()
    summary.update({
        "space": config.space.value,
        "horizon": float(args.horizon),
        "dt": float(args.dt),
        "max_distance_drift": float(drift),
        "max_conserved_drift": float(cons_drift),
        "trajectory_csv": args.out or "",
    })
    _emit_json(summary, f"{args.out}.drift.json" if args.out else None)
    return 0


def cmd_moulton(args) -> int:
    check_scalar("tolerance --tol", args.tol)
    masses = _parse_masses(args.masses)
    space = Space(args.space)
    n = masses.size
    header = (["ordering"] + [f"theta_{k}" for k in range(1, n + 1)]
              + ["lambda", "I", "U", "min_hessian_eig"])
    rows = []
    items = []

    if space is Space.H3:
        solutions = enumerate_geodesic_h(masses, args.c)
        count_field = len(solutions)
        for sol in solutions:
            rows.append(["-".join(str(k) for k in sol.ordering)]
                        + [t for t in sol.config.thetas]
                        + [sol.lam, sol.inertia, sol.potential,
                           sol.min_hessian_eig])
            items.append(_report_item(sol.config.to_configuration(),
                                      lam=sol.lam, tol=args.tol))
    else:
        if n != 2:
            raise ValueError("the circular count is available for exactly "
                             "two bodies")
        result = solve_two_body_s(masses[0], masses[1], args.c)
        for k, sol in enumerate(result.solutions):
            emb = sol.to_configuration()
            item = _report_item(emb, tol=args.tol)
            rows.append([f"branch{k}", sol.theta1, sol.theta2,
                         item["lambda"], sol.inertia(),
                         item["U"], ""])
            items.append(item)
        count_field = "inf" if result.family is not None else len(result.solutions)

    if args.out:
        _write_csv(args.out, header, rows)
    _emit_json({
        "space": space.value,
        "masses": [float(m) for m in masses],
        "c": float(args.c),
        "count": count_field,
        "items": items,
    }, f"{args.out}.json" if args.out else None)
    print(f"count: {count_field}")
    return 0


def cmd_sweep(args) -> int:
    if args.family not in FIXTURE_BUILDERS:
        raise ValueError(f"unknown family '{args.family}'; choose from "
                         + ", ".join(sorted(FIXTURE_BUILDERS)))
    builder = FIXTURE_BUILDERS[args.family]
    grid = _parse_grid(args.grid)
    names = [name for name, _ in grid]
    rows = []
    for combo in itertools.product(*(values for _, values in grid)):
        kwargs = {name: float(v) for name, v in zip(names, combo)}
        try:
            fixture = builder(**kwargs)
        except CurvedNBodyError:
            continue
        report = make_report(fixture.config, lam=fixture.expected_lambda)
        rows.append(list(combo) + [report.lam, report.residual_max,
                                   report.cc_class.value])
    _write_csv(args.out, names + ["lambda", "residual", "class"], rows)
    return 0 if rows else 2


def cmd_fixtures(args) -> int:
    if args.action != "export":
        raise ValueError(f"unknown fixtures action '{args.action}'")
    items = []
    for fixture in default_fixtures():
        item = _report_item(fixture.config, lam=fixture.expected_lambda)
        item["name"] = fixture.name
        item["description"] = fixture.description
        items.append(item)
    _emit_json({"count": len(items), "items": items}, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_CONFIRM_HELP = ("relative: an item is confirmed when residual_max < tol "
                 "(find: 10 tol, tol also being its solver tolerance) times "
                 "its largest pair force m_i m_j / sn^2 d_ij, or tol itself "
                 "for one body")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curved-nbody",
        description="Central configurations and relative equilibria on the "
                    "unit 3-sphere and hyperbolic 3-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check whether a configuration is a CC")
    p.add_argument("input", help="configuration JSON (or a catalog with 'items')")
    p.add_argument("--tol", type=float, default=1e-8, help=_CONFIRM_HELP)
    p.add_argument("--out", default=None)

    p = sub.add_parser("find", help="search for CCs on a fixed inertia level")
    p.add_argument("masses", help="comma-separated masses")
    p.add_argument("--space", choices=["S3", "H3"], required=True)
    p.add_argument("--c", type=float, required=True,
                   help="moment of inertia level")
    p.add_argument("--seeds", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-10, help=_CONFIRM_HELP)
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate",
                       help="integrate the rigid orbit attached to a CC")
    p.add_argument("input", help="configuration JSON")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--out", default=None, help="trajectory CSV path")

    p = sub.add_parser("moulton",
                       help="count geodesic CCs: ordering classes or the "
                            "two-body circle table")
    p.add_argument("masses", help="comma-separated masses")
    p.add_argument("--space", choices=["S3", "H3"], required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8, help=_CONFIRM_HELP)
    p.add_argument("--out", default=None, help="catalog CSV path")

    p = sub.add_parser("sweep", help="evaluate a fixture family over a grid")
    p.add_argument("family", help="fixture family name")
    p.add_argument("--grid", required=True,
                   help="semicolon-separated name=start:stop:count or name=value")
    p.add_argument("--out", default=None)

    p = sub.add_parser("fixtures", help="fixture utilities")
    p.add_argument("action", choices=["export"])
    p.add_argument("--out", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parse_args keeps no
    state between calls, and building it costs about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so that a rebound cmd_* function is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CurvedNBodyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
