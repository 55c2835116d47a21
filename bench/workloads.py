"""The four workloads: seeded inputs, one op each, and its output check.

Every workload hands the harness a list of rounds (lists of op specs) made
in set-up from the seed.  The harness times ``run(spec)`` and nothing
else; ``check(spec, raw)`` runs afterwards, outside the timed region, and
returns a signature of the output (compared between the traced and the
untraced run) or raises ``CheckFailed``.

The package is imported lazily, so that the input generators' tests and
the harness's own arithmetic need no curved_nbody on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re

import numpy as np


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


class SolverFailure(Exception):
    """A CLI op that exited 1 on a package error: a counted failure, like a
    ``CurvedNBodyError`` raised by a direct call, not a wrong answer."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _pkg():
    import curved_nbody

    return curved_nbody


def _run_cli(argv):
    """``curved-nbody <argv>`` in-process; returns (exit code, stdout,
    stderr).  Raises ``SolverFailure`` when the command exited 1 on a
    package error (``error: <CurvedNBodyError subclass>: ...``)."""
    from curved_nbody import cli, errors

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 1:
        match = re.match(r"error: (\w+):", err.getvalue())
        kind = getattr(errors, match.group(1), None) if match else None
        if (isinstance(kind, type)
                and issubclass(kind, errors.CurvedNBodyError)):
            raise SolverFailure(kind.__name__, err.getvalue().strip())
    return code, out.getvalue(), err.getvalue()


def _masses_arg(masses) -> str:
    return ",".join(repr(float(m)) for m in masses)


# ---------------------------------------------------------------------------
# cc_search: find_cc on N = 3 level sets, five rng seeds per problem
# ---------------------------------------------------------------------------

def draw_cc_problem(rng, space: str):
    """One N = 3 problem: masses U(0.5, 2); level c = sum(m) U(0.2, 0.6) on
    S3, log-uniform on [0.5, 2.5] on H3.  A level that
    ``LevelSetSpec.validate`` refuses is outside the input domain and is
    drawn again; nothing is ever redrawn because the solver failed."""
    from curved_nbody import LevelSetSpec, Space
    from curved_nbody.errors import OutOfRangeError

    masses = rng.uniform(0.5, 2.0, size=3)
    while True:
        if space == "S3":
            c = float(np.sum(masses)) * rng.uniform(0.2, 0.6)
        else:
            c = math.exp(rng.uniform(math.log(0.5), math.log(2.5)))
        try:
            LevelSetSpec(c).validate(Space(space), masses)
        except OutOfRangeError:
            continue
        return {"space": space, "masses": masses, "c": float(c)}


class CCSearch:
    """Time to a verified CC under the criterion-10 protocol: find_cc with
    rng = default_rng(k), k = 0..4, stopping at the first success.

    The problems form a fixed panel drawn once from the distribution above
    with PANEL_SEED, and a run visits it pass after pass.  Op times span
    0.01 s to 25 s, and a few long H3 descents make up most of a pass, so
    a sample of fresh problems per seed moved ok_per_s and op_s_p50 by more
    than half from seed to seed; on a fixed panel they move only with the
    machine.  The panel is the first twelve problems of the draw, which
    hold a long H3 descent (problem 5), and problem 22, the first S3
    problem that all five seeds fail at the seed state
    (NoConvergenceError): without it the panel would hide the S3 failures.
    The run seed sets the visiting order of each pass, alternating S3 and
    H3.  A round is three passes, so that a run holds three samples of the
    long descent and 39 ops: op_s_p50 and op_s_tail then each fall on three
    runs of one problem, not on the edge between two problems whose times
    lie within a few per cent of each other.
    """

    name = "cc_search"
    SPEED = "interp"
    PANEL_SEED = 0
    PANEL = tuple(range(12)) + (22,)
    PASSES = 3             # passes in a round, each in its own seeded order
    ORDERS = 8             # rounds; the run cycles through them
    ATTEMPTS = 5

    def __init__(self, seed: int, workdir: str, panel=PANEL):
        rng = np.random.default_rng(self.PANEL_SEED)
        drawn = [draw_cc_problem(rng, "S3" if k % 2 == 0 else "H3")
                 for k in range(max(panel) + 1)]
        order = np.random.default_rng(seed)
        by_space = [[drawn[k] for k in panel if drawn[k]["space"] == space]
                    for space in ("S3", "H3")]
        passes = []
        for _ in range(self.PASSES * self.ORDERS):
            s3, h3 = ([group[k] for k in order.permutation(len(group))]
                      for group in by_space)
            passes.append([p for pair in itertools.zip_longest(s3, h3)
                           for p in pair if p is not None])
        self._rounds = [sum(passes[k:k + self.PASSES], [])
                        for k in range(0, len(passes), self.PASSES)]

    def rounds(self):
        return itertools.cycle(self._rounds)

    def warm_up(self):
        pkg = _pkg()
        pkg.find_cc([1.0, 1.0, 1.0], pkg.Space.S3, pkg.LevelSetSpec(1.2),
                    rng=np.random.default_rng(0))
        pkg.find_cc([1.0, 1.0, 1.0], pkg.Space.H3, pkg.LevelSetSpec(0.6),
                    rng=np.random.default_rng(0))

    def run(self, spec):
        pkg = _pkg()
        space, level = pkg.Space(spec["space"]), pkg.LevelSetSpec(spec["c"])
        last = None
        for k in range(self.ATTEMPTS):
            try:
                cfg, _ = pkg.find_cc(spec["masses"], space, level,
                                     rng=np.random.default_rng(k))
                return k, cfg
            except pkg.errors.CurvedNBodyError as exc:
                last = exc
        raise last

    def check(self, spec, raw):
        pkg = _pkg()
        k, cfg = raw
        resid = float(np.max(np.abs(
            pkg.criterion_residual(cfg, pkg.lambda_estimate(cfg)))))
        if not resid < 1e-8:
            raise CheckFailed(f"criterion residual {resid:.3e}")
        c = spec["c"]
        inertia = float(np.sum(cfg.masses * (cfg.points[:, 0] ** 2
                                             + cfg.points[:, 1] ** 2)))
        if abs(inertia - c) > 1e-9 * max(1.0, c):
            raise CheckFailed(f"I = {inertia!r} is off the level c = {c!r}")
        return k, cfg.points.tobytes()


# ---------------------------------------------------------------------------
# geodesic_count: `curved-nbody moulton <masses> --space H3 --c <c>`
# ---------------------------------------------------------------------------

class GeodesicCount:
    """The moulton enumeration through cli.main at N = 3: N!/2 = 3
    geodesic CCs, each confirmed through the default thread pool.

    Masses U(0.5, 2) and c log-uniform on [0.5, 3], with the levels drawn
    one from each fifth of [log 0.5, log 3].  An op takes from 1 s to 3 s
    of a slowed machine depending on both, so, as in cc_search, the
    problems are one fixed panel of five drawn once with PANEL_SEED, and a
    round is two passes over it, each in an order set by the run seed.
    With an odd panel the median op of a run is the middle problem's, not
    the mean of two problems that lie far apart.  N = 4 is left out: an op
    there takes 10 s to 11 s, so a run would hold one or two of them and
    its median would be one op."""

    name = "geodesic_count"
    SPEED = None           # unscaled: no kernel tracked it (see speed.py)
    PANEL_SEED = 0
    PASSES = 2
    ORDERS = 8
    C_RANGE = (0.5, 3.0)

    def __init__(self, seed: int, workdir: str, sizes=(3, 3, 3, 3, 3)):
        rng = np.random.default_rng(self.PANEL_SEED)
        lo, hi = (math.log(c) for c in self.C_RANGE)
        panel = [
            {"masses": rng.uniform(0.5, 2.0, size=n),
             "c": math.exp(lo + (k + rng.uniform()) * (hi - lo) / len(sizes))}
            for k, n in enumerate(sizes)]
        order = np.random.default_rng(seed)
        self._rounds = [[panel[k] for _ in range(self.PASSES)
                         for k in order.permutation(len(panel))]
                        for _ in range(self.ORDERS)]

    def rounds(self):
        return itertools.cycle(self._rounds)

    def warm_up(self):
        _run_cli(["moulton", "1.0,2.0", "--space", "H3", "--c", "1.0"])

    def run(self, spec):
        return _run_cli(["moulton", _masses_arg(spec["masses"]),
                         "--space", "H3", "--c", repr(spec["c"])])

    def check(self, spec, raw):
        pkg = _pkg()
        code, out, err = raw
        if code != 0:
            raise CheckFailed(f"exit {code}: {err.strip()}")
        text, _, tail = out.rpartition("}\n")
        doc = json.loads(text + "}")
        n = len(spec["masses"])
        expected = math.factorial(n) // 2
        if doc["count"] != expected or len(doc["items"]) != expected:
            raise CheckFailed(f"count {doc['count']}, expected {expected}")
        if tail.strip() != f"count: {expected}":
            raise CheckFailed(f"summary line {tail.strip()!r}")
        configs = []
        for item in doc["items"]:
            if not item["confirmed"]:
                raise CheckFailed("an item is not confirmed")
            m, q = np.array(item["masses"]), np.array(item["points"])
            balance = float(np.sum(2.0 * m * q[:, 0] * q[:, 3]))  # m sinh 2t
            if not abs(balance) < 1e-10:
                raise CheckFailed(f"balance {balance:.3e}")
            configs.append(pkg.Configuration.from_dict(item))
        for a, b in itertools.combinations(configs, 2):
            if pkg.equivalent(a, b):
                raise CheckFailed("two items are equivalent")
        return code, out, err


# ---------------------------------------------------------------------------
# rigid_orbit: `curved-nbody simulate <cfg.json> --beta <b> [--out f.csv]`
# ---------------------------------------------------------------------------

# the five criterion-4 members: (fixture, beta)
REFERENCE_ORBITS = (("example1_s3", 0.0), ("example1_s3", 1.0),
                    ("example2_h3", 0.0), ("example2_h3", 1.0),
                    ("example2_h3", math.sqrt(3.0) / 2.0))
SEEDED_FAMILIES = ("lagrangian_s2", "lagrangian_h2", "geodesic_h1")


def draw_orbit(rng, family: str):
    """A seeded N = 3 member: mass U(0.5, 1.5), radius U(0.5, 0.9), and a
    rate beta drawn from the admissible range (|beta| <= sqrt(-2 lambda)
    on H3), capped at 1 like the criterion-4 members."""
    m, r = rng.uniform(0.5, 1.5), rng.uniform(0.5, 0.9)
    fixture = _pkg().fixtures.FIXTURE_BUILDERS[family](m, r)
    cap = 1.0
    if fixture.config.space.value == "H3":
        cap = min(cap, math.sqrt(-2.0 * fixture.expected_lambda))
    return fixture, float(rng.uniform(0.0, cap))


class RigidOrbit:
    """simulate through cli.main on reference and seeded rigid orbits at
    the default dt = 1e-3 and T = 0.5; every other op also writes the CSV.

    T = 0.5 rather than the default 10: an op runs the same two RK4 loops
    (certify_rigidity, then integrate) for 500 steps instead of 10000, so
    a run holds some forty ops, not one or two, and its median rides out
    slowdowns of a shared machine.  A round is one lap over all ten
    members, so every run times the same mix of members and of CSV writes.
    """

    name = "rigid_orbit"
    SPEED = "interp"
    DT, HORIZON = 1e-3, 0.5

    def __init__(self, seed: int, workdir: str, horizon: float = HORIZON):
        rng = np.random.default_rng(seed)
        self.horizon = horizon
        builders = _pkg().fixtures.FIXTURE_BUILDERS
        members = []
        for k, (name, beta) in enumerate(REFERENCE_ORBITS):
            members.append((f"ref{k}", builders[name](), beta))
            fixture, b = draw_orbit(rng, SEEDED_FAMILIES[k % 3])
            members.append((f"seeded{k}", fixture, b))
        start = int(rng.integers(len(members)))
        members = members[start:] + members[:start]
        specs = []
        for tag, fixture, beta in members:
            path = os.path.join(workdir, f"{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(fixture.config.to_dict(), fh)
            specs.append({"input": path, "beta": beta, "n": 3})
        # op k writes the CSV when k is odd; two laps give every member
        # one op of each kind
        csv = os.path.join(workdir, "orbit.csv")
        self._rounds = [[dict(spec, out=csv if (k + lap) % 2 else None)
                         for k, spec in enumerate(specs)]
                        for lap in range(2)]

    def rounds(self):
        return itertools.cycle(self._rounds)

    def warm_up(self):
        spec = self._rounds[0][0]
        _run_cli(["simulate", spec["input"], "--beta", repr(spec["beta"]),
                  "--horizon", "0.01"])

    def run(self, spec):
        argv = ["simulate", spec["input"], "--beta", repr(spec["beta"]),
                "--horizon", repr(self.horizon)]
        if spec["out"]:
            argv += ["--out", spec["out"]]
        return _run_cli(argv)

    def check(self, spec, raw):
        code, out, err = raw
        if code != 0:
            raise CheckFailed(f"exit {code}: {err.strip()}")
        csv_digest = None
        if spec["out"]:
            files = [spec["out"] + s for s in ("", ".conserved.json",
                                               ".drift.json")]
            with open(files[2], encoding="utf-8") as fh:
                out = fh.read()
            with open(files[0], "rb") as fh:
                data = fh.read()
            for path in files:
                os.remove(path)
            rows = data.count(b"\n") - 1
            steps = max(1, round(self.horizon / self.DT))
            every = max(1, steps // 1000)
            records = 1 + sum(1 for k in range(1, steps + 1)
                              if k % every == 0 or k == steps)
            if rows != records * spec["n"]:
                raise CheckFailed(f"{rows} CSV rows, expected "
                                  f"{records * spec['n']}")
            csv_digest = hashlib.sha256(data).hexdigest()
        doc = json.loads(out)
        if not doc["max_distance_drift"] < 1e-6:
            raise CheckFailed(f"distance drift {doc['max_distance_drift']:.3e}")
        if not doc["max_conserved_drift"] < 1e-8:
            raise CheckFailed(
                f"conserved drift {doc['max_conserved_drift']:.3e}")
        return code, out, err, csv_digest


# ---------------------------------------------------------------------------
# cluster_step: integrate a few RK4 steps at N = 512
# ---------------------------------------------------------------------------

def cluster_state(rng, space: str, n: int, min_sep: float = 0.05):
    """n bodies at least min_sep apart (and, on S3, at least min_sep from
    antipodal), masses U(0.5, 2)/n, small random tangent momenta.  H3
    bodies fill the ball of radius asinh(1.2) about (0, 0, 0, 1)."""
    pkg = _pkg()
    sp = pkg.Space(space)

    def sample(k):
        if space == "S3":
            v = rng.normal(size=(k, 4))
            return v / np.linalg.norm(v, axis=1)[:, None]
        v = rng.normal(size=(k, 3))
        v *= (1.2 * rng.uniform(size=k) ** (1 / 3)
              / np.linalg.norm(v, axis=1))[:, None]
        return np.column_stack([v, np.sqrt(1.0 + np.sum(v * v, axis=1))])

    Q = sample(n)
    while True:
        s = sp.sigma * ((Q * sp.metric_diagonal) @ Q.T)  # cos d or cosh d
        if space == "S3":
            near = np.abs(s) > math.cos(min_sep)
        else:
            near = s < math.cosh(min_sep)
        np.fill_diagonal(near, False)
        bad = np.unique(np.nonzero(np.triu(near))[0])
        if not bad.size:
            break
        Q[bad] = sample(bad.size)
    masses = rng.uniform(0.5, 2.0, size=n) / n
    V = pkg.project_tangent(Q, 0.05 * rng.normal(size=(n, 4)), sp)
    config = pkg.Configuration(sp, masses, Q)
    return pkg.PhaseState(config, masses[:, None] * V)


class ClusterStep:
    """integrate() for a few steps on N = 512 bodies, S3 then H3."""

    name = "cluster_step"
    SPEED = "pairwise"
    N, STEPS, DT = 512, 5, 1e-3
    STATES = 2              # per geometry; ops cycle through them
    # Energy and the six omegas may drift by this much, relative to
    # max(1, |value at start|), over one op's few steps.
    DRIFT = 1e-10

    def __init__(self, seed: int, workdir: str, n: int | None = None):
        rng = np.random.default_rng(seed)
        n = n or self.N
        self._rounds = []
        for _ in range(self.STATES):
            rnd = []
            for space in ("S3", "H3"):
                state = cluster_state(rng, space, n)
                start = _pkg().conserved(state).as_dict()
                rnd.append({"state": state, "conserved": start})
            self._rounds.append(rnd)

    def rounds(self):
        return itertools.cycle(self._rounds)

    def warm_up(self):
        _pkg().integrate(self._rounds[0][0]["state"], self.DT, 1)

    def run(self, spec):
        return _pkg().integrate(spec["state"], self.DT, self.STEPS)

    def check(self, spec, traj):
        if not traj.completed or len(traj) != self.STEPS + 1:
            raise CheckFailed("trajectory did not complete")
        # final_state() validates; a package error here is a wrong output
        end = _pkg().conserved(traj.final_state()).as_dict()
        for key, v0 in spec["conserved"].items():
            if abs(end[key] - v0) > self.DRIFT * max(1.0, abs(v0)):
                raise CheckFailed(f"{key} drifted by {end[key] - v0:.3e}")
        return traj.positions.tobytes(), traj.momenta.tobytes()


WORKLOADS = {w.name: w for w in (CCSearch, GeodesicCount, RigidOrbit,
                                 ClusterStep)}
