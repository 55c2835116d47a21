"""Cotangent-law gravitation on the curved 3-spheres.

The force function is U = sum_{i<j} m_i m_j ctn(d_ij) (cot on S3, coth on
H3).  Motion follows the constrained second-order system

    dq_i/dt = p_i / m_i
    dp_i/dt = sum_{j != i} m_i m_j [q_j - csn(d_ij) q_i] / sn^3(d_ij)
              - sigma m_i <qdot_i, qdot_i> q_i

with p_i stored componentwise as m_i qdot_i and every pairing taken in the
sigma-inner product.  A classical RK4 step followed by projection back onto
the manifold (and of momenta onto tangent spaces) keeps constraint drift at
round-off level.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateVectorError,
    OffShellError,
    SingularEncounterError,
    SingularPairError,
    check_masses,
    check_scalar,
)
from .manifold import (
    EPS_MANIFOLD,
    EPS_SINGULAR,
    Space,
    _reproject,
    inner,
)

__all__ = [
    "Body",
    "Configuration",
    "PhaseState",
    "ConservedSet",
    "Trajectory",
    "force_function",
    "pair_force",
    "grad_U",
    "eom_rhs",
    "integrate",
    "step_count",
    "conserved",
    "kinetic_energy",
    "pairwise_distances",
    "generator_momenta",
    "trajectory_to_csv",
]


class Body(NamedTuple):
    mass: float
    point: np.ndarray


# ─── configuration and phase state ───────────────────────────────────────


@dataclass(frozen=True, eq=False)
class Configuration:
    """N positive masses at pairwise-nonsingular points of one manifold."""

    space: Space
    masses: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        m = check_masses(self.masses)
        q = np.asarray(self.points, dtype=float).reshape(-1, 4).copy()
        if len(m) != len(q):
            raise ValueError("need one mass per point")
        _check_points(self.space, q)
        m.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "points", q)

    @classmethod
    def from_raw(cls, space: Space, masses, raw_points) -> "Configuration":
        """Build after scaling each raw 4-vector onto the manifold."""
        raw = np.asarray(raw_points, dtype=float).reshape(-1, 4)
        return cls(space, masses, _reproject(space, raw))

    @property
    def n(self) -> int:
        return len(self.masses)

    def bodies(self) -> list[Body]:
        return [Body(float(m), p) for m, p in zip(self.masses, self.points)]

    def with_points(self, points) -> "Configuration":
        return Configuration(self.space, self.masses, points)

    def to_dict(self) -> dict:
        return {
            "space": self.space.value,
            "masses": [float(v) for v in self.masses],
            "points": [[float(c) for c in row] for row in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Configuration":
        return cls.from_raw(
            Space(data["space"]), data["masses"], np.asarray(data["points"], float)
        )


@dataclass(frozen=True, eq=False)
class PhaseState:
    """A configuration plus componentwise momenta p_i = m_i qdot_i."""

    config: Configuration
    momenta: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.momenta, dtype=float).reshape(-1, 4).copy()
        if len(p) != self.config.n:
            raise ValueError("need one momentum row per body")
        tang = np.abs(inner(self.config.points, p, self.config.space))
        tol = 1e-10 * max(1.0, float(np.max(np.abs(p), initial=0.0)))
        if not np.max(tang) <= tol:
            raise OffShellError(
                f"momentum not tangent: |<p, q>| = {np.max(tang):.3e}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "momenta", p)

    @property
    def velocities(self) -> np.ndarray:
        return self.momenta / self.config.masses[:, None]


@dataclass
class ConservedSet:
    """Energy and the six rotational/boost first integrals."""

    energy: float
    omega_xy: float
    omega_xz: float
    omega_xw: float
    omega_yz: float
    omega_yw: float
    omega_zw: float

    def as_dict(self) -> dict:
        return {
            "energy": self.energy,
            "omega_xy": self.omega_xy,
            "omega_xz": self.omega_xz,
            "omega_xw": self.omega_xw,
            "omega_yz": self.omega_yz,
            "omega_yw": self.omega_yw,
            "omega_zw": self.omega_zw,
        }

    def max_abs_diff(self, other: "ConservedSet") -> float:
        a, b = self.as_dict(), other.as_dict()
        return max(abs(a[k] - b[k]) for k in a)


@dataclass
class Trajectory:
    """Recorded (t, q, p) samples from one integration run."""

    space: Space
    masses: np.ndarray
    times: np.ndarray          # (S,)
    positions: np.ndarray      # (S, N, 4)
    momenta: np.ndarray        # (S, N, 4)
    completed: bool = True

    def __len__(self) -> int:
        return len(self.times)

    def state_at(self, k: int) -> PhaseState:
        cfg = Configuration(self.space, self.masses, self.positions[k])
        return PhaseState(cfg, self.momenta[k])

    def final_state(self) -> PhaseState:
        return self.state_at(len(self) - 1)


# ─── pairwise geometry kernels (raw arrays, no validation) ───────────────


def _check_points(space: Space, q: np.ndarray) -> np.ndarray:
    """Configuration's point checks on an (N, 4) array or a (..., N, 4)
    stack; returns the Gram matrices.

    Raises OffShellError for a point off the quadric or, on H3, off the
    w >= 1 sheet (a NaN coordinate fails both tests), and SingularPairError
    for a singular pair.  A stack raises when any of its configurations
    would, though not always with the message that configuration raises
    alone.
    """
    unit = inner(q, q, space)
    # the quadratic form carries rounding noise ~ |q|^2 eps, so the
    # on-shell tolerance has to scale with the squared coordinate size;
    # the reductions are ndarray methods, which skip np.sum's and np.max's
    # Python wrappers, a cost that dominates at a few bodies
    scale = np.maximum(1.0, (q * q).sum(axis=-1))
    dev = np.abs(unit - space.sigma)
    if not (dev / scale).max() <= EPS_MANIFOLD:
        raise OffShellError(f"point constraint violated by {np.max(dev):.3e}")
    if space is Space.H3 and not q[..., 3].min() >= 1.0 - EPS_MANIFOLD:
        raise OffShellError("hyperbolic points must lie on the w >= 1 sheet")
    return _gram_checked(space, q)


def _gram_checked(space: Space, Q: np.ndarray) -> np.ndarray:
    """Matrix s_ij = csn(d_ij); raises SingularPairError on singular pairs.

    Q is (N, 4) or a (..., N, 4) stack, which raises for the first
    singular pair of its first singular configuration.  The predicate is
    one-sided where the geometry is one-sided: on H3 any off-diagonal s
    below 1 + EPS_SINGULAR is singular (true points always have cosh d > 1;
    integrator stages that cross a collision dip below 1), and on S3
    anything within EPS_SINGULAR of +-1, from either side.
    """
    s = space.sigma * ((Q * space.metric_diagonal) @ Q.swapaxes(-1, -2))
    _raise_singular_pair(s, *_singular_bounds(space))
    return s


def _raise_singular_pair(s: np.ndarray, lo: float, hi: float) -> None:
    """Raise SingularPairError for the first off-diagonal entry of a Gram
    matrix or C-contiguous stack s outside [lo, hi] (_singular_bounds)."""
    bad = ~((s >= lo) & (s <= hi))
    _fill_diagonal(bad, False)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise SingularPairError(int(at[-2]), int(at[-1]), float(s[at]))


def _fill_diagonal(a: np.ndarray, value: float) -> None:
    """np.fill_diagonal on each matrix of a C-contiguous (..., N, N) stack.

    The reshape is a view only because the stack is contiguous, which every
    caller's freshly computed array is.
    """
    n = a.shape[-1]
    a.reshape(a.shape[:-2] + (n * n,))[..., :: n + 1] = value


def _sn_powers(space: Space, s: np.ndarray):
    """(sn d_ij, sn^3 d_ij) with the diagonal patched to 1; s may be a stack."""
    sn2 = space.sigma * (1.0 - s * s)
    _fill_diagonal(sn2, 1.0)
    sn = np.sqrt(np.maximum(sn2, 0.0))
    return sn, sn * sn * sn


def _potential_raw(space: Space, m: np.ndarray, Q: np.ndarray) -> float:
    return _potential_gram(space, m, _gram_checked(space, Q))


def _potential_gram(space: Space, m: np.ndarray, s: np.ndarray) -> float:
    """U from an already checked (N, N) Gram matrix s, which it leaves as is."""
    sn, _ = _sn_powers(space, s)
    ctn = s / sn
    np.fill_diagonal(ctn, 0.0)
    return 0.5 * float((np.outer(m, m) * ctn).sum())


def _singular_bounds(space: Space) -> tuple[float, float]:
    """(lo, hi): off the diagonal, s is nonsingular exactly when
    lo <= s <= hi.  NaN fails both comparisons, and the H3 upper bound, the
    largest finite float, refuses +inf, so that a non-finite pair is singular.
    """
    if space is Space.S3:
        return -1.0 + EPS_SINGULAR, 1.0 - EPS_SINGULAR
    return 1.0 + EPS_SINGULAR, sys.float_info.max


class _ForceKernel:
    """The pairwise force law of one mass vector on one space, on arrays.

    Built once per run from (space, m), so that the stage loop of an
    integration does not rebuild the metric diagonal, the mass column and
    the singular-pair bounds on every call.  grad and
    rhs take an (N, 4) array or a (B, N, 4) stack.  The Gram matrix is
    _gram_checked's expression, so results and errors match it bitwise.
    The mass outer product is rebuilt per call rather than kept, so that a
    run holds no extra N x N array.  The stepper uses it above
    _PAIR_LOOP_MAX_N bodies; _PairKernel serves the few-body runs.
    """

    def __init__(self, space: Space, m: np.ndarray):
        self.space = space
        self.sigma = space.sigma
        self.met = space.metric_diagonal
        self.m = m
        self.mcol = m[:, None]
        self.lo, self.hi = _singular_bounds(space)

    def grad(self, Q: np.ndarray) -> np.ndarray:
        """grad U of Q; a singular pair raises what _gram_checked raises."""
        s = self.sigma * ((Q * self.met) @ Q.swapaxes(-1, -2))
        _raise_singular_pair(s, self.lo, self.hi)
        _, sn3 = _sn_powers(self.space, s)
        w = self.mcol * self.m / sn3
        _fill_diagonal(w, 0.0)
        return w @ Q - (w * s).sum(axis=-1)[..., None] * Q

    def rhs(self, Q: np.ndarray, P: np.ndarray):
        """(dQ/dt, dP/dt) of the equations of motion at (Q, P)."""
        V = P / self.mcol
        # inner(V, V): numpy reduces the length-4 axis in order, so bitwise
        vsq = (V * V * self.met).sum(axis=-1)
        return V, self.grad(Q) - (self.sigma * (self.m * vsq))[..., None] * Q


# Up to this many bodies the stepper sums forces pair by pair in Python
# floats: a few dozen numpy calls on (N, 4) arrays cost more than the
# O(N^2) work itself.  On a 2-vCPU Xeon one rhs takes 5 / 7 / 11 us at
# N = 2 / 3 / 4 against 23-26 us for _ForceKernel; the two meet near N = 7.
_PAIR_LOOP_MAX_N = 4


class _PairKernel:
    """_ForceKernel.rhs for one (N, 4) state of a few bodies, as a loop.

    Each unordered pair's s, singular-pair test, sn^3 and weight
    w = m_i m_j / sn^3 are computed once, in _ForceKernel's expressions,
    and the force is added to both bodies.  V and the velocity term are
    bitwise _ForceKernel's; the forces differ from its BLAS sums by
    rounding only.  A singular pair raises SingularPairError(i, j, s) for
    the first such pair i < j, judged by this loop's own s.
    """

    def __init__(self, space: Space, m: np.ndarray):
        self.sigma = float(space.sigma)
        self.mw = float(space.metric_diagonal[3])
        self.m = [float(v) for v in m]
        self.mcol = m[:, None]
        self.pairs = [(i, j, self.m[i] * self.m[j])
                      for i, j in combinations(range(len(m)), 2)]
        self.lo, self.hi = _singular_bounds(space)

    def rhs(self, Q: np.ndarray, P: np.ndarray):
        """(dQ/dt, dP/dt) of the equations of motion at one state (Q, P)."""
        sigma, mw, lo, hi = self.sigma, self.mw, self.lo, self.hi
        q = Q.tolist()
        f = [[0.0, 0.0, 0.0, 0.0] for _ in q]   # sum_j w_ij q_j
        c = [0.0] * len(q)                       # sum_j w_ij s_ij
        for i, j, mm in self.pairs:
            a0, a1, a2, a3 = q[i]
            b0, b1, b2, b3 = q[j]
            s = sigma * (a0 * b0 + a1 * b1 + a2 * b2 + mw * a3 * b3)
            if not lo <= s <= hi:
                raise SingularPairError(i, j, s)
            # inside the bounds sigma (1 - s^2) is at least about
            # 2 EPS_SINGULAR, or +inf on H3: the root and division cannot fail
            sn = math.sqrt(sigma * (1.0 - s * s))
            w = mm / (sn * sn * sn)
            fi, fj = f[i], f[j]
            fi[0] += w * b0
            fi[1] += w * b1
            fi[2] += w * b2
            fi[3] += w * b3
            fj[0] += w * a0
            fj[1] += w * a1
            fj[2] += w * a2
            fj[3] += w * a3
            ws = w * s
            c[i] += ws
            c[j] += ws
        V = P / self.mcol
        dP = []
        for (v0, v1, v2, v3), qi, fi, ci, mi in zip(V.tolist(), q, f, c, self.m):
            # (grad U)_i - sigma m_i <v_i, v_i> q_i, grouped as _ForceKernel
            u = sigma * (mi * (v0 * v0 + v1 * v1 + v2 * v2 + mw * v3 * v3))
            x0, x1, x2, x3 = qi
            dP.append([fi[0] - ci * x0 - u * x0, fi[1] - ci * x1 - u * x1,
                       fi[2] - ci * x2 - u * x2, fi[3] - ci * x3 - u * x3])
        return V, np.array(dP)


def _stepper_rhs(space: Space, m: np.ndarray):
    """The rhs(Q, P) that the RK4 stepper uses for one run of masses m: the
    pair loop up to _PAIR_LOOP_MAX_N bodies, the array kernel above."""
    if len(m) <= _PAIR_LOOP_MAX_N:
        return _PairKernel(space, m).rhs
    return _ForceKernel(space, m).rhs


def _grad_U_raw(space: Space, m: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """grad U of an (N, 4) array or of each configuration of a stack."""
    return _ForceKernel(space, m).grad(Q)


# ─── public operations ───────────────────────────────────────────────────


def force_function(config: Configuration) -> float:
    """Total force function U = sum over pairs of m_i m_j ctn(d_ij)."""
    return _potential_raw(config.space, config.masses, config.points)


def pair_force(i: int, j: int, config: Configuration) -> np.ndarray:
    """Force exerted on body i by body j (tangent to the manifold at q_i)."""
    if i == j:
        raise ValueError("pair_force needs two distinct bodies")
    space = config.space
    qi, qj = config.points[i], config.points[j]
    # a Configuration holds no singular pair, so s is safely inside the
    # domain and needs no check of its own
    s = space.sigma * inner(qi, qj, space)
    sn = math.sqrt(max(space.sigma * (1.0 - s * s), 0.0))
    return config.masses[i] * config.masses[j] * (qj - s * qi) / (sn * sn * sn)


def grad_U(config: Configuration) -> np.ndarray:
    """Manifold gradient of U, one tangent row per body: the net forces."""
    return _grad_U_raw(config.space, config.masses, config.points)


def eom_rhs(state: PhaseState):
    """(dq/dt, dp/dt) rows for the constrained equations of motion."""
    cfg = state.config
    return _ForceKernel(cfg.space, cfg.masses).rhs(cfg.points, state.momenta)


def kinetic_energy(state: PhaseState, half: bool = False) -> float:
    """sum_i m_i^-1 <p_i, p_i>.

    The bare sum is the convention used throughout the closed-form material
    here; pass half=True for the (1/2)-weighted value, which is the one that
    combines with -U into a drift-free first integral.
    """
    val = float(
        np.sum(inner(state.momenta, state.momenta, state.config.space)
               / state.config.masses)
    )
    return 0.5 * val if half else val


def _first_integrals(space: Space, m, Q, P) -> np.ndarray:
    """conserved()'s seven values as one array, in the dtype of Q and P.

    The order is ConservedSet's.  Only the potential comes back rounded to
    float64, as _potential_raw returns it.
    """
    kin = 0.5 * np.sum(np.sum(P * P * space.metric_diagonal, axis=1) / m)
    omegas = [np.sum(P[:, a] * Q[:, b] - Q[:, a] * P[:, b])
              for a, b in combinations(range(4), 2)]
    return np.array([kin - _potential_raw(space, m, Q), *omegas])


def conserved(state: PhaseState) -> ConservedSet:
    """Evaluate the seven first integrals at one state.

    energy = (1/2) sum m_i^-1 <p_i, p_i> - U: the 1/2 makes it constant
    along solutions (see kinetic_energy for the bare-sum convention).  The
    six omegas are sum_i (p_a q_b - q_a p_b) over coordinate pairs; all six
    are constant in both geometries.
    """
    cfg = state.config
    vals = _first_integrals(cfg.space, cfg.masses, cfg.points, state.momenta)
    return ConservedSet(*(float(v) for v in vals))


def pairwise_distances(config: Configuration) -> np.ndarray:
    """Symmetric (N, N) matrix of geodesic separations, zero diagonal."""
    s = _gram_checked(config.space, config.points)
    if config.space is Space.S3:
        d = np.arccos(np.clip(s, -1.0, 1.0))
    else:
        d = np.arccosh(np.maximum(s, 1.0))
    np.fill_diagonal(d, 0.0)
    return d


def generator_momenta(config: Configuration, generator) -> np.ndarray:
    """Momenta m_i (xi q_i) for rigid motion along a one-parameter subgroup."""
    if generator.space is not config.space:
        raise ValueError("generator kind does not act on this configuration's space")
    xi = generator.matrix_log()
    return config.masses[:, None] * (config.points @ xi.T)


def _rk4(space: Space, rhs, Q, P, dt: float, steps: int, visit) -> None:
    """Fixed-step RK4 plus projection, calling visit(k, Q, P) after step k.

    rhs(Q, P) returns the rows (dQ/dt, dP/dt); both callers build it from
    _stepper_rhs, so N alone decides between the pair loop and the array
    kernel.  After each step the positions are rescaled onto the manifold
    and the momenta re-projected onto tangent spaces.  A singular pair
    (SingularPairError from either kernel), a non-finite state or a row that
    cannot be scaled back, met in a stage, the projection or visit, raises
    SingularEncounterError chained from its cause.  Overflow and invalid
    operations raise no RuntimeWarning here: a step of huge dt reaches that
    error through the non-finite values they leave.
    """
    # 0.5 * dt * k already evaluates as (0.5 * dt) * k, so hoisting is bitwise
    half, sixth = 0.5 * dt, dt / 6.0
    sigma, met = space.sigma, space.metric_diagonal
    # one errstate per run, not per step, keeps its cost out of the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            try:
                k1q, k1p = rhs(Q, P)
                k2q, k2p = rhs(Q + half * k1q, P + half * k1p)
                k3q, k3p = rhs(Q + half * k2q, P + half * k2p)
                k4q, k4p = rhs(Q + dt * k3q, P + dt * k3p)
                Q = Q + sixth * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
                P = P + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
                if not (np.isfinite(Q).all() and np.isfinite(P).all()):
                    raise OffShellError("non-finite state")
                Q = _reproject(space, Q)
                # project_tangent, bitwise: sigma = +-1 scales exactly
                P = P - (sigma * (Q * P * met).sum(axis=-1))[..., None] * Q
                visit(k, Q, P)
            except SingularPairError as exc:
                raise SingularEncounterError(
                    f"singular pair ({exc.i}, {exc.j}) near t = {(k - 1) * dt:.6g}"
                ) from exc
            except (OffShellError, DegenerateVectorError) as exc:
                raise SingularEncounterError(
                    f"step left the resolvable region near t = {(k - 1) * dt:.6g}: {exc}"
                ) from exc


def step_count(horizon: float, dt: float) -> int:
    """The number of fixed steps of size dt that cover horizon, at least one.

    Raises OutOfRangeError unless horizon, dt and their ratio are finite
    and positive.
    """
    ratio = check_scalar("horizon", horizon) / check_scalar("step dt", dt)
    return max(1, round(check_scalar("horizon / dt", ratio)))


def integrate(
    state: PhaseState, dt: float, steps: int, record_every: int = 1
) -> Trajectory:
    """Advance the equations of motion with fixed-step RK4 plus projection.

    After each step, positions are rescaled onto the manifold and momenta
    re-projected onto tangent spaces, so recorded states satisfy the
    constraints to round-off.  The forces are summed pair by pair in
    Python floats for up to four bodies and by the array kernel for more;
    the two agree to rounding.  A singular pair encountered mid-run raises
    SingularEncounterError carrying the trajectory up to the last good step.
    A dt that is not finite and positive raises OutOfRangeError, and steps
    or record_every below one ValueError.
    """
    check_scalar("step dt", dt)
    if steps < 1 or record_every < 1:
        raise ValueError("need steps >= 1 and record_every >= 1")
    space, m = state.config.space, state.config.masses
    times, qs, ps = [0.0], [state.config.points], [state.momenta]

    def record(k, Q, P):
        if k % record_every == 0 or k == steps:
            times.append(k * dt)
            qs.append(Q)
            ps.append(P)

    rhs = _stepper_rhs(space, m)
    try:
        _rk4(space, rhs, state.config.points, state.momenta, dt, steps, record)
    except SingularEncounterError as exc:
        exc.partial = Trajectory(
            space, m, np.array(times), np.array(qs), np.array(ps), completed=False
        )
        raise
    return Trajectory(space, m, np.array(times), np.array(qs), np.array(ps))


# ─── export ──────────────────────────────────────────────────────────────


def trajectory_to_csv(
    traj: Trajectory, csv_path, sidecar_path=None, sample_stride: int = 100
) -> None:
    """Write `t,i,x,y,z,w,px,py,pz,pw` rows plus an optional JSON sidecar
    of conserved-quantity samples (every sample_stride-th record)."""
    lines = ["t,i,x,y,z,w,px,py,pz,pw"]
    for k, t in enumerate(traj.times):
        for i in range(len(traj.masses)):
            q = traj.positions[k, i]
            p = traj.momenta[k, i]
            fields = [repr(float(t)), str(i)]
            fields += [repr(float(v)) for v in q] + [repr(float(v)) for v in p]
            lines.append(",".join(fields))
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if sidecar_path is None:
        return
    samples = []
    last = len(traj) - 1
    for k in [*range(0, last, max(1, sample_stride)), last]:
        entry = {"t": float(traj.times[k])}
        entry.update(conserved(traj.state_at(k)).as_dict())
        samples.append(entry)
    with open(sidecar_path, "w") as fh:
        json.dump({"completed": traj.completed, "samples": samples}, fh, indent=2)
        fh.write("\n")
