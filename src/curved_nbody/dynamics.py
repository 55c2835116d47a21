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
from itertools import chain, combinations
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
    _add_reduce,
    _reproject,
    _reproject_rows,
    _tangent_rows,
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


def _check_rows(space: Space, q: list) -> list:
    """_check_points on one configuration held as rows of four Python
    floats, bit for bit; returns the Gram matrix as rows.

    The checks run in floats, in _check_points' expressions; only the Gram
    product stays a numpy call, since BLAS may round it with fused
    multiply-adds.  A row off the shell goes to _check_points, so the
    error and its message are that function's own.  A singular pair raises
    SingularPairError for the first entry of the Gram matrix outside the
    bounds in C order, the one _raise_singular_pair finds in the same
    matrix, without rebuilding it.
    """
    _check_shell_rows(space, q)
    a = np.array(q)
    s = (space.sigma * ((a * space.metric_diagonal) @ a.T)).tolist()
    lo, hi = _singular_bounds(space)
    for i, row in enumerate(s):
        for j, v in enumerate(row):
            if not lo <= v <= hi and i != j:
                raise SingularPairError(i, j, v)
    return s


def _check_shell_rows(space: Space, q: list) -> None:
    """_check_points' shell tests on the rows q, in its expressions; a row
    that fails them goes to _check_points, which raises its error."""
    sigma, h3 = space.sigma, space is Space.H3
    for x0, x1, x2, x3 in q:
        t = x0 * x0 + x1 * x1 + x2 * x2
        sq = t + x3 * x3  # (q * q).sum(axis=-1): 0.0 + x0 * x0 adds nothing
        unit = t - x3 * x3 if h3 else sq
        # a NaN sq comes with a NaN unit, whose test fails as numpy's does
        if not (abs(unit - sigma) / (sq if sq > 1.0 else 1.0) <= EPS_MANIFOLD
                and (not h3 or x3 >= 1.0 - EPS_MANIFOLD)):
            _check_points(space, np.array(q))  # raises


# u = 2^-53 is the unit roundoff.  A sum of the four products a_k b_k, in
# any order and with or without fused multiply-adds, lies within
# gamma_4 sum |a_k b_k| of the exact sum, gamma_4 = 4u / (1 - 4u) (Higham,
# Accuracy and Stability of Numerical Algorithms, section 3.1), so a Gram
# entry summed in floats and the BLAS one lie within 2 gamma_4 sum |a_k b_k|
# of each other.  _check_rows_float asks a pair to clear its bounds by twice
# that, because the test rounds too: its float sum of |a_k b_k|, the margin
# and the distance to the bound each lie within a few u of exact, far less
# than the second half of the margin.
_U_ROUND = sys.float_info.epsilon / 2.0
_PAIR_MARGIN = 2.0 * (2.0 * (4.0 * _U_ROUND / (1.0 - 4.0 * _U_ROUND)))


def _check_rows_float(space: Space, q: list) -> None:
    """_check_rows without its Gram matrix: passes or raises exactly as it
    does, but builds the BLAS product only for a pair it cannot clear in
    floats.

    After the shell tests, each pair's s is summed in floats.  When every
    pair clears both singular bounds by _PAIR_MARGIN sum |a_k b_k|, the
    BLAS entries, which differ from the float sums by less, clear them
    too, and the rows pass.  A pair inside the margin, or a sum that is not
    finite, hands the rows to _check_rows, which raises or passes.
    """
    _check_shell_rows(space, q)
    lo, hi = _singular_bounds(space)
    h3 = space is Space.H3
    for i, (a0, a1, a2, a3) in enumerate(q):
        for b0, b1, b2, b3 in q[i + 1:]:
            p0, p1, p2, p3 = a0 * b0, a1 * b1, a2 * b2, a3 * b3
            v = p3 - p0 - p1 - p2 if h3 else p0 + p1 + p2 + p3
            margin = _PAIR_MARGIN * (abs(p0) + abs(p1) + abs(p2) + abs(p3))
            if not (v - lo >= margin and hi - v >= margin):
                _check_rows(space, q)
                return


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


def _potential_raw(space: Space, m: np.ndarray, Q: np.ndarray):
    return _potential_gram(space, m, _gram_checked(space, Q))


def _potential_gram(space: Space, m: np.ndarray, s: np.ndarray):
    """U from an already checked (N, N) Gram matrix s, which it leaves as
    is; for a (..., N, N) stack, the float64 array of each matrix's U."""
    sn, _ = _sn_powers(space, s)
    ctn = s / sn
    _fill_diagonal(ctn, 0.0)
    u = (np.outer(m, m) * ctn).sum(axis=(-2, -1))
    return 0.5 * (u.astype(float) if u.ndim else float(u))


def _potential_rows(space: Space, m: list, s: list) -> float:
    """_potential_gram of one checked Gram matrix held as rows, with the
    masses as Python floats, bit for bit.

    Off the diagonal a checked s puts sigma (1 - s^2) above zero, or at
    +inf on H3, so the root and the division cannot fail; the diagonal's
    zero terms stay in the sum, whose order they shape.
    """
    sigma = space.sigma
    return 0.5 * _add_reduce([
        0.0 if i == j else mi * mj * (v / math.sqrt(sigma * (1.0 - v * v)))
        for i, (mi, row) in enumerate(zip(m, s))
        for j, (mj, v) in enumerate(zip(m, row))])


def _grad_U_rows(space: Space, m: list, q: list, s: list) -> list:
    """_ForceKernel.grad of the rows q from the Gram matrix s (rows) that
    their point check built, bit for bit; returns tuples.

    The weights m_i m_j / sn^3 are _ForceKernel's expressions, and each row
    sum of w s is taken in numpy's order (_add_reduce).  The product w @ q
    stays a numpy call, since BLAS may round it with fused multiply-adds.
    """
    sigma = space.sigma
    w = []
    for i, (mi, row) in enumerate(zip(m, s)):
        wi = [0.0] * len(m)
        for j, (mj, v) in enumerate(zip(m, row)):
            if i != j:
                sn = math.sqrt(sigma * (1.0 - v * v))
                wi[j] = mi * mj / (sn * sn * sn)
        w.append(wi)
    wq = (np.array(w) @ np.array(q)).tolist()
    out = []
    for wi, row, (x0, x1, x2, x3), (f0, f1, f2, f3) in zip(w, s, q, wq):
        ws = _add_reduce([a * b for a, b in zip(wi, row)])
        out.append((f0 - ws * x0, f1 - ws * x1, f2 - ws * x2, f3 - ws * x3))
    return out


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

    def grad(self, Q: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
        """grad U of Q; a singular pair raises what _gram_checked raises.
        s is the Gram matrix that a point check of Q (_check_points)
        returned, which grad then takes instead of rebuilding it."""
        if s is None:
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


# Up to this many bodies the stepper runs whole RK4 steps in Python floats:
# a few dozen numpy calls on (N, 4) arrays per step cost more than the
# O(N^2) work itself.  On a 2-vCPU Xeon a float step takes about 45 / 70 /
# 90 us at N = 2 / 3 / 4 against 210-235 us for an array step; the two
# meet near N = 8.  find_cc's row descent takes the same bound.  It is the
# array descent bit for bit only while _potential_rows sums at most 128
# terms (_add_reduce), N <= 11: at N = 12 its U differs from the array U on
# 75 of 200 random H3 Gram matrices.  From N = 12 it is also no faster: an
# H3 descent capped at 60 steps takes 0.9-1.0x the array time at N = 12,
# 1.7-2.0x at 20 and 3.7-4.7x at 40.
_PAIR_LOOP_MAX_N = 4

# The float stepper hands visit its states this many steps at a time, so a
# run holds O(_BLOCK_STEPS) states, not O(steps), and visit's numpy calls
# are paid once per block.
_BLOCK_STEPS = 64


class _PairKernel:
    """Whole RK4 steps of a few bodies in Python floats, in the frame
    co-moving with exp(t xi) when a generator xi is given.

    A state is a list of N rows of four floats.  Each unordered pair's s,
    singular-pair test, sn^3 and weight w = m_i m_j / sn^3 are computed
    once, in _ForceKernel's expressions, and the force is added to both
    bodies; the forces differ from its BLAS sums by rounding only.  A
    singular pair raises SingularPairError(i, j, s) for the first such pair
    i < j, judged by this loop's own s.  The rest is the array stepper's
    arithmetic operation for operation, so bit for bit: the stage sums,
    the velocities and velocity term, the co-moving term (_frame_layers),
    the reprojection and the tangent projection.
    """

    def __init__(self, space: Space, m: np.ndarray, xi=None):
        self.space = space
        self.sigma = float(space.sigma)
        self.mw = float(space.metric_diagonal[3])
        self.m = [float(v) for v in m]
        self.pairs = [(i, j, self.m[i] * self.m[j])
                      for i, j in combinations(range(len(m)), 2)]
        self.lo, self.hi = _singular_bounds(space)
        self.layers = _frame_layers(np.zeros((4, 4)) if xi is None else xi)

    def rates(self, q: list, p: list):
        """(dq/dt, dp/dt) of the equations of motion at one state (q, p),
        in the co-moving frame when the kernel has a generator."""
        sigma, mw, lo, hi = self.sigma, self.mw, self.lo, self.hi
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
        (c0, k0), (c1, k1), (c2, k2), (c3, k3) = self.layers[0]
        dq, dp = [], []
        for y, z, fi, ci, mi in zip(q, p, f, c, self.m):
            x0, x1, x2, x3 = y
            v0, v1, v2, v3 = z[0] / mi, z[1] / mi, z[2] / mi, z[3] / mi
            # (grad U)_i - sigma m_i <v_i, v_i> q_i, grouped as _ForceKernel,
            # then the co-moving terms
            u = sigma * (mi * (v0 * v0 + v1 * v1 + v2 * v2 + mw * v3 * v3))
            dq.append((v0 - (y[c0] * k0 + 0.0), v1 - (y[c1] * k1 + 0.0),
                       v2 - (y[c2] * k2 + 0.0), v3 - (y[c3] * k3 + 0.0)))
            dp.append((fi[0] - ci * x0 - u * x0 - (z[c0] * k0 + 0.0),
                       fi[1] - ci * x1 - u * x1 - (z[c1] * k1 + 0.0),
                       fi[2] - ci * x2 - u * x2 - (z[c2] * k2 + 0.0),
                       fi[3] - ci * x3 - u * x3 - (z[c3] * k3 + 0.0)))
        for layer in self.layers[1:]:
            dq, dp = _less_layer(layer, q, dq), _less_layer(layer, p, dp)
        return dq, dp

    def step(self, q: list, p: list, dt: float, half: float, sixth: float):
        """One RK4 step plus projection from (q, p); half = 0.5 dt and
        sixth = dt / 6, as _rk4 hoists them."""
        rates = self.rates
        k1q, k1p = rates(q, p)
        k2q, k2p = rates(_axpy(q, half, k1q), _axpy(p, half, k1p))
        k3q, k3p = rates(_axpy(q, half, k2q), _axpy(p, half, k2p))
        k4q, k4p = rates(_axpy(q, dt, k3q), _axpy(p, dt, k3p))
        q = _rk4_sum(q, sixth, k1q, k2q, k3q, k4q)
        p = _rk4_sum(p, sixth, k1p, k2p, k3p, k4p)
        if not all(map(math.isfinite, chain(*q, *p))):
            raise OffShellError("non-finite state")
        q = _reproject_rows(self.space, q)
        return q, _tangent_rows(self.space, q, p)


def _frame_layers(xi) -> list:
    """The nonzero entries of a 4 x 4 generator xi, as layers of one
    (column, coefficient) per row, so that (y xi^T)_r is the sum over the
    layers of y[column] * coefficient; a row with fewer entries is padded
    with (r, 0.0).

    Each product is taken plus +0.0, as BLAS's zero-started sum takes it,
    so a generator with at most one nonzero per row (none, a double
    rotation, a rotation-boost) gives the BLAS product's bits, an exact
    zero included.  The parabolic generator has two in some rows, summed
    layer by layer, which may differ from BLAS in the last bit.
    """
    rows = [[(c, float(v)) for c, v in enumerate(row) if v != 0.0] for row in xi]
    depth = max(1, *map(len, rows))
    return [[row[k] if k < len(row) else (r, 0.0) for r, row in enumerate(rows)]
            for k in range(depth)]


def _less_layer(layer, y: list, d: list) -> list:
    """The rows d less the co-moving term of one further layer on y."""
    (c0, k0), (c1, k1), (c2, k2), (c3, k3) = layer
    return [(a0 - (r[c0] * k0 + 0.0), a1 - (r[c1] * k1 + 0.0),
             a2 - (r[c2] * k2 + 0.0), a3 - (r[c3] * k3 + 0.0))
            for (a0, a1, a2, a3), r in zip(d, y)]


def _axpy(x: list, h: float, k: list) -> list:
    """The rows x + h k, as the array x + h * k rounds them; with h = -g,
    as x - g * k rounds them, since -(g k) and x + -y are exact."""
    return [(a0 + h * b0, a1 + h * b1, a2 + h * b2, a3 + h * b3)
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(x, k)]


def _rk4_sum(x: list, sixth: float, k1, k2, k3, k4) -> list:
    """The rows x + sixth (k1 + 2 k2 + 2 k3 + k4), in the array order."""
    return [(x0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
             x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
             x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
             x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3))
            for (x0, x1, x2, x3), (a0, a1, a2, a3), (b0, b1, b2, b3),
            (c0, c1, c2, c3), (d0, d1, d2, d3) in zip(x, k1, k2, k3, k4)]


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
    """conserved()'s seven values, in the dtype of Q and P: shape (7,) for
    one (N, 4) state, (..., 7) for a (..., N, 4) stack.

    The order is ConservedSet's.  Only the potential comes back rounded to
    float64, as _potential_raw returns it.  A stack gives each state's
    values bit for bit.
    """
    kin = 0.5 * ((P * P * space.metric_diagonal).sum(axis=-1) / m).sum(axis=-1)
    omegas = [(P[..., a] * Q[..., b] - Q[..., a] * P[..., b]).sum(axis=-1)
              for a, b in combinations(range(4), 2)]
    return np.stack([kin - _potential_raw(space, m, Q), *omegas], axis=-1)


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


def _encounter(exc: Exception, t: float) -> SingularEncounterError:
    """The SingularEncounterError for exc, met in the step that starts at
    time t or in the state it starts from; raise it from exc."""
    if isinstance(exc, SingularPairError):
        return SingularEncounterError(
            f"singular pair ({exc.i}, {exc.j}) near t = {t:.6g}")
    return SingularEncounterError(
        f"step left the resolvable region near t = {t:.6g}: {exc}")


def _rk4(space: Space, m: np.ndarray, Q, P, dt: float, steps: int, visit,
         xi=None) -> None:
    """Fixed-step RK4 plus projection of masses m from the state (Q, P).

    With a generator xi the equations of motion are integrated in the frame
    co-moving with exp(t xi): each stage subtracts (Q xi^T, P xi^T).  After
    each step the positions are rescaled onto the manifold and the momenta
    re-projected onto tangent spaces.  visit(k, Qs, Ps) receives the states
    after steps k + 1, ..., k + B as (B, N, 4) stacks, in step order.

    N alone picks the arithmetic.  Up to _PAIR_LOOP_MAX_N bodies
    _PairKernel runs whole steps in Python floats and visit gets blocks of
    up to _BLOCK_STEPS steps; above, _ForceKernel's array stages run and
    visit gets each step alone.  A singular pair, a non-finite state or a
    row that cannot be scaled back, met in a stage or the projection,
    raises SingularEncounterError chained from its cause, once visit has
    seen every state before it; visit's own errors pass through.  Overflow
    and invalid operations raise no RuntimeWarning here: a step of huge dt
    reaches that error through the non-finite values they leave.
    """
    # 0.5 * dt * k already evaluates as (0.5 * dt) * k, so hoisting is bitwise
    half, sixth = 0.5 * dt, dt / 6.0
    failures = (SingularPairError, OffShellError, DegenerateVectorError)
    # one errstate per run, not per step, keeps its cost out of the loop
    with np.errstate(over="ignore", invalid="ignore"):
        if len(m) <= _PAIR_LOOP_MAX_N:
            step = _PairKernel(space, m, xi).step
            q, p = np.asarray(Q).tolist(), np.asarray(P).tolist()
            done = 0
            while done < steps:
                qs, ps, failure = [], [], None
                try:
                    for _ in range(min(_BLOCK_STEPS, steps - done)):
                        q, p = step(q, p, dt, half, sixth)
                        qs.append(q)
                        ps.append(p)
                except failures as exc:
                    failure = exc
                if qs:
                    visit(done, np.array(qs), np.array(ps))
                done += len(qs)
                if failure is not None:
                    raise _encounter(failure, done * dt) from failure
            return
        rhs = _ForceKernel(space, m).rhs
        if xi is not None:
            xiT = np.ascontiguousarray(xi.T)
            kernel_rhs = rhs

            def rhs(Q, P):
                dQ, dP = kernel_rhs(Q, P)
                return dQ - Q @ xiT, dP - P @ xiT

        sigma, met = space.sigma, space.metric_diagonal
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
            except failures as exc:
                raise _encounter(exc, (k - 1) * dt) from exc
            visit(k - 1, Q[None], P[None])


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
    constraints to round-off.  Up to four bodies whole steps run in Python
    floats, forces summed pair by pair; more bodies run the array kernel;
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

    def record(k0, Qs, Ps):
        for k, Q, P in zip(range(k0 + 1, k0 + len(Qs) + 1), Qs, Ps):
            if k % record_every == 0 or k == steps:
                times.append(k * dt)
                qs.append(Q)
                ps.append(P)

    try:
        _rk4(space, m, state.config.points, state.momenta, dt, steps, record)
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
    # tolist() hands over Python floats, whose repr is the field's text
    for t, qs, ps in zip(traj.times.tolist(), traj.positions.tolist(),
                         traj.momenta.tolist()):
        for i, (q, p) in enumerate(zip(qs, ps)):
            lines.append(",".join([repr(t), str(i), *map(repr, q), *map(repr, p)]))
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
