"""Central configurations: residuals, multipliers, classes, and a solver.

A configuration is central when the force function's gradient is parallel
to the gradient of the moment of inertia body by body,

    grad_i U = lambda grad_i I   for all i, one shared lambda,

and special when grad U vanishes outright (possible only on the sphere).
This module evaluates those residuals in several equivalent formulations,
estimates lambda, classifies configurations by the dimension they span,
canonicalizes within the block-isometry equivalence group, and searches
level sets I = c for critical points of U.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DegenerateVectorError,
    NoConvergenceError,
    OffShellError,
    OutOfRangeError,
    SingularApproachError,
    SingularPairError,
    check_masses,
    check_scalar,
)
from .manifold import (
    EPS_MANIFOLD,
    EPS_SINGULAR,
    Space,
    _boost,
    _reproject,
    _rot,
    project_tangent,
)
from . import dynamics
from .dynamics import (
    Configuration,
    _ForceKernel,
    _check_points,
    _compiled_once,
    _fill_diagonal,
    _flat_source,
    _gram_checked,
    _potential_gram,
    _products,
    _reproject_source,
    _rows_source,
    _singular_bounds,
    _sn_powers,
    _sum_source,
    _tangent_source,
    grad_U,
)
from .inertia import _grad_I_raw, _r2_rho2, grad_I, moment_of_inertia

EPS_FLAT = 1e-9    # rank tolerance in classify
EPS_AXIS = 1e-9    # a body this close to the axes uses the special branch
MAX_SUBSET_BODIES = 40  # LevelSetSpec.validate holds two 2^(N/2) sum tables
_FD_STEP = 1e-7   # _fd_jacobian's step, in chart coordinates


class CCClass(enum.Enum):
    GEODESIC = "geodesic"
    SPHERE_S2 = "sphere_s2"
    HYPERBOLIC_H2 = "hyperbolic_h2"
    FULL_S3 = "full_s3"
    FULL_H3 = "full_h3"


@dataclass(eq=False)
class CCReport:
    lam: float
    residual_max: float
    is_special: bool
    cc_class: CCClass
    orth: tuple
    I: float
    U: float
    masses: np.ndarray
    points: np.ndarray
    scale: float  # the _pair_scale both tests were judged against; not in JSON

    def to_json_dict(self) -> dict:
        return {
            "lambda": float(self.lam),
            "residual_max": float(self.residual_max),
            "is_special": bool(self.is_special),
            "class": self.cc_class.value,
            "orth": [float(v) for v in self.orth],
            "I": float(self.I),
            "U": float(self.U),
            "masses": [float(v) for v in self.masses],
            "points": [[float(c) for c in row] for row in self.points],
        }


@dataclass(frozen=True)
class LevelSetSpec:
    """Target moment-of-inertia level I = c and the solver tolerance."""

    c: float
    tol: float = 1e-10

    def validate(self, space: Space, masses) -> None:
        """Refuse masses that are not a positive finite vector (ValueError),
        and with OutOfRangeError a tol or c that is not finite and positive,
        an S3 level outside (0, sum m) or within 1e-9 of a mass subset sum."""
        m = check_masses(masses)
        check_scalar("level c", self.c)
        check_scalar("tolerance tol", self.tol)
        if space is Space.H3:
            return
        total = float(np.sum(m))
        if self.c >= total:
            raise OutOfRangeError(f"spherical I ranges over (0, {total}); got c = {self.c}")
        # I^-1(c) fails to be a smooth manifold exactly at subset sums of
        # the masses, where bodies can pin to the axes.
        if len(m) > MAX_SUBSET_BODIES:
            raise OutOfRangeError(
                f"cannot check c against the mass subset sums of {len(m)} bodies "
                f"(at most {MAX_SUBSET_BODIES} on S3)"
            )
        idx = _subset_sum_near(m, self.c, 1e-9)
        if idx is not None:
            raise OutOfRangeError(
                f"c = {self.c} is within 1e-9 of mass subset sum over {idx}"
            )


def _subset_sums(m: np.ndarray) -> np.ndarray:
    """All 2^len(m) subset sums; bit b of the position selects m[b]."""
    sums = np.zeros(1)
    for v in m:
        sums = np.concatenate([sums, sums + v])
    return sums


def _subset_sum_near(m: np.ndarray, c: float, tol: float):
    """Sorted index tuple of a nonempty subset whose sum lies within tol of
    c, or None.

    Meet in the middle: the subset sums of the second half are sorted once
    and each first-half sum looks up c minus itself by binary search, so the
    cost is 2^(N/2) log, not 2^N.  The lookup window is widened by a
    rounding margin and every candidate is re-checked with the direct sum.
    """
    n = len(m)
    h = n // 2
    left = _subset_sums(m[:h])
    right = _subset_sums(m[h:])
    order = np.argsort(right, kind="stable")
    rs = right[order]
    margin = tol + 1e-12 * (1.0 + abs(c) + float(np.sum(np.abs(m))))
    target = c - left
    lo = np.searchsorted(rs, target - margin, side="left")
    hi = np.searchsorted(rs, target + margin, side="right")
    for a in np.nonzero(hi > lo)[0]:
        for b in order[lo[a]:hi[a]]:
            idx = tuple(k for k in range(h) if (a >> k) & 1) + tuple(
                h + k for k in range(n - h) if (int(b) >> k) & 1
            )
            if idx and abs(c - float(np.sum(m[list(idx)]))) < tol:
                return idx
    return None


# ─── residuals and multiplier ────────────────────────────────────────────


# below this no row of four entries can overflow when squared and summed
_NORM_UNSCALED_MAX = 1e150


def cc_residual(config: Configuration, lam: float):
    """Rows grad_i U - lambda grad_i I and the max Euclidean row norm.

    Rows whose largest entry is huge but finite (a multiplier near 1e300,
    say) are scaled by that entry before the norm, so the squares do not
    overflow; ordinary rows take the plain norm.
    """
    return _cc_residual(grad_U(config) - lam * grad_I(config))


def _cc_residual(R):
    """cc_residual of the rows R = grad U - lambda grad I, already built."""
    big = float(np.max(np.abs(R)))
    if _NORM_UNSCALED_MAX < big < math.inf:
        return R, big * float(np.max(np.linalg.norm(R / big, axis=1)))
    return R, float(np.max(np.linalg.norm(R, axis=1)))


def _pair_scale(config: Configuration, s=None) -> float:
    """The largest pair force m_i m_j / sn^2 d_ij, 1.0 for one body (no
    pair), from the checked Gram matrix s when it is built already."""
    if config.n == 1:
        return 1.0
    s = _gram_checked(config.space, config.points) if s is None else s
    sn2 = config.space.sigma * (1.0 - s * s)
    _fill_diagonal(sn2, 1.0)
    w = np.outer(config.masses, config.masses) / sn2
    _fill_diagonal(w, 0.0)
    return float(w.max())


def _is_cc(rmax: float, scale: float, tol: float) -> bool:
    """The CC test of every check: rmax, the largest row norm of grad U -
    lambda grad I (lambda = 0: special), below tol times _pair_scale, a force
    of the configuration, not |grad U|, which a special CC drives to zero."""
    return rmax < tol * scale


def lambda_estimate(config: Configuration) -> float:
    """The multiplier consistent with the central-configuration equation.

    Ratio-of-sums form: numerator sums m_i m_j [2x_ix_j + 2y_iy_j -
    (r_i^2 + r_j^2) csn d_ij] / sn^3 d_ij over unordered pairs, denominator
    is 2 sum_i m_i r_i^2 rho_i^2.  The denominator vanishing means every
    body sits on the axes, where lambda is undetermined.
    """
    space, m, Q = config.space, config.masses, config.points
    r2, rho2 = _r2_rho2(space, Q)
    den = 2.0 * float(np.sum(m * r2 * rho2))
    if abs(den) <= 1e-12 * float(np.sum(m)):
        raise DegenerateDenominatorError(
            "all bodies on the axes: multiplier undetermined"
        )
    s = _gram_checked(space, Q)
    _, sn3 = _sn_powers(space, s)
    xy = 2.0 * (np.outer(Q[:, 0], Q[:, 0]) + np.outer(Q[:, 1], Q[:, 1]))
    A = xy - (r2[:, None] + r2[None, :]) * s
    W = np.outer(m, m) / sn3
    np.fill_diagonal(W, 0.0)
    return 0.5 * float(np.sum(W * A)) / den


def _lambda_or(config, fallback):
    """lambda_estimate, or fallback where the multiplier is undetermined."""
    try:
        return lambda_estimate(config)
    except DegenerateDenominatorError:
        return fallback


def is_special_cc(config: Configuration, tol: float = 1e-10) -> bool:
    """True when grad U passes the scale-free CC test (_is_cc) at tol."""
    return _is_cc(_cc_residual(grad_U(config))[1], _pair_scale(config), tol)


def criterion_residual(config: Configuration, lam: float) -> np.ndarray:
    """Per-body triple of scalar equations, 3N values in body order.

    Off the axes the triple contracts G_i = grad_i U - lambda grad_i I with
    (x, y, 0, 0), (-y, x, 0, 0) and (0, 0, -w, z): the radial equation in
    force units (the m_i-weighted form) and the two determinant equations.
    A body on the axes (where grad_i I = 0) instead reports three ambient
    components of grad_i U, dropping the one along q_i's largest coordinate.
    """
    return _criterion_rows(config.space, config.points,
                           grad_U(config) - lam * grad_I(config))


def _criterion_rows(space, Q, G):
    """criterion_residual's rows at points Q from G = grad U - lambda grad I."""
    r2, rho2 = _r2_rho2(space, Q)
    on_axes = (
        np.sqrt(r2 * np.abs(rho2)) < EPS_AXIS
        if space is Space.S3
        else np.sqrt(r2) < EPS_AXIS
    )
    x, y, z, w = Q.T
    out = np.stack([G[:, 0] * x + G[:, 1] * y, -G[:, 0] * y + G[:, 1] * x,
                    -G[:, 2] * w + G[:, 3] * z], axis=1)
    for i in np.flatnonzero(on_axes):
        out[i] = np.delete(G[i], np.argmax(np.abs(Q[i])))
    return out.ravel()


def orthogonality_relations(config: Configuration):
    """The four mixed first moments (sum m x z, m x w, m y z, m y w).

    All four vanish at every ordinary central configuration; they are cheap
    necessary conditions and useful sanity checks on solver output.
    """
    m, Q = config.masses, config.points
    return (
        float(np.sum(m * Q[:, 0] * Q[:, 2])),
        float(np.sum(m * Q[:, 0] * Q[:, 3])),
        float(np.sum(m * Q[:, 1] * Q[:, 2])),
        float(np.sum(m * Q[:, 1] * Q[:, 3])),
    )


def classify(config: Configuration, eps_flat: float = EPS_FLAT) -> CCClass:
    """Geodesic / great-2-sphere / full, by bilinear Gram rank of positions."""
    Q = config.points
    G = (Q * config.space.metric_diagonal) @ Q.T
    sv = np.linalg.svd(G, compute_uv=False)
    rank = int(np.sum(sv > eps_flat * max(1.0, sv[0])))
    if rank <= 2:
        return CCClass.GEODESIC
    if rank == 3:
        return CCClass.SPHERE_S2 if config.space is Space.S3 else CCClass.HYPERBOLIC_H2
    return CCClass.FULL_S3 if config.space is Space.S3 else CCClass.FULL_H3


def swap_xy_zw(config: Configuration) -> Configuration:
    """The spherical involution (x, y, z, w) -> (z, w, x, y).

    Maps central configurations to central configurations with the negated
    multiplier, and sends I to (sum of masses) - I.
    """
    if config.space is not Space.S3:
        raise ValueError("the plane-swap involution is an isometry of S3 only")
    return config.with_points(config.points[:, [2, 3, 0, 1]])


def make_report(
    config: Configuration, lam: float | None = None, special_tol: float = 1e-10
) -> CCReport:
    """Assemble the standard report; lambda defaults to lambda_estimate
    (zero when the multiplier is undetermined because all bodies sit on
    the axes).  A lambda given that is not finite raises OutOfRangeError.
    is_special is is_special_cc at special_tol; grad U is built once."""
    GU = grad_U(config)
    lam = (_lambda_or(config, 0.0) if lam is None
           else check_scalar("lambda", lam, positive=False))
    return _report(config, lam, GU, GU - lam * grad_I(config), special_tol)


def _report(config, lam, GU, R, special_tol):
    """make_report's record from grad U and R = grad U - lam grad I, built."""
    s = _gram_checked(config.space, config.points)
    scale = _pair_scale(config, s)
    _, rmax = _cc_residual(R)
    return CCReport(
        lam=float(lam),
        residual_max=rmax,
        is_special=_is_cc(_cc_residual(GU)[1], scale, special_tol),
        cc_class=classify(config),
        orth=orthogonality_relations(config),
        I=moment_of_inertia(config),
        U=_potential_gram(config.space, config.masses, s),
        masses=config.masses,
        points=config.points,
        scale=scale,
    )


# ─── equivalence and canonical form ──────────────────────────────────────


def canonicalize(config: Configuration, eps: float = 1e-9):
    """Rotate/boost within the block group to a canonical representative.

    xy plane: the first body with r_i > eps is turned to y_i = 0, x_i > 0.
    zw plane: on the sphere the first body with rho_i > eps is turned to
    w_i = 0, z_i > 0; on the hyperbolic side the unique boost zeroing the
    mass-weighted sum of z_i w_i is applied (unique because every on-sheet
    body has w > |z|, so the defining equation tanh(2s) = -2 sum(m z w) /
    sum(m (z^2 + w^2)) always has exactly one root).  Idempotent, and
    invariant under pre-composition with any block-group element.

    Returns (canonical_config, transform) with points' = points @ T^T.
    """
    m, Q = config.masses, config.points
    T = np.eye(4)
    r2, rho2 = _r2_rho2(config.space, Q)
    idx = np.nonzero(np.sqrt(r2) > eps)[0]
    if len(idx):
        i = int(idx[0])
        T[:2, :2] = _rot(-math.atan2(Q[i, 1], Q[i, 0]))
    if config.space is Space.S3:
        idx = np.nonzero(np.sqrt(np.abs(rho2)) > eps)[0]
        if len(idx):
            i = int(idx[0])
            T[2:, 2:] = _rot(-math.atan2(Q[i, 3], Q[i, 2]))
    else:
        p = float(np.sum(m * (Q[:, 2] ** 2 + Q[:, 3] ** 2)))
        q = float(np.sum(m * Q[:, 2] * Q[:, 3]))
        s = 0.5 * math.atanh(-2.0 * q / p)
        T[2:, 2:] = _boost(s)
    return config.with_points(Q @ T.T), T


def equivalent(a: Configuration, b: Configuration, tol: float = 1e-8) -> bool:
    """Same labeled configuration up to the block isometry group: masses
    equal to a relative tol, canonical points to an absolute one."""
    if a.space is not b.space or a.n != b.n:
        return False
    if not np.allclose(a.masses, b.masses, rtol=tol, atol=0.0):
        return False
    ca, _ = canonicalize(a)
    cb, _ = canonicalize(b)
    return bool(np.max(np.abs(ca.points - cb.points)) <= tol)


# ─── solver on level sets I = c ──────────────────────────────────────────


def default_seed(masses, space: Space, c: float, rng=None) -> Configuration:
    """A nonsingular starting configuration with I = c exactly.

    Sphere: bodies ring around (0, 0, 1, 0) on the w = 0 great 2-sphere at
    common ring radius sqrt(c / sum m) — points of I^-1(c) exist there for
    every admissible c.  Hyperbolic: bodies spread along the xw geodesic
    with sinh-coordinates rescaled onto the constraint ellipsoid.
    """
    m = np.asarray(masses, dtype=float)
    n = len(m)
    if rng is None:
        rng = np.random.default_rng(0)
    if space is Space.S3:
        rr = math.sqrt(c / float(np.sum(m)))
        zz = math.sqrt(max(0.0, 1.0 - rr * rr))
        phis = 2.0 * math.pi * np.arange(n) / max(n, 1)
        phis = phis + rng.uniform(-0.05, 0.05, n) / max(n, 1)
        pts = np.stack(
            [rr * np.cos(phis), rr * np.sin(phis), np.full(n, zz), np.zeros(n)],
            axis=1,
        )
        return Configuration(space, m, _reproject(space, pts))
    u = np.linspace(-1.0, 1.0, n) if n > 1 else np.array([1.0])
    u = u + rng.uniform(-0.02, 0.02, n)
    u = u * math.sqrt(c / float(np.sum(m * u * u)))
    th = np.arcsinh(u)
    pts = np.stack(
        [np.sinh(th), np.zeros(n), np.zeros(n), np.cosh(th)], axis=1
    )
    return Configuration(space, m, pts)


def _restore_level(space, m, Q, c, max_iter=40):
    """One-dimensional Newton along grad_I to put I back on the level.

    The slope of I along G = grad_I is dI(G) = <G, G>_sigma, so the Newton
    step divides by the sigma-metric norm; the Euclidean sum overshoots it
    by about 1 + 2 r^2 on H3 and makes the iteration merely linear.  Every
    iterate, the returned one too, passes Configuration's point checks.
    Returns (Q, s): the point on the level and the Gram matrix that its
    point check built, from which the descent takes U without recomputing.
    Up to four bodies find_cc restores on rows instead (_RowOps), bit for
    bit, building the Gram matrix only for the iterate it returns.
    """
    for _ in range(max_iter):
        s = _check_points(space, Q)
        split = _r2_rho2(space, Q)
        err = float((m * split[0]).sum()) - c
        if abs(err) <= 1e-13 * max(1.0, abs(c)):
            return Q, s
        G = _grad_I_raw(space, m, Q, split)
        gg = float((G * G * space.metric_diagonal).sum())
        if gg < 1e-30:
            raise NoConvergenceError("cannot restore I = c: grad I vanished")
        step = -err / gg
        Q = _reproject(space, Q + step * G)
    raise NoConvergenceError("level-set restoration stalled")


# what a chart point or a descent trial outside the feasible region raises
_INFEASIBLE = (SingularPairError, OffShellError, DegenerateVectorError)


def _residual_dir(kernel, Q, s):
    """The descent direction at Q: the tangent part of grad U less lam times
    that of grad I, lam their sigma-metric least-squares ratio; s is Q's
    checked Gram matrix.  Returns (R, lam, <R, R>_sigma summed over the
    bodies)."""
    # tangent vectors pair in the sigma metric; on S3 it is the Euclidean
    # sum term for term, so the sphere's arithmetic is unchanged
    space, m, md = kernel.space, kernel.m, kernel.met
    Gu = project_tangent(Q, kernel.grad(Q, s), space)
    Gi = project_tangent(Q, _grad_I_raw(space, m, Q), space)
    gg = float((Gi * Gi * md).sum())
    lam = float((Gu * Gi * md).sum()) / gg if gg > 1e-20 else 0.0
    R = Gu - lam * Gi
    return R, lam, float((R * R * md).sum())


# u = 2^-53 is the unit roundoff.  A sum of the four products a_k b_k, in
# any order and with or without fused multiply-adds, lies within
# gamma_4 sum |a_k b_k| of the exact sum, gamma_4 = 4u / (1 - 4u) (Higham,
# Accuracy and Stability of Numerical Algorithms, section 3.1), so a Gram
# entry summed in floats and the BLAS one lie within 2 gamma_4 sum |a_k b_k|
# of each other.  The row restoration's float pair test asks a pair to
# clear its bounds by twice that, because the test rounds too: its float
# sum of |a_k b_k|, the margin and the distance to the bound each lie
# within a few u of exact, far less than the second half of the margin.
_U_ROUND = sys.float_info.epsilon / 2.0
_PAIR_MARGIN = 2.0 * (2.0 * (4.0 * _U_ROUND / (1.0 - 4.0 * _U_ROUND)))


def _row_ops(kernel, c):
    """The six functions of _row_ops_factory for the space and masses of
    kernel and the level c: the descent's trial, restore, potential and
    direction, then Newton's chart residuals and criterion."""
    space = kernel.space
    make = _row_ops_factory(space, len(kernel.m))
    return make(*kernel.m.tolist(), float(c), float(space.sigma),
                float(space.metric_diagonal[3]), *_singular_bounds(space),
                _PAIR_MARGIN, EPS_MANIFOLD, EPS_AXIS)


@_compiled_once
def _row_ops_factory(space, n):
    """make(m_0.., c, sigma, mw, lo, hi, margin, eps, axis) -> (trial,
    restore, potential, direction, residuals, criterion) for n bodies on
    space, compiled once per process for each (space, n); every float
    reaches the functions as a closure value."""
    namespace = {"space": space, "sqrt": math.sqrt, "copysign": math.copysign,
                 "array": np.array, "_check_points": _check_points,
                 "_products": _products, "_reproject": _reproject,
                 "errstate": np.errstate, "_axis_row": _axis_row,
                 "NoConvergenceError": NoConvergenceError}
    return (_row_ops_source(space, n),
            f"<row descent and chart, {space.value}, N = {n}>", namespace)


def _axis_row(p, g):
    """_criterion_rows' row of a body on the axes at the point p: the
    components of g less the one along p's largest coordinate."""
    k = max(range(4), key=lambda i: abs(p[i]))
    return g[:k] + g[k + 1:]


def _metric_sum_source(n, a, b):
    """The sum of the entries of A * B * metric_diagonal, in C order, for
    the rows a_i_r and b_i_r, as numpy sums them."""
    return _sum_source([f"{a}_{i}_{r} * {b}_{i}_{r}" + (" * mw" if r == 3 else "")
                        for i in range(n) for r in range(4)])


def _mm(i, j):
    """The name of the pair product m_i m_j in make's closure."""
    return f"mm{min(i, j)}_{max(i, j)}"


def _grad_U_source(n, x, s, dst):
    """Source lines for _ForceKernel.grad of the rows x_i_r from their
    checked Gram matrix s_i_j, as dst_i_r: the weights m_i m_j / sn^3 in
    its expressions, each row sum of w s in numpy's order and w @ q the
    BLAS product force (_products).  They use sn, W_i_j, F_i_r and ws{i}
    and need sigma, mm{i}_{j} and force."""
    bodies = range(n)
    lines = []
    for i in bodies:
        for j in bodies:
            if i != j:
                lines += [f"sn = sqrt(sigma * (1.0 - {s}_{i}_{j} * {s}_{i}_{j}))",
                          f"W_{i}_{j} = {_mm(i, j)} / (sn * sn * sn)"]
    return [*lines, *(f"W_{i}_{i} = 0.0" for i in bodies),
            f"{_flat_source('F', n)} = force(({_flat_source('W', n, n)}),"
            f" ({_flat_source(x, n)}))",
            *(f"ws{i} = " + _sum_source([f"W_{i}_{j} * {s}_{i}_{j}" for j in bodies])
              for i in bodies),
            *(f"{dst}_{i}_{r} = F_{i}_{r} - ws{i} * {x}_{i}_{r}"
              for i in bodies for r in range(4))]


def _grad_I_source(n, x, r2, dst):
    """Source lines for _grad_I_raw of the rows x_i_r given their r^2 in
    r2{i}, as dst_i_r; they use rho and need sigma, ns = -sigma and
    tm{i} = 2 m_i."""
    lines = []
    for i in range(n):
        x0, x1, x2, x3 = (f"{x}_{i}_{r}" for r in range(4))
        lines += [f"rho = sigma * ({x2} * {x2}) + {x3} * {x3}",
                  f"{dst}_{i}_0 = tm{i} * ({x0} * rho)",
                  f"{dst}_{i}_1 = tm{i} * ({x1} * rho)",
                  f"{dst}_{i}_2 = tm{i} * (ns * {x2} * {r2}{i})",
                  f"{dst}_{i}_3 = tm{i} * (ns * {x3} * {r2}{i})"]
    return lines


def _check_source(space, n):
    """(shell, check): source lines for _check_points of the rows X_i_r.

    shell takes its shell tests in floats, in its expressions, and sets ok;
    it uses t, e{i} and, on H3, u{i}, and needs sigma, eps and wlo.  check,
    once ok is set, holds the rows as the list q, builds their Gram matrix
    s from BLAS (gram, _products), unpacked as s_i_j, and tests it against
    the singular bounds lo and hi.  Rows that fail a test go to
    _check_points, which raises its error and message from the same
    expressions and the same product.
    """
    bodies = range(n)
    h3 = space is Space.H3
    shell = []
    for i in bodies:
        shell += [f"t = X_{i}_0 * X_{i}_0 + X_{i}_1 * X_{i}_1 + X_{i}_2 * X_{i}_2",
                  f"e{i} = t + X_{i}_3 * X_{i}_3"]
        shell += [f"u{i} = t - X_{i}_3 * X_{i}_3"] if h3 else []
    shell.append("ok = " + " and ".join(
        f"abs({'u' if h3 else 'e'}{i} - sigma) / (e{i} if e{i} > 1.0 else 1.0)"
        f" <= eps" + (f" and X_{i}_3 >= wlo" if h3 else "") for i in bodies))
    in_bounds = " and ".join(f"lo <= s_{i}_{j} <= hi" for i in bodies
                             for j in bodies if i != j) or "True"
    check = [f"q = [{_rows_source('X', n)}]",
             "if not ok:",
             "    _check_points(space, array(q))  # raises",
             f"s = gram({_flat_source('X', n)})",
             f"{_rows_source('s', n, n)} = s",
             f"if not ({in_bounds}):",
             "    _check_points(space, array(q))  # raises"]
    return shell, check


def _row_ops_source(space, n):
    """The source of _row_ops_factory's make for n bodies on space.

    The six functions are _ArrayOps' trial, restore, potential, direction,
    residuals and criterion, written out for n rows of four floats, X_i_r
    the rows of a point and s_i_j its Gram matrix.  Each expression is the
    array code's, and each numpy sum is taken in numpy's order
    (_sum_source), U's with its zero diagonal terms in place; the sums
    of the chart over the frame vectors start from 0.0 and run in index
    order, as _chart_residuals writes them.  So the functions give the
    array code's bits, and every failed check raises the array function's
    error and message.  Three products stay numpy calls, since BLAS may
    round them with fused multiply-adds, the S3 row norms of each
    reprojection, the Gram matrix of each checked point and the w @ Q of
    grad U: make takes them from one _products call, so their buffers are
    allocated once, and each search builds its own functions (_RowOps), so
    no two searches share a buffer.

    restore is _restore_level: each iterate's level error comes first,
    since it needs no Gram matrix.  The iterate on the level takes
    _check_points' tests (_check_source).  Every other iterate takes the
    shell tests and a float pair test that asks each pair to clear both
    bounds by _PAIR_MARGIN sum |a_k b_k|; the BLAS entries, which differ
    from the float sums by less, then clear them too.  Rows that fail a
    test, or a pair inside the margin, go to _check_points, which raises
    its error and message or, for a pair the margin could not clear,
    passes.  Refused rows of a reprojection go to _reproject
    (_reproject_source).

    A chart point is the tuple (q, s, lam, R): its rows, their Gram matrix,
    and the lambda and rows grad U - lambda grad I it was evaluated with,
    both None at a chart origin.  residuals(point, frames, y) evaluates the
    chart point y (an array, lambda last) around the point's rows in the
    tangent frames `frames` and returns (the residual rows as an array, the
    chart point).  criterion(point, lam) returns the stopping test's rows; it
    reuses the point's R when lam is the point's lambda to the bit (equal
    and, should both be zeros, of one sign), and hands the rows of a body
    on the axes to _axis_row.
    """
    bodies = range(n)
    pairs = list(combinations(bodies, 2))
    h3 = space is Space.H3
    X, S = _rows_source("X", n), _rows_source("s", n, n)
    shell, check = _check_source(space, n)

    def each_row(line):
        return [line.format(i=i, r=r) for i in bodies for r in range(4)]

    def block(lines, depth=2):
        return ["    " * depth + line for line in lines]

    r2 = [f"r{i} = X_{i}_0 * X_{i}_0 + X_{i}_1 * X_{i}_1" for i in bodies]
    stationarity = [*_grad_U_source(n, "X", "s", "A"),
                    *_grad_I_source(n, "X", "r", "G"),
                    "h = -lam",
                    *each_row("R_{i}_{r} = A_{i}_{r} + h * G_{i}_{r}")]

    trial = [f"{X} = q", f"{_rows_source('R', n)} = R", "h = -gamma",
             *each_row("Y_{i}_{r} = X_{i}_{r} + h * R_{i}_{r}"),
             *_reproject_source(space, n, "Y", "Z"),
             f"return [{_rows_source('Z', n)}]"]

    pair_test = []
    for i, j in pairs:
        pair_test += [*(f"p{r} = X_{i}_{r} * X_{j}_{r}" for r in range(4)),
                      f"v{i}_{j} = " + ("p3 - p0 - p1 - p2" if h3
                                        else "p0 + p1 + p2 + p3"),
                      f"mg{i}_{j} = margin * (abs(p0) + abs(p1) + abs(p2)"
                      " + abs(p3))"]
    clear = " and ".join(["ok", *(f"v{i}_{j} - lo >= mg{i}_{j} and"
                                  f" hi - v{i}_{j} >= mg{i}_{j}" for i, j in pairs)])
    level = [*r2,
             "err = " + _sum_source([f"m{i} * r{i}" for i in bodies]) + " - c",
             *shell,
             "if abs(err) <= tol:", *block(check, 1), "    return q, s",
             *pair_test,
             f"if not ({clear}):",
             f"    _check_points(space, array([{X}]))  # raises, or clears the pair",
             *_grad_I_source(n, "X", "r", "G"),
             "gg = " + _metric_sum_source(n, "G", "G"),
             "if gg < 1e-30:",
             "    raise NoConvergenceError(\"cannot restore I = c: grad I vanished\")",
             "step = -err / gg",
             *each_row("Y_{i}_{r} = X_{i}_{r} + step * G_{i}_{r}"),
             *_reproject_source(space, n, "Y", "X")]
    restore = [f"{X} = q", "for _ in range(40):", *block(level, 1),
               "raise NoConvergenceError(\"level-set restoration stalled\")"]

    potential = [f"{S} = s", "return 0.5 * " + _sum_source([
        "0.0" if i == j else
        f"{_mm(i, j)} * (s_{i}_{j} / sqrt(sigma * (1.0 - s_{i}_{j} * s_{i}_{j})))"
        for i in bodies for j in bodies])]

    direction = [f"{X} = q", f"{S} = s",
                 *_grad_U_source(n, "X", "s", "A"),
                 *_tangent_source(space, n, "X", "A", "U"),
                 *r2,
                 *_grad_I_source(n, "X", "r", "G"),
                 *_tangent_source(space, n, "X", "G", "V"),
                 "gg = " + _metric_sum_source(n, "V", "V"),
                 "lam = " + _metric_sum_source(n, "U", "V") + " / gg if gg > 1e-20 else 0.0",
                 "h = -lam",
                 *each_row("R_{i}_{r} = U_{i}_{r} + h * V_{i}_{r}"),
                 f"return [{_rows_source('R', n)}], lam, " + _metric_sum_source(n, "R", "R")]

    # _chart_residuals' sums over the frame vectors: each from 0.0, in
    # index order
    frames = ", ".join(f"({_rows_source(f'f{i}', 3)})" for i in bodies)
    residuals = [
        f"{_rows_source('O', n)} = point[0]",
        f"{frames}{',' if n == 1 else ''} = frames",
        f"{''.join(f'y{k}, ' for k in range(3 * n))}lam = y.tolist()",
        *(f"Y_{i}_{r} = O_{i}_{r} + (0.0 + y{3 * i} * f{i}_0_{r}"
          f" + y{3 * i + 1} * f{i}_1_{r} + y{3 * i + 2} * f{i}_2_{r})"
          for i in bodies for r in range(4)),
        *_reproject_source(space, n, "Y", "X"),
        *shell, *check, *r2, *stationarity,
        "return array([" + ", ".join(
            [f"0.0 + f{i}_{k}_0 * R_{i}_0 + f{i}_{k}_1 * R_{i}_1"
             f" + f{i}_{k}_2 * R_{i}_2 + f{i}_{k}_3 * R_{i}_3 * mw"
             for i in bodies for k in range(3)]
            + [_sum_source([f"m{i} * r{i}" for i in bodies]) + " - c"])
        + f"]), (q, s, lam, ({_rows_source('R', n)}))"]

    on_axes = [f"sqrt(r{i} * abs(X_{i}_2 * X_{i}_2 + X_{i}_3 * X_{i}_3))"
               if space is Space.S3 else f"sqrt(r{i})" for i in bodies]
    criterion = [
        "q, s, at, R = point", f"{X} = q", *r2,
        "if R is None or at != lam or copysign(1.0, at) != copysign(1.0, lam):",
        f"    {S} = s", *block(stationarity, 1),
        "else:", f"    {_rows_source('R', n)} = R",
        "out = [" + ", ".join(
            f"R_{i}_0 * X_{i}_0 + R_{i}_1 * X_{i}_1, -R_{i}_0 * X_{i}_1 + R_{i}_1 * X_{i}_0,"
            f" -R_{i}_2 * X_{i}_3 + R_{i}_3 * X_{i}_2" for i in bodies) + "]"]
    for i in bodies:
        criterion += [f"if {on_axes[i]} < axis:",
                      f"    out[{3 * i}:{3 * i + 3}] = _axis_row("
                      f"q[{i}], ({', '.join(f'R_{i}_{r}' for r in range(4))}))"]
    criterion.append("return out")

    masses = ", ".join(f"m{i}" for i in bodies)
    lines = [f"def make({masses}, c, sigma, mw, lo, hi, margin, eps, axis):",
             "    tol = 1e-13 * max(1.0, abs(c))",
             "    wlo = 1.0 - eps",
             "    ns = -sigma",
             *(f"    tm{i} = 2.0 * m{i}" for i in bodies),
             *(f"    mm{i}_{j} = m{i} * m{j}" for i, j in pairs),
             f"    norms, gram, force = _products(space, {n})",
             "    def trial(q, gamma, R):", *block(trial),
             "    def restore(q):", *block(restore),
             "    def potential(s):", *block(potential),
             "    def direction(q, s):", *block(direction),
             "    def residuals(point, frames, y):", *block(residuals),
             "    def criterion(point, lam):", *block(criterion),
             "    return trial, restore, potential, direction, residuals, criterion"]
    return "\n".join(lines) + "\n"


def _descend(ops, Q, s, max_iter):
    """find_cc's projected descent of U on I = c from the restored points Q
    with Gram matrix s: Armijo backtracking, the step grown by 1.3 after
    each accepted trial.  Returns (Q, lam), lam from the last direction.

    ops holds the descent's operations and fixes the arithmetic: rows of
    Python floats (_RowOps), whose Q and s are rows too, or arrays
    (_ArrayOps); the two give the same bits.
    """
    gamma, lam = 0.1, 0.0
    u0 = ops.potential(s)
    for _ in range(max_iter):
        R, lam, rnorm2 = ops.direction(Q, s)
        if math.sqrt(rnorm2) < 1e-6:
            break
        while gamma > 1e-16:
            try:
                Qt, st = ops.restore(ops.trial(Q, gamma, R))
            except (NoConvergenceError, *_INFEASIBLE):
                gamma *= 0.5
                continue
            ut = ops.potential(st)
            if ut <= u0 - 1e-4 * gamma * rnorm2:
                break
            gamma *= 0.5
        else:
            break  # flat to line-search resolution; hand off to Newton
        Q, s, u0 = Qt, st, ut
        gamma = min(gamma * 1.3, 10.0)
    return np.asarray(Q, dtype=float), lam


def _tangent_bases(space, Q):
    """Per-body orthonormal tangent triples (sigma-metric Gram-Schmidt) of
    the (N, 4) array Q, as an (N, 3, 4) array: _tangent_frames' numbers."""
    return np.array(_tangent_frames(space, Q.tolist()))


def _tangent_frames(space, q):
    """Per-body orthonormal tangent triples of the rows q, as lists.

    Body by body, each unit vector e is projected to the tangent space,
    stripped of its components along the vectors already kept, and kept,
    normalized, if its squared norm exceeds 1e-12, until three are kept.
    It runs in Python floats, because at a few bodies numpy's cost per
    call on 4-vectors is many times the arithmetic: one generated
    straight-line function per space (_frame_source).  Each expression is
    inner's or project_tangent's, term for term and in their order, so
    the frames are bitwise those of the same Gram-Schmidt on numpy
    4-vectors.

    Where rounding leaves fewer than three, as on H3 far out (|x| of 1e8
    or more), this raises NoConvergenceError naming the body.
    """
    frame = _frame_factory(space)(space.sigma)
    return [frame(i, *p) for i, p in enumerate(q)]


@_compiled_once
def _frame_factory(space):
    """make(sigma) -> frame(i, p0, p1, p2, p3) for space, compiled once per
    process for each space (_frame_source)."""
    return (_frame_source(space), f"<tangent frame, {space.value}>",
            {"sqrt": math.sqrt, "NoConvergenceError": NoConvergenceError})


def _frame_source(space):
    """The source of _frame_factory's make: frame(i, p0, p1, p2, p3) is
    _tangent_frames' Gram-Schmidt of the row p of body i, written out as a
    tree of keep and drop branches over the unit vectors e0..e3, whose
    coordinates are literals.  A branch that has kept three vectors returns
    them as three lists; one that has tried e3 with fewer kept raises the
    rank-loss NoConvergenceError."""
    pm = "+" if space is Space.S3 else "-"

    def dot(a, b):  # inner(a, b, space), term for term
        return f"{a[0]} * {b[0]} + {a[1]} * {b[1]} + {a[2]} * {b[2]} {pm} {a[3]} * {b[3]}"

    p, v = ["p0", "p1", "p2", "p3"], ["v0", "v1", "v2", "v3"]

    def branch(k, kept):  # from candidate e_k on, with the vectors kept
        if len(kept) == 3:
            return ["return [" + ", ".join(f"[{', '.join(b)}]" for b in kept) + "]"]
        if k == 4:
            return ['raise NoConvergenceError(f"the tangent frame of body {i} lost rank: '
                    f'rounding left {len(kept)} of its 3 directions")']
        # e_k projected to the tangent space, stripped of the kept vectors
        e = ["1.0" if r == k else "0.0" for r in range(4)]
        lines = [f"c = sigma * ({dot(p, e)})", *(f"v{r} = {e[r]} - c * p{r}" for r in range(4))]
        for b in kept:
            lines += [f"c = {dot(b, v)}", *(f"v{r} = v{r} - c * {b[r]}" for r in range(4))]
        b = [f"b{k}_{r}" for r in range(4)]
        keep = ["r = sqrt(nrm)", *(f"{b[r]} = v{r} / r" for r in range(4)),
                *branch(k + 1, [*kept, b])]
        return [*lines, f"nrm = {dot(v, v)}", "if nrm > 1e-12:",
                *("    " + line for line in keep), *branch(k + 1, kept)]

    return "\n".join(["def make(sigma):", "    def frame(i, p0, p1, p2, p3):",
                      *("        " + line for line in branch(0, [])), "    return frame"]) + "\n"


def _chart_residuals(kernel, Q, bases, c, Y):
    """The stationarity system at a stack of chart points around Q.

    kernel is the _ForceKernel of the problem's space and masses.  Row b of
    Y (B, 3N+1) holds three tangent coordinates per body, in the
    frames `bases` (N, 3, 4), and lambda.  Returns the residual rows
    (B, 3N+1), the tangent components of grad U - lambda grad I followed by
    I - c, and the points (B, N, 4).  Each row is bitwise what it is when
    evaluated alone.  When rows leave the feasible region, this raises
    what the first of them raises alone.  grad U takes the Gram matrices
    of the point check, and grad I and the level one r^2 and rho^2.  The
    sums over the frame vectors are written out in the row chart's order
    (_row_ops_source), so they do not depend on how a numpy version orders
    einsum.
    """
    space, m = kernel.space, kernel.m
    n = len(m)
    try:
        X = Y[:, :-1].reshape(len(Y), n, 3, 1)
        # Q + sum_k X_k bases_k: each sum from 0.0, over k in order
        step = 0.0 + X[:, :, 0] * bases[:, 0]
        step += X[:, :, 1] * bases[:, 1]
        step += X[:, :, 2] * bases[:, 2]
        Qx = _reproject(space, Q + step)
        s = _check_points(space, Qx)
    except _INFEASIBLE:
        if len(Y) > 1:
            # each row alone, in order, the last one too: a stack's message
            # can differ from the one its faulty row raises alone
            for y in Y:
                _chart_residuals(kernel, Q, bases, c, y[None])
        raise
    split = _r2_rho2(space, Qx)
    R = kernel.grad(Qx, s) - Y[:, -1, None, None] * _grad_I_raw(space, m, Qx, split)
    # the frame components sum_d bases_d R_d metric_d: from 0.0, over d in
    # order, the first three metric factors (1.0) left out
    R = R[:, :, None, :]
    comps = 0.0 + bases[..., 0] * R[..., 0]
    comps += bases[..., 1] * R[..., 1]
    comps += bases[..., 2] * R[..., 2]
    comps += bases[..., 3] * R[..., 3] * space.metric_diagonal[3]
    lvl = np.sum(m * split[0], axis=-1) - c
    return np.concatenate([comps.reshape(len(Y), -1), lvl[:, None]], axis=1), Qx


def _fd_jacobian(residuals, y):
    """Central-difference Jacobian of residuals (a stack map) at y, with
    step h = _FD_STEP.

    All 2 len(y) probes go in one stack, +h then -h per coordinate, so a
    probe outside the feasible region raises what the first such probe in
    that order raises alone.
    """
    k = len(y)
    Y = np.tile(y, (2 * k, 1))
    idx = np.arange(k)
    Y[2 * idx, idx] += _FD_STEP
    Y[2 * idx + 1, idx] -= _FD_STEP
    G = residuals(Y)[0].reshape(k, 2, -1)
    return ((G[:, 0] - G[:, 1]) / (2.0 * _FD_STEP)).T.copy()


def _newton(chart, x, lam, done, max_iter, damped=False):
    """Newton on a stationarity system, re-charted at each accepted point.

    chart(x, lam) returns (G, jac, trial): the residual rows at the point,
    a callable for their Jacobian in chart coordinates (lambda last), and
    trial(d) -> (G, x, lam) a chart step d away, which raises one of
    _INFEASIBLE outside the feasible region; a trial whose arithmetic
    overflows is infeasible too.  Stops when done(x, lam, G)
    holds; otherwise takes a Newton step (lstsq if J is singular, a
    Levenberg step if damped) backtracked on ||G||_2 by halving to 1e-6.
    Returns (x, lam, G, why): the last accepted point, the rows at that
    point, and None if done accepted it, else why the iteration stopped.
    A NoConvergenceError raised before the first step solve depends on the
    starting point alone, so damping cannot change it; it carries
    at_start = True, one raised later at_start = False.
    """
    mu = 1e-3
    at_start = True
    try:
        G, jac, trial = chart(x, lam)
        for _ in range(max_iter):
            if not np.all(np.isfinite(G)):
                raise NoConvergenceError("refinement residual is not finite")
            if done(x, lam, G):
                return x, lam, G, None
            J = jac()
            if not np.all(np.isfinite(J)):
                raise NoConvergenceError("refinement jacobian is not finite")
            at_start = False
            try:
                if damped:
                    delta = np.linalg.solve(J.T @ J + mu * np.eye(len(G)), -J.T @ G)
                else:
                    try:
                        delta = np.linalg.solve(J, -G)
                    except np.linalg.LinAlgError:
                        delta = np.linalg.lstsq(J, -G, rcond=None)[0]
            except np.linalg.LinAlgError as exc:
                raise NoConvergenceError(
                    f"refinement step solve failed: {exc}") from exc
            base = float(np.linalg.norm(G))
            t = 1.0
            # a trial whose rows or their norm overflow is as infeasible as
            # one off the manifold: numpy raises FloatingPointError where it
            # would have warned, math raises OverflowError or
            # ZeroDivisionError, and the step is halved
            with np.errstate(over="raise"):
                while t >= 1e-6:
                    try:
                        Gt, xt, lt = trial(t * delta)
                        accept = np.linalg.norm(Gt) < (1.0 - 1e-4 * t) * base
                    except (*_INFEASIBLE, ArithmeticError):
                        t *= 0.5
                        continue
                    if accept:
                        break
                    t *= 0.5
                else:  # no trial accepted
                    mu *= 10.0
                    if not damped:
                        return x, lam, G, "refinement step rejected"
                    if mu > 1e8:
                        return x, lam, G, "least-squares refinement stalled"
                    continue
            x, lam = xt, lt
            mu = max(mu / 3.0, 1e-12)
            G, jac, trial = chart(x, lam)
        return x, lam, G, "refinement did not reach tolerance"
    except NoConvergenceError as exc:
        exc.at_start = at_start
        raise


class _ArrayOps:
    """find_cc's operations on (N, 4) arrays for the problem's kernel (the
    _ForceKernel of its space and masses) and level c: the descent's
    restore, U from the restoration's Gram matrix, direction and trial;
    Newton's, at a point that is the array Q itself, the frames at Q, the
    residual rows at one chart point around Q and the criterion rows."""

    def __init__(self, kernel, c):
        self.kernel, self.c = kernel, c

    def restore(self, Q):
        return _restore_level(self.kernel.space, self.kernel.m, Q, self.c)

    def potential(self, s):
        return _potential_gram(self.kernel.space, self.kernel.m, s)

    def direction(self, Q, s):
        return _residual_dir(self.kernel, Q, s)

    def trial(self, Q, gamma, R):
        return _reproject(self.kernel.space, Q - gamma * R)

    def start(self, Q):
        return Q

    def array(self, Q):
        return Q

    def frames(self, Q):
        return _tangent_bases(self.kernel.space, Q)

    def residuals(self, Q, bases, y):
        """(the residual rows, the point) at the chart point y around Q."""
        G, Qx = _chart_residuals(self.kernel, Q, bases, self.c, y[None])
        return G[0], Qx[0]

    def criterion(self, Q, lam):
        space, m = self.kernel.space, self.kernel.m
        return _criterion_rows(
            space, Q, self.kernel.grad(Q) - lam * _grad_I_raw(space, m, Q))


class _RowOps:
    """_ArrayOps on rows of four Python floats, bit for bit: six of its
    operations are the functions of one _row_ops build (_row_ops_source).

    The descent's points and Gram matrices are rows; a Newton point is a
    chart point tuple (q, s, lam, R), and a chart origin is evaluated
    afresh, since its reprojection can move the accepted point by an ulp.
    Where a trial's arithmetic overflows, numpy raises FloatingPointError
    under _newton's errstate while the floats carry inf on into a failed
    point check; _newton halves the step either way.
    """

    def __init__(self, kernel, c):
        self.kernel, self.c = kernel, c
        (self.trial, self.restore, self.potential, self.direction,
         self.residuals, self.criterion) = _row_ops(kernel, c)

    def start(self, Q):
        return Q.tolist(), _check_points(self.kernel.space, Q).tolist(), None, None

    def array(self, x):
        return np.array(x[0])

    def frames(self, x):
        return _tangent_frames(self.kernel.space, x[0])


def _kkt_newton(ops, Q, lam, tol, max_iter=60, damped=False):
    """Solve the stationarity system on I = c by finite-difference Newton
    from the (N, 4) array Q.

    ops (_RowOps or _ArrayOps) holds the problem's kernel and level c and
    fixes the arithmetic, with the same bits, of the single-point
    evaluations: each chart origin, every backtracking trial and the
    stopping test, which on rows reuses an accepted trial's rows.
    Unknowns: 3 tangent chart coordinates per body plus lambda.  Equations:
    tangent components of grad U - lambda grad I plus the level constraint.
    _newton iterates; damped=True, its Levenberg-style least-squares step,
    is used when starting far out.  The stopping test takes the criterion
    residual on the raw points: each one has passed the point checks,
    the hand-off point in find_cc and every chart point in _chart_residuals.

    The finite-difference Jacobian's 2 (3N + 1) probes run as one array
    stack with either ops.  A tangent frame that rounding leaves short of
    rank raises NoConvergenceError.
    """
    kernel, c = ops.kernel, ops.c
    n = len(kernel.m)

    def chart(x, lam):
        frames = ops.frames(x)
        Q, bases = ops.array(x), np.asarray(frames)
        y = np.zeros(3 * n + 1)
        y[-1] = lam

        def jac():
            try:
                return _fd_jacobian(
                    lambda Y: _chart_residuals(kernel, Q, bases, c, Y), y)
            except _INFEASIBLE as exc:
                raise NoConvergenceError(
                    f"jacobian probe left the feasible region: {exc}"
                ) from exc

        def trial(d):
            G, xt = ops.residuals(x, frames, y + d)
            return G, xt, float(y[-1] + d[-1])

        return ops.residuals(x, frames, y)[0], jac, trial

    def done(x, lam, G):
        crit = ops.criterion(x, lam)
        return np.max(np.abs(crit)) < tol and abs(G[-1]) <= tol * max(1.0, abs(c))

    x, lam, _, why = _newton(chart, ops.start(Q), lam, done, max_iter, damped)
    if why is not None:
        raise NoConvergenceError(why)
    return ops.array(x), lam


# find_cc's self-certificate: the CC test (_is_cc) at this tol
_CERTIFICATE_TOL = 1e-8


def _raise_refinement_error(exc, mode, space, Q):
    """Raise what find_cc reports when its last Newton run from the
    hand-off points Q (an array) raised exc: a singular pair as
    SingularApproachError; in descent mode on S3, a failure from a pair
    next to the antipodal set as SingularApproachError too, since U = sum
    m m cot d falls without bound as d -> pi and the descent can hand
    Newton such a pair; else exc itself."""
    if isinstance(exc, SingularPairError):
        raise SingularApproachError(str(exc)) from exc
    if mode == "descent" and space is Space.S3:
        s = Q @ Q.T
        np.fill_diagonal(s, np.inf)
        i, j = map(int, np.unravel_index(np.argmin(s), s.shape))
        if s[i, j] < -1.0 + 10.0 * EPS_SINGULAR:
            raise SingularApproachError(
                f"refinement failed from the near-antipodal pair ({i}, {j}) at "
                f"sigma-inner product {float(s[i, j])!r}: {exc}") from exc
    raise exc


def find_cc(
    masses,
    space: Space,
    level: LevelSetSpec,
    seed: Configuration | None = None,
    mode: str = "descent",
    rng=None,
    max_iter: int = 2000,
):
    """Find a central configuration on the level set I = c.

    mode="descent" minimizes U over the level set (projected gradient with
    Armijo backtracking, multiplier re-estimated each step) and finishes
    with a Newton refinement of the stationarity system.  That is correct
    where critical points are minima, which fails on S3: the level sets
    contain antipodal pairs, where U = sum m m cot d falls without bound,
    and the descent can dive at them (SingularApproachError).  mode="saddle"
    skips the descent bias and drives the stationarity residual itself to
    zero from the seed, finding non-minimal critical points too.

    One ops object, picked once from N, serves the seed's level
    restoration, the descent and every Newton run: up to four bodies
    (dynamics._PAIR_LOOP_MAX_N), where numpy's cost per call on (N, 4)
    arrays is many times the arithmetic, _RowOps, generated float
    functions (_row_ops_source) that give the array code's bits; above,
    _ArrayOps.  The Newton runs are one sequence: in descent mode an
    undamped run, then a damped one unless the first failed at its
    starting point, where damping changes nothing; in saddle mode one
    damped run of 200 steps.

    Returns (configuration, report) once the criterion rows pass the
    level's tol and the scale-free CC test (_is_cc) at _CERTIFICATE_TOL.
    Raises NoConvergence when iterations run out, the certificate fails, a
    tangent frame loses rank, or the default seed holds a singular pair (far
    out on H3, where rounding leaves the seed's Gram entries meaningless, or
    with masses so large that its bodies coincide), and SingularApproach
    when the iterate degenerates into the singular set (_raise_refinement_error).
    Another mode, or a max_iter that is not an integer >= 0, raises
    ValueError before any search starts.
    """
    if mode not in ("descent", "saddle"):
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0; got {max_iter!r}")
    m = np.asarray(masses, dtype=float)
    level.validate(space, m)
    c = float(level.c)
    if seed is None:
        try:
            seed = default_seed(m, space, c, rng=rng)
        except SingularPairError as exc:
            raise NoConvergenceError(
                f"the default seed holds the singular pair ({exc.i}, {exc.j}): "
                f"sigma-inner product {exc.value!r}") from exc
    if seed.space is not space or len(seed.masses) != len(m):
        raise ValueError("seed does not match the requested problem")
    rows = len(m) <= dynamics._PAIR_LOOP_MAX_N
    ops = (_RowOps if rows else _ArrayOps)(_ForceKernel(space, m), c)
    Q, s = ops.restore(seed.points.tolist() if rows else seed.points)
    if mode == "descent":
        Q, lam = _descend(ops, Q, s, max_iter)
        lam = _lambda_or(Configuration(space, m, Q), lam)
        runs = ({}, {"damped": True})
    else:
        Q, lam = np.asarray(Q, dtype=float), ops.direction(Q, s)[1]
        runs = ({"damped": True, "max_iter": 200},)
    for kw in runs:
        try:
            Q, lam = _kkt_newton(ops, Q, lam, level.tol, **kw)
        except (NoConvergenceError, SingularPairError) as exc:
            error = exc
            # a singular pair ends the search; a failure at the starting
            # point (a frame that lost rank, a Jacobian probe off the
            # feasible region) would repeat as is
            if isinstance(exc, SingularPairError) or getattr(exc, "at_start", False):
                break
        else:
            error = None
            break
    if error is not None:
        _raise_refinement_error(error, mode, space, Q)

    config = Configuration(space, m, Q)
    lam_final = _lambda_or(config, lam)
    GU = grad_U(config)
    R = GU - lam_final * grad_I(config)
    worst = float(np.max(np.abs(_criterion_rows(space, config.points, R))))
    if worst >= level.tol:
        raise NoConvergenceError(f"criterion residual {worst:.3e} above tolerance")
    report = _report(config, lam_final, GU, R, 1e-10)
    # a non-finite lambda leaves a NaN or infinite row, which fails here too
    if not _is_cc(report.residual_max, report.scale, _CERTIFICATE_TOL):
        raise NoConvergenceError(
            f"residual {report.residual_max:.3e} above {_CERTIFICATE_TOL:g} of the "
            f"largest pair force {report.scale:.3e}")
    return config, report
