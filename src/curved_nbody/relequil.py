"""Relative equilibria: rigid orbits generated from central configurations.

Every central configuration spawns a one-parameter family of relative
equilibria: on the sphere the double rotations A_{alpha,beta} with
beta^2 - alpha^2 = 2 lambda, on the hyperbolic side the rotation-boosts
B_{alpha,beta} with alpha^2 + beta^2 = -2 lambda.  Special (gradient-free)
configurations admit beta^2 = alpha^2 members, or any rates at all when
every body also sits on the axes.  The five resulting motion types are the
standard positive elliptic / elliptic-elliptic and negative elliptic /
hyperbolic / elliptic-hyperbolic ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InadmissibleBetaError,
    NotACentralConfigError,
    SingularPairError,
    check_scalar,
)
from .manifold import GeneratorKind, IsometryGenerator, Space, isometry_matrix
from .dynamics import (
    _arccsn,
    _encounter,
    _first_integrals,
    _rk4,
    Configuration,
    Trajectory,
    generator_momenta,
    grad_U,
    step_count,
)
from .inertia import grad_I, _r2_rho2
from .centralconfig import CCReport, _cc_residual, _is_cc, _pair_scale, cc_residual


class REConstraint(enum.Enum):
    # ordinary CC on S3: beta^2 - alpha^2 = 2 lambda
    FIXED_DIFFERENCE = "beta_sq_minus_alpha_sq_eq_2lambda"
    # ordinary CC on H3: alpha^2 + beta^2 = -2 lambda
    FIXED_SUM = "alpha_sq_plus_beta_sq_eq_minus_2lambda"
    # special CC with some body off the axes: beta^2 = alpha^2
    EQUAL_MAGNITUDE = "beta_sq_eq_alpha_sq"
    # special CC with every body on the axes: any rates work
    FREE = "unconstrained"


@dataclass(eq=False)
class REFamily:
    space: Space
    lam: float
    constraint: REConstraint
    config: Configuration
    report: CCReport | None = None


@dataclass(eq=False)
class REInstance:
    config: Configuration
    generator: IsometryGenerator
    classification: str | None
    lam: float
    periodic: bool | None

    @property
    def alpha(self) -> float:
        return self.generator.alpha

    @property
    def beta(self) -> float:
        return self.generator.beta

    def to_json_dict(self, include_base: bool = False) -> dict:
        out = {
            "alpha": float(self.alpha),
            "beta": float(self.beta),
            "type": self.classification,
            "lambda": float(self.lam),
            "periodic": self.periodic,
        }
        if include_base:
            from .centralconfig import make_report

            out["base"] = make_report(self.config, self.lam).to_json_dict()
        return out


def re_family_from_cc(
    report: CCReport, config: Configuration, tol: float = 1e-8
) -> REFamily:
    """Derive the admissible rate constraint from a verified CC.

    Raises NotACentralConfig when the residual at report.lam fails the
    scale-free CC test (centralconfig._is_cc) at tol, or when a claimed
    hyperbolic CC has lambda >= 0 or claims to be special (neither can
    happen for true hyperbolic CCs).  FREE: grad I / 2 m_i below tol too.
    """
    check_scalar("tolerance tol", tol)
    _, rmax = cc_residual(config, report.lam)
    if not _is_cc(rmax, scale := _pair_scale(config), tol):
        raise NotACentralConfigError(
            f"residual {rmax:.3e} at lambda = {report.lam} exceeds {tol} of the "
            f"largest pair force {scale:.3e}"
        )
    if config.space is Space.H3 and (report.is_special or report.lam >= 0.0):
        raise NotACentralConfigError(
            "hyperbolic central configurations always have lambda < 0"
        )
    if report.is_special:
        _, gi = _cc_residual(grad_I(config) / (2.0 * config.masses[:, None]))
        free = _is_cc(gi, 1.0, tol)
        constraint = REConstraint.FREE if free else REConstraint.EQUAL_MAGNITUDE
        lam = 0.0
    elif config.space is Space.S3:
        constraint, lam = REConstraint.FIXED_DIFFERENCE, report.lam
    else:
        constraint, lam = REConstraint.FIXED_SUM, report.lam
    return REFamily(config.space, lam, constraint, config, report)


def _rational_sqrt(v: Fraction):
    if v < 0:
        return None
    rn, rd = math.isqrt(v.numerator), math.isqrt(v.denominator)
    if rn * rn == v.numerator and rd * rd == v.denominator:
        return Fraction(rn, rd)
    return None


def _classify_rates(space: Space, alpha: float, beta: float) -> str | None:
    if alpha == 0.0 and beta == 0.0:
        return None
    if space is Space.S3:
        return "positive elliptic-elliptic" if alpha and beta else "positive elliptic"
    if alpha and beta:
        return "negative elliptic-hyperbolic"
    return "negative elliptic" if alpha else "negative hyperbolic"


def pick_member(family: REFamily, beta, alpha=None) -> REInstance:
    """Resolve one member of the family from its free rate beta.

    alpha is derived from the constraint (nonnegative by convention); the
    extra alpha argument applies only to unconstrained families.  The
    periodic flag is decided once alpha is known: on H3 it is beta == 0,
    since any boost component is unbounded; on S3 single rotations, fixed
    points and equal-magnitude members always close up; otherwise alpha/beta
    must be rational, which is decided with exact arithmetic when the rates
    are given exactly (int or Fraction beta, the stored lambda interpreted
    exactly as stored, or both rates of a free family); else the flag is
    None.  Raises OutOfRangeError for a family lambda that is not finite,
    as make_report does, and InadmissibleBetaError when the constraint
    excludes beta by more than 4 ulps of 2|lambda| (the rounding of beta^2
    is under 2) or a rate is not finite.
    """
    check_scalar("lambda", family.lam, positive=False)
    b = float(beta)
    lam = family.lam
    constraint = family.constraint
    if constraint is REConstraint.FIXED_DIFFERENCE:
        a_sq = b * b - 2.0 * lam
        if b * b < 2.0 * lam * (1.0 - 2.0**-50):
            raise InadmissibleBetaError(
                f"beta^2 = {b * b} is below 2*lambda = {2 * lam}"
            )
        a = math.sqrt(max(0.0, a_sq))
    elif constraint is REConstraint.FIXED_SUM:
        a_sq = -2.0 * lam - b * b
        if b * b > -2.0 * lam * (1.0 + 2.0**-50):
            raise InadmissibleBetaError(
                f"beta^2 = {b * b} exceeds -2*lambda = {-2 * lam}"
            )
        a = math.sqrt(max(0.0, a_sq))
    elif constraint is REConstraint.EQUAL_MAGNITUDE:
        a = abs(b)
    else:  # FREE
        a = abs(float(alpha)) if alpha is not None else 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InadmissibleBetaError(f"rates must be finite; got ({a}, {b})")
    if family.space is Space.H3:
        periodic = b == 0.0
    elif a == 0.0 or b == 0.0 or constraint is REConstraint.EQUAL_MAGNITUDE:
        periodic = True
    elif constraint is REConstraint.FIXED_DIFFERENCE and _exact(beta):
        periodic = _rational_sqrt(Fraction(beta) ** 2 - 2 * Fraction(lam)) is not None
    elif constraint is REConstraint.FREE and _exact(beta) and _exact(alpha):
        periodic = True
    else:
        periodic = None
    kind = (GeneratorKind.DOUBLE_ROTATION if family.space is Space.S3
            else GeneratorKind.ROTATION_BOOST)
    return REInstance(
        config=family.config,
        generator=IsometryGenerator(kind, a, b),
        classification=_classify_rates(family.space, a, b),
        lam=lam,
        periodic=periodic,
    )


def _exact(rate) -> bool:
    return isinstance(rate, (int, Fraction)) and not isinstance(rate, bool)


def re_criterion_residual(
    config: Configuration, alpha: float, beta: float
) -> np.ndarray:
    """Rows of the direct rigid-orbit criterion, one 4-vector per body.

    Sphere:      grad_i U - m_i (beta^2 - alpha^2) (x rho^2, y rho^2, -z r^2, -w r^2)
    Hyperbolic:  grad_i U + m_i (alpha^2 + beta^2) (x rho^2, y rho^2,  z r^2,  w r^2)

    with r^2 = x^2 + y^2 and rho^2 = sigma z^2 + w^2.  All rows vanish iff
    rigid motion at rates (alpha, beta) solves the equations of motion.
    """
    Q = config.points
    m = config.masses
    r2, rho2 = _r2_rho2(config.space, Q)
    block = np.empty_like(Q)
    block[:, 0] = Q[:, 0] * rho2
    block[:, 1] = Q[:, 1] * rho2
    if config.space is Space.S3:
        block[:, 2] = -Q[:, 2] * r2
        block[:, 3] = -Q[:, 3] * r2
        coeff = m * (beta * beta - alpha * alpha)
    else:
        block[:, 2] = Q[:, 2] * r2
        block[:, 3] = Q[:, 3] * r2
        coeff = -m * (alpha * alpha + beta * beta)
    return grad_U(config) - coeff[:, None] * block


def certify_rigidity(instance: REInstance, horizon: float = 10.0, dt: float = 1e-3):
    """Integrate the instance and measure how rigid the orbit stays.

    Momenta start as m_i (xi q_i).  Integration runs in the frame co-moving
    with the generator: the substitution q = exp(t xi) y leaves the equations
    of motion unchanged (the force law is equivariant under isometries) and
    turns a rigid orbit into a fixed point, so the reported numbers measure
    failure of rigidity rather than integrator error accumulated along an
    unbounded group orbit.  Mutual distances are isometry-invariant and are
    read off the co-moving state directly.  `simulate` writes its
    trajectory from this same run, mapped back by exp(t xi).

    Returns (max_distance_drift, conserved_drift): the largest
    |d_ij(t) - d_ij(0)| over steps and pairs, and the largest drift among
    energy and the six omegas of the reconstructed ambient states.  The
    steps are integrate's: a singular pair or a step leaving the manifold
    raises SingularEncounterError, which here carries no partial trajectory.
    A horizon or dt that step_count refuses raises OutOfRangeError before
    any step is taken.
    """
    drift, cons, _ = _comoving_run(instance, horizon, dt, record=False)
    return drift, cons


def _comoving_run(instance: REInstance, horizon: float, dt: float, record: bool):
    """certify_rigidity's run, returning (drift, conserved_drift, trajectory).

    With record, the trajectory keeps the records integrate would keep at
    record_every = max(1, steps // 1000): the start, every record_every-th
    step and the last.  Each co-moving state (Y, Z) is mapped back to the
    ambient (Y R^T, Z R^T) with R = exp(t xi), so the rows follow the orbit
    the certificate measured; one stacked isometry_matrix call builds every
    R, the per-time frames bit for bit.  Without record the trajectory is
    None.
    """
    steps = step_count(horizon, dt)
    cfg = instance.config
    space = cfg.space
    m = cfg.masses
    met = space.metric_diagonal
    g = instance.generator
    Y = cfg.points
    Z = generator_momenta(cfg, g)
    stride = max(1, steps // 100)
    every = max(1, steps // 1000)
    times, ys, zs = [0.0], [Y], [Z]

    iu = np.triu_indices(cfg.n, 1)
    ld = np.longdouble
    ml = m.astype(ld)

    def distances(Ys):
        s = space.sigma * ((Ys * met) @ Ys.swapaxes(-1, -2))[..., iu[0], iu[1]]
        return _arccsn(space, s)

    def integrals(ks, Ys, Zs):
        # the ambient states (Y R^T, Z R^T) in extended precision: boost
        # entries of R grow like e^{|beta| t}, and at large rapidity the
        # omega products cancel huge coordinates down to O(1) values, which
        # float64 cannot do below the certification tolerances
        RT = isometry_matrix(g, np.array(ks) * dt, ld).swapaxes(-1, -2)
        vals = _first_integrals(space, ml, Ys.astype(ld) @ RT, Zs.astype(ld) @ RT)
        return vals.astype(float)

    def worst(a):
        # the largest entry of a, skipping each row that holds a NaN, as a
        # running max() over the rows one by one skips it
        return float(np.fmax.reduce(a.max(axis=-1)))

    d0 = distances(Y)
    c0 = integrals([0], Y[None], Z[None])[0]
    drift = 0.0
    cons = 0.0

    def measure(k0, Ys, Zs):
        nonlocal drift, cons
        ks = range(k0 + 1, k0 + len(Ys) + 1)
        if len(d0):
            drift = max(drift, worst(np.abs(distances(Ys) - d0)))
        at = [i for i, k in enumerate(ks) if k % stride == 0 or k == steps]
        if at:
            sampled = [ks[i] for i in at]
            try:
                vals = integrals(sampled, Ys[at], Zs[at])
            except SingularPairError:
                # the first sample in step order that raises alone
                for k, i in zip(sampled, at):
                    try:
                        integrals([k], Ys[i:i + 1], Zs[i:i + 1])
                    except SingularPairError as exc:
                        raise _encounter(exc, (k - 1) * dt) from exc
                raise
            cons = max(cons, worst(np.abs(vals - c0)))
        if record:
            for i, k in enumerate(ks):
                if k % every == 0 or k == steps:
                    times.append(k * dt)
                    ys.append(Ys[i])
                    zs.append(Zs[i])

    _rk4(space, m, Y, Z, dt, steps, measure, g.matrix_log())
    if not record:
        return drift, cons, None
    ts = np.array(times)
    RT = isometry_matrix(g, ts).swapaxes(-1, -2)
    traj = Trajectory(space, m, ts, np.array(ys) @ RT, np.array(zs) @ RT)
    return drift, cons, traj
