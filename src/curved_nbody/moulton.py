"""Geodesic central configurations on a single geodesic.

Two settings are covered:

* N bodies on the hyperbolic geodesic H1_xw, embedded as
  ``(sinh theta, 0, 0, cosh theta)``.  For every ordering of the bodies
  there is exactly one central configuration, the minimizer of U (convex in
  the gaps) over {I <= c}, found on the convex dual path argmin U + mu I
  and certified by the Hessian.  Reversing an ordering gives its 180-degree
  xy-rotation (theta -> -theta), so enumeration solves one ordering per class.

* Two bodies on the circle S1_xz, embedded as ``(-sin theta, 0, cos theta, 0)``,
  where the count of solutions depends on the size c of the configuration
  and is given in closed form, including a degenerate equal-mass continuum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .centralconfig import _newton
from .dynamics import Configuration
from .errors import (
    NoConvergenceError,
    OutOfRangeError,
    SingularPairError,
    check_masses,
    check_scalar,
)
from .manifold import Space

__all__ = [
    "GeodesicHConfig",
    "GeodesicHSolution",
    "TwoBodySConfig",
    "TwoBodySFamily",
    "TwoBodySResult",
    "hessian_geodesic_h",
    "geodesic_lambda",
    "solve_geodesic_h",
    "enumerate_geodesic_h",
    "solve_two_body_s",
]


# ---------------------------------------------------------------------------
# hyperbolic geodesic: types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicHConfig:
    """Bodies on the geodesic H1_xw, located by oriented distance from (0,0,0,1).

    ``thetas[i]`` is the signed hyperbolic distance of body i from the vertex,
    so the embedded position is ``(sinh theta_i, 0, 0, cosh theta_i)``.
    """

    thetas: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float).reshape(-1)
        masses = check_masses(self.masses, 2)
        if thetas.shape != masses.shape or not np.isfinite(thetas).all():
            raise ValueError("need one finite theta per mass")
        order = np.argsort(thetas)
        gaps = np.diff(thetas[order])
        if np.any(gaps <= 0.0):
            k = int(np.argmin(gaps))
            i, j = int(order[k]), int(order[k + 1])
            # coincident points on the geodesic: cosh(0) = 1
            raise SingularPairError(i, j, 1.0)
        thetas.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "masses", masses)

    @property
    def n(self) -> int:
        return self.thetas.size

    def to_configuration(self) -> Configuration:
        """Embed into the hyperbolic 3-sphere as (sinh t, 0, 0, cosh t) rows."""
        t = self.thetas
        points = np.zeros((t.size, 4))
        points[:, 0] = np.sinh(t)
        points[:, 3] = np.cosh(t)
        return Configuration(Space.H3, self.masses, points)

    def potential(self) -> float:
        return _on_sorted_bodies("potential", _pair_potential, self)

    def inertia(self) -> float:
        return _on_sorted_bodies("inertia", _inertia, self)


@dataclass(frozen=True)
class GeodesicHSolution:
    """One solved ordering: the configuration plus its certification data."""

    ordering: tuple
    config: GeodesicHConfig
    lam: float
    inertia: float
    potential: float
    min_hessian_eig: float


# ---------------------------------------------------------------------------
# hyperbolic geodesic: U, I and their theta gradients
# ---------------------------------------------------------------------------
# One implementation each, in Python floats over math's sinh, cosh and expm1;
# out of float range they raise OverflowError or ZeroDivisionError.

def _pair_excess(t, m) -> float:
    """U - sum of m_i m_j, as 2 m_i m_j / expm1(2d) = m_i m_j (coth d - 1) per
    pair, t increasing: unlike U, it keeps a small change's bits."""
    val = 0.0
    for i in range(len(t) - 1):
        ti, mi = t[i], m[i]
        for j in range(i + 1, len(t)):
            val += 2.0 * mi * m[j] / math.expm1(2.0 * (t[j] - ti))
    return val


def _pair_potential(t, m) -> float:
    """U = sum over i < j of m_i m_j coth(t_j - t_i), t increasing."""
    return sum(a * b for a, b in itertools.combinations(m, 2)) + _pair_excess(t, m)


def _pair_gradient(t, m) -> list:
    """dU/dtheta for increasing t."""
    g = [0.0] * len(t)
    for i in range(len(t) - 1):
        ti, mi = t[i], m[i]
        for j in range(i + 1, len(t)):
            sh = math.sinh(t[j] - ti)
            w = mi * m[j] / (sh * sh)
            g[i] += w
            g[j] -= w
    return g


def _inertia(t, m) -> float:
    """I = sum of m sinh^2 theta, for t in any order."""
    return sum(mk * math.sinh(tk) ** 2 for tk, mk in zip(t, m))


def _grad_inertia(t, m) -> list:
    """dI/dtheta = m sinh 2theta, per body, for t in any order."""
    return [mk * math.sinh(2.0 * tk) for tk, mk in zip(t, m)]


def _multiplier(t, m) -> float:
    """Least-squares lam in dU/dtheta = lam dI/dtheta, t increasing."""
    g_u, g_i = _pair_gradient(t, m), _grad_inertia(t, m)
    return sum(a * b for a, b in zip(g_u, g_i)) / sum(b * b for b in g_i)


def _on_sorted_bodies(what, evaluate, config) -> float:
    """evaluate(t, m) on the bodies in increasing theta, as Python floats;
    OutOfRangeError naming theta where that is not a finite float."""
    order = np.argsort(config.thetas)
    try:
        value = evaluate(config.thetas[order].tolist(), config.masses[order].tolist())
    except ArithmeticError:
        value = math.nan
    if math.isfinite(value):
        return value
    raise OutOfRangeError(f"{what} at theta {config.thetas.tolist()} is out of "
                          f"float range")


def hessian_geodesic_h(config: GeodesicHConfig, lam: float) -> np.ndarray:
    """Constrained second variation D2U - lambda * D2I along the geodesic.

    Off-diagonal entries are -2 m_i m_j cosh d_ij / sinh^3 d_ij; the D2U part
    has zero row sums, and the multiplier contributes -2 lam m_i cosh 2theta_i
    on the diagonal.  At a minimizer with its own lambda (< 0) the matrix is
    positive definite, which certifies the configuration.  Where a step
    of the arithmetic leaves float range (cosh or sinh^3 of a wide gap,
    cosh 2theta of a far body, a gap whose sinh^3 is 0) it raises
    OutOfRangeError naming theta; elsewhere numpy's errstate changes no bit.
    """
    return _hessian(config.thetas, config.masses, lam)


def _hessian(t, m, lam) -> np.ndarray:
    """hessian_geodesic_h's arithmetic on arrays of thetas and masses."""
    d = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(d, 1.0)  # any nonzero gap; the diagonal is cleared below
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            off = -2.0 * np.outer(m, m) * np.cosh(d) / np.sinh(d) ** 3
            np.fill_diagonal(off, 0.0)
            hess = off - np.diag(np.sum(off, axis=1))
            hess -= lam * np.diag(2.0 * m * np.cosh(2.0 * t))
    except FloatingPointError:
        raise OutOfRangeError(f"Hessian at theta {t.tolist()} is out of float "
                              f"range") from None
    return hess


def geodesic_lambda(config: GeodesicHConfig) -> float:
    """Least-squares multiplier matching dU/dtheta = lam * dI/dtheta."""
    return _on_sorted_bodies("lambda", _multiplier, config)


# ---------------------------------------------------------------------------
# hyperbolic geodesic: solver
# ---------------------------------------------------------------------------

# The working range for every mass and for c.  With sum(m) scaled into [1/2, 1)
# it keeps lambda and the Hessian below 1e60 and every |theta| below 47.
_GEODESIC_RANGE = (1e-20, 1e20)
# The certificate that ends the KKT steps and that every solution passes: the
# largest row of dU - lam dI, and |I - c| / c, over the largest term of lam dI
# (at a CC no pair term exceeds N times it); rounding leaves ~N^2 ulps of it.
_CERTIFICATE_TOL = 1e-12
_DUAL_LEVEL_TOL = 1e-6   # |log(I / c)| at which the dual path hands over
_DECREMENT_TOL = 1e-10   # Newton decrement, over U + mu I, that ends a minimization
_MAX_ITER = 200          # Newton steps on the dual path, and on the KKT system
_MAX_LOG_STEP = 10.0     # in log mu; a step of 38 left the Hessian singular


def _dual_objective(t, m, mu) -> float:
    """U + mu I less U's constant far-field part, at t (Python floats); +inf
    where t is not increasing or the arithmetic leaves float range."""
    if not all(a < b for a, b in zip(t, t[1:])):
        return math.inf
    try:
        return _pair_excess(t, m) + mu * _inertia(t, m)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _dual_path(masses, c, t):
    """(theta, lam) with |log(I / c)| <= _DUAL_LEVEL_TOL, from the increasing
    array t, on the path theta(mu) = argmin U + mu I over increasing theta.

    U is convex in the gaps (coth'' > 0), I strictly convex, and both grow
    without bound at the ordered cone's walls and at infinity, so Newton on
    U + mu I, halving a trial of +inf objective, converges from any ordered
    start.  Once its decrement is _DECREMENT_TOL of the objective, one full
    step reaches theta(mu), where the next mu's minimization starts.  There
    dI/dmu = -grad I^T H^-1 grad I < 0: Newton in log mu, bounded by
    _MAX_LOG_STEP and bisecting out of the bracket found so far, moves mu.
    """
    m, tl = masses.tolist(), t.tolist()
    mu = math.hypot(*_pair_gradient(tl, m)) / math.hypot(*_grad_inertia(tl, m))
    lo, hi = -math.inf, math.inf
    for _ in range(_MAX_ITER):
        tl = t.tolist()
        val = _dual_objective(tl, m, mu)
        g_i = np.array(_grad_inertia(tl, m))
        grad = np.array(_pair_gradient(tl, m)) + mu * g_i
        hess = _hessian(t, masses, -mu)
        step = np.linalg.solve(hess, -grad)
        decrement = -float(grad @ step)
        if decrement > _DECREMENT_TOL * val:
            frac = 1.0
            while (trial := _dual_objective((t + frac * step).tolist(), m, mu)) \
                    > val - 0.25 * frac * decrement:
                frac *= 0.5
                if frac < 1e-12:
                    raise NoConvergenceError(f"no descent on U + mu I at mu = {mu!r}")
            t = t + frac * step
            continue
        if _dual_objective((t + step).tolist(), m, mu) < math.inf:
            t = t + step
        inertia = _inertia(t.tolist(), m)
        miss = math.log(inertia / c)
        if abs(miss) <= _DUAL_LEVEL_TOL:
            return t, -mu
        s = math.log(mu)
        lo, hi = (s, hi) if miss > 0.0 else (lo, s)
        s_new = s + miss * inertia / (mu * float(g_i @ np.linalg.solve(hess, g_i)))
        s_new = min(max(s_new, s - _MAX_LOG_STEP), s + _MAX_LOG_STEP)
        if not lo < s_new < hi:
            s_new = 0.5 * (lo + hi)
        mu = math.exp(s_new)
    raise NoConvergenceError(f"I = c not reached in {_MAX_ITER} Newton steps")


def _theta_chart(masses, c):
    """[dU - lam dI; (I - c) w] in theta as a chart for _newton, with the
    exact Jacobian; w = |lam| max|dI| / c weighs the level like the rows in
    the norm that _newton backtracks on.  A trial out of float range raises
    an ArithmeticError, which _newton halves; one that reorders two bodies
    raises SingularPairError: the crossing passes through their collision."""
    m = masses.tolist()
    n = len(m)

    def chart(t, lam):
        g_i = np.array([_grad_inertia(t.tolist(), m)])
        w = abs(lam) * float(np.max(np.abs(g_i))) / c

        def jac():
            hess = _hessian(t, masses, lam)
            return np.block([[hess, -g_i.T], [w * g_i, np.zeros((1, 1))]])

        def trial(d):
            t_new, lam_new = t + d[:n], float(lam + d[n])
            if not np.all(np.diff(t_new) > 0.0):
                k = int(np.argmin(np.diff(t_new)))
                raise SingularPairError(k, k + 1, 1.0)
            tl = t_new.tolist()
            f = [a - lam_new * b
                 for a, b in zip(_pair_gradient(tl, m), _grad_inertia(tl, m))]
            return np.array(f + [(_inertia(tl, m) - c) * w]), t_new, lam_new

        return trial(np.zeros(n + 1))[0], jac, trial

    return chart


def solve_geodesic_h(masses, c: float, ordering: Optional[Sequence[int]] = None,
                     rng=None) -> GeodesicHConfig:
    """Find the unique geodesic central configuration for one body ordering.

    ``ordering`` lists body indices from most negative to most positive theta;
    the identity ordering is used when omitted.  The convex dual path finds
    the configuration, with masses and c divided by the power of two at
    sum(m), which changes no theta; Newton on the KKT system finishes it to
    the relative certificate (_CERTIFICATE_TOL), else NoConvergenceError.
    ``rng`` has no effect: the solve is deterministic.
    """
    masses = check_masses(masses, 2)
    c = check_scalar("size c", c)
    lo, hi = _GEODESIC_RANGE
    if not (lo <= masses.min() and masses.max() <= hi):
        raise OutOfRangeError(f"masses must lie in [{lo:g}, {hi:g}] on the "
                              f"geodesic; got {masses.tolist()}")
    if not lo <= c <= hi:
        raise OutOfRangeError(f"size c must lie in [{lo:g}, {hi:g}] on the "
                              f"geodesic; got {c!r}")
    n = masses.size
    if ordering is None:
        ordering = tuple(range(n))
    ordering = tuple(int(k) for k in ordering)
    if sorted(ordering) != list(range(n)):
        raise ValueError("ordering must be a permutation of body indices")

    e = -math.frexp(float(np.sum(masses)))[1]
    m_sorted, c_scaled = np.ldexp(masses[list(ordering)], e), math.ldexp(c, e)
    m = m_sorted.tolist()

    def done(t, lam, f):  # the certificate on the theta chart's rows
        big = abs(lam) * max(abs(g) for g in _grad_inertia(t.tolist(), m))
        return np.max(np.abs(f)) <= _CERTIFICATE_TOL * big
    u = np.linspace(-1.0, 1.0, n)
    t = np.arcsinh(u * math.sqrt(c_scaled / float(np.sum(m_sorted * u * u))))
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            t, lam = _dual_path(m_sorted, c_scaled, t)
            t, lam, f, _ = _newton(_theta_chart(m_sorted, c_scaled), t, lam,
                                   done, _MAX_ITER)
            if not done(t, lam, f):
                raise NoConvergenceError(f"geodesic solve stalled at rows "
                                         f"{f.tolist()} for ordering {ordering}")
    except (ArithmeticError, ValueError) as exc:  # LinAlgError, math domain errors
        raise NoConvergenceError(f"geodesic solve for ordering {ordering} left "
                                 f"float range: {exc}") from exc
    thetas = np.empty(n)
    thetas[list(ordering)] = t
    return GeodesicHConfig(thetas, masses)


def _solution_record(ordering, config: GeodesicHConfig) -> GeodesicHSolution:
    lam = geodesic_lambda(config)
    eigs = np.linalg.eigvalsh(hessian_geodesic_h(config, lam))
    return GeodesicHSolution(
        ordering=tuple(ordering),
        config=config,
        lam=lam,
        inertia=config.inertia(),
        potential=config.potential(),
        min_hessian_eig=float(eigs[0]),
    )


def enumerate_geodesic_h(masses, c: float):
    """Solve one ordering per mirror class.

    Reversing an ordering produces the 180-degree xy-rotated configuration
    (theta -> -theta), so the N! orderings form exactly N!/2 classes.
    permutations() yields an ordering before its reverse exactly when its
    first index is below its last, so those orderings are solved, in that
    order.  Returns one :class:`GeodesicHSolution` per class.
    """
    masses = check_masses(masses, 2)
    return [_solution_record(p, solve_geodesic_h(masses, c, p))
            for p in itertools.permutations(range(masses.size))
            if p[0] < p[-1]]


# ---------------------------------------------------------------------------
# two bodies on the circle S1_xz
# ---------------------------------------------------------------------------

_EQ19_TOL = 1e-12  # of M = m1 + m2 for the balance, of c for the inertia


@dataclass(frozen=True)
class TwoBodySConfig:
    """A two-body circular central configuration (-sin t, 0, cos t, 0).

    theta1 lies in (0, pi/2); theta2 lies in (pi/2, pi) or (3pi/2, 2pi).
    """

    theta1: float
    theta2: float
    m1: float
    m2: float
    c: float

    def masses(self):
        return np.array([self.m1, self.m2])

    def to_configuration(self) -> Configuration:
        t = np.array([self.theta1, self.theta2])
        points = np.zeros((2, 4))
        points[:, 0] = -np.sin(t)
        points[:, 2] = np.cos(t)
        return Configuration(Space.S3, self.masses(), points)

    def balance_residual(self) -> float:
        """m1 sin 2theta1 + m2 sin 2theta2, zero at a central configuration."""
        return float(self.m1 * math.sin(2.0 * self.theta1)
                     + self.m2 * math.sin(2.0 * self.theta2))

    def inertia(self) -> float:
        return float(self.m1 * math.sin(self.theta1) ** 2
                     + self.m2 * math.sin(self.theta2) ** 2)


@dataclass(frozen=True)
class TwoBodySFamily:
    """Equal-mass degenerate continuum at c = m: theta2 = theta1 + pi/2 or + 3pi/2.

    Every member has d12 = pi/2 and zero potential.
    """

    mass: float
    c: float

    def member(self, theta1: float, branch: int = 0) -> TwoBodySConfig:
        if not 0.0 < theta1 < 0.5 * math.pi:
            raise OutOfRangeError("theta1 must lie in (0, pi/2)")
        if branch not in (0, 1):
            raise ValueError("branch must be 0 (+pi/2) or 1 (+3pi/2)")
        offset = 0.5 * math.pi if branch == 0 else 1.5 * math.pi
        return TwoBodySConfig(theta1, theta1 + offset, self.mass, self.mass, self.c)


@dataclass
class TwoBodySResult:
    solutions: list = field(default_factory=list)
    family: Optional[TwoBodySFamily] = None

    @property
    def count(self):
        return math.inf if self.family is not None else len(self.solutions)


def solve_two_body_s(m1: float, m2: float, c: float) -> TwoBodySResult:
    """All two-body circular central configurations of size c, in closed form.

    sin^2 theta1 = c (m2 - c) / (m1 (M - 2c)) and
    sin^2 theta2 = c (m1 - c) / (m2 (M - 2c)) with M = m1 + m2; a candidate
    survives only if both squares land strictly inside (0, 1) and the balance
    relation m1 sin 2theta1 + m2 sin 2theta2 = 0 and I = c hold to 1e-12 of M
    and of c, so that (a m1, a m2, a c) counts as (m1, m2, c).  The count
    is 2 for c in (0, min m) or (max m, M), 0 between, with an equal-mass
    degenerate continuum at c = m reported as ``family``.
    """
    # Python floats: numpy scalars would warn where this arithmetic
    # overflows to the inf that the range test below refuses
    m1, m2 = check_masses([m1, m2]).tolist()
    c = check_scalar("size c", c)
    total = m1 + m2
    if c >= total:
        raise OutOfRangeError(f"size c must lie below m1 + m2 = {total}; got {c}")

    if math.isclose(m1, m2, rel_tol=1e-12) and math.isclose(c, m1, rel_tol=1e-12):
        return TwoBodySResult(solutions=[], family=TwoBodySFamily(0.5 * (m1 + m2), c))

    den = total - 2.0 * c
    if abs(den) <= 1e-14 * total:
        return TwoBodySResult(solutions=[])

    s1 = c * (m2 - c) / (m1 * den)
    s2 = c * (m1 - c) / (m2 * den)
    eps = 1e-15
    if not (eps < s1 < 1.0 - eps and eps < s2 < 1.0 - eps):
        return TwoBodySResult(solutions=[])

    theta1 = math.asin(math.sqrt(s1))
    a2 = math.asin(math.sqrt(s2))
    result = TwoBodySResult()
    for theta2 in (math.pi - a2, 2.0 * math.pi - a2):
        cand = TwoBodySConfig(theta1, theta2, m1, m2, c)
        if abs(cand.balance_residual()) < _EQ19_TOL * total and \
                abs(cand.inertia() - c) < _EQ19_TOL * c:
            result.solutions.append(cand)
    return result
