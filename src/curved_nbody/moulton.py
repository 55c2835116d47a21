"""Geodesic central configurations on a single geodesic.

Two settings are covered:

* N bodies on the hyperbolic geodesic H1_xw, embedded as
  ``(sinh theta, 0, 0, cosh theta)``.  For every ordering of the bodies
  there is exactly one central configuration, found by minimizing the
  cotangent potential on a fixed moment-of-inertia level set; the
  certified Hessian shows it is a minimum.  Reversing an ordering gives
  the 180-degree xy-rotation (theta -> -theta) of its configuration, so
  enumeration solves one ordering of each of the N!/2 classes.

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
# One implementation each, in Python floats over math's sinh and cosh; out of
# float range they raise OverflowError or ZeroDivisionError.

def _pair_potential(t, m) -> float:
    """U = sum over i < j of m_i m_j coth(t_j - t_i), t increasing."""
    val = 0.0
    for i in range(len(t) - 1):
        ti, mi = t[i], m[i]
        for j in range(i + 1, len(t)):
            d = t[j] - ti
            val += mi * m[j] * math.cosh(d) / math.sinh(d)
    return val


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


def _rounding_floor(t, lam, m) -> float:
    """The residual dU - lam dI cannot be resolved below this: each row sums
    n terms, so it carries about n ulps of the largest of them.  t increasing."""
    terms = [abs(lam * g) for g in _grad_inertia(t, m)]
    for i, j in itertools.combinations(range(len(t)), 2):
        sh = math.sinh(t[j] - t[i])
        terms.append(m[i] * m[j] / (sh * sh))
    return len(t) * np.finfo(float).eps * max(terms)


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
    t, m = config.thetas, config.masses
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

# The solver's working range for every mass and for c.  Inside it
# c / sum(m) >= 1e-40 / N, which keeps lambda and the Hessian (about
# M^2 (c/M)^-1.5) near 1e100 or below, so Newton's squared norms stay
# finite, and c / min(m) <= 1e40, which keeps every |theta| below 47, so
# cosh 2theta and the cube of sinh of a gap stay finite.
_GEODESIC_RANGE = (1e-20, 1e20)
_DESCENT_MAX_ITER = 50  # steps before the hand-off to Newton
_DESCENT_GTOL = 1e-8     # the projected-gradient norm that ends the descent


def _check_geodesic_range(masses, c):
    lo, hi = _GEODESIC_RANGE
    if not (lo <= masses.min() and masses.max() <= hi):
        raise OutOfRangeError(f"masses must lie in [{lo:g}, {hi:g}] on the "
                              f"geodesic; got {masses.tolist()}")
    if not lo <= c <= hi:
        raise OutOfRangeError(f"size c must lie in [{lo:g}, {hi:g}] on the "
                              f"geodesic; got {c!r}")


def _project_ellipsoid(u, masses, c):
    return u * math.sqrt(c / float(np.sum(masses * u * u)))


def _trial_potential(u, m) -> float:
    """U at u = sinh(theta); +inf where a math call overflows or divides by zero."""
    try:
        return _pair_potential([math.asinh(x) for x in u], m)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _descend_ordered(u, masses, c):
    """Projected gradient descent on {sum m u^2 = c} in u = sinh(theta).

    U itself keeps the ordering: coth d grows without bound as two bodies
    meet, so U rejects every Armijo step toward a collision, and a step that
    jumps past one fails the ordering test.  At most _DESCENT_MAX_ITER steps
    put the iterate where Newton converges; _newton does the rest.

    The loop runs on lists of Python floats, over the pair loops that the
    theta chart also takes its rows from, with math's asinh for theta.  A
    trial whose arithmetic overflows or divides by zero has U = +inf and is
    rejected; a gradient that cannot be formed ends the descent.  Takes and
    returns arrays.
    """
    u, m = u.tolist(), masses.tolist()
    val = _trial_potential(u, m)
    step = 1.0
    for _ in range(_DESCENT_MAX_ITER):
        try:
            t = [math.asinh(x) for x in u]
            g = [gk / math.cosh(tk) for gk, tk in zip(_pair_gradient(t, m), t)]
            gc = [2.0 * mk * uk for mk, uk in zip(m, u)]
            k = (sum(a * b for a, b in zip(g, gc))
                 / sum(b * b for b in gc))
        except (OverflowError, ZeroDivisionError):
            break
        g = [a - k * b for a, b in zip(g, gc)]
        gnorm = math.sqrt(sum(a * a for a in g))
        # a NaN or infinite gradient cannot move the iterate either
        if not _DESCENT_GTOL <= gnorm < math.inf:
            break
        step = min(step * 1.5, 1.0 / max(gnorm, 1e-6))
        for _ in range(60):
            trial = [a - step * b for a, b in zip(u, g)]
            try:
                scale = math.sqrt(c / sum(mk * x * x for mk, x in zip(m, trial)))
            except ZeroDivisionError:
                scale = math.nan  # an all-zero trial; the ordering test fails
            trial = [x * scale for x in trial]
            if all(a < b for a, b in zip(trial, trial[1:])):
                tval = _trial_potential(trial, m)
                if math.isfinite(tval) and tval <= val - 1e-4 * step * gnorm * gnorm:
                    u, val = trial, tval
                    break
            step *= 0.5
        else:
            break
    return np.array(u)


def _theta_chart(masses, c):
    """[dU - lam dI; I - c] in theta as a chart for _newton, with the exact
    Jacobian.  The rows are the float loops', so a trial out of float range
    raises an ArithmeticError, which _newton halves.  A trial that reorders
    two bodies raises SingularPairError: the crossing passes through their
    collision, where cosh d = 1."""
    m = masses.tolist()
    n = len(m)

    def chart(t, lam):
        def jac():
            g_i = np.array([_grad_inertia(t.tolist(), m)])
            hess = hessian_geodesic_h(GeodesicHConfig(t, masses), lam)
            return np.block([[hess, -g_i.T], [g_i, np.zeros((1, 1))]])

        def trial(d):
            t_new, lam_new = t + d[:n], float(lam + d[n])
            if not np.all(np.diff(t_new) > 0.0):
                k = int(np.argmin(np.diff(t_new)))
                raise SingularPairError(k, k + 1, 1.0)
            tl = t_new.tolist()
            f = [a - lam_new * b
                 for a, b in zip(_pair_gradient(tl, m), _grad_inertia(tl, m))]
            return np.array(f + [_inertia(tl, m) - c]), t_new, lam_new

        return trial(np.zeros(n + 1))[0], jac, trial

    return chart


def solve_geodesic_h(masses, c: float, ordering: Optional[Sequence[int]] = None,
                     rng=None) -> GeodesicHConfig:
    """Find the unique geodesic central configuration for one body ordering.

    ``ordering`` lists body indices from most negative to most positive theta;
    the identity ordering is used when omitted.  ``rng`` jitters the initial
    guess (the minimizer is unique per ordering, so all seeds agree).
    """
    masses = check_masses(masses, 2)
    c = check_scalar("size c", c)
    _check_geodesic_range(masses, c)
    n = masses.size
    if ordering is None:
        ordering = tuple(range(n))
    ordering = tuple(int(k) for k in ordering)
    if sorted(ordering) != list(range(n)):
        raise ValueError("ordering must be a permutation of body indices")

    m_sorted = masses[list(ordering)]

    # initial guess: spread in theta, jittered, pushed onto the level set
    base = math.asinh(math.sqrt(c / float(np.sum(masses))))
    t0 = np.linspace(-1.0, 1.0, n) * max(1.0, base)
    if rng is not None:
        t0 = np.sort(rng.uniform(-1.5, 1.5, size=n) * max(1.0, base))
        t0 += np.arange(n) * 1e-3
    u = _descend_ordered(_project_ellipsoid(np.sinh(t0), m_sorted, c), m_sorted, c)

    t = np.arcsinh(u)
    lam = geodesic_lambda(GeodesicHConfig(t, m_sorted))
    t, lam, f, _ = _newton(_theta_chart(m_sorted, c), t, lam,
                           lambda t, lam, f: np.max(np.abs(f)) < 1e-12, 80)
    res = float(np.max(np.abs(f)))
    # tight, heavy configurations have a rounding floor above 1e-10
    if res >= 1e-10 and res >= _rounding_floor(t.tolist(), lam, m_sorted.tolist()):
        raise NoConvergenceError(
            f"geodesic solve stalled at residual {res:.3e} for ordering {ordering}")

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

_EQ19_TOL = 1e-12


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
    relation m1 sin 2theta1 + m2 sin 2theta2 = 0 holds numerically.  The count
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
        if abs(cand.balance_residual()) < _EQ19_TOL and \
                abs(cand.inertia() - c) < _EQ19_TOL * max(1.0, c):
            result.solutions.append(cand)
    return result
