"""Embedding geometry of the unit curved 3-spheres.

The spherical space S3 sits in R^4 as the quadric x^2+y^2+z^2+w^2 = 1; the
hyperbolic space H3 is the upper sheet (w >= 1) of x^2+y^2+z^2-w^2 = -1 in
Minkowski R^{3,1}.  Both are handled through the curvature sign ``sigma``
(+1 spherical, -1 hyperbolic):

    <p, q>      = p_x q_x + p_y q_y + p_z q_z + sigma p_w q_w
    on-manifold : <q, q> = sigma
    distance    : d = arccos(sigma <p, q>)  or  arccosh(sigma <p, q>)

Formulas elsewhere write the sigma-trig functions sn/csn/ctn (sin/cos/cot
on S3, sinh/cosh/coth on H3) so that one expression serves both spaces.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVectorError,
    OffShellError,
    SingularPairError,
    check_scalar,
)

# Tolerances: EPS_SINGULAR flags collision/antipodal pairs, EPS_MANIFOLD is
# the on-manifold check, and _CLAMP_TOL is how much round-off we silently
# absorb before arccos/arccosh.
EPS_SINGULAR = 1e-9
EPS_MANIFOLD = 1e-10
_CLAMP_TOL = 1e-12


class Space(enum.Enum):
    """Which of the two geometries is in play.

    Each member carries two constants: sigma (+1 on S3, -1 on H3) and
    metric_diagonal, the shared read-only array (1, 1, 1, sigma).  They are
    plain attributes, not properties, because the few-body solvers read
    them thousands of times per search.
    """

    S3 = "S3"
    H3 = "H3"

    def __init__(self, value: str):
        self.sigma = 1 if value == "S3" else -1
        met = np.array([1.0, 1.0, 1.0, float(self.sigma)])
        met.setflags(write=False)
        self.metric_diagonal = met


def inner(p, q, space: Space):
    """Signed bilinear form of two 4-vectors (batched over leading axes).

    Parameters
    ----------
    p, q : array_like, shape (..., 4)
    space : Space

    Returns
    -------
    float or ndarray
        p_x q_x + p_y q_y + p_z q_z + sigma p_w q_w.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] + p[..., 2] * q[..., 2]
    # sigma = +-1 folded into an add or a subtract: a + (-1 * b) is a - b
    # exactly, so this is the sigma-weighted sum bit for bit
    if space is Space.S3:
        out = out + p[..., 3] * q[..., 3]
    else:
        out = out - p[..., 3] * q[..., 3]
    return float(out) if np.ndim(out) == 0 else out


def distance(qi, qj, space: Space) -> float:
    """Geodesic distance between two on-manifold points.

    Raises SingularPairError for coinciding points (both geometries) and
    antipodal points (sphere only), where the potential is undefined.
    Round-off violations of the arccos/arccosh domain below _CLAMP_TOL are
    clamped; anything larger raises OffShellError.
    """
    s = space.sigma * inner(qi, qj, space)
    if space is Space.S3:
        if abs(s - 1.0) < EPS_SINGULAR:
            raise SingularPairError(0, 1, s, f"coinciding points: cos d = {s!r}")
        if abs(s + 1.0) < EPS_SINGULAR:
            raise SingularPairError(0, 1, s, f"antipodal points: cos d = {s!r}")
        if abs(s) > 1.0:
            if abs(s) > 1.0 + _CLAMP_TOL:
                raise OffShellError(f"cos d = {s!r} outside [-1, 1]")
            s = math.copysign(1.0, s)
        return math.acos(s)
    # hyperbolic branch: cosh d >= 1
    if abs(s - 1.0) < EPS_SINGULAR:
        raise SingularPairError(0, 1, s, f"coinciding points: cosh d = {s!r}")
    if s < 1.0:
        if s < 1.0 - _CLAMP_TOL:
            raise OffShellError(f"cosh d = {s!r} outside [1, inf)")
        s = 1.0
    return math.acosh(s)


def project_point(v, space: Space) -> np.ndarray:
    """Scale a raw 4-vector onto the manifold (idempotent on clean input)."""
    v = np.asarray(v, dtype=float)
    if space is Space.S3:
        n = math.sqrt(float(np.dot(v, v)))
        if n < 1e-12:
            raise DegenerateVectorError("cannot normalize a near-zero vector")
        return v / n
    if v[3] <= 0.0:
        raise DegenerateVectorError("hyperbolic points need w > 0 before scaling")
    q = inner(v, v, space)
    if q >= -1e-12:
        raise DegenerateVectorError(
            f"vector with <v, v> = {q!r} cannot reach the w >= 1 sheet"
        )
    return v / math.sqrt(-q)


def _reproject(space, Q):
    """project_point on every row of a (..., 4) stack, bit for bit.

    The S3 row norms come from a stacked matmul of each row with itself,
    which reduces in the order np.dot does.  A row project_point refuses
    raises its error; the first such row in C order is the one reported.
    """
    if space is Space.S3:
        norm = np.sqrt(np.matmul(Q[..., None, :], Q[..., :, None])[..., 0, 0])
        bad = norm < 1e-12
    else:
        norm2 = -inner(Q, Q, space)
        bad = (Q[..., 3] <= 0.0) | (norm2 <= 1e-12)
    if np.any(bad):
        project_point(Q[np.unravel_index(np.argmax(bad), bad.shape)], space)
    if space is Space.H3:
        norm = np.sqrt(norm2)  # only now: a refused row can have norm2 < 0
    return Q / norm[..., None]


def project_tangent(q, v, space: Space) -> np.ndarray:
    """Remove the sigma-normal component of v at base point q.

    Works on single vectors or stacks: q and v of shape (..., 4).  The
    result satisfies inner(q, result) = 0 and the map is idempotent.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    coeff = space.sigma * inner(q, v, space)
    if np.ndim(coeff):
        return v - coeff[..., None] * q
    return v - coeff * q


# ─── one-parameter isometry subgroups ────────────────────────────────────


class GeneratorKind(enum.Enum):
    # rotations in the xy and zw planes at rates alpha, beta (sphere)
    DOUBLE_ROTATION = "double_rotation"
    # xy rotation at rate alpha plus a zw boost at rapidity rate beta (hyperbolic)
    ROTATION_BOOST = "rotation_boost"
    # shear fixing a lightlike direction, rate eta (hyperbolic); no rigid
    # orbits arise from it, kept for completeness and group tests
    PARABOLIC = "parabolic"


@dataclass(frozen=True)
class IsometryGenerator:
    kind: GeneratorKind
    alpha: float = 0.0
    beta: float = 0.0
    eta: float = 0.0

    @property
    def space(self) -> Space:
        return Space.S3 if self.kind is GeneratorKind.DOUBLE_ROTATION else Space.H3

    def matrix_log(self) -> np.ndarray:
        """The 4x4 Lie-algebra element xi with isometry_matrix(g, t) = exp(xi t)."""
        a, b, e = self.alpha, self.beta, self.eta
        if self.kind is GeneratorKind.DOUBLE_ROTATION:
            return np.array(
                [
                    [0.0, -a, 0.0, 0.0],
                    [a, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, -b],
                    [0.0, 0.0, b, 0.0],
                ]
            )
        if self.kind is GeneratorKind.ROTATION_BOOST:
            return np.array(
                [
                    [0.0, -a, 0.0, 0.0],
                    [a, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, b],
                    [0.0, 0.0, b, 0.0],
                ]
            )
        return np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, -e, e],
                [0.0, e, 0.0, 0.0],
                [0.0, e, 0.0, 0.0],
            ]
        )


def _rot(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def _boost(t: float) -> np.ndarray:
    c, s = math.cosh(t), math.sinh(t)
    return np.array([[c, s], [s, c]])


def isometry_matrix(g: IsometryGenerator, t, dtype=float) -> np.ndarray:
    """Closed-form exp(xi t) for the three generator kinds, built at dtype.

    The parabolic generator is nilpotent of order three, so its exponential
    is the exact quadratic polynomial I + xi t + (xi t)^2 / 2; the other two
    are block rotations/boosts.  All three preserve their space's bilinear
    form to machine precision.  Boost entries grow like e^{|beta| t}, so a
    frame whose rounding must stay below that of the state it multiplies
    is built at dtype=np.longdouble.  An array of times gives a (..., 4, 4)
    stack of frames, each the scalar call's bit for bit, at np.longdouble
    and at float64: a scalar time runs through the same numpy trig loops.
    tests/test_manifold.py checks both, float64 for all three kinds at
    random rates and at the record times of simulate.
    """
    t = np.asarray(t, dtype=dtype)
    m = np.zeros(t.shape + (4, 4), dtype=dtype)
    for k in range(4):
        m[..., k, k] = 1.0
    if g.kind is GeneratorKind.PARABOLIC:
        u = dtype(g.eta) * t
        h = u * u / 2.0
        m[..., 1, 2], m[..., 1, 3] = -u, u
        m[..., 2, 1], m[..., 2, 2], m[..., 2, 3] = u, 1.0 - h, h
        m[..., 3, 1], m[..., 3, 2], m[..., 3, 3] = u, -h, 1.0 + h
        return m
    a = dtype(g.alpha) * t
    b = dtype(g.beta) * t
    c, s = np.cos(a), np.sin(a)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = c, -s, s, c
    if g.kind is GeneratorKind.ROTATION_BOOST:
        c, s = np.cosh(b), np.sinh(b)
        m[..., 2, 2], m[..., 2, 3], m[..., 3, 2], m[..., 3, 3] = c, s, s, c
    else:
        c, s = np.cos(b), np.sin(b)
        m[..., 2, 2], m[..., 2, 3], m[..., 3, 2], m[..., 3, 3] = c, -s, s, c
    return m


def rescale_curvature(points, kappa: float, masses=None):
    """Map data from curvature kappa != 0 onto the unit manifold.

    Each input 4-vector must satisfy x^2+y^2+z^2+sign(kappa) w^2 = 1/kappa
    (to relative 1e-8); positions scale by |kappa|^(1/2) and the returned
    time factor |kappa|^(3/4) converts unit-manifold time back to the
    original clock.

    Returns (Configuration, time_factor).  Masses default to ones.
    """
    from .dynamics import Configuration  # local import: avoids a cycle

    check_scalar("curvature |kappa|", abs(kappa))
    space = Space.S3 if kappa > 0 else Space.H3
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
    target = 1.0 / kappa
    for k, p in enumerate(pts):
        val = inner(p, p, space)
        if abs(val - target) > 1e-8 * max(1.0, abs(target)):
            raise OffShellError(
                f"point {k} has <q, q> = {val!r}, expected 1/kappa = {target!r}"
            )
    scaled = math.sqrt(abs(kappa)) * pts
    if masses is None:
        masses = np.ones(len(scaled))
    config = Configuration(space, np.asarray(masses, dtype=float), scaled)
    return config, abs(kappa) ** 0.75
