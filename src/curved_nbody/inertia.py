"""Moment of inertia about the zw circle/branch and related quantities.

For a point (x, y, z, w) the cylindrical split r^2 = x^2 + y^2,
rho^2 = sigma z^2 + w^2 satisfies r^2 + sigma rho^2 = sigma, and

    I(q) = sum_i m_i (x_i^2 + y_i^2)

is both the natural analogue of the planar moment of inertia and, by the
axis-distance identity, sum_i m_i sn^2 d(q_i, M1_zw).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ZeroGeneratorError
from .manifold import Space
from .dynamics import Configuration


class CylindricalSplit(NamedTuple):
    r: np.ndarray    # (N,) distances from the zw plane, r_i = sqrt(x^2+y^2)
    rho: np.ndarray  # (N,) sqrt(sigma z^2 + w^2); >= 1 on H3, in [0,1] on S3


def cylindrical_split(config: Configuration) -> CylindricalSplit:
    r2, rho2 = _r2_rho2(config.space, config.points)
    return CylindricalSplit(np.sqrt(r2), np.sqrt(np.maximum(rho2, 0.0)))


def _r2_rho2(space: Space, Q: np.ndarray):
    """r^2 and rho^2 of each row of an (N, 4) array or a (..., N, 4) stack."""
    r2 = Q[..., 0] ** 2 + Q[..., 1] ** 2
    rho2 = space.sigma * Q[..., 2] ** 2 + Q[..., 3] ** 2
    return r2, rho2


def moment_of_inertia(config: Configuration) -> float:
    """I = sum_i m_i (x_i^2 + y_i^2); zero iff all bodies sit on M1_zw."""
    r2, _ = _r2_rho2(config.space, config.points)
    return float(np.sum(config.masses * r2))


def grad_I(config: Configuration) -> np.ndarray:
    """Manifold gradient of I, row i = 2 m_i (x rho^2, y rho^2, -sigma z r^2, -sigma w r^2).

    Vanishes exactly for bodies on S1_xy or S1_zw (sphere) / H1_zw
    (hyperbolic), which is what makes some configurations special.
    """
    return _grad_I_raw(config.space, config.masses, config.points)


def _grad_I_raw(space: Space, m: np.ndarray, Q: np.ndarray,
                split=None) -> np.ndarray:
    """grad I of an (N, 4) array or of each configuration of a stack;
    split is _r2_rho2(space, Q) when the caller has already computed it."""
    sigma = space.sigma
    r2, rho2 = _r2_rho2(space, Q) if split is None else split
    out = np.empty_like(Q)
    out[..., 0] = Q[..., 0] * rho2
    out[..., 1] = Q[..., 1] * rho2
    out[..., 2] = -sigma * Q[..., 2] * r2
    out[..., 3] = -sigma * Q[..., 3] * r2
    return 2.0 * m[:, None] * out


def locked_inertia(q, m: float, alpha: float, beta: float, space: Space) -> float:
    """Scalar locked inertia of one body under the (alpha, beta) generator.

    Equal to m <xi q, xi q> / (alpha^2 + beta^2) with xi the double-rotation
    (sigma = +1) or rotation-boost (sigma = -1) generator; evaluated here in
    closed form.
    """
    ab2 = alpha * alpha + beta * beta
    if ab2 == 0.0:
        raise ZeroGeneratorError("locked inertia needs (alpha, beta) != (0, 0)")
    q = np.asarray(q, dtype=float)
    r2 = q[0] ** 2 + q[1] ** 2
    if space is Space.S3:
        return (m * (alpha * alpha - beta * beta) * r2 + m * beta * beta) / ab2
    return m * r2 + m * beta * beta / ab2


def axis_distance_identity(config: Configuration):
    """Evaluate I two independent ways: directly, and as sum m_i sn^2 of the
    distance from each body to the zw circle/branch.

    The nearest point of M1_zw to q = (x, y, z, w) is (0, 0, z, w)/rho with
    csn d = rho; a spherical body with rho = 0 is equidistant (d = pi/2)
    from the whole circle.  Returns (I_direct, I_from_distances).
    """
    space = config.space
    r2, rho2 = _r2_rho2(space, config.points)
    i_direct = float(np.sum(config.masses * r2))
    total = 0.0
    for m, rr2 in zip(config.masses, rho2):
        if space is Space.S3:
            if rr2 < 1e-30:
                d = 0.5 * math.pi
            else:
                d = math.acos(min(1.0, math.sqrt(rr2)))
            total += m * math.sin(d) ** 2
        else:
            d = math.acosh(max(1.0, math.sqrt(rr2)))
            total += m * math.sinh(d) ** 2
    return i_direct, total
