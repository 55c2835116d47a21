"""Reference central configurations with known multipliers.

Each constructor builds a configuration whose status is known in closed
form — either special (the force gradient vanishes identically) or ordinary
with an explicit lambda.  Every build re-checks its own expectation before
returning, with the scale-free CC test (centralconfig._is_cc; lambda = 0 if
special), so a fixture in hand is always a verified ground-truth object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .centralconfig import _is_cc, _pair_scale, cc_residual
from .dynamics import Configuration
from .errors import NotACentralConfigError, ParamOutOfDomainError
from .manifold import Space

__all__ = [
    "Fixture",
    "acute_triangle_s1",
    "tetrahedron_s2",
    "pentatope_s3",
    "double_triangle_s3",
    "lagrangian_s2",
    "geodesic_s1_isosceles",
    "geodesic_s1_equilateral",
    "isosceles_s2",
    "lagrangian_h2",
    "geodesic_h1",
    "example1_s3",
    "example2_h3",
    "default_fixtures",
    "FIXTURE_BUILDERS",
]

_BUILD_TOL = 1e-10


@dataclass(frozen=True)
class Fixture:
    """A named configuration with its verified expectation."""

    name: str
    config: Configuration
    is_special: bool
    expected_lambda: Optional[float]  # None when special
    description: str = ""


def _checked(fix: Fixture) -> Fixture:
    """Re-verify the stated expectation; a failing fixture is a hard error."""
    lam = 0.0 if fix.is_special else fix.expected_lambda
    _, worst = cc_residual(fix.config, lam)
    if not _is_cc(worst, _pair_scale(fix.config), _BUILD_TOL):
        raise NotACentralConfigError(
            f"fixture {fix.name}: residual {worst:.3e} at lambda={lam}")
    return fix


# ---------------------------------------------------------------------------
# special configurations on the sphere
# ---------------------------------------------------------------------------

def acute_triangle_s1(alpha: float, beta: float) -> Fixture:
    """Acute scalene triangle on the xy great circle with balancing masses.

    Bodies sit at angles 0, alpha, alpha+beta with masses
    (sin^2 a / sin^2 b, sin^2 a / sin^2(a+b), 1); the force gradient vanishes
    for every admissible (alpha, beta).
    """
    if not (0.0 < alpha < math.pi and 0.0 < beta < math.pi
            and math.pi < alpha + beta < 2.0 * math.pi):
        raise ParamOutOfDomainError(
            "need 0 < alpha < pi, 0 < beta < pi, pi < alpha+beta < 2*pi")
    angles = np.array([0.0, alpha, alpha + beta])
    masses = np.array([
        math.sin(alpha) ** 2 / math.sin(beta) ** 2,
        math.sin(alpha) ** 2 / math.sin(alpha + beta) ** 2,
        1.0,
    ])
    points = np.zeros((3, 4))
    points[:, 0] = np.cos(angles)
    points[:, 1] = np.sin(angles)
    cfg = Configuration(Space.S3, masses, points)
    return _checked(Fixture(
        "acute_triangle_s1", cfg, True, None,
        "three masses on the xy great circle with vanishing force gradient"))


def tetrahedron_s2(m: float = 1.0) -> Fixture:
    """Regular tetrahedron of equal masses inscribed in the xyz 2-sphere."""
    if not (m > 0.0 and np.isfinite(m)):
        raise ParamOutOfDomainError("mass must be positive")
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    points = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 2.0 * s2 / 3.0, -1.0 / 3.0, 0.0],
        [-s6 / 3.0, -s2 / 3.0, -1.0 / 3.0, 0.0],
        [s6 / 3.0, -s2 / 3.0, -1.0 / 3.0, 0.0],
    ])
    cfg = Configuration(Space.S3, np.full(4, float(m)), points)
    return _checked(Fixture(
        "tetrahedron_s2", cfg, True, None,
        "equal-mass regular tetrahedron on the w=0 sphere"))


def pentatope_s3(m: float = 1.0) -> Fixture:
    """Regular 4-simplex of equal masses inscribed in the full 3-sphere."""
    if not (m > 0.0 and np.isfinite(m)):
        raise ParamOutOfDomainError("mass must be positive")
    s3, s5, s6 = math.sqrt(3.0), math.sqrt(5.0), math.sqrt(6.0)
    points = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [-0.25, math.sqrt(15.0) / 4.0, 0.0, 0.0],
        [-0.25, -s5 / (4.0 * s3), s5 / s6, 0.0],
        [-0.25, -s5 / (4.0 * s3), -s5 / (2.0 * s6), s5 / (2.0 * math.sqrt(2.0))],
        [-0.25, -s5 / (4.0 * s3), -s5 / (2.0 * s6), -s5 / (2.0 * math.sqrt(2.0))],
    ])
    cfg = Configuration(Space.S3, np.full(5, float(m)), points)
    return _checked(Fixture(
        "pentatope_s3", cfg, True, None,
        "equal-mass regular pentatope spanning the full 3-sphere"))


def double_triangle_s3(m: float = 1.0) -> Fixture:
    """Two equilateral triangles on the complementary xy and zw great circles."""
    if not (m > 0.0 and np.isfinite(m)):
        raise ParamOutOfDomainError("mass must be positive")
    h = math.sqrt(3.0) / 2.0
    points = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [h, -0.5, 0.0, 0.0],
        [-h, -0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, h, -0.5],
        [0.0, 0.0, -h, -0.5],
    ])
    cfg = Configuration(Space.S3, np.full(6, float(m)), points)
    return _checked(Fixture(
        "double_triangle_s3", cfg, True, None,
        "equal-mass equilateral triangles on complementary great circles"))


# ---------------------------------------------------------------------------
# ordinary configurations with closed-form multipliers, spherical
# ---------------------------------------------------------------------------

def lagrangian_s2(m: float, r: float) -> Fixture:
    """Equilateral triangle of equal masses on a circle of radius r, z > 0."""
    if not (m > 0.0 and np.isfinite(m)):
        raise ParamOutOfDomainError("mass must be positive")
    if not 0.0 < r < 1.0:
        raise ParamOutOfDomainError("need 0 < r < 1")
    z = math.sqrt(1.0 - r * r)
    h = math.sqrt(3.0) / 2.0
    points = np.array([
        [r, 0.0, z, 0.0],
        [-0.5 * r, h * r, z, 0.0],
        [-0.5 * r, -h * r, z, 0.0],
    ])
    lam = -m / (2.0 * math.sqrt(3.0) * r**3 * (1.0 - 0.75 * r * r) ** 1.5)
    cfg = Configuration(Space.S3, np.full(3, float(m)), points)
    return _checked(Fixture(
        "lagrangian_s2", cfg, False, lam,
        "equal-mass equilateral triangle at height z on the w=0 sphere"))


def geodesic_s1_isosceles(m: float, z: float) -> Fixture:
    """Isosceles triple on the xz great circle: apex at the pole, base at height z.

    lambda = -(m / 2r^3)(1/z + 1/(4|z|^3)) changes sign across z = -1/2.
    """
    if not (m > 0.0 and np.isfinite(m)):
        raise ParamOutOfDomainError("mass must be positive")
    if not (-1.0 < z < 1.0) or z == 0.0:
        raise ParamOutOfDomainError("need z in (-1, 0) or (0, 1)")
    r = math.sqrt(1.0 - z * z)
    points = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [r, 0.0, z, 0.0],
        [-r, 0.0, z, 0.0],
    ])
    lam = -(m / (2.0 * r**3)) * (1.0 / z + 1.0 / (4.0 * abs(z) ** 3))
    cfg = Configuration(Space.S3, np.full(3, float(m)), points)
    return _checked(Fixture(
        "geodesic_s1_isosceles", cfg, False, lam,
        "isosceles triple on the xz great circle, apex at the pole"))


def geodesic_s1_equilateral(m1: float, m2: float, m3: float,
                            theta: float) -> Fixture:
    """Three masses equally spaced on the xz great circle at theta + 2*pi*k/3.

    A central configuration only when the masses and phase satisfy
    lambda sin 2theta = -4(m3 - m2)/3 and
    lambda cos 2theta = 4 sqrt(3) (2 m1 - m2 - m3)/9 simultaneously; the
    build-time check rejects inconsistent parameter combinations.
    """
    for m in (m1, m2, m3):
        if not (m > 0.0 and np.isfinite(m)):
            raise ParamOutOfDomainError("masses must be positive")
    a = -4.0 * (m3 - m2) / 3.0
    b = 4.0 * math.sqrt(3.0) * (2.0 * m1 - m2 - m3) / 9.0
    s, c = math.sin(2.0 * theta), math.cos(2.0 * theta)
    lam = (a * s + b * c) / (s * s + c * c)  # least squares on the two relations
    angles = theta + 2.0 * math.pi * np.arange(3) / 3.0
    points = np.zeros((3, 4))
    points[:, 0] = -np.sin(angles)
    points[:, 2] = np.cos(angles)
    cfg = Configuration(Space.S3, np.array([m1, m2, m3], dtype=float), points)
    return _checked(Fixture(
        "geodesic_s1_equilateral", cfg, False, lam,
        "equally spaced triple on the xz great circle"))


def isosceles_s2(phi: float) -> Fixture:
    """Isosceles triangle on the xyz sphere with masses (-2 cos phi, 1, 1).

    The apex mass is positive only for phi in (pi/2, pi); the common height
    satisfies cos^2 theta = 1 + 2 / ((cos phi - 1)(2 cos phi + 3)).
    """
    if not (0.5 * math.pi < phi < math.pi):
        raise ParamOutOfDomainError("need phi in (pi/2, pi)")
    cphi, sphi = math.cos(phi), math.sin(phi)
    cos2t = 1.0 + 2.0 / ((cphi - 1.0) * (2.0 * cphi + 3.0))
    if not 0.0 < cos2t < 1.0:
        raise ParamOutOfDomainError("height equation has no solution here")
    ct = math.sqrt(cos2t)
    st = math.sqrt(1.0 - cos2t)
    points = np.array([
        [st, 0.0, ct, 0.0],
        [st * cphi, st * sphi, ct, 0.0],
        [st * cphi, -st * sphi, ct, 0.0],
    ])
    masses = np.array([-2.0 * cphi, 1.0, 1.0])
    cos_d12 = st * st * cphi + ct * ct
    sin3_d12 = (1.0 - cos_d12 * cos_d12) ** 1.5
    lam = -(2.0 - 2.0 * cphi) / (2.0 * sin3_d12)
    cfg = Configuration(Space.S3, masses, points)
    return _checked(Fixture(
        "isosceles_s2", cfg, False, lam,
        "isosceles triangle on the w=0 sphere, apex mass -2 cos phi"))


# ---------------------------------------------------------------------------
# ordinary configurations with closed-form multipliers, hyperbolic
# ---------------------------------------------------------------------------

def lagrangian_h2(m: float, r: float) -> Fixture:
    """Equilateral triangle of equal masses on a hyperbolic circle of radius r."""
    if not (m > 0.0 and np.isfinite(m)):
        raise ParamOutOfDomainError("mass must be positive")
    if not (r > 0.0 and np.isfinite(r)):
        raise ParamOutOfDomainError("need r > 0")
    w = math.sqrt(1.0 + r * r)
    h = math.sqrt(3.0) / 2.0
    points = np.array([
        [r, 0.0, 0.0, w],
        [-0.5 * r, h * r, 0.0, w],
        [-0.5 * r, -h * r, 0.0, w],
    ])
    lam = -m / (2.0 * math.sqrt(3.0) * r**3 * (1.0 + 0.75 * r * r) ** 1.5)
    cfg = Configuration(Space.H3, np.full(3, float(m)), points)
    return _checked(Fixture(
        "lagrangian_h2", cfg, False, lam,
        "equal-mass equilateral triangle on the z=0 hyperbolic sheet"))


def geodesic_h1(m: float, r: float) -> Fixture:
    """Symmetric triple on the xw hyperbolic geodesic: vertex plus two wings."""
    if not (m > 0.0 and np.isfinite(m)):
        raise ParamOutOfDomainError("mass must be positive")
    if not (r > 0.0 and np.isfinite(r)):
        raise ParamOutOfDomainError("need r > 0")
    w = math.sqrt(1.0 + r * r)
    points = np.array([
        [0.0, 0.0, 0.0, 1.0],
        [r, 0.0, 0.0, w],
        [-r, 0.0, 0.0, w],
    ])
    lam = -(m / (2.0 * r**3)) * (1.0 / w + 1.0 / (4.0 * w**3))
    cfg = Configuration(Space.H3, np.full(3, float(m)), points)
    return _checked(Fixture(
        "geodesic_h1", cfg, False, lam,
        "symmetric triple on the xw hyperbolic geodesic"))


# ---------------------------------------------------------------------------
# the two worked rigid-motion examples
# ---------------------------------------------------------------------------

def example1_s3() -> Fixture:
    """Equilateral triangle at height sqrt(3)/2 with masses tuned to lambda = -1/2."""
    m = 13.0 * math.sqrt(39.0) / 512.0
    angles = 2.0 * math.pi * np.arange(1, 4) / 3.0
    points = np.zeros((3, 4))
    points[:, 0] = 0.5 * np.cos(angles)
    points[:, 1] = 0.5 * np.sin(angles)
    points[:, 2] = math.sqrt(3.0) / 2.0
    cfg = Configuration(Space.S3, np.full(3, m), points)
    return _checked(Fixture(
        "example1_s3", cfg, False, -0.5,
        "spherical equilateral triangle with multiplier -1/2"))


def example2_h3() -> Fixture:
    """Symmetric hyperbolic geodesic triple with masses tuned to lambda = -1/2."""
    m = 8.0 * math.sqrt(2.0) / 9.0
    points = np.array([
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, math.sqrt(2.0)],
        [-1.0, 0.0, 0.0, math.sqrt(2.0)],
    ])
    cfg = Configuration(Space.H3, np.full(3, m), points)
    return _checked(Fixture(
        "example2_h3", cfg, False, -0.5,
        "hyperbolic geodesic triple with multiplier -1/2"))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

FIXTURE_BUILDERS = {
    "acute_triangle_s1": acute_triangle_s1,
    "tetrahedron_s2": tetrahedron_s2,
    "pentatope_s3": pentatope_s3,
    "double_triangle_s3": double_triangle_s3,
    "lagrangian_s2": lagrangian_s2,
    "geodesic_s1_isosceles": geodesic_s1_isosceles,
    "geodesic_s1_equilateral": geodesic_s1_equilateral,
    "isosceles_s2": isosceles_s2,
    "lagrangian_h2": lagrangian_h2,
    "geodesic_h1": geodesic_h1,
    "example1_s3": example1_s3,
    "example2_h3": example2_h3,
}


def default_fixtures():
    """One representative instance of every fixture family."""
    return [
        acute_triangle_s1(2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0),
        tetrahedron_s2(1.0),
        pentatope_s3(1.0),
        double_triangle_s3(1.0),
        lagrangian_s2(1.0, 0.5),
        geodesic_s1_isosceles(1.0, 0.5),
        geodesic_s1_equilateral(2.0, 1.0, 3.0, 0.25 * math.pi),
        isosceles_s2(2.0 * math.pi / 3.0),
        lagrangian_h2(1.0, 1.0),
        geodesic_h1(1.0, 1.0),
        example1_s3(),
        example2_h3(),
    ]
