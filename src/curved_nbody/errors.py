"""Exception types shared across the package, and the input contract.

Everything derives from CurvedNBodyError so callers can catch the whole
family with one clause. CLI code maps these to exit code 1 (operational)
or 2 (checked-and-false), depending on context.

Input contract.  Each public entry checks its inputs once, on entry, so a
refused input never starts a search or an integration.  A refused input
raises:

=======================  ====================================================
ValueError               a malformed shape, count, ordering or mass vector
                         (masses are finite and positive, at least one or
                         two of them as the entry states)
OutOfRangeError          a scalar outside its domain: the level or size c,
                         a tolerance, the step dt, the horizon, the
                         curvature kappa, the seed count, a lambda given
                         as input, a geodesic-solver mass or c outside
                         [1e-20, 1e20], geodesic thetas whose U, I,
                         lambda or Hessian leave float range; the message
                         names the argument
InadmissibleBetaError    a rate that is not finite or that the family's
                         constraint excludes
ParamOutOfDomainError    fixture parameters outside the documented domain
=======================  ====================================================

check_masses and check_scalar state the ValueError mass rule and the
OutOfRangeError finite-scalar rule; the entries call them rather than
repeat them.  Upper bounds that depend on the problem, such as c below
the total mass on S3, are checked by the entry that knows them.
Configuration points raise OffShellError or SingularPairError.
"""

import numpy as np


class CurvedNBodyError(Exception):
    """Base class for all package errors."""


class SingularPairError(CurvedNBodyError):
    """Two bodies coincide (or are antipodal on the sphere) within tolerance."""

    def __init__(self, i: int, j: int, value: float, message: str | None = None):
        self.i, self.j, self.value = i, j, value
        super().__init__(
            message or f"singular pair ({i}, {j}): sigma-inner product {value!r}"
        )


class DegenerateVectorError(CurvedNBodyError):
    """A raw 4-vector cannot be scaled onto the manifold."""


class OffShellError(CurvedNBodyError):
    """Input data violates its stated quadric constraint beyond tolerance."""


class ZeroGeneratorError(CurvedNBodyError):
    """An isometry generator with alpha = beta = 0 where a motion is required."""


class SingularEncounterError(CurvedNBodyError):
    """Integration ran into the singular set; carries the partial trajectory."""

    def __init__(self, message: str, partial=None):
        self.partial = partial
        super().__init__(message)


class SingularApproachError(CurvedNBodyError):
    """A search iterate entered the singular-set tolerance zone."""


class NoConvergenceError(CurvedNBodyError):
    """Iteration limit exhausted before meeting the requested tolerance."""


class DegenerateDenominatorError(CurvedNBodyError):
    """The multiplier formula's denominator vanishes (all bodies on the axes)."""


class NotACentralConfigError(CurvedNBodyError):
    """A configuration failed the central-configuration residual check."""


class InadmissibleBetaError(CurvedNBodyError):
    """Requested rate parameter lies outside the family's admissible range."""


class OutOfRangeError(CurvedNBodyError):
    """A scalar input lies outside its domain."""


class ParamOutOfDomainError(CurvedNBodyError):
    """Fixture parameters outside the documented domain."""


def check_masses(masses, min_bodies: int = 1) -> np.ndarray:
    """masses as a new 1-D float array, at least min_bodies (1 or 2) long;
    ValueError unless every mass is finite and positive."""
    m = np.array(masses, dtype=float, ndmin=1)
    if m.ndim != 1 or len(m) < min_bodies:
        raise ValueError("need a 1-D mass list of at least "
                         + ("two bodies" if min_bodies == 2 else "one body"))
    if not (np.isfinite(m).all() and (m > 0.0).all()):
        raise ValueError("masses must be positive and finite")
    return m


def check_scalar(name: str, value, positive: bool = True) -> float:
    """value as a float; OutOfRangeError naming the argument unless it is
    finite and, unless positive=False, above zero."""
    v = float(value)
    if np.isfinite(v) and (v > 0.0 or not positive):
        return v
    raise OutOfRangeError(f"{name} must be finite{' and positive' * positive}; got {value}")
