"""Invariants the dynamics rests on: isometry equivariance of the force law
and of the integrator, the seven first integrals, and the extended-precision
isometry exponential that certify_rigidity builds its co-moving frame from.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curved_nbody.dynamics import Configuration, PhaseState, conserved, grad_U, integrate
from curved_nbody.manifold import GeneratorKind, IsometryGenerator, Space, isometry_matrix

from helpers import random_config, random_momenta

draws = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([Space.S3, Space.H3]),
    st.integers(2, 5),   # N
)


def _state(seed, space, n, min_gap=0.3):
    rng = np.random.default_rng(seed)
    cfg = random_config(space, n, rng, min_gap=min_gap)
    return rng, PhaseState(cfg, random_momenta(cfg, rng))


def _random_isometry(space, rng):
    """exp(xi t) of a random generator acting on space."""
    if space is Space.S3:
        kind = GeneratorKind.DOUBLE_ROTATION
    else:
        kind = (GeneratorKind.ROTATION_BOOST, GeneratorKind.PARABOLIC)[rng.integers(2)]
    a, b, e = rng.uniform(-2.0, 2.0, 3)
    gen = IsometryGenerator(kind, alpha=a, beta=b, eta=e)
    return isometry_matrix(gen, rng.uniform(-1.0, 1.0))


def _close(x, y, tol):
    scale = max(1.0, float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) <= tol * scale


@settings(max_examples=40, deadline=None)
@given(draws)
def test_force_and_integrator_commute_with_isometries(args):
    seed, space, n = args
    rng, state = _state(seed, space, n)
    A = _random_isometry(space, rng)
    cfg = state.config
    moved = PhaseState(
        Configuration(space, cfg.masses, cfg.points @ A.T), state.momenta @ A.T
    )
    assert _close(grad_U(moved.config), grad_U(cfg) @ A.T, 1e-12)
    here = integrate(state, 1e-3, 10).final_state()
    there = integrate(moved, 1e-3, 10).final_state()
    assert _close(there.config.points, here.config.points @ A.T, 1e-12)
    assert _close(there.momenta, here.momenta @ A.T, 1e-12)


@settings(max_examples=40, deadline=None)
@given(draws)
def test_first_integrals_hold_over_100_steps(args):
    # bodies start at least 0.5 apart: RK4's truncation error grows like
    # (dt / encounter time)^4, and a pair starting 0.3 apart can fall close
    # enough in 0.1 time units to drift the energy by 3e-7 at dt = 1e-3
    seed, space, n = args
    _, state = _state(seed, space, n, min_gap=0.5)
    start = conserved(state).as_dict()
    end = conserved(integrate(state, 1e-3, 100).final_state()).as_dict()
    for key, v0 in start.items():
        assert abs(end[key] - v0) < 1e-7 * max(1.0, abs(v0)), key


# exp(xi t) in long double, each entry stored as float64 hex (hi, lo) with
# entry = hi + lo exactly; recorded from the hand-built co-moving frame the
# certifier used before it called isometry_matrix.  That frame carried -0.0
# at [0, 1] of the parabolic matrices (-sin 0), which compares equal to 0.0.
_K = GeneratorKind
_FRAMES = [
    (_K.DOUBLE_ROTATION, dict(alpha=2.0 ** 0.5, beta=1.0), 7.3,
     [["-0x1.3eac3ce4f64bdp-1", "0x1.90bd26be6b2d3p-1", "0x0.0p+0", "0x0.0p+0"],
      ["-0x1.90bd26be6b2d3p-1", "-0x1.3eac3ce4f64bdp-1", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x0.0p+0", "0x1.0d5a0848a01cbp-1", "-0x1.b36c6dc1d7445p-1"],
      ["0x0.0p+0", "0x0.0p+0", "0x1.b36c6dc1d7445p-1", "0x1.0d5a0848a01cbp-1"]],
     [["0x1.b700000000000p-55", "0x1.c280000000000p-55", "0x0.0p+0", "0x0.0p+0"],
      ["-0x1.c280000000000p-55", "0x1.b700000000000p-55", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x0.0p+0", "0x1.2280000000000p-55", "-0x1.cb00000000000p-56"],
      ["0x0.0p+0", "0x0.0p+0", "0x1.cb00000000000p-56", "0x1.2280000000000p-55"]]),
    (_K.DOUBLE_ROTATION, dict(alpha=-0.4, beta=2.5), 1234 * 1e-3,
     [["0x1.c2e2507a13d4dp-1", "0x1.e52ba015ff8a5p-2", "0x0.0p+0", "0x0.0p+0"],
      ["-0x1.e52ba015ff8a5p-2", "0x1.c2e2507a13d4dp-1", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x0.0p+0", "-0x1.ff2e2978fd7dfp-1", "-0x1.cf5c0e1607a5dp-5"],
      ["0x0.0p+0", "0x0.0p+0", "0x1.cf5c0e1607a5dp-5", "-0x1.ff2e2978fd7dfp-1"]],
     [["-0x1.4880000000000p-55", "0x1.4e00000000000p-58", "0x0.0p+0", "0x0.0p+0"],
      ["-0x1.4e00000000000p-58", "-0x1.4880000000000p-55", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x0.0p+0", "0x1.d700000000000p-55", "0x1.3900000000000p-59"],
      ["0x0.0p+0", "0x0.0p+0", "-0x1.3900000000000p-59", "0x1.d700000000000p-55"]]),
    (_K.ROTATION_BOOST, dict(alpha=0.5, beta=3.0 ** 0.5 / 2.0), 9.999,
     [["0x1.21faa47d174fcp-2", "0x1.eb0ab26828c3bp-1", "0x0.0p+0", "0x0.0p+0"],
      ["-0x1.eb0ab26828c3bp-1", "0x1.21faa47d174fcp-2", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x0.0p+0", "0x1.684019a04630ap+11", "0x1.684018347036fp+11"],
      ["0x0.0p+0", "0x0.0p+0", "0x1.684018347036fp+11", "0x1.684019a04630ap+11"]],
     [["0x1.b400000000000p-56", "0x1.f600000000000p-55", "0x0.0p+0", "0x0.0p+0"],
      ["-0x1.f600000000000p-55", "0x1.b400000000000p-56", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x0.0p+0", "-0x1.4e80000000000p-43", "-0x1.b000000000000p-48"],
      ["0x0.0p+0", "0x0.0p+0", "-0x1.b000000000000p-48", "-0x1.4e80000000000p-43"]]),
    (_K.ROTATION_BOOST, dict(alpha=3.0, beta=-1.7), 4.2,
     [["0x1.ffb5e3d66faeep-1", "-0x1.1370a4069cdfap-5", "0x0.0p+0", "0x0.0p+0"],
      ["0x1.1370a4069cdfap-5", "0x1.ffb5e3d66faeep-1", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x0.0p+0", "0x1.3b5b77b726e02p+9", "-0x1.3b5b5dbd10b61p+9"],
      ["0x0.0p+0", "0x0.0p+0", "-0x1.3b5b5dbd10b61p+9", "0x1.3b5b77b726e02p+9"]],
     [["0x1.1400000000000p-56", "0x1.ca00000000000p-60", "0x0.0p+0", "0x0.0p+0"],
      ["-0x1.ca00000000000p-60", "0x1.1400000000000p-56", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x0.0p+0", "-0x1.cc80000000000p-45", "-0x1.ec80000000000p-45"],
      ["0x0.0p+0", "0x0.0p+0", "-0x1.ec80000000000p-45", "-0x1.cc80000000000p-45"]]),
    (_K.PARABOLIC, dict(eta=0.7), 3.1,
     [["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x1.0000000000000p+0", "-0x1.15c28f5c28f5cp+1", "0x1.15c28f5c28f5cp+1"],
      ["0x0.0p+0", "0x1.15c28f5c28f5cp+1", "-0x1.5abd3c3611340p+0", "0x1.2d5e9e1b089a0p+1"],
      ["0x0.0p+0", "0x1.15c28f5c28f5cp+1", "-0x1.2d5e9e1b089a0p+1", "0x1.ad5e9e1b089a0p+1"]],
     [["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x0.0p+0", "0x1.4000000000000p-58", "-0x1.4000000000000p-58"],
      ["0x0.0p+0", "-0x1.4000000000000p-58", "0x1.b800000000000p-54", "-0x1.b800000000000p-54"],
      ["0x0.0p+0", "-0x1.4000000000000p-58", "0x1.b800000000000p-54", "-0x1.b800000000000p-54"]]),
    (_K.PARABOLIC, dict(eta=-2.3), 0.85,
     [["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x1.0000000000000p+0", "0x1.f47ae147ae147p+0", "-0x1.f47ae147ae147p+0"],
      ["0x0.0p+0", "-0x1.f47ae147ae147p+0", "-0x1.d2703afb7e90cp-1", "0x1.e9381d7dbf486p+0"],
      ["0x0.0p+0", "-0x1.f47ae147ae147p+0", "-0x1.e9381d7dbf486p+0", "0x1.749c0ebedfa43p+1"]],
     [["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
      ["0x0.0p+0", "0x0.0p+0", "-0x1.d700000000000p-55", "0x1.d700000000000p-55"],
      ["0x0.0p+0", "0x1.d700000000000p-55", "-0x1.aa00000000000p-55", "0x1.aa00000000000p-55"],
      ["0x0.0p+0", "0x1.d700000000000p-55", "-0x1.aa00000000000p-55", "0x1.aa00000000000p-55"]]),
]


def _from_hex(rows):
    return np.array([[float.fromhex(v) for v in row] for row in rows]).astype(np.longdouble)


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63, reason="frames recorded with x87 80-bit long double"
)
@pytest.mark.parametrize("kind,rates,t,hi,lo", _FRAMES)
def test_long_double_isometry_matches_recorded_frames(kind, rates, t, hi, lo):
    got = isometry_matrix(IsometryGenerator(kind, **rates), t, np.longdouble)
    assert got.dtype == np.longdouble
    assert np.array_equal(got, _from_hex(hi) + _from_hex(lo))
