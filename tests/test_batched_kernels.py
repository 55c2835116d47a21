"""Stacked (B, N, 4) kernels against their per-configuration 2-D calls.

The finite-difference Newton step in find_cc evaluates all its probes as
one stack, so every kernel on that path must give each slice of a stack
bitwise what the slice gives alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curved_nbody.centralconfig import _chart_residuals, _reproject, _tangent_bases
from curved_nbody.dynamics import (
    _ForceKernel,
    _check_points,
    _gram_checked,
    _sn_powers,
)
from curved_nbody.errors import SingularPairError
from curved_nbody.inertia import _grad_I_raw, _r2_rho2
from curved_nbody.manifold import Space, project_point

from helpers import _tangent_bases_by_rows, random_config, random_points

stacks = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([Space.S3, Space.H3]),
    st.integers(1, 6),   # B
    st.integers(1, 6),   # N
)


def _stack(seed, space, b, n):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 5.0, n)
    Q = np.array([random_config(space, n, rng, masses=m).points for _ in range(b)])
    return rng, m, Q


def _same_bits(stacked, slices):
    return np.asarray(stacked).tobytes() == np.array(slices).tobytes()


@settings(max_examples=60, deadline=None)
@given(stacks)
def test_stacked_kernels_match_their_slices_bitwise(args):
    seed, space, b, n = args
    rng, m, Q = _stack(seed, space, b, n)
    s = _gram_checked(space, Q)
    assert _same_bits(s, [_gram_checked(space, q) for q in Q])
    assert _same_bits(_check_points(space, Q), [_check_points(space, q) for q in Q])
    for got, want in zip(_sn_powers(space, s), zip(*[_sn_powers(space, x) for x in s])):
        assert _same_bits(got, want)
    grad = _ForceKernel(space, m).grad
    assert _same_bits(grad(Q), [grad(q) for q in Q])
    assert _same_bits(_grad_I_raw(space, m, Q), [_grad_I_raw(space, m, q) for q in Q])
    for got, want in zip(_r2_rho2(space, Q), zip(*[_r2_rho2(space, q) for q in Q])):
        assert _same_bits(got, want)
    # rows scaled off the manifold and nudged, as a Newton step leaves them
    raw = Q * rng.uniform(0.5, 2.0, (b, n, 1)) + 1e-3 * rng.standard_normal((b, n, 4))
    assert _same_bits(
        _reproject(space, raw),
        [[project_point(row, space) for row in q] for q in raw],
    )


@settings(max_examples=40, deadline=None)
@given(stacks)
def test_chart_residual_rows_match_rows_evaluated_alone(args):
    seed, space, b, n = args
    rng, m, Q = _stack(seed, space, 1, n)
    Q = Q[0]
    bases = _tangent_bases(space, Q)
    Y = np.concatenate(
        [1e-3 * rng.standard_normal((b, 3 * n)), rng.uniform(-2.0, 2.0, (b, 1))],
        axis=1,
    )
    kernel = _ForceKernel(space, m)
    G, Qx = _chart_residuals(kernel, Q, bases, 0.7, Y)
    alone = [_chart_residuals(kernel, Q, bases, 0.7, y[None]) for y in Y]
    assert _same_bits(G, [g[0] for g, _ in alone])
    assert _same_bits(Qx, [q[0] for _, q in alone])


def _axis_rows(space, t):
    """Bodies on the axes at parameter t.  On S3 a body on the xy circle or
    at a unit vector makes the Gram-Schmidt reject one candidate."""
    c, s = math.cos(t), math.sin(t)
    if space is Space.S3:
        return [[c, s, 0.0, 0.0], [0.0, 0.0, c, s], [1.0, 0.0, 0.0, 0.0],
                [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]
    return [[0.0, 0.0, math.sinh(t), math.cosh(t)], [0.0, 0.0, 0.0, 1.0]]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([Space.S3, Space.H3]),
       st.integers(1, 6), st.floats(-3.0, 3.0), st.lists(st.integers(0, 5)))
def test_tangent_bases_match_the_numpy_gram_schmidt_bitwise(seed, space, n, t, axes):
    rng = np.random.default_rng(seed)
    Q = random_points(space, n, rng)
    on_axes = _axis_rows(space, t)
    for k, a in enumerate(axes[:n]):
        Q[k] = on_axes[a % len(on_axes)]
    assert _tangent_bases(space, Q).tobytes() == _tangent_bases_by_rows(space, Q).tobytes()


def test_a_body_on_the_xy_circle_rejects_one_candidate():
    # e_1 projects into the span of the first kept vector, so the frame is
    # (e_0 projected, e_2, e_3)
    Q = np.array([[0.6, 0.8, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    bases = _tangent_bases(Space.S3, Q)
    assert bases.tobytes() == _tangent_bases_by_rows(Space.S3, Q).tobytes()
    assert bases[:, 1:].tolist() == [[[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]] * 2


def test_stacked_gram_reports_the_first_singular_configuration():
    rng = np.random.default_rng(5)
    Q = np.array([random_points(Space.S3, 3, rng) for _ in range(3)])
    Q[1, 2] = Q[1, 0]   # slice 1: pair (0, 2) coincides
    Q[2, 1] = -Q[2, 0]  # slice 2: pair (0, 1) is antipodal
    with pytest.raises(SingularPairError) as info:
        _gram_checked(Space.S3, Q)
    with pytest.raises(SingularPairError) as alone:
        _gram_checked(Space.S3, Q[1])
    assert (info.value.i, info.value.j) == (0, 2)
    assert str(info.value) == str(alone.value)
