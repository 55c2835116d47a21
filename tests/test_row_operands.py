"""The few-body hot path of find_cc against the numpy code it replaces.

The generated row functions take their three BLAS products (the S3 row
norms of a reprojection, the Gram matrix of a point check and grad U's
w @ q) from one _products call per make call, on buffers allocated
there, and the tangent frames come from a generated Gram-Schmidt, a tree
of keep and drop branches over the unit vectors.  _chart_residuals
writes out the sums that einsum took.  Each must give the bits, errors
and messages of the numpy code it replaces.
"""

import math
import types

import numpy as np
import pytest

from curved_nbody.centralconfig import (
    _RowOps,
    _chart_residuals,
    _row_ops_factory,
    _tangent_bases,
    _tangent_frames,
)
from curved_nbody.dynamics import (
    _ForceKernel,
    _PairKernel,
    _check_points,
    _gram_checked,
    _products,
    _reproject_source,
    _rows_source,
)
from curved_nbody.errors import CurvedNBodyError, DegenerateVectorError, NoConvergenceError
from curved_nbody.inertia import _grad_I_raw, _r2_rho2
from curved_nbody.manifold import Space, _reproject, project_point

from helpers import _gram_schmidt_row, _tangent_bases_by_rows, random_config, random_points

SPACES = [Space.S3, Space.H3]


def _special_rows(rng, n):
    """n random rows whose entries are standard normal or, each with
    probability 0.1, an exact 0.0 or -0.0 or a value near 1e150 or 1e-150
    of either sign."""
    rows = rng.standard_normal((n, 4))
    kind = rng.integers(0, 10, (n, 4))
    scale = rng.uniform(0.5, 2.0, (n, 4)) * rng.choice([-1.0, 1.0], (n, 4))
    rows[kind == 0] = 0.0
    rows[kind == 1] = -0.0
    rows[kind == 2] = (scale * 1e150)[kind == 2]
    rows[kind == 3] = (scale * 1e-150)[kind == 3]
    return rows


def _outcome(fn):
    try:
        with np.errstate(all="ignore"):
            return "ok", np.asarray(fn(), dtype=float).tobytes()
    except CurvedNBodyError as exc:
        return type(exc).__name__, str(exc)


def _reprojection(space, n):
    """_reproject_source's lines for n rows as one function of the rows,
    compiled with the namespace of the generated row functions and bound
    to the products of one make call."""
    lines = ["def make():", f"    norms = _products(space, {n})[0]",
             "    def reproject(q):",
             f"        {_rows_source('Y', n)} = q",
             *("        " + line for line in _reproject_source(space, n, "Y", "X")),
             f"        return [{_rows_source('X', n)}]",
             "    return reproject"]
    namespace = dict(_row_ops_factory(space, n).__globals__)
    exec("\n".join(lines), namespace)
    return namespace["make"]()


@pytest.mark.parametrize("space", SPACES)
def test_the_generated_reprojection_is_reproject_bit_for_bit(space):
    # 3000 configurations of 1-4 rows, 7500 rows, with signed zeros and
    # entries near 1e150 and 1e-150; a row _reproject refuses raises its
    # class and message, which are project_point's
    rng = np.random.default_rng(34)
    functions = {n: _reprojection(space, n) for n in range(1, 5)}
    refused = 0
    for k in range(3000):
        n = 1 + k % 4
        Q = _special_rows(rng, n)
        if space is Space.H3 and k % 3:
            Q[:, 3] = np.abs(Q[:, 3]) + 2.0 * np.abs(Q[:, :3]).max(axis=1)
        if k % 7 == 0:  # a row far below a norm of 1e-12
            Q[rng.integers(n)] *= 1e-140
        want = _outcome(lambda: _reproject(space, Q))
        assert _outcome(lambda: functions[n](Q.tolist())) == want
        refused += want[0] != "ok"
    assert refused > 300


@pytest.mark.parametrize("space, row, message", [
    (Space.S3, [0.0, -0.0, 0.0, 0.0], "near-zero"),
    (Space.S3, [1e-150, -1e-150, 0.0, 1e-150], "near-zero"),
    (Space.H3, [0.5, 0.0, 0.0, -0.0], "w > 0"),
    (Space.H3, [np.nan, 0.0, 0.0, -1.0], "w > 0"),
    (Space.H3, [np.inf, 0.0, 0.0, 2.0], "cannot reach"),
    (Space.H3, [2.0, 0.0, 0.0, 1.0], "cannot reach"),
])
def test_a_refused_row_raises_what_project_point_raises(space, row, message):
    good = random_points(space, 3, np.random.default_rng(1))
    q = [good[0].tolist(), row, good[2].tolist()]
    with pytest.raises(DegenerateVectorError) as alone:
        project_point(np.array(row), space)
    with pytest.raises(DegenerateVectorError) as got:
        _reprojection(space, 3)(q)
    assert message in str(got.value) and str(got.value) == str(alone.value)


@pytest.mark.parametrize("space", SPACES)
def test_the_buffered_gram_rows_are_the_gram_matrix_bit_for_bit(space):
    rng = np.random.default_rng(35)
    grams = {n: _products(space, n)[1] for n in range(1, 5)}
    for k in range(3000):
        n = 1 + k % 4
        Q = _special_rows(rng, n)
        with np.errstate(all="ignore"):
            want = space.sigma * ((Q * space.metric_diagonal) @ Q.swapaxes(-1, -2))
            got = grams[n](*Q.ravel().tolist())
        assert np.array(got).tobytes() == want.tobytes()
    for n in range(1, 5):  # _gram_checked itself, where it accepts the rows
        Q = random_config(space, n, rng).points
        assert (np.array(grams[n](*Q.ravel().tolist())).tobytes()
                == _gram_checked(space, Q).tobytes())


def test_the_buffered_force_rows_are_the_matrix_product_bit_for_bit():
    rng = np.random.default_rng(36)
    forces = {n: _products(Space.S3, n)[2] for n in range(1, 5)}
    for k in range(3000):
        n = 1 + k % 4
        w, q = _special_rows(rng, n)[:, :n].tolist(), _special_rows(rng, n).tolist()
        with np.errstate(all="ignore"):
            want = np.array(w) @ np.array(q)
            got = forces[n](sum(w, []), sum(q, []))
        assert np.array(got).tobytes() == want.tobytes()


def _floats(x):
    """The floats of a nest of lists, tuples and arrays, in order."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _floats(item)]
    return [x]


def _ops_run(ops, Q):
    """The bytes of a row-ops object's descent operations and of one chart
    point at the (N, 4) array Q."""
    q = Q.tolist()
    s = _check_points(ops.kernel.space, Q).tolist()
    R, lam, _ = ops.direction(q, s)
    point = ops.start(Q)
    y = np.concatenate([np.full(3 * len(q), 1e-3), [lam]])
    G, xt = ops.residuals(point, ops.frames(point), y)
    out = [ops.potential(s), lam, R, ops.trial(q, 0.1, R), ops.restore(q),
           G, xt, ops.criterion(xt, lam)]
    return np.array(_floats(out), dtype=float).tobytes()


def _buffers(*functions):
    """The ids of the writable arrays that the closures of functions hold,
    or the closures of the functions they hold (the products)."""
    ids = set()
    for fn in functions:
        for cell in fn.__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, types.FunctionType):
                ids |= _buffers(v)
            elif isinstance(v, np.ndarray) and v.flags.writeable:
                ids.add(id(v.base if v.base is not None else v))
    return ids


@pytest.mark.parametrize("space", SPACES)
def test_two_searches_keep_their_own_operands(space):
    # two row-ops objects with other masses and levels, called in turn,
    # give the bits each gives alone: the buffers are one search's
    rng = np.random.default_rng(37)
    cfgs = [random_config(space, 3, rng) for _ in range(2)]
    def ops(k):
        return _RowOps(_ForceKernel(space, cfgs[k].masses), 0.4 + 0.3 * k)
    alone = [_ops_run(ops(k), cfgs[k].points) for k in range(2)]
    first, second = ops(0), ops(1)
    held = [_buffers(o.trial, o.restore, o.direction, o.residuals) for o in (first, second)]
    assert len(held[0]) >= (3 if space is Space.H3 else 4) and not held[0] & held[1]
    for _ in range(3):
        assert _ops_run(first, cfgs[0].points) == alone[0]
        assert _ops_run(second, cfgs[1].points) == alone[1]


@pytest.mark.parametrize("space", SPACES)
def test_two_pair_kernels_keep_their_own_operands(space):
    rng = np.random.default_rng(38)
    cfgs = [random_config(space, 3, rng) for _ in range(2)]
    def run(kernel, cfg, steps):
        q, p = cfg.points.tolist(), np.zeros((3, 4)).tolist()
        out = []
        for _ in range(steps):
            q, p = kernel.step(q, p, 1e-2, 0.5e-2, 1e-2 / 6.0)
            out.append(np.array([q, p]).tobytes())
        return out
    alone = [run(_PairKernel(space, c.masses), c, 20) for c in cfgs]
    kernels = [_PairKernel(space, c.masses) for c in cfgs]
    if space is Space.S3:
        held = [_buffers(k._step) for k in kernels]
        assert held[0] and not held[0] & held[1]
    states = [(c.points.tolist(), np.zeros((3, 4)).tolist()) for c in cfgs]
    for step in range(20):
        for k in range(2):
            q, p = kernels[k].step(*states[k], 1e-2, 0.5e-2, 1e-2 / 6.0)
            states[k] = (q, p)
            assert np.array([q, p]).tobytes() == alone[k][step]


# The frames' reference is the numpy Gram-Schmidt loop _tangent_bases_by_rows.


@pytest.mark.parametrize("space", SPACES)
def test_the_generated_frames_are_the_loop_bit_for_bit(space):
    rng = np.random.default_rng(39)
    for k in range(2000):
        Q = random_points(space, 1 + k % 4, rng)
        assert _tangent_bases(space, Q).tobytes() == _tangent_bases_by_rows(space, Q).tobytes()


def test_a_body_on_the_w_0_sphere_keeps_e3_without_the_loop():
    # find_cc's S3 seeds start on the w = 0 great sphere, where e2 is
    # dropped and e3 completes the frame; -0.0 and 0.0 both
    rng = np.random.default_rng(40)
    for k in range(500):
        Q = random_points(Space.S3, 3, rng)
        Q[:, 3] = [0.0, -0.0, 0.0] if k % 2 else [-0.0, 0.0, -0.0]
        Q[:, :3] /= np.linalg.norm(Q[:, :3], axis=1, keepdims=True)
        got = _tangent_frames(Space.S3, Q.tolist())
        assert np.array(got).tobytes() == _tangent_bases_by_rows(Space.S3, Q).tobytes()
        assert all(b[2][:3] == [0.0, 0.0, 0.0] for b in got)


# bodies on the axes, which between them reach each leaf of the frame
# tree that keeps three vectors
_AXES = [
    (Space.S3, [1.0, 0.0, 0.0, 0.0], True),     # e0 dropped: {1, 2, 3}
    (Space.S3, [-1.0, -0.0, 0.0, -0.0], True),
    (Space.S3, [0.0, 1.0, 0.0, -0.0], True),    # e1 dropped: {0, 2, 3}
    (Space.S3, [0.6, -0.8, 0.0, -0.0], True),   # the xy circle: e1 dropped
    (Space.S3, [0.0, -0.0, 1.0, 0.0], False),   # e2 dropped: {0, 1, 3}
    (Space.S3, [0.0, -0.0, 0.6, 0.8], False),   # {0, 1, 2}
    (Space.S3, [-0.0, 0.0, 0.0, -1.0], False),
    (Space.H3, [0.0, -0.0, 0.0, 1.0], False),
    (Space.H3, [-0.0, 0.0, math.sinh(0.7), math.cosh(0.7)], False),
]


@pytest.mark.parametrize("space, row, e0_or_e1_dropped", _AXES)
def test_bodies_on_the_axes_match_the_loop(space, row, e0_or_e1_dropped):
    good = random_points(space, 2, np.random.default_rng(41))
    Q = np.array([good[0], row, good[1]])
    assert _tangent_bases(space, Q).tobytes() == _tangent_bases_by_rows(space, Q).tobytes()
    kept = _gram_schmidt_row(space, Q[1])[1]
    assert (kept[:2] != [0, 1]) == e0_or_e1_dropped


def test_the_axes_rows_reach_every_leaf_that_keeps_three_vectors():
    leaves = {tuple(_gram_schmidt_row(space, np.array(row))[1]) for space, row, _ in _AXES}
    assert leaves == {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}


@pytest.mark.parametrize("far, left", [
    ([1e8, 0.0, 0.0, math.sqrt(1.0 + 1e16)], 2),      # e0 dropped
    ([0.0, -3e8, 0.0, math.sqrt(1.0 + 9e16)], 2),     # e1 dropped
    ([6e9, 0.0, 8e9, math.sqrt(1.0 + 1e20)], 1),
])
def test_a_far_h3_body_still_loses_rank_with_the_loops_message(far, left):
    # the leaves that lose rank, leaving two and one: the loop keeps as
    # many vectors, and the message names the body
    q = random_points(Space.H3, 2, np.random.default_rng(42)).tolist()
    q.insert(1, far)
    with pytest.raises(NoConvergenceError) as got:
        _tangent_frames(Space.H3, q)
    assert str(got.value) == (f"the tangent frame of body 1 lost rank: rounding "
                              f"left {left} of its 3 directions")
    assert len(_gram_schmidt_row(Space.H3, np.array(far))[0]) == left


def _einsum_chart_residuals(kernel, Q, bases, c, Y):
    """_chart_residuals as it was written with einsum, for a stack that
    stays in the feasible region: the reference for its written-out sums."""
    space, m = kernel.space, kernel.m
    X = Y[:, :-1].reshape(len(Y), len(m), 3)
    Qx = _reproject(space, Q + np.einsum("bnk,nkd->bnd", X, bases))
    s = _check_points(space, Qx)
    split = _r2_rho2(space, Qx)
    R = kernel.grad(Qx, s) - Y[:, -1, None, None] * _grad_I_raw(space, m, Qx, split)
    comps = np.einsum("nkd,bnd,d->bnk", bases, R, space.metric_diagonal)
    lvl = np.sum(m * split[0], axis=-1) - c
    return np.concatenate([comps.reshape(len(Y), -1), lvl[:, None]], axis=1), Qx


@pytest.mark.parametrize("space", SPACES)
def test_chart_residuals_are_the_einsum_form_bit_for_bit(space):
    # stacks of 1-20 chart points with exact and signed zero coordinates,
    # around points with a body whose coordinates hold 0.0 and -0.0
    rng = np.random.default_rng(43)
    for k in range(400):
        n = 1 + k % 4
        cfg = random_config(space, n, rng)
        Q = cfg.points.copy()
        if k % 3 == 0:
            Q[0] = [0.0, -0.0, 1.0, 0.0] if space is Space.S3 else [-0.0, 0.0, 0.0, 1.0]
        bases = _tangent_bases(space, Q)
        b = 1 + k % 20
        Y = np.concatenate([1e-3 * rng.standard_normal((b, 3 * n)),
                            rng.uniform(-2.0, 2.0, (b, 1))], axis=1)
        Y[rng.random(Y.shape) < 0.3] = 0.0
        Y[rng.random(Y.shape) < 0.2] = -0.0
        kernel = _ForceKernel(space, cfg.masses)
        want = _outcome(lambda: np.concatenate(
            [a.ravel() for a in _einsum_chart_residuals(kernel, Q, bases, 0.7, Y)]))
        got = _outcome(lambda: np.concatenate(
            [a.ravel() for a in _chart_residuals(kernel, Q, bases, 0.7, Y)]))
        assert got == want
