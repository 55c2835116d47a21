import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curved_nbody.errors import (
    DegenerateVectorError,
    OffShellError,
    SingularPairError,
)
from curved_nbody.manifold import (
    GeneratorKind,
    IsometryGenerator,
    Space,
    distance,
    inner,
    isometry_matrix,
    project_point,
    project_tangent,
    rescale_curvature,
)

from helpers import random_points
from row_descent import _add_reduce


# ---------------------------------------------------------------------------
# the signed inner product
# ---------------------------------------------------------------------------

def test_inner_signature():
    p = np.array([1.0, 2.0, 3.0, 4.0])
    q = np.array([0.5, -1.0, 2.0, 1.5])
    euclid = float(np.dot(p, q))
    assert inner(p, q, Space.S3) == pytest.approx(euclid)
    assert inner(p, q, Space.H3) == pytest.approx(euclid - 2.0 * p[3] * q[3])


def test_inner_batched():
    rng = np.random.default_rng(3)
    P = rng.normal(size=(6, 4))
    Q = rng.normal(size=(6, 4))
    vals = inner(P, Q, Space.H3)
    assert vals.shape == (6,)
    for k in range(6):
        assert vals[k] == pytest.approx(inner(P[k], Q[k], Space.H3))


finite = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, min_size=8, max_size=8), st.sampled_from(list(Space)))
def test_inner_folds_sigma_bit_for_bit(vals, space):
    # the w term is added or subtracted; a + (-1 * b) * c is a - b * c exactly
    p, q = np.array(vals[:4]), np.array(vals[4:])
    want = p[0] * q[0] + p[1] * q[1] + p[2] * q[2] + space.sigma * p[3] * q[3]
    assert inner(p, q, space).hex() == float(want).hex()


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_metric_diagonal_is_one_shared_read_only_array(space):
    met = space.metric_diagonal
    assert met is space.metric_diagonal
    assert met.tolist() == [1.0, 1.0, 1.0, float(space.sigma)]
    with pytest.raises(ValueError):
        met[3] = 0.0
    with pytest.raises(ValueError):
        met *= 2.0
    assert met.tolist() == [1.0, 1.0, 1.0, float(space.sigma)]


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_s3_known_values():
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    assert distance(e0, e1, Space.S3) == pytest.approx(math.pi / 2)
    q = np.array([math.cos(0.4), math.sin(0.4), 0.0, 0.0])
    assert distance(e0, q, Space.S3) == pytest.approx(0.4, abs=1e-14)


def test_distance_h3_known_value():
    v = np.array([0.0, 0.0, 0.0, 1.0])
    t = 0.9
    q = np.array([math.sinh(t), 0.0, 0.0, math.cosh(t)])
    assert distance(v, q, Space.H3) == pytest.approx(t, abs=1e-14)


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_distance_symmetric(space):
    rng = np.random.default_rng(11)
    pts = random_points(space, 8, rng)
    for i in range(8):
        for j in range(i + 1, 8):
            dij = distance(pts[i], pts[j], space)
            assert dij == pytest.approx(distance(pts[j], pts[i], space))
            assert dij > 0.0


def test_distance_singularities():
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(SingularPairError):
        distance(e0, e0, Space.S3)
    with pytest.raises(SingularPairError):
        distance(e0, -e0, Space.S3)  # antipodal, spherical only
    v = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(SingularPairError):
        distance(v, v, Space.H3)


def test_distance_rejects_out_of_range_cosine():
    # scaled inputs push cos d / cosh d outside the legal range
    with pytest.raises(OffShellError):
        distance(np.array([1.2, 0.0, 0.0, 0.0]),
                 np.array([1.0, 0.0, 0.0, 0.0]), Space.S3)
    with pytest.raises(OffShellError):
        distance(np.array([0.0, 0.0, 0.0, 1.0]),
                 np.array([0.0, 0.0, 0.0, 0.5]), Space.H3)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_project_point_s3():
    v = np.array([3.0, 0.0, 4.0, 0.0])
    p = project_point(v, Space.S3)
    assert np.allclose(p, [0.6, 0.0, 0.8, 0.0])
    with pytest.raises(DegenerateVectorError):
        project_point(np.zeros(4), Space.S3)


def test_project_point_h3():
    v = np.array([1.0, 0.5, -0.2, 3.0])
    p = project_point(v, Space.H3)
    assert inner(p, p, Space.H3) == pytest.approx(-1.0, abs=1e-12)
    assert p[3] > 0
    # spacelike and wrong-sheet inputs have no projection
    with pytest.raises(DegenerateVectorError):
        project_point(np.array([2.0, 0.0, 0.0, 1.0]), Space.H3)
    with pytest.raises(DegenerateVectorError):
        project_point(np.array([0.0, 0.0, 0.0, -1.0]), Space.H3)


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_project_tangent_orthogonal_and_idempotent(space):
    rng = np.random.default_rng(5)
    pts = random_points(space, 5, rng)
    raw = rng.normal(size=(5, 4))
    tan = project_tangent(pts, raw, space)
    assert np.max(np.abs(inner(pts, tan, space))) < 1e-13
    again = project_tangent(pts, tan, space)
    assert np.allclose(tan, again, atol=1e-14)


# ---------------------------------------------------------------------------
# one-parameter isometry subgroups
# ---------------------------------------------------------------------------

def _metric(space):
    return np.diag(space.metric_diagonal)


@pytest.mark.parametrize("kind,alpha,beta,eta", [
    (GeneratorKind.DOUBLE_ROTATION, 0.7, -1.3, 0.0),
    (GeneratorKind.DOUBLE_ROTATION, 1.0, 0.0, 0.0),
    (GeneratorKind.ROTATION_BOOST, 0.4, 0.9, 0.0),
    (GeneratorKind.ROTATION_BOOST, 0.0, 1.2, 0.0),
    (GeneratorKind.PARABOLIC, 0.0, 0.0, 0.8),
])
def test_isometry_preserves_form(kind, alpha, beta, eta):
    gen = IsometryGenerator(kind, alpha=alpha, beta=beta, eta=eta)
    J = _metric(gen.space)
    for t in (0.0, 0.3, 1.7, -2.4):
        A = isometry_matrix(gen, t)
        assert np.max(np.abs(A.T @ J @ A - J)) < 1e-12


@pytest.mark.parametrize("kind,alpha,beta,eta", [
    (GeneratorKind.DOUBLE_ROTATION, 0.9, 0.4, 0.0),
    (GeneratorKind.ROTATION_BOOST, 0.6, -0.8, 0.0),
    (GeneratorKind.PARABOLIC, 0.0, 0.0, 1.1),
])
def test_isometry_subgroup_law(kind, alpha, beta, eta):
    gen = IsometryGenerator(kind, alpha=alpha, beta=beta, eta=eta)
    s, t = 0.37, 1.21
    left = isometry_matrix(gen, s + t)
    right = isometry_matrix(gen, s) @ isometry_matrix(gen, t)
    assert np.max(np.abs(left - right)) < 1e-12


@pytest.mark.parametrize("kind,alpha,beta,eta", [
    (GeneratorKind.DOUBLE_ROTATION, 0.9, 0.4, 0.0),
    (GeneratorKind.ROTATION_BOOST, 0.6, -0.8, 0.0),
    (GeneratorKind.PARABOLIC, 0.0, 0.0, 1.1),
])
def test_isometry_derivative_is_generator(kind, alpha, beta, eta):
    gen = IsometryGenerator(kind, alpha=alpha, beta=beta, eta=eta)
    h = 1e-6
    fd = (isometry_matrix(gen, h) - isometry_matrix(gen, -h)) / (2.0 * h)
    assert np.max(np.abs(fd - gen.matrix_log())) < 1e-9


@pytest.mark.parametrize("kind,alpha,beta,eta", [
    (GeneratorKind.DOUBLE_ROTATION, 0.9, 0.4, 0.0),
    (GeneratorKind.ROTATION_BOOST, 0.6, -0.8, 0.0),
    (GeneratorKind.PARABOLIC, 0.0, 0.0, 1.1),
])
def test_isometry_stack_is_the_scalar_frames_in_long_double(kind, alpha, beta, eta):
    gen = IsometryGenerator(kind, alpha=alpha, beta=beta, eta=eta)
    ts = np.arange(0, 40) * 0.137
    stack = isometry_matrix(gen, ts, np.longdouble)
    assert stack.shape == (40, 4, 4) and stack.dtype == np.longdouble
    for t, frame in zip(ts, stack):
        # values, not bytes: long double carries padding bytes
        assert np.array_equal(frame, isometry_matrix(gen, float(t), np.longdouble))


@pytest.mark.parametrize("kind", list(GeneratorKind))
def test_isometry_stack_is_the_scalar_frames_in_float64(kind):
    # at simulate's record times, the start, every max(1, steps // 1000)-th
    # step and the last, at the default dt, for T = 0.5 and T = 10
    rng = np.random.default_rng(list(GeneratorKind).index(kind))
    dt = 1e-3
    for steps in (500, 10000):
        every = max(1, steps // 1000)
        times = [0.0] + [k * dt for k in range(1, steps + 1)
                         if k % every == 0 or k == steps]
        for alpha, beta, eta in rng.uniform(-3.0, 3.0, (10, 3)):
            gen = IsometryGenerator(kind, alpha=alpha, beta=beta, eta=eta)
            stack = isometry_matrix(gen, np.array(times))
            assert stack.shape == (len(times), 4, 4) and stack.dtype == float
            frames = np.array([isometry_matrix(gen, t) for t in times])
            assert stack.tobytes() == frames.tobytes()


def test_parabolic_is_exact_quadratic():
    gen = IsometryGenerator(GeneratorKind.PARABOLIC, eta=0.5)
    t = 1.8
    xi = gen.matrix_log() * t
    # the generator is nilpotent of order 3, so the series terminates
    assert np.max(np.abs(xi @ xi @ xi)) < 1e-15
    series = np.eye(4) + xi + xi @ xi / 2.0
    assert np.allclose(isometry_matrix(gen, t), series, atol=1e-14)


# ---------------------------------------------------------------------------
# curvature rescaling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space,kappa", [(Space.S3, 4.0), (Space.H3, -2.25)])
def test_rescale_curvature_normalizes(space, kappa):
    rng = np.random.default_rng(17)
    unit = random_points(space, 4, rng)
    scaled = unit / math.sqrt(abs(kappa))
    cfg, factor = rescale_curvature(scaled, kappa, masses=np.ones(4))
    assert cfg.space is space
    assert factor == pytest.approx(abs(kappa) ** 0.75)
    assert np.allclose(cfg.points, unit, atol=1e-12)


def test_rescale_curvature_rejects_wrong_radius():
    pts = random_points(Space.S3, 3, np.random.default_rng(1))
    with pytest.raises(OffShellError):
        rescale_curvature(pts, 4.0, masses=np.ones(3))  # radius 1, kappa says 1/2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 128), st.booleans())
def test_add_reduce_is_numpys_sum_bit_for_bit(seed, n, zeros):
    # below 8 terms numpy sums in order, from 8 on it keeps eight running
    # sums; magnitudes twelve decades apart make either order show, and
    # negative zeros test the 0.0 the reduction starts from
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
    if zeros:
        v[rng.random(n) < 0.5] = -0.0
    want = np.add.reduce(v)
    assert np.float64(_add_reduce(v.tolist())).tobytes() == want.tobytes()
