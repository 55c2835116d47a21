"""Central-configuration residuals, classification, and the level-set solver."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curved_nbody import (
    CCClass,
    Configuration,
    LevelSetSpec,
    Space,
    canonicalize,
    cc_residual,
    classify,
    criterion_residual,
    equivalent,
    find_cc,
    is_special_cc,
    lambda_estimate,
    make_report,
    moment_of_inertia,
    orthogonality_relations,
    swap_xy_zw,
)
from curved_nbody import centralconfig, dynamics, grad_I, grad_U
from curved_nbody.centralconfig import (
    EPS_AXIS,
    _ArrayOps,
    _RowOps,
    _chart_residuals,
    _fd_jacobian,
    _restore_level,
    _tangent_bases,
    default_seed,
)
from curved_nbody.dynamics import _ForceKernel, _check_points
from curved_nbody.errors import (
    CurvedNBodyError,
    DegenerateDenominatorError,
    DegenerateVectorError,
    NoConvergenceError,
    OutOfRangeError,
    SingularApproachError,
    SingularPairError,
)
from curved_nbody.fixtures import FIXTURE_BUILDERS, default_fixtures
from curved_nbody.manifold import (
    GeneratorKind,
    IsometryGenerator,
    inner,
    isometry_matrix,
    project_point,
    project_tangent,
)

import row_descent
from helpers import random_config
from row_descent import LoopDescent

FIXTURES = default_fixtures()
ORDINARY = [f for f in FIXTURES if not f.is_special]
SPECIAL = [f for f in FIXTURES if f.is_special]


# ─── residuals on known solutions ────────────────────────────────────────


@pytest.mark.parametrize("fix", ORDINARY, ids=lambda f: f.name)
def test_cc_residual_vanishes_at_expected_multiplier(fix):
    _, rmax = cc_residual(fix.config, fix.expected_lambda)
    assert rmax < 1e-9


@pytest.mark.parametrize("fix", SPECIAL, ids=lambda f: f.name)
def test_special_solutions_are_force_equilibria(fix):
    assert is_special_cc(fix.config)
    _, rmax = cc_residual(fix.config, 0.0)
    assert rmax < 1e-9


@pytest.mark.parametrize("name", ["acute_triangle_s1", "double_triangle_s3"])
def test_axis_confined_specials_drop_the_multiplier(name):
    # bodies on the two axis circles also have vanishing inertia gradient,
    # so the residual is independent of the multiplier entirely
    fix = next(f for f in SPECIAL if f.name == name)
    for lam in (0.37, -1.9):
        _, rmax = cc_residual(fix.config, lam)
        assert rmax < 1e-9
    with pytest.raises(DegenerateDenominatorError):
        lambda_estimate(fix.config)


def test_cc_residual_detects_perturbation():
    fix = FIXTURE_BUILDERS["lagrangian_s2"](1.0, 0.5)
    Q = fix.config.points.copy()
    Q[0, 0] += 5e-3
    cfg = Configuration.from_raw(Space.S3, fix.config.masses, Q)
    _, rmax = cc_residual(cfg, fix.expected_lambda)
    assert rmax > 1e-3


@pytest.mark.parametrize("fix", ORDINARY, ids=lambda f: f.name)
def test_lambda_estimate_matches_closed_forms(fix):
    assert lambda_estimate(fix.config) == pytest.approx(
        fix.expected_lambda, abs=1e-10, rel=1e-10
    )


def test_criterion_residual_rows_and_consistency():
    fix = FIXTURE_BUILDERS["lagrangian_h2"](1.0, 0.8)
    res = criterion_residual(fix.config, fix.expected_lambda)
    assert res.shape == (3 * fix.config.n,)
    assert np.max(np.abs(res)) < 1e-9
    # a wrong multiplier shows up in the radial rows
    bad = criterion_residual(fix.config, fix.expected_lambda + 0.5)
    assert np.max(np.abs(bad)) > 1e-3


def test_criterion_residual_handles_axis_bodies():
    # the double triangle has every body on the axes; the fallback rows
    # report ambient gradient components, which still vanish here
    fix = FIXTURE_BUILDERS["double_triangle_s3"](1.0)
    res = criterion_residual(fix.config, 0.0)
    assert res.shape == (18,)
    assert np.max(np.abs(res)) < 1e-9


def _criterion_residual_by_body(config, lam):
    """criterion_residual's rows worked out one body at a time."""
    Q = config.points
    G = grad_U(config) - lam * grad_I(config)
    r2 = Q[:, 0] ** 2 + Q[:, 1] ** 2
    rho2 = config.space.sigma * Q[:, 2] ** 2 + Q[:, 3] ** 2
    if config.space is Space.S3:
        on_axes = np.sqrt(r2 * np.abs(rho2)) < EPS_AXIS
    else:
        on_axes = np.sqrt(r2) < EPS_AXIS
    out = np.empty(3 * config.n)
    for i, (x, y, z, w) in enumerate(Q):
        if on_axes[i]:
            keep = [k for k in range(4) if k != int(np.argmax(np.abs(Q[i])))]
            out[3 * i : 3 * i + 3] = G[i, keep]
        else:
            out[3 * i] = G[i, 0] * x + G[i, 1] * y
            out[3 * i + 1] = -G[i, 0] * y + G[i, 1] * x
            out[3 * i + 2] = -G[i, 2] * w + G[i, 3] * z
    return out


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_criterion_residual_equals_a_per_body_loop_bitwise(space):
    rng = np.random.default_rng(11)
    axis = [0.0, 0.0, 0.6, 0.8] if space is Space.S3 else [0.0, 0.0, 0.75, 1.25]
    configs = [FIXTURE_BUILDERS["double_triangle_s3"](1.0).config]
    for n in range(1, 7):
        cfg = random_config(space, n, rng)
        on_axis = cfg.points.copy()
        on_axis[0] = axis  # body 0 takes the on-axes branch
        configs += [cfg, cfg.with_points(on_axis)]
    for cfg in configs:
        lam = float(rng.normal())
        got = criterion_residual(cfg, lam)
        assert got.tobytes() == _criterion_residual_by_body(cfg, lam).tobytes()


@pytest.mark.parametrize("fix", FIXTURES, ids=lambda f: f.name)
def test_orthogonality_relations_vanish_on_solutions(fix):
    assert max(abs(v) for v in orthogonality_relations(fix.config)) < 1e-10


def test_orthogonality_relations_flag_non_solutions():
    rng = np.random.default_rng(11)
    cfg = random_config(Space.S3, 4, rng)
    # generic clouds fail at least one of the four mixed moments
    assert max(abs(v) for v in orthogonality_relations(cfg)) > 1e-3


# ─── classification ──────────────────────────────────────────────────────


@pytest.mark.parametrize(
    "name,args,expected",
    [
        ("acute_triangle_s1", (2 * np.pi / 3, 2 * np.pi / 3), CCClass.GEODESIC),
        ("geodesic_s1_isosceles", (1.0, 0.6), CCClass.GEODESIC),
        ("geodesic_h1", (1.0, 0.7), CCClass.GEODESIC),
        ("lagrangian_s2", (1.0, 0.5), CCClass.SPHERE_S2),
        ("tetrahedron_s2", (1.0,), CCClass.SPHERE_S2),
        ("lagrangian_h2", (1.0, 0.8), CCClass.HYPERBOLIC_H2),
        ("pentatope_s3", (1.0,), CCClass.FULL_S3),
        ("double_triangle_s3", (1.0,), CCClass.FULL_S3),
        ("example2_h3", (), CCClass.GEODESIC),
    ],
)
def test_classify_known_shapes(name, args, expected):
    assert classify(FIXTURE_BUILDERS[name](*args).config) is expected


def test_classify_generic_clouds_fill_the_space():
    rng = np.random.default_rng(3)
    assert classify(random_config(Space.S3, 5, rng)) is CCClass.FULL_S3
    assert classify(random_config(Space.H3, 5, rng)) is CCClass.FULL_H3


# ─── the spherical involution ────────────────────────────────────────────


def test_swap_involution_negates_multiplier():
    fix = FIXTURE_BUILDERS["lagrangian_s2"](1.0, 0.5)
    total = float(np.sum(fix.config.masses))
    swapped = swap_xy_zw(fix.config)
    assert lambda_estimate(swapped) == pytest.approx(-fix.expected_lambda, rel=1e-10)
    _, rmax = cc_residual(swapped, -fix.expected_lambda)
    assert rmax < 1e-9
    assert moment_of_inertia(swapped) == pytest.approx(
        total - moment_of_inertia(fix.config), rel=1e-12
    )
    back = swap_xy_zw(swapped)
    assert np.allclose(back.points, fix.config.points, atol=1e-15)


def test_swap_rejects_hyperbolic_input():
    fix = FIXTURE_BUILDERS["lagrangian_h2"](1.0, 0.8)
    with pytest.raises(ValueError):
        swap_xy_zw(fix.config)


# ─── canonical form and equivalence ──────────────────────────────────────


def _block_element(space, t1, t2):
    if space is Space.S3:
        gen = IsometryGenerator(GeneratorKind.DOUBLE_ROTATION, alpha=1.0, beta=t2 / t1 if t1 else 1.0)
        A = isometry_matrix(gen, t1)
    else:
        gen = IsometryGenerator(GeneratorKind.ROTATION_BOOST, alpha=1.0, beta=0.9)
        A = isometry_matrix(gen, t1)
    return A


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_canonicalize_idempotent(space):
    rng = np.random.default_rng(17)
    for _ in range(5):
        cfg = random_config(space, 4, rng)
        c1, T = canonicalize(cfg)
        c2, _ = canonicalize(c1)
        assert np.max(np.abs(c1.points - c2.points)) < 1e-10
        assert np.allclose(c1.points, cfg.points @ T.T)


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_canonicalize_fixes_the_gauge(space):
    rng = np.random.default_rng(19)
    cfg = random_config(space, 4, rng)
    can, _ = canonicalize(cfg)
    Q = can.points
    r = np.hypot(Q[:, 0], Q[:, 1])
    i = int(np.nonzero(r > 1e-9)[0][0])
    assert abs(Q[i, 1]) < 1e-12 and Q[i, 0] > 0.0
    if space is Space.S3:
        rho = np.hypot(Q[:, 2], Q[:, 3])
        j = int(np.nonzero(rho > 1e-9)[0][0])
        assert abs(Q[j, 3]) < 1e-12 and Q[j, 2] > 0.0
    else:
        m = can.masses
        assert abs(float(np.sum(m * Q[:, 2] * Q[:, 3]))) < 1e-10


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_canonicalize_absorbs_block_isometries(space):
    rng = np.random.default_rng(23)
    cfg = random_config(space, 4, rng)
    A = _block_element(space, 0.83, 1.41)
    moved = cfg.with_points(cfg.points @ A.T)
    c1, _ = canonicalize(cfg)
    c2, _ = canonicalize(moved)
    assert np.max(np.abs(c1.points - c2.points)) < 1e-9
    assert equivalent(cfg, moved)


def test_equivalent_rejects_non_isometric_pairs():
    rng = np.random.default_rng(29)
    cfg = random_config(Space.S3, 3, rng)
    Q = cfg.points.copy()
    Q[1] = Q[1] + 0.05
    other = Configuration.from_raw(Space.S3, cfg.masses, Q)
    assert not equivalent(cfg, other)
    heavier = Configuration(Space.S3, cfg.masses * 2.0, cfg.points)
    assert not equivalent(cfg, heavier)


# ─── level-set solver ────────────────────────────────────────────────────


def test_level_set_validation():
    masses = [1.0, 2.0, 3.0]
    LevelSetSpec(2.5).validate(Space.S3, masses)
    with pytest.raises(OutOfRangeError):
        LevelSetSpec(0.0).validate(Space.S3, masses)
    with pytest.raises(OutOfRangeError):
        LevelSetSpec(6.0).validate(Space.S3, masses)
    with pytest.raises(OutOfRangeError):
        LevelSetSpec(3.0).validate(Space.S3, masses)  # subset sum {3} / {1,2}
    LevelSetSpec(7.3).validate(Space.H3, masses)
    with pytest.raises(OutOfRangeError):
        LevelSetSpec(-1.0).validate(Space.H3, masses)
    with pytest.raises(OutOfRangeError):
        LevelSetSpec(0.0).validate(Space.H3, masses)
    for space in (Space.S3, Space.H3):
        for c in (math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfRangeError, match="finite"):
                LevelSetSpec(c).validate(space, masses)
        for tol in (math.nan, math.inf, 0.0, -1e-10):
            with pytest.raises(OutOfRangeError, match="tolerance"):
                LevelSetSpec(2.5, tol=tol).validate(space, masses)


def _brute_force_subset_hit(masses, c):
    n = len(masses)
    return any(
        abs(c - float(np.sum(masses[list(idx)]))) < 1e-9
        for k in range(1, n + 1)
        for idx in itertools.combinations(range(n), k)
    )


def test_level_set_validation_matches_brute_force():
    rng = np.random.default_rng(20)
    for trial in range(300):
        n = int(rng.integers(1, 13))
        masses = rng.uniform(0.1, 3.0, n)
        if trial % 3 == 0:
            masses = np.round(masses, 1)  # many coinciding subset sums
        total = float(np.sum(masses))
        pick = rng.random(n) < 0.5
        if trial % 2 == 0 and 0 < pick.sum():
            # a level within a few 1e-9 of a subset sum, on either side of the cut
            c = float(np.sum(masses[pick])) + rng.uniform(-2e-9, 2e-9)
        else:
            c = total * rng.uniform(0.01, 0.99)
        expect_reject = not 0.0 < c < total or _brute_force_subset_hit(masses, c)
        try:
            LevelSetSpec(c).validate(Space.S3, masses)
            rejected = False
        except OutOfRangeError:
            rejected = True
        assert rejected == expect_reject, (masses, c)


def test_level_set_validation_names_the_subset():
    masses = np.array([1.0, 2.0, 3.5])
    with pytest.raises(OutOfRangeError, match=r"subset sum over \(0, 2\)"):
        LevelSetSpec(4.5).validate(Space.S3, masses)
    # N = 40 takes a quarter second; beyond that the sum tables grow past 64 MiB
    masses = np.random.default_rng(3).uniform(0.5, 2.0, 41)
    LevelSetSpec(0.5).validate(Space.S3, masses[:40])
    with pytest.raises(OutOfRangeError, match="41 bodies"):
        LevelSetSpec(0.5).validate(Space.S3, masses)


@pytest.mark.parametrize("space,c", [(Space.S3, 0.4), (Space.S3, 2.2), (Space.H3, 1.0), (Space.H3, 4.0)])
def test_default_seed_sits_on_the_level_set(space, c):
    masses = np.array([1.0, 1.5, 0.7])
    cfg = default_seed(masses, space, c, rng=np.random.default_rng(5))
    assert moment_of_inertia(cfg) == pytest.approx(c, abs=1e-12)


def test_find_cc_descent_sphere():
    cfg, report = find_cc(
        [1.0, 1.0, 1.0], Space.S3, LevelSetSpec(0.4), rng=np.random.default_rng(0)
    )
    assert report.residual_max < 1e-9
    assert moment_of_inertia(cfg) == pytest.approx(0.4, abs=1e-9)
    assert report.cc_class is CCClass.SPHERE_S2
    assert max(abs(v) for v in report.orth) < 1e-9


def test_find_cc_descent_hyperbolic():
    cfg, report = find_cc(
        [1.0, 2.0], Space.H3, LevelSetSpec(1.0), rng=np.random.default_rng(1)
    )
    assert report.residual_max < 1e-9
    assert moment_of_inertia(cfg) == pytest.approx(1.0, abs=1e-9)
    assert report.cc_class is CCClass.GEODESIC


def test_find_cc_saddle_mode_recovers_perturbed_solution():
    fix = FIXTURE_BUILDERS["lagrangian_s2"](1.0, 0.5)
    rng = np.random.default_rng(7)
    Q = fix.config.points + 1e-3 * rng.standard_normal((3, 4))
    seed = Configuration.from_raw(Space.S3, fix.config.masses, Q)
    c = moment_of_inertia(seed)
    cfg, report = find_cc(
        fix.config.masses, Space.S3, LevelSetSpec(c), seed=seed, mode="saddle"
    )
    assert report.residual_max < 1e-9
    assert moment_of_inertia(cfg) == pytest.approx(c, abs=1e-9)


def test_find_cc_is_deterministic_for_a_fixed_generator_seed():
    args = ([1.0, 1.2, 0.8], Space.S3, LevelSetSpec(0.5))
    a, _ = find_cc(*args, rng=np.random.default_rng(42))
    b, _ = find_cc(*args, rng=np.random.default_rng(42))
    assert np.array_equal(a.points, b.points)


def test_find_cc_reports_a_near_antipodal_handoff_as_singular(monkeypatch):
    # the descent drives one pair within 1e-9 of antipodal on this S3 level,
    # and the undamped Newton run fails at its starting point, so no damped
    # run follows
    calls = _spy_kkt_newton(monkeypatch)
    masses = [0.6723989499213578, 1.593522675614464, 1.8911358929368398]
    with pytest.raises(SingularApproachError) as info:
        find_cc(masses, Space.S3, LevelSetSpec(2.4409014417556723),
                rng=np.random.default_rng(0))
    assert isinstance(info.value.__cause__, NoConvergenceError)
    assert calls == [{}]


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
@pytest.mark.parametrize("alpha", [1e-6, 1e-8, 2.0**-20])
def test_find_cc_refuses_a_point_that_only_the_absolute_tolerance_accepts(
        space, alpha):
    # at masses this small every criterion row is below the absolute 1e-10,
    # yet the rows are 9 % (S3) and 2 % (H3) of the largest pair force: the
    # descent's point is not a CC, and the certificate refuses it
    with pytest.raises(NoConvergenceError, match="of the largest pair force"):
        find_cc(np.array([1.0, 2.0, 3.0]) * alpha, space, LevelSetSpec(0.4 * alpha),
                rng=np.random.default_rng(0))


def test_find_cc_certifies_a_special_cc_against_its_pair_forces():
    # draw 21 of the cc_search recipe's S3 problems (default_rng(0)): grad U
    # vanishes here, so rows at a relative 8.6e-12 of the largest pair force
    # are of the order of |grad U| itself, and a certificate scaled by
    # |grad U| would refuse this CC
    masses, c = [1.1219837740335061, 1.601725357683094, 1.5667143169846247], 2.4576569837543065
    cfg, report = find_cc(masses, Space.S3, LevelSetSpec(c), rng=np.random.default_rng(0))
    assert report.is_special
    crit = np.max(np.abs(criterion_residual(cfg, report.lam)))
    assert crit > 1e-8 * np.max(np.linalg.norm(grad_U(cfg), axis=1))


def test_find_cc_builds_each_gradient_once_after_newton(monkeypatch):
    # the closing checks and the report share one grad U and one grad I
    calls = []
    monkeypatch.setattr(centralconfig, "grad_U", _counting(calls, grad_U))
    monkeypatch.setattr(centralconfig, "grad_I", _counting(calls, grad_I))
    for masses, space, c in (([1.0, 1.2, 0.8], Space.S3, 0.5),
                             ([1.0, 2.0, 1.5], Space.H3, 0.9),
                             (np.linspace(1.0, 2.0, 5), Space.H3, 1.0)):
        calls.clear()
        find_cc(masses, space, LevelSetSpec(c), rng=np.random.default_rng(0))
        assert calls == [grad_U, grad_I]


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("off", [0.8, 1.2])
def test_restore_level_is_quadratic_on_h3(r, off):
    # the Newton step along grad I must divide by the sigma-metric slope;
    # a Euclidean denominator converges only linearly this far out
    rng = np.random.default_rng(int(10 * r))
    m = np.array([1.0, 1.7, 0.6])
    phi = rng.uniform(0.0, 2.0 * np.pi, 3)
    rr = r * rng.uniform(0.8, 1.0, 3)
    rho = np.sqrt(1.0 + rr * rr)
    t = rng.uniform(-0.5, 0.5, 3)
    Q = np.stack([rr * np.cos(phi), rr * np.sin(phi),
                  rho * np.sinh(t), rho * np.cosh(t)], axis=1)
    c = off * moment_of_inertia(Configuration(Space.H3, m, Q))
    out, _ = _restore_level(Space.H3, m, Q, c, max_iter=6)
    assert moment_of_inertia(Configuration(Space.H3, m, out)) == pytest.approx(
        c, rel=1e-12
    )


# find_cc([1.0, 1.2, 0.8], S3, I = 0.5, rng = default_rng(42)) as computed with
# Euclidean sums in the descent; the sigma metric on S3 is term for term the
# same arithmetic, so the sphere's iterates must not move by a single bit
_S3_PINNED = [
    ["0x1.a60d664310fa6p-2", "-0x1.77873982b8492p-5", "0x1.d1e5ed7135080p-1", "0x0.0p+0"],
    ["-0x1.a18f3c6c087ffp-3", "0x1.325fc18ac694ep-2", "0x1.dd437785afe92p-1", "0x0.0p+0"],
    ["-0x1.a8428bdda15acp-3", "-0x1.a6ce70d2d0b47p-2", "0x1.c6187fb85f1dep-1", "0x0.0p+0"],
]


def test_find_cc_sphere_points_are_pinned_bitwise():
    cfg, _ = find_cc(
        [1.0, 1.2, 0.8], Space.S3, LevelSetSpec(0.5), rng=np.random.default_rng(42)
    )
    expected = np.array([[float.fromhex(v) for v in row] for row in _S3_PINNED])
    assert np.array_equal(cfg.points, expected)


# the descent hands Newton a pair at 1 + s = 1.009e-9 on this level, and
# Newton charts 49 times on its way out; recorded with one probe at a time
_DRAW4 = ([1.7947683835248298, 1.3121918303736375, 0.9495678358060772],
          1.4971626375568972)
_S3_PINNED_LONG_NEWTON = [
    ["0x1.36643cba7752dp-3", "0x1.b75c31f4edea8p-2", "-0x1.c7eb92b123163p-1", "0x0.0p+0"],
    ["-0x1.3439435c35a84p-2", "-0x1.b44aa0b1a9a63p-1", "-0x1.b6601c36f44e5p-2", "0x0.0p+0"],
    ["-0x1.44cbc00ec09e7p-4", "-0x1.cbbfe164e524ep-3", "-0x1.f1471547cf8c4p-1", "0x0.0p+0"],
]


def test_find_cc_sphere_points_are_pinned_bitwise_after_a_long_newton_run():
    masses, c = _DRAW4
    cfg, _ = find_cc(masses, Space.S3, LevelSetSpec(c), rng=np.random.default_rng(1))
    expected = np.array(
        [[float.fromhex(v) for v in row] for row in _S3_PINNED_LONG_NEWTON]
    )
    assert np.array_equal(cfg.points, expected)


# draw 9 of the cc_search distribution (panel seed 0) at rng 1: the H3 descent
# restores the level about 2800 times before Newton, so every descent iterate
# and every trial's U shows in these bits
_H3_LONG_DESCENT = ([1.2287530382476837, 1.8342317515235003, 1.9010652739343745],
                    0.8893201130693243)
_H3_PINNED_LONG_DESCENT = [
    ["-0x1.32b315e108865p-1", "0x0.0p+0", "0x0.0p+0", "0x1.2a6a83e62f50bp+0"],
    ["-0x1.50ff2f93f56b6p-4", "0x0.0p+0", "0x0.0p+0", "0x1.00dd6fa8a52a8p+0"],
    ["0x1.ea63b789d2e0dp-2", "0x0.0p+0", "0x0.0p+0", "0x1.1bd77a721c7c2p+0"],
]


def test_find_cc_hyperbolic_points_are_pinned_bitwise_after_a_long_descent():
    masses, c = _H3_LONG_DESCENT
    cfg, report = find_cc(masses, Space.H3, LevelSetSpec(c),
                          rng=np.random.default_rng(1))
    expected = np.array(
        [[float.fromhex(v) for v in row] for row in _H3_PINNED_LONG_DESCENT]
    )
    assert np.array_equal(cfg.points, expected)
    assert report.lam == float.fromhex("-0x1.83b9e677d248cp+2")


def _draw_cc_problem(rng, space):
    """The cc_search benchmark's problem recipe: masses U(0.5, 2); level
    c = sum(m) U(0.2, 0.6) on S3, log-uniform on [0.5, 2.5] on H3, drawn
    again while LevelSetSpec.validate refuses it."""
    masses = rng.uniform(0.5, 2.0, size=3)
    while True:
        if space is Space.S3:
            c = float(np.sum(masses)) * rng.uniform(0.2, 0.6)
        else:
            c = math.exp(rng.uniform(math.log(0.5), math.log(2.5)))
        try:
            LevelSetSpec(c).validate(space, masses)
        except OutOfRangeError:
            continue
        return masses, float(c), space


# the cc_search panel: draws 0-11 and 22 of panel seed 0, S3 at even draws
_CC_PANEL = tuple(range(12)) + (22,)
_CC_PANEL_DIGEST = (
    "96d3dfec965b9a019f4f1240b97dbf90036ce741b2732677c7b8110ecafb9fe8"
)


def _cc_panel():
    rng = np.random.default_rng(0)
    drawn = [_draw_cc_problem(rng, Space.S3 if k % 2 == 0 else Space.H3)
             for k in range(max(_CC_PANEL) + 1)]
    return [drawn[k] for k in _CC_PANEL]


def _find_cc_record(masses, space, c, **kw):
    """find_cc's points and lambda as hex, or its error's class and message."""
    try:
        cfg, report = find_cc(masses, space, LevelSetSpec(c), **kw)
        return [cfg.points.tobytes().hex(), float(report.lam).hex()]
    except CurvedNBodyError as exc:
        return [type(exc).__name__, str(exc)]


def _cc_panel_digest():
    # every attempt at rng 0-4, not only the first success: the failures'
    # classes and messages are part of the record
    h = hashlib.sha256()
    for masses, c, space in _cc_panel():
        for k in range(5):
            rec = _find_cc_record(masses, space, c, rng=np.random.default_rng(k))
            h.update(repr(rec).encode())
    return h.hexdigest()


def test_find_cc_is_pinned_bitwise_on_the_cc_search_panel():
    # at three bodies the descent runs on float rows
    assert _cc_panel_digest() == _CC_PANEL_DIGEST


def test_find_cc_array_descent_is_pinned_bitwise_on_the_cc_search_panel(monkeypatch):
    # with no float loops, the descent and Newton's single-point chart
    # evaluations and stopping test all run on arrays
    monkeypatch.setattr(dynamics, "_PAIR_LOOP_MAX_N", 0)
    assert _cc_panel_digest() == _CC_PANEL_DIGEST


# mode="saddle" at rng 0 on the panel's seven S3 draws: five solve in a few
# damped steps, draws 4 and 8 run all 200 iterations to NoConvergenceError,
# so every backtracking trial of the damped path shows in these bits
_SADDLE_PANEL_DIGEST = (
    "a3fbb914d7e0f248c2c76c996bdf8d290212199b41234ad52270421682d47106"
)


def test_find_cc_saddle_mode_is_pinned_bitwise_on_the_cc_search_panel():
    h = hashlib.sha256()
    for masses, c, space in _cc_panel():
        if space is Space.S3:
            rec = _find_cc_record(masses, space, c, mode="saddle",
                                  rng=np.random.default_rng(0))
            h.update(repr(rec).encode())
    assert h.hexdigest() == _SADDLE_PANEL_DIGEST


# ─── the descent on float rows against the array descent ─────────────────


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _outcome(fn):
    """("ok", result) or the class and message of the package error fn raises."""
    try:
        return "ok", fn()
    except CurvedNBodyError as exc:
        return type(exc).__name__, str(exc)


def _both_descents(space, m, c):
    kernel = _ForceKernel(space, np.asarray(m, dtype=float))
    return _ArrayOps(kernel, c), _RowOps(kernel, c)


def _assert_same_restoration(arrays, rows, trial):
    """trial(ops) is the point handed to ops.restore; both descents must
    give the same points and Gram matrix, or the same error."""
    want = _outcome(lambda: arrays.restore(trial(arrays)))
    got = _outcome(lambda: rows.restore(trial(rows)))
    if want[0] != "ok":
        assert got == want
        return want[0]
    assert got[0] == "ok"
    (Q, s), (q, sr) = want[1], got[1]
    assert _bits(q) == _bits(Q) and _bits(sr) == _bits(s)
    assert _bits(rows.potential(sr)) == _bits(arrays.potential(s))
    return "ok"


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([Space.S3, Space.H3]),
       st.integers(2, dynamics._PAIR_LOOP_MAX_N),
       st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
def test_the_row_descent_is_the_array_descent_bit_for_bit(seed, space, n, gamma):
    # U, the projected residual, the trial's reprojection and the level
    # restoration, from points off the level: each in floats is the array
    # code's result, or its error and message, to the bit
    rng = np.random.default_rng(seed)
    cfg = random_config(space, n, rng)
    Q = cfg.points
    c = moment_of_inertia(cfg) * rng.uniform(0.7, 1.3)
    arrays, rows = _both_descents(space, cfg.masses, c)
    s = _check_points(space, Q)
    assert _bits(rows.potential(s.tolist())) == _bits(arrays.potential(s))
    R, lam, rnorm2 = arrays.direction(Q, s)
    Rr, lam_r, rnorm2_r = rows.direction(Q.tolist(), s.tolist())
    assert _bits(Rr) == _bits(R) and _bits([lam_r, rnorm2_r]) == _bits([lam, rnorm2])
    _assert_same_restoration(arrays, rows, lambda ops: Q if ops is arrays else Q.tolist())
    _assert_same_restoration(
        arrays, rows, lambda ops: (arrays.trial(Q, gamma, R) if ops is arrays
                                   else rows.trial(Q.tolist(), gamma, Rr)))


def _pair_near_a_bound(space, bound, ulps, rng, n):
    """n random points with pair (0, 1) at sigma-inner product about ulps
    ulps from a singular bound: S3's coinciding or antipodal one, H3's
    coinciding one."""
    Q = random_config(space, n, rng).points.copy()
    lo, hi = dynamics._singular_bounds(space)
    edge = hi if bound == "coinciding" and space is Space.S3 else lo
    target = edge + ulps * math.ulp(edge)
    t = project_tangent(Q[0], rng.standard_normal(4), space)
    t /= math.sqrt(inner(t, t, space))
    if space is Space.S3:
        d = math.acos(target)
        Q[1] = math.cos(d) * Q[0] + math.sin(d) * t
    else:
        d = math.acosh(target)
        Q[1] = math.cosh(d) * Q[0] + math.sinh(d) * t
    return Q


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([(Space.S3, "coinciding"), (Space.S3, "antipodal"),
                        (Space.H3, "coinciding")]),
       st.integers(2, dynamics._PAIR_LOOP_MAX_N), st.integers(-6, 6),
       st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6]))
def test_a_restoration_next_to_a_singular_bound_is_the_array_one(
        seed, where, n, ulps, off):
    # the restoration checks the iterates it does not return in floats,
    # clearing each pair by a rounding margin; an iterate with a pair a few
    # ulps from a bound must pass or raise exactly as the BLAS check does
    space, bound = where
    rng = np.random.default_rng(seed)
    Q = _pair_near_a_bound(space, bound, ulps, rng, n)
    m = rng.uniform(0.5, 2.0, n)
    c = float(m @ (Q[:, 0] ** 2 + Q[:, 1] ** 2)) * (1.0 + off)
    arrays, rows = _both_descents(space, m, c)
    _assert_same_restoration(arrays, rows,
                             lambda ops: Q if ops is arrays else Q.tolist())


def _counting(calls, fn):
    def counted(*args, **kw):
        calls.append(fn)
        return fn(*args, **kw)
    return counted


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_one_restoration_builds_one_gram_matrix(space, monkeypatch):
    # the iterates the restoration discards are checked in floats; only the
    # one it returns builds the BLAS Gram product.  The reference's float
    # checks count the iterates; the generated restoration's Gram products
    # are counted through the calls that build one
    cfg = random_config(space, 3, np.random.default_rng(11))
    kernel = _ForceKernel(space, cfg.masses)
    c = moment_of_inertia(cfg) * 1.05
    floats = []
    monkeypatch.setattr(row_descent, "_check_rows_float",
                        _counting(floats, row_descent._check_rows_float))
    want = LoopDescent(kernel, c).restore(cfg.points.tolist())
    rows, grams = _RowOps(kernel, c), []
    names = rows.restore.__globals__
    for name in ("_check_points", "_gram_rows"):
        monkeypatch.setitem(names, name, _counting(grams, names[name]))
    got = rows.restore(cfg.points.tolist())
    assert len(floats) >= 3 and len(grams) == 1
    assert _flat_bits(got) == _flat_bits(want)


def _flat_bits(x):
    """The bytes of the floats of a nest of lists and tuples, in order."""
    def flat(x):
        return ([v for item in x for v in flat(item)]
                if isinstance(x, (list, tuple)) else [x])
    return np.array(flat(x), dtype=float).tobytes()


def _assert_same_outcome(want, got):
    """want() and got() return the same floats, or raise the same package
    error with the same message.  Returns the outcome's name."""
    want, got = _outcome(want), _outcome(got)
    if want[0] != "ok":
        assert got == want
    else:
        assert got[0] == "ok" and _flat_bits(got[1]) == _flat_bits(want[1])
    return want[0]


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([Space.S3, Space.H3]),
       st.integers(1, dynamics._PAIR_LOOP_MAX_N),
       st.sampled_from(["random", "near a bound", "NaN", "off shell",
                        "below w = 0"]),
       st.floats(1e-3, 10.0), st.floats(-0.3, 0.3), st.integers(-6, 6))
def test_the_generated_descent_is_the_row_loops_bit_for_bit(
        seed, space, n, case, gamma, off, ulps):
    # each of the four generated operations against the hand-written row
    # loops (row_descent.LoopDescent): the same bits, signed zeros
    # included, or the same error and message.  Points come at random, with
    # pair (0, 1) a few ulps from a singular bound, with a NaN coordinate,
    # with a row off the shell, or, on H3, with a trial below w = 0
    rng = np.random.default_rng(seed)
    if case == "near a bound" and n > 1:
        bound = rng.choice(["coinciding", "antipodal"] if space is Space.S3
                           else ["coinciding"])
        Q = _pair_near_a_bound(space, bound, ulps, rng, n)
    else:
        Q = random_config(space, n, rng).points.copy()
    m = rng.uniform(0.5, 2.0, n)
    c = float(m @ (Q[:, 0] ** 2 + Q[:, 1] ** 2)) * (1.0 + off)
    if case == "NaN":
        Q[rng.integers(n), rng.integers(4)] = np.nan
    elif case == "off shell":
        Q[rng.integers(n)] *= rng.uniform(0.5, 1.5)
    kernel = _ForceKernel(space, m)
    loops, rows = LoopDescent(kernel, c), _RowOps(kernel, c)
    q = Q.tolist()
    R = rng.standard_normal((n, 4)).tolist()
    try:
        s = _check_points(space, Q).tolist()
    except CurvedNBodyError:
        s = None
    if s is not None:
        _assert_same_outcome(lambda: loops.potential(s), lambda: rows.potential(s))
        _assert_same_outcome(lambda: loops.direction(q, s), lambda: rows.direction(q, s))
        R = loops.direction(q, s)[0]
    if case == "below w = 0" and space is Space.H3:
        # body 0's trial row is -u q_0, u > 0.5: below w = 0
        R[0] = (Q[0] * (1.0 + rng.uniform(0.5, 3.0)) / gamma).tolist()
    _assert_same_outcome(lambda: loops.trial(q, gamma, R), lambda: rows.trial(q, gamma, R))
    _assert_same_outcome(lambda: loops.restore(q), lambda: rows.restore(q))
    try:
        t = loops.trial(q, gamma, R)
    except CurvedNBodyError:
        return
    _assert_same_outcome(lambda: loops.restore(t), lambda: rows.restore(t))


@pytest.mark.parametrize("masses, space, c, seed", [
    (_DRAW4[0], Space.S3, _DRAW4[1], 1),
    (_H3_LONG_DESCENT[0], Space.H3, _H3_LONG_DESCENT[1], 1),
    ([1.0, 1.2, 0.8], Space.S3, 0.5, 42),
])
def test_newton_builds_the_stationarity_rows_once_per_chart_point(
        masses, space, c, seed, monkeypatch):
    # each chart point (the origins and every trial) builds grad U - lam
    # grad I once; the stopping test builds them only at the starting point
    # of each Newton run, and at every other point reuses the trial's rows.
    # The generated functions build grad U through one BLAS product,
    # _force_rows, whose calls are counted inside the chart's two calls
    built, points, starts, fresh = [], [], [], []
    names = centralconfig._row_ops_factory(space, len(masses)).__globals__
    row_ops = centralconfig._row_ops

    def builds(into, fn):
        def counted(*args):
            before = len(built)
            out = fn(*args)
            into.append(len(built) - before)
            return out
        return counted

    def counted_ops(kernel, c):
        *descent, residuals, criterion = row_ops(kernel, c)
        return (*descent, builds(points, residuals), builds(fresh, criterion))

    monkeypatch.setitem(names, "_force_rows", _counting(built, names["_force_rows"]))
    monkeypatch.setattr(centralconfig, "_row_ops", counted_ops)
    monkeypatch.setattr(_RowOps, "start", _counting(starts, _RowOps.start))
    find_cc(masses, space, LevelSetSpec(c), rng=np.random.default_rng(seed))
    assert len(fresh) > len(starts) >= 1
    assert sum(fresh) == len(starts) and fresh[0] == 1
    assert sum(points) + sum(fresh) == len(points) + len(starts)


def _spy_ops(monkeypatch):
    """The ops object that each _descend and _kkt_newton call takes, by
    the function's name."""
    seen = {"_descend": [], "_kkt_newton": []}
    for name in seen:
        def spy(ops, *args, _name=name, _original=getattr(centralconfig, name), **kw):
            seen[_name].append(ops)
            return _original(ops, *args, **kw)

        monkeypatch.setattr(centralconfig, name, spy)
    return seen


def _ops_of_a_search(n, monkeypatch):
    """The ops objects that a short H3 search with N unit masses hands to
    _descend and _kkt_newton, and the kind that N picks: rows of floats up
    to the pair loop size, arrays above."""
    seen = _spy_ops(monkeypatch)
    try:
        find_cc(np.ones(n), Space.H3, LevelSetSpec(1.0),
                rng=np.random.default_rng(0), max_iter=2)
    except CurvedNBodyError:
        pass
    kind = _RowOps if n <= dynamics._PAIR_LOOP_MAX_N else _ArrayOps
    return seen, kind


@pytest.mark.parametrize("n", range(2, 7))
def test_the_descent_runs_on_rows_up_to_the_pair_loop_size(n, monkeypatch):
    seen, kind = _ops_of_a_search(n, monkeypatch)
    assert seen["_descend"]
    assert all(type(ops) is kind for ops in seen["_descend"])


@pytest.mark.parametrize("n", range(2, 7))
def test_newton_charts_on_rows_up_to_the_pair_loop_size(n, monkeypatch):
    # every Newton run takes the one ops object that served the descent
    seen, kind = _ops_of_a_search(n, monkeypatch)
    assert seen["_descend"] and seen["_kkt_newton"]
    ops = seen["_descend"] + seen["_kkt_newton"]
    assert type(ops[0]) is kind and all(x is ops[0] for x in ops)


@pytest.mark.parametrize("masses, space, c, mode, seed, runs", [
    ([1.0, 1.5], Space.S3, 0.5, "descent", 0, 1),
    ([1.0, 1.2, 0.8, 0.9], Space.H3, 1.0, "descent", 0, 1),
    ([1.0, 1.2, 0.8], Space.S3, 0.5, "saddle", 0, 1),
    # a cc_search panel draw whose undamped run fails after a step, and
    # whose damped retry fails too (SingularApproachError)
    ([0.7026447575336168, 1.5822325102911226, 1.2880314837135889], Space.S3,
     1.1579681152189687, "descent", 3, 2),
])
def test_one_search_builds_its_row_functions_once(masses, space, c, mode, seed, runs,
                                                  monkeypatch):
    # the seed's restoration, the descent and every Newton run take the six
    # functions of one _row_ops build
    built = []
    monkeypatch.setattr(centralconfig, "_row_ops",
                        _counting(built, centralconfig._row_ops))
    calls = _spy_kkt_newton(monkeypatch)
    _outcome(lambda: find_cc(masses, space, LevelSetSpec(c), mode=mode,
                             rng=np.random.default_rng(seed)))
    assert len(calls) == runs and len(built) == 1


def test_one_key_compiles_one_descent(monkeypatch):
    # the key is (space, N): one compile serves the descent and Newton's
    # chart, searches with other masses and levels share the functions,
    # another space compiles its own
    centralconfig._row_ops_factory.cache_clear()
    built = []
    source = centralconfig._row_ops_source
    monkeypatch.setattr(centralconfig, "_row_ops_source",
                        lambda *key: built.append(key) or source(*key))
    for masses, space, c in (([1.0, 1.2, 0.8], Space.S3, 0.5),
                             ([0.7, 1.9, 1.1], Space.S3, 1.0),
                             ([1.0, 1.2, 0.8], Space.S3, 0.5),
                             ([1.0, 2.0, 1.5], Space.H3, 0.9)):
        find_cc(masses, space, LevelSetSpec(c), rng=np.random.default_rng(0))
    assert built == [(Space.S3, 3), (Space.H3, 3)]
    _RowOps(_ForceKernel(Space.H3, np.ones(2)), 1.0)
    assert built == [(Space.S3, 3), (Space.H3, 3), (Space.H3, 2)]


def _faulty_trial(space, case):
    """A configuration, a level and the point one descent trial hands to
    the restoration, as a function of the descent's operations."""
    cfg = random_config(space, 3, np.random.default_rng(7))
    Q = cfg.points
    R = np.zeros_like(Q)
    if case == "singular pair":      # body 0 onto body 1
        R[0] = Q[0] - Q[1]
    elif case == "degenerate":       # body 0 to the origin, or below w = 0
        R[0] = Q[0] if space is Space.S3 else 2.0 * Q[0]
    bad = Q.copy()
    if case == "off shell":
        bad[1] *= 1.5
    elif case == "lower sheet":
        bad[1] *= -1.0

    def trial(ops):
        if case in ("off shell", "lower sheet"):
            return bad if isinstance(ops, _ArrayOps) else bad.tolist()
        if isinstance(ops, _ArrayOps):
            return ops.trial(Q, 1.0, R)
        return ops.trial(Q.tolist(), 1.0, R.tolist())

    return cfg.masses, moment_of_inertia(cfg), trial


@pytest.mark.parametrize("space, case, error", [
    (Space.S3, "singular pair", "SingularPairError"),
    (Space.H3, "singular pair", "SingularPairError"),
    (Space.S3, "off shell", "OffShellError"),
    (Space.H3, "off shell", "OffShellError"),
    (Space.H3, "lower sheet", "OffShellError"),
    (Space.S3, "degenerate", "DegenerateVectorError"),
    (Space.H3, "degenerate", "DegenerateVectorError"),
])
def test_the_row_descent_raises_what_the_array_descent_raises(space, case, error):
    m, c, trial = _faulty_trial(space, case)
    arrays, rows = _both_descents(space, m, c)
    assert _assert_same_restoration(arrays, rows, trial) == error


# ─── Newton's chart on float rows against the array chart ────────────────


def _both_charts(space, m, c):
    kernel = _ForceKernel(space, np.asarray(m, dtype=float))
    return _ArrayOps(kernel, c), _RowOps(kernel, c)


def _assert_same_chart_point(arrays, rows, Q, y):
    """Both charts at the chart point y around Q: the same frames, residual
    rows, points and stopping-test rows, or the same error and message.
    Returns the error's class name, or "ok"."""
    xa, xr = arrays.start(Q), rows.start(Q)
    fa, fr = arrays.frames(xa), rows.frames(xr)
    assert _bits(fr) == _bits(fa)
    assert _bits(rows.criterion(xr, y[-1])) == _bits(arrays.criterion(xa, y[-1]))
    want = _outcome(lambda: arrays.residuals(xa, fa, y))
    got = _outcome(lambda: rows.residuals(xr, fr, y))
    if want[0] != "ok":
        assert got == want
        return want[0]
    (G, Qx), (Gr, xt) = want[1], got[1]
    assert _bits(Gr) == _bits(G) and _bits(rows.array(xt)) == _bits(Qx)
    assert _bits(rows.criterion(xt, y[-1])) == _bits(arrays.criterion(Qx, y[-1]))
    return "ok"


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([Space.S3, Space.H3]),
       st.integers(2, dynamics._PAIR_LOOP_MAX_N),
       st.sampled_from([0.0, 1e-7, 1e-3, 0.1, 1.0]),
       st.sampled_from([None, "coinciding", "antipodal"]), st.integers(-6, 6))
def test_the_row_chart_is_the_array_chart_bit_for_bit(seed, space, n, step, bound, ulps):
    # the residual at the chart origin (step 0) and at a Newton trial, the
    # trial's point and the stopping test's criterion rows; S3 points with
    # w = 0, as find_cc's S3 results have, and signed zeros in the sums.
    # With a bound, the trial takes body 1 to a few ulps from that singular
    # bound with body 0 (H3 has only the coinciding one)
    rng = np.random.default_rng(seed)
    near = bound == "coinciding" or (bound == "antipodal" and space is Space.S3)
    if near:
        Q, y = _step_near_a_bound(space, bound, ulps, rng, n, rng.uniform(-3.0, 3.0))
    else:
        Q = random_config(space, n, rng).points
    if space is Space.S3 and seed % 2 and not near:
        Q = Q.copy()
        Q[:, 3] = -0.0 if seed % 4 == 1 else 0.0
        Q /= np.linalg.norm(Q, axis=1)[:, None]
    m = rng.uniform(0.5, 2.0, n)
    c = float(m @ (Q[:, 0] ** 2 + Q[:, 1] ** 2)) * rng.uniform(0.8, 1.2)
    if not near:
        y = np.append(step * rng.standard_normal(3 * n), rng.uniform(-3.0, 3.0))
    arrays, rows = _both_charts(space, m, c)
    outcome = _assert_same_chart_point(arrays, rows, Q, y)
    assert outcome in ("ok", "DegenerateVectorError", *["SingularPairError"] * near)


def _step_near_a_bound(space, bound, ulps, rng, n, lam):
    """An origin of n points and the chart point around it, at lambda lam,
    that takes body 1 to about ulps ulps from a singular bound with body 0
    (_pair_near_a_bound); the origin's body 1 sits a chart step of 1e-3
    away from there."""
    P = _pair_near_a_bound(space, bound, ulps, rng, n)
    Q = P.copy()
    t = project_tangent(P[1], rng.standard_normal(4), space)
    Q[1] = project_point(P[1] + 1e-3 * t / math.sqrt(inner(t, t, space)), space)
    # the multiple of P[1] whose step from Q[1] is tangent there
    raw = P[1] * (space.sigma / inner(P[1], Q[1], space))
    return Q, _chart_step(space, Q, lam, 1, raw)


def test_the_row_chart_sums_from_zero_as_einsum_does():
    # einsum starts each sum from 0.0, so the step X . bases is +0.0 even
    # when every product is -0.0, and a -0.0 coordinate plus it is +0.0
    cfg = random_config(Space.S3, 3, np.random.default_rng(3))
    Q = cfg.points.copy()
    Q[:, 3] = -0.0
    Q /= np.linalg.norm(Q, axis=1)[:, None]
    bases = _tangent_bases(Space.S3, Q)
    y = np.append(np.copysign(0.0, -bases[:, :, 3]).ravel(), 0.5)
    arrays, rows = _both_charts(Space.S3, cfg.masses, 0.5)
    assert _assert_same_chart_point(arrays, rows, Q, y) == "ok"
    _, Qx = arrays.residuals(Q, bases, y)
    assert not np.signbit(Qx[:, 3]).any()


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_the_row_chart_takes_a_body_on_the_axes_as_the_array_chart(space):
    # body 0 sits on the axes, where the stopping test's rows are three
    # gradient components, less the one along its largest coordinate
    rng = np.random.default_rng(4)
    Q = random_config(space, 3, rng).points.copy()
    Q[0] = [0.0, 0.0, 0.6, 0.8] if space is Space.S3 else [0.0, 0.0, 0.75, 1.25]
    arrays, rows = _both_charts(space, rng.uniform(0.5, 2.0, 3), 0.5)
    y = np.append(1e-3 * rng.standard_normal(9), 0.7)
    y[:3] = 0.0
    assert _assert_same_chart_point(arrays, rows, Q, y) == "ok"


def _chart_step(space, Q, lam, body, raw):
    """The chart point y around Q that moves one body to the raw point raw
    before the reprojection; raw - Q[body] must be tangent at Q[body]."""
    bases = _tangent_bases(space, Q)
    y = np.append(np.zeros(3 * len(Q)), lam)
    y[3 * body:3 * body + 3] = [inner(b, raw - Q[body], space) for b in bases[body]]
    return y


def _faulty_chart_step(space, case):
    cfg = random_config(space, 3, np.random.default_rng(7))
    Q = cfg.points
    if case == "off shell":                 # a NaN coordinate
        y = np.append(np.zeros(9), 0.5)
        y[4] = np.nan
        return cfg.masses, Q, y
    if case == "singular pair":             # body 0 onto body 1, or its antipode
        raw = Q[1] / (space.sigma * inner(Q[1], Q[0], space))
        return cfg.masses, Q, _chart_step(space, Q, 0.5, 0, raw)
    j = int(np.argmax(Q[:, 3]))
    q = Q[j]
    if case == "lower sheet":               # past w = 0 along the boost
        t = project_tangent(q, np.array([0.0, 0.0, 0.0, 1.0]), space)
        raw = q + 2.0 * q[3] / (q[3] ** 2 - 1.0) * t
        assert raw[3] < 0.0
    else:                                   # spacelike: <raw, raw> = 3
        t = project_tangent(q, np.array([1.0, 0.0, 0.0, 0.0]), space)
        raw = q + math.copysign(2.0, q[0]) / math.sqrt(inner(t, t, space)) * t
        assert raw[3] > 0.0 and inner(raw, raw, space) > 0.0
    return cfg.masses, Q, _chart_step(space, Q, 0.5, j, raw)


@pytest.mark.parametrize("space, case, error", [
    (Space.S3, "singular pair", "SingularPairError"),
    (Space.H3, "singular pair", "SingularPairError"),
    (Space.S3, "off shell", "OffShellError"),
    (Space.H3, "off shell", "OffShellError"),
    # the reprojection refuses a row below w = 0 before any sheet test
    (Space.H3, "lower sheet", "DegenerateVectorError"),
    (Space.H3, "degenerate", "DegenerateVectorError"),
])
def test_the_row_chart_raises_what_the_array_chart_raises(space, case, error):
    m, Q, y = _faulty_chart_step(space, case)
    arrays, rows = _both_charts(space, m, moment_of_inertia(Configuration(space, m, Q)))
    assert _assert_same_chart_point(arrays, rows, Q, y) == error


# ─── the stacked finite-difference Jacobian ──────────────────────────────


def _reference_residual(space, m, Q, bases, c, y):
    """One chart point through the public per-point calls."""
    x = y[:-1].reshape(len(m), 3)
    Qx = np.array(
        [project_point(row, space) for row in Q + np.einsum("nk,nkd->nd", x, bases)]
    )
    cfg = Configuration(space, m, Qx)
    R = grad_U(cfg) - y[-1] * grad_I(cfg)
    comps = np.einsum("nkd,nd,d->nk", bases, R, space.metric_diagonal).ravel()
    return np.concatenate([comps, [moment_of_inertia(cfg) - c]])


def _reference_jacobian(space, m, Q, bases, c, y, h=1e-7):
    """Central differences one probe at a time, +h then -h per coordinate."""
    J = np.empty((len(y), len(y)))
    for k in range(len(y)):
        yp = y.copy(); yp[k] += h
        ym = y.copy(); ym[k] -= h
        J[:, k] = (
            _reference_residual(space, m, Q, bases, c, yp)
            - _reference_residual(space, m, Q, bases, c, ym)
        ) / (2.0 * h)
    return J


def _stacked_jacobian(space, m, Q, c, lam):
    bases = _tangent_bases(space, Q)
    y = np.append(np.zeros(3 * len(m)), lam)
    kernel = _ForceKernel(space, m)
    J = _fd_jacobian(lambda Y: _chart_residuals(kernel, Q, bases, c, Y), y)
    return J, _reference_jacobian(space, m, Q, bases, c, y)


def _newton_handoff(monkeypatch, masses, space, c, seed):
    """(m, Q, lam) that find_cc's descent hands to its first Newton attempt."""
    seen = []
    newton = centralconfig._kkt_newton

    def spy(ops, Q, lam, tol, **kw):
        seen.append((ops.kernel.m, Q.copy(), lam))
        return newton(ops, Q, lam, tol, **kw)

    monkeypatch.setattr(centralconfig, "_kkt_newton", spy)
    find_cc(masses, space, LevelSetSpec(c), rng=np.random.default_rng(seed))
    return seen[0]


@pytest.mark.parametrize("space, n", [(Space.S3, 3), (Space.H3, 4)])
def test_stacked_jacobian_matches_one_probe_at_a_time(space, n):
    cfg = random_config(space, n, np.random.default_rng(n))
    J, ref = _stacked_jacobian(space, cfg.masses, cfg.points, 0.8, -0.4)
    assert J.tobytes() == ref.tobytes()


def test_stacked_jacobian_matches_at_a_near_antipodal_handoff(monkeypatch):
    masses, c = _DRAW4
    m, Q, lam = _newton_handoff(monkeypatch, masses, Space.S3, c, 1)
    s = Q @ Q.T
    assert 1.0 + np.min(s) < 2e-9
    J, ref = _stacked_jacobian(Space.S3, m, Q, c, lam)
    assert J.tobytes() == ref.tobytes()


def _near_antipodal_s3():
    # bodies 1 and 2 sit at 1 + s = 1.001e-9, just outside the singular
    # band, so several of their probes fall into it, each at its own s
    a = np.sqrt(2.0 * 1.001e-9)
    Q = np.array([[0.6, 0.0, 0.8, 0.0], [0.0, 0.0, 0.0, 1.0],
                  [0.0, np.sin(a), 0.0, -np.cos(a)]])
    return Space.S3, np.array([1.0, 1.5, 0.7]), Q


def test_a_faulty_probe_raises_what_the_first_one_raised_alone():
    space, m, Q = _near_antipodal_s3()
    kernel = _ForceKernel(space, m)
    bases = _tangent_bases(space, Q)
    y = np.append(np.zeros(9), -0.3)
    with pytest.raises(SingularPairError) as ref:
        _reference_jacobian(space, m, Q, bases, 0.4, y)
    with pytest.raises(SingularPairError) as got:
        _fd_jacobian(lambda Y: _chart_residuals(kernel, Q, bases, 0.4, Y), y)
    assert str(got.value) == str(ref.value)
    with pytest.raises(NoConvergenceError, match="jacobian probe left the feasible"):
        centralconfig._kkt_newton(_RowOps(kernel, 0.4), Q, -0.3, 1e-10)


def _spy_kkt_newton(monkeypatch, undamped_error=None):
    """The keyword arguments of each _kkt_newton call; with undamped_error,
    an undamped call raises it instead of running."""
    calls = []
    newton = centralconfig._kkt_newton

    def spy(*args, **kw):
        calls.append(kw)
        if undamped_error is not None and not kw.get("damped"):
            raise undamped_error
        return newton(*args, **kw)

    monkeypatch.setattr(centralconfig, "_kkt_newton", spy)
    return calls


def test_a_newton_run_that_fails_at_its_start_is_not_retried_damped(monkeypatch):
    # the hand-off point's tangent frame loses rank, and a damped run would
    # fail at the same first chart with the same message
    calls = _spy_kkt_newton(monkeypatch)
    with pytest.raises(NoConvergenceError, match="tangent frame of body 0 lost rank"):
        find_cc([1.0, 1.0], Space.H3, LevelSetSpec(1e20))
    assert calls == [{}]


def test_a_jacobian_probe_failure_at_the_start_point_is_marked_so():
    space, m, Q = _near_antipodal_s3()
    with pytest.raises(NoConvergenceError, match="jacobian probe") as err:
        centralconfig._kkt_newton(_RowOps(_ForceKernel(space, m), 0.4), Q, -0.3, 1e-10)
    assert err.value.at_start is True


def test_a_newton_run_that_fails_after_a_step_is_retried_damped(monkeypatch):
    calls = _spy_kkt_newton(monkeypatch, NoConvergenceError("refinement step rejected"))
    cfg, _ = find_cc([1.0, 1.0, 1.0], Space.S3, LevelSetSpec(1.2),
                     rng=np.random.default_rng(0))
    assert calls == [{}, {"damped": True}]
    assert np.max(np.abs(criterion_residual(cfg, lambda_estimate(cfg)))) < 1e-8


def _h3_pair_one_chart_step_apart():
    a = 1e-3
    Q = np.array([[0.0, 0.0, 0.0, 1.0], [np.sinh(a), 0.0, 0.0, np.cosh(a)],
                  [0.0, np.sinh(1.0), 0.0, np.cosh(1.0)]])
    m = np.array([1.0, 2.0, 0.5])
    bases = _tangent_bases(Space.H3, Q)
    fine = np.zeros(10)
    onto = fine.copy(); onto[0] = np.sinh(a)   # body 0 onto body 1
    spacelike = fine.copy(); spacelike[0] = 2.0  # body 0 off the hyperboloid
    return m, Q, bases, fine, onto, spacelike


@pytest.mark.parametrize("order, error", [
    ("onto spacelike", SingularPairError),
    ("spacelike onto", DegenerateVectorError),
])
def test_chart_residuals_raise_for_the_first_faulty_row(order, error):
    # a stage-by-stage stack would report the spacelike row's reprojection
    # before any pair check, whichever row comes first
    m, Q, bases, fine, onto, spacelike = _h3_pair_one_chart_step_apart()
    rows = {"onto": onto, "spacelike": spacelike}
    Y = np.array([fine, fine] + [rows[k] for k in order.split()])
    with pytest.raises(error) as ref:
        for y in Y:
            _reference_residual(Space.H3, m, Q, bases, 1.0, y)
    with pytest.raises(error) as got:
        _chart_residuals(_ForceKernel(Space.H3, m), Q, bases, 1.0, Y)
    assert str(got.value) == str(ref.value)


def test_find_cc_halves_an_h3_step_that_cannot_be_reprojected():
    # a long descent step leaves the timelike half-space here; it used to
    # escape find_cc as DegenerateVectorError
    c = 0.8252106489007681
    cfg, report = find_cc(
        [0.12579999237131617, 4.124019250075555, 4.0056402008850265],
        Space.H3, LevelSetSpec(c), rng=np.random.default_rng(1),
    )
    assert report.residual_max < 1e-12
    assert report.cc_class is CCClass.GEODESIC
    assert moment_of_inertia(cfg) == pytest.approx(c, abs=1e-9)


def test_make_report_round_trip():
    fix = FIXTURE_BUILDERS["example1_s3"]()
    report = make_report(fix.config)
    d = report.to_json_dict()
    assert set(d) == {
        "lambda", "residual_max", "is_special", "class", "orth",
        "I", "U", "masses", "points",
    }
    assert d["lambda"] == pytest.approx(-0.5, abs=1e-10)
    assert d["residual_max"] < 1e-9
    assert not d["is_special"]


def _reports(config):
    """make_report at its estimated multiplier, at a given one and at a
    special-CC tolerance that flips the special flag of the fixtures."""
    for lam, special_tol in ((None, 1e-10), (0.75, 1e-10), (None, 1e3)):
        yield lam, special_tol, make_report(config, lam=lam, special_tol=special_tol)


_FIXTURES = default_fixtures()


@pytest.mark.parametrize("fix", _FIXTURES, ids=[f.name for f in _FIXTURES])
def test_make_report_builds_grad_U_once(fix, monkeypatch):
    calls = []

    def counting(config):
        calls.append(config)
        return grad_U(config)

    monkeypatch.setattr(centralconfig, "grad_U", counting)
    monkeypatch.setattr(dynamics, "grad_U", counting)
    for _ in _reports(fix.config):
        assert len(calls) == 1
        calls.clear()


@pytest.mark.parametrize("fix", _FIXTURES, ids=[f.name for f in _FIXTURES])
def test_make_report_fields_equal_the_checks_called_alone(fix):
    config = fix.config
    for lam, special_tol, report in _reports(config):
        assert report.is_special is is_special_cc(config, special_tol)
        rmax = cc_residual(config, report.lam)[1]
        assert np.float64(report.residual_max).tobytes() == np.float64(rmax).tobytes()
        if lam is not None:
            assert report.lam == lam
