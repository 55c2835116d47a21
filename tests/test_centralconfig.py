"""Central-configuration residuals, classification, and the level-set solver."""

import itertools

import numpy as np
import pytest

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
from curved_nbody.centralconfig import _restore_level, default_seed
from curved_nbody.errors import (
    DegenerateDenominatorError,
    NoConvergenceError,
    OutOfRangeError,
    SingularApproachError,
)
from curved_nbody.fixtures import FIXTURE_BUILDERS, default_fixtures
from curved_nbody.manifold import isometry_matrix, GeneratorKind, IsometryGenerator

from helpers import random_config

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


def test_find_cc_reports_a_near_antipodal_handoff_as_singular():
    # the descent drives one pair within 1e-9 of antipodal on this S3 level,
    # and both Newton attempts then fail
    masses = [0.6723989499213578, 1.593522675614464, 1.8911358929368398]
    with pytest.raises(SingularApproachError) as info:
        find_cc(masses, Space.S3, LevelSetSpec(2.4409014417556723),
                rng=np.random.default_rng(0))
    assert isinstance(info.value.__cause__, NoConvergenceError)


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
    out = _restore_level(Space.H3, m, Q, c, max_iter=6)
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
