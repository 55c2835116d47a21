"""Rate constraints, member selection, and rigidity of relative equilibria."""

import math

import numpy as np
import pytest

from curved_nbody import relequil
from curved_nbody import (
    Configuration,
    PhaseState,
    GeneratorKind,
    IsometryGenerator,
    REConstraint,
    REInstance,
    Space,
    certify_rigidity,
    integrate,
    make_report,
    pick_member,
    re_criterion_residual,
    re_family_from_cc,
    swap_xy_zw,
)
from curved_nbody.errors import (
    InadmissibleBetaError,
    NotACentralConfigError,
    SingularEncounterError,
    SingularPairError,
)
from curved_nbody.fixtures import FIXTURE_BUILDERS

from helpers import random_config


def _family(name, *args):
    cfg = FIXTURE_BUILDERS[name](*args).config
    return re_family_from_cc(make_report(cfg), cfg)


# ─── constraint derivation ───────────────────────────────────────────────


@pytest.mark.parametrize(
    "name,args,expected",
    [
        ("lagrangian_s2", (1.0, 0.5), REConstraint.FIXED_DIFFERENCE),
        ("example1_s3", (), REConstraint.FIXED_DIFFERENCE),
        ("lagrangian_h2", (1.0, 0.8), REConstraint.FIXED_SUM),
        ("example2_h3", (), REConstraint.FIXED_SUM),
        ("tetrahedron_s2", (1.0,), REConstraint.EQUAL_MAGNITUDE),
        ("pentatope_s3", (1.0,), REConstraint.EQUAL_MAGNITUDE),
        ("acute_triangle_s1", (2.1, 2.2), REConstraint.FREE),
        ("double_triangle_s3", (1.0,), REConstraint.FREE),
    ],
)
def test_constraint_kind_per_fixture(name, args, expected):
    fam = _family(name, *args)
    assert fam.constraint is expected
    if expected in (REConstraint.EQUAL_MAGNITUDE, REConstraint.FREE):
        assert fam.lam == 0.0


def test_family_rejects_non_solutions():
    cfg = random_config(Space.S3, 3, np.random.default_rng(2))
    with pytest.raises(NotACentralConfigError):
        re_family_from_cc(make_report(cfg), cfg)


def test_family_rejects_impossible_hyperbolic_claims():
    cfg = FIXTURE_BUILDERS["geodesic_h1"](1.0, 0.7).config
    report = make_report(cfg)
    report.is_special = True  # true hyperbolic solutions are never special
    with pytest.raises(NotACentralConfigError):
        re_family_from_cc(report, cfg)


# ─── member selection ────────────────────────────────────────────────────


def test_pick_member_sphere_rates():
    fam = _family("example1_s3")
    a10 = pick_member(fam, 0)
    assert a10.alpha == pytest.approx(1.0, rel=1e-12)
    assert a10.beta == 0.0
    assert a10.classification == "positive elliptic"
    assert a10.periodic is True

    a_irr = pick_member(fam, 1)
    assert a_irr.alpha == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert a_irr.classification == "positive elliptic-elliptic"
    assert a_irr.periodic is False  # sqrt(2) : 1 never closes up


def test_pick_member_hyperbolic_rates():
    fam = _family("example2_h3")
    b10 = pick_member(fam, 0)
    assert b10.alpha == pytest.approx(1.0, rel=1e-12)
    assert b10.beta == 0.0
    assert b10.classification == "negative elliptic"
    assert b10.periodic is True

    b01 = pick_member(fam, 1)
    assert b01.alpha == pytest.approx(0.0, abs=2e-8)
    assert b01.beta == 1.0
    assert b01.classification == "negative hyperbolic"
    assert b01.periodic is False

    mixed = pick_member(fam, math.sqrt(3.0) / 2.0)
    assert mixed.alpha == pytest.approx(0.5, rel=1e-12)
    assert mixed.classification == "negative elliptic-hyperbolic"
    assert mixed.periodic is False


def test_pick_member_rejects_out_of_range_rates():
    swapped = swap_xy_zw(FIXTURE_BUILDERS["lagrangian_s2"](1.0, 0.5).config)
    fam = re_family_from_cc(make_report(swapped), swapped)
    assert fam.lam > 0.0
    with pytest.raises(InadmissibleBetaError):
        pick_member(fam, 0.0)  # beta^2 must reach 2 lambda on the sphere
    ok = pick_member(fam, 3.0)
    assert ok.alpha == pytest.approx(math.sqrt(9.0 - 2.0 * fam.lam))

    hfam = _family("geodesic_h1", 1.0, 0.7)
    with pytest.raises(InadmissibleBetaError):
        pick_member(hfam, 2.0)  # beta^2 exceeds -2 lambda


def test_equal_magnitude_members():
    fam = _family("tetrahedron_s2", 1.0)
    inst = pick_member(fam, 0.8)
    assert inst.alpha == inst.beta == 0.8
    assert inst.periodic is True
    res = re_criterion_residual(fam.config, inst.alpha, inst.beta)
    assert float(np.max(np.linalg.norm(res, axis=1))) < 1e-9


def test_free_family_accepts_any_rates():
    fam = _family("acute_triangle_s1", 2.1, 2.2)
    inst = pick_member(fam, 2, alpha=3)
    assert (inst.alpha, inst.beta) == (3.0, 2.0)
    assert inst.periodic is True  # integer rate ratio
    res = re_criterion_residual(fam.config, 3.0, 2.0)
    assert float(np.max(np.linalg.norm(res, axis=1))) < 1e-9


# ─── direct criterion vs. multiplier ─────────────────────────────────────


@pytest.mark.parametrize(
    "name,args",
    [
        ("lagrangian_s2", (1.0, 0.5)),
        ("geodesic_s1_isosceles", (1.0, 0.6)),
        ("lagrangian_h2", (1.0, 0.8)),
        ("geodesic_h1", (1.0, 0.7)),
        ("example1_s3", ()),
        ("example2_h3", ()),
    ],
)
def test_rates_from_multiplier_solve_the_direct_criterion(name, args):
    fix = FIXTURE_BUILDERS[name](*args)
    lam = fix.expected_lambda
    assert lam < 0.0
    alpha, beta = math.sqrt(-2.0 * lam), 0.0
    res = re_criterion_residual(fix.config, alpha, beta)
    assert float(np.max(np.linalg.norm(res, axis=1))) < 1e-9


def test_positive_multiplier_maps_to_pure_second_rotation():
    swapped = swap_xy_zw(FIXTURE_BUILDERS["lagrangian_s2"](1.0, 0.5).config)
    from curved_nbody import lambda_estimate

    lam = lambda_estimate(swapped)
    assert lam > 0.0
    res = re_criterion_residual(swapped, 0.0, math.sqrt(2.0 * lam))
    assert float(np.max(np.linalg.norm(res, axis=1))) < 1e-9


def test_wrong_rates_fail_the_direct_criterion():
    fix = FIXTURE_BUILDERS["lagrangian_s2"](1.0, 0.5)
    res = re_criterion_residual(fix.config, 1.0, 0.0)  # constraint wants beta^2 - alpha^2 = 2 lam
    assert float(np.max(np.linalg.norm(res, axis=1))) > 1e-2


# ─── integration certificates ────────────────────────────────────────────


def test_certified_rigid_orbit():
    fam = _family("example1_s3")
    inst = pick_member(fam, 0)
    drift, cons = certify_rigidity(inst, horizon=1.0, dt=1e-3)
    assert drift < 1e-8
    assert cons < 1e-10


# float-hex (drift, cons) of certify_rigidity at T = 0.5, recorded while
# simulate still wrote its CSV from a second, ambient integration: sharing
# the co-moving run with the CSV must not move the certificate's bits.
# lagrangian_s2's cons was 0x1.9fp-54 on the array kernel; the pair loop
# sums the forces in another order and gives 0x1.9ecp-54
_PINNED_CERTIFICATE = {
    ("example2_h3", (), 1): ("0x1.8000000000000p-51", "0x1.0000000000000p-50"),
    ("lagrangian_s2", (1.25, 0.75), 1): ("0x0.0p+0", "0x1.9ec0000000000p-54"),
}


@pytest.mark.parametrize("name,args,beta", sorted(_PINNED_CERTIFICATE))
def test_certificate_matches_the_recorded_bits(name, args, beta):
    fixture = FIXTURE_BUILDERS[name](*args)
    cfg = fixture.config
    family = re_family_from_cc(make_report(cfg, lam=fixture.expected_lambda), cfg)
    drift, cons = certify_rigidity(pick_member(family, beta), horizon=0.5)
    assert (drift.hex(), cons.hex()) == _PINNED_CERTIFICATE[(name, args, beta)]


def test_rigidity_certificate_fails_for_wrong_rates():
    fam = _family("example1_s3")
    bad = REInstance(
        config=fam.config,
        generator=IsometryGenerator(GeneratorKind.DOUBLE_ROTATION, 5.0, 0.0),
        classification=None,
        lam=fam.lam,
        periodic=None,
    )
    drift, _ = certify_rigidity(bad, horizon=1.0, dt=1e-3)
    assert drift > 1e-3


def test_instance_json_payload():
    fam = _family("example2_h3")
    inst = pick_member(fam, 0)
    d = inst.to_json_dict()
    assert set(d) == {"alpha", "beta", "type", "lambda", "periodic"}
    full = inst.to_json_dict(include_base=True)
    assert full["base"]["lambda"] == pytest.approx(-0.5, abs=1e-10)


def test_certificate_reports_a_step_off_the_sheet_as_an_encounter():
    # dt = 0.3 at rotation rate 3 throws a body off the w >= 1 sheet; the
    # certifier must report it the way integrate does
    cfg = FIXTURE_BUILDERS["example2_h3"]().config
    inst = REInstance(
        config=cfg,
        generator=IsometryGenerator(GeneratorKind.ROTATION_BOOST, 3.0, 0.0),
        classification=None,
        lam=-0.5,
        periodic=None,
    )
    with pytest.raises(SingularEncounterError, match="near t ="):
        certify_rigidity(inst, horizon=12.0, dt=0.3)


def test_a_singular_integrals_sample_beats_the_step_that_fails_after_it(
        monkeypatch):
    # two bodies falling together from rest on S3, certified in the frame
    # of the zero generator, whose co-moving states are integrate's bit for
    # bit; below 200 steps every step is an integrals sample.  The step
    # that meets the collision and the last good step lie in one block of
    # float steps, whose samples are evaluated after the block
    h = 0.15
    pts = np.array([[math.cos(h), math.sin(h), 0.0, 0.0],
                    [math.cos(h), -math.sin(h), 0.0, 0.0]])
    cfg = Configuration(Space.S3, [1.0, 2.0], pts)
    with pytest.raises(SingularEncounterError) as ambient:
        integrate(PhaseState(cfg, np.zeros((2, 4))), 1e-3, 190)
    good = len(ambient.value.partial) - 1   # steps before the failing one
    last = ambient.value.partial.positions[-1]
    inst = REInstance(cfg, IsometryGenerator(GeneratorKind.DOUBLE_ROTATION),
                      None, 0.0, None)
    with pytest.raises(SingularEncounterError) as plain:
        certify_rigidity(inst, horizon=0.19, dt=1e-3)
    assert str(plain.value) == str(ambient.value)
    assert str(plain.value).endswith(f"near t = {good * 1e-3:.6g}")

    # now the integrals of the last good state raise, as a pair judged
    # singular in extended precision would
    original = relequil._first_integrals

    def flagging(space, m, Q, P):
        if any(np.array_equal(q.astype(float), last) for q in Q):
            raise SingularPairError(1, 0, 1.0)
        return original(space, m, Q, P)

    monkeypatch.setattr(relequil, "_first_integrals", flagging)
    with pytest.raises(SingularEncounterError) as early:
        certify_rigidity(inst, horizon=0.19, dt=1e-3)
    assert str(early.value) == (
        f"singular pair (1, 0) near t = {(good - 1) * 1e-3:.6g}")
    assert isinstance(early.value.__cause__, SingularPairError)
