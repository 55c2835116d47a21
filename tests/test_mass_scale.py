"""Every CC check is scale-free in the masses.

grad U = lambda grad I is homogeneous: (a m, a c) has exactly the CCs of
(m, c), with lambda -> a lambda.  So whether a configuration is a CC, is
special, spawns a given rate family, builds as a fixture or counts as a
two-body circular solution cannot depend on the mass scale.  Scaling by a
power of two is exact in floating point, so the decisions must agree bit
for bit, not just approximately.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curved_nbody.centralconfig import is_special_cc, lambda_estimate, make_report
from curved_nbody.cli import _report_item, main
from curved_nbody.dynamics import Configuration
from curved_nbody.errors import (
    CurvedNBodyError,
    InadmissibleBetaError,
    NotACentralConfigError,
)
from curved_nbody.fixtures import FIXTURE_BUILDERS, default_fixtures
from curved_nbody.manifold import Space
from curved_nbody.moulton import solve_two_body_s
from curved_nbody.relequil import REConstraint, pick_member, re_family_from_cc

from helpers import random_config


def _witness(scale=1.0):
    """Acceptance criterion 9's witness: the Lagrangian S2 triangle with
    body 0 moved by 0.05, a non-CC whose rows are 2.4 % of its largest pair
    force."""
    base = FIXTURE_BUILDERS["lagrangian_s2"](1.0, 0.5).config
    Q = base.points.copy()
    Q[0, 0] += 0.05
    return Configuration.from_raw(base.space, base.masses * scale, Q)


# (configuration, lambda or None for the estimate): CCs special and
# ordinary, and non-CCs on both spaces
_CASES = (
    [(f.config, f.expected_lambda) for f in default_fixtures()]
    + [(f.config, None) for f in default_fixtures()]
    + [(_witness(), None),
       (random_config(Space.S3, 3, np.random.default_rng(2)), None),
       (random_config(Space.H3, 4, np.random.default_rng(3)), None)]
)

# builder, arguments at unit mass scale, and which of them are masses
_MASS_BUILDERS = {
    "tetrahedron_s2": (st.tuples(st.floats(0.5, 2.0)), (0,)),
    "pentatope_s3": (st.tuples(st.floats(0.5, 2.0)), (0,)),
    "double_triangle_s3": (st.tuples(st.floats(0.5, 2.0)), (0,)),
    "lagrangian_s2": (st.tuples(st.floats(0.5, 2.0), st.floats(0.1, 0.9)), (0,)),
    "geodesic_s1_isosceles": (
        st.tuples(st.floats(0.5, 2.0),
                  st.sampled_from([-0.9, -0.7, -0.5, -0.3, 0.4, 0.9])), (0,)),
    "geodesic_s1_equilateral": (
        st.one_of(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0),
                            st.floats(0.5, 2.0), st.floats(0.1, 3.0)),
                  st.just((2.0, 1.0, 3.0, 0.25 * math.pi))), (0, 1, 2)),
    "lagrangian_h2": (st.tuples(st.floats(0.5, 2.0), st.floats(0.1, 3.0)), (0,)),
    "geodesic_h1": (st.tuples(st.floats(0.5, 2.0), st.floats(0.1, 3.0)), (0,)),
}


def _outcome(call):
    """call()'s value, or the class name of the package error it raised."""
    try:
        return call()
    except CurvedNBodyError as exc:
        return type(exc).__name__


def _verdicts(config, lam):
    """Every check's decision on config at lam (None: the estimate)."""
    report = make_report(config, lam)
    return (
        is_special_cc(config),
        report.is_special,
        _report_item(config, lam)["confirmed"],
        _outcome(lambda: re_family_from_cc(report, config).constraint),
    )


def _scaled(config, f):
    return Configuration(config.space, config.masses * f, config.points)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_CASES) - 1), st.integers(-40, 40))
def test_rescaling_the_masses_changes_no_cc_decision(case, k):
    config, lam = _CASES[case]
    f = 2.0**k
    scaled = _scaled(config, f)
    assert _verdicts(scaled, None if lam is None else lam * f) == _verdicts(config, lam)
    est = _outcome(lambda: lambda_estimate(config))
    est_scaled = _outcome(lambda: lambda_estimate(scaled))
    assert est_scaled == (est * f if isinstance(est, float) else est)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(_MASS_BUILDERS)), st.integers(-40, 40))
def test_rescaling_the_masses_changes_no_fixture_build(data, name, k):
    args_strategy, mass_args = _MASS_BUILDERS[name]
    args = data.draw(args_strategy)
    scaled = tuple(a * 2.0**k if i in mass_args else a for i, a in enumerate(args))
    built = _outcome(lambda: FIXTURE_BUILDERS[name](*args).name)
    assert _outcome(lambda: FIXTURE_BUILDERS[name](*scaled).name) == built


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.01, 0.99),
       st.integers(-40, 40))
def test_rescaling_the_masses_changes_no_two_body_count(m1, m2, frac, k):
    c = frac * (m1 + m2)
    f = 2.0**k
    want = _outcome(lambda: solve_two_body_s(m1, m2, c).count)
    assert _outcome(lambda: solve_two_body_s(m1 * f, m2 * f, c * f).count) == want


# ─── regressions at the scales the absolute tests got wrong ──────────────


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-6])
def test_re_family_refuses_the_witness_at_any_mass_scale(scale):
    # an absolute 1e-8 accepted it at x1e-4, and at x1e-6 an absolute
    # 1e-10 called it special (EQUAL_MAGNITUDE)
    witness = _witness(scale)
    report = make_report(witness)
    assert not report.is_special
    with pytest.raises(NotACentralConfigError, match="largest pair force"):
        re_family_from_cc(report, witness)


@pytest.mark.parametrize("name, args", [
    ("lagrangian_s2", (1e4, 0.5)),
    ("tetrahedron_s2", (1e4,)),
    ("geodesic_h1", (1e4, 1.0)),
])
def test_heavy_closed_form_fixtures_build(name, args):
    assert FIXTURE_BUILDERS[name](*args).config.masses[0] == args[0]


def test_a_light_non_cc_equilateral_geodesic_is_refused():
    # its rows lie below an absolute 1e-10, but not below 1e-10 of its
    # largest pair force
    with pytest.raises(NotACentralConfigError):
        FIXTURE_BUILDERS["geodesic_s1_equilateral"](1e-6, 1e-6, 3e-6, math.pi / 4)


def test_the_equal_mass_tetrahedron_is_special_at_any_mass():
    for m in (1.0, 1000.0, 1e-6):
        assert is_special_cc(FIXTURE_BUILDERS["tetrahedron_s2"](m).config)


def test_sweep_keeps_every_heavy_tetrahedron(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "tetrahedron_s2", "--grid", "m=1:1e6:3",
                 "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 3


def test_heavy_two_body_circles_are_counted(capsys):
    # an absolute balance test refused both circles from masses x1e4 up
    for m1, m2, c in ((1.0, 2.0, 0.5), (1.0, 2.0, 2.5), (0.7, 1.3, 0.3)):
        for a in (1e4, 1e8):
            assert solve_two_body_s(m1 * a, m2 * a, c * a).count == 2
    assert main(["moulton", "1024,2048", "--space", "S3", "--c", "512"]) == 0
    assert "count: 2" in capsys.readouterr().out


def test_lambda_estimate_at_light_masses():
    # a floor of 1e-12 max(1, sum m) on the denominator reported lambda = 0
    fix = FIXTURE_BUILDERS["lagrangian_s2"](1e-13, 0.5)
    lam = make_report(fix.config).lam
    assert lam == pytest.approx(fix.expected_lambda, rel=1e-10, abs=0.0)


def _family(name, *args):
    cfg = FIXTURE_BUILDERS[name](*args).config
    return re_family_from_cc(make_report(cfg), cfg)


@pytest.mark.parametrize("name, args, sign", [
    ("geodesic_h1", (1.0, 0.7), -1.0),
    ("geodesic_s1_isosceles", (1.0, -0.9), 1.0),
])
def test_the_boundary_member_is_admissible_at_every_multiplier(name, args, sign):
    # beta = sqrt(+-2 lambda) is the boundary of the admissible rates: on H3
    # an absolute 1e-15 slack refused it for about 1 in 4 |lambda| above 10
    family = _family(name, *args)
    assert family.constraint in (REConstraint.FIXED_SUM, REConstraint.FIXED_DIFFERENCE)
    rng = np.random.default_rng(0)
    for mag in np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 4000)):
        member = dataclasses.replace(family, lam=sign * float(mag))
        beta = math.sqrt(2.0 * mag)
        assert pick_member(member, beta).alpha == pytest.approx(0.0, abs=1e-6 * beta)
        with pytest.raises(InadmissibleBetaError):  # just beyond, still refused
            pick_member(member, beta * (1.0 - sign * 1e-12))
