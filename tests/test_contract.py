"""The input contract of curved_nbody.errors, at the public entries and at
every CLI subcommand: a refused input raises its documented class (the CLI
exits 1 with no traceback) before any search or integration starts.
"""

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curved_nbody import (
    Configuration,
    GeodesicHConfig,
    LevelSetSpec,
    PhaseState,
    Space,
    certify_rigidity,
    enumerate_geodesic_h,
    find_cc,
    generator_momenta,
    geodesic_lambda,
    grad_I,
    grad_U,
    hessian_geodesic_h,
    integrate,
    make_report,
    pair_force,
    pick_member,
    re_family_from_cc,
    rescale_curvature,
    solve_geodesic_h,
    solve_two_body_s,
)
from curved_nbody import centralconfig, dynamics
from curved_nbody.cli import main
from curved_nbody.errors import (
    CurvedNBodyError,
    InadmissibleBetaError,
    NoConvergenceError,
    OffShellError,
    OutOfRangeError,
    SingularEncounterError,
    SingularPairError,
)
from curved_nbody.fixtures import FIXTURE_BUILDERS
from curved_nbody.relequil import REConstraint, REFamily

from helpers import random_config

NAN, INF = math.nan, math.inf
EX1 = FIXTURE_BUILDERS["example1_s3"]().config
EX2 = FIXTURE_BUILDERS["example2_h3"]().config
MEMBER = pick_member(re_family_from_cc(make_report(EX1), EX1), 0)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def payload_path(tmp_path_factory):
    """Write a payload and return its path: example 1 with fields replaced."""
    root = tmp_path_factory.mktemp("contract")
    count = itertools.count()

    def write(config=EX1, **fields):
        path = root / f"p{next(count)}.json"
        path.write_text(json.dumps({**config.to_dict(), **fields}))
        return str(path)

    return write


# ─── one regression per fault the contract closes ────────────────────────


@pytest.mark.parametrize("flag,value", [
    ("--dt", "0"),         # was an uncaught ZeroDivisionError
    ("--horizon", "inf"),  # was an uncaught OverflowError
    ("--dt", "nan"),       # was "cannot convert float NaN to integer"
    ("--dt", "-1e-3"),     # was exit 0 after one backward step
])
def test_simulate_refuses_a_bad_step_or_horizon(payload_path, flag, value):
    # a later --horizon overrides the short one
    code, _, err = _run(["simulate", payload_path(), "--beta", "0",
                         "--horizon=0.01", f"{flag}={value}"])
    assert code == 1
    assert "OutOfRangeError" in err and flag.lstrip("-") in err


def test_a_step_count_beyond_float_range_is_refused():
    with pytest.raises(OutOfRangeError, match="horizon / dt"):
        certify_rigidity(MEMBER, horizon=1e300, dt=1e-300)


def test_integrate_refuses_a_nan_step():
    state = PhaseState(EX1, generator_momenta(EX1, MEMBER.generator))
    with pytest.raises(OutOfRangeError, match="dt must be finite and positive; got nan"):
        integrate(state, NAN, 3)


# a dt of 1e300 overflows in the first stage; that is a singular encounter,
# not a RuntimeWarning escaping the stepper
_HUGE = {"S3": EX1, "H3": EX2}


def _huge_member(space):
    cfg = _HUGE[space]
    return pick_member(re_family_from_cc(make_report(cfg), cfg), 1)


@pytest.mark.parametrize("space", sorted(_HUGE))
def test_integrate_reports_a_huge_step_as_an_encounter(space):
    cfg = _HUGE[space]
    state = PhaseState(cfg, generator_momenta(cfg, _huge_member(space).generator))
    with pytest.raises(SingularEncounterError, match="near t = 0"):
        integrate(state, 1e300, 1)


@pytest.mark.parametrize("space", sorted(_HUGE))
def test_certify_reports_a_huge_step_as_an_encounter(space):
    with pytest.raises(SingularEncounterError, match="near t = 0"):
        certify_rigidity(_huge_member(space), horizon=1e300, dt=1e300)


@pytest.mark.parametrize("space", sorted(_HUGE))
def test_simulate_exits_1_on_a_huge_step(payload_path, space):
    code, out, err = _run(["simulate", payload_path(_HUGE[space]), "--beta", "1",
                           "--dt", "1e300", "--horizon", "1e300"])
    assert code == 1 and out == ""
    assert "SingularEncounterError" in err


def test_moulton_takes_a_huge_mass_without_an_overflow_warning():
    # numpy scalar masses made m2 * (M - 2c) overflow with a RuntimeWarning;
    # in Python floats it is the inf that leaves no circle solution
    code, out, _ = _run(["moulton", "1,1e300", "--space", "S3", "--c", "0.5"])
    assert code == 0
    assert out.splitlines()[-1] == "count: 0"


# each escaped the geodesic solver as a RuntimeWarning: overflow in the
# pair weights, in sinh of a gap squared, in the gradient projection and
# again in the pair weights
@pytest.mark.parametrize("masses,c,name", [
    ([1e300, 1e300, 1.0], 1.0, "masses"),
    ([1.0, 2.0, 3.0], 1e300, "size c"),
    ([1.0, 2.0, 3.0], 1e-300, "size c"),
    ([1e200, 1e200], 1e200, "masses"),
])
def test_the_geodesic_solver_refuses_sizes_outside_its_range(masses, c, name):
    with pytest.raises(OutOfRangeError, match=name):
        enumerate_geodesic_h(masses, c)
    code, out, err = _run(["moulton", ",".join(map(repr, masses)),
                           "--space", "H3", "--c", repr(c)])
    assert code == 1 and out == ""
    assert err.startswith("error: OutOfRangeError") and name in err


# the corners of the working range, with masses a decade apart: a result or
# a package error, never a warning or an error from math
@pytest.mark.parametrize("scale", [1e-20, 1e19])
@pytest.mark.parametrize("c", [1e-20, 1e20])
def test_the_geodesic_solver_keeps_the_contract_at_its_range_corners(scale, c):
    masses = [scale, 3.0 * scale, 10.0 * scale]
    try:
        enumerate_geodesic_h(masses, c)
    except CurvedNBodyError:
        pass
    code, out, err = _run(["moulton", ",".join(map(repr, masses)),
                           "--space", "H3", "--c", repr(c)])
    assert code in (0, 1) and "Traceback" not in err
    if code == 0:
        _check_finite_output(["moulton"], out)


# wide mass ratios inside the range sent a theta-chart Newton trial out of
# float range, with a RuntimeWarning from the dot in the norm of the
# trial's rows and from the multiply in its grad I; such a trial is now
# halved like an infeasible one, and every ordering class solves
@pytest.mark.parametrize("masses,c", [
    ([7.327531200248029, 491922.49507583224, 74.29998260135517],
     59140.654908637625),
    ([739038.6068175043, 160.82284370965945, 32.358699987681774,
      4.623007960649732], 126930.60722144345),
])
def test_an_overflowing_newton_trial_counts_as_infeasible(masses, c):
    assert len(enumerate_geodesic_h(masses, c)) == math.factorial(len(masses)) // 2


# thetas whose arithmetic leaves float range escaped the evaluators as a
# RuntimeWarning from numpy: sinh^2 of a gap of 2e-200 is 0, the pair
# weight over sinh^2 of a gap of 2e-170 is inf, and sinh or cosh of a gap
# of 800 or of 1600 overflows
@pytest.mark.parametrize("thetas,evaluate", [
    ([-1e-200, 1e-200], geodesic_lambda),
    ([-1e-170, 1e-170], geodesic_lambda),
    ([-400.0, 400.0], geodesic_lambda),
    ([-400.0, 400.0], GeodesicHConfig.potential),
    ([-800.0, 800.0], GeodesicHConfig.inertia),
], ids=["lambda-zero-weight", "lambda-inf-weight", "lambda-wide",
        "potential-wide", "inertia-wide"])
def test_the_geodesic_evaluators_refuse_theta_out_of_float_range(thetas, evaluate):
    with pytest.raises(OutOfRangeError, match="theta"):
        evaluate(GeodesicHConfig(thetas, [1.0, 1.0]))


# numpy warned "overflow encountered in cosh" at a gap of 800 and "in power"
# at 300, where sinh^3 overflows though cosh does not; sinh^3 of a gap of
# 2e-200 is 0
@pytest.mark.parametrize("thetas", [[-400.0, 400.0], [-150.0, 150.0],
                                    [-1e-200, 1e-200]])
def test_the_geodesic_hessian_refuses_theta_out_of_float_range(thetas):
    with pytest.raises(OutOfRangeError, match=r"Hessian at theta \[.*out of float"):
        hessian_geodesic_h(GeodesicHConfig(thetas, [1.0, 1.0]), 0.1)


@pytest.mark.parametrize("lam", [1e200, 1e300, -1e300])
@pytest.mark.parametrize("config", [EX1, EX2], ids=["S3", "H3"])
def test_make_report_takes_a_huge_multiplier_without_overflow(config, lam):
    # the row norms squared entries near lam: a RuntimeWarning and
    # residual_max = inf
    report = make_report(config, lam=lam)
    rows = grad_U(config) - lam * grad_I(config)
    want = max(math.hypot(*row) for row in rows)
    assert math.isfinite(want) and want > 1e150
    assert report.residual_max == pytest.approx(want, rel=1e-14)


def test_find_blames_a_nan_mass_not_the_level():
    code, _, err = _run(["find", "1,nan,1", "--space", "S3", "--c", "0.4"])
    assert code == 1
    assert "masses must be positive and finite" in err


# far out on H3 (|x| of 1e8 and more) rounding leaves a body's tangent frame
# two directions; the row chart failed with "not enough values to unpack",
# the array chart with numpy's "inhomogeneous shape"
@pytest.mark.parametrize("pair_loop_max_n", [None, 0], ids=["rows", "arrays"])
@pytest.mark.parametrize("n,c", [(2, 1e20), (3, 1e35), (4, 1e60)])
def test_a_tangent_frame_that_loses_rank_is_no_convergence(
        n, c, pair_loop_max_n, monkeypatch):
    if pair_loop_max_n is not None:
        monkeypatch.setattr(dynamics, "_PAIR_LOOP_MAX_N", pair_loop_max_n)
    with pytest.raises(NoConvergenceError,
                       match=r"tangent frame of body \d+ lost rank"):
        find_cc(np.ones(n), Space.H3, LevelSetSpec(c))


def test_find_skips_a_seed_whose_tangent_frame_loses_rank():
    # the first such seed aborted the whole search ("error: not enough
    # values to unpack"); each seed now fails alone and none is found
    code, out, err = _run(["find", "1,1", "--space", "H3", "--c", "1e20"])
    assert (code, err) == (2, "")
    assert json.loads(out)["count"] == 0


# far out on H3 the default seed's Gram entries are differences of products
# of order c, which round to nonsense; with masses of 1e200 its bodies
# coincide.  find_cc let the seed's SingularPairError escape.
@pytest.mark.parametrize("masses,c,value", [
    (np.ones(5), 1e40, "-4.7386892574152674e+22"),
    (np.full(3, 1e200), 1e100, "1.0"),
])
def test_a_default_seed_with_a_singular_pair_is_no_convergence(masses, c, value):
    with pytest.raises(NoConvergenceError) as err:
        find_cc(masses, Space.H3, LevelSetSpec(c))
    assert str(err.value) == (f"the default seed holds the singular pair (0, 1): "
                              f"sigma-inner product {value}")
    assert isinstance(err.value.__cause__, SingularPairError)


def test_find_skips_a_seed_whose_default_seed_is_singular():
    code, out, err = _run(["find", "1,1,1,1,1", "--space", "H3", "--c", "1e40",
                           "--seeds", "2"])
    assert (code, err) == (2, "")
    assert json.loads(out)["count"] == 0


@pytest.mark.parametrize("kw, message", [
    ({"mode": "bogus"}, "unknown mode 'bogus'"),
    ({"max_iter": 2.5}, "max_iter must be an integer >= 0; got 2.5"),
    ({"max_iter": -1}, "max_iter must be an integer >= 0; got -1"),
])
def test_find_cc_refuses_a_mode_or_max_iter_before_any_search(kw, message, monkeypatch):
    # no default seed is built and no row function is compiled or made
    calls = []
    for name in ("default_seed", "_row_ops"):
        def spy(*args, _name=name, _original=getattr(centralconfig, name), **kws):
            calls.append(_name)
            return _original(*args, **kws)

        monkeypatch.setattr(centralconfig, name, spy)
    with pytest.raises(ValueError) as err:
        find_cc([1.0, 1.0, 1.0], Space.S3, LevelSetSpec(0.4), **kw)
    assert str(err.value) == message and calls == []


def test_find_refuses_zero_seeds():
    code, _, err = _run(["find", "1,1,1", "--space", "S3", "--c", "0.4",
                         "--seeds", "0"])
    assert code == 1
    assert "OutOfRangeError" in err and "--seeds" in err


@pytest.mark.parametrize("argv", [
    ["verify", "{path}", "--tol", "nan"],
    ["moulton", "1,2,3", "--space", "H3", "--c", "1", "--tol", "nan"],
    ["verify", "{lam}"],
])
def test_a_nan_tolerance_or_lambda_is_an_error_not_a_verdict(payload_path, argv):
    paths = {"{path}": payload_path(), "{lam}": payload_path(**{"lambda": "nan"})}
    code, out, err = _run([paths.get(a, a) for a in argv])
    assert code == 1 and out == ""
    assert "OutOfRangeError" in err
    assert ("tol" if "--tol" in argv else "lambda") in err


@pytest.mark.parametrize("field,argv", [
    ("lambda", ["verify"]),
    ("beta", ["simulate", "--horizon", "0.01"]),
])
def test_a_payload_integer_too_large_for_a_float_is_an_error(tmp_path, field, argv):
    # json reads a long integer literal exactly, and float() of it overflows
    path = tmp_path / "big.json"
    path.write_text(json.dumps(EX1.to_dict())[:-1] + f', "{field}": 1{"0" * 400}}}')
    code, out, err = _run(argv[:1] + [str(path)] + argv[1:])
    assert code == 1 and out == ""
    assert "too large" in err


def test_re_family_refuses_a_nan_tolerance():
    witness = random_config(Space.S3, 3, np.random.default_rng(3))
    with pytest.raises(OutOfRangeError, match="tol"):
        re_family_from_cc(make_report(witness), witness, tol=NAN)


def test_a_nan_rate_is_inadmissible(payload_path):
    family = re_family_from_cc(make_report(EX1), EX1)
    with pytest.raises(InadmissibleBetaError, match="finite"):
        pick_member(family, NAN)
    code, _, err = _run(["simulate", payload_path(), "--beta", "nan",
                         "--horizon", "0.01"])
    assert code == 1 and "InadmissibleBetaError" in err


@pytest.mark.parametrize("constraint", list(REConstraint))
@pytest.mark.parametrize("lam", [NAN, INF, -INF])
@pytest.mark.parametrize("config", [EX1, EX2], ids=["S3", "H3"])
def test_pick_member_refuses_a_non_finite_family_lambda(constraint, lam, config):
    # a hand-built family with lambda NaN gave alpha = 0, "positive
    # elliptic", through math.sqrt(max(0.0, nan)); make_report's check
    # refuses it, whatever the rate
    family = REFamily(config.space, lam, constraint, config)
    for beta in (0, 1.0, Fraction(1, 2)):
        with pytest.raises(OutOfRangeError, match="lambda must be finite"):
            pick_member(family, beta, alpha=1.0)
    with pytest.raises(OutOfRangeError, match="lambda must be finite"):
        make_report(config, lam=lam)


@pytest.mark.parametrize("kappa", [NAN, INF, -INF, 0.0])
def test_rescale_curvature_refuses_a_non_finite_or_zero_kappa(kappa):
    with pytest.raises(OutOfRangeError, match="kappa"):
        rescale_curvature(EX1.points, kappa)


# ─── the contract over the public entries ────────────────────────────────

# refused wherever a finite positive scalar or mass is required
REFUSED = st.one_of(st.sampled_from([NAN, INF, -INF]), st.floats(max_value=0.0))
NON_FINITE = st.sampled_from([NAN, INF, -INF])
# huge values go only where the cost does not grow with them and no
# arithmetic on them can overflow
HUGE = st.floats(min_value=1e6, max_value=1e300)
MILD = st.floats(min_value=-10.0, max_value=10.0)
# finite and positive, but outside the geodesic solver's [1e-20, 1e20]
OUTSIDE_GEODESIC = st.one_of(
    st.floats(min_value=1e20, exclude_min=True, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-20, exclude_min=True,
              exclude_max=True))
INSIDE_GEODESIC = st.floats(min_value=1e-20, max_value=1e20)

_PAIR = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
_STATE = PhaseState(EX1, generator_momenta(EX1, MEMBER.generator))
_FAMILIES = [re_family_from_cc(make_report(c), c) for c in (EX1, EX2)]

# name: (call, refused values, the class they raise,
#        accepted values, the classes an accepted value may still raise)
ENTRIES = {
    "Configuration mass": (
        lambda v: Configuration(Space.S3, [1.0, v], _PAIR),
        REFUSED, ValueError, HUGE, ()),
    "GeodesicHConfig mass": (
        lambda v: GeodesicHConfig([-0.5, 0.5], [1.0, v]),
        REFUSED, ValueError, HUGE, ()),
    "validate c": (
        lambda v: [LevelSetSpec(v).validate(s, [1.0, 2.0, 3.0]) for s in Space],
        REFUSED, OutOfRangeError, HUGE, (OutOfRangeError,)),
    "validate tol": (
        lambda v: [LevelSetSpec(2.5, tol=v).validate(s, [1.0, 2.0, 3.0])
                   for s in Space],
        REFUSED, OutOfRangeError, HUGE, ()),
    "validate mass": (
        lambda v: [LevelSetSpec(0.4).validate(s, [1.0, v, 2.0]) for s in Space],
        REFUSED, ValueError, HUGE, ()),
    "find_cc mass": (
        lambda v: find_cc([1.0, v, 1.0], Space.S3, LevelSetSpec(0.4)),
        REFUSED, ValueError, None, ()),
    "find_cc c": (
        lambda v: find_cc([1.0, 1.0, 1.0], Space.H3, LevelSetSpec(v)),
        REFUSED, OutOfRangeError, None, ()),
    "find_cc tol": (
        lambda v: find_cc([1.0, 1.0, 1.0], Space.S3, LevelSetSpec(0.4, tol=v)),
        REFUSED, OutOfRangeError, None, ()),
    "integrate dt": (
        lambda v: integrate(_STATE, v, 2),
        REFUSED, OutOfRangeError, None, ()),
    "certify_rigidity horizon": (
        lambda v: certify_rigidity(MEMBER, horizon=v, dt=1e-3),
        REFUSED, OutOfRangeError, None, ()),
    "certify_rigidity dt": (
        lambda v: certify_rigidity(MEMBER, horizon=1e-2, dt=v),
        REFUSED, OutOfRangeError, None, ()),
    "make_report lambda": (
        lambda v: make_report(EX2, lam=v),
        NON_FINITE, OutOfRangeError, MILD, ()),
    "re_family_from_cc tol": (
        lambda v: re_family_from_cc(make_report(EX2), EX2, tol=v),
        REFUSED, OutOfRangeError, HUGE, ()),
    "pick_member beta": (
        lambda v: [pick_member(f, v) for f in _FAMILIES],
        NON_FINITE, InadmissibleBetaError, st.one_of(MILD, HUGE),
        (InadmissibleBetaError,)),
    "solve_geodesic_h mass": (
        lambda v: solve_geodesic_h([1.0, v], 1.0),
        REFUSED, ValueError, None, ()),
    "solve_geodesic_h c": (
        lambda v: solve_geodesic_h([1.0, 2.0], v),
        REFUSED, OutOfRangeError, None, ()),
    "enumerate_geodesic_h mass": (
        lambda v: enumerate_geodesic_h([1.0, v, 2.0], 1.0),
        REFUSED, ValueError, None, ()),
    "enumerate_geodesic_h mass range": (
        lambda v: enumerate_geodesic_h([1.0, v, 2.0], 1.0),
        OUTSIDE_GEODESIC, OutOfRangeError, None, ()),
    "enumerate_geodesic_h c range": (
        lambda v: enumerate_geodesic_h([1.0, 2.0, 3.0], v),
        st.one_of(REFUSED, OUTSIDE_GEODESIC), OutOfRangeError, INSIDE_GEODESIC,
        (NoConvergenceError,)),
    "solve_two_body_s mass": (
        lambda v: solve_two_body_s(1.0, v, 0.5),
        REFUSED, ValueError, HUGE, ()),
    "solve_two_body_s c": (
        lambda v: solve_two_body_s(1.0, 2.0, v),
        REFUSED, OutOfRangeError, HUGE, (OutOfRangeError,)),
    "rescale_curvature kappa": (
        lambda v: rescale_curvature(EX1.points, v),
        st.one_of(NON_FINITE, st.just(0.0)), OutOfRangeError,
        st.one_of(MILD.filter(bool), HUGE), (OffShellError,)),
}


@pytest.mark.parametrize("name", sorted(ENTRIES))
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_public_entries_keep_the_contract(name, data):
    call, refused, error, accepted, may_raise = ENTRIES[name]
    with pytest.raises(error):
        call(data.draw(refused, label="refused"))
    if accepted is not None:
        try:
            call(data.draw(accepted, label="accepted"))
        except may_raise:
            pass


# ─── the contract over the CLI ───────────────────────────────────────────


def _reject(token):
    raise AssertionError(f"exit 0 with a non-finite number {token} in the JSON")


def _check_finite_output(argv, out):
    if argv[0] == "sweep":
        for row in out.strip().splitlines()[1:]:
            assert all(math.isfinite(float(v)) for v in row.split(",")[:-1])
    else:
        # moulton prints its catalog and then a count line
        json.JSONDecoder(parse_constant=_reject).raw_decode(out)


def _text(v):
    return repr(float(v))


# name: (argv from a drawn value, values, the exit code they give, or
#        None for any of 0, 1, 2)
CLI = {
    "verify --tol": (lambda v, p: ["verify", p(), f"--tol={_text(v)}"],
                     REFUSED, 1),
    "verify --tol huge": (lambda v, p: ["verify", p(), f"--tol={_text(v)}"],
                          HUGE, 0),
    "verify lambda": (lambda v, p: ["verify", p(**{"lambda": _text(v)})],
                      NON_FINITE, 1),
    "verify lambda mild": (lambda v, p: ["verify", p(**{"lambda": _text(v)})],
                           MILD, None),
    "verify mass": (lambda v, p: ["verify", p(masses=[1.0, _text(v), 1.0])],
                    REFUSED, 1),
    "find mass": (lambda v, p: ["find", f"1,{_text(v)},1", "--space", "S3",
                                "--c", "0.4"], REFUSED, 1),
    "find --c": (lambda v, p: ["find", "1,1,1", "--space", "H3",
                               f"--c={_text(v)}"], REFUSED, 1),
    "find --c huge": (lambda v, p: ["find", "1,1,1", "--space", "S3",
                                    f"--c={_text(v)}"], HUGE, 1),
    "find --tol": (lambda v, p: ["find", "1,1,1", "--space", "S3", "--c", "0.4",
                                 f"--tol={_text(v)}"], REFUSED, 1),
    "find --seeds": (lambda v, p: ["find", "1,1,1", "--space", "S3", "--c", "0.4",
                                   f"--seeds={v}"], st.integers(max_value=0), 1),
    "simulate --dt": (lambda v, p: ["simulate", p(), "--beta", "0",
                                    f"--dt={_text(v)}"], REFUSED, 1),
    "simulate --horizon": (lambda v, p: ["simulate", p(), "--beta", "0",
                                         f"--horizon={_text(v)}"], REFUSED, 1),
    "simulate --beta": (lambda v, p: ["simulate", p(), "--horizon", "0.01",
                                      f"--beta={_text(v)}"], NON_FINITE, 1),
    "simulate lambda": (lambda v, p: ["simulate", p(**{"lambda": _text(v)}),
                                      "--beta", "0", "--horizon", "0.01"],
                        NON_FINITE, 1),
    "moulton mass": (lambda v, p: ["moulton", f"1,{_text(v)},2", "--space", "H3",
                                   "--c", "1"], REFUSED, 1),
    "moulton --c": (lambda v, p: ["moulton", "1,2", "--space", "H3",
                                  f"--c={_text(v)}"], REFUSED, 1),
    "moulton H3 --c range": (lambda v, p: ["moulton", "1,2,3", "--space", "H3",
                                           f"--c={_text(v)}"],
                             OUTSIDE_GEODESIC, 1),
    "moulton H3 --c inside": (lambda v, p: ["moulton", "1,2,3", "--space", "H3",
                                            f"--c={_text(v)}"],
                              INSIDE_GEODESIC, None),
    "moulton S3 --c": (lambda v, p: ["moulton", "1,2", "--space", "S3",
                                     f"--c={_text(v)}"],
                       st.one_of(REFUSED, HUGE), 1),
    "moulton --tol": (lambda v, p: ["moulton", "1,2", "--space", "S3", "--c",
                                    "0.5", f"--tol={_text(v)}"], REFUSED, 1),
    "moulton --tol huge": (lambda v, p: ["moulton", "1,2", "--space", "S3", "--c",
                                         "0.5", f"--tol={_text(v)}"], HUGE, 0),
    "sweep grid value": (lambda v, p: ["sweep", "lagrangian_s2",
                                       "--grid", f"m={_text(v)};r=0.5"],
                         REFUSED, 2),
    "sweep grid count": (lambda v, p: ["sweep", "lagrangian_s2",
                                       "--grid", f"m=1;r=0.2:0.8:{v}"],
                         st.integers(max_value=0), 1),
    "fixtures export": (lambda v, p: ["fixtures", "export"], st.none(), 0),
}


@pytest.mark.parametrize("name", sorted(CLI))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_cli_subcommands_keep_the_contract(name, data, payload_path):
    build, values, expected = CLI[name]
    argv = build(data.draw(values), payload_path)
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if expected is not None:
        assert code == expected, err
    assert "Traceback" not in err
    assert code != 1 or err.startswith("error: ")
    if code == 0:
        _check_finite_output(argv, out)


# ─── malformed shapes, counts and CLI text ───────────────────────────────


@pytest.mark.parametrize("call,message", [
    (lambda: Configuration(Space.S3, [1.0, 1.0, 1.0], _PAIR),
     "need one mass per point"),
    (lambda: PhaseState(EX1, np.zeros((2, 4))), "need one momentum row per body"),
    (lambda: integrate(_STATE, 1e-3, 0), "need steps >= 1 and record_every >= 1"),
    (lambda: integrate(_STATE, 1e-3, 2, record_every=0),
     "need steps >= 1 and record_every >= 1"),
    (lambda: pair_force(1, 1, EX1), "pair_force needs two distinct bodies"),
    (lambda: GeodesicHConfig([-0.5, NAN], [1.0, 1.0]), "need one finite theta per mass"),
    (lambda: GeodesicHConfig([-0.5, INF], [1.0, 1.0]), "need one finite theta per mass"),
])
def test_a_malformed_shape_or_count_is_a_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("argv,message", [
    (["sweep", "lagrangian_s2", "--grid", "m=1;r"], "grid entry 'r' is not name=spec"),
    (["sweep", "lagrangian_s2", "--grid", "m=1;r=0.2:0.8"],
     "grid range '0.2:0.8' is not start:stop:count"),
    (["sweep", "lagrangian_s2", "--grid", " ; "], "empty grid specification"),
    (["find", "1,x,2", "--space", "S3", "--c", "0.4"],
     "cannot parse masses '1,x,2': could not convert string to float: 'x'"),
])
def test_cli_text_it_cannot_parse_exits_1(argv, message):
    assert _run(argv) == (1, "", f"error: {message}\n")
