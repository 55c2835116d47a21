"""Counting and solving geodesic configurations: hyperbolic line and spherical pairs."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curved_nbody import (
    GeodesicHConfig,
    Space,
    cc_residual,
    enumerate_geodesic_h,
    geodesic_lambda,
    hessian_geodesic_h,
    lambda_estimate,
    solve_geodesic_h,
    solve_two_body_s,
)
from curved_nbody import moulton
from curved_nbody.centralconfig import _newton
from curved_nbody.errors import OutOfRangeError, SingularPairError
from curved_nbody.moulton import (
    _dual_objective,
    _dual_path,
    _grad_inertia,
    _pair_gradient,
    _pair_potential,
    _theta_chart,
)


# ─── configuration container ─────────────────────────────────────────────


def test_config_rejects_coincident_bodies():
    with pytest.raises(SingularPairError):
        GeodesicHConfig(thetas=[0.3, 0.3], masses=[1.0, 1.0])


def test_config_rejects_bad_masses():
    with pytest.raises(ValueError):
        GeodesicHConfig(thetas=[0.0, 1.0], masses=[1.0, -2.0])


def test_embedding_round_trip():
    g = GeodesicHConfig(thetas=[-0.4, 0.1, 0.9], masses=[1.0, 2.0, 3.0])
    cfg = g.to_configuration()
    assert cfg.space is Space.H3
    assert g.n == cfg.n == 3
    assert np.allclose(cfg.points[:, 0], np.sinh(g.thetas))
    assert np.allclose(cfg.points[:, 3], np.cosh(g.thetas))
    assert np.allclose(cfg.points[:, 1:3], 0.0)
    # 1-D potential and inertia agree with the ambient definitions
    from curved_nbody import force_function, moment_of_inertia

    assert g.potential() == pytest.approx(force_function(cfg), rel=1e-13)
    assert g.inertia() == pytest.approx(moment_of_inertia(cfg), rel=1e-13)


# ─── stationarity structure ──────────────────────────────────────────────


def test_hessian_without_constraint_has_translation_kernel():
    g = GeodesicHConfig(thetas=[-0.7, 0.2, 1.1], masses=[2.0, 1.0, 0.5])
    H = hessian_geodesic_h(g, 0.0)
    assert np.allclose(H, H.T)
    # the pairwise potential only feels gaps, so uniform shifts are flat
    assert np.max(np.abs(H @ np.ones(3))) < 1e-12


def test_potential_is_shift_invariant():
    m = [1.0, 2.0, 3.0]
    a = GeodesicHConfig(thetas=[-0.4, 0.1, 0.9], masses=m)
    b = GeodesicHConfig(thetas=[-0.4 + 0.37, 0.1 + 0.37, 0.9 + 0.37], masses=m)
    assert a.potential() == pytest.approx(b.potential(), rel=1e-13)


def test_geodesic_lambda_matches_ambient_estimate():
    g = solve_geodesic_h([1.0, 2.0, 3.0], 1.0)
    assert geodesic_lambda(g) == pytest.approx(
        lambda_estimate(g.to_configuration()), rel=1e-10
    )


# ─── hyperbolic solver ───────────────────────────────────────────────────


def test_two_body_solution_is_closed_form():
    # equal masses at inertia 1 must sit symmetrically
    g = solve_geodesic_h([1.0, 1.0], 1.0)
    t = np.sort(g.thetas)
    root = math.asinh(math.sqrt(0.5))
    assert t[0] == pytest.approx(-root, abs=1e-12)
    assert t[1] == pytest.approx(root, abs=1e-12)
    lam = geodesic_lambda(g)
    assert lam < 0.0
    eigs = np.linalg.eigvalsh(hessian_geodesic_h(g, lam))
    assert eigs[0] > 0.0


def test_solution_satisfies_balance_and_level():
    g = solve_geodesic_h([1.0, 2.0, 3.0], 1.0, rng=np.random.default_rng(0))
    t, m = g.thetas, g.masses
    assert abs(float(np.sum(m * np.sinh(2.0 * t)))) < 1e-10
    assert g.inertia() == pytest.approx(1.0, abs=1e-12)
    # the embedded configuration solves the full four-dimensional equations
    _, rmax = cc_residual(g.to_configuration(), geodesic_lambda(g))
    assert rmax < 1e-9


def _relative_row_residual(g):
    """The largest row of dU - lam dI over the largest term summed into a
    row, at g's least-squares multiplier."""
    order = np.argsort(g.thetas)
    t, m = g.thetas[order].tolist(), g.masses[order].tolist()
    lam = geodesic_lambda(g)
    g_i = _grad_inertia(t, m)
    rows = [a - lam * b for a, b in zip(_pair_gradient(t, m), g_i)]
    terms = [abs(lam * b) for b in g_i]
    for i, j in itertools.combinations(range(len(t)), 2):
        terms.append(m[i] * m[j] / math.sinh(t[j] - t[i]) ** 2)
    return max(abs(r) for r in rows) / max(terms)


def test_descent_brings_a_lopsided_pair_within_newton_reach():
    # Newton from the unrefined start stalls here; the dual path must not
    m, c = [5.104101873155492, 0.29422821498375307], 26.063712995063234
    g = solve_geodesic_h(m, c)
    assert abs(float(np.sum(g.masses * np.sinh(2.0 * g.thetas)))) < 1e-10
    assert g.inertia() == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
def test_the_lopsided_heavy_level_solves(seed):
    # a KKT Jacobian condition number of about 3.9e5 stalled Newton from
    # the old descent's hand-off near a residual of 3e-8
    rng = None if seed is None else np.random.default_rng(seed)
    m, c = [0.15207086400859238, 0.6654546753844922], 17.462269008547768
    g = solve_geodesic_h(m, c, (1, 0), rng=rng)
    assert g.thetas[1] < g.thetas[0]
    assert g.inertia() == pytest.approx(c, rel=1e-12)
    assert _relative_row_residual(g) < 1e-12


@pytest.mark.parametrize("c", [500.0, 1000.0])
def test_a_large_level_solves_every_ordering(c):
    # c / sum(m) is about 36 and 71; each ordering has exactly one CC
    assert len(enumerate_geodesic_h([1.0, 3.0, 10.0], c)) == 3


@pytest.mark.parametrize("masses,c,ordering", [
    ([0.0023319403000613822, 0.023124372224701133], 92482.72275032176, (0, 1)),
    ([0.0200861953525039, 0.02284208271886374], 350889.64439794386, (1, 0)),
])
def test_a_light_pair_on_a_large_level_is_a_central_configuration(masses, c,
                                                                  ordering):
    # an absolute stopping test took rows below 3e-11 for a CC here, and
    # returned theta = +-8.2459 with a balance sum m sinh 2theta of 1.5e5
    g = solve_geodesic_h(masses, c, ordering)
    balance = g.masses * np.sinh(2.0 * g.thetas)
    assert abs(float(np.sum(balance))) < 1e-8 * float(np.sum(np.abs(balance)))
    assert _relative_row_residual(g) < 1e-8
    assert g.inertia() == pytest.approx(c, rel=1e-12)


def test_a_level_past_two_to_the_nineteen_solves():
    # one ulp of c there, 1.164e-10, is above an absolute 1e-10 test
    g = solve_geodesic_h([1.0, 1.5], 6e5)
    assert g.inertia() == pytest.approx(6e5, rel=1e-12)
    assert _relative_row_residual(g) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(k=st.integers(min_value=-60, max_value=60),
       seed=st.integers(min_value=0, max_value=5))
def test_a_power_of_two_scale_changes_no_bit(k, seed):
    # (2^k m, 2^k c) is divided by a power of two 2^k larger, exactly, so
    # the solve runs on the same floats
    rng = np.random.default_rng(seed)
    masses, c = rng.uniform(0.1, 10.0, size=3), float(rng.uniform(0.1, 10.0))
    ordering = tuple(int(i) for i in rng.permutation(3))
    want = solve_geodesic_h(masses, c, ordering).thetas
    got = solve_geodesic_h(np.ldexp(masses, k), math.ldexp(c, k), ordering)
    assert got.thetas.tobytes() == want.tobytes()


def _wide_problems(count):
    """Masses and c log-uniform on [1e-3, 1e6], N from 2 to 5, one random
    ordering each; seeded."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        masses = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), n))
        c = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e6))))
        yield masses, c, tuple(int(k) for k in rng.permutation(n))


def test_the_wide_sweep_solves_to_the_certificate():
    # the test configuration turns a RuntimeWarning into a failure.  The
    # certificate is recomputed at the least-squares multiplier, over the
    # largest term of lam dI as in the solver; twice the solver's bound
    # leaves room for that multiplier and for the recomputation's rounding
    bound = 2.0 * moulton._CERTIFICATE_TOL
    for masses, c, ordering in _wide_problems(40):
        g = solve_geodesic_h(masses, c, ordering)
        assert list(np.argsort(g.thetas)) == list(ordering)
        order = list(ordering)
        t, m = g.thetas[order].tolist(), g.masses[order].tolist()
        lam = geodesic_lambda(g)
        g_i = _grad_inertia(t, m)
        rows = [a - lam * b for a, b in zip(_pair_gradient(t, m), g_i)]
        assert max(map(abs, rows)) <= bound * abs(lam) * max(map(abs, g_i))
        assert abs(g.inertia() - c) <= bound * c
        assert np.linalg.eigvalsh(hessian_geodesic_h(g, lam))[0] > 0.0


# ─── the float pair loops and the dual path on them ──────────────────────

@st.composite
def _ordered_problem(draw):
    """Masses U(0.1, 10) and increasing thetas with gaps of at least 1e-3."""
    n = draw(st.integers(min_value=2, max_value=7))
    masses = draw(st.lists(st.floats(min_value=0.1, max_value=10.0),
                           min_size=n, max_size=n))
    start = draw(st.floats(min_value=-3.0, max_value=3.0))
    gaps = draw(st.lists(st.floats(min_value=1e-3, max_value=2.0),
                         min_size=n - 1, max_size=n - 1))
    return np.array(masses), start + np.concatenate([[0.0], np.cumsum(gaps)])


def _long_double_reference(t, m):
    """U, dU/dtheta and each gradient row's sum of term magnitudes, from the
    closed forms U = 1/2 sum m_i m_j coth|t_j - t_i| and
    dU/dt_i = sum_j sign(t_j - t_i) m_i m_j / sinh^2(t_j - t_i), in long
    double."""
    t, m = t.astype(np.longdouble), m.astype(np.longdouble)
    gap = t[None, :] - t[:, None]   # row i holds t_j - t_i
    np.fill_diagonal(gap, 1.0)
    mm = np.outer(m, m)
    np.fill_diagonal(mm, 0.0)
    u = 0.5 * np.sum(mm / np.tanh(np.abs(gap)))
    terms = mm / np.sinh(gap) ** 2
    return u, np.sum(np.sign(gap) * terms, axis=1), np.sum(terms, axis=1)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(problem=_ordered_problem())
def test_float_potential_and_gradient_match_a_long_double_evaluation(problem):
    m, t = problem
    assert np.all(np.diff(t) > 0.0)
    u_ref, g_ref, row_scale = _long_double_reference(t, m)
    assert _pair_potential(t.tolist(), m.tolist()) == pytest.approx(
        float(u_ref), rel=1e-13)
    # a row's terms may cancel, so each row is measured against its terms
    diff = np.abs(np.array(_pair_gradient(t.tolist(), m.tolist())) - g_ref)
    assert np.all(diff <= 1e-13 * row_scale)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(problem=_ordered_problem(),
       log_c=st.floats(min_value=math.log(0.02), max_value=math.log(50.0)))
def test_descent_stays_ordered_on_the_level(problem, log_c):
    # every Newton point of the dual path is ordered, and it ends on the
    # level within the hand-off tolerance, with a multiplier below zero
    m, t = problem
    c = math.exp(log_c)
    visited = []

    def recording(t, masses, lam):
        visited.append(t)
        return hessian(t, masses, lam)

    hessian = moulton._hessian
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moulton, "_hessian", recording)
        out, lam = _dual_path(m, c, t)
    assert isinstance(out, np.ndarray) and out.shape == m.shape
    assert visited and all(np.all(np.diff(p) > 0.0) for p in visited + [out])
    inertia = float(np.sum(m * np.sinh(out) ** 2))
    assert abs(math.log(inertia / c)) <= moulton._DUAL_LEVEL_TOL
    assert lam < 0.0


@pytest.mark.parametrize("u,m", [
    # distinct u, equal asinh: the trial is not increasing
    ([1e10, math.nextafter(1e10, math.inf)], [1.0, 1.0]),
    ([-1e300, 1e300], [1.0, 1.0]),            # expm1 of the gap overflows
    ([-1e200, 0.0, 1e200], [1.0, 1.0, 1.0]),
    # finite trig, but the pair weight overflows to inf without raising
    ([-1.0, 1.0], [1e200, 1e200]),
])
def test_a_trial_out_of_float_range_has_infinite_potential(u, m):
    assert _dual_objective([math.asinh(x) for x in u], m, 1.0) == math.inf


def test_the_dual_path_halves_a_trial_out_of_float_range(monkeypatch):
    # a first Hessian 1e-4 of the true one makes the first full step move
    # the bodies to theta near -3000: sinh overflows there, and the step is
    # halved, not raised
    m, t0, c = np.array([1.0, 2.0]), np.array([-0.5, 0.7]), 1.0
    hessian, objective = moulton._hessian, moulton._dual_objective
    calls, tried = [], []

    def shrunk(t, masses, lam):
        calls.append(t)
        return hessian(t, masses, lam) * (1e-4 if len(calls) == 1 else 1.0)

    def recorded(t, m, mu):
        tried.append((t, objective(t, m, mu)))
        return tried[-1][1]

    monkeypatch.setattr(moulton, "_hessian", shrunk)
    monkeypatch.setattr(moulton, "_dual_objective", recorded)
    t, _ = _dual_path(m, c, t0)
    (_, start), (full, full_val), (half, _) = tried[:3]
    assert np.all(np.diff(full) > 0.0) and full[0] < -1000.0
    with pytest.raises(OverflowError):
        moulton._pair_excess(full, m.tolist())
    assert math.isfinite(start) and full_val == math.inf
    assert np.array(half) - t0 == pytest.approx(0.5 * (np.array(full) - t0),
                                                rel=1e-12)
    assert np.all(np.diff(t) > 0.0)
    assert abs(math.log(float(np.sum(m * np.sinh(t) ** 2)) / c)) <= 1e-6


# ─── the theta chart through the shared Newton core ──────────────────────


def _never(t, lam, f):
    return False


def _newton_handoff(monkeypatch, masses, c):
    """(theta, lambda) that solve_geodesic_h's dual path hands to Newton."""
    seen = []

    def spy(chart, t, lam, done, max_iter):
        seen.append((t.copy(), lam))
        return _newton(chart, t, lam, done, max_iter)

    monkeypatch.setattr(moulton, "_newton", spy)
    solve_geodesic_h(masses, c)
    return seen[0]


def test_newton_returns_the_rows_at_the_point_it_returns(monkeypatch):
    # the lopsided pair takes two accepted steps before its rows stop
    # moving; rows left over from before the last step would differ here
    m = np.array([5.104101873155492, 0.29422821498375307])
    c = 26.063712995063234
    t0, lam0 = _newton_handoff(monkeypatch, m, c)
    previous = None
    for max_iter in (1, 2):
        t, lam, f, why = _newton(_theta_chart(m, c), t0, lam0, _never, max_iter)
        assert why == "refinement did not reach tolerance"
        expected = _theta_chart(m, c)(t, lam)[0]
        assert f.tobytes() == expected.tobytes()
        assert previous is None or f.tobytes() != previous.tobytes()
        previous = f


def test_newton_halves_a_step_that_reorders_the_bodies():
    # from here the full Newton step carries body 0 past body 1
    m, c = np.array([1.0, 2.0, 3.0]), 1.0
    chart = _theta_chart(m, c)
    tried = []

    def spy(t, lam):
        f, jac, trial = chart(t, lam)

        def recorded(d):
            tried.append(d)
            return trial(d)

        return f, jac, recorded

    t0 = np.array([-0.54, 0.29, 0.5])
    t, lam, f, why = _newton(spy, t0, 2.3, _never, 1)
    assert len(tried) == 2
    full, half = tried
    with pytest.raises(SingularPairError):
        chart(t0, 2.3)[2](full)
    assert np.all(np.diff(t) > 0.0)
    assert t.tobytes() == (t0 + half[:3]).tobytes()
    assert half.tobytes() == (0.5 * full).tobytes()


def test_newton_halves_a_trial_whose_sinh_overflows():
    # a Jacobian whose Newton step moves both bodies by 400: math.sinh of
    # 2 theta overflows in the trial's dI/dtheta and raises OverflowError
    m, c = np.array([1.0, 2.0]), 1.0
    chart = _theta_chart(m, c)
    step = np.array([400.0, 400.0, 1.0])
    tried = []

    def spy(t, lam):
        f, _, trial = chart(t, lam)

        def recorded(d):
            tried.append(d)
            return trial(d)

        return f, lambda: np.diag(-f / step), recorded

    t0, lam0 = np.array([-0.5, 0.7]), -0.3
    t, lam, f, why = _newton(spy, t0, lam0, _never, 1)
    full, half = tried[:2]
    assert full == pytest.approx(step, rel=1e-12)
    with pytest.raises(OverflowError):
        chart(t0, lam0)[2](full)
    assert half.tobytes() == (0.5 * full).tobytes()
    assert np.all(np.isfinite(f)) and np.all(np.diff(t) > 0.0)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
def test_solve_accepts_a_residual_at_its_rounding_floor(seed):
    # heavy and tight (gaps ~0.01): gradient terms near 5e5 leave Newton
    # one or two of their ulps above an absolute 1e-10
    m = [7.583700913106819, 7.153140102070889, 7.933992857190704,
         8.689188936460802, 9.781336274180493, 6.421005818743957]
    c = 0.0283368838908319
    rng = None if seed is None else np.random.default_rng(seed)
    g = solve_geodesic_h(m, c, (4, 2, 5, 1, 0, 3), rng=rng)
    assert list(np.argsort(g.thetas)) == [4, 2, 5, 1, 0, 3]
    assert g.inertia() == pytest.approx(c, rel=1e-12)
    lam = geodesic_lambda(g)
    assert np.linalg.eigvalsh(hessian_geodesic_h(g, lam))[0] > 0.0


def test_solver_respects_requested_ordering():
    g = solve_geodesic_h([1.0, 2.0, 3.0], 1.0, ordering=[2, 0, 1])
    t = g.thetas
    assert t[2] < t[0] < t[1]


def test_solver_input_validation():
    with pytest.raises(OutOfRangeError):
        solve_geodesic_h([1.0, 1.0], 0.0)
    with pytest.raises(OutOfRangeError):
        solve_geodesic_h([1.0, 1.0], -2.0)
    with pytest.raises(ValueError):
        solve_geodesic_h([1.0, 1.0, 1.0], 1.0, ordering=[0, 0, 1])


@pytest.mark.parametrize("n,classes", [(2, 1), (3, 3), (4, 12), (5, 60)])
def test_enumeration_counts_ordering_classes(n, classes):
    rng = np.random.default_rng(100 + n)
    masses = rng.uniform(0.5, 2.0, size=n)
    sols = enumerate_geodesic_h(masses, 1.0)
    assert len(sols) == classes == math.factorial(n) // 2
    for s in sols:
        assert s.min_hessian_eig > 0.0
        t, m = s.config.thetas, s.config.masses
        assert abs(float(np.sum(m * np.sinh(2.0 * t)))) < 1e-10
        assert s.inertia == pytest.approx(1.0, abs=1e-11)


def _enumerate_every_ordering(masses, c):
    """Reference enumeration: solve all N! orderings and keep the first of
    each pair whose thetas agree, or agree up to sign, within 1e-7."""
    masses = np.asarray(masses, dtype=float)
    reps, out = [], []
    for ordering in itertools.permutations(range(masses.size)):
        config = solve_geodesic_h(masses, c, ordering)
        t = config.thetas
        if any(np.allclose(t, r, atol=1e-7) or np.allclose(t, -r, atol=1e-7)
               for r in reps):
            continue
        reps.append(t)
        out.append(moulton._solution_record(ordering, config))
    return out


@pytest.mark.parametrize("n,c", [(2, 0.3), (2, 15.0), (3, 1.0), (3, 0.05),
                                 (4, 2.5), (4, 0.2), (5, 1.0)])
def test_enumeration_equals_the_every_ordering_reference(n, c):
    masses = np.random.default_rng(300 + n).uniform(0.3, 3.0, size=n)
    got = enumerate_geodesic_h(masses, c)
    ref = _enumerate_every_ordering(masses, c)
    assert [s.ordering for s in got] == [s.ordering for s in ref]
    for a, b in zip(got, ref):
        assert a.config.thetas.tobytes() == b.config.thetas.tobytes()
        assert (a.lam, a.inertia, a.potential, a.min_hessian_eig) == (
            b.lam, b.inertia, b.potential, b.min_hessian_eig)


def test_reversed_ordering_solves_to_the_mirror_image():
    # the property that lets the enumeration solve one ordering per class
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(12):
        n = int(rng.integers(2, 6))
        masses = rng.uniform(0.3, 3.0, size=n)
        c = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        p = tuple(int(k) for k in rng.permutation(n))
        t = solve_geodesic_h(masses, c, p).thetas
        mirror = solve_geodesic_h(masses, c, p[::-1]).thetas
        worst = max(worst, float(np.max(np.abs(mirror + t))))
    print(f"largest |theta(reversed) + theta|: {worst:.3e}")
    assert worst < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_solves_one_ordering_per_class(n, monkeypatch):
    solved = []

    def counting(masses, c, ordering=None, rng=None):
        solved.append(tuple(ordering))
        return solve_geodesic_h(masses, c, ordering, rng)

    monkeypatch.setattr(moulton, "solve_geodesic_h", counting)
    enumerate_geodesic_h(np.linspace(1.0, 2.0, n), 1.0)
    assert len(solved) == math.factorial(n) // 2
    assert all(p[0] < p[-1] for p in solved)


def test_enumeration_needs_two_bodies():
    with pytest.raises(ValueError, match="two bodies"):
        enumerate_geodesic_h([1.0], 1.0)


def test_enumeration_solutions_are_genuinely_distinct():
    sols = enumerate_geodesic_h([1.0, 2.0, 3.0], 1.0)
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            a, b = sols[i].config.thetas, sols[j].config.thetas
            assert not np.allclose(a, b, atol=1e-6)
            assert not np.allclose(a, -b, atol=1e-6)


def test_restart_agreement_for_one_ordering():
    vals = []
    for k in range(6):
        g = solve_geodesic_h(
            [1.3, 0.9, 1.7], 2.0, ordering=[0, 1, 2], rng=np.random.default_rng(k)
        )
        vals.append(g.thetas)
    worst = max(float(np.max(np.abs(v - vals[0]))) for v in vals[1:])
    assert worst < 1e-8


# ─── spherical two-body counting ─────────────────────────────────────────


def test_two_body_sphere_counts_follow_the_mass_split():
    m1, m2 = 1.0, 2.0
    assert solve_two_body_s(m1, m2, 0.5).count == 2
    assert solve_two_body_s(m1, m2, 1.5).count == 0  # between the masses
    assert solve_two_body_s(m1, m2, 2.5).count == 2


def test_two_body_sphere_solutions_satisfy_the_closed_forms():
    m1, m2, c = 1.0, 2.0, 0.5
    res = solve_two_body_s(m1, m2, c)
    M = m1 + m2
    s1 = c * (m2 - c) / (m1 * (M - 2.0 * c))
    s2 = c * (m1 - c) / (m2 * (M - 2.0 * c))
    for sol in res.solutions:
        assert math.sin(sol.theta1) ** 2 == pytest.approx(s1, abs=1e-12)
        assert math.sin(sol.theta2) ** 2 == pytest.approx(s2, abs=1e-12)
        assert abs(sol.balance_residual()) < 1e-12
        assert sol.inertia() == pytest.approx(c, abs=1e-12)


def test_two_body_sphere_embeds_as_a_solution():
    res = solve_two_body_s(1.0, 2.0, 0.5)
    for sol in res.solutions:
        cfg = sol.to_configuration()
        lam = lambda_estimate(cfg)
        _, rmax = cc_residual(cfg, lam)
        assert rmax < 1e-9


def test_two_body_sphere_equal_mass_continuum():
    res = solve_two_body_s(1.0, 1.0, 1.0)
    assert res.count == math.inf
    assert res.family is not None
    member = res.family.member(0.3)
    # the family keeps the pair at quarter-circle separation, where the
    # pairwise force vanishes identically
    assert member.theta2 - member.theta1 == pytest.approx(math.pi / 2.0)
    cfg = member.to_configuration()
    from curved_nbody import force_function, pairwise_distances

    assert pairwise_distances(cfg)[0, 1] == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert abs(force_function(cfg)) < 1e-12
    assert abs(member.balance_residual()) < 1e-12
    assert member.inertia() == pytest.approx(1.0, abs=1e-12)


def test_two_body_sphere_far_branch():
    res = solve_two_body_s(1.0, 1.0, 1.0)
    far = res.family.member(0.3, branch=1)
    assert far.theta2 == pytest.approx(0.3 + 1.5 * math.pi)
    with pytest.raises(OutOfRangeError):
        res.family.member(2.0)  # theta1 must stay in (0, pi/2)
    with pytest.raises(ValueError):
        res.family.member(0.3, branch=2)


def test_two_body_sphere_domain_errors():
    for c in (0.0, -1.0, 3.0, 5.0):
        with pytest.raises(OutOfRangeError):
            solve_two_body_s(1.0, 2.0, c)


def test_two_body_sphere_dead_zone_at_half_total_mass():
    # c = (m1+m2)/2 with unequal masses admits no solutions at all
    res = solve_two_body_s(1.0, 2.0, 1.5)
    assert res.count == 0
    assert res.family is None
    assert res.solutions == []
