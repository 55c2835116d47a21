"""The per-run force kernels against the formulas they replace, and the
RK4 stepper that calls them against float-hex pins.

The array kernel hoists the metric, the mass column and the singular-pair
bounds out of the stage loop, and tests singular pairs with one fused
predicate.  None of that may change a bit of any
result or any SingularPairError.  The float stepper that runs whole steps
for a few bodies sums the forces in another order, so its runs are held
to the array stepper's within a relative 1e-12, and its singular pairs to
the same errors.  The array stepper is driven at those few bodies by
lowering _PAIR_LOOP_MAX_N, the only thing that picks between the two.
The float stepper runs one generated straight-line function per step,
held bit for bit to the pair loop it replaced (pair_loop.LoopKernel).
"""

import contextlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curved_nbody
from curved_nbody import dynamics
from curved_nbody.centralconfig import _RowOps, make_report
from curved_nbody.dynamics import (
    _PAIR_LOOP_MAX_N,
    Configuration,
    PhaseState,
    _ForceKernel,
    _PairKernel,
    _gram_checked,
    _rk4,
    _sn_powers,
    generator_momenta,
    integrate,
)
from curved_nbody.errors import (
    DegenerateVectorError,
    OffShellError,
    SingularEncounterError,
    SingularPairError,
)
from curved_nbody.fixtures import FIXTURE_BUILDERS
from curved_nbody.manifold import (
    EPS_SINGULAR,
    GeneratorKind,
    IsometryGenerator,
    Space,
    inner,
)
from curved_nbody.relequil import certify_rigidity, pick_member, re_family_from_cc

from helpers import random_config, random_momenta
from pair_loop import LoopKernel
from row_descent import LoopDescent


# ─── the kernel against the formula it replaced ─────────────────────────


def _reference_grad(space, m, Q):
    s = _gram_checked(space, Q)
    _, sn3 = _sn_powers(space, s)
    w = np.outer(m, m) / sn3
    n = len(m)
    w[..., range(n), range(n)] = 0.0
    return w @ Q - np.sum(w * s, axis=-1)[..., None] * Q


def _reference_rhs(space, m, Q, P):
    V = P / m[:, None]
    G = _reference_grad(space, m, Q)
    vsq = inner(V, V, space)
    return V, G - space.sigma * (m * vsq)[:, None] * Q


def _bits(a):
    return np.asarray(a).tobytes()


draws = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([Space.S3, Space.H3]),
    st.integers(1, 4),   # B
    st.integers(1, 6),   # N
)


@settings(max_examples=60, deadline=None)
@given(draws)
def test_kernel_is_bitwise_the_reference_formula(args):
    seed, space, b, n = args
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 5.0, n)
    cfgs = [random_config(space, n, rng, masses=m) for _ in range(b)]
    Q = np.array([c.points for c in cfgs])
    P = np.array([random_momenta(c, rng, scale=1.0) for c in cfgs])
    kernel = _ForceKernel(space, m)
    assert _bits(kernel.grad(Q)) == _bits(_reference_grad(space, m, Q))
    V, dP = kernel.rhs(Q, P)
    want = [_reference_rhs(space, m, q, p) for q, p in zip(Q, P)]
    assert _bits(V) == _bits([v for v, _ in want])
    assert _bits(dP) == _bits([d for _, d in want])
    for q, p in zip(Q, P):
        assert _bits(kernel.grad(q)) == _bits(_reference_grad(space, m, q))
        assert _bits(kernel.rhs(q, p)) == _bits(_reference_rhs(space, m, q, p))


# ─── the float stepper against the array stepper ────────────────────────


@contextlib.contextmanager
def _array_stepper():
    """A context in which _rk4 runs the array stages at every N."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_PAIR_LOOP_MAX_N", 0)
        yield


def _final_state(space, m, Q, P, dt, steps, xi=None):
    states = []
    _rk4(space, m, Q, P, dt, steps,
         lambda k, Qs, Ps: states.append((k + len(Qs), Qs[-1], Ps[-1])), xi)
    return states[-1]


def _generator(space, kind, rng):
    if kind == "none":
        return None
    if kind == "parabolic":
        return IsometryGenerator(GeneratorKind.PARABOLIC, eta=rng.uniform(-1.0, 1.0))
    block = (GeneratorKind.DOUBLE_ROTATION if space is Space.S3
             else GeneratorKind.ROTATION_BOOST)
    return IsometryGenerator(block, *rng.uniform(-1.5, 1.5, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([Space.S3, Space.H3]),
       st.integers(2, _PAIR_LOOP_MAX_N), st.sampled_from([0.1, 1.0, 3.0]),
       st.sampled_from(["none", "block", "parabolic"]))
def test_pair_loop_matches_the_array_kernel(seed, space, n, scale, kind):
    # 20 steps in floats against 20 array steps from the same state: the
    # forces differ by rounding only, and nothing amplifies that to more
    # than a relative 1e-12 in so few steps
    if kind == "parabolic" and space is Space.S3:
        kind = "block"
    rng = np.random.default_rng(seed)
    cfg = random_config(space, n, rng, masses=rng.uniform(0.1, 5.0, n))
    P = random_momenta(cfg, rng, scale=scale)
    g = _generator(space, kind, rng)
    xi = None if g is None else g.matrix_log()
    got = _final_state(space, cfg.masses, cfg.points, P, 1e-3, 20, xi)
    with _array_stepper():
        want = _final_state(space, cfg.masses, cfg.points, P, 1e-3, 20, xi)
    assert got[0] == want[0] == 20
    for a, b in zip(got[1:], want[1:]):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("n", range(1, 7))
def test_the_stepper_picks_the_kernel_by_body_count(n, monkeypatch):
    calls = []
    for cls, name in ((_PairKernel, "step"), (_ForceKernel, "rhs")):
        original = getattr(cls, name)

        def counted(self, *args, _original=original, _cls=cls):
            calls.append(_cls)
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    cfg = random_config(Space.S3, n, np.random.default_rng(n))
    integrate(PhaseState(cfg, np.zeros((n, 4))), 1e-3, 2)
    kind = _PairKernel if n <= _PAIR_LOOP_MAX_N else _ForceKernel
    assert calls and set(calls) == {kind}


def _step_run(kernel, q, p, dt, steps):
    """The bits of each state of up to `steps` steps of kernel.step from
    (q, p), and the class and message of the error that ended them."""
    half, sixth = 0.5 * dt, dt / 6.0
    states = []
    with np.errstate(over="ignore", invalid="ignore"):  # as _rk4 runs it
        try:
            for _ in range(steps):
                q, p = kernel.step(q, p, dt, half, sixth)
                states.append(_bits([q, p]))
        except (SingularPairError, OffShellError, DegenerateVectorError) as exc:
            return states, (type(exc), str(exc))
    return states, None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([Space.S3, Space.H3]),
       st.integers(1, _PAIR_LOOP_MAX_N),
       st.sampled_from(["none", "block", "parabolic"]),
       st.sampled_from([1e-3, 1e-2, 0.05]), st.sampled_from([0.1, 1.0, 3.0, 10.0]),
       st.booleans())
def test_the_generated_step_is_the_pair_loop_bit_for_bit(seed, space, n, kind,
                                                          dt, scale, zeros):
    # 200 steps: every state has the loop's bits, and a run
    # that ends in an error (a collision, a state that leaves float range)
    # ends at the same step with the same class and message.  With zeros,
    # whole coordinate columns start at +-0.0, where the loop's 0.0 + of
    # each sum and + 0.0 of each co-moving product decide the sign of a
    # zero rate; random states hardly ever hold one
    if kind == "parabolic" and space is Space.S3:
        kind = "block"
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 5.0, n)
    cfg = random_config(space, max(n, 2), rng, masses=np.resize(m, max(n, 2)))
    cfg = Configuration(space, m, cfg.points[:n])
    Q, P = cfg.points.copy(), random_momenta(cfg, rng, scale=scale)
    for a in (Q, P) if zeros else ():
        at = np.broadcast_to(rng.random(4) < 0.5, a.shape)
        a[at] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(at)))
    g = _generator(space, kind, rng)
    xi = None if g is None else g.matrix_log()
    q, p = Q.tolist(), P.tolist()
    got, want = _PairKernel(space, m, xi), LoopKernel(space, m, xi)
    assert _step_run(got, q, p, dt, 200) == _step_run(want, q, p, dt, 200)


# Rows at rest whose pairs clear the singular bounds, with rows that
# the reprojection refuses once a step of 1e-9 has moved them by about
# 1e-18, each for one of its tests alone: on H3 the lower sheet (w <= 0
# with <q, q> < 0; its pairs are the upper sheet's) and a light-like row
# (w > 0 with <q, q> = 0) beside upper-sheet rows, on S3 the zero row.
_UPPER = [(1.0, 0.0, 0.0, math.sqrt(2.0)), (1.0, 1.0, 0.0, math.sqrt(3.0)),
          (1.0, 0.0, 1.0, math.sqrt(3.0)), (0.0, 0.0, 0.0, 1.0)]
_REFUSED_ROWS = {
    "w <= 0": (Space.H3, lambda n: [tuple(-x for x in row) for row in _UPPER[:n]],
               "hyperbolic points need w > 0 before scaling"),
    "<q, q> >= -1e-12": (Space.H3, lambda n: [*_UPPER[:n - 1], (-2.0, 0.0, 0.0, 2.0)],
                         "cannot reach the w >= 1 sheet"),
    "norm < 1e-12": (Space.S3, lambda n: [*np.eye(4)[:n - 1].tolist(), [0.0] * 4],
                     "cannot normalize a near-zero vector"),
}


@pytest.mark.parametrize("case", list(_REFUSED_ROWS))
@pytest.mark.parametrize("n", range(1, _PAIR_LOOP_MAX_N + 1))
def test_a_refused_row_raises_what_the_pair_loop_raises(case, n):
    space, rows, message = _REFUSED_ROWS[case]
    q, p, m = rows(n), [[0.0] * 4] * n, np.arange(1.0, n + 1.0)
    got = _step_run(_PairKernel(space, m), q, p, 1e-9, 1)
    assert got == _step_run(LoopKernel(space, m), q, p, 1e-9, 1)
    assert got[0] == [] and got[1][0] is DegenerateVectorError
    assert message in got[1][1]


# An H3 row below w = 0 beside a row whose <q, q> is inf - inf, a finite
# row whose squares overflow or an infinite row.  The floats meet those
# silently; the generated reprojection hands the rows to _reproject, which
# must raise the lower row's error without a numpy warning for the other.
_BESIDE_AN_OVERFLOW = {
    "lower, big": [(-3.0, 0.0, 0.0, -1.0), (1e200, 0.0, 0.0, 2e200)],
    "big, lower": [(1e200, 0.0, 0.0, 2e200), (-3.0, 0.0, 0.0, -1.0)],
    "lower, inf": [(-3.0, 0.0, 0.0, -1.0), (math.inf, 0.0, 0.0, math.inf)],
}


def _error_of(fn):
    """The class and message of the package error fn raises, with numpy's
    floating-point warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            fn()
        except (SingularPairError, OffShellError, DegenerateVectorError) as exc:
            return type(exc), str(exc)
    raise AssertionError("no error raised")


@pytest.mark.parametrize("case", list(_BESIDE_AN_OVERFLOW))
def test_a_refused_row_beside_an_overflowing_one_raises_its_own_error(case):
    # through a descent trial (q - 1.0 * 0 is q) and through an RK4 step
    # at rest, each against its row-loop reference.  The step's pair test
    # refuses the infinite row first, as the pair loop's does
    q, m = _BESIDE_AN_OVERFLOW[case], np.array([1.0, 2.0])
    kernel, zeros = _ForceKernel(Space.H3, m), [[0.0] * 4] * 2
    got = _error_of(lambda: _RowOps(kernel, 1.0).trial(q, 1.0, zeros))
    assert got == _error_of(lambda: LoopDescent(kernel, 1.0).trial(q, 1.0, zeros))
    assert got[0] is DegenerateVectorError
    got = _error_of(lambda: _PairKernel(Space.H3, m).step(q, zeros, 1e-9, 0.5e-9, 1e-9 / 6.0))
    assert ([], got) == _step_run(LoopKernel(Space.H3, m), q, zeros, 1e-9, 1)
    assert got[0] is (DegenerateVectorError if "big" in case else SingularPairError)


def test_one_key_compiles_one_step(monkeypatch):
    # the key is (space, N, column layout): kernels with other masses or
    # other rates share the function, another space compiles its own
    dynamics._pair_step_factory.cache_clear()
    built = []
    source = dynamics._pair_step_source
    monkeypatch.setattr(dynamics, "_pair_step_source",
                        lambda *key: built.append(key) or source(*key))
    rng = np.random.default_rng(5)
    cfg = random_config(Space.S3, 3, rng)
    q, p = cfg.points.tolist(), random_momenta(cfg, rng, scale=1.0).tolist()
    xi = IsometryGenerator(GeneratorKind.DOUBLE_ROTATION, 0.7, 0.2).matrix_log()
    for m, rates in (([1.0, 2.0, 3.0], xi), ([0.5, 0.25, 4.0], 2.0 * xi)):
        got = _step_run(_PairKernel(Space.S3, np.array(m), rates), q, p, 1e-2, 3)
        assert got == _step_run(LoopKernel(Space.S3, np.array(m), rates), q, p, 1e-2, 3)
    assert built == [(Space.S3, 3, ((1, 0, 3, 2),))]
    _PairKernel(Space.H3, np.ones(3), None)
    assert built == [(Space.S3, 3, ((1, 0, 3, 2),)), (Space.H3, 3, ((0, 1, 2, 3),))]


def test_importing_the_package_compiles_no_step():
    # every workload's setup imports the package: it pays no compile, of an
    # RK4 step or of find_cc's row descent and chart
    code = ("import curved_nbody, curved_nbody.cli\n"
            "from curved_nbody import centralconfig, dynamics\n"
            "print(dynamics._pair_step_factory.cache_info().currsize,"
            " centralconfig._row_ops_factory.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(curved_nbody.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout == "0 0\n"


def _infall(space, n, h):
    """n bodies at rest; bodies 0 and 1 a gap 2h apart fall together, the
    others stay clear of them."""
    if space is Space.S3:
        pts = [[math.cos(h), math.sin(h), 0.0, 0.0],
               [math.cos(h), -math.sin(h), 0.0, 0.0],
               [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]
    else:
        w, far = math.sqrt(1.0 + h * h), math.sqrt(5.0)
        pts = [[h, 0.0, 0.0, w], [-h, 0.0, 0.0, w],
               [0.0, 0.0, 2.0, far], [0.0, -2.0, 0.0, far]]
    return Configuration(space, [1.0, 2.0, 0.5, 0.8][:n], np.array(pts[:n]))


@contextlib.contextmanager
def _loop_stepper():
    """A context in which _rk4 runs the pair loop the generated step
    replaced."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_PairKernel", LoopKernel)
        yield


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
@pytest.mark.parametrize("n", range(2, _PAIR_LOOP_MAX_N + 1))
def test_both_steppers_meet_a_collision_alike(space, n):
    # both raise for the same pair at the same t, and integrate's partial
    # trajectory holds the same records; near the collision 1/sn^3
    # amplifies the steppers' rounding differences, but they stay far
    # below RK4's own error there.  The pair loop meets it bit for bit.
    state = PhaseState(_infall(space, n, 0.3), np.zeros((n, 4)))
    runs = []
    for stepper in (contextlib.nullcontext, _array_stepper, _loop_stepper):
        with stepper():
            with pytest.raises(SingularEncounterError) as err:
                integrate(state, 1e-3, 5000, record_every=3)
        runs.append(err.value)
    got, want, loop = runs
    assert str(got) == str(loop)
    assert _bits(got.__cause__.value) == _bits(loop.__cause__.value)
    for name in ("times", "positions", "momenta"):
        assert _bits(getattr(got.partial, name)) == _bits(getattr(loop.partial, name))
    assert str(got) == str(want)
    assert "singular pair (0, 1)" in str(got)
    assert (got.__cause__.i, got.__cause__.j) == (want.__cause__.i, want.__cause__.j)
    assert np.array_equal(got.partial.times, want.partial.times)
    assert not got.partial.completed and not want.partial.completed
    assert np.max(np.abs(got.partial.positions - want.partial.positions)) < 1e-6


# ─── the fused singular-pair predicate ──────────────────────────────────


def _pair(space, s01):
    """Two rows whose Gram entry s_01 is exactly s01 (the rows need not be
    on the manifold: integrator stages are not either)."""
    if space is Space.S3:
        return np.array([[1.0, 0.0, 0.0, 0.0], [s01, 0.5, 0.0, 0.0]])
    return np.array([[0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, s01]])


def _edges():
    up, dn = math.inf, -math.inf
    cases = []
    bounds = {Space.S3: ("1-eps", 1.0 - EPS_SINGULAR, "-1+eps", -1.0 + EPS_SINGULAR),
              Space.H3: ("1+eps", 1.0 + EPS_SINGULAR)}
    for space, edges in bounds.items():
        for name, b in zip(edges[::2], edges[1::2]):
            for side, v in (("below", np.nextafter(b, dn)), ("at", b),
                            ("above", np.nextafter(b, up))):
                cases.append(pytest.param(space, _pair(space, v),
                                          id=f"{space.value}-{side}-{name}"))
    big = 1e200
    x_pos = np.array([[big, 0, 0, 1.0], [big, 0, 0, 1.0]])
    x_neg = np.array([[big, 0, 0, 1.0], [-big, 0, 0, 1.0]])
    w_pos = np.array([[0, 0, 0, big], [0, 0, 0, big]])
    w_neg = np.array([[0, 0, 0, big], [0, 0, 0, -big]])
    nan = np.array([[np.nan, 0, 0, 1.0], [0, 0, 0, 1.0]])
    cases += [
        pytest.param(Space.S3, nan, id="S3-nan"),
        pytest.param(Space.S3, x_pos, id="S3-+inf"),
        pytest.param(Space.S3, x_neg, id="S3--inf"),
        pytest.param(Space.H3, nan, id="H3-nan"),
        pytest.param(Space.H3, x_pos, id="H3--inf"),
        # s = +inf: the case a bare s >= 1 + EPS_SINGULAR lets through
        pytest.param(Space.H3, x_neg, id="H3-+inf-from-x"),
        pytest.param(Space.H3, w_pos, id="H3-+inf-from-w"),
        pytest.param(Space.H3, w_neg, id="H3--inf-from-w"),
    ]
    return cases


def _embed(rows, rng, space, n, at):
    """rows placed at bodies (at, at + 1) of an otherwise harmless n-body
    configuration, so that the offending pair is not always (0, 1)."""
    Q = random_config(space, n, rng).points.copy()
    Q[at:at + 2] = rows
    return Q


def _assert_raises_alike(space, m, Q):
    with np.errstate(all="ignore"):
        try:
            _gram_checked(space, Q)
        except SingularPairError as exc:
            want = exc
        else:
            want = None
        if want is None:
            _ForceKernel(space, m).grad(Q)
            return
        with pytest.raises(SingularPairError) as got:
            _ForceKernel(space, m).grad(Q)
    assert (got.value.i, got.value.j) == (want.i, want.j)
    assert _bits(got.value.value) == _bits(want.value)
    assert str(got.value) == str(want)


@pytest.mark.parametrize("space,rows", _edges())
def test_fused_predicate_raises_what_gram_checked_raises(space, rows):
    rng = np.random.default_rng(11)
    _assert_raises_alike(space, np.ones(2), rows)
    # the same pair at bodies (1, 2) of four, alone and in a stack whose
    # first slice is harmless
    Q = _embed(rows, rng, space, 4, 1)
    _assert_raises_alike(space, np.ones(4), Q)
    stack = np.array([random_config(space, 4, rng).points, Q, Q[::-1]])
    _assert_raises_alike(space, np.ones(4), stack)


def _gram_checked_unfused(space, Q):
    """_gram_checked as it tested the off-diagonal entries one condition at
    a time before the fused bounds: the reference for its values and its
    SingularPairError."""
    s = space.sigma * ((Q * space.metric_diagonal) @ Q.swapaxes(-1, -2))
    n = Q.shape[-2]
    if n > 1:
        off = ~np.eye(n, dtype=bool)
        bad = off & ~np.isfinite(s)
        if space is Space.S3:
            bad |= off & ((s > 1.0 - EPS_SINGULAR) | (s < -1.0 + EPS_SINGULAR))
        else:
            bad |= off & (s < 1.0 + EPS_SINGULAR)
        if np.any(bad):
            at = tuple(np.argwhere(bad)[0])
            raise SingularPairError(int(at[-2]), int(at[-1]), float(s[at]))
    return s


def _gram_outcome(gram, space, Q):
    with np.errstate(all="ignore"):
        try:
            return "ok", _bits(gram(space, Q))
        except SingularPairError as exc:
            return "raised", exc.i, exc.j, _bits(exc.value), str(exc)


@pytest.mark.parametrize("space,rows", _edges())
def test_gram_checked_raises_what_the_unfused_test_raised(space, rows):
    rng = np.random.default_rng(11)
    small = _embed(rows, rng, space, 4, 1)
    large = _embed(rows, rng, space, 18, 5)
    stack = np.array([random_config(space, 4, rng).points, small, small[::-1]])
    for Q in (rows, small, large, stack):
        want = _gram_outcome(_gram_checked_unfused, space, Q)
        assert _gram_outcome(_gram_checked, space, Q) == want


def _step_at_rest(space, Q):
    """One pair-loop step of size 0.0 from the rows Q at rest, unit masses:
    stage 1 runs the pair tests at Q, and where they pass, every later
    stage runs them at Q again."""
    kernel = _PairKernel(space, np.ones(len(Q)))
    return kernel.step(Q.tolist(), np.zeros_like(Q).tolist(), 0.0, 0.0, 0.0)


def _assert_pair_loop_raises_alike(space, Q):
    """The pair loop raises what _gram_checked raises, and nothing else:
    never a ZeroDivisionError or ValueError from its own arithmetic."""
    with np.errstate(all="ignore"):
        try:
            _gram_checked(space, Q)
        except SingularPairError as exc:
            want = exc
        else:
            want = None
        if want is None:
            _step_at_rest(space, Q)
            return
        with pytest.raises(SingularPairError) as got:
            _step_at_rest(space, Q)
    assert (got.value.i, got.value.j) == (want.i, want.j)
    v, u = got.value.value, want.value
    assert v == u or (math.isnan(v) and math.isnan(u))


@pytest.mark.parametrize("space,rows", _edges())
def test_pair_loop_raises_what_gram_checked_raises(space, rows):
    _assert_pair_loop_raises_alike(space, rows)
    _assert_pair_loop_raises_alike(
        space, _embed(rows, np.random.default_rng(11), space, 4, 1))


def test_pair_loop_judges_a_pair_by_its_own_sum():
    # exactly summed, s_01 is the bound 1 - EPS_SINGULAR itself, which is
    # nonsingular; summed left to right it rounds one ulp above.  So the
    # pair loop must refuse the pair whatever order BLAS sums the Gram
    # entry in (s = a . b, since b is all ones)
    hi = 1.0 - EPS_SINGULAR
    ulp = np.spacing(hi)
    a = [hi, 0.6 * ulp, -0.3 * ulp, -0.3 * ulp]
    assert math.fsum(a) == hi and ((a[0] + a[1]) + a[2]) + a[3] > hi
    Q = np.array([a, [1.0, 1.0, 1.0, 1.0]])
    with pytest.raises(SingularPairError) as got:
        _step_at_rest(Space.S3, Q)
    assert (got.value.i, got.value.j) == (0, 1) and got.value.value > hi


def test_a_collision_on_the_pair_loop_keeps_its_partial_trajectory():
    # three bodies on S3, two of them falling together from rest along a
    # great circle; the third stays clear of both
    h = 0.3
    pts = np.array([[math.cos(h), math.sin(h), 0.0, 0.0],
                    [math.cos(h), -math.sin(h), 0.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0]])
    cfg = Configuration(Space.S3, [1.0, 2.0, 0.5], pts)
    state = PhaseState(cfg, np.zeros((3, 4)))
    with pytest.raises(SingularEncounterError) as err:
        integrate(state, 1e-3, 5000)
    cause = err.value.__cause__
    assert isinstance(cause, SingularPairError) and (cause.i, cause.j) == (0, 1)
    partial = err.value.partial
    assert not partial.completed and np.all(np.isfinite(partial.positions))
    # the array kernel meets the collision at the same step, on the same
    # path: close to the collision 1/sn^3 amplifies the kernels' rounding
    # differences, but they stay far below RK4's own error there
    seen = []
    with _array_stepper(), pytest.raises(SingularEncounterError):
        _rk4(Space.S3, cfg.masses, cfg.points, state.momenta, 1e-3, 5000,
             lambda k, Qs, Ps: seen.extend(Qs))
    assert len(seen) + 1 == len(partial)
    assert np.max(np.abs(np.array(seen) - partial.positions[1:])) < 1e-6


# ─── float-hex pins of the stepper ──────────────────────────────────────
#
# The bits of the per-stage arithmetic, on one S3 and one H3 criterion-4
# member: the final state of 200 RK4 steps at dt = 1e-3, and
# certify_rigidity(horizon=0.2).  _PINNED_FINAL is the array kernel's,
# recorded with its constants still rebuilt on every stage; _rk4 runs the
# array stages at three bodies only with _PAIR_LOOP_MAX_N lowered.
# _PINNED_FINAL_PAIR_LOOP is integrate's on the float stepper, and the
# certificates are the float stepper's too (at T = 0.2 they are the array
# kernel's bits as well).


def _members():
    ex1 = FIXTURE_BUILDERS["example1_s3"]().config
    ex2 = FIXTURE_BUILDERS["example2_h3"]().config
    fam1 = re_family_from_cc(make_report(ex1), ex1)
    fam2 = re_family_from_cc(make_report(ex2), ex2)
    return {"S3": pick_member(fam1, 1),
            "H3": pick_member(fam2, math.sqrt(3.0) / 2.0)}


_PINNED_FINAL = {
    "S3": (
        [["-0x1.71939246629e8p-2", "0x1.6257304a74ff0p-2", "0x1.b29101655f341p-1", "0x1.605d28cd4f4c3p-3"],
         ["-0x1.e851a1ddeb755p-4", "-0x1.f13b9e5e95620p-2", "0x1.b29101655f341p-1", "0x1.605d28cd4f4c2p-3"],
         ["0x1.eba7fabddd7aap-2", "0x1.1dc8dc2840c5ap-3", "0x1.b29101655f341p-1", "0x1.605d28cd4f4c1p-3"]],
        [["-0x1.3dd5bbac9ee5bp-4", "-0x1.4b80481d914eap-4", "-0x1.befa9e11b1763p-6", "0x1.13a08739d02f1p-3"],
         ["0x1.be017d8971ea0p-4", "-0x1.b6029aa36534bp-6", "-0x1.befa9e11b17c8p-6", "0x1.13a08739d02f3p-3"],
         ["-0x1.005783b9a60b5p-5", "0x1.b900eec66a9bap-4", "-0x1.befa9e11b17d4p-6", "0x1.13a08739d02f1p-3"]],
    ),
    "H3": (
        [["0x1.1f158182c8a05p-67", "0x1.646eb449e04f9p-69", "0x1.648012db9d16ap-3", "0x1.03d98003dc76ap+0"],
         ["0x1.fd712f9a815dbp-1", "0x1.98eaecb8bcaa0p-4", "0x1.f82ae40709b7ep-3", "0x1.6f7b9b89e2c4dp+0"],
         ["-0x1.fd712f9a815dbp-1", "-0x1.98eaecb8bcaa0p-4", "0x1.f82ae40709b7ep-3", "0x1.6f7b9b89e2c4dp+0"]],
        [["-0x1.581bb3dfcb2f9p-62", "0x1.74e691eaa8d2cp-65", "0x1.1ae36fbcd43d3p+0", "0x1.841bbd22ae01dp-3"],
         ["-0x1.010556ae8da15p-4", "0x1.403455b0c28f1p-1", "0x1.90108c9b26f4bp+0", "0x1.126f1ddd98d36p-2"],
         ["0x1.010556ae8da15p-4", "-0x1.403455b0c28f1p-1", "0x1.90108c9b26f4bp+0", "0x1.126f1ddd98d36p-2"]],
    ),
}

_PINNED_FINAL_PAIR_LOOP = {
    "S3": (
        [["-0x1.71939246629e8p-2", "0x1.6257304a74ff0p-2", "0x1.b29101655f341p-1", "0x1.605d28cd4f4c3p-3"],
         ["-0x1.e851a1ddeb755p-4", "-0x1.f13b9e5e95620p-2", "0x1.b29101655f341p-1", "0x1.605d28cd4f4c2p-3"],
         ["0x1.eba7fabddd7aap-2", "0x1.1dc8dc2840c5ap-3", "0x1.b29101655f341p-1", "0x1.605d28cd4f4c1p-3"]],
        [["-0x1.3dd5bbac9ee5bp-4", "-0x1.4b80481d914eap-4", "-0x1.befa9e11b1763p-6", "0x1.13a08739d02f1p-3"],
         ["0x1.be017d8971ea0p-4", "-0x1.b6029aa36534bp-6", "-0x1.befa9e11b17c8p-6", "0x1.13a08739d02f3p-3"],
         ["-0x1.005783b9a60b4p-5", "0x1.b900eec66a9bap-4", "-0x1.befa9e11b17d6p-6", "0x1.13a08739d02f1p-3"]],
    ),
    # the pair loop keeps body 0's x and y at exactly 0, where the array
    # kernel's BLAS sums leave residues near 1e-20
    "H3": (
        [["0x0.0p+0", "0x0.0p+0", "0x1.648012db9d16ap-3", "0x1.03d98003dc76ap+0"],
         ["0x1.fd712f9a815dbp-1", "0x1.98eaecb8bcaa0p-4", "0x1.f82ae40709b7ep-3", "0x1.6f7b9b89e2c4dp+0"],
         ["-0x1.fd712f9a815dbp-1", "-0x1.98eaecb8bcaa0p-4", "0x1.f82ae40709b7ep-3", "0x1.6f7b9b89e2c4dp+0"]],
        [["0x0.0p+0", "0x0.0p+0", "0x1.1ae36fbcd43d3p+0", "0x1.841bbd22ae01dp-3"],
         ["-0x1.010556ae8da0cp-4", "0x1.403455b0c28f1p-1", "0x1.90108c9b26f4bp+0", "0x1.126f1ddd98d38p-2"],
         ["0x1.010556ae8da0cp-4", "-0x1.403455b0c28f1p-1", "0x1.90108c9b26f4bp+0", "0x1.126f1ddd98d38p-2"]],
    ),
}

_PINNED_CERTIFICATE = {
    "S3": ("0x1.8000000000000p-52", "0x1.0000000000000p-54"),
    "H3": ("0x1.8000000000000p-51", "0x1.0000000000000p-50"),
}

# certify_rigidity(horizon=0.5) of the beta = 1 member on the pair loop:
# lagrangian_h2, whose bits differ from the array kernel's, and the
# tetrahedron, at the largest N the pair loop serves
_PINNED_PAIR_LOOP_CERTIFICATE = {
    ("lagrangian_h2", (1.0, 0.5)): ("0x0.0p+0", "0x1.0dfc000000000p-50"),
    ("tetrahedron_s2", (1.0,)): ("0x1.0000000000000p-52", "0x1.0000000000000p-50"),
}


def _hex(a):
    return [[float(v).hex() for v in row] for row in a]


@pytest.mark.parametrize("space", ["S3", "H3"])
def test_integrate_final_state_matches_the_recorded_bits(space):
    inst = _members()[space]
    cfg = inst.config
    with _array_stepper():
        k, Q, P = _final_state(cfg.space, cfg.masses, cfg.points,
                               generator_momenta(cfg, inst.generator), 1e-3, 200)
    assert k == 200
    assert _hex(Q) == _PINNED_FINAL[space][0]
    assert _hex(P) == _PINNED_FINAL[space][1]


@pytest.mark.parametrize("space", ["S3", "H3"])
def test_integrate_on_the_pair_loop_matches_the_recorded_bits(space):
    inst = _members()[space]
    state = PhaseState(inst.config, generator_momenta(inst.config, inst.generator))
    traj = integrate(state, 1e-3, 200)
    assert _hex(traj.positions[-1]) == _PINNED_FINAL_PAIR_LOOP[space][0]
    assert _hex(traj.momenta[-1]) == _PINNED_FINAL_PAIR_LOOP[space][1]


@pytest.mark.parametrize("space", ["S3", "H3"])
def test_certificate_matches_the_recorded_bits(space):
    drift, cons = certify_rigidity(_members()[space], horizon=0.2)
    assert (drift.hex(), cons.hex()) == _PINNED_CERTIFICATE[space]


@pytest.mark.parametrize("name,args", sorted(_PINNED_PAIR_LOOP_CERTIFICATE))
def test_certificate_on_the_pair_loop_matches_the_recorded_bits(name, args):
    fixture = FIXTURE_BUILDERS[name](*args)
    cfg = fixture.config
    family = re_family_from_cc(make_report(cfg, lam=fixture.expected_lambda), cfg)
    drift, cons = certify_rigidity(pick_member(family, 1), horizon=0.5)
    assert (drift.hex(), cons.hex()) == _PINNED_PAIR_LOOP_CERTIFICATE[(name, args)]
