import json
import math

import numpy as np
import pytest

from curved_nbody.dynamics import (
    Body,
    Configuration,
    PhaseState,
    Trajectory,
    _ForceKernel,
    _check_points,
    _first_integrals,
    conserved,
    eom_rhs,
    generator_momenta,
    grad_U,
    integrate,
    kinetic_energy,
    pair_force,
    pairwise_distances,
    trajectory_to_csv,
)
from curved_nbody.errors import (
    OffShellError,
    SingularEncounterError,
    SingularPairError,
)
from curved_nbody.manifold import (
    GeneratorKind,
    IsometryGenerator,
    Space,
    inner,
    project_point,
)
from curved_nbody.relequil import REInstance, _comoving_run

from csv_reference import write_csv
from helpers import random_config, random_momenta, random_points
from row_descent import _check_rows


# ---------------------------------------------------------------------------
# configuration and state validation
# ---------------------------------------------------------------------------

def test_configuration_rejects_off_shell_points():
    pts = np.array([[1.1, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(OffShellError):
        Configuration(Space.S3, [1.0, 1.0], pts)
    # a NaN coordinate is off the quadric, alone or beside a valid point
    nan_point = [math.nan, 0.0, 0.0, 1.0]
    for space in (Space.S3, Space.H3):
        with pytest.raises(OffShellError):
            Configuration(space, [1.0], np.array([nan_point]))
        with pytest.raises(OffShellError):
            Configuration(space, [1.0, 1.0],
                          np.array([nan_point, [0.0, 0.0, 0.0, 1.0]]))


def test_configuration_rejects_bad_masses():
    pts = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    for masses in ([1.0, -1.0], [0.0, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            Configuration(Space.S3, masses, pts)


def test_configuration_rejects_lower_sheet():
    pts = np.array([[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -math.sqrt(2.0)]])
    with pytest.raises(OffShellError):
        Configuration(Space.H3, [1.0, 1.0], pts)


def test_configuration_rejects_singular_pairs():
    e0 = [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(SingularPairError):
        Configuration(Space.S3, [1.0, 1.0], np.array([e0, e0]))
    with pytest.raises(SingularPairError):
        Configuration(Space.S3, [1.0, 1.0],
                      np.array([e0, [-1.0, 0.0, 0.0, 0.0]]))
    v = [0.0, 0.0, 0.0, 1.0]
    with pytest.raises(SingularPairError):
        Configuration(Space.H3, [1.0, 1.0], np.array([v, v]))


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_row_check_raises_the_singular_pair_the_array_check_raises(space, n):
    # _check_rows raises from its own Gram matrix, for the first entry out
    # of bounds in C order, as _check_points does from the same product;
    # one or two pairs are made singular, exactly or to within 1e-6
    rng = np.random.default_rng(10 * n + space.sigma)
    for _ in range(40):
        Q = random_points(space, n, rng)
        for _ in range(rng.integers(1, 3)):
            i, j = rng.choice(n, 2, replace=False)
            if space is Space.S3 and rng.random() < 0.5:
                Q[j] = -Q[i]                          # antipodal
            else:
                Q[j] = Q[i]                           # coinciding
            if rng.random() < 0.5:
                Q[j] = project_point(Q[j] + 1e-6 * rng.standard_normal(4), space)
        with pytest.raises(SingularPairError) as want:
            _check_points(space, Q)
        with pytest.raises(SingularPairError) as got:
            _check_rows(space, Q.tolist())
        assert str(got.value) == str(want.value)
        assert (got.value.i, got.value.j) == (want.value.i, want.value.j)


def test_from_raw_projects_and_round_trips():
    rng = np.random.default_rng(2)
    raw = random_points(Space.S3, 3, rng) * 1.0001  # slightly off the sphere
    cfg = Configuration.from_raw(Space.S3, [1.0, 2.0, 3.0], raw)
    assert np.max(np.abs(np.sum(cfg.points**2, axis=1) - 1.0)) < 1e-14
    clone = Configuration.from_dict(cfg.to_dict())
    assert np.allclose(clone.points, cfg.points)
    assert np.allclose(clone.masses, cfg.masses)
    assert clone.space is cfg.space


def test_configuration_arrays_frozen():
    cfg = random_config(Space.S3, 3, np.random.default_rng(4))
    with pytest.raises(ValueError):
        cfg.points[0, 0] = 2.0


def test_configuration_bodies_pair_each_mass_with_its_point():
    cfg = random_config(Space.H3, 4, np.random.default_rng(2))
    bodies = cfg.bodies()
    assert len(bodies) == cfg.n
    for body, m, q in zip(bodies, cfg.masses, cfg.points):
        assert isinstance(body, Body) and type(body.mass) is float
        assert body.mass == m and np.array_equal(body.point, q)


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
@pytest.mark.parametrize("n", [3, 5])
def test_eom_rhs_is_the_force_kernel_rhs_bit_for_bit(space, n):
    rng = np.random.default_rng(n)
    cfg = random_config(space, n, rng)
    state = PhaseState(cfg, random_momenta(cfg, rng))
    dq, dp = eom_rhs(state)
    want_dq, want_dp = _ForceKernel(space, cfg.masses).rhs(cfg.points, state.momenta)
    assert dq.tobytes() == want_dq.tobytes() and dp.tobytes() == want_dp.tobytes()


def test_phasestate_requires_tangency():
    cfg = random_config(Space.H3, 3, np.random.default_rng(5))
    with pytest.raises(OffShellError):
        PhaseState(cfg, np.ones_like(cfg.points))
    with pytest.raises(OffShellError):
        PhaseState(cfg, np.full_like(cfg.points, math.nan))
    p = random_momenta(cfg, np.random.default_rng(6))
    state = PhaseState(cfg, p)
    v = state.velocities
    assert np.max(np.abs(inner(cfg.points, v, cfg.space))) < 1e-12


# ---------------------------------------------------------------------------
# forces and gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_pair_force_magnitude_and_tangency(space):
    rng = np.random.default_rng(8)
    for _ in range(10):
        cfg = random_config(space, 2, rng)
        d = pairwise_distances(cfg)[0, 1]
        f = pair_force(0, 1, cfg)
        norm2 = space.sigma * 0.0 + float(np.sum(f * f * space.metric_diagonal))
        sn = np.sin(d) if space is Space.S3 else np.sinh(d)
        want = cfg.masses[0] * cfg.masses[1] / sn ** 2
        assert math.sqrt(abs(norm2)) == pytest.approx(want, rel=1e-12)
        assert abs(inner(cfg.points[0], f, space)) < 1e-12 * max(1.0, want)


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_pair_forces_sum_to_grad_U(space):
    rng = np.random.default_rng(12)
    for n in (2, 3, 5):
        cfg = random_config(space, n, rng)
        g = grad_U(cfg)
        for i in range(n):
            forces = [pair_force(i, j, cfg) for j in range(n) if j != i]
            scale = max(np.max(np.abs(f)) for f in forces)
            assert np.max(np.abs(np.sum(forces, axis=0) - g[i])) <= 1e-14 * scale


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_grad_U_matches_finite_differences(space):
    # central differences along geodesics through each body
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(10):
        cfg = random_config(space, 3, rng)
        g = grad_U(cfg)
        scale = max(1.0, np.max(np.abs(g)))
        for i in range(cfg.n):
            for b in _tangent_basis(cfg.points[i], space):
                up = _geodesic_shift(cfg, i, b, h, space)
                dn = _geodesic_shift(cfg, i, b, -h, space)
                fd = (_potential(up) - _potential(dn)) / (2.0 * h)
                want = float(np.sum(g[i] * b * space.metric_diagonal))
                assert abs(fd - want) / scale < 1e-6


def _potential(cfg):
    d = pairwise_distances(cfg)
    mm = np.outer(cfg.masses, cfg.masses)
    out = 0.0
    for i in range(cfg.n):
        for j in range(i + 1, cfg.n):
            out += mm[i, j] / math.tan(d[i, j]) if cfg.space is Space.S3 \
                else mm[i, j] / math.tanh(d[i, j])
    return out


def _tangent_basis(q, space):
    # sigma-orthonormal tangent frame at q (tangent vectors are spacelike)
    met = space.metric_diagonal
    basis = []
    for e in np.eye(4):
        v = e - space.sigma * inner(q, e, space) * q
        for b in basis:
            v = v - float(np.sum(v * b * met)) * b
        n2 = float(np.sum(v * v * met))
        if n2 > 1e-8:
            basis.append(v / math.sqrt(n2))
        if len(basis) == 3:
            break
    return basis


def _geodesic_shift(cfg, i, direction, h, space):
    pts = np.array(cfg.points)
    if space is Space.S3:
        pts[i] = math.cos(h) * pts[i] + math.sin(h) * direction
    else:
        pts[i] = math.cosh(h) * pts[i] + math.sinh(h) * direction
    return Configuration(space, cfg.masses, pts)


# ---------------------------------------------------------------------------
# equations of motion and conserved quantities
# ---------------------------------------------------------------------------

def test_kinetic_energy_half_flag():
    cfg = random_config(Space.S3, 3, np.random.default_rng(10))
    state = PhaseState(cfg, random_momenta(cfg, np.random.default_rng(11)))
    t_full = kinetic_energy(state)
    assert kinetic_energy(state, half=True) == pytest.approx(0.5 * t_full)
    direct = float(np.sum(
        (state.momenta * state.momenta * cfg.space.metric_diagonal).sum(axis=1)
        / cfg.masses))
    assert t_full == pytest.approx(direct)


def test_free_single_body_travels_great_circle():
    q0 = np.array([[1.0, 0.0, 0.0, 0.0]])
    v = np.array([[0.0, 0.7, 0.0, 0.0]])
    cfg = Configuration(Space.S3, [2.0], q0)
    state = PhaseState(cfg, 2.0 * v)
    traj = integrate(state, 1e-3, 2000)
    ts = traj.times
    dots = traj.positions[:, 0, :] @ q0[0]
    assert np.max(np.abs(dots - np.cos(0.7 * ts))) < 1e-10


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
def test_conserved_quantities_near_rigid_orbit(space):
    # noise around a genuine rigid orbit keeps H and the six omegas
    from curved_nbody.fixtures import example1_s3, example2_h3
    rng = np.random.default_rng(12)
    if space is Space.S3:
        cfg = example1_s3().config
        gen = IsometryGenerator(GeneratorKind.DOUBLE_ROTATION, alpha=1.0, beta=0.0)
    else:
        cfg = example2_h3().config
        gen = IsometryGenerator(GeneratorKind.ROTATION_BOOST, alpha=1.0, beta=0.0)
    p = generator_momenta(cfg, gen) + random_momenta(cfg, rng, scale=0.01)
    state = PhaseState(cfg, p)
    traj = integrate(state, 1e-3, 1500)
    c0 = conserved(traj.state_at(0))
    worst = max(c0.max_abs_diff(conserved(traj.state_at(k)))
                for k in range(0, len(traj), 150))
    assert worst < 1e-9
    assert traj.completed


def test_omega_components_match_definition():
    cfg = random_config(Space.S3, 2, np.random.default_rng(13))
    p = random_momenta(cfg, np.random.default_rng(14))
    state = PhaseState(cfg, p)
    c = conserved(state)
    q = cfg.points
    # first entry is the xy component
    want_xy = float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))
    assert c.omega_xy == pytest.approx(want_xy)
    want_zw = float(np.sum(p[:, 2] * q[:, 3] - q[:, 2] * p[:, 3]))
    assert c.omega_zw == pytest.approx(want_zw)
    assert len(c.as_dict()) == 7  # energy + six components


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
@pytest.mark.parametrize("dtype", [float, np.longdouble])
def test_first_integrals_of_a_stack_are_each_states_values(space, dtype):
    rng = np.random.default_rng(23)
    for n in (2, 3, 4, 6, 9):
        m = rng.uniform(0.5, 2.0, n)
        cfgs = [random_config(space, n, rng, masses=m) for _ in range(5)]
        Q = np.array([c.points for c in cfgs]).astype(dtype)
        P = np.array([random_momenta(c, rng, scale=0.7) for c in cfgs]).astype(dtype)
        stack = _first_integrals(space, m.astype(dtype), Q, P)
        assert stack.shape == (5, 7) and stack.dtype == dtype
        for q, p, vals in zip(Q, P, stack):
            # values, not bytes: long double carries padding bytes
            assert np.array_equal(vals, _first_integrals(space, m.astype(dtype), q, p))


def test_rk4_is_fourth_order():
    from curved_nbody.fixtures import example1_s3
    cfg = example1_s3().config
    gen = IsometryGenerator(GeneratorKind.DOUBLE_ROTATION, alpha=1.0, beta=0.0)
    p = generator_momenta(cfg, gen) + random_momenta(
        cfg, np.random.default_rng(16), scale=0.05)
    state = PhaseState(cfg, p)
    horizon = 2.0
    ref = integrate(state, horizon / 3200, 3200).positions[-1]
    coarse = integrate(state, horizon / 100, 100).positions[-1]
    fine = integrate(state, horizon / 200, 200).positions[-1]
    e_coarse = np.max(np.abs(coarse - ref))
    e_fine = np.max(np.abs(fine - ref))
    assert e_coarse / e_fine > 12.0  # ~16 for a 4th-order scheme


def test_integrate_reports_singular_encounter_with_partial():
    # radial infall on the hyperbolic sheet: guaranteed binary collision
    t = 0.45
    pts = np.array([
        [math.sinh(t), 0.0, 0.0, math.cosh(t)],
        [-math.sinh(t), 0.0, 0.0, math.cosh(t)],
    ])
    cfg = Configuration(Space.H3, [1.0, 1.0], pts)
    state = PhaseState(cfg, np.zeros((2, 4)))
    with pytest.raises(SingularEncounterError) as err:
        integrate(state, 1e-3, 20000)
    partial = err.value.partial
    assert partial is not None and len(partial) > 1
    assert not partial.completed
    assert np.all(np.isfinite(partial.positions))


def test_integrate_record_every():
    cfg = random_config(Space.S3, 2, np.random.default_rng(18))
    state = PhaseState(cfg, random_momenta(cfg, np.random.default_rng(19)))
    traj = integrate(state, 1e-3, 100, record_every=10)
    assert len(traj) == 11
    assert traj.times[-1] == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# generator momenta and trajectory export
# ---------------------------------------------------------------------------

def test_generator_momenta_matches_linear_action():
    cfg = random_config(Space.H3, 3, np.random.default_rng(20))
    gen = IsometryGenerator(GeneratorKind.ROTATION_BOOST, alpha=0.8, beta=0.1)
    p = generator_momenta(cfg, gen)
    xi = gen.matrix_log()
    want = cfg.masses[:, None] * (cfg.points @ xi.T)
    assert np.allclose(p, want, atol=1e-14)
    wrong = IsometryGenerator(GeneratorKind.DOUBLE_ROTATION, alpha=1.0, beta=0.0)
    with pytest.raises(ValueError):
        generator_momenta(cfg, wrong)


def test_trajectory_csv_and_sidecar(tmp_path):
    cfg = random_config(Space.S3, 2, np.random.default_rng(21))
    state = PhaseState(cfg, random_momenta(cfg, np.random.default_rng(22)))
    traj = integrate(state, 1e-3, 50, record_every=5)
    csv_path = tmp_path / "traj.csv"
    side_path = tmp_path / "traj.json"
    trajectory_to_csv(traj, csv_path, sidecar_path=side_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,i,x,y,z,w,px,py,pz,pw"
    assert len(lines) - 1 == len(traj) * cfg.n
    side = json.loads(side_path.read_text())
    assert side["completed"] is True
    assert {"t", "energy"} <= set(side["samples"][0].keys())
    # deterministic bytes on re-export
    first = csv_path.read_bytes()
    trajectory_to_csv(traj, csv_path, sidecar_path=side_path)
    assert csv_path.read_bytes() == first


@pytest.mark.parametrize("space", [Space.S3, Space.H3])
@pytest.mark.parametrize("n", range(1, 5))
def test_the_csv_is_the_per_field_writers_byte_for_byte(tmp_path, space, n):
    # an integrate run, a co-moving run mapped back by its frames, and
    # rows of edge values: signed zero, the least subnormal, +-1e300, 1.0,
    # and times such as 0.1 + 0.2 whose repr needs all 17 digits
    rng = np.random.default_rng(10 * n + (space is Space.H3))
    cfg = random_config(space, n, rng)
    state = PhaseState(cfg, random_momenta(cfg, rng))
    kind = (GeneratorKind.DOUBLE_ROTATION if space is Space.S3
            else GeneratorKind.ROTATION_BOOST)
    member = REInstance(cfg, IsometryGenerator(kind, *rng.uniform(-1.5, 1.5, 2)),
                        None, 0.0, None)
    edge = np.resize([-0.0, 5e-324, 1e300, -1e300, 1.0], (3, n, 8))
    trajectories = [
        integrate(state, 1e-3, 30, record_every=3),
        _comoving_run(member, 0.05, 1e-3, record=True)[2],
        Trajectory(space, cfg.masses, np.array([0.0, 0.1 + 0.2, -1e300]),
                   edge[..., :4], edge[..., 4:]),
    ]
    for traj in trajectories:
        trajectory_to_csv(traj, tmp_path / "got.csv")
        write_csv(traj, tmp_path / "want.csv")
        want = (tmp_path / "want.csv").read_bytes()
        assert (tmp_path / "got.csv").read_bytes() == want
        assert want.count(b"\n") == 1 + len(traj) * n


@pytest.mark.parametrize("stride,expected", [
    (5, [0, 5, 10]),        # the last record is a multiple of the stride
    (4, [0, 4, 8, 10]),     # it is not, and is sampled once at the end
    (1, list(range(11))),
    (100, [0, 10]),
])
def test_sidecar_samples_every_stride_and_the_last_record(tmp_path, stride, expected):
    cfg = random_config(Space.H3, 3, np.random.default_rng(23))
    state = PhaseState(cfg, random_momenta(cfg, np.random.default_rng(24)))
    traj = integrate(state, 1e-3, 10)
    side_path = tmp_path / "traj.json"
    trajectory_to_csv(traj, tmp_path / "traj.csv", sidecar_path=side_path,
                      sample_stride=stride)
    samples = json.loads(side_path.read_text())["samples"]
    assert [s["t"] for s in samples] == [float(traj.times[k]) for k in expected]
    for k, sample in zip(expected, samples):
        assert sample == {"t": float(traj.times[k]),
                          **conserved(traj.state_at(k)).as_dict()}
