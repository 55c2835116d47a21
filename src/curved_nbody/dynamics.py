"""Cotangent-law gravitation on the curved 3-spheres.

The force function is U = sum_{i<j} m_i m_j ctn(d_ij) (cot on S3, coth on
H3).  Motion follows the constrained second-order system

    dq_i/dt = p_i / m_i
    dp_i/dt = sum_{j != i} m_i m_j [q_j - csn(d_ij) q_i] / sn^3(d_ij)
              - sigma m_i <qdot_i, qdot_i> q_i

with p_i stored componentwise as m_i qdot_i and every pairing taken in the
sigma-inner product.  A classical RK4 step followed by projection back onto
the manifold (and of momenta onto tangent spaces) keeps constraint drift at
round-off level.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import combinations
from struct import Struct
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateVectorError,
    OffShellError,
    SingularEncounterError,
    SingularPairError,
    check_masses,
    check_scalar,
)
from .manifold import (
    EPS_MANIFOLD,
    EPS_SINGULAR,
    Space,
    _reproject,
    inner,
)

__all__ = [
    "Body",
    "Configuration",
    "PhaseState",
    "ConservedSet",
    "Trajectory",
    "force_function",
    "pair_force",
    "grad_U",
    "eom_rhs",
    "integrate",
    "step_count",
    "conserved",
    "kinetic_energy",
    "pairwise_distances",
    "generator_momenta",
    "trajectory_to_csv",
]


class Body(NamedTuple):
    mass: float
    point: np.ndarray


# ─── configuration and phase state ───────────────────────────────────────


@dataclass(frozen=True, eq=False)
class Configuration:
    """N positive masses at pairwise-nonsingular points of one manifold."""

    space: Space
    masses: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        m = check_masses(self.masses)
        q = np.asarray(self.points, dtype=float).reshape(-1, 4).copy()
        if len(m) != len(q):
            raise ValueError("need one mass per point")
        _check_points(self.space, q)
        m.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "points", q)

    @classmethod
    def from_raw(cls, space: Space, masses, raw_points) -> "Configuration":
        """Build after scaling each raw 4-vector onto the manifold."""
        raw = np.asarray(raw_points, dtype=float).reshape(-1, 4)
        return cls(space, masses, _reproject(space, raw))

    @property
    def n(self) -> int:
        return len(self.masses)

    def bodies(self) -> list[Body]:
        return [Body(float(m), p) for m, p in zip(self.masses, self.points)]

    def with_points(self, points) -> "Configuration":
        return Configuration(self.space, self.masses, points)

    def to_dict(self) -> dict:
        return {
            "space": self.space.value,
            "masses": [float(v) for v in self.masses],
            "points": [[float(c) for c in row] for row in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Configuration":
        return cls.from_raw(
            Space(data["space"]), data["masses"], np.asarray(data["points"], float)
        )


@dataclass(frozen=True, eq=False)
class PhaseState:
    """A configuration plus componentwise momenta p_i = m_i qdot_i."""

    config: Configuration
    momenta: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.momenta, dtype=float).reshape(-1, 4).copy()
        if len(p) != self.config.n:
            raise ValueError("need one momentum row per body")
        tang = np.abs(inner(self.config.points, p, self.config.space))
        tol = 1e-10 * max(1.0, float(np.max(np.abs(p), initial=0.0)))
        if not np.max(tang) <= tol:
            raise OffShellError(
                f"momentum not tangent: |<p, q>| = {np.max(tang):.3e}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "momenta", p)

    @property
    def velocities(self) -> np.ndarray:
        return self.momenta / self.config.masses[:, None]


@dataclass
class ConservedSet:
    """Energy and the six rotational/boost first integrals."""

    energy: float
    omega_xy: float
    omega_xz: float
    omega_xw: float
    omega_yz: float
    omega_yw: float
    omega_zw: float

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def max_abs_diff(self, other: "ConservedSet") -> float:
        a, b = self.as_dict(), other.as_dict()
        return max(abs(a[k] - b[k]) for k in a)


@dataclass
class Trajectory:
    """Recorded (t, q, p) samples from one integration run."""

    space: Space
    masses: np.ndarray
    times: np.ndarray          # (S,)
    positions: np.ndarray      # (S, N, 4)
    momenta: np.ndarray        # (S, N, 4)
    completed: bool = True

    def __len__(self) -> int:
        return len(self.times)

    def state_at(self, k: int) -> PhaseState:
        cfg = Configuration(self.space, self.masses, self.positions[k])
        return PhaseState(cfg, self.momenta[k])

    def final_state(self) -> PhaseState:
        return self.state_at(len(self) - 1)


# ─── pairwise geometry kernels (raw arrays, no validation) ───────────────


def _check_points(space: Space, q: np.ndarray) -> np.ndarray:
    """Configuration's point checks on an (N, 4) array or a (..., N, 4)
    stack; returns the Gram matrices.

    Raises OffShellError for a point off the quadric or, on H3, off the
    w >= 1 sheet (a NaN coordinate fails both tests), and SingularPairError
    for a singular pair.  A stack raises when any of its configurations
    would, though not always with the message that configuration raises
    alone.
    """
    unit = inner(q, q, space)
    # the quadratic form carries rounding noise ~ |q|^2 eps, so the
    # on-shell tolerance has to scale with the squared coordinate size;
    # the reductions are ndarray methods, which skip np.sum's and np.max's
    # Python wrappers, a cost that dominates at a few bodies
    scale = np.maximum(1.0, (q * q).sum(axis=-1))
    dev = np.abs(unit - space.sigma)
    if not (dev / scale).max() <= EPS_MANIFOLD:
        raise OffShellError(f"point constraint violated by {np.max(dev):.3e}")
    if space is Space.H3 and not q[..., 3].min() >= 1.0 - EPS_MANIFOLD:
        raise OffShellError("hyperbolic points must lie on the w >= 1 sheet")
    return _gram_checked(space, q)


def _gram_checked(space: Space, Q: np.ndarray) -> np.ndarray:
    """Matrix s_ij = csn(d_ij); raises SingularPairError on singular pairs.

    Q is (N, 4) or a (..., N, 4) stack, which raises for the first
    singular pair of its first singular configuration.  The predicate is
    one-sided where the geometry is one-sided: on H3 any off-diagonal s
    below 1 + EPS_SINGULAR is singular (true points always have cosh d > 1;
    integrator stages that cross a collision dip below 1), and on S3
    anything within EPS_SINGULAR of +-1, from either side.
    """
    s = space.sigma * ((Q * space.metric_diagonal) @ Q.swapaxes(-1, -2))
    _raise_singular_pair(s, *_singular_bounds(space))
    return s


def _raise_singular_pair(s: np.ndarray, lo: float, hi: float) -> None:
    """Raise SingularPairError for the first off-diagonal entry of a Gram
    matrix or C-contiguous stack s outside [lo, hi] (_singular_bounds)."""
    bad = ~((s >= lo) & (s <= hi))
    _fill_diagonal(bad, False)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise SingularPairError(int(at[-2]), int(at[-1]), float(s[at]))


def _fill_diagonal(a: np.ndarray, value: float) -> None:
    """np.fill_diagonal on each matrix of a C-contiguous (..., N, N) stack.

    The reshape is a view only because the stack is contiguous, which every
    caller's freshly computed array is.
    """
    n = a.shape[-1]
    a.reshape(a.shape[:-2] + (n * n,))[..., :: n + 1] = value


def _sn_powers(space: Space, s: np.ndarray):
    """(sn d_ij, sn^3 d_ij) with the diagonal patched to 1; s may be a stack."""
    sn2 = space.sigma * (1.0 - s * s)
    _fill_diagonal(sn2, 1.0)
    sn = np.sqrt(np.maximum(sn2, 0.0))
    return sn, sn * sn * sn


def _arccsn(space: Space, s):
    """The distances d with csn d = s, s clipped into arccos's or arccosh's
    domain, elementwise."""
    if space is Space.S3:
        return np.arccos(np.clip(s, -1.0, 1.0))
    return np.arccosh(np.maximum(s, 1.0))


def _potential_raw(space: Space, m: np.ndarray, Q: np.ndarray):
    return _potential_gram(space, m, _gram_checked(space, Q))


def _potential_gram(space: Space, m: np.ndarray, s: np.ndarray):
    """U from an already checked (N, N) Gram matrix s, which it leaves as
    is; for a (..., N, N) stack, the float64 array of each matrix's U."""
    sn, _ = _sn_powers(space, s)
    ctn = s / sn
    _fill_diagonal(ctn, 0.0)
    u = (np.outer(m, m) * ctn).sum(axis=(-2, -1))
    return 0.5 * (u.astype(float) if u.ndim else float(u))


def _singular_bounds(space: Space) -> tuple[float, float]:
    """(lo, hi): off the diagonal, s is nonsingular exactly when
    lo <= s <= hi.  NaN fails both comparisons, and the H3 upper bound, the
    largest finite float, refuses +inf, so that a non-finite pair is singular.
    """
    if space is Space.S3:
        return -1.0 + EPS_SINGULAR, 1.0 - EPS_SINGULAR
    return 1.0 + EPS_SINGULAR, sys.float_info.max


class _ForceKernel:
    """The pairwise force law of one mass vector on one space, on arrays.

    Built once per run from (space, m), so that the stage loop of an
    integration does not rebuild the metric diagonal and the mass column
    on every call.  grad and rhs take an (N, 4) array or a (B, N, 4)
    stack.  The Gram matrix is _gram_checked's, so results and errors
    match it bitwise.
    The mass outer product is rebuilt per call rather than kept, so that a
    run holds no extra N x N array.  The stepper uses it above
    _PAIR_LOOP_MAX_N bodies; _PairKernel serves the few-body runs.
    """

    def __init__(self, space: Space, m: np.ndarray):
        self.space = space
        self.sigma = space.sigma
        self.met = space.metric_diagonal
        self.m = m
        self.mcol = m[:, None]

    def grad(self, Q: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
        """grad U of Q; a singular pair raises what _gram_checked raises.
        s is the Gram matrix that a point check of Q (_check_points)
        returned, which grad then takes instead of rebuilding it."""
        if s is None:
            s = _gram_checked(self.space, Q)
        _, sn3 = _sn_powers(self.space, s)
        w = self.mcol * self.m / sn3
        _fill_diagonal(w, 0.0)
        return w @ Q - (w * s).sum(axis=-1)[..., None] * Q

    def rhs(self, Q: np.ndarray, P: np.ndarray):
        """(dQ/dt, dP/dt) of the equations of motion at (Q, P)."""
        V = P / self.mcol
        # inner(V, V): numpy reduces the length-4 axis in order, so bitwise
        vsq = (V * V * self.met).sum(axis=-1)
        return V, self.grad(Q) - (self.sigma * (self.m * vsq))[..., None] * Q


# Up to this many bodies the stepper runs whole RK4 steps in Python floats:
# a few dozen numpy calls on (N, 4) arrays per step cost more than the
# O(N^2) work itself.  On a 2-vCPU Xeon a generated float step takes about
# 11-14 / 19-23 / 29-33 us at N = 2 / 3 / 4 against 140-170 us for an array
# step (the best of 15 runs of 300 steps each); the two meet near N = 10.
# find_cc's generated row functions, the descent's and Newton's chart
# evaluations, take the bound too.  At N = 3 one descent trial with the
# restoration after it takes about 16-17 us on H3 and 20-21 us on S3 (a
# level 2 % off; the S3 row norms and the Gram matrix are BLAS calls on
# operands allocated once per search, which took 17 and 29 us when each
# call built its arrays), and an H3 descent capped at 60 steps takes 0.2x
# the array time at N = 4, 0.6x at 12 and 1.9x at 20.
# They are the array code bit for bit only while U sums at most 128 terms
# in numpy's order (_sum_source), N <= 11: at N = 12 the row U differs
# from the array U on 75 of 200 random H3 Gram matrices.
_PAIR_LOOP_MAX_N = 4

# The float stepper hands visit its states this many steps at a time, so a
# run holds O(_BLOCK_STEPS) states, not O(steps), and visit's numpy calls
# are paid once per block.
_BLOCK_STEPS = 64


class _PairKernel:
    """Whole RK4 steps of a few bodies in Python floats, in the frame
    co-moving with exp(t xi) when a generator xi is given.

    A state is a list of N rows of four floats.  step runs a
    straight-line function built for this kernel's space, body count and
    co-moving column layout (_pair_step_factory), which takes the masses,
    the pair products m_i m_j, sigma, the w-metric sign, the singular
    bounds and the layer coefficients as closure values.  Each unordered
    pair's s, singular-pair test, sn^3 and weight w = m_i m_j / sn^3 are
    computed once per stage, in _ForceKernel's expressions, and each
    body's force and weight sums start from 0.0 and take its pairs in the
    order of j (_sum_source); the forces differ from _ForceKernel's BLAS
    sums by rounding only.  A singular pair raises SingularPairError(i, j,
    s) for the first such pair i < j, judged by its own s.  The rest is
    the array stepper's arithmetic operation for operation, so bit for
    bit: the stage sums, the velocities and velocity term, the co-moving
    term (_frame_layers), the reprojection and the tangent projection.
    The two projections run inside the generated step too, in _reproject's
    and project_tangent's expressions; only the S3 row norms leave it, as
    one BLAS product on buffers that the kernel allocates once (_products).
    """

    def __init__(self, space: Space, m: np.ndarray, xi=None):
        layers = _frame_layers(np.zeros((4, 4)) if xi is None else xi)
        ms = [float(v) for v in m]
        make = _pair_step_factory(
            space, len(ms), tuple(tuple(c for c, _ in layer) for layer in layers))
        self._step = make(
            *ms, *(ms[i] * ms[j] for i, j in combinations(range(len(ms)), 2)),
            float(space.sigma), float(space.metric_diagonal[3]),
            *_singular_bounds(space), *(k for layer in layers for _, k in layer))

    def step(self, q: list, p: list, dt: float, half: float, sixth: float):
        """One RK4 step plus projection from (q, p); half = 0.5 dt and
        sixth = dt / 6, as _rk4 hoists them."""
        return self._step(q, p, dt, half, sixth)


def _frame_layers(xi) -> list:
    """The nonzero entries of a 4 x 4 generator xi, as layers of one
    (column, coefficient) per row, so that (y xi^T)_r is the sum over the
    layers of y[column] * coefficient; a row with fewer entries is padded
    with (r, 0.0).

    Each product is taken plus +0.0, as BLAS's zero-started sum takes it,
    so a generator with at most one nonzero per row (none, a double
    rotation, a rotation-boost) gives the BLAS product's bits, an exact
    zero included.  The parabolic generator has two in some rows, summed
    layer by layer, which may differ from BLAS in the last bit.
    """
    rows = [[(c, float(v)) for c, v in enumerate(row) if v != 0.0] for row in xi]
    depth = max(1, *map(len, rows))
    return [[row[k] if k < len(row) else (r, 0.0) for r, row in enumerate(rows)]
            for k in range(depth)]


def _compiled_once(build):
    """Decorate build(*key) -> (source, filename, namespace) into a factory
    that returns, for each key, the make that the generated source defines,
    compiled and run in namespace once per process.

    The factory is functools.cache's wrapper (cache_info, cache_clear).
    build runs, and looks up its source generator, only on a key's first
    call, so importing the package compiles nothing.
    """
    @functools.cache
    @functools.wraps(build)
    def factory(*key):
        source, filename, namespace = build(*key)
        exec(compile(source, filename, "exec"), namespace)
        return namespace["make"]
    return factory


@_compiled_once
def _pair_step_factory(space: Space, n: int, layout: tuple):
    """make(m_0.., m_i m_j.., sigma, mw, lo, hi, k..) -> step for n
    bodies, compiled once per process for each key.

    layout holds, for each co-moving layer (_frame_layers), the column each
    of the four rows reads; the coefficients k, layer by layer and row by
    row, are make's last arguments.  The key holds integers and the space
    only, and the source text holds names and indices only: every float
    reaches the functions as a closure value.
    """
    namespace = {"space": space, "SingularPairError": SingularPairError,
                 "OffShellError": OffShellError, "sqrt": math.sqrt,
                 "isfinite": math.isfinite, "array": np.array,
                 "_reproject": _reproject, "errstate": np.errstate,
                 "_products": _products}
    return (_pair_step_source(space, n, layout),
            f"<RK4 step, {space.value}, N = {n}>", namespace)


def _rows_source(name: str, n: int, width: int = 4) -> str:
    """The n rows name_i_0..name_i_{width - 1} as a tuple display of
    tuples, which also unpacks rows as an assignment target."""
    return ", ".join(
        f"({', '.join(f'{name}_{i}_{r}' for r in range(width))}"
        f"{',' if width == 1 else ''})" for i in range(n)) + ("," if n == 1 else "")


def _flat_source(name: str, n: int, width: int = 4) -> str:
    """The names of the n rows name_i_0..name_i_{width - 1}, row by row,
    each followed by a comma: a flat argument list, tuple display or
    assignment target."""
    return " ".join(f"{name}_{i}_{r}," for i in range(n) for r in range(width))


def _sum_source(terms) -> str:
    """The expression that sums the expressions terms (at most 128) as
    numpy's add.reduce sums their values: from 0.0 one by one below eight,
    else in eight running sums over blocks of eight, combined pairwise,
    then the rest one by one, the total added to 0.0.  A sum of an array's
    entries in C order then has the bits of the array's .sum()."""
    if len(terms) < 8:
        return "(" + " + ".join(["0.0", *terms]) + ")"
    full = len(terms) - len(terms) % 8
    r = [f"({' + '.join(terms[k:full:8])})" for k in range(8)]
    total = (f"((({r[0]} + {r[1]}) + ({r[2]} + {r[3]}))"
             f" + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]})))")
    return f"(0.0 + ({' + '.join([total, *terms[full:]])}))"


def _products(space: Space, n: int) -> tuple:
    """(norms, gram, force): the three products of generated few-body code
    for n rows on space that stay BLAS calls, since a float sum would not
    round them as BLAS does.  Each make call of the generated code calls
    this once, so the buffers here are its own: a call packs its floats
    into them and runs the product on fixed views, into a fixed output.

    norms(*x) is the n sums of squares of the rows whose 4n floats are x,
    in row order, as _reproject's stacked matmul takes them for the S3
    row norms.  gram(*x) is _gram_checked's matrix of those rows,
    unchecked, as rows; its two factors live in two buffers, since a
    product of one buffer with its own transpose would go to syrk, which
    need not round as gemm does.  force(w, x) is the 4n floats of w @ q,
    grad U's weighted sum of the points, for the n x n weights w and the
    rows q given as flat tuples w and x.
    """
    pack, unpack = Struct(f"{4 * n}d").pack_into, Struct(f"{4 * n}d").unpack_from
    rows, scaled, out = np.empty((n, 4)), np.empty((n, 4)), np.empty((n, 4))
    sums, unpack_sums = np.empty((n, 1, 1)), Struct(f"{n}d").unpack_from
    weights, pack_w, s = np.empty((n, n)), Struct(f"{n * n}d").pack_into, np.empty((n, n))
    left, right, rows_t = rows[:, None, :], rows[:, :, None], rows.T
    met = space.metric_diagonal

    def norms(*x):
        pack(rows, 0, *x)
        np.matmul(left, right, sums)
        return unpack_sums(sums)

    def gram(*x):
        pack(rows, 0, *x)
        np.multiply(rows, met, scaled)
        np.matmul(scaled, rows_t, s)
        if space is Space.H3:  # sigma * s; on S3 sigma is 1.0, which moves no bit
            np.multiply(space.sigma, s, s)
        return s.tolist()

    def force(w, x):
        pack_w(weights, 0, *w)
        pack(rows, 0, *x)
        np.matmul(weights, rows, out)
        return unpack(out)

    return norms, gram, force


def _reproject_source(space: Space, n: int, src: str, dst: str) -> list:
    """Source lines that scale the rows src_i_r onto space as dst_i_r, in
    _reproject's expressions: the H3 row norms in floats, the S3 ones from
    the stacked matmul that _reproject takes, since BLAS may round their
    sums of squares with fused multiply-adds (norms, the first of the
    make call's _products).  Rows that _reproject refuses go to it as an
    array, which raises project_point's error for the first such row.  Its
    norms of the other rows may overflow or meet inf - inf, which the
    floats do silently, so numpy's warnings for them are off there.  The
    lines use sq{i} and n{i}, and need array, sqrt, space, errstate,
    _reproject and, on S3, norms."""
    bodies = range(n)
    refuse = ['    with errstate(over="ignore", invalid="ignore"):',
              f"        _reproject(space, array([{_rows_source(src, n)}]))  # raises"]
    if space is Space.S3:
        lines = [f"{''.join(f'n{i}, ' for i in bodies)}= map(sqrt, norms({_flat_source(src, n)}))",
                 "if " + " or ".join(f"n{i} < 1e-12" for i in bodies) + ":",
                 *refuse]
    else:
        lines = [f"sq{i} = -(({src}_{i}_0 * {src}_{i}_0 + {src}_{i}_1 * {src}_{i}_1"
                 f" + {src}_{i}_2 * {src}_{i}_2) - {src}_{i}_3 * {src}_{i}_3)"
                 for i in bodies]
        lines += ["if " + " or ".join(f"{src}_{i}_3 <= 0.0 or sq{i} <= 1e-12"
                                      for i in bodies) + ":",
                  *refuse, *(f"n{i} = sqrt(sq{i})" for i in bodies)]
    return lines + [f"{dst}_{i}_{r} = {src}_{i}_{r} / n{i}"
                    for i in bodies for r in range(4)]


def _tangent_source(space: Space, n: int, x: str, v: str, dst: str) -> list:
    """Source lines that project the rows v_i_r to the tangent spaces at the
    rows x_i_r as dst_i_r, in project_tangent's expressions: each
    coefficient is sigma times inner's sum, in its order.  They use cf and
    need sigma."""
    pm = "-" if space is Space.H3 else "+"
    lines = []
    for i in range(n):
        dot = " + ".join(f"{x}_{i}_{r} * {v}_{i}_{r}" for r in range(3))
        lines += [f"cf = sigma * ({dot} {pm} {x}_{i}_3 * {v}_{i}_3)",
                  *(f"{dst}_{i}_{r} = {v}_{i}_{r} - cf * {x}_{i}_{r}"
                    for r in range(4))]
    return lines


def _pair_step_source(space: Space, n: int, layout: tuple) -> str:
    """The source of _pair_step_factory's make for n bodies on space: step
    runs the four stages of the equations of motion from the rows (q, p),
    the RK4 sum, the finiteness test, the reprojection and the tangent
    projection.

    Stage k reads the rows Qk_i_r, Pk_i_r and writes the rates dQk_i_r,
    dPk_i_r.  Each expression and each summation order is the pair loop's
    that came before: a pair's s, its test, sn and w in pair order; body
    i's sums 0.0 + w_ij q_j.. and 0.0 + w_ij s_ij.. over j in order; its
    velocity, velocity term and rates, less (y[c] * k + 0.0) per layer.
    Inside the singular bounds sigma (1 - s^2) is at least about
    2 EPS_SINGULAR, or +inf on H3, so the root and the division cannot fail.

    The RK4 sums Q_i_r, P_i_r are projected into X_i_r, Z_i_r
    (_reproject_source, _tangent_source).
    """
    bodies = range(n)
    pairs = list(combinations(bodies, 2))
    k = [[f"k{a}_{r}" for r in range(4)] for a in range(len(layout))]

    def rows(name):
        return _rows_source(name, n)

    def co_moving(Y, i, r):  # less (y[c] * k + 0.0), layer by layer
        return "".join(f" - ({Y}_{i}_{cols[r]} * {ks[r]} + 0.0)"
                       for cols, ks in zip(layout, k))

    def stage(t):
        Q, P = f"Q{t}", f"P{t}"
        out = []
        for i, j in pairs:
            s = f"s{i}_{j}"
            dot = " + ".join(f"{Q}_{i}_{r} * {Q}_{j}_{r}" for r in range(3))
            out += [f"{s} = sigma * ({dot} + mw * {Q}_{i}_3 * {Q}_{j}_3)",
                    f"if not lo <= {s} <= hi:",
                    f"    raise SingularPairError({i}, {j}, {s})",
                    f"sn = sqrt(sigma * (1.0 - {s} * {s}))",
                    f"w{i}_{j} = mm{i}_{j} / (sn * sn * sn)",
                    f"ws{i}_{j} = w{i}_{j} * {s}"]
        for i in bodies:
            near = [(f"{min(i, j)}_{max(i, j)}", j) for j in bodies if j != i]
            out += [f"v{r} = {P}_{i}_{r} / m{i}" for r in range(4)]
            out += ["u = sigma * (m%d * (v0 * v0 + v1 * v1 + v2 * v2"
                    " + mw * v3 * v3))" % i,
                    "c = " + _sum_source([f"ws{ij}" for ij, _ in near])]
            for r in range(4):
                f = _sum_source([f"w{ij} * {Q}_{j}_{r}" for ij, j in near])
                out += [f"dQ{t}_{i}_{r} = v{r}{co_moving(Q, i, r)}",
                        f"dP{t}_{i}_{r} = {f} - c * {Q}_{i}_{r}"
                        f" - u * {Q}_{i}_{r}{co_moving(P, i, r)}"]
        return out

    def axpy(t, h, d):
        return [f"{X}{t}_{i}_{r} = {X}1_{i}_{r} + {h} * d{X}{d}_{i}_{r}"
                for X in "QP" for i in bodies for r in range(4)]

    def block(lines):
        return ["        " + line for line in lines]

    masses = [f"m{i}" for i in bodies] + [f"mm{i}_{j}" for i, j in pairs]
    args = ", ".join([*masses, "sigma", "mw", "lo", "hi", *sum(k, [])])
    rk4 = [f"{X}_{i}_{r} = {X}1_{i}_{r} + sixth * (d{X}1_{i}_{r}"
           f" + 2.0 * d{X}2_{i}_{r} + 2.0 * d{X}3_{i}_{r} + d{X}4_{i}_{r})"
           for X in "QP" for i in bodies for r in range(4)]
    flat = ", ".join(f"{X}_{i}_{r}" for X in "QP" for i in bodies for r in range(4))
    lines = [f"def make({args}):",
             f"    norms = _products(space, {n})[0]",
             "    def step(q, p, dt, half, sixth):",
             f"        {rows('Q1')} = q",
             f"        {rows('P1')} = p",
             *block(stage(1)), *block(axpy(2, "half", 1)),
             *block(stage(2)), *block(axpy(3, "half", 2)),
             *block(stage(3)), *block(axpy(4, "dt", 3)),
             *block(stage(4)), *block(rk4),
             f"        if not all(map(isfinite, ({flat},))):",
             "            raise OffShellError(\"non-finite state\")",
             *block(_reproject_source(space, n, "Q", "X")),
             *block(_tangent_source(space, n, "X", "P", "Z")),
             f"        return [{rows('X')}], [{rows('Z')}]",
             "    return step"]
    return "\n".join(lines) + "\n"


# ─── public operations ───────────────────────────────────────────────────


def force_function(config: Configuration) -> float:
    """Total force function U = sum over pairs of m_i m_j ctn(d_ij)."""
    return _potential_raw(config.space, config.masses, config.points)


def pair_force(i: int, j: int, config: Configuration) -> np.ndarray:
    """Force exerted on body i by body j (tangent to the manifold at q_i)."""
    if i == j:
        raise ValueError("pair_force needs two distinct bodies")
    space = config.space
    qi, qj = config.points[i], config.points[j]
    # a Configuration holds no singular pair, so s is safely inside the
    # domain and needs no check of its own
    s = space.sigma * inner(qi, qj, space)
    sn = math.sqrt(max(space.sigma * (1.0 - s * s), 0.0))
    return config.masses[i] * config.masses[j] * (qj - s * qi) / (sn * sn * sn)


def grad_U(config: Configuration) -> np.ndarray:
    """Manifold gradient of U, one tangent row per body: the net forces."""
    return _ForceKernel(config.space, config.masses).grad(config.points)


def eom_rhs(state: PhaseState):
    """(dq/dt, dp/dt) rows for the constrained equations of motion."""
    cfg = state.config
    return _ForceKernel(cfg.space, cfg.masses).rhs(cfg.points, state.momenta)


def kinetic_energy(state: PhaseState, half: bool = False) -> float:
    """sum_i m_i^-1 <p_i, p_i>.

    The bare sum is the convention used throughout the closed-form material
    here; pass half=True for the (1/2)-weighted value, which is the one that
    combines with -U into a drift-free first integral.
    """
    val = float(
        np.sum(inner(state.momenta, state.momenta, state.config.space)
               / state.config.masses)
    )
    return 0.5 * val if half else val


def _first_integrals(space: Space, m, Q, P) -> np.ndarray:
    """conserved()'s seven values, in the dtype of Q and P: shape (7,) for
    one (N, 4) state, (..., 7) for a (..., N, 4) stack.

    The order is ConservedSet's.  Only the potential comes back rounded to
    float64, as _potential_raw returns it.  A stack gives each state's
    values bit for bit.
    """
    kin = 0.5 * ((P * P * space.metric_diagonal).sum(axis=-1) / m).sum(axis=-1)
    omegas = [(P[..., a] * Q[..., b] - Q[..., a] * P[..., b]).sum(axis=-1)
              for a, b in combinations(range(4), 2)]
    return np.stack([kin - _potential_raw(space, m, Q), *omegas], axis=-1)


def conserved(state: PhaseState) -> ConservedSet:
    """Evaluate the seven first integrals at one state.

    energy = (1/2) sum m_i^-1 <p_i, p_i> - U: the 1/2 makes it constant
    along solutions (see kinetic_energy for the bare-sum convention).  The
    six omegas are sum_i (p_a q_b - q_a p_b) over coordinate pairs; all six
    are constant in both geometries.
    """
    cfg = state.config
    vals = _first_integrals(cfg.space, cfg.masses, cfg.points, state.momenta)
    return ConservedSet(*(float(v) for v in vals))


def pairwise_distances(config: Configuration) -> np.ndarray:
    """Symmetric (N, N) matrix of geodesic separations, zero diagonal."""
    d = _arccsn(config.space, _gram_checked(config.space, config.points))
    np.fill_diagonal(d, 0.0)
    return d


def generator_momenta(config: Configuration, generator) -> np.ndarray:
    """Momenta m_i (xi q_i) for rigid motion along a one-parameter subgroup."""
    if generator.space is not config.space:
        raise ValueError("generator kind does not act on this configuration's space")
    xi = generator.matrix_log()
    return config.masses[:, None] * (config.points @ xi.T)


def _encounter(exc: Exception, t: float) -> SingularEncounterError:
    """The SingularEncounterError for exc, met in the step that starts at
    time t or in the state it starts from; raise it from exc."""
    if isinstance(exc, SingularPairError):
        return SingularEncounterError(
            f"singular pair ({exc.i}, {exc.j}) near t = {t:.6g}")
    return SingularEncounterError(
        f"step left the resolvable region near t = {t:.6g}: {exc}")


def _rk4(space: Space, m: np.ndarray, Q, P, dt: float, steps: int, visit,
         xi=None) -> None:
    """Fixed-step RK4 plus projection of masses m from the state (Q, P).

    With a generator xi the equations of motion are integrated in the frame
    co-moving with exp(t xi): each stage subtracts (Q xi^T, P xi^T).  After
    each step the positions are rescaled onto the manifold and the momenta
    re-projected onto tangent spaces.  visit(k, Qs, Ps) receives the states
    after steps k + 1, ..., k + B as (B, N, 4) stacks, in step order.

    N alone picks the arithmetic.  Up to _PAIR_LOOP_MAX_N bodies
    _PairKernel runs whole steps in Python floats, each one call of a
    straight-line function compiled once per process for the space, N and
    the generator's column layout, projections included, and visit gets
    blocks of up to
    _BLOCK_STEPS steps; above, _ForceKernel's array stages run and visit
    gets each step alone.  A singular pair, a non-finite state or a
    row that cannot be scaled back, met in a stage or the projection,
    raises SingularEncounterError chained from its cause, once visit has
    seen every state before it; visit's own errors pass through.  Overflow
    and invalid operations raise no RuntimeWarning here: a step of huge dt
    reaches that error through the non-finite values they leave.
    """
    # 0.5 * dt * k already evaluates as (0.5 * dt) * k, so hoisting is bitwise
    half, sixth = 0.5 * dt, dt / 6.0
    failures = (SingularPairError, OffShellError, DegenerateVectorError)
    # one errstate per run, not per step, keeps its cost out of the loop
    with np.errstate(over="ignore", invalid="ignore"):
        if len(m) <= _PAIR_LOOP_MAX_N:
            step = _PairKernel(space, m, xi).step
            q, p = np.asarray(Q).tolist(), np.asarray(P).tolist()
            done = 0
            while done < steps:
                qs, ps, failure = [], [], None
                try:
                    for _ in range(min(_BLOCK_STEPS, steps - done)):
                        q, p = step(q, p, dt, half, sixth)
                        qs.append(q)
                        ps.append(p)
                except failures as exc:
                    failure = exc
                if qs:
                    visit(done, np.array(qs), np.array(ps))
                done += len(qs)
                if failure is not None:
                    raise _encounter(failure, done * dt) from failure
            return
        rhs = _ForceKernel(space, m).rhs
        if xi is not None:
            xiT = np.ascontiguousarray(xi.T)
            kernel_rhs = rhs

            def rhs(Q, P):
                dQ, dP = kernel_rhs(Q, P)
                return dQ - Q @ xiT, dP - P @ xiT

        sigma, met = space.sigma, space.metric_diagonal
        for k in range(1, steps + 1):
            try:
                k1q, k1p = rhs(Q, P)
                k2q, k2p = rhs(Q + half * k1q, P + half * k1p)
                k3q, k3p = rhs(Q + half * k2q, P + half * k2p)
                k4q, k4p = rhs(Q + dt * k3q, P + dt * k3p)
                Q = Q + sixth * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
                P = P + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
                if not (np.isfinite(Q).all() and np.isfinite(P).all()):
                    raise OffShellError("non-finite state")
                Q = _reproject(space, Q)
                # project_tangent, bitwise: sigma = +-1 scales exactly
                P = P - (sigma * (Q * P * met).sum(axis=-1))[..., None] * Q
            except failures as exc:
                raise _encounter(exc, (k - 1) * dt) from exc
            visit(k - 1, Q[None], P[None])


def step_count(horizon: float, dt: float) -> int:
    """The number of fixed steps of size dt that cover horizon, at least one.

    Raises OutOfRangeError unless horizon, dt and their ratio are finite
    and positive.
    """
    ratio = check_scalar("horizon", horizon) / check_scalar("step dt", dt)
    return max(1, round(check_scalar("horizon / dt", ratio)))


def integrate(
    state: PhaseState, dt: float, steps: int, record_every: int = 1
) -> Trajectory:
    """Advance the equations of motion with fixed-step RK4 plus projection.

    After each step, positions are rescaled onto the manifold and momenta
    re-projected onto tangent spaces, so recorded states satisfy the
    constraints to round-off.  Up to four bodies each step is one call of
    a straight-line Python-float function, forces summed pair by pair,
    which is compiled the first time a process steps that many bodies on
    that space (a few ms); more bodies run the array kernel; the two agree
    to rounding.  A singular pair encountered mid-run raises
    SingularEncounterError carrying the trajectory up to the last good step.
    A dt that is not finite and positive raises OutOfRangeError, and steps
    or record_every below one ValueError.
    """
    check_scalar("step dt", dt)
    if steps < 1 or record_every < 1:
        raise ValueError("need steps >= 1 and record_every >= 1")
    space, m = state.config.space, state.config.masses
    times, qs, ps = [0.0], [state.config.points], [state.momenta]

    def record(k0, Qs, Ps):
        for k, Q, P in zip(range(k0 + 1, k0 + len(Qs) + 1), Qs, Ps):
            if k % record_every == 0 or k == steps:
                times.append(k * dt)
                qs.append(Q)
                ps.append(P)

    try:
        _rk4(space, m, state.config.points, state.momenta, dt, steps, record)
    except SingularEncounterError as exc:
        exc.partial = Trajectory(
            space, m, np.array(times), np.array(qs), np.array(ps), completed=False
        )
        raise
    return Trajectory(space, m, np.array(times), np.array(qs), np.array(ps))


# ─── export ──────────────────────────────────────────────────────────────


def trajectory_to_csv(
    traj: Trajectory, csv_path, sidecar_path=None, sample_stride: int = 100
) -> None:
    """Write `t,i,x,y,z,w,px,py,pz,pw` rows plus an optional JSON sidecar
    of conserved-quantity samples (every sample_stride-th record).

    Each field is the repr of its Python float.  All rows are formatted in
    one % pass of a per-record template that holds the body indices, with
    each record's time formatted once.
    """
    records, n = traj.positions.shape[:2]
    # the fields of each row: the time's text, then its eight coordinates
    # as Python floats, whose repr (%r) is the field's text
    fields = np.empty((records, n, 9), dtype=object)
    fields[:, :, 0] = np.array([repr(t) for t in traj.times.tolist()],
                               dtype=object)[:, None]
    fields[:, :, 1:5] = traj.positions
    fields[:, :, 5:] = traj.momenta
    record = "".join(f"%s,{i}" + ",%r" * 8 + "\n" for i in range(n))
    with open(csv_path, "w") as fh:
        fh.write("t,i,x,y,z,w,px,py,pz,pw\n")
        fh.write((record * records) % tuple(fields.ravel().tolist()))
    if sidecar_path is None:
        return
    samples = []
    last = len(traj) - 1
    for k in [*range(0, last, max(1, sample_stride)), last]:
        entry = {"t": float(traj.times[k])}
        entry.update(conserved(traj.state_at(k)).as_dict())
        samples.append(entry)
    with open(sidecar_path, "w") as fh:
        json.dump({"completed": traj.completed, "samples": samples}, fh, indent=2)
        fh.write("\n")
