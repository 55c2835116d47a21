"""find_cc's small-N arithmetic as hand-written row loops: the reference
that the generated straight-line functions of centralconfig._RowOps are
held to, bit for bit.

LoopDescent's four operations are the row descent that centralconfig ran
before its descent was generated, with its helpers (_check_rows_float,
_metric_products, _potential_rows, _tangent_rows), unchanged.  The row
helpers that Newton's chart ran on before its functions were generated
with the descent's (_add_reduce, _grad_U_rows, _grad_I_rows, _r2_rows,
_axpy, and the point check _check_rows with _check_shell_rows) follow,
unchanged too, and last the row reprojection that these loops and the
RK4 pair loop (pair_loop.py) take, _reproject_rows, as manifold held it.
_gram_rows is the Gram product as dynamics held it before its operands
were allocated once per generated function.
"""

import math

import numpy as np

from curved_nbody.centralconfig import _PAIR_MARGIN
from curved_nbody.dynamics import _check_points, _singular_bounds
from curved_nbody.errors import NoConvergenceError, SingularPairError
from curved_nbody.manifold import EPS_MANIFOLD, Space, project_point


class LoopDescent:
    """The descent's operations of _ArrayOps on rows of four Python floats, bit for bit.

    Each is the array code's arithmetic, expression for expression, with
    every array sum in numpy's order (_add_reduce), so a descent gives the
    same points, U and multipliers as on arrays, and every failed check
    raises the array function's error and message.  Three products stay
    numpy calls, since BLAS may round them with fused multiply-adds: the
    Gram matrix of the point check of each restored point, the S3 row
    norms of each reprojection and the w @ Q of grad U.  U and grad U take
    the Gram matrix that the restored point's check built, which is the one
    they would rebuild.  The restoration's other iterates are checked in
    floats (_check_rows_float), which builds a Gram matrix only for a pair
    within rounding distance of a singular bound.
    """

    def __init__(self, kernel, c):
        space = kernel.space
        self.space, self.c = space, c
        self.mw = float(space.metric_diagonal[3])
        self.m = kernel.m.tolist()
        self.tm = [2.0 * v for v in self.m]   # 2.0 * m[:, None] in grad I

    def restore(self, q):
        """_restore_level of the rows q, at its default max_iter; returns
        (q, s), s as rows.

        Each iterate's level error comes first, since it needs no Gram
        matrix: the iterate on the level takes the full check and returns
        its matrix, every other one passes or raises _check_rows_float.
        The level error cannot raise, so each iterate raises what its check
        raises in _restore_level.
        """
        space, m, c, mw = self.space, self.m, self.c, self.mw
        for _ in range(40):
            r2 = _r2_rows(q)
            err = _add_reduce([mi * v for mi, v in zip(m, r2)]) - c
            if abs(err) <= 1e-13 * max(1.0, abs(c)):
                return q, _check_rows(space, q)
            _check_rows_float(space, q)
            G = _grad_I_rows(space, self.tm, q, r2)
            gg = _add_reduce(_metric_products(G, G, mw))
            if gg < 1e-30:
                raise NoConvergenceError("cannot restore I = c: grad I vanished")
            step = -err / gg
            q = _reproject_rows(space, _axpy(q, step, G))
        raise NoConvergenceError("level-set restoration stalled")

    def potential(self, s):
        return _potential_rows(self.space, self.m, s)

    def direction(self, q, s):
        """_residual_dir at the rows q, whose point check built s."""
        space, mw = self.space, self.mw
        gu = _tangent_rows(space, q, _grad_U_rows(space, self.m, q, s))
        gi = _tangent_rows(space, q, _grad_I_rows(space, self.tm, q, _r2_rows(q)))
        gg = _add_reduce(_metric_products(gi, gi, mw))
        lam = _add_reduce(_metric_products(gu, gi, mw)) / gg if gg > 1e-20 else 0.0
        R = _axpy(gu, -lam, gi)
        return R, lam, _add_reduce(_metric_products(R, R, mw))

    def trial(self, q, gamma, R):
        return _reproject_rows(self.space, _axpy(q, -gamma, R))


def _metric_products(A, B, mw):
    """The entries of A * B * metric_diagonal for rows A and B, in C order;
    mw is the metric's w entry."""
    return [v for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(A, B)
            for v in (a0 * b0, a1 * b1, a2 * b2, a3 * b3 * mw)]


def _check_rows_float(space, q):
    """_check_rows without its Gram matrix: passes or raises exactly as it
    does, but builds the BLAS product only for a pair it cannot clear in
    floats.

    After the shell tests, each pair's s is summed in floats.  When every
    pair clears both singular bounds by _PAIR_MARGIN sum |a_k b_k|, the
    BLAS entries, which differ from the float sums by less, clear them
    too, and the rows pass.  A pair inside the margin, or a sum that is not
    finite, hands the rows to _check_rows, which raises or passes.
    """
    _check_shell_rows(space, q)
    lo, hi = _singular_bounds(space)
    h3 = space is Space.H3
    for i, (a0, a1, a2, a3) in enumerate(q):
        for b0, b1, b2, b3 in q[i + 1:]:
            p0, p1, p2, p3 = a0 * b0, a1 * b1, a2 * b2, a3 * b3
            v = p3 - p0 - p1 - p2 if h3 else p0 + p1 + p2 + p3
            margin = _PAIR_MARGIN * (abs(p0) + abs(p1) + abs(p2) + abs(p3))
            if not (v - lo >= margin and hi - v >= margin):
                _check_rows(space, q)
                return


def _potential_rows(space, m, s):
    """_potential_gram of one checked Gram matrix held as rows, with the
    masses as Python floats, bit for bit.

    Off the diagonal a checked s puts sigma (1 - s^2) above zero, or at
    +inf on H3, so the root and the division cannot fail; the diagonal's
    zero terms stay in the sum, whose order they shape.
    """
    sigma = space.sigma
    return 0.5 * _add_reduce([
        0.0 if i == j else mi * mj * (v / math.sqrt(sigma * (1.0 - v * v)))
        for i, (mi, row) in enumerate(zip(m, s))
        for j, (mj, v) in enumerate(zip(m, row))])


def _tangent_rows(space, q, v):
    """project_tangent of the rows v at the rows q, bit for bit; returns
    tuples.  Each coefficient is sigma times inner's sum, in its order."""
    sigma, h3 = space.sigma, space is Space.H3
    out = []
    for (x0, x1, x2, x3), (v0, v1, v2, v3) in zip(q, v):
        t = x0 * v0 + x1 * v1 + x2 * v2
        cf = sigma * (t - x3 * v3 if h3 else t + x3 * v3)
        out.append((v0 - cf * x0, v1 - cf * x1, v2 - cf * x2, v3 - cf * x3))
    return out


def _add_reduce(v: list) -> float:
    """numpy's add.reduce of at most 128 floats, in its order, bit for bit.

    Below 8 values numpy adds them one by one to 0.0; from 8 on it keeps
    eight running sums over blocks of eight, combines them pairwise and
    adds the rest one by one, and the reduction adds that total to 0.0.
    A float loop over an (N, 4) or (N, N) array's entries in C order gets
    the bits of the array's .sum() this way, which a plain sum() does not.
    """
    n = len(v)
    if n < 8:
        r = 0.0
        for x in v:
            r += x
        return r
    r0, r1, r2, r3, r4, r5, r6, r7 = v[:8]
    i = 8
    while i + 8 <= n:
        r0 += v[i]
        r1 += v[i + 1]
        r2 += v[i + 2]
        r3 += v[i + 3]
        r4 += v[i + 4]
        r5 += v[i + 5]
        r6 += v[i + 6]
        r7 += v[i + 7]
        i += 8
    r = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for x in v[i:]:
        r += x
    return 0.0 + r


def _grad_U_rows(space: Space, m: list, q: list, s: list) -> list:
    """_ForceKernel.grad of the rows q from the Gram matrix s (rows) that
    their point check built, bit for bit; returns tuples.

    The weights m_i m_j / sn^3 are _ForceKernel's expressions, and each row
    sum of w s is taken in numpy's order (_add_reduce).  The product w @ q
    stays a numpy call, since BLAS may round it with fused multiply-adds.
    """
    sigma = space.sigma
    w = []
    for i, (mi, row) in enumerate(zip(m, s)):
        wi = [0.0] * len(m)
        for j, (mj, v) in enumerate(zip(m, row)):
            if i != j:
                sn = math.sqrt(sigma * (1.0 - v * v))
                wi[j] = mi * mj / (sn * sn * sn)
        w.append(wi)
    wq = (np.array(w) @ np.array(q)).tolist()
    out = []
    for wi, row, (x0, x1, x2, x3), (f0, f1, f2, f3) in zip(w, s, q, wq):
        ws = _add_reduce([a * b for a, b in zip(wi, row)])
        out.append((f0 - ws * x0, f1 - ws * x1, f2 - ws * x2, f3 - ws * x3))
    return out


def _r2_rows(q):
    """The r^2 of _r2_rho2 for each of the rows q."""
    return [x0 * x0 + x1 * x1 for x0, x1, _, _ in q]


def _grad_I_rows(space, tm, q, r2):
    """_grad_I_raw of the rows q given their r^2, tm holding 2 m_i; returns
    tuples."""
    sigma = space.sigma
    out = []
    for t, (x0, x1, x2, x3), r in zip(tm, q, r2):
        rho2 = sigma * (x2 * x2) + x3 * x3
        out.append((t * (x0 * rho2), t * (x1 * rho2),
                    t * (-sigma * x2 * r), t * (-sigma * x3 * r)))
    return out


def _axpy(x: list, h: float, k: list) -> list:
    """The rows x + h k, as the array x + h * k rounds them; with h = -g,
    as x - g * k rounds them, since -(g k) and x + -y are exact."""
    return [(a0 + h * b0, a1 + h * b1, a2 + h * b2, a3 + h * b3)
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(x, k)]


def _check_rows(space: Space, q: list) -> list:
    """_check_points on one configuration held as rows of four Python
    floats, bit for bit; returns the Gram matrix as rows.

    The checks run in floats, in _check_points' expressions; only the Gram
    product stays a numpy call, since BLAS may round it with fused
    multiply-adds.  A row off the shell goes to _check_points, so the
    error and its message are that function's own.  A singular pair raises
    SingularPairError for the first entry of the Gram matrix outside the
    bounds in C order, the one _raise_singular_pair finds in the same
    matrix, without rebuilding it.
    """
    _check_shell_rows(space, q)
    s = _gram_rows(space, q)
    lo, hi = _singular_bounds(space)
    for i, row in enumerate(s):
        for j, v in enumerate(row):
            if not lo <= v <= hi and i != j:
                raise SingularPairError(i, j, v)
    return s


def _gram_rows(space: Space, q: list) -> list:
    """_gram_checked's matrix of the rows q, unchecked, as rows: the BLAS
    product, since a float sum would not round it as BLAS does."""
    a = np.array(q)
    return (space.sigma * ((a * space.metric_diagonal) @ a.T)).tolist()


def _check_shell_rows(space: Space, q: list) -> None:
    """_check_points' shell tests on the rows q, in its expressions; a row
    that fails them goes to _check_points, which raises its error."""
    sigma, h3 = space.sigma, space is Space.H3
    for x0, x1, x2, x3 in q:
        t = x0 * x0 + x1 * x1 + x2 * x2
        sq = t + x3 * x3  # (q * q).sum(axis=-1): 0.0 + x0 * x0 adds nothing
        unit = t - x3 * x3 if h3 else sq
        # a NaN sq comes with a NaN unit, whose test fails as numpy's does
        if not (abs(unit - sigma) / (sq if sq > 1.0 else 1.0) <= EPS_MANIFOLD
                and (not h3 or x3 >= 1.0 - EPS_MANIFOLD)):
            _check_points(space, np.array(q))  # raises


def _reproject_rows(space, q: list) -> list:
    """_reproject of rows of four Python floats, bit for bit; returns tuples.

    On S3 the row norms still come from the stacked matmul, since a float
    sum of squares rounds differently from the BLAS reduction _reproject
    takes them from.  The first refused row raises project_point's error.
    """
    if space is Space.S3:
        a = np.array(q)
        sq = np.matmul(a[:, None, :], a[:, :, None]).ravel().tolist()
        norms = [math.sqrt(v) for v in sq]
        bad = [v < 1e-12 for v in norms]
    else:
        # -inner(q, q), in inner's order
        sq = [-((x0 * x0 + x1 * x1 + x2 * x2) - x3 * x3) for x0, x1, x2, x3 in q]
        bad = [row[3] <= 0.0 or v <= 1e-12 for row, v in zip(q, sq)]
    if any(bad):
        project_point(np.array(q[bad.index(True)]), space)
    if space is Space.H3:
        norms = [math.sqrt(v) for v in sq]
    return [(x0 / n, x1 / n, x2 / n, x3 / n) for (x0, x1, x2, x3), n in zip(q, norms)]
