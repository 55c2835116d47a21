"""find_cc's small-N descent as hand-written row loops: the reference that
the generated straight-line descent of centralconfig._RowDescent is held
to, bit for bit.

LoopDescent's four operations are the row descent that centralconfig ran
before its descent was generated, with its helpers (_check_rows_float,
_metric_products, _potential_rows, _tangent_rows), unchanged.
"""

import math

from curved_nbody.centralconfig import _PAIR_MARGIN, _grad_I_rows, _r2_rows
from curved_nbody.dynamics import (
    _axpy,
    _check_rows,
    _check_shell_rows,
    _grad_U_rows,
    _singular_bounds,
)
from curved_nbody.errors import NoConvergenceError
from curved_nbody.manifold import Space, _add_reduce, _reproject_rows


class LoopDescent:
    """_ArrayDescent's operations on rows of four Python floats, bit for bit.

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
