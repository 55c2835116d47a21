"""The small-N RK4 stepper as a pair loop: the reference that the generated
straight-line step of dynamics._PairKernel is held to, bit for bit.

LoopKernel.rates and .step are the loop kernel that dynamics ran before
its steps were generated, with its helpers, unchanged.
"""

import math
from itertools import chain, combinations

import numpy as np

from curved_nbody.dynamics import _frame_layers, _singular_bounds
from curved_nbody.errors import OffShellError, SingularPairError

from row_descent import _axpy, _reproject_rows, _tangent_rows


class LoopKernel:
    """Whole RK4 steps of a few bodies in Python floats, in the frame
    co-moving with exp(t xi) when a generator xi is given.

    A state is a list of N rows of four floats.  Each unordered pair's s,
    singular-pair test, sn^3 and weight w = m_i m_j / sn^3 are computed
    once, and the force is added to both bodies.  A singular pair raises
    SingularPairError(i, j, s) for the first such pair i < j.
    """

    def __init__(self, space, m, xi=None):
        self.space = space
        self.sigma = float(space.sigma)
        self.mw = float(space.metric_diagonal[3])
        self.m = [float(v) for v in m]
        self.pairs = [(i, j, self.m[i] * self.m[j])
                      for i, j in combinations(range(len(m)), 2)]
        self.lo, self.hi = _singular_bounds(space)
        self.layers = _frame_layers(np.zeros((4, 4)) if xi is None else xi)

    def rates(self, q, p):
        """(dq/dt, dp/dt) of the equations of motion at one state (q, p),
        in the co-moving frame when the kernel has a generator."""
        sigma, mw, lo, hi = self.sigma, self.mw, self.lo, self.hi
        f = [[0.0, 0.0, 0.0, 0.0] for _ in q]   # sum_j w_ij q_j
        c = [0.0] * len(q)                       # sum_j w_ij s_ij
        for i, j, mm in self.pairs:
            a0, a1, a2, a3 = q[i]
            b0, b1, b2, b3 = q[j]
            s = sigma * (a0 * b0 + a1 * b1 + a2 * b2 + mw * a3 * b3)
            if not lo <= s <= hi:
                raise SingularPairError(i, j, s)
            # inside the bounds sigma (1 - s^2) is at least about
            # 2 EPS_SINGULAR, or +inf on H3: the root and division cannot fail
            sn = math.sqrt(sigma * (1.0 - s * s))
            w = mm / (sn * sn * sn)
            fi, fj = f[i], f[j]
            fi[0] += w * b0
            fi[1] += w * b1
            fi[2] += w * b2
            fi[3] += w * b3
            fj[0] += w * a0
            fj[1] += w * a1
            fj[2] += w * a2
            fj[3] += w * a3
            ws = w * s
            c[i] += ws
            c[j] += ws
        (c0, k0), (c1, k1), (c2, k2), (c3, k3) = self.layers[0]
        dq, dp = [], []
        for y, z, fi, ci, mi in zip(q, p, f, c, self.m):
            x0, x1, x2, x3 = y
            v0, v1, v2, v3 = z[0] / mi, z[1] / mi, z[2] / mi, z[3] / mi
            # (grad U)_i - sigma m_i <v_i, v_i> q_i, grouped as _ForceKernel,
            # then the co-moving terms
            u = sigma * (mi * (v0 * v0 + v1 * v1 + v2 * v2 + mw * v3 * v3))
            dq.append((v0 - (y[c0] * k0 + 0.0), v1 - (y[c1] * k1 + 0.0),
                       v2 - (y[c2] * k2 + 0.0), v3 - (y[c3] * k3 + 0.0)))
            dp.append((fi[0] - ci * x0 - u * x0 - (z[c0] * k0 + 0.0),
                       fi[1] - ci * x1 - u * x1 - (z[c1] * k1 + 0.0),
                       fi[2] - ci * x2 - u * x2 - (z[c2] * k2 + 0.0),
                       fi[3] - ci * x3 - u * x3 - (z[c3] * k3 + 0.0)))
        for layer in self.layers[1:]:
            dq, dp = _less_layer(layer, q, dq), _less_layer(layer, p, dp)
        return dq, dp

    def step(self, q, p, dt, half, sixth):
        """One RK4 step plus projection from (q, p); half = 0.5 dt and
        sixth = dt / 6, as _rk4 hoists them."""
        rates = self.rates
        k1q, k1p = rates(q, p)
        k2q, k2p = rates(_axpy(q, half, k1q), _axpy(p, half, k1p))
        k3q, k3p = rates(_axpy(q, half, k2q), _axpy(p, half, k2p))
        k4q, k4p = rates(_axpy(q, dt, k3q), _axpy(p, dt, k3p))
        q = _rk4_sum(q, sixth, k1q, k2q, k3q, k4q)
        p = _rk4_sum(p, sixth, k1p, k2p, k3p, k4p)
        if not all(map(math.isfinite, chain(*q, *p))):
            raise OffShellError("non-finite state")
        q = _reproject_rows(self.space, q)
        return q, _tangent_rows(self.space, q, p)


def _less_layer(layer, y, d):
    """The rows d less the co-moving term of one further layer on y."""
    (c0, k0), (c1, k1), (c2, k2), (c3, k3) = layer
    return [(a0 - (r[c0] * k0 + 0.0), a1 - (r[c1] * k1 + 0.0),
             a2 - (r[c2] * k2 + 0.0), a3 - (r[c3] * k3 + 0.0))
            for (a0, a1, a2, a3), r in zip(d, y)]


def _rk4_sum(x, sixth, k1, k2, k3, k4):
    """The rows x + sixth (k1 + 2 k2 + 2 k3 + k4), in the array order."""
    return [(x0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
             x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
             x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
             x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3))
            for (x0, x1, x2, x3), (a0, a1, a2, a3), (b0, b1, b2, b3),
            (c0, c1, c2, c3), (d0, d1, d2, d3) in zip(x, k1, k2, k3, k4)]
