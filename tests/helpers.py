"""Shared builders for randomized, safely-separated test configurations,
and the numpy oracle of the generated tangent frames."""

import math

import numpy as np

from curved_nbody.dynamics import Configuration
from curved_nbody.manifold import Space, inner, project_tangent


def random_points(space, n, rng, spread=1.0):
    if space is Space.S3:
        pts = rng.normal(size=(n, 4))
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rho = rng.uniform(0.3, 0.3 + spread, size=n)
    pts = np.empty((n, 4))
    pts[:, :3] = np.sinh(rho)[:, None] * u
    pts[:, 3] = np.cosh(rho)
    return pts


def random_config(space, n, rng, min_gap=0.3, masses=None):
    """A nonsingular random configuration with pairwise gaps >= min_gap."""
    if masses is None:
        masses = rng.uniform(0.5, 2.0, size=n)
    for _ in range(500):
        pts = random_points(space, n, rng)
        s = space.sigma * (pts * space.metric_diagonal) @ pts.T
        off = ~np.eye(n, dtype=bool)
        if space is Space.S3:
            ok = np.all(np.abs(s[off]) < np.cos(min_gap))
        else:
            ok = np.all(s[off] > np.cosh(min_gap))
        if ok:
            return Configuration(space, masses, pts)
    raise RuntimeError("could not draw a well-separated configuration")


def random_momenta(config, rng, scale=0.1):
    raw = rng.normal(scale=scale, size=config.points.shape)
    return config.masses[:, None] * project_tangent(config.points, raw, config.space)


def tangent_basis(q, space):
    """Sigma-orthonormal tangent frame at one on-shell point."""
    met = space.metric_diagonal
    sigma = space.sigma
    basis = []
    for e in np.eye(4):
        v = e - sigma * float(np.sum(e * q * met)) * q
        for b in basis:
            v = v - float(np.sum(v * b * met)) * b
        n2 = float(np.sum(v * v * met))
        if n2 > 1e-8:
            basis.append(v / np.sqrt(n2))
        if len(basis) == 3:
            break
    return basis


def geodesic_shift(cfg, i, direction, h, space):
    """Move body i a signed arc h along the unit tangent direction."""
    pts = np.array(cfg.points)
    if space is Space.S3:
        pts[i] = np.cos(h) * pts[i] + np.sin(h) * direction
    else:
        pts[i] = np.cosh(h) * pts[i] + np.sinh(h) * direction
    return Configuration(space, cfg.masses, pts)


def _gram_schmidt_row(space, q):
    """The sigma-metric Gram-Schmidt of the row q over the unit vectors e0..e3
    on numpy 4-vectors, through inner and project_tangent: (the vectors
    kept, at most three, and the indices of the unit vectors kept)."""
    vecs, kept = [], []
    for k, e in enumerate(np.eye(4)):
        v = project_tangent(q, e, space)
        for b in vecs:
            v = v - inner(b, v, space) * b
        nrm = inner(v, v, space)
        if nrm > 1e-12:
            vecs.append(v / math.sqrt(nrm))
            kept.append(k)
        if len(vecs) == 3:
            break
    return vecs, kept


def _tangent_bases_by_rows(space, Q):
    """centralconfig._tangent_bases as _gram_schmidt_row of each row of Q:
    the reference its generated Python-float frames must match.  A row
    whose frame loses rank keeps fewer than three vectors."""
    return np.array([_gram_schmidt_row(space, q)[0] for q in Q])
