"""Distances and residuals that tests of pseudo-Euclidean maps and of
Lie sphere nets compare against, and the per-quadruple conic cross ratio
that the batched :func:`dnet.pseudo_euclidean.conic_cross_ratio` is
checked against; the library itself needs none of them.
"""

import numpy as np

from dnet.errors import DegeneracyError
from dnet.pseudo_euclidean import line_distance


def orthogonality_residual(M, signature) -> float:
    """Max |(Mv, Mw) - (v, w)| over 8 random unit probes."""
    rng = np.random.default_rng(11)
    d = signature.dim
    v = rng.standard_normal((8, d))
    w = rng.standard_normal((8, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    ip = signature.inner
    res = ip(v @ M.T, w @ M.T) - ip(v, w)
    return float(np.abs(res).max())


def plane_distance(span1, span2) -> float:
    """Sine of the largest principal angle between two 2-planes, given
    as pairs of spanning vectors.  Computed through the projection
    residual, which stays accurate near zero."""
    M1 = np.stack(span1, axis=1)
    M2 = np.stack(span2, axis=1)
    Q1 = np.linalg.qr(M1)[0]
    Q2 = np.linalg.qr(M2)[0]
    R = Q2 - Q1 @ (Q1.T @ Q2)
    return float(np.linalg.norm(R, 2))


# relative agreement of dnet.pseudo_euclidean.conic_cross_ratio with
# conic_cross_ratio below, which may project from another fifth conic point
CROSS_RATIO_TOL = 1e-10


def projective_cross_ratio(p1, p2, p3, p4) -> float:
    """Cross ratio of four points of a projective line in 2-vector
    homogeneous coordinates:

        cr = (|p1 p2| |p3 p4|) / (|p2 p3| |p4 p1|),

    which reduces to ((z1-z2)(z3-z4)) / ((z2-z3)(z4-z1)) in an affine
    chart.
    """
    def det(a, b):
        return a[0] * b[1] - a[1] * b[0]

    den = det(p2, p3) * det(p4, p1)
    if den == 0:
        raise DegeneracyError("cross ratio undefined: coincident points")
    return float(det(p1, p2) * det(p3, p4) / den)


def conic_cross_ratio(mu, signature, rng=None) -> float:
    """Cross ratio of four null lines lying on a common conic, one
    quadruple at a time.

    ``mu`` is a (4, d) array of null representatives spanning a 3-space
    E; the four lines lie on the conic cut out by the inner product on
    P(E).  The value is computed by projecting from a fifth point of the
    conic onto a complement of it, through an SVD, which is independent
    of the choice by Chasles' theorem.
    """
    mu = np.asarray(mu, float)
    if mu.shape[0] != 4:
        raise ValueError("conic cross ratio needs exactly four points")
    U, sv, _ = np.linalg.svd(mu.T, full_matrices=False)
    if sv[2] <= 1e-10 * sv[0]:
        raise DegeneracyError("the four points do not span a plane in P(V)")
    E = U[:, :3]                     # ambient basis of the 3-space
    coords = mu @ E                  # (4, 3) coordinates in E
    gram = E.T @ (signature.signs[:, None] * E)
    rng = np.random.default_rng(2718) if rng is None else rng

    def ip(u, v):
        return float(u @ gram @ v)

    # fifth conic point: c1 + t c2 + u c3 is null for
    # u = -t (c1,c2) / ((c1,c3) + t (c2,c3)), exactly.
    c1, c2, c3 = coords[0], coords[1], coords[2]
    t_candidates = [1.0, -1.0, 0.5, -0.5, 2.0] + list(rng.standard_normal(16))
    for t in t_candidates:
        den = ip(c1, c3) + t * ip(c2, c3)
        if abs(den) < 1e-12:
            continue
        u = -t * ip(c1, c2) / den
        v = c1 + t * c2 + u * c3
        nv = np.linalg.norm(v)
        if nv < 1e-10:
            continue
        v /= nv
        if min(line_distance(v, c) for c in coords) < 1e-6:
            continue
        comp = np.linalg.svd(v[None, :])[2][1:]   # (2, 3) complement of v
        pts = coords @ comp.T                      # quotient 2-vector coords
        try:
            return projective_cross_ratio(pts[0], pts[1], pts[2], pts[3])
        except DegeneracyError:
            continue
    raise DegeneracyError("no admissible projection point found on the conic")
