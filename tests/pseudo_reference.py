"""Distances and residuals that tests of pseudo-Euclidean maps and of
Lie sphere nets compare against; the library itself needs none of them.
"""

import numpy as np


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
