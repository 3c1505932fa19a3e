"""Per-cell reference versions of the batched isothermic kernels.

These are the loop formulas the library used before its kernels were
batched: one quad, edge or vertex pair at a time, in row-major order.
The equivalence tests compare the library against them.
"""

import numpy as np

from dnet.errors import DegeneracyError, EvolutionError
from dnet.forms import unpack_bivector, wedge_vec
from dnet.pseudo_euclidean import action_matrix, renull


def evolve_quad(sig, mi, mj, ml, locate=None, min_diag=1e-12):
    """The fourth vertex of one quad from the Moutard evolution rule."""
    denom = float(sig.inner(ml, mj))
    scale = float(np.linalg.norm(ml) * np.linalg.norm(mj))
    if abs(denom) <= min_diag * max(scale, 1e-300):
        raise EvolutionError("isotropic diagonal: Moutard evolution degenerate",
                             where=locate, residual=abs(denom))
    c = float(sig.inner(mi, ml - mj)) / denom
    return mi + c * (ml - mj)


def moutard_evolve_mu(grid, sig, line0, line1, frame=None):
    """Lifts of the Cauchy evolution, filled quad by quad in row order."""
    d0, d1 = grid.dims
    mu = np.zeros((grid.nverts, sig.dim))
    for a in range(d0):
        mu[np.ravel_multi_index((a, 0), grid.dims)] = line0[a]
    for b in range(d1):
        mu[np.ravel_multi_index((0, b), grid.dims)] = line1[b]
    for a in range(1, d0):
        for b in range(1, d1):
            vi = np.ravel_multi_index((a - 1, b - 1), grid.dims)
            vj = np.ravel_multi_index((a, b - 1), grid.dims)
            vl = np.ravel_multi_index((a - 1, b), grid.dims)
            vk = np.ravel_multi_index((a, b), grid.dims)
            new = evolve_quad(sig, mu[vi], mu[vj], mu[vl],
                              {"kind": "quad", "corner": (a - 1, b - 1)})
            mu[vk] = renull(new, frame) if frame is not None else new
    return mu


def validate(net, tol_null=1e-10, tol_moutard=1e-10, tol_labels=1e-9, margin=1e-6):
    """The isothermic invariant suite, one quad at a time."""
    g, sig = net.grid, net.signature
    out = {}
    scale2 = np.maximum(np.sum(net.mu * net.mu, axis=1), 1e-300)
    out["nullity"] = float(np.abs(sig.norm2(net.mu) / scale2).max())
    qv = g.corners()
    moutard, label_rel, opp_margin, diag = 0.0, 0.0, np.inf, np.inf
    worst_quad = None
    ip = sig.inner
    ni = np.linalg.norm
    for n in range(g.nquads):
        i, j, k, l = qv[n]
        d1, d2 = net.mu[k] - net.mu[i], net.mu[l] - net.mu[j]
        w = wedge_vec(d1, d2)
        s = max(ni(d1) * ni(d2), 1e-300)
        res = float(ni(w) / s)
        if res > moutard:
            moutard, worst_quad = res, n
        ij, kl = ip(net.mu[i], net.mu[j]), ip(net.mu[k], net.mu[l])
        il, jk = ip(net.mu[i], net.mu[l]), ip(net.mu[j], net.mu[k])
        s0 = max(abs(ij), abs(kl), abs(il), abs(jk), 1e-300)
        label_rel = max(label_rel, abs(ij - kl) / s0, abs(il - jk) / s0)
        opp_margin = min(opp_margin, abs(ij - il) / s0)
        diag = min(diag,
                   abs(ip(net.mu[i], net.mu[k])) / max(ni(net.mu[i]) * ni(net.mu[k]), 1e-300),
                   abs(ip(net.mu[j], net.mu[l])) / max(ni(net.mu[j]) * ni(net.mu[l]), 1e-300))
    out["moutard"] = moutard
    out["worst_quad"] = None if worst_quad is None else g.locate_quad(worst_quad)
    out["label_relations"] = label_rel
    out["opposite_label_margin"] = 0.0 if g.nquads == 0 else float(opp_margin)
    out["diagonal_margin"] = 0.0 if g.nquads == 0 else float(diag)
    out["passed"] = bool(
        out["nullity"] <= tol_null and moutard <= tol_moutard
        and label_rel <= tol_labels
        and (g.nquads == 0 or (opp_margin >= margin and diag >= margin)))
    return out


def gamma_lambda(s_i, s_j, lam, sig, tol=1e-10):
    """The eigen transport of one pair of null lines."""
    si = np.asarray(s_i, float)
    sj = np.asarray(s_j, float)
    g = float(sig.inner(si, sj))
    if abs(g) <= tol * max(float(np.linalg.norm(si) * np.linalg.norm(sj)), 1e-300):
        raise DegeneracyError("null lines are orthogonal: eigen transport undefined")
    gsi = si * sig.signs
    gsj = sj * sig.signs
    return (np.eye(sig.dim)
            + ((lam - 1.0) / g) * np.outer(sj, gsi)
            + ((1.0 / lam - 1.0) / g) * np.outer(si, gsj))


def transport_scale(net, t, edges):
    """Entrywise ``1 + |c1 s_j (G s_i)^T| + |c2 s_i (G s_j)^T|``: the size of
    the terms that the eigen transports of Gamma(t) on ``edges`` sum, to
    which their rounding errors are relative."""
    g, sig = net.grid, net.signature
    si, sj = net.mu[g.edge_tail[edges]], net.mu[g.edge_head[edges]]
    lam = (1.0 - t / net.labels[edges])[:, None, None]
    ip = sig.inner(si, sj)[:, None, None]
    return (np.eye(sig.dim) + np.abs((lam - 1.0) / ip * np.einsum("na,nb->nab", sj, si))
            + np.abs((1.0 / lam - 1.0) / ip * np.einsum("na,nb->nab", si, sj)))


def flat_connection(net, t):
    """The transports of Gamma(t), one edge at a time."""
    g, sig = net.grid, net.signature
    d = sig.dim
    out = np.empty((g.nedges, d, d))
    for e in range(g.nedges):
        tail, head = int(g.edge_tail[e]), int(g.edge_head[e])
        if net.is_infinite[e]:
            out[e] = np.eye(d) + t * action_matrix(unpack_bivector(net.eta[e], d), sig)
        elif t == 0.0:
            out[e] = np.eye(d)
        else:
            lam = 1.0 - t / float(net.labels[e])
            out[e] = gamma_lambda(net.mu[tail], net.mu[head], lam, sig)
    return out
