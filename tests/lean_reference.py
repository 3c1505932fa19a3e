"""The kernels a 64x64 net passes through, as they were before they were
made lean.

Each builds the full-size temporaries the library no longer builds:
:func:`holonomy` gathers four ``(nquads, k, k)`` transports at once,
:func:`flat_connection` copies the eigen transports of every finite edge
into a second ``(nedges, d, d)`` array, :func:`eta` is the packed 1-form
``IsothermicNet`` used to store, and :func:`wedge_one_forms` holds the
eight gathered edge values of the quarter formula together.  The
isothermic verify path is here unblocked as well:
:func:`isothermic_arrays` gathers the lifts of every edge's ends at once,
:func:`validate` gathers ``mu[grid.corners()]`` and recomputes every edge
product in :func:`margins`, and :func:`connection_flatness` builds the
whole Gamma(t) before it reduces its holonomy to one number.  The
construction path after ``flat_connection`` is here unblocked too:
:func:`trivialize_connection` checks and walks a whole Gamma(t),
:func:`christoffel_dual` builds the whole ``d x_dual`` and its quad
sums, and :func:`family_validate` and :func:`check_osystem` take the
edge differences of every member and of the assembled map at once.  The
bit-identity tests compare the library against them.
"""

import numpy as np

from dnet.errors import (ClosednessError, DegeneracyError, FlatnessError,
                         SpectralCollisionError)
from dnet.forms import BilinearRule, Form1, lam2_dim, unpack_bivector, wedge_vec
from dnet.grid import integrate_one_form
from dnet.isothermic import INF_LABEL_THRESHOLD, ChristoffelData, IsothermicNet
from dnet.pseudo_euclidean import action_matrix, gamma_lambda, stereo_project
from dnet.residuals import cos_angle, rel, sin_angle, worst


def holonomy(grid, gamma):
    qe = grid.sides()
    lhs = gamma[qe[:, 1]] @ gamma[qe[:, 0]]   # i -> j -> k
    rhs = gamma[qe[:, 2]] @ gamma[qe[:, 3]]   # i -> l -> k
    return rel(np.linalg.norm(lhs - rhs, axis=(1, 2)), np.linalg.norm(lhs, axis=(1, 2)))


def eta(net):
    t, h = net.grid.edge_tail, net.grid.edge_head
    return wedge_vec(net.mu[h], net.mu[t])


def flat_connection(net, t):
    g, sig, d = net.grid, net.signature, net.signature.dim
    inf = net.is_infinite
    fin = np.flatnonzero(~inf)
    gap = np.abs(net.labels[fin] - t)
    if t != 0.0 and fin.size and gap.min() <= 1e-8 * max(1.0, abs(t)):
        e = int(fin[np.argmin(gap)])
        raise SpectralCollisionError(f"t = {t} collides with edge label {net.labels[e]}",
                                     where=g.locate_edge(e))
    out = np.empty((g.nedges, d, d))
    out[inf] = np.eye(d) + t * action_matrix(unpack_bivector(eta(net)[inf], d), sig)
    try:
        out[fin] = np.eye(d) if t == 0.0 else gamma_lambda(
            (net.mu[g.edge_tail[fin]], net.mu[g.edge_head[fin]]), 1.0 - t / net.labels[fin], sig)
    except DegeneracyError as err:
        err.where = g.locate_edge(int(fin[err.where]))
        raise
    return out


def wedge_one_forms(a, b, rule):
    """The quad values of the product of two 1-forms."""
    qe = a.grid.sides()
    a_b, a_r, a_t, a_l = (a.values[qe[:, n]] for n in range(4))
    b_b, b_r, b_t, b_l = (b.values[qe[:, n]] for n in range(4))
    return 0.25 * (rule(a_b + a_t, b_l + b_r) - rule(a_l + a_r, b_b + b_t))


def isothermic_arrays(grid, signature, mu):
    """The edge inner products, isotropic-edge mask and labels of
    ``IsothermicNet``."""
    mt, mh = mu[grid.edge_tail], mu[grid.edge_head]
    edge_ip = signature.inner(mt, mh)
    scale = np.linalg.norm(mt, axis=1) * np.linalg.norm(mh, axis=1)
    is_infinite = np.abs(edge_ip) <= INF_LABEL_THRESHOLD * scale
    with np.errstate(divide="ignore"):
        labels = np.where(is_infinite, np.inf, 1.0 / np.where(is_infinite, 1.0, edge_ip))
    return edge_ip, is_infinite, labels


def margins(grid, signature, mu):
    """Edge, diagonal and opposite-label margins of a batch of lifts
    ``(n, nverts, d)``."""
    ip = signature.inner
    t, h = grid.edge_tail, grid.edge_head
    norms = np.linalg.norm(mu, axis=-1)
    edge_ip = ip(mu[:, t], mu[:, h])
    edge = cos_angle(edge_ip, norms[:, t], norms[:, h]).min(axis=1, initial=np.inf)
    if grid.nquads == 0:
        return edge, np.zeros(len(mu)), np.zeros(len(mu))
    qv = grid.corners()
    mq, nq = mu[:, qv], norms[:, qv]
    diag = cos_angle(ip(mq[:, :, :2], mq[:, :, 2:]),                 # (i, k), (j, l)
                     nq[:, :, :2], nq[:, :, 2:]).min(axis=(1, 2))
    ips = edge_ip[:, grid.sides()]                                  # ij, jk, lk, il
    opp = rel(np.abs(ips[..., 0] - ips[..., 3]), np.abs(ips).max(axis=2)).min(axis=1)
    return edge, diag, opp


def validate(net, margin=1e-6):
    """``IsothermicNet.validate``."""
    g, sig, mu = net.grid, net.signature, net.mu
    nullity = float(np.abs(rel(sig.norm2(mu), np.sum(mu * mu, axis=1))).max())
    mq = mu[g.corners()]                        # (nquads, 4, dim): i, j, k, l
    moutard, quad = worst(sin_angle(mq[:, 2] - mq[:, 0], mq[:, 3] - mq[:, 1]))
    ips = net.edge_ip[g.sides()]                # ij, jk, lk, il
    label_rel = float(rel(np.maximum(np.abs(ips[:, 0] - ips[:, 2]),
                                     np.abs(ips[:, 3] - ips[:, 1])),
                          np.abs(ips).max(axis=1)).max(initial=0.0))
    _, diag, opp_margin = (float(m[0]) for m in margins(g, sig, mu[None]))
    return {
        "nullity": nullity, "moutard": moutard,
        "worst_quad": None if quad is None else g.locate_quad(quad),
        "label_relations": label_rel,
        "opposite_label_margin": opp_margin,
        "diagonal_margin": diag,
        "passed": bool(nullity <= 1e-10 and moutard <= 1e-10
                       and label_rel <= 1e-9
                       and (g.nquads == 0 or (opp_margin >= margin and diag >= margin))),
    }


def connection_flatness(net, t):
    """``(value, quad)`` of the max relative quad holonomy of Gamma(t)."""
    return worst(holonomy(net.grid, flat_connection(net, t)))


# -- the construction path after flat_connection ------------------------

def trivialize_connection(grid, gamma):
    """``trivialize_connection`` of a whole ``(nedges, k, k)`` Gamma."""
    res, q = worst(holonomy(grid, gamma))
    if not res <= 1e-7:
        raise FlatnessError(f"connection is not flat: quad residual {res:.3e} > {1e-7:.1e}",
                            where=grid.locate_quad(q), residual=res)
    k = gamma.shape[1]
    T = np.empty((grid.nverts, k, k))
    T[0] = np.eye(k)
    for child, parent, slot in grid.staircase_tree():
        T[child] = T[parent] @ np.linalg.inv(gamma[slot])
    return T


def calapso_transform(net, t):
    """``calapso_transform`` through a whole Gamma(t)."""
    T = trivialize_connection(net.grid, flat_connection(net, t))
    mu_t = np.einsum("nab,nb->na", T, net.mu)
    return IsothermicNet(net.grid, net.signature, mu_t), T


def christoffel_dual(net, frame=None):
    """``christoffel_dual`` with the whole ``d x_dual`` and its quad sums."""
    frame = net.signature.standard_frame() if frame is None else frame
    g, ip = net.grid, net.signature.inner
    mt, mh = net.mu[g.edge_tail], net.mu[g.edge_head]
    dxd = frame.pi(ip(mh, frame.q)[:, None] * mt - ip(mt, frame.q)[:, None] * mh)
    qe = g.sides()
    num, q = worst(np.linalg.norm(dxd[qe[:, 0]] + dxd[qe[:, 1]] - dxd[qe[:, 2]]
                                  - dxd[qe[:, 3]], axis=-1))
    res = num / max(float(np.abs(dxd).max(initial=0.0)), 1.0)
    if not res <= 1e-8:
        raise ClosednessError(f"one-form is not closed: quad residual {res:.3e} > {1e-8:.1e}",
                              where=g.locate_quad(q), residual=res)
    xd = integrate_one_form(g, dxd, check_closed=False)
    return ChristoffelData(x=stereo_project(net.mu, frame), x_dual=xd,
                           r=-ip(net.mu, frame.q))


def family_validate(fam):
    """``ParallelFamily.validate`` over the whole grid."""
    g = fam.grid
    diffs = np.stack([m[g.edge_head] - m[g.edge_tail] for m in fam.members])
    norms = np.linalg.norm(diffs, axis=2)
    scale = norms.max(initial=0.0)
    active = norms > 1e-12 * max(scale, 1.0)
    first = np.argmax(active, axis=0)
    a, e = np.nonzero(active & (np.arange(fam.size)[:, None] > first))
    worst_sin = float(sin_angle(diffs[a, e], diffs[first[e], e]).max(initial=0.0))
    phi = fam.phi()
    sv = np.linalg.svd(phi[g.edge_head] - phi[g.edge_tail], compute_uv=False)
    live = sv[:, 0] > 1e-12
    minor = float((sv[live, 1] / sv[live, 0]).max(initial=0.0))
    return {"edge_parallel": worst_sin, "dphi_decomposable": minor,
            "passed": bool(worst_sin <= 1e-9 and minor <= 1e-9)}


def check_osystem(fam, metric):
    """``check_osystem`` over the whole grid: the weighted curly-wedge sum
    and the bracket of every quad at once."""
    metric = np.asarray(metric, float)
    N, g, d = fam.size, fam.grid, fam.signature.dim
    if metric.shape != (N, N):
        raise ValueError("metric shape must match the family size")
    if np.abs(metric - metric.T).max(initial=0.0) > 1e-14:
        raise ValueError("metric must be symmetric")
    signs = fam.signature.signs
    dxs = [Form1(g, m[g.edge_head] - m[g.edge_tail]) for m in fam.members]
    curly = BilinearRule.wedge_product(d)
    weighted = np.zeros((g.nquads, lam2_dim(d)))
    for a in range(N):
        for b in range(N):
            if metric[a, b] != 0.0:
                weighted += metric[a, b] * wedge_one_forms(dxs[a], dxs[b], curly)

    def bracket(u, v):
        A, B = u.reshape(-1, d, N), v.reshape(-1, d, N)
        amb = np.einsum("nxa,ab,nyb->nxy", A, metric, B)
        amb = amb - np.swapaxes(amb, 1, 2)
        wpart = np.einsum("nxa,nxb->nab", A * signs[None, :, None], B)
        wpart = wpart - np.swapaxes(wpart, 1, 2)
        ia, ib = np.triu_indices(d, k=1)
        ja, jb = np.triu_indices(N, k=1)
        return np.concatenate([amb[:, ia, ib], wpart[:, ja, jb]], axis=1)

    rule = BilinearRule(bracket, d * N, d * N, lam2_dim(d) + lam2_dim(N), "custom")
    phi = fam.phi().reshape(g.nverts, d * N)
    dphi = Form1(g, phi[g.edge_head] - phi[g.edge_tail])
    full = wedge_one_forms(dphi, dphi, rule)
    scale = float(np.abs(dphi.values).max(initial=0.0)) ** 2
    equality = rel(float(np.abs(full[:, :lam2_dim(d)] - weighted).max(initial=0.0)), scale)
    vanish = rel(float(np.abs(full).max(initial=0.0)), scale)
    return {"characterization_equality": equality, "bracket_vanishes": vanish,
            "passed": bool(equality <= 1e-11 and vanish <= 1e-9)}
