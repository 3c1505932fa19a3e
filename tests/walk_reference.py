"""Per-vertex reference versions of the staircase walks.

These are the walks the library ran before its spanning tree came in
levels: the tree as one ordered list of steps, built with ``sorted``,
and one Python step per vertex.  The level-by-level walks must give the
same arrays bit for bit and fail on the same edge.

Two Koenigs walks also changed their arithmetic when they were batched:
``moutard_lift_from_eta`` sums its inner products with ``np.add.reduce``
where it took BLAS dots, and the edge map ``g`` solves its last
2-column system with ``pinv`` where it called ``lstsq``.  Their
references keep the old arithmetic (``g_map``, ``g_map_inverse`` and
the default ``dot`` below), to be met within a stated bound; given the
library's arithmetic (``dot=row_dot``, ``library_g_map`` and
``library_g_map_inverse``) they isolate the batching, to be met bit for
bit.
"""

import numpy as np

from dnet.errors import DegeneracyError, NotKoenigsError, PropagationError
from dnet.forms import unpack_bivector, wedge_vec
from dnet.koenigs import (_g_map_inverses, _g_maps, _plane_intersection, _raise_g_map,
                          _span_of_bivector, _trivector)
from netfile_reference import oriented_edge, plane_basis, raise_first


def staircase_steps(grid, base=0):
    """Steps ``(vertex, parent, edge_slot, step_sign)``, parents first."""
    coords = grid.coordinates(np.arange(grid.nverts))
    slots = grid.slot(np.arange(grid.nverts)[:, None], np.arange(grid.ndim))
    bc = coords[base]
    order = sorted(range(grid.nverts), key=lambda v: tuple(
        abs(int(coords[v][a]) - int(bc[a])) for a in range(grid.ndim - 1, -1, -1)))
    steps = []
    for v in order:
        if v == base:
            continue
        vc = coords[v]
        a = max(ax for ax in range(grid.ndim) if vc[ax] != bc[ax])
        if vc[a] > bc[a]:
            parent = v - int(grid.strides[a])
            steps.append((v, parent, int(slots[parent, a]), 1))
        else:
            parent = v + int(grid.strides[a])
            steps.append((v, parent, int(slots[v, a]), -1))
    return steps


def integrate_one_form(grid, values, base=0, seed=None):
    out = np.zeros((grid.nverts, values.shape[1]))
    out[base] = 0.0 if seed is None else np.asarray(seed, float)
    for v, parent, slot, sign in staircase_steps(grid, base):
        out[v] = out[parent] + sign * values[slot]
    return out


def trivialize_connection(grid, gamma, base=0):
    k = gamma.shape[1]
    T = np.empty((grid.nverts, k, k))
    T[base] = np.eye(k)
    for v, parent, slot, sign in staircase_steps(grid, base):
        step = gamma[slot] if sign > 0 else np.linalg.inv(gamma[slot])
        T[v] = T[parent] @ np.linalg.inv(step)
    return T


def darboux_march(net, m, hat0, base=0, min_denom=1e-12):
    """The nullity-forced Darboux propagation from ``hat0`` at the base."""
    g, ip = net.grid, net.signature.inner
    hat = np.zeros_like(net.mu)
    hat[base] = hat0
    for v, parent, slot, sign in staircase_steps(g, base):
        mi, mj = net.mu[parent], net.mu[v]
        denom = float(ip(hat[parent], mj))
        if abs(denom) <= min_denom * max(np.linalg.norm(hat[parent]) * np.linalg.norm(mj), 1e-300):
            raise PropagationError("Darboux propagation degenerate", where=g.locate_edge(slot))
        c = float(ip(mi, hat[parent] - mj)) / denom
        val = mi + c * (hat[parent] - mj)
        if not np.isinf(m):
            cur = float(ip(net.mu[v], val))
            if abs(cur) <= min_denom:
                raise PropagationError("Darboux normalization degenerate",
                                       where=g.locate_edge(slot))
            val = val / (m * cur)
        hat[v] = val
    return hat


def row_dot(u, v):
    """The inner product as the level walk of ``moutard_lift_from_eta``
    takes it, one ``np.add.reduce`` sum."""
    return np.add.reduce(u * v)


def moutard_lift_from_eta(net, seed, base=0, tol=1e-8, dot=np.dot):
    """The tree walk of ``moutard_lift_from_eta``, without the check on
    the edges off the tree; ``dot`` takes its inner products."""
    g = net.grid
    mu = np.zeros_like(net.lifts)
    mu[base] = seed
    for v, parent, slot, sign in staircase_steps(g, base):
        eta_vp = sign * net.eta[slot]
        w = wedge_vec(net.lifts[v], mu[parent])
        ww = float(dot(w, w))
        if ww <= 1e-300:
            raise DegeneracyError("coincident lines on an edge", where=g.locate_edge(slot))
        coef = float(dot(eta_vp, w)) / ww
        rest = eta_vp - coef * w
        resid = np.sqrt(dot(rest, rest))
        if resid > tol * max(np.sqrt(dot(eta_vp, eta_vp)), 1e-300):
            raise NotKoenigsError("eta is not supported on the edge line pair",
                                  where=g.locate_edge(slot), residual=float(resid))
        mu[v] = coef * net.lifts[v]
    return mu


def eta_on(cong, tail, head):
    """The congruence's eta on the edge oriented ``tail -> head``."""
    e = oriented_edge(cong.grid, tail, head)
    return e.sign * cong.eta[e.index]


def g_map(cong, from_v, to_v, point):
    """The edge map ``g`` with its final system solved by ``lstsq``."""
    t_coef, r_coef = float(point[0]), float(point[1])
    if t_coef == 0.0 and r_coef == 0.0:
        raise ValueError("(tau, r) must not both vanish")
    eta_val = eta_on(cong, to_v, from_v)
    W = r_coef * eta_val + t_coef * wedge_vec(cong.sigma1[from_v], cong.sigma2[from_v])
    span, failures = _span_of_bivector(unpack_bivector(W, cong.dim))
    raise_first(failures)
    v, failures = _plane_intersection(span, plane_basis(cong, to_v))
    raise_first(failures)
    coords, *_ = np.linalg.lstsq(
        np.stack([cong.sigma1[to_v], cong.sigma2[to_v]], axis=1), v, rcond=None)
    return coords


def g_map_inverse(cong, from_v, to_v, line_coords):
    """The inverse edge map, one ``svd`` per edge."""
    a, b = float(line_coords[0]), float(line_coords[1])
    v = a * cong.sigma1[from_v] + b * cong.sigma2[from_v]
    eta_val = eta_on(cong, from_v, to_v)
    col_r = _trivector(unpack_bivector(eta_val, cong.dim), v)
    col_t = _trivector(unpack_bivector(wedge_vec(cong.sigma1[to_v], cong.sigma2[to_v]),
                                       cong.dim), v)
    _, _, Vt = np.linalg.svd(np.stack([col_r, col_t], axis=1), full_matrices=False)
    r_coef, t_coef = Vt[-1]
    return np.array([t_coef, r_coef])


def library_g_map(cong, from_v, to_v, point):
    """The library's edge map ``koenigs._g_maps`` on one edge."""
    coords, failures = _g_maps(cong, eta_on(cong, to_v, from_v)[None], np.array([from_v]),
                               np.array([to_v]), np.asarray(point, float)[None])
    _raise_g_map(failures)
    return coords[0]


def library_g_map_inverse(cong, from_v, to_v, line_coords):
    """The library's inverse edge map ``koenigs._g_map_inverses`` on one edge."""
    return _g_map_inverses(cong, eta_on(cong, from_v, to_v)[None], np.array([from_v]),
                           np.array([to_v]), np.asarray(line_coords, float)[None])[0]


def parallel_section(cong, colors, bundle_black, base, seed2, maps=(g_map, g_map_inverse)):
    """The walk of ``_parallel_section`` with the edge maps ``maps``."""
    out = np.zeros((cong.grid.nverts, 2))
    out[base] = seed2
    line_at = 0 if bundle_black else 1
    for v, parent, _, _ in staircase_steps(cong.grid, base):
        step = maps[0] if colors[v] == line_at else maps[1]
        out[v] = step(cong, parent, v, out[parent])
    return out


def factor_edge_ratios(grid, lam):
    """``(r, quad_product_residual)`` of ``factor_edge_ratios``."""
    quad_res = 0.0
    for eb, er, et, el in grid.sides():
        quad_res = max(quad_res, abs(lam[eb] * lam[et] / (lam[er] * lam[el]) - 1.0))
    r = np.zeros(grid.nverts)
    steps = staircase_steps(grid, 0)
    r[0] = np.sqrt(abs(lam[steps[0][2]])) if steps else 1.0
    for v, parent, slot, _ in steps:
        r[v] = lam[slot] / r[parent]
    return r, quad_res
