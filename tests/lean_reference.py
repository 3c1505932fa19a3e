"""The kernels a 64x64 net passes through, as they were before they were
made lean.

Each builds the full-size temporaries the library no longer builds:
:func:`holonomy` gathers four ``(nquads, k, k)`` transports at once,
:func:`flat_connection` copies the eigen transports of every finite edge
into a second ``(nedges, d, d)`` array, :func:`eta` is the packed 1-form
``IsothermicNet`` used to store, and :func:`wedge_one_forms` holds the
eight gathered edge values of the quarter formula together.  The
bit-identity tests compare the library against them.
"""

import numpy as np

from dnet.errors import DegeneracyError, SpectralCollisionError
from dnet.forms import unpack_bivector, wedge_vec
from dnet.pseudo_euclidean import action_matrix, gamma_lambda
from dnet.residuals import rel


def holonomy(grid, gamma):
    qe = grid.quad_edges
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
            net.mu[g.edge_tail[fin]], net.mu[g.edge_head[fin]], 1.0 - t / net.labels[fin], sig)
    except DegeneracyError as err:
        err.where = g.locate_edge(int(fin[err.where]))
        raise
    return out


def wedge_one_forms(a, b, rule):
    """The quad values of the product of two 1-forms."""
    qe = a.grid.quad_edges
    a_b, a_r, a_t, a_l = (a.values[qe[:, n]] for n in range(4))
    b_b, b_r, b_t, b_l = (b.values[qe[:, n]] for n in range(4))
    return 0.25 * (rule(a_b + a_t, b_l + b_r) - rule(a_l + a_r, b_b + b_t))
