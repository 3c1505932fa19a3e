"""Per-element reference versions of loops the library now runs batched.

These are the loops as they were before: one ``svd``, one wedge or one
vertex at a time.  Where the batched code does the same arithmetic the
tests require equal results; where a norm became a row reduction
instead of a single-vector dot, a tolerance of a few ulps.
"""

import numpy as np

from dnet.errors import SeedDegeneracyError
from dnet.forms import unpack_bivector, wedge_vec
from dnet.grid import Grid
from dnet.isothermic import IsothermicNet, flat_connection
from dnet.pseudo_euclidean import Signature, action_matrix, line_distance, stereo_lift
from generator_reference import intersection_line


def circularity(points, quad_vertices):
    """Worst ``sv[3] / sv[0]`` over the quads of lifted points."""
    worst = 0.0
    for quad in quad_vertices:
        sv = np.linalg.svd(points[quad], compute_uv=False)
        worst = max(worst, float(sv[3] / max(sv[0], 1e-300)))
    return worst


def span_margin(grid, mu_plus, mu_minus):
    """The stacked regularity margin of ``km_pair_check``."""
    t, h = grid.edge_tail, grid.edge_head
    margin = np.inf
    for e in range(grid.nedges):
        sv = np.linalg.svd(np.stack([mu_plus[t[e]], mu_plus[h[e]], mu_minus[h[e]],
                                     mu_minus[t[e]]]), compute_uv=False)
        margin = min(margin, float(sv[2] / max(sv[0], 1e-300)))
    return margin


def family_validate(fam, floor=1e-12):
    """``edge_parallel`` and ``dphi_decomposable`` of ``ParallelFamily.validate``."""
    t, h = fam.grid.edge_tail, fam.grid.edge_head
    diffs = np.stack([m[h] - m[t] for m in fam.members])
    norms = np.linalg.norm(diffs, axis=2)
    active = norms > floor * max(norms.max(initial=0.0), 1.0)
    worst = 0.0
    for e in range(fam.grid.nedges):
        live = [a for a in range(fam.size) if active[a, e]]
        if len(live) < 2:
            continue
        ref = diffs[live[0], e]
        for a in live[1:]:
            w = wedge_vec(diffs[a, e], ref)
            worst = max(worst, float(np.linalg.norm(w) / (np.linalg.norm(diffs[a, e])
                                                          * np.linalg.norm(ref))))
    phi = fam.phi()
    dphi = phi[fam.grid.edge_head] - phi[fam.grid.edge_tail]
    minor = 0.0
    for e in range(fam.grid.nedges):
        sv = np.linalg.svd(dphi[e], compute_uv=False)
        if sv[0] > floor:
            minor = max(minor, float(sv[1] / sv[0]))
    return worst, minor


def dual_edge_parallel(fam):
    """``dual_edge_parallel`` of ``dual_family``."""
    phi = fam.phi()
    duals = [phi[:, m, :] for m in range(fam.signature.dim)]
    t, h = fam.grid.edge_tail, fam.grid.edge_head
    worst = 0.0
    for e in range(fam.grid.nedges):
        dvs = [y[h[e]] - y[t[e]] for y in duals]
        norms = [np.linalg.norm(v) for v in dvs]
        if max(norms, default=0.0) <= 1e-14:
            continue
        ref = dvs[int(np.argmax(norms))]
        for v, nv in zip(dvs, norms):
            if nv <= 1e-12 * max(norms):
                continue
            w = wedge_vec(v, ref)
            worst = max(worst, float(np.linalg.norm(w) / (nv * np.linalg.norm(ref))))
    return worst


def gauge_identity_residual(omega, t):
    sig = omega.signature
    plus = IsothermicNet(omega.grid, sig, omega.mu_plus)
    minus = IsothermicNet(omega.grid, sig, omega.mu_minus)
    tau = wedge_vec(omega.mu_minus, omega.mu_plus)
    gp, gm = flat_connection(plus, t), flat_connection(minus, t)
    g, eye, worst = omega.grid, np.eye(sig.dim), 0.0
    for e in range(g.nedges):
        tl, hd = int(g.edge_tail[e]), int(g.edge_head[e])
        Eh = eye + t * action_matrix(unpack_bivector(tau[hd], sig.dim), sig)
        Et_inv = eye - t * action_matrix(unpack_bivector(tau[tl], sig.dim), sig)
        lhs = Eh @ gp[e] @ Et_inv
        worst = max(worst, float(np.abs(lhs - gm[e]).max() / max(np.abs(gm[e]).max(), 1e-300)))
    return worst


def sphere_points(dims, radius, center, theta_range=(0.6, 2.1), phi_range=(0.4, 2.3)):
    g = Grid(dims)
    thetas, phis = np.linspace(*theta_range, dims[0]), np.linspace(*phi_range, dims[1])
    x = np.zeros((g.nverts, 3))
    for a in range(dims[0]):
        for b in range(dims[1]):
            th, ph = thetas[a], phis[b]
            pnt = radius * np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                                     np.cos(th)])
            x[np.ravel_multi_index((a, b), g.dims)] = np.asarray(center, float) + pnt
    return x


def section_to_net(cong, colors, xb, xw, margin):
    """``koenigs._section_to_net`` one vertex and one edge at a time."""
    g = cong.grid
    lifts = np.zeros_like(cong.sigma1)
    tau = np.zeros((g.nverts, cong.eta.shape[1]))
    for v in range(g.nverts):
        line2 = xb[v] if colors[v] == 0 else xw[v]
        t_coef, r_coef = xw[v] if colors[v] == 0 else xb[v]
        lifts[v] = line2[0] * cong.sigma1[v] + line2[1] * cong.sigma2[v]
        n = np.linalg.norm(lifts[v])
        if n < 1e-12:
            raise SeedDegeneracyError("section degenerated to zero", where=v)
        lifts[v] /= n
        if abs(r_coef) <= margin * max(abs(t_coef), 1e-300):
            raise SeedDegeneracyError(
                "tau became infinite: section met an intersection line", where=v)
        tau[v] = (t_coef / r_coef) * wedge_vec(cong.sigma1[v], cong.sigma2[v])
    worst = np.inf
    for e in range(g.nedges):
        s_line = intersection_line(cong, e)
        for v in (int(g.edge_tail[e]), int(g.edge_head[e])):
            worst = min(worst, line_distance(lifts[v], s_line))
    return lifts, tau, worst


def combescure_circularity(grid, values, signature):
    """``circular_x`` of ``check_combescure``: the quads lifted into the
    light cone of R^{p+1,q+1}."""
    big = Signature(signature.p + 1, signature.q + 1)
    vals = np.zeros((grid.nverts, big.dim))
    vals[:, :signature.p] = values[:, :signature.p]
    vals[:, signature.p + 1:big.dim - 1] = values[:, signature.p:]
    return circularity(stereo_lift(vals, big.standard_frame()), grid.corners())
