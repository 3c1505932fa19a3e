"""Per-step reference versions of the batched Cauchy-data generators and
the per-edge line congruence validation.

These are the loops the library used before the generators drew their
candidate rows in blocks: one ``rng.standard_normal(d)`` row and one
scalar test per candidate, and three ``svd`` calls per edge.  The
equivalence tests compare the library against them.
"""

import numpy as np

from dnet.errors import DegeneracyError
from dnet.forms import unpack_bivector, wedge_vec
from dnet.grid import closedness_residual, integrate_one_form
from dnet.isothermic import moutard_evolve
from dnet.koenigs import _trivector, pluecker_residual
from dnet.lie_sphere import _kernel_of, _null_solve


def random_cauchy(grid, signature, rng, magnitude=0.3, frame=None,
                  timelike_factor=0.35):
    """Cauchy lines drawn one candidate row at a time."""
    frame = signature.standard_frame() if frame is None else frame
    ip = signature.inner
    d = signature.dim

    def null_step(prev):
        for _ in range(64):
            delta = magnitude * rng.standard_normal(d)
            delta = frame.pi(delta)
            if frame.p is not None:
                comp = -float(ip(delta, frame.p))
                delta = delta + (timelike_factor - 1.0) * comp * frame.p
            w = prev + delta
            wq = float(ip(w, frame.q))
            if abs(wq) < 1e-6:
                continue
            lam = -0.5 * float(ip(w, w)) / wq
            cand = w + lam * frame.q
            if abs(ip(cand, prev)) > 1e-8 * np.linalg.norm(cand) * np.linalg.norm(prev):
                return cand
        raise DegeneracyError("could not draw a regular Cauchy step")

    x0 = frame.pi(rng.standard_normal(d))
    base = frame.o + x0 + 0.5 * float(ip(x0, x0)) * frame.q
    d0, d1 = grid.dims
    line0 = np.zeros((d0, d))
    line1 = np.zeros((d1, d))
    line0[0] = line1[0] = base
    for a in range(1, d0):
        line0[a] = null_step(line0[a - 1])
    for b in range(1, d1):
        line1[b] = null_step(line1[b - 1])
    return line0, line1


def guichard_attempt(g, frame, rng, magnitude, skip_constraint_at):
    """One Guichard attempt with Cauchy steps scored one candidate at a
    time; a drop-in for ``dnet.lie_sphere._guichard_attempt``."""
    sig = frame.signature
    ip = sig.inner
    d = sig.dim
    d0, d1 = g.dims

    x0 = frame.frame.pi(rng.standard_normal(d))
    mu0 = frame.frame.o + x0 + 0.5 * float(ip(x0, x0)) * frame.q
    if abs(ip(mu0, frame.p)) < 0.05:
        raise DegeneracyError("base point sphere nearly flat")
    A = np.stack([frame.p * sig.signs, mu0 * sig.signs])
    particular, *_ = np.linalg.lstsq(A, np.array([-1.0, 0.0]), rcond=None)
    kernel = _kernel_of(sig, [frame.p, mu0])
    xi0 = _null_solve(sig, particular, kernel, rng)

    def cauchy_step(mu_prev, xi_prev, index):
        prev_norm = np.linalg.norm(mu_prev)
        for _ in range(64):
            delta = frame.frame.pi(magnitude * rng.standard_normal(d))
            w = mu_prev / prev_norm + delta
            wq = float(ip(w, frame.q))
            if abs(wq) < 1e-6:
                continue
            w = w + (-0.5 * float(ip(w, w)) / wq) * frame.q
            wp = float(ip(w, frame.p))
            wm = float(ip(mu_prev, w))
            if abs(wp) < 0.02 or abs(wm) < 1e-6:
                continue
            if skip_constraint_at is not None and index == skip_constraint_at:
                alpha = 1.0 / np.linalg.norm(w)
            else:
                alpha = -float(ip(xi_prev, w)) / (wp * wm)
            mu_next = alpha * w
            nn = np.linalg.norm(mu_next)
            if not (0.25 * prev_norm < nn < 4.0 * prev_norm) or not 0.1 < nn < 10.0:
                continue
            xi_next = (xi_prev + float(ip(mu_next, frame.p)) * mu_prev
                       - float(ip(mu_prev, frame.p)) * mu_next)
            return mu_next, xi_next
        raise DegeneracyError("Cauchy step failed")

    line0 = np.zeros((d0, d))
    line1 = np.zeros((d1, d))
    line0[0] = line1[0] = mu0
    xi_prev = xi0
    index = 0
    for a in range(1, d0):
        index += 1
        line0[a], xi_prev = cauchy_step(line0[a - 1], xi_prev, index)
    xi_prev = xi0
    for b in range(1, d1):
        index += 1
        line1[b], xi_prev = cauchy_step(line1[b - 1], xi_prev, index)

    net = moutard_evolve(g, sig, line0, line1, frame=frame.frame)
    rep = net.validate(margin=1e-5)
    t, h = g.edge_tail, g.edge_head
    etap = (ip(net.mu[h], frame.p)[:, None] * net.mu[t]
            - ip(net.mu[t], frame.p)[:, None] * net.mu[h])
    xi = integrate_one_form(g, etap, base=0, seed=xi0, check_closed=True,
                            tol=1e-8).values
    orth = np.abs(ip(xi, net.mu)) / np.maximum(
        np.linalg.norm(xi, axis=1) * np.linalg.norm(net.mu, axis=1), 1e-300)
    coeffs = np.stack([np.full(g.nverts, -1.0), 2.0 * ip(frame.p, xi),
                       ip(xi, xi)], axis=1)
    diag = {
        "orthogonality": float(orth.max(initial=0.0)),
        "orthogonality_map": orth,
        "xi_null": float(np.abs(ip(xi, xi)).max(initial=0.0)),
        "xi_p": float(np.abs(ip(xi, frame.p) + 1.0).max(initial=0.0)),
        "coefficient_dev": float(
            np.abs(coeffs - np.array([-1.0, -2.0, 0.0])).max(initial=0.0)),
        "net_valid": bool(rep["passed"]),
        "net_report": rep,
    }
    return net, xi, diag


def intersection_line(cong, e, tol=1e-6):
    """``s_ij = f_i cap f_j`` on canonical edge e, one svd at a time."""
    g = cong.grid
    t, h = int(g.edge_tail[e]), int(g.edge_head[e])
    M = np.stack([cong.sigma1[t], cong.sigma2[t], cong.sigma1[h], cong.sigma2[h]])
    _, sv, Vt = np.linalg.svd(M.T, full_matrices=False)
    if sv[2] <= tol * sv[0]:
        raise DegeneracyError("first-order regularity fails: dim f_ij < 3",
                              where=g.locate_edge(e))
    A = np.concatenate([M[:2].T, -M[2:].T], axis=1)
    _, _, Vt4 = np.linalg.svd(A)
    c = Vt4[-1]
    v = M[:2].T @ c[:2]
    n = np.linalg.norm(v)
    if n <= tol:
        raise DegeneracyError("intersection line degenerate", where=g.locate_edge(e))
    return v / n


def line_congruence_validate(cong, tol=1e-8, margin=1e-6):
    """``LineCongruence.validate`` edge by edge and quad by quad."""
    g = cong.grid
    out = {}
    out["eta_closed"], _ = closedness_residual(g, cong.eta)
    out["eta_decomposable"] = float(
        pluecker_residual(cong.eta, cong.dim).max(initial=0.0))
    membership, nondeg, first_order = 0.0, np.inf, np.inf
    s_lines = np.zeros((g.nedges, cong.dim))
    for e in range(g.nedges):
        t, h = int(g.edge_tail[e]), int(g.edge_head[e])
        M = np.stack([cong.sigma1[t], cong.sigma2[t], cong.sigma1[h], cong.sigma2[h]])
        _, sv, _ = np.linalg.svd(M.T, full_matrices=False)
        first_order = min(first_order, float(sv[2] / max(sv[0], 1e-300)))
        B = np.linalg.svd(M.T, full_matrices=False)[0][:, :3]
        basis = [wedge_vec(B[:, a], B[:, b]) for a, b in ((0, 1), (0, 2), (1, 2))]
        basis = np.stack(basis, axis=1)
        coef, res, *_ = np.linalg.lstsq(basis, cong.eta[e], rcond=None)
        rec = basis @ coef
        membership = max(membership, float(
            np.linalg.norm(cong.eta[e] - rec)
            / max(np.linalg.norm(cong.eta[e]), 1e-300)))
        s = intersection_line(cong, e)
        s_lines[e] = s
        tri = _trivector(unpack_bivector(cong.eta[e], cong.dim), s)
        nondeg = min(nondeg, float(
            np.linalg.norm(tri) / max(np.linalg.norm(cong.eta[e]), 1e-300)))
    out["eta_in_lam2_f"] = membership
    out["nondegeneracy_margin"] = 0.0 if g.nedges == 0 else float(nondeg)
    out["first_order_margin"] = 0.0 if g.nedges == 0 else float(first_order)
    second = np.inf
    for n in range(g.nquads):
        M = np.stack([s_lines[e] for e in g.quad_edges[n]])
        sv = np.linalg.svd(M, compute_uv=False)
        second = min(second, float(sv[3] / max(sv[0], 1e-300)))
    out["second_order_margin"] = 0.0 if g.nquads == 0 else float(second)
    out["passed"] = bool(
        out["eta_closed"] <= tol
        and out["eta_decomposable"] <= max(tol, 1e-9)
        and out["eta_in_lam2_f"] <= tol
        and out["nondegeneracy_margin"] >= margin
        and out["first_order_margin"] >= margin
        and out["second_order_margin"] >= margin)
    return out
