"""Per-step reference versions of the batched Cauchy-data generators and
the per-edge line congruence validation.

These read and test one thing at a time where the library works in
blocks: one ``rng.standard_normal(d)`` row and one scalar test per
Cauchy step, one whole net per ``random_isothermic`` draw, one Guichard
attempt at a time, and three ``svd`` calls per edge.  The equivalence
tests compare the library against them.
"""

import numpy as np

from dnet.errors import DegeneracyError, EvolutionError, GenerationError
from dnet.forms import unpack_bivector, wedge_vec
from dnet.grid import Grid, closedness_residual, integrate_one_form
from dnet.isothermic import moutard_evolve
from dnet.koenigs import _trivector, pluecker_residual
from dnet.lie_sphere import _guichard_package, _guichard_report_failure, standard_lie_frame


def random_cauchy(grid, signature, rng, magnitude=0.3, frame=None):
    """Cauchy lines read one row per step: the base row, then the steps
    of axis 0 and of axis 1.  The first irregular step raises, after the
    rest of the draw's ``d0 + d1 - 1`` rows are read."""
    frame = signature.standard_frame() if frame is None else frame
    ip = signature.inner
    d = signature.dim
    d0, d1 = grid.dims
    left = d0 + d1 - 1

    def row():
        nonlocal left
        left -= 1
        return rng.standard_normal(d)

    def null_step(prev):
        delta = magnitude * row()
        delta = frame.pi(delta)
        if frame.p is not None:
            comp = -float(ip(delta, frame.p))
            delta = delta + (0.35 - 1.0) * comp * frame.p
        w = prev + delta
        wq = float(ip(w, frame.q))
        if abs(wq) >= 1e-6:
            lam = -0.5 * float(ip(w, w)) / wq
            cand = w + lam * frame.q
            if abs(ip(cand, prev)) > 1e-8 * np.linalg.norm(cand) * np.linalg.norm(prev):
                return cand
        rng.standard_normal((left, d))
        raise DegeneracyError("could not draw a regular Cauchy step")

    x0 = frame.pi(row())
    base = frame.o + x0 + 0.5 * float(ip(x0, x0)) * frame.q
    line0 = np.zeros((d0, d))
    line1 = np.zeros((d1, d))
    line0[0] = line1[0] = base
    for a in range(1, d0):
        line0[a] = null_step(line0[a - 1])
    for b in range(1, d1):
        line1[b] = null_step(line1[b - 1])
    return line0, line1


def random_isothermic(grid, signature, rng, magnitude=0.3, margin=1e-5,
                      edge_margin=1e-4, retries=64, frame=None):
    """Whole nets drawn, evolved and tested one draw at a time; a grid
    without quads has no quad margins to test.  Exhaustion counts the
    draws rejected for each reason, a draw that fails several margins
    under the first of edge, diagonal and opposite-label margin."""
    frame = signature.standard_frame() if frame is None else frame
    counts = dict.fromkeys(("irregular Cauchy step", "isotropic diagonal", "edge margin",
                            "diagonal margin", "opposite-label margin", "validate"), 0)
    best = -np.inf
    for _ in range(retries):
        try:
            line0, line1 = random_cauchy(grid, signature, rng, magnitude, frame)
        except DegeneracyError:
            counts["irregular Cauchy step"] += 1
            continue
        try:
            net = moutard_evolve(grid, signature, line0, line1, frame=frame)
        except EvolutionError:
            counts["isotropic diagonal"] += 1
            continue
        rep = net.validate(margin=margin)
        best = max(best, rep["diagonal_margin"])
        t, h = grid.edge_tail, grid.edge_head
        scale = np.linalg.norm(net.mu[t], axis=1) * np.linalg.norm(net.mu[h], axis=1)
        edge_rel = np.abs(net.edge_ip) / np.maximum(scale, 1e-300)
        if not float(edge_rel.min(initial=np.inf)) >= edge_margin:
            counts["edge margin"] += 1
        elif not (grid.nquads == 0 or rep["diagonal_margin"] >= margin):
            counts["diagonal margin"] += 1
        elif not (grid.nquads == 0 or rep["opposite_label_margin"] >= margin):
            counts["opposite-label margin"] += 1
        elif not (rep["nullity"] <= 1e-12 and rep["moutard"] <= 1e-11):
            counts["validate"] += 1
        else:
            return net
    raise DegeneracyError(f"no well-conditioned net after {retries} draws: rejected at "
                          + ", ".join(f"{name} {n}" for name, n in counts.items())
                          + f"; best diagonal margin {best:.3e}")


def guichard_attempt(g, frame, rng, magnitude, skip_constraint_at):
    """One Guichard attempt from its own generator ``rng``, with the base
    search and every Cauchy step scored one candidate at a time.

    The rows are read as ``dnet.lie_sphere.guichard_generate`` reads
    them: the base row, 64 rows for the search for ``xi``, then 64
    candidate rows per Cauchy step.
    """
    sig = frame.signature
    ip = sig.inner
    d = sig.dim
    d0, d1 = g.dims
    base_row = rng.standard_normal(d)
    null_rows = rng.standard_normal((64, d - 2))
    step_rows = rng.standard_normal((d0 + d1 - 2, 64, d))

    x0 = frame.pi(base_row)
    mu0 = frame.o + x0 + 0.5 * float(ip(x0, x0)) * frame.q
    if abs(ip(mu0, frame.p)) < 0.05:
        raise DegeneracyError("base point sphere nearly flat")
    # least-norm solution of (v, p) = -1, (v, mu0) = 0 from the Gram matrix
    a1, a2 = frame.p * sig.signs, mu0 * sig.signs
    g11, g12, g22 = np.add.reduce(a1 * a1), np.add.reduce(a2 * a1), np.add.reduce(a2 * a2)
    particular = (g12 * a2 - g22 * a1) / (g11 * g22 - g12 * g12)
    kernel = np.linalg.svd(np.stack([a1, a2]))[2][2:]
    xi0 = None
    for k in null_rows @ kernel:
        a = float(ip(k, k))
        b = 2.0 * float(ip(particular, k))
        c = float(ip(particular, particular))
        if abs(a) < 1e-14:
            continue
        disc = b * b - 4 * a * c
        if disc <= 0:
            continue
        v = particular + ((-b + np.sqrt(disc)) / (2 * a)) * k
        if np.linalg.norm(v, axis=-1) > 1e-8:
            xi0 = v
            break
    if xi0 is None:
        raise GenerationError("null slice not found")

    def cauchy_step(mu_prev, xi_prev, index):
        prev_norm = np.linalg.norm(mu_prev, axis=-1)
        for row in step_rows[index - 1]:
            delta = frame.pi(magnitude * row)
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
                alpha = 1.0 / np.linalg.norm(w, axis=-1)
            else:
                alpha = -float(ip(xi_prev, w)) / (wp * wm)
            mu_next = alpha * w
            nn = np.linalg.norm(mu_next, axis=-1)
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

    net = moutard_evolve(g, sig, line0, line1, frame=frame)
    rep = net.validate(margin=1e-5)
    t, h = g.edge_tail, g.edge_head
    etap = (ip(net.mu[h], frame.p)[:, None] * net.mu[t]
            - ip(net.mu[t], frame.p)[:, None] * net.mu[h])
    xi = integrate_one_form(g, etap, seed=xi0, check_closed=False)
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


def guichard_generate(dims, seed=0, magnitude=0.25, retries=48, tol=1e-8,
                      frame=standard_lie_frame(), skip_constraint_at=None):
    """Guichard attempts one at a time, attempt ``i`` from its own
    ``numpy.random.default_rng([seed, i])``; the result or the first
    completed attempt's fault report, or None after ``retries``."""
    g = Grid(dims)
    for i in range(retries):
        try:
            net, xi, diag = guichard_attempt(g, frame, np.random.default_rng([seed, i]),
                                             magnitude, skip_constraint_at)
        except (DegeneracyError, GenerationError):
            continue
        if skip_constraint_at is not None:
            return _guichard_report_failure(net, xi, diag)
        if (diag["orthogonality"] <= tol and diag["net_valid"]
                and diag["coefficient_dev"] <= 1e-10):
            return _guichard_package(net, xi, frame, diag)
    return None


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
        M = np.stack([s_lines[e] for e in g.sides(n)])
        sv = np.linalg.svd(M, compute_uv=False)
        second = min(second, float(sv[3] / max(sv[0], 1e-300)))
    out["second_order_margin"] = 0.0 if g.nquads == 0 else float(second)
    out["passed"] = bool(
        out["eta_closed"] <= 1e-10
        and out["eta_decomposable"] <= max(tol, 1e-9)
        and out["eta_in_lam2_f"] <= tol
        and out["nondegeneracy_margin"] >= margin
        and out["first_order_margin"] >= margin
        and out["second_order_margin"] >= margin)
    return out
