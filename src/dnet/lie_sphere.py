"""Principal nets in R^3, their Legendre lifts in the space of null
2-planes of R^{4,2}, Omega-nets and associates, Guichard nets, and the
conserved-quantity classification.

The ambient space is R^{4,2} with a null frame ``o, q``, a point sphere
complex ``p`` and an orthonormal basis of R^3 = span{o, q, p}^perp.  A
contact element ``(x, n)`` lifts to the null plane spanned by

    y = o + x + 1/2 (x,x) q          (point sphere)
    t = n + p + (x,n) q              (tangent plane sphere)

and a congruence of such planes is an Omega-net when it carries a
closed ``Lambda^2``-valued applicability form; in the gauge with
``(eta q, p) = 0`` the contractions ``eta q`` and ``eta p`` integrate to
the associate net and associate Gauss map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegeneracyError, FrameError, GaugeError,
                     GenerationError)
from .forms import (Form0, Form1, curly_wedge, exterior_derivative,
                    mixed_area, unpack_bivector, wedge, wedge_vec, BilinearRule)
from .grid import Grid, integrate_one_form, stack
from .isothermic import (ConservedQuantity, IsothermicNet, _CandidateRows,
                         calapso_transform, darboux_transform, flat_connection,
                         moutard_evolve, stack_pair)
from .koenigs import (LineCongruence, _first_failure, _plane_intersection,
                      _span_of_bivector, extract_pair, km_pair_check)
from .pseudo_euclidean import Frame, Signature, action_matrix

__all__ = [
    "LieFrame", "standard_lie_frame", "random_lie_frame",
    "PrincipalNet", "OmegaNet", "Associates", "GuichardNet",
    "legendre_lift", "principal_from_legendre", "omega_from_darboux_pair",
    "associates", "check_omega", "omega_edge_labels", "eisenhart_general",
    "check_guichard", "eisenhart_guichard", "guichard_generate",
    "demoulin_radii", "classify_special", "darboux_legendre",
    "calapso_legendre", "dual_legendre", "linear_weingarten_check",
    "sphere_lattice", "minimal_net",
]

SIG42 = Signature(4, 2)

# relative slack of the batched candidate screen in guichard_generate
_SCREEN_SLACK = 1e-12


class LieFrame:
    """Frame of R^{4,2} adapted to Lie sphere geometry of R^3."""

    def __init__(self, frame: Frame, basis3: np.ndarray):
        if frame.p is None:
            raise ValueError("a Lie frame needs a point sphere complex")
        self.frame = frame
        self.signature = frame.signature
        self.basis3 = np.asarray(basis3, float)
        if self.basis3.shape != (3, self.signature.dim):
            raise ValueError("basis3 must be (3, dim)")
        ip = self.signature.inner
        gram = np.array([[ip(a, b) for b in self.basis3] for a in self.basis3])
        if np.abs(gram - np.eye(3)).max() > 1e-10:
            raise ValueError("basis3 must be orthonormal and spacelike")
        for v in (frame.o, frame.q, frame.p):
            if np.abs(ip(self.basis3, v)).max() > 1e-10:
                raise ValueError("basis3 must be orthogonal to the frame vectors")

    @property
    def o(self):
        return self.frame.o

    @property
    def q(self):
        return self.frame.q

    @property
    def p(self):
        return self.frame.p

    def embed3(self, x) -> np.ndarray:
        return np.asarray(x, float) @ self.basis3

    def coords3(self, v) -> np.ndarray:
        return self.signature.inner(np.asarray(v, float)[..., None, :],
                                    self.basis3)

    def p_coord(self, v) -> np.ndarray:
        return -self.signature.inner(v, self.p)

    def lift_point(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        n2 = np.sum(x * x, axis=-1)
        return self.o + self.embed3(x) + 0.5 * n2[..., None] * self.q

    def lift_tangent(self, x, n) -> np.ndarray:
        x = np.asarray(x, float)
        n = np.asarray(n, float)
        xn = np.sum(x * n, axis=-1)
        return self.embed3(n) + self.p + xn[..., None] * self.q


def standard_lie_frame() -> LieFrame:
    frame = SIG42.standard_frame()
    basis3 = np.eye(6)[:3]
    return LieFrame(frame, basis3)


def random_lie_frame(rng, scale: float = 0.2) -> LieFrame:
    """Cayley transform of a random bivector applied to the standard frame."""
    C = scale * rng.standard_normal((6, 6))
    C = C - C.T
    A = action_matrix(C, SIG42)
    M = np.linalg.solve(np.eye(6) + A, np.eye(6) - A)
    std = standard_lie_frame()
    frame = Frame(SIG42, M @ std.o, M @ std.q, M @ std.p)
    return LieFrame(frame, std.basis3 @ M.T)


# -- principal nets ------------------------------------------------------

class PrincipalNet:
    """Contact element net ``(x, n)``: edge-parallel circular ``x`` with
    unit normals; ``kappa`` solves ``kappa dx + dn = 0`` per edge."""

    def __init__(self, grid: Grid, x, n):
        self.grid = grid
        self.x = np.asarray(x, float)
        self.n = np.asarray(n, float)
        if self.x.shape != (grid.nverts, 3) or self.n.shape != (grid.nverts, 3):
            raise ValueError("x and n must be (nverts, 3)")
        t, h = grid.edge_tail, grid.edge_head
        dx = self.x[h] - self.x[t]
        dn = self.n[h] - self.n[t]
        denom = np.sum(dx * dx, axis=1)
        if np.any(denom <= 1e-300):
            raise DegeneracyError("vanishing edge in the principal net")
        self.kappa = -np.sum(dn * dx, axis=1) / denom
        with np.errstate(divide="ignore"):
            self.radius = np.where(np.abs(self.kappa) > 1e-300,
                                   1.0 / np.where(self.kappa == 0, 1.0, self.kappa),
                                   np.inf)

    def dx(self) -> np.ndarray:
        t, h = self.grid.edge_tail, self.grid.edge_head
        return self.x[h] - self.x[t]

    def dn(self) -> np.ndarray:
        t, h = self.grid.edge_tail, self.grid.edge_head
        return self.n[h] - self.n[t]

    def validate(self, tol: float = 1e-10, frame: LieFrame | None = None) -> dict:
        frame = standard_lie_frame() if frame is None else frame
        out = {}
        out["unit_normal"] = float(
            np.abs(np.sum(self.n * self.n, axis=1) - 1.0).max())
        dx, dn = self.dx(), self.dn()
        res = dx * self.kappa[:, None] + dn
        scale = np.maximum(np.linalg.norm(dn, axis=1),
                           np.abs(self.kappa) * np.linalg.norm(dx, axis=1))
        out["curvature_relation"] = float(
            (np.linalg.norm(res, axis=1) / np.maximum(scale, 1.0)).max(initial=0.0))
        y = frame.lift_point(self.x)
        worst = 0.0
        for nq in range(self.grid.nquads):
            sv = np.linalg.svd(y[self.grid.quad_vertices[nq]], compute_uv=False)
            worst = max(worst, float(sv[3] / max(sv[0], 1e-300)))
        out["circularity"] = worst
        out["passed"] = bool(out["unit_normal"] <= 1e-9
                             and out["curvature_relation"] <= max(tol, 1e-9)
                             and worst <= 1e-8)
        return out


def legendre_lift(pn: PrincipalNet, frame: LieFrame | None = None,
                  tol: float = 1e-8):
    """Null-plane lifts ``(y, t)`` of a principal net.

    Checks the frame incidence conditions: the lift normalization must
    be solvable along the congruence and no curvature sphere may fall in
    ``p^perp`` or ``q^perp``.  On failure a :class:`FrameError` suggests
    re-drawing the frame (:func:`random_lie_frame`).
    """
    frame = standard_lie_frame() if frame is None else frame
    y = frame.lift_point(pn.x)
    t = frame.lift_tangent(pn.x, pn.n)
    ip = frame.signature.inner
    sphere = pn.kappa[:, None] * y[pn.grid.edge_tail] + t[pn.grid.edge_tail]
    norms = np.linalg.norm(sphere, axis=1)
    bad_p = np.abs(ip(sphere, frame.p)) <= tol * norms
    bad_q = np.abs(ip(sphere, frame.q)) <= tol * norms
    if np.any(bad_p | bad_q):
        e = int(np.nonzero(bad_p | bad_q)[0][0])
        raise FrameError(
            "curvature sphere meets p^perp or q^perp; re-draw the frame "
            "with random_lie_frame", where=pn.grid.locate_edge(e))
    sphere_h = pn.kappa[:, None] * y[pn.grid.edge_head] + t[pn.grid.edge_head]
    agree = np.linalg.norm(sphere - sphere_h, axis=1) / np.maximum(norms, 1e-300)
    return y, t, float(agree.max(initial=0.0))


def principal_from_legendre(grid: Grid, sigma1, sigma2,
                            frame: LieFrame | None = None) -> PrincipalNet:
    """Recover ``(x, n)`` from any pair of lifts spanning the planes."""
    frame = standard_lie_frame() if frame is None else frame
    ip = frame.signature.inner
    sigma1 = np.asarray(sigma1, float)
    sigma2 = np.asarray(sigma2, float)
    rows = np.stack([
        np.stack([ip(sigma1, frame.q), ip(sigma2, frame.q)], axis=1),
        np.stack([ip(sigma1, frame.p), ip(sigma2, frame.p)], axis=1),
    ], axis=1)                                   # (nv, 2, 2)
    dets = np.linalg.det(rows)
    if np.any(np.abs(dets) <= 1e-12):
        raise FrameError("plane normalization is singular; re-draw the frame")
    coef_y = np.linalg.solve(rows, np.tile([-1.0, 0.0], (grid.nverts, 1))[..., None])[..., 0]
    coef_t = np.linalg.solve(rows, np.tile([0.0, -1.0], (grid.nverts, 1))[..., None])[..., 0]
    y = coef_y[:, :1] * sigma1 + coef_y[:, 1:] * sigma2
    t = coef_t[:, :1] * sigma1 + coef_t[:, 1:] * sigma2
    x = frame.coords3(y)
    n = frame.coords3(t)
    return PrincipalNet(grid, x, n)


# -- Omega nets ----------------------------------------------------------

@dataclass
class OmegaNet:
    """Applicable Legendre map with normalized lifts and gauged form.

    ``eta`` is stored in the gauge ``(eta q, p) = 0`` so the associates
    are canonical up to translation.  ``mu_plus``/``mu_minus``, when
    present, span the planes by an isotropic Darboux pair (with matched
    Moutard normalization when produced by
    :func:`omega_from_darboux_pair`).
    """

    grid: Grid
    lie_frame: LieFrame
    y: np.ndarray
    t: np.ndarray
    eta: np.ndarray
    mu_plus: np.ndarray | None = None
    mu_minus: np.ndarray | None = None

    def congruence(self) -> LineCongruence:
        return LineCongruence(self.grid, self.y, self.t, self.eta)

    def principal(self) -> PrincipalNet:
        return PrincipalNet(self.grid, self.lie_frame.coords3(self.y),
                            self.lie_frame.coords3(self.t))

    def eta_q(self) -> np.ndarray:
        return _contract(self.eta, self.lie_frame.q, self.signature)

    def eta_p(self) -> np.ndarray:
        return _contract(self.eta, self.lie_frame.p, self.signature)

    @property
    def signature(self) -> Signature:
        return self.lie_frame.signature

    def validate(self, tol: float = 1e-8, margin: float = 1e-6) -> dict:
        ip = self.signature.inner
        out = {}
        gram = np.stack([ip(self.y, self.y), ip(self.y, self.t),
                         ip(self.t, self.t)], axis=1)
        out["null_planes"] = float(np.abs(gram).max(initial=0.0))
        out["normalization"] = float(max(
            np.abs(ip(self.y, self.lie_frame.q) + 1.0).max(initial=0.0),
            np.abs(ip(self.y, self.lie_frame.p)).max(initial=0.0),
            np.abs(ip(self.t, self.lie_frame.q)).max(initial=0.0),
            np.abs(ip(self.t, self.lie_frame.p) + 1.0).max(initial=0.0)))
        out["gauge"] = float(np.abs(
            ip(_contract(self.eta, self.lie_frame.q, self.signature),
               self.lie_frame.p)).max(initial=0.0)) / max(
                   float(np.abs(self.eta).max(initial=0.0)), 1e-300)
        cong = self.congruence().validate(tol=tol, margin=margin)
        out["applicability"] = cong
        out["passed"] = bool(out["null_planes"] <= 1e-9
                             and out["normalization"] <= 1e-9
                             and out["gauge"] <= tol and cong["passed"])
        return out


def _contract(eta_packed: np.ndarray, vec: np.ndarray, sig: Signature) -> np.ndarray:
    """Apply packed bivectors to a fixed vector (batched)."""
    C = unpack_bivector(eta_packed, sig.dim)
    act = -C * sig.signs
    return act @ vec


def gauge_normalize(grid: Grid, frame: LieFrame, y, t, eta) -> np.ndarray:
    """Shift ``eta`` by ``d(c y^t)`` so that ``(eta q, p) = 0``.

    The scalar edge function ``(eta q, p)`` is closed because ``eta``
    is, so ``c`` integrates; ``(c y^t) q`` contracts to ``c`` against p,
    which makes the condition pointwise linear.
    """
    sig = frame.signature
    etaq_p = sig.inner(_contract(eta, frame.q, sig), frame.p)
    c = integrate_one_form(grid, -etaq_p[:, None], base=0, check_closed=True,
                           tol=1e-8).values[:, 0]
    c = c - c.mean()      # the constant freedom; centering conditions tau
    tau = c[:, None] * wedge_vec(y, t)
    th, tt = grid.edge_head, grid.edge_tail
    out = eta + tau[th] - tau[tt]
    res = np.abs(sig.inner(_contract(out, frame.q, sig), frame.p)).max(initial=0.0)
    if res > 1e-8 * max(float(np.abs(out).max(initial=0.0)), 1e-300):
        raise GaugeError(f"gauge normalization failed: residual {res:.3e}")
    return out


def omega_from_darboux_pair(net_plus: IsothermicNet, seed=None, rng=None,
                            frame: LieFrame | None = None) -> OmegaNet:
    """Span an Omega-net by an isothermic net and its isotropic Darboux
    transform; the form is the isothermic one, gauge-normalized."""
    frame = standard_lie_frame() if frame is None else frame
    if (net_plus.signature.p, net_plus.signature.q) != (4, 2):
        raise ValueError("Omega-nets live in signature (4, 2)")
    rng = np.random.default_rng(0) if rng is None else rng
    hat = darboux_transform(net_plus, np.inf, seed=seed, rng=rng)
    g = net_plus.grid
    pn = principal_from_legendre(g, net_plus.mu, hat.mu, frame)
    y = frame.lift_point(pn.x)
    t = frame.lift_tangent(pn.x, pn.n)
    eta = gauge_normalize(g, frame, y, t, net_plus.eta)
    return OmegaNet(g, frame, y, t, eta,
                    mu_plus=net_plus.mu.copy(), mu_minus=hat.mu.copy())


@dataclass
class Associates:
    """Associate net and associate Gauss map with their residuals."""

    x: np.ndarray
    n: np.ndarray
    x_dual: np.ndarray
    n_dual: np.ndarray
    reconstruction: float     # eta = eta_q ^~ y + eta_p ^~ t
    duality: float            # dxd ^~ dx + dnd ^~ dn = 0


def associates(omega: OmegaNet, base: int = 0) -> Associates:
    """Integrate ``d x_dual = pi(eta q)`` and ``d n_dual = pi(eta p)``.

    Requires the stored gauge ``(eta q, p) = 0``; the n_dual constant is
    fixed so its p-component vanishes (it does identically since
    ``(eta p, p) = 0``).
    """
    frame, sig, g = omega.lie_frame, omega.signature, omega.grid
    etaq = omega.eta_q()
    etap = omega.eta_p()
    gauge_res = np.abs(sig.inner(etaq, frame.p)).max(initial=0.0)
    if gauge_res > 1e-8 * max(float(np.abs(omega.eta).max(initial=0.0)), 1e-300):
        raise GaugeError("associates need the (eta q, p) = 0 gauge")
    dxd = frame.coords3(etaq)
    dnd = frame.coords3(etap)
    xd = integrate_one_form(g, dxd, base=base, check_closed=True, tol=1e-8).values
    nd = integrate_one_form(g, dnd, base=base, check_closed=True, tol=1e-8).values
    pn = omega.principal()

    rule = BilinearRule.wedge_product(6)
    rec = (wedge(Form1(g, etaq), Form0(g, omega.y), rule).values
           + wedge(Form1(g, etap), Form0(g, omega.t), rule).values)
    eta_scale = max(float(np.abs(omega.eta).max(initial=0.0)), 1e-300)
    rec_res = float(np.abs(rec - omega.eta).max(initial=0.0)) / eta_scale

    dual = (curly_wedge(_d3(g, xd), _d3(g, pn.x)).values
            + curly_wedge(_d3(g, nd), _d3(g, pn.n)).values)
    scale = max(float(np.abs(xd).max(initial=0.0)), 1.0)
    dual_res = float(np.abs(dual).max(initial=0.0)) / scale
    return Associates(x=pn.x, n=pn.n, x_dual=xd, n_dual=nd,
                      reconstruction=rec_res, duality=dual_res)


def _d3(g: Grid, values: np.ndarray) -> Form1:
    return exterior_derivative(Form0(g, values))


def check_omega(pn: PrincipalNet, x_dual, n_dual, tol: float = 1e-9,
                margin: float = 1e-8) -> dict:
    """Duality test: ``dxd ^~ dx + dnd ^~ dn = 0`` per quad together
    with the non-degeneracy margin ``dxd != kappa dnd`` per edge."""
    g = pn.grid
    x_dual = np.asarray(x_dual, float)
    n_dual = np.asarray(n_dual, float)
    t, h = g.edge_tail, g.edge_head
    dx = pn.dx()
    for name, vals in (("x_dual", x_dual), ("n_dual", n_dual)):
        dv = vals[h] - vals[t]
        w = np.linalg.norm(wedge_vec(dv, dx), axis=1)
        den = np.maximum(np.linalg.norm(dv, axis=1) * np.linalg.norm(dx, axis=1),
                         1e-300)
        if (w / den).max(initial=0.0) > 1e-6:
            raise DegeneracyError(f"{name} is not edge-parallel to x")
    quad = (curly_wedge(_d3(g, x_dual), _d3(g, pn.x)).values
            + curly_wedge(_d3(g, n_dual), _d3(g, pn.n)).values)
    scale = max(float(np.abs(x_dual).max(initial=0.0) + np.abs(n_dual).max(initial=0.0)), 1.0)
    duality = float(np.abs(quad).max(initial=0.0)) / scale
    dxd = x_dual[h] - x_dual[t]
    dnd = n_dual[h] - n_dual[t]
    nd_margin = np.linalg.norm(dxd - pn.kappa[:, None] * dnd, axis=1) / np.maximum(
        np.linalg.norm(dxd, axis=1), 1e-300)
    out = {
        "duality": duality,
        "nondegeneracy_margin": float(nd_margin.min(initial=np.inf)),
        "passed": bool(duality <= tol and nd_margin.min(initial=np.inf) >= margin),
    }
    return out


def omega_edge_labels(omega_or_cong, signature: Signature | None = None,
                      tol: float = 1e-8) -> np.ndarray:
    """Gauge-invariant edge labelling of an applicable Legendre map.

    Factors ``eta_ji = sigma_j ^ sigma_i`` with ``sigma`` taken in the
    planes at both ends and returns ``1 / (sigma_i, sigma_j)`` (``inf``
    on isotropic factorizations); the reciprocal scale freedom cancels.
    """
    if isinstance(omega_or_cong, OmegaNet):
        cong = omega_or_cong.congruence()
        sig = omega_or_cong.signature
    else:
        cong = omega_or_cong
        if signature is None:
            raise ValueError("a signature is required for a bare congruence")
        sig = signature
    from .forms import lam2_pairs
    g = cong.grid
    eta = cong.eta
    ia, ib = lam2_pairs(cong.dim)
    sign_prod = sig.signs[ia] * sig.signs[ib]
    span, span_failures = _span_of_bivector(unpack_bivector(eta, cong.dim))
    planes, _ = np.linalg.qr(np.stack([cong.sigma1, cong.sigma2], axis=2))
    s_t, tail_failures = _plane_intersection(span, planes[g.edge_tail])
    s_h, head_failures = _plane_intersection(span, planes[g.edge_head])
    w = wedge_vec(s_h, s_t)
    ww = np.einsum("ij,ij->i", w, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.einsum("ij,ij->i", eta, w) / ww
        resid = np.linalg.norm(eta - coef[:, None] * w, axis=1)
    # in the order a per-edge computation meets them
    failures = span_failures + tail_failures + head_failures + [
        (ww <= 1e-300, "factorization degenerate"),
        (resid > tol * np.maximum(np.linalg.norm(eta, axis=1), 1e-300),
         "eta is not decomposable on the edge planes"),
    ]
    first = _first_failure(failures)
    if first is not None:
        e, k = first
        raise DegeneracyError(
            failures[k][1], where=g.locate_edge(e),
            residual=float(resid[e]) if k == len(failures) - 1 else None)
    ip_est = coef * sig.inner(s_t, s_h)
    # the magnitude is far better conditioned through the invariant
    # trace identity: for eta = s_j ^ s_i with action A,
    # tr(A^2) = 2 (s_i, s_j)^2 = -2 sum_{a<b} eta_ab^2 G_a G_b.
    # The sum cancels to a value far below ||eta||^2, so it is taken
    # in extended precision.
    rows = eta.astype(np.longdouble)
    ip_sq = -(rows * rows * sign_prod.astype(np.longdouble)).sum(axis=1).astype(float)
    isotropic = ip_sq <= 1e-24 * np.einsum("ij,ij->i", eta, eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(isotropic, np.inf, 1.0 / np.copysign(np.sqrt(ip_sq), ip_est))


def eisenhart_general(pn: PrincipalNet, x_dual, n_dual, labels,
                      tol: float = 1e-8) -> dict:
    """Pairing identity ``(dx, dxd) + (dn, dnd) = -2/m`` per edge."""
    g = pn.grid
    t, h = g.edge_tail, g.edge_head
    dxd = np.asarray(x_dual, float)[h] - np.asarray(x_dual, float)[t]
    dnd = np.asarray(n_dual, float)[h] - np.asarray(n_dual, float)[t]
    lhs = np.sum(pn.dx() * dxd, axis=1) + np.sum(pn.dn() * dnd, axis=1)
    labels = np.asarray(labels, float)
    rhs = np.where(np.isinf(labels), 0.0,
                   -2.0 / np.where(np.isinf(labels), 1.0, labels))
    res = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    out = {"pairing": float(res.max(initial=0.0))}
    out["passed"] = bool(out["pairing"] <= tol)
    return out


def check_guichard(pn: PrincipalNet, x_dual, tol: float = 1e-8) -> dict:
    """Associate-net test ``A(x_dual, x) + A(n, n) = 0`` per quad."""
    g = pn.grid
    a1 = mixed_area(Form0(g, np.asarray(x_dual, float)), Form0(g, pn.x)).values
    a2 = mixed_area(Form0(g, pn.n), Form0(g, pn.n)).values
    scale = np.maximum(np.maximum(np.abs(a1).max(axis=1), np.abs(a2).max(axis=1)),
                       1e-300)
    res = np.abs(a1 + a2).max(axis=1) / scale
    out = {"associate": float(res.max(initial=0.0))}
    out["passed"] = bool(out["associate"] <= tol)
    return out


def eisenhart_guichard(pn: PrincipalNet, x_dual, labels, tol: float = 1e-8,
                       radius_floor: float = 1e-8) -> dict:
    """Directed-length identity ``d dd (1 + 1/(r rd)) = -2/m`` per edge,
    plus the ratio identity ``d/r = dd/rd``; edges with a vanishing
    curvature on either net are excluded and reported."""
    g = pn.grid
    t, h = g.edge_tail, g.edge_head
    x_dual = np.asarray(x_dual, float)
    dx = pn.dx()
    dn = pn.dn()
    dxd = x_dual[h] - x_dual[t]
    dlen = np.linalg.norm(dx, axis=1)
    unit = dx / dlen[:, None]
    dd = np.sum(dxd * unit, axis=1)
    denom = np.sum(dxd * dxd, axis=1)
    kappad = -np.sum(dn * dxd, axis=1) / np.maximum(denom, 1e-300)
    excluded = (np.abs(pn.kappa) < radius_floor) | (np.abs(kappad) < radius_floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 1.0 / pn.kappa
        rd = 1.0 / kappad
        lhs = dlen * dd * (1.0 + 1.0 / (r * rd))
    labels = np.asarray(labels, float)
    rhs = np.where(np.isinf(labels), 0.0,
                   -2.0 / np.where(np.isinf(labels), 1.0, labels))
    res = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    res = np.where(excluded, 0.0, res)
    ratio = np.abs(dlen / r - dd / rd) / np.maximum(np.abs(dlen / r), 1e-300)
    ratio = np.where(excluded, 0.0, ratio)
    out = {
        "eisenhart": float(res.max(initial=0.0)),
        "ratio_identity": float(ratio.max(initial=0.0)),
        "excluded_edges": int(excluded.sum()),
        "passed": bool(res.max(initial=0.0) <= tol
                       and ratio.max(initial=0.0) <= 10 * tol),
    }
    return out


# -- Guichard nets -------------------------------------------------------

@dataclass
class GuichardNet:
    """Guichard net with its special-isothermic data.

    ``net`` is the enveloped isothermic sphere congruence s+ (Moutard
    lift ``mu``), ``xi`` the null Koenigs dual with ``(xi, p) = -1``
    spanning s-, ``omega`` the lifted Omega-net in the Guichard gauge,
    ``x_dual`` the associate net (with associate Gauss map ``n``), and
    ``quantity`` the linear conserved quantity ``p + t xi``.
    """

    net: IsothermicNet
    xi: np.ndarray
    omega: OmegaNet
    pn: PrincipalNet
    x_dual: np.ndarray
    quantity: ConservedQuantity
    diagnostics: dict = field(default_factory=dict)


def _null_solve(sig: Signature, particular, kernel, rng, retries: int = 64):
    """Null vector of the form particular + kernel @ a (random search)."""
    for _ in range(retries):
        k = kernel @ rng.standard_normal(kernel.shape[1])
        a = float(sig.inner(k, k))
        b = 2.0 * float(sig.inner(particular, k))
        c = float(sig.inner(particular, particular))
        if abs(a) < 1e-14:
            continue
        disc = b * b - 4 * a * c
        if disc <= 0:
            continue
        root = (-b + np.sqrt(disc)) / (2 * a)
        v = particular + root * k
        if np.linalg.norm(v) > 1e-8:
            return v
    raise GenerationError("null slice not found")


def _kernel_of(sig: Signature, constraints) -> np.ndarray:
    """Orthonormal basis of the simultaneous kernel of (v, c_k) = 0."""
    A = np.stack([c * sig.signs for c in constraints])
    _, sv, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    return Vt[rank:].T


def guichard_generate(dims, seed: int = 0, magnitude: float = 0.25,
                      retries: int = 48, tol: float = 1e-8,
                      frame: LieFrame | None = None,
                      skip_constraint_at: int | None = None):
    """Generate a Guichard net from constrained Cauchy data.

    Along the two initial lines every step draws a null lift and
    rescales it (closed form) so that the running Koenigs dual ``xi``
    (with ``d xi = eta p``) stays orthogonal to the net; the interior is
    filled by the Moutard evolution and the conditions are verified at
    interior vertices.  Returns a :class:`GuichardNet` on success and
    raises :class:`GenerationError` after exhausting retries.

    ``skip_constraint_at`` deliberately skips the rescaling at one
    Cauchy step (fault injection for the verification path); the
    resulting diagnostics then localize the violation.

    Draw order: every attempt reads, from one ``numpy.random.Generator``
    made by ``numpy.random.default_rng(seed)``, a ``standard_normal(d)`` row for
    the base point, the rows of the seed search for ``xi``, then one row
    per candidate Cauchy step, the steps of axis 0 before those of axis
    1; a rejected candidate uses up exactly its row, and a step gives up
    after 64 candidates, leaving the stream just past the rows used.
    The candidates are drawn and screened in blocks, but each seed gives
    the same net as one draw and one test per candidate.
    """
    frame = standard_lie_frame() if frame is None else frame
    sig = frame.signature
    ip = sig.inner
    g = Grid(dims)
    if g.ndim != 2:
        raise ValueError("Guichard generation expects a 2D grid")
    rng = np.random.default_rng(seed)

    last_err = None
    for attempt in range(retries):
        try:
            data = _guichard_attempt(g, frame, rng, magnitude, skip_constraint_at)
        except (DegeneracyError, GenerationError) as err:
            last_err = err
            continue
        net, xi, diag = data
        if skip_constraint_at is not None:
            return _guichard_report_failure(net, xi, diag)
        if (diag["orthogonality"] <= tol and diag["net_valid"]
                and diag["coefficient_dev"] <= 1e-10):
            return _guichard_package(net, xi, frame, diag)
        last_err = diag
    raise GenerationError(f"Guichard generation failed after {retries} tries: {last_err}")


def _guichard_attempt(g: Grid, frame: LieFrame, rng, magnitude,
                      skip_constraint_at):
    sig = frame.signature
    ip = sig.inner
    d = sig.dim
    d0, d1 = g.dims

    # base: mu null with (mu, p) != 0; xi null, (xi, p) = -1, (xi, mu) = 0
    x0 = frame.frame.pi(rng.standard_normal(d))
    mu0 = frame.frame.o + x0 + 0.5 * float(ip(x0, x0)) * frame.q
    if abs(ip(mu0, frame.p)) < 0.05:
        raise DegeneracyError("base point sphere nearly flat")
    # particular solution of (v, p) = -1, (v, mu0) = 0
    A = np.stack([frame.p * sig.signs, mu0 * sig.signs])
    particular, *_ = np.linalg.lstsq(A, np.array([-1.0, 0.0]), rcond=None)
    kernel = _kernel_of(sig, [frame.p, mu0])
    xi0 = _null_solve(sig, particular, kernel, rng)

    def exact_step(mu_prev, prev_norm, xi_prev, delta, skip):
        """The step from one candidate row, or None if it is rejected."""
        w = mu_prev / prev_norm + delta
        wq = float(ip(w, frame.q))
        if abs(wq) < 1e-6:
            return None
        w = w + (-0.5 * float(ip(w, w)) / wq) * frame.q
        wp = float(ip(w, frame.p))
        wm = float(ip(mu_prev, w))
        if abs(wp) < 0.02 or abs(wm) < 1e-6:
            return None
        if skip:
            alpha = 1.0 / np.linalg.norm(w)   # fault injection: skip rescale
        else:
            alpha = -float(ip(xi_prev, w)) / (wp * wm)
        mu_next = alpha * w
        # keep lift scales bounded so absolute rounding stays small
        nn = np.linalg.norm(mu_next)
        if not (0.25 * prev_norm < nn < 4.0 * prev_norm) or not 0.1 < nn < 10.0:
            return None
        xi_next = (xi_prev + float(ip(mu_next, frame.p)) * mu_prev
                   - float(ip(mu_prev, frame.p)) * mu_next)
        return mu_next, xi_next

    def first_step(deltas, mu_prev, xi_prev, index):
        """Screen a block of candidates at once, then take the first one
        that passes the exact test of :func:`exact_step`.  The screen
        only skips rows that test rejects: its thresholds are loosened
        past the ulps by which a batched norm can differ from a single
        one."""
        prev_norm = np.linalg.norm(mu_prev)
        skip = skip_constraint_at is not None and index == skip_constraint_at
        lo, hi = 1.0 - _SCREEN_SLACK, 1.0 + _SCREEN_SLACK
        w = mu_prev / prev_norm + deltas
        wq = ip(w, frame.q)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = w + (-0.5 * ip(w, w) / wq)[:, None] * frame.q
            wp = ip(w, frame.p)
            wm = ip(mu_prev, w)
            wn = np.linalg.norm(w, axis=1)
            alpha = 1.0 / wn if skip else -ip(xi_prev, w) / (wp * wm)
            nn = np.abs(alpha) * wn
        keep = ((np.abs(wq) >= 1e-6 * lo) & (np.abs(wp) >= 0.02 * lo)
                & (np.abs(wm) >= 1e-6 * lo)
                & (nn > max(0.25 * prev_norm, 0.1) * lo)
                & (nn < min(4.0 * prev_norm, 10.0) * hi))
        for k in np.flatnonzero(keep):
            out = exact_step(mu_prev, prev_norm, xi_prev, deltas[k], skip)
            if out is not None:
                return k, out
        return None

    line0 = np.zeros((d0, d))
    line1 = np.zeros((d1, d))
    line0[0] = line1[0] = mu0
    index = 0
    with _CandidateRows(rng, d, lambda rows: frame.frame.pi(magnitude * rows),
                        "Cauchy step failed") as draws:
        for line in (line0, line1):
            xi_prev = xi0
            for a in range(1, len(line)):
                index += 1
                line[a], xi_prev = draws.step(first_step, line[a - 1], xi_prev, index)

    net = moutard_evolve(g, sig, line0, line1, frame=frame.frame)
    rep = net.validate(margin=1e-5)
    # xi everywhere from d xi = eta p
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


def _guichard_report_failure(net, xi, diag):
    worst = int(np.argmax(diag["orthogonality_map"]))
    diag = dict(diag)
    diag["worst_vertex"] = net.grid.coords(worst)
    diag["success"] = False
    return diag


def _guichard_package(net: IsothermicNet, xi: np.ndarray, frame: LieFrame,
                      diag: dict) -> GuichardNet:
    sig = frame.signature
    ip = sig.inner
    g = net.grid
    mu = net.mu
    mup = ip(mu, frame.p)
    if np.any(np.abs(mup) < 1e-10):
        raise DegeneracyError("net touches p^perp")
    sigma_plus = -mu / mup[:, None]

    pn = principal_from_legendre(g, mu, xi, frame)
    y = frame.lift_point(pn.x)
    t_lift = frame.lift_tangent(pn.x, pn.n)

    # t = c mu + d xi; tau+ = -c mu ^ xi; eta_G = (d xi ^~ sigma+) - d tau+
    rows = np.stack([np.stack([mup, ip(xi, frame.p)], axis=1),
                     np.stack([ip(mu, frame.q), ip(xi, frame.q)], axis=1)], axis=1)
    rhs = np.tile([-1.0, 0.0], (g.nverts, 1))[..., None]
    coef = np.linalg.solve(rows, rhs)[..., 0]  # rows: (p, .) = -1 and (q, .) = 0
    c_coef = coef[:, 0]
    recon = c_coef[:, None] * mu + coef[:, 1][:, None] * xi
    t_res = np.abs(recon - t_lift).max()
    tau_plus = -c_coef[:, None] * wedge_vec(mu, xi)

    rule = BilinearRule.wedge_product(sig.dim)
    eta_sigma = wedge(_d3(g, xi), Form0(g, sigma_plus), rule).values
    th, tt = g.edge_head, g.edge_tail
    eta_G = eta_sigma - (tau_plus[th] - tau_plus[tt])

    omega = OmegaNet(g, frame, y, t_lift, eta_G, mu_plus=mu.copy(),
                     mu_minus=xi.copy())
    etap = omega.eta_p()
    dt = t_lift[th] - t_lift[tt]
    etap_res = float(np.abs(etap - dt).max(initial=0.0)) / max(
        float(np.abs(dt).max(initial=0.0)), 1e-300)

    dxd = frame.coords3(omega.eta_q())
    xd = integrate_one_form(g, dxd, base=0, check_closed=True, tol=1e-8).values

    quantity = ConservedQuantity(
        p0=np.tile(frame.p, (g.nverts, 1)), p1=xi.copy(), signature=sig)
    diag = dict(diag)
    diag.update({"t_in_span": float(t_res), "eta_p_is_dt": etap_res,
                 "tau_plus": tau_plus, "sigma_plus": sigma_plus,
                 "success": True})
    return GuichardNet(net=net, xi=xi, omega=omega, pn=pn, x_dual=xd,
                       quantity=quantity, diagnostics=diag)


def demoulin_radii(gn: GuichardNet, tol: float = 1e-8,
                   radius_floor: float = 1e-8) -> dict:
    """Reciprocal radii of the enveloped isothermic sphere congruences:
    ``r+ rd- = -1 = r- rd+`` pointwise.

    ``r±`` are the signed radii of the congruences spanned by the
    p-normalized dual lifts; ``rd±`` those of their Christoffel duals
    ``x_dual + pi(tau± q)``.  Vertices with a radius at infinity are
    excluded and counted.
    """
    frame = gn.omega.lie_frame
    sig = frame.signature
    ip = sig.inner
    sigma_plus = gn.diagnostics["sigma_plus"]
    tau_plus = gn.diagnostics["tau_plus"]
    sigma_minus = gn.xi
    tau_minus = tau_plus + wedge_vec(sigma_plus, sigma_minus)

    sp_q = ip(sigma_plus, frame.q)
    sm_q = ip(sigma_minus, frame.q)
    excluded = (np.abs(sp_q) < radius_floor) | (np.abs(sm_q) < radius_floor)
    with np.errstate(divide="ignore"):
        r_plus = -1.0 / sp_q
        r_minus = -1.0 / sm_q

    # x_dual has no p-component, so the dual radii reduce to
    # rd± = -(x_dual + pi(tau± q), p) = -(tau± q, p)
    rd_plus = -ip(_contract(tau_plus, frame.q, sig), frame.p)
    rd_minus = -ip(_contract(tau_minus, frame.q, sig), frame.p)

    res1 = np.abs(r_plus * rd_minus + 1.0)
    res2 = np.abs(r_minus * rd_plus + 1.0)
    res = np.where(excluded, 0.0, np.maximum(res1, res2))
    return {
        "product": float(res.max(initial=0.0)),
        "excluded_vertices": int(excluded.sum()),
        "passed": bool(res.max(initial=0.0) <= tol),
    }


def classify_special(quantity: ConservedQuantity, net: IsothermicNet | None = None,
                     tol: float = 1e-8) -> str:
    """Class tag of a degree-1 conserved quantity.

    Normalizes ``(p(t), p(t)) = a + b t`` by the allowed rescalings
    (constant scale of p, affine rescale of t) and returns one of
    ``guichard_r3``, ``guichard_r21``, ``isothermic``, ``l_guichard``,
    ``l_isothermic``.  A quadratic term above tolerance raises
    :class:`DegeneracyError` (not type 1 with linear norm polynomial).
    """
    coeffs = quantity.norm_polynomial()
    spread = np.abs(coeffs - coeffs[0]).max(initial=0.0)
    scale = max(float(np.abs(coeffs).max(initial=0.0)), 1e-300)
    if spread > tol * max(scale, 1.0):
        raise DegeneracyError("(p(t), p(t)) is not constant across vertices")
    a, b, c2 = coeffs.mean(axis=0)
    if abs(c2) > tol * max(abs(a), abs(b), 1.0):
        raise DegeneracyError("(p(t), p(t)) is not affine linear in t")
    if net is not None and net.grid.nedges:
        finite = net.labels[~net.is_infinite]
        for ts in (-0.9, 0.45, 1.7):
            if finite.size and np.min(np.abs(finite - ts)) < 1e-6:
                continue
            if quantity.parallel_residual(net, ts) > 1e-6:
                raise DegeneracyError("quantity is not parallel for the net")
    zero_a = abs(a) <= tol * max(abs(b), 1.0)
    zero_b = abs(b) <= tol * max(abs(a), 1.0)
    if zero_a and zero_b:
        return "l_isothermic"
    if zero_a:
        return "l_guichard"
    if zero_b:
        return "isothermic"
    return "guichard_r3" if a < 0 else "guichard_r21"


# -- transformations of Legendre maps -------------------------------------

def _matched_pair(omega: OmegaNet, seed: int = 0, use_stored: bool = True):
    """Moutard-matched spanning pair (IsothermicNet s+, s-)."""
    sig = omega.signature
    if use_stored and omega.mu_plus is not None and omega.mu_minus is not None:
        plus = IsothermicNet(omega.grid, sig, omega.mu_plus)
        minus = IsothermicNet(omega.grid, sig, omega.mu_minus)
        ok, _, _ = km_pair_check(omega.grid, plus.mu, minus.mu, tol=1e-7)
        if ok:
            return plus, minus
    pair = extract_pair(omega.congruence(), seed=seed, signature=sig)
    return (IsothermicNet(omega.grid, sig, pair.mu_plus),
            IsothermicNet(omega.grid, sig, pair.mu_minus))


def _omega_from_pair_lifts(grid: Grid, frame: LieFrame, mu_plus, mu_minus):
    mu_plus = np.asarray(mu_plus, float)
    mu_minus = np.asarray(mu_minus, float)
    # the alternating rescale (opposite exponents on the two nets) leaves
    # the form, the labels and any K-Moutard matching invariant while
    # balancing lift norms across the coloring
    parity = 1.0 - 2.0 * (grid.vertex_coords.sum(axis=1) % 2)
    n_even = np.median(np.linalg.norm(mu_plus[parity > 0], axis=1))
    n_odd = np.median(np.linalg.norm(mu_plus[parity < 0], axis=1))
    c = np.sqrt(max(n_odd, 1e-300) / max(n_even, 1e-300))
    mu_plus = mu_plus * (c ** parity)[:, None]
    mu_minus = mu_minus * (c ** (-parity))[:, None]
    pn = principal_from_legendre(grid, mu_plus, mu_minus, frame)
    y = frame.lift_point(pn.x)
    t = frame.lift_tangent(pn.x, pn.n)
    t_, h_ = grid.edge_tail, grid.edge_head
    eta = wedge_vec(mu_plus[h_], mu_plus[t_])
    eta = gauge_normalize(grid, frame, y, t, eta)
    return OmegaNet(grid, frame, y, t, eta, mu_plus=mu_plus, mu_minus=mu_minus)


def darboux_legendre(omega: OmegaNet, m: float, seed=None, rng=None,
                     extraction_seed: int = 0, use_stored: bool = True) -> OmegaNet:
    """Darboux transform of an applicable Legendre map.

    Transforms one enveloped isothermic congruence s+ with parameter
    ``m`` and sets ``f_hat = s_hat+ (+) (f cap s_hat+^perp)``, which is
    independent of the companion used to span ``f``
    (``use_stored=False`` forces a fresh extraction of s+).
    """
    plus, _ = _matched_pair(omega, seed=extraction_seed, use_stored=use_stored)
    rng = np.random.default_rng(13) if rng is None else rng
    hat_plus = darboux_transform(plus, m, seed=seed, rng=rng)
    sig = omega.signature
    ip = sig.inner
    sp = omega.mu_plus if omega.mu_plus is not None else omega.y
    sm = omega.mu_minus if omega.mu_minus is not None else omega.t
    a = ip(sp, hat_plus.mu)
    b = ip(sm, hat_plus.mu)
    inter = b[:, None] * sp - a[:, None] * sm
    norms = np.linalg.norm(inter, axis=1)
    if np.any(norms < 1e-10 * np.linalg.norm(sp, axis=1)):
        raise DegeneracyError("f cap s_hat+^perp is degenerate")
    inter = inter / norms[:, None]
    return _omega_from_pair_lifts(omega.grid, omega.lie_frame,
                                  hat_plus.mu, inter)


def calapso_legendre(omega: OmegaNet, t: float,
                     quantity: ConservedQuantity | None = None,
                     extraction_seed: int = 0):
    """Calapso transform ``f(t) = T+(t) f`` of an applicable Legendre map.

    Returns ``(omega(t), info)``; when a conserved quantity of the plus
    congruence is supplied, its transport ``T(t) p(u + t)`` is returned
    in ``info["quantity"]`` (the norm polynomial shifts by t).
    """
    plus, minus = _matched_pair(omega, seed=extraction_seed)
    stacked = stack_pair(plus, minus)
    st_net, T = calapso_transform(stacked, t)
    n = omega.grid.nverts
    out = _omega_from_pair_lifts(omega.grid, omega.lie_frame,
                                 st_net.mu[:n], st_net.mu[n:])
    info = {"T_plus": T[:n], "T_minus": T[n:]}
    if quantity is not None:
        Tp = T[:n]
        p0 = np.einsum("nab,nb->na", Tp, quantity.p0 + t * quantity.p1)
        p1 = np.einsum("nab,nb->na", Tp, quantity.p1)
        info["quantity"] = ConservedQuantity(p0=p0, p1=p1,
                                             signature=quantity.signature)
    return out, info


def gauge_identity_residual(omega: OmegaNet, t: float) -> float:
    """Residual of ``(exp t tau) . Gamma+(t) = Gamma-(t)`` on all edges,
    with ``tau = mu- ^ mu+`` (isotropic, so the exponential truncates)."""
    if omega.mu_plus is None or omega.mu_minus is None:
        raise ValueError("gauge identity needs the spanning Moutard pair")
    sig = omega.signature
    plus = IsothermicNet(omega.grid, sig, omega.mu_plus)
    minus = IsothermicNet(omega.grid, sig, omega.mu_minus)
    tau = wedge_vec(omega.mu_minus, omega.mu_plus)
    gp = flat_connection(plus, t)
    gm = flat_connection(minus, t)
    g = omega.grid
    worst = 0.0
    eye = np.eye(sig.dim)
    for e in range(g.nedges):
        tl, hd = int(g.edge_tail[e]), int(g.edge_head[e])
        Eh = eye + t * action_matrix(unpack_bivector(tau[hd], sig.dim), sig)
        Et_inv = eye - t * action_matrix(unpack_bivector(tau[tl], sig.dim), sig)
        lhs = Eh @ gp[e] @ Et_inv
        worst = max(worst, float(np.abs(lhs - gm[e]).max()
                                 / max(np.abs(gm[e]).max(), 1e-300)))
    return worst


def dual_legendre(omega: OmegaNet, base: int = 0) -> OmegaNet:
    """Dual Legendre map: the lines through the associate net parallel
    to the original, with the converse-construction form."""
    frame, g = omega.lie_frame, omega.grid
    assoc = associates(omega, base=base)
    pn_dual = PrincipalNet(g, assoc.x_dual, assoc.n)
    y = frame.lift_point(pn_dual.x)
    t = frame.lift_tangent(pn_dual.x, pn_dual.n)
    ip = frame.signature.inner

    def chart_form(partner):
        dv = _d3(g, partner).values                        # (ne, 3) differences
        dv6 = frame.embed3(dv)
        base_net = pn_dual.x
        avg = 0.5 * (base_net[g.edge_tail] + base_net[g.edge_head])
        scal = np.sum(frame.embed3(avg) * (dv6 * frame.signature.signs), axis=1)
        return dv6 + scal[:, None] * frame.q

    alpha = chart_form(assoc.x)
    beta = chart_form(assoc.n_dual)
    rule = BilinearRule.wedge_product(6)
    eta = (wedge(Form1(g, alpha), Form0(g, y), rule).values
           + wedge(Form1(g, beta), Form0(g, t), rule).values)
    return OmegaNet(g, frame, y, t, eta)


def linear_weingarten_check(pn: PrincipalNet, alpha: float, beta: float,
                            gamma: float, tol: float = 1e-8) -> dict:
    """Residual of ``alpha A(n,n) - 2 beta A(x,n) + gamma A(x,x) = 0``.

    Normalized against the non-degenerate reference magnitudes of the
    pure areas so that identically vanishing cross terms (a minimal net,
    say) do not inflate the relative residual.
    """
    g = pn.grid
    ann = mixed_area(Form0(g, pn.n), Form0(g, pn.n)).values
    axn = mixed_area(Form0(g, pn.x), Form0(g, pn.n)).values
    axx = mixed_area(Form0(g, pn.x), Form0(g, pn.x)).values
    lhs = alpha * ann - 2.0 * beta * axn + gamma * axx
    nn = np.abs(ann).max(axis=1)
    xx = np.abs(axx).max(axis=1)
    scale = (abs(alpha) * nn + 2.0 * abs(beta) * np.sqrt(nn * xx)
             + abs(gamma) * xx)
    res = np.abs(lhs).max(axis=1) / np.maximum(scale, 1e-300)
    return {"weingarten": float(res.max(initial=0.0)),
            "passed": bool(res.max(initial=0.0) <= tol)}


# -- example constructions -------------------------------------------------

def sphere_lattice(dims, radius: float = 1.5, center=(0.0, 0.0, 0.0),
                   theta_range=(0.6, 2.1), phi_range=(0.4, 2.3)) -> PrincipalNet:
    """Latitude-longitude patch of a round sphere (constant Gauss
    curvature; inward normals give positive sphere radii)."""
    g = Grid(dims)
    if g.ndim != 2:
        raise ValueError("sphere lattice expects a 2D grid")
    d0, d1 = dims
    thetas = np.linspace(*theta_range, d0)
    phis = np.linspace(*phi_range, d1)
    center = np.asarray(center, float)
    x = np.zeros((g.nverts, 3))
    for a in range(d0):
        for b in range(d1):
            th, ph = thetas[a], phis[b]
            pnt = radius * np.array([np.sin(th) * np.cos(ph),
                                     np.sin(th) * np.sin(ph), np.cos(th)])
            x[g.vertex_index((a, b))] = center + pnt
    n = -(x - center) / radius
    return PrincipalNet(g, x, n)


def minimal_net(dims, seed: int = 0, magnitude: float = 0.25):
    """Minimal principal net: the Christoffel dual of an isothermic net
    in the unit sphere, paired with that sphere net as its Gauss map."""
    from .isothermic import random_isothermic, christoffel_dual
    g = Grid(dims)
    rng = np.random.default_rng(seed)
    sig31 = Signature(3, 1)
    small = random_isothermic(g, sig31, rng, magnitude=magnitude)
    # isometric embedding R^{3,1} -> R^{4,1}: pad a zero fourth spatial slot
    mu5 = np.zeros((g.nverts, 5))
    mu5[:, :3] = small.mu[:, :3]
    mu5[:, 4] = small.mu[:, 3]
    sig41 = Signature(4, 1)
    net5 = IsothermicNet(g, sig41, mu5)
    data = christoffel_dual(net5, sig41.standard_frame())
    n = data.x[:, :3]
    x = data.x_dual[:, :3]
    return PrincipalNet(g, x, n), net5
