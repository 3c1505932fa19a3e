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

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegeneracyError, FrameError, GaugeError,
                     GenerationError)
from .forms import (Form0, Form1, curly_wedge, exterior_derivative, frozen,
                    mixed_area, unpack_bivector, wedge_vec)
from .grid import Grid, integrate_one_form, stack
from .isothermic import (ConservedQuantity, IsothermicNet, _eta_apply, _evolve,
                         _rejected_at, calapso_transform, darboux_transform,
                         flat_connection, stack_pair)
from .koenigs import LineCongruence, _balance, km_pair_check
from .pseudo_euclidean import Frame, Signature, action_matrix, renull, stereo_lift
from .residuals import circularity, cos_angle, floor, gap, rel, sin_angle, worst

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

# Tolerance of the incidence and identity tests of principal, Omega and
# Guichard nets.
_TOL = 1e-8
# Curvatures (reciprocal radii) below this stand for radii at infinity:
# the Eisenhart and Demoulin tests exclude their edges and vertices.
_RADIUS_FLOOR = 1e-8


class LieFrame(Frame):
    """Frame of R^{4,2} adapted to Lie sphere geometry of R^3: a
    :class:`Frame` with a point sphere complex ``p`` and an orthonormal
    basis ``basis3`` of R^3 = span{o, q, p}^perp, read-only like the
    frame vectors."""

    def __init__(self, signature: Signature, o, q, p, basis3):
        if p is None:
            raise ValueError("a Lie frame needs a point sphere complex")
        super().__init__(signature, o, q, p)
        self._store("basis3", basis3, (3, signature.dim))
        ip, rows = signature.inner, self.basis3[:, None]
        if not np.abs(ip(rows, self.basis3) - np.eye(3)).max() <= 1e-10:
            raise ValueError("basis3 must be orthonormal and spacelike")
        if not np.abs(ip(rows, np.stack([self.o, self.q, self.p]))).max() <= 1e-10:
            raise ValueError("basis3 must be orthogonal to the frame vectors")

    def embed3(self, x) -> np.ndarray:
        return np.asarray(x, float) @ self.basis3

    def coords3(self, v) -> np.ndarray:
        return self.signature.inner(np.asarray(v, float)[..., None, :],
                                    self.basis3)

    def lift_point(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        n2 = np.sum(x * x, axis=-1)
        return self.o + self.embed3(x) + 0.5 * n2[..., None] * self.q

    def lift_tangent(self, x, n) -> np.ndarray:
        x = np.asarray(x, float)
        n = np.asarray(n, float)
        xn = np.sum(x * n, axis=-1)
        return self.embed3(n) + self.p + xn[..., None] * self.q


@functools.cache
def standard_lie_frame() -> LieFrame:
    """The Lie frame of ``Signature(4, 2).standard_frame()`` with R^3 =
    span{e1, e2, e3}: built once, as a frame is immutable."""
    f = SIG42.standard_frame()
    return LieFrame(SIG42, f.o, f.q, f.p, np.eye(6)[:3])


def random_lie_frame(rng) -> LieFrame:
    """Cayley transform of a random bivector applied to the standard frame."""
    C = 0.2 * rng.standard_normal((6, 6))
    C = C - C.T
    A = action_matrix(C, SIG42)
    M = np.linalg.solve(np.eye(6) + A, np.eye(6) - A)
    std = standard_lie_frame()
    return LieFrame(SIG42, M @ std.o, M @ std.q, M @ std.p, std.basis3 @ M.T)


# -- principal nets ------------------------------------------------------

class PrincipalNet:
    """Contact element net ``(x, n)``: edge-parallel circular ``x`` with
    unit normals; ``kappa`` solves ``kappa dx + dn = 0`` per edge, and a
    vanishing edge raises there.  :meth:`validate` gives residuals only."""

    def __init__(self, grid: Grid, x, n):
        self.grid = grid
        self.x = np.asarray(x, float)
        self.n = np.asarray(n, float)
        if self.x.shape != (grid.nverts, 3) or self.n.shape != (grid.nverts, 3):
            raise ValueError("x and n must be (nverts, 3)")
        dx, dn = self.dx(), self.dn()
        denom = np.sum(dx * dx, axis=1)
        if np.any(denom <= 1e-300):
            raise DegeneracyError("vanishing edge in the principal net",
                                  where=grid.locate_edge(int(np.argmax(denom <= 1e-300))))
        # a non-finite x or n gives NaN curvatures, which its checks name
        with np.errstate(invalid="ignore", over="ignore"):
            self.kappa = -np.sum(dn * dx, axis=1) / denom

    def dx(self) -> np.ndarray:
        return self.grid.edge_difference(self.x)

    def dn(self) -> np.ndarray:
        return self.grid.edge_difference(self.n)

    def validate(self, frame: LieFrame = standard_lie_frame()) -> dict:
        out = {}
        out["unit_normal"] = float(
            np.abs(np.sum(self.n * self.n, axis=1) - 1.0).max())
        dx, dn = self.dx(), self.dn()
        res = dx * self.kappa[:, None] + dn
        scale = np.maximum(np.linalg.norm(dn, axis=1),
                           np.abs(self.kappa) * np.linalg.norm(dx, axis=1))
        out["curvature_relation"] = float(
            (np.linalg.norm(res, axis=1) / np.maximum(scale, 1.0)).max(initial=0.0))
        out["circularity"] = circularity(frame.lift_point(self.x), self.grid.corners())
        return out


def legendre_lift(pn: PrincipalNet, frame: LieFrame = standard_lie_frame()):
    """Null-plane lifts ``(y, t)`` of a principal net.

    Checks the frame incidence conditions: the lift normalization must
    be solvable along the congruence and no curvature sphere may fall in
    ``p^perp`` or ``q^perp``.  On failure a :class:`FrameError` suggests
    re-drawing the frame (:func:`random_lie_frame`).
    """
    y = frame.lift_point(pn.x)
    t = frame.lift_tangent(pn.x, pn.n)
    ip = frame.signature.inner
    tail, head = pn.grid.ends()
    sphere = pn.kappa[:, None] * y[tail] + t[tail]
    norms = np.linalg.norm(sphere, axis=1)
    bad_p = np.abs(ip(sphere, frame.p)) <= _TOL * norms
    bad_q = np.abs(ip(sphere, frame.q)) <= _TOL * norms
    if np.any(bad_p | bad_q):
        e = int(np.nonzero(bad_p | bad_q)[0][0])
        raise FrameError(
            "curvature sphere meets p^perp or q^perp; re-draw the frame "
            "with random_lie_frame", where=pn.grid.locate_edge(e))
    sphere_h = pn.kappa[:, None] * y[head] + t[head]
    agree = rel(np.linalg.norm(sphere - sphere_h, axis=1), norms)
    return y, t, float(agree.max(initial=0.0))


def principal_from_legendre(grid: Grid, sigma1, sigma2, frame: LieFrame) -> PrincipalNet:
    """Recover ``(x, n)`` from any pair of lifts spanning the planes."""
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

@dataclass(frozen=True)
class OmegaNet:
    """Applicable Legendre map with normalized lifts and gauged form.

    ``eta`` is stored in the gauge ``(eta q, p) = 0`` so the associates
    are canonical up to translation.  ``mu_plus``/``mu_minus``, when
    present, are the Moutard-matched pair that spans the planes (for a
    Guichard net ``mu`` and ``xi / (mu, p)``); the edge labels, the ``m``
    of an omega or guichard file and of both Eisenhart checks, are those
    of ``mu_plus``, and the Legendre transforms move the pair.  A
    ``transform dual`` output has no pair, so no labels, no ``omega.*``
    checks and no Legendre transforms.  Immutable: the arrays are
    :func:`~dnet.forms.frozen` and no field can be rebound.
    """

    grid: Grid
    lie_frame: LieFrame
    y: np.ndarray
    t: np.ndarray
    eta: np.ndarray
    mu_plus: np.ndarray | None = None
    mu_minus: np.ndarray | None = None

    def __post_init__(self):
        for name in ("y", "t", "eta", "mu_plus", "mu_minus"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, frozen(getattr(self, name)))

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

    def frame_residuals(self) -> dict:
        """The null-plane, normalization and ``(eta q, p) = 0`` gauge residuals."""
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
        defect, scale = _gauge_defect(self.eta_q(), self.eta, self.lie_frame)
        out["gauge"] = rel(float(defect), scale)
        return out

    def validate(self) -> dict:
        out = self.frame_residuals()
        out["applicability"] = cong = self.congruence().validate()
        out["passed"] = bool(out["null_planes"] <= 1e-9
                             and out["normalization"] <= 1e-9
                             and out["gauge"] <= _TOL and cong["passed"])
        return out


def _contract(eta_packed: np.ndarray, vec: np.ndarray, sig: Signature) -> np.ndarray:
    """Apply packed bivectors to a fixed vector (batched)."""
    C = unpack_bivector(eta_packed, sig.dim)
    act = -C * sig.signs
    return act @ vec


def _gauge_defect(etaq: np.ndarray, eta: np.ndarray, frame: LieFrame):
    """``max |(eta q, p)|`` from ``etaq = eta q``, and ``max |eta|``: the
    gauge ``(eta q, p) = 0`` holds when the first is small against the second."""
    return (np.abs(frame.signature.inner(etaq, frame.p)).max(initial=0.0),
            np.abs(eta).max(initial=0.0))


def gauge_normalize(grid: Grid, frame: LieFrame, y, t, eta) -> np.ndarray:
    """Shift ``eta`` by ``d(c y^t)`` so that ``(eta q, p) = 0``.

    The scalar edge function ``(eta q, p)`` is closed because ``eta``
    is, so ``c`` integrates; ``(c y^t) q`` contracts to ``c`` against p,
    which makes the condition pointwise linear.
    """
    sig = frame.signature
    etaq_p = sig.inner(_contract(eta, frame.q, sig), frame.p)
    c = integrate_one_form(grid, -etaq_p[:, None])[:, 0]
    c = c - c.mean()      # the constant freedom; centering conditions tau
    tau = c[:, None] * wedge_vec(y, t)
    tt, th = grid.ends()
    out = eta + tau[th] - tau[tt]
    res, scale = _gauge_defect(_contract(out, frame.q, sig), out, frame)
    if res > 1e-8 * floor(scale):
        raise GaugeError(f"gauge normalization failed: residual {res:.3e}")
    return out


def omega_from_darboux_pair(net_plus: IsothermicNet, rng) -> OmegaNet:
    """Span an Omega-net, in the standard Lie frame, by an isothermic net
    and its isotropic Darboux transform, seeded from ``rng``; the form is
    the isothermic one, gauge-normalized."""
    if (net_plus.signature.p, net_plus.signature.q) != (4, 2):
        raise ValueError("Omega-nets live in signature (4, 2)")
    hat = darboux_transform(net_plus, np.inf, rng=rng)
    return _omega_from_pair_lifts(net_plus.grid, standard_lie_frame(), net_plus.mu, hat.mu)


@dataclass
class Associates:
    """Associate net and associate Gauss map with their residuals."""

    x: np.ndarray
    n: np.ndarray
    x_dual: np.ndarray
    n_dual: np.ndarray
    reconstruction: float     # eta = eta_q ^~ y + eta_p ^~ t
    duality: float            # dxd ^~ dx + dnd ^~ dn = 0


def associates(omega: OmegaNet) -> Associates:
    """Integrate ``d x_dual = pi(eta q)`` and ``d n_dual = pi(eta p)``.

    Requires the stored gauge ``(eta q, p) = 0``; the n_dual constant is
    fixed so its p-component vanishes (it does identically since
    ``(eta p, p) = 0``).
    """
    frame, g = omega.lie_frame, omega.grid
    etaq = omega.eta_q()
    etap = omega.eta_p()
    gauge_res, scale = _gauge_defect(etaq, omega.eta, frame)
    if gauge_res > 1e-8 * floor(scale):
        e = int(np.argmax(np.abs(frame.signature.inner(etaq, frame.p))))
        raise GaugeError("associates need the (eta q, p) = 0 gauge", where=g.locate_edge(e))
    dxd = frame.coords3(etaq)
    dnd = frame.coords3(etap)
    xd = integrate_one_form(g, dxd)
    nd = integrate_one_form(g, dnd)
    pn = omega.principal()

    rec = (curly_wedge(Form1(g, etaq), Form0(g, omega.y)).values
           + curly_wedge(Form1(g, etap), Form0(g, omega.t)).values)
    rec_res = rel(float(np.abs(rec - omega.eta).max(initial=0.0)),
                  np.abs(omega.eta).max(initial=0.0))

    dual_res = _duality_defect(pn, xd, nd) / max(float(np.abs(xd).max(initial=0.0)), 1.0)
    return Associates(x=pn.x, n=pn.n, x_dual=xd, n_dual=nd,
                      reconstruction=rec_res, duality=dual_res)


def _d3(g: Grid, values: np.ndarray) -> Form1:
    return exterior_derivative(Form0(g, values))


def _duality_defect(pn: PrincipalNet, x_dual, n_dual) -> float:
    """``max |dxd ^~ dx + dnd ^~ dn|`` over the quads, 0 for a dual pair; each
    caller divides it by its own scale."""
    quad = (curly_wedge(_d3(pn.grid, x_dual), _d3(pn.grid, pn.x)).values
            + curly_wedge(_d3(pn.grid, n_dual), _d3(pn.grid, pn.n)).values)
    return float(np.abs(quad).max(initial=0.0))


def check_omega(pn: PrincipalNet, x_dual, n_dual) -> dict:
    """Duality residual of ``dxd ^~ dx + dnd ^~ dn = 0`` per quad, after
    the edge-parallel test of ``x_dual`` and ``n_dual``, which raises at
    the worst edge.  Fields too large for their products give inf or
    NaN, which fail, and no numpy warning."""
    g = pn.grid
    x_dual = np.asarray(x_dual, float)
    n_dual = np.asarray(n_dual, float)
    with np.errstate(over="ignore", invalid="ignore"):
        dx = pn.dx()
        for name, v in (("x_dual", x_dual), ("n_dual", n_dual)):
            value, e = worst(sin_angle(g.edge_difference(v), dx))
            if value > 1e-6:
                raise DegeneracyError(f"{name} is not edge-parallel to x",
                                      where=g.locate_edge(e))
        scale = max(float(np.abs(x_dual).max(initial=0.0) + np.abs(n_dual).max(initial=0.0)), 1.0)
        return {"duality": _duality_defect(pn, x_dual, n_dual) / scale}


def omega_edge_labels(omega: OmegaNet) -> np.ndarray:
    """Edge labels ``1 / (mu+_i, mu+_j)`` of the stored spanning pair
    (``inf`` on isotropic edges): an Omega-net's labelling is that of
    the isothermic congruence that spans it."""
    if omega.mu_plus is None:
        raise ValueError("edge labels need the spanning Moutard pair")
    return IsothermicNet(omega.grid, omega.signature, omega.mu_plus).labels


def eisenhart_general(pn: PrincipalNet, x_dual, n_dual, labels) -> dict:
    """Pairing identity ``(dx, dxd) + (dn, dnd) = -2/m`` per edge."""
    g = pn.grid
    dxd = g.edge_difference(np.asarray(x_dual, float))
    dnd = g.edge_difference(np.asarray(n_dual, float))
    lhs = np.sum(pn.dx() * dxd, axis=1) + np.sum(pn.dn() * dnd, axis=1)
    return {"pairing": float(gap(lhs, _eisenhart_rhs(labels)).max(initial=0.0))}


def _eisenhart_rhs(labels) -> np.ndarray:
    """``-2/m`` per edge, 0 on the edges with an infinite label ``m``."""
    labels = np.asarray(labels, float)
    return np.where(np.isinf(labels), 0.0, -2.0 / np.where(np.isinf(labels), 1.0, labels))


def check_guichard(pn: PrincipalNet, x_dual) -> dict:
    """Associate-net test ``A(x_dual, x) + A(n, n) = 0`` per quad."""
    g = pn.grid
    a1 = mixed_area(Form0(g, np.asarray(x_dual, float)), Form0(g, pn.x)).values
    a2 = mixed_area(Form0(g, pn.n), Form0(g, pn.n)).values
    res = rel(np.abs(a1 + a2).max(axis=1),
              np.maximum(np.abs(a1).max(axis=1), np.abs(a2).max(axis=1)))
    return {"associate": float(res.max(initial=0.0))}


def eisenhart_guichard(pn: PrincipalNet, x_dual, labels) -> dict:
    """Directed-length identity ``d dd (1 + 1/(r rd)) = -2/m`` per edge,
    plus the ratio identity ``d/r = dd/rd``; edges with a vanishing
    curvature on either net are excluded and reported."""
    g = pn.grid
    dx = pn.dx()
    dn = pn.dn()
    dxd = g.edge_difference(np.asarray(x_dual, float))
    dlen = np.linalg.norm(dx, axis=1)
    unit = dx / dlen[:, None]
    dd = np.sum(dxd * unit, axis=1)
    denom = np.sum(dxd * dxd, axis=1)
    kappad = rel(-np.sum(dn * dxd, axis=1), denom)
    excluded = (np.abs(pn.kappa) < _RADIUS_FLOOR) | (np.abs(kappad) < _RADIUS_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 1.0 / pn.kappa
        rd = 1.0 / kappad
        lhs = dlen * dd * (1.0 + 1.0 / (r * rd))
    res = np.where(excluded, 0.0, gap(lhs, _eisenhart_rhs(labels)))
    ratio = rel(np.abs(dlen / r - dd / rd), np.abs(dlen / r))
    ratio = np.where(excluded, 0.0, ratio)
    return {"eisenhart": float(res.max(initial=0.0)),
            "ratio_identity": float(ratio.max(initial=0.0)),
            "excluded_edges": int(excluded.sum())}


# -- Guichard nets -------------------------------------------------------

@dataclass
class GuichardNet:
    """Guichard net with its special-isothermic data.

    ``net`` is the enveloped isothermic sphere congruence s+ (Moutard
    lift ``mu``), ``xi`` the null Koenigs dual with ``(xi, p) = -1``
    spanning s-, ``omega`` the lifted Omega-net in the Guichard gauge
    with the Moutard-matched pair ``mu``, ``xi / (mu, p)`` stored,
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


# Candidates each search for ``xi`` at the base and each Cauchy step of a
# Guichard attempt tries before it gives up.
_TRIES = 64
# The blocks of Guichard attempts made together: a small first block
# keeps a call that succeeds at once cheap.
_ATTEMPT_BLOCKS = (4, 16, 16, 12)
_REJECTIONS = ("base point", "Cauchy step", "evolution", "net invalid",
               "orthogonality", "coefficient_dev")


def guichard_generate(dims, seed: int, skip_constraint_at: int | None = None):
    """Generate a Guichard net in the standard Lie frame from constrained
    Cauchy data.

    Along the two initial lines every step draws a null lift and
    rescales it (closed form) so that the running Koenigs dual ``xi``
    (with ``d xi = eta p``) stays orthogonal to the net; the interior is
    filled by the Moutard evolution and the conditions are verified at
    interior vertices.  Returns a :class:`GuichardNet` on success and
    raises :class:`GenerationError` after 48 attempts, with one line
    that counts the attempts rejected at each stage and gives the best
    orthogonality and ``coefficient_dev`` reached.

    ``skip_constraint_at`` deliberately skips the rescaling at one
    Cauchy step (fault injection for the verification path); the
    diagnostics of the first attempt that completes then localize the
    violation.

    Draw order: attempt ``i`` reads only ``numpy.random.default_rng([seed,
    i])``: a ``standard_normal(d)`` row for the base point, 64 rows of
    ``d - 2`` normals for the search for ``xi`` there, then 64 candidate
    rows of ``d`` normals per Cauchy step, the steps of axis 0 before
    those of axis 1; each step draws its candidates when it runs.  The
    search and every step take their first passing candidate.  Attempts
    are made in blocks of 4, 16, 16 and 12, stage by stage over the
    block, and the first attempt in order that passes is returned, so the
    result does not depend on the block sizes.
    """
    frame = standard_lie_frame()
    g = Grid(dims)
    if g.ndim != 2:
        raise ValueError("Guichard generation expects a 2D grid")
    counts = dict.fromkeys(_REJECTIONS, 0)
    best_orth = best_dev = np.inf
    start = 0
    for size in _ATTEMPT_BLOCKS:
        attempts = range(start, start + size)
        start += size
        for out in _guichard_attempts(g, frame, seed, attempts, skip_constraint_at):
            if isinstance(out, str):
                counts[out] += 1
                continue
            net, xi, diag = out
            if skip_constraint_at is not None:
                return _guichard_report_failure(net, xi, diag)
            failed = [name for name, ok in (
                ("net invalid", diag["net_valid"]),
                ("orthogonality", diag["orthogonality"] <= 1e-8),
                ("coefficient_dev", diag["coefficient_dev"] <= 1e-10)) if not ok]
            if not failed:
                return _guichard_package(net, xi, frame, diag)
            counts[failed[0]] += 1
            best_orth = min(best_orth, diag["orthogonality"])
            best_dev = min(best_dev, diag["coefficient_dev"])
    raise GenerationError(
        f"Guichard generation failed after {sum(_ATTEMPT_BLOCKS)} attempts: "
        f"{_rejected_at(counts)}; best orthogonality {best_orth:.3e}, "
        f"best coefficient_dev {best_dev:.3e}")


def _guichard_attempts(g: Grid, frame: LieFrame, seed: int, attempts, skip_constraint_at):
    """Make the Guichard ``attempts`` together, each stage batched over a
    leading attempt axis; yields, per attempt in order, the stage that
    rejected it (see ``_REJECTIONS``) or its ``(net, xi, diag)``.  The
    net is validated when its turn comes."""
    sig = frame.signature
    ip, d, (d0, d1) = sig.inner, sig.dim, g.dims
    n = len(attempts)
    # each attempt's stream: the base row and the search for xi here, the
    # candidates of each Cauchy step when that step runs
    streams = [np.random.default_rng([seed, i]) for i in attempts]
    rows = np.stack([rng.standard_normal(d + _TRIES * (d - 2)) for rng in streams])
    reason = np.full(n, -1)

    # base: mu null with (mu, p) != 0; xi null, (xi, p) = -1, (xi, mu) = 0
    mu0 = stereo_lift(frame.pi(rows[:, :d]), frame)
    reason[np.abs(ip(mu0, frame.p)) < 0.05] = 0
    # least-norm solution of (v, p) = -1, (v, mu0) = 0, and the kernel
    a1, a2 = frame.p * sig.signs, mu0 * sig.signs
    g11, g12, g22 = (np.add.reduce(u * v, axis=-1) for u, v in ((a1, a1), (a2, a1), (a2, a2)))
    particular = (g12[:, None] * a2 - g22[:, None] * a1) / (g11 * g22 - g12 * g12)[:, None]
    kernel = np.linalg.svd(np.stack([np.broadcast_to(a1, a2.shape), a2], axis=1))[2][:, 2:]
    k = rows[:, d:d + _TRIES * (d - 2)].reshape(n, _TRIES, d - 2) @ kernel
    qa, qb = ip(k, k), 2.0 * ip(particular[:, None], k)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = qb * qb - 4 * qa * ip(particular, particular)[:, None]
        v = particular[:, None] + ((-qb + np.sqrt(disc)) / (2 * qa))[..., None] * k
        found = (np.abs(qa) >= 1e-14) & (disc > 0) & (np.linalg.norm(v, axis=-1) > 1e-8)
    reason[(reason < 0) & ~found.any(axis=1)] = 0
    xi0 = v[np.arange(n), np.argmax(found, axis=1)]
    xi_prev = np.repeat(xi0[:, None], 2, axis=1)

    # Cauchy steps, those of axis 0 before those of axis 1, each the first
    # passing candidate of the attempts still live
    lines = np.zeros((n, 2, max(d0, d1), d))
    lines[:, :, 0] = mu0[:, None]
    for ll, s in [(0, s) for s in range(1, d0)] + [(1, s) for s in range(1, d1)]:
        index = s if ll == 0 else d0 - 1 + s      # the step's place in the stream
        kk = np.flatnonzero(reason < 0)
        if not len(kk):
            break
        cand = 0.25 * np.stack([streams[k].standard_normal((_TRIES, d)) for k in kk])
        mu_prev, xp = lines[kk, ll, s - 1], xi_prev[kk, ll]
        skip = np.full(len(kk), index == skip_constraint_at)
        ok, mu_next = _cauchy_candidates(frame, mu_prev, xp, skip, frame.pi(cand))
        mu_next = mu_next[np.arange(len(kk)), np.argmax(ok, axis=1)]
        reason[kk[~ok.any(axis=1)]] = 1
        lines[kk, ll, s] = mu_next
        # a step without a passing candidate ends its attempt; its unused
        # first candidate may not be finite
        with np.errstate(invalid="ignore", over="ignore"):
            xi_prev[kk, ll] = (xp + ip(mu_next, frame.p)[:, None] * mu_prev
                               - ip(mu_prev, frame.p)[:, None] * mu_next)

    # an attempt with a degenerate diagonal is evolved on, dividing by its
    # near-zero denominators, while others in the block are live
    live = np.flatnonzero(reason < 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu, failures = _evolve(sig, lines[live, 0, :d0], lines[live, 1, :d1], frame)
    reason[live[[f is not None for f in failures]]] = 2
    done = np.flatnonzero(reason < 0)
    mu = mu[reason[live] < 0].reshape(len(done), g.nverts, d)

    # xi everywhere from d xi = eta p, all attempts in one integration;
    # d(eta p) on a quad is p put into (mu_k - mu_i) ^ (mu_l - mu_j), the
    # Moutard residual of validate, so closedness is left to validate
    etap = _eta_apply(sig, g, mu, frame.p).transpose(1, 0, 2)
    xi = integrate_one_form(g, etap.reshape(g.nedges, -1), seed=xi0[done].reshape(-1),
                            check_closed=False)
    xi = xi.reshape(g.nverts, len(done), d).transpose(1, 0, 2)
    orth, dev = special_residuals(frame, mu, xi)
    for k in range(n):
        if reason[k] >= 0:
            yield _REJECTIONS[reason[k]]
            continue
        j = int(np.searchsorted(done, k))
        net = IsothermicNet(g, sig, mu[j])
        yield net, xi[j], {
            "orthogonality": float(orth[j].max(initial=0.0)),
            "orthogonality_map": orth[j],
            "coefficient_dev": float(dev[j].max(initial=0.0)),
            "net_valid": bool(net.validate(margin=1e-5)["passed"]),
        }


def special_residuals(frame: LieFrame, mu, xi):
    """Per vertex, ``|cos|`` of the angle of ``xi`` and ``mu``, and the worst
    gap of the coefficients of ``(p + t xi, p + t xi)`` to ``-1 - 2t``."""
    ip = frame.signature.inner
    orth = cos_angle(ip(xi, mu), np.linalg.norm(xi, axis=-1), np.linalg.norm(mu, axis=-1))
    coeffs = np.stack([np.full(orth.shape, ip(frame.p, frame.p)), 2.0 * ip(frame.p, xi),
                       ip(xi, xi)], axis=-1)
    return orth, np.abs(coeffs - np.array([-1.0, -2.0, 0.0])).max(axis=-1)


def _cauchy_candidates(frame: LieFrame, mu_prev, xi_prev, skip, deltas):
    """Guichard Cauchy steps after the lifts ``mu_prev`` ``(P, d)`` from
    the candidate rows ``deltas`` ``(P, c, d)``: each candidate's lift is
    null and keeps ``xi`` orthogonal, or skips that rescaling where
    ``skip``.  Returns which candidates pass and their lifts."""
    ip = frame.signature.inner
    prev_norm = np.linalg.norm(mu_prev, axis=-1)[:, None]
    w = (mu_prev / prev_norm)[:, None] + deltas
    wq = ip(w, frame.q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = renull(w, frame)
        wp, wm = ip(w, frame.p), ip(mu_prev[:, None], w)
        alpha = np.where(skip[:, None], 1.0 / np.linalg.norm(w, axis=-1),
                         -ip(xi_prev[:, None], w) / (wp * wm))
        mu_next = alpha[..., None] * w
        nn = np.linalg.norm(mu_next, axis=-1)
        ok = ((np.abs(wq) >= 1e-6) & ~(np.abs(wp) < 0.02) & ~(np.abs(wm) < 1e-6)
              & (0.25 * prev_norm < nn) & (nn < 4.0 * prev_norm) & (0.1 < nn) & (nn < 10.0))
    return ok, mu_next


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
    c_coef = np.linalg.solve(rows, rhs)[:, 0, 0]  # rows: (p, .) = -1 and (q, .) = 0
    tau_plus = -c_coef[:, None] * wedge_vec(mu, xi)

    eta_sigma = curly_wedge(_d3(g, xi), Form0(g, sigma_plus)).values
    eta_G = eta_sigma - g.edge_difference(tau_plus)

    omega = OmegaNet(g, frame, y, t_lift, eta_G, mu_plus=mu,
                     mu_minus=xi / mup[:, None])
    dxd = frame.coords3(omega.eta_q())
    xd = integrate_one_form(g, dxd)

    quantity = ConservedQuantity(
        p0=np.tile(frame.p, (g.nverts, 1)), p1=xi.copy(), signature=sig)
    diag = dict(diag)
    diag.update({"tau_plus": tau_plus, "sigma_plus": sigma_plus, "success": True})
    return GuichardNet(net=net, xi=xi, omega=omega, pn=pn, x_dual=xd,
                       quantity=quantity, diagnostics=diag)


def demoulin_radii(gn: GuichardNet) -> dict:
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
    excluded = (np.abs(sp_q) < _RADIUS_FLOOR) | (np.abs(sm_q) < _RADIUS_FLOOR)
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
    return {"product": float(res.max(initial=0.0)), "excluded_vertices": int(excluded.sum())}


def classify_special(quantity: ConservedQuantity, net: IsothermicNet | None = None) -> str:
    """Class tag of a degree-1 conserved quantity.

    Normalizes ``(p(t), p(t)) = a + b t`` by the allowed rescalings
    (constant scale of p, affine rescale of t) and returns one of
    ``guichard_r3``, ``guichard_r21``, ``isothermic``, ``l_guichard``,
    ``l_isothermic``.  A quadratic term above tolerance raises
    :class:`DegeneracyError` (not type 1 with linear norm polynomial).
    """
    coeffs = quantity.norm_polynomial()
    if quantity.coefficient_spread() > _TOL * max(floor(np.abs(coeffs).max(initial=0.0)), 1.0):
        raise DegeneracyError("(p(t), p(t)) is not constant across vertices")
    a, b, c2 = coeffs.mean(axis=0)
    if abs(c2) > _TOL * max(abs(a), abs(b), 1.0):
        raise DegeneracyError("(p(t), p(t)) is not affine linear in t")
    if net is not None and net.grid.nedges:
        for ts in (-0.9, 0.45, 1.7):
            if net.nearest_label(ts)[0] < 1e-6:
                continue
            if quantity.parallel_residual(net, ts) > 1e-6:
                raise DegeneracyError("quantity is not parallel for the net")
    zero_a = abs(a) <= _TOL * max(abs(b), 1.0)
    zero_b = abs(b) <= _TOL * max(abs(a), 1.0)
    if zero_a and zero_b:
        return "l_isothermic"
    if zero_a:
        return "l_guichard"
    if zero_b:
        return "isothermic"
    return "guichard_r3" if a < 0 else "guichard_r21"


# -- transformations of Legendre maps -------------------------------------

def _matched_pair(omega: OmegaNet):
    """The stored spanning pair (IsothermicNet s+, s-); a one-line
    :class:`ValueError` without it or when :func:`km_pair_check` finds
    it not Moutard-matched."""
    if omega.mu_plus is None or omega.mu_minus is None:
        raise ValueError("Legendre transforms need the spanning Moutard pair")
    ok, _, rep = km_pair_check(omega.grid, omega.mu_plus, omega.mu_minus, tol=1e-7)
    if not ok:
        raise ValueError(f"the stored pair is not Moutard-matched: vertical Moutard "
                         f"residual {rep['vertical_moutard']:.3e}")
    return tuple(IsothermicNet(omega.grid, omega.signature, mu)
                 for mu in (omega.mu_plus, omega.mu_minus))


def _omega_from_pair_lifts(grid: Grid, frame: LieFrame, mu_plus, mu_minus):
    """The Omega-net spanned by the Moutard pair ``mu_plus``, ``mu_minus``,
    with the form ``eta+`` gauge-normalized."""
    pn = principal_from_legendre(grid, mu_plus, mu_minus, frame)
    y = frame.lift_point(pn.x)
    t = frame.lift_tangent(pn.x, pn.n)
    t_, h_ = grid.ends()
    eta = wedge_vec(mu_plus[h_], mu_plus[t_])
    eta = gauge_normalize(grid, frame, y, t, eta)
    return OmegaNet(grid, frame, y, t, eta, mu_plus=mu_plus, mu_minus=mu_minus)


def darboux_legendre(omega: OmegaNet, m: float, rng, seed=None) -> OmegaNet:
    """Darboux transform of an applicable Legendre map.

    Transforms one enveloped isothermic congruence s+ with parameter
    ``m`` (from ``seed``, else from seeds drawn from ``rng``) and sets
    ``f_hat = s_hat+ (+) (f cap s_hat+^perp)``, which is independent of
    the companion used to span ``f``.
    """
    plus, minus = _matched_pair(omega)
    hat_plus = darboux_transform(plus, m, rng, seed=seed)
    ip = omega.signature.inner
    a = ip(plus.mu, hat_plus.mu)
    b = ip(minus.mu, hat_plus.mu)
    inter = b[:, None] * plus.mu - a[:, None] * minus.mu
    norms = np.linalg.norm(inter, axis=1)
    if np.any(norms < 1e-10 * np.linalg.norm(plus.mu, axis=1)):
        raise DegeneracyError("f cap s_hat+^perp is degenerate")
    inter = inter / norms[:, None]
    return _omega_from_pair_lifts(omega.grid, omega.lie_frame,
                                  *_balance(omega.grid, hat_plus.mu, inter))


def calapso_legendre(omega: OmegaNet, t: float,
                     quantity: ConservedQuantity | None = None):
    """Calapso transform ``f(t) = T+(t) f`` of an applicable Legendre map.

    Returns ``(omega(t), info)``; when a conserved quantity of the plus
    congruence is supplied, its transport ``T(t) p(u + t)`` is returned
    in ``info["quantity"]`` (the norm polynomial shifts by t).
    """
    plus, minus = _matched_pair(omega)
    stacked = stack_pair(plus, minus)
    st_net, T = calapso_transform(stacked, t)
    n = omega.grid.nverts
    out = _omega_from_pair_lifts(omega.grid, omega.lie_frame,
                                 *_balance(omega.grid, st_net.mu[:n], st_net.mu[n:]))
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
    g, eye = omega.grid, np.eye(sig.dim)
    act = t * action_matrix(unpack_bivector(tau, sig.dim), sig)
    tail, head = g.ends()
    lhs = (eye + act[head]) @ gp @ (eye - act[tail])
    return float(rel(np.abs(lhs - gm).max(axis=(1, 2), initial=0.0),
                     np.abs(gm).max(axis=(1, 2), initial=0.0)).max(initial=0.0))


def dual_legendre(omega: OmegaNet) -> OmegaNet:
    """Dual Legendre map: the lines through the associate net parallel
    to the original, with the converse-construction form."""
    frame, g = omega.lie_frame, omega.grid
    assoc = associates(omega)
    pn_dual = PrincipalNet(g, assoc.x_dual, assoc.n)
    y = frame.lift_point(pn_dual.x)
    t = frame.lift_tangent(pn_dual.x, pn_dual.n)

    def chart_form(partner):
        dv = _d3(g, partner).values                        # (ne, 3) differences
        dv6 = frame.embed3(dv)
        tail, head = g.ends()
        avg = 0.5 * (pn_dual.x[tail] + pn_dual.x[head])
        scal = np.sum(frame.embed3(avg) * (dv6 * frame.signature.signs), axis=1)
        return dv6 + scal[:, None] * frame.q

    alpha = chart_form(assoc.x)
    beta = chart_form(assoc.n_dual)
    eta = (curly_wedge(Form1(g, alpha), Form0(g, y)).values
           + curly_wedge(Form1(g, beta), Form0(g, t)).values)
    return OmegaNet(g, frame, y, t, eta)


def linear_weingarten_check(pn: PrincipalNet, alpha: float, beta: float,
                            gamma: float) -> dict:
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
    res = rel(np.abs(lhs).max(axis=1), scale)
    return {"weingarten": float(res.max(initial=0.0))}


# -- example constructions -------------------------------------------------

def sphere_lattice(dims, radius: float, center=(0.0, 0.0, 0.0)) -> PrincipalNet:
    """Latitude-longitude patch of a round sphere (constant Gauss
    curvature; inward normals give positive sphere radii)."""
    g = Grid(dims)
    if g.ndim != 2:
        raise ValueError("sphere lattice expects a 2D grid")
    th, ph = np.meshgrid(np.linspace(0.6, 2.1, g.dims[0]),
                         np.linspace(0.4, 2.3, g.dims[1]), indexing="ij")
    center = np.asarray(center, float)
    x = center + radius * np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                                    np.cos(th)], axis=-1).reshape(g.nverts, 3)
    n = -(x - center) / radius
    return PrincipalNet(g, x, n)


def minimal_net(dims, seed: int, magnitude: float = 0.25):
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
