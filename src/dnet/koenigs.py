"""Koenigs nets and applicable line congruences in P(V).

A net ``s`` into P(V) is Koenigs when it carries a closed, never-zero
1-form ``eta`` with ``eta_ji`` in ``s_j ^ s_i``; equivalently it admits
a Moutard lift ``mu`` with ``eta_ji = mu_j ^ mu_i``.  A line congruence
``f`` (null of that structure: 2-planes meeting along edges) is
applicable when it carries a closed ``eta`` valued in ``Lambda^2 f_ij``
that stays off the intersection lines; such congruences are exactly the
spans of K-Moutard pairs of Koenigs nets, and this module constructs the
spanning pair by parallel transport in the bipartite projective-line
bundles built from the edge maps ``g_ij``.

Bivector-valued forms are handled in packed (lexicographic) coordinates
throughout; see :mod:`dnet.forms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ChartError, DegeneracyError, NotDualError,
                     NotKoenigsError, SeedDegeneracyError)
from .forms import (Form0, curly_wedge, exterior_derivative, mixed_area,
                    unpack_bivector, wedge_vec)
from .grid import Grid, integrate_one_form
from .pseudo_euclidean import line_distance

__all__ = [
    "ProjectiveNet", "LineCongruence", "ExtractedPair",
    "random_moutard_net", "moutard_lift_from_eta", "koenigs_dual",
    "km_pair_check", "g_map", "g_map_inverse", "extract_pair",
    "christoffel_ratio", "pluecker_residual",
]


def pluecker_residual(packed: np.ndarray, d: int) -> np.ndarray:
    """Relative residual of the quadratic Pluecker (decomposability)
    form of packed bivectors (batched)."""
    C = unpack_bivector(packed, d)
    idx = [(a, b, c, e) for a in range(d) for b in range(a + 1, d)
           for c in range(b + 1, d) for e in range(c + 1, d)]
    if not idx:
        return np.zeros(packed.shape[:-1])
    vals = np.stack([
        C[..., a, b] * C[..., c, e] - C[..., a, c] * C[..., b, e]
        + C[..., a, e] * C[..., b, c]
        for (a, b, c, e) in idx], axis=-1)
    scale = np.maximum(np.sum(packed * packed, axis=-1), 1e-300)
    return np.linalg.norm(vals, axis=-1) / scale


def _trivector(C: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Components (a<b<c) of ``C ^ v`` for antisymmetric matrices C,
    batched over leading axes."""
    d = v.shape[-1]
    comps = [C[..., a, b] * v[..., c] + C[..., b, c] * v[..., a] + C[..., c, a] * v[..., b]
             for a in range(d) for b in range(a + 1, d) for c in range(b + 1, d)]
    return np.stack(comps, axis=-1)


def _dot_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each taken as one dot, the
    sum ``np.linalg.norm`` takes for a single vector."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _span_of_bivector(C: np.ndarray, tol: float = 1e-8):
    """Orthonormal bases of the 2-planes of decomposable bivectors,
    batched over leading axes.

    Returns the bases and the ``(mask, message)`` degeneracies, in the
    order they are tested; see :func:`_raise_first`.
    """
    U, sv, _ = np.linalg.svd(C)
    failures = [
        (sv[..., 1] <= tol * np.maximum(sv[..., 0], 1e-300),
         "bivector has rank < 2"),
        (np.any(sv[..., 2:3] > 100 * tol * sv[..., :1], axis=-1),
         "bivector is not decomposable"),
    ]
    return U[..., :2], failures


def _plane_intersection(B1: np.ndarray, B2: np.ndarray, tol: float = 1e-8):
    """Unit vectors spanning the intersection of two 2-planes (``d x 2``
    bases), batched over leading axes, with their degeneracy."""
    _, _, Vt = np.linalg.svd(np.concatenate([B1, -B2], axis=-1))
    v = (B1 @ Vt[..., -1, :2, None])[..., 0]
    n = _dot_norm(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = v / n[..., None]
    return v, [(n <= tol, "planes do not intersect transversally")]


def _first_failure(failures):
    """``(element, test)`` of the first degenerate element of a batched
    helper result and its first failed test, in the order a per-element
    loop meets them; None when every element passes."""
    bad = np.any([mask for mask, _ in failures], axis=0)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    return k, next(n for n, (mask, _) in enumerate(failures) if mask[k])


def _raise_first(failures) -> None:
    """Raise the first degeneracy of an unbatched helper result."""
    for mask, message in failures:
        if mask:
            raise DegeneracyError(message)


# -- nets ---------------------------------------------------------------

@dataclass
class ProjectiveNet:
    """Vertex map into P(V) given by lift vectors, optionally packaged
    with a Koenigs form ``eta`` (packed, on canonical edge orientations)."""

    grid: Grid
    lifts: np.ndarray
    eta: np.ndarray | None = None

    def __post_init__(self):
        self.lifts = np.asarray(self.lifts, float)
        if self.lifts.shape[0] != self.grid.nverts:
            raise ValueError("one lift vector per vertex required")
        if self.eta is not None:
            self.eta = np.asarray(self.eta, float)
            if self.eta.shape[0] != self.grid.nedges:
                raise ValueError("eta must have one value per edge")

    @property
    def dim(self) -> int:
        return self.lifts.shape[1]

    def eta_on(self, tail: int, head: int) -> np.ndarray:
        e = self.grid.oriented_edge(tail, head)
        return e.sign * self.eta[e.index]

    def regularity_report(self, margin: float = 1e-6):
        """Smallest pairwise line distance and span margin over quads."""
        g = self.grid
        worst_pair, worst_span = np.inf, np.inf
        for n in range(g.nquads):
            vs = self.lifts[g.quad_vertices[n]]
            for aa in range(4):
                for bb in range(aa + 1, 4):
                    worst_pair = min(worst_pair, line_distance(vs[aa], vs[bb]))
            sv = np.linalg.svd(vs.T, compute_uv=False)
            worst_span = min(worst_span, float(sv[2] / max(sv[0], 1e-300)))
        ok = worst_pair >= margin and worst_span >= margin
        return ok, {"pairwise_distinct": worst_pair, "span_margin": worst_span}


def random_moutard_net(grid: Grid, dim: int, rng, scale: float = 0.4):
    """Random projective Moutard net on a 2D grid.

    Cauchy lines are a perturbed affine frame path; interior vertices are
    filled by ``mu_k = mu_i + c (mu_l - mu_j)`` with a random nonzero
    Moutard factor per quad, which keeps the diagonal-parallel property
    by construction.
    """
    if grid.ndim != 2:
        raise ValueError("random Moutard nets are generated on 2D grids")
    d0, d1 = grid.dims
    mu = np.zeros((grid.nverts, dim))
    base = rng.standard_normal(dim)
    base /= np.linalg.norm(base)
    mu[grid.vertex_index((0, 0))] = base
    for a in range(1, d0):
        prev = mu[grid.vertex_index((a - 1, 0))]
        mu[grid.vertex_index((a, 0))] = prev + scale * rng.standard_normal(dim)
    for b in range(1, d1):
        prev = mu[grid.vertex_index((0, b - 1))]
        mu[grid.vertex_index((0, b))] = prev + scale * rng.standard_normal(dim)
    for a in range(1, d0):
        for b in range(1, d1):
            vi = mu[grid.vertex_index((a - 1, b - 1))]
            vj = mu[grid.vertex_index((a, b - 1))]
            vl = mu[grid.vertex_index((a - 1, b))]
            c = 0.5 + rng.random()
            mu[grid.vertex_index((a, b))] = vi + c * (vl - vj)
    eta = wedge_vec(mu[grid.edge_head], mu[grid.edge_tail])
    return ProjectiveNet(grid, mu, eta), mu


def moutard_lift_from_eta(net: ProjectiveNet, seed, base: int = 0,
                          tol: float = 1e-8) -> np.ndarray:
    """Recover the Moutard lift with ``eta_ji = mu_j ^ mu_i`` from a seed
    lift at the base vertex.

    Propagation runs along the staircase tree; every non-tree edge is
    then verified, and an inconsistency (the quad propagation test that
    fails exactly when the net is not Koenigs) raises
    :class:`NotKoenigsError` naming the edge.
    """
    if net.eta is None:
        raise ValueError("net carries no eta form")
    g = net.grid
    seed = np.asarray(seed, float)
    if line_distance(seed, net.lifts[base]) > 1e-8:
        raise ValueError("seed must span the net line at the base vertex")
    mu = np.zeros_like(net.lifts)
    mu[base] = seed
    for v, parent, slot, sign in g.staircase_tree(base):
        eta_vp = sign * net.eta[slot]          # eta on edge parent -> v
        w = wedge_vec(net.lifts[v], mu[parent])
        ww = float(w @ w)
        if ww <= 1e-300:
            raise DegeneracyError("coincident lines on an edge",
                                  where=g.locate_edge(slot))
        coef = float(eta_vp @ w) / ww
        resid = np.linalg.norm(eta_vp - coef * w)
        if resid > tol * max(np.linalg.norm(eta_vp), 1e-300):
            raise NotKoenigsError(
                "eta is not supported on the edge line pair",
                where=g.locate_edge(slot), residual=float(resid))
        mu[v] = coef * net.lifts[v]
    # consistency on all edges (fails iff the net is not Koenigs)
    rec = wedge_vec(mu[g.edge_head], mu[g.edge_tail])
    num = np.linalg.norm(rec - net.eta, axis=1)
    den = max(float(np.linalg.norm(net.eta, axis=1).max(initial=0.0)), 1e-300)
    worst = int(np.argmax(num)) if len(num) else 0
    if len(num) and num[worst] > tol * den:
        raise NotKoenigsError(
            f"Moutard propagation inconsistent: residual {num[worst]/den:.3e}",
            where=g.locate_edge(worst), residual=float(num[worst] / den))
    return mu


def koenigs_dual(net: ProjectiveNet, alpha, base: int = 0, seed=None,
                 tol: float = 1e-8):
    """Koenigs dual in the affine chart ``alpha = -1``.

    Returns ``(F, F_dual, report)`` where ``F`` is the affine lift with
    ``alpha(F) = -1``, ``dF_dual`` is the interior product of ``eta``
    with ``alpha``, and the report carries the mixed-area residual
    ``A(F, F_dual)`` and the reconstruction residual of
    ``eta = dF_dual ^~ F``.
    """
    if net.eta is None:
        raise ValueError("net carries no eta form")
    alpha = np.asarray(alpha, float)
    g = net.grid
    heights = net.lifts @ alpha
    if np.abs(heights).min(initial=np.inf) <= tol * np.linalg.norm(alpha):
        raise ChartError("net meets the chart hyperplane")
    F = -net.lifts / heights[:, None]
    C = unpack_bivector(net.eta, net.dim)
    i_alpha = -np.einsum("nab,b->na", C, alpha)
    Fd = integrate_one_form(g, i_alpha, base=base,
                            seed=np.zeros(net.dim) if seed is None else seed,
                            check_closed=True, tol=max(tol, 1e-10)).values
    area = mixed_area(Form0(g, F), Form0(g, Fd))
    scale = max(float(np.abs(F).max() * np.abs(Fd).max()), 1e-300)
    area_res = float(np.abs(area.values).max(initial=0.0)) / scale
    rec = curly_wedge(exterior_derivative(Form0(g, Fd)), Form0(g, F))
    eta_scale = max(float(np.linalg.norm(net.eta, axis=1).max(initial=0.0)), 1e-300)
    rec_res = float(np.abs(rec.values - net.eta).max(initial=0.0)) / eta_scale
    report = {"mixed_area": area_res, "eta_reconstruction": rec_res,
              "passed": area_res <= tol and rec_res <= tol}
    return F, Fd, report


def km_pair_check(grid: Grid, mu_plus: np.ndarray, mu_minus: np.ndarray,
                  eta_plus=None, eta_minus=None, tol: float = 1e-8):
    """Check the vertical Moutard equation of a K-Moutard pair.

    The given Moutard lifts must be compatibly normalized (as produced by
    the constructors in this package): the test is
    ``(mu+_j - mu-_i) ^ (mu+_i - mu-_j) = 0`` on every edge, plus the
    stacked regularity margin.  Returns ``(is_pair, tau, report)`` with
    ``tau = mu- ^ mu+`` per vertex; when both eta forms are supplied the
    gauge relation ``eta- = eta+ + d tau`` is verified as well.
    """
    mu_plus = np.asarray(mu_plus, float)
    mu_minus = np.asarray(mu_minus, float)
    t, h = grid.edge_tail, grid.edge_head
    w = wedge_vec(mu_plus[h] - mu_minus[t], mu_plus[t] - mu_minus[h])
    scale = np.maximum(
        np.linalg.norm(mu_plus[h] - mu_minus[t], axis=1)
        * np.linalg.norm(mu_plus[t] - mu_minus[h], axis=1), 1e-300)
    vertical = np.linalg.norm(w, axis=1) / scale
    vert_worst = float(vertical.max(initial=0.0))

    span_margin = np.inf
    for e in range(grid.nedges):
        stackm = np.stack([mu_plus[t[e]], mu_plus[h[e]],
                           mu_minus[h[e]], mu_minus[t[e]]])
        sv = np.linalg.svd(stackm, compute_uv=False)
        span_margin = min(span_margin, float(sv[2] / max(sv[0], 1e-300)))
    if grid.nedges and span_margin < 1e-10:
        raise DegeneracyError(
            f"stacked regularity violated: span margin {span_margin:.3e}")

    tau = wedge_vec(mu_minus, mu_plus)
    report = {"vertical_moutard": vert_worst, "span_margin": span_margin}
    if eta_plus is not None and eta_minus is not None:
        dtau = tau[h] - tau[t]
        res = np.abs(eta_minus - eta_plus - dtau).max(initial=0.0)
        den = max(float(np.abs(eta_plus).max(initial=0.0)), 1e-300)
        report["gauge_relation"] = float(res / den)
    is_pair = vert_worst <= tol and report.get("gauge_relation", 0.0) <= tol
    report["passed"] = bool(is_pair)
    return is_pair, tau, report


# -- line congruences ----------------------------------------------------

@dataclass
class LineCongruence:
    """Congruence of 2-planes spanned by per-vertex lift pairs, with an
    applicability form ``eta`` (packed)."""

    grid: Grid
    sigma1: np.ndarray
    sigma2: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        self.sigma1 = np.asarray(self.sigma1, float)
        self.sigma2 = np.asarray(self.sigma2, float)
        self.eta = np.asarray(self.eta, float)
        if self.sigma1.shape != self.sigma2.shape:
            raise ValueError("spanning lifts must have matching shapes")
        if self.sigma1.shape[0] != self.grid.nverts:
            raise ValueError("one lift pair per vertex required")
        if self.eta.shape[0] != self.grid.nedges:
            raise ValueError("eta must have one value per edge")

    @property
    def dim(self) -> int:
        return self.sigma1.shape[1]

    def plane_basis(self, v: int) -> np.ndarray:
        """Orthonormal (Euclidean) basis of f_v, shape (d, 2)."""
        M = np.stack([self.sigma1[v], self.sigma2[v]], axis=1)
        Q, _ = np.linalg.qr(M)
        return Q

    def lam2_lift(self, v: int) -> np.ndarray:
        """Packed generator of Lambda^2 f_v."""
        return wedge_vec(self.sigma1[v], self.sigma2[v])

    def eta_on(self, tail: int, head: int) -> np.ndarray:
        e = self.grid.oriented_edge(tail, head)
        return e.sign * self.eta[e.index]

    def _edge_spans(self, edges, tol: float = 1e-6):
        """Stacked svd of the ``(d, 4)`` spans of ``f_tail + f_head`` on
        ``edges`` and the intersection lines ``s_ij``, with the
        degeneracies of :meth:`intersection_line` in the order it tests
        them."""
        g = self.grid
        t, h = g.edge_tail[edges], g.edge_head[edges]
        # rows, transposed per edge: the memory layout a single edge's
        # M.T has, so the intersection line comes out bit for bit
        M = np.stack([self.sigma1[t], self.sigma2[t], self.sigma1[h], self.sigma2[h]],
                     axis=-2).swapaxes(-1, -2)
        U, sv, _ = np.linalg.svd(M, full_matrices=False)
        s, ((meet, _),) = _plane_intersection(M[..., :2], M[..., 2:], tol)
        failures = [(sv[..., 2] <= tol * sv[..., 0],
                     "first-order regularity fails: dim f_ij < 3"),
                    (meet, "intersection line degenerate")]
        return U, sv, s, failures

    def _raise_first_edge(self, edges, failures) -> None:
        """Raise the first degeneracy of :meth:`_edge_spans` on ``edges``."""
        first = _first_failure(failures)
        if first is not None:
            k, n = first
            raise DegeneracyError(failures[n][1],
                                  where=self.grid.locate_edge(int(edges[k])))

    def intersection_line(self, e: int, tol: float = 1e-6) -> np.ndarray:
        """Representative of ``s_ij = f_i cap f_j`` on canonical edge e."""
        edges = np.array([e])
        _, _, s, failures = self._edge_spans(edges, tol)
        self._raise_first_edge(edges, failures)
        return s[0]

    def validate(self, tol: float = 1e-8, margin: float = 1e-6) -> dict:
        """Applicability and regularity residuals.

        Checks: closedness of eta, decomposability (Pluecker),
        membership ``eta_ij in Lambda^2 f_ij``, non-degeneracy
        ``eta_ij ^ s_ij != 0``, first and second order regularity.
        """
        from .grid import closedness_residual
        g = self.grid
        out = {}
        out["eta_closed"], _ = closedness_residual(g, self.eta)
        out["eta_decomposable"] = float(
            pluecker_residual(self.eta, self.dim).max(initial=0.0))
        edges = np.arange(g.nedges)
        U, sv, s_lines, failures = self._edge_spans(edges)
        self._raise_first_edge(edges, failures)
        eta_norm = np.maximum(_dot_norm(self.eta), 1e-300)
        # the wedges of an orthonormal basis of the 3-space f_i + f_j
        # are an orthonormal basis of its Lambda^2
        B = U[..., :3]
        basis = np.stack([wedge_vec(B[..., a], B[..., b])
                          for a, b in ((0, 1), (0, 2), (1, 2))], axis=-1)
        coef = (self.eta[:, None, :] @ basis)[:, 0]
        rec = (basis @ coef[..., None])[..., 0]
        membership = _dot_norm(self.eta - rec) / eta_norm
        tri = _trivector(unpack_bivector(self.eta, self.dim), s_lines)
        nondeg = _dot_norm(tri) / eta_norm
        first_order = sv[:, 2] / np.maximum(sv[:, 0], 1e-300)
        out["eta_in_lam2_f"] = float(membership.max(initial=0.0))
        out["nondegeneracy_margin"] = float(nondeg.min()) if g.nedges else 0.0
        out["first_order_margin"] = float(first_order.min()) if g.nedges else 0.0
        sv4 = np.linalg.svd(s_lines[g.quad_edges], compute_uv=False)
        second = sv4[:, 3] / np.maximum(sv4[:, 0], 1e-300)
        out["second_order_margin"] = float(second.min()) if g.nquads else 0.0
        out["passed"] = bool(
            out["eta_closed"] <= tol
            and out["eta_decomposable"] <= max(tol, 1e-9)
            and out["eta_in_lam2_f"] <= tol
            and out["nondegeneracy_margin"] >= margin
            and out["first_order_margin"] >= margin
            and out["second_order_margin"] >= margin)
        return out


# -- the edge maps g_ij and pair extraction ------------------------------

def g_map(cong: LineCongruence, from_v: int, to_v: int, point) -> np.ndarray:
    """The projective-line isomorphism ``g`` on one edge.

    ``point = (t, r)`` are homogeneous coordinates in
    ``P(Lambda^2 f_from + R)`` with respect to the generator
    ``sigma1 ^ sigma2`` at ``from_v``; the image is the line
    ``< r eta + tau > cap P(f_to)`` returned as coordinates in the
    spanning lifts at ``to_v``.  ``eta`` is taken on the edge oriented
    from ``to_v`` to ``from_v``, matching ``g_ij([tau_j, r])``.
    """
    t_coef, r_coef = float(point[0]), float(point[1])
    if t_coef == 0.0 and r_coef == 0.0:
        raise ValueError("(tau, r) must not both vanish")
    eta_val = cong.eta_on(to_v, from_v)      # eta on the edge to_v -> from_v
    W = r_coef * eta_val + t_coef * cong.lam2_lift(from_v)
    span, failures = _span_of_bivector(unpack_bivector(W, cong.dim))
    _raise_first(failures)
    v, failures = _plane_intersection(span, cong.plane_basis(to_v))
    _raise_first(failures)
    coords, *_ = np.linalg.lstsq(
        np.stack([cong.sigma1[to_v], cong.sigma2[to_v]], axis=1), v, rcond=None)
    return coords


def g_map_inverse(cong: LineCongruence, from_v: int, to_v: int,
                  line_coords) -> np.ndarray:
    """Inverse edge map: line in ``f_from`` to ``(t, r)`` at ``to_v``."""
    a, b = float(line_coords[0]), float(line_coords[1])
    v = a * cong.sigma1[from_v] + b * cong.sigma2[from_v]
    eta_val = cong.eta_on(from_v, to_v)      # eta_{to,from}
    col_r = _trivector(unpack_bivector(eta_val, cong.dim), v)
    col_t = _trivector(unpack_bivector(cong.lam2_lift(to_v), cong.dim), v)
    M = np.stack([col_r, col_t], axis=1)
    _, sv, Vt = np.linalg.svd(M, full_matrices=False)
    r_coef, t_coef = Vt[-1]
    return np.array([t_coef, r_coef])


def _vertex_color(grid: Grid, v: int) -> int:
    """0 on the even (black) class of the bipartite 2-coloring."""
    return int(grid.vertex_coords[v].sum()) % 2


def _transport(cong: LineCongruence, colors, bundle_black: bool,
               from_v: int, to_v: int, value: np.ndarray) -> np.ndarray:
    """One step of the flat connection on X^b (or X^w)."""
    line_at = 0 if bundle_black else 1
    if colors[to_v] == line_at:
        return g_map(cong, from_v, to_v, value)
    return g_map_inverse(cong, from_v, to_v, value)


def _parallel_section(cong: LineCongruence, colors, bundle_black: bool,
                      base: int, seed2: np.ndarray) -> np.ndarray:
    """Transport a fiber point over the whole grid along the staircase."""
    g = cong.grid
    out = np.zeros((g.nverts, 2))
    out[base] = seed2
    for v, parent, _, _ in g.staircase_tree(base):
        out[v] = _transport(cong, colors, bundle_black, parent, v, out[parent])
    return out


def quad_holonomy_residual(cong: LineCongruence, bundle_black: bool,
                           quad: int, points, rng=None) -> float:
    """Projective distance after transporting fiber points around a quad."""
    g = cong.grid
    colors = [_vertex_color(g, v) for v in range(g.nverts)]
    i, j, k, l = (int(v) for v in g.quad_vertices[quad])
    worst = 0.0
    for p in points:
        val = np.asarray(p, float)
        out = val
        for a, b in ((i, j), (j, k), (k, l), (l, i)):
            out = _transport(cong, colors, bundle_black, a, b, out)
        num = abs(val[0] * out[1] - val[1] * out[0])
        den = np.linalg.norm(val) * np.linalg.norm(out)
        worst = max(worst, float(num / max(den, 1e-300)))
    return worst


@dataclass
class ExtractedPair:
    """K-Moutard pair spanning an applicable congruence."""

    net_plus: ProjectiveNet
    net_minus: ProjectiveNet
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    tau_plus: np.ndarray
    tau_minus: np.ndarray
    report: dict = field(default_factory=dict)


def _section_to_net(cong: LineCongruence, colors, xb: np.ndarray,
                    xw: np.ndarray, margin: float):
    """Build (s, tau) from parallel sections of X^b and X^w."""
    g = cong.grid
    lifts = np.zeros_like(cong.sigma1)
    tau = np.zeros((g.nverts, cong.eta.shape[1]))
    for v in range(g.nverts):
        line2 = xb[v] if colors[v] == 0 else xw[v]
        wpt = xw[v] if colors[v] == 0 else xb[v]
        lifts[v] = line2[0] * cong.sigma1[v] + line2[1] * cong.sigma2[v]
        n = np.linalg.norm(lifts[v])
        if n < 1e-12:
            raise SeedDegeneracyError("section degenerated to zero", where=v)
        lifts[v] /= n
        t_coef, r_coef = wpt
        if abs(r_coef) <= margin * max(abs(t_coef), 1e-300):
            raise SeedDegeneracyError(
                "tau became infinite: section met an intersection line", where=v)
        tau[v] = (t_coef / r_coef) * cong.lam2_lift(v)
    # margin against the intersection lines of incident edges
    worst = np.inf
    for e in range(g.nedges):
        s_line = cong.intersection_line(e)
        for v in (int(g.edge_tail[e]), int(g.edge_head[e])):
            worst = min(worst, line_distance(lifts[v], s_line))
    if g.nedges and worst < margin:
        raise SeedDegeneracyError(
            f"section passes within {worst:.2e} of an intersection line")
    return lifts, tau, worst


def extract_pair(cong: LineCongruence, seeds_plus=None, seeds_minus=None,
                 seed: int = 0, retries: int = 16, tol: float = 1e-8,
                 margin: float = 1e-6, signature=None) -> ExtractedPair:
    """Extract a spanning K-Moutard pair from an applicable congruence.

    Each net is fixed by two fiber seeds (a line in ``f`` at the black
    base vertex and one at the white base vertex), supplied as
    coefficient pairs against the spanning lifts.  Omitted seeds are
    drawn deterministically from ``seed`` and retried while the
    transported section comes too close to an intersection line or the
    two nets fail to stay pointwise distinct; when a ``signature`` is
    supplied the retries also prefer pairs whose vertical diagonals stay
    non-orthogonal (the denominators of later transforms).
    """
    g = cong.grid
    colors = [_vertex_color(g, v) for v in range(g.nverts)]
    base_b = next(v for v in range(g.nverts) if colors[v] == 0)
    base_w = next(v for v in range(g.nverts) if colors[v] == 1)
    rng = np.random.default_rng(seed)
    auto = seeds_plus is None or seeds_minus is None

    def one_net(seeds, label):
        attempts = retries if seeds is None else 1
        last_err = None
        for _ in range(attempts):
            if seeds is None:
                sb = rng.standard_normal(2)
                sw = rng.standard_normal(2)
            else:
                sb = np.asarray(seeds[0], float)
                sw = np.asarray(seeds[1], float)
            try:
                xb = _parallel_section(cong, colors, True, base_b, sb)
                xw = _parallel_section(cong, colors, False, base_w, sw)
                return _section_to_net(cong, colors, xb, xw, margin)
            except (SeedDegeneracyError, DegeneracyError) as err:
                last_err = err
        raise SeedDegeneracyError(
            f"no admissible {label} section found: {last_err}")

    t, h = g.edge_tail, g.edge_head

    def pair_margin(lp, lm):
        # vertical diagonals of the stacked pair: the denominators of
        # every later Moutard propagation through the pair
        dist = min(line_distance(lp[v], lm[v]) for v in range(g.nverts))
        if signature is None:
            return dist
        ln = np.linalg.norm
        d1 = np.abs(signature.inner(lp[t], lm[h])) / np.maximum(
            ln(lp[t], axis=1) * ln(lm[h], axis=1), 1e-300)
        d2 = np.abs(signature.inner(lp[h], lm[t])) / np.maximum(
            ln(lp[h], axis=1) * ln(lm[t], axis=1), 1e-300)
        return min(float(np.minimum(d1, d2).min(initial=np.inf)), dist)

    best = None
    for attempt in range(retries):
        lifts_p, tau_p, margin_p = one_net(seeds_plus, "plus")
        lifts_m, tau_m, margin_m = one_net(seeds_minus, "minus")
        dists = [line_distance(lifts_p[v], lifts_m[v]) for v in range(g.nverts)]
        if min(dists) < margin:
            if not auto:
                raise SeedDegeneracyError(
                    "the two sections are not pointwise distinct")
            continue
        if not auto:
            break
        pm = pair_margin(lifts_p, lifts_m)
        if best is None or pm > best[0]:
            best = (pm, lifts_p, tau_p, margin_p, lifts_m, tau_m, margin_m)
        if pm >= 100 * margin:
            break
    else:
        if best is None:
            raise SeedDegeneracyError("no pointwise-distinct companion found")
    if auto and best is not None:
        _, lifts_p, tau_p, margin_p, lifts_m, tau_m, margin_m = best

    t, h = g.edge_tail, g.edge_head
    eta_p = cong.eta + tau_p[h] - tau_p[t]
    eta_m = cong.eta + tau_m[h] - tau_m[t]
    net_p = ProjectiveNet(g, lifts_p, eta_p)
    net_m = ProjectiveNet(g, lifts_m, eta_m)

    mu_p = moutard_lift_from_eta(net_p, lifts_p[base_b], base=base_b, tol=tol)
    # match the minus lift through tau = tau_minus - tau_plus = mu- ^ mu+
    tau = tau_m - tau_p
    mu_m = np.zeros_like(mu_p)
    tau_res = 0.0
    for v in range(g.nverts):
        w = wedge_vec(lifts_m[v], mu_p[v])
        ww = float(w @ w)
        if ww <= 1e-300:
            raise DegeneracyError("tau matching degenerate", where=v)
        coef = float(tau[v] @ w) / ww
        mu_m[v] = coef * lifts_m[v]
        tau_res = max(tau_res, float(
            np.linalg.norm(tau[v] - coef * w)
            / max(np.linalg.norm(tau[v]), 1e-300)))
    rec = wedge_vec(mu_m[h], mu_m[t])
    minus_res = float(np.abs(rec - eta_m).max(initial=0.0)) / max(
        float(np.abs(eta_m).max(initial=0.0)), 1e-300)

    # balance the lift scales: the alternating rescale c^{±1} (opposite
    # exponents on the two nets) keeps norms even across the coloring
    # while leaving eta± and tau± exactly invariant
    parity = np.array([1.0 if _vertex_color(g, v) == 0 else -1.0
                       for v in range(g.nverts)])
    np_even = np.median(np.linalg.norm(mu_p[parity > 0], axis=1))
    np_odd = np.median(np.linalg.norm(mu_p[parity < 0], axis=1))
    c = np.sqrt(max(np_odd, 1e-300) / max(np_even, 1e-300))
    mu_p = mu_p * (c ** parity)[:, None]
    mu_m = mu_m * (c ** (-parity))[:, None]

    is_pair, tau_check, km_report = km_pair_check(
        g, mu_p, mu_m, eta_p, eta_m, tol=max(tol, 1e-8))
    report = {
        "tau_in_span": tau_res,
        "minus_moutard": minus_res,
        "section_margin": min(margin_p, margin_m),
        "km": km_report,
        "passed": bool(is_pair and tau_res <= 100 * tol and minus_res <= 100 * tol),
    }
    return ExtractedPair(net_p, net_m, mu_p, mu_m, tau_p, tau_m, report)


def christoffel_ratio(grid: Grid, sigma_plus: np.ndarray, sigma_minus: np.ndarray,
                      tol: float = 1e-9):
    """Factor the edge stretch ratios of Koenigs dual sections.

    ``d sigma-_{ij} = lambda_ij d sigma+_{ij}`` must factor as
    ``lambda_ij = r_i r_j``; returns ``(r, report)`` where the report
    carries the parallelism residual, the quad product residual
    ``|lam_ij lam_kl / (lam_jk lam_li) - 1|`` and the factorization
    residual on all edges.  Raises :class:`NotDualError` when the
    sections are not edge-parallel or the factorization fails.
    """
    sigma_plus = np.asarray(sigma_plus, float)
    sigma_minus = np.asarray(sigma_minus, float)
    t, h = grid.edge_tail, grid.edge_head
    dp = sigma_plus[h] - sigma_plus[t]
    dm = sigma_minus[h] - sigma_minus[t]
    denom = np.sum(dp * dp, axis=1)
    if np.any(denom <= 1e-300):
        raise NotDualError("vanishing plus edge")
    lam = np.sum(dm * dp, axis=1) / denom
    par = np.linalg.norm(dm - lam[:, None] * dp, axis=1) / np.maximum(
        np.linalg.norm(dm, axis=1), 1e-300)
    worst_par = float(par.max(initial=0.0))
    if worst_par > 1e-6:
        e = int(np.argmax(par))
        raise NotDualError("sections are not edge-parallel",
                           where=grid.locate_edge(e), residual=worst_par)
    if np.any(np.abs(lam) <= 1e-300):
        raise NotDualError("vanishing stretch ratio")

    r, quad_res, worst_fact, worst_edge = factor_edge_ratios(grid, lam)
    if worst_fact > max(tol, 10 * quad_res + tol):
        raise NotDualError("stretch ratios do not factor as r_i r_j",
                           where=grid.locate_edge(worst_edge),
                           residual=worst_fact)
    report = {"parallelism": worst_par, "quad_product": quad_res,
              "factorization": worst_fact,
              "passed": worst_fact <= max(tol, 1e-9) and quad_res <= 1e-8}
    return r, report


def factor_edge_ratios(grid: Grid, lam: np.ndarray):
    """Factor per-edge ratios as ``lam_ij = r_i r_j``.

    Returns ``(r, quad_product_residual, factorization_residual,
    worst_edge)``; the quad residual is the obstruction
    ``|lam_ij lam_kl / (lam_jk lam_li) - 1|``.
    """
    lam = np.asarray(lam, float)
    t, h = grid.edge_tail, grid.edge_head
    quad_res = 0.0
    for n in range(grid.nquads):
        eb, er, et, el = grid.quad_edges[n]
        quad_res = max(quad_res, abs(lam[eb] * lam[et] / (lam[er] * lam[el]) - 1.0))
    r = np.zeros(grid.nverts)
    tree = grid.staircase_tree(0)
    if tree:
        r[0] = np.sqrt(abs(lam[tree[0][2]]))
    else:
        r[0] = 1.0
    for v, parent, slot, _ in tree:
        r[v] = lam[slot] / r[parent]
    fact = np.abs(r[t] * r[h] - lam) / np.maximum(np.abs(lam), 1e-300)
    worst_fact = float(fact.max(initial=0.0))
    worst_edge = int(np.argmax(fact)) if len(fact) else 0
    return r, quad_res, worst_fact, worst_edge
