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
from .residuals import cos_angle, floor, rel, sin_angle, worst

__all__ = [
    "ProjectiveNet", "LineCongruence", "ExtractedPair",
    "random_moutard_net", "moutard_lift_from_eta", "koenigs_dual",
    "km_pair_check", "extract_pair",
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
    return rel(np.linalg.norm(vals, axis=-1), np.sum(packed * packed, axis=-1))


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


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean inner products over the last axis, each row summed as
    ``np.add.reduce`` sums one vector, whatever the layout."""
    return np.add.reduce(np.multiply(u, v, order="C"), axis=-1)


def _span_of_bivector(C: np.ndarray):
    """Orthonormal bases of the 2-planes of decomposable bivectors,
    batched over leading axes.

    Returns the bases and the ``(mask, message)`` degeneracies, in the
    order they are tested; see :func:`_first_failure`.
    """
    U, sv, _ = np.linalg.svd(C)
    failures = [
        (sv[..., 1] <= 1e-8 * floor(sv[..., 0]),
         "bivector has rank < 2"),
        (np.any(sv[..., 2:3] > 100 * 1e-8 * sv[..., :1], axis=-1),
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


def random_moutard_net(grid: Grid, dim: int, rng):
    """Random projective Moutard net on a 2D grid.

    Cauchy lines are a perturbed affine frame path; interior vertices are
    filled by ``mu_k = mu_i + c (mu_l - mu_j)`` with a random nonzero
    Moutard factor per quad, which keeps the diagonal-parallel property
    by construction.
    """
    if grid.ndim != 2:
        raise ValueError("random Moutard nets are generated on 2D grids")
    d0, d1 = grid.dims
    base = rng.standard_normal(dim)
    base /= np.linalg.norm(base)
    mu = np.zeros((d0, d1, dim))
    mu[:, 0] = np.cumsum([base, *0.4 * rng.standard_normal((d0 - 1, dim))], axis=0)
    mu[0, :] = np.cumsum([base, *0.4 * rng.standard_normal((d1 - 1, dim))], axis=0)
    c = 0.5 + rng.random((d0 - 1, d1 - 1, 1))
    for s in range(2, d0 + d1 - 1):            # one anti-diagonal a + b = s at a time
        a = np.arange(max(1, s - d1 + 1), min(d0, s))
        b = s - a
        mu[a, b] = mu[a - 1, b - 1] + c[a - 1, b - 1] * (mu[a - 1, b] - mu[a, b - 1])
    mu = mu.reshape(grid.nverts, dim)
    t, h = grid.ends()
    eta = wedge_vec(mu[h], mu[t])
    return ProjectiveNet(grid, mu, eta), mu


def moutard_lift_from_eta(net: ProjectiveNet, seed) -> np.ndarray:
    """Recover the Moutard lift with ``eta_ji = mu_j ^ mu_i`` from a seed
    lift at vertex 0.

    Propagation runs along the staircase tree; every non-tree edge is
    then verified, and an inconsistency (the quad propagation test that
    fails exactly when the net is not Koenigs) raises
    :class:`NotKoenigsError` naming the edge.
    """
    if net.eta is None:
        raise ValueError("net carries no eta form")
    g = net.grid
    seed = np.asarray(seed, float)
    if line_distance(seed, net.lifts[0]) > 1e-8:
        raise ValueError("seed must span the net line at vertex 0")
    mu = np.zeros_like(net.lifts)
    mu[0] = seed
    for child, parent, slot in g.staircase_tree():
        eta_vp = net.eta[slot]                          # eta on the edges parent -> child
        w = wedge_vec(net.lifts[child], mu[parent])
        ww = _row_dot(w, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = _row_dot(eta_vp, w) / ww
            rest = eta_vp - coef[:, None] * w
            resid = np.sqrt(_row_dot(rest, rest))
        failures = [(ww <= 1e-300, "coincident lines on an edge"),
                    (resid > 1e-8 * floor(np.sqrt(_row_dot(eta_vp, eta_vp))),
                     "eta is not supported on the edge line pair")]
        first = _first_failure(failures)
        if first is not None:
            k, n = first
            where = g.locate_edge(int(slot[k]))
            if n == 0:
                raise DegeneracyError(failures[0][1], where=where)
            raise NotKoenigsError(failures[1][1], where=where, residual=float(resid[k]))
        mu[child] = coef[:, None] * net.lifts[child]
    # consistency on all edges (fails iff the net is not Koenigs), a
    # non-finite edge first
    t, h = g.ends()
    rec = wedge_vec(mu[h], mu[t])
    num, e = worst(np.linalg.norm(rec - net.eta, axis=1))
    den = floor(np.linalg.norm(net.eta, axis=1).max(initial=0.0))
    if not num <= 1e-8 * den:
        raise NotKoenigsError(
            f"Moutard propagation inconsistent: residual {num/den:.3e}",
            where=g.locate_edge(e), residual=num / den)
    return mu


def koenigs_dual(net: ProjectiveNet, alpha):
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
    if np.abs(heights).min(initial=np.inf) <= 1e-8 * np.linalg.norm(alpha):
        raise ChartError("net meets the chart hyperplane")
    F = -net.lifts / heights[:, None]
    C = unpack_bivector(net.eta, net.dim)
    i_alpha = -np.einsum("nab,b->na", C, alpha)
    Fd = integrate_one_form(g, i_alpha)
    area = mixed_area(Form0(g, F), Form0(g, Fd))
    area_res = rel(float(np.abs(area.values).max(initial=0.0)),
                   np.abs(F).max() * np.abs(Fd).max())
    rec = curly_wedge(exterior_derivative(Form0(g, Fd)), Form0(g, F))
    rec_res = rel(float(np.abs(rec.values - net.eta).max(initial=0.0)),
                  np.linalg.norm(net.eta, axis=1).max(initial=0.0))
    report = {"mixed_area": area_res, "eta_reconstruction": rec_res,
              "passed": area_res <= 1e-8 and rec_res <= 1e-8}
    return F, Fd, report


def vertical_diagonal_margin(grid: Grid, plus: np.ndarray, minus: np.ndarray,
                             signature) -> np.ndarray:
    """Per-edge vertical diagonal margin of the stacked pair ``minus``
    (level 0) under ``plus`` (level 1): the least ``|cos|`` of the
    diagonals ``(minus_i, plus_j)`` and ``(minus_j, plus_i)``, the
    denominators of every Moutard propagation through the pair."""
    t, h = grid.ends()
    ip = signature.inner
    norm_m, norm_p = np.linalg.norm(minus, axis=1), np.linalg.norm(plus, axis=1)
    return np.minimum(cos_angle(ip(minus[t], plus[h]), norm_m[t], norm_p[h]),
                      cos_angle(ip(minus[h], plus[t]), norm_m[h], norm_p[t]))


def vertical_moutard(grid: Grid, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Per-edge vertical Moutard residual of the stacked pair ``minus`` under
    ``plus``: the sine of the angle of ``plus_j - minus_i`` and ``plus_i - minus_j``."""
    t, h = grid.ends()
    return sin_angle(plus[h] - minus[t], plus[t] - minus[h])


def _balance(grid: Grid, mu_plus: np.ndarray, mu_minus: np.ndarray):
    """The alternating rescale ``c^{+-1}`` of a Moutard pair (opposite
    exponents on the two nets) that evens the median ``mu_plus`` norms
    of the two colour classes; it leaves eta+-, tau+- and any K-Moutard
    matching exactly invariant."""
    parity = 1.0 - 2.0 * _colors(grid)
    even = np.median(np.linalg.norm(mu_plus[parity > 0], axis=1))
    odd = np.median(np.linalg.norm(mu_plus[parity < 0], axis=1))
    c = np.sqrt(floor(odd) / floor(even))
    return mu_plus * (c ** parity)[:, None], mu_minus * (c ** (-parity))[:, None]


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
    t, h = grid.ends()
    vert_worst = float(vertical_moutard(grid, mu_plus, mu_minus).max(initial=0.0))

    sv = np.linalg.svd(np.stack([mu_plus[t], mu_plus[h], mu_minus[h], mu_minus[t]], axis=1),
                       compute_uv=False)
    span_margin = float(rel(sv[:, 2], sv[:, 0]).min(initial=np.inf))
    if grid.nedges and span_margin < 1e-10:
        raise DegeneracyError(
            f"stacked regularity violated: span margin {span_margin:.3e}")

    tau = wedge_vec(mu_minus, mu_plus)
    report = {"vertical_moutard": vert_worst, "span_margin": span_margin}
    if eta_plus is not None and eta_minus is not None:
        dtau = grid.edge_difference(tau)
        res = np.abs(eta_minus - eta_plus - dtau).max(initial=0.0)
        report["gauge_relation"] = float(rel(res, np.abs(eta_plus).max(initial=0.0)))
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

    def _edge_spans(self, edges):
        """Stacked svd of the ``(d, 4)`` spans of ``f_tail + f_head`` on
        ``edges`` and the intersection lines ``s_ij = f_i cap f_j``, with
        their degeneracies in the order they are tested."""
        g = self.grid
        t, h = g.ends(edges)
        # rows, transposed per edge: the memory layout a single edge's
        # M.T has, so the intersection line comes out bit for bit
        M = np.stack([self.sigma1[t], self.sigma2[t], self.sigma1[h], self.sigma2[h]],
                     axis=-2).swapaxes(-1, -2)
        U, sv, _ = np.linalg.svd(M, full_matrices=False)
        s, ((meet, _),) = _plane_intersection(M[..., :2], M[..., 2:], 1e-6)
        failures = [(sv[..., 2] <= 1e-6 * sv[..., 0],
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

    def validate(self) -> dict:
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
        eta_norm = floor(_dot_norm(self.eta))
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
        first_order = rel(sv[:, 2], sv[:, 0])
        out["eta_in_lam2_f"] = float(membership.max(initial=0.0))
        out["nondegeneracy_margin"] = float(nondeg.min()) if g.nedges else 0.0
        out["first_order_margin"] = float(first_order.min()) if g.nedges else 0.0
        sv4 = np.linalg.svd(s_lines[g.sides()], compute_uv=False)
        second = rel(sv4[:, 3], sv4[:, 0])
        out["second_order_margin"] = float(second.min()) if g.nquads else 0.0
        out["passed"] = bool(
            out["eta_closed"] <= 1e-10
            and out["eta_decomposable"] <= 1e-8
            and out["eta_in_lam2_f"] <= 1e-8
            and out["nondegeneracy_margin"] >= 1e-6
            and out["first_order_margin"] >= 1e-6
            and out["second_order_margin"] >= 1e-6)
        return out


# -- the edge maps g_ij and pair extraction ------------------------------

def _g_maps(cong: LineCongruence, eta_val, from_v, to_v, points):
    """The projective-line isomorphisms ``g`` on a batch of edges.

    ``points = (t, r)`` are homogeneous coordinates in
    ``P(Lambda^2 f_from + R)`` with respect to the generator
    ``sigma1 ^ sigma2`` at ``from_v``; the image is the line
    ``< r eta + tau > cap P(f_to)`` as coordinates in the spanning lifts
    at ``to_v``.  ``eta_val`` is eta on each edge oriented
    ``to_v -> from_v``, matching ``g_ij([tau_j, r])``.  Returns the
    coordinates and the ``(mask, message)`` degeneracies in the order
    :func:`_raise_g_map` tests them."""
    t_coef, r_coef = points[:, :1], points[:, 1:]
    W = r_coef * eta_val + t_coef * wedge_vec(cong.sigma1[from_v], cong.sigma2[from_v])
    span, failures = _span_of_bivector(unpack_bivector(W, cong.dim))
    M = np.stack([cong.sigma1[to_v], cong.sigma2[to_v]], axis=-1)
    v, meet = _plane_intersection(span, np.linalg.qr(M)[0])
    coords = (np.linalg.pinv(M) @ v[..., None])[..., 0]
    zero = ((t_coef == 0.0) & (r_coef == 0.0))[:, 0]
    return coords, [(zero, "(tau, r) must not both vanish")] + failures + meet


def _raise_g_map(failures) -> None:
    """Raise the first degeneracy of :func:`_g_maps` on a batch."""
    first = _first_failure(failures)
    if first is not None:
        raise (ValueError if first[1] == 0 else DegeneracyError)(failures[first[1]][1])


def _g_map_inverses(cong: LineCongruence, eta_val, from_v, to_v, points):
    """The inverse edge maps on a batch of edges: a line in ``f_from`` to
    ``(t, r)`` at ``to_v``, with ``eta_val`` on each edge oriented
    ``from_v -> to_v``."""
    v = points[:, :1] * cong.sigma1[from_v] + points[:, 1:] * cong.sigma2[from_v]
    col_r = _trivector(unpack_bivector(eta_val, cong.dim), v)
    lam2 = wedge_vec(cong.sigma1[to_v], cong.sigma2[to_v])
    col_t = _trivector(unpack_bivector(lam2, cong.dim), v)
    _, _, Vt = np.linalg.svd(np.stack([col_r, col_t], axis=-1), full_matrices=False)
    return Vt[:, -1, ::-1]                      # (t, r)


def _colors(grid: Grid) -> np.ndarray:
    """0 on the even (black) class of the bipartite 2-coloring, 1 on the
    odd (white) one."""
    return grid.coordinates(np.arange(grid.nverts)).sum(axis=1) % 2


def _parallel_section(cong: LineCongruence, colors, bundle_black: bool,
                      seed2: np.ndarray) -> np.ndarray:
    """Transport a fiber point at vertex 0 over the whole grid along the
    staircase, one level at a time: :func:`_g_maps` onto the vertices
    whose color carries the line, :func:`_g_map_inverses` onto the
    others."""
    g = cong.grid
    onto_line = colors == (0 if bundle_black else 1)
    out = np.zeros((g.nverts, 2))
    out[0] = seed2
    for child, parent, slot in g.staircase_tree():
        eta = cong.eta[slot]                        # on the edges parent -> child
        fw, bw = onto_line[child], ~onto_line[child]
        val = np.empty((len(child), 2))
        if fw.any():
            val[fw], failures = _g_maps(cong, -eta[fw], parent[fw], child[fw],
                                        out[parent[fw]])
            _raise_g_map(failures)
        if bw.any():
            val[bw] = _g_map_inverses(cong, eta[bw], parent[bw], child[bw], out[parent[bw]])
        out[child] = val
    return out


def quad_holonomy_residual(cong: LineCongruence, bundle_black: bool,
                           quad: int, points) -> float:
    """Projective distance after transporting fiber points around a quad,
    every point at once, with the edge maps of :func:`_parallel_section`."""
    g = cong.grid
    onto_line = _colors(g) == (0 if bundle_black else 1)
    cycle = g.corners(quad)
    # i -> j -> k -> l -> i runs along the bottom and right edges and
    # against the top and left ones
    eta = np.array([1.0, 1.0, -1.0, -1.0])[:, None] * cong.eta[g.sides(quad)]
    val = np.asarray(points, float)
    out, n = val, len(val)
    for step in range(4):
        a, b = np.full(n, cycle[step]), np.full(n, cycle[(step + 1) % 4])
        if onto_line[b[0]]:
            out, failures = _g_maps(cong, np.tile(-eta[step], (n, 1)), a, b, out)
            _raise_g_map(failures)
        else:
            out = _g_map_inverses(cong, np.tile(eta[step], (n, 1)), a, b, out)
    num = np.abs(val[:, 0] * out[:, 1] - val[:, 1] * out[:, 0])
    return float(rel(num, np.linalg.norm(val, axis=1) * np.linalg.norm(out, axis=1)).max(
        initial=0.0))


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
    black = (colors == 0)[:, None]
    line2, (t_coef, r_coef) = np.where(black, xb, xw), np.where(black, xw, xb).T
    lifts = line2[:, :1] * cong.sigma1 + line2[:, 1:] * cong.sigma2
    n = np.linalg.norm(lifts, axis=1)
    failures = [(n < 1e-12, "section degenerated to zero"),
                (np.abs(r_coef) <= margin * floor(np.abs(t_coef)),
                 "tau became infinite: section met an intersection line")]
    first = _first_failure(failures)
    if first is not None:
        raise SeedDegeneracyError(failures[first[1]][1], where=first[0])
    lifts /= n[:, None]
    tau = (t_coef / r_coef)[:, None] * wedge_vec(cong.sigma1, cong.sigma2)
    # margin against the intersection lines of incident edges
    edges = np.arange(g.nedges)
    _, _, s_lines, failures = cong._edge_spans(edges)
    cong._raise_first_edge(edges, failures)
    ends = np.concatenate(g.ends())
    dist = float(sin_angle(lifts[ends], np.concatenate([s_lines, s_lines])).min(
        initial=np.inf))
    if g.nedges and dist < margin:
        raise SeedDegeneracyError(
            f"section passes within {dist:.2e} of an intersection line")
    return lifts, tau, dist


def extract_pair(cong: LineCongruence, seed: int, signature, seeds_plus=None,
                 seeds_minus=None) -> ExtractedPair:
    """Extract a spanning K-Moutard pair from an applicable congruence.

    Each net is fixed by two fiber seeds, supplied as coefficient pairs
    against the spanning lifts: the black one is a line in ``f`` at
    vertex 0, the white one a line at vertex 1.  Both sections are walked
    from vertex 0, the white one from its seed mapped back along the
    edge (0, 1).  Omitted seeds are drawn deterministically from ``seed``
    and retried while the transported section comes too close to an
    intersection line or the two nets fail to stay pointwise distinct;
    the retries also prefer pairs whose vertical diagonals stay
    non-orthogonal in ``signature`` (the denominators of later
    transforms).
    """
    g = cong.grid
    colors = _colors(g)
    # vertex 1 is vertex 0 moved along the last axis of extent above 1
    e01 = g.slot(0, max(a for a, n in enumerate(g.dims) if n > 1))
    rng = np.random.default_rng(seed)
    auto = seeds_plus is None or seeds_minus is None

    def one_net(seeds, label):
        attempts = 16 if seeds is None else 1
        last_err = None
        for _ in range(attempts):
            if seeds is None:
                sb = rng.standard_normal(2)
                sw = rng.standard_normal(2)
            else:
                sb = np.asarray(seeds[0], float)
                sw = np.asarray(seeds[1], float)
            try:
                xb = _parallel_section(cong, colors, True, sb)
                sw = _g_map_inverses(cong, -cong.eta[e01][None], np.array([1]),
                                     np.array([0]), sw[None])[0]
                xw = _parallel_section(cong, colors, False, sw)
                return _section_to_net(cong, colors, xb, xw, 1e-6)
            except (SeedDegeneracyError, DegeneracyError) as err:
                last_err = err
        raise SeedDegeneracyError(
            f"no admissible {label} section found: {last_err}")

    best = None
    for attempt in range(16):
        lifts_p, tau_p, _ = one_net(seeds_plus, "plus")
        lifts_m, tau_m, _ = one_net(seeds_minus, "minus")
        dist = float(sin_angle(lifts_p, lifts_m).min())
        if dist < 1e-6:
            if not auto:
                raise SeedDegeneracyError(
                    "the two sections are not pointwise distinct")
            continue
        if not auto:
            break
        pm = min(float(vertical_diagonal_margin(
            g, lifts_m, lifts_p, signature).min(initial=np.inf)), dist)
        if best is None or pm > best[0]:
            best = (pm, lifts_p, tau_p, lifts_m, tau_m)
        if pm >= 100 * 1e-6:
            break
    else:
        if best is None:
            raise SeedDegeneracyError("no pointwise-distinct companion found")
    if auto and best is not None:
        _, lifts_p, tau_p, lifts_m, tau_m = best

    t, h = g.ends()
    eta_p = cong.eta + tau_p[h] - tau_p[t]
    eta_m = cong.eta + tau_m[h] - tau_m[t]
    net_p = ProjectiveNet(g, lifts_p, eta_p)
    net_m = ProjectiveNet(g, lifts_m, eta_m)

    mu_p = moutard_lift_from_eta(net_p, lifts_p[0])
    # match the minus lift through tau = tau_minus - tau_plus = mu- ^ mu+
    tau = tau_m - tau_p
    w = wedge_vec(lifts_m, mu_p)
    ww = _row_dot(w, w)
    if (ww <= 1e-300).any():
        raise DegeneracyError("tau matching degenerate", where=int(np.argmax(ww <= 1e-300)))
    coef = (_row_dot(tau, w) / ww)[:, None]
    mu_m = coef * lifts_m
    tau_res = float(rel(np.linalg.norm(tau - coef * w, axis=1),
                        np.linalg.norm(tau, axis=1)).max(initial=0.0))
    rec = wedge_vec(mu_m[h], mu_m[t])
    minus_res = rel(float(np.abs(rec - eta_m).max(initial=0.0)),
                    np.abs(eta_m).max(initial=0.0))
    mu_p, mu_m = _balance(g, mu_p, mu_m)

    is_pair, tau_check, km_report = km_pair_check(g, mu_p, mu_m, eta_p, eta_m)
    report = {
        "tau_in_span": tau_res,
        "minus_moutard": minus_res,
        "km": km_report,
        "passed": bool(is_pair and tau_res <= 100 * 1e-8 and minus_res <= 100 * 1e-8),
    }
    return ExtractedPair(net_p, net_m, mu_p, mu_m, tau_p, tau_m, report)


def christoffel_ratio(grid: Grid, sigma_plus: np.ndarray, sigma_minus: np.ndarray):
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
    dp = grid.edge_difference(sigma_plus)
    dm = grid.edge_difference(sigma_minus)
    denom = np.sum(dp * dp, axis=1)
    if np.any(denom <= 1e-300):
        raise NotDualError("vanishing plus edge")
    lam = np.sum(dm * dp, axis=1) / denom
    worst_par, e = worst(rel(np.linalg.norm(dm - lam[:, None] * dp, axis=1),
                             np.linalg.norm(dm, axis=1)))
    if not worst_par <= 1e-6:
        raise NotDualError("sections are not edge-parallel",
                           where=grid.locate_edge(e), residual=worst_par)
    if np.any(np.abs(lam) <= 1e-300):
        raise NotDualError("vanishing stretch ratio")

    r, quad_res, worst_fact, worst_edge = factor_edge_ratios(grid, lam)
    if not worst_fact <= max(1e-9, 10 * quad_res + 1e-9):
        raise NotDualError("stretch ratios do not factor as r_i r_j",
                           where=grid.locate_edge(worst_edge),
                           residual=worst_fact)
    report = {"parallelism": worst_par, "quad_product": quad_res,
              "factorization": worst_fact,
              "passed": worst_fact <= 1e-9 and quad_res <= 1e-8}
    return r, report


def factor_edge_ratios(grid: Grid, lam: np.ndarray):
    """Factor per-edge ratios as ``lam_ij = r_i r_j``.

    Returns ``(r, quad_product_residual, factorization_residual,
    worst_edge)``, the edge located by :func:`dnet.residuals.worst`;
    the quad residual is the obstruction
    ``|lam_ij lam_kl / (lam_jk lam_li) - 1|``.
    """
    lam = np.asarray(lam, float)
    t, h = grid.ends()
    eb, er, et, el = grid.sides().T
    quad_res = float(np.fmax.reduce(np.abs(lam[eb] * lam[et] / (lam[er] * lam[el]) - 1.0),
                                    initial=0.0))
    levels = grid.staircase_tree()
    r = np.zeros(grid.nverts)
    r[0] = np.sqrt(abs(lam[levels[0][2][0]])) if levels else 1.0
    for child, parent, slot in levels:
        r[child] = lam[slot] / r[parent]
    worst_fact, worst_edge = worst(rel(np.abs(r[t] * r[h] - lam), np.abs(lam)))
    return r, quad_res, worst_fact, worst_edge
