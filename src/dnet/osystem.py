"""Combescure pairs and O-systems.

A Combescure pair is two edge-parallel nets whose differences pair to a
vanishing scalar 2-form, ``(dx ^ dx*) = 0``; on non-collinear quads this
is equivalent to circularity of either net.  A family of mutually
Combescure nets ``x^a`` assembles into a single map
``Phi = sum_a x^a (x) w_a`` whose edge differences are decomposable;
reading ``Phi`` against a basis of R^{p,q} produces the dual
edge-parallel family ``y^m``, and the family is an O-system (dual family
mutually Combescure for a metric ``g`` on the weight space) exactly when
the weighted sum ``sum g_ab dx^a ^~ dx^b`` vanishes, or equivalently
when the bracket ``[dPhi ^ dPhi]`` of the assembled map vanishes in
``Lambda^2 (R^{p,q} + W)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import (BilinearRule, Form0, _one_form_product, exterior_derivative,
                    lam2_dim, lam2_pairs, wedge, wedge_vec)
from .grid import Grid, blocks, quad_blocks
from .pseudo_euclidean import Signature, stereo_lift
from .residuals import circularity, rel, sin_angle

__all__ = ["ParallelFamily", "check_combescure", "dual_family", "check_osystem"]


@dataclass
class ParallelFamily:
    """Mutually edge-parallel vertex maps into R^{p,q}.

    ``members`` is a list of (nverts, p+q) arrays.  Validation tests the
    member edges for a common direction, near-vanishing edges excluded,
    and ``d Phi`` for decomposability.
    """

    grid: Grid
    members: list
    signature: Signature

    def __post_init__(self):
        self.members = [np.asarray(m, float) for m in self.members]
        if not self.members:
            raise ValueError("a family needs at least one member")
        d = self.signature.dim
        for m in self.members:
            if m.shape != (self.grid.nverts, d):
                raise ValueError("member shape mismatch")

    @property
    def size(self) -> int:
        return len(self.members)

    def phi(self) -> np.ndarray:
        """(nverts, d, size) assembled map."""
        return np.stack(self.members, axis=2)

    def validate(self) -> dict:
        """``edge_parallel``: the worst sine between a member's edge and
        the first member's that is active there, edges shorter than
        ``1e-12`` of the longest (at least 1) left out; and
        ``dphi_decomposable``: the worst ratio of the two singular values
        of ``d Phi``.  Both go one :func:`dnet.grid.blocks` block of edges at a
        time, the first in two passes (the longest edge, then the sines),
        and fold with ``np.maximum``, so every value has the bits of one
        pass over the grid; a non-finite member difference makes both NaN.
        A family of one member passes with both 0: its ``d Phi`` has one
        column, and no second member is there to be parallel to."""
        if self.size == 1:
            return {"edge_parallel": 0.0, "dphi_decomposable": 0.0, "passed": True}
        g = self.grid
        scale, minor = 0.0, 0.0
        for b in blocks(g.nedges):
            ends = g.ends(b)
            diffs = np.stack([g.edge_difference(m, ends) for m in self.members])
            scale = np.maximum(scale, np.linalg.norm(diffs, axis=2).max())
            # decomposability of dPhi through its 2x2 minors; the SVD does
            # not converge on a non-finite difference, whose edge reads NaN
            finite = np.isfinite(diffs).all(axis=(0, 2))
            sv = np.linalg.svd(np.moveaxis(diffs[:, finite], 0, -1), compute_uv=False)
            live = sv[:, 0] > 1e-12
            minor = np.maximum(minor, (sv[live, 1] / sv[live, 0]).max(
                initial=0.0 if finite.all() else np.nan))
        least = 1e-12 * max(scale, 1.0)
        worst = np.nan if np.isnan(minor) else 0.0      # NaN where an edge is not finite
        for b in blocks(g.nedges):
            ends = g.ends(b)
            diffs = np.stack([g.edge_difference(m, ends) for m in self.members])
            active = np.linalg.norm(diffs, axis=2) > least
            # every later active member against the first active one
            first = np.argmax(active, axis=0)
            a, e = np.nonzero(active & (np.arange(self.size)[:, None] > first))
            worst = np.maximum(worst, sin_angle(diffs[a, e], diffs[first[e], e]).max(initial=0.0))
        worst, minor = float(worst), float(minor)
        return {
            "edge_parallel": worst,
            "dphi_decomposable": minor,
            "passed": bool(worst <= 1e-9 and minor <= 1e-9),
        }


def check_combescure(grid: Grid, x, x_star, signature: Signature) -> dict:
    """Residual of ``(dx ^ dx*) = 0`` plus circularity of both nets.

    The scalar 2-form uses the ambient inner product as the bilinear
    rule; circularity is the rank test of the lifted quads, and on a
    quad with non-constant stretch the two vanish together.
    """
    x = np.asarray(x, float)
    x_star = np.asarray(x_star, float)
    rule = BilinearRule.dot(signature.dim, signature.signs)
    dx = exterior_derivative(Form0(grid, x))
    dxs = exterior_derivative(Form0(grid, x_star))
    pairing = wedge(dx, dxs, rule).values[:, 0] if grid.nquads else np.zeros(0)
    res = rel(float(np.abs(pairing).max(initial=0.0)),
              np.abs(dx.values).max(initial=0.0) * np.abs(dxs.values).max(initial=0.0))

    big = Signature(signature.p + 1, signature.q + 1)
    frame = big.standard_frame()

    def lifts(values):
        vals = np.zeros((grid.nverts, big.dim))
        vals[:, :signature.p] = values[:, :signature.p]
        vals[:, signature.p + 1:big.dim - 1] = values[:, signature.p:]
        return stereo_lift(vals, frame)

    return {"pairing": res, "circular_x": circularity(lifts(x), grid.corners()),
            "circular_x_star": circularity(lifts(x_star), grid.corners())}


def dual_family(fam: ParallelFamily) -> tuple:
    """Dual edge-parallel family ``y^m`` read off the assembled map.

    Returns ``(members, report)``: the m-th dual member collects the
    m-th ambient coordinate of every family member, the report checks
    that the duals share edge directions and that reassembly reproduces
    ``Phi`` exactly.
    """
    phi = fam.phi()                           # (nv, d, N)
    duals = [phi[:, m, :] for m in range(fam.signature.dim)]
    # every dual's edge against the longest one, edges where one is live
    dvs = fam.grid.edge_difference(phi)       # (nedges, d, N): dual m is row m
    norms = np.linalg.norm(dvs, axis=-1)
    longest = norms.max(axis=1, initial=0.0)
    e, m = np.nonzero((longest > 1e-14)[:, None] & (norms > 1e-12 * longest[:, None]))
    worst = float(sin_angle(dvs[e, m], dvs[e, np.argmax(norms, axis=1)[e]]).max(initial=0.0))
    exact = bool(np.array_equal(np.stack(duals, axis=1), phi))
    return duals, {"dual_edge_parallel": worst, "reassembly_exact": exact}


def check_osystem(fam: ParallelFamily, metric) -> dict:
    """Both O-system characterizations, compared and tested for zero.

    Computes (a) the weighted curly-wedge sum
    ``sum g_ab dx^a ^~ dx^b`` per quad and (b) the bracket
    ``[dPhi ^ dPhi]`` with the direct-sum commutator as the bilinear
    rule, asserting that the ``Lambda^2 R^{p,q}`` component of (b)
    equals (a) to 1e-11 and that the full bracket vanishes to 1e-9
    relative to the family scale.  Both go one
    :func:`dnet.grid.quad_blocks` block at a time, from the member
    differences on each quad's boundary edges, and fold with
    ``np.maximum``; the scale, the largest member difference, goes one
    :func:`dnet.grid.blocks` block of edges at a time.
    """
    metric = np.asarray(metric, float)
    N = fam.size
    if metric.shape != (N, N):
        raise ValueError("metric shape must match the family size")
    if np.abs(metric - metric.T).max(initial=0.0) > 1e-14:
        raise ValueError("metric must be symmetric")
    g = fam.grid
    d = fam.signature.dim
    signs = fam.signature.signs

    # (b) bracket of the assembled map: values are d x N matrices,
    # [A, B] = (A' G_w B - B' G_w A  in Lambda^2 W) + (A G_w B' - B G_w A'
    # in Lambda^2 R^{p,q}) with the ambient metric pairing the first slot
    (ia, ib), (ja, jb) = lam2_pairs(d), lam2_pairs(N)

    def bracket(u, v):
        A = u.reshape(-1, d, N)
        B = v.reshape(-1, d, N)
        Ag = A * signs[None, :, None]
        amb = np.einsum("nxa,ab,nyb->nxy", A, metric, B)
        amb = amb - np.swapaxes(amb, 1, 2)
        wpart = np.einsum("nxa,nxb->nab", Ag, B)
        wpart = wpart - np.swapaxes(wpart, 1, 2)
        return np.concatenate([amb[:, ia, ib], wpart[:, ja, jb]], axis=1)

    rule = BilinearRule(bracket, d * N, d * N, lam2_dim(d) + lam2_dim(N),
                        name="direct-sum bracket")
    pairs = [(a, b) for a in range(N) for b in range(N) if metric[a, b] != 0.0]
    top = 0.0                               # the largest member difference
    for e in blocks(g.nedges):
        ends = g.ends(e)
        for m in fam.members:
            top = np.maximum(top, np.abs(g.edge_difference(m, ends)).max())
    apart, full_top = 0.0, 0.0
    for q in quad_blocks(g):
        ends = g.side_ends(q)
        # dx[a][n]: member a's differences on boundary edge n of each quad
        dx = [g.edge_difference(m, ends) for m in fam.members]
        weighted = np.zeros((ends[0].shape[1], lam2_dim(d)))         # (a)
        for a, b in pairs:
            weighted += metric[a, b] * _one_form_product(wedge_vec, dx[a].__getitem__,
                                                         dx[b].__getitem__)
        dphi = np.stack(dx, axis=-1).reshape(4, -1, d * N)
        full = _one_form_product(rule, dphi.__getitem__, dphi.__getitem__)  # (b)
        apart = np.maximum(apart, np.abs(full[:, :lam2_dim(d)] - weighted).max(initial=0.0))
        full_top = np.maximum(full_top, np.abs(full).max(initial=0.0))

    scale = float(top) ** 2
    equality = rel(float(apart), scale)
    vanish = rel(float(full_top), scale)
    out = {
        "characterization_equality": equality,
        "bracket_vanishes": vanish,
        "passed": bool(equality <= 1e-11 and vanish <= 1e-9),
    }
    return out
