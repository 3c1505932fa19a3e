"""Isothermic nets in a nonsingular quadric.

A net in the projective light cone of R^{p+1,q+1} is isothermic when it
is Koenigs; its Moutard lift then obeys the rigid evolution

    mu_k - mu_i = ((mu_i, mu_l - mu_j) / (mu_l, mu_j)) (mu_l - mu_j)

on every quad, and the reciprocal edge inner products define the edge
labelling ``m_ij = 1 / (mu_i, mu_j)`` (``inf`` on isotropic edges),
constant on opposite quad edges.  From the labelling one builds the
one-parameter family of flat connections Gamma(t) and from those the
Darboux (parallel null lines, including the isotropic case m = inf),
Calapso (gauge by a trivialization) and Christoffel (dual in a chart)
transformations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (DegeneracyError, EvolutionError, PropagationError,
                     SpectralCollisionError)
from .forms import frozen, unpack_bivector, wedge_vec
from .grid import (Grid, blocks, holonomy, integrate_one_form, quad_blocks, stack,
                   trivialize_connection)
from .koenigs import vertical_diagonal_margin, vertical_moutard
from .pseudo_euclidean import (Frame, Signature, action_matrix, conic_cross_ratio,
                               gamma_lambda, line_distance, renull, stereo_lift, stereo_project)
from .residuals import cos_angle, floor, gap, rel, sin_angle, worst

__all__ = [
    "IsothermicNet", "ConservedQuantity", "ChristoffelData",
    "moutard_evolve", "random_cauchy", "flat_connection", "darboux_transform",
    "stack_pair", "calapso_transform", "christoffel_dual", "bianchi_check",
    "special_quantity_solve", "quad_cross_ratio_residual",
]

INFINITE = np.inf

# |(mu_i, mu_j)| below this relative threshold classifies the edge label
# as infinite.
INF_LABEL_THRESHOLD = 1e-10

# Blocks of draws random_isothermic evolves and screens together (16 a
# block was faster at 12x12, slower at 6x6), and its quad and edge margins.
_DRAW_BLOCKS = (8,) * 8
_MARGIN, _EDGE_MARGIN = 1e-5, 1e-4
# Blocks of auto seeds darboux_transform propagates together, the least
# diagonal margin of a seed it accepts and the least |denominator| of a step.
_SEED_BLOCKS = (4,) * 6
_SEED_MARGIN, _MIN_DENOM = 1e-6, 1e-12
# Damping of a Cauchy step's component along the point sphere complex
# in indefinite signature: it keeps the edge inner products (and so the
# labels) away from the isotropic case.
_TIMELIKE_FACTOR = 0.35
# Rejection reasons of random_isothermic draws and of darboux_transform
# auto seeds, in the order their tests run; a draw that fails more than
# one margin counts under the first of _MARGINS.
_MARGINS = ("edge margin", "diagonal margin", "opposite-label margin")
_DRAW_REJECTIONS = ("irregular Cauchy step", "isotropic diagonal", *_MARGINS, "validate")
_SEED_REJECTIONS = ("seed draw", "propagation", "normalization", "diagonal margin",
                    "Moutard", "nullity")


class IsothermicNet:
    """Moutard lift of an isothermic net, with its edge inner products
    and labels stored at construction.

    ``mu`` holds one null vector per vertex.  The edge labelling
    ``m_ij = 1/(mu_i, mu_j)``, with ``inf`` on isotropic edges, is
    stored; the packed 1-form ``eta_ji = mu_j ^ mu_i`` is not, and
    :attr:`eta` computes it from ``mu`` on every read.
    """

    def __init__(self, grid: Grid, signature: Signature, mu):
        self.grid = grid
        self.signature = signature
        self.mu = frozen(mu)
        if self.mu.shape != (grid.nverts, signature.dim):
            raise ValueError("mu must be (nverts, dim)")
        n = grid.nedges
        self.edge_ip, self.labels = np.empty(n), np.empty(n)
        self.is_infinite = np.empty(n, bool)
        # in blocks, so that the gathered lifts of the edge ends stay one
        # block in size; lifts too large to multiply give inf or NaN
        # without a warning
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for e in blocks(grid.nedges):
                tail, head = grid.ends(e)
                mt, mh = self.mu[tail], self.mu[head]
                ip = self.edge_ip[e] = signature.inner(mt, mh)
                scale = np.linalg.norm(mt, axis=1) * np.linalg.norm(mh, axis=1)
                inf = self.is_infinite[e] = np.abs(ip) <= INF_LABEL_THRESHOLD * scale
                self.labels[e] = np.where(inf, INFINITE, 1.0 / np.where(inf, 1.0, ip))
        for arr in (self.edge_ip, self.is_infinite, self.labels):
            arr.setflags(write=False)

    @property
    def eta(self) -> np.ndarray:
        """Packed ``eta_ji = mu_j ^ mu_i`` on every canonical edge, a new
        array on each read."""
        tail, head = self.grid.ends()
        return wedge_vec(self.mu[head], self.mu[tail])

    def nearest_label(self, t: float):
        """``(|m - t|, edge)`` of the finite edge label ``m`` nearest ``t``, ``(inf,
        None)`` when no label is finite; a non-finite ``t`` raises ValueError."""
        if not np.isfinite(t):
            raise ValueError(f"spectral parameter must be finite, got {t}")
        gap = np.abs(self.labels - t)           # inf on the infinite labels
        e = int(np.argmin(gap)) if np.isfinite(gap).any() else None
        return (np.inf if e is None else float(gap[e])), e

    def validate(self, margin: float = 1e-6) -> dict:
        """Residuals of the full isothermic invariant suite.

        The nullity goes one :func:`dnet.grid.blocks` block of vertices
        at a time and the per-quad residuals one
        :func:`dnet.grid.quad_blocks` block at a time: the Moutard
        residuals fill an array over the quads, and the others fold over
        the blocks with ``np.maximum`` and ``np.minimum``, so NaN
        propagates and every value has the bits of one pass.  Lifts too
        large to square give infinite or NaN residuals without a warning.
        ``worst_quad`` names the first non-finite Moutard quad if there is
        one.
        """
        g, sig, mu = self.grid, self.signature, self.mu
        nullity, moutard = 0.0, np.empty(g.nquads)
        label_rel, diag, opp = 0.0, np.inf, np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            for v in blocks(g.nverts):
                nullity = np.maximum(nullity, np.abs(rel(sig.norm2(mu[v]),
                                                         np.sum(mu[v] * mu[v], axis=1))).max())
            for b in quad_blocks(g):
                mq = mu[g.corners(b)]               # (block, 4, dim): i, j, k, l
                moutard[b] = sin_angle(mq[:, 2] - mq[:, 0], mq[:, 3] - mq[:, 1])
                ips = self.edge_ip[g.sides(b)]      # ij, jk, lk, il
                label_rel = np.maximum(label_rel, rel(
                    np.maximum(np.abs(ips[:, 0] - ips[:, 2]), np.abs(ips[:, 3] - ips[:, 1])),
                    np.abs(ips).max(axis=1)).max())
                d, o = _quad_margins(sig, mq, np.linalg.norm(mq, axis=-1), ips)
                diag, opp = np.minimum(diag, d.min()), np.minimum(opp, o.min())
        nullity = float(nullity)
        moutard, quad = worst(moutard)
        label_rel = float(label_rel)
        # both quad margins are 0 on a grid without quads
        diag, opp_margin = (float(m) if g.nquads else 0.0 for m in (diag, opp))
        return {
            "nullity": nullity, "moutard": moutard,
            "worst_quad": None if quad is None else g.locate_quad(quad),
            "label_relations": label_rel,
            "opposite_label_margin": opp_margin,
            "diagonal_margin": diag,
            "passed": bool(nullity <= 1e-10 and moutard <= 1e-10
                           and label_rel <= 1e-9
                           and (g.nquads == 0 or (opp_margin >= margin and diag >= margin))),
        }


def _quad_margins(signature: Signature, mq: np.ndarray, nq: np.ndarray, ips: np.ndarray):
    """Per quad, over leading axes, from the lifts ``mq`` at its vertices
    i, j, k, l, their norms ``nq`` and its edge inner products ``ips``
    (ij, jk, lk, il): the least ``|(mu_i, mu_j)| / (|mu_i| |mu_j|)`` over
    the diagonals, and ``|(mu_i, mu_j) - (mu_i, mu_l)|`` over the largest
    edge inner product.  A non-finite lift gives NaN margins without a
    warning."""
    with np.errstate(all="ignore"):
        diag = cos_angle(signature.inner(mq[..., :2, :], mq[..., 2:, :]),  # (i, k), (j, l)
                         nq[..., :2], nq[..., 2:]).min(axis=-1)
        opp = rel(np.abs(ips[..., 0] - ips[..., 3]), np.abs(ips).max(axis=-1))
    return diag, opp


def _margins(grid: Grid, signature: Signature, mu: np.ndarray):
    """Edge, diagonal and opposite-label margins of a batch of lifts
    ``(n, nverts, d)``, each an ``(n,)`` array: per draw, the least
    ``|(mu_i, mu_j)| / (|mu_i| |mu_j|)`` over the edges, and the least
    :func:`_quad_margins` over the quads.  Both quad margins are 0 on a
    grid without quads.
    """
    ip = signature.inner
    t, h = grid.ends()
    norms = np.linalg.norm(mu, axis=-1)
    edge_ip = ip(mu[:, t], mu[:, h])
    edge = cos_angle(edge_ip, norms[:, t], norms[:, h]).min(axis=1, initial=np.inf)
    if grid.nquads == 0:
        return edge, np.zeros(len(mu)), np.zeros(len(mu))
    qv = grid.corners()
    diag, opp = _quad_margins(signature, mu[:, qv], norms[:, qv], edge_ip[:, grid.sides()])
    return edge, diag.min(axis=1), opp.min(axis=1)


def _moutard_step(ip, mi, mj, ml):
    """The fourth lifts ``mi + ((mi, ml - mj) / (ml, mj)) (ml - mj)`` of Moutard quads,
    the mask of the degenerate ones, ``|(ml, mj)| <= 1e-12 |ml| |mj|``, and ``(ml, mj)``;
    only a degenerate quad divides by zero, so that warns of nothing."""
    denom = ip(ml, mj)
    degenerate = np.abs(denom) <= _MIN_DENOM * floor(
        np.linalg.norm(ml, axis=-1) * np.linalg.norm(mj, axis=-1))
    diff = ml - mj
    with np.errstate(divide="ignore", invalid="ignore"):
        return mi + (ip(mi, diff) / denom)[..., None] * diff, degenerate, denom


def _evolve(signature: Signature, line0: np.ndarray, line1: np.ndarray, frame: Frame):
    """Moutard evolution of a batch of Cauchy data, one anti-diagonal per
    step over a leading draw axis.

    ``line0`` is ``(n, d0, d)`` and ``line1`` ``(n, d1, d)``.  Returns the
    lifts ``(n, d0, d1, d)`` and, per draw, None or the ``(corner,
    residual)`` of its first isotropic diagonal; the later lifts of such
    a draw mean nothing.  The loop stops once every draw has one.
    """
    ip = signature.inner
    n, d0, d = line0.shape
    d1 = line1.shape[1]
    mu = np.zeros((n, d0, d1, d))
    mu[:, :, 0] = line0
    mu[:, 0, :] = line1
    failures = [None] * n
    left = n
    for s in range(2, d0 + d1 - 1):
        a = np.arange(max(1, s - d1 + 1), min(d0, s))
        b = s - a
        new, degenerate, denom = _moutard_step(
            ip, mu[:, a - 1, b - 1], mu[:, a, b - 1], mu[:, a - 1, b])
        for k in np.flatnonzero(degenerate.any(axis=1)):
            if failures[k] is None:
                c = int(np.argmax(degenerate[k]))
                failures[k] = ((int(a[c]) - 1, int(b[c]) - 1), abs(float(denom[k, c])))
                left -= 1
        if not left:
            break
        mu[:, a, b] = renull(new, frame)
    return mu, failures


def moutard_evolve(grid: Grid, signature: Signature, line0, line1,
                   frame: Frame) -> IsothermicNet:
    """Fill a 2D grid from null Cauchy data on the two initial lines.

    ``line0[a]`` is the lift at (a, 0) and ``line1[b]`` at (0, b); the
    shared corner must agree.  Interior vertices are forced by the light
    cone: the Moutard factor is the unique nonzero root of the nullity
    quadratic.  Each quad needs only its three earlier vertices, so the
    grid fills one anti-diagonal ``a + b = s`` at a time.  The lifts are
    re-projected onto the light cone with ``frame`` after each diagonal
    to stop drift.  This is the batch of one of the evolution
    :func:`random_isothermic` runs on a block of draws.
    """
    if grid.ndim != 2:
        raise ValueError("Cauchy evolution expects a 2D grid")
    d0, d1 = grid.dims
    line0 = np.asarray(line0, float)
    line1 = np.asarray(line1, float)
    if line0.shape != (d0, signature.dim) or line1.shape != (d1, signature.dim):
        raise ValueError("Cauchy data sizes do not match the grid")
    if np.linalg.norm(line0[0] - line1[0]) > 1e-12 * np.linalg.norm(line0[0]):
        raise ValueError("Cauchy lines must agree at the corner")
    if not np.all(signature.is_null(np.concatenate([line0, line1]))):
        raise ValueError("Cauchy data must be null")
    mu, failures = _evolve(signature, line0[None], line1[None], frame)
    if failures[0] is not None:
        corner, residual = failures[0]
        raise EvolutionError("isotropic diagonal: Moutard evolution degenerate",
                             where={"kind": "quad", "corner": corner}, residual=residual)
    return IsothermicNet(grid, signature, mu[0].reshape(grid.nverts, signature.dim))


def _cauchy_lines(grid: Grid, signature: Signature, rng, n: int, magnitude: float,
                  frame: Frame):
    """The Cauchy data of ``n`` draws of :func:`random_cauchy`, batched
    over the draws.

    One ``standard_normal((n, d0 + d1 - 1, d))`` call holds, per draw,
    the base row and then one row per step, the steps of axis 0 first.
    Returns the lines ``(n, d0, d)`` and ``(n, d1, d)`` and a mask of the
    regular draws: those whose every step has ``|(w, q)| >= 1e-6`` and a
    lift not orthogonal to the previous one at 1e-8.  Irregular draws
    may overflow, so run it under ``np.errstate``.
    """
    ip, d = signature.inner, signature.dim
    d0, d1 = grid.dims
    rows = rng.standard_normal((n, d0 + d1 - 1, d))
    base = stereo_lift(frame.pi(rows[:, 0]), frame)
    deltas = frame.pi(magnitude * rows[:, 1:])
    if frame.p is not None:
        comp = -ip(deltas, frame.p)
        deltas = deltas + ((_TIMELIKE_FACTOR - 1.0) * comp)[..., None] * frame.p
    line0, line1 = np.empty((n, d0, d)), np.empty((n, d1, d))
    wq = np.empty((n, d0 + d1 - 2))
    step = 0
    for line in (line0, line1):
        line[:, 0] = base
        for a in range(1, line.shape[1]):
            w = line[:, a - 1] + deltas[:, step]
            wq[:, step] = ip(w, frame.q)
            line[:, a] = renull(w, frame)
            step += 1
    prev = np.concatenate([line0[:, :-1], line1[:, :-1]], axis=1)
    cand = np.concatenate([line0[:, 1:], line1[:, 1:]], axis=1)
    regular = ((np.abs(wq) >= 1e-6)
               & (np.abs(ip(cand, prev)) > 1e-8 * np.linalg.norm(cand, axis=-1)
                  * np.linalg.norm(prev, axis=-1))).all(axis=1)
    return line0, line1, regular


def random_cauchy(grid: Grid, signature: Signature, rng, magnitude: float, frame: Frame):
    """Random null Cauchy data for :func:`moutard_evolve`.

    Each step perturbs the previous lift inside the q-complement and
    solves the nullity constraint for the q-coefficient; the base point
    is the lift of a random point of R^{p,q}.  In indefinite signature
    the step component along the point sphere complex is damped, which
    keeps the edge inner products (and so the labels) bounded away from
    the isotropic case.

    ``rng`` must be a ``numpy.random.Generator``.  A call reads one run
    of ``d0 + d1 - 1`` rows of ``standard_normal(d)``: the base row, then
    one row per step, the steps of axis 0 before those of axis 1.  A step
    with ``|(w, q)| < 1e-6``, or whose lift is orthogonal to the previous
    one, raises :class:`DegeneracyError`; ``rng`` ends past the run all
    the same.  This is the batch of one of the draws
    :func:`random_isothermic` reads.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        line0, line1, regular = _cauchy_lines(grid, signature, rng, 1, magnitude, frame)
    if not regular[0]:
        raise DegeneracyError("could not draw a regular Cauchy step")
    return line0[0], line1[0]


def _rejected_at(counts: dict) -> str:
    """``"rejected at a 1, b 0"``: the count per rejection reason."""
    return "rejected at " + ", ".join(f"{name} {n}" for name, n in counts.items())


def random_isothermic(grid: Grid, signature: Signature, rng, magnitude: float = 0.3,
                      frame: Frame | None = None) -> IsothermicNet:
    """Draw Cauchy data and evolve, rejecting badly conditioned nets.

    Random data in indefinite signature can come arbitrarily close to an
    isotropic diagonal or edge; draws are retried until the quad margins
    clear 1e-5 and every edge stays at least 1e-4 away from the isotropic
    (infinite label) case.

    Draw ``i`` reads the ``i``-th run of ``d0 + d1 - 1`` rows of
    ``standard_normal(d)``, laid out as :func:`random_cauchy` reads them,
    and a draw with an irregular Cauchy step is rejected whole.  The
    draws are made in blocks of 8: one ``standard_normal((8, d0 + d1 - 1,
    d))`` call, one evolution wavefront and one pass of margins per
    block; the draws that clear the margins go, in order, through
    ``validate`` and the rest of the acceptance test.  The first draw
    that passes is returned and ``rng`` ends just past its rows.  After
    64 draws, :class:`DegeneracyError` gives in one line the count of
    draws rejected for each reason (each margin by name) and the best
    diagonal margin reached.
    """
    frame = signature.standard_frame() if frame is None else frame
    rows, d = sum(grid.dims) - 1, signature.dim
    counts = dict.fromkeys(_DRAW_REJECTIONS, 0)
    best = -np.inf
    for n in _DRAW_BLOCKS:
        state = rng.bit_generator.state
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            line0, line1, regular = _cauchy_lines(grid, signature, rng, n, magnitude, frame)
            mu, failures = _evolve(signature, line0, line1, frame)
            mu = mu.reshape(n, grid.nverts, d)
            edge, diag, opp = _margins(grid, signature, mu)
        # a grid without quads has no quad margins to test
        screens = (edge >= _EDGE_MARGIN, (diag >= _MARGIN) | (grid.nquads == 0),
                   (opp >= _MARGIN) | (grid.nquads == 0))
        for j in range(n):
            if not regular[j]:
                counts["irregular Cauchy step"] += 1
                continue
            if failures[j] is not None:
                counts["isotropic diagonal"] += 1
                continue
            best = max(best, float(diag[j]))
            failed = [name for name, ok in zip(_MARGINS, screens) if not ok[j]]
            if failed:
                counts[failed[0]] += 1
                continue
            # the screens have tested the edge margin
            net = IsothermicNet(grid, signature, mu[j])
            rep = net.validate()
            if (rep["nullity"] <= 1e-12 and rep["moutard"] <= 1e-11
                    and (grid.nquads == 0 or (rep["diagonal_margin"] >= _MARGIN
                                              and rep["opposite_label_margin"] >= _MARGIN))):
                rng.bit_generator.state = state
                rng.standard_normal(((j + 1) * rows, d))
                return net
            counts["validate"] += 1
    raise DegeneracyError(f"no well-conditioned net after {sum(_DRAW_BLOCKS)} draws: "
                          f"{_rejected_at(counts)}; best diagonal margin {best:.3e}")


def _check_spectrum(net: IsothermicNet, t: float):
    """Raise :class:`SpectralCollisionError` on the edge whose finite label
    is nearest ``t`` when it lies within ``1e-8 max(1, |t|)`` of it."""
    gap, e = net.nearest_label(t)
    if t != 0.0 and gap <= 1e-8 * max(1.0, abs(t)):
        raise SpectralCollisionError(f"t = {t} collides with edge label {net.labels[e]}",
                                     where=net.grid.locate_edge(e))


def _transports(net: IsothermicNet, t: float, edges: np.ndarray, out=None) -> np.ndarray:
    """The transports of Gamma(t) on the canonical edges ``edges``, written
    into ``out`` when it is given; an error names the first degenerate
    one in the order given.  Where an edge is isotropic, the
    finite transports are built in one temporary and copied in."""
    g, sig, d = net.grid, net.signature, net.signature.dim
    inf = net.is_infinite[edges]
    fin = edges[~inf] if inf.any() else edges
    out = np.empty((len(edges), d, d)) if out is None else out
    if t == 0.0:
        out[~inf] = np.eye(d)
    else:
        try:
            eigen = gamma_lambda(net.mu[np.stack(g.ends(fin))],
                                 1.0 - t / net.labels[fin], sig,
                                 out=None if inf.any() else out)
        except DegeneracyError as err:
            err.where = g.locate_edge(int(fin[err.where]))
            raise
        if not inf.any():
            return out
        out[~inf] = eigen
    tail, head = g.ends(edges[inf])
    eta = wedge_vec(net.mu[head], net.mu[tail])
    out[inf] = np.eye(d) + t * action_matrix(unpack_bivector(eta, d), sig)
    return out


def flat_connection(net: IsothermicNet, t: float) -> np.ndarray:
    """Per-edge orthogonal transports of the spectral family Gamma(t).

    On an edge with finite label the transport is the eigen-map with
    ``1 - t/m`` on the head line and its reciprocal on the tail line; on
    isotropic edges it is ``exp(t eta_ji) = I + t eta_ji``.  ``t`` must
    avoid all finite labels.  Entry ``e`` maps the fiber at the tail of
    canonical edge ``e`` to the fiber at its head.  The transports are
    built one :func:`dnet.grid.blocks` block of edges at a time, in place
    in the result, so that their temporaries stay one block in size.
    """
    g, d = net.grid, net.signature.dim
    _check_spectrum(net, t)
    out = np.empty((g.nedges, d, d))
    for b in blocks(g.nedges):
        _transports(net, t, np.arange(b.start, b.stop), out[b])
    return out


def connection_flatness(net: IsothermicNet, t: float) -> tuple:
    """``(value, quad)`` of the max relative quad :func:`dnet.grid.holonomy`
    of Gamma(t), as :func:`dnet.residuals.worst` locates it.

    The transports are built for the edges of one
    :func:`dnet.grid.quad_blocks` block at a time and die with it; each
    quad's holonomy has the bits it has over :func:`flat_connection`.  An
    error is the one ``flat_connection(net, t)`` raises; a grid without
    quads has no transport to check.
    """
    _check_spectrum(net, t)
    return worst(holonomy(net.grid, partial(_transports, net, t)))


def _seed_orthogonal_null(net: IsothermicNet, rng) -> np.ndarray:
    """Random null vector orthogonal to mu at vertex 0."""
    sig = net.signature
    ip = sig.inner
    mu0 = net.mu[0]
    anchor = None
    for v in rng.permutation(net.grid.nverts):
        if abs(ip(net.mu[v], mu0)) > 1e-6:
            anchor = net.mu[v]
            break
    if anchor is None:
        anchor = rng.standard_normal(sig.dim)
    for _ in range(64):
        w = rng.standard_normal((2, sig.dim))
        u = w - (ip(w, mu0) / ip(anchor, mu0))[:, None] * anchor
        a = float(ip(u[1], u[1]))
        b = 2.0 * float(ip(u[0], u[1]))
        c = float(ip(u[0], u[0]))
        if abs(a) < 1e-14:
            continue
        disc = b * b - 4 * a * c
        if disc <= 0:
            continue
        cand = u[0] + ((-b + np.sqrt(disc)) / (2 * a)) * u[1]
        n = np.linalg.norm(cand)
        if n < 1e-10 or line_distance(cand, mu0) < 1e-6:
            continue
        return cand / n
    raise DegeneracyError("no isotropic seed found orthogonal to the base line")


def darboux_transform(net: IsothermicNet, m: float, rng, seed=None) -> IsothermicNet:
    """Darboux transform with parameter ``m`` (``inf`` for the isotropic
    case).

    The transformed lift is propagated by the vertical Moutard evolution
    (the nullity-forced factor), which preserves ``(mu, mu_hat) = 1/m``
    identically; for finite ``m`` the lift is additionally rescaled each
    step to pin the normalization against rounding drift.  The seed is a
    null vector at vertex 0: non-orthogonal to the net there for
    finite ``m``, orthogonal for ``m = inf``.  Auto-drawn seeds are
    retried while the transformed net comes too close to a regularity
    violation: they are drawn from ``rng`` one at a time, in blocks of 4
    propagated together one tree level at a time, and the first seed in
    draw order that passes is returned, so an auto-seeded call may leave
    ``rng`` past the accepted seed.  After 24 auto seeds,
    :class:`DegeneracyError` gives in one line the count of seeds
    rejected for each reason and the best diagonal margin reached.  An
    explicit ``seed`` is a block of one.  ``m = 0`` (a ValueError) and, where
    ``min(p, q) < 2``, the isotropic transform raise at once, before any draw.
    """
    g, sig = net.grid, net.signature
    if m == 0:
        raise ValueError("Darboux parameter m must be nonzero")
    if np.isinf(m) and min(sig.p, sig.q) < 2:
        raise DegeneracyError(f"no isotropic Darboux transform in signature ({sig.p}, {sig.q}): "
                              f"a null seed orthogonal to the net is proportional to it")
    if not np.isinf(m) and net.nearest_label(m)[0] <= 1e-8 * max(1.0, abs(m)):
        raise SpectralCollisionError(f"m = {m} collides with an edge label")
    if seed is not None:
        hat, failures = _darboux_march(net, m, _darboux_start(net, m, seed)[None])
        if failures[0] is not None:
            what, e = failures[0]
            raise PropagationError(f"Darboux {what} degenerate", where=g.locate_edge(e))
        return IsothermicNet(g, sig, hat[0])
    draw = _seed_orthogonal_null if np.isinf(m) else _finite_darboux_seed
    counts = dict.fromkeys(_SEED_REJECTIONS, 0)
    best = -np.inf
    for size in _SEED_BLOCKS:
        starts = []
        for _ in range(size):
            try:
                starts.append(_darboux_start(net, m, draw(net, rng)))
            except (DegeneracyError, ValueError):
                counts["seed draw"] += 1
        hat, failures = _darboux_march(net, m, np.reshape(starts, (-1, sig.dim)))
        for k in range(len(starts)):
            if failures[k] is not None:
                counts[failures[k][0]] += 1
                continue
            out = IsothermicNet(g, sig, hat[k])
            rep = _pair_quality(net, out)
            best = max(best, rep["diagonal_margin"])
            failed = [name for name, ok in (
                ("diagonal margin", rep["diagonal_margin"] >= _SEED_MARGIN),
                ("Moutard", rep["moutard"] <= 1e-10),
                ("nullity", rep["nullity"] <= 1e-11)) if not ok]
            if not failed:
                return out
            counts[failed[0]] += 1
    raise DegeneracyError(f"no admissible Darboux seed after {sum(_SEED_BLOCKS)} draws: "
                          f"{_rejected_at(counts)}; best diagonal margin {best:.3e}")


def _darboux_start(net: IsothermicNet, m: float, seed):
    """The transformed lift at vertex 0 from a seed."""
    sig, seed = net.signature, np.asarray(seed, float)
    if not sig.is_null(seed):
        raise ValueError("Darboux seed must be null")
    s0 = float(sig.inner(seed, net.mu[0]))
    if np.isinf(m):
        if abs(s0) > 1e-8 * np.linalg.norm(seed) * np.linalg.norm(net.mu[0]):
            raise ValueError("isotropic Darboux seed must be orthogonal to the net")
        return seed
    if abs(s0) < _MIN_DENOM:
        raise ValueError("Darboux seed orthogonal to the net at vertex 0")
    # a tiny m overflows the lift to inf, which the march and the quality
    # screens reject
    with np.errstate(over="ignore"):
        return seed / (m * s0)


def _darboux_march(net: IsothermicNet, m: float, hat0: np.ndarray):
    """Propagate the lifts ``hat0`` ``(n, d)`` at vertex 0 over the staircase
    tree, one level at a time over a leading seed axis.

    Returns the lifts ``(n, nverts, d)`` and, per seed, None or the
    ``(reason, edge)`` of its first degenerate step in tree order, the
    reason ``"propagation"`` or ``"normalization"``; the later lifts of
    such a seed mean nothing.
    """
    g, ip = net.grid, net.signature.inner
    mu = net.mu
    hat = np.zeros((len(hat0),) + mu.shape)
    hat[:, 0] = hat0
    failures = [None] * len(hat0)
    alive = np.arange(len(hat0))
    for child, parent, slot in g.staircase_tree():
        # a huge lift at vertex 0 (a tiny m) overflows its norm: that step fails
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val, stuck, _ = _moutard_step(ip, mu[parent], mu[child], hat[alive[:, None], parent])
            bad = [stuck]
            if not np.isinf(m):
                cur = ip(mu[child], val)
                bad.append(np.abs(cur) <= _MIN_DENOM)
                val = val / (m * cur)[..., None]
        hat[alive[:, None], child] = val
        failed = np.logical_or.reduce(bad)
        for k in np.flatnonzero(failed.any(axis=1)):
            c = int(np.argmax(failed[k]))
            failures[alive[k]] = ("propagation" if bad[0][k, c] else "normalization",
                                  int(slot[c]))
        alive = alive[~failed.any(axis=1)]
        if not len(alive):
            break
    return hat, failures


def _pair_quality(net: IsothermicNet, hat: IsothermicNet) -> dict:
    """Quality report of a Darboux pair without building the stack (the
    grid may itself already be stacked); a grid without quads has only
    the vertical diagonal margins.  Lifts too large to multiply (those of
    a tiny ``m``) give NaN or infinite margins without a warning."""
    rep = hat.validate()
    g = net.grid
    with np.errstate(over="ignore", invalid="ignore"):
        vert_diag = vertical_diagonal_margin(g, hat.mu, net.mu, net.signature)
        vert_moutard = vertical_moutard(g, hat.mu, net.mu)
    return {
        "nullity": rep["nullity"],
        "moutard": max(rep["moutard"], float(vert_moutard.max(initial=0.0))),
        "diagonal_margin": min(rep["diagonal_margin"] if g.nquads else np.inf,
                               float(vert_diag.min(initial=np.inf))),
    }


def _random_null(sig: Signature, rng) -> np.ndarray:
    frame = sig.standard_frame()
    v = stereo_lift(frame.pi(rng.standard_normal(sig.dim)), frame)
    return v / np.linalg.norm(v)


def _finite_darboux_seed(net: IsothermicNet, rng) -> np.ndarray:
    ip = net.signature.inner
    mu0 = net.mu[0]
    for _ in range(64):
        cand = _random_null(net.signature, rng)
        if abs(ip(cand, mu0)) > 1e-4 * np.linalg.norm(cand) * np.linalg.norm(mu0):
            return cand
    raise DegeneracyError("no admissible Darboux seed found")


def stack_pair(net: IsothermicNet, hat: IsothermicNet) -> IsothermicNet:
    """The stacked net ``net (level 0) over hat (level 1)``."""
    if net.grid is not hat.grid and net.grid.dims != hat.grid.dims:
        raise ValueError("nets live on different grids")
    sg = stack(net.grid)
    mu = np.concatenate([net.mu, hat.mu], axis=0)
    mu.setflags(write=False)            # the net keeps it: no copy
    return IsothermicNet(sg, net.signature, mu)


def _eta_apply(signature: Signature, grid: Grid, mu: np.ndarray, c,
               edges=slice(None)) -> np.ndarray:
    """``eta_ji c = (mu_j, c) mu_i - (mu_i, c) mu_j`` on the canonical
    edges ``i -> j`` of ``edges`` (all by default), over the leading axes
    of ``mu`` ``(..., nverts, d)``."""
    ip = signature.inner
    tail, head = grid.ends(edges)
    mt, mh = mu[..., tail, :], mu[..., head, :]
    return ip(mh, c)[..., None] * mt - ip(mt, c)[..., None] * mh


def calapso_transform(net: IsothermicNet, t: float):
    """Calapso transform: trivialize Gamma(t) and move the lift.

    Returns ``(transformed net, T)`` with ``T`` the identity at vertex 0 (this
    pins the constant gauge freedom).  The transformed labels are
    ``m - t`` and the transformed flat connections satisfy
    ``Gamma^{s(t)}(u) = T . Gamma^s(t + u)``.  The trivialization builds
    the transports of Gamma(t) a block at a time, so no whole Gamma(t) is
    held; errors are those of :func:`flat_connection`.
    """
    _check_spectrum(net, t)
    T = trivialize_connection(net.grid, partial(_transports, net, t))
    mu_t = np.einsum("nab,nb->na", T, net.mu)
    mu_t.setflags(write=False)          # the net keeps it: no copy
    return IsothermicNet(net.grid, net.signature, mu_t), T


@dataclass
class ChristoffelData:
    """Christoffel dual of the stereoprojection of an isothermic net."""

    x: np.ndarray
    x_dual: np.ndarray
    r: np.ndarray          # mu = r * euclidean lift


def christoffel_dual(net: IsothermicNet, frame: Frame | None = None) -> ChristoffelData:
    """Dual net integrated from ``d x_dual = pi(eta q)``.

    The dual is edge-parallel to the stereoprojection ``x`` with
    ``d x_dual = r_i r_j dx`` for ``r = -(mu, q)`` and satisfies
    ``(dx, dx_dual) = -2/m`` on every edge.  ``x`` and ``r`` are built one
    :func:`dnet.grid.blocks` block of vertices at a time, ``d x_dual`` one
    block of edges at a time, and its closedness is checked one quad
    block at a time; only the walk that integrates it holds index arrays
    over the whole grid.
    """
    frame = net.signature.standard_frame() if frame is None else frame
    sig, g, mu = net.signature, net.grid, net.mu
    x, r = np.empty((g.nverts, sig.dim)), np.empty(g.nverts)
    for v in blocks(g.nverts):
        x[v] = stereo_project(mu[v], frame)
        r[v] = -sig.inner(mu[v], frame.q)
    dxd = np.empty((g.nedges, sig.dim))
    for e in blocks(g.nedges):
        dxd[e] = frame.pi(_eta_apply(sig, g, mu, frame.q, e))
    xd = integrate_one_form(g, dxd)
    return ChristoffelData(x=x, x_dual=xd, r=r)


def christoffel_residuals(net: IsothermicNet, data: ChristoffelData) -> dict:
    """Residual sweep of the duality identities."""
    sig, g = net.signature, net.grid
    t, h = g.ends()
    dx = g.edge_difference(data.x)
    dxd = g.edge_difference(data.x_dual)
    ip = sig.inner(dx, dxd)
    rhs = np.where(net.is_infinite, 0.0,
                   -2.0 * np.where(net.is_infinite, 0.0, net.edge_ip))
    pairing = float(gap(ip, rhs).max(initial=0.0))
    factor = dxd - (data.r[t] * data.r[h])[:, None] * dx
    fres = rel(np.linalg.norm(factor, axis=1), np.linalg.norm(dxd, axis=1))
    from .forms import Form0, curly_wedge, exterior_derivative
    area = curly_wedge(exterior_derivative(Form0(g, data.x)),
                       exterior_derivative(Form0(g, data.x_dual)))
    ares = rel(float(np.abs(area.values).max(initial=0.0)),
               np.abs(dx).max() * np.abs(dxd).max())
    return {
        "pairing": pairing,                       # (dx, dxd) = -2/m
        "edge_parallel": float(sin_angle(dx, dxd).max(initial=0.0)),
        "scale_factor": float(fres.max(initial=0.0)),   # dxd = r_i r_j dx
        "koenigs_area": ares,                     # dx ^~ dxd = 0
    }


def bianchi_check(net: IsothermicNet, hat: IsothermicNet, m: float) -> dict:
    """Bianchi's identity on a Darboux pair.

    Builds the Christoffel dual of the stacked net (one integration, so
    the integration constants extend the dual of the bottom layer) and
    reports the pointwise parallelism of ``x_hat - x`` with
    ``x_dual_hat - x_dual`` plus the scalar identity
    ``(x_hat - x, x_dual_hat - x_dual) = -2/m``.
    """
    stacked = stack_pair(net, hat)
    data = christoffel_dual(stacked, net.signature.standard_frame())
    n = net.grid.nverts
    x, xh = data.x[:n], data.x[n:]
    xd, xdh = data.x_dual[:n], data.x_dual[n:]
    ip = net.signature.inner
    diff, diffd = xh - x, xdh - xd
    par = sin_angle(diff, diffd)
    vals = ip(diff, diffd)
    rhs = 0.0 if np.isinf(m) else -2.0 / m
    scalar = np.abs(vals - rhs) / max(abs(rhs), 1.0)
    return {
        "parallelism": float(par.max(initial=0.0)),
        "scalar_identity": float(scalar.max(initial=0.0)),
    }


@dataclass
class ConservedQuantity:
    """Degree-1 polynomial family ``p(t) = p0 + t p1`` of sections."""

    p0: np.ndarray
    p1: np.ndarray
    signature: Signature

    def at(self, t: float) -> np.ndarray:
        return self.p0 + t * self.p1

    def norm_polynomial(self) -> np.ndarray:
        """Vertexwise coefficients (a, b, c) of (p(t), p(t)) = a + bt + ct^2."""
        ip = self.signature.inner
        return np.stack([ip(self.p0, self.p0),
                         2.0 * ip(self.p0, self.p1),
                         ip(self.p1, self.p1)], axis=1)

    def coefficient_spread(self) -> float:
        coeffs = self.norm_polynomial()
        return float(np.abs(coeffs - coeffs[0]).max(initial=0.0))

    def parallel_residual(self, net: IsothermicNet, t: float) -> float:
        gam = flat_connection(net, t)
        g = net.grid
        vals = self.at(t)
        tail, head = g.ends()
        moved = np.einsum("eab,eb->ea", gam, vals[tail])
        return float(rel(np.linalg.norm(moved - vals[head], axis=1),
                         np.linalg.norm(vals[head], axis=1)).max(initial=0.0))


def special_quantity_solve(net: IsothermicNet, c_vec, xi_seed=None):
    """Solve ``d xi = eta c`` and test for a linear conserved quantity.

    ``xi_seed`` is the value at vertex 0; when it is None the constant of
    integration is chosen by least squares to minimize the orthogonality
    defect ``(xi, mu)``.
    Returns a diagnostic dict with the per-vertex residual map; success
    means ``(xi, mu) = 0`` everywhere, and in that case the
    Gamma(t)-parallelism of ``c + t xi`` is verified at sample values of
    t (labels are avoided automatically).
    """
    g, sig = net.grid, net.signature
    ip = sig.inner
    c_vec = np.asarray(c_vec, float)
    xi0 = integrate_one_form(g, _eta_apply(sig, g, net.mu, c_vec))
    if xi_seed is not None:
        xi = xi0 + (np.asarray(xi_seed, float) - xi0[0])
    else:
        # choose the constant minimizing sum (xi0 + const, mu)^2
        A = net.mu * sig.signs
        b = ip(xi0, net.mu)
        const, *_ = np.linalg.lstsq(A, -b, rcond=None)
        xi = xi0 + const
    orth = cos_angle(ip(xi, net.mu), np.linalg.norm(xi, axis=1),
                     np.linalg.norm(net.mu, axis=1))
    success = bool(orth.max(initial=0.0) <= 1e-8)
    out = {
        "success": success,
        "xi": xi,
        "orthogonality": orth,
        "worst": float(orth.max(initial=0.0)),
    }
    if success:
        q = ConservedQuantity(p0=np.tile(c_vec, (g.nverts, 1)), p1=xi, signature=sig)
        pres = {}
        for ts in (-1.5, -0.7, 0.3, 0.9, 2.2):
            if net.nearest_label(ts)[0] < 1e-6:
                continue
            pres[ts] = q.parallel_residual(net, ts)
        out["quantity"] = q
        out["parallel_residuals"] = pres
    return out


def quad_cross_ratio_residual(net: IsothermicNet) -> float:
    """Max relative defect of cross ratio = m_jk / m_ij over the quads with finite
    bottom and right labels, in one :func:`conic_cross_ratio`."""
    g, sides = net.grid, net.grid.sides()
    quads = np.flatnonzero(~(net.is_infinite[sides[:, 0]] | net.is_infinite[sides[:, 1]]))
    expected = net.labels[sides[quads, 1]] / net.labels[sides[quads, 0]]
    try:
        cr = conic_cross_ratio(net.mu[g.corners(quads)], net.signature)
    except DegeneracyError as err:
        raise DegeneracyError(str(err), where=g.locate_quad(quads[err.where])) from None
    return float(rel(np.abs(cr - expected), np.abs(expected)).max(initial=0.0))
