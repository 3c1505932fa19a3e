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

import numpy as np

from .errors import (DegeneracyError, EvolutionError, PropagationError,
                     SpectralCollisionError)
from .forms import unpack_bivector, wedge_vec
from .grid import Grid, stack, trivialize_connection
from .pseudo_euclidean import (Frame, Signature, action_matrix, conic_cross_ratio,
                               gamma_lambda, line_distance, renull, stereo_project)

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


class IsothermicNet:
    """Moutard lift of an isothermic net, with cached edge data.

    ``mu`` holds one null vector per vertex.  ``eta`` (packed) and the
    edge labelling are derived: ``eta_ji = mu_j ^ mu_i`` and
    ``m_ij = 1/(mu_i, mu_j)`` with ``inf`` on isotropic edges.
    """

    def __init__(self, grid: Grid, signature: Signature, mu):
        self.grid = grid
        self.signature = signature
        self.mu = np.array(mu, float)
        if self.mu.shape != (grid.nverts, signature.dim):
            raise ValueError("mu must be (nverts, dim)")
        self.mu.setflags(write=False)
        t, h = grid.edge_tail, grid.edge_head
        self.edge_ip = signature.inner(self.mu[t], self.mu[h])
        scale = np.linalg.norm(self.mu[t], axis=1) * np.linalg.norm(self.mu[h], axis=1)
        self.is_infinite = np.abs(self.edge_ip) <= INF_LABEL_THRESHOLD * scale
        with np.errstate(divide="ignore"):
            self.labels = np.where(self.is_infinite, INFINITE, 1.0 /
                                   np.where(self.is_infinite, 1.0, self.edge_ip))
        self.eta = wedge_vec(self.mu[h], self.mu[t])
        for arr in (self.edge_ip, self.is_infinite, self.labels, self.eta):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.signature.dim

    def label_on(self, tail: int, head: int) -> float:
        e = self.grid.oriented_edge(tail, head)
        return float(self.labels[e.index])

    def finite_labels(self) -> np.ndarray:
        return self.labels[~self.is_infinite]

    def lines(self) -> np.ndarray:
        return self.mu / np.linalg.norm(self.mu, axis=1, keepdims=True)

    def validate(self, tol_null: float = 1e-10, tol_moutard: float = 1e-10,
                 tol_labels: float = 1e-9, margin: float = 1e-6) -> dict:
        """Residuals of the full isothermic invariant suite.

        Per-quad residuals are arrays over ``quad_vertices``; a non-finite
        residual propagates into its reported value, and ``worst_quad``
        then names the first non-finite quad.
        """
        g, sig, mu = self.grid, self.signature, self.mu
        scale2 = np.maximum(np.sum(mu * mu, axis=1), 1e-300)
        nullity = float(np.abs(sig.norm2(mu) / scale2).max())
        mq = mu[g.quad_vertices]                    # (nquads, 4, dim): i, j, k, l
        d1, d2 = mq[:, 2] - mq[:, 0], mq[:, 3] - mq[:, 1]
        res = np.linalg.norm(wedge_vec(d1, d2), axis=1) / np.maximum(
            np.linalg.norm(d1, axis=1) * np.linalg.norm(d2, axis=1), 1e-300)
        moutard = float(res.max(initial=0.0))
        bad = ~np.isfinite(res)
        worst = int(np.argmax(bad if bad.any() else res)) if moutard != 0 else None
        ips = self.edge_ip[g.quad_edges]            # ij, jk, lk, il
        s0 = np.maximum(np.abs(ips).max(axis=1), 1e-300)
        label_rel = float((np.maximum(np.abs(ips[:, 0] - ips[:, 2]),
                                      np.abs(ips[:, 3] - ips[:, 1])) / s0).max(initial=0.0))
        opp_margin = float((np.abs(ips[:, 0] - ips[:, 3]) / s0).min(initial=np.inf))
        n = np.linalg.norm(mu, axis=1)[g.quad_vertices]
        diag = float((np.abs(sig.inner(mq[:, :2], mq[:, 2:]))     # (i, k), (j, l)
                      / np.maximum(n[:, :2] * n[:, 2:], 1e-300)).min(initial=np.inf))
        return {
            "nullity": nullity, "moutard": moutard,
            "worst_quad": None if worst is None else g.locate_quad(worst),
            "label_relations": label_rel,
            "opposite_label_margin": 0.0 if g.nquads == 0 else opp_margin,
            "diagonal_margin": 0.0 if g.nquads == 0 else diag,
            "passed": bool(nullity <= tol_null and moutard <= tol_moutard
                           and label_rel <= tol_labels
                           and (g.nquads == 0 or (opp_margin >= margin and diag >= margin))),
        }


def moutard_evolve(grid: Grid, signature: Signature, line0, line1,
                   frame: Frame | None = None) -> IsothermicNet:
    """Fill a 2D grid from null Cauchy data on the two initial lines.

    ``line0[a]`` is the lift at (a, 0) and ``line1[b]`` at (0, b); the
    shared corner must agree.  Interior vertices are forced by the light
    cone: the Moutard factor is the unique nonzero root of the nullity
    quadratic.  Each quad needs only its three earlier vertices, so the
    grid fills one anti-diagonal ``a + b = s`` at a time.  When a frame
    is given, lifts are re-projected onto the light cone after each
    diagonal to stop drift.
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
    ip = signature.inner
    mu = np.zeros((d0, d1, signature.dim))      # row-major, as the grid
    mu[:, 0] = line0
    mu[0, :] = line1
    for s in range(2, d0 + d1 - 1):
        a = np.arange(max(1, s - d1 + 1), min(d0, s))
        b = s - a
        mi, mj, ml = mu[a - 1, b - 1], mu[a, b - 1], mu[a - 1, b]
        denom = ip(ml, mj)
        scale = np.linalg.norm(ml, axis=1) * np.linalg.norm(mj, axis=1)
        degenerate = np.abs(denom) <= 1e-12 * np.maximum(scale, 1e-300)
        if np.any(degenerate):
            n = int(np.argmax(degenerate))
            raise EvolutionError("isotropic diagonal: Moutard evolution degenerate",
                                 where={"kind": "quad", "corner": (int(a[n]) - 1, int(b[n]) - 1)},
                                 residual=abs(float(denom[n])))
        diff = ml - mj
        new = mi + (ip(mi, diff) / denom)[:, None] * diff
        mu[a, b] = new if frame is None else renull(new, frame)
    return IsothermicNet(grid, signature, mu.reshape(grid.nverts, signature.dim))


class _CandidateRows:
    """Candidate rows of ``rng`` for a run of rejection-sampled steps.

    A per-candidate loop reads one ``rng.standard_normal(d)`` row per
    try; this reads the same rows ``tries`` at a time.  Leaving the
    ``with`` block, also by the ``DegeneracyError(failure)`` of a step
    that rejects ``tries`` candidates, gives back the rows not used: it
    restores the state saved before the last block and reads again only
    the rows used, so ``rng`` ends where the loop leaves it.
    ``transform`` maps a block of raw rows to candidates and must act on
    each row alone.
    """

    tries = 64

    def __init__(self, rng, d: int, transform, failure: str):
        self.rng, self.d, self.transform, self.failure = rng, d, transform, failure
        self.rows = np.empty((0, d))
        self.pos = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pos < len(self.rows):
            self.rng.bit_generator.state = self.state
            self.rng.standard_normal((self.pos, self.d))

    def step(self, first, *args):
        """Run one step and return its result.

        ``first(rows, *args)`` gets the step's next untried candidates in
        draw order and returns ``(k, result)`` for the first accepted row
        ``k``, or None.
        """
        left = self.tries
        while left:
            if self.pos == len(self.rows):
                self.state = self.rng.bit_generator.state
                self.rows = self.transform(self.rng.standard_normal((self.tries, self.d)))
                self.pos = 0
            rows = self.rows[self.pos:self.pos + left]
            hit = first(rows, *args)
            if hit is not None:
                self.pos += hit[0] + 1
                return hit[1]
            self.pos += len(rows)
            left -= len(rows)
        raise DegeneracyError(self.failure)


def random_cauchy(grid: Grid, signature: Signature, rng,
                  magnitude: float = 0.3, frame: Frame | None = None,
                  timelike_factor: float = 0.35):
    """Random null Cauchy data for :func:`moutard_evolve`.

    Each step perturbs the previous lift inside the q-complement and
    solves the nullity constraint for the q-coefficient; the base point
    is the lift of a random point of R^{p,q}.  In indefinite signature
    the step component along the point sphere complex is damped by
    ``timelike_factor``, which keeps the edge inner products (and so the
    labels) bounded away from the isotropic case.

    ``rng`` must be a ``numpy.random.Generator``.  Draw order: one
    ``standard_normal(d)`` row for the base point, then one row per
    candidate step, the steps of axis 0 before those of axis 1, and a
    rejected candidate uses up exactly its row.  A step gives up after
    64 candidates with :class:`DegeneracyError`, leaving ``rng`` just
    past the rows used.  The rows are drawn in blocks, but every seed
    gives the same lines and the same final ``rng`` state as one draw
    per candidate.
    """
    frame = signature.standard_frame() if frame is None else frame
    ip = signature.inner
    d = signature.dim

    def candidate_steps(rows):
        delta = frame.pi(magnitude * rows)
        if frame.p is not None:
            comp = -ip(delta, frame.p)
            delta = delta + ((timelike_factor - 1.0) * comp)[:, None] * frame.p
        return delta

    def first_regular(deltas, prev):
        prev_norm = np.linalg.norm(prev)
        for k, delta in enumerate(deltas):
            w = prev + delta
            wq = float(ip(w, frame.q))
            if abs(wq) < 1e-6:
                continue
            lam = -0.5 * float(ip(w, w)) / wq
            cand = w + lam * frame.q
            if abs(ip(cand, prev)) > 1e-8 * np.linalg.norm(cand) * prev_norm:
                return k, cand
        return None

    x0 = frame.pi(rng.standard_normal(d))
    base = frame.o + x0 + 0.5 * float(ip(x0, x0)) * frame.q
    d0, d1 = grid.dims
    line0 = np.zeros((d0, d))
    line1 = np.zeros((d1, d))
    line0[0] = line1[0] = base
    with _CandidateRows(rng, d, candidate_steps, "could not draw a regular Cauchy step") as draws:
        for line in (line0, line1):
            for a in range(1, len(line)):
                line[a] = draws.step(first_regular, line[a - 1])
    return line0, line1


def random_isothermic(grid: Grid, signature: Signature, rng,
                      magnitude: float = 0.3, margin: float = 1e-5,
                      edge_margin: float = 1e-4, retries: int = 64,
                      frame: Frame | None = None) -> IsothermicNet:
    """Draw Cauchy data and evolve, rejecting badly conditioned nets.

    Random data in indefinite signature can come arbitrarily close to an
    isotropic diagonal or edge; draws are retried until the quad margins
    clear ``margin`` and every edge stays at least ``edge_margin`` away
    from the isotropic (infinite label) case.
    """
    frame = signature.standard_frame() if frame is None else frame
    last = None
    for _ in range(retries):
        try:
            line0, line1 = random_cauchy(grid, signature, rng, magnitude, frame)
            net = moutard_evolve(grid, signature, line0, line1, frame=frame)
        except (EvolutionError, DegeneracyError) as err:
            last = err
            continue
        rep = net.validate(margin=margin)
        t, h = grid.edge_tail, grid.edge_head
        scale = np.linalg.norm(net.mu[t], axis=1) * np.linalg.norm(net.mu[h], axis=1)
        edge_rel = np.abs(net.edge_ip) / np.maximum(scale, 1e-300)
        if (rep["nullity"] <= 1e-12 and rep["moutard"] <= 1e-11
                and rep["diagonal_margin"] >= margin
                and rep["opposite_label_margin"] >= margin
                and float(edge_rel.min(initial=np.inf)) >= edge_margin):
            return net
        last = rep
    raise DegeneracyError(f"no well-conditioned net after {retries} draws: {last}")


def flat_connection(net: IsothermicNet, t: float, tol: float = 1e-8) -> np.ndarray:
    """Per-edge orthogonal transports of the spectral family Gamma(t).

    On an edge with finite label the transport is the eigen-map with
    ``1 - t/m`` on the head line and its reciprocal on the tail line; on
    isotropic edges it is ``exp(t eta_ji) = I + t eta_ji``.  ``t`` must
    avoid all finite labels.  Entry ``e`` maps the fiber at the tail of
    canonical edge ``e`` to the fiber at its head.
    """
    g, sig, d = net.grid, net.signature, net.signature.dim
    inf = net.is_infinite
    fin = np.flatnonzero(~inf)
    gap = np.abs(net.labels[fin] - t)
    if t != 0.0 and fin.size and gap.min() <= tol * max(1.0, abs(t)):
        e = int(fin[np.argmin(gap)])
        raise SpectralCollisionError(f"t = {t} collides with edge label {net.labels[e]}",
                                     where=g.locate_edge(e))
    out = np.empty((g.nedges, d, d))
    out[inf] = np.eye(d) + t * action_matrix(unpack_bivector(net.eta[inf], d), sig)
    try:
        out[fin] = np.eye(d) if t == 0.0 else gamma_lambda(
            net.mu[g.edge_tail[fin]], net.mu[g.edge_head[fin]], 1.0 - t / net.labels[fin], sig)
    except DegeneracyError as err:
        err.where = g.locate_edge(int(fin[err.where]))
        raise
    return out


def connection_flatness(net: IsothermicNet, t: float) -> float:
    """Max relative quad holonomy residual of Gamma(t)."""
    g = net.grid
    gam = flat_connection(net, t)
    if g.nquads == 0:
        return 0.0
    qe = g.quad_edges
    lhs = gam[qe[:, 1]] @ gam[qe[:, 0]]
    rhs = gam[qe[:, 2]] @ gam[qe[:, 3]]
    num = np.linalg.norm(lhs - rhs, axis=(1, 2))
    den = np.maximum(np.linalg.norm(lhs, axis=(1, 2)), 1e-300)
    return float((num / den).max())


def _seed_orthogonal_null(net: IsothermicNet, base: int, rng,
                          retries: int = 64) -> np.ndarray:
    """Random null vector orthogonal to mu at the base vertex."""
    sig = net.signature
    ip = sig.inner
    mu0 = net.mu[base]
    anchor = None
    for v in rng.permutation(net.grid.nverts):
        if abs(ip(net.mu[v], mu0)) > 1e-6:
            anchor = net.mu[v]
            break
    if anchor is None:
        anchor = rng.standard_normal(sig.dim)
    for _ in range(retries):
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


def darboux_transform(net: IsothermicNet, m: float, seed=None, base: int = 0,
                      rng=None, min_denom: float = 1e-12,
                      retries: int = 24, margin: float = 1e-6) -> IsothermicNet:
    """Darboux transform with parameter ``m`` (``inf`` for the isotropic
    case).

    The transformed lift is propagated by the vertical Moutard evolution
    (the nullity-forced factor), which preserves ``(mu, mu_hat) = 1/m``
    identically; for finite ``m`` the lift is additionally rescaled each
    step to pin the normalization against rounding drift.  The seed is a
    null vector at the base vertex: non-orthogonal to the net there for
    finite ``m``, orthogonal for ``m = inf``.  Auto-drawn seeds are
    retried while the transformed net comes too close to a regularity
    violation.
    """
    if seed is None:
        rng = np.random.default_rng(0) if rng is None else rng
        last = None
        for _ in range(retries):
            auto = (_seed_orthogonal_null(net, base, rng) if np.isinf(m)
                    else _finite_darboux_seed(net, base, rng))
            try:
                hat = darboux_transform(net, m, seed=auto, base=base,
                                        min_denom=min_denom)
            except (PropagationError, DegeneracyError) as err:
                last = err
                continue
            rep = _pair_quality(net, hat, margin)
            if (rep["diagonal_margin"] >= margin
                    and rep["moutard"] <= 1e-10
                    and rep["nullity"] <= 1e-11):
                return hat
            last = rep
        raise DegeneracyError(f"no admissible Darboux seed after {retries} draws: {last}")

    g, sig = net.grid, net.signature
    ip = sig.inner
    infinite = np.isinf(m)
    if not infinite:
        finite = net.labels[~net.is_infinite]
        if finite.size and np.min(np.abs(finite - m)) <= 1e-8 * max(1.0, abs(m)):
            raise SpectralCollisionError(f"m = {m} collides with an edge label")
    seed = np.asarray(seed, float)
    if not sig.is_null(seed):
        raise ValueError("Darboux seed must be null")
    s0 = float(ip(seed, net.mu[base]))
    if infinite:
        if abs(s0) > 1e-8 * np.linalg.norm(seed) * np.linalg.norm(net.mu[base]):
            raise ValueError("isotropic Darboux seed must be orthogonal to the net")
        hat0 = seed
    else:
        if abs(s0) < min_denom:
            raise ValueError("Darboux seed orthogonal to the net at the base")
        hat0 = seed / (m * s0)

    hat = np.zeros_like(net.mu)
    hat[base] = hat0
    for v, parent, slot, sign in g.staircase_tree(base):
        mi, mj = net.mu[parent], net.mu[v]
        denom = float(ip(hat[parent], mj))
        if abs(denom) <= min_denom * max(np.linalg.norm(hat[parent]) * np.linalg.norm(mj), 1e-300):
            raise PropagationError("Darboux propagation degenerate",
                                   where=g.locate_edge(slot))
        c = float(ip(mi, hat[parent] - mj)) / denom
        val = mi + c * (hat[parent] - mj)
        if not infinite:
            cur = float(ip(net.mu[v], val))
            if abs(cur) <= min_denom:
                raise PropagationError("Darboux normalization degenerate",
                                       where=g.locate_edge(slot))
            val = val / (m * cur)
        hat[v] = val
    return IsothermicNet(g, sig, hat)


def _pair_quality(net: IsothermicNet, hat: IsothermicNet, margin: float) -> dict:
    """Quality report of a Darboux pair without building the stack (the
    grid may itself already be stacked)."""
    rep = hat.validate(margin=margin)
    g, ip = net.grid, net.signature.inner
    t, h = g.edge_tail, g.edge_head
    # vertical-quad Moutard residual and diagonal margins over each edge
    w = wedge_vec(hat.mu[h] - net.mu[t], hat.mu[t] - net.mu[h])
    scale = np.maximum(np.linalg.norm(hat.mu[h] - net.mu[t], axis=1)
                       * np.linalg.norm(hat.mu[t] - net.mu[h], axis=1), 1e-300)
    vert = float((np.linalg.norm(w, axis=1) / scale).max(initial=0.0))
    norms = np.linalg.norm(net.mu, axis=1)
    hnorms = np.linalg.norm(hat.mu, axis=1)
    d1 = np.abs(ip(net.mu[t], hat.mu[h])) / np.maximum(norms[t] * hnorms[h], 1e-300)
    d2 = np.abs(ip(net.mu[h], hat.mu[t])) / np.maximum(norms[h] * hnorms[t], 1e-300)
    vert_diag = float(np.minimum(d1, d2).min(initial=np.inf))
    return {
        "nullity": max(rep["nullity"], float(np.abs(
            net.signature.norm2(hat.mu) / np.maximum(hnorms ** 2, 1e-300)).max())),
        "moutard": max(rep["moutard"], vert),
        "diagonal_margin": min(rep["diagonal_margin"], vert_diag),
    }


def _random_null(sig: Signature, rng) -> np.ndarray:
    frame = sig.standard_frame()
    x = frame.pi(rng.standard_normal(sig.dim))
    v = frame.o + x + 0.5 * float(sig.inner(x, x)) * frame.q
    return v / np.linalg.norm(v)


def _finite_darboux_seed(net: IsothermicNet, base: int, rng) -> np.ndarray:
    ip = net.signature.inner
    mu0 = net.mu[base]
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
    return IsothermicNet(sg, net.signature, mu)


def calapso_transform(net: IsothermicNet, t: float, base: int = 0):
    """Calapso transform: trivialize Gamma(t) and move the lift.

    Returns ``(transformed net, T)`` with ``T[base]`` the identity (this
    pins the constant gauge freedom).  The transformed labels are
    ``m - t`` and the transformed flat connections satisfy
    ``Gamma^{s(t)}(u) = T . Gamma^s(t + u)``.
    """
    gam = flat_connection(net, t)
    T, _ = trivialize_connection(net.grid, gam, base=base, tol=1e-7)
    mu_t = np.einsum("nab,nb->na", T, net.mu)
    return IsothermicNet(net.grid, net.signature, mu_t), T


@dataclass
class ChristoffelData:
    """Christoffel dual of the stereoprojection of an isothermic net."""

    x: np.ndarray
    x_dual: np.ndarray
    r: np.ndarray          # mu = r * euclidean lift
    frame: Frame


def christoffel_dual(net: IsothermicNet, frame: Frame | None = None,
                     base: int = 0) -> ChristoffelData:
    """Dual net integrated from ``d x_dual = pi(eta q)``.

    The dual is edge-parallel to the stereoprojection ``x`` with
    ``d x_dual = r_i r_j dx`` for ``r = -(mu, q)`` and satisfies
    ``(dx, dx_dual) = -2/m`` on every edge.
    """
    frame = net.signature.standard_frame() if frame is None else frame
    sig = net.signature
    g = net.grid
    ip = sig.inner
    x = stereo_project(net.mu, frame)
    t, h = g.edge_tail, g.edge_head
    # eta_ji applied to q: (mu_j, q) mu_i - (mu_i, q) mu_j
    etaq = (ip(net.mu[h], frame.q)[:, None] * net.mu[t]
            - ip(net.mu[t], frame.q)[:, None] * net.mu[h])
    dxd = frame.pi(etaq)
    from .grid import integrate_one_form
    xd = integrate_one_form(g, dxd, base=base, check_closed=True, tol=1e-8).values
    r = -ip(net.mu, frame.q)
    return ChristoffelData(x=x, x_dual=xd, r=r, frame=frame)


def christoffel_residuals(net: IsothermicNet, data: ChristoffelData) -> dict:
    """Residual sweep of the duality identities."""
    sig, g = net.signature, net.grid
    t, h = g.edge_tail, g.edge_head
    dx = data.x[h] - data.x[t]
    dxd = data.x_dual[h] - data.x_dual[t]
    ip = sig.inner(dx, dxd)
    rhs = np.where(net.is_infinite, 0.0,
                   -2.0 * np.where(net.is_infinite, 0.0, net.edge_ip))
    scale = np.maximum(np.abs(ip), np.abs(rhs))
    pairing = float((np.abs(ip - rhs) / np.maximum(scale, 1e-300)).max(initial=0.0))
    w = wedge_vec(dx, dxd)
    par = np.linalg.norm(w, axis=1) / np.maximum(
        np.linalg.norm(dx, axis=1) * np.linalg.norm(dxd, axis=1), 1e-300)
    factor = dxd - (data.r[t] * data.r[h])[:, None] * dx
    fres = np.linalg.norm(factor, axis=1) / np.maximum(
        np.linalg.norm(dxd, axis=1), 1e-300)
    from .forms import Form0, curly_wedge, exterior_derivative
    area = curly_wedge(exterior_derivative(Form0(g, data.x)),
                       exterior_derivative(Form0(g, data.x_dual)))
    ares = float(np.abs(area.values).max(initial=0.0)) / max(
        float(np.abs(dx).max() * np.abs(dxd).max()), 1e-300)
    return {
        "pairing": pairing,                       # (dx, dxd) = -2/m
        "edge_parallel": float(par.max(initial=0.0)),
        "scale_factor": float(fres.max(initial=0.0)),   # dxd = r_i r_j dx
        "koenigs_area": ares,                     # dx ^~ dxd = 0
    }


def bianchi_check(net: IsothermicNet, hat: IsothermicNet, m: float,
                  frame: Frame | None = None, base: int = 0) -> dict:
    """Bianchi's identity on a Darboux pair.

    Builds the Christoffel dual of the stacked net (one integration, so
    the integration constants extend the dual of the bottom layer) and
    reports the pointwise parallelism of ``x_hat - x`` with
    ``x_dual_hat - x_dual`` plus the scalar identity
    ``(x_hat - x, x_dual_hat - x_dual) = -2/m``.
    """
    frame = net.signature.standard_frame() if frame is None else frame
    stacked = stack_pair(net, hat)
    data = christoffel_dual(stacked, frame, base=base)
    n = net.grid.nverts
    x, xh = data.x[:n], data.x[n:]
    xd, xdh = data.x_dual[:n], data.x_dual[n:]
    ip = net.signature.inner
    diff, diffd = xh - x, xdh - xd
    w = wedge_vec(diff, diffd)
    par = np.linalg.norm(w, axis=1) / np.maximum(
        np.linalg.norm(diff, axis=1) * np.linalg.norm(diffd, axis=1), 1e-300)
    vals = ip(diff, diffd)
    rhs = 0.0 if np.isinf(m) else -2.0 / m
    scalar = np.abs(vals - rhs) / max(abs(rhs), 1.0)
    return {
        "parallelism": float(par.max(initial=0.0)),
        "scalar_identity": float(scalar.max(initial=0.0)),
        "values": vals,
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
        moved = np.einsum("eab,eb->ea", gam, vals[g.edge_tail])
        num = np.linalg.norm(moved - vals[g.edge_head], axis=1)
        den = np.maximum(np.linalg.norm(vals[g.edge_head], axis=1), 1e-300)
        return float((num / den).max(initial=0.0))


def special_quantity_solve(net: IsothermicNet, c_vec, xi_seed=None, base: int = 0,
                           tol: float = 1e-8, t_samples=(-1.5, -0.7, 0.3, 0.9, 2.2)):
    """Solve ``d xi = eta c`` and test for a linear conserved quantity.

    When ``xi_seed`` is None the constant of integration is chosen by
    least squares to minimize the orthogonality defect ``(xi, mu)``.
    Returns a diagnostic dict with the per-vertex residual map; success
    means ``(xi, mu) = 0`` everywhere, and in that case the
    Gamma(t)-parallelism of ``c + t xi`` is verified at sample values of
    t (labels are avoided automatically).
    """
    g, sig = net.grid, net.signature
    ip = sig.inner
    c_vec = np.asarray(c_vec, float)
    t, h = g.edge_tail, g.edge_head
    etac = (ip(net.mu[h], c_vec)[:, None] * net.mu[t]
            - ip(net.mu[t], c_vec)[:, None] * net.mu[h])
    from .grid import integrate_one_form
    xi0 = integrate_one_form(g, etac, base=base, check_closed=True, tol=1e-8).values
    if xi_seed is not None:
        xi = xi0 + (np.asarray(xi_seed, float) - xi0[base])
    else:
        # choose the constant minimizing sum (xi0 + const, mu)^2
        A = net.mu * sig.signs
        b = ip(xi0, net.mu)
        const, *_ = np.linalg.lstsq(A, -b, rcond=None)
        xi = xi0 + const
    resid = ip(xi, net.mu)
    scale = np.maximum(np.linalg.norm(xi, axis=1)
                       * np.linalg.norm(net.mu, axis=1), 1e-300)
    rel = np.abs(resid) / scale
    success = bool(rel.max(initial=0.0) <= tol)
    out = {
        "success": success,
        "xi": xi,
        "orthogonality": rel,
        "worst": float(rel.max(initial=0.0)),
    }
    if success:
        q = ConservedQuantity(p0=np.tile(c_vec, (g.nverts, 1)), p1=xi, signature=sig)
        finite = net.labels[~net.is_infinite]
        pres = {}
        for ts in t_samples:
            if finite.size and np.min(np.abs(finite - ts)) < 1e-6:
                continue
            pres[ts] = q.parallel_residual(net, ts)
        out["quantity"] = q
        out["parallel_residuals"] = pres
        out["coefficient_spread"] = q.coefficient_spread()
    return out


def quad_cross_ratio_residual(net: IsothermicNet, rng=None) -> float:
    """Max relative defect of cross ratio = m_jk / m_ij over finite quads."""
    g = net.grid
    worst = 0.0
    for n in range(g.nquads):
        i, j, k, l = (int(v) for v in g.quad_vertices[n])
        e_ij = g.oriented_edge(i, j)
        e_jk = g.oriented_edge(j, k)
        if net.is_infinite[e_ij.index] or net.is_infinite[e_jk.index]:
            continue
        expected = float(net.labels[e_jk.index] / net.labels[e_ij.index])
        cr = conic_cross_ratio(net.mu[[i, j, k, l]], net.signature, rng=rng)
        worst = max(worst, abs(cr - expected) / max(abs(expected), 1e-300))
    return worst
