"""Box domains in Z^N.

A :class:`Grid` enumerates the vertices, oriented edges and oriented
quadrilaterals of an axis-aligned box ``[0, d0) x ... x [0, d_{N-1})``.
Such domains (and their one-level stacks ``{0,1} x Sigma``) are simply
connected by construction, which is what makes the two integration
routines in this module (:func:`integrate_one_form`,
:func:`trivialize_connection`) well defined.

Conventions
-----------
* Vertices are indexed row-major; ``strides[a]`` is the index step of a
  unit move along axis ``a``.
* Edges are keyed ``(tail vertex, axis)`` and stored on the canonical
  orientation tail -> tail + e_a.
* Quads are keyed ``(corner vertex, axis pair (a, b) with a < b)``; the
  canonical cyclic order of a quad is ``(i, j, k, l)`` with
  ``j = i + e_a``, ``k = i + e_a + e_b``, ``l = i + e_b``.

Grids and their cached enumerations are immutable after construction,
so instances can be shared freely between threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ClosednessError, DegeneracyError, FlatnessError
from .forms import _quad_edge_sum
from .residuals import floor, rel, worst

# Quads per block of :func:`quad_blocks`: one block up to 23x23 (484 quads).
# A block's working set then stays under glibc's trim threshold, so a 64x64
# check does not hand its heap back and fault it in again for every block
# (measured 1024 / 2048: about 4,100-5,000 minor faults per run_checks).
_HOLONOMY_BLOCK = 512
# Edges or vertices per block of :func:`blocks`: one block of edges up to
# 23x23 (1012 edges); sized with _HOLONOMY_BLOCK.
_EDGE_BLOCK = 1024


def check_dims(dims, stacked: bool = False) -> tuple:
    """``dims`` as a tuple of ints; ValueError unless every extent is at
    least 1, there is one, and a stacked grid has extent 2 along axis 0.
    :class:`Grid` and the format check of net files share it."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    if any(d < 1 for d in dims):
        raise ValueError(f"all extents must be >= 1, got {dims}")
    if stacked and dims[0] != 2:
        raise ValueError("a stacked grid must have extent 2 along axis 0")
    return dims


class Grid:
    """Axis-aligned box domain in Z^N."""

    def __init__(self, dims, stacked: bool = False):
        self.dims = dims = check_dims(dims, stacked)
        self.stacked = bool(stacked)
        self.ndim = len(dims)
        self.nverts = math.prod(dims)

        strides = np.ones(self.ndim, dtype=int)
        for a in range(self.ndim - 2, -1, -1):
            strides[a] = strides[a + 1] * dims[a + 1]
        self.strides = strides

        self.vertex_coords = np.indices(dims).reshape(self.ndim, -1).T
        self.vertex_coords.setflags(write=False)

        # Canonical edges, grouped by axis.
        tails, axes = [], []
        for a in range(self.ndim):
            mask = self.vertex_coords[:, a] < dims[a] - 1
            idx = np.nonzero(mask)[0]
            tails.append(idx)
            axes.append(np.full(len(idx), a, dtype=int))
        self.edge_tail = np.concatenate(tails) if tails else np.zeros(0, int)
        self.edge_axis = np.concatenate(axes) if axes else np.zeros(0, int)
        self.edge_head = self.edge_tail + strides[self.edge_axis]
        self.nedges = len(self.edge_tail)
        # edge_slots[v, a] is the slot of edge (v, a), -1 where v + e_a
        # leaves the box
        self.edge_slots = np.full((self.nverts, self.ndim), -1, dtype=int)
        self.edge_slots[self.edge_tail, self.edge_axis] = np.arange(self.nedges)

        # Canonical quads, grouped by axis pair (a, b), a < b.
        corners, qaxes = [], []
        for a in range(self.ndim):
            for b in range(a + 1, self.ndim):
                mask = (self.vertex_coords[:, a] < dims[a] - 1) & (
                    self.vertex_coords[:, b] < dims[b] - 1
                )
                idx = np.nonzero(mask)[0]
                corners.append(idx)
                qaxes.append(np.tile([a, b], (len(idx), 1)))
        if corners:
            self.quad_corner = np.concatenate(corners)
            self.quad_axes = np.concatenate(qaxes, axis=0)
        else:
            self.quad_corner = np.zeros(0, int)
            self.quad_axes = np.zeros((0, 2), int)
        self.nquads = len(self.quad_corner)

        sa = strides[self.quad_axes[:, 0]] if self.nquads else np.zeros(0, int)
        sb = strides[self.quad_axes[:, 1]] if self.nquads else np.zeros(0, int)
        i = self.quad_corner
        self.quad_vertices = np.stack([i, i + sa, i + sa + sb, i + sb], axis=1)
        # Boundary edges in canonical slots: bottom (i,a), right (j,b),
        # top (l,a), left (i,b).  The oriented boundary of (i,j,k,l) is
        # bottom + right - top - left.
        qa, qb = self.quad_axes[:, 0], self.quad_axes[:, 1]
        qv = self.quad_vertices
        self.quad_edges = self.edge_slots[
            np.stack([qv[:, 0], qv[:, 1], qv[:, 3], qv[:, 0]], axis=1),
            np.stack([qa, qb, qa, qb], axis=1)]
        for arr in (self.edge_tail, self.edge_head, self.edge_axis,
                    self.edge_slots, self.quad_corner, self.quad_axes,
                    self.quad_vertices, self.quad_edges):
            arr.setflags(write=False)

    # -- bookkeeping -------------------------------------------------

    def __repr__(self):
        tag = ", stacked" if self.stacked else ""
        return f"Grid({list(self.dims)}{tag})"

    def coords(self, vertex: int):
        return tuple(int(c) for c in self.vertex_coords[vertex])

    def locate_edge(self, e: int) -> dict:
        return {
            "kind": "edge",
            "index": int(e),
            "tail": self.coords(int(self.edge_tail[e])),
            "axis": int(self.edge_axis[e]),
        }

    def locate_quad(self, q: int) -> dict:
        return {
            "kind": "quad",
            "index": int(q),
            "corner": self.coords(int(self.quad_corner[q])),
            "axes": tuple(int(a) for a in self.quad_axes[q]),
        }

    def edge_difference(self, values: np.ndarray, edges=slice(None)) -> np.ndarray:
        """``values[head] - values[tail]`` on the canonical edges ``edges``
        (a slice or an index array of any shape), all of them by default."""
        return values[self.edge_head[edges]] - values[self.edge_tail[edges]]

    # -- staircase spanning tree -------------------------------------

    def staircase_tree(self, base: int = 0):
        """The canonical spanning tree rooted at ``base``, level by level.

        The parent of ``v`` differs from it in the largest axis where ``v``
        and the base disagree, one step toward the base.  A level holds the
        ``(child, parent, slot, sign)`` index arrays of the children at one
        distance along one axis, in tree order (by distances to the base,
        last axis first); parents lie in earlier levels, and there are at
        most ``sum(dims)`` levels.  ``sign`` is +1 where parent -> child
        runs along the canonical edge orientation.
        """
        if not 0 <= base < self.nverts:
            raise ValueError(f"base vertex {base} out of range")
        delta = self.vertex_coords - self.vertex_coords[base]
        dist = np.abs(delta)
        child = np.lexsort(dist.T)[1:]        # stable, and the base sorts first
        if not len(child):
            return []
        axis = self.ndim - 1 - np.argmax(dist[child, ::-1] > 0, axis=1)
        sign = np.where(delta[child, axis] > 0, 1, -1)
        parent = child - sign * self.strides[axis]
        slot = self.edge_slots[np.where(sign > 0, parent, child), axis]
        step = dist[child, axis]
        cuts = [0, *(np.flatnonzero((np.diff(axis) != 0) | (np.diff(step) != 0)) + 1).tolist(),
                len(child)]
        return [(child[a:b], parent[a:b], slot[a:b], sign[a:b]) for a, b in zip(cuts, cuts[1:])]


def stack(grid: Grid) -> Grid:
    """Two copies of the grid stacked along a new axis 0."""
    if grid.stacked:
        raise ValueError("grid is already stacked; only one stack level is supported")
    return Grid((2,) + grid.dims, stacked=True)


def _closedness(grid: Grid, values: np.ndarray, scale: float):
    """Worst quad residual ``|d values| / scale`` and its quad.

    ``|d values|`` is taken one :func:`quad_blocks` block at a time and
    located by :func:`worst`, so a NaN scale does not hide which quad is
    bad; dividing the maximum by the one positive scale gives the same
    bits as the maximum of the quotients."""
    num = np.empty(grid.nquads)
    for b in quad_blocks(grid):
        num[b] = np.linalg.norm(_quad_edge_sum(grid, values, b), axis=-1)
    num, q = worst(num)
    return num / scale, q


def closedness_residual(grid: Grid, values: np.ndarray):
    """Max relative quad residual of an edge-valued 1-form array, over
    the largest edge value, and its quad."""
    values = np.asarray(values, float)
    if values.ndim == 1:
        values = values[:, None]
    return _closedness(grid, values, floor(np.linalg.norm(values, axis=-1).max(initial=0.0)))


def quad_blocks(grid: Grid) -> list:
    """Slices of at most :data:`_HOLONOMY_BLOCK` consecutive quads that
    cover the grid in order.  The per-quad kernels (:func:`holonomy`,
    the closedness check of :func:`integrate_one_form`,
    ``IsothermicNet.validate``, ``check_osystem``) go through them, so
    their gathered temporaries do not grow with the grid."""
    return [slice(s, s + _HOLONOMY_BLOCK) for s in range(0, grid.nquads, _HOLONOMY_BLOCK)]


def blocks(n: int) -> list:
    """Slices of at most :data:`_EDGE_BLOCK` consecutive indices that cover
    ``range(n)`` in order: the edge blocks of the per-edge kernels
    (``IsothermicNet``, ``flat_connection``, ``christoffel_dual``,
    ``ParallelFamily.validate``, ``check_osystem``'s scale) and the vertex
    blocks of ``christoffel_dual``."""
    return [slice(s, min(s + _EDGE_BLOCK, n)) for s in range(0, n, _EDGE_BLOCK)]


def holonomy(grid: Grid, gamma, park=lambda edges, block: None) -> np.ndarray:
    """Per-quad relative holonomy of edge transports on canonical
    orientations: ``|G_kj G_ji - G_kl G_li| / |G_kj G_ji|`` (Frobenius).

    ``gamma`` is an ``(nedges, k, k)`` array or a function that returns
    the transports of a sorted array of edge indices.  They are taken
    for the edges of one :func:`quad_blocks` block at a time and die
    with it, but for those of the edges that the next block shares, which
    are not taken again; each quad's value has the same bits in any
    block.  ``park(edges, transports)`` sees every transport taken, and
    on a grid without quads those of every edge, one
    :func:`blocks` block of edges at a time.  An error of ``gamma`` names
    the edge it would name if the transports were taken in edge order.
    """
    if not callable(gamma):
        gamma = np.asarray(gamma).__getitem__
    res = np.empty(grid.nquads)
    done, kept = np.zeros(0, int), None     # the block before: its edges, transports
    try:
        for b in quad_blocks(grid):
            qe = grid.quad_edges[b]
            # one block holds every quad, and so every edge
            edges, local = ((np.arange(grid.nedges), qe) if len(qe) == grid.nquads
                            else np.unique(qe, return_inverse=True))
            # the edges it shares with the block before keep their transports
            at = np.searchsorted(done, edges)
            old = at < len(done)
            old[old] = done[at[old]] == edges[old]
            fresh = gamma(edges[~old])
            park(edges[~old], fresh)
            block = fresh
            if old.any():
                block = np.empty((len(edges),) + fresh.shape[1:])
                block[old], block[~old] = kept[at[old]], fresh
            # only this block's transports outlive the holonomy products
            done, kept, fresh = edges, block, None
            res[b] = _block_holonomy(block, local.reshape(qe.shape))
        for b in [] if grid.nquads else blocks(grid.nedges):   # no quad holds the edges
            edges = np.arange(b.start, b.stop)
            park(edges, gamma(edges))
    except (DegeneracyError, ValueError):
        # a block meets edges out of edge order: name the first bad edge
        for b in blocks(grid.nedges):
            gamma(np.arange(b.start, b.stop))
        raise
    return res


def _block_holonomy(gamma: np.ndarray, qe: np.ndarray) -> np.ndarray:
    """:func:`holonomy` of the quads with boundary edges ``qe``; its
    products die with the call, before the next block starts.  Overflow
    and NaN go into the result without a warning."""
    with np.errstate(all="ignore"):
        lhs = gamma[qe[:, 1]] @ gamma[qe[:, 0]]   # i -> j -> k
        rhs = gamma[qe[:, 2]] @ gamma[qe[:, 3]]   # i -> l -> k
        np.subtract(lhs, rhs, out=rhs)
        return rel(np.linalg.norm(rhs, axis=(1, 2)), np.linalg.norm(lhs, axis=(1, 2)))


def integrate_one_form(grid: Grid, alpha, base: int = 0, seed=None,
                       check_closed: bool = True, tol: float = 1e-10):
    """Integrate a closed 1-form to the potential with ``f(base) = seed``.

    ``alpha`` may be a :class:`dnet.forms.Form1` or a raw ``(nedges, d)``
    array on canonical orientations.  Integration runs along the
    canonical staircase tree; when ``check_closed`` is set, the quad
    residual of ``alpha`` (over its largest entry, at least 1), taken one
    :func:`quad_blocks` block at a time, must be at most ``tol`` first,
    else :class:`ClosednessError` names the worst quad, a non-finite one
    first.
    """
    from .forms import Form0, Form1

    values = alpha.values if isinstance(alpha, Form1) else np.asarray(alpha, float)
    if values.ndim == 1:
        values = values[:, None]
    if len(values) != grid.nedges:
        raise ValueError("one-form carrier size mismatch")
    if check_closed:
        # the largest |entry|, without a copy of |values|
        top = np.maximum(values.max(initial=0.0), -values.min(initial=0.0))
        res, q = _closedness(grid, values, max(float(top), 1.0))
        if not res <= tol:
            raise ClosednessError(
                f"one-form is not closed: quad residual {res:.3e} > {tol:.1e}",
                where=grid.locate_quad(q), residual=res)
    dim = values.shape[1]
    out = np.zeros((grid.nverts, dim))
    out[base] = 0.0 if seed is None else np.asarray(seed, float)
    for child, parent, slot, sign in grid.staircase_tree(base):
        out[child] = out[parent] + sign[:, None] * values[slot]
    return Form0(grid, out)


def trivialize_connection(grid: Grid, gamma, base: int = 0, tol: float = 1e-8):
    """Trivialize a flat connection: find T with ``Gamma_ji = T_j^-1 T_i``.

    ``gamma`` gives the forward transports along canonical orientations
    (fiber at tail -> fiber at head): an ``(nedges, k, k)`` array, or a
    function that returns the transports of a sorted array of edge
    indices.  ``T[base]`` is the identity.  The :func:`holonomy` of every
    quad must be at most ``tol`` first, else :class:`FlatnessError` names
    the worst quad, a non-finite one first; the returned array satisfies
    the reconstruction identity on all edges up to the flatness residual.

    The flatness check takes the transports one quad block at a time and
    parks the transport of each tree edge in ``T`` at the edge's child.
    Once the check passes, one :func:`blocks` block of vertices at a time
    turns each into the inverse of the step from its parent, and the
    level walk turns ``T`` into the result in place; so each transport
    is built once and no ``(nedges, k, k)`` array is held.
    """
    if not callable(gamma):
        gamma = np.asarray(gamma, float)
        if gamma.shape[0] != grid.nedges or gamma.shape[1] != gamma.shape[2]:
            raise ValueError("gamma must be (nedges, k, k)")
        gamma = gamma.__getitem__
    levels = grid.staircase_tree(base)
    # the child of each tree edge, and whether the walk runs it backwards
    child_of, backward = np.full(grid.nedges, -1), np.zeros(grid.nverts, bool)
    for child, _, slot, sign in levels:
        child_of[slot], backward[child] = child, sign < 0
    k = gamma(np.zeros(0, int)).shape[-1]
    T = np.empty((grid.nverts, k, k))

    def park(edges, block):
        child = child_of[edges]
        T[child[child >= 0]] = block[child >= 0]

    res, q = worst(holonomy(grid, gamma, park))
    if not res <= tol:
        raise FlatnessError(
            f"connection is not flat: quad residual {res:.3e} > {tol:.1e}",
            where=grid.locate_quad(q), residual=res)
    T[base] = np.eye(k)                     # its inverse is itself, bit for bit
    for v in blocks(grid.nverts):
        step, back = T[v], backward[v]      # Gamma_{child, parent}
        if back.any():
            step[back] = np.linalg.inv(step[back])
        T[v] = np.linalg.inv(step)
    for child, parent, _, _ in levels:
        T[child] = T[parent] @ T[child]
    return T
