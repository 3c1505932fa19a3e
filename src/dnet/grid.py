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

A grid stores no enumeration: every index comes from arithmetic on
``dims`` and ``strides`` for the indices a caller asks for, so a grid
holds a few numbers at any size, is immutable after construction and can
be shared freely between threads.
"""

from __future__ import annotations

import bisect
import itertools
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
# The quad residual above which :func:`integrate_one_form` calls a 1-form
# not closed, and the holonomy above which :func:`trivialize_connection`
# calls a connection not flat
_CLOSED_TOL = 1e-8
_FLAT_TOL = 1e-7


def check_dims(dims, stacked: bool) -> tuple:
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


def _table(build, doc: str):
    """A read-only property: the index table ``build(grid)`` over every
    index, built anew on each read; nothing is cached on the grid."""
    def get(grid):
        table = build(grid)
        table.setflags(write=False)
        return table
    return property(get, doc=doc)


class Grid:
    """Axis-aligned box domain in Z^N.

    A grid holds its ``dims``, ``strides`` and counts, and no index
    table: the ends and axis of an edge, the slot of an edge, and the
    corners, vertices and edges of a quad are arithmetic on the indices
    a caller asks for (a slice, or a non-negative index array of any
    shape).  The whole-grid tables :attr:`edge_tail` and
    :attr:`edge_head` are the same arithmetic over every edge, built on
    each read.
    """

    def __init__(self, dims, stacked: bool = False):
        self.dims = dims = check_dims(dims, stacked)
        self.stacked = bool(stacked)
        self.ndim = len(dims)
        self.nverts = math.prod(dims)

        strides = np.ones(self.ndim, dtype=int)
        for a in range(self.ndim - 2, -1, -1):
            strides[a] = strides[a + 1] * dims[a + 1]
        self.strides = strides
        self._extents = np.array(dims)
        # The canonical edges, grouped by axis, and the canonical quads,
        # grouped by axis pair (a, b), a < b: where each group starts.
        edges = [self.nverts // n * (n - 1) for n in dims]
        self._pairs = np.array([(a, b) for a in range(self.ndim)
                                for b in range(a + 1, self.ndim)], dtype=int).reshape(-1, 2)
        quads = [self.nverts // (dims[a] * dims[b]) * (dims[a] - 1) * (dims[b] - 1)
                 for a, b in self._pairs.tolist()]
        self._edge_start = np.array(list(itertools.accumulate(edges, initial=0)))
        self._quad_start = list(itertools.accumulate(quads, initial=0))
        self.nedges, self.nquads = sum(edges), sum(quads)

    # -- index arithmetic --------------------------------------------

    def coordinates(self, vertices) -> np.ndarray:
        """The coordinates of the vertices ``vertices``, on a new last axis."""
        return np.asarray(vertices)[..., None] // self.strides % self.dims

    def _group(self, index, starts: list):
        """``(offset, group)`` of the indices ``index`` among the groups
        that begin at ``starts``: the edge axes or the quad axis pairs.
        ``group`` is an int where one group holds every index."""
        if isinstance(index, slice):
            r = range(*index.indices(starts[-1]))
            first, last = (bisect.bisect(starts, x) - 1 for x in (r[0], r[-1])) if r else (0, 1)
            if first == last:
                return np.arange(r.start - starts[first], r.stop - starts[first], r.step), first
            index = np.arange(r.start, r.stop, r.step)
        i = np.asarray(index)
        if i.size:
            first, last = (bisect.bisect(starts, x) - 1 for x in (i.min(), i.max()))
            if first == last:
                return i - starts[first], first
        group = np.searchsorted(starts[1:-1], i, side="right")
        return i - np.asarray(starts)[group], group

    def _edge(self, edges):
        """``(tail, axis, stride of axis)`` of the canonical edges ``edges``.

        The ``k``-th edge along axis ``a`` runs from the ``k``-th vertex
        whose coordinate ``a`` is not the last: ``k`` plus one stride
        ``s`` per whole run of ``(dims[a] - 1) s`` such vertices."""
        k, a = self._group(edges, self._edge_start)
        s = self.strides[a]
        return _skip(k, s, (self._extents[a] - 1) * s), a, s

    def edge(self, edges=slice(None)):
        """``(tail, axis)`` of the canonical edges ``edges``."""
        tail, a, _ = self._edge(edges)
        return tail, np.full(tail.shape, a) if np.ndim(a) == 0 else a

    def ends(self, edges=slice(None)):
        """``(tail, head)`` of the canonical edges ``edges``."""
        tail, _, s = self._edge(edges)
        return tail, tail + s

    def slot(self, vertices, axes) -> np.ndarray:
        """The slot of edge ``(vertex, axis)`` (broadcast), -1 where
        ``vertex + e_axis`` leaves the box."""
        v, a = np.asarray(vertices), np.asarray(axes)
        n = self._extents[a]
        return np.where(v // self.strides[a] % n < n - 1, self._slots(v, a), -1)

    def _slots(self, v, a, out=None):
        """:meth:`slot` where ``v + e_a`` lies in the box: ``v`` less one
        stride ``s`` per whole run of ``dims[a] s`` vertices before it;
        written into ``out`` when given, which may be ``v``."""
        s = self.strides[a]
        shift = v // (self._extents[a] * s)
        shift *= -s
        shift += self._edge_start[a]
        return np.add(v, shift, out=out)

    def _quad(self, quads):
        """``(corner, a, b, stride of a, stride of b)`` of the canonical
        quads ``quads``.

        The corners of pair ``(a, b)`` are the vertices whose coordinates
        ``a`` and ``b`` are not the last: the count of :meth:`_edge` along
        ``a`` in the box whose extent ``b`` is one less, then along ``b``."""
        k, p = self._group(quads, self._quad_start)
        a, b = self._pairs[p, 0], self._pairs[p, 1]
        na, nb = self._extents[a], self._extents[b]
        sa, sb = self.strides[a], self.strides[b]
        sa_b = sa // nb * (nb - 1)
        return _skip(_skip(k, sa_b, (na - 1) * sa_b), sb, (nb - 1) * sb), a, b, sa, sb

    def quad(self, quads):
        """``(corner, a, b)`` of the canonical quads ``quads``."""
        i, a, b, _, _ = self._quad(quads)
        return i, *(np.full(i.shape, x) if np.ndim(x) == 0 else x for x in (a, b))

    def corners(self, quads=slice(None)) -> np.ndarray:
        """The vertices ``i, j, k, l`` of the quads ``quads`` on a new last
        axis: ``j = i + e_a``, ``k = i + e_a + e_b``, ``l = i + e_b``."""
        i, _, _, sa, sb = self._quad(quads)
        out = np.empty(np.shape(i) + (4,), dtype=int)
        out[..., 0] = i
        np.add(i, sa, out=out[..., 1])
        np.add(out[..., 1], sb, out=out[..., 2])
        np.add(i, sb, out=out[..., 3])
        return out

    def sides(self, quads=slice(None)) -> np.ndarray:
        """The boundary edges of the quads ``quads`` in canonical slots on a
        new last axis: bottom (i,a), right (j,b), top (l,a), left (i,b).
        The oriented boundary of (i,j,k,l) is bottom + right - top - left.

        A step along ``b`` (below ``a``) moves the slot along ``a`` by
        ``s_b``, and a step along ``a`` moves the slot along ``b`` by
        ``s_a`` less the ``s_a / dims[b]`` vertices it skips."""
        i, a, b, sa, sb = self._quad(quads)
        out = np.empty(np.shape(i) + (4,), dtype=int)
        bottom, right, top, left = (out[..., n] for n in range(4))
        self._slots(i, a, out=bottom)
        self._slots(i, b, out=left)
        np.add(left, sa - sa // self._extents[b], out=right)
        np.add(bottom, sb, out=top)
        return out

    def side_ends(self, quads):
        """``(tail, head)`` of the :meth:`sides` of the quads ``quads``, each
        with the four sides on a new first axis: ``i -> j``, ``j -> k``,
        ``l -> k`` and ``i -> l`` of their :meth:`corners`."""
        c = np.moveaxis(self.corners(quads), -1, 0)
        return c[[0, 1, 3, 0]], c[[1, 2, 2, 3]]

    edge_tail = _table(lambda g: g.edge()[0], "Tail vertex of every canonical edge.")
    edge_head = _table(lambda g: g.ends()[1], "Head vertex of every canonical edge.")

    # -- bookkeeping -------------------------------------------------

    def __repr__(self):
        tag = ", stacked" if self.stacked else ""
        return f"Grid({list(self.dims)}{tag})"

    def coords(self, vertex: int):
        return tuple(int(c) for c in np.unravel_index(int(vertex), self.dims))

    def locate_vertex(self, v: int) -> dict:
        return {"kind": "vertex", "index": int(v), "coords": self.coords(v)}

    def locate_edge(self, e: int) -> dict:
        tail, axis = self.edge(int(e))
        return {
            "kind": "edge",
            "index": int(e),
            "tail": self.coords(tail),
            "axis": int(axis),
        }

    def locate_quad(self, q: int) -> dict:
        corner, a, b = self.quad(int(q))
        return {
            "kind": "quad",
            "index": int(q),
            "corner": self.coords(corner),
            "axes": (int(a), int(b)),
        }

    def edge_difference(self, values: np.ndarray, edges=slice(None)) -> np.ndarray:
        """``values[head] - values[tail]`` on the canonical edges ``edges``
        (a slice or an index array of any shape), all of them by default,
        or on the edges whose ``(tail, head)`` are given."""
        tail, head = self.ends(edges) if not isinstance(edges, tuple) else edges
        return values[head] - values[tail]

    # -- staircase spanning tree -------------------------------------

    def staircase_tree(self):
        """The canonical spanning tree rooted at vertex 0, level by level.

        The parent of ``v`` is one step back along the largest axis where
        ``v`` has a nonzero coordinate, so every tree edge runs parent ->
        child along its canonical orientation.  A level holds the
        ``(child, parent, slot)`` index arrays of the children at one
        distance along one axis, in tree order (by coordinates, last axis
        first); parents lie in earlier levels, and there are at most
        ``sum(dims)`` levels.

        The levels are views of one ``(3, nverts)`` array of the vertices in
        tree order, vertex 0 first, filled in place a block of at most
        :data:`_EDGE_BLOCK` children at a time.  The levels come by axis,
        then by distance: the children at distance ``k`` along axis ``a``
        are the vertices before axis ``a``'s, the box of the lower axes in
        its own tree order, moved by ``k`` along ``a``.
        """
        tree = np.zeros((3, self.nverts), dtype=int)
        levels, done = [], 1
        for a, (n, s) in enumerate(zip(self.dims, self.strides.tolist())):
            lower = tree[0, :done]
            chunk = max(1, _EDGE_BLOCK // done)
            for k0 in range(1, n, chunk):
                rows = min(chunk, n - k0)
                block = tree[:, done * k0:done * (k0 + rows)].reshape(3, rows, done)
                np.add(lower, np.arange(k0, k0 + rows)[:, None] * s, out=block[0])
                np.subtract(block[0], s, out=block[1])
                self._slots(block[1], a, out=block[2])      # the edge parent -> child
            levels += [tuple(tree[:, done * k:done * (k + 1)]) for k in range(1, n)]
            done *= n
        return levels


def _skip(k, step, run):
    """``k`` plus ``step`` per whole run of ``run`` indices before it (in
    place where ``k`` is an array); a run of 0 holds no index."""
    q = k // np.maximum(run, 1)
    q *= step
    k += q
    return k


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


def _edges_of(grid: Grid, quads: slice):
    """The edges of the sides of the quads ``quads``, a :func:`quad_blocks`
    block, and the place of each side among them.

    The sides along the first axis of a quad's pair (bottom and top) and
    those along the second (right and left) each cover a short run of
    edges in a block of one pair, so marks over each run give its edges
    in order with no sort, whose first call costs a process about 0.4 MB
    of resident memory.  Where a block meets two pairs, an edge may be
    listed twice, and its transport is taken twice."""
    sides = grid.sides(quads)
    places, edges = np.empty_like(sides), []
    for cols in ((0, 2), (1, 3)):
        run = sides[:, cols]
        lo = run.min()
        mark = np.zeros(run.max() + 1 - lo, bool)
        mark[run - lo] = True
        edges.append(np.flatnonzero(mark) + lo)
        places[:, cols] = np.searchsorted(edges[-1], run) + sum(map(len, edges[:-1]))
    return np.concatenate(edges), places


def holonomy(grid: Grid, gamma) -> np.ndarray:
    """Per-quad relative holonomy of edge transports on canonical
    orientations: ``|G_kj G_ji - G_kl G_li| / |G_kj G_ji|`` (Frobenius).

    ``gamma(edges)`` returns the ``(len(edges), k, k)`` real transports
    of an array of edge indices.  They are taken for the edges of one
    :func:`quad_blocks` block at a time and die with it; each quad's value
    has the same bits in any block.  An error of ``gamma`` names the edge
    it would name if the transports were taken in edge order.
    """
    res = np.empty(grid.nquads)
    try:
        for b in quad_blocks(grid):
            edges, places = _edges_of(grid, b)
            res[b] = _block_holonomy(gamma(edges), places)
    except (DegeneracyError, ValueError):
        # a block meets edges out of edge order: name the first bad edge
        for b in blocks(grid.nedges):
            gamma(np.arange(b.start, b.stop))
        raise
    return res


# Quads per chunk of the products of :func:`_block_holonomy`
_PRODUCTS = 128


def _block_holonomy(gamma: np.ndarray, qe: np.ndarray) -> np.ndarray:
    """:func:`holonomy` of the quads whose sides have the transports
    ``gamma[qe]``.  The products, their difference and the squares that
    the Frobenius norms sum are taken :data:`_PRODUCTS` quads at a time
    in two arrays of that size, in the operations of ``np.linalg.norm``,
    so each value has the bits of one pass.  Overflow and NaN go into the
    result without a warning."""
    n, k = len(qe), gamma.shape[-1]
    lhs, rhs = np.empty((2, min(n, _PRODUCTS), k, k))
    num, den = np.empty(n), np.empty(n)
    with np.errstate(all="ignore"):
        for c in range(0, n, _PRODUCTS):
            e = qe[c:c + _PRODUCTS]
            left, right = lhs[:len(e)], rhs[:len(e)]
            np.matmul(gamma[e[:, 1]], gamma[e[:, 0]], out=left)    # i -> j -> k
            np.matmul(gamma[e[:, 2]], gamma[e[:, 3]], out=right)   # i -> l -> k
            np.subtract(left, right, out=right)
            np.add.reduce(np.multiply(right, right, out=right), axis=(1, 2), out=num[c:c + len(e)])
            np.add.reduce(np.multiply(left, left, out=left), axis=(1, 2), out=den[c:c + len(e)])
        return rel(np.sqrt(num), np.sqrt(den))


def integrate_one_form(grid: Grid, alpha, seed=None, check_closed: bool = True):
    """Integrate a closed 1-form to the potential with ``f(0) = seed``.

    ``alpha`` is an ``(nedges, d)`` array on canonical orientations, and
    the potential a read-only ``(nverts, d)`` array.  Integration runs
    along the canonical staircase tree; when ``check_closed`` is set, the
    quad residual of ``alpha`` (over its largest entry, at least 1), taken
    one :func:`quad_blocks` block at a time, must be at most
    :data:`_CLOSED_TOL` first, else :class:`ClosednessError` names the
    worst quad, a non-finite one first.
    """
    values = np.asarray(alpha, float)
    if len(values) != grid.nedges:
        raise ValueError("one-form carrier size mismatch")
    if check_closed:
        # the largest |entry|, without a copy of |values|
        top = np.maximum(values.max(initial=0.0), -values.min(initial=0.0))
        res, q = _closedness(grid, values, max(float(top), 1.0))
        if not res <= _CLOSED_TOL:
            raise ClosednessError(
                f"one-form is not closed: quad residual {res:.3e} > {_CLOSED_TOL:.1e}",
                where=grid.locate_quad(q), residual=res)
    dim = values.shape[1]
    out = np.zeros((grid.nverts, dim))
    out[0] = 0.0 if seed is None else np.asarray(seed, float)
    for child, parent, slot in grid.staircase_tree():
        out[child] = out[parent] + values[slot]
    out.setflags(write=False)
    return out


def trivialize_connection(grid: Grid, gamma):
    """Trivialize a flat connection: find T with ``Gamma_ji = T_j^-1 T_i``.

    ``gamma(edges)`` gives the forward transports along canonical
    orientations (fiber at tail -> fiber at head) of an array of edge
    indices, as :func:`holonomy` takes it.
    ``T[0]`` is the identity.  The :func:`holonomy` of every quad must be
    at most :data:`_FLAT_TOL` first, else :class:`FlatnessError` names
    the worst quad, a non-finite one first; the returned array satisfies
    the reconstruction identity on all edges up to the flatness residual.

    Once the check passes, the levels of the staircase tree are walked in
    groups of up to :data:`_EDGE_BLOCK` edges: the transports of a
    group's tree edges are taken together, in tree order, each step is
    the inverse of the transport from the parent, and so no
    ``(nedges, k, k)`` array is held.
    """
    res, q = worst(holonomy(grid, gamma))
    if not res <= _FLAT_TOL:
        raise FlatnessError(
            f"connection is not flat: quad residual {res:.3e} > {_FLAT_TOL:.1e}",
            where=grid.locate_quad(q), residual=res)
    groups, size = [], 0
    for level in grid.staircase_tree():
        if not groups or size + len(level[0]) > _EDGE_BLOCK:
            groups.append([])
            size = 0
        groups[-1].append(level)
        size += len(level[0])
    if not groups:                          # one vertex: no step gives the fibers' size
        return np.eye(gamma(np.zeros(0, int)).shape[-1])[None]
    T = None
    for group in groups:
        step = gamma(np.concatenate([slot for *_, slot in group]))   # Gamma_{child, parent}
        # T after the first group's transports: allocated before them (or
        # before the walk), it measured 0.15 MB more construct-64 peak RSS
        if T is None:
            T = np.empty((grid.nverts, *step.shape[1:]))
            T[0] = np.eye(step.shape[-1])
        step = np.linalg.inv(step)
        at = 0
        for child, parent, _ in group:
            T[child] = T[parent] @ step[at:at + len(child)]
            at += len(child)
        del step                            # before the next group's are built
    return T
