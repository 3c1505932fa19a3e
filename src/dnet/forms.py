"""Discrete exterior calculus of vector-valued forms of degree <= 2.

A k-form assigns a value in R^d to every oriented k-cube of a grid and
changes sign under orientation reversal.  Values are stored on the
canonical orientations only; the opposite orientation is always derived
by negation, never stored, so the sign rule holds bitwise.

The exterior derivative acts by

* ``(df)_{ji} = f_j - f_i`` on 0-forms,
* ``(da)_{lkji} = a_{il} + a_{lk} + a_{kj} + a_{ji}`` on 1-forms,

and satisfies ``d(d(f)) = 0``.  Products of forms with values in
different spaces are taken through a :class:`BilinearRule`; for two
1-forms the quad value is the quarter formula

    1/4 ( B(a_ji + a_kl, b_li + b_kj) - B(a_li + a_kj, b_ji + b_kl) ).

The product is graded commutative for symmetric ``B`` and graded
anticommutative for antisymmetric ``B``.  It is not associative, so no
chained product helper is offered; parenthesize explicitly.

Bivector-valued forms (values in Lambda^2 R^d) store their coefficients
in the lexicographic basis ``e_a ^ e_b``, ``a < b``; see
:func:`lam2_pairs` and :func:`unpack_bivector`.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:          # annotations only: forms imports no dnet module
    from .grid import Grid

__all__ = [
    "Form0", "Form1", "Form2", "BilinearRule",
    "exterior_derivative", "wedge", "curly_wedge", "mixed_area",
    "lam2_dim", "lam2_pairs", "unpack_bivector", "wedge_vec",
]


# -- frozen arrays -----------------------------------------------------

def frozen(values) -> np.ndarray:
    """``values`` as a read-only float64 array: ``values`` itself where it
    is one already and owns its data, else a read-only copy.

    The one ownership rule of the immutable types (:class:`Form0` and the
    other forms, ``IsothermicNet``, ``OmegaNet``, ``Frame``): an array
    that owns its data was made read-only by the code that built it, which
    keeps no writable view of it, so it is shared; a writable array, and
    a view of any array, is copied, so no write to the caller's array
    reaches the holder.
    """
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.flags.owndata and not values.flags.writeable):
        return values
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


# -- Lambda^2 coefficient helpers -------------------------------------

def lam2_dim(d: int) -> int:
    """Dimension of Lambda^2 R^d."""
    return d * (d - 1) // 2


@cache
def lam2_pairs(d: int):
    """Index pairs (a, b), a < b, in lexicographic order (shared, read-only)."""
    a, b = np.triu_indices(d, k=1)
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def unpack_bivector(packed: np.ndarray, d: int) -> np.ndarray:
    """Antisymmetric coefficient matrix from packed coefficients (batched)."""
    packed = np.asarray(packed, float)
    a, b = lam2_pairs(d)
    out = np.zeros(packed.shape[:-1] + (d, d))
    out[..., a, b] = packed
    out[..., b, a] = -packed
    return out


def wedge_vec(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Packed coefficients of ``x ^ y`` (batched over leading axes)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    a, b = lam2_pairs(x.shape[-1])
    return x[..., a] * y[..., b] - x[..., b] * y[..., a]


# -- bilinear rules ----------------------------------------------------

class BilinearRule:
    """A bilinear map B: R^dl x R^dr -> R^do used to multiply form values.

    ``fn`` must accept two arrays of shape (n, dl), (n, dr) and return
    (n, do).
    """

    def __init__(self, fn, dim_left, dim_right, dim_out, name):
        self.fn = fn
        self.dim_left = int(dim_left)
        self.dim_right = int(dim_right)
        self.dim_out = int(dim_out)
        self.name = name

    def __call__(self, u, v):
        u = np.atleast_2d(np.asarray(u, float))
        v = np.atleast_2d(np.asarray(v, float))
        if u.shape[1] != self.dim_left or v.shape[1] != self.dim_right:
            raise ValueError(
                f"rule {self.name!r} expects dims ({self.dim_left}, {self.dim_right}), "
                f"got ({u.shape[1]}, {v.shape[1]})")
        return self.fn(u, v)

    @classmethod
    def scalar(cls):
        return cls(lambda u, v: u * v, 1, 1, 1, name="scalar")

    @classmethod
    def dot(cls, dim: int, signs=None):
        """Inner product, optionally with a diagonal metric ``signs``."""
        if signs is None:
            signs = np.ones(dim)
        signs = np.asarray(signs, float)

        def fn(u, v):
            return np.sum(u * signs * v, axis=1, keepdims=True)

        return cls(fn, dim, dim, 1, name="dot")

    @classmethod
    def wedge_product(cls, dim: int):
        """Exterior product R^d x R^d -> Lambda^2 R^d (packed)."""
        return cls(wedge_vec, dim, dim, lam2_dim(dim), name="wedge")


# -- forms -------------------------------------------------------------

class _FormBase:
    degree = None
    carrier = None

    def __init__(self, grid: Grid, values):
        values = frozen(values)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ValueError("form values must be a (carrier, dim) array")
        n = {"vertex": grid.nverts, "edge": grid.nedges, "quad": grid.nquads}[self.carrier]
        if len(values) != n:
            raise ValueError(
                f"{type(self).__name__} expects {n} values, got {len(values)}")
        self.grid = grid
        self.values = values

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __repr__(self):
        return (f"{type(self).__name__}(dim={self.dim}, "
                f"carrier={len(self.values)} {self.carrier}s)")


class Form0(_FormBase):
    degree = 0
    carrier = "vertex"


class Form1(_FormBase):
    degree = 1
    carrier = "edge"


class Form2(_FormBase):
    degree = 2
    carrier = "quad"


def exterior_derivative(form):
    """d of a 0-form or 1-form.  ``d(d(f))`` vanishes identically."""
    grid = form.grid
    if form.degree == 0:
        return Form1(grid, grid.edge_difference(form.values))
    if form.degree == 1:
        return Form2(grid, _quad_edge_sum(grid, form.values))
    raise ValueError("exterior derivative is implemented for degrees 0 and 1 only")


def _quad_edge_sum(grid: Grid, values: np.ndarray, quads=slice(None)) -> np.ndarray:
    """The quad sums of an edge array on canonical orientations: d of a
    1-form's values, on the quads ``quads`` (all by default)."""
    qe = grid.sides(quads)
    return values[qe[:, 0]] + values[qe[:, 1]] - values[qe[:, 2]] - values[qe[:, 3]]


def _quad_vertex_sum(grid: Grid, values: np.ndarray) -> np.ndarray:
    qv = grid.corners()
    return values[qv[:, 0]] + values[qv[:, 1]] + values[qv[:, 2]] + values[qv[:, 3]]


def wedge(a, b, rule: BilinearRule):
    """Exterior product of two forms through a bilinear rule.

    Supported degree pairs: (0,0), (0,1), (1,0), (0,2), (2,0), (1,1).
    """
    if a.grid is not b.grid:
        raise ValueError("forms live on different grids")
    if a.dim != rule.dim_left or b.dim != rule.dim_right:
        raise ValueError(
            f"value dimensions ({a.dim}, {b.dim}) do not match rule "
            f"({rule.dim_left}, {rule.dim_right})")
    grid = a.grid
    k, m = a.degree, b.degree
    if k + m > 2:
        raise ValueError("products are implemented for total degree <= 2")

    if (k, m) == (0, 0):
        return Form0(grid, rule(a.values, b.values))
    if (k, m) == (0, 1):
        tail, head = grid.ends()
        avg = a.values[tail] + a.values[head]
        return Form1(grid, 0.5 * rule(avg, b.values))
    if (k, m) == (1, 0):
        tail, head = grid.ends()
        avg = b.values[tail] + b.values[head]
        return Form1(grid, 0.5 * rule(a.values, avg))
    if (k, m) == (0, 2):
        return Form2(grid, 0.25 * rule(_quad_vertex_sum(grid, a.values), b.values))
    if (k, m) == (2, 0):
        return Form2(grid, 0.25 * rule(a.values, _quad_vertex_sum(grid, b.values)))

    qe, av, bv = grid.sides(), a.values, b.values
    return Form2(grid, _one_form_product(rule, lambda n: av[qe[:, n]],
                                         lambda n: bv[qe[:, n]]))


def _one_form_product(rule, a, b) -> np.ndarray:
    """The quarter formula of the product of two 1-forms, per quad, from
    ``a(n)`` and ``b(n)``: their values on the n-th boundary edge of each
    quad, n = 0, 1, 2, 3 for bottom, right, top and left.

    The canonical boundary edges give ``a_ji`` = bottom, ``a_kl`` = top,
    ``a_li`` = left and ``a_kj`` = right.  Each edge sum is taken where
    the rule reads it, so no gathered array outlives its sum; every caller,
    whole-grid or blocked, goes through this one formula.
    """
    return 0.25 * (rule(a(0) + a(2), b(3) + b(1)) - rule(a(3) + a(1), b(0) + b(2)))


def curly_wedge(a, b):
    """Product with the exterior product of the value space as the rule.

    For two 1-forms this is symmetric: ``a ^~ b == b ^~ a``.
    """
    if a.dim != b.dim:
        raise ValueError("curly wedge requires equal value dimensions")
    return wedge(a, b, BilinearRule.wedge_product(a.dim))


def mixed_area(x: Form0, y: Form0) -> Form2:
    """Mixed area ``A(x, y) = 1/2 dx ^~ dy`` of two vertex maps.

    For edge-parallel ``x``, ``y`` this is the polarization of the quad
    area; the formula is evaluated for arbitrary inputs regardless.
    ``A(x, x)`` per quad equals ``1/2 (x_i - x_k) ^ (x_j - x_l)``.
    """
    dx = exterior_derivative(x)
    dy = exterior_derivative(y)
    out = curly_wedge(dx, dy)
    return Form2(out.grid, 0.5 * out.values)
