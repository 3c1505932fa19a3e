"""Relative residuals: one denominator floor, the angle and gap formulas,
and the worst-element locator that every check shares.

A residual divides by its scale floored at :data:`FLOOR`, so a zero
scale gives a finite quotient and ``0 / 0`` reads 0, while NaN and inf
in either operand propagate.  The helpers work over leading axes and
keep the operand order of the formulas they name, so a residual has the
same bits whichever module computes it.  Threshold tests compare
``x <= tol * floor(s)`` rather than dividing, which could move a value
across the boundary.

This module imports only :func:`dnet.forms.wedge_vec` (and ``forms``
imports no ``dnet`` module at run time), so every layer can import it.
"""

from __future__ import annotations

import numpy as np

from .forms import wedge_vec

__all__ = ["FLOOR", "floor", "rel", "sin_angle", "cos_angle", "gap", "circularity",
           "worst"]

# The denominator floor of every relative residual.
FLOOR = 1e-300


def floor(scale):
    """``max(scale, FLOOR)``, elementwise; a 0-d scale gives a Python float."""
    if np.ndim(scale) == 0:
        return max(float(scale), FLOOR)
    return np.maximum(scale, FLOOR)


def rel(num, scale):
    """``num / max(scale, FLOOR)``; a non-finite operand gives its inf or
    NaN without a warning."""
    with np.errstate(all="ignore"):
        return num / floor(scale)


def sin_angle(u, v):
    """``|u ^ v| / (|u| |v|)`` over the last axis: the sine of the angle
    between the lines spanned by u and v."""
    norm = np.linalg.norm
    return rel(norm(wedge_vec(u, v), axis=-1), norm(u, axis=-1) * norm(v, axis=-1))


def cos_angle(uv, norm_u, norm_v):
    """``|(u, v)| / (|u| |v|)`` from the inner products ``uv`` (of any
    signature) and the Euclidean norms of u and v."""
    return rel(np.abs(uv), norm_u * norm_v)


def gap(a, b):
    """Symmetric relative gap ``|a - b| / max(|a|, |b|)``."""
    return rel(np.abs(a - b), np.maximum(np.abs(a), np.abs(b)))


def circularity(lifts, quad_vertices) -> float:
    """Worst ``sv_3 / sv_0`` of the lifts of each quad's vertices: four points
    lie on a circle exactly when their null lifts span at most a 3-space."""
    sv = np.linalg.svd(lifts[quad_vertices], compute_uv=False)
    return float(rel(sv[:, 3], sv[:, 0]).max(initial=0.0))


def worst(res):
    """``(value, element)`` of the largest entry of a 1-d residual array.

    The value is ``res.max(initial=0.0)`` as a float, so NaN propagates
    and an empty array gives 0; the element is the index of the first
    non-finite entry if there is one, else of the first largest entry,
    and None when the value is 0 or ``res`` is empty.
    """
    res = np.asarray(res)
    value = float(res.max(initial=0.0))
    if not res.size or value == 0.0:
        return value, None
    bad = ~np.isfinite(res)
    return value, int(np.argmax(bad if bad.any() else res))
