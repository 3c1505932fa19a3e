"""Linear algebra of R^{p,q}: indefinite inner products, the light cone,
bivectors as infinitesimal orthogonal maps, edge transports and
stereoprojection.

The identification of Lambda^2 R^{p,q} with the orthogonal Lie algebra is

    (x ^ y)(z) = (x, z) y - (y, z) x,

and every orthogonal edge transport used in this package is either the
eigen-map ``gamma_lambda`` (scale ``lam`` on one null line, ``1/lam`` on
another, identity on their orthocomplement) or the exponential of an
isotropic bivector, which truncates exactly at first order: ``I + t B``
in :func:`dnet.isothermic.flat_connection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, PointAtInfinityError
from .forms import frozen, lam2_pairs
from .residuals import floor, sin_angle

__all__ = [
    "Signature", "Frame", "action_matrix", "gamma_lambda", "non_null",
    "stereo_lift", "stereo_project", "euclidean_lift", "renull",
    "line_distance", "conic_cross_ratio",
]

# Relative tolerance of the nullity, isotropy and orthogonality tests.
_TOL = 1e-10
# Tolerance of the defining identities of a frame.
_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class Signature:
    """Diagonal inner product with ``p`` plus and ``q`` minus directions.

    The first ``p`` coordinates are positive, the last ``q`` negative.
    """

    p: int
    q: int
    signs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.p + self.q == 0:
            raise ValueError("signature needs p, q >= 0 and p + q >= 1")
        signs = np.concatenate([np.ones(self.p), -np.ones(self.q)])
        signs.setflags(write=False)
        object.__setattr__(self, "signs", signs)

    @property
    def dim(self) -> int:
        return self.p + self.q

    def inner(self, u, v) -> np.ndarray:
        """Indefinite inner product, batched over leading axes.

        One ufunc chain: the products go through the float ``signs``, so
        array-likes need no conversion, and ``np.add.reduce`` is the sum
        ``np.sum`` makes, without its dispatch.
        """
        return np.add.reduce(u * self.signs * v, axis=-1)

    def norm2(self, v) -> np.ndarray:
        return self.inner(v, v)

    def is_null(self, v) -> np.ndarray:
        v = np.asarray(v, float)
        return np.abs(self.norm2(v)) <= _TOL * floor(np.add.reduce(v * v, axis=-1))

    def standard_frame(self) -> "Frame":
        """Frame built from the last plus and the last minus axes.

        ``o = (e_plus + e_minus)/2``, ``q = e_minus - e_plus``; the point
        sphere complex ``p`` is the second-to-last minus axis when one
        exists.  For signature (4, 2) this is the frame with
        R^3 = span{e1, e2, e3} and p = e5.
        """
        if self.p < 1 or self.q < 1:
            raise ValueError("a null frame requires at least one plus and one minus axis")
        d = self.dim
        u = np.zeros(d)
        u[self.p - 1] = 1.0
        w = np.zeros(d)
        w[d - 1] = 1.0
        o = 0.5 * (u + w)
        qv = w - u
        pv = None
        if self.q >= 2:
            pv = np.zeros(d)
            pv[d - 2] = 1.0
        return Frame(self, o, qv, pv)


class Frame:
    """Null frame ``o, q`` (both null, (o, q) = -1) with optional point
    sphere complex ``p`` ((p, p) = -1, orthogonal to o and q).

    Immutable: the vectors are read-only copies and no attribute can be
    rebound.  ``pi`` is orthoprojection onto span{o, q}^perp, the model
    of R^{p,q} inside R^{p+1,q+1}.
    """

    def __init__(self, signature: Signature, o, q, p=None):
        object.__setattr__(self, "signature", signature)
        for name, v in (("o", o), ("q", q), ("p", p)):
            self._store(name, v, (signature.dim,))
        ip = signature.inner
        checks = {
            "(o,o)": ip(self.o, self.o),
            "(q,q)": ip(self.q, self.q),
            "(o,q)+1": ip(self.o, self.q) + 1.0,
        }
        if self.p is not None:
            checks["(p,p)+1"] = ip(self.p, self.p) + 1.0
            checks["(p,o)"] = ip(self.p, self.o)
            checks["(p,q)"] = ip(self.p, self.q)
        for name, val in checks.items():
            if not abs(val) <= _IDENTITY_TOL:
                raise ValueError(f"frame invariant {name} = {val:.3e} "
                                 f"exceeds {_IDENTITY_TOL:.1e}")

    def _store(self, name: str, v, shape: tuple):
        """Set attribute ``name`` to :func:`~dnet.forms.frozen` ``v``, which
        must have ``shape`` (None stays None)."""
        if v is not None:
            v = frozen(v)
            if v.shape != shape:
                raise ValueError(f"frame vector {name} has shape {v.shape}, "
                                 f"expected {shape}")
        object.__setattr__(self, name, v)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def pi(self, v) -> np.ndarray:
        """Orthoprojection onto span{o, q}^perp (batched)."""
        v = np.asarray(v, float)
        ip = self.signature.inner
        return (v + ip(v, self.q)[..., None] * self.o
                + ip(v, self.o)[..., None] * self.q)


# -- bivectors ---------------------------------------------------------

def action_matrix(matrix: np.ndarray, signature: Signature) -> np.ndarray:
    """Matrix of the action of a bivector coefficient array (batched)."""
    matrix = np.asarray(matrix, float)
    return -matrix * signature.signs


def non_null(v, signature: Signature) -> np.ndarray:
    """Where ``v`` fails the null test of :func:`gamma_lambda`, ``|(v, v)| > 1e-8 |v|^2``
    (which :func:`gamma_lambda` takes with the ``|v|^2`` of its orthogonality test)."""
    return np.abs(signature.inner(v, v)) > 1e-8 * np.sum(v * v, axis=-1)


def gamma_lambda(ends, lam, signature: Signature, out=None) -> np.ndarray:
    """Orthogonal map scaling ``s_j`` by ``lam``, ``s_i`` by ``1/lam`` and
    fixing ``(s_i + s_j)^perp`` pointwise (batched over leading axes).

    ``ends`` is the pair ``(s_i, s_j)`` of representatives of
    non-orthogonal null lines, an array ``(2, ..., d)`` or two arrays of
    one shape.  On the first offending pair a :class:`DegeneracyError`
    carries its flat batch index as ``where``, and ``out``, the
    ``(..., d, d)`` array to write into (a new one by default), is left
    as it was.
    """
    if np.any(np.asarray(lam) == 0):
        raise ValueError("lambda must be nonzero")
    ends = np.asarray(ends, float)
    si, sj = ends
    ip = signature.inner
    g = ip(si, sj)
    sq = [np.add.reduce(v * v, axis=-1) for v in ends]       # |s_i|^2, |s_j|^2
    orth = np.abs(g) <= _TOL * floor(np.sqrt(sq[0]) * np.sqrt(sq[1]))
    bad = orth | (np.abs(ip(si, si)) > 1e-8 * sq[0]) | (np.abs(ip(sj, sj)) > 1e-8 * sq[1])
    if np.any(bad):
        n = int(np.argmax(bad))
        if orth.flat[n]:
            raise DegeneracyError("null lines are orthogonal: eigen transport undefined",
                                  where=n, residual=float(np.abs(g).flat[n]))
        raise ValueError("gamma_lambda expects null line representatives")
    c = np.stack(((lam - 1.0) / g, (1.0 / lam - 1.0) / g), axis=-1)
    out = np.empty(np.shape(g) + (signature.dim,) * 2) if out is None else out
    # I + [s_j, s_i] @ [c1 s_i; c2 s_j] G, G = diag(signs), in unbuffered products over
    # views of the ends; the right factor is freed before the buffered pass of G
    right = np.matmul(c[..., None, None], np.moveaxis(ends, 0, -2)[..., None, :])[..., 0, :]
    np.matmul(np.moveaxis(ends[::-1], 0, -1), right, out=out)
    del right
    out *= signature.signs
    for a in range(signature.dim):          # no buffer, unlike one add on a diagonal view
        out[..., a, a] += 1.0
    return out


# -- light cone charts -------------------------------------------------

def stereo_lift(x, frame: Frame) -> np.ndarray:
    """Null lift ``o + x + 1/2 (x,x) q`` of points of R^{p,q} (batched), the base lift
    of ``_cauchy_lines``, ``_random_null``, ``_guichard_attempts``, ``check_combescure``."""
    x = np.asarray(x, float)
    ip = frame.signature.inner
    ortho = np.maximum(np.abs(ip(x, frame.o)), np.abs(ip(x, frame.q)))
    if np.any(ortho > _TOL * np.maximum(np.linalg.norm(x, axis=-1), 1.0)):
        raise ValueError("stereo_lift input must be orthogonal to o and q")
    return frame.o + x + 0.5 * ip(x, x)[..., None] * frame.q


def euclidean_lift(v, frame: Frame) -> np.ndarray:
    """The representative of the null line <v> with ``(y, q) = -1``."""
    v = np.asarray(v, float)
    ip = frame.signature.inner(v, frame.q)
    bad = np.abs(ip) <= _TOL * np.linalg.norm(v, axis=-1)
    if np.any(bad):
        raise PointAtInfinityError("null line lies in the polar hyperplane of q")
    return v / (-ip[..., None])


def stereo_project(v, frame: Frame) -> np.ndarray:
    """Stereoprojection of a null line representative into R^{p,q}."""
    return frame.pi(euclidean_lift(v, frame))


def renull(v, frame: Frame) -> np.ndarray:
    """Project back onto the light cone by adjusting the q-component.

    Solves ``(v + delta q, v + delta q) = 0`` exactly (the constraint is
    linear in delta because q is null); prevents nullity drift across
    long propagations, and makes the null Cauchy steps of
    ``_cauchy_lines`` and ``_cauchy_candidates``.
    """
    v = np.asarray(v, float)
    ip = frame.signature.inner
    vq = ip(v, frame.q)
    delta = np.where(np.abs(vq) > 1e-300, -0.5 * ip(v, v) / np.where(vq == 0, 1.0, vq), 0.0)
    return v + delta[..., None] * frame.q


# -- projective helpers ------------------------------------------------

def line_distance(u, v) -> float:
    """``|sin angle|`` between the lines spanned by u and v."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("zero vector does not span a line")
    a, b = lam2_pairs(len(u))
    w = u[a] * v[b] - u[b] * v[a]
    return float(np.linalg.norm(w) / (nu * nv))


def standard_chart_indices(signature: Signature):
    """Coordinate slots of span{o, q}^perp for the standard frame."""
    d = signature.dim
    return [a for a in range(d) if a not in (signature.p - 1, d - 1)]


# the t of the fifth conic points c1 + t c2 + u c3 tried for each quadruple
_CONIC_T = np.array([1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 0.25, -0.25, 3.0, -3.0])


def conic_cross_ratio(mu, signature: Signature) -> np.ndarray:
    """Cross ratios of quadruples ``mu`` ``(..., 4, d)`` of null lines on the conic of the
    3-space E each spans: ``det(v,c1,c2) det(v,c3,c4) / (det(v,c2,c3) det(v,c4,c1))``, the
    2x2 determinants of the points projected from a fifth conic point v (coordinates in E),
    the same for every v by Chasles' theorem.  v is the null ``c1 + t c2 + u c3``, ``u = -t
    (c1,c2) / ((c1,c3) + t (c2,c3))``, farthest in sine from the ci over t in ``_CONIC_T``.
    A DegeneracyError names the flat index of the first quadruple that spans no plane, has
    two coincident points, or no v apart from them at 1e-6."""
    mu = np.asarray(mu, float)
    if mu.shape[-2] != 4:
        raise ValueError("a conic cross ratio takes four points")
    U, sv, _ = np.linalg.svd(np.swapaxes(mu, -1, -2), full_matrices=False)
    c, (i, j) = mu @ U[..., :3], np.triu_indices(4, 1)       # coordinates in E, point pairs
    gram = mu @ (signature.signs[:, None] * np.swapaxes(mu, -1, -2))
    with np.errstate(divide="ignore", invalid="ignore"):
        den = gram[..., 0, 2, None] + _CONIC_T * gram[..., 1, 2, None]
        v = (c[..., None, 0, :] + _CONIC_T[:, None] * c[..., None, 1, :]
             - (_CONIC_T * gram[..., 0, 1, None] / den)[..., None] * c[..., None, 2, :])
        apart = np.where((np.abs(den) >= 1e-12) & (np.linalg.norm(v, axis=-1) >= 1e-10),
                         sin_angle(v[..., None, :], c[..., None, :, :]).min(axis=-1), 0.0)
        det = v @ np.swapaxes(np.cross(c[..., i, :], c[..., j, :]), -1, -2)  # 01 02 03 12 13 23
        cr = -det[..., 0] * det[..., 5] / (det[..., 3] * det[..., 2])
    for bad, what in ((sv[..., 2] <= 1e-10 * sv[..., 0], "the points span no plane"),
                      (sin_angle(c[..., i, :], c[..., j, :]).min(-1) < 1e-6, "coincident points"),
                      (apart.max(axis=-1) < 1e-6, "no admissible projection point")):
        if np.any(bad):
            raise DegeneracyError(f"conic cross ratio: {what}", where=int(np.argmax(bad)))
    return np.take_along_axis(cr, np.argmax(apart, axis=-1)[..., None], axis=-1)[..., 0]
