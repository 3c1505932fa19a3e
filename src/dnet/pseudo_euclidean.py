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
from .residuals import floor

__all__ = [
    "Signature", "Frame", "action_matrix", "gamma_lambda", "non_null",
    "stereo_lift", "stereo_project", "euclidean_lift", "renull",
    "line_distance", "projective_cross_ratio", "conic_cross_ratio",
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
    """Null lift ``o + x + 1/2 (x,x) q`` of a point of R^{p,q} (batched)."""
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
    long propagations.
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


def projective_cross_ratio(p1, p2, p3, p4) -> float:
    """Cross ratio of four points of a projective line in 2-vector
    homogeneous coordinates:

        cr = (|p1 p2| |p3 p4|) / (|p2 p3| |p4 p1|),

    which reduces to ((z1-z2)(z3-z4)) / ((z2-z3)(z4-z1)) in an affine
    chart.
    """
    def det(a, b):
        return a[0] * b[1] - a[1] * b[0]

    den = det(p2, p3) * det(p4, p1)
    if den == 0:
        raise DegeneracyError("cross ratio undefined: coincident points")
    return float(det(p1, p2) * det(p3, p4) / den)


def conic_cross_ratio(mu, signature: Signature, rng=None) -> float:
    """Cross ratio of four null lines lying on a common conic.

    ``mu`` is a (4, d) array of null representatives spanning a 3-space
    E; the four lines lie on the conic cut out by the inner product on
    P(E).  The value is computed by projecting from a fifth point of the
    conic, which is independent of the choice by Chasles' theorem.
    """
    mu = np.asarray(mu, float)
    if mu.shape[0] != 4:
        raise ValueError("conic cross ratio needs exactly four points")
    U, sv, _ = np.linalg.svd(mu.T, full_matrices=False)
    if sv[2] <= 1e-10 * sv[0]:
        raise DegeneracyError("the four points do not span a plane in P(V)")
    E = U[:, :3]                     # ambient basis of the 3-space
    coords = mu @ E                  # (4, 3) coordinates in E
    gram = E.T @ (signature.signs[:, None] * E)
    rng = np.random.default_rng(2718) if rng is None else rng

    def ip(u, v):
        return float(u @ gram @ v)

    # fifth conic point: c1 + t c2 + u c3 is null for
    # u = -t (c1,c2) / ((c1,c3) + t (c2,c3)), exactly.
    c1, c2, c3 = coords[0], coords[1], coords[2]
    t_candidates = [1.0, -1.0, 0.5, -0.5, 2.0] + list(rng.standard_normal(16))
    for t in t_candidates:
        den = ip(c1, c3) + t * ip(c2, c3)
        if abs(den) < 1e-12:
            continue
        u = -t * ip(c1, c2) / den
        v = c1 + t * c2 + u * c3
        nv = np.linalg.norm(v)
        if nv < 1e-10:
            continue
        v /= nv
        if min(line_distance(v, c) for c in coords) < 1e-6:
            continue
        comp = np.linalg.svd(v[None, :])[2][1:]   # (2, 3) complement of v
        pts = coords @ comp.T                      # quotient 2-vector coords
        try:
            return projective_cross_ratio(pts[0], pts[1], pts[2], pts[3])
        except DegeneracyError:
            continue
    raise DegeneracyError("no admissible projection point found on the conic")
