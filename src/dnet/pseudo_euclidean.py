"""Linear algebra of R^{p,q}: indefinite inner products, the light cone,
bivectors as infinitesimal orthogonal maps, edge transports and
stereoprojection.

The identification of Lambda^2 R^{p,q} with the orthogonal Lie algebra is

    (x ^ y)(z) = (x, z) y - (y, z) x,

and every orthogonal edge transport used in this package is either the
eigen-map ``gamma_lambda`` (scale ``lam`` on one null line, ``1/lam`` on
another, identity on their orthocomplement) or the exponential of an
isotropic bivector, which truncates exactly at first order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, PointAtInfinityError
from .forms import lam2_pairs, pack_bivector, unpack_bivector

__all__ = [
    "Signature", "Frame", "Bivector",
    "bivector_action", "action_matrix", "isotropic_exp", "gamma_lambda",
    "stereo_lift", "stereo_project", "euclidean_lift", "renull",
    "line_normalize", "line_distance", "orthogonality_residual",
    "projective_cross_ratio", "conic_cross_ratio",
]


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

    def is_null(self, v, tol: float = 1e-10) -> np.ndarray:
        v = np.asarray(v, float)
        scale = np.maximum(np.add.reduce(v * v, axis=-1), 1e-300)
        return np.abs(self.norm2(v)) <= tol * scale

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

    ``pi`` is orthoprojection onto span{o, q}^perp, the model of R^{p,q}
    inside R^{p+1,q+1}.
    """

    def __init__(self, signature: Signature, o, q, p=None, tol: float = 1e-12):
        self.signature = signature
        self.o = np.asarray(o, float)
        self.q = np.asarray(q, float)
        self.p = None if p is None else np.asarray(p, float)
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
            if abs(val) > tol:
                raise ValueError(f"frame invariant {name} = {val:.3e} exceeds {tol:.1e}")
        for arr in (self.o, self.q) + (() if self.p is None else (self.p,)):
            arr.setflags(write=False)

    def pi(self, v) -> np.ndarray:
        """Orthoprojection onto span{o, q}^perp (batched)."""
        v = np.asarray(v, float)
        ip = self.signature.inner
        return (v + ip(v, self.q)[..., None] * self.o
                + ip(v, self.o)[..., None] * self.q)


# -- bivectors ---------------------------------------------------------

def _as_matrix(biv, d: int) -> np.ndarray:
    if isinstance(biv, Bivector):
        return biv.matrix
    biv = np.asarray(biv, float)
    if biv.ndim >= 2 and biv.shape[-1] == biv.shape[-2] == d:
        return biv
    return unpack_bivector(biv, d)


class Bivector:
    """Antisymmetric coefficient array acting as an infinitesimal
    orthogonal map through ``(x ^ y)(z) = (x,z) y - (y,z) x``."""

    def __init__(self, matrix, signature: Signature, tol: float = 1e-12):
        matrix = np.asarray(matrix, float)
        if matrix.shape != (signature.dim, signature.dim):
            raise ValueError("bivector matrix has wrong shape")
        scale = max(float(np.abs(matrix).max()), 1e-300)
        if np.abs(matrix + matrix.T).max() > tol * scale:
            raise ValueError("bivector coefficients must be antisymmetric")
        self.matrix = matrix
        self.signature = signature

    @classmethod
    def from_pair(cls, x, y, signature: Signature) -> "Bivector":
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return cls(np.outer(x, y) - np.outer(y, x), signature)

    @classmethod
    def from_packed(cls, packed, signature: Signature) -> "Bivector":
        return cls(unpack_bivector(packed, signature.dim), signature)

    @property
    def packed(self) -> np.ndarray:
        return pack_bivector(self.matrix)

    def action(self) -> np.ndarray:
        return action_matrix(self.matrix, self.signature)

    def act(self, z) -> np.ndarray:
        return bivector_action(self.matrix, z, self.signature)

    def orthogonality_residual(self, nprobe: int = 8, rng=None) -> float:
        """Max |(Bv, w) + (v, Bw)| over random probes, relative."""
        rng = np.random.default_rng(7) if rng is None else rng
        d = self.signature.dim
        v = rng.standard_normal((nprobe, d))
        w = rng.standard_normal((nprobe, d))
        ip = self.signature.inner
        res = ip(self.act(v), w) + ip(v, self.act(w))
        scale = max(float(np.abs(self.matrix).max()), 1e-300)
        return float(np.abs(res).max()) / scale


def action_matrix(matrix: np.ndarray, signature: Signature) -> np.ndarray:
    """Matrix of the action of a bivector coefficient array (batched)."""
    matrix = np.asarray(matrix, float)
    return -matrix * signature.signs


def bivector_action(biv, z, signature: Signature) -> np.ndarray:
    """Apply a bivector (matrix or packed, batched) to vectors ``z``."""
    z = np.asarray(z, float)
    mat = _as_matrix(biv, signature.dim)
    act = action_matrix(mat, signature)
    return np.einsum("...ab,...b->...a", act, z)


def orthogonality_residual(M: np.ndarray, signature: Signature,
                           nprobe: int = 8, rng=None) -> float:
    """Max |(Mv, Mw) - (v, w)| over random unit probes."""
    rng = np.random.default_rng(11) if rng is None else rng
    d = signature.dim
    v = rng.standard_normal((nprobe, d))
    w = rng.standard_normal((nprobe, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    ip = signature.inner
    res = ip(v @ M.T, w @ M.T) - ip(v, w)
    return float(np.abs(res).max())


def isotropic_exp(biv, t: float, signature: Signature,
                  tol: float = 1e-10) -> np.ndarray:
    """``exp(t B)`` for an isotropic bivector: exactly ``I + t B``.

    ``B = mu' ^ mu`` with both vectors null and mutually orthogonal has
    ``B . B = 0``; this is checked through the nilpotency of the action
    and a :class:`DegeneracyError` is raised otherwise (the general
    matrix exponential is out of scope).
    """
    mat = _as_matrix(biv, signature.dim)
    act = action_matrix(mat, signature)
    scale = max(float(np.abs(act).max()), 1e-300)
    if np.abs(act @ act).max() > tol * scale * scale * signature.dim:
        raise DegeneracyError("bivector is not isotropic: exp does not truncate")
    return np.eye(signature.dim) + t * act


def gamma_lambda(s_i, s_j, lam, signature: Signature,
                 tol: float = 1e-10) -> np.ndarray:
    """Orthogonal map scaling ``s_j`` by ``lam``, ``s_i`` by ``1/lam`` and
    fixing ``(s_i + s_j)^perp`` pointwise (batched over leading axes).

    ``s_i``, ``s_j`` are representatives of non-orthogonal null lines.
    On the first offending pair a :class:`DegeneracyError` carries its
    flat batch index as ``where``.
    """
    if np.any(np.asarray(lam) == 0):
        raise ValueError("lambda must be nonzero")
    si = np.asarray(s_i, float)
    sj = np.asarray(s_j, float)
    ip = signature.inner
    g = ip(si, sj)
    norm = np.linalg.norm(si, axis=-1) * np.linalg.norm(sj, axis=-1)
    orth = np.abs(g) <= tol * np.maximum(norm, 1e-300)
    nonnull = [np.abs(ip(v, v)) > 1e-8 * np.sum(v * v, axis=-1) for v in (si, sj)]
    bad = orth | nonnull[0] | nonnull[1]
    if np.any(bad):
        n = int(np.argmax(bad))
        if orth.flat[n]:
            raise DegeneracyError("null lines are orthogonal: eigen transport undefined",
                                  where=n, residual=float(np.abs(g).flat[n]))
        raise ValueError("gamma_lambda expects null line representatives")
    gsi, gsj = si * signature.signs, sj * signature.signs
    c1, c2 = ((lam - 1.0) / g)[..., None], ((1.0 / lam - 1.0) / g)[..., None]
    out = np.empty(np.shape(g) + (signature.dim,) * 2)
    # row by row, so that no second (..., d, d) array is needed
    for a, unit in enumerate(np.eye(signature.dim)):
        row = out[..., a, :]
        np.multiply(sj[..., a, None], gsi, out=row)
        row *= c1
        row += unit
        row += c2 * (si[..., a, None] * gsj)
    return out


# -- light cone charts -------------------------------------------------

def stereo_lift(x, frame: Frame, tol: float = 1e-10) -> np.ndarray:
    """Null lift ``o + x + 1/2 (x,x) q`` of a point of R^{p,q} (batched)."""
    x = np.asarray(x, float)
    ip = frame.signature.inner
    ortho = np.maximum(np.abs(ip(x, frame.o)), np.abs(ip(x, frame.q)))
    if np.any(ortho > tol * np.maximum(np.linalg.norm(x, axis=-1), 1.0)):
        raise ValueError("stereo_lift input must be orthogonal to o and q")
    return frame.o + x + 0.5 * ip(x, x)[..., None] * frame.q


def euclidean_lift(v, frame: Frame, tol: float = 1e-10) -> np.ndarray:
    """The representative of the null line <v> with ``(y, q) = -1``."""
    v = np.asarray(v, float)
    ip = frame.signature.inner(v, frame.q)
    bad = np.abs(ip) <= tol * np.linalg.norm(v, axis=-1)
    if np.any(bad):
        raise PointAtInfinityError("null line lies in the polar hyperplane of q")
    return v / (-ip[..., None])


def stereo_project(v, frame: Frame, tol: float = 1e-10) -> np.ndarray:
    """Stereoprojection of a null line representative into R^{p,q}."""
    return frame.pi(euclidean_lift(v, frame, tol=tol))


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

def line_normalize(v: np.ndarray) -> np.ndarray:
    """Unit Euclidean representative with first nonzero coordinate positive."""
    v = np.asarray(v, float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector does not span a line")
    v = v / n
    nz = np.nonzero(np.abs(v) > 1e-14)[0]
    if len(nz) and v[nz[0]] < 0:
        v = -v
    return v


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


def plane_distance(span1, span2) -> float:
    """Sine of the largest principal angle between two 2-planes, given
    as pairs of spanning vectors.  Computed through the projection
    residual, which stays accurate near zero."""
    M1 = np.stack(span1, axis=1)
    M2 = np.stack(span2, axis=1)
    Q1 = np.linalg.qr(M1)[0]
    Q2 = np.linalg.qr(M2)[0]
    R = Q2 - Q1 @ (Q1.T @ Q2)
    return float(np.linalg.norm(R, 2))


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


def conic_cross_ratio(mu, signature: Signature, rng=None,
                      retries: int = 16) -> float:
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
    t_candidates = [1.0, -1.0, 0.5, -0.5, 2.0] + list(rng.standard_normal(retries))
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
