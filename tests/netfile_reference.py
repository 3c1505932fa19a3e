"""Per-element reference versions of the net-file codec and the grid's
quad edges, and an independent oracle for the Omega-net edge labels.

The codec and quad edges are the formulas the library used before they
were written as array code: the codec encodes and decodes one value at
a time, and the grid looks up each quad's boundary edges in a
``(tail, axis) -> slot`` dict.  The labels come from the applicability
form alone, factored one edge at a time with unbatched plane helpers
and a trace identity, where the library reads them off the stored
spanning pair.  The equivalence tests in ``test_codec.py`` compare the
library against them.  The other tests take their oriented edges, plane
bases and first-degeneracy raise from here.
"""

import json
import math
from typing import NamedTuple

import numpy as np

from dnet.errors import DegeneracyError
from dnet.forms import lam2_pairs, unpack_bivector, wedge_vec
from dnet.lie_sphere import OmegaNet


# -- codec ---------------------------------------------------------------

def encode_array(arr) -> list:
    def enc(v):
        if isinstance(v, (list, tuple, np.ndarray)):
            return [enc(w) for w in v]
        v = float(v)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    return enc(np.asarray(arr, float).tolist())


def decode_array(data) -> np.ndarray:
    def dec(v):
        if isinstance(v, list):
            return [dec(w) for w in v]
        return float(v)
    return np.asarray(dec(data), float)


def document(nf) -> dict:
    return {
        "format": "dnet-net/1",
        "float_encoding": "decimal-shortest-roundtrip",
        "signature": list(nf.signature),
        "dims": list(nf.dims),
        "stacked": nf.stacked,
        "frame": {k: (encode_array(v) if k != "p" or v is not None else None)
                  for k, v in nf.frame.items()},
        "fields": {
            "vertex": {k: encode_array(v) for k, v in nf.vertex_fields.items()},
            "edge": {k: encode_array(v) for k, v in nf.edge_fields.items()},
            "form1": {k: encode_array(v) for k, v in nf.form1_fields.items()},
        },
        "metadata": nf.metadata,
    }


def file_text(nf) -> str:
    """The bytes ``NetFile.save`` wrote, as text."""
    return json.dumps(document(nf), sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


# -- grid ----------------------------------------------------------------

def edge_slot_dict(grid) -> dict:
    return {(int(t), int(a)): e
            for e, (t, a) in enumerate(zip(*grid.edge()))}


def quad_edges(grid) -> np.ndarray:
    """Bottom (i,a), right (j,b), top (l,a), left (i,b) slots per quad."""
    slots = edge_slot_dict(grid)
    out = np.zeros((grid.nquads, 4), dtype=int)
    for n in range(grid.nquads):
        _, a, b = grid.quad(n)
        vi, vj, _, vl = grid.corners(n)
        out[n] = (slots[(int(vi), int(a))], slots[(int(vj), int(b))],
                  slots[(int(vl), int(a))], slots[(int(vi), int(b))])
    return out


class OrientedEdge(NamedTuple):
    """Oriented edge from ``tail`` to ``head`` along ``axis``: ``index``
    is the canonical storage slot, ``sign`` +1 when the orientation is
    the canonical one."""

    tail: int
    head: int
    axis: int
    index: int
    sign: int


def oriented_edge(grid, tail, head) -> OrientedEdge:
    slots = edge_slot_dict(grid)
    diff = head - tail
    for a in range(grid.ndim):
        if diff == grid.strides[a]:
            return OrientedEdge(tail, head, a, slots[(tail, a)], 1)
        if diff == -grid.strides[a]:
            return OrientedEdge(tail, head, a, slots[(head, a)], -1)
    raise ValueError(f"vertices {tail}, {head} are not adjacent")


# -- Omega-net edge labels ------------------------------------------------

def plane_basis(cong, v):
    """Orthonormal (Euclidean) basis of the congruence plane f_v, (d, 2)."""
    return np.linalg.qr(np.stack([cong.sigma1[v], cong.sigma2[v]], axis=1))[0]


def raise_first(failures):
    """Raise the first degeneracy of a batched plane helper's result on
    one element."""
    for mask, message in failures:
        if mask:
            raise DegeneracyError(message)


def span_of_bivector(C, tol=1e-8):
    """Orthonormal basis of the 2-plane of a decomposable bivector."""
    U, sv, _ = np.linalg.svd(C)
    if sv[1] <= tol * max(sv[0], 1e-300):
        raise DegeneracyError("bivector has rank < 2")
    if len(sv) > 2 and sv[2] > 100 * tol * sv[0]:
        raise DegeneracyError("bivector is not decomposable")
    return U[:, :2]


def plane_intersection(B1, B2, tol=1e-8):
    """A vector spanning the intersection of two 2-planes (d x 2 bases)."""
    M = np.concatenate([B1, -B2], axis=1)
    _, sv, Vt = np.linalg.svd(M)
    coef = Vt[-1]
    v = B1 @ coef[:2]
    if np.linalg.norm(v) <= tol:
        raise DegeneracyError("planes do not intersect transversally")
    return v / np.linalg.norm(v)


def omega_edge_labels(omega_or_cong, signature=None) -> np.ndarray:
    """Gauge-invariant edge labels of an applicable Legendre map (an
    Omega-net, or a bare congruence and its signature), edge by edge.

    Factors ``eta_ji = s_j ^ s_i`` with ``s`` taken in the planes at both
    ends and returns ``1 / (s_i, s_j)`` (``inf`` on isotropic edges); the
    reciprocal scale freedom of the factors cancels.  The magnitude comes
    from the trace identity ``tr(A^2) = 2 (s_i, s_j)^2 = -2 sum_{a<b}
    eta_ab^2 G_a G_b`` of the action ``A`` of eta, taken in extended
    precision because the sum cancels far below ``|eta|^2``, and the sign
    from the factors.  A degeneracy raised by a plane helper, which names
    no element, is given the edge it was raised on."""
    if isinstance(omega_or_cong, OmegaNet):
        cong = omega_or_cong.congruence()
        sig = omega_or_cong.signature
    else:
        cong, sig = omega_or_cong, signature
    g = cong.grid
    ia, ib = lam2_pairs(cong.dim)
    sign_prod = sig.signs[ia] * sig.signs[ib]
    labels = np.empty(g.nedges)
    for e in range(g.nedges):
        tl, hd = int(g.edge_tail[e]), int(g.edge_head[e])
        try:
            span = span_of_bivector(unpack_bivector(cong.eta[e], cong.dim))
            s_t = plane_intersection(span, plane_basis(cong, tl))
            s_h = plane_intersection(span, plane_basis(cong, hd))
        except DegeneracyError as err:
            err.where = g.locate_edge(e)
            raise
        w = wedge_vec(s_h, s_t)
        ww = float(w @ w)
        if ww <= 1e-300:
            raise DegeneracyError("factorization degenerate",
                                  where=g.locate_edge(e))
        coef = float(cong.eta[e] @ w) / ww
        resid = np.linalg.norm(cong.eta[e] - coef * w)
        if resid > 1e-8 * max(np.linalg.norm(cong.eta[e]), 1e-300):
            raise DegeneracyError("eta is not decomposable on the edge planes",
                                  where=g.locate_edge(e), residual=float(resid))
        ip_est = coef * float(sig.inner(s_t, s_h))
        row = cong.eta[e].astype(np.longdouble)
        ip_sq = -float(np.sum(row * row * sign_prod.astype(np.longdouble)))
        scale2 = float(cong.eta[e] @ cong.eta[e])
        if ip_sq <= 1e-24 * scale2:
            labels[e] = np.inf
            continue
        ip = np.copysign(np.sqrt(ip_sq), ip_est)
        labels[e] = 1.0 / ip
    return labels
