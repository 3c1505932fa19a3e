"""Self-describing net files and the verification engine over them.

A net file (format ``dnet-net/1``) is one JSON document holding the
ambient signature, grid dimensions, frame vectors, named vertex / edge /
1-form fields and generator metadata.  Its text is exactly what
``json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)``
writes for the document with every array as nested lists, plus a final
newline:

* keys are sorted, each nesting level indents by one space, and every
  array entry sits on its own line;
* floats are written in Python's shortest round-trip form
  (``float.__repr__``), so save / load is lossless bit for bit and
  ``-0.0`` keeps its sign;
* non-finite values are written as the strings ``"inf"``, ``"-inf"`` and
  ``"nan"``.

Fixed inputs give byte-identical files.  Writes go through a temporary
file and an atomic rename.

:meth:`NetFile.load` reads array entries that are numbers, booleans
(as 0 / 1) or strings that Python's ``float`` accepts (``"inf"``,
``"nan"``, ``"Infinity"``, ``"1.5"``).  It raises :class:`FormatError`
for malformed JSON, another ``format``, a missing or non-integer
``signature`` or ``dims``, a section that is not a JSON object, a
``null``, dict or other non-numeric entry, ragged nesting, a bare number
where an array belongs and field row counts that do not match the
grid.  A ``null`` never reads as NaN.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, GeometryError
from .grid import Grid
from .pseudo_euclidean import Frame, Signature
from .reports import Check, Report
from .residuals import cos_angle, floor

FORMAT = "dnet-net/1"
FLOAT_ENCODING = "decimal-shortest-roundtrip"

VERTEX_FIELDS = ("mu", "mu_plus", "mu_minus", "x", "n", "xdual", "ndual",
                 "xi", "y", "t")
EDGE_FIELDS = ("m", "kappa")
FORM1_FIELDS = ("eta",)


def _json_text(value, depth: int) -> str:
    """``value`` in the file layout, nested ``depth`` levels deep.

    JSON text holds no raw newline inside a string, so indenting every
    line break re-indents the whole value.
    """
    text = json.dumps(value, sort_keys=True, separators=(",", ": "), indent=1)
    return text.replace("\n", "\n" + " " * depth)


def _array_text(arr: np.ndarray, depth: int) -> str:
    """``_json_text`` of the nested lists of ``arr``, with non-finite values
    as strings, rendered in one pass over the flat values."""
    if arr.size == 0:
        return _json_text(arr.tolist(), depth)
    flat = arr.ravel()
    tokens = list(map(float.__repr__, flat.tolist()))
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        tokens[i] = f'"{tokens[i]}"'          # "inf", "-inf", "nan"
    nd = arr.ndim
    if nd == 0:
        return tokens[0]
    pad = ["\n" + " " * (depth + k) for k in range(nd + 1)]

    def sep(j):
        """What follows a value that ends its ``j`` innermost lists."""
        return ("".join(pad[nd - k] + "]" for k in range(1, j + 1)) + ","
                + "".join(pad[nd - k] + "[" for k in range(j, 0, -1)) + pad[nd])

    seps = [sep(0)] * (arr.size - 1)
    block = 1
    for j in range(1, nd):
        block *= arr.shape[nd - j]
        seps[block - 1::block] = [sep(j)] * ((arr.size - 1) // block)
    parts = [""] * (2 * arr.size - 1)
    parts[0::2] = tokens
    parts[1::2] = seps
    head = "[" + "".join(pad[k] + "[" for k in range(1, nd)) + pad[nd]
    tail = "".join(pad[k] + "]" for k in range(nd - 1, -1, -1))
    return head + "".join(parts) + tail


def _has_array(value) -> bool:
    return isinstance(value, np.ndarray) or (
        isinstance(value, dict) and any(map(_has_array, value.values())))


def _document_text(value, depth: int = 0) -> str:
    """``_json_text`` of a document whose arrays are ndarrays; objects that
    hold arrays must have string keys."""
    if isinstance(value, np.ndarray):
        return _array_text(value, depth)
    if not _has_array(value):
        return _json_text(value, depth)
    inner = "\n" + " " * (depth + 1)
    items = (f"{json.dumps(k)}: {_document_text(v, depth + 1)}"
             for k, v in sorted(value.items()))
    return "{" + inner + ("," + inner).join(items) + "\n" + " " * depth + "}"


def _decode_array(value, what: str) -> np.ndarray:
    """A float array from its JSON value (see the module docstring)."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise FormatError(f"{what} is not a numeric array: {err}") from None
    if arr.ndim == 0:
        raise FormatError(f"{what} must be an array, got {value!r}")
    nan = np.isnan(arr)
    # numpy reads None as NaN; only NaN that came from a number or a
    # string is data
    if nan.any() and (np.array(value, dtype=object)[nan] == None).any():  # noqa: E711
        raise FormatError(f"{what} has a null entry")
    return arr


def _section(doc: dict, key: str, where: str = "document") -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise FormatError(f"{where} {key!r} must be a JSON object")
    return value


def _int_list(doc: dict, key: str) -> tuple:
    if key not in doc:
        raise FormatError(f"missing {key!r}")
    value = doc[key]
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise FormatError(f"{key!r} must be a list of integers, got {value!r}")
    return tuple(value)


@dataclass
class NetFile:
    """In-memory image of a net file."""

    signature: tuple
    dims: tuple
    stacked: bool = False
    frame: dict = field(default_factory=dict)
    vertex_fields: dict = field(default_factory=dict)
    edge_fields: dict = field(default_factory=dict)
    form1_fields: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def grid(self) -> Grid:
        return Grid(self.dims, stacked=self.stacked)

    def sig(self) -> Signature:
        return Signature(*self.signature)

    def lie_frame(self):
        from .lie_sphere import LieFrame
        fr = self.the_frame()
        if fr is None or fr.p is None:
            return None
        basis3 = self.frame.get("basis3")
        if basis3 is None:
            return None
        return LieFrame(fr, np.asarray(basis3, float))

    def the_frame(self) -> Frame | None:
        if not self.frame:
            return None
        p = self.frame.get("p")
        return Frame(self.sig(), np.asarray(self.frame["o"], float),
                     np.asarray(self.frame["q"], float),
                     None if p is None else np.asarray(p, float))

    def save(self, path: str):
        def arrays(fields):
            return {k: np.asarray(v, float) for k, v in fields.items()}
        doc = {
            "format": FORMAT,
            "float_encoding": FLOAT_ENCODING,
            "signature": list(self.signature),
            "dims": list(self.dims),
            "stacked": self.stacked,
            "frame": {k: (None if k == "p" and v is None else np.asarray(v, float))
                      for k, v in self.frame.items()},
            "fields": {"vertex": arrays(self.vertex_fields),
                       "edge": arrays(self.edge_fields),
                       "form1": arrays(self.form1_fields)},
            "metadata": self.metadata,
        }
        text = _document_text(doc)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "NetFile":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as err:     # JSONDecodeError, UnicodeDecodeError
                raise FormatError(f"{path} is not a JSON document: {err}") from None
        fmt = doc.get("format") if isinstance(doc, dict) else None
        if fmt != FORMAT:
            raise FormatError(f"unsupported format {fmt!r}")
        signature = _int_list(doc, "signature")
        try:
            Signature(*signature)
        except (TypeError, ValueError) as err:
            raise FormatError(f"bad signature {list(signature)}: {err}") from None
        fields = _section(doc, "fields")

        def arrays(kind, what):
            return {k: _decode_array(v, f"{what} {k!r}")
                    for k, v in _section(fields, kind, "fields").items()}
        nf = cls(
            signature=signature,
            dims=_int_list(doc, "dims"),
            stacked=bool(doc.get("stacked", False)),
            frame={k: (None if k == "p" and v is None
                       else _decode_array(v, f"frame vector {k!r}"))
                   for k, v in _section(doc, "frame").items()},
            vertex_fields=arrays("vertex", "vertex field"),
            edge_fields=arrays("edge", "edge field"),
            form1_fields=arrays("form1", "one-form field"),
            metadata=_section(doc, "metadata"),
        )
        nf.check_shapes()
        return nf

    def check_shapes(self):
        try:
            g = self.grid()
        except ValueError as err:
            raise FormatError(f"bad dims {list(self.dims)}: {err}") from None
        for label, fields, rows in (("vertex field", self.vertex_fields, g.nverts),
                                    ("edge field", self.edge_fields, g.nedges),
                                    ("one-form field", self.form1_fields, g.nedges)):
            for name, arr in fields.items():
                if len(arr) != rows:
                    raise FormatError(f"{label} {name!r} has {len(arr)} rows, "
                                      f"expected {rows}")


DEFAULT_TOLS = {
    "nullity": 1e-10,
    "moutard": 1e-10,
    "label_relations": 1e-9,
    "flatness": 1e-9,
    "eta_closed": 1e-10,
    "applicability": 1e-8,
    "gauge": 1e-8,
    "duality": 1e-9,
    "eisenhart": 1e-8,
    "associate": 1e-8,
    "unit_normal": 1e-9,
    "curvature_relation": 1e-9,
    "circularity": 1e-8,
    "orthogonality": 1e-8,
    "coefficients": 1e-9,
    "regularity_margin": 1e-6,
}


def run_checks(nf: NetFile, tols: dict | None = None) -> Report:
    """Run every check the present fields support; list the rest as
    skipped."""
    from .isothermic import IsothermicNet, connection_flatness
    from .lie_sphere import (OmegaNet, PrincipalNet, associates, check_guichard,
                             check_omega, eisenhart_general, eisenhart_guichard,
                             omega_edge_labels)

    tols = {**DEFAULT_TOLS, **(tols or {})}
    rep = Report()
    g = nf.grid()
    sig = nf.sig()
    vf = nf.vertex_fields

    net = None
    if "mu" in vf:
        net = IsothermicNet(g, sig, vf["mu"])
        v = net.validate()
        rep.add(Check.from_residual("isothermic.nullity", v["nullity"],
                                    tols["nullity"]))
        rep.add(Check.from_residual("isothermic.moutard", v["moutard"],
                                    tols["moutard"], worst=v["worst_quad"]))
        rep.add(Check.from_residual("isothermic.label_relations",
                                    v["label_relations"], tols["label_relations"]))
        if g.nquads:
            rep.add(Check.from_margin("isothermic.diagonal_margin",
                                      v["diagonal_margin"], tols["regularity_margin"]))
        else:
            rep.skip("isothermic.diagonal_margin", "no quads")
        finite = net.finite_labels()
        for t in (-1.0, 0.3, 2.0):
            if finite.size and np.min(np.abs(finite - t)) < 1e-6:
                rep.skip(f"isothermic.flatness(t={t})", "t collides with a label")
                continue
            try:
                res = connection_flatness(net, t)
            except (GeometryError, ValueError) as err:
                rep.add(Check(name=f"isothermic.flatness(t={t})",
                              residual=float("inf"), tol=tols["flatness"],
                              passed=False, note=f"aborted: {err}"))
                continue
            rep.add(Check.from_residual(f"isothermic.flatness(t={t})", res,
                                        tols["flatness"]))
        if "m" in nf.edge_fields:
            stored = nf.edge_fields["m"]
            both_inf = np.isinf(stored) & np.isinf(net.labels)
            # subtract only where defined: inf - inf would warn
            num = np.abs(np.subtract(stored, net.labels, out=np.zeros(net.labels.shape),
                                     where=~both_inf))
            den = np.where(both_inf, 1.0, floor(np.abs(stored)))
            rep.add(Check.from_residual("isothermic.stored_labels",
                                        float((num / den).max(initial=0.0)), 1e-9))
    else:
        rep.skip("isothermic.*", "no mu field")

    lf = nf.lie_frame()
    omega = None
    if {"mu_plus", "mu_minus", "y", "t"} <= set(vf) and "eta" in nf.form1_fields \
            and lf is not None:
        omega = OmegaNet(g, lf, vf["y"], vf["t"], nf.form1_fields["eta"],
                         mu_plus=vf["mu_plus"], mu_minus=vf["mu_minus"])
        v = omega.validate(tol=tols["applicability"],
                           margin=tols["regularity_margin"])
        rep.add(Check.from_residual("omega.null_planes", v["null_planes"], 1e-9))
        rep.add(Check.from_residual("omega.normalization", v["normalization"], 1e-9))
        rep.add(Check.from_residual("omega.gauge", v["gauge"], tols["gauge"]))
        app = v["applicability"]
        rep.add(Check.from_residual("omega.eta_closed", app["eta_closed"],
                                    tols["eta_closed"]))
        rep.add(Check.from_residual("omega.eta_decomposable",
                                    app["eta_decomposable"], tols["applicability"]))
        rep.add(Check.from_residual("omega.eta_in_lam2_f", app["eta_in_lam2_f"],
                                    tols["applicability"]))
        rep.add(Check.from_margin("omega.nondegeneracy",
                                  app["nondegeneracy_margin"],
                                  tols["regularity_margin"]))
        a = associates(omega)
        rep.add(Check.from_residual("omega.reconstruction", a.reconstruction,
                                    tols["applicability"]))
        rep.add(Check.from_residual("omega.duality", a.duality, tols["duality"]))
        labels = omega_edge_labels(omega)
        pn = omega.principal()
        rep.add(Check.from_residual(
            "omega.eisenhart",
            eisenhart_general(pn, a.x_dual, a.n_dual, labels)["pairing"],
            tols["eisenhart"]))
    elif "mu_plus" in vf:
        rep.skip("omega.*", "incomplete omega fields or frame")
    else:
        rep.skip("omega.*", "no congruence fields")

    if {"x", "n"} <= set(vf) and vf["x"].shape[1] == 3 and vf["n"].shape[1] == 3:
        pn = PrincipalNet(g, vf["x"], vf["n"])
        v = pn.validate()
        rep.add(Check.from_residual("principal.unit_normal", v["unit_normal"],
                                    tols["unit_normal"]))
        rep.add(Check.from_residual("principal.curvature_relation",
                                    v["curvature_relation"],
                                    tols["curvature_relation"]))
        rep.add(Check.from_residual("principal.circularity", v["circularity"],
                                    tols["circularity"]))
        if "xdual" in vf and "ndual" not in vf:
            # an associate net without a separate associate Gauss map is
            # the Guichard case (the Gauss map itself is the partner)
            rep.add(Check.from_residual(
                "guichard.associate",
                check_guichard(pn, vf["xdual"])["associate"], tols["associate"]))
            if omega is not None:
                eis = eisenhart_guichard(pn, vf["xdual"], labels)
                rep.add(Check.from_residual("guichard.eisenhart",
                                            eis["eisenhart"], tols["eisenhart"]))
                rep.add(Check.from_residual("guichard.ratio_identity",
                                            eis["ratio_identity"],
                                            10 * tols["eisenhart"]))
        elif "xdual" not in vf:
            rep.skip("guichard.*", "no xdual field")
        if {"xdual", "ndual"} <= set(vf):
            co = check_omega(pn, vf["xdual"], vf["ndual"], tol=tols["duality"])
            rep.add(Check.from_residual("omega.duality_fields", co["duality"],
                                        tols["duality"]))
    else:
        rep.skip("principal.*", "no x, n fields")

    if "xi" in vf and net is not None and lf is not None:
        ip = sig.inner
        xi = vf["xi"]
        orth = cos_angle(ip(xi, net.mu), np.linalg.norm(xi, axis=1),
                         np.linalg.norm(net.mu, axis=1))
        rep.add(Check.from_residual("special.orthogonality",
                                    float(orth.max(initial=0.0)),
                                    tols["orthogonality"]))
        coeffs = np.stack([ip(lf.p, lf.p) * np.ones(g.nverts),
                           2.0 * ip(lf.p, xi), ip(xi, xi)], axis=1)
        dev = float(np.abs(coeffs - np.array([-1.0, -2.0, 0.0])).max(initial=0.0))
        rep.add(Check.from_residual("special.coefficients", dev,
                                    tols["coefficients"]))
    elif "xi" in vf:
        rep.skip("special.*", "xi present but mu or frame missing")

    return rep
