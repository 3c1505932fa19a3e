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

Fixed inputs give byte-identical files.  Every file dnet writes (net
files, ``verify --report`` reports, ``export`` output and the Guichard
fault report) goes through :func:`write_text`: a temporary file beside
the target and an atomic rename, so a failed write leaves the old file
and no temporary file.  :meth:`NetFile.save` streams its text into
:func:`write_text`: an array with more than :data:`_ROWS` rows is
rendered and written one block of rows at a time, so the document's
text is never held whole, and a rendering that raises partway is a
failed write.

The isothermic checks of :func:`run_checks` run in blocks as well: the
net's edge arrays and the stored-label residuals in blocks of edges, and
its Moutard, label-relation, margin and flatness residuals in blocks of
quads, so their gathered temporaries stay one block in size.

:meth:`NetFile.load` reads a file over a grid of more than 2,048
vertices without a Python object per number of the whole file and
without its whole text: :func:`dnet.fieldread.fast_document` reads it
forward, ``json`` parsing each array of its ``fields`` section one block
of rows of one fixed window at a time into an array sized from ``dims``,
then the rest of the document, which must be in the writer's layout
(this format and float encoding, the text :meth:`NetFile.save` writes).
Any other file, a smaller grid and a block that does not parse, holds a
``null`` or is ragged go through ``json`` whole.  ``json`` parses every
number on both paths and numpy converts them alike, so both give the
same arrays bit for bit, and every error below comes from the whole-file
path.  The arrays of a loaded file are read-only on both paths, so the
nets built from them keep them without a copy.

It reads array entries that are numbers, booleans
(as 0 / 1) or strings that Python's ``float`` accepts (``"inf"``,
``"nan"``, ``"Infinity"``, ``"1.5"``).  It raises :class:`FormatError`
for malformed JSON, another ``format``, a missing or non-integer
``signature`` or ``dims``, a section that is not a JSON object, a
``null``, dict or other non-numeric entry, ragged nesting, a bare number
where an array belongs, field row counts that do not match the grid, and
a frame section that is not a frame of the signature (see
:meth:`NetFile.the_frame`).  A ``null`` never reads as NaN.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import isothermic as iso
from . import lie_sphere as lie
from .errors import FormatError, GeometryError
from .grid import Grid, blocks, check_dims
from .pseudo_euclidean import Frame, Signature
from .reports import Check, Report
from .residuals import rel

FORMAT = "dnet-net/1"
FLOAT_ENCODING = "decimal-shortest-roundtrip"
# Rows per block of an array's text: :meth:`NetFile.save` renders and
# writes one block at a time.
_ROWS = 256
# Lines of text per block that :meth:`NetFile.load` parses with json:
# about _ROWS rows of a (4, 2) lift, 8 lines each.  Blocks pay off only on
# a grid of more vertices than a block has lines: json reads a smaller
# file faster whole.
_LINES = 8 * _ROWS


def write_text(path: str, pieces):
    """Write the strings of the iterable ``pieces`` to ``path`` through
    ``path.tmp.<pid>`` and an atomic rename; on any failure, also one
    raised while ``pieces`` yields, remove the temporary file and
    re-raise."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):      # open may have failed
            os.remove(tmp)
        raise


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
    return tokens[0] if arr.ndim == 0 else _layout(arr.shape, depth, tokens)


def _layout(shape: tuple, depth: int, tokens: list) -> str:
    """The text of a non-empty array of ``shape`` in the file layout,
    nested ``depth`` levels deep, with the strings ``tokens`` as its flat
    entries."""
    nd, size = len(shape), len(tokens)
    pad = ["\n" + " " * (depth + k) for k in range(nd + 1)]

    def sep(j):
        """What follows a value that ends its ``j`` innermost lists."""
        return ("".join(pad[nd - k] + "]" for k in range(1, j + 1)) + ","
                + "".join(pad[nd - k] + "[" for k in range(j, 0, -1)) + pad[nd])

    seps = [sep(0)] * (size - 1)
    block = 1
    for j in range(1, nd):
        block *= shape[nd - j]
        seps[block - 1::block] = [sep(j)] * ((size - 1) // block)
    parts = [""] * (2 * size - 1)
    parts[0::2] = tokens
    parts[1::2] = seps
    head = "[" + "".join(pad[k] + "[" for k in range(1, nd)) + pad[nd]
    tail = "".join(pad[k] + "]" for k in range(nd - 1, -1, -1))
    return head + "".join(parts) + tail


def _has_array(value) -> bool:
    return isinstance(value, np.ndarray) or (
        isinstance(value, dict) and any(map(_has_array, value.values())))


def _array_pieces(arr: np.ndarray, depth: int):
    """The pieces of ``_array_text(arr, depth)``, one block of
    :data:`_ROWS` rows at a time: each block's text less its opening
    ``[`` and closing line, joined by commas."""
    if arr.ndim == 0 or len(arr) <= _ROWS:
        yield _array_text(arr, depth)
        return
    close = "\n" + " " * depth + "]"
    sep = "["
    for start in range(0, len(arr), _ROWS):
        yield sep
        yield _array_text(arr[start:start + _ROWS], depth)[1:-len(close)]
        sep = ","
    yield close


def _document_text(value, depth: int = 0):
    """The pieces of ``_json_text`` of a document whose arrays are
    ndarrays; objects that hold arrays must have string keys."""
    if isinstance(value, np.ndarray):
        yield from _array_pieces(value, depth)
    elif not _has_array(value):
        yield _json_text(value, depth)
    else:
        inner = "\n" + " " * (depth + 1)
        sep = "{" + inner
        for k, v in sorted(value.items()):
            yield f"{sep}{json.dumps(k)}: "
            yield from _document_text(v, depth + 1)
            sep = "," + inner
        yield "\n" + " " * depth + "}"


def _decode_array(value, what: str) -> np.ndarray:
    """A float array from its JSON value (see the module docstring), or
    the array :func:`~dnet.fieldread.fast_document` read; read-only, so
    the nets built from it keep it without a copy (see
    :func:`~dnet.forms.frozen`)."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value
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
    arr.setflags(write=False)
    return arr


def _grid_dims(fh) -> tuple:
    """The ``dims`` of the grid that the binary file ``fh`` opens with in
    the writer's layout, read from its first lines, or () for any other
    file and for an extent below 1."""
    if fh.readline() != b"{\n" or fh.readline() != b' "dims": [\n':
        return ()
    dims = []
    for line in fh:
        if line.startswith(b" ]"):
            break
        dims.append(line.rstrip(b",\n"))
    try:
        dims = tuple(map(int, dims))
    except ValueError:
        return ()
    return dims if all(n >= 1 for n in dims) else ()


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

    def the_frame(self) -> Frame | None:
        """The frame section decoded: None when it is empty, a
        :class:`~dnet.lie_sphere.LieFrame` where it stores ``basis3``, else
        a :class:`Frame`.  Raises :class:`FormatError` unless ``o`` and
        ``q`` are there and the vectors make a frame of the signature."""
        if not self.frame:
            return None
        vectors = {k: self.frame.get(k) for k in ("o", "q", "p", "basis3")}
        if vectors["o"] is None or vectors["q"] is None:
            raise FormatError("frame needs the vectors 'o' and 'q'")
        try:
            if vectors["basis3"] is None:
                return Frame(self.sig(), vectors["o"], vectors["q"], vectors["p"])
            return lie.LieFrame(self.sig(), **vectors)
        except ValueError as err:
            raise FormatError(f"bad frame: {err}") from None

    @staticmethod
    def frame_section(frame: Frame) -> dict:
        """The frame section that :meth:`the_frame` decodes to ``frame``:
        ``o``, ``q`` and, where the frame has them, ``p`` and (a Lie
        frame's) ``basis3``."""
        vectors = {k: getattr(frame, k, None) for k in ("o", "q", "p", "basis3")}
        return {k: v.tolist() for k, v in vectors.items() if v is not None}

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
        write_text(path, itertools.chain(_document_text(doc), ["\n"]))

    @classmethod
    def load(cls, path: str) -> "NetFile":
        doc = None
        with open(path, "rb") as fh:
            big = math.prod(_grid_dims(fh)) > _LINES
        if big:
            # imported here: a process that reads no large file does not
            # compile it
            from .fieldread import fast_document
            doc = fast_document(path)
        if doc is None:
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
        nf.check_format()
        return nf

    @classmethod
    def from_isothermic(cls, net, frame: dict, metadata: dict) -> "NetFile":
        """The file of an isothermic net: its lifts ``mu`` and labels ``m``."""
        g, sig = net.grid, net.signature
        return cls(signature=(sig.p, sig.q), dims=g.dims, stacked=g.stacked, frame=frame,
                   vertex_fields={"mu": net.mu}, edge_fields={"m": net.labels},
                   metadata=metadata)

    def check_format(self):
        """The checks of :meth:`load`: raise :class:`FormatError` unless
        every field has one entry per vertex or edge (a number on an edge,
        a row elsewhere, of the signature's width in the lifts ``mu``,
        ``mu_plus``, ``mu_minus``, ``y``, ``t`` and ``xi`` and of one value
        per bivector coordinate in ``eta``) and the frame section decodes
        (see :meth:`the_frame`)."""
        try:
            dims = check_dims(self.dims, self.stacked)
        except ValueError as err:
            raise FormatError(f"bad dims {list(self.dims)}: {err}") from None
        # the rows of a Grid(dims), counted without building one
        nverts = math.prod(dims)
        nedges = sum(nverts // n * (n - 1) for n in dims)
        d = self.sig().dim
        widths = {**dict.fromkeys(("mu", "mu_plus", "mu_minus", "y", "t", "xi"), d),
                  "eta": d * (d - 1) // 2}
        for label, fields, rows in (("vertex field", self.vertex_fields, nverts),
                                    ("edge field", self.edge_fields, nedges),
                                    ("one-form field", self.form1_fields, nedges)):
            for name, arr in fields.items():
                ndim, width = (1, None) if fields is self.edge_fields else (2, widths.get(name))
                # JSON gives no field without rows a width
                if len(arr) != rows or rows and (arr.ndim != ndim
                                                 or width not in (None, arr.shape[-1])):
                    raise FormatError(f"{label} {name!r} has shape {arr.shape}, expected "
                                      f"{rows} {'rows' if ndim == 2 else 'values'}"
                                      + (f" of {width}" if width else ""))
        self.the_frame()

    def isothermic_net(self):
        """The isothermic net of ``mu``, or None without it."""
        mu = self.vertex_fields.get("mu")
        return None if mu is None else iso.IsothermicNet(self.grid(), self.sig(), mu)

    def omega_net(self):
        """The Omega-net of ``y``, ``t`` and ``eta`` in the Lie frame, spanned
        by ``mu_plus`` and ``mu_minus`` where stored; None without one of
        the four."""
        lf, vf = self.the_frame(), self.vertex_fields
        if not (isinstance(lf, lie.LieFrame) and "eta" in self.form1_fields
                and {"y", "t"} <= vf.keys()):
            return None
        return lie.OmegaNet(self.grid(), lf, vf["y"], vf["t"], self.form1_fields["eta"],
                            mu_plus=vf.get("mu_plus"), mu_minus=vf.get("mu_minus"))

    def principal_net(self):
        """The principal net of ``x`` and ``n``, or None without both or
        outside R^3."""
        vf = self.vertex_fields
        if not {"x", "n"} <= vf.keys() or vf["x"].shape[1] != 3 or vf["n"].shape[1] != 3:
            return None
        return lie.PrincipalNet(self.grid(), vf["x"], vf["n"])


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


# `t` of the flatness checks of the isothermic connection Gamma(t)
FLATNESS_T = (-1.0, 0.3, 2.0)

RESIDUAL, MARGIN = "residual", "margin"

# The checks of `verify` by group, in report order: name, the key of the
# value the group computes, tolerance (a DEFAULT_TOLS key, a fixed value,
# or (factor, key)), kind (a margin must stay above its tolerance) and
# carrier: "quads" or "edges" for a value that is a maximum over them,
# which on a grid without any reads 0, so the check is skipped as "no
# quads" or "no edges" instead of passing.  A value is a number, a
# (number, worst element, note) triple, or text: the reason the check is
# skipped.  A key not computed gives no line.
CHECKS = {
    "isothermic": (
        ("isothermic.nullity", "nullity", "nullity", RESIDUAL, None),
        ("isothermic.moutard", "moutard", "moutard", RESIDUAL, "quads"),
        ("isothermic.label_relations", "label_relations", "label_relations", RESIDUAL,
         "quads"),
        ("isothermic.diagonal_margin", "diagonal_margin", "regularity_margin", MARGIN,
         "quads"),
        *((f"isothermic.flatness(t={t})", f"flatness(t={t})", "flatness", RESIDUAL, "quads")
          for t in FLATNESS_T),
        ("isothermic.stored_labels", "stored_labels", 1e-9, RESIDUAL, "edges"),
    ),
    "omega": (
        ("omega.null_planes", "null_planes", 1e-9, RESIDUAL, None),
        ("omega.normalization", "normalization", 1e-9, RESIDUAL, None),
        ("omega.gauge", "gauge", "gauge", RESIDUAL, None),
        ("omega.eta_closed", "eta_closed", "eta_closed", RESIDUAL, "quads"),
        ("omega.eta_decomposable", "eta_decomposable", "applicability", RESIDUAL, None),
        ("omega.eta_in_lam2_f", "eta_in_lam2_f", "applicability", RESIDUAL, None),
        ("omega.nondegeneracy", "nondegeneracy_margin", "regularity_margin", MARGIN, None),
        ("omega.reconstruction", "reconstruction", "applicability", RESIDUAL, None),
        ("omega.duality", "duality", "duality", RESIDUAL, "quads"),
        ("omega.eisenhart", "pairing", "eisenhart", RESIDUAL, None),
    ),
    "principal": (
        ("principal.unit_normal", "unit_normal", "unit_normal", RESIDUAL, None),
        ("principal.curvature_relation", "curvature_relation", "curvature_relation",
         RESIDUAL, "edges"),
        ("principal.circularity", "circularity", "circularity", RESIDUAL, "quads"),
    ),
    "guichard": (
        ("guichard.associate", "associate", "associate", RESIDUAL, "quads"),
        ("guichard.eisenhart", "eisenhart", "eisenhart", RESIDUAL, None),
        ("guichard.ratio_identity", "ratio_identity", (10, "eisenhart"), RESIDUAL, None),
        ("omega.duality_fields", "duality_fields", "duality", RESIDUAL, "quads"),
    ),
    "special": (
        ("special.orthogonality", "orthogonality", "orthogonality", RESIDUAL, None),
        ("special.coefficients", "coefficients", "coefficients", RESIDUAL, None),
    ),
}


# The vertex and 1-form fields each CHECKS group and transform op reads,
# or copies into an output whose checks read them.  The isothermic group
# is not here: its blocked kernels fold a NaN mu quietly and name a quad.
READS = {
    "omega": ("y", "t", "mu_plus", "mu_minus", "eta"),
    "principal": ("x", "n"),
    "guichard": ("x", "n", "xdual", "ndual"),
    "special": ("mu", "xi"),
    **dict.fromkeys(("darboux", "calapso", "christoffel"), ("mu",)),
    "dual": ("y", "t", "eta"),
    "associates": ("y", "t", "mu_plus", "mu_minus", "eta", "mu", "xi"),
}


def first_non_finite(nf: NetFile, names) -> tuple | None:
    """``(name, where)`` of the first row with a non-finite entry in the
    first of the vertex and 1-form fields ``names`` of ``nf`` that has
    one, None when every one of them in ``nf`` is finite.  ``where``
    locates the row: a vertex of a vertex field, an edge of a 1-form."""
    for name in names:
        for fields, locate in ((nf.vertex_fields, Grid.locate_vertex),
                               (nf.form1_fields, Grid.locate_edge)):
            if name in fields:
                finite = np.isfinite(fields[name])      # an empty field too
                finite = finite.all(axis=tuple(range(1, finite.ndim)))
                if not finite.all():
                    return name, locate(nf.grid(), int(np.argmin(finite)))
    return None


def _failed(nf: NetFile, group: str) -> dict | None:
    """Every check of ``group`` failed at the first non-finite row of its
    fields ``READS[group]``, or None when they are finite: NaN and inf pass
    no test that compares them, and an SVD of them may not return."""
    bad = first_non_finite(nf, READS[group])
    return None if bad is None else {key: (np.nan, bad[1], f"non-finite {bad[0]}")
                                     for _, key, *_ in CHECKS[group]}


def run_checks(nf: NetFile, tols: dict | None = None) -> Report:
    """Run every check of :data:`CHECKS` the file's nets support; list the
    rest as skipped."""
    tols = {**DEFAULT_TOLS, **(tols or {})}
    rep = Report()
    for group, grid, values in _residuals(nf):
        if isinstance(values, str):
            rep.skipped.append((f"{group}.*", values))
            continue
        for name, key, spec, kind, carrier in CHECKS[group]:
            value = values.get(key)
            if value is not None and carrier and not getattr(grid, f"n{carrier}"):
                value = f"no {carrier}"
            if isinstance(value, str):
                rep.skipped.append((name, value))
            elif value is not None:
                residual, worst, note = value if isinstance(value, tuple) else (value, None, "")
                tol = (tols[spec] if isinstance(spec, str)
                       else spec[0] * tols[spec[1]] if isinstance(spec, tuple) else spec)
                margin = kind == MARGIN
                rep.checks.append(Check(
                    name, float(residual), float(tol),
                    bool(residual >= tol if margin else residual <= tol), worst,
                    note or ("margin (must stay above tolerance)" if margin else "")))
    return rep


def _residuals(nf: NetFile):
    """Per group of :data:`CHECKS` in order, the grid of its net and the
    residuals by key, or None and the reason the group is skipped.  The
    associate-net (``guichard``) group needs a principal net and the
    ``special`` group an ``xi`` field; without them the group gives no
    line."""
    net, vf = nf.isothermic_net(), nf.vertex_fields
    if net is None:
        yield "isothermic", None, "no mu field"
    else:
        v = net.validate()
        out = {**v, "moutard": (v["moutard"], v["worst_quad"], "")}
        for t in FLATNESS_T:
            key = f"flatness(t={t})"
            if net.nearest_label(t)[0] < 1e-6:
                out[key] = "t collides with a label"
                continue
            try:
                value, q = iso.connection_flatness(net, t)
            except (GeometryError, ValueError) as err:
                out[key] = (np.inf, None, f"aborted: {err}")
            else:
                out[key] = (value, None if q is None else net.grid.locate_quad(q), "")
        stored = nf.edge_fields.get("m")
        if stored is not None:
            # one block of edges at a time, folded with np.maximum so NaN propagates
            worst_label = 0.0
            for e in blocks(len(stored)):
                m, labels = stored[e], net.labels[e]
                both_inf = np.isinf(m) & np.isinf(labels)
                # subtract only where defined: inf - inf would warn
                num = np.abs(np.subtract(m, labels, out=np.zeros(labels.shape), where=~both_inf))
                worst_label = np.maximum(worst_label, rel(num, np.where(both_inf, 1.0, np.abs(m)))
                                         .max(initial=0.0))
            out["stored_labels"] = float(worst_label)
        yield "isothermic", net.grid, out
    omega, labels = nf.omega_net(), None
    if omega is None or omega.mu_plus is None or omega.mu_minus is None:
        yield "omega", None, ("incomplete omega fields or frame" if "mu_plus" in vf
                              else "no congruence fields")
    elif not omega.grid.nedges:
        yield "omega", None, "no edges"
    elif (failed := _failed(nf, "omega")) is not None:
        yield "omega", omega.grid, failed
    else:
        v = omega.validate()
        a = lie.associates(omega)
        labels = lie.omega_edge_labels(omega)
        pairing = lie.eisenhart_general(omega.principal(), a.x_dual, a.n_dual, labels)
        yield "omega", omega.grid, {**v, **v["applicability"], **pairing,
                                    "reconstruction": a.reconstruction, "duality": a.duality}
    pn = nf.principal_net()
    if pn is None:
        yield "principal", None, "no x, n fields"
    else:
        yield "principal", pn.grid, _failed(nf, "principal") or pn.validate()
        if "xdual" not in vf:
            yield "guichard", None, "no xdual field"
        elif (failed := _failed(nf, "guichard")) is not None:
            yield "guichard", pn.grid, failed
        elif "ndual" in vf:
            yield "guichard", pn.grid, {"duality_fields": lie.check_omega(
                pn, vf["xdual"], vf["ndual"])["duality"]}
        else:
            # an associate net without a separate associate Gauss map is
            # the Guichard case (the Gauss map itself is the partner)
            yield "guichard", pn.grid, {**lie.check_guichard(pn, vf["xdual"]), **(
                {} if labels is None else lie.eisenhart_guichard(pn, vf["xdual"], labels))}
    if "xi" in vf:
        lf = nf.the_frame()
        if net is None or not isinstance(lf, lie.LieFrame):
            yield "special", None, "xi present but mu or frame missing"
        elif (failed := _failed(nf, "special")) is not None:
            yield "special", net.grid, failed
        else:
            orth, dev = lie.special_residuals(lf, net.mu, vf["xi"])
            yield "special", net.grid, {"orthogonality": float(orth.max(initial=0.0)),
                                        "coefficients": float(dev.max(initial=0.0))}
