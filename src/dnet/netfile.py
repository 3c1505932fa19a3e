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
failed write.  A block's rows are one ``%`` template of a row's shape
(the layout above, ``%s`` in place of each entry) filled with each row's
floats.

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


def _nest(items, depth: int) -> str:
    """The texts ``items`` (at least one) as a list in the file layout, ``depth`` deep."""
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def _template(shape: tuple, depth: int) -> str:
    """``_json_text`` of a nested list of ``shape``, ``depth`` deep, ``%s`` for each entry."""
    if not shape:
        return "%s"
    return _nest([_template(shape[1:], depth + 1)] * shape[0], depth) if shape[0] else "[]"


def _array_text(arr: np.ndarray, depth: int) -> str:
    """``_json_text`` of the nested lists of ``arr``, non-finite values as strings: a row's
    template filled with each row's floats (a whole-block ``%`` raised the peak RSS)."""
    flat = arr.ravel()
    values = flat.tolist()
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        values[i] = f'"{values[i]!r}"'          # "inf", "-inf", "nan"
    if arr.ndim == 0 or not arr.size:
        return _template(arr.shape, depth) % tuple(values)
    rows = zip(*[iter(values)] * (arr.size // len(arr)))      # the rows as tuples
    return _nest(map(_template(arr.shape[1:], depth + 1).__mod__, rows), depth)


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


def _flatness(net, t: float):
    """The flatness of Gamma(t) at its worst quad, or why it is skipped."""
    if net.nearest_label(t)[0] < 1e-6:
        return "t collides with a label"
    try:
        value, q = iso.connection_flatness(net, t)
    except (GeometryError, ValueError) as err:
        return np.inf, None, f"aborted: {err}"
    return value, None if q is None else net.grid.locate_quad(q), ""


def _stored_labels(nf: NetFile, net):
    """The largest relative gap of the stored labels ``m`` to those of
    ``mu``, or None without ``m``."""
    stored = nf.edge_fields.get("m")
    if stored is None:
        return None
    # one block of edges at a time, folded with np.maximum so NaN propagates
    worst_label = 0.0
    for e in blocks(len(stored)):
        m, labels = stored[e], net.labels[e]
        both_inf = np.isinf(m) & np.isinf(labels)
        # subtract only where defined: inf - inf would warn
        num = np.abs(np.subtract(m, labels, out=np.zeros(labels.shape), where=~both_inf))
        worst_label = np.maximum(worst_label, rel(num, np.where(both_inf, 1.0, np.abs(m)))
                                 .max(initial=0.0))
    return float(worst_label)


# The intermediates that the rows of `verify` read, each built at most once per
# file, on first use: what it reads (intermediates above it, fields whose rows
# first_non_finite checks) and its value: a number, a (number, worst element,
# note) triple, the reason a row is skipped, None for no line, or a dict of
# these by the last part of the row names.  The isothermic net reads no field:
# its kernels fold a NaN or huge mu quietly.  Calls go through their modules,
# which tracers wrap.
STEPS = {
    "net": ((), lambda nf: nf.isothermic_net()),
    "isothermic": (("net",), lambda nf, net: {
        **(v := net.validate()), "moutard": (v["moutard"], v["worst_quad"], "")}),
    **{f"flatness(t={t})": (("net",), lambda nf, net, t=t: _flatness(net, t))
       for t in FLATNESS_T},
    "stored_labels": (("net",), _stored_labels),
    "omega": (("y", "t", "mu_plus", "mu_minus", "eta"), lambda nf, *_: nf.omega_net()),
    "frame": (("omega",), lambda nf, om: om.frame_residuals()),
    "congruence": (("omega",), lambda nf, om: {
        **(c := om.congruence().validate()), "nondegeneracy": c["nondegeneracy_margin"]}),
    "associates": (("omega",), lambda nf, om: vars(lie.associates(om))),
    "labels": (("omega",), lambda nf, om: lie.omega_edge_labels(om)),
    "pairing": (("omega", "associates", "labels"), lambda nf, om, a, labels: lie.eisenhart_general(
        om.principal(), a["x_dual"], a["n_dual"], labels)["pairing"]),
    "principal_net": (("x", "n"), lambda nf, x, n: lie.PrincipalNet(nf.grid(), x, n)),
    "principal": (("principal_net",), lambda nf, pn: pn.validate()),
    "guichard": (("principal_net", "xdual"), lambda nf, pn, xd: lie.check_guichard(pn, xd)),
    "eisenhart_guichard": (("principal_net", "xdual", "labels"),
                           lambda nf, pn, xd, labels: lie.eisenhart_guichard(pn, xd, labels)),
    "duality_fields": (("principal_net", "xdual", "ndual"),
                       lambda nf, pn, xd, nd: lie.check_omega(pn, xd, nd)["duality"]),
    "special": (("mu", "xi"), lambda nf, mu, xi: dict(zip(
        ("orthogonality", "coefficients"),
        (float(r.max(initial=0.0)) for r in lie.special_residuals(nf.the_frame(), mu, xi))))),
}

# The rows of `verify` by gate (see _gates), in report order: name, tolerance
# (a DEFAULT_TOLS key, a fixed value, or (factor, key)), kind (a margin must
# stay above its tolerance), carrier and the intermediate it reads.  The
# carrier "quads" or "edges" marks a maximum over them, which reads 0 on a
# grid without any: such a row is skipped as "no quads" or "no edges".
CHECKS = {
    "isothermic": (
        ("isothermic.nullity", "nullity", RESIDUAL, None, "isothermic"),
        ("isothermic.moutard", "moutard", RESIDUAL, "quads", "isothermic"),
        ("isothermic.label_relations", "label_relations", RESIDUAL, "quads", "isothermic"),
        ("isothermic.diagonal_margin", "regularity_margin", MARGIN, "quads", "isothermic"),
        *((f"isothermic.flatness(t={t})", "flatness", RESIDUAL, "quads", f"flatness(t={t})")
          for t in FLATNESS_T),
        ("isothermic.stored_labels", 1e-9, RESIDUAL, "edges", "stored_labels"),
    ),
    "omega": (
        ("omega.null_planes", 1e-9, RESIDUAL, None, "frame"),
        ("omega.normalization", 1e-9, RESIDUAL, None, "frame"),
        ("omega.gauge", "gauge", RESIDUAL, None, "frame"),
        ("omega.eta_closed", "eta_closed", RESIDUAL, "quads", "congruence"),
        ("omega.eta_decomposable", "applicability", RESIDUAL, None, "congruence"),
        ("omega.eta_in_lam2_f", "applicability", RESIDUAL, None, "congruence"),
        ("omega.nondegeneracy", "regularity_margin", MARGIN, None, "congruence"),
        ("omega.reconstruction", "applicability", RESIDUAL, None, "associates"),
        ("omega.duality", "duality", RESIDUAL, "quads", "associates"),
        ("omega.eisenhart", "eisenhart", RESIDUAL, None, "pairing"),
    ),
    "principal": (
        ("principal.unit_normal", "unit_normal", RESIDUAL, None, "principal"),
        ("principal.curvature_relation", "curvature_relation", RESIDUAL, "edges", "principal"),
        ("principal.circularity", "circularity", RESIDUAL, "quads", "principal"),
    ),
    "guichard": (("guichard.associate", "associate", RESIDUAL, "quads", "guichard"),),
    "guichard_labels": (
        ("guichard.eisenhart", "eisenhart", RESIDUAL, None, "eisenhart_guichard"),
        ("guichard.ratio_identity", (10, "eisenhart"), RESIDUAL, None, "eisenhart_guichard"),
    ),
    "associate_pair": (("omega.duality_fields", "duality", RESIDUAL, "quads", "duality_fields"),),
    "special": (
        ("special.orthogonality", "orthogonality", RESIDUAL, None, "special"),
        ("special.coefficients", "coefficients", RESIDUAL, None, "special"),
    ),
}


def _gates(nf: NetFile) -> dict:
    """Per gate of :data:`CHECKS`, from the fields and frame the file
    holds: "" to run its rows, the reason they are skipped, or None for no
    line.  An associate net without a separate associate Gauss map
    ``ndual`` is the Guichard case: the Gauss map itself is the partner."""
    vf, lf = nf.vertex_fields, nf.the_frame()
    omega = ("no congruence fields" if "mu_plus" not in vf
             else "incomplete omega fields or frame"
             if not ({"y", "t", "mu_minus"} <= vf.keys() and "eta" in nf.form1_fields
                     and isinstance(lf, lie.LieFrame))
             else "" if nf.grid().nedges else "no edges")
    principal = {"x", "n"} <= vf.keys() and vf["x"].shape[1] == vf["n"].shape[1] == 3
    guichard = None if not principal else "" if "xdual" in vf else "no xdual field"
    pair = guichard == "" and "ndual" in vf
    return {"isothermic": "" if "mu" in vf else "no mu field",
            "omega": omega,
            "principal": "" if principal else "no x, n fields",
            "guichard": None if pair else guichard,
            "guichard_labels": "" if guichard == omega == "" and not pair else None,
            "associate_pair": "" if pair else None,
            "special": None if "xi" not in vf else "" if "mu" in vf and isinstance(
                lf, lie.LieFrame) else "xi present but mu or frame missing"}


def _reads(name: str) -> tuple:
    """The fields that the intermediate ``name`` reads, also through the
    intermediates it reads; a field reads itself."""
    return sum(map(_reads, STEPS[name][0]), ()) if name in STEPS else (name,)


# The fields each row of `verify` reads, derived from STEPS for the tests and
# the README's table (run_checks walks STEPS itself), and those each
# transform op reads, or copies into an output whose checks read them.
READS = {
    **{name: tuple(dict.fromkeys(_reads(step))) for rows in CHECKS.values()
       for name, *_, step in rows},
    **dict.fromkeys(("darboux", "calapso", "christoffel"), ("mu",)),
    "dual": ("y", "t", "eta"),
    "associates": ("y", "t", "mu_plus", "mu_minus", "eta", "mu", "xi"),
}


def first_non_finite(nf: NetFile, names) -> tuple | None:
    """``(name, where, what)`` of the first bad row in the first of the
    vertex and 1-form fields ``names`` of ``nf`` that has one, None when no
    field of them in ``nf`` has one.  A row is bad when its squared norm is
    not finite (the form of the ``4 rho^2`` rule of ``gen weingarten``):
    ``what`` is "non-finite" for a NaN or inf entry, "overflowing" for
    finite entries.  ``where`` locates the row: a vertex of a vertex field,
    an edge of a 1-form."""
    for name in names:
        for fields, locate in ((nf.vertex_fields, Grid.locate_vertex),
                               (nf.form1_fields, Grid.locate_edge)):
            if name in fields:
                with np.errstate(over="ignore"):
                    sq = np.square(fields[name])        # an empty field too
                    finite = np.isfinite(sq.sum(axis=tuple(range(1, sq.ndim))))
                if not finite.all():
                    i = int(np.argmin(finite))
                    return name, locate(nf.grid(), i), (
                        "overflowing" if np.isfinite(fields[name][i]).all() else "non-finite")
    return None


class _Failed(Exception):
    """An intermediate failed: its args are the element and its readers' note."""


def run_checks(nf: NetFile, tols: dict | None = None) -> Report:
    """Run the rows of :data:`CHECKS` whose gate the file opens; list the
    rest as skipped.  An intermediate of :data:`STEPS` that raises a
    :class:`GeometryError`, or reads a field with a bad row (see
    :func:`first_non_finite`), fails the rows that read it, also through
    another: NaN at the error's element or that row, noted ``aborted:
    <message>`` or ``non-finite <field>`` (``overflowing <field>``)."""
    tols = {**DEFAULT_TOLS, **(tols or {})}
    rep, grid, gates, built = Report(), nf.grid(), _gates(nf), {}

    def get(name):
        """The intermediate or field ``name``; raises :class:`_Failed` each time."""
        if name not in built:
            try:
                if name in STEPS:
                    built[name] = STEPS[name][1](nf, *map(get, STEPS[name][0]))
                elif (bad := first_non_finite(nf, (name,))) is not None:
                    built[name] = _Failed(bad[1], f"{bad[2]} {name}")
                else:
                    built[name] = nf.vertex_fields.get(name, nf.form1_fields.get(name))
            except GeometryError as err:
                built[name] = _Failed(err.where, f"aborted: {err}")
        if isinstance(built[name], _Failed):
            raise built[name]
        return built[name]

    for gate, rows in CHECKS.items():
        if gates[gate]:
            rep.skipped.append((f"{gate}.*", gates[gate]))
        if gates[gate] != "":
            continue
        for name, spec, kind, carrier, step in rows:
            try:
                value = get(step)
            except _Failed as err:
                value = (np.nan, *err.args)
            if isinstance(value, dict):
                value = value[name.split(".", 1)[1]]
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
