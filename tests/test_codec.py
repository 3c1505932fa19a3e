"""The array codec and the grid's slot table against their per-element
references, and the Omega-net edge labels against the trace identity."""

import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnet import fieldread, koenigs
from dnet import lie_sphere as lie
from dnet.cli import main
from dnet.errors import DegeneracyError, FormatError
from dnet.forms import unpack_bivector, wedge_vec
from dnet.grid import Grid
from dnet.isothermic import christoffel_dual, random_isothermic
from dnet.netfile import _LINES, _ROWS, NetFile, _array_text, _decode_array
from dnet.pseudo_euclidean import Frame, Signature
from tests import netfile_reference as ref


def run(*argv):
    return main([str(a) for a in argv])


# -- codec bytes -----------------------------------------------------------

GEN_CASES = [
    ("isothermic", "5x5", 3, []),
    ("darboux-pair", "4x4", 1, ["--param", "m=inf"]),
    ("darboux-pair", "4x4", 2, ["--param", "m=0.5"]),
    ("omega", "5x5", 3, []),
    ("guichard", "5x5", 1, []),
    ("minimal", "5x5", 1, []),
    ("weingarten", "5x5", 1, []),
]
TRANSFORM_CASES = [
    ("isothermic", ["darboux", "--m", "0.5"]),
    ("isothermic", ["darboux", "--m", "inf"]),
    ("isothermic", ["calapso", "--t", "0.4"]),
    ("isothermic", ["christoffel"]),
    ("omega", ["dual"]),
    ("omega", ["associates", "--c", "0.7"]),
]


def _assert_saved_as_before(path):
    assert path.read_text(encoding="utf-8") == ref.file_text(NetFile.load(str(path)))


@pytest.mark.parametrize("kind, dims, seed, extra", GEN_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in GEN_CASES])
def test_gen_files_match_reference_encoder(tmp_path, kind, dims, seed, extra):
    path = tmp_path / "net.json"
    assert run("gen", kind, "--dims", dims, "--seed", seed, *extra, "-o", path) == 0
    _assert_saved_as_before(path)


def test_edgeless_omega_file_matches_reference_encoder(tmp_path, edgeless_omega):
    # no edges: eta is stored as [], which carries no width
    path = tmp_path / "net.json"
    edgeless_omega.save(str(path))
    assert '"eta": []' in path.read_text()
    _assert_saved_as_before(path)


@pytest.mark.parametrize("source, op", TRANSFORM_CASES,
                         ids=[" ".join(c[1]) for c in TRANSFORM_CASES])
def test_transform_files_match_reference_encoder(tmp_path, source, op):
    src, dst = tmp_path / "src.json", tmp_path / "dst.json"
    assert run("gen", source, "--dims", "5x5", "--seed", 3, "-o", src) == 0
    assert run("transform", op[0], "-i", src, *op[1:], "-o", dst) == 0
    _assert_saved_as_before(dst)


def _frame(p=True):
    fr = Signature(2, 1).standard_frame()
    out = {"o": fr.o.tolist(), "q": fr.q.tolist()}
    out["p"] = [0.0, 1.0, 0.0] if p else None
    return out


SPECIAL = np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-324, -1.5e300],
                    [1.0, 0.1, -7.0], [2.0 / 3.0, 1e16, 123456789.0]])
MEMORY_CASES = {
    "signed-zero-nan-inf": dict(vertex_fields={"mu": SPECIAL}),
    "integer-and-3d": dict(vertex_fields={"k": np.arange(12).reshape(4, 3),
                                          "cube": np.ones((4, 2, 3)) / 3.0,
                                          "col": np.full((4, 1), -0.0)}),
    "empty-fields": dict(vertex_fields={"none": np.zeros((4, 0)),
                                        "rows": np.zeros((0, 3))},
                         edge_fields={"m": np.zeros(0)}),
    "no-fields-no-frame": dict(frame={}),
    "frame-p-none": dict(frame=_frame(p=False)),
    "frame-scalar-none": dict(frame={"o": None, "q": [0.0, 0.0, 1.0]}),
    "unicode-nested-metadata": dict(metadata={
        "name": "Ω-net ✓", "é": None, "nested": {"b": {"c": [1, 2.5, "x"]},
                                                  "a": True, "list": []},
        "tabs\tand\nnewlines": "q\"uote", "nan": float("nan")}),
    "stacked-inf-labels": dict(dims=(2, 2), stacked=True,
                               edge_fields={"m": np.array([np.inf, -np.inf, 0.5, 2.0])}),
}


def _on_seams(arr):
    """``arr`` with -0.0, NaN and +-inf in the rows on either side of
    each seam between blocks of ``_ROWS`` rows."""
    flat = arr.reshape(len(arr), -1)
    for seam in range(_ROWS, len(arr), _ROWS):
        flat[seam - 1, 0], flat[seam - 1, -1] = -0.0, np.inf
        flat[seam, 0], flat[seam, -1] = np.nan, -np.inf
    return arr


# more rows than one block, and a row count that is not a multiple of it
_LONG = 2 * _ROWS + 37
_RNG = np.random.default_rng(5)
MEMORY_CASES.update({
    "rows-past-one-block-2d": dict(vertex_fields={"mu": _RNG.standard_normal((_LONG, 3))}),
    "rows-past-one-block-3d": dict(vertex_fields={"cube": _RNG.standard_normal((_LONG, 2, 3))}),
    "non-finite-on-seams": dict(
        vertex_fields={"mu": _on_seams(_RNG.standard_normal((_LONG, 3))),
                       "cube": _on_seams(_RNG.standard_normal((_LONG, 2, 3)))},
        edge_fields={"m": _on_seams(_RNG.standard_normal(_LONG))},
        form1_fields={"eta": _on_seams(_RNG.standard_normal((_ROWS + 1, 3)))}),
})


@pytest.mark.parametrize("case", sorted(MEMORY_CASES))
def test_save_matches_reference_encoder(tmp_path, case):
    kwargs = {"dims": (2, 2), "frame": _frame(),
              "vertex_fields": {"mu": SPECIAL[:, ::-1]},
              "edge_fields": {"m": np.array([0.5, -2.0, np.inf, 1e-9])},
              "metadata": {"generator": "test", "seed": 1}}
    kwargs.update(MEMORY_CASES[case])
    nf = NetFile(signature=(2, 1), **kwargs)
    path = tmp_path / "net.json"
    nf.save(str(path))
    assert path.read_bytes() == ref.file_text(nf).encode("utf-8")


def test_save_that_fails_while_rendering_keeps_the_old_file(tmp_path):
    # the metadata section is rendered after the fields, so the temporary
    # file already holds several blocks of rows when it raises
    path = tmp_path / "net.json"
    path.write_text("old\n")
    nf = NetFile(signature=(2, 1), dims=(2, 2),
                 vertex_fields={"mu": _RNG.standard_normal((_LONG, 3))},
                 metadata={"bad": object()})
    with pytest.raises(TypeError):
        nf.save(str(path))
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["net.json"]


# -- decoder ---------------------------------------------------------------

DECODER_TABLE = [
    None, [None], [1.0, None], [[1.0, 2.0], [None, 3.0]], [[None]],
    [True, False], [[True, 2.5]],
    ["1.5", "-2e-3", " 4 ", "1_000"], ["inf", "-inf", "nan", "NaN", "-nan"],
    ["Infinity", "-Infinity", "infinity"], ["abc"], ["0x10"], [""],
    [[1.0], [1.0, 2.0]], [1.0, [2.0]], [[[1.0, 2.0]], [[3.0]]],
    [{}], [{"a": 1.0}], {"a": 1.0}, [[1.0, {}]],
    [], [[]], [[], []], [[[]]],
    [1, 2, 3], [[0.0, -0.0]], [float("nan"), float("inf")], [1e400], [10 ** 400],
]


@pytest.mark.parametrize("value", DECODER_TABLE, ids=[repr(v) for v in DECODER_TABLE])
def test_decoder_matches_reference_or_rejects(value):
    try:
        expected = ref.decode_array(value)
    except (TypeError, ValueError, OverflowError):
        with pytest.raises(FormatError):
            _decode_array(value, "field")
        return
    got = _decode_array(value, "field")
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("value", [5, 2.5, "nan", True])
def test_decoder_rejects_bare_numbers(value):
    # the reference decodes these to 0-d arrays, on which load crashed
    assert ref.decode_array(value).ndim == 0
    with pytest.raises(FormatError):
        _decode_array(value, "field")


def _doc(tmp_path):
    src = tmp_path / "net.json"
    assert run("gen", "isothermic", "--dims", "4x4", "--seed", 5, "-o", src) == 0
    return json.loads(src.read_text())


def _breakages():
    """Each maps a good document to a bad one."""
    def drop(key):
        return lambda doc: {k: v for k, v in doc.items() if k != key}

    def put(path, value):
        def f(doc):
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            return doc
        return f

    def pop_mu_row_entry(doc):
        doc["fields"]["vertex"]["mu"][2].pop()
        return doc

    def rows(kind, name, width):
        """Add (or replace) a field with rows of ``width`` zeros, or 1-D."""
        def f(doc):
            fields = doc["fields"]
            n = len(fields["vertex"]["mu"] if kind == "vertex" else fields["edge"]["m"])
            fields[kind][name] = [0.0] * n if width is None else [[0.0] * width] * n
            return doc
        return f

    def m_column(doc):
        doc["fields"]["edge"]["m"] = [[v] for v in doc["fields"]["edge"]["m"]]
        return doc

    def drop_q(doc):
        del doc["frame"]["q"]
        return doc
    mu = ("fields", "vertex", "mu", 3, 1)
    e = np.eye(6).tolist()
    return {
        "no-signature": drop("signature"),
        "no-dims": drop("dims"),
        "null-entry": put(mu, None),
        "dict-entry": put(mu, {"x": 1}),
        "text-entry": put(mu, "abc"),
        "ragged": pop_mu_row_entry,
        "null-label": put(("fields", "edge", "m", 0), None),
        "null-frame": put(("frame", "o", 0), None),
        "scalar-field": put(("fields", "edge", "m"), 1.0),
        "fields-list": put(("fields",), []),
        "vertex-list": put(("fields", "vertex"), [1.0]),
        "signature-text": put(("signature",), "4,2"),
        "signature-short": put(("signature",), [4]),
        "dims-zero": put(("dims",), [0, 4]),
        "dims-float": put(("dims",), [4.0, 4.0]),
        "metadata-list": put(("metadata",), []),
        "document-list": lambda doc: [doc],
        # widths: the lifts have the signature's, eta d(d-1)/2 entries
        "mu-rows-of-5": rows("vertex", "mu", 5),
        "t-rows-of-5": rows("vertex", "t", 5),
        "xi-rows-of-7": rows("vertex", "xi", 7),
        "eta-rows-of-10": rows("form1", "eta", 10),
        "x-one-number-per-vertex": rows("vertex", "x", None),
        "m-as-column": m_column,
        # the frame section must make a frame of the signature, with a Lie
        # basis where it stores basis3
        "frame-no-q": drop_q,
        "frame-o-not-null": put(("frame", "o"), e[3]),
        "frame-o-of-5": put(("frame", "o"), [0.0, 0.0, 0.0, 0.5, 0.5]),
        "frame-basis3-not-orthonormal": put(("frame", "basis3"), [e[0], e[0], e[2]]),
        "frame-basis3-of-2-rows": put(("frame", "basis3"), e[:2]),
    }


@pytest.mark.parametrize("name", sorted(_breakages()))
def test_bad_files_exit_2_with_one_line(tmp_path, capsys, name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_breakages()[name](_doc(tmp_path))))
    with pytest.raises(FormatError):
        NetFile.load(str(bad))
    capsys.readouterr()
    assert run("verify", "-i", bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["{", "", "{\"format\": \"dnet-net/1\",}", "\xff"])
def test_malformed_json_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text.encode("latin-1"))
    capsys.readouterr()
    assert run("verify", "-i", bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


def test_guichard_file_frame_is_a_lie_frame(tmp_path):
    path = tmp_path / "g.json"
    assert run("gen", "guichard", "--dims", "5x5", "--seed", 1, "-o", path) == 0
    nf = NetFile.load(str(path))
    lf = nf.the_frame()
    assert isinstance(lf, lie.LieFrame)
    assert NetFile.frame_section(lf) == {k: v.tolist() for k, v in nf.frame.items()}
    # the Christoffel dual in it is the one in the plain frame, bit for bit
    net = nf.isothermic_net()
    got = christoffel_dual(net, lf)
    want = christoffel_dual(net, Frame(lf.signature, lf.o, lf.q, lf.p))
    assert np.array_equal(got.x, want.x) and np.array_equal(got.x_dual, want.x_dual)
    # so does `transform christoffel` of the file without basis3; both
    # copies drop the form eta, as christoffel of an Omega-net file exits 2
    lie_net, plain = tmp_path / "lie.json", tmp_path / "plain.json"
    doc = json.loads(path.read_text())
    del doc["fields"]["form1"]["eta"]
    lie_net.write_text(json.dumps(doc))
    del doc["frame"]["basis3"]
    plain.write_text(json.dumps(doc))
    assert type(NetFile.load(str(plain)).the_frame()) is Frame
    outs = [tmp_path / "lie_out.json", tmp_path / "plain_out.json"]
    for src, out in zip((lie_net, plain), outs):
        assert run("transform", "christoffel", "-i", src, "-o", out) == 0
    fields = [NetFile.load(str(out)).vertex_fields for out in outs]
    for name in ("x", "xdual"):
        assert fields[0][name].tobytes() == fields[1][name].tobytes()


def test_nan_string_still_loads_as_nan(tmp_path):
    doc = _doc(tmp_path)
    doc["fields"]["vertex"]["mu"][3][1] = "nan"
    doc["fields"]["edge"]["m"][0] = "-inf"
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    nf = NetFile.load(str(path))
    assert np.isnan(nf.vertex_fields["mu"][3, 1])
    assert np.isnan(nf.vertex_fields["mu"]).sum() == 1
    assert nf.edge_fields["m"][0] == -np.inf


# -- block reader of the fields -------------------------------------------

# more vertices than a block has lines: load reads the fields of such a
# file in the writer's layout one block of rows at a time
BIG = Grid((46, 46))
assert BIG.nverts > _LINES
_RNG_BIG = np.random.default_rng(3)
BIG_FIELDS = {"mu": _RNG_BIG.standard_normal((BIG.nverts, 3)),
              "m": _RNG_BIG.standard_normal(BIG.nedges)}


def _blocks(data: bytes, start: int) -> list:
    """The blocks of rows the reader cuts from the array whose ``[`` is
    ``data[start]``."""
    return list(fieldread._blocks(io.BytesIO(data[start + 1:]),
                                  bytearray(1 + fieldread._WINDOW)))


def _first_block_rows(arr) -> int:
    """The rows of the first block the reader cuts from ``arr`` written as
    a field of a net file."""
    return len(_blocks(_array_text(arr, 3).encode(), 0)[0])


# rows of three numbers and of one number in the first block
MU_ROWS, M_ROWS = map(_first_block_rows, BIG_FIELDS.values())


def _json_load(path) -> NetFile:
    """``NetFile.load`` with json reading the whole document."""
    with mock.patch.object(fieldread, "fast_document", lambda path: None):
        return NetFile.load(str(path))


def _outcome(load, path):
    """What ``load(path)`` gives: every array as its shape and bytes, with
    the rest of the file, or the text of the FormatError it raises."""
    try:
        nf = load(path)
    except FormatError as err:
        return str(err)
    arrays = {(kind, name): (arr.shape, arr.tobytes())
              for kind, fields in (("vertex", nf.vertex_fields), ("edge", nf.edge_fields),
                                   ("form1", nf.form1_fields), ("frame", nf.frame))
              for name, arr in fields.items() if arr is not None}
    return arrays, nf.signature, nf.dims, nf.stacked, nf.metadata


def _assert_loads_as_json(path):
    assert _outcome(lambda p: NetFile.load(str(p)), path) == _outcome(_json_load, path)


# the values, each unique in the text, of the first and last entries of
# the arrays and of each side of the seam between their first two blocks
SEAMS = {(name, *at): float(BIG_FIELDS[name][tuple(at)])
         for name, *at in (("mu", 0, 0), ("mu", MU_ROWS - 1, 2), ("mu", MU_ROWS, 0),
                           ("mu", BIG.nverts - 1, 2), ("m", 0), ("m", M_ROWS - 1),
                           ("m", M_ROWS), ("m", BIG.nedges - 1))}


def _big_text(tmp_path, **vertex_fields) -> str:
    """The text of a file in the writer's layout over ``BIG``, with the
    ``mu`` and ``m`` fields of ``BIG_FIELDS``."""
    path = tmp_path / "writer.json"
    NetFile(signature=(2, 1), dims=BIG.dims, frame=_frame(),
            vertex_fields={"mu": BIG_FIELDS["mu"], **vertex_fields},
            edge_fields={"m": BIG_FIELDS["m"]}, metadata={"seed": 3}).save(str(path))
    return path.read_text()


@pytest.mark.parametrize("value", DECODER_TABLE, ids=[repr(v) for v in DECODER_TABLE])
def test_decoder_table_in_the_writer_layout_loads_as_json(tmp_path, value):
    text = _big_text(tmp_path, k=np.zeros(1))
    old = '"k": [\n    0.0\n   ]'
    new = '"k": ' + json.dumps(value, sort_keys=True, separators=(",", ": "),
                               indent=1).replace("\n", "\n   ")
    assert text.count(old) == 1
    path = tmp_path / "net.json"
    path.write_text(text.replace(old, new))
    _assert_loads_as_json(path)


# entries the writer writes, which the block reader must read ...
WRITER_ENTRIES = ["5e-324", "-5e-324", "-0.0", "0.0", "1e+16", "-2.5e-05", "1e400", "-1e400",
                  '"inf"', '"-inf"', '"nan"']
# ... and entries it does not write, which must load as json reads them:
# numbers json reads (the integer -0 as 0), entries json does not read
# and other text
OTHER_ENTRIES = ["1", "0", "-0", "-1", "1e5", "1E5", "-0e0", "1.000000000000000000001",
                 "123456789012345678901234", "1" * 400,
                 "null", "true", "NaN", "1_000", "+1", ".5", "-.5", "1.", "1.e5", "01", "-01",
                 "00.5", "1e", "1e+", "", "-", "--1", "1-2", "1.5.5", "0x10", "inf", "nan",
                 '"1.5"', '"-nan"', '"Infinity"', '"inf', "[1.0]", "1.0 2.0"]


@pytest.mark.parametrize("entry", WRITER_ENTRIES + OTHER_ENTRIES)
def test_entries_load_as_json(tmp_path, entry):
    text = _big_text(tmp_path)
    path = tmp_path / "net.json"
    for value in SEAMS.values():
        assert text.count(repr(value)) == 1
        path.write_text(text.replace(repr(value), entry))
        _assert_loads_as_json(path)
        if entry in WRITER_ENTRIES:
            assert fieldread.fast_document(str(path)) is not None


def _squeezed(text: str) -> str:
    return "".join(text.split())


# edits of the layout around entries, rows and the seam between blocks:
# json reads an edit of whitespace alone, block by block or whole, and no
# other edit
LAYOUT_EDITS = [("\n    ],\n    [", "\n    },\n    ["), ("\n    ],\n    [", "\n    [,\n    ]"),
                ("\n    ],\n    [", "\n    ]\n    ["), ("\n    ],\n    [", "\n    ],,\n    ["),
                ("\n    ],\n    [", "\n    ], \n    ["), ("\n    ],\n    [", "\n\t],\n    ["),
                ("\n    ],\n    [", "\n    ],\r\n    ["), (",\n     ", "\n     "),
                (",\n     ", ",\n      "), (",\n     ", ",\n\n     ")]


@pytest.mark.parametrize("old, new", LAYOUT_EDITS, ids=[repr(e[1]) for e in LAYOUT_EDITS])
def test_layout_edits_load_as_json(tmp_path, old, new):
    text = _big_text(tmp_path)
    path = tmp_path / "net.json"
    mu = text.index('"mu": [')
    for at in (mu, text.index(repr(SEAMS["mu", MU_ROWS - 1, 2]))):    # first rows, the seam
        path.write_text(text[:at] + text[at:].replace(old, new, 1))
        _assert_loads_as_json(path)
        assert (fieldread.fast_document(str(path)) is None) == (_squeezed(old) != _squeezed(new))


@pytest.mark.parametrize("new", ["\n    ", ",,\n    ", ", \n    ", ",\n     "])
def test_seam_edits_of_one_number_rows_load_as_json(tmp_path, new):
    text = _big_text(tmp_path)
    at = text.index(repr(SEAMS["m", M_ROWS - 1]))
    path = tmp_path / "net.json"
    path.write_text(text[:at] + text[at:].replace(",\n    ", new, 1))
    _assert_loads_as_json(path)
    assert (fieldread.fast_document(str(path)) is None) == (_squeezed(new) != ",")


def test_the_first_blocks_end_at_the_seams(tmp_path):
    # the values of SEAMS stand on both sides of the reader's first cuts
    data = _big_text(tmp_path).encode()
    mu = _blocks(data, data.index(b'"mu": [') + 6)
    m = _blocks(data, data.index(b'"m": [') + 5)
    assert len(mu[0]) == MU_ROWS and len(m[0]) == M_ROWS
    assert (mu[0][-1, 2], mu[1][0, 0]) == (SEAMS["mu", MU_ROWS - 1, 2], SEAMS["mu", MU_ROWS, 0])
    assert (m[0][-1], m[1][0]) == (SEAMS["m", M_ROWS - 1], SEAMS["m", M_ROWS])


# whitespace that json skips, inside the arrays of the fields section:
# every entry indented one space more, a tab before every entry and a
# carriage return before the newline that ends every row but the last
WHITESPACE = [(r"\n( {4,})([-0-9\"])", r"\n \1\2"), (r"\n( {4,})([-0-9\"])", "\n\\1\t\\2"),
              (r",\n( {4}\S)", ",\r\n\\1")]


@pytest.mark.parametrize("pattern, new", WHITESPACE, ids=["indent", "tab", "cr"])
def test_whitespace_in_the_arrays_reads_as_the_writer_file(tmp_path, pattern, new):
    text = _big_text(tmp_path)
    head, tail = text.index('"fields": {'), text.index('"float_encoding"')
    path = tmp_path / "net.json"
    path.write_text(text[:head] + re.sub(pattern, new, text[head:tail]) + text[tail:],
                    newline="")
    assert path.read_bytes() != text.encode()
    got, want = (fieldread.fast_document(str(p)) for p in (path, tmp_path / "writer.json"))
    for kind, name in (("vertex", "mu"), ("edge", "m")):
        assert got["fields"][kind][name].tobytes() == want["fields"][kind][name].tobytes()
    _assert_loads_as_json(path)


def test_sections_out_of_order_load_as_json(tmp_path):
    # the arrays are matched to their fields by the sorted order of their
    # keys, which holds only in the writer's layout
    text = _big_text(tmp_path).replace('"edge": {', '"zedge": {', 1)
    path = tmp_path / "net.json"
    path.write_text(text)
    _assert_loads_as_json(path)
    assert fieldread.fast_document(str(path)) is None


def test_rows_of_lists_of_lists_read_whole(tmp_path):
    cube = np.random.default_rng(4).standard_normal((BIG.nverts, 2, 3))
    # every other row, so one side of every seam between blocks
    cube[::2] = [[-0.0, np.inf, np.nan], [5e-324, -1e300, 0.5]]
    path = tmp_path / "net.json"
    path.write_text(_big_text(tmp_path, cube=cube))
    got = fieldread.fast_document(str(path))["fields"]["vertex"]["cube"]
    assert got.shape == cube.shape and np.array_equal(got, cube, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(cube))
    # a vertex field holds rows of numbers: both paths reject it alike
    _assert_loads_as_json(path)


SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-5, 0.1]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stacked=st.booleans(), share=st.floats(0.0, 0.5))
def test_save_then_load_round_trips(tmp_path_factory, seed, stacked, share):
    rng = np.random.default_rng(seed)
    grid = Grid((2, 33, 33), stacked=True) if stacked else BIG

    def draw(*shape):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        special = rng.random(shape) < share
        values[special] = rng.choice(SPECIAL_VALUES, special.sum())
        return values

    fields = {"vertex_fields": {"mu": draw(grid.nverts, 6), "x": draw(grid.nverts, 3)},
              "edge_fields": {"m": draw(grid.nedges)},
              "form1_fields": {"eta": draw(grid.nedges, 15)}}
    path = tmp_path_factory.mktemp("round-trip") / "net.json"
    NetFile(signature=(4, 2), dims=grid.dims, stacked=stacked, metadata={"seed": seed},
            **fields).save(str(path))
    # the file is read once by the block reader, in load, and once by json
    docs, fast_document = [], fieldread.fast_document

    def read(p):
        docs.append(fast_document(p))
        return docs[-1]
    with mock.patch.object(fieldread, "fast_document", read):
        nf = NetFile.load(str(path))
    assert len(docs) == 1 and docs[0] is not None
    for kind, saved in fields.items():
        for name, arr in saved.items():
            got = getattr(nf, kind)[name]
            assert got.shape == arr.shape
            assert np.array_equal(got, arr, equal_nan=True)
            assert np.array_equal(np.signbit(got)[~np.isnan(arr)], np.signbit(arr)[~np.isnan(arr)])
    assert _outcome(lambda p: nf, path) == _outcome(_json_load, path)


# -- grid ------------------------------------------------------------------

GRIDS = [((1, 5), False), ((5, 1), False), ((2, 2), False), ((3, 4, 5), False),
         ((2, 12, 12), True), ((64, 64), False), ((1,), False), ((4,), False)]


@pytest.mark.parametrize("dims, stacked", GRIDS, ids=[str(g[0]) for g in GRIDS])
def test_grid_topology_matches_slot_dict(dims, stacked):
    g = Grid(dims, stacked=stacked)
    assert np.array_equal(g.sides(), ref.quad_edges(g))
    assert g.sides().dtype == ref.quad_edges(g).dtype
    table = np.full((g.nverts, g.ndim), -1)
    for (t, a), e in ref.edge_slot_dict(g).items():
        table[t, a] = e
    assert np.array_equal(g.slot(np.arange(g.nverts)[:, None], np.arange(g.ndim)), table)
    for arr in (g.edge_tail, g.edge_head):
        assert not arr.flags.writeable


# -- Omega-net edge labels --------------------------------------------------

def _omega(seed):
    rng = np.random.default_rng(seed)
    net = random_isothermic(Grid([6, 6]), Signature(4, 2), rng)
    return lie.omega_from_darboux_pair(net, rng=rng)


def test_labels_match_reference(omega_net, guichard):
    # the stored pair's labels against the trace identity of eta
    nets = [omega_net, guichard.omega] + [_omega(seed) for seed in (1, 2, 3)]
    for om in nets:
        labels = lie.omega_edge_labels(om)
        assert np.abs((ref.omega_edge_labels(om) - labels) / labels).max() <= 1e-9


def test_labels_match_reference_on_isotropic_edges():
    # a one-edge Omega-net whose pair lifts a, b have (a, b) = eps: at
    # eps = 0 the edge is isotropic and its label infinite
    E = np.eye(6)
    a, c, d = E[0] + E[4], E[2] + E[5], E[3] + E[4]
    g = Grid([1, 2])
    for eps, finite in ((0.0, False), (1e-8, True), (1e-3, True)):
        b = E[1] + E[5] + eps * E[0]
        om = lie.OmegaNet(g, lie.standard_lie_frame(), np.array([a, b]), np.array([c, d]),
                          np.array([wedge_vec(b, a)]), mu_plus=np.array([a, b]),
                          mu_minus=np.array([c, d]))
        labels = lie.omega_edge_labels(om)
        assert np.isfinite(labels[0]) == np.isfinite(ref.omega_edge_labels(om)[0]) == finite
        if finite:
            assert labels[0] == 1.0 / eps


def test_labels_need_the_pair(omega_net):
    bare = lie.OmegaNet(omega_net.grid, omega_net.lie_frame, omega_net.y, omega_net.t,
                        omega_net.eta)
    with pytest.raises(ValueError, match="spanning Moutard pair"):
        lie.omega_edge_labels(bare)


def test_plane_helpers_match_reference_on_one_element(omega_net):
    # the batched helpers, called on one element
    cong = omega_net.congruence()
    g = cong.grid
    for e in range(g.nedges):
        C = unpack_bivector(cong.eta[e], cong.dim)
        span, failures = koenigs._span_of_bivector(C)
        ref.raise_first(failures)
        assert np.array_equal(span, ref.span_of_bivector(C))
        for v in (int(g.edge_tail[e]), int(g.edge_head[e])):
            B = ref.plane_basis(cong, v)
            got, failures = koenigs._plane_intersection(span, B)
            ref.raise_first(failures)
            assert np.array_equal(got, ref.plane_intersection(span, B))


def _helper_error(fn, *args):
    with pytest.raises(DegeneracyError) as info:
        fn(*args)
    return str(info.value)


def test_plane_helper_degeneracies_match_reference_on_one_element():
    E = np.eye(6)

    def span(C):
        ref.raise_first(koenigs._span_of_bivector(C)[1])

    def meet(B1, B2):
        ref.raise_first(koenigs._plane_intersection(B1, B2)[1])

    for C in (np.zeros((6, 6)),
              unpack_bivector(wedge_vec(E[0], E[1]) + wedge_vec(E[2], E[3]), 6)):
        assert _helper_error(span, C) == _helper_error(ref.span_of_bivector, C)
    B1, B2 = E[:, :2], E[:, 2:4]
    assert (_helper_error(meet, B1, B2)
            == _helper_error(ref.plane_intersection, B1, B2))
