"""The numpy reader of the ``fields`` section of a net file.

:func:`fast_document` reads a file that :meth:`~dnet.netfile.NetFile.save`
wrote without a Python object per number: ``np.fromstring`` reads each
array of its ``fields``
section from the text, one block of :data:`_LINES` lines at a time, once
the block's layout is the writer's and each of its entries is one that
``json`` reads as the same float; ``json`` reads the small rest of the
document.  For any other file it returns None, and
:meth:`~dnet.netfile.NetFile.load` reads the file with ``json`` whole;
``load`` calls it only for a grid of more than
:data:`~dnet.netfile._LINES` vertices.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np

from .netfile import _LINES, FLOAT_ENCODING, FORMAT, _json_text, _layout

# The characters of the entries numpy reads from an array's text; the
# strings written for non-finite values are read as the number 0 where
# the layout is checked.
_NUMBER = b"0123456789.e+-"
_NON_FINITE = (b'"inf"', b'"-inf"', b'"nan"')
# Classes of the bytes an entry starts with: a nonzero digit, zero,
# minus, a quote (of a non-finite value), the end of the entry and
# anything else.
_STARTS = '10-",x'
_CLASS = np.full(256, 5, np.uint8)
_CLASS[np.frombuffer(b'1234567890-",\n', np.uint8)] = [0] * 9 + [1, 2, 3, 4, 4]


def _json_start(x: str, y: str, z: str) -> bool:
    """Whether an entry that ``np.fromstring`` reads whole, and whose first
    three bytes have the classes ``x``, ``y``, ``z``, is one ``json`` reads
    as the same float: it has no leading ``+``, ``.`` or zeros and is not
    the integer ``-0``, which ``json`` reads as 0."""
    return (x in '1"' or x == "0" and y not in "10"
            or x == "-" and (y == "1" or y == "0" and z not in "10,"))


# by the classes x, y, z of an entry's first three bytes, at 36 x + 6 y + z
_JSON_START = np.array([_json_start(x, y, z) for x in _STARTS for y in _STARTS for z in _STARTS])


def _read_array(data: bytes, start: int, depth: int):
    """The blocks of the float array whose text :func:`_array_pieces` wrote
    at ``data[start:]``, ``depth`` levels deep, and where that text ends;
    ``np.fromstring`` reads it one block of :data:`_LINES` lines (in whole
    rows) at a time.  None where the text is not in the file layout or
    holds an entry that ``json`` reads otherwise: ``np.fromstring`` also
    reads an empty entry (as -1), a leading ``+``, ``.`` or zero, a ``.``
    without a digit after it and the integer ``-0``."""
    row, close = b"\n" + b" " * (depth + 1), b"\n" + b" " * depth + b"]"
    inner = ()
    if data.startswith(row + b"[", start + 1):     # rows are lists
        first_end = data.find(row + b"]", start) + len(row) + 1
        try:
            inner = np.shape(json.loads(data[start + len(row) + 1:first_end]))
        except ValueError:
            return None
    width = math.prod(inner)
    if not width:
        return None
    # one row's text with its entries left out: its lines, those that hold
    # an entry and whether a comma follows it, and where on its line each
    # bracket stands
    row_text = _layout((1, *inner), depth, [""] * width)[1:-len(close)].encode()
    lines = row_text.split(b"\n")[1:]
    per_row = len(lines)
    entry = [i for i, s in enumerate(lines) if not s.strip(b" ,")]
    entry_end = [1 + lines[i].endswith(b",") for i in entry]
    bracket = [(i, len(s.rstrip(b","))) for i, s in enumerate(lines) if s.strip(b" ,")]
    layouts = {}

    def layout(k):
        """The text of ``k`` rows, which ``_array_pieces`` joins by commas,
        with their entries left out; the lines of it that hold an entry,
        how far back from the next newline each entry ends, and the line
        and offset of each bracket."""
        if k not in layouts:
            rows = np.arange(k)[:, None] * per_row
            ends = np.tile(entry_end, k)
            if not inner:               # each row is an entry and a comma
                ends[:-1] += 1
            layouts[k] = (b",".join([row_text] * k), (rows + entry).ravel(), ends,
                          (rows + [i for i, _ in bracket]).ravel(),
                          np.tile([j for _, j in bracket], k))
        return layouts[k]

    # an entry's line holds a newline, its indent and at most the longest
    # float.__repr__ (24 characters) and a comma
    indent = depth + len(inner) + 1
    longest = indent + 26
    per_block = max(1, _LINES // per_row)
    want, blocks, pos = per_block * per_row, [], start + 1
    while True:
        window = np.frombuffer(data, np.uint8, min((want + 1) * longest, len(data) - pos), pos)
        nl = np.flatnonzero(window == ord("\n"))[:want + 1]
        # every row starts indented deeper than the line that closes them
        closing = np.flatnonzero(window.take(nl[::per_row] + depth + 1, mode="clip") != ord(" "))
        k = int(closing[0]) if len(closing) else (len(nl) - 1) // per_row
        stop = pos + int(nl[k * per_row])
        done = data.startswith(close, stop)
        if (not k or k < per_block and not done or np.diff(nl[:k * per_row + 1]).max() > longest
                or not done and data[stop - 1] != ord(",")):
            return None
        piece = data[pos:stop if done else stop - 1]
        probe = piece
        if b'"' in piece:
            for special in _NON_FINITE:
                probe = probe.replace(special, b"0")
        text, entries, ends, at, offset = layout(k)
        if probe.translate(None, _NUMBER) != text:
            return None
        # the classes of each entry's first three bytes, and its last byte
        first = nl[entries] + indent + 1
        x, y, z = (_CLASS[window.take(first + i, mode="clip")] for i in range(3))
        last = nl[entries + 1] - ends
        if not done and not inner:      # the comma after the block
            last[-1] -= 1
        if (not _JSON_START[(x * 6 + y) * 6 + z].all() or (window[last] == ord(".")).any()
                or b"e" in piece and b".e" in piece):
            return None
        if probe is not piece:
            piece = piece.translate(None, b'[]"')
        elif inner:                 # numpy reads the brackets as blanks
            blank = bytearray(piece)
            np.frombuffer(blank, np.uint8)[nl[at] + offset] = ord(" ")
            piece = bytes(blank)
        try:
            values = np.fromstring(piece, sep=",")
        except (ValueError, DeprecationWarning):    # text numpy does not read to its end
            return None
        if values.size != k * width:
            return None
        blocks.append(values.reshape(k, *inner))
        pos = stop
        if done:
            return blocks, stop + len(close)


def fast_document(path: str) -> dict | None:
    """The document of the net file at ``path`` with the arrays of its
    ``fields`` section read by :func:`_read_array`; None unless the file is
    a ``dnet-net/1`` document in the writer's layout whose arrays all read.
    The arrays are read first, as ``format`` sorts after ``fields``."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = data.find(b'\n "fields": {\n')
    tail = data.rfind(b'\n "float_encoding": ')
    if head < 0 or tail < head:
        return None
    cuts, arrays, pos = [0], [], head
    with warnings.catch_warnings():
        # where np.fromstring stops reading, numpy before 2.0 only warns
        warnings.simplefilter("error", DeprecationWarning)
        while (pos := data.find(b'": [\n', pos, tail)) >= 0:
            got = _read_array(data, pos + 3, 3)
            if got is None:
                return None
            arrays.append(got[0])
            cuts += [pos + 3, got[1]]
            pos = got[1]
    cuts.append(len(data))
    # the rest of the text, each array replaced by null, is small; the
    # arrays are joined once the text is gone
    text = b"null".join(data[a:b] for a, b in zip(cuts[::2], cuts[1::2]))
    del data
    try:
        text = text.decode("utf-8")
        doc = json.loads(text)
    except ValueError:
        return None
    if (not isinstance(doc, dict) or doc.get("format") != FORMAT
            or doc.get("float_encoding") != FLOAT_ENCODING
            or not isinstance(doc.get("fields"), dict) or _json_text(doc, 0) + "\n" != text):
        return None
    # in the writer's layout, the text order of the arrays is the sorted
    # order of their kinds and names
    slots = [(section, name) for _, section in sorted(doc["fields"].items())
             if isinstance(section, dict)
             for name, value in sorted(section.items()) if value is None]
    if len(slots) != len(arrays):
        return None
    for section, name in slots:
        section[name] = np.concatenate(arrays.pop(0))
    return doc
