"""The block reader of the ``fields`` section of a net file.

:func:`fast_document` reads a file that :meth:`~dnet.netfile.NetFile.save`
wrote forward, without a Python object per number of the whole file and
without its whole text: the lines outside the arrays of its ``fields``
section are kept (they are small), and each of those arrays is read
through one fixed window of :data:`_WINDOW` bytes, ``json`` parsing one
block of rows at a time into an array whose row count comes from the
file's ``dims``.  For any other file it returns None and
:meth:`~dnet.netfile.NetFile.load` reads the file with ``json`` whole;
``load`` calls it only for a grid of more than :data:`~dnet.netfile._LINES`
vertices.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .netfile import _LINES, FLOAT_ENCODING, FORMAT, _grid_dims, _json_text

# Bytes of text per window: a line of the writer's text, a float with its
# indent and comma, takes about 24 bytes, so a window holds about _LINES
# lines.
_WINDOW = _LINES * 24
_OPEN, _CLOSE = b"[]"
# The lines that open the sections of the fields, and the sections' kinds
_SECTIONS = {b'  "edge": {\n': "edge", b'  "form1": {\n': "form1",
             b'  "vertex": {\n': "vertex"}


def _blocks(fh, buf: bytearray):
    """The blocks of rows of the array whose text ``fh`` reads next, just
    after its ``[``, as float arrays; then ``fh`` stands after the array's
    ``]``.

    ``buf[1:]`` is the window: each block is the text up to the comma
    before the last row that opens in it, or up to the ``]`` that closes
    the array, and ``json`` parses it in place, ``buf[0]`` and that comma
    written over with the brackets of a list; the text after the cut
    moves to the front and the file fills the rest.  A cut anywhere else
    leaves a block that ``json`` does not parse.  The last block is None
    where one does not parse, holds a ``null``, is empty or ragged or
    changes the row width, or where no whole row fits the window: the
    whole-file path reads or rejects those.
    """
    view = memoryview(buf)
    size, width = 1, None
    while True:
        size += fh.readinto(view[size:])
        window = np.frombuffer(buf, np.uint8, size - 1, 1)
        # the nesting level after each bracket: a row opens at level 1, and
        # the array closes at level -1
        at = np.flatnonzero((window == _OPEN) | (window == _CLOSE))
        opens = window[at] == _OPEN
        level = np.cumsum(opens) * 2 - np.arange(1, len(at) + 1)
        done = level.min(initial=0) < 0
        if done:
            stop = 1 + int(at[np.argmax(level < 0)])
        else:
            rows = at[opens & (level == 1)]
            stop = buf.rfind(b",", 1, 1 + int(rows[-1] if len(rows) else len(window)))
            if stop < 0:            # the window holds no whole row
                yield None
                return
        buf[0], buf[stop] = _OPEN, _CLOSE
        try:
            text = str(view[:stop + 1], "utf-8")
            values = np.array(json.loads(text), dtype=float)
        except (TypeError, ValueError, OverflowError):   # ragged, or not numbers
            yield None
            return
        # numpy reads null as NaN
        if (not len(values) or width not in (None, values.shape[1:])
                or np.isnan(values).any() and "null" in text):
            yield None
            return
        width = values.shape[1:]
        yield values
        if done:
            fh.seek(stop + 1 - size, 1)
            return
        buf[1:size - stop] = buf[stop + 1:size]
        size -= stop


def _read_array(fh, buf: bytearray, rows: int) -> np.ndarray | None:
    """The array of ``rows`` rows whose text ``fh`` reads next, just after
    its ``[``, read by :func:`_blocks` into an array allocated at the
    first block; None where a block is None or the rows are not
    ``rows``."""
    out, filled = None, 0
    for values in _blocks(fh, buf):
        if values is None or filled + len(values) > rows:
            return None
        if out is None:
            out = np.empty((rows, *values.shape[1:]))
        out[filled:filled + len(values)] = values
        filled += len(values)
    return out if filled == rows else None


def fast_document(path: str) -> dict | None:
    """The document of the net file at ``path`` with the arrays of its
    ``fields`` section read by :func:`_read_array`; None unless the file is
    a ``dnet-net/1`` document whose text outside those arrays is the
    writer's and whose arrays all read, each with the rows of its
    section: the vertices of ``dims`` or its edges."""
    with open(path, "rb") as fh:
        dims = _grid_dims(fh)
        if not dims:
            return None
        fh.seek(0)
        nverts = math.prod(dims)
        nedges = sum(nverts // n * (n - 1) for n in dims)
        rows = {"vertex": nverts, "edge": nedges, "form1": nedges}
        buf = bytearray(1 + _WINDOW)
        # the text with each array of the fields replaced by null, and the
        # arrays with the kinds of their sections
        lines, arrays = [], []
        inside = kind = None
        for line in fh:
            if inside and line.startswith(b" }"):
                inside = False
            elif inside is None and line == b' "fields": {\n':
                inside = True
            elif inside and line.endswith(b"{\n"):
                kind = _SECTIONS.get(line)
            elif inside and line.endswith(b'": [\n'):
                if kind is None:
                    return None
                arr = _read_array(fh, buf, rows[kind])
                if arr is None:
                    return None
                arrays.append((kind, arr))
                line = line[:-2] + b"null"
            lines.append(line)
    try:
        text = b"".join(lines).decode("utf-8")
        doc = json.loads(text)
    except ValueError:
        return None
    if (not isinstance(doc, dict) or doc.get("format") != FORMAT
            or doc.get("float_encoding") != FLOAT_ENCODING
            or not isinstance(doc.get("fields"), dict) or _json_text(doc, 0) + "\n" != text):
        return None
    # in the writer's layout, the text order of the arrays is the sorted
    # order of their kinds and names
    slots = [(kind, section, name) for kind, section in sorted(doc["fields"].items())
             if isinstance(section, dict)
             for name, value in sorted(section.items()) if value is None]
    if [s[0] for s in slots] != [a[0] for a in arrays]:
        return None
    for (_, section, name), (_, arr) in zip(slots, arrays):
        section[name] = arr
    return doc
