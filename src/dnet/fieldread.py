"""The block reader of the ``fields`` section of a net file.

:func:`fast_document` reads a file that :meth:`~dnet.netfile.NetFile.save`
wrote without a Python object per number of the whole file: ``json``
parses each array of its ``fields`` section one block of rows at a time,
then the small rest of the document.  For any other file it returns None
and :meth:`~dnet.netfile.NetFile.load` reads the file with ``json``
whole; ``load`` calls it only for a grid of more than
:data:`~dnet.netfile._LINES` vertices.
"""

from __future__ import annotations

import json

import numpy as np

from .netfile import _LINES, FLOAT_ENCODING, FORMAT, _json_text


def _read_array(data: bytes, start: int):
    """The blocks of the array whose ``[`` is ``data[start]``, and where its
    text ends; ``json`` parses one block of about :data:`_LINES` lines at a
    time, cut at the comma before the last row that opens in its window.
    A cut anywhere else leaves a block that ``json`` does not parse.  None
    where a block does not parse, holds a ``null``, is empty or ragged or
    changes the row width: the whole-file path reads or rejects those."""
    blocks, pos = [], start + 1
    while True:
        # a line of the writer's text, a float with its indent and comma,
        # takes about 24 bytes
        window = np.frombuffer(data, np.uint8, min(len(data) - pos, _LINES * 24), pos)
        # the nesting level after each bracket: a row opens at level 1, and
        # the array closes at level -1
        at = np.flatnonzero((window == ord("[")) | (window == ord("]")))
        opens = window[at] == ord("[")
        level = np.cumsum(opens) * 2 - np.arange(1, len(at) + 1)
        done = level.min(initial=0) < 0
        if done:
            stop = pos + int(at[np.argmax(level < 0)])
        else:
            rows = at[opens & (level == 1)]
            stop = data.rfind(b",", pos, pos + int(rows[-1] if len(rows) else len(window)))
            if stop < 0:            # the window holds no whole row
                return None
        piece = data[pos:stop]
        try:
            values = np.array(json.loads(b"[" + piece + b"]"), dtype=float)
        except (TypeError, ValueError, OverflowError):   # ragged, or not numbers
            return None
        # numpy reads null as NaN
        if (not len(values) or blocks and values.shape[1:] != blocks[0].shape[1:]
                or np.isnan(values).any() and b"null" in piece):
            return None
        blocks.append(values)
        pos = stop + 1
        if done:
            return blocks, pos


def fast_document(path: str) -> dict | None:
    """The document of the net file at ``path`` with the arrays of its
    ``fields`` section read by :func:`_read_array`; None unless the file is
    a ``dnet-net/1`` document whose text outside those arrays is the
    writer's and whose arrays all read.  The arrays are read first, as
    ``format`` sorts after ``fields``."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = data.find(b'\n "fields": {\n')
    tail = data.rfind(b'\n "float_encoding": ')
    if head < 0 or tail < head:
        return None
    cuts, arrays, pos = [0], [], head
    while (pos := data.find(b'": [\n', pos, tail)) >= 0:
        got = _read_array(data, pos + 3)
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
