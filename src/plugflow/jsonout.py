"""The one encoder of plugflow's JSON artifacts.

Every JSON file plugflow writes (plug, invariants, certificates, orbit
space) is ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for
byte.  ``chunks`` yields exactly that text, piece by piece, for documents
built from str, int, bool, None, float, list, tuple, generator and dict
with str keys, and raises TypeError for anything else, so it never emits
different bytes.  A generator is encoded as the list it yields, so a
document may build its long arrays while they are written; such a document
can be encoded once.

With ``indent`` set, ``json`` falls back to its pure-Python encoder, whose
generators cost a frame per value and whose part list holds every fragment
of the document at once.  ``chunks`` is one recursive encoder that appends
to a part list and hands it on as a chunk every few thousand parts, so a
writer that consumes the chunks as they come holds one chunk of the text,
never the whole of it.  ``render`` is the join of the chunks.  Written
this way, ``plug --n 12`` peaks at 1.4 times its 1.2 MB file under
tracemalloc (Python 3.11), the spec included; joining the text first,
with every dict of the document alive, peaked at 5.8 times.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string
from types import GeneratorType
from typing import Iterator

#: parts joined into one chunk at a time; bounds the part list's memory
CHUNK_PARTS = 4096


def chunks(doc) -> Iterator[str]:
    """The text of ``render(doc)``, in chunks of a few thousand parts."""
    parts: list[str] = []
    append = parts.append

    def value(o, nl: str) -> Iterator[str]:
        # `nl` is a newline plus the indent of the line `o` starts on
        if isinstance(o, str):
            append(_string(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, (list, tuple, GeneratorType)):
            inner = nl + "  "
            sep = "[" + inner
            for item in o:
                append(sep)
                if type(item) is str:
                    append(_string(item))
                elif type(item) is int:
                    append(int.__repr__(item))
                else:
                    yield from value(item, inner)
                sep = "," + inner
                if len(parts) > CHUNK_PARTS:
                    yield "".join(parts)
                    parts.clear()
            # `sep` still opens the array only when it had no item
            append("[]" if sep[0] == "[" else nl + "]")
        elif isinstance(o, dict):
            inner = nl + "  "
            sep = "{" + inner
            for key in sorted(o):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                append(sep)
                append(_string(key))
                append(": ")
                item = o[key]
                if type(item) is str:
                    append(_string(item))
                elif type(item) is int:
                    append(int.__repr__(item))
                else:
                    yield from value(item, inner)
                sep = "," + inner
                if len(parts) > CHUNK_PARTS:
                    yield "".join(parts)
                    parts.clear()
            append("{}" if sep[0] == "{" else nl + "}")
        else:
            # floats, and the TypeError for what JSON cannot hold
            append(json.dumps(o))

    yield from value(doc, "\n")
    append("\n")
    yield "".join(parts)


def render(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return "".join(chunks(doc))
