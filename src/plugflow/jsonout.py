"""The one writer of plugflow's JSON artifacts.

Every JSON file plugflow writes (plug, invariants, certificates, orbit
space) is ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for
byte.  ``render`` produces exactly that text for documents built from str,
int, bool, None, float, list, tuple and dict with str keys, and raises
TypeError for anything else, so it never emits different bytes.

With ``indent`` set, ``json`` falls back to its pure-Python encoder, whose
generators cost a frame per value and whose part list holds every fragment
of the document at once.  ``render`` is one recursive encoder that appends
to a part list and joins it into a chunk every few thousand parts, so peak
memory stays near twice the output size.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

#: parts joined into one chunk at a time; bounds the part list's memory
CHUNK_PARTS = 4096


def render(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    chunks: list[str] = []
    parts: list[str] = []
    append = parts.append

    def flush() -> None:
        chunks.append("".join(parts))
        parts.clear()

    def value(o, nl: str) -> None:
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
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            inner = nl + "  "
            sep = "[" + inner
            for item in o:
                append(sep)
                if type(item) is str:
                    append(_string(item))
                elif type(item) is int:
                    append(int.__repr__(item))
                else:
                    value(item, inner)
                sep = "," + inner
                if len(parts) > CHUNK_PARTS:
                    flush()
            append(nl + "]")
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
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
                    value(item, inner)
                sep = "," + inner
                if len(parts) > CHUNK_PARTS:
                    flush()
            append(nl + "}")
        else:
            # floats, and the TypeError for what JSON cannot hold
            append(json.dumps(o))

    value(doc, "\n")
    append("\n")
    flush()
    return "".join(chunks)
