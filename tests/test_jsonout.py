"""The JSON artifact writer: the bytes of json.dumps(indent=2, sort_keys=True)."""

import json
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from plugflow import jsonout, plug


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


scalars = (st.none() | st.booleans() | st.integers() | st.text()
           | st.floats(allow_nan=True, allow_infinity=True))
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.lists(inner, max_size=6).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=6)),
    max_leaves=40)


@given(documents)
def test_render_equals_json_dumps(doc):
    assert jsonout.render(doc) == reference(doc)


def lazily(doc, swap):
    """`doc` with every list or tuple for which `swap()` is true replaced by a
    generator of its items."""
    if isinstance(doc, dict):
        return {key: lazily(item, swap) for key, item in doc.items()}
    if isinstance(doc, (list, tuple)):
        items = [lazily(item, swap) for item in doc]
        return (item for item in items) if swap() else type(doc)(items)
    return doc


@given(documents, st.data())
def test_a_generator_encodes_as_the_list_it_yields(doc, data):
    lazy = lazily(doc, lambda: data.draw(st.booleans(), label="swap"))
    assert jsonout.render(lazy) == reference(doc)


def test_an_empty_generator_encodes_as_an_empty_list():
    assert jsonout.render(x for x in ()) == "[]\n"
    doc = {"a": (x for x in ()), "b": [(x for x in ()), 1]}
    assert jsonout.render(doc) == reference({"a": [], "b": [[], 1]})


def test_plug_text_is_built_afresh_for_every_write():
    # the plug document's arrays are generators, consumed by one encoding
    spec = plug.build_plug(2)
    assert plug.plug_to_json(spec) == plug.plug_to_json(spec)


@pytest.mark.parametrize("doc", [
    {}, [], (), "", "é ☃ \U0001f600 \"quoted\" \\ \n\t\x00", 0, -1, 10 ** 40,
    True, False, None, 0.1, -0.0, 1e300, float("nan"), float("-inf"),
    {"b": [], "a": {}, "c": [[], [{}], {"x": ()}]},
    {"é": 1, "e": 2, "Z": 3, "": 4},
])
def test_render_edge_cases(doc):
    assert jsonout.render(doc) == reference(doc)


def test_render_crosses_chunk_boundaries():
    rows = [{"i": i, "name": f"row {i}", "cells": [i, -i, i / 7, None, True]}
            for i in range(3 * jsonout.CHUNK_PARTS)]
    doc = {"rows": rows, "flat": list(range(3 * jsonout.CHUNK_PARTS))}
    assert jsonout.render(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {1: "a"}, {"a": {2: None}}, {"a": 1, 1: 2}, {None: 0}, {("a",): 0},
    {"a": {1, 2}}, [b"bytes"], object(),
])
def test_render_rejects_what_it_cannot_write_as_json_dumps_would(doc):
    with pytest.raises(TypeError):
        jsonout.render(doc)


def test_render_peak_memory_stays_near_the_output_size():
    # every fragment of the document alive at once would cost several times
    # the output; chunks keep the peak near the output plus its chunks
    doc = json.loads(plug.plug_to_json(plug.build_plug(6)))
    text = jsonout.render(doc)
    tracemalloc.start()
    try:
        jsonout.render(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)
