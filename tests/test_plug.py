"""Plug model: counts, the involution, genus bookkeeping, boundary frames."""

import json

import pytest
from hypothesis import given, strategies as st

from plugflow import plug


def test_build_plug_rejects_zero():
    with pytest.raises(ValueError):
        plug.build_plug(0)


def test_torus_and_annulus_counts_n1():
    spec = plug.build_plug(1)
    assert len(list(plug.plug_document(spec)["tori"])) == 8
    assert len(spec.torus(1, "in").annuli) == 4


def test_entrance_component_table():
    spec = plug.build_plug(1)
    assert spec.torus(1, "in").component == "-"
    assert spec.torus(2, "in").component == "+"
    assert spec.torus(1, "out").component == "+"
    assert spec.torus(2, "out").component == "-"


def test_counts_n2():
    spec = plug.build_plug(2)
    assert len(list(plug.plug_document(spec)["tori"])) == 16
    assert len(spec.torus(8, "in").annuli) == 18


def test_orbit_counts_per_component():
    spec = plug.build_plug(1)
    per_sign = sum(2 * i + 2 for i in range(1, 5))
    assert len(list(plug.plug_document(spec)["orbits"])) == 2 * per_sign


def test_every_torus_covered_exactly_once():
    spec = plug.build_plug(2)
    seen = [(t["i"], t["component"]) for t in plug.plug_document(spec)["tori"]]
    assert len(seen) == len(set(seen)) == 16


@pytest.mark.parametrize("i, side", [(0, "in"), (9, "in"), (1, "sideways")])
def test_a_torus_outside_the_plug_is_a_key_error(i, side):
    with pytest.raises(KeyError):
        plug.build_plug(2).torus(i, side)


@pytest.mark.parametrize("i, j, sign", [(0, 0, "+"), (9, 0, "-"), (1, 0, "x")])
def test_an_orbit_outside_the_plug_is_a_key_error(i, j, sign):
    with pytest.raises(KeyError):
        plug.build_plug(2).orbit(i, j, sign)


# -- the involution and the boundary orbits ---------------------------------------

def test_sigma_annulus_swaps_foliation_preserves_indices():
    a = plug.LaminationAnnulus(2, 1, "s")
    assert plug.sigma_annulus(a) == plug.LaminationAnnulus(2, 1, "u")
    assert plug.sigma_annulus(plug.sigma_annulus(a)) == a


@given(st.integers(1, 8), st.integers(0, 30))
def test_plus_and_minus_orbits_have_opposite_kind(i, j):
    # sigma swaps the two components and reverses the flow, so it exchanges
    # the + and - orbit at one (i, j) and with them the s/u boundary kind
    spec = plug.build_plug(2)
    assert spec.orbit(i, j, "+").kind != spec.orbit(i, j, "-").kind


def test_annuli_chain_shares_compact_leaves():
    spec = plug.build_plug(1)
    annuli = spec.torus(1, "in").annuli
    for a, b in zip(annuli, annuli[1:] + annuli[:1]):
        assert a.boundary_leaves()[1] == b.boundary_leaves()[0]


# -- genus ------------------------------------------------------------------------

def test_genus_small_values():
    assert plug.genus_of_surface(1) == 6
    assert plug.genus_of_surface(2) == 19


def test_genus_n3_against_literal_sum():
    total = 0
    for i in range(1, 13):
        total += 2 - (2 * i + 2)
    assert 4 - 4 * plug.genus_of_surface(3) == total
    assert plug.genus_of_surface(3) == 40


@given(st.integers(1, 50))
def test_genus_satisfies_index_relation(n):
    total = sum(2 - (2 * i + 2) for i in range(1, 4 * n + 1))
    assert 4 - 4 * plug.genus_of_surface(n) == total


# -- frames -------------------------------------------------------------------------

def test_frame_sign_table():
    assert [plug.frame_sign(i) for i in range(1, 5)] == [1, -1, 1, -1]


@given(st.integers(1, 16))
def test_frame_sign_independent_of_foliation(i):
    # the sign is a function of i alone, shared by the s and u leaves of T_i
    assert plug.frame_sign(i) == (1 if i % 2 else -1)


# -- serialization ---------------------------------------------------------------------

def test_json_round_trip():
    spec = plug.build_plug(2)
    text = plug.plug_to_json(spec)
    back = plug.plug_from_json(text)
    assert back == spec
    assert plug.plug_to_json(back) == text


# torus (1, in) lies in the - component, and orbit (1, 0, +) is an s-boundary orbit
TAMPERS = {
    "dropped annulus": lambda doc: doc["tori"][3]["annuli"].pop(),
    "swapped orbit kind": lambda doc: doc["orbits"][0].update(kind="u-boundary"),
    "extra orbit": lambda doc: doc["orbits"].append(dict(doc["orbits"][-1])),
    "dropped orbit": lambda doc: doc["orbits"].pop(),
    "wrong component": lambda doc: doc["tori"][0].update(component="+"),
    "edited axiom": lambda doc: doc.update(axioms=[a + "." for a in doc["axioms"]]),
    "changed n": lambda doc: doc.update(n=3),
    "extra top-level key": lambda doc: doc.update(note="extra"),
    "index spelled as a float": lambda doc: doc["orbits"][0].update(j=0.0),
    "n spelled as a string": lambda doc: doc.update(n="2"),
}


@pytest.mark.parametrize("tamper", TAMPERS.values(), ids=TAMPERS)
def test_a_tampered_document_is_rejected(tamper):
    doc = json.loads(plug.plug_to_json(plug.build_plug(2)))
    tamper(doc)
    with pytest.raises(ValueError):
        plug.plug_from_json(json.dumps(doc, indent=2, sort_keys=True))


def test_a_reindented_document_parses_to_the_canonical_text():
    text = plug.plug_to_json(plug.build_plug(2))
    again = json.dumps(json.loads(text), indent=3)
    assert again != text
    assert plug.plug_to_json(plug.plug_from_json(again)) == text
