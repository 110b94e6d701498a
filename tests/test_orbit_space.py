"""Chains, fans, attachments and the maximal-cluster classification."""

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, strategies as st

from plugflow import orbit_space as osp
from plugflow.homology import NewLozengeData
from plugflow.plug import build_plug


def unit_s(j, n):
    v = [0] * (2 * n)
    v[j - 1] = 1
    return NewLozengeData(tuple(v))


# -- adjacency -------------------------------------------------------------------

def test_consecutive_chain_lozenges_adjacent():
    chain = osp.build_old_chain(1)
    for k in range(-3, 10):
        adj = osp.edge_adjacent(chain.lozenge(k), chain.lozenge(k + 1))
        assert adj.adjacent
        assert adj.foliation == osp.chain_label(k)


def test_corner_only_neighbors_not_edge_adjacent():
    chain = osp.build_old_chain(1)
    l0, l1 = chain.lozenge(0), chain.lozenge(1)
    # a lozenge in the opposite quadrant at the shared corner: attach at the
    # free slot of l1 sitting on that corner
    slot = next(e for e in l1.edges if e.tag == "free-left")
    assert slot.corner in l0.corners
    new = osp.attach(slot, unit_s(1, 1), "q")
    assert osp.edge_adjacent(new, l1).adjacent
    adj = osp.edge_adjacent(new, l0)
    assert not adj.adjacent
    assert set(new.corners) & set(l0.corners)  # corner-sharing only


def test_chain_labels_alternate():
    labels = [osp.chain_label(k) for k in range(8)]
    assert labels == ["u", "s"] * 4


# -- the periodic chain -------------------------------------------------------------

def test_chain_period():
    assert osp.build_old_chain(1).period == 8
    assert osp.build_old_chain(3).period == 16


def test_deck_action_shifts_by_period():
    # shifting the chain index by one period lifts every corner one deck up
    chain = osp.build_old_chain(2)
    for k in (0, 3, 11):
        base = chain.lozenge(k).corners
        for decks in (1, 2):
            shifted = chain.lozenge(k + decks * chain.period).corners
            assert shifted == tuple(dataclasses.replace(c, deck=c.deck + decks)
                                    for c in base)


def test_deck_action_is_label_automorphism():
    chain = osp.build_old_chain(1)
    for k in range(10):
        assert osp.chain_label(k) == osp.chain_label(k + chain.period)
        shifted = chain.corner(k + chain.period)
        base = chain.corner(k)
        assert (shifted.i, shifted.j, shifted.sign) == (base.i, base.j, base.sign)
        assert shifted.deck == base.deck + 1


def test_one_period_of_corners_enumerates_boundary_orbits():
    for i in (1, 2):
        chain = osp.build_old_chain(i)
        seen = {(c.j, c.sign) for c in (chain.corner(k)
                                        for k in range(chain.period))}
        assert len(seen) == 4 * i + 4
        signs = {s for _, s in seen}
        assert signs == {"+", "-"}


def test_chain_corners_are_the_plugs_boundary_orbits():
    # counts and signs come from the plug: even positions sit under the
    # entrance side's stable leaves (u-boundary orbits), odd positions under
    # the exit side's unstable leaves (s-boundary orbits)
    spec = build_plug(2)
    for i in range(1, 9):
        chain = osp.build_old_chain(i)
        for k in range(chain.period):
            c = chain.corner(k)
            orbit = spec.orbit(i, c.j, c.sign)
            assert (orbit.i, orbit.j, orbit.sign, c.deck) == (c.i, c.j, c.sign, 0)
            assert orbit.kind == ("u-boundary" if k % 2 == 0 else "s-boundary")
        assert (len(osp.old_fan_cluster(i, 0)) == osp.MaximalShape("C_i", i).lozenge_count()
                == chain.period - 1)


def test_no_three_lozenges_share_a_corner():
    chain = osp.build_old_chain(1)
    window = [chain.lozenge(k) for k in range(12)]
    counts = {}
    for loz in window:
        for c in loz.corners:
            counts[c] = counts.get(c, 0) + 1
    assert max(counts.values()) == 2


# -- old fans ---------------------------------------------------------------------

def test_old_fan_sizes():
    assert len(osp.old_fan_cluster(1, 0)) == 7
    assert len(osp.old_fan_cluster(7, 1)) == 31


def test_old_fan_alternates():
    fan = osp.old_fan_cluster(2, 0)
    for a, b in zip(fan.labels, fan.labels[1:]):
        assert a != b


def test_deleted_lozenge_is_the_punctured_one():
    for i in (1, 2, 3):
        for m in (0, 2):
            chain = osp.build_old_chain(i)
            d = osp.punctured_position(i, m)
            fan_set = set(osp.old_fan_cluster(i, m).lozenges)
            assert chain.lozenge(d) not in fan_set
            assert chain.lozenge(d + 1) in fan_set


def test_punctured_position_follows_rectangle_chirality():
    # R components sit in x in (1/2, 1): between the unstable leaf at 1/2
    # (position 1) and the stable leaf at 1 (position 2); L components mirror
    # into (0, 1/2), between positions 0 and 1
    from plugflow.gluing import rectangle_chirality
    for i in (1, 2, 3):
        j = (i + 1) // 2
        for m in (0, 1, 2):
            want = 1 if rectangle_chirality(m, j) == "R" else 0
            assert osp.punctured_position(i, m) == want


def test_fan_shape_independent_of_m():
    for i in (1, 2):
        fans = [osp.old_fan_cluster(i, m) for m in (0, 1, 2)]
        assert all(len(f) == 4 * i + 3 for f in fans)
        for f in fans:
            ends = osp.fan_end_slots(f)
            assert set(ends) == {"u", "s"}


def test_attachment_site_count():
    for i in (1, 2, 3):
        fan = osp.old_fan_cluster(i, 0)
        sites = osp.attachment_sites(fan)
        assert len(sites) == 8 * i + 8
        assert set(sites) == set(osp.free_slots(fan.lozenges))


def test_end_slots_are_attachment_sites_of_extreme_lozenges():
    fan = osp.old_fan_cluster(1, 0)
    sites = osp.attachment_sites(fan)
    ends = osp.fan_end_slots(fan)
    assert set(ends.values()) <= set(sites)
    hosts = osp.free_slots(fan.lozenges)
    assert {hosts[ends["u"]], hosts[ends["s"]]} == {0, len(fan) - 1}


# -- classification ---------------------------------------------------------------

def test_classify_plain_fan():
    fan = osp.old_fan_cluster(2, 0)
    shape = osp.classify_maximal(fan.lozenges, 7)
    assert shape == osp.MaximalShape("C_i", 2)
    assert shape.lozenge_count() == 11


def test_classify_single_end_extensions():
    # one lozenge grown at the u (s) end classifies as C_i^u (C_i^s), never as
    # the other shape, so a map of clusters cannot exchange the extension types
    n = 1
    for i in (1, 2, 3):
        fan = osp.old_fan_cluster(i, 0)
        ends = osp.fan_end_slots(fan)
        for fol, want in (("u", "C_i^u"), ("s", "C_i^s")):
            slot = ends[fol]
            new = osp.attach(slot, unit_s(1, n), f"ext-{fol}")
            assert osp.extend_fan(fan, fol, unit_s(1, n)) == new
            shape = osp.classify_maximal(list(fan.lozenges) + [new], 7)
            assert shape == osp.MaximalShape(want, i)
            assert shape.lozenge_count() == 4 * i + 4


def test_classify_double_end_extension():
    fan = osp.old_fan_cluster(1, 0)
    ends = osp.fan_end_slots(fan)
    news = [osp.attach(ends[f], unit_s(1, 1), f"x-{f}") for f in ("u", "s")]
    shape = osp.classify_maximal(list(fan.lozenges) + news, 7)
    assert shape == osp.MaximalShape("C_i^us", 1)
    assert shape.lozenge_count() == 9


def test_classify_rejects_two_new_adjacent():
    fan = osp.old_fan_cluster(1, 0)
    ends = osp.fan_end_slots(fan)
    slot = ends["u"]
    first = osp.attach(slot, unit_s(1, 1), "n1")
    chain_slot = next(e for e in first.edges
                      if e.corner != slot.corner and e.foliation == "s")
    second = osp.attach(chain_slot, unit_s(1, 1), "n2")
    out = osp.classify_maximal(list(fan.lozenges) + [first, second], 7)
    assert isinstance(out, osp.NotClassifiable)
    assert out.reason == "two-new-adjacent"


def test_classify_rejects_bridge():
    n = 2
    fan1 = osp.old_fan_cluster(1, 0)
    fan2 = osp.old_fan_cluster(2, 0)
    end1 = osp.fan_end_slots(fan1)["u"]
    end2 = osp.fan_end_slots(fan2)["s"]
    # one new lozenge whose two corners sit on the two fans' end slots
    bridge = osp.Lozenge(
        end1.corner, end2.corner, "new",
        frozenset({
            end1, end2,
            osp.EdgeSlot(end1.corner, "s" if end1.foliation == "u" else "u", "b1"),
            osp.EdgeSlot(end2.corner, "s" if end2.foliation == "u" else "u", "b2"),
        }),
        unit_s(1, n))
    lozenges = list(fan1.lozenges) + list(fan2.lozenges) + [bridge]
    out = osp.classify_maximal(lozenges, 7)
    assert isinstance(out, osp.NotClassifiable)
    assert out.reason == "old-new-old-bridge"


def test_classify_interior_attachment_not_fan_type():
    fan = osp.old_fan_cluster(1, 0)
    ends = set(osp.fan_end_slots(fan).values())
    hosts = osp.free_slots(fan.lozenges)
    sites = [s for s in osp.attachment_sites(fan) if s not in ends
             and 0 < hosts[s] < len(fan) - 1]
    new = osp.attach(sites[0], unit_s(1, 1), "mid")
    out = osp.classify_maximal(list(fan.lozenges) + [new], 7)
    assert isinstance(out, osp.NotClassifiable)
    assert out.reason == "not-fan-type"


@given(st.permutations(list(range(8))))
def test_classification_order_invariant(perm):
    fan = osp.old_fan_cluster(1, 0)
    ends = osp.fan_end_slots(fan)
    new = osp.attach(ends["u"], unit_s(1, 1), "x")
    lozenges = list(fan.lozenges) + [new]
    shuffled = [lozenges[p] for p in perm]
    assert osp.classify_maximal(shuffled, 7) == osp.classify_maximal(lozenges, 7)


def test_partial_old_chain_is_not_a_fan():
    chain = osp.build_old_chain(1)
    window = [chain.lozenge(k) for k in range(3)]
    out = osp.classify_maximal(window, 7)
    assert isinstance(out, osp.NotClassifiable)
    assert out.reason == "no-old-fan"


def test_classify_requires_cluster():
    fan = osp.old_fan_cluster(1, 0)
    with pytest.raises(osp.NonClusterError):
        osp.classify_maximal([fan.lozenges[0]], 7)
    chain = osp.build_old_chain(1)
    with pytest.raises(osp.NonClusterError):
        osp.classify_maximal([chain.lozenge(0), chain.lozenge(4)], 7)


def test_classification_corpus_exhaustive():
    """Size <= 2 attachments at fan sites classify into the four tags or
    NotClassifiable with a documented reason."""
    allowed = {"C_i", "C_i^u", "C_i^s", "C_i^us"}
    reasons = {"two-new-adjacent", "old-new-old-bridge", "no-old-fan",
               "not-fan-type"}
    for i in (1, 2, 3):
        n = max(1, -(-i // 4))
        fan = osp.old_fan_cluster(i, 0)
        sites = osp.attachment_sites(fan)
        seen_tags = set()
        for r in (1, 2):
            for subset in itertools.combinations(sites, r):
                news = [osp.attach(site, unit_s(1, n), f"c{t}")
                        for t, site in enumerate(subset)]
                out = osp.classify_maximal(list(fan.lozenges) + news, 7)
                if isinstance(out, osp.MaximalShape):
                    assert out.tag in allowed
                    assert out.i == i
                    seen_tags.add(out.tag)
                else:
                    assert out.reason in reasons
                    assert out.detail
        assert {"C_i^u", "C_i^s", "C_i^us"} <= seen_tags


# -- uniqueness surrogate -----------------------------------------------------------

def test_old_chains_recognized_by_position():
    for i in (1, 2, 3):
        chain = osp.build_old_chain(i)
        for start in range(-2, chain.period + 2, 3):
            window = [chain.lozenge(k) for k in range(start, start + 5)]
            positions = [chain.position_of(loz) for loz in window]
            assert positions == list(range(start, start + 5))


def test_corrupted_chain_rejected():
    chain = osp.build_old_chain(2)
    va, vb = chain.corner(0), chain.corner(5)   # not consecutive on the chain
    corrupt = osp.Lozenge(va, vb, "old", frozenset({
        osp.EdgeSlot(va, "s", "x1"), osp.EdgeSlot(va, "u", "x2"),
        osp.EdgeSlot(vb, "s", "x3"), osp.EdgeSlot(vb, "u", "x4")}))
    with pytest.raises(ValueError):
        chain.position_of(corrupt)


# -- serialization -------------------------------------------------------------------

def test_cluster_json_schema():
    fan = osp.old_fan_cluster(1, 0)
    shape = osp.classify_maximal(fan.lozenges, 7)
    doc = json.loads(osp.cluster_to_json(fan.lozenges, shape))
    assert doc["classification"] == {"tag": "C_i", "i": 1, "lozenges": 7}
    assert len(doc["lozenges"]) == 7
    assert len(doc["adjacency"]) == 6
    assert all(lab in ("s", "u") for _, _, lab in doc["adjacency"])
