"""Pairwise verdicts, certificates and non-R-covered witnesses."""

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from plugflow import distinguisher as dist
from plugflow import orbit_space as osp
from plugflow.gluing import crossing_orbit_index
from plugflow.handedness import even_extension_allowed, old_handedness
from plugflow.homology import one_crossing


# -- action of an equivalence on an old fan ------------------------------------------
#
# A map of orbit spaces either sends the old fan of T_i to the unique old fan
# (case 1) or shifts it through a one-lozenge extension at its u or s end
# (case 2).  Case 2 is feasible only when the extended cluster still
# classifies as the matching fan shape; this is the computation that
# `orbit-space --extend u|s` writes.

def _fan_action_shapes(i, n, k):
    fan = osp.old_fan_cluster(i, 0)
    new_data = one_crossing(crossing_orbit_index(i), n)
    old = osp.classify_maximal(fan.lozenges, k)
    ext = {fol: osp.classify_maximal(
        list(fan.lozenges) + [osp.extend_fan(fan, fol, new_data)], k)
        for fol in ("u", "s")}
    return old, ext


def test_h_action_lists_both_cases():
    for i in (1, 2, 3):
        old, ext = _fan_action_shapes(i, 2, 7)
        assert old == osp.MaximalShape("C_i", i)
        assert set(ext) == {"u", "s"}
        assert all(isinstance(shape, osp.MaximalShape) for shape in ext.values())
        assert ext["u"] != ext["s"]


def test_h_action_case2_gated_by_classification():
    _, ext = _fan_action_shapes(1, 2, 7)
    for fol, shape in ext.items():
        assert isinstance(shape, osp.MaximalShape)
        assert shape.tag == f"C_i^{fol}"


def test_h_action_case2_never_swaps_edge_types():
    _, ext = _fan_action_shapes(2, 2, 7)
    for fol, other in (("u", "s"), ("s", "u")):
        assert ext[fol].tag.endswith(f"C_i^{fol}")
        assert ext[fol].tag != f"C_i^{other}"


# -- the reversing branch's premise -----------------------------------------------

def test_hoteb_endpoint_tori_force_extensions():
    # a reversing map sends the old chain of T_i to the unique old chain only
    # when j = ceil(i/2) lies in (m1, m2]; for T_1 and T_{4n-1} it never does
    # in the proven range, so both end chains would have to grow even extensions
    for n in range(1, 9):
        for m1, m2 in itertools.combinations(range(2 * n + 1), 2):
            if dist.proven_range(m1, m2, n):
                assert (crossing_orbit_index(1) <= m1
                        and crossing_orbit_index(4 * n - 1) > m2), (n, m1, m2)


# -- distinguish ---------------------------------------------------------------------------

def test_distinguish_example_pair():
    v = dist.distinguish(1, 2, 2, 7)
    assert v.tag == dist.INEQUIVALENT
    preserving = next(b for b in v.branches if b.orientation == "preserving")
    assert preserving.witness_torus in (3, 4)
    reversing = next(b for b in v.branches if b.orientation == "reversing")
    assert reversing.table_cells["handedness"] == {"1": "L", "7": "R"}


def test_distinguish_outside_proven_range():
    v = dist.distinguish(0, 1, 1, 7)
    assert v.tag == dist.INCONCLUSIVE
    assert v.reason == "outside proven range"
    assert dist.distinguish(1, 4, 2, 7).tag == dist.INCONCLUSIVE


def test_distinguish_rejects_equal_indices():
    with pytest.raises(ValueError):
        dist.distinguish(1, 1, 2, 7)


def test_distinguish_symmetric():
    a = dist.distinguish(1, 3, 3, 7)
    b = dist.distinguish(3, 1, 3, 7)
    assert a.tag == b.tag == dist.INEQUIVALENT


def test_all_pairs_n3_both_signs():
    for k in (7, -7):
        for m1, m2 in itertools.combinations(range(1, 6), 2):
            v = dist.distinguish(m1, m2, 3, k)
            assert v.tag == dist.INEQUIVALENT, (m1, m2, k)
            assert dist.verify_certificate(v)


def test_verdicts_depend_only_on_sign_of_k():
    for m1, m2 in [(1, 2), (2, 3)]:
        tags = {k: dist.distinguish(m1, m2, 2, k).tag
                for k in (1, 7, 100, -1, -7, -100)}
        assert set(tags.values()) == {dist.INEQUIVALENT}
        witnesses = {k: dist.distinguish(m1, m2, 2, k).branches[1].witness_torus
                     for k in (1, 7, 100)}
        assert len(set(witnesses.values())) == 1


def test_preserving_witness_is_least_flip():
    v = dist.distinguish(1, 3, 2, 7)
    b = next(br for br in v.branches if br.orientation == "preserving")
    flips = [i for i in range(2 * 1 + 1, 2 * 3 + 1)
             if old_handedness(i, 1, 2) != old_handedness(i, 3, 2)]
    assert b.witness_torus == min(flips)


def test_certificate_json_schema():
    v = dist.distinguish(1, 2, 2, 7)
    doc = json.loads(dist.certificate_to_json(v))
    assert doc["pair"] == [1, 2]
    assert doc["verdict"] == "Inequivalent"
    assert {b["orientation"] for b in doc["branches"]} \
        == {"preserving", "reversing"}
    for b in doc["branches"]:
        assert set(b) == {"orientation", "witness_torus", "lemma", "table_cells"}


def test_tampered_certificate_fails_verification():
    v = dist.distinguish(1, 2, 2, 7)
    bad_branches = tuple(
        dist.BranchCertificate(b.orientation, 2, b.lemma, b.table_cells)
        if b.orientation == "preserving" else b
        for b in v.branches)
    tampered = dist.DistinguishVerdict(v.tag, v.m1, v.m2, v.n, v.k, bad_branches)
    assert not dist.verify_certificate(tampered)


def test_end_chains_of_another_run_rejected():
    ends = dist.end_chains(2)
    assert ends == {1: "L", 7: "R"}
    with pytest.raises(ValueError):
        dist.distinguish(1, 2, 3, 7, ends)
    with pytest.raises(ValueError):
        dist.distinguish(1, 2, 2, 7, {1: "L"})


# -- the reversing witness is the end torus the even-extension rule refuses ---------------
#
# The rule says no exactly for (R, k > 0) and (L, k < 0).  With the run's own end
# chains (T_1 is L, T_7 is R at n = 2) that is T_7 for k > 0 and T_1 for k < 0;
# with the two handedness values swapped it is the other end torus.

REFUSED_END = {("ends", 7): 7, ("ends", -7): 1, ("swapped", 7): 1, ("swapped", -7): 7}


@pytest.mark.parametrize("ends, k", REFUSED_END, ids=[f"{e}-k{k}" for e, k in REFUSED_END])
def test_reversing_witness_is_the_refused_end_torus(ends, k):
    hands = dist.end_chains(2)
    if ends == "swapped":
        hands = {1: hands[7], 7: hands[1]}
    v = dist.distinguish(1, 2, 2, k, hands)
    assert v.tag == dist.INEQUIVALENT
    reversing = v.branches[1]
    assert reversing.orientation == "reversing"
    assert reversing.witness_torus == REFUSED_END[ends, k]
    assert reversing.table_cells["extension_allowed"] == {
        str(i): i != REFUSED_END[ends, k] for i in (1, 7)}


def test_negating_k_moves_only_the_reversing_witness():
    for n in range(1, 5):
        ends = dist.end_chains(n)
        for m1, m2 in itertools.combinations(range(2 * n + 1), 2):
            if not dist.proven_range(m1, m2, n):
                continue
            for k in (1, 7):
                plus = dist.distinguish(m1, m2, n, k, ends)
                minus = dist.distinguish(m1, m2, n, -k, ends)
                assert plus.branches[0] == minus.branches[0], (n, m1, m2, k)
                assert (plus.branches[1].witness_torus,
                        minus.branches[1].witness_torus) == (4 * n - 1, 1), (n, m1, m2, k)


FLIP = {"L": "R", "R": "L", True: False, False: True, "+": "-", "-": "+"}


def _cell_variants(cells):
    """Every table with one cell flipped, dropped or added."""
    for key, val in cells.items():
        if isinstance(val, dict):
            for sub in _cell_variants(val):
                yield {**cells, key: sub}
        else:
            yield {**cells, key: FLIP[val]}
        yield {c: v for c, v in cells.items() if c != key}
    yield {**cells, "extra": "L"}


def _single_field_changes(v):
    """Every certificate that differs from `v` in exactly one field.

    k enters the proof only through its sign, so only the sign is changed.
    """
    for tag in (dist.INCONCLUSIVE, "Equivalent"):
        yield dataclasses.replace(v, tag=tag)
    yield dataclasses.replace(v, reason="stubbed")
    for name in ("m1", "m2", "n"):
        for step in (-1, 1):
            yield dataclasses.replace(v, **{name: getattr(v, name) + step})
    yield dataclasses.replace(v, k=-v.k)
    for idx, b in enumerate(v.branches):
        def branch(**kw):
            changed = list(v.branches)
            changed[idx] = dataclasses.replace(b, **kw)
            return dataclasses.replace(v, branches=tuple(changed))
        yield branch(orientation="reversing" if b.orientation == "preserving"
                     else "preserving")
        for t in range(0, 4 * v.n + 2):
            if t != b.witness_torus:
                yield branch(witness_torus=t)
        for lemma in ("handedness-table", "even-extension-rule", "other"):
            if lemma != b.lemma:
                yield branch(lemma=lemma)
        for cells in _cell_variants(b.table_cells):
            yield branch(table_cells=cells)
        yield dataclasses.replace(v, branches=v.branches[:idx] + v.branches[idx + 1:])
        yield dataclasses.replace(v, branches=v.branches + (b,))
    yield dataclasses.replace(v, branches=v.branches[::-1])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, -1, 7, -7])
def test_every_single_field_change_fails_verification(n, k):
    for m1, m2 in itertools.combinations(range(1, 2 * n), 2):
        v = dist.distinguish(m1, m2, n, k)
        assert dist.verify_certificate(v)
        changes = list(_single_field_changes(v))
        assert len(changes) > 20
        for bad in changes:
            assert bad != v
            assert not dist.verify_certificate(bad), bad


def _forge(m1, m2, n, k):
    """The Inequivalent certificate the argument would give if run on any pair."""
    i_w = next(i for i in range(2 * m1 + 1, 2 * m2 + 1)
               if old_handedness(i, m1, n) != old_handedness(i, m2, n))
    hands = {i: old_handedness(i, m1, n) for i in (1, 4 * n - 1)}
    answers = {str(i): (hd, even_extension_allowed(hd, i, n, k)) for i, hd in hands.items()}
    return dist.DistinguishVerdict(dist.INEQUIVALENT, m1, m2, n, k, branches=(
        dist.BranchCertificate("preserving", i_w, "handedness-table", {
            f"({i_w},{m1})": old_handedness(i_w, m1, n),
            f"({i_w},{m2})": old_handedness(i_w, m2, n)}),
        dist.BranchCertificate("reversing", 4 * n - 1 if k > 0 else 1,
                               "even-extension-rule", {
            "handedness": {i: hd for i, (hd, _) in answers.items()},
            "extension_allowed": {i: ok for i, (_, ok) in answers.items()},
            "sign_k": "+" if k > 0 else "-"})))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_out_of_range_forgeries_fail_verification(n):
    for k in (7, -7):
        for m1, m2 in itertools.combinations(range(2 * n + 1), 2):
            if dist.proven_range(m1, m2, n):
                assert _forge(m1, m2, n, k) == dist.distinguish(m1, m2, n, k)
            else:
                assert not dist.verify_certificate(_forge(m1, m2, n, k)), (m1, m2)


# -- non-R-covered certificates ------------------------------------------------------------

def test_non_r_covered_counts():
    cert = dist.non_r_covered_certificate(0, 1)
    torus1 = cert["punctured_tori"][0]
    assert torus1["torus"] == 1
    assert len(torus1["surviving_reeb_annuli"]) == 3


def test_non_r_covered_distinct_boundary_orbits():
    cert = dist.non_r_covered_certificate(1, 2)
    for torus in cert["punctured_tori"]:
        for ann in torus["surviving_reeb_annuli"]:
            a, b = ann["boundary_orbits"]
            assert a != b


@given(st.integers(1, 4), st.data())
@settings(max_examples=20, deadline=None)
def test_non_r_covered_all_m(n, data):
    m = data.draw(st.integers(0, 2 * n))
    cert = dist.non_r_covered_certificate(m, n)
    assert len(cert["punctured_tori"]) == 4 * n
    for entry in cert["punctured_tori"]:
        i = entry["torus"]
        assert len(entry["surviving_reeb_annuli"]) == 2 * i + 1
        assert entry["reeb_witness"]["boundary_orbits"][0] \
            != entry["reeb_witness"]["boundary_orbits"][1]


def test_non_r_covered_range():
    with pytest.raises(ValueError):
        dist.non_r_covered_certificate(3, 1)
