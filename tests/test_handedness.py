"""The L/R table, its reading off the old fans, and the even-extension rule."""

import pytest
from hypothesis import given, strategies as st

from plugflow import handedness as hd
from plugflow import orbit_space as osp
from plugflow.homology import NewLozengeData


# -- the L/R table ----------------------------------------------------------------

def test_example_rows():
    assert hd.old_handedness(1, 1, 1) == "L"
    assert hd.old_handedness(1, 0, 1) == "R"
    for n in (1, 2, 3):
        for m in range(0, 2 * n):
            assert hd.old_handedness(4 * n - 1, m, n) == "R"


def test_full_example_table():
    # i odd: L iff j <= m; i even: R iff j <= m, with j the crossing index
    for n in (1, 2, 3, 4):
        for i in range(1, 4 * n + 1):
            j = (i + 1) // 2
            for m in range(2 * n + 1):
                want = ("L" if j <= m else "R") if i % 2 == 1 else \
                    ("R" if j <= m else "L")
                assert hd.old_handedness(i, m, n) == want


@given(st.integers(1, 4), st.data())
def test_single_step_in_m(n, data):
    i = data.draw(st.integers(1, 4 * n))
    row = [hd.old_handedness(i, m, n) for m in range(2 * n + 1)]
    flips = [m for m, (a, b) in enumerate(zip(row, row[1:]), start=1) if a != b]
    assert flips == [(i + 1) // 2]


@given(st.integers(1, 4), st.data())
def test_odd_even_pair_disagree(n, data):
    j = data.draw(st.integers(1, 2 * n))
    m = data.draw(st.integers(0, 2 * n))
    assert hd.old_handedness(2 * j - 1, m, n) != hd.old_handedness(2 * j, m, n)


def test_out_of_range():
    for read in (hd.old_handedness, hd.old_sa_annulus):
        for i, m in ((0, 0), (5, 0), (1, -1), (1, 3)):
            with pytest.raises(ValueError):
                read(i, m, 1)


def test_fan_reading_matches_closed_form():
    # every cell (i, m) with n <= 8, 1,776 in all: the handedness read off
    # the old fan equals the closed form, which builds no fan
    for n in range(1, 9):
        for i in range(1, 4 * n + 1):
            for m in range(2 * n + 1):
                assert hd.old_sa_annulus(i, m, n) == hd.old_handedness(i, m, n), (i, m, n)


# -- extensions --------------------------------------------------------------------

def test_extension_rules():
    assert hd.old_sa_annulus(1, 0, 1) == "R"      # R-type at m=0
    assert not hd.even_extension_allowed("R", 1, 1, 7)
    assert hd.even_extension_allowed("R", 1, 1, -7)

    assert hd.old_sa_annulus(1, 1, 1) == "L"      # L-type at m=1
    assert hd.even_extension_allowed("L", 1, 1, 7)
    assert not hd.even_extension_allowed("L", 1, 1, -7)


@given(st.integers(-50, 50).filter(bool), st.integers(1, 2), st.integers(0, 4))
def test_extension_agrees_with_homology_cells(k, n, m):
    from plugflow.homology import decide_sa_extension
    m = min(m, 2 * n)
    for i in (1, 2 * n):
        hand = hd.old_sa_annulus(i, m, n)
        allowed = hd.even_extension_allowed(hand, i, n, k)
        j = (i + 1) // 2
        vec = [0] * (2 * n)
        vec[j - 1] = 1
        direct = decide_sa_extension(hand, k, NewLozengeData(tuple(vec)))
        assert allowed == (direct.tag == "Consistent")


# -- misc ---------------------------------------------------------------------------

def test_handedness_table_shape():
    table = hd.handedness_table(2)
    assert set(table) == set(range(1, 9))
    assert all(len(row) == 5 for row in table.values())


def test_old_annuli_consistent():
    # an odd, strictly alternating chain transports the boundary frame to the
    # same orientation at both ends
    for i in (1, 2, 3):
        fan = osp.old_fan_cluster(i, 0)
        assert len(fan) == 4 * i + 3
        labels = fan.labels
        assert all(a != b for a, b in zip(labels, labels[1:]))
        assert len(labels) == len(fan) - 1


def test_old_annulus_length_and_origin():
    for i in (1, 2, 3):
        assert len(osp.old_fan_cluster(i, 1)) == 4 * i + 3
        assert hd.old_sa_annulus(i, 1, 1) == hd.old_handedness(i, 1, 1)
