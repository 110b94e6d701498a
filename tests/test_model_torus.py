"""Model torus: annuli, leaves, translations, the axial symmetry."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plugflow import model_torus as mt
from plugflow.cli import SVG_C_GRID

from oracles import leaf_y, rk4_cotangent, sample_one_leaf

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=64)
torus_indices = st.integers(min_value=1, max_value=8)


# -- annuli ----------------------------------------------------------------------

def test_annulus_of_interior_s():
    loc = mt.annulus_of(mt.TorusPoint(1, Fraction(1, 2), Fraction(1, 5)), "s")
    assert loc.annulus == mt.ReebAnnulusId(1, "s", 0)
    assert not loc.on_boundary


def test_annulus_of_compact_u_leaf_reports_boundary():
    loc = mt.annulus_of(mt.TorusPoint(1, Fraction(1, 2), Fraction(1, 5)), "u")
    assert loc.annulus == mt.ReebAnnulusId(1, "u", 0)
    assert loc.on_boundary


def test_annulus_of_larger_torus():
    loc = mt.annulus_of(mt.TorusPoint(2, Fraction(13, 4), Fraction(9, 10)), "s")
    assert loc.annulus == mt.ReebAnnulusId(2, "s", 3)
    assert not loc.on_boundary


def test_counts_of_leaves_and_annuli():
    for i in range(1, 5):
        for fol in ("s", "u"):
            assert len(mt.compact_leaf_positions(i, fol)) == 2 * i + 2
            assert len(mt.reeb_annuli(i, fol)) == 2 * i + 2


# -- leaves ----------------------------------------------------------------------

def test_leaf_through_compact():
    leaf = mt.leaf_through(mt.TorusPoint(1, 1, Fraction(3, 10)), "s")
    assert leaf.kind == "compact"
    assert leaf.x0 == 1


def test_leaf_through_midpoint_constant_zero():
    leaf = mt.leaf_through(mt.TorusPoint(1, Fraction(1, 2), 0), "s")
    assert leaf.kind == "noncompact"
    assert leaf.annulus.j == 0
    assert leaf.c == 0.0


def test_leaf_constant_against_rk4():
    # oracle: integrate dy/dx = cot(pi x) from the annulus midpoint (where the
    # constant is the y value) down to x = 0.25; frozen value below
    y_rk4 = rk4_cotangent(0.5, 0.0, 0.25)
    assert y_rk4 == pytest.approx(-0.11031780007632583, abs=1e-9)
    leaf = mt.leaf_through(mt.TorusPoint(1, 0.25, 0.0), "s")
    expected = (0.0 - y_rk4) % 1.0
    assert leaf.kind == "noncompact"
    assert leaf.c == pytest.approx(expected, abs=1e-6)
    assert leaf.c == pytest.approx((-1 / math.pi) * math.log(math.sin(math.pi / 4)) % 1.0,
                                   abs=1e-12)


def test_leaf_constant_invariant_along_rk4_trajectories():
    rng = random.Random(20250514)
    for _ in range(100):
        i = rng.randint(1, 4)
        j = rng.randrange(2 * i + 2)
        x0 = j + 0.5
        c0 = rng.random()
        x1 = j + rng.uniform(0.08, 0.92)
        y1 = rk4_cotangent(x0, c0, x1)
        leaf = mt.leaf_through(mt.TorusPoint(i, x1, y1), "s")
        drift = abs((leaf.c - c0 + 0.5) % 1.0 - 0.5)
        assert drift < 1e-6


def test_same_leaf_same_constant():
    ann = mt.ReebAnnulusId(2, "s", 1)
    c = 0.347
    for x in (1.2, 1.5, 1.9):
        y = leaf_y(ann, c, x)
        leaf = mt.leaf_through(mt.TorusPoint(2, x, y), "s")
        assert leaf.c == pytest.approx(c, abs=1e-12)


def test_u_leaf_via_half_shift_conjugation():
    p = mt.TorusPoint(1, 0.75, 0.3)
    u_leaf = mt.leaf_through(p, "u")
    s_leaf = mt.leaf_through(mt.tau(p, Fraction(-1, 2)), "s")
    assert u_leaf.kind == s_leaf.kind == "noncompact"
    assert u_leaf.c == pytest.approx(s_leaf.c, abs=1e-12)


# -- translations ------------------------------------------------------------------

def test_tau_wraps():
    q = mt.tau(mt.TorusPoint(1, Fraction(39, 10), Fraction(1, 2)), Fraction(1, 2))
    assert q == mt.TorusPoint(1, Fraction(2, 5), Fraction(1, 2))


@given(torus_indices, rationals, rationals)
def test_tau_half_then_back(i, x, y):
    p = mt.TorusPoint(i, x, y)
    assert mt.tau(mt.tau(p, Fraction(1, 2)), Fraction(-1, 2)) == p


def test_tau_half_maps_s_annulus_onto_next_u_annulus():
    i = 1
    for j in range(2 * i + 2):
        lo, hi = mt.ReebAnnulusId(i, "s", j).interval()
        img = (lo + Fraction(1, 2), hi + Fraction(1, 2))
        expected = mt.ReebAnnulusId(i, "u", j + 1).interval()
        assert mt.norm_mod(img[0], 2 * i + 2) == mt.norm_mod(expected[0], 2 * i + 2)
        assert img[1] - img[0] == expected[1] - expected[0]


@given(torus_indices)
def test_tau_half_bijects_compact_leaf_sets(i):
    s_set = {mt.norm_mod(x + Fraction(1, 2), 2 * i + 2)
             for x in mt.compact_leaf_positions(i, "s")}
    u_set = set(mt.compact_leaf_positions(i, "u"))
    assert s_set == u_set


@given(torus_indices, st.floats(-50, 50), rationals)
def test_tau_and_theta_keep_the_coordinate_type(i, x, v):
    # a float x stays float, equal to norm_mod of the float sum; Fractions stay exact
    c = mt.circumference(i)
    p = mt.TorusPoint(i, x, 0.25)
    moved, flipped = mt.tau(p, v), mt.theta(p)
    assert type(moved.x) is float and moved.x == mt.norm_mod(p.x + float(v), c)
    assert type(flipped.x) is float and flipped.x == mt.norm_mod(1.0 - p.x, c)
    exact = mt.TorusPoint(i, v, v)
    for q in (mt.tau(exact, v), mt.tau(exact, 3), mt.theta(exact)):
        assert type(q.x) is Fraction and type(q.y) is Fraction
    assert mt.tau(exact, v).x == mt.norm_mod(2 * v, c)
    assert mt.theta(exact).x == mt.norm_mod(1 - v, c)


# -- the axial symmetry --------------------------------------------------------------

def test_theta_pointwise():
    q = mt.theta(mt.TorusPoint(1, Fraction(1, 4), Fraction(7, 10)))
    assert q == mt.TorusPoint(1, Fraction(3, 4), Fraction(7, 10))


@given(torus_indices, rationals, rationals)
def test_theta_involution(i, x, y):
    p = mt.TorusPoint(i, x, y)
    assert mt.theta(mt.theta(p)) == p


@given(torus_indices, rationals, rationals)
def test_theta_conjugates_half_shifts(i, x, y):
    p = mt.TorusPoint(i, x, y)
    lhs = mt.theta(mt.tau(mt.theta(p), Fraction(1, 2)))
    rhs = mt.tau(p, Fraction(-1, 2))
    assert lhs == rhs


def test_theta_fixes_annulus_zero_and_permutes_the_rest():
    for i in (1, 2, 3):
        c = 2 * i + 2
        images = set()
        for j in range(c):
            lo, hi = mt.ReebAnnulusId(i, "s", j).interval()
            img = (mt.norm_mod(1 - hi, c), mt.norm_mod(1 - hi, c) + (hi - lo))
            images.add(img[0])
            if j == 0:
                assert img[0] == Fraction(0)     # [0,1] maps onto [0,1]
            if j == 1:
                assert img[0] == Fraction(c - 1)  # [1,2] maps onto [2i+1, 2i+2]
        assert images == {Fraction(v) for v in range(c)}


@given(torus_indices, rationals)
def test_theta_fixed_axes(i, y):
    for x in (Fraction(1, 2), Fraction(1, 2) + (i + 1)):
        p = mt.TorusPoint(i, x, y)
        assert mt.theta(p) == p


def test_theta_preserves_leaf_constants_on_fixed_annulus():
    for c0 in (0.1, 0.35, 0.8):
        for x in (0.15, 0.5, 0.85):
            y = leaf_y(mt.ReebAnnulusId(1, "s", 0), c0, x)
            p = mt.TorusPoint(1, x, y)
            q = mt.theta(p)
            leaf = mt.leaf_through(q, "s")
            assert leaf.c == pytest.approx(c0, abs=1e-12)


# -- misc -----------------------------------------------------------------

def test_torus_point_normalizes_rationally():
    p = mt.TorusPoint(1, Fraction(9, 2), Fraction(-1, 4))
    assert p.x == Fraction(1, 2)
    assert p.y == Fraction(3, 4)


def test_polyline_segments_wrap():
    (segs,) = mt.sample_leaf_polyline(mt.ReebAnnulusId(1, "s", 0), [0.4])
    assert len(segs) >= 2
    for a, b in zip(segs, segs[1:]):
        (xa, ya), (xb, yb) = a[-1], b[0]
        assert xa == pytest.approx(xb, abs=1e-9)
        assert {round(ya), round(yb)} == {0, 1}
        assert abs(ya - round(ya)) < 1e-6 and abs(yb - round(yb)) < 1e-6


@pytest.mark.parametrize("foliation", mt.FOLIATIONS)
def test_polyline_samples_the_exact_interval_grid(foliation):
    # with c near 1, y = c + ln|sin(pi x)|/pi stays in (0, 1): one segment,
    # no wrap points, so the segment's abscissae are the sample grid itself
    for ann in mt.reeb_annuli(5, foliation):
        lo, hi = ann.interval()
        grid = [float(lo) + 0.02 + (float(hi) - float(lo) - 2 * 0.02) * t / 119
                for t in range(120)]
        ((segment,),) = mt.sample_leaf_polyline(ann, [0.999])
        assert [x for x, _ in segment] == grid


@pytest.mark.parametrize("i", range(1, 6))
@pytest.mark.parametrize("foliation", mt.FOLIATIONS)
def test_shared_profile_matches_one_leaf_sampling(i, foliation):
    # the profile computed once per annulus gives exactly the floats of
    # sampling every leaf alone
    cs = [*SVG_C_GRID, 0.999, 0.0]
    for ann in mt.reeb_annuli(i, foliation):
        assert mt.sample_leaf_polyline(ann, cs) == [sample_one_leaf(ann, c) for c in cs]


def test_leaf_sampling_rejects_a_compact_leaf():
    # without a margin the s-grid starts on the compact leaf x = 0
    with pytest.raises(ValueError, match="compact leaf"):
        mt.sample_leaf_polyline(mt.ReebAnnulusId(1, "s", 0), [0.5], margin=0.0)
