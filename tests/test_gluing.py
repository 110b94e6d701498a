"""Gluing rules, the crossing model and the markovian fixed point."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plugflow import gluing, model_torus as mt

from oracles import affine_fixed_point, pattern_rule, sigma_conjugate, theta_inverse


# -- the gluing rule ---------------------------------------------------------------

def test_restriction_m0_always_positive_shift():
    for i in range(1, 5):
        assert gluing.gluing_restriction(0, i, 1) == Fraction(1, 2)


def test_restriction_threshold():
    assert gluing.gluing_restriction(1, 2, 1) == Fraction(-1, 2)
    assert gluing.gluing_restriction(1, 3, 1) == Fraction(1, 2)


def test_restriction_rejects_bad_indices():
    with pytest.raises(ValueError):
        gluing.gluing_restriction(3, 1, 1)
    with pytest.raises(ValueError):
        gluing.gluing_restriction(0, 5, 1)


def test_pattern_examples():
    assert gluing.annulus_intersection_pattern(1, 1, 0, 1) == frozenset({3, 0})
    assert gluing.annulus_intersection_pattern(0, 1, 0, 1) == frozenset({0, 1})


def test_pattern_matches_rule_everywhere():
    for n in range(1, 5):
        for m in range(2 * n + 1):
            for i in range(1, 4 * n + 1):
                for j in range(2 * i + 2):
                    got = gluing.annulus_intersection_pattern(m, i, j, n)
                    assert got == pattern_rule(m, i, j), (n, m, i, j)


@given(st.integers(1, 6), st.integers(-30, 30), st.integers(-30, 30))
def test_integer_overlap_agrees_with_exact_fraction_arithmetic(i, a2, b2):
    # the pattern's doubled integer units must agree with the exact fractions
    c = 2 * i + 2
    a = (Fraction(a2, 2), Fraction(a2, 2) + 1)
    b = (Fraction(b2, 2), Fraction(b2, 2) + 1)
    exact = mt.interval_overlap_length(a, b, c) > 0
    doubled = mt.interval_overlap_length((a2, a2 + 2), (b2, b2 + 2), 2 * c) > 0
    assert exact == doubled


def test_pattern_hits_two_annuli_and_one_compact_leaf():
    for m, i in [(0, 1), (1, 1), (2, 3)]:
        c = 2 * i + 2
        for j in range(c):
            shift = gluing.gluing_restriction(m, i, 2)
            image = (Fraction(j) + shift, Fraction(j + 1) + shift)
            hits = gluing.annulus_intersection_pattern(m, i, j, 2)
            assert len(hits) == 2
            interior_leaves = [
                x for x in range(c)
                if any(image[0] < Fraction(x + t * c) < image[1]
                       for t in (-1, 0, 1))]
            assert len(interior_leaves) == 1


# -- the crossing model ----------------------------------------------------------------

def test_default_model_validates():
    gluing.ModelCrossingMap(n=2).validate()


def test_model_rejects_non_expanding():
    with pytest.raises(gluing.InvalidCrossingModel):
        gluing.ModelCrossingMap(n=1, mu=0.9)


def test_model_rejects_disjoint_strips():
    with pytest.raises(gluing.InvalidCrossingModel):
        gluing.ModelCrossingMap(n=1, s_offsets={1: 0.9, 2: 0.9, 3: 0.9, 4: 0.9})


def test_model_offsets_are_read_only():
    # the model is validated once, at construction, so it must not change later
    offsets, interval = {1: 0.2}, [0.0, 0.5]
    model = gluing.ModelCrossingMap(n=1, s_offsets=offsets, interval=interval)
    with pytest.raises(TypeError):
        model.s_offsets[1] = 0.9
    with pytest.raises(TypeError):
        model.s_offsets[2] = 0.9
    with pytest.raises(TypeError):
        model.interval[1] = 5.0
    offsets[1] = 0.9
    interval[1] = 5.0
    assert model.s_off(1) == 0.2
    assert model.interval == (0.0, 0.5)


def test_sigma_conjugate_is_inverse():
    # sigma . Theta_t . sigma equals the inverse of the crossing map out of the
    # partner strip; this is what ties the unstable anchors to the stable ones
    model = gluing.ModelCrossingMap(n=1)
    rng = random.Random(7)
    for _ in range(50):
        t = rng.randint(1, 4)
        p = (rng.uniform(0, 0.5), rng.uniform(0, 0.5))
        conj = sigma_conjugate(model, t, p)
        inv = theta_inverse(model, gluing.pair_torus(t), p)
        assert conj[0] == pytest.approx(inv[0], abs=1e-12)
        assert conj[1] == pytest.approx(inv[1], abs=1e-12)


def test_untied_anchors_would_break_the_conjugation_law():
    # the identity above is enforced by deriving the unstable anchors; a model
    # that unties them (only constructible by overriding u_off) violates it
    class Untied(gluing.ModelCrossingMap):
        def u_off(self, t):
            return -0.25 if t % 2 else -0.2

    model = Untied(n=1)
    p = (0.3, 0.2)
    conj = sigma_conjugate(model, 1, p)
    inv = theta_inverse(model, gluing.pair_torus(1), p)
    assert abs(conj[0] - inv[0]) > 1e-3


# -- rectangle chirality ------------------------------------------------------------

def test_rectangle_chirality_rule():
    assert gluing.rectangle_chirality(0, 1) == "R"
    assert gluing.rectangle_chirality(1, 1) == "L"
    assert gluing.rectangle_chirality(1, 2) == "R"


# -- the fixed point ----------------------------------------------------------------------

def test_fixed_point_matches_closed_form():
    model = gluing.ModelCrossingMap(n=2, mu=3.0)
    for j in (1, 2):
        report = gluing.locate_periodic_orbit(model, 0, j, tol=1e-12)
        a_star, b_star = affine_fixed_point(model, j)
        assert report.point[0] == pytest.approx(a_star, abs=1e-9)
        assert report.point[1] == pytest.approx(b_star, abs=1e-9)
        assert report.residual < 1e-9


def test_fixed_point_from_corners():
    model = gluing.ModelCrossingMap(n=1)
    lo, hi = model.interval
    targets = set()
    for corner in [(lo, lo), (lo, hi), (hi, lo), (hi, hi)]:
        rep = gluing.locate_periodic_orbit(model, 0, 1, start=corner, tol=1e-10)
        targets.add((round(rep.point[0], 9), round(rep.point[1], 9)))
    assert len(targets) == 1


def test_fixed_point_random_starts():
    model = gluing.ModelCrossingMap(n=1, mu=3.0)
    rng = random.Random(99)
    ref = gluing.locate_periodic_orbit(model, 1, 1).point
    for _ in range(20):
        start = (rng.uniform(0, 0.5), rng.uniform(0, 0.5))
        rep = gluing.locate_periodic_orbit(model, 1, 1, start=start)
        assert rep.point[0] == pytest.approx(ref[0], abs=1e-9)
        assert rep.point[1] == pytest.approx(ref[1], abs=1e-9)


def test_located_orbit_independent_of_m_when_gluings_agree():
    # for j > max(m, m') both flows use the R components and the same strips,
    # so they locate the same crossing orbit
    model = gluing.ModelCrossingMap(n=2)
    p0 = gluing.locate_periodic_orbit(model, 0, 2).point
    p1 = gluing.locate_periodic_orbit(model, 1, 2).point
    assert p0 == pytest.approx(p1, abs=1e-12)
    assert gluing.rectangle_chirality(0, 2) == gluing.rectangle_chirality(1, 2)


def test_itinerary_names_both_tori():
    model = gluing.ModelCrossingMap(n=2)
    rep = gluing.locate_periodic_orbit(model, 0, 2)
    assert rep.itinerary == ("T_3", "T_4")


def test_refined_rectangle_contains_same_fixed_point():
    # re-solving after shrinking the rectangle around the fixed point keeps it
    model = gluing.ModelCrossingMap(n=1)
    rep = gluing.locate_periodic_orbit(model, 0, 1)
    a, b = rep.point
    lo, hi = model.interval
    assert lo < a < hi and lo < b < hi
    shrunk_start = (a + 1e-4, b - 1e-4)
    rep2 = gluing.locate_periodic_orbit(model, 0, 1, start=shrunk_start)
    assert rep2.point[0] == pytest.approx(a, abs=1e-9)


def test_reverse_composition_same_fixed_point():
    # the sigma-conjugated model composed in reverse order fixes the same orbit:
    # the reverse return map is the inverse affine map, whose fixed point is equal
    model = gluing.ModelCrossingMap(n=1)
    fwd = gluing.locate_periodic_orbit(model, 0, 1).point

    def reverse_return(p):
        q = theta_inverse(model, 1, theta_inverse(model, 2, p))
        return q

    image = reverse_return(fwd)
    # fwd is fixed for the forward square, hence for its inverse as well
    assert image[0] == pytest.approx(fwd[0], abs=1e-8)
    assert image[1] == pytest.approx(fwd[1], abs=1e-8)
