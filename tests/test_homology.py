"""Homology decisions against literal integer enumeration."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from plugflow import homology as hom
from plugflow.gluing import crossing_orbit_index

from oracles import (_forced_components, brute_force_bridge, brute_force_two_new,
                     brute_force_two_new_full_box)


def unit(j, n):
    v = [0] * (2 * n)
    v[j - 1] = 1
    return tuple(v)


# -- the incidence alpha_j <-> T_2j-1, T_2j --------------------------------------------

def alpha_support(j, n):
    """The class of alpha_j as a 0/1 vector over T_1..T_4n, read off the gluing."""
    return tuple(int(crossing_orbit_index(t) == j) for t in range(1, 4 * n + 1))


def test_alpha_class_values():
    assert alpha_support(1, 1) == (1, 1, 0, 0)
    assert alpha_support(2, 2) == (0, 0, 1, 1, 0, 0, 0, 0)


def test_alpha_classes_sum_to_ones():
    # each torus meets exactly one crossing orbit
    for n in (1, 2, 3, 4):
        total = [sum(col) for col in zip(*(alpha_support(j, n)
                                           for j in range(1, 2 * n + 1)))]
        assert total == [1] * (4 * n)


def test_alpha_classes_linearly_independent():
    # each orbit meets its own two tori, T_2j-1 and T_2j, and no other
    for n in (1, 2, 3, 4):
        supports = [set(t for t, v in enumerate(alpha_support(j, n), start=1) if v)
                    for j in range(1, 2 * n + 1)]
        for a, b in itertools.combinations(supports, 2):
            assert not (a & b)
        assert supports == [{2 * j - 1, 2 * j} for j in range(1, 2 * n + 1)]


# -- two new adjacent lozenges --------------------------------------------------------

def test_two_new_adjacent_proof_instance():
    cfg = hom.TwoNewAdjacentConfig(n=1, k=7, omega1=hom.h1_zero(1),
                                   omega3=hom.h1_zero(1),
                                   s1=hom.NewLozengeData((0, 1)),
                                   s2=hom.NewLozengeData((0, 1)))
    verdict = hom.decide_two_new_adjacent(cfg)
    assert verdict.tag == hom.FORBIDDEN
    # alpha_2 meets T_3 and T_4, so the first violated torus is T_3 and the
    # forced value is -k * s_1^2 = -7
    assert verdict.witness_torus == 3
    assert "-7" in verdict.detail


def test_two_new_adjacent_rejects_zero_s_vector():
    with pytest.raises(ValueError):
        hom.NewLozengeData((0, 0))


def test_two_new_adjacent_sweep_against_brute_force():
    s_vectors = [s for s in itertools.product(range(4), repeat=2) if sum(s)]
    omegas = [(0, 0, 0, 0), (1, 0, 2, 0), (0, 3, 0, 1)]
    checked = 0
    for k in [k for k in range(-5, 6) if k]:
        for s1 in s_vectors:
            for s2 in s_vectors:
                for o1, o3 in itertools.product(omegas, repeat=2):
                    cfg = hom.TwoNewAdjacentConfig(
                        n=1, k=k, omega1=o1, omega3=o3,
                        s1=hom.NewLozengeData(s1), s2=hom.NewLozengeData(s2))
                    got = hom.decide_two_new_adjacent(cfg).tag
                    want = brute_force_two_new(1, k, o1, o3, s1, s2)
                    assert got == want, (k, s1, s2, o1, o3)
                    checked += 1
    assert checked == 10 * 15 * 15 * 9


def test_two_new_adjacent_full_box_subsample():
    # the n=1 whole-vector enumeration corroborates the componentwise oracle
    for k in (-3, 2, 7):
        for s1, s2 in [((1, 0), (0, 1)), ((0, 2), (1, 1)), ((3, 0), (3, 0))]:
            cfg = hom.TwoNewAdjacentConfig(
                n=1, k=k, omega1=(0, 0, 0, 0), omega3=(0, 0, 0, 0),
                s1=hom.NewLozengeData(s1), s2=hom.NewLozengeData(s2))
            got = hom.decide_two_new_adjacent(cfg).tag
            assert got == brute_force_two_new_full_box(
                1, k, (0, 0, 0, 0), (0, 0, 0, 0), s1, s2)


def test_two_new_adjacent_consistent_instance_exists():
    # the two forced classes can agree and be nonnegative, so the decision is
    # not constantly Forbidden: T_1, T_2 read 2 = 2 and T_3, T_4 read 0 = 0
    omega3 = (-2, -2, -2, -2)
    cfg = hom.TwoNewAdjacentConfig(n=1, k=-2, omega1=(0, 0, 0, 0), omega3=omega3,
                                   s1=hom.NewLozengeData((1, 0)),
                                   s2=hom.NewLozengeData((0, 1)))
    assert hom.decide_two_new_adjacent(cfg) == hom.Verdict(
        hom.CONSISTENT, None, "a nonnegative middle class exists")
    assert brute_force_two_new(1, -2, (0, 0, 0, 0), omega3, (1, 0), (0, 1)) \
        == hom.CONSISTENT


# -- bridges ---------------------------------------------------------------------------

def test_bridge_forbidden():
    cfg = hom.BridgeConfig(n=1, k=7, omega1=hom.h1_zero(1),
                           omega2=hom.h1_zero(1), s=(1, 0))
    verdict = hom.decide_bridge(cfg)
    assert verdict.tag == hom.FORBIDDEN
    # alpha_1 meets T_1 and T_2, so the first failing torus is T_1
    assert verdict.witness_torus == 1
    assert verdict.detail == "Int through T_1 forces k*s_1 = 7 = 0"


def test_bridge_zero_crossings_vacuously_consistent():
    cfg = hom.BridgeConfig(n=1, k=7, omega1=hom.h1_zero(1),
                           omega2=hom.h1_zero(1), s=(0, 0))
    verdict = hom.decide_bridge(cfg)
    assert verdict.tag == hom.CONSISTENT
    assert "vacuous" in verdict.detail


def test_bridge_accepts_new_lozenge_data():
    cfg = hom.BridgeConfig(n=1, k=7, omega1=hom.h1_zero(1),
                           omega2=hom.h1_zero(1), s=hom.NewLozengeData((1, 0)))
    assert cfg.s == (1, 0)


def test_bridge_requires_vanishing_old_classes():
    with pytest.raises(ValueError):
        hom.BridgeConfig(n=1, k=7, omega1=(1, 0, 0, 0), omega2=hom.h1_zero(1),
                         s=(1, 0))


def test_bridge_sweep_against_brute_force():
    for n in (1, 2):
        s_vectors = list(itertools.product(range(4), repeat=2 * n))[:64]
        for k in [k for k in range(-5, 6) if k]:
            for s in s_vectors:
                cfg = hom.BridgeConfig(n=n, k=k, omega1=hom.h1_zero(n),
                                       omega2=hom.h1_zero(n), s=s)
                got = hom.decide_bridge(cfg).tag
                assert got == brute_force_bridge(n, k, s)


# -- permutation symmetry -----------------------------------------------------------

@given(st.permutations([1, 2]), st.integers(-5, 5).filter(bool),
       st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(sum))
def test_two_new_relabeling_symmetry(perm, k, s1):
    n = 1

    def permute_s(s):
        out = [0] * (2 * n)
        for j, sj in enumerate(s, start=1):
            out[perm[j - 1] - 1] = sj
        return tuple(out)

    def permute_omega(v):
        out = [0] * (4 * n)
        for j in range(1, 2 * n + 1):
            pj = perm[j - 1]
            out[2 * pj - 2] = v[2 * j - 2]
            out[2 * pj - 1] = v[2 * j - 1]
        return tuple(out)

    omega = (0, 1, 2, 0)
    base = hom.TwoNewAdjacentConfig(n=n, k=k, omega1=omega,
                                    omega3=hom.h1_zero(n),
                                    s1=hom.NewLozengeData(s1),
                                    s2=hom.NewLozengeData(s1))
    relabeled = hom.TwoNewAdjacentConfig(n=n, k=k, omega1=permute_omega(omega),
                                         omega3=hom.h1_zero(n),
                                         s1=hom.NewLozengeData(permute_s(s1)),
                                         s2=hom.NewLozengeData(permute_s(s1)))
    assert (hom.decide_two_new_adjacent(base).tag
            == hom.decide_two_new_adjacent(relabeled).tag)


# -- SA extensions ---------------------------------------------------------------------

def test_sa_extension_table():
    s = hom.NewLozengeData((0, 1))
    assert hom.decide_sa_extension("R", 7, s).tag == hom.FORBIDDEN
    assert hom.decide_sa_extension("L", -7, hom.NewLozengeData((1, 0))).tag \
        == hom.FORBIDDEN
    assert hom.decide_sa_extension("R", -7, s).tag == hom.CONSISTENT
    assert hom.decide_sa_extension("L", 7, s).tag == hom.CONSISTENT


@given(st.integers(-100, 100).filter(bool),
       st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(sum))
def test_sa_extension_exactly_one_handedness(k, s):
    data = hom.NewLozengeData(s)
    tags = {h: hom.decide_sa_extension(h, k, data).tag for h in ("L", "R")}
    assert sorted(tags.values()) == [hom.CONSISTENT, hom.FORBIDDEN]


# -- the closed form against the dense sums ---------------------------------------------

def _sparse(n, entries):
    """n zeros with the drawn (index mod n, value) entries set."""
    v = [0] * n
    for i, x in entries:
        v[i % n] = x
    return tuple(v)


def _reference_two_new(n, k, omega1, omega3, s1, s2):
    """decide_two_new_adjacent torus by torus from the oracle's dense sums."""
    for t in range(1, 4 * n + 1):
        a = _forced_components(omega1, -1, k, s1, t)
        b = _forced_components(omega3, 1, k, s2, t)
        if a != b:
            return hom.Verdict(hom.FORBIDDEN, t,
                               f"middle class forced to {a} through one annulus "
                               f"and {b} through the other")
        if a < 0:
            return hom.Verdict(hom.FORBIDDEN, t, f"Int(omega2, T_{t}) forced to {a} < 0")
    return hom.Verdict(hom.CONSISTENT, None, "a nonnegative middle class exists")


def _reference_sa(handedness, k, s):
    """decide_sa_extension torus by torus from the oracle's dense sums."""
    n = len(s) // 2
    sign = -1 if handedness == "R" else 1
    for t in range(1, 4 * n + 1):
        val = _forced_components(hom.h1_zero(n), sign, k, s, t)
        if val < 0:
            return hom.Verdict(hom.FORBIDDEN, t,
                               f"Int(beta, T_{t}) forced to {val} < 0 "
                               f"({handedness}-type, k={k})")
    return hom.Verdict(hom.CONSISTENT, None, "forced boundary class is nonnegative")


def _reference_bridge(k, s):
    """decide_bridge torus by torus from the oracle's dense sums."""
    n = len(s) // 2
    for t in range(1, 4 * n + 1):
        val = _forced_components(hom.h1_zero(n), 1, k, s, t)
        if val != 0:
            return hom.Verdict(hom.FORBIDDEN, t,
                               f"Int through T_{t} forces k*s_{(t + 1) // 2} = {val} = 0")
    return hom.Verdict(hom.CONSISTENT, None, "no crossing of the surgered orbits (vacuous)")


_ENTRIES = st.lists(st.tuples(st.integers(0, 255), st.integers(1, 3)),
                    min_size=1, max_size=3)
_OMEGA_ENTRIES = st.lists(st.tuples(st.integers(0, 255), st.integers(-6, 6)), max_size=3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.integers(-9, 9).filter(bool), _ENTRIES, _ENTRIES,
       _OMEGA_ENTRIES, _OMEGA_ENTRIES, st.booleans())
def test_closed_form_matches_dense_sums(n, k, e1, e2, o1, o3, matched):
    s1, s2 = _sparse(2 * n, e1), _sparse(2 * n, e2)
    omega1 = _sparse(4 * n, o1)
    if matched:
        # omega3 = omega1 + k * (sum s1 + sum s2) agrees on every torus; o3 moves one entry
        zero = hom.h1_zero(n)
        omega3 = tuple(omega1[t - 1] + x + _forced_components(zero, 1, k, s1, t)
                       + _forced_components(zero, 1, k, s2, t)
                       for t, x in enumerate(_sparse(4 * n, o3[:1]), start=1))
    else:
        omega3 = _sparse(4 * n, o3)
    cfg = hom.TwoNewAdjacentConfig(n=n, k=k, omega1=omega1, omega3=omega3,
                                   s1=hom.NewLozengeData(s1), s2=hom.NewLozengeData(s2))
    got = hom.decide_two_new_adjacent(cfg)
    assert got == _reference_two_new(n, k, omega1, omega3, s1, s2)
    if n <= 2:
        assert got.tag == brute_force_two_new(n, k, omega1, omega3, s1, s2)
    for handedness in ("L", "R"):
        for data in (s1, s2):
            assert (hom.decide_sa_extension(handedness, k, hom.NewLozengeData(data))
                    == _reference_sa(handedness, k, data))
    for data in (s1, s2):
        bridge = hom.BridgeConfig(n=n, k=k, omega1=hom.h1_zero(n), omega2=hom.h1_zero(n),
                                  s=data)
        assert hom.decide_bridge(bridge) == _reference_bridge(k, data)
