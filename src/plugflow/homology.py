"""Integer intersection calculus over the transverse-torus basis.

First homology is seen only through algebraic intersection numbers with the
4n transverse tori T_1..T_4n: a class is a length-4n integer vector.  The
crossing orbits alpha_1..alpha_2n satisfy Int(alpha_j, T_t) = 1 exactly for
t in {2j-1, 2j}; the surgery longitude of alpha_j represents the same
vector, the meridian is null-homologous, so after index-k surgery the new
meridian represents k * alpha_class(j).

Every decision procedure below exploits one fact: periodic orbits of the
pre-surgery flow cross each torus non-negatively, so any corner class whose
forced intersection number goes negative is impossible.  Crossing signs
(co-oriented vs not, per annulus) enter as explicit +/-1 flags; the defaults
are the conventions used in the forbidden-configuration arguments.

Pure functions on plain tuples; embarrassingly parallel over configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

H1Vector = tuple[int, ...]

FORBIDDEN = "Forbidden"
CONSISTENT = "Consistent"


def h1_zero(n: int) -> H1Vector:
    return (0,) * (4 * n)


def alpha_class(j: int, n: int) -> H1Vector:
    """Class of the j-th crossing orbit: one positive crossing of T_2j-1 and of T_2j."""
    if not 1 <= j <= 2 * n:
        raise ValueError(f"j must be in [1, {2 * n}], got {j}")
    v = [0] * (4 * n)
    v[2 * j - 2] = 1
    v[2 * j - 1] = 1
    return tuple(v)


def h1_add(a: H1Vector, b: H1Vector) -> H1Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def h1_scale(k: int, a: H1Vector) -> H1Vector:
    return tuple(k * x for x in a)


def h1_neg(a: H1Vector) -> H1Vector:
    return h1_scale(-1, a)


def intersection(v: H1Vector, torus: int) -> int:
    """Int(v, T_torus), tori numbered from 1."""
    return v[torus - 1]


def surgery_correction(k: int, s: tuple[int, ...], n: int) -> H1Vector:
    """k * sum_j s_j [alpha_j]: the class the surgered meridians contribute."""
    total = h1_zero(n)
    for j, sj in enumerate(s, start=1):
        if sj:
            total = h1_add(total, h1_scale(k * sj, alpha_class(j, n)))
    return total


@dataclass(frozen=True)
class NewLozengeData:
    """Crossing counts of a new annulus: s_j = geometric crossings of alpha_j, sum > 0."""

    s: tuple[int, ...]

    def __post_init__(self):
        if any(x < 0 for x in self.s):
            raise ValueError("crossing counts must be nonnegative")
        if sum(self.s) == 0:
            raise ValueError("a new annulus crosses the surgered orbits at least once")

    @property
    def n(self) -> int:
        if len(self.s) % 2:
            raise ValueError("s-vector length must be 2n")
        return len(self.s) // 2


def one_crossing(j: int, n: int) -> NewLozengeData:
    """Crossing data of an annulus that crosses alpha_j once and no other surgered orbit."""
    if not 1 <= j <= 2 * n:
        raise ValueError(f"j must be in [1, {2 * n}], got {j}")
    s = [0] * (2 * n)
    s[j - 1] = 1
    return NewLozengeData(tuple(s))


@dataclass(frozen=True)
class Verdict:
    tag: str                       # Forbidden | Consistent
    witness_torus: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class TwoNewAdjacentConfig:
    """Two new lozenges sharing an edge; corners omega1-omega2-omega3.

    The middle corner class is forced twice, once through each annulus:

        [omega2] = -[omega1] + sign1 * k * sum_j s1_j [alpha_j]
        [omega2] = -[omega3] + sign2 * k * sum_j s2_j [alpha_j]

    sign1/sign2 are the per-annulus crossing co-orientation flags; the
    defaults (-1, +1) are the standard convention.
    """

    n: int
    k: int
    omega1: H1Vector
    omega3: H1Vector
    s1: NewLozengeData
    s2: NewLozengeData
    sign1: int = -1
    sign2: int = 1

    def __post_init__(self):
        if self.k == 0:
            raise ValueError("surgery index k must be nonzero")
        for v in (self.omega1, self.omega3):
            if len(v) != 4 * self.n:
                raise ValueError("corner class has wrong length")
        for s in (self.s1, self.s2):
            if len(s.s) != 2 * self.n:
                raise ValueError("s-vector has wrong length")
        if abs(self.sign1) != 1 or abs(self.sign2) != 1:
            raise ValueError("sign flags must be +1 or -1")

    def forced_middle_classes(self) -> tuple[H1Vector, H1Vector]:
        v1 = h1_add(h1_neg(self.omega1),
                    h1_scale(self.sign1, surgery_correction(self.k, self.s1.s, self.n)))
        v2 = h1_add(h1_neg(self.omega3),
                    h1_scale(self.sign2, surgery_correction(self.k, self.s2.s, self.n)))
        return v1, v2


def decide_two_new_adjacent(cfg: TwoNewAdjacentConfig) -> Verdict:
    """Can two new lozenges share an edge?  Forbidden unless the forced middle class works.

    The middle corner must be a genuine periodic-orbit class: the two forced
    expressions must agree and be componentwise nonnegative.  The witness is
    the first torus where this fails for every assignment.
    """
    v1, v2 = cfg.forced_middle_classes()
    for t in range(1, 4 * cfg.n + 1):
        a, b = intersection(v1, t), intersection(v2, t)
        if a != b:
            return Verdict(FORBIDDEN, t,
                           f"middle class forced to {a} through one annulus "
                           f"and {b} through the other")
        if a < 0:
            return Verdict(FORBIDDEN, t,
                           f"Int(omega2, T_{t}) forced to {a} < 0")
    return Verdict(CONSISTENT, None, "a nonnegative middle class exists")


@dataclass(frozen=True)
class BridgeConfig:
    """Two old lozenges joined through one annulus crossing the surgered orbits.

    The crossing counts may all vanish here (then the middle annulus is not a
    new lozenge and the configuration is vacuous), so s is a raw count tuple
    rather than a NewLozengeData.
    """

    n: int
    k: int
    omega1: H1Vector
    omega2: H1Vector
    s: tuple[int, ...]

    def __post_init__(self):
        if isinstance(self.s, NewLozengeData):
            object.__setattr__(self, "s", self.s.s)
        if self.k == 0:
            raise ValueError("surgery index k must be nonzero")
        if any(v != 0 for v in self.omega1 + self.omega2):
            raise ValueError("old corner orbits are disjoint from the tori: classes must vanish")
        if len(self.s) != 2 * self.n:
            raise ValueError("s-vector has wrong length")
        if any(x < 0 for x in self.s):
            raise ValueError("crossing counts must be nonnegative")


def decide_bridge(cfg: BridgeConfig) -> Verdict:
    """Old-new-old bridges force k*s_j = 0, impossible once some s_j > 0 and k != 0."""
    for j, sj in enumerate(cfg.s, start=1):
        if sj > 0:
            return Verdict(
                FORBIDDEN, 2 * j,
                f"Int through T_{2 * j} forces k*s_{j} = {cfg.k * sj} = 0")
    return Verdict(CONSISTENT, None, "no crossing of the surgered orbits (vacuous)")


def decide_sa_extension(handedness: str, k: int, s: NewLozengeData) -> Verdict:
    """Can an odd separatrix-adjacent annulus of the given handedness grow one more component?

    Runs the signed intersection computation for the candidate even
    extension: the new boundary orbit's class is forced to

        R:  [beta] = -[alpha] - k * sum_j s_j [alpha_j]
        L:  [beta] = -[alpha] + k * sum_j s_j [alpha_j]

    and positivity of Int(beta, .) decides.  The old boundary orbit alpha is
    disjoint from the tori, so [alpha] = 0 (as BridgeConfig enforces for old
    corners), and this forbids exactly (R, k>0) and (L, k<0).
    """
    if handedness not in ("L", "R"):
        raise ValueError("handedness must be 'L' or 'R'")
    if k == 0:
        raise ValueError("surgery index k must be nonzero")
    n = s.n
    sign = -1 if handedness == "R" else 1
    beta = h1_scale(sign, surgery_correction(k, s.s, n))
    for t in range(1, 4 * n + 1):
        val = intersection(beta, t)
        if val < 0:
            return Verdict(FORBIDDEN, t,
                           f"Int(beta, T_{t}) forced to {val} < 0 "
                           f"({handedness}-type, k={k})")
    return Verdict(CONSISTENT, None, "forced boundary class is nonnegative")
