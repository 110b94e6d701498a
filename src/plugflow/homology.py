"""Integer intersection calculus over the transverse-torus basis.

First homology is seen only through algebraic intersection numbers with the
4n transverse tori T_1..T_4n.  The crossing orbit alpha_j meets T_t once,
positively, exactly when j = crossing_orbit_index(t) = ceil(t/2); the
surgery longitude of alpha_j has the same intersections, the meridian is
null-homologous, so after index-k surgery an annulus crossing alpha_j s_j
times contributes k * s_j to its intersection with T_t.  _crossing is the
one home of that number; a corner class given explicitly (an omega) is a
length-4n vector of its intersections.

Every decision procedure below exploits one fact: periodic orbits of the
pre-surgery flow cross each torus non-negatively, so any corner class whose
forced intersection number goes negative is impossible.  Each decision
scans the tori in increasing order, so its witness is the first failing one.

Pure functions on plain tuples; embarrassingly parallel over configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gluing import crossing_orbit_index

H1Vector = tuple[int, ...]

FORBIDDEN = "Forbidden"
CONSISTENT = "Consistent"


def h1_zero(n: int) -> H1Vector:
    return (0,) * (4 * n)


def _crossing(k: int, s: tuple[int, ...], t: int) -> int:
    """Int(k * sum_j s_j [alpha_j], T_t): only alpha_ceil(t/2) meets T_t."""
    return k * s[crossing_orbit_index(t) - 1]


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

    The middle corner class is forced twice, once through each annulus, with
    the standard crossing co-orientations of the two annuli fixed as the
    signs -1 and +1:

        [omega2] = -[omega1] - k * sum_j s1_j [alpha_j]
        [omega2] = -[omega3] + k * sum_j s2_j [alpha_j]
    """

    n: int
    k: int
    omega1: H1Vector
    omega3: H1Vector
    s1: NewLozengeData
    s2: NewLozengeData

    def __post_init__(self):
        if self.k == 0:
            raise ValueError("surgery index k must be nonzero")
        for v in (self.omega1, self.omega3):
            if len(v) != 4 * self.n:
                raise ValueError("corner class has wrong length")
        for s in (self.s1, self.s2):
            if len(s.s) != 2 * self.n:
                raise ValueError("s-vector has wrong length")


def decide_two_new_adjacent(cfg: TwoNewAdjacentConfig) -> Verdict:
    """Can two new lozenges share an edge?  Forbidden unless the forced middle class works.

    The middle corner must be a genuine periodic-orbit class: the two forced
    expressions must agree and be componentwise nonnegative.  The witness is
    the first torus where this fails for every assignment.
    """
    for t in range(1, 4 * cfg.n + 1):
        a = -cfg.omega1[t - 1] - _crossing(cfg.k, cfg.s1.s, t)
        b = -cfg.omega3[t - 1] + _crossing(cfg.k, cfg.s2.s, t)
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
    """Old-new-old bridges force Int(k * sum_j s_j [alpha_j], T_t) = 0 on every torus."""
    for t in range(1, 4 * cfg.n + 1):
        val = _crossing(cfg.k, cfg.s, t)
        if val:
            return Verdict(FORBIDDEN, t,
                           f"Int through T_{t} forces k*s_{crossing_orbit_index(t)} = {val} = 0")
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
    signed_k = -k if handedness == "R" else k
    for t in range(1, 4 * s.n + 1):
        val = _crossing(signed_k, s.s, t)
        if val < 0:
            return Verdict(FORBIDDEN, t,
                           f"Int(beta, T_{t}) forced to {val} < 0 "
                           f"({handedness}-type, k={k})")
    return Verdict(CONSISTENT, None, "forced boundary class is nonnegative")
