"""Executable case analysis distinguishing the flows of one family.

Given two gluing indices m1 < m2, an orbit-preserving homeomorphism between
the corresponding surgered flows would act on the old fan clusters.  The
orientation-preserving branch dies on the handedness table: every torus
whose crossing-orbit index lies in (m1, m2] carries old chains of opposite
handedness in the two flows, yet a preserving map sends unique-old to
unique-old keeping handedness.  The orientation-reversing branch dies on
the even-extension rule: the chains attached to T_1 (always L) and to
T_{4n-1} (always R) would both be forced to grow even extensions, which the
intersection positivity forbids for one of them whatever the sign of k.
That premise (j = ceil(i/2) lies outside (m1, m2] for both end tori, so a
reversing map cannot send their chains to the unique old chain) is the
paper's case analysis and is not recomputed here; the one-lozenge
extensions of an old fan and their classification are what
`orbit-space --extend` writes.

Pairs touching m = 0 or m = 2n are reported Inconclusive: the argument is
only run inside the range where it is actually proved.

Each certificate branch has one constructor, which distinguish and
verify_certificate share; both hand the reversing one the end chains'
handedness only, and it applies the even-extension rule
(handedness.even_extension_allowed) and takes as witness the first end
torus, named once by _end_tori, that the rule refuses.  In the proven
range the end chains depend neither on the pair nor on k, so end_chains(n)
reads their handedness off their old fans once per run; the verifier never
reads it and takes the handedness from the closed form old_handedness.
Verdict computation is otherwise pure, so pair enumeration parallelizes
with any deterministic merge order.

non_r_covered_certificate computes the per-torus witness data for the
non-R-covered half of the theorem; no command writes it yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .gluing import STRIP_ANNULUS_INDEX
from .handedness import even_extension_allowed, old_handedness, old_sa_annulus
from .jsonout import render
from .model_torus import circumference
from .plug import IN, build_plug, component_of

INEQUIVALENT = "Inequivalent"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class BranchCertificate:
    orientation: str
    witness_torus: int
    lemma: str
    table_cells: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DistinguishVerdict:
    tag: str
    m1: int
    m2: int
    n: int
    k: int
    branches: tuple[BranchCertificate, ...] = ()
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "pair": [self.m1, self.m2],
            "n": self.n,
            "k": self.k,
            "verdict": self.tag,
            "reason": self.reason,
            "branches": [
                {"orientation": b.orientation, "witness_torus": b.witness_torus,
                 "lemma": b.lemma, "table_cells": b.table_cells}
                for b in self.branches
            ],
        }


def proven_range(m1: int, m2: int, n: int) -> bool:
    """Is (m1, m2) a pair the argument covers, 1 <= m1 < m2 <= 2n-1?"""
    return 1 <= m1 < m2 <= 2 * n - 1


def check_pair(m1: int, m2: int, n: int) -> tuple[int, int]:
    """The pair in increasing order; ValueError unless both lie in [0, 2n] and differ."""
    if m1 == m2:
        raise ValueError("the two gluing indices must differ")
    if m1 > m2:
        m1, m2 = m2, m1
    for m in (m1, m2):
        if not 0 <= m <= 2 * n:
            raise ValueError(f"gluing index {m} out of range [0, {2 * n}]")
    return m1, m2


def _preserving_tori(m1: int, m2: int) -> range:
    """The tori whose crossing-orbit index lies in (m1, m2]: T_{2m1+1}..T_{2m2}."""
    return range(2 * m1 + 1, 2 * m2 + 1)


def _preserving_branch(i: int, m1: int, m2: int, n: int) -> Optional[BranchCertificate]:
    """The preserving branch witnessed by T_i, or None if its handedness agrees."""
    h1, h2 = old_handedness(i, m1, n), old_handedness(i, m2, n)
    if h1 == h2:
        return None
    return BranchCertificate(orientation="preserving", witness_torus=i,
                             lemma="handedness-table",
                             table_cells={f"({i},{m1})": h1, f"({i},{m2})": h2})


def _end_tori(n: int) -> tuple[int, int]:
    """The tori T_1 and T_{4n-1}, whose old chains the reversing branch reads."""
    return (1, 4 * n - 1)


def _reversing_branch(hands: dict[int, str], n: int,
                      k: int) -> Optional[BranchCertificate]:
    """The reversing branch from {end torus: handedness of its old chain}.

    Both end chains would be forced to grow even extensions; the witness is
    the first end torus, in increasing order, whose chain the even-extension
    rule refuses, and None if it refuses neither.
    """
    allowed = {i: even_extension_allowed(hd, i, n, k) for i, hd in hands.items()}
    refuting = next((i for i in sorted(allowed) if not allowed[i]), None)
    if refuting is None:
        return None
    return BranchCertificate(
        orientation="reversing", witness_torus=refuting,
        lemma="even-extension-rule",
        table_cells={
            "handedness": {str(i): hd for i, hd in hands.items()},
            "extension_allowed": {str(i): ok for i, ok in allowed.items()},
            "sign_k": "+" if k > 0 else "-",
        })


def end_chains(n: int) -> dict[int, str]:
    """{1: handedness, 4n-1: handedness} of the end chains of the proven range.

    Each is read off its old fan through old_sa_annulus at m = 1.  The
    chain at T_i depends on m only through the rectangle chirality at its
    crossing orbit, which is the same for every m in [1, 2n-1]; so any m1
    of the proven range, [1, 2n-2], gives the same chains: T_1 is L and
    T_{4n-1} is R.  A run builds them once.
    """
    return {i: old_sa_annulus(i, 1, n) for i in _end_tori(n)}


def distinguish(m1: int, m2: int, n: int, k: int,
                ends: Optional[dict[int, str]] = None) -> DistinguishVerdict:
    """Inequivalent-with-certificate or Inconclusive for the pair (m1, m2).

    `ends` is end_chains(n) of the run this pair belongs to (ValueError
    unless it names exactly the tori 1 and 4n-1); without it the pair is a
    run of its own and builds them itself.
    """
    m1, m2 = check_pair(m1, m2, n)
    if k == 0:
        raise ValueError("surgery index k must be nonzero")
    if ends is not None and sorted(ends) != list(_end_tori(n)):
        raise ValueError(f"end chains at tori {sorted(ends)}, not at {_end_tori(n)}")
    if not proven_range(m1, m2, n):
        return DistinguishVerdict(INCONCLUSIVE, m1, m2, n, k,
                                  reason="outside proven range")

    # preserving branch: the first torus index whose crossing orbit flips
    preserving = next(filter(None, (_preserving_branch(i, m1, m2, n)
                                    for i in _preserving_tori(m1, m2))), None)
    if preserving is None:
        return DistinguishVerdict(INCONCLUSIVE, m1, m2, n, k,
                                  reason="no handedness witness found")
    reversing = _reversing_branch(ends or end_chains(n), n, k)
    if reversing is None:
        return DistinguishVerdict(INCONCLUSIVE, m1, m2, n, k,
                                  reason="even-extension obstruction failed")
    return DistinguishVerdict(INEQUIVALENT, m1, m2, n, k,
                              branches=(preserving, reversing))


def verify_certificate(verdict: DistinguishVerdict) -> bool:
    """Rebuild both branches of a certificate and compare them whole.

    An Inconclusive verdict carries no branches.  An Inequivalent one must
    lie in the proven range, with its preserving witness in _preserving_tori;
    its branches must then equal, in order, what the branch constructors
    give from old_handedness and even_extension_allowed for its pair.
    """
    if verdict.tag == INCONCLUSIVE:
        return not verdict.branches
    if verdict.tag != INEQUIVALENT or verdict.reason or not verdict.branches:
        return False
    m1, m2, n, k = verdict.m1, verdict.m2, verdict.n, verdict.k
    if k == 0 or not proven_range(m1, m2, n):
        return False
    i_w = verdict.branches[0].witness_torus
    if i_w not in _preserving_tori(m1, m2):
        return False
    hands = {i_end: old_handedness(i_end, m1, n) for i_end in _end_tori(n)}
    return verdict.branches == (_preserving_branch(i_w, m1, m2, n),
                                _reversing_branch(hands, n, k))


# -- non-R-covered certificates -----------------------------------------------------


def non_r_covered_certificate(m: int, n: int) -> dict:
    """Per-torus witness data for the non-R-covered property of the m-th flow.

    Every transverse torus is punctured once by a crossing orbit, inside the
    strip-carrying stable annulus; the other 2i+1 stable Reeb annuli survive,
    and the two boundary leaves of each surviving annulus lie on stable
    manifolds of distinct boundary orbits.
    """
    if not 0 <= m <= 2 * n:
        raise ValueError(f"m out of range [0, {2 * n}]")
    plug = build_plug(n)
    tori = []
    for i in range(1, 4 * n + 1):
        count = circumference(i)
        punctured_j = STRIP_ANNULUS_INDEX
        sign = component_of(i, IN)   # entrance-side stable leaves
        surviving = []
        for j in range(count):
            if j == punctured_j:
                continue
            lo = plug.orbit(i, j, sign)
            hi = plug.orbit(i, (j + 1) % count, sign)
            surviving.append({
                "annulus": j,
                "boundary_orbits": [f"gamma_{i}^{lo.j},{lo.sign}",
                                    f"gamma_{i}^{hi.j},{hi.sign}"],
            })
        if len(surviving) != count - 1 or any(
                lo == hi for lo, hi in (a["boundary_orbits"] for a in surviving)):
            raise AssertionError(f"surviving Reeb annuli of T_{i} are malformed")
        tori.append({
            "torus": i,
            "punctured_annulus": punctured_j,
            "surviving_reeb_annuli": surviving,
            "reeb_witness": surviving[0],
        })
    return {"m": m, "n": n, "punctured_tori": tori}


def certificate_to_json(verdict: DistinguishVerdict) -> str:
    return render(verdict.to_json())
