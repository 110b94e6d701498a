"""Symbolic model of the two-piece boundary plug.

The plug has two components (+ and -) exchanged by an involution sigma that
reverses the flow direction.  Each component has 4n torus boundary
components; the vector field enters through T_i^- for odd i and through
T_i^+ for even i, and exits through the opposite copies.  Every entrance
torus carries a lamination made of 2i+2 Reeb annuli A_i^{j,s} (consecutive
annuli sharing the compact leaf c_i^{j,s}); exit tori carry the u-side
picture, and sigma(A_i^{j,s}) = A_i^{j,u} index for index.  Each compact
leaf is cut out by a boundary periodic orbit gamma_i^{j,+/-}.

Dynamical facts that cannot be recomputed from this data (hyperbolicity,
transitivity of the two basic pieces, the free-homotopy rigidity of
non-boundary periodic orbits) are recorded as axiom strings on the PlugSpec
and never checked at runtime.

Everything here is immutable after build_plug and safe to share across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .jsonout import render

IN = "in"
OUT = "out"
PLUS = "+"
MINUS = "-"

AXIOMS = (
    "maximal invariant sets of both components are saddle hyperbolic and transitive",
    "non-boundary periodic orbits are freely homotopic to no other orbit nor to boundary curves",
    "sigma is an involutive diffeomorphism with sigma_* X = -X",
)


def component_of(i: int, side: str) -> str:
    """Which component (+/-) holds the torus T_i on the given side."""
    if side == IN:
        return MINUS if i % 2 == 1 else PLUS
    return PLUS if i % 2 == 1 else MINUS


@dataclass(frozen=True, slots=True)
class LaminationAnnulus:
    """Reeb lamination annulus A_i^{j,s/u} with its two compact boundary leaves."""

    i: int
    j: int
    foliation: str  # "s" on entrance tori, "u" on exit tori

    def boundary_leaves(self) -> tuple[str, str]:
        m = 2 * self.i + 2
        return (leaf_name(self.i, self.j, self.foliation),
                leaf_name(self.i, (self.j + 1) % m, self.foliation))


def leaf_name(i: int, j: int, foliation: str) -> str:
    return f"c_{i}^{j},{foliation}"


@dataclass(frozen=True, slots=True)
class BoundaryTorus:
    i: int
    side: str            # "in" | "out"
    component: str       # "+" | "-"
    annuli: tuple[LaminationAnnulus, ...]

    @property
    def foliation(self) -> str:
        return "s" if self.side == IN else "u"


@dataclass(frozen=True, slots=True)
class BoundaryOrbit:
    """Boundary periodic orbit gamma_i^{j,sign}.

    For even i the + orbit is a u-boundary orbit (its free stable separatrix
    cuts the entrance torus in c_i^{j,s}); sigma reverses the flow, so the
    sign swap also swaps the s/u boundary kind.
    """

    i: int
    j: int
    sign: str
    kind: str  # "s-boundary" | "u-boundary"


def _orbit_kind(i: int, sign: str) -> str:
    plus_kind = "u-boundary" if i % 2 == 0 else "s-boundary"
    if sign == PLUS:
        return plus_kind
    return "s-boundary" if plus_kind == "u-boundary" else "u-boundary"


@dataclass(frozen=True)
class PlugSpec:
    n: int
    tori: dict[tuple[int, str], BoundaryTorus]
    orbits: dict[tuple[int, int, str], BoundaryOrbit]
    axioms: tuple[str, ...] = field(default=AXIOMS)

    def torus(self, i: int, side: str) -> BoundaryTorus:
        return self.tori[(i, side)]

    def orbit(self, i: int, j: int, sign: str) -> BoundaryOrbit:
        return self.orbits[(i, (j % (2 * i + 2)), sign)]


def build_plug(n: int) -> PlugSpec:
    """Populate the symbolic plug: 8n boundary tori, their laminations and orbits."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    tori: dict[tuple[int, str], BoundaryTorus] = {}
    orbits: dict[tuple[int, int, str], BoundaryOrbit] = {}
    for i in range(1, 4 * n + 1):
        m = 2 * i + 2
        for side in (IN, OUT):
            fol = "s" if side == IN else "u"
            annuli = tuple(LaminationAnnulus(i, j, fol) for j in range(m))
            tori[(i, side)] = BoundaryTorus(i, side, component_of(i, side), annuli)
        for j in range(m):
            for sign in (PLUS, MINUS):
                orbits[(i, j, sign)] = BoundaryOrbit(i, j, sign, _orbit_kind(i, sign))
    return PlugSpec(n=n, tori=tori, orbits=orbits)


# -- the involution ----------------------------------------------------------

def sigma_annulus(a: LaminationAnnulus) -> LaminationAnnulus:
    """sigma(A_i^{j,s}) = A_i^{j,u} and back; indices are preserved."""
    return LaminationAnnulus(a.i, a.j, "u" if a.foliation == "s" else "s")


# -- Euler-Poincare bookkeeping ----------------------------------------------

def genus_of_surface(n: int) -> int:
    """Genus forced by the singularity data: 4n singular points, the i-th with 2i+2 prongs.

    The index relation sum_i (2 - p_i) = 4 - 4g is solved exactly.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = sum(2 - (2 * i + 2) for i in range(1, 4 * n + 1))
    assert (4 - total) % 4 == 0
    return (4 - total) // 4


# -- boundary frames ----------------------------------------------------------

def frame_sign(i: int, foliation: str, e2_choice: str) -> int:
    """Orientation sign of the boundary frame (e1, e2, e3) at a compact leaf.

    e1 points across the leaf towards the next annulus, e3 is the flow
    direction, and e2 runs along the leaf in the direction selected by
    e2_choice ("contracting" or "expanding" holonomy).  The frame is
    positively oriented exactly when e2 is holonomy-contracting for odd i and
    holonomy-expanding for even i; the answer does not depend on s vs u.
    """
    if foliation not in ("s", "u"):
        raise ValueError("foliation must be 's' or 'u'")
    if e2_choice not in ("contracting", "expanding"):
        raise ValueError("e2_choice must be 'contracting' or 'expanding'")
    positive = "contracting" if i % 2 == 1 else "expanding"
    return 1 if e2_choice == positive else -1


# -- JSON round trip -----------------------------------------------------------

def plug_document(plug: PlugSpec) -> dict:
    """The plug's JSON document.  "tori" and "orbits" are generators, so only
    one torus's dicts are alive while it is encoded, and the document can be
    encoded once."""
    # the keys are (i, side) and (i, j, sign): sorting them sorts the values
    return {
        "n": plug.n,
        "axioms": list(plug.axioms),
        "tori": (
            {
                "i": t.i,
                "side": t.side,
                "component": t.component,
                "annuli": [
                    {"j": a.j, "foliation": a.foliation,
                     "boundary_leaves": list(a.boundary_leaves())}
                    for a in t.annuli
                ],
            }
            for t in map(plug.tori.get, sorted(plug.tori))
        ),
        "orbits": (
            {"i": o.i, "j": o.j, "sign": o.sign, "kind": o.kind}
            for o in map(plug.orbits.get, sorted(plug.orbits))
        ),
    }


def plug_to_json(plug: PlugSpec) -> str:
    return render(plug_document(plug))


def plug_from_json(text: str) -> PlugSpec:
    doc = json.loads(text)
    tori = {}
    for td in doc["tori"]:
        annuli = tuple(LaminationAnnulus(td["i"], ad["j"], ad["foliation"])
                       for ad in td["annuli"])
        tori[(td["i"], td["side"])] = BoundaryTorus(td["i"], td["side"],
                                                    td["component"], annuli)
    orbits = {}
    for od in doc["orbits"]:
        orbits[(od["i"], od["j"], od["sign"])] = BoundaryOrbit(
            od["i"], od["j"], od["sign"], od["kind"])
    return PlugSpec(n=doc["n"], tori=tori, orbits=orbits,
                    axioms=tuple(doc["axioms"]))
