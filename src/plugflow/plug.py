"""Symbolic model of the two-piece boundary plug.

The plug has two components (+ and -) exchanged by an involution sigma that
reverses the flow direction.  Each component has 4n torus boundary
components; the vector field enters through T_i^- for odd i and through
T_i^+ for even i, and exits through the opposite copies.  Every entrance
torus carries a lamination made of 2i+2 Reeb annuli A_i^{j,s} (consecutive
annuli sharing the compact leaf c_i^{j,s}); exit tori carry the u-side
picture, and sigma(A_i^{j,s}) = A_i^{j,u} index for index.  Each compact
leaf is cut out by a boundary periodic orbit gamma_i^{j,+/-} in the component
holding T_i on that side: component_of is the one home of that sign.

Every record is a closed form of its indices, so a PlugSpec holds only n.
Dynamical facts that cannot be recomputed from this data (hyperbolicity,
transitivity of the two basic pieces, the free-homotopy rigidity of
non-boundary periodic orbits) are the AXIOMS strings of the plug document,
never checked at runtime.  Everything here is immutable and thread-safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import zip_longest

from .jsonout import render
from .model_torus import circumference

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
        m = circumference(self.i)
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
    """The orbit under the entrance torus's stable leaves is a u-boundary orbit."""
    return "u-boundary" if sign == component_of(i, IN) else "s-boundary"


@dataclass(frozen=True, slots=True)
class PlugSpec:
    """The plug of size n, i in [1, 4n]; an index outside it raises KeyError."""

    n: int

    def torus(self, i: int, side: str) -> BoundaryTorus:
        if not 1 <= i <= 4 * self.n or side not in (IN, OUT):
            raise KeyError((i, side))
        fol = "s" if side == IN else "u"
        return BoundaryTorus(i, side, component_of(i, side),
                             tuple(LaminationAnnulus(i, j, fol) for j in range(circumference(i))))

    def orbit(self, i: int, j: int, sign: str) -> BoundaryOrbit:
        if not 1 <= i <= 4 * self.n or sign not in (PLUS, MINUS):
            raise KeyError((i, j, sign))
        return BoundaryOrbit(i, j % circumference(i), sign, _orbit_kind(i, sign))


def build_plug(n: int) -> PlugSpec:
    """The symbolic plug: 8n boundary tori, their laminations and orbits."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return PlugSpec(n)


# -- the involution ----------------------------------------------------------

def sigma_annulus(a: LaminationAnnulus) -> LaminationAnnulus:
    """sigma(A_i^{j,s}) = A_i^{j,u} and back; indices are preserved."""
    return LaminationAnnulus(a.i, a.j, "u" if a.foliation == "s" else "s")


# -- Euler-Poincare bookkeeping ----------------------------------------------

def genus_of_surface(n: int) -> int:
    """Genus forced by the singularity data: 4n singular points, the i-th with 2i+2 prongs.

    The index relation sum_i (2 - p_i) = -2 sum_i i = -4n(4n+1) = 4 - 4g
    gives g = 4n^2 + n + 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 4 * n * n + n + 1


# -- boundary frames ----------------------------------------------------------

def frame_sign(i: int) -> int:
    """Orientation sign of the boundary frame (e1, e2, e3) at a compact leaf of T_i.

    e1 points across the leaf towards the next annulus, e3 is the flow
    direction, and e2 runs along the leaf in the holonomy-contracting
    direction.  The frame is positively oriented exactly for odd i, on s and
    u leaves alike.
    """
    return 1 if i % 2 == 1 else -1


# -- JSON document -------------------------------------------------------------

def plug_document(plug: PlugSpec) -> dict:
    """The plug's JSON document, the one home of its format.  "tori" and
    "orbits" are generators, so only one torus's dicts are alive while it is
    encoded, and the document can be encoded once.  Tori run by i, then "in"
    before "out"; orbits by i, then j, then "+" before "-"."""
    indices = range(1, 4 * plug.n + 1)
    return {
        "n": plug.n,
        "axioms": list(AXIOMS),
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
            for t in (plug.torus(i, side) for i in indices for side in (IN, OUT))
        ),
        "orbits": (
            {"i": o.i, "j": o.j, "sign": o.sign, "kind": o.kind}
            for o in (plug.orbit(i, j, sign) for i in indices
                      for j in range(circumference(i)) for sign in (PLUS, MINUS))
        ),
    }


def plug_to_json(plug: PlugSpec) -> str:
    return render(plug_document(plug))


def plug_from_json(text: str) -> PlugSpec:
    """Parse a plug document and return its spec if it renders to exactly
    plug_to_json(build_plug(n)), so 1, 1.0 and true differ.  Otherwise raise
    ValueError naming the first line where the two texts differ."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or type(doc.get("n")) is not int:
        raise ValueError("a plug document is an object with an integer n")
    spec = build_plug(doc["n"])
    got, want = render(doc), plug_to_json(spec)
    if got != want:
        for no, (line, expected) in enumerate(
                zip_longest(got.split("\n"), want.split("\n")), 1):
            if line != expected:
                raise ValueError(f"plug document line {no} is {line!r}, expected {expected!r}")
    return spec
