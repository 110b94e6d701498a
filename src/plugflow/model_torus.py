"""Standard bifoliated torus models.

The i-th model torus is (R/(2i+2)Z) x (R/Z) carrying two transverse
one-dimensional foliations.  The ``s`` foliation is tangent to

    sin(pi x) d/dx + cos(pi x) d/dy

with compact leaves on the vertical circles at integer x, and the ``u``
foliation is its image under the half shift x -> x + 1/2 (compact leaves at
half-integer x).  Between two consecutive compact leaves each foliation is a
Reeb annulus: the s-annulus with index j covers [j, j+1] x S^1 and the
u-annulus with index j covers [j-1/2, j+1/2] x S^1.

A noncompact s-leaf inside annulus j is the graph

    y = (1/pi) * ln|sin(pi x)| + c   (mod 1),   x in (j, j+1),

for a constant c in R/Z, which we call the leaf constant.  This closed form
is the elementary integral of dy/dx = cot(pi x); ``leaf_constant_drift``
exposes the data needed to validate it against a numerical integrator.
u-leaf constants are computed through the half-shift conjugation.  _shift
is the one home of the half shift, and a point is on a compact leaf exactly
when annulus_of puts it on an annulus boundary.

Coordinates are kept exact: rational inputs stay ``Fraction`` all the way
through the modular arithmetic (so annulus-membership decisions never depend
on rounding), and float inputs fall back to a 1e-12 comparison tolerance.
All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

Coord = Union[Fraction, float]

#: comparison tolerance for the float fallback path
FLOAT_TOL = 1e-12

S = "s"
U = "u"
FOLIATIONS = (S, U)


def _shift(foliation: str) -> Fraction:
    """x-offset of the foliation's compact leaves from the integers: u is the
    s foliation moved by the half shift x -> x + 1/2."""
    return Fraction(1, 2) if foliation == U else Fraction(0)


def circumference(i: int) -> int:
    """Horizontal circumference 2i+2 of the i-th torus."""
    if i < 1:
        raise ValueError(f"torus index must be >= 1, got {i}")
    return 2 * i + 2


def norm_mod(value: Coord, modulus: int) -> Coord:
    """Normalize into [0, modulus), exactly for rationals."""
    if isinstance(value, float):
        r = math.fmod(value, modulus)
        if r < 0:
            r += modulus
        # collapse values indistinguishable from the modulus back to 0
        if modulus - r < FLOAT_TOL:
            r = 0.0
        return r
    f = Fraction(value) % modulus
    return f


def _is_multiple(value: Coord, step: Fraction) -> bool:
    """True if value is an integer multiple of step (exact or within tolerance)."""
    if isinstance(value, float):
        q = value / float(step)
        return abs(q - round(q)) * float(step) < FLOAT_TOL
    return (Fraction(value) / step).denominator == 1


@dataclass(frozen=True)
class TorusPoint:
    """A point on the i-th model torus, x mod 2i+2 and y mod 1."""

    i: int
    x: Coord
    y: Coord

    def __post_init__(self):
        c = circumference(self.i)
        object.__setattr__(self, "x", norm_mod(self.x, c))
        object.__setattr__(self, "y", norm_mod(self.y, 1))


@dataclass(frozen=True)
class ReebAnnulusId:
    """One Reeb annulus of a model foliation.

    For foliation s the annulus with index j covers [j, j+1] x S^1, for u it
    covers [j-1/2, j+1/2] x S^1; indices live in Z/(2i+2)Z.
    """

    i: int
    foliation: str
    j: int

    def __post_init__(self):
        if self.foliation not in FOLIATIONS:
            raise ValueError(f"foliation must be one of {FOLIATIONS}")
        object.__setattr__(self, "j", self.j % circumference(self.i))

    def interval(self) -> tuple[Fraction, Fraction]:
        """Closed x-interval [lo, hi] covered by this annulus (hi may exceed the modulus)."""
        lo = self.j - _shift(self.foliation)
        return lo, lo + 1


class AnnulusLocation(NamedTuple):
    """Result of annulus_of: the annulus plus a compact-leaf boundary flag."""

    annulus: ReebAnnulusId
    on_boundary: bool


@dataclass(frozen=True)
class ModelLeaf:
    """A leaf of a model foliation.

    kind == "compact": the vertical circle at x = x0 (integer x0 for s,
    half-integer for u).  kind == "noncompact": the spiral leaf with the given
    leaf constant inside the given Reeb annulus.
    """

    i: int
    foliation: str
    kind: str
    x0: Coord | None = None
    annulus: ReebAnnulusId | None = None
    c: float | None = None


def compact_leaf_positions(i: int, foliation: str) -> list[Fraction]:
    """x-coordinates of the 2i+2 compact leaves (integers for s, half-integers for u)."""
    off = _shift(foliation)
    return [off + k for k in range(circumference(i))]


def reeb_annuli(i: int, foliation: str) -> list[ReebAnnulusId]:
    """The 2i+2 Reeb annuli of the chosen foliation."""
    return [ReebAnnulusId(i, foliation, j) for j in range(circumference(i))]


def annulus_of(p: TorusPoint, foliation: str) -> AnnulusLocation:
    """The Reeb annulus whose closed x-interval contains p.

    On a compact leaf the point is shared by two annuli; we report the one
    having the point as its positive-x boundary, with on_boundary=True.
    """
    c = circumference(p.i)
    t = norm_mod(p.x + _shift(foliation), c)  # annulus j covers t in [j, j+1]
    if _is_multiple(t, Fraction(1)):
        j = int(round(float(t))) % c
        return AnnulusLocation(ReebAnnulusId(p.i, foliation, (j - 1) % c), True)
    j = math.floor(float(t)) % c
    return AnnulusLocation(ReebAnnulusId(p.i, foliation, j), False)


def _log_abs_sin_pi(x: float) -> float:
    s = math.sin(math.pi * x)
    if s == 0.0:
        raise ValueError("point lies on a compact leaf")
    return math.log(abs(s)) / math.pi


def s_leaf_constant(x: Coord, y: Coord) -> float:
    """Leaf constant c = y - (1/pi) ln|sin(pi x)| mod 1 of the s-leaf through (x, y)."""
    return (float(y) - _log_abs_sin_pi(float(x))) % 1.0


def u_leaf_constant(x: Coord, y: Coord) -> float:
    """u-constant via the half-shift conjugation (the s-constant at x - 1/2)."""
    return s_leaf_constant(float(x) - float(_shift(U)), y)


def leaf_through(p: TorusPoint, foliation: str) -> ModelLeaf:
    """The model leaf through p; compact on an annulus boundary, where sin
    vanishes, spiral otherwise."""
    ann, on_boundary = annulus_of(p, foliation)
    if on_boundary:
        return ModelLeaf(p.i, foliation, "compact", x0=p.x)
    c = s_leaf_constant(p.x, p.y) if foliation == S else u_leaf_constant(p.x, p.y)
    return ModelLeaf(p.i, foliation, "noncompact", annulus=ann, c=c)


def tau(p: TorusPoint, v: Coord) -> TorusPoint:
    """Horizontal translation x -> x + v (mod 2i+2)."""
    return TorusPoint(p.i, p.x + v, p.y)


def theta(p: TorusPoint) -> TorusPoint:
    """The involution x -> 1 - x (mod 2i+2); fixes the axes x=1/2 and x=i+3/2."""
    return TorusPoint(p.i, 1 - p.x, p.y)


def interval_overlap_length(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction],
                            modulus: int) -> Fraction:
    """Length of the overlap of two closed circle arcs given as lifted intervals."""
    (a0, a1), (b0, b1) = a, b
    if a1 - a0 >= modulus or b1 - b0 >= modulus:
        return Fraction(min(a1 - a0, b1 - b0))
    total = Fraction(0)
    base = a0 % modulus
    a0, a1 = base, base + (a1 - a0)
    bb = b0 % modulus
    for k in (-1, 0, 1):
        lo = max(a0, bb + k * modulus)
        hi = min(a1, bb + k * modulus + (b1 - b0))
        if hi > lo:
            total += hi - lo
    return total


def sample_leaf_polyline(annulus: ReebAnnulusId, cs: Sequence[float], samples: int = 120,
                         margin: float = 0.02) -> list[list[list[tuple[float, float]]]]:
    """Sample the spiral leaf of each constant in cs as polylines, split where
    y wraps through 1 -> 0; returns one list of segments per constant.

    The abscissa grid and the profile g(x) = ln|sin(pi x)|/pi (taken at
    x - 1/2 for u) are computed once per annulus, and a constant c adds only
    c + g per sample, so the floats are those of sampling each leaf alone.
    Each returned segment is monotone in x; consecutive segments meet the
    wrap within interpolation accuracy (used by the plotting wrap check).
    The abscissae stay in the annulus interval, so a segment crosses the
    chart seam x = 0 (mod 2i+2) only in the one annulus whose interval
    contains it, u-annulus 0 on [-1/2, 1/2].
    """
    lo, hi = map(float, annulus.interval())
    xs = [lo + margin + (hi - lo - 2 * margin) * t / (samples - 1)
          for t in range(samples)]
    # x - 0.0 is x, so the s profile is the one taken without a shift
    shift = float(_shift(annulus.foliation))
    gs = [_log_abs_sin_pi(x - shift) for x in xs]
    leaves = []
    for c in cs:
        raws = [c + g for g in gs]
        floors = list(map(math.floor, raws))
        points = list(zip(xs, [raw % 1.0 for raw in raws]))
        segments: list[list[tuple[float, float]]] = []
        head: list[tuple[float, float]] = []
        start = 0
        for k in [k for k in range(1, samples) if floors[k] != floors[k - 1]]:
            # interpolate the wrap crossing so both sides touch the boundary
            raw, prev_raw = raws[k], raws[k - 1]
            boundary = float(max(floors[k], floors[k - 1]))
            t = (boundary - prev_raw) / (raw - prev_raw)
            xw = xs[k - 1] + t * (xs[k] - xs[k - 1])
            upper = 1.0 if raw > prev_raw else 0.0
            segments.append(head + points[start:k] + [(xw, upper)])
            head = [(xw, 1.0 - upper)]
            start = k
        segments.append(head + points[start:])
        leaves.append(segments)
    return leaves
