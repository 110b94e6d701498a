"""Gluing maps, the affine crossing model and its markovian fixed point.

The m-th gluing map sends each exit torus to its entrance copy through the
involution followed by a horizontal half shift: -1/2 on the tori whose
crossing orbit j = ceil(i/2) the flow takes through L components
(rectangle_chirality, the one home of the gluing side: j <= m) and +1/2 on
the rest.  Its effect on the boundary laminations is
computed here by exact interval arithmetic on the model tori: the image of a
u-annulus overlaps exactly two consecutive s-annuli ({j-1, j} under the
negative shift, {j, j+1} under the positive one).

The crossing map of the plug (entrance strips to exit strips) is not given
in closed form anywhere; we model it by a piecewise-affine uniformly
hyperbolic map on leaf-constant coordinates.  A point near the selected
strips is charted by the pair (a, b) of its stable and unstable leaf
constants; in these charts both the involution and the half shift act by
swapping the pair, so a full gluing step is the identity on (a, b), the
return step out of a rectangle is the crossing map theta itself, and theta
carries all the hyperbolicity: contraction 1/mu on a, expansion mu on b,
with per-torus anchor offsets.  Unstable anchors are tied to the stable ones
(u_t = -mu * s_pair(t)) so that conjugating by the involution inverts the
model exactly.  Any such model witnesses the markovian fixed point; mu and
the offsets are configuration, not mathematics.

Every value here is frozen, a crossing model's offsets included, and every
function pure.  A model is validated once, when it is constructed, and
cannot change afterwards, so the functions that take one do not validate it
again.  Models are passed explicitly (no global registry), so concurrent use
needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from . import model_torus as mt


def gluing_restriction(m: int, i: int, n: int) -> Fraction:
    """The half shift of the m-th gluing map, tau_shift . sigma, on the i-th exit torus."""
    if not 0 <= m <= 2 * n:
        raise ValueError(f"m must be in [0, {2 * n}], got {m}")
    if not 1 <= i <= 4 * n:
        raise ValueError(f"i must be in [1, {4 * n}], got {i}")
    return Fraction(-1 if rectangle_chirality(m, crossing_orbit_index(i)) == "L" else 1, 2)


def annulus_intersection_pattern(m: int, i: int, j: int, n: int) -> frozenset[int]:
    """s-annulus indices met by the glued image of the u-annulus A_i^{j,u}.

    Computed from the model tori: the involution carries A_i^{j,u} onto the
    x-interval [j, j+1] of the entrance chart, the half shift moves it, and
    we keep every s-annulus whose overlap has positive length.  All endpoints
    are half-integers, so the circle arithmetic is exact in doubled units.
    The image is one annulus wide, so only s-annuli j-1, j and j+1 (mod 2i+2)
    can meet it, and only those are tested.
    """
    shift = gluing_restriction(m, i, n)
    c = mt.circumference(i)
    j = j % c
    # doubled units: the image of [j, j+1] is [2j + 2*shift, 2j + 2 + 2*shift]
    a0 = 2 * j + (1 if shift > 0 else -1)
    a1 = a0 + 2
    mod = 2 * c
    return frozenset(ell for ell in {(j - 1) % c, j, (j + 1) % c}
                     if mt.interval_overlap_length((a0, a1), (2 * ell, 2 * ell + 2), mod) > 0)


# -- strips --------------------------------------------------------------------

#: chart interval [0, 1] of the annulus hosting every selected strip; this is
#: the annulus fixed by the symmetry x -> 1-x, so the L and R components in it
#: are mirror images (x in (0, 1/2) and (1/2, 1)).
STRIP_ANNULUS_INDEX = 0


def pair_torus(t: int) -> int:
    """2j-1 <-> 2j."""
    return t + 1 if t % 2 == 1 else t - 1


def crossing_orbit_index(t: int) -> int:
    """The crossing orbit meeting torus t: j = ceil(t/2)."""
    return (t + 1) // 2


def rectangle_chirality(m: int, j: int) -> str:
    """Which components the m-th flow uses at the j-th crossing orbit."""
    return "L" if j <= m else "R"


# -- the affine crossing model ---------------------------------------------------

class InvalidCrossingModel(ValueError):
    pass


class NonMarkovianError(RuntimeError):
    pass


Point = tuple[float, float]


@dataclass(frozen=True)
class ModelCrossingMap:
    """Uniformly hyperbolic affine model of the first-exit map on leaf constants.

    Out of the stable strip on torus t, the crossing map sends (a, b) to
    (s_off[t] + a/mu, -mu*s_off[pair(t)] + mu*b) on the exit strip of the
    partner torus.  The unstable anchor choice makes sigma-conjugation equal
    the inverse model identically.  The offsets are kept as a read-only copy,
    so the model validated at construction is the model every later call
    sees.
    """

    n: int
    mu: float = 3.0
    s_offsets: Mapping[int, float] = field(default_factory=dict)
    interval: tuple[float, float] = (0.0, 0.5)

    def __post_init__(self):
        object.__setattr__(self, "s_offsets", MappingProxyType(dict(self.s_offsets)))
        object.__setattr__(self, "interval", tuple(self.interval))
        # NaN fails the comparison; the return map's unstable coefficient is mu**2
        if not (1 < self.mu and self.mu * self.mu < float("inf")):
            raise InvalidCrossingModel(
                "expansion factor mu must exceed 1 and have a finite square")
        self.validate()

    def s_off(self, t: int) -> float:
        if t in self.s_offsets:
            return self.s_offsets[t]
        return 0.15 if t % 2 == 1 else 0.10

    def u_off(self, t: int) -> float:
        return -self.mu * self.s_off(pair_torus(t))

    def theta(self, t: int, p: Point) -> Point:
        """Crossing map out of the stable strip on torus t; as the gluing step
        is the identity on leaf constants, also the return step."""
        a, b = p
        return (self.s_off(t) + a / self.mu, self.u_off(t) + self.mu * b)

    def validate(self) -> None:
        """Every rectangle image must cross the partner rectangle markovianly."""
        lo, hi = self.interval
        if not lo < hi:
            raise InvalidCrossingModel("empty strip interval")
        for t in range(1, 4 * self.n + 1):
            t2 = pair_torus(t)
            img_lo = self.s_off(t) + lo / self.mu
            img_hi = self.s_off(t) + hi / self.mu
            if not (lo < img_lo and img_hi < hi):
                raise InvalidCrossingModel(
                    f"stable image of torus {t} strip misses the torus {t2} strip")
            pre_lo = (lo - self.u_off(t)) / self.mu
            pre_hi = (hi - self.u_off(t)) / self.mu
            if not (lo < pre_lo and pre_hi < hi):
                raise InvalidCrossingModel(
                    f"unstable window of torus {t} strip misses its rectangle")


# -- the markovian fixed point ----------------------------------------------------

#: contraction iterations before the fixed-point search declares the
#: configuration non-markovian
MAX_ITER = 500


@dataclass(frozen=True)
class FixedPointReport:
    j: int
    chirality: str
    point: Point                 # constants on torus 2j-1
    image_point: Point           # constants on torus 2j
    residual: float              # size of the last contracting step
    iterations: int
    itinerary: tuple[str, ...]


def locate_periodic_orbit(model: ModelCrossingMap, m: int, j: int,
                          start: Point | None = None,
                          tol: float = 1e-9) -> FixedPointReport:
    """Unique fixed point of the squared return map on the chosen rectangle pair.

    The stable coordinate is iterated forward and the unstable one through
    the inverse map, so both iterations contract.  The residual is the size
    of the last step of that iteration, not the forward map's displacement:
    the forward map's unstable coefficient is mu**2, which magnifies rounding
    past any fixed tolerance once mu is large (from about 1e5).  With the
    affine model the fixed point is unique; for the underlying flow
    uniqueness needs the hyperbolicity that the model builds in.  The model
    was validated when it was constructed, so the health gate's 2n calls
    cost O(n) together, not O(n^2).
    """
    t1, t2 = 2 * j - 1, 2 * j
    chir = rectangle_chirality(m, j)
    lo, hi = model.interval
    a, b = start if start is not None else ((lo + hi) / 2, (lo + hi) / 2)

    def fwd(p: Point) -> Point:
        return model.theta(t2, model.theta(t1, p))

    # the unstable factor is expanding, so iterate it through the inverse;
    # its affine coefficients are read off the forward map by probing
    b0 = fwd((0.0, 0.0))[1]
    b_slope = fwd((0.0, 1.0))[1] - b0
    if abs(b_slope) <= 1.0:
        raise InvalidCrossingModel("return map does not expand the unstable constant")

    for it in range(1, MAX_ITER + 1):
        a_next, b_next = fwd((a, b))[0], (b - b0) / b_slope
        residual = max(abs(a_next - a), abs(b_next - b))
        a, b = a_next, b_next
        if residual < tol:
            pt = (a, b)
            if not (lo <= a <= hi and lo <= b <= hi):
                raise NonMarkovianError(
                    "fixed point escaped the rectangle: invalid crossing model")
            return FixedPointReport(
                j=j, chirality=chir, point=pt,
                image_point=model.theta(t1, pt),
                residual=residual, iterations=it,
                itinerary=(f"T_{t1}", f"T_{t2}"))
    raise NonMarkovianError(
        f"no convergence after {MAX_ITER} iterations: non-markovian configuration")
