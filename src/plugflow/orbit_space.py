"""Lozenge, chain and cluster calculus in the orbit space.

Corners are opaque orbit identifiers; nothing is embedded in the plane.
Every lozenge carries four edge slots (one stable and one unstable half-leaf
at each corner) and two lozenges are edge-adjacent exactly when they hold an
identical slot.  The transverse torus T_i contributes a Z-indexed periodic
chain of lozenges with period 4i+4 = 2 * model_torus.circumference(i) (one
lozenge per fundamental annulus of the isotoped torus, corners running through
the boundary orbits, their signs read off plug.component_of, shared edges
alternating stable/unstable).  Deleting the punctured lozenge leaves the old
fan cluster with period - 1 = 4i+3 lozenges and 8i+8 free slots, the count
MaximalShape.lozenge_count reads off the chain, and _chain_fan cuts every fan
(old_fan_cluster's, and the run classify_maximal finds) from its chain,
reading the labels off the chain positions.

Classification routes every attachment through the homology filters instead
of enumerating allowed shapes by hand: two new lozenges may not share an
edge, and a new lozenge may not bridge two old fans.  What survives with at
least three lozenges is one of the four fan shapes; anything else is
reported NotClassifiable with a machine-readable reason (filters do not
claim the surviving shapes are realized by an actual flow).

Clusters are immutable values and classification is pure, so cluster
corpora can be processed in parallel freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Optional, Sequence, Union

from . import model_torus as mt
from .gluing import STRIP_ANNULUS_INDEX, crossing_orbit_index, rectangle_chirality
from .homology import (FORBIDDEN, BridgeConfig, NewLozengeData,
                       TwoNewAdjacentConfig, decide_bridge,
                       decide_two_new_adjacent, h1_zero)
from .jsonout import render
from .plug import IN, OUT, component_of

OLD = "old"
NEW = "new"


class NonClusterError(ValueError):
    pass


@dataclass(frozen=True)
class OrbitRef:
    """Lift of a boundary periodic orbit: gamma_i^{j,sign} translated by deck."""

    i: int
    j: int
    sign: str
    deck: int = 0


@dataclass(frozen=True)
class NewOrbitRef:
    """Corner created by a surgery-born lozenge; identified only by label."""

    label: str


Corner = Union[OrbitRef, NewOrbitRef]


@dataclass(frozen=True)
class EdgeSlot:
    """One half-leaf at a corner; identical slots mean a shared edge."""

    corner: Corner
    foliation: str        # "s" | "u"
    tag: str              # disambiguates the half-leaves at one corner


@dataclass(frozen=True)
class Lozenge:
    corner_a: Corner
    corner_b: Corner
    age: str                               # "old" | "new"
    edges: frozenset[EdgeSlot]
    new_data: Optional[NewLozengeData] = None

    def __post_init__(self):
        if self.age not in (OLD, NEW):
            raise ValueError("age must be 'old' or 'new'")
        if self.age == NEW and self.new_data is None:
            raise ValueError("a new lozenge carries its crossing counts")
        if self.age == OLD and self.new_data is not None:
            raise ValueError("an old lozenge carries no crossing counts")
        per_corner = {self.corner_a: set(), self.corner_b: set()}
        for e in self.edges:
            if e.corner not in per_corner:
                raise ValueError("edge slot at a non-corner")
            per_corner[e.corner].add(e.foliation)
        if any(f != {"s", "u"} for f in per_corner.values()):
            raise ValueError("each corner needs one stable and one unstable edge")

    @property
    def corners(self) -> tuple[Corner, Corner]:
        return (self.corner_a, self.corner_b)


class Adjacency(NamedTuple):
    adjacent: bool
    foliation: Optional[str]


def edge_adjacent(l1: Lozenge, l2: Lozenge) -> Adjacency:
    """Shared-edge test; reports the foliation label of the shared half-leaf."""
    shared = l1.edges & l2.edges
    if not shared:
        return Adjacency(False, None)
    if len(shared) > 1:
        raise ValueError("lozenges sharing more than one edge are malformed")
    return Adjacency(True, next(iter(shared)).foliation)


# -- the periodic chain of a transverse torus -----------------------------------


def chain_label(k: int) -> str:
    """Shared-edge foliation between chain lozenges k and k+1."""
    return "s" if k % 2 == 1 else "u"


@dataclass(frozen=True)
class OldChain:
    """Z-indexed periodic chain of old lozenges attached to the torus T_i.

    Corner k is the boundary orbit under the compact leaf at position
    k mod (4i+4): even positions 2r sit on the stable leaf c_i^{r,s} of the
    entrance side, odd positions 2r+1 on the unstable leaf c_i^{r+1,u} of
    the exit side; the deck generator shifts k by the full period.
    """

    i: int

    @property
    def period(self) -> int:
        return 2 * mt.circumference(self.i)

    def corner(self, k: int) -> OrbitRef:
        period = self.period
        p, deck = k % period, k // period
        if p % 2 == 0:
            return OrbitRef(self.i, p // 2, component_of(self.i, IN), deck)
        return OrbitRef(self.i, (p // 2 + 1) % (period // 2), component_of(self.i, OUT), deck)

    def lozenge(self, k: int) -> Lozenge:
        va, vb = self.corner(k), self.corner(k + 1)
        edges = frozenset({
            EdgeSlot(va, chain_label(k - 1), "shared"),
            EdgeSlot(va, _other(chain_label(k - 1)), "free-left"),
            EdgeSlot(vb, chain_label(k), "shared"),
            EdgeSlot(vb, _other(chain_label(k)), "free-right"),
        })
        return Lozenge(va, vb, OLD, edges)

    def position_of(self, loz: Lozenge) -> int:
        """Inverse of lozenge(); raises if the lozenge is not on this chain."""
        ca = loz.corner_a
        if not isinstance(ca, OrbitRef) or ca.i != self.i:
            raise ValueError("not a corner of this chain")
        for p in range(self.period):
            if self.corner(p) == OrbitRef(ca.i, ca.j, ca.sign, 0):
                k = ca.deck * self.period + p
                if self.lozenge(k) == loz:
                    return k
        raise ValueError("lozenge does not lie on this chain")


def _other(f: str) -> str:
    return "u" if f == "s" else "s"


def build_old_chain(i: int) -> OldChain:
    if i < 1:
        raise ValueError("torus index must be >= 1")
    return OldChain(i)


def punctured_position(i: int, m: int) -> int:
    """Chain index of the lozenge hit by the crossing orbit in the m-th flow.

    The crossing point sits in the chosen rectangle: inside the strip
    s-annulus (chart interval [0,1]) and inside the glued u-annulus of the
    chirality the gluing picks, x in (1/2, 1) for R components and (0, 1/2)
    for L components.  The overlap is bounded by two consecutive compact
    leaves, whose chain positions bracket the punctured lozenge.
    """
    c = mt.circumference(i)
    chirality = rectangle_chirality(m, crossing_orbit_index(i))
    s_iv = mt.ReebAnnulusId(i, "s", STRIP_ANNULUS_INDEX).interval()
    u_index = STRIP_ANNULUS_INDEX + (1 if chirality == "R" else 0)
    u_iv = mt.ReebAnnulusId(i, "u", u_index).interval()
    lo = max(s_iv[0], u_iv[0])
    hi = min(s_iv[1], u_iv[1])
    if not lo < hi:
        raise AssertionError("crossing annuli do not overlap")
    # the compact leaf at x (integer for s, half-integer for u) sits at position 2x
    left, right = int(2 * lo), int(2 * hi)
    if right != left + 1:
        raise AssertionError("puncture does not sit between consecutive leaves")
    if not 0 <= left < 2 * c:
        raise AssertionError("puncture lies outside the chain period")
    return left


# -- fan clusters ---------------------------------------------------------------


@dataclass(frozen=True)
class FanCluster:
    """Finite alternating chain of lozenges (a fan-type cluster)."""

    lozenges: tuple[Lozenge, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.lozenges) - 1:
            raise ValueError("need one adjacency label between consecutive lozenges")
        for t, lab in enumerate(self.labels):
            adj = edge_adjacent(self.lozenges[t], self.lozenges[t + 1])
            if not adj.adjacent or adj.foliation != lab:
                raise ValueError(f"lozenges {t},{t + 1} are not {lab}-edge-adjacent")
        for a, b in zip(self.labels, self.labels[1:]):
            if a == b:
                raise ValueError("adjacency labels must strictly alternate")
        counts: dict[Corner, int] = {}
        for loz in self.lozenges:
            for c in loz.corners:
                counts[c] = counts.get(c, 0) + 1
        if any(v > 2 for v in counts.values()):
            raise ValueError("three lozenges share a corner")

    def __len__(self) -> int:
        return len(self.lozenges)


def old_fan_cluster(i: int, m: int) -> FanCluster:
    """The 4i+3 surviving lozenges of the torus-T_i chain in the m-th flow.

    The gluing index m moves the crossing point between the two mirror
    rectangle regions, so it selects which lozenge is punctured; the shape of
    the surviving fan (alternating chain with one u-end and one s-end) is the
    same for every m.
    """
    chain = build_old_chain(i)
    start = punctured_position(i, m) + 1
    return _chain_fan([chain.lozenge(k) for k in range(start, start + chain.period - 1)],
                      start)


def _chain_fan(lozenges: Sequence[Lozenge], start: int) -> FanCluster:
    """The fan of chain lozenges at the consecutive positions start, start+1, ...;
    chain_label gives the adjacency label between each two."""
    return FanCluster(tuple(lozenges),
                      tuple(chain_label(k) for k in range(start, start + len(lozenges) - 1)))


def free_slots(lozenges: Sequence[Lozenge]) -> dict[EdgeSlot, int]:
    """Edge slots held by exactly one lozenge, mapped to the holder's index."""
    holders: dict[EdgeSlot, list[int]] = {}
    for idx, loz in enumerate(lozenges):
        for e in loz.edges:
            holders.setdefault(e, []).append(idx)
    return {e: idxs[0] for e, idxs in holders.items() if len(idxs) == 1}


def attachment_sites(fan: FanCluster) -> list[EdgeSlot]:
    """All 8i+8 free slots of an old fan, in chain order of their holders."""
    free = free_slots(fan.lozenges)
    return sorted(free, key=lambda s: (free[s], str(s.corner), s.foliation, s.tag))


def attach(slot: EdgeSlot, new_data: NewLozengeData, label: str) -> Lozenge:
    """New lozenge glued along the slot's half-leaf; its far corner is fresh."""
    v = slot.corner
    w = NewOrbitRef(label)
    edges = frozenset({
        slot,
        EdgeSlot(v, _other(slot.foliation), f"{label}-back"),
        EdgeSlot(w, "s", f"{label}-far-s"),
        EdgeSlot(w, "u", f"{label}-far-u"),
    })
    return Lozenge(v, w, NEW, edges, new_data)


def extend_fan(fan: FanCluster, fol: str, new_data: NewLozengeData) -> Lozenge:
    """New lozenge continuing the fan at its `fol` end ('u' or 's', see fan_end_slots)."""
    return attach(fan_end_slots(fan)[fol], new_data, f"ext-{fol}")


def fan_end_slots(fan: FanCluster) -> dict[str, EdgeSlot]:
    """The two chain-extending slots, keyed by their foliation ('u' end / 's' end).

    At each end the continuation slot sits on the outer corner and carries
    the foliation opposite to the end lozenge's interior adjacency; the two
    ends always continue along different foliations.
    """
    out: dict[str, EdgeSlot] = {}
    for t, lab in ((0, fan.labels[0]), (len(fan) - 1, fan.labels[-1])):
        outer = _outer_corner(fan, t)
        fol = _other(lab)
        out[fol] = next(e for e in fan.lozenges[t].edges
                        if e.corner == outer and e.foliation == fol)
    if set(out) != {"s", "u"}:
        raise AssertionError("fan ends must continue along different foliations")
    return out


def _outer_corner(fan: FanCluster, t: int) -> Corner:
    loz = fan.lozenges[t]
    inner = fan.lozenges[1] if t == 0 else fan.lozenges[-2]
    shared = {loz.corner_a, loz.corner_b} & {inner.corner_a, inner.corner_b}
    sc = next(iter(shared))
    return loz.corner_b if loz.corner_a == sc else loz.corner_a


# -- classification ----------------------------------------------------------------


@dataclass(frozen=True)
class MaximalShape:
    tag: str   # "C_i" | "C_i^u" | "C_i^s" | "C_i^us"
    i: int

    def lozenge_count(self) -> int:
        """The old fan's lozenges, the chain period less the punctured one,
        and one new lozenge per end named after the ^."""
        return OldChain(self.i).period - 1 + len(self.tag.partition("^")[2])


@dataclass(frozen=True)
class NotClassifiable:
    reason: str    # "two-new-adjacent" | "old-new-old-bridge" | "no-old-fan" | "not-fan-type"
    detail: str = ""


def adjacency_pairs(lozenges: Sequence[Lozenge]) -> list[tuple[int, int, str]]:
    out = []
    for (x, lx), (y, ly) in combinations(enumerate(lozenges), 2):
        adj = edge_adjacent(lx, ly)
        if adj.adjacent:
            out.append((x, y, adj.foliation))
    return out


def classify_maximal(lozenges: Sequence[Lozenge], k: int,
                     ) -> MaximalShape | NotClassifiable:
    """Classify a cluster against the four fan shapes, homology filters first.

    The filters run the integer-intersection decision procedures with the
    cluster's own crossing data; shapes are only reported when the surviving
    lozenges form a strictly alternating chain around one complete old fan.
    """
    lozenges = tuple(lozenges)
    pairs = adjacency_pairs(lozenges)
    touched = {x for p in pairs for x in p[:2]}
    if len(lozenges) < 2 or touched != set(range(len(lozenges))):
        raise NonClusterError("every lozenge must be edge-adjacent to another")

    olds = [idx for idx, l in enumerate(lozenges) if l.age == OLD]
    news = [idx for idx, l in enumerate(lozenges) if l.age == NEW]

    # filter 1: two new lozenges sharing an edge
    for x, y, _ in pairs:
        if lozenges[x].age == NEW and lozenges[y].age == NEW:
            n = lozenges[x].new_data.n
            cfg = TwoNewAdjacentConfig(n=n, k=k, omega1=h1_zero(n),
                                       omega3=h1_zero(n),
                                       s1=lozenges[x].new_data,
                                       s2=lozenges[y].new_data)
            verdict = decide_two_new_adjacent(cfg)
            if verdict.tag == FORBIDDEN:
                return NotClassifiable("two-new-adjacent",
                                       f"lozenges {x},{y}: {verdict.detail}")

    if not olds:
        return NotClassifiable("no-old-fan", "cluster contains no old lozenge")
    if any(not isinstance(lozenges[idx].corner_a, OrbitRef) for idx in olds):
        return NotClassifiable("no-old-fan", "old lozenge with unrecognized corners")

    # group the old lozenges into chains per torus
    by_torus: dict[int, list[int]] = {}
    for idx in olds:
        by_torus.setdefault(lozenges[idx].corner_a.i, []).append(idx)
    runs = _old_runs(lozenges, by_torus)

    if len(runs) > 1:
        # filter 2: some new lozenge bridges two old chains
        run_of = {idx: rid for rid, (_, members) in enumerate(runs) for idx in members}
        for idx in news:
            neighbor_runs = set()
            for x, y, _ in pairs:
                if idx in (x, y):
                    other = y if x == idx else x
                    if other in run_of:
                        neighbor_runs.add(run_of[other])
            if len(neighbor_runs) > 1:
                nd = lozenges[idx].new_data
                cfg = BridgeConfig(n=nd.n, k=k, omega1=h1_zero(nd.n),
                                   omega2=h1_zero(nd.n), s=nd)
                verdict = decide_bridge(cfg)
                if verdict.tag == FORBIDDEN:
                    return NotClassifiable("old-new-old-bridge",
                                           f"lozenge {idx}: {verdict.detail}")
        return NotClassifiable("no-old-fan",
                               "old lozenges split into several chains")

    start, run = runs[0]
    i = lozenges[run[0]].corner_a.i
    need = MaximalShape("C_i", i).lozenge_count()
    if len(run) != need:
        return NotClassifiable("no-old-fan",
                               f"old chain has {len(run)} lozenges, an old fan needs {need}")
    fan = _chain_fan([lozenges[idx] for idx in run], start)
    ends = fan_end_slots(fan)

    attached_ends: set[str] = set()
    for idx in news:
        new = lozenges[idx]
        hit = {slot_f for slot_f, slot in ends.items() if slot in new.edges}
        if not hit:
            return NotClassifiable(
                "not-fan-type",
                f"new lozenge {idx} attaches off the chain-extending slots")
        attached_ends |= hit
    if len(attached_ends) != len(news):
        return NotClassifiable("not-fan-type", "several new lozenges on one end")

    ext = "".join(f for f in "us" if f in attached_ends)
    return MaximalShape(f"C_i^{ext}" if ext else "C_i", i)


def _old_runs(lozenges: Sequence[Lozenge],
              by_torus: dict[int, list[int]]) -> list[tuple[int, list[int]]]:
    """Split the old lozenges into maximal consecutive chain runs, each the
    chain position of its first lozenge and its indices in chain order."""
    runs: list[tuple[int, list[int]]] = []
    for i, idxs in sorted(by_torus.items()):
        chain = build_old_chain(i)
        positioned = sorted((chain.position_of(lozenges[idx]), idx) for idx in idxs)
        start, current = positioned[0][0], [positioned[0][1]]
        for (pk, _), (ck, idx) in zip(positioned, positioned[1:]):
            if ck == pk + 1:
                current.append(idx)
            else:
                runs.append((start, current))
                start, current = ck, [idx]
        runs.append((start, current))
    return runs


# -- serialization --------------------------------------------------------------------


def _corner_name(c: Corner) -> str:
    if isinstance(c, OrbitRef):
        return f"gamma_{c.i}^{c.j},{c.sign}@{c.deck}"
    return c.label


def cluster_to_json(lozenges: Sequence[Lozenge],
                    shape: MaximalShape | NotClassifiable) -> str:
    """The orbit-space document of a cluster and its classification."""
    doc = {
        "classification": (
            {"tag": shape.tag, "i": shape.i, "lozenges": shape.lozenge_count()}
            if isinstance(shape, MaximalShape)
            else {"not_classifiable": shape.reason, "detail": shape.detail}),
        "lozenges": [
            {"id": idx, "age": l.age,
             "corners": [_corner_name(l.corner_a), _corner_name(l.corner_b)],
             "crossings": list(l.new_data.s) if l.new_data else None}
            for idx, l in enumerate(lozenges)
        ],
        "adjacency": [[x, y, lab] for x, y, lab in adjacency_pairs(lozenges)],
    }
    return render(doc)
