"""Separatrix-adjacent annuli and their left/right handedness.

An SA annulus is a chain of fundamental Birkhoff annuli glued along periodic
orbits so that the separatrix-adjacency types alternate.  For odd chains the
boundary frame (outward tangent, orbit direction, incoming flow) defines the
same orientation at both ends, so the chain has a well-defined handedness:
L when that frame matches the ambient orientation, R when it reverses it.

The handedness of the old chain attached to the torus T_i in the m-th flow
is never stored: it is recomposed from two discrete inputs, the rectangle
chirality chosen by the gluing (L components for j <= m, R components
otherwise, j the crossing-orbit index of T_i) and the boundary-frame parity
of the plug (positive for odd i).  The residual global sign is calibrated
once so that the resulting table is

    i odd:  L iff j <= m          i even:  R iff j <= m

old_handedness composes it from the gluing; old_sa_annulus reads the same
handedness off the chain's old fan, whose first adjacency label says which
rectangle the puncture sits in.  _frame_transfer, the one home of the frame
step, turns the chirality into a handedness on both routes.
even_extension_allowed is the one home of the even-extension rule; the
reversing-branch constructor that distinguish and the verifier share applies
it to the end chains' handedness.
All functions are pure and thread-safe.
"""

from __future__ import annotations

from . import orbit_space as osp
from .gluing import crossing_orbit_index, rectangle_chirality
from .homology import CONSISTENT, decide_sa_extension, one_crossing
from .plug import frame_sign

L = "L"
R = "R"


def _check_cell(i: int, m: int, n: int) -> None:
    if not 1 <= i <= 4 * n:
        raise ValueError(f"torus index {i} out of range")
    if not 0 <= m <= 2 * n:
        raise ValueError(f"gluing index {m} out of range")


def _frame_transfer(chirality: str, i: int) -> str:
    """The handedness of T_i's old chain when its puncture sits in a
    `chirality` rectangle: the plug's boundary-frame parity (positive iff i
    is odd) transfers the chirality to the annulus frame directly or flipped."""
    if frame_sign(i) == 1:
        return chirality
    return L if chirality == R else R


def old_handedness(i: int, m: int, n: int) -> str:
    """Handedness of the old SA annulus attached to T_i in the m-th flow.

    Composed, not tabulated: the gluing picks L components at the crossing
    orbit j = ceil(i/2) iff j <= m, and _frame_transfer carries that
    rectangle chirality to the annulus frame.  No fan is built.
    """
    _check_cell(i, m, n)
    return _frame_transfer(rectangle_chirality(m, crossing_orbit_index(i)), i)


def old_sa_annulus(i: int, m: int, n: int) -> str:
    """Handedness of the old (4i+3)-chain at T_i, read off its old fan.

    The fan starts right after the punctured lozenge: at chain position 2
    when the puncture sits in the R rectangle of the crossing orbit, at 1 in
    the L one, so its first adjacency label is u for R and s for L.
    _frame_transfer turns that chirality into the handedness.
    The fan depends on m only through that chirality, so a distinguish run
    reads each end torus once (distinguisher.end_chains), not once per pair.
    """
    _check_cell(i, m, n)
    return _frame_transfer(R if osp.old_fan_cluster(i, m).labels[0] == "u" else L, i)


def even_extension_allowed(handedness: str, i: int, n: int, k: int) -> bool:
    """Can the old chain at T_i, of this handedness, grow to an even one?

    The surgery-born annulus crosses the orbit that punctures T_i once; the
    homology module decides the signs, and the answer is no exactly for
    (R, k>0) and (L, k<0).
    """
    s = one_crossing(crossing_orbit_index(i), n)
    return decide_sa_extension(handedness, k, s).tag == CONSISTENT


def handedness_table(n: int) -> dict[int, list[str]]:
    """Rows i = 1..4n, columns m = 0..2n of the old-chain handedness."""
    return {i: [old_handedness(i, m, n) for m in range(2 * n + 1)]
            for i in range(1, 4 * n + 1)}
