"""Invariants and certificates for a family of surgered plug flows.

Modules: model_torus (bifoliated torus charts), plug (symbolic boundary
plug), gluing (gluing patterns, the affine crossing model and its
markovian fixed point), homology (intersection-number decision
procedures), orbit_space (lozenge and cluster calculus), handedness (L/R
invariant), distinguisher (inequivalence and non-R-covered certificates),
jsonout (the one writer of the JSON artifacts), cli (batch front-end).
"""

__version__ = "0.1.0"
