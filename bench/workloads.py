"""Seeded op streams for the three benchmark workloads.

An op is one unit of closed-loop work: one or more CLI argv lists, the
config files they read, and the parameters the oracle needs to judge the
outputs.  The program sees only the argvs and the files.  Every choice is
drawn from a `random.Random` keyed by workload and seed, so the same seed
always yields the same stream.  Choices that change the cost of an op (the
torus index, the extension, the sign of k) are dealt from seeded shuffles of
their whole range, so every run sees a balanced mix.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Iterator

WORKLOADS = ("certify", "classify", "artifacts")

K_CHOICES = (1, -1, 7, -7, 100, -100)

CERTIFY_N = 32
CERTIFY_PAIRS = 16
# every pair 0 <= m1 < m2 <= 2n, split by whether the theorem covers it;
# each op takes one boundary pair (1/16, about the 6% share boundary pairs
# have in the whole pool), so every op does the same amount of proof work
_ALL_PAIRS = tuple(itertools.combinations(range(2 * CERTIFY_N + 1), 2))
CERTIFY_PROVEN = tuple(p for p in _ALL_PAIRS if 1 <= p[0] and p[1] <= 2 * CERTIFY_N - 1)
CERTIFY_BOUNDARY = tuple(p for p in _ALL_PAIRS if p not in CERTIFY_PROVEN)

CLASSIFY_N = 16
CLASSIFY_I = (61, 62, 63, 64)
EXTENDS = ("", "u", "s", "us")

ARTIFACTS_N = 16
ARTIFACTS_I = (13, 14, 15, 16)


@dataclass(frozen=True)
class Op:
    index: int
    argvs: tuple[tuple[str, ...], ...]
    files: tuple[tuple[str, str], ...] = ()     # (path, text) written before the op
    params: dict = field(default_factory=dict)  # what the oracle checks against

    def write_inputs(self) -> None:
        for path, text in self.files:
            with open(path, "w") as f:
                f.write(text)


def _dealt(rng: random.Random, choices) -> Iterator:
    """Endless stream of seeded shuffles of `choices`, one after the other."""
    while True:
        yield from rng.sample(choices, len(choices))


def _certify(rng: random.Random, workdir: str) -> Iterator[Op]:
    ks = _dealt(rng, K_CHOICES)
    cfg = os.path.join(workdir, "certify.json")
    out = os.path.join(workdir, "certs")
    for index in itertools.count():
        pairs = sorted(rng.sample(CERTIFY_PROVEN, CERTIFY_PAIRS - 1)
                       + [rng.choice(CERTIFY_BOUNDARY)])
        k = next(ks)
        text = json.dumps({"k": k, "pairs": [list(p) for p in pairs], "out": out})
        yield Op(index,
                 (("--config", cfg, "distinguish", "--n", str(CERTIFY_N)),),
                 ((cfg, text),),
                 {"n": CERTIFY_N, "k": k, "pairs": pairs, "out": out})


def _classify(rng: random.Random, workdir: str) -> Iterator[Op]:
    tori = _dealt(rng, CLASSIFY_I)
    out = os.path.join(workdir, "cluster.json")
    for index in itertools.count():
        i, extend = next(tori), EXTENDS[index % len(EXTENDS)]
        yield Op(index,
                 (("orbit-space", "--n", str(CLASSIFY_N), "--i", str(i),
                   "--extend", extend, "--out", out),),
                 (), {"n": CLASSIFY_N, "i": i, "extend": extend, "out": out})


def _artifacts(rng: random.Random, workdir: str) -> Iterator[Op]:
    tori = _dealt(rng, ARTIFACTS_I)
    ks = _dealt(rng, K_CHOICES)
    plug = os.path.join(workdir, "plug.json")
    inv = os.path.join(workdir, "invariants.json")
    svg = os.path.join(workdir, "plot.svg")
    for index in itertools.count():
        i, k = next(tori), next(ks)
        yield Op(index,
                 (("plug", "--n", str(ARTIFACTS_N), "--out", plug),
                  ("invariants", "--n", str(ARTIFACTS_N), "--k", str(k), "--out", inv),
                  ("plot", "--i", str(i), "--out", svg)),
                 (), {"n": ARTIFACTS_N, "k": k, "i": i,
                      "plug": plug, "invariants": inv, "svg": svg})


_STREAMS = {"certify": _certify, "classify": _classify, "artifacts": _artifacts}


def ops(workload: str, seed: int, workdir: str) -> Iterator[Op]:
    """The endless op stream of `workload` for `seed`, writing under `workdir`."""
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"), workdir)
