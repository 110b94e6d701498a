"""Batch front-end.

Subcommands: plug (dump the symbolic plug), invariants (handedness matrix
and cluster sizes), distinguish (pairwise certificates), plot (SVG of one
model bifoliation), orbit-space (cluster adjacency JSON).  All output is
deterministic JSON or SVG; files are written atomically.  A JSON config
file can override any flag and carries the crossing-model parameters.

Exit codes: 0 success, 1 usage error, 2 a pair expected Inequivalent came
back Inconclusive, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

from . import distinguisher, gluing, handedness, model_torus as mt, plug
from . import orbit_space as osp
from .homology import NewLozengeData

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT_MISMATCH = 2
EXIT_INTERNAL = 3


@dataclass(frozen=True)
class RunConfig:
    """Merged flag/config-file settings for one batch run."""

    n: int = 1
    k: int = 7
    pairs: list | None = None
    out: str | None = None
    mu: float | None = None
    s_offsets: dict = field(default_factory=dict)
    interval: tuple | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k == 0:
            raise ValueError("k must be nonzero")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config) as f:
            cfg = json.load(f)
    return cfg


def _merged(args, cfg, key, default=None):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _run_config(args, cfg) -> RunConfig:
    return RunConfig(
        n=int(_merged(args, cfg, "n", 1)),
        k=int(_merged(args, cfg, "k", 7)),
        pairs=cfg.get("pairs"),
        out=_merged(args, cfg, "out"),
        mu=_merged(args, cfg, "mu"),
        s_offsets={int(t): float(v)
                   for t, v in cfg.get("s_offsets", {}).items()},
        interval=tuple(cfg["interval"]) if "interval" in cfg else None,
    )


def _crossing_model(rc: RunConfig) -> gluing.ModelCrossingMap:
    kwargs = {"n": rc.n}
    if rc.mu is not None:
        kwargs["mu"] = float(rc.mu)
    if rc.s_offsets:
        kwargs["s_offsets"] = rc.s_offsets
    if rc.interval is not None:
        kwargs["interval"] = rc.interval
    return gluing.ModelCrossingMap(**kwargs)


# -- subcommands -----------------------------------------------------------------


def cmd_plug(args) -> int:
    cfg = _load_config(args)
    n = int(_merged(args, cfg, "n", 1))
    out = _merged(args, cfg, "out", f"plug_n{n}.json")
    spec = plug.build_plug(n)
    _write_atomic(out, plug.plug_to_json(spec))
    print(f"wrote {out}")
    return EXIT_OK


def invariants_document(n: int, k: int) -> dict:
    rows = []
    for i in range(1, 4 * n + 1):
        rows.append({
            "i": i,
            "cluster_size": 4 * i + 3,
            "handedness_by_m": [handedness.old_handedness(i, m, n)
                                for m in range(2 * n + 1)],
        })
    return {"n": n, "k": k, "columns_m": list(range(2 * n + 1)), "rows": rows}


def cmd_invariants(args) -> int:
    try:
        rc = _run_config(args, _load_config(args))
    except ValueError as exc:
        raise _UsageError(str(exc))
    n, k = rc.n, rc.k
    out = rc.out or f"invariants_n{n}_k{k}.json"
    doc = invariants_document(n, k)
    for row in doc["rows"]:
        flips = sum(1 for a, b in zip(row["handedness_by_m"],
                                      row["handedness_by_m"][1:]) if a != b)
        if flips > 1:
            raise AssertionError(f"handedness row {row['i']} is not a step function")
    _write_atomic(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def _distinguish_pairs(args, rc: RunConfig) -> list[tuple[int, int]]:
    """The pairs of one distinguish run, every one checked before anything is written."""
    n = rc.n
    if args.m1 is not None or args.m2 is not None:
        if args.m1 is None or args.m2 is None:
            raise _UsageError("--m1 and --m2 must be given together")
        pairs = [(args.m1, args.m2)]
    elif rc.pairs is not None:
        if not isinstance(rc.pairs, list):
            raise _UsageError("pairs must be a list of [m1, m2] pairs")
        pairs = []
        for p in rc.pairs:
            if not (isinstance(p, list) and len(p) == 2
                    and all(type(m) is int for m in p)):
                raise _UsageError(f"pair {p!r} is not a list of two integers")
            pairs.append(tuple(p))
    else:
        return [p for p in itertools.combinations(range(2 * n + 1), 2)
                if distinguisher.proven_range(*p, n)]
    for m1, m2 in pairs:
        try:
            distinguisher.check_pair(m1, m2, n)
        except ValueError as exc:
            raise _UsageError(f"pair ({m1},{m2}): {exc}")
    return pairs


def cmd_distinguish(args) -> int:
    try:
        rc = _run_config(args, _load_config(args))
    except ValueError as exc:
        raise _UsageError(str(exc))
    n, k = rc.n, rc.k
    outdir = rc.out or "certificates"
    pairs = _distinguish_pairs(args, rc)
    # health gate: the configured crossing model must put a markovian fixed
    # point in every rectangle pair before certificates are emitted
    model = _crossing_model(rc)
    for j in range(1, 2 * n + 1):
        gluing.locate_periodic_orbit(model, 0, j)
    ends = distinguisher.EndChains(n, k)
    mismatches = 0
    for m1, m2 in pairs:
        verdict = distinguisher.distinguish(m1, m2, n, k, ends)
        if not distinguisher.verify_certificate(verdict):
            raise AssertionError(f"certificate for ({m1},{m2}) failed re-verification")
        path = os.path.join(outdir, f"certificate_m{m1}_m{m2}.json")
        _write_atomic(path, distinguisher.certificate_to_json(verdict))
        expected_inequivalent = distinguisher.proven_range(m1, m2, n)
        if expected_inequivalent and verdict.tag != distinguisher.INEQUIVALENT:
            mismatches += 1
        print(f"({m1},{m2}): {verdict.tag} -> {path}")
    return EXIT_VERDICT_MISMATCH if mismatches else EXIT_OK


SVG_X_SCALE = 120
SVG_Y_SCALE = 260
SVG_C_GRID = [t / 8 for t in range(8)]


def bifoliation_svg(i: int) -> str:
    """Sampled leaves of both model foliations; compact leaves emphasized."""
    width = mt.circumference(i) * SVG_X_SCALE
    height = SVG_Y_SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    colors = {"s": "#1f77b4", "u": "#d62728"}
    circ = mt.circumference(i)
    for fol in ("s", "u"):
        for ann in mt.reeb_annuli(i, fol):
            for c in SVG_C_GRID:
                for seg in mt.sample_leaf_polyline(ann, c):
                    for piece in _split_at_x_seam(seg, circ):
                        if len(piece) < 2:
                            continue
                        pts = " ".join(
                            f"{(x % circ) * SVG_X_SCALE:.2f},"
                            f"{(1 - y) * SVG_Y_SCALE:.2f}" for x, y in piece)
                        parts.append(
                            f'<polyline class="leaf-{fol}" points="{pts}" '
                            f'fill="none" stroke="{colors[fol]}" '
                            f'stroke-width="0.6"/>')
        for x in mt.compact_leaf_positions(i, fol):
            px = float(x % mt.circumference(i)) * SVG_X_SCALE
            parts.append(
                f'<line class="compact-{fol}" x1="{px:.2f}" y1="0" x2="{px:.2f}" '
                f'y2="{height}" stroke="{colors[fol]}" stroke-width="2.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _split_at_x_seam(seg, circ):
    """Break a polyline where the chart x-coordinate wraps around the torus."""
    piece = [seg[0]]
    for p in seg[1:]:
        if abs(p[0] % circ - piece[-1][0] % circ) > circ / 2:
            yield piece
            piece = []
        piece.append(p)
    yield piece


def cmd_plot(args) -> int:
    cfg = _load_config(args)
    i = int(_merged(args, cfg, "i", 1))
    if i < 1:
        raise _UsageError("torus index i must be >= 1")
    out = _merged(args, cfg, "out", f"bifoliation_T{i}.svg")
    _write_atomic(out, bifoliation_svg(i))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_orbit_space(args) -> int:
    cfg = _load_config(args)
    n = int(_merged(args, cfg, "n", 1))
    k = int(_merged(args, cfg, "k", 7))
    i = int(_merged(args, cfg, "i", 1))
    if not 1 <= i <= 4 * n:
        raise _UsageError(f"i must be in [1, {4 * n}]")
    extend = _merged(args, cfg, "extend", "") or ""
    out = _merged(args, cfg, "out", f"orbit_space_T{i}.json")
    fan = osp.old_fan_cluster(i, 0)
    lozenges = list(fan.lozenges)
    ends = osp.fan_end_slots(fan)
    free = osp.free_slots(fan.lozenges)
    j = gluing.crossing_orbit_index(i)
    for fol in extend:
        if fol not in ("u", "s"):
            raise _UsageError("--extend takes a combination of 'u' and 's'")
        s_vec = [0] * (2 * n)
        s_vec[j - 1] = 1
        slot = ends[fol]
        lozenges.append(osp.attach(osp.AttachmentSite(free[slot], slot),
                                   NewLozengeData(tuple(s_vec)), f"ext-{fol}"))
    shape = osp.classify_maximal(lozenges, k)
    doc = json.loads(osp.cluster_to_json(lozenges))
    doc["classification"] = (
        {"tag": shape.tag, "i": shape.i, "lozenges": shape.lozenge_count()}
        if isinstance(shape, osp.MaximalShape)
        else {"not_classifiable": shape.reason, "detail": shape.detail})
    _write_atomic(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="plugflow",
                description="plug-flow family invariants and certificates")
    p.add_argument("--config", help="JSON config file overriding flags")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("plug", help="write the symbolic plug as JSON")
    sp.add_argument("--n", type=int)
    sp.add_argument("--out")

    si = sub.add_parser("invariants", help="handedness matrix and cluster sizes")
    si.add_argument("--n", type=int)
    si.add_argument("--k", type=int)
    si.add_argument("--out")

    sd = sub.add_parser("distinguish", help="pairwise inequivalence certificates")
    sd.add_argument("--n", type=int)
    sd.add_argument("--k", type=int)
    sd.add_argument("--m1", type=int)
    sd.add_argument("--m2", type=int)
    sd.add_argument("--mu", type=float)
    sd.add_argument("--out")

    sv = sub.add_parser("plot", help="SVG plot of one model bifoliation")
    sv.add_argument("--i", type=int)
    sv.add_argument("--out")

    so = sub.add_parser("orbit-space", help="cluster adjacency JSON for one torus")
    so.add_argument("--n", type=int)
    so.add_argument("--k", type=int)
    so.add_argument("--i", type=int)
    so.add_argument("--extend", help="grow the fan at its ends: 'u', 's' or 'us'")
    so.add_argument("--out")

    return p


COMMANDS = {
    "plug": cmd_plug,
    "invariants": cmd_invariants,
    "distinguish": cmd_distinguish,
    "plot": cmd_plot,
    "orbit-space": cmd_orbit_space,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, gluing.InvalidCrossingModel,
            gluing.NonMarkovianError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, KeyError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
