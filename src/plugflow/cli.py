"""Batch front-end.

Subcommands: plug (dump the symbolic plug), invariants (handedness matrix
and cluster sizes), distinguish (pairwise certificates), plot (SVG of one
model bifoliation), orbit-space (cluster adjacency JSON).  All output is
deterministic JSON or SVG.  Every file is written by ``_write_atomic``,
which writes text chunks into a temp file as they are produced and renames
it over the target after the last one, with the mode ``open(path, "w")``
would give it under the current umask; a failure part-way leaves the
target as it was.  JSON is encoded by ``jsonout.chunks``, whose bytes are
those of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, and the
plug's tori and orbits are computed from n while they are encoded, so
``plug`` holds one torus and one chunk, never its whole text or a table of
records (README gives the measured peaks).  ``plot`` writes its SVG line
by line.

Flags, config keys, converters, defaults and checks have one home: each
setting is declared once in ``_KEYS`` and each command's keys once in
``_COMMAND_KEYS``.  ``build_parser`` and ``_settings`` are built from these
two tables, and ``_settings`` runs every input check before a command
starts.  A JSON config (--config) can set any key its command reads; a flag
takes precedence over it, and a key the command does not read is a usage
error.

Exit codes: 0 success, 1 usage error (a crossing model that fails its own
validation included), 2 a pair expected Inequivalent came back
Inconclusive, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Callable, Iterable, Iterator, NamedTuple

from . import distinguisher, gluing, handedness, jsonout, model_torus as mt, plug
from . import orbit_space as osp
from .homology import one_crossing

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT_MISMATCH = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text `chunks` yields into `path` as it comes, through a temp
    file renamed over `path` once the last chunk is in; if any chunk fails,
    `path` keeps what it held and the temp file is removed."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}")
    # created as open(path, "w") creates a file, so the umask sets its mode
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _integer(value) -> int:
    """An integer as given: floats, bools and numeric strings do not convert."""
    if type(value) is not int:
        raise TypeError("expected an integer")
    return value


def _number(value) -> float:
    """A real number as given: bools and numeric strings do not convert."""
    if type(value) not in (int, float):
        raise TypeError("expected a number")
    return float(value)


def _offsets(value) -> dict[int, float]:
    if not isinstance(value, dict):
        raise TypeError("expected an object of torus: offset")
    return {_torus_key(t): _number(v) for t, v in value.items()}


def _torus_key(key: str) -> int:
    """A torus named in canonical decimal, so that no two keys name one torus."""
    t = int(key)
    if str(t) != key:
        raise ValueError(f"torus key {key!r} is not written as {str(t)!r}")
    return t


def _interval(value) -> tuple[float, float]:
    lo, hi = value
    return (_number(lo), _number(hi))


def _path(value) -> str:
    if not (isinstance(value, str) and value):
        raise TypeError("expected a non-empty path")
    return value


def _extension(value) -> str:
    if not (isinstance(value, str) and set(value) <= {"u", "s"}
            and len(set(value)) == len(value)):
        raise ValueError("takes distinct letters from 'u' and 's'")
    return value


class _Key(NamedTuple):
    """One setting: its flag's type (None: config only), its converter (a value
    that does not convert is a usage error), its default and its flag's help."""
    flag: type | None
    convert: Callable | None
    default: object = None
    help: str | None = None


#: every setting; a pair list is checked against n by _pair_list, so it
#: has no converter
_KEYS = {
    "n": _Key(int, _integer, 1),
    "k": _Key(int, _integer, 7),
    "m1": _Key(int, _integer),
    "m2": _Key(int, _integer),
    "pairs": _Key(None, None),
    "mu": _Key(float, _number),
    "s_offsets": _Key(None, _offsets),
    "interval": _Key(None, _interval),
    "i": _Key(int, _integer, 1),
    "extend": _Key(str, _extension, "", "grow the fan at its ends: 'u', 's' or 'us'"),
    "out": _Key(str, _path),
}

#: every command: its help, the keys it reads (its flags marked "--", in the
#: order its help lists them) and its default out path; invariants reads and
#: checks the keys of a distinguish run
_COMMAND_KEYS = {
    "plug": ("write the symbolic plug as JSON", "--n --out", "plug_n{n}.json"),
    "invariants": ("handedness matrix and cluster sizes",
                   "--n --k m1 m2 pairs mu s_offsets interval --out",
                   "invariants_n{n}_k{k}.json"),
    "distinguish": ("pairwise inequivalence certificates",
                    "--n --k --m1 --m2 pairs --mu s_offsets interval --out",
                    "certificates"),
    "plot": ("SVG plot of one model bifoliation", "--i --out", "bifoliation_T{i}.svg"),
    "orbit-space": ("cluster adjacency JSON for one torus",
                    "--n --k --i --extend --out", "orbit_space_T{i}.json"),
}


def _settings(args) -> dict:
    """Merged settings of one command: each key it reads (the only config keys
    it accepts) from the flag if given, else the config value, else the
    default, converted; then every check, in one order, before the command
    starts.  A run's crossing model is built here: construction validates it."""
    _, keys, out = _COMMAND_KEYS[args.command]
    keys = [key.lstrip("-") for key in keys.split()]
    cfg = {}
    if args.config:
        try:
            with open(args.config) as f:
                cfg = json.load(f)
        except (UnicodeDecodeError, RecursionError) as exc:
            raise _UsageError(f"config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            raise _UsageError(f"config {args.config} is not a JSON object")
        unknown = sorted(set(cfg) - set(keys))
        if unknown:
            raise _UsageError(f"{args.command} does not read config keys {unknown}")
    s = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None:
            value = cfg.get(key)
        if value is None:
            value = _KEYS[key].default
        elif _KEYS[key].convert is not None:
            try:
                value = _KEYS[key].convert(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise _UsageError(f"bad {key} {value!r}: {exc}")
        s[key] = value
    n, i = s.get("n"), s.get("i", 1)
    if n is not None and n < 1:
        raise _UsageError("n must be >= 1")
    if s.get("k") == 0:
        raise _UsageError("k must be nonzero")
    if n is None and i < 1:     # plot draws any torus, orbit-space one of the 4n
        raise _UsageError("torus index i must be >= 1")
    if n is not None and not 1 <= i <= 4 * n:
        raise _UsageError(f"i must be in [1, {4 * n}]")
    if any(not 1 <= t <= 4 * n for t in s.get("s_offsets") or ()):
        raise _UsageError(f"s_offsets keys must be tori in [1, {4 * n}]")
    if "pairs" in s:
        s["pairs"] = _pair_list(s)
        # settings left unset keep the model's defaults
        given = {key: s[key] for key in ("mu", "s_offsets", "interval")
                 if s[key] is not None}
        try:
            s["model"] = gluing.ModelCrossingMap(n=n, **given)
        except gluing.InvalidCrossingModel as exc:
            raise _UsageError(f"crossing model: {exc}")
    s["out"] = s["out"] or out.format(**s)
    return s


def _pair_list(s: dict) -> list[tuple[int, int]] | None:
    """The pairs of one run in increasing order, every one checked; m1 and m2
    together take precedence over pairs, and a pair listed twice is a usage
    error.  None if neither is given: the run takes every proven pair."""
    n = s["n"]
    if (s["m1"] is None) != (s["m2"] is None):
        raise _UsageError("--m1 and --m2 must be given together")
    given = [[s["m1"], s["m2"]]] if s["m1"] is not None else s["pairs"]
    if given is None:
        return None
    if not isinstance(given, list):
        raise _UsageError("pairs must be a list of [m1, m2] pairs")
    pairs = []
    for p in given:
        if not (isinstance(p, list) and len(p) == 2):
            raise _UsageError(f"pair {p!r} is not a list of two integers")
        try:
            pair = distinguisher.check_pair(*map(_integer, p), n)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"pair ({p[0]},{p[1]}): {exc}")
        if pair in pairs:
            raise _UsageError(f"pair ({pair[0]},{pair[1]}) is listed twice")
        pairs.append(pair)
    return pairs


# -- subcommands -----------------------------------------------------------------


def cmd_plug(s: dict) -> int:
    _write_atomic(s["out"], jsonout.chunks(plug.plug_document(plug.build_plug(s["n"]))))
    print(f"wrote {s['out']}")
    return EXIT_OK


def invariants_document(n: int, k: int) -> dict:
    rows = [{"i": i, "cluster_size": osp.MaximalShape("C_i", i).lozenge_count(),
             "handedness_by_m": row}
            for i, row in handedness.handedness_table(n).items()]
    return {"n": n, "k": k, "columns_m": list(range(2 * n + 1)), "rows": rows}


def cmd_invariants(s: dict) -> int:
    doc = invariants_document(s["n"], s["k"])
    for row in doc["rows"]:
        flips = sum(1 for a, b in zip(row["handedness_by_m"],
                                      row["handedness_by_m"][1:]) if a != b)
        if flips > 1:
            raise AssertionError(f"handedness row {row['i']} is not a step function")
    _write_atomic(s["out"], jsonout.chunks(doc))
    print(f"wrote {s['out']}")
    return EXIT_OK


def cmd_distinguish(s: dict) -> int:
    n, k, pairs = s["n"], s["k"], s["pairs"]
    if pairs is None:
        pairs = [p for p in itertools.combinations(range(2 * n + 1), 2)
                 if distinguisher.proven_range(*p, n)]
    # health gate: the configured crossing model must put a markovian fixed
    # point in every rectangle pair before certificates are emitted
    for j in range(1, 2 * n + 1):
        gluing.locate_periodic_orbit(s["model"], 0, j)
    ends = distinguisher.end_chains(n)
    mismatches = 0
    for m1, m2 in pairs:
        verdict = distinguisher.distinguish(m1, m2, n, k, ends)
        if not distinguisher.verify_certificate(verdict):
            raise AssertionError(f"certificate for ({m1},{m2}) failed re-verification")
        path = os.path.join(s["out"], f"certificate_m{m1}_m{m2}.json")
        _write_atomic(path, [distinguisher.certificate_to_json(verdict)])
        expected_inequivalent = distinguisher.proven_range(m1, m2, n)
        if expected_inequivalent and verdict.tag != distinguisher.INEQUIVALENT:
            mismatches += 1
        print(f"({m1},{m2}): {verdict.tag} -> {path}")
    return EXIT_VERDICT_MISMATCH if mismatches else EXIT_OK


SVG_X_SCALE = 120
SVG_Y_SCALE = 260
SVG_C_GRID = [t / 8 for t in range(8)]


def bifoliation_svg(i: int) -> Iterator[str]:
    """The lines of an SVG of sampled leaves of both model foliations, with
    the compact leaves emphasized, each yielded as soon as it is formatted."""
    width = mt.circumference(i) * SVG_X_SCALE
    height = SVG_Y_SCALE
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">\n')
    yield f'<rect width="{width}" height="{height}" fill="white"/>\n'
    colors = {"s": "#1f77b4", "u": "#d62728"}
    circ = mt.circumference(i)
    for fol in ("s", "u"):
        head = f'<polyline class="leaf-{fol}" points="'
        tail = f'" fill="none" stroke="{colors[fol]}" stroke-width="0.6"/>\n'
        for ann in mt.reeb_annuli(i, fol):
            lo, hi = ann.interval()
            # only an interval holding a multiple of circ crosses the chart seam
            crosses = (lo // circ + 1) * circ < hi
            x_text = _ChartXText(circ)
            for segments in mt.sample_leaf_polyline(ann, SVG_C_GRID):
                for seg in segments:
                    for piece in _split_at_x_seam(seg, circ) if crosses else (seg,):
                        if len(piece) < 2:
                            continue
                        # one format over the y values; the x text is shared
                        pts = " ".join([x_text[x] for x, _ in piece]) % tuple(
                            [(1 - y) * SVG_Y_SCALE for _, y in piece])
                        yield head + pts + tail
        for x in mt.compact_leaf_positions(i, fol):
            px = float(x % mt.circumference(i)) * SVG_X_SCALE
            yield (f'<line class="compact-{fol}" x1="{px:.2f}" y1="0" x2="{px:.2f}" '
                   f'y2="{height}" stroke="{colors[fol]}" stroke-width="2.5"/>\n')
    yield "</svg>\n"


class _ChartXText(dict):
    """The chart x text of a sample abscissa, followed by the format of its y
    value; formatted once per annulus, as its leaves share their sample
    abscissae."""

    def __init__(self, circ: int):
        super().__init__()
        self.circ = circ

    def __missing__(self, x: float) -> str:
        text = self[x] = "%.2f,%%.2f" % ((x % self.circ) * SVG_X_SCALE)
        return text


def _split_at_x_seam(seg, circ):
    """Break a polyline where the chart x-coordinate wraps around the torus."""
    piece = [seg[0]]
    for p in seg[1:]:
        if abs(p[0] % circ - piece[-1][0] % circ) > circ / 2:
            yield piece
            piece = []
        piece.append(p)
    yield piece


def cmd_plot(s: dict) -> int:
    _write_atomic(s["out"], bifoliation_svg(s["i"]))
    print(f"wrote {s['out']}")
    return EXIT_OK


def cmd_orbit_space(s: dict) -> int:
    i = s["i"]
    fan = osp.old_fan_cluster(i, 0)
    new_data = one_crossing(gluing.crossing_orbit_index(i), s["n"])
    lozenges = list(fan.lozenges) + [osp.extend_fan(fan, fol, new_data)
                                     for fol in s["extend"]]
    shape = osp.classify_maximal(lozenges, s["k"])
    _write_atomic(s["out"], [osp.cluster_to_json(lozenges, shape)])
    print(f"wrote {s['out']}")
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="plugflow",
                description="plug-flow family invariants and certificates")
    p.add_argument("--config", help="JSON config file; flags take precedence, and "
                   "keys the command does not read are rejected")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (summary, keys, _) in _COMMAND_KEYS.items():
        sp = sub.add_parser(command, help=summary)
        for key in keys.split():
            if key.startswith("--"):
                sp.add_argument(key, type=_KEYS[key[2:]].flag, help=_KEYS[key[2:]].help)
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
        return COMMANDS[args.command](_settings(args))
    except (_UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, ValueError, KeyError, TypeError,
            gluing.NonMarkovianError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
