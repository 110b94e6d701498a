"""Outside-in tracing of plugflow's layers from the benchmark's own files.

`Tracer.install()` replaces every public function of the traced modules with
a wrapper that records a span (name, start, end, parent span, op id) while
the tracer is active.  The wrapper is patched into every plugflow namespace
and module-level dict that binds the same function object, because some
modules use `from ... import` and the CLI dispatches through a dict.  Hot
leaves get count-only wrappers, so they cost a counter bump and their time
stays in the caller's self time.  Spans stay in memory until `dump`.

Self time of a span is its duration minus the durations of its child spans;
calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "plugflow"
MODULES = ("cli", "distinguisher", "handedness", "orbit_space", "homology",
           "gluing", "plug", "model_torus")

#: public functions called thousands of times per op: counted, not timed
HOT = frozenset({
    "orbit_space.edge_adjacent", "orbit_space.chain_label",
    "gluing.crossing_orbit_index", "gluing.pair_torus", "gluing.rectangle_chirality",
    "plug.frame_sign", "plug.annulus_name", "plug.leaf_name", "plug.orbit_name",
    "plug.component_of",
    "homology.h1_zero", "homology.alpha_class", "homology.h1_add",
    "homology.h1_scale", "homology.h1_neg", "homology.intersection",
    "homology.surgery_correction",
    "model_torus.circumference", "model_torus.norm_mod", "model_torus.leaf_y",
    "model_torus.s_leaf_constant", "model_torus.u_leaf_constant",
})

#: methods counted under a layer name: (metric name, module, class, attribute)
METHOD_COUNTERS = (
    ("orbit_space.position_of", "orbit_space", "OldChain", "position_of"),
    ("orbit_space.lozenges_built", "orbit_space", "Lozenge", "__init__"),
    ("gluing.validate", "gluing", "ModelCrossingMap", "validate"),
)

DECIDE = ("homology.decide_two_new_adjacent", "homology.decide_bridge",
          "homology.decide_sa_extension")


def _tally_result(name: str):
    """Which outcome of a call to tally, as (counter name, weight) from its result."""
    if name == "distinguisher.distinguish":
        return lambda r: ("inconclusive", getattr(r, "tag", None) == "Inconclusive")
    if name in DECIDE:
        return lambda r: ("forbidden", getattr(r, "tag", None) == "Forbidden")
    if name == "gluing.locate_periodic_orbit":
        return lambda r: ("fixed_point_iterations", getattr(r, "iterations", 0))
    return None


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None
        self.spans: list[tuple] = []        # (id, parent, name, start, end, op)
        self.counts: dict[str, int] = defaultdict(int)
        self.tallies: dict[str, float] = defaultdict(float)
        self._stack: list = [None]
        self._undo: list = []

    # -- patching ---------------------------------------------------------------

    def install(self) -> "Tracer":
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                # a span around a generator function would end at its first yield
                hot = name in HOT or inspect.isgeneratorfunction(fn)
                wrapper = self._counter(name, fn) if hot else self._span(name, fn)
                self._rebind(fn, wrapper)
        for name, short, cls_name, attr in METHOD_COUNTERS:
            cls = getattr(mods[short], cls_name, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is not None:
                self._undo.append((cls, attr, vars(cls).get(attr)))
                setattr(cls, attr, self._counter(name, fn))
        return self

    def _rebind(self, fn, wrapper) -> None:
        """Replace `fn` wherever a plugflow module or module-level dict binds it."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is fn:
                            self._undo.append((val, key, fn))
                            val[key] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            elif original is None:
                delattr(target, key)
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        tally = _tally_result(name)
        spans, stack, clock, tallies = self.spans, self._stack, time.perf_counter, self.tallies

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)          # reserve the id; filled in on exit
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, self.op)
            if tally is not None:
                key, weight = tally(result)
                tallies[key] += weight
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- ops --------------------------------------------------------------------

    def run_op(self, op_id, fn):
        """Call fn() inside a root span named "op", tracing everything it reaches."""
        self.op, self.active = op_id, True
        try:
            return self._span("op", fn)()
        finally:
            self.active, self.op = False, None

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# -- aggregation ----------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {}
    for sid, parent, _name, start, end, _op in spans:
        out[sid] = out.get(sid, 0.0) + (end - start)
        if parent is not None:
            out[parent] = out.get(parent, 0.0) - (end - start)
    return out


def by_name(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _parent, name, start, end, _op in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
    return dict(out)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op layer figures from a finished traced phase of `ops` ops."""
    rows = by_name(tracer.spans)
    counts, tallies = tracer.counts, tracer.tallies
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return rows.get(name, zero)

    def summed(prefix, key):
        return sum(r[key] for n, r in rows.items() if n.startswith(prefix))

    decide_calls = sum(row(n)["calls"] for n in DECIDE)
    distinguish_calls = row("distinguisher.distinguish")["calls"]
    per_op = {
        "handedness.old_sa_annulus.calls": row("handedness.old_sa_annulus")["calls"],
        "handedness.old_sa_annulus.self_s": row("handedness.old_sa_annulus")["self_s"],
        "handedness.old_sa_annulus.total_s": row("handedness.old_sa_annulus")["total_s"],
        "orbit_space.old_fan_cluster.calls": row("orbit_space.old_fan_cluster")["calls"],
        "orbit_space.old_fan_cluster.self_s": row("orbit_space.old_fan_cluster")["self_s"],
        "orbit_space.photo_inverse.self_s": row("orbit_space.photo_inverse")["self_s"],
        "orbit_space.lozenges_built": counts["orbit_space.lozenges_built"],
        "orbit_space.classify_maximal.calls": row("orbit_space.classify_maximal")["calls"],
        "orbit_space.classify_maximal.self_s": row("orbit_space.classify_maximal")["self_s"],
        "orbit_space.classify_maximal.total_s": row("orbit_space.classify_maximal")["total_s"],
        "orbit_space.adjacency_pairs.self_s": row("orbit_space.adjacency_pairs")["self_s"],
        "orbit_space.edge_adjacent.calls": counts["orbit_space.edge_adjacent"],
        "orbit_space.position_of.calls": counts["orbit_space.position_of"],
        "orbit_space.cluster_to_json.self_s": row("orbit_space.cluster_to_json")["self_s"],
        "orbit_space.cluster_to_json.total_s": row("orbit_space.cluster_to_json")["total_s"],
        "gluing.locate_periodic_orbit.calls": row("gluing.locate_periodic_orbit")["calls"],
        "gluing.locate_periodic_orbit.self_s": row("gluing.locate_periodic_orbit")["self_s"],
        "gluing.validate.calls": counts["gluing.validate"],
        "gluing.fixed_point_iterations": tallies["fixed_point_iterations"],
        "distinguisher.distinguish.calls": distinguish_calls,
        "distinguisher.distinguish.self_s": row("distinguisher.distinguish")["self_s"],
        "distinguisher.distinguish.total_s": row("distinguisher.distinguish")["total_s"],
        "distinguisher.verify_certificate.self_s":
            row("distinguisher.verify_certificate")["self_s"],
        "distinguisher.certificate_to_json.self_s":
            row("distinguisher.certificate_to_json")["self_s"],
        "homology.decide.calls": decide_calls,
        "homology.decide.self_s": sum(row(n)["self_s"] for n in DECIDE),
        "plug.build_plug.self_s": row("plug.build_plug")["self_s"],
        "plug.plug_to_json.self_s": row("plug.plug_to_json")["self_s"],
        "model_torus.calls": summed("model_torus.", "calls") + sum(
            c for n, c in counts.items() if n.startswith("model_torus.")),
        "model_torus.self_s": summed("model_torus.", "self_s"),
        "cli.self_s": summed("cli.", "self_s"),
        "cli.main.total_s": row("cli.main")["total_s"],
        "op.total_s": row("op")["total_s"],
    }
    out = {name: value / ops for name, value in per_op.items()}
    out["distinguisher.inconclusive_ratio"] = (
        tallies["inconclusive"] / distinguish_calls if distinguish_calls else 0.0)
    out["homology.forbidden_ratio"] = (
        tallies["forbidden"] / decide_calls if decide_calls else 0.0)
    return out
