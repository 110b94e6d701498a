"""plugflow benchmark: one seeded, closed-loop workload per run.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

It measures set-up time in fresh interpreters, then starts one client
process (client.py) that drives `plugflow.cli.main` in-process for
`--seconds` seconds of CLI time and checks every output against the
closed-form oracle (oracle.py).  Times are reported at the reference speed
of calibrate.py; the raw medians are printed beside them.  With `--trace 0`
the last stdout line holds the end-to-end metrics; with `--trace 1` it holds
the per-layer metrics of a traced run (tracing.py) and the import time of
each module.  Every printed figure, with its note and, for the latency
metrics, the sample count and tail percentile, also goes to
`.bench_work/<workload>/report.json`.  bench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
from tracing import MODULES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
IMPORT_REPEATS = 5
TOTAL_BUDGET_S = 175.0
# times import and parser set-up, then runs the calibration kernel once in the
# same fresh process
SETUP_SNIPPET = """
import time
start = time.perf_counter()
import plugflow.cli as cli
cli.build_parser()
seconds = time.perf_counter() - start
import json, sys
sys.path.insert(0, {bench!r})
import calibrate
print(json.dumps([seconds, cli.__file__, calibrate.kernel()]))
"""


class BenchError(Exception):
    pass


def _python(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def measure_setup(env: dict, src: Path) -> tuple[list[float], list[tuple[float, float]]]:
    """Seconds from a fresh interpreter to a built CLI parser, and the kernel
    time measured right after in the same process (as a (before, after) pair
    for calibrate.scaled), once per repeat.

    One unmeasured start first writes the bytecode caches, which every later
    CLI call finds in place.
    """
    times, kernels = [], []
    snippet = SETUP_SNIPPET.format(bench=str(BENCH))
    for rep in range(SETUP_REPEATS + 1):
        seconds, path, kernel = json.loads(_python(["-c", snippet], env, 60).stdout)
        if Path(path).resolve().parent != src / "plugflow":
            raise BenchError(f"plugflow.cli imported from {path}, not from {src}")
        if rep:
            times.append(seconds)
            kernels.append((kernel, kernel))
    return times, kernels


def measure_imports(env: dict, factor: float) -> dict[str, float]:
    """Median cumulative import time of each module, from `-X importtime`,
    scaled to the reference speed by `factor`."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORT_REPEATS):
        err = _python(["-X", "importtime", "-c", "import plugflow.cli"], env, 60).stderr
        for line in err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            name = fields[-1].strip().removeprefix("plugflow.")
            if len(fields) == 3 and name in samples and fields[1].strip().isdigit():
                samples[name].append(int(fields[1]) / 1e3)
    return {f"{m}.import_ms": statistics.median(v) * factor if v else 0.0
            for m, v in samples.items()}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest sample with at least ten samples beyond it, and its percentile.

    With fewer than 21 samples no sample above the median qualifies, so the
    median sample stands in.
    """
    xs = sorted(samples)
    i = max(len(xs) - 11, (len(xs) - 1) // 2)
    return xs[i], 100.0 * (i + 1) / len(xs)


def run_client(args, env: dict, workdir: Path, deadline: float) -> dict:
    result = workdir / "result.json"
    cmd = [str(BENCH / "client.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result)]
    try:
        proc = _python(cmd, env, max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("client did not finish in time") from None
    sys.stderr.write(proc.stderr)
    with open(result) as f:
        return json.load(f)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="plugflow benchmark (see bench/README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    deadline = time.monotonic() + TOTAL_BUDGET_S
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "plugflow" / "cli.py").is_file():
        print(f"no plugflow sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    workdir = root / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    try:
        setup, setup_kernels = measure_setup(env, src)
        setup_factor = statistics.median(calibrate.factor(*k) for k in setup_kernels)
        imports = measure_imports(env, setup_factor) if args.trace else {}
        res = run_client(args, env, workdir, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir / "op", ignore_errors=True)

    phases = [res["warmup"], res["untraced"]] + ([res["traced"]] if args.trace else [])
    attempted = sum(ph["attempted"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    for ph in phases:
        for err in ph["errors"]:
            print(f"FAILED {err}", file=sys.stderr)
    if res.get("plug_errors"):
        # every passing op wrote a plug equal to the reference, so all of them fail
        print(f"FAILED reference plug: {res['plug_errors'][0]}", file=sys.stderr)
        failed = attempted
    measured = res["traced"] if args.trace else res["untraced"]
    if not measured["latencies_s"]:
        print("benchmark failed: no op passed the oracle", file=sys.stderr)
        return 1

    lines = [("setup_s", statistics.median(calibrate.scaled(setup, setup_kernels)), "s",
              f"median of {len(setup)} fresh interpreters, "
              f"raw {statistics.median(setup):.4f} s, factor {setup_factor:.3f}")]
    ok = len(measured["latencies_s"])
    details = {}
    if not args.trace:
        raw_ms = [t * 1e3 for t in measured["latencies_s"]]
        lat_ms = calibrate.scaled(raw_ms, measured["kernel_s"])
        tail_ms, pct = tail(lat_ms)
        lines += [
            ("ops_per_s", ok / (sum(lat_ms) / 1e3), "1/s",
             f"{ok} ops, raw {ok / measured['busy_s']:.4g}/s"),
            ("op_p50_ms", statistics.median(lat_ms), "ms",
             f"{ok} samples, raw {statistics.median(raw_ms):.2f} ms"),
            ("op_tail_ms", tail_ms, "ms", f"p{pct:.1f} of {ok} samples"),
            ("peak_rss_mb", res["peak_rss_mb"], "MB", "client process max RSS"),
        ]
        details = {"op_p50_ms": {"samples": ok},
                   "op_tail_ms": {"samples": ok, "percentile": pct}}
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in lines}
    else:
        layers = dict(measured["layers"])
        layers["cli.files_written"] = measured["files_written"] / ok
        layers["cli.bytes_written"] = measured["bytes_written"] / ok
        layers["trace.overhead_ms"] = measured["overhead_ms"]
        layers["trace.overhead_ratio"] = measured["overhead_ratio"]
        layers.update(imports)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layers.items())}
        lines += [(n, m["value"], m["unit"], "") for n, m in metrics.items()]
        lines.append(("trace.spans", measured["spans"], "count",
                      f"over {measured['attempted']} traced ops"))
    lines.append(("failed_ratio", failed / attempted, "ratio", f"{failed}/{attempted} ops"))
    report = {}
    for name, value, unit, note in lines:
        print(f"{args.workload:<9} {name:<42} {value:>14.6g} {unit:<6} {note}")
        report[name] = {"value": value, "unit": unit, "note": note, **details.get(name, {})}
    with open(workdir / "report.json", "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes/op"
    return "count/op"


if __name__ == "__main__":
    sys.exit(main())
