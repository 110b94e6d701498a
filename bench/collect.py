"""Repeat benchmark runs over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1 2 3 4 5 --seconds 20 --trace 0 --out summary.json

Runs `bench/run.py` from the current directory once per seed and workload.
Reports, per metric, the median of the runs, the quartiles from
`statistics.quantiles(values, n=4)` and the spread: the distance between the
quartiles as a share of the median.  The sample counts and tail percentiles
of the latency metrics come along, one per run, from each run's
`.bench_work/<workload>/report.json`.  Compare two commits by running this
on each with the same seeds and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "runs": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary as JSON here")
    args = p.parse_args(argv)

    summary = {}
    for w in WORKLOADS:
        runs: dict[str, list[float]] = {}
        details: dict[str, dict[str, list]] = {}
        attempted = failed = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                print(f"{w} seed {seed}: incorrect outputs\n{proc.stderr}", file=sys.stderr)
            attempted += last["attempted"]
            failed += last["failed"]
            report = json.loads(Path(".bench_work", w, "report.json").read_text())
            for name, m in last["metrics"].items():
                runs.setdefault(name, []).append(m["value"])
                for key in ("samples", "percentile"):
                    if key in report[name]:
                        details.setdefault(name, {}).setdefault(key, []).append(
                            report[name][key])
        summary[w] = {name: summarise(v) | details.get(name, {}) for name, v in runs.items()}
        for name, s in summary[w].items():
            print(f"{w:<9} {name:<42} median {s['median']:>12.6g}  "
                  f"spread {s['spread']:>7.2%}")
        summary[w]["failed_ratio"] = {"failed": failed, "attempted": attempted}
        print(f"{w:<9} {'failed_ratio':<42} {failed}/{attempted} ops")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
