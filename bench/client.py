"""One closed-loop client: runs a workload's ops in-process against plugflow.cli.

Started by run.py in a fresh interpreter with the checkout's `src` on
PYTHONPATH.  It calls `plugflow.cli.main(argv)` for each CLI call of an op
and starts the next op only after the previous one returned and its outputs
passed the oracle.  Only the time inside `main` counts towards an op's
latency and towards the measured seconds.  The calibration kernel
(calibrate.py) runs between ops, so every latency can be scaled to the
reference speed by the kernel runs just before and after it.  The result
goes to a JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import calibrate
import oracle
import workloads

WALL_CAP_S = 140.0     # hard stop for the whole client, oracle time included


def _reset(workdir: str) -> None:
    """Empty the op's output directory so stale files cannot pass the oracle."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)


def _written(workdir: str) -> tuple[int, int]:
    files = size = 0
    for dirpath, _dirs, names in os.walk(workdir):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def execute(op, cli, tracer=None) -> tuple[list[int], str, float]:
    """Run every CLI call of `op`; return exit codes, captured stdout and seconds in main.

    The CLI's stderr (usage and internal errors) passes through to the
    client's stderr, which run.py forwards.
    """
    codes, elapsed = [], 0.0
    out = io.StringIO()

    def calls():
        nonlocal elapsed
        for argv in op.argvs:
            start = time.perf_counter()
            codes.append(cli.main(list(argv)))
            elapsed += time.perf_counter() - start

    with contextlib.redirect_stdout(out):
        if tracer is None:
            calls()
        else:
            tracer.run_op(op.index, calls)
    return codes, out.getvalue(), elapsed


def run_phase(stream, check, cli, seconds: float, workdir: str, deadline: float,
              tracer=None) -> dict:
    """Run ops from `stream` until `seconds` of time inside main have been spent."""
    latencies, kernel_s, errors = [], [], []
    attempted = failed = files = size = 0
    busy = 0.0
    before = calibrate.kernel()
    while attempted == 0 or (busy < seconds and time.perf_counter() < deadline):
        op = next(stream)
        _reset(workdir)
        op.write_inputs()
        attempted += 1
        try:
            codes, stdout, elapsed = execute(op, cli, tracer)
            busy += elapsed
            problems = check(op, codes, stdout)
        except Exception:  # an op that raises is a failed op, not a crashed run
            problems = [traceback.format_exc(limit=3)]
            elapsed = None
        after = calibrate.kernel()
        kernel, before = (before, after), after
        if problems:
            failed += 1
            errors.append(f"op {op.index}: {problems[0]}")
            continue
        latencies.append(elapsed)
        kernel_s.append(kernel)
        f, s = _written(workdir)
        files, size = files + f, size + s
    return {"attempted": attempted, "failed": failed, "latencies_s": latencies,
            "kernel_s": kernel_s, "busy_s": busy, "files_written": files,
            "bytes_written": size, "errors": errors[:5]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    import plugflow.cli as cli
    import plugflow.plug as plug
    src = os.path.abspath(os.path.join("src", "plugflow"))
    if os.path.dirname(os.path.abspath(cli.__file__)) != src:
        print(f"plugflow imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    check = oracle.CHECKS[args.workload]
    # the first plug written becomes the reference every later plug must equal;
    # its full check runs at the end, after the memory high-water mark is read
    reference = os.path.join(args.workdir, "plug_reference.json")
    if args.workload == "artifacts":
        def check(op, codes, stdout, _check=check):
            if not os.path.exists(reference) and os.path.exists(op.params["plug"]):
                shutil.copyfile(op.params["plug"], reference)
            return _check(op, codes, stdout, reference)

    opdir = os.path.join(args.workdir, "op")
    deadline = time.perf_counter() + WALL_CAP_S
    # warm-up: one untimed op loads lazy state and proves the pipeline works
    warm = run_phase(workloads.ops(args.workload, args.seed + 1_000_003, opdir),
                     check, cli, 0.0, opdir, deadline)
    if warm["failed"]:
        print(f"warm-up op failed: {warm['errors'][0]}", file=sys.stderr)

    result = {"warmup": warm}
    if not args.trace:
        result["untraced"] = run_phase(workloads.ops(args.workload, args.seed, opdir),
                                       check, cli, args.seconds, opdir, deadline)
    else:
        from tracing import Tracer, layer_metrics
        half = args.seconds / 2
        result["untraced"] = run_phase(workloads.ops(args.workload, args.seed, opdir),
                                       check, cli, half, opdir, deadline)
        tracer = Tracer().install()
        try:
            traced = run_phase(workloads.ops(args.workload, args.seed, opdir),
                               check, cli, half, opdir, deadline, tracer)
        finally:
            tracer.uninstall()
        # layer times at the reference speed of the traced phase
        factor = statistics.median(
            [calibrate.factor(*k) for k in traced["kernel_s"]] or [1.0])
        traced["layers"] = {
            name: value * factor if name.endswith("_s") else value
            for name, value in layer_metrics(tracer, traced["attempted"]).items()}
        # tracing overhead over the ops both phases completed, in op order
        plain = calibrate.scaled(result["untraced"]["latencies_s"],
                                 result["untraced"]["kernel_s"])
        slow = calibrate.scaled(traced["latencies_s"], traced["kernel_s"])
        common = min(len(plain), len(slow))
        plain, slow = plain[:common], slow[:common]
        traced["overhead_ms"] = (sum(slow) - sum(plain)) / max(common, 1) * 1e3
        traced["overhead_ratio"] = (sum(slow) / sum(plain) - 1) if common else 0.0
        traced["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(args.workdir, "spans.jsonl"))
        result["traced"] = traced
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.workload == "artifacts":
        result["plug_errors"] = (
            oracle.plug_file_errors(reference, workloads.ARTIFACTS_N,
                                    lambda text: plug.plug_to_json(plug.plug_from_json(text)))
            if os.path.exists(reference) else ["no plug was written"])
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
