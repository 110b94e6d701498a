"""Tests of the benchmark itself: oracle, op streams, tracer arithmetic, exit paths.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import client  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from plugflow import cli  # noqa: E402
from plugflow.plug import plug_from_json, plug_to_json  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


def certify_op(workdir: Path, index=0, n=3, k=7,
               pairs=((0, 2), (1, 2), (1, 5), (2, 6))) -> workloads.Op:
    out, cfg = workdir / "certs", workdir / "certify.json"
    text = json.dumps({"k": k, "pairs": [list(p) for p in pairs], "out": str(out)})
    return workloads.Op(index,
                        (("--config", str(cfg), "distinguish", "--n", str(n)),),
                        ((str(cfg), text),),
                        {"n": n, "k": k, "pairs": list(pairs), "out": str(out)})


def classify_op(workdir: Path, index=0, i=5, extend="us") -> workloads.Op:
    out = str(workdir / "cluster.json")
    return workloads.Op(index,
                        (("orbit-space", "--n", "2", "--i", str(i), "--extend", extend,
                          "--out", out),),
                        (), {"n": 2, "i": i, "extend": extend, "out": out})


def artifacts_op(workdir: Path, index=0, n=1, k=-7, i=2) -> workloads.Op:
    paths = {key: str(workdir / name) for key, name in
             (("plug", "plug.json"), ("invariants", "inv.json"), ("svg", "plot.svg"))}
    return workloads.Op(index,
                        (("plug", "--n", str(n), "--out", paths["plug"]),
                         ("invariants", "--n", str(n), "--k", str(k),
                          "--out", paths["invariants"]),
                         ("plot", "--i", str(i), "--out", paths["svg"])),
                        (), {"n": n, "k": k, "i": i, **paths})


def run_op(op):
    op.write_inputs()
    codes, stdout, _ = client.execute(op, cli)
    return codes, stdout


def roundtrip(text):
    return plug_to_json(plug_from_json(text))


def flip_preserving_cell(path: Path) -> None:
    doc = json.loads(path.read_text())
    branch = next(b for b in doc["branches"] if b["orientation"] == "preserving")
    cell = sorted(branch["table_cells"])[0]
    branch["table_cells"][cell] = "R" if branch["table_cells"][cell] == "L" else "L"
    path.write_text(json.dumps(doc))


# -- oracle ------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_invariants_match_golden_fixtures(n):
    golden = json.loads((FIXTURES / f"golden_invariants_n{n}_k7.json").read_text())
    assert oracle.expected_invariants(n, 7) == golden


@pytest.mark.parametrize("k", [7, -1])
def test_oracle_accepts_real_certificates(tmp_path, k):
    op = certify_op(tmp_path, k=k)
    codes, stdout = run_op(op)
    assert oracle.check_certify(op, codes, stdout) == []


def test_flipped_cell_fails_the_oracle(tmp_path):
    op = certify_op(tmp_path)
    codes, stdout = run_op(op)
    flip_preserving_cell(tmp_path / "certs" / "certificate_m1_m5.json")
    errors = oracle.check_certify(op, codes, stdout)
    assert len(errors) == 1 and "preserving cells" in errors[0]


def test_flipped_cell_counts_as_a_failed_op(tmp_path):
    class TamperingCli:
        @staticmethod
        def main(argv):
            code = cli.main(argv)
            flip_preserving_cell(tmp_path / "certs" / "certificate_m1_m2.json")
            return code

    ops = (certify_op(tmp_path, index) for index in itertools.count())
    phase = client.run_phase(ops, oracle.check_certify, TamperingCli, 0.0,
                             str(tmp_path), math.inf)
    assert (phase["attempted"], phase["failed"], phase["latencies_s"]) == (1, 1, [])
    clean = client.run_phase((certify_op(tmp_path, index) for index in itertools.count()),
                             oracle.check_certify, cli, 0.0, str(tmp_path), math.inf)
    assert (clean["attempted"], clean["failed"]) == (1, 0)


def test_oracle_rejects_out_of_range_inequivalent():
    doc = {"pair": [0, 2], "n": 3, "k": 7, "verdict": "Inequivalent", "branches": []}
    assert oracle.certificate_errors(doc, 0, 2, 3, 7)


def test_classify_oracle_accepts_and_rejects(tmp_path):
    op = classify_op(tmp_path)
    codes, stdout = run_op(op)
    assert oracle.check_classify(op, codes, stdout) == []
    wrong = classify_op(tmp_path, extend="u")
    assert any("classification" in e for e in oracle.check_classify(wrong, codes, stdout))


def test_artifacts_oracle_accepts_and_rejects(tmp_path):
    op = artifacts_op(tmp_path)
    codes, stdout = run_op(op)
    reference = tmp_path / "reference.json"
    shutil.copyfile(op.params["plug"], reference)
    assert oracle.plug_file_errors(str(reference), 1, roundtrip) == []
    assert oracle.svg_errors(Path(op.params["svg"]).read_text(), 3)
    assert oracle.plug_errors(reference.read_text(), 2)
    assert oracle.check_artifacts(op, [0, 1, 0], stdout, str(reference)) == \
        ["exit codes [0, 1, 0]"]

    # a second op writes the same plug, so the byte comparison accepts it
    codes, stdout = run_op(op)
    assert oracle.check_artifacts(op, codes, stdout, str(reference)) == []
    reference.write_text(reference.read_text().replace('"n": 1', '"n": 2', 1))
    assert oracle.check_artifacts(op, codes, stdout, str(reference)) == \
        ["plug differs from the checked reference plug"]


def test_plug_that_does_not_round_trip_fails(tmp_path):
    op = artifacts_op(tmp_path)
    run_op(op)
    plug = Path(op.params["plug"])
    plug.write_text(json.dumps(json.loads(plug.read_text()), indent=3))
    assert oracle.plug_file_errors(str(plug), 1, roundtrip) == \
        ["plug does not round-trip through its parser"]


# -- op streams --------------------------------------------------------------------


def first_ops(workload, seed, count=12):
    return list(itertools.islice(workloads.ops(workload, seed, "/w"), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_invocations(workload):
    assert first_ops(workload, 3) == first_ops(workload, 3)
    assert first_ops(workload, 3) != first_ops(workload, 4)


def test_streams_deal_balanced_inputs():
    certify = first_ops("certify", 1, 6)
    assert sorted(op.params["k"] for op in certify) == sorted(workloads.K_CHOICES)
    for op in certify:
        assert len(set(op.params["pairs"])) == workloads.CERTIFY_PAIRS
        assert all(0 <= m1 < m2 <= 2 * workloads.CERTIFY_N for m1, m2 in op.params["pairs"])
        boundary = [p for p in op.params["pairs"] if not oracle.proven(*p, workloads.CERTIFY_N)]
        assert len(boundary) == 1
    classify = first_ops("classify", 1, 4)
    assert sorted(op.params["i"] for op in classify) == list(workloads.CLASSIFY_I)
    assert [op.params["extend"] for op in classify] == list(workloads.EXTENDS)


# -- tracer ------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [(0, None, "op", 0.0, 10.0, 7),
             (1, 0, "a", 1.0, 6.0, 7),
             (2, 1, "b", 2.0, 3.0, 7),
             (3, 1, "b", 4.0, 5.5, 7),
             (4, 0, "c", 7.0, 9.0, 7)]
    assert tracing.self_times(spans) == pytest.approx({0: 3.0, 1: 2.5, 2: 1.0, 3: 1.5, 4: 2.0})
    rows = tracing.by_name(spans)
    assert rows["b"] == pytest.approx({"calls": 2, "total_s": 2.5, "self_s": 2.5})
    assert rows["a"] == pytest.approx({"calls": 1, "total_s": 5.0, "self_s": 2.5})


def test_per_op_self_times_sum_to_the_op_span(tmp_path):
    originals = (cli.main, cli.COMMANDS["distinguish"])
    tracer = tracing.Tracer().install()
    try:
        assert cli.main is not originals[0]
        assert cli.COMMANDS["distinguish"] is not originals[1]
        for index, op in enumerate([certify_op(tmp_path), classify_op(tmp_path),
                                    artifacts_op(tmp_path)]):
            op.write_inputs()
            tracer.run_op(index, lambda op=op: [cli.main(list(a)) for a in op.argvs])
    finally:
        tracer.uninstall()
    assert (cli.main, cli.COMMANDS["distinguish"]) == originals

    selfs = tracing.self_times(tracer.spans)
    roots = {s[5]: s for s in tracer.spans if s[2] == "op"}
    assert sorted(roots) == [0, 1, 2]
    for op_id, (_, parent, _, start, end, _) in roots.items():
        assert parent is None
        total = sum(selfs[s[0]] for s in tracer.spans if s[5] == op_id)
        assert total == pytest.approx(end - start, abs=1e-9)

    names = {s[2] for s in tracer.spans}
    assert {"cli.main", "handedness.old_sa_annulus", "orbit_space.classify_maximal",
            "plug.build_plug", "model_torus.sample_leaf_polyline"} <= names
    assert "orbit_space.edge_adjacent" not in names
    assert tracer.counts["orbit_space.edge_adjacent"] > 0
    layers = tracing.layer_metrics(tracer, 3)
    assert layers["distinguisher.distinguish.calls"] == pytest.approx(4 / 3)
    assert layers["distinguisher.inconclusive_ratio"] == pytest.approx(0.5)

    # the traced run reports exactly the per-layer metrics BENCHMARK.json lists
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    added = {"cli.files_written", "cli.bytes_written", "trace.overhead_ms",
             "trace.overhead_ratio"} | {f"{m}.import_ms" for m in tracing.MODULES}
    assert set(layers) | added == listed


# -- run.py ------------------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(x) for x in range(30)]) == (19.0, pytest.approx(200 / 3))
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3))


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
