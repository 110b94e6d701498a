"""Batch front-end: determinism, golden files, exit codes, SVG output."""

import collections
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from plugflow import cli, jsonout, plug
from plugflow.plug import plug_from_json

FIXTURES = Path(__file__).parent / "fixtures"


def run(argv):
    return cli.main([str(a) for a in argv])


def _counted(counts, name, fn):
    """fn, adding one to counts[name] on every call."""
    def wrapper(*a):
        counts[name] += 1
        return fn(*a)
    return wrapper


# -- plug --------------------------------------------------------------------------

def test_cmd_plug_roundtrip(tmp_path):
    out = tmp_path / "plug.json"
    assert run(["plug", "--n", 1, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 1
    assert len(doc["tori"]) == 8
    spec = plug_from_json(out.read_text())
    assert spec.n == 1


def test_cmd_plug_n2_annulus_counts(tmp_path):
    out = tmp_path / "plug2.json"
    assert run(["plug", "--n", 2, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["tori"]) == 16
    counts = sorted({len(t["annuli"]) for t in doc["tori"]})
    assert counts == [2 * i + 2 for i in range(1, 9)]


# -- invariants ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_invariants_golden(tmp_path, n):
    out = tmp_path / "inv.json"
    assert run(["invariants", "--n", n, "--k", 7, "--out", out]) == 0
    golden = (FIXTURES / f"golden_invariants_n{n}_k7.json").read_bytes()
    assert out.read_bytes() == golden


def test_invariants_example_row(tmp_path):
    out = tmp_path / "inv.json"
    run(["invariants", "--n", 1, "--k", 7, "--out", out])
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["handedness_by_m"] == ["R", "L", "L"]
    assert [r["cluster_size"] for r in doc["rows"]] == [7, 11, 15, 19]


def test_invariants_rows_single_step(tmp_path):
    out = tmp_path / "inv.json"
    run(["invariants", "--n", 2, "--k", 7, "--out", out])
    for row in json.loads(out.read_text())["rows"]:
        h = row["handedness_by_m"]
        assert sum(1 for a, b in zip(h, h[1:]) if a != b) == 1


def test_invariants_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["invariants", "--n", 2, "--k", 7, "--out", a])
    run(["invariants", "--n", 2, "--k", 7, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_invariants_rejects_zero_k(tmp_path):
    assert run(["invariants", "--n", 1, "--k", 0,
                "--out", tmp_path / "x.json"]) == cli.EXIT_USAGE


# -- distinguish -----------------------------------------------------------------------

def test_distinguish_writes_certificates(tmp_path):
    out = tmp_path / "certs"
    assert run(["distinguish", "--n", 2, "--k", 7, "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert files == ["certificate_m1_m2.json", "certificate_m1_m3.json",
                     "certificate_m2_m3.json"]
    for f in files:
        doc = json.loads((out / f).read_text())
        assert doc["verdict"] == "Inequivalent"


def test_distinguish_pair_count_n3(tmp_path):
    out = tmp_path / "certs"
    assert run(["distinguish", "--n", 3, "--k", -7, "--out", out]) == 0
    assert len(os.listdir(out)) == 10


def test_distinguish_single_pair(tmp_path):
    out = tmp_path / "certs"
    assert run(["distinguish", "--n", 2, "--k", 7, "--m1", 1, "--m2", 2,
                "--out", out]) == 0
    assert os.listdir(out) == ["certificate_m1_m2.json"]


def test_distinguish_empty_pair_list_is_noop(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 2, "k": 7, "pairs": [],
                                   "out": str(tmp_path / "certs")}))
    assert run(["--config", cfgfile, "distinguish"]) == 0
    assert not (tmp_path / "certs").exists()


def test_distinguish_inconclusive_pair_sets_exit_code(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    # the pair (1, 2n) is outside the proven range yet inside [1, 2n-1]? no:
    # m2 = 2n is outside, so it is not expected Inequivalent; use an explicit
    # in-range request against a family where it cannot conclude
    cfgfile.write_text(json.dumps({"n": 1, "k": 7, "pairs": [[0, 1]],
                                   "out": str(tmp_path / "certs")}))
    assert run(["--config", cfgfile, "distinguish"]) == 0
    doc = json.loads((tmp_path / "certs" / "certificate_m0_m1.json").read_text())
    assert doc["verdict"] == "Inconclusive"


@pytest.mark.parametrize("pairs", [
    [[1, 2], [3, 3]],
    [[1, 2], [0, 9]],
    [[1, 2], [1, 2, 3]],
    [[1, 2], [1, "3"]],
    [[1, 2], [True, 3]],
    {"1": 2},
])
def test_bad_pair_list_writes_nothing(tmp_path, pairs):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 2, "k": 7, "pairs": pairs,
                                   "out": str(tmp_path / "certs")}))
    assert run(["--config", cfgfile, "distinguish"]) == cli.EXIT_USAGE
    assert not (tmp_path / "certs").exists()


def test_reversed_pair_is_normalised(tmp_path, capsys):
    out = tmp_path / "certs"
    assert run(["distinguish", "--n", 2, "--k", 7, "--m1", 2, "--m2", 1,
                "--out", out]) == 0
    assert os.listdir(out) == ["certificate_m1_m2.json"]
    assert capsys.readouterr().out.startswith("(1,2): Inequivalent -> ")


@pytest.mark.parametrize("pairs", [[[1, 2], [2, 1], [1, 2]], [[1, 3], [1, 3]]])
def test_duplicate_pair_writes_nothing(tmp_path, pairs):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 2, "k": 7, "pairs": pairs,
                                   "out": str(tmp_path / "certs")}))
    assert run(["--config", cfgfile, "distinguish"]) == cli.EXIT_USAGE
    assert not (tmp_path / "certs").exists()


#: sha256 of every certificate byte and exit code of the all-pairs runs
#: below, taken before the end chains were reused across the pairs of a run
ALL_PAIRS_DIGEST = "47d571d8e107d1f6c2490a9548c4d3f0c4fa7db5dbd6a8e8bf0d2faa268118cb"


def test_all_pairs_certificates_bytes_identical(tmp_path):
    h = hashlib.sha256()
    for n in range(1, 9):
        for k in (1, -1, 7, -7, 100, -100):
            out = tmp_path / f"n{n}_k{k}"
            cfgfile = tmp_path / f"cfg_n{n}_k{k}.json"
            pairs = [list(p) for p in itertools.combinations(range(2 * n + 1), 2)]
            cfgfile.write_text(json.dumps({"n": n, "k": k, "pairs": pairs,
                                           "out": str(out)}))
            code = run(["--config", cfgfile, "distinguish"])
            h.update(f"{n},{k},{code}".encode())
            for name in sorted(os.listdir(out)):
                h.update(name.encode())
                h.update((out / name).read_bytes())
    assert h.hexdigest() == ALL_PAIRS_DIGEST


#: sha256 of every plug and plot byte and exit code of the runs below, taken
#: before every JSON document went through one writer
ARTIFACTS_DIGEST = "c88f27337b1707340aae4a969f4fe3b4e0e07e020d275ff92e2f33d47859bae9"


def test_artifacts_bytes_identical(tmp_path):
    h = hashlib.sha256()
    runs = ([("plug", "--n", n, f"plug_n{n}.json") for n in (1, 2, 3)]
            + [("plot", "--i", i, f"bifoliation_T{i}.svg") for i in (1, 2, 3, 4)])
    for command, flag, value, name in runs:
        code = run([command, flag, value, "--out", tmp_path / name])
        h.update(f"{command},{value},{code}".encode())
        h.update(name.encode())
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == ARTIFACTS_DIGEST


#: sha256 of the plug file of n = 16 (2.1 MB, many encoder chunks), taken
#: before the plug document was streamed into its file
PLUG_N16_DIGEST = "7d74817da091b08ecf8767911b1d07b88ea1065bbf490782a281fcddb6812009"


def test_plug_n16_bytes_identical(tmp_path):
    out = tmp_path / "plug_n16.json"
    assert run(["plug", "--n", 16, "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLUG_N16_DIGEST


def test_plug_peak_memory_stays_below_twice_the_file(tmp_path):
    # the document is encoded into its file as its records are computed, so
    # one torus and one chunk are alive at a time, not the text, the dicts of
    # every torus or a table of records: the peak stays flat as n grows
    out = tmp_path / "plug.json"
    assert run(["plug", "--n", 1, "--out", out]) == 0   # warm-up, untraced
    peaks = {}
    for n in (4, 16):
        tracemalloc.start()
        try:
            assert run(["plug", "--n", n, "--out", out]) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] < 2 * out.stat().st_size
    assert peaks[16] < 1.5 * peaks[4], peaks


def test_a_failed_stream_leaves_the_previous_file(tmp_path, monkeypatch):
    out = tmp_path / "plug.json"
    assert run(["plug", "--n", 1, "--out", out]) == 0
    before = out.read_bytes()
    document = plug.plug_document

    def poisoned(spec):
        # a value JSON cannot hold, in the last torus: encoded after many chunks
        doc = document(spec)
        last = (4 * spec.n, "out")
        doc["tori"] = ({**t, "component": {t["component"]}}
                       if (t["i"], t["side"]) == last else t for t in doc["tori"])
        return doc

    monkeypatch.setattr(plug, "plug_document", poisoned)
    written = []

    def counted(chunks):
        for chunk in chunks:
            written.append(len(chunk))
            yield chunk

    with pytest.raises(TypeError):
        cli._write_atomic(str(out), counted(jsonout.chunks(
            plug.plug_document(plug.build_plug(4)))))
    # earlier chunks went past the file's write buffer before the failure
    assert len(written) > 1 and sum(written) > io.DEFAULT_BUFFER_SIZE
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["plug.json"]

    assert run(["plug", "--n", 4, "--out", out]) == cli.EXIT_INTERNAL
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["plug.json"]


#: sha256 of every plot byte and exit code of the runs below, taken before
#: each Reeb annulus was sampled from one ln|sin| profile
PLOT_DIGEST = "0e1d965eb26b43204798654c562ac37d0b68bd0c728984087242ab340d9ad09f"


def test_plot_bytes_identical(tmp_path):
    h = hashlib.sha256()
    for i in [*range(5, 17), 40]:
        name = f"bifoliation_T{i}.svg"
        code = run(["plot", "--i", i, "--out", tmp_path / name])
        h.update(f"plot,{i},{code}".encode())
        h.update(name.encode())
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == PLOT_DIGEST


#: sha256 of every orbit-space byte and exit code of the runs below, taken
#: before cluster_to_json wrote the classification itself
ORBIT_SPACE_DIGEST = "468d34ea6ad07c5f4d0d77cc2fa65a4290fd814198f60a288d187377f032c62f"


def test_orbit_space_bytes_identical(tmp_path):
    h = hashlib.sha256()
    for i in range(1, 9):
        for extend in ("", "u", "s", "us", "su"):
            name = f"orbit_space_T{i}_{extend or 'none'}.json"
            code = run(["orbit-space", "--n", 2, "--i", i, "--extend", extend,
                        "--out", tmp_path / name])
            h.update(f"orbit-space,{i},{extend},{code}".encode())
            h.update(name.encode())
            h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == ORBIT_SPACE_DIGEST


def test_all_pairs_run_builds_end_chains_once(tmp_path, monkeypatch):
    # exact call counts over a ladder of n: the end chains and the health gate
    # once per run, the two fans built being those of T_1 and T_{4n-1} at an m
    # of the proven range; per proven pair four even-extension decisions (two
    # to certify, two to verify), each reading at most the 4n tori
    from plugflow import distinguisher, gluing, handedness, homology, orbit_space

    counts, fans = collections.Counter(), []

    def fan_cluster(i, m, build=orbit_space.old_fan_cluster):
        fans.append((i, m))
        return build(i, m)

    monkeypatch.setattr(orbit_space, "old_fan_cluster", fan_cluster)
    monkeypatch.setattr(gluing.ModelCrossingMap, "validate",
                        _counted(counts, "validate", gluing.ModelCrossingMap.validate))
    monkeypatch.setattr(handedness, "decide_sa_extension",
                        _counted(counts, "decisions", handedness.decide_sa_extension))
    monkeypatch.setattr(homology, "crossing_orbit_index",
                        _counted(counts, "incidences", homology.crossing_orbit_index))
    for n in (4, 8, 16):
        counts.clear()
        fans.clear()
        pairs = [list(p) for p in itertools.combinations(range(2 * n + 1), 2)]
        proven = sum(distinguisher.proven_range(m1, m2, n) for m1, m2 in pairs)
        cfgfile, out = tmp_path / f"cfg{n}.json", tmp_path / f"certs{n}"
        cfgfile.write_text(json.dumps({"n": n, "k": -7, "pairs": pairs, "out": str(out)}))
        assert run(["--config", cfgfile, "distinguish"]) == 0
        assert len(os.listdir(out)) == len(pairs)
        assert [i for i, _ in fans] == [1, 4 * n - 1], (n, fans)
        assert all(1 <= m <= 2 * n - 2 for _, m in fans), (n, fans)
        assert counts["validate"] == 1, n
        assert counts["decisions"] == 4 * proven, n
        assert counts["incidences"] <= 16 * n * proven, (n, counts["incidences"])


def test_orbit_space_counts_per_run(tmp_path, monkeypatch):
    # exact call counts over a ladder of i for a fan grown at both ends
    # (L = 4i+5 lozenges): one old fan; one chain position per old lozenge;
    # edge_adjacent on every pair twice (classification and document) and on
    # the 4i+2 neighbours of each of the two fans built; at most one period
    # of corner reads per chain corner
    from plugflow import orbit_space

    counts = collections.Counter()
    monkeypatch.setattr(orbit_space, "old_fan_cluster",
                        _counted(counts, "fans", orbit_space.old_fan_cluster))
    monkeypatch.setattr(orbit_space, "edge_adjacent",
                        _counted(counts, "adjacent", orbit_space.edge_adjacent))
    for name in ("corner", "position_of"):
        monkeypatch.setattr(orbit_space.OldChain, name,
                            _counted(counts, name, getattr(orbit_space.OldChain, name)))
    for i in (15, 31, 63):
        counts.clear()
        assert run(["orbit-space", "--n", 16, "--i", i, "--extend", "us",
                    "--out", tmp_path / f"T{i}.json"]) == 0
        size = 4 * i + 5
        assert counts["fans"] == 1, i
        assert counts["position_of"] == 4 * i + 3, i
        assert counts["adjacent"] == size * (size - 1) + 2 * (4 * i + 2), i
        assert counts["corner"] <= (4 * i + 4) ** 2, (i, counts["corner"])


def test_usage_error_exit_code():
    assert run(["distinguish", "--n", 2, "--k", 7, "--m1", 1]) == cli.EXIT_USAGE


def test_unknown_command_usage():
    assert run(["frobnicate"]) == cli.EXIT_USAGE


# -- plot -------------------------------------------------------------------------------

def test_plot_svg_parses_and_counts_compact_leaves(tmp_path):
    out = tmp_path / "plot.svg"
    assert run(["plot", "--i", 1, "--out", out]) == 0
    root = ET.fromstring(out.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    lines = [e for e in root.iter(f"{ns}line")]
    for fol in ("s", "u"):
        compact = [e for e in lines if e.get("class") == f"compact-{fol}"]
        assert len(compact) == 4


def test_plot_wrap_continuity(tmp_path):
    out = tmp_path / "plot.svg"
    run(["plot", "--i", 1, "--out", out])
    root = ET.fromstring(out.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    polys = [e for e in root.iter(f"{ns}polyline")
             if e.get("class") == "leaf-s"]
    assert polys
    tops = 0
    for e in polys:
        pts = [tuple(map(float, p.split(","))) for p in e.get("points").split()]
        ys = [y for _, y in pts]
        # wrapped segments begin or end within 1e-6 * scale of the border
        if abs(ys[0]) < 1e-4 or abs(ys[0] - cli.SVG_Y_SCALE) < 1e-4:
            tops += 1
    assert tops > 0


def test_plot_rejects_bad_index(tmp_path):
    assert run(["plot", "--i", 0, "--out", tmp_path / "x.svg"]) == cli.EXIT_USAGE


def test_plot_no_seam_jumps(tmp_path):
    # leaves in the annulus straddling the chart seam must be split, never
    # drawn as a long horizontal jump across the canvas
    out = tmp_path / "plot.svg"
    run(["plot", "--i", 1, "--out", out])
    root = ET.fromstring(out.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    width = 4 * cli.SVG_X_SCALE
    for e in root.iter(f"{ns}polyline"):
        pts = [tuple(map(float, p.split(","))) for p in e.get("points").split()]
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            assert abs(x1 - x0) < width / 2


# -- orbit-space ----------------------------------------------------------------------------

def test_orbit_space_json(tmp_path):
    out = tmp_path / "os.json"
    assert run(["orbit-space", "--n", 1, "--i", 1, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["lozenges"]) == 7
    assert doc["classification"] == {"tag": "C_i", "i": 1, "lozenges": 7}


def test_orbit_space_extended(tmp_path):
    out = tmp_path / "os.json"
    assert run(["orbit-space", "--n", 1, "--i", 1, "--extend", "us",
                "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["classification"]["tag"] == "C_i^us"
    assert len(doc["lozenges"]) == 9


@pytest.mark.parametrize("argv", [
    ["--extend", "uu"], ["--extend", "su s"], ["--extend", "x"], ["--k", 0]])
def test_orbit_space_checks_settings_before_building(tmp_path, monkeypatch, argv):
    from plugflow import orbit_space

    def unreachable(*a):
        raise AssertionError("the fan was built")

    monkeypatch.setattr(orbit_space, "old_fan_cluster", unreachable)
    assert run(["orbit-space", "--n", 2, "--i", 3, *argv,
                "--out", tmp_path / "os.json"]) == cli.EXIT_USAGE
    assert os.listdir(tmp_path) == []


def test_config_overrides(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 2, "k": 7, "i": 3,
                                   "out": str(tmp_path / "os.json")}))
    assert run(["--config", cfgfile, "orbit-space"]) == 0
    doc = json.loads((tmp_path / "os.json").read_text())
    assert len(doc["lozenges"]) == 15


def test_flag_takes_precedence_over_config(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 2, "k": -7}))
    out = tmp_path / "inv.json"
    assert run(["--config", cfgfile, "invariants", "--n", 1, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert (doc["n"], doc["k"]) == (1, -7)


#: configs every command rejects before it writes anything
BAD_CONFIGS = [
    # keys the command does not read
    ("distinguish", {"n": 2, "k": 7, "pair": [[1, 2]]}),
    ("plug", {"n": 1, "k": 7}),
    ("plot", {"i": 1, "n": 1}),
    ("orbit-space", {"n": 1, "mu": 4.0}),
    # a config that is not a JSON object
    ("invariants", [1, 2]),
    ("distinguish", [1, 2]),
    ("plug", [1, 2]),
    ("orbit-space", "n"),
    # values that do not convert
    ("distinguish", {"n": 1, "interval": 5}),
    ("distinguish", {"n": 1, "interval": [0.0, 0.25, 0.5]}),
    ("invariants", {"n": 1, "interval": 5}),
    ("distinguish", {"n": 1, "s_offsets": [0.1]}),
    ("distinguish", {"n": 1, "mu": "fast"}),
    ("invariants", {"n": "two"}),
    ("plot", {"i": [1]}),
    ("orbit-space", {"extend": "uu"}),
    ("plug", {"out": 5}),
    ("plot", {"out": ""}),
    ("plot", {"i": float("inf")}),
    # values out of range
    ("plug", {"n": 0}),
    ("invariants", {"k": 0}),
    ("orbit-space", {"k": 0}),
    # n, k and i are integers as given: no truncation, no bools, no strings
    ("invariants", {"n": 2.7}),
    ("invariants", {"k": True}),
    ("plot", {"i": 1.9}),
    ("plug", {"n": "3"}),
    # mu, s_offsets and interval are JSON numbers, and offsets name a torus
    ("distinguish", {"n": 1, "mu": True}),
    ("distinguish", {"n": 1, "s_offsets": {"1": True}}),
    ("distinguish", {"n": 1, "mu": "3"}),
    ("distinguish", {"n": 1, "interval": [0, "0.5"]}),
    ("distinguish", {"n": 1, "s_offsets": {"99": 0.1}}),
    # a torus key is spelled in canonical decimal, so no two keys name one torus
    ("distinguish", {"n": 1, "s_offsets": {"1": 0.2, "01": 0.9}}),
    ("distinguish", {"n": 1, "s_offsets": {" 1": 0.2}}),
    ("distinguish", {"n": 3, "s_offsets": {"1_0": 0.2}}),
    ("invariants", {"n": 1, "s_offsets": {"+2": 0.2}}),
]


@pytest.mark.parametrize("command, cfg", BAD_CONFIGS)
def test_bad_config_exits_usage_and_writes_nothing(tmp_path, monkeypatch, command, cfg):
    # every command writes to its default path, in the working directory
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(cfg))
    assert run(["--config", "cfg.json", command]) == cli.EXIT_USAGE
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_get_the_mode_open_would_give(tmp_path, umask):
    previous = os.umask(umask)
    try:
        assert run(["plug", "--n", 1, "--out", tmp_path / "plug.json"]) == 0
        assert run(["distinguish", "--n", 2, "--k", 7, "--out", tmp_path / "certs"]) == 0
    finally:
        os.umask(previous)
    written = [tmp_path / "plug.json", *(tmp_path / "certs").iterdir()]
    assert len(written) == 4
    assert {stat.S_IMODE(p.stat().st_mode) for p in written} == {0o666 & ~umask}


@pytest.mark.parametrize("content", [None, b"{not json", b"\xff\xfe{"])
def test_unreadable_config_is_usage_error(tmp_path, content):
    cfgfile = tmp_path / "cfg.json"
    if content is not None:
        cfgfile.write_bytes(content)
    assert run(["--config", cfgfile, "plug",
                "--out", tmp_path / "plug.json"]) == cli.EXIT_USAGE
    assert not (tmp_path / "plug.json").exists()


def test_deeply_nested_config_is_usage_error(tmp_path, capsys):
    # json.load gives up on deep nesting with RecursionError, not JSONDecodeError
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["--config", cfgfile, "plug",
                "--out", tmp_path / "plug.json"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "plug.json").exists()


def test_crossing_model_config(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 1, "k": 7, "mu": 4.0,
                                   "out": str(tmp_path / "certs")}))
    assert run(["--config", cfgfile, "distinguish"]) == 0


def test_canonical_torus_keys_are_accepted(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 3, "k": 7, "s_offsets": {"1": 0.2, "10": 0.12},
                                   "out": str(tmp_path / "certs")}))
    assert run(["--config", cfgfile, "distinguish"]) == 0


# crossing models the model's own validation rejects: the user's input, not an engine fault
REJECTED_MODELS = {
    "mu-1": (["--mu", "1.0"], None),
    "mu-1.05": (["--mu", "1.05"], None),
    "mu-nan": (["--mu", "nan"], None),
    "mu-inf": (["--mu", "inf"], None),
    "empty-interval": ([], '{"interval": [0.4, 0.1]}'),
    "offset-off-strip": ([], '{"s_offsets": {"1": 5.0}}'),
    "mu-overflows-to-inf": ([], '{"mu": 1e400}'),
    "mu-squared-overflows": (["--mu", "1e160"], None),
}


#: a mu that is not finite, or whose square (the return map's unstable
#: coefficient) is not, is refused by the model's mu check, which names mu
MU_NOT_FINITE = {"mu-nan", "mu-inf", "mu-overflows-to-inf", "mu-squared-overflows"}


@pytest.mark.parametrize("case", REJECTED_MODELS)
def test_invalid_crossing_model_is_usage_error(tmp_path, capsys, case):
    flags, config = REJECTED_MODELS[case]
    argv = ["distinguish", "--n", 2, "--k", 7, *flags, "--out", tmp_path / "certs"]
    if config is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(config)
        argv = ["--config", cfgfile, *argv]
    assert run(argv) == cli.EXIT_USAGE
    assert not (tmp_path / "certs").exists()
    err = capsys.readouterr().err
    assert err.startswith("usage error: crossing model: ")
    if case in MU_NOT_FINITE:
        assert re.search(r"\bmu\b", err), err


def test_verdict_mismatch_exit_code(tmp_path, monkeypatch):
    from plugflow import distinguisher

    def fake(m1, m2, n, k, ends):
        return distinguisher.DistinguishVerdict(
            distinguisher.INCONCLUSIVE, m1, m2, n, k, reason="stubbed")

    monkeypatch.setattr(distinguisher, "distinguish", fake)
    code = run(["distinguish", "--n", 2, "--k", 7, "--m1", 1, "--m2", 2,
                "--out", tmp_path / "certs"])
    assert code == cli.EXIT_VERDICT_MISMATCH


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_inner_value_or_key_error_is_internal_failure(tmp_path, monkeypatch, error):
    def broken(n):
        raise error("inner failure")

    monkeypatch.setattr(plug, "build_plug", broken)
    assert run(["plug", "--n", 1, "--out", tmp_path / "plug.json"]) == cli.EXIT_INTERNAL


# -- README ---------------------------------------------------------------------------

README_CLI = (Path(__file__).resolve().parent.parent / "README.md").read_text().split(
    "\n## CLI\n")[1].split("\n## ")[0]
#: the run.json example; `plugflow --config run.json distinguish` reads it
README_RUN_JSON = re.findall(r"```json\n(.*?)```", README_CLI, re.S)[0]
README_COMMANDS = [shlex.split(line)[1:]
                   for block in re.findall(r"```sh\n(.*?)```", README_CLI, re.S)
                   for line in block.splitlines() if line.startswith("plugflow ")]


def test_readme_lists_every_command():
    assert {argv[argv.index("--config") + 2] if "--config" in argv else argv[0]
            for argv in README_COMMANDS} == set(cli.COMMANDS)
    assert ["--config", "run.json", "distinguish"] in README_COMMANDS


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_cli_example_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(README_RUN_JSON)
    assert cli.main(argv) == cli.EXIT_OK
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
    else:
        out = Path(json.loads(README_RUN_JSON)["out"])
    if out.is_dir():
        written = sorted(p.name for p in out.iterdir())
        assert written and all(re.fullmatch(r"certificate_m\d+_m\d+\.json", w)
                               for w in written)
    else:
        assert out.is_file() and out.stat().st_size > 0
    if "--config" in argv:
        pairs = json.loads(README_RUN_JSON)["pairs"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"certificate_m{a}_m{b}.json" for a, b in pairs)


def test_readme_lists_each_commands_keys_as_declared():
    listed = dict(re.findall(r"^- `([\w-]+)`: (`.*`)$", README_CLI, re.M))
    assert {command: re.findall(r"`([^`]+)`", keys) for command, keys in listed.items()} == {
        command: keys.split() for command, (_, keys, _) in cli._COMMAND_KEYS.items()}


# -- one declaration ------------------------------------------------------------------

#: every flag of the top-level parser and of each command, in the order its
#: --help lists them, as literals: a declaration that adds, drops or reorders a
#: flag shows here
FLAG_SET = {
    "": ["--help", "--config"],
    "plug": ["--help", "--n", "--out"],
    "invariants": ["--help", "--n", "--k", "--out"],
    "distinguish": ["--help", "--n", "--k", "--m1", "--m2", "--mu", "--out"],
    "plot": ["--help", "--i", "--out"],
    "orbit-space": ["--help", "--n", "--k", "--i", "--extend", "--out"],
}


@pytest.mark.parametrize("command", FLAG_SET, ids=lambda c: c or "top")
def test_flag_set_of_every_command(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"] if command else ["--help"])
    assert exit_.value.code == 0
    # the option lines only, not the usage line, whose wrapping varies across Pythons
    flags = re.findall(r"^ +(?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
    assert flags == FLAG_SET[command]


#: run configs through both commands that read the run keys, with the exit
#: code both give: the four configs invariants once let through, an m1/m2
#: pair as config keys, README's run.json, every run-key config rejected
#: above, and large mu: accepted while mu**2 is finite (a residual taken on
#: the forward map cannot converge from mu = 1e5), refused beyond; every
#: config that is accepted has n <= 2
RUN_CONFIG_CORPUS = [
    ({"mu": 0.5}, cli.EXIT_USAGE),
    ({"pairs": "garbage"}, cli.EXIT_USAGE),
    ({"interval": [0.4, 0.1]}, cli.EXIT_USAGE),
    ({"s_offsets": {"1": 5.0}}, cli.EXIT_USAGE),
    ({"n": 2, "m1": 1, "m2": 2}, cli.EXIT_OK),
    ({"n": 2, "m1": 1}, cli.EXIT_USAGE),
    (json.loads(README_RUN_JSON), cli.EXIT_OK),
    *[(cfg, cli.EXIT_USAGE) for command, cfg in BAD_CONFIGS
      if command in ("invariants", "distinguish")],
    ({"n": 2, "mu": 1e5}, cli.EXIT_OK),
    ({"n": 2, "mu": 1e100}, cli.EXIT_OK),
    ({"mu": 1e160}, cli.EXIT_USAGE),
    ({"mu": 1e308}, cli.EXIT_USAGE),
]


@pytest.mark.parametrize("cfg, code", RUN_CONFIG_CORPUS)
def test_run_config_corpus_both_commands_agree(tmp_path, monkeypatch, cfg, code):
    for command in ("invariants", "distinguish"):
        workdir = tmp_path / command
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        Path("cfg.json").write_text(json.dumps(cfg))
        assert run(["--config", "cfg.json", command]) == code, command
        written = sorted(os.listdir(workdir))
        assert (written == ["cfg.json"]) == (code == cli.EXIT_USAGE), (command, written)


def test_cli_runs_as_a_process(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def process(workdir, *argv):
        workdir.mkdir()
        return subprocess.run([sys.executable, "-m", "plugflow.cli", *argv], cwd=workdir,
                              env=env, capture_output=True, text=True, timeout=60)

    done = process(tmp_path / "ok", "invariants", "--n", "1")
    assert (done.returncode, done.stdout) == (0, "wrote invariants_n1_k7.json\n")
    assert os.listdir(tmp_path / "ok") == ["invariants_n1_k7.json"]
    done = process(tmp_path / "usage", "plot", "--i", "0")
    assert done.returncode == cli.EXIT_USAGE
    assert done.stderr.startswith("usage error: ")
    assert os.listdir(tmp_path / "usage") == []
    (tmp_path / "cfg.json").write_text(json.dumps({"mu": 0.5}))
    done = process(tmp_path / "config", "--config", str(tmp_path / "cfg.json"), "invariants")
    assert done.returncode == cli.EXIT_USAGE
    assert done.stderr.startswith("usage error: ")
    assert os.listdir(tmp_path / "config") == []
