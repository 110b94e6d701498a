"""Output oracle built from the closed forms stated in PAPER.md.

Nothing here imports plugflow: every expected value is recomputed from the
published formulas, so a wrong answer in the program cannot hide behind the
same wrong answer in the check.  The one exception is the plug round trip,
whose parser and writer the caller passes in as `roundtrip`.

The plug of a fixed `n` is the same file on every op, so `plug_file_errors`
checks one copy of it in full and `check_artifacts` compares each op's plug
with that copy byte for byte, reading both in small chunks.

Each `check_*` takes an op (see workloads.py), the exit codes of its CLI
calls and their captured stdout, and returns a list of error strings; an
empty list means every output of the op is correct.
"""

from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET

SVG_NS = "{http://www.w3.org/2000/svg}"
SHAPE_TAGS = {"": "C_i", "u": "C_i^u", "s": "C_i^s", "us": "C_i^us"}


def handedness(i: int, m: int) -> str:
    """The table: odd i is L iff j <= m, even i is R iff j <= m, j = ceil(i/2)."""
    j = (i + 1) // 2
    if i % 2 == 1:
        return "L" if j <= m else "R"
    return "R" if j <= m else "L"


def proven(m1: int, m2: int, n: int) -> bool:
    """The theorem covers exactly 1 <= m1 < m2 <= 2n-1."""
    return 1 <= m1 < m2 <= 2 * n - 1


def expected_invariants(n: int, k: int) -> dict:
    return {
        "n": n, "k": k, "columns_m": list(range(2 * n + 1)),
        "rows": [{"i": i, "cluster_size": 4 * i + 3,
                  "handedness_by_m": [handedness(i, m) for m in range(2 * n + 1)]}
                 for i in range(1, 4 * n + 1)],
    }


def certificate_errors(doc: dict, m1: int, m2: int, n: int, k: int) -> list[str]:
    """Everything the closed forms say about the certificate of (m1, m2)."""
    where = f"({m1},{m2})"
    if (doc.get("pair"), doc.get("n"), doc.get("k")) != ([m1, m2], n, k):
        return [f"{where}: header {doc.get('pair')}, n={doc.get('n')}, k={doc.get('k')}"]
    if not proven(m1, m2, n):
        if doc.get("verdict") != "Inconclusive" or doc.get("branches"):
            return [f"{where}: outside the proven range but {doc.get('verdict')}"]
        return []
    if doc.get("verdict") != "Inequivalent":
        return [f"{where}: inside the proven range but {doc.get('verdict')}"]
    branches = {b.get("orientation"): b for b in doc.get("branches", [])}
    if len(doc["branches"]) != 2 or set(branches) != {"preserving", "reversing"}:
        return [f"{where}: branches {sorted(branches)}"]
    errors = []

    pres = branches["preserving"]
    w = pres.get("witness_torus")
    if not (isinstance(w, int) and 2 * m1 + 1 <= w <= 2 * m2):
        errors.append(f"{where}: preserving witness T_{w} outside [{2 * m1 + 1}, {2 * m2}]")
    else:
        cells = {f"({w},{m1})": handedness(w, m1), f"({w},{m2})": handedness(w, m2)}
        if cells[f"({w},{m1})"] == cells[f"({w},{m2})"]:
            errors.append(f"{where}: table has no flip at T_{w}")
        if pres.get("table_cells") != cells:
            errors.append(f"{where}: preserving cells {pres.get('table_cells')} != {cells}")

    rev = branches["reversing"]
    top = 4 * n - 1
    refuting = top if k > 0 else 1
    if rev.get("witness_torus") != refuting:
        errors.append(f"{where}: reversing witness T_{rev.get('witness_torus')}, "
                      f"expected T_{refuting}")
    cells = rev.get("table_cells", {})
    want = {
        "handedness": {"1": handedness(1, m1), str(top): handedness(top, m1)},
        "extension_allowed": {"1": k > 0, str(top): k < 0},
        "sign_k": "+" if k > 0 else "-",
    }
    if cells != want:
        errors.append(f"{where}: reversing cells {cells} != {want}")
    return errors


def check_certify(op, codes: list[int], stdout: str) -> list[str]:
    p = op.params
    if codes != [0]:
        return [f"exit codes {codes}"]
    names = set(os.listdir(p["out"])) if os.path.isdir(p["out"]) else set()
    want = {f"certificate_m{m1}_m{m2}.json" for m1, m2 in p["pairs"]}
    if names != want:
        return [f"certificate files: {len(names & want)} of {len(want)} expected, "
                f"{len(names - want)} unexpected"]
    lines = set(stdout.splitlines())
    errors = []
    for m1, m2 in p["pairs"]:
        path = os.path.join(p["out"], f"certificate_m{m1}_m{m2}.json")
        with open(path) as f:
            doc = json.load(f)
        errors += certificate_errors(doc, m1, m2, p["n"], p["k"])
        if f"({m1},{m2}): {doc.get('verdict')} -> {path}" not in lines:
            errors.append(f"({m1},{m2}): no stdout line for the certificate")
    return errors


def _path_errors(size: int, adjacency: list) -> list[str]:
    """The adjacency graph must be one path whose edge labels alternate."""
    nbrs: dict[int, list[tuple[int, str]]] = {x: [] for x in range(size)}
    for x, y, lab in adjacency:
        if not (0 <= x < y < size) or lab not in ("s", "u"):
            return [f"bad adjacency entry {[x, y, lab]}"]
        nbrs[x].append((y, lab))
        nbrs[y].append((x, lab))
    ends = [x for x, adj in nbrs.items() if len(adj) == 1]
    if len(ends) != 2 or any(len(adj) > 2 for adj in nbrs.values()):
        return ["adjacency graph is not a path"]
    seen, prev, node, last = {ends[0]}, None, ends[0], None
    while True:
        step = [(y, lab) for y, lab in nbrs[node] if y != prev]
        if not step:
            break
        (nxt, lab), = step
        if lab == last:
            return [f"adjacency labels repeat {lab!r} at lozenge {node}"]
        seen.add(nxt)
        prev, node, last = node, nxt, lab
    if len(seen) != size:
        return ["adjacency graph is not connected"]
    return []


def check_classify(op, codes: list[int], stdout: str) -> list[str]:
    p = op.params
    if codes != [0]:
        return [f"exit codes {codes}"]
    i, ext, n = p["i"], p["extend"], p["n"]
    with open(p["out"]) as f:
        doc = json.load(f)
    size = 4 * i + 3 + len(ext)
    errors = []
    want = {"tag": SHAPE_TAGS[ext], "i": i, "lozenges": size}
    if doc.get("classification") != want:
        errors.append(f"classification {doc.get('classification')} != {want}")
    lozenges = doc.get("lozenges", [])
    if len(lozenges) != size:
        errors.append(f"{len(lozenges)} lozenges, expected {size}")
    crossing = [0] * (2 * n)
    crossing[(i + 1) // 2 - 1] = 1
    new = [l for l in lozenges if l.get("age") == "new"]
    if len(new) != len(ext) or any(l.get("crossings") != crossing for l in new):
        errors.append(f"new lozenges {new} do not each cross alpha_{(i + 1) // 2} once")
    adjacency = doc.get("adjacency", [])
    if len(adjacency) != size - 1:
        errors.append(f"{len(adjacency)} adjacencies, expected {size - 1}")
    elif len(lozenges) == size:
        errors += _path_errors(size, adjacency)
    if f"wrote {p['out']}" not in stdout.splitlines():
        errors.append("no stdout line for the cluster file")
    return errors


def plug_errors(text: str, n: int) -> list[str]:
    doc = json.loads(text)
    if doc.get("n") != n:
        return [f"plug n={doc.get('n')}, expected {n}"]
    tori = doc.get("tori", [])
    keys = sorted((t["i"], t["side"]) for t in tori)
    want = sorted((i, side) for i in range(1, 4 * n + 1) for side in ("in", "out"))
    if keys != want:
        return [f"plug has {len(tori)} tori, expected {8 * n}"]
    for t in tori:
        fol = "s" if t["side"] == "in" else "u"
        if [(a["j"], a["foliation"]) for a in t["annuli"]] != \
                [(j, fol) for j in range(2 * t["i"] + 2)]:
            return [f"torus ({t['i']},{t['side']}) annuli are not A^{{0..{2 * t['i'] + 1},{fol}}}"]
    orbits = len(doc.get("orbits", []))
    if orbits != sum(2 * (2 * i + 2) for i in range(1, 4 * n + 1)):
        return [f"plug has {orbits} orbits"]
    return []


def plug_file_errors(path: str, n: int, roundtrip) -> list[str]:
    """The full plug check: closed-form structure and the parser round trip."""
    with open(path) as f:
        text = f.read()
    errors = plug_errors(text, n)
    if roundtrip(text) != text:
        errors.append("plug does not round-trip through its parser")
    return errors


def same_bytes(path: str, other: str) -> bool:
    with open(path, "rb") as f, open(other, "rb") as g:
        while True:
            a, b = f.read(1 << 16), g.read(1 << 16)
            if a != b:
                return False
            if not a:
                return True


def svg_errors(text: str, i: int) -> list[str]:
    root = ET.fromstring(text)
    if root.tag != f"{SVG_NS}svg":
        return [f"root element {root.tag}"]
    errors = []
    classes = [e.get("class") for e in root.iter()]
    for fol in ("s", "u"):
        compact = classes.count(f"compact-{fol}")
        if compact != 2 * i + 2:
            errors.append(f"{compact} compact {fol}-lines, expected {2 * i + 2}")
        if f"leaf-{fol}" not in classes:
            errors.append(f"no {fol}-leaves drawn")
    return errors


def check_artifacts(op, codes: list[int], stdout: str, reference: str) -> list[str]:
    """`reference` is a plug file of the same `n` that `plug_file_errors` checks."""
    p = op.params
    if codes != [0, 0, 0]:
        return [f"exit codes {codes}"]
    errors = []
    if not same_bytes(p["plug"], reference):
        errors.append("plug differs from the checked reference plug")
    with open(p["invariants"]) as f:
        if json.load(f) != expected_invariants(p["n"], p["k"]):
            errors.append("invariants differ from the closed-form table")
    with open(p["svg"]) as f:
        errors += svg_errors(f.read(), p["i"])
    lines = stdout.splitlines()
    for key in ("plug", "invariants", "svg"):
        if f"wrote {p[key]}" not in lines:
            errors.append(f"no stdout line for the {key} file")
    return errors


CHECKS = {"certify": check_certify, "classify": check_classify,
          "artifacts": check_artifacts}
