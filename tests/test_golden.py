"""Golden reports: fixed commands whose report bytes must never drift.

Each case runs ``cli.run`` in-process with ``--out`` and compares the
written report, with ``wall_time_s`` stripped, byte for byte against
``tests/golden/<name>.json``, together with the exit code, and validates
the full report against ``schema/report.schema.json`` (also when
re-recording, so a report that breaks the schema is never written) and
the envelope: ``kind`` is the subcommand, and the exit code is 2 exactly
when there are certificates.  A refactor that
claims "same numbers" proves it here.  Every stored golden is itself
a report: it parses as JSON and, with ``wall_time_s`` put back, validates
against the schema.

``PYTHONPATH=src python tests/test_golden.py --diff`` runs every case and
prints, against the stored golden, each leaf that moved (old -> new, with
the relative change) and each key added or removed; it exits 1 when
anything differs.  After an intended output change, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and paste the ``--diff``
output, taken before re-recording, into the change log.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from smale_lab import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCHEMA_PATH = GOLDEN_DIR.parent.parent / "schema" / "report.schema.json"

# (name, argv, exit code)
CASES = [
    ("c8_analyze", ["analyze", "--poly", '{"roots":[[0.5,0.5],[-1,0],[0,2]]}',
                    "--samples", "50", "--seed", "9"], 0),
    ("c8_cstar", ["cstar", "--degree", "3", "--dim", "2", "--trials", "100",
                  "--seed", "9"], 0),
    ("c8_search_s0", ["search", "--mode", "s0", "--degree", "3", "--restarts", "8",
                      "--seed", "9"], 0),
    ("c8_dynamics_sweep", ["dynamics", "--random-sweep", "2,100", "--seed", "9"], 0),
    ("analyze_normalized", ["analyze", "--poly",
                            '{"coeffs":[[0,0],[1,0],[-0.5,0.25],[0.1,-0.2]]}',
                            "--normalized", "--samples", "50"], 0),
    ("search_ds0", ["search", "--mode", "ds0", "--degree", "4", "--restarts", "8"], 0),
    ("cstar_strong", ["cstar", "--degree", "3", "--dim", "2", "--trials", "100",
                      "--strong"], 0),
    ("dynamics_poly", ["dynamics", "--poly", '{"coeffs":[[0,0],[1,0],[-0.5,0]]}'], 0),
    # z - z^3/3: two petals (m = 2), each critical orbit proven in one step
    ("dynamics_poly_cubic", ["dynamics", "--poly",
                             '{"coeffs":[[0,0],[1,0],[0,0],[-0.3333333333333333,0]]}'], 0),
    # the one case that emits a certificate: an exact-confirmed cstar_dual
    ("cstar_strong_seed97", ["cstar", "--degree", "3", "--dim", "2", "--trials", "20",
                             "--strong", "--seed", "97"], 2),
    # stored roots with moduli 1e-2 .. 1e2: each residual is judged on the
    # scale of its Horner terms, not on the largest coefficient alone
    ("analyze_spread_roots", ["analyze", "--poly",
                              '{"roots":[[100,0],[0.01,0],[0,0.01],[-0.01,0],'
                              '[0,-0.01],[0.005,0.005]]}'], 0),
    # longer coefficient loops in the search objective: degree 7, and
    # degree 12, the top of the supported range
    ("search_ds0_deg7", ["search", "--mode", "ds0", "--degree", "7", "--restarts", "4",
                         "--seed", "3"], 0),
    ("search_s0_deg12", ["search", "--mode", "s0", "--degree", "12", "--restarts", "1",
                         "--seed", "5"], 0),
]


def _strip_wall_time(text: str) -> str:
    # the comma before the field when there is one (the field sorts last in
    # most reports), else the one after it, so the rest stays valid JSON
    return re.sub(r',"wall_time_s":[0-9eE+.\-]+|"wall_time_s":[0-9eE+.\-]+,?', "", text)


def _report(argv, out_path):
    """(exit code, report text with wall_time_s stripped, parsed full report);
    raises if the full report does not validate against the schema."""
    import jsonschema

    code = cli.run([*argv, "--out", str(out_path)])
    raw = Path(out_path).read_text(encoding="utf-8")
    report = json.loads(raw)
    jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text(encoding="utf-8")))
    return code, _strip_wall_time(raw), report


def _leaves(obj, path="") -> dict:
    """{path: value} for every leaf of parsed JSON; an empty list or object
    is a leaf."""
    if not isinstance(obj, (dict, list)) or not obj:
        return {path: obj}
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    out = {}
    for key, value in items:
        sub = f"{path}[{key}]" if isinstance(obj, list) else f"{path}.{key}" if path else key
        out.update(_leaves(value, sub))
    return out


def _diff(old, new) -> list[str]:
    """One line per leaf path removed, added or moved from old to new."""
    a, b = _leaves(old), _leaves(new)
    lines = [f"removed {p}: {a[p]!r}" for p in sorted(a.keys() - b.keys())]
    lines += [f"added {p}: {b[p]!r}" for p in sorted(b.keys() - a.keys())]
    for p in sorted(a.keys() & b.keys()):
        x, y = a[p], b[p]
        if x == y and type(x) is type(y):
            continue
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        rel = f" ({(y - x) / abs(x):+.3g})" if numeric and x != 0 else ""
        lines.append(f"moved {p}: {x!r} -> {y!r}{rel}")
    return lines


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_golden_is_a_valid_report(path):
    import jsonschema

    with path.open(encoding="utf-8") as f:
        report = json.load(f)
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    jsonschema.validate({**report, "wall_time_s": 0.0}, schema)


def test_diff_names_moved_added_and_removed_leaves():
    old = {"a": 1.0, "b": [1, {"c": "x"}], "d": True, "e": []}
    new = {"a": 1.5, "b": [1, {"c": "y"}, 3], "d": 1, "f": {}}
    assert _diff(old, new) == [
        "removed e: []",
        "added b[2]: 3",
        "added f: {}",
        "moved a: 1.0 -> 1.5 (+0.5)",
        "moved b[1].c: 'x' -> 'y'",
        "moved d: True -> 1",
    ]
    assert _diff(new, new) == []


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_report(name, argv, code, tmp_path, monkeypatch):
    monkeypatch.delenv("SMALE_LAB_SEED", raising=False)
    got_code, text, report = _report(argv, tmp_path / "report.json")
    assert got_code == code
    assert text == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    # the envelope cli.run writes for every command
    assert report["kind"] == argv[0]
    assert got_code == (2 if report["certificates"] else 0)


if __name__ == "__main__":
    import os
    import tempfile

    if sys.argv[1:] not in ([], ["--diff"]):
        sys.exit("usage: python tests/test_golden.py [--diff]")
    show_diff = sys.argv[1:] == ["--diff"]
    os.environ.pop("SMALE_LAB_SEED", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, code in CASES:
            got_code, text, _ = _report(argv, Path(tmp) / "report.json")
            golden = GOLDEN_DIR / f"{name}.json"
            if show_diff:
                stored = golden.read_text(encoding="utf-8") if golden.exists() else "{}"
                lines = _diff(json.loads(stored), json.loads(text))
                if got_code != code:
                    lines.insert(0, f"exit code: {code} -> {got_code}")
                if not lines and text != stored:
                    lines.append("bytes differ, parsed content equal")
                differs = differs or bool(lines)
                print(f"{name}: {len(lines)} change(s)" if lines else f"{name}: unchanged")
                for line in lines:
                    print(f"  {line}")
                continue
            if got_code != code:
                sys.exit(f"{name}: exit code {got_code}, expected {code}")
            golden.write_text(text, encoding="utf-8")
    sys.exit(1 if differs else 0)
