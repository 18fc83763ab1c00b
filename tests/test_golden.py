"""Golden results: the `results` block and exit code of fixed CLI runs.

Integers, strings, booleans and verdicts must match exactly, floats to a
relative 1e-12. A change to tests/golden/results.json is a golden change
and needs a CHANGES.md entry that says why. Regenerate the file from the
current code with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile

import pytest

from kleinlab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "results.json"
FLOAT_REL = 1e-12

# name -> (shipped group file, fields it overrides, command and flags)
RUNS = {
    "graph-loxodromic": ("cyclic_loxodromic.json", {},
                         ["graph", "--samples", "40000", "--seed", "1000"]),
    "graph-parabolic": ("cyclic_parabolic.json", {},
                        ["graph", "--samples", "40000", "--seed", "1000"]),
    # the benchmark's Schottky input
    "diagnose-schottky": ("reference_schottky.json",
                          {"epsilon0": 0.25, "depths": [5, 6]},
                          ["diagnose", "--seed", "1000"]),
    "graph-schottky": ("reference_schottky.json", {},
                       ["graph", "--epsilon0", "0.25", "--seed", "7"]),
    "dimension-schottky": ("reference_schottky.json", {},
                           ["dimension", "--depth", "7", "--seed", "1000"]),
    "limitset-schottky": ("reference_schottky.json", {},
                          ["limitset", "--depth", "8"]),
    "harmonic-schottky": ("reference_schottky.json", {},
                          ["harmonic", "--samples", "40000", "--seed", "1000"]),
    "validate-schottky": ("reference_schottky.json", {}, ["validate"]),
    "validate-loxodromic": ("cyclic_loxodromic.json", {}, ["validate"]),
    "validate-parabolic": ("cyclic_parabolic.json", {}, ["validate"]),
    "limitset-loxodromic": ("cyclic_loxodromic.json", {}, ["limitset"]),
    "limitset-parabolic": ("cyclic_parabolic.json", {}, ["limitset"]),
    "harmonic-loxodromic": ("cyclic_loxodromic.json", {},
                            ["harmonic", "--samples", "40000", "--seed", "1000"]),
    "harmonic-parabolic": ("cyclic_parabolic.json", {},
                           ["harmonic", "--samples", "40000", "--seed", "1000"]),
}


def run(name: str, tmp: pathlib.Path) -> dict:
    """Exit code and `results` of one run, read from its --json report."""
    file, overrides, argv = RUNS[name]
    doc = json.loads((ROOT / "groups" / file).read_text())
    doc.update(overrides)
    path = tmp / file
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv + ["--file", str(path), "--json"])
    report = json.loads(out.getvalue())
    return {"exit_code": report["exit_code"], "results": report["results"]}


def assert_matches(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif float in (type(got), type(want)):
        assert {type(got), type(want)} <= {int, float}, path
        assert math.isclose(got, want, rel_tol=FLOAT_REL, abs_tol=0.0), (
            f"{path}: {got!r} != {want!r}")
    else:
        assert type(got) is type(want) and got == want, (
            f"{path}: {got!r} != {want!r}")


@pytest.mark.parametrize("name", list(RUNS))
def test_results_match_golden(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    assert_matches(run(name, tmp_path), want)


def test_comparison_is_exact_for_counts_and_close_for_floats():
    want = {"n": 3, "ok": True, "verdict": "x", "v": 1.0, "list": [0.5]}
    assert_matches({"n": 3, "ok": True, "verdict": "x", "v": 1.0 + 1e-13,
                    "list": [0.5]}, want)
    for bad in ({"n": 4}, {"ok": 1}, {"verdict": "y"}, {"v": 1.0 + 1e-11},
                {"list": [0.5, 0.5]}, {"extra": 0}):
        with pytest.raises(AssertionError):
            assert_matches({**want, **bad}, want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: run(name, pathlib.Path(tmp)) for name in RUNS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
