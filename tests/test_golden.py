"""Golden results: the `results` block and exit code of fixed CLI runs.

Integers, strings, booleans and verdicts must match exactly, floats to a
relative 1e-12. A change to tests/golden/results.json is a golden change
and needs a CHANGES.md entry that says why. Regenerate the file from the
current code with `PYTHONPATH=src python tests/test_golden.py`. It keeps
each value that still matches, and prints each field that moves: its path,
old -> new and the relative change.
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


def settle(old, new, path="$"):
    """(value, moves): new, with each leaf that matches old as the golden
    test compares them kept at old, and the (path, old, new) of each leaf
    that does not. A subtree whose keys or length changed is one move."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        parts = {key: settle(old[key], new[key], f"{path}.{key}") for key in old}
        return ({key: v for key, (v, _) in parts.items()},
                [m for _, ms in parts.values() for m in ms])
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        parts = [settle(o, n, f"{path}[{i}]")
                 for i, (o, n) in enumerate(zip(old, new))]
        return [v for v, _ in parts], [m for _, ms in parts for m in ms]
    try:
        assert_matches(new, old, path)
    except AssertionError:
        return new, [(path, old, new)]
    return old, []


def describe(path, old, new) -> str:
    """One line of a move, with the relative change of a nonzero number."""
    line = f"{path}: {old!r} -> {new!r}"
    if {type(old), type(new)} <= {int, float} and old != 0:
        line += f" (relative {(new - old) / abs(old):+.2e})"
    return line


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


def test_settle_keeps_matching_leaves_and_names_the_moves():
    old = {"a": {"x": 1.0, "n": 3, "s": "v"}, "b": [0.5, 2.0], "c": [1]}
    new = {"a": {"x": 1.5, "n": 3, "s": "w"}, "b": [0.5 + 1e-16, 2.0],
           "c": [1, 2]}
    value, moved = settle(old, new)
    assert value == {"a": {"x": 1.5, "n": 3, "s": "w"}, "b": [0.5, 2.0],
                     "c": [1, 2]}
    assert moved == [("$.a.x", 1.0, 1.5), ("$.a.s", "v", "w"),
                     ("$.c", [1], [1, 2])]
    assert settle(new, new) == (new, [])
    assert describe("$.a.x", 2.0, 1.5) == "$.a.x: 2.0 -> 1.5 (relative -2.50e-01)"
    assert describe("$.a.s", "v", "w") == "$.a.s: 'v' -> 'w'"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: run(name, pathlib.Path(tmp)) for name in RUNS}
    golden, moved = settle(json.loads(GOLDEN.read_text()), golden)
    for move in moved:
        print(describe(*move))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
