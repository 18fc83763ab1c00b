"""Tests of the benchmark's own estimator and checks.

    python3 -m pytest benchmark/test_checks.py -q

Run from the root of a checkout. Real outputs come from small kleinlab runs;
each check must accept them and reject a corrupted copy.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import delta
import speed

ROOT = Path(__file__).resolve().parent.parent
SCHOTTKY = ROOT / "groups" / "reference_schottky.json"
LOXODROMIC = ROOT / "groups" / "cyclic_loxodromic.json"
PARABOLIC = ROOT / "groups" / "cyclic_parabolic.json"


def doc(path: Path) -> dict:
    return json.loads(path.read_text())


def kleinlab(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "kleinlab.cli", *args],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def ref_delta() -> float:
    return delta.schottky_delta(doc(SCHOTTKY))


# -- independent exponent ----------------------------------------------------

def test_equatorial_cap_projects_to_orthogonal_disc():
    theta = 0.3
    p, r = delta.cap_disc([1.0, 0.0, 0.0], theta)
    assert p == pytest.approx(1.0 / np.cos(theta))
    assert r == pytest.approx(np.tan(theta))


def test_reference_exponent_is_stable_across_depths():
    mats, anti = delta.schottky_letters(doc(SCHOTTKY))
    by_depth = delta.exponents_by_depth(mats, anti, 10)
    values = [by_depth[k] for k in range(4, 11)]
    assert max(values) - min(values) < 1e-6
    assert values[-1] == pytest.approx(0.19879, abs=1e-5)


def test_congruence_group_gamma2_approaches_one():
    # Gamma(2) has critical exponent 1; the cusps make convergence slow
    g1 = np.array([[1, 2], [0, 1]], dtype=complex)
    g2 = np.array([[1, 0], [2, 1]], dtype=complex)
    mats = np.array([g1, np.linalg.inv(g1), g2, np.linalg.inv(g2)])
    by_depth = delta.exponents_by_depth(mats, np.zeros(4, dtype=bool), 12)
    values = [by_depth[k] for k in range(4, 13)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert 0.97 < values[-1] < 1.0


# -- checks: accept real outputs, reject corrupted ones ------------------------

@pytest.fixture(scope="module")
def dimension_report() -> dict:
    return kleinlab("dimension", "--file", str(SCHOTTKY), "--json")


def test_dimension_check(dimension_report, ref_delta):
    assert checks.check_dimension(dimension_report, ref_delta) == []
    for key in ("box_dimension", "delta"):
        bad = copy.deepcopy(dimension_report)
        bad["results"][key]["estimate"] += 0.05
        assert checks.check_dimension(bad, ref_delta)
    bad = copy.deepcopy(dimension_report)
    bad["results"]["lambda0"] = 0.99
    assert checks.check_dimension(bad, ref_delta)


def test_diagnose_check(dimension_report, ref_delta):
    res = dimension_report["results"]
    report = {"exit_code": 0, "results": {
        "verdict": "consistent-with-geometrically-finite",
        "dimension_evidence": res,
        "evidence": {"box": res["box_dimension"]["estimate"],
                     "delta": res["delta"]["estimate"]}}}
    assert checks.check_diagnose(report, ref_delta) == []
    bad = copy.deepcopy(report)
    bad["results"]["evidence"]["delta"] += 0.05
    assert checks.check_diagnose(bad, ref_delta)
    bad = copy.deepcopy(report)
    bad["results"]["verdict"] = "inconclusive"
    assert checks.check_diagnose(bad, ref_delta)
    assert checks.check_diagnose(dict(report, exit_code=3), ref_delta)


@pytest.fixture(scope="module")
def cloud(tmp_path_factory):
    path = tmp_path_factory.mktemp("cloud") / "cloud.csv"
    report = kleinlab("limitset", "--file", str(SCHOTTKY), "--depth", "4",
                      "--json", "--out", str(path))
    return report, checks.read_csv_rows(path)


def test_limitset_check(cloud):
    report, rows = cloud
    ref = doc(SCHOTTKY)
    assert checks.check_limitset(report, rows, 4, ref) == []
    off_sphere = rows.copy()
    off_sphere[5] *= 1.0 + 1e-9
    assert checks.check_limitset(report, off_sphere, 4, ref)
    assert checks.check_limitset(report, rows[:-1], 4, ref)
    assert checks.check_limitset(report, rows, 5, ref)
    outside = rows.copy()
    outside[0] = [0.0, 0.0, 1.0]
    assert checks.check_limitset(report, outside, 4, ref)


@pytest.fixture(scope="module", params=[LOXODROMIC, PARABOLIC],
                ids=["annulus", "strip"])
def graph_output(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "graph.csv"
    report = kleinlab("graph", "--file", str(request.param), "--json",
                      "--samples", "3000", "--out", str(path))
    return report, checks.read_csv_rows(path), doc(request.param)


def test_graph_check(graph_output):
    report, rows, group = graph_output
    region = checks.region_predicate(group)
    assert checks.check_graph(report, rows, region) == []
    bad = copy.deepcopy(report)
    bad["results"]["invariance"]["g1"]["max_deviation"] = 1e-3
    assert checks.check_graph(bad, rows, region)
    bad = copy.deepcopy(report)
    bad["results"]["band"]["C1"] = 2 * bad["results"]["band"]["C2"]
    assert checks.check_graph(bad, rows, region)
    high = rows.copy()
    high[3, -1] = 1.0
    assert checks.check_graph(report, high, region)
    off_sphere = rows.copy()
    off_sphere[2, :-1] *= 1.0 + 1e-9
    assert checks.check_graph(report, off_sphere, region)
    # projects to (3, 0), outside the annulus 1 <= |x| < 2 and the strip 0 <= x1 < 1
    outside = rows.copy()
    outside[1, :-1] = [0.6, 0.0, 0.8]
    assert checks.check_graph(report, outside, region)


def test_harmonic_check():
    report = {"exit_code": 0, "results": {
        "u_origin": 0.9, "u_origin_stderr": 0.001, "area_fraction": 0.902,
        "area_fraction_stderr": 0.001, "indeterminate_fraction": 0.0}}
    assert checks.check_harmonic(report) == []
    bad = copy.deepcopy(report)
    bad["results"]["area_fraction"] = 0.95
    assert checks.check_harmonic(bad)
    bad = copy.deepcopy(report)
    bad["results"]["u_origin"] = 1.2
    assert checks.check_harmonic(bad)


# -- the speed probe ---------------------------------------------------------

def test_speed_probe_samples_while_a_child_runs():
    with speed.SpeedProbe() as probe:
        subprocess.run([sys.executable, "-c", "sum(range(3 * 10**7))"],
                       check=True, timeout=60)
    assert len(probe.samples) >= 3
    assert 0.2 < probe.factor() < 20


# -- the runner ------------------------------------------------------------------

def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "graph-cyclic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
