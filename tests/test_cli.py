"""Group-definition schema, report rendering, and the command-line surface."""

import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from kleinlab import cli, files, geom, limitset, lipgraph, mobius
from kleinlab.caps import CapDegenerate
from kleinlab.files import (
    ValidationError,
    load_group_file,
    mobius_from_record,
    mobius_to_record,
    parse_group_document,
    render_report,
)

GROUPS = pathlib.Path(__file__).resolve().parents[1] / "groups"
SCHOTTKY = str(GROUPS / "reference_schottky.json")
LOXODROMIC = str(GROUPS / "cyclic_loxodromic.json")
PARABOLIC = str(GROUPS / "cyclic_parabolic.json")


def schottky_doc():
    return json.loads(pathlib.Path(SCHOTTKY).read_text())


def s3_file(tmp_path) -> str:
    """The reference caps placed in R^4, with a zero third coordinate."""
    doc = schottky_doc()
    doc["dimension"] = 3
    for pair in doc["ball_pairs"]:
        for cap in pair:
            cap["center"].insert(2, 0.0)
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _count_families(monkeypatch) -> list:
    """Record every lipgraph.DomeFamily built while the test runs."""
    built = []
    real = lipgraph.DomeFamily

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(lipgraph, "DomeFamily", counting)
    return built


# the flags each command takes besides --file, --seed and --json
_OPTIONAL_FLAGS = {
    "validate": (),
    "limitset": ("--depth", "--out"),
    "dimension": ("--depth",),
    "graph": ("--depth", "--epsilon0", "--samples", "--out"),
    "harmonic": ("--depth", "--samples"),
    "diagnose": ("--depth",),
}
_FLAG_VALUES = {"--depth": "3", "--epsilon0": "0.25", "--samples": "10",
                "--out": "x.csv"}


class TestSchema:
    def test_shipped_files_parse(self):
        for path in (SCHOTTKY, LOXODROMIC, PARABOLIC):
            spec = load_group_file(path)
            assert spec.presentation.n == 2

    def test_unknown_top_field_rejected(self):
        doc = schottky_doc()
        doc["surprise"] = 1
        with pytest.raises(ValidationError, match="unknown fields"):
            parse_group_document(doc)

    def test_unknown_nested_field_rejected(self):
        doc = schottky_doc()
        doc["ball_pairs"][0][0]["color"] = "blue"
        with pytest.raises(ValidationError, match="ball_pairs"):
            parse_group_document(doc)

    def test_nonfinite_rejected(self):
        doc = schottky_doc()
        doc["ball_pairs"][0][0]["center"][0] = float("nan")
        with pytest.raises(ValidationError, match="non-finite"):
            parse_group_document(doc)

    def test_tangent_balls_rejected_with_pair_names(self):
        doc = schottky_doc()
        for pair in doc["ball_pairs"]:
            for cap in pair:
                cap["theta"] = 0.8  # caps now overlap
        with pytest.raises(ValidationError, match="caps"):
            parse_group_document(doc)

    def test_bad_orthogonal_matrix_rejected(self):
        rec = mobius_to_record(mobius.affine(2, r=2.0))
        rec["A"] = [1.0, 0.1, 0.0, 1.0]
        with pytest.raises(ValidationError, match="orthogonal"):
            mobius_from_record(rec, "$.generators[0]")

    def test_mobius_record_roundtrip(self):
        rng = np.random.default_rng(5)
        from util import random_mobius

        for _ in range(20):
            g = random_mobius(rng, 3)
            back = mobius_from_record(mobius_to_record(g), "$")
            assert mobius.maps_close(g, back, tol=1e-10)

    def test_format_version_pinned(self):
        doc = schottky_doc()
        doc["format"] = 2
        with pytest.raises(ValidationError, match="format"):
            parse_group_document(doc)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "7"])
    def test_bad_seed_rejected(self, seed):
        doc = schottky_doc()
        doc["seed"] = seed
        with pytest.raises(ValidationError, match=r"\$\.seed"):
            parse_group_document(doc)

    def test_cusp_record_parsed(self):
        spec = load_group_file(PARABOLIC)
        assert len(spec.cusp_ends) == 1
        assert spec.cusp_ends[0].m == 1
        assert spec.cusp_ends[0].vol_K == 1.0


class TestRenderReport:
    def test_seventeen_digit_floats(self):
        text = render_report({"x": 1.0 / 3.0, "y": [2.0 ** -40]})
        assert "0.33333333333333331" in text
        parsed = json.loads(text)
        assert parsed["x"] == 1.0 / 3.0
        assert parsed["y"][0] == 2.0 ** -40

    def test_valid_json_with_nested_structures(self):
        report = {
            "a": {"b": [1, 2.5, None, True]},
            "c": np.float64(0.1),
            "d": np.arange(3),
        }
        parsed = json.loads(render_report(report))
        assert parsed["a"]["b"] == [1, 2.5, None, True]
        assert parsed["d"] == [0, 1, 2]


class TestCommands:
    def test_validate_ok(self, capsys):
        code = cli.main(["validate", "--file", SCHOTTKY])
        assert code == 0
        assert "valid: True" in capsys.readouterr().out

    def test_validate_rejects_bad_file(self, tmp_path, capsys):
        doc = schottky_doc()
        for pair in doc["ball_pairs"]:  # adjacent caps now intersect
            for cap in pair:
                cap["theta"] = 0.8
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["validate", "--file", str(bad), "--json"])
        assert code == 2
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["valid"] is False
        assert "caps" in out["results"]["error"]

    def test_limitset_csv_rows_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code = cli.main([
                "limitset", "--file", SCHOTTKY, "--depth", "6",
                "--out", str(out), "--seed", "3",
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 972 + 1

    def test_limitset_cyclic_two_rows(self, tmp_path):
        out = tmp_path / "cyc.csv"
        assert cli.main(["limitset", "--file", LOXODROMIC, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2 + 1

    def test_dimension_cyclic_near_zero(self, capsys):
        code = cli.main(["dimension", "--file", LOXODROMIC, "--depth", "40",
                         "--json"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        res = rep["results"]
        assert abs(res["box_dimension"]["estimate"]) < 0.05
        assert abs(res["delta"]["estimate"]) < 0.05
        assert res["lambda0"] == 1.0  # flat branch at delta = 0, n = 2

    def test_dimension_cyclic_at_shipped_depth(self, capsys):
        for path in (LOXODROMIC, PARABOLIC):
            assert cli.main(["dimension", "--file", path, "--json"]) == 0
            res = json.loads(capsys.readouterr().out)["results"]
            assert res["depth"] == 6
            assert res["delta"]["estimate"] == 0.0

    def test_graph_cyclic_quick(self, tmp_path, capsys):
        out = tmp_path / "graph.csv"
        code = cli.main([
            "graph", "--file", LOXODROMIC, "--depth", "3", "--samples", "1500",
            "--seed", "2", "--out", str(out), "--json",
        ])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        res = rep["results"]
        assert res["band"]["C2"] >= res["band"]["C1"] > 0
        assert np.isfinite(res["lipschitz"]["M"])
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == "x0,x1,x2,f"

    @pytest.mark.parametrize("path", [SCHOTTKY, LOXODROMIC, PARABOLIC],
                             ids=["schottky", "loxodromic", "parabolic"])
    def test_graph_draw_is_the_region_rows_of_one_draw(self, path, monkeypatch):
        region = cli._region_for(load_group_file(path))
        want = geom.uniform_sphere(np.random.default_rng(8), 2, 40_000)
        want = want[region.contains(want)]
        for block in (geom.SAMPLE_BLOCK, 777):
            monkeypatch.setattr(geom, "SAMPLE_BLOCK", block)
            got = np.concatenate(list(region.blocks(
                np.random.default_rng(8), 2, 40_000)))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_graph_csv_does_not_depend_on_the_sample_block(self, tmp_path,
                                                           monkeypatch, capsys):
        # every statistic is read from the blocks of one draw: the results
        # and the CSV keep their bits whatever the block size
        for path in (LOXODROMIC, PARABOLIC):
            runs = []
            out = tmp_path / "graph.csv"
            for block in (geom.SAMPLE_BLOCK, 777):
                monkeypatch.setattr(geom, "SAMPLE_BLOCK", block)
                assert cli.main(["graph", "--file", path, "--samples", "20000",
                                 "--out", str(out), "--json"]) == 0
                results = json.loads(capsys.readouterr().out)["results"]
                runs.append((json.dumps(results), out.read_bytes()))
            assert runs[0] == runs[1]

    def test_graph_takes_each_region_row_through_heights_once(self, monkeypatch,
                                                              capsys):
        # one draw of --samples directions; heights sees its region rows once
        # and then the images of the covered ones among the first 2000
        drawn, seen, families = [], [], []
        real_sphere, real_family = geom.uniform_sphere, lipgraph.DomeFamily

        def counting_sphere(rng, n, size):
            drawn.append(size)
            return real_sphere(rng, n, size)

        class CountingFamily(real_family):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                families.append(self)

            def heights(self, U):
                seen.append(len(U))
                return super().heights(U)

        monkeypatch.setattr(geom, "uniform_sphere", counting_sphere)
        monkeypatch.setattr(lipgraph, "DomeFamily", CountingFamily)
        defn = load_group_file(LOXODROMIC)
        region = cli._region_for(defn)
        assert cli.main(["graph", "--file", LOXODROMIC, "--samples", "40000",
                         "--seed", "5", "--json"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert sum(drawn) == 40_000
        blocks = list(region.blocks(np.random.default_rng(6), 2, 40_000))
        assert seen[:len(blocks)] == [len(U) for U in blocks]
        # then, per generator, the images of the covered rows among the first
        # 2000 region rows
        head = np.concatenate(blocks)[:2000]
        covered = int(real_family.heights(families[0], head).covered.sum())
        assert covered > 0 and len(families) == 1
        assert seen[len(blocks):] == [covered] * len(res["invariance"])

    def test_graph_peak_memory_does_not_grow_with_samples(self, capsys):
        # what graph keeps of its draw is bounded: the first rows of the
        # invariance, bi-Lipschitz and M statistics, and running sums
        peaks = []
        for samples in ("40000", "400000"):
            tracemalloc.start()
            try:
                code = cli.main(["graph", "--file", LOXODROMIC, "--samples",
                                 samples])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] < peaks[0] + 1e6

    def test_graph_below_the_covered_floor_exits_3_and_leaves_no_csv(
            self, tmp_path, capsys):
        # 7 samples gave M from a single pair; M needs LIPSCHITZ_MIN_COVERED
        out = tmp_path / "graph.csv"
        code = cli.main(["graph", "--file", LOXODROMIC, "--depth", "3",
                         "--samples", "7", "--out", str(out), "--json"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 3 and results["reason"].startswith("budget too small")
        assert f"under the {lipgraph.LIPSCHITZ_MIN_COVERED}" in results["reason"]
        assert list(tmp_path.iterdir()) == []

    def test_graph_exit_3_leaves_an_existing_out_as_it_was(self, tmp_path,
                                                           capsys):
        out = tmp_path / "graph.csv"
        out.write_bytes(b"kept\r\n")
        out.chmod(0o640)
        code = cli.main(["graph", "--file", LOXODROMIC, "--depth", "3",
                         "--samples", "7", "--out", str(out), "--json"])
        assert code == 3
        assert out.read_bytes() == b"kept\r\n"
        # an exit-0 run replaces it and keeps its mode
        code = cli.main(["graph", "--file", LOXODROMIC, "--depth", "3",
                         "--samples", "1500", "--out", str(out), "--json"])
        assert code == 0 and out.read_text().startswith("x0,x1,x2,f\n")
        assert out.stat().st_mode & 0o777 == 0o640
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("samples, want", [("7", 3), ("1500", 0)])
    def test_graph_writes_a_pipe_out_in_place(self, samples, want, tmp_path,
                                              capsys):
        # a device or a pipe at --out is written as the blocks come, never
        # replaced or removed
        out = tmp_path / "pipe"
        os.mkfifo(out)
        got = []
        reader = threading.Thread(target=lambda: got.append(out.read_bytes()))
        reader.start()
        code = cli.main(["graph", "--file", LOXODROMIC, "--depth", "3",
                         "--samples", samples, "--out", str(out), "--json"])
        reader.join(timeout=60)
        assert code == want and out.is_fifo()
        assert list(tmp_path.iterdir()) == [out]
        assert got[0].startswith(b"x0,x1,x2,f\r\n")

    def test_graph_unopenable_out_exits_2_before_the_draw(self, tmp_path,
                                                          monkeypatch, capsys):
        def unreached(*args, **kwargs):
            raise AssertionError("sampled before opening --out")

        def refused(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(limitset, "sample_limit_set", unreached)
        monkeypatch.setattr(geom, "uniform_sphere", unreached)
        monkeypatch.setattr(limitset, "open", refused, raising=False)
        out = str(tmp_path / "x.csv")
        code = cli.main(["graph", "--file", LOXODROMIC, "--out", out, "--json"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 2
        assert results["error"].startswith("--out: [Errno 13] Permission denied")

    def test_graph_peak_memory_is_bounded(self, capsys):
        # one draw of every sample and one heights pass over the region rows
        # peaked at 43 MB here; drawing and evaluating in blocks, at 12 MB
        tracemalloc.start()
        try:
            code = cli.main(["graph", "--file", LOXODROMIC, "--samples", "200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 20e6

    def test_graph_rejects_custom_kind(self, tmp_path):
        doc = {
            "format": 1, "dimension": 2, "kind": "custom",
            "generators": [mobius_to_record(mobius.affine(2, r=3.0)),
                           mobius_to_record(mobius.translation([2.5, 0.0]))],
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["graph", "--file", str(path)]) == 2

    @pytest.mark.parametrize("command", ["validate", "limitset", "dimension",
                                         "graph", "harmonic", "diagnose"])
    def test_custom_file_is_refused_before_sampling(self, command, tmp_path,
                                                    capsys):
        # the file schema has no field for the seed points a custom cloud needs
        G = files.load_group_file(SCHOTTKY).presentation
        doc = {"format": 1, "dimension": 2, "kind": "custom",
               "generators": [mobius_to_record(g) for g in G.generators]}
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        code = cli.main([command, "--file", str(path), "--json"])
        rep = json.loads(capsys.readouterr().out)
        if command == "validate":
            assert code == 0 and rep["results"]["kind"] == "custom"
        else:
            assert code == 2 and rep["results"]["valid"] is False
            assert rep["results"]["error"].startswith("$.kind: ")

    def test_harmonic_cyclic(self, capsys):
        code = cli.main(["harmonic", "--file", LOXODROMIC,
                         "--samples", "20000", "--json"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        res = rep["results"]
        assert res["identity_agrees"] is True
        assert res["u_origin"] == pytest.approx(1.0, abs=1e-3)

    def test_diagnose_depth_one_inconclusive(self, capsys):
        code = cli.main(["diagnose", "--file", SCHOTTKY, "--depth", "1",
                         "--json"])
        assert code == 3
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["verdict"] == "inconclusive"

    def test_diagnose_cyclic_consistent(self, capsys):
        code = cli.main(["diagnose", "--file", PARABOLIC, "--depth", "8",
                         "--json"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        res = rep["results"]
        assert res["verdict"] == "consistent-with-geometrically-finite"
        assert "volume_evidence" not in res

    def test_diagnose_builds_no_mesh_or_family(self, tmp_path, monkeypatch,
                                               capsys):
        # the verdict rests on the dimension evidence alone
        for name in ("region_mesh", "base_caps", "DomeFamily", "graph_volume"):
            def unreached(*args, name=name, **kwargs):
                raise AssertionError(f"diagnose called lipgraph.{name}")

            monkeypatch.setattr(lipgraph, name, unreached)
        for path in (SCHOTTKY, s3_file(tmp_path)):
            code = cli.main(["diagnose", "--file", path, "--depth", "4",
                             "--json"])
            res = json.loads(capsys.readouterr().out)["results"]
            assert code == 0
            assert res["verdict"] == "consistent-with-geometrically-finite"
            assert "volume_evidence" not in res

    @pytest.mark.parametrize("path, value, stderr", [
        (LOXODROMIC, 229.2962717022893, 1.830546522555012),
        (PARABOLIC, 203.61629659647738, 2.813389504435875),
    ], ids=["loxodromic", "parabolic"])
    def test_graph_volume_from_its_one_family(self, path, value, stderr,
                                              monkeypatch, capsys):
        families = _count_families(monkeypatch)
        code = cli.main(["graph", "--file", path, "--samples", "40000",
                         "--seed", "1000", "--json"])
        assert code == 0
        assert len(families) == 1
        vol = json.loads(capsys.readouterr().out)["results"]["volume"]
        # golden depth-6 volume at this seed, bit for bit
        assert vol["depth"] == 6
        assert vol["value"] == value and vol["stderr"] == stderr
        assert vol["covered_fraction"] == 1.0

    def test_mesh_does_not_depend_on_the_seed(self, monkeypatch, capsys):
        meshes = []
        real = lipgraph.region_mesh

        def recording(*args):
            meshes.append(real(*args))
            return meshes[-1]

        monkeypatch.setattr(lipgraph, "region_mesh", recording)
        seeds = []
        for seed in ("1", "2"):
            code = cli.main(["graph", "--file", SCHOTTKY, "--epsilon0", "0.25",
                             "--depth", "3", "--samples", "2000", "--seed",
                             seed, "--json"])
            assert code == 0
            seeds.append(json.loads(capsys.readouterr().out)["results"]["seeds"])
        assert seeds[0] == seeds[1] == len(meshes[0]) > 0
        assert meshes[0].tobytes() == meshes[1].tobytes()

    def test_region_in_the_resolution_band_exits_3_quickly(self, capsys):
        # the depth-1 cloud certifies only 0.1997, which the region reaches
        start = time.perf_counter()
        code = cli.main(["graph", "--file", SCHOTTKY, "--depth", "1",
                         "--epsilon0", "0.25", "--json"])
        assert code == 3 and time.perf_counter() - start < 5.0
        error = json.loads(capsys.readouterr().out)["results"]["error"]
        assert "resolution band" in error

    @pytest.mark.parametrize("argv", [
        ["dimension", "--depth", "0"],
        ["dimension", "--depth", "-2"],
        ["graph", "--epsilon0", "0.9"],
        ["graph", "--samples", "1"],
        ["harmonic", "--samples", "1"],
        ["graph", "--seed", "-1"],
    ])
    def test_bad_flag_exits_2_with_message(self, argv, capsys):
        assert cli.main([*argv, "--file", LOXODROMIC]) == 2
        assert f"error: {argv[1]}: must" in capsys.readouterr().out

    def test_graph_with_too_few_covered_samples_inconclusive(self, capsys):
        # at the smallest budget no two covered samples land in the region
        code = cli.main(["graph", "--file", LOXODROMIC, "--depth", "3",
                         "--samples", "4"])
        assert code == 3
        assert "budget too small" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["harmonic", "graph"])
    def test_samples_over_the_budget_exit_3_before_work(self, command, capsys):
        start = time.perf_counter()
        code = cli.main([command, "--file", SCHOTTKY, "--samples",
                         "10000000000", "--json"])
        assert code == 3 and time.perf_counter() - start < 1.0
        error = json.loads(capsys.readouterr().out)["results"]["error"]
        assert "--samples 10000000000" in error and "budget" in error

    @pytest.mark.parametrize("samples", [40_000, 400_000, cli.MAX_SAMPLES])
    def test_samples_within_the_budget_pass_the_flag_check(self, samples):
        args = cli._build_parser().parse_args(
            ["harmonic", "--file", SCHOTTKY, "--samples", str(samples)])
        cli._check_flags(args)

    @pytest.mark.parametrize("command", ["dimension", "limitset"])
    def test_depth_over_the_word_budget_exits_3_before_work(self, command,
                                                            capsys):
        start = time.perf_counter()
        code = cli.main([command, "--file", SCHOTTKY, "--depth", "30", "--json"])
        assert code == 3 and time.perf_counter() - start < 1.0
        error = json.loads(capsys.readouterr().out)["results"]["error"]
        assert "depth 30" in error and "budget" in error

    def test_small_schottky_caps_run_at_the_default_depth(self, tmp_path,
                                                         capsys):
        # caps of chordal radius 0.01: distinct depth-6 words compose to
        # maps within 1e-8 of each other, which a deduper would confuse
        doc = schottky_doc()
        for pair in doc["ball_pairs"]:
            for cap in pair:
                cap["theta"] = 2.0 * math.asin(0.005)
        path = tmp_path / "small_caps.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["dimension", "--file", str(path), "--json"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["depth"] == 6 and res["agreement"] < 0.01

    def test_graph_and_diagnose_run_in_s3(self, tmp_path, capsys):
        # cap images are closed-form in any dimension, so graph runs,
        # and the limit set is the S^2 one
        path = s3_file(tmp_path)
        results = {}
        for command, file, flags in (
                ("graph", path, ["--epsilon0", "0.25", "--samples", "4000"]),
                ("diagnose", path, []), ("diagnose", SCHOTTKY, [])):
            code = cli.main([command, "--file", file, "--depth", "5", *flags,
                             "--json"])
            assert code == 0
            results[command, file] = json.loads(capsys.readouterr().out)[
                "results"]
        inv = results["graph", path]["invariance"]
        assert len(inv) == 2
        assert all(g["max_deviation"] <= 1e-9 for g in inv.values())
        s3, s2 = (results["diagnose", f]["dimension_evidence"]
                  for f in (path, SCHOTTKY))
        assert s3["cloud_size"] == s2["cloud_size"] > 0
        assert s3["delta"] == s2["delta"]

    def test_long_cyclic_words_stay_within_the_budget(self, capsys):
        # 1 + 2 * 40 = 81 words
        code = cli.main(["dimension", "--file", LOXODROMIC, "--depth", "40",
                         "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["results"]["delta"][
            "estimate"] == 0.0

    @pytest.mark.parametrize("target,error", [
        ("sample_limit_set", CapDegenerate("a nested cap is degenerate")),
    ])
    def test_bad_configuration_exits_2_with_message(self, target, error,
                                                    monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(limitset, target, broken)
        code = cli.main(["dimension", "--file", SCHOTTKY, "--json"])
        assert code == 2
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["error"] == f"bad configuration: {error}"

    @pytest.mark.parametrize("command", ["limitset", "graph"])
    def test_ambiguous_classification_exits_3_with_message(self, command,
                                                           monkeypatch, capsys):
        # reading a cyclic file classifies the generator to find its fixed
        # points
        def ambiguous(g):
            raise mobius.AmbiguousClassification("sphere iteration does not settle")

        monkeypatch.setattr(limitset.mobius, "classify", ambiguous)
        code = cli.main([command, "--file", LOXODROMIC, "--json"])
        assert code == 3
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == {
            "error": "ambiguous classification: sphere iteration does not settle"}

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_exits_2_with_message(self, kind, tmp_path, capsys):
        path = {"missing": tmp_path / "none.json", "directory": tmp_path,
                "not-utf8": tmp_path / "latin1.json"}[kind]
        if kind == "not-utf8":
            path.write_bytes(b'{"format": 1, "kind": "\xe9"}')
        code = cli.main(["validate", "--file", str(path), "--json"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 2 and results["valid"] is False
        assert results["error"].startswith("--file: ")

    @pytest.mark.parametrize("command", ["harmonic", "graph", "diagnose"])
    def test_negative_file_seed_exits_2_with_message(self, command, tmp_path,
                                                     capsys):
        doc = schottky_doc()
        doc["seed"] = -1
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        code = cli.main([command, "--file", str(path), "--json"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 2 and results["error"].startswith("$.seed: ")

    @pytest.mark.parametrize("command", ["limitset", "graph"])
    def test_unwritable_out_exits_2_before_sampling(self, command, tmp_path,
                                                    monkeypatch, capsys):
        def unreached(*args, **kwargs):
            raise AssertionError("sampled before checking --out")

        monkeypatch.setattr(limitset, "sample_limit_set", unreached)
        for out, error in [(tmp_path, "is a directory"),
                           (tmp_path / "none" / "x.csv",
                            "parent directory does not exist")]:
            code = cli.main([command, "--file", LOXODROMIC, "--out", str(out),
                             "--json"])
            results = json.loads(capsys.readouterr().out)["results"]
            assert code == 2 and results["error"] == f"--out: {error}"

    @pytest.mark.parametrize("command, module, export", [
        ("limitset", limitset, "export_csv"),
        ("graph", lipgraph, "export_graph_csv"),
    ])
    def test_failed_write_exits_2_with_message(self, command, module, export,
                                               tmp_path, monkeypatch, capsys):
        def full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(module, export, full)
        flags = ["--samples", "2000"] if command == "graph" else []
        code = cli.main([command, "--file", LOXODROMIC, *flags,
                         "--out", str(tmp_path / "x.csv"), "--json"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 2
        assert results["error"] == "--out: [Errno 28] No space left on device"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field, value", [
        ("depths", 5), ("epsilon0", "abc"), ("depths", [True]),
    ], ids=["depths-not-a-list", "epsilon0-not-a-number", "depth-boolean"])
    @pytest.mark.parametrize("command", ["validate", "limitset"])
    def test_malformed_file_field_exits_2_with_message(self, command, field,
                                                       value, tmp_path, capsys):
        doc = schottky_doc()
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = cli.main([command, "--file", str(path), "--json"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 2 and results["valid"] is False
        assert results["error"].startswith(f"$.{field}: ")

    @pytest.mark.parametrize("source, keys, value, field", [
        (SCHOTTKY, ["ball_pairs"], True, "$.ball_pairs"),
        (LOXODROMIC, ["generators"], True, "$.generators"),
        (PARABOLIC, ["cusp_ends"], None, "$.cusp_ends"),
        (PARABOLIC, ["cusp_ends"], 3, "$.cusp_ends"),
        (SCHOTTKY, ["ball_pairs", 0, 1, "center"], "x", "$.ball_pairs[0][1].center"),
        (SCHOTTKY, ["ball_pairs", 1, 0, "theta"], "x", "$.ball_pairs[1][0].theta"),
        (SCHOTTKY, ["ball_pairs", 1, 0, "theta"], [0.1, 0.2],
         "$.ball_pairs[1][0].theta"),
        (LOXODROMIC, ["generators", 0, "r"], [1.0, 2.0], "$.generators[0].r"),
    ], ids=["ball-pairs-true", "generators-true", "cusp-ends-null",
            "cusp-ends-number", "center-string", "theta-string", "theta-list",
            "r-list"])
    def test_wrong_field_type_exits_2_with_its_path(self, source, keys, value,
                                                    field, tmp_path, capsys):
        doc = json.loads(pathlib.Path(source).read_text())
        *outer, last = keys
        target = doc
        for key in outer:
            target = target[key]
        target[last] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["validate", "--file", str(path), "--json"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 2 and results["valid"] is False
        assert results["error"].startswith(f"{field}: ")

    @pytest.mark.parametrize("source, field, value", [
        (LOXODROMIC, "b", [1e308, 0.0]),
        (PARABOLIC, "b", [1e308, 0.0]),
        (LOXODROMIC, "r", 1.0 + 2e-12),
    ], ids=["loxodromic-b-1e308", "translation-1e308", "fixed-point-1e161"])
    @pytest.mark.parametrize("command", list(_OPTIONAL_FLAGS))
    def test_generator_that_overflows_exits_2_and_writes_nothing(
            self, command, source, field, value, tmp_path, capsys):
        # b[0] = 1e308 once gave exit 0, certified: true and the CSV row
        # nan,-0.0,nan; a fixed point at 5e161 (r = 1 + 2e-12, b[0] = 1e150)
        # overflows when it is embedded on S^2
        doc = json.loads(pathlib.Path(source).read_text())
        doc["generators"][0][field] = value
        if field == "r":
            doc["generators"][0]["b"] = [1e150, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--file", str(path), "--json"]
        if "--out" in _OPTIONAL_FLAGS[command]:
            argv += ["--out", str(tmp_path / "out.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and quietly
            code = cli.main(argv)
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 2 and results["valid"] is False
        assert results["error"].startswith("$.generators[0]: overflows")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in _OPTIONAL_FLAGS.items()
        for flag in _FLAG_VALUES if flag not in flags])
    def test_flag_the_command_does_not_read_exits_2(self, command, flag,
                                                    tmp_path, capsys):
        value = str(tmp_path / "x.csv") if flag == "--out" else _FLAG_VALUES[flag]
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, "--file", SCHOTTKY, flag, value])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err and not captured.out
        # the command's own usage, which lists the flags it does take
        assert captured.err.startswith(f"usage: kleinlab {command} [-h]")
        assert f"kleinlab {command}: error: unrecognized arguments: {flag}" \
            in captured.err
        assert not list(tmp_path.iterdir())

    def test_reports_carry_inputs_and_wall_time(self, capsys):
        cli.main(["validate", "--file", LOXODROMIC, "--json"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["command"] == "validate"
        assert rep["inputs"] == {"file": LOXODROMIC, "depth": None,
                                 "epsilon0": None, "samples": None, "seed": None}
        assert rep["wall_time_s"] >= 0.0


_NO_SCIPY_RUN = """
import contextlib, io, sys
from kleinlab import cli
for path in sys.argv[1:]:
    for argv in (["validate"], ["limitset"], ["dimension"],
                 ["harmonic", "--samples", "4000"],
                 ["graph", "--samples", "2000", "--epsilon0", "0.25"],
                 ["diagnose"]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--file", path])
        assert code == 0, (argv, path, code)
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m.startswith("numpy.ma."))
assert not loaded and "numpy.ma" not in sys.modules, loaded
"""


def _fresh_python(*args, text=True) -> subprocess.CompletedProcess:
    """python *args in a fresh interpreter that imports this kleinlab."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=text, timeout=300)


def test_no_command_loads_scipy_or_numpy_ma():
    # in a fresh interpreter, since pytest itself has imported SciPy
    proc = _fresh_python("-c", _NO_SCIPY_RUN, SCHOTTKY, LOXODROMIC, PARABOLIC)
    assert proc.returncode == 0, proc.stderr


_MODULES_RUN = """
import contextlib, io, json, sys
from kleinlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
assert code == 0, code
print(json.dumps([m for m in sys.modules if m.startswith("kleinlab.")]))
"""


@pytest.mark.parametrize("argv,unused", [
    (["validate", "--file", SCHOTTKY], {"lipgraph", "harmonic", "limitset"}),
    (["limitset", "--file", SCHOTTKY], {"lipgraph", "harmonic"}),
    (["dimension", "--file", SCHOTTKY], {"lipgraph", "harmonic"}),
    (["harmonic", "--file", SCHOTTKY, "--samples", "4000"], {"lipgraph"}),
    (["graph", "--file", LOXODROMIC, "--samples", "2000"], {"harmonic"}),
    (["diagnose", "--file", SCHOTTKY], {"lipgraph", "harmonic"}),
])
def test_each_command_imports_only_the_modules_it_runs(argv, unused):
    # in a fresh interpreter, since pytest has imported every module
    proc = _fresh_python("-c", _MODULES_RUN, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    loaded = {m.split(".")[1] for m in json.loads(proc.stdout)}
    assert "files" in loaded and not loaded & unused, loaded


# every command on the reference file, with small flags
_EXIT_PATH_RUNS = [
    ["validate"],
    ["limitset", "--depth", "4", "--out", "cloud.csv"],
    ["dimension", "--depth", "4"],
    ["graph", "--depth", "4", "--epsilon0", "0.25", "--samples", "2000",
     "--out", "graph.csv"],
    ["harmonic", "--depth", "4", "--samples", "4000"],
    ["diagnose", "--depth", "4"],
]


@pytest.mark.parametrize("argv", _EXIT_PATH_RUNS, ids=lambda a: a[0])
def test_process_entry_point_matches_main(argv, tmp_path, capsys):
    # python -m kleinlab.cli goes through cli.run, which freezes the heap
    # after main; the report's results and the CSV keep their bits
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    argv += ["--file", SCHOTTKY, "--json"]
    out = pathlib.Path(argv[argv.index("--out") + 1]) if "--out" in argv \
        else None
    proc = _fresh_python("-m", "kleinlab.cli", *argv, text=False)
    assert proc.returncode == 0, proc.stderr
    runs = [(json.loads(proc.stdout)["results"], out and out.read_bytes())]
    if out:
        out.unlink()
    assert cli.main(argv) == 0
    runs.append((json.loads(capsys.readouterr().out)["results"],
                 out and out.read_bytes()))
    assert runs[0] == runs[1]


_FREEZE_RUN = """
import atexit, contextlib, gc, io, sys
from kleinlab import cli
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
sys.exit(code)
"""


def test_run_leaves_the_heap_frozen_for_shutdown():
    proc = _fresh_python("-c", _FREEZE_RUN, "validate", "--file", SCHOTTKY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "frozen True\n"


def test_main_leaves_the_freeze_count_as_it_was(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["validate", "--file", SCHOTTKY]) == 0
    assert gc.get_freeze_count() == before
