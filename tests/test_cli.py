"""Group-definition schema, report rendering, and the command-line surface."""

import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

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
            got = cli._region_samples(region, np.random.default_rng(8), 2, 40_000)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_graph_csv_does_not_depend_on_the_sample_block(self, tmp_path,
                                                           monkeypatch):
        csvs = []
        for block in (geom.SAMPLE_BLOCK, 777):
            monkeypatch.setattr(geom, "SAMPLE_BLOCK", block)
            csvs.append(tmp_path / f"graph{block}.csv")
            assert cli.main(["graph", "--file", PARABOLIC, "--samples", "3000",
                             "--out", str(csvs[-1])]) == 0
        assert csvs[0].read_bytes() == csvs[1].read_bytes()

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
        (LOXODROMIC, 228.34862848247005, 1.8293179618813449),
        (PARABOLIC, 202.54034759682668, 2.6586707661946196),
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
        # the family's n+1 probes span each boundary 2-sphere, so graph runs,
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
        # cyclic sampling classifies the generator to find its fixed points
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
    ], ids=["ball-pairs-true", "generators-true", "cusp-ends-null",
            "cusp-ends-number", "center-string", "theta-string"])
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


def test_no_command_loads_scipy_or_numpy_ma():
    # in a fresh interpreter, since pytest itself has imported SciPy
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, SCHOTTKY, LOXODROMIC, PARABOLIC],
        env=env, capture_output=True, text=True, timeout=300)
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
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _MODULES_RUN, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = {m.split(".")[1] for m in json.loads(proc.stdout)}
    assert "files" in loaded and not loaded & unused, loaded
