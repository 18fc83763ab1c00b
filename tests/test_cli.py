"""Group-definition schema, report rendering, and the command-line surface."""

import json
import pathlib

import numpy as np
import pytest

from kleinlab import cli, files, lipgraph, mobius
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


def _count_families(monkeypatch) -> list:
    """Record every lipgraph.DomeFamily built while the test runs."""
    built = []
    real = lipgraph.DomeFamily

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(lipgraph, "DomeFamily", counting)
    return built


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

    def test_graph_rejects_custom_kind(self, tmp_path):
        doc = {
            "format": 1, "dimension": 2, "kind": "custom",
            "generators": [mobius_to_record(mobius.affine(2, r=3.0)),
                           mobius_to_record(mobius.translation([2.5, 0.0]))],
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["graph", "--file", str(path)]) == 2

    def test_harmonic_cyclic(self, capsys):
        code = cli.main(["harmonic", "--file", LOXODROMIC,
                         "--samples", "20000", "--json"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        res = rep["results"]
        assert res["identity_agrees"] is True
        assert res["u_origin"] == pytest.approx(1.0, abs=1e-3)
        assert res["flux_convention"] == "boundary-sphere-measure"

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
        assert "skipped" in res["volume_evidence"]

    def test_diagnose_honours_epsilon0_flag(self, tmp_path, monkeypatch,
                                            capsys):
        doc = schottky_doc()
        doc["epsilon0"] = 0.25
        path = tmp_path / "eps.json"
        path.write_text(json.dumps(doc))
        families = _count_families(monkeypatch)
        results = []
        for argv in (["--file", SCHOTTKY, "--epsilon0", "0.25"],
                     ["--file", str(path)]):
            code = cli.main(["diagnose", *argv, "--depth", "4", "--json"])
            assert code == 0
            results.append(json.loads(capsys.readouterr().out)["results"])
        assert len(families) == 2
        # the verdict rests on the dimension evidence alone, so it does not
        # need two of the file's depths at or below --depth
        assert results[0]["verdict"] == "consistent-with-geometrically-finite"
        assert results[0]["volume_evidence"]["depth"] == 4
        assert results[0] == results[1]

    @pytest.mark.parametrize("path, value, stderr", [
        (LOXODROMIC, 244.12256287791078, 1.9914795725864642),
        (PARABOLIC, 212.52134696310736, 2.858569211184327),
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
        code = cli.main(["graph", "--file", LOXODROMIC, "--depth", "3",
                         "--samples", "8"])
        assert code == 3
        assert "budget too small" in capsys.readouterr().out

    def test_reports_carry_inputs_and_wall_time(self, capsys):
        cli.main(["validate", "--file", LOXODROMIC, "--json"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["command"] == "validate"
        assert rep["inputs"]["file"] == LOXODROMIC
        assert rep["wall_time_s"] >= 0.0
