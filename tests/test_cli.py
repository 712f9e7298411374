import dataclasses
import json
import re
from pathlib import Path

import pytest

from vfzero import Box, isolate_zeros, parse_field
from vfzero.cli import _block_summary, run_command
from vfzero.harness import MainTheoremReport, Witness
from vfzero.winding import IndexReport, LoopWinding

from oracles import dense_loop_winding, fraction_loop_winding


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run_command(argv + ["--out", str(out)])
    return code, json.loads(out.read_text()), out.read_bytes()


class TestBasicCommands:
    def test_index_node(self, tmp_path):
        code, doc, _ = run_json(
            ["index", "--field", "(x, y)", "--region", "-1,-1,1,1", "--depth", "6"], tmp_path
        )
        assert code == 0
        assert doc["results"]["blocks"][0]["index"] == 1
        assert doc["results"]["total_index"] == 1

    def test_track_poly(self, tmp_path):
        code, doc, _ = run_json(
            ["track", "--y", "(x, y)", "--x", "(x^2 - y^2, 2*x*y)"], tmp_path
        )
        assert code == 0
        assert doc["results"]["status"] == "POLY_TRACKING"
        assert doc["results"]["cofactor"] == "1"

    def test_verify_ph(self, tmp_path):
        code, doc, _ = run_json(
            ["verify", "ph", "--field", "(sin2px, sin2py)", "--domain", "torus",
             "--depth", "5"], tmp_path
        )
        assert code == 0
        assert doc["results"]["sum"] == 0
        assert len(doc["results"]["blocks"]) == 4

    def test_zeros_empty(self, tmp_path):
        code, doc, _ = run_json(
            ["zeros", "--field", "(x^2 + y^2 + 1, x)", "--depth", "5"], tmp_path
        )
        assert code == 0
        assert doc["results"]["certified_empty"] is True
        assert doc["results"]["blocks"] == []

    def test_bracket(self, tmp_path):
        code, doc, _ = run_json(
            ["bracket", "--y", "(0, x)", "--x", "(1, 0)"], tmp_path
        )
        assert code == 0
        assert doc["results"]["bracket"] == "(0, -1)"

    def test_dep(self, tmp_path):
        code, doc, _ = run_json(
            ["dep", "--x", "(x, y)", "--y", "(-y, x)", "--region", "-1,-1,1,1",
             "--depth", "5"], tmp_path
        )
        assert code == 0
        assert doc["results"]["wedge"] == "x^2 + y^2"
        assert len(doc["results"]["blocks"]) == 1

    def test_common(self, tmp_path):
        code, doc, _ = run_json(
            ["common", "--field", "(x, y)", "--field", "(x - 1, y)",
             "--region", "-2,-2,2,2", "--depth", "5"], tmp_path
        )
        assert code == 0
        assert doc["results"]["certified_empty"] is True

    def test_verify_main_entry(self, tmp_path):
        code, doc, _ = run_json(
            ["verify", "main", "--entry", "complex-squaring", "--depth", "7"], tmp_path
        )
        assert code == 0
        entry = doc["results"]["entries"][0]
        assert entry["hypotheses_ok"] and entry["conclusion_holds"]

    def test_verify_transfer(self, tmp_path):
        code, doc, _ = run_json(
            ["verify", "transfer", "--x", "(x, y)", "--y", "(-y, x)",
             "--region", "-1,-1,1,1", "--depth", "6"], tmp_path
        )
        assert code == 0
        assert doc["results"]["all_certified"] is True

    def test_verify_closure(self, tmp_path):
        code, doc, _ = run_json(
            ["verify", "closure", "--y", "(x, y)", "--z", "(x^2 - y^2, 2*x*y)",
             "--x", "(x^2 - y^2, 2*x*y)"], tmp_path
        )
        assert code == 0
        assert doc["results"]["status"] == "POLY_TRACKING"

    def test_verify_stability(self, tmp_path):
        code, doc, _ = run_json(
            ["verify", "stability", "--field", "(x, y)", "--region", "-1,-1,1,1",
             "--depth", "5", "--trials", "10", "--seed", "9"], tmp_path
        )
        assert code == 0
        assert doc["results"]["ok"] is True

    def test_verify_invariance(self, tmp_path):
        code, doc, _ = run_json(
            ["verify", "invariance", "--x", "(x^2 - y^2, 2*x*y)", "--y", "(x, y)",
             "--region", "-1,-1,1,1"], tmp_path
        )
        assert code == 0
        assert doc["results"]["ok"] is True

    def test_verify_invariance_dependency(self, tmp_path):
        # X wedge Y = -2xy: the dependency set is the axes, one block, whose
        # seeds are polished onto {xy = 0} through the field (-2xy, 0)
        code, doc, _ = run_json(
            ["verify", "invariance", "--target", "dependency", "--x", "(x, y)", "--y", "(x, -y)"], tmp_path
        )
        assert code == 0
        rep = doc["results"]["report"]
        assert doc["results"]["ok"] is True and rep["target"] == "dependency"
        assert len(rep["seeds"]) == 4
        assert all(min(abs(px), abs(py)) < 1e-10 for px, py in rep["seeds"])
        assert rep["max_residual"] < 1e-12

    def test_verify_invariance_depth_reaches_isolation(self, tmp_path, monkeypatch):
        import vfzero.cli

        depths = []

        def spy(*args, **kwargs):
            depths.append(kwargs.get("max_depth"))
            return invariance_test(*args, **kwargs)

        invariance_test = vfzero.cli.invariance_test
        monkeypatch.setattr(vfzero.cli, "invariance_test", spy)
        code, doc, _ = run_json(
            ["verify", "invariance", "--x", "(x^2 - y^2, 2*x*y)", "--y", "(x, y)",
             "--region", "-1,-1,1,1", "--depth", "5"], tmp_path
        )
        assert code == 0
        assert depths == [5] and doc["config"]["depth"] == 5


class TestArtifacts:
    def test_plot_writes_svg(self, tmp_path):
        svg = tmp_path / "portrait.svg"
        code = run_command(
            ["plot", "--field", "(x^2 - y^2, 2*x*y)", "--region", "-1,-1,1,1",
             "--depth", "5", "--svg-out", str(svg), "--out", str(tmp_path / "r.json")]
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text and "rect" in text

    def test_rationals_emitted_as_strings(self, tmp_path):
        _, doc, _ = run_json(
            ["index", "--field", "(x, y)", "--region", "-1,-1,1,1", "--depth", "6"],
            tmp_path,
        )
        hull = doc["results"]["blocks"][0]["hull"]
        assert hull["x0"] == "-1/32" and isinstance(hull["x0"], str)
        assert isinstance(doc["results"]["blocks"][0]["index"], int)
        # the reported per-loop windings are the atan2 oracle's and dense
        # sampling's
        field = parse_field("(x, y)")
        blk = isolate_zeros(field, Box.from_corners(-1, -1, 1, 1), 6).blocks[0]
        expected = [fraction_loop_winding(field, lp).winding for lp in blk.boundary]
        assert [lp["winding"] for lp in doc["results"]["blocks"][0]["loops"]] == expected == [
            dense_loop_winding(field, lp) for lp in blk.boundary]

    def test_per_loop_windings_sum_to_block_index(self, tmp_path):
        _, doc, _ = run_json(
            ["index", "--field", "((x^2 + y^2 - 1)*x, (x^2 + y^2 - 1)*y)",
             "--region", "-2,-2,2,2", "--depth", "6"], tmp_path
        )
        for blk in doc["results"]["blocks"]:
            assert sum(lp["winding"] for lp in blk["loops"]) == blk["index"]

    def test_reports_serialize_the_dataclasses(self, tmp_path):
        # each verify main entry is a MainTheoremReport with its falsified
        # flag, and each index block a block summary with its IndexReport
        _, doc, _ = run_json(["verify", "main", "--entry", "torus-grid-node", "--depth", "5"], tmp_path)
        entry = doc["results"]["entries"][0]
        assert set(entry) == _field_names(MainTheoremReport) | {"falsified"}
        assert entry["witnesses"] and all(set(w) == _field_names(Witness) for w in entry["witnesses"])
        _, doc, _ = run_json(["index", "--field", "(x, y)", "--region", "-1,-1,1,1", "--depth", "4"],
                             tmp_path, "index.json")
        (blk,) = isolate_zeros(parse_field("(x, y)"), Box.from_corners(-1, -1, 1, 1), 4).blocks
        (summary,) = doc["results"]["blocks"]
        assert set(summary) == set(_block_summary(blk)) | _field_names(IndexReport)
        assert summary["loops"] and all(set(lp) == _field_names(LoopWinding) for lp in summary["loops"])


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


class TestExitCodes:
    def test_usage_error_bad_expression(self, capsys):
        assert run_command(["index", "--field", "(x, ++)"]) == 3
        assert "usage error" in capsys.readouterr().err

    # a zero denominator used to escape as a ZeroDivisionError, exit 1
    @pytest.mark.parametrize("region", ["1,2,3", "1,1,0,0", "0,0,1/0,1"])
    def test_usage_error_bad_region(self, region, capsys):
        assert run_command(["index", "--field", "(x, y)", "--region", region]) == 3
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["ph", "--field", "(sin2px, sin2py)", "--domain", "torus", "--region", "0,0,1/2,1"],
         "verify ph sums the indices over the whole torus; --region must be 0,0,1,1"),
        (["main", "--entry", "linear-node", "--region", "5,5,6,6"],
         "verify main takes each entry's region from the catalog; --region is not allowed"),
        (["main", "--entry", "linear-node", "--region", "-1,-1,1,1"],
         "verify main takes each entry's region from the catalog; --region is not allowed"),
        (["main", "--domain", "torus"],
         "verify main takes each entry's domain from the catalog; --domain is not allowed"),
        (["main", "--entry", "torus-grid-node", "--domain", "torus"],
         "verify main takes each entry's domain from the catalog; --domain is not allowed"),
        (["main", "--entry", "no-such-entry"], "no catalog entry named 'no-such-entry'"),
    ], ids=["ph-half-torus", "main-elsewhere", "main-catalog-region", "main-torus-domain",
            "main-torus-entry-domain", "main-unknown-entry"])
    def test_usage_error_ignored_region(self, argv, message, tmp_path, capsys):
        # each but the unknown entry used to exit 0 on a region or domain of
        # its own, printing the given one in the report's config
        out = tmp_path / "report.json"
        assert run_command(["verify", *argv, "--depth", "4", "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_verify_ph_whole_torus_region(self, tmp_path):
        code, doc, _ = run_json(
            ["verify", "ph", "--field", "(sin2px, sin2py)", "--domain", "torus",
             "--region", "0, 0, 2/2, 1", "--depth", "4"], tmp_path
        )
        assert code == 0
        assert len(doc["results"]["blocks"]) == 4

    def test_usage_error_unknown_option(self, capsys):
        assert run_command(["index", "--nope", "1"]) == 3

    def test_coarse_region_boundary_zero(self, tmp_path):
        # zero sits on the region boundary: block cannot be certified, and
        # index reports the coarse block without an index
        for command in ("zeros", "index"):
            code, doc, _ = run_json(
                [command, "--field", "(x, y)", "--region", "0,0,1,1", "--depth", "4"],
                tmp_path, f"{command}.json",
            )
            assert code == 2, command
            assert doc["results"]["coarse"] is True, command
            assert len(doc["results"]["blocks"]) == 1 and "index" not in doc["results"]["blocks"][0], command

    @pytest.mark.parametrize("suite", [
        ["stability", "--field", "(x, y)"],
        ["transfer", "--x", "(x, y)", "--y", "(x, y)"],
    ])
    def test_coarse_block_refused(self, suite, capsys):
        argv = ["verify", *suite, "--region", "0,0,1,1", "--depth", "4"]
        assert run_command(argv) == 2
        assert "coarse" in capsys.readouterr().err

    def test_boundary_certified_between_levels_31_and_42(self, tmp_path):
        code, doc, _ = run_json(
            ["index", "--field", "(x - y + 1/3, x + y - 1/3)", "--region",
             "1/34359738368,-1,34359738369/34359738368,1", "--depth", "3"], tmp_path
        )
        assert code == 0
        assert doc["results"]["total_index"] == 0

    @pytest.mark.parametrize("field, option, message", [
        ("(x, y)", "--tol=-1", "tol must be positive and finite"),
        ("(x, y)", "--tol=0", "tol must be positive and finite"),
        ("(x, y)", "--tol=nan", "tol must be positive and finite"),
        ("(x, y)", "--tol=inf", "tol must be positive and finite"),
        ("(x, y)", "--step=nan", "step must be positive"),
        ("(x, y)", "--step=0", "step must be positive"),
        # no zero in the region, so no seed is flowed
        ("(x^2 + y^2 + 1, x)", "--step=nan", "step must be positive"),
    ])
    def test_usage_error_bad_invariance_number(self, field, option, message, capsys):
        # a nonsense tolerance used to exit 1 as a falsification; a NaN step
        # exited 3 with float's "cannot convert float NaN to integer", or 0
        # with "step": NaN in the report when no seed was flowed
        argv = ["verify", "invariance", "--x", field, "--y", field, "--depth", "4", option]
        assert run_command(argv) == 3
        assert f"usage error: {message}" in capsys.readouterr().err

    def test_usage_error_degenerate_region(self, capsys):
        assert run_command(["zeros", "--field", "(x, y)", "--region", "0,0,0,1"]) == 3
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["dep"], ["verify", "invariance", "--target", "dependency"]])
    @pytest.mark.parametrize("domain, field, option, message", [
        ("plane", "(x, y)", "--depth=0", "max_depth must be >= 1"),
        ("plane", "(x, y)", "--region=0,0,0,1", "region must have positive width and height"),
        ("torus", "(sin2px, sin2py)", "--region=0,0,1/2,1",
         "torus isolation runs on the fundamental square [0,1]^2"),
    ], ids=["depth-0", "zero-width", "half-torus"])
    def test_usage_error_identically_dependent(self, command, domain, field, option, message, tmp_path,
                                               capsys):
        # X wedge Y vanishes identically, so nothing is isolated; the region
        # and depth used to go unchecked and the run exited 0
        out = tmp_path / "report.json"
        argv = [*command, "--domain", domain, "--x", field, "--y", field, option, "--out", str(out)]
        assert run_command(argv) == 3
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_zero_field_index(self, capsys):
        # the zero Y was bisected 42 levels on a boundary piece and the run
        # exited 2 with "zero too close to boundary"
        argv = ["verify", "transfer", "--x", "(x, y)", "--y", "(0, 0)", "--depth", "3",
                "--region", "-1,-1,1,1"]
        assert run_command(argv) == 3
        assert "usage error: the zero field vanishes everywhere; it has no winding number" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_usage_error_no_trials(self, trials, capsys):
        argv = ["verify", "stability", "--field", "(x, -y)", "--trials", trials]
        assert run_command(argv) == 3
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_stability_without_boundary(self, capsys):
        # the whole-torus block has no boundary loop to bound the
        # perturbation scale on
        argv = ["verify", "stability", "--field", "(sin2px, sin2py)", "--domain", "torus",
                "--depth", "1"]
        assert run_command(argv) == 3
        assert "block K0 has no boundary" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", [
        ["stability", "--field", "(x^2 + y^2 + 1, x)"],
        ["transfer", "--x", "(x^2 + y^2 + 1, x)", "--y", "(1, 0)"],
        ["invariance", "--x", "(x^2 + y^2 + 1, x)", "--y", "(x^2 + y^2 + 1, x)"],
        # X and Y are independent everywhere: the dependency set is empty
        ["invariance", "--target", "dependency", "--x", "(1, 0)", "--y", "(0, 1)"],
    ])
    def test_usage_error_no_block_to_verify(self, suite, tmp_path, capsys):
        # a region without a zero block used to pass with an empty report list
        out = tmp_path / "report.json"
        assert run_command(["verify", *suite, "--depth", "4", "--out", str(out)]) == 3
        assert "region holds no zero block; nothing to verify" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("catalog, message", [
        (None, "No such file"),
        ("[no-region]\nx = (x, y)\ntags = main\n", "catalog section [no-region] has no 'region' key"),
        ("[no-field]\nregion = -1, -1, 1, 1\ntags = main\n", "catalog section [no-field] has no 'x' key"),
        ("x = (x, y)\n", "malformed catalog"),
    ], ids=["missing-file", "no-region", "no-field", "no-section-header"])
    def test_usage_error_bad_catalog(self, catalog, message, tmp_path, capsys):
        path = tmp_path / "catalog.cfg"
        if catalog is not None:
            path.write_text(catalog)
        assert run_command(["verify", "main", "--catalog", str(path), "--depth", "4"]) == 3
        err = capsys.readouterr().err
        assert "usage error" in err and message in err

    @pytest.mark.parametrize("key, value, message", [
        ("domain", "sphere", "catalog section [bad] key 'domain': 'sphere' is not 'plane' or 'torus'"),
        ("expected_blocks", "abc", "catalog section [bad] key 'expected_blocks': 'abc' is not an integer >= 0"),
        ("expected_blocks", "-1", "catalog section [bad] key 'expected_blocks': '-1' is not an integer >= 0"),
        ("expected_indices", "1, x", "catalog section [bad] key 'expected_indices': '1, x' is not "
                                     "a comma-separated list of integers"),
        ("x", "(x, y", "catalog section [bad] key 'x': '(x, y' is not a plane field '(ex, ey)'"),
        ("trackers", "(x, y) ; (z, y)", "catalog section [bad] key 'trackers': '(x, y) ; (z, y)' is not "
                                        "a ';'-separated list of plane fields"),
        ("trackers", "(x; y)", "catalog section [bad] key 'trackers': '(x; y)' is not "
                               "a ';'-separated list of plane fields"),
        ("region", "a, 0, 1, 1", "catalog section [bad] key 'region': 'a, 0, 1, 1' is not "
                                 "a region 'x0, y0, x1, y1' of rationals"),
        ("region", "0, 0, 1/0, 1", "catalog section [bad] key 'region': '0, 0, 1/0, 1' is not "
                                   "a region 'x0, y0, x1, y1' of rationals"),
    ], ids=["domain", "blocks-word", "blocks-negative", "indices", "field", "trackers", "trackers-parenthesis",
            "region", "region-zero-denominator"])
    def test_usage_error_bad_catalog_value(self, key, value, message, tmp_path, capsys):
        # an unknown domain used to be refused as a torus generator error,
        # a bad count with int()'s bare message, and a bad field, tracker
        # or region with the parser's message, which named no section
        sec = {"x": "(x, y)", "region": "-1, -1, 1, 1", "tags": "main", key: value}
        path = tmp_path / "catalog.cfg"
        path.write_text("[bad]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items()))
        assert run_command(["verify", "main", "--catalog", str(path), "--depth", "4"]) == 3
        err = capsys.readouterr().err
        assert "usage error" in err and message in err

    @pytest.mark.parametrize("argv", [
        ["track", "--y", "(x, y)", "--x", "(x, y)", "--out"],
        ["plot", "--field", "(x, y)", "--depth", "3", "--svg-out"],
    ], ids=["out", "svg-out"])
    def test_usage_error_unwritable_output(self, argv, tmp_path, capsys):
        assert run_command(argv + [str(tmp_path / "missing" / "file")]) == 3
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_catalog_without_main_entry(self, tmp_path, capsys):
        # a catalog with no main or negative entry used to exit 0 having
        # checked nothing
        cat = tmp_path / "extra.cfg"
        cat.write_text("[user-node]\nx = (2*x, 3*y)\nregion = -1, -1, 1, 1\ntags = stability\n")
        out = tmp_path / "report.json"
        assert run_command(["verify", "main", "--catalog", str(cat), "--out", str(out)]) == 3
        assert "no catalog entry tagged main or negative" in capsys.readouterr().err
        assert not out.exists()

    def test_falsification_exit(self, monkeypatch, tmp_path):
        import vfzero.cli as cli
        from vfzero.harness import PoincareHopfReport

        monkeypatch.setattr(
            cli, "poincare_hopf_check",
            lambda field, depth: PoincareHopfReport((("K0", 1),), 1),
        )
        code = run_command(
            ["verify", "ph", "--field", "(sin2px, sin2py)", "--domain", "torus",
             "--out", str(tmp_path / "ph.json")]
        )
        assert code == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        argv = ["verify", "stability", "--field", "(x, -y)", "--region", "-1,-1,1,1",
                "--depth", "5", "--trials", "8", "--seed", "42"]
        _, _, b1 = run_json(argv, tmp_path, "a.json")
        _, _, b2 = run_json(argv, tmp_path, "b.json")
        assert b1 == b2

    def test_stdout_report(self, capsys):
        code = run_command(["track", "--y", "(x, y)", "--x", "(x, y)"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "track"
        assert doc["version"]


class TestTorusPlot:
    def test_plot_torus_field(self, tmp_path):
        svg = tmp_path / "torus.svg"
        code = run_command(
            ["plot", "--field", "(sin2px, sin2py)", "--domain", "torus",
             "--depth", "4", "--svg-out", str(svg), "--out", str(tmp_path / "t.json")]
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_plot_torus_lines_stay_on_the_loops(self, tmp_path):
        # K0's boundary at depth 3 runs from (0, 1/8) across the seam to
        # (1, 1/8); one polyline per loop joined the two with a line across
        # the whole plot (the square is 600 px wide, a cell edge 75 px)
        svg = tmp_path / "torus.svg"
        argv = ["plot", "--field", "(sin2px, sin2py)", "--domain", "torus", "--depth", "3"]
        assert run_command(argv + ["--svg-out", str(svg), "--out", str(tmp_path / "t.json")]) == 0
        lines = re.findall(r'<polyline points="([^"]*)"', svg.read_text())
        assert len(lines) > 4
        for line in lines:
            pts = [tuple(map(float, p.split(","))) for p in line.split()]
            assert max(abs(a - c) + abs(b - d) for (a, b), (c, d) in zip(pts, pts[1:])) <= 75

    def test_version_flag(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            run_command(["--version"])
        assert "vfzero" in capsys.readouterr().out


class TestCustomCatalog:
    def test_verify_main_with_catalog_file(self, tmp_path):
        cat = tmp_path / "extra.cfg"
        cat.write_text(
            "[user-node]\n"
            "domain = plane\n"
            "x = (2*x, 3*y)\n"
            "trackers = (x, y)\n"
            "region = -1, -1, 1, 1\n"
            "expected_blocks = 1\n"
            "expected_indices = 1\n"
            "tags = main\n"
        )
        code, doc, _ = run_json(
            ["verify", "main", "--catalog", str(cat), "--depth", "7"], tmp_path
        )
        assert code == 0
        entry = doc["results"]["entries"][0]
        assert entry["entry"] == "user-node"
        assert entry["hypotheses_ok"] and entry["conclusion_holds"]

    @pytest.mark.parametrize("name", ["cross", "through"])
    def test_factor_curve_on_region_boundary(self, name, capsys):
        # g vanishes on the region boundary, so Z(X) is isolated over the
        # whole region, whose block K0 runs into that boundary: exit 2
        cat = Path(__file__).parent / "data" / "factor-edges.cfg"
        assert run_command(["verify", "main", "--catalog", str(cat), "--entry", name, "--depth", "8"]) == 2
        assert f"coarse block K0 in {name}" in capsys.readouterr().err

    def test_torus_seam_catalog(self, tmp_path):
        # the essential blocks K0 and K1 meet the tracker's blocks only
        # across x = 0 = 1; the witnesses lie on x = 0
        cat = Path(__file__).parent / "data" / "torus-seam.cfg"
        code, doc, _ = run_json(
            ["verify", "main", "--catalog", str(cat), "--depth", "6"], tmp_path
        )
        assert code == 0
        entry = doc["results"]["entries"][0]
        assert entry["entry"] == "torus-seam"
        assert entry["essential_blocks"] == ["K0", "K1", "K2", "K3"]
        assert entry["missed"] == [] and entry["conclusion_holds"]
        seam = {(w["tracker"], w["block"]): w["box"] for w in doc["results"]["entries"][0]["witnesses"]}
        assert seam[("Y0", "K0")] == {"x0": "0", "x1": "0", "y0": "15/64", "y1": "1/4"}
        assert seam[("common", "K1")] == {"x0": "0", "x1": "0", "y0": "47/64", "y1": "3/4"}
