import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from eqflux import config as cfg
from eqflux import run
from eqflux.cli import main
from eqflux.estimator import EstimatorReport
from eqflux.fem import field_to_csv
from eqflux.mesh import EdgeMarker, generate_unit_square, read_mesh, write_mesh
from eqflux.presets import PRESET_NAMES, preset_config, snap_eps_to_grid
from eqflux.run import build_reference, csv_header, emit_csv, run_single


def small_notch_config(reference=None):
    return {
        "run_id": "t",
        "mesh": {"builtin": 10},
        "dirichlet": "x == 0 or x == 1",
        "f": 1.0,
        "eps": 0.2,
        "features": [
            {
                "id": 1,
                "kind": "negative_boundary",
                "shape": {
                    "type": "rect",
                    "x0": "(1-eps)/2",
                    "x1": "(1+eps)/2",
                    "y0": "1-eps",
                    "y1": "1",
                },
                "g": 0.0,
                "include": False,
            }
        ],
        "study": {"type": "none"},
        "reference": reference,
    }


class TestConfig:
    def test_shipped_schema_is_valid(self):
        import jsonschema

        schema = cfg._schema_validator().schema
        jsonschema.validators.validator_for(schema).check_schema(schema)
        assert cfg._schema_validator() is cfg._schema_validator()

    @pytest.mark.parametrize("doc", [
        {}, {"mesh": {"builtin": 0}}, {"mesh": {"builtin": 4}, "bogus": 1},
        {"mesh": {"builtin": 4}, "study": {"type": "x"}},
        {"mesh": {"builtin": 4}, "features": [{"id": 1}]},
        {"mesh": {"builtin": 4}, "reference": {"field": "f.csv"}}])
    def test_schema_errors_match_jsonschema_validate(self, doc):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, cfg._schema_validator().schema)
        with pytest.raises(cfg.ConfigError) as got:
            cfg.validate_config(doc)
        assert str(got.value) == f"config does not match the schema: {want.value.message}"

    @pytest.mark.parametrize("study, message", [
        ({"type": "h_sweep"}, "h_sweep needs a list of n values"),
        ({"type": "eps_sweep", "eps": []}, "eps_sweep needs a list of eps values")])
    def test_empty_sweep_rejected(self, monkeypatch, study, message):
        doc = small_notch_config()
        doc["study"] = study
        monkeypatch.setattr(cfg, "validate_config", lambda doc: None)
        with pytest.raises(cfg.ConfigError, match=message):
            cfg.specs_from_config(doc)

    def test_unknown_study_type_rejected_by_schema(self):
        with pytest.raises(cfg.ConfigError, match="^config does not match the schema: 'foo' is not"):
            cfg.specs_from_config({"mesh": {"builtin": 4}, "study": {"type": "foo"}})

    def test_feature_n_is_not_an_option(self):
        # Positive features mesh at the run's n; a config that still sets feature_n fails.
        doc = small_notch_config()
        doc["feature_n"] = doc["mesh"]["builtin"]
        with pytest.raises(cfg.ConfigError, match="^config does not match the schema: "
                           "Additional properties are not allowed \\('feature_n' was unexpected\\)"):
            cfg.specs_from_config(doc)

    def test_schema_validation_rejects_bad_doc(self):
        with pytest.raises(cfg.ConfigError):
            cfg.validate_config({"mesh": {"builtin": 0}})
        with pytest.raises(cfg.ConfigError):
            cfg.validate_config({"mesh": {"builtin": 4}, "bogus": 1})

    @pytest.mark.parametrize("reference, missing", [
        ({"field": "missing.csv"}, "mesh"), ({"mesh": "missing.json"}, "field")])
    def test_external_reference_needs_mesh_and_field(self, reference, missing):
        with pytest.raises(cfg.ConfigError, match=f"'{missing}' is a dependency"):
            cfg.specs_from_config(small_notch_config(reference))

    def test_external_reference_round_trip(self, tmp_path, monkeypatch):
        doc = preset_config("test2-both", n=8)
        (spec,) = cfg.specs_from_config(doc)
        built = build_reference(spec)
        write_mesh(built.mesh, tmp_path / "ref.json")
        field_to_csv(built, tmp_path / "ref.csv")
        doc["reference"] = {"mesh": str(tmp_path / "ref.json"),
                            "field": str(tmp_path / "ref.csv")}
        (external,) = cfg.specs_from_config(doc)
        want = run_single(spec, reference=built).report.error_energy
        # The external reference is read, not built again.
        monkeypatch.setattr(run, "build_exact_mesh", None)
        assert run_single(external).report.error_energy == want

    def test_reference_without_refinement_is_the_computation(self):
        # levels 0 on the row's own mesh with every feature included gives a zero error and an
        # undefined effectivity: refused before any solve.  A finer n, an external reference or
        # an excluded feature makes the reference another computation.
        plain = {"mesh": {"builtin": 14}, "dirichlet": "all", "f": "1", "g_dirichlet": "x"}
        included = small_notch_config()
        included["features"][0]["include"] = True
        for doc, ref in ((plain, {"levels": 0}), (plain, {"levels": 0, "n": 14}),
                         (included, {"levels": 0})):
            with pytest.raises(cfg.ConfigError, match="^reference.levels: 0 makes the reference"):
                cfg.specs_from_config(doc | {"reference": ref})
        for doc, ref in ((plain, {"levels": 0, "n": 28}), (small_notch_config(), {"levels": 0}),
                         (plain, {"levels": 1})):
            (spec,) = cfg.specs_from_config(doc | {"reference": ref})
            assert spec.reference.levels == ref["levels"]

    def test_expression_rejects_unknown_names(self):
        with pytest.raises(cfg.ConfigError):
            cfg.scalar_expression("__import__('os')")
        with pytest.raises(cfg.ConfigError):
            cfg.scalar_expression("open('x')")

    def test_scalar_expression_normal_aware(self):
        g = cfg.scalar_expression("2*nx + 3*ny")
        assert g(0.0, 0.0, 1.0, 0.0) == 2.0

    @pytest.mark.parametrize("key", ["f", "g_dirichlet"])
    def test_normals_only_in_neumann_data(self, key):
        doc = preset_config("test1")
        doc[key] = "nx"
        with pytest.raises(cfg.ConfigError, match=f"^{key}: unknown name 'nx'"):
            cfg.specs_from_config(doc)
        doc[key], doc["g_neumann"] = 1.0, "2*nx + ny"
        (spec,) = cfg.specs_from_config(doc)
        assert spec.domain.g_neumann(0.0, 0.0, 1.0, 0.0) == 2.0

    def test_presets_validate(self):
        for name in PRESET_NAMES:
            doc = preset_config(name)
            cfg.validate_config(doc)
            specs = cfg.specs_from_config(doc)
            assert len(specs) == 1

    def test_snap_eps(self):
        assert snap_eps_to_grid(0.2, 40) == pytest.approx(0.2)
        e = snap_eps_to_grid(0.2, 16)
        assert (16 * e) == round(16 * e)
        assert (16 - 16 * e) % 2 == 0

    def test_h_sweep_expansion(self):
        doc = small_notch_config()
        doc["study"] = {"type": "h_sweep", "n": [5, 10]}
        specs = cfg.specs_from_config(doc)
        assert [s.n for s in specs] == [5, 10]
        assert [s.run_id for s in specs] == ["t-000", "t-001"]

    def test_h_sweep_on_external_mesh_rejected(self, tmp_path):
        write_mesh(generate_unit_square(4), tmp_path / "m.json")
        doc = small_notch_config()
        doc["mesh"] = {"external": str(tmp_path / "m.json")}
        doc["study"] = {"type": "h_sweep", "n": [5, 10, 15]}
        with pytest.raises(cfg.ConfigError, match="^h_sweep needs a builtin mesh"):
            cfg.specs_from_config(doc)

    def test_external_mesh_read_once_per_config(self, tmp_path, monkeypatch):
        write_mesh(generate_unit_square(10, cfg.predicate_expression("x == 0 or x == 1")),
                   tmp_path / "m.json")
        doc = small_notch_config()
        doc["mesh"] = {"external": str(tmp_path / "m.json")}
        doc["study"] = {"type": "eps_sweep", "eps": [0.2, 0.4]}
        calls = []
        monkeypatch.setattr(cfg, "read_mesh", lambda path: calls.append(path) or read_mesh(path))
        specs = cfg.specs_from_config(doc)
        assert calls == [str(tmp_path / "m.json")]
        assert specs[0].mesh is specs[1].mesh is specs[0].domain.base is specs[1].domain.base

    def test_eps_sweep_expansion(self):
        doc = small_notch_config()
        doc["study"] = {"type": "eps_sweep", "eps": [0.2, 0.4]}
        specs = cfg.specs_from_config(doc)
        assert [s.eps for s in specs] == [[0.2], [0.4]]
        # feature polygons follow the sweep parameter
        w0 = np.ptp(specs[0].domain.features[0].polygon[:, 0])
        w1 = np.ptp(specs[1].domain.features[0].polygon[:, 0])
        assert (w0, w1) == pytest.approx((0.2, 0.4))

    def test_data_expression_rejects_eps(self):
        # Only feature shapes may use the size parameter.
        doc = small_notch_config()
        doc["features"][0]["g"] = "eps"
        with pytest.raises(cfg.ConfigError, match="^g: unknown name 'eps'"):
            cfg.specs_from_config(doc)

    @pytest.mark.parametrize("where, value, match", [
        ("f", "x +", r"^f: cannot parse expression 'x \+': "),
        ("dirichlet", "x ==", r"^dirichlet: cannot parse expression 'x ==': "),
        ("radius", "eps*", r"^feature 1 radius: cannot parse expression 'eps\*': "),
        ("radius", "2*r", r"^feature 1 radius: unknown name 'r' in expression '2\*r'$"),
    ])
    def test_expression_syntax_error_quotes_expression(self, where, value, match):
        doc = preset_config("test3")
        if where == "radius":
            doc["features"][0]["shape"]["radius"] = value
        else:
            doc[where] = value
        with pytest.raises(cfg.ConfigError, match=match) as err:
            cfg.specs_from_config(doc)
        assert "nx" not in str(err.value)

    @pytest.mark.parametrize("value, match", [
        ("1/(eps-eps)",
         r"^feature 1 x0: cannot evaluate '1/\(eps-eps\)': float division by zero$"),
        ("sqrt(-1.0)", r"^feature 1 x0: 'sqrt\(-1.0\)' gives: nan is not a finite number$"),
        ("1e308*10", r"^feature 1 x0: '1e308\*10' gives: inf is not a finite number$"),
    ])
    def test_shape_value_must_evaluate_to_finite_number(self, value, match):
        doc = preset_config("test2-pos")
        doc["features"][0]["shape"]["x0"] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cfg.ConfigError, match=match):
                cfg.specs_from_config(doc)

    @pytest.mark.parametrize("key, value", [
        ("f", "Infinity"), ("f", "NaN"), ("g_neumann", "-Infinity")])
    def test_non_finite_number_rejected(self, key, value):
        doc = small_notch_config()
        doc[key] = json.loads(value)  # as a config file can spell it
        with pytest.raises(cfg.ConfigError, match=f"^{key}: -?(inf|nan) is not a finite number$"):
            cfg.specs_from_config(doc)

    @pytest.mark.parametrize("key, value", [("f", "log(x-2)"), ("g_dirichlet", "1/x")])
    def test_non_finite_data_fails_at_projection(self, key, value):
        doc = small_notch_config()
        doc[key] = value
        (spec,) = cfg.specs_from_config(doc)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="is not finite$"):
            run_single(spec)


class TestEmission:
    def test_csv_header_exact(self):
        assert (
            csv_header(2)
            == "run_id,h,n_dof,eps,err_energy,eta_gamma_1,eta_gamma_2,"
            "eta_gamma,eta_0,eta_0_tilde,eta_tot,effectivity"
        )

    def test_empty_sweep_header_only(self):
        text = emit_csv([], [1, 2])
        assert text == csv_header(2) + "\r\n"

    def test_json_report_round_trip(self):
        specs = cfg.specs_from_config(small_notch_config())
        res = run_single(specs[0])
        back = EstimatorReport.from_json(res.report.to_json())
        assert back.to_dict() == res.report.to_dict()

    def test_included_feature_column_left_blank(self):
        doc = small_notch_config()
        doc["features"][0]["include"] = True
        (spec,) = cfg.specs_from_config(doc)
        res = run_single(spec)
        text = emit_csv([res.report], [1])
        row = text.splitlines()[1].split(",")
        header = csv_header(1).split(",")
        assert row[header.index("eta_gamma_1")] == ""
        assert res.report.eta_total == res.report.eta_0

    def test_total_equals_eta0_without_features(self):
        doc = {"mesh": {"builtin": 8}, "dirichlet": "all", "f": "x"}
        (spec,) = cfg.specs_from_config(doc)
        res = run_single(spec)
        assert res.report.eta_total == res.report.eta_0


class TestCliCommands:
    def test_mesh_generate_and_convert(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["mesh", "--builtin", "3", "--dirichlet", "x == 0", "--out", str(out)]) == 0
        m = read_mesh(out)
        assert m.n_vertices == 16
        out2 = tmp_path / "m2.json"
        assert main(["mesh", "--convert", str(out), "--out", str(out2)]) == 0
        m2 = read_mesh(out2)
        assert np.array_equal(m.vertices, m2.vertices)

    def test_estimate_outputs(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_notch_config()))
        outdir = tmp_path / "out"
        code = main(
            ["estimate", "--config", str(cfg_path), "--out", str(outdir),
             "--format", "csv,json,vtk"]
        )
        assert code == 0
        csv_text = (outdir / "t.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0].strip() == csv_header(1)
        assert len(lines) == 2
        reports = json.loads((outdir / "t.json").read_text())
        assert len(reports) == 1
        assert (outdir / "t-000_u0.vtk").exists()

    def test_determinism_bitwise(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_notch_config()))
        texts = []
        for sub in ("a", "b"):
            outdir = tmp_path / sub
            assert main(["estimate", "--config", str(cfg_path), "--out", str(outdir)]) == 0
            texts.append((outdir / "t.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_determinism_bitwise_refined_reference(self, tmp_path):
        # The refined reference is solved by multigrid CG: its error columns repeat bitwise too.
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_notch_config({"levels": 2})))
        texts = []
        for sub in ("a", "b"):
            outdir = tmp_path / sub
            assert main(["estimate", "--config", str(cfg_path), "--out", str(outdir)]) == 0
            texts.append((outdir / "t.csv").read_bytes())
        assert texts[0] == texts[1]
        assert float(texts[0].decode().split("\n")[1].split(",")[-1]) > 0  # an effectivity

    def test_sweep_csv_rows(self, tmp_path):
        doc = small_notch_config()
        doc["study"] = {"type": "h_sweep", "n": [5, 10]}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(outdir)]) == 0
        lines = (outdir / "t.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "t-000"

    @pytest.mark.parametrize("command", ["sweep", "solve"])
    def test_unknown_format_rejected(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_notch_config()))
        outdir = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(outdir),
                     "--format", "csv,jsn"]) == 1
        err = capsys.readouterr().err
        assert f"eqflux {command}: error: unknown --format jsn; choose from csv, json, vtk" in err
        assert not outdir.exists()

    def test_solve_outputs(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_notch_config()))
        outdir = tmp_path / "out"
        assert main(["solve", "--config", str(cfg_path), "--out", str(outdir),
                     "--format", "csv,vtk"]) == 0
        assert (outdir / "t-000_u0.csv").exists()
        assert (outdir / "t-000_u0.vtk").exists()

    def test_preset_dump_config(self, tmp_path):
        path = tmp_path / "p.json"
        assert main(["preset", "test1", "--dump-config", str(path)]) == 0
        doc = json.loads(path.read_text())
        cfg.validate_config(doc)

    def test_preset_runs(self, tmp_path):
        outdir = tmp_path / "out"
        assert main(["preset", "test1", "-n", "8", "--out", str(outdir)]) == 0
        assert (outdir / "test1.csv").exists()

    def test_unknown_feature_marker_reports_edge(self, tmp_path, capsys):
        mesh = generate_unit_square(10, cfg.predicate_expression("x == 0 or x == 1"))
        e = int(mesh.boundary_edge_ids[0])
        assert mesh.edge_markers[e].kind == "neumann"
        mesh.set_markers(*mesh.edge_vertices[[e]].T, [EdgeMarker("feature", 7, "gamma")])
        write_mesh(mesh, tmp_path / "m.json")
        doc = small_notch_config()
        doc["mesh"] = {"external": str(tmp_path / "m.json")}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: boundary edge {e} is marked for unknown feature 7" in err

    def test_mesh_error_reported_unchanged(self, tmp_path, capsys):
        # A topology error of an external mesh reaches the user as raised.
        mesh = run.build_computational_mesh(cfg.specs_from_config(small_notch_config())[0])
        write_mesh(mesh, tmp_path / "m.json")
        mdoc = json.loads((tmp_path / "m.json").read_text())
        mdoc["vertices"].append([0.31, 0.77])
        (tmp_path / "m.json").write_text(json.dumps(mdoc))
        doc = small_notch_config()
        doc["mesh"] = {"external": str(tmp_path / "m.json")}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: vertex {mesh.n_vertices} belongs to no triangle\n" in err
        assert "invalid mesh arrays" not in err

    def test_unrefined_reference_reports_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"mesh": {"builtin": 14}, "dirichlet": "all", "f": "1",
                                        "g_dirichlet": "x", "reference": {"levels": 0}}))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("eqflux estimate: error: reference.levels: 0 makes the reference")

    def test_bad_config_reports_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text("{]")
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err


SCIPY_GUARD = """
import json, sys
import eqflux
from eqflux import cli
from eqflux.config import specs_from_config
from eqflux.presets import PRESET_NAMES, preset_config
from eqflux.run import run_single

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import eqflux": scipy_modules()}
for name in PRESET_NAMES:
    specs_from_config(preset_config(name))
loaded["specs_from_config(presets)"] = scipy_modules()
assert cli.main(["mesh", "--builtin", "4", "--out", "m.json"]) == 0
loaded["eqflux mesh"] = scipy_modules()
doc = preset_config("test3")
doc["mesh"] = {"external": "m.json"}
specs_from_config(doc)
loaded["specs_from_config(mesh.external)"] = scipy_modules()
assert cli.main(["preset", "test3", "--dump-config", "p.json"]) == 0
loaded["eqflux preset --dump-config"] = scipy_modules()
report = run_single(specs_from_config(preset_config("test3", n=4))[0]).report.to_dict()
print(json.dumps({"loaded": loaded, "solve_loads": scipy_modules(), "report": report}))
"""


class TestLazyScipy:
    def test_scipy_loaded_only_by_a_solve(self, tmp_path):
        """A fresh interpreter loads no scipy module until the first solve; that solve's
        report equals the one computed in this process."""
        src = str(Path(cfg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", SCIPY_GUARD], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["loaded"] == dict.fromkeys(out["loaded"], [])
        assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(out["solve_loads"])
        want = run_single(cfg.specs_from_config(preset_config("test3", n=4))[0]).report
        assert out["report"] == json.loads(json.dumps(want.to_dict()))
