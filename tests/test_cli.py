import copy
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqflux import config as cfg
from eqflux import fem, flux, geometry, linalg, mesh, run
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


# The three benchmark workload configurations, rebuilt from the presets (validation does not
# read the external mesh file).
WORKLOAD_DOCS = [
    preset_config("test3", n=64),
    preset_config("test3", n=64) | {"mesh": {"external": "mesh-seed0.json"}},
    preset_config("test2-both", n=32, eps=0.25) | {
        "study": {"type": "h_sweep", "n": [8, 16, 24]}, "reference": {"n": 48, "levels": 2}},
]
VALID_DOCS = [preset_config(name) for name in PRESET_NAMES] + WORKLOAD_DOCS

# The space of ROADMAP direction 6: built-in n from 2 to 16, 0-2 features of each kind (a
# rectangle or an n-gon, included at random), data from DATA, five Dirichlet predicates and no
# reference or one with 0 or 1 levels.  Rectangles lie on the n-lattice: inside the square, cut
# into one side (negative_boundary) or standing out of one side (positive); n-gons are centred
# on a lattice point.
DATA = ["0", "1", "x", "x*y", "sin(3*x)", "exp(-8*(x+y))"]
DIRICHLET = ["all", "x == 0", "x == 0 or x == 1", "x == 0 or y == 0", "y < 0.5"]


@st.composite
def random_configs(draw):
    n = draw(st.integers(2, 16))
    ints = lambda lo, hi: sorted(draw(st.lists(st.integers(lo, hi), min_size=2, max_size=2,
                                               unique=True)))
    features = []
    for kind in ("negative_internal", "negative_boundary", "positive"):
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                (i0, i1), depth = ints(0, n), draw(st.integers(1, n))
                j0, j1 = {"negative_internal": ints(0, n), "negative_boundary": (n - depth, n),
                          "positive": (-depth, 0)}[kind]
                for _ in range(draw(st.integers(0, 3))):  # quarter turns about the centre
                    (i0, j0), (i1, j1) = (n - j0, i0), (n - j1, i1)
                (x0, x1), (y0, y1) = (sorted([a / n, b / n]) for a, b in ((i0, i1), (j0, j1)))
                shape = {"type": "rect", "x0": x0, "x1": x1, "y0": y0, "y1": y1}
                if draw(st.booleans()):  # the same rectangle as a polygon
                    shape = {"polygon": [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]}
            else:
                shape = {"type": "ngon", "center": [draw(st.integers(0, n)) / n for _ in "xy"],
                         "radius": draw(st.sampled_from([0.05, 0.1, 0.2, 0.3])),
                         "sides": draw(st.integers(3, 16))}
            features.append({"id": len(features) + 1, "kind": kind,
                             **(shape if "polygon" in shape else {"shape": shape}),
                             "g": draw(st.sampled_from(DATA)), "include": draw(st.booleans())})
    doc = {"mesh": {"builtin": n}, "dirichlet": draw(st.sampled_from(DIRICHLET)),
           "features": features}
    for key in ("f", "g_dirichlet", "g_neumann"):
        doc[key] = draw(st.sampled_from(DATA))
    if (levels := draw(st.sampled_from([None, 0, 1]))) is not None:
        doc["reference"] = {"levels": levels}
    return doc


# Values that mutations put into a field: wrong types (a bool, 4.0 for an integer, a string for
# a number), a polygon of 2 points, one with a point of 3 coordinates, an empty mesh, and a
# reference with a field but no mesh.
POOL = [True, False, None, 4, 4.0, 0.5, "x", "", [], {}, [0.5, 0.5, 0.5],
        [[0.1, 0.1], [0.4, 0.1]], [[0.1, 0.1], [0.4, 0.1, 0.0], [0.2, 0.3]],
        [[0.1, 0.1], [0.4, 0.1], [0.2, 0.3]], {"builtin": 4}, {"field": "f.csv"}]


def _slots(value, schema):
    """(container, key, the key's schema) for every key and item of a doc, and for every
    property that the schema declares but the doc leaves out."""
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in sorted({*props, *value}):
            yield value, key, props.get(key, {})
            if key in value:
                yield from _slots(value[key], props.get(key, {}))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield value, i, schema.get("items", {})
            yield from _slots(item, schema.get("items", {}))


def _bounds(schema):
    """Numbers at and past each bound of ``schema``."""
    return [schema[k] + d for k in ("minimum", "exclusiveMinimum", "maximum") if k in schema
            for d in (-1, -0.5, 0, 0.5, 1)]


@st.composite
def mutated_configs(draw):
    """A valid doc (a preset, a workload or a direction-6 draw) after one or two mutations:
    drop a key or an item, add an unknown key to an object, set a field or an item to a pool
    or random value, or set a bounded field at or past its bound."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS) | random_configs()))
    for _ in range(draw(st.integers(1, 2))):
        slots = list(_slots(doc, cfg._schema()))
        op = draw(st.sampled_from(["drop", "add", "set", "bound"]))
        if op in ("drop", "add"):
            containers = {id(c): c for c, _, _ in slots if op == "drop" or isinstance(c, dict)}
            container = draw(st.sampled_from(list(containers.values())))
            if op == "add":
                container[draw(st.sampled_from(["bogus", "feature_n", "levels"]))] = 1
            elif container:
                del container[draw(st.sampled_from(sorted(container) if isinstance(container, dict)
                                                   else range(len(container))))]
        else:
            container, key, schema = draw(st.sampled_from([s for s in slots
                                                           if op == "set" or _bounds(s[2])]))
            values = st.sampled_from(_bounds(schema)) if op == "bound" else st.one_of(
                st.sampled_from(POOL), st.integers(-2, 12),
                st.floats(-2, 2) | st.sampled_from([math.inf, math.nan]), st.text(max_size=2))
            container[key] = copy.deepcopy(draw(values))
    return doc


NAMED_ERRORS = (cfg.ConfigError, mesh.MeshError, geometry.GeometryError, fem.CouplingError,
                fem.CoverageError, flux.EquilibrationError, flux.OrthogonalityError,
                linalg.ConstructionError, linalg.SolverError, linalg.SingularSystemError)


def assert_matches_jsonschema(doc, schema):
    """validate_config accepts ``doc`` exactly when jsonschema's validator for ``schema`` does,
    and otherwise raises with jsonschema's best_match message."""
    import jsonschema

    want = jsonschema.exceptions.best_match(
        jsonschema.validators.validator_for(schema)(schema).iter_errors(doc))
    if want is None:
        cfg.validate_config(doc)
    else:
        with pytest.raises(cfg.ConfigError) as got:
            cfg.validate_config(doc)
        assert str(got.value) == f"config does not match the schema: {want.message}"


class TestConfig:
    def test_shipped_schema_is_valid(self):
        import jsonschema

        schema = cfg._schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)
        assert cfg._schema() is cfg._schema()

    @pytest.mark.parametrize("doc", [
        {}, {"mesh": {"builtin": 0}}, {"mesh": {"builtin": 4}, "bogus": 1},
        {"mesh": {"builtin": 4}, "study": {"type": "x"}},
        {"mesh": {"builtin": 4}, "features": [{"id": 1}]},
        {"mesh": {"builtin": 4}, "reference": {"field": "f.csv"}}])
    def test_schema_errors_match_jsonschema_validate(self, doc):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, cfg._schema())
        with pytest.raises(cfg.ConfigError) as got:
            cfg.validate_config(doc)
        assert str(got.value) == f"config does not match the schema: {want.value.message}"

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(doc=mutated_configs())
    @example(doc={"mesh": {"builtin": True}})
    @example(doc={"mesh": {"builtin": 4.0}})
    @example(doc={"mesh": {"builtin": 4, "external": "m.json"}})
    @example(doc={"mesh": {}})
    @example(doc={"mesh": {"builtin": 4}, "f": 1, "eps": "0.1", "gauss_order": 11})
    @example(doc={"mesh": {"builtin": 4}, "reference": {"field": "f.csv", "levels": -1}})
    @example(doc={"mesh": {"builtin": 4}, "zeta": 1, "alpha": 2, "beta": 3})
    @example(doc={"mesh": {"builtin": 4},
                  "features": [{"id": 1, "kind": "positive", "g": True},
                               {"id": 2, "kind": "positive", "polygon": [[0, 0], [1, 0, 0]]}]})
    def test_validator_matches_jsonschema_best_match(self, doc):
        # The in-package validator accepts exactly what jsonschema accepts, and otherwise
        # reports best_match's message.
        assert_matches_jsonschema(doc, cfg._schema())

    @pytest.mark.parametrize("schema, doc", [
        ({"anyOf": [{"type": "integer", "minimum": 5}, {"type": "string"}]}, 3),
        ({"type": "array", "minItems": 1}, []),
        ({"type": "array", "maxItems": 0}, [1]),
        ({"enum": [1, "a"]}, True),
        ({"enum": [1, "a"]}, 1.0)])
    def test_best_match_rules_beyond_the_shipped_schema(self, monkeypatch, schema, doc):
        # Rules that the shipped schema does not reach: an anyOf branch of the value's type
        # is the more relevant error, minItems 1 and maxItems 0 have their own words, and an
        # enum tells a bool from a number.
        monkeypatch.setattr(cfg, "_schema", lambda: schema)
        assert_matches_jsonschema(doc, schema)

    def test_unknown_schema_keyword_raises(self, monkeypatch):
        # A keyword that the validator does not check cannot be ignored silently, wherever it
        # sits (in a property of an item schema, in a oneOf or an anyOf branch); neither can an
        # additionalProperties schema.
        def shipped_with(where, keyword, value):
            schema = json.loads(json.dumps(cfg._schema()))
            where(schema)[keyword] = value
            return schema

        item = lambda schema: schema["properties"]["features"]["items"]
        for bad, keyword in (
                (shipped_with(lambda s: item(s)["properties"]["id"], "multipleOf", 2),
                 "multipleOf"),
                (shipped_with(lambda s: s["properties"]["mesh"]["oneOf"][1], "format", "uri"),
                 "format"),
                (shipped_with(lambda s: item(s)["anyOf"][0], "minProperties", 1), "minProperties"),
                ({"additionalProperties": {"type": "string"}}, "additionalProperties")):
            monkeypatch.setattr(cfg.json, "load", lambda f: bad)
            cfg._schema.cache_clear()
            try:
                with pytest.raises(ValueError, match=f"^schema keywords \\['{keyword}'\\] are not"):
                    cfg._schema()
            finally:
                cfg._schema.cache_clear()

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


class TestRandomConfigs:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(doc=random_configs())
    def test_runs_or_fails_by_name(self, doc):
        # ROADMAP direction 6, 500 draws: a schema-valid config returns finite reports whose
        # every flux was certified, or raises one of the package's named errors; no other
        # exception and no numpy warning escapes.
        with warnings.catch_warnings(), mock.patch.object(flux, "certify",
                                                          wraps=flux.certify) as certify:
            warnings.simplefilter("error")
            try:
                results = run.run_sweep(cfg.specs_from_config(doc))
            except NAMED_ERRORS:
                return
        solves = 1 + sum(f["kind"] == "positive" and not f["include"] for f in doc["features"])
        assert certify.call_count == solves * len(results)
        for r in (res.report for res in results):
            values = [r.eta_total, r.eta_0, r.eta_0_tilde, r.eta_gamma,
                      *(c.gamma_contribution() for c in r.per_feature.values())]
            if "reference" in doc:  # a zero error (the reference is the computation) has no ratio
                values += [r.error_energy, r.effectivity if r.error_energy > 0 else 0.0]
                assert r.error_energy > 0 or r.effectivity is None
            assert np.isfinite(values).all()


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

    def test_feature_on_dirichlet_boundary_reports_error(self, tmp_path, capsys):
        # "all" marks the notch's side of the square Dirichlet, where its g0 cannot go.
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "mesh": {"builtin": 8}, "dirichlet": "all", "f": 1.0,
            "features": [{"id": 1, "kind": "negative_boundary", "include": False,
                          "polygon": [[0.25, 0.75], [0.75, 0.75], [0.75, 1], [0.25, 1]]}]}))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert "error: feature 1 touches the Dirichlet boundary\n" in capsys.readouterr().err

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
from eqflux.config import ConfigError, specs_from_config
from eqflux.presets import PRESET_NAMES, preset_config
from eqflux.run import run_single

def modules(*roots):
    return sorted(m for m in sys.modules if m.split(".")[0] in roots)

loaded, schema_libs = {}, {}
def record(step):
    loaded[step] = modules("scipy")
    schema_libs[step] = modules("jsonschema", "referencing", "attr", "attrs", "rpds")

record("import eqflux")
for name in PRESET_NAMES:
    specs_from_config(preset_config(name))
record("specs_from_config(presets)")
assert cli.main(["mesh", "--builtin", "4", "--out", "m.json"]) == 0
record("eqflux mesh")
doc = preset_config("test3")
doc["mesh"] = {"external": "m.json"}
specs_from_config(doc)
record("specs_from_config(mesh.external)")
assert cli.main(["preset", "test3", "--dump-config", "p.json"]) == 0
record("eqflux preset --dump-config")
try:
    specs_from_config(json.loads(sys.argv[1]))
except ConfigError as exc:
    rejected = str(exc)
with open("bad.json", "w") as f:
    f.write(sys.argv[1])
assert cli.main(["estimate", "--config", "bad.json", "--out", "out"]) == 1
record("rejected config")
report = run_single(specs_from_config(preset_config("test3", n=4))[0]).report.to_dict()
schema_libs["solve"] = modules("jsonschema", "referencing", "attr", "attrs", "rpds")
print(json.dumps({"loaded": loaded, "schema_libs": schema_libs, "solve_loads": modules("scipy"),
                  "rejected": rejected, "report": report}))
"""

# A config that the schema rejects: its feature has neither a polygon nor a shape (anyOf).
REJECTED = {"mesh": {"builtin": 4}, "features": [{"id": 1, "kind": "positive"}]}


class TestLazyScipy:
    def test_scipy_loaded_only_by_a_solve(self, tmp_path):
        """A fresh interpreter loads no scipy module until the first solve, and no jsonschema
        module (nor referencing, attrs or rpds) at any step; the solve's report and a rejected
        config's message equal the ones computed in this process."""
        src = str(Path(cfg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", SCIPY_GUARD, json.dumps(REJECTED)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["loaded"] == dict.fromkeys(out["loaded"], [])
        assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(out["solve_loads"])
        assert out["schema_libs"] == dict.fromkeys(out["schema_libs"], [])
        with pytest.raises(cfg.ConfigError) as want:
            cfg.specs_from_config(REJECTED)
        assert out["rejected"] == str(want.value)
        want = run_single(cfg.specs_from_config(preset_config("test3", n=4))[0]).report
        assert out["report"] == json.loads(json.dumps(want.to_dict()))
