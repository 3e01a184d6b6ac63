"""JSON run configuration: validation, expression parsing and RunSpec building.

A config is one JSON document, checked here against the schema shipped in
``eqflux/schema``.  Scalar data and boundary predicates are expression strings
in ``x``/``y`` (Neumann data may also use the outward normal ``nx``/``ny``);
feature shapes may use the sweep parameter ``eps``.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import operator

import numpy as np

from . import estimator as est
from .geometry import DomainSpec, ExtensionSpec, FeatureSpec, rect_polygon, regular_polygon
from .mesh import read_mesh
from .run import ReferenceSpec, RunSpec


class ConfigError(ValueError):
    """Invalid run configuration."""


_EXPR_NAMES = {
    "pi": math.pi,
    "e": math.e,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "near": lambda a, b, tol=1e-9: np.abs(a - b) <= tol,
}


def _compile_expr(text, key, extra=()):
    """``text`` compiled for eval; errors name the config ``key``."""
    try:
        code = compile(text, "<config>", "eval")
    except (SyntaxError, ValueError) as exc:  # ValueError: a null byte
        raise ConfigError(f"{key}: cannot parse expression {text!r}: {exc}") from None
    for name in code.co_names:
        if name not in _EXPR_NAMES and name not in extra:
            raise ConfigError(f"{key}: unknown name {name!r} in expression {text!r}")
    return code


def scalar_expression(value, key="expression", normals=True):
    """Turn a config value into a data callable of (x, y[, nx, ny]).

    The callable is evaluated elementwise on coordinate arrays, so Python
    conditionals (``and``/``or``/``if``) fail there; they belong to predicates.
    Only data evaluated with normals (``normals``: Neumann data) may use
    ``nx``/``ny``; errors name the config ``key``.
    """
    if isinstance(value, (int, float)):
        if not math.isfinite(value):  # JSON NaN and Infinity parse as numbers
            raise ConfigError(f"{key}: {value} is not a finite number")
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected number or expression, got {value!r}")
    code = _compile_expr(value, key, extra=("x", "y", "nx", "ny"))
    if not normals and (used := [n for n in code.co_names if n in ("nx", "ny")]):
        raise ConfigError(f"{key}: unknown name {used[0]!r} in expression {value!r} "
                          "(only Neumann data may use the normal nx, ny)")
    if "nx" in code.co_names or "ny" in code.co_names:

        def fn(x, y, nx, ny):
            return eval(code, {"__builtins__": {}},
                        {**_EXPR_NAMES, "x": x, "y": y, "nx": nx, "ny": ny})

        return fn

    def fn(x, y):
        return eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, "x": x, "y": y})

    return fn


def predicate_expression(value):
    """Boundary classifier from an expression string ('all'/'none' shortcuts)."""
    if value is None or value == "all":
        return None
    if value == "none":
        return lambda x, y: False
    code = _compile_expr(value, "dirichlet", extra=("x", "y"))

    def fn(x, y):
        return bool(eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, "x": x, "y": y}))

    return fn


def _eval_param(value, params, key):
    """A shape value as a finite float; errors name the config ``key``."""
    if isinstance(value, (int, float)):
        return scalar_expression(value, key)
    code = _compile_expr(str(value), key, extra=tuple(params))
    try:
        with np.errstate(all="ignore"):
            x = float(eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, **params}))
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot evaluate {value!r}: {exc}") from None
    return scalar_expression(x, f"{key}: {value!r} gives")


def _shape_polygon(doc, params, owner):
    """The polygon of a feature or extension ``doc``: its ``polygon``, or its ``shape``'s;
    errors name the ``owner`` (the feature or extension) and key."""
    if "polygon" in doc:
        return np.asarray(doc["polygon"], dtype=float)
    shape = doc["shape"]
    kind = shape.get("type")
    if kind == "ngon":
        cx = _eval_param(shape["center"][0], params, f"{owner} center")
        cy = _eval_param(shape["center"][1], params, f"{owner} center")
        r = _eval_param(shape["radius"], params, f"{owner} radius")
        return regular_polygon((cx, cy), r, int(shape.get("sides", 16)))
    if kind == "rect":
        vals = [_eval_param(shape[k], params, f"{owner} {k}") for k in ("x0", "x1", "y0", "y1")]
        return rect_polygon(*vals)
    raise ConfigError(f"{owner}: unknown shape type {kind!r}")


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}
_BOUNDS = {"minimum": (operator.lt, "less than the minimum"),  # keyword: (fails, words)
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
           "maximum": (operator.gt, "greater than the maximum")}
_KEYWORDS = {"$schema", "title", "type", "enum", "properties", "required", "additionalProperties",
             "items", "minItems", "maxItems", "anyOf", "oneOf", "dependentRequired", *_BOUNDS}


@functools.cache
def _schema():
    """The shipped schema, loaded once; raises on a keyword that ``_errors`` does not check."""
    with importlib.resources.files("eqflux").joinpath("schema/runconfig.schema.json").open() as f:
        todo = [schema := json.load(f)]
    for sub in todo:  # todo grows while it is walked; additionalProperties is true or false
        if bad := sorted(set(sub) - _KEYWORDS) + [
                k for k in ["additionalProperties"] if sub.get(k, False) not in (False, True)]:
            raise ValueError(f"schema keywords {bad} are not checked by eqflux.config")
        todo += [*sub.get("properties", {}).values(), *sub.get("anyOf", []),
                 *sub.get("oneOf", []), *([sub["items"]] if "items" in sub else [])]
    return schema


def _errors(schema, value, path=()):
    """Errors of ``value`` in schema order: (path, keyword, message in the Python JSON Schema
    validator 4.26's words, context: failed anyOf/oneOf branches' errors, typed: value has type)."""
    kinds = [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", [])
    num = type(value) in (int, float)  # JSON Schema 2020-12: 4.0 is an integer, True no number
    typed = any(num and (kind == "number" or value % 1 == 0) if kind in ("number", "integer")
                else isinstance(value, _TYPES[kind]) for kind in kinds)
    for key, rule in schema.items():
        err = lambda msg, context=(): (path, key, msg, context, typed)
        if key == "type" and not typed:
            yield err(f"{value!r} is not of type {', '.join(map(repr, kinds))}")
        elif key == "enum" and (value, num) not in [(e, type(e) in (int, float)) for e in rule]:
            yield err(f"{value!r} is not one of {rule!r}")
        elif key == "properties" and isinstance(value, dict):
            for k in (k for k in rule if k in value):
                yield from _errors(rule[k], value[k], (*path, k))
        elif key == "items" and isinstance(value, list):
            yield from (e for i, item in enumerate(value) for e in _errors(rule, item, (*path, i)))
        elif key == "required" and isinstance(value, dict):
            yield from (err(f"{k!r} is a required property") for k in rule if k not in value)
        elif key == "additionalProperties" and isinstance(value, dict) and rule is False and (
                extras := sorted(value.keys() - schema.get("properties", {}).keys(), key=str)):
            yield err(f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
                      f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key == "minItems" and isinstance(value, list) and len(value) < rule:
            yield err(f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}")
        elif key == "maxItems" and isinstance(value, list) and len(value) > rule:
            yield err(f"{value!r} {'is expected to be empty' if rule == 0 else 'is too long'}")
        elif key in _BOUNDS and num and _BOUNDS[key][0](value, rule):
            yield err(f"{value!r} is {_BOUNDS[key][1]} of {rule!r}")
        elif key == "dependentRequired" and isinstance(value, dict):
            yield from (err(f"{each!r} is a dependency of {k!r}") for k, deps in rule.items()
                        if k in value for each in deps if each not in value)
        elif key in ("anyOf", "oneOf"):
            found = [list(_errors(sub, value, path)) for sub in rule]
            valid = [sub for sub, errs in zip(rule, found) if not errs]
            if not valid:
                yield err(f"{value!r} is not valid under any of the given schemas", sum(found, []))
            elif key == "oneOf" and len(valid) > 1:  # the first valid branch is named last
                reprs = ", ".join(map(repr, valid[1:] + valid[:1]))
                yield err(f"{value!r} is valid under each of {reprs}")


def validate_config(doc: dict):
    """Raise ConfigError with the error that ``best_match`` picks: the one of largest ``rank``
    (the validator's relevance), then down anyOf/oneOf contexts while their least is unique."""
    rank = lambda err: (-len(err[0]), err[0], err[1] not in ("anyOf", "oneOf"), not err[4])
    best = max(_errors(_schema(), doc), key=rank, default=None)
    while best and (ctx := sorted(best[3], key=rank)) and (
            len(ctx) == 1 or rank(ctx[0]) != rank(ctx[1])):
        best = ctx[0]
    if best:
        raise ConfigError(f"config does not match the schema: {best[2]}")


def _build_feature(fdoc: dict, params: dict) -> FeatureSpec:
    polygon = _shape_polygon(fdoc, params, owner := f"feature {fdoc['id']}")
    ext = None
    if "extension" in fdoc:
        edoc = fdoc["extension"]
        ext = ExtensionSpec(_shape_polygon(edoc, params, f"{owner} extension"),
                            scalar_expression(edoc.get("g_tilde", 0.0), "g_tilde"))
    return FeatureSpec(
        id=int(fdoc["id"]),
        kind=fdoc["kind"],
        polygon=polygon,
        neumann_g=scalar_expression(fdoc.get("g", 0.0), "g"),
        neumann_g0=scalar_expression(fdoc.get("g0", 0.0), "g0"),
        extension=ext,
    )


def _build_spec(doc: dict, mesh, n: int | None, eps: float | None, run_id: str) -> RunSpec:
    params = {"eps": eps} if eps is not None else {}
    features = [_build_feature(fd, params) for fd in doc.get("features", [])]
    include = [bool(fd.get("include", False)) for fd in doc.get("features", [])]
    domain = DomainSpec(
        base="unit_square",
        features=features,
        dirichlet=predicate_expression(doc.get("dirichlet", "all")),
        f=scalar_expression(doc.get("f", 0.0), "f", normals=False),
        g_dirichlet=scalar_expression(doc.get("g_dirichlet", 0.0), "g_dirichlet", normals=False),
        g_neumann=scalar_expression(doc.get("g_neumann", 0.0), "g_neumann"),
    )
    if mesh is not None:
        domain.base = mesh
    ref = None
    if doc.get("reference") is not None:
        r = doc["reference"]
        ref = ReferenceSpec(
            levels=int(r.get("levels", 2)),
            per_row=bool(r.get("per_row", False)),
            n=r.get("n"),
            mesh_path=r.get("mesh"),
            field_path=r.get("field"),
        )
        if ref.levels == 0 and ref.mesh_path is None and ref.n in (None, n) and all(include):
            raise ConfigError("reference.levels: 0 makes the reference the computed solution "
                              "itself, with zero error; refine it or give a finer reference.n")
    consts = est.EstimatorConstants(**doc.get("constants", {}))
    return RunSpec(
        domain=domain,
        include=include,
        n=n,
        mesh=mesh,
        constants=consts,
        reference=ref,
        gauss_order=int(doc.get("gauss_order", 4)),
        solver_tol=float(doc.get("solver_tol", 1e-12)),
        eps=[eps] if eps is not None else [],
        run_id=run_id,
    )


def specs_from_config(doc: dict) -> list[RunSpec]:
    """Expand a validated config document into one RunSpec per sweep point."""
    validate_config(doc)
    base_n = doc["mesh"].get("builtin")
    base_eps = doc.get("eps")
    prefix = doc.get("run_id", "run")
    study = doc.get("study", {"type": "none"})
    kind = study.get("type", "none")  # the schema admits none, h_sweep and eps_sweep
    if kind == "h_sweep" and "external" in doc["mesh"]:
        raise ConfigError("h_sweep needs a builtin mesh: an external mesh has no n to vary")
    mesh = read_mesh(doc["mesh"]["external"]) if "external" in doc["mesh"] else None
    if kind == "none":
        return [_build_spec(doc, mesh, base_n, base_eps, f"{prefix}-000")]
    key = "n" if kind == "h_sweep" else "eps"
    if not study.get(key):
        raise ConfigError(f"{kind} needs a list of {key} values")
    points = [(v, base_eps) if key == "n" else (base_n, v) for v in study[key]]
    return [_build_spec(doc, mesh, n, eps, f"{prefix}-{k:03d}")
            for k, (n, eps) in enumerate(points)]


def load_config(path) -> dict:
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
