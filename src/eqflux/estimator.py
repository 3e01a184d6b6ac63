"""Defeaturing and numerical error estimators built on the equilibrated flux.

The defeaturing component measures the Neumann-data defect of the flux along
feature boundaries through a scaled mean/fluctuation norm; the numerical
component is the distance between the flux and the numerical gradient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fem import TRI_QW, ScalarField, quad_points
from .flux import FluxField, flux_normal_trace
from .geometry import CurveQuadrature


def _solve_zeta() -> float:
    # Unique root of z = -log(z), by Newton on z + log z.
    z = 0.5
    for _ in range(100):
        step = (z + math.log(z)) / (1.0 + 1.0 / z)
        z -= step
        if abs(step) < 1e-16:
            break
    return z


ZETA = _solve_zeta()


def c_omega(measure: float, k: int = 1, d: int = 2) -> float:
    """Scaling constant of the mean-defect term.

    Only the curve-in-plane case (k=1, d=2) is supported; the surface case
    (k=2, d=3) is out of the implemented scope and rejected.
    """
    if measure <= 0:
        raise ValueError("measure must be positive")
    if (k, d) == (1, 2):
        return math.sqrt(max(-math.log(measure), ZETA))
    if (k, d) == (2, 3):
        raise NotImplementedError("the (k, d) = (2, 3) branch is out of scope (d = 2 only)")
    raise ValueError(f"unsupported (k, d) = ({k}, {d})")


@dataclass
class EstimatorConstants:
    """Weights of the defeaturing terms in the total estimator (default 1)."""

    C_D: float = 1.0
    C_D_tilde: float = 1.0
    alpha_D: float = 1.0

    def __post_init__(self):
        if min(self.C_D, self.C_D_tilde, self.alpha_D) <= 0:
            raise ValueError("estimator constants must be positive")


@dataclass
class DefectSamples:
    """Normal-trace defect sampled on a clipped feature curve."""

    quadrature: CurveQuadrature
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != len(self.quadrature.weights):
            raise ValueError("one defect value per quadrature node is required")
        if self.quadrature.length <= 0:
            raise ValueError("defect curve must have positive length")


def defect_on_gamma(
    flux: FluxField, q: CurveQuadrature, g_values, sign_convention: str = "negative"
) -> DefectSamples:
    """Defect between the flux normal trace and the Neumann datum on a curve.

    ``negative``:        g + sigma·n      (n outward of the exact domain)
    ``positive_gamma0``: sigma~·n_F − g0  (n_F outward of the feature)
    ``positive_gammaR``: sigma~·n_F + g
    """
    tr = flux_normal_trace(flux, q)
    g = np.asarray(g_values, dtype=float)
    if g.shape != tr.shape:
        raise ValueError("g_values must match the quadrature nodes")
    if sign_convention == "negative":
        vals = g + tr
    elif sign_convention == "positive_gamma0":
        vals = tr - g
    elif sign_convention == "positive_gammaR":
        vals = tr + g
    else:
        raise ValueError(f"unknown sign convention {sign_convention!r}")
    return DefectSamples(q, vals)


def eta_curve_parts(ds: DefectSamples, d: int = 2):
    """(fluctuation, mean) parts of the curve estimator; eta² is their sum
    of squares."""
    if d != 2:
        raise NotImplementedError("only d = 2 is implemented")
    w = ds.quadrature.weights
    L = float(w.sum())
    mean = float(np.sum(w * ds.values)) / L
    fluct2 = float(np.sum(w * (ds.values - mean) ** 2))
    c = c_omega(L, 1, d)
    part_fluct = math.sqrt(L ** (1.0 / (d - 1)) * fluct2)
    part_mean = math.sqrt(c * c * L ** (d / (d - 1.0)) * mean * mean)
    return part_fluct, part_mean


def eta_curve(ds: DefectSamples, d: int = 2) -> float:
    """Curve estimator: scaled fluctuation plus scaled mean of the defect."""
    pf, pm = eta_curve_parts(ds, d)
    return math.hypot(pf, pm)


def eta_zero(flux: FluxField, u_h: ScalarField) -> float:
    """Numerical-component estimator: the energy mismatch ‖sigma + grad u‖."""
    sp = flux.space
    mesh = sp.mesh
    if u_h.mesh is not mesh:
        raise ValueError("flux and field live on different meshes")
    pts = quad_points(mesh).reshape(-1, 2)
    tris = np.repeat(np.arange(mesh.n_triangles), len(TRI_QW))
    sig = flux.eval_at(pts, tris).reshape(mesh.n_triangles, len(TRI_QW), 2)
    g = u_h.gradients()[:, None, :]
    mis = sig + g
    val = np.einsum("t,q,tqc,tqc->", mesh.areas, TRI_QW, mis, mis)
    return float(np.sqrt(max(val, 0.0)))


@dataclass
class FeatureEstimate:
    """Estimator components attached to one (excluded) feature."""

    feature_id: int
    kind: str  # negative_internal | negative_boundary | positive
    eta_gamma: float | None = None
    eta_gamma0: float | None = None
    eta_gammaR: float | None = None
    eta_0_tilde: float | None = None
    has_extension: bool = False

    def gamma_contribution(self) -> float:
        """This feature's defeaturing contribution (root-sum-square member)."""
        if self.kind.startswith("negative"):
            if self.eta_gamma is None:
                raise ValueError(f"feature {self.feature_id}: missing eta_gamma")
            return self.eta_gamma
        if self.eta_gamma0 is None:
            raise ValueError(f"feature {self.feature_id}: missing eta_gamma0")
        if self.has_extension:
            if self.eta_gammaR is None:
                raise ValueError(f"feature {self.feature_id}: missing eta_gammaR")
            return math.hypot(self.eta_gamma0, self.eta_gammaR)
        return self.eta_gamma0


def aggregate_total(
    components: list, eta_0: float, consts: EstimatorConstants | None = None
):
    """Total estimator for the given feature configuration.

    Returns ``(eta_total, eta_gamma_combined, eta_0_tilde_combined)``.  The
    defeaturing contributions combine in root-sum-square and are weighted by
    C_D (single negative feature), alpha_D (several negative features) or
    C_D_tilde (any positive feature present); the numerical part combines
    eta_0 with the feature-side eta~_0 terms in root-sum-square.
    """
    consts = consts or EstimatorConstants()
    gamma2 = 0.0
    tilde02 = 0.0
    any_positive = False
    for comp in components:
        if comp.kind.startswith("negative"):
            if comp.eta_gamma0 is not None or comp.eta_0_tilde is not None:
                raise ValueError(
                    f"feature {comp.feature_id}: negative features carry eta_gamma only"
                )
        else:
            any_positive = True
            if comp.eta_0_tilde is None:
                raise ValueError(
                    f"feature {comp.feature_id}: positive features need eta_0_tilde"
                )
            tilde02 += comp.eta_0_tilde ** 2
        gamma2 += comp.gamma_contribution() ** 2
    eta_gamma_combined = math.sqrt(gamma2)
    eta_0_tilde_combined = math.sqrt(tilde02)
    if any_positive:
        weight = consts.C_D_tilde
    elif len(components) > 1:
        weight = consts.alpha_D
    else:
        weight = consts.C_D
    numerical = math.hypot(eta_0, eta_0_tilde_combined)
    total = weight * eta_gamma_combined + numerical
    return total, eta_gamma_combined, eta_0_tilde_combined


def effectivity(eta_total: float, error_energy: float) -> float:
    """Ratio of total estimator to the reference energy error."""
    if error_energy <= 0:
        raise ZeroDivisionError("error energy must be positive")
    return eta_total / error_energy


@dataclass
class EstimatorReport:
    """All estimator quantities of one run, serializable to JSON."""

    per_feature: dict = field(default_factory=dict)  # id -> FeatureEstimate
    eta_gamma_combined: float = 0.0
    eta_0: float = 0.0
    eta_0_tilde: float = 0.0
    eta_total: float = 0.0
    error_energy: float | None = None
    effectivity: float | None = None
    h: float | None = None
    n_dof: int | None = None
    eps: list = field(default_factory=list)
    constants: EstimatorConstants = field(default_factory=EstimatorConstants)
    run_id: str = "run-000"

    def to_dict(self) -> dict:
        feats = {}
        for fid, c in self.per_feature.items():
            feats[str(fid)] = {
                "kind": c.kind,
                "eta_gamma": c.eta_gamma,
                "eta_gamma0": c.eta_gamma0,
                "eta_gammaR": c.eta_gammaR,
                "eta_0_tilde": c.eta_0_tilde,
                "has_extension": c.has_extension,
            }
        return {
            "run_id": self.run_id,
            "h": self.h,
            "n_dof": self.n_dof,
            "eps": list(self.eps),
            "constants": {
                "C_D": self.constants.C_D,
                "C_D_tilde": self.constants.C_D_tilde,
                "alpha_D": self.constants.alpha_D,
            },
            "per_feature": feats,
            "eta_gamma": self.eta_gamma_combined,
            "eta_0": self.eta_0,
            "eta_0_tilde": self.eta_0_tilde,
            "eta_total": self.eta_total,
            "error_energy": self.error_energy,
            "effectivity": self.effectivity,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorReport":
        feats = {}
        for fid, c in d.get("per_feature", {}).items():
            feats[int(fid)] = FeatureEstimate(
                feature_id=int(fid),
                kind=c["kind"],
                eta_gamma=c.get("eta_gamma"),
                eta_gamma0=c.get("eta_gamma0"),
                eta_gammaR=c.get("eta_gammaR"),
                eta_0_tilde=c.get("eta_0_tilde"),
                has_extension=c.get("has_extension", False),
            )
        k = d.get("constants", {})
        return cls(
            per_feature=feats,
            eta_gamma_combined=d.get("eta_gamma", 0.0),
            eta_0=d.get("eta_0", 0.0),
            eta_0_tilde=d.get("eta_0_tilde", 0.0),
            eta_total=d.get("eta_total", 0.0),
            error_energy=d.get("error_energy"),
            effectivity=d.get("effectivity"),
            h=d.get("h"),
            n_dof=d.get("n_dof"),
            eps=list(d.get("eps", [])),
            constants=EstimatorConstants(
                k.get("C_D", 1.0), k.get("C_D_tilde", 1.0), k.get("alpha_D", 1.0)
            ),
            run_id=d.get("run_id", "run-000"),
        )

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text

    @classmethod
    def from_json(cls, text: str) -> "EstimatorReport":
        return cls.from_dict(json.loads(text))
