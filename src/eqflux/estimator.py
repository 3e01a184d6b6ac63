"""Defeaturing and numerical error estimators built on the equilibrated flux.

The defeaturing component measures the Neumann-data defect of the flux along
feature boundaries through a scaled mean/fluctuation norm; the numerical
component is the distance between the flux and the numerical gradient.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .fem import ScalarField
from .flux import _CONST_REF, _R, FluxField, flux_normal_trace
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


def c_omega(measure: float) -> float:
    """Scaling constant of the mean-defect term on a curve of this length."""
    if measure <= 0:
        raise ValueError("measure must be positive")
    return math.sqrt(max(-math.log(measure), ZETA))


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


def defect_on_gamma(flux: FluxField, q: CurveQuadrature, g_values) -> DefectSamples:
    """Defect ``sigma·n + g`` between the flux normal trace and the Neumann
    datum at the curve nodes, ``n`` being the curve normals ``q.normals``.

    A datum posed against the opposite normal enters with its sign flipped.
    """
    tr = flux_normal_trace(flux, q)
    g = np.asarray(g_values, dtype=float)
    if g.shape != tr.shape:
        raise ValueError("g_values must match the quadrature nodes")
    return DefectSamples(q, tr + g)


def eta_curve_parts(ds: DefectSamples):
    """(fluctuation, mean) parts of the curve estimator; eta² is their sum
    of squares."""
    w = ds.quadrature.weights
    L = float(w.sum())
    mean = float(np.sum(w * ds.values)) / L
    fluct2 = float(np.sum(w * (ds.values - mean) ** 2))
    c = c_omega(L)
    part_fluct = math.sqrt(L * fluct2)
    part_mean = math.sqrt(c * c * L ** 2.0 * mean * mean)
    return part_fluct, part_mean


def eta_curve(ds: DefectSamples) -> float:
    """Curve estimator: scaled fluctuation plus scaled mean of the defect."""
    pf, pm = eta_curve_parts(ds)
    return math.hypot(pf, pm)


def eta_zero(flux: FluxField, u_h: ScalarField) -> float:
    """Numerical-component estimator: the energy mismatch ‖sigma + grad u‖,
    as ``Σ_K Σ_p G_p d̂_Kᵀ R_p d̂_K`` with the reference RT DOFs ``d̂_K`` of
    sigma + grad u on K and its metric ``G`` (:class:`~eqflux.flux.RTSpace`)."""
    sp = flux.space
    mesh = sp.mesh
    if u_h.mesh is not mesh:
        raise ValueError("flux and field live on different meshes")
    # The constant g = grad u|_K is the Piola image of ĝ = 2|K| J⁻¹ g.
    g, J_inv = u_h.gradients(), mesh.lam_grads[:, 1:]
    a = mesh.areas[:, None] * (J_inv[:, :, 0] * g[:, :1] + J_inv[:, :, 1] * g[:, 1:])
    d = flux.reference_dofs() + a @ _CONST_REF
    val = np.sum(sum(sp.metric[:, p, None] * (d @ _R[p]) for p in range(3)) * d)
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
    eta_gamma: float = 0.0  # the features' combined defeaturing estimator
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
        """The report's fields as plain data; each feature is keyed by its id, as text."""
        d = asdict(self)
        for c in d["per_feature"].values():
            del c["feature_id"]
        d["per_feature"] = {str(fid): c for fid, c in d["per_feature"].items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorReport":
        """Inverse of :meth:`to_dict`; unknown keys are ignored at both levels."""
        feats = {int(fid): _from_fields(FeatureEstimate, c, feature_id=int(fid))
                 for fid, c in d.get("per_feature", {}).items()}
        constants = _from_fields(EstimatorConstants, d.get("constants", {}))
        return _from_fields(cls, d, per_feature=feats, constants=constants)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EstimatorReport":
        return cls.from_dict(json.loads(text))


def _from_fields(cls, d: dict, **given):
    """``cls`` built from the entries of ``d`` that name its fields, and ``given``."""
    return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d} | given)
