r"""Closed-form complexity and geodesics for the right-invariant metric.

The relative complex structure Delta = J_T J_R^{-1} generates the
optimal circuit: the geodesic from the reference to the target is
M(tau) = e^{tau log(Delta)/2} and the state complexity is

    C = (1 / (2 sqrt 2)) sqrt(Tr[(log Delta) sigma_R (log Delta)^T sigma_R^{-1}]),

with sigma_R the covariance of the reference itself.  The SPD pencil
whitens by H = sigma_R^{1/2}, where the weighted trace is the squared
Frobenius norm of H^{-1} log(Delta) H; no other module handles sigma_R.
The eigenvalues of Delta come in reciprocal pairs for pure-state pairs,
so the trace equals twice the sum of squares over the nonnegative half
of the log-spectrum; the complexity is evaluated from that half, which
is numerically exact even at strong squeezing.

Also provides the standard Finsler cost-function evaluators F1, F1p,
F2, F2q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DisplacementPresent,
    KindMismatch,
    LengthMismatch,
    ValidationError,
)
from .lie_numerics import SpdPencil, log_special_orthogonal, matrix_exp, spd_pencil
from .phase_space import (
    GaussianState,
    GaussianTransformation,
    StateKind,
    covariance_of,
)

COMPLEXITY_PREFACTOR = 1.0 / (2.0 * np.sqrt(2.0))


@dataclass(frozen=True)
class RelativeComplexStructure:
    """Delta = J_T J_R^{-1} with its cached principal logarithm.

    ``radial_exponents`` holds the nonnegative half of the log-spectrum
    (log-eigenvalues for bosons, rotation angles for fermions), length
    N, sorted descending.  For bosons ``pencil`` keeps the one
    eigen-decomposition every other function of Delta is read from; it
    is None for fermions.
    """

    delta: np.ndarray
    log_delta: np.ndarray
    radial_exponents: np.ndarray
    kind: StateKind
    pencil: SpdPencil = None

    @property
    def n_modes(self) -> int:
        return self.delta.shape[0] // 2


@dataclass(frozen=True)
class CostFunctionSpec:
    """One of the standard cost functions F1, F1p, F2, F2q.

    ``weights`` are the penalties p_I (F1p) or weights q_I (F2q); they
    must be strictly positive and are ignored by F1 and F2.
    """

    variant: str
    weights: np.ndarray = None

    def __post_init__(self):
        if self.variant not in ("F1", "F1p", "F2", "F2q"):
            raise ValidationError(f"unknown cost function variant {self.variant!r}")
        if self.variant in ("F1p", "F2q"):
            if self.weights is None:
                raise ValidationError(f"{self.variant} requires weights")
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
                raise ValidationError("weights must be a vector of positive reals")
            object.__setattr__(self, "weights", w)


def _check_pair(reference: GaussianState, target: GaussianState):
    if reference.kind is not target.kind:
        raise KindMismatch(
            f"reference kind {reference.kind} != target kind {target.kind}"
        )
    if reference.n_modes != target.n_modes:
        raise DimensionMismatch(
            f"reference has {reference.n_modes} modes, target {target.n_modes}"
        )


def relative_complex_structure(
    reference: GaussianState, target: GaussianState
) -> RelativeComplexStructure:
    """Build Delta = J_T J_R^{-1} with its principal log.

    For bosons Delta equals sigma_T sigma_R^{-1} and is decomposed once
    through the SPD pencil, which is kept on the result; for fermions
    Delta is special orthogonal and the log comes from its real Schur
    form, which raises BranchCut when a rotation angle reaches pi.
    """
    _check_pair(reference, target)
    jr = reference.j.j
    jt = target.j.j
    delta = jt @ (-jr)
    if reference.kind is StateKind.FERMION:
        log_delta, exponents = log_special_orthogonal(delta)
        return RelativeComplexStructure(delta, log_delta, exponents, reference.kind)
    pencil = spd_pencil(covariance_of(target), covariance_of(reference))
    return RelativeComplexStructure(
        delta, pencil.apply(lambda s: s), pencil.radial_exponents, reference.kind, pencil
    )


def state_complexity(reference: GaussianState, target: GaussianState) -> float:
    r"""Closed-form complexity C = (1/(2 sqrt 2)) sqrt(Tr |log Delta|^2).

    Both states must have zero displacement; displaced targets are
    handled by the coherent module.  The metric is g_1 at the covariance
    of the reference, the inner product the geodesic formula is derived in.
    """
    if np.any(reference.z != 0.0) or np.any(target.z != 0.0):
        raise DisplacementPresent(
            "state_complexity requires zero displacements; use the coherent "
            "module for displaced targets"
        )
    return complexity_from_relative(relative_complex_structure(reference, target))


def complexity_from_relative(rel: RelativeComplexStructure) -> float:
    """Complexity from cached radial exponents: C = 1/2 ||exponents||_2."""
    return 0.5 * float(np.linalg.norm(rel.radial_exponents))


def geodesic_point(
    delta: RelativeComplexStructure, tau: float
) -> GaussianTransformation:
    """Point M(tau) = e^{tau log(Delta)/2} on the optimal circuit."""
    m = matrix_exp(0.5 * tau * delta.log_delta)
    d = m.shape[0]
    return GaussianTransformation(np.zeros(d), m, delta.kind)


def evaluate_cost_function(spec: CostFunctionSpec, y) -> float:
    """Evaluate F1, F1p, F2 or F2q on the component vector Y^I."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise LengthMismatch(f"y must be a vector, got shape {y.shape}")
    if spec.variant == "F1":
        return float(np.sum(np.abs(y)))
    if spec.variant == "F2":
        return float(np.sqrt(np.sum(y * y)))
    if spec.weights.shape != y.shape:
        raise LengthMismatch(
            f"weights length {spec.weights.shape[0]} != y length {y.shape[0]}"
        )
    if spec.variant == "F1p":
        return float(np.sum(spec.weights * np.abs(y)))
    return float(np.sqrt(np.sum(spec.weights * y * y)))
