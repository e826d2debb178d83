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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DisplacementPresent, KindMismatch
from .lie_numerics import SpdPencil, log_special_orthogonal, matrix_exp, spd_pencil
from .phase_space import (
    GaussianState,
    GaussianTransformation,
    StateKind,
    covariance_of,
)


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
