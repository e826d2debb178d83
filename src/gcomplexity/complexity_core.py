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

from .errors import (
    BranchCut,
    DimensionMismatch,
    DisplacementPresent,
    KindMismatch,
    NumericDomainError,
)
from .lie_numerics import (
    NOT_A_PURE_PAIR,
    SpdPencil,
    log_special_orthogonal,
    matrix_exp,
    spd_pencil_stack,
)
from .phase_space import (
    GaussianState,
    GaussianTransformation,
    StateKind,
    boson_covariance,
    covariance_of,
)


@dataclass(frozen=True)
class RelativeComplexStructure:
    """Delta = J_T J_R^{-1} with its cached principal logarithm.

    ``radial_exponents`` holds the nonnegative half of the log-spectrum
    (log-eigenvalues for bosons, rotation angles for fermions), length
    N, sorted descending.  For bosons ``pencil`` keeps the one
    eigen-decomposition every other function of Delta is read from; it
    is None for fermions.  For a stack of targets every array carries a
    leading axis, and ``rel[i]`` is target i.
    """

    delta: np.ndarray
    log_delta: np.ndarray
    radial_exponents: np.ndarray
    kind: StateKind
    pencil: SpdPencil = None

    @property
    def n_modes(self) -> int:
        return self.delta.shape[-1] // 2

    def __getitem__(self, i: int) -> "RelativeComplexStructure":
        """Target i of a stack."""
        pencil = None if self.pencil is None else self.pencil[i]
        return RelativeComplexStructure(
            self.delta[i], self.log_delta[i], self.radial_exponents[i], self.kind, pencil
        )


def _check_pair(reference: GaussianState, kind: StateKind, n_modes: int):
    if reference.kind is not kind:
        raise KindMismatch(f"reference kind {reference.kind} != target kind {kind}")
    if reference.n_modes != n_modes:
        raise DimensionMismatch(
            f"reference has {reference.n_modes} modes, target {n_modes}"
        )


def relative_stack(reference: GaussianState, kind: StateKind, j_targets: np.ndarray):
    """Delta = J_T J_R^{-1} and its principal log for a stack (B, 2N, 2N) of J_T.

    Returns (rel, errors): rel is a RelativeComplexStructure over the
    stack, and errors[i] is the NumericDomainError of target i or None;
    the rows of a failed target are not meaningful.  For bosons Delta
    equals sigma_T sigma_R^{-1} and the whole stack is decomposed through
    one SPD pencil (one whitening of sigma_R, one stacked eigh); a
    target whose whitened covariance is not positive-definite fails.
    For fermions Delta is special orthogonal and each log comes from its
    real Schur form, which fails with BranchCut when a rotation angle
    reaches pi.  Raises what holds for the whole stack: KindMismatch or
    DimensionMismatch against the reference, or a sigma_R that is not
    positive-definite.
    """
    b, d = j_targets.shape[:2]
    _check_pair(reference, kind, d // 2)
    delta = j_targets @ (-reference.j.j)
    errors = [None] * b
    if kind is StateKind.FERMION:
        log_delta = np.zeros_like(delta)
        angles = np.zeros((b, d // 2))
        for i in range(b):
            try:
                log_delta[i], angles[i] = log_special_orthogonal(delta[i])
            except BranchCut as exc:
                errors[i] = exc
        return RelativeComplexStructure(delta, log_delta, angles, kind), errors
    pencil, positive = spd_pencil_stack(boson_covariance(j_targets), covariance_of(reference))
    for i in np.flatnonzero(~positive):
        errors[i] = NumericDomainError(NOT_A_PURE_PAIR)
    rel = RelativeComplexStructure(
        delta, pencil.apply(lambda s: s), pencil.radial_exponents, kind, pencil
    )
    return rel, errors


def relative_complex_structure(
    reference: GaussianState, target: GaussianState
) -> RelativeComplexStructure:
    """Build Delta = J_T J_R^{-1} with its principal log: relative_stack for one target."""
    rel, errors = relative_stack(reference, target.kind, target.j.j[None])
    if errors[0] is not None:
        raise errors[0]
    return rel[0]


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


def complexity_from_relative(rel: RelativeComplexStructure):
    """Complexity from cached radial exponents: C = 1/2 ||exponents||_2.

    A float for one target, an array for a stack.
    """
    r = rel.radial_exponents
    c = 0.5 * np.sqrt(np.vecdot(r, r))
    return float(c) if r.ndim == 1 else c


def geodesic_point(
    delta: RelativeComplexStructure, tau: float
) -> GaussianTransformation:
    """Point M(tau) = e^{tau log(Delta)/2} on the optimal circuit."""
    m = matrix_exp(0.5 * tau * delta.log_delta)
    d = m.shape[0]
    return GaussianTransformation(np.zeros(d), m, delta.kind)
