r"""Closed-form complexity and geodesics for the right-invariant metric.

The relative complex structure Delta = J_T J_R^{-1} generates the
optimal circuit: the geodesic from the reference to the target is
M(tau) = e^{tau log(Delta)/2} and the state complexity is

    C = (1 / (2 sqrt 2)) sqrt(Tr[(log Delta) sigma_R (log Delta)^T sigma_R^{-1}]),

with sigma_R the covariance of the reference itself.  Delta is held as
its pencil (lie_numerics.SpdPencil), for either kind: for bosons it
whitens by H = sigma_R^{1/2}, where the weighted trace is the squared
Frobenius norm of H^{-1} log(Delta) H, and no other module handles
sigma_R; for fermions sigma_R = 1 and it diagonalizes the Cayley
transform of Delta.  The log-spectrum of a pure-state pair comes in
+- pairs (s, -s for bosons, i theta, -i theta for fermions), so the
trace equals twice the sum of squares over its nonnegative half; the
complexity is evaluated from that half, which is numerically exact even
at strong squeezing and at tiny angles.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, DisplacementPresent, KindMismatch
from .lie_numerics import SpdPencil, rotation_pencil_stack, spd_pencil_stack
from .phase_space import GaussianState, StateKind, StateStack, _require_instance


def _check_pair(reference: GaussianState, kind: StateKind, n_modes: int):
    """The checks every pencil makes of its reference: a state with zero z, then kind and N."""
    if np.any(_require_instance("reference", reference, GaussianState).z != 0.0):
        raise DisplacementPresent("reference displacement must be zero")
    if reference.kind is not kind:
        raise KindMismatch(f"reference kind {reference.kind} != target kind {kind}")
    if reference.n_modes != n_modes:
        raise DimensionMismatch(
            f"reference has {reference.n_modes} modes, target {n_modes}"
        )


def relative_stack(reference: GaussianState, kind: StateKind, targets: StateStack) -> SpdPencil:
    """Delta = J_T J_R^{-1} for the carrier's checked target rows, as one pencil.

    The rows are what GaussianState.sigma and state_stack's carrier
    hold: sigma_T for bosons, J_T for fermions.  Returns the SpdPencil
    of the rows that pass, decomposed with one stacked eigh; a target
    that fails leaves ``targets`` with its error (StateStack.require).
    For bosons Delta equals sigma_T sigma_R^{-1} and the pencil whitens
    sigma_R once; a target whose whitened covariance is not
    positive-definite fails with NumericDomainError.  For fermions Delta
    is special orthogonal and the pencil diagonalizes its Cayley
    transform, one stacked solve and one eigh; a target fails with
    BranchCut when that spectrum puts a rotation angle within
    BRANCH_CUT_MARGIN of pi, or when Delta has an exact eigenvalue -1.
    Raises what holds for the whole stack: a reference that is not a
    GaussianState (ValidationError), DisplacementPresent for a displaced
    reference, KindMismatch or DimensionMismatch against the reference,
    or a sigma_R that is not positive-definite.
    """
    _check_pair(reference, kind, targets.sigma.shape[-1] // 2)
    if kind is StateKind.FERMION:
        return rotation_pencil_stack(targets, reference.j)
    return spd_pencil_stack(targets, reference.sigma)


def relative_complex_structure(reference: GaussianState, target: GaussianState) -> SpdPencil:
    """The pencil of Delta = J_T J_R^{-1} for one target: relative_stack's one-row case."""
    targets = StateStack(_require_instance("target", target, GaussianState).sigma[None])
    pencil = relative_stack(reference, target.kind, targets)
    if targets.errors[0] is not None:
        raise targets.errors[0]
    return pencil[0]


def state_complexity(reference: GaussianState, target: GaussianState) -> float:
    r"""Closed-form complexity C = (1/(2 sqrt 2)) sqrt(Tr |log Delta|^2).

    Both states must have zero displacement; displaced targets are
    handled by the coherent module.  The metric is g_1 at the covariance
    of the reference, the inner product the geodesic formula is derived in.
    """
    if np.any(_require_instance("target", target, GaussianState).z != 0.0):
        raise DisplacementPresent(
            "state_complexity requires zero displacements; use the coherent "
            "module for displaced targets"
        )
    return complexity_from_relative(relative_complex_structure(reference, target))


def complexity_from_relative(pencil: SpdPencil):
    """Complexity from the radial exponents: C = 1/2 ||exponents||_2.

    A float for one target, an array for a stack.
    """
    r = _require_instance("pencil", pencil, SpdPencil).radial_exponents
    c = 0.5 * np.sqrt(np.vecdot(r, r))
    return float(c) if r.ndim == 1 else c
