r"""Complexity and optimal circuits for displaced bosonic targets.

For a target (J_T, z_T) the optimal circuit is

    M(tau) = e^{tau log(Delta)/2},
    z(tau) = (M(tau) - 1)(M(1) - 1)^{-1} z_T,

and with N = log(Delta)(sqrt(Delta) - 1)^{-1} and G = N^T sigma_R^{-1} N
= (H^{-1} N)^T (H^{-1} N), H = sigma_R^{1/2} the pencil's whitening,
the state complexity is

    C = 1/2 sqrt(Tr|log Delta|^2 / 2 + z_T^T G z_T).

N is the function f(x) = log x / (sqrt x - 1) of Delta.  It is read off
the pencil decomposition of Delta as f = 2y / expm1(y) with y = s/2 on
the log-spectrum s.  That form is analytic at y = 0 with value 2, so N
is finite wherever Delta has an eigenvalue at 1, and N = 2 times the
identity when Delta = 1.  The point (M(tau), z(tau)) is one exponential
of the affine generator [[log(Delta)/2, N z_T/2], [0, 0]]; at Delta = 1
it is the straight line z(tau) = tau z_T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexity_core import RelativeComplexStructure, relative_complex_structure
from .errors import DisplacementPresent, KindMismatch, NumericDomainError
from .lie_numerics import matrix_exp
from .phase_space import GaussianState, GaussianTransformation, StateKind


@dataclass(frozen=True)
class CoherentGeodesic:
    """Geodesic data for a displaced bosonic target."""

    delta: RelativeComplexStructure
    n_matrix: np.ndarray
    z_target: np.ndarray
    g_form: np.ndarray


def _n_of_log_spectrum(s: np.ndarray) -> np.ndarray:
    """log x / (sqrt x - 1) at x = e^s, as 2y / expm1(y) with y = s/2 (2 at y = 0)."""
    y = 0.5 * s
    safe = np.where(y == 0.0, 1.0, y)
    return np.where(y == 0.0, 2.0, 2.0 * safe / np.expm1(safe))


def coherent_geodesic(reference: GaussianState, target: GaussianState) -> CoherentGeodesic:
    """Build Delta, N and G for a (possibly displaced) bosonic target."""
    if reference.kind is not StateKind.BOSON or target.kind is not StateKind.BOSON:
        raise KindMismatch("coherent geodesics are defined for bosons only")
    if np.any(reference.z != 0.0):
        raise DisplacementPresent("reference displacement must be zero")
    rel = relative_complex_structure(reference, target)
    z_t = np.asarray(target.z, dtype=float)
    n_matrix = rel.pencil.apply(_n_of_log_spectrum)
    white_n = rel.pencil.whiten(n_matrix)
    g_form = white_n.T @ white_n
    g_form = 0.5 * (g_form + g_form.T)
    return CoherentGeodesic(rel, n_matrix, z_t, g_form)


def coherent_complexity(geo: CoherentGeodesic) -> float:
    r"""C = 1/2 sqrt(Tr|log Delta|^2 / 2 + G(z_T, z_T)).

    Raises NumericDomainError when C overflows (a huge but finite z_T).
    """
    s = geo.delta.radial_exponents
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float(geo.z_target @ geo.g_form @ geo.z_target)
        c = 0.5 * float(np.sqrt(np.sum(s * s) + max(quad, 0.0)))
    if not np.isfinite(c):
        raise NumericDomainError("coherent complexity overflows: displacement too large")
    return c


def coherent_geodesic_point(geo: CoherentGeodesic, tau: float) -> GaussianTransformation:
    """Optimal circuit point (z(tau), M(tau)), one exponential of the affine generator.

    z(tau) solves x' = (log Delta / 2) x + N z_T / 2 from x(0) = 0, and
    M(tau) = e^{tau log(Delta)/2} is the linear part of that flow.
    """
    d = geo.z_target.shape[0]
    generator = np.zeros((d + 1, d + 1))
    generator[:d, :d] = 0.5 * geo.delta.log_delta
    generator[:d, d] = 0.5 * geo.n_matrix @ geo.z_target
    flow = matrix_exp(tau * generator)
    return GaussianTransformation(flow[:d, d], flow[:d, :d], StateKind.BOSON)
