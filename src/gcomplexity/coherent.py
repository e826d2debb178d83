r"""Complexity and circuits for displaced bosonic targets.

For a target (J_T, z_T) the one-parameter affine circuit is

    M(tau) = e^{tau log(Delta)/2},
    z(tau) = (M(tau) - 1)(M(1) - 1)^{-1} z_T,

and with N = log(Delta)(sqrt(Delta) - 1)^{-1} and G = N^T sigma_R^{-1} N
= (H^{-1} N)^T (H^{-1} N), H = sigma_R^{1/2} the pencil's whitening,
its g_1 length is

    C = 1/2 sqrt(Tr|log Delta|^2 / 2 + z_T^T G z_T).

C is the distance when z_T = 0.  For a displaced target it is an upper
bound on the g_1 distance, and a strict one in general: from the vacuum
to z_T = (Z, 0) with Z > 2, squeezing by e^{-rQ}, displacing by Z e^{-r}
along q and un-squeezing by e^{rQ} (Q = diag(1, -1), r = ln(Z/2)) costs
2 + 2 ln(Z/2) < C = Z.

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

from .complexity_core import relative_complex_structure
from .errors import KindMismatch, NumericDomainError
from .lie_numerics import SpdPencil
from .phase_space import GaussianState, StateKind, _require_instance


@dataclass(frozen=True, eq=False)
class CoherentGeodesic:
    """Geodesic data for a displaced bosonic target; ``delta`` is the pencil of Delta."""

    delta: SpdPencil
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
    _require_instance("reference", reference, GaussianState)
    _require_instance("target", target, GaussianState)
    if reference.kind is not StateKind.BOSON or target.kind is not StateKind.BOSON:
        raise KindMismatch("coherent geodesics are defined for bosons only")
    pencil = relative_complex_structure(reference, target)
    z_t = np.asarray(target.z, dtype=float)
    n_matrix = pencil.apply(_n_of_log_spectrum)
    white_n = pencil.inv_half @ n_matrix
    g_form = white_n.T @ white_n
    g_form = 0.5 * (g_form + g_form.T)
    return CoherentGeodesic(pencil, n_matrix, z_t, g_form)


def coherent_complexity(geo: CoherentGeodesic) -> float:
    r"""C = 1/2 sqrt(Tr|log Delta|^2 / 2 + G(z_T, z_T)), the one-parameter circuit's length.

    The g_1 length of the affine circuit e^{tau [[log(Delta)/2, N z_T/2],
    [0, 0]]}: the distance when z_T = 0, an upper bound on it otherwise.
    Raises NumericDomainError when C overflows (a huge but finite z_T).
    """
    s = _require_instance("geo", geo, CoherentGeodesic).delta.radial_exponents
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float(geo.z_target @ geo.g_form @ geo.z_target)
        c = 0.5 * float(np.sqrt(np.sum(s * s) + max(quad, 0.0)))
    if not np.isfinite(c):
        raise NumericDomainError("coherent complexity overflows: displacement too large")
    return c
