r"""Pure Gaussian states and Gaussian transformations on phase space.

A zero-displacement pure Gaussian state is labelled by its complex
structure J, a real 2N x 2N matrix with J^2 = -1.  For bosons
J = -sigma . Omega_N^{-1} = sigma . Omega_N, from the covariance sigma and
the standard form Omega_N, a read-only constant built once per N.  A
fermion state has sigma = 1, so J = Omega . sigma^{-1} is its own form
Omega, the only form that goes through the SymplecticForm checks.

States carry an additional displacement vector z (identically zero for
fermions).  Gaussian transformations are pairs (v, M) acting as
J -> M J M^{-1}, z -> M z + v, with M symplectic for bosons and special
orthogonal for fermions.  All matrices use the quadrature ordering
(Q^1, P_1, ..., Q^N, P_N), in which the standard Omega and J_R are
block-diagonal with 2x2 blocks [[0, 1], [-1, 0]].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DisplacementPresent,
    GroupViolation,
    KindMismatch,
    NonFinite,
    NotPure,
    SchemaError,
    SingularInput,
)

DEFAULT_TOL = 1e-10


class StateKind(enum.Enum):
    BOSON = "boson"
    FERMION = "fermion"


def _as_matrix(a, name):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[0] % 2 != 0 or m.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be 2N x 2N with N >= 1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{name} contains non-finite entries")
    return m


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _rel(num, scale):
    """Residual norm relative to a characteristic scale."""
    return np.linalg.norm(num) / (1.0 + scale)


@dataclass(frozen=True)
class SymplecticForm:
    """Antisymmetric form Omega with |det Omega| = 1, checked on outside input."""

    omega: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        m = _as_matrix(self.omega, "omega")
        if _rel(m + m.T, np.linalg.norm(m)) > self.tol:
            raise GroupViolation("omega is not antisymmetric")
        if abs(abs(np.linalg.det(m)) - 1.0) > 1e-8:
            raise GroupViolation("omega must have |det| = 1 in the standard basis")
        object.__setattr__(self, "omega", _freeze(m))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive-definite covariance sigma (hbar = 1)."""

    sigma: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.sigma, "sigma")
        if _rel(m - m.T, np.linalg.norm(m)) > DEFAULT_TOL:
            raise GroupViolation("sigma is not symmetric")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise SingularInput("sigma is not positive-definite") from exc
        object.__setattr__(self, "sigma", _freeze(m))

    @property
    def n_modes(self) -> int:
        return self.sigma.shape[0] // 2


@dataclass(frozen=True)
class ComplexStructure:
    """Complex structure J with the purity invariant J^2 = -1."""

    j: np.ndarray
    kind: StateKind
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        m = _as_matrix(self.j, "j")
        eye = np.eye(m.shape[0])
        resid = _rel(m @ m + eye, np.linalg.norm(m) ** 2)
        if resid > self.tol:
            raise NotPure(
                f"J^2 != -1 (relative residual {resid:.3e}); "
                "mixed states are out of scope"
            )
        object.__setattr__(self, "j", _freeze(m))

    @property
    def n_modes(self) -> int:
        return self.j.shape[0] // 2


@dataclass(frozen=True)
class GaussianState:
    """Pure Gaussian state (J, z); z is forced to zero for fermions."""

    j: ComplexStructure
    z: np.ndarray = None

    def __post_init__(self):
        d = self.j.j.shape[0]
        z = np.zeros(d) if self.z is None else np.asarray(self.z, dtype=float)
        if z.shape != (d,):
            raise DimensionMismatch(f"z must have shape ({d},), got {z.shape}")
        if not np.all(np.isfinite(z)):
            raise NonFinite("z contains non-finite entries")
        if self.kind is StateKind.FERMION and np.any(z != 0.0):
            raise DisplacementPresent("fermion states carry no displacement")
        object.__setattr__(self, "z", _freeze(z))

    @property
    def kind(self) -> StateKind:
        return self.j.kind

    @property
    def n_modes(self) -> int:
        return self.j.n_modes


@dataclass(frozen=True)
class GaussianTransformation:
    """Affine phase-space map (v, M) with M in Sp(2N, R) or SO(2N)."""

    v: np.ndarray
    m: np.ndarray
    kind: StateKind

    def __post_init__(self):
        m = _as_matrix(self.m, "m")
        d = m.shape[0]
        v = np.zeros(d) if self.v is None else np.asarray(self.v, dtype=float)
        if v.shape != (d,):
            raise DimensionMismatch(f"v must have shape ({d},), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFinite("v contains non-finite entries")
        scale = np.linalg.norm(m) ** 2
        if self.kind is StateKind.BOSON:
            om = standard_symplectic_form(d // 2)
            resid = _rel(m @ om @ m.T - om, scale)
            if resid > DEFAULT_TOL:
                raise GroupViolation(
                    f"m is not symplectic (relative residual {resid:.3e})"
                )
        else:
            resid = _rel(m @ m.T - np.eye(d), scale)
            if resid > DEFAULT_TOL:
                raise GroupViolation(
                    f"m is not orthogonal (relative residual {resid:.3e})"
                )
            if np.linalg.det(m) < 0.0:
                raise GroupViolation("m must have det = +1")
            if np.any(v != 0.0):
                raise DisplacementPresent("fermion transformations carry no displacement")
        object.__setattr__(self, "m", _freeze(m))
        object.__setattr__(self, "v", _freeze(v))

    @property
    def n_modes(self) -> int:
        return self.m.shape[0] // 2

    @property
    def inverse_m(self) -> np.ndarray:
        """Group inverse of m, computed without a linear solve."""
        return group_inverse(self.m, self.kind)


_STANDARD_FORMS = {}


def standard_symplectic_form(n_modes: int) -> np.ndarray:
    """Omega_N, N blocks [[0, 1], [-1, 0]] on the diagonal: one read-only array per N."""
    om = _STANDARD_FORMS.get(n_modes)
    if om is None:
        if n_modes < 1:
            raise DimensionMismatch("n_modes must be >= 1")
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        om = _STANDARD_FORMS[n_modes] = _freeze(np.kron(np.eye(n_modes), block))
    return om


def group_inverse(m: np.ndarray, kind: StateKind) -> np.ndarray:
    """Inverse of m, or of a stack of them: -Omega_N m^T Omega_N in Sp(2N, R), m^T in SO(2N)."""
    mt = np.swapaxes(m, -1, -2)
    if kind is StateKind.FERMION:
        return mt
    om = standard_symplectic_form(m.shape[-1] // 2)
    return -om @ mt @ om


def reference_state(kind: StateKind, n_modes: int) -> GaussianState:
    """Reference state with sigma_R = identity and z = 0.

    Its complex structure is the standard block-diagonal J_R = Omega_N,
    the same matrix for bosons and fermions in the standard basis.
    """
    return GaussianState(ComplexStructure(standard_symplectic_form(n_modes), kind))


def complex_structure_from_covariance(
    sigma: CovarianceMatrix, tol: float = DEFAULT_TOL
) -> ComplexStructure:
    """Boson J = -sigma.Omega_N^{-1} = sigma.Omega_N.

    Raises NotPure when J fails J^2 = -1, i.e. the covariance describes a
    mixed state; ``tol`` bounds that residual.
    """
    j = sigma.sigma @ standard_symplectic_form(sigma.n_modes)
    return ComplexStructure(j, StateKind.BOSON, tol)


def apply_transformation(
    state: GaussianState, t: GaussianTransformation
) -> GaussianState:
    """Return the transformed state (M J M^{-1}, M z + v)."""
    if state.kind is not t.kind:
        raise KindMismatch(f"state kind {state.kind} != transformation kind {t.kind}")
    if state.n_modes != t.n_modes:
        raise DimensionMismatch(
            f"state has {state.n_modes} modes, transformation {t.n_modes}"
        )
    j = t.m @ state.j.j @ t.inverse_m
    z = t.m @ state.z + t.v
    return GaussianState(ComplexStructure(j, state.kind), z)


def single_mode_squeezing(r: float, phi: float) -> GaussianTransformation:
    r"""Squeezing S(r, phi) = exp(r [[cos phi, sin phi], [sin phi, -cos phi]]).

    The generator squares to r^2 times the identity, so the exponential
    has the closed form cosh(r) 1 + sinh(r) g(phi).
    """
    if r < 0.0:
        raise ValueError("squeezing magnitude r must be nonnegative")
    g = np.array([[np.cos(phi), np.sin(phi)], [np.sin(phi), -np.cos(phi)]])
    m = np.cosh(r) * np.eye(2) + np.sinh(r) * g
    return GaussianTransformation(np.zeros(2), m, StateKind.BOSON)


def state_from_dict(data: dict, tol: float = DEFAULT_TOL) -> GaussianState:
    """Parse the JSON state schema into a GaussianState.

    Schema: {"kind": "boson"|"fermion", "n_modes": N, "sigma": [[...]],
    "z": [...]} with "z" optional and forbidden for fermions.  For
    bosons "sigma" is the symmetric covariance matrix; for fermions it
    is the antisymmetric state symplectic form (the covariance is fixed
    to the identity).  ``tol`` bounds the purity residual ||J^2 + 1|| and,
    for fermions, the antisymmetry residual of "sigma".
    """
    if not isinstance(data, dict):
        raise SchemaError("state file must contain a JSON object")
    for key in ("kind", "n_modes", "sigma"):
        if key not in data:
            raise SchemaError(f"missing required key '{key}'")
    unknown = set(data) - {"kind", "n_modes", "sigma", "z"}
    if unknown:
        raise SchemaError(f"unknown keys in state file: {sorted(unknown)}")
    try:
        kind = StateKind(data["kind"])
    except ValueError:
        raise SchemaError(f"kind must be 'boson' or 'fermion', got {data['kind']!r}")
    n = data["n_modes"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("n_modes must be a positive integer")
    try:
        sig = np.asarray(data["sigma"], dtype=float)
    except (TypeError, ValueError):
        raise SchemaError("sigma must be a numeric matrix")
    if sig.shape != (2 * n, 2 * n):
        raise SchemaError(f"sigma must be {2 * n} x {2 * n}, got {sig.shape}")
    if kind is StateKind.FERMION:
        if "z" in data:
            raise DisplacementPresent("fermion state files must not contain 'z'")
        # sigma = 1, so J = Omega sigma^{-1} is the state's own form
        return GaussianState(ComplexStructure(SymplecticForm(sig, tol).omega, kind, tol))
    j = complex_structure_from_covariance(CovarianceMatrix(sig), tol)
    z = data.get("z")
    if z is not None:
        try:
            z = np.asarray(z, dtype=float)
        except (TypeError, ValueError):
            raise SchemaError("z must be a numeric vector")
        if z.shape != (2 * n,):
            raise SchemaError(f"z must have length {2 * n}")
    return GaussianState(j, z)


def state_to_dict(state: GaussianState) -> dict:
    """Inverse of state_from_dict."""
    n = state.n_modes
    if state.kind is StateKind.FERMION:
        sig = state.j.j
        return {"kind": "fermion", "n_modes": n, "sigma": sig.tolist()}
    sig = -state.j.j @ standard_symplectic_form(n)
    out = {"kind": "boson", "n_modes": n, "sigma": sig.tolist()}
    if np.any(state.z != 0.0):
        out["z"] = state.z.tolist()
    return out


def covariance_of(state: GaussianState) -> np.ndarray:
    """Covariance matrix of a state: -J Omega for bosons, identity for fermions."""
    if state.kind is StateKind.FERMION:
        return np.eye(2 * state.n_modes)
    sig = -state.j.j @ standard_symplectic_form(state.n_modes)
    return 0.5 * (sig + sig.T)
