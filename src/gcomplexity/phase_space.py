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

The invariant checks run on stacks (B, 2N, 2N): state_stack validates
many states of one kind and N at once, and each class validates its one
matrix through the same checks.  A residual that overflows to inf or nan
fails its check.
"""

from __future__ import annotations

import enum
import itertools
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
    ValidationError,
)

DEFAULT_TOL = 1e-10

# Residuals of overflowing input come out inf or nan and fail their check
# (``not resid <= tol``), so the arithmetic that makes them stays quiet.
_QUIET = {"over": "ignore", "invalid": "ignore"}


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


def _frobenius(x):
    """Frobenius norm of each matrix of a stack, bit for bit np.linalg.norm of each."""
    flat = x.reshape(x.shape[0], x.shape[1] * x.shape[2])
    return np.sqrt(np.vecdot(flat, flat))


def _rel(num, scale):
    """Residual norm of each matrix of a stack relative to a characteristic scale."""
    return _frobenius(num) / (1.0 + scale)


class _Checked:
    """A stack of matrices checked invariant by invariant.

    An item leaves the stack at its first failed check; ``errors`` keeps
    that error at the item's input position and ``index`` the input
    positions of the items still in ``m``.
    """

    def __init__(self, m):
        self.m = m
        self.index = np.arange(len(m))
        self.errors = [None] * len(m)

    def require(self, ok, error):
        """Drop the items where ok is False; error(k) builds the exception of row k."""
        if not ok.all():
            for k in np.flatnonzero(~ok):
                self.errors[self.index[k]] = error(k)
            self.m, self.index = self.m[ok], self.index[ok]



def _check_one(m, check, *args):
    """Run a stack check on the one matrix m and raise its error, if any."""
    c = _Checked(m[None])
    with np.errstate(**_QUIET):
        check(c, *args)
    if c.errors[0] is not None:
        raise c.errors[0]


def _check_finite(c: _Checked, name: str):
    c.require(
        np.isfinite(c.m).all(axis=(1, 2)),
        lambda k: NonFinite(f"{name} contains non-finite entries"),
    )


def _check_covariance(c: _Checked):
    """sigma symmetric (at DEFAULT_TOL) and positive-definite."""
    m = c.m
    c.require(
        _rel(m - m.mT, _frobenius(m)) <= DEFAULT_TOL,
        lambda k: GroupViolation("sigma is not symmetric"),
    )
    c.require(_cholesky_succeeds(c.m), lambda k: SingularInput("sigma is not positive-definite"))


def _cholesky_succeeds(m) -> np.ndarray:
    """Per matrix of a stack: a stacked cholesky fails whole, so a failure is located one by one."""
    try:
        np.linalg.cholesky(m)
        return np.ones(len(m), dtype=bool)
    except np.linalg.LinAlgError:
        if len(m) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_cholesky_succeeds(x[None]) for x in m])


def _check_form(c: _Checked, tol: float):
    """Omega antisymmetric (at tol) with |det Omega| = 1."""
    m = c.m
    c.require(
        _rel(m + m.mT, _frobenius(m)) <= tol,
        lambda k: GroupViolation("omega is not antisymmetric"),
    )
    c.require(
        np.abs(np.abs(np.linalg.det(c.m)) - 1.0) <= 1e-8,
        lambda k: GroupViolation("omega must have |det| = 1 in the standard basis"),
    )


def _check_pure(c: _Checked, tol: float):
    """J^2 = -1 up to a relative residual tol."""
    j = c.m
    resid = _rel(j @ j + np.eye(j.shape[-1]), _frobenius(j) ** 2)
    c.require(
        resid <= tol,
        lambda k: NotPure(
            f"J^2 != -1 (relative residual {resid[k]:.3e}); mixed states are out of scope"
        ),
    )


@dataclass(frozen=True)
class SymplecticForm:
    """Antisymmetric form Omega with |det Omega| = 1, checked on outside input."""

    omega: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        m = _as_matrix(self.omega, "omega")
        _check_one(m, _check_form, self.tol)
        object.__setattr__(self, "omega", _freeze(m))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive-definite covariance sigma (hbar = 1)."""

    sigma: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.sigma, "sigma")
        _check_one(m, _check_covariance)
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
        _check_one(m, _check_pure, self.tol)
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
        with np.errstate(**_QUIET):
            scale = _frobenius(m[None]) ** 2
            if self.kind is StateKind.BOSON:
                om = standard_symplectic_form(d // 2)
                resid = _rel((m @ om @ m.T - om)[None], scale)[0]
            else:
                resid = _rel((m @ m.T - np.eye(d))[None], scale)[0]
        if not resid <= DEFAULT_TOL:
            group = "symplectic" if self.kind is StateKind.BOSON else "orthogonal"
            raise GroupViolation(f"m is not {group} (relative residual {resid:.3e})")
        if self.kind is StateKind.FERMION:
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


_NUMBERS = (int, float, np.integer, np.floating)


def _floats(value, not_numeric: str) -> np.ndarray:
    """value as a float array; SchemaError(not_numeric) unless every entry is a number.

    np.asarray(..., dtype=float) alone also takes strings, booleans and None.
    """
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(not_numeric)
    if isinstance(value, np.ndarray):
        types = {value.dtype.type}
    else:
        entries = [value] if a.ndim == 0 else value
        for _ in range(a.ndim - 1):
            entries = itertools.chain.from_iterable(entries)
        types = set(map(type, entries))
    if not all(issubclass(t, _NUMBERS) and not issubclass(t, bool) for t in types):
        raise SchemaError(not_numeric)
    return a


def parse_state_dict(data: dict):
    """Check the JSON state schema; return (kind, sigma, raw z or None).

    Schema: {"kind": "boson"|"fermion", "n_modes": N, "sigma": [[...]],
    "z": [...]} with "z" optional and forbidden for fermions.  The
    entries of "sigma" and "z" must be numbers.  For bosons "sigma" is
    the symmetric covariance matrix; for fermions it is the
    antisymmetric state symplectic form (the covariance is fixed to the
    identity).  "z" is parsed by state_stack, after the checks on sigma.
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
    d = 2 * n
    sig = _floats(data["sigma"], "sigma must be a numeric matrix")
    if sig.shape != (d, d):
        raise SchemaError(f"sigma must be {d} x {d}, got {sig.shape}")
    if kind is StateKind.FERMION and "z" in data:
        raise DisplacementPresent("fermion state files must not contain 'z'")
    return kind, sig, data.get("z")


def _displacement(raw, d: int) -> np.ndarray:
    z = _floats(raw, "z must be a numeric vector")
    if z.shape != (d,):
        raise SchemaError(f"z must have length {d}")
    if not np.all(np.isfinite(z)):
        raise NonFinite("z contains non-finite entries")
    return z


@dataclass(frozen=True)
class StateStack:
    """States of one kind and N validated together.

    ``errors[i]`` is the first ValidationError of input i, in the order
    state_from_dict raises them, or None.  ``index`` lists the inputs
    that passed, and ``j`` (len(index), 2N, 2N) and ``z`` (len(index),
    2N) hold their complex structures and displacements.
    """

    kind: StateKind
    index: np.ndarray
    j: np.ndarray
    z: np.ndarray
    errors: list


def state_stack(kind: StateKind, sigmas: np.ndarray, zs, tol: float = DEFAULT_TOL) -> StateStack:
    """Validate a stack (B, 2N, 2N) of schema-checked "sigma" entries of one kind.

    Every check runs once on the stack: finiteness, symmetry and
    positive-definiteness of a boson covariance, antisymmetry and
    |det| = 1 of a fermion form, purity J^2 = -1 (``tol`` bounds that
    residual and the fermion antisymmetry), then each boson's raw z
    from ``zs`` (None for none).
    """
    b, d = sigmas.shape[:2]
    z = np.zeros((b, d))
    z_errors = [None] * b
    for i, raw in enumerate(zs):
        if raw is not None:
            try:
                z[i] = _displacement(raw, d)
            except ValidationError as exc:
                z_errors[i] = exc
    c = _Checked(sigmas)
    with np.errstate(**_QUIET):
        if kind is StateKind.BOSON:
            _check_finite(c, "sigma")
            _check_covariance(c)
            c.m = c.m @ standard_symplectic_form(d // 2)  # J = sigma Omega_N
        else:
            # sigma = 1, so J = Omega sigma^{-1} is the state's own form
            _check_finite(c, "omega")
            _check_form(c, tol)
        _check_pure(c, tol)
    c.require(
        np.array([z_errors[i] is None for i in c.index], dtype=bool),
        lambda k: z_errors[c.index[k]],
    )
    return StateStack(kind, c.index, c.m, z[c.index], c.errors)


def state_from_dict(data: dict, tol: float = DEFAULT_TOL) -> GaussianState:
    """Parse the JSON state schema (parse_state_dict) into a GaussianState.

    The one-state case of state_stack: ``tol`` bounds the purity residual
    ||J^2 + 1|| and, for fermions, the antisymmetry residual of "sigma".
    """
    kind, sig, z = parse_state_dict(data)
    states = state_stack(kind, sig[None], [z], tol)
    if states.errors[0] is not None:
        raise states.errors[0]
    return GaussianState(ComplexStructure(states.j[0], kind, tol), states.z[0])


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


def boson_covariance(j: np.ndarray) -> np.ndarray:
    """Symmetrized boson covariance -J Omega_N of J, or of each J of a stack (..., 2N, 2N)."""
    sig = -j @ standard_symplectic_form(j.shape[-1] // 2)
    return 0.5 * (sig + sig.mT)


def covariance_of(state: GaussianState) -> np.ndarray:
    """Covariance matrix of a state: -J Omega for bosons, identity for fermions."""
    if state.kind is StateKind.FERMION:
        return np.eye(2 * state.n_modes)
    return boson_covariance(state.j.j)
