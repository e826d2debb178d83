r"""Pure Gaussian states and Gaussian transformations on phase space.

A zero-displacement pure Gaussian state is labelled by its complex
structure J, a real 2N x 2N matrix with J^2 = -1.  For bosons
J = -sigma . Omega_N^{-1} = sigma . Omega_N, from the covariance sigma and
the standard form Omega_N, a read-only constant built once per N.  A
fermion state has sigma = 1, so J = Omega . sigma^{-1} is its own form
Omega, the only form that state_stack checks (antisymmetric, |det| = 1).

States carry an additional displacement vector z (identically zero for
fermions).  Gaussian transformations are pairs (v, M) acting as
J -> M J M^{-1}, z -> M z + v, with M symplectic for bosons and special
orthogonal for fermions.  All matrices use the quadrature ordering
(Q^1, P_1, ..., Q^N, P_N), in which the standard Omega and J_R are
block-diagonal with 2x2 blocks [[0, 1], [-1, 0]].

A state is checked in one place: state_stack runs the check list on a
stack (B, 2N, 2N) of states of one kind and N, and a GaussianState is
its one-row case, whether built in code or loaded by state_from_dict.
A residual that overflows to inf or nan fails its check.  It returns a
StateStack, the one carrier of failed rows: the pencils of lie_numerics
take it and require their own conditions on the same rows.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

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
_NUMBERS = (int, float, np.integer, np.floating)  # Python and numpy reals; bool is tested apart


class StateKind(enum.Enum):
    BOSON = "boson"
    FERMION = "fermion"


_JSON_NUMBERS = frozenset((float, int))


def _real_array(a, name, copy=False):
    """a as a float array, a C-ordered copy if asked; ValidationError unless each entry is a number.

    np.asarray(..., dtype=float) alone also takes strings, booleans and
    None.  An integer too large for a float is NonFinite, as 1e400 is.
    An ndarray is judged by its dtype kind; otherwise the entry types are
    walked once.  A set of them within {float, int}, the types of JSON
    numbers, passes at once; any other set takes the general test, which
    lets numpy numbers pass and rejects bool.
    """
    array = isinstance(a, np.ndarray)
    # signed, unsigned or float, not bool, complex or object; before the cast, where complex warns
    if array and a.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be an array of real numbers")
    try:
        out = np.array(a, dtype=float, order="C") if copy else np.asarray(a, dtype=float)
    except OverflowError:  # an integer past the float range
        raise NonFinite(f"{name} contains non-finite entries")
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an array of real numbers")
    if not array:
        entries = [a] if out.ndim == 0 else a
        for _ in range(out.ndim - 1):
            entries = itertools.chain.from_iterable(entries)
        types = set(map(type, entries))
        if not types <= _JSON_NUMBERS and not all(
            issubclass(t, _NUMBERS) and not issubclass(t, bool) for t in types
        ):
            raise ValidationError(f"{name} must be an array of real numbers")
    return out


def _as_square(a, name):
    """a as a float 2N x 2N matrix, N >= 1, with any entries."""
    m = _real_array(a, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[0] % 2 != 0 or m.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be 2N x 2N with N >= 1, got shape {m.shape}")
    return m


def _as_matrix(a, name):
    m = _as_square(a, name)
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{name} contains non-finite entries")
    return m


def _as_vector(a, d, name):
    """a as a float vector of length d, zeros for None."""
    v = np.zeros(d) if a is None else _real_array(a, name)
    if v.shape != (d,):
        raise DimensionMismatch(f"{name} must have shape ({d},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFinite(f"{name} contains non-finite entries")
    return v


def _require_int(name, value, low, high=None):
    """ValidationError unless value is an integer (Python or numpy, not bool) in [low, high]."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}")
    if high is not None and value > high:
        raise ValidationError(f"{name} must be <= {high}")


def _require_real(name, value, nonnegative=False):
    """float(value); ValidationError unless a finite real (not bool), >= 0 if nonnegative."""
    if not isinstance(value, _NUMBERS) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past the float range
        x = np.inf if value > 0 else -np.inf
    if not -np.inf < x < np.inf:  # a nan fails this too
        raise ValidationError(f"{name} must be finite, got {x}")
    if nonnegative and x < 0.0:
        raise ValidationError(f"{name} must be nonnegative, got {x}")
    return x


def _require_instance(name, value, cls):
    """value itself; ValidationError unless it is a cls."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def _members(cls):
    """An enum's members by value and by themselves, as cls(value) takes them: one dict lookup."""
    return {**{m.value: m for m in cls}, **{m: m for m in cls}}


def _require_member(name, value, members):
    """members[value], the enum member that value is or names; ValidationError otherwise."""
    try:
        return members[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value, such as a list
        names = " or ".join(repr(k) for k in members if isinstance(k, str))
        raise ValidationError(f"{name} must be {names}, got {value!r}")


_KINDS = _members(StateKind)


def _freeze(a, name="array"):
    """A read-only C-ordered float copy of a: the caller's array stays its own."""
    a = _real_array(a, name, copy=True)
    a.setflags(write=False)
    return a


def _frobenius(x):
    """Frobenius norm of each matrix of a stack, bit for bit np.linalg.norm of each."""
    flat = x.reshape(x.shape[0], x.shape[1] * x.shape[2])
    return np.sqrt(np.vecdot(flat, flat))


def _rel(num, scale):
    """Residual norm of each matrix of a stack relative to a characteristic scale."""
    return _frobenius(num) / (1.0 + scale)


class StateStack:
    """A stack of rows checked condition by condition: the one carrier of failed rows.

    A row leaves the stack at its first failed condition, a state check
    or a pencil's; ``errors`` keeps that error at the row's input
    position, ``index`` the input positions of the rows still in ``sigma``.
    """

    def __init__(self, sigma):
        self.sigma = sigma
        self.index = np.arange(len(sigma))
        self.errors = [None] * len(sigma)

    def require(self, ok, error, *rows):
        """Drop the rows where ok is False (error(k) builds row k's exception).

        Returns the row-aligned arrays ``rows`` with the same rows dropped."""
        if not ok.all():
            for k in np.flatnonzero(~ok):
                self.errors[self.index[k]] = error(k)
            self.sigma, self.index = self.sigma[ok], self.index[ok]
            rows = tuple(r[ok] for r in rows)
        return rows


def _check_finite(c: StateStack, name: str):
    c.require(
        np.isfinite(c.sigma).all(axis=(1, 2)),
        lambda k: NonFinite(f"{name} contains non-finite entries"),
    )


def _check_symmetric(c: StateStack):
    """sigma symmetric at DEFAULT_TOL."""
    m = c.sigma
    c.require(
        _rel(m - m.mT, _frobenius(m)) <= DEFAULT_TOL,
        lambda k: GroupViolation("sigma is not symmetric"),
    )


def _rows_where(fn, m) -> np.ndarray:
    """Per matrix of a stack m, whether fn (stacked LAPACK, failing whole) raises no LinAlgError."""
    try:
        fn(m)
        return np.ones(len(m), dtype=bool)
    except np.linalg.LinAlgError:
        if len(m) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_rows_where(fn, x[None]) for x in m])


def _check_form(c: StateStack, tol: float):
    """Omega antisymmetric (at tol) with |det Omega| = 1."""
    m = c.sigma
    c.require(
        _rel(m + m.mT, _frobenius(m)) <= tol,
        lambda k: GroupViolation("omega is not antisymmetric"),
    )
    c.require(
        np.abs(np.abs(np.linalg.det(c.sigma)) - 1.0) <= 1e-8,
        lambda k: GroupViolation("omega must have |det| = 1 in the standard basis"),
    )


def _check_pure(c: StateStack, j, tol: float):
    """J^2 = -1 up to a relative residual tol, for the row-aligned complex structures j."""
    resid = _rel(j @ j + np.eye(j.shape[-1]), _frobenius(j) ** 2)
    c.require(
        resid <= tol,
        lambda k: NotPure(
            f"J^2 != -1 (relative residual {resid[k]:.3e}); mixed states are out of scope"
        ),
    )


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Pure Gaussian state (J, z) of one kind; z is zero for fermions.

    The constructor checks that j is 2N x 2N, then runs state_stack on
    its one "sigma" (the state file's matrix): the covariance
    sigma = -J Omega_N for bosons, the form J for fermions, and raises
    the first error; the loader builds its states through this
    constructor, so a state built in code and one read from a file pass
    and fail the same checks with the same messages.  Then z is checked.
    The checked matrix is kept, read-only, as ``sigma``.  ``tol`` bounds
    the purity and fermion antisymmetry residuals and must be finite and
    positive (ValidationError otherwise, before any other check); a
    state keeps the tolerance it was accepted at, so
    apply_transformation checks its image at that tolerance too.
    ``kind`` is a StateKind or its value, and is kept as the member.
    """

    j: np.ndarray
    kind: StateKind
    z: np.ndarray = None
    tol: float = DEFAULT_TOL
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not _require_real("tol", self.tol) > 0.0:
            raise ValidationError(f"tol must be positive, got {self.tol}")
        object.__setattr__(self, "kind", _require_member("kind", self.kind, _KINDS))
        m = _as_square(self.j, "j")
        boson = self.kind is StateKind.BOSON
        with np.errstate(**_QUIET):
            sigma = -m @ standard_symplectic_form(len(m) // 2) if boson else m
        (error,) = state_stack(self.kind, sigma[None], self.tol).errors
        if error is not None:
            raise error
        z = _as_vector(self.z, m.shape[0], "z")
        if self.kind is StateKind.FERMION and np.any(z != 0.0):
            raise DisplacementPresent("fermion states carry no displacement")
        object.__setattr__(self, "j", _freeze(m))
        object.__setattr__(self, "z", _freeze(z))
        object.__setattr__(self, "sigma", _freeze(sigma) if boson else self.j)

    @property
    def n_modes(self) -> int:
        return self.j.shape[0] // 2


@dataclass(frozen=True, eq=False)
class GaussianTransformation:
    """Affine phase-space map (v, M) with M in Sp(2N, R) or SO(2N)."""

    v: np.ndarray
    m: np.ndarray
    kind: StateKind

    def __post_init__(self):
        object.__setattr__(self, "kind", _require_member("kind", self.kind, _KINDS))
        m = _as_matrix(self.m, "m")
        d = m.shape[0]
        v = _as_vector(self.v, d, "v")
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
    _require_int("n_modes", n_modes, 1)
    om = _STANDARD_FORMS.get(n_modes)
    if om is None:
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
    return GaussianState(standard_symplectic_form(n_modes), kind)


def apply_transformation(
    state: GaussianState, t: GaussianTransformation
) -> GaussianState:
    """Return the transformed state (M J M^{-1}, M z + v), checked at the state's tol."""
    _require_instance("state", state, GaussianState)
    _require_instance("t", t, GaussianTransformation)
    if state.kind is not t.kind:
        raise KindMismatch(f"state kind {state.kind} != transformation kind {t.kind}")
    if state.n_modes != t.n_modes:
        raise DimensionMismatch(
            f"state has {state.n_modes} modes, transformation {t.n_modes}"
        )
    j = t.m @ state.j @ t.inverse_m
    z = t.m @ state.z + t.v
    return GaussianState(j, state.kind, z, state.tol)


def single_mode_squeezing(r: float, phi: float) -> GaussianTransformation:
    r"""Squeezing S(r, phi) = exp(r [[cos phi, sin phi], [sin phi, -cos phi]]).

    The generator squares to r^2 times the identity, so the exponential
    has the closed form cosh(r) 1 + sinh(r) g(phi).
    """
    r = _require_real("squeezing magnitude r", r, nonnegative=True)
    phi = _require_real("squeezing angle phi", phi)
    g = np.array([[np.cos(phi), np.sin(phi)], [np.sin(phi), -np.cos(phi)]])
    with np.errstate(**_QUIET):  # a large r overflows: GaussianTransformation raises NonFinite
        m = np.cosh(r) * np.eye(2) + np.sinh(r) * g
    return GaussianTransformation(np.zeros(2), m, StateKind.BOSON)


def _floats(data, key: str, not_numeric: str) -> np.ndarray:
    """data[key] as a float array (_real_array); SchemaError(not_numeric) unless numeric."""
    try:
        return _real_array(data[key], key)
    except NonFinite:
        raise
    except ValidationError:  # in a state file, a non-numeric entry breaks the schema
        raise SchemaError(not_numeric)


_KEYS = frozenset(("kind", "n_modes", "sigma", "z"))


def parse_state_dict(data: dict):
    """Check the JSON state schema; return (kind, sigma, z).

    Schema: {"kind": "boson"|"fermion", "n_modes": N, "sigma": [[...]],
    "z": [...]} with "z" optional (None when absent) and forbidden for
    fermions.  The entries of "sigma" and "z" must be numbers, and those
    of "z" finite.  For bosons "sigma" is the symmetric covariance
    matrix; for fermions it is the antisymmetric state symplectic form
    (the covariance is fixed to the identity).  The state checks on
    "sigma" are state_stack's.  The kind may also be a StateKind member,
    as StateKind(member) takes it.
    """
    if not isinstance(data, dict):
        raise SchemaError("state file must contain a JSON object")
    for key in ("kind", "n_modes", "sigma"):
        if key not in data:
            raise SchemaError(f"missing required key '{key}'")
    if not data.keys() <= _KEYS:
        raise SchemaError(f"unknown keys in state file: {sorted(data.keys() - _KEYS)}")
    try:
        kind = _require_member("kind", data["kind"], _KINDS)
    except ValidationError as exc:  # in a state file, a bad kind breaks the schema
        raise SchemaError(str(exc))
    try:
        _require_int("n_modes", data["n_modes"], 1)
    except ValidationError:
        raise SchemaError("n_modes must be a positive integer")
    d = 2 * data["n_modes"]
    sig = _floats(data, "sigma", "sigma must be a numeric matrix")
    if sig.shape != (d, d):
        raise SchemaError(f"sigma must be {d} x {d}, got {sig.shape}")
    if "z" not in data:
        return kind, sig, None
    if kind is StateKind.FERMION:
        raise DisplacementPresent("fermion state files must not contain 'z'")
    z = _floats(data, "z", "z must be a numeric vector")
    if z.shape != (d,):
        raise SchemaError(f"z must have length {d}")
    if not np.all(np.isfinite(z)):
        raise NonFinite("z contains non-finite entries")
    return kind, sig, z


def state_stack(kind: StateKind, sigmas: np.ndarray, tol: float = DEFAULT_TOL) -> StateStack:
    """Validate a stack (B, 2N, 2N) of "sigma" entries of one kind: the one check list.

    Every check runs once on the stack; an item stops at its first
    failure.  Bosons: finiteness, symmetry, positive-definiteness, then
    purity J^2 = -1 of J = sigma Omega_N.  Fermions: finiteness,
    antisymmetry and |det| = 1 of the form, which is J, then purity.
    ``tol`` bounds the purity residual and the fermion antisymmetry.
    Returns the carrier: the rows that pass are kept as given,
    sigmas[index]; J is formed only for the checks.

    Positivity is the Cholesky of (sigma + sigma^{-1})/2, with sigma^{-1}
    = -Omega sigma Omega = -Omega J (exact for a pure sigma, and only a
    signed permutation of its entries).  Its eigenvalues are
    cosh 2r_i >= 1, where sigma's own e^{-2r_i} round to zero or below at
    strong off-axis squeezing; sigma = -1 still fails.
    """
    c = StateStack(sigmas)
    with np.errstate(**_QUIET):
        if kind is StateKind.BOSON:
            om = standard_symplectic_form(sigmas.shape[1] // 2)
            _check_finite(c, "sigma")
            _check_symmetric(c)
            j = c.sigma @ om  # J = sigma Omega_N
            # sigma^{-1} = -Omega J; halves taken first: no sum of two finite entries overflows
            (j,) = c.require(
                _rows_where(np.linalg.cholesky, 0.5 * c.sigma - 0.5 * (om @ j)),
                lambda k: SingularInput("sigma is not positive-definite"),
                j,
            )
        else:
            # sigma = 1, so J = Omega sigma^{-1} is the state's own form
            _check_finite(c, "omega")
            _check_form(c, tol)
            j = c.sigma
        _check_pure(c, j, tol)
    return c


def state_from_dict(data: dict, tol: float = DEFAULT_TOL) -> GaussianState:
    """Parse the JSON state schema (parse_state_dict) into a GaussianState.

    The state is built by the constructor, so it is state_stack's one-row
    case: ``tol`` bounds the purity residual ||J^2 + 1|| and, for
    fermions, the antisymmetry residual of "sigma", and the state
    carries ``tol``.
    """
    kind, sig, z = parse_state_dict(data)
    if kind is StateKind.BOSON:
        with np.errstate(**_QUIET):
            sig = sig @ standard_symplectic_form(sig.shape[0] // 2)  # J = sigma Omega_N
    return GaussianState(sig, kind, z, tol)


def state_to_dict(state: GaussianState) -> dict:
    """Inverse of state_from_dict: the state's checked "sigma", and z when nonzero."""
    _require_instance("state", state, GaussianState)
    out = {"kind": state.kind.value, "n_modes": state.n_modes, "sigma": state.sigma.tolist()}
    if np.any(state.z != 0.0):
        out["z"] = state.z.tolist()
    return out
