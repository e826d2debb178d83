r"""Matrix-function kernels and Lie-algebra machinery.

Provides the matrix exponential, the pencil kernels that evaluate any
function of Delta from one stacked eigen-solve (of the whitened target
covariances for bosons, of the Cayley transform of Delta for fermions),
the inner product at the identity

    g_1(V, W) = 1/2 Tr(V sigma_R W^T sigma_R^{-1}),

membership checks for sp(2N, R) and so(2N), the canonical basis of either
algebra as one (D, 2N, 2N) stack, and its split by one SVD into the
stabilizer sta = {V : [V, J_R] = 0} and its g_1-orthogonal complement.

sigma_R is decomposed in one place only: every pencil holds the frame
H = sigma_R^{1/2} and its inverse (the identity for fermions, where
sigma_R = 1).  H is symplectic, so V -> H^{-1} V H carries g_1 at
sigma_R to g_1 at the vacuum, 1/2 Tr(V W^T).  The inner product and the
stabilizer splitting here are those of the vacuum reference; for another
reference, whiten first by the pencil's ``inv_half``.

Both pencils diagonalize a Hermitian matrix similar to Delta (a
symmetric positive-definite one for bosons, -i times the antisymmetric
Cayley transform for fermions) instead of taking a dense logarithm; this
keeps full relative precision on strongly squeezed states and at tiny
rotation angles.  Both take the targets as a phase_space.StateStack and
return the pencil of the rows that pass; a failing row leaves the stack.
Each decomposes Delta once: the fermion branch cut is read off the same
Cayley spectrum that gives the log, with no eigen-solve of its own.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCut,
    DimensionMismatch,
    GroupViolation,
    NumericDomainError,
    ValidationError,
)
from .phase_space import (
    DEFAULT_TOL,
    GaussianState,
    StateKind,
    StateStack,
    standard_symplectic_form,
)
from .phase_space import _QUIET, _as_matrix, _freeze, _frobenius, _rel
from .phase_space import _KINDS, _members, _real_array, _require_instance, _require_int
from .phase_space import _require_member, _rows_where

BRANCH_CUT_MARGIN = 1e-6


class LieAlgebra(enum.Enum):
    SP = "sp"
    SO = "so"


_ALGEBRAS = _members(LieAlgebra)


def algebra_of_kind(kind: StateKind) -> LieAlgebra:
    boson = _require_member("kind", kind, _KINDS) is StateKind.BOSON
    return LieAlgebra.SP if boson else LieAlgebra.SO


@dataclass(frozen=True, eq=False)
class LieAlgebraElement:
    """Real 2N x 2N matrix tagged with its algebra membership."""

    v: np.ndarray
    algebra: LieAlgebra

    def __post_init__(self):
        object.__setattr__(self, "algebra", _require_member("algebra", self.algebra, _ALGEBRAS))
        m = _as_matrix(self.v, "algebra element")
        # an overflowing residual is inf or nan, and fails the check
        with np.errstate(**_QUIET):
            if self.algebra is LieAlgebra.SP:
                om = standard_symplectic_form(m.shape[0] // 2)
                resid = m @ om + om @ m.T
                what = "not in sp(2N, R): V Omega + Omega V^T"
            else:
                resid = m + m.T
                what = "not in so(2N): V + V^T"
            resid = _rel(resid[None], _frobenius(m[None]))[0]
        if not resid <= DEFAULT_TOL:
            raise GroupViolation(f"{what} residual {resid:.3e}")
        object.__setattr__(self, "v", _freeze(m))

    @property
    def n_modes(self) -> int:
        return self.v.shape[0] // 2


@dataclass(frozen=True, eq=False)
class StabilizerBasis:
    """g_1-orthonormal bases of sta(N) and of its orthogonal complement."""

    elements: tuple
    complement: tuple


def _mat(x, name) -> np.ndarray:
    if isinstance(x, LieAlgebraElement):
        return x.v
    return _real_array(x, name)


_TAYLOR_THETA = 0.5
_TAYLOR_COEF = 1.0 / np.cumprod([1.0] + list(range(1, 13)))
# Paterson-Stockmeyer blocks: row j holds the coefficients of 1, X, X^2,
# X^3, X^4 in B_j = sum_p c_{4j+p} X^p, with c_12 X^4 folded into B_2, so
# e^X ~ B_0 + X^4 (B_1 + X^4 B_2).
_PS_BLOCKS = np.zeros((3, 5))
_PS_BLOCKS[:, :4] = _TAYLOR_COEF[:12].reshape(3, 4)
_PS_BLOCKS[2, 4] = _TAYLOR_COEF[12]


def matrix_exp_batch(vs: np.ndarray) -> np.ndarray:
    """Exponentials of a stack of small matrices, shape (..., d, d).

    Scaling and squaring with the degree-12 Taylor polynomial at
    theta = 1/2: each matrix is scaled by an exact power of two 2^-s to
    ||X||_1 < theta, where the truncation error is below 2e-14 relative,
    and its result squared s times, with s chosen per matrix.
    The polynomial is evaluated by Paterson-Stockmeyer: X^2, X^3, X^4,
    then Horner in X^4 over three cubic blocks, 5 matrix products in all.
    A stack whose every norm is below theta (every s = 0) is neither
    scaled nor squared.  Each matrix gets the bits it gets alone.
    """
    try:
        vs = np.asarray(vs, dtype=float)
        *lead, rows, d = vs.shape  # a ValueError below two axes
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("vs must be a real array of shape (..., d, d)")
    if rows != d:
        raise DimensionMismatch(f"vs must be a stack of square matrices, got shape {vs.shape}")
    flat = vs.reshape(-1, d, d)
    n = flat.shape[0]
    norms = np.abs(flat).sum(axis=-2).max(axis=-1)
    powers = np.empty((5, n, d, d))
    powers[0] = _identity(d)
    squarings = 0
    if norms.max(initial=0.0) < _TAYLOR_THETA:
        powers[1] = flat  # s = 0 for every matrix
    else:
        # 2^-s ||X||_1 < theta; multiplying by 2^-s is exact
        s = np.maximum(np.frexp(norms / _TAYLOR_THETA)[1], 0)[:, None, None]
        squarings = int(s.max())
        np.multiply(flat, np.ldexp(1.0, -s), out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    np.matmul(powers[2], powers[2], out=powers[4])
    blocks = (_PS_BLOCKS @ powers.reshape(5, -1)).reshape(3, n, d, d)
    out = powers[4] @ blocks[2]
    out += blocks[1]
    out = powers[4] @ out
    out += blocks[0]
    # square each matrix s times: np.where keeps the rows with s <= j;
    # squaring only the rows with s > j gives the same bits, but is slower on the oracle's stacks
    for j in range(squarings):
        out = np.where(s > j, out @ out, out)
    return out.reshape(*lead, d, d)


@functools.lru_cache(maxsize=16)
def _identity(d: int) -> np.ndarray:
    """The d x d identity, read-only, built once per d."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


@dataclass(frozen=True, eq=False)
class SpdPencil:
    r"""One eigen-decomposition of Delta, or of each of a stack, in its frame H.

    Delta = H U diag(e^{logs}) U^H H^{-1}.  Bosons: H = sigma_R^{1/2} and
    U, e^s are the eigenpairs of the whitened target covariance
    H^{-1} sigma_T H^{-1}.  Fermions: H is the identity, as sigma_R = 1,
    U is unitary and the log-spectrum i theta is imaginary.  It is the one
    object for Delta: every function of Delta analytic on its spectrum is
    read off this one solve.  For a stack, ``logs`` (B, 2N) and ``u``
    (B, 2N, 2N) carry a leading axis, and H is shared.
    """

    logs: np.ndarray
    u: np.ndarray
    half: np.ndarray
    inv_half: np.ndarray

    def apply(self, f) -> np.ndarray:
        """f(Delta) for a scalar f acting elementwise on the log-spectrum; its real part."""
        m = ((self.u * f(self.logs)[..., None, :]) @ self.u.conj().mT).real
        return self.half @ m @ self.inv_half

    @property
    def log_delta(self) -> np.ndarray:
        """The principal log of Delta, apply(identity), computed when read."""
        return self.apply(lambda s: s)

    @property
    def kind(self) -> StateKind:
        """FERMION for the imaginary log-spectrum of a rotation, BOSON for a real one."""
        return StateKind.FERMION if np.iscomplexobj(self.logs) else StateKind.BOSON

    @property
    def radial_exponents(self) -> np.ndarray:
        """The N nonnegative members of the +- paired log-spectrum, descending.

        Log-eigenvalues s for bosons, rotation angles theta for fermions.
        """
        n = self.logs.shape[-1] // 2
        if np.iscomplexobj(self.logs):
            # magnitudes of the lower half, so that theta = 0 reads +0.0
            return np.abs(np.sort(self.logs.imag, axis=-1)[..., :n])
        return np.sort(self.logs, axis=-1)[..., ::-1][..., :n].copy()

    def __getitem__(self, i: int) -> "SpdPencil":
        """The pencil of target i of a stack."""
        return SpdPencil(self.logs[i], self.u[i], self.half, self.inv_half)


NOT_A_PURE_PAIR = (
    "relative covariance is not positive-definite; states are not a valid pure pair"
)


def spd_pencil_stack(targets: StateStack, sigma_R: np.ndarray) -> SpdPencil:
    """Decompose Delta = sigma_T sigma_R^{-1} for the carrier's rows sigma_T, (B, d, d).

    Returns the stacked SpdPencil of the rows that pass: a target whose
    whitened covariance is not positive-definite leaves ``targets`` with
    a NumericDomainError (StateStack.require).  sigma_R is decomposed
    once for the stack into the pencil's frame H = sigma_R^{1/2},
    exactly 1 for the vacuum.  Both are taken by their symmetric parts,
    so the checked rows of a state file, symmetric only to rounding, are
    passed as they are.  Raises NumericDomainError when sigma_R itself
    is not positive-definite.

    The large eigenvalues of a symmetric matrix carry full relative
    precision, so this route stays accurate at strong squeezing where a
    dense logarithm does not.
    """
    # halves first, for sigma_R, sigma_T and w: no sum of two finite entries overflows
    wr, ur = np.linalg.eigh(0.5 * sigma_R + 0.5 * sigma_R.T)
    if not wr.min() > 0.0:
        raise NumericDomainError("sigma_R is not positive-definite")
    half = (ur * np.sqrt(wr)) @ ur.T
    inv_half = (ur / np.sqrt(wr)) @ ur.T
    w_mid = inv_half @ (0.5 * targets.sigma + 0.5 * targets.sigma.mT) @ inv_half
    w, u = np.linalg.eigh(0.5 * w_mid + 0.5 * w_mid.mT)
    w, u = targets.require(
        w.min(axis=-1) > 0.0, lambda k: NumericDomainError(NOT_A_PURE_PAIR), w, u
    )
    return SpdPencil(np.log(w), u, half, inv_half)


def rotation_pencil_stack(targets: StateStack, j_R: np.ndarray) -> SpdPencil:
    """Decompose Delta = J_T J_R^{-1} in SO(2N) for the carrier's rows J_T by one stacked eigh.

    The Cayley transform C = (Delta + 1)^{-1} (Delta - 1), which equals
    (Delta - 1)(Delta + 1)^{-1}, is antisymmetric with eigenvalues
    i tan(theta/2) for the rotation angles theta of Delta, so the
    Hermitian -i C = V diag(t) V^H gives the principal log
    Delta = V diag(2i arctan t) V^H: the pencil's log-spectrum is
    i theta = 2i arctan t, and its frame H is 1, as sigma_R = 1.  The
    branch cut is read off that spectrum: a target leaves ``targets``
    with a BranchCut when its largest angle 2 arctan(max |t|) is within
    BRANCH_CUT_MARGIN of pi, or when an exact eigenvalue -1 makes Delta + 1
    singular, which fails the stacked solve whole: those rows are found
    one at a time (_rows_where) and the rest solved again.  Returns the
    SpdPencil of the rows that pass.
    """
    delta = targets.sigma @ -j_R
    eye = np.eye(delta.shape[-1])
    cayley = lambda m: np.linalg.solve(m + eye, m - eye)
    try:
        c = cayley(delta)
    except np.linalg.LinAlgError:  # an exact eigenvalue -1 makes Delta + 1 singular
        on_cut = lambda k: BranchCut("eigenvalue -1 encountered; target lies on the branch cut")
        (delta,) = targets.require(_rows_where(cayley, delta), on_cut, delta)
        c = cayley(delta)
    t, v = np.linalg.eigh(-0.5j * (c - c.mT))
    theta = 2.0 * np.arctan(np.abs(t).max(axis=-1))
    near = lambda k: BranchCut(f"rotation angle {theta[k]:.6g} within the branch-cut margin of pi")
    t, v = targets.require(theta <= np.pi - BRANCH_CUT_MARGIN, near, t, v)
    return SpdPencil(2j * np.arctan(t), v, eye, eye)


def inner_product_identity(v, w) -> float:
    r"""Right-invariant metric at the identity for the vacuum reference: 1/2 Tr(V W^T).

    For a reference sigma_R = H^2, pass the whitened H^{-1} V H and H^{-1} W H.
    """
    vm = _mat(v, "v")
    wm = _mat(w, "w")
    if vm.shape != wm.shape:
        raise DimensionMismatch(f"shapes differ: {vm.shape} vs {wm.shape}")
    return 0.5 * float(np.tensordot(vm, wm, axes=2))


def algebra_basis(algebra: LieAlgebra, n_modes: int) -> np.ndarray:
    """Canonical basis of sp(2N, R) (V = Omega S, S symmetric elementary)
    or so(2N) (elementary antisymmetric), one per upper-triangle entry
    (i, j) in row-major order, as a read-only stack (D, 2N, 2N).  It is
    g_1-orthogonal: sp's Omega S_ii have norm sqrt(2), the rest norm 1.
    ``algebra`` is a LieAlgebra or its value and ``n_modes`` an integer
    >= 1, not bool (ValidationError otherwise)."""
    sp = _require_member("algebra", algebra, _ALGEBRAS) is LieAlgebra.SP
    _require_int("n_modes", n_modes, 1)
    d = 2 * n_modes
    rows, cols = np.triu_indices(d, k=0 if sp else 1)
    k = np.arange(len(rows))
    out = np.zeros((len(rows), d, d))
    out[k, rows, cols] = 1.0
    out[k, cols, rows] += 1.0 if sp else -1.0
    if sp:
        out = standard_symplectic_form(n_modes) @ out
    return _freeze(out)


def stabilizer_basis(reference: GaussianState) -> StabilizerBasis:
    """Split the algebra into sta = {V : [V, J_R] = 0} and its complement.

    One SVD of the commutator map over the normalised canonical basis,
    which is g_1-orthonormal, so the rows of V^T are g_1-orthonormal
    elements: the null rows span sta, the others its complement.
    Orthonormality is under the vacuum g_1, 1/2 Tr(V W^T): for a squeezed
    reference, split at the whitened H^{-1} J_R H (the standard J) and map back.
    """
    algebra = algebra_of_kind(_require_instance("reference", reference, GaussianState).kind)
    basis = algebra_basis(algebra, reference.n_modes)
    basis = basis / np.sqrt(0.5 * np.einsum("dij,dij->d", basis, basis))[:, None, None]
    jr = reference.j
    comm = (basis @ jr - jr @ basis).reshape(len(basis), -1).T
    _, svals, vt = np.linalg.svd(comm, full_matrices=False)
    cutoff = max(comm.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > max(cutoff, 1e-12)))
    mats = np.einsum("cd,dij->cij", vt, basis)
    elements = tuple(LieAlgebraElement(m, algebra) for m in mats[rank:])
    complement = tuple(LieAlgebraElement(m, algebra) for m in mats[:rank])
    return StabilizerBasis(elements, complement)
