r"""Matrix-function kernels and Lie-algebra machinery.

Provides the matrix exponential, the bosonic pencil kernel that
evaluates any function of Delta from one eigen-solve, the real Schur
logarithm of a rotation, the inner product at the identity

    g_1(V, W) = 1/2 Tr(V sigma_R W^T sigma_R^{-1}),

membership checks for sp(2N, R) and so(2N), and the splitting of the
algebra into the stabilizer subalgebra sta = {V : [V, J_R] = 0} and its
g_1-orthogonal complement.

sigma_R is decomposed in one place only: the pencil whitens by
H = sigma_R^{1/2}, which is symplectic, so V -> H^{-1} V H carries g_1
at sigma_R to g_1 at the vacuum, 1/2 Tr(V W^T).  The inner product and
the stabilizer splitting here are those of the vacuum reference; for
another reference, whiten first (``SpdPencil.whiten``).

Structured logarithm routes are used where the input is known to be
similar to a symmetric positive-definite matrix (bosonic relative
complex structures) or special orthogonal (fermionic ones); these keep
full relative precision on strongly squeezed states where a generic
dense logarithm loses digits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCut,
    DimensionMismatch,
    GroupViolation,
    NonFinite,
    NumericDomainError,
)
from .phase_space import (
    DEFAULT_TOL,
    ComplexStructure,
    StateKind,
    standard_symplectic_form,
)

BRANCH_CUT_MARGIN = 1e-6


class LieAlgebra(enum.Enum):
    SP = "sp"
    SO = "so"


def algebra_of_kind(kind: StateKind) -> LieAlgebra:
    return LieAlgebra.SP if kind is StateKind.BOSON else LieAlgebra.SO


@dataclass(frozen=True)
class LieAlgebraElement:
    """Real 2N x 2N matrix tagged with its algebra membership."""

    v: np.ndarray
    algebra: LieAlgebra

    def __post_init__(self):
        m = np.asarray(self.v, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
            raise DimensionMismatch(f"algebra element must be 2N x 2N, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NonFinite("algebra element contains non-finite entries")
        # an overflowing residual is inf or nan, and fails the check
        with np.errstate(over="ignore", invalid="ignore"):
            scale = 1.0 + np.linalg.norm(m)
            if self.algebra is LieAlgebra.SP:
                om = standard_symplectic_form(m.shape[0] // 2)
                resid = np.linalg.norm(m @ om + om @ m.T) / scale
                what = "not in sp(2N, R): V Omega + Omega V^T"
            else:
                resid = np.linalg.norm(m + m.T) / scale
                what = "not in so(2N): V + V^T"
        if not resid <= DEFAULT_TOL:
            raise GroupViolation(f"{what} residual {resid:.3e}")
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "v", m)

    @property
    def n_modes(self) -> int:
        return self.v.shape[0] // 2


@dataclass(frozen=True)
class StabilizerBasis:
    """g_1-orthonormal bases of sta(N) and of its orthogonal complement."""

    elements: tuple
    complement: tuple


def _mat(x) -> np.ndarray:
    if isinstance(x, LieAlgebraElement):
        return x.v
    return np.asarray(x, dtype=float)


def matrix_exp(v: np.ndarray) -> np.ndarray:
    """Matrix exponential e^V, from the same kernel as ``matrix_exp_batch``."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NonFinite("matrix_exp input contains non-finite entries")
    return matrix_exp_batch(v[None])[0]


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
    """
    vs = np.asarray(vs, dtype=float)
    lead = vs.shape[:-2]
    d = vs.shape[-1]
    flat = vs.reshape(-1, d, d)
    n = flat.shape[0]
    norms = np.abs(flat).sum(axis=-2).max(axis=-1)
    # 2^-s ||X||_1 < theta; multiplying by 2^-s is exact
    s = np.maximum(np.frexp(norms / _TAYLOR_THETA)[1], 0)[:, None, None]
    powers = np.empty((5, n, d, d))
    powers[0] = np.eye(d)
    np.multiply(flat, np.ldexp(1.0, -s), out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    np.matmul(powers[2], powers[2], out=powers[4])
    blocks = (_PS_BLOCKS @ powers.reshape(5, -1)).reshape(3, n, d, d)
    out = powers[4] @ blocks[2]
    out += blocks[1]
    out = powers[4] @ out
    out += blocks[0]
    for j in range(int(s.max(initial=0))):
        out = np.where(s > j, out @ out, out)
    return out.reshape(*lead, d, d)


@dataclass(frozen=True)
class SpdPencil:
    r"""One eigen-decomposition of Delta = sigma_T sigma_R^{-1}, or of each of a stack.

    Delta = H U diag(e^s) U^T H^{-1} with H = sigma_R^{1/2} (left out when
    sigma_R is the identity) and U, e^s the eigenpairs of the whitened
    target covariance H^{-1} sigma_T H^{-1}.  Every function of Delta that
    is analytic on the positive axis is read off this one solve.  For a
    stack, ``logs`` (B, 2N) and ``u`` (B, 2N, 2N) carry a leading axis and
    H is shared.
    """

    logs: np.ndarray
    u: np.ndarray
    half: np.ndarray = None
    inv_half: np.ndarray = None

    def apply(self, f) -> np.ndarray:
        """f(Delta) for a scalar f acting elementwise on the log-spectrum s."""
        m = (self.u * f(self.logs)[..., None, :]) @ self.u.mT
        return m if self.half is None else self.half @ m @ self.inv_half

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """H^{-1} x: a vector or matrix x in the frame where sigma_R is the identity."""
        return x if self.inv_half is None else self.inv_half @ x

    @property
    def radial_exponents(self) -> np.ndarray:
        """The N nonnegative members of the reciprocal-paired log-spectrum, descending."""
        n = self.logs.shape[-1] // 2
        return np.sort(self.logs, axis=-1)[..., ::-1][..., :n].copy()

    def __getitem__(self, i: int) -> "SpdPencil":
        """The pencil of target i of a stack."""
        return SpdPencil(self.logs[i], self.u[i], self.half, self.inv_half)


NOT_A_PURE_PAIR = (
    "relative covariance is not positive-definite; states are not a valid pure pair"
)


def spd_pencil_stack(sigma_T: np.ndarray, sigma_R: np.ndarray = None):
    """Decompose Delta = sigma_T sigma_R^{-1} for a stack (B, d, d) of sigma_T.

    Returns (pencil, positive): the stacked SpdPencil, and for each target
    whether its whitened covariance came out positive-definite; where it
    did not, the target's rows of the pencil are not meaningful.  sigma_R
    is decomposed once for the stack; within 1e-13 of the identity it is
    taken as the identity, and no whitening is done.  Raises
    NumericDomainError when sigma_R itself is not positive-definite.

    The large eigenvalues of a symmetric matrix carry full relative
    precision, so this route stays accurate at strong squeezing where a
    dense logarithm does not.
    """
    sigma_T = 0.5 * (sigma_T + sigma_T.mT)
    d = sigma_T.shape[-1]
    if sigma_R is None or np.allclose(sigma_R, np.eye(d), rtol=0.0, atol=1e-13):
        half = inv_half = None
        w_mid = sigma_T
    else:
        wr, ur = np.linalg.eigh(0.5 * (sigma_R + sigma_R.T))
        if not wr.min() > 0.0:
            raise NumericDomainError("sigma_R is not positive-definite")
        half = (ur * np.sqrt(wr)) @ ur.T
        inv_half = (ur / np.sqrt(wr)) @ ur.T
        w_mid = inv_half @ sigma_T @ inv_half
        w_mid = 0.5 * (w_mid + w_mid.mT)
    w, u = np.linalg.eigh(w_mid)
    positive = w.min(axis=-1) > 0.0
    # a target that fails gets logs 0 (Delta = 1), so arithmetic on the stack stays finite
    logs = np.log(np.where(positive[..., None], w, 1.0))
    return SpdPencil(logs, u, half, inv_half), positive


def spd_pencil(sigma_T: np.ndarray, sigma_R: np.ndarray = None) -> SpdPencil:
    """spd_pencil_stack for one sigma_T; raises NumericDomainError where it is not positive."""
    pencil, positive = spd_pencil_stack(np.asarray(sigma_T, dtype=float)[None], sigma_R)
    if not positive[0]:
        raise NumericDomainError(NOT_A_PURE_PAIR)
    return pencil[0]


def log_special_orthogonal(delta: np.ndarray):
    """Principal log of a rotation through its real Schur form.

    Returns (log_delta, angles) with angles the absolute block rotation
    angles padded with zeros to length N, sorted descending.  Raises
    BranchCut when a rotation angle is within BRANCH_CUT_MARGIN of pi.
    """
    import scipy.linalg  # here, not at module level: only fermion targets need it

    d = delta.shape[0]
    t, q = scipy.linalg.schur(delta, output="real")
    lschur = np.zeros_like(delta)
    angles = []
    i = 0
    while i < d:
        if i + 1 < d and abs(t[i + 1, i]) > 1e-12:
            theta = np.arctan2(t[i + 1, i], t[i, i])
            if abs(theta) > np.pi - BRANCH_CUT_MARGIN:
                raise BranchCut(
                    f"rotation angle {theta:.6g} within the branch-cut margin of pi"
                )
            lschur[i, i + 1] = -theta
            lschur[i + 1, i] = theta
            angles.append(abs(theta))
            i += 2
        else:
            if t[i, i] < 0.0:
                raise BranchCut(
                    "eigenvalue -1 encountered; target lies on the branch cut"
                )
            i += 1
    angles += [0.0] * (d // 2 - len(angles))
    log_delta = q @ lschur @ q.T
    log_delta = 0.5 * (log_delta - log_delta.T)
    return log_delta, np.sort(np.asarray(angles))[::-1]


def inner_product_identity(v, w) -> float:
    r"""Right-invariant metric at the identity for the vacuum reference: 1/2 Tr(V W^T).

    For a reference sigma_R = H^2, pass the whitened H^{-1} V H and H^{-1} W H.
    """
    vm = _mat(v)
    wm = _mat(w)
    if vm.shape != wm.shape:
        raise DimensionMismatch(f"shapes differ: {vm.shape} vs {wm.shape}")
    return 0.5 * float(np.tensordot(vm, wm, axes=2))


def algebra_basis(algebra: LieAlgebra, n_modes: int) -> tuple:
    """Canonical basis of sp(2N, R) (V = Omega S, S symmetric elementary)
    or so(2N) (elementary antisymmetric), in a fixed reproducible order."""
    d = 2 * n_modes
    out = []
    if algebra is LieAlgebra.SP:
        om = standard_symplectic_form(n_modes)
        for i in range(d):
            for j in range(i, d):
                s = np.zeros((d, d))
                s[i, j] += 1.0
                s[j, i] += 1.0
                out.append(LieAlgebraElement(om @ s, algebra))
    else:
        for i in range(d):
            for j in range(i + 1, d):
                a = np.zeros((d, d))
                a[i, j] = 1.0
                a[j, i] = -1.0
                out.append(LieAlgebraElement(a, algebra))
    return tuple(out)


def _gram_schmidt(mats, against=(), tol=1e-9):
    """Modified Gram-Schmidt under g_1 with one re-orthogonalization pass."""
    ortho = []
    for m in mats:
        v = m.copy()
        for _ in range(2):
            for b in against:
                v = v - inner_product_identity(v, b) * b
            for b in ortho:
                v = v - inner_product_identity(v, b) * b
        nrm = np.sqrt(inner_product_identity(v, v))
        if nrm > tol:
            ortho.append(v / nrm)
    return ortho


def stabilizer_basis(j_R: ComplexStructure) -> StabilizerBasis:
    """Split the algebra into sta = {V : [V, J_R] = 0} and its complement.

    The splitting solves the commutator condition as a dense linear
    system over the canonical basis; the complement is then
    g_1-orthonormalized against the stabilizer part.  Orthonormality is
    under the vacuum g_1, 1/2 Tr(V W^T): for a squeezed reference, split
    at the whitened H^{-1} J_R H (the standard J) and map back.
    """
    kind = j_R.kind
    algebra = algebra_of_kind(kind)
    n = j_R.n_modes
    basis = algebra_basis(algebra, n)
    mats = [b.v for b in basis]
    jr = j_R.j
    comm = np.stack([(m @ jr - jr @ m).ravel() for m in mats], axis=1)
    _, svals, vt = np.linalg.svd(comm)
    cutoff = max(comm.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > max(cutoff, 1e-12)))
    coeff_sta = vt[rank:]
    coeff_comp = vt[:rank]
    sta_raw = [np.einsum("d,dij->ij", c, mats) for c in coeff_sta]
    comp_raw = [np.einsum("d,dij->ij", c, mats) for c in coeff_comp]
    sta = _gram_schmidt(sta_raw)
    comp = _gram_schmidt(comp_raw, against=sta)
    elements = tuple(LieAlgebraElement(m, algebra) for m in sta)
    complement = tuple(LieAlgebraElement(m, algebra) for m in comp)
    return StabilizerBasis(elements, complement)
