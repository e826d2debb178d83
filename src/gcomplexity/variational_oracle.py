r"""Independent verification by discretized path-length minimization.

A path on the group is parametrized by Lie-algebra increments:
M_k = exp(V_k) M_{k-1} with M_0 = 1, optionally with displacement
increments u_k for bosons, in which case

    z_k = e^{V_k} z_{k-1} + phi_1(V_k) u_k,   phi_1(V) = (e^V - 1) V^{-1}.

Right-invariance makes each segment cost depend only on its increment,
so the discretized length is sum_k sqrt(g_1(V_k, V_k) + u_k^T
sigma_R^{-1} u_k).  The problem is posed in the frame the SPD pencil
whitens to, H = sigma_R^{1/2}: there the reference is the vacuum, the
target is (H^{-1} J_T H, H^{-1} z_T) and g_1 is the Frobenius form
1/2 Tr(V V^T) + u^T u, so paths and lengths are those of the vacuum
frame.  The length is minimized subject to the endpoint
constraint by penalty stages with an increasing weight schedule (plain
gradient descent with backtracking line search on the exact
reverse-mode gradient), then one Levenberg-Marquardt restore on the
forward-mode Jacobian; there is no projection step.  Both derivatives
come from the block-triangular identity
exp([[X, Y], [0, X]]) = [[e^X, L_exp(X, Y)], [0, e^X]] (Najfeld and
Havel 1995; Al-Mohy and Higham 2009) and read the same prefix and
suffix products.  Everything is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherent import coherent_geodesic
from .complexity_core import relative_complex_structure
from .errors import BranchCut, NumericDomainError, Singular, ValidationError
from .lie_numerics import (
    BRANCH_CUT_MARGIN,
    LieAlgebraElement,
    algebra_basis,
    algebra_of_kind,
    inner_product_identity,
    matrix_exp_batch,
)
from .phase_space import GaussianState, StateKind, group_inverse, standard_symplectic_form

CONSTRAINT_TOL = 1e-6
PENALTY_SCHEDULE = (1e2, 1e3, 1e4, 1e5, 1e6)
STAGE_ITERATIONS = (60, 60, 80, 80, 120)
# Levenberg-Marquardt restore: residual norm it stops at, iteration cap
RESTORE_TOL = 1e-9
RESTORE_ITERATIONS = 20
# check_stabilizer_geodesic: path segments, central-difference step, pass bound
STATIONARITY_SEGMENTS = 8
STATIONARITY_EPSILON = 3e-5
STATIONARITY_THRESHOLD = 1e-6


@dataclass(frozen=True)
class GroupPath:
    """Discretized group trajectory given by Lie-algebra increments.

    Increments are in the vacuum frame: for a reference sigma_R = H^2 the
    path on the group is H M_k H^{-1}, with displacements H z_k.
    """

    increments: np.ndarray
    kind: StateKind
    displacement_increments: np.ndarray = None
    converged: bool = True
    constraint_residual: float = 0.0

    def __post_init__(self):
        inc = np.ascontiguousarray(np.asarray(self.increments, dtype=float))
        if inc.ndim != 3 or inc.shape[1] != inc.shape[2]:
            raise ValidationError("increments must have shape (K, 2N, 2N)")
        if inc.shape[0] < 4:
            raise ValidationError("a path needs at least K = 4 segments")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)
        if self.displacement_increments is not None:
            u = np.ascontiguousarray(np.asarray(self.displacement_increments, float))
            if u.shape != inc.shape[:2]:
                raise ValidationError("displacement increments must have shape (K, 2N)")
            u.setflags(write=False)
            object.__setattr__(self, "displacement_increments", u)

    @property
    def segments(self) -> int:
        return self.increments.shape[0]


def path_length(path: GroupPath) -> float:
    """Sum of per-segment g_1 norms of the (vacuum-frame) increments."""
    v = path.increments
    sq = 0.5 * np.einsum("kij,kij->k", v, v)
    if path.displacement_increments is not None:
        u = path.displacement_increments
        sq = sq + np.einsum("ki,ki->k", u, u)
    return float(np.sum(np.sqrt(np.maximum(sq, 0.0))))


def _suffixes(e):
    """S_k = E_{K-1} ... E_{k+1} for a stack E_0, ..., E_{K-1}."""
    suf = np.empty_like(e)
    suf[-1] = np.eye(e.shape[-1])
    for k in range(len(e) - 1, 0, -1):
        suf[k - 1] = suf[k] @ e[k]
    return suf


def _norm_exponent(m):
    """e with ||m||_1 < 2^e, per matrix of a stack (0 for a zero matrix)."""
    return np.frexp(np.abs(m).sum(axis=-2).max(axis=-1))[1][..., None, None]


def _frechet_exp(x, y):
    """L_exp(X, Y), the upper-right block of exp([[X, Y], [0, X]]), for stacks.

    L_exp is linear in Y, so each Y is first scaled by a power of two to
    the binade of ||X||_1: the block then needs at most one squaring more
    than X alone, and the scaling and its inverse are exact, so
    L_exp(X, 2^k Y) = 2^k L_exp(X, Y) bit for bit.
    """
    n = x.shape[-1]
    shift = _norm_exponent(x) - _norm_exponent(y)
    blk = np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-2] + (2 * n, 2 * n))
    blk[..., :n, :n] = x
    blk[..., n:, n:] = x
    blk[..., :n, n:] = np.ldexp(y, shift)
    return np.ldexp(matrix_exp_batch(blk)[..., :n, n:], -shift)


class _Problem:
    """Penalty objective for one (reference, target) pair, in the vacuum frame.

    Bosons are whitened by the pencil of Delta: J_R becomes the standard
    Omega, J_T becomes H^{-1} J_T H and z_T becomes H^{-1} z_T, so the
    metric is the Frobenius gram.  Fermions have sigma_R = 1 already.
    Coordinate c of segment k moves the generator A_k along dirs[c]: the
    algebra basis, plus for a displaced target the unit displacement
    columns of the affine generator [[V, u], [0, 0]].  Derivatives are
    exact: the gradient pulls the penalty back through the adjoint
    Frechet derivative of exp, the restore Jacobian pushes every
    coordinate forward through the Frechet derivative.
    """

    def __init__(self, reference, target, segments):
        self.kind = reference.kind
        self.d = 2 * reference.n_modes
        self.K = segments
        basis = algebra_basis(algebra_of_kind(self.kind), reference.n_modes)
        self.basis = np.stack([b.v for b in basis])
        self.D = len(basis)
        self.displaced = bool(np.any(target.z != 0.0) or np.any(reference.z != 0.0))
        geo = coherent_geodesic(reference, target) if self.displaced else None
        rel = relative_complex_structure(reference, target) if geo is None else geo.delta
        pencil = rel.pencil
        if pencil is None:
            self.jr, self.jt, self.log_delta = reference.j.j, target.j.j, rel.log_delta
        else:
            hinv = pencil.whiten(np.eye(self.d))
            self.jr = standard_symplectic_form(reference.n_modes)
            # H^{-1} J_T H: H^{-1} is symplectic, and its group inverse is H
            self.jt = hinv @ target.j.j @ group_inverse(hinv, self.kind)
            self.log_delta = (pencil.u * pencil.logs) @ pencil.u.T
        if geo is not None:
            self.z_t = pencil.whiten(target.z)
            self.z_rate = pencil.whiten(0.5 * geo.n_matrix @ target.z)
        self.ncoord = self.D + (self.d if self.displaced else 0)
        da = self.d + 1 if self.displaced else self.d
        self.dirs = np.zeros((self.ncoord, da, da))
        self.dirs[: self.D, : self.d, : self.d] = self.basis
        if self.displaced:
            self.dirs[self.D :, : self.d, self.d] = np.eye(self.d)
        self.dirs_flat = self.dirs.reshape(self.ncoord, -1)
        # g_1 on the coordinates; the displacement part is Euclidean
        flat = self.basis.reshape(self.D, -1)
        self.gram = np.eye(self.ncoord)
        self.gram[: self.D, : self.D] = 0.5 * (flat @ flat.T)

    def _forward(self, x):
        """Generators A_k, E_k = e^{A_k} and prefixes P_k = E_{k-1} ... E_0.

        P has K + 1 entries; P_K is the endpoint M = S_k E_k P_k.
        """
        a = (x @ self.dirs_flat).reshape(self.K, *self.dirs.shape[1:])
        e = matrix_exp_batch(a)
        pre = np.empty((self.K + 1,) + e.shape[1:])
        pre[0] = np.eye(e.shape[-1])
        for k in range(self.K):
            pre[k + 1] = e[k] @ pre[k]
        return a, e, pre

    def _residual(self, m):
        """R = M J_R M^{-1} - J_T at the endpoint, and z - z_T (or None)."""
        mm = m[: self.d, : self.d]
        r = mm @ self.jr @ group_inverse(mm, self.kind) - self.jt
        return r, (m[: self.d, self.d] - self.z_t if self.displaced else None)

    def _resid_vec(self, m):
        r, dz = self._residual(m)
        return r.ravel() if dz is None else np.concatenate([r.ravel(), dz])

    def seg_norm_sq(self, x):
        return ((x @ self.gram) * x).sum(axis=1)

    def length(self, x):
        return float(np.sum(np.sqrt(np.maximum(self.seg_norm_sq(x), 0.0))))

    def total(self, x, w, fwd=None):
        r = self._resid_vec((self._forward(x) if fwd is None else fwd)[2][-1])
        return self.length(x) + w * float(r @ r)

    def gradient(self, x, w, fwd=None):
        """Exact gradient of length + w * residual^2, by reverse mode.

        ``fwd`` is ``_forward(x)`` when the caller already has it.
        """
        a, e, pre = self._forward(x) if fwd is None else fwd
        m = pre[-1]
        mm = m[: self.d, : self.d]
        r, dz = self._residual(m)
        # d/dM of w ||M J_R G(M) - J_T||^2; G is self-adjoint in tr(X^T Y)
        gm = np.zeros_like(m)
        gm[: self.d, : self.d] = (2.0 * w) * (
            r @ group_inverse(mm, self.kind).T @ self.jr.T
            + group_inverse(self.jr.T @ mm.T @ r, self.kind)
        )
        if dz is not None:
            gm[: self.d, self.d] = (2.0 * w) * dz
        # G_{E_k} = S_k^T G_M P_k^T
        ge = np.swapaxes(_suffixes(e), -1, -2) @ gm @ np.swapaxes(pre[:-1], -1, -2)
        ga = _frechet_exp(np.swapaxes(a, -1, -2), ge)
        g = ga.reshape(self.K, -1) @ self.dirs_flat.T
        # length term; 0 on a zero segment, where the norm has a kink
        root = np.sqrt(np.maximum(self.seg_norm_sq(x), 0.0))[:, None]
        gx = x @ self.gram
        return g + np.divide(gx, root, out=np.zeros_like(gx), where=root > 0.0)

    def _jacobian(self, fwd):
        """Jacobian of the residual vector in x, by forward mode."""
        a, e, pre = fwd
        de = _frechet_exp(a[:, None], self.dirs[None])
        dm = _suffixes(e)[:, None] @ de @ pre[:-1, None]
        mm = pre[-1][: self.d, : self.d]
        dmm = dm[..., : self.d, : self.d]
        ginv = group_inverse(mm, self.kind)
        dr = dmm @ (self.jr @ ginv) + (mm @ self.jr) @ group_inverse(dmm, self.kind)
        cols = dr.reshape(self.K, self.ncoord, -1)
        if self.displaced:
            cols = np.concatenate([cols, dm[..., : self.d, self.d]], axis=2)
        return cols.reshape(self.K * self.ncoord, -1).T

    def minimize(self, x0):
        x = x0.copy()
        fwd = self._forward(x)
        step = 0.1
        for w, max_iter in zip(PENALTY_SCHEDULE, STAGE_ITERATIONS):
            f = self.total(x, w, fwd)
            for _ in range(max_iter):
                g = self.gradient(x, w, fwd)
                gn2 = float(np.sum(g * g))
                if gn2 < 1e-20:
                    break
                trial = min(step * 2.0, 10.0 / np.sqrt(gn2)) if gn2 > 100.0 else step * 2.0
                accepted = False
                with np.errstate(over="ignore", invalid="ignore"):
                    for _ in range(40):
                        xn = x - trial * g
                        fwd_n = self._forward(xn)
                        fn = self.total(xn, w, fwd_n)
                        if fn < f - 1e-4 * trial * gn2:
                            x, f, fwd, step = xn, fn, fwd_n, trial
                            accepted = True
                            break
                        trial *= 0.5
                if not accepted:
                    break
        return x

    def restore(self, x):
        """Levenberg-Marquardt descent on the constraint residual alone.

        The penalty stages leave a bias of order lambda / w off the
        constraint manifold; restoring feasibility moves the path by
        O(residual) and therefore changes the length only marginally,
        while guaranteeing the reported length belongs to a genuine
        near-feasible path.  Damping handles the rank deficiency of the
        endpoint Jacobian (the endpoint cannot leave the orbit of the
        reference complex structure).  Returns the restored x and the
        norm of its residual vector.
        """
        fwd = self._forward(x)
        r = self._resid_vec(fwd[2][-1])
        r2 = float(r @ r)
        lam = 1e-4
        for _ in range(RESTORE_ITERATIONS):
            if r2 < RESTORE_TOL * RESTORE_TOL:
                break
            u, s, vt = np.linalg.svd(self._jacobian(fwd), full_matrices=False)
            if s[0] == 0.0:
                break
            utr = u.T @ r
            accepted = False
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(12):
                    coef = s / (s * s + lam * s[0] * s[0])
                    delta = (vt.T * coef) @ utr
                    xn = x - delta.reshape(self.K, self.ncoord)
                    fwd_n = self._forward(xn)
                    rn = self._resid_vec(fwd_n[2][-1])
                    r2n = float(rn @ rn)
                    if r2n < r2:
                        x, r, r2, fwd = xn, rn, r2n, fwd_n
                        lam = max(lam * 0.3, 1e-12)
                        accepted = True
                        break
                    lam *= 8.0
            if not accepted:
                break
        return x, float(np.linalg.norm(r))

    def warm_start(self):
        """The closed-form geodesic: log(Delta) / 2K per segment, whitened."""
        flat = self.basis.reshape(self.D, -1).T
        coeff = np.linalg.lstsq(
            flat, (self.log_delta / (2.0 * self.K)).ravel(), rcond=None
        )[0]
        x = np.tile(coeff, (self.K, 1))
        if not self.displaced:
            return x
        u = np.tile(self.z_rate / self.K, (self.K, 1))
        return np.concatenate([x, u], axis=1)

    def to_path(self, x, resid):
        v = np.einsum("kd,dij->kij", x[:, : self.D], self.basis)
        return GroupPath(
            v,
            self.kind,
            displacement_increments=x[:, self.D :] if self.displaced else None,
            converged=resid < CONSTRAINT_TOL,
            constraint_residual=resid,
        )


def minimize_to_target(
    reference: GaussianState,
    target: GaussianState,
    segments: int = 16,
    restarts: int = 5,
    seed: int = 0,
):
    """Best discretized path to the target and its length.

    Restart 0 starts from the closed-form geodesic increments
    log(Delta)/(2K); the remaining restarts start from small random
    increments.  Each restart runs the penalty stages and then one
    Levenberg-Marquardt restore; there is no projection step.  Among the
    attempts that meet the constraint residual the shortest wins; when
    none does, the one with the smallest residual is returned with
    ``converged = False``.  Ties keep the earlier restart.
    """
    if reference.n_modes > 2:
        raise ValidationError("the oracle is capped at N <= 2")
    if segments < 4:
        raise ValidationError("segments must be >= 4")
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    prob = _Problem(reference, target, segments)
    rng = np.random.default_rng(seed)
    attempts = []
    for restart in range(restarts):
        if restart == 0:
            x0 = prob.warm_start()
        else:
            x0 = rng.normal(scale=0.05, size=(segments, prob.ncoord))
        x, resid = prob.restore(prob.minimize(x0))
        attempts.append((x, prob.length(x), resid))
    x, length, resid = min(
        attempts, key=lambda a: (0, a[1]) if a[2] < CONSTRAINT_TOL else (1, a[2])
    )
    return prob.to_path(x, resid), length


@dataclass(frozen=True)
class StationarityReport:
    """Directional-derivative magnitudes for endpoint-fixing perturbations."""

    derivatives: np.ndarray
    threshold: float

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.derivatives).max())

    @property
    def passed(self) -> bool:
        return self.max_abs < self.threshold


def _log_principal(m: np.ndarray) -> np.ndarray:
    """Real principal logarithm via complex eigendecomposition.

    Raises BranchCut when an eigenvalue lies within BRANCH_CUT_MARGIN of
    the negative real axis, Singular for non-invertible input, and a
    NumericDomainError when the residual ||e^L - m|| shows the
    eigenvector basis was too ill-conditioned.
    """
    w, vecs = np.linalg.eig(m)
    scale = np.abs(w).max() if w.size else 0.0
    if scale == 0.0 or np.abs(w).min() < 1e-14 * scale:
        raise Singular("matrix log: input is numerically singular")
    bad = np.abs(np.angle(w)) > np.pi - BRANCH_CUT_MARGIN
    if np.any(bad):
        raise BranchCut(
            f"matrix log: eigenvalue {w[bad][0]:.6g} within the "
            "branch-cut margin of the negative real axis"
        )
    log_m = ((vecs * np.log(w)) @ np.linalg.inv(vecs)).real
    resid = np.linalg.norm(matrix_exp_batch(log_m[None])[0] - m) / (1.0 + np.linalg.norm(m))
    if resid > 1e-9:
        raise NumericDomainError(
            f"matrix log: residual {resid:.3e} exceeds tolerance; "
            "input is too ill-conditioned"
        )
    return log_m


def check_stabilizer_geodesic(
    v: LieAlgebraElement, perturbation_count: int = 50, seed: int = 0
) -> StationarityReport:
    """First-order stationarity of the curve t -> e^{tV} at fixed endpoints.

    Each perturbation displaces the first K-1 increments by random
    algebra elements of unit total g_1 norm; the last increment is
    recomputed through the matrix logarithm so the endpoint is exact.
    The reported numbers are central-difference directional derivatives
    of the discretized length under the vacuum g_1; for a squeezed
    reference pass the whitened generator H^{-1} V H.
    """
    vm = v.v
    k_seg = STATIONARITY_SEGMENTS
    base = vm / k_seg
    target = matrix_exp_batch(vm[None])[0]
    basis = algebra_basis(v.algebra, v.n_modes)
    mats = np.stack([b.v for b in basis])
    rng = np.random.default_rng(seed)

    def length_at(deltas, eps):
        incs = base[None] + eps * deltas
        exps = matrix_exp_batch(incs)
        m = np.eye(vm.shape[0])
        for k in range(k_seg - 1):
            m = exps[k] @ m
        last = _log_principal(target @ np.linalg.inv(m))
        total = 0.0
        for k in range(k_seg - 1):
            total += np.sqrt(inner_product_identity(incs[k], incs[k]))
        total += np.sqrt(inner_product_identity(last, last))
        return total

    derivs = np.empty(perturbation_count)
    for p in range(perturbation_count):
        coeff = rng.normal(size=(k_seg - 1, len(basis)))
        deltas = np.einsum("kd,dij->kij", coeff, mats)
        scale = np.sqrt(sum(inner_product_identity(d, d) for d in deltas))
        deltas /= scale
        derivs[p] = (
            length_at(deltas, STATIONARITY_EPSILON) - length_at(deltas, -STATIONARITY_EPSILON)
        ) / (2.0 * STATIONARITY_EPSILON)
    return StationarityReport(derivs, STATIONARITY_THRESHOLD)
