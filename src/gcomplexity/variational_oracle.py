r"""Independent verification by discretized path-length minimization.

A path on the group is parametrized by Lie-algebra increments:
M_k = exp(V_k) M_{k-1} with M_0 = 1, optionally with displacement
increments u_k for bosons, in which case

    z_k = e^{V_k} z_{k-1} + phi_1(V_k) u_k,   phi_1(V) = (e^V - 1) V^{-1}.

Right-invariance makes each segment cost depend only on its increment,
so the discretized length is sum_k sqrt(g_1(V_k, V_k) + u_k^T
sigma_R^{-1} u_k).  The length is minimized subject to the endpoint
constraint by a quadratic penalty with an increasing weight schedule;
the inner optimizer is plain gradient descent with backtracking line
search on central-difference gradients.  Everything is seeded and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherent import coherent_geodesic
from .complexity_core import relative_complex_structure
from .errors import ValidationError
from .lie_numerics import (
    LieAlgebraElement,
    algebra_basis,
    algebra_of_kind,
    inner_product_identity,
    matrix_exp_batch,
    matrix_log_principal,
)
from .phase_space import GaussianState, StateKind, standard_symplectic_form

CONSTRAINT_TOL = 1e-6
PENALTY_SCHEDULE = (1e2, 1e3, 1e4, 1e5, 1e6)
FD_STEP = 1e-5
STAGE_ITERATIONS = (60, 60, 80, 80, 120)


@dataclass(frozen=True)
class GroupPath:
    """Discretized group trajectory given by Lie-algebra increments."""

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


def path_length(path: GroupPath, sigma_R=None) -> float:
    """Sum of per-segment g_1 norms of the increments."""
    v = path.increments
    sq = 0.5 * np.einsum("kij,kij->k", v, v)
    if sigma_R is not None:
        sig = sigma_R.sigma if hasattr(sigma_R, "sigma") else np.asarray(sigma_R, float)
        if not np.array_equal(sig, np.eye(v.shape[1])):
            sig_inv = np.linalg.inv(sig)
            sq = np.array(
                [0.5 * np.trace(vk @ sig @ vk.T @ sig_inv) for vk in v]
            )
    if path.displacement_increments is not None:
        u = path.displacement_increments
        if sigma_R is None:
            sq = sq + np.einsum("ki,ki->k", u, u)
        else:
            sig = sigma_R.sigma if hasattr(sigma_R, "sigma") else np.asarray(sigma_R, float)
            sq = sq + np.einsum("ki,ij,kj->k", u, np.linalg.inv(sig), u)
    return float(np.sum(np.sqrt(np.maximum(sq, 0.0))))


class _Problem:
    """Penalty objective for one (reference, target) pair at sigma_R = 1."""

    def __init__(self, reference, target, segments):
        self.kind = reference.kind
        self.d = 2 * reference.n_modes
        self.K = segments
        self.jr = reference.j.j
        self.jt = target.j.j
        self.om = standard_symplectic_form(reference.n_modes).omega
        basis = algebra_basis(algebra_of_kind(self.kind), reference.n_modes)
        self.basis = np.stack([b.v for b in basis])
        self.D = len(basis)
        flat = self.basis.reshape(self.D, -1)
        self.gram = 0.5 * (flat @ flat.T)
        self.displaced = bool(np.any(target.z != 0.0))
        self.z_t = np.asarray(target.z, dtype=float)
        self.ncoord = self.D + (self.d if self.displaced else 0)

    def _group_inverse(self, m):
        if self.kind is StateKind.FERMION:
            return np.swapaxes(m, -1, -2)
        mt = np.swapaxes(m, -1, -2)
        return -self.om @ mt @ self.om

    def _split(self, x):
        return (x[:, : self.D], x[:, self.D :]) if self.displaced else (x, None)

    def _exps(self, x):
        """Segment exponentials; augmented with the displacement column."""
        xv, xu = self._split(x)
        v = np.einsum("kd,dij->kij", xv, self.basis)
        if not self.displaced:
            return matrix_exp_batch(v)
        aug = np.zeros((self.K, self.d + 1, self.d + 1))
        aug[:, : self.d, : self.d] = v
        aug[:, : self.d, self.d] = xu
        return matrix_exp_batch(aug)

    def _endpoint(self, e):
        m = np.eye(e.shape[-1])
        for k in range(self.K):
            m = e[k] @ m
        return m

    def _resid_sq(self, m_aug):
        if self.displaced:
            m = m_aug[: self.d, : self.d]
            z = m_aug[: self.d, self.d]
        else:
            m = m_aug
        r = m @ self.jr @ self._group_inverse(m) - self.jt
        out = float(np.sum(r * r))
        if self.displaced:
            dz = z - self.z_t
            out += float(dz @ dz)
        return out

    def seg_norm_sq(self, x):
        xv, xu = self._split(x)
        q = np.einsum("kd,de,ke->k", xv, self.gram, xv)
        if self.displaced:
            q = q + np.einsum("ki,ki->k", xu, xu)
        return q

    def length(self, x):
        return float(np.sum(np.sqrt(np.maximum(self.seg_norm_sq(x), 0.0))))

    def constraint_residual(self, x):
        return float(np.sqrt(self._resid_sq(self._endpoint(self._exps(x)))))

    def total(self, x, w):
        return self.length(x) + w * self._resid_sq(self._endpoint(self._exps(x)))

    def _perturbed_residuals(self, x, eps):
        """Endpoint residuals under +/- eps shifts of every coordinate.

        Perturbing one coordinate of segment k changes only that
        segment's exponential, so the perturbed endpoints reuse cached
        prefix and suffix products.  Returns (rr, dz) with rr of shape
        (K, ncoord, 2, d, d) and dz of shape (K, ncoord, 2, d) or None.
        """
        e = self._exps(x)
        da = e.shape[-1]
        pre = np.empty((self.K, da, da))
        suf = np.empty((self.K, da, da))
        p = np.eye(da)
        for k in range(self.K):
            pre[k] = p
            p = e[k] @ p
        s = np.eye(da)
        for k in range(self.K - 1, -1, -1):
            suf[k] = s
            s = s @ e[k]
        xv, xu = self._split(x)
        v = np.einsum("kd,dij->kij", xv, self.basis)
        aug = np.zeros((self.K, da, da))
        aug[:, : self.d, : self.d] = v
        if self.displaced:
            aug[:, : self.d, self.d] = xu
        # perturbation directions in the augmented algebra
        dirs = np.zeros((self.ncoord, da, da))
        dirs[: self.D, : self.d, : self.d] = self.basis
        if self.displaced:
            for i in range(self.d):
                dirs[self.D + i, i, self.d] = 1.0
        pert = (
            aug[:, None, None, :, :]
            + np.array([eps, -eps])[None, None, :, None, None]
            * dirs[None, :, None, :, :]
        )
        ep = matrix_exp_batch(pert.reshape(-1, da, da)).reshape(
            self.K, self.ncoord, 2, da, da
        )
        mp = np.einsum("kab,kcubd,kde->kcuae", suf, ep, pre, optimize=True)
        if self.displaced:
            mm = mp[..., : self.d, : self.d]
            zz = mp[..., : self.d, self.d]
        else:
            mm = mp
        minv = self._group_inverse(mm)
        rr = np.einsum("kcuab,bz,kcuze->kcuae", mm, self.jr, minv, optimize=True) - self.jt
        dz = (zz - self.z_t) if self.displaced else None
        return rr, dz

    def gradient(self, x, w, eps=FD_STEP, length_term=True):
        """Central-difference gradient of length + w * residual^2.

        With ``length_term=False`` the gradient is of the constraint
        residual alone.
        """
        rr, dz = self._perturbed_residuals(x, eps)
        xv, xu = self._split(x)
        pen = np.einsum("kcuae,kcuae->kcu", rr, rr)
        if dz is not None:
            pen = pen + np.einsum("kcui,kcui->kcu", dz, dz)
        tot = w * pen
        if length_term:
            # length term from the quadratic form expansion
            q0 = self.seg_norm_sq(x)
            gx = np.zeros((self.K, self.ncoord))
            gx[:, : self.D] = xv @ self.gram
            diag = np.ones(self.ncoord)
            diag[: self.D] = np.diag(self.gram)
            if self.displaced:
                gx[:, self.D :] = xu
            qp = (
                q0[:, None, None]
                + 2.0 * eps * np.array([1.0, -1.0])[None, None, :] * gx[:, :, None]
                + eps * eps * diag[None, :, None]
            )
            lenp = np.sqrt(np.maximum(qp, 0.0))
            base = np.sqrt(np.maximum(q0, 0.0))
            tot = tot + lenp - base[:, None, None]
        return (tot[:, :, 0] - tot[:, :, 1]) / (2.0 * eps)

    def minimize(self, x0):
        x = x0.copy()
        step = 0.1
        for w, max_iter in zip(PENALTY_SCHEDULE, STAGE_ITERATIONS):
            f = self.total(x, w)
            for _ in range(max_iter):
                g = self.gradient(x, w)
                gn2 = float(np.sum(g * g))
                if gn2 < 1e-20:
                    break
                trial = min(step * 2.0, 10.0 / np.sqrt(gn2)) if gn2 > 100.0 else step * 2.0
                accepted = False
                with np.errstate(over="ignore", invalid="ignore"):
                    for _ in range(40):
                        xn = x - trial * g
                        fn = self.total(xn, w)
                        if fn < f - 1e-4 * trial * gn2:
                            x, f, step = xn, fn, trial
                            accepted = True
                            break
                        trial *= 0.5
                if not accepted:
                    break
        return x

    def _resid_parts(self, m_aug):
        """Flattened endpoint residual vector."""
        if self.displaced:
            m = m_aug[: self.d, : self.d]
            z = m_aug[: self.d, self.d]
        else:
            m = m_aug
        rm = (m @ self.jr @ self._group_inverse(m) - self.jt).ravel()
        if not self.displaced:
            return rm
        return np.concatenate([rm, z - self.z_t])

    def restore(self, x, tol=1e-9, max_iter=20, eps=FD_STEP):
        """Levenberg-Marquardt descent on the constraint residual alone.

        The penalty stages leave a bias of order lambda / w off the
        constraint manifold; restoring feasibility moves the path by
        O(residual) and therefore changes the length only marginally,
        while guaranteeing the reported length belongs to a genuine
        near-feasible path.  Damping handles the rank deficiency of the
        endpoint Jacobian (the endpoint cannot leave the orbit of the
        reference complex structure).
        """
        r = self._resid_parts(self._endpoint(self._exps(x)))
        r2 = float(r @ r)
        lam = 1e-4
        for _ in range(max_iter):
            if r2 < tol * tol:
                break
            rr, dz = self._perturbed_residuals(x, eps)
            cols = (rr[:, :, 0] - rr[:, :, 1]).reshape(self.K, self.ncoord, -1)
            if dz is not None:
                cols = np.concatenate([cols, dz[:, :, 0] - dz[:, :, 1]], axis=2)
            jac = cols.reshape(self.K * self.ncoord, -1).T / (2.0 * eps)
            u, s, vt = np.linalg.svd(jac, full_matrices=False)
            if s[0] == 0.0:
                break
            utr = u.T @ r
            accepted = False
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(12):
                    coef = s / (s * s + lam * s[0] * s[0])
                    delta = (vt.T * coef) @ utr
                    xn = x - delta.reshape(self.K, self.ncoord)
                    rn = self._resid_parts(self._endpoint(self._exps(xn)))
                    r2n = float(rn @ rn)
                    if r2n < r2:
                        x, r, r2 = xn, rn, r2n
                        lam = max(lam * 0.3, 1e-12)
                        accepted = True
                        break
                    lam *= 8.0
            if not accepted:
                break
        return x

    def project_displacement(self, x):
        """Exact least-norm correction of u onto the z-endpoint constraint.

        z_K depends linearly on the displacement increments,
        z_K = sum_k S_k phi_1(V_k) u_k with S_k the suffix product of
        segment exponentials, so the penalty solution can be snapped
        onto the constraint without touching the matrix part.
        """
        if not self.displaced:
            return x
        xv, xu = self._split(x)
        v = np.einsum("kd,dij->kij", xv, self.basis)
        e = matrix_exp_batch(v)
        suf = np.empty_like(e)
        s = np.eye(self.d)
        for k in range(self.K - 1, -1, -1):
            suf[k] = s
            s = s @ e[k]
        blk = np.zeros((self.K, 2 * self.d, 2 * self.d))
        blk[:, : self.d, : self.d] = v
        blk[:, : self.d, self.d :] = np.eye(self.d)
        phi = matrix_exp_batch(blk)[:, : self.d, self.d :]
        a = suf @ phi
        z_now = np.einsum("kij,kj->i", a, xu)
        amat = a.transpose(1, 0, 2).reshape(self.d, self.K * self.d)
        du = np.linalg.lstsq(amat, self.z_t - z_now, rcond=None)[0]
        return np.concatenate([xv, xu + du.reshape(self.K, self.d)], axis=1)

    def warm_start(self, reference, target):
        geo = coherent_geodesic(reference, target) if self.displaced else None
        rel = relative_complex_structure(reference, target) if geo is None else geo.delta
        flat = self.basis.reshape(self.D, -1).T
        coeff = np.linalg.lstsq(
            flat, (rel.log_delta / (2.0 * self.K)).ravel(), rcond=None
        )[0]
        x = np.tile(coeff, (self.K, 1))
        if geo is None:
            return x
        u = np.tile(0.5 * geo.n_matrix @ self.z_t / self.K, (self.K, 1))
        return np.concatenate([x, u], axis=1)

    def to_path(self, x):
        xv, xu = self._split(x)
        v = np.einsum("kd,dij->kij", xv, self.basis)
        resid = self.constraint_residual(x)
        return GroupPath(
            v,
            self.kind,
            displacement_increments=xu.copy() if self.displaced else None,
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
    increments.  When no restart meets the constraint residual the best
    attempt is returned with ``converged = False``.
    """
    if reference.kind is not target.kind:
        raise ValidationError("reference and target kinds differ")
    if reference.n_modes > 2:
        raise ValidationError("the oracle is capped at N <= 2")
    if segments < 4:
        raise ValidationError("segments must be >= 4")
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    prob = _Problem(reference, target, segments)
    rng = np.random.default_rng(seed)
    best_x = None
    best_len = np.inf
    best_resid = np.inf
    for restart in range(restarts):
        if restart == 0:
            x0 = prob.warm_start(reference, target)
        else:
            x0 = rng.normal(scale=0.05, size=(segments, prob.ncoord))
        x = prob.project_displacement(prob.restore(prob.minimize(x0)))
        length = prob.length(x)
        resid = prob.constraint_residual(x)
        ok = resid < CONSTRAINT_TOL
        better = (
            (ok and (best_resid >= CONSTRAINT_TOL or length < best_len))
            or (not ok and best_resid >= CONSTRAINT_TOL and resid < best_resid)
        )
        if better:
            best_x, best_len, best_resid = x, length, resid
    path = prob.to_path(best_x)
    return path, best_len


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


def check_stabilizer_geodesic(
    v: LieAlgebraElement,
    sigma_R=None,
    perturbation_count: int = 50,
    seed: int = 0,
    segments: int = 8,
    epsilon: float = 3e-5,
    threshold: float = 1e-6,
) -> StationarityReport:
    """First-order stationarity of the curve t -> e^{tV} at fixed endpoints.

    Each perturbation displaces the first K-1 increments by random
    algebra elements of unit total g_1 norm; the last increment is
    recomputed through the matrix logarithm so the endpoint is exact.
    The reported numbers are central-difference directional derivatives
    of the discretized length.
    """
    vm = v.v
    k_seg = segments
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
        last = matrix_log_principal(target @ np.linalg.inv(m))
        total = 0.0
        for k in range(k_seg - 1):
            total += np.sqrt(inner_product_identity(incs[k], incs[k], sigma_R))
        total += np.sqrt(inner_product_identity(last, last, sigma_R))
        return total

    derivs = np.empty(perturbation_count)
    for p in range(perturbation_count):
        coeff = rng.normal(size=(k_seg - 1, len(basis)))
        deltas = np.einsum("kd,dij->kij", coeff, mats)
        scale = np.sqrt(sum(inner_product_identity(d, d, sigma_R) for d in deltas))
        deltas /= scale
        derivs[p] = (length_at(deltas, epsilon) - length_at(deltas, -epsilon)) / (
            2.0 * epsilon
        )
    return StationarityReport(derivs, threshold)
