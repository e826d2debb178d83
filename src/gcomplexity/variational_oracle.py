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
gradient), then one Levenberg-Marquardt restore on the exact Jacobian
of the endpoint residual; there is no projection step.  All restarts run
the penalty stages as one stack of paths, and each stacked evaluation
of the line search tries LINE_SEARCH_CANDIDATES step sizes of every
restart still searching; each restart takes exactly the steps it would
take alone.  A line search ends as soon as every restart still trying
has accepted a step, which in most iterations is after its first
stacked evaluation.  Overflow and invalid-value warnings are silenced
once per penalty search, over its gradients as well as its trial
steps.  At most MAX_RESTARTS restarts and MAX_STACK_SEGMENTS segments
over all restarts are taken, which bounds the stack's memory.
One reverse sweep differentiates the residual: it pulls a residual
cotangent back through the prefix and suffix products and the adjoint
Frechet derivative of exp, from the block-triangular identity
exp([[X, Y], [0, X]]) = [[e^X, L_exp(X, Y)], [0, e^X]] (Najfeld and
Havel 1995; Al-Mohy and Higham 2009).  The gradient is the sweep of
the residual itself, and the restore's Jacobian the sweep of one unit
cotangent per residual entry.  The stationarity check of
one-parameter subgroups differentiates its discretized length exactly
through the same identity; the module takes no matrix logarithm.
Everything is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coherent import coherent_geodesic
from .complexity_core import relative_complex_structure
from .errors import ValidationError
from .lie_numerics import LieAlgebraElement, algebra_basis, algebra_of_kind, matrix_exp_batch
from .phase_space import GaussianState, StateKind, group_inverse, standard_symplectic_form
from .phase_space import _KINDS, _freeze, _require_int, _require_member

CONSTRAINT_TOL = 1e-6
PENALTY_SCHEDULE = (1e2, 1e3, 1e4, 1e5, 1e6)
STAGE_ITERATIONS = (60, 60, 80, 80, 120)
# Levenberg-Marquardt restore: residual norm it stops at, iteration cap
RESTORE_TOL = 1e-9
RESTORE_ITERATIONS = 20
# line search: step sizes tried per iteration (each half the one before),
# and how many of them one stacked evaluation tries
LINE_SEARCH_TRIES = 40
LINE_SEARCH_CANDIDATES = 3
_HALVINGS = 0.5 ** np.arange(LINE_SEARCH_CANDIDATES)
# restarts per call: they run as one stack, whose arrays peak near 43 MB
# at this cap with K = 16 and N = 2 displaced (~170 kB per restart)
MAX_RESTARTS = 256
# restarts * segments per call: memory grows with the stack's R x K
# segments, so this holds it to the 43 MB of R = 256 at K = 16
MAX_STACK_SEGMENTS = MAX_RESTARTS * 16
# check_stabilizer_geodesic: path segments, pass bound
STATIONARITY_SEGMENTS = 8
STATIONARITY_THRESHOLD = 1e-6


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "kind", _require_member("kind", self.kind, _KINDS))
        inc = _freeze(self.increments, "increments")
        if inc.ndim != 3 or inc.shape[1] != inc.shape[2]:
            raise ValidationError("increments must have shape (K, 2N, 2N)")
        if inc.shape[0] < 4:
            raise ValidationError("a path needs at least K = 4 segments")
        object.__setattr__(self, "increments", inc)
        if self.displacement_increments is not None:
            u = _freeze(self.displacement_increments, "displacement_increments")
            if u.shape != inc.shape[:2]:
                raise ValidationError("displacement increments must have shape (K, 2N)")
            object.__setattr__(self, "displacement_increments", u)


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


class _Forward(NamedTuple):
    """A stack of paths evaluated forward, each field with the stack's leading axes.

    Generators A_k, E_k = e^{A_k}, prefixes P_k = E_{k-1} ... E_0 (K + 1
    of them; P_K is the endpoint M = S_k E_k P_k), the group inverse of
    M's linear block, and the residual vector: R = M J_R M^{-1} - J_T
    raveled, then z - z_T for a displaced target.
    """

    a: np.ndarray
    e: np.ndarray
    pre: np.ndarray
    ginv: np.ndarray
    resid: np.ndarray

    def put(self, index, src, pick):
        """Overwrite the paths ``index`` with the paths ``pick`` of ``src``."""
        self.a[index] = src.a[pick]
        self.e[index] = src.e[pick]
        self.pre[index] = src.pre[pick]
        self.ginv[index] = src.ginv[pick]
        self.resid[index] = src.resid[pick]


class _Problem:
    """Penalty objective for one (reference, target) pair, in the vacuum frame.

    Both kinds are whitened by the pencil's frame H (1 for fermions): J_R
    becomes Omega for bosons, J_T and z_T become H^{-1} J_T H and H^{-1} z_T,
    log Delta becomes U diag(logs) U^H, and the metric the Frobenius gram.
    Coordinate c of segment k moves the generator A_k along dirs[c]: the
    algebra basis, plus for a displaced target the unit displacement
    columns of the affine generator [[V, u], [0, 0]].  Derivatives are
    exact and come from one reverse sweep, ``_pullback``, through the
    adjoint Frechet derivative of exp: the gradient pulls back the
    penalty's residual, the restore Jacobian one unit cotangent per
    residual entry.  A path is x of shape (K, ncoord); ``_forward``,
    ``total``, ``length`` and ``gradient`` take a stack of them, shape
    (..., K, ncoord), and treat each path as they would alone, bit for
    bit; ``total`` and ``gradient`` read the stack's ``_forward(x)``.
    """

    def __init__(self, reference, target, segments):
        self.kind = reference.kind
        self.d = 2 * reference.n_modes
        self.K = segments
        self.basis = algebra_basis(algebra_of_kind(self.kind), reference.n_modes)
        self.D = len(self.basis)
        self.displaced = bool(np.any(target.z != 0.0))
        geo = coherent_geodesic(reference, target) if self.displaced else None
        pencil = relative_complex_structure(reference, target) if geo is None else geo.delta
        fermion = self.kind is StateKind.FERMION
        self.jr = reference.j if fermion else standard_symplectic_form(reference.n_modes)
        self.jt = pencil.inv_half @ target.j @ pencil.half
        self.log_delta = ((pencil.u * pencil.logs) @ pencil.u.conj().T).real
        if geo is not None:
            self.z_t = pencil.inv_half @ target.z
            self.z_rate = pencil.inv_half @ (0.5 * geo.n_matrix @ target.z)
        self.ncoord = self.D + (self.d if self.displaced else 0)
        da = self.d + 1 if self.displaced else self.d
        self.eye = np.eye(da)
        self.dirs = np.zeros((self.ncoord, da, da))
        self.dirs[: self.D, : self.d, : self.d] = self.basis
        if self.displaced:
            self.dirs[self.D :, : self.d, self.d] = self.eye[: self.d, : self.d]
        self.dirs_flat = self.dirs.reshape(self.ncoord, -1)
        # g_1 on the coordinates; the displacement part is Euclidean
        flat = self.basis.reshape(self.D, -1)
        self.gram = np.eye(self.ncoord)
        self.gram[: self.D, : self.D] = 0.5 * (flat @ flat.T)

    def _forward(self, x):
        lead = x.shape[:-2]
        a = (x @ self.dirs_flat).reshape(*x.shape[:-1], *self.eye.shape)
        e = matrix_exp_batch(a)
        pre = np.empty(lead + (self.K + 1,) + self.eye.shape)
        pre[..., 0, :, :] = self.eye
        for k in range(self.K):
            np.matmul(e[..., k, :, :], pre[..., k, :, :], out=pre[..., k + 1, :, :])
        mm = pre[..., -1, : self.d, : self.d]
        ginv = group_inverse(mm, self.kind)
        resid = (mm @ self.jr @ ginv - self.jt).reshape(*lead, -1)
        if self.displaced:
            resid = np.concatenate([resid, pre[..., -1, : self.d, self.d] - self.z_t], axis=-1)
        return _Forward(a, e, pre, ginv, resid)

    def _suffixes(self, e):
        """S_k = E_{K-1} ... E_{k+1} for a stack E_0, ..., E_{K-1} (axis -3)."""
        suf = np.empty_like(e)
        suf[..., -1, :, :] = self.eye
        for k in range(self.K - 1, 0, -1):
            np.matmul(suf[..., k, :, :], e[..., k, :, :], out=suf[..., k - 1, :, :])
        return suf

    def length(self, x):
        return np.sum(np.sqrt(np.maximum(((x @ self.gram) * x).sum(axis=-1), 0.0)), axis=-1)

    def total(self, x, w, fwd):
        return self.length(x) + w * np.vecdot(fwd.resid, fwd.resid)

    def _pullback(self, fwd, scale, rbar):
        """scale * J^T rbar, shape (..., K, ncoord), by reverse mode.

        J is the Jacobian of the residual vector in x at the paths ``fwd``;
        ``rbar`` is a stack of residual cotangents (..., m), whose leading
        axes broadcast against the paths'.
        """
        a, e, pre, ginv, _ = fwd
        d = self.d
        mm = pre[..., -1, :d, :d]
        r = rbar[..., : d * d].reshape(*rbar.shape[:-1], d, d)
        # d/dM of <rbar, M J_R G(M) - J_T>; G is self-adjoint in tr(X^T Y)
        gm = scale * (r @ ginv.mT @ self.jr.T + group_inverse(self.jr.T @ mm.mT @ r, self.kind))
        if self.displaced:
            # the affine block [[G_M, scale * rbar_z], [0, 0]]
            lin, gm = gm, np.zeros(gm.shape[:-2] + self.eye.shape)
            gm[..., :d, :d] = lin
            gm[..., :d, d] = scale * rbar[..., d * d :]
        # G_{E_k} = S_k^T G_M P_k^T
        ge = self._suffixes(e).mT @ gm[..., None, :, :] @ pre[..., :-1, :, :].mT
        ga = _frechet_exp(a.mT, ge)
        return ga.reshape(*ga.shape[:-2], -1) @ self.dirs_flat.T

    def gradient(self, x, w, fwd):
        """Exact gradient of length + w * residual^2 at the paths ``fwd = _forward(x)``."""
        g = self._pullback(fwd, 2.0 * w, fwd.resid)
        # length term; 0 on a zero segment, where the norm has a kink
        gx = x @ self.gram
        root = np.sqrt(np.maximum((gx * x).sum(axis=-1), 0.0))[..., None]
        return g + np.divide(gx, root, out=np.zeros_like(gx), where=root > 0.0)

    def _jacobian(self, fwd):
        """Jacobian of one path's residual vector in x: the pullback of each unit cotangent."""
        m = fwd.resid.shape[-1]
        return self._pullback(fwd, 1.0, np.eye(m)).reshape(m, -1)

    def minimize(self, x0):
        """Penalty stages on a stack of starts x0 (R, K, ncoord), all at once.

        Each stage is plain gradient descent with a backtracking line
        search.  A path whose gradient vanishes or that accepts no step
        is masked out of the search for the rest of the stage, its row
        left as it is, and searches again at the next stage; every path
        takes the steps it would take alone.  A line search ends once
        every path still trying has taken a step.  Overflow and invalid
        values are ignored over the whole search, the first evaluation
        and every gradient included: a trial step too long for exp gives
        an infinite or NaN objective, which the line search rejects.
        """
        x = x0.copy()
        step = np.full(len(x), 0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            fwd = self._forward(x)
            for w, max_iter in zip(PENALTY_SCHEDULE, STAGE_ITERATIONS):
                f = self.total(x, w, fwd)
                searching = np.ones(len(x), dtype=bool)
                for _ in range(max_iter):
                    g = self.gradient(x, w, fwd)
                    searching = self._line_search(x, fwd, f, step, g, w, searching)
                    if not searching.any():
                        break
        return x

    def _line_search(self, x, fwd, f, step, g, w, searching):
        """One backtracking descent step for each searching path, in place.

        A path outside the mask ``searching``, or whose gradient vanishes
        (g.g < 1e-20), stays.  The others try trial * 2^-j for j = 0, 1,
        ..., LINE_SEARCH_TRIES - 1, LINE_SEARCH_CANDIDATES values of j
        per stacked evaluation, and take the first step that lowers the
        objective by at least 1e-4 * step * g.g, which is the step halving
        one at a time would take.  When every path tries, the stack reads
        x by a slice; when every path still trying accepts a step, the
        search ends with no more bookkeeping.  x, fwd, f and step are
        overwritten on the paths that take a step; returns their mask.
        """
        gn2 = (g * g).reshape(len(g), -1).sum(axis=1)
        trial = step * 2.0
        steep = gn2 > 100.0
        trial[steep] = np.minimum(trial[steep], 10.0 / np.sqrt(gn2[steep]))
        moved = np.zeros(len(x), dtype=bool)
        trying = np.flatnonzero(searching & (gn2 >= 1e-20))  # the paths still trying
        # a slice while every path tries, so that the stack reads x without a copy
        idx = slice(None) if len(trying) == len(x) else trying
        for j in range(0, LINE_SEARCH_TRIES, LINE_SEARCH_CANDIDATES):
            if not len(trying):
                break
            cand = trial[idx, None] * _HALVINGS[: LINE_SEARCH_TRIES - j]
            xn = x[idx, None] - cand[..., None, None] * g[idx, None]
            fwd_n = self._forward(xn)
            fn = self.total(xn, w, fwd_n)
            ok = fn < f[idx, None] - 1e-4 * cand * gn2[idx, None]
            first = ok.argmax(axis=1)
            hit = ok.any(axis=1)
            done = hit.all()
            if done:
                pick, rows = (np.arange(len(hit)), first), idx
            else:
                pick, rows = (np.flatnonzero(hit), first[hit]), trying[hit]
            x[rows], f[rows], step[rows] = xn[pick], fn[pick], cand[pick]
            fwd.put(rows, fwd_n, pick)
            moved[rows] = True
            if done:
                break
            idx = trying = trying[~hit]
            trial *= 0.5**LINE_SEARCH_CANDIDATES
        return moved

    def restore(self, x):
        """Levenberg-Marquardt descent on the constraint residual alone.

        The penalty stages leave a bias of order lambda / w off the
        constraint manifold; restoring feasibility moves the path by
        O(residual) and therefore changes the length only marginally,
        while guaranteeing the reported length belongs to a genuine
        near-feasible path.  Damping handles the rank deficiency of the
        endpoint Jacobian (the endpoint cannot leave the orbit of the
        reference complex structure).  Each path of the stack x
        (R, K, ncoord) is restored on its own: it takes 2-3 iterations,
        and a stacked Jacobian would hold R K m Frechet blocks at once,
        for m residual entries.  Returns the restored stack and the norm
        of each path's residual vector.
        """
        out = np.empty_like(x)
        norms = np.empty(len(x))
        for p, xp in enumerate(x):
            fwd = self._forward(xp)
            r = fwd.resid
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
                        xn = xp - delta.reshape(self.K, self.ncoord)
                        fwd_n = self._forward(xn)
                        rn = fwd_n.resid
                        r2n = float(rn @ rn)
                        if r2n < r2:
                            xp, r, r2, fwd = xn, rn, r2n, fwd_n
                            lam = max(lam * 0.3, 1e-12)
                            accepted = True
                            break
                        lam *= 8.0
                if not accepted:
                    break
            out[p], norms[p] = xp, np.linalg.norm(r)
        return out, norms

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
    increments.  The restarts run the penalty stages as one stack, each
    line-search call trying LINE_SEARCH_CANDIDATES step sizes of every
    restart still descending, and then one Levenberg-Marquardt restore
    each; there is no projection step.  At most MAX_RESTARTS restarts,
    and MAX_STACK_SEGMENTS segments over all restarts, are taken, which
    bounds the stack's memory.  ``segments`` (>= 4), ``restarts`` (>= 1)
    and ``seed`` (>= 0) must be integers, not bool, checked in that
    order with the segment cap before ``seed`` (ValidationError
    otherwise).  Among the attempts that meet the constraint residual
    the shortest wins; when none does, the one with the smallest
    residual is returned with ``converged = False``.  Ties keep the
    earlier restart.
    """
    if reference.n_modes > 2:
        raise ValidationError("the oracle is capped at N <= 2")
    _require_int("segments", segments, 4)
    _require_int("restarts", restarts, 1, MAX_RESTARTS)
    if restarts * segments > MAX_STACK_SEGMENTS:
        raise ValidationError(f"restarts * segments must be <= {MAX_STACK_SEGMENTS}")
    _require_int("seed", seed, 0)
    prob = _Problem(reference, target, segments)
    rng = np.random.default_rng(seed)
    x0 = np.concatenate([
        prob.warm_start()[None],
        rng.normal(scale=0.05, size=(restarts - 1, segments, prob.ncoord)),
    ])
    x, resid = prob.restore(prob.minimize(x0))
    length = prob.length(x)
    best = min(
        range(restarts),
        key=lambda i: (0, length[i]) if resid[i] < CONSTRAINT_TOL else (1, resid[i]),
    )
    return prob.to_path(x[best], float(resid[best])), float(length[best])


@dataclass(frozen=True, eq=False)
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
    v: LieAlgebraElement, perturbation_count: int = 50, seed: int = 0
) -> StationarityReport:
    """First-order stationarity of the curve t -> e^{tV} at fixed endpoints.

    The curve is K = STATIONARITY_SEGMENTS equal increments X = V/K.
    Each perturbation displaces the first K-1 increments by random
    algebra elements Delta_k of unit total g_1 norm, and the last
    increment follows so that the endpoint stays e^V.  The reported
    numbers are the exact directional derivatives of the discretized
    length under the vacuum g_1; for a squeezed reference pass the
    whitened generator H^{-1} V H.

    With E = e^X, the last increment moves by L' with
    L_exp(X, L') = R = -sum_k E^{K-1-k} L_exp(X, Delta_k) E^{k+1-K},
    and its length by g_1(X, L') / |X| = 1/2 Tr(W R^T) / |X|, where
    L_exp(X^T, W) = X (L_exp(X^T, .) is the Frobenius adjoint of
    L_exp(X, .)).  No logarithm is taken, so the last increment stays on
    the branch through X however large V is.  ``perturbation_count``
    must be an integer >= 1 and ``seed`` one >= 0, neither a bool
    (ValidationError otherwise).
    """
    _require_int("perturbation_count", perturbation_count, 1)
    _require_int("seed", seed, 0)
    k_seg = STATIONARITY_SEGMENTS
    x = v.v / k_seg
    d = x.shape[0]
    norm = np.sqrt(0.5 * np.vdot(x, x))
    if norm == 0.0:
        return StationarityReport(np.zeros(perturbation_count), STATIONARITY_THRESHOLD)
    mats = algebra_basis(v.algebra, v.n_modes)
    coeff = np.random.default_rng(seed).normal(size=(perturbation_count, k_seg - 1, len(mats)))
    deltas = np.einsum("pkd,dij->pkij", coeff, mats)
    deltas /= np.sqrt(0.5 * np.einsum("pkij,pkij->p", deltas, deltas))[:, None, None, None]
    # pw[j + K - 1] = E^j for j = -(K-1), ..., K-1
    pw = matrix_exp_batch(np.arange(1 - k_seg, k_seg)[:, None, None] * x)
    # E^{K-1-k} and E^{k+1-K} for k = 0, ..., K-2
    left, right = pw[2 * k_seg - 2 : k_seg - 1 : -1], pw[: k_seg - 1]
    r = -(left @ _frechet_exp(x, deltas) @ right).sum(axis=1)
    # row c of the stack is L_exp(X^T, U_c) for the unit matrix U_c
    units = _frechet_exp(x.T, np.eye(d * d).reshape(d * d, d, d)).reshape(d * d, d * d)
    w = np.linalg.solve(units.T, x.ravel())
    derivs = 0.5 * (np.einsum("pkij,ij->p", deltas, x) + r.reshape(-1, d * d) @ w) / norm
    return StationarityReport(derivs, STATIONARITY_THRESHOLD)
