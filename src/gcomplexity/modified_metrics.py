r"""Weyl-deformed complexity and the non-reversible vector-potential cost.

Weyl deformation rescales the base metric by e^{2 omega(r)}; along the
radial geodesic to a target at radius r the deformed complexity is

    C~ = r * Integral_0^1 e^{omega(tau r)} d tau,

evaluated with composite Simpson quadrature.

The non-reversible machinery lives on the explicit single-mode chart
with line element ds^2 = dr^2 + cosh(2r) sinh^2(r) dphi^2.  A vector
potential A = a_r dr + a_phi dphi (with a_r = -f(r, phi), f >= 0)
shifts the length functional to

    C_gamma = Integral (||gamma'|| + A_i gamma'^i) dt,

which stays nonnegative while ||A||_g <= 1 and produces Lorentz-force
geodesics r'' + Gamma = F^i_j gamma'^j with F_ij = d_i A_j - d_j A_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartBoundary,
    NonFiniteFactor,
    PotentialTooLarge,
    StepTooCoarse,
    ValidationError,
)

CHART_EPS = 1e-12


def metric_phiphi(r):
    """g_phiphi = cosh(2r) sinh^2(r) on the single-mode chart."""
    r = np.asarray(r, dtype=float)
    return np.cosh(2.0 * r) * np.sinh(r) ** 2


def metric_phiphi_dr(r):
    """Analytic d g_phiphi / dr = 2 sinh(2r) sinh^2(r) + cosh(2r) sinh(2r)."""
    r = np.asarray(r, dtype=float)
    return 2.0 * np.sinh(2.0 * r) * np.sinh(r) ** 2 + np.cosh(2.0 * r) * np.sinh(2.0 * r)


@dataclass(frozen=True)
class WeylFactor:
    """Scalar conformal factor omega(r)."""

    fn: object

    @staticmethod
    def constant(c: float) -> "WeylFactor":
        c = float(c)
        if not np.isfinite(c):
            raise ValidationError(f"constant factor must be finite, got {c}")
        return WeylFactor(lambda r: np.full_like(np.asarray(r, dtype=float), c))

    @staticmethod
    def linear(beta: float) -> "WeylFactor":
        beta = float(beta)
        if not np.isfinite(beta):
            raise ValidationError(f"linear factor must be finite, got {beta}")
        return WeylFactor(lambda r: beta * np.asarray(r, dtype=float))

    @staticmethod
    def tabulated(r_values, omega_values) -> "WeylFactor":
        r_values = np.asarray(r_values, dtype=float)
        omega_values = np.asarray(omega_values, dtype=float)
        if r_values.ndim != 1 or r_values.shape != omega_values.shape:
            raise ValidationError("tabulated factor needs matching 1-d r and omega")
        if len(r_values) < 2 or np.any(np.diff(r_values) <= 0.0):
            raise ValidationError("tabulated r values must be strictly increasing")
        if not (np.all(np.isfinite(r_values)) and np.all(np.isfinite(omega_values))):
            raise ValidationError("tabulated factor contains non-finite values")
        from scipy.interpolate import PchipInterpolator  # only --omega table: needs it

        interp = PchipInterpolator(r_values, omega_values, extrapolate=True)
        return WeylFactor(interp)

    def __call__(self, r):
        return np.asarray(self.fn(np.asarray(r, dtype=float)), dtype=float)


def _simpson(values: np.ndarray, step: float) -> float:
    return step / 3.0 * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    )


def weyl_complexity(base_complexity: float, weyl: WeylFactor, quad_steps: int) -> float:
    r"""Deformed complexity r * Integral_0^1 e^{omega(tau r)} d tau."""
    if not isinstance(quad_steps, (int, np.integer)) or quad_steps < 2:
        raise ValidationError("quad_steps must be an integer >= 2")
    if quad_steps % 2 != 0:
        raise ValidationError("quad_steps must be even for Simpson quadrature")
    r = float(base_complexity)
    if r < 0.0:
        raise ValidationError("base_complexity must be nonnegative")
    if r == 0.0:
        return 0.0
    tau = np.linspace(0.0, 1.0, quad_steps + 1)
    vals = np.exp(weyl(tau * r))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteFactor("Weyl factor evaluation is not finite")
    return r * _simpson(vals, 1.0 / quad_steps)


@dataclass(frozen=True)
class VectorPotential:
    """Background 1-form A = a_r dr + a_phi dphi on the chart.

    ``f_rphi`` is the analytic field strength F_rphi = d_r a_phi -
    d_phi a_r.
    """

    a_r: object
    a_phi: object
    f_rphi: object

    @staticmethod
    def none() -> "VectorPotential":
        zero = lambda r, phi: np.zeros_like(np.asarray(r, dtype=float))
        return VectorPotential(zero, zero, zero)

    @staticmethod
    def constant(f0: float) -> "VectorPotential":
        f0 = float(f0)
        if not np.isfinite(f0):
            raise ValidationError(f"constant potential must be finite, got {f0}")
        if f0 < 0.0:
            raise ValidationError("f must be nonnegative")
        zero = lambda r, phi: np.zeros_like(np.asarray(r, dtype=float))
        a_r = lambda r, phi: np.full_like(np.asarray(r, dtype=float), -f0)
        return VectorPotential(a_r, zero, zero)

    @staticmethod
    def gradient(h_coeffs) -> "VectorPotential":
        """A = -dh for a polynomial h(r) = sum_k c_k r^k, coefficients by power."""
        c = np.asarray(h_coeffs, dtype=float)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValidationError("polynomial coefficients must be finite reals")
        dc = c[1:] * np.arange(1, len(c))
        zero = lambda r, phi: np.zeros_like(np.asarray(r, dtype=float))

        def a_r(r, phi):
            r = np.asarray(r, dtype=float)
            return -np.polyval(dc[::-1], r) if len(dc) else np.zeros_like(r)

        return VectorPotential(a_r, zero, zero)

    @staticmethod
    def ripple(f0: float, eps: float) -> "VectorPotential":
        """f(r, phi) = f0 (1 + eps cos phi), a genuinely magnetic example."""
        f0 = float(f0)
        eps = float(eps)
        zero = lambda r, phi: np.zeros_like(np.asarray(r, dtype=float))
        a_r = lambda r, phi: -f0 * (1.0 + eps * np.cos(phi)) * np.ones_like(
            np.asarray(r, dtype=float)
        )
        f_rphi = lambda r, phi: -f0 * eps * np.sin(phi) * np.ones_like(
            np.asarray(r, dtype=float)
        )
        return VectorPotential(a_r, zero, f_rphi)

    def norm_sq(self, r, phi):
        """Squared metric norm g^{ij} A_i A_j, with g_rr = 1."""
        r = np.asarray(r, dtype=float)
        ar = self.a_r(r, phi)
        ap = self.a_phi(r, phi)
        gpp = metric_phiphi(r)
        out = ar * ar
        nz = np.asarray(ap != 0.0)
        if np.any(nz):
            out = out + np.where(gpp > 0.0, ap * ap / np.where(gpp > 0.0, gpp, 1.0), np.inf)
        return out


@dataclass(frozen=True)
class DiscretizedPath:
    """Sampled chart trajectory: samples[i] = (r_i, phi_i) at params[i]."""

    samples: np.ndarray
    params: np.ndarray
    velocities: np.ndarray = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        p = np.asarray(self.params, dtype=float)
        if s.ndim != 2 or s.shape[1] != 2 or s.shape[0] < 2:
            raise ValidationError("samples must be an (n >= 2, 2) array")
        if p.shape != (s.shape[0],):
            raise ValidationError("params length must match samples")
        if np.any(np.diff(p) <= 0.0):
            raise ValidationError("params must be strictly increasing")
        if p[0] < 0.0 or p[-1] > 1.0:
            raise ValidationError("params must lie in [0, 1]")
        if np.any(s[:, 0] < 0.0):
            raise ValidationError("radial coordinate must be nonnegative")
        s = np.ascontiguousarray(s)
        s.setflags(write=False)
        p = np.ascontiguousarray(p)
        p.setflags(write=False)
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "params", p)
        if self.velocities is not None:
            v = np.ascontiguousarray(np.asarray(self.velocities, dtype=float))
            if v.shape != s.shape:
                raise ValidationError("velocities shape must match samples")
            v.setflags(write=False)
            object.__setattr__(self, "velocities", v)

    def reversed(self) -> "DiscretizedPath":
        v = None if self.velocities is None else -self.velocities[::-1]
        return DiscretizedPath(
            self.samples[::-1].copy(), (1.0 - self.params[::-1]).copy(), v
        )


def _cost_terms(path: DiscretizedPath, a: VectorPotential):
    r = path.samples[:, 0]
    phi = path.samples[:, 1]
    gpp = metric_phiphi(r)
    ar = np.asarray(a.a_r(r, phi), dtype=float)
    ap = np.asarray(a.a_phi(r, phi), dtype=float)
    norm_sq = np.asarray(a.norm_sq(r, phi), dtype=float)
    if np.any(norm_sq > 1.0 + 1e-12):
        i = int(np.argmax(norm_sq))
        raise PotentialTooLarge(
            f"||A||_g = {np.sqrt(norm_sq[i]):.6g} > 1 at (r, phi) = "
            f"({r[i]:.6g}, {phi[i]:.6g}); cost positivity is not guaranteed"
        )
    dr = np.diff(r)
    dphi = np.diff(phi)
    gpp_m = 0.5 * (gpp[1:] + gpp[:-1])
    ar_m = 0.5 * (ar[1:] + ar[:-1])
    ap_m = 0.5 * (ap[1:] + ap[:-1])
    seg_len = np.sqrt(dr * dr + gpp_m * dphi * dphi)
    seg_pot = ar_m * dr + ap_m * dphi
    return seg_len, seg_pot


def nonreversible_cost(path: DiscretizedPath, a: VectorPotential = None) -> float:
    r"""Generalized length C = Integral (||gamma'|| + A_i gamma'^i) dt.

    Trapezoidal in the potential and chordal in the length; exact for
    piecewise-linear paths under constant potentials.  Raises
    PotentialTooLarge when ||A||_g > 1 at any sample.
    """
    a = a or VectorPotential.none()
    seg_len, seg_pot = _cost_terms(path, a)
    return float(np.sum(seg_len) + np.sum(seg_pot))


def path_length(path: DiscretizedPath) -> float:
    """Pure metric length of a discretized chart path."""
    seg_len, _ = _cost_terms(path, VectorPotential.none())
    return float(np.sum(seg_len))


def nonreversible_cost_profile(
    path: DiscretizedPath, a: VectorPotential = None
) -> np.ndarray:
    """Cumulative cost at each sample, starting from zero."""
    a = a or VectorPotential.none()
    seg_len, seg_pot = _cost_terms(path, a)
    out = np.zeros(len(path.params))
    np.cumsum(seg_len + seg_pot, out=out[1:])
    return out


def _lorentz_rhs(state, a: VectorPotential):
    r, phi, vr, vphi = state
    gpp = float(metric_phiphi(r))
    dgpp = float(metric_phiphi_dr(r))
    fs = float(a.f_rphi(r, phi))
    ar = 0.5 * dgpp * vphi * vphi + fs * vphi
    aphi = (-dgpp * vr * vphi - fs * vr) / gpp if gpp > 0.0 else 0.0
    return np.array([vr, vphi, ar, aphi])


def lorentz_geodesic(
    start,
    initial_velocity,
    a: VectorPotential = None,
    length: float = 1.0,
    rk_steps: int = 256,
    drift_tol: float = 1e-6,
) -> DiscretizedPath:
    """Integrate the Lorentz-force geodesic with fixed-step classic RK4.

    ``start`` is an (r, phi) pair with r >= 0; start, velocity and length
    must be finite (ValidationError otherwise).  The initial velocity is
    normalized to unit metric speed so the trajectory is
    parametrized by arc length and covers the requested length.  The
    conserved speed is monitored; drift beyond ``drift_tol`` raises
    StepTooCoarse (pass a larger value for deliberate coarse-step
    convergence studies).  Trajectories reaching r = 0 with angular
    motion raise ChartBoundary carrying the partial path.
    """
    a = a or VectorPotential.none()
    r0, phi0 = map(float, start)
    vr0, vphi0 = map(float, initial_velocity)
    if rk_steps < 8:
        raise ValidationError("rk_steps must be >= 8")
    if not np.all(np.isfinite([r0, phi0, vr0, vphi0, length])):
        raise ValidationError("start, velocity and length must be finite")
    if r0 < 0.0:
        raise ValidationError("radial coordinate must be nonnegative")
    if length < 0.0:
        raise ValidationError("length must be nonnegative")
    n = int(rk_steps)
    if r0 < CHART_EPS:
        # the chart is degenerate at the origin: only radial launches
        if vphi0 != 0.0:
            raise ValidationError(
                "angular velocity at r = 0 is outside the chart; start at r > 0"
            )
        if vr0 <= 0.0:
            raise ValidationError("launch from r = 0 requires positive radial velocity")
        s = np.linspace(0.0, length, n + 1)
        samples = np.stack([s, np.full(n + 1, phi0)], axis=1)
        vel = np.tile([1.0, 0.0], (n + 1, 1))
        return DiscretizedPath(samples, s / length if length > 0 else np.linspace(0, 1, n + 1), vel)
    speed = np.sqrt(vr0 * vr0 + float(metric_phiphi(r0)) * vphi0 * vphi0)
    if speed == 0.0:
        raise ValidationError("initial velocity must be nonzero")
    state = np.array([r0, phi0, vr0 / speed, vphi0 / speed])
    h = length / n
    traj = np.empty((n + 1, 4))
    traj[0] = state
    for i in range(n):
        k1 = _lorentz_rhs(state, a)
        k2 = _lorentz_rhs(state + 0.5 * h * k1, a)
        k3 = _lorentz_rhs(state + 0.5 * h * k2, a)
        k4 = _lorentz_rhs(state + h * k3, a)
        state = state + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if state[0] < CHART_EPS:
            partial = DiscretizedPath(
                traj[: i + 1, :2].copy(),
                np.linspace(0.0, i * h / length, i + 1) if i > 0 else None,
                traj[: i + 1, 2:].copy(),
            ) if i > 0 else None
            raise ChartBoundary(
                f"trajectory reached r = 0 after arc length {i * h:.6g}",
                partial_path=partial,
            )
        traj[i + 1] = state
    speeds = np.sqrt(traj[:, 2] ** 2 + metric_phiphi(traj[:, 0]) * traj[:, 3] ** 2)
    drift = float(np.abs(speeds - 1.0).max())
    if drift > drift_tol:
        raise StepTooCoarse(
            f"speed drift {drift:.3e} exceeds tolerance {drift_tol:.3e}; "
            "increase rk_steps"
        )
    return DiscretizedPath(traj[:, :2].copy(), np.linspace(0.0, 1.0, n + 1), traj[:, 2:].copy())

