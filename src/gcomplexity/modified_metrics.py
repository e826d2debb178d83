r"""Weyl-deformed complexity and the non-reversible vector-potential cost.

Weyl deformation rescales the base metric by e^{2 omega(r)}; along the
radial geodesic to a target at radius r the deformed complexity is

    C~ = r * Integral_0^1 e^{omega(tau r)} d tau,

evaluated with composite Simpson quadrature over at most MAX_STEPS
intervals.

The non-reversible machinery lives on the explicit single-mode chart
with line element ds^2 = dr^2 + cosh(2r) sinh^2(r) dphi^2.  A vector
potential A = a_r dr (with a_r = -f(r, phi), f >= 0) shifts the length
functional to

    C_gamma = Integral (||gamma'|| + A_i gamma'^i) dt,

which stays nonnegative while ||A||_g <= 1 and produces Lorentz-force
geodesics r'' + Gamma = F^i_j gamma'^j with F_ij = d_i A_j - d_j A_i.
lorentz_geodesic integrates them by fixed-step RK4 whose state is four
Python floats.  A stage's position slope is its own velocity, so each
stage computes only the Lorentz-force acceleration; its metric terms
take libm's sinh/cosh for |r| < 170, within 10 ulps of the vectorized
metric_phiphi, and numpy's beyond, where they overflow to inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import cosh, sinh

from .errors import (
    ChartBoundary,
    NonFiniteFactor,
    NumericDomainError,
    PotentialTooLarge,
    StepTooCoarse,
    ValidationError,
)
from .phase_space import _freeze, _real_array, _require_instance, _require_int, _require_real

CHART_EPS = 1e-12
MAX_STEPS = 1 << 20  # cap on rk_steps and quad_steps, checked before anything is allocated


def metric_phiphi(r):
    """g_phiphi = cosh(2r) sinh^2(r) on the single-mode chart."""
    r = _real_array(r, "r")
    return np.cosh(2.0 * r) * np.sinh(r) ** 2


@dataclass(frozen=True)
class WeylFactor:
    """Scalar conformal factor omega(r).

    ``fn`` returns a value broadcastable against r; __call__ broadcasts it to r's shape.
    """

    fn: object

    @staticmethod
    def constant(c: float) -> "WeylFactor":
        c = _require_real("constant factor", c)
        return WeylFactor(lambda r: c)

    @staticmethod
    def linear(beta: float) -> "WeylFactor":
        beta = _require_real("linear factor", beta)
        return WeylFactor(lambda r: beta * r)

    @staticmethod
    def tabulated(r_values, omega_values) -> "WeylFactor":
        r_values = _real_array(r_values, "r_values")
        omega_values = _real_array(omega_values, "omega_values")
        if r_values.ndim != 1 or r_values.shape != omega_values.shape:
            raise ValidationError("tabulated factor needs matching 1-d r and omega")
        if len(r_values) < 2 or np.any(np.diff(r_values) <= 0.0):
            raise ValidationError("tabulated r values must be strictly increasing")
        if not (np.all(np.isfinite(r_values)) and np.all(np.isfinite(omega_values))):
            raise ValidationError("tabulated factor contains non-finite values")
        from scipy.interpolate import PchipInterpolator  # only --omega table: needs it

        with np.errstate(all="ignore"):  # slopes past the float range raise NonFiniteFactor
            try:
                interp = PchipInterpolator(r_values, omega_values, extrapolate=True)
            except ValueError:
                interp = None
        if interp is None or not np.all(np.isfinite(interp.c)):
            raise NonFiniteFactor("tabulated factor's interpolant is not finite")
        return WeylFactor(interp)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.full(r.shape, self.fn(r), dtype=float)


def _simpson(values: np.ndarray, step: float) -> float:
    return step / 3.0 * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    )


def weyl_complexity(base_complexity: float, weyl: WeylFactor, quad_steps: int) -> float:
    r"""Deformed complexity r * Integral_0^1 e^{omega(tau r)} d tau.

    ``quad_steps`` must be an even integer in [2, MAX_STEPS] (not bool)
    and ``base_complexity`` a finite nonnegative real (ValidationError
    otherwise).  Raises NonFiniteFactor where e^omega is not finite, and
    NumericDomainError where the integral overflows.
    """
    _require_int("quad_steps", quad_steps, 2, MAX_STEPS)
    if quad_steps % 2 != 0:
        raise ValidationError("quad_steps must be even for Simpson quadrature")
    r = _require_real("base_complexity", base_complexity, nonnegative=True)
    _require_instance("weyl", weyl, WeylFactor)
    if r == 0.0:
        return 0.0
    tau = np.linspace(0.0, 1.0, quad_steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised in-band below
        vals = np.exp(weyl(tau * r))
        out = r * _simpson(vals, 1.0 / quad_steps)
    # e^omega >= 0, so a non-finite factor value leaves the result non-finite
    if not np.isfinite(out):
        if not np.all(np.isfinite(vals)):
            raise NonFiniteFactor("Weyl factor evaluation is not finite")
        raise NumericDomainError("Weyl complexity overflows")
    return out


def _zero(r, phi):
    return 0.0


@dataclass(frozen=True)
class VectorPotential:
    """Background 1-form A = a_r dr on the chart.

    ``f_rphi`` is the analytic field strength F_rphi = -d_phi a_r.  Each of
    a_r(r, phi) and f_rphi(r, phi) returns a value broadcastable against
    r: _cost_terms broadcasts a_r to a path's samples, as
    WeylFactor.__call__ does omega, and lorentz_geodesic reads f_rphi
    at one state as a float.
    """

    a_r: object
    f_rphi: object

    @staticmethod
    def none() -> "VectorPotential":
        return VectorPotential(_zero, _zero)

    @staticmethod
    def constant(f0: float) -> "VectorPotential":
        f0 = _require_real("constant potential", f0, nonnegative=True)
        return VectorPotential(lambda r, phi: -f0, _zero)

    @staticmethod
    def gradient(h_coeffs) -> "VectorPotential":
        """A = -dh for a polynomial h(r) = sum_k c_k r^k, coefficients by power."""
        c = _real_array(h_coeffs, "h_coeffs")
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValidationError("polynomial coefficients must be finite reals")
        with np.errstate(over="ignore"):  # an inf coefficient is PotentialTooLarge where A is used
            dc = c[1:] * np.arange(1, len(c))

        a_r = lambda r, phi: -np.polyval(dc[::-1], r) if len(dc) else 0.0
        return VectorPotential(a_r, _zero)

    @staticmethod
    def ripple(f0: float, eps: float) -> "VectorPotential":
        """f(r, phi) = f0 (1 + eps cos phi), a genuinely magnetic example.

        f0 >= 0 and |eps| <= 1, both finite, keep f >= 0 everywhere.
        """
        f0 = _require_real("ripple f0", f0, nonnegative=True)
        eps = _require_real("ripple eps", eps)
        if abs(eps) > 1.0:
            raise ValidationError(f"ripple eps must lie in [-1, 1], got {eps}")
        a_r = lambda r, phi: -f0 * (1.0 + eps * np.cos(phi))
        return VectorPotential(a_r, lambda r, phi: -f0 * eps * np.sin(phi))


def _potential(a):
    """a, or no potential for None; ValidationError unless a VectorPotential."""
    return VectorPotential.none() if a is None else _require_instance("a", a, VectorPotential)


@dataclass(frozen=True, eq=False)
class DiscretizedPath:
    """Sampled chart trajectory: samples[i] = (r_i, phi_i) at params[i]."""

    samples: np.ndarray
    params: np.ndarray
    velocities: np.ndarray = None

    def __post_init__(self):
        s = _real_array(self.samples, "samples")
        p = _real_array(self.params, "params")
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
        object.__setattr__(self, "samples", _freeze(s))
        object.__setattr__(self, "params", _freeze(p))
        if self.velocities is not None:
            v = _freeze(self.velocities, "velocities")
            if v.shape != s.shape:
                raise ValidationError("velocities shape must match samples")
            object.__setattr__(self, "velocities", v)

    def reversed(self) -> "DiscretizedPath":
        v = None if self.velocities is None else -self.velocities[::-1]
        return DiscretizedPath(self.samples[::-1], 1.0 - self.params[::-1], v)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite term is raised in-band below
def _cost_terms(path: DiscretizedPath, a: VectorPotential = None):
    """Each segment's chordal length and trapezoidal potential term; a = None is no potential."""
    r = _require_instance("path", path, DiscretizedPath).samples[:, 0]
    a = _potential(a)
    phi = path.samples[:, 1]
    gpp = metric_phiphi(r)
    ar = np.full(r.shape, a.a_r(r, phi), dtype=float)
    norm_sq = ar * ar  # g^{ij} A_i A_j, with g_rr = 1
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
    # a radial segment has no g_phiphi term, also where g_phiphi overflowed (r above about 178)
    seg_len = np.sqrt(dr * dr + np.where(dphi == 0.0, 0.0, gpp_m * dphi * dphi))
    seg_pot = ar_m * dr
    if not np.all(np.isfinite(seg_len + seg_pot)):
        raise NumericDomainError("non-reversible cost overflows on the path")
    return seg_len, seg_pot


def nonreversible_cost(path: DiscretizedPath, a: VectorPotential = None) -> float:
    r"""Generalized length C = Integral (||gamma'|| + A_i gamma'^i) dt.

    Trapezoidal in the potential and chordal in the length; exact for
    piecewise-linear paths under constant potentials.  Raises
    PotentialTooLarge when ||A||_g > 1 at any sample.
    """
    seg_len, seg_pot = _cost_terms(path, a)
    return float(np.sum(seg_len) + np.sum(seg_pot))


def path_length(path: DiscretizedPath) -> float:
    """Pure metric length of a discretized chart path."""
    seg_len, _ = _cost_terms(path)
    return float(np.sum(seg_len))


def nonreversible_cost_profile(
    path: DiscretizedPath, a: VectorPotential = None
) -> np.ndarray:
    """Cumulative cost at each sample, starting from zero."""
    seg_len, seg_pot = _cost_terms(path, a)
    out = np.zeros(len(path.params))
    np.cumsum(seg_len + seg_pot, out=out[1:])
    return out


def _require_pair(name, value, nonnegative=False):
    try:
        r, phi = value
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an (r, phi) pair, got {value!r}")
    return _require_real(f"{name} r", r, nonnegative), _require_real(f"{name} phi", phi)


def _lorentz_acceleration(r, phi, vr, vphi, field):
    """Lorentz-force acceleration (a_r, a_phi) at one state, on Python floats.

    The velocity half of an RK4 slope is the state's own (vr, vphi), so
    only the acceleration is returned.  g_phiphi and its analytic
    derivative 2 sinh(2r) sinh^2(r) + cosh(2r) sinh(2r) take libm's
    sinh/cosh for |r| < 170 (a stage radius can be negative), within 10
    ulps of numpy's on arrays, and numpy's scalars beyond, which
    overflow to inf where math raises OverflowError (past r of about
    355), so an overflow's inf and nan land as on arrays.
    ``field`` is None for a curl-free potential, whose F_rphi is +0.0
    everywhere.  A radial state (vphi == 0) has no g_phiphi term, also
    where g_phiphi overflowed (inf * 0 would be nan).
    """
    r2 = 2.0 * r
    if -170.0 < r < 170.0:
        sh2, s2, c2 = math.sinh(r) ** 2, math.sinh(r2), math.cosh(r2)
    else:
        sh2, s2, c2 = float(sinh(r) ** 2), float(sinh(r2)), float(cosh(r2))
    gpp = c2 * sh2
    dgpp = 2.0 * s2 * sh2 + c2 * s2 if vphi else 0.0
    fs = 0.0 if field is None else float(field(r, phi))
    ar = 0.5 * dgpp * vphi * vphi + fs * vphi
    aphi = (-dgpp * vr * vphi - fs * vr) / gpp if gpp > 0.0 else 0.0
    return ar, aphi


@np.errstate(over="ignore", invalid="ignore")  # an overflow is raised in-band below
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
    must be finite reals and ``rk_steps`` an integer in [8, MAX_STEPS],
    not bool (ValidationError otherwise, before anything is allocated).  The
    state is four Python floats, advanced in numpy's operation order
    on the scalar metric terms of _lorentz_acceleration, so each sample
    has the bits of the same RK4 run on numpy arrays.  Each stage's
    position slope is that stage's velocity, held by name in the loop;
    only its acceleration is computed.  The initial velocity is
    normalized to unit metric speed so the trajectory is
    parametrized by arc length and covers the requested length.  The
    conserved speed is monitored; drift beyond ``drift_tol`` raises
    StepTooCoarse (pass a larger value for deliberate coarse-step
    convergence studies, or inf to skip the check; a drift_tol that is
    not a nonnegative real is a ValidationError); a nan or inf speed,
    where g_phiphi overflowed (r above about 178), raises
    NumericDomainError naming its first step and the radius it left.
    A trajectory reaching r = 0 (an inward radial launch included)
    raises ChartBoundary carrying the partial path.  From r < CHART_EPS
    only an outward radial launch is valid; it runs the same RK4, which
    keeps it on its ray where F_rphi = 0 and raises a
    NumericDomainError where not, as just off the origin.
    """
    a = _potential(a)
    r0, phi0 = _require_pair("start", start, nonnegative=True)
    vr0, vphi0 = _require_pair("initial_velocity", initial_velocity)
    length = _require_real("length", length, nonnegative=True)
    _require_int("rk_steps", rk_steps, 8, MAX_STEPS)
    if not (isinstance(drift_tol, float) and drift_tol == np.inf):  # inf skips the drift check
        _require_real("drift_tol", drift_tol, nonnegative=True)
    n = int(rk_steps)
    if r0 < CHART_EPS:
        # the chart is degenerate at the origin: only radial launches
        if vphi0 != 0.0:
            raise ValidationError(
                "angular velocity at r = 0 is outside the chart; start at r > 0"
            )
        if vr0 <= 0.0:
            raise ValidationError("launch from r = 0 requires positive radial velocity")
    # a radial launch has no g_phiphi term, as in _lorentz_acceleration
    speed = np.sqrt(vr0 * vr0 + (float(metric_phiphi(r0)) * vphi0 * vphi0 if vphi0 else 0.0))
    if speed == 0.0:
        raise ValidationError("initial velocity must be nonzero")
    if not np.isfinite(speed):
        raise NumericDomainError(
            "g_phiphi = cosh(2r) sinh^2(r) overflowed at the start (it does above r of about 178)"
        )
    field = None if a.f_rphi is _zero else a.f_rphi
    r, phi, vr, vphi = r0, phi0, float(vr0 / speed), float(vphi0 / speed)
    h = length / n
    half, sixth = 0.5 * h, h / 6.0
    rows = [(r, phi, vr, vphi)]
    for i in range(n):
        # classic RK4 in numpy's order: x + (h/2) k per stage, x + (h/6)(((k1 + 2k2) + 2k3) + k4);
        # a stage's position slope is its own velocity, so only accelerations are computed
        ar1, ap1 = _lorentz_acceleration(r, phi, vr, vphi, field)
        vr2, vp2 = vr + half * ar1, vphi + half * ap1
        ar2, ap2 = _lorentz_acceleration(r + half * vr, phi + half * vphi, vr2, vp2, field)
        vr3, vp3 = vr + half * ar2, vphi + half * ap2
        ar3, ap3 = _lorentz_acceleration(r + half * vr2, phi + half * vp2, vr3, vp3, field)
        vr4, vp4 = vr + h * ar3, vphi + h * ap3
        ar4, ap4 = _lorentz_acceleration(r + h * vr3, phi + h * vp3, vr4, vp4, field)
        r += sixth * (vr + 2.0 * vr2 + 2.0 * vr3 + vr4)
        phi += sixth * (vphi + 2.0 * vp2 + 2.0 * vp3 + vp4)
        vr += sixth * (ar1 + 2.0 * ar2 + 2.0 * ar3 + ar4)
        vphi += sixth * (ap1 + 2.0 * ap2 + 2.0 * ap3 + ap4)
        if r < CHART_EPS:
            traj = np.array(rows)
            partial = DiscretizedPath(
                traj[:, :2],
                np.linspace(0.0, i * h / length, i + 1),
                traj[:, 2:],
            ) if i > 0 else None
            raise ChartBoundary(
                f"trajectory reached r = 0 after arc length {i * h:.6g}",
                partial_path=partial,
            )
        rows.append((r, phi, vr, vphi))
    traj = np.array(rows)
    if drift_tol < np.inf:  # an infinite tolerance returns the trajectory unchecked
        gpp_term = np.where(traj[:, 3] == 0.0, 0.0, metric_phiphi(traj[:, 0]) * traj[:, 3] ** 2)
        speeds = np.sqrt(traj[:, 2] ** 2 + gpp_term)
        drift = float(np.abs(speeds - 1.0).max())
        if not np.isfinite(drift):  # a non-finite r, vr or vphi leaves its speed non-finite
            k = int(np.argmax(~np.isfinite(speeds)))  # >= 1: the start's speed is finite
            raise NumericDomainError(
                "g_phiphi = cosh(2r) sinh^2(r) overflowed on the trajectory "
                f"(it does above r of about 178): the speed is first not finite at step {k} "
                f"of {n} (arc length {k * h:.6g}), which starts from r = {traj[k - 1, 0]:.6g}"
            )
        if drift > drift_tol:
            raise StepTooCoarse(
                f"speed drift {drift:.3e} exceeds tolerance {drift_tol:.3e}; "
                "increase rk_steps"
            )
    return DiscretizedPath(traj[:, :2], np.linspace(0.0, 1.0, n + 1), traj[:, 2:])

