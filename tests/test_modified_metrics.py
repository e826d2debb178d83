import json
import math
import re
import warnings

import numpy as np
import pytest

from gcomplexity import (
    ChartBoundary,
    DiscretizedPath,
    NonFiniteFactor,
    NumericDomainError,
    PotentialTooLarge,
    StepTooCoarse,
    ValidationError,
    VectorPotential,
    WeylFactor,
    chart_path_length,
    lorentz_geodesic,
    metric_phiphi,
    nonreversible_cost,
    nonreversible_cost_profile,
    weyl_complexity,
)
from gcomplexity.cli import main
from gcomplexity.modified_metrics import CHART_EPS, MAX_STEPS, _cost_terms, _lorentz_acceleration


def radial_path(r0, r1, n=200):
    r = np.linspace(r0, r1, n + 1)
    return DiscretizedPath(
        np.stack([r, np.zeros(n + 1)], axis=1), np.linspace(0.0, 1.0, n + 1)
    )


def random_path(rng, n=80, r_lo=0.2, r_hi=1.5):
    r = rng.uniform(r_lo, r_hi, n + 1)
    phi = np.cumsum(rng.normal(scale=0.2, size=n + 1))
    return DiscretizedPath(
        np.stack([r, phi], axis=1), np.linspace(0.0, 1.0, n + 1)
    )


def test_metric_phiphi_values():
    assert metric_phiphi(0.0) == 0.0
    r = 0.9
    assert metric_phiphi(r) == pytest.approx(np.cosh(2 * r) * np.sinh(r) ** 2)
    # the integrator's analytic derivative against central differences:
    # with vr = 0 and vphi = 1 the radial force is d g_phiphi / dr / 2
    eps = 1e-6
    fd = (metric_phiphi(r + eps) - metric_phiphi(r - eps)) / (2 * eps)
    assert 2.0 * _lorentz_acceleration(r, 0.0, 0.0, 1.0, None)[0] == pytest.approx(fd, rel=1e-8)


def test_weyl_constant_factor_exact():
    # constant omega = c scales any length by e^c, for every step count
    for steps in (2, 16, 128):
        got = weyl_complexity(1.7, WeylFactor.constant(0.3), steps)
        assert got == pytest.approx(1.7 * np.exp(0.3), rel=1e-14)
    assert weyl_complexity(2.0, WeylFactor.constant(0.0), 16) == pytest.approx(2.0)
    assert weyl_complexity(0.0, WeylFactor.linear(1.0), 16) == 0.0


@pytest.mark.parametrize("beta, r", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
def test_weyl_linear_factor_closed_form(beta, r):
    want = (np.exp(beta * r) - 1.0) / beta
    got = weyl_complexity(r, WeylFactor.linear(beta), 128)
    assert got == pytest.approx(want, abs=1e-8)


def test_weyl_simpson_is_fourth_order():
    beta, r = 1.0, 1.0
    exact = np.e - 1.0
    errs = [
        abs(weyl_complexity(r, WeylFactor.linear(beta), n) - exact)
        for n in (8, 16, 32, 64)
    ]
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine > 12.0


def test_weyl_tabulated_matches_linear():
    grid = np.linspace(0.0, 2.5, 40)
    tab = WeylFactor.tabulated(grid, 0.8 * grid)
    got = weyl_complexity(2.0, tab, 128)
    want = weyl_complexity(2.0, WeylFactor.linear(0.8), 128)
    assert got == pytest.approx(want, abs=1e-12)


def test_weyl_tabulated_validation():
    with pytest.raises(ValidationError):
        WeylFactor.tabulated([0.0, 1.0], [1.0])
    with pytest.raises(ValidationError):
        WeylFactor.tabulated([1.0, 0.5], [0.0, 0.0])
    with pytest.raises(ValidationError):
        WeylFactor.tabulated([0.0], [0.0])


def test_weyl_quad_steps_validation():
    with pytest.raises(ValidationError):
        weyl_complexity(1.0, WeylFactor.constant(0.0), 7)
    with pytest.raises(ValidationError):
        weyl_complexity(1.0, WeylFactor.constant(0.0), 0)
    with pytest.raises(ValidationError):
        weyl_complexity(-1.0, WeylFactor.constant(0.0), 16)


@pytest.mark.parametrize(
    "quad_steps, message",
    [
        (16.0, "quad_steps must be an integer"),
        (np.nan, "quad_steps must be an integer"),
        (MAX_STEPS + 2, f"quad_steps must be <= {MAX_STEPS}"),
        (10**12, f"quad_steps must be <= {MAX_STEPS}"),
        (True, "quad_steps must be an integer$"),
    ],
)
def test_weyl_quad_steps_are_capped_integers(quad_steps, message):
    with pytest.raises(ValidationError, match=message):
        weyl_complexity(1.0, WeylFactor.constant(0.0), quad_steps)


def test_weyl_rejects_a_nan_base_complexity():
    # a nan passed the r < 0 check and was reported as an overflow
    with pytest.raises(ValidationError, match="^base_complexity must be finite, got nan$"):
        weyl_complexity(np.nan, WeylFactor.constant(0.0), 4)


def test_weyl_overflow_raises():
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteFactor):
            weyl_complexity(1.0, WeylFactor.linear(1e4), 16)


def test_nonreversible_anchor_half_r_gradient():
    # h(r) = r/2 gives a_r = -1/2: cost 0 -> 2 is 1, and 2 -> 0 is 3
    pot = VectorPotential.gradient([0.0, 0.5])
    path = radial_path(0.0, 2.0)
    forward = nonreversible_cost(path, a=pot)
    reverse = nonreversible_cost(path.reversed(), a=pot)
    assert forward == pytest.approx(1.0, abs=1e-12)
    assert reverse == pytest.approx(3.0, abs=1e-12)
    assert chart_path_length(path) == pytest.approx(2.0, abs=1e-12)


def test_forward_plus_reverse_is_twice_length():
    rng = np.random.default_rng(40)
    pots = [
        VectorPotential.gradient([0.0, 0.5]),
        VectorPotential.ripple(0.8, 0.2),
        VectorPotential.constant(0.6),
    ]
    for _ in range(20):
        path = random_path(rng)
        length = chart_path_length(path)
        for pot in pots:
            total = nonreversible_cost(path, a=pot) + nonreversible_cost(
                path.reversed(), a=pot
            )
            assert total == pytest.approx(2.0 * length, abs=1e-10)


def test_gradient_potential_is_path_independent():
    # for affine a_r the trapezoid telescopes exactly, so the potential
    # term depends on the endpoints alone
    rng = np.random.default_rng(41)
    pot = VectorPotential.gradient([0.0, 0.2, 0.1])
    h = lambda r: 0.2 * r + 0.1 * r * r
    for _ in range(5):
        r0, r1 = rng.uniform(0.2, 1.5, 2)
        n = 60
        ra = np.linspace(r0, r1, n + 1)
        pa = DiscretizedPath(
            np.stack([ra, np.zeros(n + 1)], axis=1), np.linspace(0, 1, n + 1)
        )
        rb = np.concatenate([np.linspace(r0, 2.0, n // 2), np.linspace(2.0, r1, n // 2 + 1)])
        pb = DiscretizedPath(
            np.stack([rb, np.ones(n + 1)], axis=1), np.linspace(0, 1, n + 1)
        )
        da = nonreversible_cost(pa, a=pot) - chart_path_length(pa)
        db = nonreversible_cost(pb, a=pot) - chart_path_length(pb)
        assert da == pytest.approx(h(r0) - h(r1), abs=1e-12)
        assert db == pytest.approx(h(r0) - h(r1), abs=1e-12)


def test_cost_nonnegative_for_subcritical_potential():
    rng = np.random.default_rng(42)
    pot = VectorPotential.ripple(0.85, 0.05)
    for _ in range(20):
        path = random_path(rng)
        assert nonreversible_cost(path, a=pot) >= 0.0
        assert nonreversible_cost(path.reversed(), a=pot) >= 0.0


def test_potential_too_large():
    with pytest.raises(PotentialTooLarge):
        nonreversible_cost(radial_path(0.1, 1.0), a=VectorPotential.constant(1.2))


def test_cost_profile_matches_total():
    rng = np.random.default_rng(43)
    path = random_path(rng)
    pot = VectorPotential.ripple(0.5, 0.3)
    profile = nonreversible_cost_profile(path, a=pot)
    assert profile[0] == 0.0
    assert profile[-1] == pytest.approx(nonreversible_cost(path, a=pot), abs=1e-13)
    assert profile.shape == path.params.shape


def test_field_strength_fallback_matches_analytic():
    # each built-in f_rphi is -d_phi a_r by central differences
    step = 1e-6
    for pot in (
        VectorPotential.none(),
        VectorPotential.constant(0.4),
        VectorPotential.gradient([0.0, 0.5, 0.25]),
        VectorPotential.ripple(0.7, 0.4),
    ):
        for r, phi in [(0.5, 0.3), (1.2, -1.0), (0.8, 2.5)]:
            dar = (pot.a_r(r, phi + step) - pot.a_r(r, phi - step)) / (2.0 * step)
            assert pot.f_rphi(r, phi) == pytest.approx(-dar, abs=1e-8)


def test_cost_terms_checks_the_potential_norm_at_each_sample():
    # ||A||_g^2 = a_r^2 (g_rr = 1); h = c r^2 has a_r = -2 c r, so 0.16 at r = 0.7 for c = 2/7
    path = DiscretizedPath(np.array([[0.35, 0.0], [0.7, 0.0]]), np.array([0.0, 1.0]))
    _, seg_pot = _cost_terms(path, VectorPotential.gradient([0.0, 0.0, 2.0 / 7.0]))
    assert seg_pot == pytest.approx([-0.3 * 0.35])
    # five times that potential has ||A||_g = 2, largest at r = 0.7
    with pytest.raises(PotentialTooLarge, match=r"= 2 > 1 at \(r, phi\) = \(0\.7, 0\)"):
        _cost_terms(path, VectorPotential.gradient([0.0, 0.0, 10.0 / 7.0]))
    # the bound: ||A||_g = 1 passes, 1 + 1e-11 does not
    _cost_terms(path, VectorPotential.constant(1.0))
    with pytest.raises(PotentialTooLarge):
        _cost_terms(path, VectorPotential.constant(1.0 + 1e-11))


def test_a_scalar_value_is_broadcast_to_the_samples():
    # a potential or factor returns a value broadcastable against r; a 0-d value broke ar[1:]
    # and Simpson's slices, and now gives the bits of the built-in that returns the same value
    path = random_path(np.random.default_rng(44))
    scalar = VectorPotential(lambda r, phi: -0.4, lambda r, phi: 0.0)
    built_in = VectorPotential.constant(0.4)
    for cost in (nonreversible_cost, nonreversible_cost_profile):
        assert np.array_equal(cost(path, a=scalar), cost(path, a=built_in))
        assert np.array_equal(cost(path.reversed(), a=scalar), cost(path.reversed(), a=built_in))
    no_potential = VectorPotential(lambda r, phi: 0.0, lambda r, phi: 0.0)
    assert nonreversible_cost(path, a=no_potential) == chart_path_length(path)
    geodesics = [lorentz_geodesic((0.6, 0.2), (0.3, 0.4), a=a) for a in (scalar, built_in)]
    assert np.array_equal(geodesics[0].samples, geodesics[1].samples)
    weyl, constant = WeylFactor(lambda r: 0.3), WeylFactor.constant(0.3)
    assert weyl(np.zeros((2, 3))).shape == (2, 3)
    for steps in (2, 16, 128):
        assert weyl_complexity(1.7, weyl, steps) == weyl_complexity(1.7, constant, steps)


def test_discretized_path_validation():
    with pytest.raises(ValidationError):
        DiscretizedPath(np.zeros((1, 2)), np.array([0.0]))
    with pytest.raises(ValidationError):
        DiscretizedPath(np.zeros((3, 2)), np.array([0.0, 0.5, 0.4]))
    with pytest.raises(ValidationError):
        DiscretizedPath(np.zeros((2, 2)), np.array([0.0, 1.5]))
    with pytest.raises(ValidationError):
        DiscretizedPath(np.array([[-0.1, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0]))


def test_reversed_is_involution():
    rng = np.random.default_rng(44)
    path = random_path(rng)
    back = path.reversed().reversed()
    assert np.allclose(back.samples, path.samples)
    assert np.allclose(back.params, path.params)


def test_lorentz_radial_launch_from_origin():
    path = lorentz_geodesic((0.0, 0.0), (1.0, 0.0), length=1.0, rk_steps=64)
    assert path.samples[-1, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(path.samples[:, 1], 0.0)
    with pytest.raises(ValidationError):
        lorentz_geodesic((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValidationError):
        lorentz_geodesic((0.0, 0.0), (-1.0, 0.0))


def test_lorentz_start_below_the_chart_eps_is_kept():
    # an origin launch runs the RK4 from its own start, not from r = 0
    path = lorentz_geodesic((1e-13, 0.2), (1.0, 0.0), length=1.0, rk_steps=64)
    assert path.samples[0, 0] == 1e-13
    assert path.samples[-1, 0] == pytest.approx(1.0 + 1e-13, abs=1e-15)
    assert np.all(path.samples[:, 1] == 0.2)


@pytest.mark.parametrize("r0", [0.0, 1e-9])
@pytest.mark.parametrize("phi0", [0.5, 1.0, 3.0])
def test_lorentz_magnetic_potential_at_the_origin_as_just_off_it(r0, phi0):
    # the ripple's F_rphi = -f0 eps sin(phi) turns a radial launch off its ray
    with pytest.raises(NumericDomainError):
        lorentz_geodesic((r0, phi0), (1.0, 0.0), a=POTENTIALS["ripple"], length=1.0)


def test_lorentz_magnetic_potential_at_the_origin_on_a_curl_free_ray():
    # on phi = 0 the ripple's F_rphi is 0, and the launch is the free radial path
    path = lorentz_geodesic((0.0, 0.0), (1.0, 0.0), a=POTENTIALS["ripple"], length=1.0)
    free = lorentz_geodesic((0.0, 0.0), (1.0, 0.0), length=1.0)
    assert np.array_equal(path.samples, free.samples)
    assert np.all(path.velocities == [1.0, 0.0])


def test_lorentz_zero_length_launch_from_the_origin_meets_the_chart_boundary():
    # a zero step leaves the state at r = 0, which the loop reads as the boundary
    with pytest.raises(ChartBoundary, match=r"^trajectory reached r = 0 after arc length 0$") as info:
        lorentz_geodesic((0.0, 0.3), (1.0, 0.0), length=0.0)
    assert info.value.partial_path is None


@pytest.mark.parametrize("rk_steps", [8, 100, 256, 1000, 1024])
@pytest.mark.parametrize("potential", ["none", "constant", "gradient"])
def test_lorentz_curl_free_launch_from_the_origin_is_the_radial_line(potential, rk_steps):
    for phi0, speed, length in ((0.0, 1.0, 0.37), (0.7, 2.5, 1.3), (-2.0, 0.1, 2.9)):
        path = lorentz_geodesic(
            (0.0, phi0), (speed, 0.0), a=POTENTIALS[potential], length=length, rk_steps=rk_steps
        )
        line = path.params * length
        assert path.samples[0, 0] == 0.0
        tol = 4.0 * np.finfo(float).eps * rk_steps
        assert np.all(np.abs(path.samples[:, 0] - line) <= tol * line)
        assert np.all(path.samples[:, 1] == phi0)
        assert np.all(path.velocities == [1.0, 0.0])


@pytest.mark.parametrize("rk_steps", [8, 256, 4096])
def test_lorentz_radial_launch_past_the_overflow_radius(rk_steps):
    # a radial state has no g_phiphi term, so inf * 0 does not turn the
    # speed or the force into nan above r of about 178
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = lorentz_geodesic((400.0, 0.0), (1.0, 0.0), length=1.0, rk_steps=rk_steps)
    assert path.samples[0, 0] == 400.0
    assert path.samples[-1, 0] == pytest.approx(401.0, rel=1e-15)
    assert np.all(path.samples[:, 1] == 0.0)
    assert np.all(path.velocities == [1.0, 0.0])
    assert chart_path_length(path) == pytest.approx(1.0, rel=1e-12)
    assert nonreversible_cost(path.reversed()) == pytest.approx(1.0, rel=1e-12)


def test_lorentz_unit_speed_and_params():
    path = lorentz_geodesic((1.0, 0.0), (0.3, 0.7), length=1.5, rk_steps=512)
    speeds = np.sqrt(
        path.velocities[:, 0] ** 2
        + metric_phiphi(path.samples[:, 0]) * path.velocities[:, 1] ** 2
    )
    assert np.abs(speeds - 1.0).max() <= 1e-6
    assert path.params[0] == 0.0 and path.params[-1] == 1.0


def test_lorentz_conserves_angular_momentum_without_field():
    path = lorentz_geodesic((1.2, 0.0), (0.2, 0.5), length=1.0, rk_steps=512)
    p_phi = metric_phiphi(path.samples[:, 0]) * path.velocities[:, 1]
    assert np.abs(p_phi - p_phi[0]).max() <= 1e-9


def test_lorentz_chart_boundary_carries_partial_path():
    with pytest.raises(ChartBoundary) as info:
        lorentz_geodesic((0.5, 0.0), (-1.0, 0.0), length=1.0, rk_steps=256)
    partial = info.value.partial_path
    assert partial is not None
    assert partial.samples[-1, 0] < 0.05
    assert partial.samples[0, 0] == pytest.approx(0.5)


def test_lorentz_step_too_coarse():
    with pytest.raises(StepTooCoarse):
        lorentz_geodesic((1.0, 0.0), (0.0, 1.0), length=3.0, rk_steps=8)


@pytest.mark.parametrize(
    "start,velocity,length,rk_steps",
    [
        # vphi = 1e-300 is not 0, so the g_phiphi term stays and overflows in the loop
        *[((177.5, 0.0), (1.0, 1e-300), 1.0, n) for n in (8, 256, 4096)],
        *[((177.0, 0.0), (0.0, 1.0), 1.0, n) for n in (8, 256, 4096)],
        # a coarse step near r = 0 throws a stage out to r = 436
        ((0.4997036205668777, 4.212534840251065), (-1.3206632116051251, -0.10775250794802987),
         1.058130489083909, 8),
        # an angular launch where g_phiphi is already inf has an infinite initial speed
        ((200.0, 0.0), (0.3, 1.0), 1.0, 256),
    ],
)
def test_lorentz_overflow_is_a_domain_error(start, velocity, length, rk_steps):
    # g_phiphi overflows above r of about 178 and the speed comes out nan or inf,
    # which used to pass the drift check; it is not StepTooCoarse
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericDomainError, match="^g_phiphi = cosh") as raised:
            lorentz_geodesic(start, velocity, length=length, rk_steps=rk_steps)
    assert type(raised.value) is NumericDomainError


def test_lorentz_rk4_convergence_order():
    # endpoint error against a fine reference must shrink like n^-4
    pot = VectorPotential.ripple(0.6, 0.3)
    start, vel, length = (0.8, 0.2), (0.4, 0.6), 1.2

    def endpoint(n):
        p = lorentz_geodesic(start, vel, a=pot, length=length, rk_steps=n,
                             drift_tol=1e-3)
        return np.concatenate([p.samples[-1], p.velocities[-1]])

    ref = endpoint(2560)
    errs = [np.linalg.norm(endpoint(n) - ref) for n in (40, 80, 160, 320)]
    for coarse, fine in zip(errs, errs[1:]):
        assert np.log2(coarse / fine) >= 3.5


def test_lorentz_f_of_r_only_is_degenerate():
    # a potential with vanishing field strength leaves the trajectory
    # bitwise unchanged; only the cost functional sees it
    base = lorentz_geodesic((0.9, 0.1), (0.5, 0.4), length=1.0, rk_steps=128)
    with_pot = lorentz_geodesic(
        (0.9, 0.1), (0.5, 0.4), a=VectorPotential.constant(0.5),
        length=1.0, rk_steps=128,
    )
    assert np.array_equal(base.samples, with_pot.samples)
    assert np.array_equal(base.velocities, with_pot.velocities)
    cost_free = nonreversible_cost(base)
    cost_pot = nonreversible_cost(base, a=VectorPotential.constant(0.5))
    assert cost_pot != pytest.approx(cost_free, abs=1e-3)


def test_single_mode_chart_validation(capsys):
    with pytest.raises(ValidationError):
        lorentz_geodesic((-0.1, 0.0), (1.0, 0.0))
    with pytest.raises(ValidationError):
        lorentz_geodesic((np.inf, 0.0), (1.0, 0.0))
    for start in ("-0.1,0", "inf,0"):
        assert main(["nonrev", f"--start={start}", "--velocity", "1,0"]) == 3
        assert json.loads(capsys.readouterr().out)["error"].startswith("ValidationError:")


@pytest.mark.parametrize(
    "start, velocity, length",
    [
        ((np.nan, 0.0), (1.0, 0.0), 1.0),
        ((0.5, np.nan), (1.0, 0.0), 1.0),
        ((0.5, 0.0), (np.nan, 0.0), 1.0),
        ((0.5, 0.0), (1.0, -np.inf), 1.0),
        ((0.5, 0.0), (1.0, 0.0), np.nan),
        ((0.5, 0.0), (1.0, 0.0), np.inf),
    ],
)
def test_lorentz_geodesic_rejects_non_finite_input(start, velocity, length):
    with pytest.raises(ValidationError, match="must be finite"):
        lorentz_geodesic(start, velocity, length=length)


def test_gradient_potential_validation():
    with pytest.raises(ValidationError):
        VectorPotential.gradient([np.nan])
    with pytest.raises(ValidationError):
        VectorPotential.constant(-0.5)


@pytest.mark.parametrize(
    "f0, eps, message",
    [
        (float("nan"), 0.3, "ripple f0 must be finite, got nan"),
        (float("inf"), 0.3, "ripple f0 must be finite, got inf"),
        (0.5, float("inf"), "ripple eps must be finite, got inf"),
        (0.5, float("nan"), "ripple eps must be finite, got nan"),
        (-0.5, 0.3, "ripple f0 must be nonnegative, got -0.5"),
        (0.5, 1.5, r"ripple eps must lie in \[-1, 1\], got 1.5"),
        (0.5, -1.01, r"ripple eps must lie in \[-1, 1\], got -1.01"),
    ],
    ids=["f0_nan", "f0_inf", "eps_inf", "eps_nan", "f0_negative", "eps_above_1", "eps_below_-1"],
)
def test_ripple_potential_validation(f0, eps, message):
    # f = f0 (1 + eps cos phi) must stay finite and nonnegative, as constant's f does
    with pytest.raises(ValidationError, match=message):
        VectorPotential.ripple(f0, eps)


def test_ripple_potential_accepts_the_edges_of_its_domain():
    phi = np.linspace(0.0, 2.0 * np.pi, 65)
    for f0, eps in ((0.5, -1.0), (0.5, 1.0), (0.0, 0.3)):
        f = -VectorPotential.ripple(f0, eps).a_r(np.full_like(phi, 0.7), phi)
        assert np.all(f >= 0.0)


@pytest.mark.parametrize(
    "rk_steps, message",
    [
        (np.nan, "rk_steps must be an integer"),
        (8.7, "rk_steps must be an integer"),
        (256.0, "rk_steps must be an integer"),
        (7, "rk_steps must be >= 8"),
        (np.int64(MAX_STEPS + 1), f"rk_steps must be <= {MAX_STEPS}"),
        (10**12, f"rk_steps must be <= {MAX_STEPS}"),
        (True, "rk_steps must be an integer"),
    ],
)
def test_lorentz_rk_steps_are_capped_integers(rk_steps, message):
    with pytest.raises(ValidationError, match=message):
        lorentz_geodesic((0.5, 0.0), (1.0, 0.0), rk_steps=rk_steps)


@pytest.mark.parametrize("drift_tol", [np.nan, -1.0, -np.inf])
def test_lorentz_drift_tol_must_not_be_nan_or_negative(drift_tol):
    # a nan drift_tol skipped the check silently; a negative one always raised StepTooCoarse
    need = "nonnegative" if np.isfinite(drift_tol) else "finite"
    with pytest.raises(ValidationError, match=f"^drift_tol must be {need}, got {drift_tol}$"):
        lorentz_geodesic((0.5, 0.0), (1.0, 0.3), drift_tol=drift_tol)


def test_lorentz_infinite_drift_tol_skips_the_check():
    # 8 steps over a unit arc drift past the default tolerance
    with pytest.raises(StepTooCoarse):
        lorentz_geodesic((0.5, 0.0), (1.0, 0.3), length=1.0, rk_steps=8)
    path = lorentz_geodesic((0.5, 0.0), (1.0, 0.3), length=1.0, rk_steps=8, drift_tol=np.inf)
    assert path.samples.shape == (9, 2)


def numpy_metric_terms(r):
    """g_phiphi and its analytic r-derivative from numpy's sinh/cosh, metric_phiphi's way."""
    r = np.asarray(r, dtype=float)
    dg = 2.0 * np.sinh(2.0 * r) * np.sinh(r) ** 2 + np.cosh(2.0 * r) * np.sinh(2.0 * r)
    return metric_phiphi(r), dg


def scalar_metric_terms(r):
    """The same two terms at one float r from the integrator's scalars: libm for |r| < 170."""
    if -170.0 < r < 170.0:
        sh2, s2, c2 = math.sinh(r) ** 2, math.sinh(2.0 * r), math.cosh(2.0 * r)
        return c2 * sh2, 2.0 * s2 * sh2 + c2 * s2
    return numpy_metric_terms(r)


def reference_rhs(state, a, terms=scalar_metric_terms):
    """The array-state right-hand side the float integrator replaced, on the given metric terms."""
    r, phi, vr, vphi = state
    gpp, dgpp = map(float, terms(r))
    fs = float(a.f_rphi(r, phi))
    ar = 0.5 * dgpp * vphi * vphi + fs * vphi
    aphi = (-dgpp * vr * vphi - fs * vr) / gpp if gpp > 0.0 else 0.0
    return np.array([vr, vphi, ar, aphi])


def reference_rk4(start, velocity, a, length, n):
    """The array-state RK4 the float integrator replaced, the bit reference for its stage order.

    Its stages take the integrator's scalar metric terms, so a change to
    the order of the stages or of a step's sums shows in the last place.

    Returns the (n + 1, 4) trajectory, or the rows up to the step whose
    update crossed the chart boundary together with that step's index.
    """
    r0, phi0 = map(float, start)
    vr0, vphi0 = map(float, velocity)
    speed = np.sqrt(vr0 * vr0 + float(metric_phiphi(r0)) * vphi0 * vphi0)
    state = np.array([r0, phi0, vr0 / speed, vphi0 / speed])
    h = length / n
    traj = np.empty((n + 1, 4))
    traj[0] = state
    for i in range(n):
        k1 = reference_rhs(state, a)
        k2 = reference_rhs(state + 0.5 * h * k1, a)
        k3 = reference_rhs(state + 0.5 * h * k2, a)
        k4 = reference_rhs(state + h * k3, a)
        state = state + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if state[0] < CHART_EPS:
            return traj[: i + 1], i
        traj[i + 1] = state
    return traj, None


POTENTIALS = {
    "none": VectorPotential.none(),
    "constant": VectorPotential.constant(0.4),
    "gradient": VectorPotential.gradient([0.0, 0.3, 0.1]),
    "ripple": VectorPotential.ripple(0.6, 0.3),
}


@pytest.mark.parametrize("potential", ["none", "ripple"])
def test_lorentz_rhs_has_the_bits_of_the_array_rhs(potential):
    # one stage at many states: a last-place change in sinh, cosh or the square shows here
    a = POTENTIALS[potential]
    field = None if potential == "none" else a.f_rphi
    rng = np.random.default_rng(17)
    states = np.column_stack([
        rng.uniform(0.0, 3.0, 20000), rng.uniform(0.0, 2.0 * np.pi, 20000),
        rng.normal(size=20000), rng.normal(size=20000),
    ])
    for state in states:
        got = _lorentz_acceleration(*state.tolist(), field)
        assert np.array(got).tobytes() == reference_rhs(state, a)[2:].tobytes(), state


LIBM_ULPS = 10  # measured: at most 4 for dg_phiphi and 9 for 1/g_phiphi over 2e6 radii


def test_lorentz_rhs_is_within_ulps_of_numpy_inside_the_guard():
    # a_r = dg/2 at (vr, vphi) = (0, 1) with no field, a_phi = 1/g at (1, 0) with F_rphi = -1
    rng = np.random.default_rng(29)
    r = np.concatenate([
        [0.0, 1e-12, 169.999], rng.uniform(0.0, 170.0, 6000),
        -rng.uniform(0.0, 170.0, 3000), 10.0 ** rng.uniform(-12.0, 0.0, 3000),
    ])
    minus_one = lambda r, phi: -1.0
    half_dg = np.array([_lorentz_acceleration(x, 0.0, 0.0, 1.0, None)[0] for x in r.tolist()])
    inv_g = np.array([_lorentz_acceleration(x, 0.0, 1.0, 0.0, minus_one)[1] for x in r.tolist()])
    g, dg = numpy_metric_terms(r)
    want_inv_g = np.divide(1.0, g, out=np.zeros_like(g), where=g > 0.0)
    for got, want in ((2.0 * half_dg, dg), (inv_g, want_inv_g)):
        ulps = np.abs(got - want) / np.spacing(np.abs(want))
        assert ulps.max() <= LIBM_ULPS


def test_lorentz_rhs_beyond_the_guard_has_the_bits_of_numpy():
    # past |r| = 170 the terms are numpy's scalars: an overflow's inf and nan land as on arrays
    rng = np.random.default_rng(31)
    r = np.concatenate([[170.0, 177.6, 178.0, 355.0, 400.0], rng.uniform(170.0, 400.0, 2000)])
    r = np.concatenate([r, -r])
    phi = rng.uniform(0.0, 2.0 * np.pi, r.size)
    states = np.column_stack([r, phi, rng.normal(size=(r.size, 2))])
    a = POTENTIALS["ripple"]
    got = np.empty((r.size, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, state in enumerate(states):
            got[i] = _lorentz_acceleration(*state.tolist(), a.f_rphi)
            want = reference_rhs(state, a, numpy_metric_terms)[2:]
            assert got[i].tobytes() == want.tobytes(), state
    assert np.isinf(got).any() and np.isnan(got).any() and np.isfinite(got).any()


@pytest.mark.parametrize(
    "start, velocity, a, length, rk_steps, tail",
    [
        # from inside the guard across it and past the overflow radius, at numpy's terms there
        ((169.9, 0.0), (1.0, 1e-300), None, 9.0, 256,
         "step 220 of 256 (arc length 7.73438), which starts from r = 177.599"),
        # a_phi = -F_rphi v_r / g_phiphi grows like 1/r^2 near the origin: step 1 throws r to 7e20
        ((1e-9, 0.5), (1.0, 0.0), POTENTIALS["ripple"], 1.0, 256,
         "step 1 of 256 (arc length 0.00390625), which starts from r = 1e-09"),
    ],
)
def test_lorentz_overflow_names_the_first_non_finite_step(
    start, velocity, a, length, rk_steps, tail
):
    message = (
        "g_phiphi = cosh(2r) sinh^2(r) overflowed on the trajectory (it does above r of about "
        "178): the speed is first not finite at " + tail
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericDomainError, match=f"^{re.escape(message)}$") as raised:
            lorentz_geodesic(start, velocity, a=a, length=length, rk_steps=rk_steps)
    assert type(raised.value) is NumericDomainError


@pytest.mark.parametrize("rk_steps", [8, 64, 256, 1024])
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_lorentz_geodesic_has_the_bits_of_the_array_rk4(potential, rk_steps):
    a = POTENTIALS[potential]
    rng = np.random.default_rng(rk_steps + len(potential))
    for _ in range(3):
        start = (rng.uniform(0.2, 1.5), rng.uniform(0.0, 2.0 * np.pi))
        velocity = tuple(rng.normal(size=2))
        length = rng.uniform(0.2, 1.2)
        # a coarse step can overflow near r = 0; the inf and nan must land where they did
        with np.errstate(over="ignore", invalid="ignore"):
            want, cut = reference_rk4(start, velocity, a, length, rk_steps)
            if cut is not None:
                continue  # the boundary is pinned by its own test below
            path = lorentz_geodesic(
                start, velocity, a=a, length=length, rk_steps=rk_steps, drift_tol=np.inf
            )
        assert np.array_equal(path.samples, want[:, :2], equal_nan=True)
        assert np.array_equal(path.velocities, want[:, 2:], equal_nan=True)


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_chart_boundary_partial_path_has_the_bits_of_the_array_rk4(potential):
    a = POTENTIALS[potential]
    start, velocity, length, n = (0.5, 0.0), (-1.0, 0.0), 1.0, 256  # ripple force is 0 at phi = 0
    want, cut = reference_rk4(start, velocity, a, length, n)
    assert cut is not None and cut > 0
    with pytest.raises(ChartBoundary) as info:
        lorentz_geodesic(start, velocity, a=a, length=length, rk_steps=n)
    partial = info.value.partial_path
    assert np.array_equal(partial.samples, want[:, :2])
    assert np.array_equal(partial.velocities, want[:, 2:])
    h = length / n
    assert np.array_equal(partial.params, np.linspace(0.0, cut * h / length, cut + 1))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: weyl_complexity(1e308, WeylFactor.constant(10.0), 4),
         NumericDomainError, "^Weyl complexity overflows$"),
        (lambda: nonreversible_cost(DiscretizedPath([[199.0, 0.0], [200.0, 1.0]], [0.0, 1.0])),
         NumericDomainError, "^non-reversible cost overflows on the path$"),
        (lambda: WeylFactor.tabulated([0.0, 1.0], [0.0, np.nan]),
         ValidationError, "^tabulated factor contains non-finite values$"),
        (lambda: WeylFactor.tabulated([0.0, 1e-300], [0.0, 1e300]),
         NonFiniteFactor, "^tabulated factor's interpolant is not finite$"),
        (lambda: DiscretizedPath(np.zeros((3, 2)), [0.0, 1.0]),
         ValidationError, "^params length must match samples$"),
        (lambda: DiscretizedPath(np.zeros((2, 2)), [0.0, 1.0], np.zeros((3, 2))),
         ValidationError, "^velocities shape must match samples$"),
        (lambda: lorentz_geodesic((0.5, 0.0), (0.0, 0.0)),
         ValidationError, "^initial velocity must be nonzero$"),
    ],
    ids=["weyl_overflow", "cost_overflow", "table_nan", "table_slopes", "params", "velocities",
         "zero_velocity"],
)
def test_each_raise_is_reached(call, error, message):
    # a value a raise is meant for reaches it, with its class; warnings stay errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message) as err:
            call()
    assert type(err.value) is error
