import json

import numpy as np
import pytest

from gcomplexity import (
    ChartBoundary,
    DiscretizedPath,
    NonFiniteFactor,
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
from gcomplexity.modified_metrics import metric_phiphi_dr


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
    # analytic derivative against central differences
    eps = 1e-6
    fd = (metric_phiphi(r + eps) - metric_phiphi(r - eps)) / (2 * eps)
    assert metric_phiphi_dr(r) == pytest.approx(fd, rel=1e-8)


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
    # each built-in f_rphi is d_r a_phi - d_phi a_r by central differences
    step = 1e-6
    for pot in (
        VectorPotential.none(),
        VectorPotential.constant(0.4),
        VectorPotential.gradient([0.0, 0.5, 0.25]),
        VectorPotential.ripple(0.7, 0.4),
    ):
        for r, phi in [(0.5, 0.3), (1.2, -1.0), (0.8, 2.5)]:
            dar = (pot.a_r(r, phi + step) - pot.a_r(r, phi - step)) / (2.0 * step)
            dap = (pot.a_phi(r + step, phi) - pot.a_phi(r - step, phi)) / (2.0 * step)
            assert pot.f_rphi(r, phi) == pytest.approx(dap - dar, abs=1e-8)


def test_norm_sq():
    pot = VectorPotential.constant(0.4)
    assert pot.norm_sq(0.7, 0.0) == pytest.approx(0.16)


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
