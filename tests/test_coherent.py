import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from gcomplexity import (
    DisplacementPresent,
    GaussianState,
    GaussianTransformation,
    KindMismatch,
    StateKind,
    apply_transformation,
    coherent_complexity,
    coherent_geodesic,
    coherent_geodesic_point,
    reference_state,
    single_mode_squeezing,
    state_complexity,
    state_from_dict,
)
from helpers import displaced_target, passive, random_target


def test_pure_displacement_345():
    ref = reference_state(StateKind.BOSON, 1)
    target = GaussianState(ref.j, np.array([3.0, 4.0]))
    geo = coherent_geodesic(ref, target)
    assert np.array_equal(geo.n_matrix, 2.0 * np.eye(2))
    assert np.allclose(geo.g_form, 4.0 * np.eye(2))
    assert coherent_complexity(geo) == pytest.approx(5.0, abs=1e-12)


def test_zero_displacement_reduces_to_state_complexity():
    rng = np.random.default_rng(30)
    for n in (1, 2):
        for _ in range(25):
            target = random_target(StateKind.BOSON, n, rng)
            ref = reference_state(StateKind.BOSON, n)
            geo = coherent_geodesic(ref, target)
            assert coherent_complexity(geo) == pytest.approx(
                state_complexity(ref, target), abs=1e-12
            )


def test_n_matrix_closed_form_single_mode():
    r = 0.7
    ref = reference_state(StateKind.BOSON, 1)
    target = apply_transformation(ref, single_mode_squeezing(r, 0.0))
    geo = coherent_geodesic(ref, GaussianState(target.j, np.array([1.0, -2.0])))
    want = np.diag(
        [2 * r / (np.exp(r) - 1.0), -2 * r / (np.exp(-r) - 1.0)]
    )
    assert np.allclose(geo.n_matrix, want, atol=1e-12)


def test_endpoint_exactness():
    rng = np.random.default_rng(31)
    for n in (1, 2):
        for _ in range(10):
            target = displaced_target(n, rng)
            ref = reference_state(StateKind.BOSON, n)
            geo = coherent_geodesic(ref, target)
            out = apply_transformation(ref, coherent_geodesic_point(geo, 1.0))
            assert np.linalg.norm(out.j.j - target.j.j) <= 1e-10
            assert np.linalg.norm(out.z - target.z) <= 1e-10
            at0 = coherent_geodesic_point(geo, 0.0)
            assert np.allclose(at0.m, np.eye(2 * n), atol=1e-14)
            assert np.allclose(at0.v, np.zeros(2 * n), atol=1e-14)


def test_displacement_flow_matches_hamiltonian_integration():
    # the circuit must solve x' = (log Delta / 2) x + N z_T / 2 starting from
    # the phase-space origin; integrating that flow is an independent oracle
    # for N and the z(tau) profile together
    rng = np.random.default_rng(32)
    for n in (1, 2):
        target = displaced_target(n, rng)
        ref = reference_state(StateKind.BOSON, n)
        geo = coherent_geodesic(ref, target)
        half_log = 0.5 * geo.delta.log_delta
        drift = 0.5 * geo.n_matrix @ geo.z_target
        rhs = lambda t, x: half_log @ x + drift
        sol = solve_ivp(
            rhs,
            (0.0, 1.0),
            np.zeros(2 * n),
            method="DOP853",
            rtol=1e-12,
            atol=1e-13,
            t_eval=[0.25, 0.5, 0.75, 1.0],
        )
        for tau, x in zip(sol.t, sol.y.T):
            z = coherent_geodesic_point(geo, tau).v
            assert np.linalg.norm(z - x) <= 1e-8
        assert np.linalg.norm(sol.y[:, -1] - target.z) <= 1e-8


def test_displacement_sign_symmetry():
    rng = np.random.default_rng(33)
    target = displaced_target(1, rng)
    ref = reference_state(StateKind.BOSON, 1)
    plus = coherent_complexity(coherent_geodesic(ref, target))
    minus = coherent_complexity(
        coherent_geodesic(ref, GaussianState(target.j, -target.z))
    )
    assert plus == pytest.approx(minus, abs=1e-14)


def test_complexity_is_quadratic_in_displacement():
    rng = np.random.default_rng(34)
    target = displaced_target(1, rng)
    ref = reference_state(StateKind.BOSON, 1)
    c0 = coherent_complexity(coherent_geodesic(ref, GaussianState(target.j)))
    c1 = coherent_complexity(coherent_geodesic(ref, target))
    c2 = coherent_complexity(
        coherent_geodesic(ref, GaussianState(target.j, 2.0 * target.z))
    )
    assert c2**2 - c0**2 == pytest.approx(4.0 * (c1**2 - c0**2), rel=1e-10)


def n_of_exponents(x):
    """2x / expm1(x), with its limit 2 at x = 0."""
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 2.0, 2.0 * safe / np.expm1(safe))


def test_n_matrix_at_unsqueezed_mode():
    # one squeezed and one untouched mode: a log-eigenvalue pair sits at
    # zero while Delta != 1, and N takes its limit 2 on that pair
    ref = reference_state(StateKind.BOSON, 2)
    m = np.eye(4)
    m[:2, :2] = single_mode_squeezing(1.0, 0.0).m
    squeezed = apply_transformation(ref, GaussianTransformation(None, m, StateKind.BOSON))
    target = GaussianState(squeezed.j, np.array([0.5, 0.0, 0.2, 0.0]))
    geo = coherent_geodesic(ref, target)
    want = np.diag(n_of_exponents(np.array([1.0, -1.0, 0.0, 0.0])))
    assert np.allclose(geo.n_matrix, want, atol=1e-12)
    y = want @ target.z
    assert coherent_complexity(geo) == pytest.approx(0.5 * np.sqrt(4.0 + y @ y), rel=1e-12)
    end = apply_transformation(ref, coherent_geodesic_point(geo, 1.0))
    assert np.linalg.norm(end.z - target.z) <= 1e-12


def _constructed_target(p, radii, z):
    """sigma = P diag(e^{+-2 r_i}) P^T for passive P, displaced by z."""
    n = len(radii)
    x = np.repeat(radii, 2) * np.tile([1.0, -1.0], n)
    sigma = (p * np.exp(2.0 * x)) @ p.T
    j = state_from_dict({"kind": "boson", "n_modes": n, "sigma": 0.5 * (sigma + sigma.T)}).j
    f = n_of_exponents(x)
    y = f * (p.T @ z)
    return GaussianState(j, z), (p * f) @ p.T, 0.5 * np.sqrt(4.0 * radii @ radii + y @ y)


@settings(max_examples=30, deadline=None)
@given(
    radii=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_n_matrix_and_complexity_match_construction(radii, seed):
    rng = np.random.default_rng(seed)
    radii = np.asarray(radii)
    n = len(radii)
    p = passive(rng, n)
    z = rng.normal(size=2 * n)
    ref = reference_state(StateKind.BOSON, n)
    target, n_want, c_want = _constructed_target(p, radii, z)
    geo = coherent_geodesic(ref, target)
    assert np.allclose(geo.n_matrix, n_want, rtol=0.0, atol=1e-10 * (1.0 + radii.max()))
    assert coherent_complexity(geo) == pytest.approx(c_want, rel=1e-10, abs=1e-12)
    # squeezing one mode by eps -> 0 converges to the unsqueezed value
    c = {}
    for eps in (1e-3, 1e-7, 0.0):
        radii_eps = radii.copy()
        radii_eps[0] = eps
        target, _, c_want = _constructed_target(p, radii_eps, z)
        c[eps] = coherent_complexity(coherent_geodesic(ref, target))
        assert c[eps] == pytest.approx(c_want, rel=1e-10, abs=1e-12)
    for eps in (1e-3, 1e-7):
        assert abs(c[eps] ** 2 - c[0.0] ** 2) <= 2.0 * eps * (1.0 + z @ z)


def test_identity_delta_straight_line():
    ref = reference_state(StateKind.BOSON, 1)
    target = GaussianState(ref.j, np.array([1.0, 2.0]))
    geo = coherent_geodesic(ref, target)
    assert not np.any(geo.delta.log_delta)
    assert coherent_complexity(geo) == pytest.approx(np.linalg.norm(target.z))
    mid = coherent_geodesic_point(geo, 0.5)
    assert np.allclose(mid.v, 0.5 * target.z)
    assert np.allclose(mid.m, np.eye(2))


def test_validation():
    ref = reference_state(StateKind.FERMION, 1)
    with pytest.raises(KindMismatch):
        coherent_geodesic(ref, ref)
    bref = reference_state(StateKind.BOSON, 1)
    displaced_ref = GaussianState(bref.j, np.array([0.1, 0.0]))
    with pytest.raises(DisplacementPresent):
        coherent_geodesic(displaced_ref, bref)
