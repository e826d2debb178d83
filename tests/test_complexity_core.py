import numpy as np
import pytest
import scipy.linalg

from gcomplexity import (
    DimensionMismatch,
    DisplacementPresent,
    GaussianState,
    GaussianTransformation,
    KindMismatch,
    RelativeComplexStructure,
    StateKind,
    apply_transformation,
    complexity_from_relative,
    geodesic_point,
    inner_product_identity,
    matrix_exp,
    reference_state,
    relative_complex_structure,
    single_mode_squeezing,
    stabilizer_basis,
    state_complexity,
)
from helpers import random_target, random_transformation


def squeezed(r, phi=0.0):
    ref = reference_state(StateKind.BOSON, 1)
    return apply_transformation(ref, single_mode_squeezing(r, phi))


def test_prefactor_value():
    # C = (1 / (2 sqrt 2)) ||log Delta||_F at the vacuum reference, with the
    # full log taken by scipy rather than the half-spectrum the code sums
    rng = np.random.default_rng(24)
    for kind in StateKind:
        for n in (1, 2):
            ref = reference_state(kind, n)
            for _ in range(5):
                target = random_target(kind, n, rng)
                log_delta = scipy.linalg.logm(target.j.j @ -ref.j.j).real
                want = np.linalg.norm(log_delta) / (2.0 * np.sqrt(2.0))
                assert state_complexity(ref, target) == pytest.approx(want, abs=1e-10)


def test_identity_target_zero_complexity():
    for kind in StateKind:
        ref = reference_state(kind, 2)
        assert state_complexity(ref, ref) == 0.0


def test_single_mode_squeezing_complexity():
    ref = reference_state(StateKind.BOSON, 1)
    for r in (0.1, 1.0, 5.0):
        for phi in (0.0, np.pi / 3, 3 * np.pi / 2):
            assert state_complexity(ref, squeezed(r, phi)) == pytest.approx(
                r, abs=1e-12
            )


def test_delta_spectrum_of_squeezed_state():
    rel = relative_complex_structure(reference_state(StateKind.BOSON, 1), squeezed(1.5))
    w = np.sort(np.linalg.eigvals(rel.delta).real)
    assert np.allclose(w, [np.exp(-3.0), np.exp(3.0)], rtol=1e-12)
    assert np.allclose(rel.radial_exponents, [3.0], atol=1e-12)
    assert np.allclose(np.exp(rel.pencil.logs), [np.exp(-3.0), np.exp(3.0)], rtol=1e-12)


def test_multimode_quadrature_sum():
    rng = np.random.default_rng(20)
    rs = np.array([0.4, 1.3])
    ref = reference_state(StateKind.BOSON, 2)
    m = scipy.linalg.block_diag(
        single_mode_squeezing(rs[0], 0.0).m, single_mode_squeezing(rs[1], 0.7).m
    )
    target = apply_transformation(
        ref, GaussianTransformation(None, m, StateKind.BOSON)
    )
    assert state_complexity(ref, target) == pytest.approx(
        np.sqrt(np.sum(rs**2)), abs=1e-12
    )


@pytest.mark.parametrize("kind", list(StateKind))
@pytest.mark.parametrize("n", [1, 2])
def test_complement_direction_complexity_closed_form(kind, n):
    # for V in the orthogonal complement of the stabilizer, V anticommutes
    # with J_R, so Delta = e^{2V} and C = sqrt(g_1(V, V)) exactly
    ref = reference_state(kind, n)
    basis = stabilizer_basis(ref.j)
    if not basis.complement:
        pytest.skip("stabilizer fills the algebra")
    rng = np.random.default_rng(21)
    for _ in range(10):
        coeffs = rng.normal(size=len(basis.complement))
        v = sum(c * b.v for c, b in zip(coeffs, basis.complement))
        v = v * (0.8 / np.linalg.norm(v))
        assert np.linalg.norm(v @ ref.j.j + ref.j.j @ v) <= 1e-10
        t = GaussianTransformation(None, matrix_exp(v), kind)
        got = state_complexity(ref, apply_transformation(ref, t))
        assert got == pytest.approx(np.sqrt(inner_product_identity(v, v)), abs=1e-10)


@pytest.mark.parametrize("kind", list(StateKind))
def test_reversal_symmetry(kind):
    rng = np.random.default_rng(22)
    for _ in range(10):
        a = random_target(kind, 2, rng)
        b = random_target(kind, 2, rng)
        assert state_complexity(a, b) == pytest.approx(
            state_complexity(b, a), abs=1e-10
        )


def test_stabilizer_action_is_trivial():
    ref = reference_state(StateKind.BOSON, 2)
    basis = stabilizer_basis(ref.j)
    rng = np.random.default_rng(23)
    m = random_transformation(StateKind.BOSON, 2, rng)
    s = GaussianTransformation(
        None, matrix_exp(0.7 * basis.elements[2].v), StateKind.BOSON
    )
    direct = apply_transformation(ref, m)
    via_sta = apply_transformation(apply_transformation(ref, s), m)
    assert np.allclose(direct.j.j, via_sta.j.j, atol=1e-10)
    assert state_complexity(ref, direct) == pytest.approx(
        state_complexity(ref, via_sta), abs=1e-10
    )


def test_geodesic_point_endpoints():
    ref = reference_state(StateKind.BOSON, 1)
    target = squeezed(1.2, 0.5)
    rel = relative_complex_structure(ref, target)
    at0 = geodesic_point(rel, 0.0)
    assert np.array_equal(at0.m, np.eye(2))
    at1 = geodesic_point(rel, 1.0)
    assert np.allclose(
        apply_transformation(ref, at1).j.j, target.j.j, atol=1e-12
    )


@pytest.mark.parametrize("r", [0.5, 5.0, 20.0])
@pytest.mark.parametrize("phi", [0.0, 0.3, 1.0])
def test_geodesic_point_matches_analytic_squeezing(r, phi):
    # log Delta = 2r R diag(1, -1) R^T for the squeezing S(r, phi), R the
    # rotation by phi / 2; built directly because the pencil cannot
    # resolve the e^{-2r} eigenvalue off-axis at r = 20
    c, s = np.cos(0.5 * phi), np.sin(0.5 * phi)
    rot = np.array([[c, -s], [s, c]])
    delta = rot @ np.diag([np.exp(2.0 * r), np.exp(-2.0 * r)]) @ rot.T
    log_delta = rot @ np.diag([2.0 * r, -2.0 * r]) @ rot.T
    rel = RelativeComplexStructure(delta, log_delta, np.array([2.0 * r]), StateKind.BOSON)
    for tau in (0.25, 0.6, 1.0):
        want = rot @ np.diag([np.exp(tau * r), np.exp(-tau * r)]) @ rot.T
        got = geodesic_point(rel, tau).m
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_geodesic_additivity():
    ref = reference_state(StateKind.BOSON, 1)
    target = squeezed(1.8, 1.1)
    rel = relative_complex_structure(ref, target)
    c_full = state_complexity(ref, target)
    for tau in (0.25, 0.5, 0.75):
        mid = apply_transformation(ref, geodesic_point(rel, tau))
        assert state_complexity(ref, mid) == pytest.approx(tau * c_full, abs=1e-10)


def test_slightly_squeezed_reference_is_not_taken_as_identity():
    # a reference squeezed by 1e-7 is whitened, so the pair (R, R) has C = 0
    ref = squeezed(1e-7)
    assert state_complexity(ref, ref) <= 1e-14


def test_displacement_rejected():
    ref = reference_state(StateKind.BOSON, 1)
    displaced = GaussianState(ref.j, np.array([0.5, 0.0]))
    with pytest.raises(DisplacementPresent):
        state_complexity(ref, displaced)
    with pytest.raises(DisplacementPresent):
        state_complexity(displaced, ref)


def test_pair_validation():
    with pytest.raises(KindMismatch):
        state_complexity(
            reference_state(StateKind.BOSON, 1), reference_state(StateKind.FERMION, 1)
        )
    with pytest.raises(DimensionMismatch):
        state_complexity(
            reference_state(StateKind.BOSON, 1), reference_state(StateKind.BOSON, 2)
        )


def test_complexity_from_relative_matches():
    ref = reference_state(StateKind.BOSON, 1)
    target = squeezed(2.2)
    rel = relative_complex_structure(ref, target)
    assert complexity_from_relative(rel) == state_complexity(ref, target)
