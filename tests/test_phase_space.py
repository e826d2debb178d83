import warnings

import numpy as np
import pytest

from gcomplexity import (
    ComplexStructure,
    CovarianceMatrix,
    DimensionMismatch,
    DisplacementPresent,
    GaussianState,
    GaussianTransformation,
    GroupViolation,
    KindMismatch,
    NotPure,
    SchemaError,
    SingularInput,
    StateKind,
    SymplecticForm,
    apply_transformation,
    covariance_of,
    reference_state,
    single_mode_squeezing,
    standard_symplectic_form,
    state_from_dict,
    state_to_dict,
)
from helpers import displaced_target, random_target, random_transformation


def test_standard_form_blocks():
    om = standard_symplectic_form(2)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(om[:2, :2], block)
    assert np.array_equal(om[2:, 2:], block)
    assert np.array_equal(om[:2, 2:], np.zeros((2, 2)))


def test_standard_form_is_a_read_only_constant():
    om = standard_symplectic_form(2)
    assert standard_symplectic_form(2) is om
    assert not om.flags.writeable
    with pytest.raises(ValueError):
        om[0, 1] = 2.0


@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_standard_form_inverse_is_its_negative(n):
    """inv(Omega_N) = -Omega_N exactly; the nonzero entries agree bit for bit
    (LAPACK's zeros carry either sign, which J = sigma Omega_N never shows)."""
    om = standard_symplectic_form(n)
    inv = np.linalg.inv(om)
    assert np.array_equal(inv, -om)
    assert inv[om != 0].tobytes() == (-om)[om != 0].tobytes()


@pytest.mark.parametrize("n", [1, 2, 8])
def test_state_from_dict_j_matches_inv_and_solve_formulas(n):
    """J = sigma Omega_N for bosons and J = the form for fermions give the same
    bits as -sigma inv(Omega_N) and Omega solve(sigma = 1, .) on random states."""
    rng = np.random.default_rng(n)
    om = standard_symplectic_form(n)
    radii = np.repeat(rng.normal(size=n), 2) * np.tile([1.0, -1.0], n)
    squeezed = {"kind": "boson", "n_modes": n, "sigma": np.diag(np.exp(2.0 * radii))}
    bosons = [state_to_dict(random_target(StateKind.BOSON, n, rng)) for _ in range(5)]
    for data in [squeezed, *bosons]:
        want = -np.asarray(data["sigma"]) @ np.linalg.inv(om)
        assert state_from_dict(data).j.j.tobytes() == want.tobytes()
    for _ in range(5):
        data = state_to_dict(random_target(StateKind.FERMION, n, rng))
        form = np.asarray(data["sigma"])
        want = np.ascontiguousarray(np.linalg.solve(np.eye(2 * n), form.T).T)
        assert state_from_dict(data).j.j.tobytes() == want.tobytes()
    # an exact zero of the form may come back from solve with the other sign
    data = state_to_dict(reference_state(StateKind.FERMION, n))
    assert np.array_equal(state_from_dict(data).j.j, np.linalg.solve(np.eye(2 * n), om.T).T)


def test_symplectic_form_rejects_symmetric():
    with pytest.raises(GroupViolation):
        SymplecticForm(np.eye(2))


def test_symplectic_form_rejects_wrong_det():
    with pytest.raises(GroupViolation):
        SymplecticForm(np.array([[0.0, 2.0], [-2.0, 0.0]]))


def test_covariance_rejects_non_positive():
    with pytest.raises(SingularInput):
        CovarianceMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(GroupViolation):
        CovarianceMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_purity_rejects_thermal():
    with pytest.raises(NotPure):
        ComplexStructure(2.0 * standard_symplectic_form(1), StateKind.BOSON)
    with pytest.raises(NotPure):
        state_from_dict({"kind": "boson", "n_modes": 1, "sigma": 2.0 * np.eye(2)})


def test_reference_state_is_pure_and_standard():
    for kind in StateKind:
        ref = reference_state(kind, 2)
        assert ref.kind is kind
        assert np.allclose(ref.j.j @ ref.j.j, -np.eye(4))
        assert np.array_equal(ref.z, np.zeros(4))


def test_squeezed_complex_structure_matches_closed_form():
    # S(r, 0) J_R S(r, 0)^{-1} = [[0, e^{2r}], [-e^{-2r}, 0]]
    r = 0.73
    ref = reference_state(StateKind.BOSON, 1)
    t = apply_transformation(ref, single_mode_squeezing(r, 0.0))
    expect = np.array([[0.0, np.exp(2 * r)], [-np.exp(-2 * r), 0.0]])
    assert np.allclose(t.j.j, expect, atol=1e-12)


def test_pure_displacement_keeps_j():
    ref = reference_state(StateKind.BOSON, 1)
    t = GaussianTransformation(np.array([1.0, 0.0]), np.eye(2), StateKind.BOSON)
    out = apply_transformation(ref, t)
    assert np.array_equal(out.j.j, ref.j.j)
    assert np.array_equal(out.z, np.array([1.0, 0.0]))


def test_identity_transformation_is_identity():
    ref = reference_state(StateKind.FERMION, 2)
    t = GaussianTransformation(None, np.eye(4), StateKind.FERMION)
    out = apply_transformation(ref, t)
    assert np.array_equal(out.j.j, ref.j.j)


def test_transformation_group_checks():
    with pytest.raises(GroupViolation):
        GaussianTransformation(None, np.diag([2.0, 1.0]), StateKind.BOSON)
    with pytest.raises(GroupViolation):
        GaussianTransformation(None, np.diag([1.0, -1.0]), StateKind.FERMION)
    with pytest.raises(DisplacementPresent):
        GaussianTransformation(np.array([1.0, 0.0]), np.eye(2), StateKind.FERMION)


def test_overflowing_residuals_fail_quietly():
    # ||m|| overflows, so each relative residual is inf / inf = nan: a failure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GroupViolation):
            SymplecticForm(np.array([[1e200, 1.0], [-1.0, 0.0]]))
        with pytest.raises(GroupViolation):
            CovarianceMatrix(np.array([[1e200, 1e199], [0.0, 1e-200]]))
        with pytest.raises(NotPure):
            ComplexStructure(np.array([[0.0, 1e200], [-1.0, 0.0]]), StateKind.BOSON)
        for kind in StateKind:
            with pytest.raises(GroupViolation):
                GaussianTransformation(None, np.diag([1e200, 1e200]), kind)
        # a huge pure state has exact zero residuals and passes
        CovarianceMatrix(np.diag([1e160, 1e-160]))
        ComplexStructure(np.array([[0.0, 1e160], [-1e-160, 0.0]]), StateKind.BOSON)


def test_kind_mismatch_on_apply():
    ref = reference_state(StateKind.BOSON, 1)
    t = GaussianTransformation(None, np.eye(2), StateKind.FERMION)
    with pytest.raises(KindMismatch):
        apply_transformation(ref, t)


def test_fermion_state_rejects_displacement():
    j = reference_state(StateKind.FERMION, 1).j
    with pytest.raises(DisplacementPresent):
        GaussianState(j, np.array([0.1, 0.0]))


def test_inverse_m_is_group_inverse():
    rng = np.random.default_rng(0)
    for kind in StateKind:
        t = random_transformation(kind, 2, rng)
        assert np.allclose(t.m @ t.inverse_m, np.eye(4), atol=1e-12)


def test_single_mode_squeezing_closed_form():
    r, phi = 0.9, 0.4
    g = np.array([[np.cos(phi), np.sin(phi)], [np.sin(phi), -np.cos(phi)]])
    m = single_mode_squeezing(r, phi).m
    assert np.allclose(m, np.cosh(r) * np.eye(2) + np.sinh(r) * g, atol=1e-15)
    # one-parameter group property along a fixed direction
    a = single_mode_squeezing(0.3, phi).m @ single_mode_squeezing(0.6, phi).m
    assert np.allclose(a, single_mode_squeezing(0.9, phi).m, atol=1e-12)
    with pytest.raises(ValueError):
        single_mode_squeezing(-0.1, 0.0)


def test_state_dict_roundtrip_boson():
    rng = np.random.default_rng(2)
    state = displaced_target(2, rng)
    back = state_from_dict(state_to_dict(state))
    assert np.allclose(back.j.j, state.j.j, atol=1e-12)
    assert np.allclose(back.z, state.z, atol=1e-12)


def test_state_dict_roundtrip_fermion():
    rng = np.random.default_rng(3)
    state = random_target(StateKind.FERMION, 2, rng)
    back = state_from_dict(state_to_dict(state))
    assert np.allclose(back.j.j, state.j.j, atol=1e-12)


def test_state_from_dict_schema_errors():
    good = {"kind": "boson", "n_modes": 1, "sigma": [[1.0, 0.0], [0.0, 1.0]]}
    with pytest.raises(SchemaError):
        state_from_dict({**good, "extra": 1})
    with pytest.raises(SchemaError):
        state_from_dict({"kind": "boson", "n_modes": 1})
    with pytest.raises(SchemaError):
        state_from_dict({**good, "kind": "anyon"})
    with pytest.raises(SchemaError):
        state_from_dict({**good, "n_modes": 2})
    with pytest.raises(SchemaError):
        state_from_dict({**good, "z": [1.0]})
    with pytest.raises(DisplacementPresent):
        state_from_dict(
            {
                "kind": "fermion",
                "n_modes": 1,
                "sigma": [[0.0, 1.0], [-1.0, 0.0]],
                "z": [0.0, 0.0],
            }
        )


def test_covariance_of_reference_is_identity():
    for kind in StateKind:
        assert np.allclose(covariance_of(reference_state(kind, 2)), np.eye(4))


def test_covariance_roundtrip_boson():
    rng = np.random.default_rng(4)
    state = random_target(StateKind.BOSON, 2, rng)
    sigma = covariance_of(state)
    j = state_from_dict({"kind": "boson", "n_modes": 2, "sigma": sigma}).j
    assert np.allclose(j.j, state.j.j, atol=1e-10)


def test_random_transformations_preserve_purity():
    rng = np.random.default_rng(5)
    for kind in StateKind:
        for _ in range(20):
            state = random_target(kind, 2, rng)
            assert np.allclose(state.j.j @ state.j.j, -np.eye(4), atol=1e-9)


def test_dimension_mismatch():
    ref = reference_state(StateKind.BOSON, 1)
    t = GaussianTransformation(None, np.eye(4), StateKind.BOSON)
    with pytest.raises(DimensionMismatch):
        apply_transformation(ref, t)
