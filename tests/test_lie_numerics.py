import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gcomplexity import (
    BranchCut,
    GroupViolation,
    LieAlgebra,
    LieAlgebraElement,
    NumericDomainError,
    Singular,
    StateKind,
    algebra_basis,
    algebra_of_kind,
    inner_product_identity,
    log_special_orthogonal,
    matrix_exp,
    matrix_exp_batch,
    reference_state,
    spd_pencil,
    stabilizer_basis,
    standard_symplectic_form,
)
from gcomplexity.variational_oracle import _log_principal
from helpers import random_algebra_matrix, random_with_norm1


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_algebra_membership_checks():
    om = standard_symplectic_form(1)
    LieAlgebraElement(om, LieAlgebra.SP)
    LieAlgebraElement(om, LieAlgebra.SO)
    LieAlgebraElement(np.diag([1.0, -1.0]), LieAlgebra.SP)
    with pytest.raises(GroupViolation):
        LieAlgebraElement(np.diag([1.0, -1.0]), LieAlgebra.SO)
    with pytest.raises(GroupViolation):
        LieAlgebraElement(np.eye(2), LieAlgebra.SP)
    # residuals that overflow to inf or nan fail, without numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GroupViolation):
            LieAlgebraElement(np.diag([1e200, 1e200]), LieAlgebra.SP)
        with pytest.raises(GroupViolation):
            LieAlgebraElement(np.array([[1e200, 1e200], [-1e200, 0.0]]), LieAlgebra.SO)


def test_algebra_of_kind():
    assert algebra_of_kind(StateKind.BOSON) is LieAlgebra.SP
    assert algebra_of_kind(StateKind.FERMION) is LieAlgebra.SO


def test_log_exp_roundtrip_norm_two():
    rng = np.random.default_rng(10)
    for algebra in LieAlgebra:
        kind = StateKind.BOSON if algebra is LieAlgebra.SP else StateKind.FERMION
        for n in (1, 2):
            for _ in range(25):
                v = random_algebra_matrix(kind, n, rng, scale=0.8)
                nrm = np.linalg.norm(v)
                if nrm > 2.0:
                    v = v * (2.0 / nrm)
                back = _log_principal(matrix_exp(v))
                assert np.linalg.norm(back - v) <= 1e-8


def test_log_principal_known_value():
    assert np.allclose(
        _log_principal(np.diag([np.e, 1.0 / np.e])), np.diag([1.0, -1.0]),
        atol=1e-13,
    )


def test_log_principal_branch_cut_and_singular():
    with pytest.raises(BranchCut):
        _log_principal(-np.eye(2))
    with pytest.raises(Singular):
        _log_principal(np.diag([1.0, 0.0]))


# d spans the oracle's shapes: 2N and 2N + 1 generators, and 4N and
# 4N + 2 Frechet blocks, at N = 1, 2.
@pytest.mark.parametrize("norm1", [0.1, 0.5, 1.0, 2.0, 8.0, 32.0])
@pytest.mark.parametrize("d", [2, 4, 5, 8, 10])
def test_matrix_exp_batch_matches_scipy(d, norm1):
    rng = np.random.default_rng([11, d, int(10 * norm1)])
    vs = random_with_norm1(rng, np.full(12, norm1), d)
    batch = matrix_exp_batch(vs)
    bound = 3e-14 if norm1 <= 1.0 else 3e-13 * norm1
    for v, e in zip(vs, batch):
        ref = scipy.linalg.expm(v)
        assert np.linalg.norm(e - ref) <= bound * np.linalg.norm(ref)


def test_matrix_exp_batch_edge_shapes():
    assert np.array_equal(matrix_exp_batch(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))
    assert matrix_exp_batch(np.zeros((0, 4, 4))).shape == (0, 4, 4)
    vs = np.random.default_rng(13).normal(scale=0.5, size=(2, 3, 4, 4))
    out = matrix_exp_batch(vs)
    assert out.shape == (2, 3, 4, 4)
    assert np.array_equal(out.reshape(6, 4, 4), matrix_exp_batch(vs.reshape(6, 4, 4)))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_matrix_exp_batch_squares_each_matrix_on_its_own(d):
    # norms from 1e-3 to 30 take 0 to 6 squarings; a matrix must not be
    # squared more because a larger one shares its batch
    rng = np.random.default_rng([14, d])
    vs = random_with_norm1(rng, np.geomspace(1e-3, 30.0, 16), d)
    for v, e in zip(vs, matrix_exp_batch(vs)):
        assert np.array_equal(e, matrix_exp_batch(v[None])[0])


def pencil_log(sigma_T, sigma_R=None):
    pencil = spd_pencil(sigma_T, sigma_R)
    return pencil.apply(lambda s: s), pencil.radial_exponents


def test_log_spd_pencil_single_mode():
    r = 0.8
    sig = np.diag([np.exp(2 * r), np.exp(-2 * r)])
    log_delta, exps = pencil_log(sig)
    assert np.allclose(log_delta, np.diag([2 * r, -2 * r]), atol=1e-13)
    assert exps.shape == (1,)
    assert abs(exps[0] - 2 * r) <= 1e-13


def test_log_spd_pencil_precision_at_strong_squeezing():
    # the symmetric-pencil route keeps full relative precision at r = 5
    r = 5.0
    sig = np.diag([np.exp(2 * r), np.exp(-2 * r)])
    _, exps = pencil_log(sig)
    assert abs(exps[0] - 10.0) <= 1e-12


def test_log_spd_pencil_sorted_descending():
    sig = np.diag([np.exp(0.4), np.exp(-0.4), np.exp(3.0), np.exp(-3.0)])
    _, exps = pencil_log(sig)
    assert np.allclose(exps, [3.0, 0.4], atol=1e-13)


def test_log_spd_pencil_general_reference():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 4))
    sigma_R = a @ a.T + 4.0 * np.eye(4)
    b = rng.normal(scale=0.3, size=(4, 4))
    sigma_T = scipy.linalg.expm(b) @ sigma_R @ scipy.linalg.expm(b).T
    log_delta, _ = pencil_log(sigma_T, sigma_R)
    direct = scipy.linalg.logm(sigma_T @ np.linalg.inv(sigma_R))
    assert np.linalg.norm(log_delta - direct) <= 1e-9


def test_log_spd_pencil_rejects_indefinite():
    with pytest.raises(NumericDomainError):
        pencil_log(np.diag([1.0, -1.0]))


def pencil_sqrt(sigma_T, sigma_R=None):
    return spd_pencil(sigma_T, sigma_R).apply(lambda s: np.exp(0.5 * s))


def test_sqrt_spd_pencil():
    sig = np.diag([4.0, 0.25])
    assert np.allclose(pencil_sqrt(sig), np.diag([2.0, 0.5]), atol=1e-14)
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 4))
    sigma_R = a @ a.T + 4.0 * np.eye(4)
    b = rng.normal(scale=0.3, size=(4, 4))
    sigma_T = scipy.linalg.expm(b) @ sigma_R @ scipy.linalg.expm(b).T
    root = pencil_sqrt(sigma_T, sigma_R)
    delta = sigma_T @ np.linalg.inv(sigma_R)
    assert np.linalg.norm(root @ root - delta) <= 1e-10 * np.linalg.norm(delta)


def test_log_special_orthogonal_single_block():
    theta = 1.1
    log_delta, angles = log_special_orthogonal(rotation(theta))
    assert np.allclose(log_delta, np.array([[0.0, -theta], [theta, 0.0]]), atol=1e-12)
    assert np.allclose(angles, [theta])


def test_log_special_orthogonal_padding_and_sorting():
    delta = scipy.linalg.block_diag(rotation(0.3), np.eye(2))
    _, angles = log_special_orthogonal(delta)
    assert np.allclose(angles, [0.3, 0.0], atol=1e-12)


def test_log_special_orthogonal_branch_cut():
    with pytest.raises(BranchCut):
        log_special_orthogonal(rotation(np.pi - 1e-9))
    with pytest.raises(BranchCut):
        log_special_orthogonal(-np.eye(2))


def test_inner_product_identity_canonical():
    v = np.array([[1.0, 2.0], [3.0, -1.0]])
    assert inner_product_identity(v, v) == pytest.approx(0.5 * 15.0, abs=1e-14)
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert inner_product_identity(v, w) == pytest.approx(0.5 * 5.0, abs=1e-14)


def test_algebra_basis_dimensions():
    assert len(algebra_basis(LieAlgebra.SP, 1)) == 3
    assert len(algebra_basis(LieAlgebra.SP, 2)) == 10
    assert len(algebra_basis(LieAlgebra.SO, 1)) == 1
    assert len(algebra_basis(LieAlgebra.SO, 2)) == 6


@pytest.mark.parametrize(
    "kind, n, dim_sta, dim_comp",
    [
        (StateKind.BOSON, 1, 1, 2),
        (StateKind.BOSON, 2, 4, 6),
        (StateKind.FERMION, 1, 1, 0),
        (StateKind.FERMION, 2, 4, 2),
    ],
)
def test_stabilizer_dimensions(kind, n, dim_sta, dim_comp):
    # sta(N) = u(N) inside either algebra, so dim sta = N^2 for both kinds
    basis = stabilizer_basis(reference_state(kind, n).j)
    assert len(basis.elements) == dim_sta == n * n
    assert len(basis.complement) == dim_comp


@pytest.mark.parametrize("kind", list(StateKind))
@pytest.mark.parametrize("n", [1, 2])
def test_stabilizer_basis_properties(kind, n):
    j_R = reference_state(kind, n).j
    basis = stabilizer_basis(j_R)
    jr = j_R.j
    all_elems = list(basis.elements) + list(basis.complement)
    for b in basis.elements:
        assert np.linalg.norm(b.v @ jr - jr @ b.v) <= 1e-10
    for c in basis.complement:
        assert np.linalg.norm(c.v @ jr - jr @ c.v) > 1e-3
    for i, a in enumerate(all_elems):
        for k, b in enumerate(all_elems):
            want = 1.0 if i == k else 0.0
            assert inner_product_identity(a, b) == pytest.approx(want, abs=1e-9)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3))
def test_sp_exponential_is_symplectic(coeffs):
    basis = algebra_basis(LieAlgebra.SP, 1)
    v = sum(c * b.v for c, b in zip(coeffs, basis))
    m = matrix_exp(v)
    om = standard_symplectic_form(1)
    assert np.linalg.norm(m @ om @ m.T - om) <= 1e-12 * np.linalg.norm(m) ** 2


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-0.4, 0.4), min_size=6, max_size=6))
def test_so_exponential_is_orthogonal(coeffs):
    basis = algebra_basis(LieAlgebra.SO, 2)
    v = sum(c * b.v for c, b in zip(coeffs, basis))
    m = matrix_exp(v)
    assert np.linalg.norm(m @ m.T - np.eye(4)) <= 1e-12
    assert np.linalg.det(m) > 0.0
