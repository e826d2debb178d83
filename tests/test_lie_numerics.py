import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gcomplexity import (
    BranchCut,
    DimensionMismatch,
    GroupViolation,
    LieAlgebra,
    LieAlgebraElement,
    NumericDomainError,
    StateKind,
    ValidationError,
    algebra_basis,
    algebra_of_kind,
    inner_product_identity,
    matrix_exp_batch,
    reference_state,
    stabilizer_basis,
    standard_symplectic_form,
)
from gcomplexity import lie_numerics
from gcomplexity.lie_numerics import BRANCH_CUT_MARGIN, rotation_pencil_stack, spd_pencil_stack
from gcomplexity.phase_space import StateStack
from helpers import random_target, random_with_norm1


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


@pytest.mark.parametrize("d", [2, 3, 5, 8, 10])
def test_matrix_exp_batch_squares_each_matrix_on_its_own(d):
    # norms from 1e-3 to 30 take 0 to 6 squarings; a matrix must not be
    # squared more because a larger one shares its batch.  So too in a
    # stack where every matrix is scaled (norms 1 to 30, s >= 1) and in
    # one where none is (norms below theta = 1/2, s = 0)
    for seed, low, high in [(14, 1e-3, 30.0), (15, 1.0, 30.0), (16, 1e-3, 0.49)]:
        rng = np.random.default_rng([seed, d])
        vs = random_with_norm1(rng, np.geomspace(low, high, 16), d)
        for v, e in zip(vs, matrix_exp_batch(vs)):
            assert np.array_equal(e, matrix_exp_batch(v[None])[0])


def spd_pencil(sigma_T, sigma_R=None):
    """The pencil of one sigma_T (sigma_R = 1 when None); raises its NumericDomainError."""
    sigma_T = np.asarray(sigma_T, dtype=float)
    if sigma_R is None:
        sigma_R = np.eye(len(sigma_T))
    targets = StateStack(sigma_T[None])
    pencil = spd_pencil_stack(targets, sigma_R)
    if targets.errors[0] is not None:
        raise targets.errors[0]
    return pencil[0]


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


def test_spd_pencil_whitens_a_sigma_R_within_1e_13_of_the_identity():
    sigma_T = np.diag([2.0, 0.5])
    sigma_R = np.eye(2) + 0.9e-13
    whitened = spd_pencil(sigma_T, sigma_R)
    assert np.allclose(whitened.half @ whitened.half, sigma_R, rtol=0.0, atol=1e-15)
    assert np.allclose(whitened.logs, [-np.log(2.0), np.log(2.0)], atol=1e-12)
    sigma_R = np.eye(2)
    sigma_R[0, 1] = np.nan
    with pytest.raises(NumericDomainError, match="sigma_R is not positive-definite"):
        spd_pencil(sigma_T, sigma_R)


def test_spd_pencil_takes_the_symmetric_part_of_sigma_T():
    # a sigma_T asymmetric by 1e-12 against a squeezed sigma_R gives the bits of its symmetric part
    rng = np.random.default_rng(33)
    om = standard_symplectic_form(3)
    squeeze = [scipy.linalg.expm(om @ (a + a.T)) for a in rng.normal(scale=0.3, size=(2, 6, 6))]
    sigma_R, sigma_T = (m @ m.T for m in squeeze)
    sigma_T = np.stack([sigma_T, sigma_T])
    sigma_T[:, 0, 1] += 1e-12
    sigma_T[1, 4, 2] -= 1e-12
    symmetric = 0.5 * sigma_T + 0.5 * sigma_T.mT
    assert not np.array_equal(sigma_T, symmetric)
    targets, same_targets = StateStack(sigma_T), StateStack(symmetric)
    pencil = spd_pencil_stack(targets, sigma_R)
    same = spd_pencil_stack(same_targets, sigma_R)
    assert targets.errors == same_targets.errors == [None, None]
    for name in ("logs", "u", "half", "inv_half"):
        assert getattr(pencil, name).tobytes() == getattr(same, name).tobytes()


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


def rotation_stack(deltas):
    """rotation_pencil_stack of rotations Delta, as targets J_T = Delta J_R of J_R = Omega_N.

    Omega_N is a signed permutation, so the kernel's J_T J_R^{-1} is each Delta exactly.
    """
    om = standard_symplectic_form(deltas.shape[-1] // 2)
    targets = StateStack(deltas @ om)
    return rotation_pencil_stack(targets, om), targets


def rotation_log(delta):
    """Principal log and angles of one rotation from the stacked kernel; raises its BranchCut."""
    pencil, targets = rotation_stack(np.asarray(delta, dtype=float)[None])
    if targets.errors[0] is not None:
        raise targets.errors[0]
    return pencil.apply(lambda s: s)[0], pencil.radial_exponents[0]


def test_log_special_orthogonal_single_block():
    theta = 1.1
    log_delta, angles = rotation_log(rotation(theta))
    assert np.allclose(log_delta, np.array([[0.0, -theta], [theta, 0.0]]), atol=1e-12)
    assert np.allclose(angles, [theta])


def test_log_special_orthogonal_padding_and_sorting():
    delta = scipy.linalg.block_diag(rotation(0.3), np.eye(2))
    _, angles = rotation_log(delta)
    assert np.allclose(angles, [0.3, 0.0], atol=1e-12)


def test_log_special_orthogonal_branch_cut():
    with pytest.raises(BranchCut):
        rotation_log(rotation(np.pi - 1e-9))
    with pytest.raises(BranchCut):
        rotation_log(-np.eye(2))


def _so_generator(angles, seed):
    """L = Q diag(theta_k [[0, -1], [1, 0]]) Q^T for a random orthogonal Q."""
    n = len(angles)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(2 * n, 2 * n)))
    blocks = scipy.linalg.block_diag(*(t * np.array([[0.0, -1.0], [1.0, 0.0]]) for t in angles))
    return q @ blocks @ q.T


_ANGLE = st.one_of(
    st.floats(0.0, np.pi - 1e-2),
    st.just(0.0),
    st.floats(0.0, 1e-6),
    st.sampled_from([0.3, 1.7]),  # drawn more than once, a repeated angle
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ANGLE, min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_rotation_log_returns_the_generator(angles, seed):
    gen = _so_generator(angles, seed)
    log_delta, radial = rotation_log(scipy.linalg.expm(gen))
    scale = max(1.0, np.linalg.norm(gen))
    assert np.linalg.norm(log_delta - gen) <= 1e-13 * scale
    assert np.allclose(radial, sorted(angles, reverse=True), rtol=0.0, atol=1e-13 * scale)
    assert np.all(radial >= 0.0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(0.0, np.pi - 1e-2), min_size=0, max_size=7),
    st.floats(1e-5, 1e-2),
    st.integers(0, 2**32 - 1),
)
def test_rotation_log_near_the_branch_cut(angles, gap, seed):
    # input conditioning bounds this band: Delta + 1 has a singular value ~ gap, so
    # the rounding of expm(gen) reaches log(Delta) magnified ~ 1/gap
    gen = _so_generator([np.pi - gap, *angles], seed)
    log_delta, _ = rotation_log(scipy.linalg.expm(gen))
    assert np.linalg.norm(log_delta - gen) <= 1e-10 * max(1.0, np.linalg.norm(gen))


def test_rotation_stack_reports_cut_targets_in_band():
    good = [scipy.linalg.expm(_so_generator(a, i)) for i, a in enumerate(
        [(0.4, 2.9), (0.0, 1e-8), (np.pi - 2e-6, 1.0), (3.0, 3.0)]
    )]
    near = scipy.linalg.expm(_so_generator((np.pi - 0.5 * BRANCH_CUT_MARGIN, 0.2), 7))
    flipped = -np.eye(4)  # Delta of J_T = -J_R
    half_flipped = scipy.linalg.block_diag(rotation(0.7), -np.eye(2))  # one exact -1 pair
    stack = np.stack([good[0], near, good[1], flipped, good[2], half_flipped, good[3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pencil, targets = rotation_stack(stack)
        logs = pencil.apply(lambda s: s)
    cut, errors = [1, 3, 5], targets.errors
    assert [i for i, e in enumerate(errors) if e is not None] == cut
    assert all(isinstance(errors[i], BranchCut) for i in cut)
    assert "within the branch-cut margin of pi" in str(errors[1])
    assert "eigenvalue -1" in str(errors[3]) and "eigenvalue -1" in str(errors[5])
    assert errors[3] is not errors[5]
    assert np.all(np.isfinite(logs)) and np.all(np.isfinite(pencil.radial_exponents))
    assert targets.index.tolist() == [0, 2, 4, 6]
    for k, delta in enumerate(good):  # row k of the pencil is input targets.index[k]
        log_one, radial_one = rotation_log(delta)
        assert np.array_equal(logs[k], log_one)
        assert np.array_equal(pencil.radial_exponents[k], radial_one)


class _Counts:
    """Counts the calls of numpy.linalg functions, patched where lie_numerics reads them."""

    def __init__(self, monkeypatch, names):
        self.calls = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(lie_numerics.np.linalg, name, self._counted(name))

    def _counted(self, name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)

        return counted


@pytest.mark.parametrize("n_modes", [1, 2, 8])
def test_the_rotation_pencil_decomposes_delta_once(monkeypatch, n_modes):
    # the branch cut is read off the Cayley spectrum: no eigvalsh pre-pass
    deltas = np.stack([
        scipy.linalg.expm(_so_generator(np.linspace(0.1, 3.0, n_modes) + 0.01 * i, i))
        for i in range(6)
    ])
    deltas[2] = scipy.linalg.expm(_so_generator([np.pi - 0.5 * BRANCH_CUT_MARGIN] * n_modes, 9))
    counts = _Counts(monkeypatch, ["solve", "eigh", "eigvalsh", "eigvals", "eig"])
    pencil, targets = rotation_stack(deltas)
    assert counts.calls == {"solve": 1, "eigh": 1, "eigvalsh": 0, "eigvals": 0, "eig": 0}
    assert targets.index.tolist() == [0, 1, 3, 4, 5]
    assert isinstance(targets.errors[2], BranchCut)


def test_a_singular_cayley_solve_is_located_row_by_row(monkeypatch):
    # the stacked solve fails whole; the locator tries the stack, then each row alone,
    # and the rows that pass are solved again
    good = [scipy.linalg.expm(_so_generator((0.4, 2.9), i)) for i in range(3)]
    stack = np.stack([good[0], -np.eye(4), good[1], good[2]])
    counts = _Counts(monkeypatch, ["solve", "eigh"])
    pencil, targets = rotation_stack(stack)
    assert counts.calls == {"solve": 1 + 1 + len(stack) + 1, "eigh": 1}
    assert targets.index.tolist() == [0, 2, 3]
    assert [type(e) for e in targets.errors] == [type(None), BranchCut, type(None), type(None)]


def test_the_branch_cut_margin_is_read_off_the_largest_angle():
    kept_angle, cut_angle = np.pi - 2.0 * BRANCH_CUT_MARGIN, np.pi - 0.5 * BRANCH_CUT_MARGIN
    kept = scipy.linalg.block_diag(rotation(0.3), rotation(kept_angle))
    cut = scipy.linalg.block_diag(rotation(cut_angle), rotation(0.3))
    pencil, targets = rotation_stack(np.stack([kept, cut]))
    assert targets.index.tolist() == [0]
    assert targets.errors[0] is None
    assert isinstance(targets.errors[1], BranchCut)
    assert str(targets.errors[1]) == "rotation angle 3.14159 within the branch-cut margin of pi"
    assert np.allclose(pencil.radial_exponents[0], [kept_angle, 0.3], rtol=0.0, atol=1e-9)


def test_inner_product_identity_canonical():
    v = np.array([[1.0, 2.0], [3.0, -1.0]])
    assert inner_product_identity(v, v) == pytest.approx(0.5 * 15.0, abs=1e-14)
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert inner_product_identity(v, w) == pytest.approx(0.5 * 5.0, abs=1e-14)


@pytest.mark.parametrize("n_modes", [0, -1])
@pytest.mark.parametrize("algebra", list(LieAlgebra), ids=lambda a: a.name)
def test_algebra_basis_needs_a_mode(algebra, n_modes):
    # so(0) gave an empty stack, and N = -1 numpy's ValueError for either algebra
    with pytest.raises(ValidationError, match="^n_modes must be >= 1$") as err:
        algebra_basis(algebra, n_modes)
    assert type(err.value) is ValidationError


def test_algebra_basis_dimensions():
    for algebra, n, dim in [
        (LieAlgebra.SP, 1, 3),
        (LieAlgebra.SP, 2, 10),
        (LieAlgebra.SO, 1, 1),
        (LieAlgebra.SO, 2, 6),
    ]:
        basis = algebra_basis(algebra, n)
        assert isinstance(basis, np.ndarray)
        assert basis.shape == (dim, 2 * n, 2 * n)
        assert not basis.flags.writeable
        for b in basis:
            LieAlgebraElement(b, algebra)
        # the one-SVD stabilizer split relies on this: the basis is
        # g_1-orthogonal, with g_1 = 2 on sp's Omega S_ii and 1 elsewhere
        sym = standard_symplectic_form(n).T @ basis if algebra is LieAlgebra.SP else basis
        diagonal = np.any(np.diagonal(sym, axis1=1, axis2=2) != 0.0, axis=1)
        assert diagonal.sum() == (2 * n if algebra is LieAlgebra.SP else 0)
        gram = 0.5 * np.einsum("aij,bij->ab", basis, basis)
        np.testing.assert_array_equal(gram, np.diag(np.where(diagonal, 2.0, 1.0)))


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
    basis = stabilizer_basis(reference_state(kind, n))
    assert len(basis.elements) == dim_sta == n * n
    assert len(basis.complement) == dim_comp


@pytest.mark.parametrize("kind", list(StateKind))
@pytest.mark.parametrize("n", [1, 2])
def test_stabilizer_basis_properties(kind, n):
    rng = np.random.default_rng(31)
    for ref in (reference_state(kind, n), random_target(kind, n, rng), random_target(kind, n, rng)):
        basis = stabilizer_basis(ref)
        jr = ref.j
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
    v = sum(c * b for c, b in zip(coeffs, basis))
    m = matrix_exp_batch(v[None])[0]
    om = standard_symplectic_form(1)
    assert np.linalg.norm(m @ om @ m.T - om) <= 1e-12 * np.linalg.norm(m) ** 2


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-0.4, 0.4), min_size=6, max_size=6))
def test_so_exponential_is_orthogonal(coeffs):
    basis = algebra_basis(LieAlgebra.SO, 2)
    v = sum(c * b for c, b in zip(coeffs, basis))
    m = matrix_exp_batch(v[None])[0]
    assert np.linalg.norm(m @ m.T - np.eye(4)) <= 1e-12
    assert np.linalg.det(m) > 0.0


def test_inner_product_needs_equal_shapes():
    with pytest.raises(DimensionMismatch, match=r"^shapes differ: \(2, 2\) vs \(4, 4\)$"):
        inner_product_identity(np.eye(2), np.eye(4))
