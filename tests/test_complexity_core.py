import numpy as np
import pytest
import scipy.linalg

from gcomplexity import (
    DimensionMismatch,
    DisplacementPresent,
    GaussianState,
    GaussianTransformation,
    KindMismatch,
    SpdPencil,
    StateKind,
    apply_transformation,
    complexity_from_relative,
    inner_product_identity,
    matrix_exp_batch,
    reference_state,
    relative_complex_structure,
    single_mode_squeezing,
    stabilizer_basis,
    state_complexity,
)
from gcomplexity.complexity_core import relative_stack
from gcomplexity.phase_space import StateStack
from helpers import random_target, random_transformation


def geodesic_point(pencil, tau):
    """M(tau) = e^{tau log(Delta)/2} on the optimal circuit, by scipy's expm."""
    m = scipy.linalg.expm(0.5 * tau * pencil.log_delta)
    return GaussianTransformation(None, m, pencil.kind)


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
                log_delta = scipy.linalg.logm(target.j @ -ref.j).real
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
    ref, target = reference_state(StateKind.BOSON, 1), squeezed(1.5)
    w = np.sort(np.linalg.eigvals(target.j @ -ref.j).real)
    assert np.allclose(w, [np.exp(-3.0), np.exp(3.0)], rtol=1e-12)
    pencil = relative_complex_structure(ref, target)
    assert np.allclose(pencil.radial_exponents, [3.0], atol=1e-12)
    assert np.allclose(np.exp(pencil.logs), [np.exp(-3.0), np.exp(3.0)], rtol=1e-12)


@pytest.mark.parametrize("kind", list(StateKind))
def test_pencil_is_delta_kind_and_log_for_a_stack_and_each_row(kind):
    # the pencil is the one object for Delta: its kind comes from the dtype
    # of its log-spectrum, and log_delta is apply(identity), bit for bit
    rng = np.random.default_rng([23, kind is StateKind.BOSON])
    refs = [reference_state(kind, 2)]
    if kind is StateKind.BOSON:
        refs.append(apply_transformation(refs[0], random_transformation(kind, 2, rng)))
    for ref in refs:
        targets = [apply_transformation(ref, random_transformation(kind, 2, rng)) for _ in range(4)]
        stack = StateStack(np.stack([t.sigma for t in targets]))
        pencil = relative_stack(ref, kind, stack)
        assert stack.errors == [None] * 4
        assert pencil.kind is kind
        log_delta = pencil.log_delta
        assert log_delta.shape == (4, 4, 4)
        assert np.array_equal(log_delta, pencil.apply(lambda s: s))
        for i, target in enumerate(targets):
            row = pencil[i]
            assert row.kind is kind
            assert np.array_equal(row.log_delta, row.apply(lambda s: s))
            assert np.array_equal(row.log_delta, log_delta[i])
            one = relative_complex_structure(ref, target)
            assert one.kind is kind
            assert np.array_equal(one.log_delta, log_delta[i])


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
    basis = stabilizer_basis(ref)
    if not basis.complement:
        pytest.skip("stabilizer fills the algebra")
    rng = np.random.default_rng(21)
    for _ in range(10):
        coeffs = rng.normal(size=len(basis.complement))
        v = sum(c * b.v for c, b in zip(coeffs, basis.complement))
        v = v * (0.8 / np.linalg.norm(v))
        assert np.linalg.norm(v @ ref.j + ref.j @ v) <= 1e-10
        t = GaussianTransformation(None, matrix_exp_batch(v[None])[0], kind)
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
    basis = stabilizer_basis(ref)
    rng = np.random.default_rng(23)
    m = random_transformation(StateKind.BOSON, 2, rng)
    s = GaussianTransformation(
        None, matrix_exp_batch(0.7 * basis.elements[2].v[None])[0], StateKind.BOSON
    )
    direct = apply_transformation(ref, m)
    via_sta = apply_transformation(apply_transformation(ref, s), m)
    assert np.allclose(direct.j, via_sta.j, atol=1e-10)
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
        apply_transformation(ref, at1).j, target.j, atol=1e-12
    )


@pytest.mark.parametrize("r", [0.5, 5.0, 20.0])
@pytest.mark.parametrize("phi", [0.0, 0.3, 1.0])
def test_geodesic_point_matches_analytic_squeezing(r, phi):
    # log Delta = 2r R diag(1, -1) R^T for the squeezing S(r, phi), R the
    # rotation by phi / 2; built directly because the pencil cannot
    # resolve the e^{-2r} eigenvalue off-axis at r = 20
    c, s = np.cos(0.5 * phi), np.sin(0.5 * phi)
    rot = np.array([[c, -s], [s, c]])
    pencil = SpdPencil(np.array([2.0 * r, -2.0 * r]), rot, np.eye(2), np.eye(2))
    for tau in (0.25, 0.6, 1.0):
        want = rot @ np.diag([np.exp(tau * r), np.exp(-tau * r)]) @ rot.T
        got = geodesic_point(pencil, tau).m
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
    # a reference squeezed by 1e-7 or 2e-14 is whitened, so the pair (R, R) has C = 0
    for r, bound in ((1e-7, 1e-14), (2e-14, 1e-15)):
        ref = squeezed(r)
        assert state_complexity(ref, ref) <= bound


def test_displacement_rejected():
    ref = reference_state(StateKind.BOSON, 1)
    displaced = GaussianState(ref.j, ref.kind, np.array([0.5, 0.0]))
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
