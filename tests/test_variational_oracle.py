import numpy as np
import pytest
import scipy.linalg

from gcomplexity import (
    DisplacementPresent,
    GaussianState,
    GaussianTransformation,
    GroupPath,
    LieAlgebra,
    LieAlgebraElement,
    StateKind,
    ValidationError,
    apply_transformation,
    check_stabilizer_geodesic,
    coherent_complexity,
    coherent_geodesic,
    group_path_length,
    minimize_to_target,
    reference_state,
    stabilizer_basis,
    state_complexity,
)
from gcomplexity.variational_oracle import _Problem, _frechet_exp
from helpers import displaced_target, random_target, random_with_norm1

DERIVATIVE_CASES = [
    (StateKind.BOSON, 1, False),
    (StateKind.BOSON, 2, False),
    (StateKind.FERMION, 2, False),
    (StateKind.BOSON, 1, True),
    (StateKind.BOSON, 2, True),
]


def _problem(kind, n, displaced, seed):
    rng = np.random.default_rng(seed)
    ref = reference_state(kind, n)
    target = displaced_target(n, rng) if displaced else random_target(kind, n, rng)
    prob = _Problem(ref, target, 8)
    return prob, rng.normal(scale=0.1, size=(8, prob.ncoord))


def test_path_length_hand_value():
    inc = np.tile(np.diag([0.5, -0.5]), (4, 1, 1))
    path = GroupPath(inc, StateKind.BOSON)
    assert group_path_length(path) == pytest.approx(2.0, abs=1e-14)
    u = np.tile([1.0, 0.0], (4, 1))
    displaced = GroupPath(inc, StateKind.BOSON, displacement_increments=u)
    assert group_path_length(displaced) == pytest.approx(
        4.0 * np.sqrt(1.25), abs=1e-14
    )


def test_group_path_validation():
    with pytest.raises(ValidationError):
        GroupPath(np.zeros((4, 2, 3)), StateKind.BOSON)
    with pytest.raises(ValidationError):
        GroupPath(np.zeros((3, 2, 2)), StateKind.BOSON)
    with pytest.raises(ValidationError):
        GroupPath(
            np.zeros((4, 2, 2)),
            StateKind.BOSON,
            displacement_increments=np.zeros((4, 3)),
        )
    path = GroupPath(np.zeros((6, 2, 2)), StateKind.BOSON)
    assert path.segments == 6


def test_identity_target_gives_zero_path():
    ref = reference_state(StateKind.BOSON, 1)
    path, length = minimize_to_target(ref, ref, segments=4, restarts=1)
    assert path.converged
    assert length <= 1e-8


def test_oracle_matches_closed_form_boson():
    rng = np.random.default_rng(50)
    ref = reference_state(StateKind.BOSON, 1)
    for _ in range(3):
        target = random_target(StateKind.BOSON, 1, rng)
        closed = state_complexity(ref, target)
        path, length = minimize_to_target(ref, target, segments=8, restarts=1)
        assert path.converged
        assert path.constraint_residual < 1e-6
        assert abs(length - closed) <= 1e-6 * max(closed, 1.0)
        # feasible discrete paths can never undercut the geodesic
        assert length >= closed - 1e-9


def test_oracle_matches_closed_form_fermion_two_modes():
    rng = np.random.default_rng(51)
    ref = reference_state(StateKind.FERMION, 2)
    target = random_target(StateKind.FERMION, 2, rng)
    closed = state_complexity(ref, target)
    path, length = minimize_to_target(ref, target, segments=8, restarts=1)
    assert path.converged
    assert abs(length - closed) <= 1e-6 * max(closed, 1.0)
    assert length >= closed - 1e-9


def test_oracle_displaced_target_within_one_percent():
    rng = np.random.default_rng(52)
    ref = reference_state(StateKind.BOSON, 1)
    target = displaced_target(1, rng)
    closed = coherent_complexity(coherent_geodesic(ref, target))
    path, length = minimize_to_target(ref, target, segments=8, restarts=1)
    assert path.converged
    assert path.displacement_increments is not None
    assert abs(length - closed) <= 1e-2 * closed


def test_oracle_validation():
    bref = reference_state(StateKind.BOSON, 1)
    fref = reference_state(StateKind.FERMION, 1)
    with pytest.raises(ValidationError):
        minimize_to_target(bref, fref)
    big = reference_state(StateKind.BOSON, 3)
    with pytest.raises(ValidationError):
        minimize_to_target(big, big)
    with pytest.raises(ValidationError):
        minimize_to_target(bref, bref, segments=3)
    with pytest.raises(ValidationError):
        minimize_to_target(bref, bref, restarts=0)
    with pytest.raises(ValidationError):
        minimize_to_target(bref, bref, seed=-1)
    # a displaced reference is rejected, not solved as if undisplaced
    shifted = GaussianState(bref.j, np.array([1.0, 0.5]))
    squeeze = GaussianTransformation(None, np.diag([np.exp(0.5), np.exp(-0.5)]), StateKind.BOSON)
    with pytest.raises(DisplacementPresent):
        minimize_to_target(shifted, apply_transformation(bref, squeeze), segments=4, restarts=1)


@pytest.mark.parametrize(
    "kind,n,displaced",
    [
        (StateKind.BOSON, 1, True),
        (StateKind.BOSON, 2, True),
        (StateKind.FERMION, 2, False),
        (StateKind.BOSON, 2, False),
    ],
)
def test_constraint_residual_matches_replayed_path(kind, n, displaced):
    rng = np.random.default_rng(55 + n)
    ref = reference_state(kind, n)
    target = displaced_target(n, rng) if displaced else random_target(kind, n, rng)
    path, _ = minimize_to_target(ref, target, segments=8, restarts=2)
    d = 2 * n
    u = path.displacement_increments
    m = np.eye(d + 1)
    for k, v in enumerate(path.increments):
        gen = np.zeros((d + 1, d + 1))
        gen[:d, :d] = v
        if u is not None:
            gen[:d, d] = u[k]
        m = scipy.linalg.expm(gen) @ m
    mm = m[:d, :d]
    r = mm @ ref.j.j @ np.linalg.inv(mm) - target.j.j
    dz = m[:d, d] - target.z
    assert (u is not None) == displaced
    assert np.sqrt(np.sum(r * r) + dz @ dz) == pytest.approx(path.constraint_residual, abs=1e-12)


def test_oracle_is_deterministic():
    rng = np.random.default_rng(53)
    ref = reference_state(StateKind.BOSON, 1)
    target = random_target(StateKind.BOSON, 1, rng)
    path_a, len_a = minimize_to_target(ref, target, segments=8, restarts=2, seed=7)
    path_b, len_b = minimize_to_target(ref, target, segments=8, restarts=2, seed=7)
    assert len_a == len_b
    assert np.array_equal(path_a.increments, path_b.increments)


def test_refining_segments_does_not_lengthen():
    rng = np.random.default_rng(54)
    ref = reference_state(StateKind.BOSON, 1)
    target = random_target(StateKind.BOSON, 1, rng)
    _, len8 = minimize_to_target(ref, target, segments=8, restarts=1)
    _, len16 = minimize_to_target(ref, target, segments=16, restarts=1)
    assert len16 <= len8 + 1e-8


def test_stationarity_of_normal_directions():
    # symmetric sp generator: the one-parameter subgroup is the geodesic
    v = LieAlgebraElement(np.diag([0.6, -0.6]), LieAlgebra.SP)
    report = check_stabilizer_geodesic(v, perturbation_count=20, seed=1)
    assert report.passed
    assert report.derivatives.shape == (20,)
    assert report.max_abs < 1e-6


def test_stationarity_of_fermion_complement():
    basis = stabilizer_basis(reference_state(StateKind.FERMION, 2).j)
    v = LieAlgebraElement(0.8 * basis.complement[0].v, LieAlgebra.SO)
    report = check_stabilizer_geodesic(v, perturbation_count=20, seed=2)
    assert report.passed


def test_stationarity_negative_control():
    # a non-normal generator is not a geodesic: the derivative is O(1)
    v = LieAlgebraElement(0.5 * np.array([[1.0, 1.0], [-1.0, -1.0]]), LieAlgebra.SP)
    report = check_stabilizer_geodesic(v, perturbation_count=20, seed=3)
    assert not report.passed
    assert report.max_abs > 0.1


@pytest.mark.parametrize("kind,n,displaced", DERIVATIVE_CASES)
@pytest.mark.parametrize("w", [1e2, 1e6])
def test_gradient_matches_central_difference(kind, n, displaced, w):
    prob, x = _problem(kind, n, displaced, seed=60 + n)
    h = 1e-6
    want = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        step = np.zeros_like(x)
        step[idx] = h
        want[idx] = (prob.total(x + step, w) - prob.total(x - step, w)) / (2.0 * h)
    got = prob.gradient(x, w)
    assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()


@pytest.mark.parametrize("kind,n,displaced", DERIVATIVE_CASES)
def test_jacobian_matches_expm_frechet(kind, n, displaced):
    prob, x = _problem(kind, n, displaced, seed=70 + n)
    gens = np.einsum("kc,cij->kij", x, prob.dirs)
    exps = [scipy.linalg.expm(a) for a in gens]
    eye = np.eye(gens.shape[-1])
    m = eye
    for e in exps:
        m = e @ m
    d = prob.d
    minv = np.linalg.inv(m[:d, :d])
    cols = []
    for k, a in enumerate(gens):
        before, after = eye, eye
        for e in exps[:k]:
            before = e @ before
        for e in exps[k + 1 :]:
            after = e @ after
        for b in prob.dirs:
            dm = after @ scipy.linalg.expm_frechet(a, b, compute_expm=False) @ before
            # d(M J_R M^{-1}) = dM J_R M^{-1} - M J_R M^{-1} dM M^{-1}
            dr = dm[:d, :d] @ prob.jr @ minv - m[:d, :d] @ prob.jr @ minv @ dm[:d, :d] @ minv
            cols.append(np.concatenate([dr.ravel(), dm[:d, d]]) if displaced else dr.ravel())
    want = np.array(cols).T
    got = prob._jacobian(prob._forward(x))
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("y_norm", [1e-3, 1.0, 1e3, 1e6])
def test_frechet_exp_matches_expm_frechet(d, y_norm):
    rng = np.random.default_rng([80, d])
    x = random_with_norm1(rng, np.geomspace(0.05, 1.0, 8), d)
    y = random_with_norm1(rng, np.full(8, y_norm), d)
    for xk, yk, got in zip(x, y, _frechet_exp(x, y)):
        want = scipy.linalg.expm_frechet(xk, yk, compute_expm=False)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_frechet_exp_is_exactly_linear_under_powers_of_two():
    rng = np.random.default_rng(81)
    x = random_with_norm1(rng, np.geomspace(0.05, 1.0, 8), 4)
    y = random_with_norm1(rng, np.ones(8), 4)
    base = _frechet_exp(x, y)
    for k in (-40, -3, 1, 7, 40):
        assert np.array_equal(_frechet_exp(x, 2.0**k * y), 2.0**k * base)


@pytest.mark.parametrize("kind,n", [(StateKind.BOSON, 1), (StateKind.BOSON, 2), (StateKind.FERMION, 2)])
def test_gradient_vanishes_at_the_self_target(kind, n):
    ref = reference_state(kind, n)
    prob = _Problem(ref, ref, 8)
    g = prob.gradient(np.zeros((8, prob.ncoord)), 1e6)
    assert np.all(np.isfinite(g))
    assert np.all(g == 0.0)
