from unittest import mock

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
    algebra_basis,
    algebra_of_kind,
    apply_transformation,
    check_stabilizer_geodesic,
    coherent_complexity,
    coherent_geodesic,
    minimize_to_target,
    reference_state,
    single_mode_squeezing,
    stabilizer_basis,
    standard_symplectic_form,
    state_complexity,
)
from gcomplexity import variational_oracle
from gcomplexity.variational_oracle import (
    PENALTY_SCHEDULE,
    RESTORE_TOL,
    STAGE_ITERATIONS,
    STATIONARITY_SEGMENTS,
    _frechet_exp,
    _Problem,
)
from helpers import displaced_target, random_algebra_matrix, random_target, random_with_norm1

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
    assert path.increments.shape[0] == 6


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
    shifted = GaussianState(bref.j, bref.kind, np.array([1.0, 0.5]))
    squeeze = GaussianTransformation(None, np.diag([np.exp(0.5), np.exp(-0.5)]), StateKind.BOSON)
    with pytest.raises(DisplacementPresent):
        minimize_to_target(shifted, apply_transformation(bref, squeeze), segments=4, restarts=1)


def test_a_displaced_reference_is_blamed_on_the_reference():
    # the reference's error comes first, whatever the target: undisplaced,
    # displaced, or of the other kind
    bref = reference_state(StateKind.BOSON, 1)
    shifted = GaussianState(bref.j, bref.kind, np.array([1.0, 0.5]))
    targets = [
        bref,
        GaussianState(bref.j, bref.kind, np.array([0.0, 2.0])),
        reference_state(StateKind.FERMION, 1),
    ]
    for target in targets:
        with pytest.raises(DisplacementPresent, match="^reference displacement must be zero$"):
            minimize_to_target(shifted, target, segments=4, restarts=1)


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
    r = mm @ ref.j @ np.linalg.inv(mm) - target.j
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


def _candidate_grouping_runs():
    """minimize_to_target on three targets at K = 8, R = 3, seed 1: increment bytes and length."""
    rng = np.random.default_rng(56)
    cases = [
        (StateKind.BOSON, 1, random_target(StateKind.BOSON, 1, rng)),
        (StateKind.BOSON, 2, displaced_target(2, rng)),
        (StateKind.FERMION, 2, random_target(StateKind.FERMION, 2, rng)),
    ]
    runs = []
    for kind, n, target in cases:
        path, length = minimize_to_target(reference_state(kind, n), target, segments=8, restarts=3, seed=1)
        u = path.displacement_increments
        runs.append((path.increments.tobytes(), None if u is None else u.tobytes(), length))
    return runs


@pytest.fixture(scope="module")
def halving_one_at_a_time():
    with mock.patch.object(variational_oracle, "LINE_SEARCH_CANDIDATES", 1), \
            mock.patch.object(variational_oracle, "_HALVINGS", 0.5 ** np.arange(1)):
        return _candidate_grouping_runs()


@pytest.mark.parametrize("candidates", [2, 3, 5, 40])
def test_line_search_candidate_grouping_never_changes_a_step(candidates, halving_one_at_a_time, monkeypatch):
    # how many halvings one stacked evaluation tries is a speed choice only
    monkeypatch.setattr(variational_oracle, "LINE_SEARCH_CANDIDATES", candidates)
    monkeypatch.setattr(variational_oracle, "_HALVINGS", 0.5 ** np.arange(candidates))
    assert _candidate_grouping_runs() == halving_one_at_a_time


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
    assert report.max_abs < 1e-12


def test_stationarity_of_fermion_complement():
    basis = stabilizer_basis(reference_state(StateKind.FERMION, 2))
    v = LieAlgebraElement(0.8 * basis.complement[0].v, LieAlgebra.SO)
    report = check_stabilizer_geodesic(v, perturbation_count=20, seed=2)
    assert report.passed


def test_stationarity_negative_control():
    # a non-normal generator is not a geodesic: the derivative is O(1)
    v = LieAlgebraElement(0.5 * np.array([[1.0, 1.0], [-1.0, -1.0]]), LieAlgebra.SP)
    report = check_stabilizer_geodesic(v, perturbation_count=20, seed=3)
    assert not report.passed
    assert report.max_abs > 0.1


def _stationarity_cases():
    """(generator, seed): the criterion-9 generators, the cases above, one random sp element per N."""
    cases = []
    for kind in StateKind:
        for n in (1, 2):
            for elem in stabilizer_basis(reference_state(kind, n)).elements:
                cases.append((LieAlgebraElement(0.9 * elem.v, algebra_of_kind(kind)), 0))
    complement = stabilizer_basis(reference_state(StateKind.FERMION, 2)).complement[0]
    cases += [
        (LieAlgebraElement(np.diag([0.6, -0.6]), LieAlgebra.SP), 1),
        (LieAlgebraElement(0.8 * complement.v, LieAlgebra.SO), 2),
        (LieAlgebraElement(0.5 * np.array([[1.0, 1.0], [-1.0, -1.0]]), LieAlgebra.SP), 3),
    ]
    rng = np.random.default_rng(57)
    for n in (1, 2):
        cases.append((LieAlgebraElement(random_algebra_matrix(StateKind.BOSON, n, rng), LieAlgebra.SP), 4))
    return cases


def _central_difference(v, count, seed, eps=3e-5):
    """Central differences of the discretized length; the last increment is a principal log."""
    k_seg = STATIONARITY_SEGMENTS
    x = v.v / k_seg
    target = scipy.linalg.expm(v.v)
    mats = algebra_basis(v.algebra, v.n_modes)
    rng = np.random.default_rng(seed)

    def length(incs):
        m = np.eye(len(x))
        for a in incs:
            m = scipy.linalg.expm(a) @ m
        last = scipy.linalg.logm(target @ np.linalg.inv(m)).real
        return sum(np.sqrt(0.5 * np.sum(a * a)) for a in [*incs, last])

    out = []
    for _ in range(count):
        deltas = np.einsum("kd,dij->kij", rng.normal(size=(k_seg - 1, len(mats))), mats)
        deltas /= np.sqrt(0.5 * np.sum(deltas * deltas))
        out.append((length(x + eps * deltas) - length(x - eps * deltas)) / (2.0 * eps))
    return np.array(out)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"segments": 4.5}, "segments must be an integer"),
        ({"segments": True}, "segments must be an integer"),
        ({"restarts": 2.0}, "restarts must be an integer"),
        ({"restarts": True}, "restarts must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": np.True_}, "seed must be an integer"),
    ],
)
def test_oracle_integer_arguments_are_validation_errors(kwargs, message):
    # numpy's own errors at the parent: a float is not an index, SeedSequence wants an int
    ref = reference_state(StateKind.BOSON, 1)
    with pytest.raises(ValidationError, match=message):
        minimize_to_target(ref, ref, **kwargs)


def test_oracle_takes_numpy_integer_arguments():
    ref = reference_state(StateKind.BOSON, 1)
    path, length = minimize_to_target(
        ref, ref, segments=np.int64(4), restarts=np.int32(1), seed=np.uint8(2)
    )
    assert path.increments.shape[0] == 4
    assert length < 1e-9


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"perturbation_count": 0}, "perturbation_count must be >= 1"),
        ({"perturbation_count": -1}, "perturbation_count must be >= 1"),
        ({"perturbation_count": 2.5}, "perturbation_count must be an integer"),
        ({"perturbation_count": True}, "perturbation_count must be an integer"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": 0.5}, "seed must be an integer"),
    ],
)
def test_stationarity_check_arguments_are_validation_errors(kwargs, message):
    v = LieAlgebraElement(np.diag([0.6, -0.6]), LieAlgebra.SP)
    with pytest.raises(ValidationError, match=message):
        check_stabilizer_geodesic(v, **kwargs)


def test_stationarity_check_takes_numpy_integer_arguments():
    v = LieAlgebraElement(np.diag([0.6, -0.6]), LieAlgebra.SP)
    report = check_stabilizer_geodesic(v, perturbation_count=np.int64(3), seed=np.int64(1))
    assert report.derivatives.shape == (3,)
    assert report.passed


@pytest.mark.parametrize("v,seed", _stationarity_cases())
def test_stationarity_derivatives_match_central_difference(v, seed):
    got = check_stabilizer_geodesic(v, perturbation_count=10, seed=seed).derivatives
    assert np.abs(got - _central_difference(v, 10, seed)).max() <= 2e-6


def test_stationarity_holds_past_the_log_branch():
    # |V / K| > pi: a principal log of the last increment leaves the curve's branch
    rotation = LieAlgebraElement(30.0 * standard_symplectic_form(1), LieAlgebra.SO)
    sp_rotation = LieAlgebraElement(40.0 * standard_symplectic_form(1), LieAlgebra.SP)
    for v in (rotation, sp_rotation):
        assert check_stabilizer_geodesic(v).max_abs < 1e-12


@pytest.mark.parametrize("algebra,n", [(LieAlgebra.SP, 1), (LieAlgebra.SP, 2), (LieAlgebra.SO, 2)])
def test_stationarity_at_the_exp_resonance(algebra, n):
    # V / K = pi Omega: e^{V/K} = -1, and L_exp(X^T, .) has condition number 3e16 to 1e17
    v = LieAlgebraElement(8.0 * np.pi * standard_symplectic_form(n), algebra)
    assert check_stabilizer_geodesic(v).max_abs <= 1e-12


def test_stationarity_of_zero_generator():
    report = check_stabilizer_geodesic(LieAlgebraElement(np.zeros((4, 4)), LieAlgebra.SP), 7)
    assert np.array_equal(report.derivatives, np.zeros(7))
    assert report.passed


@pytest.mark.parametrize("kind,n,displaced", DERIVATIVE_CASES)
@pytest.mark.parametrize("w", [1e2, 1e6])
def test_gradient_matches_central_difference(kind, n, displaced, w):
    prob, x = _problem(kind, n, displaced, seed=60 + n)
    h = 1e-6
    want = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        step = np.zeros_like(x)
        step[idx] = h
        plus, minus = x + step, x - step
        want[idx] = (
            prob.total(plus, w, prob._forward(plus)) - prob.total(minus, w, prob._forward(minus))
        ) / (2.0 * h)
    got = prob.gradient(x, w, prob._forward(x))
    assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()


def _minimize_one_path(prob, x):
    """The penalty stages on one path, halving each trial step one at a time."""
    step = 0.1
    for w, max_iter in zip(PENALTY_SCHEDULE, STAGE_ITERATIONS):
        f = prob.total(x, w, prob._forward(x))
        for _ in range(max_iter):
            g = prob.gradient(x, w, prob._forward(x))
            gn2 = float(np.sum(g * g))
            if gn2 < 1e-20:
                break
            trial = min(step * 2.0, 10.0 / np.sqrt(gn2)) if gn2 > 100.0 else step * 2.0
            for _ in range(40):
                xn = x - trial * g
                with np.errstate(over="ignore", invalid="ignore"):
                    fn = prob.total(xn, w, prob._forward(xn))
                if fn < f - 1e-4 * trial * gn2:
                    x, f, step = xn, fn, trial
                    break
                trial *= 0.5
            else:
                break
    return x


@pytest.mark.parametrize("kind,n,displaced", DERIVATIVE_CASES)
def test_stacked_restarts_take_the_steps_they_take_alone(kind, n, displaced):
    prob, _ = _problem(kind, n, displaced, seed=90 + n)
    rng = np.random.default_rng(91)
    warm = prob.warm_start()
    # the warm start, one a hair off it (it stops at another iteration), two random ones
    x0 = np.stack([warm, warm * (1.0 + 1e-9), *rng.normal(scale=0.05, size=(2, 8, prob.ncoord))])
    alone = [prob.minimize(start[None])[0] for start in x0[:-1]]
    with mock.patch.object(prob, "_forward", wraps=prob._forward) as fwd, \
            mock.patch.object(prob, "gradient", wraps=prob.gradient) as grad:
        alone.append(prob.minimize(x0[-1:])[0])
    # some iteration of the last start needed a second stacked evaluation (4+ halvings)
    assert sum(c.args[0].ndim == 4 for c in fwd.call_args_list) > grad.call_count
    with mock.patch.object(prob, "_line_search", wraps=prob._line_search) as search:
        stacked = prob.minimize(x0)
    if not displaced:
        # the starts near the geodesic stop searching, at different iterations
        assert len({c.args[6].sum() for c in search.call_args_list}) >= 3
    for got, want in zip(stacked, alone):
        assert np.array_equal(got, want)
    # and the stacked line search takes the step that halving one at a time takes
    assert np.array_equal(alone[-1], _minimize_one_path(prob, x0[-1]))


@pytest.mark.parametrize("kind,n", [(StateKind.BOSON, 1), (StateKind.BOSON, 2), (StateKind.FERMION, 2)])
def test_a_restart_that_stops_keeps_its_row_until_its_stage_ends(kind, n):
    prob, _ = _problem(kind, n, False, seed=90 + n)
    # the warm start stops before the cap in some stages, while the random starts go on
    rng = np.random.default_rng(91)
    x0 = np.stack([prob.warm_start(), *rng.normal(scale=0.05, size=(2, 8, prob.ncoord))])
    calls = []
    line_search = prob._line_search

    def record(x, fwd, f, step, g, w, searching):
        before = [a.copy() for a in (x, step, *fwd)]
        moved = line_search(x, fwd, f, step, g, w, searching)
        calls.append((w, searching, moved, before, [a.copy() for a in (x, step, *fwd)]))
        return moved

    with mock.patch.object(prob, "_line_search", side_effect=record):
        prob.minimize(x0)
    stopped_while_others_moved = False
    for i, (w, searching, moved, before, after) in enumerate(calls):
        assert not (moved & ~searching).any()
        for a, b in zip(before, after):
            assert np.array_equal(a[~moved], b[~moved])
        if i + 1 < len(calls) and calls[i + 1][0] == w:
            # nothing moves a row between two steps of one stage
            assert calls[i + 1][1] is moved
            for a, b in zip(after, calls[i + 1][3]):
                assert np.array_equal(a, b)
        stopped_while_others_moved |= bool((~searching).any() and moved.any())
    assert stopped_while_others_moved


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
    x = np.zeros((8, prob.ncoord))
    g = prob.gradient(x, 1e6, prob._forward(x))
    assert np.all(np.isfinite(g))
    assert np.all(g == 0.0)


def test_restore_never_raises_a_residual_and_leaves_a_restored_path_alone():
    # starts far off the constraint, where some Levenberg-Marquardt steps are
    # rejected and the damping raised; the second start stays above RESTORE_TOL,
    # at 7.7 from 628 (19.4 if a rejected step left the damping as it was)
    ref = reference_state(StateKind.BOSON, 1)
    prob = _Problem(ref, apply_transformation(ref, single_mode_squeezing(0.7, 0.3)), 8)
    x0 = np.random.default_rng(1).normal(scale=0.5, size=(4, 8, prob.ncoord))
    before = np.array([np.linalg.norm(prob._forward(x).resid) for x in x0])
    x, norms = prob.restore(x0)
    assert np.all(norms <= before)
    done = norms < RESTORE_TOL
    assert done.tolist() == [True, False, True, True] and norms[1] < 10.0
    again, norms_again = prob.restore(x)
    assert np.array_equal(again[done], x[done])
    assert np.array_equal(norms_again[done], norms[done])
