import warnings

import numpy as np
import pytest

from gcomplexity import (
    DimensionMismatch,
    DiscretizedPath,
    DisplacementPresent,
    GaussianState,
    GaussianTransformation,
    GroupPath,
    GroupViolation,
    KindMismatch,
    LieAlgebra,
    LieAlgebraElement,
    NonFinite,
    NotPure,
    SchemaError,
    SingularInput,
    StateKind,
    ValidationError,
    apply_transformation,
    reference_state,
    single_mode_squeezing,
    standard_symplectic_form,
    state_from_dict,
    state_to_dict,
)
from gcomplexity import phase_space
from gcomplexity.lie_numerics import spd_pencil_stack
from helpers import displaced_target, passive, random_target, random_transformation


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
        assert state_from_dict(data).j.tobytes() == want.tobytes()
    for _ in range(5):
        data = state_to_dict(random_target(StateKind.FERMION, n, rng))
        form = np.asarray(data["sigma"])
        want = np.ascontiguousarray(np.linalg.solve(np.eye(2 * n), form.T).T)
        assert state_from_dict(data).j.tobytes() == want.tobytes()
    # an exact zero of the form may come back from solve with the other sign
    data = state_to_dict(reference_state(StateKind.FERMION, n))
    assert np.array_equal(state_from_dict(data).j, np.linalg.solve(np.eye(2 * n), om.T).T)


def _state(kind, sigma):
    return {"kind": kind, "n_modes": len(sigma) // 2, "sigma": sigma}


def test_symplectic_form_rejects_symmetric():
    with pytest.raises(GroupViolation, match="not antisymmetric"):
        state_from_dict(_state("fermion", [[1.0, 0.0], [0.0, 1.0]]))


def test_symplectic_form_rejects_wrong_det():
    with pytest.raises(GroupViolation, match=r"\|det\| = 1"):
        state_from_dict(_state("fermion", [[0.0, 2.0], [-2.0, 0.0]]))


def test_covariance_rejects_non_positive():
    with pytest.raises(SingularInput, match="not positive-definite"):
        state_from_dict(_state("boson", [[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(GroupViolation, match="not symmetric"):
        state_from_dict(_state("boson", [[1.0, 0.5], [0.0, 1.0]]))


def test_purity_rejects_thermal():
    with pytest.raises(NotPure):
        GaussianState(2.0 * standard_symplectic_form(1), StateKind.BOSON)
    with pytest.raises(NotPure):
        state_from_dict({"kind": "boson", "n_modes": 1, "sigma": 2.0 * np.eye(2)})


def _conjugated_standard_form(n, entries):
    """M Omega_N M^{-1} for M = 1 + the given off-diagonal entries, so J^2 = -1."""
    m = np.eye(2 * n)
    for (i, k), x in entries.items():
        m[i, k] = x
    return m @ standard_symplectic_form(n) @ np.linalg.inv(m)


_PARITY = {
    "fermion N=1 J not antisymmetric": (StateKind.FERMION, np.array([[1.0, 2.0], [-1.0, -1.0]])),
    "fermion N=2 J not antisymmetric": (
        StateKind.FERMION,
        _conjugated_standard_form(2, {(0, 1): 0.5, (1, 3): 0.7, (2, 0): 0.3}),
    ),
    "boson N=2 -J Omega asymmetric": (StateKind.BOSON, _conjugated_standard_form(2, {(0, 2): 0.8})),
    "boson thermal 2 Omega": (StateKind.BOSON, 2.0 * standard_symplectic_form(1)),
    "fermion thermal 2 Omega": (StateKind.FERMION, 2.0 * standard_symplectic_form(1)),
    # sigma = -1 is symmetric and symplectic, and J^2 = -1: only positivity rejects it
    "boson J = -Omega_1": (StateKind.BOSON, -standard_symplectic_form(1)),
    "boson N=2 diag(Omega, -Omega)": (
        StateKind.BOSON,
        np.kron(np.diag([1.0, -1.0]), standard_symplectic_form(1)),
    ),
    "boson J with a nan entry": (StateKind.BOSON, np.array([[0.0, 1.0], [np.nan, 0.0]])),
    "fermion J with an inf entry": (StateKind.FERMION, np.array([[0.0, np.inf], [-1.0, 0.0]])),
}


@pytest.mark.parametrize("case", list(_PARITY))
def test_constructor_rejects_what_the_loader_rejects(case):
    """GaussianState(J, kind) raises the loader's error for the same matrix."""
    kind, j = _PARITY[case]
    n = len(j) // 2
    sigma = j if kind is StateKind.FERMION else -j @ standard_symplectic_form(n)
    with pytest.raises(ValidationError) as loaded:
        state_from_dict({"kind": kind.value, "n_modes": n, "sigma": sigma.tolist()})
    with pytest.raises(ValidationError) as built:
        GaussianState(j, kind)
    assert type(built.value) is type(loaded.value)
    assert str(built.value) == str(loaded.value)


def _squeezes():
    """S(r, phi) at phi in {0, 0.3, 1} and r = 4, 4.5, ..., 20: 99 squeezes."""
    return [
        single_mode_squeezing(r, phi) for phi in (0.0, 0.3, 1.0) for r in np.arange(4.0, 20.25, 0.5)
    ]


def _mixed_draws(count=400):
    """J = sigma Omega_2 for sigma = P diag(e^{+-2 r_i}) P^T, radii in [0, 20], P passive."""
    rng = np.random.default_rng(18)
    om = standard_symplectic_form(2)
    for _ in range(count):
        p = passive(rng, 2)
        x = np.repeat(rng.uniform(0.0, 20.0, size=2), 2) * np.tile([1.0, -1.0], 2)
        sigma = (p * np.exp(2.0 * x)) @ p.T
        yield 0.5 * (sigma + sigma.T) @ om


def test_strongly_squeezed_states_survive_the_file_round_trip():
    # a Cholesky of sigma itself rejected 30 of these 99 on the way back in
    vacuum = reference_state(StateKind.BOSON, 1)
    for t in _squeezes():
        state = apply_transformation(vacuum, t)
        back = state_from_dict(state_to_dict(state))
        assert np.array_equal(back.j, state.j)


def test_positivity_rejects_only_states_the_pencil_rejects():
    # a state the constructor rejects as not positive-definite (1 of these 499, at
    # r = (19.71, 0.72)) is one whose complexity fails anyway, in the pencil's eigh
    jr = standard_symplectic_form(1)
    grid = [t.m @ jr @ t.inverse_m for t in _squeezes()]
    for j in [*grid, *_mixed_draws()]:
        try:
            GaussianState(j, StateKind.BOSON)
        except SingularInput:
            sigma = -j @ standard_symplectic_form(len(j) // 2)
            targets = phase_space.StateStack(sigma[None])
            spd_pencil_stack(targets, np.eye(len(j)))
            assert targets.errors[0] is not None


@pytest.mark.parametrize(
    "sigma,z,error",
    [
        ([[1.0, 0.5], [0.0, 1.0]], [np.nan, 0.0], "NonFinite: z contains non-finite entries"),
        ([[1.0, 0.0], [0.0, -1.0]], [0.0], "SchemaError: z must have length 2"),
        ([[2.0, 0.0], [0.0, 2.0]], ["0", 0.0], "SchemaError: z must be a numeric vector"),
    ],
)
def test_a_bad_z_is_reported_before_a_bad_sigma(sigma, z, error):
    data = {"kind": "boson", "n_modes": 1, "sigma": sigma, "z": z}
    with pytest.raises(ValidationError) as loaded:
        state_from_dict(data)
    assert f"{type(loaded.value).__name__}: {loaded.value}" == error


def test_state_from_dict_checks_each_state_once(monkeypatch):
    data = [state_to_dict(displaced_target(2, np.random.default_rng(7)))]
    data.append(state_to_dict(random_target(StateKind.FERMION, 2, np.random.default_rng(8))))
    check = phase_space._check_pure
    calls = []
    monkeypatch.setattr(
        phase_space, "_check_pure", lambda c, j, tol: calls.append(1) or check(c, j, tol)
    )
    for d in data:
        calls.clear()
        state_from_dict(d)
        assert len(calls) == 1


def test_reference_state_is_pure_and_standard():
    for kind in StateKind:
        ref = reference_state(kind, 2)
        assert ref.kind is kind
        assert np.allclose(ref.j @ ref.j, -np.eye(4))
        assert np.array_equal(ref.z, np.zeros(4))


def test_squeezed_complex_structure_matches_closed_form():
    # S(r, 0) J_R S(r, 0)^{-1} = [[0, e^{2r}], [-e^{-2r}, 0]]
    r = 0.73
    ref = reference_state(StateKind.BOSON, 1)
    t = apply_transformation(ref, single_mode_squeezing(r, 0.0))
    expect = np.array([[0.0, np.exp(2 * r)], [-np.exp(-2 * r), 0.0]])
    assert np.allclose(t.j, expect, atol=1e-12)


def test_pure_displacement_keeps_j():
    ref = reference_state(StateKind.BOSON, 1)
    t = GaussianTransformation(np.array([1.0, 0.0]), np.eye(2), StateKind.BOSON)
    out = apply_transformation(ref, t)
    assert np.array_equal(out.j, ref.j)
    assert np.array_equal(out.z, np.array([1.0, 0.0]))


def test_identity_transformation_is_identity():
    ref = reference_state(StateKind.FERMION, 2)
    t = GaussianTransformation(None, np.eye(4), StateKind.FERMION)
    out = apply_transformation(ref, t)
    assert np.array_equal(out.j, ref.j)


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
        with pytest.raises(GroupViolation, match="not antisymmetric"):
            state_from_dict(_state("fermion", [[1e200, 1.0], [-1.0, 0.0]]))
        with pytest.raises(GroupViolation, match="not symmetric"):
            state_from_dict(_state("boson", [[1e200, 1e199], [0.0, 1e-200]]))
        with pytest.raises(NotPure):
            GaussianState(np.array([[0.0, 1e200], [-1.0, 0.0]]), StateKind.BOSON)
        for kind in StateKind:
            with pytest.raises(GroupViolation):
                GaussianTransformation(None, np.diag([1e200, 1e200]), kind)
        # a huge pure state has exact zero residuals and passes
        state_from_dict(_state("boson", [[1e160, 0.0], [0.0, 1e-160]]))
        GaussianState(np.array([[0.0, 1e160], [-1e-160, 0.0]]), StateKind.BOSON)


def test_kind_mismatch_on_apply():
    ref = reference_state(StateKind.BOSON, 1)
    t = GaussianTransformation(None, np.eye(2), StateKind.FERMION)
    with pytest.raises(KindMismatch):
        apply_transformation(ref, t)


def test_a_state_loaded_at_a_looser_tol_is_closed_under_transformation():
    # residual 4.7e-08: accepted at tol 1e-6, and so is its image, also under the identity
    state = state_from_dict(_state("boson", [[1.0, 0.0], [0.0, 1.0 + 1e-7]]), tol=1e-6)
    assert state.tol == 1e-6
    for t in (
        GaussianTransformation(None, np.eye(2), StateKind.BOSON),
        single_mode_squeezing(0.3, 0.5),
    ):
        image = apply_transformation(state, t)
        assert image.tol == 1e-6
        assert np.array_equal(image.j, t.m @ state.j @ t.inverse_m)
    with pytest.raises(NotPure, match="relative residual 4.714e-08"):
        GaussianState(state.j, state.kind)  # built afresh, it is checked at the default tol
    with pytest.raises(NotPure):
        state_from_dict(_state("boson", [[1.0, 0.0], [0.0, 1.0 + 1e-7]]))


def test_fermion_state_rejects_displacement():
    j = reference_state(StateKind.FERMION, 1).j
    with pytest.raises(DisplacementPresent):
        GaussianState(j, StateKind.FERMION, np.array([0.1, 0.0]))


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
    with pytest.raises(ValidationError, match="squeezing magnitude r must be nonnegative"):
        single_mode_squeezing(-0.1, 0.0)


def test_state_dict_roundtrip_boson():
    rng = np.random.default_rng(2)
    state = displaced_target(2, rng)
    back = state_from_dict(state_to_dict(state))
    assert np.allclose(back.j, state.j, atol=1e-12)
    assert np.allclose(back.z, state.z, atol=1e-12)


def test_state_dict_roundtrip_fermion():
    rng = np.random.default_rng(3)
    state = random_target(StateKind.FERMION, 2, rng)
    back = state_from_dict(state_to_dict(state))
    assert np.allclose(back.j, state.j, atol=1e-12)


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


@pytest.mark.parametrize(
    "tol,message",
    [(np.nan, "tol must be finite"), (np.inf, "tol must be finite"), (-1.0, "tol must be positive"),
     (0.0, "tol must be positive")],
)
def test_tol_must_be_finite_and_positive(tol, message):
    # a nan or negative tol named the wrong cause (NotPure on a pure state); 0 and inf passed
    good = {"kind": "boson", "n_modes": 1, "sigma": [[1.0, 0.0], [0.0, 1.0]]}
    with pytest.raises(ValidationError, match=f"^{message}, got {tol}$") as err:
        state_from_dict(good, tol=tol)
    assert type(err.value) is ValidationError
    with pytest.raises(ValidationError, match=f"^{message}, got {tol}$"):
        GaussianState(standard_symplectic_form(1), StateKind.FERMION, tol=tol)


def test_parse_state_dict_takes_a_state_kind_member():
    # StateKind(kind) takes a member as well as a value, and so does the kind lookup
    sigma = [[2.0, 0.0], [0.0, 0.5]]
    for kind in (StateKind.BOSON, "boson"):
        got_kind, got_sigma, _ = phase_space.parse_state_dict(
            {"kind": kind, "n_modes": 1, "sigma": sigma}
        )
        assert got_kind is StateKind.BOSON
        assert np.array_equal(got_sigma, sigma)
    assert state_from_dict({"kind": StateKind.BOSON, "n_modes": 1, "sigma": sigma}).kind is (
        StateKind.BOSON
    )


def test_reference_sigma_is_identity_or_the_form():
    assert np.array_equal(reference_state(StateKind.BOSON, 2).sigma, np.eye(4))
    assert np.array_equal(reference_state(StateKind.FERMION, 2).sigma, standard_symplectic_form(2))


def test_sigma_roundtrip_boson():
    rng = np.random.default_rng(4)
    state = random_target(StateKind.BOSON, 2, rng)
    j = state_from_dict({"kind": "boson", "n_modes": 2, "sigma": state.sigma}).j
    assert np.array_equal(j, state.j)


@pytest.mark.parametrize("kind", list(StateKind))
def test_sigma_is_the_read_only_checked_matrix(kind):
    # the file's "sigma" comes back bit for bit; a fermion's is its form J
    data = state_to_dict(random_target(kind, 2, np.random.default_rng(31)))
    loaded = np.array(data["sigma"])
    state = state_from_dict(data)
    assert state.sigma.tobytes() == loaded.tobytes()
    if kind is StateKind.FERMION:
        assert state.sigma.tobytes() == state.j.tobytes()
    assert not state.sigma.flags.writeable
    with pytest.raises(ValueError):
        state.sigma[0, 0] = 2.0
    with pytest.raises(AttributeError):
        state.sigma = loaded


def test_value_classes_keep_a_read_only_copy_and_leave_the_callers_array_alone():
    j, z = np.array(standard_symplectic_form(1)), np.array([0.1, -0.2])
    v, m = np.array([0.3, 0.0]), np.eye(2)
    alg = np.diag([0.5, -0.5])
    samples, params, vel = np.array([[1.0, 0.0], [1.5, 0.2]]), np.array([0.0, 1.0]), np.ones((2, 2))
    inc, du = np.zeros((4, 2, 2)), np.zeros((4, 2))
    built = [
        (GaussianState(j, StateKind.BOSON, z), {"j": j, "z": z}),
        (GaussianTransformation(v, m, StateKind.BOSON), {"v": v, "m": m}),
        (LieAlgebraElement(alg, LieAlgebra.SP), {"v": alg}),
        (DiscretizedPath(samples, params, vel), {"samples": samples, "params": params, "velocities": vel}),
        (GroupPath(inc, StateKind.BOSON, du), {"increments": inc, "displacement_increments": du}),
    ]
    for obj, given in built:
        for name, a in given.items():
            kept = getattr(obj, name)
            assert a.flags.writeable, (type(obj).__name__, name)
            assert not np.shares_memory(kept, a), (type(obj).__name__, name)
            assert not kept.flags.writeable, (type(obj).__name__, name)
            assert kept.tobytes() == a.tobytes()
    j[0, 1] = 7.0  # the caller may write to its array; the state is unchanged
    assert built[0][0].j[0, 1] == 1.0


def test_state_stack_keeps_the_surviving_input_rows_in_order():
    rng = np.random.default_rng(32)
    for kind in StateKind:
        rows = [state_to_dict(random_target(kind, 2, rng))["sigma"] for _ in range(5)]
        sigmas = np.array(rows)
        sigmas[2, 0, 1] += 0.5  # fails symmetry (bosons) or antisymmetry (fermions)
        stack = phase_space.state_stack(kind, sigmas)
        assert [e is None for e in stack.errors] == [True, True, False, True, True]
        assert stack.index.tolist() == [0, 1, 3, 4]
        assert stack.sigma.tobytes() == sigmas[[0, 1, 3, 4]].tobytes()


def test_random_transformations_preserve_purity():
    rng = np.random.default_rng(5)
    for kind in StateKind:
        for _ in range(20):
            state = random_target(kind, 2, rng)
            assert np.allclose(state.j @ state.j, -np.eye(4), atol=1e-9)


def test_dimension_mismatch():
    ref = reference_state(StateKind.BOSON, 1)
    t = GaussianTransformation(None, np.eye(4), StateKind.BOSON)
    with pytest.raises(DimensionMismatch):
        apply_transformation(ref, t)


def test_displacement_vector_checks():
    # z of a state and v of a transformation: None is zeros, shape before finiteness
    ref = reference_state(StateKind.BOSON, 1)
    make = {
        "z": lambda a: GaussianState(ref.j, ref.kind, a),
        "v": lambda a: GaussianTransformation(a, np.eye(2), StateKind.BOSON),
    }
    for name, build in make.items():
        assert np.array_equal(getattr(build(None), name), np.zeros(2))
        with pytest.raises(DimensionMismatch, match=rf"^{name} must have shape \(2,\), got \(3,\)$"):
            build([np.nan, 0.0, 0.0])
        with pytest.raises(NonFinite, match=f"^{name} contains non-finite entries$"):
            build([np.inf, 0.0])


def test_a_non_square_j_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match=r"^j must be a square matrix, got shape \(2, 3\)$"):
        GaussianState(np.zeros((2, 3)), StateKind.BOSON)
