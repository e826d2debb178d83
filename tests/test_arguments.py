"""Every public scalar, count, kind, array and object argument rejects a bad value in-band.

Each row names one argument by a call that takes a bad value in its place;
a bad value must raise a GaussianComplexityError subclass, never numpy's or
Python's ValueError, TypeError or AttributeError, and a bool or a wrong kind
string must not pass as a number or as the other kind.  An array argument
takes numbers only: one bool, string or None entry is rejected.
"""

import warnings

import numpy as np
import pytest

from gcomplexity import (
    DiscretizedPath,
    GaussianComplexityError,
    GaussianState,
    GaussianTransformation,
    GroupPath,
    LieAlgebra,
    LieAlgebraElement,
    StateKind,
    ValidationError,
    VectorPotential,
    WeylFactor,
    algebra_basis,
    algebra_of_kind,
    apply_transformation,
    chart_path_length,
    check_stabilizer_geodesic,
    coherent_complexity,
    coherent_geodesic,
    complexity_from_relative,
    inner_product_identity,
    lorentz_geodesic,
    matrix_exp_batch,
    metric_phiphi,
    minimize_to_target,
    nonreversible_cost,
    nonreversible_cost_profile,
    reference_state,
    relative_complex_structure,
    single_mode_squeezing,
    stabilizer_basis,
    standard_symplectic_form,
    state_complexity,
    state_to_dict,
    weyl_complexity,
)

BOSON = StateKind.BOSON
OMEGA = standard_symplectic_form(1)
VACUUM = reference_state(BOSON, 1)
FLAT = WeylFactor.constant(0.0)
START, VELOCITY = (0.5, 0.0), (1.0, 0.3)
GENERATOR = LieAlgebraElement(np.diag([0.1, -0.1]), LieAlgebra.SP)
PATH = DiscretizedPath([[0.5, 0.0], [1.0, 0.0]], [0.0, 1.0])
SQUEEZE = single_mode_squeezing(0.1, 0.0)

BAD = {"str": "x", "None": None, "bool": True, "list": [1.0, 2.0]}
REAL_BAD = {**BAD, "nan": np.nan, "inf": np.inf}
COUNT_BAD = {**BAD, "float": 1.5}
KIND_BAD = {**BAD, "list": [BOSON], "unknown": "bosons"}
ALGEBRA_BAD = {**BAD, "list": [LieAlgebra.SP], "unknown": "boson"}
ARRAY_BAD = {**BAD, "list": ["a", "b"]}
OPTIONAL_ARRAY_BAD = {k: v for k, v in ARRAY_BAD.items() if k != "None"}  # None is the default
OBJECT_BAD = {"str": "x", "None": None, "array": np.eye(2), "dict": state_to_dict(VACUUM)}
OPTIONAL_OBJECT_BAD = {k: v for k, v in OBJECT_BAD.items() if k != "None"}  # None is the default

# (argument, call with the bad value in its place, bad values)
ARGUMENTS = [
    # reals
    ("WeylFactor.constant", lambda x: WeylFactor.constant(x), REAL_BAD),
    ("WeylFactor.linear", lambda x: WeylFactor.linear(x), REAL_BAD),
    ("weyl_complexity.base_complexity", lambda x: weyl_complexity(x, FLAT, 4), REAL_BAD),
    ("VectorPotential.constant", lambda x: VectorPotential.constant(x), REAL_BAD),
    ("VectorPotential.ripple.f0", lambda x: VectorPotential.ripple(x, 0.3), REAL_BAD),
    ("VectorPotential.ripple.eps", lambda x: VectorPotential.ripple(0.5, x), REAL_BAD),
    ("lorentz_geodesic.start.r", lambda x: lorentz_geodesic((x, 0.0), VELOCITY), REAL_BAD),
    ("lorentz_geodesic.start.phi", lambda x: lorentz_geodesic((0.5, x), VELOCITY), REAL_BAD),
    ("lorentz_geodesic.velocity.r", lambda x: lorentz_geodesic(START, (x, 0.3)), REAL_BAD),
    ("lorentz_geodesic.velocity.phi", lambda x: lorentz_geodesic(START, (1.0, x)), REAL_BAD),
    ("lorentz_geodesic.length", lambda x: lorentz_geodesic(START, VELOCITY, length=x), REAL_BAD),
    # inf is the documented way to skip the drift check
    (
        "lorentz_geodesic.drift_tol",
        lambda x: lorentz_geodesic(START, VELOCITY, drift_tol=x),
        {k: v for k, v in REAL_BAD.items() if k != "inf"},
    ),
    ("single_mode_squeezing.r", lambda x: single_mode_squeezing(x, 0.0), REAL_BAD),
    ("single_mode_squeezing.phi", lambda x: single_mode_squeezing(0.5, x), REAL_BAD),
    ("GaussianState.tol", lambda x: GaussianState(OMEGA, BOSON, tol=x), REAL_BAD),
    # pairs
    (
        "lorentz_geodesic.start",
        lambda x: lorentz_geodesic(x, VELOCITY),
        {**BAD, "list": [0.5, 0.0, 1.0]},
    ),
    (
        "lorentz_geodesic.velocity",
        lambda x: lorentz_geodesic(START, x),
        {**BAD, "list": [1.0, 0.0, 1.0]},
    ),
    # counts
    ("standard_symplectic_form.n_modes", lambda x: standard_symplectic_form(x), COUNT_BAD),
    ("reference_state.n_modes", lambda x: reference_state(BOSON, x), COUNT_BAD),
    ("algebra_basis.n_modes", lambda x: algebra_basis(LieAlgebra.SO, x), COUNT_BAD),
    ("weyl_complexity.quad_steps", lambda x: weyl_complexity(1.0, FLAT, x), COUNT_BAD),
    (
        "lorentz_geodesic.rk_steps",
        lambda x: lorentz_geodesic(START, VELOCITY, rk_steps=x),
        COUNT_BAD,
    ),
    (
        "minimize_to_target.segments",
        lambda x: minimize_to_target(VACUUM, VACUUM, segments=x),
        COUNT_BAD,
    ),
    (
        "minimize_to_target.restarts",
        lambda x: minimize_to_target(VACUUM, VACUUM, restarts=x),
        COUNT_BAD,
    ),
    ("minimize_to_target.seed", lambda x: minimize_to_target(VACUUM, VACUUM, seed=x), COUNT_BAD),
    (
        "check_stabilizer_geodesic.perturbation_count",
        lambda x: check_stabilizer_geodesic(GENERATOR, perturbation_count=x),
        COUNT_BAD,
    ),
    (
        "check_stabilizer_geodesic.seed",
        lambda x: check_stabilizer_geodesic(GENERATOR, seed=x),
        COUNT_BAD,
    ),
    # kinds
    ("GaussianState.kind", lambda x: GaussianState(OMEGA, x), KIND_BAD),
    ("GaussianTransformation.kind", lambda x: GaussianTransformation(None, np.eye(2), x), KIND_BAD),
    ("GroupPath.kind", lambda x: GroupPath(np.zeros((4, 2, 2)), x), KIND_BAD),
    ("algebra_of_kind.kind", lambda x: algebra_of_kind(x), KIND_BAD),
    ("LieAlgebraElement.algebra", lambda x: LieAlgebraElement(np.zeros((2, 2)), x), ALGEBRA_BAD),
    ("algebra_basis.algebra", lambda x: algebra_basis(x, 1), ALGEBRA_BAD),
    # arrays
    ("GaussianState.j", lambda x: GaussianState(x, BOSON), ARRAY_BAD),
    ("GaussianState.z", lambda x: GaussianState(OMEGA, BOSON, z=x), OPTIONAL_ARRAY_BAD),
    ("GaussianTransformation.m", lambda x: GaussianTransformation(None, x, BOSON), ARRAY_BAD),
    (
        "GaussianTransformation.v",
        lambda x: GaussianTransformation(x, np.eye(2), BOSON),
        OPTIONAL_ARRAY_BAD,
    ),
    ("LieAlgebraElement.v", lambda x: LieAlgebraElement(x, LieAlgebra.SP), ARRAY_BAD),
    ("DiscretizedPath.samples", lambda x: DiscretizedPath(x, [0.0, 1.0]), ARRAY_BAD),
    ("DiscretizedPath.params", lambda x: DiscretizedPath(np.zeros((2, 2)), x), ARRAY_BAD),
    (
        "DiscretizedPath.velocities",
        lambda x: DiscretizedPath(np.zeros((2, 2)), [0.0, 1.0], x),
        OPTIONAL_ARRAY_BAD,
    ),
    ("GroupPath.increments", lambda x: GroupPath(x, BOSON), ARRAY_BAD),
    (
        "GroupPath.displacement_increments",
        lambda x: GroupPath(np.zeros((4, 2, 2)), BOSON, x),
        OPTIONAL_ARRAY_BAD,
    ),
    ("WeylFactor.tabulated.r_values", lambda x: WeylFactor.tabulated(x, [1.0, 2.0]), ARRAY_BAD),
    ("WeylFactor.tabulated.omega_values", lambda x: WeylFactor.tabulated([0.0, 1.0], x), ARRAY_BAD),
    ("VectorPotential.gradient", lambda x: VectorPotential.gradient(x), ARRAY_BAD),
    ("matrix_exp_batch", lambda x: matrix_exp_batch(x), ARRAY_BAD),
    ("inner_product_identity", lambda x: inner_product_identity(x, np.eye(2)), ARRAY_BAD),
    ("metric_phiphi", lambda x: metric_phiphi(x), {k: v for k, v in BAD.items() if k != "list"}),
    # objects
    ("state_complexity.reference", lambda x: state_complexity(x, VACUUM), OBJECT_BAD),
    ("state_complexity.target", lambda x: state_complexity(VACUUM, x), OBJECT_BAD),
    (
        "relative_complex_structure.reference",
        lambda x: relative_complex_structure(x, VACUUM),
        OBJECT_BAD,
    ),
    (
        "relative_complex_structure.target",
        lambda x: relative_complex_structure(VACUUM, x),
        OBJECT_BAD,
    ),
    ("coherent_geodesic.reference", lambda x: coherent_geodesic(x, VACUUM), OBJECT_BAD),
    ("coherent_geodesic.target", lambda x: coherent_geodesic(VACUUM, x), OBJECT_BAD),
    ("coherent_complexity", lambda x: coherent_complexity(x), OBJECT_BAD),
    ("complexity_from_relative", lambda x: complexity_from_relative(x), OBJECT_BAD),
    ("minimize_to_target.reference", lambda x: minimize_to_target(x, VACUUM), OBJECT_BAD),
    ("minimize_to_target.target", lambda x: minimize_to_target(VACUUM, x), OBJECT_BAD),
    ("apply_transformation.state", lambda x: apply_transformation(x, SQUEEZE), OBJECT_BAD),
    ("apply_transformation.t", lambda x: apply_transformation(VACUUM, x), OBJECT_BAD),
    ("stabilizer_basis", lambda x: stabilizer_basis(x), OBJECT_BAD),
    ("check_stabilizer_geodesic", lambda x: check_stabilizer_geodesic(x), OBJECT_BAD),
    ("lorentz_geodesic.a", lambda x: lorentz_geodesic(START, VELOCITY, a=x), OPTIONAL_OBJECT_BAD),
    ("weyl_complexity.weyl", lambda x: weyl_complexity(1.0, x, 4), OBJECT_BAD),
    ("nonreversible_cost.path", lambda x: nonreversible_cost(x), OBJECT_BAD),
    ("nonreversible_cost.a", lambda x: nonreversible_cost(PATH, x), OPTIONAL_OBJECT_BAD),
    ("nonreversible_cost_profile.path", lambda x: nonreversible_cost_profile(x), OBJECT_BAD),
    (
        "nonreversible_cost_profile.a",
        lambda x: nonreversible_cost_profile(PATH, x),
        OPTIONAL_OBJECT_BAD,
    ),
    ("chart_path_length", lambda x: chart_path_length(x), OBJECT_BAD),
    ("state_to_dict", lambda x: state_to_dict(x), OBJECT_BAD),
]

# (array argument, call with the array in its place, a valid value as nested lists)
ENTRIES = [
    ("GaussianState.j", lambda x: GaussianState(x, BOSON), OMEGA.tolist()),
    ("GaussianState.z", lambda x: GaussianState(OMEGA, BOSON, z=x), [0.0, 0.0]),
    ("GaussianTransformation.m", lambda x: GaussianTransformation(None, x, BOSON), np.eye(2).tolist()),
    ("GaussianTransformation.v", lambda x: GaussianTransformation(x, np.eye(2), BOSON), [0.0, 0.0]),
    ("LieAlgebraElement.v", lambda x: LieAlgebraElement(x, LieAlgebra.SP), OMEGA.tolist()),
    ("DiscretizedPath.samples", lambda x: DiscretizedPath(x, [0.0, 1.0]), [[0.0, 0.0], [1.0, 0.0]]),
    ("DiscretizedPath.params", lambda x: DiscretizedPath(np.zeros((2, 2)), x), [0.0, 1.0]),
    (
        "DiscretizedPath.velocities",
        lambda x: DiscretizedPath(np.zeros((2, 2)), [0.0, 1.0], x),
        [[1.0, 0.0], [1.0, 0.0]],
    ),
    ("GroupPath.increments", lambda x: GroupPath(x, BOSON), np.zeros((4, 2, 2)).tolist()),
    (
        "GroupPath.displacement_increments",
        lambda x: GroupPath(np.zeros((4, 2, 2)), BOSON, x),
        np.zeros((4, 2)).tolist(),
    ),
    ("WeylFactor.tabulated.r_values", lambda x: WeylFactor.tabulated(x, [1.0, 2.0]), [0.0, 1.0]),
    (
        "WeylFactor.tabulated.omega_values",
        lambda x: WeylFactor.tabulated([0.0, 1.0], x),
        [0.0, 1.0],
    ),
    ("VectorPotential.gradient", lambda x: VectorPotential.gradient(x), [0.0, 1.0]),
    ("inner_product_identity.v", lambda x: inner_product_identity(x, np.eye(2)), np.eye(2).tolist()),
    ("inner_product_identity.w", lambda x: inner_product_identity(np.eye(2), x), np.eye(2).tolist()),
    ("metric_phiphi", lambda x: metric_phiphi(x), [0.5, 1.0]),
]


def _with_last_entry(value, entry):
    """A copy of nested lists value with its last scalar entry replaced."""
    if not isinstance(value[-1], list):
        return [*value[:-1], entry]
    return [*value[:-1], _with_last_entry(value[-1], entry)]


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{argument}-{label}")
        for argument, call, bad in ARGUMENTS
        for label, value in bad.items()
    ],
)
def test_a_bad_argument_raises_a_library_error(call, value):
    with pytest.raises(GaussianComplexityError):
        call(value)


@pytest.mark.parametrize(
    "call, valid",
    [pytest.param(call, valid, id=argument) for argument, call, valid in ENTRIES],
)
@pytest.mark.parametrize("entry", [True, "1", None], ids=["bool", "str", "None"])
def test_an_array_entry_that_is_not_a_number_is_rejected(call, valid, entry):
    # np.asarray(..., dtype=float) took all three, as 1.0, 1.0 and nan
    call(valid)
    with pytest.raises(ValidationError, match="must be an array of real numbers$"):
        call(_with_last_entry(valid, entry))


def test_an_ndarray_is_judged_by_its_dtype():
    # a list of float arrays passes; a bool array, or a complex one (cast with a warning), does not
    path = GroupPath([np.zeros((2, 2))] * 4, BOSON)
    assert path.increments.shape == (4, 2, 2)
    assert GaussianState([np.array([0.0, 1.0]), [-1.0, np.float32(0.0)]], BOSON).kind is BOSON
    assert GaussianState(OMEGA.astype(np.int8), BOSON).kind is BOSON
    with pytest.raises(ValidationError, match="^increments must be an array of real numbers$"):
        GroupPath([np.zeros((2, 2), dtype=bool)] * 4, BOSON)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^j must be an array of real numbers$"):
            GaussianState(OMEGA.astype(complex), BOSON)


def test_a_wrong_object_names_its_argument_and_class():
    # each read an attribute of the object and raised AttributeError or TypeError
    with pytest.raises(ValidationError, match="^target must be a GaussianState, got 'x'$"):
        state_complexity(VACUUM, "x")
    with pytest.raises(ValidationError, match="^a must be a VectorPotential, got 0$"):
        lorentz_geodesic(START, VELOCITY, a=0)
    with pytest.raises(ValidationError, match="^weyl must be a WeylFactor, got None$"):
        weyl_complexity(1.0, None, 4)


def test_a_kind_is_taken_by_its_value():
    # a kind string was kept as given and read as the other kind
    state = GaussianState(OMEGA, "boson")
    assert state.kind is BOSON
    assert np.array_equal(state.sigma, np.eye(2))  # -Omega Omega: the vacuum, not a fermion form
    squeezed = apply_transformation(VACUUM, single_mode_squeezing(0.7, 0.3))
    assert GaussianState(squeezed.j, "boson").kind is BOSON
    target = GaussianState(squeezed.j, "boson")
    assert state_complexity(state, target) == pytest.approx(0.7, abs=1e-12)
    assert GaussianTransformation(None, np.eye(2), "fermion").kind is StateKind.FERMION
    assert GroupPath(np.zeros((4, 2, 2)), "fermion").kind is StateKind.FERMION
    assert algebra_of_kind("fermion") is LieAlgebra.SO
    assert np.array_equal(algebra_basis("sp", 1), algebra_basis(LieAlgebra.SP, 1))
    squeeze = np.diag([1.0, -1.0])  # in sp(2), not in so(2)
    assert LieAlgebraElement(squeeze, "sp").algebra is LieAlgebra.SP


def test_a_bool_is_not_a_number():
    # True was taken as 1.0 and as N = 1
    with pytest.raises(GaussianComplexityError, match="constant factor must be a real number"):
        WeylFactor.constant(True)
    with pytest.raises(GaussianComplexityError, match="n_modes must be an integer"):
        algebra_basis(LieAlgebra.SO, True)


def test_an_infinite_base_complexity_is_rejected_as_input():
    # it was reported as an overflow of the integral
    with pytest.raises(GaussianComplexityError, match="^base_complexity must be finite, got inf$"):
        weyl_complexity(np.inf, FLAT, 4)


def test_an_integer_past_the_float_range_is_not_finite():
    with pytest.raises(GaussianComplexityError, match="^linear factor must be finite, got -inf$"):
        WeylFactor.linear(-(10**400))


def test_strong_squeezing_raises_without_a_warning():
    # cosh and sinh overflowed with four RuntimeWarnings before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GaussianComplexityError, match="m contains non-finite entries"):
            single_mode_squeezing(1000.0, 0.0)
