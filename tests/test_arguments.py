"""Every public scalar, count, kind and array argument rejects a bad value in-band.

Each row names one argument by a call that takes a bad value in its place;
a bad value must raise a GaussianComplexityError subclass, never numpy's or
Python's ValueError or TypeError, and a bool or a wrong kind string must not
pass as a number or as the other kind.
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
    VectorPotential,
    WeylFactor,
    algebra_basis,
    algebra_of_kind,
    apply_transformation,
    check_stabilizer_geodesic,
    inner_product_identity,
    lorentz_geodesic,
    matrix_exp_batch,
    minimize_to_target,
    reference_state,
    single_mode_squeezing,
    standard_symplectic_form,
    state_complexity,
    weyl_complexity,
)

BOSON = StateKind.BOSON
OMEGA = standard_symplectic_form(1)
VACUUM = reference_state(BOSON, 1)
FLAT = WeylFactor.constant(0.0)
START, VELOCITY = (0.5, 0.0), (1.0, 0.3)
GENERATOR = LieAlgebraElement(np.diag([0.1, -0.1]), LieAlgebra.SP)

BAD = {"str": "x", "None": None, "bool": True, "list": [1.0, 2.0]}
REAL_BAD = {**BAD, "nan": np.nan, "inf": np.inf}
COUNT_BAD = {**BAD, "float": 1.5}
KIND_BAD = {**BAD, "list": [BOSON], "unknown": "bosons"}
ALGEBRA_BAD = {**BAD, "list": [LieAlgebra.SP], "unknown": "boson"}
ARRAY_BAD = {**BAD, "list": ["a", "b"]}
OPTIONAL_ARRAY_BAD = {k: v for k, v in ARRAY_BAD.items() if k != "None"}  # None is the default

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
]


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
