"""Acceptance gate: one test per numbered criterion.

Each test pins its tolerance and runtime budget as literals; the
terminal summary hook in conftest.py prints a PASS/FAIL line per
criterion.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from gcomplexity import (
    DiscretizedPath,
    GaussianState,
    GaussianTransformation,
    LieAlgebraElement,
    StateKind,
    VectorPotential,
    WeylFactor,
    algebra_of_kind,
    apply_transformation,
    chart_path_length,
    check_stabilizer_geodesic,
    coherent_complexity,
    coherent_geodesic,
    inner_product_identity,
    lorentz_geodesic,
    minimize_to_target,
    nonreversible_cost,
    reference_state,
    relative_complex_structure,
    single_mode_squeezing,
    stabilizer_basis,
    state_complexity,
    weyl_complexity,
)
from helpers import random_target


def test_criterion_01_squeezing_anchor():
    t0 = time.monotonic()
    ref = reference_state(StateKind.BOSON, 1)
    for r in (0.1, 0.5, 1.0, 2.0, 5.0):
        for phi in (0.0, np.pi / 3, 3 * np.pi / 2):
            target = apply_transformation(ref, single_mode_squeezing(r, phi))
            assert abs(state_complexity(ref, target) - r) <= 1e-10
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_multimode_additivity():
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    for n in (2, 3, 4):
        rs = rng.uniform(0.1, 2.0, size=n)
        phis = rng.uniform(0.0, 2 * np.pi, size=n)
        blocks = [single_mode_squeezing(r, p).m for r, p in zip(rs, phis)]
        m = scipy.linalg.block_diag(*blocks)
        ref = reference_state(StateKind.BOSON, n)
        target = apply_transformation(
            ref, GaussianTransformation(None, m, StateKind.BOSON)
        )
        want = np.sqrt(np.sum(rs**2))
        assert abs(state_complexity(ref, target) - want) <= 1e-9
    assert time.monotonic() - t0 < 1.0


def test_criterion_03_coherent_reduction_and_anchor():
    t0 = time.monotonic()
    ref = reference_state(StateKind.BOSON, 1)
    for r in (0.1, 0.5, 1.0, 2.0, 5.0):
        for phi in (0.0, np.pi / 3, 3 * np.pi / 2):
            target = apply_transformation(ref, single_mode_squeezing(r, phi))
            geo = coherent_geodesic(ref, target)
            assert abs(coherent_complexity(geo) - r) <= 1e-10
    displaced = GaussianState(ref.j, ref.kind, np.array([3.0, 4.0]))
    geo = coherent_geodesic(ref, displaced)
    assert abs(coherent_complexity(geo) - 5.0) <= 1e-12
    assert time.monotonic() - t0 < 1.0


def test_criterion_04_stabilizer_orthogonality():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    cases = [(kind, n) for kind in StateKind for n in (1, 2)]
    bases = {
        (kind, n): stabilizer_basis(reference_state(kind, n)) for kind, n in cases
    }
    for i in range(50):
        kind, n = cases[i % len(cases)]
        ref = reference_state(kind, n)
        target = random_target(kind, n, rng)
        rel = relative_complex_structure(ref, target)
        half_log = 0.5 * rel.log_delta
        for v in bases[(kind, n)].elements:
            assert abs(inner_product_identity(half_log, v)) <= 1e-9
    assert time.monotonic() - t0 < 10.0


def test_criterion_05_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    jobs = [(StateKind.BOSON, 1)] * 20 + [(StateKind.FERMION, 2)] * 10
    for kind, n in jobs:
        ref = reference_state(kind, n)
        target = random_target(kind, n, rng)
        closed = state_complexity(ref, target)
        path, length = minimize_to_target(ref, target, segments=16, restarts=5)
        assert path.converged
        assert abs(length - closed) <= 1e-2 * max(closed, 1e-12)
        assert length >= closed - 1e-6
    assert time.monotonic() - t0 < 300.0


def test_criterion_06_weyl_analytic():
    t0 = time.monotonic()
    for beta, r in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0)):
        want = (np.exp(beta * r) - 1.0) / beta
        got = weyl_complexity(r, WeylFactor.linear(beta), 128)
        assert abs(got - want) <= 1e-8
    exact = np.e - 1.0
    errs = [
        abs(weyl_complexity(1.0, WeylFactor.linear(1.0), n) - exact)
        for n in (8, 16, 32, 64)
    ]
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine > 12.0
    assert time.monotonic() - t0 < 1.0


def test_criterion_07_nonreversibility():
    t0 = time.monotonic()
    pot = VectorPotential.gradient([0.0, 0.5])
    r = np.linspace(0.0, 2.0, 201)
    path = DiscretizedPath(
        np.stack([r, np.zeros_like(r)], axis=1), np.linspace(0.0, 1.0, 201)
    )
    assert abs(nonreversible_cost(path, a=pot) - 1.0) <= 1e-10
    assert abs(nonreversible_cost(path.reversed(), a=pot) - 3.0) <= 1e-10
    rng = np.random.default_rng(103)
    pots = [pot, VectorPotential.ripple(0.8, 0.2)]
    for i in range(100):
        n = 60
        rr = rng.uniform(0.2, 1.5, n + 1)
        phi = np.cumsum(rng.normal(scale=0.2, size=n + 1))
        rand_path = DiscretizedPath(
            np.stack([rr, phi], axis=1), np.linspace(0.0, 1.0, n + 1)
        )
        a = pots[i % 2]
        total = nonreversible_cost(rand_path, a=a) + nonreversible_cost(
            rand_path.reversed(), a=a
        )
        assert abs(total - 2.0 * chart_path_length(rand_path)) <= 1e-10
    assert time.monotonic() - t0 < 5.0


def test_criterion_08_lorentz_degeneracy():
    t0 = time.monotonic()
    start, vel, length = (0.8, 0.2), (0.4, 0.6), 1.2

    def endpoint(n):
        p = lorentz_geodesic(start, vel, length=length, rk_steps=n, drift_tol=1e-3)
        return np.concatenate([p.samples[-1], p.velocities[-1]])

    ref = endpoint(2560)
    errs = [np.linalg.norm(endpoint(n) - ref) for n in (40, 80, 160, 320)]
    for coarse, fine in zip(errs, errs[1:]):
        assert np.log2(coarse / fine) >= 3.5
    base = lorentz_geodesic(start, vel, length=length, rk_steps=256)
    for pot in (VectorPotential.constant(0.5), VectorPotential.gradient([0.0, 0.3, 0.1])):
        same = lorentz_geodesic(start, vel, a=pot, length=length, rk_steps=256)
        assert np.array_equal(base.samples, same.samples)
        assert np.array_equal(base.velocities, same.velocities)
    assert time.monotonic() - t0 < 10.0


def test_criterion_09_condition_one_stationarity():
    t0 = time.monotonic()
    for kind in StateKind:
        for n in (1, 2):
            basis = stabilizer_basis(reference_state(kind, n))
            algebra = algebra_of_kind(kind)
            for elem in basis.elements:
                v = LieAlgebraElement(0.9 * elem.v, algebra)
                report = check_stabilizer_geodesic(v, perturbation_count=50)
                assert report.max_abs < 1e-6
                assert report.passed
    assert time.monotonic() - t0 < 60.0


def test_criterion_10_reversal_symmetry():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    cases = [(kind, n) for kind in StateKind for n in (1, 2)]
    for i in range(50):
        kind, n = cases[i % len(cases)]
        a = random_target(kind, n, rng)
        b = random_target(kind, n, rng)
        assert abs(state_complexity(a, b) - state_complexity(b, a)) <= 1e-10
    assert time.monotonic() - t0 < 5.0
