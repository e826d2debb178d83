"""Complexity is measured with the reference's own metric, g_1 at sigma_R.

Moving both states by one symplectic S moves sigma_R to S S^T and leaves
every complexity unchanged: the closed forms, the coherent form and the
variational oracle all see the pair in the frame where the reference is
the vacuum.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcomplexity import (
    GaussianState,
    StateKind,
    apply_transformation,
    coherent_complexity,
    coherent_geodesic,
    minimize_to_target,
    reference_state,
    state_complexity,
    state_to_dict,
)
from gcomplexity.cli import main
from helpers import random_target, random_transformation


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


def write_pair(directory, reference, target):
    paths = []
    for name, state in (("ref.json", reference), ("target.json", target)):
        path = Path(directory) / name
        path.write_text(json.dumps(state_to_dict(state)))
        paths.append(str(path))
    return paths


def squeezed_pair(n, seed):
    rng = np.random.default_rng(seed)
    s = random_transformation(StateKind.BOSON, n, rng, scale=0.4)
    reference = apply_transformation(reference_state(StateKind.BOSON, n), s)
    target = apply_transformation(random_target(StateKind.BOSON, n, rng), s)
    return reference, target


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(1, 2),
    s_scale=st.floats(0.05, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_common_symplectic_frame_change_leaves_complexity_unchanged(n, s_scale, seed):
    rng = np.random.default_rng(seed)
    vac = reference_state(StateKind.BOSON, n)
    s = random_transformation(StateKind.BOSON, n, rng, scale=s_scale)
    target = random_target(StateKind.BOSON, n, rng)
    displaced = GaussianState(target.j, target.kind, rng.normal(size=2 * n))
    ref_s = apply_transformation(vac, s)
    target_s = apply_transformation(target, s)
    displaced_s = apply_transformation(displaced, s)

    closed = state_complexity(vac, target)
    assert state_complexity(ref_s, target_s) == pytest.approx(closed, rel=1e-9, abs=1e-12)
    want = coherent_complexity(coherent_geodesic(vac, displaced))
    got = coherent_complexity(coherent_geodesic(ref_s, displaced_s))
    assert got == pytest.approx(want, rel=1e-9)

    generators = []
    with tempfile.TemporaryDirectory() as tmp:
        for ref, tgt in ((vac, target), (ref_s, target_s)):
            ref_path, target_path = write_pair(tmp, ref, tgt)
            code, out = run_cli("complexity", "--reference", ref_path, "--target", target_path)
            assert code == 0
            generators.append(np.asarray(out["generator"]))
    want_gen = s.m @ generators[0] @ s.inverse_m
    scale = 1.0 + np.linalg.norm(want_gen)
    assert np.abs(generators[1] - want_gen).max() <= 1e-9 * scale

    path, length = minimize_to_target(ref_s, target_s, segments=8, restarts=1)
    assert path.converged
    assert length == pytest.approx(closed, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("n, seed", [(1, 61), (2, 62)])
def test_oracle_on_a_squeezed_reference_matches_the_closed_form(n, seed, tmp_path):
    reference, target = squeezed_pair(n, seed)
    closed = state_complexity(reference, target)
    path, length = minimize_to_target(reference, target, segments=8, restarts=1)
    assert path.converged
    assert abs(length - closed) <= 1e-6 * closed

    ref_path, target_path = write_pair(tmp_path, reference, target)
    code, out = run_cli(
        "oracle-verify", "--reference", ref_path, "--target", target_path,
        "--segments", "8", "--restarts", "1",
    )
    assert code == 0
    assert out["converged"] is True
    assert out["closed_form"] == closed
    assert abs(out["relative_gap"]) <= 1e-6
