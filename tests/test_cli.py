import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gcomplexity import (
    BranchCut,
    GaussianState,
    StateKind,
    coherent_complexity,
    coherent_geodesic,
    complexity_from_relative,
    minimize_to_target,
    reference_state,
    relative_complex_structure,
    state_complexity,
    state_from_dict,
    state_to_dict,
)
from gcomplexity.cli import _delta_eigenvalues, _emit, _read_state_file, _render, main
from gcomplexity.errors import SchemaError
from gcomplexity.lie_numerics import BRANCH_CUT_MARGIN
from helpers import random_target, reference_render, src_first_env


def write_state(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def boson_ref(tmp_path):
    return write_state(
        tmp_path, "ref.json",
        {"kind": "boson", "n_modes": 1, "sigma": [[1.0, 0.0], [0.0, 1.0]]},
    )


def squeezed(tmp_path, r, z=None, name="sq.json"):
    payload = {
        "kind": "boson",
        "n_modes": 1,
        "sigma": [[np.exp(2 * r), 0.0], [0.0, np.exp(-2 * r)]],
    }
    if z is not None:
        payload["z"] = list(z)
    return write_state(tmp_path, name, payload)


def run_module(*argv, cwd=None):
    """Run `python -m gcomplexity` as a subprocess, the absolute src first on PYTHONPATH."""
    return subprocess.run(
        [sys.executable, "-m", "gcomplexity", *argv],
        capture_output=True, text=True, env=src_first_env(), cwd=cwd,
    )


def oracle_argv(tmp_path):
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.7)
    return [
        "oracle-verify", "--reference", ref, "--target", target,
        "--segments", "6", "--restarts", "2", "--seed", "3",
    ]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_complexity_self_is_zero(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", ref)
    assert code == 0
    data = json.loads(out)
    assert data["complexity"] == 0.0
    assert data["generator"] == [[0.0, 0.0], [0.0, 0.0]]
    assert data["delta_eigenvalues"] == [[1.0, 0.0], [1.0, 0.0]]


def test_complexity_squeezed(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 1.5)
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", target)
    assert code == 0
    data = json.loads(out)
    assert data["complexity"] == pytest.approx(1.5, abs=1e-12)
    assert data["delta_eigenvalues"][0][0] == pytest.approx(np.exp(3.0), rel=1e-12)


def test_complexity_rejects_mixed_state(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    thermal = write_state(
        tmp_path, "thermal.json",
        {"kind": "boson", "n_modes": 1, "sigma": [[2.0, 0.0], [0.0, 2.0]]},
    )
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", thermal)
    assert code == 3
    assert json.loads(out)["error"].startswith("NotPure:")


def test_complexity_missing_and_invalid_files(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    code, out = run_cli(
        capsys, "complexity", "--reference", ref, "--target", str(tmp_path / "no.json")
    )
    assert code == 3
    assert json.loads(out)["error"].startswith("SchemaError:")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", str(bad))
    assert code == 3
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"kind": "boson", "n_modes": 1, "sigma": [[1, 0], [0, 1]]}\xff')
    bad_z = write_state(
        tmp_path, "bad_z.json",
        {"kind": "boson", "n_modes": 1, "sigma": [[1.0, 0.0], [0.0, 1.0]], "z": ["a", 0]},
    )
    bool_n = write_state(
        tmp_path, "bool_n.json",
        {"kind": "boson", "n_modes": True, "sigma": [[1.0, 0.0], [0.0, 1.0]]},
    )
    for target in (str(not_utf8), bad_z, bool_n):
        code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", target)
        assert code == 3
        assert json.loads(out)["error"].startswith("SchemaError:")


def test_complexity_batch_keeps_going(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    batch = tmp_path / "batch"
    batch.mkdir()
    squeezed(batch, 0.8, name="a_good.json")
    write_state(
        batch, "b_bad.json",
        {"kind": "boson", "n_modes": 1, "sigma": [[2.0, 0.0], [0.0, 2.0]]},
    )
    write_state(
        batch, "c_bad_z.json",
        {"kind": "boson", "n_modes": 1, "sigma": [[1.0, 0.0], [0.0, 1.0]], "z": ["a", 0]},
    )
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", str(batch))
    assert code == 3
    results = json.loads(out)["results"]
    assert [r["file"] for r in results] == ["a_good.json", "b_bad.json", "c_bad_z.json"]
    assert results[0]["complexity"] == pytest.approx(0.8, abs=1e-12)
    assert results[1]["error"].startswith("NotPure:")
    assert results[2]["error"].startswith("SchemaError:")


def test_batch_lists_every_json_name_in_byte_order(tmp_path, capsys, monkeypatch):
    # every name ending in .json, hidden ones and a directory included, sorted by code point
    ref = boson_ref(tmp_path)
    batch = tmp_path / "batch"
    batch.mkdir()
    for name in ("B.json", "a.json", "10.json", "9.json", "notes.txt", "x.JSON"):
        squeezed(batch, 0.25, name=name)
    write_state(batch, ".hidden.json", {"kind": "boson", "n_modes": 1, "sigma": OFF_AXIS_R10})
    write_state(batch, ".json", {"kind": "boson", "n_modes": 1, "sigma": [[2, 0], [0, 2]]})
    (batch / "sub.json").mkdir()
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", str(batch))
    results = json.loads(out)["results"]
    assert [r["file"] for r in results] == [
        ".hidden.json", ".json", "10.json", "9.json", "B.json", "a.json", "sub.json"
    ]
    assert code == 2  # the first failing file's, not the largest
    assert results[0]["error"].startswith("NumericDomainError:")
    assert results[1]["error"].startswith("NotPure:")
    assert [r["complexity"] for r in results[2:6]] == [pytest.approx(0.25, abs=1e-12)] * 4
    unreadable = "SchemaError: cannot read state file {}: "
    assert results[6]["error"].startswith(unreadable.format(batch / "sub.json"))
    monkeypatch.chdir(batch)  # "." names each file bare, not "./name"
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", ".")
    assert json.loads(out)["results"][6]["error"].startswith(unreadable.format("sub.json"))


def test_batch_needs_a_directory_with_a_json_file(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("{}")
    for batch, error in (
        (ref, f"batch path {ref} is not a directory"),
        (str(empty), f"no .json files in {empty}"),
    ):
        code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", batch)
        assert code == 3
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": f"ValidationError: {error}"}


def test_an_unlistable_batch_directory_is_a_validation_error(tmp_path, capsys, monkeypatch):
    ref = boson_ref(tmp_path)

    def denied(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "listdir", denied)
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", str(tmp_path))
    assert code == 3
    assert json.loads(out) == {
        "error": f"ValidationError: cannot list batch directory {tmp_path}: "
        f"[Errno 13] Permission denied: '{tmp_path}'"
    }


def test_tol_reaches_the_purity_check(tmp_path, capsys):
    # J^2 + 1 has relative residual 4.7e-9: mixed at the default 1e-10
    ref = boson_ref(tmp_path)
    near = write_state(
        tmp_path, "near.json",
        {"kind": "boson", "n_modes": 1, "sigma": [[1.0 + 1e-8, 0.0], [0.0, 1.0]]},
    )
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", near)
    assert code == 3
    assert json.loads(out)["error"].startswith("NotPure:")
    code, out = run_cli(
        capsys, "complexity", "--reference", ref, "--target", near, "--tol", "1e-6"
    )
    assert code == 0
    assert json.loads(out)["complexity"] == pytest.approx(0.5e-8, rel=1e-6)


def test_complexity_rejects_displaced_target(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.4, z=[0.3, 0.0])
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", target)
    assert code == 3
    assert json.loads(out)["error"].startswith("DisplacementPresent:")
    batch = tmp_path / "batch"
    batch.mkdir()
    squeezed(batch, 0.4, z=[0.3, 0.0], name="a_displaced.json")
    squeezed(batch, 0.8, name="b_good.json")
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", str(batch))
    assert code == 3
    results = json.loads(out)["results"]
    assert results[0]["error"].startswith("DisplacementPresent:")
    assert results[1]["complexity"] == pytest.approx(0.8, abs=1e-12)


REFERENCE_DISPLACED = "DisplacementPresent: reference displacement must be zero"
TARGET_DISPLACED = (
    "DisplacementPresent: complexity requires zero displacements; "
    "use the coherent command for displaced targets"
)


@pytest.mark.parametrize("command", ["complexity", "weyl", "coherent", "oracle-verify"])
def test_a_displaced_reference_is_blamed_on_the_reference(tmp_path, capsys, command):
    ref = squeezed(tmp_path, 0.0, z=[0.3, 0.0], name="ref.json")
    target = squeezed(tmp_path, 0.4)
    extra = {"weyl": ["--omega", "const:0.1"], "oracle-verify": ["--segments", "4"]}
    argv = [command, "--reference", ref, "--target", target, *extra.get(command, [])]
    want = json.dumps({"error": REFERENCE_DISPLACED}) + "\n"
    assert (main(argv), capsys.readouterr()) == (3, (want, ""))


@pytest.mark.parametrize("command", ["complexity", "weyl", "oracle-verify"])
def test_a_displaced_reference_is_blamed_before_a_fermion_target(tmp_path, capsys, command):
    # the reference's error comes before the kind check of the pair
    ref = squeezed(tmp_path, 0.0, z=[0.3, 0.0], name="ref.json")
    target = write_state(tmp_path, "ft.json", {"kind": "fermion", "n_modes": 1, "sigma": [[0, 1], [-1, 0]]})
    extra = {"weyl": ["--omega", "const:0.1"], "oracle-verify": ["--segments", "4"]}
    argv = [command, "--reference", ref, "--target", target, *extra.get(command, [])]
    want = json.dumps({"error": REFERENCE_DISPLACED}) + "\n"
    assert (main(argv), capsys.readouterr()) == (3, (want, ""))


def test_a_displaced_reference_leaves_a_displaced_target_its_own_error(tmp_path, capsys):
    ref = squeezed(tmp_path, 0.0, z=[0.3, 0.0], name="ref.json")
    batch = tmp_path / "batch"
    batch.mkdir()
    squeezed(batch, 0.4, z=[0.3, 0.0], name="a_displaced.json")
    squeezed(batch, 0.8, name="b_good.json")
    code = main(["complexity", "--reference", ref, "--batch", str(batch)])
    want = {
        "results": [
            {"file": "a_displaced.json", "error": TARGET_DISPLACED},
            {"file": "b_good.json", "error": REFERENCE_DISPLACED},
        ]
    }
    assert (code, capsys.readouterr()) == (3, (json.dumps(want) + "\n", ""))


# A strongly squeezed off-axis boson (r = 10, axis at 0.5 rad): it passes
# validation, but the pencil eigh rounds its small eigenvalue to <= 0.
OFF_AXIS_R10 = [
    [373650534.60833335, 204126217.3879959],
    [204126217.3879959, 111514660.801457],
]
BATCH_ERRORS = {
    # file name: (state file text, error of a run against the N = 1 boson reference)
    "a_pair_not_pd.json": (
        {"kind": "boson", "n_modes": 1, "sigma": OFF_AXIS_R10},
        "NumericDomainError: relative covariance is not positive-definite",
    ),
    "e_unreadable.json": (
        b'{"kind": "boson", "n_modes": 1, "sigma": [[1, 0], [0, 1]]}\xff',
        "SchemaError: cannot read state file",
    ),
    "e_bad_json.json": ("{not json", "SchemaError: state file"),
    "e_missing_key.json": ({"kind": "boson", "n_modes": 1}, "SchemaError: missing required key"),
    "e_string_entry.json": (
        {"kind": "boson", "n_modes": 1, "sigma": [["1.0", 0], [0, 1]]},
        "SchemaError: sigma must be a numeric matrix",
    ),
    "e_bool_z.json": (
        {"kind": "boson", "n_modes": 1, "sigma": [[1, 0], [0, 1]], "z": [True, 0]},
        "SchemaError: z must be a numeric vector",
    ),
    "e_non_finite.json": (
        '{"kind": "boson", "n_modes": 1, "sigma": [[Infinity, 0], [0, 1]]}',
        "NonFinite: sigma contains non-finite entries",
    ),
    "e_non_finite_z.json": (
        '{"kind": "boson", "n_modes": 1, "sigma": [[1, 0], [0, 1]], "z": [NaN, 0]}',
        "NonFinite: z contains non-finite entries",
    ),
    "e_asymmetric.json": (
        {"kind": "boson", "n_modes": 1, "sigma": [[1, 0.5], [0, 1]]},
        "GroupViolation: sigma is not symmetric",
    ),
    "e_overflow.json": (
        {"kind": "boson", "n_modes": 1, "sigma": [[1e200, 1e199], [0, 1e-200]]},
        "GroupViolation: sigma is not symmetric",
    ),
    "e_not_positive_definite.json": (
        {"kind": "boson", "n_modes": 1, "sigma": [[1, 0], [0, -1]]},
        "SingularInput: sigma is not positive-definite",
    ),
    "e_mixed.json": (
        {"kind": "boson", "n_modes": 1, "sigma": [[2, 0], [0, 2]]},
        "NotPure: J^2 != -1",
    ),
    "e_wrong_n.json": (
        {"kind": "boson", "n_modes": 2, "sigma": [[1, 0], [0, 1]]},
        "SchemaError: sigma must be 4 x 4",
    ),
    "e_wrong_kind.json": (
        {"kind": "anyon", "n_modes": 1, "sigma": [[1, 0], [0, 1]]},
        "SchemaError: kind must be",
    ),
    "e_displaced.json": (
        {"kind": "boson", "n_modes": 1, "sigma": [[4, 0], [0, 0.25]], "z": [0.3, 0]},
        "DisplacementPresent: complexity requires zero displacements",
    ),
    "e_fermion_z.json": (
        {"kind": "fermion", "n_modes": 1, "sigma": [[0, 1], [-1, 0]], "z": [0, 0]},
        "DisplacementPresent: fermion state files must not contain 'z'",
    ),
    "e_fermion_branch_cut.json": (
        {"kind": "fermion", "n_modes": 1, "sigma": [[0, -1], [1, 0]]},
        "KindMismatch:",
    ),
    "e_fermion_branch_cut_n2.json": (
        {"kind": "fermion", "n_modes": 2, "sigma": np.kron(np.eye(2), [[0, -1], [1, 0]]).tolist()},
        "KindMismatch:",
    ),
    "a_pair_not_pd_n2.json": (
        {"kind": "boson", "n_modes": 2, "sigma": np.block(
            [[np.array(OFF_AXIS_R10), np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]
        ).tolist()},
        "DimensionMismatch: reference has 1 modes, target 2",
    ),
    "e_fermion_bad_det.json": (
        {"kind": "fermion", "n_modes": 1, "sigma": [[0, 2], [-2, 0]]},
        "GroupViolation: omega must have |det| = 1",
    ),
}


def write_batch(directory):
    """Bosons and fermions at N = 1, 2, and one file for each in-band error."""
    directory.mkdir()
    rng = np.random.default_rng(11)
    for n in (1, 2):
        for i in range(3):
            for kind in StateKind:
                data = state_to_dict(random_target(kind, n, rng))
                write_state(directory, f"{kind.value}_n{n}_{i}.json", data)
    for name, (text, _) in BATCH_ERRORS.items():
        if isinstance(text, dict):
            text = json.dumps(text)
        if isinstance(text, str):
            text = text.encode()
        (directory / name).write_bytes(text)


@pytest.mark.parametrize("kind,n", [("boson", 1), ("boson", 2), ("fermion", 1), ("fermion", 2)])
def test_batch_equals_one_target_run_per_file(tmp_path, capsys, kind, n):
    batch = tmp_path / "batch"
    write_batch(batch)
    ref = write_state(tmp_path, "ref.json", state_to_dict(reference_state(StateKind(kind), n)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a failing target must not warn either
        code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", str(batch))
    entries, singles = [], {}
    for f in sorted(batch.glob("*.json")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single, text = run_cli(capsys, "complexity", "--reference", ref, "--target", str(f))
        assert text.endswith("}\n") and text.count("\n") == 1
        entries.append('{"file": ' + json.dumps(f.name) + ", " + text[1:-1])
        singles[f.name] = single, text
    assert out == '{"results": [' + ", ".join(entries) + "]}\n"
    assert code == next(c for c, _ in singles.values() if c)
    assert {c for c, _ in singles.values()} == {0, 2, 3}
    if (kind, n) == ("boson", 1):
        for name, (_, error) in BATCH_ERRORS.items():
            assert json.loads(singles[name][1])["error"].startswith(error)
    if kind == "fermion":
        code, text = singles["e_fermion_branch_cut.json" if n == 1 else "e_fermion_branch_cut_n2.json"]
        assert code == 2 and json.loads(text)["error"].startswith("BranchCut:")


def fermion_states(tmp_path, alpha):
    """Two-mode J_T = e^{2A} J_R; every such A has one rotation angle 2 ||A||_2, twice."""
    jr = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    b = np.zeros((4, 4))
    b[0, 2], b[2, 0] = 1.0, -1.0
    a = 0.5 * (b + jr @ b @ jr)
    a *= alpha / np.linalg.norm(a, 2)
    jt = scipy.linalg.expm(2.0 * a) @ jr
    ref = write_state(tmp_path, "fref.json", {"kind": "fermion", "n_modes": 2, "sigma": jr.tolist()})
    target = write_state(
        tmp_path, "ft.json", {"kind": "fermion", "n_modes": 2, "sigma": jt.tolist()}
    )
    return ref, target


def test_fermion_delta_eigenvalues_order_at_a_repeated_angle(tmp_path, capsys):
    theta = 2.0
    ref, target = fermion_states(tmp_path, theta / 2.0)
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", target)
    assert code == 0
    got = np.array(json.loads(out)["delta_eigenvalues"])
    c, s = np.cos(theta), np.sin(theta)
    assert np.allclose(got, [[c, s], [c, s], [c, -s], [c, -s]], rtol=0.0, atol=1e-12)


def test_fermion_identity_eigenvalues_have_no_negative_zero(tmp_path, capsys):
    ref, _ = fermion_states(tmp_path, 0.1)
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", ref)
    assert code == 0
    assert json.loads(out)["delta_eigenvalues"] == [[1.0, 0.0]] * 4
    assert "-0" not in out


def test_tol_reaches_the_fermion_antisymmetry_check(tmp_path, capsys):
    ref, target = fermion_states(tmp_path, 0.4)
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", target)
    assert code == 0
    clean = json.loads(out)["complexity"]
    # ||sigma + sigma^T|| / (1 + ||sigma||) = 1e-9: not antisymmetric at the default 1e-10
    sigma = np.array(json.loads(Path(target).read_text())["sigma"])
    sigma += 7.5e-10 * np.diag([1.0, -1.0, 1.0, -1.0])
    near = write_state(tmp_path, "near.json", {"kind": "fermion", "n_modes": 2, "sigma": sigma.tolist()})
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", near)
    assert code == 3
    assert json.loads(out)["error"] == "GroupViolation: omega is not antisymmetric"
    code, out = run_cli(
        capsys, "complexity", "--reference", ref, "--target", near, "--tol", "1e-6"
    )
    assert code == 0
    assert json.loads(out)["complexity"] == pytest.approx(clean, rel=1e-6)


def test_complexity_requires_target_or_batch(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    code, out = run_cli(capsys, "complexity", "--reference", ref)
    assert code == 3


def test_complexity_refuses_both_target_and_batch(tmp_path, capsys):
    # the batch ran and the target was dropped, with exit 0
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.5)
    code = main(["complexity", "--reference", ref, "--target", target, "--batch", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == '{"error": "ValidationError: either --target or --batch is required, not both"}\n'
    assert err == ""


@pytest.mark.parametrize(
    "flags,error",
    [
        ([], "either --target or --batch is required"),
        (["--target", "t.json", "--batch", "."], "either --target or --batch is required, not both"),
    ],
    ids=["neither", "both"],
)
def test_target_and_batch_are_checked_before_the_reference_is_read(tmp_path, capsys, flags, error):
    missing = str(tmp_path / "missing.json")
    code, out = run_cli(capsys, "complexity", "--reference", missing, *flags)
    assert (code, out) == (3, json.dumps({"error": "ValidationError: " + error}) + "\n")


def test_an_empty_target_is_given_and_cannot_be_read(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", "")
    error = "SchemaError: cannot read state file : [Errno 2] No such file or directory: ''"
    assert (code, out) == (3, json.dumps({"error": error}) + "\n")


def test_an_empty_batch_is_not_the_current_directory(tmp_path, capsys, monkeypatch):
    # Path('') is '.', which holds a valid state file here
    monkeypatch.chdir(tmp_path)
    ref = boson_ref(tmp_path)
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", "")
    error = "ValidationError: batch path  is not a directory"
    assert (code, out) == (3, json.dumps({"error": error}) + "\n")


def fermion_cut_forms():
    """The N = 1 fermion form Omega, -Omega (Delta = -1) and the form at angle pi - margin / 2.

    The last is antisymmetric only to about 6e-7, so it loads at tol 1e-6.
    """
    om = np.array([[0.0, 1.0], [-1.0, 0.0]])
    theta = np.pi - 0.5 * BRANCH_CUT_MARGIN
    near = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]) @ om
    return om, -om, near


CUT_ERRORS = [
    "BranchCut: eigenvalue -1 encountered; target lies on the branch cut",
    "BranchCut: rotation angle 3.14159 within the branch-cut margin of pi",
]


def test_one_target_at_the_branch_cut_raises_what_the_cli_prints(tmp_path, capsys):
    # the one-row pencil raises the target's error for state_complexity, and so
    # for complexity --target, weyl and oracle-verify alike
    om, flipped, near = fermion_cut_forms()
    ref = write_state(tmp_path, "fref.json", {"kind": "fermion", "n_modes": 1, "sigma": om.tolist()})
    outs = [json.dumps({"error": error}) + "\n" for error in CUT_ERRORS]
    for form, out in zip((flipped, near), outs):
        with pytest.raises(BranchCut) as err:
            state_complexity(
                GaussianState(om, StateKind.FERMION), GaussianState(form, StateKind.FERMION, tol=1e-6)
            )
        assert json.dumps({"error": f"BranchCut: {err.value}"}) + "\n" == out
        target = write_state(tmp_path, "t.json", {"kind": "fermion", "n_modes": 1, "sigma": form.tolist()})
        assert run_cli(capsys, "complexity", "--reference", ref, "--target", target, "--tol", "1e-6") == (2, out)
    target = write_state(tmp_path, "t.json", {"kind": "fermion", "n_modes": 1, "sigma": flipped.tolist()})
    for argv in (["weyl", "--omega", "const:0"], ["oracle-verify", "--segments", "4", "--restarts", "1"]):
        assert run_cli(capsys, *argv, "--reference", ref, "--target", target) == (2, outs[0])


def test_batch_whose_group_fails_whole_in_the_pencil_equals_one_run_per_file(tmp_path, capsys):
    # every file of the fermion N = 1 group leaves the stack at the branch cut, so the
    # group's pencil holds no row; the boson file is its own group (a KindMismatch here)
    om, flipped, near = fermion_cut_forms()
    batch = tmp_path / "batch"
    batch.mkdir()
    write_state(batch, "a_flipped.json", {"kind": "fermion", "n_modes": 1, "sigma": flipped.tolist()})
    write_state(batch, "b_near_cut.json", {"kind": "fermion", "n_modes": 1, "sigma": near.tolist()})
    squeezed(batch, 0.5, name="c_boson.json")
    ref = write_state(tmp_path, "fref.json", {"kind": "fermion", "n_modes": 1, "sigma": om.tolist()})
    tol = ["--tol", "1e-6"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", str(batch), *tol)
        singles = [
            run_cli(capsys, "complexity", "--reference", ref, "--target", str(f), *tol)
            for f in sorted(batch.glob("*.json"))
        ]
    assert code == 2 and [c for c, _ in singles] == [2, 2, 3]
    errors = [json.loads(text)["error"] for _, text in singles]
    assert errors[:2] == CUT_ERRORS
    assert errors[2].startswith("KindMismatch:")
    entries = [
        '{"file": ' + json.dumps(f.name) + ", " + text[1:-1]
        for f, (_, text) in zip(sorted(batch.glob("*.json")), singles)
    ]
    assert out == '{"results": [' + ", ".join(entries) + "]}\n"


def test_coherent_345(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    target = write_state(
        tmp_path, "coh.json",
        {
            "kind": "boson",
            "n_modes": 1,
            "sigma": [[1.0, 0.0], [0.0, 1.0]],
            "z": [3.0, 4.0],
        },
    )
    code, out = run_cli(capsys, "coherent", "--reference", ref, "--target", target)
    assert code == 0
    data = json.loads(out)
    assert data["complexity"] == pytest.approx(5.0, abs=1e-12)
    assert data["z_target"] == [3.0, 4.0]
    assert data["N_matrix"] == [[2.0, 0.0], [0.0, 2.0]]


def test_coherent_rejects_fermions(tmp_path, capsys):
    ferm = write_state(
        tmp_path, "ferm.json",
        {"kind": "fermion", "n_modes": 1, "sigma": [[0.0, 1.0], [-1.0, 0.0]]},
    )
    code, out = run_cli(capsys, "coherent", "--reference", ferm, "--target", ferm)
    assert code == 3
    assert json.loads(out)["error"].startswith("KindMismatch:")


def test_fermion_state_with_z_is_rejected(tmp_path, capsys):
    ref = write_state(
        tmp_path, "f.json",
        {"kind": "fermion", "n_modes": 1, "sigma": [[0.0, 1.0], [-1.0, 0.0]]},
    )
    bad = write_state(
        tmp_path, "fz.json",
        {
            "kind": "fermion",
            "n_modes": 1,
            "sigma": [[0.0, 1.0], [-1.0, 0.0]],
            "z": [0.1, 0.0],
        },
    )
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", bad)
    assert code == 3
    assert json.loads(out)["error"].startswith("DisplacementPresent:")


def test_weyl_linear(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 1.0)
    code, out = run_cli(
        capsys, "weyl", "--reference", ref, "--target", target, "--omega", "linear:1.0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["base_complexity"] == pytest.approx(1.0, abs=1e-12)
    assert data["complexity"] == pytest.approx(np.e - 1.0, abs=1e-8)
    assert data["omega"] == "linear:1.0"
    assert data["quad_steps"] == 128


def test_weyl_table(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 1.0)
    table = tmp_path / "omega.csv"
    grid = np.linspace(0.0, 2.0, 21)
    rows = ["r,omega"] + [f"{r},{0.5 * r}" for r in grid]
    table.write_text("\n".join(rows))
    code, out = run_cli(
        capsys, "weyl", "--reference", ref, "--target", target,
        "--omega", f"table:{table}",
    )
    assert code == 0
    want = (np.exp(0.5) - 1.0) / 0.5
    assert json.loads(out)["complexity"] == pytest.approx(want, abs=1e-6)


def test_weyl_bad_spec(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    code, out = run_cli(
        capsys, "weyl", "--reference", ref, "--target", ref, "--omega", "cubic:1"
    )
    assert code == 3
    for spec in ("linear:nan", "const:inf", "const:-inf"):
        code, out = run_cli(
            capsys, "weyl", "--reference", ref, "--target", ref, "--omega", spec
        )
        assert code == 3
        assert json.loads(out)["error"].startswith("ValidationError:")
    # empty, header-only, one-column and non-UTF-8 tables
    for name, data in (
        ("empty.csv", b""),
        ("header.csv", b"r,omega\n"),
        ("one.csv", b"0\n1\n2\n"),
        ("latin1.csv", b"r,\xf8\n0,0\n1,1\n"),
    ):
        table = tmp_path / name
        table.write_bytes(data)
        code, out = run_cli(
            capsys, "weyl", "--reference", ref, "--target", ref, "--omega", f"table:{table}"
        )
        assert code == 3
        assert json.loads(out)["error"].startswith("ValidationError:")


@pytest.mark.parametrize("header", ["", "r,omega\n"], ids=["no_header", "header"])
def test_weyl_table_with_a_bom_reads_as_without(tmp_path, capsys, header):
    # a BOM made the first cell non-numeric, so a headerless table lost its first row
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.5 * np.log(2.0))
    table = tmp_path / "omega.csv"
    outs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        table.write_bytes(bom + (header + "0,0.3\n1,0.5\n2,1\n").encode())
        code, out = run_cli(
            capsys, "weyl", "--reference", ref, "--target", target, "--omega", f"table:{table}"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv,error",
    [
        (["weyl", "--omega", "const:x"], "const factor needs a number, got 'x'"),
        (["weyl", "--omega", "linear:x"], "linear factor needs a number, got 'x'"),
        (
            ["nonrev", "--potential", "foo"],
            "unknown potential spec 'foo'; use none, const:f0 or grad:h=<poly>",
        ),
        (["nonrev", "--potential", "grad:x"], "gradient potential must be written grad:h=<poly>"),
        (["nonrev", "--potential", "const:x"], "const potential needs a number, got 'x'"),
        (["nonrev", "--potential", "grad:h="], "empty polynomial"),
        (["nonrev", "--potential", "grad:h=r^2e"], "cannot parse polynomial term 'r^2e'"),
        (["nonrev", "--start", "a,b"], "--start must be numeric, got 'a,b'"),
    ],
)
def test_grammar_errors_are_validation_errors(tmp_path, capsys, argv, error):
    if argv[0] == "weyl":
        ref = boson_ref(tmp_path)
        argv = [*argv, "--reference", ref, "--target", squeezed(tmp_path, 0.5)]
    else:
        argv = ["nonrev", "--start", "0.5,0", "--velocity", "1,0", *argv[1:]]
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": f"ValidationError: {error}"}


def test_nonrev_gradient_anchor(capsys):
    code, out = run_cli(
        capsys, "nonrev", "--start", "0,0", "--velocity", "1,0",
        "--potential", "grad:h=0.5r", "--length", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["forward_cost"] == pytest.approx(1.0, abs=1e-10)
    assert data["reverse_cost"] == pytest.approx(3.0, abs=1e-10)
    assert data["length"] == pytest.approx(2.0, abs=1e-10)
    assert data["samples"] == 257


def test_nonrev_csv_output(capsys):
    code, out = run_cli(
        capsys, "nonrev", "--start", "0,0", "--velocity", "1,0",
        "--potential", "none", "--length", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,r,phi,cost_accumulated"
    assert len(lines) == 258
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[3]) == 0.0
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == pytest.approx(1.0, abs=1e-10)


def test_nonrev_csv_file(tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    code, out = run_cli(
        capsys, "nonrev", "--start", "0.4,0", "--velocity", "0,1",
        "--potential", "none", "--csv-out", str(csv_path),
    )
    assert code == 0
    assert json.loads(out)["csv_path"] == str(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "tau,r,phi,cost_accumulated"
    assert len(lines) == 258


@pytest.mark.parametrize("potential", ["none", "const:0.3", "grad:h=0.2r+0.1r^2"])
def test_nonrev_csv_is_the_same_on_every_route(tmp_path, capsys, potential):
    # the CSV is formatted only when asked for; asking changes nothing else
    argv = [
        "nonrev", "--start", "0.6,1.0", "--velocity", "0.5,0.2",
        "--potential", potential, "--length", "0.7", "--rk-steps", "64",
    ]
    csv_path = tmp_path / "path.csv"
    code, plain = run_cli(capsys, *argv)
    assert code == 0
    code, with_file = run_cli(capsys, *argv, "--csv-out", str(csv_path))
    assert code == 0
    code, csv_stdout = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    with_file = json.loads(with_file)
    assert with_file.pop("csv_path") == str(csv_path)
    assert with_file == json.loads(plain)
    assert csv_path.read_text() == csv_stdout
    assert len(csv_stdout.splitlines()) == 66


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nonrev", "--start", "0.5,0", "--velocity", "1,0", "--rk-steps", "1000000000000"],
         "rk_steps must be <= 1048576"),
        (["weyl", "--omega", "const:0.1", "--quad-steps", "1000000000000"],
         "quad_steps must be <= 1048576"),
    ],
)
def test_step_counts_are_capped(tmp_path, capsys, argv, message):
    # the cap is checked before the trajectory or the quadrature grid is allocated
    if argv[0] == "weyl":
        argv = argv + ["--reference", boson_ref(tmp_path), "--target", squeezed(tmp_path, 0.7)]
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 1 << 20
    assert json.loads(out) == {"error": f"ValidationError: {message}"}


def test_nonrev_csv_into_missing_directory(tmp_path, capsys):
    csv_path = tmp_path / "missing" / "path.csv"
    code, out = run_cli(
        capsys, "nonrev", "--start", "0.4,0", "--velocity", "0,1",
        "--potential", "none", "--csv-out", str(csv_path),
    )
    assert code == 3
    error = json.loads(out)["error"]
    assert error.startswith(f"ValidationError: cannot write CSV file {csv_path}:")


@pytest.mark.parametrize(
    "poly, code",
    [("1e-30r^64", 0), ("1e-30r^65", 3), ("r^99999999999", 3), ("r^" + "9" * 5000, 3)],
)
def test_nonrev_polynomial_power_cap(capsys, poly, code):
    got, out = run_cli(
        capsys, "nonrev", "--start", "0.5,0", "--velocity", "1,0",
        "--potential", f"grad:h={poly}", "--length", "0.5",
    )
    assert got == code
    if code == 3:
        error = json.loads(out)["error"]
        assert error == "ValidationError: polynomial powers are capped at r^64"


def test_nonrev_potential_too_large(capsys):
    code, out = run_cli(
        capsys, "nonrev", "--start", "0,0", "--velocity", "1,0",
        "--potential", "const:1.2", "--length", "1",
    )
    assert code == 2
    assert json.loads(out)["error"].startswith("PotentialTooLarge:")


def test_nonrev_validation(capsys):
    code, out = run_cli(
        capsys, "nonrev", "--start", "0", "--velocity", "1,0", "--potential", "none"
    )
    assert code == 3
    code, out = run_cli(
        capsys, "nonrev", "--start", "0,0", "--velocity", "1,0",
        "--potential", "none", "--length", "-1",
    )
    assert code == 3


@pytest.mark.parametrize(
    "extra",
    [
        ["--start", "nan,0", "--velocity", "1,0"],
        ["--start", "0.5,nan", "--velocity", "1,0"],
        ["--start", "0.5,0", "--velocity", "nan,0"],
        ["--start", "0.5,0", "--velocity", "1,0", "--length", "nan"],
        ["--start", "0.5,0", "--velocity", "1,0", "--length", "inf"],
        ["--start", "0.5,0", "--velocity", "1,0", "--potential", "const:nan"],
        ["--start", "0.5,0", "--velocity", "1,0", "--potential", "const:inf"],
    ],
)
def test_nonrev_rejects_non_finite_input(capsys, extra):
    code, out = run_cli(capsys, "nonrev", *extra)
    assert code == 3
    assert json.loads(out)["error"].startswith("ValidationError:")


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("start,velocity", [("400,0", "1,1"), ("200,0", "0.3,1")])
def test_nonrev_far_out_launch_is_an_in_band_overflow(capsys, start, velocity):
    # g_phiphi overflows above r of about 178; a nan drift used to pass as exit 0 with NaN costs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "nonrev", "--start", start, "--velocity", velocity)
    assert code == 2
    error = json.loads(out, parse_constant=_no_constant)["error"]
    assert error.startswith("NumericDomainError: g_phiphi = cosh(2r) sinh^2(r) overflowed")


def test_oracle_verify_self(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    code, out = run_cli(
        capsys, "oracle-verify", "--reference", ref, "--target", ref,
        "--segments", "4", "--restarts", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["closed_form"] == 0.0
    assert data["relative_gap"] == 0.0
    assert data["converged"] is True


def test_oracle_verify_squeezed(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.9)
    code, out = run_cli(
        capsys, "oracle-verify", "--reference", ref, "--target", target,
        "--segments", "6", "--restarts", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["closed_form"] == pytest.approx(0.9, abs=1e-12)
    assert abs(data["relative_gap"]) <= 1e-4
    assert data["converged"] is True
    assert data["constraint_residual"] < 1e-6


def test_oracle_verify_displaced(tmp_path, capsys):
    # the closed form is the coherent one, the length the oracle's own for the same arguments
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.4, z=[0.2, 0.22])
    code, out = run_cli(
        capsys, "oracle-verify", "--reference", ref, "--target", target,
        "--segments", "8", "--restarts", "2",
    )
    assert code == 0
    data = json.loads(out)
    ref_state, target_state = (
        state_from_dict(json.loads(Path(p).read_text())) for p in (ref, target)
    )
    assert data["closed_form"] == coherent_complexity(coherent_geodesic(ref_state, target_state))
    _, length = minimize_to_target(ref_state, target_state, segments=8, restarts=2, seed=0)
    assert data["oracle_length"] == length
    assert data["converged"] is True


def test_oracle_verify_rejects_a_negative_seed(tmp_path):
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.7)
    proc = run_module(
        "oracle-verify", "--reference", ref, "--target", target,
        "--segments", "4", "--restarts", "1", "--seed", "-1",
    )
    assert proc.returncode == 3
    assert proc.stdout.startswith('{"error": "ValidationError:')
    assert "Traceback" not in proc.stderr


def test_oracle_verify_caps_the_restarts(tmp_path, capsys):
    # the restarts run as one stack; the cap is checked before any of it is allocated
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.7)
    code, out = run_cli(
        capsys, "oracle-verify", "--reference", ref, "--target", target,
        "--restarts", "1000000000",
    )
    assert code == 3
    assert json.loads(out) == {"error": "ValidationError: restarts must be <= 256"}


def test_oracle_verify_caps_the_segments(tmp_path, capsys):
    # memory follows restarts x segments; the cap is checked before any path is allocated
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.7)
    tracemalloc.start()
    try:
        code, out = run_cli(
            capsys, "oracle-verify", "--reference", ref, "--target", target,
            "--segments", "1000000000000",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 1 << 20
    assert json.loads(out) == {"error": "ValidationError: restarts * segments must be <= 4096"}


@pytest.mark.parametrize(
    "command,extra",
    [("coherent", []), ("oracle-verify", ["--segments", "4", "--restarts", "1"])],
)
def test_huge_displacement_is_a_numeric_error(tmp_path, command, extra):
    # finite input whose complexity overflows: one JSON error line, not "inf"
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.0, z=[1e308, 1e308])
    proc = run_module(command, "--reference", ref, "--target", target, *extra)
    assert proc.returncode == 2
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith("NumericDomainError:")
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "omega,error",
    [
        # every factor value is finite; the quadrature's sums overflow
        ("const:705", "NumericDomainError: Weyl complexity overflows"),
        ("linear:1e4", "NonFiniteFactor: Weyl factor evaluation is not finite"),
    ],
)
def test_weyl_overflow_is_a_numeric_error(tmp_path, omega, error):
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.5)
    proc = run_module("weyl", "--reference", ref, "--target", target, "--omega", omega)
    assert proc.returncode == 2
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0], parse_constant=_no_constant) == {"error": error}
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "rows",
    ["0,0\n1,1e308\n2,-1e308\n", "0,0\n1e-300,1\n1,2\n"],
    ids=["a_secant_slope_overflows", "a_coefficient_overflows"],
)
def test_weyl_table_whose_slopes_overflow_is_non_finite(tmp_path, rows):
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.5)
    table = tmp_path / "omega.csv"
    table.write_text(rows)
    proc = run_module(
        "weyl", "--reference", ref, "--target", target, "--omega", f"table:{table}"
    )
    assert proc.returncode == 2
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "NonFiniteFactor: tabulated factor's interpolant is not finite"
    }
    assert proc.stderr == ""


def test_overflow_near_the_float_range_leaves_stderr_empty(tmp_path):
    ref = boson_ref(tmp_path)
    target = write_state(
        tmp_path, "t.json", {"kind": "boson", "n_modes": 1, "sigma": [[1e308, 0.0], [0.0, 1e-308]]}
    )
    proc = run_module("complexity", "--reference", ref, "--target", target)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"].startswith("NumericDomainError:")
    assert proc.stderr == ""
    proc = run_module(
        "nonrev", "--start", "0.5,0", "--velocity", "1,1", "--potential", "grad:h=1e308r^64"
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"].startswith("PotentialTooLarge:")
    assert proc.stderr == ""


def test_nonrev_radial_launch_past_the_overflow_radius():
    # g_phiphi overflows above r of about 178, but a radial path has no g_phiphi term
    proc = run_module("nonrev", "--start", "0,0", "--velocity", "1,0", "--length", "1000")
    assert proc.returncode == 0
    data = json.loads(proc.stdout, parse_constant=_no_constant)
    for key in ("length", "forward_cost", "reverse_cost"):
        assert data[key] == pytest.approx(1000.0, rel=1e-12)
    assert proc.stderr == ""
    proc = run_module("nonrev", "--start", "0,0", "--velocity", "1,0", "--length", "1e200")
    assert proc.returncode == 2
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith("NumericDomainError:")
    assert proc.stderr == ""


@pytest.mark.parametrize("start,length", [("400,0", "1"), ("0.5,0", "1000")])
def test_nonrev_radial_launch_from_r_above_zero(start, length):
    # the same radial path as from r = 0: no g_phiphi term, also where it overflows
    proc = run_module("nonrev", "--start", start, "--velocity", "1,0", "--length", length)
    assert proc.returncode == 0
    data = json.loads(proc.stdout, parse_constant=_no_constant)
    for key in ("length", "forward_cost", "reverse_cost"):
        assert data[key] == pytest.approx(float(length), rel=1e-12)
    assert proc.stderr == ""


def test_nonrev_inward_launch_takes_the_equals_form(capsys):
    # argparse reads "-1,0" after a space as an option, so a negative vr needs --velocity=-1,0
    with pytest.raises(SystemExit) as info:
        main(["nonrev", "--start", "0.5,0", "--velocity", "-1,0", "--length", "0.3"])
    assert info.value.code == 2
    assert "argument --velocity: expected one argument" in capsys.readouterr().err
    code, out = run_cli(capsys, "nonrev", "--start", "0.5,0", "--velocity=-1,0", "--length", "0.3")
    assert code == 0
    data = json.loads(out)
    assert data["forward_cost"] == data["reverse_cost"] == data["length"]
    assert data["length"] == pytest.approx(0.3, rel=1e-12)
    code, out = run_cli(capsys, "nonrev", "--start", "0.5,0", "--velocity=-1,0", "--length", "5")
    assert code == 2
    assert json.loads(out) == {
        "error": "ChartBoundary: trajectory reached r = 0 after arc length 0.488281"
    }


def test_seed_is_an_oracle_verify_option_only(tmp_path):
    ref = boson_ref(tmp_path)
    proc = run_module("complexity", "--reference", ref, "--target", ref, "--seed", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --seed 1" in proc.stderr


def test_csv_format_quotes_compound_values(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.5)
    code, out = run_cli(
        capsys, "complexity", "--reference", ref, "--target", target,
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    row = {line.split(",", 1)[0]: line.split(",", 1)[1] for line in lines[1:]}
    assert float(row["complexity"]) == pytest.approx(0.5, abs=1e-12)
    assert row["generator"].startswith('"')


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    # a tolerance that switches the checks off would let a mixed state through
    ref = boson_ref(tmp_path)
    thermal = write_state(
        tmp_path, "thermal.json",
        {"kind": "boson", "n_modes": 1, "sigma": [[2.0, 0.0], [0.0, 2.0]]},
    )
    code, out = run_cli(
        capsys, "complexity", "--reference", ref, "--target", thermal, "--tol", tol
    )
    assert code == 3
    assert json.loads(out)["error"].startswith("ValidationError: --tol must be")


def test_cli_output_is_deterministic(tmp_path):
    argv = oracle_argv(tmp_path)
    first = run_module(*argv, cwd=tmp_path)
    second = run_module(*argv, cwd=tmp_path)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


def test_module_propagates_exit_code(tmp_path):
    ref = boson_ref(tmp_path)
    proc = run_module(
        "complexity", "--reference", ref, "--target", str(tmp_path / "no.json"),
        cwd=tmp_path,
    )
    assert proc.returncode == 3
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith("SchemaError:")


BIG_INT = "1" + "0" * 400  # a JSON integer past the float range, as 1e400 is a float past it


def _big_int_state(tmp_path, name, key, digits=BIG_INT):
    """A boson file whose sigma[0][0], or z[0], is the integer literal ``digits``."""
    s00 = digits if key == "sigma" else "1"
    z = f', "z": [{digits}, 0]' if key == "z" else ""
    text = f'{{"kind": "boson", "n_modes": 1, "sigma": [[{s00}, 0], [0, 1]]{z}}}'
    (tmp_path / name).write_text(text)
    return str(tmp_path / name)


@pytest.mark.parametrize(
    "command,key", [("complexity", "sigma"), ("coherent", "sigma"), ("coherent", "z")]
)
def test_an_integer_past_the_float_range_is_non_finite(tmp_path, capsys, command, key):
    ref = boson_ref(tmp_path)
    target = _big_int_state(tmp_path, "big.json", key)
    code, out = run_cli(capsys, command, "--reference", ref, "--target", target)
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": f"NonFinite: {key} contains non-finite entries"}


def test_an_integer_past_the_float_range_is_in_band_in_a_batch(tmp_path, capsys):
    ref = boson_ref(tmp_path)
    batch = tmp_path / "batch"
    batch.mkdir()
    squeezed(batch, 0.3, name="a.json")
    _big_int_state(batch, "b.json", "sigma")
    _big_int_state(batch, "c.json", "sigma", digits="1" + "0" * 5000)
    squeezed(batch, 0.5, name="d.json")
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", str(batch))
    assert code == 3
    results = json.loads(out)["results"]
    names = [r["file"].rsplit("/", 1)[-1] for r in results]
    assert names == ["a.json", "b.json", "c.json", "d.json"]
    assert results[0]["complexity"] == pytest.approx(0.3, abs=1e-12)
    assert results[1]["error"] == "NonFinite: sigma contains non-finite entries"
    # past 4300 digits the json module itself refuses the integer
    assert results[2]["error"].startswith("SchemaError: state file ")
    assert " is not valid JSON: " in results[2]["error"]
    assert results[3]["complexity"] == pytest.approx(0.5, abs=1e-12)


DEEP_SIGMA = '{"kind": "boson", "n_modes": 1, "sigma": ' + "[" * 990 + "1" + "]" * 990 + "}"
DEEP_NESTING = {"deep_sigma.json": DEEP_SIGMA, "brackets.json": "[" * 100_000 + "]" * 100_000}


@pytest.mark.parametrize("command", ["complexity", "coherent"])
@pytest.mark.parametrize("name", list(DEEP_NESTING))
def test_deeply_nested_json_is_not_valid_json(tmp_path, command, name):
    ref = boson_ref(tmp_path)
    (tmp_path / name).write_text(DEEP_NESTING[name])
    proc = run_module(command, "--reference", ref, "--target", name, cwd=tmp_path)
    assert proc.returncode == 3
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error.startswith(f"SchemaError: state file {name} is not valid JSON: ")
    assert proc.stderr == ""


def test_deeply_nested_json_is_in_band_in_a_batch(tmp_path):
    ref = boson_ref(tmp_path)
    batch = tmp_path / "batch"
    batch.mkdir()
    squeezed(batch, 0.3, name="a.json")
    for name, text in DEEP_NESTING.items():
        (batch / name).write_text(text)
    squeezed(batch, 0.5, name="z.json")
    proc = run_module("complexity", "--reference", ref, "--batch", str(batch))
    assert proc.returncode == 3
    results = json.loads(proc.stdout)["results"]
    assert [r["file"] for r in results] == ["a.json", "brackets.json", "deep_sigma.json", "z.json"]
    assert results[0]["complexity"] == pytest.approx(0.3, abs=1e-12)
    for r in results[1:3]:
        invalid = f"SchemaError: state file {batch / r['file']} is not valid JSON: "
        assert r["error"].startswith(invalid)
    assert results[3]["complexity"] == pytest.approx(0.5, abs=1e-12)
    assert proc.stderr == ""


def test_main_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # one process, two orders: each call matches a fresh interpreter's run of it
    monkeypatch.setenv("COLUMNS", "80")
    ref = boson_ref(tmp_path)
    target = squeezed(tmp_path, 0.4)
    batch = tmp_path / "batch"
    batch.mkdir()
    squeezed(batch, 0.3, name="a.json")
    write_state(batch, "b.json", {"kind": "boson", "n_modes": 1, "sigma": [[2, 0], [0, 2]]})
    calls = [
        ["complexity", "--reference", ref, "--target", target],
        ["complexity", "--reference", ref, "--batch", str(batch), "--format", "csv"],
        ["weyl", "--reference", ref, "--target", target, "--omega", "linear:0.5"],
        ["nonrev", "--start", "0.5,0", "--velocity", "1,0"],
        ["complexity", "--reference", ref, "--format", "xml"],
        ["complexity", "--reference", ref, "--target", target, "--tol", "nan"],
        ["--help"],
        ["complexity", "--help"],
    ]
    fresh = []
    for argv in calls:
        proc = run_module(*argv, cwd=tmp_path)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert fresh[4][0] == 2 and "invalid choice: 'xml'" in fresh[4][2]
    for order in (range(len(calls)), reversed(range(len(calls)))):
        for i in order:
            try:
                code = main(list(calls[i]))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out) == fresh[i][:2], calls[i]
            if code == 2:
                assert err == fresh[i][2]


@pytest.mark.skipif(shutil.which("gcx") is None, reason="gcx console script not installed")
def test_gcx_script_matches_module(tmp_path):
    argv = oracle_argv(tmp_path)
    script = subprocess.run(["gcx", *argv], capture_output=True, text=True)
    module = run_module(*argv)
    assert script.returncode == module.returncode == 0
    assert script.stdout == module.stdout


@pytest.mark.parametrize(
    "kind,sigma,error",
    [
        ("fermion", [[1e200, 1.0], [-1.0, 0.0]], "GroupViolation: omega is not antisymmetric"),
        ("boson", [[1e200, 0.0], [0.0, 1.0]], "NotPure: J^2 != -1 (relative residual nan)"),
        ("boson", [[1e200, 1e199], [0.0, 1e-200]], "GroupViolation: sigma is not symmetric"),
    ],
)
def test_an_overflowing_residual_fails_its_check(tmp_path, kind, sigma, error):
    # the residuals overflow to inf or nan, which must fail, not pass, and quietly
    ref = write_state(
        tmp_path, "ref.json", state_to_dict(reference_state(StateKind(kind), 1))
    )
    target = write_state(tmp_path, "t.json", {"kind": kind, "n_modes": 1, "sigma": sigma})
    proc = run_module("complexity", "--reference", ref, "--target", target)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"].startswith(error)
    assert proc.stderr == ""


def test_a_huge_pure_state_still_computes(tmp_path):
    # ||sigma|| overflows, but the residuals are exactly 0 and C = ln(1e160) / 2
    ref = boson_ref(tmp_path)
    target = write_state(
        tmp_path, "t.json", {"kind": "boson", "n_modes": 1, "sigma": [[1e160, 0.0], [0.0, 1e-160]]}
    )
    proc = run_module("complexity", "--reference", ref, "--target", target)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["complexity"] == 184.20680743952366
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "sigma,z,error",
    [
        ([["4.0", "0"], [0.0, 0.25]], ["1", False], "SchemaError: sigma must be a numeric matrix"),
        ([[4.0, False], [0.0, 0.25]], None, "SchemaError: sigma must be a numeric matrix"),
        ([[4.0, None], [0.0, 0.25]], None, "SchemaError: sigma must be a numeric matrix"),
        ([[4.0, 0], [0.0, 0.25]], ["1", 0], "SchemaError: z must be a numeric vector"),
        ([[4.0, 0], [0.0, 0.25]], [True, 0.0], "SchemaError: z must be a numeric vector"),
    ],
)
def test_schema_entries_must_be_numbers(tmp_path, capsys, sigma, z, error):
    # np.asarray(..., dtype=float) alone turns "4.0" into 4 and false into 0
    ref = boson_ref(tmp_path)
    payload = {"kind": "boson", "n_modes": 1, "sigma": sigma}
    if z is not None:
        payload["z"] = z
    target = write_state(tmp_path, "t.json", payload)
    code, out = run_cli(capsys, "coherent", "--reference", ref, "--target", target)
    assert code == 3
    assert json.loads(out)["error"] == error


RENDER_PAYLOADS = [
    {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "-0": -0.0},
    {"tiny": 5e-324, "huge": 1e308, "third": 1.0 / 3.0, "ten": 10.0},
    {"int": 3, "big": 10**20, "neg": -7, "true": True, "false": False, "none": None},
    {"str": 'q"uo,te\\ and é', "tuple": (0.5, "a", 1)},
    {"np": [np.float64(0.1), np.float32(0.1), np.int64(-5), np.uint8(7)], "np0": np.float64(-0.0)},
    {"nested": [[1.0, 2], [[-0.0, float("nan")], []], [], [[]]], "floats": [0.1, -0.0, 1e308]},
    {
        "matrix": np.array([[1.5, -0.0], [np.inf, np.nan]]),
        "stack": np.arange(24.0).reshape(2, 3, 4) / 7.0,
        "row": np.array([1e308, 5e-324, -1e-300]),
        "f32": np.array([[0.1, 2.5]], dtype=np.float32),
        "ints": np.arange(3),
        "bools": np.array([True, False]),
        "empty": np.zeros((0,)),
        "empty2": np.zeros((2, 0)),
        "scalar": np.array(2.5),
    },
    {"results": [{"file": "a.json", "complexity": 0.3, "generator": np.eye(2)}, {"error": "X: y"}]},
    # the per-row format string: rows of one, a delta_eigenvalues-like stack, a wide matrix
    {"column": np.array([[0.1], [-0.0], [np.nan]]), "columns": np.arange(6.0).reshape(2, 3, 1) / 3},
    {"delta_eigenvalues": np.random.default_rng(1).normal(size=(40, 4, 2))},
    {"wide": np.random.default_rng(2).normal(size=(64, 64)) * 10.0 ** np.arange(-32, 32)},
    {"f32": np.array([np.nan, np.inf, -np.inf, -0.0, 0.1], dtype=np.float32)},
    # one array of each shape a --batch entry or a coherent payload has, at N = 1, 2, 8
    {
        f"{name}_n{n}": np.random.default_rng(n).normal(size=shape(2 * n)) * 10.0 ** (n - 4)
        for n in (1, 2, 8)
        for name, shape in (
            ("generator", lambda d: (d, d)),
            ("delta_eigenvalues", lambda d: (d, 2)),
            ("z_target", lambda d: (d,)),
        )
    },
    {"generators": np.random.default_rng(5).normal(size=(3, 4, 4)), "zero_d": np.array(-0.0)},
]


@pytest.mark.parametrize("payload", RENDER_PAYLOADS)
def test_renderer_matches_the_recursive_reference(capsys, payload):
    assert _render(payload) == reference_render(payload)
    _emit(payload, "json")
    assert capsys.readouterr().out == reference_render(payload) + "\n"
    _emit(payload, "csv")
    want = ["key,value"]
    for k, v in payload.items():
        text = reference_render(v)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        want.append(f"{k},{text}")
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def _r18_off_axis_sigma():
    """sigma = R diag(e^36, e^-36) R^T, rotated by 0.3: r = 18, where the pencil meets defect A."""
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    sigma = rot @ np.diag([np.exp(36.0), np.exp(-36.0)]) @ rot.T
    return (0.5 * (sigma + sigma.T)).tolist()


MIXED_ERRORS = {
    # file name: (state, error of a run against the N = 1 boson reference)
    "e_schema.json": ({"kind": "boson", "n_modes": 1}, "SchemaError: missing required key 'sigma'"),
    "e_not_pure.json": (
        {"kind": "boson", "n_modes": 1, "sigma": [[2.0, 0.0], [0.0, 2.0]]},
        "NotPure: J^2 != -1",
    ),
    "e_displaced.json": (
        {"kind": "boson", "n_modes": 1, "sigma": [[4.0, 0.0], [0.0, 0.25]], "z": [0.3, 0.0]},
        "DisplacementPresent: complexity requires zero displacements",
    ),
    "e_defect_a_r18.json": (
        {"kind": "boson", "n_modes": 1, "sigma": _r18_off_axis_sigma()},
        "NumericDomainError: relative covariance is not positive-definite",
    ),
}


def write_mixed_batch(directory):
    """Bosons and fermions at N = 1, 2, 8, an odd file name, and in-band errors."""
    directory.mkdir()
    rng = np.random.default_rng(19)
    for n in (1, 2, 8):
        for kind in StateKind:
            for i in range(2):
                data = state_to_dict(random_target(kind, n, rng))
                write_state(directory, f"{kind.value}_n{n}_{i}.json", data)
    write_state(directory, 'q"uote \u00e9.json', state_to_dict(random_target(StateKind.BOSON, 1, rng)))
    for name, (data, _) in MIXED_ERRORS.items():
        write_state(directory, name, data)


@pytest.mark.parametrize("kind", ["boson", "fermion"])
@pytest.mark.parametrize("n", [1, 2, 8])
def test_batch_output_is_the_reference_render_of_its_entries(tmp_path, capsys, monkeypatch, kind, n):
    batch = tmp_path / "batch"
    write_mixed_batch(batch)
    reference = reference_state(StateKind(kind), n)
    ref = write_state(tmp_path, "ref.json", state_to_dict(reference))
    monkeypatch.chdir(batch)
    entries = []
    for name in sorted(os.listdir(".")):
        code, text = run_cli(capsys, "complexity", "--reference", ref, "--target", name)
        if code:
            entries.append({"file": name, "error": json.loads(text)["error"]})
            continue
        with open(name, encoding="utf-8") as f:
            rel = relative_complex_structure(reference, state_from_dict(json.load(f)))
        payload = {
            "complexity": complexity_from_relative(rel),
            "generator": 0.5 * rel.log_delta,
            "delta_eigenvalues": _delta_eigenvalues(rel),
        }
        assert text == reference_render(payload) + "\n"  # the --target route renders the same
        entries.append({"file": name, **payload})
    assert sum("error" not in e for e in entries) == (3 if (kind, n) == ("boson", 1) else 2)
    if (kind, n) == ("boson", 1):
        errors = {e["file"]: e["error"] for e in entries if "error" in e}
        assert set(MIXED_ERRORS) <= set(errors)
        for name, (_, error) in MIXED_ERRORS.items():
            assert errors[name].startswith(error)
    want = reference_render({"results": entries})
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", ".")
    assert out == want + "\n"
    assert code in (2, 3)
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--batch", ".", "--format", "csv")
    assert out == 'key,value\nresults,"' + want[len('{"results": ') : -1].replace('"', '""') + '"\n'


def _text_mode_error(path):
    """The error the state-file read gives when the file is opened in text mode as UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        return f"SchemaError: cannot read state file {path}: {exc}"
    try:
        json.loads(raw)
    except json.JSONDecodeError as exc:
        return f"SchemaError: state file {path} is not valid JSON: {exc}"
    return None


STATE_TEXT = b'{"kind": "boson",\n "n_modes": 1,\n "sigma": [[1, 0],\n [0, 1]]}\n'
READ_ERRORS = {
    "crlf_malformed.json": STATE_TEXT.replace(b"\n", b"\r\n").replace(b"[0, 1]]", b"[0, 1]] x"),
    "cr_malformed.json": STATE_TEXT.replace(b"\n", b"\r").replace(b'"n_modes"', b"n_modes"),
    "mixed_newlines_malformed.json": b'{"kind": "boson",\r\n\r "n_modes": 1,\n\r\n "sigma": ]}',
    "bom.json": b"\xef\xbb\xbf" + STATE_TEXT,
    "invalid_utf8.json": STATE_TEXT.replace(b"\n", b"\r\n").replace(b"boson", b"bos\xffon"),
    "truncated_utf8.json": STATE_TEXT + b"\xc3",
    "missing.json": None,
}


@pytest.mark.parametrize("name", list(READ_ERRORS))
def test_state_file_read_errors_match_the_text_mode_read(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    if READ_ERRORS[name] is not None:
        (tmp_path / name).write_bytes(READ_ERRORS[name])
    want = _text_mode_error(name)
    assert want is not None
    with pytest.raises(SchemaError) as read:
        _read_state_file(name)
    assert f"SchemaError: {read.value}" == want


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_state_file_newlines_read_as_text_mode_reads_them(tmp_path, capsys, newline):
    path = tmp_path / "state.json"
    path.write_bytes(STATE_TEXT.replace(b"\n", newline))
    assert _text_mode_error(path) is None
    assert _read_state_file(str(path)) == json.loads(STATE_TEXT)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_is_read_to_its_end():
    # a pipe's size reads as 0, so the reads go on past the first one; 20 kB is more than one
    data = STATE_TEXT + b" " * 20000
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        assert _read_state_file(f"/dev/fd/{r}") == json.loads(STATE_TEXT)
    finally:
        os.close(r)


def test_a_directory_as_target_reads_as_in_text_mode(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ref = boson_ref(tmp_path)
    (tmp_path / "d.json").mkdir()
    code, out = run_cli(capsys, "complexity", "--reference", ref, "--target", "d.json")
    assert code == 3
    assert json.loads(out)["error"] == _text_mode_error("d.json")
    assert "Is a directory: 'd.json'" in out


LOADER_STATE = {"kind": "boson", "n_modes": 1, "sigma": [[4.0, 0.0], [0.0, 0.25]]}
LOADER_TEXT = json.dumps(LOADER_STATE, indent=1).encode()


def _loader_state(**changes) -> bytes:
    return json.dumps({**LOADER_STATE, **changes}).encode()


# x.json's bytes (None: made in the test) and the error both routes report, {path} as given
LOADER_ERRORS = {
    "directory": (
        None, "SchemaError: cannot read state file {path}: [Errno 21] Is a directory: '{path}'"
    ),
    "dangling_symlink": (
        None,
        "SchemaError: cannot read state file {path}: [Errno 2] No such file or directory: '{path}'",
    ),
    "invalid_utf8": (
        LOADER_TEXT.replace(b"boson", b"bos\xffon"),
        "SchemaError: cannot read state file {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 15: invalid start byte",
    ),
    "bom": (
        b"\xef\xbb\xbf" + LOADER_TEXT,
        "SchemaError: state file {path} is not valid JSON: Unexpected UTF-8 BOM "
        "(decode using utf-8-sig): line 1 column 1 (char 0)",
    ),
    "unknown_key": (_loader_state(extra=1), "SchemaError: unknown keys in state file: ['extra']"),
    **{
        f"kind_{label}": (
            _loader_state(kind=kind), f"SchemaError: kind must be 'boson' or 'fermion', got {text}"
        )
        for label, kind, text in [
            ("capitalised", "Boson", "'Boson'"),
            ("list", ["boson"], "['boson']"),
            ("object", {"a": 1}, "{'a': 1}"),
            ("number", 1, "1"),
            ("null", None, "None"),
        ]
    },
    **{
        f"sigma_{label}": (
            _loader_state(sigma=[[4.0, entry], [0.0, 0.25]]),
            "SchemaError: sigma must be a numeric matrix",
        )
        for label, entry in [("bool", True), ("string", "0"), ("null", None)]
    },
    **{
        f"z_{label}": (_loader_state(z=[entry, 0.0]), "SchemaError: z must be a numeric vector")
        for label, entry in [("bool", True), ("string", "0"), ("null", None)]
    },
}
# a directory as --target is pinned by test_a_directory_as_target_reads_as_in_text_mode
LOADER_CASES = [
    (route, name)
    for name in LOADER_ERRORS
    for route in ("--target", "--batch")
    if (route, name) != ("--target", "directory")
]


@pytest.mark.parametrize("route,name", LOADER_CASES)
def test_loader_errors_are_the_same_through_target_and_batch(
    tmp_path, capsys, monkeypatch, route, name
):
    monkeypatch.chdir(tmp_path)
    ref = boson_ref(tmp_path)
    (tmp_path / "d").mkdir()
    content, error = LOADER_ERRORS[name]
    if name == "directory":
        (tmp_path / "d" / "x.json").mkdir()
    elif name == "dangling_symlink":
        (tmp_path / "d" / "x.json").symlink_to("nowhere.json")
    else:
        (tmp_path / "d" / "x.json").write_bytes(content)
    text = error.replace("{path}", os.path.join("d", "x.json"))
    if route == "--target":
        arg, want = os.path.join("d", "x.json"), {"error": text}
    else:
        arg, want = "d", {"results": [{"file": "x.json", "error": text}]}
    code = main(["complexity", "--reference", ref, route, arg])
    assert (code, capsys.readouterr()) == (3, (json.dumps(want) + "\n", ""))


def test_a_missing_target_is_named_in_its_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ref = boson_ref(tmp_path)
    code = main(["complexity", "--reference", ref, "--target", "nowhere.json"])
    error = (
        "SchemaError: cannot read state file nowhere.json: "
        "[Errno 2] No such file or directory: 'nowhere.json'"
    )
    assert (code, capsys.readouterr()) == (3, (json.dumps({"error": error}) + "\n", ""))


@pytest.mark.parametrize("route", ["--target", "--batch"])
def test_crlf_state_files_give_the_bytes_of_lf_ones(tmp_path, capsys, route):
    assert LOADER_TEXT.count(b"\n") > 1  # indented: there are line ends to convert
    ref = boson_ref(tmp_path)
    outputs = []
    for newline in (b"\n", b"\r\n"):
        directory = tmp_path / f"d{len(outputs)}"
        directory.mkdir()
        (directory / "x.json").write_bytes(LOADER_TEXT.replace(b"\n", newline))
        arg = directory / "x.json" if route == "--target" else directory
        code = main(["complexity", "--reference", ref, route, str(arg)])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_a_target_that_is_not_a_json_object_is_a_schema_error(tmp_path, capsys):
    target = write_state(tmp_path, "list.json", [])
    code, out = run_cli(capsys, "complexity", "--reference", boson_ref(tmp_path), "--target", target)
    assert code == 3
    assert json.loads(out) == {"error": "SchemaError: state file must contain a JSON object"}
