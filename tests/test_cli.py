import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gcomplexity import StateKind, reference_state, state_to_dict
from gcomplexity.cli import _emit, _render, main
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
