"""Tests of the benchmark itself: inputs, references, checks and tracing.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from gcomplexity import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _argv(inputs, root):
    return [[a.replace(str(root), "<root>") for a in c.argv] for c in inputs.calls]


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload, tmp_path):
    a = workloads.build(workload, 7, tmp_path / "a")
    b = workloads.build(workload, 7, tmp_path / "b")
    c = workloads.build(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _argv(a, tmp_path / "a") == _argv(b, tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c") or _argv(
        a, tmp_path / "a"
    ) != _argv(c, tmp_path / "c")


def test_fermion_reference_matches_dense_logm():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        t = workloads.fermion(rng, n, 1.1)
        jt = np.asarray(t.state["sigma"])
        delta = jt @ -workloads.j_reference(n)
        log_delta = scipy.linalg.logm(delta).real
        assert np.allclose(0.5 * log_delta, t.generator, atol=1e-10)
        c = np.linalg.norm(log_delta) / (2.0 * math.sqrt(2.0))
        assert c == pytest.approx(t.complexity, rel=1e-10, abs=1e-12)


def test_displaced_reference_matches_dense_logm_and_sqrtm():
    rng = np.random.default_rng(4)
    for radii in ([0.7], [0.9, 0.4], [1.2, 0.3, 0.6]):
        t = workloads.boson(rng, radii, rng.normal(size=2 * len(radii)))
        delta = np.asarray(t.state["sigma"])  # sigma_R = 1, so Delta = sigma_T
        log_delta = scipy.linalg.logm(delta).real
        root = scipy.linalg.sqrtm(delta).real
        n_matrix = log_delta @ np.linalg.inv(root - np.eye(len(delta)))
        z = np.asarray(t.state["z"])
        c = 0.5 * math.sqrt(0.5 * np.sum(log_delta**2) + float(z @ n_matrix.T @ n_matrix @ z))
        assert np.allclose(n_matrix, t.n_matrix, atol=1e-9)
        assert np.allclose(0.5 * log_delta, t.generator, atol=1e-10)
        assert c == pytest.approx(t.complexity, rel=1e-10)


def test_tracer_restores_every_wrapped_attribute():
    tracer = Tracer()
    before = [(o, a, vars(o)[a] if s else getattr(o, a)) for o, a, _, _, s in tracer._targets()]
    original_main = cli.main
    tracer.install()
    assert cli.main is not original_main
    tracer.uninstall()
    assert tracer.restored()
    assert cli.main is original_main
    for owner, attr, obj in before:
        assert (vars(owner)[attr] if isinstance(obj, staticmethod) else getattr(owner, attr)) is obj


def test_tracer_wraps_names_at_every_importing_module():
    tracer = Tracer()
    names = {(getattr(o, "__name__", ""), a): n for o, a, _, n, _ in tracer._targets()}
    assert names[("gcomplexity.cli", "state_complexity")] == "complexity_core.state_complexity"
    for holder in ("cli", "complexity_core", "coherent", "variational_oracle"):
        assert (
            names[(f"gcomplexity.{holder}", "relative_complex_structure")]
            == "complexity_core.relative_complex_structure"
        )
    assert "modified_metrics.WeylFactor.tabulated" in names.values()
    assert names[("numpy.linalg", "eigh")] == "linalg.eigh"


@pytest.mark.parametrize("workload", ["batch_small", "single_calls"])
def test_traced_and_untraced_stdout_are_byte_identical(workload, tmp_path):
    inputs = workloads.build(workload, 5, tmp_path)
    plain = [_stdout(c.argv) for c in inputs.calls]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for i, c in enumerate(inputs.calls):
            tracer.begin_op(i)
            traced.append(_stdout(c.argv))
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.stats["cli.main"].calls == len(inputs.calls)
    assert tracer.stats["linalg.eigh"].calls > 0
    assert all(span[2] >= span[1] for span in tracer.spans)


def _runner(workload, tmp_path):
    inputs = workloads.build(workload, 9, tmp_path)
    return run.Runner(cli, inputs), inputs


def test_correct_outputs_pass_and_known_defects_are_counted(tmp_path):
    runner, inputs = _runner("batch_small", tmp_path)
    runner.measure(0.0, run.Probe())
    assert runner.failed == 0, runner.messages
    assert runner.attempted == inputs.ops_per_pass
    # the strong-squeeze slice shows defect A at this seed
    assert runner.defects[workloads.DEFECT_A] > 0


def test_a_perturbed_result_is_a_failure(tmp_path):
    runner, inputs = _runner("batch_small", tmp_path)
    call = inputs.calls[0]
    code, text = _stdout(call.argv)
    out = json.loads(text)
    out["results"][3]["complexity"] *= 1.0 + 1e-6
    outcomes = call.check(code, out)
    assert outcomes.count(workloads.OK) == call.ops - 1
    runner.judge(0, call, code, text)
    runner.judge(0, call, code, text.replace("1", "2", 1))
    assert runner.failed == call.ops


def test_a_nonzero_exit_is_a_failure(tmp_path):
    runner, inputs = _runner("single_calls", tmp_path)
    succeeded = 0
    for index, call in enumerate(inputs.calls):
        code, text = _stdout(call.argv)
        if code == 0:
            succeeded += 1
            runner.judge(index, call, 4, text)
    assert runner.failed == succeeded > 0


def test_oracle_and_nonrev_checks_reject_bad_values(tmp_path):
    target = workloads.boson(np.random.default_rng(1), [0.8])
    good = {"closed_form": target.complexity, "relative_gap": 1e-3, "converged": True}
    check = workloads.check_oracle(target)
    assert check(0, good) == [workloads.OK]
    assert check(0, {**good, "relative_gap": 0.05}) != [workloads.OK]
    assert check(0, {**good, "converged": False}) != [workloads.OK]
    assert check(4, good) != [workloads.OK]
    nonrev = workloads.check_nonrev(256)
    fine = {"forward_cost": 1.2, "reverse_cost": 0.8, "length": 1.0, "samples": 257}
    assert nonrev(0, fine) == [workloads.OK]
    assert nonrev(0, {**fine, "reverse_cost": 0.8 + 1e-8}) != [workloads.OK]


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
