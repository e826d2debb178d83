"""Seeded inputs for the gcx benchmark, each with an independent reference.

Every target is built so that its answer is known from the construction,
without calling the library:

- bosons are sigma = P . diag(e^{+-2 r_i}) . P^T with P passive (orthogonal
  symplectic), so C = sqrt(sum r_i^2) and the generator is
  P . diag(+-r_i) . P^T;
- fermions are J_T = e^{2A} J_R with A antisymmetric and anticommuting with
  J_R, so Delta = e^{2A}, the generator is A and C = ||A||_F / sqrt 2;
- displaced bosons add z, and N = P . diag(2x / expm1(x)) . P^T with
  x = +-r_i (N -> 2 at x = 0), so C = 1/2 sqrt(sum (2 r_i)^2 + |N z|^2);
- weyl costs are r e^c, (e^{beta r} - 1) / beta, or an adaptive quadrature
  of the tabulated factor;
- nonrev costs satisfy forward + reverse = 2 length.

Two slices exercise known defects of the library (ROADMAP defects A and B)
and keep them visible: strongly squeezed off-axis bosons (r up to 20), whose
pencil eigen-solve loses the small eigenvalue, and displaced two-mode targets
with one unsqueezed mode, which raise SingularN.  An operation in such a
slice either gives the reference answer or ends in the documented error,
which is counted as a known-defect outcome, never as a pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.interpolate
import scipy.linalg

WORKLOADS = ("batch_small", "batch_large", "oracle", "single_calls")

OK = "ok"
DEFECT_A = "defect_a"
DEFECT_B = "defect_b"

# Closed-form results from the pencil or Schur routes agree with the
# construction to ~1e-13; the bound leaves room for N = 32.
REL_TOL = 1e-9
GEN_TOL = 1e-8
# Simpson with 128 intervals: smooth factors, and a piecewise-cubic one.
WEYL_TOL = 1e-7
TABLE_TOL = 1e-6
ORACLE_GAP = 1e-2
NONREV_TOL = 1e-10

EXIT_NUMERIC = 2
EXIT_VALIDATION = 3


@dataclass
class Call:
    """One gcx invocation and how to judge each operation it performs."""

    argv: list
    ops: int
    in_bytes: int
    check: object  # (exit code, parsed stdout) -> list of outcomes, one per op


@dataclass
class Inputs:
    calls: list = field(default_factory=list)
    # argv lists run once, unchecked, before timing; default: one pass
    warmup: list = field(default_factory=list)

    @property
    def ops_per_pass(self) -> int:
        return sum(c.ops for c in self.calls)


# ---------------------------------------------------------------- states


def j_reference(n: int) -> np.ndarray:
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def passive(rng, n: int) -> np.ndarray:
    """Random orthogonal symplectic matrix in (Q1, P1, ..., QN, PN) order."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    block = np.block([[u.real, -u.imag], [u.imag, u.real]])
    perm = np.stack([np.arange(n), n + np.arange(n)], axis=1).ravel()
    return block[np.ix_(perm, perm)]


@dataclass
class Target:
    state: dict
    complexity: float
    generator: np.ndarray
    n_matrix: np.ndarray = None
    defect: str = None


def boson(rng, radii, z=None, defect=None) -> Target:
    """passive . (+) S(r_i) . passive; the inner passive map fixes the vacuum."""
    radii = np.asarray(radii, dtype=float)
    n = len(radii)
    p = passive(rng, n)
    x = np.repeat(radii, 2) * np.tile([1.0, -1.0], n)
    sigma = (p * np.exp(2.0 * x)) @ p.T
    state = {"kind": "boson", "n_modes": n, "sigma": (0.5 * (sigma + sigma.T)).tolist()}
    complexity = math.sqrt(float(radii @ radii))
    n_matrix = None
    if z is not None:
        z = np.asarray(z, dtype=float)
        state["z"] = z.tolist()
        safe = np.where(x == 0.0, 1.0, x)
        f = np.where(x == 0.0, 2.0, 2.0 * safe / np.expm1(safe))
        n_matrix = (p * f) @ p.T
        y = f * (p.T @ z)
        complexity = 0.5 * math.sqrt(4.0 * float(radii @ radii) + float(y @ y))
    return Target(state, complexity, (p * x) @ p.T, n_matrix, defect)


def fermion(rng, n: int, scale: float) -> Target:
    """J_T = e^{2A} J_R with ||A||_2 = scale < pi/2, away from the branch cut."""
    jr = j_reference(n)
    b = rng.normal(size=(2 * n, 2 * n))
    b = b - b.T
    a = 0.5 * (b + jr @ b @ jr)
    norm = np.linalg.norm(a, 2)
    if norm > 0.0:
        a *= scale / norm
    j = scipy.linalg.expm(2.0 * a) @ jr
    state = {"kind": "fermion", "n_modes": n, "sigma": (0.5 * (j - j.T)).tolist()}
    return Target(state, float(np.linalg.norm(a)) / math.sqrt(2.0), a)


def reference_dict(kind: str, n: int) -> dict:
    if kind == "boson":
        return {"kind": "boson", "n_modes": n, "sigma": np.eye(2 * n).tolist()}
    return {"kind": "fermion", "n_modes": n, "sigma": j_reference(n).tolist()}


# ---------------------------------------------------------------- checks


def _close(value, ref, tol=REL_TOL) -> bool:
    return abs(float(value) - ref) <= tol * abs(ref) + 1e-12


def _matrix_close(value, ref, tol=GEN_TOL) -> bool:
    m = np.asarray(value, dtype=float)
    return m.shape == ref.shape and float(np.max(np.abs(m - ref))) <= tol * (
        1.0 + float(np.max(np.abs(ref)))
    )


def _error_code(error: str) -> int:
    from gcomplexity import errors

    cls = getattr(errors, error.split(":", 1)[0], None)
    if isinstance(cls, type) and issubclass(cls, errors.NumericDomainError):
        return EXIT_NUMERIC
    return EXIT_VALIDATION


# The strong-squeeze slice loses the small eigenvalue e^{-2r} in the absolute
# error of a full-scale check: the pencil eigh or the covariance Cholesky.
DEFECT_A_ERRORS = (
    "NumericDomainError: relative covariance is not positive-definite",
    "SingularInput: sigma is not positive-definite",
)


def _known_defect(target: Target, error: str):
    """Outcome for an in-band error: a known defect in its slice, else a failure."""
    if target.defect == DEFECT_A and error.startswith(DEFECT_A_ERRORS):
        return DEFECT_A
    if target.defect == DEFECT_B and error.startswith("SingularN"):
        return DEFECT_B
    return f"unexpected error: {error}"


def _judge_complexity(entry: dict, target: Target):
    if "error" in entry:
        return _known_defect(target, entry["error"])
    if not _close(entry["complexity"], target.complexity):
        if target.defect == DEFECT_A and _close(entry["complexity"], target.complexity, 1e-4):
            # strong squeezing: a success that kept only part of its digits
            return DEFECT_A
        return f"complexity {entry['complexity']!r} != {target.complexity!r}"
    # in the strong slice the generator's -r half carries defect A; C is checked
    if target.defect is None and not _matrix_close(entry["generator"], target.generator):
        return "generator differs from the construction"
    return OK


def check_batch(names, targets):
    def check(code, out):
        results = out.get("results") if isinstance(out, dict) else None
        if not isinstance(results, list) or len(results) != len(targets):
            return [f"malformed batch output (exit {code})"] * len(targets)
        outcomes = []
        first_error = 0
        for name, target, entry in zip(names, targets, results):
            if entry.get("file") != name:
                outcomes.append(f"result for {entry.get('file')!r}, expected {name!r}")
                continue
            if "error" in entry and not first_error:
                first_error = _error_code(entry["error"])
            outcomes.append(_judge_complexity(entry, target))
        if code != first_error:
            return [f"exit {code}, expected {first_error}"] * len(targets)
        return outcomes

    return check


def check_coherent(target: Target):
    def check(code, out):
        if "error" in out:
            outcome = _known_defect(target, out["error"])
            return [outcome if code == _error_code(out["error"]) else f"exit {code}"]
        if code != 0:
            return [f"exit {code}"]
        if not _close(out["complexity"], target.complexity):
            return [f"complexity {out['complexity']!r} != {target.complexity!r}"]
        if not _matrix_close(out["N_matrix"], target.n_matrix):
            return ["N matrix differs from the construction"]
        if out["z_target"] != target.state["z"]:
            return ["z_target differs from the input"]
        return [OK]

    return check


def weyl_reference(spec: str, r: float, table=None) -> float:
    head, _, arg = spec.partition(":")
    if head == "const":
        return r * math.exp(float(arg))
    if head == "linear":
        beta = float(arg)
        return math.expm1(beta * r) / beta
    knots, omega = table
    interp = scipy.interpolate.PchipInterpolator(knots, omega, extrapolate=True)
    inside = knots[(knots > 0.0) & (knots < r)]
    value, _ = scipy.integrate.quad(
        lambda s: math.exp(float(interp(s))), 0.0, r, points=inside,
        epsabs=0.0, epsrel=1e-13, limit=400,
    )
    return value


def check_weyl(target: Target, reference: float, tol: float):
    def check(code, out):
        if code != 0 or "error" in out:
            return [f"exit {code}: {out.get('error')}"]
        if not _close(out["base_complexity"], target.complexity):
            return [f"base complexity {out['base_complexity']!r} != {target.complexity!r}"]
        if not _close(out["complexity"], reference, tol):
            return [f"weyl complexity {out['complexity']!r} != {reference!r}"]
        return [OK]

    return check


def check_nonrev(rk_steps: int):
    def check(code, out):
        if code != 0 or "error" in out:
            return [f"exit {code}: {out.get('error')}"]
        fwd, rev, length = out["forward_cost"], out["reverse_cost"], out["length"]
        if not all(math.isfinite(v) for v in (fwd, rev, length)) or length <= 0.0:
            return ["non-finite or empty path"]
        if abs(fwd + rev - 2.0 * length) > NONREV_TOL * max(1.0, length):
            return [f"forward + reverse - 2 length = {fwd + rev - 2.0 * length:.3e}"]
        if out["samples"] != rk_steps + 1:
            return [f"{out['samples']} samples for {rk_steps} steps"]
        return [OK]

    return check


def check_oracle(target: Target):
    def check(code, out):
        if code != 0 or "error" in out:
            return [f"exit {code}: {out.get('error')}"]
        if out["converged"] is not True:
            return ["oracle did not converge"]
        if not _close(out["closed_form"], target.complexity):
            return [f"closed form {out['closed_form']!r} != {target.complexity!r}"]
        if not abs(out["relative_gap"]) <= ORACLE_GAP:
            return [f"relative gap {out['relative_gap']!r}"]
        return [OK]

    return check


# ---------------------------------------------------------------- builders


def _write(path: Path, obj) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(obj)
    path.write_text(text)
    return len(text)


def _reference_file(root: Path, kind: str, n: int):
    path = root / f"ref_{kind}_n{n}.json"
    return str(path), _write(path, reference_dict(kind, n))


def _batch_call(root: Path, name: str, kind: str, n: int, targets) -> Call:
    ref, ref_bytes = _reference_file(root, kind, n)
    directory = root / name
    names = [f"t{i:03d}.json" for i in range(len(targets))]
    size = sum(_write(directory / f, t.state) for f, t in zip(names, targets))
    return Call(
        ["complexity", "--reference", ref, "--batch", str(directory)],
        len(targets),
        ref_bytes + size,
        check_batch(names, targets),
    )


def _moderate_boson(rng, n):
    return boson(rng, rng.uniform(0.05, 1.5, size=n))


def _fermion_batch(rng, n, count):
    return [fermion(rng, n, rng.uniform(0.1, 1.2)) for _ in range(count)]


def build_batch_small(rng, root: Path) -> Inputs:
    inputs = Inputs()
    for n in (1, 2):
        targets = [_moderate_boson(rng, n) for _ in range(40)]
        inputs.calls.append(_batch_call(root, f"boson_n{n}", "boson", n, targets))
        inputs.calls.append(
            _batch_call(root, f"fermion_n{n}", "fermion", n, _fermion_batch(rng, n, 40))
        )
    for n in (1, 2):
        strong = [boson(rng, rng.uniform(4.0, 20.0, size=n), defect=DEFECT_A) for _ in range(8)]
        inputs.calls.append(_batch_call(root, f"boson_n{n}_strong", "boson", n, strong))
    return inputs


def build_batch_large(rng, root: Path) -> Inputs:
    inputs = Inputs()
    for n, count in ((8, 8), (32, 4)):
        targets = [boson(rng, rng.uniform(0.05, 1.5, size=n)) for _ in range(count)]
        inputs.calls.append(_batch_call(root, f"boson_n{n}", "boson", n, targets))
        inputs.calls.append(
            _batch_call(root, f"fermion_n{n}", "fermion", n, _fermion_batch(rng, n, count))
        )
    return inputs


def _pair_call(root, command, name, kind, target, extra, check) -> Call:
    n = target.state["n_modes"]
    ref, ref_bytes = _reference_file(root, kind, n)
    path = root / f"{name}.json"
    size = _write(path, target.state)
    argv = [command, "--reference", ref, "--target", str(path), *extra]
    return Call(argv, 1, ref_bytes + size, check)


def _displacement(rng, n):
    return rng.normal(scale=0.5, size=2 * n)


# Below the CLI defaults (16 segments, 5 restarts): there one pass of five
# targets took 12-22 s, so a run held one noisy sample.  Restart 0 starts
# from the closed form and restart 1 from random increments, as at the
# defaults; variational_oracle and matrix_exp_batch still do the work.
ORACLE_ARGS = ["--segments", "8", "--restarts", "2"]


def build_oracle(rng, root: Path) -> Inputs:
    inputs = Inputs()
    targets = [
        ("boson_n1", "boson", boson(rng, rng.uniform(0.5, 1.0, size=1))),
        ("boson_n2", "boson", boson(rng, rng.uniform(0.3, 0.8, size=2))),
        ("fermion_n2", "fermion", fermion(rng, 2, rng.uniform(0.3, 0.6))),
        ("displaced_n1", "boson", boson(rng, rng.uniform(0.3, 0.8, size=1), _displacement(rng, 1))),
        ("displaced_n2", "boson", boson(rng, rng.uniform(0.3, 0.6, size=2), _displacement(rng, 2))),
    ]
    for name, kind, target in targets:
        inputs.calls.append(
            _pair_call(
                root, "oracle-verify", name, kind, target, ORACLE_ARGS, check_oracle(target)
            )
        )
    first = inputs.calls[0].argv[: -len(ORACLE_ARGS)]
    inputs.warmup.append(first + ["--segments", "4", "--restarts", "1"])
    return inputs


def _table(rng):
    knots = np.linspace(0.0, 2.5, 21)
    a, b, c = rng.uniform(0.1, 0.4), rng.uniform(1.0, 3.0), rng.uniform(-0.3, 0.3)
    omega = np.round(a * np.sin(b * knots) + c * knots, 12)
    return knots, omega


def build_single_calls(rng, root: Path) -> Inputs:
    inputs = Inputs()
    for i, n in enumerate((1, 1, 2, 2)):
        radii = rng.uniform(0.2, 1.2, size=n)
        target = boson(rng, radii, _displacement(rng, n))
        inputs.calls.append(
            _pair_call(root, "coherent", f"coherent_{i}", "boson", target, [], check_coherent(target))
        )
    # defect B: a two-mode displaced target with one unsqueezed mode
    target = boson(rng, [rng.uniform(0.3, 1.0), 0.0], _displacement(rng, 2), defect=DEFECT_B)
    inputs.calls.append(
        _pair_call(root, "coherent", "coherent_unsqueezed", "boson", target, [], check_coherent(target))
    )
    knots, omega = _table(rng)
    table_path = root / "omega_table.csv"
    table_path.write_text(
        "r,omega\n" + "".join(f"{r!r},{w!r}\n" for r, w in zip(knots.tolist(), omega.tolist()))
    )
    specs = (
        f"const:{round(rng.uniform(-0.5, 0.5), 6)!r}",
        f"linear:{round(rng.uniform(0.2, 1.0), 6)!r}",
        f"table:{table_path}",
    )
    for i, (spec, steps) in enumerate((s, q) for s in specs for q in (128, 1024)):
        target = _moderate_boson(rng, 1 + i % 2)
        reference = weyl_reference(spec, target.complexity, (knots, omega))
        tol = TABLE_TOL if spec.startswith("table") else WEYL_TOL
        call = _pair_call(
            root, "weyl", f"weyl_{i}", "boson", target,
            ["--omega", spec, "--quad-steps", str(steps)],
            check_weyl(target, reference, tol),
        )
        if spec.startswith("table"):
            call.in_bytes += table_path.stat().st_size
        inputs.calls.append(call)
    a, b = rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.15)
    potentials = ("none", f"const:{rng.uniform(0.1, 0.6):.6f}", f"grad:h={a:.6f}r+{b:.6f}r^2")
    for potential in potentials:
        for steps in (256, 1024):
            argv = [
                "nonrev",
                "--start", f"{rng.uniform(0.4, 0.8):.6f},{rng.uniform(0.0, 2.0 * math.pi):.6f}",
                "--velocity", f"{rng.uniform(0.2, 1.0):.6f},{rng.uniform(-0.5, 0.5):.6f}",
                "--potential", potential,
                "--length", f"{rng.uniform(0.4, 0.8):.6f}",
                "--rk-steps", str(steps),
            ]
            inputs.calls.append(Call(argv, 1, 0, check_nonrev(steps)))
    return inputs


BUILDERS = {
    "batch_small": build_batch_small,
    "batch_large": build_batch_large,
    "oracle": build_oracle,
    "single_calls": build_single_calls,
}


def build(workload: str, seed: int, root: Path) -> Inputs:
    """Write the inputs of one workload under root; same seed, same files."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs = BUILDERS[workload](rng, Path(root))
    if not inputs.warmup:
        inputs.warmup = [c.argv for c in inputs.calls]
    return inputs
