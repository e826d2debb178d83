"""Benchmark of the gcx command line, driven in-process on seeded inputs.

    python3 bench/run.py --workload batch_small --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18 --trace 1

One process, one client, closed loop: each gcx call (cli.main) starts when
the previous one has returned and its output has been checked.  A pass runs
every call of the workload once; the run repeats whole passes for --seconds.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it times half the run untraced and half traced and reports
the per-layer metrics.  Lines starting with '#' are for people; the last
line is one JSON object.  bench/layers.json says which end-to-end metric
each layer metric should move, on which workload.

Times are reported in reference seconds.  The speed of a shared machine
drifts by up to 2x over minutes, so after every call the run times a fixed
numpy + Python probe that does not touch gcomplexity, and scales each pass's
time by PROBE_REFERENCE_S / (median probe time during that pass).  Each
set-up spawn is paired with a bare interpreter start just before it and
scaled by SPAWN_REFERENCE_S / (that start's time).  The '#' lines show the
unscaled medians beside the scaled ones.
"""

from __future__ import annotations

import os
import sys

# One process with no extra threads: cap BLAS before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SPAWNS = 5
IMPORTTIME_SPAWNS = 3
IMPORT_PROBE = "import gcomplexity.cli"
# A round value near the probe's median on the 2-core Xeon box the baseline
# in layers.json was measured on (1.2-2.3 ms observed).  Changing it rescales
# every scaled figure, so the baseline would have to be measured again.
PROBE_REFERENCE_S = 1.5e-3
# A round value near a bare interpreter start (python -c pass) on that box;
# set-up times are scaled by it over the start measured just before them.
SPAWN_REFERENCE_S = 0.07
# probes after a call: one per this many seconds of call, at least one
PROBE_EVERY_S = 0.05
PROBE_MAX_PER_CALL = 20


# ------------------------------------------------------------ statistics


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class Probe:
    """Times a fixed kernel shaped like the library's work: small dense
    linear algebra, Python loops and JSON.  Bound to numpy's own eigh, so a
    tracer wrapping numpy.linalg later does not change it."""

    def __init__(self):
        import numpy

        m = numpy.arange(16.0).reshape(4, 4)
        self._m = m + m.T
        self._eigh = numpy.linalg.eigh
        self.times = []
        self.run(5)
        self.times.clear()

    def run(self, count: int = 1):
        for _ in range(count):
            start = time.perf_counter()
            acc = 0.0
            for i in range(60):
                acc += float(self._eigh(self._m @ self._m)[0][0])
                json.dumps({"i": i, "v": [acc] * 8})
            self.times.append(time.perf_counter() - start)

    def after(self, seconds: float):
        self.run(min(PROBE_MAX_PER_CALL, 1 + int(seconds / PROBE_EVERY_S)))

    def scale(self, first: int = 0) -> float:
        """Factor from measured seconds to reference seconds, from probes[first:]."""
        return PROBE_REFERENCE_S / statistics.median(self.times[first:])


# ------------------------------------------------------------ environment


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "commit": _git_commit(),
        "seed": seed,
    }


# ------------------------------------------------------------ set-up time


def _spawn(code: str, extra=()):
    """Wall time of a fresh interpreter running `code`, and its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", code],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"'{code}' failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def _spawn_scale() -> float:
    """Factor to reference seconds from a bare interpreter start just before."""
    return SPAWN_REFERENCE_S / _spawn("pass")[0]


def setup_times(spawns: int):
    """Import wall times, unscaled and scaled by the paired bare start."""
    _spawn(IMPORT_PROBE)  # warms the file cache (and the bytecode cache, if written)
    raw, scaled = [], []
    for _ in range(spawns):
        scale = _spawn_scale()
        raw.append(_spawn(IMPORT_PROBE)[0])
        scaled.append(raw[-1] * scale)
    return raw, scaled


def import_times(spawns: int) -> dict:
    """Median cumulative -X importtime of the modules we report, scaled."""
    names = {"gcomplexity": [], "scipy.interpolate": [], "scipy.linalg": []}
    for _ in range(spawns):
        scale = _spawn_scale()
        _, err = _spawn(IMPORT_PROBE, ("-X", "importtime"))
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in names:
                names[parts[2]].append(int(parts[1]) * 1e-6 * scale)
    return {k: statistics.median(v) if v else 0.0 for k, v in names.items()}


# ------------------------------------------------------------ runner


class Runner:
    """Runs the calls of one workload and judges every operation."""

    def __init__(self, cli, inputs):
        self.cli = cli
        self.inputs = inputs
        self.verified = {}  # call index -> (exit code, stdout, outcomes)
        self.attempted = 0
        self.failed = 0
        self.defects = {workloads.DEFECT_A: 0, workloads.DEFECT_B: 0}
        self.messages = []
        self.out_bytes = 0
        self.in_bytes = 0

    def invoke(self, argv, tracer=None, op_id=0):
        buf = io.StringIO()
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # a crash is a failed operation, not a failed run
            code = "crash: " + traceback.format_exc(limit=3)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
        return elapsed, code, buf.getvalue()

    def judge(self, index, call, code, text):
        seen = self.verified.get(index)
        if seen is not None:
            outcomes = seen[2] if (code, text) == seen[:2] else (
                ["output differs from the first pass"] * call.ops
            )
        else:
            try:
                outcomes = call.check(code, json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                outcomes = [f"unreadable output ({exc!r}): exit {code} {text[:200]!r}"] * call.ops
            self.verified[index] = (code, text, outcomes)
        self.attempted += call.ops
        self.in_bytes += call.in_bytes
        self.out_bytes += len(text)
        for outcome in outcomes:
            if outcome == workloads.OK:
                continue
            if outcome in self.defects:
                self.defects[outcome] += 1
            else:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(f"{call.argv[0]} #{index}: {outcome}")

    def warm_up(self):
        for argv in self.inputs.warmup:
            self.invoke(argv)

    def measure(self, seconds: float, probe: Probe, tracer=None):
        """Whole passes until `seconds` have gone.

        Returns (ops, busy seconds, probe scale) per pass and the call times;
        the probe runs after every call, outside the timed region.
        """
        passes, call_times = [], []
        op_id = 0
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            ops, busy, first_probe = 0, 0.0, len(probe.times)
            for index, call in enumerate(self.inputs.calls):
                elapsed, code, text = self.invoke(call.argv, tracer, op_id)
                probe.after(elapsed)
                op_id += 1
                self.judge(index, call, code, text)
                busy += elapsed
                ops += call.ops
                call_times.append(elapsed)
            passes.append((ops, busy, probe.scale(first_probe)))
        return passes, call_times


# ------------------------------------------------------------ metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, call_times, scale, raw_setup, setup):
    """Each pass's rate is scaled by the probes run during that pass."""
    rates = [ops / (busy * s) for ops, busy, s in passes]
    raw_rates = [ops / busy for ops, busy, _ in passes]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": metric(statistics.median(rates), "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    lines = [
        f"ops_per_s    1/s  {metrics['ops_per_s']['value']:<12.6g} spread {spread(rates):.4f}  "
        f"unscaled {statistics.median(raw_rates):.6g}  ({len(passes)} passes)",
        f"setup_s      s    {metrics['setup_s']['value']:<12.6g} spread {spread(setup):.4f}  "
        f"unscaled {statistics.median(raw_setup):.6g}  ({len(setup)} spawns)",
        f"peak_rss_mb  MB   {rss:<12.6g} (1 process)",
        f"call_s_p50   s    {statistics.median(call_times) * scale:<12.6g} "
        f"({len(call_times)} calls; not gated)",
    ]
    if len(call_times) >= 100:
        p90 = statistics.quantiles(call_times, n=10)[-1]
        lines.append(f"call_s_p90   s    {p90 * scale:<12.6g} ({len(call_times)} calls; not gated)")
    lines.append(f"probe scale {scale:.4f} (reference {PROBE_REFERENCE_S} s / median probe)")
    return metrics, lines


# name suffix -> (Stat attribute, unit, factor per op, scaled by the probe)
_STAT_FIELDS = {
    "calls": ("calls", "count/op", 1.0, False),
    "self_ms": ("self_s", "ms/op", 1e3, True),
    "errors": ("errors", "count/op", 1.0, False),
    "matrices": ("count", "count/op", 1.0, False),
    "rk_steps": ("count", "count/op", 1.0, False),
}
STAT_METRICS = (
    "phase_space.state_from_dict.calls",
    "phase_space.state_from_dict.self_ms",
    "phase_space.state_from_dict.errors",
    "phase_space.standard_symplectic_form.calls",
    "complexity_core.relative_complex_structure.calls",
    "complexity_core.relative_complex_structure.self_ms",
    "complexity_core.state_complexity.self_ms",
    "lie_numerics.log_spd_pencil.calls",
    "lie_numerics.log_spd_pencil.self_ms",
    "lie_numerics.log_spd_pencil.errors",
    "lie_numerics.log_special_orthogonal.calls",
    "lie_numerics.log_special_orthogonal.self_ms",
    "lie_numerics.sqrt_spd_pencil.calls",
    "lie_numerics.sqrt_spd_pencil.self_ms",
    "lie_numerics.matrix_exp_batch.calls",
    "lie_numerics.matrix_exp_batch.self_ms",
    "lie_numerics.matrix_exp_batch.matrices",
    *(f"linalg.{k}.calls" for k in (
        "eigh", "eig", "eigvals", "schur", "svd", "lstsq", "solve", "inv", "det",
        "cholesky", "expm",
    )),
    "coherent.coherent_geodesic.calls",
    "coherent.coherent_geodesic.self_ms",
    "coherent.coherent_geodesic.errors",
    "variational_oracle.minimize_to_target.calls",
    "variational_oracle.minimize_to_target.self_ms",
    "modified_metrics.lorentz_geodesic.calls",
    "modified_metrics.lorentz_geodesic.self_ms",
    "modified_metrics.lorentz_geodesic.rk_steps",
    "modified_metrics.nonreversible_cost.self_ms",
    "modified_metrics.nonreversible_cost_profile.self_ms",
    "modified_metrics.path_length.self_ms",
    "modified_metrics.weyl_complexity.self_ms",
    "modified_metrics.WeylFactor.tabulated.self_ms",
)
SHARE_LAYERS = (
    "cli", "phase_space", "complexity_core", "lie_numerics", "coherent",
    "variational_oracle", "modified_metrics", "linalg",
)


def per_layer(tracer, traced, rates, scale, imports, runner_bytes, defects):
    """Per-op layer metrics of the traced passes; times in reference units."""
    from tracer import EIGENSOLVES, Stat

    ops = sum(p[0] for p in traced)
    busy = sum(p[1] for p in traced)
    metrics = {
        "import.gcomplexity_s": metric(imports["gcomplexity"], "s"),
        "import.scipy_interpolate_s": metric(imports["scipy.interpolate"], "s"),
        "import.scipy_linalg_s": metric(imports["scipy.linalg"], "s"),
    }
    layer_self = tracer.layer_self_seconds()
    ms_per_op = 1e3 * scale / ops
    metrics["cli.main.self_ms"] = metric(layer_self.get("cli", 0.0) * ms_per_op, "ms/op")
    metrics["cli.in_bytes"] = metric(runner_bytes[0] / ops, "bytes/op")
    metrics["cli.out_bytes"] = metric(runner_bytes[1] / ops, "bytes/op")
    for name in STAT_METRICS:
        span, suffix = name.rsplit(".", 1)
        attr, unit, factor, scaled = _STAT_FIELDS[suffix]
        value = factor * getattr(tracer.stats.get(span, Stat()), attr) / ops
        metrics[name] = metric(value * scale if scaled else value, unit)
    metrics["linalg.self_ms"] = metric(layer_self.get("linalg", 0.0) * ms_per_op, "ms/op")
    solves = sum(tracer.stats.get(f"linalg.{k}", Stat()).calls for k in EIGENSOLVES)
    metrics["linalg.eigensolves_per_target"] = metric(solves / ops, "count/op")
    for layer in SHARE_LAYERS:
        metrics[f"share.{layer}"] = metric(layer_self.get(layer, 0.0) / busy, "ratio")
    untraced, traced_rate = rates
    metrics["trace.overhead_frac"] = metric(1.0 - traced_rate / untraced, "ratio")
    for name, count in defects.items():
        metrics[f"{name}.per_pass"] = metric(count, "count")
    return metrics


def traced_run(args, runner, imports, scratch):
    from tracer import Tracer

    def rate(passes):
        return statistics.median(ops / (busy * s) for ops, busy, s in passes)

    plain_probe = Probe()
    untraced, _ = runner.measure(args.seconds / 2.0, plain_probe)
    before = (runner.in_bytes, runner.out_bytes, dict(runner.defects))
    probe = Probe()
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = runner.measure(args.seconds / 2.0, probe, tracer)
    finally:
        tracer.uninstall()
    if not tracer.restored():
        raise RuntimeError("the tracer left a wrapped attribute behind")
    defects = {k: (v - before[2][k]) / len(traced) for k, v in runner.defects.items()}
    metrics = per_layer(
        tracer, traced, (rate(untraced), rate(traced)), probe.scale(),
        imports, (runner.in_bytes - before[0], runner.out_bytes - before[1]), defects,
    )
    path = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(path)
    lines = [f"{name:<52} {m['unit']:<9} {m['value']:.6g}" for name, m in metrics.items()]
    lines.append(f"probe scale {probe.scale():.4f}; spans: {len(tracer.spans)} kept, "
                 f"{tracer.dropped} not kept, in {path}")
    return metrics, lines


# ------------------------------------------------------------ one run


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    from gcomplexity import cli

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(environment(args.seed)))
    scratch = Path(".bench_work")
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            imports = import_times(IMPORTTIME_SPAWNS)
        else:
            raw_setup, setup = setup_times(SETUP_SPAWNS)
        inputs = workloads.build(args.workload, args.seed, work)
        runner = Runner(cli, inputs)
        runner.warm_up()
        if args.trace:
            metrics, lines = traced_run(args, runner, imports, scratch)
        else:
            probe = Probe()
            passes, call_times = runner.measure(args.seconds, probe)
            metrics, lines = end_to_end(passes, call_times, probe.scale(), raw_setup, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print("# " + line)
    print(f"# attempted {runner.attempted}  failed {runner.failed}  "
          f"failed_frac {runner.failed / runner.attempted:.6g}  known defects {runner.defects}")
    for message in runner.messages:
        print("# FAILED " + message)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------ every workload


def run_all(args) -> int:
    """Each workload in its own process (peak memory is per process)."""
    results, status = {}, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gcomplexity" / "cli.py").is_file():
        print(f"gcomplexity sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
