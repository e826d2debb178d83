"""Record what gcx writes and its exit codes on the benchmark's inputs; compare two records.

    python3 tools/cli_bytes.py record <tree> <out.json> [--seeds 1 2 3]
    python3 tools/cli_bytes.py compare <a.json> <b.json>

``record`` builds every workload of <tree>/bench/workloads.py at each seed
in a temporary directory and runs each call through <tree>'s own
``gcomplexity.cli.main``, in this process, with the benchmark's own
invoker (``Runner.invoke`` of <tree>/bench/run.py), so a call is made
exactly as the benchmark makes it.  It keeps each call's exit code and
stdout and, for a call with --csv-out, the text of the file written, in
``files`` by path.  The temporary directory is written as ``<root>`` in
the argv, stdout and files it keeps, so the records of two trees are
equal exactly when their output is.  Every benchmark reference
is the vacuum, so ``record`` then runs each call that has --reference
again against a fixed non-vacuum reference of the same kind and N
(squeezed_reference), written over the reference file, and labels those
records ``<workload>@squeezed``.  The benchmark runs oracle-verify below
the CLI's defaults (workloads.ORACLE_ARGS), so ``record`` last puts the
vacuum reference back and runs each oracle-verify call once more without
those arguments, at the defaults, labelled ``<workload>@defaults``.
Last, and once whatever the seeds, ``record`` runs a fixed error-path
corpus labelled ``errors`` (seed null; error_calls): ``complexity
--target`` on each bad state file of ERROR_TARGETS, one ``--batch``
holding all of them and a valid vacuum and form, and bad --tol,
--quad-steps, --rk-steps and --segments values, each of which must exit
2 or 3.  Then, also once, a fixed corpus of the output routes no
benchmark call reaches, labelled ``formats`` (seed null; format_calls),
each of which must exit 0.  ``compare`` lists the calls whose exit code,
stdout or files differ, or that only one record has, and exits 1 if
there are any; for a stdout or file difference it prints the first
differing byte offset and about 40 bytes of each side around it and,
when both texts are JSON, the largest relative change over their
numbers and where it is, or where their structure differs; a file that
only one record has is named.  Nothing is written under bench/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.linalg

ROOT = "<root>"
CONTEXT = 40  # bytes of each stdout shown around the first difference


def squeezed_reference(kind: str, n: int) -> dict:
    """A fixed non-vacuum reference state file of a kind and N.

    G is a fixed normal draw (seed N, scale 0.3 / sqrt(2N)).  Bosons:
    sigma_R = M M^T with M = e^{Omega A}, A = G + G^T symmetric, so M is
    symplectic.  Fermions: the form O Omega O^T with O = e^B,
    B = G - G^T antisymmetric.  Omega is the standard block form.  The
    matrix is written as computed: M M^T is exactly symmetric, the form
    antisymmetric only to rounding.
    """
    d = 2 * n
    om = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    g = np.random.default_rng(n).normal(scale=0.3 / np.sqrt(d), size=(d, d))
    if kind == "boson":
        m = scipy.linalg.expm(om @ (g + g.T))
        sigma = m @ m.T
    else:
        o = scipy.linalg.expm(g - g.T)
        sigma = o @ om @ o.T
    return {"kind": kind, "n_modes": n, "sigma": sigma.tolist()}


_VACUUM = '{"kind": "boson", "n_modes": 1, "sigma": [[1.0, 0.0], [0.0, 1.0]]}'
_FORM = '{"kind": "fermion", "n_modes": 1, "sigma": [[0.0, 1.0], [-1.0, 0.0]]}'
_IDENTITY = '"sigma": [[1.0, 0.0], [0.0, 1.0]]'


def _near_cut(margin: float) -> str:
    """The N = 1 fermion form R(pi - margin / 2) Omega, antisymmetric only to about margin / 2."""
    theta = math.pi - 0.5 * margin
    c, s = math.cos(theta), math.sin(theta)
    form = [[s, c], [-c, s]]  # [[c, -s], [s, c]] @ [[0, 1], [-1, 0]]
    return json.dumps({"kind": "fermion", "n_modes": 1, "sigma": form})


# name -> text of each bad target file (the near-cut form takes its text from error_calls)
ERROR_TARGETS = {
    "bool_entry": '{"kind": "boson", "n_modes": 1, "sigma": [[true, 0.0], [0.0, 1.0]]}',
    "string_entry": '{"kind": "boson", "n_modes": 1, "sigma": [["1", 0.0], [0.0, 1.0]]}',
    "null_entry": '{"kind": "boson", "n_modes": 1, "sigma": [[null, 0.0], [0.0, 1.0]]}',
    "huge_integer": '{"kind": "boson", "n_modes": 1, "sigma": [[1%s, 0.0], [0.0, 1.0]]}' % ("0" * 400),
    "nan_z": '{"kind": "boson", "n_modes": 1, %s, "z": [NaN, 0.0]}' % _IDENTITY,
    "fermion_z": '{"kind": "fermion", "n_modes": 1, "sigma": [[0.0, 1.0], [-1.0, 0.0]], "z": [0, 0]}',
    "n_modes_half": '{"kind": "boson", "n_modes": 1.5, %s}' % _IDENTITY,
    "n_modes_true": '{"kind": "boson", "n_modes": true, %s}' % _IDENTITY,
    "n_modes_zero": '{"kind": "boson", "n_modes": 0, %s}' % _IDENTITY,
    "unknown_kind": '{"kind": "bosons", "n_modes": 1, %s}' % _IDENTITY,
    "missing_key": '{"kind": "boson", "n_modes": 1}',
    "unknown_key": '{"kind": "boson", "n_modes": 1, %s, "tol": 1e-6}' % _IDENTITY,
    "not_object": "[1.0, 2.0]",
    "bad_json": '{"kind": "boson", "n_modes": 1,',
    "not_positive": '{"kind": "boson", "n_modes": 1, "sigma": [[-1.0, 0.0], [0.0, -1.0]]}',
    "fermion_flipped": '{"kind": "fermion", "n_modes": 1, "sigma": [[0.0, -1.0], [1.0, 0.0]]}',
    "fermion_near_cut": None,
}
# fermion targets run against the form Omega at a tol the near-cut form loads at
_FERMION_FLAGS = ["--tol", "1e-6"]


def error_calls(root: Path, margin: float) -> list:
    """The error-path corpus as (label, argv) pairs, writing its files under root.

    Each target of ERROR_TARGETS runs alone, against the vacuum for a
    boson file and the fermion form Omega otherwise.  One --batch holds
    them all, Omega itself (Delta = 1) and the vacuum, against Omega, so
    that the fermion group's pencil keeps a row past the failed solve and
    the boson group's check list a row past the failed Cholesky.  Then
    each bad option value.  ``margin`` is the tree's BRANCH_CUT_MARGIN.
    """
    vacuum, form = root / "vacuum.json", root / "form.json"
    vacuum.write_text(_VACUUM)
    form.write_text(_FORM)
    batch = root / "batch"
    batch.mkdir()
    (batch / "form.json").write_text(_FORM)
    (batch / "vacuum.json").write_text(_VACUUM)
    calls = []
    for name, text in ERROR_TARGETS.items():
        text = _near_cut(margin) if text is None else text
        target = root / f"{name}.json"
        target.write_text(text)
        (batch / target.name).write_text(text)
        fermion = name.startswith("fermion")
        ref, flags = (form, _FERMION_FLAGS) if fermion else (vacuum, [])
        calls.append((name, ["complexity", "--reference", str(ref), "--target", str(target), *flags]))
    calls.append(
        ("batch", ["complexity", "--reference", str(form), "--batch", str(batch), *_FERMION_FLAGS])
    )
    pair = ["--reference", str(vacuum), "--target", str(vacuum)]
    for tol in ("x", "-1", "0", "nan", "inf"):
        calls.append((f"tol {tol}", ["complexity", *pair, "--tol", tol]))
    for steps in ("x", "0", "3"):
        calls.append((f"quad-steps {steps}", ["weyl", *pair, "--omega", "const:0", "--quad-steps", steps]))
    nonrev = ["nonrev", "--start", "0.5,0", "--velocity", "1,0"]
    for steps in ("x", "4", str(2**21)):
        calls.append((f"rk-steps {steps}", [*nonrev, "--rk-steps", steps]))
    for segments in ("x", "2"):
        calls.append((f"segments {segments}", ["oracle-verify", *pair, "--segments", segments]))
    return calls


def format_calls(root: Path) -> list:
    """The format-route corpus as (label, argv) pairs, writing its files under root.

    ``nonrev --format csv`` at 64 RK4 steps under each potential
    grammar, the first once more with --csv-out; ``--format csv`` of
    ``complexity --target``, ``coherent`` and ``weyl --omega linear:0.5``;
    ``weyl --omega table:`` on a fixed table; and two outward launches
    from the origin, README's dyadic one (JSON) and a non-dyadic one
    (CSV), whose samples come from the RK4 as every launch's do.  The
    states are the squeezed references of N = 2 (a target against the
    N = 2 vacuum) and of N = 1 (displaced by z = (0.3, -0.2), against
    the vacuum).
    """
    vacuum_1, vacuum_2 = root / "vacuum_1.json", root / "vacuum_2.json"
    squeezed, displaced = root / "squeezed.json", root / "displaced.json"
    table = root / "omega.csv"
    vacuum_1.write_text(_VACUUM)
    vacuum_2.write_text(json.dumps({"kind": "boson", "n_modes": 2, "sigma": np.eye(4).tolist()}))
    squeezed.write_text(json.dumps(squeezed_reference("boson", 2)))
    displaced.write_text(json.dumps({**squeezed_reference("boson", 1), "z": [0.3, -0.2]}))
    table.write_text("r,omega\n0.0,0.0\n0.4,0.3\n1.0,0.1\n2.5,0.7\n")
    nonrev = ["nonrev", "--start", "0.5,0.3", "--velocity", "0.6,0.2", "--rk-steps", "64"]
    csv = ["--format", "csv"]
    potentials = ("none", "const:0.3", "grad:h=0.2r+0.1r^2")
    calls = [(f"nonrev {p}", [*nonrev, "--potential", p, *csv]) for p in potentials]
    calls.append(("nonrev none --csv-out", [*calls[0][1], "--csv-out", str(root / "path.csv")]))
    pair = ["--reference", str(vacuum_2), "--target", str(squeezed)]
    calls += [
        ("complexity", ["complexity", *pair, *csv]),
        ("coherent", ["coherent", "--reference", str(vacuum_1), "--target", str(displaced), *csv]),
        ("weyl linear:0.5", ["weyl", *pair, "--omega", "linear:0.5", *csv]),
        ("weyl table", ["weyl", *pair, "--omega", f"table:{table}"]),
        ("nonrev origin grad:h=0.5r", [
            "nonrev", "--start", "0,0", "--velocity", "1,0", "--potential", "grad:h=0.5r",
            "--length", "2",
        ]),
        ("nonrev origin const:0.3", [
            "nonrev", "--start", "0,0.7", "--velocity", "2.5,0", "--potential", "const:0.3",
            "--length", "0.37", "--rk-steps", "100", *csv,
        ]),
    ]
    return calls


def _call(tmp: str, argv, code, out: str, **keys) -> dict:
    """The record of one call, tmp written as <root>: keys, argv, exit, stdout, and files.

    ``files`` is there only for a call with --csv-out: its path and the
    text of the file, or empty when the call wrote none.
    """
    call = {**keys, "argv": [a.replace(tmp, ROOT) for a in argv], "exit": code,
            "stdout": out.replace(tmp, ROOT)}
    if "--csv-out" in argv:
        path = Path(argv[argv.index("--csv-out") + 1])
        call["files"] = {}
        if path.exists():
            call["files"][str(path).replace(tmp, ROOT)] = path.read_text().replace(tmp, ROOT)
    return call


def record(tree: Path, seeds) -> list:
    tree = tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import run
    import workloads
    from gcomplexity import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree):
        raise SystemExit(f"gcomplexity was imported from {cli.__file__}, not from {tree}")
    calls = []
    for name in workloads.WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                inputs = workloads.build(name, seed, Path(tmp))
                runner = run.Runner(cli, inputs)

                def invoke(label, index, argv):
                    _, code, out = runner.invoke(argv)
                    calls.append(_call(tmp, argv, code, out, workload=label, seed=seed, index=index))

                for index, call in enumerate(inputs.calls):
                    invoke(name, index, call.argv)
                vacuum = {}
                for index, call in enumerate(inputs.calls):
                    if "--reference" in call.argv:
                        ref = Path(call.argv[call.argv.index("--reference") + 1])
                        state = json.loads(vacuum.setdefault(ref, ref.read_text()))
                        ref.write_text(json.dumps(squeezed_reference(state["kind"], state["n_modes"])))
                        invoke(name + "@squeezed", index, call.argv)
                for ref, text in vacuum.items():
                    ref.write_text(text)
                tail = len(workloads.ORACLE_ARGS)
                for index, call in enumerate(inputs.calls):
                    if call.argv[0] == "oracle-verify":
                        if call.argv[-tail:] != workloads.ORACLE_ARGS:
                            raise SystemExit(f"{name} call {index} does not end with ORACLE_ARGS")
                        invoke(name + "@defaults", index, call.argv[:-tail])
    from gcomplexity.lie_numerics import BRANCH_CUT_MARGIN

    corpora = {"errors": lambda root: error_calls(root, BRANCH_CUT_MARGIN), "formats": format_calls}
    for workload, corpus in corpora.items():
        with tempfile.TemporaryDirectory() as tmp:
            runner = run.Runner(cli, None)
            for index, (label, argv) in enumerate(corpus(Path(tmp))):
                with contextlib.redirect_stderr(io.StringIO()):  # argparse's usage text
                    _, code, out = runner.invoke(argv)
                calls.append(
                    _call(tmp, argv, code, out, workload=workload, seed=None, index=index, label=label)
                )
    return calls


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def largest_change(a, b, path="$"):
    """(|x - y| / max(|x|, |y|), JSON path) of the largest change over paired numbers.

    a and b are parsed JSON values walked in parallel; the first pair of
    largest change wins, and a pair that differs where either is NaN or
    infinite counts as inf.  Raises ValueError with the path of the
    first place where a and b differ other than in a number: a type, a
    key, a length or any other value.
    """
    if _is_number(a) and _is_number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, path
        rel = abs(a - b) / max(abs(a), abs(b))
        return (math.inf if math.isnan(rel) else rel), path
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        pairs = [(a[k], b[k], f"{path}.{k}") for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif type(a) is type(b) and a == b:
        return 0.0, path
    else:
        raise ValueError(path)
    changes = [largest_change(x, y, at) for x, y, at in pairs]
    return max(changes, key=lambda c: c[0], default=(0.0, path))


def _change_line(a: str, b: str):
    """The report line on the size of a stdout difference, or None when either is not JSON."""
    try:
        x, y = json.loads(a), json.loads(b)
    except json.JSONDecodeError:
        return None
    try:
        rel, at = largest_change(x, y)
    except ValueError as err:
        return f"  JSON structure differs at {err}"
    return f"  largest relative change {rel:.3g} at {at}"


def _difference(head: str, a: str, b: str) -> str:
    """The report lines on two differing texts, the first of them head and its byte offset."""
    x, y = a.encode(), b.encode()
    at = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    start = max(0, at - CONTEXT // 2)
    change = _change_line(a, b)
    return (
        f"{head} differs at byte {at}\n"
        f"  a: {x[start : start + CONTEXT]!r}\n"
        f"  b: {y[start : start + CONTEXT]!r}"
        + ("" if change is None else "\n" + change)
    )


def compare(a: list, b: list) -> list:
    """One report per call whose exit code, stdout or files differ, or that one record lacks.

    A report is one line, except where a stdout or a written file
    differs: for each such text a line names the first byte offset where
    the two differ, two more lines show the bytes around it from a and
    from b, and when both texts parse as JSON a last line gives the
    largest relative change over their numbers with its JSON path, or
    the path where their structure differs.  A file that only one
    record has is one line.
    """
    def by_key(calls):
        return {(c["workload"], c["seed"], c["index"]): c for c in calls}

    left, right = by_key(a), by_key(b)
    lines = []
    for key in sorted(left.keys() | right.keys()):
        x, y = left.get(key), right.get(key)
        label = "{} seed={} call={}".format(*key)
        if x is None or y is None:
            lines.append(f"{label}: only in {'b' if x is None else 'a'}")
            continue
        head = f"{label} {' '.join(x['argv'])}:"
        if x["exit"] != y["exit"]:
            lines.append(f"{head} exit {x['exit']!r} != {y['exit']!r}")
            continue
        texts = {"stdout": (x["stdout"], y["stdout"])}
        fx, fy = x.get("files", {}), y.get("files", {})
        texts.update((path, (fx.get(path), fy.get(path))) for path in sorted(fx.keys() | fy.keys()))
        parts = [
            f"{head} {name} only in {'b' if p is None else 'a'}" if p is None or q is None
            else _difference(f"{head} {name}", p, q)
            for name, (p, q) in texts.items() if p != q
        ]
        if parts:
            lines.append("\n".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every benchmark call through a tree's cli.main")
    rec.add_argument("tree", type=Path)
    rec.add_argument("out", type=Path)
    rec.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    cmp = sub.add_parser("compare", help="list the calls where two records differ")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        calls = record(args.tree, args.seeds)
        args.out.write_text(json.dumps(calls, indent=1) + "\n")
        print(f"{len(calls)} calls recorded to {args.out}")
        return 0
    a, b = json.loads(args.a.read_text()), json.loads(args.b.read_text())
    lines = compare(a, b)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(a)} calls differ" if lines else f"all {len(a)} calls identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
