"""Smoke test of tools/cli_bytes.py: record every workload at one seed, compare records."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_bytes.py"


def _tool(*argv):
    return subprocess.run([sys.executable, str(TOOL), *map(str, argv)], capture_output=True, text=True)


def _fixed_corpora(monkeypatch):
    """The tool's ``errors`` and ``formats`` records of this tree, recorded in this process."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # record puts the tree's dirs first
    spec = importlib.util.spec_from_file_location("cli_bytes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool, tool.record(ROOT, [])


def test_the_error_corpus_is_fixed_and_every_call_exits_in_band(monkeypatch):
    tool, calls = _fixed_corpora(monkeypatch)
    calls = [c for c in calls if c["workload"] == "errors"]
    assert all(c["workload"] == "errors" and c["seed"] is None for c in calls)
    assert [c["index"] for c in calls] == list(range(len(calls)))
    targets = [*tool.ERROR_TARGETS]
    assert targets == [
        "bool_entry", "string_entry", "null_entry", "huge_integer", "nan_z", "fermion_z",
        "n_modes_half", "n_modes_true", "n_modes_zero", "unknown_kind", "missing_key",
        "unknown_key", "not_object", "bad_json", "not_positive", "fermion_flipped",
        "fermion_near_cut",
    ]
    options = [
        "tol x", "tol -1", "tol 0", "tol nan", "tol inf", "quad-steps x", "quad-steps 0",
        "quad-steps 3", "rk-steps x", "rk-steps 4", "rk-steps 2097152", "segments x", "segments 2",
    ]
    assert [c["label"] for c in calls] == [*targets, "batch", *options]
    for call in calls:
        assert type(call["exit"]) is int and call["exit"] in (2, 3), (call["label"], call["exit"])
        assert "<root>" not in call["stdout"] or "not valid JSON" in call["stdout"]
    # argparse rejects a value its type cannot parse, with exit 2 and nothing on stdout
    for call in calls:
        assert (call["stdout"] == "") == call["label"].endswith(" x"), call["label"]
    for call in calls[: len(targets)]:
        assert list(json.loads(call["stdout"])) == ["error"]
    # the batch reports each file's error as its own run does; of its two valid files, Omega
    # is C = 0 and the vacuum passes the boson check list beside not_positive, then meets
    # the fermion reference
    batch = {e["file"]: e for e in json.loads(calls[len(targets)]["stdout"])["results"]}
    assert batch.pop("form.json")["complexity"] == 0.0
    assert batch.pop("vacuum.json")["error"] == (
        "KindMismatch: reference kind StateKind.FERMION != target kind StateKind.BOSON"
    )
    for name, call in zip(targets, calls):
        single = json.loads(call["stdout"])["error"]
        assert batch[name + ".json"]["error"] == single.replace("<root>/", "<root>/batch/")
    assert calls[targets.index("fermion_flipped")]["stdout"] == (
        '{"error": "BranchCut: eigenvalue -1 encountered; target lies on the branch cut"}\n'
    )


def test_the_format_corpus_is_fixed_and_every_call_exits_0(monkeypatch):
    _, calls = _fixed_corpora(monkeypatch)
    calls = [c for c in calls if c["workload"] == "formats"]
    assert all(c["seed"] is None for c in calls)
    assert [c["index"] for c in calls] == list(range(len(calls)))
    assert [c["label"] for c in calls] == [
        "nonrev none", "nonrev const:0.3", "nonrev grad:h=0.2r+0.1r^2", "nonrev none --csv-out",
        "complexity", "coherent", "weyl linear:0.5", "weyl table",
        "nonrev origin grad:h=0.5r", "nonrev origin const:0.3",
    ]
    for call in calls:
        assert call["exit"] == 0, (call["label"], call["exit"])
    # the one --csv-out call also passes --format csv: the file it wrote is its stdout
    assert [c["label"] for c in calls if "files" in c] == ["nonrev none --csv-out"]
    assert calls[3]["files"] == {"<root>/path.csv": calls[3]["stdout"]}
    nonrev = calls[:4]
    for call in nonrev:
        rows = call["stdout"].splitlines()
        assert rows[0] == "tau,r,phi,cost_accumulated" and len(rows) == 66  # 64 steps and a header
    # writing the CSV to a file leaves it on stdout as it was; each potential costs the path its own
    assert nonrev[3]["stdout"] == nonrev[0]["stdout"]
    assert len({c["stdout"] for c in nonrev[:3]}) == 3
    for call in calls[4:7]:
        assert call["stdout"].startswith("key,value\ncomplexity,")
    assert json.loads(calls[7]["stdout"])["omega"] == "table:<root>/omega.csv"
    # README's dyadic launch from the origin, and a non-dyadic one on the ray phi = 0.7
    dyadic = json.loads(calls[8]["stdout"])
    assert (dyadic["forward_cost"], dyadic["reverse_cost"], dyadic["length"]) == (1.0, 3.0, 2.0)
    assert dyadic["samples"] == 257
    rows = [row.split(",") for row in calls[9]["stdout"].splitlines()[1:]]
    assert len(rows) == 101 and rows[0][:3] == ["0", "0", "0.69999999999999996"]
    assert all(row[2] == "0.69999999999999996" for row in rows)


def test_record_one_seed_and_compare(tmp_path, monkeypatch):
    out = tmp_path / "a.json"
    proc = _tool("record", ROOT, out, "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(out.read_text())
    # a crash is recorded as a "crash: ..." string: every call, under every label, exits in band
    for call in calls:
        assert type(call["exit"]) is int and call["exit"] in (0, 2, 3, 4), (
            call["workload"], call["index"], call["exit"]
        )
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    for name in workloads.WORKLOADS:
        expected = workloads.build(name, 1, tmp_path / name).calls
        recorded = [c for c in calls if c["workload"] == name]
        assert recorded and len(recorded) == len(expected)
        assert [c["index"] for c in recorded] == list(range(len(expected)))
        for call, spec in zip(recorded, expected):
            assert call["seed"] == 1 and call["argv"][0] == spec.argv[0]
        # each call with a reference is run again against the squeezed one, in the same argv
        again = [c for c in calls if c["workload"] == name + "@squeezed"]
        with_ref = [c for c in recorded if "--reference" in c["argv"]]
        assert again and [(c["seed"], c["index"], c["argv"]) for c in again] == [
            (c["seed"], c["index"], c["argv"]) for c in with_ref
        ]
        # the reference file was replaced: no call prints what it printed against the vacuum
        assert all(a["stdout"] != c["stdout"] for a, c in zip(again, with_ref))
        # each oracle call is run once more at the CLI's defaults, against the vacuum again
        defaults = [c for c in calls if c["workload"] == name + "@defaults"]
        oracle = [c for c in recorded if c["argv"][0] == "oracle-verify"]
        assert bool(oracle) == (name == "oracle")
        assert [(c["seed"], c["index"], c["argv"]) for c in defaults] == [
            (c["seed"], c["index"], c["argv"][: -len(workloads.ORACLE_ARGS)]) for c in oracle
        ]
        for default, bench in zip(defaults, oracle):
            assert "--segments" not in default["argv"] and "--restarts" not in default["argv"]
            at_defaults, at_bench = json.loads(default["stdout"]), json.loads(bench["stdout"])
            assert (at_defaults["segments"], at_defaults["restarts"]) == (16, 5)
            assert at_defaults["closed_form"] == at_bench["closed_form"]
    # the fixed corpora are recorded once, whatever the seeds, and the same in every record
    _, fixed = _fixed_corpora(monkeypatch)
    errors = [c for c in fixed if c["workload"] == "errors"]
    assert [c for c in calls if c["workload"] == "errors"] == errors
    assert [c for c in calls if c["workload"] == "formats"] == [
        c for c in fixed if c["workload"] == "formats"
    ]
    small = [c for c in calls if c["workload"] == "batch_small"]
    for call in small:
        assert call["argv"][0] == "complexity"
        assert all(str(tmp_path) not in a and "<root>/" in a for a in call["argv"][2::2])
        assert call["exit"] in (0, 2, 3)
        assert "results" in json.loads(call["stdout"])
    assert _tool("compare", out, out).returncode == 0

    # a changed number reports its relative change; a renamed key, the structure
    first, renamed, last = small[0], small[1], small[-1]
    before = first["stdout"].encode()
    key = b'"complexity": '
    at = before.index(key) + len(key)
    old = before[at : before.index(b",", at)].decode()
    new = repr(1.5 * float(old))
    first["stdout"] = first["stdout"].replace(key.decode() + old, key.decode() + new, 1)
    after = first["stdout"].encode()
    at += next(i for i, (p, q) in enumerate(zip(old, new)) if p != q)
    start = max(0, at - 20)
    rel = abs(float(new) - float(old)) / max(abs(float(new)), abs(float(old)))
    renamed_before = renamed["stdout"].encode()
    renamed["stdout"] = renamed["stdout"].replace('"complexity"', '"Complexity"', 1)
    renamed_at = renamed_before.index(b'"complexity"') + 1
    renamed_start = max(0, renamed_at - 20)
    # a written file is compared as stdout is
    written = next(c for c in calls if "files" in c)
    (path, text), = written["files"].items()
    written["files"][path] = text.replace("\n", "\n\n", 1)
    written_at = text.index("\n") + 1
    written_start = max(0, written_at - 20)
    changed = tmp_path / "b.json"
    changed.write_text(json.dumps([c for c in calls if c is not last]))
    proc = _tool("compare", out, changed)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "batch_small seed=1 call=0 " + " ".join(first["argv"]) + f": stdout differs at byte {at}",
        f"  a: {before[start : start + 40]!r}",
        f"  b: {after[start : start + 40]!r}",
        f"  largest relative change {rel:.3g} at $.results[0].complexity",
        "batch_small seed=1 call=1 " + " ".join(renamed["argv"]) + f": stdout differs at byte {renamed_at}",
        f"  a: {renamed_before[renamed_start : renamed_start + 40]!r}",
        f"  b: {renamed['stdout'].encode()[renamed_start : renamed_start + 40]!r}",
        "  JSON structure differs at $.results[0]",
        f"batch_small seed=1 call={last['index']}: only in a",
        f"formats seed=None call={written['index']} " + " ".join(written["argv"])
        + f": {path} differs at byte {written_at}",
        f"  a: {text.encode()[written_start : written_start + 40]!r}",
        f"  b: {written['files'][path].encode()[written_start : written_start + 40]!r}",
        f"4 of {len(calls)} calls differ",
    ]
    # a file that only one record has is named, after the call's stdout difference
    one, other = tmp_path / "one.json", tmp_path / "other.json"
    one.write_text(json.dumps([written]))
    other.write_text(json.dumps([{**written, "stdout": "", "files": {}}]))
    proc = _tool("compare", one, other)
    assert proc.returncode == 1
    head = f"formats seed=None call={written['index']} " + " ".join(written["argv"])
    assert proc.stdout.splitlines() == [
        f"{head}: stdout differs at byte 0",
        f"  a: {written['stdout'].encode()[:40]!r}",
        "  b: b''",
        f"{head}: {path} only in a",
        "1 of 1 calls differ",
    ]
