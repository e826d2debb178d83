import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

import gcomplexity
from helpers import src_first_env

# Runs cli.main in a fresh interpreter and reports, as its last stdout line,
# the exit code and every scipy module loaded by then.  The suite itself
# imports scipy, so this cannot be checked in-process.
_PROBE = """
import json, sys
from gcomplexity.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else None
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"exit": code, "scipy": loaded}))
"""


def test_all_exports_resolve():
    for name in gcomplexity.__all__:
        assert getattr(gcomplexity, name) is not None


def test_all_has_no_duplicates():
    names = list(gcomplexity.__all__)
    assert len(names) == len(set(names))


def test_only_the_pencil_takes_a_metric():
    # sigma_R is whitened once, in spd_pencil; nothing else takes a metric override
    for name in gcomplexity.__all__:
        obj = getattr(gcomplexity, name)
        if name == "spd_pencil" or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        assert not {"sigma_R", "metric"} & set(params), name


def _fresh_main(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=src_first_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _state(tmp_path, name, kind, sigma, z=None):
    payload = {"kind": kind, "n_modes": len(sigma) // 2, "sigma": np.asarray(sigma).tolist()}
    if z is not None:
        payload["z"] = z
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def files(tmp_path):
    r = 0.6
    squeeze = [[np.exp(2 * r), 0.0], [0.0, np.exp(-2 * r)]]
    jr = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    b = np.zeros((4, 4))
    b[0, 2], b[2, 0] = 0.3, -0.3
    table = tmp_path / "omega.csv"
    table.write_text("r,omega\n0,0\n1,0.5\n2,1\n")
    return {
        "vac": _state(tmp_path, "vac.json", "boson", np.eye(2)),
        "sq": _state(tmp_path, "sq.json", "boson", squeeze),
        "coh": _state(tmp_path, "coh.json", "boson", squeeze, z=[0.3, -0.4]),
        "fref": _state(tmp_path, "fref.json", "fermion", jr),
        "ft": _state(
            tmp_path, "ft.json", "fermion", gcomplexity.matrix_exp(b + jr @ b @ jr) @ jr
        ),
        "table:": f"table:{table}",
    }


def test_import_leaves_scipy_out():
    _, probe = _fresh_main()
    assert probe["scipy"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["complexity", "--reference", "vac", "--target", "sq"],
        ["coherent", "--reference", "vac", "--target", "coh"],
        ["weyl", "--reference", "vac", "--target", "sq", "--omega", "linear:0.5"],
        ["nonrev", "--start", "0.5,0", "--velocity", "1,0", "--length", "0.5"],
        [
            "oracle-verify", "--reference", "vac", "--target", "sq",
            "--segments", "4", "--restarts", "1",
        ],
    ],
    ids=lambda argv: argv[0],
)
def test_boson_commands_leave_scipy_out(files, argv):
    out, probe = _fresh_main(*(files.get(a, a) for a in argv))
    assert probe["exit"] == 0
    assert len(out) == 1 and "error" not in json.loads(out[0])
    assert probe["scipy"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["complexity", "--reference", "fref", "--target", "ft"],
        ["weyl", "--reference", "vac", "--target", "sq", "--omega", "table:"],
    ],
    ids=["fermion", "weyl-table"],
)
def test_scipy_routes_still_run_in_a_fresh_interpreter(files, argv):
    out, probe = _fresh_main(*(files.get(a, a) for a in argv))
    assert probe["exit"] == 0
    assert json.loads(out[0])["complexity"] > 0.0
