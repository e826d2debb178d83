import ast
import builtins
import copy
import dataclasses
import importlib
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import gcomplexity
from gcomplexity import (
    DiscretizedPath,
    GaussianComplexityError,
    GaussianState,
    GroupPath,
    LieAlgebra,
    LieAlgebraElement,
    StateKind,
    StationarityReport,
    apply_transformation,
    coherent_geodesic,
    reference_state,
    relative_complex_structure,
    single_mode_squeezing,
    stabilizer_basis,
)
from gcomplexity.phase_space import state_stack
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
    # sigma_R is whitened once, in spd_pencil_stack; nothing exported takes a metric override
    for name in gcomplexity.__all__:
        obj = getattr(gcomplexity, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        assert not {"sigma_R", "metric"} & set(params), name


def _unused_imports(path):
    """Names a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(gcomplexity.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_module_imports_are_used(path):
    # __init__ imports only to re-export, so it is left out
    assert _unused_imports(path) == []


# exported functions that nothing in src/ calls: the acceptance criteria's
# constructions and checks, and the state-file writer
NO_SRC_CALLER = {
    "apply_transformation",
    "check_stabilizer_geodesic",
    "inner_product_identity",
    "reference_state",
    "single_mode_squeezing",
    "stabilizer_basis",
    "state_to_dict",
}


def _names_read(path):
    """Every name a module reads, as a bare name or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


# public members of exported classes that nothing in src/ reads: the acceptance
# criteria read them (criterion 9 StationarityReport.passed, criterion 7 the ripple)
NO_SRC_READER = {"StationarityReport.passed", "VectorPotential.ripple"}


def _public_members(cls):
    """A class's own public methods, properties, static constructors and dataclass fields."""
    members = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    kinds = (property, staticmethod, classmethod, types.FunctionType)
    return members | {n for n, a in vars(cls).items() if not n.startswith("_") and isinstance(a, kinds)}


def test_every_exported_function_has_a_caller_in_src():
    # library code with no caller in src/ or the CLI is deleted; the lists
    # above are exactly what is kept without one, functions and class members
    read = set()
    for path in Path(gcomplexity.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            read |= _names_read(path)
    exported = {name: getattr(gcomplexity, name) for name in gcomplexity.__all__}
    functions = {f.__name__ for f in exported.values() if inspect.isfunction(f)}
    assert sorted(functions - read) == sorted(NO_SRC_CALLER)
    members = {
        f"{name}.{member}"
        for name, cls in exported.items()
        if inspect.isclass(cls) and not issubclass(cls, Exception)
        for member in _public_members(cls)
    }
    assert sorted(m for m in members if m.partition(".")[2] not in read) == sorted(NO_SRC_READER)


# raises in src/ of a class outside GaussianComplexityError: a programming error,
# and an OSError raised again with its file name, which the outer except wraps
NOT_LIBRARY_ERRORS = {
    ("cli.py", "_render", "TypeError"),
    ("cli.py", "_read_state_file", "IsADirectoryError"),
}


def _raised_classes(tree):
    """(enclosing function, class) of each ``raise C(...)`` in a module; re-raises are skipped."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                found.append((function, ast.unparse(child.exc.func)))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(tree, None)
    return found


def test_src_raises_only_library_errors():
    raised = set()
    for path in sorted(Path(gcomplexity.__file__).parent.glob("*.py")):
        found = _raised_classes(ast.parse(path.read_text(encoding="utf-8")))
        if not found:  # __main__ runs the CLI when imported
            continue
        namespace = vars(importlib.import_module(f"gcomplexity.{path.stem}"))
        for function, name in found:
            cls = namespace.get(name, getattr(builtins, name, None))
            if not (isinstance(cls, type) and issubclass(cls, GaussianComplexityError)):
                raised.add((path.name, function, name))
    assert raised == NOT_LIBRARY_ERRORS


# one instance of each value class that holds arrays
VACUUM = reference_state(StateKind.BOSON, 1)
VALUE_CLASSES = {
    "GaussianState": lambda: reference_state(StateKind.BOSON, 1),
    "GaussianTransformation": lambda: single_mode_squeezing(0.4, 0.3),
    "StateStack": lambda: state_stack(StateKind.BOSON, np.eye(2)[None]),
    "LieAlgebraElement": lambda: LieAlgebraElement(np.zeros((2, 2)), LieAlgebra.SP),
    "StabilizerBasis": lambda: stabilizer_basis(VACUUM),
    "SpdPencil": lambda: relative_complex_structure(
        VACUUM, apply_transformation(VACUUM, single_mode_squeezing(0.4, 0.3))
    ),
    "CoherentGeodesic": lambda: coherent_geodesic(
        VACUUM, GaussianState(VACUUM.j, StateKind.BOSON, z=[0.5, 0.1])
    ),
    "GroupPath": lambda: GroupPath(np.zeros((4, 2, 2)), StateKind.BOSON),
    "StationarityReport": lambda: StationarityReport(np.zeros(3), 1e-6),
    "DiscretizedPath": lambda: DiscretizedPath([[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0]),
}


@pytest.mark.parametrize("make", VALUE_CLASSES.values(), ids=VALUE_CLASSES.keys())
def test_value_classes_compare_and_hash_by_identity(make):
    # by identity: a field-wise __eq__ over ndarray fields raises on ==, hash() and `in`
    a = make()
    assert a == a
    assert a != copy.copy(a)
    assert a in [copy.copy(a), a]
    assert isinstance(hash(a), int)
    assert {a: 1}[a] == 1


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
            tmp_path, "ft.json", "fermion", gcomplexity.matrix_exp_batch((b + jr @ b @ jr)[None])[0] @ jr
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
        ["complexity", "--reference", "fref", "--target", "ft"],
    ],
    ids=["complexity", "coherent", "weyl", "nonrev", "oracle-verify", "fermion"],
)
def test_boson_commands_leave_scipy_out(files, argv):
    # fermion complexity too: the rotation pencil needs numpy only
    out, probe = _fresh_main(*(files.get(a, a) for a in argv))
    assert probe["exit"] == 0
    assert len(out) == 1 and "error" not in json.loads(out[0])
    assert probe["scipy"] == []


@pytest.mark.parametrize(
    "argv",
    [["weyl", "--reference", "vac", "--target", "sq", "--omega", "table:"]],
    ids=["weyl-table"],
)
def test_scipy_routes_still_run_in_a_fresh_interpreter(files, argv):
    out, probe = _fresh_main(*(files.get(a, a) for a in argv))
    assert probe["exit"] == 0
    assert json.loads(out[0])["complexity"] > 0.0
