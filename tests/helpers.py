"""Shared construction helpers for the test suite."""

import json
import os
from pathlib import Path

import numpy as np

from gcomplexity import (
    GaussianState,
    GaussianTransformation,
    StateKind,
    algebra_basis,
    algebra_of_kind,
    apply_transformation,
    matrix_exp,
    reference_state,
)


def random_with_norm1(rng, norms, d: int) -> np.ndarray:
    """Random d x d matrices, one per entry of norms, each at that ||.||_1 (max column sum)."""
    norms = np.asarray(norms, dtype=float)
    vs = rng.normal(size=norms.shape + (d, d))
    return vs * (norms / np.abs(vs).sum(axis=-2).max(axis=-1))[..., None, None]


def random_algebra_matrix(kind: StateKind, n_modes: int, rng, scale: float = 0.5):
    basis = algebra_basis(algebra_of_kind(kind), n_modes)
    coeff = rng.normal(scale=scale, size=len(basis))
    return sum(c * b.v for c, b in zip(coeff, basis))


def random_transformation(kind: StateKind, n_modes: int, rng, scale: float = 0.5):
    m = matrix_exp(random_algebra_matrix(kind, n_modes, rng, scale))
    return GaussianTransformation(None, m, kind)


def random_target(kind: StateKind, n_modes: int, rng, scale: float = 0.5):
    ref = reference_state(kind, n_modes)
    return apply_transformation(ref, random_transformation(kind, n_modes, rng, scale))


def displaced_target(n_modes: int, rng, scale: float = 0.5):
    t = random_target(StateKind.BOSON, n_modes, rng, scale)
    return GaussianState(t.j, rng.normal(scale=1.0, size=2 * n_modes))


def passive(rng, n_modes: int) -> np.ndarray:
    """Random orthogonal symplectic matrix in (Q1, P1, ..., QN, PN) order."""
    a = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    q, r = np.linalg.qr(a)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    block = np.block([[u.real, -u.imag], [u.imag, u.real]])
    perm = np.stack([np.arange(n_modes), n_modes + np.arange(n_modes)], axis=1).ravel()
    return block[np.ix_(perm, perm)]


def src_first_env() -> dict:
    """os.environ with the absolute src first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def reference_render(obj) -> str:
    """The CLI's JSON renderer as it was before float rows were joined at once:
    one recursive call per element.  Kept as the byte-for-byte reference."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        return reference_render(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_render(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {reference_render(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot render {type(obj)!r}")
