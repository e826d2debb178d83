"""Command-line front end.

Commands: complexity | coherent | weyl | nonrev | oracle-verify.
States are loaded from JSON files in the schema documented in
phase_space.parse_state_dict; a file is read as bytes by os.read, with
no file object, and decoded as UTF-8, with CRLF and CR line ends made
LF, which is what a text-mode read gives.  All floats are rendered with
17 significant digits so results round-trip exactly, and identical
inputs with the same seed produce byte-identical output.  A float array
is rendered by one % of a template cached per shape.

`complexity` runs one array program per group of targets of one kind
and N: the schema is checked file by file, then the group's matrices are
stacked and validated together (phase_space.state_stack), and decomposed
by one stacked eigh for either kind (complexity_core.relative_stack).  A
single --target is the one-file case of the same program, and --batch
reports each file's first error in-band, as the single-file run would
raise it; the two flags exclude each other, checked before the reference
is read.  The floats of a group's entries come from one tolist, and
each --batch entry is one % of a template cached per N.

Exit codes: 0 success, 2 numeric-domain error, 3 validation error,
4 oracle non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .coherent import coherent_complexity, coherent_geodesic
from .complexity_core import (
    complexity_from_relative,
    relative_complex_structure,
    relative_stack,
    state_complexity,
)
from .errors import DisplacementPresent, NumericDomainError, SchemaError, ValidationError
from .modified_metrics import (
    VectorPotential,
    WeylFactor,
    lorentz_geodesic,
    nonreversible_cost,
    nonreversible_cost_profile,
    path_length,
    weyl_complexity,
)
from .phase_space import StateKind, parse_state_dict, state_from_dict, state_stack
from .variational_oracle import minimize_to_target

EXIT_OK = 0
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3
EXIT_NO_CONVERGENCE = 4


# json.dumps of a str, without the encoder set-up; keys are strings
_quote = json.encoder.encode_basestring_ascii


@functools.lru_cache(maxsize=64)  # a few shapes per call
def _template(shape: tuple) -> str:
    """The %-template of a float array of this shape: one %.17g per entry, in JSON brackets."""
    text = "%.17g"
    for size in reversed(shape):
        text = "[" + ", ".join([text] * size) + "]"
    return text


@functools.lru_cache(maxsize=64)
def _entry_template(layout: tuple) -> str:
    """The %-template of a --batch entry: the file name, then each (key, shape) of layout."""
    return '{"file": %s' + "".join([f", {_quote(k)}: {_template(s)}" for k, s in layout]) + "}"


_ERROR_ENTRY = '{"file": %s, "error": %s}'


class _JSON(str):
    """Text that is already JSON: _render writes it as it is."""


def _render(obj) -> str:
    """Compact JSON with floats at 17 significant digits.

    Containers nest; a float array is formatted by one % of the
    template of its shape.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.size:
            return _template(obj.shape) % tuple(obj.ravel().tolist())
        obj = obj.tolist()
    if isinstance(obj, dict):
        return "{" + ", ".join([f"{_quote(k)}: {_render(v)}" for k, v in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_render(x) for x in obj]) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % float(obj)
    if isinstance(obj, str):
        return obj if type(obj) is _JSON else _quote(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj)!r}")


def _emit(payload: dict, fmt: str):
    if fmt == "csv":
        print("key,value")
        for k, v in payload.items():
            text = _render(v)
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            print(f"{k},{text}")
    else:
        print(_render(payload))


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _fail(exc: Exception) -> dict:
    return {"error": _error_text(exc)}


def _read_state_file(path: str):
    """The JSON in a state file, read as a text-mode read would: UTF-8, line ends made LF.

    The bytes come from os.open/os.read, without a file object: the
    first read asks for the file's size plus one byte, and reads go on
    until one returns nothing, so a pipe is read whole too.  os.read on a
    directory raises without the file name, so that error is raised again
    with it, as open() gives it.  The bytes are decoded here rather than
    by json.loads, which would guess their encoding; a BOM is kept, so
    json.loads rejects it.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = [os.read(fd, os.fstat(fd).st_size + 1)]
            while chunks[-1]:
                chunks.append(os.read(fd, io.DEFAULT_BUFFER_SIZE))
        except IsADirectoryError as exc:
            raise IsADirectoryError(exc.errno, exc.strerror, path)
        finally:
            os.close(fd)
        text = b"".join(chunks).decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read state file {path}: {exc}")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a 4301-digit integer, deep nesting
        raise SchemaError(f"state file {path} is not valid JSON: {exc}")


def _load_state(path: str, tol: float):
    return state_from_dict(_read_state_file(path), tol=tol)


def _parse_pair(text: str, what: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{what} must be two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"{what} must be numeric, got {text!r}")


_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TERM = re.compile(rf"^({_FLOAT})?\*?(r(?:\^(\d+))?)?$")
MAX_POLY_POWER = 64


def _parse_poly(text: str) -> np.ndarray:
    """Coefficients (by power) of a polynomial in r like '0.5r' or 'r^2-0.1r'."""
    s = text.replace(" ", "")
    if not s:
        raise ValidationError("empty polynomial")
    coeffs = {}
    for part in re.split(r"(?<![eE])(?=[+-])", s):
        if not part:
            continue
        sign = 1.0
        if part[0] in "+-":
            sign = -1.0 if part[0] == "-" else 1.0
            part = part[1:]
        m = _TERM.match(part)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValidationError(f"cannot parse polynomial term {part!r}")
        coef = float(m.group(1)) if m.group(1) else 1.0
        exponent = m.group(3) or ("1" if m.group(2) else "0")
        if len(exponent.lstrip("0")) > len(str(MAX_POLY_POWER)) or int(exponent) > MAX_POLY_POWER:
            raise ValidationError(f"polynomial powers are capped at r^{MAX_POLY_POWER}")
        power = int(exponent)
        coeffs[power] = coeffs.get(power, 0.0) + sign * coef
    out = np.zeros(max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return out


def _parse_omega(spec: str) -> WeylFactor:
    """Weyl factor grammar: const:c | linear:beta | table:file.csv."""
    head, _, arg = spec.partition(":")
    if head == "const":
        try:
            return WeylFactor.constant(float(arg))
        except ValueError:
            raise ValidationError(f"const factor needs a number, got {arg!r}")
    if head == "linear":
        try:
            return WeylFactor.linear(float(arg))
        except ValueError:
            raise ValidationError(f"linear factor needs a number, got {arg!r}")
    if head == "table":
        try:
            rows = [
                line.split(",")
                for line in Path(arg).read_text(encoding="utf-8-sig").strip().splitlines()
                if line.strip()
            ]
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read table file {arg}: {exc}")
        try:
            float(rows[0][0])
        except (ValueError, IndexError):
            rows = rows[1:]
        try:
            data = np.array([[float(c) for c in row[:2]] for row in rows])
            r_values, omega_values = data[:, 0], data[:, 1]
        except (ValueError, IndexError):
            raise ValidationError(f"table file {arg} must hold r,omega rows")
        return WeylFactor.tabulated(r_values, omega_values)
    raise ValidationError(
        f"unknown omega spec {spec!r}; use const:c, linear:beta or table:file.csv"
    )


def _parse_potential(spec: str) -> VectorPotential:
    """Potential grammar: none | const:f0 | grad:h=<poly>."""
    if spec == "none":
        return VectorPotential.none()
    head, _, arg = spec.partition(":")
    if head == "const":
        try:
            return VectorPotential.constant(float(arg))
        except ValueError:
            raise ValidationError(f"const potential needs a number, got {arg!r}")
    if head == "grad":
        if not arg.startswith("h="):
            raise ValidationError("gradient potential must be written grad:h=<poly>")
        return VectorPotential.gradient(_parse_poly(arg[2:]))
    raise ValidationError(
        f"unknown potential spec {spec!r}; use none, const:f0 or grad:h=<poly>"
    )


def _delta_eigenvalues(pencil) -> np.ndarray:
    """Eigenvalues of Delta as [re, im] rows, by descending re, then im.

    Shape (..., 2N, 2), with the leading axis of a stacked pencil.  Bosons:
    e^s from the pencil log-spectrum.  Fermions: e^{+-i theta} from the
    rotation angles.  An angle within 1e-12 of the one below it is set
    equal to it, so a repeated angle lists all its +sin pairs before its
    -sin pairs instead of an order set by rounding noise.
    """
    if pencil.kind is StateKind.BOSON:
        re = np.sort(np.exp(pencil.logs), axis=-1)[..., ::-1]
        im = np.zeros_like(re)
    else:
        angles = np.sort(pencil.radial_exponents, axis=-1)
        for i in range(1, angles.shape[-1]):
            tie = angles[..., i] - angles[..., i - 1] <= 1e-12
            angles[..., i] = np.where(tie, angles[..., i - 1], angles[..., i])
        c, s = np.cos(angles), np.sin(angles)
        re = np.repeat(c, 2, axis=-1)
        im = np.stack([s, 0.0 - s], axis=-1).reshape(re.shape)  # 0.0 - s: no -0 at theta = 0
        order = np.lexsort((-im, -re), axis=-1)
        re, im = np.take_along_axis(re, order, -1), np.take_along_axis(im, order, -1)
    return np.stack([re, im], axis=-1)


def _group_results(reference, kind, sigmas, displaced, tol) -> list:
    """(layout, row) or error for each target of one kind and N, the same as one run each.

    displaced flags the targets with a nonzero z.  One StateStack takes
    each target's first error, from the checks, z or the pencil.  layout
    is the payload's (key, shape) pairs in output order, and row the
    target's floats in that order, row-major, from one tolist.
    """
    states = state_stack(kind, sigmas, tol)
    states.require(
        ~displaced[states.index],
        lambda k: DisplacementPresent(
            "complexity requires zero displacements; use the coherent command "
            "for displaced targets"
        ),
    )
    try:
        pencil = relative_stack(reference, kind, states)
    except (ValidationError, NumericDomainError) as exc:  # the whole group: the reference
        states.require(np.zeros(len(states.index), dtype=bool), lambda k: exc)
    results = states.errors
    if not len(states.index):  # every target failed
        return results
    fields = {
        "complexity": complexity_from_relative(pencil),
        "generator": 0.5 * pencil.log_delta,
        "delta_eigenvalues": _delta_eigenvalues(pencil),
    }
    layout = tuple((key, a.shape[1:]) for key, a in fields.items())
    rows = np.concatenate([a.reshape(len(a), -1) for a in fields.values()], axis=1).tolist()
    for i, row in zip(states.index, rows):
        results[i] = (layout, row)
    return results


def _complexity_results(reference, paths, tol) -> list:
    """(layout, row) (_group_results) or error for each target file.

    Files are read and schema-checked one by one, keeping of each z only
    whether it is nonzero; then each group of one kind and N runs as one
    stack (_group_results).
    """
    results = [None] * len(paths)
    groups = {}
    for i, path in enumerate(paths):
        try:
            kind, sigma, z = parse_state_dict(_read_state_file(path))
        except ValidationError as exc:
            results[i] = exc
        else:
            displaced = z is not None and bool(z.any())
            groups.setdefault((kind, sigma.shape), []).append((i, sigma, displaced))
    for (kind, _), members in groups.items():
        index, sigmas, displaced = zip(*members)
        group = _group_results(reference, kind, np.array(sigmas), np.array(displaced), tol)
        for i, result in zip(index, group):
            results[i] = result
    return results


def cmd_complexity(args) -> int:
    if args.target is not None and args.batch is not None:
        raise ValidationError("either --target or --batch is required, not both")
    if not (args.batch or args.target):
        raise ValidationError("either --target or --batch is required")
    reference = _load_state(args.reference, args.tol)
    if not args.batch:
        (result,) = _complexity_results(reference, [args.target], args.tol)
        if isinstance(result, Exception):
            raise result
        layout, row = result
        ends = np.cumsum([np.prod(shape, dtype=int) for _, shape in layout])
        parts = np.split(np.array(row), ends[:-1])
        _emit({key: p.reshape(shape) for (key, shape), p in zip(layout, parts)}, args.format)
        return EXIT_OK
    base = str(Path(args.batch))
    if not os.path.isdir(base):
        raise ValidationError(f"batch path {args.batch} is not a directory")
    try:
        names = sorted(n for n in os.listdir(base) if n.endswith(".json"))
    except OSError as exc:
        raise ValidationError(f"cannot list batch directory {args.batch}: {exc}")
    if not names:
        raise ValidationError(f"no .json files in {args.batch}")
    # the paths Path.glob gave, which error messages quote: bare names under "."
    prefix = "" if base == "." else os.path.join(base, "")
    paths = [prefix + n for n in names]
    entries = []
    worst = EXIT_OK
    for name, result in zip(names, _complexity_results(reference, paths, args.tol)):
        if isinstance(result, Exception):
            code = EXIT_NUMERIC if isinstance(result, NumericDomainError) else EXIT_VALIDATION
            worst = worst or code
            entries.append(_ERROR_ENTRY % (_quote(name), _quote(_error_text(result))))
        else:
            layout, row = result
            entries.append(_entry_template(layout) % (_quote(name), *row))
    _emit({"results": _JSON("[" + ", ".join(entries) + "]")}, args.format)
    return worst


def cmd_coherent(args) -> int:
    reference = _load_state(args.reference, args.tol)
    target = _load_state(args.target, args.tol)
    geo = coherent_geodesic(reference, target)
    payload = {
        "complexity": coherent_complexity(geo),
        "generator": 0.5 * geo.delta.log_delta,
        "delta_eigenvalues": _delta_eigenvalues(geo.delta),
        "z_target": geo.z_target,
        "N_matrix": geo.n_matrix,
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_weyl(args) -> int:
    reference = _load_state(args.reference, args.tol)
    target = _load_state(args.target, args.tol)
    factor = _parse_omega(args.omega)
    base = state_complexity(reference, target)
    deformed = weyl_complexity(base, factor, args.quad_steps)
    payload = {
        "complexity": deformed,
        "base_complexity": base,
        "omega": args.omega,
        "quad_steps": args.quad_steps,
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_nonrev(args) -> int:
    r0, phi0 = _parse_pair(args.start, "--start")
    vr0, vphi0 = _parse_pair(args.velocity, "--velocity")
    potential = _parse_potential(args.potential)
    if args.length <= 0.0:
        raise ValidationError("--length must be positive")
    path = lorentz_geodesic(
        (r0, phi0), (vr0, vphi0), potential, length=args.length, rk_steps=args.rk_steps
    )
    forward = nonreversible_cost(path, a=potential)
    reverse = nonreversible_cost(path.reversed(), a=potential)
    length = path_length(path)
    if args.csv_out or args.format == "csv":  # one formatted row per sample: only on request
        profile = nonreversible_cost_profile(path, a=potential)
        rows = ["tau,r,phi,cost_accumulated"]
        for tau, (r, phi), cost in zip(path.params, path.samples, profile):
            rows.append(f"{tau:.17g},{r:.17g},{phi:.17g},{cost:.17g}")
        csv_text = "\n".join(rows) + "\n"
        if args.csv_out:
            try:
                Path(args.csv_out).write_text(csv_text)
            except OSError as exc:
                raise ValidationError(f"cannot write CSV file {args.csv_out}: {exc}")
        if args.format == "csv":
            sys.stdout.write(csv_text)
            return EXIT_OK
    payload = {
        "forward_cost": forward,
        "reverse_cost": reverse,
        "length": length,
        "potential": args.potential,
        "rk_steps": args.rk_steps,
        "samples": len(path.params),
    }
    if args.csv_out:
        payload["csv_path"] = args.csv_out
    _emit(payload, args.format)
    return EXIT_OK


def cmd_oracle_verify(args) -> int:
    reference = _load_state(args.reference, args.tol)
    target = _load_state(args.target, args.tol)
    if np.any(target.z != 0.0):
        geo = coherent_geodesic(reference, target)
        closed = coherent_complexity(geo)
    else:
        closed = complexity_from_relative(relative_complex_structure(reference, target))
    path, oracle_len = minimize_to_target(
        reference,
        target,
        segments=args.segments,
        restarts=args.restarts,
        seed=args.seed,
    )
    if closed > 1e-12:
        gap = (oracle_len - closed) / closed
    else:
        gap = 0.0 if oracle_len < 1e-9 else float("inf")
    payload = {
        "closed_form": closed,
        "oracle_length": oracle_len,
        "relative_gap": gap,
        "converged": path.converged,
        "constraint_residual": path.constraint_residual,
        "segments": args.segments,
        "restarts": args.restarts,
        "seed": args.seed,
    }
    _emit(payload, args.format)
    return EXIT_OK if path.converged else EXIT_NO_CONVERGENCE


@functools.cache  # built by the first main call, reused by the rest
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-10, help="validation tolerance")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    parser = argparse.ArgumentParser(
        prog="gcx",
        description="Geometric circuit complexity of pure Gaussian states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "complexity", parents=[common], help="closed-form complexity between two states"
    )
    p.add_argument("--reference", required=True, help="reference state JSON file")
    p.add_argument("--target", help="target state JSON file")
    p.add_argument("--batch", help="directory of target JSON files")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser(
        "coherent", parents=[common], help="complexity of a displaced bosonic target"
    )
    p.add_argument("--reference", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_coherent)

    p = sub.add_parser(
        "weyl", parents=[common], help="complexity under a Weyl-deformed metric"
    )
    p.add_argument("--reference", required=True)
    p.add_argument("--target", required=True)
    p.add_argument(
        "--omega", required=True, help="factor spec: const:c | linear:beta | table:file.csv"
    )
    p.add_argument("--quad-steps", type=int, default=128, help="Simpson intervals")
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser(
        "nonrev", parents=[common], help="non-reversible cost along a Lorentz geodesic"
    )
    p.add_argument("--start", required=True, help="start point 'r,phi'")
    p.add_argument(
        "--velocity",
        required=True,
        help="initial velocity 'vr,vphi'; write a negative vr as --velocity=-1,0",
    )
    p.add_argument(
        "--potential", default="none", help="spec: none | const:f0 | grad:h=<poly>"
    )
    p.add_argument("--length", type=float, default=1.0, help="arc length to integrate")
    p.add_argument("--rk-steps", type=int, default=256, help="RK4 step count")
    p.add_argument("--csv-out", help="write path samples CSV to this file")
    p.set_defaults(func=cmd_nonrev)

    p = sub.add_parser(
        "oracle-verify", parents=[common], help="variational check of the closed form"
    )
    p.add_argument("--reference", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--segments", type=int, default=16, help="path segments")
    p.add_argument("--restarts", type=int, default=5, help="optimizer restarts")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(func=cmd_oracle_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not (np.isfinite(args.tol) and args.tol > 0.0):
        need = "positive" if np.isfinite(args.tol) else "finite"
        _emit(_fail(ValidationError(f"--tol must be {need}")), "json")
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except ValidationError as exc:
        _emit(_fail(exc), "json")
        return EXIT_VALIDATION
    except NumericDomainError as exc:
        _emit(_fail(exc), "json")
        return EXIT_NUMERIC


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
