"""In-process spans around the layers of gcomplexity, installed from outside.

Every public function of a library module is wrapped at each module that
holds its name, so a call is seen whichever namespace it goes through; the
public static methods of library classes (WeylFactor.tabulated, ...) are
wrapped on their class.  The dense numpy/scipy kernels are wrapped on
numpy.linalg and scipy.linalg.  Wrappers record only while an operation is
open, so the benchmark's own checks are not counted.

Spans are kept in memory as (name, start, end, parent, op) and written out
at the end; self time (a span's duration minus the part its children cover)
is accumulated per name as spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

PACKAGE = "gcomplexity"
LAYERS = (
    "cli",
    "phase_space",
    "complexity_core",
    "lie_numerics",
    "coherent",
    "variational_oracle",
    "modified_metrics",
)
NUMPY_LINALG = ("eigh", "eig", "eigvals", "svd", "lstsq", "solve", "inv", "det", "cholesky")
SCIPY_LINALG = ("schur", "expm")
EIGENSOLVES = ("eigh", "eig", "eigvals", "schur")
# spans beyond this many are aggregated but not kept individually
MAX_SPANS = 200_000


def _matrices(args, kwargs):
    shape = getattr(args[0] if args else kwargs.get("vs"), "shape", (1, 1))
    count = 1
    for s in shape[:-2]:
        count *= s
    return count


def _rk_steps(args, kwargs):
    return int(kwargs.get("rk_steps", args[4] if len(args) > 4 else 256))


# extra per-call counts recorded beside calls and self time (Stat.count)
COUNTERS = {
    "lie_numerics.matrix_exp_batch": _matrices,
    "modified_metrics.lorentz_geodesic": _rk_steps,
}


class Stat:
    __slots__ = ("calls", "self_s", "errors", "count")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.count = 0


class Tracer:
    """Wraps the library in place; uninstall() puts every original back."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.dropped = 0
        self.op = None
        self._stack = []  # open frames: [span index, start, child seconds]
        self._patched = []  # (owner, attribute, original, via __dict__)

    # ------------------------------------------------------------ spans

    def begin_op(self, op_id: int):
        self.op = op_id

    def end_op(self):
        self.op = None

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stats = self.stats.setdefault(name, Stat())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            if len(spans) < MAX_SPANS:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.op])
            else:
                index = -1
                self.dropped += 1
            frame = [index, clock(), 0.0]
            stack.append(frame)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats.calls += 1
                stats.self_s += duration - frame[2]
                stats.errors += failed
                if counter is not None:
                    stats.count += counter(args, kwargs)
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    spans[index][1] = frame[1]
                    spans[index][2] = end

        return traced

    # ------------------------------------------------------------ install

    def _targets(self):
        """(owner, attribute, original, span name, via __dict__) to wrap."""
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        by_module = {m.__name__: layer for layer, m in modules.items()}
        holders = [importlib.import_module(PACKAGE), *modules.values()]
        for holder in holders:
            for attr, obj in sorted(vars(holder).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = by_module.get(obj.__module__)
                if layer is not None:
                    yield holder, attr, obj, f"{layer}.{obj.__name__}", False
        for layer, module in modules.items():
            for cname, cls in sorted(vars(module).items()):
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                for attr, obj in sorted(vars(cls).items()):
                    if isinstance(obj, staticmethod) and not attr.startswith("_"):
                        yield cls, attr, obj, f"{layer}.{cname}.{attr}", True
        import numpy.linalg
        import scipy.linalg

        for owner, names in ((numpy.linalg, NUMPY_LINALG), (scipy.linalg, SCIPY_LINALG)):
            for attr in names:
                yield owner, attr, getattr(owner, attr), f"linalg.{attr}", False

    def install(self):
        if self._patched:
            raise RuntimeError("a tracer installs once")
        wrappers = {}
        for owner, attr, original, name, static in list(self._targets()):
            fn = original.__func__ if static else original
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            wrapped = wrappers[id(fn)]
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            self._patched.append((owner, attr, original, static))

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every attribute this tracer wrapped holds its original."""
        return all(
            (vars(owner)[attr] if static else getattr(owner, attr)) is original
            for owner, attr, original, static in self._patched
        )

    # ------------------------------------------------------------ output

    def layer_self_seconds(self) -> dict:
        out = {}
        for name, stat in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + stat.self_s
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
