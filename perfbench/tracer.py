"""Outside-in per-layer tracing of the `thermohf` package.

A layer is one module of the package. The tracer wraps every function the
module lists in `__all__` and rebinds every `thermohf.*` module global that
refers to the same object, since the modules import each other's names
with `from .x import y`. Each call becomes a span on a stack; a span's self
time is its duration minus the time of the spans it contains. Totals are
kept per op in memory.

Only public names are wrapped, and layers or hooked functions that do not
exist are reported as absent rather than failing, so the trace stays
valid when modules are merged, renamed or deleted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "thermohf"
LAYERS = (
    "cli", "sweep", "ensemble", "numdiff", "jacobi",
    "models.lipkin", "models.ho", "models.ising", "oracles", "verify",
)
# Functions whose arguments or results feed a layer's extra counters.
HOOKED = {
    "sweep": ("rows_to_csv", "rows_to_json"),
    "jacobi": ("jacobi_eigen",),
    "models.lipkin": ("lipkin_levels_with_h1", "build_block"),
    "oracles": ("ising_enumerate", "lipkin_fock"),
}
_ENGINE = ("ensemble", "models.")  # layers whose calls numdiff.evals counts
_MAXIMA = ("jacobi.order_max", "oracles.fock_dim_max")


def metric_names():
    """Every per-layer metric the tracer reports, with its unit.

    All are means per op, except the two maxima, which are over the run.
    """
    names = {}
    for layer in LAYERS:
        names[f"{layer}.calls"] = "count/op"
        names[f"{layer}.self_s"] = "s/op"
    names.update({
        "sweep.serialize_s": "s/op", "sweep.bytes_out": "bytes/op", "sweep.rows": "count/op",
        "ensemble.level_evals": "count/op",
        "numdiff.evals": "count/op",
        "jacobi.order_max": "count", "jacobi.n3_sum": "count/op",
        "jacobi.self_s.order_le16": "s/op", "jacobi.self_s.order_17_64": "s/op",
        "jacobi.self_s.order_gt64": "s/op",
        "models.lipkin.spectra": "count/op", "models.lipkin.redundant_spectra": "count/op",
        "models.lipkin.blocks": "count/op",
        "oracles.fock_dim_max": "count", "oracles.configs_enumerated": "count/op",
        "verify.checks": "count/op", "verify.checks_failed": "count/op",
    })
    return names


def _is_engine(layer: str | None) -> bool:
    return layer is not None and layer.startswith(_ENGINE)


def _find(args, attr):
    return next((a for a in args if hasattr(a, attr)), None)


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        n = 1
        for d in shape:
            n *= d
        return n
    try:
        return len(x)
    except TypeError:
        return 1


class Tracer:
    """Span wrappers for the package's public functions, installed on demand."""

    def __init__(self):
        self.absent: list[str] = []
        self.counts: Counter = Counter()  # totals of the current op
        self._stack: list[list] = []  # [layer, child seconds] per open span
        self._numdiff_depth = 0
        self._seen_spectra: set = set()
        self._originals = {}  # id(function) -> function
        self._wrappers = {}  # id(function) -> its traced wrapper
        self._rebound: list[tuple] = []  # (module, attribute, original)
        for layer in LAYERS:
            modname = f"{PACKAGE}.{layer}"
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(modname)
                continue
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and id(fn) not in self._originals:
                    owner = fn.__module__.removeprefix(f"{PACKAGE}.")
                    self._originals[id(fn)] = fn
                    self._wrappers[id(fn)] = self._wrap(owner if owner in LAYERS else layer,
                                                        name, fn)
            for name in HOOKED.get(layer, ()):
                if not inspect.isfunction(getattr(module, name, None)):
                    self.absent.append(f"{modname}.{name}")

    def install(self) -> None:
        """Point every package global that names a traced function at its wrapper."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith(PACKAGE):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in self._originals and self._originals[id(value)] is value:
                    setattr(module, attr, self._wrappers[id(value)])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def begin_op(self) -> None:
        self.counts = Counter()
        self._stack.clear()
        self._numdiff_depth = 0
        self._seen_spectra.clear()

    def _wrap(self, layer: str, name: str, fn):
        calls_key, self_key = f"{layer}.calls", f"{layer}.self_s"
        engine = _is_engine(layer)
        numdiff = layer == "numdiff"
        enter, leave = self._hooks(layer, name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_layer = parent[0] if parent else None
            if engine and self._numdiff_depth and not _is_engine(parent_layer):
                self.counts["numdiff.evals"] += 1
            if enter:
                enter(parent_layer, args, kwargs)
            frame = [layer, 0.0]  # layer, seconds spent in child spans
            stack.append(frame)
            self._numdiff_depth += numdiff
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._numdiff_depth -= numdiff
                stack.pop()
                if parent:
                    parent[1] += elapsed
                self.counts[calls_key] += 1
                self.counts[self_key] += elapsed - frame[1]
            if leave:
                leave(parent_layer, args, result, elapsed, elapsed - frame[1])
            return result

        return traced

    def _hooks(self, layer: str, name: str):
        """(on-enter, on-exit) counter hooks for one traced function, or None."""
        enter = {
            "build_block": self._count_block,
            "lipkin_levels_with_h1": self._count_spectrum,
            "ising_enumerate": self._count_enumeration,
            "lipkin_fock": self._count_fock,
        }.get(name)
        if layer == "ensemble":
            enter = self._count_levels
        leave = {"jacobi": self._count_eigensolve, "verify": self._count_checks}.get(layer)
        if layer == "sweep" and name in HOOKED["sweep"]:
            leave = self._count_serialization
        return enter, leave

    def _count_levels(self, parent_layer, args, kwargs):
        spectrum, point = _find(args, "energies"), _find(args, "beta")
        if parent_layer != "ensemble" and spectrum is not None:
            temps = _size(point.beta) if point is not None else 1
            self.counts["ensemble.level_evals"] += _size(spectrum.energies) * temps

    def _count_block(self, parent_layer, args, kwargs):
        self.counts["models.lipkin.blocks"] += 1

    def _count_spectrum(self, parent_layer, args, kwargs):
        self.counts["models.lipkin.spectra"] += 1
        if args:
            key = (args[0], args[1] if len(args) > 1 else kwargs.get("lam", 1.0))
            if key in self._seen_spectra:
                self.counts["models.lipkin.redundant_spectra"] += 1
            self._seen_spectra.add(key)

    def _count_enumeration(self, parent_layer, args, kwargs):
        chain = _find(args, "n_spins")
        if chain is not None:
            self.counts["oracles.configs_enumerated"] += 2**chain.n_spins

    def _count_fock(self, parent_layer, args, kwargs):
        model = _find(args, "n_particles")
        if model is not None:
            c = self.counts
            c["oracles.fock_dim_max"] = max(c["oracles.fock_dim_max"], 2**model.n_particles)

    def _count_eigensolve(self, parent_layer, args, result, elapsed, self_s):
        if not args or len(getattr(args[0], "shape", ())) != 2:
            return
        order = args[0].shape[0]
        c = self.counts
        c["jacobi.order_max"] = max(c["jacobi.order_max"], order)
        c["jacobi.n3_sum"] += order**3
        bucket = "le16" if order <= 16 else "17_64" if order <= 64 else "gt64"
        c[f"jacobi.self_s.order_{bucket}"] += self_s

    def _count_serialization(self, parent_layer, args, result, elapsed, self_s):
        if isinstance(result, str) and args:
            c = self.counts
            c["sweep.serialize_s"] += elapsed
            c["sweep.bytes_out"] += len(result.encode())
            c["sweep.rows"] += _size(args[0])

    def _count_checks(self, parent_layer, args, result, elapsed, self_s):
        if parent_layer != "verify" and isinstance(result, list):
            self.counts["verify.checks"] += len(result)
            self.counts["verify.checks_failed"] += sum(
                not getattr(r, "passed", True) for r in result
            )


def summarize(per_op: list[Counter]) -> dict:
    """Per-op means of every counter, except the maxima, which are over all ops."""
    n = max(1, len(per_op))
    out = {}
    for name in metric_names():
        values = [c.get(name, 0) for c in per_op]
        out[name] = max(values, default=0) if name in _MAXIMA else sum(values) / n
    return out
