"""Per-layer tracing installed from outside the library.

`install(tracer)` replaces every public function of the eight growthlab layer
modules with a wrapper that records a span (name, start, end, parent, op id)
while the tracer is active. Each function is rebound everywhere it is bound:
in its own module, in every module that took it with `from .x import`, in
the package namespace, and in module-level dicts such as
`verify._SUITE_FNS`. `uninstall` puts every original back.

A span's self time is its duration minus the durations of its direct
children. Counter hooks (matrix shapes, entry sizes, element counts) run
after the span has closed and are charged to no layer, so their cost shows
up only in the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

LAYERS = ("linalg", "tables", "growth", "fusion", "oracle", "diagrams", "verify", "cli")

# Methods that do a layer's work without going through a module-level function:
# every cell action goes through CellModule.action, whether or not the caller
# used oracle.cell_action.
_METHODS = {("oracle", "CellModule", "action"): "oracle.CellModule.action"}

_SUITES = ("counts", "tables", "growth", "fusion")

ORACLE_CACHED = ("cell_module", "oracle_cell_table", "oracle_simple_table")


def layer_modules() -> dict[str, object]:
    """The imported growthlab layer modules, keyed by layer name."""
    import growthlab.cli  # noqa: F401  (imports verify and oracle as well)

    return {layer: sys.modules[f"growthlab.{layer}"] for layer in LAYERS}


def _public_functions(module) -> dict[str, object]:
    out = {}
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(value) or hasattr(value, "cache_info")):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            out[name] = value
    return out


def _max_bits(value) -> int:
    rows = getattr(value, "rows", None)
    entries = (x for row in rows for x in row) if rows is not None else value
    best = 0
    for x in entries:
        if isinstance(x, Fraction):
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _hook_mat_mul(tracer, args, result):
    a, b = args[0], args[1]
    tracer.count["linalg.mat_mul.madds"] += a.nrows * a.ncols * b.ncols
    tracer.note_bits(result)


def _hook_bits(tracer, args, result):
    tracer.note_bits(result)


def _hook_enumerate(tracer, args, result):
    tracer.count["diagrams.elements"] += len(result)


def _hook_table(tracer, args, result):
    tracer.count["diagrams.compositions"] += len(args[0]) ** 2


def _hook_compose(tracer, args, result):
    tracer.count["diagrams.compositions"] += 1


def _hook_cli(tracer, args, result):
    if result != 0:
        tracer.count["cli.errors"] += 1


_HOOKS = {
    "linalg.mat_mul": _hook_mat_mul,
    "linalg.mat_pow": _hook_bits,
    "linalg.inverse": _hook_bits,
    "linalg.solve_upper_triangular": _hook_bits,
    "linalg.solve_lower_triangular": _hook_bits,
    "diagrams.enumerate_diagrams": _hook_enumerate,
    "diagrams.multiplication_table": _hook_table,
    "diagrams.compose": _hook_compose,
    "cli.main": _hook_cli,
}


class Tracer:
    """Span store and aggregates for one pass; inert until `active` is set."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []  # [span index, child time, calling layer]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.count: dict[str, int] = {
            "linalg.mat_mul.madds": 0,
            "linalg.max_entry_bits": 0,
            "diagrams.elements": 0,
            "diagrams.compositions": 0,
            "cli.errors": 0,
        }
        self.errors = {layer: 0 for layer in LAYERS}
        # linalg self time by the nearest enclosing non-linalg layer
        self.linalg_by_caller: dict[str, float] = {}

    def note_bits(self, value) -> None:
        bits = _max_bits(value)
        if bits > self.count["linalg.max_entry_bits"]:
            self.count["linalg.max_entry_bits"] = bits

    def call(self, key, layer, fn, hook, args, kwargs):
        name_id = self._name_id.get(key)
        if name_id is None:
            name_id = self._name_id[key] = len(self.names)
            self.names.append(key)
        index = len(self.span_start)
        parent = self._stack[-1] if self._stack else None
        if layer != "linalg":
            caller = layer
        else:
            caller = parent[2] if parent else "client"
        frame = [index, 0.0, caller]
        self._stack.append(frame)
        self.span_name.append(name_id)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(frame, key, layer, start, parent)
            # counted once, in the innermost layer it leaves; the mark is kept
            # on the exception itself, since ids of freed ones are reused
            if not getattr(exc, "__perfbench_counted__", False):
                exc.__perfbench_counted__ = True
                self.errors[layer] += 1
            raise
        self._close(frame, key, layer, start, parent)
        if hook is not None:
            hook_start = perf_counter()
            hook(self, args, result)
            if parent is not None:
                # the hook's cost is tracing overhead, not the parent's self time
                parent[1] += perf_counter() - hook_start
        return result

    def _close(self, frame, key, layer, start, parent) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        own = duration - frame[1]
        self.span_end[frame[0]] = end
        self.calls[key] = self.calls.get(key, 0) + 1
        self.self_s[key] = self.self_s.get(key, 0.0) + own
        if layer == "linalg":
            self.linalg_by_caller[frame[2]] = self.linalg_by_caller.get(frame[2], 0.0) + own
        self.total_s[key] = self.total_s.get(key, 0.0) + duration
        if parent is not None:
            parent[1] += duration

    def write_spans(self, path) -> None:
        """One JSON array per span: [name, start, end, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(len(self.span_start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.span_name[k]],
                            self.span_start[k],
                            self.span_end[k],
                            self.span_parent[k],
                            self.span_op[k],
                        ]
                    )
                )
                fh.write("\n")


def _make_wrapper(tracer: Tracer, key: str, layer: str, fn):
    hook = _HOOKS.get(key)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(key, layer, fn, hook, args, kwargs)

    wrapper.__perfbench_original__ = fn
    if hasattr(fn, "cache_info"):
        wrapper.cache_info = fn.cache_info
        wrapper.cache_clear = fn.cache_clear
    return wrapper


def _growthlab_namespaces():
    """Every namespace that can hold a binding: module dicts and their dicts."""
    for name, module in sorted(sys.modules.items()):
        if name != "growthlab" and not name.startswith("growthlab."):
            continue
        namespace = vars(module)
        yield namespace
        for key, value in list(namespace.items()):
            if type(value) is dict and key != "__builtins__":
                yield value


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every public layer function; returns the undo log for `uninstall`."""
    wrappers: dict[int, object] = {}
    for layer, module in layer_modules().items():
        for name, fn in _public_functions(module).items():
            wrappers[id(fn)] = _make_wrapper(tracer, f"{layer}.{name}", layer, fn)
    undo = []
    for namespace in _growthlab_namespaces():
        for name, value in list(namespace.items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and wrapper.__perfbench_original__ is value:
                namespace[name] = wrapper
                undo.append((namespace, name, value))
    modules = layer_modules()
    for (layer, cls_name, meth), key in _METHODS.items():
        cls = getattr(modules[layer], cls_name)
        original = vars(cls)[meth]
        setattr(cls, meth, _make_wrapper(tracer, key, layer, original))
        undo.append((cls, meth, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for target, name, original in reversed(undo):
        if isinstance(target, dict):
            target[name] = original
        else:
            setattr(target, name, original)


def wrapped_bindings() -> list[str]:
    """Names of growthlab bindings that currently hold a tracing wrapper."""
    found = []
    for namespace in _growthlab_namespaces():
        for name, value in namespace.items():
            if hasattr(value, "__perfbench_original__"):
                found.append(name)
    for (layer, cls_name, meth), _ in _METHODS.items():
        cls = getattr(layer_modules()[layer], cls_name)
        if hasattr(vars(cls)[meth], "__perfbench_original__"):
            found.append(f"{cls_name}.{meth}")
    return found


def unwrapped_originals() -> list[str]:
    """Bindings that still point at an original public function (after install)."""
    originals = {
        id(fn): f"{layer}.{name}"
        for layer, module in layer_modules().items()
        for name, fn in _public_functions(module).items()
        if not hasattr(fn, "__perfbench_original__")
    }
    found = []
    for namespace in _growthlab_namespaces():
        for name, value in namespace.items():
            if id(value) in originals:
                found.append(f"{originals[id(value)]} bound as {name}")
    return found


def oracle_cache_stats() -> tuple[int, int]:
    """(hits, misses) summed over every lru_cache in the oracle."""
    hits = misses = 0
    for value in vars(layer_modules()["oracle"]).values():
        info = getattr(value, "cache_info", None)
        if info is not None:
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return hits, misses


def _sum(prefix: str, field: dict) -> float:
    return sum(v for k, v in field.items() if k.startswith(prefix))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _sum(layer + ".", self_s)
        out[f"{layer}.errors"] = tracer.errors[layer]
    out["cli.errors"] += tracer.count["cli.errors"]

    def one(key, field):
        return field.get(key, 0)

    for name in ("mat_mul", "inverse", "mat_pow", "kernel_and_rank"):
        out[f"linalg.{name}.calls"] = one(f"linalg.{name}", calls)
        out[f"linalg.{name}.self_s"] = one(f"linalg.{name}", self_s)
    solves = ("linalg.solve_upper_triangular", "linalg.solve_lower_triangular")
    out["linalg.solve.calls"] = sum(one(k, calls) for k in solves)
    out["linalg.solve.self_s"] = sum(one(k, self_s) for k in solves)
    out["linalg.mat_mul.madds"] = tracer.count["linalg.mat_mul.madds"]
    out["linalg.max_entry_bits"] = tracer.count["linalg.max_entry_bits"]
    out["linalg.mat_pow.s"] = one("linalg.mat_pow", total_s)
    for caller in ("oracle", "fusion", "growth", "verify"):
        out[f"linalg.from_{caller}.self_s"] = tracer.linalg_by_caller.get(caller, 0.0)

    out["tables.calls"] = _sum("tables.", calls)
    out["tables.simple_table.self_s"] = one("tables.simple_table", self_s)

    series = ("growth.length_series", "growth.multiplicity_series", "growth.general_length_series")
    out["growth.series.calls"] = sum(one(k, calls) for k in series)
    out["growth.module_spec.calls"] = one("growth.module_spec", calls)

    for name in ("fusion_matrix", "power_multiplicities", "scc_analysis", "spectral_check"):
        out[f"fusion.{name}.self_s"] = one(f"fusion.{name}", self_s)
    out["fusion.power_multiplicities.s"] = one("fusion.power_multiplicities", total_s)

    out["oracle.cell_table.self_s"] = one("oracle.oracle_cell_table", self_s)
    out["oracle.simple_table.self_s"] = one("oracle.oracle_simple_table", self_s)
    out["oracle.multiplicity.calls"] = one("oracle.oracle_multiplicity", calls)
    out["oracle.multiplicity.self_s"] = one("oracle.oracle_multiplicity", self_s)
    out["oracle.cell_action.calls"] = one("oracle.CellModule.action", calls)
    hits, misses = oracle_cache_stats()
    out["oracle.cache_lookups"] = hits + misses
    out["oracle.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    out["diagrams.enumerate.self_s"] = one("diagrams.enumerate_diagrams", self_s)
    out["diagrams.green_data.self_s"] = one("diagrams.green_data", self_s)
    out["diagrams.green_data.s"] = one("diagrams.green_data", total_s)
    out["diagrams.multiplication_table.self_s"] = one("diagrams.multiplication_table", self_s)
    out["diagrams.elements"] = tracer.count["diagrams.elements"]
    out["diagrams.compositions"] = tracer.count["diagrams.compositions"]

    for suite in _SUITES:
        out[f"verify.{suite}.s"] = one(f"verify.check_{suite}", total_s)
    out["cli.calls"] = one("cli.main", calls)
    out["trace.spans"] = len(tracer.span_start)
    return out
