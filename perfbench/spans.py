"""Span tracing of speclat's layers from outside the package.

install() wraps the public functions and methods of every layer module and
rebinds each wrapped function wherever a speclat module namespace holds it
(``from .linalg import eigh`` in family.py, for example), so calls between
layers are seen as well as calls from the benchmark. A span is (name,
start, end, parent span, request id); spans stay in memory in flat arrays
until summary() reduces them. Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "linalg", "validation", "family", "projections", "order", "directsum",
    "monotone", "isos", "recover", "sampling", "io", "cli",
)

# operators are part of the public API of DirectSumElement and
# MonotoneBijection; other dunders (constructors, repr, eq) are not traced
TRACED_DUNDERS = {"__call__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__"}

# per-call durations are kept for these spans, to report their medians
DURATION_SPANS = {
    "order.spec_leq", "order.spec_join", "order.spec_meet",
    "isos.FactorCanonicalIso.apply",
    "recover.DirectSumIsoDecomposer.fit", "recover.FactorCanonicalRecovery.fit",
}


def _count_blocks(args, kwargs, result):
    """Number of blocks of the first direct-sum operand of a call."""
    for a in args:
        if isinstance(a, (list, tuple)) and a:
            a = a[0]
        blocks = getattr(a, "blocks", None)
        if isinstance(blocks, tuple):
            return [("directsum.blocks", len(blocks))]
    return []


def _observers() -> dict:
    """Per-function hooks that turn a call's arguments and result into
    (counter, value) pairs; counters are summed with their call counts."""

    def breakpoints(args, kwargs, result):
        return [("family.breakpoints", len(result.breakpoints))]

    def merged(args, kwargs, result):
        return [("order.merged_breakpoints", len(result))]

    def leq(args, kwargs, result):
        return [("order.leq_true", 1.0 if result else 0.0)]

    def fit(args, kwargs, result):
        return [("recover.fit_ok", 1.0)]

    def text_bytes(args, kwargs, result):
        return [("io.bytes_written", len(result.encode("utf-8")))]

    def read_file(args, kwargs, result):
        return [("io.bytes_read", os.path.getsize(args[0]))]

    def write_file(args, kwargs, result):
        return [("io.bytes_written", os.path.getsize(args[-1]))]

    return {
        "io.load_json": read_file,
        "io.file_digest": read_file,
        "io.emit_element": write_file,
        "io.emit_iso": write_file,
        "family.family_of": breakpoints,
        "family.merged_breakpoints": merged,
        "order.spec_leq": leq,
        "recover.DirectSumIsoDecomposer.fit": fit,
        "recover.FactorCanonicalRecovery.fit": fit,
        "io.Report.to_json": text_bytes,
        "io.Report.to_text": text_bytes,
    }


class Tracer:
    """Records spans around speclat calls while installed."""

    def __init__(self, on_enter: dict | None = None):
        # on_enter maps a layer name to a callable run at each span start
        self.on_enter = on_enter or {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self._stack: list[int] = []
        self.counters: dict[str, list[float]] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._observers = _observers()

    def _wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        layer = name.split(".", 1)[0]
        hook = self.on_enter.get(layer)
        observe = self._observers.get(name)
        if observe is None and layer == "directsum":
            observe = _count_blocks
        stack, clock = self._stack, time.perf_counter
        name_id, start, end, parent, request = (
            self.name_id, self.start, self.end, self.parent, self.request
        )
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                hook()
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(tracer.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                for key, value in observe(args, kwargs, result):
                    tracer.count(key, value)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, key: str, value: float) -> None:
        slot = self.counters.setdefault(key, [0.0, 0])
        slot[0] += value
        slot[1] += 1

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        """Wrap every layer's public callables and rebind them in every
        speclat module namespace."""
        if self._undo:
            return
        replaced: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"speclat.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if name != "speclat" and not name.startswith("speclat."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(member.__func__, name)))
            elif isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member, name))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def summary(self) -> dict:
        """Per-layer call counts and self seconds, per-span durations for
        DURATION_SPANS, and the summed counters, in a form that sums across
        runs and processes."""
        out = {"layers": {}, "durations": {}, "counters": dict(self.counters)}
        if not len(self.start):
            return out
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer_names = sorted({n.split(".", 1)[0] for n in self.names})
        layer_of = np.array([layer_names.index(n.split(".", 1)[0]) for n in self.names])
        span_layer = layer_of[nid]
        calls = np.bincount(span_layer, minlength=len(layer_names))
        busy = np.bincount(span_layer, weights=self_time, minlength=len(layer_names))
        for i, layer in enumerate(layer_names):
            out["layers"][layer] = [int(calls[i]), float(busy[i])]
        for i, name in enumerate(self.names):
            if name in DURATION_SPANS:
                out["durations"][name] = dur[nid == i].tolist()
        apply_calls = sum(
            int(np.sum(nid == i)) for i, n in enumerate(self.names)
            if n.startswith("isos.") and n.endswith("apply")
        )
        out["counters"]["isos.apply_calls"] = [float(apply_calls), apply_calls]
        return out


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another."""
    for layer, (calls, busy) in part["layers"].items():
        slot = total["layers"].setdefault(layer, [0, 0.0])
        slot[0] += calls
        slot[1] += busy
    for name, values in part["durations"].items():
        total["durations"].setdefault(name, []).extend(values)
    for key, (value, count) in part["counters"].items():
        slot = total["counters"].setdefault(key, [0.0, 0])
        slot[0] += value
        slot[1] += count
    return total


def empty_summary() -> dict:
    return {"layers": {}, "durations": {}, "counters": {}}
