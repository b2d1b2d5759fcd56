"""Span recorder that wraps concgraph's functions from outside the package.

``install`` replaces every public function of each concgraph module (the
names in its ``__all__``), plus the elimination ``matrices._det``, with a
wrapper that records one span per call: name, start, end and parent.  The
wrapper is bound in every module namespace that binds the original and in
every module-level dict that holds it, such as ``independence._TESTS``, so
no call path escapes it.  Spans stay in memory as flat integer arrays and
are written out by ``Tracer.dump`` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = (
    "cli",
    "selection",
    "independence",
    "estimators",
    "matrices",
    "distributions",
    "simulate",
)

# Private functions wrapped as well, because a per-layer count needs them.
EXTRA = {"matrices": ("_det",)}


class Tracer:
    """In-memory span store.  Span k has name ``names[name_id[k]]``,
    start and end in ns of ``perf_counter_ns`` and the index of its
    parent span (-1 for a root)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        # Per-span sizes: span index -> value (cells parsed, cold quantile).
        self.sizes: dict[str, dict[int, int]] = {"cells": {}, "cold": {}}
        self._seen_quantiles: set = set()

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def note_quantile(self, idx: int, key) -> None:
        if key not in self._seen_quantiles:
            self._seen_quantiles.add(key)
            self.sizes["cold"][idx] = 1

    def dump(self, path: str) -> None:
        doc = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "sizes": {k: {str(i): v for i, v in d.items()} for k, d in self.sizes.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _wrap(tracer: Tracer, fn, qualname: str):
    name_id = tracer.intern(qualname)

    if inspect.isgeneratorfunction(fn):
        # One span per item produced, so the generator's own work between
        # yields is attributed to its layer, not to the consumer.
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name_id)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                yield item

        return traced_gen

    if qualname == "cli.read_dataset_csv":

        @functools.wraps(fn)
        def traced_parse(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                data = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.sizes["cells"][idx] = int(data.values.size)
            return data

        return traced_parse

    if qualname == "distributions.beta_sym_quantile":

        @functools.wraps(fn)
        def traced_quantile(prob, m):
            idx = tracer.open(name_id)
            try:
                tracer.note_quantile(idx, (float(prob), float(m)))
                return fn(prob, m)
            finally:
                tracer.close(idx)

        return traced_quantile

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def install(tracer: Tracer, package: str = "concgraph") -> None:
    """Wrap the layers' functions in place."""
    modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
    replacements = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        names = list(getattr(module, "__all__", ())) + list(EXTRA.get(layer, ()))
        for name in names:
            fn = getattr(module, name, None)
            if fn is None or isinstance(fn, type) or not callable(fn):
                continue
            if id(fn) not in replacements:
                replacements[id(fn)] = (fn, _wrap(tracer, fn, f"{layer}.{name}"))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    hit = replacements.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[key] = hit[1]
