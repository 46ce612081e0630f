"""Span recorder installed around condana's functions at run time.

The tracer replaces each public function of a layer module with a timing
wrapper, on the module that defines it and on every condana module that
imported it by name, because that is where callers look it up. No file
of the library changes. Each call becomes a span: name, parent span,
start, end and whether it raised. Calls to functions marked as leaves
(the hot, short ones, such as ``problems.evaluate``) are aggregated per
(parent span, name) into a count and a total time instead; calls made
inside a leaf are not traced and count toward the leaf's time.

Spans are kept in memory; ``summary`` reduces them and ``dump`` writes
them out when the run ends. The tracer is not thread-safe; the workloads
run on one thread.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("sampling", "problems", "condition", "closed_forms", "verify", "cli")
#: Functions traced as aggregated leaves: called up to millions of times,
#: and calling nothing else that is traced.
LEAVES = {"problems.evaluate", "sampling.words"}
LEAF_LAYERS = {"closed_forms"}
STREAM_METHODS = ("words", "uniforms", "symmetric", "normals", "split")

ROOT = -1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, raised]
        self.leaves: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, total_s, raised]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [ROOT]
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            record = [name, stack[-1], perf_counter(), 0.0, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[3] = perf_counter()
                stack.pop()

        return traced

    def leaf(self, fn, name: str):
        leaves, stack = self.leaves, self._stack

        def traced(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            raised = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                elapsed = perf_counter() - start
                self._in_leaf = False
                entry = leaves.get((stack[-1], name))
                if entry is None:
                    leaves[(stack[-1], name)] = [1, elapsed, int(raised)]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += raised

        return traced

    def counting(self, fn, counter: str, size):
        """Wrap ``fn`` to add ``size(*args)`` to a counter on every call."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += size(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, name: str, fn):
        if name in LEAVES or name.split(".")[0] in LEAF_LAYERS:
            return self.leaf(fn, name)
        return self.span(fn, name)

    def install(self) -> None:
        """Wrap every public function of each layer where callers find it."""
        modules = {layer: sys.modules[f"condana.{layer}"] for layer in LAYERS}
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for other in modules.values():
                    if vars(other).get(attr) is fn:
                        self._set(other, attr, wrapped)
        stream_cls = modules["sampling"].SampleStream
        for method in STREAM_METHODS:
            self._set(stream_cls, method,
                      self.wrap(f"sampling.{method}", getattr(stream_cls, method)))
        self._set(stream_cls, "words", self.counting(
            stream_cls.words, "sampling.values", lambda stream, n: int(n)))
        cli = modules["cli"]
        self._set(cli, "write_rows", self.counting(
            cli.write_rows, "cli.rows", lambda rows, *args, **kwargs: len(rows)))
        self._install_verify_groups(modules["verify"])

    def _install_verify_groups(self, verify) -> None:
        """One span per verify task, named after its check group."""
        build_tasks = verify._build_tasks

        def traced_build(cfg):
            return [(group, self.span(fn, f"verify.group.{group}"))
                    for group, fn in build_tasks(cfg)]

        self._set(verify, "_build_tasks", traced_build)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total, self time and raises; per-layer self time and
        boundary calls (calls whose caller is in another layer or outside)."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent != ROOT:
                child_time[parent] += end - start
        for (parent, _), (_, total, _) in self.leaves.items():
            if parent != ROOT:
                child_time[parent] += total

        def layer_of(index):
            return None if index == ROOT else self.spans[index][0].split(".")[0]

        names: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0})
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for index, (name, parent, start, end, raised) in enumerate(self.spans):
            entry = names[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["raised"] += raised
            layer = name.split(".")[0]
            layers[layer]["self_s"] += end - start - child_time[index]
            if layer_of(parent) != layer:
                layers[layer]["calls"] += 1
        for (parent, name), (calls, total, raised) in self.leaves.items():
            entry = names[name]
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += total
            entry["raised"] += raised
            layer = name.split(".")[0]
            layers[layer]["self_s"] += total
            if layer_of(parent) != layer:
                layers[layer]["calls"] += calls
        return {"names": dict(names), "layers": layers, "counters": dict(self.counters),
                "spans": len(self.spans), "leaf_entries": len(self.leaves)}

    def dump(self, path) -> None:
        """Write every span and leaf aggregate as JSON."""
        payload = {
            "span_fields": ["name", "parent", "start", "end", "raised"],
            "spans": self.spans,
            "leaf_fields": ["parent", "name", "calls", "total_s", "raised"],
            "leaves": [[parent, name, *entry] for (parent, name), entry in self.leaves.items()],
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
