"""Spans around every public callable of a package, installed from outside.

``Tracer.install`` finds the package's public functions and classes by
introspection and rebinds each function, in every module namespace that
holds it, to a wrapper that records one span per call.  Classes are
instrumented in place (their ``__init__`` and public methods are swapped)
so that ``isinstance`` checks inside the program keep working.  A span is
``(id, name, start, end, parent id, thread id, op id)``; spans stay in memory
until ``write_spans`` is called.  ``uninstall`` restores every binding.

Span names are ``<layer>.<function>``, ``<layer>.<Class>`` for a
constructor and ``<layer>.<Class>.<method>``; the layer is the defining
module's name inside the package.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pkgutil
import threading
import time
import types
from collections import defaultdict

_MARK = "_perfbench_span"


def _padded_events(args, kwargs, result):
    return [("spatial.ball_query.padded", int(result.padded))]


def _read_bytes_events(args, kwargs, result):
    path = args[0] if args else None
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        return [("io.read_bytes", os.path.getsize(path))]
    return []


class Tracer:
    def __init__(self, package):
        self.package = package
        prefix = package.__name__ + "."
        self.modules = [package] + [importlib.import_module(prefix + info.name)
                                    for info in pkgutil.iter_modules(package.__path__)]
        self.domain_error = package.DomainError
        self.spans = []
        self.events = []  # (op id, counter name, value)
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._raised = []
        self._restore = []
        self._names = set()

    # -- installing ----------------------------------------------------------

    def _owned(self, value) -> bool:
        return getattr(value, "__module__", "").startswith(self.package.__name__)

    def _layer(self, value) -> str:
        return value.__module__.rsplit(".", 1)[-1]

    def _hook(self, name: str):
        if name == "spatial.ball_query":
            return _padded_events
        if name.startswith("io.read_"):
            return _read_bytes_events
        return None

    def _wrap(self, fn, name: str):
        spans, events, ids, local = self.spans, self.events, self._ids, self._local
        clock, get_ident = time.perf_counter, threading.get_ident
        layer_errors = name.split(".", 1)[0] + ".errors"
        domain_error, hook, tracer = self.domain_error, self._hook(name), self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, get_ident(), tracer.op))
                # count a DomainError once, in the innermost span it leaves
                if isinstance(exc, domain_error) and not any(e is exc for e in tracer._raised):
                    tracer._raised.append(exc)
                    events.append((tracer.op, layer_errors, 1))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, name, start, end, parent, get_ident(), tracer.op))
            if hook is not None:
                op = tracer.op
                events.extend((op, key, value) for key, value in hook(args, kwargs, result))
            return result

        setattr(traced, _MARK, name)
        self._names.add(name)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def _instrument_class(self, cls) -> None:
        base = f"{self._layer(cls)}.{cls.__name__}"
        self._set(cls, "__init__", self._wrap(cls.__init__, base))
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, types.FunctionType):
                self._set(cls, attr, self._wrap(value, f"{base}.{attr}"))
            elif isinstance(value, (classmethod, staticmethod)):
                wrapped = self._wrap(value.__func__, f"{base}.{attr}")
                self._set(cls, attr, type(value)(wrapped))

    def install(self) -> list:
        """Wrap every public callable; returns the sorted span names."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        functions, classes = {}, {}
        for module in self.modules:
            for attr, value in vars(module).items():
                if attr.startswith("_") or not self._owned(value):
                    continue
                if isinstance(value, types.FunctionType):
                    functions[id(value)] = value
                elif isinstance(value, type):
                    classes[id(value)] = value
        for cls in classes.values():
            self._instrument_class(cls)
        wrappers = {key: self._wrap(fn, f"{self._layer(fn)}.{fn.__name__}")
                    for key, fn in functions.items()}
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is functions[id(value)]:
                    self._set(module, attr, wrappers[id(value)])
        self.check_coverage()
        return sorted(self._names)

    def uninstall(self) -> None:
        for owner, attr, value, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._restore = []
        self._names = set()

    def check_coverage(self) -> None:
        """Raise if any module namespace still holds an unwrapped public callable."""
        missing = []
        for module in self.modules:
            for attr, value in vars(module).items():
                if attr.startswith("_") or not self._owned(value):
                    continue
                if isinstance(value, types.FunctionType) and not hasattr(value, _MARK):
                    missing.append(f"{module.__name__}.{attr}")
                elif isinstance(value, type):
                    members = [("__init__", value.__init__)] + [
                        (name, getattr(value, name)) for name, raw in vars(value).items()
                        if not name.startswith("_")
                        and isinstance(raw, (types.FunctionType, classmethod, staticmethod))]
                    missing += [f"{module.__name__}.{attr}.{name}" for name, member in members
                                if not hasattr(member, _MARK)]
        if missing:
            raise RuntimeError("unwrapped public callables: " + ", ".join(sorted(set(missing))))

    # -- reading -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per line: op, thread, id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread, op in self.spans:
                fh.write(json.dumps([op, thread, sid, parent, name, start, end]) + "\n")

    def op_summary(self, op: int, wall: float, main_thread: int) -> dict:
        """Per-layer and per-function figures for one op.

        ``<layer>.self_s`` is time in the layer's spans minus their child
        spans, summed over threads; ``<name>.s`` is inclusive time of the
        outermost spans of that name.  ``unattributed_s`` is the op's wall
        time minus main-thread self time; ``cli.main`` encloses every other
        span, so it reads only the harness's own overhead.  A gap in the
        wrappers would count as its caller's self time instead;
        ``check_coverage`` is what catches one.
        """
        spans = [s for s in self.spans if s[6] == op]
        by_id = {s[0]: s for s in spans}
        child_time = defaultdict(float)
        for sid, _, start, end, parent, _, _ in spans:
            child_time[parent] += end - start
        out = defaultdict(float)
        main_self = 0.0
        for sid, name, start, end, parent, thread, _ in spans:
            layer = name.split(".", 1)[0]
            own = end - start - child_time[sid]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
            out[f"{name}.calls"] += 1
            if thread == main_thread:
                main_self += own
            if parent not in by_id or by_id[parent][1] != name:
                out[f"{name}.s"] += end - start
        for op_id, key, value in self.events:
            if op_id == op:
                out[key] += value

        # planning: outermost sampling/spatial spans under run_toy_pipeline
        plan_s = 0.0
        for sid, name, start, end, parent, _, _ in spans:
            if not name.startswith(("sampling.", "spatial.")):
                continue
            ancestors = []
            while parent in by_id:
                ancestors.append(by_id[parent][1])
                parent = by_id[parent][4]
            if ("eval.run_toy_pipeline" in ancestors
                    and not any(a.startswith(("sampling.", "spatial.")) for a in ancestors)):
                plan_s += end - start

        out["unattributed_s"] = wall - main_self
        out["eval.plan_share"] = plan_s / wall
        # an index is built through build_index or by constructing KdIndex directly
        out["spatial.build_index.s"] = sum(
            (end - start for sid, name, start, end, parent, _, _ in spans
             if name in ("spatial.build_index", "spatial.KdIndex")
             and not (parent in by_id and by_id[parent][1] == "spatial.build_index")), 0.0)
        bq_calls = out["spatial.ball_query.calls"]
        out["spatial.ball_query.padded_ratio"] = (
            out["spatial.ball_query.padded"] / bq_calls if bq_calls else 0.0)
        read_s = sum(value for key, value in out.items()
                     if key.startswith("io.read_") and key.endswith(".s"))
        out["io.read_mb_per_s"] = out["io.read_bytes"] / 1e6 / read_s if read_s else 0.0
        return dict(out)

