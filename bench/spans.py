"""In-memory spans around the public functions of the qud package.

The tracer wraps qud's public functions from outside: every binding of a
public qud function in a qud module namespace (including names imported
from a sibling module) is replaced by a wrapper that records a span, so
calls between modules are traced without touching the package source.
Private helpers stay unwrapped; their time lands in the self time of the
public caller.

A span is (id, name, start, end, parent, thread, run). Spans are kept in
memory and written once, at the end of a run. Parents are tracked per
thread, so spans opened inside a worker pool's threads are roots of their
own thread.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "qud"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = len(self.spans)
            record = {"id": span_id, "name": name, "start": 0.0, "end": 0.0,
                      "parent": parent, "thread": threading.get_ident(),
                      "run": self.run_id}
            self.spans.append(record)
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def instrument(self) -> None:
        """Wrap every binding of a public function of the qud modules."""
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                           for info in pkgutil.iter_modules(pkg.__path__)]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if obj not in wrappers:
                    layer = home.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrappers[obj])
                self._patches.append((module, attr, obj))

    def restore(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def self_times(self) -> list:
        """Per span: duration minus the time covered by its child spans."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - child_time[s["id"]] for s in self.spans]

    def write(self, path, extra=None) -> None:
        selfs = self.self_times()
        spans = [dict(s, self=t) for s, t in zip(self.spans, selfs)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": spans, **(extra or {})}, fh)
            fh.write("\n")
