"""Spans around calls into the library's public functions.

``Tracer.install`` replaces every public function of every ``logcy``
module with a wrapper, in each module namespace that binds it, so that a
call is caught however its caller looks the function up (for example
``canonical_form`` through ``logcy.moves`` as well as ``logcy.divisor``).
Each call or, for a generator, each resumption becomes one span: name,
start, end and the span that was open when it began.  Spans are kept in
flat arrays while the workload runs and written out afterwards.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import zlib
from array import array

LAYERS = (
    "divisor", "linalg", "monodromy", "moves", "homology",
    "classify", "duality", "enumeration", "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.yields: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.yields.append(0)
        calls, yields, stack = self.calls, self.yields, self._stack
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            return idx

        def close_span(idx: int) -> None:
            s_end[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            def segments(gen):
                try:
                    while True:
                        idx = open_span()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            close_span(idx)
                        yields[nid] += 1
                        yield item
                finally:
                    gen.close()

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                return segments(fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                idx = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(idx)

        return wrapper

    def install(self, modules: dict[str, object], namespaces: list[object]) -> None:
        """Wrap the public functions of ``modules`` wherever ``namespaces`` bind them.

        ``modules`` maps a layer name to its module; a function counts as
        public when its defining module lists it in ``__all__``.
        """
        wrappers = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._undo):
            setattr(ns, attr, value)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Self time per name: span durations minus the time their children cover."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for j in range(n):
            p = parent[j]
            if p >= 0:
                child[p] += end[j] - start[j]
        out = [0.0] * len(self.names)
        name = self.span_name
        for j in range(n):
            out[name[j]] += end[j] - start[j] - child[j]
        return out

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the zlib-compressed arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
        }
        blob = b"".join(a.tobytes() for a in (
            self.span_name, self.span_parent, self.span_start, self.span_end))
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(zlib.compress(blob, 1))
