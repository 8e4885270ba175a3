"""Per-layer spans of one dfsqc request, recorded from outside the package.

Usage: ``python perfbench/tracer.py [--memory] <config.json> <summary.json>``
with ``src`` on ``PYTHONPATH``.  Runs the same request as
an untraced one, with every public function of the layer modules wrapped,
and writes the per-function call counts, self times and, with
``--memory``, tracemalloc peaks to ``summary.json``.  tracemalloc slows
the request several-fold, so self times come from runs without it.  The
exit code is the request's own.

A function is wrapped at every name the package looks it up by: its own
module attribute (calls inside the module and ``linalg.tensor``-style
lookups) and each ``from .x import f`` binding in another module.  A
function that does not exist at the commit under test is simply not
wrapped; the caller reports it as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import namedtuple

LAYERS = ("cli", "gates", "noise", "linalg", "tomography", "encoding", "motional")

#: One call of a wrapped function.  ``parent`` is the ``id`` of the
#: enclosing span (-1 at top level); ``peak_bytes`` is the tracemalloc
#: peak during the span above the traced size at its start.
Span = namedtuple("Span", "id parent name start end peak_bytes")


class Tracer:
    """Records a span per call of each wrapped function, in memory."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._count = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block that is not one wrapped call."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _enter(self, name: str):
        # tracemalloc keeps one peak; each span resets it and hands the
        # peak seen so far to its parent, so nested peaks stay correct.
        current, peak = tracemalloc.get_traced_memory()
        parent = -1
        if self._open:
            top = self._open[-1]
            top[4] = max(top[4], peak)
            parent = top[0]
        tracemalloc.reset_peak()
        self._open.append([self._count, parent, name, current, current,
                           time.perf_counter()])
        self._count += 1

    def _exit(self):
        end = time.perf_counter()
        span_id, parent, name, start_bytes, peak, start = self._open.pop()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        if self._open:
            self._open[-1][4] = max(self._open[-1][4], peak)
        self.spans.append(Span(span_id, parent, name, start, end,
                               peak - start_bytes))


def summarize(spans) -> dict:
    """Per span name: call count, self time (span minus its child spans)
    and the largest memory peak in MB."""
    child_s = {}
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + (s.end - s.start)
    out = {}
    for s in spans:
        st = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "peak_mb": 0.0})
        st["calls"] += 1
        st["self_s"] += (s.end - s.start) - child_s.get(s.id, 0.0)
        st["peak_mb"] = max(st["peak_mb"], s.peak_bytes / 1e6)
    return out


def install(tracer: Tracer) -> list:
    """Wrap the public functions of every layer module that exists;
    returns the sorted ``<layer>.<function>`` names wrapped."""
    wrappers = {}
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"dfsqc.{layer}")
        except ImportError:
            continue
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                wrappers.setdefault(id(obj), (f"{layer}.{attr}", obj))
    for id_, (name, fn) in wrappers.items():
        wrappers[id_] = (name, tracer.wrap(name, fn))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "dfsqc" and not mod_name.startswith("dfsqc."):
            continue
        for attr, obj in list(vars(mod).items()):
            if callable(obj) and id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)][1])
    return sorted(name for name, _ in wrappers.values())


def main(argv) -> int:
    memory = argv[0] == "--memory"
    config_path, summary_path = argv[1:] if memory else argv
    tracer = Tracer()
    wrapped = install(tracer)
    request = functools.partial(sys.modules["dfsqc.cli"].main, ["run", config_path])
    if memory:
        tracemalloc.start()
    try:
        with tracer.span("request"):
            code = request()
    finally:
        tracemalloc.stop()
    with open(summary_path, "w") as fh:
        json.dump({"wrapped": wrapped, "spans": len(tracer.spans),
                   "layers": summarize(tracer.spans)}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
