"""A nested, single-threaded span tracer for library functions.

The tracer replaces a function at the place where its caller looks it up
(a module attribute) with a wrapper that records a span around each call,
then puts the original back.  Spans nest: a span opened while another is
open becomes its child, and a layer's self time is its span's duration minus
the time its child spans cover.  Spans and counters stay in memory; the
caller writes them out once at the end.
"""

import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent span id or -1]
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.events = []
        self._open = []  # ids of open spans, innermost last
        self._covered = []  # child time inside each open span
        self._thread = threading.get_ident()
        self._keys = {}
        self._next_key = 0
        self._seen = defaultdict(set)

    def _enter(self, name):
        if threading.get_ident() != self._thread:
            raise RuntimeError(f"span {name!r} opened outside the tracing thread")
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(sid)
        self._covered.append(0.0)

    def _exit(self):
        end = self.clock()
        sid = self._open.pop()
        covered = self._covered.pop()
        span = self.spans[sid]
        span[2] = end
        duration = end - span[1]
        self.self_time[span[0]] += duration - covered
        if self._covered:
            self._covered[-1] += duration

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(tracer, args, result)`` runs after it."""

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, span name, counter)`` targets for the
        duration of the block and restore every original afterwards."""
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def key(self, obj):
        """A small integer naming ``obj`` for the tracer's lifetime; unlike
        ``id``, it is never handed to a later object."""
        entry = self._keys.get(id(obj))
        if entry is None or entry[0]() is not obj:
            entry = (weakref.ref(obj), self._next_key)
            self._next_key += 1
            self._keys[id(obj)] = entry
        return entry[1]

    def count_distinct(self, name, item):
        """Count ``item`` under ``name`` the first time it is seen."""
        seen = self._seen[name]
        if item not in seen:
            seen.add(item)
            self.counts[name] += 1

    def top_level_time(self, exclude=()):
        """Total duration of the outermost spans whose names are not excluded."""
        return sum(
            end - start
            for name, start, end, parent in self.spans
            if parent == -1 and name not in exclude
        )
