"""Benchmark-owned span recording and timing proxies.

The traced run times the calls *into* each layer from outside the
program: a :class:`Recorder` keeps spans (name, start, end, parent,
query id) in memory and folds each one into its layer's self time, the
span's duration minus the part its child spans cover.  Proxies sit at
the four boundaries of the in-process stack::

    XMLElement -> [lazy] VirtualDocument -> [navigation] CountingDocument
        -> [buffer] BufferComponent -> [wrappers] LXPServer

and the mediator's preparation phases are timed by swapping the
functions ``MIXMediator.prepare`` looks up in its module for timed
stand-ins that call the originals in the same order.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import resource
import threading
import time
from typing import Callable, Dict, Iterator, List

from repro import CountingDocument, buffered
from repro.buffer.lxp import LXPServer
from repro.mediator import mix
from repro.navigation.interface import NavigableDocument

clock = time.perf_counter

#: spans kept in memory for the end-of-run dump; self times are folded
#: for every span, stored or not
SPAN_CAP = 50_000

#: (module attribute of repro.mediator.mix, span name) in the order
#: prepare() calls them
PREPARE_PHASES = (
    ("parse_xmas", "xmas.parse"),
    ("translate", "xmas.translate"),
    ("inline_views", "xmas.compose"),
    ("optimize", "rewriter.optimize"),
    ("build_virtual_document", "lazy.build"),
)


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Span store plus per-name self-time totals (seconds)."""

    def __init__(self, cap: int = SPAN_CAP) -> None:
        self.cap = cap
        self.spans: List[tuple] = []
        self.dropped = 0
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.query = 0
        return stack

    def set_query(self, query_id: int) -> None:
        self._stack()
        self._local.query = query_id

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        frame = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, frame)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """The context-manager form of :meth:`call`."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)

    def _open(self) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        # [id, parent, child time, start]
        frame = [next(self._ids), parent, 0.0, 0.0]
        stack.append(frame)
        frame[3] = clock()
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = clock()
        stack = self._local.stack
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + duration - frame[2])
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            if len(self.spans) < self.cap:
                self.spans.append((frame[0], name, frame[3], end,
                                   frame[1], self._local.query))
            else:
                self.dropped += 1

    def totals(self) -> Dict[str, float]:
        """Self time per span name (s)."""
        with self._lock:
            return dict(self.self_s)

    def durations(self) -> Dict[str, float]:
        """Summed span duration per span name (s)."""
        with self._lock:
            return dict(self.total_s)

    def dump(self, path: str) -> int:
        """Write the stored spans as JSON lines; returns the count."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, query in spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start,
                     "end": end, "parent": parent, "query": query}))
                handle.write("\n")
        return len(spans)


class TimedDocument(NavigableDocument):
    """A NavigableDocument proxy timing every command as ``layer``."""

    def __init__(self, inner: NavigableDocument, layer: str,
                 recorder: Recorder) -> None:
        self.inner = inner
        self.layer = layer
        self.recorder = recorder

    def root(self):
        return self.recorder.call(self.layer, self.inner.root)

    def down(self, pointer):
        return self.recorder.call(self.layer, self.inner.down, pointer)

    def right(self, pointer):
        return self.recorder.call(self.layer, self.inner.right, pointer)

    def fetch(self, pointer):
        return self.recorder.call(self.layer, self.inner.fetch, pointer)

    def select(self, pointer, predicate):
        return self.recorder.call(self.layer, self.inner.select, pointer,
                                  predicate)


class TimedServer(LXPServer):
    """An LXP server proxy timing every fill as ``wrappers``."""

    def __init__(self, inner: LXPServer, recorder: Recorder) -> None:
        self.inner = inner
        self.recorder = recorder

    def get_root(self):
        return self.recorder.call("wrappers", self.inner.get_root)

    def fill(self, hole_id):
        return self.recorder.call("wrappers", self.inner.fill, hole_id)


class TracedStack:
    """Registers wrappers through the public constructors with a proxy
    at each boundary, keeping the meters and buffers for counting."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.meters: List[CountingDocument] = []
        self.buffers: list = []

    def register(self, mediator, name: str, wrapper: LXPServer) -> None:
        recorder = self.recorder
        buffer = buffered(TimedServer(wrapper, recorder), name=name)
        meter = CountingDocument(TimedDocument(buffer, "buffer", recorder),
                                 name=name, tracer=mediator.tracer,
                                 metrics=mediator.runtime.metrics)
        self.meters.append(meter)
        self.buffers.append(buffer)
        mediator.register_source(
            name, TimedDocument(meter, "navigation", recorder), meter=False)


@contextlib.contextmanager
def timed_prepare(recorder: Recorder) -> Iterator[None]:
    """Time the functions ``MIXMediator.prepare`` calls, for the
    duration of the block."""
    originals = {attr: getattr(mix, attr) for attr, _ in PREPARE_PHASES}

    def timed(name: str, fn: Callable) -> Callable:
        def stand_in(*args, **kwargs):
            return recorder.call(name, fn, *args, **kwargs)
        return stand_in

    for attr, name in PREPARE_PHASES:
        setattr(mix, attr, timed(name, originals[attr]))
    try:
        yield
    finally:
        for attr, original in originals.items():
            setattr(mix, attr, original)
