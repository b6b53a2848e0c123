"""Instrumentation: count and log navigation commands.

The central quantity of the paper is *how many source navigations a
client navigation costs* (navigational complexity, Definition 2).
:class:`CountingDocument` is a transparent proxy that meters every
command crossing it; stacking one between a mediator and each source
yields exactly the measurements the browsability experiments need.
(A wrapper source's buffer meters itself the same way, through
:func:`publish_command`, without a proxy layer.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .commands import LabelPredicate
from .interface import NavigableDocument
from ..runtime.locks import make_rlock

if False:  # pragma: no cover - import cycle guard, typing only
    from ..runtime.context import Tracer

__all__ = ["NavCounters", "CountingDocument", "publish_command"]


@dataclass
class NavCounters:
    """Per-command navigation counts."""

    down: int = 0
    right: int = 0
    fetch: int = 0
    select: int = 0

    @property
    def total(self) -> int:
        return self.down + self.right + self.fetch + self.select

    def reset(self) -> None:
        self.down = self.right = self.fetch = self.select = 0

    def snapshot(self) -> "NavCounters":
        return NavCounters(self.down, self.right, self.fetch, self.select)

    def __sub__(self, other: "NavCounters") -> "NavCounters":
        return NavCounters(
            self.down - other.down,
            self.right - other.right,
            self.fetch - other.fetch,
            self.select - other.select,
        )

    def __add__(self, other: "NavCounters") -> "NavCounters":
        return NavCounters(
            self.down + other.down,
            self.right + other.right,
            self.fetch + other.fetch,
            self.select + other.select,
        )

    def as_dict(self) -> dict:
        """Per-command counts as a plain dict (for stats reports)."""
        return {"down": self.down, "right": self.right,
                "fetch": self.fetch, "select": self.select,
                "total": self.total}

    def __str__(self) -> str:
        return ("d=%d r=%d f=%d sel=%d total=%d"
                % (self.down, self.right, self.fetch, self.select,
                   self.total))


def publish_command(tracer: "Optional[Tracer]", metrics, source: str,
                    command: str) -> None:
    """Fan one metered source command out to the tracer (a
    ``source.<command>`` event) and the metrics registry
    (``source_navigations_total``).

    Every meter calls this *outside* its lock: both sinks run foreign
    code (tracer subscribers, metric factories), and invoking them
    under a meter lock puts every subscriber under that lock in the
    order graph (L012).
    """
    if tracer is not None and tracer.active:
        # lint: allow=E002 -- command is "d"/"r"/"f"/"select"
        tracer.emit("source", command, source=source)
    if metrics is not None and metrics.enabled:
        metrics.counter("source_navigations_total").inc(
            source=source or "unnamed", command=command)


class CountingDocument(NavigableDocument):
    """Metering proxy around any NavigableDocument.

    Parameters
    ----------
    inner:
        The document to instrument.
    name:
        Optional name shown in logs (e.g. the source URL).
    log:
        When True, every command is appended to :attr:`trace` as
        ``(command_name, pointer)`` pairs.
    tracer:
        Optional :class:`~repro.runtime.context.Tracer`; when it has
        subscribers (or records), every command crossing this layer is
        emitted as a ``source`` event -- the per-navigation hook of
        the execution context.
    """

    def __init__(self, inner: NavigableDocument, name: str = "",
                 log: bool = False, tracer: "Optional[Tracer]" = None,
                 metrics=None):
        self.inner = inner
        self.name = name
        self.counters = NavCounters()
        self.log = log
        self.tracer = tracer
        #: optional MetricsRegistry; every command also increments
        #: ``source_navigations_total{source=,command=}``
        self.metrics = metrics
        self.trace: List[Tuple[str, object]] = []
        #: guards counters and the command log: with fan-out and
        #: prefetch workers, one meter is crossed by several threads.
        #: Re-entrant because a tracer callback may itself navigate.
        self._lock = make_rlock("source.meter")

    def _note_locked(self, command: str, pointer) -> None:
        """Record the command in the log; the caller holds the lock."""
        if self.log:
            self.trace.append((command, pointer))

    # -- NavigableDocument ----------------------------------------------
    def root(self):
        # Obtaining the root handle is free: the paper's preprocessing
        # returns it without source access.
        return self.inner.root()

    def down(self, pointer):
        with self._lock:
            self.counters.down += 1
            self._note_locked("d", pointer)
        publish_command(self.tracer, self.metrics, self.name, "d")
        return self.inner.down(pointer)

    def right(self, pointer):
        with self._lock:
            self.counters.right += 1
            self._note_locked("r", pointer)
        publish_command(self.tracer, self.metrics, self.name, "r")
        return self.inner.right(pointer)

    def fetch(self, pointer) -> str:
        with self._lock:
            self.counters.fetch += 1
            self._note_locked("f", pointer)
        publish_command(self.tracer, self.metrics, self.name, "f")
        return self.inner.fetch(pointer)

    def select(self, pointer, predicate: LabelPredicate):
        with self._lock:
            self.counters.select += 1
            self._note_locked("select", pointer)
        publish_command(self.tracer, self.metrics, self.name, "select")
        return self.inner.select(pointer, predicate)

    # -- measurement helpers ----------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.counters.reset()
            del self.trace[:]

    @property
    def total(self) -> int:
        return self.counters.total
