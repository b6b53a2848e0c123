"""The execution context: the spine threaded through the tower.

One :class:`ExecutionContext` is created per :meth:`MIXMediator.
prepare` and handed down through plan building into every lazy
operator; buffers and remote channels register their stats objects
with it.  It carries exactly four things:

* the frozen :class:`~repro.runtime.config.EngineConfig`,
* the :class:`~repro.runtime.cache.CacheManager` holding every
  operator cache of the query under one budget,
* a :class:`Tracer` whose span/event callbacks see each navigation
  crossing the layers (mediator, lazy operators, sources, channel),
  now with causal span ids linking the crossings into one tree,
* a :class:`~repro.runtime.observability.MetricsRegistry` of
  counters, gauges, and histograms (disabled by default; enable with
  ``EngineConfig(metrics_enabled=True)``).

``QueryResult.stats()`` aggregates the context into a single report:
source navigations, per-cache hit/miss/eviction counts, and -- for
remote sessions -- channel messages/bytes.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, ContextManager, Dict, Iterator,
                    List, Optional, TYPE_CHECKING)

if TYPE_CHECKING:  # import cycle: resilience imports this module
    from .resilience import Clock

from .cache import CacheManager
from .config import EngineConfig
from .observability import MetricsRegistry
from .parallel import FanoutDispatcher
from .locks import make_lock

__all__ = ["TraceEvent", "Tracer", "ExecutionContext"]


@dataclass
class TraceEvent:
    """One crossing of a layer boundary.

    ``span_id``/``parent_id`` place the event in the causal span tree
    of the navigation that produced it: ``*.begin``/``*.end`` pairs
    carry their span's id, point events carry the enclosing span in
    ``parent_id``.  ``ts_ms`` is the tracer clock's reading (a
    :class:`~repro.testing.faults.FakeClock` in tests makes it
    deterministic) and ``thread`` the emitting thread's identity.

    The span fields deliberately stay out of :meth:`__str__`: the
    golden navigation traces under ``tests/golden/`` compare the
    string form, which remains exactly ``layer.event key=value ...``.
    """

    layer: str
    event: str
    data: dict = field(default_factory=dict)
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    ts_ms: Optional[float] = None
    thread: Optional[int] = None

    def __str__(self) -> str:
        # Keyed on str(key): heterogeneous data dicts (int and str
        # keys mixed) must render, not raise -- sorting the raw items
        # compares unlike types on Python 3.9.  All-string dicts sort
        # exactly as before, keeping the golden traces stable.
        detail = " ".join(
            "%s=%r" % kv
            for kv in sorted(self.data.items(),
                             key=lambda kv: str(kv[0])))
        return ("%s.%s %s" % (self.layer, self.event, detail)).rstrip()

    def to_dict(self) -> dict:
        """The stable serialization shape of one event (what the JSONL
        exporter writes, one object per line)."""
        return {
            "layer": self.layer,
            "event": self.event,
            "data": {str(k): v for k, v in self.data.items()},
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "ts_ms": self.ts_ms,
            "thread": self.thread,
        }


class Tracer:
    """Span/event hooks for the execution tower.

    Subscribing a callback makes every layer's :meth:`emit` call it
    with a :class:`TraceEvent`; with ``record=True`` events are also
    kept in :attr:`events`.  An idle tracer (no subscribers, not
    recording) is near-free: instrumented layers check :attr:`active`
    before building events.

    The tracer is safe under concurrent emitters and subscribers:
    prefetch workers and fan-out threads emit through the same
    instance the client thread reads, so the subscriber list and the
    event record are guarded by a lock.  Callbacks are invoked
    *outside* the lock (a callback may itself navigate, which may
    emit).

    **Causal spans.**  :meth:`span` mints a span id, remembers the
    enclosing span on a thread-local stack, and stamps both onto the
    begin/end events; :meth:`emit` stamps the current span as the
    point event's ``parent_id``.  One client navigation therefore
    yields a *tree* of spans down through mediator -> lazy operators
    -> buffer -> channel -> source (reconstructable with
    :func:`~repro.runtime.observability.build_span_tree`).  Work that
    hops threads keeps the tree connected through :meth:`capture` /
    :meth:`attach`: the dispatching side captures the current span,
    the worker attaches it before running (the fan-out dispatcher and
    the async prefetcher do this automatically).

    ``clock`` supplies the event timestamps; tests inject a
    :class:`~repro.testing.faults.FakeClock` so traces are
    deterministic.  The default reads the system monotonic clock.

    **Trace identity & sampling.**  :attr:`trace_id` names the whole
    causal trace (one id per client session; minted lazily by
    :meth:`ensure_trace_id`); it travels on the LXP wire so client
    and server exports can be merged into one forest.  :meth:`sample`
    applies the deterministic hash decision of
    :func:`~repro.runtime.observability.sample_trace` and flips
    :attr:`sampled`; an unsampled tracer reports :attr:`active` False
    even while recording, so sampling bounds the record-mode cost
    without touching any emit site.
    """

    def __init__(self, record: bool = False,
                 clock: Optional["Clock"] = None,
                 trace_id: Optional[str] = None) -> None:
        self._callbacks: List[Callable[[TraceEvent], None]] = []
        self._record = record
        self.events: List[TraceEvent] = []
        self.trace_id = trace_id
        self._sampled = True
        #: whether emitting is observable at all: sampled, and
        #: recording or subscribed.  A plain attribute, read on every
        #: instrumented navigation; every write to its inputs
        #: recomputes it.
        self.active = record
        self._lock = make_lock("trace.tracer")
        self._clock = clock
        self._span_ids = itertools.count(1)
        self._tls = threading.local()

    def _recompute_active_locked(self) -> None:
        self.active = self._sampled and (self._record
                                         or bool(self._callbacks))

    @property
    def record(self) -> bool:
        """Whether events are kept in :attr:`events`."""
        return self._record

    @record.setter
    def record(self, value: bool) -> None:
        with self._lock:
            self._record = value
            self._recompute_active_locked()

    @property
    def sampled(self) -> bool:
        """The sampling verdict (see :meth:`sample`)."""
        return self._sampled

    @sampled.setter
    def sampled(self, value: bool) -> None:
        with self._lock:
            self._sampled = value
            self._recompute_active_locked()

    @property
    def configured(self) -> bool:
        """Whether anything asked for tracing (pre-sampling).

        Distinct from :attr:`active`: a recording tracer whose trace
        was sampled *out* is configured but not active.  The client
        only mints and ships trace context on the wire when this is
        true, so the default-off path stays byte-identical.
        """
        return self._record or bool(self._callbacks)

    def ensure_trace_id(self) -> str:
        """The trace id, minted on first use.

        The lazy ``uuid`` import is deliberate: the default path never
        calls this, and the E18 subprocess proof asserts the module
        stays unimported.
        """
        if self.trace_id is None:
            import uuid
            self.trace_id = uuid.uuid4().hex[:16]
        return self.trace_id

    def sample(self, rate: float) -> bool:
        """Apply the deterministic sampling decision for ``rate``.

        Ensures a trace id, hashes it through
        :func:`~repro.runtime.observability.sample_trace`, records the
        verdict in :attr:`sampled`, and returns it.
        """
        from .observability import sample_trace
        self.sampled = sample_trace(self.ensure_trace_id(), rate)
        return self.sampled

    def _now(self) -> float:
        clock = self._clock
        if clock is None:
            from .resilience import SYSTEM_CLOCK
            clock = self._clock = SYSTEM_CLOCK
        return clock.now_ms()

    # -- span context ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_span(self) -> Optional[int]:
        """The innermost open span on this thread (None outside)."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def capture(self) -> Optional[int]:
        """The current span id, for handing to another thread."""
        return self.current_span()

    @contextmanager
    def attach(self, span_id: Optional[int]) -> Iterator["Tracer"]:
        """Adopt a captured span as this thread's current span.

        Worker threads bracket their task with this so the spans and
        events they emit stay children of the navigation that
        scheduled the work -- one connected tree, no orphans.
        Attaching ``None`` is a no-op (the dispatching side had no
        open span).
        """
        if span_id is None:
            yield self
            return
        stack = self._stack()
        stack.append(span_id)
        try:
            yield self
        finally:
            stack.pop()

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Register a callback invoked on every event."""
        with self._lock:
            self._callbacks.append(callback)
            self._recompute_active_locked()

    @contextmanager
    def subscribed(self, callback: Callable[[TraceEvent], None]
                   ) -> Iterator[Callable[[TraceEvent], None]]:
        """Subscribe ``callback`` for the duration of a block.

        The exception-safe pairing of :meth:`subscribe` and
        :meth:`unsubscribe`: the callback is removed on the way out
        even when the block raises, so a failing test or exporter can
        never leak its subscription (and then trip the strict
        double-unsubscribe check elsewhere).
        """
        self.subscribe(callback)
        try:
            yield callback
        finally:
            self.unsubscribe(callback)

    def unsubscribe(self,
                    callback: Callable[[TraceEvent], None]) -> None:
        """Remove a previously subscribed callback.

        Raises ``ValueError`` when the callback was never subscribed
        (or was already removed) -- a silent no-op would mask the
        double-unsubscribe bugs this method exists to prevent.
        """
        with self._lock:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                raise ValueError(
                    "callback %r is not subscribed" % (callback,)
                ) from None
            self._recompute_active_locked()

    def emit(self, layer: str, event: str, **data: object) -> None:
        """Publish one point event to subscribers (and the record).

        The event is stamped with the enclosing span (``parent_id``),
        the clock reading, and the emitting thread.
        """
        if not self.active:
            return
        self._publish(TraceEvent(
            layer, event, data,
            parent_id=self.current_span(),
            ts_ms=self._now(),
            thread=threading.get_ident()))

    def _publish(self, record: TraceEvent) -> None:
        with self._lock:
            if self._record:
                self.events.append(record)
            callbacks = list(self._callbacks)
        for callback in callbacks:
            callback(record)

    @contextmanager
    def span(self, layer: str, name: str,
             **data: object) -> Iterator["Tracer"]:
        """A begin/end event pair around a block.

        Mints a span id, stamps it (plus the enclosing span as
        ``parent_id``) on the ``<name>.begin``/``<name>.end`` events,
        and makes it the current span for the block so nested spans
        and point events become its children.  The ``.end`` event is
        emitted even when the block raises.  Idle tracers skip all of
        it -- no id is minted, nothing is pushed.
        """
        if not self.active:
            yield self
            return
        parent = self.current_span()
        span_id = next(self._span_ids)
        thread = threading.get_ident()
        self._publish(TraceEvent(
            layer, name + ".begin", dict(data),
            span_id=span_id, parent_id=parent,
            ts_ms=self._now(), thread=thread))
        stack = self._stack()
        stack.append(span_id)
        try:
            yield self
        finally:
            stack.pop()
            self._publish(TraceEvent(
                layer, name + ".end", dict(data),
                span_id=span_id, parent_id=parent,
                ts_ms=self._now(), thread=thread))


class ExecutionContext:
    """Config + caches + tracing for one prepared query.

    Create one with :meth:`create`; the mediator does so per
    ``prepare()`` and threads it through ``build_virtual_document``
    into every operator, so the query's whole cache footprint lives
    (and is bounded) in one place.
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 caches: Optional[CacheManager] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.config = config if config is not None else EngineConfig()
        if caches is None:
            caches = CacheManager(budget=self.config.cache_budget,
                                  enabled=self.config.cache_enabled)
        self.caches = caches
        self.tracer = tracer if tracer is not None else Tracer()
        if metrics is None:
            metrics = MetricsRegistry(
                enabled=self.config.metrics_enabled)
        #: the query's metric instruments (counters, gauges,
        #: histograms) -- the fourth registry next to caches, buffers,
        #: and resilience.  Disabled registries short-circuit in the
        #: instruments themselves, so instrumentation costs one
        #: attribute read when metrics are off.
        self.metrics = metrics
        #: buffer stats registered by name (generic buffer components)
        self.buffers: Dict[str, Any] = {}
        #: channel stats registered by name (remote sessions)
        self.channels: Dict[str, Any] = {}
        #: resilience stats registered by name (retry/breaker seams)
        self.resilience: Dict[str, Any] = {}
        #: the shared fragment store's stats, when fragment caching is
        #: on (None otherwise -- the stats report then has no
        #: "fragcache" section, keeping the default shape unchanged)
        self.fragcache: Optional[Any] = None
        #: guards the registries: buffers and channels register from
        #: whichever thread opens them (fan-out tasks, prefetch
        #: workers), and names are minted from registry sizes
        self._registry_lock = make_lock("context.registry")
        self._fanout: Optional[FanoutDispatcher] = None
        #: per-kind serial numbers behind :meth:`mint_operator_name`
        self._operator_serials: Dict[str, int] = {}

    @classmethod
    def create(cls, config: Optional[EngineConfig] = None,
               tracer: Optional[Tracer] = None,
               **overrides: object) -> "ExecutionContext":
        """A fresh context, optionally overriding config fields::

            ctx = ExecutionContext.create(cache_enabled=False)
        """
        config = config if config is not None else EngineConfig()
        if overrides:
            config = config.replace(**overrides)
        return cls(config=config, tracer=tracer)

    # -- tracing -----------------------------------------------------------
    def trace(self, layer: str, event: str, **data: object) -> None:
        """Emit one event through the context's tracer."""
        # lint: allow=E002 -- the forwarding seam; call sites are checked
        self.tracer.emit(layer, event, **data)

    def span(self, layer: str, name: str,
             **data: object) -> ContextManager["Tracer"]:
        """A tracing span (contextmanager) through the tracer."""
        # lint: allow=E002 -- the forwarding seam; call sites are checked
        return self.tracer.span(layer, name, **data)

    def mint_operator_name(self, kind: str) -> str:
        """A fresh ``Kind#N`` label for one observed operator --
        serials are per kind and per context, so names are
        deterministic in plan-build order."""
        with self._registry_lock:
            serial = self._operator_serials.get(kind, 0) + 1
            self._operator_serials[kind] = serial
            return "%s#%d" % (kind, serial)

    # -- concurrency -------------------------------------------------------
    @property
    def fanout(self) -> FanoutDispatcher:
        """The query's shared :class:`FanoutDispatcher` (created on
        first use from ``config.fanout_workers``; inert when 0)."""
        dispatcher = self._fanout
        if dispatcher is None:
            with self._registry_lock:
                if self._fanout is None:
                    self._fanout = FanoutDispatcher(
                        self.config.fanout_workers,
                        tracer=self.tracer)
                dispatcher = self._fanout
        return dispatcher

    def close(self) -> None:
        """Release pooled resources (the fan-out executor)."""
        dispatcher = self._fanout
        if dispatcher is not None:
            dispatcher.close()

    # -- registries --------------------------------------------------------
    def register_buffer(self, name: str, stats: Any) -> None:
        """Attach a buffer's stats object for aggregated reporting."""
        with self._registry_lock:
            self.buffers[name] = stats

    def register_buffer_auto(self, stats: Any) -> str:
        """Register a client-side buffer under a freshly minted
        ``client-buffer#N`` name and return the name (see
        :meth:`register_channel_auto`)."""
        with self._registry_lock:
            name = "client-buffer#%d" % (len(self.buffers) + 1)
            self.buffers[name] = stats
            return name

    def register_channel(self, name: str, stats: Any) -> None:
        """Attach a remote channel's stats for aggregated reporting."""
        with self._registry_lock:
            self.channels[name] = stats

    def register_channel_auto(self, stats: Any) -> str:
        """Register a channel under a freshly minted ``remote#N`` name
        and return the name.  Mint and insert happen under one lock,
        so concurrent sessions opening channels never collide."""
        with self._registry_lock:
            name = "remote#%d" % (len(self.channels) + 1)
            self.channels[name] = stats
            return name

    def register_resilience(self, name: str, stats: Any) -> None:
        """Attach a resilient seam's retry/breaker/degradation stats
        for aggregated reporting."""
        with self._registry_lock:
            self.resilience[name] = stats

    def register_fragcache(self, stats: Any) -> None:
        """Attach the fragment store's hit/miss/invalidation counters
        for aggregated reporting (one store per context: sessions
        share the process-wide store, so later registrations of the
        same object are idempotent)."""
        with self._registry_lock:
            self.fragcache = stats

    def adopt_registries(self, other: "ExecutionContext") -> None:
        """Share another context's registered stats objects (the
        mediator seeds each per-query context with the session-level
        wrapper registrations)."""
        with other._registry_lock:
            buffers = dict(other.buffers)
            channels = dict(other.channels)
            resilience = dict(other.resilience)
            fragcache = other.fragcache
        with self._registry_lock:
            self.buffers.update(buffers)
            self.channels.update(channels)
            self.resilience.update(resilience)
            if fragcache is not None:
                self.fragcache = fragcache

    # -- metrics -----------------------------------------------------------
    def _collect_metrics(self) -> None:
        """Fold the registered stats objects into gauges.

        Pull-based: instead of every cache/buffer/channel pushing on
        each operation, the snapshot reads the registries it already
        has.  Keeps the hot paths free of double accounting and the
        gauges consistent with ``stats_report()``.
        """
        metrics = self.metrics
        if not metrics.enabled:
            return
        cache_dict = self.caches.as_dict()
        hits = metrics.gauge("cache_hits")
        misses = metrics.gauge("cache_misses")
        evictions = metrics.gauge("cache_evictions")
        for name, counts in cache_dict.get("caches", {}).items():
            hits.set(counts["hits"], cache=name)
            misses.set(counts["misses"], cache=name)
            evictions.set(counts["evictions"], cache=name)
        with self._registry_lock:
            buffers = dict(self.buffers)
            channels = dict(self.channels)
            resilience = dict(self.resilience)
        buf_nav = metrics.gauge("buffer_navigations")
        buf_hits = metrics.gauge("buffer_hits")
        buf_fills = metrics.gauge("buffer_hole_fills")
        for name, stats in buffers.items():
            buf_nav.set(stats.navigations, buffer=name)
            buf_hits.set(stats.hits, buffer=name)
            buf_fills.set(stats.fills, buffer=name)
        chan_msgs = metrics.gauge("channel_messages")
        chan_bytes = metrics.gauge("channel_bytes")
        for name, stats in channels.items():
            snap = stats.snapshot()
            chan_msgs.set(snap["messages"], channel=name)
            chan_bytes.set(snap["bytes_transferred"], channel=name)
        res_retries = metrics.gauge("resilience_retries")
        res_giveups = metrics.gauge("resilience_giveups")
        res_degraded = metrics.gauge("resilience_degraded")
        for name, stats in resilience.items():
            counts = stats.snapshot()
            res_retries.set(counts["retries"], source=name)
            res_giveups.set(counts["giveups"], source=name)
            res_degraded.set(counts["degraded"], source=name)

    def metrics_snapshot(self) -> dict:
        """The full metric state as plain dicts (see
        :meth:`MetricsRegistry.snapshot`), with the registry-backed
        gauges refreshed first."""
        self._collect_metrics()
        return self.metrics.snapshot()

    def metrics_prometheus(self) -> str:
        """The metric state in Prometheus text exposition format."""
        self._collect_metrics()
        return self.metrics.to_prometheus()

    # -- reporting ---------------------------------------------------------
    def stats_report(self) -> dict:
        """Caches, buffers, and channels in one plain-dict view."""
        report = {"config": self.config.as_dict(),
                  "caches": self.caches.as_dict()}
        # Copy the registries under their lock: concurrent sessions
        # (fan-out tasks, server handler threads) may be registering
        # new entries while this report is taken.
        with self._registry_lock:
            buffers = dict(self.buffers)
            channels = dict(self.channels)
            resilience = dict(self.resilience)
            fragcache = self.fragcache
        if fragcache is not None:
            report["fragcache"] = fragcache.snapshot()
        if buffers:
            report["buffers"] = {
                name: {"navigations": stats.navigations,
                       "hits": stats.hits, "fills": stats.fills}
                for name, stats in sorted(buffers.items())}
        if resilience:
            # snapshot(), not as_dict(): seams may still be live when
            # a report is taken (server sessions report concurrently).
            per_seam = {name: stats.snapshot()
                        for name, stats in sorted(resilience.items())}
            report["resilience"] = {
                "retries": sum(s["retries"] for s in per_seam.values()),
                "giveups": sum(s["giveups"] for s in per_seam.values()),
                "degraded": sum(s["degraded"]
                                for s in per_seam.values()),
                "breaker_opens": sum(s["breaker_opens"]
                                     for s in per_seam.values()),
                "per_source": per_seam,
            }
        if channels:
            per_channel = {name: stats.snapshot()
                           for name, stats in sorted(channels.items())}
            report["channels"] = {
                "messages": sum(s["messages"]
                                for s in per_channel.values()),
                "bytes_transferred": sum(s["bytes_transferred"]
                                         for s in per_channel.values()),
                "per_channel": {
                    name: {"messages": snap["messages"],
                           "bytes_transferred": snap["bytes_transferred"],
                           "virtual_ms": snap["virtual_ms"]}
                    for name, snap in per_channel.items()},
            }
        if self.metrics.enabled:
            report["metrics"] = self.metrics_snapshot()
        return report
