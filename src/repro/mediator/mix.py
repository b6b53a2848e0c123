"""The MIX mediator: catalog, views, query processing (paper Fig. 1).

Query processing follows Section 3's three phases:

1. **Preprocessing** -- parse the XMAS query, compose it with any view
   definitions it references (algebraic inlining), translate to the
   initial algebra plan.
2. **Query rewriting** -- optimize the plan for navigational
   complexity.
3. **Query evaluation** -- build the tree of lazy mediators over the
   registered sources and hand the client a root handle; nothing else
   happens until the client navigates.

Sources can be registered three ways, mirroring Figure 1:

* a ready :class:`NavigableDocument` (``register_source``);
* an LXP wrapper, automatically stacked under the generic buffer
  component (``register_wrapper``);
* another mediator's view (``register_view`` + queries that name it) --
  views compose algebraically by default, or stack as navigable
  sources via ``as_source=True``.

Configuration lives in one frozen :class:`~repro.runtime.config.
EngineConfig`; every ``prepare()`` creates a fresh
:class:`~repro.runtime.context.ExecutionContext` (config + budgeted
cache registry + tracing hooks) and threads it down the whole operator
tower.  With ``config.pushdown`` on, ``prepare()`` additionally runs
the :mod:`repro.pushdown` compiler pass: maximal single-source
subplans whose wrappers accept the negotiation execute as one native
request each instead of navigation-by-navigation.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple, Union

from ..algebra.eager import evaluate
from ..algebra.operators import Operator, Source, TupleDestroy, walk_plan
from ..buffer.component import BufferComponent, BufferMeter
from ..buffer.lxp import LXPServer
from ..client.element import XMLElement, open_virtual_document
from ..lazy.build import build_virtual_document
from ..lazy.document import VirtualDocument
from ..navigation.counting import CountingDocument, NavCounters
from ..navigation.interface import NavigableDocument, materialize
from ..rewriter.optimizer import OptimizationTrace, optimize
from ..runtime.config import EngineConfig
from ..runtime.context import ExecutionContext, Tracer
from ..runtime.resilience import Clock, resilient_server
from ..wrappers.base import buffered
from ..xmas.ast import XMASQuery
from ..xmas.compose import inline_views
from ..xmas.parser import parse_xmas
from ..xmas.translate import translate
from ..xtree.tree import Tree

__all__ = ["MIXMediator", "MediatorError", "MediatorWarning",
           "QueryResult"]


from ..errors import ReproError
from ..runtime.locks import make_lock

#: A per-source navigation meter (see :attr:`MIXMediator.meters`).
Meter = Union[CountingDocument, BufferMeter]


class MediatorError(ReproError):
    """Raised for catalog problems (unknown sources, name clashes)."""


class MediatorWarning(UserWarning):
    """Emitted for recoverable mediator anomalies (e.g. the optimizer
    returning a plan with a non-tupleDestroy root, which is discarded
    in favor of the initial plan)."""


class QueryResult:
    """Everything the mediator knows about one processed query,
    including its :class:`ExecutionContext` (config, caches, tracing)
    and a per-query baseline of the source navigation meters."""

    def __init__(self, mediator: "MIXMediator", plan: TupleDestroy,
                 initial_plan: TupleDestroy,
                 trace: Optional[OptimizationTrace],
                 document: VirtualDocument,
                 context: Optional[ExecutionContext] = None,
                 meter_baseline: Optional[Dict[str, NavCounters]] = None,
                 executed_plan: Optional[Operator] = None,
                 pushdown_decisions: Tuple = ()):
        self.mediator = mediator
        self.plan = plan
        self.initial_plan = initial_plan
        self.optimization_trace = trace
        self.document = document
        self.context = (context if context is not None
                        else ExecutionContext.create())
        self._meter_baseline = dict(meter_baseline or {})
        self._root: Optional[XMLElement] = None
        #: the static AnalysisReport when prepare() ran with analysis
        self.analysis = None
        #: the plan that actually executes: ``plan`` with accepted
        #: chains spliced as PushedSource leaves (== ``plan`` when the
        #: pushdown pass is off or pushed nothing)
        self.executed_plan = executed_plan if executed_plan is not None \
            else plan
        #: the pushdown pass's PushdownDecision records (empty when
        #: the pass did not run)
        self.pushdown_decisions = tuple(pushdown_decisions)

    @property
    def root(self) -> XMLElement:
        """The client handle to the virtual answer (free of source
        access until navigated)."""
        if self._root is None:
            self._root = open_virtual_document(self.document)
        return self._root

    def materialize(self) -> Tree:
        """Navigate the whole virtual answer into memory."""
        return materialize(self.document)

    def connect_remote(self, **kwargs):
        """Open a remote client session onto this query's virtual
        answer (Section 5's mediator/client split).

        Granularity and channel-cost defaults come from the engine
        config; the channel's stats register with the query context,
        so :meth:`stats` covers the wire traffic.  Returns the
        client-side root :class:`XMLElement` and the channel stats.
        """
        from ..client.remote import connect_remote
        kwargs.setdefault("clock", self.mediator.clock)
        return connect_remote(self.document, context=self.context,
                              **kwargs)

    # -- aggregated telemetry ---------------------------------------------
    def stats(self) -> dict:
        """One aggregated report for this query: source navigations
        (since ``prepare()``), per-cache hit/miss/eviction counts, and
        -- for remote sessions -- channel messages/bytes.
        """
        report = self.context.stats_report()
        per_source = {}
        total = NavCounters()
        for name, meter in sorted(self.mediator.meters.items()):
            counters = meter.counters
            baseline = self._meter_baseline.get(name)
            if baseline is not None:
                counters = counters - baseline
            per_source[name] = counters.as_dict()
            total = total + counters
        report["source_navigations"] = {
            "total": total.total,
            "per_source": per_source,
            "by_command": total.as_dict(),
        }
        if self.pushdown_decisions:
            report["pushdown"] = {
                "pushed": sum(1 for d in self.pushdown_decisions
                              if d.pushed),
                "decisions": [d.as_dict()
                              for d in self.pushdown_decisions],
            }
        fc_decisions = self.mediator.fragcache_decisions
        if fc_decisions:
            # Merge with the store counters the context contributed
            # (when the store was registered).
            section = dict(report.get("fragcache") or {})
            section["cached_sources"] = sum(
                1 for d in fc_decisions if d.cached)
            section["decisions"] = [d.as_dict()
                                    for d in fc_decisions]
            report["fragcache"] = section
        return report

    def profile(self):
        """Re-execute this query's plan once under full observation
        and return the :class:`~repro.navigation.profiler.
        NavigationProfile`.

        Builds a second virtual document over the same catalog with
        ``observe_operators`` forced on (the original document -- and
        its caches -- stay untouched), subscribes a collector to the
        session tracer, and materializes the whole answer.  The
        profile reports per-operator and whole-view client->source
        navigation amplification from the resulting span tree.
        """
        from ..navigation.profiler import NavigationProfile
        events = []
        tracer = self.mediator.tracer
        config = self.mediator.config.replace(observe_operators=True)
        context = ExecutionContext(config, tracer=tracer,
                                   metrics=self.mediator.runtime.metrics)
        context.adopt_registries(self.mediator.runtime)
        document = build_virtual_document(
            self.plan, self.mediator._resolver(), context)
        with tracer.subscribed(events.append):
            materialize(document)
        return NavigationProfile.from_events(events)

    def explain(self, analyze: bool = False,
                lint: bool = False) -> str:
        """A human-readable report: rewritten plan, rules fired,
        per-node browsability classification, and the aggregated
        runtime view (source navigations, cache behavior, wire
        traffic).

        With ``analyze=True``, additionally runs the query once under
        full observation (see :meth:`profile`) and appends the
        empirical browsability profile -- observed client->source
        amplification per operator and for the whole view.

        With ``lint=True``, appends the *static* diagnostics: the
        :class:`~repro.analysis.findings.AnalysisReport` attached by
        ``prepare(..., analyze=...)``, or a fresh analysis of this
        plan when none was requested at prepare time.
        """
        from ..rewriter.analyzer import classify_plan, explain_plan
        lines = ["plan:"]
        lines.append(self.plan.pretty())
        if self.optimization_trace is not None:
            fired = self.optimization_trace.applied
            lines.append("")
            lines.append("rewrites: %s"
                         % (", ".join(fired) if fired else "none"))
        lines.append("")
        lines.append("browsability: %s" % classify_plan(self.plan))
        lines.append("")
        lines.append(explain_plan(self.plan))
        if self.pushdown_decisions:
            lines.append("")
            lines.append("pushdown:")
            for decision in self.pushdown_decisions:
                lines.append("  %-6s %s: %s"
                             % ("pushed" if decision.pushed
                                else "kept", decision.url,
                                decision.detail))
        fc_decisions = self.mediator.fragcache_decisions
        if fc_decisions:
            lines.append("")
            lines.append("fragment cache:")
            for decision in fc_decisions:
                lines.append("  %-6s %s: %s"
                             % ("cached" if decision.cached
                                else "kept", decision.url,
                                decision.detail))
        lines.append("")
        lines.extend(self._stats_lines())
        if lint:
            report = self.analysis
            if report is None:
                from ..analysis import analyze_plan
                report = analyze_plan(
                    self.plan, config=self.mediator.config,
                    schemas=dict(self.mediator._schemas))
            lines.append("")
            lines.append("static diagnostics:")
            lines.extend("  " + line
                         for line in report.summary().splitlines())
        if analyze:
            profile = self.profile()
            lines.append("")
            lines.append("browsability profile (observed):")
            lines.extend("  " + line
                         for line in profile.summary().splitlines())
        return "\n".join(lines)

    def _stats_lines(self) -> list:
        stats = self.stats()
        caches = stats["caches"]
        lines = ["runtime:"]
        lines.append("  cache policy: %s, budget=%s"
                     % ("on" if caches["enabled"] else "off",
                        caches["budget"]))
        navigations = stats["source_navigations"]
        lines.append("  source navigations: %d" % navigations["total"])
        for name, counts in sorted(caches["caches"].items()):
            lines.append(
                "  cache %-22s hits=%-6d misses=%-6d evictions=%d"
                % (name, counts["hits"], counts["misses"],
                   counts["evictions"]))
        channels = stats.get("channels")
        if channels:
            lines.append("  channel: %d messages, %d bytes"
                         % (channels["messages"],
                            channels["bytes_transferred"]))
        resilience = stats.get("resilience")
        if resilience:
            lines.append(
                "  resilience: %d retries, %d giveups, %d degraded, "
                "%d breaker opens"
                % (resilience["retries"], resilience["giveups"],
                   resilience["degraded"],
                   resilience["breaker_opens"]))
        fragcache = stats.get("fragcache")
        if fragcache and "hits" in fragcache:
            lines.append(
                "  fragcache: %d hits, %d misses, %d invalidations, "
                "%d view adoptions"
                % (fragcache["hits"], fragcache["misses"],
                   fragcache["invalidations"],
                   fragcache["view_adoptions"]))
        return lines


class MIXMediator:
    """A MIX mediator instance over a catalog of sources and views.

    Configure it with one :class:`EngineConfig`::

        MIXMediator(EngineConfig(cache_budget=256, use_sigma=True))
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 tracer: Optional[Tracer] = None,
                 clock: Optional[Clock] = None):
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise TypeError(
                "config must be an EngineConfig, got %r (the pre-"
                "runtime boolean keywords were removed; pass "
                "MIXMediator(EngineConfig(...)))" % (config,))
        self.config = config
        self.tracer = tracer if tracer is not None else Tracer()
        if config.trace_sample_rate < 1.0 and self.tracer.configured:
            # Head-based sampling: one deterministic verdict per
            # trace id, decided before any span is minted, so the
            # sampled-out path never pays span-bookkeeping cost.
            self.tracer.ensure_trace_id()
            self.tracer.sample(config.trace_sample_rate)
        #: time source for retry backoff and breaker windows (tests
        #: inject a fake clock so nothing really sleeps)
        self.clock = clock
        #: session-level context: buffers registered at source
        #: registration time report through it
        self.runtime = ExecutionContext(config, tracer=self.tracer)
        self._documents: Dict[str, NavigableDocument] = {}
        self._meters: Dict[str, Meter] = {}
        self._views: Dict[str, TupleDestroy] = {}
        #: raw (pre-resilience, pre-buffer) LXP servers advertising
        #: the push capability, keyed by source name -- what the
        #: pushdown compiler pass negotiates with
        self._pushables: Dict[str, LXPServer] = {}
        #: source schema knowledge for the static analyzer (sample
        #: Tree / InferredDTD / SchemaGraph, see register_schema)
        self._schemas: Dict[str, object] = {}
        #: one FragcacheDecision per wrapper registered while
        #: ``config.fragment_cache`` is on (empty otherwise): the
        #: compile-time admissibility record, surfaced through
        #: ``QueryResult.stats()``/``explain()``
        self._fragcache_decisions: List = []
        #: serializes catalog registration: concurrent sessions may
        #: register sources on a shared mediator, and the name-clash
        #: check must be atomic with the insert
        self._catalog_lock = make_lock("mediator.catalog")

    # -- config compatibility views ----------------------------------------
    @property
    def optimize_plans(self) -> bool:
        """Whether the rewriting phase runs (from config)."""
        return self.config.optimize_plans

    @property
    def cache_enabled(self) -> bool:
        """Whether operator caches are on (from config)."""
        return self.config.cache_enabled

    @property
    def use_sigma(self) -> bool:
        """Whether select(sigma) pushdown is on (from config)."""
        return self.config.use_sigma

    @property
    def hybrid(self) -> bool:
        """Whether the optimizer may insert eager steps (from
        config)."""
        return self.config.hybrid

    def _new_context(self) -> ExecutionContext:
        """A fresh per-query execution context (shared tracer), seeded
        with the session-level wrapper registrations so per-query
        ``stats()`` reports cover buffer and resilience counters."""
        context = ExecutionContext(self.config, tracer=self.tracer,
                                   metrics=self.runtime.metrics)
        context.adopt_registries(self.runtime)
        return context

    # -- catalog -----------------------------------------------------------
    def register_source(self, name: str,
                        document: NavigableDocument,
                        meter: bool = True) -> None:
        """Register a navigable source under ``name``.

        With ``meter=True`` a counting proxy is interposed so per-source
        navigation statistics are available from :attr:`meters`.
        """
        counted: Optional[CountingDocument] = None
        if meter:
            counted = CountingDocument(document, name=name,
                                       tracer=self.tracer,
                                       metrics=self.runtime.metrics)
            document = counted
        self._add_source(name, document, counted)

    def _add_source(self, name: str, document: NavigableDocument,
                    meter: Optional[Meter]) -> None:
        with self._catalog_lock:
            self._check_free(name)
            if meter is not None:
                self._meters[name] = meter
            self._documents[name] = document
        self.tracer.emit("mediator", "register_source", name=name)

    def register_schema(self, name: str, schema) -> None:
        """Declare what source ``name``'s documents look like.

        ``schema`` may be a sample :class:`~repro.xtree.tree.Tree`, an
        :class:`~repro.xmas.dtd.InferredDTD`, or a ready
        :class:`~repro.analysis.schema.SchemaGraph`.  Schema knowledge
        is only consulted by the static analyzer
        (``prepare(..., analyze=...)``): it enables the
        unsatisfiable-path / typo / dead-join checks for this source.
        Execution never reads it.
        """
        with self._catalog_lock:
            self._schemas[name] = schema

    def register_wrapper(self, name: str, server: LXPServer,
                         prefetch: Optional[int] = None,
                         meter: bool = True) -> None:
        """Register an LXP wrapper, stacked under the generic buffer.

        ``prefetch`` defaults to the engine config's buffer lookahead.
        With ``meter=True`` the buffer itself is the source's meter
        (:attr:`meters`): it counts and publishes its commands, so no
        counting proxy sits on the navigation path.

        When the engine config's resilience is active (retries, a
        retry deadline, or degrade mode), the wrapper is hardened
        behind a :class:`~repro.runtime.resilience.ResilientLXPServer`
        before the buffer stacks on top: every ``fill`` the buffer
        issues gets the retry/breaker/degradation treatment, and the
        per-source counters surface through ``QueryResult.stats()``.

        A wrapper advertising the push capability (``push_compile``,
        see :mod:`repro.wrappers.base`) is additionally recorded for
        the pushdown compiler pass; with ``config.pushdown`` off the
        record is never consulted.

        With ``config.fragment_cache`` on, an *admissible* wrapper
        (versioned snapshots, no side effects, browsable export --
        see :func:`repro.runtime.fragcache.admissible`) is routed
        through the process-wide fragment store: fills consult the
        store before touching the source, and when the store already
        holds the complete view at the wrapper's current snapshot
        version the source is adopted as a pre-filled buffer without
        a single source navigation.  The caching seam sits *below*
        the resilience layer, so degraded ``<mix:error>``
        placeholders are never cached.
        """
        if prefetch is None:
            prefetch = self.config.prefetch
        raw_server = server
        stats = getattr(server, "stats", None)
        if stats is not None and hasattr(stats, "metrics"):
            # Wire the LXP fragment meter into the session metrics so
            # fills/bytes shipped by this wrapper land in the registry.
            stats.metrics = self.runtime.metrics
            stats.source = name
        prefill_tree = None
        if self.config.fragment_cache:
            # Deferred import: with the default off, the fragment
            # cache module is never even loaded.
            from ..runtime.fragcache import fragment_cached, \
                shared_store
            store = shared_store()
            server, prefill_tree, decision = fragment_cached(
                name, server, store=store, tracer=self.tracer)
            self.runtime.register_fragcache(store.stats)
            with self._catalog_lock:
                self._fragcache_decisions.append(decision)
        server = resilient_server(server, self.config, name=name,
                                  clock=self.clock,
                                  tracer=self.tracer,
                                  context=self.runtime)
        if prefill_tree is not None:
            buffer = BufferComponent.prefilled(
                prefill_tree, tracer=self.tracer, name=name)
        else:
            buffer = buffered(server, prefetch,
                              workers=self.config.prefetch_workers,
                              batch=self.config.batch_navigations,
                              tracer=self.tracer, name=name)
        self.runtime.register_buffer(name, buffer.stats)
        # The buffer is the source's meter: no proxy layer on top.
        self._add_source(name, buffer,
                         buffer.meter(self.tracer, self.runtime.metrics)
                         if meter else None)
        if hasattr(raw_server, "push_compile"):
            with self._catalog_lock:
                self._pushables[name] = raw_server

    def register_view(self, name: str,
                      query: Union[str, XMASQuery, TupleDestroy],
                      as_source: bool = False) -> None:
        """Register a named XMAS view.

        ``as_source=False`` (default): queries naming the view compose
        with it algebraically (one optimizable plan).
        ``as_source=True``: the view is evaluated as its own lazy
        mediator tower and exposed like a wrapped source (Figure 1
        stacking).
        """
        plan = self._plan_of(query)
        if as_source:
            document = build_virtual_document(
                plan, self._resolver(), self._new_context())
            with self._catalog_lock:
                self._check_free(name)
                self._documents[name] = document
        else:
            with self._catalog_lock:
                self._check_free(name)
                self._views[name] = plan

    def _check_free(self, name: str) -> None:
        if name in self._documents or name in self._views:
            raise MediatorError("name %r is already registered" % name)

    @property
    def fragcache_decisions(self) -> Tuple:
        """The admissibility decisions of every wrapper registered
        under ``config.fragment_cache`` (empty when the cache is
        off)."""
        with self._catalog_lock:
            return tuple(self._fragcache_decisions)

    @property
    def meters(self) -> Dict[str, Meter]:
        """Per-source navigation meters (when registered with
        meter=True): a :class:`CountingDocument` over each
        :meth:`register_source` document, the buffer's own
        :class:`~repro.buffer.component.BufferMeter` for each
        :meth:`register_wrapper` source."""
        return self._meters

    def total_source_navigations(self) -> int:
        return sum(m.total for m in self._meters.values())

    def reset_meters(self) -> None:
        for meter in self._meters.values():
            meter.reset()

    # -- query processing ---------------------------------------------------
    def _plan_of(self, query: Union[str, XMASQuery, TupleDestroy]
                 ) -> TupleDestroy:
        if isinstance(query, str):
            query = parse_xmas(query)
        if isinstance(query, XMASQuery):
            return translate(query)
        return query

    def _resolver(self):
        documents = self._documents

        def resolve(url: str) -> NavigableDocument:
            try:
                return documents[url]
            except KeyError:
                raise MediatorError(
                    "no source registered for %r (have: %s)"
                    % (url, ", ".join(sorted(documents)) or "none")
                ) from None

        return resolve

    def prepare(self, query: Union[str, XMASQuery, TupleDestroy],
                analyze: Optional[str] = None) -> QueryResult:
        """Run preprocessing + rewriting and build the lazy plan.

        Returns a QueryResult whose ``root`` is the virtual answer
        handle; no source is touched yet.  The result carries a fresh
        :class:`ExecutionContext` holding this query's caches and
        tracing hooks.

        ``analyze`` runs the static plan analyzer over the plan that
        will execute (default: ``config.static_analysis``):

        * ``"off"`` -- skip (the analyzer is not even imported);
        * ``"static"`` -- attach the :class:`~repro.analysis.findings.
          AnalysisReport` as ``result.analysis`` and raise
          :class:`~repro.errors.StaticAnalysisError` on *error*
          findings;
        * ``"strict"`` -- additionally raise on warnings.
        """
        context = self._new_context()
        context.trace("mediator", "prepare.begin")
        initial = self._plan_of(query)
        if self._views:
            initial = inline_views(initial, self._views)
        self._validate_sources(initial)
        plan = initial
        trace = None
        if self.config.optimize_plans:
            plan, trace = optimize(initial, hybrid=self.config.hybrid)
            context.trace("mediator", "optimize",
                          applied=tuple(trace.applied) if trace else ())
            if not isinstance(plan, TupleDestroy):
                # The optimizer must preserve the tupleDestroy root; a
                # different root means a rewrite rule misfired.  Fall
                # back to the initial plan, but loudly: silently
                # swallowing the anomaly hid real rule bugs.
                warnings.warn(
                    "optimizer returned a %s-rooted plan instead of "
                    "tupleDestroy; discarding the rewrite and using "
                    "the initial plan"
                    % type(plan).__name__,
                    MediatorWarning, stacklevel=2)
                context.trace("mediator", "optimizer.discarded_result",
                              got=type(plan).__name__)
                plan = initial
        report = self._analyze_plan(plan, analyze, context)
        executed: Operator = plan
        decisions: List = []
        if self.config.pushdown and self._pushables:
            from ..pushdown.compiler import compile_pushdown
            with context.span("pushdown", "compile"):
                executed, decisions = compile_pushdown(
                    plan, dict(self._pushables), context)
        document = build_virtual_document(
            executed, self._resolver(), context)
        baseline = {name: meter.counters.snapshot()
                    for name, meter in self._meters.items()}
        context.trace("mediator", "prepare.end")
        result = QueryResult(self, plan, initial, trace, document,
                             context=context, meter_baseline=baseline,
                             executed_plan=executed,
                             pushdown_decisions=tuple(decisions))
        result.analysis = report
        return result

    def _analyze_plan(self, plan: TupleDestroy,
                      analyze: Optional[str],
                      context: ExecutionContext):
        """Run the static analyzer when requested; returns the report
        (or None when analysis is off).  Raises StaticAnalysisError
        when the mode rejects the plan.  The import is deferred so the
        default path never loads the analysis package."""
        mode = analyze if analyze is not None \
            else self.config.static_analysis
        if mode == "off":
            return None
        if mode not in ("static", "strict"):
            raise MediatorError(
                "analyze must be 'off', 'static' or 'strict', not %r"
                % (mode,))
        from ..analysis import analyze_plan
        from ..errors import StaticAnalysisError
        report = analyze_plan(plan, config=self.config,
                              schemas=dict(self._schemas))
        context.trace("mediator", "static_analysis",
                      verdict=report.verdict,
                      errors=len(report.errors),
                      warnings=len(report.warnings))
        rejected = report.errors or (mode == "strict"
                                     and report.warnings)
        if rejected:
            raise StaticAnalysisError(
                "static analysis rejected the plan (%d error(s), "
                "%d warning(s)):\n%s"
                % (len(report.errors), len(report.warnings),
                   report.summary()),
                report=report)
        return report

    def query(self, query: Union[str, XMASQuery, TupleDestroy],
              analyze: Optional[str] = None) -> XMLElement:
        """The client entry point: an XMLElement root handle over the
        virtual answer document.

        ``analyze="static"`` vets the plan with the static analyzer
        first (see :meth:`prepare`); hostile or broken views are
        rejected before any source is touched.
        """
        return self.prepare(query, analyze=analyze).root

    def query_eager(self, query: Union[str, XMASQuery, TupleDestroy]
                    ) -> Tree:
        """The materializing baseline: evaluate the full answer at
        once (what "current mediator systems" do, per the paper)."""
        initial = self._plan_of(query)
        if self._views:
            initial = inline_views(initial, self._views)
        self._validate_sources(initial)

        def tree_of(url: str) -> Tree:
            return materialize(self._resolver()(url))

        return evaluate(initial, tree_of)

    def _validate_sources(self, plan: Operator) -> None:
        for node in walk_plan(plan):
            if isinstance(node, Source) \
                    and node.url not in self._documents:
                raise MediatorError(
                    "query references unregistered source %r (have: %s)"
                    % (node.url,
                       ", ".join(sorted(self._documents)) or "none"))
