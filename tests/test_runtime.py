"""The runtime spine: EngineConfig, CacheManager, Tracer,
ExecutionContext, and the mediator-facing surfaces built on them
(constructor contract, optimizer safety net, aggregated stats)."""

import pytest

from repro.algebra import GetDescendants, Source
from repro.mediator import MediatorWarning, MIXMediator
from repro.runtime import (
    MISS,
    CacheManager,
    CacheStats,
    ConfigError,
    EngineConfig,
    ExecutionContext,
    Tracer,
)
from repro.wrappers import XMLFileWrapper
from repro.xtree import to_xml

from .fixtures import expected_fig4_answer

HOMES_XML = """
<homes>
  <home><addr>La Jolla</addr><zip>91220</zip></home>
  <home><addr>El Cajon</addr><zip>91223</zip></home>
</homes>"""

SCHOOLS_XML = """
<schools>
  <school><dir>Smith</dir><zip>91220</zip></school>
  <school><dir>Bar</dir><zip>91220</zip></school>
  <school><dir>Hart</dir><zip>91223</zip></school>
</schools>"""

FIG4_QUERY = """
CONSTRUCT <answer>
            <med_home> $H $S {$S} </med_home> {$H}
          </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
"""


def example2_mediator(config=None):
    med = MIXMediator(config)
    med.register_wrapper("homesSrc",
                         XMLFileWrapper("homesSrc", HOMES_XML))
    med.register_wrapper("schoolsSrc",
                         XMLFileWrapper("schoolsSrc", SCHOOLS_XML))
    return med


# ----------------------------------------------------------------------
# EngineConfig
# ----------------------------------------------------------------------

class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.optimize_plans and config.cache_enabled
        assert not config.use_sigma and not config.hybrid
        assert config.cache_budget is None
        assert config.chunk_size == 10

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().cache_enabled = False

    def test_replace_returns_new_validated_instance(self):
        base = EngineConfig()
        variant = base.replace(cache_budget=4, use_sigma=True)
        assert variant.cache_budget == 4 and variant.use_sigma
        assert base.cache_budget is None  # original untouched
        with pytest.raises(ConfigError):
            base.replace(cache_budget=-1)

    @pytest.mark.parametrize("bad", [
        {"cache_budget": -5}, {"chunk_size": 0}, {"depth": 0},
        {"prefetch": -1}, {"latency_ms": -1.0}, {"ms_per_kb": -0.5},
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            EngineConfig(**bad)

    def test_as_dict_round_trips(self):
        config = EngineConfig(cache_budget=7, hybrid=True)
        assert EngineConfig(**config.as_dict()) == config


# ----------------------------------------------------------------------
# CacheManager
# ----------------------------------------------------------------------

class TestCacheManager:
    def test_hit_miss_counters(self):
        caches = CacheManager()
        memo = caches.cache("m")
        assert memo.get("a") is MISS
        memo.put("a", 1)
        assert memo.get("a") == 1
        assert memo.stats.hits == 1 and memo.stats.misses == 1
        assert memo.stats.hit_rate == 0.5

    def test_miss_sentinel_distinguishes_cached_none(self):
        memo = CacheManager().cache("m")
        memo.put("k", None)
        assert memo.get("k") is None
        assert memo.get("other") is MISS

    def test_budget_evicts_lru_across_caches(self):
        caches = CacheManager(budget=2)
        a, b = caches.cache("a"), caches.cache("b")
        a.put(1, "x")
        b.put(1, "y")
        assert a.get(1) == "x"      # refresh a's entry
        b.put(2, "z")               # evicts b:1, the global LRU
        assert b.get(1) is MISS
        assert a.get(1) == "x" and b.get(2) == "z"
        assert caches.evictions == 1
        assert caches.memo_entries <= 2

    def test_state_caches_pinned_and_unbudgeted(self):
        caches = CacheManager(budget=1)
        state = caches.cache("s", kind="state")
        memo = caches.cache("m")
        for i in range(5):
            state.put(i, i)
        memo.put("only", 1)
        assert caches.memo_entries == 1
        assert caches.state_entries == 5
        assert all(state.get(i) == i for i in range(5))
        assert state.stats.evictions == 0

    def test_disabled_memo_is_full_bypass_but_state_works(self):
        caches = CacheManager(enabled=False)
        memo = caches.cache("m")
        state = caches.cache("s", kind="state")
        memo.put("k", 1)
        assert memo.get("k") is MISS is memo.peek("k")
        assert memo.stats.lookups == 0  # bypass is uncounted
        state.put("k", 2)
        assert state.get("k") == 2

    def test_peek_is_stats_silent(self):
        memo = CacheManager().cache("m")
        memo.put("k", 1)
        assert memo.peek("k") == 1 and memo.peek("nope") is MISS
        assert memo.stats.lookups == 0

    def test_report_aggregates_by_name(self):
        caches = CacheManager()
        first, second = caches.cache("join.inner"), caches.cache("join.inner")
        first.put(1, "a")
        second.put(2, "b")
        second.get(2)
        report = caches.report()
        assert report["join.inner"].entries == 2
        assert report["join.inner"].hits == 1
        assert caches.totals().entries == 2
        assert set(caches.as_dict()) >= {"enabled", "budget", "caches",
                                         "memo_entries", "evictions"}

    @pytest.mark.parametrize("budget", [None, 2, 100])
    def test_memo_entries_counts_live_memo_entries(self, budget):
        caches = CacheManager(budget=budget)
        a, b = caches.cache("a"), caches.cache("b")
        state = caches.cache("s", kind="state")
        for key in range(3):
            a.put(key, key)
            b.put(key, key)
            state.put(key, key)
        a.put(0, "again")           # overwrite: no new entry
        live = len(a) + len(b)
        assert caches.memo_entries == live
        assert live == (6 if budget is None else min(budget, 6))
        assert caches.as_dict()["memo_entries"] == live
        assert caches.state_entries == 3

    def test_unbudgeted_manager_keeps_no_recency(self):
        caches = CacheManager()
        memo = caches.cache("m")
        memo.put("k", 1)
        assert memo.get("k") == 1 and memo.peek("k") == 1
        assert caches.memo_entries == 1 and caches.evictions == 0
        assert len(caches._lru) == 0

    def test_stats_merge(self):
        merged = CacheStats(hits=1, misses=2).merge(
            CacheStats(hits=3, evictions=4))
        assert (merged.hits, merged.misses, merged.evictions) == (4, 2, 4)


# ----------------------------------------------------------------------
# Tracer + ExecutionContext
# ----------------------------------------------------------------------

class TestTracer:
    def test_idle_tracer_is_inactive(self):
        tracer = Tracer()
        assert not tracer.active
        tracer.emit("x", "y")       # no-op
        assert tracer.events == []

    def test_active_tracks_every_input(self):
        tracer = Tracer()
        assert tracer.active is False

        def callback(event):
            pass

        tracer.subscribe(callback)
        assert tracer.active is True
        tracer.unsubscribe(callback)
        assert tracer.active is False
        with tracer.subscribed(callback):
            assert tracer.active is True
        assert tracer.active is False
        tracer.record = True
        assert tracer.active is True and tracer.record
        tracer.record = False
        assert tracer.active is False
        recording = Tracer(record=True)
        assert recording.active is True
        recording.sampled = False
        assert recording.active is False and recording.configured
        recording.sampled = True
        assert recording.active is True

    def test_sample_decides_active(self):
        tracer = Tracer(record=True, trace_id="fixed")
        assert tracer.sample(0.0) is False
        assert tracer.active is False
        assert tracer.sample(1.0) is True
        assert tracer.active is True

    def test_subscribe_and_record(self):
        tracer = Tracer(record=True)
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit("source", "down", source="homesSrc")
        assert seen[0].layer == "source"
        assert tracer.events[0].data == {"source": "homesSrc"}
        assert "source.down" in str(tracer.events[0])

    def test_span_emits_begin_end(self):
        tracer = Tracer(record=True)
        with tracer.span("mediator", "prepare"):
            pass
        assert [e.event for e in tracer.events] \
            == ["prepare.begin", "prepare.end"]

    def test_unsubscribe_stops_delivery(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit("x", "one")
        tracer.unsubscribe(seen.append)
        tracer.emit("x", "two")
        assert [e.event for e in seen] == ["one"]
        assert not tracer.active

    def test_unsubscribe_unknown_callback_raises(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="not subscribed"):
            tracer.unsubscribe(lambda event: None)

    def test_double_unsubscribe_raises(self):
        tracer = Tracer()
        callback = lambda event: None  # noqa: E731
        tracer.subscribe(callback)
        tracer.unsubscribe(callback)
        with pytest.raises(ValueError, match="not subscribed"):
            tracer.unsubscribe(callback)

    def test_reentrant_callback_may_emit(self):
        """A subscriber may navigate, which may emit again -- the
        tracer must not hold its lock across callbacks."""
        tracer = Tracer(record=True)

        def echo(event):
            if event.layer != "echo":
                tracer.emit("echo", event.event)

        tracer.subscribe(echo)
        tracer.emit("source", "down")
        assert [(e.layer, e.event) for e in tracer.events] \
            == [("source", "down"), ("echo", "down")]

    def test_concurrent_emitters_lose_no_events(self):
        import threading

        tracer = Tracer(record=True)
        seen = []
        tracer.subscribe(seen.append)
        n, per = 8, 200

        def emitter(index):
            for i in range(per):
                tracer.emit("worker", "tick", worker=index, i=i)

        threads = [threading.Thread(target=emitter, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(tracer.events) == n * per
        assert len(seen) == n * per

    def test_concurrent_subscribe_unsubscribe_during_emit(self):
        import threading

        tracer = Tracer(record=True)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                callback = lambda event: None  # noqa: E731
                tracer.subscribe(callback)
                tracer.unsubscribe(callback)

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            for i in range(2000):
                tracer.emit("x", "tick", i=i)
        finally:
            stop.set()
            churner.join(timeout=30)
        assert len(tracer.events) == 2000


class TestExecutionContext:
    def test_create_with_overrides(self):
        ctx = ExecutionContext.create(cache_enabled=False, cache_budget=3)
        assert not ctx.config.cache_enabled
        assert ctx.caches.budget == 3 and not ctx.caches.enabled

    def test_stats_report_shape(self):
        ctx = ExecutionContext.create()
        report = ctx.stats_report()
        assert set(report) == {"config", "caches"}
        assert report["config"]["cache_enabled"] is True


# ----------------------------------------------------------------------
# Mediator integration
# ----------------------------------------------------------------------

class TestConstructorContract:
    def test_config_object_is_the_only_configuration_channel(self):
        med = MIXMediator(
            EngineConfig(cache_enabled=False, use_sigma=True))
        assert not med.config.cache_enabled and med.config.use_sigma
        assert not med.cache_enabled and med.use_sigma  # read views

    def test_legacy_positional_bool_rejected(self):
        # The pre-runtime MIXMediator(optimize_plans) signature (and
        # its deprecation shim) are gone: only an EngineConfig works.
        with pytest.raises(TypeError, match="EngineConfig"):
            MIXMediator(False)

    def test_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError):
            MIXMediator(cache_enabled=False)
        with pytest.raises(TypeError):
            MIXMediator(chunk_size=5)


class TestOptimizerSafetyNet:
    def test_non_tupledestroy_rewrite_warns_and_falls_back(
            self, monkeypatch):
        bogus = GetDescendants(Source("homesSrc", "R"), "R", "x", "Y")
        monkeypatch.setattr("repro.mediator.mix.optimize",
                            lambda plan, hybrid=False: (bogus, None))
        med = example2_mediator()
        with pytest.warns(MediatorWarning, match="tupleDestroy"):
            result = med.prepare(FIG4_QUERY)
        # The rewrite was discarded: the initial plan evaluates.
        assert result.plan is result.initial_plan
        assert to_xml(result.materialize()) \
            == to_xml(expected_fig4_answer())

    def test_discard_is_traced(self, monkeypatch):
        bogus = GetDescendants(Source("homesSrc", "R"), "R", "x", "Y")
        monkeypatch.setattr("repro.mediator.mix.optimize",
                            lambda plan, hybrid=False: (bogus, None))
        tracer = Tracer(record=True)
        med = MIXMediator(tracer=tracer)
        med.register_wrapper("homesSrc",
                             XMLFileWrapper("homesSrc", HOMES_XML))
        med.register_wrapper("schoolsSrc",
                             XMLFileWrapper("schoolsSrc", SCHOOLS_XML))
        with pytest.warns(MediatorWarning):
            med.prepare(FIG4_QUERY)
        assert any(e.event == "optimizer.discarded_result"
                   for e in tracer.events)


class TestQueryResultStats:
    def test_aggregated_report(self):
        med = example2_mediator()
        result = med.prepare(FIG4_QUERY)
        result.materialize()
        stats = result.stats()
        assert set(stats) >= {"config", "caches", "source_navigations"}
        navigations = stats["source_navigations"]
        assert navigations["total"] > 0
        assert set(navigations["per_source"]) \
            == {"homesSrc", "schoolsSrc"}
        by_command = navigations["by_command"]
        assert by_command["total"] == navigations["total"]
        assert sum(v for k, v in by_command.items() if k != "total") \
            == navigations["total"]
        caches = stats["caches"]["caches"]
        assert "join.inner" in caches and "groupBy.G_prev" in caches
        assert caches["join.inner"]["hits"] > 0

    def test_meters_count_since_prepare(self):
        med = example2_mediator()
        first = med.prepare(FIG4_QUERY)
        first.materialize()
        spent = first.stats()["source_navigations"]["total"]
        assert spent > 0
        # A later query starts from a zero delta, not the session total.
        second = med.prepare(FIG4_QUERY)
        assert second.stats()["source_navigations"]["total"] == 0
        second.materialize()
        assert second.stats()["source_navigations"]["total"] == spent

    def test_remote_session_traffic_in_stats(self):
        med = example2_mediator()
        result = med.prepare(FIG4_QUERY)
        root, channel_stats = result.connect_remote(chunk_size=2)
        root.to_tree()
        stats = result.stats()
        assert stats["channels"]["messages"] == channel_stats.messages
        assert stats["channels"]["bytes_transferred"] > 0
        assert "remote#1" in stats["channels"]["per_channel"]

    def test_explain_includes_runtime_block(self):
        med = example2_mediator()
        result = med.prepare(FIG4_QUERY)
        result.materialize()
        text = result.explain()
        assert "runtime:" in text
        assert "source navigations:" in text
        assert "cache policy: on" in text

    def test_source_tracer_events(self):
        tracer = Tracer(record=True)
        med = MIXMediator(tracer=tracer)
        med.register_wrapper("homesSrc",
                             XMLFileWrapper("homesSrc", HOMES_XML))
        med.register_wrapper("schoolsSrc",
                             XMLFileWrapper("schoolsSrc", SCHOOLS_XML))
        med.prepare(FIG4_QUERY).materialize()
        layers = {e.layer for e in tracer.events}
        assert {"mediator", "source"} <= layers
        assert any(e.event == "prepare.begin" for e in tracer.events)
