"""The cache registry: every operator cache under one budgeted roof.

The paper notes "the mediator is not completely stateless; some
operators perform much more efficiently by caching parts of their
input" (Section 3).  Those caches -- getDescendants' frontier memos,
the nested-loop join's inner cache (footnote 9), groupBy's ``G_prev``,
the selection verdict memo -- used to be anonymous dicts scattered
through the operators.  :class:`CacheManager` registers them all in
one place, with

* per-cache hit/miss/eviction counters (one aggregated report),
* a global entry budget with LRU eviction across all *memo* caches,
* a single enable/disable switch (the E7 ablation toggle).

Two cache kinds exist:

``memo`` (the default)
    Pure memoization, re-derivable from structured node-ids (paper
    Fig. 5): safe to evict at any time and bypassed entirely when
    caching is disabled.  Only memo entries count against the budget.

``state``
    Evaluation state the operator semantics rely on (groupBy's
    ``G_prev`` group registry, an explicit Materialize buffer): always
    on, never evicted, reported but exempt from the budget.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional
from .locks import make_rlock

__all__ = ["MISS", "CacheStats", "ManagedCache", "CacheManager"]


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISS"


#: Returned by :meth:`ManagedCache.get` when the key is absent (a
#: cached value may legitimately be ``None``).
MISS = _Miss()


@dataclass
class CacheStats:
    """Counters for one registered cache (or one aggregated label)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Sum two counter sets (aggregation by label)."""
        return CacheStats(self.hits + other.hits,
                          self.misses + other.misses,
                          self.evictions + other.evictions,
                          self.entries + other.entries)

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": self.entries}


class ManagedCache:
    """One registered cache: a dict-like memo owned by a manager.

    ``get``/``put`` count hits and misses; ``peek`` is a stats-silent
    probe for internal bookkeeping (it still refreshes recency).  When
    the manager is disabled, a *memo* cache is a full bypass: ``get``
    always returns the default (uncounted) and ``put`` is a no-op --
    exactly the old ``cache_enabled=False`` behaviour.  *State* caches
    ignore the switch.
    """

    __slots__ = ("manager", "name", "kind", "stats", "_data", "_id")

    def __init__(self, manager: "CacheManager", name: str, kind: str,
                 cache_id: int) -> None:
        if kind not in ("memo", "state"):
            raise ValueError("unknown cache kind %r" % kind)
        self.manager = manager
        self.name = name
        self.kind = kind
        self.stats = CacheStats()
        self._data: Dict[Hashable, object] = {}
        self._id = cache_id

    @property
    def active(self) -> bool:
        return self.kind == "state" or self.manager.enabled

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable, default: object = MISS) -> object:
        """The cached value for ``key``, else ``default`` (counted)."""
        if not self.active:
            return default
        manager = self.manager
        with manager._lock:
            if key in self._data:
                self.stats.hits += 1
                if manager.budget is not None:
                    manager._touch(self, key)
                return self._data[key]
            self.stats.misses += 1
            return default

    def peek(self, key: Hashable, default: object = MISS) -> object:
        """Like :meth:`get` but without touching the counters."""
        if not self.active:
            return default
        manager = self.manager
        with manager._lock:
            if key not in self._data:
                return default
            if manager.budget is not None:
                manager._touch(self, key)
            return self._data[key]

    def put(self, key: Hashable, value: object) -> None:
        """Store ``key`` -> ``value`` (may trigger evictions)."""
        if not self.active:
            return
        manager = self.manager
        with manager._lock:
            fresh = key not in self._data
            self._data[key] = value
            if fresh:
                self.stats.entries += 1
            budget = manager.budget
            if budget is not None:
                manager._on_insert(self, key, budget)

    def _evict(self, key: Hashable) -> None:
        del self._data[key]
        self.stats.entries -= 1
        self.stats.evictions += 1


class CacheManager:
    """The per-query registry of every operator cache.

    ``budget`` bounds the number of live *memo* entries across all
    registered caches; inserting past the budget evicts the globally
    least-recently-used memo entry.  Without a budget nothing is ever
    evicted, so no recency is tracked at all.  ``enabled=False`` turns
    every memo cache into a bypass (state caches keep working -- they
    are semantics, not optimization).

    One re-entrant lock serializes all lookups, inserts, LRU motion
    and evictions: prefetch workers and fan-out threads hit the same
    registry as the client thread, and an eviction decision must see
    a consistent LRU.
    """

    def __init__(self, budget: Optional[int] = None,
                 enabled: bool = True) -> None:
        if budget is not None and budget < 0:
            raise ValueError("budget must be >= 0 or None")
        self.budget = budget
        self.enabled = enabled
        self._caches: List[ManagedCache] = []
        #: global LRU over memo entries, kept only under a budget:
        #: (cache id, key) -> None
        self._lru: "OrderedDict" = OrderedDict()
        self.evictions = 0
        self._lock = make_rlock("cache.manager")

    # -- registration -----------------------------------------------------
    def cache(self, name: str, kind: str = "memo") -> ManagedCache:
        """Register (and return) a new cache under ``name``.

        Multiple registrations may share a name (one per operator
        instance); :meth:`report` aggregates them by name.
        """
        with self._lock:
            managed = ManagedCache(self, name, kind, len(self._caches))
            self._caches.append(managed)
            return managed

    # -- LRU bookkeeping (only under a budget) -----------------------------
    def _touch(self, cache: ManagedCache, key: Hashable) -> None:
        if cache.kind != "memo":
            return
        token = (cache._id, key)
        if token in self._lru:
            self._lru.move_to_end(token)

    def _on_insert(self, cache: ManagedCache, key: Hashable,
                   budget: int) -> None:
        if cache.kind != "memo":
            return
        token = (cache._id, key)
        if token in self._lru:
            self._lru.move_to_end(token)
        else:
            self._lru[token] = None
        while len(self._lru) > budget:
            cache_id, victim = self._lru.popitem(last=False)[0]
            self._caches[cache_id]._evict(victim)
            self.evictions += 1

    # -- reporting ---------------------------------------------------------
    @property
    def memo_entries(self) -> int:
        """Live memo entries (the budgeted quantity)."""
        with self._lock:
            return sum(len(c) for c in self._caches if c.kind == "memo")

    @property
    def state_entries(self) -> int:
        return sum(len(c) for c in self._caches if c.kind == "state")

    def report(self) -> "Dict[str, CacheStats]":
        """Counters aggregated by cache name."""
        with self._lock:
            merged: Dict[str, CacheStats] = {}
            for cache in self._caches:
                if cache.name in merged:
                    merged[cache.name] = merged[cache.name].merge(
                        cache.stats)
                else:
                    merged[cache.name] = cache.stats.merge(CacheStats())
            return merged

    def totals(self) -> CacheStats:
        """All counters summed over every registered cache."""
        with self._lock:
            total = CacheStats()
            for cache in self._caches:
                total = total.merge(cache.stats)
            return total

    def as_dict(self) -> dict:
        """The full registry report as plain dicts (for stats/JSON)."""
        return {
            "enabled": self.enabled,
            "budget": self.budget,
            "memo_entries": self.memo_entries,
            "state_entries": self.state_entries,
            "evictions": self.evictions,
            "caches": {name: stats.as_dict()
                       for name, stats in sorted(self.report().items())},
        }
