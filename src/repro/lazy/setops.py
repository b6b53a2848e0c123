"""Lazy set/list operators: union, difference, distinct.

* ``union`` is fully lazy: left bindings first, then right.
* ``difference`` must know the complete right side before emitting
  anything (value-level anti-join) -- unbrowsable on its right input.
* ``distinct`` is browsable: it streams the left input, skipping
  bindings whose canonical value key was already seen (the seen-set is
  the operator's cache, grown as the client navigates).
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..runtime.cache import MISS
from ..runtime.context import ExecutionContext
from .base import LazyError, LazyOperator, canonical_key_of

__all__ = ["LazyUnion", "LazyDifference", "LazyDistinct"]


class LazyUnion(LazyOperator):
    """Left bindings followed by right bindings (same schema)."""

    def __init__(self, left: LazyOperator, right: LazyOperator,
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        if left.variables != right.variables:
            raise LazyError(
                "union schemas differ: %s vs %s"
                % (left.variables, right.variables)
            )
        self.left = left
        self.right = right
        self.variables = list(left.variables)

    def first_binding(self):
        fanout = self.ctx.fanout
        if fanout.active:
            # The two sides are independent sources: probe both
            # concurrently.  The right probe is speculative -- wasted
            # only when the left side is non-empty, and even then it
            # has warmed the right buffer for the eventual crossover.
            lb, rb = fanout.run(self.left.first_binding,
                                self.right.first_binding)
            if lb is not None:
                return ("L", lb)
            return ("R", rb) if rb is not None else None
        lb = self.left.first_binding()
        if lb is not None:
            return ("L", lb)
        rb = self.right.first_binding()
        return ("R", rb) if rb is not None else None

    def next_binding(self, binding):
        side, ib = binding
        if side == "L":
            nxt = self.left.next_binding(ib)
            if nxt is not None:
                return ("L", nxt)
            rb = self.right.first_binding()
            return ("R", rb) if rb is not None else None
        nxt = self.right.next_binding(ib)
        return ("R", nxt) if nxt is not None else None

    def attribute(self, binding, var):
        self._check_var(var)
        side, ib = binding
        op = self.left if side == "L" else self.right
        return (side, op.attribute(ib, var))

    def _side(self, value):
        return self.left if value[0] == "L" else self.right

    def v_down(self, value):
        child = self._side(value).v_down(value[1])
        return (value[0], child) if child is not None else None

    def v_right(self, value):
        sibling = self._side(value).v_right(value[1])
        return (value[0], sibling) if sibling is not None else None

    def v_fetch(self, value):
        return self._side(value).v_fetch(value[1])

    def v_select(self, value, predicate):
        found = self._side(value).v_select(value[1], predicate)
        return (value[0], found) if found is not None else None


class _LeftStreamOperator(LazyOperator):
    """Shared shell for operators that stream their left/only input and
    merely decide which bindings survive."""

    def __init__(self, child: LazyOperator,
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        self.child = child
        self._pass_values_through(child)
        self.variables = list(child.variables)

    def _keep(self, ib) -> bool:
        raise NotImplementedError

    def _scan(self, ib):
        while ib is not None:
            if self._keep(ib):
                return ("b", ib)
            ib = self.child.next_binding(ib)
        return None

    def first_binding(self):
        return self._scan(self.child.first_binding())

    def next_binding(self, binding):
        return self._scan(self.child.next_binding(binding[1]))

    def attribute(self, binding, var):
        self._check_var(var)
        return self.child.attribute(binding[1], var)

    def _binding_key(self, op: LazyOperator, ib):
        return tuple(
            canonical_key_of(op, op.attribute(ib, var))
            for var in self.variables
        )


class LazyDifference(_LeftStreamOperator):
    """Left bindings whose values do not occur on the right."""

    def __init__(self, left: LazyOperator, right: LazyOperator,
                 context: Optional[ExecutionContext] = None):
        if left.variables != right.variables:
            raise LazyError(
                "difference schemas differ: %s vs %s"
                % (left.variables, right.variables)
            )
        super().__init__(left, context)
        self.right = right
        #: one-entry memo holding the full right-side key set
        self._right_keys = self.ctx.caches.cache("difference.right_keys")

    def _force_right(self) -> Set:
        keys = self._right_keys.get("keys", MISS)
        if keys is not MISS:
            return keys
        keys = set()
        rb = self.right.first_binding()
        while rb is not None:
            keys.add(self._binding_key(self.right, rb))
            rb = self.right.next_binding(rb)
        self._right_keys.put("keys", keys)
        return keys

    def _keep(self, ib) -> bool:
        return self._binding_key(self.child, ib) not in self._force_right()

    def first_binding(self):
        fanout = self.ctx.fanout
        if fanout.active:
            # Difference must force its whole right side before the
            # first emission; overlap that forced walk with the left
            # side's first-binding navigation -- the two inputs are
            # independent sources.
            first, _ = fanout.run(self.child.first_binding,
                                  self._force_right)
            return self._scan(first)
        return super().first_binding()


class LazyDistinct(_LeftStreamOperator):
    """First occurrence of each distinct value combination survives.

    The seen-set grows monotonically with client progress; node-ids
    embed only the input binding id, so the set can be reconstructed by
    re-scanning when caching is disabled.
    """

    def __init__(self, child: LazyOperator,
                 context: Optional[ExecutionContext] = None):
        super().__init__(child, context)
        # Order-dependent: evicting individual pairs could re-admit a
        # key, so this stays a toggleable in-operator list rather than
        # a budgeted memo cache.
        self._seen_upto: List = []  # (ib, key) pairs in input order

    def _keep(self, ib) -> bool:
        key = self._binding_key(self.child, ib)
        if self.cache_enabled:
            for _ib, seen_key in self._seen_upto:
                if _ib == ib:
                    return True  # already classified as a keeper
            for _ib, seen_key in self._seen_upto:
                if seen_key == key:
                    return False
            self._seen_upto.append((ib, key))
            return True
        # Cache off: re-derive "seen before ib" by scanning the input
        # from the start up to (excluding) ib.
        scan = self.child.first_binding()
        while scan is not None and scan != ib:
            if self._binding_key(self.child, scan) == key:
                return False
            scan = self.child.next_binding(scan)
        return True
