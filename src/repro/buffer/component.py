"""The generic buffer component (paper Section 4, Figure 8).

Sits between a lazy mediator and a wrapper: answers DOM-VXD
navigations from its open tree when it can, and issues LXP ``fill``
requests when a navigation hits a hole.  One implementation serves
every wrapper -- the modularity argument of the refined VXD
architecture ("instead of having each wrapper handle its own buffering
needs ... a separate generic buffer component").

The ``down``/``right`` implementations are the chase algorithms of
Figure 8, generalized to the most liberal LXP replies: fills may return
holes at arbitrary positions, so the chase loops until it reaches an
element or proves there is none, splicing fragments and dropping empty
holes as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..navigation.commands import LabelPredicate, label_is
from ..navigation.counting import NavCounters, publish_command
from ..navigation.interface import NavigableDocument
from ..xtree.tree import Tree
from .holes import (
    FragHole,
    LXPProtocolError,
    OpenElem,
    OpenHole,
    fragment_of_tree,
    graft_reply,
)
from .lxp import LXPServer
from ..runtime.locks import make_rlock

__all__ = ["BufferComponent", "BufferStats", "BufferMeter"]


class _PrefilledServer(LXPServer):
    """The degenerate server behind a pre-filled buffer.

    Its root hole is replaced before any navigation can observe it, so
    a fill request can only mean the adopted subtree was wrong --
    which is a protocol error, never silently fabricated data.
    """

    def get_root(self) -> FragHole:
        return FragHole(("prefilled",))

    def fill(self, hole_id: object):
        raise LXPProtocolError(
            "prefilled buffer has no holes to fill (got %r)" % (hole_id,))


@dataclass
class BufferStats:
    """Hit/miss accounting for one buffer."""

    navigations: int = 0
    hits: int = 0
    fills: int = 0

    @property
    def misses(self) -> int:
        return self.fills

    @property
    def hit_rate(self) -> float:
        if self.navigations == 0:
            return 1.0
        return self.hits / self.navigations

    def reset(self) -> None:
        self.navigations = 0
        self.hits = 0
        self.fills = 0


class BufferMeter:
    """The navigation meter of a buffer that meters its own commands.

    :meth:`BufferComponent.meter` hands one out; it offers the
    measurement surface of a :class:`~repro.navigation.counting.
    CountingDocument` (``counters``, ``total``, ``reset()``, and the
    buffer as ``inner``) without a proxy on the navigation path.
    """

    __slots__ = ("inner",)

    def __init__(self, buffer: "BufferComponent") -> None:
        self.inner = buffer

    @property
    def counters(self) -> NavCounters:
        return self.inner.counters

    @property
    def total(self) -> int:
        return self.inner.counters.total

    def reset(self) -> None:
        self.inner.reset_counters()


class BufferComponent(NavigableDocument):
    """A NavigableDocument over an LXP wrapper, backed by an open tree.

    Pointers are :class:`OpenElem` nodes (object identity).  The open
    tree only ever grows/refines; handed-out pointers stay valid.

    The buffer counts the ``d``/``r``/``f``/``select`` commands it
    answers in :attr:`counters`, inside the critical section each
    command takes anyway.  Once :meth:`meter` has made it its source's
    meter, it also publishes each command as a ``source.*`` event and
    a ``source_navigations_total`` increment -- before the command
    runs, outside every lock -- exactly like a
    :class:`~repro.navigation.counting.CountingDocument` stacked on
    top would.
    """

    def __init__(self, server: LXPServer, tracer=None, name: str = ""):
        self.server = server
        self.stats = BufferStats()
        #: optional tracer + buffer name: demand fills become
        #: ``buffer.fill`` spans in the causal trace, so the source
        #: commands and round trips a fill provokes nest under it
        self.tracer = tracer
        self.name = name
        self._root: Optional[OpenElem] = None
        #: a virtual super-root whose single child list holds the root
        #: element (or its hole before the first fill)
        self._top = OpenElem("#top")
        self._top.children = [OpenHole(server.get_root().hole_id,
                                       self._top)]
        #: guards the open tree and the fill counters.  The plain
        #: buffer is client-thread-confined and never contends on it;
        #: the concurrent subclasses (async prefetch) splice worker
        #: results through the same lock.  Re-entrant: a splice may
        #: happen inside a navigation that already holds it.
        self._lock = make_rlock("buffer.component")
        #: per-command counts of the navigations this buffer answered
        self.counters = NavCounters()
        #: where commands are published once :meth:`meter` was called
        self._meter_tracer = None
        self._meter_metrics = None

    def meter(self, tracer=None, metrics=None) -> BufferMeter:
        """Make this buffer its source's navigation meter: publish
        every command to ``tracer`` (``source.*`` events) and
        ``metrics`` (``source_navigations_total``), and return the
        meter view of :attr:`counters`.

        An unmetered buffer still counts but publishes nothing, so a
        hand-built ``CountingDocument`` stacked on top stays the only
        layer that emits.
        """
        self._meter_tracer = tracer
        self._meter_metrics = metrics
        return BufferMeter(self)

    def reset_counters(self) -> None:
        """Zero :attr:`counters` (under the lock that guards every
        increment)."""
        with self._lock:
            self.counters.reset()

    @classmethod
    def prefilled(cls, tree: Tree, tracer=None,
                  name: str = "") -> "BufferComponent":
        """A buffer whose open tree is ``tree``, fully closed.

        This is how a pushed source-native result enters the
        navigation stack: the complete reply is adopted as one
        hole-free subtree, so every later navigation is a buffer hit
        and no fill (hence no source navigation) can ever happen.
        """
        # No lock: the buffer is thread-confined until returned (the
        # same reasoning that exempts __init__).  Taking it here put
        # buffer.component under pushdown.document in the lock-order
        # graph and closed a name-level cycle with the demand-fill
        # path (L010).
        buffer = cls(_PrefilledServer(), tracer=tracer, name=name)
        buffer._top.children = graft_reply([fragment_of_tree(tree)],
                                           buffer._top)
        return buffer

    # -- splicing --------------------------------------------------------
    def _splice(self, hole: OpenHole, fragments) -> None:
        """Replace ``hole`` in the open tree by ``fragments``.

        The one mutation point of the open tree: every fill reply --
        demanded, prefetched, batched or speculative -- lands here.
        """
        with self._lock:
            parent = hole.parent
            # Validates while grafting: a reply breaking the LXP
            # progress rules raises before the open tree changes.
            spliced = graft_reply(fragments, parent)
            self.stats.fills += 1
            index = parent.children.index(hole)
            parent.children[index:index + 1] = spliced

    def _fill_hole(self, hole: OpenHole) -> None:
        """Replace ``hole`` by the wrapper's fill reply."""
        tracer = self.tracer
        if tracer is None or not tracer.active:
            self._splice(hole, self.server.fill(hole.hole_id))
            return
        with tracer.span("buffer", "fill", buffer=self.name):
            self._splice(hole, self.server.fill(hole.hole_id))

    def _chase_elem_at(self, parent: OpenElem,
                       index: int) -> Optional[OpenElem]:
        """First element at or after ``index`` in ``parent``'s child
        list, filling holes as needed (Figure 8's chase, iterative)."""
        while index < len(parent.children):
            node = parent.children[index]
            if isinstance(node, OpenElem):
                return node
            self._fill_hole(node)
            # The hole was replaced in place; re-examine this index.
        return None

    # -- NavigableDocument ---------------------------------------------------
    def root(self) -> OpenElem:
        """The root element pointer.

        Note: resolving the root may require the first fill -- LXP's
        ``get_root`` only returns a hole.  The overall architecture's
        "handle without source access" property is preserved one level
        up: the *mediator* does not call this until the client
        navigates.
        """
        with self._lock:
            if self._root is None:
                self.stats.navigations += 1
                # demand fills run under the open-tree lock by
                # design; see BLOCKING_HOLD_ALLOWED
                # lint: allow=L011,L012
                root = self._chase_elem_at(self._top, 0)
                if root is None:
                    raise LXPProtocolError(
                        "wrapper shipped no root element")
                self._root = root
            return self._root

    def down(self, pointer: OpenElem) -> Optional[OpenElem]:
        publish_command(self._meter_tracer, self._meter_metrics,
                        self.name, "d")
        with self._lock:
            self.counters.down += 1
            stats = self.stats
            stats.navigations += 1
            before = stats.fills
            # demand fills run under the open-tree lock by
            # design; see BLOCKING_HOLD_ALLOWED
            # lint: allow=L011,L012
            result = self._chase_elem_at(pointer, 0)
            if stats.fills == before:
                stats.hits += 1
        self._navigated()
        return result

    def right(self, pointer: OpenElem) -> Optional[OpenElem]:
        publish_command(self._meter_tracer, self._meter_metrics,
                        self.name, "r")
        with self._lock:
            self.counters.right += 1
            # demand fills run under the open-tree lock by
            # design; see BLOCKING_HOLD_ALLOWED
            # lint: allow=L011,L012
            result = self._right_locked(pointer)
        self._navigated()
        return result

    def fetch(self, pointer: OpenElem) -> str:
        publish_command(self._meter_tracer, self._meter_metrics,
                        self.name, "f")
        with self._lock:
            self.counters.fetch += 1
            self._fetch_locked()
        return pointer.label

    def select(self, pointer: OpenElem,
               predicate: LabelPredicate) -> Optional[OpenElem]:
        """One ``select`` command, answered by the open-tree steps of
        the default ``right``/``fetch`` scan (each a buffer navigation
        in :attr:`stats`, none a command of its own)."""
        publish_command(self._meter_tracer, self._meter_metrics,
                        self.name, "select")
        with self._lock:
            self.counters.select += 1
        current = self._scan_right(pointer)
        while current is not None:
            with self._lock:
                self._fetch_locked()
            if label_is(predicate, current.label):
                return current
            current = self._scan_right(current)
        return None

    def _navigated(self) -> None:
        """Hook run after every ``down``/``right`` step, outside the
        lock (the prefetchers schedule their lookahead here)."""

    def _scan_right(self, pointer: OpenElem) -> Optional[OpenElem]:
        with self._lock:
            # lint: allow=L011,L012 -- demand fills, as in right()
            result = self._right_locked(pointer)
        self._navigated()
        return result

    def _right_locked(self, pointer: OpenElem) -> Optional[OpenElem]:
        """The right sibling; the caller holds the lock."""
        stats = self.stats
        stats.navigations += 1
        parent = pointer.parent
        if parent is None or parent is self._top:
            # The root element has no siblings (the wrapper exports
            # a single root; trailing holes beside it are not
            # chased).
            stats.hits += 1
            return None
        before = stats.fills
        result = self._chase_elem_at(parent,
                                     pointer.index_in_parent() + 1)
        if stats.fills == before:
            stats.hits += 1
        return result

    def _fetch_locked(self) -> None:
        # Labels always travel with their elements: a fetch never
        # triggers a fill.
        self.stats.navigations += 1
        self.stats.hits += 1

    # -- inspection -------------------------------------------------------
    def open_root(self) -> Optional[OpenElem]:
        """The current open tree (None before the first navigation)."""
        return self._root

    def leftmost_holes(self, limit: int) -> List[OpenHole]:
        """Up to ``limit`` outstanding holes in document order -- the
        direction a forward-browsing client needs next.  Both
        prefetcher variants pick their targets from this list."""
        found: List[OpenHole] = []
        with self._lock:
            start = self._root if self._root is not None else self._top

            def walk(node: OpenElem) -> None:
                for child in node.children:
                    if len(found) >= limit:
                        return
                    if isinstance(child, OpenHole):
                        found.append(child)
                    else:
                        walk(child)

            walk(start)
        return found

    def find_hole(self, hole_id) -> Optional[OpenHole]:
        """The outstanding open-tree hole carrying ``hole_id``, if any.

        Speculative batch replies are addressed by hole id, not by
        pointer; a reply whose hole has meanwhile been filled (or was
        never seen) resolves to ``None`` and is simply dropped.
        """
        with self._lock:
            stack: List[OpenElem] = [self._top]
            while stack:
                node = stack.pop()
                for child in node.children:
                    if isinstance(child, OpenHole):
                        if child.hole_id == hole_id:
                            return child
                    else:
                        stack.append(child)
        return None

    def holes_outstanding(self) -> int:
        from .holes import count_holes
        with self._lock:
            root = self._root
            if root is None:
                return sum(1 for c in self._top.children
                           if isinstance(c, OpenHole))
            return count_holes(root)
