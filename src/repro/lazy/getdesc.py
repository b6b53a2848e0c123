"""The lazy ``getDescendants`` operator.

For each input binding ``b`` and each descendant ``d`` of
``b.parent_var`` whose label path matches the regular path expression
(in document order), the operator outputs ``b + out_var[d]`` -- but
navigation-driven: descendants are located one at a time, as the client
asks for the next binding.

Node-id design (the Skolem-id principle of Figure 5): a binding id
carries the input binding id plus the *DFS stack* -- the path of value
ids from the parent value down to the current match, each with its NFA
state frontier before and after consuming that node's label.  With the
stack in the id, resuming the preorder search after any previously
issued binding needs no mediator-side association table.

Dead NFA frontiers prune whole subtrees without navigating into them;
``is_recursive`` paths are the case where the paper's frontier cache
pays off (toggleable via ``cache_enabled`` for the ablation bench).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..runtime.cache import MISS
from ..runtime.context import ExecutionContext
from ..xtree.path import PathExpr, PathNFA, parse_path
from .base import LazyOperator

__all__ = ["LazyGetDescendants"]

#: A DFS frame: (value id, states before consuming its label, states
#: after).  A stack is a tuple of frames; the top frame is the match.
Frame = Tuple[object, frozenset, frozenset]
Stack = Tuple[Frame, ...]


class LazyGetDescendants(LazyOperator):
    """See module docstring.

    ``config.use_sigma`` enables the paper's Example 1 upgrade: when the
    NFA frontier can only be advanced by a concrete set of labels (no
    wildcard transitions), sibling scans are replaced by a single
    ``select(sigma)`` command pushed down to the source.  Views that
    filter first-level children by label then become *bounded
    browsable*.
    """

    def __init__(self, child: LazyOperator, parent_var: str,
                 path: Union[str, PathExpr, PathNFA], out_var: str,
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        self.child = child
        self.parent_var = parent_var
        if isinstance(path, PathNFA):
            self.nfa = path
        else:
            self.nfa = PathNFA(parse_path(path)
                               if isinstance(path, str) else path)
        self.out_var = out_var
        self.variables = child.variables + [out_var]
        # Operator caches (the paper's "keeps around the input nodes
        # that may have descendants that satisfy the path condition");
        # both are pure memos over structured ids, hence evictable.
        self._first_cache = self.ctx.caches.cache("getDescendants.first")
        self._next_cache = self.ctx.caches.cache("getDescendants.next")

    # -- bindings ----------------------------------------------------------
    def first_binding(self):
        ib = self.child.first_binding()
        return self._advance_from_input(ib)

    def next_binding(self, binding):
        _, ib, stack = binding
        cached = self._next_cache.get((ib, stack), MISS)
        if cached is not MISS:
            return cached
        result_stack = self._next_match(stack)
        result = None
        if result_stack is not None:
            result = ("b", ib, result_stack)
        else:
            result = self._advance_from_input(self.child.next_binding(ib))
        self._next_cache.put((ib, stack), result)
        return result

    def _advance_from_input(self, ib):
        """First output binding at or after input binding ``ib``."""
        while ib is not None:
            stack = self._first_cache.get(ib, MISS)
            if stack is MISS:
                parent_vid = self.child.attribute(ib, self.parent_var)
                stack = self._first_in_subtree(
                    (), parent_vid, self.nfa.start_states)
                self._first_cache.put(ib, stack)
            if stack is not None:
                return ("b", ib, stack)
            ib = self.child.next_binding(ib)
        return None

    # -- DFS over the input value tree ---------------------------------------
    def _first_in_subtree(self, stack: Stack, parent_vid,
                          states) -> Optional[Stack]:
        """First match strictly below ``parent_vid`` in preorder."""
        child = self.child.v_down(parent_vid)
        return self._scan_level(stack, child, states)

    def _scan_level(self, stack: Stack, vid, states) -> Optional[Stack]:
        """First match at or below the sibling list starting at ``vid``."""
        nfa = self.nfa
        sigma_labels = None
        if self.ctx.config.use_sigma:
            sigma_labels = nfa.progress_labels(states)
            if sigma_labels is not None and not sigma_labels:
                return None  # no label can advance this frontier
        v_fetch = self.child.v_fetch
        while vid is not None:
            after = nfa.step(states, v_fetch(vid))
            if after:  # alive: some extension could still match
                frame = (vid, states, after)
                if nfa.is_accepting(after):
                    return stack + (frame,)
                deeper = self._first_in_subtree(
                    stack + (frame,), vid, after)
                if deeper is not None:
                    return deeper
            vid = self._advance_sibling(vid, sigma_labels)
        return None

    def _advance_sibling(self, vid, sigma_labels):
        """Next sibling worth looking at: one select(sigma) command
        when the viable labels are concrete, else a plain right."""
        if sigma_labels is None:
            return self.child.v_right(vid)
        if len(sigma_labels) == 1:
            return self.child.v_select(vid, next(iter(sigma_labels)))
        wanted = sigma_labels
        return self.child.v_select(vid,
                                   lambda label: label in wanted)

    def _next_match(self, stack: Stack) -> Optional[Stack]:
        """Preorder successor of the match at the top of ``stack``."""
        top_vid, _before, after = stack[-1]
        deeper = self._first_in_subtree(stack, top_vid, after)
        if deeper is not None:
            return deeper
        while stack:
            vid, before, _after = stack[-1]
            stack = stack[:-1]
            sibling = self.child.v_right(vid)
            found = self._scan_level(stack, sibling, before)
            if found is not None:
                return found
        return None

    # -- attributes -------------------------------------------------------
    def attribute(self, binding, var):
        self._check_var(var)
        _, ib, stack = binding
        if var == self.out_var:
            return ("mroot", stack[-1][0])
        return ("sub", self.child.attribute(ib, var))

    # -- values -----------------------------------------------------------
    def v_down(self, value):
        tag, vid = value
        child = self.child.v_down(vid)
        return ("sub", child) if child is not None else None

    def v_right(self, value):
        tag, vid = value
        if tag == "mroot":
            # A match is a whole value: detached from its siblings.
            return None
        sibling = self.child.v_right(vid)
        return ("sub", sibling) if sibling is not None else None

    def v_fetch(self, value):
        return self.child.v_fetch(value[1])

    def v_select(self, value, predicate):
        if value[0] == "mroot":
            return None  # a match root has no siblings
        found = self.child.v_select(value[1], predicate)
        return ("sub", found) if found is not None else None
