"""The lazy-mediator protocol: operators as navigation transducers.

Each XMAS algebra operator is implemented as a *lazy mediator* (paper
Section 3 and Appendix A): it accepts navigation commands on its
*output* binding-list tree ``bs[b[...], ...]`` and, per command, issues
the minimal navigation against its input operator(s), combining the
answers.

Following Appendix A, the inter-operator interface is DOM-VXD *plus
direct attribute access*: "Since the client of the lazy mediator ... is
another lazy mediator, it is wasteful to navigate over the attribute
lists of the input mediator.  Instead we allow the operators to
directly request values of attributes."  Hence the protocol:

binding level (the ``bs``/``b`` nodes)
    ``first_binding()``, ``next_binding(b)``, ``attribute(b, var)``

value level (the subtrees bound to variables)
    ``v_down(v)``, ``v_right(v)``, ``v_fetch(v)``

Node-ids are structured tuples that *encode their associations*
Skolem-style (paper Figure 5 discussion): the mediator never keeps an
association table, so ids stay valid without client cooperation.
Operators do keep selected caches (recursive-path frontiers, join inner
attributes, groupBy's ``G_prev``), toggleable for the ablation
experiment.

A value id handed out by ``attribute`` is the *root* of that binding's
value: ``v_right`` on it is None even when the underlying node has
siblings in the source -- the binding perspective detaches it.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from ..navigation.interface import NavigableDocument
from ..runtime.context import ExecutionContext
from ..xtree.tree import Tree

__all__ = ["LazyOperator", "BindingsDocument", "LazyError",
           "value_text_of", "canonical_key_of", "materialize_value"]

#: Opaque ids; concretely nested hashable tuples.
BindingId = Hashable
ValueId = Hashable


from ..errors import ReproError


class LazyError(ReproError):
    """Raised on protocol violations (bad ids, unknown variables)."""


class LazyOperator:
    """Base class of all lazy mediators.

    Subclasses mint their own binding/value ids and must treat ids of
    their inputs as opaque.  Every operator carries the query's
    :class:`~repro.runtime.context.ExecutionContext`; its config
    governs the operator's optional memoization (the paper's operator
    caches), and its cache manager owns every cache the operator
    registers.
    """

    #: output variable schema, in order
    variables: List[str] = []

    def __init__(self, context: Optional[ExecutionContext] = None):
        self.ctx = (context if context is not None
                    else ExecutionContext.create())

    @property
    def cache_enabled(self) -> bool:
        """Whether the paper's operator caches are on (from config)."""
        return self.ctx.config.cache_enabled

    # -- binding-level navigation ----------------------------------------
    def first_binding(self) -> Optional[BindingId]:
        """The first output binding (d on the ``bs`` node)."""
        raise NotImplementedError

    def next_binding(self, binding: BindingId) -> Optional[BindingId]:
        """The next output binding (r on a ``b`` node)."""
        raise NotImplementedError

    def attribute(self, binding: BindingId, var: str) -> ValueId:
        """Direct access ``b.X``: the root value id of ``var``."""
        raise NotImplementedError

    # -- value-level navigation --------------------------------------------
    def v_down(self, value: ValueId) -> Optional[ValueId]:
        raise NotImplementedError

    def v_right(self, value: ValueId) -> Optional[ValueId]:
        raise NotImplementedError

    def v_fetch(self, value: ValueId) -> str:
        raise NotImplementedError

    def v_select(self, value: ValueId, predicate) -> Optional[ValueId]:
        """``select(sigma)`` at the value level: the first sibling to
        the right of ``value`` whose label satisfies ``predicate``.

        The default implementation scans with ``v_right``/``v_fetch``
        (same cost as the client doing it); operators that can push
        the selection to a capable source override it --
        :class:`~repro.lazy.source.LazySource` forwards it as a single
        source command, which is what makes label-filtering views
        bounded browsable (paper Example 1).
        """
        from ..navigation.commands import label_is
        sibling = self.v_right(value)
        while sibling is not None:
            if label_is(predicate, self.v_fetch(sibling)):
                return sibling
            sibling = self.v_right(sibling)
        return None

    # -- helpers -----------------------------------------------------------
    def _pass_values_through(self, child):
        """Bind ``child``'s value-level navigation as this operator's
        own, for operators that hand value ids through unchanged: no
        call frame of theirs then sits on the value path.  (An
        observed child is its ``SpannedOperator``, which still sees
        every call.)"""
        self.v_down = child.v_down
        self.v_right = child.v_right
        self.v_fetch = child.v_fetch
        self.v_select = child.v_select

    def _check_var(self, var: str) -> None:
        if var not in self.variables:
            raise LazyError(
                "operator %s has no variable $%s"
                % (type(self).__name__, var)
            )


# ----------------------------------------------------------------------
# Value utilities (used by predicates, grouping, ordering)
# ----------------------------------------------------------------------

def value_text_of(op: LazyOperator, value: ValueId) -> str:
    """The comparison text of a value: the label of a leaf, else the
    concatenated text of its leaf descendants.

    Costs navigations proportional to the value's size -- which is the
    honest price of predicates over structured values; the common case
    (variables bound to text leaves via ``zip._``) costs one fetch.
    """
    first_child = op.v_down(value)
    if first_child is None:
        return op.v_fetch(value)
    parts: List[str] = []

    def walk(node: ValueId) -> None:
        child = op.v_down(node)
        if child is None:
            parts.append(op.v_fetch(node))
            return
        while child is not None:
            walk(child)
            child = op.v_right(child)

    child = first_child
    while child is not None:
        walk(child)
        child = op.v_right(child)
    return "".join(parts)


def canonical_key_of(op: LazyOperator, value: ValueId) -> Hashable:
    """Materialize a value into a canonical structural key (the
    counterpart of :func:`repro.algebra.bindings.value_key`).

    Grouping and duplicate elimination compare whole values, so this
    walks the entire value subtree -- the source of groupBy's
    navigational cost.
    """
    label = op.v_fetch(value)
    child = op.v_down(value)
    if child is None:
        return label
    keys = []
    while child is not None:
        keys.append(canonical_key_of(op, child))
        child = op.v_right(child)
    return (label, tuple(keys))


def materialize_value(op: LazyOperator, value: ValueId) -> Tree:
    """Navigate a value subtree into an in-memory Tree (testing aid)."""
    label = op.v_fetch(value)
    children = []
    child = op.v_down(value)
    while child is not None:
        children.append(materialize_value(op, child))
        child = op.v_right(child)
    return Tree(label, children)


# ----------------------------------------------------------------------
# The bs-tree adapter
# ----------------------------------------------------------------------

class BindingsDocument(NavigableDocument):
    """Expose a lazy operator's full output tree ``bs[b[X[x],...],...]``
    through plain DOM-VXD.

    This is what a client sees when it queries for bindings rather than
    a constructed document, and it is the test oracle's window: for any
    plan, ``materialize(BindingsDocument(lazy_op))`` must equal
    ``evaluate_bindings(plan, sources).to_tree()``.

    Pointers::

        ("bs",)                       the root
        ("b", bid)                    a binding node
        ("var", bid, index)           a variable node  X[...]
        ("val", vid)                  a value node (delegated)
    """

    def __init__(self, op: LazyOperator):
        self.op = op

    def root(self):
        return ("bs",)

    def down(self, pointer):
        tag = pointer[0]
        if tag == "bs":
            bid = self.op.first_binding()
            return ("b", bid) if bid is not None else None
        if tag == "b":
            if not self.op.variables:
                return None
            return ("var", pointer[1], 0)
        if tag == "var":
            _, bid, index = pointer
            vid = self.op.attribute(bid, self.op.variables[index])
            return ("val", vid)
        if tag == "val":
            child = self.op.v_down(pointer[1])
            return ("val", child) if child is not None else None
        raise LazyError("bad pointer %r" % (pointer,))

    def right(self, pointer):
        tag = pointer[0]
        if tag == "bs":
            return None
        if tag == "b":
            nxt = self.op.next_binding(pointer[1])
            return ("b", nxt) if nxt is not None else None
        if tag == "var":
            _, bid, index = pointer
            if index + 1 < len(self.op.variables):
                return ("var", bid, index + 1)
            return None
        if tag == "val":
            sibling = self.op.v_right(pointer[1])
            return ("val", sibling) if sibling is not None else None
        raise LazyError("bad pointer %r" % (pointer,))

    def fetch(self, pointer):
        tag = pointer[0]
        if tag == "bs":
            return "bs"
        if tag == "b":
            return "b"
        if tag == "var":
            return self.op.variables[pointer[2]]
        if tag == "val":
            return self.op.v_fetch(pointer[1])
        raise LazyError("bad pointer %r" % (pointer,))
