"""The lazy ``select`` operator and the pass-through Project/Constant.

``select`` scans the input binding list for bindings that satisfy the
predicate -- Example 1's *(unbounded) browsable* pattern: the cost of
the next binding depends on where the next satisfying binding sits in
the input.
"""

from __future__ import annotations

from typing import Optional

from ..algebra.predicates import Predicate
from ..runtime.cache import MISS
from ..runtime.context import ExecutionContext
from ..xtree.tree import Tree
from .base import LazyError, LazyOperator, value_text_of

__all__ = ["LazySelect", "LazyProject", "LazyConstant", "LazyRename"]


class LazySelect(LazyOperator):
    """``sigma_p``: bindings of the input satisfying ``p``.

    Binding ids wrap the input's ids 1:1 (``("b", ib)``); values pass
    through.  Predicate evaluation materializes only the text of the
    mentioned variables' values; per-binding verdicts are memoized when
    caching is on.
    """

    def __init__(self, child: LazyOperator, predicate: Predicate,
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        self.child = child
        self._pass_values_through(child)
        self.predicate = predicate
        self.variables = list(child.variables)
        self._verdicts = self.ctx.caches.cache("select.verdicts")

    def _holds(self, ib) -> bool:
        verdict = self._verdicts.get(ib, MISS)
        if verdict is not MISS:
            return verdict
        verdict = self.predicate.evaluate(
            lambda var: value_text_of(
                self.child, self.child.attribute(ib, var))
        )
        self._verdicts.put(ib, verdict)
        return verdict

    def _scan(self, ib):
        while ib is not None:
            if self._holds(ib):
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


class LazyProject(LazyOperator):
    """``pi_{vars}``: restrict the visible attributes; bindings and
    values pass straight through."""

    def __init__(self, child: LazyOperator, variables,
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        self.child = child
        self._pass_values_through(child)
        self.variables = list(variables)
        missing = [v for v in self.variables if v not in child.variables]
        if missing:
            raise LazyError("project over unbound variables %s" % missing)

    def first_binding(self):
        return self.child.first_binding()

    def next_binding(self, binding):
        return self.child.next_binding(binding)

    def attribute(self, binding, var):
        self._check_var(var)
        return self.child.attribute(binding, var)


class LazyRename(LazyOperator):
    """``rho``: rename variables; bindings and values pass through."""

    def __init__(self, child: LazyOperator, mapping: dict,
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        self.child = child
        self._pass_values_through(child)
        self.mapping = dict(mapping)
        self._reverse = {new: old for old, new in self.mapping.items()}
        self.variables = [self.mapping.get(v, v) for v in child.variables]
        if len(set(self.variables)) != len(self.variables):
            raise LazyError("rename creates duplicate variables: %s"
                            % self.variables)

    def first_binding(self):
        return self.child.first_binding()

    def next_binding(self, binding):
        return self.child.next_binding(binding)

    def attribute(self, binding, var):
        self._check_var(var)
        return self.child.attribute(binding, self._reverse.get(var, var))


class LazyConstant(LazyOperator):
    """Extend each input binding with a fixed in-memory tree.

    The constant's value ids are child-index paths into the tree (the
    same scheme as MaterializedDocument), tagged ``("const", path)``;
    everything else passes through.
    """

    def __init__(self, child: LazyOperator, value: Tree, out_var: str,
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        self.child = child
        self.value = value
        self.out_var = out_var
        self.variables = child.variables + [out_var]

    def _node(self, path):
        node = self.value
        for index in path:
            node = node.child(index)
        return node

    def first_binding(self):
        return self.child.first_binding()

    def next_binding(self, binding):
        return self.child.next_binding(binding)

    def attribute(self, binding, var):
        self._check_var(var)
        if var == self.out_var:
            return ("const", ())
        return ("sub", self.child.attribute(binding, var))

    def v_down(self, value):
        if value[0] == "const":
            path = value[1]
            if self._node(path).is_leaf:
                return None
            return ("const", path + (0,))
        child = self.child.v_down(value[1])
        return ("sub", child) if child is not None else None

    def v_right(self, value):
        if value[0] == "const":
            path = value[1]
            if not path:
                return None  # the constant root is a value root
            parent = self._node(path[:-1])
            index = path[-1] + 1
            if index >= len(parent.children):
                return None
            return ("const", path[:-1] + (index,))
        sibling = self.child.v_right(value[1])
        return ("sub", sibling) if sibling is not None else None

    def v_fetch(self, value):
        if value[0] == "const":
            return self._node(value[1]).label
        return self.child.v_fetch(value[1])

    def v_select(self, value, predicate):
        if value[0] == "const":
            return super().v_select(value, predicate)
        found = self.child.v_select(value[1], predicate)
        return ("sub", found) if found is not None else None
