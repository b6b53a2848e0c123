"""The rewriting optimizer: apply rules to a fixpoint, tracing what
fired.

``optimize(plan)`` returns a semantically equivalent plan with better
navigational behaviour (selections pushed toward sources, adjacent
descendant extractions fused).  The optimizer is conservative: a rule
only fires when its side conditions prove equivalence, and the
benchmark suite double-checks optimized plans against unoptimized
evaluation on every experiment workload.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..algebra import operators as ops
from ..algebra.operators import Difference, Materialize, OrderBy
from .rules import ALL_RULES, FUSE_RULE, _uses_of_variable, rebuild
# After .rules: repro.pushdown reaches back into this package for
# ``rebuild`` while it initializes.
from ..pushdown.plan import PushedSource

__all__ = ["optimize", "OptimizationTrace"]


def _is_pushed(plan: ops.Operator) -> bool:
    """Whether ``plan`` is a PushedSource leaf (opaque to rewriting:
    its compiled request already fixed what the source evaluates, so
    no rule may fire on or below it)."""
    return isinstance(plan, PushedSource)


class OptimizationTrace:
    """Names of rules applied, in application order."""

    def __init__(self):
        self.applied: List[str] = []

    def note(self, rule_name: str) -> None:
        self.applied.append(rule_name)

    def __repr__(self) -> str:
        return "OptimizationTrace(%s)" % ", ".join(self.applied)


def _apply_local_rules(plan: ops.Operator,
                       trace: OptimizationTrace) -> ops.Operator:
    """One bottom-up pass of the local rules."""
    if _is_pushed(plan):
        return plan
    new_inputs = tuple(_apply_local_rules(c, trace)
                       for c in plan.inputs)
    if new_inputs != plan.inputs:
        plan = rebuild(plan, new_inputs)
    changed = True
    while changed:
        changed = False
        for name, rule in ALL_RULES:
            replacement = rule(plan)
            if replacement is not None:
                trace.note(name)
                plan = replacement
                changed = True
    return plan


def _apply_fusion(root: ops.Operator, plan: ops.Operator,
                  trace: OptimizationTrace) -> ops.Operator:
    """Bottom-up getDescendants fusion with the global usage check."""
    if _is_pushed(plan):
        return plan
    new_inputs = tuple(_apply_fusion(root, c, trace)
                       for c in plan.inputs)
    if new_inputs != plan.inputs:
        plan = rebuild(plan, new_inputs)
    name, rule = FUSE_RULE
    while isinstance(plan, ops.GetDescendants) \
            and isinstance(plan.child, ops.GetDescendants):
        intermediate = plan.child.out_var
        if _uses_of_variable(root, intermediate) != 1:
            break
        replacement = rule(plan)
        if replacement is None:
            break
        trace.note(name)
        plan = replacement
    return plan


def _insert_materialize(plan: ops.Operator, trace: OptimizationTrace,
                        under_materialize: bool = False
                        ) -> ops.Operator:
    """Hybrid evaluation (paper Section 6's future work): wrap
    unbrowsable subplans in an intermediate eager step.  OrderBy and
    Difference force a full input scan anyway; buffering their output
    makes all later navigation over it free of source access."""
    if _is_pushed(plan):
        return plan
    is_buffer = isinstance(plan, Materialize)
    new_inputs = tuple(
        _insert_materialize(c, trace, under_materialize=is_buffer)
        for c in plan.inputs)
    if new_inputs != plan.inputs:
        plan = rebuild(plan, new_inputs)
    if isinstance(plan, (OrderBy, Difference)) \
            and not under_materialize:
        trace.note("materialize-unbrowsable")
        return Materialize(plan)
    return plan


def optimize(plan: ops.Operator,
             max_passes: int = 8,
             hybrid: bool = False) -> Tuple[ops.Operator,
                                            OptimizationTrace]:
    """Optimize ``plan``; returns (new_plan, trace).

    ``hybrid=True`` additionally inserts intermediate eager steps
    above unbrowsable subplans (Section 6's lazy/eager combination).
    """
    trace = OptimizationTrace()
    for _ in range(max_passes):
        # Every rewrite is noted in the trace, so a pass that noted
        # nothing left the plan unchanged: the fixpoint.
        fired = len(trace.applied)
        plan = _apply_local_rules(plan, trace)
        plan = _apply_fusion(plan, plan, trace)
        if len(trace.applied) == fired:
            break
    if hybrid:
        plan = _insert_materialize(plan, trace)
    plan.validate()
    return plan, trace
