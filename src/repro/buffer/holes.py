"""Open trees with holes (paper Definitions 3 and 4).

An *open* tree is a partial version of a source's XML view: element
nodes whose child lists may contain *holes* -- placeholders carrying an
opaque identifier and representing zero or more unexplored sibling
elements.  The buffer component refines its open tree in place as
``fill`` answers splice fragments over holes.

Two node kinds:

* :class:`OpenElem` -- a labeled node with a mutable child list; the
  buffer hands these out as navigation pointers (object identity is
  the pointer).
* :class:`OpenHole` -- an unexplored sublist, to be replaced by the
  fragments of a ``fill`` answer.

Fragments (what wrappers return from ``fill``) are the immutable
counterparts :class:`FragElem` / :class:`FragHole`; the buffer converts
them to open nodes when splicing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

from ..xtree.tree import Tree

__all__ = [
    "OpenElem", "OpenHole", "FragElem", "FragHole", "Fragment",
    "LXPProtocolError", "validate_fill_reply", "graft_reply",
    "fragment_of_tree",
    "fragment_wire_size", "open_tree_to_tree", "count_holes",
]


from ..errors import PermanentSourceError


class LXPProtocolError(PermanentSourceError):
    """Raised when a wrapper's fill reply violates the LXP rules.

    Permanent by classification: re-sending the identical request to
    a wrapper that violates the protocol cannot make it conform."""


# ----------------------------------------------------------------------
# Fragments: immutable wire format of fill answers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FragElem:
    """An element in a fill reply; ``children`` may mix elements and
    holes."""

    label: str
    children: tuple = ()

    def __repr__(self) -> str:
        if not self.children:
            return self.label
        return "%s[%s]" % (self.label,
                           ", ".join(repr(c) for c in self.children))


@dataclass(frozen=True)
class FragHole:
    """A hole in a fill reply; ``hole_id`` is wrapper-defined."""

    hole_id: object

    def __repr__(self) -> str:
        return "hole[%r]" % (self.hole_id,)


Fragment = Union[FragElem, FragHole]


def validate_fill_reply(fragments: Sequence[Fragment]) -> None:
    """Enforce the LXP progress rules (paper Section 4) on a fill
    reply; raises :class:`LXPProtocolError` on a violation.  The rules
    are those :func:`graft_reply` checks while splicing."""
    graft_reply(fragments, None)


def fragment_of_tree(tree: Tree) -> FragElem:
    """A fully closed fragment mirroring ``tree`` (no holes)."""
    return FragElem(tree.label,
                    tuple(fragment_of_tree(c) for c in tree.children))


def fragment_wire_size(fragment: Fragment) -> int:
    """Estimated serialized size of a fragment in bytes (tags + text +
    hole markers), used for transfer-cost accounting by the metered
    transports and the ``lxp_fragment_bytes`` metric.  (Historically
    defined in :mod:`repro.client.remote`, which still re-exports it.)
    """
    if isinstance(fragment, FragHole):
        return len("<hole id=''/>") + len(repr(fragment.hole_id))
    size = 2 * len(fragment.label) + len("<></>")
    for child in fragment.children:
        size += fragment_wire_size(child)
    return size


# ----------------------------------------------------------------------
# Open nodes: the buffer's mutable view
# ----------------------------------------------------------------------

class OpenElem:
    """An element of the buffer's open tree.  Identity == pointer."""

    __slots__ = ("label", "children", "parent")

    def __init__(self, label: str, parent: Optional["OpenElem"] = None):
        self.label = label
        self.children: List[Union[OpenElem, OpenHole]] = []
        self.parent = parent

    def index_in_parent(self) -> int:
        # Child lists are short relative to fill granularity; a linear
        # scan keeps splicing simple and correct.
        return self.parent.children.index(self)

    def __repr__(self) -> str:
        return "OpenElem(%s, %d children)" % (self.label,
                                              len(self.children))


class OpenHole:
    """A hole in the buffer's open tree."""

    __slots__ = ("hole_id", "parent")

    def __init__(self, hole_id: object,
                 parent: Optional[OpenElem] = None):
        self.hole_id = hole_id
        self.parent = parent

    def __repr__(self) -> str:
        return "OpenHole(%r)" % (self.hole_id,)


def graft_reply(fragments: Sequence[Fragment],
                parent: Optional[OpenElem]
                ) -> List[Union[OpenElem, OpenHole]]:
    """Convert a fill reply into open nodes under ``parent``, checking
    the LXP progress rules (paper Section 4) in the same walk:

    * a non-empty reply cannot consist only of holes;
    * no two adjacent holes, in the reply or under any element;
    * an element with several children cannot have only holes.

    An empty reply is legal ("dead end": the hole represented zero
    elements).  On a violation :class:`LXPProtocolError` is raised;
    the nodes built so far are reachable from nothing, so the open
    tree the caller splices into is left unchanged.
    """
    return _graft_list(fragments, parent, None)


def _graft_list(fragments: Sequence[Fragment], parent: Optional[OpenElem],
                label: Optional[str]) -> List[Union[OpenElem, OpenHole]]:
    """One child list of a reply; ``label`` names the element owning
    it, None for the reply's top level."""
    nodes: List[Union[OpenElem, OpenHole]] = []
    previous_was_hole = False
    progress = False
    for fragment in fragments:
        if isinstance(fragment, FragHole):
            if previous_was_hole:
                if label is None:
                    raise LXPProtocolError(
                        "fill reply has two adjacent holes")
                raise LXPProtocolError(
                    "fill reply has two adjacent holes under %r"
                    % label)
            nodes.append(OpenHole(fragment.hole_id, parent))
            previous_was_hole = True
        else:
            node = OpenElem(fragment.label, parent)
            if fragment.children:
                node.children = _graft_list(fragment.children, node,
                                            fragment.label)
            nodes.append(node)
            previous_was_hole = False
            progress = True
    if not progress and nodes:
        if label is None:
            raise LXPProtocolError(
                "fill reply contains only holes: no progress")
        if len(nodes) > 1:
            raise LXPProtocolError(
                "element %r has multiple children but only holes"
                % label)
    return nodes


def open_tree_to_tree(node: OpenElem,
                      hole_label: str = "hole") -> Tree:
    """Render an open tree as a Tree, holes shown as ``hole[...]``
    leaves (debugging / inspection aid)."""
    children = []
    for child in node.children:
        if isinstance(child, OpenHole):
            children.append(Tree(hole_label, [Tree(str(child.hole_id))]))
        else:
            children.append(open_tree_to_tree(child, hole_label))
    return Tree(node.label, children)


def count_holes(node: OpenElem) -> int:
    """Number of holes currently in the open tree under ``node``."""
    count = 0
    for child in node.children:
        if isinstance(child, OpenHole):
            count += 1
        else:
            count += count_holes(child)
    return count
