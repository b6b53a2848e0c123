"""Tests for open trees, LXP, and the generic buffer component
(paper Section 4, Definitions 3-4, Example 7, Figure 8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import (
    AsyncPrefetchingBuffer,
    BatchingBuffer,
    BufferComponent,
    FragElem,
    FragHole,
    LXPProtocolError,
    PrefetchingBuffer,
    RandomizedLXPServer,
    TreeLXPServer,
    count_holes,
    fragment_of_tree,
    open_tree_to_tree,
    reply_holes,
    validate_fill_reply,
)
from repro.navigation import materialize
from repro.xtree import Tree, elem, leaf


class TestFillReplyValidation:
    def test_empty_reply_is_legal(self):
        validate_fill_reply([])

    def test_elements_only(self):
        validate_fill_reply([FragElem("a"), FragElem("b")])

    def test_trailing_hole(self):
        validate_fill_reply([FragElem("a"), FragHole(1)])

    def test_leading_hole(self):
        validate_fill_reply([FragHole(1), FragElem("a")])

    def test_only_holes_rejected(self):
        with pytest.raises(LXPProtocolError):
            validate_fill_reply([FragHole(1)])

    def test_adjacent_holes_rejected(self):
        with pytest.raises(LXPProtocolError):
            validate_fill_reply([FragElem("a"), FragHole(1),
                                 FragHole(2)])

    def test_nested_adjacent_holes_rejected(self):
        bad = FragElem("a", (FragElem("b"), FragHole(1), FragHole(2)))
        with pytest.raises(LXPProtocolError):
            validate_fill_reply([bad])

    def test_single_child_hole_is_legal(self):
        validate_fill_reply([FragElem("a", (FragHole(1),))])

    def test_fragment_of_tree_is_closed(self):
        frag = fragment_of_tree(elem("a", elem("b", "c")))
        assert frag == FragElem("a", (FragElem("b", (FragElem("c"),)),))


class _ScriptedServer:
    """An LXP server answering each hole id from a fixed script."""

    def __init__(self, replies):
        self.replies = replies

    def get_root(self):
        return FragHole("root")

    def fill(self, hole_id):
        return self.replies[hole_id]


#: Each LXP progress-rule violation, as the reply to hole "kids".
BAD_REPLIES = {
    "all holes": [FragHole("x")],
    "adjacent top-level holes": [FragElem("a"), FragHole("x"),
                                 FragHole("y")],
    "adjacent nested holes": [FragElem("a", (FragElem("b"), FragHole("x"),
                                             FragHole("y")))],
    "several children, all holes": [FragElem("a", (FragHole("x"),
                                                   FragHole("y")))],
}


class TestOnePassSplice:
    """The splice validates while it grafts: a reply breaking a
    progress rule raises before the open tree or the fill count
    changes."""

    @pytest.mark.parametrize("case", sorted(BAD_REPLIES))
    def test_violation_leaves_the_open_tree_untouched(self, case):
        buffer = BufferComponent(_ScriptedServer({
            "root": [FragElem("r", (FragElem("first"),
                                    FragHole("kids")))],
            "kids": BAD_REPLIES[case],
        }))
        root = buffer.root()
        first = buffer.down(root)
        assert buffer.stats.fills == 1
        with pytest.raises(LXPProtocolError):
            buffer.right(first)
        assert buffer.stats.fills == 1
        hole = buffer.find_hole("kids")
        assert hole is not None and hole.parent is root
        assert [type(c).__name__ for c in root.children] \
            == ["OpenElem", "OpenHole"]
        assert buffer.holes_outstanding() == 1

    @pytest.mark.parametrize("case", sorted(BAD_REPLIES))
    def test_validate_fill_reply_applies_the_same_rules(self, case):
        with pytest.raises(LXPProtocolError):
            validate_fill_reply(BAD_REPLIES[case])

    def test_legal_reply_is_grafted_in_place(self):
        buffer = BufferComponent(_ScriptedServer({
            "root": [FragElem("r", (FragHole("kids"),))],
            "kids": [FragHole("front"),
                     FragElem("a", (FragElem("b"), FragHole("deep"))),
                     FragHole("back")],
            "front": [], "deep": [FragElem("c")], "back": [],
        }))
        assert materialize(buffer) == elem("r", elem("a", "b", "c"))
        assert buffer.stats.fills == 5
        assert buffer.holes_outstanding() == 0


EXAMPLE7_TREE = elem("a", elem("b", "d", "e"), elem("c"))


class TestTreeLXPServer:
    def test_root_hole(self):
        server = TreeLXPServer(EXAMPLE7_TREE)
        assert server.get_root() == FragHole(("root",))

    def test_full_depth_ships_everything(self):
        server = TreeLXPServer(EXAMPLE7_TREE, chunk_size=100)
        reply = server.fill(("root",))
        assert reply == [fragment_of_tree(EXAMPLE7_TREE)]
        assert server.stats.fills == 1

    def test_depth_one_leaves_child_holes(self):
        server = TreeLXPServer(EXAMPLE7_TREE, depth=1)
        (root,) = server.fill(("root",))
        assert root.label == "a"
        assert isinstance(root.children[0], FragHole)

    def test_chunking_leaves_trailing_hole(self):
        tree = Tree("r", [leaf(str(i)) for i in range(7)])
        server = TreeLXPServer(tree, chunk_size=3, depth=2)
        (root,) = server.fill(("root",))
        labels = [c.label for c in root.children[:-1]]
        assert labels == ["0", "1", "2"]
        hole = root.children[-1]
        reply2 = server.fill(hole.hole_id)
        assert [c.label for c in reply2[:-1]] == ["3", "4", "5"]

    def test_replies_always_validate(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(20)])
        server = TreeLXPServer(tree, chunk_size=4, depth=1)
        stack = [server.get_root().hole_id]
        while stack:
            reply = server.fill(stack.pop())
            validate_fill_reply(reply)
            for frag in reply:
                queue = [frag]
                while queue:
                    f = queue.pop()
                    if isinstance(f, FragHole):
                        stack.append(f.hole_id)
                    else:
                        queue.extend(f.children)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            TreeLXPServer(EXAMPLE7_TREE, chunk_size=0)
        with pytest.raises(ValueError):
            TreeLXPServer(EXAMPLE7_TREE, depth=0)

    def test_unknown_hole(self):
        server = TreeLXPServer(EXAMPLE7_TREE)
        with pytest.raises(LXPProtocolError):
            server.fill("garbage")


class TestBufferComponent:
    def test_exposes_the_source_tree(self):
        buffer = BufferComponent(TreeLXPServer(EXAMPLE7_TREE, depth=1))
        assert materialize(buffer) == EXAMPLE7_TREE

    def test_fetch_never_fills(self):
        buffer = BufferComponent(TreeLXPServer(EXAMPLE7_TREE, depth=1))
        root = buffer.root()
        fills = buffer.stats.fills
        buffer.fetch(root)
        assert buffer.stats.fills == fills

    def test_down_on_leaf(self):
        buffer = BufferComponent(TreeLXPServer(EXAMPLE7_TREE, depth=1))
        b = buffer.down(buffer.root())
        d = buffer.down(b)
        assert buffer.fetch(d) == "d"
        assert buffer.down(d) is None

    def test_root_has_no_sibling(self):
        buffer = BufferComponent(TreeLXPServer(EXAMPLE7_TREE))
        assert buffer.right(buffer.root()) is None

    def test_hit_rate_improves_with_chunking(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(50)])

        def rate(chunk):
            buffer = BufferComponent(
                TreeLXPServer(tree, chunk_size=chunk, depth=3))
            materialize(buffer)
            return buffer.stats.hit_rate

        assert rate(25) > rate(1)

    def test_pointers_stay_valid_across_splices(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(10)])
        buffer = BufferComponent(TreeLXPServer(tree, chunk_size=2,
                                               depth=2))
        first = buffer.down(buffer.root())
        # Walk to the end, splicing several times.
        node = first
        while buffer.right(node) is not None:
            node = buffer.right(node)
        # The old pointer still navigates correctly.
        assert buffer.fetch(first) == "x"
        assert buffer.fetch(buffer.down(first)) == "0"

    def test_holes_outstanding_decreases(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(10)])
        buffer = BufferComponent(TreeLXPServer(tree, chunk_size=2,
                                               depth=3))
        materialize(buffer)
        assert buffer.holes_outstanding() == 0

    def test_empty_root_reply_raises(self):
        class EmptyServer(TreeLXPServer):
            def fill(self, hole_id):
                return []

        buffer = BufferComponent(EmptyServer(EXAMPLE7_TREE))
        with pytest.raises(LXPProtocolError):
            buffer.root()


class TestExample7Trace:
    """The liberal trace of Example 7, replayed literally."""

    def test_liberal_fill_sequence(self):
        # A scripted server answering exactly as in the paper.
        script = {
            ("root",): [FragElem("a", (FragHole(1),))],
            1: [FragElem("b", (FragHole(2),)), FragHole(3)],
            3: [FragElem("c")],
            2: [FragHole(4), FragElem("d", (FragHole(5),)), FragHole(6)],
            4: [],
            5: [],
            6: [FragElem("e")],
        }

        class ScriptedServer(TreeLXPServer):
            def __init__(self):
                self.stats = type("S", (), {"fills": 0})()

            def get_root(self):
                return FragHole(("root",))

            def fill(self, hole_id):
                return script[hole_id]

        buffer = BufferComponent(ScriptedServer())
        assert materialize(buffer) == elem("a", elem("b", "d", "e"),
                                           elem("c"))


class TestPrefetching:
    def test_prefetch_reduces_demand_fills(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(60)])

        def demand_fills(lookahead):
            buffer = PrefetchingBuffer(
                TreeLXPServer(tree, chunk_size=5, depth=3),
                lookahead=lookahead)
            materialize(buffer)
            return buffer.prefetch_stats.demand_fills

        assert demand_fills(4) < demand_fills(0)

    def test_zero_lookahead_is_plain_buffer(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(10)])
        buffer = PrefetchingBuffer(
            TreeLXPServer(tree, chunk_size=5, depth=3), lookahead=0)
        materialize(buffer)
        assert buffer.prefetch_stats.prefetch_fills == 0


# ----------------------------------------------------------------------
# Property: the buffer over ANY liberal server is indistinguishable
# from direct navigation of the complete tree.
# ----------------------------------------------------------------------

_trees = st.recursive(
    st.sampled_from(list("pqxyz12")).map(leaf),
    lambda kids: st.builds(
        Tree, st.sampled_from(["r", "s", "t"]),
        st.lists(kids, max_size=4)),
    max_leaves=14,
)


@settings(max_examples=120, deadline=None)
@given(tree=_trees, seed=st.integers(0, 10000))
def test_buffer_over_randomized_liberal_server(tree, seed):
    buffer = BufferComponent(RandomizedLXPServer(tree, seed=seed))
    assert materialize(buffer) == tree


@settings(max_examples=60, deadline=None)
@given(tree=_trees, chunk=st.integers(1, 5), depth=st.integers(1, 4))
def test_buffer_over_chunked_server(tree, chunk, depth):
    buffer = BufferComponent(
        TreeLXPServer(tree, chunk_size=chunk, depth=depth))
    assert materialize(buffer) == tree
    assert buffer.holes_outstanding() == 0


@settings(max_examples=80, deadline=None)
@given(tree=_trees, seed=st.integers(0, 5000), data=st.data())
def test_partial_navigation_matches_materialized(tree, seed, data):
    """Any partial navigation over the buffer equals the same
    navigation over the in-memory tree -- not just full exploration."""
    from repro.navigation import MaterializedDocument, Navigation, \
        run_navigation
    commands = data.draw(st.lists(
        st.sampled_from(["d", "r", "f"]), max_size=15))
    nav = Navigation.parse(";".join(commands))

    reference = run_navigation(MaterializedDocument(tree), nav)
    buffered_doc = BufferComponent(RandomizedLXPServer(tree, seed=seed))
    actual = run_navigation(buffered_doc, nav)

    assert actual.labels == reference.labels
    assert [p is None for p in actual.pointers] == \
        [p is None for p in reference.pointers]


class TestAdaptiveGranularity:
    def _tree(self, n=200):
        return Tree("r", [elem("x", str(i)) for i in range(n)])

    def test_exposes_the_tree(self):
        from repro.buffer import AdaptiveTreeLXPServer
        tree = self._tree(50)
        buffer = BufferComponent(
            AdaptiveTreeLXPServer(tree, initial_chunk=2, max_chunk=16))
        assert materialize(buffer) == tree

    def test_chunk_grows_along_a_scan(self):
        from repro.buffer import AdaptiveTreeLXPServer
        server = AdaptiveTreeLXPServer(self._tree(), initial_chunk=2,
                                       max_chunk=64, depth=2)
        (root,) = server.fill(("root",))
        hole = root.children[-1]
        assert isinstance(hole, FragHole)
        sizes = []
        while isinstance(hole, FragHole):
            reply = server.fill(hole.hole_id)
            elems = [f for f in reply if isinstance(f, FragElem)]
            sizes.append(len(elems))
            hole = reply[-1]
        # Doubling run capped at max_chunk.
        assert sizes[0] == 2 and sizes[1] == 4 and sizes[2] == 8
        assert max(sizes) <= 64
        assert sizes[-2] == 64  # reached the cap

    def test_fewer_fills_than_fixed_small_chunks(self):
        from repro.buffer import AdaptiveTreeLXPServer
        tree = self._tree(200)
        adaptive = BufferComponent(
            AdaptiveTreeLXPServer(tree, initial_chunk=2, max_chunk=64,
                                  depth=2))
        materialize(adaptive)
        fixed = BufferComponent(TreeLXPServer(tree, chunk_size=2,
                                              depth=2))
        materialize(fixed)
        assert adaptive.stats.fills < fixed.stats.fills / 3

    def test_peek_stays_cheap(self):
        from repro.buffer import AdaptiveTreeLXPServer
        server = AdaptiveTreeLXPServer(self._tree(200),
                                       initial_chunk=2, max_chunk=64,
                                       depth=2)
        buffer = BufferComponent(server)
        buffer.fetch(buffer.down(buffer.root()))  # peek at one child
        # Only the root fill (2 elements) happened: no overshipping.
        assert server.stats.elements_shipped <= 6

    def test_bad_parameters(self):
        from repro.buffer import AdaptiveTreeLXPServer
        with pytest.raises(ValueError):
            AdaptiveTreeLXPServer(self._tree(5), initial_chunk=8,
                                  max_chunk=4)


# ----------------------------------------------------------------------
# Batched LXP: fill_batch protocol and the batching buffer
# ----------------------------------------------------------------------

class TestFillBatchProtocol:
    def _server(self, n=10, chunk=2, depth=1):
        tree = Tree("r", [elem("x", str(i)) for i in range(n)])
        return TreeLXPServer(tree, chunk_size=chunk, depth=depth)

    def test_requested_ids_first_in_request_order(self):
        server = self._server()
        root_id = server.get_root().hole_id
        replies = server.fill_batch([root_id])
        assert [hid for hid, _ in replies] == [root_id]
        validate_fill_reply(replies[0][1])

    def test_speculation_follows_reply_frontier(self):
        server = self._server()
        root_id = server.get_root().hole_id
        replies = server.fill_batch([root_id], speculate=2)
        ids = [hid for hid, _ in replies]
        assert ids[0] == root_id and len(ids) == 3
        # Every speculative id was introduced by an earlier reply in
        # this same batch, in document (frontier) order.
        introduced = []
        for _, fragments in replies:
            introduced.extend(reply_holes(fragments))
        assert ids[1:] == introduced[:2]

    def test_speculation_never_reanswers(self):
        server = self._server(n=20, chunk=2)
        root_id = server.get_root().hole_id
        replies = server.fill_batch([root_id], speculate=50)
        ids = [hid for hid, _ in replies]
        assert len(ids) == len(set(ids))

    def test_zero_speculation_answers_exactly_the_request(self):
        server = self._server()
        root_id = server.get_root().hole_id
        assert len(server.fill_batch([root_id], speculate=0)) == 1

    def test_negative_speculation_rejected(self):
        server = self._server()
        with pytest.raises(LXPProtocolError):
            server.fill_batch([server.get_root().hole_id], speculate=-1)

    def test_each_answered_hole_counts_as_one_command(self):
        server = self._server()
        root_id = server.get_root().hole_id
        before = server.stats.fills
        replies = server.fill_batch([root_id], speculate=3)
        assert server.stats.fills - before == len(replies)

    def test_reply_holes_document_order(self):
        fragments = [
            FragElem("a", [FragHole("h1"), FragElem("b", [FragHole("h2")])]),
            FragHole("h3"),
        ]
        assert reply_holes(fragments) == ["h1", "h2", "h3"]


class TestBatchingBuffer:
    def _tree(self, n=12):
        return Tree("r", [elem("x", str(i)) for i in range(n)])

    def test_materializes_identically_to_plain_buffer(self):
        tree = self._tree()
        plain = materialize(BufferComponent(
            TreeLXPServer(tree, chunk_size=2, depth=1)))
        batched = materialize(BatchingBuffer(
            TreeLXPServer(tree, chunk_size=2, depth=1), speculate=4))
        assert batched == plain

    def test_speculative_fills_reduce_batches(self):
        tree = self._tree(20)

        def batches(speculate):
            buffer = BatchingBuffer(
                TreeLXPServer(tree, chunk_size=2, depth=1),
                speculate=speculate)
            materialize(buffer)
            return buffer.batch_stats.batches

        assert batches(4) < batches(0)

    def test_commands_equal_batches_plus_speculation(self):
        buffer = BatchingBuffer(
            TreeLXPServer(self._tree(), chunk_size=2, depth=1),
            speculate=3)
        materialize(buffer)
        stats = buffer.batch_stats
        assert stats.commands \
            == stats.batches + stats.speculative_fills
        assert stats.commands == buffer.stats.fills \
            + stats.dropped_replies

    def test_omitted_demand_reply_is_protocol_error(self):
        class RudeServer(TreeLXPServer):
            def fill_batch(self, hole_ids, speculate=0):
                return []  # never answers what was asked

        buffer = BatchingBuffer(RudeServer(self._tree(), chunk_size=2),
                                speculate=0)
        with pytest.raises(LXPProtocolError, match="omitted"):
            buffer.root()

    def test_stale_speculative_replies_are_dropped(self):
        class EchoTwiceServer(TreeLXPServer):
            """Answers the demand, then 'speculates' the same hole
            again -- the duplicate must be dropped, not spliced."""

            def fill_batch(self, hole_ids, speculate=0):
                replies = [(hid, self.fill(hid)) for hid in hole_ids]
                return replies + [(hole_ids[0],
                                   self.fill(hole_ids[0]))]

        tree = self._tree()
        buffer = BatchingBuffer(EchoTwiceServer(tree, chunk_size=2,
                                                depth=1))
        plain = materialize(BufferComponent(
            TreeLXPServer(tree, chunk_size=2, depth=1)))
        assert materialize(buffer) == plain
        assert buffer.batch_stats.dropped_replies > 0


class TestAsyncPrefetchingBuffer:
    def _tree(self, n=30):
        return Tree("r", [elem("x", str(i)) for i in range(n)])

    def test_materializes_identically_to_plain_buffer(self):
        tree = self._tree()
        plain = materialize(BufferComponent(
            TreeLXPServer(tree, chunk_size=3, depth=1)))
        buffer = AsyncPrefetchingBuffer(
            TreeLXPServer(tree, chunk_size=3, depth=1),
            lookahead=3, workers=2)
        try:
            assert materialize(buffer) == plain
        finally:
            buffer.close()

    def test_fill_accounting_balances(self):
        buffer = AsyncPrefetchingBuffer(
            TreeLXPServer(self._tree(), chunk_size=2, depth=1),
            lookahead=2, workers=2)
        try:
            materialize(buffer)
        finally:
            buffer.close()
        stats = buffer.prefetch_stats
        assert stats.demand_fills + stats.prefetch_fills \
            == buffer.stats.fills

    def test_invalid_parameters_rejected(self):
        server = TreeLXPServer(self._tree(), chunk_size=2)
        with pytest.raises(ValueError):
            AsyncPrefetchingBuffer(server, workers=0)
        with pytest.raises(ValueError):
            AsyncPrefetchingBuffer(server, lookahead=-1)

    def test_close_is_idempotent_and_buffer_survives(self):
        buffer = AsyncPrefetchingBuffer(
            TreeLXPServer(self._tree(8), chunk_size=2, depth=1),
            lookahead=2, workers=1)
        root = buffer.root()
        buffer.close()
        buffer.close()
        # Demand path still works after close (no more prefetching).
        assert buffer.down(root) is not None
