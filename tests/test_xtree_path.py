"""Unit + property tests for regular path expressions and the NFA."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xtree import (
    Alt,
    Label,
    Opt,
    PathSyntaxError,
    Plus,
    Seq,
    Star,
    Wildcard,
    compile_path,
    naive_match,
    parse_path,
)


class TestParser:
    def test_single_label(self):
        assert parse_path("home") == Label("home")

    def test_wildcard(self):
        assert parse_path("_") == Wildcard()

    def test_underscore_prefixed_name_is_a_label(self):
        assert parse_path("_x") == Label("_x")

    def test_sequence(self):
        assert parse_path("homes.home") == Seq((Label("homes"),
                                                Label("home")))

    def test_alternation(self):
        assert parse_path("a|b") == Alt((Label("a"), Label("b")))

    def test_star_binds_to_atom(self):
        expr = parse_path("a.b*")
        assert expr == Seq((Label("a"), Star(Label("b"))))

    def test_plus_and_opt(self):
        assert parse_path("a+") == Plus(Label("a"))
        assert parse_path("a?") == Opt(Label("a"))

    def test_grouping(self):
        expr = parse_path("(a|b).c")
        assert expr == Seq((Alt((Label("a"), Label("b"))), Label("c")))

    def test_nested_repetition(self):
        assert parse_path("(a.b)*") == Star(Seq((Label("a"), Label("b"))))

    def test_precedence_alt_lowest(self):
        expr = parse_path("a.b|c")
        assert expr == Alt((Seq((Label("a"), Label("b"))), Label("c")))

    def test_str_round_trip(self):
        for text in ["homes.home", "zip._", "(a|b)*.c", "a.b?.c", "x+"]:
            assert parse_path(str(parse_path(text))) == parse_path(text)

    @pytest.mark.parametrize("bad", ["", "   ", "a..b", "a|", "(a", "a)",
                                     "*", ".a"])
    def test_syntax_errors(self, bad):
        with pytest.raises(PathSyntaxError):
            parse_path(bad)


class TestMatching:
    @pytest.mark.parametrize("path,labels,expected", [
        ("homes.home", ["homes", "home"], True),
        ("homes.home", ["homes"], False),
        ("homes.home", ["homes", "home", "zip"], False),
        ("zip._", ["zip", "91220"], True),
        ("zip._", ["zip"], False),
        ("_", ["anything"], True),
        ("_", [], False),
        ("a|b", ["a"], True),
        ("a|b", ["b"], True),
        ("a|b", ["c"], False),
        ("a*", [], True),
        ("a*", ["a", "a", "a"], True),
        ("a*", ["a", "b"], False),
        ("a+", [], False),
        ("a+", ["a"], True),
        ("a?.b", ["b"], True),
        ("a?.b", ["a", "b"], True),
        ("(a|b)*.c", ["a", "b", "a", "c"], True),
        ("(a|b)*.c", ["c"], True),
        ("(a|b)*.c", ["a", "d", "c"], False),
        ("_*.zip", ["x", "y", "zip"], True),
        ("_*.zip", ["zip"], True),
    ])
    def test_matches(self, path, labels, expected):
        assert compile_path(path).matches(labels) is expected

    def test_incremental_stepping(self):
        nfa = compile_path("a.b*.c")
        states = nfa.start_states
        states = nfa.step(states, "a")
        assert nfa.is_alive(states) and not nfa.is_accepting(states)
        states = nfa.step(states, "b")
        assert nfa.is_alive(states)
        states = nfa.step(states, "c")
        assert nfa.is_accepting(states)

    def test_dead_frontier_prunes(self):
        nfa = compile_path("a.b")
        states = nfa.step(nfa.start_states, "x")
        assert not nfa.is_alive(states)
        # Stepping a dead frontier stays dead.
        assert not nfa.is_alive(nfa.step(states, "a"))

    def test_recursive_detection(self):
        assert compile_path("a*").is_recursive
        assert compile_path("a.b+").is_recursive
        assert compile_path("(a.b)?").is_recursive is False
        assert compile_path("homes.home").is_recursive is False

    def test_max_match_length(self):
        assert compile_path("homes.home").max_match_length() == 2
        assert compile_path("a.b?.c").max_match_length() == 3
        assert compile_path("a|b.c").max_match_length() == 2
        assert compile_path("a*").max_match_length() is None


# ----------------------------------------------------------------------
# Property: the NFA agrees with the naive recursive semantics.
# ----------------------------------------------------------------------

_LABELS = ["a", "b", "c"]


def _exprs(depth: int):
    if depth == 0:
        return st.one_of(
            st.sampled_from([Label(x) for x in _LABELS]),
            st.just(Wildcard()),
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        sub,
        st.lists(sub, min_size=2, max_size=3).map(
            lambda ps: Seq(tuple(ps))),
        st.lists(sub, min_size=2, max_size=3).map(
            lambda ps: Alt(tuple(ps))),
        sub.map(Star),
        sub.map(Plus),
        sub.map(Opt),
    )


@settings(max_examples=300, deadline=None)
@given(
    expr=_exprs(2),
    labels=st.lists(st.sampled_from(_LABELS), max_size=6),
)
def test_nfa_matches_naive_semantics(expr, labels):
    assert compile_path(expr).matches(labels) == naive_match(expr, labels)


@settings(max_examples=100, deadline=None)
@given(
    expr=_exprs(2),
    labels=st.lists(st.sampled_from(_LABELS), max_size=6),
)
def test_parse_of_str_is_identity_modulo_matching(expr, labels):
    reparsed = parse_path(str(expr))
    assert (compile_path(reparsed).matches(labels)
            == compile_path(expr).matches(labels))


@settings(max_examples=200, deadline=None)
@given(
    expr=_exprs(2),
    walks=st.lists(st.lists(st.sampled_from(_LABELS + ["z"]), max_size=6),
                   min_size=1, max_size=4),
)
def test_memoized_step_matches_uncached_stepping(expr, walks):
    """Several walks over one automaton, so later steps hit the memo
    earlier ones filled."""
    nfa = compile_path(expr)
    for labels in walks:
        cached = uncached = nfa.start_states
        for label in labels:
            cached = nfa.step(cached, label)
            uncached = nfa._step(uncached, label)
            assert cached == uncached


def test_step_memo_is_bounded():
    from repro.xtree.path import STEP_MEMO_LIMIT

    nfa = compile_path("_*")
    after = nfa._step(nfa.start_states, "any")
    for index in range(STEP_MEMO_LIMIT + 10):
        assert nfa.step(nfa.start_states, "l%d" % index) == after
    assert 0 < len(nfa._step_memo) <= STEP_MEMO_LIMIT
