"""Regular path expressions and their NFA-based incremental matcher.

``getDescendants`` (paper Section 3) extracts descendants of a parent
element reachable by a label path matching a regular expression over
labels.  The grammar follows the paper's usage (``homes.home``,
``zip._``) plus the "usual operators"::

    path  :=  alt
    alt   :=  seq ('|' seq)*
    seq   :=  rep ('.' rep)*
    rep   :=  atom ('*' | '+' | '?')?
    atom  :=  LABEL  |  '_'  |  '(' alt ')'

``_`` matches any single label.  ``a.b*`` parses as ``a . (b*)`` --
postfix operators bind to the preceding atom.

The matcher is a Thompson NFA driven *incrementally*: the lazy
``getDescendants`` mediator carries a frontier of NFA states in each
node-id and advances it one label at a time as the client navigates
deeper.  This is what makes path matching navigation-driven rather than
whole-tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import PathSyntaxError

__all__ = [
    "PathExpr", "Label", "Wildcard", "Seq", "Alt", "Star", "Plus", "Opt",
    "parse_path", "PathNFA", "compile_path", "naive_match",
]


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------

class PathExpr:
    """Base class of regular path expression AST nodes."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Label(PathExpr):
    """Match exactly one node labeled ``name``."""
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Wildcard(PathExpr):
    """``_``: match exactly one node with any label."""

    def __str__(self) -> str:
        return "_"


@dataclass(frozen=True)
class Seq(PathExpr):
    """Concatenation ``p1.p2``."""
    parts: Tuple[PathExpr, ...]

    def __str__(self) -> str:
        return ".".join(
            ("(%s)" % p) if isinstance(p, Alt) else str(p)
            for p in self.parts
        )


@dataclass(frozen=True)
class Alt(PathExpr):
    """Alternation ``p1|p2``."""
    options: Tuple[PathExpr, ...]

    def __str__(self) -> str:
        return "|".join(str(p) for p in self.options)


@dataclass(frozen=True)
class Star(PathExpr):
    """Kleene star ``p*`` (zero or more)."""
    inner: PathExpr

    def __str__(self) -> str:
        return _postfix_str(self.inner, "*")


@dataclass(frozen=True)
class Plus(PathExpr):
    """``p+`` (one or more)."""
    inner: PathExpr

    def __str__(self) -> str:
        return _postfix_str(self.inner, "+")


@dataclass(frozen=True)
class Opt(PathExpr):
    """``p?`` (zero or one)."""
    inner: PathExpr

    def __str__(self) -> str:
        return _postfix_str(self.inner, "?")


def _postfix_str(inner: PathExpr, op: str) -> str:
    if isinstance(inner, (Label, Wildcard)):
        return "%s%s" % (inner, op)
    return "(%s)%s" % (inner, op)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

_LABEL_RE = re.compile(r"[A-Za-z0-9_@][-A-Za-z0-9_@:]*")
# NB: '_' alone is the wildcard; '_x' is a plain label.


class _PathParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> PathExpr:
        expr = self.parse_alt()
        self._skip_ws()
        if self.pos != len(self.text):
            raise PathSyntaxError(
                "unexpected %r at offset %d in path %r"
                % (self.text[self.pos], self.pos, self.text)
            )
        return expr

    def parse_alt(self) -> PathExpr:
        options = [self.parse_seq()]
        while self.peek() == "|":
            self.pos += 1
            options.append(self.parse_seq())
        if len(options) == 1:
            return options[0]
        return Alt(tuple(options))

    def parse_seq(self) -> PathExpr:
        parts = [self.parse_rep()]
        while self.peek() == ".":
            self.pos += 1
            parts.append(self.parse_rep())
        if len(parts) == 1:
            return parts[0]
        return Seq(tuple(parts))

    def parse_rep(self) -> PathExpr:
        atom = self.parse_atom()
        while True:
            op = self.peek()
            if op == "*":
                self.pos += 1
                atom = Star(atom)
            elif op == "+":
                self.pos += 1
                atom = Plus(atom)
            elif op == "?":
                self.pos += 1
                atom = Opt(atom)
            else:
                return atom

    def parse_atom(self) -> PathExpr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.parse_alt()
            if self.peek() != ")":
                raise PathSyntaxError(
                    "missing ')' in path %r" % self.text
                )
            self.pos += 1
            return inner
        self._skip_ws()
        match = _LABEL_RE.match(self.text, self.pos)
        if not match:
            raise PathSyntaxError(
                "expected a label at offset %d in path %r"
                % (self.pos, self.text)
            )
        self.pos = match.end()
        name = match.group(0)
        if name == "_":
            return Wildcard()
        return Label(name)


def parse_path(text: str) -> PathExpr:
    """Parse a regular path expression string into its AST."""
    if not text or not text.strip():
        raise PathSyntaxError("empty path expression")
    return _PathParser(text).parse()


# ----------------------------------------------------------------------
# Thompson NFA
# ----------------------------------------------------------------------

#: Transition guard: a concrete label string, or None for the wildcard.
Guard = Optional[str]


#: Entries a :class:`PathNFA` keeps in its ``step`` memo.
STEP_MEMO_LIMIT = 4096


class PathNFA:
    """An epsilon-free NFA over node labels with set-of-states stepping.

    States are small integers.  The matcher works on *frozensets* of
    states so that a frontier can be embedded into a (hashable) node-id
    of the lazy ``getDescendants`` mediator.
    """

    def __init__(self, expr: PathExpr):
        self.expr = expr
        #: transitions[state] -> list of (guard, next_state)
        self._transitions: List[List[Tuple[Guard, int]]] = []
        self._epsilon: List[List[int]] = []
        self._accept: int = -1
        start = self._new_state()
        self._accept = self._new_state()
        self._build(expr, start, self._accept)
        self._closure_cache: Dict[int, FrozenSet[int]] = {}
        #: step() memo, (frontier, label) -> frontier: a pure memo,
        #: since the automaton never changes after construction
        self._step_memo: Dict[Tuple[FrozenSet[int], str],
                              FrozenSet[int]] = {}
        self.start_states: FrozenSet[int] = self._closure({start})
        self._recursive = self._detect_cycle()

    # -- construction ---------------------------------------------------
    def _new_state(self) -> int:
        self._transitions.append([])
        self._epsilon.append([])
        return len(self._transitions) - 1

    def _build(self, expr: PathExpr, src: int, dst: int) -> None:
        if isinstance(expr, Label):
            self._transitions[src].append((expr.name, dst))
        elif isinstance(expr, Wildcard):
            self._transitions[src].append((None, dst))
        elif isinstance(expr, Seq):
            current = src
            for part in expr.parts[:-1]:
                nxt = self._new_state()
                self._build(part, current, nxt)
                current = nxt
            self._build(expr.parts[-1], current, dst)
        elif isinstance(expr, Alt):
            for option in expr.options:
                self._build(option, src, dst)
        elif isinstance(expr, Star):
            hub = self._new_state()
            self._epsilon[src].append(hub)
            self._epsilon[hub].append(dst)
            self._build(expr.inner, hub, hub)
        elif isinstance(expr, Plus):
            hub = self._new_state()
            self._build(expr.inner, src, hub)
            self._build(expr.inner, hub, hub)
            self._epsilon[hub].append(dst)
        elif isinstance(expr, Opt):
            self._epsilon[src].append(dst)
            self._build(expr.inner, src, dst)
        else:  # pragma: no cover - exhaustive
            raise TypeError("unknown path expression %r" % (expr,))

    def _closure(self, states: Iterable[int]) -> FrozenSet[int]:
        result = set()
        stack = list(states)
        while stack:
            state = stack.pop()
            if state in result:
                continue
            result.add(state)
            stack.extend(self._epsilon[state])
        return frozenset(result)

    def _detect_cycle(self) -> bool:
        """True when the expression can match unboundedly long paths.

        Every atom (label or wildcard) consumes exactly one path label,
        so matchable length is unbounded iff the AST contains ``*`` or
        ``+``.  Recursive paths force the getDescendants mediator to
        cache visited input nodes (paper Section 3).
        """

        def has_repeat(expr: PathExpr) -> bool:
            if isinstance(expr, (Star, Plus)):
                return True
            if isinstance(expr, Seq):
                return any(has_repeat(p) for p in expr.parts)
            if isinstance(expr, Alt):
                return any(has_repeat(o) for o in expr.options)
            if isinstance(expr, Opt):
                return has_repeat(expr.inner)
            return False

        return has_repeat(self.expr)

    # -- matcher interface ----------------------------------------------
    @property
    def is_recursive(self) -> bool:
        """Whether the expression can match unboundedly long paths."""
        return self._recursive

    def step(self, states: FrozenSet[int], label: str) -> FrozenSet[int]:
        """Advance the state frontier by one path label."""
        key = (states, label)
        memo = self._step_memo
        after = memo.get(key)
        if after is None:
            after = self._step(states, label)
            if len(memo) >= STEP_MEMO_LIMIT:
                # Source labels are data (text leaves included): start
                # over rather than grow with the document.
                memo.clear()
            memo[key] = after
        return after

    def _step(self, states: FrozenSet[int], label: str) -> FrozenSet[int]:
        """:meth:`step` without the memo."""
        nxt = set()
        for state in states:
            for guard, target in self._transitions[state]:
                if guard is None or guard == label:
                    nxt.add(target)
        if not nxt:
            return frozenset()
        return self._closure(nxt)

    def is_accepting(self, states: FrozenSet[int]) -> bool:
        """Whether the frontier contains the accept state."""
        return self._accept in states

    def is_alive(self, states: FrozenSet[int]) -> bool:
        """Whether any extension of the consumed path could still match.

        A dead frontier lets the mediator prune a whole subtree without
        navigating into it.
        """
        return bool(states)

    def progress_labels(self, states: FrozenSet[int]
                        ) -> Optional[FrozenSet[str]]:
        """The exact set of labels that can advance the frontier, or
        None when a wildcard transition makes every label viable.

        When this returns a (small) concrete set, a sibling-selection
        command ``select(sigma)`` can jump straight to the next viable
        sibling -- the paper's Example 1 upgrade of label filters from
        browsable to bounded browsable.
        """
        labels = set()
        for state in states:
            for guard, _target in self._transitions[state]:
                if guard is None:
                    return None
                labels.add(guard)
        return frozenset(labels)

    def final_labels(self) -> Optional[FrozenSet[str]]:
        """The labels a matching path can end with, or None when a
        wildcard can be final (the extracted node's label is then
        unconstrained).

        Used by DTD inference: a variable bound via ``homes.home`` is
        known to hold ``home`` elements.
        """
        finals = set()
        for state in range(len(self._transitions)):
            for guard, target in self._transitions[state]:
                if self._accept in self._closure({target}):
                    if guard is None:
                        return None
                    finals.add(guard)
        return frozenset(finals)

    def matches(self, labels: Sequence[str]) -> bool:
        """Whole-sequence match (the non-incremental entry point)."""
        states = self.start_states
        for label in labels:
            states = self.step(states, label)
            if not states:
                return False
        return self.is_accepting(states)

    def max_match_length(self) -> Optional[int]:
        """Longest matchable path length, or None when recursive."""
        if self._recursive:
            return None
        # Longest path in a DAG over combined label/epsilon edges, where
        # label edges weigh 1 and epsilon edges weigh 0.
        n = len(self._transitions)
        memo: Dict[int, int] = {}

        def longest(state: int) -> int:
            if state in memo:
                return memo[state]
            memo[state] = 0  # placeholder against accidental cycles
            best = 0
            for _, target in self._transitions[state]:
                best = max(best, 1 + longest(target))
            for target in self._epsilon[state]:
                best = max(best, longest(target))
            memo[state] = best
            return best

        return max(longest(s) for s in self.start_states)


def compile_path(path: "str | PathExpr") -> PathNFA:
    """Compile a path string or AST into an NFA matcher."""
    expr = parse_path(path) if isinstance(path, str) else path
    return PathNFA(expr)


# ----------------------------------------------------------------------
# Naive reference semantics (oracle for property tests)
# ----------------------------------------------------------------------

def naive_match(expr: PathExpr, labels: Sequence[str]) -> bool:
    """Direct recursive interpretation of the path semantics.

    Exponential in the worst case -- used only as a test oracle against
    the NFA matcher on small inputs.
    """
    labels = list(labels)

    def match(e: PathExpr, i: int, j: int) -> bool:
        if isinstance(e, Label):
            return j == i + 1 and labels[i] == e.name
        if isinstance(e, Wildcard):
            return j == i + 1
        if isinstance(e, Alt):
            return any(match(o, i, j) for o in e.options)
        if isinstance(e, Seq):
            return _match_seq(e.parts, i, j)
        if isinstance(e, Opt):
            return i == j or match(e.inner, i, j)
        if isinstance(e, Star):
            return _match_star(e.inner, i, j, allow_empty=True)
        if isinstance(e, Plus):
            return _match_star(e.inner, i, j, allow_empty=False)
        raise TypeError("unknown path expression %r" % (e,))

    def _match_seq(parts: Tuple[PathExpr, ...], i: int, j: int) -> bool:
        if not parts:
            return i == j
        head, rest = parts[0], parts[1:]
        return any(
            match(head, i, k) and _match_seq(rest, k, j)
            for k in range(i, j + 1)
        )

    def _match_star(inner: PathExpr, i: int, j: int,
                    allow_empty: bool) -> bool:
        if i == j:
            # p+ matches the empty path iff p itself does (e.g. (a?)+).
            return allow_empty or match(inner, i, j)
        return any(
            match(inner, i, k) and (k == j or _match_star(inner, k, j, True))
            for k in range(i + 1, j + 1)
        )

    return match(expr, 0, len(labels))
