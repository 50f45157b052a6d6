"""Arenas derived from simple type signatures.

A type expression over the single ground type ``unit`` (``unit``,
``unit -> unit``, ``(unit -> unit) -> unit``, ...) determines a finite tree
with one node per ``unit`` occurrence: the result occurrence is the root and
each argument's tree hangs below it.  The arena over that tree has two moves
per node, a question and an answer, addressed by the node's path from the
root.  A question is an opponent move at even depth and a proponent move at
odd depth; its answer has the opposite polarity.  Each non-root question is
enabled by the question at its parent node, each answer by its own question,
and the root question is the unique initial move.
"""

from __future__ import annotations

from dataclasses import dataclass

OPPONENT = "O"
PROPONENT = "P"
QUESTION = "q"
ANSWER = "a"

GROUND = "unit"
ARROW = "->"

Path = tuple[int, ...]


class TypeSyntaxError(ValueError):
    """Raised on malformed type expressions, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownMoveError(KeyError):
    """Raised when a move does not belong to the arena in question."""

    def __init__(self, move):
        super().__init__(str(move))
        self.move = move

    def __str__(self) -> str:
        return f"move {self.move} is not a move of this arena"


@dataclass(frozen=True)
class TypeTree:
    """Argument tree of a type over ``unit``; a leaf is ``unit`` itself.

    ``unit -> unit`` is the root with one leaf child; argument order is
    left to right, so child i is the i-th argument (1-based in paths).
    """

    args: tuple["TypeTree", ...] = ()

    def node_count(self) -> int:
        return 1 + sum(a.node_count() for a in self.args)


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append((ch, i))
            i += 1
        elif text.startswith(ARROW, i):
            tokens.append((ARROW, i))
            i += 2
        elif text.startswith(GROUND, i):
            tokens.append((GROUND, i))
            i += len(GROUND)
        else:
            raise TypeSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def parse_type(text: str) -> TypeTree:
    """Parse a type expression; ``->`` associates to the right."""
    tokens = _tokenize(text)
    if not tokens:
        raise TypeSyntaxError("empty type expression", 0)
    try:
        tree, pos = _parse_arrow(tokens, 0)
    except RecursionError:
        raise TypeSyntaxError("parentheses nested too deeply", text.find("(")) from None
    if pos != len(tokens):
        raise TypeSyntaxError(f"unexpected {tokens[pos][0]!r}", tokens[pos][1])
    return tree


def _parse_arrow(tokens, pos) -> tuple[TypeTree, int]:
    # T1 -> ... -> Tn grafts T1 .. Tn-1 as the first arguments of Tn's root.
    heads = []
    tail, pos = _parse_atom(tokens, pos)
    while pos < len(tokens) and tokens[pos][0] == ARROW:
        heads.append(tail)
        tail, pos = _parse_atom(tokens, pos + 1)
    return TypeTree(tuple(heads) + tail.args), pos


def _parse_atom(tokens, pos) -> tuple[TypeTree, int]:
    if pos >= len(tokens):
        last = tokens[-1][1] + len(tokens[-1][0]) if tokens else 0
        raise TypeSyntaxError("unexpected end of type expression", last)
    tok, at = tokens[pos]
    if tok == GROUND:
        return TypeTree(), pos + 1
    if tok == "(":
        inner, pos = _parse_arrow(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos][0] != ")":
            raise TypeSyntaxError("unbalanced parenthesis", at)
        return inner, pos + 1
    raise TypeSyntaxError(f"unexpected {tok!r}", at)


def render_type(tree: TypeTree) -> str:
    """Canonical text for a type tree; ``parse_type`` round-trips it."""
    if not tree.args:
        return GROUND
    parts = []
    for arg in tree.args:
        text = render_type(arg)
        parts.append(f"({text})" if arg.args else text)
    return " -> ".join(parts + [GROUND])


def uniform_tree(order: int, width: int) -> TypeTree:
    """Complete tree of the given height with ``width`` children per
    internal node; order 0 is the single leaf."""
    if order < 0 or width < 1:
        raise ValueError(f"need order >= 0 and width >= 1, got {order}, {width}")
    tree = TypeTree()
    for _ in range(order):
        tree = TypeTree((tree,) * width)
    return tree


def arena_order(tree: TypeTree) -> int:
    """Height of the type tree (0 for ``unit``)."""
    if not tree.args:
        return 0
    return 1 + max(arena_order(a) for a in tree.args)


def arena_width(tree: TypeTree) -> int:
    """Maximum argument count at any node (0 for ``unit``)."""
    if not tree.args:
        return 0
    return max(len(tree.args), max(arena_width(a) for a in tree.args))


@dataclass(frozen=True, order=True)
class MoveId:
    """A move, addressed by node path and kind.

    Ordering is (path, kind), which is the canonical move order used for
    vocabularies and dumps.
    """

    path: Path
    kind: str  # QUESTION or ANSWER

    @property
    def token(self) -> str:
        suffix = ".".join(str(i) for i in self.path) if self.path else "ε"
        return f"{self.kind}@{suffix}"

    def __str__(self) -> str:
        return self.token


def parse_token(token: str) -> MoveId:
    """Inverse of ``MoveId.token``: ``q@ε``, ``a@1.2``, ..."""
    kind, sep, rest = token.partition("@")
    if not sep or kind not in (QUESTION, ANSWER):
        raise ValueError(f"malformed move token {token!r}")
    if rest == "ε":
        return MoveId((), kind)
    try:
        path = tuple(int(p) for p in rest.split("."))
    except ValueError:
        raise ValueError(f"malformed move token {token!r}") from None
    if not path or any(p < 1 for p in path):
        raise ValueError(f"malformed move token {token!r}")
    return MoveId(path, kind)


def move_player(move: MoveId) -> str:
    """Which player the move belongs to; depends only on depth and kind."""
    even = len(move.path) % 2 == 0
    if move.kind == QUESTION:
        return OPPONENT if even else PROPONENT
    return PROPONENT if even else OPPONENT


@dataclass(frozen=True)
class Polarity:
    player: str  # OPPONENT or PROPONENT
    kind: str  # QUESTION or ANSWER


class Arena:
    """Moves, labelling, enabling and the initial move for one type tree.

    Moves are held in canonical order; integer indices into that order are
    used internally by the play machinery.
    """

    def __init__(self, tree: TypeTree):
        self.tree = tree
        paths = []

        def walk(node: TypeTree, path: Path):
            paths.append(path)
            for i, arg in enumerate(node.args, start=1):
                walk(arg, path + (i,))

        walk(tree, ())
        self.moves: tuple[MoveId, ...] = tuple(
            sorted(MoveId(p, k) for p in paths for k in (ANSWER, QUESTION))
        )
        self.tokens: tuple[str, ...] = tuple(m.token for m in self.moves)
        self._index: dict[MoveId, int] = {m: i for i, m in enumerate(self.moves)}
        self.initial = MoveId((), QUESTION)

        n = len(self.moves)
        self.player = [move_player(m) for m in self.moves]
        self.is_question = [m.kind == QUESTION for m in self.moves]
        self.enabler_idx: list[int | None] = [None] * n
        self.answer_of: list[int | None] = [None] * n
        self.child_questions: list[tuple[int, ...]] = [()] * n
        for i, m in enumerate(self.moves):
            if m.kind == ANSWER:
                q = self._index[MoveId(m.path, QUESTION)]
                self.enabler_idx[i] = q
                self.answer_of[q] = i
            elif m.path:
                q = self._index[MoveId(m.path[:-1], QUESTION)]
                self.enabler_idx[i] = q
                # i ascends, so each tuple stays sorted
                self.child_questions[q] += (i,)
        self.initial_idx = self._index[self.initial]

    def __len__(self) -> int:
        return len(self.moves)

    def __contains__(self, move: MoveId) -> bool:
        return move in self._index

    def index(self, move: MoveId) -> int:
        try:
            return self._index[move]
        except KeyError:
            raise UnknownMoveError(move) from None

    def labelling(self, move: MoveId) -> Polarity:
        i = self.index(move)
        return Polarity(self.player[i], QUESTION if self.is_question[i] else ANSWER)

    def spec(self) -> str:
        return render_type(self.tree)


def make_arena(tree: TypeTree) -> Arena:
    return Arena(tree)


def enabler_of(arena: Arena, move: MoveId) -> MoveId | None:
    """The unique enabling move, or None for the initial move."""
    e = arena.enabler_idx[arena.index(move)]
    return None if e is None else arena.moves[e]
