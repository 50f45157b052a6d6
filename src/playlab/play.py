"""Justified pointer sequences and play legality.

A pointed move carries the move itself, a fresh name for this occurrence,
and the name of the earlier occurrence that justifies it (``None`` for the
opening move).  Names are realized as 0-based occurrence indices.  Plays are
well-opened: exactly one initial move, placed first.

One state machine, ``_PlayState``, knows the play rules.  It holds a play as
per-occurrence arrays and checks a move against them in this order,
reporting the first rule the move breaks:

    justification  fresh name; the initial move opens, first; every other
                   move points at an earlier occurrence of its enabler
    seq            alternation  the opponent opens, then players alternate
                   bracketing   an answer answers the latest pending question
                   visibility   the justifier is in the mover's view
    conc           fork         the justifier is still pending
                   join         an answer waits until every question its
                                question spawned is answered

``_replay`` maps names to occurrences and checks justification, then asks
``_PlayState.violation`` for the language's rules before each ``push``; both
checkers are replays.  ``_PlayState.extensions`` builds the same legal moves
constructively, for the generator, and ``_PlayState.justifiers`` those of
one move, for the pointer search; both ``push`` and ``pop`` one state.  A
sequential state keeps the next mover's view (Hyland and Ong) of each
prefix, one tuple built from its justifier's in ``push``; these are the
only views computed, and no rule walks the play.  Fork and join follow
Ghica and Murawski's concurrent plays.  The pointer search backtracks
straight to the deepest token with an untried choice and ends once no token
has one; the concurrent search also remembers dead states by their pending
forest up to isomorphism (the AHU canonical form; Aho, Hopcroft and
Ullman).  ``reconstruction_verdict`` is the one reading of a search's
outcome, for ``check`` and ``perturb --require-illegal``.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import NamedTuple

from .arena import (
    ANSWER,
    OPPONENT,
    PROPONENT,
    QUESTION,
    Arena,
    MoveId,
    parse_token,
)

SEQUENTIAL = "seq"
CONCURRENT = "conc"
LANGUAGES = (SEQUENTIAL, CONCURRENT)

JUSTIFICATION = "justification"
ALTERNATION = "alternation"
BRACKETING = "bracketing"
VISIBILITY = "visibility"
FORK = "fork"
JOIN = "join"

SEARCH_BUDGET = 1_000_000  # extensions the pointer search explores before giving up
VERDICTS = LEGAL, ILLEGAL, AMBIGUOUS = ("legal", "illegal", "ambiguous")  # `check`'s words


class SearchBudgetExceeded(RuntimeError):
    """Raised when justification-assignment search exceeds its node budget."""


class PointedMove(NamedTuple):  # not a dataclass: to_play builds one per move
    move: MoveId
    name: int
    justifier: int | None  # name of the justifying occurrence, None opens

    def __str__(self) -> str:
        j = "*" if self.justifier is None else str(self.justifier)
        return f"{self.move.token} {self.name} {j}"


@dataclass(frozen=True)
class Verdict:
    legal: bool
    rule: str | None = None
    index: int | None = None

    @staticmethod
    def ok() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def fail(rule: str, index: int) -> "Verdict":
        return Verdict(False, rule, index)

    def __str__(self) -> str:
        return LEGAL if self.legal else f"{ILLEGAL} {self.rule} at {self.index}"


@dataclass(frozen=True)
class PointedPlay:
    items: tuple[PointedMove, ...] = ()

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return PointedPlay(self.items[key])
        return self.items[key]

    def append(self, move: MoveId, justifier: int | None) -> "PointedPlay":
        name = self.items[-1].name + 1 if self.items else 0
        return PointedPlay(self.items + (PointedMove(move, name, justifier),))

    @classmethod
    def from_pairs(cls, pairs) -> "PointedPlay":
        """Build from (move, justifier-name) pairs; names are positions."""
        return cls(tuple(PointedMove(m, i, j) for i, (m, j) in enumerate(pairs)))


def format_pointed(play: PointedPlay) -> str:
    """One move per line: ``token name justifier`` with ``*`` for the opener."""
    return "\n".join(str(pm) for pm in play) + ("\n" if len(play) else "")


def parse_pointed_file(text: str) -> list[PointedPlay]:
    """Pointed plays, one move per line; a blank (or all-whitespace) line
    ends a play.  Errors name the line of ``text``."""
    plays, items = [], []
    # the blank line appended at the end closes the last play
    for lineno, raw in enumerate([*text.split("\n"), ""], start=1):
        parts = raw.split()
        if not parts:
            if items:
                plays.append(PointedPlay(tuple(items)))
                items = []
            continue
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'token name justifier', got {raw!r}")
        try:
            justifier = None if parts[2] == "*" else int(parts[2])
            items.append(PointedMove(parse_token(parts[0]), int(parts[1]), justifier))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e} in {raw!r}") from None
    return plays


def pending_questions(play: PointedPlay) -> list[int]:
    """Names of question occurrences not yet answered, in occurrence order."""
    answered = {pm.justifier for pm in play.items if pm.move.kind == ANSWER}
    return [
        pm.name
        for pm in play.items
        if pm.move.kind == QUESTION and pm.name not in answered
    ]


class _PlayState:
    """A play held as per-occurrence arrays, one move at a time.

    Occurrences are integers 0..n-1 (also their names); a justifier is an
    occurrence, -1 for the opener.  ``violation`` says whether a move may be
    appended, ``extensions`` lists every move that may and ``justifiers``
    every way one move may.  ``push`` appends a move without re-validating
    it; ``pop`` undoes the last ``push``.
    """

    __slots__ = ("arena", "lang", "occ_move", "occ_player", "occ_just", "pending", "open_children",
                 "views")

    def __init__(self, arena: Arena, lang: str):
        if lang not in LANGUAGES:
            raise ValueError(f"unknown language {lang!r}; expected one of {LANGUAGES}")
        self.arena = arena
        self.lang = lang
        self.occ_move: list[int] = []  # arena move index per occurrence
        self.occ_player: list[str] = []  # owner of each occurrence's move
        self.occ_just: list[int] = []  # justifier occurrence, -1 for the opener
        self.pending: list[int] = []  # unanswered question occurrences, oldest first
        self.open_children: list[int] = []  # unanswered questions spawned per occurrence
        # seq only: views[n] is the next mover's view of the first n moves,
        # positions right to left.  The plays a state holds alternate, so the
        # last move is the other player's and the view jumps to its justifier
        self.views: list[tuple[int, ...]] = [()]

    def __len__(self) -> int:
        return len(self.occ_move)

    def violation(self, move_idx: int, justifier: int) -> str | None:
        """The first rule of the language that appending ``move_idx``,
        justified by occurrence ``justifier``, breaks; None when none does.
        The move must already be justified (see ``_replay``)."""
        arena = self.arena
        if self.lang == SEQUENTIAL:
            player = arena.player[move_idx]
            # the empty play counts as ended by the proponent, so the opponent opens
            if player == (self.occ_player[-1] if self.occ_player else PROPONENT):
                return ALTERNATION
            if not arena.is_question[move_idx]:
                if not self.pending or self.pending[-1] != justifier:
                    return BRACKETING
            if justifier >= 0 and justifier not in self.views[-1]:
                return VISIBILITY
        else:
            if justifier >= 0 and justifier not in self.pending:
                return FORK
            if not arena.is_question[move_idx] and self.open_children[justifier] > 0:
                return JOIN
        return None

    def push(self, move_idx: int, justifier: int) -> None:
        arena = self.arena
        k = len(self.occ_move)
        self.occ_move.append(move_idx)
        self.occ_player.append(arena.player[move_idx])
        self.occ_just.append(justifier)
        self.open_children.append(0)
        if arena.is_question[move_idx]:
            self.pending.append(k)
            if justifier >= 0:
                self.open_children[justifier] += 1
        else:
            self.pending.remove(justifier)
            parent = self.occ_just[justifier]
            if parent >= 0:
                self.open_children[parent] -= 1
        if self.lang == SEQUENTIAL:
            self.views.append((k, justifier) + self.views[justifier] if justifier >= 0 else (k,))

    def pop(self) -> None:
        """Undo the last ``push``.  ``pending`` is kept in occurrence order,
        so an answered question goes back to its sorted place."""
        move_idx = self.occ_move.pop()
        self.occ_player.pop()
        justifier = self.occ_just.pop()
        self.open_children.pop()
        if self.lang == SEQUENTIAL:
            self.views.pop()
        if self.arena.is_question[move_idx]:
            self.pending.pop()
            if justifier >= 0:
                self.open_children[justifier] -= 1
        else:
            insort(self.pending, justifier)
            parent = self.occ_just[justifier]
            if parent >= 0:
                self.open_children[parent] += 1

    def extensions(self) -> list[tuple[int, int]]:
        """All (move index, justifier occurrence) pairs that extend this
        play legally; justifier -1 denotes the opener."""
        arena = self.arena
        if not self.occ_move:
            return [(arena.initial_idx, -1)]
        exts: list[tuple[int, int]] = []
        if self.lang == SEQUENTIAL:
            occ_player, occ_move = self.occ_player, self.occ_move
            mover = PROPONENT if occ_player[-1] == OPPONENT else OPPONENT
            view = self.views[-1]
            # the view alternates players, the other player's last move first:
            # the mover asks the child questions of every other entry
            for occ in view[::2]:
                for child in arena.child_questions[occ_move[occ]]:
                    exts.append((child, occ))
            if self.pending:
                occ = self.pending[-1]
                answer = arena.answer_of[occ_move[occ]]
                if arena.player[answer] == mover and occ in view:
                    exts.append((answer, occ))
        else:
            for occ in self.pending:
                mi = self.occ_move[occ]
                for child in arena.child_questions[mi]:
                    exts.append((child, occ))
                if self.open_children[occ] == 0:
                    exts.append((arena.answer_of[mi], occ))
        exts.sort()
        return exts

    def justifiers(self, move_idx: int) -> list[tuple[int, int]]:
        """The pairs of ``extensions()`` whose move is ``move_idx``, in the
        same order, built from that move's enabler alone."""
        arena = self.arena
        if not self.occ_move:
            return [(move_idx, -1)] if move_idx == arena.initial_idx else []
        enabler = arena.enabler_idx[move_idx]
        occ_move = self.occ_move
        if self.lang == SEQUENTIAL:
            if arena.player[move_idx] == self.occ_player[-1]:
                return []
            view = self.views[-1]
            if arena.is_question[move_idx]:
                return [(move_idx, occ) for occ in reversed(view) if occ_move[occ] == enabler]
            pending = self.pending
            if pending and occ_move[pending[-1]] == enabler and pending[-1] in view:
                return [(move_idx, pending[-1])]
            return []
        if arena.is_question[move_idx]:
            return [(move_idx, occ) for occ in self.pending if occ_move[occ] == enabler]
        open_children = self.open_children
        return [
            (move_idx, occ)
            for occ in self.pending
            if occ_move[occ] == enabler and open_children[occ] == 0
        ]

    def pending_forest(self) -> tuple:
        """The pending questions as a forest labelled by move, in canonical
        form (AHU): a node is its move and the sorted forms of its pending
        children, so isomorphic forests, and only they, are equal."""
        occ_move, occ_just = self.occ_move, self.occ_just
        children: dict[int, list] = {}
        for occ in reversed(self.pending):  # each child before its parent
            form = (occ_move[occ], tuple(sorted(children.pop(occ, ()))))
            children.setdefault(occ_just[occ], []).append(form)
        return tuple(sorted(form for forms in children.values() for form in forms))

    def to_play(self) -> PointedPlay:
        moves = self.arena.moves
        return PointedPlay(
            tuple(
                PointedMove(moves[mi], k, None if j < 0 else j)
                for k, (mi, j) in enumerate(zip(self.occ_move, self.occ_just))
            )
        )


def _replay(arena: Arena, play: PointedPlay, state: _PlayState) -> Verdict:
    """Replay ``play`` onto the empty ``state`` and report its first broken
    rule.

    Justification is checked here, while names are mapped to occurrences;
    each justified move is then checked by ``state.violation`` and pushed.
    """
    seen: dict[int, tuple[int, int]] = {}  # name -> (occurrence, arena move index)
    for i, pm in enumerate(play.items):
        mi = arena.index(pm.move)  # raises UnknownMoveError
        enabler = arena.enabler_idx[mi]
        if pm.justifier is None:
            j, justified = -1, enabler is None and i == 0
        else:
            j, j_move = seen.get(pm.justifier, (-1, None))
            justified = enabler is not None and j_move == enabler
        if pm.name in seen or not justified:
            return Verdict.fail(JUSTIFICATION, i)
        rule = state.violation(mi, j)
        if rule is not None:
            return Verdict.fail(rule, i)
        state.push(mi, j)
        seen[pm.name] = (i, mi)
    return Verdict.ok()


def check_sequential(arena: Arena, play: PointedPlay) -> Verdict:
    """Justification, alternation, bracketing and visibility, in that
    order per position; the first offending position is reported."""
    return _replay(arena, play, _PlayState(arena, SEQUENTIAL))


def check_concurrent(arena: Arena, play: PointedPlay) -> Verdict:
    """Justification, fork and join; no alternation, no views."""
    return _replay(arena, play, _PlayState(arena, CONCURRENT))


def checker_for(lang: str):
    if lang == SEQUENTIAL:
        return check_sequential
    if lang == CONCURRENT:
        return check_concurrent
    raise ValueError(f"unknown language {lang!r}; expected one of {LANGUAGES}")


def justification_assignments(
    arena: Arena,
    lang: str,
    tokens,
    limit: int = 2,
) -> list[PointedPlay]:
    """Pointer reconstructions of a bare token sequence: all ways (up to
    ``limit``) of assigning justifiers so the result is legal in ``lang``.

    Token order is kept; the search walks legal extensions only, so every
    returned play is legal by construction.  It keeps a stack of the tokens
    with untried choices, backtracks straight to the deepest of them (a
    forced token is not revisited) and returns once the stack is empty, so a
    play with no choice point costs one replay.  In ``conc`` the rest of a play
    depends only on the token reached and the pending forest, so a state
    whose subtree added no result is remembered by those and not searched
    again.  Only states with two or more choices are keyed: a forced or
    dead-ended token costs less to search again than to key.  Raises
    SearchBudgetExceeded once it has explored more than ``SEARCH_BUDGET``
    extensions.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    want = [arena.index(t) for t in tokens]
    results: list[PointedPlay] = []
    spent = 0
    state = _PlayState(arena, lang)
    memo = lang == CONCURRENT
    dead = set()  # conc: (token, pending forest) of states that led to no result
    entered = []  # entered[k]: token k's memo key (or None), and the result count on reaching it
    branches = []  # (token, its untried choices, last first) of tokens with one left, deepest last
    while True:  # the state holds one move per entry of entered
        k = len(state)
        choices = []
        if k == len(want):
            results.append(state.to_play())
            if len(results) >= limit:
                return results
        else:
            choices = state.justifiers(want[k])
            key = (k, state.pending_forest()) if memo and len(choices) > 1 else None
            if key in dead:
                choices = []
            entered.append((key, len(results)))
        if choices:
            choice = choices[0]
            if len(choices) > 1:
                branches.append((k, choices[:0:-1]))
        else:  # backtrack to the deepest token with a choice left
            if not branches:
                return results
            k, untried = branches[-1]
            choice = untried.pop()
            if not untried:
                branches.pop()
            for key, found in entered[k + 1:]:
                if key is not None and found == len(results):
                    dead.add(key)
            del entered[k + 1:]
            for _ in range(len(state) - k):
                state.pop()
        spent += 1
        if spent > SEARCH_BUDGET:
            raise SearchBudgetExceeded(f"more than {SEARCH_BUDGET} extensions explored")
        state.push(*choice)


def reconstruction_verdict(arena: Arena, lang: str, tokens, limit: int = 2) -> str:
    """What ``check`` says of a bare token sequence: ``illegal`` if no
    pointer reconstruction is legal, ``legal`` if one is, ``ambiguous`` if
    ``limit`` (at least 2) are, and ``ambiguous (search budget exceeded)``
    if the search gives up first.  With ``limit=1``, ``legal`` means at
    least one."""
    try:
        found = justification_assignments(arena, lang, tokens, limit=limit)
    except SearchBudgetExceeded:
        return f"{AMBIGUOUS} (search budget exceeded)"
    return ILLEGAL if not found else LEGAL if len(found) == 1 else AMBIGUOUS
