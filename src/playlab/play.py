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
``_PlayState.violation`` for the language's rules before each ``push``; the
checkers and ``legal_extensions`` are replays.  ``_PlayState.extensions``
builds the same legal moves constructively, walking only the mover's view,
for the generator and the pointer search, which ``push`` and ``pop`` one
state.  Views (Hyland and Ong) are walked by ``_view_positions``, for the
state and for ``pview``/``oview`` alike.  Fork and join follow Ghica and
Murawski's concurrent plays.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .arena import (
    ANSWER,
    OPPONENT,
    PROPONENT,
    QUESTION,
    Arena,
    MoveId,
    move_player,
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


class IllegalPlayError(ValueError):
    """Raised when an operation requires a legal play and gets an illegal one."""

    def __init__(self, verdict: "Verdict"):
        super().__init__(f"illegal play: {verdict.rule} at index {verdict.index}")
        self.verdict = verdict


class SearchBudgetExceeded(RuntimeError):
    """Raised when justification-assignment search exceeds its node budget."""


@dataclass(frozen=True)
class PointedMove:
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


def parse_pointed(text: str) -> PointedPlay:
    """One pointed play; see ``parse_pointed_file``."""
    plays = parse_pointed_file(text)
    if len(plays) > 1:
        raise ValueError(f"expected one pointed play, got {len(plays)}")
    return plays[0] if plays else PointedPlay()


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


def _view_positions(players, justs, appender: str) -> list[int]:
    """Occurrence positions of the ``appender``'s view, right to left.

    Occurrence i belongs to ``players[i]`` and ``justs[i]`` is the position
    of its justifier, -1 for an opener.  The appender's own moves step left;
    the other player's moves pull in their justifier and resume to its left;
    an opening opponent move ends a proponent view.
    """
    out = []
    i = len(players) - 1
    while i >= 0:
        out.append(i)
        if players[i] == appender:
            i -= 1
            continue
        j = justs[i]
        if j < 0:
            if appender != PROPONENT:
                raise ValueError(f"proponent move without a justifier at {i}")
            break
        if j >= i:
            raise ValueError(f"unresolved justifier at {i}")
        out.append(j)
        i = j - 1
    return out


def _view(play: PointedPlay, appender: str) -> PointedPlay:
    items = play.items
    pos = {pm.name: i for i, pm in enumerate(items)}
    players = [move_player(pm.move) for pm in items]
    # a dangling pointer resolves to its own position, which the walk rejects
    justs = [
        -1 if pm.justifier is None else pos.get(pm.justifier, i)
        for i, pm in enumerate(items)
    ]
    view = _view_positions(players, justs, appender)
    return PointedPlay(tuple(items[k] for k in reversed(view)))


def pview(play: PointedPlay) -> PointedPlay:
    """Proponent view: own moves accumulate, opponent moves jump back to
    their justifier, an opening move restarts the view."""
    return _view(play, PROPONENT)


def oview(play: PointedPlay) -> PointedPlay:
    """Opponent view, dual to ``pview`` but with no restart clause."""
    return _view(play, OPPONENT)


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
    appended and ``extensions`` lists every move that may.  ``push`` appends
    a move without re-validating it; ``pop`` undoes the last ``push``.
    """

    __slots__ = ("arena", "lang", "occ_move", "occ_player", "occ_just", "pending", "open_children")

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
            if justifier >= 0:
                if justifier not in _view_positions(self.occ_player, self.occ_just, player):
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
            if self.pending and self.pending[-1] == justifier:
                self.pending.pop()
            else:
                self.pending.remove(justifier)
            parent = self.occ_just[justifier]
            if parent >= 0:
                self.open_children[parent] -= 1

    def pop(self) -> None:
        """Undo the last ``push``.  ``pending`` is kept in occurrence order,
        so an answered question goes back to its sorted place."""
        move_idx = self.occ_move.pop()
        self.occ_player.pop()
        justifier = self.occ_just.pop()
        self.open_children.pop()
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
            mover = PROPONENT if self.occ_player[-1] == OPPONENT else OPPONENT
            view = _view_positions(self.occ_player, self.occ_just, mover)
            for occ in view:
                mi = self.occ_move[occ]
                if arena.is_question[mi]:
                    for child in arena.child_questions[mi]:
                        if arena.player[child] == mover:
                            exts.append((child, occ))
            if self.pending:
                occ = self.pending[-1]
                answer = arena.answer_of[self.occ_move[occ]]
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

    def to_play(self) -> PointedPlay:
        moves = self.arena.moves
        return PointedPlay(
            tuple(
                PointedMove(moves[mi], k, None if j < 0 else j)
                for k, (mi, j) in enumerate(zip(self.occ_move, self.occ_just))
            )
        )


def _replay(arena: Arena, play: PointedPlay, state: _PlayState | None = None) -> Verdict:
    """Replay ``play`` and report its first broken rule.

    Justification is checked here, while names are mapped to occurrences.
    Given an empty ``state``, each justified move is then checked by
    ``state.violation`` and pushed, so the state ends holding the longest
    legal prefix.
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
        if state is not None:
            rule = state.violation(mi, j)
            if rule is not None:
                return Verdict.fail(rule, i)
            state.push(mi, j)
        seen[pm.name] = (i, mi)
    return Verdict.ok()


def check_justified(arena: Arena, play: PointedPlay) -> Verdict:
    """Well-formedness: fresh names, a single opening initial move first,
    and every justifier naming an earlier occurrence that enables the move."""
    return _replay(arena, play)


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


def legal_extensions(arena: Arena, lang: str, play: PointedPlay) -> list[PointedMove]:
    """Every pointed move that extends ``play`` to a longer legal play,
    in canonical (move, justifier) order."""
    state = _PlayState(arena, lang)
    verdict = _replay(arena, play, state)
    if not verdict.legal:
        raise IllegalPlayError(verdict)
    name = play.items[-1].name + 1 if play.items else 0
    return [
        PointedMove(arena.moves[mi], name, None if j < 0 else play.items[j].name)
        for mi, j in state.extensions()
    ]


def justification_assignments(
    arena: Arena,
    lang: str,
    tokens,
    limit: int = 2,
) -> list[PointedPlay]:
    """Pointer reconstructions of a bare token sequence: all ways (up to
    ``limit``) of assigning justifiers so the result is legal in ``lang``.

    Token order is kept; the search walks legal extensions only, so every
    returned play is legal by construction.  Raises SearchBudgetExceeded
    once it has explored more than ``SEARCH_BUDGET`` extensions.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    want = [arena.index(parse_token(t)) for t in tokens]
    results: list[PointedPlay] = []
    spent = 0
    state = _PlayState(arena, lang)
    untried = []  # untried[k]: legal (move, justifier) choices for token k not yet tried
    while True:  # the state holds one move per entry of untried
        k = len(untried)
        if k == len(want):
            results.append(state.to_play())
            if len(results) >= limit:
                return results
        else:
            untried.append(iter([e for e in state.extensions() if e[0] == want[k]]))
        while untried:  # backtrack to the deepest token with a choice left
            if len(state) == len(untried):
                state.pop()
            choice = next(untried[-1], None)
            if choice is not None:
                break
            untried.pop()
        else:
            return results
        spent += 1
        if spent > SEARCH_BUDGET:
            raise SearchBudgetExceeded(f"more than {SEARCH_BUDGET} extensions explored")
        state.push(*choice)
