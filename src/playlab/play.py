"""Justified pointer sequences and play legality.

A pointed play is a plain tuple of ``PointedMove(move, name, justifier)``:
the move itself, a fresh name for this occurrence, and the name of the
earlier occurrence that justifies it (``None`` for the opening move).  Names
are realized as 0-based occurrence indices.  Plays are well-opened: exactly
one initial move, placed first.

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
sequential state keeps, for each prefix, the last mover's occurrences in the
next mover's view (Hyland and Ong): the view alternates players, so these
are all the next move may point at.  ``push`` builds each from its
justifier's; these are the only views computed, and no rule walks the play.
By bracketing its pending questions are a stack: an answer pops the latest.
A concurrent state instead counts each occurrence's unanswered child
questions, which fork and join read (Ghica and Murawski's concurrent
plays); only it removes an answered question from the middle.  The pointer
search backtracks straight to the deepest token with an untried choice and
ends once no token has one; the concurrent search also remembers dead states
by their pending forest up to isomorphism (the AHU canonical form; Aho,
Hopcroft and Ullman).  ``reconstruction_verdict`` is the one reading of a
search's outcome, for ``check`` and ``perturb --require-illegal``.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import NamedTuple

from .arena import PROPONENT, Arena, MoveId, parse_token

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


PointedPlay = tuple[PointedMove, ...]

# builds a PointedMove from a (move, name, justifier) triple in one C call,
# without the NamedTuple's Python-level __new__
_pointed_move = partial(tuple.__new__, PointedMove)


def format_pointed(play: PointedPlay) -> str:
    """One move per line: ``token name justifier`` with ``*`` for the opener."""
    return "\n".join(str(pm) for pm in play) + ("\n" if len(play) else "")


def _decimal(text: str) -> int:
    """A name or justifier, in the one spelling ``str`` renders (not ``+1``,
    ``01``, ``0_0`` or other digits ``int`` reads)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise ValueError(f"malformed number {text!r}")
    return value


def parse_pointed_file(text: str) -> list[PointedPlay]:
    """Pointed plays, one move per line; a blank (or all-whitespace) line
    ends a play.  Errors name the line of ``text``."""
    plays, items = [], []
    # the blank line appended at the end closes the last play
    for lineno, raw in enumerate([*text.split("\n"), ""], start=1):
        parts = raw.split()
        if not parts:
            if items:
                plays.append(tuple(items))
                items = []
            continue
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'token name justifier', got {raw!r}")
        try:
            move, name = parse_token(parts[0]), _decimal(parts[1])
            justifier = None if parts[2] == "*" else _decimal(parts[2])
            items.append(PointedMove(move, name, justifier))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e} in {raw!r}") from None
    return plays


class _PlayState:
    """A play held as per-occurrence arrays, one move at a time.

    Occurrences are integers 0..n-1 (also their names); a justifier is an
    occurrence, -1 for the opener.  ``violation`` says whether a move may be
    appended, ``extensions`` lists every move that may and ``justifiers``
    every way one move may.  ``push`` appends a move without re-validating
    it; ``pop`` undoes the last ``push``.  Both languages keep the moves,
    their justifiers and the pending questions; a seq state also keeps
    ``views`` and treats ``pending`` as a bracketed stack, and a conc state
    keeps ``open_children`` for fork and join.
    """

    __slots__ = ("arena", "lang", "occ_move", "occ_just", "pending", "open_children", "views")

    def __init__(self, arena: Arena, lang: str):
        if lang not in LANGUAGES:
            raise ValueError(f"unknown language {lang!r}; expected one of {LANGUAGES}")
        self.arena = arena
        self.lang = lang
        self.occ_move: list[int] = []  # arena move index per occurrence
        self.occ_just: list[int] = []  # justifier occurrence, -1 for the opener
        self.pending: list[int] = []  # unanswered question occurrences, oldest first
        # conc only: unanswered questions spawned per occurrence
        self.open_children: list[int] = []
        # seq only: views[n] is the last mover's occurrences in the next
        # mover's view of the first n moves, oldest first: the view alternates
        # players, so these are all the next move may point at.  That view is
        # the next mover's view before the last move's justifier, then the
        # justifier and the last move, so views[n] is views[justifier] and
        # the last move
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
            if player == (arena.player[self.occ_move[-1]] if self.occ_move else PROPONENT):
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
        k = len(self.occ_move)
        self.occ_move.append(move_idx)
        self.occ_just.append(justifier)
        question = self.arena.is_question[move_idx]
        if self.lang == SEQUENTIAL:
            # by bracketing an answer answers the latest pending question
            if question:
                self.pending.append(k)
            else:
                self.pending.pop()
            self.views.append(self.views[justifier] + (k,) if justifier >= 0 else (k,))
            return
        self.open_children.append(0)
        if question:
            self.pending.append(k)
            if justifier >= 0:
                self.open_children[justifier] += 1
        else:
            self.pending.remove(justifier)
            parent = self.occ_just[justifier]
            if parent >= 0:
                self.open_children[parent] -= 1

    def pop(self) -> None:
        """Undo the last ``push``.  ``pending`` stays in occurrence order: a
        seq answer's question was the latest, a conc one's goes back to its
        sorted place."""
        move_idx = self.occ_move.pop()
        justifier = self.occ_just.pop()
        question = self.arena.is_question[move_idx]
        if self.lang == SEQUENTIAL:
            self.views.pop()
            if question:
                self.pending.pop()
            else:
                self.pending.append(justifier)
            return
        self.open_children.pop()
        if question:
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
            occ_move = self.occ_move
            view = self.views[-1]
            for occ in view:
                for child in arena.child_questions[occ_move[occ]]:
                    exts.append((child, occ))
            if self.pending and self.pending[-1] in view:
                occ = self.pending[-1]
                exts.append((arena.answer_of[occ_move[occ]], occ))
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
            view = self.views[-1]
            if arena.is_question[move_idx]:
                return [(move_idx, occ) for occ in view if occ_move[occ] == enabler]
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
        justifiers = [None if j < 0 else j for j in self.occ_just]
        return tuple(map(_pointed_move, zip([moves[mi] for mi in self.occ_move], count(), justifiers)))


def _replay(arena: Arena, play: PointedPlay, state: _PlayState) -> Verdict:
    """Replay ``play`` onto the empty ``state`` and report its first broken
    rule.

    Justification is checked here, while names are mapped to occurrences;
    each justified move is then checked by ``state.violation`` and pushed.
    """
    seen: dict[int, int] = {}  # name -> occurrence
    occ_move = state.occ_move
    for i, pm in enumerate(play):
        mi = arena.index(pm.move)  # raises UnknownMoveError
        enabler = arena.enabler_idx[mi]
        if pm.justifier is None:
            j, justified = -1, enabler is None and i == 0
        else:
            j = seen.get(pm.justifier, -1)
            justified = j >= 0 and occ_move[j] == enabler
        if pm.name in seen or not justified:
            return Verdict.fail(JUSTIFICATION, i)
        rule = state.violation(mi, j)
        if rule is not None:
            return Verdict.fail(rule, i)
        state.push(mi, j)
        seen[pm.name] = i
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
    returned play is legal by construction.  It keeps a stack of the choice
    points, the tokens with two or more choices; it backtracks straight to
    the deepest with a choice left (a forced token is not revisited) and
    returns once none has, so a play with no choice point costs one replay.
    In ``conc`` the rest of a play depends only on the token reached and the
    pending forest, so a choice point whose subtree added no result is
    remembered by those and not searched again; a forced or dead-ended token
    costs less to search again than to key.  Raises SearchBudgetExceeded
    once it has explored more than ``SEARCH_BUDGET`` extensions.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    want = [arena.index(t) for t in tokens]
    results: list[PointedPlay] = []
    spent = 0
    state = _PlayState(arena, lang)
    occ_move = state.occ_move
    memo = lang == CONCURRENT
    dead = set()  # conc: (token, pending forest) of states that led to no result
    # one frame per choice point on the current path, deepest last: its token,
    # untried choices (last first), memo key (or None) and results on entry
    frames = []
    while True:
        k = len(occ_move)
        choices = []
        if k == len(want):
            results.append(state.to_play())
            if len(results) >= limit:
                return results
        else:
            choices = state.justifiers(want[k])
            if len(choices) > 1:
                key = (k, state.pending_forest()) if memo else None
                if key in dead:
                    choices = []
                else:
                    frames.append((k, choices[:0:-1], key, len(results)))
        if choices:
            choice = choices[0]
        else:  # backtrack to the deepest choice point with a choice left
            while frames and not frames[-1][1]:  # spent: dead if it added no result
                _, _, key, found = frames.pop()
                if key is not None and found == len(results):
                    dead.add(key)
            if not frames:
                return results
            k, untried, _, _ = frames[-1]
            choice = untried.pop()
            for _ in range(len(occ_move) - k):
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
