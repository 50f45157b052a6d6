"""Independent reference implementations used as test oracles.

Everything here is written directly from the defining clauses, favoring
clarity over speed: recursive views, per-position rule scans, exhaustive
enumeration, a full-matrix edit-distance table, and a scalar LSTM cell.
Nothing imports the corresponding fast paths from the package beyond the
shared data types.
"""

from __future__ import annotations

import numpy as np

from playlab.arena import (
    ANSWER,
    OPPONENT,
    PROPONENT,
    QUESTION,
    Arena,
    MoveId,
    move_player,
    parse_token,
)
from playlab.play import (
    ALTERNATION,
    BRACKETING,
    FORK,
    JOIN,
    JUSTIFICATION,
    VISIBILITY,
    PointedMove,
    PointedPlay,
    Verdict,
)


def play_of(*pairs) -> PointedPlay:
    """Build a play from (token, justifier-name) pairs; names are positions."""
    return tuple(
        PointedMove(parse_token(tok), i, just) for i, (tok, just) in enumerate(pairs)
    )


def enables(a: MoveId, b: MoveId) -> bool:
    """Does move a enable move b?  Question enables its answer; a question
    enables the questions one level below it."""
    if b.kind == ANSWER:
        return a.kind == QUESTION and a.path == b.path
    return a.kind == QUESTION and len(b.path) >= 1 and a.path == b.path[:-1]


def is_initial(m: MoveId) -> bool:
    return m.path == () and m.kind == QUESTION


# --- views, straight from the recursive clauses ---


def ref_pview(play: PointedPlay) -> PointedPlay:
    items = list(play)

    def pv(seq):
        if not seq:
            return []
        last = seq[-1]
        if move_player(last.move) == PROPONENT:
            return pv(seq[:-1]) + [last]
        if last.justifier is None:
            return [last]
        j = next(k for k, pm in enumerate(seq) if pm.name == last.justifier)
        return pv(seq[:j]) + [seq[j], last]

    return tuple(pv(items))


def ref_oview(play: PointedPlay) -> PointedPlay:
    items = list(play)

    def ov(seq):
        if not seq:
            return []
        last = seq[-1]
        if move_player(last.move) == OPPONENT:
            return ov(seq[:-1]) + [last]
        j = next(k for k, pm in enumerate(seq) if pm.name == last.justifier)
        return ov(seq[:j]) + [seq[j], last]

    return tuple(ov(items))


# --- per-position rule scans ---


def _justification_fault(arena: Arena, play: PointedPlay, i: int) -> bool:
    pm = play[i]
    if pm.move not in arena:
        raise AssertionError(f"move {pm.move} outside arena")
    earlier = list(play)[:i]
    if any(q.name == pm.name for q in earlier):
        return True
    if pm.justifier is None:
        return not is_initial(pm.move) or i != 0
    if is_initial(pm.move):
        return True
    sources = [q for q in earlier if q.name == pm.justifier]
    return len(sources) != 1 or not enables(sources[0].move, pm.move)


def ref_pending(play: PointedPlay) -> list[int]:
    answered = [pm.justifier for pm in play if pm.move.kind == ANSWER]
    return [
        pm.name
        for pm in play
        if pm.move.kind == QUESTION and pm.name not in answered
    ]


def ref_check_justified(arena: Arena, play: PointedPlay) -> Verdict:
    for i in range(len(play)):
        if _justification_fault(arena, play, i):
            return Verdict.fail(JUSTIFICATION, i)
    return Verdict.ok()


def ref_check_sequential(arena: Arena, play: PointedPlay) -> Verdict:
    items = list(play)
    for i, pm in enumerate(items):
        if _justification_fault(arena, play, i):
            return Verdict.fail(JUSTIFICATION, i)
        player = move_player(pm.move)
        if i == 0 and player != OPPONENT:
            return Verdict.fail(ALTERNATION, i)
        if i > 0 and move_player(items[i - 1].move) == player:
            return Verdict.fail(ALTERNATION, i)
        prefix = play[:i]
        if pm.move.kind == ANSWER:
            pend = ref_pending(prefix)
            if not pend or pm.justifier != pend[-1]:
                return Verdict.fail(BRACKETING, i)
        if pm.justifier is not None:
            view = ref_pview(prefix) if player == PROPONENT else ref_oview(prefix)
            if pm.justifier not in [x.name for x in view]:
                return Verdict.fail(VISIBILITY, i)
    return Verdict.ok()


def ref_check_concurrent(arena: Arena, play: PointedPlay) -> Verdict:
    items = list(play)
    for i, pm in enumerate(items):
        if _justification_fault(arena, play, i):
            return Verdict.fail(JUSTIFICATION, i)
        prefix = play[:i]
        if pm.justifier is not None and pm.justifier not in ref_pending(prefix):
            return Verdict.fail(FORK, i)
        if pm.move.kind == ANSWER:
            answered = [x.justifier for x in prefix if x.move.kind == ANSWER]
            spawned = [
                x.name
                for x in prefix
                if x.move.kind == QUESTION and x.justifier == pm.justifier
            ]
            if any(name not in answered for name in spawned):
                return Verdict.fail(JOIN, i)
    return Verdict.ok()


# --- exhaustive enumeration ---


def enumerate_justified(arena: Arena, max_len: int) -> list[PointedPlay]:
    """Every justified sequence (well-opened) of length <= max_len,
    including the empty play, built constructively."""
    out = [()]

    def extend(play: PointedPlay):
        if len(play) >= max_len:
            return
        if len(play) == 0:
            candidates = [(m, None) for m in arena.moves if is_initial(m)]
        else:
            candidates = [
                (m, pm.name)
                for pm in play
                for m in arena.moves
                if enables(pm.move, m)
            ]
        for move, justifier in candidates:
            bigger = play + (PointedMove(move, len(play), justifier),)
            out.append(bigger)
            extend(bigger)

    extend(())
    return out


def enumerate_ref_legal(arena: Arena, checker, max_len: int) -> list[PointedPlay]:
    """Legal plays only, filtered by a reference checker; prune on prefixes
    (legality is prefix-closed, which the property tests verify separately)."""
    out = [()]

    def extend(play: PointedPlay):
        if len(play) >= max_len:
            return
        if len(play) == 0:
            candidates = [(m, None) for m in arena.moves if is_initial(m)]
        else:
            candidates = [
                (m, pm.name)
                for pm in play
                for m in arena.moves
                if enables(pm.move, m)
            ]
        for move, justifier in candidates:
            bigger = play + (PointedMove(move, len(play), justifier),)
            if checker(arena, bigger).legal:
                out.append(bigger)
                extend(bigger)

    extend(())
    return out


def brute_force_extensions(arena: Arena, lang: str, play: PointedPlay):
    """All (move, justifier-name) pairs whose appended play the package
    checker accepts; the justifier ranges over every earlier occurrence."""
    from playlab.play import checker_for

    checker = checker_for(lang)
    found = set()
    justifiers = [None] + [pm.name for pm in play]
    for move in arena.moves:
        for j in justifiers:
            if checker(arena, play + (PointedMove(move, len(play), j),)).legal:
                found.add((move, j))
    return found


# --- edit distance, full-matrix textbook table ---


def lev_matrix(a, b) -> int:
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


# --- scalar LSTM cell ---


def scalar_lstm_step(x, h, c, w_x, w_h, bias):
    """Loop-and-float reference for one cell step; gate columns are packed
    [input, forget, output, candidate]."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v)) if v >= 0 else np.exp(v) / (1.0 + np.exp(v))

    H = len(h)
    z = [float(bias[k]) for k in range(4 * H)]
    for k in range(4 * H):
        for a in range(len(x)):
            z[k] += float(x[a]) * float(w_x[a][k])
        for a in range(H):
            z[k] += float(h[a]) * float(w_h[a][k])
    h2, c2 = [0.0] * H, [0.0] * H
    for k in range(H):
        i = sig(z[k])
        f = sig(z[H + k])
        o = sig(z[2 * H + k])
        g = np.tanh(z[3 * H + k])
        c2[k] = f * float(c[k]) + i * g
        h2[k] = o * np.tanh(c2[k])
    return h2, c2
