"""Random play corpora: generation, pointer elision, perturbation, and a
line-oriented text format.

A corpus line is a pointer-elided play: move tokens in order, closed by the
end-of-play token ``$``.  Generation draws each play from its own substream
keyed by (seed, play index), so corpora are reproducible and plays can be
regenerated in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arena import ANSWER, Arena, TypeSyntaxError, make_arena, parse_type, render_type
from .fileio import write_atomic
from .play import ILLEGAL, LANGUAGES, PointedPlay, _decimal, _PlayState, reconstruction_verdict
from .rng import Draws

EOP = "$"

MAX_LEN = 50  # longest play the experiments and ``gen`` draw by default
MAX_ATTEMPTS = 500  # re-rolls per play before perturb_corpus gives up on illegality
PERTURB_RATIO = 0.1  # default share of a play's tokens that perturbation edits

TokenSeq = tuple[str, ...]


class CorpusFormatError(ValueError):
    """Raised on malformed corpus files, with file location where known."""


class Vocab:
    """Dense token ids for one arena: EOP is 0, then the arena's move
    tokens in canonical order."""

    def __init__(self, arena: Arena):
        self.tokens: tuple[str, ...] = (EOP,) + arena.tokens
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, seq: TokenSeq) -> np.ndarray:
        try:
            return np.array([self.index[t] for t in seq], dtype=np.int64)
        except KeyError as e:
            raise KeyError(f"token {e.args[0]!r} not in vocabulary") from None


def build_vocab(arena: Arena) -> Vocab:
    return Vocab(arena)


@dataclass
class Corpus:
    arena_spec: str  # the header's type expression, kept as written
    language: str
    seed: int
    plays: list[TokenSeq] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.plays)

    @cached_property
    def arena(self) -> Arena:
        """The arena ``arena_spec`` names, built on first access and kept."""
        return make_arena(parse_type(self.arena_spec))


def generate_play(
    arena: Arena, lang: str, max_len: int, rng: np.random.Generator | Draws
) -> PointedPlay:
    """One random legal play of length <= max_len.

    Each step appends a uniform choice among the legal extensions;
    generation stops when no extension exists (as for every complete play)
    or the length cap is reached.  ``rng`` is a Generator or a ``Draws``;
    both draw the same play from the same stream.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    state = _PlayState(arena, lang)
    occ_move = state.occ_move
    while len(occ_move) < max_len:
        exts = state.extensions()
        if not exts:
            break
        state.push(*exts[rng.integers(len(exts))])
    return state.to_play()


def is_complete(play: PointedPlay) -> bool:
    """Whether a legal play has no pending question: in a legal play each
    answer closes exactly one pending question, so it is complete when its
    answers make up half its moves."""
    return 2 * sum(pm.move.kind == ANSWER for pm in play) == len(play)


def elide(play: PointedPlay) -> TokenSeq:
    """Drop names and pointers; keep move tokens in order, close with EOP."""
    return (*[pm.move.token for pm in play], EOP)


def generate_corpus(
    arena: Arena,
    lang: str,
    count: int,
    max_len: int,
    seed: int,
    complete_only: bool = False,
) -> Corpus:
    """``count`` independent plays; play i is drawn from substream (seed, i).

    With ``complete_only`` each substream re-rolls until the play has no
    pending questions, so it needs ``max_len >= 2`` (a question and its
    answer).  Plays of either language can stop at ``max_len`` with
    questions pending, sequential ones too (most seq o2w5 plays do).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if complete_only and max_len < 2:
        raise ValueError(f"a complete play needs max_len >= 2, got {max_len}")
    plays = []
    draws = Draws(seed)
    for i in range(count):
        draws.rekey(seed, i)
        play = generate_play(arena, lang, max_len, draws)
        if complete_only:
            for _ in range(1000):
                if is_complete(play):
                    break
                play = generate_play(arena, lang, max_len, draws)
            else:
                raise ValueError(f"no complete play found for substream ({seed}, {i})")
        plays.append(elide(play))
    return Corpus(render_type(arena.tree), lang, seed, plays)


def corpus_text(corpus: Corpus) -> str:
    lines = [
        "#version 1",
        f"#arena {corpus.arena_spec}",
        f"#language {corpus.language}",
        f"#seed {corpus.seed}",
        f"#count {len(corpus.plays)}",
    ]
    lines.extend(" ".join(seq) for seq in corpus.plays)
    return "\n".join(lines) + "\n"


def write_corpus(corpus: Corpus, path) -> None:
    write_atomic(path, corpus_text(corpus).encode("utf-8"))


def _header_value(line: str, lineno: int, key: str) -> str:
    prefix = f"#{key} "
    if not line.startswith(prefix):
        raise CorpusFormatError(f"line {lineno}: expected '{prefix}<value>', got {line!r}")
    return line[len(prefix):].strip()


def _header_int(line: str, lineno: int, key: str) -> int:
    """An integer in the one spelling ``corpus_text`` writes."""
    value = _header_value(line, lineno, key)
    try:
        return _decimal(value)
    except ValueError:
        raise CorpusFormatError(
            f"line {lineno}: #{key} must be an integer, got {value!r}") from None


def read_corpus(path) -> Corpus:
    """Parse and validate a corpus file; every token must belong to the
    declared arena's vocabulary, with EOP exactly once and last per play."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != "#version 1":
        found = lines[0].strip() if lines else "empty file"
        raise CorpusFormatError(f"line 1: unsupported corpus format ({found!r})")
    if len(lines) < 5:
        raise CorpusFormatError(
            f"truncated header: expected 5 header lines, the file has {len(lines)}")
    spec = _header_value(lines[1], 2, "arena")
    lang = _header_value(lines[2], 3, "language")
    if lang not in LANGUAGES:
        raise CorpusFormatError(f"line 3: unknown language {lang!r}")
    corpus = Corpus(spec, lang, _header_int(lines[3], 4, "seed"))
    count = _header_int(lines[4], 5, "count")
    try:
        arena = corpus.arena
    except TypeSyntaxError as e:
        raise CorpusFormatError(f"line 2: arena {spec!r}: {e}") from None
    known = frozenset(Vocab(arena).tokens)
    for lineno, line in enumerate(lines[5:], start=6):
        if not line.strip():
            continue
        seq = tuple(line.split())
        if not known.issuperset(seq):
            tok = next(t for t in seq if t not in known)
            raise CorpusFormatError(f"line {lineno}: token {tok!r} outside arena vocabulary")
        if seq.count(EOP) != 1 or seq[-1] != EOP:
            raise CorpusFormatError(f"line {lineno}: play must end with a single {EOP!r}")
        corpus.plays.append(seq)
    if len(corpus) != count:
        raise CorpusFormatError(f"header count {count} but {len(corpus)} plays present")
    return corpus


def _core(seq: TokenSeq) -> tuple[str, ...]:
    return seq[:-1] if seq and seq[-1] == EOP else tuple(seq)


def levenshtein(a: TokenSeq, b: TokenSeq) -> int:
    """Token-level edit distance; a trailing EOP on either side is ignored."""
    xs, ys = _core(a), _core(b)
    if len(xs) < len(ys):
        xs, ys = ys, xs
    prev = list(range(len(ys) + 1))
    for i, x in enumerate(xs, start=1):
        cur = [i] + [0] * len(ys)
        for j, y in enumerate(ys, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def perturb(
    seq: TokenSeq, vocab: Vocab, ratio: float, rng: np.random.Generator | Draws
) -> TokenSeq:
    """Apply k = max(1, floor(ratio * len)) random single-token edits.

    Each edit picks uniformly among insert/delete/substitute (insert only,
    once nothing is left to delete or substitute), positions uniformly, and
    replacement tokens uniformly from the arena vocabulary; EOP is neither
    edited nor inserted.  The edit distance to the input is at most k.
    ``rng`` is a Generator or a ``Draws`` on one stream, with equal results.
    """
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    core = list(_core(seq))
    if not core:
        raise ValueError("cannot perturb an empty sequence")
    move_tokens = vocab.tokens[1:]
    edits = max(1, int(ratio * len(core)))
    for _ in range(edits):
        kind = rng.integers(3) if core else 0
        if kind == 0:
            pos = int(rng.integers(len(core) + 1))
            core.insert(pos, move_tokens[rng.integers(len(move_tokens))])
        elif kind == 1:
            core.pop(int(rng.integers(len(core))))
        else:
            pos = int(rng.integers(len(core)))
            core[pos] = move_tokens[rng.integers(len(move_tokens))]
    return tuple(core) + (EOP,)


def perturb_corpus(
    corpus: Corpus, ratio: float, seed: int, require_illegal: bool = False
) -> Corpus:
    """Perturb every play in the corpus's arena, one substream per play index.

    With ``require_illegal`` each play is re-rolled until its pointer
    reconstruction finds it ``illegal`` in the corpus language; a search
    that gives up has not shown that, so it re-rolls too.  Errors name a
    play by its 1-based number, as ``check`` does.
    """
    arena = corpus.arena
    vocab = build_vocab(arena)
    out = []
    draws = Draws(seed)
    for i, seq in enumerate(corpus.plays):
        draws.rekey(seed, i)
        try:
            mutated = perturb(seq, vocab, ratio, draws)
        except ValueError as e:  # an empty play (or a bad ratio, raised at play 1)
            raise ValueError(f"play {i + 1}: {e}") from None
        if require_illegal:
            for _ in range(MAX_ATTEMPTS):
                verdict = reconstruction_verdict(arena, corpus.language, _core(mutated), limit=1)
                if verdict == ILLEGAL:
                    break
                mutated = perturb(seq, vocab, ratio, draws)
            else:
                raise ValueError(f"play {i + 1}: no illegal perturbation in {MAX_ATTEMPTS} tries")
        out.append(mutated)
    return Corpus(corpus.arena_spec, corpus.language, seed, out)
