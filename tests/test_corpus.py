from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import playlab.corpus
import playlab.play
from playlab.arena import make_arena, parse_type, uniform_tree
from playlab.corpus import (
    EOP,
    Corpus,
    CorpusFormatError,
    Vocab,
    build_vocab,
    corpus_text,
    elide,
    generate_corpus,
    generate_play,
    is_complete,
    levenshtein,
    perturb,
    perturb_corpus,
    read_corpus,
    write_corpus,
)
from playlab.play import (
    CONCURRENT,
    SEQUENTIAL,
    checker_for,
    justification_assignments,
)
from playlab.rng import substream

from conftest import PAR_COMPOSITION_PLAY, SEQ_COMPOSITION_PLAY
from oracles import lev_matrix, play_of

TOKENS = st.lists(st.sampled_from(["q@ε", "a@ε", "q@1", "a@1"]), max_size=12).map(tuple)


class TestGeneratePlay:
    def test_max_len_one_is_opening(self, two_arg_arena):
        play = generate_play(two_arg_arena, SEQUENTIAL, 1, substream(3, 0))
        assert [pm.move.token for pm in play] == ["q@ε"]

    def test_unit_arena_outcomes(self, unit_arena):
        seen = set()
        for i in range(50):
            play = generate_play(unit_arena, CONCURRENT, 10, substream(11, i))
            seen.add(tuple(pm.move.token for pm in play))
        assert seen <= {("q@ε",), ("q@ε", "a@ε")}
        assert ("q@ε", "a@ε") in seen

    def test_deterministic(self, order2_arena):
        a = generate_play(order2_arena, SEQUENTIAL, 50, substream(5, 1))
        b = generate_play(order2_arena, SEQUENTIAL, 50, substream(5, 1))
        assert a == b

    def test_rejects_zero_length(self, unit_arena):
        with pytest.raises(ValueError):
            generate_play(unit_arena, SEQUENTIAL, 0, substream(0, 0))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        lang=st.sampled_from([SEQUENTIAL, CONCURRENT]),
        spec=st.sampled_from(["unit -> unit", "(unit -> unit) -> unit -> unit"]),
    )
    def test_generated_plays_are_legal(self, seed, lang, spec):
        arena = make_arena(parse_type(spec))
        play = generate_play(arena, lang, 30, substream(seed, 0))
        assert len(play) <= 30
        assert checker_for(lang)(arena, play).legal


class TestElide:
    def test_seq_composition(self):
        assert elide(SEQ_COMPOSITION_PLAY) == (
            "q@ε", "q@1", "a@1", "q@2", "a@2", "a@ε", EOP,
        )

    def test_par_composition(self):
        assert elide(PAR_COMPOSITION_PLAY) == (
            "q@ε", "q@1", "q@2", "a@1", "a@2", "a@ε", EOP,
        )

    def test_empty_play(self):
        assert elide(()) == (EOP,)

    def test_preserves_order_and_multiplicity(self, order2_arena):
        play = generate_play(order2_arena, SEQUENTIAL, 40, substream(2, 9))
        tokens = elide(play)
        assert len(tokens) == len(play) + 1
        assert list(tokens[:-1]) == [pm.move.token for pm in play]


class TestGenerateCorpus:
    @pytest.mark.parametrize("lang", [SEQUENTIAL, CONCURRENT])
    @pytest.mark.parametrize("count", [1, 30])
    def test_single_play_equals_substream_zero(self, arrow_arena, lang, count):
        # play i is what a fresh substream (seed, i) draws: nothing buffered
        # in one play's draws leaks into the next
        corpus = generate_corpus(arrow_arena, lang, count, 20, seed=42)
        direct = [elide(generate_play(arrow_arena, lang, 20, substream(42, i)))
                  for i in range(count)]
        assert corpus.plays == direct

    def test_reproducible(self, order2_arena):
        a = generate_corpus(order2_arena, CONCURRENT, 30, 25, seed=8)
        b = generate_corpus(order2_arena, CONCURRENT, 30, 25, seed=8)
        assert corpus_text(a) == corpus_text(b)

    def test_different_seeds_differ(self, order2_arena):
        a = generate_corpus(order2_arena, SEQUENTIAL, 50, 50, seed=1)
        b = generate_corpus(order2_arena, SEQUENTIAL, 50, 50, seed=2)
        assert sorted(a.plays) != sorted(b.plays)

    def test_rejects_empty(self, unit_arena):
        with pytest.raises(ValueError):
            generate_corpus(unit_arena, SEQUENTIAL, 0, 10, seed=0)
        with pytest.raises(ValueError):
            generate_corpus(unit_arena, "parallel", 1, 10, seed=0)

    def test_unknown_language_is_the_play_states_error(self, unit_arena):
        with pytest.raises(ValueError) as raised:
            generate_corpus(unit_arena, "x", 3, 5, 0)
        assert str(raised.value) == "unknown language 'x'; expected one of ('seq', 'conc')"
        # raised by _PlayState, the one place that checks the language
        last = raised.traceback[-1]
        assert (last.name, Path(last.path).name) == ("__init__", "play.py")

    def test_complete_only_needs_two_moves(self, arrow_arena, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew a play")

        monkeypatch.setattr(playlab.corpus, "generate_play", refuse)
        with pytest.raises(ValueError, match="max_len >= 2, got 1"):
            generate_corpus(arrow_arena, SEQUENTIAL, 3, 1, seed=0, complete_only=True)

    def test_complete_only(self):
        arena = make_arena(uniform_tree(2, 2))
        corpus = generate_corpus(arena, CONCURRENT, 40, 21, seed=3, complete_only=True)
        for seq in corpus.plays:
            tokens = [t for t in seq if t != EOP]
            plays = justification_assignments(arena, CONCURRENT, tokens, limit=1)
            assert plays and is_complete(plays[0])

    def test_complete_only_seq(self):
        # most seq o2w5 plays reach max_len with questions still pending
        arena = make_arena(uniform_tree(2, 5))

        def complete(seq):
            plays = justification_assignments(arena, SEQUENTIAL, seq[:-1], limit=1)
            return is_complete(plays[0])

        plain = generate_corpus(arena, SEQUENTIAL, 20, 50, seed=3)
        assert not all(complete(seq) for seq in plain.plays)
        only = generate_corpus(arena, SEQUENTIAL, 20, 50, seed=3, complete_only=True)
        assert all(complete(seq) for seq in only.plays)

    def test_coverage_of_short_plays(self, arrow_arena):
        # every legal sequential play of length <= 3 shows up as a prefix
        from oracles import enumerate_ref_legal, ref_check_sequential

        want = {
            tuple(pm.move.token for pm in play)
            for play in enumerate_ref_legal(arrow_arena, ref_check_sequential, 3)
            if play
        }
        seen = set()
        for i in range(400):
            play = generate_play(arrow_arena, SEQUENTIAL, 50, substream(77, i))
            toks = tuple(pm.move.token for pm in play)
            seen.update(toks[:k] for k in range(1, len(toks) + 1))
        assert want <= seen


class TestVocab:
    def test_unit_vocab(self, unit_arena):
        vocab = build_vocab(unit_arena)
        assert vocab.tokens == (EOP, "a@ε", "q@ε")
        assert vocab.index == {EOP: 0, "a@ε": 1, "q@ε": 2}

    def test_arrow_vocab_size(self, arrow_arena):
        assert len(build_vocab(arrow_arena)) == 5

    def test_big_arena_vocab_size(self):
        assert len(build_vocab(make_arena(uniform_tree(3, 5)))) == 313

    def test_encode_decode_round_trip(self, two_arg_arena):
        vocab = build_vocab(two_arg_arena)
        seq = elide(SEQ_COMPOSITION_PLAY)
        assert tuple(vocab.tokens[i] for i in vocab.encode(seq)) == seq

    def test_encode_unknown_token(self, unit_arena):
        with pytest.raises(KeyError):
            build_vocab(unit_arena).encode(("q@9",))

    def test_built_from_the_arena(self, two_arg_arena):
        assert Vocab(two_arg_arena).tokens == (EOP,) + two_arg_arena.tokens


class TestCorpusFile:
    def test_round_trip(self, tmp_path, order2_arena):
        corpus = generate_corpus(order2_arena, SEQUENTIAL, 25, 30, seed=6)
        path = tmp_path / "out.plays"
        write_corpus(corpus, path)
        back = read_corpus(path)
        assert back == corpus

    def test_golden_header(self, tmp_path, unit_arena):
        corpus = Corpus("unit", SEQUENTIAL, 9, [("q@ε", "a@ε", EOP)])
        assert corpus_text(corpus) == (
            "#version 1\n#arena unit\n#language seq\n#seed 9\n#count 1\nq@ε a@ε $\n"
        )

    def _write(self, tmp_path, text):
        path = tmp_path / "c.plays"
        path.write_text(text, encoding="utf-8")
        return path

    def test_unknown_token_names_token_and_line(self, tmp_path):
        path = self._write(
            tmp_path,
            "#version 1\n#arena unit\n#language seq\n#seed 0\n#count 1\nq@ε zap $\n",
        )
        with pytest.raises(CorpusFormatError, match=r"line 6.*'zap'"):
            read_corpus(path)

    def test_first_unknown_token_is_named(self, tmp_path):
        path = self._write(
            tmp_path,
            "#version 1\n#arena unit\n#language seq\n#seed 0\n#count 2\n"
            "q@ε a@ε $\nq@ε q@1 zap a@ε $\n",
        )
        with pytest.raises(CorpusFormatError) as err:
            read_corpus(path)
        assert str(err.value) == "line 7: token 'q@1' outside arena vocabulary"

    def test_version_mismatch(self, tmp_path):
        path = self._write(tmp_path, "#version 2\n#arena unit\n")
        with pytest.raises(CorpusFormatError, match="version"):
            read_corpus(path)

    def test_count_mismatch(self, tmp_path):
        path = self._write(
            tmp_path,
            "#version 1\n#arena unit\n#language seq\n#seed 0\n#count 2\nq@ε $\n",
        )
        with pytest.raises(CorpusFormatError, match="count"):
            read_corpus(path)

    def test_missing_eop(self, tmp_path):
        path = self._write(
            tmp_path,
            "#version 1\n#arena unit\n#language seq\n#seed 0\n#count 1\nq@ε a@ε\n",
        )
        with pytest.raises(CorpusFormatError, match=r"\$"):
            read_corpus(path)

    def test_bad_language(self, tmp_path):
        path = self._write(
            tmp_path,
            "#version 1\n#arena unit\n#language turbo\n#seed 0\n#count 0\n",
        )
        with pytest.raises(CorpusFormatError, match="language"):
            read_corpus(path)

    @pytest.mark.parametrize("header, message", [
        ("#seed x\n#count 0\n", "line 4: #seed must be an integer, got 'x'"),
        ("#seed 0\n#count 1.5\n", "line 5: #count must be an integer, got '1.5'"),
        ("#seed\n#count 0\n", "line 4: expected '#seed <value>', got '#seed'"),
        ("#seed 0\n", "truncated header: expected 5 header lines, the file has 4"),
        ("#seed +00\n#count 0\n", "line 4: #seed must be an integer, got '+00'"),
        ("#seed 0\n#count 0_2\n", "line 5: #count must be an integer, got '0_2'"),
        ("#seed 01\n#count 0\n", "line 4: #seed must be an integer, got '01'"),
        ("#seed -0\n#count 0\n", "line 4: #seed must be an integer, got '-0'"),
        ("#seed 0\n#count \uff11\n", "line 5: #count must be an integer, got '\uff11'"),
    ], ids=["seed", "count", "no-value", "short", "signed", "underscore", "leading-zero",
            "negative-zero", "non-ascii-digit"])
    def test_bad_seed_or_count_names_its_line(self, tmp_path, header, message):
        path = self._write(tmp_path, "#version 1\n#arena unit\n#language seq\n" + header)
        with pytest.raises(CorpusFormatError) as err:
            read_corpus(path)
        assert str(err.value) == message

    def test_arena_is_built_once_and_kept(self, tmp_path, order2_arena):
        corpus = generate_corpus(order2_arena, SEQUENTIAL, 5, 20, seed=6)
        path = tmp_path / "c.plays"
        write_corpus(corpus, path)
        back = read_corpus(path)
        assert back.arena is back.arena
        assert back.arena.tokens == order2_arena.tokens
        # the kept arena is not a field: equality and the file's bytes are the same
        assert back == corpus
        assert corpus_text(back) == corpus_text(corpus)

    def test_bad_arena_names_line_2(self, tmp_path):
        path = self._write(
            tmp_path,
            "#version 1\n#arena unit -> bogus\n#language seq\n#seed 0\n#count 0\n",
        )
        with pytest.raises(CorpusFormatError) as err:
            read_corpus(path)
        assert str(err.value) == (
            "line 2: arena 'unit -> bogus': unexpected character 'b' (at position 8)"
        )


class TestLevenshtein:
    def test_identity(self):
        seq = elide(SEQ_COMPOSITION_PLAY)
        assert levenshtein(seq, seq) == 0

    def test_single_deletion(self):
        seq = elide(SEQ_COMPOSITION_PLAY)
        assert levenshtein(seq, seq[:2] + seq[3:]) == 1

    def test_eop_excluded(self):
        assert levenshtein(("q@ε", EOP), ("q@ε",)) == 0

    @given(TOKENS, TOKENS)
    def test_matches_full_matrix_reference(self, a, b):
        assert levenshtein(a, b) == lev_matrix(a, b)

    @given(TOKENS, TOKENS)
    def test_symmetric(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)


class TestPerturb:
    def test_length_50_ratio_01_bound(self, order2_arena):
        vocab = build_vocab(order2_arena)
        corpus = generate_corpus(order2_arena, SEQUENTIAL, 200, 50, seed=13)
        long_plays = [s for s in corpus.plays if len(s) == 51]
        assert long_plays, "expected some max-length plays"
        for i, seq in enumerate(long_plays):
            out = perturb(seq, vocab, 0.1, substream(99, i))
            assert lev_matrix(seq[:-1], out[:-1]) <= 5
            assert out[-1] == EOP and EOP not in out[:-1]

    def test_short_play_gets_one_edit(self, unit_arena):
        vocab = build_vocab(unit_arena)
        seq = ("q@ε", "a@ε", EOP)
        for i in range(20):
            out = perturb(seq, vocab, 0.1, substream(4, i))
            assert lev_matrix(seq[:-1], out[:-1]) <= 1

    def test_ratio_validation(self, unit_arena):
        vocab = build_vocab(unit_arena)
        with pytest.raises(ValueError):
            perturb(("q@ε", EOP), vocab, 0.0, substream(0, 0))
        with pytest.raises(ValueError):
            perturb(("q@ε", EOP), vocab, 1.5, substream(0, 0))

    def test_empty_sequence(self, unit_arena):
        with pytest.raises(ValueError):
            perturb((EOP,), build_vocab(unit_arena), 0.1, substream(0, 0))

    def test_full_ratio_edits_everything(self, arrow_arena):
        vocab = build_vocab(arrow_arena)
        seq = elide(SEQ_COMPOSITION_PLAY)
        out = perturb(seq, vocab, 1.0, substream(21, 0))
        assert lev_matrix(seq[:-1], out[:-1]) <= len(seq) - 1


class TestPerturbCorpus:
    def test_deterministic(self, order2_arena):
        corpus = generate_corpus(order2_arena, SEQUENTIAL, 20, 30, seed=5)
        a = perturb_corpus(corpus, 0.1, seed=17)
        b = perturb_corpus(corpus, 0.1, seed=17)
        assert a.plays == b.plays

    def test_play_i_equals_substream_i(self, order2_arena):
        corpus = generate_corpus(order2_arena, SEQUENTIAL, 30, 30, seed=5)
        vocab = build_vocab(order2_arena)
        out = perturb_corpus(corpus, 0.1, seed=17)
        assert out.plays == [perturb(seq, vocab, 0.1, substream(17, i))
                             for i, seq in enumerate(corpus.plays)]

    def test_reads_the_arena_read_corpus_built(self, tmp_path, order2_arena, monkeypatch):
        path = tmp_path / "c.plays"
        write_corpus(generate_corpus(order2_arena, SEQUENTIAL, 5, 20, seed=6), path)
        built = []
        make_arena = playlab.corpus.make_arena

        def counted(tree):
            built.append(tree)
            return make_arena(tree)

        monkeypatch.setattr(playlab.corpus, "make_arena", counted)
        perturb_corpus(read_corpus(path), 0.1, seed=17)
        assert len(built) == 1

    def test_require_illegal(self, order2_arena):
        corpus = generate_corpus(order2_arena, SEQUENTIAL, 15, 30, seed=5)
        out = perturb_corpus(corpus, 0.1, seed=23, require_illegal=True)
        for seq in out.plays:
            tokens = [t for t in seq if t != EOP]
            assert justification_assignments(order2_arena, SEQUENTIAL, tokens, limit=1) == []

    def test_require_illegal_rerolls_budget_exceeded(self, order2_arena, monkeypatch):
        # at budget 1 each of the three attempts on this play stops before a
        # verdict: undecided, so it is re-rolled, and the play ends in the
        # usual error rather than SearchBudgetExceeded
        monkeypatch.setattr(playlab.play, "SEARCH_BUDGET", 1)
        monkeypatch.setattr(playlab.corpus, "MAX_ATTEMPTS", 3)
        corpus = generate_corpus(order2_arena, SEQUENTIAL, 1, 50, seed=0)
        with pytest.raises(ValueError, match="play 1: no illegal perturbation in 3 tries"):
            perturb_corpus(corpus, 0.1, seed=9, require_illegal=True)
