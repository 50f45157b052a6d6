import itertools
import re
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

import playlab.play
from playlab.arena import (
    OPPONENT,
    PROPONENT,
    UnknownMoveError,
    make_arena,
    move_player,
    parse_token,
    parse_type,
    uniform_tree,
)
from playlab.corpus import generate_corpus, is_complete, perturb_corpus
from playlab.play import (
    ALTERNATION,
    BRACKETING,
    CONCURRENT,
    FORK,
    JOIN,
    JUSTIFICATION,
    LANGUAGES,
    SEQUENTIAL,
    VISIBILITY,
    PointedMove,
    SearchBudgetExceeded,
    Verdict,
    _PlayState,
    check_concurrent,
    check_sequential,
    checker_for,
    format_pointed,
    justification_assignments,
    parse_pointed_file,
    reconstruction_verdict,
)

from conftest import PAR_COMPOSITION_PLAY, SEQ_COMPOSITION_PLAY
from oracles import (
    brute_force_extensions,
    enumerate_justified,
    enumerate_ref_legal,
    play_of,
    ref_check_concurrent,
    ref_check_sequential,
    ref_oview,
    ref_pending,
    ref_pview,
)

SMALL_ARENAS = ["unit", "unit -> unit", "unit -> unit -> unit", "(unit -> unit) -> unit"]


def replayed_state(arena, lang, play):
    """A state holding ``play``, whose names are its positions."""
    state = _PlayState(arena, lang)
    for pm in play:
        state.push(arena.index(pm.move), -1 if pm.justifier is None else pm.justifier)
    return state


def grow_random_play(arena, lang, draw, max_len):
    """A state grown by random legal moves, driven by a hypothesis data object."""
    state = _PlayState(arena, lang)
    for _ in range(max_len):
        exts = state.extensions()
        if not exts:
            break
        state.push(*draw(st.sampled_from(exts)))
    return state


def names(view):
    return tuple(pm.name for pm in view)


def next_movers_view(play):
    """The reference view of the player to move next, oldest first."""
    last = play[-1].move if play else None
    mover = PROPONENT if last and move_player(last) == OPPONENT else OPPONENT
    return ref_pview(play) if mover == PROPONENT else ref_oview(play)


def last_movers_entries(view, play):
    """Positions of ``view``'s entries by the player who moved last in
    ``play``, oldest first."""
    last = move_player(play[-1].move) if play else None
    return tuple(pm.name for pm in view if move_player(pm.move) == last)


def stored_half_view(play):
    """What a seq state holding ``play`` stores last in ``views``: the last
    mover's entries in the next mover's reference view."""
    return last_movers_entries(next_movers_view(play), play)


CHECKERS = (check_sequential, check_concurrent)


class TestCheckJustified:
    """Each checker reports justification first, so both see these faults."""

    def test_question_then_answer(self, unit_arena):
        play = play_of(("q@ε", None), ("a@ε", 0))
        for check in CHECKERS:
            assert check(unit_arena, play) == Verdict.ok()

    def test_self_pointer(self, unit_arena):
        play = (PointedMove(parse_token("q@ε"), 0, None), PointedMove(parse_token("a@ε"), 1, 1))
        for check in CHECKERS:
            assert check(unit_arena, play) == Verdict.fail(JUSTIFICATION, 1)

    def test_non_initial_opening(self, unit_arena):
        play = play_of(("a@ε", None))
        for check in CHECKERS:
            assert check(unit_arena, play) == Verdict.fail(JUSTIFICATION, 0)

    def test_duplicate_name(self, unit_arena):
        play = (PointedMove(parse_token("q@ε"), 0, None), PointedMove(parse_token("a@ε"), 0, 0))
        for check in CHECKERS:
            assert check(unit_arena, play) == Verdict.fail(JUSTIFICATION, 1)

    def test_second_initial(self, two_arg_arena):
        play = play_of(("q@ε", None), ("q@ε", None))
        for check in CHECKERS:
            assert check(two_arg_arena, play) == Verdict.fail(JUSTIFICATION, 1)

    def test_wrong_enabler(self, two_arg_arena):
        play = play_of(("q@ε", None), ("q@1", 0), ("a@2", 1))
        for check in CHECKERS:
            assert check(two_arg_arena, play) == Verdict.fail(JUSTIFICATION, 2)


class TestViews:
    """The reference views, and the part of the next mover's that a seq
    state stores in ``views``."""

    def test_pview_empty(self, unit_arena):
        assert ref_pview(()) == ()
        stored = _PlayState(unit_arena, SEQUENTIAL).views[-1]
        assert stored == last_movers_entries(ref_pview(()), ()) == ()

    def test_oview_empty(self, unit_arena):
        assert ref_oview(()) == ()
        stored = _PlayState(unit_arena, SEQUENTIAL).views[-1]
        assert stored == last_movers_entries(ref_oview(()), ()) == ()

    def test_pview_single_opening(self, unit_arena):
        play = play_of(("q@ε", None))
        assert names(ref_pview(play)) == (0,)
        assert names(ref_oview(play)) == (0,)
        # the proponent moves next
        state = replayed_state(unit_arena, SEQUENTIAL, play)
        assert state.views[-1] == last_movers_entries(ref_pview(play), play) == (0,)

    def test_pview_of_seq_composition_is_whole_play(self, two_arg_arena):
        play = SEQ_COMPOSITION_PLAY
        assert names(ref_pview(play)) == (0, 1, 2, 3, 4, 5)
        # the proponent moved last; the opponent's view is the opener and a@ε
        state = replayed_state(two_arg_arena, SEQUENTIAL, play)
        assert state.views[-1] == stored_half_view(play) == (5,)

    def test_pview_restarts_at_opening(self, two_arg_arena):
        # after the first argument completes, the opponent's view still
        # reaches back through the opening move
        play = SEQ_COMPOSITION_PLAY[:3]
        assert names(ref_oview(play)) == (0, 1, 2)
        # the opponent moved last; the proponent's view is the same three moves
        state = replayed_state(two_arg_arena, SEQUENTIAL, play)
        assert state.views[-1] == stored_half_view(play) == (0, 2)

    def test_oview_ends_with_justifier_then_move(self, two_arg_arena):
        # any play ending in a proponent move justified by n: the oview
        # ends [justifier move, the move itself]
        for play in enumerate_ref_legal(two_arg_arena, ref_check_sequential, 5):
            if not play or move_player(play[-1].move) != PROPONENT:
                continue
            oview = ref_oview(play)
            assert names(oview)[-2:] == (play[-1].justifier, len(play) - 1)
            state = replayed_state(two_arg_arena, SEQUENTIAL, play)
            assert state.views[-1] == last_movers_entries(oview, play)

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    def test_views_match_recursive_clauses(self, spec):
        arena = make_arena(parse_type(spec))
        for play in enumerate_ref_legal(arena, ref_check_sequential, 5):
            state = replayed_state(arena, SEQUENTIAL, play)
            assert state.views == [stored_half_view(play[:n]) for n in range(len(play) + 1)]

    @pytest.mark.parametrize("spec", SMALL_ARENAS[1:])
    def test_views_are_subsequences_ending_at_last_move(self, spec):
        arena = make_arena(parse_type(spec))
        for play in enumerate_ref_legal(arena, ref_check_sequential, 6):
            if not play:
                continue
            stored = replayed_state(arena, SEQUENTIAL, play).views[-1]
            for view in (names(ref_pview(play)), names(ref_oview(play)), stored):
                assert list(view) == sorted(set(view))  # subsequence
                assert view[-1] == len(play) - 1


class TestPendingQuestions:
    """Whether questions are pending, as ``is_complete`` reads it off a legal
    play, against the reference list of pending questions."""

    def test_single_question(self):
        assert not is_complete(play_of(("q@ε", None)))

    def test_seq_composition_prefix(self):
        assert not is_complete(SEQ_COMPOSITION_PLAY[:3])
        assert is_complete(SEQ_COMPOSITION_PLAY)

    def test_par_composition_prefix(self):
        assert not is_complete(PAR_COMPOSITION_PLAY[:3])
        assert is_complete(PAR_COMPOSITION_PLAY)

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    def test_matches_reference(self, spec):
        arena = make_arena(parse_type(spec))
        for ref in (ref_check_sequential, ref_check_concurrent):
            for play in enumerate_ref_legal(arena, ref, 5):
                assert is_complete(play) == (ref_pending(play) == [])


class TestCheckSequential:
    def test_seq_composition_play_legal(self, two_arg_arena):
        assert check_sequential(two_arg_arena, SEQ_COMPOSITION_PLAY) == Verdict.ok()

    def test_par_composition_play_illegal(self, two_arg_arena):
        verdict = check_sequential(two_arg_arena, PAR_COMPOSITION_PLAY)
        assert verdict == Verdict.fail(ALTERNATION, 2)

    def test_answer_out_of_bracket_order_and_player(self, two_arg_arena):
        # q@1 and a@ε are both proponent moves, so alternation trips at
        # index 2 before the (also violated) bracketing rule is consulted.
        play = play_of(("q@ε", None), ("q@1", 0), ("a@ε", 0))
        assert check_sequential(two_arg_arena, play) == Verdict.fail(ALTERNATION, 2)

    def test_pure_bracketing_violation(self, order2_arena):
        play = play_of(("q@ε", None), ("q@1", 0), ("q@1.1", 1), ("a@ε", 0))
        assert check_sequential(order2_arena, play) == Verdict.fail(BRACKETING, 3)

    def test_visibility_violation(self, order2_arena):
        # after a@1 closes the first call, the second q@1 starts a fresh
        # branch; its q@1.1 cannot reach back to the first q@1
        play = play_of(
            ("q@ε", None),
            ("q@1", 0),
            ("a@1", 1),
            ("q@1", 0),
            ("q@1.1", 1),
        )
        assert check_sequential(order2_arena, play) == Verdict.fail(VISIBILITY, 4)
        assert check_concurrent(order2_arena, play).rule == FORK

    def test_empty_play_legal(self, unit_arena):
        assert check_sequential(unit_arena, ()).legal


class TestCheckConcurrent:
    def test_par_composition_play_legal(self, two_arg_arena):
        assert check_concurrent(two_arg_arena, PAR_COMPOSITION_PLAY) == Verdict.ok()

    def test_seq_composition_play_legal(self, two_arg_arena):
        assert check_concurrent(two_arg_arena, SEQ_COMPOSITION_PLAY) == Verdict.ok()

    def test_fork_needs_pending_justifier(self, arrow_arena):
        play = play_of(("q@ε", None), ("a@ε", 0), ("q@1", 0))
        assert check_concurrent(arrow_arena, play) == Verdict.fail(FORK, 2)

    def test_join_needs_children_answered(self, arrow_arena):
        play = play_of(("q@ε", None), ("q@1", 0), ("a@ε", 0))
        assert check_concurrent(arrow_arena, play) == Verdict.fail(JOIN, 2)

    def test_empty_play_legal(self, unit_arena):
        assert check_concurrent(unit_arena, ()).legal


class TestOracleEquivalence:
    @pytest.mark.parametrize("spec", ["unit", "unit -> unit"])
    def test_checkers_agree_with_references(self, spec):
        arena = make_arena(parse_type(spec))
        for play in enumerate_justified(arena, 5):
            assert check_sequential(arena, play) == ref_check_sequential(arena, play)
            assert check_concurrent(arena, play) == ref_check_concurrent(arena, play)

    @pytest.mark.parametrize("spec", SMALL_ARENAS[1:])
    def test_prefix_closure(self, spec):
        arena = make_arena(parse_type(spec))
        for lang, ref in ((SEQUENTIAL, ref_check_sequential), (CONCURRENT, ref_check_concurrent)):
            checker = checker_for(lang)
            for play in enumerate_ref_legal(arena, ref, 8 if spec != SMALL_ARENAS[3] else 6):
                for cut in range(len(play) + 1):
                    assert checker(arena, play[:cut]).legal

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    def test_sequential_contained_in_concurrent(self, spec):
        arena = make_arena(parse_type(spec))
        for play in enumerate_justified(arena, 5):
            if check_sequential(arena, play).legal:
                assert check_concurrent(arena, play).legal


class TestLegalExtensions:
    """``_PlayState.extensions``, the generator's list of legal moves."""

    def test_empty_play_offers_opening(self, unit_arena):
        state = _PlayState(unit_arena, SEQUENTIAL)
        assert state.extensions() == [(unit_arena.index("q@ε"), -1)]

    def test_unit_arena_single_answer(self, unit_arena):
        state = replayed_state(unit_arena, SEQUENTIAL, play_of(("q@ε", None)))
        assert state.extensions() == [(unit_arena.index("a@ε"), 0)]

    def test_par_prefix_concurrent(self, two_arg_arena):
        # both pending argument calls may answer, the root answer is held
        # back by join, and each argument may be forked again
        state = replayed_state(two_arg_arena, CONCURRENT, PAR_COMPOSITION_PLAY[:3])
        assert {(two_arg_arena.tokens[mi], j) for mi, j in state.extensions()} == {
            ("a@1", 1),
            ("a@2", 2),
            ("q@1", 0),
            ("q@2", 0),
        }

    def test_output_is_in_canonical_order(self, two_arg_arena):
        exts = replayed_state(two_arg_arena, CONCURRENT, PAR_COMPOSITION_PLAY[:3]).extensions()
        assert len(exts) == 4
        assert exts == sorted(set(exts))

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    @pytest.mark.parametrize("lang", [SEQUENTIAL, CONCURRENT])
    def test_matches_brute_force(self, spec, lang):
        arena = make_arena(parse_type(spec))
        ref = ref_check_sequential if lang == SEQUENTIAL else ref_check_concurrent
        for play in enumerate_ref_legal(arena, ref, 5):
            exts = replayed_state(arena, lang, play).extensions()
            got = {(arena.moves[mi], None if j < 0 else j) for mi, j in exts}
            assert got == brute_force_extensions(arena, lang, play)

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    @pytest.mark.parametrize("lang", [SEQUENTIAL, CONCURRENT])
    def test_complete_play_has_no_extension(self, spec, lang):
        # so a generated play ends exactly when it is complete, at a dead end
        # or at the length cap, with no rule of its own for stopping
        arena = make_arena(parse_type(spec))
        ref = ref_check_sequential if lang == SEQUENTIAL else ref_check_concurrent
        complete = [p for p in enumerate_ref_legal(arena, ref, 8) if p and not ref_pending(p)]
        assert complete
        for play in complete:
            assert replayed_state(arena, lang, play).extensions() == []


class TestPlayState:
    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    @pytest.mark.parametrize("lang", [SEQUENTIAL, CONCURRENT])
    def test_extensions_are_the_enabled_moves_without_violation(self, spec, lang):
        arena = make_arena(parse_type(spec))
        ref = ref_check_sequential if lang == SEQUENTIAL else ref_check_concurrent
        for play in enumerate_ref_legal(arena, ref, 5):
            state = replayed_state(arena, lang, play)
            if not play:
                enabled = [(arena.initial_idx, -1)]
            else:
                enabled = [
                    (mi, occ)
                    for occ, occ_mi in enumerate(state.occ_move)
                    for mi in range(len(arena))
                    if arena.enabler_idx[mi] == occ_mi
                ]
            allowed = sorted(c for c in enabled if state.violation(*c) is None)
            assert state.extensions() == allowed

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    @pytest.mark.parametrize("lang", [SEQUENTIAL, CONCURRENT])
    def test_pop_undoes_push(self, spec, lang):
        arena = make_arena(parse_type(spec))
        ref = ref_check_sequential if lang == SEQUENTIAL else ref_check_concurrent

        def fields(state):
            values = {name: getattr(state, name) for name in _PlayState.__slots__}
            return {k: v[:] if isinstance(v, list) else v for k, v in values.items()}

        for play in enumerate_ref_legal(arena, ref, 5):
            state = replayed_state(arena, lang, play)
            before = fields(state)
            for mi, j in state.extensions():
                state.push(mi, j)
                state.pop()
                assert fields(state) == before

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    @pytest.mark.parametrize("lang", [SEQUENTIAL, CONCURRENT])
    def test_justifiers_are_the_extensions_of_one_move(self, spec, lang):
        arena = make_arena(parse_type(spec))
        ref = ref_check_sequential if lang == SEQUENTIAL else ref_check_concurrent
        for play in enumerate_ref_legal(arena, ref, 6):
            state = replayed_state(arena, lang, play)
            exts = state.extensions()
            for mi in range(len(arena)):
                assert state.justifiers(mi) == [e for e in exts if e[0] == mi]

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    def test_stored_view_is_the_next_movers_view(self, spec):
        arena = make_arena(parse_type(spec))
        for play in enumerate_ref_legal(arena, ref_check_sequential, 6):
            state = replayed_state(arena, SEQUENTIAL, play)
            assert state.views == [stored_half_view(play[:n]) for n in range(len(play) + 1)]

    def test_pending_forest_is_canonical(self, two_arg_arena):
        # q@1 forked twice and q@2 once under the opener, in either order
        one = replayed_state(two_arg_arena, CONCURRENT,
                             play_of(("q@ε", None), ("q@1", 0), ("q@2", 0), ("q@1", 0)))
        other = replayed_state(two_arg_arena, CONCURRENT,
                               play_of(("q@ε", None), ("q@2", 0), ("q@1", 0), ("q@1", 0)))
        assert one.pending_forest() == other.pending_forest()
        one.push(two_arg_arena.index("a@1"), 1)
        assert one.pending_forest() != other.pending_forest()
        other.push(two_arg_arena.index("a@1"), 3)
        assert one.pending_forest() == other.pending_forest()
        # the same shape with other moves is another forest
        asked = [replayed_state(two_arg_arena, CONCURRENT, play_of(("q@ε", None), (q, 0)))
                 for q in ("q@1", "q@2")]
        assert asked[0].pending_forest() != asked[1].pending_forest()


class TestRandomPlays:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_growth_stays_legal(self, data):
        spec = data.draw(st.sampled_from(SMALL_ARENAS[1:]))
        lang = data.draw(st.sampled_from([SEQUENTIAL, CONCURRENT]))
        arena = make_arena(parse_type(spec))
        state = grow_random_play(arena, lang, data.draw, max_len=10)
        play = state.to_play()
        assert checker_for(lang)(arena, play).legal
        ref = ref_check_sequential if lang == SEQUENTIAL else ref_check_concurrent
        assert ref(arena, play).legal
        if lang == SEQUENTIAL:
            assert state.views == [stored_half_view(play[:n]) for n in range(len(play) + 1)]


class TestPointedText:
    def test_format_golden(self):
        text = format_pointed(SEQ_COMPOSITION_PLAY)
        assert text.splitlines()[0] == "q@ε 0 *"
        assert text.splitlines()[2] == "a@1 2 1"

    def test_round_trip(self, two_arg_arena):
        for play in enumerate_ref_legal(two_arg_arena, ref_check_sequential, 4):
            assert parse_pointed_file(format_pointed(play)) == ([play] if play else [])

    def test_parse_file_blocks(self):
        text = format_pointed(SEQ_COMPOSITION_PLAY) + "\n" + format_pointed(
            PAR_COMPOSITION_PLAY
        )
        plays = parse_pointed_file(text)
        assert plays == [SEQ_COMPOSITION_PLAY, PAR_COMPOSITION_PLAY]

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_pointed_file("q@ε 0")
        with pytest.raises(ValueError):
            parse_pointed_file("q@ε zero *")

    def test_whitespace_line_separates_plays(self, unit_arena):
        play = "q@ε 0 *\na@ε 1 0\n"
        plays = parse_pointed_file(play + " \n" + play)
        assert plays == [play_of(("q@ε", None), ("a@ε", 0))] * 2
        assert [check_sequential(unit_arena, p).legal for p in plays] == [True, True]

    @pytest.mark.parametrize("line, number", [
        ("q@1 +1 0_0", "+1"), ("q@1 01 0", "01"), ("q@1 1 0_0", "0_0"), ("q@1 1 -0", "-0"),
        ("q@1 \u0661 0", "\u0661"), ("q@1 1 \uff10", "\uff10"),
    ])
    def test_numbers_only_in_canonical_spelling(self, line, number):
        with pytest.raises(ValueError, match="^line 2: malformed number " + re.escape(repr(number))):
            parse_pointed_file(f"q@ε 0 *\n{line}\n")

    def test_errors_name_the_file_line(self):
        play = "q@ε 0 *\na@ε 1 0\n"
        text = play + "\n" + play + "\n" + "q@ε 0 *\nq@ε 1\n"
        with pytest.raises(ValueError, match=r"^line 8: expected 'token name justifier'"):
            parse_pointed_file(text)
        with pytest.raises(ValueError, match=r"^line 4: malformed move token 'x@1' in 'x@1 0 \*'$"):
            parse_pointed_file(play + "\nx@1 0 *\n")


class TestJustificationAssignments:
    def test_unique_reconstruction(self, two_arg_arena):
        tokens = [pm.move.token for pm in SEQ_COMPOSITION_PLAY]
        found = justification_assignments(two_arg_arena, SEQUENTIAL, tokens)
        assert found == [SEQ_COMPOSITION_PLAY]

    def test_par_tokens_unique_in_concurrent(self, two_arg_arena):
        tokens = [pm.move.token for pm in PAR_COMPOSITION_PLAY]
        found = justification_assignments(two_arg_arena, CONCURRENT, tokens)
        assert found == [PAR_COMPOSITION_PLAY]

    def test_par_tokens_impossible_sequentially(self, two_arg_arena):
        tokens = [pm.move.token for pm in PAR_COMPOSITION_PLAY]
        assert justification_assignments(two_arg_arena, SEQUENTIAL, tokens) == []

    def test_ambiguous_duplicate_questions(self, arrow_arena):
        tokens = ["q@ε", "q@1", "q@1", "a@1", "a@1", "a@ε"]
        found = justification_assignments(arrow_arena, CONCURRENT, tokens, limit=5)
        assert len(found) == 2

    def test_long_play_needs_no_recursion(self, arrow_arena):
        # one stack frame per token would pass Python's recursion limit
        pairs = [("q@ε", None)]
        for k in range(600):
            pairs += [("q@1", 0), ("a@1", 2 * k + 1)]
        play = play_of(*pairs, ("a@ε", 0))
        tokens = [pm.move.token for pm in play]
        assert justification_assignments(arrow_arena, SEQUENTIAL, tokens) == [play]

    def test_a_play_without_choice_points_is_not_unwound(self, arrow_arena, monkeypatch):
        # every token of this seq play has exactly one justifier, so the search
        # ends at its last token and never pops back through the forced ones
        pairs = [("q@ε", None)]
        for k in range(20):
            pairs += [("q@1", 0), ("a@1", 2 * k + 1)]
        play = play_of(*pairs, ("a@ε", 0))
        state = _PlayState(arrow_arena, SEQUENTIAL)
        for pm in play:
            choices = state.justifiers(arrow_arena.index(pm.move))
            assert len(choices) == 1
            state.push(*choices[0])
        pops = []
        pop = _PlayState.pop

        def counted(self):
            pops.append(len(self))
            pop(self)

        monkeypatch.setattr(_PlayState, "pop", counted)
        tokens = [pm.move.token for pm in play]
        assert justification_assignments(arrow_arena, SEQUENTIAL, tokens) == [play]
        assert pops == []
        # a play with one choice point pops back to it once per choice after the first
        tokens = ["q@ε", "q@1", "q@1", "a@1", "a@1", "a@ε"]
        assert len(justification_assignments(arrow_arena, CONCURRENT, tokens, limit=5)) == 2
        assert pops == [6, 5, 4]

    def test_limit_below_one_rejected(self, arrow_arena):
        tokens = ["q@ε", "q@1", "q@1", "a@1"]
        for limit in (0, -1):
            with pytest.raises(ValueError, match="limit must be at least 1"):
                justification_assignments(arrow_arena, CONCURRENT, tokens, limit=limit)

    def test_empty_tokens(self, unit_arena):
        assert justification_assignments(unit_arena, SEQUENTIAL, []) == [()]

    @pytest.mark.parametrize("bad", ["q@9", "x"])
    def test_unknown_token(self, arrow_arena, bad):
        with pytest.raises(UnknownMoveError):
            justification_assignments(arrow_arena, SEQUENTIAL, ["q@ε", bad])

    def test_tokens_are_looked_up_not_parsed(self, two_arg_arena, monkeypatch):
        corpora = [generate_corpus(two_arg_arena, lang, 12, 10, seed=4) for lang in LANGUAGES]

        def reconstruct():
            return [justification_assignments(two_arg_arena, c.language, seq[:-1])
                    for c in corpora for seq in c.plays]

        before = reconstruct()

        def refuse(token):
            raise AssertionError(f"parsed {token!r}")

        monkeypatch.setattr(playlab.play, "parse_token", refuse)
        assert reconstruct() == before

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    @pytest.mark.parametrize("lang", [SEQUENTIAL, CONCURRENT])
    def test_matches_oracle_exhaustively(self, spec, lang):
        # every elision of a justified sequence to length 8: the search finds
        # exactly the reference-legal plays with that elision, each once, in
        # the order of their justifier sequences
        arena = make_arena(parse_type(spec))
        ref = ref_check_sequential if lang == SEQUENTIAL else ref_check_concurrent
        legal = defaultdict(list)
        for play in enumerate_ref_legal(arena, ref, 8):
            legal[tuple(pm.move.token for pm in play)].append(play)
        elisions = {tuple(pm.move.token for pm in play) for play in enumerate_justified(arena, 8)}
        for tokens in elisions:
            expect = sorted(legal.get(tokens, []),
                            key=lambda p: [-1 if pm.justifier is None else pm.justifier for pm in p])
            found = justification_assignments(arena, lang, tokens, limit=10**6)
            assert len(found) == len(set(found))
            assert set(found) == set(expect)
            assert justification_assignments(arena, lang, tokens, limit=2) == expect[:2]

    def test_search_budget_exceeded(self, two_arg_arena, monkeypatch):
        tokens = [pm.move.token for pm in SEQ_COMPOSITION_PLAY]
        monkeypatch.setattr(playlab.play, "SEARCH_BUDGET", len(tokens) - 1)
        with pytest.raises(SearchBudgetExceeded, match=f"more than {len(tokens) - 1} "):
            justification_assignments(two_arg_arena, SEQUENTIAL, tokens)
        monkeypatch.setattr(playlab.play, "SEARCH_BUDGET", len(tokens))
        assert justification_assignments(two_arg_arena, SEQUENTIAL, tokens) == [
            SEQ_COMPOSITION_PLAY
        ]


class TestReconstructionVerdict:
    DUPLICATE_QUESTIONS = ["q@ε", "q@1", "q@1", "a@1", "a@1", "a@ε"]

    def test_verdicts(self, arrow_arena, two_arg_arena):
        seq_tokens = [pm.move.token for pm in SEQ_COMPOSITION_PLAY]
        par_tokens = [pm.move.token for pm in PAR_COMPOSITION_PLAY]
        assert reconstruction_verdict(two_arg_arena, SEQUENTIAL, seq_tokens) == "legal"
        assert reconstruction_verdict(two_arg_arena, SEQUENTIAL, par_tokens) == "illegal"
        assert reconstruction_verdict(
            arrow_arena, CONCURRENT, self.DUPLICATE_QUESTIONS
        ) == "ambiguous"

    def test_search_budget_exceeded(self, two_arg_arena, monkeypatch):
        tokens = [pm.move.token for pm in SEQ_COMPOSITION_PLAY]
        monkeypatch.setattr(playlab.play, "SEARCH_BUDGET", 1)
        assert reconstruction_verdict(two_arg_arena, SEQUENTIAL, tokens) == (
            "ambiguous (search budget exceeded)"
        )

    def test_limit_one_is_never_ambiguous(self, arrow_arena, two_arg_arena):
        assert reconstruction_verdict(
            arrow_arena, CONCURRENT, self.DUPLICATE_QUESTIONS, limit=1
        ) == "legal"
        plays = generate_corpus(two_arg_arena, CONCURRENT, 40, 12, seed=6).plays
        at_two = [reconstruction_verdict(two_arg_arena, CONCURRENT, seq[:-1]) for seq in plays]
        at_one = [reconstruction_verdict(two_arg_arena, CONCURRENT, seq[:-1], limit=1)
                  for seq in plays]
        assert "ambiguous" in at_two
        assert at_one == ["legal" if v == "ambiguous" else v for v in at_two]

    def test_checker_verdict_reads_as_check_prints_it(self):
        assert str(Verdict.ok()) == "legal"
        assert str(Verdict.fail(FORK, 3)) == "illegal fork at 3"


class TestDeadStateMemo:
    """The conc search remembers dead states.  The probe corpora are
    perturbed conc plays on which a search without the memo exhausted
    ``SEARCH_BUDGET`` once per arena (o1w5 and o2w5)."""

    @staticmethod
    def probe_plays(order):
        arena = make_arena(uniform_tree(order, 5))
        corpus = perturb_corpus(generate_corpus(arena, CONCURRENT, 30, 50, 7), 0.1, 8)
        return arena, [seq[:-1] for seq in corpus.plays]

    @pytest.mark.parametrize("order, counts", [
        (1, {"illegal": 24, "ambiguous": 4, "legal": 2}),
        (2, {"illegal": 28, "legal": 2}),
    ])
    def test_probe_corpora_are_decided(self, order, counts):
        arena, plays = self.probe_plays(order)
        verdicts = [reconstruction_verdict(arena, CONCURRENT, tokens) for tokens in plays]
        assert "ambiguous (search budget exceeded)" not in verdicts
        assert Counter(verdicts) == counts

    @pytest.mark.parametrize("order, keys, pushes", [(1, 188, 713), (2, 19407, 33654)])
    def test_probe_searches_do_pinned_work(self, order, keys, pushes, monkeypatch):
        # memo keys built and moves pushed over a probe corpus at the full
        # budget: a change that explores or keys other states shows here
        arena, plays = self.probe_plays(order)
        calls = Counter()
        for name in ("pending_forest", "push"):
            def counted(state, *args, _name=name, _method=getattr(_PlayState, name)):
                calls[_name] += 1
                return _method(state, *args)
            monkeypatch.setattr(_PlayState, name, counted)
        for tokens in plays:
            reconstruction_verdict(arena, CONCURRENT, tokens)
        assert (calls["pending_forest"], calls["push"]) == (keys, pushes)

    def test_budget_play_is_decided_within_a_small_budget(self, monkeypatch):
        # play 30 of the o1w5 probe ran past 1,000,000 extensions unmemoised
        arena, plays = self.probe_plays(1)
        monkeypatch.setattr(playlab.play, "SEARCH_BUDGET", 10_000)
        assert reconstruction_verdict(arena, CONCURRENT, plays[29]) == "illegal"

    def test_seq_is_not_memoised(self, two_arg_arena, monkeypatch):
        # o3w5 seq plays can be ambiguous, so their searches have choices
        arena = make_arena(uniform_tree(3, 5))
        corpus = generate_corpus(arena, SEQUENTIAL, 30, 30, seed=5)
        plays = [seq[:-1] for seq in corpus.plays + perturb_corpus(corpus, 0.2, 6).plays]
        before = [justification_assignments(arena, SEQUENTIAL, t) for t in plays]
        assert any(len(found) > 1 for found in before)

        def refuse(state):
            raise AssertionError("seq search built a memo key")

        monkeypatch.setattr(_PlayState, "pending_forest", refuse)
        assert [justification_assignments(arena, SEQUENTIAL, t) for t in plays] == before
        with pytest.raises(AssertionError, match="memo key"):
            justification_assignments(two_arg_arena, CONCURRENT, ["q@ε", "q@1", "q@1", "a@1"])

    @pytest.mark.parametrize("tokens", [
        "q@ε q@1 q@1.1 q@1.1 q@1 q@1.1 a@1.1 q@1.1 a@1.1 q@1.1 a@1 q@1.1",
        "q@ε q@1 q@1.1 a@1.1 q@1.1 q@1 q@1.1 q@1.1 q@1 q@1.1 a@1.1 q@1.1 a@1 a@1",
    ])
    def test_a_forest_met_again_at_another_token_is_searched(self, order2_arena, tokens):
        # the same pending forest recurs at different tokens of these plays,
        # with a different future; the reference tries every pointer assignment
        moves = [parse_token(t) for t in tokens.split()]
        at = [order2_arena.index(m) for m in moves]
        choices = [
            [None] if i == 0 else [j for j in range(i) if at[j] == order2_arena.enabler_idx[mi]]
            for i, mi in enumerate(at)
        ]
        legal = {play for play in (tuple(PointedMove(m, i, j)
                                         for i, (m, j) in enumerate(zip(moves, js)))
                                   for js in itertools.product(*choices))
                 if ref_check_concurrent(order2_arena, play).legal}
        found = justification_assignments(order2_arena, CONCURRENT, tokens.split(), limit=10**6)
        assert len(found) == len(set(found))
        assert set(found) == legal
