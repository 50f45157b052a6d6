import pytest
from hypothesis import given, settings, strategies as st

import playlab.play
from playlab.arena import make_arena, parse_token, parse_type, uniform_tree
from playlab.play import (
    ALTERNATION,
    BRACKETING,
    CONCURRENT,
    FORK,
    JOIN,
    JUSTIFICATION,
    SEQUENTIAL,
    VISIBILITY,
    IllegalPlayError,
    PointedMove,
    PointedPlay,
    SearchBudgetExceeded,
    Verdict,
    _PlayState,
    check_concurrent,
    check_justified,
    check_sequential,
    checker_for,
    format_pointed,
    justification_assignments,
    legal_extensions,
    oview,
    parse_pointed,
    parse_pointed_file,
    pending_questions,
    pview,
)

from conftest import PAR_COMPOSITION_PLAY, SEQ_COMPOSITION_PLAY
from oracles import (
    brute_force_extensions,
    enumerate_justified,
    enumerate_ref_legal,
    play_of,
    ref_check_concurrent,
    ref_check_justified,
    ref_check_sequential,
    ref_oview,
    ref_pending,
    ref_pview,
)

SMALL_ARENAS = ["unit", "unit -> unit", "unit -> unit -> unit", "(unit -> unit) -> unit"]


def grow_random_play(arena, lang, draw, max_len):
    """Random legal play driven by a hypothesis data object."""
    play = PointedPlay()
    for _ in range(max_len):
        exts = legal_extensions(arena, lang, play)
        if not exts:
            break
        pm = draw(st.sampled_from(exts))
        play = PointedPlay(play.items + (pm,))
    return play


class TestCheckJustified:
    def test_question_then_answer(self, unit_arena):
        assert check_justified(unit_arena, play_of(("q@ε", None), ("a@ε", 0))).legal

    def test_self_pointer(self, unit_arena):
        play = PointedPlay(
            (PointedMove(parse_token("q@ε"), 0, None), PointedMove(parse_token("a@ε"), 1, 1))
        )
        assert check_justified(unit_arena, play) == Verdict.fail(JUSTIFICATION, 1)

    def test_non_initial_opening(self, unit_arena):
        play = play_of(("a@ε", None))
        assert check_justified(unit_arena, play) == Verdict.fail(JUSTIFICATION, 0)

    def test_duplicate_name(self, unit_arena):
        play = PointedPlay(
            (PointedMove(parse_token("q@ε"), 0, None), PointedMove(parse_token("a@ε"), 0, 0))
        )
        assert check_justified(unit_arena, play) == Verdict.fail(JUSTIFICATION, 1)

    def test_second_initial(self, two_arg_arena):
        play = play_of(("q@ε", None), ("q@ε", None))
        assert check_justified(two_arg_arena, play) == Verdict.fail(JUSTIFICATION, 1)

    def test_wrong_enabler(self, two_arg_arena):
        play = play_of(("q@ε", None), ("q@1", 0), ("a@2", 1))
        assert check_justified(two_arg_arena, play) == Verdict.fail(JUSTIFICATION, 2)


class TestViews:
    def test_pview_empty(self):
        assert pview(PointedPlay()) == PointedPlay()

    def test_oview_empty(self):
        assert oview(PointedPlay()) == PointedPlay()

    def test_pview_single_opening(self):
        play = play_of(("q@ε", None))
        assert pview(play) == play
        assert oview(play) == play

    def test_pview_of_seq_composition_is_whole_play(self):
        assert pview(SEQ_COMPOSITION_PLAY) == SEQ_COMPOSITION_PLAY

    def test_pview_restarts_at_opening(self, two_arg_arena):
        # after the first argument completes, the opponent's view still
        # reaches back through the opening move
        prefix = SEQ_COMPOSITION_PLAY[:3]
        names = [pm.name for pm in oview(prefix)]
        assert names == [0, 1, 2]

    def test_oview_ends_with_justifier_then_move(self, two_arg_arena):
        # any play ending in a proponent move justified by n: the oview
        # ends [justifier move, the move itself]
        for play in enumerate_ref_legal(two_arg_arena, ref_check_sequential, 5):
            if not play.items:
                continue
            last = play.items[-1]
            from playlab.arena import PROPONENT, move_player

            if move_player(last.move) != PROPONENT:
                continue
            tail = oview(play).items[-2:]
            assert tail[-1] == last
            assert tail[0].name == last.justifier

    def test_view_of_malformed_sequence(self):
        # the dangling pointer is only dereferenced by the truncating view
        bad = PointedPlay(
            (
                PointedMove(parse_token("q@ε"), 0, None),
                PointedMove(parse_token("a@ε"), 1, 7),
            )
        )
        with pytest.raises(ValueError):
            oview(bad)
        worse = PointedPlay(
            (
                PointedMove(parse_token("q@ε"), 0, None),
                PointedMove(parse_token("q@1"), 1, 0),
                PointedMove(parse_token("a@1"), 2, 99),
            )
        )
        with pytest.raises(ValueError):
            pview(worse)

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    def test_views_match_recursive_clauses(self, spec):
        arena = make_arena(parse_type(spec))
        for play in enumerate_justified(arena, 5):
            try:
                expect = ref_pview(play)
            except StopIteration:
                continue
            assert pview(play) == expect
            assert oview(play) == ref_oview(play)

    @pytest.mark.parametrize("spec", SMALL_ARENAS[1:])
    def test_views_are_subsequences_ending_at_last_move(self, spec):
        arena = make_arena(parse_type(spec))
        for play in enumerate_ref_legal(arena, ref_check_sequential, 6):
            if not play.items:
                continue
            for view in (pview(play), oview(play)):
                it = iter(play.items)
                assert all(pm in it for pm in view.items)  # subsequence
            assert pview(play).items[-1] == play.items[-1]


class TestPendingQuestions:
    def test_single_question(self):
        assert pending_questions(play_of(("q@ε", None))) == [0]

    def test_seq_composition_prefix(self):
        assert pending_questions(SEQ_COMPOSITION_PLAY[:3]) == [0]

    def test_par_composition_prefix(self):
        assert pending_questions(PAR_COMPOSITION_PLAY[:3]) == [0, 1, 2]

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    def test_matches_reference(self, spec):
        arena = make_arena(parse_type(spec))
        for play in enumerate_justified(arena, 5):
            assert pending_questions(play) == ref_pending(play)


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
        assert check_sequential(unit_arena, PointedPlay()).legal


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
        assert check_concurrent(unit_arena, PointedPlay()).legal


class TestOracleEquivalence:
    @pytest.mark.parametrize("spec", ["unit", "unit -> unit"])
    def test_checkers_agree_with_references(self, spec):
        arena = make_arena(parse_type(spec))
        for play in enumerate_justified(arena, 5):
            assert check_justified(arena, play) == ref_check_justified(arena, play)
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
    def test_empty_play_offers_opening(self, unit_arena):
        assert legal_extensions(unit_arena, SEQUENTIAL, PointedPlay()) == [
            PointedMove(parse_token("q@ε"), 0, None)
        ]

    def test_unit_arena_single_answer(self, unit_arena):
        exts = legal_extensions(unit_arena, SEQUENTIAL, play_of(("q@ε", None)))
        assert exts == [PointedMove(parse_token("a@ε"), 1, 0)]

    def test_par_prefix_concurrent(self, two_arg_arena):
        # both pending argument calls may answer, the root answer is held
        # back by join, and each argument may be forked again
        exts = legal_extensions(two_arg_arena, CONCURRENT, PAR_COMPOSITION_PLAY[:3])
        assert {(pm.move.token, pm.justifier) for pm in exts} == {
            ("a@1", 1),
            ("a@2", 2),
            ("q@1", 0),
            ("q@2", 0),
        }

    def test_rejects_illegal_play(self, two_arg_arena):
        with pytest.raises(IllegalPlayError):
            legal_extensions(two_arg_arena, SEQUENTIAL, PAR_COMPOSITION_PLAY)

    def test_output_is_sorted_and_fresh_named(self, two_arg_arena):
        exts = legal_extensions(two_arg_arena, CONCURRENT, PAR_COMPOSITION_PLAY[:3])
        assert [pm.name for pm in exts] == [3, 3, 3, 3]
        keys = [(pm.move, pm.justifier) for pm in exts]
        assert keys == sorted(keys, key=lambda k: (k[0], -1 if k[1] is None else k[1]))

    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    @pytest.mark.parametrize("lang", [SEQUENTIAL, CONCURRENT])
    def test_matches_brute_force(self, spec, lang):
        arena = make_arena(parse_type(spec))
        ref = ref_check_sequential if lang == SEQUENTIAL else ref_check_concurrent
        for play in enumerate_ref_legal(arena, ref, 5):
            got = {(pm.move, pm.justifier) for pm in legal_extensions(arena, lang, play)}
            assert got == brute_force_extensions(arena, lang, play)


def replayed_state(arena, lang, play):
    """A state holding ``play``, whose names are its positions."""
    state = _PlayState(arena, lang)
    for pm in play:
        state.push(arena.index(pm.move), -1 if pm.justifier is None else pm.justifier)
    return state


class TestPlayState:
    @pytest.mark.parametrize("spec", SMALL_ARENAS)
    @pytest.mark.parametrize("lang", [SEQUENTIAL, CONCURRENT])
    def test_extensions_are_the_enabled_moves_without_violation(self, spec, lang):
        arena = make_arena(parse_type(spec))
        ref = ref_check_sequential if lang == SEQUENTIAL else ref_check_concurrent
        for play in enumerate_ref_legal(arena, ref, 5):
            state = replayed_state(arena, lang, play)
            if not play.items:
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


class TestRandomPlays:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_growth_stays_legal(self, data):
        spec = data.draw(st.sampled_from(SMALL_ARENAS[1:]))
        lang = data.draw(st.sampled_from([SEQUENTIAL, CONCURRENT]))
        arena = make_arena(parse_type(spec))
        play = grow_random_play(arena, lang, data.draw, max_len=10)
        assert checker_for(lang)(arena, play).legal
        ref = ref_check_sequential if lang == SEQUENTIAL else ref_check_concurrent
        assert ref(arena, play).legal
        if lang == SEQUENTIAL:
            assert pview(play) == ref_pview(play)
            assert oview(play) == ref_oview(play)


class TestPointedText:
    def test_format_golden(self):
        text = format_pointed(SEQ_COMPOSITION_PLAY)
        assert text.splitlines()[0] == "q@ε 0 *"
        assert text.splitlines()[2] == "a@1 2 1"

    def test_round_trip(self, two_arg_arena):
        for play in enumerate_ref_legal(two_arg_arena, ref_check_sequential, 4):
            assert parse_pointed(format_pointed(play)) == play

    def test_parse_file_blocks(self):
        text = format_pointed(SEQ_COMPOSITION_PLAY) + "\n" + format_pointed(
            PAR_COMPOSITION_PLAY
        )
        plays = parse_pointed_file(text)
        assert plays == [SEQ_COMPOSITION_PLAY, PAR_COMPOSITION_PLAY]

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_pointed("q@ε 0")
        with pytest.raises(ValueError):
            parse_pointed("q@ε zero *")
        with pytest.raises(ValueError, match="expected one pointed play, got 2"):
            parse_pointed("q@ε 0 *\n\nq@ε 0 *\n")

    def test_whitespace_line_separates_plays(self, unit_arena):
        play = "q@ε 0 *\na@ε 1 0\n"
        plays = parse_pointed_file(play + " \n" + play)
        assert plays == [play_of(("q@ε", None), ("a@ε", 0))] * 2
        assert [check_sequential(unit_arena, p).legal for p in plays] == [True, True]

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

    def test_limit_below_one_rejected(self, arrow_arena):
        tokens = ["q@ε", "q@1", "q@1", "a@1"]
        for limit in (0, -1):
            with pytest.raises(ValueError, match="limit must be at least 1"):
                justification_assignments(arrow_arena, CONCURRENT, tokens, limit=limit)

    def test_empty_tokens(self, unit_arena):
        assert justification_assignments(unit_arena, SEQUENTIAL, []) == [PointedPlay()]

    def test_search_budget_exceeded(self, two_arg_arena, monkeypatch):
        tokens = [pm.move.token for pm in SEQ_COMPOSITION_PLAY]
        monkeypatch.setattr(playlab.play, "SEARCH_BUDGET", len(tokens) - 1)
        with pytest.raises(SearchBudgetExceeded, match=f"more than {len(tokens) - 1} "):
            justification_assignments(two_arg_arena, SEQUENTIAL, tokens)
        monkeypatch.setattr(playlab.play, "SEARCH_BUDGET", len(tokens))
        assert justification_assignments(two_arg_arena, SEQUENTIAL, tokens) == [
            SEQ_COMPOSITION_PLAY
        ]
