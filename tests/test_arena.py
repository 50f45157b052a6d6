import itertools

import pytest
from hypothesis import given, strategies as st

from playlab.arena import (
    ANSWER,
    OPPONENT,
    PROPONENT,
    QUESTION,
    Arena,
    MoveId,
    TypeSyntaxError,
    TypeTree,
    UnknownMoveError,
    arena_order,
    arena_width,
    make_arena,
    move_player,
    parse_token,
    parse_type,
    render_type,
    uniform_tree,
)

LEAF = TypeTree()


def type_trees(max_leaves=12):
    return st.recursive(
        st.just(LEAF),
        lambda child: st.builds(
            lambda args: TypeTree(tuple(args)),
            st.lists(child, min_size=1, max_size=3),
        ),
        max_leaves=max_leaves,
    )


def node_count(tree: TypeTree) -> int:
    return 1 + sum(node_count(a) for a in tree.args)


def all_trees_with_nodes(n: int) -> list[TypeTree]:
    if n == 1:
        return [LEAF]
    out = []
    for k in range(1, n):
        for split in _compositions(n - 1, k):
            for combo in itertools.product(*[all_trees_with_nodes(s) for s in split]):
                out.append(TypeTree(combo))
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class TestParseType:
    def test_leaf(self):
        assert parse_type("unit") == LEAF

    def test_two_arguments(self):
        assert parse_type("unit -> unit -> unit") == TypeTree((LEAF, LEAF))

    def test_parenthesized_argument(self):
        assert parse_type("(unit -> unit) -> unit") == TypeTree((TypeTree((LEAF,)),))

    def test_right_associative(self):
        assert parse_type("unit -> unit -> unit") == parse_type("unit -> (unit -> unit)")

    def test_empty_input(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("   ")

    def test_error_position(self):
        with pytest.raises(TypeSyntaxError) as err:
            parse_type("unit -> bool")
        assert err.value.position == 8

    def test_unbalanced_paren(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("(unit -> unit")

    def test_trailing_garbage(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("unit unit")

    @given(type_trees())
    def test_render_round_trip(self, tree):
        assert parse_type(render_type(tree)) == tree

    def test_long_arrow_chain(self):
        # one stack frame per arrow would pass Python's recursion limit
        assert parse_type(" -> ".join(["unit"] * 1201)) == TypeTree((LEAF,) * 1200)

    def test_deep_nesting_is_syntax_error(self):
        with pytest.raises(TypeSyntaxError, match="nested too deeply") as err:
            parse_type("unit -> " + "(" * 1200 + "unit" + ")" * 1200)
        assert err.value.position == 8


class TestMoveTokens:
    def test_root_tokens(self):
        assert MoveId((), QUESTION).token == "q@ε"
        assert MoveId((), ANSWER).token == "a@ε"

    def test_nested_token(self):
        assert MoveId((2, 1), QUESTION).token == "q@2.1"

    @given(
        st.lists(st.integers(min_value=1, max_value=9), max_size=4),
        st.sampled_from([QUESTION, ANSWER]),
    )
    def test_token_round_trip(self, path, kind):
        move = MoveId(tuple(path), kind)
        assert parse_token(move.token) == move

    @pytest.mark.parametrize("bad", ["q", "x@1", "q@0", "q@1..2", "q@", "q@-1", "q@a",
                                     "q@01", "q@+1", "q@1_0", "q@１", "a@1.02"])
    def test_malformed_tokens(self, bad):
        with pytest.raises(ValueError):
            parse_token(bad)


class TestTokenLookup:
    @pytest.mark.parametrize("order, width", [(1, 1), (2, 5), (3, 5)])
    def test_token_names_its_move(self, order, width):
        arena = make_arena(uniform_tree(order, width))
        for tok in arena.tokens:
            assert tok in arena
            assert arena.index(tok) == arena.index(parse_token(tok))

    @pytest.mark.parametrize("bad", ["q@9", "x"])
    def test_unknown_token(self, arrow_arena, bad):
        assert bad not in arrow_arena
        with pytest.raises(UnknownMoveError, match=f"move {bad} is not a move of this arena"):
            arrow_arena.index(bad)


# Fold-based construction: the arena of T1 -> ... -> Tk -> unit equals
# arrow(arena(T1), arrow(arena(T2), ... arena(unit))), where arrow prefixes
# argument paths with 1, shifts result argument paths up by one, reverses
# the argument's player polarities, and wires result initials to enable
# argument initials.  This is the oracle make_arena is checked against.


def fold_arena(tree: TypeTree):
    if not tree.args:
        q, a = MoveId((), QUESTION), MoveId((), ANSWER)
        return (
            {q, a},
            {q: (OPPONENT, QUESTION), a: (PROPONENT, ANSWER)},
            {(q, a)},
            {q},
        )
    return _arrow(fold_arena(tree.args[0]), fold_arena(TypeTree(tree.args[1:])))


def _arrow(argument, result):
    am, al, ae, ai = argument
    bm, bl, be, bi = result
    flip = {OPPONENT: PROPONENT, PROPONENT: OPPONENT}

    def sa(m: MoveId) -> MoveId:
        return MoveId((1,) + m.path, m.kind)

    def sb(m: MoveId) -> MoveId:
        if not m.path:
            return m
        return MoveId((m.path[0] + 1,) + m.path[1:], m.kind)

    moves = {sa(m) for m in am} | {sb(m) for m in bm}
    labelling = {sa(m): (flip[p], k) for m, (p, k) in al.items()}
    labelling.update({sb(m): (p, k) for m, (p, k) in bl.items()})
    enabling = {(sa(x), sa(y)) for x, y in ae} | {(sb(x), sb(y)) for x, y in be}
    enabling |= {(sb(b), sa(a)) for b in bi for a in ai}
    return moves, labelling, enabling, {sb(m) for m in bi}


def assert_matches_fold(arena: Arena):
    moves, labelling, enabling, initials = fold_arena(arena.tree)
    assert set(arena.moves) == moves
    for move, (player, kind) in labelling.items():
        i = arena.index(move)
        assert (arena.player[i], arena.is_question[i]) == (player, kind == QUESTION)
    derived = {
        (arena.moves[e], m) for m, e in zip(arena.moves, arena.enabler_idx) if e is not None
    }
    assert derived == enabling
    assert {arena.initial} == initials


class TestMakeArena:
    def test_unit_arena(self, unit_arena):
        q, a = MoveId((), QUESTION), MoveId((), ANSWER)
        assert set(unit_arena.moves) == {q, a}
        iq, ia = unit_arena.index(q), unit_arena.index(a)
        assert (unit_arena.player[iq], unit_arena.is_question[iq]) == (OPPONENT, True)
        assert (unit_arena.player[ia], unit_arena.is_question[ia]) == (PROPONENT, False)
        assert unit_arena.enabler_idx[ia] == iq
        assert unit_arena.enabler_idx[iq] is None

    def test_arrow_arena(self, arrow_arena):
        assert len(arrow_arena) == 4
        iq1, ia1 = arrow_arena.index("q@1"), arrow_arena.index("a@1")
        assert (arrow_arena.player[iq1], arrow_arena.is_question[iq1]) == (PROPONENT, True)
        assert (arrow_arena.player[ia1], arrow_arena.is_question[ia1]) == (OPPONENT, False)
        assert arrow_arena.enabler_idx[iq1] == arrow_arena.index("q@ε")

    def test_width5_order3_size(self):
        tree = uniform_tree(3, 5)
        assert node_count(tree) == 1 + 5 + 25 + 125
        assert len(make_arena(tree)) == 312

    def test_deep_enabler(self):
        arena = make_arena(parse_type("(unit -> unit -> unit) -> unit"))
        assert arena.enabler_idx[arena.index("q@1.2")] == arena.index("q@1")

    def test_unknown_move(self, unit_arena):
        with pytest.raises(UnknownMoveError):
            unit_arena.index(parse_token("q@7"))

    @given(type_trees())
    def test_matches_fold_construction(self, tree):
        assert_matches_fold(make_arena(tree))

    @given(type_trees())
    def test_move_count_and_single_initial(self, tree):
        arena = make_arena(tree)
        assert len(arena) == 2 * node_count(tree)
        initials = [m for m, e in zip(arena.moves, arena.enabler_idx) if e is None]
        assert initials == [arena.initial]

    @given(type_trees())
    def test_polarity_depth_parity(self, tree):
        arena = make_arena(tree)
        for move, player in zip(arena.moves, arena.player):
            even = len(move.path) % 2 == 0
            if move.kind == QUESTION:
                assert player == (OPPONENT if even else PROPONENT)
            else:
                question_player = OPPONENT if even else PROPONENT
                assert player != question_player
            assert player == move_player(move)

    @given(type_trees())
    def test_enabling_is_a_forest(self, tree):
        arena = make_arena(tree)
        for i in range(len(arena)):
            seen = set()
            cursor = i
            while cursor is not None:
                assert cursor not in seen
                seen.add(cursor)
                cursor = arena.enabler_idx[cursor]
            assert arena.initial_idx in seen


class TestOrderWidth:
    @pytest.mark.parametrize(
        "text,order",
        [("unit", 0), ("unit -> unit", 1), ("((unit -> unit) -> unit)", 2)],
    )
    def test_order_examples(self, text, order):
        assert arena_order(parse_type(text)) == order

    @pytest.mark.parametrize(
        "text,width",
        [("unit", 0), ("unit -> unit -> unit", 2)],
    )
    def test_width_examples(self, text, width):
        assert arena_width(parse_type(text)) == width

    def test_uniform_tree_width(self):
        assert arena_width(uniform_tree(2, 5)) == 5
        assert arena_order(uniform_tree(2, 5)) == 2

    def test_uniform_tree_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            uniform_tree(-1, 2)
        with pytest.raises(ValueError):
            uniform_tree(1, 0)

    def test_exhaustive_small_trees(self):
        # order per the arrow clause: order(A -> B) = max(order(A)+1, order(B))
        def clause_order(tree: TypeTree) -> int:
            if not tree.args:
                return 0
            rest = TypeTree(tree.args[1:])
            return max(clause_order(tree.args[0]) + 1, clause_order(rest))

        def scan_width(tree: TypeTree) -> int:
            widths = [0]

            def walk(node):
                widths.append(len(node.args))
                for arg in node.args:
                    walk(arg)

            walk(tree)
            return max(widths)

        trees = [t for n in range(1, 6) for t in all_trees_with_nodes(n)]
        assert len(trees) == 1 + 1 + 2 + 5 + 14
        for tree in trees:
            assert arena_order(tree) == clause_order(tree)
            assert arena_width(tree) == scan_width(tree)


class TestDump:
    def test_moves_are_canonically_sorted(self):
        arena = make_arena(uniform_tree(2, 2))
        assert list(arena.moves) == sorted(arena.moves)


def test_boolean_example_arena():
    # The boolean arena is not expressible as a type tree here (two answers
    # under one question); keep it as literal data and check it obeys the
    # same labelling and enabling discipline.
    q = "q"
    tt, ff = "tt", "ff"
    labelling = {q: (OPPONENT, QUESTION), tt: (PROPONENT, ANSWER), ff: (PROPONENT, ANSWER)}
    enabling = {(q, tt), (q, ff)}
    initials = {q}
    assert initials == {m for m in labelling if all(b != m for _, b in enabling)}
    for enabler, enabled in enabling:
        assert labelling[enabler][1] == QUESTION
        assert labelling[enabler][0] != labelling[enabled][0]
