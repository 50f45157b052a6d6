import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from playlab.rng import RAW_BLOCK, Draws, derive_key, derive_seed, substream


class TestDeriveKey:
    def test_deterministic(self):
        assert derive_key(7, "train", 1, 2) == derive_key(7, "train", 1, 2)

    def test_128_bit_range(self):
        key = derive_key(0)
        assert 0 <= key < 2**128

    def test_path_order_matters(self):
        assert derive_key(0, 1, 2) != derive_key(0, 2, 1)

    def test_label_and_index_distinct(self):
        # the string "3" and the integer 3 must key different streams
        assert derive_key(0, "3") != derive_key(0, 3)

    def test_seed_separated_from_path(self):
        assert derive_key(12, 3) != derive_key(1, 23)

    def test_rejects_bool_and_bad_types(self):
        with pytest.raises(TypeError):
            derive_key(0, True)
        with pytest.raises(TypeError):
            derive_key(0, 1.5)
        with pytest.raises(TypeError):
            derive_key("0")


class TestDeriveSeed:
    def test_64_bit_range(self):
        for i in range(50):
            assert 0 <= derive_seed(0, "role", i) < 2**64

    def test_usable_as_seed(self):
        seed = derive_seed(3, "train", "seq", 2, 1, 10_000)
        a = substream(seed, 0).integers(0, 100, 5)
        b = substream(seed, 0).integers(0, 100, 5)
        assert np.array_equal(a, b)


class TestSubstream:
    def test_same_path_same_draws(self):
        a = substream(5, 17).random(8)
        b = substream(5, 17).random(8)
        assert np.array_equal(a, b)

    def test_different_index_different_draws(self):
        a = substream(5, 17).random(8)
        b = substream(5, 18).random(8)
        assert not np.array_equal(a, b)

    def test_different_seed_different_draws(self):
        a = substream(5, 17).random(8)
        b = substream(6, 17).random(8)
        assert not np.array_equal(a, b)

    def test_nested_labels(self):
        a = substream(0, "init").normal(size=4)
        b = substream(0, "data").normal(size=4)
        assert not np.array_equal(a, b)


# the bounds of integers(n) cover no draw (1), the rejection loop at its
# busiest (2**31 + 1 rejects almost half of all halves) and numpy's plain
# 32-bit path (2**32)
CALLS = (1, 2, 3, 5, 7, 63, 313, 2**31 + 1, 2**32 - 1, 2**32)


class TestDraws:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32),
           st.lists(st.sampled_from(CALLS), min_size=3 * RAW_BLOCK, max_size=10 * RAW_BLOCK))
    def test_equals_generator_call_for_call(self, seed, calls):
        # each call but integers(1) uses at least half a word, so these
        # sequences run through more than one block
        assume(sum(n != 1 for n in calls) > 2 * RAW_BLOCK)
        ref = substream(seed, "draws")
        draws = Draws(seed, "draws")
        for n in calls:
            assert draws.integers(n) == ref.integers(n)

    def test_rekey_drops_a_part_used_block(self):
        draws = Draws(4)
        draws.integers(7)
        assert operator.length_hint(draws._next.__self__) == 2 * RAW_BLOCK - 1
        draws.rekey(4, "next")
        fresh = substream(4, "next")
        assert [draws.integers(n) for n in CALLS] == [fresh.integers(n) for n in CALLS]

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_rejects_bounds_outside_32_bits(self, n):
        with pytest.raises(ValueError):
            Draws(0).integers(n)
