import numpy as np
import pytest

from playlab.arena import make_arena, uniform_tree
from playlab.corpus import generate_play
from playlab.rng import derive_key, derive_seed, rekey, substream


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


def _draws(rng):
    return [rng.random(), rng.integers(7), rng.integers(3, 40), rng.random(), rng.integers(2**40),
            rng.integers(5), rng.integers(-2, 2)]


class TestRekey:
    def test_part_used_buffer_is_dropped(self):
        # plays draw 64-bit floats and 32-bit bounded integers, so they leave
        # the four-word buffer part-used and a spare 32-bit half behind
        arena = make_arena(uniform_tree(2, 5))
        rng = substream(4)
        for i in range(100):
            rekey(rng, 4, i)
            generate_play(arena, "seq", 50, rng)
            state = rng.bit_generator.state
            if state["has_uint32"] == 1 and state["buffer_pos"] < 4:
                break
        else:
            raise AssertionError("no play left the buffer part-used")
        rekey(rng, 4, "next")
        fresh = substream(4, "next")
        assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
        assert _draws(rng) == _draws(fresh)
