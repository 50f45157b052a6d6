import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import playlab.seqmodel as seqmodel
from playlab.rng import substream
from playlab.seqmodel import (
    INIT_SCALE,
    MAX_GRAD_NORM,
    Evaluation,
    LayerParams,
    LstmModel,
    ModelConfig,
    ModelFormatError,
    backward,
    clip_gradients,
    forward,
    init_model,
    learning_rate,
    load_model,
    loss_bits,
    perplexity,
    save_model,
    sgd_epoch,
    step_cell,
    train_model,
)
from playlab.seqmodel import _forward

from conftest import config_block, rewrite_config
from oracles import scalar_lstm_step


def softmax(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def tiny_config(**kw):
    base = dict(
        vocab_size=5,
        embed_dim=4,
        hidden_dim=4,
        layers=2,
        unroll=3,
        batch=2,
        epochs=2,
        seed=7,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestSchedule:
    def test_default_values(self):
        lr = [learning_rate(epoch) for epoch in range(1, 14)]
        assert lr[:4] == [1.0, 1.0, 1.0, 1.0]
        assert lr[4] == 0.5
        assert lr[12] == 2.0**-9

    def test_short_run_never_decays(self):
        assert [learning_rate(epoch) for epoch in range(1, 5)] == [1.0] * 4


class TestConfig:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "vocab_size", "embed_dim", "hidden_dim", "layers", "unroll", "batch", "epochs", "seed"
        ]

    def test_recipe_is_not_a_setting(self):
        for setting in ({"lr_schedule": (0.5, 0.25)}, {"max_grad_norm": 1.0},
                        {"init_scale": 0.0}):
            with pytest.raises(TypeError):
                tiny_config(**setting)

    def test_json_round_trip(self):
        config = tiny_config()
        assert ModelConfig.from_json(config.to_json()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(vocab_size=0)
        with pytest.raises(ValueError):
            tiny_config(hidden_dim=0)

    def test_default_param_count(self):
        model = init_model(ModelConfig(vocab_size=5))
        assert model.param_count() == 643605

    def test_tiny_param_count(self):
        # embed V*E + 2 layers of (E*4H + H*4H + 4H) + proj H*V + V
        model = init_model(tiny_config())
        assert model.param_count() == 5 * 4 + 2 * (4 * 16 + 4 * 16 + 16) + 4 * 5 + 5


def assert_layout(model):
    """Every params() array is a writable view into model.vector, and the
    arrays tile the vector in order with no gap."""
    vector = model.vector
    assert vector.dtype == np.float64 and vector.flags.c_contiguous
    offset = 0
    for name, p in model.params():
        assert np.shares_memory(p, vector), name
        assert p.flags.writeable, name
        assert p.ctypes.data == vector.ctypes.data + offset * vector.itemsize, name
        offset += p.size
    assert offset == vector.size


class TestLayout:
    @pytest.mark.parametrize("source", ["init", "load"])
    def test_params_tile_one_vector(self, tmp_path, source):
        model = init_model(tiny_config())
        if source == "load":
            save_model(model, tmp_path / "m.model")
            model = load_model(tmp_path / "m.model")
        assert_layout(model)


class TestPinnedBits:
    # sha256 of save_model bytes, recorded before the parameters moved into
    # one vector; trained bits depend on the BLAS build (these are from
    # numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64)
    INIT = "02a6929eef05cbf4af6f94a0100d3522032e9c02eb919632c53c7306419086c1"
    TRAINED = "349859e751d12256216958db96c9a5a0200f98fec985d1a8c9610a351b1827ae"

    def test_container_digests(self, tmp_path):
        def digest(model):
            save_model(model, tmp_path / "m.model")
            return hashlib.sha256((tmp_path / "m.model").read_bytes()).hexdigest()

        model = init_model(tiny_config())
        assert digest(model) == self.INIT
        train_model(model, substream(5, "corpus").integers(0, 5, 200))
        assert digest(model) == self.TRAINED

    # repr of perplexity(...).total_bits, recorded before eval stopped
    # building backward records; the init model's two batch sizes differ in
    # the last bit, so a change of grouping or summation order shows
    EVAL_BITS = {
        ("init", 64): "469.02927465792766",
        ("init", 3): "469.0292746579278",
        ("trained", 64): "667.2239750939154",
        ("trained", 3): "667.2239750939154",
    }

    def test_eval_bits(self):
        rng = substream(9, "eval")
        seqs = [rng.integers(0, 5, rng.integers(1, 12)) for _ in range(40)]
        model = init_model(tiny_config())
        for state in ("init", "trained"):
            if state == "trained":
                train_model(model, substream(5, "corpus").integers(0, 5, 200))
            for batch in (64, 3):
                bits = perplexity(model, seqs, eval_batch=batch).total_bits
                assert repr(bits) == self.EVAL_BITS[state, batch], (state, batch)


class TestInit:
    def test_deterministic(self):
        a = init_model(tiny_config())
        b = init_model(tiny_config())
        for (_, pa), (_, pb) in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_seed_changes_weights(self):
        a = init_model(tiny_config())
        b = init_model(tiny_config(seed=8))
        assert not np.array_equal(a.embedding, b.embedding)

    def test_scale_bounds_and_biases(self):
        model = init_model(tiny_config())
        H = model.config.hidden_dim
        for name, p in model.params():
            if p.ndim == 2:
                assert np.abs(p).max() <= INIT_SCALE
                assert np.abs(p).max() > 0.0
        for layer in model.cells:
            assert np.array_equal(layer.bias[H : 2 * H], np.ones(H))
            assert not layer.bias[:H].any()
            assert not layer.bias[2 * H :].any()
        assert not model.proj_bias.any()
        # the forget-gate block is an LSTM rule, also when proj_bias has 4H entries
        assert not init_model(tiny_config(vocab_size=4 * H)).proj_bias.any()

    def test_zero_scale(self, monkeypatch):
        monkeypatch.setattr(seqmodel, "INIT_SCALE", 0.0)
        model = init_model(tiny_config())
        assert not model.embedding.any()
        assert not model.proj.any()


class TestStepCell:
    def test_rest_state_is_fixed(self):
        model = LstmModel(tiny_config())
        H = model.config.hidden_dim
        x = np.zeros((3, H))
        h, c = step_cell(x, np.zeros((3, H)), np.zeros((3, H)), model.cells[0])
        assert not h.any() and not c.any()

    def test_bias_only_closed_form(self):
        H = 4
        bias = np.concatenate(
            [np.full(H, 0.3), np.full(H, -0.2), np.full(H, 1.1), np.full(H, 0.7)]
        )
        layer = LayerParams(np.zeros((H, 4 * H)), np.zeros((H, 4 * H)), bias)
        c0 = np.full((1, H), 0.5)
        h, c = step_cell(np.zeros((1, H)), np.zeros((1, H)), c0, layer)
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        want_c = sig(-0.2) * 0.5 + sig(0.3) * math.tanh(0.7)
        assert np.allclose(c, want_c, rtol=0, atol=1e-15)
        assert np.allclose(h, sig(1.1) * math.tanh(want_c), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_reference(self, seed):
        rng = substream(seed, "cell")
        In, H, B = 3, 5, 2
        layer = LayerParams(
            rng.uniform(-1, 1, (In, 4 * H)),
            rng.uniform(-1, 1, (H, 4 * H)),
            rng.uniform(-1, 1, 4 * H),
        )
        x = rng.uniform(-1, 1, (B, In))
        h0 = rng.uniform(-1, 1, (B, H))
        c0 = rng.uniform(-1, 1, (B, H))
        h, c = step_cell(x, h0, c0, layer)
        for r in range(B):
            hr, cr = scalar_lstm_step(x[r], h0[r], c0[r], layer.w_x, layer.w_h, layer.bias)
            assert np.allclose(h[r], hr, rtol=0, atol=1e-12)
            assert np.allclose(c[r], cr, rtol=0, atol=1e-12)


class TestForward:
    def test_zero_model_is_uniform(self):
        model = LstmModel(tiny_config())
        logits, _ = forward(model, np.zeros((2, 3), dtype=np.int64))
        probs = softmax(logits)
        assert np.allclose(probs, 1.0 / model.config.vocab_size, rtol=0, atol=1e-15)

    def test_state_threading_matches_single_pass(self):
        model = init_model(tiny_config())
        ids = substream(1, "ids").integers(0, 5, (2, 8))
        whole, _ = forward(model, ids)
        first, state = forward(model, ids[:, :3])
        rest, _ = forward(model, ids[:, 3:], state)
        assert np.allclose(np.concatenate([first, rest], axis=1), whole, atol=1e-12)

    def test_identical_rows_identical_logits(self):
        model = init_model(tiny_config())
        row = substream(2, "ids").integers(0, 5, 6)
        logits, _ = forward(model, np.stack([row, row]))
        assert np.array_equal(logits[0], logits[1])

    @pytest.mark.parametrize("carried", [False, True])
    def test_matches_record_keeping_path(self, carried):
        model = init_model(tiny_config())
        rng = substream(10, "ids")
        state = None
        if carried:
            _, state = forward(model, rng.integers(0, 5, (3, 4)))
        ids = rng.integers(0, 5, (3, 6))
        logits, new_state = forward(model, ids, state)
        kept_logits, kept_state, (records, _) = _forward(model, ids, state, keep=True)
        assert np.array_equal(logits, kept_logits)
        for (h, c), (kh, kc) in zip(new_state, kept_state):
            assert np.array_equal(h, kh) and np.array_equal(c, kc)
        assert all(rec is not None for rec in records)

    def test_keeps_no_backward_records(self):
        # B 64, T 40, H 64, 2 layers: each layer's record holds its input
        # plus 7H floats per position (hs, cs, tc and the 4H activations)
        B, T, H = 64, 40, 64
        config = ModelConfig(vocab_size=5, embed_dim=H, hidden_dim=H, seed=3)
        model = init_model(config)
        seqs = list(substream(11, "eval").integers(0, 5, (B, T)))
        record_bytes = config.layers * B * T * (H + 7 * H) * 8
        tracemalloc.start()
        try:
            perplexity(model, seqs, eval_batch=B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < record_bytes / 2

    def test_rejects_bad_ids(self):
        model = init_model(tiny_config())
        with pytest.raises(ValueError):
            forward(model, np.array([[0, 5]]))
        with pytest.raises(ValueError):
            forward(model, np.array([0, 1]))


class TestLoss:
    def test_uniform_bits(self):
        logits = np.zeros((2, 3, 4))
        bits, count = loss_bits(logits, np.zeros((2, 3), dtype=np.int64))
        assert count == 6
        assert bits == pytest.approx(6 * 2.0, abs=1e-12)

    def test_confident_model_near_zero(self):
        logits = np.zeros((1, 2, 4))
        logits[..., 1] = 60.0
        bits, _ = loss_bits(logits, np.ones((1, 2), dtype=np.int64))
        assert bits < 1e-12

    def test_mask(self):
        logits = np.zeros((1, 4, 2))
        for mask in ([[True, False, True, False]], [[1, 0, 1, 0]]):
            bits, count = loss_bits(logits, np.zeros((1, 4), dtype=np.int64), np.array(mask))
            assert count == 2
            assert bits == pytest.approx(2.0, abs=1e-12)


def numeric_gradients(model, ids, targets, step=1e-5):
    grads = []
    for _, p in model.params():
        g = np.zeros_like(p)
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        for k in range(flat_p.size):
            keep = flat_p[k]
            flat_p[k] = keep + step
            up, _ = loss_bits(forward(model, ids)[0], targets)
            flat_p[k] = keep - step
            down, _ = loss_bits(forward(model, ids)[0], targets)
            flat_p[k] = keep
            flat_g[k] = (up - down) / (2 * step)
        grads.append(g)
    return grads


class TestBackward:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_gradcheck(self, seed):
        config = ModelConfig(
            vocab_size=3, embed_dim=3, hidden_dim=4, layers=2,
            unroll=3, batch=2, epochs=1, seed=seed,
        )
        model = init_model(config)
        rng = substream(seed, "data")
        ids = rng.integers(0, 3, (2, 3))
        targets = rng.integers(0, 3, (2, 3))
        grads = backward(model, ids, targets)
        numeric = numeric_gradients(model, ids, targets)
        for (name, g), n in zip(grads.params(), numeric):
            err = np.abs(g - n).max() / max(np.abs(n).max(), 1e-8)
            assert err <= 1e-4, f"{name}: rel err {err}"

    def test_gradients_cover_every_parameter(self):
        model = init_model(tiny_config())
        ids = substream(4, "ids").integers(0, 5, (2, 3))
        grads = backward(model, ids, ids)
        assert [name for name, _ in grads.params()] == [
            name for name, _ in model.params()
        ]
        for (_, g), (_, p) in zip(grads.params(), model.params()):
            assert g.shape == p.shape
        assert_layout(grads)
        assert not np.shares_memory(grads.vector, model.vector)


class TestClip:
    def test_large_norm_scaled(self):
        model = init_model(tiny_config())
        grads = backward(model, np.zeros((2, 3), np.int64), np.ones((2, 3), np.int64))
        before = math.sqrt(sum(float((g * g).sum()) for _, g in grads.params()))
        returned = clip_gradients(grads, 0.5)
        after = math.sqrt(sum(float((g * g).sum()) for _, g in grads.params()))
        assert returned == pytest.approx(before)
        assert after == pytest.approx(0.5, rel=1e-12)

    def test_small_norm_untouched(self):
        model = init_model(tiny_config())
        grads = backward(model, np.zeros((2, 3), np.int64), np.ones((2, 3), np.int64))
        snapshot = [g.copy() for _, g in grads.params()]
        clip_gradients(grads, 1e9)
        for (_, g), s in zip(grads.params(), snapshot):
            assert np.array_equal(g, s)


class TestTraining:
    def test_rejects_small_corpus(self):
        model = init_model(tiny_config())
        with pytest.raises(ValueError, match="corpus too small"):
            sgd_epoch(model, np.zeros(4, np.int64), 1)

    def test_rejects_bad_epoch(self):
        model = init_model(tiny_config())
        with pytest.raises(ValueError):
            sgd_epoch(model, np.zeros(64, np.int64), 3)

    def test_deterministic_training(self):
        ids = substream(5, "corpus").integers(0, 5, 200)
        logs_a = train_model(init_model(tiny_config()), ids)
        logs_b = train_model(init_model(tiny_config()), ids)
        assert logs_a == logs_b

    def test_memorisation_progress(self):
        # one short play on repeat; the model should get sharply better
        pattern = np.array([0, 2, 3, 1, 4], dtype=np.int64)
        ids = np.tile(pattern, 400)
        config = ModelConfig(
            vocab_size=5, embed_dim=16, hidden_dim=16, layers=1,
            unroll=10, batch=5, epochs=2, seed=1,
        )
        model = init_model(config)
        logs = train_model(model, ids)
        assert logs[-1][-1] < logs[0][0] / 2


class TestPerplexity:
    def test_zero_model_scores_vocab_size(self):
        model = LstmModel(tiny_config())
        seqs = [np.array([2, 1, 0]), np.array([3, 0])]
        result = perplexity(model, seqs)
        assert result.token_count == 5
        assert abs(result.perplexity - 5.0) <= 1e-9

    def test_order_invariant(self):
        model = init_model(tiny_config())
        rng = substream(6, "eval")
        seqs = [rng.integers(0, 5, rng.integers(1, 9)) for _ in range(150)]
        shuffled = [seqs[k] for k in rng.permutation(len(seqs))]
        assert perplexity(model, seqs) == perplexity(model, shuffled)

    def test_batch_size_invariant(self):
        model = init_model(tiny_config())
        rng = substream(7, "eval")
        seqs = [rng.integers(0, 5, rng.integers(1, 9)) for _ in range(40)]
        a = perplexity(model, seqs, eval_batch=64).perplexity
        b = perplexity(model, seqs, eval_batch=1).perplexity
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_play_by_play_reference(self):
        model = init_model(tiny_config())
        rng = substream(8, "eval")
        seqs = [rng.integers(0, 5, rng.integers(1, 9)) for _ in range(25)]
        total_nll, count = 0.0, 0
        for s in seqs:
            x = np.concatenate([[0], s[:-1]])[None, :]
            logits, _ = forward(model, x)
            probs = softmax(logits)[0]
            total_nll -= sum(math.log(probs[t, s[t]]) for t in range(s.size))
            count += s.size
        got = perplexity(model, seqs)
        assert got.token_count == count
        # 2^(bits/N) with bits = nll/ln2 collapses to e^(nll/N)
        assert got.perplexity == pytest.approx(math.exp(total_nll / count), rel=1e-9)

    def test_rejects_empty(self):
        model = init_model(tiny_config())
        with pytest.raises(ValueError):
            perplexity(model, [])
        with pytest.raises(ValueError):
            perplexity(model, [np.array([], dtype=np.int64)])

    @pytest.mark.parametrize("batch", [0, -1])
    def test_rejects_batch_below_one(self, batch):
        model = init_model(tiny_config())
        with pytest.raises(ValueError, match=f"eval_batch must be >= 1, got {batch}"):
            perplexity(model, [np.array([1, 0])], eval_batch=batch)

    def test_evaluation_value(self):
        assert Evaluation(4, 8.0).perplexity == 4.0


class TestContainer:
    def test_round_trip(self, tmp_path):
        model = init_model(tiny_config())
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert back.config == model.config
        for (na, pa), (nb, pb) in zip(model.params(), back.params()):
            assert na == nb
            assert np.array_equal(pa, pb)

    def test_save_load_save_identical_bytes(self, tmp_path):
        model = init_model(tiny_config())
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_old_model(self, tmp_path, disk_full_midway):
        path = tmp_path / "m.model"
        path.write_bytes(b"old model bytes")
        with pytest.raises(OSError):
            save_model(init_model(tiny_config()), path)
        assert path.read_bytes() == b"old model bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["m.model"]

    def test_perplexity_survives_round_trip(self, tmp_path):
        model = init_model(tiny_config())
        path = tmp_path / "m.model"
        save_model(model, path)
        seqs = [np.array([1, 2, 3]), np.array([4, 0])]
        assert perplexity(load_model(path), seqs) == perplexity(model, seqs)

    def test_records_the_recipe(self, tmp_path):
        config = tiny_config(epochs=6)
        path = tmp_path / "m.model"
        save_model(LstmModel(config), path)
        recorded, _ = config_block(path.read_bytes())
        assert recorded["lr_schedule"] == [learning_rate(e) for e in range(1, 7)]
        assert recorded["max_grad_norm"] == MAX_GRAD_NORM == 5.0
        assert recorded["init_scale"] == INIT_SCALE == 0.1

    def test_loads_a_different_recorded_recipe(self, tmp_path):
        # a container from when the recipe was settable
        model = init_model(tiny_config())
        path = tmp_path / "m.model"
        save_model(model, path)
        rewrite_config(path, lr_schedule=[0.5, 0.25], max_grad_norm=1.0, init_scale=0.25)
        back = load_model(path)
        assert back.config == model.config
        seqs = [np.array([1, 2, 3]), np.array([4, 0])]
        assert perplexity(back, seqs) == perplexity(model, seqs)

    @pytest.mark.parametrize("field, value", [("embed_dim", 4.0), ("layers", True)])
    def test_rejects_a_non_integer_config(self, tmp_path, field, value):
        path = tmp_path / "m.model"
        save_model(init_model(tiny_config()), path)
        rewrite_config(path, **{field: value})
        with pytest.raises(ModelFormatError, match=f"bad config block: {field} must be an integer"):
            load_model(path)

    def _mangle(self, tmp_path, mutate):
        model = init_model(tiny_config())
        path = tmp_path / "m.model"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        mutate(data)
        path.write_bytes(bytes(data))
        return path

    def test_detects_corruption(self, tmp_path):
        def flip(data):
            data[len(data) // 2] ^= 0xFF

        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(self._mangle(tmp_path, flip))

    def test_detects_truncation(self, tmp_path):
        def chop(data):
            del data[-5:]

        with pytest.raises(ModelFormatError):
            load_model(self._mangle(tmp_path, chop))

    def test_detects_bad_magic(self, tmp_path):
        def stamp(data):
            data[0] = 0x58

        with pytest.raises(ModelFormatError, match="not a model container"):
            load_model(self._mangle(tmp_path, stamp))

    def test_detects_version_mismatch(self, tmp_path):
        def bump(data):
            # version bytes sit right after the magic; fix the checksum up
            import hashlib

            data[4] = 99
            data[-32:] = hashlib.sha256(bytes(data[:-32])).digest()

        with pytest.raises(ModelFormatError, match="version"):
            load_model(self._mangle(tmp_path, bump))

    def test_rejects_trailing_garbage(self, tmp_path):
        def pad(data):
            import hashlib

            data += b"\x00" * 8
            data[-32:] = hashlib.sha256(bytes(data[:-32])).digest()

        with pytest.raises(ModelFormatError):
            load_model(self._mangle(tmp_path, pad))
