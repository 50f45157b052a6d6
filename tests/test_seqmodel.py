import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

import playlab.seqmodel as seqmodel
from playlab.arena import make_arena, uniform_tree
from playlab.corpus import Vocab
from playlab.experiment import ExperimentSpec
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
from playlab.seqmodel import _forward, _gates, _scatter_rows

from conftest import config_block, rewrite_config, version1_container
from oracles import scalar_lstm_step


def softmax(logits):
    """In float64, as the model's softmax is, whatever the logits' dtype."""
    logits = np.asarray(logits, np.float64)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class AtFloat64:
    """Base of a test class whose models are float64: ``init_model`` and
    ``LstmModel`` build them in ``seqmodel.DTYPE``, set here for each test.
    A subclass that sets ``DTYPE = np.float32`` runs the same checks on
    float32 models."""

    DTYPE = np.float64

    @pytest.fixture(autouse=True)
    def _model_dtype(self, monkeypatch):
        monkeypatch.setattr(seqmodel, "DTYPE", self.DTYPE)


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
    assert vector.dtype == seqmodel.DTYPE and vector.flags.c_contiguous
    offset = 0
    for name, p in model.params():
        assert np.shares_memory(p, vector), name
        assert p.flags.writeable, name
        assert p.ctypes.data == vector.ctypes.data + offset * vector.itemsize, name
        offset += p.size
    assert offset == vector.size


class TestLayout(AtFloat64):
    @pytest.mark.parametrize("source", ["init", "load"])
    def test_params_tile_one_vector(self, tmp_path, source):
        model = init_model(tiny_config())
        if source == "load":
            save_model(model, tmp_path / "m.model")
            model = load_model(tmp_path / "m.model")
        assert_layout(model)


class TestLayoutFloat32(TestLayout):
    DTYPE = np.float32


class TestPinnedBits:
    # sha256 of save_model bytes: INIT and TRAINED recorded when the model
    # dtype became float32 (container format 2, which records the dtype);
    # trained bits depend on the BLAS build (these are sgemm bits of numpy
    # 2.4.6 with OpenBLAS 0.3.31 on x86-64)
    INIT = "462685a5ddc8b58b26c2cf163b4b493c2bf5814795af26741b53c29e34f35fd4"
    TRAINED = "11196e0eb96d734fcdd60386b2950fb9365de891612443b8f6763e0554c10131"

    def test_container_digests(self, tmp_path):
        def digest(model):
            save_model(model, tmp_path / "m.model")
            return hashlib.sha256((tmp_path / "m.model").read_bytes()).hexdigest()

        model = init_model(tiny_config())
        assert digest(model) == self.INIT
        train_model(model, substream(5, "corpus").integers(0, 5, 200))
        assert digest(model) == self.TRAINED

    # repr of perplexity(...).total_bits, recorded with INIT and TRAINED
    EVAL_BITS = {
        ("init", 64): "469.02927465798376",
        ("init", 3): "469.02927465798376",
        ("trained", 64): "667.2239303276563",
        ("trained", 3): "667.2239303276563",
    }

    def test_eval_bits(self):
        assert self.eval_bits(init_model(tiny_config())) == self.EVAL_BITS

    # The float64 path: sha256 of the parameter vector's bytes, and the eval
    # bits, of a float64 model from the un-rounded init draws.  Recorded
    # while float64 was the only dtype (with the one-tanh gates and layer
    # 0's gradients through the token table), so they pin that float64
    # models still train and evaluate bit for bit as they did.  The init
    # model's two batch sizes differ in the last bit, so a change of
    # grouping or summation order shows.
    FLOAT64_INIT = "91370a166f66d75671c88163e664553bedd21cbae0e43a32dcb192d980a03957"
    FLOAT64_TRAINED = "f7ff8566e5a194fe5148d53e59030ced568faa8e6a8a35da4081a4a373756d7a"
    FLOAT64_EVAL_BITS = {
        ("init", 64): "469.02927465792766",
        ("init", 3): "469.0292746579278",
        ("trained", 64): "667.2239750939153",
        ("trained", 3): "667.2239750939153",
    }

    def test_float64_path(self, monkeypatch):
        monkeypatch.setattr(seqmodel, "DTYPE", np.float64)
        model = init_model(tiny_config())
        assert hashlib.sha256(model.vector.tobytes()).hexdigest() == self.FLOAT64_INIT
        assert self.eval_bits(model) == self.FLOAT64_EVAL_BITS
        assert hashlib.sha256(model.vector.tobytes()).hexdigest() == self.FLOAT64_TRAINED

    @staticmethod
    def eval_bits(model):
        """EVAL_BITS of ``model``, which is left trained."""
        rng = substream(9, "eval")
        seqs = [rng.integers(0, 5, rng.integers(1, 12)) for _ in range(40)]
        bits = {}
        for state in ("init", "trained"):
            if state == "trained":
                train_model(model, substream(5, "corpus").integers(0, 5, 200))
            for batch in (64, 3):
                bits[state, batch] = repr(perplexity(model, seqs, eval_batch=batch).total_bits)
        return bits


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
        record_bytes = config.layers * B * T * (H + 7 * H) * model.vector.itemsize
        tracemalloc.start()
        try:
            perplexity(model, seqs, eval_batch=B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < record_bytes / 2

    def test_eval_builds_no_gate_buffer(self):
        # one (B, T, 4H) float32 array is 2.62 MB here (5.24 MB in
        # float64); a layer-major forward builds one per layer
        B, T, H = 64, 40, 64
        config = ModelConfig(vocab_size=5, embed_dim=H, hidden_dim=H, seed=3)
        model = init_model(config)
        seqs = list(substream(11, "eval").integers(0, 5, (B, T)))
        tracemalloc.start()
        try:
            perplexity(model, seqs, eval_batch=B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < B * T * 4 * H * model.vector.itemsize

    def test_rejects_bad_ids(self):
        model = init_model(tiny_config())
        with pytest.raises(ValueError):
            forward(model, np.array([[0, 5]]))
        with pytest.raises(ValueError):
            forward(model, np.array([0, 1]))


def layer_major_forward(model, ids, state):
    """Logits and carried (h, c) computed one whole layer at a time, with
    the layer's input product for every step as one matrix product, in the
    model's dtype."""
    B, T = ids.shape
    H = model.config.hidden_dim
    x = model.embedding[ids]
    new_state = []
    for layer, (h, c) in zip(model.cells, state):
        xw = (x.reshape(B * T, -1) @ layer.w_x).reshape(B, T, 4 * H)
        x = np.empty((B, T, H), model.vector.dtype)
        for t in range(T):
            _, _, c, _, h = _gates(xw[:, t] + h @ layer.w_h + layer.bias, c)
            x[:, t] = h
        new_state.append((h, c))
    logits = x.reshape(B * T, -1) @ model.proj + model.proj_bias
    return logits.reshape(B, T, -1), new_state


FULL_ARENAS = [
    (order, width)
    for order in ExperimentSpec.full().orders
    for width in ExperimentSpec.widths
]


class TestStepMajorBits(AtFloat64):
    # The step-major forward takes layer 0's input term from a row of
    # embedding @ w_x and a deeper layer's per step, where a layer-major
    # forward multiplies all B*T rows at once.  The bits agree only while a
    # row of a BLAS product does not depend on the other rows in the call.
    @pytest.mark.parametrize("hidden", [128, 200])
    @pytest.mark.parametrize("order, width", FULL_ARENAS)
    def test_matches_layer_major_reference(self, order, width, hidden):
        V = len(Vocab(make_arena(uniform_tree(order, width))))
        config = ModelConfig(vocab_size=V, embed_dim=hidden, hidden_dim=hidden,
                             seed=order * 10 + width)
        model = init_model(config)
        rng = substream(config.seed, "ids")
        for B, T in ((20, 20), (64, 50)):
            zeros = np.zeros((B, hidden), self.DTYPE)
            state = [(zeros, zeros)] * config.layers
            # a cold window, then one from the carried state
            for _ in range(2):
                ids = rng.integers(0, V, (B, T))
                logits, new_state = forward(model, ids, state)
                want, want_state = layer_major_forward(model, ids, state)
                assert np.array_equal(logits, want), (B, T)
                for (h, c), (wh, wc) in zip(new_state, want_state):
                    assert np.array_equal(h, wh) and np.array_equal(c, wc), (B, T)
                state = new_state


class TestStepMajorBitsFloat32(TestStepMajorBits):
    DTYPE = np.float32


class TestScatterRows(AtFloat64):
    # the reference adds the rows in float64, as bincount does, and rounds
    # the sums to the rows' dtype
    @pytest.mark.parametrize("V, N, D", [(5, 40, 4), (63, 400, 128), (313, 3200, 8)])
    def test_matches_add_at(self, V, N, D):
        rng = substream(V, "scatter")
        for ids in (rng.integers(0, V, N), rng.integers(0, 3, N), np.zeros(N, np.int64)):
            rows = rng.standard_normal((N, D)).astype(self.DTYPE)
            want = np.zeros((V, D))
            np.add.at(want, ids, rows)
            got = _scatter_rows(ids, rows, V)
            assert got.dtype == self.DTYPE
            assert np.array_equal(got, want.astype(self.DTYPE))


class TestScatterRowsFloat32(TestScatterRows):
    DTYPE = np.float32


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
        # in float64, where a 1e-5 central difference is meaningful
        config = ModelConfig(
            vocab_size=3, embed_dim=3, hidden_dim=4, layers=2,
            unroll=3, batch=2, epochs=1, seed=seed,
        )
        model = LstmModel(config, init_model(config).vector.astype(np.float64))
        rng = substream(seed, "data")
        ids = rng.integers(0, 3, (2, 3))
        targets = rng.integers(0, 3, (2, 3))
        grads = backward(model, ids, targets)
        numeric = numeric_gradients(model, ids, targets)
        for (name, g), n in zip(grads.params(), numeric):
            err = np.abs(g - n).max() / max(np.abs(n).max(), 1e-8)
            assert err <= 1e-4, f"{name}: rel err {err}"

    @pytest.mark.parametrize("seed", [3, 11])
    def test_float32_agrees_with_float64(self, seed):
        # the same float32-representable parameters in both dtypes: each
        # float32 gradient array is within 1e-5 of the float64 one, relative
        # in L2 norm (float32 rounds at 6e-8)
        config = ModelConfig(vocab_size=9, embed_dim=32, hidden_dim=32, layers=2,
                             unroll=10, batch=4, epochs=1, seed=seed)
        narrow = init_model(config)
        wide = LstmModel(config, narrow.vector.astype(np.float64))
        rng = substream(seed, "data")
        ids, targets = rng.integers(0, 9, (4, 10)), rng.integers(0, 9, (4, 10))
        got, want = backward(narrow, ids, targets), backward(wide, ids, targets)
        assert got.vector.dtype == np.float32 and want.vector.dtype == np.float64
        for (name, g), (_, w) in zip(got.params(), want.params()):
            err = np.linalg.norm(g - w) / np.linalg.norm(w)
            assert err <= 1e-5, f"{name}: rel err {err}"

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


class TestClip(AtFloat64):
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

    def test_huge_float32_gradient_clips(self):
        # 1e20 squares to inf in float32, and a scale of 5/inf would zero
        # the whole update
        n = LstmModel(tiny_config()).param_count()
        grads = LstmModel(tiny_config(), np.zeros(n, np.float32))
        grads.vector[3], grads.vector[7] = 1e20, -2.0
        assert clip_gradients(grads, MAX_GRAD_NORM) == pytest.approx(1e20, rel=1e-7)
        norm = math.sqrt(float(np.square(grads.vector, dtype=np.float64).sum()))
        assert norm == pytest.approx(MAX_GRAD_NORM, rel=1e-6)
        assert grads.vector[3] == pytest.approx(MAX_GRAD_NORM, rel=1e-6)


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


class TestPerplexity(AtFloat64):
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


class TestPlayByPlayFloat32(AtFloat64):
    DTYPE = np.float32
    test_matches_play_by_play_reference = TestPerplexity.test_matches_play_by_play_reference


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_records_dtype_and_arena(self, tmp_path, dtype):
        config = tiny_config()
        model = LstmModel(config, init_model(config).vector.astype(dtype), arena="unit -> unit")
        path = tmp_path / "m.model"
        save_model(model, path)
        data = path.read_bytes()
        assert int.from_bytes(data[4:8], "little") == seqmodel.FORMAT_VERSION == 2
        recorded, end = config_block(data)
        assert (recorded["dtype"], recorded["arena"]) == (np.dtype(dtype).name, "unit -> unit")
        assert len(data) == end + model.param_count() * np.dtype(dtype).itemsize + 32
        back = load_model(path)
        assert back.vector.dtype == dtype and back.arena == "unit -> unit"
        assert np.array_equal(back.vector, model.vector)

    def test_loads_version_1_as_float64(self, tmp_path):
        model = init_model(tiny_config())
        path = tmp_path / "m.model"
        path.write_bytes(version1_container(model))
        back = load_model(path)
        assert back.config == model.config and back.arena is None
        assert back.vector.dtype == np.float64
        assert np.array_equal(back.vector, model.vector.astype(np.float64))

    @pytest.mark.parametrize("fields, message", [
        ({"dtype": "float16"}, "dtype must be float32 or float64, got 'float16'"),
        ({"dtype": None}, "dtype must be float32 or float64, got None"),
        ({"arena": 7}, "arena must be a type expression, got 7"),
    ])
    def test_rejects_bad_stored_fields(self, tmp_path, fields, message):
        path = tmp_path / "m.model"
        save_model(init_model(tiny_config()), path)
        rewrite_config(path, **fields)
        with pytest.raises(ModelFormatError, match=re.escape(f"bad config block: {message}")):
            load_model(path)

    @pytest.mark.parametrize("field, value", [("embed_dim", 4.0), ("layers", True)])
    def test_rejects_a_non_integer_config(self, tmp_path, field, value):
        path = tmp_path / "m.model"
        save_model(init_model(tiny_config()), path)
        rewrite_config(path, **{field: value})
        with pytest.raises(ModelFormatError, match=f"bad config block: {field} must be an integer"):
            load_model(path)

    @pytest.mark.parametrize("layers", [3, 10**6, 10**9])
    def test_rejects_a_layer_count_the_payload_cannot_hold(self, tmp_path, monkeypatch, layers):
        path = tmp_path / "m.model"
        save_model(init_model(tiny_config()), path)
        rewrite_config(path, layers=layers)
        real, calls = seqmodel._layout, []

        def bounded(config):
            # a layout of millions of layers takes seconds to minutes to build
            calls.append(config.layers)
            if config.layers > 1000:
                raise AssertionError(f"built the layout of {config.layers} layers")
            return real(config)

        monkeypatch.setattr(seqmodel, "_layout", bounded)
        with pytest.raises(ModelFormatError, match="parameter block shorter than config implies"):
            load_model(path)
        assert calls == ([] if layers > 1000 else [3])

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


def reference_backward(model, ids, targets, state):
    """Every gradient of loss_bits over the window, written out directly:
    layer 0's input is the matrix embedding[ids], each w_x gradient is
    X.T @ dz over the window's B*T rows, and the embedding gradient adds
    the input gradient's rows by token with np.add.at.  All in the model's
    dtype, but for the softmax and its gradient, which are float64."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    B, T = ids.shape
    H, V = model.config.hidden_dim, model.config.vocab_size
    dtype = model.vector.dtype
    xs, saved = [model.embedding[ids]], []
    for layer, (h, c) in zip(model.cells, state):
        x = xs[-1]
        hs, cs = np.empty((B, T, H), dtype), np.empty((B, T, H), dtype)
        gates = np.empty((B, T, 4, H), dtype)
        for t in range(T):
            z = (x[:, t] @ layer.w_x + h @ layer.w_h + layer.bias).reshape(B, 4, H)
            i, f, o, g = sig(z[:, 0]), sig(z[:, 1]), sig(z[:, 2]), np.tanh(z[:, 3])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs[:, t], cs[:, t], gates[:, t] = h, c, np.stack([i, f, o, g], axis=1)
        saved.append((h, c, hs, cs, gates))
        xs.append(hs)
    top = xs[-1].reshape(B * T, H)
    logits = (top @ model.proj + model.proj_bias).astype(np.float64)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(B * T), np.asarray(targets).reshape(-1)] -= 1.0
    dlogits = (p / math.log(2.0)).astype(dtype)
    grads = LstmModel(model.config, np.zeros_like(model.vector))
    grads.proj[...] = top.T @ dlogits
    grads.proj_bias[...] = dlogits.sum(axis=0)
    d_out = (dlogits @ model.proj.T).reshape(B, T, H)
    for l in reversed(range(model.config.layers)):
        layer, (h0, c0) = model.cells[l], state[l]
        _, _, hs, cs, gates = saved[l]
        dz = np.empty((B, T, 4 * H), dtype)
        dh, dc = np.zeros((B, H), dtype), np.zeros((B, H), dtype)
        for t in reversed(range(T)):
            i, f, o, g = (gates[:, t, k] for k in range(4))
            cprev = cs[:, t - 1] if t else c0
            dh = dh + d_out[:, t]
            tc = np.tanh(cs[:, t])
            dc = dc + dh * o * (1 - tc**2)
            dz[:, t] = np.concatenate([dc * g * i * (1 - i), dc * cprev * f * (1 - f),
                                       dh * tc * o * (1 - o), dc * i * (1 - g**2)], axis=1)
            dh = dz[:, t] @ layer.w_h.T
            dc = dc * f
        dz = dz.reshape(B * T, 4 * H)
        X = xs[l].reshape(B * T, -1)
        hprev = np.concatenate([h0[:, None], hs[:, :-1]], axis=1).reshape(B * T, H)
        grads.cells[l].w_x[...] = X.T @ dz
        grads.cells[l].w_h[...] = hprev.T @ dz
        grads.cells[l].bias[...] = dz.sum(axis=0)
        d_out = (dz @ layer.w_x.T).reshape(B, T, -1)
    np.add.at(grads.embedding, ids.reshape(-1), d_out.reshape(B * T, -1))
    return grads


class TestTableGradients(AtFloat64):
    # Layer 0's w_x and embedding gradients go through the per-token sums
    # of its dz rows (the transpose of the forward's embedding @ w_x table),
    # not through embedding[ids]; they agree with the direct products up to
    # summation order, within TOLERANCE of each array's largest entry.
    TOLERANCE = 1e-12
    @pytest.mark.parametrize("case", ["absent", "repeated", "one_row", "h200", "carried"])
    def test_matches_reference_backward(self, case):
        V, H, B, T = 9, 4, 3, 5
        if case == "h200":
            V, H, B, T = 40, 200, 20, 20
        if case == "one_row":
            B = 1
        config = ModelConfig(vocab_size=V, embed_dim=H, hidden_dim=H, seed=len(case))
        model = init_model(config)
        rng = substream(config.seed, "table")
        ids = rng.integers(0, V, (B, T))
        if case == "absent":
            ids = rng.integers(0, 4, (B, T))  # tokens 4..8 never occur
        if case == "repeated":
            ids = np.full((B, T), 2)
        targets = rng.integers(0, V, (B, T))
        zeros = np.zeros((B, H), self.DTYPE)
        state = [(zeros, zeros)] * config.layers
        if case == "carried":
            _, state = forward(model, rng.integers(0, V, (B, T)))
        got = backward(model, ids, targets, state)
        want = reference_backward(model, ids, targets, state)
        for (name, g), (_, w) in zip(got.params(), want.params()):
            assert np.abs(g - w).max() <= self.TOLERANCE * np.abs(w).max(), name
        absent = np.setdiff1d(np.arange(V), ids)
        assert not got.embedding[absent].any()
        assert case != "absent" or absent.size == V - 4


class TestTableGradientsFloat32(TestTableGradients):
    DTYPE = np.float32
    # 1e-12 is about 4,500 float64 ulps (2.2e-16); this is about 84 float32
    # ulps (1.2e-7), and the worst case here measured 7.4
    TOLERANCE = 1e-5


def padded_groups(seqs, eval_batch):
    """(inputs, targets, mask, lengths) of each eval batch, padded to its
    longest play, in perplexity's canonical order."""
    order = sorted(range(len(seqs)), key=lambda k: (len(seqs[k]), list(seqs[k])))
    for lo in range(0, len(order), eval_batch):
        group = [seqs[k] for k in order[lo : lo + eval_batch]]
        T = max(len(s) for s in group)
        x = np.zeros((len(group), T), np.int64)
        y = np.zeros((len(group), T), np.int64)
        mask = np.zeros((len(group), T), bool)
        for r, s in enumerate(group):
            x[r, 1 : len(s)] = s[:-1]
            y[r, : len(s)] = s
            mask[r, : len(s)] = True
        yield x, y, mask, np.array([len(s) for s in group])


def padded_perplexity(model, seqs, eval_batch):
    """(total bits, token count) with every batch run over all its padded
    positions: forward over the whole (B, T) grid, then the masked loss."""
    total_bits, total_count = 0.0, 0
    for x, y, mask, _ in padded_groups(seqs, eval_batch):
        bits, count = loss_bits(forward(model, x)[0], y, mask)
        total_bits += bits
        total_count += count
    return total_bits, total_count


def eval_case(corpus, hidden):
    """A model and an eval corpus: a trained small model or an untrained
    hidden-128 one, and plays of mixed lengths, plays where the longest
    runs on for many steps after all the others end, or one play."""
    config = ModelConfig(vocab_size=7, embed_dim=hidden, hidden_dim=hidden,
                         unroll=5, batch=4, epochs=2, seed=5)
    model = init_model(config)
    rng = substream(hidden, "live")
    if hidden == 4:
        train_model(model, rng.integers(0, 7, 300))
    if corpus == "mixed":
        seqs = [rng.integers(0, 7, rng.integers(1, 12)) for _ in range(40)]
    elif corpus == "one_long":
        seqs = [rng.integers(0, 7, rng.integers(1, 5)) for _ in range(9)]
        seqs.append(rng.integers(0, 7, 30))
    else:
        seqs = [rng.integers(0, 7, 13)]
    return model, seqs


class TestLiveRowEval(AtFloat64):
    # perplexity steps only the rows whose play is still going (never fewer
    # than two); its bits equal those of a forward over every padded position
    @pytest.mark.parametrize("hidden", [4, 128])
    @pytest.mark.parametrize("corpus", ["mixed", "one_long", "one_play"])
    def test_matches_full_padding(self, corpus, hidden):
        model, seqs = eval_case(corpus, hidden)
        for batch in (64, 3, 2, 1):
            got = perplexity(model, seqs, eval_batch=batch)
            want_bits, want_count = padded_perplexity(model, seqs, batch)
            assert got.token_count == want_count
            assert repr(got.total_bits) == repr(want_bits), batch

    @pytest.mark.parametrize("hidden", [4, 128])
    @pytest.mark.parametrize("corpus", ["mixed", "one_long", "one_play"])
    def test_keeps_every_live_logit(self, corpus, hidden):
        # a total of bits can hide a last-bit change in one logit; compare
        # every unmasked logit of the live-row forward with the full one
        model, seqs = eval_case(corpus, hidden)
        for batch in (64, 3, 2, 1):
            for x, _, mask, lengths in padded_groups(seqs, batch):
                live, _, _ = _forward(model, x, None, keep=False, lengths=lengths)
                assert np.array_equal(live[mask], forward(model, x)[0][mask]), batch


class TestLiveRowEvalFloat32(TestLiveRowEval):
    DTYPE = np.float32
