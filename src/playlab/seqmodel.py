"""A from-scratch LSTM language model over move tokens.

Two stacked LSTM layers by default, trained by truncated backpropagation
through time with plain SGD and gradient clipping, evaluated in bits per
token (perplexity is 2 to the mean bits).  Everything is float64 numpy:
the models are small, so precision is cheap and finite-difference gradient
checks are meaningful.

Shape conventions: batch B, window T, vocab V, embed D, hidden H.  Gate
pre-activations are packed along the last axis as [input, forget, output,
candidate], so the sigmoid gates occupy the first 3H columns.  Token id 0
is the end-of-play marker and doubles as the start-of-sequence input when
evaluating a play from a cold state.

Parameter layout: every parameter lives in one contiguous float64
``LstmModel.vector``.  The named arrays (``embedding``, each
``cells[l].w_x``, ``w_h``, ``bias``, then ``proj`` and ``proj_bias``) are
reshaped views into it, with no gap, in the order of the one name/shape
table ``_layout``.  Gradients mirror it: ``backward`` returns an
``LstmModel`` over a gradient vector, so clip scaling, the SGD step and
the finite check are each one vector operation.  The container payload
is the vector's bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .fileio import write_atomic
from .rng import substream

LN2 = math.log(2.0)

MAGIC = b"PLLM"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised on unreadable model containers (bad magic, version, checksum)."""


# the fixed training recipe of Zaremba et al. (2014)
MAX_GRAD_NORM = 5.0  # global L2 norm each window's gradients are clipped to
INIT_SCALE = 0.1  # weights start uniform on [-INIT_SCALE, INIT_SCALE]


def learning_rate(epoch: int) -> float:
    """Rate 1.0 for the first four epochs (1-based), then halved every epoch."""
    return 1.0 if epoch <= 4 else 2.0 ** (4 - epoch)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 200
    hidden_dim: int = 200
    layers: int = 2
    unroll: int = 20
    batch: int = 20
    epochs: int = 13
    seed: int = 0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def to_json(self) -> str:
        """The fields plus the fixed recipe, so a container records how its
        model was trained."""
        return json.dumps(dict(
            asdict(self),
            lr_schedule=[learning_rate(e) for e in range(1, self.epochs + 1)],
            max_grad_norm=MAX_GRAD_NORM,
            init_scale=INIT_SCALE,
        ), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        """The fields; the recorded recipe is skipped, so containers written
        while the recipe was settable still load."""
        fields = json.loads(text)
        for key in ("lr_schedule", "max_grad_norm", "init_scale"):
            fields.pop(key, None)
        return cls(**fields)


@dataclass
class LayerParams:
    """One LSTM layer's weights, or their gradients."""

    w_x: np.ndarray  # (in_dim, 4H)
    w_h: np.ndarray  # (H, 4H)
    bias: np.ndarray  # (4H,); the forget block is bias[H:2H]


class LstmModel:
    """Parameters (or gradients) as named views into one float64 ``vector``."""

    def __init__(self, config: ModelConfig, vector: np.ndarray | None = None):
        layout = _layout(config)
        size = sum(math.prod(shape) for _, shape in layout)
        vector = np.zeros(size) if vector is None else vector
        if vector.shape != (size,) or vector.dtype != np.float64 or not vector.flags.c_contiguous:
            raise ValueError(f"expected a contiguous float64 vector of {size} parameters")
        self.config, self.vector = config, vector
        self._params, offset = [], 0
        for name, shape in layout:
            n = math.prod(shape)
            self._params.append((name, vector[offset : offset + n].reshape(shape)))
            offset += n
        p = dict(self._params)
        self.embedding = p["embedding"]  # (V, D)
        self.cells = [
            LayerParams(p[f"cell{l}.w_x"], p[f"cell{l}.w_h"], p[f"cell{l}.bias"])
            for l in range(config.layers)
        ]
        self.proj, self.proj_bias = p["proj"], p["proj_bias"]  # (H, V), (V,)

    def params(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in vector order."""
        return list(self._params)

    def param_count(self) -> int:
        return self.vector.size


def _layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Each parameter's (name, shape), in vector order."""
    V, D, H = config.vocab_size, config.embed_dim, config.hidden_dim
    layout = [("embedding", (V, D))]
    in_dim = D
    for l in range(config.layers):
        layout += [
            (f"cell{l}.w_x", (in_dim, 4 * H)),
            (f"cell{l}.w_h", (H, 4 * H)),
            (f"cell{l}.bias", (4 * H,)),
        ]
        in_dim = H
    return layout + [("proj", (H, V)), ("proj_bias", (V,))]


def init_model(config: ModelConfig) -> LstmModel:
    """Weights i.i.d. uniform on [-INIT_SCALE, INIT_SCALE] from the stream
    (seed, "init"); biases zero except forget-gate blocks at 1.0.

    Draw order is fixed (embedding, then each layer's w_x and w_h, then the
    projection) so a seed pins the model bit-for-bit.
    """
    rng = substream(config.seed, "init")
    model = LstmModel(config)
    for _, p in model.params():
        if p.ndim == 2:
            p[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, p.shape)
    H = config.hidden_dim
    for cell in model.cells:
        cell.bias[H : 2 * H] = 1.0
    return model


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) below, and never overflows;
    # the numerator is 1 where z >= 0 (ez <= 1 there) and ez below
    ez = np.exp(-np.abs(z))
    return np.maximum(ez, z >= 0) / (1.0 + ez)


def _gates(z, c):
    """Gate math from packed pre-activations z and the previous cell state:
    sigmoid gates, candidate, new cell state, its tanh, new hidden state."""
    H = z.shape[-1] // 4
    s = _sigmoid(z[..., : 3 * H])
    g = np.tanh(z[..., 3 * H :])
    c2 = s[..., H : 2 * H] * c + s[..., :H] * g
    tc = np.tanh(c2)
    return s, g, c2, tc, s[..., 2 * H : 3 * H] * tc


def step_cell(x, h, c, layer: LayerParams):
    """One LSTM cell step: gates from x and h, new cell and hidden state."""
    _, _, c2, _, h2 = _gates(x @ layer.w_x + h @ layer.w_h + layer.bias, c)
    return h2, c2


@dataclass
class _LayerRecord:
    """What one layer's forward pass keeps for backward, each value once."""

    x: np.ndarray  # (B, T, in_dim) input
    h0: np.ndarray  # (B, H) initial hidden state
    c0: np.ndarray  # (B, H) initial cell state
    hs: np.ndarray  # (B, T, H) hidden states, also the layer's output
    cs: np.ndarray  # (B, T, H) cell states
    acts: np.ndarray  # (B, T, 4H) gate activations, packed [i f o g]
    tc: np.ndarray  # (B, T, H) tanh of the cell states


def _forward_layer(layer: LayerParams, x, h0, c0, keep: bool):
    """The layer's hidden states (the next layer's input), its backward
    record if ``keep`` (else None), and its last (h, c)."""
    B, T, _ = x.shape
    H = layer.w_h.shape[0]
    xw = (x.reshape(B * T, -1) @ layer.w_x).reshape(B, T, 4 * H)
    hs = np.empty((B, T, H))
    rec = None
    if keep:
        rec = _LayerRecord(x, h0, c0, hs, *(np.empty((B, T, n)) for n in (H, 4 * H, H)))
    h, c = h0, c0
    for t in range(T):
        s, g, c, tc, h = _gates(xw[:, t] + h @ layer.w_h + layer.bias, c)
        hs[:, t] = h
        if keep:
            rec.acts[:, t, : 3 * H] = s
            rec.acts[:, t, 3 * H :] = g
            rec.cs[:, t], rec.tc[:, t] = c, tc
    return hs, rec, (h, c)


def _forward(model: LstmModel, ids, state, keep: bool):
    """Logits, the carried state, and (per-layer records, ids); the records
    are None unless ``keep``, which only a window that runs backward needs."""
    config = model.config
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"expected a batch x steps id matrix, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise ValueError("token id out of range")
    B, T = ids.shape
    if state is None:
        H = config.hidden_dim
        state = [(np.zeros((B, H)), np.zeros((B, H))) for _ in range(config.layers)]
    x = model.embedding[ids]
    records = []
    new_state = []
    for layer, (h0, c0) in zip(model.cells, state):
        x, rec, hc = _forward_layer(layer, x, h0, c0, keep)
        records.append(rec)
        new_state.append(hc)
    logits = (x.reshape(B * T, -1) @ model.proj + model.proj_bias).reshape(
        B, T, config.vocab_size
    )
    return logits, new_state, (records, ids)


def forward(model: LstmModel, ids, state=None):
    """Logits for each position plus the carried (h, c) per layer.

    ``state=None`` starts from zeros; passing the returned state makes
    consecutive windows behave like one long unrolled sequence.  Only each
    layer's hidden states are kept, not what backward would need.
    """
    logits, new_state, _ = _forward(model, ids, state, keep=False)
    return logits, new_state


def _log_sum_exp(flat):
    """Row-wise log of the softmax normaliser of a (N, V) logit matrix."""
    m = flat.max(axis=1)
    return m + np.log(np.exp(flat - m[:, None]).sum(axis=1))


def loss_bits(logits, targets, mask=None):
    """Total cross-entropy in bits over the window and the token count."""
    V = logits.shape[-1]
    flat = logits.reshape(-1, V)
    tg = np.asarray(targets, dtype=np.int64).reshape(-1)
    nll = _log_sum_exp(flat) - flat[np.arange(flat.shape[0]), tg]
    if mask is not None:
        w = np.asarray(mask, dtype=bool).reshape(-1)
        return float(nll[w].sum() / LN2), int(w.sum())
    return float(nll.sum() / LN2), int(tg.size)


def _backward_layer(layer: LayerParams, rec: _LayerRecord, dhs, grad: LayerParams):
    """Writes the layer's gradients into ``grad``; returns the input gradient."""
    B, T, H = dhs.shape
    dz = np.empty((B, T, 4 * H))
    dh = np.zeros((B, H))
    dc = np.zeros((B, H))
    for t in reversed(range(T)):
        dh = dh + dhs[:, t]
        a, tc = rec.acts[:, t], rec.tc[:, t]
        i, f, o, g = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
        cprev = rec.cs[:, t - 1] if t else rec.c0
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc**2)
        dz[:, t, :H] = dc * g * i * (1.0 - i)
        dz[:, t, H : 2 * H] = dc * cprev * f * (1.0 - f)
        dz[:, t, 2 * H : 3 * H] = do * o * (1.0 - o)
        dz[:, t, 3 * H :] = dc * i * (1.0 - g**2)
        dh = dz[:, t] @ layer.w_h.T
        dc = dc * f
    dz_flat = dz.reshape(B * T, 4 * H)
    # h_{t-1} of every step as one matrix, so w_h's gradient is one product
    hprev = np.concatenate((rec.h0[:, None], rec.hs[:, :-1]), axis=1)
    np.matmul(rec.x.reshape(B * T, -1).T, dz_flat, out=grad.w_x)
    np.matmul(hprev.reshape(B * T, H).T, dz_flat, out=grad.w_h)
    np.sum(dz_flat, axis=0, out=grad.bias)
    return (dz_flat @ layer.w_x.T).reshape(B, T, -1)


def _step(model: LstmModel, ids, targets, state):
    """Forward + backward over one window; loss is truncated at the
    incoming state (no gradient flows into it)."""
    logits, new_state, (records, ids_arr) = _forward(model, ids, state, keep=True)
    B, T, V = logits.shape
    flat = logits.reshape(B * T, V)
    tg = np.asarray(targets, dtype=np.int64).reshape(-1)
    lse = _log_sum_exp(flat)
    rows = np.arange(flat.shape[0])
    bits = float((lse - flat[rows, tg]).sum() / LN2)
    dflat = np.exp(flat - lse[:, None])
    dflat[rows, tg] -= 1.0
    dflat /= LN2
    # every view but the embedding is written in full below
    grads = LstmModel(model.config, np.empty_like(model.vector))
    top = records[-1].hs.reshape(B * T, -1)
    np.matmul(top.T, dflat, out=grads.proj)
    np.sum(dflat, axis=0, out=grads.proj_bias)
    d_out = (dflat @ model.proj.T).reshape(B, T, -1)
    for l in reversed(range(len(model.cells))):
        d_out = _backward_layer(model.cells[l], records[l], d_out, grads.cells[l])
    grads.embedding.fill(0.0)
    np.add.at(grads.embedding, ids_arr.reshape(-1), d_out.reshape(B * T, -1))
    return grads, bits, tg.size, new_state


def backward(model: LstmModel, ids, targets, state=None) -> LstmModel:
    """Exact gradients of ``loss_bits`` over the unrolled window."""
    grads, _, _, _ = _step(model, ids, targets, state)
    return grads


def clip_gradients(grads: LstmModel, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm;
    returns the pre-clip norm."""
    # summed per array: one whole-vector dot product rounds differently
    total = math.sqrt(sum(float((g * g).sum()) for _, g in grads.params()))
    if total > max_norm:
        grads.vector *= max_norm / total
    return total


# divergence is reported by the finite checks in the window loop, as one
# error, not by numpy warnings from every overflowing array operation
@np.errstate(over="ignore", invalid="ignore")
def sgd_epoch(model: LstmModel, token_ids, epoch: int):
    """One SGD pass over the concatenated token stream.

    The stream is cut into ``batch`` parallel rows; windows of ``unroll``
    steps predict the next token, carrying state across windows within the
    epoch.  ``epoch`` is 1-based and selects the learning rate.  Returns
    the updated model and the perplexity after each window.
    """
    config = model.config
    if not 1 <= epoch <= config.epochs:
        raise ValueError(f"epoch must be in 1..{config.epochs}, got {epoch}")
    lr = learning_rate(epoch)
    ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
    B, U = config.batch, config.unroll
    rows = ids.size // B
    windows = (rows - 1) // U
    if windows < 1:
        raise ValueError(
            f"corpus too small: need at least {B * (U + 1)} tokens, got {ids.size}"
        )
    streams = ids[: B * rows].reshape(B, rows)
    state = None
    log = []
    for w in range(windows):
        lo = w * U
        grads, bits, count, state = _step(
            model, streams[:, lo : lo + U], streams[:, lo + 1 : lo + U + 1], state
        )
        if not math.isfinite(bits):
            raise FloatingPointError(f"non-finite loss at window {w}")
        clip_gradients(grads, MAX_GRAD_NORM)
        model.vector -= lr * grads.vector
        if not np.isfinite(model.vector).all():
            raise FloatingPointError(f"non-finite parameters after window {w}")
        try:
            log.append(2.0 ** (bits / count))
        except OverflowError:
            raise FloatingPointError(
                f"perplexity overflows at window {w} ({bits / count:.4g} bits per token)"
            ) from None
    return model, log


def train_model(model: LstmModel, token_ids, progress=None) -> list[list[float]]:
    """Run every configured epoch; returns the per-window perplexity logs."""
    logs = []
    for epoch in range(1, model.config.epochs + 1):
        model, log = sgd_epoch(model, token_ids, epoch)
        logs.append(log)
        if progress is not None:
            progress(epoch, log)
    return logs


@dataclass(frozen=True)
class Evaluation:
    token_count: int
    total_bits: float

    @property
    def perplexity(self) -> float:
        return 2.0 ** (self.total_bits / self.token_count)


def perplexity(model: LstmModel, sequences, eval_batch: int = 64) -> Evaluation:
    """Per-token perplexity with a state reset at each sequence start.

    Inputs are the sequence shifted right behind the boundary token (id 0),
    targets the sequence itself, so the end-of-play token is predicted too.
    Sequences are evaluated in canonical sorted order with padding masked
    out, which makes the result independent of corpus line order.  Each
    batch of ``eval_batch`` sequences pads to its longest one, so a large
    ``eval_batch`` also computes the masked positions.
    """
    if eval_batch < 1:
        raise ValueError(f"eval_batch must be >= 1, got {eval_batch}")
    seqs = [np.asarray(s, dtype=np.int64).reshape(-1) for s in sequences]
    if not seqs:
        raise ValueError("empty corpus")
    if any(s.size == 0 for s in seqs):
        raise ValueError("empty sequence")
    order = sorted(range(len(seqs)), key=lambda k: (seqs[k].size, seqs[k].tolist()))
    total_bits = 0.0
    total_count = 0
    for lo in range(0, len(order), eval_batch):
        group = [seqs[k] for k in order[lo : lo + eval_batch]]
        B = len(group)
        T = max(s.size for s in group)
        x = np.zeros((B, T), dtype=np.int64)
        y = np.zeros((B, T), dtype=np.int64)
        mask = np.zeros((B, T), dtype=bool)
        for r, s in enumerate(group):
            x[r, 1 : s.size] = s[:-1]
            y[r, : s.size] = s
            mask[r, : s.size] = True
        logits, _ = forward(model, x)
        bits, count = loss_bits(logits, y, mask)
        total_bits += bits
        total_count += count
    return Evaluation(total_count, total_bits)


def save_model(model: LstmModel, path) -> None:
    """Versioned container: magic, version, config JSON, the parameter
    vector, sha256 of everything before it; written atomically."""
    blob = model.config.to_json().encode("utf-8")
    payload = bytearray()
    payload += MAGIC
    payload += FORMAT_VERSION.to_bytes(4, "little")
    payload += len(blob).to_bytes(8, "little")
    payload += blob
    payload += model.vector.tobytes()
    payload += hashlib.sha256(bytes(payload)).digest()
    write_atomic(path, payload)


def load_model(path) -> LstmModel:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 48 or data[:4] != MAGIC:
        raise ModelFormatError("not a model container")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ModelFormatError("checksum mismatch (corrupt or truncated file)")
    version = int.from_bytes(body[4:8], "little")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    blob_len = int.from_bytes(body[8:16], "little")
    offset = 16 + blob_len
    try:
        config = ModelConfig.from_json(body[16:offset].decode("utf-8"))
    except (ValueError, TypeError, AttributeError) as e:
        raise ModelFormatError(f"bad config block: {e}") from None
    n = sum(math.prod(shape) for _, shape in _layout(config))
    if offset + 8 * n > len(body):
        raise ModelFormatError("parameter block shorter than config implies")
    if offset + 8 * n != len(body):
        raise ModelFormatError("trailing bytes after parameter block")
    return LstmModel(config, np.frombuffer(body, np.float64, n, offset).copy())
