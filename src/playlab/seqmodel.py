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


def default_lr_schedule(epochs: int) -> tuple[float, ...]:
    """Rate 1.0 for the first four epochs, then halved every epoch."""
    return tuple(1.0 if e <= 4 else 2.0 ** (4 - e) for e in range(1, epochs + 1))


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 200
    hidden_dim: int = 200
    layers: int = 2
    unroll: int = 20
    batch: int = 20
    epochs: int = 13
    lr_schedule: tuple[float, ...] = ()
    max_grad_norm: float = 5.0
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim", "layers", "unroll", "batch", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        if self.init_scale < 0:
            raise ValueError("init_scale must be nonnegative")
        schedule = tuple(float(r) for r in self.lr_schedule)
        if not schedule:
            schedule = default_lr_schedule(self.epochs)
        if len(schedule) != self.epochs:
            raise ValueError("lr_schedule must have one rate per epoch")
        object.__setattr__(self, "lr_schedule", schedule)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls(**json.loads(text))


@dataclass
class LayerParams:
    """One LSTM layer; also reused as the gradient holder for that layer."""

    w_x: np.ndarray  # (in_dim, 4H)
    w_h: np.ndarray  # (H, 4H)
    bias: np.ndarray  # (4H,); the forget block is bias[H:2H]


@dataclass
class LstmModel:
    config: ModelConfig
    embedding: np.ndarray  # (V, D)
    cells: list[LayerParams]
    proj: np.ndarray  # (H, V)
    proj_bias: np.ndarray  # (V,)

    def params(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in serialization order."""
        out = [("embedding", self.embedding)]
        for l, cell in enumerate(self.cells):
            out.append((f"cell{l}.w_x", cell.w_x))
            out.append((f"cell{l}.w_h", cell.w_h))
            out.append((f"cell{l}.bias", cell.bias))
        out.append(("proj", self.proj))
        out.append(("proj_bias", self.proj_bias))
        return out

    def param_count(self) -> int:
        return sum(p.size for _, p in self.params())

    def copy(self) -> "LstmModel":
        return _assemble(self.config, [p.copy() for _, p in self.params()])


@dataclass
class Gradients:
    embedding: np.ndarray
    cells: list[LayerParams]
    proj: np.ndarray
    proj_bias: np.ndarray

    params = LstmModel.params  # same traversal order


def _param_shapes(config: ModelConfig) -> list[tuple[int, ...]]:
    V, D, H = config.vocab_size, config.embed_dim, config.hidden_dim
    shapes = [(V, D)]
    in_dim = D
    for _ in range(config.layers):
        shapes += [(in_dim, 4 * H), (H, 4 * H), (4 * H,)]
        in_dim = H
    shapes += [(H, V), (V,)]
    return shapes


def _assemble(config: ModelConfig, arrays) -> LstmModel:
    it = iter(arrays)
    embedding = next(it)
    cells = [LayerParams(next(it), next(it), next(it)) for _ in range(config.layers)]
    return LstmModel(config, embedding, cells, next(it), next(it))


def init_model(config: ModelConfig) -> LstmModel:
    """Weights i.i.d. uniform on [-init_scale, init_scale] from the stream
    (seed, "init"); biases zero except forget-gate blocks at 1.0.

    Draw order is fixed (embedding, then each layer's w_x and w_h, then the
    projection) so a seed pins the model bit-for-bit.
    """
    rng = substream(config.seed, "init")
    s = config.init_scale
    H = config.hidden_dim
    arrays = []
    for shape in _param_shapes(config):
        if len(shape) == 1:
            arr = np.zeros(shape)
            if shape[0] == 4 * H:
                arr[H : 2 * H] = 1.0
        else:
            arr = rng.uniform(-s, s, shape)
        arrays.append(arr)
    return _assemble(config, arrays)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def step_cell(x, h, c, layer: LayerParams):
    """One LSTM cell step: gates from x and h, new cell and hidden state."""
    H = layer.w_h.shape[0]
    z = x @ layer.w_x + h @ layer.w_h + layer.bias
    s = _sigmoid(z[..., : 3 * H])
    g = np.tanh(z[..., 3 * H :])
    c2 = s[..., H : 2 * H] * c + s[..., :H] * g
    h2 = s[..., 2 * H : 3 * H] * np.tanh(c2)
    return h2, c2


def zero_state(config: ModelConfig, batch: int):
    H = config.hidden_dim
    return [
        (np.zeros((batch, H)), np.zeros((batch, H))) for _ in range(config.layers)
    ]


def _forward_layer(layer: LayerParams, x, h0, c0):
    B, T, _ = x.shape
    H = layer.w_h.shape[0]
    xw = (x.reshape(B * T, -1) @ layer.w_x).reshape(B, T, 4 * H)
    cache = {
        "x": x,
        "hprev": np.empty((B, T, H)),
        "cprev": np.empty((B, T, H)),
        "gates": np.empty((B, T, 3 * H)),
        "g": np.empty((B, T, H)),
        "tc": np.empty((B, T, H)),
    }
    hs = np.empty((B, T, H))
    h, c = h0, c0
    for t in range(T):
        cache["hprev"][:, t] = h
        cache["cprev"][:, t] = c
        z = xw[:, t] + h @ layer.w_h + layer.bias
        s = _sigmoid(z[:, : 3 * H])
        g = np.tanh(z[:, 3 * H :])
        c = s[:, H : 2 * H] * c + s[:, :H] * g
        tc = np.tanh(c)
        h = s[:, 2 * H : 3 * H] * tc
        cache["gates"][:, t] = s
        cache["g"][:, t] = g
        cache["tc"][:, t] = tc
        hs[:, t] = h
    return hs, (h, c), cache


def _forward(model: LstmModel, ids, state):
    config = model.config
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"expected a batch x steps id matrix, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise ValueError("token id out of range")
    B, T = ids.shape
    if state is None:
        state = zero_state(config, B)
    x = model.embedding[ids]
    caches = []
    new_state = []
    for layer, (h0, c0) in zip(model.cells, state):
        x, hc, cache = _forward_layer(layer, x, h0, c0)
        caches.append(cache)
        new_state.append(hc)
    logits = (x.reshape(B * T, -1) @ model.proj + model.proj_bias).reshape(
        B, T, config.vocab_size
    )
    caches[-1]["top"] = x
    return logits, new_state, (caches, ids)


def forward(model: LstmModel, ids, state=None):
    """Logits for each position plus the carried (h, c) per layer.

    ``state=None`` starts from zeros; passing the returned state makes
    consecutive windows behave like one long unrolled sequence.
    """
    logits, new_state, _ = _forward(model, ids, state)
    return logits, new_state


def loss_bits(logits, targets, mask=None):
    """Total cross-entropy in bits over the window and the token count."""
    V = logits.shape[-1]
    flat = logits.reshape(-1, V)
    tg = np.asarray(targets, dtype=np.int64).reshape(-1)
    m = flat.max(axis=1)
    lse = m + np.log(np.exp(flat - m[:, None]).sum(axis=1))
    nll = lse - flat[np.arange(flat.shape[0]), tg]
    if mask is not None:
        w = np.asarray(mask).reshape(-1)
        return float(nll[w].sum() / LN2), int(w.sum())
    return float(nll.sum() / LN2), int(tg.size)


def _backward_layer(layer: LayerParams, cache, dhs):
    B, T, H = dhs.shape
    gates, g, tc = cache["gates"], cache["g"], cache["tc"]
    cprev = cache["cprev"]
    dz = np.empty((B, T, 4 * H))
    dh = np.zeros((B, H))
    dc = np.zeros((B, H))
    for t in reversed(range(T)):
        dh = dh + dhs[:, t]
        i = gates[:, t, :H]
        f = gates[:, t, H : 2 * H]
        o = gates[:, t, 2 * H :]
        do = dh * tc[:, t]
        dc = dc + dh * o * (1.0 - tc[:, t] ** 2)
        dz[:, t, :H] = dc * g[:, t] * i * (1.0 - i)
        dz[:, t, H : 2 * H] = dc * cprev[:, t] * f * (1.0 - f)
        dz[:, t, 2 * H : 3 * H] = do * o * (1.0 - o)
        dz[:, t, 3 * H :] = dc * i * (1.0 - g[:, t] ** 2)
        dh = dz[:, t] @ layer.w_h.T
        dc = dc * f
    dz_flat = dz.reshape(B * T, 4 * H)
    gw_x = cache["x"].reshape(B * T, -1).T @ dz_flat
    gw_h = cache["hprev"].reshape(B * T, H).T @ dz_flat
    gbias = dz_flat.sum(axis=0)
    dx = (dz_flat @ layer.w_x.T).reshape(B, T, -1)
    return dx, LayerParams(gw_x, gw_h, gbias)


def _step(model: LstmModel, ids, targets, state):
    """Forward + backward over one window; loss is truncated at the
    incoming state (no gradient flows into it)."""
    logits, new_state, (caches, ids_arr) = _forward(model, ids, state)
    B, T, V = logits.shape
    flat = logits.reshape(B * T, V)
    tg = np.asarray(targets, dtype=np.int64).reshape(-1)
    m = flat.max(axis=1)
    lse = m + np.log(np.exp(flat - m[:, None]).sum(axis=1))
    rows = np.arange(flat.shape[0])
    bits = float((lse - flat[rows, tg]).sum() / LN2)
    dflat = np.exp(flat - lse[:, None])
    dflat[rows, tg] -= 1.0
    dflat /= LN2
    top = caches[-1]["top"].reshape(B * T, -1)
    gproj = top.T @ dflat
    gproj_bias = dflat.sum(axis=0)
    d_out = (dflat @ model.proj.T).reshape(B, T, -1)
    cell_grads = [None] * len(model.cells)
    for l in range(len(model.cells) - 1, -1, -1):
        d_out, cell_grads[l] = _backward_layer(model.cells[l], caches[l], d_out)
    gemb = np.zeros_like(model.embedding)
    np.add.at(gemb, ids_arr.reshape(-1), d_out.reshape(B * T, -1))
    grads = Gradients(gemb, cell_grads, gproj, gproj_bias)
    return grads, bits, tg.size, new_state


def backward(model: LstmModel, ids, targets, state=None) -> Gradients:
    """Exact gradients of ``loss_bits`` over the unrolled window."""
    grads, _, _, _ = _step(model, ids, targets, state)
    return grads


def clip_gradients(grads: Gradients, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm;
    returns the pre-clip norm."""
    total = math.sqrt(sum(float((g * g).sum()) for _, g in grads.params()))
    if total > max_norm:
        scale = max_norm / total
        for _, g in grads.params():
            g *= scale
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
    lr = config.lr_schedule[epoch - 1]
    ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
    B, U = config.batch, config.unroll
    rows = ids.size // B
    windows = (rows - 1) // U
    if windows < 1:
        raise ValueError(
            f"corpus too small: need at least {B * (U + 1)} tokens, got {ids.size}"
        )
    streams = ids[: B * rows].reshape(B, rows)
    state = zero_state(config, B)
    log = []
    for w in range(windows):
        lo = w * U
        grads, bits, count, state = _step(
            model, streams[:, lo : lo + U], streams[:, lo + 1 : lo + U + 1], state
        )
        if not math.isfinite(bits):
            raise FloatingPointError(f"non-finite loss at window {w}")
        clip_gradients(grads, config.max_grad_norm)
        for (_, p), (_, g) in zip(model.params(), grads.params()):
            p -= lr * g
        for _, p in model.params():
            if not np.isfinite(p).all():
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
    out, which makes the result independent of corpus line order.
    """
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
    """Versioned container: magic, version, config JSON, parameter arrays
    in declared order, sha256 of everything before it; written atomically."""
    blob = model.config.to_json().encode("utf-8")
    payload = bytearray()
    payload += MAGIC
    payload += FORMAT_VERSION.to_bytes(4, "little")
    payload += len(blob).to_bytes(8, "little")
    payload += blob
    for _, p in model.params():
        payload += np.ascontiguousarray(p, dtype=np.float64).tobytes()
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
    except (ValueError, TypeError) as e:
        raise ModelFormatError(f"bad config block: {e}") from None
    arrays = []
    for shape in _param_shapes(config):
        n = int(np.prod(shape))
        if offset + 8 * n > len(body):
            raise ModelFormatError("parameter block shorter than config implies")
        arrays.append(
            np.frombuffer(body, np.float64, n, offset).reshape(shape).copy()
        )
        offset += 8 * n
    if offset != len(body):
        raise ModelFormatError("trailing bytes after parameter block")
    return _assemble(config, arrays)
