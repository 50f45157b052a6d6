"""A from-scratch LSTM language model over move tokens.

Two stacked LSTM layers by default, trained by truncated backpropagation
through time with plain SGD and gradient clipping, evaluated in bits per
token (perplexity is 2 to the mean bits).

Precision: parameters, activations and gradients are float32 (``DTYPE``).
The logits are upcast to float64 for the softmax, the loss and the
softmax gradient (``_cross_entropy`` serves ``loss_bits`` and training),
and the clip norm sums squares in float64, so bit totals and norms are
float64 sums (the wide softmax and loss of mixed-precision training,
Micikevicius et al. 2018).  Every buffer takes the dtype of
``model.vector``, so a float64 model, such as a gradient check builds or a
version-1 container holds, runs the same code in float64 throughout.

Shape conventions: batch B, window T, vocab V, embed D, hidden H.  Gate
pre-activations are packed along the last axis as [input, forget, output,
candidate], so the sigmoid gates occupy the first 3H columns.  Token id 0
is the end-of-play marker and doubles as the start-of-sequence input when
evaluating a play from a cold state.

Forward order: step-major.  Each time step runs through every layer before
the next step starts.  Layer 0's input term is row ``ids[:, t]`` of a
table ``embedding @ w_x`` (V x 4H) made once per call; a deeper layer
multiplies the hidden state just computed below it by its ``w_x``.  So no
(B, T, 4H) input product is built, and evaluation keeps only the top
layer's hidden states.  Evaluation also steps only the rows whose play is
still going (see ``perplexity``).  A training window fills batch-major
records in the same loop; backward, the projection, the loss and the
weight-gradient products take whole windows, except layer 0's two input
products, which go back through the token table: with S the per-token
sums of layer 0's pre-activation gradients, w_x's gradient is
``embedding.T @ S`` and the embedding's ``S @ w_x.T``.

Gates: sigmoid(x) is computed as tanh(x/2)/2 + 1/2, so one ``np.tanh``
covers all four packed gate blocks.

Bits: in OpenBLAS, in sgemm as in dgemm, a row of a product does not
depend on the other rows in the call.  So the step-major forward equals a
layer-major one, which multiplies all B*T rows of a layer at once, and a
step over a suffix of an eval batch's rows equals those rows of the full
batch's step.
``tests/test_seqmodel.py`` checks the first on every arena of the full
grid and the second against a forward over every padded position, each
in both dtypes; its pinned digests check the trained bits.  A one-row
product is the exception: numpy sends it to gemv, which rounds
differently from gemm, so a one-row batch (B = 1) differs and an eval
step keeps at least two rows.

Parameter layout: every parameter lives in one contiguous
``LstmModel.vector``.  The named arrays (``embedding``, each
``cells[l].w_x``, ``w_h``, ``bias``, then ``proj`` and ``proj_bias``) are
reshaped views into it, with no gap, in the order of the one name/shape
table ``_layout``.  Gradients mirror it: ``backward`` returns an
``LstmModel`` over a gradient vector, so clip scaling, the SGD step and
the finite check are each one vector operation.  ``save_model`` writes
the container and ``load_model`` reads it: the vector's bytes after a
JSON config block of the fields, the fixed recipe and, in version 2, the
payload's dtype and the model's arena.
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
FORMAT_VERSION = 2  # 1: float64 payload, no dtype or arena in the config block


class ModelFormatError(ValueError):
    """Raised on unreadable model containers (bad magic, version, checksum)."""


# the fixed training recipe of Zaremba et al. (2014)
MAX_GRAD_NORM = 5.0  # global L2 norm each window's gradients are clipped to
INIT_SCALE = 0.1  # weights start uniform on [-INIT_SCALE, INIT_SCALE]
DTYPE = np.float32  # of parameters, activations and gradients; the loss is float64


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


@dataclass
class LayerParams:
    """One LSTM layer's weights, or their gradients."""

    w_x: np.ndarray  # (in_dim, 4H)
    w_h: np.ndarray  # (H, 4H)
    bias: np.ndarray  # (4H,); the forget block is bias[H:2H]


class LstmModel:
    """Parameters (or gradients) as named views into one ``vector``: zeros of
    ``DTYPE`` unless a float32 or float64 vector is given, and every
    computation on the model runs in that vector's dtype.

    ``arena`` is the ``render_type`` of the arena the model was trained on,
    or None when unknown; the container records it (format version 2).
    """

    def __init__(self, config: ModelConfig, vector: np.ndarray | None = None,
                 arena: str | None = None):
        layout = _layout(config)
        size = sum(math.prod(shape) for _, shape in layout)
        vector = np.zeros(size, DTYPE) if vector is None else vector
        if (vector.shape != (size,) or vector.dtype not in (np.float32, np.float64)
                or not vector.flags.c_contiguous):
            raise ValueError(
                f"expected a contiguous float32 or float64 vector of {size} parameters"
            )
        self.config, self.vector, self.arena = config, vector, arena
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
    projection) so a seed pins the model bit-for-bit.  The draws are
    float64, rounded to ``DTYPE`` as they are stored.
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


def _gates(z, c):
    """Gate math from packed pre-activations z and the previous cell state:
    sigmoid gates, candidate, new cell state, its tanh, new hidden state.

    ``z`` is overwritten with the packed activations [i f o g], and the
    first two values are views into it.  One ``np.tanh`` covers all four
    blocks, because sigmoid(x) = tanh(x/2)/2 + 1/2; that form never
    overflows.
    """
    H = z.shape[-1] // 4
    s = z[..., : 3 * H]
    s *= 0.5
    np.tanh(z, out=z)
    s *= 0.5
    s += 0.5
    g = z[..., 3 * H :]
    c2 = s[..., H : 2 * H] * c + s[..., :H] * g
    tc = np.tanh(c2)
    return s, g, c2, tc, s[..., 2 * H : 3 * H] * tc


def step_cell(x, h, c, layer: LayerParams):
    """One LSTM cell step: gates from x and h, new cell and hidden state."""
    _, _, c2, _, h2 = _gates(x @ layer.w_x + h @ layer.w_h + layer.bias, c)
    return h2, c2


@dataclass
class _LayerRecord:
    """What one layer's forward pass keeps for backward, each value once.

    The step-major loop fills it one step at a time, but it stays
    batch-major, so backward's weight-gradient products each take the
    whole window as one matrix.  A deeper layer's input is the ``hs`` of
    the layer below, not a copy; layer 0's input is not kept at all, since
    its gradients go through the token table (see ``_step``).
    """

    h0: np.ndarray  # (B, H) initial hidden state
    c0: np.ndarray  # (B, H) initial cell state
    hs: np.ndarray  # (B, T, H) hidden states, also the layer's output
    cs: np.ndarray  # (B, T, H) cell states
    acts: np.ndarray  # (B, T, 4H) gate activations, packed [i f o g]
    tc: np.ndarray  # (B, T, H) tanh of the cell states


def _forward(model: LstmModel, ids, state, keep: bool, lengths=None):
    """Logits, the carried state, and (per-layer records, ids); the records
    are None unless ``keep``, which only a window that runs backward needs.
    One step-major loop serves both (see the module docstring).

    ``lengths``, for evaluation only, gives each row's play length in
    ascending order.  Step t then runs only the rows whose play is still
    going, a suffix, but never fewer than two rows (a one-row product goes
    to gemv, which rounds differently).  The other rows' hidden states stay
    zero, and the carried state returned covers only the last step's rows.
    """
    config = model.config
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"expected a batch x steps id matrix, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise ValueError("token id out of range")
    B, T = ids.shape
    H = config.hidden_dim
    dtype = model.vector.dtype
    if state is None:
        state = [(np.zeros((B, H), dtype), np.zeros((B, H), dtype)) for _ in range(config.layers)]
    # the first row each step runs; rows before it have ended
    starts = [0] * T
    if lengths is not None:
        ended = np.searchsorted(lengths, np.arange(T), side="right")
        starts = np.minimum(ended, max(B - 2, 0)).tolist()
    records = [None] * config.layers
    if keep:
        for l, (h0, c0) in enumerate(state):
            records[l] = _LayerRecord(
                h0, c0, *(np.empty((B, T, n), dtype) for n in (H, H, 4 * H, H))
            )
        top = records[-1].hs
    else:
        top = np.zeros((B, T, H), dtype)
    table = model.embedding @ model.cells[0].w_x
    h = [h0 for h0, _ in state]
    c = [c0 for _, c0 in state]
    r0 = 0
    for t in range(T):
        if starts[t] > r0:
            h = [a[starts[t] - r0 :] for a in h]
            c = [a[starts[t] - r0 :] for a in c]
            r0 = starts[t]
        xw = table[ids[r0:, t]]
        for l, (layer, rec) in enumerate(zip(model.cells, records)):
            if l:
                xw = h[l - 1] @ layer.w_x
            # in place, with the bits of xw + h @ w_h + bias
            z = h[l] @ layer.w_h
            z += xw
            z += layer.bias
            _, _, c[l], tc, h[l] = _gates(z, c[l])
            if rec is not None:
                rec.hs[:, t], rec.cs[:, t], rec.tc[:, t], rec.acts[:, t] = h[l], c[l], tc, z
        top[r0:, t] = h[-1]
    logits = (top.reshape(B * T, -1) @ model.proj + model.proj_bias).reshape(
        B, T, config.vocab_size
    )
    return logits, list(zip(h, c)), (records, ids)


def forward(model: LstmModel, ids, state=None):
    """Logits for each position plus the carried (h, c) per layer.

    ``state=None`` starts from zeros; passing the returned state makes
    consecutive windows behave like one long unrolled sequence.  Only the
    top layer's hidden states are kept, for the projection; every other
    per-step value, and what backward would need, lasts one step.
    """
    logits, new_state, _ = _forward(model, ids, state, keep=False)
    return logits, new_state


def _cross_entropy(logits, targets):
    """The softmax cross-entropy of (..., V) logits, in float64 whatever
    their dtype: the (N, V) float64 logits, each row's log normaliser, the
    (N,) targets, and each row's negative log-likelihood in nats."""
    V = logits.shape[-1]
    flat = logits.reshape(-1, V).astype(np.float64, copy=False)
    tg = np.asarray(targets, dtype=np.int64).reshape(-1)
    m = flat.max(axis=1)
    lse = m + np.log(np.exp(flat - m[:, None]).sum(axis=1))
    return flat, lse, tg, lse - flat[np.arange(flat.shape[0]), tg]


def loss_bits(logits, targets, mask=None):
    """Total cross-entropy in bits over the window and the token count,
    computed in float64 whatever the logits' dtype."""
    _, _, tg, nll = _cross_entropy(logits, targets)
    if mask is not None:
        w = np.asarray(mask, dtype=bool).reshape(-1)
        return float(nll[w].sum() / LN2), int(w.sum())
    return float(nll.sum() / LN2), int(tg.size)


def _backward_layer(layer: LayerParams, rec: _LayerRecord, dhs, grad: LayerParams):
    """Writes the layer's w_h and bias gradients into ``grad``; returns the
    (B*T, 4H) pre-activation gradients, from which the caller takes w_x's
    gradient and the input gradient."""
    B, T, H = dhs.shape
    dz = np.empty((B, T, 4 * H), dhs.dtype)
    dh = np.zeros((B, H), dhs.dtype)
    dc = np.zeros((B, H), dhs.dtype)
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
    np.matmul(hprev.reshape(B * T, H).T, dz_flat, out=grad.w_h)
    np.sum(dz_flat, axis=0, out=grad.bias)
    return dz_flat


def _scatter_rows(ids, rows, V):
    """(V, D) sums of the (N, D) ``rows`` by their (N,) token ``ids``.

    One bincount over the flat (token, column) indices.  Each sum adds its
    rows in position order starting from zero, as ``np.add.at`` into a
    float64 array does, so the bits are the same at a fraction of the
    time.  bincount sums in float64; the sums are rounded to the rows'
    dtype.
    """
    D = rows.shape[1]
    index = (ids.reshape(-1, 1) * D + np.arange(D)).reshape(-1)
    sums = np.bincount(index, rows.reshape(-1), minlength=V * D).reshape(V, D)
    return sums.astype(rows.dtype, copy=False)


def _step(model: LstmModel, ids, targets, state):
    """Forward + backward over one window; loss is truncated at the
    incoming state (no gradient flows into it)."""
    logits, new_state, (records, ids_arr) = _forward(model, ids, state, keep=True)
    B, T, V = logits.shape
    # the softmax, the loss and its gradient run in float64
    flat, lse, tg, nll = _cross_entropy(logits, targets)
    bits = float(nll.sum() / LN2)
    dflat = np.exp(flat - lse[:, None])
    dflat[np.arange(B * T), tg] -= 1.0
    dflat /= LN2
    dflat = dflat.astype(model.vector.dtype, copy=False)
    # every view is written in full below
    grads = LstmModel(model.config, np.empty_like(model.vector))
    np.matmul(records[-1].hs.reshape(B * T, -1).T, dflat, out=grads.proj)
    np.sum(dflat, axis=0, out=grads.proj_bias)
    d_out = (dflat @ model.proj.T).reshape(B, T, -1)
    # the logits, and each layer's record once its backward is done, are
    # dropped, so the later layers' backward runs with less memory held
    del logits, flat, dflat
    for l in range(len(model.cells) - 1, 0, -1):
        layer = model.cells[l]
        dz = _backward_layer(layer, records.pop(), d_out, grads.cells[l])
        np.matmul(records[-1].hs.reshape(B * T, -1).T, dz, out=grads.cells[l].w_x)
        d_out = (dz @ layer.w_x.T).reshape(B, T, -1)
    # layer 0's input products go back through the token table: S is the
    # (V, 4H) per-token sum of its dz rows (see the module docstring)
    layer = model.cells[0]
    dz = _backward_layer(layer, records.pop(), d_out, grads.cells[0])
    S = _scatter_rows(ids_arr.reshape(-1), dz, V)
    np.matmul(model.embedding.T, S, out=grads.cells[0].w_x)
    np.matmul(S, layer.w_x.T, out=grads.embedding)
    return grads, bits, tg.size, new_state


def backward(model: LstmModel, ids, targets, state=None) -> LstmModel:
    """Exact gradients of ``loss_bits`` over the unrolled window."""
    grads, _, _, _ = _step(model, ids, targets, state)
    return grads


def clip_gradients(grads: LstmModel, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm;
    returns the pre-clip norm."""
    # squares in float64, where a float32 gradient of 1.8e19 would square
    # to inf; summed per array, as one whole-vector dot product rounds
    # differently
    total = math.sqrt(
        sum(float(np.square(g, dtype=np.float64).sum()) for _, g in grads.params())
    )
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
    epoch.  ``epoch`` is 1-based and selects the learning rate.  The model
    is updated in place; returns each window's perplexity, from its forward
    pass before that window's update.
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
        # in place, with the bits of model.vector - lr * grads.vector
        grads.vector *= lr
        model.vector -= grads.vector
        if not np.isfinite(model.vector).all():
            raise FloatingPointError(f"non-finite parameters after window {w}")
        try:
            log.append(2.0 ** (bits / count))
        except OverflowError:
            raise FloatingPointError(
                f"perplexity overflows at window {w} ({bits / count:.4g} bits per token)"
            ) from None
    return log


def train_model(model: LstmModel, token_ids, progress=None) -> list[list[float]]:
    """Run every configured epoch; returns the per-window perplexity logs."""
    logs = []
    for epoch in range(1, model.config.epochs + 1):
        log = sgd_epoch(model, token_ids, epoch)
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
    batch of ``eval_batch`` sequences pads to its longest one, but the
    recurrent steps run only the live rows: the batch is sorted by length,
    so step t runs the suffix of plays still going (at least two rows).
    The projection and the masked loss still cover the padded (B, T)
    grid, so the bits are those of a forward over every padded position.
    A batch's largest buffers are the top layer's (B, T, H) hidden states
    and the (B, T, V) logits; no (B, T, 4H) gate input is built.
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
        lengths = np.array([s.size for s in group])
        B, T = len(group), int(lengths[-1])
        x = np.zeros((B, T), dtype=np.int64)
        y = np.zeros((B, T), dtype=np.int64)
        for r, s in enumerate(group):
            x[r, 1 : s.size] = s[:-1]
            y[r, : s.size] = s
        mask = np.arange(T) < lengths[:, None]
        logits, _, _ = _forward(model, x, None, keep=False, lengths=lengths)
        bits, count = loss_bits(logits, y, mask)
        total_bits += bits
        total_count += count
    return Evaluation(total_count, total_bits)


def save_model(model: LstmModel, path) -> None:
    """Versioned container: magic, version, config block, the parameter
    vector, sha256 of everything before it; written atomically.  The block
    records how the model was trained, its dtype and its arena."""
    config = model.config
    blob = json.dumps(dict(
        asdict(config),
        lr_schedule=[learning_rate(e) for e in range(1, config.epochs + 1)],
        max_grad_norm=MAX_GRAD_NORM,
        init_scale=INIT_SCALE,
        dtype=model.vector.dtype.name,
        arena=model.arena,
    ), sort_keys=True).encode("utf-8")
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
    if version not in (1, FORMAT_VERSION):
        raise ModelFormatError(f"unsupported format version {version}")
    blob_len = int.from_bytes(body[8:16], "little")
    offset = 16 + blob_len
    try:
        block = json.loads(body[16:offset].decode("utf-8"))
        # the recorded recipe is skipped, so containers written while it
        # was settable still load
        for key in ("lr_schedule", "max_grad_norm", "init_scale"):
            block.pop(key, None)
        # version 1 stored a float64 payload and no dtype or arena
        dtype = block.pop("dtype", "float64" if version == 1 else None)
        arena = block.pop("arena", None)
        config = ModelConfig(**block)
        if dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
        if arena is not None and not isinstance(arena, str):
            raise ValueError(f"arena must be a type expression, got {arena!r}")
        dtype = np.dtype(dtype)
    except (ValueError, TypeError, AttributeError) as e:
        raise ModelFormatError(f"bad config block: {e}") from None
    # each layer holds at least its w_h and bias: reject a layer count the
    # payload cannot hold before building its layout
    H = config.hidden_dim
    if config.layers * 4 * H * (H + 1) * dtype.itemsize > len(body) - offset:
        raise ModelFormatError("parameter block shorter than config implies")
    n = sum(math.prod(shape) for _, shape in _layout(config))
    end = offset + dtype.itemsize * n
    if end > len(body):
        raise ModelFormatError("parameter block shorter than config implies")
    if end != len(body):
        raise ModelFormatError("trailing bytes after parameter block")
    return LstmModel(config, np.frombuffer(body, dtype, n, offset).copy(), arena)
