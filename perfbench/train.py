"""Workload ``train``: ``playlab train`` at the desk configuration, then
``playlab eval`` on a held-out corpus.

The corpora (sequential plays over o2w5) are generated in set-up; the
timed pass is only the two commands.  Almost all the work is in
``seqmodel``, which it uses two ways: windowed forward+backward at batch 20
(the fixed small configuration of Zaremba et al. 2014: batch 20, unroll 20,
clip 5) and batched forward-only evaluation.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import input_seed, median, run_cli, sha256_file

ARENA = (2, 5)
LANG = "seq"
TRAIN_PLAYS = 300
HELD_PLAYS = 300
EPOCHS = 2
BATCH, UNROLL = 20, 20
DESK = ["--hidden-dim", "128", "--embed-dim", "128", "--layers", "2",
        "--batch", str(BATCH), "--unroll", str(UNROLL), "--epochs", str(EPOCHS)]
PROBE_WINDOWS = 20
PROBE_STEPS = 200
EPOCH_LINE = re.compile(r"epoch \d+: windows=(\d+) ")


@dataclass
class State:
    spec: str
    train: Path
    held: Path
    held_tokens: int


@dataclass
class Pass:
    train_s: float
    eval_s: float
    trained_tokens: int
    ppl: str | None
    model_sha256: str | None


def setup(ctx) -> State:
    pl = ctx.playlab
    d = ctx.work / "train"
    d.mkdir(parents=True, exist_ok=True)
    spec = pl.render_type(pl.uniform_tree(*ARENA))
    paths = {}
    for name, count in (("train", TRAIN_PLAYS), ("held", HELD_PLAYS)):
        path = paths[name] = d / f"{name}.plays"
        run = run_cli(pl.cli.main, ["gen", "--arena", spec, "--lang", LANG, "--count", str(count),
                                    "--seed", str(input_seed(ctx.seed, name)), "--out", str(path)])
        ctx.checks.op(ctx.checks.require("gen exits 0", run.code == 0, run.error or run.stderr))
        digest, before = sha256_file(path), ctx.checks.recorded.get(f"sha256.{name}")
        ctx.checks.require("set-up writes the same corpora every time",
                           before in (None, digest), name)
        ctx.checks.expect(f"sha256.{name}", digest)
    with open(paths["held"], encoding="utf-8") as f:
        held_tokens = sum(len(line.split()) for line in f if not line.startswith("#"))
    return State(spec, paths["train"], paths["held"], held_tokens)


def run_pass(ctx, st: State, p: int) -> Pass:
    main = ctx.playlab.cli.main
    model = st.train.with_name("model.bin")
    with ctx.tracer.span("cli.train"):
        tr = run_cli(main, ["train", "--corpus", str(st.train), "--out", str(model),
                            "--seed", str(input_seed(ctx.seed, "model")), *DESK])
    with ctx.tracer.span("cli.eval"):
        ev = run_cli(main, ["eval", "--model", str(model), "--corpus", str(st.held)])
    checks = ctx.checks
    checks.op(checks.require("train exits 0", tr.code == 0, tr.error or tr.stderr))
    ppl = next((line[4:] for line in ev.lines if line.startswith("PPL=")), None)
    checks.op(checks.require("eval exits 0 and prints PPL", ev.code == 0 and ppl is not None,
                             ev.error or ev.stderr))
    windows = [int(m.group(1)) for m in map(EPOCH_LINE.match, tr.lines) if m]
    checks.require("train runs every epoch", len(windows) == EPOCHS, f"{tr.lines}")
    digest = sha256_file(model) if tr.code == 0 else None
    return Pass(tr.wall, ev.wall, sum(windows) * BATCH * UNROLL, ppl, digest)


def _check_passes(ctx, passes: list[Pass]) -> None:
    first = passes[0]
    ctx.checks.require("retraining reproduces the model and perplexity",
                       all((p.ppl, p.model_sha256) == (first.ppl, first.model_sha256)
                           for p in passes), f"{[p.ppl for p in passes]}")
    ctx.checks.expect("ppl.held", first.ppl, hard=False)
    ctx.checks.expect("sha256.model", first.model_sha256, hard=False)
    ctx.info.append(f"ppl held-out = {first.ppl}")


def measure(ctx, st: State, deadline: float) -> dict:
    passes = []
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(ctx, st, len(passes)))
    _check_passes(ctx, passes)
    ctx.info += [
        f"passes = {len(passes)}",
        f"train_tok_per_s = {median([p.trained_tokens / p.train_s for p in passes])!r} tok/s",
        f"eval_tok_per_s = {median([st.held_tokens / p.eval_s for p in passes])!r} tok/s",
        f"failed_ops = {ctx.checks.failed}",
    ]
    return {"run_s": median([p.train_s + p.eval_s for p in passes])}


def traced(ctx, st: State, deadline: float):
    """One untraced pass, traced passes until the deadline, then probes of
    the public model functions the CLI reaches only through private code:
    forward and backward over training windows, ``step_cell``, and
    perplexity at eval batch 1024."""
    pl, tracer = ctx.playlab, ctx.tracer
    untraced = run_pass(ctx, st, 0)
    passes = []
    while not passes or time.perf_counter() < deadline:
        tracer.enabled = True
        passes.append(run_pass(ctx, st, len(passes)))
        tracer.enabled = False
    _check_passes(ctx, [untraced] + passes)

    sm = pl.seqmodel
    model = sm.load_model(st.train.with_name("model.bin"))
    vocab = pl.build_vocab(pl.make_arena(pl.parse_type(st.spec)))
    ids = np.concatenate([vocab.encode(s) for s in pl.read_corpus(st.train).plays])
    rows = ids.size // BATCH
    streams = ids[: BATCH * rows].reshape(BATCH, rows)
    held = [vocab.encode(s) for s in pl.read_corpus(st.held).plays]
    tracer.enabled = True
    with tracer.span("bench.window_probe"):
        state = None
        for w in range(min(PROBE_WINDOWS, (rows - 1) // UNROLL)):
            x = streams[:, w * UNROLL:(w + 1) * UNROLL]
            y = streams[:, w * UNROLL + 1:(w + 1) * UNROLL + 1]
            sm.backward(model, x, y, state)
            _, state = sm.forward(model, x, state)
    with tracer.span("bench.step_probe"):
        x = model.embedding[streams[:, 0]]
        h = c = np.zeros((BATCH, model.config.hidden_dim))
        for _ in range(PROBE_STEPS):
            h, c = sm.step_cell(x, h, c, model.cells[0])
    with tracer.span("bench.eval_probe"):
        wide = sm.perplexity(model, held, eval_batch=1024).perplexity
    tracer.enabled = False
    narrow = float(untraced.ppl) if untraced.ppl else float("nan")
    ctx.checks.compare("perplexity independent of eval batch (rel 1e-9)",
                       abs(wide - narrow) <= 1e-9 * abs(narrow), f"{wide!r} vs {narrow!r}")
    extra = {"trace.overhead_s": (passes[0].train_s + passes[0].eval_s)
             - (untraced.train_s + untraced.eval_s)}
    return len(passes), extra
