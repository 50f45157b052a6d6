"""Per-layer metrics of a traced run, computed from its spans.

Every traced run reports every metric declared in BENCHMARK.json; a layer
the workload does not exercise reads 0.  Timings are medians (``_p50``),
nearest-rank 99th percentiles (``_p99``), or, for bare ``.ms``/``.s``
names, the median call.  ``s_sum``, counts and self times are per traced
pass.
"""

from __future__ import annotations

import hashlib

from common import median, percentile
from tracer import LAYERS

PLAY_ARENAS = ("o1w5", "o2w1", "o2w5", "o3w5")  # the plays workload's arenas
GEN_ARENAS = ("o1w1",) + PLAY_ARENAS  # the grid adds o1w1
LANGS = ("seq", "conc")


class Hooks:
    """Span attributes for the wrapped functions that need them, plus the
    pointer reconstructions kept for the checker probe."""

    RECONSTRUCTIONS_PER_CELL = 64

    def __init__(self, playlab):
        self._labels: dict[int, tuple[object, str]] = {}
        self._playlab = playlab
        self.reconstructions: dict[str, list] = {}

    def arena_label(self, arena) -> str:
        hit = self._labels.get(id(arena))
        if hit is None or hit[0] is not arena.tree:
            tree = arena.tree
            label = f"o{self._playlab.arena_order(tree)}w{self._playlab.arena_width(tree)}"
            hit = self._labels[id(arena)] = (tree, label)
        return hit[1]

    def _cell(self, args, kwargs):
        return {"cell": f"{self.arena_label(args[0])}.{args[1]}"}

    def _keep_reconstruction(self, args, result):
        kept = self.reconstructions.setdefault(f"{self.arena_label(args[0])}.{args[1]}", [])
        if result and len(kept) < self.RECONSTRUCTIONS_PER_CELL:
            kept.append(result[0])
        return {"found": len(result)}

    @staticmethod
    def _epoch(args, kwargs):
        config = args[0].config
        rows = len(args[1]) // config.batch
        return {"windows": (rows - 1) // config.unroll}

    @staticmethod
    def _eval(args, kwargs):
        batch = kwargs.get("eval_batch", args[2] if len(args) > 2 else 64)
        return {"tokens": int(sum(len(s) for s in args[1])), "batch": batch}

    @staticmethod
    def _model_digest(args, result):
        h = hashlib.sha256()
        for _, p in result[0].params():
            h.update(p.tobytes())
        return {"model": h.hexdigest()}

    def table(self):
        return {
            "corpus.generate_play": (self._cell, None),
            "play.justification_assignments": (self._cell, self._keep_reconstruction),
            "seqmodel.sgd_epoch": (self._epoch, None),
            "seqmodel.perplexity": (self._eval, None),
            "experiment.train_cell_model": (None, self._model_digest),
        }


def _us(xs):
    return [x * 1e6 for x in xs]


def _ms(xs):
    return [x * 1e3 for x in xs]


def _root_is(name, **attrs):
    def select(span, root):
        return root[0] == name and all((root[5] or {}).get(k) == v for k, v in attrs.items())

    return select


def _in_pass(span, root):
    """Spans of the workload's traced passes, not of the probes run after."""
    return not root[0].endswith("_probe")


def compute(tracer, passes: int, extra: dict) -> dict[str, float]:
    """Per-layer metrics from ``tracer``'s spans over ``passes`` traced
    passes; ``extra`` supplies what spans cannot (verdict counts, worker
    use, tracing overhead) and overrides nothing computed here."""
    d = tracer.durations
    out: dict[str, float] = {}
    out["rng.substream.us_p50"] = median(_us(d("rng.substream")))
    by_cell: dict[tuple[str, str], list[float]] = {}
    for s in tracer.spans:
        if s[0] in ("corpus.generate_play", "play.justification_assignments") and s[2]:
            root = tracer.spans[s[4]]
            kind = (root[5] or {}).get("kind") if root[0] == "cli.check" else None
            name = s[0] if s[0] == "corpus.generate_play" else (
                "play.refute" if kind == "perturbed" else "play.justification_assignments"
            )
            if s[0] == "play.justification_assignments" and kind is None:
                continue  # reconstructions outside a CLI check (none today)
            by_cell.setdefault((name, s[5]["cell"]), []).append(s[2] - s[1])
    for name, arenas in (
        ("corpus.generate_play", GEN_ARENAS),
        ("play.justification_assignments", PLAY_ARENAS),
        ("play.refute", PLAY_ARENAS),
    ):
        for arena in arenas:
            for lang in LANGS:
                xs = _us(by_cell.get((name, f"{arena}.{lang}"), []))
                out[f"{name}.{arena}.{lang}.us_p50"] = median(xs)
                out[f"{name}.{arena}.{lang}.us_p99"] = percentile(xs, 99)
    out["play.checker.seq.us_p50"] = median(_us(d("play.check_sequential")))
    out["play.checker.conc.us_p50"] = median(_us(d("play.check_concurrent")))
    for arena in PLAY_ARENAS:
        for lang in LANGS:
            for key in ("ambiguous_share", "budget_exceeded"):
                out[f"play.{key}.{arena}.{lang}"] = extra.get(f"play.{key}.{arena}.{lang}", 0.0)
    out["corpus.perturb.us_p50"] = median(_us(d("corpus.perturb")))
    out["corpus.read_corpus.ms"] = median(_ms(d("corpus.read_corpus")))
    out["corpus.corpus_text.ms"] = median(_ms(d("corpus.corpus_text")))

    out["seqmodel.step_cell.us_p50"] = median(_us(d("seqmodel.step_cell")))
    probe = _root_is("bench.window_probe")
    out["seqmodel.forward.ms_p50"] = median(_ms(d("seqmodel.forward", probe)))
    out["seqmodel.backward.ms_p50"] = median(_ms(d("seqmodel.backward", probe)))
    out["seqmodel.loss_bits.ms_p50"] = median(_ms(d("seqmodel.loss_bits")))
    out["seqmodel.clip_gradients.ms_p50"] = median(_ms(d("seqmodel.clip_gradients")))
    epochs = [s for s in tracer.spans if s[0] == "seqmodel.sgd_epoch" and s[2]]
    out["seqmodel.sgd_epoch.s"] = median([s[2] - s[1] for s in epochs])
    window_ms = median([(s[2] - s[1]) * 1e3 / s[5]["windows"] for s in epochs])
    out["seqmodel.window_other.ms"] = (
        window_ms - out["seqmodel.backward.ms_p50"] - out["seqmodel.clip_gradients.ms_p50"]
        if epochs and out["seqmodel.backward.ms_p50"] else 0.0
    )
    for batch in (64, 1024):
        evals = [s for s in tracer.spans
                 if s[0] == "seqmodel.perplexity" and s[2] and s[5]["batch"] == batch]
        seconds = sum(s[2] - s[1] for s in evals)
        out[f"seqmodel.perplexity.b{batch}.tok_per_s"] = (
            sum(s[5]["tokens"] for s in evals) / seconds if seconds else 0.0
        )
    out["seqmodel.save_model.ms"] = median(_ms(d("seqmodel.save_model")))
    out["seqmodel.load_model.ms"] = median(_ms(d("seqmodel.load_model")))

    cells = d("experiment.run_cell")
    out["experiment.cell.s_p50"] = median(cells)
    out["experiment.cell.s_max"] = max(cells, default=0.0)
    per_pass = max(passes, 1)
    for name in ("experiment.train_cell_model", "corpus.generate_corpus", "seqmodel.perplexity"):
        out[f"{name}.s_sum"] = sum(d(name, _in_pass)) / per_pass
    models = [s[5]["model"] for s in tracer.spans
              if s[0] == "experiment.train_cell_model" and s[2]]
    out["experiment.models_trained"] = len(models) / per_pass
    out["experiment.distinct_models_ratio"] = len(set(models)) / len(models) if models else 0.0
    out["experiment.worker_busy_ratio"] = extra.get("experiment.worker_busy_ratio", 0.0)
    out["experiment.emit_report.ms"] = median(_ms(d("experiment.emit_report")))
    out["experiment.emit_figure.ms"] = median(_ms(d("experiment.emit_figure")))

    self_s = tracer.self_seconds(_in_pass)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / per_pass
    out["trace.overhead_s"] = extra.get("trace.overhead_s", 0.0)
    out["trace.spans"] = sum(_in_pass(s, tracer.spans[s[4]]) for s in tracer.spans) / per_pass
    return out
