"""In-memory spans around calls into playlab's public functions.

The tracer replaces each wrapped function in every playlab module that
binds it, so calls made by the CLI, by the experiment driver and between
library modules all pass through the wrapper.  A span is
``[name, start, end, parent, root, attrs]``; ``parent`` and ``root`` are
indices into the span list (``-1`` for none).  Spans are kept in memory and
written out once, when the benchmark ends.  The stack of open spans is
single-threaded: only drive traced code from one thread.
"""

from __future__ import annotations

import contextlib
import json
import time

# (module, function) pairs timed in a traced run.  ``derive_key`` is the
# hash behind ``substream`` and ``derive_seed`` and is timed through them;
# ``arena`` (set-up only) and ``cli`` (thin) get no spans of their own.
TRACED = {
    "rng": ("substream", "derive_seed"),
    "corpus": (
        "generate_play", "generate_corpus", "perturb", "perturb_corpus",
        "read_corpus", "write_corpus", "corpus_text", "build_vocab", "levenshtein",
    ),
    "play": ("justification_assignments", "check_sequential", "check_concurrent"),
    "seqmodel": (
        "step_cell", "forward", "backward", "loss_bits", "clip_gradients",
        "sgd_epoch", "train_model", "init_model", "perplexity",
        "save_model", "load_model",
    ),
    "experiment": (
        "run_cell", "train_cell_model", "run_perturbation_experiment",
        "run_cross_language_experiment", "emit_report", "emit_figure",
    ),
}
LAYERS = tuple(TRACED)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = False

    # -- spans -------------------------------------------------------------
    def _open(self, name: str, attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, root, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, e.g. around a CLI call."""
        if not self.enabled:
            yield
            return
        idx = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name: str, fn, before, after):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            attrs = before(args, kwargs) if before else None
            idx = tracer._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer.spans[idx][5] = dict(attrs or {}, error=type(e).__name__)
                raise
            finally:
                tracer._close(idx)
            if after is not None:
                tracer.spans[idx][5] = dict(attrs or {}, **after(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package, hooks=None) -> None:
        """Wrap every function in TRACED wherever a playlab module binds it.

        ``hooks`` maps a span name to ``(before, after)``: ``before(args,
        kwargs)`` returns span attributes and runs before the clock starts;
        ``after(args, result)`` adds attributes once the call returned.
        """
        hooks = hooks or {}
        modules = [package] + [getattr(package, m) for m in ("cli", *LAYERS)]
        for layer, names in TRACED.items():
            owner = getattr(package, layer)
            for fname in names:
                original = getattr(owner, fname)
                span_name = f"{layer}.{fname}"
                before, after = hooks.get(span_name, (None, None))
                wrapper = self._wrap(span_name, original, before, after)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------
    def durations(self, name: str, select=None) -> list[float]:
        """Seconds spent in each closed span called ``name``; ``select``
        filters on ``(span, root_span)``."""
        out = []
        for s in self.spans:
            if s[0] == name and s[2] is not None:
                if select is None or select(s, self.spans[s[4]]):
                    out.append(s[2] - s[1])
        return out

    def self_seconds(self, select=None) -> dict[str, float]:
        """Per layer: each span's duration minus the time its direct child
        spans cover, summed over the layer's spans (those ``select`` keeps,
        as in ``durations``)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0 and s[2] is not None:
                child_time[s[3]] += s[2] - s[1]
        totals: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s[2] is None or (select is not None and not select(s, self.spans[s[4]])):
                continue
            layer = s[0].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (s[2] - s[1]) - child_time[i]
        return totals

    def write(self, path, manifest) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"manifest": manifest, "spans": self.spans}, f)
