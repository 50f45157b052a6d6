"""The experiment driver: perturbation detection and cross-language testing.

Each grid cell (language, arena order, arena width, training size) owns its
corpora and model.  Corpora come from substreams labeled by role and cell,
so train, validation, and test data never share a stream:

    train       derive_seed(seed, "train", lang, order, width, size)
    validation  derive_seed(seed, "validation", ...)
    test        derive_seed(seed, "test", ...)
    perturb     derive_seed(seed, "perturb", ...)
    model init  derive_seed(seed, "model", ...)

``run_grid`` trains each cell once and gives one report per test mode.  A
report collects per-cell train/validation/test perplexities; figures are
grouped bar charts (one SVG per language and training size) rendered
directly from report values.
"""

from __future__ import annotations

import csv
import io
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from .arena import make_arena, uniform_tree
from .corpus import (MAX_LEN, PERTURB_RATIO, Corpus, Vocab, build_vocab, generate_corpus,
                     perturb_corpus)
from .fileio import write_atomic
from .play import CONCURRENT, LANGUAGES, SEQUENTIAL
from .rng import derive_seed
from .seqmodel import LstmModel, ModelConfig, init_model, perplexity, train_model

PERTURBED = "perturb"
CROSS_LANGUAGE = "cross"
TEST_MODES = (PERTURBED, CROSS_LANGUAGE)

CSV_HEADER = ["lang", "order", "width", "train_size", "set", "perplexity"]
BAR_SETS = ("train", "validation", "test")
BAR_COLORS = {"train": "navy", "validation": "turquoise", "test": "yellow"}


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid and budget for one experiment run.

    The grid always spans both languages and arena widths 1 and 5.  Every
    cell trains ``ModelConfig``'s LSTM shape at ``hidden_dim``, on plays of
    at most ``MAX_LEN`` moves.  The default is the desk-scale grid (orders
    1-2, hidden 128, 10k training plays, 4 epochs); ``full()`` restores the
    large grid with orders 1-3, training sizes 10k and 100k, and
    ``ModelConfig``'s default hidden size (200) and epochs (13).
    """

    languages: ClassVar[tuple[str, ...]] = LANGUAGES
    widths: ClassVar[tuple[int, ...]] = (1, 5)
    orders: tuple[int, ...] = (1, 2)
    train_sizes: tuple[int, ...] = (10_000,)
    eval_size: int = 10_000
    hidden_dim: int = 128
    epochs: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, value, low in (
            *(("orders", v, 0) for v in self.orders),
            *(("train_sizes", v, 1) for v in self.train_sizes),
            ("eval_size", self.eval_size, 1),
            ("hidden_dim", self.hidden_dim, 1),
            ("epochs", self.epochs, 1),
            ("seed", self.seed, None),
        ):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must hold integers, got {value!r}")
            if low is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name in ("orders", "train_sizes"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{name} must be non-empty without repeats, got {values!r}")

    @classmethod
    def desk(cls, seed: int = 0) -> "ExperimentSpec":
        return cls(seed=seed)

    @classmethod
    def full(cls, seed: int = 0) -> "ExperimentSpec":
        return cls(
            orders=(1, 2, 3),
            train_sizes=(10_000, 100_000),
            hidden_dim=ModelConfig.hidden_dim,
            epochs=ModelConfig.epochs,
            seed=seed,
        )

    def model_config(self, vocab_size: int, seed: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, embed_dim=self.hidden_dim,
                           hidden_dim=self.hidden_dim, epochs=self.epochs, seed=seed)


@dataclass(frozen=True)
class ReportCell:
    lang: str
    order: int
    width: int
    train_size: int
    train_ppl: float
    validation_ppl: float
    test_ppl: float

    @property
    def test_over_validation(self) -> float:
        return self.test_ppl / self.validation_ppl

    @property
    def validation_over_train(self) -> float:
        return self.validation_ppl / self.train_ppl

    def values(self) -> tuple[float, float, float]:
        return (self.train_ppl, self.validation_ppl, self.test_ppl)

    def label(self) -> str:
        return _label(self.lang, self.order, self.width, self.train_size)


def _label(lang: str, order: int, width: int, size: int) -> str:
    return f"{lang}/order{order}/width{width}/n{size}"


@dataclass
class Report:
    cells: list[ReportCell] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)


def train_cell_model(
    spec: ExperimentSpec, lang: str, order: int, width: int, size: int
) -> tuple[LstmModel, Vocab, Corpus]:
    """Train one cell's model on a fresh training corpus."""
    arena = make_arena(uniform_tree(order, width))
    vocab = build_vocab(arena)
    cell = (lang, order, width, size)
    train = generate_corpus(arena, lang, size, MAX_LEN, derive_seed(spec.seed, "train", *cell))
    config = spec.model_config(len(vocab), derive_seed(spec.seed, "model", *cell))
    model = init_model(config)
    train_model(model, vocab.encode(t for seq in train.plays for t in seq))
    return model, vocab, train


def _eval_ppl(model: LstmModel, vocab: Vocab, plays) -> float:
    return perplexity(model, [vocab.encode(seq) for seq in plays]).perplexity


def _check_modes(modes: tuple[str, ...]) -> None:
    for i, mode in enumerate(modes):
        if mode not in TEST_MODES or mode in modes[:i]:
            raise ValueError(f"unknown or repeated test mode {mode!r}")


def run_cell(
    spec: ExperimentSpec, modes: tuple[str, ...], lang: str, order: int, width: int, size: int
) -> list[ReportCell]:
    """Train one grid cell's model once and evaluate it on each test set.

    ``modes`` picks the test sets, one ReportCell each, in the given order:
    PERTURBED mutates fresh legal plays of the same language;
    CROSS_LANGUAGE evaluates legal plays of the other language on the same
    arena.  Every mode is checked before any work is done.
    """
    _check_modes(modes)
    arena = make_arena(uniform_tree(order, width))
    cell = (lang, order, width, size)
    model, vocab, train = train_cell_model(spec, *cell)
    validation = generate_corpus(
        arena, lang, spec.eval_size, MAX_LEN, derive_seed(spec.seed, "validation", *cell)
    )
    train_ppl = _eval_ppl(model, vocab, train.plays)
    validation_ppl = _eval_ppl(model, vocab, validation.plays)
    other = CONCURRENT if lang == SEQUENTIAL else SEQUENTIAL
    results = []
    for mode in modes:
        test = generate_corpus(
            arena, other if mode == CROSS_LANGUAGE else lang, spec.eval_size,
            MAX_LEN, derive_seed(spec.seed, "test", *cell),
        )
        if mode == PERTURBED:
            test = perturb_corpus(test, PERTURB_RATIO, derive_seed(spec.seed, "perturb", *cell))
        test_ppl = _eval_ppl(model, vocab, test.plays)
        results.append(ReportCell(*cell, train_ppl, validation_ppl, test_ppl))
    return results


def _cost_order(cell: tuple[str, int, int, int]) -> tuple[int, int, bool]:
    """Sort key, largest first, for a cell's expected run time: training
    size, then arena size, then conc before seq (its plays run longer)."""
    lang, order, width, size = cell
    return size, len(make_arena(uniform_tree(order, width))), lang == CONCURRENT


def _failure(e: Exception):
    """The outcome of a cell that raised ``e``, called in its handler."""
    kind = "out of memory" if isinstance(e, MemoryError) else type(e).__name__
    return None, f"{kind}: {e}", traceback.format_exc().rstrip()


def _cell_outcome(spec: ExperimentSpec, modes: tuple[str, ...], cell: tuple[str, int, int, int]):
    """Run one cell; returns (results or None, error or None, traceback
    text or None).  Module level so a worker process can run it;
    ``run_cell`` is looked up when called, so a forked worker runs whatever
    the parent's module holds."""
    try:
        return run_cell(spec, modes, *cell), None, None
    except Exception as e:  # a failing cell is recorded, the others still run
        return _failure(e)


def run_grid(
    spec: ExperimentSpec, modes: tuple[str, ...], threads: int = 1, progress=None
) -> dict[str, Report]:
    """Run each grid cell once for all ``modes``; returns one Report per
    mode, its cells in grid order.  A cell that raises is a failure in every
    report; the others run.

    ``threads`` is the number of worker processes.  With 1 every cell runs
    in this process, in grid order.  With more, cells run in processes
    forked from this one (so they compute with its BLAS thread count and
    the same bits), at most one per cell, and are handed out largest first
    so the longest cells do not start last.  Pin one BLAS thread
    (``OPENBLAS_NUM_THREADS=1``) for more than one worker, or the workers'
    BLAS thread pools oversubscribe the cores.  A worker that dies fails
    the cells that have no result yet.  ``progress`` is only called here,
    in the calling process: ``start`` when a cell is handed out, then its
    result or failure when it ends.
    """
    _check_modes(modes)
    cells = [
        (lang, order, width, size)
        for lang in spec.languages
        for order in spec.orders
        for width in spec.widths
        for size in spec.train_sizes
    ]
    outcomes = {}
    say = progress or (lambda message: None)

    def finish(cell, outcome):
        results, error, trace = outcomes[cell] = outcome
        if error is not None:
            say(f"cell {_label(*cell)}: failed\n{trace}")
            return
        tests = " ".join(f"{mode}={r.test_ppl:.3f}" for mode, r in zip(modes, results))
        say(
            f"cell {_label(*cell)}: train={results[0].train_ppl:.3f} "
            f"validation={results[0].validation_ppl:.3f} {tests}"
        )

    if threads > 1:
        # imported here: at module top they would add to every CLI call's start-up
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        # fork, not spawn: a worker starts without a fresh import and runs this
        # process's functions at its BLAS thread count.  The pool forks all
        # its workers before it starts a thread of its own
        futures = {}
        with ProcessPoolExecutor(min(threads, len(cells)),
                                 multiprocessing.get_context("fork")) as pool:
            for cell in sorted(cells, key=_cost_order, reverse=True):  # run in this order
                say(f"cell {_label(*cell)}: start")
                try:
                    futures[pool.submit(_cell_outcome, spec, modes, cell)] = cell
                except BrokenProcessPool as e:  # a worker died before this cell was handed out
                    finish(cell, _failure(e))
            for future in as_completed(futures):
                try:
                    finish(futures[future], future.result())
                except BrokenProcessPool as e:  # a worker died: this cell has no result
                    finish(futures[future], _failure(e))
    else:
        for cell in cells:
            say(f"cell {_label(*cell)}: start")
            finish(cell, _cell_outcome(spec, modes, cell))
    reports = {mode: Report() for mode in modes}
    for cell in cells:
        results, error, _ = outcomes[cell]
        for i, mode in enumerate(modes):
            if error is None:
                reports[mode].cells.append(results[i])
            else:
                reports[mode].failures.append((_label(*cell), error))
    return reports


def run_perturbation_experiment(
    spec: ExperimentSpec, threads: int = 1, progress=None
) -> Report:
    """Per cell: train on legal plays, test on edit-perturbed fresh plays.

    A model that has learned the play language scores the perturbed set
    much worse than validation while validation stays close to training.
    """
    return run_grid(spec, (PERTURBED,), threads, progress)[PERTURBED]


def run_cross_language_experiment(
    spec: ExperimentSpec, threads: int = 1, progress=None
) -> Report:
    """Per cell: train on one language, test on the other (same arena)."""
    return run_grid(spec, (CROSS_LANGUAGE,), threads, progress)[CROSS_LANGUAGE]


def emit_report(report: Report, path) -> Path:
    """CSV, one row per cell and data set, perplexities as full-precision repr;
    written atomically."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(CSV_HEADER)
    for cell in report.cells:
        for name, value in zip(BAR_SETS, cell.values()):
            writer.writerow(
                [cell.lang, cell.order, cell.width, cell.train_size, name, repr(value)]
            )
    return write_atomic(path, text.getvalue().encode("utf-8"))


def parse_report(path) -> Report:
    """Read a report CSV back; a malformed, unknown or repeated row, or one
    of a cell no grid has, raises ValueError naming the file and line."""
    table: dict[tuple, dict[str, float]] = {}
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for row in reader:
            try:
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                lang, order, width, size, name, value = row
                key = (lang, int(order), int(width), int(size))
                if lang not in LANGUAGES:
                    raise ValueError(f"language must be one of {LANGUAGES}, got {lang!r}")
                if key[1] < 0 or key[2] < 1 or key[3] < 1:
                    raise ValueError(f"no grid has the cell {_label(*key)}")
                ppl = float(value)
                # a perplexity is 2^(bits/token), and a loss in bits is never negative
                if not (math.isfinite(ppl) and ppl >= 1):
                    raise ValueError(f"perplexity must be finite and >= 1, got {value!r}")
                if name not in BAR_SETS or name in table.setdefault(key, {}):
                    raise ValueError(f"unknown or repeated {name!r} row for {_label(*key)}")
                table[key][name] = ppl
            except ValueError as e:
                raise ValueError(f"{path}: line {reader.line_num}: {e}") from None
    report = Report()
    for key, values in table.items():
        missing = [s for s in BAR_SETS if s not in values]
        if missing:
            raise ValueError(f"{path}: {_label(*key)} missing {missing}")
        report.cells.append(ReportCell(*key, *(values[s] for s in BAR_SETS)))
    return report


def _format_ppl(value: float) -> str:
    return f"{value:.3g}"


def _bar_chart(title: str, groups: list[tuple[str, tuple[float, float, float]]]) -> str:
    """Grouped log-scale bar chart; every bar carries its exact value in a
    ``data-value`` attribute so figures can be checked against reports."""
    bar_w, bar_gap, group_gap = 26.0, 4.0, 30.0
    left, top, plot_h, bottom = 64.0, 44.0, 300.0, 52.0
    group_w = 3 * bar_w + 2 * bar_gap
    plot_w = len(groups) * (group_w + group_gap) + group_gap
    width = left + plot_w + 150.0
    height = top + plot_h + bottom
    base = top + plot_h
    max_val = max(v for _, values in groups for v in values)
    exp_max = max(1, math.ceil(math.log10(max_val) - 1e-12))

    def y(value: float) -> float:
        return base - plot_h * (math.log10(value) / exp_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{left:.2f}" y="24" font-size="14">{title}</text>',
    ]
    for k in range(exp_max + 1):
        gy = base - plot_h * (k / exp_max)
        parts.append(
            f'<line x1="{left:.2f}" y1="{gy:.2f}" x2="{left + plot_w:.2f}" '
            f'y2="{gy:.2f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{gy + 4:.2f}" font-size="10" '
            f'text-anchor="end">10^{k}</text>'
        )
    for gi, (label, values) in enumerate(groups):
        gx = left + group_gap + gi * (group_w + group_gap)
        for bi, (set_name, value) in enumerate(zip(BAR_SETS, values)):
            bx = gx + bi * (bar_w + bar_gap)
            by = y(value)
            parts.append(
                f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bar_w:.2f}" '
                f'height="{base - by:.2f}" fill="{BAR_COLORS[set_name]}" '
                f'stroke="#333" stroke-width="0.5" data-set="{set_name}" '
                f'data-value="{value!r}"/>'
            )
            parts.append(
                f'<text x="{bx + bar_w / 2:.2f}" y="{by - 3:.2f}" font-size="8" '
                f'text-anchor="middle">{_format_ppl(value)}</text>'
            )
        parts.append(
            f'<text x="{gx + group_w / 2:.2f}" y="{base + 16:.2f}" font-size="10" '
            f'text-anchor="middle">{label}</text>'
        )
    parts.append(
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{base:.2f}" '
        f'stroke="#333"/>'
    )
    parts.append(
        f'<line x1="{left:.2f}" y1="{base:.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{base:.2f}" stroke="#333"/>'
    )
    for si, set_name in enumerate(BAR_SETS):
        ly = top + 16.0 * si
        lx = left + plot_w + 16.0
        parts.append(
            f'<rect x="{lx:.2f}" y="{ly:.2f}" width="12" height="12" '
            f'fill="{BAR_COLORS[set_name]}" stroke="#333" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{lx + 18:.2f}" y="{ly + 10:.2f}" font-size="11">{set_name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_figure(report: Report, out_dir) -> list[Path]:
    """One SVG per (language, training size): grouped bars per arena,
    train/validation/test in the navy/turquoise/yellow convention."""
    if not report.cells:
        raise ValueError("empty report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    panels: dict[tuple[str, int], list[ReportCell]] = {}
    for cell in report.cells:
        panels.setdefault((cell.lang, cell.train_size), []).append(cell)
    paths = []
    for (lang, size), cells in sorted(panels.items()):
        groups = [
            (f"order {c.order}, width {c.width}", c.values())
            for c in sorted(cells, key=lambda c: (c.order, c.width))
        ]
        svg = _bar_chart(f"{lang} plays, {size} training plays", groups)
        paths.append(write_atomic(out_dir / f"ppl_{lang}_{size}.svg", svg.encode("utf-8")))
    return paths
