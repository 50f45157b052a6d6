"""Workload ``grid``: both experiment grids, as ``scripts/run_experiments.py
--mode both`` runs them.

``run_perturbation_experiment`` then ``run_cross_language_experiment`` with
``threads=nproc`` over the 8-cell desk grid, reduced in train/eval size and
epochs, then ``emit_report`` and ``emit_figure`` for each.  This is the only
workload where the ``experiment`` driver matters: cells differ widely in
size, so the slowest cell sets the tail, and worker scheduling shows.  It
also measures a known defect: both experiments train bit-identical models,
so every cell is trained twice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from common import input_seed, median

TRAIN_PLAYS = 150
EVAL_PLAYS = 40
EPOCHS = 1
CELLS = 8
MODES = ("perturb", "cross")


@dataclass
class Pass:
    wall: float
    csv: dict  # mode -> CSV text
    reports: dict  # mode -> Report
    error: str | None


def setup(ctx):
    exp = ctx.playlab.experiment
    spec = replace(exp.ExperimentSpec.desk(input_seed(ctx.seed, "grid")),
                   train_sizes=(TRAIN_PLAYS,), eval_size=EVAL_PLAYS, epochs=EPOCHS)
    ctx.checks.require("grid has 8 cells",
                       len(spec.languages) * len(spec.orders) * len(spec.widths)
                       * len(spec.train_sizes) == CELLS)
    return spec


def run_pass(ctx, spec, p: int, threads: int, tag: str) -> Pass:
    exp = ctx.playlab.experiment
    runners = {"perturb": exp.run_perturbation_experiment,
               "cross": exp.run_cross_language_experiment}
    d = ctx.work / f"grid-{tag}{p}"
    d.mkdir(parents=True, exist_ok=True)
    csv, reports, error = {}, {}, None
    with ctx.tracer.span("bench.grid"):
        start = time.perf_counter()
        try:
            for mode in MODES:
                report = reports[mode] = runners[mode](spec, threads=threads)
                path = exp.emit_report(report, d / f"report_{mode}.csv")
                exp.emit_figure(report, d / mode)
                csv[mode] = path.read_text(encoding="utf-8")
        except Exception as e:  # counted as a failed op below
            error = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - start
    checks = ctx.checks
    checks.require("grid pass raises nothing", error is None, error or "")
    for mode in MODES:
        report = reports.get(mode)
        cells = len(report.cells) if report else 0
        failures = report.failures if report else [("all", error)]
        checks.op(True, cells)
        checks.op(False, max(len(failures), CELLS - cells))
        checks.require("no failed grid cells", not failures and cells == CELLS,
                       f"{mode}: {failures}")
        svgs = sorted((d / mode).glob("*.svg")) if report else []
        checks.require("one figure per language", len(svgs) == 2, f"{mode}: {svgs}")
    return Pass(wall, csv, reports, error)


def _ppl_lines(ctx, first: Pass) -> None:
    """Every perplexity at full precision, against the reference."""
    for mode in MODES:
        report = first.reports.get(mode)
        for cell in report.cells if report else []:
            values = " ".join(f"{name}={v!r}" for name, v in
                              zip(("train", "validation", "test"), cell.values()))
            ctx.info.append(f"ppl {mode} {cell.label()}: {values}")
        rows = first.csv.get(mode, "").splitlines()
        ctx.checks.expect(f"rows.{mode}",
                          [",".join(r.split(",")[:5]) for r in rows])  # cell keys and sets
        ctx.checks.expect(f"csv.{mode}", first.csv.get(mode), hard=False)


def measure(ctx, spec, deadline: float) -> dict:
    passes = []
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(ctx, spec, len(passes), ctx.nproc, "u"))
    ctx.checks.require("every pass writes the same reports",
                       all(p.csv == passes[0].csv for p in passes))
    _ppl_lines(ctx, passes[0])
    ctx.info += [
        f"passes = {len(passes)} (threads = {ctx.nproc}): "
        f"{', '.join(f'{p.wall:.3f}' for p in passes)} s",
        f"failed_ops = {ctx.checks.failed}",
    ]
    return {"run_s": median([p.wall for p in passes])}


def traced(ctx, spec, deadline: float):
    """Untraced with nproc workers, untraced serial, then traced serial:
    the serial passes must reproduce the nproc-worker reports exactly."""
    wide = run_pass(ctx, spec, 0, ctx.nproc, "u")
    serial = run_pass(ctx, spec, 0, 1, "s")
    ctx.tracer.enabled = True
    traced_pass = run_pass(ctx, spec, 0, 1, "t")
    ctx.tracer.enabled = False
    ctx.checks.require("reports identical whatever the worker count",
                       serial.csv == wide.csv == traced_pass.csv)
    _ppl_lines(ctx, wide)
    return 1, {
        "trace.overhead_s": traced_pass.wall - serial.wall,
        "experiment.worker_busy_ratio": serial.wall / (ctx.nproc * wide.wall),
    }
