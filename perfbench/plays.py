"""Workload ``plays``: the README's play commands through ``playlab.cli.main``.

For each uniform arena o1w5, o2w1, o2w5, o3w5 and each language, one pass
runs ``gen``, ``check`` on the legal corpus, ``perturb --ratio 0.1`` and
``check`` on the perturbed corpus.  All work is in ``rng``, ``play`` and
``corpus``.  Pointer search is used two ways: reconstructing legal plays
(it succeeds early) and refuting perturbed plays (it must exhaust the
search).  Refuting perturbed ``conc`` plays is a known blow-up: a few per
cent of them take seconds each and some exhaust the 1,000,000-node search
budget.  They stay in, unfiltered; ``conc`` corpora are kept small so a
pass fits the run.

Pass 0 runs every command of every cell: it warms the program up, its
outputs are checked in full, and its four ``check`` runs of perturbed
``conc`` corpora are the run's refutation sample.  Timed repeats of pass 0
then run, on the same inputs, every command but those four until
``--seconds`` have elapsed, and must reproduce pass 0's outputs exactly.

On a shared host the core this runs on switches, within milliseconds,
between a fast state and one up to about twice as slow (other tenants'
load), and the share of slow time drifts over minutes, so raw pass times
follow the neighbours more than the program.  Between commands, never
inside one, a ``SpeedProbe`` times a fixed pure-Python kernel.  Each timed
pass is divided by the slowdown the probe saw during it, which gives its
time on a reference core (one where a probe walk takes 0.3 ms), and
``run_s`` is the median of these over the complete repeats, plus the refutation sample counted as typical: each of
its plays at the sample's median per-play time (read off the verdict
lines), so the handful of blow-up plays a seed happens to draw does not
swing it.  A check's start-up (reading the corpus, building the arena) is
taken from the check of the legal corpus of the same cell, whose plays have
no such tail.  The raw pass times are printed too.  The blow-ups
themselves are reported by the raw rates, the ``play.refute`` p99 and the
budget-exceeded counts.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

from common import CliRun, SpeedProbe, input_seed, median, percentile, run_cli, sha256_file

ARENAS = ((1, 5), (2, 1), (2, 5), (3, 5))
LANGS = ("seq", "conc")
# Refuting a perturbed conc play averages ~0.7 s (the blow-up tail), a seq
# play ~0.1 ms.  Five conc plays per corpus keep pass 0 near 15 s on
# average; a thousand seq plays make a timed pass about 4 s.
COUNT = {"seq": 1000, "conc": 5}
MAX_LEN = 50
RATIO = 0.1
VERDICT = re.compile(r"play (\d+): (legal|illegal|ambiguous)( \(search budget exceeded\))?$")


@dataclass
class Step:
    cell: str  # e.g. "o2w5.conc"
    command: str  # gen | check | perturb
    kind: str  # "legal" or "perturbed" corpus
    count: int
    run: CliRun
    verdicts: dict | None = None  # check only: legal/ambiguous/illegal/budget counts


def setup(ctx):
    """The 8-cell plan: type expressions for the CLI, validated by building
    each arena once."""
    pl = ctx.playlab
    plan = []
    for order, width in ARENAS:
        spec = pl.render_type(pl.uniform_tree(order, width))
        arena = pl.make_arena(pl.parse_type(spec))
        ctx.checks.require(
            "arena round-trip",
            (pl.arena_order(arena.tree), pl.arena_width(arena.tree)) == (order, width),
            spec,
        )
        plan.extend((f"o{order}w{width}", lang, spec) for lang in LANGS)
    return plan


def _verdicts(run: CliRun) -> dict:
    counts = {"legal": 0, "ambiguous": 0, "illegal": 0, "budget": 0}
    for line in run.lines:
        m = VERDICT.match(line)
        if m:
            counts["budget" if m.group(3) else m.group(2)] += 1
    return counts


def _refutes_conc(cell: str, command: str, kind: str) -> bool:
    return cell.endswith(".conc") and command == "check" and kind == "perturbed"


def run_pass(ctx, plan, tag: str, deadline: float | None = None,
             refute_conc: bool = True, probe=None):
    """The pass's steps, and whether it ran every cell before ``deadline``.
    Every pass gets the same inputs, derived from the workload seed.
    Without ``refute_conc`` the perturbed ``conc`` corpora are made but not
    checked; a ``probe`` is sampled before every command."""
    main = ctx.playlab.cli.main
    d = ctx.work / f"plays-{tag}"
    d.mkdir(parents=True, exist_ok=True)
    steps = []
    for label, lang, spec in plan:
        if deadline is not None and time.perf_counter() >= deadline:
            return steps, False
        cell, n = f"{label}.{lang}", COUNT[lang]
        legal, bad = d / f"{cell}.plays", d / f"{cell}.perturbed.plays"
        commands = (
            ("gen", "legal", ["gen", "--arena", spec, "--lang", lang, "--count", str(n),
                              "--max-len", str(MAX_LEN),
                              "--seed", str(input_seed(ctx.seed, 0, cell, "gen")),
                              "--out", str(legal)]),
            ("check", "legal", ["check", str(legal)]),
            ("perturb", "perturbed", ["perturb", str(legal), "--ratio", str(RATIO),
                                      "--seed", str(input_seed(ctx.seed, 0, cell, "perturb")),
                                      "--out", str(bad)]),
            ("check", "perturbed", ["check", str(bad)]),
        )
        for command, kind, argv in commands:
            if not refute_conc and _refutes_conc(cell, command, kind):
                continue
            if probe is not None:
                probe.sample()
            with ctx.tracer.span(f"cli.{command}", cell=cell, kind=kind):
                run = run_cli(main, argv)
            steps.append(Step(cell, command, kind, n, run))
            if run.code is None or (command != "check" and run.code != 0):
                break  # later commands of this cell have no input
    return steps, True


def check_pass(ctx, steps: list[Step]) -> None:
    """Exit codes, verdict counts, soundness of generated plays, the edit
    budget of every perturbed play, and the outputs against the reference."""
    pl, checks = ctx.playlab, ctx.checks
    for step in steps:
        run = step.run
        if step.command != "check":
            ok = checks.require(f"{step.command} exits 0", run.code == 0,
                                f"{step.cell}: {run.error or run.stderr.strip()}")
            checks.op(ok)
            continue
        v = step.verdicts = _verdicts(run)
        seen = sum(v.values())
        expected_code = 0 if v["legal"] == seen else 1  # non-legal verdicts exit 1
        ok = checks.require(
            "check prints one verdict per play and the matching exit code",
            run.code == expected_code and seen == step.count == len(run.lines),
            f"{step.cell} {step.kind}: exit {run.code} {run.error or ''} verdicts {v}",
        )
        checks.op(ok)
        if step.kind == "legal":
            checks.require("generated plays reconstruct legally", v["illegal"] == 0,
                           f"{step.cell}: {v}")
            if step.cell == "o1w5.seq":
                checks.require("first-order seq plays reconstruct uniquely",
                               v["legal"] == step.count, f"{v}")
        checks.expect(f"verdicts.{step.cell}.{step.kind}", v)
    by_cell = {}
    for step in steps:
        if step.command == "perturb" and step.run.code == 0:
            legal_path, bad_path = step.run.argv[1], step.run.argv[-1]
            by_cell[step.cell] = (legal_path, bad_path)
    for cell, (legal_path, bad_path) in by_cell.items():
        a, b = pl.read_corpus(legal_path), pl.read_corpus(bad_path)
        within = len(a.plays) == len(b.plays) and all(
            pl.levenshtein(x, y) <= max(1, int(RATIO * (len(x) - 1)))
            for x, y in zip(a.plays, b.plays)
        )
        checks.require("perturbed plays within their edit budget", within, cell)
        checks.expect(f"sha256.{cell}.legal", sha256_file(legal_path))
        checks.expect(f"sha256.{cell}.perturbed", sha256_file(bad_path))


def _play_times(run: CliRun) -> list[float]:
    """Seconds between consecutive verdict lines: one per play after the
    first, whose line also carries the command's start-up."""
    return [b - a for a, b in zip(run.stamps, run.stamps[1:])]


def _refutation_seconds(steps) -> float:
    """Time of pass 0's checks of perturbed ``conc`` corpora, every play
    counted at the median per-play time over all of them."""
    refute = [s for s in steps if _refutes_conc(s.cell, s.command, s.kind) and s.run.stamps]
    typical = median([t for s in refute for t in _play_times(s.run)])
    startup = {}
    for s in steps:
        if s.command == "check" and s.kind == "legal" and s.run.stamps:
            startup[s.cell] = s.run.stamps[0] - s.run.start - median(_play_times(s.run))
    return sum((s.run.end - s.run.stamps[-1]) + startup.get(s.cell, 0.0) + s.count * typical
               for s in refute)


def _rate(steps, command, kind) -> float:
    steps = [s for s in steps if s.command == command and s.kind == kind]
    seconds = sum(s.run.wall for s in steps)
    return sum(s.count for s in steps) / seconds if seconds else 0.0


def _budget(steps) -> int:
    return sum(s.verdicts["budget"] for s in steps if s.verdicts)


def _outputs(step: Step) -> tuple:
    written = sha256_file(step.run.argv[-1]) if step.command != "check" else None
    return step.run.code, step.run.lines, written


def measure(ctx, plan, deadline: float) -> dict:
    start = time.perf_counter()
    probe = SpeedProbe()
    first, _ = run_pass(ctx, plan, "u", probe=probe)
    windows = [(0, probe.mark())]  # the probe samples taken during each pass
    check_pass(ctx, first)
    deadline += time.perf_counter() - start  # the repeats get the whole run
    expected = {(s.cell, s.command, s.kind): _outputs(s) for s in first}
    raw = []
    repeats = 0
    while not repeats or time.perf_counter() < deadline:
        repeats += 1
        mark = probe.mark()
        steps, complete = run_pass(ctx, plan, f"r{repeats}",
                                   deadline if repeats > 1 else None,
                                   refute_conc=False, probe=probe)
        if complete:
            raw.append(sum(s.run.wall for s in steps))
            windows.append((mark, probe.mark()))
        for step in steps:
            key = (step.cell, step.command, step.kind)
            ctx.checks.op(ctx.checks.require("repeats reproduce pass 0's outputs exactly",
                                             _outputs(step) == expected[key], f"{key}"))
    slowdown = [probe.slowdown(*w) for w in windows]
    timed = [t / x for t, x in zip(raw, slowdown[1:])]
    refutation = _refutation_seconds(first) / slowdown[0]
    refute_s = sum(s.run.wall for s in first if _refutes_conc(s.cell, s.command, s.kind))
    refute_ms = sorted(
        t * 1e3 for s in first if _refutes_conc(s.cell, s.command, s.kind)
        for t in _play_times(s.run)
    )
    budget0 = _budget(first)
    ctx.checks.expect("budget_exceeded.pass0", budget0)
    ctx.info += [
        f"repeats = {len(raw)} complete of {repeats} after pass 0 "
        f"(plays per cell: seq {COUNT['seq']}, conc {COUNT['conc']})",
        f"raw_pass_s = {', '.join(f'{t:.4f}' for t in raw)} (median {median(raw)!r} s)",
        f"probe slowdown = {', '.join(f'{x:.3f}' for x in slowdown[1:])}, pass 0 "
        f"{slowdown[0]:.3f}",
        f"probe sample ms min/p5/p25/p50 = "
        f"{'/'.join(f'{percentile(probe.samples, q) * 1e3:.4f}' for q in (0, 5, 25, 50))} "
        f"of {len(probe.samples)}",
        f"pass_s on the reference core = {', '.join(f'{t:.4f}' for t in timed)}",
        f"conc refutation in pass 0 = {refute_s!r} s, counted as {refutation!r} s",
        f"gen_plays_per_s = {_rate(first, 'gen', 'legal')!r} 1/s (pass 0)",
        f"check_plays_per_s = {_rate(first, 'check', 'legal')!r} 1/s (pass 0, legal corpora)",
        f"refute_plays_per_s = {_rate(first, 'check', 'perturbed')!r} 1/s "
        "(pass 0, perturbed corpora, blow-ups included)",
        f"conc refute_ms_per_play p50 = {median(refute_ms)!r} ms, max = "
        f"{refute_ms[-1] if refute_ms else 0.0!r} ms, samples = {len(refute_ms)}",
        f"budget_exceeded = {budget0} in pass 0",
        f"failed_ops (failed + budget-exceeded reconstructions) = "
        f"{ctx.checks.failed + budget0}",
    ]
    return {"run_s": median(timed) + refutation}


def traced(ctx, plan, deadline: float):
    """Pass 0 untraced, then pass 0 traced on the same inputs, stopping
    between cells once ``ctx.seconds`` have passed; the checker probe then
    runs the public checkers on the reconstructed plays."""
    pl, tracer = ctx.playlab, ctx.tracer
    untraced, _ = run_pass(ctx, plan, "u")
    check_pass(ctx, untraced)
    tracer.enabled = True
    steps, _ = run_pass(ctx, plan, "t", time.perf_counter() + ctx.seconds)
    tracer.enabled = False
    check_pass(ctx, steps)
    arenas = {f"o{o}w{w}": pl.make_arena(pl.uniform_tree(o, w)) for o, w in ARENAS}
    checkers = {"seq": pl.play.check_sequential, "conc": pl.play.check_concurrent}
    tracer.enabled = True
    verdicts = []
    with tracer.span("bench.checker_probe"):
        for cell, plays in ctx.hooks.reconstructions.items():
            label, lang = cell.split(".")
            verdicts += [checkers[lang](arenas[label], play).legal for play in plays]
    tracer.enabled = False
    ctx.checks.require("reconstructed plays pass the public checker", all(verdicts))
    extra = {"trace.overhead_s": sum(s.run.wall for s in steps)
             - sum(s.run.wall for s in untraced[:len(steps)])}
    for label, lang, _ in plan:
        cell = f"{label}.{lang}"
        mine = [s for s in steps if s.cell == cell and s.verdicts]
        legal = [s for s in mine if s.kind == "legal"]
        plays = sum(s.count for s in legal)
        extra[f"play.ambiguous_share.{cell}"] = (
            sum(s.verdicts["ambiguous"] for s in legal) / plays if plays else 0.0
        )
        extra[f"play.budget_exceeded.{cell}"] = _budget(mine)
    return 1, extra
