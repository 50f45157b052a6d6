"""Command-line front end.

Subcommands: gen, check, perturb, train, eval, experiment, plot.  Exit
codes: 0 success, 1 domain error (bad file contents, illegal plays,
mismatched model/corpus), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import corpus as corpuslib
from . import experiment as exp
from . import play as playlib
from . import seqmodel
from .arena import UnknownMoveError, make_arena, parse_type


class CliError(Exception):
    """Domain error surfaced to the user with exit code 1."""


def _default_out_dir() -> str:
    return os.environ.get("PLAYLAB_OUT_DIR", ".")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="playlab",
        description="Generate, check, perturb, and model plays over type-derived arenas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random legal-play corpus")
    gen.add_argument("--arena", required=True, help='type expression, e.g. "unit -> unit"')
    gen.add_argument("--lang", required=True, choices=playlib.LANGUAGES)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--max-len", type=int, default=50)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--complete-only", action="store_true",
                     help="re-roll plays until no questions are left pending")
    gen.add_argument("--out", help="corpus file (default: stdout)")

    check = sub.add_parser("check", help="check plays for legality")
    check.add_argument("file", help="corpus file or pointed-play file")
    check.add_argument("--lang", choices=playlib.LANGUAGES,
                       help="override the language (required for pointed files)")
    check.add_argument("--arena", help="type expression (required for pointed files)")

    pert = sub.add_parser("perturb", help="apply random token edits to a corpus")
    pert.add_argument("file", help="corpus file")
    pert.add_argument("--ratio", type=float, default=0.1)
    pert.add_argument("--seed", type=int, required=True)
    pert.add_argument("--require-illegal", action="store_true",
                      help="re-roll until no pointer reconstruction is legal")
    pert.add_argument("--out", help="corpus file (default: stdout)")

    train = sub.add_parser("train", help="train an LSTM language model on a corpus")
    train.add_argument("--corpus", required=True)
    train.add_argument("--out", required=True, help="model container path")
    train.add_argument("--seed", type=int, required=True)
    train.add_argument("--embed-dim", type=int, default=200)
    train.add_argument("--hidden-dim", type=int, default=200)
    train.add_argument("--layers", type=int, default=2)
    train.add_argument("--unroll", type=int, default=20)
    train.add_argument("--batch", type=int, default=20)
    train.add_argument("--epochs", type=int, default=13)
    train.add_argument("--lr-schedule", default="",
                       help="comma-separated per-epoch rates (default: 1.0 x4 then halved)")
    train.add_argument("--max-grad-norm", type=float, default=5.0)
    train.add_argument("--init-scale", type=float, default=0.1)

    ev = sub.add_parser("eval", help="perplexity of a model on a corpus")
    ev.add_argument("--model", required=True)
    ev.add_argument("--corpus", required=True)

    run = sub.add_parser("experiment", help="run a full experiment grid")
    run.add_argument("mode", choices=["perturb", "cross", "both"],
                     help="both runs perturb, then cross")
    run.add_argument("--grid", choices=["desk", "full"], default="desk")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out-dir", default=_default_out_dir(),
                     help="output directory (default: $PLAYLAB_OUT_DIR or .)")
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--epochs", type=int, help="override the grid's epoch count")

    plot = sub.add_parser("plot", help="render figures from a report CSV")
    plot.add_argument("--report", required=True)
    plot.add_argument("--out-dir", default=_default_out_dir())
    return parser


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_gen(args) -> int:
    arena = make_arena(parse_type(args.arena))
    corpus = corpuslib.generate_corpus(
        arena, args.lang, args.count, args.max_len, args.seed,
        complete_only=args.complete_only,
    )
    _write_text(corpuslib.corpus_text(corpus), args.out)
    return 0


def _is_corpus_file(path: str) -> bool:
    with open(path, "r", encoding="utf-8") as f:
        return f.readline().startswith("#version")


def _cmd_check(args) -> int:
    counts = dict.fromkeys(("legal", "illegal", "ambiguous"), 0)
    if _is_corpus_file(args.file):
        corpus = corpuslib.read_corpus(args.file)
        arena = make_arena(parse_type(args.arena or corpus.arena_spec))
        lang = args.lang or corpus.language
        for i, seq in enumerate(corpus.plays, start=1):
            tokens = [t for t in seq if t != corpuslib.EOP]
            try:
                found = playlib.justification_assignments(arena, lang, tokens, limit=2)
            except playlib.SearchBudgetExceeded:
                print(f"play {i}: ambiguous (search budget exceeded)")
                counts["ambiguous"] += 1
                continue
            verdict = "illegal" if not found else "ambiguous" if len(found) > 1 else "legal"
            print(f"play {i}: {verdict}")
            counts[verdict] += 1
    else:
        if not args.arena or not args.lang:
            raise CliError("pointed-play files need --arena and --lang")
        arena = make_arena(parse_type(args.arena))
        checker = playlib.checker_for(args.lang)
        text = Path(args.file).read_text(encoding="utf-8")
        for i, play in enumerate(playlib.parse_pointed_file(text), start=1):
            verdict = checker(arena, play)
            if verdict.legal:
                print(f"play {i}: legal")
                counts["legal"] += 1
            else:
                print(f"play {i}: illegal {verdict.rule} at {verdict.index}")
                counts["illegal"] += 1
    print(" ".join(f"{k}={n}" for k, n in counts.items()), file=sys.stderr)
    return 1 if counts["illegal"] or counts["ambiguous"] else 0


def _cmd_perturb(args) -> int:
    corpus = corpuslib.read_corpus(args.file)
    arena = make_arena(parse_type(corpus.arena_spec))
    mutated = corpuslib.perturb_corpus(
        corpus, arena, args.ratio, args.seed, require_illegal=args.require_illegal
    )
    _write_text(corpuslib.corpus_text(mutated), args.out)
    return 0


def _cmd_train(args) -> int:
    corpus = corpuslib.read_corpus(args.corpus)
    vocab = corpuslib.build_vocab(make_arena(parse_type(corpus.arena_spec)))
    schedule = tuple(float(r) for r in args.lr_schedule.split(",") if r)
    config = seqmodel.ModelConfig(
        vocab_size=len(vocab),
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        layers=args.layers,
        unroll=args.unroll,
        batch=args.batch,
        epochs=args.epochs,
        lr_schedule=schedule,
        max_grad_norm=args.max_grad_norm,
        init_scale=args.init_scale,
        seed=args.seed,
    )
    model = seqmodel.init_model(config)
    ids = np.concatenate([vocab.encode(seq) for seq in corpus.plays])

    def progress(epoch, log):
        mean_ppl = sum(log) / len(log)
        print(f"epoch {epoch}: windows={len(log)} mean_window_ppl={mean_ppl:.4f}")

    seqmodel.train_model(model, ids, progress=progress)
    seqmodel.save_model(model, args.out)
    print(f"saved {args.out} ({model.param_count()} parameters)")
    return 0


def _cmd_eval(args) -> int:
    model = seqmodel.load_model(args.model)
    corpus = corpuslib.read_corpus(args.corpus)
    vocab = corpuslib.build_vocab(make_arena(parse_type(corpus.arena_spec)))
    if len(vocab) != model.config.vocab_size:
        raise CliError(
            f"model vocabulary size {model.config.vocab_size} does not match "
            f"corpus arena vocabulary size {len(vocab)}"
        )
    result = seqmodel.perplexity(model, [vocab.encode(seq) for seq in corpus.plays])
    print(f"PPL={result.perplexity!r}")
    return 0


def _cmd_experiment(args) -> int:
    spec = exp.ExperimentSpec.full(args.seed) if args.grid == "full" else exp.ExperimentSpec.desk(args.seed)
    if args.epochs:
        spec = replace(spec, epochs=args.epochs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runners = {
        "perturb": exp.run_perturbation_experiment,
        "cross": exp.run_cross_language_experiment,
    }
    failed = False
    for mode in runners if args.mode == "both" else [args.mode]:
        report = runners[mode](
            spec, threads=args.threads, progress=lambda msg: print(msg, file=sys.stderr)
        )
        csv_path = exp.emit_report(report, out_dir / f"report_{mode}.csv")
        print(f"report: {csv_path}")
        if report.cells:
            for path in exp.emit_figure(report, out_dir / mode):
                print(f"figure: {path}")
        for cell in report.cells:
            print(
                f"{mode} {cell.label()}: train={cell.train_ppl:.3f} "
                f"validation={cell.validation_ppl:.3f} test={cell.test_ppl:.3f} "
                f"(val/train={cell.validation_over_train:.2f}, "
                f"test/val={cell.test_over_validation:.2f})"
            )
        for label, message in report.failures:
            print(f"failed cell {label}: {message}", file=sys.stderr)
        failed = failed or bool(report.failures)
    return 1 if failed else 0


def _cmd_plot(args) -> int:
    report = exp.parse_report(args.report)
    for path in exp.emit_figure(report, args.out_dir):
        print(f"figure: {path}")
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "perturb": _cmd_perturb,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (
        CliError,
        ValueError,  # covers TypeSyntaxError, CorpusFormatError, ModelFormatError, ...
        UnknownMoveError,
        playlib.SearchBudgetExceeded,
        OSError,
        ArithmeticError,  # FloatingPointError when training diverges
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
