"""Command-line front end.

Subcommands: gen, check, perturb, train, eval, experiment, plot.  Exit
codes: 0 success, 1 domain error (bad file contents, illegal plays,
mismatched model/corpus), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus as corpuslib
from . import experiment as exp
from . import play as playlib
from . import seqmodel
from .arena import UnknownMoveError, make_arena, parse_type


class CliError(Exception):
    """Domain error surfaced to the user with exit code 1."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")


def _ratio(text: str) -> float:
    try:
        value = float(text)
        if 0 < value <= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="playlab",
        description="Generate, check, perturb, and model plays over type-derived arenas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random legal-play corpus")
    gen.add_argument("--arena", required=True, help='type expression, e.g. "unit -> unit"')
    gen.add_argument("--lang", required=True, choices=playlib.LANGUAGES)
    gen.add_argument("--count", type=_positive_int, required=True)
    gen.add_argument("--max-len", type=_positive_int, default=corpuslib.MAX_LEN)
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
    pert.add_argument("--ratio", type=_ratio, default=0.1)
    pert.add_argument("--seed", type=int, required=True)
    pert.add_argument("--require-illegal", action="store_true",
                      help="re-roll until no pointer reconstruction is legal")
    pert.add_argument("--out", help="corpus file (default: stdout)")

    train = sub.add_parser("train", help="train an LSTM language model on a corpus")
    train.add_argument("--corpus", required=True)
    train.add_argument("--out", required=True, help="model container path")
    train.add_argument("--seed", type=int, required=True)
    defaults = seqmodel.ModelConfig
    train.add_argument("--embed-dim", type=_positive_int, default=defaults.embed_dim)
    train.add_argument("--hidden-dim", type=_positive_int, default=defaults.hidden_dim)
    train.add_argument("--layers", type=_positive_int, default=defaults.layers)
    train.add_argument("--unroll", type=_positive_int, default=defaults.unroll)
    train.add_argument("--batch", type=_positive_int, default=defaults.batch)
    train.add_argument("--epochs", type=_positive_int, default=defaults.epochs)

    ev = sub.add_parser("eval", help="perplexity of a model on a corpus")
    ev.add_argument("--model", required=True)
    ev.add_argument("--corpus", required=True)

    run = sub.add_parser("experiment", help="run a full experiment grid")
    run.add_argument("mode", choices=[*exp.TEST_MODES, "both"],
                     help="both trains each cell once and tests it on both sets")
    run.add_argument("--grid", choices=["desk", "full"], default="desk")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out-dir", default=".", help="output directory (default: .)")
    run.add_argument("--threads", type=_positive_int, default=1)
    run.add_argument("--epochs", type=_positive_int, help="override the grid's epoch count")

    plot = sub.add_parser("plot", help="render figures from a report CSV")
    plot.add_argument("--report", required=True)
    plot.add_argument("--out-dir", default=".")
    return parser


def _write_corpus(corpus: corpuslib.Corpus, path: str | None) -> None:
    if path is None:
        sys.stdout.write(corpuslib.corpus_text(corpus))
    else:
        corpuslib.write_corpus(corpus, path)


def _cmd_gen(args) -> int:
    arena = make_arena(parse_type(args.arena))
    corpus = corpuslib.generate_corpus(
        arena, args.lang, args.count, args.max_len, args.seed,
        complete_only=args.complete_only,
    )
    _write_corpus(corpus, args.out)
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
    mutated = corpuslib.perturb_corpus(
        corpus, args.ratio, args.seed, require_illegal=args.require_illegal
    )
    _write_corpus(mutated, args.out)
    return 0


def _cmd_train(args) -> int:
    corpus = corpuslib.read_corpus(args.corpus)
    vocab = corpuslib.build_vocab(make_arena(parse_type(corpus.arena_spec)))
    config = seqmodel.ModelConfig(
        vocab_size=len(vocab),
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        layers=args.layers,
        unroll=args.unroll,
        batch=args.batch,
        epochs=args.epochs,
        seed=args.seed,
    )
    model = seqmodel.init_model(config)
    ids = vocab.encode(t for seq in corpus.plays for t in seq)

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
    if args.epochs is not None:
        spec = replace(spec, epochs=args.epochs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    modes = exp.TEST_MODES if args.mode == "both" else (args.mode,)
    reports = exp.run_grid(
        spec, modes, threads=args.threads,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    for mode, report in reports.items():
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
    # a failed cell is recorded in every mode's report; name it once
    failures = reports[modes[0]].failures
    for label, message in failures:
        print(f"failed cell {label}: {message}", file=sys.stderr)
    return 1 if failures else 0


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
