"""Command-line front end.

Subcommands: gen, check, perturb, train, eval, experiment, plot.  Exit
codes: 0 success, 1 domain error (bad file contents, illegal plays,
mismatched model/corpus), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import corpus as corpuslib
from . import experiment as exp
from . import play as playlib
from . import seqmodel
from .arena import UnknownMoveError, make_arena, parse_type

# the ModelConfig fields `train` has a flag for: the corpus's arena fixes
# vocab_size, and seed is a required flag
TRAIN_FIELDS = [
    f.name for f in fields(seqmodel.ModelConfig) if f.name not in ("vocab_size", "seed")
]


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
    check.add_argument("--arena", help="type expression (pointed files only, and required there)")

    pert = sub.add_parser("perturb", help="apply random token edits to a corpus")
    pert.add_argument("file", help="corpus file")
    pert.add_argument("--ratio", type=_ratio, default=corpuslib.PERTURB_RATIO)
    pert.add_argument("--seed", type=int, required=True)
    pert.add_argument("--require-illegal", action="store_true",
                      help="re-roll until no pointer reconstruction is legal")
    pert.add_argument("--out", help="corpus file (default: stdout)")

    train = sub.add_parser("train", help="train an LSTM language model on a corpus")
    train.add_argument("--corpus", required=True)
    train.add_argument("--out", required=True, help="model container path")
    train.add_argument("--seed", type=int, required=True)
    for name in TRAIN_FIELDS:
        train.add_argument(f"--{name.replace('_', '-')}", type=_positive_int,
                           default=getattr(seqmodel.ModelConfig, name))

    ev = sub.add_parser("eval", help="perplexity of a model on a corpus")
    ev.add_argument("--model", required=True)
    ev.add_argument("--corpus", required=True)

    run = sub.add_parser("experiment", help="run a full experiment grid")
    run.add_argument("mode", choices=[*exp.TEST_MODES, "both"],
                     help="both trains each cell once and tests it on both sets")
    run.add_argument("--grid", choices=["desk", "full"], default="desk")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out-dir", default=".", help="output directory (default: .)")
    run.add_argument("--threads", type=_positive_int, default=1,
                     help="worker processes that run cells (default: 1, cells run in this one)")
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
    if _is_corpus_file(args.file):
        if args.arena is not None:
            raise CliError("--arena is for pointed-play files; a corpus file names its arena")
        corpus = corpuslib.read_corpus(args.file)
        arena, lang = corpus.arena, args.lang or corpus.language
        verdicts = (playlib.reconstruction_verdict(arena, lang, seq[:-1]) for seq in corpus.plays)
    else:
        if not args.arena or not args.lang:
            raise CliError("pointed-play files need --arena and --lang")
        arena = make_arena(parse_type(args.arena))
        checker = playlib.checker_for(args.lang)
        plays = playlib.parse_pointed_file(Path(args.file).read_text(encoding="utf-8"))
        for i, play in enumerate(plays, start=1):  # every move, before any verdict
            for pm in play:
                if pm.move not in arena:
                    raise CliError(f"play {i}: {UnknownMoveError(pm.move)}")
        verdicts = (checker(arena, play) for play in plays)
    counts = dict.fromkeys(playlib.VERDICTS, 0)
    for i, verdict in enumerate(verdicts, start=1):  # each printed as soon as it is found
        print(f"play {i}: {verdict}")
        counts[str(verdict).split()[0]] += 1
    print(" ".join(f"{k}={n}" for k, n in counts.items()), file=sys.stderr)
    return 0 if counts[playlib.LEGAL] == sum(counts.values()) else 1


def _cmd_perturb(args) -> int:
    corpus = corpuslib.read_corpus(args.file)
    mutated = corpuslib.perturb_corpus(
        corpus, args.ratio, args.seed, require_illegal=args.require_illegal
    )
    _write_corpus(mutated, args.out)
    return 0


def _cmd_train(args) -> int:
    corpus = corpuslib.read_corpus(args.corpus)
    vocab = corpuslib.build_vocab(corpus.arena)
    sizes = {name: getattr(args, name) for name in TRAIN_FIELDS}
    config = seqmodel.ModelConfig(vocab_size=len(vocab), seed=args.seed, **sizes)
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
    vocab = corpuslib.build_vocab(corpus.arena)
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
        OSError,
        ArithmeticError,  # FloatingPointError when training diverges
        MemoryError,  # a model too large to allocate
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
