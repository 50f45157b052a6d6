import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import playlab
import playlab.experiment as exp
from playlab.arena import make_arena, parse_type
from playlab.cli import _build_parser, main
from playlab.corpus import MAX_LEN, PERTURB_RATIO, build_vocab, read_corpus
from playlab.play import format_pointed
from playlab.seqmodel import ModelConfig, init_model, load_model, save_model

from conftest import PAR_COMPOSITION_PLAY, SEQ_COMPOSITION_PLAY, TINY_SPEC, rewrite_config

TWO_ARG = "unit -> unit -> unit"

# training runs that diverge, as (seqmodel attribute, source of its
# replacement given the original): a step that overflows the parameters, and
# an initialisation so large that the first window's loss overflows; kept as
# source so a fresh interpreter can apply the same patch
DIVERGING = [
    ("learning_rate", "lambda real: lambda epoch: 1e308"),
    ("INIT_SCALE", "lambda real: 1e6"),
]
DIVERGING_TRAIN_ARGS = ["--seed", "6", "--embed-dim", "8", "--hidden-dim", "8", "--layers", "1",
                        "--unroll", "4", "--batch", "4", "--epochs", "1"]
TRAIN_FLAGS = ["--corpus", "--out", "--seed", "--embed-dim", "--hidden-dim", "--layers",
               "--unroll", "--batch", "--epochs"]

SUBPROCESS_ENV = dict(
    os.environ, PYTHONPATH=str(Path(playlab.__file__).resolve().parent.parent)
)


def gen_corpus(tmp_path, name="c.plays", arena="unit", lang="seq", count=30,
               max_len=10, seed=4, extra=()):
    path = tmp_path / name
    code = main([
        "gen", "--arena", arena, "--lang", lang, "--count", str(count),
        "--max-len", str(max_len), "--seed", str(seed), "--out", str(path), *extra,
    ])
    assert code == 0
    return path


class TestGen:
    def test_stdout(self, capsys):
        assert main(["gen", "--arena", "unit", "--lang", "seq",
                     "--count", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#version 1\n#arena unit\n#language seq\n#seed 1\n#count 3\n")
        assert len(out.splitlines()) == 8

    def test_max_len_default(self, monkeypatch, capsys):
        seen = []
        real = playlab.corpus.generate_corpus

        def recording(arena, lang, count, max_len, seed, **kwargs):
            seen.append(max_len)
            return real(arena, lang, count, max_len, seed, **kwargs)

        monkeypatch.setattr(playlab.corpus, "generate_corpus", recording)
        assert main(["gen", "--arena", "unit", "--lang", "seq",
                     "--count", "1", "--seed", "0"]) == 0
        assert seen == [MAX_LEN]

    def test_file_deterministic(self, tmp_path):
        a = gen_corpus(tmp_path, "a.plays", seed=9)
        b = gen_corpus(tmp_path, "b.plays", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_complete_only(self, tmp_path):
        path = gen_corpus(tmp_path, arena=TWO_ARG, count=10, extra=["--complete-only"])
        for seq in read_corpus(path).plays:
            assert seq.count("q@ε") == seq.count("a@ε") == 1

    def test_complete_only_needs_two_moves(self, capsys):
        assert main(["gen", "--arena", TWO_ARG, "--lang", "seq", "--count", "2",
                     "--max-len", "1", "--seed", "0", "--complete-only"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a complete play needs max_len >= 2, got 1\n"

    def test_bad_type_is_domain_error(self, capsys):
        assert main(["gen", "--arena", "unit -> bool", "--lang", "seq",
                     "--count", "1", "--seed", "0"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        deep = "(" * 1200 + "unit" + ")" * 1200
        assert main(["gen", "--arena", deep, "--lang", "seq", "--count", "1", "--seed", "0"]) == 1
        assert capsys.readouterr().err == (
            "error: parentheses nested too deeply (at position 0)\n"
        )

    def test_failed_write_keeps_old_corpus(self, tmp_path, capsys, disk_full_midway):
        path = tmp_path / "c.plays"
        path.write_bytes(b"old corpus bytes")
        assert main(["gen", "--arena", "unit", "--lang", "seq", "--count", "3",
                     "--seed", "1", "--out", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert path.read_bytes() == b"old corpus bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["c.plays"]


class TestCheck:
    def test_generated_seq_corpus_is_legal(self, tmp_path, capsys):
        path = gen_corpus(tmp_path, arena=TWO_ARG, lang="seq", count=12)
        assert main(["check", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"play {i}: legal" for i in range(1, 13)]

    def test_search_budget_exceeded_is_ambiguous(self, tmp_path, capsys, monkeypatch):
        path = gen_corpus(tmp_path, arena=TWO_ARG, lang="seq", count=4)
        monkeypatch.setattr(playlab.play, "SEARCH_BUDGET", 1)
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            f"play {i}: ambiguous (search budget exceeded)" for i in range(1, 5)
        ]
        assert captured.err == "legal=0 illegal=0 ambiguous=4\n"

    def test_each_verdict_is_written_before_the_next_search(self, tmp_path, monkeypatch):
        path = gen_corpus(tmp_path, arena=TWO_ARG, lang="conc", count=6)
        search = playlab.play.justification_assignments
        out = io.StringIO()
        lines_at_search = []

        def counting_search(*args, **kwargs):
            lines_at_search.append(out.getvalue().count("\n"))
            return search(*args, **kwargs)

        monkeypatch.setattr(playlab.play, "justification_assignments", counting_search)
        with contextlib.redirect_stdout(out):
            main(["check", str(path)])
        assert lines_at_search == [0, 1, 2, 3, 4, 5]
        assert out.getvalue().count("\n") == 6

    def test_generated_conc_corpus_never_illegal(self, tmp_path, capsys):
        # elision can make pointers ambiguous, but some reconstruction exists
        path = gen_corpus(tmp_path, arena=TWO_ARG, lang="conc", count=12)
        main(["check", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12
        verdicts = {line.split(": ")[1] for line in lines}
        assert verdicts <= {"legal", "ambiguous"}

    def test_arena_flag_is_for_pointed_files(self, tmp_path, capsys):
        path = gen_corpus(tmp_path, arena="unit -> unit", count=5, seed=1)
        assert main(["check", str(path), "--arena", "unit"]) == 1
        assert capsys.readouterr() == (
            "", "error: --arena is for pointed-play files; a corpus file names its arena\n"
        )

    @pytest.mark.parametrize("lang", ["seq", "conc"])
    def test_tokens_are_looked_up_not_parsed(self, tmp_path, capsys, monkeypatch, lang):
        path = gen_corpus(tmp_path, arena=TWO_ARG, lang=lang, count=12)
        code = main(["check", str(path)])
        before = code, capsys.readouterr()

        def refuse(token):
            raise AssertionError(f"parsed {token!r}")

        monkeypatch.setattr(playlab.play, "parse_token", refuse)
        assert (main(["check", str(path)]), capsys.readouterr()) == before

    def test_language_override(self, tmp_path, capsys):
        # sequential plays stay legal under the concurrent rules
        path = gen_corpus(tmp_path, arena=TWO_ARG, lang="seq", count=8)
        assert main(["check", str(path), "--lang", "conc"]) == 0

    def test_illegal_and_ambiguous_rows(self, tmp_path, capsys):
        path = tmp_path / "c.plays"
        path.write_text(
            "#version 1\n#arena unit -> unit\n#language conc\n#seed 0\n#count 2\n"
            "a@ε $\n"
            "q@ε q@1 q@1 a@1 a@1 a@ε $\n",
            encoding="utf-8",
        )
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "play 1: illegal",
            "play 2: ambiguous",
        ]

    def test_duplicate_questions_illegal_sequentially(self, tmp_path, capsys):
        path = tmp_path / "c.plays"
        path.write_text(
            "#version 1\n#arena unit -> unit\n#language seq\n#seed 0\n#count 1\n"
            "q@ε q@1 q@1 a@1 a@1 a@ε $\n",
            encoding="utf-8",
        )
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == ["play 1: illegal"]

    def test_pointed_file_verdicts(self, tmp_path, capsys):
        path = tmp_path / "plays.txt"
        path.write_text(
            format_pointed(SEQ_COMPOSITION_PLAY) + "\n\n"
            + format_pointed(PAR_COMPOSITION_PLAY) + "\n",
            encoding="utf-8",
        )
        assert main(["check", str(path), "--arena", TWO_ARG, "--lang", "conc"]) == 0
        assert capsys.readouterr().out.splitlines() == ["play 1: legal", "play 2: legal"]
        assert main(["check", str(path), "--arena", TWO_ARG, "--lang", "seq"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "play 1: legal",
            "play 2: illegal alternation at 2",
        ]

    def test_count_line_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "c.plays"
        path.write_text(
            "#version 1\n#arena unit -> unit\n#language conc\n#seed 0\n#count 3\n"
            "q@ε a@ε $\n"
            "a@ε $\n"
            "q@ε q@1 q@1 a@1 a@1 a@ε $\n",
            encoding="utf-8",
        )
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3  # stdout stays one verdict per play
        assert captured.err == "legal=1 illegal=1 ambiguous=1\n"
        pointed = tmp_path / "plays.txt"
        pointed.write_text(
            format_pointed(SEQ_COMPOSITION_PLAY) + "\n\n" + format_pointed(PAR_COMPOSITION_PLAY),
            encoding="utf-8",
        )
        assert main(["check", str(pointed), "--arena", TWO_ARG, "--lang", "seq"]) == 1
        assert capsys.readouterr().err == "legal=1 illegal=1 ambiguous=0\n"

    def test_pointed_move_outside_arena_stops_before_any_verdict(self, tmp_path, capsys):
        path = tmp_path / "plays.txt"
        path.write_text("q@ε 0 *\na@ε 1 0\n\nq@ε 0 *\nq@9 1 0\n", encoding="utf-8")
        assert main(["check", str(path), "--arena", "unit -> unit", "--lang", "seq"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: play 2: move q@9 is not a move of this arena\n"

    def test_non_canonical_pointed_token_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "plays.txt"
        path.write_text("q@ε 0 *\nq@01 1 0\n", encoding="utf-8")
        assert main(["check", str(path), "--arena", "unit -> unit", "--lang", "seq"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: malformed move token 'q@01' in 'q@01 1 0'\n"

    @pytest.mark.parametrize("line", ["q@1 +1 0_0", "q@1 \u0661 0"])
    def test_non_canonical_pointed_number_is_domain_error(self, tmp_path, capsys, line):
        path = tmp_path / "plays.txt"
        path.write_text(f"q@ε 0 *\n{line}\n", encoding="utf-8")
        assert main(["check", str(path), "--arena", "unit -> unit", "--lang", "seq"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        one_line = r"error: line 2: malformed number '[^']+' in " + re.escape(repr(line))
        assert re.fullmatch(one_line + "\n", captured.err), captured.err

    def test_pointed_file_needs_arena_and_lang(self, tmp_path, capsys):
        path = tmp_path / "plays.txt"
        path.write_text(format_pointed(SEQ_COMPOSITION_PLAY) + "\n", encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert "pointed-play files need --arena and --lang" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/x.plays"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestPerturb:
    def test_ratio_default_is_the_experiments(self):
        args = _build_parser().parse_args(["perturb", "c.plays", "--seed", "1"])
        assert args.ratio == PERTURB_RATIO == exp.PERTURB_RATIO

    def test_round_trip(self, tmp_path):
        src = gen_corpus(tmp_path, arena=TWO_ARG, count=15, max_len=20)
        out = tmp_path / "p.plays"
        assert main(["perturb", str(src), "--seed", "2", "--out", str(out)]) == 0
        mutated = read_corpus(out)
        original = read_corpus(src)
        assert mutated.arena_spec == original.arena_spec
        assert len(mutated.plays) == 15
        assert mutated.plays != original.plays

    def test_deterministic(self, tmp_path, capsys):
        src = gen_corpus(tmp_path, arena=TWO_ARG, count=10, max_len=20)
        assert main(["perturb", str(src), "--seed", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["perturb", str(src), "--seed", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_header_kept_as_written(self, tmp_path, capsys):
        src = tmp_path / "c.plays"
        src.write_text(
            "#version 1\n#arena unit->unit\n#language seq\n#seed 0\n#count 2\n"
            "q@ε q@1 a@1 a@ε $\nq@ε a@ε $\n",
            encoding="utf-8",
        )
        out = tmp_path / "p.plays"
        assert main(["perturb", str(src), "--seed", "2", "--out", str(out)]) == 0
        assert out.read_bytes().splitlines()[1] == b"#arena unit->unit"
        main(["check", str(out)])
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert sum(int(kv.split("=")[1]) for kv in captured.err.split()) == 2

    def test_empty_play_is_named(self, tmp_path, capsys):
        src = tmp_path / "c.plays"
        src.write_text(
            "#version 1\n#arena unit\n#language seq\n#seed 0\n#count 2\nq@ε a@ε $\n$\n",
            encoding="utf-8",
        )
        assert main(["perturb", str(src), "--seed", "2"]) == 1
        assert capsys.readouterr().err == "error: play 2: cannot perturb an empty sequence\n"

    def test_require_illegal_fails_check(self, tmp_path, capsys):
        src = gen_corpus(tmp_path, arena=TWO_ARG, count=10, max_len=20)
        out = tmp_path / "p.plays"
        assert main(["perturb", str(src), "--seed", "3", "--require-illegal",
                     "--out", str(out)]) == 0
        assert main(["check", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert all(line.endswith("illegal") for line in lines)


class TestTrainEval:
    def train_tiny(self, tmp_path, capsys, corpus_path):
        model_path = tmp_path / "m.model"
        code = main([
            "train", "--corpus", str(corpus_path), "--out", str(model_path),
            "--seed", "6", "--embed-dim", "8", "--hidden-dim", "8", "--layers", "1",
            "--unroll", "4", "--batch", "4", "--epochs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 1: windows=" in out and "epoch 2: windows=" in out
        assert f"saved {model_path}" in out
        return model_path

    def test_train_then_eval(self, tmp_path, capsys):
        corpus_path = gen_corpus(tmp_path, count=120, max_len=8)
        model_path = self.train_tiny(tmp_path, capsys, corpus_path)
        assert main(["eval", "--model", str(model_path),
                     "--corpus", str(corpus_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PPL=")
        assert float(out[4:]) > 1.0

    def test_eval_vocab_mismatch(self, tmp_path, capsys):
        corpus_path = gen_corpus(tmp_path, count=120, max_len=8)
        model_path = self.train_tiny(tmp_path, capsys, corpus_path)
        other = gen_corpus(tmp_path, "o.plays", arena=TWO_ARG, count=5)
        assert main(["eval", "--model", str(model_path), "--corpus", str(other)]) == 1
        assert "does not match" in capsys.readouterr().err

    def test_eval_non_integer_config_is_domain_error(self, tmp_path, capsys):
        corpus_path = gen_corpus(tmp_path, count=5)
        model_path = tmp_path / "m.model"
        save_model(init_model(ModelConfig(vocab_size=3, embed_dim=4, hidden_dim=4)), model_path)
        rewrite_config(model_path, embed_dim=4.0)
        assert main(["eval", "--model", str(model_path), "--corpus", str(corpus_path)]) == 1
        assert capsys.readouterr().err == (
            "error: bad config block: embed_dim must be an integer, got 4.0\n"
        )

    def test_defaults_come_from_model_config(self, tmp_path, capsys):
        corpus_path = gen_corpus(tmp_path, count=200, max_len=8)
        model_path = tmp_path / "m.model"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(model_path),
                     "--seed", "6", "--epochs", "1"]) == 0
        vocab = build_vocab(make_arena(parse_type("unit")))
        assert load_model(model_path).config == ModelConfig(
            vocab_size=len(vocab), epochs=1, seed=6
        )

    def test_corpus_without_plays_is_domain_error(self, tmp_path, capsys):
        corpus_path = tmp_path / "empty.plays"
        corpus_path.write_text(
            "#version 1\n#arena unit\n#language seq\n#seed 1\n#count 0\n", encoding="utf-8"
        )
        code = main(["train", "--corpus", str(corpus_path),
                     "--out", str(tmp_path / "m.model"), "--seed", "6"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: corpus too small: need at least 420 tokens, got 0\n"
        )
        assert not (tmp_path / "m.model").exists()

    def test_model_too_large_to_allocate_is_domain_error(self, tmp_path, capsys):
        # 2.13 PiB of parameters: past the address space, so numpy's
        # allocation fails at once without touching memory
        corpus_path = gen_corpus(tmp_path, arena="unit -> unit", count=50)
        code = main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "m.bin"),
                     "--seed", "0", "--hidden-dim", "5000000"])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: Unable to allocate [^\n]*\n", err), err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would print a second line
    @pytest.mark.parametrize("diverge", DIVERGING)
    def test_diverging_train_is_domain_error(self, tmp_path, capsys, monkeypatch, diverge):
        corpus_path = gen_corpus(tmp_path, count=120, max_len=8)
        name, source = diverge
        patched = eval(source)
        monkeypatch.setattr(playlab.seqmodel, name, patched(getattr(playlab.seqmodel, name)))
        code = main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "m.model"),
                     *DIVERGING_TRAIN_ARGS])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]* (at|after) window \d+[^\n]*\n", err), err
        assert not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize("diverge", DIVERGING)
    def test_diverging_train_prints_one_line(self, tmp_path, diverge):
        # a fresh interpreter shows numpy's RuntimeWarnings, which pytest hides
        corpus_path = gen_corpus(tmp_path, count=120, max_len=8)
        name, source = diverge
        script = (
            "import sys\n"
            "import playlab.seqmodel as seqmodel\n"
            "from playlab.cli import main\n"
            f"seqmodel.{name} = ({source})(seqmodel.{name})\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script,
             "train", "--corpus", str(corpus_path), "--out", str(tmp_path / "m.model"),
             *DIVERGING_TRAIN_ARGS],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert result.returncode == 1
        one_line = r"error: [^\n]* (at|after) window \d+[^\n]*\n"
        assert re.fullmatch(one_line, result.stderr), result.stderr
        assert not (tmp_path / "m.model").exists()

    def test_size_flags_are_the_model_config_fields(self):
        settable = [f for f in dataclasses.fields(ModelConfig)
                    if f.name not in ("vocab_size", "seed")]
        required = ["train", "--corpus", "c.plays", "--out", "m.model", "--seed", "1"]
        args = vars(_build_parser().parse_args(required))
        assert set(args) - {"command", "corpus", "out", "seed"} == {f.name for f in settable}
        for f in settable:
            assert args[f.name] == f.default
            flag = "--" + f.name.replace("_", "-")
            assert getattr(_build_parser().parse_args([*required, flag, "3"]), f.name) == 3

    def test_help_lists_the_flags(self, capsys):
        assert main(["train", "--help"]) == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {*TRAIN_FLAGS, "--help"}

    @pytest.mark.parametrize("flag", ["--lr-schedule", "--max-grad-norm", "--init-scale"])
    def test_fixed_hyperparameters_are_not_flags(self, tmp_path, capsys, flag):
        assert main(["train", "--corpus", str(tmp_path / "missing.plays"),
                     "--out", str(tmp_path / "m.model"), "--seed", "6", flag, "0.5"]) == 2
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err


# a bare flag belongs to `experiment`; the others name their command
COUNT_FLAGS = [
    "--epochs", "--threads", "gen --count", "gen --max-len",
    *(f"train --{name}" for name in
      ("embed-dim", "hidden-dim", "layers", "unroll", "batch", "epochs")),
]


class TestExperiment:
    @pytest.fixture()
    def tiny_desk(self, monkeypatch):
        from dataclasses import replace

        monkeypatch.setattr(
            exp.ExperimentSpec, "desk",
            classmethod(lambda cls, seed=0: replace(TINY_SPEC, seed=seed)),
        )

    def test_perturb_mode_outputs(self, tmp_path, capsys, tiny_desk):
        code = main(["experiment", "perturb", "--seed", "5",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert (tmp_path / "report_perturb.csv").exists()
        assert (tmp_path / "perturb" / "ppl_seq_100.svg").exists()
        assert "report:" in captured.out and "figure:" in captured.out
        assert "cell seq/order1/width1/n100: start" in captured.err

    def test_cross_mode_with_epoch_override(self, tmp_path, capsys, tiny_desk):
        code = main(["experiment", "cross", "--seed", "5", "--epochs", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = exp.parse_report(tmp_path / "report_cross.csv")
        assert len(report.cells) == 4

    def test_out_dir_defaults_to_cwd(self, tmp_path, capsys, tiny_desk, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "perturb", "--seed", "5"]) == 0
        assert (tmp_path / "report_perturb.csv").exists()
        assert (tmp_path / "perturb" / "ppl_seq_100.svg").exists()

    def test_both_modes(self, tmp_path, capsys, tiny_desk):
        args = ["--seed", "5", "--epochs", "1"]
        assert main(["experiment", "both", *args, "--out-dir", str(tmp_path / "both")]) == 0
        out = capsys.readouterr().out
        for mode in ("perturb", "cross"):
            assert main(["experiment", mode, *args, "--out-dir", str(tmp_path / mode)]) == 0
            csv_name = f"report_{mode}.csv"
            assert (tmp_path / "both" / csv_name).read_bytes() == (
                tmp_path / mode / csv_name
            ).read_bytes()
            assert (tmp_path / "both" / mode / "ppl_seq_100.svg").exists()
            assert f"{mode} seq/order1/width1/n100: train=" in out
        assert out.count("val/train=") == 8 and out.count("test/val=") == 8

    def test_both_trains_each_cell_once(self, tmp_path, capsys, tiny_desk, monkeypatch):
        trained = []
        real = exp.train_cell_model

        def counting(spec, *cell):
            trained.append(cell)
            return real(spec, *cell)

        monkeypatch.setattr(exp, "train_cell_model", counting)
        assert main(["experiment", "both", "--seed", "5", "--out-dir", str(tmp_path)]) == 0
        assert trained == [(lang, 1, width, 100) for lang in ("seq", "conc") for width in (1, 5)]

    @pytest.mark.parametrize("value, flag", [
        *((value, flag) for value in ("0", "-1", "x") for flag in COUNT_FLAGS),
        *((value, "perturb --ratio") for value in ("0", "1.5", "-1", "nan", "abc")),
    ])
    def test_counts_below_one_are_usage_errors(self, tmp_path, capsys, monkeypatch,
                                               flag, value):
        monkeypatch.setattr(exp, "run_grid", lambda *a, **k: pytest.fail("grid ran"))
        command, _, flag = flag.rpartition(" ")
        argv = {
            "": ["experiment", "perturb", "--seed", "5", "--out-dir", str(tmp_path)],
            "gen": ["gen", "--arena", "unit -> unit", "--lang", "seq", "--count", "1",
                    "--seed", "5", "--out", str(tmp_path / "c.plays")],
            "train": ["train", "--corpus", str(tmp_path / "missing.plays"),
                      "--out", str(tmp_path / "m.model"), "--seed", "5"],
            "perturb": ["perturb", str(tmp_path / "missing.plays"), "--seed", "5",
                        "--out", str(tmp_path / "p.plays")],
        }[command]
        assert main([*argv, flag, value]) == 2
        wanted = "must be in (0, 1]" if flag == "--ratio" else "must be at least 1"
        assert f"{flag}: {wanted}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_cell_reported_and_exit_1(self, tmp_path, capsys, monkeypatch):
        def diverging(spec, modes, lang, order, width, size):
            if (lang, order, width) == ("conc", 2, 5):
                raise FloatingPointError("non-finite loss at window 0")
            return [exp.ReportCell(lang, order, width, size, 2.0, 2.5, 8.0)
                    for mode in modes]

        monkeypatch.setattr(exp, "run_cell", diverging)
        failed = "failed cell conc/order2/width5/n10000: FloatingPointError: non-finite loss at window 0"
        for mode, reports in (("perturb", ["perturb"]), ("both", ["perturb", "cross"])):
            code = main(["experiment", mode, "--seed", "5", "--out-dir", str(tmp_path)])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out.count("test/val=") == 7 * len(reports)
            assert captured.err.splitlines().count(failed) == 1
            for name in reports:
                assert len(exp.parse_report(tmp_path / f"report_{name}.csv").cells) == 7


class TestPlot:
    def test_perplexity_below_one_is_domain_error(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        csv_path.write_text(
            "lang,order,width,train_size,set,perplexity\n"
            "seq,1,1,10,train,0.5\nseq,1,1,10,validation,2.5\nseq,1,1,10,test,9.0\n"
        )
        assert main(["plot", "--report", str(csv_path), "--out-dir", str(tmp_path / "figs")]) == 1
        assert "line 2: perplexity must be finite and >= 1, got '0.5'" in capsys.readouterr().err
        assert not (tmp_path / "figs").exists()

    def test_figures_from_csv(self, tmp_path, capsys):
        csv_path = exp.emit_report(
            exp.Report(cells=[
                exp.ReportCell("seq", 1, 1, 10, 2.0, 2.5, 8.0),
                exp.ReportCell("conc", 1, 1, 10, 2.0, 2.5, 8.0),
            ]),
            tmp_path / "r.csv",
        )
        assert main(["plot", "--report", str(csv_path),
                     "--out-dir", str(tmp_path / "figs")]) == 0
        assert (tmp_path / "figs" / "ppl_seq_10.svg").exists()
        assert (tmp_path / "figs" / "ppl_conc_10.svg").exists()
        assert capsys.readouterr().out.count("figure:") == 2


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["gen", "--arena", "unit", "--lang", "seq", "--count", "1"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_console_script(self):
        result = subprocess.run(
            [sys.executable, "-c", "from playlab.cli import main; raise SystemExit(main(['--help']))"],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0
        assert "playlab" in result.stdout
