import dataclasses
import os
import re
import time

import pytest

import playlab.experiment as experiment
from playlab.experiment import (
    BAR_COLORS,
    BAR_SETS,
    CROSS_LANGUAGE,
    CSV_HEADER,
    PERTURBED,
    ExperimentSpec,
    Report,
    ReportCell,
    emit_figure,
    emit_report,
    parse_report,
    run_cell,
    run_cross_language_experiment,
    run_grid,
    run_perturbation_experiment,
    train_cell_model,
)
from playlab.play import CONCURRENT, LANGUAGES, SEQUENTIAL
from playlab.seqmodel import ModelConfig

from conftest import TINY_SPEC

TINY_CELLS = ["seq/order1/width1/n100", "seq/order1/width5/n100",
              "conc/order1/width1/n100", "conc/order1/width5/n100"]


def sample_report():
    return Report(
        cells=[
            ReportCell(SEQUENTIAL, 1, 1, 40, 2.5, 2.75, 9.5),
            ReportCell(SEQUENTIAL, 2, 1, 40, 3.5, 3.75, 30.25),
            ReportCell(CONCURRENT, 1, 1, 40, 2.25, 2.5, 8.125),
        ]
    )


class TestSpec:
    def test_desk_defaults(self):
        spec = ExperimentSpec.desk()
        assert spec.orders == (1, 2)
        assert spec.widths == (1, 5)
        assert spec.train_sizes == (10_000,)
        assert spec.hidden_dim == 128 and spec.epochs == 4

    def test_full_grid(self):
        spec = ExperimentSpec.full(seed=9)
        assert spec.orders == (1, 2, 3)
        assert spec.train_sizes == (10_000, 100_000)
        assert spec.hidden_dim == 200 and spec.epochs == 13
        assert spec.seed == 9

    def test_fixed_grid_axes(self):
        assert ExperimentSpec.languages == LANGUAGES
        assert ExperimentSpec.widths == (1, 5)
        assert [f.name for f in dataclasses.fields(ExperimentSpec)] == [
            "orders", "train_sizes", "eval_size", "hidden_dim", "epochs", "seed"
        ]
        for setting in ({"layers": 1}, {"languages": (SEQUENTIAL,)}, {"widths": (1,)},
                        {"max_len": 10}, {"unroll": 4}, {"batch": 4}):
            with pytest.raises(TypeError):
                ExperimentSpec(**setting)

    def test_model_config_wiring(self):
        # the paper's LSTM shape: 2 layers, unroll 20, batch 20, embedding = hidden
        for spec in (ExperimentSpec.desk(), ExperimentSpec.full(), TINY_SPEC):
            assert spec.model_config(7, seed=12) == ModelConfig(
                vocab_size=7, embed_dim=spec.hidden_dim, hidden_dim=spec.hidden_dim,
                layers=2, unroll=20, batch=20, epochs=spec.epochs, seed=12,
            )

    def test_embed_dim_defaults_to_hidden(self):
        spec = ExperimentSpec(hidden_dim=64)
        assert spec.model_config(5, 0).embed_dim == 64

    @pytest.mark.parametrize("setting, message", [
        ({"orders": ()}, "orders must be non-empty"),
        ({"train_sizes": ()}, "train_sizes must be non-empty"),
        ({"orders": (1, 1)}, "orders must be non-empty without repeats"),
        ({"train_sizes": (100, 100)}, "train_sizes must be non-empty without repeats"),
        ({"orders": (-1,)}, "orders must be >= 0"),
        ({"train_sizes": (0,)}, "train_sizes must be >= 1"),
        ({"eval_size": 0}, "eval_size must be >= 1"),
        ({"hidden_dim": 0}, "hidden_dim must be >= 1"),
        ({"epochs": 0}, "epochs must be >= 1"),
        ({"orders": (1.0,)}, "orders must hold integers"),
        ({"train_sizes": (True,)}, "train_sizes must hold integers"),
        ({"eval_size": 20.0}, "eval_size must hold integers"),
        ({"hidden_dim": True}, "hidden_dim must hold integers"),
        ({"epochs": "1"}, "epochs must hold integers"),
        ({"seed": 0.5}, "seed must hold integers"),
    ], ids=["empty-orders", "empty-sizes", "repeated-order", "repeated-size", "negative-order",
            "zero-size", "zero-eval", "zero-hidden", "zero-epochs", "float-order", "bool-size",
            "float-eval", "bool-hidden", "str-epochs", "float-seed"])
    def test_rejects_a_grid_it_cannot_run(self, monkeypatch, setting, message):
        def no_work(*args):
            raise AssertionError("ran a cell of a grid it cannot run")

        monkeypatch.setattr(experiment, "run_cell", no_work)
        with pytest.raises(ValueError, match=message):
            run_grid(dataclasses.replace(TINY_SPEC, **setting), (PERTURBED,), threads=2)

    def test_accepts_order_0(self):
        assert ExperimentSpec(orders=(0, 1)).orders == (0, 1)


class TestReportCell:
    def test_ratios(self):
        cell = ReportCell(SEQUENTIAL, 1, 1, 10, 2.0, 3.0, 12.0)
        assert cell.test_over_validation == 4.0
        assert cell.validation_over_train == 1.5
        assert cell.values() == (2.0, 3.0, 12.0)
        assert cell.label() == "seq/order1/width1/n10"


class TestRunCell:
    def test_train_cell_model(self):
        model, vocab, train = train_cell_model(TINY_SPEC, SEQUENTIAL, 1, 1, 100)
        assert model.config.vocab_size == len(vocab) == 5
        assert len(train.plays) == 100

    def test_perturbed_cell(self):
        [cell] = run_cell(TINY_SPEC, (PERTURBED,), SEQUENTIAL, 1, 1, 100)
        assert cell.lang == SEQUENTIAL and cell.train_size == 100
        assert all(v >= 1.0 for v in cell.values())

    def test_cross_language_cell(self):
        [cross] = run_cell(TINY_SPEC, (CROSS_LANGUAGE,), SEQUENTIAL, 1, 1, 100)
        [perturbed] = run_cell(TINY_SPEC, (PERTURBED,), SEQUENTIAL, 1, 1, 100)
        assert cross.values()[:2] == perturbed.values()[:2]
        assert cross.test_ppl != perturbed.test_ppl

    def test_unknown_mode(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("trained before checking the modes")

        monkeypatch.setattr(experiment, "train_cell_model", no_training)
        for modes in [("shuffle",), (PERTURBED, "shuffle"), (PERTURBED, PERTURBED)]:
            with pytest.raises(ValueError, match="mode"):
                run_cell(TINY_SPEC, modes, SEQUENTIAL, 1, 1, 100)
            with pytest.raises(ValueError, match="mode"):
                run_grid(TINY_SPEC, modes)

    def test_deterministic(self):
        a = run_cell(TINY_SPEC, (PERTURBED,), SEQUENTIAL, 1, 1, 100)
        b = run_cell(TINY_SPEC, (PERTURBED,), SEQUENTIAL, 1, 1, 100)
        assert a == b

    def test_multi_mode_trains_once(self, monkeypatch):
        calls = []
        real = experiment.train_cell_model

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(experiment, "train_cell_model", counting)
        both = run_cell(TINY_SPEC, (CROSS_LANGUAGE, PERTURBED), SEQUENTIAL, 1, 1, 100)
        assert len(calls) == 1
        singles = [
            run_cell(TINY_SPEC, (mode,), SEQUENTIAL, 1, 1, 100)[0]
            for mode in (CROSS_LANGUAGE, PERTURBED)
        ]
        assert both == singles


class TestGrid:
    def test_perturbation_grid_shape(self):
        messages = []
        report = run_perturbation_experiment(TINY_SPEC, progress=messages.append)
        assert [c.label() for c in report.cells] == TINY_CELLS
        assert report.failures == []
        assert any("start" in m for m in messages)

    def test_cross_language_grid(self):
        report = run_cross_language_experiment(TINY_SPEC)
        assert [c.label() for c in report.cells] == TINY_CELLS

    def test_grid_of_both_modes_matches_single_mode_runs(self):
        messages = []
        reports = run_grid(TINY_SPEC, (PERTURBED, CROSS_LANGUAGE), threads=2,
                           progress=messages.append)
        assert list(reports) == [PERTURBED, CROSS_LANGUAGE]
        assert reports[PERTURBED].cells == run_perturbation_experiment(TINY_SPEC).cells
        assert reports[CROSS_LANGUAGE].cells == run_cross_language_experiment(TINY_SPEC).cells
        assert any(
            re.fullmatch(r"cell seq/order1/width1/n100: train=\S+ validation=\S+ "
                         r"perturb=\S+ cross=\S+", m)
            for m in messages
        )

    def test_failed_cell_recorded_in_every_report(self, monkeypatch):
        def diverging(spec, modes, lang, order, width, size):
            raise FloatingPointError("non-finite loss at window 0")

        monkeypatch.setattr(experiment, "run_cell", diverging)
        reports = run_grid(TINY_SPEC, (PERTURBED, CROSS_LANGUAGE))
        for report in reports.values():
            assert report.cells == []
            assert report.failures == [
                (cell, "FloatingPointError: non-finite loss at window 0") for cell in TINY_CELLS
            ]

    def test_threaded_matches_serial(self, tmp_path):
        # workers compute each cell's bits as this process does, and the
        # report keeps grid order whatever order the cells end in
        texts = set()
        for threads in (1, 2, 3):
            report = run_perturbation_experiment(TINY_SPEC, threads=threads)
            assert [c.label() for c in report.cells] == TINY_CELLS
            texts.add(emit_report(report, tmp_path / f"r{threads}.csv").read_bytes())
        assert len(texts) == 1

    @pytest.mark.parametrize("crash, finished", [
        ("seq/order1/width1/n100", TINY_CELLS[1:]),  # handed out last: the others are done
        ("conc/order1/width5/n100", []),  # handed out first: no other cell is done
    ])
    def test_dead_worker_fails_the_cells_without_result(self, monkeypatch, crash, finished):
        def dying(spec, modes, lang, order, width, size):
            if experiment._label(lang, order, width, size) == crash:
                time.sleep(0.5 if finished else 0)
                os._exit(1)
            time.sleep(0 if finished else 0.5)
            return [ReportCell(lang, order, width, size, 2.0, 2.5, 8.0) for mode in modes]

        def slow_progress(message):  # so a worker can die before the last cell is handed out
            messages.append(message)
            time.sleep(0.1 if message.endswith(": start") else 0)

        monkeypatch.setattr(experiment, "run_cell", dying)
        messages = []
        reports = run_grid(TINY_SPEC, (PERTURBED, CROSS_LANGUAGE), threads=2,
                           progress=slow_progress)
        for report in reports.values():
            assert [c.label() for c in report.cells] == finished
            assert [label for label, _ in report.failures] == [
                c for c in TINY_CELLS if c not in finished]
            assert all(e.startswith("BrokenProcessPool: ") for _, e in report.failures)
        assert any(m.startswith(f"cell {crash}: failed\nTraceback") for m in messages)

    def test_progress_of_worker_processes(self, monkeypatch):
        def diverging(spec, modes, lang, order, width, size):
            if (lang, width) == (CONCURRENT, 5):
                raise FloatingPointError("non-finite loss at window 0")
            return [ReportCell(lang, order, width, size, 2.0, 2.5, 8.0) for mode in modes]

        monkeypatch.setattr(experiment, "run_cell", diverging)
        messages = []
        run_grid(TINY_SPEC, (PERTURBED, CROSS_LANGUAGE), threads=2, progress=messages.append)
        assert len(messages) == 2 * len(TINY_CELLS)
        # handed out largest first: larger arena, then conc before seq
        assert [m for m in messages if m.endswith(": start")] == [
            f"cell {label}: start" for label in ("conc/order1/width5/n100", "seq/order1/width5/n100",
                                                 "conc/order1/width1/n100", "seq/order1/width1/n100")]
        for label in TINY_CELLS:
            mine = [m for m in messages if m.startswith(f"cell {label}: ")]
            assert mine[0] == f"cell {label}: start"
            if label == "conc/order1/width5/n100":
                assert mine[1].startswith(f"cell {label}: failed\nTraceback")
                assert mine[1].endswith("FloatingPointError: non-finite loss at window 0")
            else:
                assert mine[1] == (f"cell {label}: train=2.000 validation=2.500 "
                                   "perturb=8.000 cross=8.000")

    def test_memory_error_recorded_per_cell(self, monkeypatch):
        real = experiment.run_cell

        def flaky(spec, modes, lang, order, width, size):
            if lang == CONCURRENT:
                raise MemoryError("boom")
            return real(spec, modes, lang, order, width, size)

        monkeypatch.setattr(experiment, "run_cell", flaky)
        report = run_perturbation_experiment(TINY_SPEC)
        assert [c.lang for c in report.cells] == [SEQUENTIAL, SEQUENTIAL]
        assert report.failures == [(cell, "out of memory: boom") for cell in TINY_CELLS[2:]]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_any_exception_recorded_per_cell(self, monkeypatch, threads):
        def diverging(spec, modes, lang, order, width, size):
            if (lang, order, width) == (CONCURRENT, 2, 5):
                raise FloatingPointError("non-finite loss at window 0")
            return [ReportCell(lang, order, width, size, 2.0, 2.5, 8.0) for mode in modes]

        monkeypatch.setattr(experiment, "run_cell", diverging)
        messages = []
        report = run_perturbation_experiment(
            ExperimentSpec.desk(5), threads=threads, progress=messages.append
        )
        assert len(report.cells) == 7
        assert report.failures == [
            ("conc/order2/width5/n10000", "FloatingPointError: non-finite loss at window 0")
        ]
        assert any("cell conc/order2/width5/n10000: failed\nTraceback" in m for m in messages)


class TestReportFile:
    def test_header_and_row_count(self, tmp_path):
        path = emit_report(sample_report(), tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "lang,order,width,train_size,set,perplexity"
        assert len(lines) == 1 + 3 * 3

    def test_round_trip_exact_floats(self, tmp_path):
        report = sample_report()
        back = parse_report(emit_report(report, tmp_path / "r.csv"))
        assert [c.values() for c in back.cells] == [c.values() for c in report.cells]
        assert [(c.lang, c.order, c.width, c.train_size) for c in back.cells] == [
            (c.lang, c.order, c.width, c.train_size) for c in report.cells
        ]

    def test_repr_precision_survives(self, tmp_path):
        report = Report(cells=[
            ReportCell(SEQUENTIAL, 1, 1, 10, 2.0000000000000004, 3.1, 7.0)
        ])
        back = parse_report(emit_report(report, tmp_path / "r.csv"))
        assert back.cells[0].train_ppl == 2.0000000000000004

    def test_failed_write_keeps_old_report(self, tmp_path, disk_full_midway):
        path = tmp_path / "r.csv"
        path.write_bytes(b"old report bytes")
        with pytest.raises(OSError):
            emit_report(sample_report(), path)
        assert path.read_bytes() == b"old report bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("lang,set,perplexity\n")
        with pytest.raises(ValueError, match="header"):
            parse_report(path)

    def test_rejects_missing_set(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "lang,order,width,train_size,set,perplexity\n"
            "seq,1,1,10,train,2.0\nseq,1,1,10,test,9.0\n"
        )
        with pytest.raises(ValueError, match="validation"):
            parse_report(path)

    @pytest.mark.parametrize("row, wanted", [
        ("seq,1,1,10,train", "expected 6 fields, got 5"),
        ("seq,1,x,10,train,2.0", "invalid literal for int()"),
        ("seq,1,1,10,train,abc", "could not convert string to float: 'abc'"),
        *((f"seq,1,1,10,train,{value}", f"perplexity must be finite and >= 1, got '{value}'")
          for value in ("0", "-2.0", "nan", "inf", "0.5")),
        ("seq,1,1,10,training,2.0", "unknown or repeated 'training' row for seq/order1/width1/n10"),
        ("seq,1,1,10,test,50.0", "unknown or repeated 'test' row for seq/order1/width1/n10"),
    ])
    def test_rejects_malformed_row(self, tmp_path, row, wanted):
        path = tmp_path / "r.csv"
        path.write_text(
            "lang,order,width,train_size,set,perplexity\n"
            "seq,1,1,10,train,2.0\nseq,1,1,10,validation,2.5\nseq,1,1,10,test,9.0\n"
            f"{row}\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 5: {wanted}")):
            parse_report(path)


class TestFigures:
    def test_one_file_per_language_and_size(self, tmp_path):
        paths = emit_figure(sample_report(), tmp_path)
        assert sorted(p.name for p in paths) == ["ppl_conc_40.svg", "ppl_seq_40.svg"]

    def test_deterministic_bytes(self, tmp_path):
        a = emit_figure(sample_report(), tmp_path / "a")
        b = emit_figure(sample_report(), tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_bars_carry_exact_values(self, tmp_path):
        report = sample_report()
        paths = emit_figure(report, tmp_path)
        seq_svg = next(p for p in paths if p.name == "ppl_seq_40.svg").read_text()
        bars = re.findall(r'data-set="(\w+)" data-value="([^"]+)"', seq_svg)
        want = []
        for cell in report.cells:
            if cell.lang == SEQUENTIAL:
                want += list(zip(BAR_SETS, (repr(v) for v in cell.values())))
        assert bars == want

    def test_colour_convention(self, tmp_path):
        assert BAR_COLORS == {"train": "navy", "validation": "turquoise", "test": "yellow"}
        svg = emit_figure(sample_report(), tmp_path)[0].read_text()
        fills = re.findall(r'fill="(navy|turquoise|yellow)"[^/]*data-set', svg)
        assert fills[:3] == ["navy", "turquoise", "yellow"]

    def test_groups_sorted_by_order_then_width(self, tmp_path):
        svg = next(
            p for p in emit_figure(sample_report(), tmp_path) if "seq" in p.name
        ).read_text()
        labels = re.findall(r">(order \d+, width \d+)</text>", svg)
        assert labels == ["order 1, width 1", "order 2, width 1"]

    def test_log_scale_headroom(self, tmp_path):
        # max value 30.25 needs the 10^2 gridline
        svg = next(
            p for p in emit_figure(sample_report(), tmp_path) if "seq" in p.name
        ).read_text()
        assert "10^2" in svg and "10^3" not in svg

    def test_rejects_empty_report(self, tmp_path):
        with pytest.raises(ValueError):
            emit_figure(Report(), tmp_path)
