import re

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
    run_perturbation_experiment,
    train_cell_model,
)
from playlab.play import CONCURRENT, SEQUENTIAL

TINY = ExperimentSpec(
    languages=(SEQUENTIAL,),
    orders=(1,),
    widths=(1,),
    train_sizes=(40,),
    eval_size=20,
    max_len=10,
    hidden_dim=8,
    embed_dim=8,
    layers=1,
    unroll=4,
    batch=4,
    epochs=1,
    seed=3,
)


def sample_report():
    return Report(
        cells=[
            ReportCell(SEQUENTIAL, 1, 1, 40, PERTURBED, 2.5, 2.75, 9.5),
            ReportCell(SEQUENTIAL, 2, 1, 40, PERTURBED, 3.5, 3.75, 30.25),
            ReportCell(CONCURRENT, 1, 1, 40, PERTURBED, 2.25, 2.5, 8.125),
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

    def test_model_config_wiring(self):
        config = TINY.model_config(7, seed=12)
        assert config.vocab_size == 7
        assert config.embed_dim == config.hidden_dim == 8
        assert config.seed == 12

    def test_embed_dim_defaults_to_hidden(self):
        spec = ExperimentSpec(embed_dim=None, hidden_dim=64)
        assert spec.model_config(5, 0).embed_dim == 64


class TestReportCell:
    def test_ratios(self):
        cell = ReportCell(SEQUENTIAL, 1, 1, 10, PERTURBED, 2.0, 3.0, 12.0)
        assert cell.test_over_validation == 4.0
        assert cell.validation_over_train == 1.5
        assert cell.values() == (2.0, 3.0, 12.0)
        assert cell.label() == "seq/order1/width1/n10"


class TestRunCell:
    def test_train_cell_model(self):
        model, vocab, train = train_cell_model(TINY, SEQUENTIAL, 1, 1, 40)
        assert model.config.vocab_size == len(vocab) == 5
        assert len(train.plays) == 40

    def test_perturbed_cell(self):
        cell = run_cell(TINY, PERTURBED, SEQUENTIAL, 1, 1, 40)
        assert cell.test_kind == PERTURBED
        assert cell.lang == SEQUENTIAL and cell.train_size == 40
        assert all(v >= 1.0 for v in cell.values())

    def test_cross_language_cell(self):
        cell = run_cell(TINY, CROSS_LANGUAGE, SEQUENTIAL, 1, 1, 40)
        assert cell.test_kind == CROSS_LANGUAGE

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_cell(TINY, "shuffle", SEQUENTIAL, 1, 1, 40)

    def test_deterministic(self):
        a = run_cell(TINY, PERTURBED, SEQUENTIAL, 1, 1, 40)
        b = run_cell(TINY, PERTURBED, SEQUENTIAL, 1, 1, 40)
        assert a == b


class TestGrid:
    def test_perturbation_grid_shape(self):
        spec = ExperimentSpec(
            languages=(SEQUENTIAL, CONCURRENT), orders=(1,), widths=(1,),
            train_sizes=(40,), eval_size=10, max_len=10,
            hidden_dim=8, embed_dim=8, layers=1, unroll=4, batch=4, epochs=1, seed=5,
        )
        messages = []
        report = run_perturbation_experiment(spec, progress=messages.append)
        assert [c.lang for c in report.cells] == [SEQUENTIAL, CONCURRENT]
        assert report.failures == []
        assert any("start" in m for m in messages)

    def test_cross_language_grid(self):
        report = run_cross_language_experiment(TINY)
        assert len(report.cells) == 1
        assert report.cells[0].test_kind == CROSS_LANGUAGE

    def test_threaded_matches_serial(self):
        serial = run_perturbation_experiment(TINY)
        threaded = run_perturbation_experiment(TINY, threads=2)
        assert serial.cells == threaded.cells

    def test_memory_error_recorded_per_cell(self, monkeypatch):
        real = experiment.run_cell

        def flaky(spec, mode, lang, order, width, size):
            if lang == CONCURRENT:
                raise MemoryError("boom")
            return real(spec, mode, lang, order, width, size)

        spec = ExperimentSpec(
            languages=(SEQUENTIAL, CONCURRENT), orders=(1,), widths=(1,),
            train_sizes=(40,), eval_size=10, max_len=10,
            hidden_dim=8, embed_dim=8, layers=1, unroll=4, batch=4, epochs=1, seed=5,
        )
        monkeypatch.setattr(experiment, "run_cell", flaky)
        report = run_perturbation_experiment(spec)
        assert len(report.cells) == 1 and report.cells[0].lang == SEQUENTIAL
        assert report.failures == [("conc/1/1/40", "out of memory: boom")]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_any_exception_recorded_per_cell(self, monkeypatch, threads):
        def diverging(spec, mode, lang, order, width, size):
            if (lang, order, width) == (CONCURRENT, 2, 5):
                raise FloatingPointError("non-finite loss at window 0")
            return ReportCell(lang, order, width, size, mode, 2.0, 2.5, 8.0)

        monkeypatch.setattr(experiment, "run_cell", diverging)
        messages = []
        report = run_perturbation_experiment(
            ExperimentSpec.desk(5), threads=threads, progress=messages.append
        )
        assert len(report.cells) == 7
        assert report.failures == [
            ("conc/2/5/10000", "FloatingPointError: non-finite loss at window 0")
        ]
        assert any("cell conc/2/5/10000: failed\nTraceback" in m for m in messages)


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
            ReportCell(SEQUENTIAL, 1, 1, 10, PERTURBED, 2.0000000000000004, 3.1, 7.0)
        ])
        back = parse_report(emit_report(report, tmp_path / "r.csv"))
        assert back.cells[0].train_ppl == 2.0000000000000004

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
