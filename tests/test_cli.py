"""The command-line interface (python -m repro ...)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_domain(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["domain", "warehouse"])


class TestDomainCommand:
    def test_prints_metrics(self, capsys):
        assert main(["domain", "job", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "Job:" in out and "FldAcc" in out

    def test_tree_flag(self, capsys):
        main(["domain", "job", "--tree"])
        out = capsys.readouterr().out
        assert "[c_" in out  # cluster annotations from pretty()

    def test_html_output(self, tmp_path, capsys):
        target = tmp_path / "out.html"
        main(["domain", "job", "--html", str(target)])
        html = target.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<form>" in html


class TestGenerateAndLabel:
    def test_round_trip(self, tmp_path, capsys):
        corpus = tmp_path / "auto.json"
        assert main(["generate", "auto", "-o", str(corpus), "--seed", "1"]) == 0
        assert corpus.exists()
        document = json.loads(corpus.read_text())
        assert len(document["interfaces"]) == 20

        assert main(["label", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "classification:" in out

    def test_label_to_html(self, tmp_path, capsys):
        corpus = tmp_path / "job.json"
        main(["generate", "job", "-o", str(corpus)])
        target = tmp_path / "form.html"
        main(["label", str(corpus), "--html", str(target)])
        assert "<form>" in target.read_text()


class TestParseCommand:
    def test_parse_html_file(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_text(
            "<form>City <input type='text' name='c'>"
            "<label for='s'>State</label><input id='s' type='text'></form>"
        )
        assert main(["parse", str(page)]) == 0
        out = capsys.readouterr().out
        assert "2 fields" in out and "City" in out

    def test_parse_json_output(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_text("<form>Q <input type='text' name='q'></form>")
        main(["parse", str(page), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data[0]["root"]["children"][0]["label"] == "Q"

    def test_parse_no_forms_fails(self, tmp_path, capsys):
        page = tmp_path / "empty.html"
        page.write_text("<p>nothing</p>")
        assert main(["parse", str(page)]) == 1


class TestReportCommands:
    def test_figure10(self, capsys):
        assert main(["figure10"]) == 0
        out = capsys.readouterr().out
        assert "LI2" in out and "Share" in out

    def test_table6_small_survey(self, capsys):
        assert main(["table6", "--respondents", "1"]) == 0
        out = capsys.readouterr().out
        assert "Airline" in out and "Hotels" in out


class TestSweepCommand:
    def test_sweep_prints_aggregates(self, capsys):
        assert main(["sweep", "--seeds", "0", "--respondents", "1"]) == 0
        out = capsys.readouterr().out
        assert "seeds: [0]" in out
        assert "Airline" in out and "classes" in out


class TestSweepApi:
    def test_sweep_seeds_aggregation(self):
        from repro.experiment import sweep_seeds

        rows = sweep_seeds(seeds=(0,), respondent_count=1)
        assert set(rows) == {
            "airline", "auto", "book", "job", "realestate", "carrental", "hotels"
        }
        row = rows["job"]
        assert row.fld_acc_min <= row.fld_acc_mean
        assert sum(row.classifications.values()) == 1
        assert row.dominant_classification() in (
            "consistent", "weakly_consistent", "inconsistent"
        )


class TestDescribeCommand:
    def test_describe_prints_stats(self, capsys):
        assert main(["describe", "auto"]) == 0
        out = capsys.readouterr().out
        assert "Auto (seed 0): 20 interfaces" in out
        assert "clusters:" in out
        assert "cluster frequencies" in out


class TestBatchCommand:
    def test_labels_many_corpora(self, tmp_path, capsys):
        first = tmp_path / "job.json"
        second = tmp_path / "auto.json"
        main(["generate", "job", "-o", str(first)])
        main(["generate", "auto", "-o", str(second)])
        capsys.readouterr()
        assert main(["batch", str(first), str(second), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "[job.json]" in out and "[auto.json]" in out
        assert "2/2 corpora labeled" in out

    def test_bad_corpus_degrades_not_kills(self, tmp_path, capsys):
        good = tmp_path / "job.json"
        bad = tmp_path / "bad.json"
        main(["generate", "job", "-o", str(good)])
        bad.write_text("{not json")
        capsys.readouterr()
        assert main(["batch", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[job.json]" in out and "ERROR" in out
        assert "1/2 corpora labeled" in out


class TestServeParser:
    def test_serve_defaults(self):
        from repro.service.parallel import default_jobs

        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8777 and args.cache_size == 128
        assert args.jobs == default_jobs()
        assert args.executor == "thread" and args.disk_cache is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cache-size", "4", "--jobs", "2"]
        )
        assert (args.port, args.cache_size, args.jobs) == (0, 4, 2)


class TestLintCommand:
    def test_lint_bad_form_fails(self, tmp_path, capsys):
        page = tmp_path / "bad.html"
        page.write_text(
            "<form>Job Type <input type='text' name='a'>"
            "Type of Job <input type='text' name='b'></form>"
        )
        assert main(["lint", str(page)]) == 1
        out = capsys.readouterr().out
        assert "homonyms/warn" in out

    def test_lint_clean_form_passes(self, tmp_path, capsys):
        page = tmp_path / "good.html"
        page.write_text(
            "<form>Adults <input type='text' name='a'>"
            "Children <input type='text' name='c'></form>"
        )
        assert main(["lint", str(page)]) == 0

    def test_lint_corpus_json(self, tmp_path, capsys):
        corpus = tmp_path / "job.json"
        main(["generate", "job", "-o", str(corpus)])
        code = main(["lint", str(corpus)])
        out = capsys.readouterr().out
        assert "finding(s)" in out
        assert code in (0, 1)

    def test_lint_empty_page_errors(self, tmp_path):
        page = tmp_path / "empty.html"
        page.write_text("<p>no form</p>")
        assert main(["lint", str(page)]) == 1


class TestChaosCommand:
    def test_chaos_parser_defaults(self):
        from repro.service.parallel import default_jobs

        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert (args.plans, args.seed, args.rate) == (10, 0, 0.1)
        assert args.jobs == default_jobs()

    def test_chaos_smoke_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "chaos.json"
        code = main([
            "chaos", "--plans", "2", "--rate", "0.2",
            "--domains", "airline", "-o", str(out_path),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "degradation contract held" in printed
        report = json.loads(out_path.read_text())
        assert report["ok"] is True
        assert report["plans"] == 2
        assert report["anomalies"] == []
