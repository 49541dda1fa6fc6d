"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "generate",
            "study",
            "calibrate",
            "train",
            "score",
            "serve",
            "loadtest",
            "wetdry",
        ):
            assert command in text

    def test_loadtest_options_registered(self):
        args = build_parser().parse_args(
            [
                "loadtest",
                "models",
                "--profile",
                "mixed",
                "--duration",
                "5",
                "--seed",
                "7",
            ]
        )
        assert args.command == "loadtest"
        assert args.profile == "mixed"
        assert args.duration == 5.0
        assert args.seed == 7
        assert args.rate == 0.0  # closed loop by default

    def test_serve_options_registered(self):
        args = build_parser().parse_args(
            ["serve", "models", "--port", "0", "--max-batch", "8"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.max_batch == 8
        assert args.max_wait_ms == 5.0

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_generate_writes_csvs(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                str(tmp_path / "out"),
                "--segments",
                "400",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        for name in (
            "segments.csv",
            "crash_instances.csv",
            "no_crash_instances.csv",
        ):
            assert (tmp_path / "out" / name).exists()
        assert "wrote 400 segments" in capsys.readouterr().out

    def test_train_then_score(self, tmp_path, capsys):
        model_path = tmp_path / "scorer.json"
        assert (
            main(
                [
                    "train",
                    str(model_path),
                    "--segments",
                    "1200",
                    "--seed",
                    "5",
                    "--threshold",
                    "8",
                ]
            )
            == 0
        )
        assert model_path.exists()
        out_dir = tmp_path / "data"
        main(
            [
                "generate",
                str(out_dir),
                "--segments",
                "400",
                "--seed",
                "6",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "score",
                str(model_path),
                str(out_dir / "segments.csv"),
                "--top",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Top 5 treatment candidates" in out
        assert "expected crash-prone km" in out

    def test_score_json_and_out(self, tmp_path, capsys):
        model_path = tmp_path / "scorer.json"
        assert main(
            ["train", str(model_path), "--segments", "1200", "--seed", "5"]
        ) == 0
        out_dir = tmp_path / "data"
        main(["generate", str(out_dir), "--segments", "400", "--seed", "6"])
        capsys.readouterr()
        scored_csv = tmp_path / "scored.csv"
        code = main(
            [
                "score",
                str(model_path),
                str(out_dir / "segments.csv"),
                "--top", "5",
                "--json",
                "--out", str(scored_csv),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == 8
        assert len(payload["results"]) == 5
        first = payload["results"][0]
        assert set(first) == {
            "rank", "segment_id", "probability", "crash_prone",
        }

        from repro.core.deployment import CrashPronenessScorer
        from repro.datatable import read_csv

        # The JSON carries exactly what the library computes.
        scorer = CrashPronenessScorer.load(model_path)
        table = read_csv(out_dir / "segments.csv")
        assert payload["expected_prone_km"] == scorer.expected_prone_km(
            table
        )
        assert payload["results"] == [
            {
                "rank": s.rank,
                "segment_id": s.segment_id,
                "probability": s.probability,
                "crash_prone": s.crash_prone,
            }
            for s in scorer.treatment_list(table, top=5)
        ]

        scored = read_csv(scored_csv)
        assert scored.n_rows == 400
        assert scored.column_names == [
            "rank", "segment_id", "probability", "crash_prone",
        ]
        probabilities = scored.numeric("probability")
        assert ((probabilities >= 0) & (probabilities <= 1)).all()
        # The CSV is ranked descending and agrees with the JSON head.
        assert float(probabilities[0]) == first["probability"]

    def test_score_refuses_a_stray_token_in_a_numeric_column(
        self, tmp_path, capsys
    ):
        """One non-numeric cell makes the CSV reader type the column
        categorical; scoring it against numeric thresholds would change
        other rows' probabilities, so ``score`` refuses the file: one
        error line naming the column, exit code 2, no traceback."""
        import csv

        model_path = tmp_path / "scorer.json"
        assert main(
            ["train", str(model_path), "--segments", "800", "--seed", "5"]
        ) == 0
        out_dir = tmp_path / "data"
        main(["generate", str(out_dir), "--segments", "200", "--seed", "6"])
        source = out_dir / "segments.csv"
        with open(source, newline="") as handle:
            rows = list(csv.DictReader(handle))
        rows[3]["aadt"] = "unknown"
        with open(source, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        assert main(
            ["score", str(model_path), str(source), "--no-cache"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-study: error: ")
        assert "'aadt'" in line

    def test_score_reports_a_missing_model_file(self, tmp_path, capsys):
        """A user's input error prints one line and exits 2; exit code
        1 is what an SLO violation returns."""
        source = tmp_path / "segments.csv"
        source.write_text("segment_id\n1\n")
        missing = tmp_path / "absent" / "model.json"
        assert main(["score", str(missing), str(source)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-study: error: cannot read scorer file")
        assert str(missing) in line

    def test_loadtest_self_host_and_slo_gate(self, tmp_path, capsys):
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        assert main(
            [
                "train",
                str(model_dir / "cp8.json"),
                "--segments",
                "1200",
                "--seed",
                "5",
            ]
        ) == 0
        capsys.readouterr()
        slo = tmp_path / "slo.json"
        slo.write_text(
            '{"rules": [{"endpoint": "POST /v1/score",'
            ' "max_error_rate": 0.0, "max_p99_ms": 60000}]}'
        )
        code = main(
            [
                "loadtest",
                str(model_dir),
                "--profile",
                "score",
                "--duration",
                "0.6",
                "--warmup",
                "0.2",
                "--segments",
                "400",
                "--seed",
                "7",
                "--slo",
                str(slo),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Load test: profile score" in out
        assert "parity POST /v1/score" in out
        assert "prometheus scrapes" in out

        # An impossible SLO flips the exit code to 1.
        strict = tmp_path / "strict.json"
        strict.write_text(
            '{"rules": [{"endpoint": "POST /v1/score",'
            ' "max_p99_ms": 0.0001}]}'
        )
        code = main(
            [
                "loadtest",
                str(model_dir),
                "--profile",
                "score",
                "--duration",
                "0.4",
                "--warmup",
                "0",
                "--segments",
                "400",
                "--seed",
                "7",
                "--slo",
                str(strict),
            ]
        )
        assert code == 1
        assert "SLO VIOLATION" in capsys.readouterr().out

    def test_loadtest_json_report(self, tmp_path, capsys):
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        assert main(
            [
                "train",
                str(model_dir / "cp8.json"),
                "--segments",
                "1200",
                "--seed",
                "5",
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "loadtest",
                str(model_dir),
                "--profile",
                "mixed",
                "--duration",
                "0.5",
                "--warmup",
                "0",
                "--segments",
                "400",
                "--seed",
                "7",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"] == "mixed"
        assert payload["parity_ok"] is True
        assert payload["seed"] == 7
        assert payload["total_requests"] > 0

    def test_loadtest_requires_one_target(self, capsys):
        assert main(["loadtest"]) == 2
        assert "exactly one target" in capsys.readouterr().err

    def test_wetdry(self, capsys):
        code = main(["wetdry", "--segments", "1500", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wet crashes" in out
        assert "distributions" in out

    def test_study_small(self, capsys):
        code = main(["study", "--segments", "1500", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Phase 1 tree models" in out
        assert "Phase 2 tree models" in out
        assert "mcpv peaks at" in out

    def test_study_jobs_and_timings(self, capsys):
        code = main(
            [
                "study",
                "--segments",
                "1500",
                "--seed",
                "2",
                "--jobs",
                "2",
                "--timings",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Phase 1 tree models" in out
        assert "Stage timings (backend=process, n_jobs=2)" in out
        assert "threshold dataset cache:" in out
        assert "supporting-bayes" in out

    def test_calibrate_small_probe(self, capsys):
        code = main(
            ["calibrate", "--probe", "1500", "--iterations", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "zero share" in out
        assert "P_w(count<=" in out


class TestRoutesCommand:
    def test_routes_parser_registered(self):
        parser = build_parser()
        assert "routes" in parser.format_help()
        args = parser.parse_args(
            [
                "routes", "query", "model.json", "town_000", "town_005",
                "--segments", "900", "--seed", "7", "--alpha", "0.5",
                "--k", "2",
            ]
        )
        assert args.command == "routes"
        assert args.routes_command == "query"
        assert args.alpha == 0.5
        assert args.k == 2

    def test_serve_routes_flags_registered(self):
        args = build_parser().parse_args(
            ["serve", "models", "--routes", "--route-segments", "900"]
        )
        assert args.routes is True
        assert args.route_segments == 900
        assert args.route_seed == 7
        assert args.route_clusters == 8

    def test_routes_end_to_end(self, tmp_path, capsys):
        model_path = tmp_path / "scorer.json"
        assert (
            main(
                [
                    "train", str(model_path),
                    "--segments", "1200", "--seed", "5",
                    "--threshold", "8",
                ]
            )
            == 0
        )
        capsys.readouterr()
        common = [str(model_path), "--segments", "900", "--seed", "7"]
        assert main(["routes", "build", *common]) == 0
        out = capsys.readouterr().out
        assert "towns" in out
        assert main(
            ["routes", "query", *common, "town_000", "town_005", "--json"]
        ) == 0
        body = json.loads(capsys.readouterr().out)
        assert (
            body["safest"]["expected_crashes"]
            <= body["shortest"]["expected_crashes"]
        )
        assert main(
            ["routes", "precompute", *common, "--pairs", "4"]
        ) == 0
        assert "plans" in capsys.readouterr().out
        assert main(["routes", "top-risk", *common, "--top", "3"]) == 0
        assert "E[crashes]" in capsys.readouterr().out
