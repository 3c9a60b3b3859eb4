"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_pairs, main
from repro.errors import ReproError


@pytest.fixture
def data_prefix(tmp_path, capsys):
    prefix = tmp_path / "flights"
    code = main(
        ["generate", "flights", "--rows", "3000", "--seed", "3",
         "--out", str(prefix)]
    )
    assert code == 0
    capsys.readouterr()
    return prefix


@pytest.fixture
def model_prefix(data_prefix, tmp_path, capsys):
    prefix = tmp_path / "model"
    code = main(
        [
            "build",
            "--data", str(data_prefix),
            "--pairs", "fl_time:distance",
            "--budget", "20",
            "--iterations", "5",
            "--out", str(prefix),
        ]
    )
    assert code == 0
    capsys.readouterr()
    return prefix


class TestArgParser:
    def test_all_experiment_names_accepted(self):
        from repro.cli import build_arg_parser

        parser = build_arg_parser()
        for name in (
            "fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
            "compression", "latency", "solver", "variance", "strategy",
        ):
            args = parser.parse_args(["experiment", name])
            assert args.name == name
            assert args.scale is None

    def test_scale_flag(self):
        from repro.cli import build_arg_parser

        args = build_arg_parser().parse_args(
            ["experiment", "fig3", "--scale", "small"]
        )
        assert args.scale == "small"

    def test_unknown_experiment_rejected(self):
        from repro.cli import build_arg_parser

        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["experiment", "fig9"])

    def test_command_required(self):
        from repro.cli import build_arg_parser

        with pytest.raises(SystemExit):
            build_arg_parser().parse_args([])


class TestParsePairs:
    def test_empty(self):
        assert _parse_pairs("") == []

    def test_multiple(self):
        assert _parse_pairs("a:b, c:d") == [("a", "b"), ("c", "d")]

    def test_malformed(self):
        with pytest.raises(ReproError, match="attrA:attrB"):
            _parse_pairs("ab")


class TestGenerate:
    def test_writes_files(self, data_prefix):
        assert data_prefix.with_suffix(".schema.json").exists()
        assert data_prefix.with_suffix(".columns.npz").exists()

    def test_round_trip(self, data_prefix):
        from repro.data.serialize import load_relation

        relation = load_relation(data_prefix)
        assert relation.num_rows == 3000
        assert relation.schema.sizes() == [307, 54, 54, 62, 81]

    def test_particles(self, tmp_path, capsys):
        prefix = tmp_path / "particles"
        assert main(
            ["generate", "particles", "--rows", "500", "--out", str(prefix)]
        ) == 0
        from repro.data.serialize import load_relation

        relation = load_relation(prefix)
        assert relation.num_rows == 1500  # 3 snapshots


class TestBuildAndQuery:
    def test_build_writes_model(self, model_prefix):
        assert model_prefix.with_suffix(".json").exists()
        assert model_prefix.with_suffix(".npz").exists()

    def test_scalar_query(self, model_prefix, capsys):
        code = main(
            [
                "query",
                "--model", str(model_prefix),
                "--sql", "SELECT COUNT(*) FROM R WHERE origin_state = 'CA'",
            ]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value >= 0.0

    def test_group_query(self, model_prefix, capsys):
        code = main(
            [
                "query",
                "--model", str(model_prefix),
                "--sql",
                "SELECT origin_state, COUNT(*) AS cnt FROM R "
                "GROUP BY origin_state ORDER BY cnt DESC LIMIT 3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        counts = [float(line.rsplit("\t", 1)[1]) for line in lines]
        assert counts == sorted(counts, reverse=True)

    def test_rounded_query(self, model_prefix, capsys):
        code = main(
            [
                "query", "--rounded",
                "--model", str(model_prefix),
                "--sql",
                "SELECT COUNT(*) FROM R WHERE origin_state = 'CA' "
                "AND dest_state = 'NY' AND fl_date = 5",
            ]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == int(value)

    def test_batch_file(self, model_prefix, tmp_path, capsys):
        queries = tmp_path / "queries.sql"
        queries.write_text(
            "-- repeated-equivalent workload\n"
            "SELECT COUNT(*) FROM R WHERE distance >= 20\n"
            "\n"
            "SELECT COUNT(*) FROM R WHERE origin_state = 'CA'\n"
            "SELECT origin_state, COUNT(*) AS cnt FROM R "
            "GROUP BY origin_state ORDER BY cnt DESC LIMIT 2\n"
        )
        code = main(
            ["query", "--model", str(model_prefix), "--file", str(queries)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # one result line per query, in order
        assert float(lines[0]) >= 0.0
        assert float(lines[1]) >= 0.0
        assert ";" in lines[2]  # grouped rows collapse onto one line

    def test_batch_stdin(self, model_prefix, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("SELECT COUNT(*) FROM R\nSELECT COUNT(*) FROM R\n"),
        )
        code = main(["query", "--model", str(model_prefix), "--file", "-"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == lines[1]

    def test_batch_empty_file_reports_error(self, model_prefix, tmp_path, capsys):
        queries = tmp_path / "empty.sql"
        queries.write_text("-- nothing here\n")
        code = main(
            ["query", "--model", str(model_prefix), "--file", str(queries)]
        )
        assert code == 1
        assert "no queries" in capsys.readouterr().err

    def test_sql_and_file_mutually_exclusive(self, model_prefix, capsys):
        code = main(
            [
                "query",
                "--model", str(model_prefix),
                "--sql", "SELECT COUNT(*) FROM R",
                "--file", "queries.sql",
            ]
        )
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_explain(self, model_prefix, capsys):
        code = main(
            [
                "query", "--explain",
                "--model", str(model_prefix),
                "--sql",
                "SELECT COUNT(*) FROM R WHERE distance >= 20 AND distance <= 40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "normalize:" in out
        assert "route:" in out
        assert "execute:" in out

    def test_info(self, model_prefix, capsys):
        assert main(["info", "--model", str(model_prefix)]) == 0
        out = capsys.readouterr().out
        assert "statistics" in out
        assert "polynomial" in out

    def test_bad_pair_spec_reports_error(self, data_prefix, tmp_path, capsys):
        code = main(
            [
                "build",
                "--data", str(data_prefix),
                "--pairs", "nonsense",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestServeCli:
    def test_bench_serve_json_report(self, model_prefix, capsys):
        code = main(
            [
                "bench-serve",
                "--model", str(model_prefix),
                "--clients", "2",
                "--requests", "10",
                "--json",
            ]
        )
        assert code == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert report["requests"] == 20
        assert report["errors"] == 0
        assert report["qps"] > 0

    def test_bench_serve_writes_report_file(self, model_prefix, tmp_path, capsys):
        out = tmp_path / "BENCH_cli.json"
        code = main(
            [
                "bench-serve",
                "--model", str(model_prefix),
                "--clients", "2",
                "--requests", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        import json

        report = json.loads(out.read_text())
        assert report["requests"] == 10
        assert "report written" in capsys.readouterr().out

    def test_bench_serve_validates_flags(self, model_prefix, capsys):
        code = main(
            ["bench-serve", "--model", str(model_prefix), "--clients", "0"]
        )
        assert code == 1
        assert "--clients" in capsys.readouterr().err

        code = main(
            ["bench-serve", "--model", str(model_prefix), "--max-queue", "0"]
        )
        assert code == 1
        assert "--max-queue" in capsys.readouterr().err

    def test_serve_source_flag_errors(self, tmp_path, capsys):
        code = main(["bench-serve", "--store", str(tmp_path / "models")])
        assert code == 1
        assert "--name" in capsys.readouterr().err

        code = main(["bench-serve"])
        assert code == 1
        assert "--model" in capsys.readouterr().err

    def test_ping_unreachable_server(self, capsys):
        # Port 1 on localhost: reliably refused, no server there.
        code = main(["ping", "--port", "1"])
        assert code == 1
        assert "transport error" in capsys.readouterr().err

    def test_ping_running_server(self, model_prefix, capsys):
        from repro.core.sharding import load_model
        from repro.serve import ServeConfig, ServerThread, SummaryServer

        server = SummaryServer(
            load_model(str(model_prefix)), config=ServeConfig()
        )
        with ServerThread(server):
            code = main(
                ["ping", "--port", str(server.port), "--json"]
            )
        assert code == 0
        import json

        pong = json.loads(capsys.readouterr().out)
        assert pong["ok"] is True
        assert pong["version"] == 0
        assert pong["latency_ms"] > 0

    def test_metrics_prometheus_text(self, model_prefix, capsys):
        from repro.core.sharding import load_model
        from repro.obs import parse_prometheus
        from repro.serve import ServeClient, ServeConfig, ServerThread, SummaryServer

        server = SummaryServer(
            load_model(str(model_prefix)), config=ServeConfig()
        )
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                client.call("ping")
            code = main(["metrics", "--port", str(server.port)])
        assert code == 0
        parsed = parse_prometheus(capsys.readouterr().out)
        assert "repro_requests_total" in parsed["types"]
        ping_key = ("repro_requests_total", (("op", "ping"),))
        assert parsed["samples"][ping_key] >= 1

    def test_metrics_json_snapshot(self, model_prefix, capsys):
        import json

        from repro.core.sharding import load_model
        from repro.serve import ServeConfig, ServerThread, SummaryServer

        server = SummaryServer(
            load_model(str(model_prefix)), config=ServeConfig()
        )
        with ServerThread(server):
            code = main(
                ["metrics", "--port", str(server.port), "--json", "--traces"]
            )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["snapshot"]["repro_requests_total"]["type"] == "counter"
        assert "traces" in payload

    def test_top_once(self, model_prefix, capsys):
        from repro.core.sharding import load_model
        from repro.serve import ServeClient, ServeConfig, ServerThread, SummaryServer

        server = SummaryServer(
            load_model(str(model_prefix)), config=ServeConfig()
        )
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                client.call("ping")
            code = main(["top", "--port", str(server.port), "--once"])
        assert code == 0
        out = capsys.readouterr().out
        assert "requests" in out
        assert "ping" in out

    def test_metrics_unreachable_server(self, capsys):
        code = main(["metrics", "--port", "1"])
        assert code == 1
        assert "transport error" in capsys.readouterr().err
