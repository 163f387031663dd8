"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_args(self):
        args = build_parser().parse_args(
            ["count", "--graph", "condmat", "--query", "glet1", "--trials", "2"]
        )
        assert args.graph == "condmat"
        assert args.trials == 2
        assert args.method == "auto"


class TestCommands:
    def test_queries_command(self, capsys):
        assert main(["queries"]) == 0
        out = capsys.readouterr().out
        assert "brain3" in out and "tw=2" in out

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "roadnetca" in out

    def test_plan_command(self, capsys):
        assert main(["plan", "--query", "brain1"]) == 0
        out = capsys.readouterr().out
        assert "plans=2" in out
        assert "cycle" in out

    def test_count_command(self, capsys):
        rc = main(
            ["count", "--graph", "condmat", "--query", "glet1", "--trials", "2", "--seed", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "match estimate" in out

    def test_count_ps_method(self, capsys):
        rc = main(
            ["count", "--graph", "condmat", "--query", "glet1",
             "--trials", "1", "--method", "ps"]
        )
        assert rc == 0

    def test_count_past_int64_is_exact(self, capsys, monkeypatch):
        # the default auto runs the sweep on a cyclic query; a tiny sum
        # limit trips its int64 guard, and the Python-int rerun must print
        # the count the dict ps kernels print
        import repro.counting.vectorized as vec

        monkeypatch.setattr(vec, "_SUM_LIMIT", 1.0)
        args = ["count", "--graph", "condmat", "--query", "glet1", "--trials", "1"]

        def counts(extra):
            assert main(args + extra) == 0
            out = capsys.readouterr().out
            return next(line for line in out.splitlines() if "colorful counts" in line)

        assert counts([]) == counts(["--method", "ps"])

    def test_count_from_edge_list(self, tmp_path, capsys, petersen_graph):
        from repro.graph import write_edge_list

        path = str(tmp_path / "g.txt")
        write_edge_list(petersen_graph, path)
        rc = main(["count", "--graph", path, "--query", "glet1", "--trials", "1"])
        assert rc == 0
