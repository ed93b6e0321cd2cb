"""Tests for the command-line interface."""

import socket

import pytest

from repro.cli import build_parser, main
from repro.workloads import sample_workday_mornings

RULES_TEXT = (
    "RULE r1: WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8\n"
    "RULE r2: WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.NewsSubject WITH 0.9\n"
)


@pytest.fixture()
def rules_file(tmp_path):
    path = tmp_path / "rules.prefs"
    path.write_text(RULES_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture()
def history_file(tmp_path):
    log = sample_workday_mornings(episodes=200, seed=3)
    path = tmp_path / "history.jsonl"
    log.save(path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_example_command_parses(self):
        args = build_parser().parse_args(["example"])
        assert args.command == "example"

    def test_rank_command_options(self):
        args = build_parser().parse_args(["rank", "rules.prefs", "--context", "Weekend"])
        assert args.context == ["Weekend"]

    def test_serve_command_options(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--shards", "4", "--request-timeout", "0.5"]
        )
        assert args.command == "serve"
        assert (args.port, args.shards, args.request_timeout) == (0, 4, 0.5)
        assert args.host == "127.0.0.1"
        assert args.max_sessions == 4096


class TestCommands:
    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "channel5_news" in out
        assert "0.6006" in out

    def test_rank_with_certain_context(self, rules_file, capsys):
        assert main(["rank", rules_file, "--context", "Weekend", "--context", "Breakfast"]) == 0
        out = capsys.readouterr().out
        assert "0.6006" in out

    def test_rank_with_uncertain_context(self, rules_file, capsys):
        assert main(["rank", rules_file, "--context", "Weekend", "--context", "Breakfast:0.5"]) == 0
        out = capsys.readouterr().out
        assert "channel5_news" in out

    def test_rank_uncovered_context_warns(self, rules_file, capsys):
        assert main(["rank", rules_file]) == 0
        err = capsys.readouterr().err
        assert "no rule applies" in err

    def test_rank_bad_context_spec_clean_error(self, rules_file, capsys):
        assert main(["rank", rules_file, "--context", "Breakfast:abc"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "probability" in err

    def test_rank_missing_rules_file_clean_error(self, tmp_path, capsys):
        assert main(["rank", str(tmp_path / "nope.prefs")]) == 2
        assert "error: cannot load rule file" in capsys.readouterr().err

    def test_rank_malformed_rules_file_clean_error(self, tmp_path, capsys):
        path = tmp_path / "broken.prefs"
        path.write_text("RULE broken WHEN\n", encoding="utf-8")
        assert main(["rank", str(path)]) == 2
        assert "error: cannot load rule file" in capsys.readouterr().err

    def test_mine(self, history_file, capsys):
        assert main(["mine", history_file, "--min-support", "5", "--min-lift", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "WorkdayMorning" in out
        assert "TrafficBulletin" in out

    def test_mine_thresholds_too_strict(self, history_file, capsys):
        assert main(["mine", history_file, "--min-support", "100000"]) == 1

    def test_serve_missing_rules_file_clean_error(self, tmp_path, capsys):
        code = main(["serve", "--rules", str(tmp_path / "nope.prefs"), "--port", "0"])
        assert code == 2
        assert "cannot load rule file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variable, value",
        [("REPRO_FAULT_RANK_DELAY", "soon"), ("REPRO_FAULT_RANK_ERROR_RATE", "2")],
    )
    def test_serve_malformed_fault_env_clean_error(
        self, variable, value, monkeypatch, capsys
    ):
        monkeypatch.setenv(variable, value)
        assert main(["serve", "--port", "0"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {variable}=")

    def test_serve_has_no_fault_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--fault-rank-delay", "1"])

    def test_serve_has_seventeen_flags(self):
        # The gateway's one dispatch thread and its queue bound are
        # fixed: no flag tunes the off-loop width.
        flags = set(vars(build_parser().parse_args(["serve"]))) - {"command"}
        assert len(flags) == 17

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_serve_on_a_busy_port_clean_error(self, workers, capsys):
        with socket.create_server(("127.0.0.1", 0)) as held:
            port = held.getsockname()[1]
            code = main(["serve", "--port", str(port), "--workers", workers])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: cannot listen on 127.0.0.1:{port}: Address already in use"
        ]

    def test_scaling(self, capsys):
        assert main(["scaling", "--max-rules", "3", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "naive (s)" in out
        assert "naive growth per extra rule" in out
