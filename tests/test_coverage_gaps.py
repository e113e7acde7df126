"""Targeted tests for remaining coverage gaps across the library."""

from repro.__main__ import main as cli_main


class TestCliExperimentPaths:
    def test_sar_accuracy_command(self, capsys):
        assert cli_main(["sar-accuracy"]) == 0
        out = capsys.readouterr().out
        assert "uncertainty high/final" in out
        assert "0.99" in out

    def test_fig6_command(self, capsys):
        assert cli_main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "max trajectory deviation" in out
        assert "Security EDDI latency" in out

    def test_seed_override(self, capsys):
        assert cli_main(["fig7", "--seed", "17"]) == 0
        out = capsys.readouterr().out
        assert "landing error" in out
