"""The experiments CLI (`python -m repro.experiments`)."""

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_single_experiment(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "fig2" in output
        assert "maxIPC" in output
        assert "regenerated in" in output

    def test_motivation(self, capsys):
        assert main(["motivation", "--quick"]) == 0
        assert "kernel fraction" in capsys.readouterr().out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["fig99"])

    def test_table_experiment(self, capsys):
        assert main(["tab2", "--quick"]) == 0
        out = capsys.readouterr().out
        for name in ("cp", "mri-fhd", "tpacf"):
            assert name in out

    @pytest.mark.parametrize("pool", ["persistent", "serial"])
    def test_pool_flag_accepted(self, pool, capsys):
        assert main(["fig2", "--quick", "--pool", pool]) == 0
        assert "fig2" in capsys.readouterr().out

    @pytest.mark.parametrize("pool", ["threads", "fork"])
    def test_unknown_pool_rejected(self, pool, capsys):
        with pytest.raises(SystemExit):
            main(["fig2", "--pool", pool])
        assert "invalid choice" in capsys.readouterr().err
