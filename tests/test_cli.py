"""Batch runner: config validation, commands, exit codes, CSV determinism."""

import configparser
import textwrap
from fractions import Fraction

import pytest

from degcalc.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION, RunConfig,
                         load_config, main, run_selftest)
from degcalc.errors import ConfigError

F = Fraction


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def parse(text):
    parser = configparser.ConfigParser()
    parser.read_string(textwrap.dedent(text))
    return RunConfig(parser)


HYDROGEN_SPECTRUM = """
    [run]
    command = spectrum
    [problem]
    n = 3
    gamma = 1/2
    gamma_prime = -1/2
    potential = -1,-1,0
    l = 0
    [grid]
    s_min = -10
    s_max = 8
    points = 1500
    [solve]
    num_eigs = 2
"""


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse("[run]\ncommand = classify\n")
        assert cfg.n == 3 and cfg.gamma == F(1, 2)
        assert cfg.num_eigs == 2 and cfg.points == 4000

    def test_rational_literals_exact(self):
        cfg = parse("""
            [run]
            command = classify
            [problem]
            gamma = 3/2
            gamma_prime = -1/2
            potential = -1,-3,0
        """)
        assert cfg.gamma == F(3, 2)
        assert cfg.potential.min_p() == -3

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse("[run]\ncommand = classify\n[bogus]\nx = 1\n")

    def test_unknown_key_names_offender(self):
        with pytest.raises(ConfigError, match="smoothing"):
            parse("[run]\ncommand = classify\n[grid]\nsmoothing = 3\n")

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse("[run]\ncommand = frobnicate\n")

    def test_missing_command(self):
        with pytest.raises(ConfigError):
            parse("[problem]\nn = 3\n")

    @pytest.mark.parametrize("line", ["gamma = nan", "gamma_prime = -inf",
                                      "potential = 1,-inf,0"])
    def test_non_finite_number_rejected(self, line):
        with pytest.raises(ConfigError, match="finite"):
            parse(f"[run]\ncommand = classify\n[problem]\n{line}\n")

    def test_malformed_number(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse("[run]\ncommand = classify\n[problem]\ngamma = abc\n")

    def test_malformed_term_list(self):
        with pytest.raises(ConfigError, match="potential"):
            parse("[run]\ncommand = classify\n"
                  "[problem]\npotential = -1,-1\n")

    def test_grid_order_enforced(self):
        with pytest.raises(ConfigError):
            parse("[run]\ncommand = spectrum\n[grid]\ns_min = 5\ns_max = -5\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.ini")


class TestMain:
    def test_classify(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
            [run]
            command = classify
            [problem]
            gamma = 3/2
            gamma_prime = -3/2
            potential = -1,-3,0
        """)
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "schr4 rewrite, c_{3/2,1/2} calculus" in out
        assert (tmp_path / "classify.txt").exists()

    def test_membership(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\ncommand = membership\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert "overall: PASS" in capsys.readouterr().out

    def test_spectrum_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HYDROGEN_SPECTRUM)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["--config", cfg, "--out", str(out2)]) == EXIT_OK
        b1 = (out1 / "spectrum.csv").read_bytes()
        assert b1 == (out2 / "spectrum.csv").read_bytes()
        first = b1.decode().splitlines()[1].split(",")
        assert abs(float(first[2]) + 0.25) < 1e-3

    def test_flow_csv(self, tmp_path):
        cfg = write_config(tmp_path, """
            [run]
            command = flow
            [flow]
            weight = 1,1,0
            s = 0.5
            x_values = 1.0;2.0
        """)
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "flow.csv").read_text().strip().splitlines()
        assert lines[0] == "s,x,sigma_s_x"
        assert len(lines) == 3

    def test_parametrix(self, tmp_path):
        cfg = write_config(tmp_path, """
            [run]
            command = parametrix
            [problem]
            gamma = -1
            gamma_prime = 1
            potential = 1,2,0
            [parametrix]
            orders = 0;1
            cutoffs = 4
        """)
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "parametrix.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\ncommand = classify\n"
                                     "[grid]\nwat = 1\n")
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "membership"])
    def test_non_finite_exponents_exit_code(self, tmp_path, capsys, command):
        # classify used to print c_{inf,inf} and membership to loop forever
        cfg = write_config(tmp_path, f"""
            [run]
            command = {command}
            [problem]
            gamma = inf
            gamma_prime = -inf
            potential = 1,-inf,0
        """)
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err

    def test_precondition_exit_code(self, tmp_path, capsys):
        # potential exponents inconsistent with the declared gamma
        cfg = write_config(tmp_path, """
            [run]
            command = classify
            [problem]
            gamma = 2
            potential = -1,-1,0
        """)
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        assert "precondition" in capsys.readouterr().err

    def test_selftest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\ncommand = selftest\n")
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "--verbose"]) == EXIT_OK
        assert "all checks passed" in capsys.readouterr().out


class TestSelftest:
    def test_all_checks_pass(self):
        assert run_selftest() == []
