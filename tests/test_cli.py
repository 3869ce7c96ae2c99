"""Batch runner: config validation, commands, exit codes, CSV determinism."""

import configparser
import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from degcalc import cli, schrodinger
from degcalc.cli import (_KEYS, EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_OK,
                         EXIT_PRECONDITION, EXIT_SELFTEST, RunConfig,
                         load_config, main, run_selftest)
from degcalc.errors import ConfigError, ConvergenceError, EndpointEvalError

F = Fraction

README = Path(__file__).resolve().parents[1] / "README.md"


def keys_read_as(kind):
    """(section, key) of every key read as a ``kind`` or a ';'-list of them,
    told by its default."""
    return [(section, key) for section, keys in _KEYS.items()
            for key, (_, default) in keys.items()
            if all(type(x) is kind for x in
                   (default if isinstance(default, tuple) else [default]))]


FLOAT_KEYS = keys_read_as(float)

#: (section, key, line) of every number a config reads, {} marking it: the
#: float keys, the exponents, and each field of the two term lists
NUMBER_FIELDS = ([(s, k, k + " = {}") for s, k in FLOAT_KEYS]
                 + [("problem", k, k + " = {}")
                    for k in ("gamma", "gamma_prime")]
                 + [(s, k, k + " = " + ",".join("{}" if j == i else "1"
                                                for j in range(3)))
                    for s, k in (("problem", "potential"), ("flow", "weight"))
                    for i in range(3)])


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def parse(text):
    parser = configparser.ConfigParser()
    parser.read_string(textwrap.dedent(text))
    return RunConfig(parser)


OSCILLATOR_RESOLVENT = """
    [run]
    command = resolvent
    [problem]
    gamma = -1
    gamma_prime = 1
    potential = 1,2,0
    [resolvent]
    z_real = {z_real}
    mode = {mode}
"""

#: resolvent.txt: z, the distance to the spectrum, then one line per (i, j)
NUMBER = r"[-+0-9.e]+"
RESOLVENT_LINES = [r"z = \(-1\+0j\)", rf"spectrum distance = {NUMBER}"] + [
    rf"i={i} j={j}: coarse {NUMBER}  fine {NUMBER}  ratio {NUMBER}"
    for i in range(2) for j in range(2)]

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

#: n = 3 models at charge and strength 1: (gamma, gamma', potential, exact)
DEEP_MODELS = {
    "hydrogen": ("1/2", "-1/2", "-1,-1,0",
                 lambda nr, l: -1 / (4.0 * (nr + l + 1) ** 2)),
    "oscillator": ("-1", "1", "1,2,0", lambda nr, l: 4.0 * nr + 2 * l + 3),
}


def run_spectrum(tmp_path, model, l, s_min, points, num_eigs=2):
    """Exit code, eigenvalues and exact values of a spectrum run on R^3."""
    gamma, gamma_prime, potential, exact = DEEP_MODELS[model]
    cfg = write_config(tmp_path, f"""
        [run]
        command = spectrum
        [problem]
        n = 3
        gamma = {gamma}
        gamma_prime = {gamma_prime}
        potential = {potential}
        l = {l}
        [grid]
        s_min = {s_min}
        points = {points}
        [solve]
        num_eigs = {num_eigs}
    """)
    code = main(["--config", cfg, "--out", str(tmp_path)])
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()[1:] \
        if code == EXIT_OK else []
    eigs = [float(line.split(",")[2]) for line in lines]
    return code, eigs, [exact(nr, l) for nr in range(len(eigs))]


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
        assert cfg.potential.leading("zero") == (-3, -1)

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

    @pytest.mark.parametrize("section, line", [
        ("flow", "x_values ="), ("flow", "x_values = ; "),
        ("parametrix", "orders ="), ("parametrix", "cutoffs = ;")])
    def test_empty_list_rejected(self, tmp_path, capsys, section, line):
        # an empty list used to write a CSV with only its header, exit 0
        cfg = write_config(tmp_path, f"[run]\ncommand = parametrix\n"
                                     f"[{section}]\n{line}\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        key = line.split()[0]
        assert capsys.readouterr().err == (
            f"config error: key {key!r}: expected at least one value\n")
        assert not list(tmp_path.glob("*.csv"))

    def test_empty_term_list_is_the_zero_function(self):
        cfg = parse("[run]\ncommand = classify\n[problem]\npotential =\n")
        assert cfg.potential.is_zero

    @pytest.mark.parametrize("cutoffs, bad", [
        ("0;-4", "0"), ("4; -8", "-8"), ("1e-400", "1e-400")])
    def test_non_positive_cutoff_rejected(self, tmp_path, capsys, cutoffs,
                                          bad):
        # the band [K/2, K] is empty or reversed: K = 0 used to print
        # residual_ratio=1 and K = -4 residual_ratio=0, both with exit 0
        cfg = write_config(tmp_path, "[run]\ncommand = parametrix\n"
                                     f"[parametrix]\ncutoffs = {cutoffs}\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: key 'cutoffs': expected a number > 0, "
            f"got {bad!r}\n")

    def test_grid_order_enforced(self):
        with pytest.raises(ConfigError):
            parse("[run]\ncommand = spectrum\n[grid]\ns_min = 5\ns_max = -5\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.ini")

    def test_float_keys(self):
        assert sorted(key for _, key in FLOAT_KEYS) == [
            "cutoffs", "s", "s_max", "s_min", "tolerance", "x_values",
            "z_imag", "z_real"]

    def test_readme_config_block_is_the_key_table(self, tmp_path):
        """README's block lists every key of the table and loads as
        written, its inline comments included, to every default."""
        path = tmp_path / "readme.ini"
        path.write_text(README.read_text().split("```ini\n")[1].split("```")[0])
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read(path)
        assert {name: set(parser[name]) for name in parser.sections()} \
            == {name: set(keys) for name, keys in _KEYS.items()}
        cfg = load_config(str(path))
        assert cfg.command == "spectrum"
        for keys in _KEYS.values():
            for key, (_, default) in keys.items():
                if key != "command":  # the one key without a default
                    assert getattr(cfg, key) == default, key

    def test_readme_exit_table_is_the_exit_codes(self):
        section = README.read_text().split("### Exit codes\n")[1]
        table = section.split("\n#")[0]
        rows = [int(code) for code in
                re.findall(r"^\|\s*(\d+)\s*\|", table, re.MULTILINE)]
        assert rows == sorted(getattr(cli, name) for name in dir(cli)
                              if name.startswith("EXIT_"))
        assert {code for code, _ in cli._EXITS.values()} <= set(rows)


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
        header, first = b1.decode().splitlines()[:2]
        assert header == "l,index,eigenvalue,residual,grid_points,s_min,s_max"
        first = first.split(",")
        assert abs(float(first[2]) + 0.25) < 1e-3

    @pytest.mark.parametrize("tolerance, expected", [
        ("1e-14", EXIT_OK), ("1e-20", EXIT_CONVERGENCE)])
    def test_tolerance_below_1e_6_is_compared(self, tmp_path, capsys,
                                              tolerance, expected):
        # the backward errors here are ~1e-16, below 1e-14 and above 1e-20
        cfg = write_config(tmp_path, HYDROGEN_SPECTRUM
                           + f"    tolerance = {tolerance}\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) == expected
        if expected == EXIT_CONVERGENCE:
            assert "backward error" in capsys.readouterr().err

    def test_nan_backward_error_fails_the_guard(self, tmp_path, capsys,
                                                monkeypatch):
        real = cli.assemble_and_solve

        def nan_last(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(
                res, backward_errors=res.backward_errors[:-1] + (math.nan,))

        monkeypatch.setattr(cli, "assemble_and_solve", nan_last)
        cfg = write_config(tmp_path, HYDROGEN_SPECTRUM)
        assert main(["--config", cfg, "--out", str(tmp_path)]) \
            == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "backward errors" in err and "nan" in err

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

    def test_flow_failing_on_a_row_writes_no_csv(self, tmp_path, capsys):
        # for t^20/(1+t)^19, F(1e-17) lies past the float range: the first
        # row fails, and a file opened before it would hold the header only
        cfg = write_config(tmp_path, """
            [run]
            command = flow
            [flow]
            weight = 1,20,-19
            s = 1
            x_values = 1e-17;1
        """)
        assert main(["--config", cfg, "--out", str(tmp_path)]) \
            == EXIT_CONVERGENCE
        assert "convergence failure" in capsys.readouterr().err
        assert not (tmp_path / "flow.csv").exists()

    def test_flow_past_the_float_range(self, tmp_path):
        # sigma_1000(x) = e^1000 x for the default weight t
        cfg = write_config(tmp_path, """
            [run]
            command = flow
            [flow]
            s = 1000
        """)
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "flow.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["inf"] * 5

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

    # default orders: at N = 2 the remainder's denominator overflows, so the
    # ratio is not finite; the run writes no file and warns nothing
    @pytest.mark.parametrize("problem, cutoff", [
        ("", "1e28"),
        ("[problem]\ngamma = -1\ngamma_prime = 1\npotential = 1,2,0\n",
         "1e30")], ids=["hydrogen", "oscillator"])
    def test_parametrix_past_the_float_range(self, tmp_path, capsys, problem,
                                             cutoff):
        cfg = write_config(tmp_path, "[run]\ncommand = parametrix\n"
                           f"{problem}[parametrix]\ncutoffs = {cutoff}\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) \
            == EXIT_CONVERGENCE
        assert capsys.readouterr().err == (
            "convergence failure: residual ratio at N = 2, "
            f"K = {float(cutoff):g} is not finite\n")
        assert not (tmp_path / "parametrix.csv").exists()

    @pytest.mark.parametrize("mode", ["plain", "weighted"])
    def test_resolvent(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path, OSCILLATOR_RESOLVENT.format(
            z_real=-1, mode=mode))
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        text = (tmp_path / "resolvent.txt").read_text()
        assert capsys.readouterr().out == text
        lines = text.splitlines()
        assert len(lines) == len(RESOLVENT_LINES)
        for line, pattern in zip(lines, RESOLVENT_LINES):
            assert re.fullmatch(pattern, line), line
        # the factors commute, so (0, 1) and (1, 0) print the same norms
        assert lines[3].split(":")[1] == lines[4].split(":")[1]

    def test_resolvent_near_spectrum_exit_code(self, tmp_path, capsys):
        # the oscillator's lowest eigenvalue is 3
        cfg = write_config(tmp_path, OSCILLATOR_RESOLVENT.format(
            z_real=3, mode="plain"))
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        assert "within 0.1 of the computed spectrum" in capsys.readouterr().err
        assert not (tmp_path / "resolvent.txt").exists()

    def test_weighted_resolvent_at_z_0(self, tmp_path, capsys):
        # M_1 = (phi A)(phi A - 0)^{-1} is the identity
        rep = schrodinger.resolvent_probe(
            schrodinger.SchrodingerProblem.oscillator(), 0, mode="weighted")
        for norm in rep.norms[(0, 1)]:
            assert norm == pytest.approx(1.0, abs=1e-12)
        cfg = write_config(tmp_path, OSCILLATOR_RESOLVENT.format(
            z_real=0, mode="weighted"))
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "resolvent.txt").read_text().splitlines()
        assert lines[3] == "i=0 j=1: coarse 1  fine 1  ratio 1"

    # Lanczos runs k = 0, then k = 2, then k = 1 on each grid, taking 12, 15
    # and 21 matvecs on 300 points: a budget one short of a run's own count
    # and at least every earlier run's stops that run, and only in this
    # order of runs
    @pytest.mark.parametrize("failing_run, k", [(0, 0), (1, 2), (2, 1)])
    def test_weighted_resolvent_non_convergence(self, tmp_path, capsys,
                                                monkeypatch, failing_run,
                                                k):
        rep = schrodinger.resolvent_probe(
            schrodinger.SchrodingerProblem.oscillator(), -1, mode="weighted")
        counts = [count for (points, _), count in rep.matvecs.items()
                  if points == 300]
        assert [key[1] for key in rep.matvecs][:3] == [0, 2, 1]
        budget = counts[failing_run] - 1
        assert all(count <= budget for count in counts[:failing_run])
        monkeypatch.setattr(schrodinger, "LANCZOS_MATVECS", budget)
        cfg = write_config(tmp_path, OSCILLATOR_RESOLVENT.format(
            z_real=-1, mode="weighted"))
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert f"resolvent norm k={k} did not converge on 300 points " \
               f"after {budget} matvecs" in err
        assert not (tmp_path / "resolvent.txt").exists()

    # --verbose logs each Lanczos run's matvecs, weighted mode only; the
    # report and stdout do not change
    @pytest.mark.parametrize("mode, log", [
        ("plain", []),
        ("weighted", [f"Lanczos k={k} on {points} points: {count} matvecs"
                      for points, counts in ((300, (12, 15, 21)),
                                             (600, (12, 21, 27)))
                      for k, count in zip((0, 2, 1), counts)])])
    def test_resolvent_verbose_logs_the_matvecs(self, tmp_path, capsys,
                                                mode, log):
        cfg = write_config(tmp_path, OSCILLATOR_RESOLVENT.format(
            z_real=-1, mode=mode))
        args = ["--config", cfg, "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        quiet = capsys.readouterr()
        text = (tmp_path / "resolvent.txt").read_text()
        assert main(args + ["--verbose"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err.splitlines() == log and not quiet.err
        assert out == quiet.out == text
        assert (tmp_path / "resolvent.txt").read_text() == text

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\ncommand = classify\n"
                                     "[grid]\nwat = 1\n")
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (b"[run]\ncommand = classify\n[problem]\nn = 3%\n",
         "'%' must be followed by '%' or '(', found: '%'"),
        (b"[run]\ncommand = classify\n[problem]\nn = 3\nn = 4\n",
         "option 'n' in section 'problem' already exists"),
        (b"[run]\ncommand = classify\n[problem\nn = 3\n",
         "Source contains parsing errors"),
        (b"n = 3\n[run]\ncommand = classify\n",
         "File contains no section headers."),
        (b"[run]\ncommand = classify\n[problem]\nn = 3 \xff\n",
         "'utf-8' codec can't decode byte 0xff")],
        ids=["percent", "duplicate_key", "open_header", "key_before_section",
             "not_utf8"])
    def test_malformed_file_exit_code(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(text)
        code = main(["--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: ") and message in err
        assert err.count("\n") == 1

    def test_out_naming_a_file_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\ncommand = classify\n")
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: cannot make the output directory {out}: "
            "File exists\n")

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

    # 1e400 is an exact Fraction, but the flows and solvers read floats
    @pytest.mark.parametrize("value",
                             ["nan", "inf", "-inf", "1e400", "-1e400"])
    @pytest.mark.parametrize("section, key, line", NUMBER_FIELDS,
                             ids=[line for _, _, line in NUMBER_FIELDS])
    def test_non_finite_float_exit_code(self, tmp_path, capsys, section, key,
                                        line, value):
        cfg = write_config(tmp_path, "[run]\ncommand = spectrum\n"
                                     f"[{section}]\n{line.format(value)}\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: key {key!r}: expected a finite number, "
            f"got {value!r}\n")

    @pytest.mark.parametrize("section, key", keys_read_as(int))
    def test_integer_past_the_float_range_exit_code(self, tmp_path, capsys,
                                                    section, key):
        value = "1" + "0" * 400
        cfg = write_config(tmp_path, "[run]\ncommand = spectrum\n"
                                     f"[{section}]\n{key} = {value}\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: key {key!r}: expected an integer, "
            f"got {value!r}\n")

    def test_exit_rows_are_distinct(self):
        # a second class on an existing (code, prefix) row is a second name
        # for one outcome
        rows = list(cli._EXITS.values())
        assert len(set(rows)) == len(rows)

    @pytest.mark.parametrize("section, line, message", [
        ("grid", "points = 5", "key 'points': must be >= 10, got 5"),
        ("solve", "tolerance = 0",
         "key 'tolerance': expected a number > 0, got '0'"),
        ("resolvent", "mode = foo", "resolvent: unknown mode 'foo'")])
    def test_value_out_of_range_exit_code(self, tmp_path, capsys, section,
                                          line, message):
        cfg = write_config(tmp_path, "[run]\ncommand = spectrum\n"
                                     f"[{section}]\n{line}\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    # EndpointEvalError is a typed error with no exit code of its own
    def test_other_typed_error_exit_code(self, tmp_path, capsys,
                                         monkeypatch):
        def solve(*args, **kwargs):
            raise EndpointEvalError("t=0 is not interior; use limit()")

        monkeypatch.setattr(cli, "assemble_and_solve", solve)
        cfg = write_config(tmp_path, "[run]\ncommand = spectrum\n")
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            "error: t=0 is not interior; use limit()\n")

    # e^s past the float range is named by its key; rho^2 past it, at
    # s_max = 400, is an operator that is not finite.  Any RuntimeWarning
    # on the way would fail the test.
    @pytest.mark.parametrize("grid, message", [
        ("s_max = 800", "s_max = 800.0: e^s_max is past the float range"),
        ("s_min = -800", "s_min = -800.0: e^s_min underflows to 0"),
        ("s_max = 400", "operator not finite on the grid")])
    def test_grid_past_the_float_range(self, tmp_path, capsys, grid,
                                       message):
        cfg = write_config(tmp_path, "[run]\ncommand = spectrum\n"
                                     f"[grid]\n{grid}\n")
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            f"precondition violated: {message}\n")

    # far from the spectrum: plain norms whose complex division overflows
    # exit 4 with no warning; a real z inside hydrogen's essential spectrum
    # [0, inf) exits 3 however far from the grid's eigenvalues it lies
    @pytest.mark.parametrize("z_real, z_imag, mode, code, err", [
        ("1e308", "1e308", "plain", EXIT_CONVERGENCE,
         "convergence failure: resolvent norms [0.0, 0.0, 0.0] on 300 points "
         "at z = (1e+308+1e+308j): not positive floats\n")] + [
        (z, "0", mode, EXIT_PRECONDITION,
         f"precondition violated: z = {complex(float(z))} is within 0.1 of "
         "the essential spectrum, which starts at 0\n")
        for z, mode in (("1e13", "plain"), ("1e150", "weighted"),
                        ("1e160", "weighted"), ("1e200", "weighted"))])
    def test_resolvent_far_from_the_spectrum(self, tmp_path, capsys, z_real,
                                             z_imag, mode, code, err):
        cfg = write_config(tmp_path, f"""
            [run]
            command = resolvent
            [resolvent]
            z_real = {z_real}
            z_imag = {z_imag}
            mode = {mode}
        """)
        assert main(["--config", cfg, "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == err
        assert not (tmp_path / "resolvent.txt").exists()

    # far below the spectrum: the ends-only path prints what every
    # eigenvalue printed; weighted, the k = 1 square cancels (1e150) or
    # T^{-1} underflows to a zero vector (1e200, 1e308)
    @pytest.mark.parametrize("z_real, mode, code, expected", [
        (z, "plain", EXIT_OK, f"z = (-1e+{p}+0j)\n"
         f"spectrum distance = 1e+{p}\n"
         f"i=0 j=0: coarse 1e-{p}  fine 1e-{p}  ratio 1\n"
         f"i=0 j=1: coarse 1.08682e-{p - 10}  fine 4.56847e-{p - 10}  "
         "ratio 4.20351\n"
         f"i=1 j=0: coarse 1.08682e-{p - 10}  fine 4.56847e-{p - 10}  "
         "ratio 4.20351\n"
         f"i=1 j=1: coarse 1.18118e-{p - 20}  fine 2.08709e-{p - 21}  "
         "ratio 17.6695\n")
        for z, p in (("-1e150", 150), ("-1e200", 200), ("-1e308", 308))] + [
        ("-1e150", "weighted", EXIT_CONVERGENCE,
         rf"convergence failure: resolvent norms \[{NUMBER}, nan, {NUMBER}\]"
         r" on 300 points at z = \(-1e\+150\+0j\): not positive floats\n"),
        ("-1e200", "weighted", EXIT_CONVERGENCE,
         "convergence failure: resolvent norm k=0 did not converge on 300 "
         "points after 1 matvecs\n"),
        ("-1e308", "weighted", EXIT_CONVERGENCE,
         "convergence failure: resolvent norm k=0 did not converge on 300 "
         "points after 1 matvecs\n")])
    def test_resolvent_far_below_the_spectrum(self, tmp_path, capsys, z_real,
                                              mode, code, expected):
        cfg = write_config(tmp_path, "[run]\ncommand = resolvent\n"
                           f"[resolvent]\nz_real = {z_real}\nmode = {mode}\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        if code == EXIT_OK:
            assert out == expected and not err
            assert (tmp_path / "resolvent.txt").read_text() == expected
        else:
            assert not out and re.fullmatch(expected, err)
            assert not (tmp_path / "resolvent.txt").exists()

    # real z below the ground state: the ends-only path prints the report
    # that every eigenvalue prints, in both modes; a bisection that ignores
    # ``select`` forces the every-eigenvalue path
    @pytest.mark.parametrize("mode", ["plain", "weighted"])
    @pytest.mark.parametrize("model", sorted(DEEP_MODELS))
    def test_ends_only_matches_every_eigenvalue(self, tmp_path, monkeypatch,
                                                model, mode):
        gamma, gamma_prime, potential, _ = DEEP_MODELS[model]
        real = schrodinger.eigh_tridiagonal
        selects = []

        def recorded(d, e, **kwargs):
            selects.append(kwargs.get("select"))
            return real(d, e, **kwargs)

        def every(d, e, **kwargs):
            return real(d, e, eigvals_only=True)

        cells = 0
        for n in (2, 3, 4):
            for l in (0, 1, 2):
                # hydrogen's ground state is -1/(n - 1 + 2l)^2, and the
                # oscillator's n + 2l lies above every z here
                ground = (-1 / (n - 1 + 2 * l) ** 2 if model == "hydrogen"
                          else n + 2 * l)
                for z in (z for z in (-0.5, -1, -2) if z < ground):
                    cfg = write_config(tmp_path, f"""
                        [run]
                        command = resolvent
                        [problem]
                        n = {n}
                        l = {l}
                        gamma = {gamma}
                        gamma_prime = {gamma_prime}
                        potential = {potential}
                        [resolvent]
                        z_real = {z}
                        mode = {mode}
                    """)
                    reports = []
                    for solver in (recorded, every):
                        monkeypatch.setattr(schrodinger, "eigh_tridiagonal",
                                            solver)
                        assert main(["--config", cfg, "--out",
                                     str(tmp_path)]) == EXIT_OK
                        reports.append(
                            (tmp_path / "resolvent.txt").read_text())
                    assert reports[0] == reports[1], (n, l, z)
                    cells += 1
        assert cells == (25 if model == "hydrogen" else 27)
        # two grids, each bisected at its two ends only
        assert selects == ["i"] * 4 * cells

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

    def test_selftest_failure(self, tmp_path, capsys, monkeypatch):
        def solve(*args, **kwargs):
            raise ConvergenceError("no eigenpairs")

        def rewrite(prob):  # hydrogen's far face read as the other branch
            return dataclasses.replace(schrodinger.rewrite(prob),
                                       branch_infinity="schr6")

        monkeypatch.setattr(cli, "rewrite", rewrite)
        monkeypatch.setattr(cli, "assemble_and_solve", solve)
        cfg = write_config(tmp_path, "[run]\ncommand = selftest\n")
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "--verbose"]) == EXIT_SELFTEST
        out, err = capsys.readouterr()
        assert out == ("SELFTEST FAIL: rewrite branches\n"
                       "SELFTEST FAIL: spectral oracle\n")
        assert "rewrite branches: FAIL\n" in err
        assert ("spectral oracle: raised ConvergenceError('no eigenpairs')\n"
                "spectral oracle: FAIL\n") in err


class TestPotentialsWrittenOtherwise:
    """Configs whose terms cancel: the function decides, not its terms."""

    def run(self, tmp_path, text, name):
        out = tmp_path / name
        code = main(["--config", write_config(tmp_path, text, f"{name}.ini"),
                     "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("gamma_prime, expected", [
        ("1", EXIT_PRECONDITION), ("1/2", EXIT_OK)])
    def test_linear_growth_written_as_a_difference_of_squares(
            self, tmp_path, capsys, gamma_prime, expected):
        # (1+t)^2 - t^2 = 1 + 2t grows like t, so gamma' is 1/2
        code, _ = self.run(tmp_path, f"""
            [run]
            command = membership
            [problem]
            gamma = 0
            gamma_prime = {gamma_prime}
            potential = 1,0,2; -1,2,0
        """, "m")
        assert code == expected
        out = capsys.readouterr()
        if expected == EXIT_OK:
            assert "overall: PASS" in out.out
        else:
            assert "potential growth at infinity is 1, expected 2" in out.err

    def test_hydrogen_written_with_a_1_plus_t_factor(self, tmp_path):
        # -(1+t)/t + 1 = -1/t
        spectra = []
        for name, potential in (("plain", "-1,-1,0"),
                                ("rewritten", "-1,-1,1; 1,0,0")):
            code, out = self.run(tmp_path, f"""
                [run]
                command = spectrum
                [problem]
                potential = {potential}
            """, name)
            assert code == EXIT_OK
            rows = (out / "spectrum.csv").read_text().splitlines()[1:]
            spectra.append([float(row.split(",")[2]) for row in rows])
        assert len(spectra[1]) == 2
        assert spectra[1] == pytest.approx(spectra[0], rel=1e-10, abs=0)

    @pytest.mark.parametrize("command, name", [
        ("classify", "classify.txt"), ("parametrix", "parametrix.csv")])
    def test_hydrogen_written_with_a_1_plus_t_factor_runs_as_hydrogen(
            self, tmp_path, command, name):
        # -(1+t)/t + 1 = -1/t is stored as -1/t, so the far-field rewrite
        # sees its pure-power tail
        outputs = []
        for tag, potential in (("plain", "-1,-1,0"),
                               ("rewritten", "-1,-1,1; 1,0,0")):
            code, out = self.run(tmp_path, f"""
                [run]
                command = {command}
                [problem]
                potential = {potential}
            """, tag)
            assert code == EXIT_OK
            outputs.append((out / name).read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command, name", [
        ("classify", "classify.txt"), ("parametrix", "parametrix.csv")])
    def test_far_field_tail_written_with_1_plus_t_factors(
            self, tmp_path, command, name):
        # -(1+t)/t + 1 + t^2 and -1/t + (t^2 + t^3)/(1+t) are both -1/t + t^2:
        # a natural power of 1 + r expands, and the rest sums to r^-2
        outputs = []
        for tag, potential in (("plain", "-1,-1,0; 1,2,0"),
                               ("natural", "-1,-1,1; 1,0,0; 1,2,0"),
                               ("summed", "-1,-1,0; 1,2,-1; 1,3,-1")):
            code, out = self.run(tmp_path, f"""
                [run]
                command = {command}
                [problem]
                gamma_prime = 1
                potential = {potential}
            """, tag)
            assert code == EXIT_OK
            outputs.append((out / name).read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_far_field_tail_that_is_not_a_pure_power(self, tmp_path, capsys):
        # t^(1/2) (1+t)^(1/2) is r^-1 (1+r)^(1/2) in r = 1/t
        code, out = self.run(tmp_path, """
            [run]
            command = classify
            [problem]
            gamma_prime = 1/2
            potential = -1,-1,0; 1,1/2,1/2
        """, "root")
        assert code == EXIT_PRECONDITION
        assert "pure-power potential tail" in capsys.readouterr().err
        assert not (out / "classify.txt").exists()

    def test_b_weight_written_as_a_difference(self, tmp_path):
        # t(1+t) - t^2 = t, whose flow is sigma_s(x) = x e^s in closed form,
        # to the byte of the weight written as t
        csvs = []
        for tag, weight in (("plain", "1,1,0"),
                            ("rewritten", "1,1,1; -1,2,0")):
            code, out = self.run(tmp_path, f"""
                [run]
                command = flow
                [flow]
                weight = {weight}
            """, tag)
            assert code == EXIT_OK
            csvs.append((out / "flow.csv").read_bytes())
        assert csvs[0] == csvs[1]
        rows = csvs[1].decode().splitlines()[1:]
        assert len(rows) == 5
        for s, x, sigma in (map(float, row.split(",")) for row in rows):
            assert sigma == pytest.approx(x * math.exp(s), rel=1e-8)

    @pytest.mark.parametrize("command, name", [
        ("classify", "classify.txt"), ("membership", "membership.txt")])
    def test_potential_zero_as_a_function_is_free(self, tmp_path, capsys,
                                                  command, name):
        # (1+t) - t - 1 = 0 runs as the empty potential does
        reports = []
        for tag, potential in (("empty", ""),
                               ("zero", "1,0,1; -1,1,0; -1,0,0")):
            code, out = self.run(tmp_path, f"""
                [run]
                command = {command}
                [problem]
                potential = {potential}
            """, tag)
            assert code == EXIT_OK
            reports.append((out / name).read_bytes())
        assert reports[0] == reports[1]


class TestBoundedBelow:
    """-Delta + V on R^3, sector l = 0, with V ~ c t^e at 0 and t^2 at
    infinity: the spectral commands need the operator bounded below."""

    #: name -> (gamma, potential): c < 0 at e = -3, c = -1/2 at e = -2,
    #: past Hardy's constant nu^2 = 1/4, and V = -t^2, which grows to -inf
    UNBOUNDED = {"strong": ("3/2", "-1,-3,0; 1,2,0"),
                 "hardy": ("1", "-1/2,-2,0; 1,2,0"),
                 "far": ("-1", "-1,2,0")}

    def run(self, tmp_path, command, gamma, potential):
        out = tmp_path / command
        cfg = write_config(tmp_path, f"""
            [run]
            command = {command}
            [problem]
            gamma = {gamma}
            gamma_prime = 1
            potential = {potential}
        """)
        return main(["--config", cfg, "--out", str(out)]), out

    @pytest.mark.parametrize("command", ["spectrum", "resolvent"])
    @pytest.mark.parametrize("model", sorted(UNBOUNDED))
    def test_unbounded_below_rejected(self, tmp_path, capsys, command, model):
        code, out = self.run(tmp_path, command, *self.UNBOUNDED[model])
        assert code == EXIT_PRECONDITION
        assert "not bounded below" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["spectrum", "resolvent"])
    def test_unbounded_at_infinity_names_the_end(self, tmp_path, capsys,
                                                 command):
        # a grid would report eigenvalues near -e^(2 s_max), -158,845 at
        # s_max = 6, that are no spectrum of -Delta + V
        code, out = self.run(tmp_path, command, *self.UNBOUNDED["far"])
        assert code == EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            "precondition violated: -Delta + V is not bounded below at "
            "infinity: V ~ -1 t^2 there\n")

    @pytest.mark.parametrize("gamma, potential, expected, rel", [
        # repulsive t^-3: the lowest eigenvalue on the default grid
        ("3/2", "1,-3,0; 1,2,0", 4.38497016938, 1e-10),
        # a = -1/5 above Hardy's constant: 2 (nu_eff + 1), nu_eff^2 = 1/20,
        # which a boundary row from nu in place of nu_eff misses by 7.2e-4
        ("1", "-1/5,-2,0; 1,2,0", 2 * (math.sqrt(F(1, 20)) + 1), 1e-9)])
    def test_bounded_below_still_solved(self, tmp_path, gamma, potential,
                                        expected, rel):
        code, out = self.run(tmp_path, "spectrum", gamma, potential)
        assert code == EXIT_OK
        row = (out / "spectrum.csv").read_text().splitlines()[1]
        assert float(row.split(",")[2]) == pytest.approx(expected, rel=rel)


class TestEssentialThreshold:
    """The free operator on R^3 (V = 0): the essential spectrum starts at
    Sigma = 0 and there is no eigenvalue below it."""

    def test_spectrum_rejects_box_states(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, """
            [run]
            command = spectrum
            [problem]
            gamma = 0
            gamma_prime = 0
            potential =
            [solve]
            num_eigs = 3
        """)
        code = main(["--config", cfg, "--out", str(out)])
        assert code == EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            "precondition violated: only 0 of the 3 lowest eigenvalues lie "
            "below the essential spectrum, which starts at 0\n")
        assert not any(out.iterdir())


class TestDeepCut:
    """Deep cuts s_min: ρ² spans e^{±40} and more on these grids."""

    # two eigenvalues, the default num_eigs: on [-40, 12] with 500 points
    # (h = 0.104) the oscillator's third l = 2 eigenvalue carries a 1.1e-3
    # h^4 remainder, a resolution limit rather than a wrong spectrum.  Exit 0
    # on every cell: stein's vectors without the inverse-iteration step have
    # backward errors up to 6e-4 here and would exit 4
    @pytest.mark.parametrize("points", [500, 4000])
    @pytest.mark.parametrize("s_min", [-20, -25, -40])
    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("model", sorted(DEEP_MODELS))
    def test_right_on_deep_cuts(self, tmp_path, model, l, s_min, points):
        code, eigs, exact = run_spectrum(tmp_path, model, l, s_min, points)
        assert code == EXIT_OK and len(eigs) == 2
        for lam, ref in zip(eigs, exact):
            assert abs(lam - ref) <= 1e-3 * max(1.0, abs(ref))

    # l = 0 has the smallest nu, the most weight near s_min and so the
    # largest rounding floor of the absolute residual ||Av - lam v||, which
    # is 1.4e-6 to 1.4e-2 here; the guard reads the scale-free backward error
    @pytest.mark.parametrize("s_min, points", [(-20, 4000), (-25, 1000),
                                               (-40, 4000)])
    def test_l_0_guarded_by_backward_error(self, tmp_path, s_min, points):
        code, eigs, exact = run_spectrum(tmp_path, "hydrogen", 0, s_min,
                                         points, 3)
        assert code == EXIT_OK and len(eigs) == 3
        for lam, ref in zip(eigs, exact):
            assert abs(lam - ref) <= 2e-6 * abs(ref)
        res = schrodinger.assemble_and_solve(
            schrodinger.SchrodingerProblem.hydrogen(),
            schrodinger.GeometricGrid(s_min, 12.0, points), k=3)
        assert max(res.backward_errors) <= 1e-14

    def test_perturbed_eigenvector_fails_the_guard(self, tmp_path, capsys,
                                                   monkeypatch):
        # the noise goes on the vectors after the gtsv refinement step;
        # noise on stein's vectors would be removed by that step
        real = schrodinger.get_lapack_funcs

        def lapack_with_noisy_gtsv(names, arrays):
            assert names == ("gtsv",)
            gtsv, = real(names, arrays)

            def noisy(*args):
                *head, x, info = gtsv(*args)
                noise = np.random.default_rng(0).standard_normal(x.shape)
                return (*head, x + 1e-2 * abs(x).max(axis=0) * noise, info)
            return noisy,

        monkeypatch.setattr(schrodinger, "get_lapack_funcs",
                            lapack_with_noisy_gtsv)
        code, _, _ = run_spectrum(tmp_path, "hydrogen", 0, -20, 4000, 3)
        assert code == EXIT_CONVERGENCE
        assert "backward error" in capsys.readouterr().err

    def test_zero_pivot_in_the_refinement_exits_4(self, tmp_path, capsys,
                                                  monkeypatch):
        real = schrodinger.get_lapack_funcs

        def lapack_with_singular_gtsv(names, arrays):
            gtsv, = real(names, arrays)
            return (lambda *args: (*gtsv(*args)[:4], 1)),

        monkeypatch.setattr(schrodinger, "get_lapack_funcs",
                            lapack_with_singular_gtsv)
        code, _, _ = run_spectrum(tmp_path, "hydrogen", 0, -20, 500)
        assert code == EXIT_CONVERGENCE
        assert "zero pivot" in capsys.readouterr().err

    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("model", sorted(DEEP_MODELS))
    def test_resolved_at_s_min_minus_20(self, tmp_path, model, l):
        code, eigs, exact = run_spectrum(tmp_path, model, l, -20, 1000, 3)
        assert code == EXIT_OK and len(eigs) == 3
        for lam, ref in zip(eigs, exact):
            assert abs(lam - ref) <= 6e-6 * abs(ref)


def test_commands_load_neither_integrate_nor_optimize(tmp_path):
    """In a fresh interpreter, importing degcalc and running classify,
    membership, spectrum, a weighted resolvent and a numeric flow leaves
    scipy.integrate, scipy.optimize and scipy.sparse unloaded."""
    configs = [
        "[run]\ncommand = classify\n", "[run]\ncommand = membership\n",
        "[run]\ncommand = spectrum\n",
        OSCILLATOR_RESOLVENT.format(z_real=-1, mode="weighted"),
        "[run]\ncommand = flow\n[flow]\nweight = 1,2,-1\n"]
    paths = [write_config(tmp_path, text, f"run{i}.ini")
             for i, text in enumerate(configs)]
    script = (
        "import sys\nimport degcalc\nfrom degcalc import cli\n"
        "print([cli.main(['--config', c, '--out', sys.argv[1]])"
        " for c in sys.argv[2:]])\n"
        "print(sorted({'scipy.integrate', 'scipy.optimize', 'scipy.sparse',"
        " 'scipy.sparse.linalg'} & set(sys.modules)))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out"), *paths],
        capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.splitlines()[-2:] == [str([EXIT_OK] * 5), "[]"]
    assert (tmp_path / "out" / "flow.csv").exists()


class TestSelftest:
    def test_all_checks_pass(self):
        assert run_selftest() == []


class TestCommandLine:
    """The arguments of ``main``: usage, help and exit status as argparse
    gives them, and nothing of one call carried into the next."""

    USAGE = "usage: degcalc [-h] --config CONFIG [--out OUT] [--verbose]"

    def test_missing_config_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err[0] == self.USAGE
        assert err[-1] == "degcalc: error: the following arguments are " \
                          "required: --config"

    def test_help_exits_0(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == self.USAGE
        assert "Weighted operator calculus batch runner" in out

    def test_verbose_is_read_per_call(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\ncommand = flow\n")
        args = ["--config", cfg, "--out", str(tmp_path)]
        assert main(args + ["--verbose"]) == EXIT_OK
        assert "wrote " in capsys.readouterr().err
        assert main(args) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        import argparse

        def refuse(*args, **kwargs):
            raise AssertionError("main built an ArgumentParser")

        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        cfg = write_config(tmp_path, "[run]\ncommand = classify\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_OK


#: classify.txt and membership.txt of the default configs.  Both come from
#: the exact ring alone, so their bytes are the same on every platform.
DEFAULT_EXACT_OUTPUTS = {
    "classify.txt": (
        "near 0: schr3 rewrite, c_{1,0} calculus\n"
        "near infinity: schr5 rewrite, c_{2,1} calculus\n"),
    "membership.txt": (
        "weight phi = 1 * t^1 * (1+t)^-1\n"
        "weight psi = 1 * t^0 * (1+t)^-1\n"
        "coefficient (0, 0): -1 * t^1 * (1+t)^-2 -> member\n"
        "coefficient (0, 2): -1 * t^0 * (1+t)^0 -> member\n"
        "coefficient (1, 0): -2 * t^0 * (1+t)^-1 -> member\n"
        "coefficient (2, 0): -1 * t^0 * (1+t)^0 -> member\n"
        "overall: PASS\n"),
}

#: parametrix.csv of the default config: N and K exactly, then the residual
#: ratio, which passes through floating point
DEFAULT_PARAMETRIX = [("0", "4", 1.0), ("0", "8", 1.0),
                      ("1", "4", 0.019779929917195963),
                      ("1", "8", 0.0047252832247565322),
                      ("2", "4", 0.0088309874677664855),
                      ("2", "8", 0.0010581880597261598)]


class TestDefaultOutputs:
    @staticmethod
    def run_default(tmp_path, command, name):
        cfg = write_config(tmp_path, f"[run]\ncommand = {command}\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        return (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("command, name", [
        ("classify", "classify.txt"), ("membership", "membership.txt")])
    def test_exact_layer_bytes(self, tmp_path, command, name):
        assert self.run_default(tmp_path, command, name) \
            == DEFAULT_EXACT_OUTPUTS[name].encode()

    def test_parametrix_csv(self, tmp_path):
        text = self.run_default(tmp_path, "parametrix", "parametrix.csv")
        header, *rows = text.decode().split("\r\n")[:-1]
        assert header == "N,K,residual_ratio"
        got = [row.split(",") for row in rows]
        assert [(n, k) for n, k, _ in got] == \
            [(n, k) for n, k, _ in DEFAULT_PARAMETRIX]
        for (*_, ratio), (*_, expected) in zip(got, DEFAULT_PARAMETRIX):
            assert float(ratio) == pytest.approx(expected, rel=1e-12, abs=0)
