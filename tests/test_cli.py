"""Batch runner: config validation, commands, exit codes, CSV determinism."""

import configparser
import dataclasses
import math
import re
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from degcalc import cli, schrodinger
from degcalc.cli import (_KEYS, EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_OK,
                         EXIT_PRECONDITION, RunConfig,
                         load_config, main, run_selftest)
from degcalc.errors import ConfigError

F = Fraction

README = Path(__file__).resolve().parents[1] / "README.md"

#: (section, key) of every key read as a float or a ';'-list of floats
FLOAT_KEYS = [(section, key) for section, keys in _KEYS.items()
              for key, (_, default) in keys.items()
              if all(isinstance(x, float) for x in
                     (default if isinstance(default, tuple) else [default]))]


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

    def test_float_keys(self):
        assert sorted(key for _, key in FLOAT_KEYS) == [
            "cutoffs", "s", "s_max", "s_min", "tolerance", "x_values",
            "z_imag", "z_real"]

    def test_readme_config_block_is_the_key_table(self):
        block = README.read_text().split("```ini\n")[1].split("```")[0]
        lines = (re.sub(r"\s*#.*", "", line) for line in block.splitlines())
        parser = configparser.ConfigParser()
        parser.read_string("\n".join(line for line in lines if line))
        assert {name: set(parser[name]) for name in parser.sections()} \
            == {name: set(keys) for name, keys in _KEYS.items()}
        for section, keys in _KEYS.items():
            for key, (read, default) in keys.items():
                if key != "command":  # the one key without a default
                    assert read(parser[section][key], key) == default, key


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

    # eigsh runs k = 0, then k = 2, then k = 1 on each grid
    @pytest.mark.parametrize("failing_call, k", [(0, 0), (1, 2), (2, 1)])
    def test_weighted_resolvent_non_convergence(self, tmp_path, capsys,
                                                monkeypatch, failing_call,
                                                k):
        real = schrodinger.eigsh
        calls = []

        def stalled(A, **kwargs):
            calls.append(A)
            if len(calls) <= failing_call:
                return real(A, **kwargs)
            for _ in range(3):
                A.matvec(kwargs["v0"])
            raise ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.zeros(0),
                np.zeros((A.shape[0], 0)))

        monkeypatch.setattr(schrodinger, "eigsh", stalled)
        cfg = write_config(tmp_path, OSCILLATOR_RESOLVENT.format(
            z_real=-1, mode="weighted"))
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert f"resolvent norm k={k} did not converge on 300 points " \
               "after 3 matvecs" in err
        assert not (tmp_path / "resolvent.txt").exists()

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    def test_non_finite_float_exit_code(self, tmp_path, capsys, section, key,
                                        value):
        cfg = write_config(tmp_path, "[run]\ncommand = spectrum\n"
                                     f"[{section}]\n{key} = {value}\n")
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: key {key!r}: expected a finite number, "
            f"got {value!r}\n")

    # rho = e^800 leaves the float range, and V(rho) raises
    # EndpointEvalError, a typed error with no exit code of its own
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_other_typed_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\ncommand = spectrum\n"
                                     "[grid]\ns_max = 800\n")
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error: t=") and "use limit()" in err

    # far from the spectrum: plain norms whose complex division overflows;
    # a weighted k = 1 square that cancels (1e150), |z|^2 past the float
    # range (1e160) and T^{-1} underflowing to a zero vector (1e200)
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("z_real, z_imag, mode", [
        ("1e308", "1e308", "plain"), ("1e150", "0", "weighted"),
        ("1e160", "0", "weighted"), ("1e200", "0", "weighted")])
    def test_resolvent_far_from_the_spectrum(self, tmp_path, capsys, z_real,
                                             z_imag, mode):
        cfg = write_config(tmp_path, f"""
            [run]
            command = resolvent
            [resolvent]
            z_real = {z_real}
            z_imag = {z_imag}
            mode = {mode}
        """)
        code = main(["--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONVERGENCE
        assert capsys.readouterr().err.startswith(
            "convergence failure: resolvent norm")
        assert not (tmp_path / "resolvent.txt").exists()

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


class TestSelftest:
    def test_all_checks_pass(self):
        assert run_selftest() == []


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
