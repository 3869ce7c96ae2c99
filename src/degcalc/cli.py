"""Batch front door: config parsing, command dispatch, every output file.

Config files are sectioned key=value text (configparser syntax) whose keys,
readers and defaults are the table ``_KEYS``.  Exponents and coefficients
accept rational literals like ``3/2`` so they survive parsing exactly.  The
``[run] command`` names one entry of ``_DISPATCH``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
from fractions import Fraction
from functools import partial

from .diffop import (DiffOp, lie_rinehart_check, op_commutator, op_compose,
                     random_lie_rinehart_samples)
from .errors import (ConfigError, ConvergenceError, DegcalcError,
                     PreconditionError)
from .flows import Flow, completeness_check, flow_scaling_limit
from .groupoid import GPhiElement, gphi_compose, zeta_cocycle
from .powerfun import UNIT_INTERVAL, RadialFunction
from .schrodinger import (N_POINTS_DEFAULT, S_MAX_DEFAULT, S_MIN_DEFAULT,
                          GeometricGrid, SchrodingerProblem,
                          assemble_and_solve, membership_in_diff_s,
                          parametrix_residual, resolvent_probe, rewrite)
from .weights import Weight, membership_order

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_CONVERGENCE = 4


def _word(text, key):
    return text.strip()


def _parsed(parse, what, text, key):
    """``parse(text)``, or a ConfigError naming the key; a value past the
    float range is malformed too, since the numeric layers read floats."""
    try:
        v = parse(text)
        float(v)
        return v
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"key {key!r}: expected {what}, got {text!r}")


_rational = partial(_parsed, Fraction, "a finite number")


def _integer(text, key, minimum):
    v = _parsed(int, "an integer", text, key)
    if v < minimum:
        raise ConfigError(f"key {key!r}: must be >= {minimum}, got {v}")
    return v


def _floatval(text, key, positive=False):
    v = _parsed(float, "a number", text, key)
    if math.isfinite(v) and (v > 0 or not positive):
        return v
    what = "a number > 0" if math.isfinite(v) else "a finite number"
    raise ConfigError(f"key {key!r}: expected {what}, got {text!r}")


def _list(read):
    """A reader of one or more ';'-separated values, each read by ``read``."""
    def read_list(text, key):
        values = [read(chunk, key)
                  for chunk in filter(None, map(str.strip, text.split(";")))]
        if not values:
            raise ConfigError(f"key {key!r}: expected at least one value")
        return tuple(values)
    return read_list


def _terms(text, key):
    """Parse 'coeff,p,q; coeff,p,q; ...' into a ring function."""
    out = RadialFunction.zero()
    for chunk in filter(None, map(str.strip, text.split(";"))):
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ConfigError(f"key {key!r}: each term needs 3 fields "
                              f"(coeff,p,q), got {chunk!r}")
        c, p, q = (_rational(x.strip(), key) for x in parts)
        out = out + RadialFunction.term(c, p, q)
    return out


#: section -> key -> (reader, default); every key is optional but [run]
#: command.  Key names are unique, and each is a RunConfig attribute.
_KEYS = {
    "run": {"command": (_word, None)},
    "problem": {"n": (partial(_integer, minimum=2), 3),
                "gamma": (_rational, Fraction(1, 2)),
                "gamma_prime": (_rational, Fraction(-1, 2)),
                "potential": (_terms, RadialFunction.term(-1, -1)),
                "l": (partial(_integer, minimum=0), 0)},
    "grid": {"s_min": (_floatval, S_MIN_DEFAULT),
             "s_max": (_floatval, S_MAX_DEFAULT),
             "points": (partial(_integer, minimum=10), N_POINTS_DEFAULT)},
    "solve": {"num_eigs": (partial(_integer, minimum=1), 2),
              "tolerance": (partial(_floatval, positive=True), 1e-8)},
    "flow": {"weight": (_terms, RadialFunction.term(1, 1)),
             "s": (_floatval, 1.0),
             "x_values": (_list(_floatval), (0.1, 0.5, 1.0, 2.0, 10.0))},
    "parametrix": {"orders": (_list(partial(_integer, minimum=0)), (0, 1, 2)),
                   "cutoffs": (_list(partial(_floatval, positive=True)),
                               (4.0, 8.0))},
    "resolvent": {"z_real": (_floatval, -1.0),
                  "z_imag": (_floatval, 0.0),
                  "mode": (_word, "plain")},
}


class RunConfig:
    """Validated run configuration: one attribute per key of ``_KEYS``."""

    def __init__(self, parser):
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigError(f"unknown section [{section}]")
            for key in parser[section]:
                if key not in _KEYS[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}]")
        if "run" not in parser or "command" not in parser["run"]:
            raise ConfigError("missing [run] command")
        for section, keys in _KEYS.items():
            given = parser[section] if section in parser else {}
            for key, (read, default) in keys.items():
                setattr(self, key,
                        read(given[key], key) if key in given else default)
        if self.command not in _DISPATCH:
            raise ConfigError(f"unknown command {self.command!r}")
        if not self.s_min < self.s_max:
            raise ConfigError("grid: need s_min < s_max")
        if self.mode not in ("plain", "weighted"):
            raise ConfigError(f"resolvent: unknown mode {self.mode!r}")

    def problem(self):
        return SchrodingerProblem(n=self.n, gamma=self.gamma,
                                  gamma_prime=self.gamma_prime,
                                  V=self.potential, l=self.l)


def load_config(path):
    """The RunConfig of a UTF-8 config file, where ``#`` starts a comment;
    whatever configparser cannot read is a one-line ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        return RunConfig(parser)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None


def _report(out, name, lines):
    """Print a text report and write it to <out>/<name>.txt."""
    for ln in lines:
        print(ln)
    with open(os.path.join(out, f"{name}.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def _write_csv(out, name, header, rows, log):
    """Write the header and rows to <out>/<name>.csv, floats as %.17g.

    The rows are built by the caller, so a command that fails on a row
    leaves no file behind.
    """
    path = os.path.join(out, f"{name}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["%.17g" % v if isinstance(v, float) else v
                          for v in row] for row in rows)
    log(f"wrote {path}")
    return EXIT_OK


def _cmd_classify(cfg, out, log):
    rw = rewrite(cfg.problem())
    return _report(out, "classify", [
        f"near 0: {rw.branch_zero} rewrite, {rw.label_zero} calculus",
        f"near infinity: {rw.branch_infinity} rewrite, "
        f"{rw.label_infinity} calculus",
    ])


def _cmd_membership(cfg, out, log):
    rep = membership_in_diff_s(cfg.problem())
    lines = [f"weight phi = {rep.weight}",
             f"weight psi = {rep.angular_weight}"]
    for v in rep.verdicts:
        lines.append(f"coefficient {v.key}: {v.coefficient} -> "
                     f"{'member' if v.is_member else 'FAIL'}")
    lines.append(f"overall: {'PASS' if rep.passed else 'FAIL'}")
    return _report(out, "membership", lines)


def _cmd_flow(cfg, out, log):
    flow = Flow(Weight(cfg.weight))
    rows = [(cfg.s, x, flow.apply(cfg.s, x)) for x in cfg.x_values]
    return _write_csv(out, "flow", ["s", "x", "sigma_s_x"], rows, log)


def _cmd_spectrum(cfg, out, log):
    prob = cfg.problem()
    grid = GeometricGrid(cfg.s_min, cfg.s_max, cfg.points)
    result = assemble_and_solve(prob, grid, k=cfg.num_eigs)
    if not all(b <= cfg.tolerance for b in result.backward_errors):  # NaN too
        raise ConvergenceError(f"eigenpair backward errors "
                               f"{result.backward_errors} above tolerance")
    rows = [(prob.l, idx, lam, res, grid.n_points, grid.s_min, grid.s_max)
            for idx, (lam, res) in enumerate(zip(result.eigenvalues,
                                                 result.residuals))]
    _write_csv(out, "spectrum", ["l", "index", "eigenvalue", "residual",
                                 "grid_points", "s_min", "s_max"], rows, log)
    for idx, lam in enumerate(result.eigenvalues):
        print(f"l={prob.l} eigenvalue[{idx}] = {lam:.12g}")
    return EXIT_OK


def _cmd_parametrix(cfg, out, log):
    rows = parametrix_residual(cfg.problem(), orders=cfg.orders,
                               cutoffs=cfg.cutoffs)
    _write_csv(out, "parametrix", ["N", "K", "residual_ratio"], rows, log)
    for N, K, ratio in rows:
        print(f"N={N} K={K:g} residual_ratio={ratio:.6g}")
    return EXIT_OK


def _cmd_resolvent(cfg, out, log):
    z = complex(cfg.z_real, cfg.z_imag)
    rep = resolvent_probe(cfg.problem(), z, mode=cfg.mode)
    lines = [f"z = {z}", f"spectrum distance = {rep.spectrum_distance:.6g}"]
    for (i, j), (a, b, r) in sorted(rep.norms.items()):
        lines.append(f"i={i} j={j}: coarse {a:.6g}  fine {b:.6g}  "
                     f"ratio {r:.6g}")
    return _report(out, "resolvent", lines)


def _cmd_selftest(cfg, out, log):
    failures = run_selftest(log)
    if failures:
        for name in failures:
            print(f"SELFTEST FAIL: {name}")
        return EXIT_SELFTEST
    print("selftest: all checks passed")
    return EXIT_OK


def run_selftest(log=lambda msg: None):
    """Quick pass over every module's invariants; returns failed check names."""
    failures = []

    def check(name, fn):
        try:
            ok = fn()
        except DegcalcError as exc:
            log(f"{name}: raised {exc!r}")
            ok = False
        log(f"{name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    def ring_one_term():
        # t(1+t) - t^2 stores two terms and equals the one term t
        f = RadialFunction.term(1, 1, 1) - RadialFunction.term(1, 2)
        return f.one_term() == RadialFunction.term(1, 1)

    check("ring one-term reading", ring_one_term)

    def membership_family():
        for a in (1, Fraction(3, 2), 2):
            for b in (0, Fraction(1, 2), 1):
                phi = Weight.from_term(1, a, 0, domain=UNIT_INTERVAL)
                psi = RadialFunction.term(1, b, 0, domain=UNIT_INTERVAL)
                if not membership_order(psi, phi, math.inf).is_member:
                    return False
        return True

    check("membership power family", membership_family)

    def flow_group_law():
        fl = Flow(Weight(RadialFunction.term(1, 2, -1)))
        for s in (-0.7, 0.4):
            for t in (0.3, -1.1):
                for x in (0.05, 1.0, 7.0):
                    a = fl.apply(s, fl.apply(t, x))
                    b = fl.apply(s + t, x)
                    if abs(a - b) > 1e-8:
                        return False
        return completeness_check(Weight.from_term(1, 1))

    check("flow group law", flow_group_law)

    def flow_scaling():
        fl = Flow(Weight.from_term(1, 1))
        val = flow_scaling_limit(fl, Weight.from_term(1, Fraction(1, 2)), 1.0)
        return abs(val - math.exp(-0.5)) < 1e-12

    check("flow boundary scaling", flow_scaling)

    def groupoid_laws():
        fl = Flow(Weight.from_term(1, 1))
        g = GPhiElement(4.0, math.log(3))
        h = GPhiElement(2.0, math.log(2))
        gh = gphi_compose(g, h, fl)
        if abs(gh.t - math.log(6)) > 1e-12:
            return False
        z = zeta_cocycle(GPhiElement(0.0, 0.5), "zero", fl)
        return abs(z - math.exp(-0.5)) < 1e-12

    check("groupoid laws", groupoid_laws)

    def lie_rinehart():
        phi = Weight.from_term(1, 1)
        psi = Weight.from_term(1, Fraction(1, 2))
        samples = random_lie_rinehart_samples(phi, psi, 5, seed=3)
        rep = lie_rinehart_check(phi, psi, samples)
        return all(ok for ok, _ in rep.values())

    check("lie-rinehart axioms", lie_rinehart)

    def commutator_expansion():
        phi = Weight.from_term(1, 1)
        psi = Weight.from_term(1, Fraction(1, 2))
        X = DiffOp.X(phi, psi)
        Y = DiffOp.Y(phi, psi)
        return op_commutator(X, Y) == op_compose(X, Y) - op_compose(Y, X)

    check("commutator expansion", commutator_expansion)

    def rewrite_checks():
        rw = rewrite(SchrodingerProblem.hydrogen())
        return (rw.branch_zero, rw.branch_infinity) == ("schr3", "schr5")

    check("rewrite branches", rewrite_checks)

    def membership_schrodinger():
        return (membership_in_diff_s(SchrodingerProblem.hydrogen()).passed
                and membership_in_diff_s(SchrodingerProblem.oscillator()).passed
                and not membership_in_diff_s(SchrodingerProblem.hydrogen(),
                                             corrupt=(1, 0)).passed)

    check("operator membership", membership_schrodinger)

    def spectrum_oracle():
        res = assemble_and_solve(SchrodingerProblem.hydrogen(),
                                 GeometricGrid(-10, 10, 2000), k=2)
        return (abs(res.eigenvalues[0] + 0.25) < 1e-3
                and abs(res.eigenvalues[1] + 0.0625) < 1e-3)

    check("spectral oracle", spectrum_oracle)

    def parametrix_decay():
        rows = parametrix_residual(SchrodingerProblem.oscillator(),
                                   orders=(0, 1, 2), cutoffs=(4.0,),
                                   n_grid=60)
        vals = [ratio for (_, _, ratio) in rows]
        return vals[0] > vals[1] > vals[2]

    check("parametrix residual decay", parametrix_decay)

    return failures


_DISPATCH = {
    "classify": _cmd_classify,
    "membership": _cmd_membership,
    "flow": _cmd_flow,
    "spectrum": _cmd_spectrum,
    "parametrix": _cmd_parametrix,
    "resolvent": _cmd_resolvent,
    "selftest": _cmd_selftest,
}

#: error class -> (exit code, stderr prefix); the first match wins
_EXITS = {
    ConfigError: (EXIT_CONFIG, "config error"),
    ConvergenceError: (EXIT_CONVERGENCE, "convergence failure"),
    PreconditionError: (EXIT_PRECONDITION, "precondition violated"),
    DegcalcError: (EXIT_PRECONDITION, "error"),
}


#: the command line, built once: ``main`` only parses with it
_PARSER = argparse.ArgumentParser(
    prog="degcalc", description="Weighted operator calculus batch runner")
_PARSER.add_argument("--config", required=True, help="path to the config file")
_PARSER.add_argument("--out", default=".", help="output directory")
_PARSER.add_argument("--verbose", action="store_true")


def main(argv=None):
    args = _PARSER.parse_args(argv)

    def log(msg):
        if args.verbose:
            print(msg, file=sys.stderr)

    try:
        cfg = load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # a file by that name, or on its path
            raise ConfigError(f"cannot make the output directory "
                              f"{args.out}: {exc.strerror}") from None
        return _DISPATCH[cfg.command](cfg, args.out, log)
    except DegcalcError as exc:
        code, prefix = next(v for k, v in _EXITS.items() if isinstance(exc, k))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
