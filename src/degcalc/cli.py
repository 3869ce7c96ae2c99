"""Batch front door: config parsing, command dispatch, CSV outputs.

Config files are sectioned key=value text (configparser syntax).  Exponents
and coefficients accept rational literals like ``3/2`` so they survive
parsing exactly.  Commands: classify, membership, flow, spectrum,
parametrix, resolvent, selftest.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from fractions import Fraction

from .diffop import (DiffOp, lie_rinehart_check, op_commutator,
                     random_lie_rinehart_samples)
from .errors import (ConfigError, ConvergenceError, DegcalcError,
                     InvalidWeightError, InversionError, PreconditionError)
from .flows import Flow, completeness_check, flow_scaling_limit, write_flow_csv
from .groupoid import GPhiElement, gphi_compose, zeta_cocycle
from .powerfun import HALF_LINE, UNIT_INTERVAL, RadialFunction
from .schrodinger import (GeometricGrid, SchrodingerProblem,
                          assemble_and_solve, membership_in_diff_s,
                          parametrix_residual, resolvent_probe, rewrite,
                          verify_identity_r_power, write_parametrix_csv,
                          write_spectrum_csv)
from .weights import Weight, membership_order

COMMANDS = ("classify", "membership", "flow", "spectrum", "parametrix",
            "resolvent", "selftest")

_KNOWN_KEYS = {
    "run": {"command"},
    "problem": {"n", "gamma", "gamma_prime", "potential", "l"},
    "grid": {"s_min", "s_max", "points"},
    "solve": {"num_eigs", "tolerance"},
    "flow": {"weight", "s", "x_values"},
    "parametrix": {"orders", "cutoffs"},
    "resolvent": {"z_real", "z_imag", "mode"},
}

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_CONVERGENCE = 4


def _rational(text, key):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(
            f"key {key!r}: expected a finite number, got {text.strip()!r}")


def _integer(text, key, minimum=None):
    try:
        v = int(text.strip())
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {text!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"key {key!r}: must be >= {minimum}, got {v}")
    return v


def _floatval(text, key):
    try:
        return float(text.strip())
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {text!r}")


def _term_list(text, key, domain=None):
    """Parse 'coeff,p,q; coeff,p,q; ...' into a ring function."""
    domain = domain or HALF_LINE
    out = RadialFunction.zero(domain=domain)
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ConfigError(
                f"key {key!r}: each term needs 3 fields (coeff,p,q), "
                f"got {chunk!r}")
        c, p, q = (_rational(x, key) for x in parts)
        out = out + RadialFunction.term(c, p, q, domain=domain)
    return out


class RunConfig:
    """Validated run configuration."""

    def __init__(self, parser):
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown section [{section}]")
            for key in parser[section]:
                if key not in _KNOWN_KEYS[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}]")
        if "run" not in parser or "command" not in parser["run"]:
            raise ConfigError("missing [run] command")
        self.command = parser["run"]["command"].strip()
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")

        prob = parser["problem"] if "problem" in parser else {}
        self.n = _integer(prob.get("n", "3"), "n", minimum=2)
        self.gamma = _rational(prob.get("gamma", "1/2"), "gamma")
        self.gamma_prime = _rational(prob.get("gamma_prime", "-1/2"),
                                     "gamma_prime")
        self.potential = _term_list(prob.get("potential", "-1,-1,0"),
                                    "potential")
        self.l = _integer(prob.get("l", "0"), "l", minimum=0)

        grid = parser["grid"] if "grid" in parser else {}
        self.s_min = _floatval(grid.get("s_min", "-12"), "s_min")
        self.s_max = _floatval(grid.get("s_max", "12"), "s_max")
        if not self.s_min < self.s_max:
            raise ConfigError("grid: need s_min < s_max")
        self.points = _integer(grid.get("points", "4000"), "points",
                               minimum=10)

        solve = parser["solve"] if "solve" in parser else {}
        self.num_eigs = _integer(solve.get("num_eigs", "2"), "num_eigs",
                                 minimum=1)
        self.tolerance = _floatval(solve.get("tolerance", "1e-8"),
                                   "tolerance")
        if self.tolerance <= 0:
            raise ConfigError("solve: tolerance must be > 0")

        fl = parser["flow"] if "flow" in parser else {}
        self.flow_weight = _term_list(fl.get("weight", "1,1,0"), "weight")
        self.flow_s = _floatval(fl.get("s", "1.0"), "s")
        xv = fl.get("x_values", "0.1;0.5;1;2;10")
        self.flow_x = []
        for chunk in xv.split(";"):
            chunk = chunk.strip()
            if chunk:
                self.flow_x.append(_floatval(chunk, "x_values"))

        par = parser["parametrix"] if "parametrix" in parser else {}
        self.px_orders = tuple(
            _integer(c, "orders", minimum=0)
            for c in par.get("orders", "0;1;2").split(";") if c.strip())
        self.px_cutoffs = tuple(
            _floatval(c, "cutoffs")
            for c in par.get("cutoffs", "4;8").split(";") if c.strip())

        res = parser["resolvent"] if "resolvent" in parser else {}
        self.z = complex(_floatval(res.get("z_real", "-1"), "z_real"),
                         _floatval(res.get("z_imag", "0"), "z_imag"))
        self.res_mode = res.get("mode", "plain").strip()
        if self.res_mode not in ("plain", "weighted"):
            raise ConfigError(f"resolvent: unknown mode {self.res_mode!r}")

    def problem(self):
        return SchrodingerProblem(n=self.n, gamma=self.gamma,
                                  gamma_prime=self.gamma_prime,
                                  V=self.potential, l=self.l)

    def grid(self):
        return GeometricGrid(self.s_min, self.s_max, self.points)


def load_config(path):
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return RunConfig(parser)


def _report(out, name, lines):
    """Print a text report and write it to <out>/<name>.txt."""
    for ln in lines:
        print(ln)
    with open(os.path.join(out, f"{name}.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
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
    flow = Flow(Weight(cfg.flow_weight))
    path = os.path.join(out, "flow.csv")
    write_flow_csv(path, flow, cfg.flow_s, cfg.flow_x)
    log(f"wrote {path}")
    return EXIT_OK


def _cmd_spectrum(cfg, out, log):
    prob = cfg.problem()
    result = assemble_and_solve(prob, cfg.grid(), k=cfg.num_eigs)
    if not all(b <= cfg.tolerance for b in result.backward_errors):  # NaN too
        raise ConvergenceError(f"eigenpair backward errors "
                               f"{result.backward_errors} above tolerance")
    path = os.path.join(out, "spectrum.csv")
    write_spectrum_csv(path, prob, result)
    log(f"wrote {path}")
    for idx, lam in enumerate(result.eigenvalues):
        print(f"l={prob.l} eigenvalue[{idx}] = {lam:.12g}")
    return EXIT_OK


def _cmd_parametrix(cfg, out, log):
    rep = parametrix_residual(cfg.problem(), orders=cfg.px_orders,
                              cutoffs=cfg.px_cutoffs)
    path = os.path.join(out, "parametrix.csv")
    write_parametrix_csv(path, rep)
    log(f"wrote {path}")
    for N, K, ratio in rep.rows:
        print(f"N={N} K={K:g} residual_ratio={ratio:.6g}")
    return EXIT_OK


def _cmd_resolvent(cfg, out, log):
    rep = resolvent_probe(cfg.problem(), cfg.z, mode=cfg.res_mode)
    lines = [f"z = {rep.z}", f"spectrum distance = {rep.spectrum_distance:.6g}"]
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

    def ring_roundtrip():
        f = (RadialFunction.term(Fraction(3, 2), Fraction(1, 3), -2)
             + RadialFunction.term(-1, 0, Fraction(-1, 2)))
        return RadialFunction.from_text(f.to_text()) == f

    check("ring text round-trip", ring_roundtrip)

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

    def commutator_drop():
        phi = Weight.from_term(1, 1)
        psi = Weight.from_term(1, Fraction(1, 2))
        X = DiffOp.X(phi, psi)
        Y = DiffOp.Y(phi, psi)
        return op_commutator(X, Y).order <= 1

    check("commutator order drop", commutator_drop)

    def rewrite_checks():
        hyd = SchrodingerProblem.hydrogen()
        rw = rewrite(hyd)
        return (rw.branch_zero == "schr3" and verify_identity_r_power())

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
        rep = parametrix_residual(SchrodingerProblem.oscillator(),
                                  orders=(0, 1, 2), cutoffs=(4.0,),
                                  n_grid=60)
        vals = [ratio for (_, _, ratio) in rep.rows]
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


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="degcalc",
        description="Weighted operator calculus batch runner")
    ap.add_argument("--config", required=True, help="path to the config file")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    def log(msg):
        if args.verbose:
            print(msg, file=sys.stderr)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
        return _DISPATCH[cfg.command](cfg, args.out, log)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, InversionError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (PreconditionError, InvalidWeightError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
