"""Acceptance gate: one check per release criterion, pinned tolerances.

Each test prints a single PASS/FAIL line so the gate can be read off the
pytest -s output directly.
"""

import math
import random
import time
from fractions import Fraction

from scipy.linalg import eigh_tridiagonal

from degcalc.diffop import (CylinderFunction, DiffOp, lie_rinehart_check,
                            op_compose, random_lie_rinehart_samples)
from degcalc.flows import Flow, flow_scaling_limit, power_flow_exponents
from degcalc.groupoid import GPhiElement, gphi_compose, zeta_cocycle
from degcalc.powerfun import UNIT_INTERVAL, RadialFunction
from degcalc.schrodinger import (GeometricGrid, SchrodingerProblem, _assemble,
                                 assemble_and_solve, membership_in_diff_s,
                                 parametrix_residual, rewrite)
from degcalc.weights import Weight, membership_order, structure_function
from test_schrodinger import statements_disagree

F = Fraction


def report(num, name, passed):
    print(f"\n[{num:2d}] {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({name}) failed"


def test_01_flow_closed_forms_and_group_law():
    start = time.time()
    ok = True
    rng = random.Random(7)

    # linear weight: sigma_s(x) = e^s x to 1e-12
    lin = Flow(Weight.from_term(1, 1))
    for _ in range(100):
        s, x = rng.uniform(-2, 2), rng.uniform(0.05, 20.0)
        ok &= abs(lin.apply(s, x) - math.exp(s) * x) <= 1e-12 * (1 + x)

    # pure powers (incl. a non-rational exponent): closed vs quadrature 1e-8
    for a in (F(3, 2), F(2), math.e):
        closed = Flow(Weight.from_term(1, a), require_complete=False)
        numeric = Flow(Weight.from_term(1, a), mode="numeric",
                       require_complete=False)
        for _ in range(100):
            s, x = rng.uniform(-0.9, 0.9), rng.uniform(0.05, 0.6)
            ok &= abs(closed.apply(s, x) - numeric.apply(s, x)) <= 1e-8

    # group law: 1e-10 closed-form, 1e-8 quadrature path
    for _ in range(50):
        s, t, x = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.1, 5)
        ok &= abs(lin.apply(s, lin.apply(t, x))
                  - lin.apply(s + t, x)) <= 1e-10
    comp = Flow(Weight(RadialFunction.term(1, 2, -1)))
    for _ in range(50):
        s, t, x = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.05, 20)
        rhs = comp.apply(s + t, x)
        ok &= abs(comp.apply(s, comp.apply(t, x)) - rhs) \
            <= 1e-8 * max(1.0, abs(rhs))

    ok &= (time.time() - start) < 5.0
    report(1, "flow closed forms, quadrature agreement, group law", ok)


def test_02_normal_form_vs_brute_force():
    profiles = (RadialFunction.term(1, 1),
                RadialFunction.term(1, F(3, 2), -3),
                RadialFunction.term(1, 2, -3))
    ok = True
    for profile in profiles:
        w = Weight(profile)
        X = DiffOp("raw", {(1, 0): CylinderFunction.radial(profile)}, w, w)
        brute = DiffOp.identity(w, w)
        for n in range(7):
            lie = DiffOp("lie", {(n, 0): 1}, w, w)
            ok &= lie.to_monomial() == brute.to_monomial()
            ok &= lie.to_monomial().to_lie() == lie
            brute = op_compose(X, brute)
    report(2, "iterated-field normal forms match brute-force composition", ok)


def _probe_continuity(g):
    """Finite sampling probe: finite values with shrinking increments at
    both compactified endpoints."""
    def end_ok(ts):
        try:
            vals = [abs(complex(g(t))) for t in ts]
        except (OverflowError, ValueError):
            return False
        if not all(math.isfinite(v) for v in vals):
            return False
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        scale = max(1.0, vals[2])
        return d2 <= max(1e-6 * scale, 0.5 * d1 + 1e-12 * scale)

    return end_ok((1e-5, 1e-7, 1e-9)) and end_ok((1e5, 1e7, 1e9))


def test_03_membership_vs_continuity_probes():
    rng = random.Random(13)
    ok = True
    exps = [F(0), F(1, 4), F(1, 2), F(1), F(3, 2), F(-1, 2)]
    for _ in range(20):
        a = rng.choice([F(1), F(3, 2), F(2)])
        phi = Weight(RadialFunction.term(1, a, -a))  # bounded, complete-type
        p = rng.choice(exps)
        q = rng.choice([F(0), -p, -p - 1, F(-1)])
        f = RadialFunction.term(1, p, q)
        n = rng.randint(0, 3)
        verdict = membership_order(f, phi, n)
        g = f
        probe_order = -1
        for k in range(n + 1):
            if not _probe_continuity(g):
                break
            probe_order = k
            g = phi.profile * g.derivative()
        ok &= (verdict.member_up_to >= n) == (probe_order >= n)

    # the reference power family on the unit interval is fully inside
    for a in (1, F(3, 2), 2):
        for b in (0, F(1, 2), 1):
            phi = Weight.from_term(1, a, 0, domain=UNIT_INTERVAL)
            psi = RadialFunction.term(1, b, 0, domain=UNIT_INTERVAL)
            ok &= membership_order(psi, phi, math.inf).is_member
    report(3, "membership decision vs numeric continuity probes", ok)


def test_04_structure_function_boundary_values():
    ok = True
    for b in (F(1, 2), F(1), F(2)):
        psi = Weight.from_term(1, b)
        ok &= structure_function(psi, Weight.from_term(1, 1)).value_at_zero == b
        for a in (F(3, 2), F(2)):
            ok &= structure_function(
                psi, Weight.from_term(1, a)).value_at_zero == 0
    report(4, "structure function at the origin (exact)", ok)


def test_05_lie_rinehart_axioms():
    phi = Weight.from_term(1, 1)
    psi = Weight.from_term(1, F(1, 2))
    samples = random_lie_rinehart_samples(phi, psi, 50, seed=17)
    rep = lie_rinehart_check(phi, psi, samples)
    ok = all(passed for passed, _ in rep.values())
    report(5, "Lie-Rinehart axioms exact on 50 random samples", ok)


def test_06_schrodinger_rewrites():
    ok = True
    # branch map over the (gamma, gamma') quadrants
    rw = rewrite(SchrodingerProblem.hydrogen())
    ok &= (rw.branch_zero, rw.branch_infinity) == ("schr3", "schr5")
    ok &= (rw.label_zero, rw.label_infinity) == ("c_{1,0}", "c_{2,1}")
    rw = rewrite(SchrodingerProblem.oscillator())
    ok &= (rw.branch_zero, rw.branch_infinity) == ("schr3", "schr6")
    strong = rewrite(SchrodingerProblem(3, F(3, 2), F(-3, 2),
                                        RadialFunction.term(-1, -3)))
    ok &= strong.branch_zero == "schr4"
    ok &= strong.label_zero == "c_{3/2,1/2}"

    # boundary-case coincidence at gamma = 1: both formulas give the same op
    prob = SchrodingerProblem(3, 1, F(-1), RadialFunction.term(-1, -2))
    rw = rewrite(prob)
    phi = Weight.from_term(1, 1)
    direct = DiffOp("lie", {
        (2, 0): -1,
        (1, 0): RadialFunction.const(-1),
        (0, 0): RadialFunction.term(1, 2) * RadialFunction.term(-1, -2),
    }, phi)
    ok &= rw.op_zero == direct

    # boundary-case coincidence at gamma' = 0 on the far face
    rwh = rewrite(SchrodingerProblem.hydrogen())
    phi_inf = Weight.from_term(1, 2, 0, domain=UNIT_INTERVAL)
    direct_inf = DiffOp("lie", {
        (2, 0): -1,
        (1, 0): RadialFunction.term(2, 1, 0, domain=UNIT_INTERVAL),
        (0, 0): RadialFunction.term(-1, 1, 0, domain=UNIT_INTERVAL),
    }, phi_inf)
    ok &= rwh.op_infinity == direct_inf

    # both faces, the membership operator and the solver's rows state one
    # operator
    for tied in (SchrodingerProblem(3, F(3, 2), F(-3, 2),
                                    RadialFunction.term(-1, -3)),
                 SchrodingerProblem.hydrogen(),
                 SchrodingerProblem.oscillator(n=4, l=1)):
        ok &= statements_disagree(tied) == []
    report(6, "singular-potential rewrites and boundary coincidences", ok)


def test_07_spectral_oracles():
    ok = True
    t0 = time.time()
    hyd = assemble_and_solve(SchrodingerProblem.hydrogen(), k=2)
    ok &= (time.time() - t0) < 10.0
    ok &= abs(hyd.eigenvalues[0] + 0.25) <= 1e-3
    ok &= abs(hyd.eigenvalues[1] + 0.0625) <= 1e-3

    t0 = time.time()
    osc = assemble_and_solve(SchrodingerProblem.oscillator(), k=3)
    ok &= (time.time() - t0) < 10.0
    for lam, ref in zip(osc.eigenvalues, (3.0, 7.0, 11.0)):
        ok &= abs(lam - ref) <= 1e-3

    # independent oracle on a well-conditioned window: bisection on the
    # fine and half grids' matrices, extrapolated as the solver does
    grid = GeometricGrid(-4.0, 4.0, 400)
    prob = SchrodingerProblem.oscillator()
    sp = assemble_and_solve(prob, grid, k=2)
    fine, half = (eigh_tridiagonal(
        *_assemble(prob, grid.s_nodes(n))[:2], eigvals_only=True,
        select="i", select_range=(0, 1), lapack_driver="stebz", tol=1e-300)
        for n in (400, 200))
    de = fine + (fine - half) / ((399 / 199) ** 2 - 1)
    for a, b in zip(sp.eigenvalues, de):
        ok &= abs(a - b) <= 1e-8
    report(7, "hydrogen/oscillator eigenvalues vs analytic oracles", ok)


def test_08_operator_membership_reports():
    ok = True
    for prob in (SchrodingerProblem.hydrogen(),
                 SchrodingerProblem.oscillator()):
        rep = membership_in_diff_s(prob)
        ok &= rep.passed and all(v.is_member for v in rep.verdicts)
    bad = membership_in_diff_s(SchrodingerProblem.hydrogen(), corrupt=(1, 0))
    ok &= (not bad.passed) and bad.offending == ((1, 0),)
    report(8, "prefactored coefficients in the weighted algebra", ok)


def test_09_parametrix_residual_decay():
    rows = parametrix_residual(SchrodingerProblem.oscillator(),
                               orders=(0, 1, 2), cutoffs=(4.0, 8.0))
    by = {(N, K): r for N, K, r in rows}
    ok = by[(1, 4.0)] < by[(0, 4.0)]
    ok &= by[(2, 4.0)] < by[(1, 4.0)]
    ok &= by[(2, 4.0)] / by[(2, 8.0)] >= 2.0
    report(9, "parametrix residual decays in order and frequency", ok)


def test_10_groupoid_laws_and_cocycles():
    ok = True
    rng = random.Random(29)
    fl = Flow(Weight(RadialFunction.term(1, 2, -1)))
    for _ in range(1000):
        x = rng.uniform(0.05, 8.0)
        t1, t2, t3 = (rng.uniform(-1, 1) for _ in range(3))
        h = GPhiElement(x, t3)
        g = GPhiElement(h.r(fl), t2)
        f = GPhiElement(g.r(fl), t1)
        lhs = gphi_compose(gphi_compose(f, g, fl), h, fl)
        rhs = gphi_compose(f, gphi_compose(g, h, fl), fl)
        ok &= abs(lhs.t - rhs.t) <= 1e-10 and lhs.x == rhs.x
        gh = gphi_compose(g, h, fl)
        for which in ("zero", "infinity"):
            prod = zeta_cocycle(g, which, fl) * zeta_cocycle(h, which, fl)
            ok &= abs(zeta_cocycle(gh, which, fl) - prod) \
                <= 1e-10 * max(1.0, abs(prod))

    # boundary scaling rate agrees with the quadrature flow to 1e-6
    lin = Flow(Weight.from_term(1, 1))
    for b in (F(1, 2), F(1)):
        val = flow_scaling_limit(lin, Weight.from_term(1, b), 1.0)
        ok &= abs(val - math.exp(-float(b))) <= 1e-6
    report(10, "groupoid laws and cocycle multiplicativity", ok)


def test_11_smoothness_dichotomy_at_origin():
    # integer power: expansion of sigma_s in x has integer exponents only
    ok = all(e == int(e) for e in power_flow_exponents(2, 8))
    # non-integer power: fractional exponents appear ...
    ok &= any(e != int(e) for e in power_flow_exponents(F(3, 2), 8))

    # ... and the second divided difference of x -> sigma_s(x) at 0 diverges
    def second_dd(flow, h):
        return (flow.apply(0.5, 2 * h) - 2 * flow.apply(0.5, h)) / h ** 2

    frac = Flow(Weight.from_term(1, F(3, 2)), require_complete=False)
    quad = Flow(Weight.from_term(1, 2), require_complete=False)
    hs = [1e-4 / 4 ** k for k in range(4)]
    d_frac = [abs(second_dd(frac, h)) for h in hs]
    d_quad = [abs(second_dd(quad, h)) for h in hs]
    # h -> h/4 multiplies the fractional-case difference by ~2 (h^{-1/2})
    ok &= all(b / a > 1.5 for a, b in zip(d_frac, d_frac[1:]))
    # the integer case stays bounded
    ok &= max(d_quad) < 10 * min(d_quad) + 1.0
    report(11, "integer powers flow smoothly, fractional powers do not", ok)
