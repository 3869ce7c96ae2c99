"""Flows: completeness, closed forms, the table of F, scaling limits."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from numpy.polynomial import chebyshev
from scipy.integrate import quad

from degcalc import flows
from degcalc.errors import (ConvergenceError, PreconditionError,
                            PropertyViolationError)
from degcalc.flows import (GROW_CHUNK, HALVINGS, SIGMA_MEMO, TABLE_STEP, Flow,
                           completeness_check, flow_scaling_limit,
                           power_flow_exponents)
from degcalc.groupoid import GPhiElement, gphi_compose, zeta_cocycle
from degcalc.powerfun import UNIT_INTERVAL, RadialFunction, to_u
from degcalc.weights import Weight

F = Fraction


class TestCompleteness:
    def test_linear_weight_complete(self):
        assert completeness_check(Weight.from_term(1, 1))

    def test_sublinear_at_zero_incomplete(self):
        w = Weight.from_term(1, F(1, 2), 0, domain=UNIT_INTERVAL)
        assert not completeness_check(w)

    def test_quadratic_with_decay_complete(self):
        # grows like t at infinity, vanishes like t^2 at 0
        assert completeness_check(Weight(RadialFunction.term(1, 2, -1)))

    def test_superlinear_growth_incomplete(self):
        assert not completeness_check(Weight.from_term(1, 2))

    def test_incomplete_weight_rejected(self):
        with pytest.raises(PreconditionError):
            Flow(Weight.from_term(1, 2))


class TestClosedForms:
    def test_exponential_flow(self):
        fl = Flow(Weight.from_term(1, 1))
        assert fl.mode == "closed_form_b"
        assert abs(fl.F(math.e) - 1.0) < 1e-15
        assert abs(fl.apply(math.log(2), 3.0) - 6.0) < 1e-12

    def test_power_flow_reference_values(self):
        fl = Flow(Weight.from_term(1, 2), require_complete=False)
        assert fl.mode == "closed_form_power"
        assert abs(fl.F(0.5) - (-1.0)) < 1e-15
        # sigma_{1/2}(1/2) = 0.5 / (1 - 0.5*0.5) = 2/3
        assert abs(fl.apply(0.5, 0.5) - 2.0 / 3.0) < 1e-15

    def test_b_weight_tanh_flow(self):
        # phi = 2t(1-t) on [0, 1] moves x = 2t - 1 by dx/ds = 1 - x^2
        fl = Flow(Weight.from_term(2, 1, 1, domain=UNIT_INTERVAL))
        assert fl.mode == "closed_form_b"
        assert fl.F_inverse(0.0) == 0.5
        assert abs(2 * fl.apply(1.0, 0.5) - 1 - math.tanh(1.0)) < 1e-15
        assert fl.apply(5.0, 0.0) == 0.0
        for s in (-1.3, 0.4, 2.0):
            for x in (-0.9, 0.0, 0.3, 0.99):
                want = math.tanh(math.atanh(x) + s)
                assert abs(2 * fl.apply(s, (1 + x) / 2) - 1 - want) < 1e-14

    def test_b_weight_group_law(self):
        fl = Flow(Weight.from_term(F(1, 2), 1, 1, domain=UNIT_INTERVAL))
        assert fl.mode == "closed_form_b"
        for s in (-1.2, 0.5):
            for t in (0.8, -0.3):
                for x in (0.02, 0.5, 0.97):
                    lhs = fl.apply(s, fl.apply(t, x))
                    assert abs(lhs - fl.apply(s + t, x)) < 1e-14

    def test_same_exponents_on_half_line_stay_numeric(self):
        # on the half-line the exponents (1, 1) are t(1+t)
        fl = Flow(Weight.from_term(1, 1, 1), require_complete=False)
        assert fl.mode == "numeric"

    def test_identity_at_s_zero(self):
        for fl in (Flow(Weight.from_term(1, 1)),
                   Flow(Weight.from_term(2, 1, 1, domain=UNIT_INTERVAL))):
            assert fl.apply(0.0, 0.42) == 0.42


class TestNumericMode:
    def test_agrees_with_closed_form(self):
        closed = Flow(Weight.from_term(1, F(3, 2)), require_complete=False)
        numeric = Flow(Weight.from_term(1, F(3, 2)), mode="numeric",
                       require_complete=False)
        for s in (-0.6, 0.2, 0.9):
            for x in (0.1, 0.4, 0.8):
                assert abs(closed.apply(s, x)
                           - numeric.apply(s, x)) < 1e-8

    def test_group_law(self):
        fl = Flow(Weight(RadialFunction.term(1, 2, -1)))
        for s in (-1.2, 0.5):
            for t in (0.8, -0.3):
                for x in (0.02, 1.0, 40.0):
                    lhs = fl.apply(s, fl.apply(t, x))
                    rhs = fl.apply(s + t, x)
                    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_inverse_round_trip(self):
        fl = Flow(Weight(RadialFunction.term(1, 2, -1)))
        for x in (0.05, 2.0, 9.0):
            assert abs(fl.F_inverse(fl.F(x)) - x) < 1e-10 * max(1.0, x)

    def test_endpoints_fixed(self):
        fl = Flow(Weight(RadialFunction.term(1, 2, -1)))
        assert fl.apply(3.0, 0.0) == 0.0
        assert fl.apply(3.0, math.inf) == math.inf

    def test_monotone_in_x(self):
        fl = Flow(Weight(RadialFunction.term(1, 2, -1)))
        xs = [0.01, 0.1, 1.0, 5.0, 50.0]
        for s in (-1.0, 1.5):
            ys = [fl.apply(s, x) for x in xs]
            assert all(a < b for a, b in zip(ys, ys[1:]))


def scipy_calls(monkeypatch):
    """The list of the calls anything makes to scipy's ``quad`` and
    ``brentq`` from now on, as (name, arguments)."""
    calls = []
    for owner, name in ((scipy.integrate, "quad"), (scipy.optimize, "brentq")):
        monkeypatch.setattr(
            owner, name, lambda *a, name=name, real=getattr(owner, name), **k:
            calls.append((name, a)) or real(*a, **k))
    return calls


def steep_F(u):
    """F(u) = u + sum_k C(19,k)(1 - e^{-ku})/k for phi = t^20/(1+t)^19,
    whose 1/g = (1 + e^{-u})^19."""
    return u + sum(mpmath.binomial(19, k) * (1 - mpmath.exp(-k * u)) / k
                   for k in range(1, 20))


class TestTableOfF:
    """Numeric F is a table of Chebyshev segments grown from u = 0 only as
    far as a call needs, halved where 16 points do not resolve 1/g."""

    #: phi = t + t^2/(1+t) = t(1+2t)/(1+t), F(x) = ln x - ln((1+2x)/3)/2
    PHI = RadialFunction.term(1, 1) + RadialFunction.term(1, 2, -1)
    #: phi = t^20/(1+t)^19: 1/g = (1 + e^{-u})^19 is too steep for 16
    #: points on a segment 0.2 wide below u = 0.2
    STEEP = RadialFunction.term(1, 20, -19)

    def test_first_apply_grows_only_what_it_needs(self):
        # u = ln 0.5 ~ -0.69 and its image lie within four segments of 0
        fl = Flow(Weight(self.PHI))
        assert fl.mode == "numeric"
        fl.apply(0.7, 0.5)
        assert len(fl._table_u) <= 8

    def test_applies_make_no_scipy_calls(self, monkeypatch):
        calls = scipy_calls(monkeypatch)
        fl = Flow(Weight(self.PHI))
        fl.apply(0.7, 0.5)
        for k in range(100):
            fl.apply(-1.5 + 0.03 * k, math.exp(-2.0 + 0.04 * k))
        assert calls == []

    @pytest.mark.parametrize("x", [1e-16, 1e300])
    def test_far_F_table_matches_single_segment_growth(self, x):
        # one call grows the table to u = ln x at once; growing it one
        # segment at a time gives the same table, bit for bit
        fl, ref = Flow(Weight(self.PHI)), Flow(Weight(self.PHI))
        fl.F(x)
        u, up = math.log(x), x > 1.0
        while ((ref._table_u[-1] < u if up else ref._table_u[0] > u)
               and ref._grow(up)):
            pass
        assert len(fl._table_u) == len(ref._table_u) > 150
        for table in ("_table_u", "_table_F", "_table_err", "_table_mean"):
            assert getattr(fl, table) == getattr(ref, table)

    def test_far_F_evaluates_g_once_per_direction(self, monkeypatch):
        calls, real = [], RadialFunction.at_u
        monkeypatch.setattr(
            RadialFunction, "at_u",
            lambda g, u: calls.append(np.shape(u)) or real(g, u))
        fl = Flow(Weight(self.PHI))
        fl.F(1e-16)
        fl.F(1e300)
        # 185 segments down to u = ln 1e-16 ~ -36.8, 3,454 up to ~690.8,
        # each direction one _grow that samples at most GROW_CHUNK at once
        assert calls == [(185, 16)] + [(GROW_CHUNK, 16)] * 13 + [(126, 16)]

    #: far inversions: 258 segments down to u ~ -51.6; the whole upper table
    #: to u ~ 709.6 (the image is past the float range); 65 segments down to
    #: u = -13, each halved once; 2,052 segments up to u ~ 410.4, the first
    #: halved once
    FAR_APPLIES = pytest.mark.parametrize(
        "phi, s", [(PHI, -40.0), (PHI, 1000.0), (STEEP, -1e100),
                   (STEEP, 5.9e4)],
        ids=["phi-down", "phi-up", "steep-down", "steep-up"])

    @FAR_APPLIES
    def test_far_apply_table_matches_single_segment_growth(self, phi, s):
        # the inversion grows the table by a doubling reach in chunks; one
        # segment at a time to the same ends gives the same table, bit for
        # bit, halved segments included
        fl, ref = Flow(Weight(phi)), Flow(Weight(phi))
        fl.apply(s, 1.0)
        while ref._table_u[-1] < fl._table_u[-1] and ref._grow(True):
            pass
        while ref._table_u[0] > fl._table_u[0] and ref._grow(False):
            pass
        assert len(fl._table_u) > 60
        for table in ("_table_u", "_table_F", "_table_err", "_table_mean"):
            assert getattr(fl, table) == getattr(ref, table)

    def test_inversion_off_the_table_grows_in_few_calls(self, monkeypatch):
        # the image of 1 lies past the float range: the table is grown to
        # its end, 3,548 segments, by a reach that doubles on each pass
        calls, real = [], Flow._grow
        monkeypatch.setattr(
            Flow, "_grow",
            lambda fl, *a: calls.append(a) or real(fl, *a))
        fl = Flow(Weight(RadialFunction.term(1, 2, -1)))
        assert fl.apply(1000.0, 1.0) == math.inf
        assert len(fl._table_u) == 3549
        assert len(calls) <= 15

    @FAR_APPLIES
    def test_stacked_products_match_per_row_products(self, phi, s):
        # one stacked product per chunk runs one gemv per row, so it equals
        # the per-row matvec bit for bit (rows @ M.T, a gemm, does not);
        # every stored mean is that matvec, and its fit passes: the last two
        # Chebyshev coefficients lie within 1e-15 of the largest, or within
        # twice the largest rounding noise of the samples, unless halving
        # stopped at TABLE_STEP / 2^HALVINGS
        fl = Flow(Weight(phi))
        fl.apply(s, 1.0)
        us, zero = fl._table_u, fl._table_u.index(0.0)
        # each segment's inner node, nearer u = 0, and its outer node
        a = np.array(us[1:zero + 1] + us[zero:-1])[:, None]
        b = np.array(us[:zero] + us[zero + 1:])[:, None]
        u = a + (b - a) * flows._AT
        with np.errstate(all="ignore"):
            g = fl._g.at_u(u)
            rows = 1.0 / g
            noise = (fl._g.at_u_error(u) / abs(g) * abs(rows)).max(1)
        for M in (flows._CHEB, flows._MEAN):
            stacked = (M @ rows[..., None])[..., 0]
            assert np.array_equal(stacked, [M @ row for row in rows])
        means = fl._table_mean[:zero] + fl._table_mean[zero + 1:]
        deepest = TABLE_STEP / 2 ** HALVINGS
        for row, mean, n, width in zip(rows, means, noise, abs(b - a)[:, 0],
                                       strict=True):
            coef = abs(flows._CHEB @ row)
            assert mean == (flows._MEAN @ row).tolist()
            assert (coef[-2:].max() <= max(1e-15 * coef.max(), 2 * n)
                    or width == pytest.approx(deepest))

    def test_steep_segments_are_halved(self, monkeypatch):
        # 1/g = (1 + e^{-u})^19 changes by up to e^{3.8} over 0.2: every
        # segment from u = -1 to 0.2 is halved once, those above stay whole,
        # and nothing calls scipy
        calls = scipy_calls(monkeypatch)
        fl = Flow(Weight(self.STEEP))
        fl.apply(0.5, math.exp(-1.0))
        fl.F(math.exp(1.0))
        assert np.diff(fl._table_u) == pytest.approx(
            [TABLE_STEP / 2] * 12 + [TABLE_STEP] * 4)
        assert fl._table_mean.count(None) == 1  # the node u = 0
        assert calls == []

    def test_steep_sigma_matches_mpmath(self):
        # F(u) = u + sum_k C(19,k)(1 - e^{-ku})/k increases with F' >= 1,
        # so the image lies within |s| of u; the points mix whole and halved
        # segments, and keep |F| small enough that rounding F(x) + s does
        # not dominate
        fl = Flow(Weight(self.STEEP))
        with mpmath.workdps(40):
            for u in (-0.4, 0.0, 0.4, 0.8, 1.2):
                for s in (-1.5, -0.4, 0.6, 1.7):
                    x = math.exp(u)
                    lo = mpmath.log(x) - abs(s)
                    hi = lo + 2 * abs(s)
                    target = steep_F(mpmath.log(x)) + s
                    for _ in range(100):  # bisection
                        mid = (lo + hi) / 2
                        lo, hi = ((mid, hi) if steep_F(mid) < target
                                  else (lo, mid))
                    assert fl.apply(s, x) == pytest.approx(
                        float(mpmath.exp(lo)), rel=1e-12, abs=0)

    def test_steep_far_image_by_newton(self, monkeypatch):
        """sigma_10(10) lies near u = 9.1, where the 16 samples of each
        segment used to fail the strict tail test on rounding noise alone;
        Newton inverts it there, without brentq.  F(10) ~ 5.87e4 is rounded
        before s is added, which costs up to ~1e-11 (ulp(F) g(sigma))."""
        calls = scipy_calls(monkeypatch)
        fl = Flow(Weight(self.STEEP))
        got = fl.apply(10.0, 10.0)
        assert calls == []
        with mpmath.workdps(50):
            u = mpmath.log(10.0)
            target = steep_F(u) + 10
            root = mpmath.findroot(lambda v: steep_F(v) - target,
                                   (u, u + 10), solver="illinois")
            assert got == pytest.approx(float(mpmath.exp(root)), rel=1e-11,
                                        abs=0)

    def test_image_next_to_the_overflow(self):
        # F(1) - 1e306 is reached near u = -37.2387, in the whole segment
        # [-37.4, -37.2] where 1/g overflows below u ~ -37.36: the halves
        # before the overflow are fitted, and the image is a root of F
        fl = Flow(Weight(self.STEEP))
        got = fl.apply(-1e306, 1.0)
        with mpmath.workdps(60):
            target = steep_F(0) - mpmath.mpf(1e306)
            lo, hi = mpmath.mpf(-37.3), mpmath.mpf(-37.2)
            for _ in range(120):  # bisection
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if steep_F(mid) < target else (lo, mid)
            assert got == pytest.approx(float(mpmath.exp(lo)), rel=1e-13,
                                        abs=0)

    @pytest.mark.parametrize("x", [1e-12, 1e-6, 0.3, 1 + 1e-9, 5.0, 1e6,
                                   1e12])
    def test_F_matches_closed_form(self, x):
        # up to 140 segments of 0.2 in u = ln x; near u = 0, F ~ 2u/3 keeps
        # its relative digits
        with mpmath.workdps(30):
            xm = mpmath.mpf(x)
            exact = mpmath.log(xm) - mpmath.log((1 + 2 * xm) / 3) / 2
            assert Flow(Weight(self.PHI)).F(x) == pytest.approx(
                float(exact), rel=1e-14, abs=0)

    @pytest.mark.parametrize("x", [1e30, 1e300])
    def test_F_keeps_its_digits_over_many_segments(self, x):
        # phi = 2t + t^{3/2}(1+t)^{-1/2}: a segment adds nearly the same 1/15
        # each time, whose rounding would add up over the 350 and 3,450
        # segments.  With w = (t/(1+t))^{1/2}, F is the sum of ln w,
        # -ln(1-w)/3 = (ln(1+t) + ln(1+w))/3, -ln(1+w) and ln(2+w)/3.
        phi = (RadialFunction.term(2, 1)
               + RadialFunction.term(1, F(3, 2), F(-1, 2)))

        def antiderivative(t):
            w = mpmath.sqrt(t / (1 + t))
            return (mpmath.log(w) + (mpmath.log(1 + t) + mpmath.log(1 + w)) / 3
                    - mpmath.log(1 + w) + mpmath.log(2 + w) / 3)

        with mpmath.workdps(40):
            exact = antiderivative(mpmath.mpf(x)) - antiderivative(1)
            assert Flow(Weight(phi)).F(x) == pytest.approx(
                float(exact), rel=1e-15, abs=0)

    def test_g_underflowing_far_from_the_call(self):
        # g = (t/(1+t))^19 underflows to 0 at u = -40, which this call never
        # reaches; the value agrees with F(u) = u + sum C(19,k)(1-e^{-ku})/k
        fl = Flow(Weight(RadialFunction.term(1, 20, -19)))
        assert fl.apply(0.5, 1.0) == pytest.approx(1.0000009536790913,
                                                   rel=1e-14, abs=0)

    def test_g_underflowing_near_zero(self):
        # F(1e-15) ~ -e^{656}/19 is finite and sigma_1 barely moves the
        # point; F(1e-17) and F(1e-20) lie past the float range
        w = Weight(RadialFunction.term(1, 20, -19))
        assert Flow(w).apply(1.0, 1e-15) == pytest.approx(1e-15, rel=1e-13,
                                                          abs=0)
        for x in (1e-17, 1e-20):
            with pytest.raises(ConvergenceError):
                Flow(w).apply(1.0, x)

    def test_inverse_where_the_integrand_overflows(self):
        # F = -1.7e308 is reached near u = -37.5, where 1/g ~ 19|F| is
        # past the float range
        fl = Flow(Weight(RadialFunction.term(1, 20, -19)))
        with pytest.raises(ConvergenceError):
            fl.apply(-1.7e308, 1.0)


def test_scipy_names_only_for_the_tracer():
    # the benchmark's tracer looks up flows.quad and flows.brentq by name;
    # each access imports scipy's function and binds nothing in flows
    assert flows.quad is scipy.integrate.quad
    assert flows.brentq is scipy.optimize.brentq
    assert not {"quad", "brentq"} & set(vars(flows))
    with pytest.raises(AttributeError):
        flows.QUAD_RTOL


#: points e^{+-30} for the inversion oracles, and flow times
FAR_POINTS = (math.exp(-30.0), math.exp(30.0))
FLOW_TIMES = (0.1, 1.0, 10.0, -0.1, -1.0, -10.0)


class TestNewtonInversion:
    """F^{-1} by safeguarded Newton on each segment's interpolant."""

    #: phi = t + t^2/(1+t): F(x) = ln x - ln((1+2x)/3)/2, so F(x) = y at
    #: x = (E + sqrt(E^2 + 3E))/3 with E = e^{2y}
    PHI = TestTableOfF.PHI

    @staticmethod
    def phi_inverse(y):
        with mpmath.workdps(40):
            E = mpmath.exp(2 * mpmath.mpf(y))
            return float((E + mpmath.sqrt(E * E + 3 * E)) / 3)

    def grown(self):
        """A flow whose table reaches u = -10 and u = 10."""
        fl = Flow(Weight(self.PHI))
        fl.F(math.exp(-10.0))
        fl.F(math.exp(10.0))
        return fl

    def test_clenshaw_value_and_derivative(self):
        coef = np.cos(np.arange(16.0)) / (1.0 + np.arange(16.0)) ** 2
        for x in np.linspace(-1.0, 1.0, 9):
            m, dm = flows._clenshaw(coef.tolist(), float(x))
            assert m == pytest.approx(chebyshev.chebval(x, coef), rel=1e-14)
            assert dm == pytest.approx(
                chebyshev.chebval(x, chebyshev.chebder(coef)), rel=1e-13)

    # t^a escapes to infinity from e^30 before any time s > 0
    @pytest.mark.parametrize("a", [F(3, 2), 2, math.e])
    @pytest.mark.parametrize("x, s", [(x, s) for x in FAR_POINTS
                                      for s in FLOW_TIMES
                                      if x < 1 or s < 0])
    def test_forced_numeric_power_matches_closed_form(self, a, x, s):
        w = Weight.from_term(1, a)
        numeric = Flow(w, mode="numeric", require_complete=False)
        closed = Flow(w, require_complete=False)
        assert numeric.apply(s, x) == pytest.approx(closed.apply(s, x),
                                                    rel=1e-13, abs=0)

    @pytest.mark.parametrize("phi, F_exact", [
        (RadialFunction.term(1, 2, -1), lambda t: mpmath.log(t) - 1 / t),
        (RadialFunction.term(1, 1, -1) + RadialFunction.term(1, 2, -2),
         lambda t: t / 2 + mpmath.log(t) - mpmath.log(1 + 2 * t) / 4),
    ], ids=["quotient", "two_term"])
    @pytest.mark.parametrize("x", FAR_POINTS, ids=["e-30", "e30"])
    def test_matches_mpmath_root(self, monkeypatch, phi, F_exact, x):
        # dF/du >= 0.9 for both, so sigma_s lies within 1.2|s| of u
        calls = scipy_calls(monkeypatch)
        fl = Flow(Weight(phi))
        with mpmath.workdps(50):
            u = mpmath.log(x)
            for s in FLOW_TIMES:
                target = F_exact(mpmath.mpf(x)) + s
                root = mpmath.findroot(
                    lambda v: F_exact(mpmath.exp(v)) - target,
                    (u - 1.2 * abs(s), u + 1.2 * abs(s)), solver="illinois")
                assert fl.apply(s, x) == pytest.approx(
                    float(mpmath.exp(root)), rel=1e-13, abs=0)
        assert calls == []

    def test_node_values(self):
        # the lowest and highest nodes, u = 0 (F = 0) and every node between
        fl = self.grown()
        for y in fl._table_F:
            assert fl.F_inverse(y) == pytest.approx(self.phi_inverse(y),
                                                    rel=1e-13, abs=0)

    def test_zero_is_the_base_point(self):
        assert Flow(Weight(self.PHI)).F_inverse(0.0) == 1.0
        assert self.grown().F_inverse(0.0) == 1.0

    def test_negative_u_segments(self):
        fl = self.grown()
        for y in np.linspace(fl._table_F[0], -1e-3, 37):
            assert fl.F_inverse(y) == pytest.approx(self.phi_inverse(y),
                                                    rel=1e-13, abs=0)

    def test_round_trip(self):
        fl = self.grown()
        for y in np.linspace(fl._table_F[0], fl._table_F[-1], 41):
            assert fl.F(fl.F_inverse(y)) == pytest.approx(y, rel=1e-14,
                                                          abs=1e-15)


#: the numeric families of the flows workload: t^2/(1+t), the two-term
#: t/(1+t) + t^2/(1+t)^2, forced-numeric t^2 and the mixed-sign
#: t - t^2/(2(1+t))
NUMERIC_FAMILIES = {
    "quotient": lambda: Flow(Weight(RadialFunction.term(1, 2, -1))),
    "two_term": lambda: Flow(Weight(RadialFunction.term(1, 1, -1)
                                    + RadialFunction.term(1, 2, -2))),
    "power_numeric": lambda: Flow(Weight.from_term(1, 2), mode="numeric",
                                  require_complete=False),
    "mixed": lambda: Flow(Weight(RadialFunction.term(1, 1)
                                 - RadialFunction.term(F(1, 2), 2, -1))),
}


class TestSigmaMemo:
    """A numeric flow remembers its last SIGMA_MEMO values sigma_s(x)."""

    @pytest.mark.parametrize("family", sorted(NUMERIC_FAMILIES))
    def test_remembered_values_are_bit_identical(self, family):
        # more draws than the memo holds, so some are evicted and
        # recomputed on a table grown in a different order; a draw with
        # s x >= 0.5 flows backward, which keeps t^2 halfway to its escape
        # time, as the flows workload does
        make, rng = NUMERIC_FAMILIES[family], random.Random(25)
        shared = make()
        assert shared.mode == "numeric"
        for _ in range(SIGMA_MEMO + 36):
            s, x = rng.uniform(-1.5, 1.5), math.exp(rng.uniform(-2.0, 2.0))
            if s * x >= 0.5:
                s = -s
            fresh = make().apply(s, x)
            assert shared.apply(s, x) == fresh
            assert shared.apply(s, x) == fresh

    def test_one_arrow_inverts_three_times(self, monkeypatch):
        # y, the composite's range check, z1, z2 and six cocycles ask for
        # only sigma_t(x), sigma_s(y) and sigma_{s+t}(x)
        calls, real = [], Flow._u_of_F
        monkeypatch.setattr(Flow, "_u_of_F",
                            lambda fl, y: calls.append(y) or real(fl, y))
        fl = NUMERIC_FAMILIES["quotient"]()
        x, t, s = 0.7, 0.4, -1.1
        h = GPhiElement(x, t)
        y = fl.apply(t, x)
        g = GPhiElement(y, s)
        gh = gphi_compose(g, h, fl)
        fl.apply(s, y)
        fl.apply(s + t, x)
        for which in ("zero", "infinity"):
            for el in (h, g, gh):
                zeta_cocycle(el, which, fl)
        assert len(calls) == 3

    def test_memo_is_bounded(self):
        fl = NUMERIC_FAMILIES["quotient"]()
        for k in range(1, SIGMA_MEMO + 11):
            fl.apply(0.01 * k, 1.0)
        assert len(fl._sigma) == SIGMA_MEMO
        assert (0.01, 1.0) not in fl._sigma  # the oldest went first

    @pytest.mark.parametrize("s, x", [(1.0, 1e-17), (-1.7e308, 1.0)],
                             ids=["F(x)-past-floats", "target-past-floats"])
    def test_failure_is_not_remembered(self, s, x):
        # F(1e-17) and F(1) - 1.7e308 both lie past the float range
        fl = Flow(Weight(RadialFunction.term(1, 20, -19)))
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                fl.apply(s, x)
        assert fl._sigma == {}


class TestEndpointReached:
    """A flow past the float range or past its escape time stays at the
    endpoint it runs into."""

    def test_b_weight_past_the_float_range(self):
        assert Flow(Weight.from_term(1, 1)).apply(1000.0, 1.0) == math.inf
        fl = Flow(Weight.from_term(1, 1, 1, domain=UNIT_INTERVAL))
        assert fl.apply(-1000.0, 0.5) == 0.0
        assert fl.apply(1000.0, 0.5) == 1.0

    def test_numeric_past_the_escape_time(self):
        # phi = t^a: F(x) = (1 - x^{1-a})/(a-1) stays below 1/(a-1), so
        # sigma_2(1) escapes; for t^3 the table runs to u ~ 355, where t^3
        # alone leaves the float range
        for a in (2, 3):
            w = Weight.from_term(1, a)
            numeric = Flow(w, mode="numeric", require_complete=False)
            closed = Flow(w, require_complete=False)
            assert (numeric.apply(2.0, 1.0) == closed.apply(2.0, 1.0)
                    == math.inf)
            assert numeric.F_inverse(2.0) == math.inf

    def test_numeric_past_the_float_range(self):
        # F grows like u = ln t at the far end, so sigma_1000(1) ~ e^1000
        fl = Flow(Weight(RadialFunction.term(1, 2, -1)))
        assert fl.mode == "numeric"
        assert fl.apply(1000.0, 1.0) == math.inf

    def test_power_weight_past_the_float_range(self):
        # phi = t^{1/2}: sigma_s(x) = (x^{1/2} + s/2)^2 overflows for s = 1e300
        fl = Flow(Weight.from_term(1, F(1, 2)), require_complete=False)
        assert fl.mode == "closed_form_power"
        assert fl.apply(1e300, 1.0) == math.inf
        assert fl.F_inverse(1e300) == math.inf
        assert fl.apply(-1e300, 1.0) == 0.0
        # phi = t^{99/100}: sigma_s(x) = (x^{1/100} + s/100)^100 is finite
        # though the bracket (1 + s x^{-1/100}/100)^100 overflows
        fl = Flow(Weight.from_term(1, F(99, 100)), require_complete=False)
        assert fl.apply(200.0, 1e-300) == pytest.approx((1e-3 + 2.0) ** 100,
                                                        rel=1e-12)
        # phi = t^{101/100}: (x^{-1/100} - s/100)^{-100} = 0.5^{-100}; the
        # difference cancels three digits, so the rounding of a shows
        fl = Flow(Weight.from_term(1, F(101, 100)), require_complete=False)
        assert fl.apply(99950.0, 1e-300) == pytest.approx(0.5 ** -100,
                                                          rel=1e-6)

    def test_power_weight_back_from_past_the_float_range(self):
        # phi = t^3: sigma_s(x) = (x^{-2} - 2s)^{-1/2}.  For s < 0 the image
        # is finite though x^2, or 1 - 2s x^2, leaves the float range
        fl = Flow(Weight.from_term(1, 3), require_complete=False)
        assert fl.apply(-1.0, 1e200) == pytest.approx(2 ** -0.5, rel=1e-12,
                                                      abs=0)
        assert fl.apply(-1e10, 1e150) == pytest.approx(2e10 ** -0.5,
                                                       rel=1e-12, abs=0)
        assert fl.apply(1.0, 1e200) == math.inf

    def test_power_weight_F_past_the_float_range(self):
        # phi = t^3: F(x) = (1 - x^{-2})/2; phi = t^{-1}: F(x) = (x^2 - 1)/2
        fl = Flow(Weight.from_term(1, 3), require_complete=False)
        assert fl.F(1e-200) == -math.inf
        assert fl.F(1e-100) == -5e199
        fl = Flow(Weight.from_term(1, -1), require_complete=False)
        assert fl.F(1e200) == math.inf
        assert fl.F(2e75) == pytest.approx(2e150, rel=1e-15)

    def test_power_weight_stops_at_one(self):
        # t^2 does not vanish at 1: sigma_s(x) = x/(1 - sx) reaches 1 at
        # s = 1/x - 1
        fl = Flow(Weight.from_term(1, 2, 0, domain=UNIT_INTERVAL),
                  require_complete=False)
        assert fl.mode == "closed_form_power"
        assert abs(fl.apply(0.1, 0.9) - 0.9 / 0.91) < 1e-15
        assert fl.apply(1.0, 0.9) == 1.0
        assert fl.apply(2.0, 0.9) == 1.0
        assert fl.F_inverse(0.5) == 1.0
        assert fl.F_inverse(2.0) == 1.0


UNIT_WEIGHTS = [
    RadialFunction.term(1, 2, 1, domain=UNIT_INTERVAL),
    RadialFunction.term(1, 1, 1, domain=UNIT_INTERVAL)
    + RadialFunction.term(1, 2, 1, domain=UNIT_INTERVAL),
]


class TestUnitIntervalNumeric:
    @pytest.mark.parametrize("prof", UNIT_WEIGHTS, ids=["t2", "t_plus_t2"])
    def test_flow_time_matches_t_quadrature(self, prof):
        # sigma_s(x) is where integral_x dt/phi reaches s
        fl = Flow(Weight(prof))
        assert fl.mode == "numeric"
        for s in (-1.5, 0.7, 2.0):
            for x in (0.02, 0.3, 0.5, 0.9, 0.99):
                elapsed, _ = quad(lambda t: 1.0 / prof(t), x, fl.apply(s, x),
                                  epsabs=0.0, epsrel=1e-13, limit=200)
                assert abs(elapsed - s) <= 1e-10

    @pytest.mark.parametrize("prof", UNIT_WEIGHTS, ids=["t2", "t_plus_t2"])
    def test_group_law(self, prof):
        fl = Flow(Weight(prof))
        for s in (-1.2, 0.5):
            for t in (0.8, -0.3):
                for x in (0.02, 0.5, 0.97):
                    lhs = fl.apply(s, fl.apply(t, x))
                    assert abs(lhs - fl.apply(s + t, x)) <= 1e-12

    @pytest.mark.parametrize("c", [F(1, 2), 1, 2])
    def test_forced_numeric_b_weight_matches_closed_form(self, c):
        w = Weight.from_term(c, 1, 1, domain=UNIT_INTERVAL)
        numeric, closed = Flow(w, mode="numeric"), Flow(w)
        checked = 0
        for x in (1e-9, 1e-4, 0.1, 0.5, 0.9, 1 - 1e-4, 1 - 1e-9):
            for s in (-12.0, -3.3, -0.4, 1.1, 5.0, 12.0):
                if abs(to_u(UNIT_INTERVAL, x) + c * s) <= 30:
                    want = closed.apply(s, x)
                    assert abs(numeric.apply(s, x) - want) <= 1e-12 * want
                    checked += 1
        assert checked >= 30


class TestModeValidation:
    def test_forced_mode_must_describe_the_weight(self):
        with pytest.raises(PreconditionError):
            Flow(Weight.from_term(1, 2), mode="closed_form_b",
                 require_complete=False)
        with pytest.raises(PreconditionError):
            Flow(Weight.from_term(1, 1), mode="closed_form_power")
        with pytest.raises(PreconditionError):
            Flow(Weight.from_term(2, 1, 1, domain=UNIT_INTERVAL),
                 mode="closed_form_tanh")

    def test_detected_or_numeric_mode_accepted(self):
        w = Weight.from_term(1, 2)
        for mode in ("closed_form_power", "numeric"):
            assert Flow(w, mode=mode, require_complete=False).mode == mode


class TestScalingLimit:
    def test_linear_weight_rate(self):
        fl = Flow(Weight.from_term(1, 1))
        for b in (F(1, 2), 1, 2):
            val = flow_scaling_limit(fl, Weight.from_term(1, b), 1.0)
            assert abs(val - math.exp(-float(b))) < 1e-12

    def test_higher_order_weight_rate_one(self):
        fl = Flow(Weight(RadialFunction.term(1, 2, -1)))
        val = flow_scaling_limit(fl, Weight.from_term(1, F(1, 2)), 1.0)
        assert val == 1.0

    def test_agreeing_limit_samples_only_to_k_8(self):
        fl = Flow(Weight.from_term(1, 1))
        calls = []
        apply = fl.apply
        fl.apply = lambda s, x: calls.append(x) or apply(s, x)
        flow_scaling_limit(fl, Weight.from_term(1, 2), 1.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", [None, "numeric"])
    def test_slow_limit_for_t_3_2(self, mode):
        # psi(t)/psi(sigma_s(t)) approaches 1 only like t^{1/2}
        fl = Flow(Weight.from_term(1, F(3, 2)), mode=mode,
                  require_complete=False)
        for b in (F(1, 2), 1, 2):
            for s in (-1.0, 0.5):
                val = flow_scaling_limit(fl, Weight.from_term(1, b), s)
                assert val == 1.0

    def test_divergent_rate_rejected(self):
        # phi psi'/psi = t^{-1/2} for phi = t^{1/2}, psi = t
        fl = Flow(Weight.from_term(1, F(1, 2)), require_complete=False)
        for s in (0.5, 0.0):
            with pytest.raises(PreconditionError, match="diverges at zero"):
                flow_scaling_limit(fl, Weight.from_term(1, 1), s)

    def test_wrong_rate_rejected(self, monkeypatch):
        fl = Flow(Weight.from_term(1, F(3, 2)), require_complete=False)
        true_rate = flows.scaling_rate

        def wrong_rate(psi, phi, end):
            return true_rate(psi, phi, end) + 0.01

        monkeypatch.setattr(flows, "scaling_rate", wrong_rate)
        with pytest.raises(PropertyViolationError):
            flow_scaling_limit(fl, Weight.from_term(1, 1), 0.5)

    def test_s_zero_identity(self):
        fl = Flow(Weight.from_term(1, 1))
        assert flow_scaling_limit(fl, Weight.from_term(1, 1), 0.0) == 1.0

    def test_zero_boundary_ratio_limits(self):
        # sigma_t(x)/x -> e^t for a = 1 and -> 1 for a > 1
        fl1 = Flow(Weight.from_term(1, 1))
        fl2 = Flow(Weight(RadialFunction.term(1, 2, -1)))
        t = 0.8
        x = 1e-9
        assert abs(fl1.apply(t, x) / x - math.exp(t)) < 1e-8
        assert abs(fl2.apply(t, x) / x - 1.0) < 1e-6


class TestSeriesExponents:
    def test_integer_power_smooth(self):
        assert power_flow_exponents(2, 4) == [1, 2, 3, 4]

    def test_non_integer_power_fractional(self):
        exps = power_flow_exponents(F(3, 2), 4)
        assert exps == [1, F(3, 2), 2, F(5, 2)]
        assert any(e != int(e) for e in exps)
