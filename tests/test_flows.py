"""Flows: completeness, closed forms, the table of F, scaling limits."""

import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from numpy.polynomial import chebyshev
from scipy.integrate import quad

from degcalc import flows
from degcalc.errors import ConvergenceError, PreconditionError
from degcalc.flows import (HALVINGS, SIGMA_MEMO, TABLE_STEP, Flow,
                           completeness_check, flow_scaling_limit,
                           power_flow_exponents)
from degcalc.groupoid import GPhiElement, gphi_compose, zeta_cocycle
from degcalc.powerfun import UNIT_INTERVAL, RadialFunction, from_u, to_u
from degcalc.weights import Weight

F = Fraction


def F_at(fl, x):
    """F(x) of a numeric flow: the sum of the parts ``_F_u`` returns."""
    return math.fsum(fl._F_u(to_u(fl.weight.domain, x)))


def F_inverse(fl, y):
    """The x with F(x) = y for a numeric flow, through ``_u_of_F``."""
    return from_u(fl.weight.domain, fl._u_of_F(y))


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
        assert abs(fl.apply(math.log(2), 3.0) - 6.0) < 1e-12

    def test_power_flow_reference_values(self):
        fl = Flow(Weight.from_term(1, 2), require_complete=False)
        assert fl.mode == "closed_form_power"
        # sigma_{1/2}(1/2) = 0.5 / (1 - 0.5*0.5) = 2/3
        assert abs(fl.apply(0.5, 0.5) - 2.0 / 3.0) < 1e-15

    def test_b_weight_tanh_flow(self):
        # phi = 2t(1-t) on [0, 1] moves x = 2t - 1 by dx/ds = 1 - x^2
        fl = Flow(Weight.from_term(2, 1, 1, domain=UNIT_INTERVAL))
        assert fl.mode == "closed_form_b"
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
            assert abs(F_inverse(fl, F_at(fl, x)) - x) < 1e-10 * max(1.0, x)

    def test_endpoints_fixed(self):
        fl = Flow(Weight(RadialFunction.term(1, 2, -1)))
        assert fl.apply(3.0, 0.0) == 0.0
        assert fl.apply(3.0, math.inf) == math.inf

    def test_point_outside_the_domain_rejected(self):
        with pytest.raises(PreconditionError, match="outside the domain"):
            Flow(Weight.from_term(1, 1)).apply(1.0, -1.0)

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
    #: points on a segment 0.8 wide below u = 3.2
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

    #: the tables that growth fills, one entry per node
    TABLES = ("_table_u", "_table_F", "_table_err", "_table_mean",
              "_table_slope")

    @pytest.mark.parametrize("x", [1e-200, 1e300])
    def test_far_F_table_matches_single_segment_growth(self, x):
        # one call grows the table to u = ln x at once, 576 or 864 segments
        # from one evaluation of g; growing it one segment at a time gives
        # the same table, bit for bit
        fl, ref = Flow(Weight(self.PHI)), Flow(Weight(self.PHI))
        u, up = math.log(x), x > 1.0
        fl._F_u(u)
        while ((ref._table_u[-1] < u if up else ref._table_u[0] > u)
               and ref._grow(up)):
            pass
        assert len(fl._table_u) == len(ref._table_u) > 512
        for table in self.TABLES:
            assert getattr(fl, table) == getattr(ref, table)

    def test_far_F_evaluates_g_once_per_direction(self, monkeypatch):
        calls, real = [], RadialFunction.at_u
        monkeypatch.setattr(
            RadialFunction, "at_u",
            lambda g, u: calls.append(np.shape(u)) or real(g, u))
        fl = Flow(Weight(self.PHI))
        fl._F_u(math.log(1e-200))
        fl._F_u(math.log(1e300))
        # 576 segments down to u = ln 1e-200 ~ -460.5, 864 up to ~690.8,
        # each direction one _grow that samples all its segments at once
        assert calls == [(576, 16), (864, 16)]

    #: far inversions: 931 segments down to the float range's end at u ~
    #: -744.8 (the image is near u = -450); 750 segments up to u = 600;
    #: 136 segments down to u = -13.6, each halved three times; 372
    #: segments up to u ~ 290.4, the first halved up to three times
    FAR_APPLIES = pytest.mark.parametrize(
        "phi, s", [(PHI, -450.0), (PHI, 300.0), (STEEP, -1e100),
                   (STEEP, 5.9e4)],
        ids=["phi-down", "phi-up", "steep-down", "steep-up"])

    @FAR_APPLIES
    def test_far_apply_table_matches_single_segment_growth(self, phi, s):
        # the inversion grows the table by a doubling reach; one
        # segment at a time to the same ends gives the same table, bit for
        # bit, halved segments included
        fl, ref = Flow(Weight(phi)), Flow(Weight(phi))
        fl.apply(s, 1.0)
        while ref._table_u[-1] < fl._table_u[-1] and ref._grow(True):
            pass
        while ref._table_u[0] > fl._table_u[0] and ref._grow(False):
            pass
        assert len(fl._table_u) > 120
        for table in self.TABLES:
            assert getattr(fl, table) == getattr(ref, table)

    def test_inversion_off_the_table_grows_in_few_calls(self, monkeypatch):
        # the image of 1 lies past the float range, and F returns inf after
        # a pinned number of nodes.  For t^2/(1+t), 1/g = 1 + e^{-u} falls
        # outward, so F gains at most 2 per unit of u from u = 0: F(u) = 1000
        # lies past u = 500, where one _grow call takes the table.  There
        # F gains at most 1 + e^{-500} per unit over the 209.8 left before
        # t leaves the float range, too little to reach 1000.
        calls, real = [], Flow._grow
        monkeypatch.setattr(
            Flow, "_grow",
            lambda fl, *a: calls.append(a) or real(fl, *a))
        fl = Flow(Weight(RadialFunction.term(1, 2, -1)))
        assert fl.apply(1000.0, 1.0) == math.inf
        assert len(fl._table_u) == 626
        assert calls == [(True, 500.0)]
        # for phi, 1/g lies in [1/2, 1], so F gains at most 709.8 before t
        # leaves the float range: nothing is built
        calls.clear()
        fl = Flow(Weight(self.PHI))
        assert fl.apply(1000.0, 1.0) == math.inf
        assert fl._table_u == [0.0]
        assert calls == []

    @FAR_APPLIES
    def test_stacked_products_match_per_row_products(self, phi, s):
        # one stacked product per growth runs one gemv per row, so it equals
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
            noise = (fl._g.at_u_error(u) * abs(rows)).max(1)
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
        # 1/g = (1 + e^{-u})^19 changes by up to e^{15.2} over 0.8: both
        # segments below u = 0 are halved three times, the one above into
        # parts 0.1 and 0.2 wide, the next one twice, the two after it
        # once, the one from u = 3.2 stays whole, and nothing calls scipy
        calls = scipy_calls(monkeypatch)
        fl = Flow(Weight(self.STEEP))
        fl.apply(0.5, math.exp(-1.0))
        fl._F_u(4.0)
        assert np.diff(fl._table_u) == pytest.approx(
            [TABLE_STEP / 8] * 18 + [TABLE_STEP / 4] * 7
            + [TABLE_STEP / 2] * 4 + [TABLE_STEP])
        assert fl._table_mean.count(None) == 1  # the node u = 0
        assert calls == []

    def test_steep_sigma_matches_mpmath(self):
        # F(u) = u + sum_k C(19,k)(1 - e^{-ku})/k increases with F' >= 1,
        # so the image lies within |s| of u; the points mix whole and halved
        # segments
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

    @pytest.mark.parametrize("s, x", [(10.0, 10.0), (-1.7, 1000.0),
                                      (1.0, 100.0)])
    def test_steep_far_image_by_newton(self, monkeypatch, s, x):
        """sigma_10(10) lies near u = 9.1, where the 16 samples of each
        segment used to fail the strict tail test on rounding noise alone;
        Newton inverts it there, without brentq.  F(x) ~ 5.87e4 at all
        three points, where one float rounds it by up to 3.6e-12, so
        sigma_s(x) keeps its digits only where F(x) + s is not rounded."""
        calls = scipy_calls(monkeypatch)
        got = Flow(Weight(self.STEEP)).apply(s, x)
        assert calls == []
        with mpmath.workdps(50):
            u = mpmath.log(x)
            target = steep_F(u) + s
            root = mpmath.findroot(lambda v: steep_F(v) - target,
                                   (u, u + s) if s > 0 else (u + s, u),
                                   solver="illinois")
            assert got == pytest.approx(float(mpmath.exp(root)), rel=4e-15,
                                        abs=0)

    def test_image_next_to_the_overflow(self):
        # F(1) - 1e306 is reached near u = -37.2387, in the part
        # [-37.3, -37.2] of the segment [-37.6, -36.8], where 1/g overflows
        # below u ~ -37.36: the parts before the overflow are fitted, and
        # the image is a root of F
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
        # up to 35 segments of 0.8 in u = ln x; near u = 0, F ~ 2u/3 keeps
        # its relative digits
        with mpmath.workdps(30):
            xm = mpmath.mpf(x)
            exact = mpmath.log(xm) - mpmath.log((1 + 2 * xm) / 3) / 2
            assert F_at(Flow(Weight(self.PHI)), x) == pytest.approx(
                float(exact), rel=1e-14, abs=0)

    @pytest.mark.parametrize("x", [1e30, 1e300])
    def test_F_keeps_its_digits_over_many_segments(self, x):
        # phi = 2t + t^{3/2}(1+t)^{-1/2}: a segment adds nearly the same 4/15
        # each time, whose rounding would add up over the 87 and 864
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
            assert F_at(Flow(Weight(phi)), x) == pytest.approx(
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

    def test_segment_where_g_overflows_is_fitted_whole(self, monkeypatch):
        # forced-numeric t^e: g = t^{e-1} overflows near u = 413.08, inside
        # the segment [412.8, 413.6], where 1/g is 0 and within 1/DBL_MAX
        # of its value.  Growing the table to the float range's end fits
        # every segment whole, and F at every node before that segment is
        # the same as on a table grown only that far, and F's closed form
        depths, real = [], Flow._fit
        monkeypatch.setattr(
            Flow, "_fit", lambda fl, inner, outer, depth=0:
            depths.extend([depth] * len(inner))
            or real(fl, inner, outer, depth))
        w = Weight.from_term(1, math.e)
        fl = Flow(w, mode="numeric", require_complete=False)
        while fl._grow(True):
            pass
        assert Counter(depths) == {0: 887}
        ref = Flow(w, mode="numeric", require_complete=False)
        ref._F_u(412.5)
        n = len(ref._table_u)
        assert ref._table_u[-1] == pytest.approx(412.8)
        for table in self.TABLES:
            assert getattr(fl, table)[:n] == getattr(ref, table)
        with mpmath.workdps(30):
            a = mpmath.mpf(math.e) - 1
            for u, F_u in zip(fl._table_u, fl._table_F):
                assert F_u == pytest.approx(
                    float(-mpmath.expm1(-a * u) / a), rel=2e-15, abs=0)

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
        fl._F_u(-10.0)
        fl._F_u(10.0)
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
            assert F_inverse(fl, y) == pytest.approx(self.phi_inverse(y),
                                                    rel=1e-13, abs=0)

    def test_zero_is_the_base_point(self):
        assert F_inverse(Flow(Weight(self.PHI)), 0.0) == 1.0
        assert F_inverse(self.grown(), 0.0) == 1.0

    def test_negative_u_segments(self):
        fl = self.grown()
        for y in np.linspace(fl._table_F[0], -1e-3, 37):
            assert F_inverse(fl, y) == pytest.approx(self.phi_inverse(y),
                                                    rel=1e-13, abs=0)

    def test_round_trip(self):
        fl = self.grown()
        for y in np.linspace(fl._table_F[0], fl._table_F[-1], 41):
            assert F_at(fl, F_inverse(fl, y)) == pytest.approx(
                y, rel=1e-14, abs=1e-15)


#: the exponent of t^e as a float stores it, exactly
E = mpmath.mpf(math.e)
#: forced-numeric flows of the accuracy oracle: (phi, F as a function of
#: u = ln t, F at u = inf)
ORACLE_FAMILIES = {
    "2t": (RadialFunction.term(2, 1), lambda u: u / 2, mpmath.inf),
    "t^3/2": (RadialFunction.term(1, F(3, 2)),
              lambda u: -2 * mpmath.expm1(-u / 2), 2),
    "t^2": (RadialFunction.term(1, 2), lambda u: -mpmath.expm1(-u), 1),
    "t^e": (RadialFunction.term(1, math.e),
            lambda u: -mpmath.expm1((1 - E) * u) / (E - 1), 1 / (E - 1)),
    "quotient": (RadialFunction.term(1, 2, -1),
                 lambda u: u + 1 - mpmath.exp(-u), mpmath.inf),
    "two_term": (RadialFunction.term(1, 1, -1)
                 + RadialFunction.term(1, 2, -2),
                 lambda u: mpmath.expm1(u) / 2 + u
                 - mpmath.log((1 + 2 * mpmath.exp(u)) / 3) / 4, mpmath.inf),
    "mixed": (RadialFunction.term(1, 1) - RadialFunction.term(F(1, 2), 2, -1),
              lambda u: u + mpmath.log((mpmath.exp(u) + 2) / 3), mpmath.inf),
    "steep": (RadialFunction.term(1, 20, -19), steep_F, mpmath.inf),
}


def mpq(q):
    """The rational q as an mpmath number at the working precision."""
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def flow_error(phi, F_u, x, s, sigma):
    """How far sigma is from sigma_s(x) for the exact F, as the error in
    flow time |F(sigma) - F(x) - s| over |F(x)| + |s| + F'(sigma), F' in
    u.  A flow that rounds F(x) + s to one float is off by a few units of
    2^-53 of |F(x)| + |s|, and a correctly rounded sigma by 2^-53 F'(sigma).
    Computed at 40 digits."""
    with mpmath.workdps(40):
        u, v = mpmath.log(x), mpmath.log(sigma)
        t = mpmath.exp(v)
        g = sum(mpq(c) * t ** (mpq(p) - 1) * (1 + t) ** mpq(q)
                for (p, q), c in phi.terms.items())
        return float(abs(F_u(v) - F_u(u) - s)
                     / (abs(F_u(u)) + abs(s) + 1 / g))


def oracle_errors(family, draws=100, seed=41):
    """flow_error of each of ``draws`` forced-numeric sigma_s(x) on one
    flow, x = e^u and s drawn as the flows workload draws them, u in
    [-2, 2] and s in [-1.5, 1.5], redrawn until sigma_s(x) stays at most
    halfway to its escape time."""
    phi, F_u, F_inf = ORACLE_FAMILIES[family]
    fl, rng = Flow(Weight(phi), mode="numeric", require_complete=False), \
        random.Random(seed)
    errors = []
    while len(errors) < draws:
        u, s = rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5)
        with mpmath.workdps(40):
            if 2 * s >= F_inf - F_u(mpmath.mpf(u)):
                continue
        x = math.exp(u)
        errors.append(flow_error(phi, F_u, x, s, fl.apply(s, x)))
    return errors


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
def test_numeric_flows_match_the_mpmath_oracle(family):
    # every forced-numeric sigma_s(x) is within 1e-15 in flow time, a few
    # units of 2^-53
    assert max(oracle_errors(family)) <= 1e-15


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


#: the flows of the Newton-start bound: the steep t^20/(1+t)^19, three
#: numeric families of the flows workload, and forced-numeric t^{3/2} and
#: 2t, whose g = 2 the Hermite start inverts exactly
NEWTON_START_FAMILIES = {
    "steep": lambda: Flow(Weight(RadialFunction.term(1, 20, -19))),
    **{name: NUMERIC_FAMILIES[name]
       for name in ("quotient", "two_term", "mixed")},
    "t^3/2": lambda: Flow(Weight.from_term(1, F(3, 2)), mode="numeric",
                          require_complete=False),
    "2t": lambda: Flow(Weight.from_term(2, 1), mode="numeric",
                       require_complete=False),
}


def test_hermite_start_saves_newton_steps(monkeypatch):
    # each Newton step sums the segment's series once; from the cubic
    # Hermite start a warm inversion takes 2.8 sums on average, from one
    # with u_hi + u_lo for its width 3.5, and with the sign inside its
    # slope term flipped 3.9
    calls, real = [], flows._clenshaw
    draws = 400
    for make in NEWTON_START_FAMILIES.values():
        fl, rng, targets = make(), random.Random(5), []
        for _ in range(draws):
            s, x = rng.uniform(-1.5, 1.5), math.exp(rng.uniform(-3.0, 3.0))
            targets.append((*fl._F_u(to_u(fl.weight.domain, x)), s))
            fl._u_of_F(*targets[-1])  # grows the table to the image
        monkeypatch.setattr(flows, "_clenshaw",
                            lambda c, x: calls.append(1) or real(c, x))
        for parts in targets:
            fl._u_of_F(*parts)
        monkeypatch.setattr(flows, "_clenshaw", real)
    assert len(calls) / (draws * len(NEWTON_START_FAMILIES)) <= 3.0


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
        monkeypatch.setattr(
            Flow, "_u_of_F",
            lambda fl, *parts: calls.append(parts) or real(fl, *parts))
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
            assert numeric._u_of_F(2.0) == math.inf

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

    def test_F_past_the_last_node(self):
        # phi = t^2/(1+t): F(x) = ln x - 1/x, and 1.7e308 lies past the
        # table's last node, so its segment is fitted on its own
        fl = Flow(Weight.from_term(1, 2, -1))
        assert F_at(fl, 1.7e308) - F_at(fl, 1e308) == pytest.approx(
            math.log(1.7), rel=0, abs=2e-13)

    def test_power_weight_stops_at_one(self):
        # t^2 does not vanish at 1: sigma_s(x) = x/(1 - sx) reaches 1 at
        # s = 1/x - 1
        fl = Flow(Weight.from_term(1, 2, 0, domain=UNIT_INTERVAL),
                  require_complete=False)
        assert fl.mode == "closed_form_power"
        assert abs(fl.apply(0.1, 0.9) - 0.9 / 0.91) < 1e-15
        assert fl.apply(1.0, 0.9) == 1.0
        assert fl.apply(2.0, 0.9) == 1.0


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
        with pytest.raises(PreconditionError, match="scaling limit mismatch"):
            flow_scaling_limit(fl, Weight.from_term(1, 1), 0.5)

    def test_s_zero_identity(self):
        fl = Flow(Weight.from_term(1, 1))
        assert flow_scaling_limit(fl, Weight.from_term(1, 1), 0.0) == 1.0

    def test_every_sample_escaping_raises(self):
        # t^2 flows 10^-k to t / (1 - s t) = inf for every k <= 16
        fl = Flow(Weight.from_term(1, 2), require_complete=False)
        with pytest.raises(ConvergenceError, match="could not be sampled"):
            flow_scaling_limit(fl, Weight.from_term(1, 1), 1e17)

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
