"""Flows: completeness, closed forms, quadrature fallback, scaling limits."""

import math
import os
import types
from fractions import Fraction

import mpmath
import pytest
from scipy.integrate import quad

from degcalc import flows
from degcalc.errors import (InversionError, PreconditionError,
                            PropertyViolationError)
from degcalc.flows import (Flow, completeness_check, flow_scaling_limit,
                           power_flow_exponents, write_flow_csv)
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


def count_quad(monkeypatch):
    """The list of the calls flows makes to quad from now on."""
    calls = []
    monkeypatch.setattr(flows, "quad",
                        lambda *a, **k: calls.append(a) or quad(*a, **k))
    return calls


class TestTableOfF:
    """Numeric F is a table of Chebyshev segments grown from u = 0 only as
    far as a call needs, with quadrature where 16 points do not resolve
    1/g."""

    #: phi = t + t^2/(1+t) = t(1+2t)/(1+t), F(x) = ln x - ln((1+2x)/3)/2
    PHI = RadialFunction.term(1, 1) + RadialFunction.term(1, 2, -1)
    #: phi = t^20/(1+t)^19: 1/g = (1 + e^{-u})^19 is too steep for 16
    #: points below u ~ 0.7
    STEEP = RadialFunction.term(1, 20, -19)

    def test_first_apply_grows_only_what_it_needs(self):
        # u = ln 0.5 ~ -0.69 and its image lie within four segments of 0
        fl = Flow(Weight(self.PHI))
        assert fl.mode == "numeric"
        fl.apply(0.7, 0.5)
        assert len(fl._table_u) <= 8

    def test_applies_make_no_quad_calls(self, monkeypatch):
        calls = count_quad(monkeypatch)
        fl = Flow(Weight(self.PHI))
        fl.apply(0.7, 0.5)
        for k in range(100):
            fl.apply(-1.5 + 0.03 * k, math.exp(-2.0 + 0.04 * k))
        assert calls == []

    def test_steep_segments_fall_back_to_quad(self, monkeypatch):
        calls = count_quad(monkeypatch)
        Flow(Weight(self.STEEP)).apply(0.5, 1.0)
        assert calls

    def test_steep_sigma_matches_mpmath(self):
        # F(u) = u + sum_k C(19,k)(1 - e^{-ku})/k increases with F' >= 1,
        # so the image lies within |s| of u; the points mix Chebyshev and
        # quad segments, and keep |F| small enough that rounding F(x) + s
        # does not dominate
        fl = Flow(Weight(self.STEEP))

        def F_exact(u):
            return u + sum(mpmath.binomial(19, k) * (1 - mpmath.exp(-k * u))
                           / k for k in range(1, 20))

        with mpmath.workdps(40):
            for u in (-0.4, 0.0, 0.4, 0.8, 1.2):
                for s in (-1.5, -0.4, 0.6, 1.7):
                    x = math.exp(u)
                    lo = mpmath.log(x) - abs(s)
                    hi = lo + 2 * abs(s)
                    target = F_exact(mpmath.log(x)) + s
                    for _ in range(100):  # bisection
                        mid = (lo + hi) / 2
                        lo, hi = ((mid, hi) if F_exact(mid) < target
                                  else (lo, mid))
                    assert fl.apply(s, x) == pytest.approx(
                        float(mpmath.exp(lo)), rel=1e-12, abs=0)

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
            with pytest.raises(InversionError):
                Flow(w).apply(1.0, x)

    def test_inverse_where_the_integrand_overflows(self):
        # F = -1.7e308 is reached near u = -37.5, where 1/g ~ 19|F| is
        # past the float range
        fl = Flow(Weight(RadialFunction.term(1, 20, -19)))
        with pytest.raises(InversionError):
            fl.apply(-1.7e308, 1.0)


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

    def test_wrong_rate_rejected(self, monkeypatch):
        fl = Flow(Weight.from_term(1, F(3, 2)), require_complete=False)
        true_rate = flows.structure_function

        def wrong_rate(psi, phi):
            lam = true_rate(psi, phi).value_at_zero + F(1, 100)
            return types.SimpleNamespace(value_at_zero=lam)

        monkeypatch.setattr(flows, "structure_function", wrong_rate)
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


class TestCsv:
    def test_flow_csv(self, tmp_path):
        fl = Flow(Weight.from_term(1, 1))
        path = os.path.join(tmp_path, "flow.csv")
        write_flow_csv(path, fl, 1.0, [0.5, 2.0])
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "s,x,sigma_s_x"
        assert len(lines) == 3


class TestSeriesExponents:
    def test_integer_power_smooth(self):
        assert power_flow_exponents(2, 4) == [1, 2, 3, 4]

    def test_non_integer_power_fractional(self):
        exps = power_flow_exponents(F(3, 2), 4)
        assert exps == [1, F(3, 2), 2, F(5, 2)]
        assert any(e != int(e) for e in exps)
