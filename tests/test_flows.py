"""Flows: completeness, closed forms, quadrature fallback, scaling limits."""

import math
import os
from fractions import Fraction

import pytest

from degcalc.errors import PreconditionError, PropertyViolationError
from degcalc.flows import (Flow, completeness_check, flow_scaling_limit,
                           power_flow_exponents, write_flow_csv)
from degcalc.powerfun import UNIT_INTERVAL, RadialFunction
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

    def test_tanh_example(self):
        fl = Flow.tanh_example()
        assert fl.F_inverse(0.0) == 0.0
        assert abs(fl.apply(1.0, 0.0) - math.tanh(1.0)) < 1e-15
        assert fl.apply(5.0, -1.0) == -1.0

    def test_identity_at_s_zero(self):
        for fl in (Flow(Weight.from_term(1, 1)), Flow.tanh_example()):
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
