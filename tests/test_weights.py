"""Weights, the derivation X, membership order, structure functions."""

import math
from fractions import Fraction

import pytest

from degcalc.errors import PreconditionError
from degcalc.powerfun import UNIT_INTERVAL, RadialFunction
from degcalc.weights import (Weight, apply_X, membership_order,
                             scaling_rate, structure_function)

F = Fraction


class TestWeight:
    def test_exponents(self):
        w = Weight(RadialFunction.term(1, 2, -3))
        assert w.profile.leading("zero")[0] == 2
        assert w.profile.leading("far")[0] == 1  # -(2 - 3)

    def test_positivity_rejects_sign_change(self):
        bad = (RadialFunction.term(1, 1, 0)
               + RadialFunction.term(-2, 2, 0))  # t - 2t^2 < 0 for t > 1/2
        with pytest.raises(PreconditionError):
            Weight(bad)

    def test_negative_far_tail_rejected(self):
        # 1 - t/10^9 is positive at every sample, u <= 18, and tends to -inf
        with pytest.raises(PreconditionError,
                           match="negative at far endpoint"):
            Weight(RadialFunction.const(1) - RadialFunction.term(F(1, 10**9), 1))

    def test_positive_mixed_signs_accepted(self):
        # (1+t)^{-1} + t(1+t)^{-2} - small positive combination
        prof = (RadialFunction.term(1, 0, -1)
                + RadialFunction.term(F(-1, 4), 1, -2))
        Weight(prof)  # stays positive; must not raise


class TestApplyX:
    def test_single_application(self):
        w = Weight.from_term(1, 2, -3)
        f = RadialFunction.term(1, F(1, 2), 0)
        assert apply_X(w, f) == RadialFunction.term(F(1, 2), F(3, 2), -3)

    def test_nilpotent_case(self):
        # X = t^{1/2} d/dt kills t^{1/2} after two applications
        w = Weight.from_term(1, F(1, 2))
        f = RadialFunction.term(1, F(1, 2))
        assert apply_X(w, f, 2).is_zero

    def test_zero_order_is_identity(self):
        f = RadialFunction.term(3, F(1, 2), -1)
        assert apply_X(Weight.from_term(1, 1), f, 0) is f

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            apply_X(Weight.from_term(1, 1), RadialFunction.term(1, 1), -1)


class TestMembership:
    def test_power_family_unit_interval(self):
        for a in (1, F(3, 2), 2):
            for b in (0, F(1, 2), 1):
                phi = Weight.from_term(1, a, 0, domain=UNIT_INTERVAL)
                psi = RadialFunction.term(1, b, 0, domain=UNIT_INTERVAL)
                res = membership_order(psi, phi, math.inf)
                assert res.is_member and res.decided, (a, b)

    def test_failure_located(self):
        phi = Weight.from_term(1, F(1, 2))
        f = RadialFunction.term(1, F(1, 4))
        res = membership_order(f, phi, 3)
        assert not res.is_member
        assert res.failure_order == 0  # t^{1/4} already unbounded at infinity

    def test_half_line_decaying_member(self):
        phi = Weight(RadialFunction.term(1, 2, -3))
        f = RadialFunction.term(1, F(1, 3), F(-1, 3))
        assert membership_order(f, phi, math.inf).is_member

    def test_sqrt_one_minus_t_fails(self):
        phi = Weight.from_term(1, 1, 0, domain=UNIT_INTERVAL)
        f = RadialFunction.term(1, 0, F(1, 2), domain=UNIT_INTERVAL)
        res = membership_order(f, phi, math.inf)
        assert not res.is_member
        assert res.member_up_to == 0

    def test_finite_order_request(self):
        phi = Weight.from_term(1, 1)
        f = RadialFunction.term(1, 1, -1)
        res = membership_order(f, phi, 3)
        assert res.is_member and res.member_up_to == 3

    def test_negative_order_rejected(self):
        # the iteration counts up from 0 and would never meet n = -1
        with pytest.raises(PreconditionError):
            membership_order(RadialFunction.term(1, 1, -1),
                             Weight.from_term(1, 1), -1)

    def test_undecided_at_the_cap(self):
        # X^k (1+t)^{-1} stays continuous over t^{3/2} without stabilizing
        res = membership_order(RadialFunction.term(1, 0, -1),
                               Weight.from_term(1, F(3, 2)), math.inf)
        assert not res.decided and not res.is_member

    def test_coefficient_beyond_float_range(self):
        f = RadialFunction.term(10**400, 0)
        phi = Weight.from_term(1, 1)
        assert membership_order(f, phi, math.inf).is_member
        assert membership_order(f, phi, 2).member_up_to == 2


class TestStructureFunction:
    def test_single_term_exact(self):
        phi = Weight.from_term(1, 1)
        psi = Weight.from_term(1, F(1, 2))
        C = structure_function(psi, phi)
        assert C.ring is not None
        assert C.value_at_zero == F(1, 2)

    def test_vanishes_for_higher_order_weight(self):
        for a in (F(3, 2), 2, 3):
            phi = Weight.from_term(1, a)
            psi = Weight.from_term(1, F(1, 2))
            assert structure_function(psi, phi).value_at_zero == 0

    def test_ring_form_only_for_one_term(self):
        phi = Weight.from_term(1, 1)
        psi = Weight(RadialFunction.term(1, 1, 0)
                     + RadialFunction.term(2, 2, 0))
        C = structure_function(psi, phi)
        assert C.ring is None
        assert C.value_at_zero == 1
        # t + t^2 = t(1+t) is one term as a function: the exact ring path
        psi = Weight(RadialFunction.term(1, 1, 0)
                     + RadialFunction.term(1, 2, 0))
        C = structure_function(psi, phi)
        assert C.ring is not None
        # t ((1+t) + t) / (t (1+t)), exponents subtracted term by term
        assert C.ring == (RadialFunction.term(1, 0, 0)
                          + RadialFunction.term(1, 1, -1))

    def test_scaling_rate_is_the_endpoint_value(self):
        phi = Weight.from_term(1, 1)
        psi = Weight(RadialFunction.term(1, F(1, 2))
                     + RadialFunction.term(1, 2))
        C = structure_function(psi, phi)
        assert scaling_rate(psi, phi, "zero") == C.value_at_zero == F(1, 2)
        assert scaling_rate(psi, phi, "far") == C.value_at_far == 2
        with pytest.raises(PreconditionError, match="diverges at zero"):
            scaling_rate(phi, Weight.from_term(1, F(1, 2)), "zero")

    def test_literal_far_sign_on_interval(self):
        # phi = t(1 - t), psi = 1 - t: C = phi psi'/psi = -t, so the literal
        # far-end value is -1, where the boundary-exponent convention reads +1
        phi = Weight.from_term(1, 1, 1, domain=UNIT_INTERVAL)
        psi = Weight.from_term(1, 0, 1, domain=UNIT_INTERVAL)
        assert structure_function(psi, phi).value_at_far == -1
