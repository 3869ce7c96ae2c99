"""Ring of finite power-law sums: arithmetic, limits, serialization."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcalc.errors import EndpointEvalError
from degcalc.powerfun import (HALF_LINE, UNIT_INTERVAL, RadialFunction,
                              as_exponent, generalized_binomial)

F = Fraction


def rf(*terms, domain=HALF_LINE):
    out = RadialFunction.zero(domain=domain)
    for c, p, q in terms:
        out = out + RadialFunction.term(c, p, q, domain=domain)
    return out


class TestArithmetic:
    def test_add_merges_equal_exponents(self):
        f = rf((1, F(1, 2), 0), (2, F(1, 2), 0))
        assert f == rf((3, F(1, 2), 0))

    def test_cancellation_gives_zero(self):
        f = rf((1, 1, -2)) - rf((1, 1, -2))
        assert f.is_zero

    def test_product_adds_exponents(self):
        f = rf((2, 1, -1)) * rf((3, F(1, 2), -2))
        assert f == rf((6, F(3, 2), -3))

    def test_distributivity_exact(self):
        a = rf((1, 1, 0), (F(1, 2), 0, -1))
        b = rf((2, F(1, 3), -1))
        c = rf((-1, 0, 0), (1, 2, -2))
        assert a * (b + c) == a * b + a * c

    def test_pow(self):
        f = rf((1, 1, -1))
        assert f ** 3 == rf((1, 3, -3))

    def test_divide_term(self):
        f = rf((2, 2, -3), (4, 1, -1))
        g = rf((2, 1, -1))
        assert f.divide_term(g) == rf((1, 1, -2), (2, 0, 0))

    def test_scalar_rational_preserved(self):
        f = rf((F(1, 3), 1, 0)) * F(3, 5)
        ((_, _), c), = f.terms.items()
        assert c == F(1, 5)


class TestDerivative:
    def test_power_rule_half_line(self):
        f = rf((1, F(3, 2), 0))
        assert f.derivative() == rf((F(3, 2), F(1, 2), 0))

    def test_factor_rule_unit_interval(self):
        # d/dt (1-t)^2 = -2 (1-t)
        f = rf((1, 0, 2), domain=UNIT_INTERVAL)
        assert f.derivative() == rf((-2, 0, 1), domain=UNIT_INTERVAL)

    def test_product_rule(self):
        f = rf((1, 2, -1), (3, F(1, 2), 0))
        g = rf((1, 1, -2))
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


class TestLimits:
    def test_limit_at_zero_plain(self):
        f = rf((2, 0, -3), (1, 1, 0))
        assert f.limit("zero") == 2

    def test_limit_at_zero_divergent(self):
        f = rf((1, -1, 0))
        assert f.limit("zero") == math.inf

    def test_limit_with_cancellation(self):
        # t^{-1}(1+t)^{-1} - t^{-1}(1+t)^{-2} = (1+t)^{-2} -> 1 at 0
        f = rf((1, -1, -1), (-1, -1, -2))
        assert abs(f.limit("zero") - 1) < 1e-12

    def test_far_limit_half_line(self):
        f = rf((1, 1, -1))  # t/(1+t) -> 1
        assert abs(f.limit("far") - 1) < 1e-12

    def test_far_limit_unit_interval(self):
        f = rf((3, F(1, 2), 0), domain=UNIT_INTERVAL)
        assert abs(f.limit("far") - 3) < 1e-12

    def test_is_continuous(self):
        assert rf((1, 1, -1)).is_continuous()
        assert not rf((1, -1, 0)).is_continuous()
        assert not rf((1, 1, 0)).is_continuous()  # unbounded at infinity

    def test_endpoint_eval_rejected(self):
        with pytest.raises(EndpointEvalError):
            rf((1, 1, 0))(0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_exponent_rejected(self, bad):
        # limit("zero") steps through p, p+1, ... up to 0, which never ends
        # for p = -inf
        with pytest.raises(ValueError):
            as_exponent(bad)
        with pytest.raises(ValueError):
            RadialFunction.term(1, bad)
        with pytest.raises(ValueError):
            RadialFunction.term(1, 0, bad)


class TestCoordinateMaps:
    def test_invert_exponents(self):
        f = rf((1, 2, -3))
        g = f.invert()
        # f(1/r) = r^{-2} (1 + 1/r)^{-3} = r (1+r)^{-3}
        assert g == rf((1, 1, -3))

    def test_invert_is_involution(self):
        f = rf((2, F(1, 2), -1), (1, -1, 0))
        assert f.invert().invert() == f

    def test_flip_unit_interval(self):
        f = rf((1, F(1, 2), 2), domain=UNIT_INTERVAL)
        assert f.flip() == rf((1, 2, F(1, 2)), domain=UNIT_INTERVAL)

    def test_invert_matches_pointwise(self):
        f = rf((1, 2, -3), (F(1, 2), 0, -1))
        for t in (0.3, 1.7, 12.0):
            assert abs(f.invert()(t) - f(1.0 / t)) < 1e-12 * (1 + abs(f(1 / t)))


class TestExponentData:
    def test_min_p_and_far(self):
        f = rf((1, F(1, 2), -1), (2, 2, -4))
        assert f.min_p() == F(1, 2)
        assert f.far_exponent() == F(1, 2)  # -max(p+q) = -max(-1/2, -2)

    def test_generalized_binomial(self):
        assert generalized_binomial(F(1, 2), 2) == F(-1, 8)


coeffs = st.fractions(min_value=-5, max_value=5).filter(lambda x: x != 0)
exps = st.fractions(min_value=-3, max_value=3)
term_st = st.tuples(coeffs, exps, exps)


@st.composite
def ring_functions(draw):
    terms = draw(st.lists(term_st, min_size=1, max_size=4))
    return rf(*terms)


class TestProperties:
    @given(ring_functions(), ring_functions())
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, f, g):
        assert f + g == g + f
        assert f * g == g * f

    @given(ring_functions(), ring_functions(), ring_functions())
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)

    @given(ring_functions())
    @settings(max_examples=60, deadline=None)
    def test_serialization_round_trip(self, f):
        assert RadialFunction.from_text(f.to_text()) == f

    @given(ring_functions())
    @settings(max_examples=40, deadline=None)
    def test_pointwise_matches_terms(self, f):
        t = 0.37
        direct = sum(complex(c) * t ** float(p) * (1 + t) ** float(q)
                     for (p, q), c in f.terms.items())
        assert abs(complex(f(t)) - direct) <= 1e-10 * (1 + abs(direct))
