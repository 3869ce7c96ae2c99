"""Ring of finite power-law sums: arithmetic, limits, serialization."""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcalc.errors import DegcalcError, EndpointEvalError
from degcalc.powerfun import (HALF_LINE, UNIT_INTERVAL, RadialFunction,
                              as_exponent, b_weight, from_u,
                              generalized_binomial, shift_u, to_u)

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

    def test_deep_pole_decided_by_its_first_exponent(self):
        start = time.perf_counter()
        assert RadialFunction.term(1, -2 * 10**6).limit("zero") == math.inf
        assert time.perf_counter() - start < 1.0

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
        with pytest.raises(DegcalcError):
            as_exponent(bad)


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

    def test_float_exponents_are_exact(self):
        assert as_exponent(0.5) == F(1, 2)
        assert as_exponent(0.1) == F(3602879701896397, 36028797018963968)
        assert (rf((1, math.e, 0)).to_text()
                == "1 * t^6121026514868073/2251799813685248 * (1+t)^0")

    def test_many_float_exponents_construct_quickly(self):
        start = time.perf_counter()
        f = RadialFunction({(k / 7, 0.5): 1 for k in range(3000)})
        assert time.perf_counter() - start < 1.0
        assert len(f.terms) == 3000


class TestFlowCoordinate:
    @pytest.mark.parametrize("domain", [HALF_LINE, UNIT_INTERVAL])
    def test_round_trip_and_endpoints(self, domain):
        # to_u forms 1 - t by subtraction, so u stays moderate above 0
        for u in (-20.0, -1.5, 0.0, 0.25, 5.0):
            assert abs(to_u(domain, from_u(domain, u)) - u) <= 1e-12
        assert from_u(domain, -math.inf) == 0.0
        assert from_u(domain, math.inf) == (math.inf if domain == HALF_LINE
                                            else 1.0)

    @pytest.mark.parametrize("domain", [HALF_LINE, UNIT_INTERVAL])
    def test_interior_points_uniform_in_u(self, domain):
        # from_u on a u-grid gives interior sample points, elementwise as
        # on its floats, and to_u maps them back to the grid
        us = np.linspace(-14.0, 14.0, 9)
        ts = from_u(domain, us)
        assert ts.shape == (9,)
        assert all(0.0 < t < (math.inf if domain == HALF_LINE else 1.0)
                   for t in ts)
        assert all(abs(t - from_u(domain, float(u))) <= 1e-15 * t
                   for t, u in zip(ts, us))
        back = to_u(domain, ts)
        assert all(abs(u - (-14.0 + 3.5 * k)) <= 1e-9
                   for k, u in enumerate(back))

    @pytest.mark.parametrize("domain", [HALF_LINE, UNIT_INTERVAL])
    def test_shift_is_translation_in_u(self, domain):
        for x in (1e-3, 0.2, 0.5, 0.9):
            for v in (-2.0, 0.7):
                want = from_u(domain, to_u(domain, x) + v)
                assert abs(shift_u(domain, x, v) - want) <= 1e-14 * want

    def test_b_weight(self):
        assert b_weight(HALF_LINE) == rf((1, 1, 0))
        assert b_weight(UNIT_INTERVAL) == rf((1, 1, 1), domain=UNIT_INTERVAL)

    @pytest.mark.parametrize("domain", [HALF_LINE, UNIT_INTERVAL])
    def test_at_u_matches_pointwise(self, domain):
        f = rf((2, F(1, 2), -1), (-1, 2, F(3, 2)), domain=domain)
        for u in (-6.0, -0.3, 0.0, 1.2, 6.0):
            want = f(from_u(domain, u))
            assert abs(f.at_u(u) - want) <= 1e-13 * abs(want)

    def test_at_u_keeps_the_far_factor(self):
        # t rounds to 1 at u = 40, but 1 - t = 1/(1 + e^u) does not
        f = rf((1, 1, 1), domain=UNIT_INTERVAL)
        with pytest.raises(EndpointEvalError):
            f(from_u(UNIT_INTERVAL, 40.0))
        want = math.exp(-40.0) / (1.0 + math.exp(-40.0)) ** 2
        assert abs(f.at_u(40.0) - want) <= 1e-15 * want

    @pytest.mark.parametrize("domain", [HALF_LINE, UNIT_INTERVAL])
    def test_at_u_matches_mpmath(self, domain):
        terms = ((F(2, 3), F(1, 3), F(-5, 7)), (-3, F(-2, 9), F(7, 5)),
                 (F(1, 7), F(9, 11), F(1, 3)))
        f = rf(*terms, domain=domain)
        sign = 1 if domain == HALF_LINE else -1
        with mpmath.workdps(50):
            for u in (-40.0, -5.0, 0.0, 5.0, 40.0):
                t = (mpmath.exp(u) if domain == HALF_LINE
                     else 1 / (1 + mpmath.exp(-u)))
                vals = [mpmath.mpf(c.numerator) / c.denominator
                        * t ** (mpmath.mpf(p.numerator) / p.denominator)
                        * (1 + sign * t) ** (mpmath.mpf(q.numerator)
                                             / q.denominator)
                        for c, p, q in terms]
                want, scale = sum(vals), sum(abs(v) for v in vals)
                assert abs(f.at_u(u) - want) <= 1e-14 * scale

    def test_past_the_exp_range(self):
        # e^710 overflows, 1e-300 e^710 does not; e^1000 does
        want = 1e-300 * math.exp(355.0) * math.exp(355.0)
        assert abs(shift_u(HALF_LINE, 1e-300, 710.0) - want) <= 1e-12 * want
        assert shift_u(HALF_LINE, 1.0, 1000.0) == math.inf
        assert shift_u(UNIT_INTERVAL, 0.5, -1000.0) == 0.0
        assert from_u(HALF_LINE, 1000.0) == math.inf
        assert from_u(UNIT_INTERVAL, -1000.0) == 0.0
        # t^400 and (1+t)^-400 leave the float range, their product does not
        assert RadialFunction.term(1, 400, -400)(1e200) == pytest.approx(1.0)

    #: t^3 - t^2, and (1 - t)^-400 - t (1 - t)^-400 = (1 - t)^-399 on [0, 1]:
    #: both terms leave the float range at t = 1e200 and at u = 5, and the
    #: term with the larger exponent gives the sign of the infinite value
    OPPOSITE = (rf((1, 3, 0), (-1, 2, 0)),
                rf((1, 0, -400), (-1, 1, -400), domain=UNIT_INTERVAL))

    def test_opposite_terms_past_the_float_range(self):
        f, g = self.OPPOSITE
        assert f(1e200) == math.inf
        assert (-f)(1e200) == -math.inf
        assert g.at_u(5.0) == math.inf
        assert (-g).at_u(5.0) == -math.inf

    @pytest.mark.filterwarnings("error")
    def test_opposite_terms_past_the_float_range_on_an_array(self):
        f, g = self.OPPOSITE
        got = f.at_u(np.log([1e200, 2.0, 1e-200]))
        assert got[0] == math.inf and got[2] == 0.0
        assert got[1] == pytest.approx(4.0, rel=1e-14, abs=0)
        assert (-f).at_u(np.log([1e200]))[0] == -math.inf
        got = g.at_u(np.array([5.0, 0.0]))
        assert got[0] == math.inf
        assert got[1] == pytest.approx(2.0 ** 399, rel=1e-13, abs=0)


coeffs = st.fractions(min_value=-5, max_value=5).filter(lambda x: x != 0)
rational_exps = st.fractions(min_value=-3, max_value=3)
# a float exponent is its exact binary value, distinct from a rational it
# rounds, e.g. 1/3 and float(1/3)
exps = st.one_of(rational_exps, rational_exps.map(float))
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
        for h in (f + g, f * g, f.derivative()):
            assert all(isinstance(p, Fraction) and isinstance(q, Fraction)
                       for p, q in h.terms)

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
        # an array gives the values of its floats, on both domains and with
        # a complex coefficient, up to the rounding of the term sizes
        ts = np.array([1e-3, 0.37, 0.5, 0.9])
        for g in (f, (1 + 2j) * f, RadialFunction(f.terms, UNIT_INTERVAL)):
            sizes = RadialFunction({k: abs(c) for k, c in g.terms.items()},
                                   g.domain)
            for t, got, scale in zip(ts, g(ts), sizes(ts)):
                assert abs(got - g(float(t))) <= 1e-14 * scale
