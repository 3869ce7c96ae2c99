"""Ring of finite power-law sums: arithmetic, limits, serialization."""

import math
import re
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcalc import powerfun
from degcalc.errors import DegcalcError, EndpointEvalError, PreconditionError
from degcalc.powerfun import (HALF_LINE, UNIT_INTERVAL, RadialFunction,
                              _binomial_step, as_exponent, b_weight, from_u,
                              shift_u, to_u)

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

    @pytest.mark.parametrize("domain", [HALF_LINE, UNIT_INTERVAL])
    @pytest.mark.parametrize("coeffs", [(F(1, 3), F(-5, 2)), (0.1, -2.5),
                                        (0.5 + 0.25j, -1j)])
    def test_pow_is_repeated_product(self, domain, coeffs):
        f = rf((coeffs[0], F(1, 2), 1), (coeffs[1], 0, -1), domain=domain)
        one = RadialFunction.const(1, domain=domain)
        for n, product in ((0, one), (1, f), (3, f * f * f)):
            power = f ** n
            assert list(power.terms.items()) == list(product.terms.items())
            assert [type(c) for c in power.terms.values()] == \
                [type(c) for c in product.terms.values()]

    def test_divide_term(self):
        f = rf((2, 2, -3), (4, 1, -1))
        g = rf((2, 1, -1))
        assert f.divide_term(g) == rf((1, 1, -2), (2, 0, 0))

    def test_scalar_rational_preserved(self):
        f = rf((F(1, 3), 1, 0)) * F(3, 5)
        ((_, _), c), = f.terms.items()
        assert c == F(1, 5)

    def test_scalar_product_drops_coefficients_that_underflow(self):
        f = RadialFunction.term(1e-200, 1) * 1e-200
        assert f.is_zero and f == RadialFunction.zero()
        assert f.leading("far") == (math.inf, 0)
        assert f == RadialFunction.term(1e-200, 1) \
            * RadialFunction.const(1e-200)


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

    def test_exact_limits_beyond_float_range(self):
        # an exact total is returned as it is, never converted to float
        big = RadialFunction.term(10**400, 0)
        assert big.limit("zero") == big.limit("far") == 10**400
        assert big.is_continuous()
        pole = RadialFunction.term(-10**400, -1) + RadialFunction.const(1)
        assert pole.limit("zero") == -math.inf
        assert not pole.is_continuous()

    def test_endpoint_eval_rejected(self):
        with pytest.raises(EndpointEvalError):
            rf((1, 1, 0))(0.0)

    def test_float_cancellation_noise_is_skipped(self):
        # 0.3 (1+t)^{1/3} - 0.3 - 0.1 t = -t^2/30 + ...: in floats the t^1
        # total is -1.39e-17, noise that must not be read as the leading term
        f = rf((0.3, 0, F(1, 3)), (-0.3, 0, 0), (-0.1, 1, 0))
        e, c = f.leading("zero")
        assert e == 2 and abs(c + 1 / 30) < 1e-15
        assert f.limit("zero") == 0

    def test_deep_pole_decided_by_its_first_exponent(self):
        start = time.perf_counter()
        assert RadialFunction.term(1, -2 * 10**6).limit("zero") == math.inf
        assert time.perf_counter() - start < 1.0

    def test_limit_walks_no_rung_above_zero(self, monkeypatch):
        # ten relations t^p (1+t)^(q+1) - t^p (1+t)^q - t^(p+1) (1+t)^q:
        # 30 terms that sum to the zero function
        f = rf(*(term for i in range(10) for term in (
            (1, F(-i, 3), F(i, 7) + 1), (-1, F(-i, 3), F(i, 7)),
            (-1, F(3 - i, 3), F(i, 7)))))
        assert len(f.terms) == 30 and not f.is_zero
        steps = []
        step = powerfun._binomial_step
        monkeypatch.setattr(powerfun, "_binomial_step",
                            lambda b, q, k: steps.append(k) or step(b, q, k))
        # a term t^p (1+t)^q has floor(-p) rungs p + k <= 0 with k >= 1
        rungs = sum(math.floor(-p) for p, _ in f.terms if p <= 0)
        assert f.limit("zero") == 0
        assert 0 < len(steps) <= rungs
        steps.clear()
        assert f.leading("zero") == (math.inf, 0)
        assert len(steps) > rungs

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

    def test_ring_operations_need_one_domain(self):
        f, g = rf((1, 1, 0)), rf((1, 1, 0), domain=UNIT_INTERVAL)
        for op in (f.__add__, f.__mul__, f.divide_term):
            with pytest.raises(PreconditionError, match="domain mismatch"):
                op(g)

    def test_invert_matches_pointwise(self):
        f = rf((1, 2, -3), (F(1, 2), 0, -1))
        for t in (0.3, 1.7, 12.0):
            assert abs(f.invert()(t) - f(1.0 / t)) < 1e-12 * (1 + abs(f(1 / t)))


class TestExponentData:
    def test_min_p_and_far(self):
        f = rf((1, F(1, 2), -1), (2, 2, -4))
        assert f.leading("zero") == (F(1, 2), 1)
        assert f.leading("far") == (F(1, 2), 1)  # 1/t^(1/2) beats 2/t^2

    @pytest.mark.parametrize("written, term, domain", [
        (((1, 1, 1), (-1, 2, 0)), (1, 1, 0), HALF_LINE),  # t(1+t) - t^2
        (((-1, -1, 1), (1, 0, 0)), (-1, -1, 0), HALF_LINE),  # -1/t
        (((1, 0, 1), (-1, 1, 0), (-1, 0, 0)), None, HALF_LINE),  # zero
        (((1, 1, 0), (1, 2, 0)), (1, 1, 1), HALF_LINE),  # t(1+t)
        (((3, F(1, 3), 1), (3, F(4, 3), 0)), (3, F(1, 3), 0), UNIT_INTERVAL),
        (((2.5, 0, 2), (2.5, 1, 1)), (2.5, 0, 1), UNIT_INTERVAL),
    ])
    def test_one_term_reads_the_function(self, written, term, domain):
        f = rf(*written, domain=domain)
        one = f.one_term()
        assert one == (rf(term, domain=domain) if term else
                       RadialFunction.zero(domain))

    @pytest.mark.parametrize("written", [
        ((1, 1, 0), (2, 2, 0)),  # t + 2t^2
        ((1, 0, 2), (-1, 2, 0)),  # 1 + 2t
        ((-1, -1, 1), (1, 0, 0), (1, 2, 0)),  # -1/t + t^2
        ((1, F(1, 2), 0), (1, 1, 0)),  # t^(1/2) + t: two classes mod 1
    ])
    def test_one_term_keeps_a_sum_of_several(self, written):
        f = rf(*written)
        assert f.one_term() is f
        g = rf(written[0])
        assert g.one_term() is g  # one stored term returns at once

    def test_generalized_binomial(self):
        half = (1, 2)
        assert _binomial_step(_binomial_step((1, 1), half, 0), half, 1) \
            == (-1, 8)
        assert F(-1, 8) == generalized_binomial(F(1, 2), 2)

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

    @pytest.mark.parametrize("domain", [HALF_LINE, UNIT_INTERVAL])
    def test_at_u_error_bounds_the_rounding(self, domain):
        # the exact value at u and at u's neighbours u (1 +/- 2^-53) lies
        # within at_u_error(u) |at_u(u)| of at_u(u), also where |p ln t| is
        # large
        f = rf((2, F(1, 2), -1), (-1, 2, F(3, 2)), (F(1, 3), 3, 0),
               domain=domain)
        u = np.array([-300.0, -40.0, -6.0, -0.3, 0.0, 1.2, 6.0, 30.0])
        got, bound = f.at_u(u), f.at_u_error(u)
        sign = 1 if domain == HALF_LINE else -1
        with mpmath.workdps(50):
            for x, value, err in zip(u.tolist(), got, bound):
                for v in (x, x * (1 + 2.0 ** -53), x * (1 - 2.0 ** -53)):
                    v = mpmath.mpf(v)
                    t = mpmath.exp(v) if domain == HALF_LINE else \
                        1 / (1 + mpmath.exp(-v))
                    base = 1 + sign * t
                    exact = (2 * mpmath.sqrt(t) / base
                             - t ** 2 * base * mpmath.sqrt(base) + t ** 3 / 3)
                    assert abs(value - exact) <= err * abs(value)
        assert (bound > 0).all() and (bound <= 1e-12).all()

    def test_at_u_error_is_finite_where_at_u_is(self):
        # t^2 at u = 354 is 3.0e307, and 1 + 2 (|ln t| + |u|) = 1417 times
        # that, the bound in absolute terms, leaves the float range
        f = rf((1, 2, 0))
        u = np.array([354.0])
        assert np.isfinite(f.at_u(u)).all()
        assert f.at_u_error(u) == pytest.approx(1417 * 2.0 ** -53, rel=1e-15)

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
        # one printed line per stored term, exponents as exact fractions
        line = re.compile(r"(\S+) \* t\^(\S+) \* \(1\+t\)\^(\S+)")
        text = f.to_text()
        read = {} if text == "0" else {
            (F(p), F(q)): F(c) for c, p, q in
            (line.fullmatch(row).groups() for row in text.splitlines())}
        assert read == dict(f.terms)

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


# -- the integer keys against a Fraction-keyed reference ----------------------
# Each function stores its exponents as integers over one denominator D; the
# reference below works on the Fraction pairs that ``terms`` reads back.
# Denominators 3, 7, 9 and 11 make operands with different D meet, and float
# exponents bring D = 2^k for large k.

key_exps = st.one_of(
    st.builds(Fraction, st.integers(-12, 12),
              st.sampled_from((1, 2, 3, 7, 9, 11))),
    st.sampled_from((math.e, -math.pi / 4, 0.1, -2.5)))
key_coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                       st.integers(1, 3))
key_terms = st.dictionaries(st.tuples(key_exps, key_exps), key_coeffs,
                            max_size=4)
domains = st.sampled_from((HALF_LINE, UNIT_INTERVAL))


def reference(pairs):
    """Fraction-keyed {(p, q): c} of ((p, q), c) pairs, equal keys merged and
    zero sums dropped."""
    out = {}
    for (p, q), c in pairs:
        key = (as_exponent(p), as_exponent(q))
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c != 0}


def generalized_binomial(q, k):
    """binom(q, k), exactly, for a rational q and an integer k >= 0."""
    num = math.prod((q - i for i in range(k)), start=F(1))
    return num / math.factorial(k)


def reference_limit_at_zero(terms, domain, stop=0):
    """(e, c): the first nonzero coefficient c of the expansion at t = 0 and
    its exponent e, over the exponents e <= stop and below the bound
    p_lo + n (p_hi - p_lo + 1) - 1 past which only the zero function has
    none; (inf, 0) if there is none."""
    if not terms:
        return math.inf, 0
    sign = 1 if domain == HALF_LINE else -1
    lo, hi = min(p for p, _ in terms), max(p for p, _ in terms)
    stop = min(stop, lo + len(terms) * (hi - lo + 1) - 1)
    ladder = sorted({p + k for p, _ in terms
                     for k in range(math.floor(stop - p) + 1)})
    for e in ladder:
        total = Fraction(0)
        for (p, q), c in terms.items():
            k = e - p
            if k >= 0 and k.denominator == 1:
                total += c * generalized_binomial(q, int(k)) * sign ** int(k)
        if total != 0:
            return e, total
    return math.inf, 0


def as_limit(lead):
    """The endpoint limit that a leading term (e, c) gives."""
    e, c = lead
    return c if e == 0 else 0 if e > 0 else math.copysign(math.inf, c)


def split_denominator(f):
    """f again, stored over lcm(D, 143) instead of its own denominator D."""
    extra = RadialFunction.term(1, F(1, 11 * 13), domain=f.domain)
    return f + extra - extra


class TestIntegerKeys:
    @given(key_terms, key_terms, domains)
    @settings(max_examples=80, deadline=None)
    def test_ring_operations_match_reference(self, a, b, domain):
        f, g = RadialFunction(a, domain), RadialFunction(b, domain)
        ra, rb = reference(a.items()), reference(b.items())
        assert dict(f.terms) == ra and dict(g.terms) == rb
        assert all(type(p) is Fraction and type(q) is Fraction
                   for p, q in f.terms)
        assert dict((f + g).terms) == reference([*ra.items(), *rb.items()])
        assert dict((f * g).terms) == reference(
            ((p1 + p2, q1 + q2), c1 * c2)
            for (p1, q1), c1 in ra.items() for (p2, q2), c2 in rb.items())
        sign = 1 if domain == HALF_LINE else -1
        assert dict(f.derivative().terms) == reference(
            pair for (p, q), c in ra.items()
            for pair in (((p - 1, q), p * c), ((p, q - 1), sign * q * c)))
        for (p0, q0), c0 in rb.items():
            one = RadialFunction.term(c0, p0, q0, domain)
            assert dict(f.divide_term(one).terms) == reference(
                ((p - p0, q - q0), c / c0) for (p, q), c in ra.items())
        if domain == HALF_LINE:
            far = {(-(p + q), q): c for (p, q), c in ra.items()}
            assert dict(f.invert().terms) == far
        else:
            far = {(q, p): c for (p, q), c in ra.items()}
            assert dict(f.flip().terms) == far
        assert f.leading("far") == reference_limit_at_zero(far, domain,
                                                           math.inf)
        assert f.leading("zero") == reference_limit_at_zero(ra, domain,
                                                            math.inf)
        assert f.limit("zero") == as_limit(reference_limit_at_zero(ra, domain))
        assert f.limit("far") == as_limit(reference_limit_at_zero(far, domain))

    @given(key_terms, key_exps, key_exps, domains)
    @settings(max_examples=60, deadline=None)
    def test_limit_past_cancelling_exponents(self, a, q1, q2, domain):
        # (1 +/- t)^q1 - (1 +/- t)^q2 vanishes at t = 0, so every exponent
        # p of a cancels there and the limit is read further up the ladder
        f = RadialFunction(a, domain) * (
            RadialFunction.term(1, 0, q1, domain)
            - RadialFunction.term(1, 0, q2, domain))
        assert f.limit("zero") == as_limit(
            reference_limit_at_zero(dict(f.terms), domain))

    def test_limit_past_cancelling_exponents_over_thirds(self):
        # t^-1 ((1+t)^(1/3) - (1+t)^(-1/3)) = 2/3 + O(t), stored over D = 3
        f = RadialFunction({(-1, F(1, 3)): 1, (-1, F(-1, 3)): -1})
        assert f.limit("zero") == F(2, 3)
        assert (f * RadialFunction.term(1, F(-1, 2))).limit("zero") == math.inf

    @given(key_terms, domains)
    @settings(max_examples=60, deadline=None)
    def test_stored_denominator_is_not_observable(self, a, domain):
        f = RadialFunction(a, domain)
        g = split_denominator(f)
        assert f == g and g == f and f.terms == g.terms
        assert f.to_text() == g.to_text()
        assert (f.leading("zero"), f.leading("far"), f.limit("zero"),
                f.limit("far")) == (g.leading("zero"), g.leading("far"),
                                    g.limit("zero"), g.limit("far"))
        assert (f - g).is_zero and (f * g - g * f).is_zero

    def test_equal_across_denominators(self):
        half = RadialFunction.term(1, F(1, 2))
        assert half * half == RadialFunction.term(1, 1)
        assert RadialFunction.term(2, F(2, 4), -1) == \
            RadialFunction.term(2, 0.5, F(-3, 3))
        e = RadialFunction.term(1, math.e)
        assert e * RadialFunction.term(1, F(1, 3)) \
            == RadialFunction.term(1, F(math.e) + F(1, 3))
        assert e != RadialFunction.term(1, F(6121026514868073,
                                             2251799813685249))

    def test_terms_is_a_fraction_keyed_view(self):
        assert RadialFunction.const(1).terms == {(0, 0): 1}
        f = RadialFunction.term(3, F(1, 3), math.e)
        assert dict(f.terms) == {(F(1, 3), F(math.e)): 3}
        assert f.terms[(F(1, 3), math.e)] == 3 and len(f.terms) == 1
        assert (F(1, 3), 0) not in f.terms and (1, 1) not in f.terms
        assert f.terms.get((F(2, 3), math.e)) is None
        with pytest.raises(TypeError):
            f.terms[(0, 0)] = 1

    def test_terms_items_and_values_read_as_getitem(self):
        f = RadialFunction({(F(1, 2), -1): F(3, 4), (2, 0): 0.5,
                            (0, F(1, 3)): 1 + 2j, (1, 1): -2})
        view = f.terms
        read = {key: view[key] for key in view}
        assert list(view.items()) == list(read.items())
        assert [(repr(c), type(c)) for c in view.values()] == \
            [(repr(c), type(c)) for c in read.values()]
        assert repr(view) == f"mappingproxy({read!r})"
        # the items stay a set of pairs
        items = view.items()
        assert items == read.items() == set(read.items())
        assert ((F(2), F(0)), 0.5) in items and ((2, 0), 1) not in items
        assert items & {((1, 1), -2), ((9, 9), 1)} == {((1, 1), -2)}
        assert items - read.items() == set() and len(items | items) == 4
        assert view == read and dict(view) == read


# -- exact coefficients as integers against a Fraction-coefficient reference ---
# Each function stores its exact coefficients as integers over one coefficient
# denominator.  The reference below keeps every coefficient a Fraction, a float
# or a complex and runs the ring's loops in their order, so the two must agree
# on the value, the type and the repr of every coefficient, also where an
# exact coefficient meets a float or a complex and wherever float sums round.
# Numerators and denominators past 2**53 make an exact coefficient that is
# read as float(N) / D instead of N / D show.

def ref_coefficient(c):
    """A coefficient as the Fraction reference stores it."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    return c.real if isinstance(c, complex) and c.imag == 0.0 else c


def ref_accumulate(merged, key, c):
    if c == 0:
        return
    old = merged.get(key)
    if old is not None:
        c = old + c
        if c == 0:
            del merged[key]
            return
    merged[key] = c


def ref_function(pairs):
    merged = {}
    for (p, q), c in pairs:
        ref_accumulate(merged, (as_exponent(p), as_exponent(q)),
                       ref_coefficient(c))
    return merged


def ref_add(a, b):
    merged = dict(a)
    for key, c in b.items():
        ref_accumulate(merged, key, c)
    return merged


def ref_mul(a, b):
    merged = {}
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            ref_accumulate(merged, (p1 + p2, q1 + q2), c1 * c2)
    return merged


def ref_scale(a, s):
    s, merged = ref_coefficient(s), {}
    if s != 0:
        for key, c in a.items():
            ref_accumulate(merged, key, c * s)
    return merged


def ref_derivative(a, domain):
    sign, merged = 1 if domain == HALF_LINE else -1, {}
    for (p, q), c in a.items():
        if p:
            ref_accumulate(merged, (p - 1, q), p * c)
        if q:
            ref_accumulate(merged, (p, q - 1), sign * q * c)
    return merged


def ref_divide_term(a, b):
    ((p0, q0), c0), = b.items()
    merged = {}
    for (p, q), c in a.items():
        ref_accumulate(merged, (p - p0, q - q0), c / c0)
    return merged


def ref_walk(terms, domain, stop=math.inf):
    """(e, c) at t = 0 of a Fraction-keyed reference function, as a ladder of
    Fraction products c binom(q, k) (+/-1)^k summed from Fraction(0) in the
    order of the terms, float noise skipped at the ring's tolerance; the
    exponents beyond the bound of ``reference_limit_at_zero`` are not read."""
    if len(terms) < 2:
        return next(((p, c) for (p, _), c in terms.items() if p <= stop),
                    (math.inf, 0))
    sign = 1 if domain == HALF_LINE else -1
    lo, hi = min(p for p, _ in terms), max(p for p, _ in terms)
    stop = min(stop, lo + len(terms) * (hi - lo + 1) - 1)
    for e in sorted({p + k for p, _ in terms
                     for k in range(math.floor(stop - p) + 1)}):
        contribs = []
        for (p, q), c in terms.items():
            k = e - p
            if k >= 0 and k.denominator == 1:
                b = generalized_binomial(q, int(k)) * sign ** int(k)
                if b:
                    contribs.append(c * b)
        total = sum(contribs, Fraction(0))
        if total == 0 or not isinstance(total, Fraction) and \
                abs(complex(total)) <= powerfun.COEFF_REL_TOL * max(
                    abs(complex(c)) for c in contribs):
            continue
        return e, total
    return math.inf, 0


def typed(x):
    """The repr and type of x, or of each entry of a tuple x."""
    return [typed(y) for y in x] if isinstance(x, tuple) else (repr(x),
                                                               type(x))


def stored(f):
    """Each coefficient of f in stored order: its key, repr and type."""
    return [(key, repr(c), type(c)) for key, c in f.terms.items()]


def expected(ref):
    return [(key, repr(c), type(c)) for key, c in ref.items()]


big = st.integers(-2 ** 70, 2 ** 70)
exact_coeffs = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from((2, 3, 7, 9))),
    st.builds(Fraction, big, st.integers(1, 2 ** 70)))
float_coeffs = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, 0.1, 1e300)))
mixed_coeffs = st.one_of(exact_coeffs, float_coeffs,
                         st.builds(complex, float_coeffs, float_coeffs))
# few exponents, so that products collide and sum three and more terms
mixed_exps = st.one_of(st.integers(0, 2), st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from((2, 3, 7))))
mixed_terms = st.dictionaries(st.tuples(mixed_exps, mixed_exps),
                              mixed_coeffs, max_size=5)
scalars = st.one_of(mixed_coeffs, st.sampled_from((0, F(0), 0j, 1e-320)))
# integer p, so that the terms' ladders meet on shared rungs, and q with odd
# denominators, so that the binomials are not dyadic.  Each pair
# c t^p (1 +/- t)^q1 - c t^p (1 +/- t)^q2 cancels on its first rung, so the
# rungs past it, where the binomials enter, are read too.
ladder_keys = st.tuples(st.integers(-1, 1), st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from((1, 3, 7))))
ladder_coeffs = st.one_of(
    mixed_coeffs, exact_coeffs.filter(bool), st.floats(-10, 10).filter(bool),
    st.builds(complex, st.floats(-10, 10), st.floats(-10, 10)))
ladder_pairs = st.lists(st.tuples(ladder_keys, ladder_keys, ladder_coeffs),
                        min_size=1, max_size=3)
ladder_terms = st.builds(
    lambda pairs, extra: {**extra, **{
        key: v for (p, q1), (_, q2), c in pairs if q1 != q2
        for key, v in (((p, q1), c), ((p, q2), -c))}},
    ladder_pairs, st.dictionaries(ladder_keys, ladder_coeffs, max_size=3))


class TestExactCoefficients:
    @given(mixed_terms, mixed_terms, scalars, domains)
    @settings(max_examples=150, deadline=None)
    def test_operations_match_the_fraction_reference(self, a, b, s, domain):
        f, g = RadialFunction(a, domain), RadialFunction(b, domain)
        ra, rb = ref_function(a.items()), ref_function(b.items())
        neg = {key: -c for key, c in rb.items()}
        cases = [(f, ra), (g, rb), (f + g, ref_add(ra, rb)),
                 (f - g, ref_add(ra, neg)), (-g, neg),
                 (f * g, ref_mul(ra, rb)), (g * f, ref_mul(rb, ra)),
                 (f * s, ref_scale(ra, s)), (s * g, ref_scale(rb, s)),
                 (f.derivative(), ref_derivative(ra, domain))]
        for key, c in rb.items():
            one = RadialFunction({key: c}, domain)
            cases.append((f.divide_term(one), ref_divide_term(ra, {key: c})))
        if domain == HALF_LINE:
            cases.append((f.invert(), {(-(p + q), q): c
                                       for (p, q), c in ra.items()}))
        else:
            cases.append((f.flip(), {(q, p): c for (p, q), c in ra.items()}))
        for got, want in cases:
            assert stored(got) == expected(want)
        assert (f == g) == (ra == rb)
        assert (f * g == g * f) == (ref_mul(ra, rb) == ref_mul(rb, ra))
        assert ((f + g) - g == f) == (ref_add(ref_add(ra, rb), neg) == ra)

    @given(ladder_terms, domains)
    @settings(max_examples=150, deadline=None)
    def test_endpoint_readings_match_the_fraction_reference(self, a, domain):
        f = RadialFunction(a, domain)
        ra = ref_function(a.items())
        far = {(-(p + q), q) if domain == HALF_LINE else (q, p): c
               for (p, q), c in ra.items()}
        for end, terms in (("zero", ra), ("far", far)):
            want = ref_walk(terms, domain)
            assert typed(f.leading(end)) == typed(want)
            e, c = ref_walk(terms, domain, 0)
            s = c.real if isinstance(c, complex) else c
            limit = (c if e == 0 else Fraction(0)) if e >= 0 else \
                math.inf if s > 0 else -math.inf
            assert typed(f.limit(end)) == typed(limit)

    def test_has_positive_coefficients(self):
        # exact, float and complex coefficients; a complex with no
        # imaginary part is stored as its real part
        for c in (F(1, 3), 2, 0.5, complex(2.0, 0.0)):
            f = RadialFunction.term(c, 1) + RadialFunction.term(F(7, 2), 2, -1)
            assert f.has_positive_coefficients
        for c in (F(-1, 3), -2, -0.5, complex(2.0, 1e-300), 1j):
            f = RadialFunction.term(c, 1) + RadialFunction.term(F(7, 2), 2, -1)
            assert not f.has_positive_coefficients
        # the sum's sign is not the question: t - t^2/(2(1+t)) is positive
        assert not (RadialFunction.term(1, 1) - RadialFunction.term(
            F(1, 2), 2, -1)).has_positive_coefficients

    def test_numpy_scalar_coefficients_are_stored_as_plain_numbers(self):
        term = RadialFunction.term(1, 1)
        text = "2.0 * t^1 * (1+t)^0"
        assert (term * np.float64(2.0)).to_text() == \
            (np.float64(2.0) * term).to_text() == text
        assert RadialFunction.term(np.float64(2.0), 1).to_text() == text
        for c in (np.complex128(1 - 2j), np.complex128(3.0)):
            g = RadialFunction.term(c, 1)
            assert [type(x) for x in g.terms.values()] == \
                [type(ref_coefficient(complex(c)))]
            assert g.to_text() == RadialFunction.term(complex(c), 1).to_text()

    def test_equal_exact_functions_store_equal_fields(self):
        f = RadialFunction.term(F(1, 3), 1) * 3
        g = RadialFunction.term(1, 1)
        fields = ("_terms", "_den", "_cden")
        assert [getattr(f, x) for x in fields] == \
            [getattr(g, x) for x in fields] == [{(1, 0): 1}, 1, 1]
        assert type(f._terms[1, 0]) is int
        h = RadialFunction.term(F(1, 2), 1) + RadialFunction.term(F(1, 6), 2)
        assert (h * 6)._terms == {(1, 0): 3, (2, 0): 1} and \
            (h * 6)._cden == 1
        assert (h - RadialFunction.term(F(1, 6), 2))._cden == 2

    def test_exact_and_float_coefficients_compare_by_value(self):
        half = RadialFunction.term(F(1, 2), 1)
        assert half == RadialFunction.term(0.5, 1)
        assert RadialFunction.term(0.5, 1) == half
        assert half == RadialFunction.term(0.5 + 0j, 1)
        # the numerator 1 over 2 is not the float 1.0
        assert half != RadialFunction.term(1.0, 1)
        assert half + RadialFunction.term(0.25, 2) == \
            RadialFunction.term(0.5, 1) + RadialFunction.term(F(1, 4), 2)

    def test_denominator_is_reduced_not_multiplied(self):
        # X^10 over phi = (3/2) t^2 / (1+t): every raw coefficient is stored
        # over the least common denominator of its reduced coefficients,
        # which divides (3/2)^10's 2^10, though each product multiplies the
        # denominators of its factors before the reduction
        from degcalc.diffop import DiffOp
        from degcalc.weights import Weight
        phi = Weight(RadialFunction.term(F(3, 2), 2, -1))
        raw = DiffOp("lie", {(10, 0): 1}, phi, phi).to_raw()
        functions = [f for c in raw.coeffs.values() for f in c.modes.values()]
        assert len(functions) == 10
        for f in functions:
            assert f._cden == math.lcm(*(c.denominator
                                         for c in f.terms.values()))
            assert 2 ** 10 % f._cden == 0

    def test_exact_operations_call_nothing_in_fractions(self):
        import cProfile
        import fractions
        import pstats
        f = RadialFunction({(F(1, 2), -1): F(2, 3), (2, F(1, 3)): -5,
                            (1, 0): F(7, 4)})
        g = RadialFunction({(F(1, 3), 0): F(-3, 5), (0, -2): F(1, 7)})
        one = RadialFunction.term(F(-4, 9), F(2, 7), 1)
        profile = cProfile.Profile()
        profile.enable()
        results = [f + g, f - g, f * g, g * f, f.derivative(),
                   g.derivative(), f.divide_term(one), (f * g).derivative()]
        profile.disable()
        assert all(not h.is_zero for h in results)
        called = [name for (path, _, name) in pstats.Stats(profile).stats
                  if path == fractions.__file__]
        assert not called, f"exact ring operations called {called}"
