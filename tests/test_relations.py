"""The ring decides functions, not representations.

The basis is not independent: t^p (1+t)^(q+1) = t^p (1+t)^q + t^(p+1) (1+t)^q
on the half-line, and t^p (1-t)^(q+1) = t^p (1-t)^q - t^(p+1) (1-t)^q on the
unit interval.  Adding that relation, at random exponents or at a stored
term so that the term cancels, must change no endpoint reading and no
verdict built on one.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from degcalc.diffop import DiffOp
from degcalc.errors import PreconditionError
from degcalc.flows import Flow, completeness_check
from degcalc.powerfun import HALF_LINE, UNIT_INTERVAL, RadialFunction
from degcalc.schrodinger import SchrodingerProblem
from degcalc.weights import (MEMBERSHIP_CAP, Weight, membership_order,
                             structure_function)

F = Fraction
T = RadialFunction.term
domains = st.sampled_from((HALF_LINE, UNIT_INTERVAL))


def relation(c, p, q, domain):
    """c times the relation at (p, q): a sum of three terms that is zero."""
    sign = 1 if domain == HALF_LINE else -1
    return (T(c, p, q + 1, domain) - T(c, p, q, domain)
            - T(sign * c, p + 1, q, domain))


@st.composite
def exponents(draw, lo=-2, hi=3):
    den = draw(st.integers(1, 4))
    return F(draw(st.integers(lo * den, hi * den)), den)


coeffs = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 2))
term_lists = st.lists(st.tuples(coeffs, exponents(), exponents()),
                      max_size=3)


def build(terms, domain):
    return sum((T(c, p, q, domain) for c, p, q in terms),
               RadialFunction.zero(domain))


@st.composite
def insertions(draw, f, count=(1, 3), anywhere=True):
    """Relations to add to f: at random exponents, or at a stored term
    (p, q) as the relation at (p, q - 1) or (p - 1, q), which keeps the sum
    within a factor t of f at both ends; a stored term may cancel.  Only
    the latter when ``anywhere`` is false, so that a sampled positivity
    check sees no float cancellation far above f."""
    out = []
    for _ in range(draw(st.integers(*count))):
        if f.terms and (not anywhere or draw(st.booleans())):
            (p, q), c = draw(st.sampled_from(sorted(f.terms.items())))
            p, q = draw(st.sampled_from(((p, q - 1), (p - 1, q))))
            c = draw(st.sampled_from((-c, c, 2 * c)))
        else:
            c, p, q = draw(coeffs), draw(exponents()), draw(exponents())
        out.append(relation(c, p, q, f.domain))
    return sum(out, RadialFunction.zero(f.domain))


def positive(terms):
    return [(abs(c), p, q) for c, p, q in terms]


@given(term_lists, domains, st.data())
@settings(max_examples=60, deadline=None)
def test_leading_and_limit_read_the_function(terms, domain, data):
    f = build(terms, domain)
    zero = data.draw(insertions(f))
    g = f + zero
    for end in ("zero", "far"):
        assert zero.leading(end) == (math.inf, 0)
        assert zero.limit(end) == 0
        assert g.leading(end) == f.leading(end)
        assert g.limit(end) == f.limit(end)
    assert g.is_continuous() == f.is_continuous()


@given(term_lists.filter(bool), domains, st.data())
@settings(max_examples=30, deadline=None)
def test_completeness_and_structure_values_read_the_function(terms, domain,
                                                             data):
    prof = build(positive(terms), domain)
    other = Weight(data.draw(st.sampled_from((
        T(1, 1, 0, domain), T(2, 2, -1, domain), T(1, F(1, 2), 1, domain)))))
    w = Weight(prof)
    w2 = Weight(prof + data.draw(insertions(prof, (1, 2), anywhere=False)))
    assert all(w2.profile.leading(end)[0] == w.profile.leading(end)[0]
               for end in ("zero", "far"))
    assert completeness_check(w2) == completeness_check(w)
    for written, rewritten in (((w, other), (w2, other)),
                               ((other, w), (other, w2))):
        want, got = (structure_function(*pair)
                     for pair in (written, rewritten))
        assert (got.value_at_zero, got.value_at_far) == \
            (want.value_at_zero, want.value_at_far)


@given(coeffs, exponents(), exponents(), domains, st.data())
@settings(max_examples=40, deadline=None)
def test_one_term_weight_is_stored_as_that_term(c, p, q, domain, data):
    f = T(abs(c), p, q, domain)
    w = Weight(f)
    w2 = Weight(f + data.draw(insertions(f, anywhere=False)))
    assert w2.profile == w.profile  # structurally, not only as functions
    assert Flow(w2, require_complete=False).mode == \
        Flow(w, require_complete=False).mode
    psi = Weight(T(1, F(1, 2), 1, domain))

    def lie(phi):
        return DiffOp("raw", {(2, 0): 1}, phi, psi).to_lie()

    assert lie(w2) == lie(w)
    for pair, pair2 in (((psi, w), (psi, w2)), ((w, psi), (w2, psi))):
        assert structure_function(*pair2).ring == \
            structure_function(*pair).ring


def test_b_weight_written_as_a_difference_has_a_lie_form():
    # t(1+t) - t^2 = t: X^2 over it has the exact lie form of X^2 over t
    phi, psi = Weight(T(1, 1, 1) - T(1, 2, 0)), Weight(T(1, 1))
    op = DiffOp("raw", {(2, 0): 1}, phi, psi).to_lie()
    assert op == DiffOp("raw", {(2, 0): 1}, Weight(T(1, 1)), psi).to_lie()
    assert phi.profile == T(1, 1)


#: weights, on their domain; t^(3/2) only at finite order, because its
#: infinite-order runs go to the 64-step cap, which takes seconds
WEIGHTS = [Weight(T(1, 1)), Weight(T(1, 2, -1)), Weight(T(1, 0, 1)),
           Weight(T(1, 1, 1, UNIT_INTERVAL)),
           Weight(T(1, 0, 1, UNIT_INTERVAL))]
T_3_2 = Weight(T(1, F(3, 2)))


def verdict(res):
    return res.is_member, res.decided, res.member_up_to, res.failure_order


@given(st.lists(st.tuples(coeffs, exponents(-1, 2), exponents(-1, 2)),
                min_size=1, max_size=2),
       st.sampled_from(WEIGHTS + [T_3_2]), st.data())
@settings(max_examples=40, deadline=None)
def test_membership_verdicts_read_the_function(terms, phi, data):
    f = build(terms, phi.domain)
    g = f + data.draw(insertions(f, (1, 1)))
    for n in (3, math.inf) if phi is not T_3_2 else (3,):
        assert verdict(membership_order(g, phi, n)) == \
            verdict(membership_order(f, phi, n))


def test_zero_function_is_a_member_at_once():
    # over t^(3/2) the exponent-shift test never applies, so only reading
    # the iterate as the zero function decides it before the cap
    zero = relation(1, F(1, 3), F(-2, 7), HALF_LINE)
    res = membership_order(zero, T_3_2, math.inf)
    assert (res.is_member, res.decided, res.member_up_to) == \
        (True, True, MEMBERSHIP_CAP)


def accepted(n, gamma, gamma_prime, V):
    try:
        prob = SchrodingerProblem(n, gamma, gamma_prime, V)
    except PreconditionError as exc:
        return str(exc)
    return prob.V.leading("zero"), prob.V.leading("far")


@given(term_lists, exponents(), exponents(), st.data())
@settings(max_examples=40, deadline=None)
def test_schrodinger_acceptance_reads_the_function(terms, gamma, gamma_prime,
                                                   data):
    V = build(terms, HALF_LINE)
    if data.draw(st.booleans()) and not V.is_zero:  # the consistent case
        gamma = -V.leading("zero")[0] / 2
        gamma_prime = -V.leading("far")[0] / 2
    W = V + data.draw(insertions(V))
    assert accepted(3, gamma, gamma_prime, W) == \
        accepted(3, gamma, gamma_prime, V)


def test_zero_profile_rejected_however_written():
    for domain in (HALF_LINE, UNIT_INTERVAL):
        for prof in (RadialFunction.zero(domain), relation(1, 0, 0, domain),
                     relation(2, F(1, 3), F(-2, 7), domain)
                     + relation(-1, 1, 0, domain)):
            with pytest.raises(PreconditionError, match="zero profile"):
                Weight(prof)


# -- sympy 1.14 as the oracle at t = 0, on exponents over 3 and 7 ------------

t = sympy.Symbol("t", positive=True)

#: (terms (c, p, q), domain): non-dyadic sums whose first terms cancel
ORACLE_CASES = [
    ([(1, F(1, 3), F(1, 7)), (-1, F(1, 3), 0)], HALF_LINE),
    ([(1, 0, F(1, 3)), (-1, 0, F(1, 7))], HALF_LINE),
    ([(1, 0, F(1, 3)), (-1, 0, 0), (F(-1, 3), 1, 0)], HALF_LINE),
    ([(1, F(-2, 7), F(3, 7)), (-1, F(-2, 7), F(-4, 7)),
      (-1, F(5, 7), F(-4, 7)), (2, F(4, 3), F(2, 3))], HALF_LINE),
    ([(1, F(2, 7), F(1, 3)), (-1, F(2, 7), F(-2, 3))], UNIT_INTERVAL),
    ([(3, F(-1, 3), F(2, 7)), (-3, F(-1, 3), F(-5, 7)),
      (3, F(2, 3), F(-5, 7))], UNIT_INTERVAL),
]


def as_sympy(terms, domain):
    base = 1 + t if domain == HALF_LINE else 1 - t
    return sum(sympy.Rational(c) * t ** sympy.Rational(p)
               * base ** sympy.Rational(q) for c, p, q in terms)


@pytest.mark.parametrize("terms, domain", ORACLE_CASES)
def test_leading_at_zero_matches_sympy(terms, domain):
    e, c = build(terms, domain).leading("zero")
    expr = as_sympy(terms, domain)
    if e == math.inf:
        assert sympy.simplify(expr) == 0
        return
    assert sympy.limit(expr / t ** sympy.Rational(e), t, 0) == \
        sympy.Rational(c) != 0
