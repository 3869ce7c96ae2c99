"""A small reference ring for the oracles, independent of degcalc.

Functions on the half-cylinder are dicts mapping (m, p, q) to a coefficient
c, meaning the sum of c t^p (1+t)^q e^{i m theta}, with exact Fraction
exponents.  Coefficients stay exact Fractions until d/dtheta brings in the
factor i m, after which they are complex floats; the checks that use
d/dtheta compare values with a tolerance far above that rounding.  Only
what the checks need is here: sums, products, d/dt, d/dtheta, the weighted
fields X = phi d/dt and Y = psi d/dtheta, and evaluation (mpmath where
cancellation needs it).
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import mpmath


def _coeff(c):
    return c if isinstance(c, complex) else Fraction(c)


def _put(out, key, c):
    c = out.get(key, 0) + c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def term(coeff, p, q=0, m=0):
    out = {}
    _put(out, (m, Fraction(p), Fraction(q)), _coeff(coeff))
    return out


def add(f, g, sign=1):
    out = dict(f)
    for key, c in g.items():
        _put(out, key, sign * c)
    return out


def mul(f, g):
    out = {}
    for (m1, p1, q1), a in f.items():
        for (m2, p2, q2), b in g.items():
            _put(out, (m1 + m2, p1 + p2, q1 + q2), a * b)
    return out


def d_t(f):
    out = {}
    for (m, p, q), c in f.items():
        if p:
            _put(out, (m, p - 1, q), p * c)
        if q:
            _put(out, (m, p, q - 1), q * c)
    return out


def d_theta(f):
    out = {}
    for (m, p, q), c in f.items():
        if m:
            _put(out, (m, p, q), 1j * m * c)
    return out


def from_radial(rf, m=0):
    """A degcalc RadialFunction (half-line) as a reference function."""
    out = {}
    for (p, q), c in rf.terms.items():
        _put(out, (m, Fraction(p), Fraction(q)), _coeff(c))
    return out


def from_cylinder(cf):
    out = {}
    for m, rf in cf.modes.items():
        out = add(out, from_radial(rf, m))
    return out


def apply_lie(coeffs, phi, psi, g):
    """sum c_ij X^i Y^j g for coeffs {(i, j): function}."""
    out = {}
    for (i, j), c in coeffs.items():
        h = g
        for _ in range(j):
            h = mul(psi, d_theta(h))
        for _ in range(i):
            h = mul(phi, d_t(h))
        out = add(out, mul(c, h))
    return out


def apply_raw(coeffs, g):
    """sum b_ij d_t^i d_theta^j g for coeffs {(i, j): function}."""
    out = {}
    for (i, j), b in coeffs.items():
        h = g
        for _ in range(j):
            h = d_theta(h)
        for _ in range(i):
            h = d_t(h)
        out = add(out, mul(b, h))
    return out


def _mp(x):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def evaluate(f, t):
    """Value of a real-coefficient, theta-free f at t, in mpmath."""
    value = mpmath.mpf(0)
    for (m, p, q), c in f.items():
        value += _mp(c) * mpmath.power(t, _mp(p)) * mpmath.power(1 + t, _mp(q))
    return value


#: interior sample points (t, theta) for function comparisons
POINTS = ((Fraction(1, 3), Fraction(1, 5)), (Fraction(7, 4), Fraction(2)),
          (Fraction(23, 5), Fraction(-3, 4)))


def _evaluate_float(f, t, theta):
    powers, waves = {}, {}
    value, scale = 0j, 0.0
    for (m, p, q), c in f.items():
        if (p, q) not in powers:
            powers[(p, q)] = t ** float(p) * (1.0 + t) ** float(q)
        if m not in waves:
            waves[m] = cmath.exp(1j * m * theta)
        v = complex(c) * powers[(p, q)] * waves[m]
        value += v
        scale += abs(v)
    return value, scale


def mismatch(f, g, parts=(), points=POINTS):
    """Largest |f - g| over ``points``, relative to the terms' scale: that
    of f, g and of the ``parts`` g was computed from, so a difference that
    cancels to rounding noise is judged against what cancelled.

    Double precision suffices: its rounding is 1e-16 of the scale, and the
    checks look for differences above 1e-12 of it.
    """
    worst = 0.0
    for t, theta in points:
        t, theta = float(t), float(theta)
        a, sa = _evaluate_float(f, t, theta)
        b, sb = _evaluate_float(g, t, theta)
        scale = sa + sb + sum(_evaluate_float(h, t, theta)[1] for h in parts)
        worst = max(worst, abs(a - b) / max(scale, 1e-300))
    return worst


def has_limit(f, end, dps=320):
    """True when f converges at ``end`` ('zero' or 'far').

    Exponents in the checks are multiples of 1/6, so a nonzero power is at
    least t^(1/6) away from a constant: at t = 1e-80 and 1e-40 (or 1e80 and
    1e40) a divergent part differs by orders of magnitude while a
    convergent one changes by less than 1e-6.  The precision covers exact
    cancellation between terms as large as 1e200.
    """
    near, far = ((mpmath.mpf("1e-80"), mpmath.mpf("1e-40")) if end == "zero"
                 else (mpmath.mpf("1e80"), mpmath.mpf("1e40")))
    with mpmath.workdps(dps):
        a, b = evaluate(f, near), evaluate(f, far)
        return abs(a - b) <= mpmath.mpf("1e-5") * (1 + abs(a))
