"""Exact finite power sums with real exponents on compactified 1D domains.

Functions are finite sums  sum_m c_m t^{p_m} (1+t)^{q_m}  on [0, inf]
(half-line basis) or  sum_m c_m t^{p_m} (1-t)^{q_m}  on [0, 1] (unit-interval
basis).  Every exponent is an exact ``Fraction``: rationals as written, floats
at their exact binary value, so equal exponents merge and cancellation is
exact.  A coefficient is exact (an int or a ``Fraction``), a float or a
complex; the exact ones stay exact under every operation, and where one meets
a float or a complex it is read as ``Fraction`` arithmetic reads it.  The
class is closed under addition, multiplication and d/dt.

The basis is not independent (t^p (1+t)^(q+1) = t^p (1+t)^q + t^(p+1)
(1+t)^q), so ``leading(end)`` is the one endpoint reading, for the function
and not its terms; ``limit`` and ``one_term`` (the one term a sum equals,
if any) read it.  ``is_zero`` and ``==`` stay structural: the ring axioms
hold term by term, so hot paths need no series.  This module also owns the
geometry of the two domains: the flow coordinate u of the b-weight, in
which every numeric reading of a function is evaluated.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add, mul, truediv
from types import MappingProxyType

import numpy as np

from .errors import EndpointEvalError, ExponentError, PreconditionError

HALF_LINE = "half_line"       # basis t^p (1+t)^q on [0, inf]
UNIT_INTERVAL = "unit_interval"  # basis t^p (1-t)^q on [0, 1]

#: relative threshold below which an aggregated float coefficient counts as zero
COEFF_REL_TOL = 1e-12


def as_exponent(x):
    """Normalize an exponent to an exact Fraction: ints, Fractions and
    strings as written, a finite float at its exact binary value (no
    guessing of intent, so 0.1 is 3602879701896397/36028797018963968).

    nan and +/-inf raise ExponentError: endpoint limits walk the exponents
    in integer steps and would never terminate on them.
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a valid exponent")
    if isinstance(x, (int, Fraction, str)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ExponentError(f"exponent must be finite, got {x!r}")
        return Fraction(x)
    raise TypeError(f"unsupported exponent type: {type(x)!r}")


def _ratio(c):
    """A coefficient as stored, (n, d): an int or a Fraction as n/d in lowest
    terms, a float or a complex as (c, 1), a complex with no imaginary part
    as its real part.  A float or complex subclass, such as a numpy scalar,
    is stored as the plain float or complex of the same value."""
    if isinstance(c, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    if isinstance(c, float):
        return float(c), 1
    if isinstance(c, complex):
        c = complex(c)
        return (c.real if c.imag == 0.0 else c), 1
    raise TypeError(f"unsupported coefficient type: {type(c)!r}")


class RadialFunction:
    """A finite real-exponent power sum, exact under ring operations.

    ``terms`` maps (p, q) exponent pairs to nonzero coefficients.  The
    exponents are stored as integers (Dp, Dq) over one denominator D per
    function, and the exact coefficients as integers over one coefficient
    denominator, divided by their gcd after every operation, so ring
    operations add, multiply and hash ints and equal functions store equal
    numerators.  Float and complex coefficients are stored as they are.
    Instances are immutable by convention; every operation returns a fresh
    object.
    """

    __slots__ = ("domain", "_terms", "_den", "_cden", "_floats", "_key")

    def __init__(self, terms=None, domain=HALF_LINE):
        _wrap(*_stored(dict(terms or {}).items(), domain), out=self)

    def __setattr__(self, name, value):
        raise AttributeError("RadialFunction is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def term(cls, coeff, p, q=0, domain=HALF_LINE):
        return _wrap(*_stored([((p, q), coeff)], domain))

    @classmethod
    def const(cls, c, domain=HALF_LINE):
        return cls.term(c, 0, 0, domain=domain)

    @classmethod
    def zero(cls, domain=HALF_LINE):
        return _wrap(*_stored((), domain))

    # -- basic predicates -------------------------------------------------

    @property
    def terms(self):
        """The terms as a read-only mapping {(p, q): c}, Fraction exponents."""
        d, cden = self._den, self._cden
        return MappingProxyType({
            (Fraction(P, d), Fraction(Q, d)): _read(c, cden)
            for (P, Q), c in self._terms.items()})

    def key(self):
        """The exact value as a hashable set, formed once: the domain and the
        frozen set of the ``terms`` items, equal for equal functions."""
        if not hasattr(self, "_key"):
            object.__setattr__(self, "_key", (self.domain,
                                              frozenset(self.terms.items())))
        return self._key

    @property
    def is_zero(self):
        return not self._terms

    @property
    def is_single_term(self):
        return len(self._terms) == 1

    @property
    def has_positive_coefficients(self):
        """True iff every coefficient is real and positive, read from the
        stored numerators, whose denominator is positive."""
        return all(type(c) is not complex and c > 0
                   for c in self._terms.values())

    def _require_same_domain(self, other):
        if self.domain != other.domain:
            raise PreconditionError(
                f"domain mismatch: {self.domain} vs {other.domain}")

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RadialFunction):
            if not isinstance(other, (int, float, Fraction, complex)):
                return NotImplemented
            other = RadialFunction.const(other, domain=self.domain)
        self._require_same_domain(other)
        a, b, den = _common(self, other)
        d1, d2 = self._cden, other._cden
        cden = d1 if d1 == d2 else math.lcm(d1, d2)
        return _wrap(_collect(_scaled(a, cden // d1), (
            b if d2 == cden else _scaled(b, cden // d2)).items(), cden),
            den, cden, self.domain)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({k: -c for k, c in self._terms.items()}, self._den,
                     self._cden, self.domain)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RadialFunction) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RadialFunction):
            self._require_same_domain(other)
            a, b, den = (self._terms, other._terms, self._den) \
                if self._den == other._den else _common(self, other)
            d2 = other._cden
        elif isinstance(other, (int, float, Fraction, complex)):
            s, d2 = _ratio(other)  # an inf coefficient times 0 stays 0
            a, b, den = self._terms, {(0, 0): s} if s != 0 else {}, self._den
        else:
            return NotImplemented
        d1 = self._cden
        cden, merged = d1 * d2, {}
        get = merged.get
        for (P1, Q1), c1 in a.items():
            exact = type(c1) is int
            for (P2, Q2), c2 in b.items():
                c = c1 * c2 if (type(c2) is int) == exact else \
                    _mixed(c1, d1, c2, d2, mul)
                if c == 0:
                    continue
                key = P1 + P2, Q1 + Q2
                old = get(key)
                if old is not None:
                    c = old + c if (type(old) is int) == (type(c) is int) \
                        else _mixed(old, cden, c, cden, add)
                    if c == 0:
                        del merged[key]
                        continue
                merged[key] = c
        return _wrap(merged, den, cden, self.domain)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = self if n else RadialFunction.const(1, domain=self.domain)
        for _ in range(n - 1):
            out = out * self
        return out

    def divide_term(self, other):
        """Exact quotient by a single-term function (subtract exponents)."""
        self._require_same_domain(other)
        if not other.is_single_term:
            raise ValueError("divisor must be a single term")
        a, b, den = _common(self, other)
        ((P0, Q0), c0), = b.items()
        d, d0 = self._cden, other._cden
        exact = type(c0) is int  # then c/d : c0/d0 is c d0 sgn(c0) / d |c0|
        k, cden = (d0 if c0 > 0 else -d0, d * abs(c0)) if exact else (1, d)
        merged = {}
        for (P, Q), c in a.items():  # distinct keys: only a 0 is dropped
            c = c * k if exact and type(c) is int else \
                _mixed(c, d, c0, d0, truediv)
            if c != 0:
                merged[P - P0, Q - Q0] = c
        return _wrap(merged, den, cden, self.domain)

    def derivative(self):
        """Exact d/dt in the ring."""
        sign = 1 if self.domain == HALF_LINE else -1
        den, d = self._den, self._cden
        pairs = []
        for (P, Q), c in self._terms.items():  # (P/den) c and sign (Q/den) c
            for key, n in (((P - den, Q), P), ((P, Q - den), sign * Q)):
                if n:
                    pairs.append((key, n * c if type(c) is int else
                                  _mixed(n, den, c, d, mul)))
        return _wrap(_collect({}, pairs, den * d), den, den * d, self.domain)

    # -- coordinate changes ----------------------------------------------

    def invert(self):
        """The function t -> f(1/t), again in the half-line basis.

        t^p (1+t)^q at 1/r equals r^{-(p+q)} (1+r)^q, so this stays exact.
        """
        if self.domain != HALF_LINE:
            raise PreconditionError("invert is a half-line operation")
        return _wrap({(-(P + Q), Q): c for (P, Q), c in self._terms.items()},
                     self._den, self._cden, HALF_LINE)

    def flip(self):
        """The function t -> f(1-t) on the unit interval (swap the basis
        factors)."""
        if self.domain != UNIT_INTERVAL:
            raise PreconditionError("flip is a unit-interval operation")
        return _wrap({(Q, P): c for (P, Q), c in self._terms.items()},
                     self._den, self._cden, UNIT_INTERVAL)

    # -- endpoint readings ------------------------------------------------

    def leading(self, end):
        """(e, c): the exponent and coefficient of the first term of the
        series at ``end`` that does not cancel, so f ~ c t^e as t -> 0 for
        'zero', and for 'far' f ~ c t^-e as t -> inf, f ~ c (1-t)^e as
        t -> 1.  (inf, 0) for the zero function, however it is written."""
        E, c = _walk(self, end, math.inf)
        return (E, c) if E == math.inf else (Fraction(E, self._den), c)

    def one_term(self):
        """The single term c t^a (1 +/- t)^b that f equals as a function, or
        f itself when none does; zero() when f is zero as a function.  a
        and c are read at 0, b at the far end, and f - term must vanish."""
        if len(self._terms) < 2:
            return self
        (a, c), e = self.leading("zero"), self.leading("far")[0]
        if a == math.inf:
            return RadialFunction.zero(self.domain)
        term = RadialFunction.term(
            c, a, -e - a if self.domain == HALF_LINE else e, self.domain)
        return term if (self - term).leading("zero")[0] == math.inf else self

    def limit(self, end):
        """Endpoint limit: ``end`` is 'zero' or 'far'.  Returns a finite
        value or +/-inf."""
        E, c = _walk(self, end, 0)
        if E < 0:
            s = c.real if isinstance(c, complex) else c
            return math.inf if s > 0 else -math.inf
        return c if E == 0 else Fraction(0)

    def is_continuous(self):
        """True iff both endpoint limits are finite, i.e. the function
        extends continuously to the compactified domain."""
        return all(self.limit(end) not in (math.inf, -math.inf)
                   for end in ("zero", "far"))

    def __call__(self, t):
        """Floating evaluation, not exact, at strictly interior points: t is a
        float or a numpy array, and the result has its shape."""
        far = math.inf if self.domain == HALF_LINE else 1.0
        interior = (t > 0.0) & (t < far)
        if not (interior.all() if isinstance(t, np.ndarray) else interior):
            raise EndpointEvalError(f"t={t} is not interior; use limit()")
        return self.at_u(to_u(self.domain, t))

    def at_u(self, u):
        """The value at t = from_u(domain, u) for a float or a numpy array u:
        the sum of c exp(p ln t + q ln(1 -/+ t)), both logarithms taken from
        u.  So 1 - t keeps its digits where t rounds to 1, and a term is inf
        only where it leaves the float range itself.  Floats stay in
        ``math``: numpy on a single float is several times slower."""
        xp = np if isinstance(u, np.ndarray) else math
        ln_t, ln_base = _logs(self.domain, u, xp)
        floats = self._float_terms()
        if xp is math:
            total = 0.0
            for p, q, c in floats:
                total = total + c * _exp(p * ln_t + q * ln_base)
            if total != total:  # inf - inf, which the array path resolves
                total = self.at_u(np.array([u]))[0].item()
            return total
        total = np.zeros(u.shape)
        with np.errstate(invalid="ignore"):
            for p, q, c in floats:
                total = total + c * _exp(p * ln_t + q * ln_base)
        nan = np.isnan(total)
        if nan.any():  # inf - inf: the term with the largest exponent decides
            lead = np.argmax([p * ln_t[nan] + q * ln_base[nan]
                              for p, q, _ in floats], axis=0)
            total[nan] = np.array([c for *_, c in floats])[lead] * np.inf
        return total

    def at_u_error(self, u):
        """A bound on the rounding error of ``at_u(u)`` relative to
        |at_u(u)|, for a numpy array u that is itself rounded: a term c e^E,
        E = p ln t + q ln(1 -/+ t), is off by |c| e^E (1 + |p| (|ln t| + |u|)
        + |q| (|ln(1 -/+ t)| + |u|)) units of 2^-53, because E is rounded
        before ``exp`` and u's own rounding by |u| 2^-53 moves both
        logarithms by at most that much.  Both sums are taken relative to
        the largest e^E at each point, so neither overflows."""
        ln_t, ln_base = _logs(self.domain, u, np)
        E = [p * ln_t + q * ln_base for p, q, _ in self._float_terms()]
        top = np.max(E, axis=0)
        value = bound = np.zeros(u.shape)
        for (p, q, c), e in zip(self._float_terms(), E):
            digits = 1.0 + abs(p) * (abs(ln_t) + abs(u)) \
                + abs(q) * (abs(ln_base) + abs(u))
            scale = np.exp(e - top)
            value = value + c * scale
            bound = bound + abs(c) * scale * digits
        return bound / abs(value) * 2.0 ** -53

    def _float_terms(self):
        """(p, q, c) per term as floats, converted once."""
        try:
            return self._floats
        except AttributeError:
            d = self._cden
            floats = tuple((P / self._den, Q / self._den,
                            _to_float(c, d) if type(c) is int else
                            c if isinstance(c, complex) else float(c))
                           for (P, Q), c in self._terms.items())
            object.__setattr__(self, "_floats", floats)
            return floats

    # -- comparison and display ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RadialFunction):
            return NotImplemented
        a, b, _ = _common(self, other)
        d, e = self._cden, other._cden
        return self.domain == other.domain and a.keys() == b.keys() and all(
            x * e == y * d if type(x) is type(y) is int else
            x is y or _read(x, d) == _read(y, e)
            for x, y in zip(a.values(), map(b.__getitem__, a)))

    __hash__ = None

    def __repr__(self):
        return f"RadialFunction({self.to_text()!r})"

    # -- serialization ----------------------------------------------------

    def to_text(self):
        """One ``coeff * t^p * (1+t)^q`` triple per line; exponents
        print exactly."""
        if self.is_zero:
            return "0"
        factor = "(1+t)" if self.domain == HALF_LINE else "(1-t)"
        lines = []
        for P, Q in sorted(self._terms):
            c = _read(self._terms[P, Q], self._cden)
            lines.append(f"{_num_to_text(c)} * t^{Fraction(P, self._den)}"
                         f" * {factor}^{Fraction(Q, self._den)}")
        return "\n".join(lines)


#: the slots' own setters, which skip the immutable ``__setattr__``
_set_domain, _set_terms, _set_den, _set_cden = (
    RadialFunction.__dict__[name].__set__
    for name in ("domain", "_terms", "_den", "_cden"))


# -- the flow coordinate u of the b-weight ----------------------------------
# u = ln t on the half-line and logit t on the unit interval; both map the
# interior onto the real line, and the b-weight t resp. t(1-t) flows by
# translation in u.


def b_weight(domain):
    """The b-weight: t on the half-line, t(1-t) on the unit interval."""
    return RadialFunction.term(1, 1, 0 if domain == HALF_LINE else 1,
                               domain=domain)


def to_u(domain, t):
    """u = ln t on the half-line, logit t on [0, 1]; t a float or an array."""
    log = np.log if isinstance(t, np.ndarray) else math.log
    if domain == HALF_LINE:
        return log(t)
    return log(t / (1.0 - t))


def from_u(domain, u):
    """Inverse of to_u for a float or a numpy array u; u = -inf, u = inf and
    any u whose t lies past the float range give the endpoints."""
    if domain == HALF_LINE:
        return _exp(u)
    return 1.0 / (1.0 + _exp(-u))


def shift_u(domain, x, v):
    """from_u(to_u(x) + v): the flow of the b-weight for time v."""
    try:
        if domain == HALF_LINE:
            return math.exp(v) * x
        return x / (x + (1.0 - x) * math.exp(-v))
    except OverflowError:  # e^|v| alone leaves the float range
        return from_u(domain, to_u(domain, x) + v)


def _exp(u):
    """e^u for a float or an array u; inf where that leaves the float range."""
    if isinstance(u, np.ndarray):
        with np.errstate(over="ignore"):
            return np.exp(u)
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def _logs(domain, u, xp):
    """(ln t, ln(1 -/+ t)) at t = from_u(domain, u), both from u, with xp
    ``math`` for a float u and ``np`` for an array."""
    pos = (u + abs(u)) / 2  # max(u, 0), and max(-u, 0) = pos - u
    tail = xp.log1p(xp.exp(-abs(u)))  # ln(1 + e^u) = max(u, 0) + tail
    if domain == HALF_LINE:
        return u, pos + tail
    # ln t = -ln(1 + e^-u), ln(1 - t) = -ln(1 + e^u)
    return u - pos - tail, -pos - tail


# -- internals ------------------------------------------------------------

def _read(c, d):
    """A stored coefficient as the ring reads it: Fraction(c, d) for an exact
    numerator c over d, c itself for a float or a complex."""
    return Fraction(c, d) if type(c) is int else c


def _to_float(c, d):
    """The exact numerator c over d as a float, +-inf past the float range."""
    try:
        return c / d
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def _mixed(x, dx, y, dy, op):
    """x op y of stored coefficients x over dx and y over dy, as Fraction
    mixes them: an exact n over d enters as n / d, or complex(n / d) against
    a complex, and on the right it makes a left x float(x) or complex(x)."""
    if type(x) is int:
        return op(complex(x / dx) if isinstance(y, complex) else x / dx, y)
    if type(y) is int:
        if isinstance(x, complex):
            return op(complex(x), complex(y / dy))
        return op(float(x), y / dy)
    return op(x, y)


def _collect(merged, pairs, d):
    """merged with each (key, c) of pairs added in order, every stored
    coefficient kept nonzero; the exact numerators are over d.  (The ring's
    product runs this loop inline.)"""
    get = merged.get
    for key, c in pairs:
        if c == 0:
            continue
        old = get(key)
        if old is not None:
            c = old + c if (type(old) is int) == (type(c) is int) else \
                _mixed(old, d, c, d, add)
            if c == 0:
                del merged[key]
                continue
        merged[key] = c
    return merged


def _stored(pairs, domain):
    """Stored fields (terms {(P, Q): c}, D, coefficient denominator, domain)
    of ((p, q), c) pairs."""
    if domain not in (HALF_LINE, UNIT_INTERVAL):
        raise ValueError(f"unknown domain {domain!r}")
    items = [(_exponent(p), _exponent(q), *_ratio(c)) for (p, q), c in pairs]
    den = math.lcm(*(x.denominator for p, q, *_ in items for x in (p, q)))
    cden = math.lcm(*(d for *_, d in items))
    merged = _collect({}, (((p.numerator * (den // p.denominator),
                             q.numerator * (den // q.denominator)),
                            n * (cden // d) if type(n) is int else n)
                           for p, q, n, d in items), cden)
    return merged, den, cden, domain


def _exponent(x):
    """as_exponent(x), with an int or a Fraction taken as it is."""
    return x if type(x) in (int, Fraction) else as_exponent(x)


def _wrap(terms, den, cden, domain, out=None):
    """A new function with these stored fields, or ``out`` given them; the
    exact numerators and their denominator cden are divided by their gcd."""
    if cden != 1:
        ints = [c for c in terms.values() if type(c) is int]
        g = math.gcd(cden, *ints)
        if ints and g != 1:
            terms = {k: c // g if type(c) is int else c
                     for k, c in terms.items()}
        cden //= g
    out = RadialFunction.__new__(RadialFunction) if out is None else out
    _set_domain(out, domain)
    _set_terms(out, terms)
    _set_den(out, den)
    _set_cden(out, cden)
    return out


def _common(f, g):
    """The terms of f and g over their common denominator, and that."""
    if f._den == g._den:
        return f._terms, g._terms, f._den
    den = math.lcm(f._den, g._den)
    return _rescaled(f, den), _rescaled(g, den), den


def _rescaled(f, den):
    k = den // f._den
    return f._terms if k == 1 else \
        {(P * k, Q * k): c for (P, Q), c in f._terms.items()}


def _scaled(terms, k):
    """A copy of the terms with each exact numerator times k."""
    return dict(terms) if k == 1 else \
        {key: c * k if type(c) is int else c for key, c in terms.items()}


def _walk(f, end, stop):
    """(D e, c) of f.leading(end) among the exponents e <= stop, for the
    denominator D of f; (inf, 0) past them.

    The far end is t = 0 of f(1/t) resp. f(1-t).  There a term
    c t^p (1 +/- t)^q contributes c binom(q, k) (+/-1)^k at the exponent
    p + k, k = 0, 1, ...; the ladders are merged lazily in increasing order,
    each carrying its binomial, and the first total that does not cancel
    decides.  For n terms with p in p_lo..p_hi none survives past
    p_lo + n (p_hi - p_lo + 1) - 1 unless f is zero: in one class of p mod 1
    the sum is t^a times at most that many distinct (1 +/- t)^g, whose
    Taylor coefficients binom(g, j) row-reduce to a Vandermonde matrix.

    A rung of exact coefficients sums integer numerators over one common
    denominator and builds one Fraction, the total it returns.  A rung with
    a float or a complex coefficient sums Fraction products from
    Fraction(0) in the order of the terms, as Fraction arithmetic mixes
    them, and skips a total within float noise of 0.
    """
    if end == "far":
        f = f.invert() if f.domain == HALF_LINE else f.flip()
    elif end != "zero":
        raise ValueError(f"unknown endpoint {end!r}")
    den, cden = f._den, f._cden
    if len(f._terms) < 2:  # no term to cancel: the first rung decides
        for (P, _), c in f._terms.items():
            if P <= stop * den:
                return P, _read(c, cden)
        return math.inf, 0
    sign = 1 if f.domain == HALF_LINE else -1
    lo, hi = min(P for P, _ in f._terms), max(P for P, _ in f._terms)
    stop = min(stop * den, lo + len(f._terms) * (hi - lo + den) - den)
    rungs = [(P, i) for i, (P, _) in enumerate(f._terms)]  # (D e, term)
    # c over cden, q as (Q, D), k, binom(q, k) (+/-1)^k as (n, d)
    ladder = [(c, (Q, den), 0, (1, 1)) for (_, Q), c in f._terms.items()]
    heapq.heapify(rungs)
    while rungs and rungs[0][0] <= stop:
        e = rungs[0][0]
        rung = []
        while rungs and rungs[0][0] == e:
            _, i = heapq.heappop(rungs)
            c, q, k, b = ladder[i]
            if k:
                n, d = _binomial_step(b, q, k - 1)
                if not n:  # q is an integer below k: the ladder has ended
                    continue
                b = sign * n, d
            rung.append((c, *b))
            ladder[i] = (c, q, k + 1, b)
            heapq.heappush(rungs, (e + den, i))
        if all(type(c) is int for c, _, _ in rung):
            common = math.lcm(*(d for _, _, d in rung))
            total = sum(c * n * (common // d) for c, n, d in rung)
            if total:
                return e, Fraction(total, common * cden)
            continue
        contribs = [_read(c, cden) * Fraction(n, d) for c, n, d in rung]
        total = sum(contribs, Fraction(0))
        if total == 0 or abs(complex(total)) <= \
                COEFF_REL_TOL * max(abs(complex(c)) for c in contribs):
            continue
        return e, total
    return math.inf, 0


def _binomial_step(b, q, k):
    """binom(q, k + 1) from b = binom(q, k), for q = Q / D: b and the
    result are pairs (n, d) of ints in lowest terms, q is the pair (Q, D)."""
    (n, d), (Q, D) = b, q
    n, d = n * (Q - k * D), d * D * (k + 1)
    g = math.gcd(n, d)
    return n // g, d // g


def _num_to_text(x):
    if isinstance(x, Fraction):
        return str(x)  # "3/2" or "-2"
    if isinstance(x, complex):
        return f"({x.real!r}{x.imag:+}j)"
    return repr(x)
