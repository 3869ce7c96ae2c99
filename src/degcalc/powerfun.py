"""Exact finite power sums with real exponents on compactified 1D domains.

Functions are finite sums  sum_m c_m t^{p_m} (1+t)^{q_m}  on [0, inf]
(half-line basis) or  sum_m c_m t^{p_m} (1-t)^{q_m}  on [0, 1] (unit-interval
basis).  Every exponent is an exact ``Fraction``: rationals as written, floats
at their exact binary value, so equal exponents merge and cancellation is
exact.  The class is closed under addition, multiplication and d/dt, and
endpoint limits are decided exactly from the exponents.  This module also
owns the geometry of the two domains: the flow coordinate u of the b-weight,
in which every numeric reading of a function is evaluated.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from fractions import Fraction

import numpy as np

from .errors import DomainMismatchError, EndpointEvalError, ExponentError

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


def as_coefficient(c):
    if isinstance(c, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    if isinstance(c, float):
        return c
    if isinstance(c, complex):
        return c.real if c.imag == 0.0 else c
    raise TypeError(f"unsupported coefficient type: {type(c)!r}")


def _coeff_is_zero(c):
    return c == 0


def generalized_binomial(q, k):
    """binom(q, k), exactly, for a rational q and an integer k >= 0."""
    num = Fraction(1)
    for i in range(k):
        num = num * (q - i)
    return num / math.factorial(k)


class RadialFunction:
    """A finite real-exponent power sum, exact under ring operations.

    ``terms`` maps (p, q) exponent pairs to nonzero coefficients.  Instances
    are immutable by convention; every operation returns a fresh object.
    """

    __slots__ = ("domain", "terms", "_floats")

    def __init__(self, terms=None, domain=HALF_LINE):
        if domain not in (HALF_LINE, UNIT_INTERVAL):
            raise ValueError(f"unknown domain {domain!r}")
        object.__setattr__(self, "domain", domain)
        merged = {}
        if terms:
            for (p, q), c in dict(terms).items():
                _accumulate(merged, as_exponent(p), as_exponent(q),
                            as_coefficient(c))
        object.__setattr__(self, "terms", merged)

    def __setattr__(self, name, value):
        raise AttributeError("RadialFunction is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def term(cls, coeff, p, q=0, domain=HALF_LINE):
        return cls({(as_exponent(p), as_exponent(q)): coeff}, domain=domain)

    @classmethod
    def const(cls, c, domain=HALF_LINE):
        return cls.term(c, 0, 0, domain=domain)

    @classmethod
    def zero(cls, domain=HALF_LINE):
        return cls({}, domain=domain)

    @classmethod
    def t_power(cls, p, domain=HALF_LINE):
        return cls.term(1, p, 0, domain=domain)

    # -- basic predicates -------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_single_term(self):
        return len(self.terms) == 1

    def _require_same_domain(self, other):
        if self.domain != other.domain:
            raise DomainMismatchError(
                f"domain mismatch: {self.domain} vs {other.domain}")

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, Fraction, complex)):
            other = RadialFunction.const(other, domain=self.domain)
        if not isinstance(other, RadialFunction):
            return NotImplemented
        self._require_same_domain(other)
        merged = dict(self.terms)
        for (p, q), c in other.terms.items():
            _accumulate(merged, p, q, c)
        return _wrap(merged, self.domain)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({k: -c for k, c in self.terms.items()}, self.domain)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RadialFunction) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction, complex)):
            other = as_coefficient(other)
            if _coeff_is_zero(other):
                return RadialFunction.zero(self.domain)
            return _wrap({k: c * other for k, c in self.terms.items()},
                         self.domain)
        if not isinstance(other, RadialFunction):
            return NotImplemented
        self._require_same_domain(other)
        merged = {}
        for (p1, q1), c1 in self.terms.items():
            for (p2, q2), c2 in other.terms.items():
                _accumulate(merged, p1 + p2, q1 + q2, c1 * c2)
        return _wrap(merged, self.domain)

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
        ((p0, q0), c0), = other.terms.items()
        merged = {}
        for (p, q), c in self.terms.items():
            _accumulate(merged, p - p0, q - q0, c / c0)
        return _wrap(merged, self.domain)

    def derivative(self):
        """Exact d/dt in the ring."""
        sign = 1 if self.domain == HALF_LINE else -1
        merged = {}
        for (p, q), c in self.terms.items():
            if not _coeff_is_zero(p * c):
                _accumulate(merged, p - 1, q, p * c)
            if not _coeff_is_zero(q * c):
                _accumulate(merged, p, q - 1, sign * q * c)
        return _wrap(merged, self.domain)

    # -- coordinate changes ----------------------------------------------

    def invert(self):
        """The function t -> f(1/t), again in the half-line basis.

        t^p (1+t)^q at 1/r equals r^{-(p+q)} (1+r)^q, so this stays exact.
        """
        if self.domain != HALF_LINE:
            raise DomainMismatchError("invert is a half-line operation")
        merged = {}
        for (p, q), c in self.terms.items():
            _accumulate(merged, -(p + q), q, c)
        return _wrap(merged, HALF_LINE)

    def flip(self):
        """The function t -> f(1-t) on the unit interval (swap the basis
        factors)."""
        if self.domain != UNIT_INTERVAL:
            raise DomainMismatchError("flip is a unit-interval operation")
        merged = {}
        for (p, q), c in self.terms.items():
            _accumulate(merged, q, p, c)
        return _wrap(merged, UNIT_INTERVAL)

    # -- exponent data ----------------------------------------------------

    def min_p(self):
        """Leading exponent at t = 0 (+inf for the zero function)."""
        if self.is_zero:
            return math.inf
        return min(self.terms, key=lambda k: k[0])[0]

    def far_exponent(self):
        """Leading exponent at the far endpoint (inf or 1), +inf for the zero
        function.

        For the half-line this is -max(p+q), i.e. positive exponents mean
        decay; for the unit interval it is min q, with the same reading.
        """
        if self.is_zero:
            return math.inf
        if self.domain == HALF_LINE:
            return -max(p + q for (p, q) in self.terms)
        return min(q for (_, q) in self.terms)

    # -- endpoint limits and continuity ----------------------------------

    def limit(self, end):
        """Endpoint limit: ``end`` is 'zero' or 'far'.  Returns a finite
        value or +/-inf."""
        if end == "zero":
            return _series_limit_at_zero(self)
        if end == "far":
            if self.domain == HALF_LINE:
                return _series_limit_at_zero(self.invert())
            return _series_limit_at_zero(self.flip())
        raise ValueError(f"unknown endpoint {end!r}")

    def is_continuous(self):
        """True iff both endpoint limits are finite, i.e. the function
        extends continuously to the compactified domain."""
        for end in ("zero", "far"):
            v = self.limit(end)
            if isinstance(v, complex):
                continue
            if math.isinf(v):
                return False
        return True

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
        pos = (u + abs(u)) / 2  # max(u, 0), and max(-u, 0) = pos - u
        tail = xp.log1p(xp.exp(-abs(u)))  # ln(1 + e^u) = max(u, 0) + tail
        if self.domain == HALF_LINE:
            ln_t, ln_base = u, pos + tail
        else:  # ln t = -ln(1 + e^-u), ln(1 - t) = -ln(1 + e^u)
            ln_t, ln_base = u - pos - tail, -pos - tail
        try:
            floats = self._floats
        except AttributeError:  # the float exponents, converted once
            floats = tuple((float(p), float(q),
                            c if isinstance(c, complex) else float(c))
                           for (p, q), c in self.terms.items())
            object.__setattr__(self, "_floats", floats)
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

    # -- comparison and display ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RadialFunction):
            return NotImplemented
        return self.domain == other.domain and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"RadialFunction({self.to_text()!r})"

    # -- serialization ----------------------------------------------------

    def to_text(self):
        """One ``coeff * t^p * (1+t)^q`` triple per line; exponents
        round-trip exactly."""
        if self.is_zero:
            return "0"
        factor = "(1+t)" if self.domain == HALF_LINE else "(1-t)"
        lines = []
        for p, q in sorted(self.terms):
            c = self.terms[(p, q)]
            lines.append(f"{_num_to_text(c)} * t^{_num_to_text(p)}"
                         f" * {factor}^{_num_to_text(q)}")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text):
        text = text.strip()
        if text == "0" or not text:
            return cls.zero()
        pat = re.compile(
            r"^\s*(?P<c>\S+)\s*\*\s*t\^(?P<p>\S+)\s*\*\s*"
            r"\((?P<factor>1\+t|1-t)\)\^(?P<q>\S+)\s*$")
        terms = {}
        domain = None
        for line in text.splitlines():
            if not line.strip():
                continue
            m = pat.match(line)
            if m is None:
                raise ValueError(f"unparseable term line: {line!r}")
            dom = HALF_LINE if m.group("factor") == "1+t" else UNIT_INTERVAL
            if domain is None:
                domain = dom
            elif domain != dom:
                raise ValueError("mixed basis factors in serialized function")
            p = _num_from_text(m.group("p"))
            q = _num_from_text(m.group("q"))
            c = _num_from_text(m.group("c"))
            _accumulate(terms, as_exponent(p), as_exponent(q),
                        as_coefficient(c))
        return cls(terms, domain=domain or HALF_LINE)


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


# -- internals ------------------------------------------------------------

def _accumulate(merged, p, q, c):
    if _coeff_is_zero(c):
        return
    key = (p, q)
    old = merged.get(key)
    if old is not None:
        c = old + c
        if _coeff_is_zero(c):
            del merged[key]
            return
    merged[key] = c


def _wrap(merged, domain):
    out = RadialFunction.__new__(RadialFunction)
    object.__setattr__(out, "domain", domain)
    object.__setattr__(out, "terms", merged)
    return out


def _series_limit_at_zero(f):
    """Limit of f at t -> 0+ via the generalized power series of the second
    basis factor, exactly.

    A term c t^p (1 +/- t)^q contributes c binom(q, k) (+/-1)^k at each
    exponent e = p + k, k = 0, 1, ...  Only e <= 0 can decide the limit, so
    the ladders p, p+1, ... <= 0 are merged lazily in increasing order and
    the first exponent whose contributions do not cancel decides it.
    """
    sign = 1 if f.domain == HALF_LINE else -1
    ladders = (map(p.__add__, range(math.floor(-p) + 1)) for (p, _) in f.terms)
    for e, _ in itertools.groupby(heapq.merge(*ladders)):
        total = Fraction(0)
        scale = 0.0
        for (p, q), c in f.terms.items():
            k = e - p
            if k < 0 or k.denominator != 1:
                continue
            k = k.numerator
            contrib = c * (generalized_binomial(q, k) * (sign ** k))
            total = total + contrib
            scale = max(scale, abs(complex(contrib)))
        if _coeff_is_zero(total):
            continue
        if not isinstance(total, Fraction) and scale > 0.0 \
                and abs(complex(total)) <= COEFF_REL_TOL * scale:
            continue  # float cancellation noise
        if e < 0:
            s = total.real if isinstance(total, complex) else total
            return math.inf if s > 0 else -math.inf
        return total
    return Fraction(0)


def _num_to_text(x):
    if isinstance(x, Fraction):
        return str(x)  # "3/2" or "-2"
    if isinstance(x, complex):
        return f"({x.real!r}{x.imag:+}j)"
    return repr(x)


def _num_from_text(s):
    s = s.strip()
    if s.startswith("(") and s.endswith("j)"):
        return complex(s[1:-1] + "j")
    if "/" in s or ("." not in s and "e" not in s and "E" not in s):
        return Fraction(s)
    return float(s)
