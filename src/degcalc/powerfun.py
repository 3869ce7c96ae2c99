"""Exact finite power sums with real exponents on compactified 1D domains.

Functions are finite sums  sum_m c_m t^{p_m} (1+t)^{q_m}  on [0, inf]
(half-line basis) or  sum_m c_m t^{p_m} (1-t)^{q_m}  on [0, 1] (unit-interval
basis).  Every exponent is an exact ``Fraction``: rationals as written, floats
at their exact binary value, so equal exponents merge and cancellation is
exact.  The class is closed under addition, multiplication and d/dt.

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
import re
from collections.abc import Mapping
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


class RadialFunction:
    """A finite real-exponent power sum, exact under ring operations.

    ``terms`` maps (p, q) exponent pairs to nonzero coefficients, stored as
    integers (Dp, Dq) over one denominator D per function, so ring operations
    add and hash ints.  Instances are immutable by convention; every
    operation returns a fresh object.
    """

    __slots__ = ("domain", "_terms", "_den", "_floats")

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
        return _Terms(self)

    @property
    def is_zero(self):
        return not self._terms

    @property
    def is_single_term(self):
        return len(self._terms) == 1

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
        a, b, den = _common(self, other)
        merged = dict(a)
        for key, c in b.items():
            _accumulate(merged, key, c)
        return _wrap(merged, den, self.domain)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({k: -c for k, c in self._terms.items()}, self._den,
                     self.domain)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RadialFunction) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction, complex)):
            other = as_coefficient(other)
            merged = {}
            if other != 0:  # an inf coefficient times 0 stays 0, not nan
                for key, c in self._terms.items():
                    _accumulate(merged, key, c * other)
            return _wrap(merged, self._den, self.domain)
        if not isinstance(other, RadialFunction):
            return NotImplemented
        self._require_same_domain(other)
        a, b, den = _common(self, other)
        merged = {}
        for (P1, Q1), c1 in a.items():
            for (P2, Q2), c2 in b.items():
                _accumulate(merged, (P1 + P2, Q1 + Q2), c1 * c2)
        return _wrap(merged, den, self.domain)

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
        merged = {}
        for (P, Q), c in a.items():
            _accumulate(merged, (P - P0, Q - Q0), c / c0)
        return _wrap(merged, den, self.domain)

    def derivative(self):
        """Exact d/dt in the ring."""
        sign = 1 if self.domain == HALF_LINE else -1
        den = self._den
        merged = {}
        for (P, Q), c in self._terms.items():
            if P:
                _accumulate(merged, (P - den, Q), Fraction(P, den) * c)
            if Q:
                _accumulate(merged, (P, Q - den), sign * Fraction(Q, den) * c)
        return _wrap(merged, den, self.domain)

    # -- coordinate changes ----------------------------------------------

    def invert(self):
        """The function t -> f(1/t), again in the half-line basis.

        t^p (1+t)^q at 1/r equals r^{-(p+q)} (1+r)^q, so this stays exact.
        """
        if self.domain != HALF_LINE:
            raise DomainMismatchError("invert is a half-line operation")
        return _wrap({(-(P + Q), Q): c for (P, Q), c in self._terms.items()},
                     self._den, HALF_LINE)

    def flip(self):
        """The function t -> f(1-t) on the unit interval (swap the basis
        factors)."""
        if self.domain != UNIT_INTERVAL:
            raise DomainMismatchError("flip is a unit-interval operation")
        return _wrap({(Q, P): c for (P, Q), c in self._terms.items()},
                     self._den, UNIT_INTERVAL)

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
        pos = (u + abs(u)) / 2  # max(u, 0), and max(-u, 0) = pos - u
        tail = xp.log1p(xp.exp(-abs(u)))  # ln(1 + e^u) = max(u, 0) + tail
        if self.domain == HALF_LINE:
            ln_t, ln_base = u, pos + tail
        else:  # ln t = -ln(1 + e^-u), ln(1 - t) = -ln(1 + e^u)
            ln_t, ln_base = u - pos - tail, -pos - tail
        try:
            floats = self._floats
        except AttributeError:  # the float exponents, converted once
            floats = tuple((P / self._den, Q / self._den,
                            c if isinstance(c, complex) else float(c))
                           for (P, Q), c in self._terms.items())
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
        a, b, _ = _common(self, other)
        return self.domain == other.domain and a == b

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
        for P, Q in sorted(self._terms):
            c = self._terms[P, Q]
            lines.append(f"{_num_to_text(c)} * t^{Fraction(P, self._den)}"
                         f" * {factor}^{Fraction(Q, self._den)}")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text):
        text = text.strip()
        if text == "0" or not text:
            return cls.zero()
        pat = re.compile(
            r"^\s*(?P<c>\S+)\s*\*\s*t\^(?P<p>\S+)\s*\*\s*"
            r"\((?P<factor>1\+t|1-t)\)\^(?P<q>\S+)\s*$")
        pairs = []
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
            p, q, c = (_num_from_text(m.group(g)) for g in "pqc")
            pairs.append(((p, q), c))
        return _wrap(*_stored(pairs, domain or HALF_LINE))


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

class _Terms(Mapping):
    """Read-only {(p, q): c} view of a function's integer keys (P, Q)."""

    def __init__(self, f):
        self._f = f

    def __len__(self):
        return len(self._f._terms)

    def __iter__(self):
        d = self._f._den
        return ((Fraction(P, d), Fraction(Q, d)) for P, Q in self._f._terms)

    def __getitem__(self, key):
        P, Q = (Fraction(x) * self._f._den for x in key)
        return self._f._terms[P, Q]  # an integral Fraction finds its int

    def __repr__(self):
        return repr(dict(self.items()))


def _accumulate(merged, key, c):
    """Add c at key, keeping every stored coefficient nonzero."""
    if c == 0:
        return
    old = merged.get(key)
    if old is not None:
        c = old + c
        if c == 0:
            del merged[key]
            return
    merged[key] = c


def _stored(pairs, domain):
    """Stored fields (terms {(P, Q): c}, D, domain) of ((p, q), c) pairs."""
    if domain not in (HALF_LINE, UNIT_INTERVAL):
        raise ValueError(f"unknown domain {domain!r}")
    items = [(as_exponent(p), as_exponent(q), as_coefficient(c))
             for (p, q), c in pairs]
    den = math.lcm(*(x.denominator for p, q, _ in items for x in (p, q)))
    merged = {}
    for p, q, c in items:
        _accumulate(merged, (p.numerator * (den // p.denominator),
                             q.numerator * (den // q.denominator)), c)
    return merged, den, domain


def _wrap(terms, den, domain, out=None):
    """A new function with these stored fields, or ``out`` given them."""
    out = RadialFunction.__new__(RadialFunction) if out is None else out
    object.__setattr__(out, "domain", domain)
    object.__setattr__(out, "_terms", terms)
    object.__setattr__(out, "_den", den)
    return out


def _common(f, g):
    """The terms of f and g over their common denominator, and that."""
    den = f._den if f._den == g._den else math.lcm(f._den, g._den)
    return _rescaled(f, den), _rescaled(g, den), den


def _rescaled(f, den):
    k = den // f._den
    return f._terms if k == 1 else \
        {(P * k, Q * k): c for (P, Q), c in f._terms.items()}


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
    """
    if end == "far":
        f = f.invert() if f.domain == HALF_LINE else f.flip()
    elif end != "zero":
        raise ValueError(f"unknown endpoint {end!r}")
    den = f._den
    if len(f._terms) < 2:  # no term to cancel: the first rung decides
        (P, _), c = next(iter(f._terms.items()), ((math.inf, 0), 0))
        return (P, c) if P <= stop * den else (math.inf, 0)
    sign = 1 if f.domain == HALF_LINE else -1
    lo, hi = min(P for P, _ in f._terms), max(P for P, _ in f._terms)
    stop = min(stop * den, lo + len(f._terms) * (hi - lo + den) - den)
    rungs = [(P, i) for i, (P, _) in enumerate(f._terms)]  # (D e, term)
    ladder = [(c, Fraction(Q, den), 0, Fraction(1))  # c, q, k, binom(q, k)
              for (_, Q), c in f._terms.items()]     # times (+/-1)^k
    heapq.heapify(rungs)
    while rungs and rungs[0][0] <= stop:
        e = rungs[0][0]
        contribs = []
        while rungs and rungs[0][0] == e:
            _, i = heapq.heappop(rungs)
            c, q, k, b = ladder[i]
            if k:
                b = sign * _binomial_step(b, q, k - 1)
                if not b:  # q is an integer below k: the ladder has ended
                    continue
            contribs.append(c * b)
            ladder[i] = (c, q, k + 1, b)
            heapq.heappush(rungs, (e + den, i))
        total = sum(contribs, Fraction(0))
        if total == 0:
            continue
        # float cancellation noise; an exact total has none, and its
        # contributions may lie beyond the float range
        if not isinstance(total, Fraction) and abs(complex(total)) <= \
                COEFF_REL_TOL * max(abs(complex(c)) for c in contribs):
            continue
        return e, total
    return math.inf, 0


def _binomial_step(b, q, k):
    """binom(q, k + 1) from b = binom(q, k)."""
    return b * (q - k) / (k + 1)


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
