"""Completeness, the reparametrization F, and the one-parameter flow sigma_s.

A complete weight phi generates a globally defined flow through
F(x) = integral_gamma^x dt/phi(t) and sigma_s = F^{-1}(F + s).  Everything is
done in the flow coordinate u of the b-weight b (``powerfun.to_u``), where
F(u) = integral_0^u du'/g with g = phi/b.  A constant g = c (c*t on the
half-line, c*t(1-t) on [0, 1]) flows by translation in u and pure powers c*t^a
have a closed form.  For everything else F is a table over segments 0.2 wide
in u, grown outward from u = 0 only as far as a call needs.  Each segment keeps
the Chebyshev coefficients of the mean of 1/g from its inner node (16 samples,
or quad where they do not resolve 1/g), so F is one Clenshaw sum, and brentq
inverts it inside one segment.
"""

from __future__ import annotations

import bisect
import csv
import math

import numpy as np
from numpy.polynomial.chebyshev import chebdiv, chebint
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import InversionError, PreconditionError, PropertyViolationError
from .powerfun import (HALF_LINE, as_exponent, b_weight, from_u, shift_u,
                       to_u)
from .weights import structure_function

#: flow tolerance, closed-form mode
TAU_FLOW_CLOSED = 1e-10
#: flow tolerance, numeric mode
TAU_FLOW_NUMERIC = 1e-8

#: quadrature relative tolerance for F
QUAD_RTOL = 1e-12

#: width in u of one segment of the table of F
TABLE_STEP = 0.2

#: a segment samples 1/g at a + (node - a) * _AT, the Chebyshev points cos
#: theta_j moved to [0, 1]; _CHEB maps the values to Chebyshev coefficients
#: (angles k theta_j reduced exactly), _MEAN to those of the mean over [-1, x]
_AT = (1.0 + np.cos(np.pi * (np.arange(16) + 0.5) / 16)) / 2
_CHEB = np.outer(np.arange(16), 2 * np.arange(16) + 1) % 64
_CHEB = np.cos(np.pi / 32 * np.minimum(_CHEB, 64 - _CHEB)) / 8
_CHEB[0] /= 2
_MEAN = np.array([chebdiv(P, [1, 1])[0] for P in chebint(_CHEB, lbnd=-1).T]).T


def completeness_check(phi):
    """True iff the reciprocal weight has divergent integral at both ends.

    Decided exactly from endpoint exponents: F diverges at both ends exactly
    when g = phi/b stays bounded there, i.e. vanishing order a >= 1 at 0 and,
    at the far end, growth no faster than t on the half-line or vanishing
    order at least 1 at t = 1.
    """
    g = phi.profile.divide_term(b_weight(phi.domain))
    return g.min_p() >= 0 and g.far_exponent() >= 0


class Flow:
    """The one-parameter group sigma_s generated by X = phi d/dt.

    ``mode`` is one of ``closed_form_b`` (the b-weight times a constant c:
    translation by c*s in u), ``closed_form_power`` (weight c*t^a with
    a != 1), or ``numeric``.  Passing ``mode`` can force ``numeric``; any
    other value must be the detected mode.
    """

    def __init__(self, weight, mode=None, require_complete=True):
        self.weight = weight
        self.complete = completeness_check(weight)
        if require_complete and not self.complete:
            raise PreconditionError(
                "weight is not complete; its flow escapes in finite time "
                "(pass require_complete=False to study it anyway)")
        self._g = weight.profile.divide_term(b_weight(weight.domain))
        detected = self._detect_mode()
        if mode not in (None, "numeric", detected):
            raise PreconditionError(
                f"mode {mode!r} does not describe this weight "
                f"(detected {detected!r})")
        self.mode = mode or detected
        self.tolerance = (TAU_FLOW_NUMERIC if self.mode == "numeric"
                          else TAU_FLOW_CLOSED)
        if self.mode == "closed_form_b":
            (_, c), = self._g.terms.items()
            self._rate = float(c)
        elif self.mode == "closed_form_power":
            ((p, _), c), = weight.profile.terms.items()
            self._a = float(p)
            self._c = float(c)
        self._far = from_u(weight.domain, math.inf)
        # the table of F, grown from (0, 0): nodes u, F(u) as the rounded
        # value plus its rounding error, so long sums keep digits, and the
        # mean of 1/g over the segment inward of each node (None: quad)
        self._table_u = [0.0]
        self._table_F = [0.0]
        self._table_err = [0.0]
        self._table_mean = [None]

    def _detect_mode(self):
        if not self._g.is_single_term:
            return "numeric"
        if (0, 0) in self._g.terms:  # g is the constant c
            return "closed_form_b"
        ((p, q), _), = self.weight.profile.terms.items()
        if q == 0 and p != 1:
            return "closed_form_power"
        return "numeric"

    def _power_flow(self, s, x):
        """sigma_s(x) = x (1 + k x^{a-1})^{1/(1-a)}, k = c(1-a)s, for c*t^a;
        a bracket <= 0 means the incomplete end was reached in finite time."""
        a, k = self._a, self._c * (1.0 - self._a) * s
        try:
            bracket = 1.0 + k * x ** (a - 1.0)
            if bracket <= 0.0:
                return self._far if a > 1 else 0.0
            if bracket < math.inf:
                return min(x * bracket ** (1.0 / (1.0 - a)), self._far)
        except OverflowError:
            pass
        # a power left the float range: sigma^{1-a} = x^{1-a} + k in logs
        ln_p = (1.0 - a) * math.log(x)
        ln_k = math.log(abs(k)) if k else -math.inf
        if k < 0.0 and ln_k >= ln_p:
            return self._far if a > 1 else 0.0
        ln_base = (ln_p + math.log1p(-math.exp(ln_k - ln_p)) if k < 0.0 else
                   max(ln_p, ln_k) + math.log1p(math.exp(-abs(ln_p - ln_k))))
        return min(from_u(HALF_LINE, ln_base / (1.0 - a)), self._far)

    # -- numeric mode: F and its inverse in u -----------------------------

    def _integrand(self, u):
        g = self._g.at_u(u)
        return 1.0 / g if g else math.inf  # g underflows: 1/g is past floats

    def _grow(self, up):
        """Add one segment to the upper or lower end of the table of F;
        False where t at the new node leaves the float range."""
        us, Fs, errs = self._table_u, self._table_F, self._table_err
        end = -1 if up else 0
        a = us[end]
        node = a + (TABLE_STEP if up else -TABLE_STEP)
        if not 0.0 < from_u(self.weight.domain, node) < self._far:
            return False
        with np.errstate(all="ignore"):
            inv_g = 1.0 / self._g.at_u(a + (node - a) * _AT)
            coef, mean = abs(_CHEB @ inv_g), _MEAN @ inv_g
        if np.isfinite(mean).all() and coef[-2:].max() <= 1e-15 * coef.max():
            mean = mean.tolist()
            seg = (node - a) * math.fsum(mean)  # the mean at x = 1
        else:  # not resolved at 16 points: adaptive quadrature
            mean = None
            seg, _ = quad(self._integrand, a, node, epsabs=0.0,
                          epsrel=QUAD_RTOL, limit=200)
        F = math.fsum((Fs[end], errs[end], seg))
        err = (math.fsum((Fs[end], errs[end], seg, -F))
               if math.isfinite(F) else 0.0)
        for table, value in ((us, node), (Fs, F), (errs, err),
                             (self._table_mean, mean)):
            table.insert(len(table) if up else 0, value)
        return True

    def _F_u(self, u):
        """F at u: the table value at the inner node a of u's segment, grown
        to it if need be, plus (u - a) times the mean of 1/g over [a, u]."""
        us, Fs = self._table_u, self._table_F
        up = u > 0.0
        while (us[-1] < u if up else us[0] > u) and self._grow(up):
            pass
        i = bisect.bisect_right(us, u) - 1 if up else bisect.bisect_left(us, u)
        a, outer = us[i], i + 1 if up else i - 1  # the segment's ends
        mean = self._table_mean[outer] if 0 <= outer < len(us) else None
        rest = 0.0
        if mean is not None:  # Clenshaw at x = 2(u - a)/(node - a) - 1
            x, b1, b2 = 2.0 * (u - a) / (us[outer] - a) - 1.0, 0.0, 0.0
            for c in mean[:0:-1]:
                b1, b2 = c + 2.0 * x * b1 - b2, b1
            rest = (u - a) * (mean[0] + x * b1 - b2)
        elif u != a:  # unresolved, or past the float-range node
            rest, _ = quad(self._integrand, a, u, epsabs=0.0,
                           epsrel=QUAD_RTOL, limit=200)
        return math.fsum((Fs[i], self._table_err[i], rest))

    def _u_of_F(self, y):
        """The u with F(u) = y, by brentq inside its table segment; -inf or
        inf where y lies beyond the table, whose ends are the last u with t
        inside the float range."""
        us, Fs = self._table_u, self._table_F
        up = y > 0.0
        while (y > Fs[-1] if up else y < Fs[0]) and self._grow(up):
            pass
        if not Fs[0] <= y <= Fs[-1]:
            return math.copysign(math.inf, y)
        hi = min(bisect.bisect_right(Fs, y), len(Fs) - 1)
        if not math.isfinite(Fs[hi - 1] - Fs[hi]):
            raise InversionError(
                f"F = {y} lies in a segment where 1/g overflows")
        return brentq(lambda u: self._F_u(u) - y, us[hi - 1], us[hi],
                      xtol=1e-14, rtol=8.9e-16)

    # -- public interface -------------------------------------------------

    def F(self, x):
        """The reparametrization F(x) = integral from the base point."""
        if not (0.0 < x < self._far):
            raise PreconditionError(f"F is defined on the interior, got {x}")
        if self.mode == "closed_form_b":
            return to_u(self.weight.domain, x) / self._rate
        if self.mode == "closed_form_power":
            a, c = self._a, self._c
            try:
                return (1.0 - x ** (1.0 - a)) / (c * (a - 1.0))
            except OverflowError:  # x^{1-a}, and with it F(x), is infinite
                return math.copysign(math.inf, c * (1.0 - a))
        return self._F_u(to_u(self.weight.domain, x))

    def F_inverse(self, y):
        if self.mode == "closed_form_b":
            return from_u(self.weight.domain, self._rate * y)
        if self.mode == "closed_form_power":
            return self._power_flow(y, 1.0)  # F(1) = 0
        return from_u(self.weight.domain, self._u_of_F(y))

    def apply(self, s, x):
        """sigma_s(x); endpoints are fixed points by continuous extension,
        and a flow that reaches an endpoint (past the float range or past
        its escape time) stays there."""
        if x == 0.0 or x == self._far:
            return x
        if not (0.0 < x < self._far):
            raise PreconditionError(f"point {x} outside the domain")
        if s == 0:
            return x
        if self.mode == "closed_form_b":
            return shift_u(self.weight.domain, x, self._rate * s)
        if self.mode == "closed_form_power":
            return self._power_flow(s, x)
        y = self.F(x)
        if not math.isfinite(y):
            raise InversionError(f"F({x}) = {y} lies past the float range")
        return from_u(self.weight.domain, self._u_of_F(y + s))

    def __repr__(self):
        w = self.weight.profile.to_text()
        return f"Flow(mode={self.mode!r}, weight={w!r})"


def flow_scaling_limit(flow, psi, s):
    """lim_{t -> 0} psi(t)/psi(sigma_s(t)).

    Computed in closed form as e^{-lambda*s} with lambda the structure
    function value at 0, and checked against the numeric ratio at t = 10^{-k}
    for k = 8, 9, ..., 16: the first finite sample that agrees to 1e-6 is
    accepted (for phi = t^{3/2} the ratio converges only like t^{1/2}).
    Disagreement at every sample raises.
    """
    lam = structure_function(psi, flow.weight).value_at_zero
    if not math.isfinite(float(lam)):
        raise PreconditionError(
            f"structure function diverges at 0 (lambda = {lam})")
    closed = math.exp(-float(lam) * s)
    if s == 0:
        return 1.0
    tol = 1e-6 * max(1.0, abs(closed))
    numeric = None
    for k in range(8, 17):
        t = 10.0 ** (-k)
        st = flow.apply(s, t)
        if 0.0 < st < math.inf:
            numeric = psi.profile(t) / psi.profile(st)
            if abs(numeric - closed) <= tol:
                return closed
    if numeric is None:
        raise InversionError("numeric scaling limit could not be sampled")
    raise PropertyViolationError(
        f"scaling limit mismatch: closed form {closed}, numeric {numeric}")


def write_flow_csv(path, flow, s, xs):
    """CSV rows (s, x, sigma_s_x) for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "x", "sigma_s_x"])
        for x in xs:
            writer.writerow(["%.17g" % s, "%.17g" % x,
                             "%.17g" % flow.apply(s, x)])


def power_flow_exponents(a, nterms=6):
    """Exponents of the series of sigma_s(x) in x at 0 for weight t^a.

    The closed form x*(1 - (a-1) s x^(a-1))^(1/(1-a)) expands into powers
    x^(1 + m(a-1)).  These are all nonnegative integers exactly when a is a
    positive integer, which is the chart-smoothness dichotomy at 0.
    """
    a = as_exponent(a)
    return [1 + m * (a - 1) for m in range(nterms)]
