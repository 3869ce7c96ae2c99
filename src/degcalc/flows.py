"""Completeness, the reparametrization F, and the one-parameter flow sigma_s.

A complete weight phi generates a globally defined flow through
F(x) = integral_gamma^x dt/phi(t) and sigma_s = F^{-1}(F + s).  Everything is
done in the flow coordinate u of the b-weight b (``powerfun.to_u``), where
F(u) = integral_0^u du'/g with g = phi/b.  A constant g = c (c*t on the
half-line, c*t(1-t) on [0, 1]) flows by translation in u and pure powers c*t^a
have a closed form; everything else goes through adaptive quadrature in u plus
monotone bracketing for the inversion.
"""

from __future__ import annotations

import bisect
import csv
import math

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

#: initial span of the bracketing table in the flow coordinate u
TABLE_SPAN = 40.0
TABLE_POINTS = 401


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
        # monotone bracketing table of F over u
        self._table_u = []
        self._table_F = []

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
        return 1.0 / self._g.at_u(u)

    def _F_u(self, u):
        val, _ = quad(self._integrand, 0.0, u, epsabs=0.0, epsrel=QUAD_RTOL,
                      limit=200)
        return val

    def _ensure_table(self, target):
        if not self._table_u:
            us = [(-TABLE_SPAN + 2 * TABLE_SPAN * i / (TABLE_POINTS - 1))
                  for i in range(TABLE_POINTS)]
            vals = [0.0] * len(us)
            # cumulative quadrature from the base point outward
            k0 = us.index(min(us, key=abs))
            for i in range(k0 + 1, len(us)):
                seg, _ = quad(self._integrand, us[i - 1], us[i],
                              epsabs=0.0, epsrel=QUAD_RTOL, limit=200)
                vals[i] = vals[i - 1] + seg
            for i in range(k0 - 1, -1, -1):
                seg, _ = quad(self._integrand, us[i], us[i + 1],
                              epsabs=0.0, epsrel=QUAD_RTOL, limit=200)
                vals[i] = vals[i + 1] - seg
            self._table_u = us
            self._table_F = vals
        # extend on demand, a step at a time on the target's side, until t
        # leaves the float range: from_u is an endpoint at every u beyond
        us, Fs = self._table_u, self._table_F
        step = us[1] - us[0]
        while True:
            up = target > Fs[-1]
            if not (up or target < Fs[0]):
                return
            lo, hi = (us[-1], us[-1] + step) if up else (us[0] - step, us[0])
            node = hi if up else lo
            if not 0.0 < from_u(self.weight.domain, node) < self._far:
                return
            seg, _ = quad(self._integrand, lo, hi,
                          epsabs=0.0, epsrel=QUAD_RTOL, limit=200)
            if up:
                us.append(hi)
                Fs.append(Fs[-1] + seg)
            else:
                us.insert(0, lo)
                Fs.insert(0, Fs[0] - seg)

    def _u_of_F(self, y):
        """The u with F(u) = y, by brentq inside its table bracket; -inf or
        inf where y lies beyond the table, whose ends are the last u with t
        inside the float range."""
        self._ensure_table(y)
        us, Fs = self._table_u, self._table_F
        if not Fs[0] <= y <= Fs[-1]:
            return math.copysign(math.inf, y - Fs[0])
        hi = min(bisect.bisect_right(Fs, y), len(Fs) - 1)
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
        u = self._u_of_F(self.F(x) + s)
        return from_u(self.weight.domain, u)

    def __call__(self, s, x):
        return self.apply(s, x)

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
