"""Completeness, the reparametrization F, and the one-parameter flow sigma_s.

A complete weight phi generates a globally defined flow through
F(x) = integral_gamma^x dt/phi(t) and sigma_s = F^{-1}(F + s).  Closed forms
cover the model weights (c*t, pure powers, the symmetric bounded example);
everything else goes through adaptive quadrature in a compactifying
coordinate plus monotone bracketing for the inversion.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import InversionError, PreconditionError, PropertyViolationError
from .powerfun import HALF_LINE
from .weights import Weight, structure_function

#: flow tolerance, closed-form mode
TAU_FLOW_CLOSED = 1e-10
#: flow tolerance, numeric mode
TAU_FLOW_NUMERIC = 1e-8

#: quadrature relative tolerance for F
QUAD_RTOL = 1e-12

#: initial span of the bracketing table in the compactified coordinate
TABLE_SPAN = 40.0
TABLE_POINTS = 401


def completeness_check(phi):
    """True iff the reciprocal weight has divergent integral at both ends.

    Decided exactly from endpoint exponents: divergence at 0 needs vanishing
    order a >= 1; at the far end the half-line condition is growth no faster
    than t (max(p+q) <= 1) and the unit-interval condition is vanishing order
    at least 1.
    """
    w = phi if isinstance(phi, Weight) else Weight(phi)
    if w.a < 1:
        return False
    if w.domain == HALF_LINE:
        return w.a_prime >= -1
    return w.a_prime >= 1


class Flow:
    """The one-parameter group sigma_s generated by X = phi d/dt.

    ``mode`` is one of ``closed_form_b`` (weight c*t, exponential flow),
    ``closed_form_power`` (weight c*t^a with a != 1), ``closed_form_tanh``
    (the symmetric bounded example on [-1, 1]), or ``numeric``.
    """

    def __init__(self, weight, mode=None, require_complete=True):
        w = weight if isinstance(weight, Weight) else Weight(weight)
        self.weight = w
        self.complete = completeness_check(w)
        if require_complete and not self.complete:
            raise PreconditionError(
                "weight is not complete; its flow escapes in finite time "
                "(pass require_complete=False to study it anyway)")
        if mode is None:
            mode = self._detect_mode(w)
        self.mode = mode
        self.tolerance = (TAU_FLOW_NUMERIC if mode == "numeric"
                          else TAU_FLOW_CLOSED)
        if mode == "closed_form_b":
            ((_, _), c), = w.profile.terms.items()
            self._rate = float(c)
        elif mode == "closed_form_power":
            ((p, _), c), = w.profile.terms.items()
            self._a = float(p)
            self._c = float(c)
        # monotone bracketing table in the compactified coordinate u
        self._table_u = []
        self._table_F = []

    @staticmethod
    def _detect_mode(w):
        if w.is_single_term:
            ((p, q), _), = w.profile.terms.items()
            if q == 0:
                if p == 1:
                    return "closed_form_b"
                return "closed_form_power"
        return "numeric"

    @classmethod
    def tanh_example(cls):
        """The bounded symmetric flow on [-1, 1] with weight (1+t)(1-t).

        Here F(x) = atanh(x) and sigma_s(x) = tanh(atanh(x) + s).
        """
        obj = cls.__new__(cls)
        obj.weight = None
        obj.complete = True
        obj.mode = "closed_form_tanh"
        obj.tolerance = TAU_FLOW_CLOSED
        obj._table_u = []
        obj._table_F = []
        return obj

    # -- coordinate helpers for numeric mode ------------------------------
    # u is ln t on the half-line and logit t on the unit interval; both map
    # the interior onto the whole real line with base point u = 0.

    def _to_u(self, t):
        if self.weight.domain == HALF_LINE:
            return math.log(t)
        return math.log(t / (1.0 - t))

    def _from_u(self, u):
        if self.weight.domain == HALF_LINE:
            return math.exp(u)
        return 1.0 / (1.0 + math.exp(-u))

    def _integrand(self, u):
        # dt/phi pulled back: dt = t du (half-line) or t(1-t) du (interval)
        t = self._from_u(u)
        jac = t if self.weight.domain == HALF_LINE else t * (1.0 - t)
        return jac / self.weight.profile(t)

    def _F_numeric(self, x):
        u = self._to_u(x)
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
        # extend on demand until the target value is inside the table
        step = self._table_u[1] - self._table_u[0]
        guard = 0
        while target > self._table_F[-1]:
            u_new = self._table_u[-1] + step
            seg, _ = quad(self._integrand, self._table_u[-1], u_new,
                          epsabs=0.0, epsrel=QUAD_RTOL, limit=200)
            self._table_u.append(u_new)
            self._table_F.append(self._table_F[-1] + seg)
            guard += 1
            if guard > 100_000:
                raise InversionError(
                    f"bracketing table could not reach F value {target}")
        while target < self._table_F[0]:
            u_new = self._table_u[0] - step
            seg, _ = quad(self._integrand, u_new, self._table_u[0],
                          epsabs=0.0, epsrel=QUAD_RTOL, limit=200)
            self._table_u.insert(0, u_new)
            self._table_F.insert(0, self._table_F[0] - seg)
            guard += 1
            if guard > 100_000:
                raise InversionError(
                    f"bracketing table could not reach F value {target}")

    def _F_inverse_numeric(self, y):
        self._ensure_table(y)
        us, Fs = self._table_u, self._table_F
        lo, hi = 0, len(us) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if Fs[mid] <= y:
                lo = mid
            else:
                hi = mid
        u = brentq(lambda uu: self._F_numeric(self._from_u(uu)) - y,
                   us[lo], us[hi], xtol=1e-14, rtol=8.9e-16)
        return self._from_u(u)

    # -- public interface -------------------------------------------------

    def _endpoints(self):
        if self.mode == "closed_form_tanh":
            return (-1.0, 1.0)
        if self.weight.domain == HALF_LINE:
            return (0.0, math.inf)
        return (0.0, 1.0)

    def F(self, x):
        """The reparametrization F(x) = integral from the base point."""
        lo, hi = self._endpoints()
        if not (lo < x < hi):
            raise PreconditionError(f"F is defined on the interior, got {x}")
        if self.mode == "closed_form_b":
            return math.log(x) / self._rate
        if self.mode == "closed_form_power":
            a, c = self._a, self._c
            return (1.0 - x ** (1.0 - a)) / (c * (a - 1.0))
        if self.mode == "closed_form_tanh":
            return math.atanh(x)
        return self._F_numeric(x)

    def F_inverse(self, y):
        if self.mode == "closed_form_b":
            return math.exp(self._rate * y)
        if self.mode == "closed_form_power":
            a, c = self._a, self._c
            base = 1.0 - c * (a - 1.0) * y
            if base <= 0.0:
                # the incomplete end has been reached in finite time
                return math.inf if a > 1 else 0.0
            return base ** (1.0 / (1.0 - a))
        if self.mode == "closed_form_tanh":
            return math.tanh(y)
        return self._F_inverse_numeric(y)

    def apply(self, s, x):
        """sigma_s(x); endpoints are fixed points by continuous extension."""
        lo, hi = self._endpoints()
        if x == lo or x == hi:
            return x
        if not (lo < x < hi):
            raise PreconditionError(f"point {x} outside the domain")
        if s == 0:
            return x
        if self.mode == "closed_form_b":
            return math.exp(self._rate * s) * x
        if self.mode == "closed_form_power":
            a, c = self._a, self._c
            bracket = 1.0 + c * (1.0 - a) * s * x ** (a - 1.0)
            if bracket <= 0.0:
                return math.inf if a > 1 else 0.0
            return x * bracket ** (1.0 / (1.0 - a))
        if self.mode == "closed_form_tanh":
            return math.tanh(math.atanh(x) + s)
        return self._F_inverse_numeric(self._F_numeric(x) + s)

    def __call__(self, s, x):
        return self.apply(s, x)

    def __repr__(self):
        w = None if self.weight is None else self.weight.profile.to_text()
        return f"Flow(mode={self.mode!r}, weight={w!r})"


def flow_scaling_limit(flow, psi, s):
    """lim_{t -> 0} psi(t)/psi(sigma_s(t)).

    Computed in closed form as e^{-lambda*s} with lambda the structure
    function value at 0, and checked against the numeric limit along
    t = 10^{-k}.  Disagreement beyond 1e-6 raises.
    """
    psi_w = psi if isinstance(psi, Weight) else Weight(psi)
    if flow.weight is None:
        raise PreconditionError("scaling limit needs a ring weight")
    lam = structure_function(psi_w, flow.weight).value_at_zero
    if not math.isfinite(float(lam)):
        raise PreconditionError(
            f"structure function diverges at 0 (lambda = {lam})")
    closed = math.exp(-float(lam) * s)
    if s == 0:
        return 1.0
    numeric = None
    for k in range(4, 9):
        t = 10.0 ** (-k)
        st = flow.apply(s, t)
        if not (0.0 < st < math.inf):
            continue
        numeric = psi_w.profile(t) / psi_w.profile(st)
    if numeric is None:
        raise InversionError("numeric scaling limit could not be sampled")
    if abs(numeric - closed) > 1e-6 * max(1.0, abs(closed)):
        raise PropertyViolationError(
            f"scaling limit mismatch: closed form {closed}, numeric {numeric}")
    return closed


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
    a = Fraction(a) if not isinstance(a, Fraction) else a
    return [1 + m * (a - 1) for m in range(nterms)]
