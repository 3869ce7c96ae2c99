"""Completeness, the reparametrization F, and the one-parameter flow sigma_s.

A complete weight phi generates a globally defined flow through
F(x) = integral_gamma^x dt/phi(t) and sigma_s = F^{-1}(F + s).  Everything is
done in the flow coordinate u of the b-weight b (``powerfun.to_u``), where
F(u) = integral_0^u du'/g with g = phi/b.  A constant g = c (c*t on the
half-line, c*t(1-t) on [0, 1]) flows by translation in u and pure powers c*t^a
have a closed form.  For everything else F is a table over segments 0.2 wide
in u, grown outward from u = 0 only as far as a call needs (an inversion off
the table asks for a reach that doubles on each pass), up to 256 segments per
evaluation of g and per stacked product.  Each segment keeps the Chebyshev
coefficients of the mean of 1/g from its inner node, fitted to 16 samples; a
segment whose fit leaves a tail above the samples' own rounding noise is
halved, so F is one Clenshaw sum on every segment, and Newton on the same sum
inverts it inside one segment.  The table ends where 1/g leaves the float
range.  A numeric flow remembers its last SIGMA_MEMO values sigma_s(x), so an
arrow's range is inverted once.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from numpy.polynomial.chebyshev import chebdiv, chebint

from .errors import (ConvergenceError, PreconditionError,
                     PropertyViolationError)
from .powerfun import (HALF_LINE, as_exponent, b_weight, from_u, shift_u,
                       to_u)
from .weights import scaling_rate

#: flow tolerance, closed-form mode
TAU_FLOW_CLOSED = 1e-10
#: flow tolerance, numeric mode
TAU_FLOW_NUMERIC = 1e-8

#: width in u of one segment of the table of F
TABLE_STEP = 0.2
#: segments per evaluation of g and per stacked product M @ rows[..., None]
#: of sample rows, one gemv per row as M @ row (a gemm rows @ M.T rounds apart)
GROW_CHUNK = 256
#: halvings of a segment whose 16 samples do not resolve 1/g, after which
#: its fit is taken as it is, or where 1/g leaves the float range
HALVINGS = 6
#: numeric sigma_s(x) values one flow remembers: a groupoid arrow asks for
#: 3 distinct (s, x) in 10 applies (range, composite, cocycles) and repeats
#: come within one arrow, so on the flows workload 64 keeps all but 21 of
#: the 4,963 hits an unbounded memo would get
SIGMA_MEMO = 64

#: a segment samples 1/g at a + (node - a) * _AT, the Chebyshev points cos
#: theta_j moved to [0, 1]; _CHEB maps the values to Chebyshev coefficients
#: (angles k theta_j reduced exactly), _MEAN to those of the mean over [-1, x]
_AT = (1.0 + np.cos(np.pi * (np.arange(16) + 0.5) / 16)) / 2
_CHEB = np.outer(np.arange(16), 2 * np.arange(16) + 1) % 64
_CHEB = np.cos(np.pi / 32 * np.minimum(_CHEB, 64 - _CHEB)) / 8
_CHEB[0] /= 2
_MEAN = np.array([chebdiv(P, [1, 1])[0] for P in chebint(_CHEB, lbnd=-1).T]).T


def _clenshaw(c, x):
    """The Chebyshev series with coefficients c and its derivative at x, by
    Clenshaw's recurrence and the recurrence's derivative in x."""
    b1 = b2 = d1 = d2 = 0.0
    for ck in c[:0:-1]:
        d1, d2 = 2.0 * (b1 + x * d1) - d2, d1
        b1, b2 = ck + 2.0 * x * b1 - b2, b1
    return c[0] + x * b1 - b2, b1 + x * d1 - d2


def completeness_check(phi):
    """True iff the reciprocal weight has divergent integral at both ends.

    Decided exactly from the leading exponents: F diverges at both ends
    exactly when g = phi/b stays bounded there, i.e. vanishing order a >= 1
    at 0 and, at the far end, growth no faster than t on the half-line or
    vanishing order at least 1 at t = 1.
    """
    g = phi.profile.divide_term(b_weight(phi.domain))
    return g.leading("zero")[0] >= 0 and g.leading("far")[0] >= 0


class Flow:
    """The one-parameter group sigma_s generated by X = phi d/dt.

    ``mode`` is one of ``closed_form_b`` (the b-weight times a constant c:
    translation by c*s in u), ``closed_form_power`` (weight c*t^a with
    a != 1), or ``numeric``.  Passing ``mode`` can force ``numeric``; any
    other value must be the detected mode.
    """

    def __init__(self, weight, mode=None, require_complete=True):
        self.weight = weight
        if require_complete and not completeness_check(weight):
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
        # mean of 1/g over the segment inward of each node (None: none, at
        # u = 0 and past the node where 1/g leaves the float range)
        self._table_u = [0.0]
        self._table_F = [0.0]
        self._table_err = [0.0]
        self._table_mean = [None]
        # numeric sigma_s(x) by (s, x), oldest first
        self._sigma = {}

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

    def _fit(self, inner, outer, depth=0):
        """(outer node, mean, integral) for each segment from a node of
        ``inner`` to the same place in ``outer``, in order.  mean holds the
        Chebyshev coefficients of the mean of 1/g from the inner node,
        fitted to 16 samples, GROW_CHUNK segments per evaluation of g and
        per stacked product; the integral of 1/g is the width times the mean
        at x = 1.  A fit passes when its last two coefficients lie within
        1e-15 of its largest or within twice the samples' rounding noise; a
        segment whose fit fails is halved, up to HALVINGS times, and then
        taken as fitted.  A segment where 1/g leaves the float range is
        halved as deep, and its last part ends the list with mean None and
        integral +/-inf."""
        out = []
        for lo in range(0, len(inner), GROW_CHUNK):
            ins, outs = inner[lo:lo + GROW_CHUNK], outer[lo:lo + GROW_CHUNK]
            a, b = np.array(ins)[:, None], np.array(outs)[:, None]
            u = a + (b - a) * _AT
            with np.errstate(all="ignore"):
                g = self._g.at_u(u)
                cols = (1.0 / g)[..., None]
                coef, mean = abs(_CHEB @ cols)[..., 0], (_MEAN @ cols)[..., 0]
                finite = np.isfinite(mean).all(1)
                tail = coef[:, -2:].max(1)
                fits = finite & (tail <= 1e-15 * coef.max(1))
                if depth == HALVINGS:
                    fits = finite
                elif not fits.all():  # g's relative rounding, carried to 1/g
                    rest = ~fits
                    noise = (self._g.at_u_error(u[rest]) / abs(g[rest])
                             * abs(cols[rest, :, 0])).max(1)
                    fits[rest] = finite[rest] & (tail[rest] <= 2.0 * noise)
            for x, y, m, ok in zip(ins, outs, mean.tolist(), fits.tolist()):
                if ok:
                    out.append((y, m, (y - x) * math.fsum(m)))
                    continue
                if depth == HALVINGS:  # 1/g leaves the float range here
                    return out + [(y, None, (y - x) * math.inf)]
                mid = 0.5 * (x + y)
                out += self._fit([x, mid], [mid, y], depth + 1)
                if out[-1][1] is None:
                    return out
        return out

    def _grow(self, up, to=0.0):
        """Add segments to the upper or lower end of the table of F: at
        least one, and up to the first node that passes u = to (one for the
        default to = 0, which both ends have passed), each fitted and, where
        16 samples do not resolve 1/g, halved (``_fit``).  Stops where t at
        the next node leaves the float range, or after the segment where 1/g
        does, whose outer node has F = +/-inf; False when none was added."""
        end = -1 if up else 0
        if not math.isfinite(self._table_F[end]):
            return False
        nodes = [self._table_u[end]]
        while len(nodes) == 1 or (nodes[-1] < to if up else nodes[-1] > to):
            node = nodes[-1] + (TABLE_STEP if up else -TABLE_STEP)
            if not 0.0 < from_u(self.weight.domain, node) < self._far:
                break
            nodes.append(node)
        if len(nodes) == 1:
            return False
        F, err, new = self._table_F[end], self._table_err[end], []
        for node, mean, seg in self._fit(nodes[:-1], nodes[1:]):
            total = math.fsum((F, err, seg))
            err = (math.fsum((F, err, seg, -total))
                   if math.isfinite(total) else 0.0)
            F = total
            new.append((node, F, err, mean))
        for table, column in zip((self._table_u, self._table_F,
                                  self._table_err, self._table_mean),
                                 zip(*(new if up else new[::-1]))):
            at = len(table) if up else 0
            table[at:at] = column
        return True

    def _F_u(self, u):
        """F at u: the table value at the inner node a of u's segment, grown
        to it if need be, plus (u - a) times the mean of 1/g over [a, u];
        past the table's last fitted segment, [a, u] is fitted on its own."""
        us, Fs = self._table_u, self._table_F
        up = u > 0.0
        if us[-1] < u if up else us[0] > u:
            self._grow(up, u)
        i = bisect.bisect_right(us, u) - 1 if up else bisect.bisect_left(us, u)
        a, outer = us[i], i + 1 if up else i - 1  # the segment's ends
        mean = self._table_mean[outer] if 0 <= outer < len(us) else None
        rest = 0.0
        if mean is not None:  # the mean at x = 2(u - a)/(node - a) - 1
            x = 2.0 * (u - a) / (us[outer] - a) - 1.0
            rest = (u - a) * _clenshaw(mean, x)[0]
        elif u != a and math.isfinite(Fs[i]):  # where 1/g leaves the float
            # range, or t is still a float past the table's last node
            rest = math.fsum(seg for *_, seg in self._fit([a], [u]))
        return math.fsum((Fs[i], self._table_err[i], rest))

    def _u_of_F(self, y):
        """The u with F(u) = y inside its table segment; -inf or inf where y
        lies beyond the table, whose ends are the last u with t inside the
        float range or the node where 1/g leaves it, grown by a reach that
        doubles from one segment on each pass while y lies past it.  A y
        equal to a node's F is that node; inside a segment, safeguarded
        Newton solves (u - a) m(x) = y - F(a) for the segment's mean m of
        1/g from its inner node a, whose derivative in u is m + (x + 1) m'."""
        us, Fs = self._table_u, self._table_F
        up, reach = y > 0.0, TABLE_STEP
        while ((y > Fs[-1] if up else y < Fs[0])
               and self._grow(up, us[-1] + reach if up else us[0] - reach)):
            reach *= 2
        if not Fs[0] <= y <= Fs[-1]:
            return math.copysign(math.inf, y)
        hi = min(bisect.bisect_right(Fs, y), len(Fs) - 1)
        lo = hi - 1
        if not math.isfinite(Fs[lo] - Fs[hi]):
            raise ConvergenceError(
                f"F = {y} lies in a segment where 1/g overflows")
        if y in (Fs[lo], Fs[hi]):
            return us[lo] if y == Fs[lo] else us[hi]
        inner, outer = (lo, hi) if us[lo] >= 0.0 else (hi, lo)
        mean = self._table_mean[outer]
        a, width = us[inner], us[outer] - us[inner]
        rest = math.fsum((y, -Fs[inner], -self._table_err[inner]))
        u_lo, u_hi, dF = us[lo], us[hi], Fs[hi] - Fs[lo]
        u = u_lo + (u_hi - u_lo) * (y - Fs[lo]) / dF if dF else u_lo
        for _ in range(100):  # bisection alone stops within 50 steps
            x = 2.0 * (u - a) / width - 1.0
            m, dm = _clenshaw(mean, x)
            residual = (u - a) * m - rest
            u_lo, u_hi = (u_lo, u) if residual > 0.0 else (u, u_hi)
            slope = m + (x + 1.0) * dm
            step = u - residual / slope if slope > 0.0 else math.nan
            if not u_lo <= step <= u_hi:  # Newton leaves the bracket: bisect
                step = 0.5 * (u_lo + u_hi)
            if abs(step - u) <= 1e-14 + 8.9e-16 * abs(step):
                return step
            u = step
        return u

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
        its escape time) stays there.  A numeric flow returns a remembered
        sigma_s(x) for an (s, x) among its last SIGMA_MEMO."""
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
        sigma = self._sigma.get((s, x))
        if sigma is None:
            y = self.F(x)
            if not math.isfinite(y):
                raise ConvergenceError(
                    f"F({x}) = {y} lies past the float range")
            sigma = from_u(self.weight.domain, self._u_of_F(y + s))
            if len(self._sigma) >= SIGMA_MEMO:
                del self._sigma[next(iter(self._sigma))]
            self._sigma[(s, x)] = sigma
        return sigma

    def __repr__(self):
        w = self.weight.profile.to_text()
        return f"Flow(mode={self.mode!r}, weight={w!r})"


def flow_scaling_limit(flow, psi, s):
    """lim_{t -> 0} psi(t)/psi(sigma_s(t)).

    Computed in closed form as e^{-lambda*s} with lambda the scaling rate at
    0 (``scaling_rate``, which raises where it diverges), and checked
    against the numeric ratio at t = 10^{-k} for k = 8, 9, ..., 16: the
    first finite sample that agrees to 1e-6 is accepted (for phi = t^{3/2}
    the ratio converges only like t^{1/2}).  Disagreement at every sample
    raises.
    """
    closed = math.exp(-scaling_rate(psi, flow.weight, "zero") * s)
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
        raise ConvergenceError("numeric scaling limit could not be sampled")
    raise PropertyViolationError(
        f"scaling limit mismatch: closed form {closed}, numeric {numeric}")


def power_flow_exponents(a, nterms=6):
    """Exponents of the series of sigma_s(x) in x at 0 for weight t^a.

    The closed form x*(1 - (a-1) s x^(a-1))^(1/(1-a)) expands into powers
    x^(1 + m(a-1)).  These are all nonnegative integers exactly when a is a
    positive integer, which is the chart-smoothness dichotomy at 0.
    """
    a = as_exponent(a)
    return [1 + m * (a - 1) for m in range(nterms)]


def __getattr__(name):
    """``flows.quad`` and ``flows.brentq``: scipy's ``quad`` and ``brentq``,
    imported on first access.  Nothing in degcalc calls either; they exist
    only for the benchmark's tracer, which looks both up by name
    (``perfbench/tracing.py``, ``SCIPY_ENTRY_POINTS``)."""
    if name == "quad":
        from scipy.integrate import quad
        return quad
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
