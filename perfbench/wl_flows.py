"""Workload ``flows``: flows, groupoid arrows and Weight positivity.

Why this workload: it is the only one where ``quad``/``brentq`` and the
groupoid do real work.

A job builds a fresh Weight and Flow and checks k arrows, k in {1, 10, 100},
which varies how much work the lazily built bracketing table is shared
over.  A deck holds one job per weight below, twelve in all; over three
decks each weight is checked with 1, 10 and 100 arrows once:

* c*t, closed form and forced numeric mode (c drawn from {1/2, 1, 2});
* t^a for each a in {3/2, 2, e}, closed form and forced numeric mode;
* t^2/(1+t) and the two-term t/(1+t) + t^2/(1+t)^2;
* the mixed-sign positive t - t^2/(2(1+t)), whose positivity is sampled;
* t(1-t) on the unit interval.

Per arrow (x, t) followed by (sigma_t(x), s) the job computes both flows,
their composite and the zeta cocycles; per job it composes a triple,
conjugates a chart kernel and takes the boundary scaling limit.  The oracle
is each family's closed-form F (F' = 1/phi), inverted independently.
"""

from __future__ import annotations

import math
from fractions import Fraction

import degcalc as dc
from harness import TYPED, WRONG, Job

ARROW_COUNTS = (1, 10, 100)
#: weights per deck, as built by _families
FAMILIES = 12
POWERS = (Fraction(3, 2), 2, math.e)
SLOPES = (Fraction(1, 2), 1, 2)
#: kernel conjugation exponents (t, t')
KERNEL_EXPONENTS = (0.5, -1.0)
#: relative tolerance for products of computed cocycles
COCYCLE_TOL = 1e-6


class Family:
    """A weight family with its closed-form F and slope lim phi(t)/t."""

    def __init__(self, name, terms, F, dF, slope, domain=dc.HALF_LINE,
                 mode=None, sigma=None):
        self.name, self.terms, self.domain = name, terms, domain
        self.F, self.dF, self.slope, self.mode = F, dF, slope, mode
        self._sigma = sigma

    def sigma(self, s, x):
        """sigma_s(x) = F^-1(F(x) + s), by Newton in u = ln y from a
        bracket, unless a closed form was given."""
        if self._sigma is not None:
            return self._sigma(s, x)
        target = self.F(x) + s
        lo, hi = math.log(x) - 1.0, math.log(x) + 1.0
        while self.F(math.exp(lo)) > target:
            lo -= 2.0 * (hi - lo)
        while self.F(math.exp(hi)) < target:
            hi += 2.0 * (hi - lo)
        u = 0.5 * (lo + hi)
        for _ in range(200):
            y = math.exp(u)
            g = self.F(y) - target
            if g == 0.0:
                break
            if g > 0:
                hi = u
            else:
                lo = u
            step = g / (y * self.dF(y))
            if abs(step) < 1e-15 * max(1.0, abs(u)):
                u -= step
                break
            u = u - step if lo < u - step < hi else 0.5 * (lo + hi)
        return math.exp(u)


def _linear(c):
    return Family("ct", {(1, 0): c}, lambda x: math.log(x) / float(c),
                  lambda x: 1.0 / (float(c) * x), float(c),
                  sigma=lambda s, x: x * math.exp(float(c) * s))


def _power(a):
    a_f = float(a)

    def sigma(s, x):
        return x * (1.0 + (1.0 - a_f) * s * x ** (a_f - 1.0)) ** (
            1.0 / (1.0 - a_f))

    return Family("power", {(a, 0): 1},
                  lambda x: x ** (1.0 - a_f) / (1.0 - a_f),
                  lambda x: x ** -a_f, 0.0, sigma=sigma)


def _families(rng):
    """The deck's weights, with this deck's draws of c."""
    fams = [_linear(rng.choice(SLOPES)), _linear(rng.choice(SLOPES))]
    fams[1].name, fams[1].mode = "ct_numeric", "numeric"
    for a in POWERS:
        fams.append(_power(a))
        fams.append(_power(a))
        fams[-1].name, fams[-1].mode = "power_numeric", "numeric"
    half = Fraction(1, 2)
    fams += [
        Family("quotient", {(2, -1): 1}, lambda x: math.log(x) - 1.0 / x,
               lambda x: (1.0 + x) / x ** 2, 0.0),
        Family("two_term", {(1, -1): 1, (2, -2): 1},
               lambda x: x / 2 + math.log(x) - math.log1p(2 * x) / 4,
               lambda x: (1 + x) ** 2 / (x * (1 + 2 * x)), 1.0),
        Family("mixed", {(1, 0): 1, (2, -1): -half},
               lambda x: math.log(x) + math.log(2 + x),
               lambda x: 1.0 / x + 1.0 / (2 + x), 1.0),
        Family("unit", {(1, 1): 1}, lambda x: math.log(x / (1 - x)),
               lambda x: 1.0 / (x * (1 - x)), 1.0, domain=dc.UNIT_INTERVAL,
               sigma=lambda s, x: 1.0 / (1.0 + math.exp(-s) * (1 - x) / x)),
    ]
    return fams


#: wall time a deck adds to an untraced run, all its rounds together, at the
#: reference speed (2-core x86-64 container, Python 3.11.7, numpy 2.4.6,
#: scipy 1.17.1, one BLAS thread); a run is whole cycles of CYCLE_DECKS
#: decks, about seconds long
DECK_SECONDS = 8.0
#: decks per cycle of decks(); a run holds whole cycles, so every run checks
#: the same (weight, arrow count) pairs and its median stays on one kind of
#: job
CYCLE_DECKS = 3


def setup():
    """Nothing is shared: every job builds a fresh weight and flow."""
    return {}


def decks(rng, shared, scratch):
    """Decks in cycles of three: across a cycle every weight is checked
    with 1, 10 and 100 arrows once each."""
    while True:
        cycle = [rng.sample(ARROW_COUNTS, 3) for _ in range(FAMILIES)]
        for d in range(3):
            deck = [_job(rng, fam, counts[d])
                    for fam, counts in zip(_families(rng), cycle)]
            rng.shuffle(deck)
            yield deck


def _finite(fam, tau, x):
    """sigma_tau(x) stays at most halfway to the escape time of t^a."""
    if not fam.name.startswith("power"):
        return True
    a = float(next(iter(fam.terms))[0])
    return (a - 1.0) * tau * x ** (a - 1.0) < 0.5


def _arrows(rng, fam, k):
    """k arrows (x, t, s, r): sigma_t(x), sigma_s(sigma_t(x)) and
    sigma_{s+t}(x) are needed; t^a with a > 1 escapes to infinity in finite
    time, so arrows whose flows come near the escape time are redrawn."""
    out = []
    while len(out) < k:
        u = rng.uniform(-2.0, 2.0)
        x = 1.0 / (1.0 + math.exp(-u)) if fam.domain == dc.UNIT_INTERVAL \
            else math.exp(u)
        t, s, r = (rng.uniform(-1.5, 1.5) for _ in range(3))
        if _finite(fam, t, x) and _finite(fam, s + t, x) and \
                _finite(fam, s, fam.sigma(t, x)):
            out.append((x, t, s, r))
    return out


def _job(rng, fam, k):
    arrows = _arrows(rng, fam, k)
    b = rng.choice(SLOPES)
    s0 = rng.uniform(-1.0, 0.5)
    kernel_s = sorted({0.0, *(a[1] for a in arrows[:4]
                              if _finite(fam, a[1], arrows[0][0]))})
    record = {"weight": fam.name, "arrows": k,
              "exponents": [f"{p},{q}" for p, q in fam.terms],
              "terms": len(fam.terms), "domain": fam.domain}

    def run():
        w = dc.Weight(dc.RadialFunction(fam.terms, domain=fam.domain))
        flow = dc.Flow(w, mode=fam.mode, require_complete=False)
        record["mode"] = flow.mode
        out = []
        for x, t, s, r in arrows:
            h = dc.GPhiElement(x, t)
            y = flow.apply(t, x)
            g = dc.GPhiElement(y, s)
            gh = dc.gphi_compose(g, h, flow)
            z1, z2 = flow.apply(s, y), flow.apply(s + t, x)
            zeta = {which: [dc.zeta_cocycle(e, which, flow)
                            for e in (h, g, gh)]
                    for which in ("zero", "infinity")}
            out.append((y, z1, z2, gh, zeta))
        x, t, s, r = arrows[0]
        h, g = dc.GPhiElement(x, t), dc.GPhiElement(out[0][0], s)
        f = dc.GPhiElement(out[0][1], r)
        assoc = (dc.gphi_compose(f, dc.gphi_compose(g, h, flow), flow),
                 dc.gphi_compose(dc.gphi_compose(f, g, flow), h, flow))
        kernel = dc.KernelFunction.constant(x, kernel_s, [0.0, 0.5])
        conj = dc.kernel_conjugate(kernel, *KERNEL_EXPONENTS, flow)
        # a typed error here is kept, so that check still verifies the
        # arrows, the associativity and the kernel before reporting it
        try:
            limit = dc.flow_scaling_limit(
                flow, dc.Weight.from_term(1, b, 0, domain=fam.domain), s0)
        except dc.DegcalcError as exc:
            limit = f"{TYPED}: {type(exc).__name__}: {exc}"
        return {"tolerance": flow.tolerance, "arrows": out, "assoc": assoc,
                "kernel": [complex(v) for v in conj.values[:, 0]],
                "limit": limit}

    def check(out, oracle):
        tol = out["tolerance"]
        rho0, rhoi = dc.rho_zero, dc.rho_infinity
        for (x, t, s, r), (y, z1, z2, gh, zeta) in zip(arrows, out["arrows"]):
            want_y = fam.sigma(t, x)
            want_z = fam.sigma(s + t, x)
            if abs(y - want_y) > tol * max(1.0, want_y):
                return f"{WRONG}: sigma_{t:.4g}({x:.4g}) = {y!r}, closed " \
                       f"form {want_y!r}"
            if abs(z1 - z2) > tol * max(1.0, want_z) or \
                    abs(z2 - want_z) > tol * max(1.0, want_z):
                return f"{WRONG}: group law at x={x:.4g}: {z1!r}, {z2!r}, " \
                       f"closed form {want_z!r}"
            if gh.x != x or abs(gh.t - (s + t)) > 1e-12:
                return f"{WRONG}: composite arrow {gh}"
            for which, rho in (("zero", rho0), ("infinity", rhoi)):
                zh, zg, zgh = zeta[which]
                if abs(zgh - zg * zh) > COCYCLE_TOL * zgh or \
                        abs(zh - rho(x) / rho(want_y)) > COCYCLE_TOL * zh:
                    return f"{WRONG}: zeta_{which} not multiplicative " \
                           f"at x={x:.4g}"
        left, right = out["assoc"]
        if left.x != right.x or abs(left.t - right.t) > 1e-12:
            return f"{WRONG}: composition not associative: {left}, {right}"
        x = arrows[0][0]
        t_exp, tp_exp = KERNEL_EXPONENTS
        for s, got in zip(kernel_s, out["kernel"]):
            sx = fam.sigma(s, x)
            want = ((rho0(x) / rho0(sx)) ** t_exp
                    * (rhoi(x) / rhoi(sx)) ** tp_exp)
            if abs(got - want) > COCYCLE_TOL * want:
                return f"{WRONG}: kernel factor at s={s:.4g} is {got}, " \
                       f"closed form {want}"
        if isinstance(out["limit"], str):
            return out["limit"]
        want = math.exp(-float(b) * fam.slope * s0)
        if abs(out["limit"] - want) > 1e-9 * want:
            return f"{WRONG}: scaling limit {out['limit']}, closed form {want}"
        return None

    def known_defect(reason):
        if fam.domain == dc.UNIT_INTERVAL and "EndpointEvalError" in reason:
            return "flow_unit_interval_endpoint"
        if fam.name.startswith("power") and \
                next(iter(fam.terms))[0] == Fraction(3, 2) and \
                "scaling limit mismatch" in reason:
            return "scaling_limit_t_3_2"
        return None

    return Job(fam.name, record, run, check, known_defect)
