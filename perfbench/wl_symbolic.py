"""Workload ``symbolic``: the exact algebra of powerfun, diffop and weights.

Why this workload: the ring's algebra does almost all of its work here and
almost none in the other two.  No job evaluates a floating-point function.

A deck holds two X^n normal-form jobs, one composition, one commutator, one
Lie-Rinehart sample, a finite-order and an infinite-order membership test
and one parametrix; decks are shuffled.  Every weight phi comes from a small
shared pool, so a per-(phi, i) cache inside the program could hit, and the
order n of X^n is drawn from 2..10, so the tail shows its O(n^2) growth.
Coefficients are rationals with denominators from {1, 2, 3, 4, 5, 7}:
dyadic and non-dyadic values both appear.
"""

from __future__ import annotations

import math
from fractions import Fraction

import degcalc as dc
import exact
from harness import WRONG, Job

DENOMINATORS = (1, 2, 3, 4, 5, 7)
#: single-term weights (coeff, p, q) on the half-line
PHI_POOL = ((1, 1, 0), (2, 1, 0), (1, Fraction(3, 2), 0),
            (Fraction(3, 2), 2, -1))
PSI_POOL = ((1, 1, 0), (1, Fraction(1, 2), 0))
#: rewritten problems for parametrix_1d: (charge, dimension, l) of hydrogen
PARAMETRIX_PROBLEMS = ((1, 3, 0), (2, 2, 1))

#: weights of the pool that are complete; infinite-order membership is only
#: drawn over these.  Over t^(3/2) the exponent-shift test never applies, so
#: a member runs to the 64-iteration cap while its terms grow (16 s for one
#: three-term function), which alone would exceed a run.
COMPLETE_PHI = (0, 1, 3)
#: membership is verified up to this order; a failure reported beyond it
#: passes when X^k f is continuous up to it
MEMBERSHIP_CHECK_ORDER = 6
#: X^n results verified against sympy, at most this many (phi, psi, n) keys
#: per run, with n <= SYMPY_MAX_N
SYMPY_XPOW_KEYS = 3
SYMPY_MAX_N = 4

#: wall time a deck adds to an untraced run, all its rounds together, at the
#: reference speed (2-core x86-64 container, Python 3.11.7, numpy 2.4.6,
#: scipy 1.17.1, one BLAS thread); a run is whole cycles of CYCLE_DECKS
#: decks, about seconds long
DECK_SECONDS = 1.0
#: decks per cycle of decks(); a run holds whole cycles, so every run has
#: the same orders of X^n and the same parametrices
CYCLE_DECKS = 18


def setup():
    """The weight pool and the rewritten far-field operators."""
    return {
        "phi": [dc.Weight(dc.RadialFunction.term(c, p, q))
                for c, p, q in PHI_POOL],
        "psi": [dc.Weight(dc.RadialFunction.term(c, p, q))
                for c, p, q in PSI_POOL],
        "parametrix_ops": [
            dc.rewrite(dc.SchrodingerProblem.hydrogen(n=n, l=l, charge=z))
            .op_infinity for z, n, l in PARAMETRIX_PROBLEMS],
    }


def _coeff(rng):
    return Fraction(rng.choice([k for k in range(-9, 10) if k]),
                    rng.choice(DENOMINATORS))


def _is_dyadic(c):
    d = Fraction(c).denominator
    return d & (d - 1) == 0


def decks(rng, shared, scratch):
    """Decks in cycles of 18: across a cycle every (problem, N) parametrix
    is drawn three times, every order n of X^n once with each phi of the
    pool, and every pair of term counts (1-3 each) of the two operators
    of a composition and of a commutator twice, so the mix of cheap and
    costly jobs is the same from seed to seed."""
    while True:
        orders = [(n, i) for n in range(2, 11) for i in range(len(PHI_POOL))]
        parametrices = [(k, N) for k in range(len(PARAMETRIX_PROBLEMS))
                        for N in (1, 2, 3)] * 3
        sizes = {kind: [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)] * 2
                 for kind in ("compose", "commutator")}
        for draw in (orders, parametrices, *sizes.values()):
            rng.shuffle(draw)
        for _ in range(18):
            deck = [_xpow(rng, shared, *orders.pop()),
                    _xpow(rng, shared, *orders.pop()),
                    _compose(rng, shared, "compose",
                             *sizes["compose"].pop()),
                    _compose(rng, shared, "commutator",
                             *sizes["commutator"].pop()),
                    _lie_rinehart(rng, shared),
                    _membership(rng, shared, "membership"),
                    _membership(rng, shared, "membership_inf"),
                    _parametrix(shared, *parametrices.pop())]
            rng.shuffle(deck)
            yield deck


# -- X^n through the three normal forms -------------------------------------

def _xpow(rng, shared, n, i):
    j = rng.randrange(len(PSI_POOL))
    phi, psi = shared["phi"][i], shared["psi"][j]
    record = {"weight": f"phi{i}", "order": n}

    def run():
        raw = dc.DiffOp("lie", {(n, 0): 1}, phi, psi).to_raw()
        mono = raw.to_monomial()
        lie = mono.to_lie()
        record["terms"] = sum(len(f.terms) for c in raw.coeffs.values()
                              for f in c.modes.values())
        return raw, mono, lie

    def check(out, oracle):
        raw, mono, lie = out
        if set(lie.coeffs) != {(n, 0)} or \
                lie.coeffs[(n, 0)].modes[0].terms != {(0, 0): 1}:
            return f"{WRONG}: to_lie(X^{n}) is {lie.to_text()}"
        brute = oracle.x_power(i, j, n)
        if _terms(raw) != _terms(brute):
            return f"{WRONG}: to_raw(X^{n}) differs from composing X {n} times"
        phi_e = exact.from_radial(phi.profile)
        for (k, l), c in mono.coeffs.items():
            back = exact.from_cylinder(c)
            for _ in range(k):
                back = exact.mul(back, phi_e)
            if l or back != exact.from_cylinder(brute.coeffs[(k, 0)]):
                return f"{WRONG}: monomial coefficient {k} of X^{n}"
        if len(mono.coeffs) != len(brute.coeffs):
            return f"{WRONG}: monomial form of X^{n} has extra terms"
        return oracle.sympy_x_power(i, j, n, raw)

    return Job("xpow", record, run, check)


def _terms(op):
    return {key: {m: dict(f.terms) for m, f in c.modes.items()}
            for key, c in op.coeffs.items()}


# -- composition and commutators --------------------------------------------

def _cyl_spec(rng):
    return (rng.randint(-1, 1), _coeff(rng), Fraction(rng.randint(0, 4), 2),
            -rng.randint(0, 2))


def _op_spec(rng, n_terms):
    keys = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    return {key: _cyl_spec(rng) for key in rng.sample(keys, n_terms)}


def _cyl(spec):
    m, c, p, q = spec
    return dc.CylinderFunction({m: dc.RadialFunction.term(c, p, q)})


def _compose(rng, shared, kind, a_terms, b_terms):
    i, j = rng.randrange(len(PHI_POOL)), rng.randrange(len(PSI_POOL))
    phi, psi = shared["phi"][i], shared["psi"][j]
    a_spec, b_spec = _op_spec(rng, a_terms), _op_spec(rng, b_terms)
    specs = list(a_spec.values()) + list(b_spec.values())
    record = {"weight": f"phi{i}",
              "order": max(map(sum, a_spec)) + max(map(sum, b_spec)),
              "dyadic": all(_is_dyadic(s[1]) for s in specs)}

    def run():
        # looked up here, not when the deck is drawn, so that a traced run
        # times the call through the tracer's wrapper
        op = dc.op_compose if kind == "compose" else dc.op_commutator
        A = dc.DiffOp("lie", {k: _cyl(s) for k, s in a_spec.items()}, phi, psi)
        B = dc.DiffOp("lie", {k: _cyl(s) for k, s in b_spec.items()}, phi, psi)
        C = op(A, B)
        record["terms"] = sum(len(f.terms) for c in C.coeffs.values()
                              for f in c.modes.values())
        return C

    def check(C, oracle):
        phi_e = exact.term(*PHI_POOL[i])
        psi_e = exact.term(*PSI_POOL[j])
        A = {k: exact.term(c, p, q, m) for k, (m, c, p, q) in a_spec.items()}
        B = {k: exact.term(c, p, q, m) for k, (m, c, p, q) in b_spec.items()}
        g = TEST_FUNCTION
        parts = [exact.apply_lie(A, phi_e, psi_e,
                                 exact.apply_lie(B, phi_e, psi_e, g))]
        if kind == "commutator":
            parts.append(exact.apply_lie(B, phi_e, psi_e,
                                         exact.apply_lie(A, phi_e, psi_e, g)))
        want = parts[0] if len(parts) == 1 else \
            exact.add(parts[0], parts[1], -1)
        got = exact.apply_raw({k: exact.from_cylinder(c)
                               for k, c in C.coeffs.items()}, g)
        err = exact.mismatch(got, want, parts)
        if err > 1e-12:
            return f"{WRONG}: {kind} acts wrongly on a test function " \
                   f"(relative error {err:.2g})"
        return None

    return Job(kind, record, run, check)


#: generic test function for operator identities: exponents that no
#: coefficient shares, and three Fourier modes
TEST_FUNCTION = exact.add(
    exact.add(exact.term(1, Fraction(1, 3), Fraction(-1, 2), 1),
              exact.term(Fraction(2, 3), Fraction(5, 7), 0, -1)),
    exact.term(Fraction(-3, 2), Fraction(2, 5), -1, 0))


# -- Lie-Rinehart axioms on non-dyadic data ----------------------------------

def _lie_rinehart(rng, shared):
    i, j = rng.randrange(len(PHI_POOL)), rng.randrange(len(PSI_POOL))
    phi, psi = shared["phi"][i], shared["psi"][j]
    fields = {name: (_cyl_spec(rng), _cyl_spec(rng)) for name in "ZWU"}
    a, f = _cyl_spec(rng), _cyl_spec(rng)
    dyadic = all(_is_dyadic(spec[1]) for spec in
                 [s for pair in fields.values() for s in pair] + [a, f])
    record = {"weight": f"phi{i}", "order": 1, "dyadic": dyadic}

    def run():
        sample = {name: dc.VectorField(_cyl(u), _cyl(v), phi, psi)
                  for name, (u, v) in fields.items()}
        sample.update(a=_cyl(a), f=_cyl(f))
        return dc.lie_rinehart_check(phi, psi, [sample])

    def check(report, oracle):
        # the axioms are identities: every sample must pass all of them
        failed = sorted(name for name, (ok, _) in report.items() if not ok)
        return f"{WRONG}: axioms reported failing: {','.join(failed)}" \
            if failed else None

    def known_defect(reason):
        # inexact complex-float coefficients: axioms reported failing, or
        # the bracket's triangular elimination leaving a residue
        if not dyadic and (reason.startswith(WRONG) or
                           "failed to cancel the top term" in reason):
            return "lie_rinehart_nondyadic"
        return None

    return Job("lie_rinehart", record, run, check, known_defect)


# -- weighted membership ------------------------------------------------------

P_CHOICES = (Fraction(-1, 2), 0, Fraction(1, 3), Fraction(1, 2), 1,
             Fraction(3, 2), 2)
Q_CHOICES = (0, -1, -2, Fraction(-1, 2), Fraction(-3, 2))


def _membership(rng, shared, kind):
    i = rng.choice(COMPLETE_PHI if kind == "membership_inf"
                   else range(len(PHI_POOL)))
    phi = shared["phi"][i]
    n = math.inf if kind == "membership_inf" else rng.randint(1, 4)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[(rng.choice(P_CHOICES), rng.choice(Q_CHOICES))] = _coeff(rng)
    record = {"weight": f"phi{i}", "order": "inf" if n == math.inf else n,
              "terms": len(terms)}

    def run():
        return dc.membership_order(dc.RadialFunction(terms), phi, n)

    def check(res, oracle):
        phi_e = exact.term(*PHI_POOL[i])
        g = {}
        for (p, q), c in terms.items():
            g = exact.add(g, exact.term(c, p, q))
        top = min(n, MEMBERSHIP_CHECK_ORDER)
        first_fail = None
        for k in range(int(top) + 1):
            if not (exact.has_limit(g, "zero") and exact.has_limit(g, "far")):
                first_fail = k
                break
            g = exact.mul(phi_e, exact.d_t(g))
        record["failure_order"] = first_fail
        if res.is_member or not res.decided:
            if first_fail is not None:
                return f"{WRONG}: reported member, but X^{first_fail} f " \
                       f"has no limit at an endpoint"
            return None
        if first_fail is None:
            if res.failure_order is not None and res.failure_order > top:
                return None
            return f"{WRONG}: reported failure at order " \
                   f"{res.failure_order}, but X^k f is continuous for " \
                   f"k <= {top}"
        if res.failure_order != first_fail:
            return f"{WRONG}: failure order {res.failure_order}, " \
                   f"expected {first_fail}"
        return None

    return Job(kind, record, run, check)


# -- parametrix symbols -------------------------------------------------------

#: points (r, xi) where remainder symbols are compared with sympy
SYMBOL_POINTS = ((0.05, 2.0), (0.2, 5.0), (0.45, 3.0))


def _parametrix(shared, k, N):
    A = shared["parametrix_ops"][k]
    record = {"problem": "hydrogen Z=%d n=%d l=%d" % PARAMETRIX_PROBLEMS[k],
              "order": N}

    def run():
        return dc.parametrix_1d(A, N)

    def check(px, oracle):
        if len(px.terms) != N or px.remainder_order != 1 - N:
            return f"{WRONG}: {len(px.terms)} terms, remainder order " \
                   f"{px.remainder_order}"
        want = oracle.remainder_values(k, N, A)
        for (r, xi), w in zip(SYMBOL_POINTS, want):
            got = px.remainder.evaluate(r, xi)
            if abs(got - w) > 1e-9 * abs(w):
                return f"{WRONG}: remainder symbol at r={r}, xi={xi} is " \
                       f"{got}, its series expansion gives {w}"
        return None

    return Job("parametrix", record, run, check)


# -- oracle caches ------------------------------------------------------------

class Oracle:
    """Brute-force, sympy and series references, computed once per key."""

    def __init__(self, shared):
        self.shared = shared
        self._powers = {}
        self._sympy_keys = set()
        self._remainders = {}

    def x_power(self, i, j, n):
        """X composed with itself n times by op_compose (raw form)."""
        key = (i, j, n)
        if key not in self._powers:
            X = dc.DiffOp.X(self.shared["phi"][i], self.shared["psi"][j])
            out = X
            for _ in range(n - 1):
                out = dc.op_compose(X, out)
            self._powers[key] = out
        return self._powers[key]

    def sympy_x_power(self, i, j, n, raw):
        """Check the raw coefficients of X^n against sympy's expansion of
        (phi d/dt)^n f for the first few small keys of the run."""
        key = (i, j, n)
        if n > SYMPY_MAX_N or key in self._sympy_keys or \
                len(self._sympy_keys) >= SYMPY_XPOW_KEYS:
            return None
        self._sympy_keys.add(key)
        import sympy as sp

        t = sp.Symbol("t", positive=True)
        f = sp.Function("f")
        c, p, q = PHI_POOL[i]
        phi = sp.Rational(c) * t ** sp.Rational(p) * (1 + t) ** sp.Rational(q)
        g = f(t)
        for _ in range(n):
            g = sp.expand(phi * sp.diff(g, t))
        if (0, 0) in raw.coeffs:
            return f"{WRONG}: X^{n} has a zeroth-order raw term"
        for k in range(1, n + 1):
            want = g.coeff(sp.Derivative(f(t), (t, k)))
            have = raw.coeffs.get((k, 0))
            mine = 0 if have is None else sum(
                sp.Rational(cc) * t ** sp.Rational(pp)
                * (1 + t) ** sp.Rational(qq)
                for (pp, qq), cc in have.modes[0].terms.items())
            for x in (sp.Rational(1, 3), sp.Rational(9, 4)):
                a = sp.N(sp.sympify(want).subs(t, x), 30)
                b = sp.N(sp.sympify(mine).subs(t, x), 30)
                if abs(a - b) > sp.Float("1e-25") * (1 + abs(a)):
                    return f"{WRONG}: X^{n} coefficient of d_t^{k} differs " \
                           f"from sympy"
        return None

    def remainder_values(self, k, N, A):
        """The remainder symbol E_N = 1 - sigma # (q_0 + ... + q_{N-1}) at
        SYMBOL_POINTS, from sigma's definition and the composition formula,
        independent of degcalc's symbol classes.

        The composition formula differentiates only sigma in xi, so at a
        fixed xi every symbol is a function of r alone; each is carried as
        a Taylor series in h = r - r0 of degree m*N, which the m*N
        derivatives in r the recursion takes use up.
        """
        if (k, N) not in self._remainders:
            self._remainders[(k, N)] = [_taylor_remainder(A, N, r, xi)
                                        for r, xi in SYMBOL_POINTS]
        return self._remainders[(k, N)]


def _taylor_remainder(A, N, r0, xi):
    import mpmath

    with mpmath.workdps(40):
        m = max(i for (i, _) in A.coeffs)
        deg = m * N
        r0 = mpmath.mpf(r0)

        def series(rf):
            # sum c r^p (1-r)^q expanded around r0 by binomial series
            out = [mpmath.mpc(0)] * (deg + 1)
            for (p, q), c in rf.terms.items():
                p, q = exact._mp(p), exact._mp(q)
                a = [mpmath.binomial(p, j) * r0 ** (p - j)
                     for j in range(deg + 1)]
                b = [mpmath.binomial(q, j) * (-1) ** j * (1 - r0) ** (q - j)
                     for j in range(deg + 1)]
                out = [o + exact._mp(c) * v
                       for o, v in zip(out, _mul(a, b))]
            return out

        phi = series(A.phi.profile)
        coeff = {i: series(c.radial_part()) for (i, _), c in A.coeffs.items()}

        def d_xi_sigma(alpha):
            # d^alpha/dxi^alpha of sum a_i (i xi)^i
            out = [mpmath.mpc(0)] * (deg + 1)
            for i, a in coeff.items():
                if i >= alpha:
                    f = (1j ** i) * mpmath.ff(i, alpha) * \
                        mpmath.mpf(xi) ** (i - alpha)
                    out = [o + f * v for o, v in zip(out, a)]
            return out

        dsig = [d_xi_sigma(alpha) for alpha in range(m + 1)]

        def d_s(f):
            # D_s = -i phi d/dr, one order of the series used up
            df = [(j + 1) * f[j + 1] for j in range(len(f) - 1)]
            return [-1j * v for v in _mul(phi[:len(df)], df)]

        def sharp(q):
            out = [mpmath.mpc(0)] * (len(q) - m)
            dq = q
            for alpha in range(m + 1):
                if alpha:
                    dq = d_s(dq)
                term = _mul(dsig[alpha][:len(out)], dq[:len(out)])
                out = [o + v / mpmath.factorial(alpha)
                       for o, v in zip(out, term)]
            return out

        q0 = _inverse(dsig[0])
        E = [1 - v if j == 0 else -v for j, v in enumerate(sharp(q0))]
        for _ in range(1, N):
            E = [e - v for e, v in zip(E, sharp(_mul(q0[:len(E)], E)))]
        return complex(E[0])


def _mul(a, b):
    n = min(len(a), len(b))
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(n)]


def _inverse(a):
    out = [1 / a[0]]
    for j in range(1, len(a)):
        out.append(-sum(a[i] * out[j - i] for i in range(1, j + 1)) / a[0])
    return out
