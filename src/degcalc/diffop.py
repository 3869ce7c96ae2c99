"""Differential operators on the cylinder [0, inf] x S^1.

Operators come in three coefficient forms:

* ``raw``:       sum_{i,j} b_{ij}(t, theta) dt^i dtheta^j
* ``lie``:       sum_{i,j} c_{ij} X^i Y^j  with X = phi*dt, Y = psi*dtheta
* ``monomial``:  sum_{i,j} c_{ij} phi^i psi^j dt^i dtheta^j

Raw form is the computational workhorse (exact Leibniz composition); lie and
monomial are the two normal forms.  A lie term reaches raw form by one
recurrence, X applied i times from the left to Y^j = psi^j dtheta^j, and
``op_compose``'s general Leibniz rule is an independent oracle for it.  The
raw terms of X^i Y^j and the monomials phi^i psi^j belong to the weight pair,
not to one operator: every conversion over (phi, psi) reads one table of
them, kept on phi and freed with it.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from math import comb

from .errors import PreconditionError
from .powerfun import HALF_LINE, RadialFunction
from .weights import Weight

import numpy as np


class CylinderFunction:
    """Finite Fourier sum  sum_m f_m(t) e^{i m theta}  with ring coefficients."""

    __slots__ = ("modes", "domain")

    def __init__(self, modes, domain=HALF_LINE):
        for m, f in modes.items():
            if not isinstance(m, int):
                raise TypeError("Fourier modes must be integers")
            if not isinstance(f, RadialFunction):
                raise TypeError("Fourier coefficients must be RadialFunctions")
            if f.domain != domain:
                raise PreconditionError("mixed base domains")
        _cylinder(modes, domain, out=self)

    def __setattr__(self, name, value):
        raise AttributeError("CylinderFunction is immutable")

    @classmethod
    def radial(cls, f):
        if not isinstance(f, RadialFunction):
            raise TypeError("expected a RadialFunction")
        return _cylinder({0: f}, f.domain)

    @classmethod
    def const(cls, c, domain=HALF_LINE):
        return _cylinder({0: RadialFunction.const(c, domain=domain)}, domain)

    @classmethod
    def zero(cls, domain=HALF_LINE):
        return _cylinder({}, domain)

    @classmethod
    def harmonic(cls, m, domain=HALF_LINE):
        """e^{i m theta}"""
        return cls({m: RadialFunction.const(1, domain=domain)}, domain=domain)

    @property
    def is_zero(self):
        return not self.modes

    @property
    def is_radial(self):
        return set(self.modes) <= {0}

    def radial_part(self):
        return self.modes.get(0, RadialFunction.zero(domain=self.domain))

    def __add__(self, other):
        merged = dict(self.modes)
        _add_all(merged, _as_cylinder(other, self.domain).modes)
        return _cylinder(merged, self.domain)

    __radd__ = __add__

    def __neg__(self):
        return _cylinder({m: -f for m, f in self.modes.items()}, self.domain)

    def __sub__(self, other):
        return self + (-_as_cylinder(other, self.domain))

    def __mul__(self, other):
        if isinstance(other, (CylinderFunction, RadialFunction)):
            modes = _times_modes(self.modes,
                                 _as_cylinder(other, self.domain).modes)
        elif isinstance(other, (int, float, complex)) or \
                hasattr(other, "numerator"):
            modes = {m: f * other for m, f in self.modes.items()}
        else:
            return NotImplemented  # an operator's __rmul__ takes over
        return _cylinder(modes, self.domain)

    __rmul__ = __mul__

    def d_t(self):
        return _cylinder({m: f.derivative() for m, f in self.modes.items()},
                         self.domain)

    def d_theta(self):
        return _cylinder({m: f * (1j * m) for m, f in self.modes.items()
                          if m != 0}, self.domain)

    def __eq__(self, other):
        if not isinstance(other, CylinderFunction):
            return NotImplemented
        return self.domain == other.domain and self.modes == other.modes

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            return "CylinderFunction(0)"
        parts = [f"e^{{{m}i theta}}*({f.to_text()})"
                 for m, f in sorted(self.modes.items())]
        return "CylinderFunction(" + " + ".join(parts) + ")"


def _cylinder(modes, domain, out=None):
    """A new cylinder function, or ``out`` given these fields, from modes
    already checked: the zero ones are dropped, nothing is validated again."""
    out = CylinderFunction.__new__(CylinderFunction) if out is None else out
    object.__setattr__(out, "modes", {m: f for m, f in modes.items()
                                      if not f.is_zero})
    object.__setattr__(out, "domain", domain)
    return out


def _as_cylinder(c, domain):
    if isinstance(c, RadialFunction):
        c = CylinderFunction.radial(c)
    if isinstance(c, CylinderFunction):
        if c.domain != domain:
            raise PreconditionError("mixed base domains")
        return c
    return CylinderFunction.const(c, domain=domain)


def _times_modes(a, b):
    """The product of the mode dicts a and b; each mode sums its products
    f1 f2 in the order of the pairs, and a zero sum is kept."""
    merged = {}
    for m1, f1 in a.items():
        for m2, f2 in b.items():
            m, prod = m1 + m2, f1 * f2
            merged[m] = merged[m] + prod if m in merged else prod
    return merged


def _add_all(terms, other, w=1):
    """terms[key] += w f for each (key, f) of ``other``, f ring or cylinder
    functions: a zero w f adds nothing, and a zero sum is dropped."""
    for key, f in other.items():
        if w != 1 and not f.is_zero:
            f = f * w
        if f.is_zero:
            continue
        old = terms.get(key)
        if old is not None:
            f = old + f
            if f.is_zero:
                del terms[key]
                continue
        terms[key] = f


class DiffOp:
    """A differential operator on the cylinder in one of the three forms.

    ``_parametrix`` holds the parametrix recursion built so far
    (``parametrix_1d``); it is freed with the operator.
    """

    __slots__ = ("form", "coeffs", "phi", "psi", "_parametrix")

    def __init__(self, form, coeffs, phi, psi=None):
        if form not in ("raw", "lie", "monomial"):
            raise ValueError(f"unknown form {form!r}")
        if psi is None:
            psi = Weight.from_term(1, 1, 0, domain=phi.domain)
        if phi.domain != psi.domain:
            raise PreconditionError("phi and psi on different domains")
        _op(form, {(int(i), int(j)): _as_cylinder(c, phi.domain)
                   for (i, j), c in coeffs.items()}, phi, psi, out=self)

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    @property
    def domain(self):
        return self.phi.domain

    @property
    def order(self):
        if not self.coeffs:
            return -math.inf
        return max(i + j for (i, j) in self.coeffs)

    @property
    def is_radial(self):
        return all(j == 0 and c.is_radial for (i, j), c in self.coeffs.items())

    @classmethod
    def identity(cls, phi, psi=None):
        one = CylinderFunction.const(1, domain=phi.domain)
        return cls("raw", {(0, 0): one}, phi, psi)

    @classmethod
    def X(cls, phi, psi=None):
        return cls("lie", {(1, 0): 1}, phi, psi)

    @classmethod
    def Y(cls, phi, psi):
        return cls("lie", {(0, 1): 1}, phi, psi)

    def _over(self, phi, psi):
        """Whether the operator is built over phi and psi, by value."""
        return ((self.phi is phi or self.phi == phi)
                and (self.psi is psi or self.psi == psi))

    def _basis(self):
        """The basis table of (phi, psi): on phi, keyed by psi's exact value
        ``psi.profile.key()``, so equal weights built apart share it."""
        tables, key = self.phi._bases, self.psi.profile.key()
        table = tables.get(key)
        if table is None:
            table = tables[key] = _Basis(self.phi, self.psi)
        return table

    # -- form conversions ------------------------------------------------

    def _require_single_terms(self, target):
        if not all(w.profile.is_single_term for w in (self.phi, self.psi)):
            raise PreconditionError(
                f"exact {target} form needs single-term phi and psi")

    def to_raw(self):
        if self.form == "raw":
            return self
        basis = self._basis()
        raw = {}
        for (i, j), c in self.coeffs.items():
            for key, b in basis[self.form, i, j].items():
                _raw_add(raw, key, _times_modes(c.modes, {0: b}))
        return _op("raw", _cylinders(raw, self.domain), self.phi, self.psi)

    def to_monomial(self):
        if self.form == "monomial":
            return self
        self._require_single_terms("monomial")
        basis = self._basis()
        return _op("monomial", {(i, j): basis.divide(i, j, b.modes)
                                for (i, j), b in self.to_raw().coeffs.items()},
                   self.phi, self.psi)

    def to_lie(self):
        """Triangular elimination from the highest (i + j, i) raw term."""
        if self.form == "lie":
            return self
        self._require_single_terms("lie")
        basis = self._basis()
        remaining = {key: dict(b.modes)
                     for key, b in self.to_raw().coeffs.items()}
        lie = {}
        while remaining:
            (i, j) = max(remaining, key=lambda k: (k[0] + k[1], k[0]))
            c = lie[(i, j)] = basis.divide(i, j, remaining[(i, j)])
            # subtract c * X^i Y^j; the top raw term cancels exactly
            for key, b in basis["lie", i, j].items():
                _raw_add(remaining, key, {m: -f for m, f in _times_modes(
                    c.modes, {0: b}).items() if not f.is_zero})
            if (i, j) in remaining:
                raise PreconditionError(
                    "triangular elimination failed to cancel the top term")
        return _op("lie", lie, self.phi, self.psi)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other, negate=False):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if not self._over(other.phi, other.psi):
            raise PreconditionError("operators built over different weights")
        a, b = self.to_raw(), other.to_raw()
        merged = dict(a.coeffs)
        _add_all(merged, {key: -c for key, c in b.coeffs.items()}
                 if negate else b.coeffs)
        return _op("raw", merged, self.phi, self.psi)

    def __sub__(self, other):
        return self.__add__(other, negate=True)

    def __mul__(self, scalar):
        return DiffOp(self.form, {k: c * scalar
                                  for k, c in self.coeffs.items()},
                      self.phi, self.psi)

    __rmul__ = __mul__

    def apply(self, f):
        """Exact action on a cylinder function."""
        f = _as_cylinder(f, self.domain)
        out = {}
        for (i, j), b in self.to_raw().coeffs.items():
            _add_all(out, _times_modes(b.modes, _partial(f, i, j).modes))
        return _cylinder(out, self.domain)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if not self._over(other.phi, other.psi):
            return False
        return self.to_raw().coeffs == other.to_raw().coeffs

    __hash__ = None

    def to_text(self):
        """Render the operator in its current form."""
        if not self.coeffs:
            return "0"
        sym = {"raw": ("d_t", "d_theta"), "lie": ("X", "Y"),
               "monomial": ("phi d_t", "psi d_theta")}[self.form]
        parts = []
        for (i, j) in sorted(self.coeffs, key=lambda k: (k[0] + k[1], k[0]),
                             reverse=True):
            c = self.coeffs[(i, j)]
            piece = f"[{c!r}]"
            if i:
                piece += f" {sym[0]}^{i}" if i > 1 else f" {sym[0]}"
            if j:
                piece += f" {sym[1]}^{j}" if j > 1 else f" {sym[1]}"
            parts.append(piece)
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffOp({self.form}: {self.to_text()})"


def _op(form, coeffs, phi, psi, out=None):
    """A new operator, or ``out`` given these fields, from coefficients
    already checked: the zero ones are dropped, nothing is validated again."""
    out = DiffOp.__new__(DiffOp) if out is None else out
    object.__setattr__(out, "form", form)
    object.__setattr__(out, "coeffs", {k: c for k, c in coeffs.items()
                                       if not c.is_zero})
    object.__setattr__(out, "phi", phi)
    object.__setattr__(out, "psi", psi)
    object.__setattr__(out, "_parametrix", None)
    return out


def _raw_add(raw, key, modes, w=1):
    """raw[key] += w times these modes, for raw {(i, j): mode dict}."""
    _add_all(raw.setdefault(key, {}), modes, w)
    if not raw[key]:
        del raw[key]


def _cylinders(raw, domain):
    return {key: _cylinder(modes, domain) for key, modes in raw.items()}


class _Basis(dict):
    """Raw terms {(k, l): b} of the basis operators, for one weight pair,
    kept in phi's ``_bases`` under psi's ``profile.key()``.

    Keys ("monomial", i, j): phi^i psi^j dt^i dtheta^j.  ("lie", i, j):
    X^i Y^j = X o X^{i-1} Y^j, down to Y^j = psi^j dtheta^j, by X o b dt^k
    dtheta^l = phi b' dt^k dtheta^l + phi b dt^{k+1} dtheta^l.  ("phi", i)
    and ("psi", j): the powers, phi^i = phi^{i-1} phi as ``**`` forms them.
    Each entry is formed once, from the one below it, and never mutated, so
    it is the same in whatever order the entries are asked for.
    """

    def __init__(self, phi, psi):
        one = RadialFunction.const(1, domain=phi.domain)
        super().__init__({("phi", 0): one, ("phi", 1): phi.profile,
                          ("psi", 0): one, ("psi", 1): psi.profile})

    def __missing__(self, key):
        if len(key) == 2:
            val = self[key[0], key[1] - 1] * self[key[0], 1]
        elif key[0] == "monomial":
            val = {key[1:]: self["phi", key[1]] * self["psi", key[2]]}
        elif key[1] == 0:
            val = {(0, key[2]): self["psi", key[2]]}
        else:
            val, prof = {}, self["phi", 1]
            for (k, l), b in self["lie", key[1] - 1, key[2]].items():
                _add_all(val, {(k, l): prof * b.derivative()})
                _add_all(val, {(k + 1, l): prof * b})
        self[key] = val
        return val

    def divide(self, i, j, modes):
        """The raw coefficient with these modes divided by phi^i psi^j."""
        den = self["monomial", i, j][i, j]
        return _cylinder({m: f.divide_term(den) for m, f in modes.items()},
                         den.domain)


def _partial(f, i, j):
    """dt^i dtheta^j f of a cylinder function, the dtheta steps first."""
    for _ in range(j):
        f = f.d_theta()
    for _ in range(i):
        f = f.d_t()
    return f


def _leibniz(A, B, top):
    """A o B from the raw forms; without the terms m = l = 0 unless ``top``.

    b1 dt^{i1} dtheta^{j1} o b2 dt^{i2} dtheta^{j2} is the sum over m <= i1,
    l <= j1 of C(i1, m) C(j1, l) b1 (dt^m dtheta^l b2) dt^{i1-m+i2}
    dtheta^{j1-l+j2}; dtheta passes through the radial-in-t derivatives.
    A weight of 1 multiplies nothing.
    """
    if not A._over(B.phi, B.psi):
        raise PreconditionError("operators built over different weights")
    a, b = A.to_raw().coeffs, B.to_raw().coeffs
    raw = {}
    for (i1, j1), b1 in a.items():
        for (i2, j2), b2 in b.items():
            for m in range(i1 + 1):
                for l in range(0 if top or m else 1, j1 + 1):
                    _raw_add(raw, (i1 - m + i2, j1 - l + j2),
                             _times_modes(b1.modes,
                                          _partial(b2, m, l).modes),
                             comb(i1, m) * comb(j1, l))
    return _op("raw", _cylinders(raw, A.domain), A.phi, A.psi)


def op_compose(A, B):
    """Exact composition by Leibniz expansion of the raw forms."""
    return _leibniz(A, B, top=True)


def op_commutator(A, B):
    """A o B - B o A without the terms m = l = 0 of either side.

    Each pair's term b1 b2 dt^{i1+i2} dtheta^{j1+j2} of A o B meets the term
    b2 b1 of B o A at the same place, and cylinder functions commute, so the
    two cancel exactly and neither is formed.
    """
    a, b = A.to_raw(), B.to_raw()
    return _leibniz(a, b, top=False) - _leibniz(b, a, top=False)


# -- Lie-Rinehart axioms ---------------------------------------------------


class VectorField(DiffOp):
    """First-order field u*X + v*Y with ring (cylinder) coefficients, as a
    lie-form DiffOp."""

    __slots__ = ()

    def __init__(self, u, v, phi, psi):
        super().__init__("lie", {(1, 0): u, (0, 1): v}, phi, psi)


def _bracket(Z, W):
    """[Z, W] of first-order fields, in lie form (it has order <= 1)."""
    return op_commutator(Z, W).to_lie()


def random_lie_rinehart_samples(phi, psi, count, seed=0):
    """Random fields and functions for the axiom checker.

    Coefficients are dyadic rationals so that every product, including the
    complex factors from Fourier derivatives, is exact in floating point and
    the axioms cancel to literal zero.
    """
    import random as _random

    rng = _random.Random(seed)
    dom = phi.domain
    from fractions import Fraction

    def rnd_rf():
        coeff = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4]))
        p = Fraction(rng.randint(0, 4), 2)
        q = -rng.randint(0, 2) if dom == HALF_LINE else rng.randint(0, 2)
        return RadialFunction.term(coeff, p, q, domain=dom)

    def rnd_cf():
        return CylinderFunction({rng.randint(-1, 1): rnd_rf()}, domain=dom)

    return [{**{name: VectorField(rnd_cf(), rnd_cf(), phi, psi)
                for name in "ZWU"}, "a": rnd_cf(), "f": rnd_cf()}
            for _ in range(count)]


def lie_rinehart_check(phi, psi, samples):
    """Verify the Lie-Rinehart axioms exactly on sample data.

    ``samples`` is a list of dicts with keys Z, W, U (VectorFields over
    phi and psi) and a, f (CylinderFunctions).  Each axiom is checked by
    exact symbolic equality; the report maps axiom name to (passed,
    counterexample count).  A field built over other weights raises
    PreconditionError.
    """
    fails = dict.fromkeys(("jacobi", "leibniz", "module_action",
                           "module_bracket", "derivation"), 0)
    for n, s in enumerate(samples):
        for name in ("Z", "W", "U"):
            if not s[name]._over(phi, psi):
                raise PreconditionError(f"sample {n}: field {name} is built "
                                        "over other weights than phi, psi")
        Z, W, U = s["Z"], s["W"], s["U"]
        a, f = s["a"], s["f"]
        ZW, Za, Zf = _bracket(Z, W), Z.apply(a), Z.apply(f)
        aZ, aZW = Z * a, ZW * a
        j1 = _bracket(ZW, U).apply(f)
        j2 = _bracket(_bracket(W, U), Z).apply(f)
        j3 = _bracket(_bracket(U, Z), W).apply(f)
        holds = ((j1 + j2 + j3).is_zero,
                 # [Z, aW] = Z(a) W + a [Z, W]
                 _bracket(Z, W * a) == W * Za + aZW,
                 aZ.apply(f) == a * Zf,
                 # [aZ, W] = a [Z, W] - W(a) Z
                 _bracket(aZ, W) == aZW - Z * W.apply(a),
                 Z.apply(a * f) == Za * f + a * Zf)
        for name, ok in zip(fails, holds):
            fails[name] += not ok
    return {name: (k == 0, k) for name, k in fails.items()}


# -- symbols ---------------------------------------------------------------


def _trim_poly(poly):
    while poly and poly[-1].is_zero:
        poly.pop()
    return poly


def _poly_add(a, b):
    return [x if y is None else y if x is None else x + y
            for x, y in zip_longest(a, b)]


def _poly_mul(a, b):
    """Each slot of the product starts from its first product: 0 + p is p."""
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            p = ca * cb
            out[i + j] = p if out[i + j] is None else out[i + j] + p
    return out


def _poly_eval(poly, t, u, e):
    """poly(2^e u) / 2^(e deg poly) at t by Horner's rule in u, each
    coefficient scaled by its power of two."""
    val, d = 0j, len(poly) - 1
    for k in range(d, -1, -1):
        val = val * u + poly[k](t) * np.ldexp(1.0, e * (k - d))
    return val


def radial_symbol(A):
    """Full symbol of a radial operator in the flow coordinate.

    The operator must be in lie form with radial coefficients; X = d/ds there,
    so A = sum a_i X^i has symbol sum a_i zeta^i in zeta = i xi, and its
    coefficients are A's lie coefficients as they stand.  It is returned as
    the PoweredSymbol with itself as base and power 0, the shape the
    parametrix recursion divides by.
    """
    lie = A.to_lie()
    if not lie.is_radial:
        raise PreconditionError("radial symbol needs a radial operator")
    mmax = max((i for (i, _) in lie.coeffs), default=0)
    poly = [RadialFunction.zero(domain=A.domain)] * (mmax + 1)
    for (i, _), c in lie.coeffs.items():
        poly[i] = c.radial_part()
    poly = _trim_poly(poly)
    return PoweredSymbol(poly, poly, 0)


class PoweredSymbol:
    """Rational symbol of the special shape  num / base^power,  num and base
    polynomials in zeta = i xi with ring coefficients, so that every
    coefficient stays exact; only ``evaluate`` reads zeta as i xi.

    The parametrix recursion only ever produces denominators that are powers
    of the full symbol, so pinning the base keeps X polynomial instead of
    compounding unreduced quotients, and ``parametrix_1d`` sums its terms
    over one power of it.  A polynomial symbol (power 0) stays at power 0
    under X, so for an operator of order m the remainder E_N has power
    (m + 1) N.  ``num`` is copied and trimmed.
    """

    __slots__ = ("num", "base", "power")

    def __init__(self, num, base, power):
        self.num = _trim_poly(list(num))
        self.base = base
        self.power = int(power)

    @property
    def is_zero(self):
        return not self.num

    @property
    def order(self):
        if not self.num:
            return -math.inf
        return (len(self.num) - 1) - self.power * (len(self.base) - 1)

    def X(self, phi):
        """X = phi d/dt, which is d/ds in the flow coordinate, on each
        coefficient, by the quotient rule."""
        prof = phi.profile

        def d(poly):
            return [prof * c.derivative() for c in poly]

        if self.power == 0:
            return PoweredSymbol(d(self.num), self.base, 0)
        num = _poly_add(_poly_mul(d(self.num), self.base),
                        _poly_mul(self.num,
                                  [c * -self.power for c in d(self.base)]))
        return PoweredSymbol(num, self.base, self.power + 1)

    def evaluate(self, t, xi):
        """The value at (t, zeta = i xi): floats, or numpy arrays that
        broadcast.  Where |xi| >= 1, zeta is scaled by 2^-e, e the binary
        exponent of xi, and the quotient is scaled back by 2^(e order):
        powers of two keep every bit, and num and base^power stay near the
        size of their coefficients however large xi is."""
        e = np.maximum(np.frexp(xi)[1], 0)
        u = 1j * np.ldexp(xi, -e)
        order = len(self.num) - 1 - self.power * (len(self.base) - 1)
        return (_poly_eval(self.num, t, u, e)
                / _poly_eval(self.base, t, u, e) ** self.power
                * np.ldexp(1.0, e * order))

    def __repr__(self):
        return (f"PoweredSymbol(deg {len(self.num) - 1} num / "
                f"base^{self.power})")


class ParametrixExpansion:
    """Finite symbol parametrix: terms q_0 ... q_{N-1} and the remainders
    E_0 = 1, ..., E_N of their partial sums; ``remainder`` is E_N."""

    def __init__(self, terms, remainders, remainder_order):
        self.terms = terms
        self.remainders = remainders
        self.remainder = remainders[-1]
        self.remainder_order = remainder_order


def parametrix_1d(A, N):
    """N-term symbolic parametrix of an elliptic radial operator.

    Works in the flow coordinate where X = d/ds, with symbols in zeta = i xi.
    Returns a ParametrixExpansion with ord(q_k) <= -m - k (a bound:
    hydrogen's and the oscillator's q_0, q_1, q_2 have orders -2, -4, -5 at
    m = 2) and the exact remainder symbols E_k = 1 - sigma_A # (q_0 + ... +
    q_{k-1}).  In zeta, d_xi = i d_zeta and D_s = -i X, so the composition
    sigma # q = sum_alpha (1/alpha!) d_xi^alpha sigma * D_s^alpha q is
    sum_alpha (1/alpha!) d_zeta^alpha sigma * X^alpha q, with alpha up to m.
    Each step takes q_k = E_k / sigma, whose term alpha = 0 is E_k itself,
    so E_{k+1} is the rest of the sum, negated.  Its term alpha has the
    power of q_k plus alpha, so the numerators are summed by Horner's rule
    in sigma: the running sum times sigma, plus the next term.  An operator
    in another form is read through its lie form, so every form of one
    operator has one parametrix.

    The recursion lives on the operator and is freed with it: the terms and
    remainders built so far are kept once the symbol passes
    ``_check_invertible``, and a higher order extends them, so it reuses
    the lower ones.  An operator that fails the check keeps nothing and
    raises on every call.
    """
    if N < 0:
        raise PreconditionError(f"parametrix order must be >= 0, got {N}")
    if A._parametrix is None:
        a = radial_symbol(A).num
        _check_invertible(a)
        # -(1/alpha!) d_zeta^alpha sigma for alpha = 1 .. m
        dsig = [[a[k] * -comb(k, alpha) for k in range(alpha, len(a))]
                for alpha in range(1, len(a))]
        one = PoweredSymbol([RadialFunction.const(1, domain=A.domain)], a, 0)
        object.__setattr__(A, "_parametrix", (dsig, [], [one]))
    dsig, terms, remainders = A._parametrix
    while len(terms) < N:
        last = remainders[-1]
        q = dq = PoweredSymbol(last.num, last.base, last.power + 1)
        num = []
        for d in dsig:  # num over base^dq.power, by Horner's rule in base
            dq = dq.X(A.phi)
            num = _trim_poly(_poly_add(_poly_mul(num, q.base),
                                       _trim_poly(_poly_mul(d, dq.num))))
        terms.append(q)
        remainders.append(PoweredSymbol(num, q.base, dq.power))
    m = len(dsig)
    return ParametrixExpansion(terms[:N], remainders[:N + 1],
                               m - 1 - N if N else m)


def _check_invertible(poly):
    """Raise PreconditionError unless the symbol with these coefficients of
    zeta = i xi is invertible up to the faces.

    Its leading coefficient must tend to a finite nonzero limit at both
    faces, read exactly as the exponent 0 of ``leading``, and be nonzero at
    32 radii, uniform in u over [-11, 11]; otherwise the operator is not
    elliptic.  At the same radii the coefficients are evaluated and read in
    xi, the coefficient of zeta^k times i^k, and the roots of the resulting
    polynomials, the eigenvalues of their companion matrices, must lie off
    the real axis; a vanishing constant coefficient is the root xi = 0.
    """
    u = np.linspace(-11.0, 11.0, 32)
    p = np.array([c.at_u(u) * 1j ** k for k, c in enumerate(poly)][::-1],
                 dtype=complex).T
    if not poly or not p[:, 0].all() or any(
            poly[-1].leading(end)[0] != 0 for end in ("zero", "far")):
        raise PreconditionError(
            "operator is not elliptic on its radial sector")
    if p[:, -1].all():
        n = p.shape[1] - 1
        companion = np.zeros((len(p), n, n), dtype=complex)
        companion[:, :1] = -p[:, None, 1:] / p[:, None, :1]
        companion[:, range(1, n), range(n - 1)] = 1.0
        roots = np.linalg.eigvals(companion)
        if not (abs(roots.imag)
                <= 1e-9 * np.maximum(1.0, abs(roots.real))).any():
            return
    raise PreconditionError(
        "full symbol vanishes for real xi; shift the operator off its "
        "spectrum before building a parametrix")
