"""Differential operators on the cylinder [0, inf] x S^1.

Operators come in three coefficient forms:

* ``raw``:       sum_{i,j} b_{ij}(t, theta) dt^i dtheta^j
* ``lie``:       sum_{i,j} c_{ij} X^i Y^j  with X = phi*dt, Y = psi*dtheta
* ``monomial``:  sum_{i,j} c_{ij} phi^i psi^j dt^i dtheta^j

Raw form is the computational workhorse (exact Leibniz composition); lie and
monomial are the two normal forms.  A lie term reaches raw form by one
recurrence, X applied i times from the left to Y^j = psi^j dtheta^j, and
``op_compose``'s general Leibniz rule is an independent oracle for it.
"""

from __future__ import annotations

import math
from math import comb

from .errors import DomainMismatchError, PreconditionError
from .powerfun import HALF_LINE, RadialFunction
from .weights import Weight, membership_order

import numpy as np

#: interior points of the sampled closure check
CLOSURE_SAMPLES = 64


class CylinderFunction:
    """Finite Fourier sum  sum_m f_m(t) e^{i m theta}  with ring coefficients."""

    __slots__ = ("modes", "domain")

    def __init__(self, modes, domain=HALF_LINE):
        clean = {}
        for m, f in modes.items():
            if not isinstance(m, int):
                raise TypeError("Fourier modes must be integers")
            if not isinstance(f, RadialFunction):
                raise TypeError("Fourier coefficients must be RadialFunctions")
            if f.domain != domain:
                raise DomainMismatchError("mixed base domains")
            if not f.is_zero:
                clean[m] = f
        object.__setattr__(self, "modes", clean)
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name, value):
        raise AttributeError("CylinderFunction is immutable")

    @classmethod
    def radial(cls, f):
        if not isinstance(f, RadialFunction):
            raise TypeError("expected a RadialFunction")
        return cls({0: f}, domain=f.domain)

    @classmethod
    def const(cls, c, domain=HALF_LINE):
        return cls({0: RadialFunction.const(c, domain=domain)}, domain=domain)

    @classmethod
    def zero(cls, domain=HALF_LINE):
        return cls({}, domain=domain)

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
        other = _as_cylinder(other, self.domain)
        merged = dict(self.modes)
        for m, f in other.modes.items():
            merged[m] = merged[m] + f if m in merged else f
        return CylinderFunction(merged, domain=self.domain)

    __radd__ = __add__

    def __neg__(self):
        return CylinderFunction({m: -f for m, f in self.modes.items()},
                                domain=self.domain)

    def __sub__(self, other):
        return self + (-_as_cylinder(other, self.domain))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)) or hasattr(other, "numerator"):
            return CylinderFunction({m: f * other
                                     for m, f in self.modes.items()},
                                    domain=self.domain)
        if not isinstance(other, (RadialFunction, CylinderFunction)):
            return NotImplemented  # an operator's __rmul__ takes over
        other = _as_cylinder(other, self.domain)
        merged = {}
        for m1, f1 in self.modes.items():
            for m2, f2 in other.modes.items():
                m = m1 + m2
                prod = f1 * f2
                merged[m] = merged[m] + prod if m in merged else prod
        return CylinderFunction(merged, domain=self.domain)

    __rmul__ = __mul__

    def d_t(self):
        return CylinderFunction({m: f.derivative()
                                 for m, f in self.modes.items()},
                                domain=self.domain)

    def d_theta(self):
        return CylinderFunction({m: f * (1j * m)
                                 for m, f in self.modes.items() if m != 0},
                                domain=self.domain)

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


def _as_cylinder(c, domain):
    if isinstance(c, RadialFunction):
        c = CylinderFunction.radial(c)
    if isinstance(c, CylinderFunction):
        if c.domain != domain:
            raise DomainMismatchError("mixed base domains")
        return c
    return CylinderFunction.const(c, domain=domain)


class DiffOp:
    """A differential operator on the cylinder in one of the three forms."""

    __slots__ = ("form", "coeffs", "phi", "psi")

    def __init__(self, form, coeffs, phi, psi=None):
        if form not in ("raw", "lie", "monomial"):
            raise ValueError(f"unknown form {form!r}")
        if psi is None:
            psi = Weight.from_term(1, 1, 0, domain=phi.domain)
        if phi.domain != psi.domain:
            raise DomainMismatchError("phi and psi on different domains")
        clean = {}
        for (i, j), c in coeffs.items():
            cf = _as_cylinder(c, phi.domain)
            if not cf.is_zero:
                clean[(int(i), int(j))] = cf
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

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

    def _same_weights(self, other):
        return (self.phi == other.phi and self.psi == other.psi)

    # -- form conversions ------------------------------------------------

    def _require_single_terms(self, target):
        if not all(w.profile.is_single_term for w in (self.phi, self.psi)):
            raise PreconditionError(
                f"exact {target} form needs single-term phi and psi")

    def to_raw(self, basis=None):
        """Raw form; ``basis`` shares the powers of a conversion through it."""
        if self.form == "raw":
            return self
        basis = basis or _Basis(self)
        raw = {}
        for (i, j), c in self.coeffs.items():
            for (k, l), b in basis[self.form, i, j].items():
                _raw_add(raw, k, l, c * b)
        return DiffOp("raw", raw, self.phi, self.psi)

    def to_monomial(self):
        if self.form == "monomial":
            return self
        self._require_single_terms("monomial")
        basis = _Basis(self)
        return DiffOp("monomial", {(i, j): basis.divide(i, j, b) for (i, j), b
                                   in self.to_raw(basis).coeffs.items()},
                      self.phi, self.psi)

    def to_lie(self):
        """Triangular elimination from the highest (i + j, i) raw term."""
        if self.form == "lie":
            return self
        self._require_single_terms("lie")
        basis = _Basis(self)
        remaining = dict(self.to_raw(basis).coeffs)
        lie = {}
        while remaining:
            (i, j) = max(remaining, key=lambda k: (k[0] + k[1], k[0]))
            c = lie[(i, j)] = basis.divide(i, j, remaining[(i, j)])
            # subtract c * X^i Y^j; the top raw term cancels exactly
            for (k, l), b in basis["lie", i, j].items():
                _raw_add(remaining, k, l, -(c * b))
            if (i, j) in remaining:
                raise PreconditionError(
                    "triangular elimination failed to cancel the top term")
        return DiffOp("lie", lie, self.phi, self.psi)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other, negate=False):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if not self._same_weights(other):
            raise PreconditionError("operators built over different weights")
        a, b = self.to_raw(), other.to_raw()
        merged = dict(a.coeffs)
        for key, c in b.coeffs.items():
            _raw_add(merged, key[0], key[1], -c if negate else c)
        return DiffOp("raw", merged, self.phi, self.psi)

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
        raw = self.to_raw()
        out = CylinderFunction.zero(self.domain)
        for (i, j), b in raw.coeffs.items():
            g = f
            for _ in range(j):
                g = g.d_theta()
            for _ in range(i):
                g = g.d_t()
            out = out + b * g
        return out

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if not self._same_weights(other):
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


def _raw_add(raw, i, j, c):
    key = (i, j)
    cur = raw.get(key)
    new = c if cur is None else cur + c
    if new.is_zero:
        raw.pop(key, None)
    else:
        raw[key] = new


class _Basis(dict):
    """Raw terms {(k, l): b} of the basis operators, for one conversion.

    Keys ("monomial", i, j): phi^i psi^j dt^i dtheta^j.  ("lie", i, j):
    X^i Y^j = X o X^{i-1} Y^j, down to Y^j = psi^j dtheta^j, by X o b dt^k
    dtheta^l = phi b' dt^k dtheta^l + phi b dt^{k+1} dtheta^l.  ("phi", i)
    and ("psi", j): the powers, phi^i = phi^{i-1} phi as ``**`` forms them.
    Each entry is formed once, from the one below it.
    """

    def __init__(self, op):
        one = RadialFunction.const(1, domain=op.domain)
        super().__init__({("phi", 0): one, ("phi", 1): op.phi.profile,
                          ("psi", 0): one, ("psi", 1): op.psi.profile})

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
                _raw_add(val, k, l, prof * b.derivative())
                _raw_add(val, k + 1, l, prof * b)
        self[key] = val
        return val

    def divide(self, i, j, b):
        """The raw coefficient b divided by phi^i psi^j."""
        den = self["monomial", i, j][i, j]
        return CylinderFunction({m: f.divide_term(den)
                                 for m, f in b.modes.items()},
                                domain=b.domain)


def check_weight_admissible(phi):
    """phi' must lie in C_phi^(infinity); raise otherwise."""
    res = membership_order(phi.profile.derivative(), phi, math.inf)
    if not res.is_member:
        raise PreconditionError(
            "phi' does not lie in the infinite-order class of phi; "
            "normal forms would leave the ring")


def _leibniz(A, B, top):
    """A o B from the raw forms; without the terms m = l = 0 unless ``top``.

    b1 dt^{i1} dtheta^{j1} o b2 dt^{i2} dtheta^{j2} is the sum over m <= i1,
    l <= j1 of C(i1, m) C(j1, l) b1 (dt^m dtheta^l b2) dt^{i1-m+i2}
    dtheta^{j1-l+j2}; dtheta passes through the radial-in-t derivatives.
    A weight of 1 multiplies nothing.
    """
    if not A._same_weights(B):
        raise PreconditionError("operators built over different weights")
    a, b = A.to_raw().coeffs, B.to_raw().coeffs
    raw = {}
    for (i1, j1), b1 in a.items():
        for (i2, j2), b2 in b.items():
            for m in range(i1 + 1):
                for l in range(0 if top or m else 1, j1 + 1):
                    g = b2
                    for _ in range(l):
                        g = g.d_theta()
                    for _ in range(m):
                        g = g.d_t()
                    w = comb(i1, m) * comb(j1, l)
                    _raw_add(raw, i1 - m + i2, j1 - l + j2,
                             b1 * g if w == 1 else b1 * g * w)
    return DiffOp("raw", raw, A.phi, A.psi)


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

    samples = []
    for _ in range(count):
        samples.append({
            "Z": VectorField(rnd_cf(), rnd_cf(), phi, psi),
            "W": VectorField(rnd_cf(), rnd_cf(), phi, psi),
            "U": VectorField(rnd_cf(), rnd_cf(), phi, psi),
            "a": rnd_cf(),
            "f": rnd_cf(),
        })
    return samples


def lie_rinehart_check(phi, psi, samples):
    """Verify the Lie-Rinehart axioms exactly on sample data.

    ``samples`` is a list of dicts with keys Z, W, U (VectorFields) and
    a, f (CylinderFunctions).  Each axiom is checked by exact symbolic
    equality; the report maps axiom name to (passed, counterexample count).
    """
    results = {}

    def record(name, ok_list):
        fails = sum(1 for ok in ok_list if not ok)
        results[name] = (fails == 0, fails)

    jacobi, leibniz, module_act, module_br, derivation = [], [], [], [], []
    for s in samples:
        Z, W, U = s["Z"], s["W"], s["U"]
        a, f = s["a"], s["f"]
        ZW, Za, Zf = _bracket(Z, W), Z.apply(a), Z.apply(f)
        aZ, aZW = Z * a, ZW * a
        j1 = _bracket(ZW, U).apply(f)
        j2 = _bracket(_bracket(W, U), Z).apply(f)
        j3 = _bracket(_bracket(U, Z), W).apply(f)
        jacobi.append((j1 + j2 + j3).is_zero)
        # [Z, aW] = Z(a) W + a [Z, W]
        leibniz.append(_bracket(Z, W * a) == W * Za + aZW)
        module_act.append(aZ.apply(f) == a * Zf)
        # [aZ, W] = a [Z, W] - W(a) Z
        module_br.append(_bracket(aZ, W) == aZW - Z * W.apply(a))
        derivation.append(Z.apply(a * f) == Za * f + a * Zf)
    record("jacobi", jacobi)
    record("leibniz", leibniz)
    record("module_action", module_act)
    record("module_bracket", module_br)
    record("derivation", derivation)
    return results


# -- symbols ---------------------------------------------------------------


def _as_radial(c, domain):
    if isinstance(c, RadialFunction):
        if c.domain != domain:
            raise DomainMismatchError("mixed base domains")
        return c
    return RadialFunction.const(c, domain=domain)


def _trim_poly(poly):
    while poly and poly[-1].is_zero:
        poly.pop()
    return poly


def _poly_add(a, b):
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        if k < len(a) and k < len(b):
            out.append(a[k] + b[k])
        elif k < len(a):
            out.append(a[k])
        else:
            out.append(b[k])
    return out


def _poly_sub(a, b):
    return _poly_add(a, [-c for c in b])


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


def _poly_dxi(a):
    return [a[k] * k for k in range(1, len(a))]


def _poly_eval(poly, t, xi):
    val = 0j
    for c in reversed(poly):
        val = val * xi + c(t)
    return val


def radial_symbol(A):
    """Full symbol of a radial operator in the flow coordinate.

    The operator must be in lie form with radial coefficients; X = d/ds there,
    so A = sum a_i X^i has symbol sum a_i (i xi)^i.  It is returned as the
    PoweredSymbol with itself as base and power 0, the shape the parametrix
    recursion divides by.
    """
    lie = A.to_lie()
    if not lie.is_radial:
        raise PreconditionError("radial symbol needs a radial operator")
    dom = A.domain
    mmax = max((i for (i, _) in lie.coeffs), default=0)
    poly = [RadialFunction.zero(domain=dom)] * (mmax + 1)
    for (i, _), c in lie.coeffs.items():
        poly[i] = c.radial_part() * (1j ** i)
    poly = _trim_poly(poly)
    return PoweredSymbol(poly, poly, 0, domain=dom)


class PoweredSymbol:
    """Rational symbol of the special shape  num / base^power.

    The parametrix recursion only ever produces denominators that are powers
    of the full symbol, so pinning the base keeps every operation polynomial
    instead of compounding unreduced quotients.  A polynomial symbol (power
    0) stays at power 0 under d_xi and D_s, so for an operator of order m
    the remainder E_N has power (m + 1) N.
    """

    __slots__ = ("num", "base", "power", "domain")

    def __init__(self, num, base, power, domain=HALF_LINE):
        self.num = _trim_poly([_as_radial(c, domain) for c in num])
        self.base = [_as_radial(c, domain) for c in base]
        self.power = int(power)
        self.domain = domain

    @property
    def is_zero(self):
        return not self.num

    @property
    def order(self):
        if not self.num:
            return -math.inf
        return (len(self.num) - 1) - self.power * (len(self.base) - 1)

    def _align(self, other):
        r = max(self.power, other.power)
        a = self.num
        for _ in range(r - self.power):
            a = _poly_mul(a, self.base)
        b = other.num
        for _ in range(r - other.power):
            b = _poly_mul(b, self.base)
        return a, b, r

    def __add__(self, other):
        a, b, r = self._align(other)
        return PoweredSymbol(_poly_add(a, b), self.base, r, self.domain)

    def __sub__(self, other):
        a, b, r = self._align(other)
        return PoweredSymbol(_poly_sub(a, b), self.base, r, self.domain)

    def __mul__(self, other):
        if isinstance(other, PoweredSymbol):
            return PoweredSymbol(_poly_mul(self.num, other.num), self.base,
                                 self.power + other.power, self.domain)
        return PoweredSymbol([c * other for c in self.num], self.base,
                             self.power, self.domain)

    __rmul__ = __mul__

    def _derive(self, d):
        """The quotient rule for a derivation ``d`` of coefficient lists."""
        if self.power == 0:
            return PoweredSymbol(d(self.num), self.base, 0, self.domain)
        num = _poly_sub(_poly_mul(d(self.num), self.base),
                        _poly_mul(self.num,
                                  [c * self.power for c in d(self.base)]))
        return PoweredSymbol(num, self.base, self.power + 1, self.domain)

    def d_xi(self):
        return self._derive(_poly_dxi)

    def D_s(self, phi):
        prof = phi.profile
        return self._derive(
            lambda poly: [(prof * c.derivative()) * (-1j) for c in poly])

    def evaluate(self, t, xi):
        """The value at (t, xi): floats, or numpy arrays that broadcast."""
        return (_poly_eval(self.num, t, xi)
                / _poly_eval(self.base, t, xi) ** self.power)

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


def symbol_sharp(sigma, q, phi):
    """Asymptotic composition sigma # q = sum_alpha (1/alpha!) d_xi^alpha sigma
    * D_s^alpha q.  Finite because sigma is polynomial in xi: alpha runs up
    to its degree."""
    out = None
    dsig = sigma
    dq = q
    fact = 1
    for alpha in range(len(sigma.num)):
        if alpha > 0:
            dsig = dsig.d_xi()
            dq = dq.D_s(phi)
            fact *= alpha
        term = dsig * dq * (1.0 / fact)
        out = term if out is None else out + term
    return out


def parametrix_1d(A, N):
    """N-term symbolic parametrix of an elliptic radial operator.

    Works in the flow coordinate where X = d/ds.  Returns a
    ParametrixExpansion with ord(q_k) = -m - k and the exact remainder
    symbols E_k = 1 - sigma_A # (q_0 + ... + q_{k-1}), each step
    q_k = q_0 E_k.  An operator in another form needs an admissible phi
    (``check_weight_admissible``) before it is rewritten in lie form.
    """
    if A.form != "lie":
        check_weight_admissible(A.phi)
    sigma = radial_symbol(A)
    m = len(sigma.num) - 1
    lead = sigma.num[-1] if sigma.num else None
    if lead is None or not _nonvanishing_on_closure(lead):
        raise PreconditionError("operator is not elliptic on its radial sector")
    dom = A.domain
    if not _no_real_roots(sigma.num):
        raise PreconditionError(
            "full symbol vanishes for real xi; shift the operator off its "
            "spectrum before building a parametrix")
    q0, one = (PoweredSymbol([RadialFunction.const(1, domain=dom)],
                             sigma.num, power, domain=dom) for power in (1, 0))
    terms, remainders = [], [one]
    for _ in range(N):
        terms.append(q0 * remainders[-1])
        remainders.append(remainders[-1]
                          - symbol_sharp(sigma, terms[-1], A.phi))
    return ParametrixExpansion(terms, remainders, m - 1 - N if N else m)


def _no_real_roots(poly):
    """True iff the polynomial in xi has no real root at any sampled radius.

    At 32 radii, uniform in u over [-11, 11], the ring coefficients are
    evaluated and the roots of the resulting polynomials, the eigenvalues of
    their companion matrices, are tested for proximity to the real axis.  A
    polynomial whose constant or leading coefficient vanishes at a radius
    fails there: it has the root 0, or it loses its degree.
    """
    u = np.linspace(-11.0, 11.0, 32)
    p = np.array([c.at_u(u) for c in reversed(poly)], dtype=complex).T
    if not (p[:, 0].all() and p[:, -1].all()):
        return False
    n = p.shape[1] - 1
    companion = np.zeros((len(p), n, n), dtype=complex)
    companion[:, :1] = -p[:, None, 1:] / p[:, None, :1]
    companion[:, range(1, n), range(n - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    near_real = abs(roots.imag) <= 1e-9 * np.maximum(1.0, abs(roots.real))
    return not near_real.any()


def _nonvanishing_on_closure(f):
    if np.any(np.abs(f.at_u(np.linspace(-14.0, 14.0, CLOSURE_SAMPLES)))
              <= 1e-9):
        return False
    for end in ("zero", "far"):
        v = f.limit(end)
        if not math.isfinite(abs(v)) or abs(v) <= 1e-9:
            return False
    return True
