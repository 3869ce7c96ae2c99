"""Weights, the weighted derivation X = phi*d/dt, and decidable membership.

A weight is a ring function that is strictly positive in the interior.  Its
endpoint exponents control everything: ``profile.leading("zero")[0]`` is the
vanishing order at 0 and ``profile.leading("far")[0]`` the order at the far
end (the decay exponent at infinity for the half-line, the vanishing order at
1 for the unit interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .powerfun import HALF_LINE, UNIT_INTERVAL, RadialFunction, b_weight

#: iteration cap for the undecidable branch of the infinite-order membership test
MEMBERSHIP_CAP = 64

#: number of sample points used by the positivity check
POSITIVITY_SAMPLES = 10_000

#: the b-weight's leading exponents: a weight at least as large is degenerate
_B_LEADING = {(domain, end): b_weight(domain).leading(end)[0]
              for domain in (HALF_LINE, UNIT_INTERVAL)
              for end in ("zero", "far")}


class Weight:
    """A positive ring function, stored as one term if it equals one.

    ``_bases`` holds the operator basis tables of the weight pairs with this
    weight as phi, keyed by psi's exact value (``diffop._Basis``); they are
    freed with the weight.
    """

    __slots__ = ("profile", "_bases")

    def __init__(self, profile):
        if not isinstance(profile, RadialFunction):
            raise TypeError("profile must be a RadialFunction")
        profile = profile.one_term()
        if profile.is_zero:
            raise PreconditionError("zero profile")
        _check_positive(profile)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "_bases", {})

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    @classmethod
    def from_term(cls, coeff, p, q=0, domain=HALF_LINE):
        return cls(RadialFunction.term(coeff, p, q, domain=domain))

    @property
    def domain(self):
        return self.profile.domain

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.profile == other.profile

    __hash__ = None

    def __repr__(self):
        return f"Weight({self.profile.to_text()!r})"


def apply_X(w, f, k=1):
    """Exact X^k f = (phi d/dt)^k f in the ring, for the weight phi = w."""
    if k < 0:
        raise ValueError("k must be >= 0")
    g = f
    for _ in range(k):
        g = w.profile * g.derivative()
    return g


@dataclass(frozen=True)
class MembershipResult:
    member_up_to: int
    is_member: bool
    decided: bool = True
    failure_order: int | None = None


def membership_order(f, phi, n):
    """Largest k <= n with X^k f continuous up to the boundary.

    ``n`` may be a nonnegative integer or ``math.inf``.  The infinite case
    terminates through the exponent-shift argument: once the current iterate
    is continuous with admissible exponents and the weight's endpoint
    exponents can only improve them, membership holds at every order.
    Otherwise iteration continues until failure, an empty term map, or the
    cap (reported as undecided).
    """
    if n < 0:
        raise PreconditionError("membership order n must be nonnegative")
    g = f
    k = 0
    limit_k = MEMBERSHIP_CAP if n == math.inf else int(n)
    while True:
        if not g.is_continuous():
            return MembershipResult(member_up_to=k - 1, is_member=False,
                                    failure_order=k)
        if g.leading("zero")[0] == math.inf:
            return MembershipResult(member_up_to=limit_k, is_member=True)
        if n == math.inf and _stable_forever(g, phi):
            return MembershipResult(member_up_to=MEMBERSHIP_CAP,
                                    is_member=True)
        if k == limit_k:
            if n == math.inf:
                return MembershipResult(member_up_to=k, is_member=False,
                                        decided=False)
            return MembershipResult(member_up_to=k, is_member=True)
        g = apply_X(phi, g)
        k += 1


def _stable_forever(g, w):
    """Exponent-shift stability: every future X application keeps the
    continuous iterate g continuous.

    At a degenerate end, where the weight vanishes at least like the
    b-weight, a derivative loses one order and the weight restores at least
    one, so the nonnegative exponents of g stay nonnegative.  At a
    nondegenerate end, g and the weight must be power series in the distance
    to the end (leading exponent >= 0, no fractional exponent), and X keeps
    g one.
    """
    for end in ("zero", "far"):
        a = w.profile.leading(end)[0]
        if a < _B_LEADING[w.domain, end] and not (
                a >= 0 and _fraction_free(w.profile, end)
                and _fraction_free(g, end)):
            return False
    return True


def _fraction_free(f, end):
    """True iff the terms of f with a fractional exponent at ``end`` sum to
    the zero function."""
    if end == "far":
        f = f.invert() if f.domain == HALF_LINE else f.flip()
    frac = {(p, q): c for (p, q), c in f.terms.items() if p.denominator != 1}
    return RadialFunction(frac, f.domain).leading("zero")[0] == math.inf


@dataclass(frozen=True)
class StructureFunction:
    """C = phi * psi' / psi with its endpoint values.

    ``ring`` is the exact ring representation when psi is a single term,
    otherwise None.
    """

    ring: RadialFunction | None
    value_at_zero: object
    value_at_far: object


def structure_function(psi, phi):
    """The logarithmic derivative of psi along X = phi d/dt.

    Both endpoint values are the quotients of the leading terms of
    phi psi' and psi there.  For single-term psi the quotient is exact in
    the ring.  The far-end value on a bounded interval follows the literal
    formula, whose sign differs from the customary boundary-exponent
    convention.
    """
    if psi.domain != phi.domain:
        raise PreconditionError("weights live on different domains")
    prof = psi.profile
    flux = apply_X(phi, prof)
    ring = flux.divide_term(prof) if prof.is_single_term else None
    return StructureFunction(ring, *(_quotient_limit(flux, prof, end)
                                     for end in ("zero", "far")))


def scaling_rate(psi, phi, end):
    """The rate lambda = lim phi psi'/psi at ``end``, the endpoint value of
    ``structure_function(psi, phi)``, as a float; raises where it diverges."""
    prof = psi.profile
    lam = _quotient_limit(apply_X(phi, prof), prof, end)
    if not math.isfinite(float(lam)):
        raise PreconditionError(
            f"scaling rate diverges at {end} (lambda = {lam})")
    return float(lam)


def _quotient_limit(num, den, end):
    """The limit of num/den at ``end``, from their leading terms."""
    (e1, c1), (e2, c2) = num.leading(end), den.leading(end)
    q = c1 / c2
    if e1 != e2:
        return Fraction(0) if e1 > e2 else math.copysign(math.inf, q)
    return q


def _check_positive(profile):
    if profile.has_positive_coefficients:
        return
    if any(isinstance(c, complex) for c in profile.terms.values()):
        raise PreconditionError("weights must be real")
    # dense sampling over the interior, uniform in u, plus endpoint dominance
    u = np.linspace(-18.0, 18.0, POSITIVITY_SAMPLES)
    if np.any(profile.at_u(u) <= 0):
        raise PreconditionError("weight profile is not positive on the interior")
    for end in ("zero", "far"):
        if profile.limit(end) < 0:
            raise PreconditionError(
                f"weight profile negative at {end} endpoint")
