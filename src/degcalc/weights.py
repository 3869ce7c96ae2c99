"""Weights, the weighted derivation X = phi*d/dt, and decidable membership.

A weight is a ring function that is strictly positive in the interior.  Its
endpoint exponents control everything: the vanishing order ``a`` at 0 and the
decay order ``a_prime`` at the far end (intrinsic decay exponent at infinity
for the half-line, vanishing order at 1 for the unit interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidWeightError, PreconditionError
from .powerfun import HALF_LINE, UNIT_INTERVAL, RadialFunction

#: iteration cap for the undecidable branch of the infinite-order membership test
MEMBERSHIP_CAP = 64

#: number of sample points used by the positivity check
POSITIVITY_SAMPLES = 10_000


class Weight:
    """A positive ring function with recomputed endpoint exponents."""

    __slots__ = ("profile",)

    def __init__(self, profile):
        if not isinstance(profile, RadialFunction):
            raise TypeError("profile must be a RadialFunction")
        if profile.is_zero:
            raise InvalidWeightError("zero profile")
        _check_positive(profile)
        object.__setattr__(self, "profile", profile)

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    @classmethod
    def from_term(cls, coeff, p, q=0, domain=HALF_LINE):
        return cls(RadialFunction.term(coeff, p, q, domain=domain))

    @property
    def domain(self):
        return self.profile.domain

    @property
    def a(self):
        """Endpoint exponent at 0 (min p over terms)."""
        return self.profile.min_p()

    @property
    def a_prime(self):
        """Intrinsic decay exponent at the far end: -max(p+q) on the
        half-line, min q on the unit interval."""
        return self.profile.far_exponent()

    @property
    def is_single_term(self):
        return self.profile.is_single_term

    def __call__(self, t):
        return self.profile(t)

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

    def __bool__(self):
        return self.is_member


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
        if g.is_zero:
            return MembershipResult(member_up_to=limit_k, is_member=True)
        if n == math.inf and _stable_forever(g, phi):
            return MembershipResult(member_up_to=MEMBERSHIP_CAP,
                                    is_member=True)
        if k == limit_k:
            if n == math.inf:
                return MembershipResult(member_up_to=k, is_member=False,
                                        decided=False)
            return MembershipResult(member_up_to=k, is_member=True)
        g = phi.profile * g.derivative()
        k += 1


def _stable_forever(g, w):
    """Exponent-shift stability: every future X application keeps the
    iterate continuous.

    At a degenerate endpoint (weight exponent >= 1) a derivative loses one
    order and the weight restores at least one, so nonnegative exponents stay
    nonnegative.  At a nondegenerate endpoint the exponents must be
    nonnegative integers, which the derivative walks down to 0 and kills.
    """

    def end_ok(g_exps, w_exps):
        if min(w_exps) >= 1:
            return min(g_exps) >= 0
        return (all(_is_nonneg_int(e) for e in w_exps)
                and all(_is_nonneg_int(e) for e in g_exps))

    zero_ok = end_ok([p for (p, _) in g.terms],
                     [p for (p, _) in w.profile.terms])
    if w.domain == HALF_LINE:
        far_ok = w.a_prime >= -1 and g.far_exponent() >= 0
    else:
        far_ok = end_ok([q for (_, q) in g.terms],
                        [q for (_, q) in w.profile.terms])
    return zero_ok and far_ok


def _is_nonneg_int(e):
    return e >= 0 and e.denominator == 1


@dataclass(frozen=True)
class StructureFunction:
    """C = phi * psi' / psi with its endpoint values.

    ``ring`` is the exact ring representation when psi is a single term,
    otherwise None and ``evaluate`` falls back to the numeric quotient
    (flagged by ``numeric_mode``).
    """

    ring: RadialFunction | None
    value_at_zero: object
    value_at_far: object
    numeric_mode: bool = False
    far_sign_flagged: bool = False
    _eval: object = field(default=None, repr=False, compare=False)

    def __call__(self, t):
        if self.ring is not None:
            return self.ring(t)
        return self._eval(t)


def structure_function(psi, phi):
    """The logarithmic derivative of psi along X = phi d/dt.

    For single-term psi the quotient psi'/psi is exact in the ring.  The
    far-end value on a bounded interval follows the literal formula, whose
    sign differs from the customary boundary-exponent convention; this is
    surfaced via ``far_sign_flagged``.
    """
    if psi.domain != phi.domain:
        raise InvalidWeightError("weights live on different domains")

    def log_derivative(prof):
        # single term c t^p (1 +/- t)^q: psi'/psi = p/t +/- q/(1 +/- t)
        ((p, q), _), = prof.terms.items()
        sign = 1 if prof.domain == HALF_LINE else -1
        return (RadialFunction.term(p, -1, 0, domain=prof.domain)
                + RadialFunction.term(sign * q, 0, -1, domain=prof.domain))

    flagged = phi.domain == UNIT_INTERVAL
    if psi.is_single_term:
        ring = phi.profile * log_derivative(psi.profile)
        return StructureFunction(ring=ring,
                                 value_at_zero=ring.limit("zero"),
                                 value_at_far=ring.limit("far"),
                                 far_sign_flagged=flagged)
    # numeric closure; endpoint values from the dominant terms
    prof = psi.profile

    def evaluate(t):
        return phi.profile(t) * prof.derivative()(t) / prof(t)

    def dominant(best):
        (p, q) = best
        return RadialFunction.term(prof.terms[(p, q)], p, q, domain=prof.domain)

    dom0 = dominant(min(prof.terms))
    if prof.domain == HALF_LINE:
        domf = dominant(max(prof.terms, key=lambda k: (k[0] + k[1], k[1])))
    else:
        domf = dominant(min(prof.terms, key=lambda k: (k[1], k[0])))
    v0 = (phi.profile * log_derivative(dom0)).limit("zero")
    vf = (phi.profile * log_derivative(domf)).limit("far")
    return StructureFunction(ring=None, value_at_zero=v0, value_at_far=vf,
                             numeric_mode=True, far_sign_flagged=flagged,
                             _eval=evaluate)


def weights_equivalent(psi, psi1, phi):
    """psi ~ psi1 relative to phi: both extended quotients lie in
    C_phi^(infinity)."""

    def quotient_member(num, den):
        if den.is_single_term:
            q = num.divide_term(den)
            res = membership_order(q, phi, math.inf)
            if res.decided:
                return res.is_member
        return None

    fwd = quotient_member(psi.profile, psi1.profile)
    bwd = quotient_member(psi1.profile, psi.profile)
    if fwd is not None and bwd is not None:
        return fwd and bwd
    # fallback: for weights with definite power behavior at both ends the
    # two-sided condition forces equal endpoint exponents
    return psi.a == psi1.a and psi.a_prime == psi1.a_prime


def _check_positive(profile):
    coeffs = list(profile.terms.values())
    if any(isinstance(c, complex) for c in coeffs):
        raise InvalidWeightError("weights must be real")
    if all(c > 0 for c in coeffs):
        return
    # dense sampling over the interior, uniform in u, plus endpoint dominance
    u = np.linspace(-18.0, 18.0, POSITIVITY_SAMPLES)
    if np.any(profile.at_u(u) <= 0):
        raise InvalidWeightError("weight profile is not positive on the interior")
    for end in ("zero", "far"):
        v = profile.limit(end)
        if isinstance(v, complex) or v < 0:
            raise InvalidWeightError(f"weight profile negative at {end} endpoint")
