"""Concrete groupoids over the compactified half-line.

G_phi is the transformation groupoid of the flow on [0, inf].  H_psi deforms
the pair groupoid of the circle into its tangent bundle over the boundary; its
elements come from psi-rescaled exponential charts, and the flow acts on them.
The zeta cocycles are quotients of boundary defining functions along arrows
and conjugate kernels by boundary weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, CompositionError, PreconditionError
from .weights import Weight, scaling_rate

TWO_PI = 2.0 * math.pi

#: tolerance for angle matching in ``HPsiElement.is_unit``
ANGLE_TOL = 1e-10


def _canonical_angle(theta):
    return float(theta) % TWO_PI


def _angles_match(a, b):
    d = abs(_canonical_angle(a) - _canonical_angle(b))
    return min(d, TWO_PI - d) <= ANGLE_TOL


def rho_zero(x):
    """Boundary defining function of the 0 face: min(t, 1)."""
    return min(float(x), 1.0)


def rho_infinity(x):
    """Boundary defining function of the infinity face: min(1, 1/t)."""
    if x == 0:
        return 1.0
    return min(1.0, 1.0 / float(x))


@dataclass(frozen=True)
class GPhiElement:
    """Arrow (x, t) of the transformation groupoid: source x, target sigma_t(x)."""

    x: float
    t: float

    def r(self, flow):
        return flow.apply(self.t, self.x)

    def inverse(self, flow):
        return GPhiElement(flow.apply(self.t, self.x), -self.t)


def gphi_compose(g, h, flow):
    """(y, s)(x, t) = (x, s + t), defined when y = sigma_t(x)."""
    target = h.r(flow)
    mismatch = _point_distance(g.x, target)
    if mismatch > flow.tolerance:
        raise CompositionError(
            f"not composable: source {g.x} != target {target}",
            mismatch=mismatch)
    return GPhiElement(h.x, g.t + h.t)


def _point_distance(p, q):
    return 0.0 if p == q else abs(float(p) - float(q))


@dataclass(frozen=True)
class HPsiElement:
    """Either an interior pair-groupoid arrow at x > 0 or a boundary tangent.

    Interior: (theta1, theta2, x).  Boundary: base angle plus tangent
    coordinate v.
    """

    boundary: bool
    theta1: float = 0.0
    theta2: float = 0.0
    x: float = 0.0
    v: float = 0.0

    @classmethod
    def interior(cls, theta1, theta2, x):
        if not x > 0:
            raise ValueError("interior elements need x > 0")
        return cls(boundary=False, theta1=theta1, theta2=theta2, x=x)

    @classmethod
    def tangent(cls, base, v):
        return cls(boundary=True, theta1=base, v=v)

    def is_unit(self):
        if self.boundary:
            return self.v == 0
        return _angles_match(self.theta1, self.theta2)


def hpsi_chart(w, s, psi, theta1=0.0):
    """Rescaled exponential chart (w, s) -> H_psi.

    At s = 0 the image is the boundary tangent w; for s > 0 it is the
    interior arrow with angle offset psi(s) * w, provided the offset stays
    inside the injectivity window of the circle exponential.
    """
    if s < 0:
        raise ChartDomainError("chart needs s >= 0")
    if s == 0:
        return HPsiElement.tangent(theta1, w)
    offset = psi.profile(s) * w
    if abs(offset) >= math.pi:
        raise ChartDomainError(
            f"angle offset {offset} outside the chart window (-pi, pi)")
    return HPsiElement.interior(theta1, theta1 + offset, s)


def hpsi_action(s, g, flow, psi):
    """The flow action on H_psi: interior points move along sigma_s, boundary
    tangents rescale by e^{-lambda s} with lambda the scaling rate at 0."""
    if g.boundary:
        lam = scaling_rate(psi, flow.weight, "zero")
        return HPsiElement.tangent(g.theta1, math.exp(-lam * s) * g.v)
    return HPsiElement.interior(g.theta1, g.theta2, flow.apply(s, g.x))


def zeta_cocycle(g, which, flow):
    """zeta = rho o d / rho o r along the arrow.  At an endpoint it is 1 on a
    unit arrow and where rho is 1, and e^{-lambda t} where rho vanishes,
    lambda the flow's scaling rate there (``scaling_rate``, which raises
    where it diverges).  Always positive and finite; an interior arrow whose
    target is at or so near an endpoint where rho vanishes that the quotient
    overflows raises.  ``which`` is 'zero' or 'infinity'."""
    if which not in ("zero", "infinity"):
        raise ValueError(f"unknown endpoint {which!r}")
    x, t = g.x, g.t
    rho = rho_zero if which == "zero" else rho_infinity
    if x != 0 and x != math.inf:
        target = flow.apply(t, x)
        den = rho(target)  # 0 at the endpoint, subnormal next to it
        zeta = rho(x) / den if den else math.inf
        if not math.isfinite(zeta):
            raise PreconditionError(
                f"zeta_{which} of the arrow {g} is not finite: its target "
                f"{target} is at or next to the endpoint, where rho vanishes")
        return zeta
    if rho(x) == 1.0 or t == 0:
        return 1.0
    p, end = (1, "zero") if which == "zero" else (-1, "far")
    model = Weight.from_term(1, p, 0, domain=flow.weight.domain)
    return math.exp(-scaling_rate(model, flow.weight, end) * t)


class KernelFunction:
    """Chart-sampled kernel on S near a base point x0.

    The chart coordinates are the group coordinate s and the angle offset w;
    ``values[i, j]`` is the kernel at (s_values[i], w_values[j]).
    """

    def __init__(self, x0, s_values, w_values, values):
        self.x0 = float(x0)
        self.s_values = np.asarray(s_values, dtype=float)
        self.w_values = np.asarray(w_values, dtype=float)
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (len(self.s_values), len(self.w_values)):
            raise ValueError("values shape must be (len(s), len(w))")
        if not np.all(np.isfinite(vals)):
            raise ValueError("kernel values must be finite on the chart")
        self.values = vals
        self.values.setflags(write=False)

    @classmethod
    def constant(cls, x0, s_values, w_values, value=1.0):
        vals = np.full((len(s_values), len(w_values)), value, dtype=complex)
        return cls(x0, s_values, w_values, vals)


def kernel_conjugate(k, t, t_prime, flow):
    """Multiply the kernel pointwise by zeta_0^t * zeta_infinity^t'."""
    factors = np.empty(len(k.s_values))
    for i, s in enumerate(k.s_values):
        el = GPhiElement(k.x0, float(s))
        z0 = zeta_cocycle(el, "zero", flow)
        zi = zeta_cocycle(el, "infinity", flow)
        try:
            factors[i] = z0 ** t * zi ** t_prime
        except OverflowError:  # a power past the float range is unbounded
            factors[i] = math.inf
    if not np.all(np.isfinite(factors)):
        raise PreconditionError("conjugation factor unbounded on the chart")
    return KernelFunction(k.x0, k.s_values, k.w_values,
                          k.values * factors[:, None])

