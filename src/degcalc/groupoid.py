"""Concrete groupoids over the compactified half-line.

G_phi is the transformation groupoid of the flow on [0, inf]; S crosses it
with the pair groupoid of the circle; H_psi deforms the pair groupoid of the
circle into its tangent bundle over the boundary, glued by psi-rescaled
exponential charts.  The zeta cocycles are quotients of boundary defining
functions along arrows and conjugate kernels by boundary weights.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, CompositionError, PreconditionError
from .weights import Weight, structure_function

TWO_PI = 2.0 * math.pi

#: tolerance for angle matching in pair-groupoid composition
ANGLE_TOL = 1e-10


def _canonical_angle(theta):
    return float(theta) % TWO_PI


def _angles_match(a, b, tol=ANGLE_TOL):
    d = abs(_canonical_angle(a) - _canonical_angle(b))
    return min(d, TWO_PI - d) <= tol


def rho_zero(x):
    """Boundary defining function of the 0 face: min(t, 1)."""
    if x == math.inf:
        return 1.0
    return min(float(x), 1.0)


def rho_infinity(x):
    """Boundary defining function of the infinity face: min(1, 1/t)."""
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    return min(1.0, 1.0 / float(x))


@dataclass(frozen=True)
class GPhiElement:
    """Arrow (x, t) of the transformation groupoid: source x, target sigma_t(x)."""

    x: float
    t: float

    def d(self):
        return self.x

    def r(self, flow):
        return flow.apply(self.t, self.x)

    def inverse(self, flow):
        return GPhiElement(flow.apply(self.t, self.x), -self.t)

    def is_unit(self):
        return self.t == 0


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
    if p == math.inf or q == math.inf:
        return 0.0 if p == q else math.inf
    return abs(float(p) - float(q))


@dataclass(frozen=True)
class SElement:
    """Arrow of S = pair(S^1) x G_phi: angles (theta1, theta2) and (x, t)."""

    theta1: float
    theta2: float
    x: float
    t: float

    def d(self):
        return (self.theta2, self.x)

    def r(self, flow):
        return (self.theta1, flow.apply(self.t, self.x))

    def inverse(self, flow):
        return SElement(self.theta2, self.theta1,
                        flow.apply(self.t, self.x), -self.t)

    def is_unit(self):
        return self.t == 0 and _angles_match(self.theta1, self.theta2)


def s_compose(g, h, flow):
    if not _angles_match(g.theta2, h.theta1):
        raise CompositionError(
            f"angle mismatch: {g.theta2} vs {h.theta1}", factor="pair")
    target = flow.apply(h.t, h.x)
    mismatch = _point_distance(g.x, target)
    if mismatch > flow.tolerance:
        raise CompositionError(
            f"base mismatch: {g.x} vs {target}", mismatch=mismatch,
            factor="flow")
    return SElement(g.theta1, h.theta2, h.x, g.t + h.t)


@dataclass(frozen=True)
class HPsiElement:
    """Either an interior pair-groupoid arrow at x > 0 or a boundary tangent.

    Interior: (theta1, theta2, x).  Boundary: base angle plus tangent
    coordinate v, composing additively over a fixed base point.
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
    psi_w = psi if isinstance(psi, Weight) else Weight(psi)
    if s < 0:
        raise ChartDomainError("chart needs s >= 0")
    if s == 0:
        return HPsiElement.tangent(theta1, w)
    offset = psi_w.profile(s) * w
    if abs(offset) >= math.pi:
        raise ChartDomainError(
            f"angle offset {offset} outside the chart window (-pi, pi)")
    return HPsiElement.interior(theta1, theta1 + offset, s)


def hpsi_compose(g, h):
    if g.boundary != h.boundary:
        raise CompositionError("cannot compose boundary with interior")
    if g.boundary:
        if not _angles_match(g.theta1, h.theta1):
            raise CompositionError(
                f"tangents based at different points: {g.theta1} vs {h.theta1}")
        return HPsiElement.tangent(g.theta1, g.v + h.v)
    if abs(g.x - h.x) > ANGLE_TOL:
        raise CompositionError(f"different fibers: x = {g.x} vs {h.x}")
    if not _angles_match(g.theta2, h.theta1):
        raise CompositionError(
            f"pair mismatch: {g.theta2} vs {h.theta1}")
    return HPsiElement.interior(g.theta1, h.theta2, g.x)


def hpsi_action(s, g, flow, psi):
    """The flow action on H_psi: interior points move along sigma_s, boundary
    tangents rescale by e^{-lambda s} with lambda the structure function at 0."""
    psi_w = psi if isinstance(psi, Weight) else Weight(psi)
    if g.boundary:
        lam = structure_function(psi_w, flow.weight).value_at_zero
        if not math.isfinite(float(lam)):
            raise PreconditionError(
                f"structure function diverges at 0 (lambda = {lam})")
        return HPsiElement.tangent(g.theta1, math.exp(-float(lam) * s) * g.v)
    return HPsiElement.interior(g.theta1, g.theta2, flow.apply(s, g.x))


def _boundary_rate(flow, which):
    """Rate lambda of the boundary extension e^{-lambda t} of a zeta cocycle."""
    domain = flow.weight.domain
    if which == "zero":
        model = Weight.from_term(1, 1, 0, domain=domain)
        return float(structure_function(model, flow.weight).value_at_zero)
    model = Weight.from_term(1, -1, 0, domain=domain)
    return float(structure_function(model, flow.weight).value_at_far)


def zeta_cocycle(g, which, flow):
    """zeta = rho o d / rho o r along the arrow; boundary units extend by the
    flow's endpoint scaling rate.  Always positive."""
    x, t = g.x, g.t
    rho = rho_zero if which == "zero" else rho_infinity
    interior_end = (x != 0 and x != math.inf)
    if interior_end:
        return rho(x) / rho(flow.apply(t, x))
    if which == "zero":
        if x == math.inf:
            return 1.0
        return math.exp(-_boundary_rate(flow, "zero") * t)
    if x == 0:
        return 1.0
    return math.exp(-_boundary_rate(flow, "infinity") * t)


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
        factors[i] = z0 ** t * zi ** t_prime
    if not np.all(np.isfinite(factors)):
        raise PreconditionError("conjugation factor unbounded on the chart")
    return KernelFunction(k.x0, k.s_values, k.w_values,
                          k.values * factors[:, None])


def write_kernel_csv(path, k):
    """CSV rows (s, angle_offset, value_re, value_im) for heatmap plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "angle_offset", "value_re", "value_im"])
        for i, s in enumerate(k.s_values):
            for j, w in enumerate(k.w_values):
                v = k.values[i, j]
                writer.writerow(["%.17g" % s, "%.17g" % w,
                                 "%.17g" % v.real, "%.17g" % v.imag])
