"""Radial Schrodinger operators with power-law potentials.

The potential behaves like t^{-2*gamma} at the origin and t^{2*gamma_prime}
at infinity.  After multiplying by the boundary-defining prefactor the
operator lands in the weighted calculus, whose coefficients are verified by
the exact membership test; a geometric (log-spaced) grid discretizes the
radial problem for eigenvalue computation against analytic oracles.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh
from scipy.sparse import diags
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .diffop import DiffOp, parametrix_1d
from .errors import ConvergenceError, PreconditionError
from .powerfun import (HALF_LINE, UNIT_INTERVAL, RadialFunction, as_exponent,
                       from_u)
from .weights import Weight, membership_order

#: default truncation of the flow coordinate s = ln(rho)
S_MIN_DEFAULT = -12.0
S_MAX_DEFAULT = 12.0
N_POINTS_DEFAULT = 4000

#: the gamma' values at which verify_identity_r_power checks its identity
IDENTITY_GAMMA_PRIMES = (Fraction(-1, 2), 0, Fraction(1, 3), 1, 2)


@dataclass(frozen=True)
class SchrodingerProblem:
    """Radial problem -Delta + V on R^n restricted to an angular sector.

    ``V`` is the full ring potential in the radius t.  Its exponent at 0 must
    be -2*gamma and its growth at infinity 2*gamma_prime (checked).  ``l`` is
    the angular momentum sector.
    """

    n: int
    gamma: object
    gamma_prime: object
    V: RadialFunction
    l: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise PreconditionError("dimension must be >= 2")
        if self.l < 0:
            raise PreconditionError("angular sector must be >= 0")
        if self.V.domain != HALF_LINE:
            raise PreconditionError("potential must live on the half-line")
        try:
            g = as_exponent(self.gamma)
            gp = as_exponent(self.gamma_prime)
        except (ValueError, TypeError) as exc:
            raise PreconditionError(
                f"gamma and gamma_prime must be exponents: {exc}") from exc
        if not self.V.is_zero:
            if self.V.min_p() != -2 * g:
                raise PreconditionError(
                    f"potential exponent at 0 is {self.V.min_p()}, "
                    f"expected {-2 * g}")
            if self.V.far_exponent() != -2 * gp:
                raise PreconditionError(
                    f"potential growth at infinity is {-self.V.far_exponent()},"
                    f" expected {2 * gp}")

    @property
    def gamma_tilde(self):
        return max(as_exponent(self.gamma), Fraction(1))

    @property
    def gamma_prime_tilde(self):
        return max(as_exponent(self.gamma_prime), Fraction(0))

    @property
    def angular_eigenvalue(self):
        """Eigenvalue of -Delta on the sphere sector: l(l + n - 2)."""
        return self.l * (self.l + self.n - 2)

    @classmethod
    def hydrogen(cls, n=3, l=0, charge=1):
        return cls(n=n, gamma=Fraction(1, 2), gamma_prime=Fraction(-1, 2),
                   V=RadialFunction.term(-charge, -1), l=l)

    @classmethod
    def oscillator(cls, n=3, l=0, strength=1):
        return cls(n=n, gamma=Fraction(-1), gamma_prime=Fraction(1),
                   V=RadialFunction.term(strength, 2), l=l)

    @classmethod
    def from_prefactored(cls, n, gamma, gamma_prime, V0, l=0):
        """Build V = rho_0^{-2 gamma} rho_inf^{-2 gamma'} V0 from the smooth
        factor V0, using the ring realizations rho_0 = t/(1+t),
        rho_inf = 1/(1+t)."""
        g = as_exponent(gamma)
        gp = as_exponent(gamma_prime)
        pref = RadialFunction.term(1, -2 * g, 2 * g + 2 * gp)
        return cls(n=n, gamma=g, gamma_prime=gp, V=pref * V0, l=l)


@dataclass(frozen=True)
class RewriteResult:
    op_zero: DiffOp
    op_infinity: DiffOp
    label_zero: str
    label_infinity: str
    branch_zero: str
    branch_infinity: str


def _label(a, b):
    return f"c_{{{as_exponent(a)},{as_exponent(b)}}}"


def rewrite(prob):
    """Exact symbolic rewrites of the prefactored operator near both faces.

    Near 0 the operator rho^{2 gamma~}(-Delta + V) is expressed in powers of
    X = rho^{gamma~} d_rho (the b-field rho*d_rho when gamma <= 1); near
    infinity the inverted radius r = 1/rho is used with X = r^{2+gamma'~} d_r.
    The angular Laplacian is carried as the scalar -l(l+n-2).
    """
    n = prob.n
    Lam = prob.angular_eigenvalue
    g = prob.gamma_tilde
    gp = prob.gamma_prime_tilde

    # near 0, in the radius t, weight t^{gamma~}
    phi0 = Weight.from_term(1, g)
    c1 = RadialFunction.term(-(n - 1 - g), g - 1)
    c0 = (RadialFunction.term(Lam, 2 * g - 2)
          + RadialFunction.term(1, 2 * g) * prob.V)
    op0 = DiffOp("lie", {(2, 0): -1, (1, 0): c1, (0, 0): c0}, phi0)
    branch0 = "schr3" if as_exponent(prob.gamma) <= 1 else "schr4"
    label0 = _label(g, g - 1)

    # near infinity, in r = 1/t on the unit-interval ring
    Vinv = prob.V.invert()
    if any(q != 0 for (_, q) in Vinv.terms):
        raise PreconditionError(
            "far-field rewrite needs a pure-power potential tail")
    Vr = RadialFunction(
        {(p, 0): c for (p, _), c in Vinv.terms.items()},
        domain=UNIT_INTERVAL) if not Vinv.is_zero else \
        RadialFunction.zero(domain=UNIT_INTERVAL)
    phi_inf = Weight.from_term(1, 2 + gp, 0, domain=UNIT_INTERVAL)
    c1i = RadialFunction.term(n - 1 + gp, 1 + gp, 0, domain=UNIT_INTERVAL)
    c0i = (RadialFunction.term(Lam, 2 * gp + 2, 0, domain=UNIT_INTERVAL)
           + RadialFunction.term(1, 2 * gp, 0, domain=UNIT_INTERVAL) * Vr)
    opi = DiffOp("lie", {(2, 0): -1, (1, 0): c1i, (0, 0): c0i}, phi_inf)
    branchi = "schr5" if as_exponent(prob.gamma_prime) <= 0 else "schr6"
    labeli = _label(2 + gp, 1 + gp)
    return RewriteResult(op0, opi, label0, labeli, branch0, branchi)


def verify_identity_r_power():
    """Exact check of (r^{2+g} d_r)^2 = r^{2g}(r^2 d_r)^2 + g r^{2g+3} d_r
    for g in IDENTITY_GAMMA_PRIMES."""
    for gp in IDENTITY_GAMMA_PRIMES:
        phi = Weight.from_term(1, 2 + gp, 0, domain=UNIT_INTERVAL)
        lhs = DiffOp("lie", {(2, 0): 1}, phi).to_raw()
        # right side assembled directly in raw form
        sq = {
            (2, 0): RadialFunction.term(1, 2 * gp + 4, 0,
                                        domain=UNIT_INTERVAL),
            (1, 0): RadialFunction.term(2, 2 * gp + 3, 0,
                                        domain=UNIT_INTERVAL)
            + RadialFunction.term(gp, 2 * gp + 3, 0, domain=UNIT_INTERVAL),
        }
        rhs = DiffOp("raw", sq, phi)
        if lhs != rhs:
            return False
    return True


@dataclass(frozen=True)
class CoefficientVerdict:
    key: tuple
    coefficient: str
    is_member: bool
    member_up_to: object


@dataclass(frozen=True)
class MembershipReport:
    weight: str
    angular_weight: str
    verdicts: tuple
    passed: bool
    offending: tuple = ()


def membership_weights(prob):
    """The single-term weights phi = rho_0^{g~} rho_inf^{g'~} and
    psi = rho_0^{g~-1} rho_inf^{g'~+1} in the ring."""
    g = prob.gamma_tilde
    gp = prob.gamma_prime_tilde
    phi = Weight(RadialFunction.term(1, g, -g - gp))
    psi = Weight(RadialFunction.term(1, g - 1, -g - gp))
    return phi, psi


def membership_in_diff_s(prob, corrupt=None):
    """Coefficient-by-coefficient verification that the prefactored operator
    lies in the weighted operator algebra.

    The operator rho_0^{2g~} rho_inf^{2g'~} (-Delta + V) is brought to
    monomial normal form over the cylinder and each coefficient is run
    through the infinite-order membership test against phi.  ``corrupt``
    optionally injects t^{-1/2} into the named (i, j) coefficient as a
    negative control.
    """
    phi, psi = membership_weights(prob)
    g = prob.gamma_tilde
    gp = prob.gamma_prime_tilde
    n = prob.n
    pref = RadialFunction.term(1, 2 * g, -2 * g - 2 * gp)
    raw = {
        (2, 0): -1 * pref,
        (1, 0): pref * RadialFunction.term(-(n - 1), -1),
        (0, 2): -1 * pref * RadialFunction.t_power(-2),
        (0, 0): pref * prob.V,
    }
    raw = {k: v for k, v in raw.items() if not v.is_zero}
    if corrupt is not None:
        bad = RadialFunction.term(1, Fraction(-1, 2))
        cur = raw.get(corrupt, RadialFunction.zero())
        raw[corrupt] = cur + bad
    op = DiffOp("raw", raw, phi, psi).to_monomial()
    verdicts = []
    offending = []
    for key in sorted(op.coeffs):
        coeff = op.coeffs[key].radial_part()
        res = membership_order(coeff, phi, math.inf)
        verdicts.append(CoefficientVerdict(
            key, coeff.to_text(), bool(res.is_member), res.member_up_to))
        if not res.is_member:
            offending.append(key)
    return MembershipReport(
        weight=phi.profile.to_text(),
        angular_weight=psi.profile.to_text(),
        verdicts=tuple(verdicts),
        passed=not offending,
        offending=tuple(offending))


# -- discretization and eigenvalues ---------------------------------------


@dataclass(frozen=True)
class GeometricGrid:
    """Nodes rho_i = e^{s_i} with s uniform in [s_min, s_max]."""

    s_min: float = S_MIN_DEFAULT
    s_max: float = S_MAX_DEFAULT
    n_points: int = N_POINTS_DEFAULT

    def __post_init__(self):
        if not (self.s_min < self.s_max):
            raise PreconditionError("need s_min < s_max")
        if self.n_points < 10:
            raise PreconditionError("grid too coarse")

    def s_nodes(self):
        return np.linspace(self.s_min, self.s_max, self.n_points)

    def rho_nodes(self):
        return np.exp(self.s_nodes())

    def refined(self):
        """The grid with twice the points."""
        return GeometricGrid(self.s_min, self.s_max, self.n_points * 2)


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: tuple
    residuals: tuple
    grid: GeometricGrid
    method: str


def reduced_potential(prob, rho):
    """W(rho) = V(rho) + [l(l+n-2) + (n-1)(n-3)/4] / rho^2 after the
    half-density substitution w = rho^{(n-1)/2} u."""
    n, l = prob.n, prob.l
    cent = l * (l + n - 2) + (n - 1) * (n - 3) / 4.0
    rho = np.atleast_1d(rho)
    return prob.V(rho) + cent / rho ** 2


def _assemble_tridiagonal(prob, grid):
    """Symmetric finite-volume discretization of -w'' + W w with Dirichlet
    truncation; returns (diagonal, offdiagonal) of the mass-normalized
    tridiagonal matrix."""
    rho = grid.rho_nodes()
    h = np.diff(rho)
    m = np.empty(len(rho))
    m[1:-1] = 0.5 * (h[:-1] + h[1:])
    m[0] = 0.5 * h[0]
    m[-1] = 0.5 * h[-1]
    W = reduced_potential(prob, rho)
    if not np.all(np.isfinite(W)):
        raise PreconditionError("reduced potential not finite on the grid")
    inv_h = 1.0 / h
    kdiag = np.zeros(len(rho))
    kdiag[:-1] += inv_h
    kdiag[1:] += inv_h
    sqrt_m = np.sqrt(m)
    diag = kdiag / m + W
    off = -inv_h / (sqrt_m[:-1] * sqrt_m[1:])
    return diag, off


def assemble_and_solve(prob, grid=None, k=2, method="shift-invert"):
    """Lowest k eigenvalues of the discretized radial operator.

    The primary path is sparse shift-invert with a deterministic start
    vector; ``method='dense'`` runs the LAPACK tridiagonal solver as an
    independent oracle.
    """
    grid = grid or GeometricGrid()
    diag, off = _assemble_tridiagonal(prob, grid)
    interior = slice(1, -1)
    d = diag[interior]
    e = off[1:-1]
    npts = len(d)
    if k >= npts:
        raise PreconditionError("k too large for the grid")
    if method == "dense":
        lam, vecs = eigh_tridiagonal(d, e, select="i",
                                     select_range=(0, k - 1),
                                     lapack_driver="stemr")
        res = _residuals(d, e, lam, vecs)
        return SpectralResult(tuple(float(v) for v in lam),
                              tuple(float(r) for r in res), grid, "dense")
    # coarse dense estimate fixes the shift below the bottom of the spectrum
    coarse = GeometricGrid(grid.s_min, grid.s_max, min(grid.n_points, 400))
    cd, co = _assemble_tridiagonal(prob, coarse)
    cvals = eigh_tridiagonal(cd[1:-1], co[1:-1], select="i",
                             select_range=(0, 0))[0]
    sigma = float(cvals[0]) - 1.0
    A = diags([e, d, e], [-1, 0, 1], format="csc")
    s_nodes = grid.s_nodes()[interior]
    v0 = np.sin(math.pi * (s_nodes - s_nodes[0])
                / (s_nodes[-1] - s_nodes[0]))
    try:
        vals, vecs = eigsh(A, k=k, sigma=sigma, which="LM", v0=v0, tol=0)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver did not converge (shift {sigma})") from exc
    order = np.argsort(vals)
    lam = vals[order]
    vecs = vecs[:, order]
    res = _residuals(d, e, lam, vecs)
    return SpectralResult(tuple(float(v) for v in lam),
                          tuple(float(r) for r in res), grid, "shift-invert")


def _residuals(d, e, lam, vecs):
    """||A v - lam v|| / ||v|| for each column v of vecs."""
    av = d[:, None] * vecs
    av[:-1] += e[:, None] * vecs[1:]
    av[1:] += e[:, None] * vecs[:-1]
    return (np.linalg.norm(av - lam * vecs, axis=0)
            / np.linalg.norm(vecs, axis=0))


# -- parametrix residual ----------------------------------------------------


@dataclass(frozen=True)
class ParametrixResidualReport:
    rows: tuple  # (N, K, residual_ratio)


def parametrix_residual(prob, orders=(0, 1, 2), cutoffs=(4.0, 8.0),
                        n_grid=200):
    """Residual decay of the finite parametrix on the far-field sector.

    For each order N the symbol expansion q_0..q_{N-1} of the inverted-radius
    operator is composed against the operator exactly on plane waves
    e^{i xi s}; the reported ratio is the worst relative L2 residual over the
    octave band [K/2, K] of frequencies.
    """
    rw = rewrite(prob)
    A = rw.op_infinity
    # sample the chart: r in the far-field region (t large), via s uniform
    rs = from_u(UNIT_INTERVAL, np.linspace(-6.0, -1.0, n_grid))
    rows = []
    for N in orders:
        px = parametrix_1d(A, N)
        for K in cutoffs:
            # a (xi, r) grid, r contiguous: each row is one xi's L2 mean
            xis = np.linspace(K / 2.0, K, 9)
            vals = np.abs(px.remainder.evaluate(rs, xis[:, None]))
            worst = float(np.max(np.sqrt(np.mean(vals ** 2, axis=1))))
            rows.append((N, float(K), worst))
    return ParametrixResidualReport(tuple(rows))


# -- resolvent probe ---------------------------------------------------------


@dataclass(frozen=True)
class ResolventProbeReport:
    z: complex
    norms: dict  # (i, j) -> (coarse, fine, ratio)
    spectrum_distance: float


def resolvent_probe(prob, z, mode="plain", base_points=300):
    """Norms of A^i (A - z)^{-1} A^j at two grid resolutions.

    ``mode='plain'`` probes the discretized operator A itself;
    ``mode='weighted'`` probes phi*A with phi the membership weight.  The
    reported ratio between resolutions is a boundedness proxy.  The factors
    commute, so a norm depends on k = i + j alone: (0, 1) equals (1, 0).
    A is symmetric tridiagonal, hence normal, and its norms are
    max |lam^k / (lam - z)| over its eigenvalues lam.  phi*A is not normal,
    but with W = diag(phi) it is similar to the symmetric tridiagonal
    W^{1/2} A W^{1/2} = Q diag(lam) Q^T: with L = W^{1/2} Q its norms are
    those of M_k = L diag(lam^k / (lam - z)) L^{-1}, each the root of the
    top eigenvalue of M_k^H M_k.
    """
    if mode not in ("plain", "weighted"):
        raise PreconditionError(f"unknown probe mode {mode!r}")
    phi, _ = membership_weights(prob)
    z_arith = np.real_if_close(z)  # real z keeps the arithmetic real

    def norms_at(grid):
        diag, off = _assemble_tridiagonal(prob, grid)
        d, e = diag[1:-1], off[1:-1]
        if mode == "plain":
            lam = eigh_tridiagonal(d, e, eigvals_only=True)
        else:
            w = phi(grid.rho_nodes()[1:-1])
            sqrt_w = np.sqrt(w)
            lam, Q = eigh_tridiagonal(w * d, sqrt_w[:-1] * e * sqrt_w[1:])
            L, L_inv = sqrt_w[:, None] * Q, Q.T / sqrt_w
        dist = float(np.min(np.abs(lam - z_arith)))
        if dist < 0.1:
            raise PreconditionError(
                f"z = {z} is within 0.1 of the computed spectrum")
        fs = [lam ** k / (lam - z_arith) for k in range(3)]
        if mode == "plain":
            by_k = [float(np.max(np.abs(f))) for f in fs]
        else:
            # M^H M is reduced from its large-rho end (the upper triangle):
            # on oscillator problems it decays into underflow there, and
            # from the other end LAPACK runs 2-3x slower on subnormals
            top = [len(lam) - 1] * 2
            by_k = [float(np.sqrt(eigvalsh(M.conj().T @ M, lower=False,
                                           subset_by_index=top)[0]))
                    for M in ((L * f) @ L_inv for f in fs)]
        return {(i, j): by_k[i + j] for i in range(2) for j in range(2)}, dist

    coarse = GeometricGrid(-8.0, 8.0, base_points)
    t1, dist1 = norms_at(coarse)
    t2, _ = norms_at(coarse.refined())
    norms = {key: (t1[key], t2[key], t2[key] / t1[key]) for key in t1}
    return ResolventProbeReport(z=z, norms=norms, spectrum_distance=dist1)


# -- CSV writers -------------------------------------------------------------


def write_spectrum_csv(path, prob, result):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l", "index", "eigenvalue", "residual",
                         "grid_points", "s_min", "s_max"])
        for idx, (lam, res) in enumerate(zip(result.eigenvalues,
                                             result.residuals)):
            writer.writerow([prob.l, idx, "%.17g" % lam, "%.17g" % res,
                             result.grid.n_points,
                             "%.17g" % result.grid.s_min,
                             "%.17g" % result.grid.s_max])


def write_parametrix_csv(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "K", "residual_ratio"])
        for N, K, ratio in report.rows:
            writer.writerow([N, "%.17g" % K, "%.17g" % ratio])
