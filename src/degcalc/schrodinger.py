"""Radial Schrodinger operators with power-law potentials.

The potential behaves like t^{-2*gamma} at the origin and t^{2*gamma_prime}
at infinity.  After multiplying by the boundary-defining prefactor the
operator lands in the weighted calculus, whose coefficients are verified by
the exact membership test.

Eigenvalues come from linear finite elements in s = ln(rho).  On the sector
l, with nu = l + (n-2)/2, the half-density w = rho^{(n-1)/2} u = e^{s/2} v
turns -Delta + V into the pencil -v'' + nu^2 v + rho^2 V v = lam rho^2 v.
For nu < 1 the origin is limit circle, and the Friedrichs extension is the
natural condition v' = nu v at s_min (Neumann for nu = 0); s_max is a
Dirichlet end.  Each eigenvalue is extrapolated from the grid's N points and
a half grid, which cancels the h^2 error term: the error falls like h^4
down to about 1e-11.  ``grid_points`` in spectrum.csv is N, the fine grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import get_lapack_funcs
from scipy.sparse import diags, identity
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

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
    Vr = RadialFunction({(p, 0): c for (p, _), c in Vinv.terms.items()},
                        domain=UNIT_INTERVAL)
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
        (0, 2): -1 * pref * RadialFunction.term(1, -2),
        (0, 0): pref * prob.V,
    }
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

    def s_nodes(self, n_points=None):
        """The grid's nodes in s, or n_points nodes on the same interval."""
        return np.linspace(self.s_min, self.s_max, n_points or self.n_points)

    def refined(self):
        """The grid with twice the points."""
        return GeometricGrid(self.s_min, self.s_max, self.n_points * 2)


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: tuple
    residuals: tuple
    backward_errors: tuple
    grid: GeometricGrid


def _assemble(prob, s):
    """Linear elements in s for -v'' + nu^2 v + rho^2 V v = lam rho^2 v.

    ``s`` holds uniform nodes; the last one is the Dirichlet end and is
    dropped.  The mass is lumped (h, and h/2 at s[0]) and the Friedrichs row
    adds nu to K_00, the natural condition v' = nu v.  Returns the symmetric
    tridiagonal (d, e) of M^{-1/2} K M^{-1/2}, M = diag(m rho^2), and rho at
    the unknowns.
    """
    h = (s[-1] - s[0]) / (len(s) - 1)
    nu = prob.l + (prob.n - 2) / 2.0
    rho = np.exp(s[:-1])
    m = np.full(len(rho), h)
    m[0] = h / 2
    kdiag = np.full(len(rho), 2 / h)
    kdiag[0] = 1 / h + nu
    kdiag += m * (nu * nu + rho ** 2 * prob.V(rho))
    sqrt_w = np.sqrt(m) * rho
    d = kdiag / sqrt_w ** 2
    e = -1 / h / (sqrt_w[:-1] * sqrt_w[1:])
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise PreconditionError("operator not finite on the grid")
    return d, e, rho


def assemble_and_solve(prob, grid=None, k=2):
    """Lowest k eigenvalues of the radial operator, extrapolated in h.

    The grid's N points (the fine grid) and the half grid of (N + 1) // 2
    points on the same interval are solved by one bisection, LAPACK's stebz,
    which keeps its relative accuracy however far rho^2 spans.  The
    Richardson step lam_f + (lam_f - lam_c) / ((h_c / h_f)^2 - 1) cancels
    the h^2 error term.  The fine grid's vectors from stein take one step of
    inverse iteration at their own eigenvalue (LAPACK gtsv), which brings
    their backward error on deep cuts from up to 6e-4 to rounding; a zero
    pivot raises ConvergenceError.  Residuals and backward errors are those
    of the refined fine-grid eigenpairs.
    """
    grid = grid or GeometricGrid()
    n_half = (grid.n_points + 1) // 2
    if k < 1:
        raise PreconditionError("k must be at least 1")
    if k >= n_half - 1:
        raise PreconditionError("k too large for the grid")
    bisect = {"select": "i", "select_range": (0, k - 1),
              "lapack_driver": "stebz", "tol": 1e-300}
    hd, he, _ = _assemble(prob, grid.s_nodes(n_half))
    lam_half = eigh_tridiagonal(hd, he, eigvals_only=True, **bisect)
    d, e, _ = _assemble(prob, grid.s_nodes())
    lam, vecs = eigh_tridiagonal(d, e, **bisect)
    gtsv, = get_lapack_funcs(("gtsv",), (d,))
    for j, mu in enumerate(lam):
        x, info = gtsv(e, d - mu, e, vecs[:, j])[3:]
        if info != 0:
            raise ConvergenceError(f"zero pivot in inverse iteration at {mu}")
        vecs[:, j] = x / np.linalg.norm(x)
    ratio = ((grid.n_points - 1) / (n_half - 1)) ** 2
    lam_x = lam + (lam - lam_half) / (ratio - 1)
    res, back = _residuals(d, e, lam, vecs)
    return SpectralResult(tuple(float(v) for v in lam_x),
                          tuple(float(r) for r in res),
                          tuple(float(b) for b in back), grid)


def _residuals(d, e, lam, vecs):
    """||A v - lam v|| / ||v|| and the componentwise backward error
    ||A v - lam v|| / || |A| |v| + |lam| |v| || for each column v of vecs;
    the second is scale free, so its rounding floor does not grow with
    ||A|| ~ e^{-2 s_min} / h^2."""
    av = d[:, None] * vecs
    av[:-1] += e[:, None] * vecs[1:]
    av[1:] += e[:, None] * vecs[:-1]
    r = np.linalg.norm(av - lam * vecs, axis=0)
    v = np.abs(vecs)
    bound = (np.abs(d)[:, None] + np.abs(lam)) * v
    bound[:-1] += np.abs(e)[:, None] * v[1:]
    bound[1:] += np.abs(e)[:, None] * v[:-1]
    return r / np.linalg.norm(vecs, axis=0), r / np.linalg.norm(bound, axis=0)


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
    With W = diag(phi) (W = I in plain mode) phi*A is similar to the
    symmetric tridiagonal W^{1/2} A W^{1/2}, whose eigenvalues lam give the
    distance from z to the spectrum.  A is symmetric, hence normal, and its
    norms are max |lam^k / (lam - z)|.  phi*A is not normal; its norms are
    those of M_k = (phi A)^k T^{-1}, T = phi*A - z, each the root of a top
    eigenvalue found by Lanczos (``eigsh``) on an operator that applies
    O(n) tridiagonal products and solves with one sparse LU of T:

    - k = 0: T^{-H} T^{-1};
    - k = 2: T^{-H} B^T B T^{-1} with B = (phi A)^2;
    - k = 1: M_1 = I + z T^{-1}, so M_1^H M_1 = I + T^{-H} K T^{-1} with the
      Hermitian tridiagonal K = z (phi A)^T + conj(z) phi A - |z|^2.  By
      Sylvester's law of inertia T^{-H} K T^{-1} is negative definite
      exactly when K is, which one O(n) LDL^H factorization of -K
      (LAPACK pttrf) decides.  Then ||M_1||^2 = 1 - 1/nu with nu the top
      eigenvalue of T (-K)^{-1} T^H; otherwise ||M_1||^2 = 1 + the top
      eigenvalue of T^{-H} K T^{-1}.  At real z on the benchmark's
      problems either top eigenvalue stands at least 12 % of the spectrum's
      width apart, where the top singular values of M_1 itself cluster
      near 1.  At z = 0, M_1 = I.

    Lanczos stops once its residual is 1e-12 of the eigenvalue.  No n x n
    array is formed.  A Lanczos run that fails, a k = 1 square below 1e-12
    and a norm outside (0, inf) raise ``ConvergenceError``.
    """
    if mode not in ("plain", "weighted"):
        raise PreconditionError(f"unknown probe mode {mode!r}")
    phi, _ = membership_weights(prob)
    z_arith = np.real_if_close(z).item()  # real z keeps the arithmetic real

    def norms_at(grid):
        d, e, rho = _assemble(prob, grid.s_nodes())
        w = phi(rho) if mode == "weighted" else np.ones(len(rho))
        sqrt_w = np.sqrt(w)
        lam = eigh_tridiagonal(w * d, sqrt_w[:-1] * e * sqrt_w[1:],
                               eigvals_only=True)
        dist = float(np.min(np.abs(lam - z_arith)))
        if dist < 0.1:
            raise PreconditionError(
                f"z = {z} is within 0.1 of the computed spectrum")
        if mode == "plain":
            by_k = [float(np.max(np.abs(lam ** k / (lam - z_arith))))
                    for k in range(3)]
        else:
            a = diags([w[1:] * e, w * d, w[:-1] * e], [-1, 0, 1],
                      format="csr")
            by_k = _weighted_norms(a, z_arith, grid.n_points)
        if not all(0 < norm < math.inf for norm in by_k):
            raise ConvergenceError(f"resolvent norms {by_k} on {grid.n_points}"
                                   f" points at z = {z}: not positive floats")
        return {(i, j): by_k[i + j] for i in range(2) for j in range(2)}, dist

    coarse = GeometricGrid(-8.0, 8.0, base_points)
    t1, dist1 = norms_at(coarse)
    t2, _ = norms_at(coarse.refined())
    norms = {key: (t1[key], t2[key], t2[key] / t1[key]) for key in t1}
    return ResolventProbeReport(z=z, norms=norms, spectrum_distance=dist1)


def _weighted_norms(a, z, points):
    """||a^k (a - z)^{-1}|| for k = 0, 1, 2 and a sparse tridiagonal a (see
    resolvent_probe); ``points`` is the grid's, for error messages."""
    n = a.shape[0]
    eye = identity(n, format="csr")
    T = (a - z * eye).tocsc()
    lu = splu(T, permc_spec="NATURAL")  # a tridiagonal LU needs no reordering
    tol = 1e-12

    def inv_h(x):
        return lu.solve(x, trans="H")

    def top(k, op):
        matvecs = 0

        def matvec(x):
            nonlocal matvecs
            matvecs += 1
            return op(x)

        try:
            return float(eigsh(LinearOperator((n, n), matvec, dtype=T.dtype),
                               k=1, which="LA", v0=np.ones(n, T.dtype),
                               tol=tol, return_eigenvectors=False)[0])
        except ArpackError as exc:
            raise ConvergenceError(
                f"resolvent norm k={k} did not converge on {points} points "
                f"after {matvecs} matvecs", iterations=matvecs) from exc

    B = a @ a
    norm0 = math.sqrt(top(0, lambda x: inv_h(lu.solve(x))))
    norm2 = math.sqrt(top(2, lambda x: inv_h(B.T @ (B @ lu.solve(x)))))
    if z == 0:
        return [norm0, 1.0, norm2]
    K = z * a.T + np.conj(z) * a - abs(z) * abs(z) * eye
    pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), dtype=T.dtype)
    f_diag, f_up, info = pttrf(-K.diagonal().real, -K.diagonal(1))
    if info == 0:  # K is negative definite
        T_h = T.conj().T
        nu = top(1, lambda x: T @ pttrs(f_diag, f_up, T_h @ x)[0])
        norm1_sq = 1 - 1 / nu
    else:
        norm1_sq = 1 + top(1, lambda x: inv_h(K @ lu.solve(x)))
    # 1 -/+ an eigenvalue found to tol: a smaller square has no digit left
    return [norm0, math.sqrt(norm1_sq) if norm1_sq > tol else math.nan, norm2]


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
