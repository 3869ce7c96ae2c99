"""Radial Schrodinger operators with power-law potentials.

The potential behaves like t^{-2*gamma} at the origin and t^{2*gamma_prime}
at infinity.  After multiplying by the boundary-defining prefactor the
operator lands in the weighted calculus, whose coefficients are verified by
the exact membership test.

Eigenvalues come from linear finite elements in s = ln(rho).  On the sector
l, with nu = l + (n-2)/2, the half-density w = rho^{(n-1)/2} u = e^{s/2} v
turns -Delta + V into the pencil -v'' + nu^2 v + rho^2 V v = lam rho^2 v.
A term c t^-2 of V at 0 moves nu to nu_eff = sqrt(nu^2 + c).  For nu_eff < 1
the origin is limit circle, and the Friedrichs extension is the natural
condition v' = nu_eff v at s_min (Neumann for nu_eff = 0, Hardy's critical
c = -nu^2 included); s_max is a Dirichlet end.  Each eigenvalue is
extrapolated from the grid's N points and a half grid, which cancels the h^2
error term: the error falls like h^4 down to about 1e-11.  ``grid_points``
in spectrum.csv is N, the fine grid.
"""

from __future__ import annotations

import cmath
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

    ``V`` is the full ring potential in the radius t, stored as its one term
    when it equals one as a function.  Its exponent at 0 must be -2*gamma and
    its growth at infinity 2*gamma_prime (checked), unless it is zero as a
    function: that is the free case.  ``l`` is the angular momentum sector.
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
        object.__setattr__(self, "V", self.V.one_term())
        if self.V.is_zero:  # the free case
            return
        e0 = self.V.leading("zero")[0]
        if e0 != -2 * g:
            raise PreconditionError(
                f"potential exponent at 0 is {e0}, expected {-2 * g}")
        e_far = self.V.leading("far")[0]
        if e_far != -2 * gp:
            raise PreconditionError(
                f"potential growth at infinity is {-e_far}, "
                f"expected {2 * gp}")

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

    # near infinity, in r = 1/t on the unit-interval ring: V(1/r) is a sum
    # of r^p (1+r)^q.  (1+r)^q with q natural expands into pure powers; the
    # other terms must sum to one pure power, or to zero, as a function.
    Vinv = prob.V.invert()
    natural = {(p, q): c for (p, q), c in Vinv.terms.items()
               if q.denominator == 1 and q >= 0}
    tail = (Vinv - RadialFunction(natural)).one_term()
    for (p, q), c in natural.items():
        tail = tail + (RadialFunction.term(c, p)
                       * (1 + RadialFunction.term(1, 1)) ** int(q))
    if any(q != 0 for (_, q) in tail.terms):
        raise PreconditionError(
            "far-field rewrite needs a pure-power potential tail")
    Vr = RadialFunction({(p, 0): c for (p, _), c in tail.terms.items()},
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
        if from_u(HALF_LINE, self.s_min) == 0.0:
            raise PreconditionError(
                f"s_min = {self.s_min}: e^s_min underflows to 0")
        if from_u(HALF_LINE, self.s_max) == math.inf:
            raise PreconditionError(
                f"s_max = {self.s_max}: e^s_max is past the float range")
        if self.n_points < 10:
            raise PreconditionError("grid too coarse")

    def s_nodes(self, n_points=None):
        """The grid's nodes in s, or n_points nodes on the same interval."""
        return np.linspace(self.s_min, self.s_max, n_points or self.n_points)


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: tuple
    residuals: tuple
    backward_errors: tuple


def _assemble(prob, s):
    """Linear elements in s for -v'' + nu^2 v + rho^2 V v = lam rho^2 v.

    ``s`` holds uniform nodes; the last one is the Dirichlet end and is
    dropped.  The mass is lumped (h, and h/2 at s[0]) and the Friedrichs row
    adds nu_eff to K_00, the natural condition v' = nu_eff v, where
    nu_eff^2 = nu^2 + c for V ~ c t^-2 at 0 and nu^2 otherwise.  Returns the
    symmetric tridiagonal (d, e) of M^{-1/2} K M^{-1/2}, M = diag(m rho^2),
    and rho at the unknowns.  V ~ c t^e at 0 with e < -2 and c < 0, or with
    nu_eff^2 < 0 (past Hardy's constant), is not bounded below and raises.
    """
    nu = prob.l + Fraction(prob.n - 2, 2)
    e, c = prob.V.leading("zero")
    nu_eff2 = nu * nu + c if e == -2 else nu * nu
    if e < -2 and c < 0 or nu_eff2 < 0:
        raise PreconditionError(
            f"-Delta + V is not bounded below on the sector l = {prob.l}: "
            f"V ~ {c} t^{e} at 0")
    nu = float(nu)
    h = (s[-1] - s[0]) / (len(s) - 1)
    rho = np.exp(s[:-1])
    m = np.full(len(rho), h)
    m[0] = h / 2
    kdiag = np.full(len(rho), 2 / h)
    kdiag[0] = 1 / h + math.sqrt(nu_eff2)
    with np.errstate(all="ignore"):  # rho^2 past floats: checked below
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
                          tuple(float(b) for b in back))


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


def parametrix_residual(prob, orders=(0, 1, 2), cutoffs=(4.0, 8.0),
                        n_grid=200):
    """Residual decay of the finite parametrix on the far-field sector.

    For each order N the symbol expansion q_0..q_{N-1} of the inverted-radius
    operator is composed against the operator exactly on plane waves
    e^{i xi s}; the reported ratio is the worst relative L2 residual over the
    octave band [K/2, K] of frequencies.  Returns the rows
    (N, K, residual_ratio) as a tuple.
    """
    rw = rewrite(prob)
    A = rw.op_infinity
    # sample the chart: r in the far-field region (t large), via s uniform
    rs = from_u(UNIT_INTERVAL, np.linspace(-6.0, -1.0, n_grid))
    remainders = parametrix_1d(A, max(orders, default=0)).remainders
    rows = []
    for N in orders:
        for K in cutoffs:
            # a (xi, r) grid, r contiguous: each row is one xi's L2 mean
            xis = np.linspace(K / 2.0, K, 9)
            vals = np.abs(remainders[N].evaluate(rs, xis[:, None]))
            worst = float(np.max(np.sqrt(np.mean(vals ** 2, axis=1))))
            rows.append((N, float(K), worst))
    return tuple(rows)


# -- resolvent probe ---------------------------------------------------------


@dataclass(frozen=True)
class ResolventProbeReport:
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
    and a norm outside (0, inf) raise ``ConvergenceError``; a z that is not
    finite raises ``PreconditionError``.
    """
    if mode not in ("plain", "weighted"):
        raise PreconditionError(f"unknown probe mode {mode!r}")
    if not cmath.isfinite(z):
        raise PreconditionError(f"z = {z} is not finite")
    phi, _ = membership_weights(prob)
    z_arith = np.real_if_close(z).item()  # real z keeps the arithmetic real

    def norms_at(grid):
        d, e, rho = _assemble(prob, grid.s_nodes())
        w = phi.profile(rho) if mode == "weighted" else np.ones(len(rho))
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

    t1, dist1 = norms_at(GeometricGrid(-8.0, 8.0, base_points))
    t2, _ = norms_at(GeometricGrid(-8.0, 8.0, 2 * base_points))
    norms = {key: (t1[key], t2[key], t2[key] / t1[key]) for key in t1}
    return ResolventProbeReport(norms=norms, spectrum_distance=dist1)


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
                f"after {matvecs} matvecs") from exc

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
