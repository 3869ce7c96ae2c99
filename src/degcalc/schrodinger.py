"""Radial Schrodinger operators with power-law potentials.

The potential behaves like t^{-2*gamma} at the origin and t^{2*gamma_prime}
at infinity.  In the b-field B = x d_x of the face coordinate x = t^sigma
(sigma = 1 at 0, -1 at infinity) both faces state one operator, the b-form
t^2 (-Delta + V) = -B^2 - sigma (n-2) B + Lam + t^2 V with Lam = l(l+n-2).
``rewrite`` prefactors it into the weighted calculus, whose coefficients
the exact membership test verifies.

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

The far face sets the threshold of the essential spectrum, Sigma = lim V at
infinity: 0 for gamma' < 0 and for V = 0, the far constant for gamma' = 0,
and +inf for gamma' > 0.  Only what lies below Sigma is an eigenvalue; the
truncated grid's states above it are box states.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal, get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from .diffop import DiffOp, parametrix_1d
from .errors import ConvergenceError, PreconditionError
from .powerfun import (HALF_LINE, UNIT_INTERVAL, RadialFunction, as_exponent,
                       from_u)
from .weights import Weight, membership_order

#: default truncation of the flow coordinate s = ln(rho)
S_MIN_DEFAULT = -12.0
S_MAX_DEFAULT = 12.0
N_POINTS_DEFAULT = 4000
#: Lanczos of ``_weighted_norms``: steps per cycle before it restarts, and
#: the matvecs one run may take before it gives up (the slowest known cell,
#: the oscillator's k = 1 at z = -1 + 1j, takes about 320)
LANCZOS_CYCLE = 60
LANCZOS_MATVECS = 3000


@dataclass(frozen=True)
class SchrodingerProblem:
    """Radial problem -Delta + V on R^n restricted to an angular sector.

    ``gamma`` and ``gamma_prime`` are stored as the exact Fractions of
    ``as_exponent``.  ``V`` is the full ring potential in the radius t,
    stored as its one term when it equals one as a function.  Its exponent
    at 0 must be -2*gamma and its growth at infinity 2*gamma_prime
    (checked), unless it is zero as a function: that is the free case.
    ``l`` is the angular momentum sector.
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
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "gamma_prime", gp)
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
        return max(self.gamma, Fraction(1))

    @property
    def gamma_prime_tilde(self):
        return max(self.gamma_prime, Fraction(0))

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


def rewrite(prob):
    """Exact symbolic rewrites of the prefactored operator near both faces.

    With k = gamma~ - 1 at 0 and k = gamma'~ + 1 at infinity, x^{2k} times
    the module's b-form is -X^2 + (k - sigma (n-2)) x^k X + Lam x^{2k}
    + x^{2k+2 sigma} V in X = x^{k+1} d_x = x^k B: the calculus c_{k+1,k}
    of the weight x^{k+1}.  Near infinity V(1/r) must expand into pure
    powers of r.
    """
    # V(1/r) is a sum of r^p (1+r)^q: (1+r)^q with q natural expands into
    # pure powers, and the rest must sum to one pure power or 0 as a function
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
    ops, labels = [], []
    for sigma, k, V, domain in (
            (1, prob.gamma_tilde - 1, prob.V, HALF_LINE),
            (-1, prob.gamma_prime_tilde + 1, Vr, UNIT_INTERVAL)):
        def x(c, p):
            return RadialFunction.term(c, p, 0, domain=domain)
        ops.append(DiffOp("lie", {
            (2, 0): -1,
            (1, 0): x(k - sigma * (prob.n - 2), k),
            (0, 0): x(prob.angular_eigenvalue, 2 * k)
            + x(1, 2 * k + 2 * sigma) * V,
        }, Weight.from_term(1, k + 1, 0, domain=domain)))
        labels.append(f"c_{{{k + 1},{k}}}")
    return RewriteResult(*ops, *labels,
                         "schr3" if prob.gamma <= 1 else "schr4",
                         "schr5" if prob.gamma_prime <= 0 else "schr6")


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

    The operator phi^2 (-Delta + V) = rho_0^{2g~} rho_inf^{2g'~} (-Delta + V),
    whose angular part is -psi^2 d_theta^2, is brought to monomial normal
    form over the cylinder and each coefficient is run through the
    infinite-order membership test against phi.  ``corrupt`` optionally
    injects t^{-1/2} into the named (i, j) coefficient as a negative control.
    """
    phi, psi = membership_weights(prob)
    pref = phi.profile ** 2
    raw = {
        (2, 0): -1 * pref,
        (1, 0): pref * RadialFunction.term(-(prob.n - 1), -1),
        (0, 2): -1 * psi.profile ** 2,
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
    nu_eff^2 < 0 (past Hardy's constant), is not bounded below and raises,
    and so does a V that grows at infinity (gamma' > 0) with c < 0 there.
    """
    nu = prob.l + Fraction(prob.n - 2, 2)
    e, c = prob.V.leading("zero")
    nu_eff2 = nu * nu + c if e == -2 else nu * nu
    if e < -2 and c < 0 or nu_eff2 < 0:
        raise PreconditionError(
            f"-Delta + V is not bounded below on the sector l = {prob.l}: "
            f"V ~ {c} t^{e} at 0")
    if prob.gamma_prime > 0:
        e, c = prob.V.leading("far")
        if c < 0:
            raise PreconditionError(f"-Delta + V is not bounded below at "
                                    f"infinity: V ~ {c} t^{-e} there")
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
    of the refined fine-grid eigenpairs.  Fewer than k extrapolated
    eigenvalues below the threshold Sigma (see the module docstring) raise
    PreconditionError.
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
    sigma = prob.V.limit("far")
    below = int(np.sum(lam_x < float(sigma)))
    if below < k:
        raise PreconditionError(
            f"only {below} of the {k} lowest eigenvalues lie below the "
            f"essential spectrum, which starts at {sigma}")
    res, back = _residuals(d, e, lam, vecs)
    return SpectralResult(tuple(float(v) for v in lam_x),
                          tuple(float(r) for r in res),
                          tuple(float(b) for b in back))


def _tridiagonal_product(lo, dg, up, x):
    """The tridiagonal with sub-, main and superdiagonal lo, dg, up times x
    (or times each column of x, with the bands as columns)."""
    y = dg * x
    y[:-1] += up * x[1:]
    y[1:] += lo * x[:-1]
    return y


def _residuals(d, e, lam, vecs):
    """||A v - lam v|| / ||v|| and the componentwise backward error
    ||A v - lam v|| / || |A| |v| + |lam| |v| || for each column v of vecs;
    the second is scale free, so its rounding floor does not grow with
    ||A|| ~ e^{-2 s_min} / h^2."""
    e, abs_e = e[:, None], np.abs(e)[:, None]
    av = _tridiagonal_product(e, d[:, None], e, vecs)
    r = np.linalg.norm(av - lam * vecs, axis=0)
    bound = _tridiagonal_product(abs_e, np.abs(d)[:, None] + np.abs(lam),
                                 abs_e, np.abs(vecs))
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
    # every band's 9 frequencies stacked: a (xi, r) grid, r contiguous, so
    # each row is one xi's L2 mean and each band one block of 9 rows
    xis = np.array([np.linspace(K / 2.0, K, 9) for K in cutoffs]).reshape(-1)
    rows = []
    for N in orders:
        with np.errstate(all="ignore"):  # a ratio past floats raises below
            vals = np.abs(remainders[N].evaluate(rs, xis[:, None]))
            # each row scaled by a power of two, so no square underflows
            e = np.frexp(vals.max(axis=1))[1]
            means = np.ldexp(np.sqrt(np.mean(np.ldexp(vals, -e[:, None]) ** 2,
                                             axis=1)), e).reshape(-1, 9)
        rows.extend((N, float(K), float(np.max(band)))
                    for K, band in zip(cutoffs, means))
    bad = [f"N = {N}, K = {K:g}" for N, K, r in rows if not math.isfinite(r)]
    if bad:
        raise ConvergenceError(f"residual ratio at {bad[0]} is not finite")
    return tuple(rows)


# -- resolvent probe ---------------------------------------------------------


@dataclass(frozen=True)
class ResolventProbeReport:
    norms: dict  # (i, j) -> (coarse, fine, ratio)
    spectrum_distance: float
    matvecs: dict  # (grid points, k) -> its Lanczos run's; plain mode: {}


def resolvent_probe(prob, z, mode="plain", base_points=300):
    """Norms of A^i (A - z)^{-1} A^j at two grid resolutions.

    ``mode='plain'`` probes the discretized operator A itself;
    ``mode='weighted'`` probes phi*A with phi the membership weight.  The
    reported ratio between resolutions is a boundedness proxy.  The factors
    commute, so a norm depends on k = i + j alone: (0, 1) equals (1, 0).
    With W = diag(phi) (W = I in plain mode) phi*A is similar to the
    symmetric tridiagonal S = W^{1/2} A W^{1/2}, whose eigenvalues are lam.
    One rule for every z bisects the lam that decide the distance and the
    plain norms (``_deciding_eigenvalues``).  The distance from z to the
    spectrum is the smaller of its distances to those lam and to
    [Sigma, inf), the essential spectrum (see the module docstring); no
    lam >= Sigma is nearer than that interval, so the grid's box states
    never decide it.  The coarse grid's distance is reported, and a
    distance below 0.1 on either grid raises, so a real z in [Sigma, inf)
    always does.  A is symmetric, hence normal, and its norms are
    max |lam^k / (lam - z)|.  phi*A is not normal; its norms are those of
    M_k = (phi A)^k T^{-1}, T = phi*A - z, each the root of a top eigenvalue
    found by restarted Lanczos on an operator that applies O(n) tridiagonal
    products and solves with one LU of T (LAPACK gttrf and gttrs):

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

    Lanczos stops once its residual is 1e-12 of the eigenvalue.  It holds
    at most LANCZOS_CYCLE vectors, and no n x n array is formed; the report
    keeps each run's matvecs.  A Lanczos run that fails, a k = 1 square
    below 1e-12 and a norm outside (0, inf) raise ``ConvergenceError``; a z
    that is not finite raises ``PreconditionError``.
    """
    if mode not in ("plain", "weighted"):
        raise PreconditionError(f"unknown probe mode {mode!r}")
    if not cmath.isfinite(z):
        raise PreconditionError(f"z = {z} is not finite")
    phi, _ = membership_weights(prob)
    z_arith = np.real_if_close(z).item()  # real z keeps the arithmetic real
    sigma = prob.V.limit("far")
    to_essential = (abs(complex(z) - float(sigma)) if z.real < sigma
                    else abs(z.imag))

    matvecs = {}

    def norms_at(grid):
        d, e, rho = _assemble(prob, grid.s_nodes())
        w = phi.profile(rho) if mode == "weighted" else np.ones(len(rho))
        sqrt_w = np.sqrt(w)
        sd, se = w * d, sqrt_w[:-1] * e * sqrt_w[1:]
        lam = _deciding_eigenvalues(sd, se, z_arith)
        dist = min(float(np.min(np.abs(lam - z_arith))), to_essential)
        if dist < 0.1:
            raise PreconditionError(f"z = {z} is within 0.1 of the " + (
                "computed spectrum" if dist < to_essential else
                f"essential spectrum, which starts at {sigma}"))
        if mode == "plain":
            with np.errstate(all="ignore"):  # a norm past floats raises below
                by_k = [float(np.max(np.abs(lam ** k / (lam - z_arith))))
                        for k in range(3)]
        else:
            by_k, runs = _weighted_norms(w[1:] * e, sd, w[:-1] * e, z_arith)
            matvecs.update(((grid.n_points, k), m) for k, m in runs.items())
        if not all(0 < norm < math.inf for norm in by_k):
            raise ConvergenceError(f"resolvent norms {by_k} on {grid.n_points}"
                                   f" points at z = {z}: not positive floats")
        return {(i, j): by_k[i + j] for i in range(2) for j in range(2)}, dist

    t1, dist = norms_at(GeometricGrid(-8.0, 8.0, base_points))
    t2, _ = norms_at(GeometricGrid(-8.0, 8.0, 2 * base_points))
    norms = {key: (t1[key], t2[key], t2[key] / t1[key]) for key in t1}
    return ResolventProbeReport(norms=norms, spectrum_distance=dist,
                                matvecs=matvecs)


def _deciding_eigenvalues(d, e, z):
    """lam_min, lam_max and the two eigenvalues around each real point where
    some |lam^k / (lam - z)|, k <= 2, peaks, of the symmetric tridiagonal
    (d, e), by a Sturm count and bisection.  With z = x + iy the peaks are
    x, x + y^2/x and (x^2 >= 8y^2) x + 4y^2/(x + sgn(x) sqrt(x^2 - 8y^2));
    each function is monotone between them, and a real z has the one peak
    z.  Peaks below lam_min or not finite are skipped."""
    def bisect(lo, hi):  # the eigenvalues lo..hi, counted from 0
        return eigh_tridiagonal(
            d, e, eigvals_only=True, select="i", select_range=(lo, hi),
            lapack_driver="stebz", tol=1e-300)

    lam = [bisect(i, i) for i in (0, len(d) - 1)]
    x, y2 = z.real, z.imag * z.imag  # products: they overflow to inf
    q = x * x - 8 * y2
    peaks = {x, x + y2 / x} if x else {x}
    if x and q >= 0:
        peaks.add(x + 4 * y2 / (x + math.copysign(math.sqrt(q), x)))
    for j in sorted({_sturm_count(d, e, p) for p in peaks
                     if lam[0][0] <= p < math.inf}):
        lam.append(bisect(max(j - 1, 0), min(j, len(d) - 1)))
    return np.concatenate(lam)


def _sturm_count(d, e, z):
    """The number of eigenvalues below z of the symmetric tridiagonal with
    diagonal d and off-diagonal e: the negative pivots of the LDL^T
    factorization of S - z, where a zero pivot counts as -pivmin, as in
    LAPACK's dlaneg."""
    e2 = e * e
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e2, initial=0)))
    count, p = 0, 1.0
    for dk, e2k in zip((d - z).tolist(), [0.0] + e2.tolist()):
        p = dk - e2k / p
        if p == 0:
            p = -pivmin
        count += p < 0
    return count


def _weighted_norms(lo, dg, up, z):
    """||a^k (a - z)^{-1}|| for k = 0, 1, 2 and the real tridiagonal a with
    sub-, main and superdiagonal lo, dg, up (see resolvent_probe), and the
    matvecs of each k's Lanczos run."""
    n = len(dg)
    dtype = np.result_type(dg, z)
    gttrf, gttrs, pttrf, pttrs = get_lapack_funcs(
        ("gttrf", "gttrs", "pttrf", "pttrs"), dtype=dtype)
    stebz, stein = get_lapack_funcs(("stebz", "stein"), dtype=float)
    nrm2, = get_blas_funcs(("nrm2",), dtype=dtype)  # scaled: no underflow
    lu = gttrf(lo, dg - z, up)[:5]
    tol = 1e-12

    def solve(x, trans="N"):  # T^{-1} x, or T^{-H} x for trans="C"
        return gttrs(*lu, x, trans=trans)[0]

    def a(x):
        return _tridiagonal_product(lo, dg, up, x)

    def a_t(x):
        return _tridiagonal_product(up, dg, lo, x)

    matvecs = {}  # k -> the matvecs of its Lanczos run

    def top(k, op):
        """The top eigenvalue of the Hermitian op, by Lanczos from the unit
        vector of ones, restarted from the top Ritz vector every
        LANCZOS_CYCLE steps; each new vector is orthogonalized twice
        against the cycle's basis.  The run stops once the top Ritz pair
        (theta, s) of the cycle's tridiagonal has |beta s_last| <= tol
        theta, ARPACK's test.  A product that vanishes or leaves the floats,
        a breakdown (beta <= tol ||op v||: what is left is rounding) before
        that test passes, a top eigenvalue that is not positive and
        LANCZOS_MATVECS spent raise ConvergenceError."""
        basis = np.empty((LANCZOS_CYCLE, n), dtype)
        v = np.full(n, 1 / math.sqrt(n), dtype)
        matvecs[k] = 0

        def fail():
            return ConvergenceError(
                f"resolvent norm k={k} did not converge on {n + 1} points "
                f"after {matvecs[k]} matvecs")

        while True:
            alpha, beta = [], []
            for m in range(LANCZOS_CYCLE):
                if matvecs[k] == LANCZOS_MATVECS:
                    raise fail()
                basis[m] = v
                w = op(v)
                matvecs[k] += 1
                size = nrm2(w)
                if not 0 < size < math.inf:
                    raise fail()
                alpha.append(np.vdot(v, w).real)
                for _ in range(2):
                    w -= (basis[:m + 1] @ w.conj()).conj() @ basis[:m + 1]
                beta.append(nrm2(w))
                breakdown = beta[-1] <= tol * size
                # the top Ritz pair every third step, at the cycle's end
                # and at a breakdown
                if m % 3 == 2 or m + 1 == LANCZOS_CYCLE or breakdown:
                    # bisect the top one (range 3: by index) and take its
                    # vector by inverse iteration; f2py wants one entry of
                    # the off-diagonal at m = 0
                    off = beta[:max(m, 1)]
                    theta, iblock, isplit = stebz(
                        alpha, off, 3, 0, 0, m + 1, m + 1, 0, "E")[1:4]
                    theta, s = theta[0], stein(
                        alpha, off, theta[:1], iblock, isplit)[0][:, 0]
                    if beta[-1] * abs(s[-1]) <= tol * abs(theta):
                        if not theta > 0:
                            raise fail()
                        return float(theta)
                    if breakdown:
                        raise fail()
                v = w / beta[-1]
            v = s @ basis
            v /= nrm2(v)

    norm0 = math.sqrt(top(0, lambda x: solve(solve(x), "C")))
    norm2 = math.sqrt(top(2, lambda x: solve(a_t(a_t(a(a(solve(x))))), "C")))
    if z == 0:
        return [norm0, 1.0, norm2], matvecs
    # K's diagonal and superdiagonal; its subdiagonal is the conjugate
    k_dg = 2 * z.real * dg - abs(z) * abs(z)
    k_up = z * lo + np.conj(z) * up
    f_diag, f_up, info = pttrf(-k_dg, -k_up)
    if info == 0:  # K is negative definite: nu of T (-K)^{-1} T^H
        def op(x):
            y = pttrs(f_diag, f_up, a_t(x) - np.conj(z) * x)[0]
            return a(y) - z * y
        norm1_sq = 1 - 1 / top(1, op)
    else:
        norm1_sq = 1 + top(1, lambda x: solve(_tridiagonal_product(
            np.conj(k_up), k_dg, k_up, solve(x)), "C"))
    # 1 -/+ an eigenvalue found to tol: a smaller square has no digit left
    norm1 = math.sqrt(norm1_sq) if norm1_sq > tol else math.nan
    return [norm0, norm1, norm2], matvecs


def __getattr__(name):
    """``schrodinger.eigsh``: scipy's ``eigsh``, imported on first access.
    Nothing in degcalc calls it; it exists only for the benchmark's tracer,
    which looks it up by name (``perfbench/tracing.py``,
    ``SCIPY_ENTRY_POINTS``)."""
    if name == "eigsh":
        from scipy.sparse.linalg import eigsh
        return eigsh
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
