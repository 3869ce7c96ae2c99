"""Operator algebra: normal forms, composition, symbols, parametrices."""

import gc
import random
from fractions import Fraction
from math import comb

import pytest
from sympy.polys.domains import QQ_I
from sympy.polys.fields import field

from degcalc.diffop import (CylinderFunction, DiffOp, PoweredSymbol,
                            VectorField, _Basis, _check_invertible,
                            lie_rinehart_check,
                            op_commutator, op_compose, parametrix_1d,
                            radial_symbol, random_lie_rinehart_samples)
from degcalc.errors import PreconditionError
from degcalc.powerfun import UNIT_INTERVAL, RadialFunction
from degcalc.schrodinger import SchrodingerProblem, rewrite
from degcalc.weights import Weight, structure_function

F = Fraction

#: the single-term weights (coeff, p, q) of the symbolic benchmark's pool,
#: and psi with a non-dyadic coefficient
PHI_TERMS = [(1, 1, 0), (2, 1, 0), (1, F(3, 2), 0), (F(3, 2), 2, -1)]
PSI_TERMS = [(1, 1, 0), (1, F(1, 2), 0), (F(5, 7), F(1, 2), 0)]

#: far-field operators of rewritten problems, all of order m = 2
FAR_FIELD = {
    "hydrogen Z=1 n=3 l=0": SchrodingerProblem.hydrogen(n=3, l=0, charge=1),
    "hydrogen Z=2 n=2 l=1": SchrodingerProblem.hydrogen(n=2, l=1, charge=2),
    "oscillator n=3 l=0": SchrodingerProblem.oscillator(n=3, l=0),
}


def far_field_op(name):
    return rewrite(FAR_FIELD[name]).op_infinity


def gauss_rational(c):
    c = F(c)
    return QQ_I(c.numerator) / QQ_I(c.denominator)


def sympy_remainders(A, xi, n_max):
    """Oracle: E_N = 1 - sigma # (q_0 + ... + q_{N-1}) at a fixed rational
    xi for N = 1 .. n_max, as rational functions of r in sympy's field
    Q(i)(r), where every operation reduces to lowest terms.

    sigma = sum_j a_j(r) (i xi)^j comes from A's radial lie coefficients,
    q_k = (1 - sigma # (q_0 + ... + q_{k-1})) / sigma, and
    sigma # q = sum_alpha (1/alpha!) d_xi^alpha sigma * D_s^alpha q with
    D_s = -i phi d/dr.  Returns the remainders and r's polynomial generator.
    """
    K, r = field("r", QQ_I)
    x = K.ring.gens[0]
    i = K(QQ_I(0, 1))

    def ring(f):
        out = K(0)
        for (p, q), c in f.terms.items():
            assert p.denominator == q.denominator == 1
            out += gauss_rational(c) * r ** int(p) * (1 - r) ** int(q)
        return out

    def d_r(f):
        # FracElement.diff wants a generator whose denominator == 1, which
        # QQ_I's unit (1 + 0*I) is not, so the quotient rule is spelled out
        return K.new(f.numer.diff(x) * f.denom - f.numer * f.denom.diff(x),
                     f.denom ** 2)

    a = {j: ring(c.radial_part()) for (j, _), c in A.coeffs.items()}
    m = max(a)
    # (1/alpha!) d_xi^alpha sigma at xi
    dsig = [sum((a[j] * i ** j * comb(j, al) * gauss_rational(xi) ** (j - al)
                 for j in a if j >= al), K(0)) for al in range(m + 1)]
    phi = ring(A.phi.profile)

    def sharp(q):
        out = K(0)
        for al in range(m + 1):
            if al:
                q = -i * phi * d_r(q)
            out += dsig[al] * q
        return out

    parts = []
    for _ in range(n_max):
        parts.append(sharp((1 - sum(parts, K(0))) / dsig[0]))
    return [1 - sum(parts[:N], K(0)) for N in range(1, n_max + 1)], x


def field_value(f, x, r):
    """The exact value of f in Q(i)(r) at a rational r, rounded once."""
    r = gauss_rational(r)
    v = f.numer.evaluate(x, r) / f.denom.evaluate(x, r)
    return complex(float(v.x), float(v.y))


def brute_X_power(w, n):
    """Oracle: X^n by repeated raw composition."""
    X = DiffOp("raw", {(1, 0): CylinderFunction.radial(w.profile)}, w, w)
    out = DiffOp.identity(w, w)
    for _ in range(n):
        out = op_compose(X, out)
    return out


class TestCylinderFunction:
    def test_fourier_derivative(self):
        f = CylinderFunction.harmonic(2)
        g = f.d_theta()
        assert g.modes[2] == RadialFunction.const(2j)

    def test_product_convolves_modes(self):
        f = CylinderFunction.harmonic(1)
        g = CylinderFunction.harmonic(-1)
        assert (f * g).modes[0] == RadialFunction.const(1)

    def test_mixed_domain_coefficients_rejected(self):
        w = Weight.from_term(1, 1)
        unit = CylinderFunction.const(1, domain=UNIT_INTERVAL)
        unit_radial = RadialFunction.const(1, domain=UNIT_INTERVAL)
        for c in (unit, unit_radial):
            with pytest.raises(PreconditionError):
                DiffOp("raw", {(0, 0): c}, w)
            with pytest.raises(PreconditionError):
                VectorField(c, 0, w, w)
            with pytest.raises(PreconditionError):
                CylinderFunction.const(1) + c

    def test_scalar_coefficients_rejected(self):
        # scalars enter through const() or arithmetic, never the constructor
        with pytest.raises(TypeError, match="RadialFunctions"):
            CylinderFunction({0: 2})


class TestExpandXPower:
    """Monomial coefficients a_k of X^n = sum_k a_k phi^k dt^k."""

    def test_known_second_power(self):
        # X^2 = phi^2 dt^2 + phi phi' dt, so coefficient set {1, phi'}
        for a in (1, F(3, 2), 2):
            w = Weight.from_term(1, a)
            co = DiffOp("lie", {(2, 0): 1}, w).to_monomial().coeffs
            assert co[(2, 0)] == CylinderFunction.const(1)
            dphi = w.profile.derivative()
            assert co[(1, 0)] == CylinderFunction.radial(dphi)

    def test_first_power_unchanged(self):
        w = Weight.from_term(1, F(3, 2))
        co = DiffOp.X(w).to_monomial().coeffs
        assert co == {(1, 0): CylinderFunction.const(1)}

    @pytest.mark.parametrize("profile", [
        RadialFunction.term(1, 1),
        RadialFunction.term(1, F(3, 2), -3),
        RadialFunction.term(1, 2, -3),
    ])
    def test_matches_brute_force(self, profile):
        w = Weight(profile)
        for n in range(7):
            rec = DiffOp("lie", {(n, 0): 1}, w, w).to_monomial()
            assert rec == brute_X_power(w, n).to_monomial()


class TestNormalForm:
    def test_round_trip_order_three(self):
        w = Weight(RadialFunction.term(1, 2, -3))
        op = DiffOp("lie", {(2, 1): RadialFunction.term(F(1, 2), 1, -1),
                            (1, 0): RadialFunction.term(1, 0, -1),
                            (0, 0): 3}, w, w)
        assert op.to_monomial().to_lie() == op

    def test_normal_form_preserves_apply(self):
        rng = random.Random(3)
        w = Weight(RadialFunction.term(1, 1))
        ps = Weight(RadialFunction.term(1, F(1, 2)))
        op = DiffOp("lie", {(2, 0): RadialFunction.term(F(1, 2), 1, -2),
                            (1, 1): 1, (0, 1): RadialFunction.term(2, 0, -1)},
                    w, ps)
        mono = op.to_monomial()
        for _ in range(10):
            m = rng.randint(-2, 2)
            f = CylinderFunction(
                {m: RadialFunction.term(F(rng.randint(-4, 4), 2),
                                        F(rng.randint(0, 3), 2),
                                        -rng.randint(0, 2))})
            assert op.apply(f) == mono.apply(f)

    @pytest.mark.parametrize("phi, psi", [
        (RadialFunction.term(1, 1), RadialFunction.term(1, F(1, 2))),
        (RadialFunction.term(1, 2, -3), RadialFunction.term(1, 1)),
    ], ids=["t,t^1/2", "t^2(1+t)^-3,t"])
    @pytest.mark.parametrize("i, j", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                                      (3, 1)])
    def test_mixed_term_matches_composition(self, phi, psi, i, j):
        # oracle: raw multiplication by c, then i copies of X and j of Y,
        # composed by op_compose's general Leibniz rule
        phi, psi = Weight(phi), Weight(psi)
        c = CylinderFunction({0: RadialFunction.term(F(2, 3), 1, -1),
                              2: RadialFunction.term(F(-5, 7), F(1, 2))})
        out = DiffOp("raw", {(0, 0): c}, phi, psi)
        for factor in [DiffOp.X(phi, psi)] * i + [DiffOp.Y(phi, psi)] * j:
            out = op_compose(out, factor)
        assert DiffOp("lie", {(i, j): c}, phi, psi).to_raw() == out

    def test_multi_term_weight_rejected(self):
        w = Weight(RadialFunction({(1, 0): 1, (2, -1): 1}))
        for op in (DiffOp("raw", {(1, 0): 1}, w, w), DiffOp("raw", {}, w, w)):
            with pytest.raises(PreconditionError):
                op.to_monomial()
            with pytest.raises(PreconditionError):
                op.to_lie()


def entry_texts(basis):
    """Every entry of a basis table as text, to catch a mutated entry."""
    return {key: val.to_text() if isinstance(val, RadialFunction)
            else sorted((k, b.to_text()) for k, b in val.items())
            for key, val in basis.items()}


class TestBasisTable:
    """The basis table of a weight pair is shared by every conversion over
    it, kept on phi and keyed by psi's value."""

    def test_shared_table_equals_fresh_table(self):
        def ops():
            phi = Weight.from_term(F(3, 2), 2, -1)
            psi = Weight.from_term(1, F(1, 2))
            return (DiffOp("monomial", {(3, 0): 1, (1, 1): 2}, phi, psi),
                    DiffOp("lie", {(7, 0): 1, (2, 2): F(1, 3)}, phi, psi))

        convert = [(0, "to_lie"), (1, "to_raw"), (1, "to_monomial"),
                   (1, "to_lie")]
        forward, backward = ops(), ops()
        results = {
            "X^3 first": [getattr(forward[k], name)() for k, name in convert],
            "X^7 first": [getattr(backward[k], name)()
                          for k, name in convert[::-1]][::-1],
            "fresh": [getattr(ops()[k], name)() for k, name in convert]}
        assert len(forward[0].phi._bases) == 1
        want = results.pop("fresh")
        for got in results.values():
            for a, b in zip(got, want):
                assert a.form == b.form and a.to_text() == b.to_text()
                assert a.coeffs == b.coeffs

    def test_entries_are_never_mutated(self):
        phi, psi = Weight.from_term(2, 1), Weight.from_term(1, F(1, 2))
        A = DiffOp("lie", {(3, 1): RadialFunction.term(F(1, 2), 1, -1),
                           (0, 2): 3}, phi, psi)
        raw = A.to_raw()
        (basis,) = phi._bases.values()
        before = entry_texts(basis)
        assert ("lie", 3, 1) in before
        mono, lie = A.to_monomial(), (raw * 2).to_lie()
        bracket = op_commutator(raw, lie)
        assert raw + mono == A * 2 and raw - lie == A * -1
        assert op_compose(A, mono).to_lie() == op_compose(raw, A)
        assert bracket.to_lie() == bracket.to_monomial() == bracket
        assert A.apply(CylinderFunction.harmonic(1)) == \
            mono.apply(CylinderFunction.harmonic(1))
        after = entry_texts(basis)
        assert {key: after[key] for key in before} == before

    def test_each_entry_is_formed_once(self, monkeypatch):
        formed = []
        missing = _Basis.__missing__

        def counted(self, key):
            formed.append(key)
            return missing(self, key)

        monkeypatch.setattr(_Basis, "__missing__", counted)
        phi, psi = Weight.from_term(1, F(3, 2)), Weight.from_term(1, 1)
        DiffOp("lie", {(10, 0): 1}, phi, psi).to_raw().to_monomial().to_lie()
        assert len(formed) == len(set(formed))
        assert {("lie", i, 0) for i in range(11)} <= set(formed)
        formed.clear()
        DiffOp("lie", {(10, 0): 1}, phi, Weight.from_term(1, 1)).to_raw() \
            .to_monomial().to_lie()
        assert formed == []

    def test_default_psi_keeps_one_table(self):
        phi = Weight.from_term(1, 1)
        for n in range(1, 6):
            op = DiffOp("lie", {(n, 0): 1}, phi)
            assert op.psi is not DiffOp.X(phi).psi
            op.to_raw().to_lie()
        assert len(phi._bases) == 1
        DiffOp.X(phi, Weight.from_term(1, F(1, 2))).to_raw()
        assert len(phi._bases) == 2

    def test_equal_psi_built_apart_shares_one_table(self):
        phi = Weight.from_term(1, 1)
        root = RadialFunction.term(1, F(1, 2))
        for psi in (Weight.from_term(1, 1), Weight(root * root)):
            DiffOp("lie", {(2, 1): 1}, phi, psi).to_raw()
        assert len(phi._bases) == 1

    def test_conversions_render_no_text(self, monkeypatch):
        def refuse(self):
            raise AssertionError("rendered text")

        monkeypatch.setattr(RadialFunction, "to_text", refuse)
        phi, psi = Weight.from_term(2, 1), Weight.from_term(1, F(1, 2))
        A = DiffOp("lie", {(2, 1): RadialFunction.term(F(1, 3), 1, -1),
                           (0, 1): 1}, phi, psi)
        raw = A.to_raw()
        assert A.to_monomial().to_lie().coeffs == A.coeffs
        assert raw.to_lie().to_raw().coeffs == raw.coeffs

    def test_tables_are_freed_with_their_weights(self):
        def tables():
            gc.collect()
            return sum(type(o) is _Basis for o in gc.get_objects())

        before = tables()
        phi, psi = Weight.from_term(1, 2, -1), Weight.from_term(1, 1)
        ops = [DiffOp("lie", {(n, 1): 1}, phi, psi).to_monomial()
               for n in range(4)]
        assert tables() == before + 1
        del phi, psi, ops
        assert tables() == before


class TestComposition:
    def test_identity_neutral(self):
        w = Weight.from_term(1, 1)
        A = DiffOp("lie", {(1, 0): 1, (0, 0): 2}, w, w)
        I = DiffOp.identity(w, w)
        assert op_compose(A, I) == A.to_raw()
        assert op_compose(I, A) == A.to_raw()

    def test_associativity_random(self):
        rng = random.Random(9)
        w = Weight.from_term(1, 1)
        ps = Weight.from_term(1, F(1, 2))

        def rnd_op():
            coeffs = {}
            for _ in range(2):
                key = (rng.randint(0, 1), rng.randint(0, 1))
                coeffs[key] = RadialFunction.term(
                    F(rng.randint(-3, 3), 2), F(rng.randint(0, 2), 2),
                    -rng.randint(0, 2))
            return DiffOp("lie", coeffs, w, ps)

        for _ in range(10):
            A, B, C = rnd_op(), rnd_op(), rnd_op()
            assert op_compose(op_compose(A, B), C) == \
                op_compose(A, op_compose(B, C))

    def test_commutator_drops_order(self):
        rng = random.Random(21)
        w = Weight.from_term(1, 1)
        ps = Weight.from_term(1, F(1, 2))
        for _ in range(20):
            u = CylinderFunction({0: RadialFunction.term(
                F(rng.randint(-4, 4), 2), rng.randint(0, 2),
                -rng.randint(0, 2))})
            v = CylinderFunction({0: RadialFunction.term(
                F(rng.randint(-4, 4), 2), rng.randint(0, 2),
                -rng.randint(0, 2))})
            A = DiffOp("lie", {(1, 0): u}, w, ps)
            B = DiffOp("lie", {(0, 1): v}, w, ps)
            assert op_commutator(A, B).order <= 1

    @staticmethod
    def random_operator(rng, phi, psi, angular):
        """A lie-form operator of order <= 3 with multi-term Fraction
        coefficients on mode 0 and, if ``angular``, terms on modes +-1.
        Angular operators keep every coefficient dyadic, so the complex
        factors of d_theta multiply them exactly in floating point."""
        dens = (1, 2, 4) if angular else (1, 2, 3, 5, 7)

        def term():
            return RadialFunction.term(
                F(rng.choice([k for k in range(-9, 10) if k]),
                  rng.choice(dens)), F(rng.randint(0, 4), 2),
                -rng.randint(0, 2))

        keys = [(i, j) for i in range(4) for j in range(4 - i)]
        coeffs = {}
        for key in rng.sample(keys, rng.randint(1, 3)):
            modes = {0: sum((term() for _ in range(rng.randint(1, 3))),
                            RadialFunction.zero())}
            for m in rng.sample([-1, 1], rng.randint(1, 2) * angular):
                modes[m] = term()
            coeffs[key] = CylinderFunction(modes)
        return DiffOp("lie", coeffs, phi, psi)

    def test_commutator_is_the_full_expansion(self):
        # the commutator skips the products b1 b2 that cancel; the full
        # A o B - B o A forms them
        rng = random.Random(27)
        for k in range(60):
            phi = Weight.from_term(*rng.choice(PHI_TERMS))
            psi = Weight.from_term(*rng.choice(PSI_TERMS[:2]))
            A, B = (self.random_operator(rng, phi, psi, k % 2) for _ in "AB")
            assert op_commutator(A, B) == op_compose(A, B) - op_compose(B, A)
            if not k % 2:
                assert A.to_raw().to_lie().coeffs == A.coeffs
                assert A.to_monomial().to_lie().coeffs == A.coeffs

    @pytest.mark.parametrize("n", range(11))
    def test_conversions_match_composing_x(self, n):
        psi = Weight.from_term(*PSI_TERMS[1])
        for term in PHI_TERMS:
            phi = Weight.from_term(*term)
            X = DiffOp.X(phi, psi)
            for j in range(3):
                lie = DiffOp("lie", {(n, j): 1}, phi, psi)
                brute = DiffOp("lie", {(0, j): 1}, phi, psi).to_raw()
                for _ in range(n):
                    brute = op_compose(X, brute)
                raw = lie.to_raw()
                assert raw.coeffs == brute.coeffs
                assert lie.to_monomial().to_raw().coeffs == brute.coeffs
                assert raw.to_lie().coeffs == lie.coeffs
                assert raw.to_monomial().to_lie().coeffs == lie.coeffs

    def test_ux_vx_bracket_formula(self):
        w = Weight.from_term(1, 1)
        u = RadialFunction.term(1, 1, -1)
        v = RadialFunction.term(F(1, 2), 0, -1)
        X = DiffOp.X(w, w)
        uX = DiffOp("lie", {(1, 0): u}, w, w)
        vX = DiffOp("lie", {(1, 0): v}, w, w)
        lhs = op_commutator(uX, vX)
        coeff = (u * (w.profile * v.derivative())
                 - v * (w.profile * u.derivative()))
        rhs = DiffOp("lie", {(1, 0): coeff}, w, w)
        assert lhs == rhs.to_raw()

    @pytest.mark.parametrize("phi_term", PHI_TERMS)
    @pytest.mark.parametrize("psi_term", PSI_TERMS)
    def test_x_y_commutator_is_structure_function_times_y(self, phi_term,
                                                          psi_term):
        w = Weight.from_term(*phi_term)
        ps = Weight.from_term(*psi_term)
        C = op_commutator(DiffOp.X(w, ps), DiffOp.Y(w, ps)).to_lie()
        assert set(C.coeffs) == {(0, 1)}
        assert C.coeffs[(0, 1)] == CylinderFunction.radial(
            structure_function(ps, w).ring)

    @pytest.mark.parametrize("phi_term", PHI_TERMS)
    @pytest.mark.parametrize("psi_term", PSI_TERMS[:2])
    def test_general_bracket_formula(self, phi_term, psi_term):
        # [uX + vY, pX + qY] = (Z(p) - W(u)) X
        #                      + (Z(q) - W(v) + (u q - v p) C) Y
        # with Z = uX + vY, W = pX + qY and C = phi psi' / psi; dyadic
        # coefficients on two Fourier modes keep every product exact
        rng = random.Random(5)
        w = Weight.from_term(*phi_term)
        ps = Weight.from_term(*psi_term)
        C = CylinderFunction.radial(structure_function(ps, w).ring)

        def rnd_cf():
            return CylinderFunction({m: RadialFunction.term(
                F(rng.randint(-8, 8), rng.choice([1, 2, 4])),
                F(rng.randint(0, 4), 2), -rng.randint(0, 2))
                for m in rng.sample([-2, -1, 1, 2], 2)})

        for _ in range(3):
            u, v, p, q = rnd_cf(), rnd_cf(), rnd_cf(), rnd_cf()
            Z, W = VectorField(u, v, w, ps), VectorField(p, q, w, ps)
            want = VectorField(Z.apply(p) - W.apply(u),
                               Z.apply(q) - W.apply(v) + (u * q - v * p) * C,
                               w, ps)
            got = op_commutator(Z, W).to_lie()
            assert not got.coeffs[(0, 1)].is_radial
            assert got == want
            assert set(got.coeffs) <= {(1, 0), (0, 1)}

    def test_vector_field_is_lie_form_diffop(self):
        w = Weight.from_term(1, 1)
        ps = Weight.from_term(1, F(1, 2))
        u = CylinderFunction.harmonic(1)
        v = RadialFunction.term(3, 1, -1)
        Z = VectorField(u, v, w, ps)
        assert isinstance(Z, DiffOp) and Z.form == "lie"
        assert Z.coeffs == {(1, 0): u, (0, 1): CylinderFunction.radial(v)}
        assert Z == DiffOp("lie", {(1, 0): u, (0, 1): v}, w, ps)

    def test_cylinder_function_times_operator(self):
        # CylinderFunction.__mul__ defers to DiffOp.__rmul__, as
        # RadialFunction.__mul__ does
        w = Weight.from_term(1, 1)
        ps = Weight.from_term(1, F(1, 2))
        a = CylinderFunction.harmonic(2) + CylinderFunction.const(3)
        for Z in (DiffOp.X(w, ps), VectorField(a, a, w, ps)):
            assert a * Z == Z * a
            assert CylinderFunction.radial(RadialFunction.term(2, 1)) * Z \
                == RadialFunction.term(2, 1) * Z
        with pytest.raises(TypeError, match="unsupported operand"):
            a * object()


class TestApply:
    def test_y_on_harmonic(self):
        w = Weight.from_term(1, 1)
        ps = Weight.from_term(1, F(1, 2))
        out = DiffOp.Y(w, ps).apply(CylinderFunction.harmonic(1))
        assert out.modes[1] == RadialFunction.term(1j, F(1, 2), 0)

    def test_x_on_radial(self):
        w = Weight(RadialFunction.term(1, 2, -3))
        f = CylinderFunction.radial(RadialFunction.term(1, F(1, 2)))
        out = DiffOp.X(w, w).apply(f)
        assert out.modes[0] == RadialFunction.term(F(1, 2), F(3, 2), -3)

    def test_zero_input(self):
        w = Weight.from_term(1, 1)
        A = DiffOp("lie", {(2, 0): 1}, w, w)
        assert A.apply(CylinderFunction.zero()).is_zero


class TestLieRinehart:
    def test_axioms_on_samples(self):
        phi = Weight.from_term(1, 1)
        psi = Weight.from_term(1, F(1, 2))
        samples = random_lie_rinehart_samples(phi, psi, 10, seed=2)
        report = lie_rinehart_check(phi, psi, samples)
        assert report == {name: (True, 0) for name in (
            "jacobi", "leibniz", "module_action", "module_bracket",
            "derivation")}

    # a coefficient that is not dyadic: the complex-float elimination in
    # DiffOp.to_lie leaves a residue where exact arithmetic would cancel
    @pytest.mark.xfail(strict=True, raises=PreconditionError,
                       reason="to_lie fails to cancel the top term")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_axioms_on_non_dyadic_samples(self, seed):
        phi = Weight.from_term(1, 1)
        psi = Weight.from_term(F(5, 7), F(1, 2))
        samples = random_lie_rinehart_samples(phi, psi, 6, seed=seed)
        report = lie_rinehart_check(phi, psi, samples)
        assert all(ok for ok, _ in report.values())

    def test_zero_field_passes(self):
        phi = Weight.from_term(1, 1)
        psi = Weight.from_term(1, 1)
        zero = CylinderFunction.zero()
        Z = VectorField(zero, zero, phi, psi)
        sample = {"Z": Z, "W": Z, "U": Z,
                  "a": CylinderFunction.const(1),
                  "f": CylinderFunction.const(1)}
        report = lie_rinehart_check(phi, psi, [sample])
        assert all(ok for ok, _ in report.values())

    def test_fields_must_be_built_over_the_given_weights(self):
        phi = Weight.from_term(1, 1)
        psi = Weight.from_term(1, F(1, 2))
        samples = random_lie_rinehart_samples(phi, psi, 2, seed=3)
        # equal weights built apart pass: the weights compare by value
        assert lie_rinehart_check(Weight.from_term(1, 1),
                                  Weight.from_term(1, F(1, 2)), samples)
        with pytest.raises(PreconditionError, match="sample 0: field Z"):
            lie_rinehart_check(None, None, samples)
        other = Weight.from_term(2, 1)
        samples[1]["W"] = VectorField(CylinderFunction.const(1),
                                      CylinderFunction.zero(), other, psi)
        with pytest.raises(PreconditionError, match="sample 1: field W"):
            lie_rinehart_check(phi, psi, samples)
        with pytest.raises(PreconditionError, match="sample 0: field Z"):
            lie_rinehart_check(phi, phi, samples)


class TestSymbols:
    @staticmethod
    def top_order(A):
        """The monomial coefficients c_ij with i + j = order."""
        mono = A.to_monomial()
        return {key: c for key, c in mono.coeffs.items()
                if sum(key) == mono.order}

    def test_symbol_multiplicative_at_top_order(self):
        w = Weight.from_term(1, 1)
        ps = Weight.from_term(1, 1)
        A = DiffOp("lie", {(1, 0): RadialFunction.term(1, 0, -1)}, w, ps)
        B = DiffOp("lie", {(0, 1): RadialFunction.term(1, 1, -1)}, w, ps)
        sab = self.top_order(op_compose(A, B))
        sa = self.top_order(A.to_raw())
        sb = self.top_order(B.to_raw())
        ((ka, ca),) = sa.items()
        ((kb, cb),) = sb.items()
        assert sab == {(ka[0] + kb[0], ka[1] + kb[1]): ca * cb}


class TestParametrix:
    def test_constant_coefficient_exact_inverse(self):
        w = Weight.from_term(1, 1)
        A = DiffOp("lie", {(2, 0): 1, (0, 0): -2}, w, w)
        px = parametrix_1d(A, 3)
        # q0 = 1/((i xi)^2 - 2), later corrections vanish identically
        assert px.terms[0].evaluate(1.0, 2.0) == pytest.approx(-1 / 6)
        assert px.terms[1].is_zero and px.terms[2].is_zero
        assert px.remainder.is_zero

    def test_shifted_symbol_reference(self):
        # sigma(d_s^2 - 1)^{-1} at xi: 1/(-xi^2 - 1)
        w = Weight.from_term(1, 1)
        A = DiffOp("lie", {(2, 0): 1, (0, 0): -1}, w, w)
        px = parametrix_1d(A, 1)
        for xi in (0.5, 2.0):
            assert px.terms[0].evaluate(1.0, xi) == \
                pytest.approx(1.0 / (-xi ** 2 - 1))

    def test_n_zero_empty_expansion(self):
        w = Weight.from_term(1, 1)
        A = DiffOp("lie", {(2, 0): 1, (0, 0): -1}, w, w)
        px = parametrix_1d(A, 0)
        assert px.terms == []
        assert px.remainder_order == 2

    def test_remainders_of_every_order(self):
        w = Weight.from_term(1, 1)
        V = RadialFunction.term(1, 1, -1) + RadialFunction.const(2)
        A = DiffOp("lie", {(2, 0): 1, (0, 0): -1 * V}, w, w)
        px = parametrix_1d(A, 3)
        assert len(px.remainders) == 4 and px.remainder is px.remainders[3]
        assert px.remainders[0].evaluate(0.7, 8.0) == 1
        for N in range(4):
            assert px.remainders[N].evaluate(0.7, 8.0) == \
                parametrix_1d(A, N).remainder.evaluate(0.7, 8.0)

    def test_orders_in_any_order_match_fresh_builds(self):
        # one operator keeps its recursion; each request must still equal
        # the expansion of a separately built equal operator
        name = "hydrogen Z=2 n=2 l=1"
        A = far_field_op(name)
        for N in (3, 1, 2, 0):
            px, fresh = parametrix_1d(A, N), parametrix_1d(far_field_op(name),
                                                           N)
            assert len(px.terms) == N and len(px.remainders) == N + 1
            assert px.remainder is px.remainders[-1]
            assert px.remainder_order == fresh.remainder_order
            for got, want in zip(px.terms + px.remainders,
                                 fresh.terms + fresh.remainders,
                                 strict=True):
                assert got.num == want.num and got.power == want.power

    def test_higher_order_reuses_lower_ones(self, monkeypatch):
        products = []
        real = RadialFunction.__mul__
        monkeypatch.setattr(RadialFunction, "__mul__",
                            lambda f, g: products.append(1) or real(f, g))

        def count(A, N):
            products.clear()
            parametrix_1d(A, N)
            return len(products)

        A = far_field_op("oscillator n=3 l=0")
        step = count(A, 1)
        assert count(A, 3) + step == \
            count(far_field_op("oscillator n=3 l=0"), 3)
        for N in (3, 2, 0):
            assert count(A, N) == 0

    def test_failed_check_stores_nothing(self):
        A = rewrite(SchrodingerProblem.oscillator()).op_zero
        for _ in range(2):
            with pytest.raises(PreconditionError,
                               match="full symbol vanishes for real xi"):
                parametrix_1d(A, 1)
        assert A._parametrix is None

    def test_negative_order_rejected(self):
        A = far_field_op("oscillator n=3 l=0")
        with pytest.raises(PreconditionError, match="order"):
            parametrix_1d(A, -1)
        parametrix_1d(A, 2)
        # a kept recursion must not read -1 as a slice from the end
        with pytest.raises(PreconditionError, match="order"):
            parametrix_1d(A, -1)

    def test_remainder_decays_in_xi(self):
        w = Weight.from_term(1, 1)
        V = RadialFunction.term(1, 1, -1) + RadialFunction.const(2)
        A = DiffOp("lie", {(2, 0): 1, (0, 0): -1 * V}, w, w)
        prev = None
        for N in (1, 2, 3):
            px = parametrix_1d(A, N)
            val = abs(px.remainder.evaluate(0.7, 8.0))
            if prev is not None:
                assert val < prev
            prev = val

    @pytest.mark.parametrize("name", ["hydrogen Z=1 n=3 l=0",
                                      "oscillator n=3 l=0"])
    def test_remainder_in_lowest_terms(self, name):
        # a polynomial symbol stays polynomial under d_xi, so E_N carries
        # base^{(m+1)N} and xi-degree 5N - 1 for m = 2, not base^{5N};
        # the orders of q_k and E_N do not depend on that
        A = far_field_op(name)
        m = 2
        for N, remainder_order in ((1, -2), (2, -3), (3, -4)):
            px = parametrix_1d(A, N)
            E = px.remainder
            assert E.power == (m + 1) * N
            assert len(E.num) - 1 == 5 * N - 1
            assert E.order == remainder_order
            orders = [q.order for q in px.terms]
            assert orders == [-2, -4, -5][:N]
            assert all(o <= -m - k for k, o in enumerate(orders))

    def test_polynomial_symbol_stays_polynomial(self):
        A = far_field_op("oscillator n=3 l=0")
        sigma = radial_symbol(A)
        assert sigma.power == 0
        # sigma = -zeta^2 + 3 r^2 zeta + 1 in zeta = i xi, with phi = r^3
        assert [c.to_text() for c in sigma.num] == [
            "1 * t^0 * (1-t)^0", "3 * t^2 * (1-t)^0", "-1 * t^0 * (1-t)^0"]
        for d in (sigma.X(A.phi), sigma.X(A.phi).X(A.phi)):
            assert d.power == 0
        dX = sigma.X(A.phi)
        assert len(dX.num) == len(sigma.num) - 1
        for xi in (0.5, 3.0):
            # X sigma = r^3 d/dr (3 r^2) zeta = 6 r^4 i xi
            assert dX.evaluate(0.25, xi) == pytest.approx(6 / 256 * xi * 1j)
        q0 = PoweredSymbol([RadialFunction.const(1, domain=A.domain)],
                           sigma.num, 1)
        assert q0.X(A.phi).power == 2

    @pytest.mark.parametrize("name", sorted(FAR_FIELD))
    def test_remainder_matches_sympy(self, name):
        A = far_field_op(name)
        pxs = [parametrix_1d(A, N) for N in (1, 2, 3)]
        for r, xi in ((F(1, 16), 2), (F(1, 4), 5), (F(5, 8), 3)):
            want, x = sympy_remainders(A, xi, 3)
            for px, E in zip(pxs, want):
                exact = field_value(E, x, r)
                got = px.remainder.evaluate(float(r), float(xi))
                assert abs(got - exact) <= 1e-13 * abs(exact), (r, xi)

    def test_vanishing_symbol_rejected(self):
        w = Weight.from_term(1, 1)
        # sigma = -xi^2 + 2 has real zeros
        A = DiffOp("lie", {(2, 0): 1, (0, 0): 2}, w, w)
        with pytest.raises(PreconditionError):
            parametrix_1d(A, 1)

    def test_vanishing_leading_coefficient_rejected(self):
        # sigma = -t xi^2 + 1 loses its degree at t = 0
        w = Weight.from_term(1, 1)
        A = DiffOp("lie", {(2, 0): RadialFunction.term(1, 1), (0, 0): 1}, w, w)
        with pytest.raises(PreconditionError, match="not elliptic"):
            parametrix_1d(A, 1)

    # the leading coefficient tends to 0 at the face t = 0, resp. to
    # infinity at the far face, though it is positive on the interior
    @pytest.mark.parametrize("lead", [RadialFunction.term(1, 1, -1),
                                      RadialFunction.term(1, 0, 1)],
                             ids=["t/(1+t)", "1+t"])
    def test_leading_coefficient_read_at_the_faces(self, lead):
        w = Weight.from_term(1, 1)
        A = DiffOp("lie", {(2, 0): lead, (0, 0): -1}, w, w)
        with pytest.raises(PreconditionError, match="not elliptic"):
            parametrix_1d(A, 1)

    def test_zero_constant_coefficient_rejected(self):
        # sigma = -xi^2 + i xi vanishes at xi = 0 on every radius
        w = Weight.from_term(1, 1)
        A = DiffOp("lie", {(2, 0): 1, (1, 0): 1}, w, w)
        with pytest.raises(PreconditionError,
                           match="full symbol vanishes for real xi"):
            parametrix_1d(A, 1)

    def test_small_leading_coefficient_accepted(self):
        # the face limits 1e-10 are small but finite and nonzero
        w = Weight.from_term(1, 1)
        A = DiffOp("lie", {(2, 0): 1e-10, (0, 0): -1}, w, w)
        px = parametrix_1d(A, 2)
        assert px.terms[0].evaluate(1.0, 2.0) == pytest.approx(
            1 / (-4e-10 - 1), rel=1e-15)
        assert px.terms[1].is_zero and px.remainder.is_zero

    # coefficients of zeta^0, zeta^1, zeta^2 in zeta = i xi, each read in xi
    # as the coefficient times i^k; a wrong companion matrix, one that
    # repeats its first row or multiplies where it should divide, finds a
    # real root in the first two
    @pytest.mark.parametrize("coeffs, invertible", [
        ((5, 0, -1), True), ((1, -2j, -2), True), ((-5, 0, -1), False)],
        ids=["xi^2+5", "2xi^2+2xi+1", "xi^2-5"])
    def test_check_invertible_reads_zeta(self, coeffs, invertible):
        poly = [RadialFunction.const(c) for c in coeffs]
        if invertible:
            _check_invertible(poly)
        else:
            with pytest.raises(PreconditionError,
                               match="full symbol vanishes for real xi"):
                _check_invertible(poly)

    def test_every_form_has_one_parametrix(self):
        # phi = t^{1/2} has phi' unbounded at 0, yet X^2 - 1 converts from
        # raw form back to lie form exactly, so its parametrix is the same
        w = Weight.from_term(1, F(1, 2))
        A = DiffOp("lie", {(2, 0): 1, (0, 0): -1}, w, Weight.from_term(1, 1))
        assert A.to_raw().to_lie() == A

        def texts(px):
            return [([c.to_text() for c in s.num], s.power)
                    for s in px.terms + px.remainders]

        for N in (1, 3):
            assert texts(parametrix_1d(A.to_raw(), N)) == \
                texts(parametrix_1d(A, N))

    def test_radial_symbol_rejects_angular_ops(self):
        w = Weight.from_term(1, 1)
        A = DiffOp("lie", {(0, 1): 1}, w, w)
        with pytest.raises(PreconditionError):
            radial_symbol(A)


class TestTextRendering:
    def test_forms_render(self):
        w = Weight.from_term(1, 1)
        op = DiffOp("lie", {(2, 0): 1, (0, 1): 2}, w, w)
        assert "X^2" in op.to_text()
        assert "d_t^2" in op.to_raw().to_text()
        assert "phi d_t" in op.to_monomial().to_text()
