"""Operator algebra: normal forms, composition, symbols, parametrices."""

import random
from fractions import Fraction

import pytest

from degcalc.diffop import (CylinderFunction, DiffOp, VectorField,
                            expand_X_power, is_elliptic,
                            lie_rinehart_check, op_commutator, op_compose,
                            parametrix_1d, principal_symbol, radial_symbol,
                            random_lie_rinehart_samples)
from degcalc.errors import PreconditionError
from degcalc.powerfun import RadialFunction
from degcalc.weights import Weight

F = Fraction


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

    def test_real_valued_flag(self):
        f = CylinderFunction({1: RadialFunction.const(1 + 2j),
                              -1: RadialFunction.const(1 - 2j)})
        assert f.is_real_valued()
        assert not CylinderFunction.harmonic(1).is_real_valued()


class TestExpandXPower:
    def test_known_second_power(self):
        # X^2 = phi^2 dt^2 + phi phi' dt, so coefficient set {1, phi'}
        for a in (1, F(3, 2), 2):
            w = Weight.from_term(1, a)
            co = expand_X_power(w, 2)
            assert co[2] == RadialFunction.const(1)
            assert co[1] == w.profile.derivative()

    def test_first_power_unchanged(self):
        w = Weight.from_term(1, F(3, 2))
        co = expand_X_power(w, 1)
        assert co == {1: RadialFunction.const(1)}

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
        mono = op.normal_form("monomial")
        for _ in range(10):
            m = rng.randint(-2, 2)
            f = CylinderFunction(
                {m: RadialFunction.term(F(rng.randint(-4, 4), 2),
                                        F(rng.randint(0, 3), 2),
                                        -rng.randint(0, 2))})
            assert op.apply(f) == mono.apply(f)

    def test_inadmissible_weight_rejected(self):
        # phi = t^{1/2}: phi' = t^{-1/2}/2 is unbounded at 0
        w = Weight.from_term(1, F(1, 2))
        op = DiffOp("lie", {(2, 0): 1}, w, w)
        with pytest.raises(PreconditionError):
            op.normal_form("monomial")


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

    def test_x_y_commutator_is_structure_function_times_y(self):
        w = Weight.from_term(1, 1)
        ps = Weight.from_term(1, F(1, 2))
        C = op_commutator(DiffOp.X(w, ps), DiffOp.Y(w, ps)).to_lie()
        assert set(C.coeffs) == {(0, 1)}
        assert C.coeffs[(0, 1)].radial_part() == RadialFunction.const(F(1, 2))


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
        assert all(ok for ok, _ in report.values()), report

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


class TestSymbols:
    def test_sum_of_squares_elliptic(self):
        w = Weight.from_term(1, 1)
        ps = Weight.from_term(1, 1)
        A = DiffOp("lie", {(2, 0): -1, (0, 2): -1}, w, ps)
        assert is_elliptic(A)

    def test_hyperbolic_not_elliptic(self):
        w = Weight.from_term(1, 1)
        ps = Weight.from_term(1, 1)
        A = DiffOp("lie", {(2, 0): 1, (0, 2): -1}, w, ps)
        assert not is_elliptic(A)

    def test_symbol_multiplicative_at_top_order(self):
        w = Weight.from_term(1, 1)
        ps = Weight.from_term(1, 1)
        A = DiffOp("lie", {(1, 0): RadialFunction.term(1, 0, -1)}, w, ps)
        B = DiffOp("lie", {(0, 1): RadialFunction.term(1, 1, -1)}, w, ps)
        sab = principal_symbol(op_compose(A, B))
        sa = principal_symbol(A.to_raw())
        sb = principal_symbol(B.to_raw())
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

    def test_vanishing_symbol_rejected(self):
        w = Weight.from_term(1, 1)
        # sigma = -xi^2 + 2 has real zeros
        A = DiffOp("lie", {(2, 0): 1, (0, 0): 2}, w, w)
        with pytest.raises(PreconditionError):
            parametrix_1d(A, 1)

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
