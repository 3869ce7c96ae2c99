"""Groupoid laws, deformation charts, zeta cocycles, kernel conjugation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from degcalc.errors import CompositionError, PreconditionError
from degcalc.flows import Flow
from degcalc.groupoid import (GPhiElement, HPsiElement, KernelFunction,
                              gphi_compose, hpsi_action, hpsi_chart,
                              kernel_conjugate, rho_infinity, rho_zero,
                              zeta_cocycle)
from degcalc.powerfun import RadialFunction
from degcalc.weights import Weight

F = Fraction


@pytest.fixture(scope="module")
def exp_flow():
    return Flow(Weight.from_term(1, 1))


@pytest.fixture(scope="module")
def numeric_flow():
    return Flow(Weight(RadialFunction.term(1, 2, -1)))


class TestGPhi:
    def test_compose_example(self, exp_flow):
        g = GPhiElement(4.0, math.log(3))
        h = GPhiElement(2.0, math.log(2))
        gh = gphi_compose(g, h, exp_flow)
        assert gh.x == 2.0
        assert abs(gh.t - math.log(6)) < 1e-14

    def test_unit_law(self, exp_flow):
        u = GPhiElement(3.0, 0.0)
        assert gphi_compose(u, u, exp_flow) == u

    def test_inverse_law(self, exp_flow):
        g = GPhiElement(2.0, 0.7)
        u = gphi_compose(g, g.inverse(exp_flow), exp_flow)
        assert u.t == 0.0
        assert abs(u.x - g.r(exp_flow)) < 1e-12

    def test_non_composable_reports_mismatch(self, exp_flow):
        g = GPhiElement(5.0, 0.1)
        h = GPhiElement(2.0, 0.0)
        with pytest.raises(CompositionError) as exc:
            gphi_compose(g, h, exp_flow)
        assert exc.value.mismatch == pytest.approx(3.0)

    def test_associativity_random(self, exp_flow):
        rng = random.Random(11)
        for _ in range(200):
            x = rng.uniform(0.1, 5.0)
            t1, t2, t3 = (rng.uniform(-1, 1) for _ in range(3))
            h = GPhiElement(x, t3)
            g = GPhiElement(h.r(exp_flow), t2)
            f = GPhiElement(g.r(exp_flow), t1)
            lhs = gphi_compose(gphi_compose(f, g, exp_flow), h, exp_flow)
            rhs = gphi_compose(f, gphi_compose(g, h, exp_flow), exp_flow)
            assert abs(lhs.t - rhs.t) < 1e-10 and lhs.x == rhs.x


class TestHPsiChart:
    def test_boundary_image(self):
        psi = Weight.from_term(1, F(1, 2))
        el = hpsi_chart(0.3, 0.0, psi)
        assert el.boundary and el.v == 0.3

    def test_interior_offset(self):
        psi = Weight.from_term(1, F(1, 2))
        el = hpsi_chart(1.0, 0.1, psi)
        assert not el.boundary
        assert abs(el.theta2 - 0.1 ** 0.5) < 1e-15
        assert el.x == 0.1

    def test_zero_section_is_unit(self):
        psi = Weight.from_term(1, 1)
        for s in (0.0, 0.2, 0.9):
            assert hpsi_chart(0.0, s, psi).is_unit()

    @pytest.mark.parametrize("theta1, theta2, unit", [
        (0.7, 0.7 + 2 * math.pi, True), (-math.pi, math.pi, True),
        (0.7, 0.7 - 4 * math.pi + 5e-11, True), (0.7, 0.7 + 1e-9, False),
        (0.0, math.pi, False)])
    def test_unit_across_the_wrap(self, theta1, theta2, unit):
        assert HPsiElement.interior(theta1, theta2, 1.0).is_unit() == unit

    @pytest.mark.parametrize("x", [0.0, -0.5])
    def test_interior_needs_positive_x(self, x):
        with pytest.raises(ValueError, match="x > 0"):
            HPsiElement.interior(0.1, 0.2, x)

    def test_negative_s_rejected(self):
        with pytest.raises(PreconditionError, match="s >= 0"):
            hpsi_chart(0.3, -0.1, Weight.from_term(1, 1))

    def test_window_enforced(self):
        psi = Weight.from_term(1, 0)  # constant weight, offset = w
        with pytest.raises(PreconditionError):
            hpsi_chart(4.0, 0.5, psi)

    def test_chart_continuity_rate(self):
        # angle separation / psi(s) -> w as s -> 0
        psi = Weight.from_term(1, F(1, 2))
        w = 0.7
        for s in (1e-4, 1e-6):
            el = hpsi_chart(w, s, psi)
            sep = el.theta2 - el.theta1
            assert abs(sep / psi.profile(s) - w) < 1e-6


class TestHPsiAction:
    def test_boundary_scaling(self, exp_flow):
        psi = Weight.from_term(1, F(1, 2))
        g = HPsiElement.tangent(0.0, 1.0)
        out = hpsi_action(1.0, g, exp_flow, psi)
        assert abs(out.v - math.exp(-0.5)) < 1e-14

    def test_boundary_fixed_for_higher_order(self, numeric_flow):
        psi = Weight.from_term(1, F(1, 2))
        g = HPsiElement.tangent(0.0, 1.0)
        assert hpsi_action(1.0, g, numeric_flow, psi).v == 1.0

    def test_divergent_rate_rejected(self):
        fl = Flow(Weight.from_term(1, F(1, 2)), require_complete=False)
        with pytest.raises(PreconditionError, match="diverges at zero"):
            hpsi_action(1.0, HPsiElement.tangent(0.0, 1.0), fl,
                        Weight.from_term(1, 1))

    def test_group_property(self, exp_flow):
        psi = Weight.from_term(1, 2)
        g = HPsiElement.interior(0.1, 0.2, 0.5)
        a = hpsi_action(0.3, hpsi_action(0.4, g, exp_flow, psi),
                        exp_flow, psi)
        b = hpsi_action(0.7, g, exp_flow, psi)
        assert abs(a.x - b.x) < 1e-8
        # boundary scaling multiplicative exactly
        t = HPsiElement.tangent(0.0, 2.0)
        u = hpsi_action(0.3, hpsi_action(0.4, t, exp_flow, psi),
                        exp_flow, psi)
        v = hpsi_action(0.7, t, exp_flow, psi)
        assert u.v == pytest.approx(v.v, rel=1e-14)


class TestZeta:
    def test_interior_quotient(self, exp_flow):
        el = GPhiElement(0.01, 0.5)
        assert abs(zeta_cocycle(el, "zero", exp_flow)
                   - math.exp(-0.5)) < 1e-12

    def test_boundary_extensions(self, exp_flow, numeric_flow):
        z = zeta_cocycle(GPhiElement(0.0, 0.5), "zero", exp_flow)
        assert abs(z - math.exp(-0.5)) < 1e-12
        z = zeta_cocycle(GPhiElement(math.inf, 0.5), "infinity", exp_flow)
        assert abs(z - math.exp(0.5)) < 1e-12
        # rho_infinity is 1 at 0
        assert zeta_cocycle(GPhiElement(0.0, 0.5), "infinity",
                            exp_flow) == 1.0
        # a > 1 freezes the 0 boundary
        assert zeta_cocycle(GPhiElement(0.0, 0.7), "zero", numeric_flow) == 1.0

    def test_unit_value_one(self, exp_flow):
        assert zeta_cocycle(GPhiElement(2.0, 0.0), "zero", exp_flow) == 1.0

    @pytest.mark.parametrize("a, x, which", [(F(1, 2), 0.0, "zero"),
                                             (2, math.inf, "infinity")])
    def test_divergent_rate_at_an_endpoint(self, a, x, which):
        # phi rho'/rho diverges at the face: t^{-1/2} at 0, -t at infinity
        fl = Flow(Weight.from_term(1, a), require_complete=False)
        assert zeta_cocycle(GPhiElement(x, 0.0), which, fl) == 1.0
        for t in (0.5, -0.5):
            with pytest.raises(PreconditionError, match="diverges"):
                zeta_cocycle(GPhiElement(x, t), which, fl)

    @pytest.mark.parametrize("t, which", [(800.0, "infinity"),
                                          (-800.0, "zero")])
    def test_target_at_the_endpoint_rejected(self, exp_flow, t, which):
        # sigma_{+-800}(1) = e^{+-800} rounds to the endpoint, where rho is
        # 0; the true quotient is finite, so it is no inf either
        with pytest.raises(PreconditionError, match=f"zeta_{which}"):
            zeta_cocycle(GPhiElement(1.0, t), which, exp_flow)

    def test_quotient_past_the_float_range_rejected(self, exp_flow):
        # sigma_t(1) = e^t: rho_0 of it is normal at t = -700, subnormal at
        # -713, where 1/rho_0 overflows, and rounds to 0 at -746
        z = zeta_cocycle(GPhiElement(1.0, -700.0), "zero", exp_flow)
        assert z == pytest.approx(math.exp(700.0), rel=1e-12)
        for t in (-713.0, -746.0):
            with pytest.raises(PreconditionError, match="not finite"):
                zeta_cocycle(GPhiElement(1.0, t), "zero", exp_flow)

    def test_numeric_target_at_the_endpoint_rejected(self):
        fl = Flow(Weight(RadialFunction.term(1, 2, -1)), mode="numeric")
        with pytest.raises(PreconditionError, match="endpoint"):
            zeta_cocycle(GPhiElement(1.0, 800.0), "infinity", fl)

    @pytest.mark.parametrize("which", ["zeros", "far", "", "Zero"])
    def test_unknown_endpoint_rejected(self, exp_flow, which):
        # "zeros" used to read as infinity and return its cocycle, 1.0
        for x in (0.0, 1.0):
            with pytest.raises(ValueError, match="unknown endpoint"):
                zeta_cocycle(GPhiElement(x, 0.5), which, exp_flow)

    def test_multiplicativity(self, numeric_flow):
        rng = random.Random(5)
        for _ in range(300):
            x = rng.uniform(0.05, 8.0)
            t1, t2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
            h = GPhiElement(x, t2)
            g = GPhiElement(h.r(numeric_flow), t1)
            gh = gphi_compose(g, h, numeric_flow)
            for which in ("zero", "infinity"):
                lhs = zeta_cocycle(gh, which, numeric_flow)
                rhs = (zeta_cocycle(g, which, numeric_flow)
                       * zeta_cocycle(h, which, numeric_flow))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_rho_functions(self):
        assert rho_zero(0.5) == 0.5 and rho_zero(3.0) == 1.0
        assert rho_infinity(0.5) == 1.0 and rho_infinity(4.0) == 0.25


class TestKernel:
    def test_identity_conjugation(self, exp_flow):
        k = KernelFunction.constant(1e-6, np.linspace(0, 2, 5), [0.0])
        kc = kernel_conjugate(k, 0, 0, exp_flow)
        assert np.array_equal(kc.values, k.values)

    def test_exponential_decay_factor(self, exp_flow):
        k = KernelFunction.constant(1e-6, np.linspace(0, 2, 5), [0.0])
        kc = kernel_conjugate(k, 2, 0, exp_flow)
        assert np.allclose(kc.values[:, 0], np.exp(-2 * k.s_values))

    def test_conjugation_additive(self, exp_flow):
        k = KernelFunction.constant(0.5, np.linspace(0, 1, 4), [0.0, 0.1])
        a = kernel_conjugate(kernel_conjugate(k, 1.0, 0.5, exp_flow),
                             0.5, 1.0, exp_flow)
        b = kernel_conjugate(k, 1.5, 1.5, exp_flow)
        assert np.allclose(a.values, b.values, rtol=1e-12)

    @pytest.mark.parametrize("values, message", [
        (np.ones((3, 1)), "shape"), ([[1.0], [np.nan]], "finite")])
    def test_values_checked(self, values, message):
        with pytest.raises(ValueError, match=message):
            KernelFunction(0.5, [0.0, 1.0], [0.0], values)

    def test_unbounded_factor_rejected(self, exp_flow):
        # zeta_0 = e > 1 at s = -1, raised to an infinite power
        k = KernelFunction.constant(0.5, [0.0, -1.0], [0.0])
        with pytest.raises(PreconditionError, match="unbounded"):
            kernel_conjugate(k, math.inf, 0, exp_flow)

    def test_overflowing_factor_rejected(self, exp_flow):
        # e^1000 is past the float range: unbounded, not an OverflowError
        k = KernelFunction.constant(0.5, [0.0, -1.0], [0.0])
        with pytest.raises(PreconditionError, match="unbounded"):
            kernel_conjugate(k, 1000.0, 0, exp_flow)
