"""Schrodinger problems: rewrites, membership, spectra, residual decay."""

import math
from fractions import Fraction

import numpy as np
import pytest

from degcalc.diffop import CylinderFunction, DiffOp
from degcalc.errors import PreconditionError
from degcalc.powerfun import UNIT_INTERVAL, RadialFunction
from degcalc.schrodinger import (GeometricGrid, SchrodingerProblem,
                                 assemble_and_solve, membership_in_diff_s,
                                 membership_weights, parametrix_residual,
                                 reduced_potential, resolvent_probe, rewrite,
                                 verify_identity_r_power, write_parametrix_csv,
                                 write_spectrum_csv)
from degcalc.weights import Weight

F = Fraction


class TestProblemValidation:
    def test_exponent_mismatch_at_zero(self):
        with pytest.raises(PreconditionError):
            SchrodingerProblem(3, 1, F(-1, 2), RadialFunction.term(-1, -1))

    def test_exponent_mismatch_at_infinity(self):
        with pytest.raises(PreconditionError):
            SchrodingerProblem(3, F(1, 2), 2, RadialFunction.term(-1, -1))

    def test_dimension_and_sector_checks(self):
        with pytest.raises(PreconditionError):
            SchrodingerProblem(1, F(1, 2), F(-1, 2),
                               RadialFunction.term(-1, -1))
        with pytest.raises(PreconditionError):
            SchrodingerProblem.hydrogen(l=-1)

    def test_prefactored_constructor(self):
        prob = SchrodingerProblem.from_prefactored(
            3, F(1, 2), F(-1, 2), RadialFunction.const(-1))
        assert prob.V.min_p() == -1
        assert prob.V.far_exponent() == 1

    def test_tilde_exponents(self):
        h = SchrodingerProblem.hydrogen()
        assert h.gamma_tilde == 1 and h.gamma_prime_tilde == 0
        o = SchrodingerProblem.oscillator()
        assert o.gamma_tilde == 1 and o.gamma_prime_tilde == 1


class TestRewrite:
    def test_hydrogen_branches_and_labels(self):
        rw = rewrite(SchrodingerProblem.hydrogen())
        assert rw.branch_zero == "schr3" and rw.branch_infinity == "schr5"
        assert rw.label_zero == "c_{1,0}" and rw.label_infinity == "c_{2,1}"

    def test_oscillator_branches_and_labels(self):
        rw = rewrite(SchrodingerProblem.oscillator())
        assert rw.branch_zero == "schr3" and rw.branch_infinity == "schr6"
        assert rw.label_infinity == "c_{3,2}"

    def test_hydrogen_zero_face_operator(self):
        # rho^2(-Delta - 1/rho) with X = rho d_rho in dimension 3:
        # -X^2 - (n-2)X + (Lam - rho)
        rw = rewrite(SchrodingerProblem.hydrogen(l=1))
        expected = DiffOp("lie", {
            (2, 0): -1,
            (1, 0): RadialFunction.const(-1),
            (0, 0): RadialFunction.const(2) + RadialFunction.term(-1, 1),
        }, Weight.from_term(1, 1))
        assert rw.op_zero == expected

    def test_oscillator_infinity_face_operator(self):
        # r = 1/rho, X = r^3 d_r: -X^2 + 3 r^2 X + r^2 * r^{-2} on l = 0
        rw = rewrite(SchrodingerProblem.oscillator())
        expected = DiffOp("lie", {
            (2, 0): -1,
            (1, 0): RadialFunction.term(3, 2, 0, domain=UNIT_INTERVAL),
            (0, 0): RadialFunction.const(1, domain=UNIT_INTERVAL),
        }, Weight.from_term(1, 3, 0, domain=UNIT_INTERVAL))
        assert rw.op_infinity == expected

    def test_gamma_one_branch_coincidence(self):
        # gamma = 1 sits on the boundary between the two zero-face formulas:
        # the strong-singularity formula with gamma~ = gamma reproduces the
        # b-field formula exactly.
        n, Lam = 3, 0
        V = RadialFunction.term(-1, -2)
        prob = SchrodingerProblem(n, 1, F(-1), V)
        rw = rewrite(prob)
        g = F(1)
        phi = Weight.from_term(1, g)
        strong = DiffOp("lie", {
            (2, 0): -1,
            (1, 0): RadialFunction.term(-(n - 1 - g), g - 1),
            (0, 0): RadialFunction.term(Lam, 2 * g - 2)
            + RadialFunction.term(1, 2 * g) * V,
        }, phi)
        assert rw.op_zero == strong

    def test_gamma_prime_zero_branch_coincidence(self):
        prob = SchrodingerProblem.hydrogen()
        rw = rewrite(prob)
        # gamma'~ = 0: the far formula degenerates to X = r^2 d_r = -rho d_rho
        gp = F(0)
        n = 3
        phi = Weight.from_term(1, 2 + gp, 0, domain=UNIT_INTERVAL)
        Vr = RadialFunction.term(-1, 1, 0, domain=UNIT_INTERVAL)
        degen = DiffOp("lie", {
            (2, 0): -1,
            (1, 0): RadialFunction.term(n - 1 + gp, 1 + gp, 0,
                                        domain=UNIT_INTERVAL),
            (0, 0): RadialFunction.term(1, 2 * gp, 0,
                                        domain=UNIT_INTERVAL) * Vr,
        }, phi)
        assert rw.op_infinity == degen

    def test_r_power_identity(self):
        assert verify_identity_r_power()

    def test_mixed_tail_rejected(self):
        # tail involves (1+t) factors, so the far-field face has no
        # pure-power expansion
        V = RadialFunction.term(1, -2, -1)
        prob = SchrodingerProblem(3, 1, F(-3, 2), V)
        with pytest.raises(PreconditionError):
            rewrite(prob)

    def test_rewrite_matches_direct_application(self):
        # numeric invariant: the zero-face rewrite applied to a test function
        # equals rho^{2 gamma~} (-Delta_radial + V) applied directly
        prob = SchrodingerProblem.hydrogen(l=1)
        rw = rewrite(prob)
        f = RadialFunction.term(1, 2, -3)
        out = rw.op_zero.apply(CylinderFunction.radial(f)).modes[0]
        n, Lam = 3, prob.angular_eigenvalue
        for t in (0.3, 1.1, 4.0):
            fpp = f.derivative().derivative()(t)
            fp = f.derivative()(t)
            direct = t ** 2 * (-fpp - (n - 1) / t * fp
                               + (Lam / t ** 2 - 1.0 / t) * f(t))
            assert abs(complex(out(t)) - direct) < 1e-10 * (1 + abs(direct))


class TestMembership:
    def test_weights_single_term(self):
        phi, psi = membership_weights(SchrodingerProblem.oscillator())
        assert phi.profile == RadialFunction.term(1, 1, -2)
        assert psi.profile == RadialFunction.term(1, 0, -2)

    @pytest.mark.parametrize("prob", [SchrodingerProblem.hydrogen(),
                                      SchrodingerProblem.oscillator()])
    def test_coefficients_pass(self, prob):
        report = membership_in_diff_s(prob)
        assert report.passed
        assert all(v.is_member for v in report.verdicts)

    def test_negative_control_located(self):
        report = membership_in_diff_s(SchrodingerProblem.hydrogen(),
                                      corrupt=(1, 0))
        assert not report.passed
        assert (1, 0) in report.offending


class TestGrid:
    def test_nodes(self):
        g = GeometricGrid(-1.0, 1.0, 11)
        assert g.rho_nodes()[5] == pytest.approx(1.0)
        assert g.refined().n_points == 22

    def test_invalid_grid(self):
        with pytest.raises(PreconditionError):
            GeometricGrid(1.0, -1.0, 100)


class TestSpectra:
    def test_hydrogen_oracle(self):
        res = assemble_and_solve(SchrodingerProblem.hydrogen(),
                                 GeometricGrid(-10.0, 8.0, 2000), k=2)
        assert abs(res.eigenvalues[0] + 0.25) < 1e-3
        assert abs(res.eigenvalues[1] + 0.0625) < 1e-3

    def test_oscillator_oracle(self):
        res = assemble_and_solve(SchrodingerProblem.oscillator(),
                                 GeometricGrid(), k=2)
        assert abs(res.eigenvalues[0] - 3.0) < 1e-3
        assert abs(res.eigenvalues[1] - 7.0) < 1e-3

    def test_oscillator_l1_oracle(self):
        res = assemble_and_solve(SchrodingerProblem.oscillator(l=1),
                                 GeometricGrid(-8.0, 4.0, 2000), k=1)
        assert abs(res.eigenvalues[0] - 5.0) < 1e-3

    def test_sparse_matches_dense_oracle(self):
        grid = GeometricGrid(-4.0, 4.0, 400)
        prob = SchrodingerProblem.oscillator()
        sp = assemble_and_solve(prob, grid, k=2)
        de = assemble_and_solve(prob, grid, k=2, method="dense")
        for a, b in zip(sp.eigenvalues, de.eigenvalues):
            assert abs(a - b) < 1e-8

    @pytest.mark.parametrize("prob", [
        SchrodingerProblem.hydrogen(), SchrodingerProblem.oscillator(),
        SchrodingerProblem.hydrogen(l=1)],
        ids=["hydrogen", "oscillator", "hydrogen_l1"])
    def test_dense_matches_sparse_on_default_grid(self, prob):
        sp = assemble_and_solve(prob, k=3)
        de = assemble_and_solve(prob, k=3, method="dense")
        for a, b in zip(sp.eigenvalues, de.eigenvalues):
            assert abs(a - b) <= 1e-10 * abs(a)

    def test_residuals_small(self):
        res = assemble_and_solve(SchrodingerProblem.oscillator(),
                                 GeometricGrid(-6.0, 4.0, 1000), k=2)
        assert all(r < 1e-8 for r in res.residuals)

    def test_reduced_potential_centrifugal(self):
        prob = SchrodingerProblem.hydrogen(l=1)
        # n=3: centrifugal term is l(l+1)/rho^2, half-density term vanishes
        W = reduced_potential(prob, np.array([2.0]))
        assert W[0] == pytest.approx(-0.5 + 2 / 4.0)

    def test_k_too_large(self):
        with pytest.raises(PreconditionError):
            assemble_and_solve(SchrodingerProblem.oscillator(),
                               GeometricGrid(-2, 2, 12), k=50)


class TestParametrixResidual:
    def test_decay_and_cutoff_gain(self):
        rep = parametrix_residual(SchrodingerProblem.oscillator(),
                                  orders=(0, 1, 2), cutoffs=(4.0, 8.0))
        byNK = {(N, K): r for N, K, r in rep.rows}
        assert byNK[(1, 4.0)] < byNK[(0, 4.0)]
        assert byNK[(2, 4.0)] < byNK[(1, 4.0)]
        assert byNK[(2, 4.0)] / byNK[(2, 8.0)] >= 2.0


class TestResolventProbe:
    def test_plain_bound(self):
        rep = resolvent_probe(SchrodingerProblem.oscillator(), -1.0,
                              base_points=120)
        c, f, ratio = rep.norms[(0, 0)]
        assert f <= 1.0 / rep.spectrum_distance + 1e-9
        assert abs(ratio - 1.0) < 0.05

    def test_z_near_spectrum_rejected(self):
        with pytest.raises(PreconditionError):
            resolvent_probe(SchrodingerProblem.oscillator(), 3.0,
                            base_points=120)

    def test_unknown_mode(self):
        with pytest.raises(PreconditionError):
            resolvent_probe(SchrodingerProblem.oscillator(), -1.0,
                            mode="bogus")


class TestCsv:
    def test_spectrum_csv_deterministic(self, tmp_path):
        prob = SchrodingerProblem.oscillator()
        grid = GeometricGrid(-4.0, 4.0, 300)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_spectrum_csv(p1, prob, assemble_and_solve(prob, grid, k=2))
        write_spectrum_csv(p2, prob, assemble_and_solve(prob, grid, k=2))
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "l,index,eigenvalue,residual,grid_points,s_min,s_max"

    def test_parametrix_csv(self, tmp_path):
        rep = parametrix_residual(SchrodingerProblem.oscillator(),
                                  orders=(0, 1), cutoffs=(4.0,))
        path = tmp_path / "px.csv"
        write_parametrix_csv(path, rep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "N,K,residual_ratio"
        assert len(lines) == 3
