"""Schrodinger operators with power-law potentials, end to end.

The potential decides the weighted calculus: multiplying by the boundary
prefactor puts -Delta + V into the weighted operator algebra (verified
coefficient by coefficient), and a geometric grid produces eigenvalues that
are checked against the classical closed-form spectra.
"""

from degcalc import (SchrodingerProblem, assemble_and_solve,
                     membership_in_diff_s, parametrix_residual, rewrite)


def main():
    for name, prob, refs in (
            ("hydrogen", SchrodingerProblem.hydrogen(), (-0.25, -0.0625)),
            ("oscillator", SchrodingerProblem.oscillator(), (3.0, 7.0))):
        print(f"== {name} ==")
        rw = rewrite(prob)
        print("  near 0:       ", rw.branch_zero, rw.label_zero)
        print("  near infinity:", rw.branch_infinity, rw.label_infinity)

        rep = membership_in_diff_s(prob)
        print("  coefficients in the weighted algebra:",
              "PASS" if rep.passed else f"FAIL at {rep.offending}")

        res = assemble_and_solve(prob, k=2)
        for lam, ref in zip(res.eigenvalues, refs):
            print(f"  eigenvalue {lam:+.6f}   exact {ref:+.6f}   "
                  f"error {abs(lam - ref):.2e}")

    print()
    print("== far-field parametrix residuals (oscillator) ==")
    rows = parametrix_residual(SchrodingerProblem.oscillator(),
                               orders=(0, 1, 2), cutoffs=(4.0, 8.0))
    for N, K, ratio in rows:
        print(f"  order N={N}  frequency band [{K/2:g}, {K:g}]  "
              f"residual {ratio:.3e}")


if __name__ == "__main__":
    main()
