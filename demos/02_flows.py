"""Flows of the vector field phi(t) d/dt and their boundary behavior.

For phi = t the flow is plain exponential scaling.  For phi = t^a with
a > 1 the flow freezes the origin to first order and can reach infinity in
finite time (incompleteness).  The closed form for phi = t is printed next to
its value 2e, and the numeric flow of t^2/(1+t) next to its group law.
"""

import math
from fractions import Fraction

from degcalc import (Flow, RadialFunction, Weight, completeness_check,
                     flow_scaling_limit, power_flow_exponents)

F = Fraction


def main():
    lin = Flow(Weight.from_term(1, 1))
    print("phi = t:       sigma_1(2) =", lin.apply(1.0, 2.0),
          " (= 2e =", 2 * math.e, ")")

    square = Flow(Weight.from_term(1, 2), require_complete=False)
    print("phi = t^2:     sigma_{1/2}(1/2) =", square.apply(0.5, 0.5))
    print("phi = t^2:     escape: sigma_2(1) =", square.apply(2.0, 1.0))
    print("completeness of t^2 on the half-line:",
          completeness_check(Weight.from_term(1, 2)))

    comp = Flow(Weight(RadialFunction.term(1, 2, -1)))
    print("phi = t^2/(1+t) is complete:", completeness_check(comp.weight))
    s, x = 0.7, 3.0
    print(f"  group law: sigma_{s}(sigma_{s}({x})) =",
          comp.apply(s, comp.apply(s, x)),
          " vs sigma_{2s} =", comp.apply(2 * s, x))

    # near the origin the flow scales tangent vectors by e^{-lambda s};
    # lambda is the structure constant of the probed weight
    val = flow_scaling_limit(lin, Weight.from_term(1, F(1, 2)), 1.0)
    print("boundary scaling for psi = t^{1/2} under phi = t:",
          val, " (= e^{-1/2})")

    # smoothness dichotomy at the origin
    print("series exponents, a = 2:  ", power_flow_exponents(2, 5))
    print("series exponents, a = 3/2:", power_flow_exponents(F(3, 2), 5))


if __name__ == "__main__":
    main()
