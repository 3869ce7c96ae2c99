"""Exact symbolic and numeric calculus for differential operators with
power-law degeneracies at 0 and infinity."""

from .errors import (CompositionError, ConfigError, ConvergenceError,
                     DegcalcError, DomainMismatchError, EndpointEvalError,
                     ExponentError, PreconditionError, PropertyViolationError)
from .powerfun import HALF_LINE, UNIT_INTERVAL, RadialFunction
from .weights import (MembershipResult, StructureFunction, Weight, apply_X,
                      membership_order, structure_function)
from .flows import (Flow, completeness_check, flow_scaling_limit,
                    power_flow_exponents)
from .groupoid import (GPhiElement, HPsiElement, KernelFunction, gphi_compose,
                       hpsi_action, hpsi_chart, kernel_conjugate,
                       rho_infinity, rho_zero, zeta_cocycle)
from .diffop import (CylinderFunction, DiffOp, ParametrixExpansion,
                     PoweredSymbol, VectorField, lie_rinehart_check,
                     op_commutator, op_compose, parametrix_1d, radial_symbol,
                     random_lie_rinehart_samples)
from .schrodinger import (GeometricGrid, MembershipReport,
                          ResolventProbeReport, RewriteResult,
                          SchrodingerProblem, SpectralResult,
                          assemble_and_solve, membership_in_diff_s,
                          membership_weights, parametrix_residual,
                          resolvent_probe, rewrite)

__version__ = "0.1.0"
