"""Exact symbolic and numeric calculus for differential operators with
power-law degeneracies at 0 and infinity."""

from .errors import (ChartDomainError, CompositionError, ConfigError,
                     ConvergenceError, DegcalcError, DomainMismatchError,
                     EndpointEvalError, ExponentError, InvalidWeightError,
                     InversionError, PreconditionError, PropertyViolationError)
from .powerfun import HALF_LINE, UNIT_INTERVAL, RadialFunction
from .weights import (MembershipResult, StructureFunction, Weight, apply_X,
                      membership_order, structure_function,
                      weights_equivalent)
from .flows import (Flow, completeness_check, flow_scaling_limit,
                    power_flow_exponents, write_flow_csv)
from .groupoid import (GPhiElement, HPsiElement, KernelFunction, SElement,
                       gphi_compose, hpsi_action, hpsi_chart, hpsi_compose,
                       kernel_conjugate, rho_infinity, rho_zero, s_compose,
                       write_kernel_csv, zeta_cocycle)
from .diffop import (CylinderFunction, DiffOp, ParametrixExpansion,
                     PoweredSymbol, VectorField, expand_X_power, is_elliptic,
                     lie_rinehart_check, op_commutator, op_compose,
                     parametrix_1d, principal_symbol, radial_symbol,
                     random_lie_rinehart_samples)
from .schrodinger import (GeometricGrid, MembershipReport,
                          ParametrixResidualReport, ResolventProbeReport,
                          RewriteResult, SchrodingerProblem, SpectralResult,
                          assemble_and_solve, membership_in_diff_s,
                          membership_weights, parametrix_residual,
                          reduced_potential, resolvent_probe, rewrite,
                          verify_identity_r_power, write_parametrix_csv,
                          write_spectrum_csv)

__version__ = "0.1.0"
