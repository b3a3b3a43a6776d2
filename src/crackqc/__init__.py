"""1-D lattice fracture model with quasicontinuum approximations.

Closed-form effective crack-tip coefficients for the exact chain and the
QC, QQC, and FQC coarse-grained variants, an assembled-chain linear-solve
oracle, a nonlinear Newton solver, and arc-length continuation of the
resulting bifurcation curves.
"""

from .material import (CharacteristicRoots, EffectiveCoefficients, ForceLaw,
                       MaterialParams, ModelKind, ParameterError,
                       alpha_beta_residuals, bonded_region_roots,
                       characteristic_roots, crack_region_root, force_law,
                       validate)
from .kernels import HyperbolicKernel, KernelRangeError, kernel_for
from .effective import (CoefficientLimits, ExpansionRecord, coefficients,
                        exact_coefficients, exact_expansions, exact_limits,
                        expansions, fqc_coefficients, fqc_expansions, limits,
                        qc_coefficients, qc_coefficients_qmatrix, qc_limit,
                        qqc_coefficients, qqc_expansions)
from .lattice import (ChainConfig, ConvergenceError, DisplacementField,
                      SingularJacobianError, assemble_energy,
                      assemble_residual, chain_config, linear_system,
                      newton_solve, oracle_coefficients,
                      reconstruct_solution)
from .bifurcation import (BifurcationCurve, EffectiveEquation, FoldPoint,
                          compare_curves, fold_points, lipschitz_bound,
                          solve_branches, trace_curve)

__version__ = "1.0.0"

__all__ = [
    "BifurcationCurve", "ChainConfig", "CharacteristicRoots",
    "CoefficientLimits", "ConvergenceError", "DisplacementField",
    "EffectiveCoefficients", "EffectiveEquation", "ExpansionRecord",
    "FoldPoint", "ForceLaw", "HyperbolicKernel", "KernelRangeError",
    "MaterialParams", "ModelKind", "ParameterError",
    "SingularJacobianError", "alpha_beta_residuals", "assemble_energy",
    "assemble_residual", "bonded_region_roots", "chain_config",
    "characteristic_roots", "coefficients", "compare_curves",
    "crack_region_root", "exact_coefficients", "exact_expansions",
    "exact_limits", "expansions", "fold_points", "force_law",
    "fqc_coefficients", "fqc_expansions", "kernel_for", "limits",
    "linear_system", "lipschitz_bound", "newton_solve",
    "oracle_coefficients", "qc_coefficients", "qc_coefficients_qmatrix",
    "qc_limit", "qqc_coefficients", "qqc_expansions",
    "reconstruct_solution", "solve_branches", "trace_curve", "validate",
]
