"""1-D lattice fracture model with quasicontinuum approximations.

Closed-form effective crack-tip coefficients for the exact chain and the
QC, QQC, and FQC coarse-grained variants, an assembled-chain linear-solve
oracle, a nonlinear Newton solver, and arc-length continuation of the
resulting bifurcation curves.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562), so a caller that
needs only the closed forms never loads numpy or scipy.
"""

import importlib

__version__ = "1.0.0"

_HOMES = {
    "material": (
        "CharacteristicRoots", "ConvergenceError", "EffectiveCoefficients",
        "ForceLaw", "MaterialParams", "ModelKind", "ParameterError",
        "SingularJacobianError", "alpha_beta_residuals",
        "bonded_region_roots", "characteristic_roots", "crack_region_root",
        "force_law", "validate"),
    "kernels": ("HyperbolicKernel", "KernelRangeError", "kernel_for"),
    "effective": (
        "CoefficientLimits", "ExpansionRecord", "coefficients",
        "exact_coefficients", "exact_limits", "expansions",
        "fqc_coefficients", "limits", "qc_coefficients",
        "qc_coefficients_qmatrix", "qc_limit", "qqc_coefficients"),
    "lattice": (
        "ChainConfig", "DisplacementField", "assemble_energy",
        "assemble_residual", "chain_config", "linear_system", "newton_solve",
        "oracle_coefficients", "reconstruct_solution"),
    "bifurcation": (
        "BifurcationCurve", "EffectiveEquation", "FoldPoint",
        "compare_curves", "fold_points", "lipschitz_bound", "solve_branches",
        "trace_curve"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
