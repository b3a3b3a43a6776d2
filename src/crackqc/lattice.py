"""Full-chain assembly, Newton solving, reconstruction, and the oracle.

The semi-infinite chain is truncated at j_max = n + 5 by default.  The
last two rows are closure rows enforcing the bonded-region recursion
u_j = (z1 + z2) u_{j-1} - z1 z2 u_{j-2}, for every kappa2.  Beyond the tip
the semi-infinite solution combines only the decaying modes z1^j and z2^j,
so it satisfies that recursion exactly at every j > n: cut off at any
j_max >= n + 5 it still solves every row, so the truncated chain's solution
is the semi-infinite one, and a longer tail adds rows but no accuracy.

Force residuals are assembled directly from the equilibrium equations
of each model; energies are assembled from independently derived pair-term
lists.  The two constructions are checked against each other by the
finite-difference gradient tests, which is why neither is generated from
the other here.

Every stencil, interface row and closure row stays within two sites of the
diagonal, so the chain matrix A is held in one format throughout: the
(2 KL + KU + 1, N) band array that LAPACK `dgbtrf` factors, with
A[i, j] at ab[KL + KU + i - j, j] and the top KL rows left free for the LU
fill.  `band_matvec` multiplies by it and `_factorize` factors it.

`oracle_coefficients` extracts (kappa, eta) by pure linear algebra on the
same factorization (a Schur complement onto the tip unknown).  Like the
chain and Newton, it takes everything from `material` and nothing from
`effective`, so it is an independent oracle for every closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .kernels import HyperbolicKernel
from .material import (EffectiveCoefficients, MaterialParams, ModelKind,
                       bonded_region_roots, characteristic_roots,
                       check_interface, force_law)

RESIDUAL_TOL = 1e-12
MAX_ITERATIONS = 50
MAX_HALVINGS = 20
KL = KU = 2
DIAG = KL + KU


class SingularJacobianError(RuntimeError):
    """Jacobian factorization hit a (near-)zero pivot; expected at folds."""

    def __init__(self, pivot_index: int, pivot_value: float):
        super().__init__(
            f"singular Jacobian: pivot {pivot_value:.3e} at row {pivot_index}")
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value


class ConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


def default_tail(params: MaterialParams) -> int:
    """Rows beyond the tip: five, the fewest `chain_config` accepts, which
    are exact for every parameter set (see the module docstring)."""
    return 5


@dataclass(frozen=True)
class ChainConfig:
    """Truncated-chain layout for one model; build with `chain_config`."""

    params: MaterialParams
    model: ModelKind
    n: int
    m: Optional[int]
    j_max: int


def chain_config(params: MaterialParams, model: ModelKind, n: int,
                 m: Optional[int] = None,
                 j_max: Optional[int] = None) -> ChainConfig:
    """Validate index ordering per model stencil and fill the default tail."""
    if model is ModelKind.EXACT:
        if n < 2:
            raise ValueError(f"exact assembly requires n >= 2, got n={n}")
        m = None
    else:
        check_interface(model, m, n)
    if j_max is None:
        j_max = n + default_tail(params)
    if j_max < n + default_tail(params):
        raise ValueError(f"j_max={j_max} leaves no bonded tail beyond n={n}")
    return ChainConfig(params, model, n, m, j_max)


@dataclass
class DisplacementField:
    """Vertical displacements u_0 .. u_{j_max} under tip-chain load P."""

    u: np.ndarray
    P: float


@dataclass(frozen=True)
class ReconstructionCoefficients:
    """Crack-region ansatz u_j = a + b j + c cosh[j delta] + d sinh[j delta]
    plus the seed pair that generates the bonded region recursively."""

    a: float
    b: float
    c: float
    d: float
    seed: Tuple[float, float]


def _closure_rows(config: ChainConfig, ab: np.ndarray):
    """Bonded-recursion closure in the last two rows."""
    z1, z2 = bonded_region_roots(config.params)
    for j in (config.j_max - 1, config.j_max):
        _add(ab, j, [(j, 1.0), (j - 1, -(z1 + z2)), (j - 2, z1 * z2)])


def _add(ab: np.ndarray, row: int, entries):
    for col, val in entries:
        ab[DIAG + row - col, col] += val


def _stencil(ab: np.ndarray, start: int, stop: int, stencil):
    """Add the constant stencil {column offset: value} to rows start..stop-1,
    one slice write per diagonal."""
    for off, val in stencil.items():
        ab[DIAG - off, start + off:stop + off] += val


def band_matvec(ab: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A u for the chain matrix A held in the band array `ab`."""
    size = len(u)
    out = ab[DIAG] * u
    for d in range(1, KL + 1):
        out[d:] += ab[DIAG + d, :size - d] * u[:size - d]
        out[:size - d] += ab[DIAG - d, d:] * u[d:]
    return out


def linear_system(config: ChainConfig):
    """(ab, p) with residual = A u + p P + F(u_n) e_n for the config's model.

    A is returned as its band array `ab` (see the module docstring).  Every
    row is the model's equilibrium equation at that site; the tip
    nonlinearity is excluded (callers add F(u_n) to row n themselves).
    """
    params = config.params
    k1, k2, kbar, k3 = (params.kappa1, params.kappa2,
                        params.kappa_bar, params.kappa3)
    n, m, jm = config.n, config.m, config.j_max
    size = jm + 1
    a_mat = np.zeros((2 * KL + KU + 1, size))
    p_vec = np.zeros(size)

    continuum = {-1: kbar, 0: -2 * kbar, 1: kbar}
    atomistic = {-2: k2, -1: k1, 0: -2 * k1 - 2 * k2, 1: k1, 2: k2}
    bonded = {**atomistic, 0: -2 * k1 - 2 * k2 - 2 * k3}

    if config.model is ModelKind.EXACT:
        _add(a_mat, 0, [(1, k1), (0, -k1), (2, k2), (0, -k2)])
        p_vec[0] = 1.0
        _add(a_mat, 1, [(2, k1), (1, -2 * k1), (0, k1), (3, k2), (1, -k2)])
        atom_start = 2
    else:
        _add(a_mat, 0, [(1, kbar), (0, -kbar)])
        p_vec[0] = 1.0
        if config.model is ModelKind.QC:
            _stencil(a_mat, 1, m - 1, continuum)
            _add(a_mat, m - 1, [(m - 2, kbar), (m - 1, -(2 * k1 + 17 * k2 / 2)),
                                (m, kbar), (m + 1, k2 / 2)])
            _add(a_mat, m, [(m - 1, kbar), (m, -(2 * k1 + 5 * k2)),
                            (m + 1, k1), (m + 2, k2)])
            _add(a_mat, m + 1, [(m - 1, k2 / 2), (m, k1),
                                (m + 1, -(2 * k1 + 3 * k2 / 2)),
                                (m + 2, k1), (m + 3, k2)])
            atom_start = m + 2
        elif config.model is ModelKind.QQC:
            _stencil(a_mat, 1, m - 1, continuum)
            _add(a_mat, m - 1, [(m - 2, kbar), (m - 1, -kbar),
                                (m, k1 + 2 * k2), (m - 1, -(k1 + 2 * k2)),
                                (m + 1, k2), (m - 1, -k2)])
            _add(a_mat, m, [(m - 1, k1 + 2 * k2), (m, -(k1 + 2 * k2)),
                            (m + 1, k1), (m, -k1), (m + 2, k2), (m, -k2)])
            atom_start = m + 1
        else:
            _stencil(a_mat, 1, m + 1, continuum)
            atom_start = m + 1

    _stencil(a_mat, atom_start, n + 1, atomistic)
    _stencil(a_mat, n + 1, jm - 1, bonded)
    _closure_rows(config, a_mat)
    return a_mat, p_vec


def assemble_residual(config: ChainConfig,
                      field: DisplacementField) -> np.ndarray:
    """Left-hand sides of every equilibrium row at the given field."""
    u = np.asarray(field.u, dtype=float)
    if u.shape != (config.j_max + 1,):
        raise ValueError(
            f"field length {u.shape[0]} does not match j_max={config.j_max}")
    a_mat, p_vec = linear_system(config)
    return _residual(a_mat, p_vec, force_law(config.params), config.n, u,
                     field.P)


def _residual(ab, p_vec, law, n, u, P) -> np.ndarray:
    """A u + p P + F(u_n) e_n, the residual of every equilibrium row."""
    residual = band_matvec(ab, u) + p_vec * P
    residual[n] += law.force(u[n])
    return residual


def _energy_pairs(config: ChainConfig):
    """(coefficient, i, j) list with energy Sum c (u_j - u_i)^2."""
    params = config.params
    k1, k2, kbar = params.kappa1, params.kappa2, params.kappa_bar
    m, jm = config.m, config.j_max
    pairs: List[Tuple[float, int, int]] = []
    if config.model is ModelKind.EXACT:
        pairs += [(k1 / 2, j, j + 1) for j in range(jm)]
        pairs += [(k2 / 2, j, j + 2) for j in range(jm - 1)]
        return pairs
    pairs += [(kbar / 2, j, j + 1) for j in range(m - 1)]
    if config.model is ModelKind.QC:
        pairs.append((k1 / 2 + 2 * k2, m - 1, m))
        pairs.append((k2 / 4, m - 1, m + 1))
    else:
        pairs.append((k1 / 2 + k2, m - 1, m))
        pairs.append((k2 / 2, m - 1, m + 1))
    pairs.append((k1 / 2, m, m + 1))
    pairs.append((k2 / 2, m, m + 2))
    pairs += [(k1 / 2, j, j + 1) for j in range(m + 1, jm)]
    pairs += [(k2 / 2, j, j + 2) for j in range(m + 1, jm - 1)]
    return pairs


def assemble_energy(config: ChainConfig, field: DisplacementField) -> float:
    """Total energy for Exact, QC, or QQC; FQC has no associated energy.

    Includes -P u_0, the pair terms, the broken-bond surface constant
    2 n gamma0 plus the tip bond's gamma(u_n), and the vertical quadratic
    terms kappa3 u_j^2 beyond the tip.  Its gradient in u_j reproduces
    minus the assembled residual for every row not touching the truncation
    closure.
    """
    if not config.model.has_energy:
        raise ValueError("FQC is force-based and has no associated energy")
    u = np.asarray(field.u, dtype=float)
    if u.shape != (config.j_max + 1,):
        raise ValueError(
            f"field length {u.shape[0]} does not match j_max={config.j_max}")
    law = force_law(config.params)
    n = config.n
    total = -field.P * u[0]
    for coef, i, j in _energy_pairs(config):
        diff = u[j] - u[i]
        total += coef * diff * diff
    total += config.params.kappa3 * float(np.sum(u[n + 1:] ** 2))
    total += 2 * n * law.gamma0 + law.surface_energy(u[n])
    return total


def _factorize(ab: np.ndarray):
    """Banded LU of A as a solve function; raises at a (near-)zero pivot."""
    # Imported here so that commands that never solve a chain skip scipy.
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    lu, piv, info = dgbtrf(ab, KL, KU)
    if info > 0:
        raise SingularJacobianError(info - 1, 0.0)
    diag = np.abs(lu[DIAG])
    scale = diag.max()
    worst = int(np.argmin(diag))
    if diag[worst] <= 1e-13 * scale:
        raise SingularJacobianError(worst, float(diag[worst]))
    return lambda rhs: dgbtrs(lu, KL, KU, rhs, piv)[0]


def _tip_columns(config: ChainConfig):
    """(ab, p, W) with W = A^-1 [e_n, p], from one factorization of A."""
    a_mat, p_vec = linear_system(config)
    rhs = np.zeros((config.j_max + 1, 2))
    rhs[config.n, 0] = 1.0
    rhs[:, 1] = p_vec
    return a_mat, p_vec, _factorize(a_mat)(rhs)


def newton_solve(config: ChainConfig, P: float,
                 u_init: Optional[DisplacementField] = None,
                 return_history: bool = False):
    """Newton iteration with residual-norm halving, on one factorization.

    The Jacobian is A + F'(t) e_n e_n^T with t = u_n, so the full step from
    any u lands on -(P w_p + f w_e), with the oracle's columns
    w_e = A^-1 e_n, w_p = A^-1 p, g = (w_e)_n, h = (w_p)_n and
    f = (F(t) - F'(t) (t + P h)) / (1 + g F'(t)).  Converges when the
    max-norm residual of the full chain drops below 1e-12 (1 + |P|).
    Raises SingularJacobianError where 1 + g F'(t) vanishes relative to
    its terms and ConvergenceError after 50 iterations.
    """
    size = config.j_max + 1
    if u_init is None:
        u = np.zeros(size)
    else:
        u = np.array(u_init.u, dtype=float)
        if u.shape != (size,):
            raise ValueError("u_init length does not match config")
    law = force_law(config.params)
    a_mat, p_vec, cols = _tip_columns(config)
    n = config.n
    (w_e, w_p), (g, h) = cols.T, cols[n]
    tol = RESIDUAL_TOL * (1 + abs(P))
    norm = float(np.max(np.abs(_residual(a_mat, p_vec, law, n, u, P))))
    history = [norm]
    while not norm <= tol:
        if len(history) > MAX_ITERATIONS:
            raise ConvergenceError(
                f"no convergence after {MAX_ITERATIONS} iterations; "
                f"residual norm {norm:.3e}")
        t = u[n]
        slope = law.force_derivative(t)
        pivot = 1 + g * slope
        if abs(pivot) <= 1e-13 * (1 + abs(g * slope)):
            raise SingularJacobianError(n, float(pivot))
        f = (law.force(t) - slope * (t + P * h)) / pivot
        step = -(P * w_p + f * w_e) - u
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = u + scale * step
            trial_norm = float(np.max(np.abs(
                _residual(a_mat, p_vec, law, n, trial, P))))
            if trial_norm < norm:
                break
            scale /= 2
        u, norm = trial, trial_norm
        history.append(norm)
    field = DisplacementField(u=u, P=P)
    return (field, history) if return_history else field


def oracle_coefficients(config: ChainConfig) -> EffectiveCoefficients:
    """(kappa, eta) extracted from the assembled chain by linear algebra.

    Equilibrium A u + p P + F(u_n) e_n = 0 gives u = -A^-1 (p P + F e_n),
    so u_n = -(g F + h P) with g = (A^-1 e_n)_n and h = (A^-1 p)_n: the tip
    equation reads F(u_n) + kappa u_n + eta P = 0 with kappa = 1/g and
    eta = h/g.  Both columns come from one solve on one factorization of A,
    which is singular only where kappa = 0.
    """
    g, h = _tip_columns(config)[2][config.n]
    return EffectiveCoefficients(config.model, float(1 / g), float(h / g),
                                 config.n, config.m)


def reconstruct_solution(params: MaterialParams, n: int, u_n: float, P: float,
                         j_max: Optional[int] = None):
    """Analytic exact-model field from the crack-region ansatz.

    Evaluates u_j = a + b j + e+ z0^-j + e- z0^j through the scaled
    amplitude e+ z0^-j = (e+ z0^-n) z0^(n-j), so no unscaled hyperbolic
    value appears; the bonded region follows the two-term recursion from
    the seed (u_{n-1}, u_n).
    """
    if n < 2:
        raise ValueError(f"reconstruction requires n >= 2, got n={n}")
    if j_max is None:
        j_max = n + default_tail(params)
    roots = characteristic_roots(params)
    ker = HyperbolicKernel(roots.z0)
    kbar = params.kappa_bar
    z0, s1 = roots.z0, ker.s1
    alpha, beta = roots.alpha, roots.beta
    abm1 = alpha + beta - 1

    b = -P / kbar
    d = P / (kbar * s1)
    fhat, _ = ker.fg_scaled(n, alpha)
    # (Ghat - Fhat)(n, alpha) = z0^(2n) [(1 - alpha) + alpha/z0 - z0]:
    # cancellation-free, so the growing-amplitude extraction stays stable.
    gmf_scaled = ker.pow(n) * ((1 - alpha) + alpha / z0 - z0)
    e_plus_hat = (abm1 * u_n + (P / kbar) * ((1 + alpha) - gmf_scaled / s1)) \
        / (2 * fhat)
    e_minus = e_plus_hat * ker.pow(n) - d
    c = 2 * e_plus_hat * ker.pow(n) - d
    a = u_n - b * n - e_plus_hat - e_minus * ker.pow(n)

    u = np.zeros(j_max + 1)
    j = np.arange(n + 1)
    u[:n + 1] = a + b * j + e_plus_hat * z0 ** (n - j) + e_minus * z0 ** j
    for j in range(n + 1, j_max + 1):
        u[j] = alpha * u[j - 2] + beta * u[j - 1]
    coeffs = ReconstructionCoefficients(a=a, b=b, c=c, d=d,
                                        seed=(u[n - 1], u_n))
    return coeffs, DisplacementField(u=u, P=P)
