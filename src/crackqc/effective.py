"""Closed-form effective crack-tip equation coefficients.

Eliminating every degree of freedom except the tip displacement u_n turns the
chain equilibrium problem into the scalar effective equation

    F(u_n) + kappa u_n + eta P = 0,

where kappa is the effective stiffness felt by the tip bond and eta the load
transmission factor.  This module evaluates (kappa, eta) in closed form for
the exact chain and for the three coupled approximations (QC, QQC, FQC),
together with the n -> infinity limits and the leading asymptotic expansion
terms.  Every formula is expressed through the scaled kernels of `kernels`,
so no unscaled hyperbolic value is ever formed.

The energy-based QC coefficients deserve a note.  The interface elimination
proceeds from the two reduced interface equations

    (kappa1 + gamma kappa2 / 2)(u_{m+1} - u_m) + kappa2 (u_{m+2} - u_m)
        = -gamma P,
    (kappa1 + kappa2)(u_{m+2} - u_{m+1}) + kappa2 (u_{m+3} - u_m) = -P,

with gamma = kappa_bar / (kappa_bar + kappa2 / 2).  Substituting the ansatz
u_j = a + b j + c cosh[j delta] + d sinh[j delta] into the second equation
annihilates the (c, d) content identically, forcing b = -P / kappa_bar; the
first equation and the tip matching condition then determine (c, d) from a
2x2 system.  `qc_coefficients` implements this elimination, and it agrees
with the assembled-chain oracle to machine precision.  An alternative
closed form routed through a precomputed 2x2 interface matrix Q is kept in
`qc_coefficients_qmatrix` for diagnostics; it does not agree with the
oracle (see the package notes), so it is never the primary path.

For FQC the load coefficient has two compact forms; the primary one is

    eta_fqc = 1 - (alpha + beta - 1) sinh[(n-m) delta] / D
                + (1 + alpha) sinh delta / D,
    D = G_{n-m,alpha} - (1 + alpha) sinh delta,

which agrees with the long product form and the oracle.  Variant readings
(a product in the denominator, an extra sinh delta factor) disagree with
both and are not implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kernels import HyperbolicKernel
from .material import (EffectiveCoefficients, MaterialParams, ModelKind,
                       characteristic_roots, check_interface)

CROSS_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class CoefficientLimits:
    """n -> infinity limits; Exact, QQC and FQC share (kappa0, eta0).

    `eta0_qc` is the limit of the interface-matrix QC closed form, which
    stays a finite distance `gap` away from eta0.
    """

    kappa0: float
    eta0: float
    eta0_qc: float
    gap: float


@dataclass(frozen=True)
class ExpansionRecord:
    """Leading asymptotic error term: coefficient * z0^e with the exponent
    stored as the linear form e = exponent[0]*n + exponent[1]*m + exponent[2],
    so order sweeps can verify decay rates without re-deriving them."""

    model: ModelKind
    quantity: str
    leading_coefficient: float
    exponent: tuple


class _Context:
    """Shared per-parameter quantities, computed once."""

    def __init__(self, params: MaterialParams):
        self.params = params
        self.roots = characteristic_roots(params)
        self.kernel = HyperbolicKernel(self.roots.z0)
        self.alpha = self.roots.alpha
        self.beta = self.roots.beta
        self.abm1 = self.alpha + self.beta - 1
        self.a_alpha, self.b_alpha = self.kernel.ab(self.alpha)
        self.a_1mb, self.b_1mb = self.kernel.ab(1 - self.beta)


def _solve2(m11, m12, m21, m22, r1, r2):
    det = m11 * m22 - m12 * m21
    return (r1 * m22 - r2 * m12) / det, (m11 * r2 - m21 * r1) / det


def _rel_diff(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


# Exact model.

def exact_coefficients(params: MaterialParams, n: int) -> EffectiveCoefficients:
    """(kappa, eta) of the exact chain at crack-tip index n >= 1.

    eta is evaluated from its simplified form and cross-checked against
    the three-term long form (with the criss-cross determinant replaced by
    its n-independent value, which is what makes the long form evaluable at
    large n at all).
    """
    if n < 1:
        raise ValueError(f"exact model requires n >= 1, got n={n}")
    ctx = _Context(params)
    k1, k2, kbar = params.kappa1, params.kappa2, params.kappa_bar
    ker = ctx.kernel
    fa, _ = ker.fg_scaled(n, ctx.alpha)
    fb, _ = ker.fg_scaled(n, 1 - ctx.beta)
    kappa = ctx.abm1 * (k1 + k2 * (ctx.beta + 1) + k2 * fb / fa)
    eta = 1 - ctx.abm1 * (ker.chat(n) - ker.pow(n)) / fa

    # Long form: the collapse combination plus the criss-cross determinant
    # term, which is n-independent up to the z0^n factor.  (A fully expanded
    # variant of this route in circulation carries a constant-term error of
    # exactly kappa2 / kappa_bar; this assembled form is the consistent
    # one.)
    eta_long = (1 + (k2 / kbar) * ((ctx.beta - 2) * fa
                                   + (1 + ctx.alpha) * fb) / fa
                - (2 * k2 / kbar) * ctx.abm1 * (ker.c1 - 1) * ker.pow(n) / fa)
    if _rel_diff(eta, eta_long) > CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"eta evaluations disagree: {eta} vs {eta_long}")
    return EffectiveCoefficients(ModelKind.EXACT, kappa, eta, n)


def exact_limits(params: MaterialParams):
    """(kappa0, eta0): the macroscopic-crack limits of the exact model."""
    ctx = _Context(params)
    k1, k2 = params.kappa1, params.kappa2
    denom = ctx.a_alpha + ctx.b_alpha
    kappa0 = ctx.abm1 * (k1 + k2 * (1 + ctx.beta)
                         + k2 * (ctx.a_1mb + ctx.b_1mb) / denom)
    eta0 = 1 - ctx.abm1 / denom
    return kappa0, eta0


def exact_expansions(params: MaterialParams, n: int):
    """Leading error terms of (kappa, eta) against (kappa0, eta0).

    kappa - kappa0 = -2 (a+b-1)^2 kappa_bar sinh d / (A+B)^2 z0^(2n) + ...,
    eta - eta0 = 2 (a+b-1) / (A+B) z0^n + ...; both follow from expanding
    Fhat(n, .) = (A+B)/2 + (A-B)/2 z0^(2n) in the coefficient formulas and
    are confirmed by high-precision sweeps.
    """
    ctx = _Context(params)
    denom = ctx.a_alpha + ctx.b_alpha
    kappa_rec = ExpansionRecord(
        ModelKind.EXACT, "kappa",
        -2 * ctx.abm1 ** 2 * params.kappa_bar * ctx.kernel.s1 / denom ** 2,
        (2, 0, 0))
    eta_rec = ExpansionRecord(
        ModelKind.EXACT, "eta", 2 * ctx.abm1 / denom, (1, 0, 0))
    return kappa_rec, eta_rec


# Energy-based QC.

def qc_gamma(params: MaterialParams):
    return params.kappa_bar / (params.kappa_bar + params.kappa2 / 2)


def qc_coefficients(params: MaterialParams, m: int, n: int) -> EffectiveCoefficients:
    """(kappa, eta) of the energy-based QC model by interface elimination.

    Solves the scaled 2x2 system coupling the growing/decaying ansatz parts
    (x, y) = (e+ z0^{-n}, e- z0^m) to the tip matching condition and the
    first interface equation; the second interface equation is exhausted by
    b = -P / kappa_bar.  Matches the lattice oracle to machine precision.
    """
    check_interface(ModelKind.QC, m, n)
    ctx = _Context(params)
    k1, k2, kbar = params.kappa1, params.kappa2, params.kappa_bar
    ker = ctx.kernel
    k = n - m
    zk = ker.pow(k)
    gamma = qc_gamma(params)
    c1, s1 = ker.c1, ker.s1
    c2, s2 = 2 * c1 * c1 - 1, 2 * s1 * c1
    ke = k1 + gamma * k2 / 2
    x1 = ke * (c1 - 1) + k2 * (c2 - 1)
    y1 = ke * s1 + k2 * s2
    b1 = ke + 2 * k2

    m11 = ctx.a_alpha + ctx.b_alpha
    m12 = (ctx.a_alpha - ctx.b_alpha) * zk
    m21 = (x1 + y1) * zk
    m22 = x1 - y1
    xu, yu = _solve2(m11, m12, m21, m22, ctx.abm1, 0.0)
    xp, yp = _solve2(m11, m12, m21, m22,
                     (1 + ctx.alpha) / kbar, b1 / kbar - gamma)

    fb_plus = ctx.a_1mb + ctx.b_1mb
    fb_minus = (ctx.a_1mb - ctx.b_1mb) * zk
    kappa = (ctx.abm1 * (k1 + k2 * (1 + ctx.beta))
             + k2 * (fb_plus * xu + fb_minus * yu))
    eta = ((kbar + (ctx.beta - 2) * k2) / kbar
           + k2 * (fb_plus * xp + fb_minus * yp))
    return EffectiveCoefficients(ModelKind.QC, kappa, eta, n, m)


def qc_matrix(params: MaterialParams):
    """The 2x2 interface matrix Q of the alternative QC closed form, and
    gamma.  Entries are finite because cosh delta = -1 - kappa1/(2 kappa2)
    never equals 1 under the validity conditions."""
    k2, kbar = params.kappa2, params.kappa_bar
    if k2 == 0:
        raise ValueError("qc_matrix requires kappa2 != 0")
    ker = HyperbolicKernel(characteristic_roots(params).z0)
    gamma = qc_gamma(params)
    cm1 = ker.c1 - 1
    s1 = ker.s1
    q11 = (4 - 3 * gamma) / (4 * k2 * cm1)
    q12 = 3 * gamma / (4 * k2 * s1)
    q21 = (2 - gamma) * kbar / (4 * k2 * cm1)
    q22 = ((gamma + 2) * kbar - 4 * k2) / (4 * k2 * s1)
    return ((q11, q12), (q21, q22)), gamma


def qc_coefficients_qmatrix(params: MaterialParams, m: int, n: int):
    """Alternative QC closed form routed through the interface matrix Q.

    Returns (coefficients, eta_alt): eta from the fully reduced form and
    `eta_alt` from the intermediate reshaped form; the two agree with
    each other.  Retained for diagnostics only: this evaluation disagrees
    with the assembled-chain oracle (the interface reduction it encodes
    drops a next-nearest interface term), so `qc_coefficients` is the
    primary path.
    """
    check_interface(ModelKind.QC, m, n)
    ctx = _Context(params)
    k1, k2, kbar = params.kappa1, params.kappa2, params.kappa_bar
    ker = ctx.kernel
    (q11_, q12_), (q21_, q22_) = qc_matrix(params)[0]
    gamma = qc_gamma(params)
    k = n - m
    zk = ker.pow(k)
    fa, ga = ker.fg_scaled(k, ctx.alpha)
    fb, gb = ker.fg_scaled(k, 1 - ctx.beta)
    denom = q12_ * fa + q22_ * ga + (1 + ctx.alpha) * zk
    kappa = (ctx.abm1 * (k1 + k2 * (1 + ctx.beta)
                         + k2 * (q12_ * fb + q22_ * gb) / denom)
             - ctx.abm1 * (kbar + (ctx.beta - 2) * k2) * zk / denom)
    ra = q11_ * fa + q21_ * ga
    eta = (ra * kbar / denom
           - ctx.abm1 * kbar * (q11_ * ker.chat(k) + q21_ * ker.shat(k)) / denom
           - ctx.abm1 * ((1 - gamma) * kbar / k2 - (2 - 3 * gamma / 2))
           * zk / denom)
    eta_alt = (ra * (kbar + (ctx.beta - 2) * k2) / denom
               + (q11_ * fb + q21_ * gb) * (1 + ctx.alpha) * k2 / denom
               - ctx.abm1 * (2 * (1 - gamma) * kbar - (4 - 3 * gamma) * k2)
               * zk / (2 * k2 * denom))
    return EffectiveCoefficients(ModelKind.QC, kappa, eta, n, m), eta_alt


def qc_limit(params: MaterialParams):
    """(eta0_qc, gap) for the interface-matrix QC closed form.

    eta0_qc = eta0 (q11 + q21) kappa_bar / (q12 + q22) is the n - m ->
    infinity limit of `qc_coefficients_qmatrix`, and gap = eta0 - eta0_qc
    stays finite, so that closed form never recovers the exact load factor.
    A further simplification of the ratio through tanh[delta/2] circulates
    in a form inconsistent with it.
    """
    kbar = params.kappa_bar
    _, eta0 = exact_limits(params)
    (q11_, q12_), (q21_, q22_) = qc_matrix(params)[0]
    ratio = (q11_ + q21_) * kbar / (q12_ + q22_)
    return eta0 * ratio, eta0 * (1 - ratio)


# Quasi-nonlocal QC.

def qqc_coefficients(params: MaterialParams, m: int, n: int) -> EffectiveCoefficients:
    """(kappa, eta) of the quasi-nonlocal coupling at shift k = n - m + 1."""
    check_interface(ModelKind.QQC, m, n)
    ctx = _Context(params)
    k1, k2 = params.kappa1, params.kappa2
    ker = ctx.kernel
    k = n - m + 1
    _, ga = ker.fg_scaled(k, ctx.alpha)
    _, gb = ker.fg_scaled(k, 1 - ctx.beta)
    kappa = ctx.abm1 * (k1 + k2 * (ctx.beta + 1) + k2 * gb / ga)
    eta = 1 - ctx.abm1 * ker.shat(k) / ga
    return EffectiveCoefficients(ModelKind.QQC, kappa, eta, n, m)


def qqc_expansions(params: MaterialParams, m: int, n: int):
    """Leading error terms against (kappa0, eta0), both of order
    z0^(2(n-m+1)):

    kappa^qqc - kappa0 = +2 (a+b-1)^2 kappa_bar sinh d / (A+B)^2 z0^(2k),
    eta^qqc - eta0 = 2 (a+b-1) B_alpha / (A+B)^2 z0^(2k), k = n - m + 1,

    from expanding Ghat(k, .) = (A+B)/2 + (B-A)/2 z0^(2k); the kappa term
    is the exact-model term with opposite sign.  Confirmed by
    high-precision sweeps.
    """
    ctx = _Context(params)
    denom = ctx.a_alpha + ctx.b_alpha
    kappa_rec = ExpansionRecord(
        ModelKind.QQC, "kappa",
        2 * ctx.abm1 ** 2 * params.kappa_bar * ctx.kernel.s1 / denom ** 2,
        (2, -2, 2))
    eta_rec = ExpansionRecord(
        ModelKind.QQC, "eta",
        2 * ctx.abm1 * ctx.b_alpha / denom ** 2,
        (2, -2, 2))
    return kappa_rec, eta_rec


# Force-based QC.

def fqc_coefficients(params: MaterialParams, m: int, n: int) -> EffectiveCoefficients:
    """(kappa, eta) of the force-based coupling at shift k = n - m.

    The shared denominator is D = G_{n-m,alpha} - (1 + alpha) sinh delta.
    """
    check_interface(ModelKind.FQC, m, n)
    ctx = _Context(params)
    k1, k2, kbar = params.kappa1, params.kappa2, params.kappa_bar
    ker = ctx.kernel
    k = n - m
    zk = ker.pow(k)
    s1 = ker.s1
    _, ga = ker.fg_scaled(k, ctx.alpha)
    _, gb = ker.fg_scaled(k, 1 - ctx.beta)
    dhat = ga - (1 + ctx.alpha) * s1 * zk
    kappa = (ctx.abm1 * (k1 + k2 * (ctx.beta + 1) + k2 * gb / dhat)
             + ctx.abm1 * (kbar + (ctx.beta - 2) * k2) * s1 * zk / dhat)
    boost = 1 + (1 + ctx.alpha) * s1 * zk / dhat
    eta = (1 - ctx.abm1 * ker.shat(k) / dhat
           + (1 + ctx.alpha) * s1 * zk / dhat)
    eta_long = ((1 + (ctx.beta - 2) * k2 / kbar) * boost
                + (1 + ctx.alpha) * (k2 / kbar) * gb / dhat)
    if _rel_diff(eta, eta_long) > CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"eta evaluations disagree: {eta} vs {eta_long}")
    return EffectiveCoefficients(ModelKind.FQC, kappa, eta, n, m)


def fqc_expansions(params: MaterialParams, m: int, n: int):
    """Leading error terms against (kappa0, eta0), both of order z0^(n-m).

    With D = (A+B)/2 - B_alpha z0^k + O(z0^(2k)), k = n - m, expanding the
    coefficient formulas gives

    kappa^fqc - kappa0 = 2 (a+b-1) [kappa2 B_alpha (A_{1-b}+B_{1-b})
        / (A+B)^2 + (kappa_bar + (b-2) kappa2) sinh d / (A+B)] z0^k,
    eta^fqc - eta0 = 2 B_alpha eta0 / (A+B) z0^k.

    Confirmed by high-precision sweeps.
    """
    ctx = _Context(params)
    k2, kbar = params.kappa2, params.kappa_bar
    denom = ctx.a_alpha + ctx.b_alpha
    s1 = ctx.kernel.s1
    kappa_rec = ExpansionRecord(
        ModelKind.FQC, "kappa",
        2 * ctx.abm1 * (k2 * ctx.b_alpha * (ctx.a_1mb + ctx.b_1mb) / denom ** 2
                        + (kbar + (ctx.beta - 2) * k2) * s1 / denom),
        (1, -1, 0))
    _, eta0 = exact_limits(params)
    eta_rec = ExpansionRecord(
        ModelKind.FQC, "eta",
        2 * ctx.b_alpha * eta0 / denom,
        (1, -1, 0))
    return kappa_rec, eta_rec


# Aggregates.

def limits(params: MaterialParams) -> CoefficientLimits:
    kappa0, eta0 = exact_limits(params)
    eta0_qc, gap = qc_limit(params)
    return CoefficientLimits(kappa0, eta0, eta0_qc, gap)


def coefficients(params: MaterialParams, model: ModelKind,
                 n: int, m: Optional[int] = None) -> EffectiveCoefficients:
    """Dispatch to the per-model coefficient formula."""
    if model is ModelKind.EXACT:
        return exact_coefficients(params, n)
    if model is ModelKind.QC:
        return qc_coefficients(params, m, n)
    if model is ModelKind.QQC:
        return qqc_coefficients(params, m, n)
    return fqc_coefficients(params, m, n)


def expansions(params: MaterialParams, model: ModelKind,
               n: int, m: Optional[int] = None):
    """Leading error terms for the models with closed-form expansions."""
    if model is ModelKind.EXACT:
        return exact_expansions(params, n)
    if m is None:
        raise ValueError(f"{model.value} requires an interface index m")
    if model is ModelKind.QQC:
        return qqc_expansions(params, m, n)
    if model is ModelKind.FQC:
        return fqc_expansions(params, m, n)
    raise ValueError("no closed-form expansion is implemented for the QC "
                     "interface elimination")
