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
                       characteristic_roots, check_indices)

CROSS_CHECK_TOL = 1e-10
# Entries per context memo: a 32-index window at a fixed gap stores about
# 40, and the bound keeps a long sweep at one set in constant memory.
INDEX_MEMO_SIZE = 256


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
    """Everything the closed forms know about one parameter set.

    Sweeps evaluate many tip indices for one parameter set, so `_context`
    keeps the last context built.  Its key is the `MaterialParams`, the type
    of each stiffness, and the working precision of the mpmath context that
    `delta_disc` carries (None for floats; `delta_disc` is formed from all
    three stiffnesses, so it is an mpf whenever any of them is).  Type and
    precision belong in the key because equal values do not give equal
    results: `mpf(4) == 4.0` with equal hashes, and the same mpf params
    evaluated at 20 and at 60 digits give different roots.

    Besides the roots, alpha, beta, alpha + beta - 1 and the two (A, B)
    pairs, a context holds one memo of formula results keyed on (formula,
    index) and cleared at INDEX_MEMO_SIZE entries; a formula that raises
    stores nothing.  The approximations depend on (n, m) only through
    n - m (n - m + 1 for QQC), so a window at a fixed gap evaluates each
    of them once.  The exact model's index runs across such a window, so
    its index-free terms are set once, on first use (`exact_terms`, by
    `_exact_terms`).
    """

    def __init__(self, params: MaterialParams, key):
        self.params, self.key, self.prec = params, key, key[-1]
        self.roots = characteristic_roots(params)
        self.kernel = HyperbolicKernel(self.roots.z0)
        self.alpha, self.beta = self.roots.alpha, self.roots.beta
        self.abm1 = self.alpha + self.beta - 1
        self.a_alpha, self.b_alpha = self.kernel.ab(self.alpha)
        self.a_1mb, self.b_1mb = self.kernel.ab(1 - self.beta)
        self.memo = {}
        self.exact_terms = None

    def evaluate(self, formula, index=None):
        """formula(self, index), once per (formula, index)."""
        key = formula, index
        value = self.memo.get(key)
        if value is None:
            if len(self.memo) >= INDEX_MEMO_SIZE:
                self.memo.clear()
            value = self.memo[key] = formula(self, index)
        return value

    def scaled(self, k: int, cosh: bool):
        """(Fhat_alpha, Fhat_1-beta, Chat) at index k if `cosh`, else
        (Ghat_alpha, Ghat_1-beta, Shat), from z0^(2k+2), z0^(2k), z0^(2k-2)."""
        ker = self.kernel
        powers = [ker.pow(j) for j in (2 * k + 2, 2 * k, 2 * k - 2)]
        hats = ([(1 + p) / 2 for p in powers] if cosh
                else [(1 - p) / 2 for p in powers])
        return (ker.scaled_from(self.alpha, hats),
                ker.scaled_from(1 - self.beta, hats), hats[1])


# The last context built, replaced in one statement.
_memo: Optional[_Context] = None


def _context(params: MaterialParams) -> _Context:
    global _memo
    prec = getattr(getattr(params.delta_disc, "context", None), "prec", None)
    ctx = _memo
    # A sweep passes the same params object each time: identity and
    # precision settle it without building and comparing the full key.
    if ctx is not None and ctx.params is params and ctx.prec == prec:
        return ctx
    key = (params, type(params.kappa1), type(params.kappa2),
           type(params.kappa3), prec)
    if ctx is None or ctx.key != key:
        ctx = _memo = _Context(params, key)
    return ctx


def _index(model: ModelKind, n: int, m: Optional[int] = None) -> int:
    """The one index `model`'s closed forms depend on, once `check_indices`
    accepts (n, m): n for Exact, n - m + 1 for QQC, n - m otherwise."""
    check_indices(model, n, m)
    if model is ModelKind.EXACT:
        return n
    return n - m + 1 if model is ModelKind.QQC else n - m


def _solve2(m11, m12, m21, m22, r1, r2):
    det = m11 * m22 - m12 * m21
    return (r1 * m22 - r2 * m12) / det, (m11 * r2 - m21 * r1) / det


def _records(model, kappa, kappa_exponent, eta, eta_exponent):
    """The (kappa, eta) pair of `ExpansionRecord`s of one model."""
    return (ExpansionRecord(model, "kappa", kappa, kappa_exponent),
            ExpansionRecord(model, "eta", eta, eta_exponent))


def _cross_check(eta, eta_long):
    scale = max(abs(eta), abs(eta_long))
    if scale > 0 and abs(eta - eta_long) / scale > CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"eta evaluations disagree: {eta} vs {eta_long}")


# Exact model.

def _exact_terms(ctx: _Context):
    """The index-free terms of `_exact`, in its order of operations."""
    k1, k2, kbar = ctx.params.kappa1, ctx.params.kappa2, ctx.params.kappa_bar
    ctx.exact_terms = terms = (
        k1 + k2 * (ctx.beta + 1), k2 / kbar, ctx.beta - 2, 1 + ctx.alpha,
        (2 * k2 / kbar) * ctx.abm1 * (ctx.kernel.c1 - 1))
    return terms


def _exact(ctx: _Context, n: int):
    k2 = ctx.params.kappa2
    base, k2_kbar, bm2, a1, cross = ctx.exact_terms or _exact_terms(ctx)
    fa, fb, chat = ctx.scaled(n, cosh=True)
    zn = ctx.kernel.pow(n)
    kappa = ctx.abm1 * (base + k2 * fb / fa)
    eta = 1 - ctx.abm1 * (chat - zn) / fa

    # Long form: the collapse combination plus the criss-cross determinant
    # term, which is n-independent up to the z0^n factor.  (A fully expanded
    # variant of this route in circulation carries a constant-term error of
    # exactly kappa2 / kappa_bar; this assembled form is the consistent
    # one.)
    eta_long = 1 + k2_kbar * (bm2 * fa + a1 * fb) / fa - cross * zn / fa
    _cross_check(eta, eta_long)
    return kappa, eta


def exact_coefficients(params: MaterialParams, n: int) -> EffectiveCoefficients:
    """(kappa, eta) of the exact chain at crack-tip index n >= 1.

    eta is evaluated from its simplified form and cross-checked against
    the three-term long form (with the criss-cross determinant replaced by
    its n-independent value, which is what makes the long form evaluable at
    large n at all).
    """
    kappa, eta = _context(params).evaluate(_exact, _index(ModelKind.EXACT, n))
    return EffectiveCoefficients(ModelKind.EXACT, kappa, eta, n)


def _exact_limits(ctx: _Context, _):
    k1, k2 = ctx.params.kappa1, ctx.params.kappa2
    denom = ctx.a_alpha + ctx.b_alpha
    return (ctx.abm1 * (k1 + k2 * (1 + ctx.beta)
                        + k2 * (ctx.a_1mb + ctx.b_1mb) / denom),
            1 - ctx.abm1 / denom)


def exact_limits(params: MaterialParams):
    """(kappa0, eta0): the macroscopic-crack limits of the exact model."""
    return _context(params).evaluate(_exact_limits)


def _exact_expansions(ctx: _Context, _):
    """Leading error terms of (kappa, eta) against (kappa0, eta0).

    kappa - kappa0 = -2 (a+b-1)^2 kappa_bar sinh d / (A+B)^2 z0^(2n) + ...,
    eta - eta0 = 2 (a+b-1) / (A+B) z0^n + ...; both follow from expanding
    Fhat(n, .) = (A+B)/2 + (A-B)/2 z0^(2n) in the coefficient formulas and
    are confirmed by high-precision sweeps.
    """
    denom = ctx.a_alpha + ctx.b_alpha
    return _records(
        ModelKind.EXACT,
        -2 * ctx.abm1 ** 2 * ctx.params.kappa_bar * ctx.kernel.s1
        / denom ** 2, (2, 0, 0),
        2 * ctx.abm1 / denom, (1, 0, 0))


# Energy-based QC.

def qc_gamma(params: MaterialParams):
    """gamma = kappa_bar / (kappa_bar + kappa2 / 2) of the QC interface.

    Its pole kappa1 + 4.5 kappa2 = 0 lies inside the admissible set (for
    instance kappa1 = 4.5, kappa2 = -1, small kappa3); QC is undefined there.
    """
    kbar = params.kappa_bar
    den = kbar + params.kappa2 / 2
    if den == 0:
        raise ValueError("QC is undefined at kappa1 + 4.5*kappa2 = 0: "
                         "gamma = kappa_bar / (kappa_bar + kappa2/2) "
                         "has a pole there")
    return kbar / den


def _qc(ctx: _Context, k: int):
    k1, k2, kbar = ctx.params.kappa1, ctx.params.kappa2, ctx.params.kappa_bar
    zk = ctx.kernel.pow(k)
    gamma = qc_gamma(ctx.params)
    c1, s1 = ctx.kernel.c1, ctx.kernel.s1
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
    return kappa, eta


def qc_coefficients(params: MaterialParams, m: int, n: int) -> EffectiveCoefficients:
    """(kappa, eta) of the energy-based QC model by interface elimination.

    Solves the scaled 2x2 system coupling the growing/decaying ansatz parts
    (x, y) = (e+ z0^{-n}, e- z0^m) to the tip matching condition and the
    first interface equation; the second interface equation is exhausted by
    b = -P / kappa_bar.  Matches the lattice oracle to machine precision.
    """
    kappa, eta = _context(params).evaluate(_qc, _index(ModelKind.QC, n, m))
    return EffectiveCoefficients(ModelKind.QC, kappa, eta, n, m)


def _qc_matrix(ctx: _Context, _):
    k2, kbar = ctx.params.kappa2, ctx.params.kappa_bar
    gamma = qc_gamma(ctx.params)
    cm1 = ctx.kernel.c1 - 1
    s1 = ctx.kernel.s1
    q11 = (4 - 3 * gamma) / (4 * k2 * cm1)
    q12 = 3 * gamma / (4 * k2 * s1)
    q21 = (2 - gamma) * kbar / (4 * k2 * cm1)
    q22 = ((gamma + 2) * kbar - 4 * k2) / (4 * k2 * s1)
    return ((q11, q12), (q21, q22)), gamma


def qc_matrix(params: MaterialParams):
    """The 2x2 interface matrix Q of the alternative QC closed form, and
    gamma.  Entries are finite because cosh delta = -1 - kappa1/(2 kappa2)
    never equals 1 under the validity conditions."""
    return _context(params).evaluate(_qc_matrix)


def _qc_qmatrix(ctx: _Context, k: int):
    k1, k2, kbar = ctx.params.kappa1, ctx.params.kappa2, ctx.params.kappa_bar
    ((q11_, q12_), (q21_, q22_)), gamma = ctx.evaluate(_qc_matrix)
    zk = ctx.kernel.pow(k)
    fa, fb, chat = ctx.scaled(k, cosh=True)
    ga, gb, shat = ctx.scaled(k, cosh=False)
    denom = q12_ * fa + q22_ * ga + (1 + ctx.alpha) * zk
    kappa = (ctx.abm1 * (k1 + k2 * (1 + ctx.beta)
                         + k2 * (q12_ * fb + q22_ * gb) / denom)
             - ctx.abm1 * (kbar + (ctx.beta - 2) * k2) * zk / denom)
    ra = q11_ * fa + q21_ * ga
    eta = (ra * kbar / denom
           - ctx.abm1 * kbar * (q11_ * chat + q21_ * shat) / denom
           - ctx.abm1 * ((1 - gamma) * kbar / k2 - (2 - 3 * gamma / 2))
           * zk / denom)
    eta_alt = (ra * (kbar + (ctx.beta - 2) * k2) / denom
               + (q11_ * fb + q21_ * gb) * (1 + ctx.alpha) * k2 / denom
               - ctx.abm1 * (2 * (1 - gamma) * kbar - (4 - 3 * gamma) * k2)
               * zk / (2 * k2 * denom))
    return kappa, eta, eta_alt


def qc_coefficients_qmatrix(params: MaterialParams, m: int, n: int):
    """Alternative QC closed form routed through the interface matrix Q.

    Returns (coefficients, eta_alt): eta from the fully reduced form and
    `eta_alt` from the intermediate reshaped form; the two agree with
    each other.  Retained for diagnostics only: this evaluation disagrees
    with the assembled-chain oracle (the interface reduction it encodes
    drops a next-nearest interface term), so `qc_coefficients` is the
    primary path.
    """
    kappa, eta, eta_alt = _context(params).evaluate(
        _qc_qmatrix, _index(ModelKind.QC, n, m))
    return EffectiveCoefficients(ModelKind.QC, kappa, eta, n, m), eta_alt


def qc_limit(params: MaterialParams):
    """(eta0_qc, gap) for the interface-matrix QC closed form.

    eta0_qc = eta0 (q11 + q21) kappa_bar / (q12 + q22) is the n - m ->
    infinity limit of `qc_coefficients_qmatrix`, and gap = eta0 - eta0_qc
    stays finite, so that closed form never recovers the exact load factor.
    A further simplification of the ratio through tanh[delta/2] circulates
    in a form inconsistent with it.
    """
    _, eta0 = exact_limits(params)
    (q11_, q12_), (q21_, q22_) = qc_matrix(params)[0]
    ratio = (q11_ + q21_) * params.kappa_bar / (q12_ + q22_)
    return eta0 * ratio, eta0 * (1 - ratio)


# Quasi-nonlocal QC.

def _qqc(ctx: _Context, k: int):
    k1, k2 = ctx.params.kappa1, ctx.params.kappa2
    ga, gb, shat = ctx.scaled(k, cosh=False)
    kappa = ctx.abm1 * (k1 + k2 * (ctx.beta + 1) + k2 * gb / ga)
    eta = 1 - ctx.abm1 * shat / ga
    return kappa, eta


def qqc_coefficients(params: MaterialParams, m: int, n: int) -> EffectiveCoefficients:
    """(kappa, eta) of the quasi-nonlocal coupling at shift k = n - m + 1."""
    kappa, eta = _context(params).evaluate(_qqc, _index(ModelKind.QQC, n, m))
    return EffectiveCoefficients(ModelKind.QQC, kappa, eta, n, m)


def _qqc_expansions(ctx: _Context, _):
    """Leading error terms against (kappa0, eta0), both of order
    z0^(2(n-m+1)):

    kappa^qqc - kappa0 = +2 (a+b-1)^2 kappa_bar sinh d / (A+B)^2 z0^(2k),
    eta^qqc - eta0 = 2 (a+b-1) B_alpha / (A+B)^2 z0^(2k), k = n - m + 1,

    from expanding Ghat(k, .) = (A+B)/2 + (B-A)/2 z0^(2k); the kappa term
    is the exact-model term with opposite sign.  Confirmed by
    high-precision sweeps.
    """
    denom = ctx.a_alpha + ctx.b_alpha
    return _records(
        ModelKind.QQC,
        2 * ctx.abm1 ** 2 * ctx.params.kappa_bar * ctx.kernel.s1 / denom ** 2,
        (2, -2, 2),
        2 * ctx.abm1 * ctx.b_alpha / denom ** 2, (2, -2, 2))


# Force-based QC.

def _fqc(ctx: _Context, k: int):
    k1, k2, kbar = ctx.params.kappa1, ctx.params.kappa2, ctx.params.kappa_bar
    zk = ctx.kernel.pow(k)
    s1 = ctx.kernel.s1
    ga, gb, shat = ctx.scaled(k, cosh=False)
    dhat = ga - (1 + ctx.alpha) * s1 * zk
    kappa = (ctx.abm1 * (k1 + k2 * (ctx.beta + 1) + k2 * gb / dhat)
             + ctx.abm1 * (kbar + (ctx.beta - 2) * k2) * s1 * zk / dhat)
    boost = 1 + (1 + ctx.alpha) * s1 * zk / dhat
    eta = (1 - ctx.abm1 * shat / dhat
           + (1 + ctx.alpha) * s1 * zk / dhat)
    eta_long = ((1 + (ctx.beta - 2) * k2 / kbar) * boost
                + (1 + ctx.alpha) * (k2 / kbar) * gb / dhat)
    _cross_check(eta, eta_long)
    return kappa, eta


def fqc_coefficients(params: MaterialParams, m: int, n: int) -> EffectiveCoefficients:
    """(kappa, eta) of the force-based coupling at shift k = n - m.

    The shared denominator is D = G_{n-m,alpha} - (1 + alpha) sinh delta.
    """
    kappa, eta = _context(params).evaluate(_fqc, _index(ModelKind.FQC, n, m))
    return EffectiveCoefficients(ModelKind.FQC, kappa, eta, n, m)


def _fqc_expansions(ctx: _Context, _):
    """Leading error terms against (kappa0, eta0), both of order z0^(n-m).

    With D = (A+B)/2 - B_alpha z0^k + O(z0^(2k)), k = n - m, expanding the
    coefficient formulas gives

    kappa^fqc - kappa0 = 2 (a+b-1) [kappa2 B_alpha (A_{1-b}+B_{1-b})
        / (A+B)^2 + (kappa_bar + (b-2) kappa2) sinh d / (A+B)] z0^k,
    eta^fqc - eta0 = 2 B_alpha eta0 / (A+B) z0^k.

    Confirmed by high-precision sweeps.
    """
    k2, kbar = ctx.params.kappa2, ctx.params.kappa_bar
    denom = ctx.a_alpha + ctx.b_alpha
    s1 = ctx.kernel.s1
    _, eta0 = ctx.evaluate(_exact_limits)
    return _records(
        ModelKind.FQC,
        2 * ctx.abm1 * (k2 * ctx.b_alpha * (ctx.a_1mb + ctx.b_1mb) / denom ** 2
                        + (kbar + (ctx.beta - 2) * k2) * s1 / denom),
        (1, -1, 0),
        2 * ctx.b_alpha * eta0 / denom, (1, -1, 0))


# Aggregates.

def limits(params: MaterialParams) -> CoefficientLimits:
    return CoefficientLimits(*exact_limits(params), *qc_limit(params))


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


_EXPANSIONS = {ModelKind.EXACT: _exact_expansions,
               ModelKind.QQC: _qqc_expansions,
               ModelKind.FQC: _fqc_expansions}


def expansions(params: MaterialParams, model: ModelKind,
               n: int, m: Optional[int] = None):
    """`model`'s (kappa, eta) leading error terms, which depend on neither
    n nor m; QC has none.  Refuses the (n, m) that `coefficients` refuses."""
    check_indices(model, n, m)
    formula = _EXPANSIONS.get(model)
    if formula is None:
        raise ValueError("no closed-form expansion is implemented for the "
                         "QC interface elimination")
    return _context(params).evaluate(formula)
