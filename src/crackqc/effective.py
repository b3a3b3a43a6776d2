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
from functools import cached_property
from types import SimpleNamespace
from typing import Optional

from .kernels import HyperbolicKernel
from .material import (EffectiveCoefficients, MaterialParams, ModelKind,
                       characteristic_roots, check_interface)

CROSS_CHECK_TOL = 1e-10
# Entries per index table of a context: a 32-index window at a fixed gap
# needs about 70 powers, and the bound keeps a long sweep at one parameter
# set in constant memory.
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

    A context holds two things.  First, every per-parameter constant of the
    closed forms and their expansions, each formed in the operation order
    the formulas below use, so hoisting it moves no bit.  QC's constants
    and interface matrix are built on first use: QC's gamma has a pole at
    kappa1 + 4.5 kappa2 = 0, where the other models stay finite.  Second,
    a memo of z0^k and of the scaled kernels at index k, keyed on the
    integer k and cleared when it reaches INDEX_MEMO_SIZE entries.  The
    approximations depend on n and m only through n - m, so a window at a
    fixed gap evaluates their kernels once, and the exact model at n + 1
    reuses z0^(2n) and z0^(2n+2) from n.  The memo lives here rather than
    on `HyperbolicKernel`, which stays stateless for the callers that use
    it across precision changes; a context never sees a precision change,
    because `_context` builds a new one.
    """

    def __init__(self, params: MaterialParams, key):
        self.params, self.key, self.prec = params, key, key[-1]
        k1, k2, kbar = params.kappa1, params.kappa2, params.kappa_bar
        roots = characteristic_roots(params)
        self.kernel = HyperbolicKernel(roots.z0)
        self.alpha = alpha = roots.alpha
        self.beta = beta = roots.beta
        self.abm1 = alpha + beta - 1
        self.one_minus_beta = 1 - beta
        self.c1, self.s1 = self.kernel.c1, self.kernel.s1
        self.a_alpha, self.b_alpha = self.kernel.ab(alpha)
        self.a_1mb, self.b_1mb = self.kernel.ab(self.one_minus_beta)
        self.ab_alpha = self.a_alpha + self.b_alpha
        self.ab_1mb = self.a_1mb + self.b_1mb
        # k1 + k2 (beta + 1), the head of every kappa.
        self.kappa_head = k1 + k2 * (beta + 1)
        # kbar + (beta - 2) k2, the head of QC's eta and FQC's tip term.
        self.kbar_tip = kbar + (beta - 2) * k2
        self.k2_kbar = k2 / kbar
        # Fixed factors of the z0^n and z0^k terms of exact and FQC.
        self.exact_eta_tail = (2 * k2 / kbar) * self.abm1 * (self.c1 - 1)
        self.opa_s1 = (1 + alpha) * self.s1
        self.fqc_kappa_tip = self.abm1 * self.kbar_tip * self.s1
        self.fqc_eta_head = 1 + (beta - 2) * k2 / kbar
        self.fqc_eta_gb = (1 + alpha) * self.k2_kbar
        # (kappa0, eta0), the exact model's n -> infinity limits.
        self.exact_limits = (
            self.abm1 * (self.kappa_head + k2 * self.ab_1mb / self.ab_alpha),
            1 - self.abm1 / self.ab_alpha)
        self._powers, self._kernels = {}, {}

    @cached_property
    def qc(self):
        """The interface-elimination constants of `qc_coefficients`."""
        k1, k2, kbar = (self.params.kappa1, self.params.kappa2,
                        self.params.kappa_bar)
        gamma = qc_gamma(self.params)
        c1, s1 = self.c1, self.s1
        c2, s2 = 2 * c1 * c1 - 1, 2 * s1 * c1
        ke = k1 + gamma * k2 / 2
        x1 = ke * (c1 - 1) + k2 * (c2 - 1)
        y1 = ke * s1 + k2 * s2
        b1 = ke + 2 * k2
        return SimpleNamespace(
            m12=self.a_alpha - self.b_alpha, m21=x1 + y1, m22=x1 - y1,
            rhs_p=((1 + self.alpha) / kbar, b1 / kbar - gamma),
            fb_minus=self.a_1mb - self.b_1mb,
            kappa_const=self.abm1 * self.kappa_head,
            eta_const=self.kbar_tip / kbar)

    @cached_property
    def qc_matrix(self):
        """(Q, gamma) of `qc_matrix`."""
        k2, kbar = self.params.kappa2, self.params.kappa_bar
        gamma = qc_gamma(self.params)
        cm1 = self.c1 - 1
        s1 = self.s1
        q11 = (4 - 3 * gamma) / (4 * k2 * cm1)
        q12 = 3 * gamma / (4 * k2 * s1)
        q21 = (2 - gamma) * kbar / (4 * k2 * cm1)
        q22 = ((gamma + 2) * kbar - 4 * k2) / (4 * k2 * s1)
        return ((q11, q12), (q21, q22)), gamma

    def pow(self, k: int):
        """z0^k, memoized."""
        p = self._powers.get(k)
        if p is None:
            if len(self._powers) >= INDEX_MEMO_SIZE:
                self._powers.clear()
            p = self._powers[k] = self.kernel.pow(k)
        return p

    def kernels(self, k: int):
        """(Fhat_alpha, Ghat_alpha, Fhat_1-beta, Ghat_1-beta, Chat, Shat) at
        index k, memoized: `HyperbolicKernel.fg_scaled` for rho = alpha and
        rho = 1 - beta, and `chat`/`shat`, from three memoized powers."""
        entry = self._kernels.get(k)
        if entry is None:
            if len(self._kernels) >= INDEX_MEMO_SIZE:
                self._kernels.clear()
            powers = (self.pow(2 * k + 2), self.pow(2 * k),
                      self.pow(2 * k - 2))
            chats = [(1 + p) / 2 for p in powers]
            shats = [(1 - p) / 2 for p in powers]
            entry = self._kernels[k] = (
                *self.kernel.fg_from_scaled(self.alpha, chats, shats),
                *self.kernel.fg_from_scaled(self.one_minus_beta, chats, shats),
                chats[1], shats[1])
        return entry


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
    ctx = _context(params)
    k2 = params.kappa2
    fa, _, fb, _, chat, _ = ctx.kernels(n)
    zn = ctx.pow(n)
    kappa = ctx.abm1 * (ctx.kappa_head + k2 * fb / fa)
    eta = 1 - ctx.abm1 * (chat - zn) / fa

    # Long form: the collapse combination plus the criss-cross determinant
    # term, which is n-independent up to the z0^n factor.  (A fully expanded
    # variant of this route in circulation carries a constant-term error of
    # exactly kappa2 / kappa_bar; this assembled form is the consistent
    # one.)
    eta_long = (1 + ctx.k2_kbar * ((ctx.beta - 2) * fa
                                   + (1 + ctx.alpha) * fb) / fa
                - ctx.exact_eta_tail * zn / fa)
    if _rel_diff(eta, eta_long) > CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"eta evaluations disagree: {eta} vs {eta_long}")
    return EffectiveCoefficients(ModelKind.EXACT, kappa, eta, n)


def exact_limits(params: MaterialParams):
    """(kappa0, eta0): the macroscopic-crack limits of the exact model."""
    return _context(params).exact_limits


def exact_expansions(params: MaterialParams, n: int):
    """Leading error terms of (kappa, eta) against (kappa0, eta0).

    kappa - kappa0 = -2 (a+b-1)^2 kappa_bar sinh d / (A+B)^2 z0^(2n) + ...,
    eta - eta0 = 2 (a+b-1) / (A+B) z0^n + ...; both follow from expanding
    Fhat(n, .) = (A+B)/2 + (A-B)/2 z0^(2n) in the coefficient formulas and
    are confirmed by high-precision sweeps.
    """
    ctx = _context(params)
    denom = ctx.ab_alpha
    kappa_rec = ExpansionRecord(
        ModelKind.EXACT, "kappa",
        -2 * ctx.abm1 ** 2 * params.kappa_bar * ctx.s1 / denom ** 2,
        (2, 0, 0))
    eta_rec = ExpansionRecord(
        ModelKind.EXACT, "eta", 2 * ctx.abm1 / denom, (1, 0, 0))
    return kappa_rec, eta_rec


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


def qc_coefficients(params: MaterialParams, m: int, n: int) -> EffectiveCoefficients:
    """(kappa, eta) of the energy-based QC model by interface elimination.

    Solves the scaled 2x2 system coupling the growing/decaying ansatz parts
    (x, y) = (e+ z0^{-n}, e- z0^m) to the tip matching condition and the
    first interface equation; the second interface equation is exhausted by
    b = -P / kappa_bar.  Matches the lattice oracle to machine precision.
    """
    check_interface(ModelKind.QC, m, n)
    ctx = _context(params)
    k2 = params.kappa2
    qc = ctx.qc
    zk = ctx.pow(n - m)
    m11, m12, m21, m22 = ctx.ab_alpha, qc.m12 * zk, qc.m21 * zk, qc.m22
    xu, yu = _solve2(m11, m12, m21, m22, ctx.abm1, 0.0)
    xp, yp = _solve2(m11, m12, m21, m22, *qc.rhs_p)

    fb_plus = ctx.ab_1mb
    fb_minus = qc.fb_minus * zk
    kappa = qc.kappa_const + k2 * (fb_plus * xu + fb_minus * yu)
    eta = qc.eta_const + k2 * (fb_plus * xp + fb_minus * yp)
    return EffectiveCoefficients(ModelKind.QC, kappa, eta, n, m)


def qc_matrix(params: MaterialParams):
    """The 2x2 interface matrix Q of the alternative QC closed form, and
    gamma.  Entries are finite because cosh delta = -1 - kappa1/(2 kappa2)
    never equals 1 under the validity conditions."""
    if params.kappa2 == 0:
        raise ValueError("qc_matrix requires kappa2 != 0")
    return _context(params).qc_matrix


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
    ctx = _context(params)
    k2, kbar = params.kappa2, params.kappa_bar
    ((q11_, q12_), (q21_, q22_)), gamma = ctx.qc_matrix
    k = n - m
    zk = ctx.pow(k)
    fa, ga, fb, gb, chat, shat = ctx.kernels(k)
    denom = q12_ * fa + q22_ * ga + (1 + ctx.alpha) * zk
    kappa = (ctx.abm1 * (ctx.kappa_head + k2 * (q12_ * fb + q22_ * gb) / denom)
             - ctx.abm1 * ctx.kbar_tip * zk / denom)
    ra = q11_ * fa + q21_ * ga
    eta = (ra * kbar / denom
           - ctx.abm1 * kbar * (q11_ * chat + q21_ * shat) / denom
           - ctx.abm1 * ((1 - gamma) * kbar / k2 - (2 - 3 * gamma / 2))
           * zk / denom)
    eta_alt = (ra * ctx.kbar_tip / denom
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
    ctx = _context(params)
    _, eta0 = ctx.exact_limits
    (q11_, q12_), (q21_, q22_) = ctx.qc_matrix[0]
    ratio = (q11_ + q21_) * kbar / (q12_ + q22_)
    return eta0 * ratio, eta0 * (1 - ratio)


# Quasi-nonlocal QC.

def qqc_coefficients(params: MaterialParams, m: int, n: int) -> EffectiveCoefficients:
    """(kappa, eta) of the quasi-nonlocal coupling at shift k = n - m + 1."""
    check_interface(ModelKind.QQC, m, n)
    ctx = _context(params)
    _, ga, _, gb, _, shat = ctx.kernels(n - m + 1)
    kappa = ctx.abm1 * (ctx.kappa_head + params.kappa2 * gb / ga)
    eta = 1 - ctx.abm1 * shat / ga
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
    ctx = _context(params)
    denom = ctx.ab_alpha
    kappa_rec = ExpansionRecord(
        ModelKind.QQC, "kappa",
        2 * ctx.abm1 ** 2 * params.kappa_bar * ctx.s1 / denom ** 2,
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
    ctx = _context(params)
    k = n - m
    zk = ctx.pow(k)
    _, ga, _, gb, _, shat = ctx.kernels(k)
    tip = ctx.opa_s1 * zk
    dhat = ga - tip
    kappa = (ctx.abm1 * (ctx.kappa_head + params.kappa2 * gb / dhat)
             + ctx.fqc_kappa_tip * zk / dhat)
    tip_share = tip / dhat
    eta = 1 - ctx.abm1 * shat / dhat + tip_share
    eta_long = ctx.fqc_eta_head * (1 + tip_share) + ctx.fqc_eta_gb * gb / dhat
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
    ctx = _context(params)
    denom = ctx.ab_alpha
    kappa_rec = ExpansionRecord(
        ModelKind.FQC, "kappa",
        2 * ctx.abm1 * (params.kappa2 * ctx.b_alpha * ctx.ab_1mb / denom ** 2
                        + ctx.kbar_tip * ctx.s1 / denom),
        (1, -1, 0))
    _, eta0 = ctx.exact_limits
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
