"""Overflow-safe evaluation of the hyperbolic recurrence kernels.

With z0 the decaying crack-region root, set delta = -log z0 and

    C(k) = cosh[k delta] = (z0^-k + z0^k) / 2,
    S(k) = sinh[k delta] = (z0^-k - z0^k) / 2.

Both are real for z0 < 0 because only integer powers of z0 ever appear; this
representation is the real-arithmetic stand-in for the complex delta.  Since
|z0| can be small (about 0.084 at the reference parameters), C(k) overflows
double precision for k beyond about 180, so every downstream formula consumes
the scaled pair

    Chat(k) = z0^k C(k) = (1 + z0^(2k)) / 2,
    Shat(k) = z0^k S(k) = (1 - z0^(2k)) / 2,

and the scaled coefficient functions Fhat(k, rho) = z0^k F_{k,rho},
Ghat(k, rho) = z0^k G_{k,rho}.  Ratios of same-index kernels are exact
rescalings, so closed-form coefficient formulas are unchanged.

All methods are generic over the numeric type of z0 (floats or mpmath.mpf),
which the high-precision expansion sweeps rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .material import MaterialParams, characteristic_roots

MAX_INDEX = 10 ** 6


class KernelRangeError(OverflowError):
    """Unscaled kernel value not representable at the requested index."""


@dataclass(frozen=True)
class HyperbolicKernel:
    """Kernel evaluator bound to one crack-region root z0.

    It holds no state beyond z0: every method recomputes the powers it
    needs.  `checks` and `lattice` call it directly, some of them around
    mpmath precision changes, and a power cached here at one precision
    would be handed to a caller at another.  The closed forms memoize
    powers and scaled pairs in `effective`'s per-parameter context
    instead, which is rebuilt whenever the precision changes.
    """

    z0: float

    def _check(self, k: int):
        if abs(k) > MAX_INDEX:
            # Beyond this index z0^(2k) underflows to zero and the scaled
            # kernels sit exactly at their asymptotic fixed point 1/2; the
            # bound merely keeps integer powers cheap.
            raise KernelRangeError(f"kernel index |{k}| exceeds {MAX_INDEX}")

    def pow(self, k: int):
        """z0^k for integer k (k may be negative)."""
        self._check(k)
        try:
            return self.z0 ** k
        except OverflowError as exc:
            raise KernelRangeError(f"z0^{k} overflows") from exc

    # Scaled kernels: valid for every integer index of either sign (values
    # grow as z0^(2k) only for k < 0, which callers keep small).

    def chat(self, k: int):
        return (1 + self.pow(2 * k)) / 2

    def shat(self, k: int):
        return (1 - self.pow(2 * k)) / 2

    @property
    def c1(self):
        """cosh delta = (z0 + 1/z0) / 2; equals -1 - kappa1/(2 kappa2)."""
        return (self.z0 + 1 / self.z0) / 2

    @property
    def s1(self):
        """sinh delta = (1/z0 - z0) / 2.

        The sign follows from z0 directly; no principal square root is ever
        taken, so there is no branch ambiguity for z0 < 0.
        """
        return (1 / self.z0 - self.z0) / 2

    def fg_scaled(self, k: int, rho):
        """Scaled pair (Fhat, Ghat) = z0^k (F_{k,rho}, G_{k,rho})."""
        ks = (k + 1, k, k - 1)
        return self.fg_from_scaled(rho, [self.chat(j) for j in ks],
                                   [self.shat(j) for j in ks])

    def fg_from_scaled(self, rho, chats, shats):
        """(Fhat, Ghat) at index k from chats = (Chat(k+1), Chat(k),
        Chat(k-1)) and shats likewise, so a caller holding those values
        forms the pair without recomputing a power of z0."""
        z0 = self.z0
        fhat = chats[0] / z0 - (1 - rho) * chats[1] - rho * z0 * chats[2]
        ghat = shats[0] / z0 - (1 - rho) * shats[1] - rho * z0 * shats[2]
        return fhat, ghat

    def fg(self, k: int, rho):
        """Unscaled (F_{k,rho}, G_{k,rho}); overflow-guarded."""
        fhat, ghat = self.fg_scaled(k, rho)
        grow = self.pow(-k)
        return fhat * grow, ghat * grow

    def ab(self, rho):
        """(A_rho, B_rho) with A_rho = (1-rho)(cosh delta - 1),
        B_rho = (1+rho) sinh delta; (F_{k,rho}, G_{k,rho}) = (A, B) K_k."""
        return (1 - rho) * (self.c1 - 1), (1 + rho) * self.s1


def kernel_for(params: MaterialParams) -> HyperbolicKernel:
    return HyperbolicKernel(characteristic_roots(params).z0)


def identity_rela(params: MaterialParams, kernel: HyperbolicKernel, k: int):
    """Relative residuals of the two telescoping kernel identities.

    rela1: (kappa1 + 2 kappa2)(C(k) - C(k-1)) + kappa2 (C(k-1) - C(k-2))
           + kappa2 (C(k+1) - C(k)) = 0, and rela2 likewise with S.

    Evaluated in scaled arithmetic: every term is multiplied by z0^(k+1),
    turning C(k+j) into powers of z0 times Chat values, so the residual is
    meaningful for k far beyond the unscaled overflow range.  Residuals are
    normalized by the largest scaled term magnitude.
    """
    k1, k2 = params.kappa1, params.kappa2
    z0 = kernel.z0
    out = []
    for fn in (kernel.chat, kernel.shat):
        v2, v1, v0, vp = fn(k - 2), fn(k - 1), fn(k), fn(k + 1)
        terms = ((k1 + 2 * k2) * (z0 * v0 - z0 * z0 * v1),
                 k2 * (z0 * z0 * v1 - z0 ** 3 * v2),
                 k2 * (vp - z0 * v0))
        scale = max(abs(t) for t in terms)
        scale = scale if scale > 0 else 1
        out.append((terms[0] + terms[1] + terms[2]) / scale)
    return out[0], out[1]


def crisscross_constant(kernel: HyperbolicKernel, alpha, beta):
    """The n-independent value of the criss-cross determinant.

    G_{n,1-b} F_{n,a} - F_{n,1-b} G_{n,a}
        = det K_n det [[A_a, A_{1-b}], [B_a, B_{1-b}]]
        = -2 (alpha + beta - 1)(cosh delta - 1) sinh delta.
    """
    return -2 * (alpha + beta - 1) * (kernel.c1 - 1) * kernel.s1


def crisscross_direct(kernel: HyperbolicKernel, alpha, beta, n: int):
    """Direct evaluation of the criss-cross determinant at index n.

    The subtraction cancels to z0^(2n) of the product magnitudes, so in
    doubles this is reliable only for n <= 2; pass an mpf-backed kernel with
    working precision beyond 2n log10|1/z0| digits for larger n.
    """
    fa, ga = kernel.fg(n, alpha)
    fb, gb = kernel.fg(n, 1 - beta)
    return gb * fa - fb * ga
