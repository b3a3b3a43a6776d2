import mpmath as mp
import pytest

from crackqc.checks import rela_residual
from crackqc.kernels import (HyperbolicKernel, KernelRangeError,
                             crisscross_constant, crisscross_direct,
                             kernel_for)
from crackqc.material import characteristic_roots, validate

from conftest import random_params


# Identities that only these tests evaluate; the package never calls them.

def _cosh(kernel: HyperbolicKernel, k: int):
    grow = kernel.pow(-abs(k))
    return (grow + 1 / grow) / 2


def _sinh(kernel: HyperbolicKernel, k: int):
    grow = kernel.pow(-abs(k))
    value = (grow - 1 / grow) / 2
    return value if k >= 0 else -value


def _det_kn(kernel: HyperbolicKernel, n: int):
    """det K_n evaluated through its exponential factorization.

    det K_n = C(n)^2 - S(n)^2 = (C+S)(C-S) with C+S = z0^-n and
    C-S = z0^n.  The factors are paired per step, ((1/z0) z0)^n, which
    avoids both the subtractive cancellation that makes the raw
    difference of squares unusable in doubles and the overflow of the
    separate z0^-n factor.
    """
    kernel._check(n)
    return ((1 / kernel.z0) * kernel.z0) ** n


def _kn_product_residual(kernel: HyperbolicKernel, n: int, m: int):
    """Max relative entry residual of K_n K_m^{-1} = K_{n-m}, in scaled form.

    Since det K_m = 1, K_m^{-1} flips the sign of the off-diagonal entries,
    and the scaled identity reads Khat_n adj(Khat_m) = z0^(2m) Khat_{n-m}.
    The subtraction in each entry cancels as z0^(2 min(n, m)); for doubles
    this is meaningful only for small indices, while an mpf-backed kernel
    verifies the full range.
    """
    cn, sn = kernel.chat(n), kernel.shat(n)
    cm, sm = kernel.chat(m), kernel.shat(m)
    zm2 = kernel.pow(2 * m)
    lhs = (cn * cm - sn * sm, sn * cm - cn * sm)
    rhs = (zm2 * kernel.chat(n - m), zm2 * kernel.shat(n - m))
    worst = 0 * kernel.z0
    for left, right in zip(lhs, rhs):
        denom = max(abs(left), abs(right))
        denom = denom if denom > 0 else 1
        resid = abs(left - right) / denom
        if resid > worst:
            worst = resid
    return worst


def _collapse_residual(kernel: HyperbolicKernel, alpha, beta, n: int):
    """Relative residual of the coefficient-collapse identity at index n.

    (beta - 2) F_{n,a} + (1 + alpha) F_{n,1-b}
        = 2 (alpha + beta - 1)(cosh delta - 1) C(n).

    Evaluated in scaled arithmetic; the combination is cancellation-free
    because the sinh parts annihilate exactly.
    """
    fa, _ = kernel.fg_scaled(n, alpha)
    fb, _ = kernel.fg_scaled(n, 1 - beta)
    lhs = (beta - 2) * fa + (1 + alpha) * fb
    rhs = 2 * (alpha + beta - 1) * (kernel.c1 - 1) * kernel.chat(n)
    scale = max(abs(lhs), abs(rhs))
    scale = scale if scale > 0 else 1
    return (lhs - rhs) / scale


def _fg_ab_residual(kernel: HyperbolicKernel, rho, k: int):
    """Max relative residual of (F_{k,rho}, G_{k,rho}) = (A_rho, B_rho) K_k,
    verified in scaled form against the direct Fhat/Ghat evaluation."""
    a, b = kernel.ab(rho)
    c, s = kernel.chat(k), kernel.shat(k)
    ref_f, ref_g = kernel.fg_scaled(k, rho)
    worst = 0 * kernel.z0
    for got, ref in ((a * c + b * s, ref_f), (a * s + b * c, ref_g)):
        denom = max(abs(got), abs(ref))
        denom = denom if denom > 0 else 1
        resid = abs(got - ref) / denom
        if resid > worst:
            worst = resid
    return worst


def _mp_setup(dps=220):
    pm = validate(mp.mpf(4), mp.mpf("0.4"), mp.mpf(20), mp.mpf("0.5"))
    roots = characteristic_roots(pm)
    return pm, roots, HyperbolicKernel(roots.z0)


class TestScaledKernels:
    def test_chat_shat_definitions(self, params):
        kernel = kernel_for(params)
        z0 = kernel.z0
        for k in (0, 1, 3, 7):
            assert kernel.chat(k) == pytest.approx((1 + z0 ** (2 * k)) / 2)
            assert kernel.shat(k) == pytest.approx((1 - z0 ** (2 * k)) / 2)
        assert kernel.chat(0) == 1.0
        assert kernel.shat(0) == 0.0

    def test_scaled_matches_unscaled_small_k(self, params):
        kernel = kernel_for(params)
        z0 = kernel.z0
        for k in range(-4, 8):
            zk = z0 ** k
            assert zk * _cosh(kernel, k) == pytest.approx(kernel.chat(k),
                                                        rel=1e-14)
            assert zk * _sinh(kernel, k) == pytest.approx(kernel.shat(k),
                                                        rel=1e-14)

    def test_large_index_no_overflow(self, params):
        kernel = kernel_for(params)
        # Unscaled cosh(300) overflows doubles; the scaled form saturates.
        assert kernel.chat(300) == pytest.approx(0.5)
        assert kernel.shat(300) == pytest.approx(0.5)
        assert _det_kn(kernel, 300) == pytest.approx(1.0)
        assert _det_kn(kernel, 10 ** 6) == pytest.approx(1.0)

    def test_index_guard(self, params):
        kernel = kernel_for(params)
        with pytest.raises(KernelRangeError):
            kernel.chat(10 ** 6 + 1)

    def test_c1_s1_values(self, params):
        kernel = kernel_for(params)
        z0 = kernel.z0
        assert kernel.c1 == pytest.approx(-1 - params.kappa1
                                          / (2 * params.kappa2))
        assert kernel.s1 == pytest.approx((1 / z0 - z0) / 2)
        # 2 kappa2 (cosh delta - 1) = -kappa_bar ties the kernel to the chain.
        assert 2 * params.kappa2 * (kernel.c1 - 1) == pytest.approx(
            -params.kappa_bar, rel=1e-14)


class TestIdentities:
    def test_telescoping_identity_full_range(self, rng):
        # rela residuals stay below 1e-11 for k in [-5, 120].
        for _ in range(20):
            p = random_params(rng)
            assert rela_residual(p, range(-5, 121)) < 1e-11

    def test_kn_product_small_indices_double(self, params):
        kernel = kernel_for(params)
        for n, m in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            assert _kn_product_residual(kernel, n, m) < 1e-9

    def test_kn_product_mpmath_full_range(self):
        with mp.workdps(400):
            _, _, kernel = _mp_setup()
            for n, m in [(10, 3), (50, 20), (120, 40)]:
                assert _kn_product_residual(kernel, n, m) < mp.mpf("1e-300")

    def test_fg_ab_factorization(self, params, rng):
        kernel = kernel_for(params)
        roots = characteristic_roots(params)
        for rho in (roots.alpha, 1 - roots.beta, 0.3, -0.7):
            for k in range(0, 60):
                assert _fg_ab_residual(kernel, rho, k) < 1e-12

    def test_collapse_identity(self, params):
        kernel = kernel_for(params)
        roots = characteristic_roots(params)
        for n in range(1, 80):
            assert abs(_collapse_residual(kernel, roots.alpha,
                                          roots.beta, n)) < 1e-12


class TestCrissCross:
    def test_constant_value_reference(self, params):
        kernel = kernel_for(params)
        roots = characteristic_roots(params)
        const = crisscross_constant(kernel, roots.alpha, roots.beta)
        direct = crisscross_direct(kernel, roots.alpha, roots.beta, 1)
        assert direct == pytest.approx(const, rel=1e-12)

    def test_double_precision_loses_it_at_large_n(self, params):
        # Documents why the high-precision path exists: in doubles the
        # direct form cancels to zero by n ~ 8.
        kernel = kernel_for(params)
        roots = characteristic_roots(params)
        const = crisscross_constant(kernel, roots.alpha, roots.beta)
        direct = crisscross_direct(kernel, roots.alpha, roots.beta, 20)
        assert abs(direct - const) > 1e-3 * abs(const)
