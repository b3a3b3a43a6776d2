import math

import mpmath as mp
import numpy as np
import pytest

from crackqc.material import (ForceLaw, ParameterError, alpha_beta_residuals,
                              bonded_region_roots, characteristic_roots,
                              crack_region_root, force_law, validate)

from conftest import random_params


def _force_second_derivative(law: ForceLaw, u):
    if u > law.u_cut:
        return 0.0 * u
    c = law.u_cut
    return -(law.kappa3 / c ** 2) * (6 * u - 4 * c)


class TestValidate:
    def test_reference_derived_constants(self, params):
        assert params.kappa_bar == pytest.approx(5.6)
        assert params.delta_disc == pytest.approx(95.36)

    @pytest.mark.parametrize("args,code", [
        ((-1.0, 0.4, 20.0, 0.5), "kappa1"),
        ((0.0, 0.4, 20.0, 0.5), "kappa1"),
        ((4.0, -1.1, 20.0, 0.5), "kappa_bar"),
        ((4.0, 0.4, -2.0, 0.5), "kappa3"),
        ((4.0, 0.4, 0.0, 0.5), "kappa3"),
        ((4.0, 0.4, 20.0, 0.0), "u_cut"),
        ((4.0, 0.4, 20.0, -0.5), "u_cut"),
        ((4.0, -0.5, 20.0, 0.5), "delta"),
        ((math.nan, 0.4, 20.0, 0.5), "not_finite"),
        ((4.0, math.inf, 20.0, 0.5), "not_finite"),
    ])
    def test_rejections_carry_codes(self, args, code):
        with pytest.raises(ParameterError) as excinfo:
            validate(*args)
        assert excinfo.value.code == code

    def test_negative_kappa2_admissible_when_delta_positive(self):
        # kappa_bar > 0 and delta_disc > 0 can hold with kappa2 < 0.
        p = validate(4.0, -0.1, 1.0, 0.5)
        assert p.delta_disc > 0


class TestForceLaw:
    def test_force_at_landmarks(self, params):
        law = force_law(params)
        c = params.u_cut
        assert law.force(0.0) == 0.0
        assert law.force(c) == 0.0
        assert law.force(2 * c) == 0.0
        # F'(0) = -kappa3 by construction.
        assert law.force_derivative(0.0) == pytest.approx(-params.kappa3)
        assert law.force_derivative(1.5 * c) == 0.0

    def test_gamma0_value(self, params):
        law = force_law(params)
        assert law.gamma0 == pytest.approx(params.kappa3 * params.u_cut ** 2
                                           / 12)
        assert law.surface_energy(params.u_cut) == pytest.approx(law.gamma0)
        assert law.surface_energy(10.0) == pytest.approx(law.gamma0)

    def test_energy_is_integral_of_force(self, params, rng):
        law = force_law(params)
        for u in rng.uniform(-0.2, 0.7, size=30):
            h = 1e-6
            fd = (law.surface_energy(u + h) - law.surface_energy(u - h)) / (2 * h)
            assert fd == pytest.approx(-law.force(u), abs=1e-8)

    def test_derivatives_consistent(self, params, rng):
        law = force_law(params)
        for u in rng.uniform(-0.2, 0.45, size=20):
            h = 1e-6
            fd = (law.force(u + h) - law.force(u - h)) / (2 * h)
            assert fd == pytest.approx(law.force_derivative(u), rel=1e-7)
            fd2 = (law.force_derivative(u + h)
                   - law.force_derivative(u - h)) / (2 * h)
            assert fd2 == pytest.approx(_force_second_derivative(law, u),
                                        rel=1e-6)

    def test_smooth_extension_below_zero(self, params):
        law = force_law(params)
        assert law.force(-0.1) > 0
        assert law.surface_energy(-0.1) > 0


class TestCharacteristicRoots:
    def test_reference_values(self, params):
        roots = characteristic_roots(params)
        assert roots.z0 == pytest.approx(-0.08392021690038397, rel=1e-14)
        assert roots.alpha == pytest.approx(0.008254056983444988, rel=1e-12)
        assert roots.beta == pytest.approx(0.08322753464802402, rel=1e-12)

    def test_z0_solves_quadratic(self, rng):
        for _ in range(50):
            p = random_params(rng)
            z0 = crack_region_root(p)
            resid = (p.kappa2 * z0 * z0 + (p.kappa1 + 2 * p.kappa2) * z0
                     + p.kappa2)
            assert abs(z0) < 1
            assert abs(resid) < 1e-12 * (p.kappa1 + 2 * abs(p.kappa2))

    def test_bonded_roots_solve_quartic(self, rng):
        for _ in range(50):
            p = random_params(rng)
            for z in bonded_region_roots(p):
                resid = (p.kappa2 * z ** 4 + p.kappa1 * z ** 3
                         - 2 * (p.kappa1 + p.kappa2 + p.kappa3) * z * z
                         + p.kappa1 * z + p.kappa2)
                assert abs(z) <= 1
                assert abs(resid) < 1e-11 * 2 * (p.kappa1 + p.kappa2
                                                 + p.kappa3)

    def test_alpha_beta_relations_random(self, rng):
        # Both factorization relations hold to 1e-11 for 1000 random sets.
        worst = 0.0
        for _ in range(1000):
            p = random_params(rng)
            r1, r2 = alpha_beta_residuals(p, characteristic_roots(p))
            worst = max(worst, abs(r1), abs(r2))
        assert worst < 1e-11

    def test_kappa2_zero_raises(self):
        # Only the crack-region root needs kappa2 != 0; the bonded roots
        # exist, so the chain closes with them for every kappa2.
        p = validate(4.0, 0.0, 20.0, 0.5)
        with pytest.raises(ParameterError):
            crack_region_root(p)
        with pytest.raises(ParameterError):
            characteristic_roots(p)
        assert bonded_region_roots(p)[0] == 0

    @pytest.mark.parametrize("k1,k3", [(4.0, 20.0), (0.3, 1e-4),
                                       (100.0, 1e3), (2.0, 0.7)])
    def test_kappa2_zero_bonded_roots(self, k1, k3):
        # At kappa2 = 0 the quartic is z (k1 z^2 - 2 (k1 + k3) z + k1):
        # z1 = 0 and z2 is the quadratic's decaying root, continuous with
        # the roots at kappa2 = +-1e-12.
        z1, z2 = bonded_region_roots(validate(k1, 0.0, k3, 0.5))
        b = k1 + k3
        zeta = k1 / (b + math.sqrt((b - k1) * (b + k1)))
        assert z1 == 0
        assert z2 == pytest.approx(zeta, rel=1e-14)
        for k2 in (1e-12, -1e-12):
            near = bonded_region_roots(validate(k1, k2, k3, 0.5))
            assert near[0] == pytest.approx(z1, abs=1e-9)
            assert near[1] == pytest.approx(z2, abs=1e-9)

    def test_agrees_with_mpmath(self, params):
        with mp.workdps(60):
            pm = validate(mp.mpf(4), mp.mpf("0.4"), mp.mpf(20), mp.mpf("0.5"))
            rm = characteristic_roots(pm)
            rd = characteristic_roots(params)
            assert abs(rd.z0 - float(rm.z0)) < 1e-15
            assert abs(rd.alpha - float(rm.alpha)) < 1e-15
            assert abs(rd.beta - float(rm.beta)) < 1e-15
