import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crackqc import bifurcation as bif
from crackqc import effective as eff
from crackqc.bifurcation import (BifurcationCurve, EffectiveEquation,
                                 compare_curves, fold_points, lipschitz_bound,
                                 solve_branches, trace_curve)
from crackqc.effective import ModelKind
from crackqc.material import ForceLaw, force_law

REF_N = 104
REF_M = 100


@pytest.fixture
def exact_eq(params):
    coefs = eff.exact_coefficients(params, REF_N)
    return EffectiveEquation(force_law(params), coefs.kappa, coefs.eta)


def _equation(params, kind, m=REF_M, n=REF_N):
    coefs = eff.coefficients(params, kind, n,
                             None if kind is ModelKind.EXACT else m)
    return EffectiveEquation(force_law(params), coefs.kappa, coefs.eta)


def _reference_trace(eq, s_max, h, sign):
    """Textbook RK4 trace on the oriented unit tangent, call by call.

    The step-by-step form `trace_curve` replaced: `tangent` through
    `EffectiveEquation.slope`, an RK4 step, and a step split by bisection
    at the u = u_cut crossing.  `trace_curve` keeps every float operation
    in the same order, so its samples must equal these bit for bit.
    """
    def tangent(u):
        slope = eq.slope(u)
        r = math.hypot(slope, eq.eta)
        return sign * (-eq.eta) / r, sign * slope / r

    def rk4_step(u, P, h):
        k1u, k1p = tangent(u)
        k2u, k2p = tangent(u + h / 2 * k1u)
        k3u, k3p = tangent(u + h / 2 * k2u)
        k4u, k4p = tangent(u + h * k3u)
        return (u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u),
                P + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))

    def advance(u, P, h):
        c = eq.law.u_cut
        u_new, P_new = rk4_step(u, P, h)
        before, after = u - c, u_new - c
        if before == 0 or after == 0 or (before > 0) == (after > 0):
            return u_new, P_new
        lo, hi = 0.0, h
        width = 1e-15 + 4 * np.finfo(float).eps * h
        while hi - lo > width:
            theta = (lo + hi) / 2
            if (rk4_step(u, P, theta)[0] > c) == (before > 0):
                lo = theta
            else:
                hi = theta
        theta = (lo + hi) / 2
        u_mid, P_mid = rk4_step(u, P, theta)
        return rk4_step(u_mid, P_mid, h - theta)

    u, P = 0.0, 0.0
    rows = [(0.0, u, P, abs(eq.residual(u, P)))]
    for k in range(1, int(round(s_max / h)) + 1):
        u, P = advance(u, P, h)
        rows.append((k * h, u, P, abs(eq.residual(u, P))))
        if u > bif.OVERSHOOT_FACTOR * eq.law.u_cut:
            break
    return np.array(rows)


def _reference_branches(eq, P):
    """Roots of the branch cubic from `np.roots` (companion eigenvalues),
    with the same filters as `solve_branches`."""
    c, kappa, eta = eq.law.u_cut, eq.kappa, eq.eta
    s = eq.law.kappa3 / (c * c)
    roots = []
    for r in np.roots([-s, 2 * s * c, kappa - s * c * c, eta * P]):
        if abs(r.imag) < 1e-9 * max(1.0, abs(r.real)) and r.real <= c + 1e-12:
            roots.append(min(float(r.real), c))
    if kappa != 0 and c - 1e-12 < -eta * P / kappa < np.inf:
        roots.append(max(-eta * P / kappa, c))
    roots.sort()
    deduped = []
    for u in roots:
        if not deduped or abs(u - deduped[-1]) > 1e-9 * max(1.0, abs(u)):
            deduped.append(u)
    return deduped


def _double_root_loads(eq):
    """Loads at which the branch cubic has a double root, wherever it lies
    (fold_points reports only those on (0, u_cut))."""
    c, kappa, k3 = eq.law.u_cut, eq.kappa, eq.law.kappa3
    loads = []
    for u in np.roots([3.0, -4 * c, c * c * (1 - kappa / k3)]):
        if abs(u.imag) < 1e-12:
            u = float(u.real)
            cubic = -(k3 / c ** 2) * u * (u - c) ** 2
            loads.append(-(cubic + kappa * u) / eq.eta)
    return loads


class TestEquation:
    def test_rejects_nonpositive_eta(self, params):
        law = force_law(params)
        with pytest.raises(ValueError):
            EffectiveEquation(law, -4.0, 0.0)
        with pytest.raises(ValueError):
            EffectiveEquation(law, -4.0, -1.0)

    def test_residual_and_slope(self, exact_eq):
        assert exact_eq.residual(0.0, 0.0) == 0.0
        h = 1e-7
        fd = (exact_eq.residual(0.2 + h, 1.0)
              - exact_eq.residual(0.2 - h, 1.0)) / (2 * h)
        assert fd == pytest.approx(exact_eq.slope(0.2), rel=1e-7)


class TestBranches:
    def test_origin_root_at_zero_load(self, exact_eq):
        roots = solve_branches(exact_eq, 0.0)
        assert any(abs(u) < 1e-12 for u in roots)

    def test_roots_satisfy_equation(self, exact_eq):
        for P in (0.5, 2.0, 2.3, 2.6, 3.0):
            for u in solve_branches(exact_eq, P):
                assert abs(exact_eq.residual(u, P)) < 1e-9

    def test_scan_pattern_one_three_one(self, exact_eq):
        # 10^4 loads: one branch below the lower fold load, three between
        # the folds, one above the upper fold load.
        folds = fold_points(exact_eq)
        p_lo, p_hi = sorted(f.P_star for f in folds)
        margin = 3.0 / 10 ** 4
        for p in np.linspace(1e-6, 3.0, 10 ** 4):
            count = len(solve_branches(exact_eq, float(p)))
            if p < p_lo - margin or p > p_hi + margin:
                assert count == 1, p
            elif p_lo + margin < p < p_hi - margin:
                assert count == 3, p
            else:
                assert count in (1, 2, 3), p

    def test_roots_at_fold_loads(self, exact_eq):
        # At a fold load the cubic has a double root, where g' vanishes and
        # a Newton polish step could leave the root (it would, for
        # kappa = 10).  Whether rounding resolves the double root as two
        # roots or none is not checked.
        for eq in (exact_eq, EffectiveEquation(exact_eq.law, 10.0, 1.0)):
            for fold in fold_points(eq):
                for P in (np.nextafter(fold.P_star, -np.inf), fold.P_star,
                          np.nextafter(fold.P_star, np.inf)):
                    for u in solve_branches(eq, float(P)):
                        assert abs(eq.residual(u, float(P))) < 1e-12

    def test_rejects_nonfinite_load(self, exact_eq):
        with pytest.raises(ValueError):
            solve_branches(exact_eq, float("nan"))

    @settings(max_examples=300, deadline=None)
    @example(k3=1.0, ratio=-5e-324, eta=1.0, u_cut=1.0, load=1.0)
    @given(k3=st.floats(1e-2, 1e2),
           ratio=st.floats(-1.0, 1.5),
           eta=st.floats(1e-2, 1e2), u_cut=st.floats(0.05, 5.0),
           load=st.floats(-1.0, 1.0))
    def test_closed_form_roots(self, k3, ratio, eta, u_cut, load):
        # kappa / kappa3 in [-1, 1.5] covers no fold (below -1/3), two
        # folds on (0, u_cut) (up to 0), one, and a double root at u < 0
        # (above 1), and subnormal kappa, where the linear root
        # -eta P / kappa overflows.  Loads are drawn on the fold loads' scale
        # kappa3 u_cut / eta, which also sets the width of the band around
        # a double-root load where the count is decided by rounding.
        eq = EffectiveEquation(ForceLaw(k3, u_cut), ratio * k3, eta)
        unit = k3 * u_cut / eta
        P = load * unit
        roots = solve_branches(eq, P)
        for u in roots:
            # Sum of the term magnitudes of g, at |u| >= u_cut so that a
            # root next to 0 is judged on the scale of the whole cubic.
            size = max(abs(u), u_cut)
            scale = abs(eq.eta * P) + abs(eq.kappa) * size
            if u <= u_cut:
                scale += k3 / u_cut ** 2 * size * (size + u_cut) ** 2
            assert abs(eq.residual(u, P)) <= 1e-9 * scale
        assert all(b - a > 1e-9 * max(1.0, abs(b))
                   for a, b in zip(roots, roots[1:]))
        if all(abs(P - p) > 1e-9 * unit for p in _double_root_loads(eq)):
            assert len(roots) == len(_reference_branches(eq, P))


class TestFolds:
    def test_reference_values(self, exact_eq):
        folds = fold_points(exact_eq)
        assert len(folds) == 2
        assert folds[0].u_star == pytest.approx(0.23536949427100265,
                                                rel=1e-12)
        assert folds[1].u_star == pytest.approx(0.431297172395664, rel=1e-12)
        assert folds[0].P_star == pytest.approx(2.5232420834734177,
                                                rel=1e-12)
        assert folds[1].P_star == pytest.approx(2.1996141140020424,
                                                rel=1e-12)

    def test_exactly_two_folds_per_model(self, params):
        for kind in ModelKind:
            eq = _equation(params, kind)
            folds = fold_points(eq)
            assert len(folds) == 2, kind
            for f in folds:
                assert 0 < f.u_star < params.u_cut
                assert abs(eq.slope(f.u_star)) < 1e-9
                assert abs(eq.residual(f.u_star, f.P_star)) < 1e-12

    def test_no_folds_for_stiff_kappa(self, params):
        # kappa below -kappa3/3 removes the tangency pair entirely.
        eq = EffectiveEquation(force_law(params), -10.0, 1.0)
        assert fold_points(eq) == []


class TestTrace:
    def test_first_integral_at_default_step(self, exact_eq):
        curve = trace_curve(exact_eq, 4.0, 1e-3)
        assert float(curve.samples[:, 3].max()) <= 1e-8

    def test_halving_step_improves_residual(self, exact_eq):
        # 4th-order integrator: halving h shrinks the worst residual by
        # about 16; at least 12 is required.  Coarse steps keep both runs
        # above roundoff.
        coarse = trace_curve(exact_eq, 3.0, 0.05)
        fine = trace_curve(exact_eq, 3.0, 0.025)
        r_coarse = float(coarse.samples[:, 3].max())
        r_fine = float(fine.samples[:, 3].max())
        assert r_coarse / r_fine >= 12

    def test_unit_speed_sampling(self, exact_eq):
        curve = trace_curve(exact_eq, 1.0, 1e-2)
        d = np.diff(curve.samples[:, 1:3], axis=0)
        speeds = np.hypot(d[:, 0], d[:, 1]) / 1e-2
        assert np.max(np.abs(speeds - 1)) < 1e-3

    def test_passes_through_folds(self, exact_eq):
        # Arc length to the first fold exceeds 2.5; the curve must round
        # both folds, so the load direction changes sign twice.
        curve = trace_curve(exact_eq, 4.0, 1e-2)
        dp = np.diff(curve.samples[:, 2])
        flips = np.count_nonzero(np.diff(np.sign(dp[np.abs(dp) > 1e-14])))
        assert flips == 2
        # On the bonded piece the largest load is the upper fold load; the
        # final linear piece climbs past it and is excluded.
        bonded = curve.samples[curve.samples[:, 1] < exact_eq.law.u_cut]
        p_max = float(bonded[:, 2].max())
        folds = fold_points(exact_eq)
        assert p_max == pytest.approx(max(f.P_star for f in folds), abs=1e-3)

    def test_arc_length_column_is_index_times_step(self, exact_eq):
        curve = trace_curve(exact_eq, 4.0, 1e-3)
        s = curve.samples[:, 0]
        assert np.array_equal(s, np.arange(len(s)) * 1e-3)

    def test_kink_split_ends_for_long_steps(self, exact_eq):
        # With eta = 0.1 the single step of length 48 crosses u_cut at
        # s ~ 35, where one ulp exceeds 1e-15: the bisection must still
        # stop.
        eq = EffectiveEquation(exact_eq.law, exact_eq.kappa, 0.1)
        curve = trace_curve(eq, 48.0, 48.0)
        assert curve.samples.shape == (2, 4)
        assert np.all(np.isfinite(curve.samples))
        assert curve.samples[-1, 1] > eq.law.u_cut

    def test_zero_length_gives_single_row(self, exact_eq):
        curve = trace_curve(exact_eq, 0.0)
        assert curve.samples.shape == (1, 4)
        assert np.all(curve.samples[0] == 0.0)

    def test_stops_beyond_broken_bond(self, exact_eq):
        curve = trace_curve(exact_eq, 50.0, 1e-2)
        u = curve.samples[:, 1]
        assert float(u.max()) <= 1.1 * exact_eq.law.u_cut + 1e-2
        assert len(curve.samples) < 50.0 / 1e-2

    def test_reversed_orientation_mirrors_start(self, exact_eq):
        sign = bif.orientation(exact_eq)
        fwd = trace_curve(exact_eq, 0.01, 1e-3, sign=sign)
        rev = trace_curve(exact_eq, 0.01, 1e-3, sign=-sign)
        assert fwd.samples[1, 2] > 0
        assert rev.samples[1, 2] < 0
        # Near the regular start point the two orientations retrace the
        # same curve through the origin.
        assert rev.samples[1, 1] == pytest.approx(-fwd.samples[1, 1],
                                                  abs=1e-8)
        assert rev.samples[1, 2] == pytest.approx(-fwd.samples[1, 2],
                                                  abs=1e-7)

    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    @pytest.mark.parametrize("flip", [1.0, -1.0])
    @pytest.mark.parametrize("kappa", [None, -10.0])
    def test_bit_identical_to_reference(self, exact_eq, kappa, flip, h):
        # kappa = -10 has no folds.  Forward, the curve breaks the bond and
        # one step straddles u_cut; reversed, u < 0 and no step does.
        eq = (exact_eq if kappa is None
              else EffectiveEquation(exact_eq.law, kappa, 1.0))
        sign = flip * bif.orientation(eq)
        curve = trace_curve(eq, 6.0, h, sign=sign)
        assert curve.kink_splits == (1 if flip > 0 else 0)
        reference = _reference_trace(eq, 6.0, h, sign)
        assert curve.samples.tobytes() == reference.tobytes()

    def test_stop_reason_and_kink_splits(self, exact_eq):
        short = trace_curve(exact_eq, 1.0, 1e-2)
        assert (short.stop, short.kink_splits) == ("s_max", 0)
        broken = trace_curve(exact_eq, 50.0, 1e-2)
        assert (broken.stop, broken.kink_splits) == ("broken", 1)
        # The last sample lies past 1.1 u_cut, the one before it does not.
        limit = bif.OVERSHOOT_FACTOR * exact_eq.law.u_cut
        assert broken.samples[-1, 1] > limit >= broken.samples[-2, 1]

    def test_rejects_bad_arguments(self, exact_eq):
        with pytest.raises(ValueError):
            trace_curve(exact_eq, -1.0)
        with pytest.raises(ValueError):
            trace_curve(exact_eq, 1.0, 0.0)


class TestCompare:
    def test_requires_matching_step(self, exact_eq):
        a = trace_curve(exact_eq, 0.1, 1e-2)
        b = trace_curve(exact_eq, 0.1, 5e-3)
        with pytest.raises(ValueError):
            compare_curves(a, b)

    def test_qqc_tracks_exact_far_better_than_qc(self, params, exact_eq):
        s_max, h = 2.0, 1e-3
        base = trace_curve(exact_eq, s_max, h)
        sup_qqc, _ = compare_curves(
            base, trace_curve(_equation(params, ModelKind.QQC), s_max, h))
        sup_qc, _ = compare_curves(
            base, trace_curve(_equation(params, ModelKind.QC), s_max, h))
        assert sup_qqc < 1e-10
        assert sup_qqc * 10 < sup_qc

    @pytest.mark.parametrize("m", [100, 96])
    @pytest.mark.parametrize("kind",
                             [ModelKind.QC, ModelKind.QQC, ModelKind.FQC])
    def test_within_lipschitz_bound(self, params, exact_eq, kind, m):
        s_max, h = 2.0, 1e-3
        other = _equation(params, kind, m=m)
        sup, series = compare_curves(trace_curve(exact_eq, s_max, h),
                                     trace_curve(other, s_max, h))
        bound, derivation = lipschitz_bound(exact_eq, other, s_max)
        assert sup <= bound
        assert "exp" in derivation and "eta_min" in derivation
        assert series.shape[1] == 2

    def test_bound_is_zero_for_identical_equations(self, exact_eq):
        # exp(L s_max) overflows here; equal coefficients still bound 0.
        bound, _ = lipschitz_bound(exact_eq, exact_eq, 50.0)
        assert bound == 0.0

    def test_bound_rejects_negative_length(self, exact_eq):
        with pytest.raises(ValueError):
            lipschitz_bound(exact_eq, exact_eq, -1.0)
