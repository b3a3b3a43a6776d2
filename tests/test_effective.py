import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crackqc import effective as eff
from crackqc import lattice as lat
from crackqc.effective import ModelKind
from crackqc.kernels import HyperbolicKernel
from crackqc.material import (MIN_INTERFACE, ParameterError,
                              characteristic_roots, validate)

import make_golden
from conftest import random_params

REF_N = 104
REF_M = 100


def _expansions_of(model):
    """`expansions` for `model` in the (params, m, n) order of the
    approximations' coefficient functions."""
    def call(params, m, n):
        return eff.expansions(params, model, n, m)
    call.__name__ = f"{model.value}_expansions"
    return call


class TestExact:
    def test_reference_values(self, params):
        coefs = eff.exact_coefficients(params, REF_N)
        assert coefs.kappa == pytest.approx(-4.363407363347422, abs=1e-11)
        assert coefs.eta == pytest.approx(0.929611137865919, abs=1e-12)

    def test_matches_oracle(self, params):
        cfg = lat.chain_config(params, ModelKind.EXACT, REF_N)
        orc = lat.oracle_coefficients(cfg)
        coefs = eff.exact_coefficients(params, REF_N)
        assert coefs.kappa == pytest.approx(orc.kappa, rel=1e-10)
        assert coefs.eta == pytest.approx(orc.eta, rel=1e-10)

    def test_limits(self, params):
        kappa0, eta0 = eff.exact_limits(params)
        big = eff.exact_coefficients(params, 400)
        assert big.kappa == pytest.approx(kappa0, abs=1e-13)
        assert big.eta == pytest.approx(eta0, abs=1e-13)

    def test_signs(self, rng):
        for _ in range(100):
            p = random_params(rng)
            coefs = eff.exact_coefficients(p, int(rng.integers(5, 60)))
            assert coefs.kappa < 0
            assert coefs.eta > 0


class TestQC:
    def test_primary_matches_oracle(self, params):
        # m = n - 1 puts the last interface row on the crack tip.
        for m in (REF_M, REF_N - 1):
            cfg = lat.chain_config(params, ModelKind.QC, REF_N, m)
            orc = lat.oracle_coefficients(cfg)
            coefs = eff.qc_coefficients(params, m, REF_N)
            assert coefs.kappa == pytest.approx(orc.kappa, rel=1e-12), m
            assert coefs.eta == pytest.approx(orc.eta, rel=1e-12), m

    def test_interface_matrix_forms_agree(self, params, rng):
        # The two evaluations of the interface-matrix closed form
        # agree to 1e-10 across random configurations.
        for _ in range(100):
            p = random_params(rng)
            m = int(rng.integers(3, 20))
            n = m + int(rng.integers(2, 10))
            coefs, eta_alt = eff.qc_coefficients_qmatrix(p, m, n)
            assert coefs.eta == pytest.approx(eta_alt, rel=1e-10)

    def test_interface_matrix_carries_finite_eta_gap(self, params):
        # The interface-matrix elimination drops a next-nearest interface
        # term and its eta converges to a limit away from eta0: the
        # ghost-force signature this model family is known for.
        _, eta0 = eff.exact_limits(params)
        eta0_qc, gap = eff.qc_limit(params)
        assert eta0_qc == pytest.approx(1.6948085235358459, rel=1e-12)
        assert gap == pytest.approx(-0.7651973856697533, rel=1e-12)
        coefs, _ = eff.qc_coefficients_qmatrix(params, 200, 260)
        assert coefs.eta == pytest.approx(eta0_qc, abs=1e-12)
        assert abs(coefs.eta - eta0) > 0.9 * abs(gap)

    def test_ghost_force_dipole_at_interface(self, params):
        # Uniform strain leaves the (kappa2, -2 kappa2, kappa2) residual
        # dipole on the three interface rows; all other rows are clean.
        m, n = 10, 16
        cfg = lat.chain_config(params, ModelKind.QC, n, m, 60)
        a_mat, _ = lat.linear_system(cfg)
        strain = np.arange(cfg.j_max + 1, dtype=float)
        resid = lat.band_matvec(a_mat, strain)
        k2 = params.kappa2
        assert resid[m - 1] == pytest.approx(k2, rel=1e-12)
        assert resid[m] == pytest.approx(-2 * k2, rel=1e-12)
        assert resid[m + 1] == pytest.approx(k2, rel=1e-12)
        interior = [j for j in range(2, n) if abs(j - m) > 1]
        assert max(abs(resid[j]) for j in interior) < 1e-12

    @staticmethod
    def _qc_limit_tanh(p):
        """Misreading: eta0_qc through tanh[delta/2], with tanh evaluated
        as sinh delta / (cosh delta + 1)."""
        k2, kbar = p.kappa2, p.kappa_bar
        ker = HyperbolicKernel(characteristic_roots(p).z0)
        _, eta0 = eff.exact_limits(p)
        gamma = kbar / (kbar + k2 / 2)
        t = ker.s1 / (ker.c1 + 1)
        return eta0 * (4 + 3 * gamma * (t - 1)) / \
            (2 - gamma + (gamma + 2 - 4 * k2 / kbar) * t)

    def test_tanh_form_is_inconsistent(self, params):
        # The compact tanh rewrite of the QC eta limit does not equal the
        # ratio form the closed-form coefficients actually converge to.
        ratio, _ = eff.qc_limit(params)
        tanh = self._qc_limit_tanh(params)
        assert abs(ratio - tanh) > 0.5


class TestQQC:
    def test_reference_values(self, params):
        coefs = eff.qqc_coefficients(params, REF_M, REF_N)
        assert coefs.kappa == pytest.approx(-4.363407363353104, abs=1e-11)
        assert coefs.eta == pytest.approx(0.929611137867217, abs=1e-12)

    def test_matches_oracle(self, params):
        cfg = lat.chain_config(params, ModelKind.QQC, REF_N, REF_M)
        orc = lat.oracle_coefficients(cfg)
        coefs = eff.qqc_coefficients(params, REF_M, REF_N)
        assert coefs.kappa == pytest.approx(orc.kappa, rel=1e-12)
        assert coefs.eta == pytest.approx(orc.eta, rel=1e-12)


class TestFQC:
    def test_reference_values(self, params):
        coefs = eff.fqc_coefficients(params, REF_M, REF_N)
        assert coefs.kappa == pytest.approx(-4.363622416215735, abs=1e-11)
        assert coefs.eta == pytest.approx(0.929653755904774, abs=1e-12)

    def test_matches_oracle(self, params):
        cfg = lat.chain_config(params, ModelKind.FQC, REF_N, REF_M)
        orc = lat.oracle_coefficients(cfg)
        coefs = eff.fqc_coefficients(params, REF_M, REF_N)
        assert coefs.kappa == pytest.approx(orc.kappa, rel=1e-12)
        assert coefs.eta == pytest.approx(orc.eta, rel=1e-12)

    @staticmethod
    def _literal_etas(p, m, n):
        """Two misreadings of eta_fqc: the long form's second denominator
        read as the product G_{n-m,alpha} (1 + alpha) sinh delta (a sign
        slip), and the compact form with a spurious sinh delta factor."""
        roots = characteristic_roots(p)
        ker = HyperbolicKernel(roots.z0)
        alpha, beta = roots.alpha, roots.beta
        k2, kbar = p.kappa2, p.kappa_bar
        k = n - m
        zk, s1 = ker.pow(k), ker.s1
        _, ga = ker.fg_scaled(k, alpha)
        _, gb = ker.fg_scaled(k, 1 - beta)
        dhat = ga - (1 + alpha) * s1 * zk
        boost = 1 + (1 + alpha) * s1 * zk / dhat
        sign = ((1 + (beta - 2) * k2 / kbar) * boost
                + (k2 / kbar) * gb / (ga * s1))
        compact = (1 - (alpha + beta - 1) * s1 * ker.shat(k) / dhat
                   + (1 + alpha) * s1 * zk / dhat)
        return sign, compact

    def test_literal_variants_do_not_match(self, params):
        # A sign slip in the denominator and a spurious sinh factor in the
        # compact numerator: neither variant matches the primary form,
        # which matches the oracle.
        good = eff.fqc_coefficients(params, REF_M, REF_N)
        sign, compact = self._literal_etas(params, REF_M, REF_N)
        assert abs(sign - good.eta) > 1e-2
        assert abs(compact - good.eta) > 1e-2


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(log_k1=st.floats(-1, 2),
           ratio=st.one_of(
               st.floats(-3, math.log10(0.2)).map(lambda x: -10 ** x),
               st.floats(-8, math.log10(300)).map(lambda x: 10 ** x)),
           log_k3=st.floats(-4, 3), n=st.integers(6, 900),
           gap=st.integers(2, 12))
    # The exact chain's shortest crack, n = 1, at the reference set.
    @example(log_k1=math.log10(4), ratio=0.1, log_k3=math.log10(20), n=1,
             gap=2)
    def test_wide_box(self, log_k1, ratio, log_k3, n, gap):
        # The same 1e-8 gate past the random_params box: kappa1 in
        # [0.1, 100], kappa2/kappa1 in [-0.2, -1e-3] or [1e-8, 300] and
        # kappa3 in [1e-4, 1e3], all log-uniform, with n up to 900.  Closer
        # to kappa_bar = 0 the gate breaks (ROADMAP item 6).
        k1 = 10 ** log_k1
        try:
            p = validate(k1, ratio * k1, 10 ** log_k3, 0.5)
            characteristic_roots(p)
        except ParameterError:
            assume(False)
        for kind in ModelKind:
            m = None if kind is ModelKind.EXACT else n - gap
            if m is not None and m < MIN_INTERFACE[kind]:
                continue
            orc = lat.oracle_coefficients(lat.chain_config(p, kind, n, m))
            form = eff.coefficients(p, kind, n, m)
            assert form.kappa == pytest.approx(orc.kappa, rel=1e-8), kind
            assert form.eta == pytest.approx(orc.eta, rel=1e-8), kind


class TestOrderingAndLimits:
    def test_eta_error_ordering(self, params):
        # |eta_qqc - eta0| < |eta_fqc - eta0| < |eta_qc - eta0| with the
        # interface-matrix QC variant, whose finite gap dominates both
        # decaying errors.
        _, eta0 = eff.exact_limits(params)
        for m, n in [(100, 104), (96, 104), (20, 26)]:
            e_qqc = abs(eff.qqc_coefficients(params, m, n).eta - eta0)
            e_fqc = abs(eff.fqc_coefficients(params, m, n).eta - eta0)
            e_qc = abs(eff.qc_coefficients_qmatrix(params, m, n)[0].eta
                       - eta0)
            assert e_qqc < e_fqc < e_qc

    def test_only_interface_matrix_eta_has_distinct_limit(self, params):
        lim = eff.limits(params)
        n, m = 300, 240
        for kind in (ModelKind.QQC, ModelKind.FQC, ModelKind.QC):
            coefs = eff.coefficients(params, kind, n, m)
            assert coefs.kappa == pytest.approx(lim.kappa0, abs=1e-12)
            assert coefs.eta == pytest.approx(lim.eta0, abs=1e-12)
        qm, _ = eff.qc_coefficients_qmatrix(params, m, n)
        assert qm.eta == pytest.approx(lim.eta0_qc, abs=1e-12)
        assert abs(qm.eta - lim.eta0) > 0.7


class TestExpansions:
    """Leading error terms, cross-checked in high precision.

    Each record's coefficient and exponent must reproduce the measured
    error (coefficient * z0^(a n + b m) * n^const pattern) within 2 percent
    once the index shift is large enough for the next order to be
    negligible.
    """

    @staticmethod
    def _mp_params():
        return validate(mp.mpf(4), mp.mpf("0.4"), mp.mpf(20), mp.mpf("0.5"))

    @staticmethod
    def _power(record, n, m):
        """z0 exponent a n + b m + c encoded by the record."""
        return (record.exponent[0] * n + record.exponent[1] * (m or 0)
                + record.exponent[2])

    def test_exact_leading_terms(self):
        with mp.workdps(60):
            pm = self._mp_params()
            kappa0, eta0 = eff.exact_limits(pm)
            z0 = characteristic_roots(pm).z0
            records = {r.quantity: r for r in eff.expansions(
                pm, ModelKind.EXACT, 10)}
            n = 20
            err_k = eff.exact_coefficients(pm, n).kappa - kappa0
            rk = records["kappa"]
            assert rk.exponent == (2, 0, 0)
            assert float(err_k / z0 ** (2 * n)) == pytest.approx(
                float(rk.leading_coefficient), rel=2e-2)
            err_e = eff.exact_coefficients(pm, n).eta - eta0
            re = records["eta"]
            assert re.exponent == (1, 0, 0)
            assert float(err_e / z0 ** n) == pytest.approx(
                float(re.leading_coefficient), rel=2e-2)

    def test_qqc_leading_terms(self):
        with mp.workdps(60):
            pm = self._mp_params()
            kappa0, eta0 = eff.exact_limits(pm)
            z0 = characteristic_roots(pm).z0
            records = {r.quantity: r
                       for r in eff.expansions(pm, ModelKind.QQC, 14, 10)}
            m, n = 10, 20
            coefs = eff.qqc_coefficients(pm, m, n)
            rk = records["kappa"]
            assert rk.exponent == (2, -2, 2)
            measured = (coefs.kappa - kappa0) / z0 ** self._power(rk, n, m)
            assert float(measured) == pytest.approx(
                float(rk.leading_coefficient), rel=2e-2)
            re = records["eta"]
            assert re.exponent == (2, -2, 2)
            measured = (coefs.eta - eta0) / z0 ** self._power(re, n, m)
            assert float(measured) == pytest.approx(
                float(re.leading_coefficient), rel=2e-2)

    def test_fqc_leading_terms(self):
        with mp.workdps(60):
            pm = self._mp_params()
            kappa0, eta0 = eff.exact_limits(pm)
            z0 = characteristic_roots(pm).z0
            records = {r.quantity: r
                       for r in eff.expansions(pm, ModelKind.FQC, 14, 10)}
            m, n = 20, 30
            coefs = eff.fqc_coefficients(pm, m, n)
            rk = records["kappa"]
            assert rk.exponent == (1, -1, 0)
            measured = (coefs.kappa - kappa0) / z0 ** (n - m)
            assert float(measured) == pytest.approx(
                float(rk.leading_coefficient), rel=2e-2)
            re = records["eta"]
            assert re.exponent == (1, -1, 0)
            measured = (coefs.eta - eta0) / z0 ** (n - m)
            assert float(measured) == pytest.approx(
                float(re.leading_coefficient), rel=2e-2)

    def test_reference_coefficient_values(self, params):
        vals = {(r.model, r.quantity): r.leading_coefficient
                for kind in (ModelKind.EXACT, ModelKind.QQC, ModelKind.FQC)
                for r in eff.expansions(params, kind, 10,
                                        None if kind is ModelKind.EXACT
                                        else 8)}
        expect = {
            (ModelKind.EXACT, "kappa"): 0.3282917237,
            (ModelKind.EXACT, "eta"): 0.1407777243,
            (ModelKind.QQC, "kappa"): -0.3282917237,
            (ModelKind.QQC, "eta"): 0.06505911541,
            (ModelKind.FQC, "kappa"): -4.335680868,
            (ModelKind.FQC, "eta"): 0.8592222757,
        }
        for key, value in expect.items():
            assert vals[key] == pytest.approx(value, rel=1e-9), key

    def test_qc_has_no_expansion(self, params):
        with pytest.raises(ValueError):
            eff.expansions(params, ModelKind.QC, 10, 8)

    @pytest.mark.parametrize("kind,n,m", [
        (ModelKind.QQC, 5, 0), (ModelKind.FQC, 5, 9),
        (ModelKind.EXACT, -3, None), (ModelKind.QQC, 6, 6),
        (ModelKind.FQC, 6, None)])
    def test_invalid_indices_raise_like_coefficients(self, params, kind, n, m):
        # The records depend on neither n nor m, but an (n, m) that
        # `coefficients` refuses is refused here too.
        with pytest.raises(ValueError) as refused:
            eff.coefficients(params, kind, n, m)
        with pytest.raises(ValueError) as expanded:
            eff.expansions(params, kind, n, m)
        assert str(expanded.value) == str(refused.value)

    def test_error_within_factor_of_leading_term(self, params):
        # Measured |kappa - kappa0| agrees with the leading term within a
        # factor 1.5 already at moderate index shifts.
        z0 = characteristic_roots(params).z0
        kappa0, eta0 = eff.exact_limits(params)
        for kind, m, n in [(ModelKind.QQC, 20, 24), (ModelKind.FQC, 20, 24),
                           (ModelKind.EXACT, None, 4)]:
            coefs = eff.coefficients(params, kind, n, m)
            for r in eff.expansions(params, kind, n, m):
                ref = kappa0 if r.quantity == "kappa" else eta0
                lead = r.leading_coefficient * z0 ** self._power(r, n, m)
                measured = getattr(coefs, r.quantity) - ref
                assert 1 / 1.5 < measured / lead < 1.5, (kind, r.quantity)


class TestContextMemo:
    """The closed forms keep the last parameter set's context and its memo
    of formula results by (formula, index).  A reused context must give
    exactly what a fresh one gives, whatever came before: another set,
    another number type, the same mpf values at another working precision,
    or other indices in any order."""

    @staticmethod
    def _all_models(p, n):
        return [eff.coefficients(p, kind, n,
                                 None if kind is ModelKind.EXACT else n - 4)
                for kind in ModelKind]

    def _cold(self, monkeypatch, p, n):
        monkeypatch.setattr(eff, "_memo", None)
        return self._all_models(p, n)

    def test_same_mpf_params_at_a_new_precision(self, monkeypatch):
        pm = validate(mp.mpf(4), mp.mpf("0.4"), mp.mpf(20), mp.mpf("0.5"))
        with mp.workdps(20):
            low = self._all_models(pm, 30)
        with mp.workdps(60):
            high = self._all_models(pm, 30)
            fresh = self._cold(monkeypatch, pm, 30)
        assert high == fresh
        assert all(h.kappa != lo.kappa for h, lo in zip(high, low))

    def test_float_params_after_equal_valued_params(self, monkeypatch):
        # Equal values and equal hashes, so a key of the params alone
        # would hand the float set the other set's context.
        values = (4, "0.5", 20, "0.5")
        pf = validate(*map(float, values))
        cold = self._cold(monkeypatch, pf, 30)
        for num in (mp.mpf, np.float64):
            prior = validate(*(num(v) for v in values))
            assert prior == pf and hash(prior) == hash(pf)
            self._cold(monkeypatch, prior, 30)
            for w, c in zip(self._all_models(pf, 30), cold):
                assert type(w.kappa) is float and type(w.eta) is float
                assert ((w.kappa.hex(), w.eta.hex())
                        == (c.kappa.hex(), c.eta.hex()))

    def test_interleaved_sets_match_cold(self, rng, monkeypatch):
        sets = [random_params(rng) for _ in range(20)]
        window = range(40, 48)

        def bits(p, n, cold=False):
            coefs = (self._cold(monkeypatch, p, n) if cold
                     else self._all_models(p, n))
            return [(c.kappa.hex(), c.eta.hex()) for c in coefs]

        ref = {(i, n): bits(p, n, cold=True)
               for i, p in enumerate(sets) for n in window}
        for a in range(len(sets)):
            b = (a + 1) % len(sets)
            for i in (a, b, a):
                for n in window:
                    assert bits(sets[i], n) == ref[i, n], (i, n)

    @staticmethod
    def _sweeps_match_cold(p, nms, monkeypatch):
        """Outputs over `nms` in order equal those from an empty memo."""
        def bits(nm):
            return [x.hex() if isinstance(x, float) else x._mpf_
                    for x in make_golden.closed_form_outputs(p, *nm)]

        ref = {}
        for nm in nms:
            monkeypatch.setattr(eff, "_memo", None)
            ref[nm] = bits(nm)
        for nm in nms:
            assert bits(nm) == ref[nm], nm
        return ref

    def test_index_orders_match_cold(self, rng, monkeypatch):
        # A window at a fixed gap, a growing crack at fixed m, and the
        # window reversed and shuffled.
        window = [(n, n - 6) for n in range(40, 72)]
        growing = [(n, 30) for n in range(34, 66)]
        shuffled = [window[i] for i in rng.permutation(len(window))]
        for p in [random_params(rng) for _ in range(3)]:
            for nms in (window, growing, window[::-1], shuffled):
                self._sweeps_match_cold(p, nms, monkeypatch)

    def test_mpf_precision_round_trip_matches_cold(self, monkeypatch):
        pm = validate(mp.mpf(4), mp.mpf("0.4"), mp.mpf(20), mp.mpf("0.5"))
        window = [(n, n - 5) for n in range(30, 38)]
        runs = []
        for dps in (30, 50, 30):
            with mp.workdps(dps):
                runs.append(self._sweeps_match_cold(pm, window, monkeypatch))
        assert runs[0] == runs[2]
        assert all(runs[0][nm][0] != runs[1][nm][0] for nm in window)

    def test_index_tables_stay_bounded(self, params):
        # A growing crack from n = 20 to 20,000 at one set adds two new
        # indices at every step; the memo clears at its bound.
        largest = 0
        for n in range(20, 20_001):
            eff.exact_coefficients(params, n)
            eff.fqc_coefficients(params, 10, n)
            largest = max(largest, len(eff._context(params).memo))
        assert largest == eff.INDEX_MEMO_SIZE

    @pytest.mark.parametrize("call,bad", [
        (lambda p, m, n: eff.exact_coefficients(p, n), (None, 0)),
        (lambda p, m, n: eff.expansions(p, ModelKind.EXACT, n), (None, -3)),
        (eff.qc_coefficients, (2, 5)),
        (eff.qqc_coefficients, (1, 4)),
        (eff.fqc_coefficients, (0, 3)),
        (eff.qc_coefficients_qmatrix, (2, 5)),
        (_expansions_of(ModelKind.QQC), (0, 5)),
        (_expansions_of(ModelKind.FQC), (9, 5))])
    def test_cached_index_does_not_skip_validation(self, params, call, bad):
        # (m, n) = (47, 50) gives QC and FQC the index 3 of (2, 5) and
        # (0, 3), and QQC the index 4 of (1, 4).  Each expansion keeps one
        # entry for every (m, n); the exact model's index is n itself.
        with pytest.raises(ValueError):
            call(params, *bad)
        call(params, 47, 50)
        with pytest.raises(ValueError):
            call(params, *bad)

    @staticmethod
    def _counting(monkeypatch, names):
        calls = dict.fromkeys(names, 0)

        def wrap(name, formula):
            def counted(ctx, index):
                calls[name] += 1
                return formula(ctx, index)
            return counted

        for name in names:
            monkeypatch.setattr(eff, name, wrap(name, getattr(eff, name)))
        # `expansions` reaches its formulas through a table.
        monkeypatch.setattr(eff, "_EXPANSIONS", {
            model: getattr(eff, formula.__name__)
            for model, formula in eff._EXPANSIONS.items()})
        return calls

    def test_raising_formula_stores_nothing(self, params, monkeypatch):
        calls = self._counting(monkeypatch, ["_exact"])
        monkeypatch.setattr(eff, "_memo", None)
        monkeypatch.setattr(eff, "CROSS_CHECK_TOL", -1.0)
        for _ in range(2):
            with pytest.raises(ArithmeticError):
                eff.exact_coefficients(params, 30)
        monkeypatch.setattr(eff, "CROSS_CHECK_TOL", 1e-10)
        eff.exact_coefficients(params, 30)
        eff.exact_coefficients(params, 30)
        assert calls["_exact"] == 3

    def test_qc_pole_raises_on_every_call(self):
        p = validate(*TestQCGammaPole.POLE)
        for _ in range(2):
            for call in (eff.qc_matrix, eff.qc_limit,
                         lambda q: eff.qc_coefficients(q, 45, 50),
                         lambda q: eff.qc_coefficients_qmatrix(q, 45, 50)):
                with pytest.raises(ValueError, match="QC is undefined"):
                    call(p)

    def test_fixed_gap_window_evaluates_each_formula_once(
            self, params, monkeypatch):
        names = ["_exact", "_qc", "_qqc", "_fqc", "_exact_expansions",
                 "_qqc_expansions", "_fqc_expansions"]
        calls = self._counting(monkeypatch, names)
        # The exact model's index-free terms are set once per context.
        exact_terms, terms_calls = eff._exact_terms, []
        monkeypatch.setattr(eff, "_exact_terms", lambda ctx: (
            terms_calls.append(ctx), exact_terms(ctx))[1])
        monkeypatch.setattr(eff, "_memo", None)
        for n in range(40, 72):
            for kind in ModelKind:
                eff.coefficients(params, kind, n, n - 6)
            for kind in (ModelKind.EXACT, ModelKind.QQC, ModelKind.FQC):
                eff.expansions(params, kind, n, n - 6)
        assert calls == dict.fromkeys(names, 1) | {"_exact": 32}
        assert len(terms_calls) == 1


class TestQCGammaPole:
    """kappa1 + 4.5 kappa2 = 0 is admissible, and only QC's gamma has a
    pole there."""

    POLE = (4.5, -1.0, 0.01, 0.5)

    def test_qc_raises_named_error_and_others_stay_finite(self):
        p = validate(*self.POLE)
        assert p.kappa_bar + p.kappa2 / 2 == 0

        def finite_outputs():
            out = list(eff.exact_limits(p))
            for kind, m in ((ModelKind.EXACT, None), (ModelKind.QQC, 45),
                            (ModelKind.FQC, 45)):
                c = eff.coefficients(p, kind, 50, m)
                out += [c.kappa, c.eta]
                out += [r.leading_coefficient
                        for r in eff.expansions(p, kind, 50, m)]
            assert all(map(math.isfinite, out))
            return out

        before = finite_outputs()
        for call in (eff.qc_gamma, eff.limits, eff.qc_limit,
                     lambda q: eff.qc_coefficients(q, 45, 50),
                     lambda q: eff.qc_coefficients_qmatrix(q, 45, 50)):
            with pytest.raises(ValueError,
                               match=r"kappa1 \+ 4\.5\*kappa2 = 0"):
                call(p)
        assert finite_outputs() == before


GOLDEN = Path(__file__).resolve().parent / "data" / "closed_form_golden.json"


def test_golden_outputs_bit_for_bit():
    """tests/make_golden.py wrote these outputs from a trusted tree; a
    refactor of the closed forms that moves no bit reproduces them all."""
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [tuple(nm) for nm in data["indices"]] == list(make_golden.INDICES)
    assert len(data["sets"]) == make_golden.N_SETS
    for entry in data["sets"]:
        p = validate(*map(float.fromhex, entry["params"]))
        got = [x.hex() for x in make_golden.set_outputs(p)]
        assert got == entry["outputs"], entry["params"]
