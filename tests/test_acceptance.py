"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the live terminal before asserting,
so the overall verdict per criterion is visible even when a criterion
fails.  Criterion 1 (reference-table reproduction) is known not to hold at
the stated parameter set; it is implemented faithfully and fails honestly.
"""

import time

import numpy as np

from crackqc import bifurcation as bif
from crackqc import checks
from crackqc import effective as eff
from crackqc import lattice as lat
from crackqc.checks import REFERENCE_TABLES, table_coefficients
from crackqc.effective import ModelKind
from crackqc.material import force_law

from conftest import random_params

N_REF = 104


def _report(capsys, num, title, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\ncriterion {num} [{title}]: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_1_table_reproduction(params, capsys):
    start = time.perf_counter()
    pairs = table_coefficients(params)
    elapsed = time.perf_counter() - start
    worst = max(max(abs(pairs[key].kappa - ref[0]),
                    abs(pairs[key].eta - ref[1]))
                for key, ref in REFERENCE_TABLES.items())
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(capsys, 1, "table reproduction", ok,
            f"max |error| = {worst:.3e}, runtime {elapsed:.3f} s")
    assert ok, (
        f"embedded reference values missed by up to {worst:.3e}; "
        "the tables are not reproducible from the stated parameter set")


def test_criterion_2_oracle_equivalence(params, rng, capsys):
    # The eight table configurations, using each model's primary
    # (oracle-consistent) coefficient formula, compared absolutely.
    worst = max(
        checks.oracle_gap(params, kind, N_REF,
                          None if kind is ModelKind.EXACT else m,
                          relative=False)
        for m in (100, 96) for kind in ModelKind)
    # 50 random configurations per model, compared relatively.
    for _ in range(50):
        p = random_params(rng)
        m = int(rng.integers(4, 13))
        n = m + int(rng.integers(2, 9))
        for kind in ModelKind:
            worst = max(worst, checks.oracle_gap(
                p, kind, n, None if kind is ModelKind.EXACT else m))
    ok = worst <= 1e-8
    _report(capsys, 2, "oracle equivalence", ok, f"worst = {worst:.3e}")
    assert ok


def test_criterion_3_identity_suites(params, rng, capsys):
    worst_rela = checks.rela_residual(params, range(-5, 121))
    # The criss-cross determinant cancels beyond double precision for large
    # n, so the constancy sweep runs at 220 digits.
    worst_cc = checks.crisscross_drift(params, range(1, 51), 220)
    worst_ab = checks.alpha_beta_residual(
        [random_params(rng) for _ in range(1000)])

    ok = worst_rela <= 1e-11 and worst_cc <= 1e-9 and worst_ab <= 1e-11
    _report(capsys, 3, "identity suites", ok,
            f"rela = {worst_rela:.2e}, criss-cross = {worst_cc:.2e}, "
            f"alpha/beta = {worst_ab:.2e}")
    assert ok


def test_criterion_4_expansion_orders(params, capsys):
    # Regressions run on mpf-evaluated formulas: the QQC error decays as
    # z0^(2(n-m)) and drops below double roundoff by n - m = 8, so the
    # slopes over n - m in [2, 10] are only meaningful in high precision.
    slopes = checks.decay_slopes(params, range(2, 11))
    slopes_ok = all(abs(got - want) <= 0.05 * abs(want)
                    for got, want in slopes.values())

    # Finite ghost-force gap of the interface-matrix QC variant.
    m0 = 30
    _, eta0_d = eff.exact_limits(params)
    eta0_qc, gap = eff.qc_limit(params)
    gap_ok = all(
        abs(eff.qc_coefficients_qmatrix(params, m0, m0 + k)[0].eta - eta0_d)
        >= 0.9 * abs(eta0_d - eta0_qc)
        for k in range(4, 11))

    ok = slopes_ok and gap_ok
    detail = ", ".join(f"{name} {got:.3f}/{want:.3f}"
                       for name, (got, want) in slopes.items())
    _report(capsys, 4, "expansion orders", ok,
            detail + f", ghost gap {'held' if gap_ok else 'violated'}")
    assert ok


def test_criterion_5_energy_force_consistency(params, rng, capsys):
    worst = 0.0
    for kind in (ModelKind.EXACT, ModelKind.QC, ModelKind.QQC):
        cfg = lat.chain_config(params, kind, 25,
                               None if kind is ModelKind.EXACT else 15, 70)
        for _ in range(20):
            u = 0.02 * rng.standard_normal(cfg.j_max + 1)
            P = float(rng.uniform(-0.5, 0.5))
            worst = max(worst, checks.gradient_mismatch(
                cfg, lat.DisplacementField(u, P), 4))
    fqc_ok = not ModelKind.FQC.has_energy
    try:
        cfg = lat.chain_config(params, ModelKind.FQC, 25, 15, 70)
        checks.gradient_mismatch(cfg, lat.DisplacementField(
            np.zeros(cfg.j_max + 1), 0.0), 4)
        fqc_ok = False
    except ValueError:
        pass
    ok = worst <= 1e-6 and fqc_ok
    _report(capsys, 5, "energy-force consistency", ok,
            f"worst gradient mismatch = {worst:.3e}, "
            f"FQC energyless = {fqc_ok}")
    assert ok


def _equations(params):
    law = force_law(params)
    out = {}
    for kind in ModelKind:
        coefs = eff.coefficients(params, kind, N_REF,
                                 None if kind is ModelKind.EXACT else 100)
        out[kind] = bif.EffectiveEquation(law, coefs.kappa, coefs.eta)
    return out


def test_criterion_6_bifurcation_structure(params, capsys):
    eqs = _equations(params)
    counts = {kind: len(bif.fold_points(eq)) for kind, eq in eqs.items()}
    folds_ok = all(c == 2 for c in counts.values())

    eq = eqs[ModelKind.EXACT]
    p_lo, p_hi = sorted(f.P_star for f in bif.fold_points(eq))
    margin = 3.0 / 10 ** 4
    scan_ok = True
    for p in np.linspace(1e-6, 3.0, 10 ** 4):
        count = len(bif.solve_branches(eq, float(p)))
        if p < p_lo - margin or p > p_hi + margin:
            scan_ok = scan_ok and count == 1
        elif p_lo + margin < p < p_hi - margin:
            scan_ok = scan_ok and count == 3
    ok = folds_ok and scan_ok
    _report(capsys, 6, "bifurcation structure", ok,
            f"fold counts = {sorted(counts.values())}, "
            f"1/3/1 scan = {scan_ok}")
    assert ok


def test_criterion_7_continuation_fidelity(params, capsys):
    eqs = _equations(params)
    eq = eqs[ModelKind.EXACT]
    fine = bif.trace_curve(eq, 4.0, 1e-3)
    res_ok = float(fine.samples[:, 3].max()) <= 1e-8

    coarse = bif.trace_curve(eq, 3.0, 0.05)
    halved = bif.trace_curve(eq, 3.0, 0.025)
    ratio = float(coarse.samples[:, 3].max()) \
        / float(halved.samples[:, 3].max())
    order_ok = ratio >= 12

    s_max, h = 2.0, 1e-3
    base = bif.trace_curve(eq, s_max, h)
    sup_qqc, _ = bif.compare_curves(
        base, bif.trace_curve(eqs[ModelKind.QQC], s_max, h))
    sup_qc, _ = bif.compare_curves(
        base, bif.trace_curve(eqs[ModelKind.QC], s_max, h))
    bound, _ = bif.lipschitz_bound(eq, eqs[ModelKind.QQC], s_max)
    distance_ok = sup_qqc <= bound and sup_qqc <= sup_qc / 10

    ok = res_ok and order_ok and distance_ok
    _report(capsys, 7, "continuation fidelity", ok,
            f"max residual = {float(fine.samples[:, 3].max()):.2e}, "
            f"halving ratio = {ratio:.1f}, sup qqc = {sup_qqc:.2e}, "
            f"sup qc = {sup_qc:.2e}")
    assert ok


def test_criterion_8_figure_content(params, capsys):
    # The plotted content is asserted as inequalities: two folds per model
    # (criterion 6), the QQC curve overlapping the exact one, and the QC
    # curve visibly offset from it.
    eqs = _equations(params)
    s_max, h = 2.0, 1e-3
    base = bif.trace_curve(eqs[ModelKind.EXACT], s_max, h)
    sup_qqc, _ = bif.compare_curves(
        base, bif.trace_curve(eqs[ModelKind.QQC], s_max, h))
    sup_qc, _ = bif.compare_curves(
        base, bif.trace_curve(eqs[ModelKind.QC], s_max, h))
    folds_ok = all(len(bif.fold_points(eq)) == 2 for eq in eqs.values())
    ok = folds_ok and sup_qqc < 1e-10 and sup_qc > 1e-7
    _report(capsys, 8, "figure content", ok,
            f"qqc overlap = {sup_qqc:.2e}, qc offset = {sup_qc:.2e}")
    assert ok
