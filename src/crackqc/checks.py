"""Reference tables, and the one measurement of each cross-module invariant.

`table_coefficients` decides which closed form each published table row is
compared with, for `reproduce-tables` and acceptance criterion 1.

Each measurement takes its samples as arguments and returns the worst
normalized value it saw (`decay_slopes` returns every fitted slope):
`rela_residual` (telescoping kernel identities), `crisscross_drift`
(criss-cross determinant against its constant), `alpha_beta_residual`,
`oracle_gap` (closed form against the chain oracle), `gradient_mismatch`
(energy against force residual) and `decay_slopes` (expansion orders).
Their callers draw their own samples and apply their own gates: the four
`_suite_*` functions that `crackqc check` runs on one seeded generator,
acceptance criteria 2-5, and the unit tests that sweep the same invariants.
"""

from __future__ import annotations

import math

import numpy as np

from . import effective as eff
from . import lattice as lat
from .effective import ModelKind
from .kernels import (HyperbolicKernel, crisscross_constant,
                      crisscross_direct, identity_rela, kernel_for)
from .material import alpha_beta_residuals, characteristic_roots, validate

TABLE_TOL = 1e-9

# Published reference values for the two coefficient tables at
# kappa1=4, kappa2=0.4, kappa3=20, u_cut=0.5, n=104, m in {100, 96}.
REFERENCE_TABLES = {
    (100, "exact"): (-4.782062040603841, 0.934371338155818),
    (100, "qc"): (-4.782048350329799, 1.002417909367481),
    (100, "qqc"): (-4.782060913687936, 0.934371132296173),
    (100, "fqc"): (-4.782243406077938, 0.934404469139225),
    (96, "exact"): (-4.782062040603841, 0.934371338155818),
    (96, "qc"): (-4.782062040081748, 1.002420436153853),
    (96, "qqc"): (-4.782062040560865, 0.934371338147967),
    (96, "fqc"): (-4.782062047519995, 0.934371339419228),
}
TABLE_N = 104


def table_coefficients(params):
    """(m, model) -> EffectiveCoefficients for every REFERENCE_TABLES row,
    in the tables' order."""
    out = {}
    for m, name in REFERENCE_TABLES:
        if name == "qc":
            # This is the form criterion 1 compares the QC rows with; even
            # at README's nearby parameter set (Known discrepancy) it misses
            # the published QC eta by 0.868.
            out[(m, name)] = eff.qc_coefficients_qmatrix(params, m, TABLE_N)[0]
        else:
            out[(m, name)] = eff.coefficients(params, ModelKind(name),
                                              TABLE_N, m)
    return out


def _mpf_params(params):
    """`params` at the current mpmath precision, each value parsed from the
    shortest decimal that round-trips its float."""
    import mpmath as mp
    return validate(mp.mpf(repr(params.kappa1)), mp.mpf(repr(params.kappa2)),
                    mp.mpf(repr(params.kappa3)), mp.mpf(repr(params.u_cut)))


def rela_residual(params, ks) -> float:
    """Worst |residual| of the two telescoping identities over indices ks,
    each already relative to its largest term (`identity_rela`)."""
    kernel = kernel_for(params)
    return max(abs(r) for k in ks for r in identity_rela(params, kernel, k))


def crisscross_drift(params, ns, dps: int) -> float:
    """Worst |direct - constant| / |constant| of the criss-cross determinant
    over indices ns, everything evaluated at `dps` digits.

    The direct form cancels about 2 n log10(1/|z0|) digits, so `dps` must
    exceed that for the largest n."""
    import mpmath as mp
    with mp.workdps(dps):
        roots = characteristic_roots(_mpf_params(params))
        kernel = HyperbolicKernel(roots.z0)
        const = crisscross_constant(kernel, roots.alpha, roots.beta)
        return max(float(abs(crisscross_direct(kernel, roots.alpha,
                                               roots.beta, n) - const)
                         / abs(const)) for n in ns)


def alpha_beta_residual(param_sets) -> float:
    """Worst relative residual of the two alpha/beta relations
    (`alpha_beta_residuals`) over the parameter sets."""
    return max(abs(r) for p in param_sets
               for r in alpha_beta_residuals(p, characteristic_roots(p)))


def oracle_gap(params, model: ModelKind, n: int, m, relative=True) -> float:
    """max(|d kappa|, |d eta|) between the closed form and the oracle of one
    chain, each relative to the closed form's value unless `relative` is
    false."""
    form = eff.coefficients(params, model, n, m)
    orc = lat.oracle_coefficients(lat.chain_config(params, model, n, m))
    sk, se = (abs(form.kappa), abs(form.eta)) if relative else (1.0, 1.0)
    return max(abs(orc.kappa - form.kappa) / sk, abs(orc.eta - form.eta) / se)


def gradient_mismatch(config, field, stride: int) -> float:
    """Worst |dE/du_j + r_j| / max(1, |r_j|) over rows j = 0, stride, ...
    below j_max - 1, with r the force residual and dE/du_j a central
    difference of step 1e-6.  Raises ValueError for a model with no energy
    (FQC)."""
    resid = lat.assemble_residual(config, field)
    h = 1e-6
    worst = 0.0
    for j in range(0, config.j_max - 1, stride):
        up, um = field.u.copy(), field.u.copy()
        up[j] += h
        um[j] -= h
        grad = (lat.assemble_energy(config, lat.DisplacementField(up, field.P))
                - lat.assemble_energy(
                    config, lat.DisplacementField(um, field.P))) / (2 * h)
        worst = max(worst, abs(grad + resid[j]) / max(1.0, abs(resid[j])))
    return worst


def decay_slopes(params, shifts):
    """{name: (slope, predicted)} of log|error| against the shift k.

    QQC and FQC run at m = 30, n = 30 + k, the exact chain at n = k + 4,
    all in 60-digit mpf: the QQC error decays like z0^(2k) and falls below
    double roundoff relative to the limit by k = 8.
    """
    import mpmath as mp
    with mp.workdps(60):
        pm = _mpf_params(params)
        ln = float(mp.log(abs(characteristic_roots(pm).z0)))
        kappa0, eta0 = eff.exact_limits(pm)
        qqc = [eff.qqc_coefficients(pm, 30, 30 + k) for k in shifts]
        fqc = [eff.fqc_coefficients(pm, 30, 30 + k) for k in shifts]
        exact = [eff.exact_coefficients(pm, k + 4) for k in shifts]
        errors = {
            "qqc kappa": (2 * ln, [c.kappa - kappa0 for c in qqc]),
            "qqc eta": (2 * ln, [c.eta - eta0 for c in qqc]),
            "fqc kappa": (ln, [c.kappa - kappa0 for c in fqc]),
            "fqc eta": (ln, [c.eta - eta0 for c in fqc]),
            "exact kappa": (2 * ln, [c.kappa - kappa0 for c in exact]),
        }
        xs = np.asarray(list(shifts), float)
        return {name: (float(np.polyfit(xs, np.asarray(
                           [float(mp.log(abs(e))) for e in errs]), 1)[0]),
                       target)
                for name, (target, errs) in errors.items()}


def _suite_identities(params, rng):
    worst = rela_residual(params, range(-5, 121))
    if worst > 1e-11:
        return False, f"rela residual {worst:.3e}"
    # Up to n = 50 the subtraction cancels 100 log10(1/|z0|) digits.
    z0 = characteristic_roots(params).z0
    drift = crisscross_drift(params, range(1, 51),
                             int(100 * math.log10(1 / abs(z0))) + 30)
    if drift > 1e-9:
        return False, f"criss-cross drift {drift:.3e}"
    worst = alpha_beta_residual(
        [validate(rng.uniform(0.5, 8), rng.uniform(0.05, 1.5),
                  rng.uniform(1, 50), 0.5) for _ in range(200)])
    if worst > 1e-11:
        return False, f"alpha/beta residual {worst:.3e}"
    return True, "ok"


def _suite_energy_force(params, rng):
    for kind in ModelKind:
        cfg = lat.chain_config(params, kind, 25, 15, 70)
        if not kind.has_energy:
            try:
                gradient_mismatch(cfg, lat.DisplacementField(
                    np.zeros(cfg.j_max + 1), 0.0), 7)
            except ValueError:
                continue
            return False, f"{kind.name} energy did not raise"
        for _ in range(5):
            field = lat.DisplacementField(
                0.01 * rng.standard_normal(cfg.j_max + 1), 0.3)
            worst = gradient_mismatch(cfg, field, 7)
            if worst > 1e-6:
                return False, f"{kind.value} gradient mismatch {worst:.3e}"
    return True, "ok"


def _suite_oracle(params, rng):
    for _ in range(10):
        pp = validate(rng.uniform(1, 8), rng.uniform(0.05, 1.2),
                      rng.uniform(2, 40), 0.5)
        m = int(rng.integers(4, 13))
        n = m + int(rng.integers(2, 9))
        for kind in ModelKind:
            gap = oracle_gap(pp, kind, n, m)
            if gap > lat.ORACLE_TOL:
                return False, f"{kind.value} oracle gap {gap:.3e}"
    return True, "ok"


def _suite_expansion_orders(params, rng):
    # The fit starts where |z0|^k <= 0.05, so that the next order of each
    # expansion no longer bends the slope; at |z0| <= 0.22 that is k = 2.
    z0 = abs(characteristic_roots(params).z0)
    start = max(2, math.ceil(math.log(0.05) / math.log(z0)))
    for name, (got, want) in decay_slopes(params,
                                          range(start, start + 9)).items():
        if abs(got - want) > 0.05 * abs(want):
            return False, f"{name} slope {got:.4f} vs {want:.4f}"
    return True, "ok"


def run_suites(params, seed: int):
    """(name, passed, detail) per suite, in order, all drawing from one
    generator seeded with `seed`."""
    rng = np.random.default_rng(seed)
    for name, suite in (("identities", _suite_identities),
                        ("energy-force", _suite_energy_force),
                        ("oracle-equivalence", _suite_oracle),
                        ("expansion-orders", _suite_expansion_orders)):
        yield (name, *suite(params, rng))
