"""Command-line interface: validation, coefficient tables, curve tracing,
fold detection, oracle cross-checks, reference-table comparison, and the
invariant check suites.

Exit codes: 0 all requested checks pass, 1 numerical mismatch, 2 invalid
input.  All output is deterministic for identical inputs and seed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import bifurcation as bif
from . import effective as eff
from . import lattice as lat
from .effective import ModelKind
from .material import (MaterialParams, ParameterError, alpha_beta_residuals,
                       characteristic_roots, force_law, validate)
from .kernels import (HyperbolicKernel, crisscross_constant, identity_rela,
                      kernel_for)

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

_MODEL_CHOICES = ["exact", "qc", "qqc", "fqc", "all"]


def _load_config(ctx, param, value):
    if value is None:
        return None
    with open(value, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold a JSON object")
    ctx.default_map = dict(ctx.default_map or {})
    ctx.default_map.update(data)
    return value


def _param_options(func):
    decorators = [
        click.option("--config", type=click.Path(exists=True, dir_okay=False),
                     callback=_load_config, is_eager=True, expose_value=False,
                     help="JSON file with defaults for any flag; flags win."),
        click.option("--k1", type=float, default=4.0, show_default=True),
        click.option("--k2", type=float, default=0.4, show_default=True),
        click.option("--k3", type=float, default=20.0, show_default=True),
        click.option("--ucut", type=float, default=0.5, show_default=True),
    ]
    for dec in reversed(decorators):
        func = dec(func)
    return func


def _validated(k1, k2, k3, ucut) -> MaterialParams:
    """The one parameter gate: every command needs the characteristic roots,
    so a parameter set without them exits 2 here."""
    try:
        params = validate(k1, k2, k3, ucut)
        characteristic_roots(params)
        return params
    except ParameterError as exc:
        click.echo(f"invalid parameters [{exc.code}]: {exc}", err=True)
        sys.exit(2)


def _models(name: str):
    if name == "all":
        return [ModelKind.EXACT, ModelKind.QC, ModelKind.QQC, ModelKind.FQC]
    return [ModelKind(name)]


def _fmt(x: float) -> str:
    return repr(float(x))


@click.group()
def main():
    """1-D lattice fracture model: coefficients, oracle, continuation."""


@main.command("validate")
@_param_options
def cmd_validate(k1, k2, k3, ucut):
    """Check parameter admissibility and print derived constants."""
    params = _validated(k1, k2, k3, ucut)
    roots = characteristic_roots(params)
    click.echo(f"kappa_bar = {_fmt(params.kappa_bar)}")
    click.echo(f"delta_disc = {_fmt(params.delta_disc)}")
    click.echo(f"z0 = {_fmt(roots.z0)}")
    click.echo(f"z1 = {_fmt(roots.z1)}  z2 = {_fmt(roots.z2)}")
    click.echo(f"alpha = {_fmt(roots.alpha)}  beta = {_fmt(roots.beta)}")
    if roots.marginal:
        click.echo("warning: roots on the |z| = 1 boundary (marginal)")
    click.echo("OK")


@main.command("coefficients")
@_param_options
@click.option("--m", type=int, default=100, show_default=True)
@click.option("--n", type=int, default=104, show_default=True)
@click.option("--jmax", type=int, default=None)
@click.option("--model", type=click.Choice(_MODEL_CHOICES), default="all",
              show_default=True)
@click.option("--oracle", is_flag=True,
              help="Also run the full-chain linear-solve oracle.")
@click.option("--json", "as_json", is_flag=True)
def cmd_coefficients(k1, k2, k3, ucut, m, n, jmax, model, oracle, as_json):
    """Closed-form (kappa, eta) per model, with limits and expansions."""
    params = _validated(k1, k2, k3, ucut)
    try:
        limits = eff.limits(params)
        report = {"limits": {"kappa0": limits.kappa0, "eta0": limits.eta0,
                             "eta0_qc": limits.eta0_qc, "gap": limits.gap},
                  "models": {}}
        worst = 0.0
        for kind in _models(model):
            coefs = eff.coefficients(params, kind, n, m)
            entry = {"kappa": coefs.kappa, "eta": coefs.eta}
            try:
                recs = eff.expansions(params, kind, n,
                                      None if kind is ModelKind.EXACT else m)
                entry["expansions"] = [
                    {"quantity": r.quantity,
                     "leading_coefficient": r.leading_coefficient,
                     "exponent": list(r.exponent)} for r in recs]
            except ValueError:
                entry["expansions"] = []
            if oracle:
                cfg = lat.chain_config(
                    params, kind, n,
                    None if kind is ModelKind.EXACT else m, jmax)
                orc = lat.oracle_coefficients(cfg)
                entry["oracle"] = {"kappa": orc.kappa, "eta": orc.eta}
                diff = max(abs(orc.kappa - coefs.kappa),
                           abs(orc.eta - coefs.eta))
                entry["oracle_diff"] = diff
                worst = max(worst, diff)
            report["models"][kind.value] = entry
    except (ValueError, ArithmeticError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if as_json:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        click.echo(f"kappa0 = {_fmt(limits.kappa0)}  "
                   f"eta0 = {_fmt(limits.eta0)}")
        click.echo(f"eta0_qc = {_fmt(limits.eta0_qc)}  "
                   f"gap = {_fmt(limits.gap)}")
        for name, entry in report["models"].items():
            line = (f"{name:5s} kappa = {_fmt(entry['kappa'])}  "
                    f"eta = {_fmt(entry['eta'])}")
            if oracle:
                line += f"  |formula - oracle| = {_fmt(entry['oracle_diff'])}"
            click.echo(line)
    if oracle and worst > 1e-8:
        click.echo(f"oracle mismatch: {worst:.3e} > 1e-08", err=True)
        sys.exit(1)


@main.command("limits")
@_param_options
@click.option("--json", "as_json", is_flag=True)
def cmd_limits(k1, k2, k3, ucut, as_json):
    """Macroscopic-crack limits kappa0, eta0, eta0_qc, gap."""
    params = _validated(k1, k2, k3, ucut)
    lim = eff.limits(params)
    if as_json:
        click.echo(json.dumps({"kappa0": lim.kappa0, "eta0": lim.eta0,
                               "eta0_qc": lim.eta0_qc, "gap": lim.gap},
                              indent=2, sort_keys=True))
    else:
        click.echo(f"kappa0 = {_fmt(lim.kappa0)}")
        click.echo(f"eta0 = {_fmt(lim.eta0)}")
        click.echo(f"eta0_qc = {_fmt(lim.eta0_qc)}")
        click.echo(f"gap = {_fmt(lim.gap)}")


def _write_curve(curve: bif.BifurcationCurve, path: Optional[Path]):
    lines = ["s,u,P,residual"]
    for s, u, p, r in curve.samples:
        lines.append(f"{_fmt(s)},{_fmt(u)},{_fmt(p)},{_fmt(r)}")
    text = "\n".join(lines) + "\n"
    if path is None:
        click.echo(text, nl=False)
    else:
        path.write_text(text, encoding="utf-8")
        click.echo(f"wrote {path}")


@main.command("trace")
@_param_options
@click.option("--m", type=int, default=100, show_default=True)
@click.option("--n", type=int, default=104, show_default=True)
@click.option("--model", type=click.Choice(_MODEL_CHOICES), default="exact",
              show_default=True)
@click.option("--smax", type=float, default=5.0, show_default=True)
@click.option("--step", type=float, default=1e-3, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
              default=None)
def cmd_trace(k1, k2, k3, ucut, m, n, model, smax, step, out):
    """Arc-length continuation; CSV columns s,u,P,residual."""
    params = _validated(k1, k2, k3, ucut)
    kinds = _models(model)
    if len(kinds) > 1 and out is None:
        raise click.UsageError("--model all requires --out")
    try:
        law = force_law(params)
        for kind in kinds:
            coefs = eff.coefficients(params, kind, n, m)
            eq = bif.EffectiveEquation(law, coefs.kappa, coefs.eta)
            curve = bif.trace_curve(eq, smax, step, tag=kind.value)
            if out is None:
                _write_curve(curve, None)
            elif len(kinds) == 1:
                _write_curve(curve, out)
            else:
                _write_curve(curve, out.with_name(
                    f"{out.stem}_{kind.value}{out.suffix or '.csv'}"))
    except (ValueError, ArithmeticError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@main.command("folds")
@_param_options
@click.option("--m", type=int, default=100, show_default=True)
@click.option("--n", type=int, default=104, show_default=True)
@click.option("--model", type=click.Choice(_MODEL_CHOICES), default="all",
              show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_folds(k1, k2, k3, ucut, m, n, model, as_json):
    """Saddle-node fold points of the effective equation per model."""
    params = _validated(k1, k2, k3, ucut)
    law = force_law(params)
    report = {}
    try:
        for kind in _models(model):
            coefs = eff.coefficients(params, kind, n, m)
            eq = bif.EffectiveEquation(law, coefs.kappa, coefs.eta)
            report[kind.value] = [
                {"u": f.u_star, "P": f.P_star, "degenerate": f.degenerate}
                for f in bif.fold_points(eq)]
    except (ValueError, ArithmeticError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if as_json:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        for name, folds in report.items():
            click.echo(f"{name}: {len(folds)} fold(s)")
            for f in folds:
                mark = " (degenerate)" if f["degenerate"] else ""
                click.echo(f"  u* = {_fmt(f['u'])}  P* = {_fmt(f['P'])}{mark}")


@main.command("compare")
@_param_options
@click.option("--m", type=int, default=100, show_default=True)
@click.option("--n", type=int, default=104, show_default=True)
@click.option("--model", type=click.Choice(["qc", "qqc", "fqc"]),
              default="qqc", show_default=True)
@click.option("--smax", type=float, default=2.0, show_default=True)
@click.option("--step", type=float, default=1e-3, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_compare(k1, k2, k3, ucut, m, n, model, smax, step, as_json):
    """Sup-distance between the exact curve and one approximation."""
    params = _validated(k1, k2, k3, ucut)
    law = force_law(params)
    try:
        base = eff.coefficients(params, ModelKind.EXACT, n, m)
        other = eff.coefficients(params, ModelKind(model), n, m)
        eq_a = bif.EffectiveEquation(law, base.kappa, base.eta)
        eq_b = bif.EffectiveEquation(law, other.kappa, other.eta)
        sup, _ = bif.compare_curves(bif.trace_curve(eq_a, smax, step),
                                    bif.trace_curve(eq_b, smax, step))
        bound, derivation = bif.lipschitz_bound(eq_a, eq_b, smax)
    except (ValueError, ArithmeticError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if as_json:
        click.echo(json.dumps({"model": model, "sup_distance": sup,
                               "lipschitz_bound": bound,
                               "derivation": derivation},
                              indent=2, sort_keys=True))
    else:
        click.echo(f"sup |du| + |dP| (exact vs {model}) = {_fmt(sup)}")
        click.echo(f"lipschitz bound = {_fmt(bound)}")
        click.echo(derivation)
    if sup > bound:
        sys.exit(1)


@main.command("reproduce-tables")
@click.option("--perturb-k1", type=float, default=0.0, show_default=True,
              help="Diagnostic offset added to kappa1 before computing.")
@click.option("--json", "as_json", is_flag=True)
def cmd_reproduce_tables(perturb_k1, as_json):
    """Compare computed coefficients against the published reference tables.

    Parameters are fixed at kappa1=4, kappa2=0.4, kappa3=20, u_cut=0.5 with
    n=104 and m in {100, 96}.  Exit 0 iff every absolute error <= 1e-9.
    """
    params = _validated(4.0 + perturb_k1, 0.4, 20.0, 0.5)
    n = 104
    rows = []
    order = [(m, name) for m in (100, 96)
             for name in ("exact", "qc", "qqc", "fqc")]
    for m, name in order:
        ref_kappa, ref_eta = REFERENCE_TABLES[(m, name)]
        if name == "exact":
            coefs = eff.exact_coefficients(params, n)
        elif name == "qc":
            # The reference table's QC row follows the interface-matrix
            # closed form, so that variant is what gets compared here.
            coefs, _ = eff.qc_coefficients_qmatrix(params, m, n)
        elif name == "qqc":
            coefs = eff.qqc_coefficients(params, m, n)
        else:
            coefs = eff.fqc_coefficients(params, m, n)
        rows.append({"m": m, "model": name,
                     "kappa": coefs.kappa, "eta": coefs.eta,
                     "ref_kappa": ref_kappa, "ref_eta": ref_eta,
                     "err_kappa": abs(coefs.kappa - ref_kappa),
                     "err_eta": abs(coefs.eta - ref_eta)})
    max_err = max(max(r["err_kappa"], r["err_eta"]) for r in rows)
    ok = max_err <= TABLE_TOL
    if as_json:
        click.echo(json.dumps({"rows": rows, "max_error": max_err,
                               "pass": ok}, indent=2, sort_keys=True))
    else:
        for r in rows:
            click.echo(f"m={r['m']:3d} {r['model']:5s} "
                       f"kappa = {_fmt(r['kappa'])} (ref {_fmt(r['ref_kappa'])}, "
                       f"err {r['err_kappa']:.3e})  "
                       f"eta = {_fmt(r['eta'])} (ref {_fmt(r['ref_eta'])}, "
                       f"err {r['err_eta']:.3e})")
        click.echo(f"max error = {max_err:.3e}  "
                   f"{'PASS' if ok else 'FAIL'} (tolerance {TABLE_TOL:g})")
    if not ok:
        sys.exit(1)


def _suite_identities(params, rng):
    roots = characteristic_roots(params)
    kernel = kernel_for(params)
    worst = 0.0
    for k in range(-5, 121):
        ra, rb = identity_rela(params, kernel, k)
        worst = max(worst, abs(ra), abs(rb))
    if worst > 1e-11:
        return False, f"rela residual {worst:.3e}"
    const = crisscross_constant(kernel, roots.alpha, roots.beta)
    import mpmath as mp
    from .kernels import crisscross_direct
    from .material import crack_region_root
    # Up to n = 50 the subtraction cancels 100 log10(1/|z0|) digits.
    with mp.workdps(int(100 * math.log10(1 / abs(roots.z0))) + 30):
        pm = validate(mp.mpf(repr(params.kappa1)), mp.mpf(repr(params.kappa2)),
                      mp.mpf(repr(params.kappa3)), mp.mpf(repr(params.u_cut)))
        kerm = HyperbolicKernel(crack_region_root(pm))
        for n in range(1, 51):
            direct = float(crisscross_direct(kerm, roots.alpha, roots.beta, n))
            if abs(direct - const) > 1e-9 * max(1.0, abs(const)):
                return False, f"criss-cross drift at n={n}"
    for _ in range(200):
        kk1 = rng.uniform(0.5, 8)
        kk2 = rng.uniform(0.05, 1.5)
        kk3 = rng.uniform(1, 50)
        pp = validate(kk1, kk2, kk3, 0.5)
        r1, r2 = alpha_beta_residuals(pp, characteristic_roots(pp))
        if max(abs(r1), abs(r2)) > 1e-11:
            return False, f"alpha/beta residual at ({kk1}, {kk2}, {kk3})"
    return True, "ok"


def _suite_energy_force(params, rng):
    for kind in (ModelKind.EXACT, ModelKind.QC, ModelKind.QQC):
        cfg = lat.chain_config(params, kind, 25,
                               None if kind is ModelKind.EXACT else 15, 70)
        for _ in range(5):
            u = 0.01 * rng.standard_normal(cfg.j_max + 1)
            fld = lat.DisplacementField(u=u, P=0.3)
            res = lat.assemble_residual(cfg, fld)
            h = 1e-6
            for j in range(0, cfg.j_max - 1, 7):
                up, um = u.copy(), u.copy()
                up[j] += h
                um[j] -= h
                grad = (lat.assemble_energy(cfg, lat.DisplacementField(up, 0.3))
                        - lat.assemble_energy(
                            cfg, lat.DisplacementField(um, 0.3))) / (2 * h)
                scale = max(1.0, abs(res[j]))
                if abs(grad + res[j]) > 1e-6 * scale:
                    return False, f"{kind.value} gradient row {j}"
    try:
        cfg = lat.chain_config(params, ModelKind.FQC, 25, 15, 70)
        lat.assemble_energy(cfg, lat.DisplacementField(
            np.zeros(cfg.j_max + 1), 0.0))
        return False, "FQC energy did not raise"
    except ValueError:
        pass
    return True, "ok"


def _suite_oracle(params, rng):
    for _ in range(10):
        kk1 = rng.uniform(1, 8)
        kk2 = rng.uniform(0.05, 1.2)
        kk3 = rng.uniform(2, 40)
        pp = validate(kk1, kk2, kk3, 0.5)
        m = int(rng.integers(4, 13))
        n = m + int(rng.integers(2, 9))
        for kind in ModelKind:
            cfg = lat.chain_config(pp, kind, n,
                                   None if kind is ModelKind.EXACT else m)
            orc = lat.oracle_coefficients(cfg)
            form = eff.coefficients(pp, kind, n,
                                    None if kind is ModelKind.EXACT else m)
            err = max(abs(orc.kappa - form.kappa) / abs(form.kappa),
                      abs(orc.eta - form.eta) / abs(form.eta))
            if err > 1e-8:
                return False, f"{kind.value} oracle gap {err:.3e}"
    return True, "ok"


def _suite_expansion_orders(params, rng):
    # The QQC error decays like z0^(2(n-m)) and falls below double roundoff
    # relative to the limit by shift 8, so the regression runs in mpf.
    import mpmath as mp

    def slope(xs, ys):
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        return float(np.polyfit(xs, ys, 1)[0])

    with mp.workdps(60):
        pm = validate(mp.mpf(repr(params.kappa1)), mp.mpf(repr(params.kappa2)),
                      mp.mpf(repr(params.kappa3)), mp.mpf(repr(params.u_cut)))
        ln = float(mp.log(abs(characteristic_roots(pm).z0)))
        kappa0, eta0 = eff.exact_limits(pm)
        shifts = list(range(2, 11))
        cases = [
            ("qqc kappa", 2 * ln, [abs(
                eff.qqc_coefficients(pm, 30, 30 + k).kappa - kappa0)
                for k in shifts], shifts),
            ("qqc eta", 2 * ln, [abs(
                eff.qqc_coefficients(pm, 30, 30 + k).eta - eta0)
                for k in shifts], shifts),
            ("fqc eta", ln, [abs(
                eff.fqc_coefficients(pm, 30, 30 + k).eta - eta0)
                for k in shifts], shifts),
            ("exact kappa", 2 * ln, [abs(
                eff.exact_coefficients(pm, n).kappa - kappa0)
                for n in range(6, 15)], list(range(6, 15))),
        ]
        for name, target, errs, xs in cases:
            sl = slope(xs, [float(mp.log(e)) for e in errs])
            if abs(sl - target) > 0.05 * abs(target):
                return False, f"{name} slope {sl:.4f} vs {target:.4f}"
    return True, "ok"


@main.command("check")
@_param_options
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_check(k1, k2, k3, ucut, seed):
    """Run the cross-module invariant suites; exit 1 on any failure."""
    params = _validated(k1, k2, k3, ucut)
    rng = np.random.default_rng(seed)
    suites = [("identities", _suite_identities),
              ("energy-force", _suite_energy_force),
              ("oracle-equivalence", _suite_oracle),
              ("expansion-orders", _suite_expansion_orders)]
    failed = False
    for name, suite in suites:
        ok, detail = suite(params, rng)
        click.echo(f"{name}: {'PASS' if ok else 'FAIL (' + detail + ')'}")
        failed = failed or not ok
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
