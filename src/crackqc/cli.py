"""Command-line interface: validation, coefficient tables, curve tracing,
fold detection, oracle cross-checks, reference-table comparison, and the
invariant check suites.

The commands only parse arguments and format output; what they compute
lives in `effective`, `lattice`, `bifurcation` and `checks`.

Exit codes: 0 all requested checks pass, 1 numerical mismatch, 2 invalid
input.  All output is deterministic for identical inputs and seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

import click

from . import bifurcation as bif
from . import checks
from . import effective as eff
from . import lattice as lat
from .effective import ModelKind
from .material import (ParameterError, characteristic_roots, force_law,
                       validate)

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


def _options(*decorators):
    def apply(func):
        for dec in reversed(decorators):
            func = dec(func)
        return func
    return apply


_param_options = _options(
    click.option("--config", type=click.Path(exists=True, dir_okay=False),
                 callback=_load_config, is_eager=True, expose_value=False,
                 help="JSON file with defaults for any flag; flags win."),
    click.option("--k1", type=float, default=4.0, show_default=True),
    click.option("--k2", type=float, default=0.4, show_default=True),
    click.option("--k3", type=float, default=20.0, show_default=True),
    click.option("--ucut", type=float, default=0.5, show_default=True))

_index_options = _options(
    click.option("--m", type=int, default=100, show_default=True),
    click.option("--n", type=int, default=104, show_default=True))

_json_option = click.option("--json", "as_json", is_flag=True)


@contextlib.contextmanager
def _gate(k1, k2, k3, ucut):
    """The one parameter gate and invalid-input handler of every command.

    Every command needs the characteristic roots, so a parameter set
    without them exits 2 here; a ValueError, ArithmeticError or
    SingularJacobianError (a chain the input makes singular) raised by the
    command's body also exits 2.
    """
    try:
        params = validate(k1, k2, k3, ucut)
        characteristic_roots(params)
    except ParameterError as exc:
        click.echo(f"invalid parameters [{exc.code}]: {exc}", err=True)
        sys.exit(2)
    try:
        yield params
    except (ValueError, ArithmeticError, lat.SingularJacobianError) as exc:
        click.echo(f"error: {exc}", err=True)
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
    with _gate(k1, k2, k3, ucut) as params:
        roots = characteristic_roots(params)
        click.echo(f"kappa_bar = {_fmt(params.kappa_bar)}")
        click.echo(f"delta_disc = {_fmt(params.delta_disc)}")
        click.echo(f"z0 = {_fmt(roots.z0)}")
        click.echo(f"z1 = {_fmt(roots.z1)}  z2 = {_fmt(roots.z2)}")
        click.echo(f"alpha = {_fmt(roots.alpha)}  beta = {_fmt(roots.beta)}")
        click.echo("OK")


@main.command("coefficients")
@_param_options
@_index_options
@click.option("--model", type=click.Choice(_MODEL_CHOICES), default="all",
              show_default=True)
@click.option("--oracle", is_flag=True,
              help="Also run the full-chain linear-solve oracle.")
@_json_option
def cmd_coefficients(k1, k2, k3, ucut, m, n, model, oracle, as_json):
    """Closed-form (kappa, eta) per model, with limits and expansions."""
    with _gate(k1, k2, k3, ucut) as params:
        limits = dataclasses.asdict(eff.limits(params))
        report = {"limits": limits, "models": {}}
        worst = 0.0
        for kind in _models(model):
            coefs = eff.coefficients(params, kind, n, m)
            entry = {"kappa": coefs.kappa, "eta": coefs.eta}
            try:
                entry["expansions"] = [
                    {"quantity": r.quantity,
                     "leading_coefficient": r.leading_coefficient,
                     "exponent": list(r.exponent)}
                    for r in eff.expansions(params, kind, n, m)]
            except ValueError:
                entry["expansions"] = []
            if oracle:
                orc = lat.oracle_coefficients(
                    lat.chain_config(params, kind, n, m))
                entry["oracle"] = {"kappa": orc.kappa, "eta": orc.eta}
                diff = max(abs(orc.kappa - coefs.kappa),
                           abs(orc.eta - coefs.eta))
                entry["oracle_diff"] = diff
                worst = max(worst, diff)
            report["models"][kind.value] = entry
    if as_json:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        click.echo(f"kappa0 = {_fmt(limits['kappa0'])}  "
                   f"eta0 = {_fmt(limits['eta0'])}")
        click.echo(f"eta0_qc = {_fmt(limits['eta0_qc'])}  "
                   f"gap = {_fmt(limits['gap'])}")
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
@_json_option
def cmd_limits(k1, k2, k3, ucut, as_json):
    """Macroscopic-crack limits kappa0, eta0, eta0_qc, gap."""
    with _gate(k1, k2, k3, ucut) as params:
        limits = dataclasses.asdict(eff.limits(params))
    if as_json:
        click.echo(json.dumps(limits, indent=2, sort_keys=True))
    else:
        for name, value in limits.items():
            click.echo(f"{name} = {_fmt(value)}")


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
@_index_options
@click.option("--model", type=click.Choice(_MODEL_CHOICES), default="exact",
              show_default=True)
@click.option("--smax", type=float, default=5.0, show_default=True)
@click.option("--step", type=float, default=1e-3, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
              default=None)
def cmd_trace(k1, k2, k3, ucut, m, n, model, smax, step, out):
    """Arc-length continuation; CSV columns s,u,P,residual."""
    with _gate(k1, k2, k3, ucut) as params:
        kinds = _models(model)
        if len(kinds) > 1 and out is None:
            raise click.UsageError("--model all requires --out")
        law = force_law(params)
        for kind in kinds:
            coefs = eff.coefficients(params, kind, n, m)
            eq = bif.EffectiveEquation(law, coefs.kappa, coefs.eta)
            curve = bif.trace_curve(eq, smax, step)
            if out is None:
                _write_curve(curve, None)
            elif len(kinds) == 1:
                _write_curve(curve, out)
            else:
                _write_curve(curve, out.with_name(
                    f"{out.stem}_{kind.value}{out.suffix or '.csv'}"))


@main.command("folds")
@_param_options
@_index_options
@click.option("--model", type=click.Choice(_MODEL_CHOICES), default="all",
              show_default=True)
@_json_option
def cmd_folds(k1, k2, k3, ucut, m, n, model, as_json):
    """Saddle-node fold points of the effective equation per model."""
    with _gate(k1, k2, k3, ucut) as params:
        law = force_law(params)
        report = {}
        for kind in _models(model):
            coefs = eff.coefficients(params, kind, n, m)
            eq = bif.EffectiveEquation(law, coefs.kappa, coefs.eta)
            report[kind.value] = [
                {"u": f.u_star, "P": f.P_star, "degenerate": f.degenerate}
                for f in bif.fold_points(eq)]
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
@_index_options
@click.option("--model", type=click.Choice(["qc", "qqc", "fqc"]),
              default="qqc", show_default=True)
@click.option("--smax", type=float, default=2.0, show_default=True)
@click.option("--step", type=float, default=1e-3, show_default=True)
@_json_option
def cmd_compare(k1, k2, k3, ucut, m, n, model, smax, step, as_json):
    """Sup-distance between the exact curve and one approximation."""
    with _gate(k1, k2, k3, ucut) as params:
        law = force_law(params)
        base = eff.coefficients(params, ModelKind.EXACT, n, m)
        other = eff.coefficients(params, ModelKind(model), n, m)
        eq_a = bif.EffectiveEquation(law, base.kappa, base.eta)
        eq_b = bif.EffectiveEquation(law, other.kappa, other.eta)
        sup, _ = bif.compare_curves(bif.trace_curve(eq_a, smax, step),
                                    bif.trace_curve(eq_b, smax, step))
        bound, derivation = bif.lipschitz_bound(eq_a, eq_b, smax)
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
@_json_option
def cmd_reproduce_tables(perturb_k1, as_json):
    """Compare computed coefficients against the published reference tables.

    Parameters are fixed at kappa1=4, kappa2=0.4, kappa3=20, u_cut=0.5 with
    n=104 and m in {100, 96}.  Exit 0 iff every absolute error <= 1e-9.
    """
    with _gate(4.0 + perturb_k1, 0.4, 20.0, 0.5) as params:
        rows = []
        for (m, name), coefs in checks.table_coefficients(params).items():
            ref_kappa, ref_eta = checks.REFERENCE_TABLES[(m, name)]
            rows.append({"m": m, "model": name,
                         "kappa": coefs.kappa, "eta": coefs.eta,
                         "ref_kappa": ref_kappa, "ref_eta": ref_eta,
                         "err_kappa": abs(coefs.kappa - ref_kappa),
                         "err_eta": abs(coefs.eta - ref_eta)})
    max_err = max(max(r["err_kappa"], r["err_eta"]) for r in rows)
    ok = max_err <= checks.TABLE_TOL
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
                   f"{'PASS' if ok else 'FAIL'} "
                   f"(tolerance {checks.TABLE_TOL:g})")
    if not ok:
        sys.exit(1)


@main.command("check")
@_param_options
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_check(k1, k2, k3, ucut, seed):
    """Run the cross-module invariant suites; exit 1 on any failure."""
    failed = False
    with _gate(k1, k2, k3, ucut) as params:
        for name, ok, detail in checks.run_suites(params, seed):
            click.echo(f"{name}: {'PASS' if ok else 'FAIL (' + detail + ')'}")
            failed = failed or not ok
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
