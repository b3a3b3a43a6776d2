"""Command-line interface: validation, coefficient tables, curve tracing,
fold detection, oracle cross-checks, reference-table comparison, and the
invariant check suites.

The commands only parse arguments and format output; what they compute
lives in `effective`, `lattice`, `bifurcation` and `checks`.  A command
imports only the modules it runs: `lattice` (numpy and LAPACK) only under
`coefficients --oracle`, `checks` only in `check` and `reproduce-tables`,
and numpy for `compare`'s sup over two curves; no other command loads it.
The package errors `_gate` handles live in `material`, so it catches a
chain solver's error without importing `lattice`.

Exit codes: 0 all requested checks pass, 1 numerical mismatch, 2 invalid
input.  All output is deterministic for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

from . import bifurcation as bif
from . import effective as eff
from .material import (ModelKind, ParameterError, SingularJacobianError,
                       characteristic_roots, force_law, validate)

_MODEL_CHOICES = ["exact", "qc", "qqc", "fqc", "all"]
# name -> (command, its flags as (flag, argparse keywords)); each flag's
# dest (`k1`, `as_json`, ...) is also its key in a --config file.
_COMMANDS = {}


def _option(flag, default, text="", **keywords):
    """A flag that takes a value; its help ends with its default."""
    return flag, dict(default=default, **keywords,
                      help=f"{text} [default: %(default)s]".lstrip())


_PARAMS = (("--config", dict(metavar="FILE", help="JSON file with defaults "
                             "for any flag; flags win.")),
           _option("--k1", 4.0, type=float), _option("--k2", 0.4, type=float),
           _option("--k3", 20.0, type=float),
           _option("--ucut", 0.5, type=float))
_INDICES = (_option("--m", 100, type=int), _option("--n", 104, type=int))
_JSON = ("--json", dict(dest="as_json", action="store_true"))


def _command(name, *specs):
    def register(func):
        _COMMANDS[name] = func, specs
        return func
    return register


def _joined(argv):
    """Join each flag that takes a value to the token after it, so that
    `--k2 -1e-05` reads as `--k2=-1e-05`, not as two flags."""
    valued = {flag for _, specs in _COMMANDS.values()
              for flag, keywords in specs if "action" not in keywords}
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in valued else None
        out.append(token if value is None else f"{token}={value}")
    return out


def _config_flags(parser, path, specs):
    """A --config file's flags, as tokens that pass each flag's type."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        parser.error(f"--config: {exc}")
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object")
    flags = []
    for flag, keywords in specs:
        dest = keywords.get("dest", flag[2:].replace("-", "_"))
        if dest not in data:
            continue
        value, switch = data[dest], "action" in keywords
        if type(value) not in ((bool,) if switch else (str, int, float)):
            parser.error(f"--config: {dest} = {json.dumps(value)} is not " +
                         ("true or false" if switch else "a string or number"))
        if not switch:
            flags.append(f"{flag}={value}")
        elif value:
            flags.append(flag)
    return flags


@contextlib.contextmanager
def _gate(k1, k2, k3, ucut):
    """The one parameter gate and invalid-input handler of every command.

    Every command needs the characteristic roots, so a parameter set
    without them exits 2 here; a ValueError, ArithmeticError or
    SingularJacobianError (a chain the input makes singular) raised by the
    command's body also exits 2.  `ParameterError` and
    `SingularJacobianError` both come from `material`, so a command that
    never solves a chain never imports `lattice` for this gate.
    """
    try:
        params = validate(k1, k2, k3, ucut)
        characteristic_roots(params)
    except ParameterError as exc:
        print(f"invalid parameters [{exc.code}]: {exc}", file=sys.stderr)
        sys.exit(2)
    try:
        yield params
    except (ValueError, ArithmeticError, SingularJacobianError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


def _models(name: str):
    if name == "all":
        return list(ModelKind)
    return [ModelKind(name)]


def _fmt(x: Optional[float]) -> str:
    return "nan" if x is None else repr(float(x))


@_command("validate", *_PARAMS)
def cmd_validate(k1, k2, k3, ucut):
    """Check parameter admissibility and print derived constants."""
    with _gate(k1, k2, k3, ucut) as params:
        roots = characteristic_roots(params)
        print(f"kappa_bar = {_fmt(params.kappa_bar)}")
        print(f"delta_disc = {_fmt(params.delta_disc)}")
        print(f"z0 = {_fmt(roots.z0)}")
        print(f"z1 = {_fmt(roots.z1)}  z2 = {_fmt(roots.z2)}")
        print(f"alpha = {_fmt(roots.alpha)}  beta = {_fmt(roots.beta)}")
        print("OK")


@_command("coefficients", *_PARAMS, *_INDICES,
          _option("--model", "all", choices=_MODEL_CHOICES),
          ("--oracle", dict(action="store_true", help="Also run the "
                            "full-chain linear-solve oracle.")), _JSON)
def cmd_coefficients(k1, k2, k3, ucut, m, n, model, oracle, as_json):
    """Closed-form (kappa, eta) per model, with limits and expansions."""
    if oracle:
        from . import lattice as lat
    with _gate(k1, k2, k3, ucut) as params:
        kappa0, eta0 = eff.exact_limits(params)
        try:
            eta0_qc, gap = eff.qc_limit(params)
        except ValueError:  # QC's pole, where the other models are finite
            if model in ("qc", "all"):
                raise
            eta0_qc = gap = None
        limits = dict(kappa0=kappa0, eta0=eta0, eta0_qc=eta0_qc, gap=gap)
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
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"kappa0 = {_fmt(limits['kappa0'])}  "
              f"eta0 = {_fmt(limits['eta0'])}")
        print(f"eta0_qc = {_fmt(limits['eta0_qc'])}  "
              f"gap = {_fmt(limits['gap'])}")
        for name, entry in report["models"].items():
            line = (f"{name:5s} kappa = {_fmt(entry['kappa'])}  "
                    f"eta = {_fmt(entry['eta'])}")
            if oracle:
                line += f"  |formula - oracle| = {_fmt(entry['oracle_diff'])}"
            print(line)
    if oracle and worst > lat.ORACLE_TOL:
        print(f"oracle mismatch: {worst:.3e} > {lat.ORACLE_TOL:.0e}",
              file=sys.stderr)
        sys.exit(1)


@_command("limits", *_PARAMS, _JSON)
def cmd_limits(k1, k2, k3, ucut, as_json):
    """Macroscopic-crack limits kappa0, eta0, eta0_qc, gap."""
    with _gate(k1, k2, k3, ucut) as params:
        limits = dataclasses.asdict(eff.limits(params))
    if as_json:
        print(json.dumps(limits, indent=2, sort_keys=True))
    else:
        for name, value in limits.items():
            print(f"{name} = {_fmt(value)}")


def _write_curve(curve: bif.BifurcationCurve, path: Optional[Path]):
    lines = ["s,u,P,residual"]
    values = iter(curve.rows)  # flat, four values to a row
    for s, u, p, r in zip(values, values, values, values):
        lines.append(f"{_fmt(s)},{_fmt(u)},{_fmt(p)},{_fmt(r)}")
    text = "\n".join(lines) + "\n"
    if path is None:
        print(text, end="")
    else:
        try:
            path.write_text(text, encoding="utf-8")
        except OSError as exc:  # an unwritable --out is invalid input
            raise ValueError(f"cannot write --out: {exc}") from exc
        print(f"wrote {path}")


@_command("trace", *_PARAMS, *_INDICES,
          _option("--model", "exact", choices=_MODEL_CHOICES),
          _option("--smax", 5.0, type=float),
          _option("--step", 1e-3, type=float),
          ("--out", dict(type=Path, metavar="FILE")))
def cmd_trace(k1, k2, k3, ucut, m, n, model, smax, step, out):
    """Arc-length continuation; CSV columns s,u,P,residual."""
    with _gate(k1, k2, k3, ucut) as params:
        kinds = _models(model)
        if len(kinds) > 1 and out is None:
            raise ValueError("--model all requires --out")
        if out is not None and out.is_dir():
            raise ValueError(f"--out {out} is a directory")
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


@_command("folds", *_PARAMS, *_INDICES,
          _option("--model", "all", choices=_MODEL_CHOICES), _JSON)
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
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for name, folds in report.items():
            print(f"{name}: {len(folds)} fold(s)")
            for f in folds:
                mark = " (degenerate)" if f["degenerate"] else ""
                print(f"  u* = {_fmt(f['u'])}  P* = {_fmt(f['P'])}{mark}")


@_command("compare", *_PARAMS, *_INDICES,
          _option("--model", "qqc", choices=["qc", "qqc", "fqc"]),
          _option("--smax", 2.0, type=float),
          _option("--step", 1e-3, type=float), _JSON)
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
        print(json.dumps({"model": model, "sup_distance": sup,
                          "lipschitz_bound": bound, "derivation": derivation},
                         indent=2, sort_keys=True))
    else:
        print(f"sup |du| + |dP| (exact vs {model}) = {_fmt(sup)}")
        print(f"lipschitz bound = {_fmt(bound)}")
        print(derivation)
    if sup > bound:
        sys.exit(1)


@_command("reproduce-tables",
          _option("--perturb-k1", 0.0, "Diagnostic offset added to kappa1 "
                  "before computing.", type=float), _JSON)
def cmd_reproduce_tables(perturb_k1, as_json):
    """Compare computed coefficients against the published reference tables.

    Parameters are fixed at kappa1=4, kappa2=0.4, kappa3=20, u_cut=0.5 with
    n=104 and m in {100, 96}.  Exit 0 iff every absolute error <= 1e-9.
    """
    from . import checks
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
        print(json.dumps({"rows": rows, "max_error": max_err, "pass": ok},
                         indent=2, sort_keys=True))
    else:
        for r in rows:
            print(f"m={r['m']:3d} {r['model']:5s} "
                  f"kappa = {_fmt(r['kappa'])} (ref {_fmt(r['ref_kappa'])}, "
                  f"err {r['err_kappa']:.3e})  "
                  f"eta = {_fmt(r['eta'])} (ref {_fmt(r['ref_eta'])}, "
                  f"err {r['err_eta']:.3e})")
        print(f"max error = {max_err:.3e}  {'PASS' if ok else 'FAIL'} "
              f"(tolerance {checks.TABLE_TOL:g})")
    if not ok:
        sys.exit(1)


@_command("check", *_PARAMS, _option("--seed", 0, type=int))
def cmd_check(k1, k2, k3, ucut, seed):
    """Run the cross-module invariant suites; exit 1 on any failure."""
    from . import checks
    failed = False
    with _gate(k1, k2, k3, ucut) as params:
        for name, ok, detail in checks.run_suites(params, seed):
            print(f"{name}: {'PASS' if ok else 'FAIL (' + detail + ')'}")
            failed = failed or not ok
    if failed:
        sys.exit(1)


def main(argv=None):
    """1-D lattice fracture model: coefficients, oracle, continuation."""
    parser = argparse.ArgumentParser(prog="crackqc", description=main.__doc__,
                                     allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)
    for name, (func, specs) in _COMMANDS.items():
        sub = commands.add_parser(name, help=func.__doc__.split("\n")[0],
                                  description=func.__doc__, allow_abbrev=False)
        for flag, keywords in specs:
            sub.add_argument(flag, **keywords)
    argv = _joined(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    func, specs = _COMMANDS[args.command]
    if getattr(args, "config", None) is not None:
        # The file's flags go first, so the command line's own win.
        at = argv.index(args.command) + 1
        flags = _config_flags(parser, args.config, specs)
        args = parser.parse_args(argv[:at] + flags + argv[at:])
    func(**{key: value for key, value in vars(args).items()
            if key not in ("command", "config")})


if __name__ == "__main__":
    main()
