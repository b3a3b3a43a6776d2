"""Seeded inputs, the four workloads, and the checks on their outputs.

Each workload is a closed loop with one client: `next_input` draws the
input of the next op, `run` executes that op against `crackqc` and returns
what it produced, and `check` verifies the output outside the timed region,
returning the reasons it failed, if any.  Every call into the program goes
through the tracer (see `tracing`), which names each span after the
function called.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from crackqc import bifurcation as bif
from crackqc import effective as eff
from crackqc import lattice as lat
from crackqc import material as mat
from crackqc.effective import ModelKind
from tracing import NullTracer

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
MODELS = tuple(ModelKind)
REFERENCE = (4.0, 0.4, 20.0, 0.5)
CHILD_TIMEOUT_S = 120

# Admissible sampling box; wider than the ranges the unit tests draw from.
K1 = (1.0, 8.0)
K2_OVER_K1 = (0.01, 0.3)
K3 = (0.5, 50.0)
U_CUT = 0.5
N_RANGE = (20, 400)
TIP_GAP = (2, 12)          # d = n - m
HALTON_BASES = (2, 3, 5, 7, 11)
# `crackqc check` verifies the criss-cross identity up to n = 50 at a fixed
# 200 digits, which resolves it only while k2/k1 >= 0.0124: below that it
# prints a false "criss-cross drift" FAIL and exits 1 (see README, Finding).
# cli-cold draws k2/k1 from above that edge; the other workloads, which do
# not run `check`, keep the whole box.
CHECK_K2_OVER_K1 = (0.013, 0.3)

RAMP = (0.2, 0.4, 0.6, 0.8)
SCAN_LOADS = 2000
SCAN_SPAN = 1.5            # scan P over [0, 1.5 x critical load]
CURVE_STEP = 1e-4
CURVE_S_MAX = 100.0        # a cap only: curves in the box break before s = 10
WINDOW = 32                # tip indices per trapping-map op
MPF_EVERY = 8              # every 8th trapping-map op also sweeps in mpf
MPF_DPS = 50

GAP_TOL = 1e-8
ROOT_TOL = 1e-8
RESIDUAL_TOL = 1e-8
MPF_TOL = 1e-10


@dataclass(frozen=True)
class Case:
    """One parameter set: force constants, tip index n and interface m."""

    k1: float
    k2: float
    k3: float
    u_cut: float
    n: int
    m: int

    @property
    def params(self):
        return (self.k1, self.k2, self.k3, self.u_cut)


def _radical_inverse(index: int, base: int) -> float:
    scale, value = 1.0, 0.0
    while index:
        scale /= base
        index, digit = divmod(index, base)
        value += scale * digit
    return value


def cases(seed: int, n_range=N_RANGE, k2_over_k1=K2_OVER_K1):
    """Endless seeded stream of `Case`s over the sampling box.

    Points follow a Halton sequence rotated by a seeded shift per axis
    (Cranley-Patterson), so every prefix covers the box evenly and the
    cost mix of a run does not depend on how many ops it completes.
    """
    shift = [random.Random(f"{seed}/{axis}").random()
             for axis in range(len(HALTON_BASES))]
    n_lo, n_hi = n_range
    for index in itertools.count(1):
        u = [(_radical_inverse(index, b) + s) % 1.0
             for b, s in zip(HALTON_BASES, shift)]
        k1 = K1[0] + (K1[1] - K1[0]) * u[0]
        k2 = k1 * (k2_over_k1[0] + (k2_over_k1[1] - k2_over_k1[0]) * u[1])
        k3 = K3[0] + (K3[1] - K3[0]) * u[2]
        n = n_lo + int(u[3] * (n_hi - n_lo + 1))
        d = TIP_GAP[0] + int(u[4] * (TIP_GAP[1] - TIP_GAP[0] + 1))
        yield Case(k1, k2, k3, U_CUT, n, n - d)


def _interface(kind: ModelKind, m: int):
    return None if kind is ModelKind.EXACT else m


APPROXIMATIONS = {ModelKind.QC: eff.qc_coefficients,
                  ModelKind.QQC: eff.qqc_coefficients,
                  ModelKind.FQC: eff.fqc_coefficients}


def closed_form(tr, params, kind: ModelKind, n: int, m: int):
    """The model's closed-form coefficient function, traced under its name."""
    if kind is ModelKind.EXACT:
        return tr.call(eff.exact_coefficients, params, n)
    return tr.call(APPROXIMATIONS[kind], params, m, n)


def critical_load(eq: bif.EffectiveEquation, folds) -> float:
    """Load at which the physical (small-u) branch ends.

    That is the fold on the lower branch; without folds (no lattice
    trapping, about a third of the box) the branch ends where the tip bond
    reaches u_cut.
    """
    if folds:
        return folds[0].P_star
    return -eq.kappa * eq.law.u_cut / eq.eta


def _rel(a, b) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def run_child(argv, workdir: Path):
    """Run one child process to completion, one at a time.

    Returns (exit code, stdout text, stderr text, peak RSS in MB).  Output
    goes through files so no pipe can fill; `os.wait4` reaps the child so
    its own peak RSS is known.  A child that outlives CHILD_TIMEOUT_S is
    killed and reported with a negative exit code.
    """
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=workdir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"), usage.ru_maxrss / 1024)


class Workload:
    """Base: draws one case per op from the seeded stream."""

    name = ""
    n_range = N_RANGE
    k2_over_k1 = K2_OVER_K1

    def __init__(self, seed: int):
        self._cases = cases(seed, self.n_range, self.k2_over_k1)
        self.drawn = []

    def next_case(self) -> Case:
        case = next(self._cases)
        self.drawn.append(case)
        return case

    def next_input(self):
        """Input of the next op; `run` may be called on it more than once."""
        return self.next_case()

    def warm_up(self):
        """Run each code path once on a small fixed input, untimed."""

    def run(self, tr, inp):
        raise NotImplementedError

    def check(self, tr, inp, result):
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        pass


WARM_CASE = Case(*REFERENCE, 24, 20)


class OracleSweep(Workload):
    """Chain assembly, oracle and Newton: `lattice` does nearly all work."""

    name = "oracle-sweep"

    def warm_up(self):
        self.run(NullTracer(), WARM_CASE)

    def run(self, tr, case):
        params = tr.call(mat.validate, *case.params)
        oracle, configs = {}, {}
        for kind in MODELS:
            cfg = configs[kind] = tr.call(lat.chain_config, params, kind,
                                          case.n, _interface(kind, case.m))
            oracle[kind] = tr.call(lat.oracle_coefficients, cfg)
            tr.count("lattice.oracle_rows", cfg.j_max + 1)
        cfg, exact = configs[ModelKind.EXACT], oracle[ModelKind.EXACT]
        eq = tr.call(bif.EffectiveEquation, tr.call(mat.force_law, params),
                     exact.kappa, exact.eta)
        load = critical_load(eq, tr.call(bif.fold_points, eq))
        field = None
        for fraction in RAMP:
            field, history = tr.call(lat.newton_solve, cfg, fraction * load,
                                     field, return_history=True)
            tr.count("lattice.newton_solve.iterations", len(history) - 1)
        _, rebuilt = tr.call(lat.reconstruct_solution, params, case.n,
                             field.u[case.n], field.P, cfg.j_max)
        residual = tr.call(lat.assemble_residual, cfg, rebuilt)
        return params, oracle, field, residual

    def check(self, tr, case, result):
        params, oracle, field, residual = result
        failures = []
        for kind, orc in oracle.items():
            form = eff.coefficients(params, kind, case.n,
                                    _interface(kind, case.m))
            gap = max(_rel(orc.kappa, form.kappa), _rel(orc.eta, form.eta))
            tr.count("lattice.oracle_gap", gap)
            if not gap <= GAP_TOL:
                failures.append(f"{kind.value} oracle gap {gap:.3e}")
        form = eff.exact_coefficients(params, case.n)
        eq = bif.EffectiveEquation(mat.force_law(params), form.kappa, form.eta)
        root = bif.solve_branches(eq, field.P)[0]
        if not abs(field.u[case.n] - root) <= ROOT_TOL:
            failures.append(f"newton u_n {field.u[case.n]!r} vs root {root!r}")
        worst = float(np.max(np.abs(residual)))
        tr.count("lattice.reconstruct_residual", worst)
        if not worst <= RESIDUAL_TOL:
            failures.append(f"reconstructed field residual {worst:.3e}")
        return failures


class Continuation(Workload):
    """Folds, arc-length continuation and branch scans: `bifurcation`.

    Two consecutive ops share one case: the exact model, then one
    approximation, which also compares its curve with the exact one; the
    approximations take turns across cases.  One model per op gives about
    50 to 70 ops in a 20 s run, enough for a tail percentile above the
    median.  The four ops of a case cost about the same, so the sorted op
    times climb in steps of one per case, and the median jumps when it
    lies on a wide step; two ops per case (not four) halve the steps.
    """

    name = "continuation"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops = 0
        self.case = None
        self.exact = None     # (case, equation, curve) of the last exact op

    def next_input(self):
        if self.ops % 2 == 0:
            self.case = self.next_case()
            kind = ModelKind.EXACT
        else:
            approximations = tuple(APPROXIMATIONS)
            kind = approximations[self.ops // 2 % len(approximations)]
        self.ops += 1
        return self.case, kind

    def warm_up(self):
        for kind in MODELS:
            self.run(NullTracer(), (WARM_CASE, kind), step=1e-2, scan=20)

    def run(self, tr, inp, step=CURVE_STEP, scan=SCAN_LOADS):
        case, kind = inp
        params = tr.call(mat.validate, *case.params)
        coefs = closed_form(tr, params, kind, case.n, case.m)
        eq = tr.call(bif.EffectiveEquation, tr.call(mat.force_law, params),
                     coefs.kappa, coefs.eta)
        folds = tr.call(bif.fold_points, eq)
        curve = tr.call(bif.trace_curve, eq, CURVE_S_MAX, step)
        tr.count("bifurcation.trace_curve.rows", len(curve.samples))
        loads = np.linspace(0.0, SCAN_SPAN * critical_load(eq, folds), scan)
        counts = [len(tr.call(bif.solve_branches, eq, float(P)))
                  for P in loads]
        distance = None
        if kind is ModelKind.EXACT:
            self.exact = (case, eq, curve)
        else:
            exact_case, exact_eq, exact_curve = self.exact
            if exact_case != case:
                raise RuntimeError("approximation op without its exact op")
            sup, _ = tr.call(bif.compare_curves, exact_curve, curve)
            length = min(exact_curve.samples[-1, 0], curve.samples[-1, 0])
            bound, _ = tr.call(bif.lipschitz_bound, exact_eq, eq, length)
            distance = (exact_eq, sup, bound)
        return eq, folds, curve, loads, counts, distance

    def check(self, tr, inp, result):
        _, kind = inp
        eq, folds, curve, loads, counts, distance = result
        failures = []
        worst = float(curve.samples[:, 3].max())
        if not worst <= RESIDUAL_TOL:
            failures.append(f"{kind.value} curve residual {worst:.3e}")
        if not curve.samples[-1, 1] > bif.OVERSHOOT_FACTOR * eq.law.u_cut:
            failures.append(f"{kind.value} curve ended before the bond broke")
        fold_loads = [f.P_star for f in folds]
        for i in range(len(loads) - 1):
            if counts[i] != counts[i + 1] and not any(
                    loads[i] <= p <= loads[i + 1] for p in fold_loads):
                failures.append(
                    f"{kind.value} root count {counts[i]} -> {counts[i + 1]} "
                    f"between P={loads[i]!r} and {loads[i + 1]!r} with no "
                    f"fold there")
                break
        if distance is not None:
            exact_eq, sup, bound = distance
            if math.isnan(bound) and (eq.kappa, eq.eta) == (exact_eq.kappa,
                                                             exact_eq.eta):
                # lipschitz_bound returns 0 * inf = nan when the coefficients
                # coincide and exp(L s) overflows; the true bound is 0.
                tr.count("bifurcation.lipschitz_bound.nan", 1)
                bound = 0.0
            if not sup <= bound:
                failures.append(f"{kind.value} sup {sup!r} > bound {bound!r}")
        return failures


class TrappingMap(Workload):
    """Closed forms over a window of tip indices: `material` and `effective`.

    An op's case gives the first tip index n of the window and the gap
    n - m, which stays fixed across the window.
    """

    name = "trapping-map"
    n_range = (N_RANGE[0], N_RANGE[1] - WINDOW + 1)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops = 0

    def next_input(self):
        self.ops += 1
        return self.next_case(), self.ops % MPF_EVERY == 0

    def warm_up(self):
        self.run(NullTracer(), (WARM_CASE, True), window=2)

    def run(self, tr, inp, window=WINDOW):
        import mpmath
        case, mpf = inp
        params = tr.call(mat.validate, *case.params)
        tr.call(mat.characteristic_roots, params)
        tr.call(eff.limits, params)
        law = tr.call(mat.force_law, params)
        gap = case.n - case.m
        coefs, widths = {}, {}
        for n in range(case.n, case.n + window):
            for kind in MODELS:
                c = closed_form(tr, params, kind, n, n - gap)
                folds = tr.call(bif.fold_points, tr.call(
                    bif.EffectiveEquation, law, c.kappa, c.eta))
                coefs[kind, n] = c
                widths[kind, n] = (folds[0].P_star - folds[-1].P_star
                                   if len(folds) == 2 else 0.0)
            for kind in (ModelKind.EXACT, ModelKind.QQC, ModelKind.FQC):
                tr.call(eff.expansions, params, kind, n,
                        _interface(kind, n - gap))
        coefs_mpf = {}
        if mpf:
            with tr.span("effective.coefficients_mpf"), \
                    mpmath.workdps(MPF_DPS):
                pm = mat.validate(*(mpmath.mpf(repr(x)) for x in case.params))
                for kind, n in coefs:
                    coefs_mpf[kind, n] = eff.coefficients(
                        pm, kind, n, _interface(kind, n - gap))
        return coefs, widths, coefs_mpf

    def check(self, tr, inp, result):
        coefs, widths, coefs_mpf = result
        failures = [f"{kind.value} n={n} negative trapping width {w!r}"
                    for (kind, n), w in widths.items() if not w >= 0]
        for key, hp in coefs_mpf.items():
            lo = coefs[key]
            err = max(_rel(float(hp.kappa), lo.kappa),
                      _rel(float(hp.eta), lo.eta))
            if not err <= MPF_TOL:
                failures.append(
                    f"{key[0].value} n={key[1]} mpf vs float {err:.3e}")
        return failures


CLI_COMMANDS = (
    ("validate", []),
    ("limits", []),
    ("folds", ["--model", "all"]),
    ("coefficients", ["--oracle", "--json"]),
    ("trace", ["--model", "exact", "--smax", "4", "--step", "1e-3",
               "--out", "curve.csv"]),
    ("compare", ["--model", "qqc", "--smax", "2"]),
    ("check", ["--seed", "0"]),
)
CLI_TRACE = (4.0, 1e-3)    # --smax and --step of the trace command above
USES_INDICES = {"folds", "coefficients", "trace", "compare"}


class CliCold(Workload):
    """One fresh `crackqc` interpreter per op, cycling the seven commands.

    A new case is drawn for each cycle.  Children run one at a time from a
    scratch directory under perfbench/out, removed by `close`.
    """

    name = "cli-cold"
    k2_over_k1 = CHECK_K2_OVER_K1

    def __init__(self, seed: int):
        super().__init__(seed)
        OUT.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        self.ops = 0
        self.case = None
        self.child_rss_mb = 0.0

    def next_input(self):
        position = self.ops % len(CLI_COMMANDS)
        if position == 0:
            self.case = self.next_case()
        self.ops += 1
        return CLI_COMMANDS[position], self.case

    def warm_up(self):
        import crackqc.cli  # noqa: F401  (loads click the way the child will)

    def run(self, tr, inp):
        (command, extra), case = inp
        argv = [sys.executable, "-m", "crackqc.cli", command,
                "--k1", repr(case.k1), "--k2", repr(case.k2),
                "--k3", repr(case.k3), "--ucut", repr(case.u_cut)]
        if command in USES_INDICES:
            argv += ["--n", str(case.n), "--m", str(case.m)]
        curve_path = self.workdir / "curve.csv"
        curve_path.unlink(missing_ok=True)
        with tr.span(f"cli.{command}"):
            code, out, err, rss = run_child(argv + extra, self.workdir)
        self.child_rss_mb = max(self.child_rss_mb, rss)
        csv = (curve_path.read_text(encoding="utf-8")
               if command == "trace" and curve_path.exists() else None)
        return code, out, err, csv

    def check(self, tr, inp, result):
        (command, _), case = inp
        code, out, err, csv = result
        if code != 0:
            return [f"{command} exited {code}: {err.strip()[-300:]}"]
        params = mat.validate(*case.params)
        lines = out.splitlines()
        if command == "validate" and lines[-1:] != ["OK"]:
            return ["validate did not print OK"]
        if command == "limits":
            lim = eff.limits(params)
            want = [f"{key} = {float(getattr(lim, key))!r}"
                    for key in ("kappa0", "eta0", "eta0_qc", "gap")]
            if lines != want:
                return [f"limits printed {lines!r}, expected {want!r}"]
        if command == "coefficients":
            models = json.loads(out)["models"]
            worst = max(entry["oracle_diff"] for entry in models.values())
            if len(models) != len(MODELS) or not worst <= GAP_TOL:
                return [f"coefficients oracle_diff {worst:.3e}"]
        if command == "trace":
            coefs = eff.exact_coefficients(params, case.n)
            curve = bif.trace_curve(
                bif.EffectiveEquation(mat.force_law(params), coefs.kappa,
                                      coefs.eta), *CLI_TRACE)
            want = "s,u,P,residual\n" + "".join(
                ",".join(repr(float(x)) for x in row) + "\n"
                for row in curve.samples)
            if csv != want:
                rows = None if csv is None else csv.count("\n") - 1
                return [f"trace CSV differs from the in-process curve "
                        f"({rows} rows vs {len(curve.samples)})"]
        if command == "check" and any(not line.endswith("PASS")
                                      for line in lines):
            return [f"check reported {lines!r}"]
        return []

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb

    def check_edge_probe(self):
        """`crackqc check` at the box's k2/k1 = 0.01 edge, outside the ops.

        Records the known false FAIL there, so a traced run shows whether
        the program still has it.
        """
        k1 = 4.0
        params = (k1, K2_OVER_K1[0] * k1, 20.0, U_CUT)
        argv = [sys.executable, "-m", "crackqc.cli", "check", "--seed", "0"]
        for flag, value in zip(("--k1", "--k2", "--k3", "--ucut"), params):
            argv += [flag, repr(value)]
        code, out, _, _ = run_child(argv, self.workdir)
        return {"params": params, "exit_code": code,
                "output": out.splitlines()}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w
             for w in (CliCold, OracleSweep, Continuation, TrappingMap)}
