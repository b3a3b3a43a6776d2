"""Reference-point pass: every layer timed at (4, 0.4, 20, 0.5), n=104, m=100.

The numbers sit beside the baseline table of ROADMAP item 1 (Python 3.11.7,
numpy 2.4.6, scipy 1.17.1, 2 CPUs, warm, single process).  A row whose
measurement lies more than 2x outside its baseline (below half the low end
or above twice the high end) is flagged.
"""

from __future__ import annotations

import statistics
import sys
import time

from crackqc import bifurcation as bif
from crackqc import effective as eff
from crackqc import lattice as lat
from crackqc import material as mat
from crackqc.effective import ModelKind

from workloads import MODELS, REFERENCE, run_child

N, M = 104, 100
COLD_REPEATS = 3

# metric name -> (low, high) baseline in the metric's unit
BASELINE = {
    "ref.material.characteristic_roots.us": (14, 14),
    "ref.effective.exact_coefficients.us": (34, 34),
    "ref.effective.qc_coefficients.us": (22, 22),
    "ref.effective.qqc_coefficients.us": (27, 27),
    "ref.effective.fqc_coefficients.us": (28, 28),
    **{f"ref.lattice.linear_system.{k.value}.ms": (3.5, 5.5) for k in MODELS},
    **{f"ref.lattice.oracle_coefficients.{k.value}.ms": (4.8, 6.9)
       for k in MODELS},
    "ref.lattice.newton_solve.ms": (9.8, 9.8),
    "ref.bifurcation.trace_curve.h1e-3.ms": (15, 15),
    "ref.bifurcation.trace_curve.h1e-4.ms": (178, 178),
    "cli.import_crackqc_s": (0.82, 0.82),
    "ref.cli.limits.s": (0.88, 0.88),
    "cli.interpreter_floor_s": (0.27, 0.27),
}


def _median_time(fn, *args, repeats=7, number=1, **kwargs):
    """Median over `repeats` batches of the time of one call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn(*args, **kwargs)
        times.append((time.perf_counter() - start) / number)
    return statistics.median(times)


def _cold(code, workdir):
    """Median wall time of a fresh interpreter running `code`."""
    times = []
    for _ in range(COLD_REPEATS):
        start = time.perf_counter()
        status, _, err, _ = run_child([sys.executable] + code, workdir)
        times.append(time.perf_counter() - start)
        if status != 0:
            raise RuntimeError(f"{code} exited {status}: {err[-300:]}")
    return statistics.median(times)


def reference_pass(workdir):
    """(metrics, rows): the timings and, per row, its baseline and flag."""
    params = mat.validate(*REFERENCE)
    us, ms = 1e6, 1e3
    values = {"ref.material.characteristic_roots.us":
              _median_time(mat.characteristic_roots, params, number=200) * us}
    coefficient_fns = {ModelKind.EXACT: (eff.exact_coefficients, (N,)),
                       ModelKind.QC: (eff.qc_coefficients, (M, N)),
                       ModelKind.QQC: (eff.qqc_coefficients, (M, N)),
                       ModelKind.FQC: (eff.fqc_coefficients, (M, N))}
    for fn, indices in coefficient_fns.values():
        values[f"ref.effective.{fn.__name__}.us"] = \
            _median_time(fn, params, *indices, number=200) * us
    for kind in MODELS:
        cfg = lat.chain_config(params, kind, N,
                               None if kind is ModelKind.EXACT else M)
        values[f"ref.lattice.linear_system.{kind.value}.ms"] = \
            _median_time(lat.linear_system, cfg) * ms
        values[f"ref.lattice.oracle_coefficients.{kind.value}.ms"] = \
            _median_time(lat.oracle_coefficients, cfg) * ms
    cfg = lat.chain_config(params, ModelKind.EXACT, N)
    values["ref.lattice.newton_solve.ms"] = \
        _median_time(lat.newton_solve, cfg, 0.5) * ms
    _, history = lat.newton_solve(cfg, 0.5, return_history=True)
    values["ref.lattice.newton_solve.iterations"] = len(history) - 1
    coefs = eff.exact_coefficients(params, N)
    eq = bif.EffectiveEquation(mat.force_law(params), coefs.kappa, coefs.eta)
    values["ref.bifurcation.trace_curve.h1e-3.ms"] = \
        _median_time(bif.trace_curve, eq, 4.0, 1e-3) * ms
    values["ref.bifurcation.trace_curve.h1e-4.ms"] = \
        _median_time(bif.trace_curve, eq, 5.0, 1e-4, repeats=3) * ms
    values["cli.import_crackqc_s"] = _cold(["-c", "import crackqc"], workdir)
    values["cli.interpreter_floor_s"] = _cold(["-c", "import numpy, click"],
                                              workdir)
    values["ref.cli.limits.s"] = _cold(["-m", "crackqc.cli", "limits"],
                                       workdir)

    rows = []
    for name, (low, high) in BASELINE.items():
        value = values[name]
        flagged = not low / 2 <= value <= 2 * high
        rows.append({"metric": name, "value": value, "baseline": [low, high],
                     "flagged": flagged})
    values["ref.flagged"] = sum(row["flagged"] for row in rows)
    return values, rows
