"""crackqc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  With `--trace 0` the last line of stdout is a JSON object
holding every end-to-end metric of BENCHMARK.json; with `--trace 1` it holds
every per-layer metric.  The line before it is the run's record (versions,
machine, inputs drawn, failures).  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the chains are small, and the benchmark keeps its load to
# one busy process (the worker or its one CLI child) at a time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10          # samples the tail percentile must leave above it
MAX_REPORTED_FAILURES = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the monotonic clock, exit")
    return parser.parse_args(argv)


def import_program():
    """Put this checkout's src/ first on the path; import crackqc from it."""
    if not (SRC / "crackqc" / "__init__.py").is_file():
        raise SystemExit(f"error: no crackqc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crackqc
    if Path(crackqc.__file__).resolve().parent != SRC / "crackqc":
        raise SystemExit(f"error: imported crackqc from {crackqc.__file__}")


def set_up(name, seed):
    """Everything before the first timed op once crackqc is importable:
    the import itself, the input stream and the warm-up."""
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed)
    workload.warm_up()
    return workload


def measure_setup(args, workdir):
    """Median set-up time over fresh interpreters, spawn to ready."""
    from workloads import run_child
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        code, out, err, _ = run_child(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"], workdir)
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}: {err[-500:]}")
        times.append(float(out.split()[-1]) - start)
    return statistics.median(times)


def timed_op(workload, tr, inp):
    """(seconds, failures) of one op; the check runs after the clock stops."""
    start = time.perf_counter()
    try:
        with tr.span("op"):
            result = workload.run(tr, inp)
    except Exception:
        return time.perf_counter() - start, [traceback.format_exc(limit=4)]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(tr, inp, result)
    except Exception:
        return elapsed, [traceback.format_exc(limit=4)]


class Tally:
    """Op durations and failures of one kind of run."""

    def __init__(self):
        self.durations = []
        self.failed = 0
        self.messages = []

    def add(self, elapsed, failures):
        self.durations.append(elapsed)
        if failures:
            self.failed += 1
            self.messages.extend(failures[:MAX_REPORTED_FAILURES
                                           - len(self.messages)])

    @property
    def busy(self):
        return sum(self.durations)


def tail(durations):
    """(percentile, value): the highest percentile leaving TAIL_BEYOND
    samples above it, or the maximum when there are too few samples."""
    ordered = sorted(durations)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def run_untraced(workload, seconds):
    from tracing import NullTracer
    tr, tally = NullTracer(), Tally()
    while tally.busy < seconds:
        tally.add(*timed_op(workload, tr, workload.next_input()))
    return tally


def run_traced(workload, seconds):
    """Each input runs once untraced and once traced, alternating which
    goes first, so the tracing overhead compares identical ops."""
    from tracing import NullTracer, Tracer
    null, tracer = NullTracer(), Tracer()
    plain, traced = Tally(), Tally()
    while plain.busy + traced.busy < seconds:
        inp = workload.next_input()
        pair = [(null, plain), (tracer, traced)]
        if len(plain.durations) % 2:
            pair.reverse()
        for tr, tally in pair:
            tally.add(*timed_op(workload, tr, inp))
    return tracer, plain, traced


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def base_record(args, load_1m):
    import click
    import mpmath
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "click": getattr(click, "__version__", None),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "load_1m": load_1m}


def inputs_record(workload):
    from crackqc import lattice, material
    drawn = workload.drawn
    if not drawn:
        return {"cases": 0}
    rows = [c.n + lattice.default_tail(material.validate(*c.params)) + 1
            for c in drawn]
    return {"cases": len(drawn), "n_min": min(c.n for c in drawn),
            "n_max": max(c.n for c in drawn), "chain_rows_min": min(rows),
            "chain_rows_max": max(rows)}


def end_to_end(args, workload, scratch):
    """Untraced run: the metrics a user of the package sees."""
    setup_s = measure_setup(args, scratch)
    tally = run_untraced(workload, args.seconds)
    attempted = len(tally.durations)
    percentile, tail_s = tail(tally.durations)
    values = {"setup_s": setup_s,
              "throughput_ops_s": attempted / tally.busy,
              "latency_p50_ms": statistics.median(tally.durations) * 1e3,
              "latency_tail_ms": tail_s * 1e3,
              "ok_ratio": (attempted - tally.failed) / attempted,
              "peak_rss_mb": workload.peak_rss_mb()}
    extra = {"latency_tail": {"percentile": percentile, "samples": attempted}}
    return values, (tally,), extra


def per_layer(args, workload, scratch):
    """Traced run plus the reference-point pass; spans go to a file."""
    from reference import reference_pass
    from tracing import layer_metrics
    from workloads import OUT
    tracer, plain, traced = run_traced(workload, args.seconds)
    values = layer_metrics(tracer)
    rows = values.get("bifurcation.trace_curve.rows.sum", 0)
    busy = values.get("bifurcation.trace_curve.busy_s", 0.0)
    values["bifurcation.trace_curve.rows"] = rows
    values["bifurcation.trace_curve.rows_per_s"] = rows / busy if busy else 0.0
    values["bench.tracing_overhead"] = plain.busy / traced.busy
    reference, reference_rows = reference_pass(scratch)
    values.update(reference)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts,
                                "reference": reference_rows}),
                    encoding="utf-8")
    extra = {"reference": reference_rows,
             "trace_file": str(path.relative_to(ROOT))}
    if hasattr(workload, "check_edge_probe"):
        extra["check_edge_probe"] = workload.check_edge_probe()
    return values, (plain, traced), extra


def main(argv=None):
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        workload = set_up(args.workload, args.seed)
        print(repr(time.monotonic()), flush=True)
        workload.close()
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    record = base_record(args, os.getloadavg()[0])
    from workloads import OUT
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as scratch:
        measure = per_layer if args.trace else end_to_end
        workload = None
        try:
            workload = set_up(args.workload, args.seed)
            values, tallies, extra = measure(args, workload, Path(scratch))
        finally:
            if workload is not None:
                workload.close()
    attempted = sum(len(t.durations) for t in tallies)
    failed = sum(t.failed for t in tallies)
    record.update(extra)
    record["inputs"] = inputs_record(workload)
    record["failures"] = [m for t in tallies for m in t.messages]
    record["not_exercised"] = [m["name"] for m in declared
                               if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
