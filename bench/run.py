"""Benchmark of ``hkc verify``: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One workload runs in this single-threaded process (BLAS threads pinned
to 1).

``--trace 0`` measures what a user of ``hkc verify`` sees.  The host
changes speed by up to 1.7x from one few-second spell to the next, so
each timing is taken relative to :func:`calibration.calibrate` timed
beside it and reported in seconds at the calibration's reference speed
(see ``calibration.py``); the raw wall-time medians are printed as
comments.

* ``verify_s``: median calibrated time of ``run_suites(cfg)`` plus
  ``report.to_json()``, repeated as often as fits in ``--seconds``
  seconds (at least twice);
* ``setup_s``: median calibrated time, over fresh interpreters started
  before each of those runs, of ``import hkc`` plus
  ``ThreeSasakiStructure(n)``;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced runs and runs under
:class:`layers.Tracer` for about ``--seconds`` seconds and reports
per-layer counts and times, the tracing overhead, and a scaling sweep
over n.

Every report is checked against the pinned signature in
``bench/reference/`` and against the bytes of the first report of the
run, so traced reports are compared with untraced ones too.  A
run whose report fails either check counts as failed; any failure makes
the exit status 1.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics
that ``BENCHMARK.json`` lists for the mode.
"""

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, calibrate
from workloads import WORKLOADS, load_reference, mismatches, run_config, signature

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the calibration runs after the timed part, in the same interpreter
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import hkc\n"
    "hkc.ThreeSasakiStructure(int(sys.argv[1]))\n"
    "t = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibration import calibrate\n"
    "print(t, calibrate())\n"
)

# n = 0 is left out of the sweep: its distribution H is zero-dimensional
# and the H-samplers raise PreconditionError there.
SWEEP_N = (1, 2, 4, 16)
SWEEP_CURVATURE_CALLS = 25
SWEEP_RICCI_CALLS = 3


def import_hkc():
    """Import the package from this checkout, with BLAS threads pinned."""
    if not (SRC / "hkc" / "__init__.py").is_file():
        sys.exit(f"error: no hkc package under {SRC}; run from a checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import hkc
    return hkc


def hardware_note():
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = ",".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={sys.version.split()[0]} numpy={np.__version__} "
            f"blas={blas!r} {threads}")


# ============================================================
# measurements
# ============================================================

def measure_setup(n):
    """Seconds for ``import hkc`` + ``ThreeSasakiStructure(n)`` in a fresh
    interpreter, and seconds for the calibration loop in that interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(n),
                          str(BENCH)],
                         env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return tuple(map(float, out.stdout.split()))


def warm_up(hkc, cfg):
    """One untimed run on a single point, so code paths are loaded."""
    hkc.run_suites(dataclasses.replace(cfg, points=1))


def timed_verify(hkc, cfg):
    t0 = time.perf_counter()
    report = hkc.run_suites(cfg)
    text = report.to_json()
    return time.perf_counter() - t0, report, text


class Checker:
    """Counts verify runs and the runs whose report is wrong."""

    def __init__(self, workload):
        self.reference = load_reference(workload)
        self.first_text = None
        self.attempted = 0
        self.failed = 0

    def check(self, report, text, label):
        self.attempted += 1
        problems = mismatches(signature(report), self.reference)
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            problems.append("report bytes differ from the first report")
        for problem in problems:
            print(f"# MISMATCH ({label}): {problem}")
        self.failed += bool(problems)


def end_to_end(hkc, workload, seed, seconds, checker):
    n = WORKLOADS[workload]["n"]
    cfg = run_config(hkc, workload, seed)
    measure_setup(n)  # warms bytecode and file caches; not reported
    warm_up(hkc, cfg)
    calibrate()  # the first call pays numpy's lazy set-up; not used
    verify, verify_wall, setup, setup_wall, rounds = [], [], [], [], []
    start = time.perf_counter()
    # at least two runs, for the determinism check; then as many rounds
    # as are expected to finish within ``seconds``.  A verify run is timed
    # against the calibration loop just before and just after it; set-up
    # samples are spread over the whole run.
    while (len(verify) < 2 or time.perf_counter() - start
           + statistics.median(rounds) <= seconds):
        t0 = time.perf_counter()
        setup_s, cal_s = measure_setup(n)
        setup_wall.append(setup_s)
        setup.append(setup_s / cal_s * REFERENCE_S)
        cal_before = calibrate()
        dt, report, text = timed_verify(hkc, cfg)
        cal_s = (cal_before + calibrate()) / 2
        verify_wall.append(dt)
        verify.append(dt / cal_s * REFERENCE_S)
        checker.check(report, text, f"run {len(verify)}")
        rounds.append(time.perf_counter() - t0)
    print(f"# verify runs: {len(verify)}, wall median "
          f"{statistics.median(verify_wall):.4f} s, calibrated seconds "
          + " ".join(f"{t:.3f}" for t in verify))
    print(f"# setup samples: {len(setup)}, wall median "
          f"{statistics.median(setup_wall):.4f} s, calibrated seconds "
          + " ".join(f"{t:.4f}" for t in setup))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "verify_s": (statistics.median(verify), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def scaling_sweep(hkc, seed):
    """Untraced per-call cost of the adapted curvature and Ricci trace at
    several n, on inputs drawn from ``seed``."""
    import numpy as np
    from hkc.connections import ConnectionKind, VectorField, curvature
    from hkc.curvature import ricci
    hc = ConnectionKind.H_CONNECTION
    seed %= 2**32
    out = {}
    for n in SWEEP_N:
        s = hkc.ThreeSasakiStructure(n)
        rng = np.random.default_rng([seed, n])
        x = hkc.sample_point(s, rng)
        X, Y, Z = (hkc.sample_unit_H(s, x, rng) for _ in range(3))
        fields = [VectorField.extension(s, V) for V in (X, Y, Z)]
        per_call = []
        for _ in range(SWEEP_CURVATURE_CALLS):
            t0 = time.perf_counter()
            curvature(hc, *fields, x)
            per_call.append(time.perf_counter() - t0)
        ricci_s = []
        for _ in range(SWEEP_RICCI_CALLS):
            t0 = time.perf_counter()
            ricci(s, hc, X, Y, seed=seed)
            ricci_s.append(time.perf_counter() - t0)
        out[f"scaling.n{n}.connections.curvature.h.per_call_us"] = (
            statistics.median(per_call) * 1e6, "us")
        out[f"scaling.n{n}.curvature.ricci.h.total_s"] = (
            statistics.median(ricci_s), "s")
    return out


def layer_metrics(stats):
    """Per-layer metrics from the tracer's stats, name -> (value, unit)."""
    from layers import COUNTERS
    out = {}
    for name, (calls, total, self_s) in stats.items():
        if name == "numlin.Dual.created":
            out[name] = (calls, "count")
            continue
        out[f"{name}.calls"] = (calls, "count")
        if name not in COUNTERS.values():
            out[f"{name}.total_s"] = (total, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        if name.startswith("harness.") or name == "records.to_json":
            out[f"{name}_s"] = (total, "s")  # named after what they time
    per_call = {}
    for kind in ("lc", "h"):
        calls, total, _ = stats[f"connections.curvature.{kind}"]
        per_call[kind] = total / calls * 1e6 if calls else 0.0
        out[f"connections.curvature.{kind}.per_call_us"] = (per_call[kind], "us")
    out["connections.curvature.h_over_lc"] = (
        per_call["h"] / per_call["lc"] if per_call["lc"] else 0.0, "ratio")
    return out


def traced(hkc, workload, seed, seconds, checker):
    """Alternate untraced and traced runs for about ``seconds`` seconds
    (at least one pair); per-layer values are means over the traced runs."""
    from layers import Tracer
    cfg = run_config(hkc, workload, seed)
    warm_up(hkc, cfg)
    tracer = Tracer()
    plain, traced_s = [], []
    start = time.perf_counter()
    while not plain or (time.perf_counter() - start + plain[-1] + traced_s[-1]
                        <= seconds):
        dt, report, text = timed_verify(hkc, cfg)
        plain.append(dt)
        checker.check(report, text, f"untraced run {len(plain)}")
        with tracer:
            dt, report, text = timed_verify(hkc, cfg)
        traced_s.append(dt)
        checker.check(report, text, f"traced run {len(traced_s)}")
    runs = len(traced_s)
    print(f"# untraced/traced pairs: {runs}")
    # every run makes the same calls, so the counts divide exactly
    out = layer_metrics({name: (calls // runs, total / runs, self_s / runs)
                         for name, (calls, total, self_s)
                         in tracer.stats.items()})
    out["trace.verify_s"] = (statistics.median(traced_s), "s")
    out["trace.untraced_verify_s"] = (statistics.median(plain), "s")
    out["trace.overhead_s"] = (statistics.median(traced_s)
                               - statistics.median(plain), "s")
    out.update(scaling_sweep(hkc, seed))
    return out


# ============================================================
# entry point
# ============================================================

def main(argv=None):
    p = argparse.ArgumentParser(description="benchmark of hkc verify")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    hkc = import_hkc()
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# hardware: {hardware_note()}")

    checker = Checker(args.workload)
    if args.trace:
        wanted = spec["per_layer"]
        values = traced(hkc, args.workload, args.seed, args.seconds, checker)
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(hkc, args.workload, args.seed, args.seconds,
                            checker)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"error: the benchmark computes no value for {missing}")

    metrics = {m["name"]: {"value": values[m["name"]][0],
                           "unit": values[m["name"]][1]} for m in wanted}
    for name, m in metrics.items():
        value = m["value"]
        print(f"{name} {value:.6g} {m['unit']}" if isinstance(value, float)
              else f"{name} {value} {m['unit']}")
    print(f"report_mismatch_ratio {checker.failed / checker.attempted:g} "
          f"({checker.failed} of {checker.attempted} runs)")
    correct = checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
