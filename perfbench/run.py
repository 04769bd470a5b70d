"""End-to-end benchmark of eisenspec: seeded verification ops, timed and gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy.  Each workload is a closed
loop with one caller in one process, the way a verification run waits for
each check.  The run draws a pool of inputs from the seed and measures the
number of whole passes over it that comes closest to S seconds, at least
one, so that every run holds the same stratified mix of inputs.

--trace 0  times the ops untraced and prints the end-to-end metrics.  Set-up
           is measured in fresh interpreters: import eisenspec plus one
           warm-up op on a fixed reference input, median of three.
--trace 1  runs the first inputs of the pool twice each, untraced and traced
           in alternating order, and prints per-layer metrics per op from
           spans recorded around calls into the library's layers.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A full report
(provenance, deterministic results, timings) and the spans of a traced run
are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_library():
    """Import eisenspec from this checkout's src/ and nowhere else."""
    package = os.path.join(SRC, "eisenspec", "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit(f"perfbench: no eisenspec source at {package}")
    sys.path.insert(0, SRC)
    import eisenspec
    if os.path.abspath(eisenspec.__file__) != package:
        raise SystemExit(f"perfbench: imported eisenspec from "
                         f"{eisenspec.__file__}, not from {SRC}")
    return eisenspec


def setup_probe(workload: str):
    """Child side of set-up: import eisenspec, one warm-up op, print seconds."""
    t0 = time.perf_counter()
    import_library()
    import workloads
    wl = workloads.WORKLOADS[workload]
    workloads.check(wl, wl.reference())
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ------------------------------------------------------------- provenance --


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "eisenspec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# ------------------------------------------------------------------ runs --


def _deterministic(wl, seed: int, outcomes) -> dict:
    """Results that depend on the seed alone: one outcome per input."""
    by_check: dict[str, float] = {}
    for out in outcomes:
        for name, margin in out.margins:
            by_check[name] = min(margin, by_check.get(name, margin))
    per_op = [min(m for _, m in out.margins) for out in outcomes if out.margins]
    failed = sum(o.failed for o in outcomes)
    return {
        "workload": wl.name,
        "seed": seed,
        "ops": len(outcomes),
        "failed": failed,
        "failed_frac": failed / len(outcomes),
        "margin_digits.min": min(by_check.values()) if by_check else None,
        "margin_check": min(by_check, key=by_check.get) if by_check else None,
        "margin_digits.p50": statistics.median(per_op) if per_op else None,
        "margin_digits_by_check": by_check,
        "errors": sorted({o.error for o in outcomes if o.error}),
    }


def run_untraced(wl, seed: int, seconds: float, setup_repeats: int,
                 workloads) -> tuple[dict, dict, dict, list]:
    import numpy as np
    setup = measure_setup(wl.name, setup_repeats) if setup_repeats else []
    pool = wl.draw(np.random.default_rng(seed), wl.pool_size)
    workloads.check(wl, wl.reference())  # untimed warm-up
    times, outcomes = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for inp in pool:
            t0 = time.perf_counter()
            outcomes.append(workloads.check(wl, inp))
            times.append(time.perf_counter() - t0)
        now = time.perf_counter()
        # whole passes only, as many as come closest to the run time
        if now - start + (now - pass_start) / 2 >= seconds:
            break
    elapsed = time.perf_counter() - start
    det = _deterministic(wl, seed, outcomes[:len(pool)])
    timing = {
        "ops": len(times),
        "passes": len(times) // len(pool),
        "elapsed_s": elapsed,
        "ops_per_s": len(times) / elapsed,
        "op_s.p50": statistics.median(times),
        "op_s": times,
        "setup_s.samples": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # a percentile is reported only with at least ten samples beyond it
    if len(times) >= 100:
        timing["op_s.p90"] = statistics.quantiles(times, n=10)[-1]
    metrics = {
        "ops_per_s": (timing["ops_per_s"], "1/s"),
        "op_s.p50": (timing["op_s.p50"], "s"),
        "margin_digits.p50": (det["margin_digits.p50"], "digits"),
        "peak_rss_mb": (timing["peak_rss_mb"], "MB"),
    }
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    return metrics, det, timing, outcomes


def run_traced(wl, seed: int, workloads, tracer_mod,
               spans_path: str | None) -> tuple[dict, dict, dict, list]:
    import numpy as np
    pool = wl.draw(np.random.default_rng(seed), wl.pool_size)[:wl.trace_size]
    workloads.check(wl, wl.reference())  # untimed warm-up
    tracer = tracer_mod.Tracer()
    untraced_s = traced_s = 0.0
    outcomes = []
    for k, inp in enumerate(pool):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.begin_op(k)
                tracer.install()
            t0 = time.perf_counter()
            outcomes.append(workloads.check(wl, inp))
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                tracer.end_op()
                traced_s += dt
            else:
                untraced_s += dt
    layers = tracer.layer_metrics(len(pool), traced_s, untraced_s)
    if spans_path:
        tracer.write(spans_path)
    det = _deterministic(wl, seed, outcomes[::2])
    det.update({k: layers[k] for k in tracer_mod.COUNTS})
    timing = {"traced_s": traced_s, "untraced_s": untraced_s,
              "spans": len(tracer.spans)}
    metrics = {k: (layers[k], unit) for k, unit in tracer_mod.UNITS.items()}
    return metrics, det, timing, outcomes


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    import_library()
    import tracer as tracer_mod
    import workloads
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}.trace{int(trace)}")
    if trace:
        metrics, det, timing, outcomes = run_traced(
            wl, seed, workloads, tracer_mod, stem + ".spans.csv.gz")
    else:
        metrics, det, timing, outcomes = run_untraced(
            wl, seed, seconds, SETUP_REPEATS, workloads)
    result = {
        "correct": (not any(o.failed for o in outcomes)
                    and det["margin_digits.p50"] is not None),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"provenance": provenance(seed), "deterministic": det,
              "timing": timing, "result": result}
    with open(stem + ".report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _print_summary(det, timing, result)
    return result


def _print_summary(det: dict, timing: dict, result: dict):
    print(f"workload {det['workload']}  seed {det['seed']}  "
          f"ops {result['attempted']} ({det['ops']} inputs)  "
          f"failed_frac {result['failed'] / result['attempted']:.6g}")
    print(f"margin_digits.min {det['margin_digits.min']}  "
          f"set by {det['margin_check']};  "
          f"margin_digits.p50 {det['margin_digits.p50']}")
    if "op_s.p90" in timing:
        print(f"op_s.p90 {timing['op_s.p90']:.6g} s over {timing['ops']} ops")
    for err in det["errors"]:
        print(f"error: {err}")
    for name, m in result["metrics"].items():
        value = "none" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:32s} {value} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
