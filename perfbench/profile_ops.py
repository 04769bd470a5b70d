"""Hand cross-check of the traced zeta share against cProfile.

    python3 perfbench/profile_ops.py [--seed N] [--workload NAME ...]

For each workload, one warm op on the first input of the seeded pool is
profiled with cProfile, and the same input is run three times untraced and
three times under the span tracer.  Printed per workload, as shares of the
op's time:

* kernel    cProfile self time of ``_zeta_em_core`` + ``_gamma_raw``, the
            hot spots the hand profiles name;
* zeta.py   cProfile self time of every function in zeta.py;
* incl      cProfile time inside calls that enter zeta.py from other code,
            numpy work included: what the tracer's zeta self time measures;
* traced    zeta.share from the tracer, next to its trace.overhead_frac.

cProfile charges a cost to every Python call but none to work inside numpy,
so it shifts proportions toward call-heavy code; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

KERNELS = ("_zeta_em_core", "_gamma_raw")
REPEATS = 3


def profile_workload(name: str, seed: int) -> dict:
    import numpy as np
    import tracer as tracer_mod
    import workloads
    wl = workloads.WORKLOADS[name]
    inp = wl.draw(np.random.default_rng(seed), wl.pool_size)[0]
    workloads.check(wl, wl.reference())  # warm-up

    prof = cProfile.Profile()
    prof.enable()
    workloads.check(wl, inp)
    prof.disable()
    stats = pstats.Stats(prof).stats
    total = sum(row[2] for row in stats.values())

    def in_zeta(func):
        return func[0].endswith(os.path.join("eisenspec", "zeta.py"))

    kernel = sum(row[2] for func, row in stats.items()
                 if in_zeta(func) and func[2] in KERNELS)
    zeta_self = sum(row[2] for func, row in stats.items() if in_zeta(func))
    # time inside calls that enter zeta.py from other code, numpy included
    zeta_incl = sum(ct for func, row in stats.items() if in_zeta(func)
                    for caller, (_, _, _, ct) in row[4].items()
                    if not in_zeta(caller))

    tracer = tracer_mod.Tracer()
    untraced = traced = 0.0
    for k in range(REPEATS):
        t0 = time.perf_counter()
        workloads.check(wl, inp)
        untraced += time.perf_counter() - t0
        tracer.begin_op(k)
        with tracer:
            t0 = time.perf_counter()
            workloads.check(wl, inp)
            traced += time.perf_counter() - t0
        tracer.end_op()
    layers = tracer.layer_metrics(REPEATS, traced, untraced)
    return {"kernel": kernel / total, "zeta_py": zeta_self / total,
            "zeta_incl": zeta_incl / total, "traced": layers["zeta.share"],
            "overhead": layers["trace.overhead_frac"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    run.import_library()
    import workloads
    names = args.workload or list(workloads.WORKLOADS)
    print(f"{'workload':15s} {'kernel':>8s} {'zeta.py':>8s} {'incl':>8s} "
          f"{'traced':>8s} {'overhead':>9s}")
    for name in names:
        r = profile_workload(name, args.seed)
        print(f"{name:15s} {r['kernel']:8.3f} {r['zeta_py']:8.3f} "
              f"{r['zeta_incl']:8.3f} {r['traced']:8.3f} {r['overhead']:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
