"""Run the ``test_07`` pair: the case2 problem in multimesh and singlemesh mode.

    python tools/pair.py --tol 1e-3 [5e-4 ...] [--s 0.1] [--checkout DIR]

Each run takes ``case2-multimesh``'s inputs from ``benchmarks/workloads.py``
(s = 0.3, the two-disc field on the unit square) with the tolerance and the
mode replaced, and s too if ``--s`` is given, so the pair at 1e-3 is the
acceptance suite's ``test_07`` comparison.  Every run is a fresh process
with one BLAS thread and the package in ``DIR/src`` (default: this
checkout), so one copy of this script times any commit.  Per tolerance, in
the order given, both modes run, and the mode that runs first alternates
from one tolerance to the next; give a tolerance twice for two pairs.  Each
run prints one JSON line: tolerance, s, the number N of problems, mode, wall
time of ``fracadapt.run`` in s, the run's peak resident set size in MB
(``ru_maxrss`` of its process, as the benchmark's ``peak_rss_mb``),
``cumcost``, the final union dofs and the iterations.
"""

import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys
import time

MODES = ("multimesh", "singlemesh")


def run_one(mode, tol, s, checkout):
    """One run in this process, at the workload's s if ``s`` is None; its
    JSON record."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "benchmarks")]
    import fracadapt as fa
    import workloads

    config, _ = workloads.make_inputs("case2-multimesh")
    config = dataclasses.replace(config, tol=tol, mode=mode, s=config.s if s is None else s)
    t0 = time.perf_counter()
    res = fa.run(config)
    wall = time.perf_counter() - t0
    last = res.records[-1]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return dict(tol=tol, s=config.s, N=res.scheme.N, mode=mode, wall_s=round(wall, 3),
                peak_rss_mb=round(peak, 1), cumcost=last.cumcost, union_dofs=last.union_dofs,
                iterations=len(res.records))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tol", type=float, nargs="+", required=True)
    ap.add_argument("--s", type=float, help="fractional order (default: the workload's 0.3)")
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--checkout", default=os.path.dirname(here))
    ap.add_argument("--child", choices=MODES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if args.child:
        print(json.dumps(run_one(args.child, args.tol[0], args.s, checkout)))
        return 0
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for i, tol in enumerate(args.tol):
        for mode in MODES if i % 2 == 0 else MODES[::-1]:
            cmd = [sys.executable, os.path.abspath(__file__), "--tol", repr(tol),
                   "--checkout", checkout, "--child", mode]
            cmd += [] if args.s is None else ["--s", repr(args.s)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            print(proc.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
