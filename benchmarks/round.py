"""One round of the benchmark: set up one workload, solve it, check it.

    python3 benchmarks/round.py WORKLOAD SEED TRACE SPAWN_TIME

``SPAWN_TIME`` is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` runs from
interpreter start to the call of ``fracadapt.run``.  Prints one JSON object.
"""

import json
import os
import resource
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main():
    name, seed, trace, spawned = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", float(sys.argv[4])
    sys.path.insert(0, SRC)
    import fracadapt as fa

    if not os.path.abspath(fa.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fracadapt was imported from {fa.__file__}, not from {SRC}")
    import workloads
    from tracer import Tracer

    tr = Tracer() if trace else None
    with tr.patched(workloads.trace_targets()) if trace else nullcontext():
        config, reference = workloads.make_inputs(name)
        t0 = time.perf_counter()
        setup_s = t0 - spawned
        res = fa.run(config, reference=reference)
        solve_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out = {
        "traced": trace,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "cumcost_dofs": res.records[-1].cumcost,
        "final_total_dofs": res.records[-1].total_dofs,
        "iterations": len(res.records),
        "failures": workloads.check(name, res, seed, tr, solve_s),
    }
    if trace:
        out["layers"] = workloads.layer_metrics(tr, solve_s)
        out["spans"] = tr.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
