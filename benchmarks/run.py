"""Benchmark of the adaptive fractional solve, end to end and per layer.

    python3 benchmarks/run.py --workload case1-multimesh --seed 1 --seconds 35 --trace 0

Runs rounds of one workload for about ``--seconds`` seconds.  Each round is a
fresh interpreter (``round.py``) that imports ``fracadapt`` from ``src/`` of
this checkout, builds the workload's inputs, calls ``fracadapt.run`` once and
checks the result.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics (medians over rounds); with
``--trace 1`` untraced and traced rounds alternate and the object holds the
per-layer metrics of the median traced round.  Details of every round, and
the spans of the reported traced round, go to ``benchmarks/results/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("case1-multimesh", "case2-multimesh", "case2-singlemesh")
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cumcost_dofs", "dofs"),
    ("final_total_dofs", "dofs"),
)
# outputs every round of one workload must reproduce exactly
EXACT = ("cumcost_dofs", "final_total_dofs", "iterations")
# a run makes at least this many rounds (untraced) or round pairs (traced)
MIN_ROUNDS = 3
MIN_PAIRS = 2
# the whole run must end within this many seconds
RUN_LIMIT_S = 170.0


def run_round(workload, seed, traced, timeout):
    """One round in a fresh interpreter; its JSON result, or None if it failed."""
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "round.py"), workload, str(seed), str(int(traced))]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + [repr(spawned)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"round timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fracadapt", "__init__.py")):
        print(f"no fracadapt sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    rounds = []
    attempted = 0
    per_unit = 2 if args.trace else 1
    min_units = MIN_PAIRS if args.trace else MIN_ROUNDS
    units = 0
    while True:
        unit_start = time.perf_counter()
        for k in range(per_unit):
            remaining = RUN_LIMIT_S - (time.perf_counter() - start)
            attempted += 1
            r = run_round(args.workload, args.seed, traced=(k == 1), timeout=max(remaining, 1.0))
            if r is not None:
                rounds.append(r)
        units += 1
        elapsed = time.perf_counter() - start
        unit_s = time.perf_counter() - unit_start
        if len(rounds) < attempted:
            break
        if units >= min_units and elapsed + unit_s > args.seconds:
            break
        if elapsed + unit_s > RUN_LIMIT_S - 10.0:
            break
    failed = attempted - len(rounds)
    if not rounds:
        print("no round completed", file=sys.stderr)
        return 1

    failures = sorted({msg for r in rounds for msg in r["failures"]})
    for key in EXACT:
        values = {r[key] for r in rounds}
        if len(values) > 1:
            failures.append(f"{key} differs between rounds: {sorted(values)}")
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace:
        if not plain or not traced:
            print("a traced run needs both plain and traced rounds", file=sys.stderr)
            return 1
        if len({tuple(sorted(r["layers"])) for r in traced}) != 1:
            failures.append("traced rounds report different layers")
        for name, m in traced[0]["layers"].items():
            if m["unit"] != "s" and len({r["layers"][name]["value"] for r in traced}) > 1:
                failures.append(f"{name} differs between traced rounds")
        pick = sorted(traced, key=lambda r: r["solve_s"])[(len(traced) - 1) // 2]
        report = dict(pick["layers"])
        overhead = statistics.median(r["solve_s"] for r in traced) - statistics.median(
            r["solve_s"] for r in plain
        )
        report["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        pick = None
        report = {
            key: {"value": statistics.median(r[key] for r in plain), "unit": unit}
            for key, unit in END_TO_END
        }

    os.makedirs(RESULTS, exist_ok=True)
    out_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in rounds],
                "reported_spans": pick["spans"] if pick else None,
                "failures": failures,
            },
            fh,
        )
    for r in rounds:
        print(
            f"round traced={int(r['traced'])} setup {r['setup_s']:.3f} s "
            f"solve {r['solve_s']:.3f} s rss {r['peak_rss_mb']:.0f} MB",
            file=sys.stderr,
        )
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
