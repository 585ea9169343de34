"""Memory per top-level phase of one benchmark workload's run.

    python tools/phase_memory.py case2-singlemesh [--tol 1e-3] [--checkout DIR]

Runs the named config of ``benchmarks/workloads.py``, with its tolerance
replaced if ``--tol`` is given, with the package in ``DIR/src`` (default: this
checkout), so one copy of this script measures any commit.  The driver's
top-level phases are wrapped: solve (``fem.assemble_and_solve``, one call per
solved problem), local estimate (``driver._estimate``), union pass
(``estimators.global_union_estimate``), mark (``driver.doerfler_mark``),
refine (``driver.refine`` and ``driver.uniform_refine``), union mesh
(``driver.union_mesh``) and reference error (``oracle.l2_error``); they do
not nest.  Two fresh processes (PYTHONHASHSEED=0, as many BLAS threads as
the benchmark's rounds use) make the same run:

- one reads ``VmHWM`` from ``/proc/self/status`` around every call, and a
  phase's ``vmhwm_rise_mb`` sums how far its calls raised the process's
  peak resident set size;
- one runs under ``tracemalloc``, and a phase's ``traced_peak_mb`` is the
  largest traced peak of one call over the traced memory live at its entry,
  reached at call ``at_call`` (counted from 1), whose entry held
  ``entry_mb``.

Tracing slows the run and adds its own memory, which is why the resident
set is read in a run without it.  Prints one JSON line per phase, in the
order above (mark also gives ``pool_mb``, the bytes of its largest call's
N m pooled float64 indicators, and the union pass ``union_cells``, the cells
of its largest call's union, so a per-cell figure is read off directly), then
one line with the run's iterations and ``VmHWM`` at its end, all in MB of 10^6
bytes.
"""

import argparse
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import tracemalloc

# (phase, module, function): the names the driver looks up at each call
PHASES = (
    ("solve", "fracadapt.fem", "assemble_and_solve"),
    ("local estimate", "fracadapt.driver", "_estimate"),
    ("union pass", "fracadapt.estimators", "global_union_estimate"),
    ("mark", "fracadapt.driver", "doerfler_mark"),
    ("refine", "fracadapt.driver", "refine"),
    ("refine", "fracadapt.driver", "uniform_refine"),
    ("union mesh", "fracadapt.driver", "union_mesh"),
    ("reference error", "fracadapt.oracle", "l2_error"),
)
MB = 1e6


def vmhwm():
    """The peak resident set size of this process so far, in bytes."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def measure(config, reference=None, traced=False):
    """Run ``config`` with every phase wrapped; per phase its calls and, by
    ``traced``, either the traced peaks or the ``VmHWM`` rises (bytes), and
    the run's iterations and final ``VmHWM``."""
    import fracadapt as fa

    stats = {name: dict(calls=0, rise=0, peak=0, at_call=0, entry=0, pool=0, cells=0)
             for name, _, _ in PHASES}

    def wrap(name, real):
        def wrapped(*args, **kwargs):
            st = stats[name]
            st["calls"] += 1
            if not traced:
                before = vmhwm()
                out = real(*args, **kwargs)
                st["rise"] += vmhwm() - before
                return out
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real(*args, **kwargs)
            over = tracemalloc.get_traced_memory()[1] - entry
            if over > st["peak"]:
                st.update(peak=over, at_call=st["calls"], entry=entry)
                if name == "mark":
                    st["pool"] = 8 * sum(len(s.indicators) for s in args[0])
                if name == "union pass":
                    st["cells"] = args[2].num_cells
            return out

        return wrapped

    patched = []
    for name, module, attr in PHASES:
        mod = importlib.import_module(module)
        patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrap(name, getattr(mod, attr)))
    if traced:
        tracemalloc.start()
    try:
        res = fa.run(config, reference=reference)
    finally:
        if traced:
            tracemalloc.stop()
        for mod, attr, real in patched:
            setattr(mod, attr, real)
    return dict(phases=stats, iterations=len(res.records), vmhwm=vmhwm())


def merge(rss, traced):
    """The printed records: one per phase, then the run's."""
    lines = []
    for name in dict.fromkeys(name for name, _, _ in PHASES):
        r, t = rss["phases"][name], traced["phases"][name]
        line = dict(phase=name, calls=r["calls"], vmhwm_rise_mb=round(r["rise"] / MB, 2),
                    traced_peak_mb=round(t["peak"] / MB, 2), at_call=t["at_call"],
                    entry_mb=round(t["entry"] / MB, 2))
        if name == "mark":
            line["pool_mb"] = round(t["pool"] / MB, 2)
        if name == "union pass":
            line["union_cells"] = t["cells"]
        lines.append(line)
    lines.append(dict(iterations=rss["iterations"], vmhwm_mb=round(rss["vmhwm"] / MB, 1)))
    return lines


def run_child(workload, tol, checkout, traced):
    """One measurement in this process."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "benchmarks")]
    import workloads

    config, reference = workloads.make_inputs(workload)
    if tol is not None:
        config = dataclasses.replace(config, tol=tol)
    return measure(config, reference, traced)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--tol", type=float)
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--checkout", default=os.path.dirname(here))
    ap.add_argument("--child", choices=("rss", "traced"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if args.child:
        print(json.dumps(run_child(args.workload, args.tol, checkout, args.child == "traced")))
        return 0
    env = dict(os.environ, PYTHONHASHSEED="0")
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    out = {}
    for child in ("rss", "traced"):
        cmd = [sys.executable, os.path.abspath(__file__), args.workload, "--checkout", checkout,
               "--child", child] + ([] if args.tol is None else ["--tol", repr(args.tol)])
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        out[child] = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in merge(out["rss"], out["traced"]):
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
