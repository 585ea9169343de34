"""Fingerprint one benchmark run, or compare two fingerprints.

A fingerprint records what a run decided and computed, so that two commits
can be compared cell by cell: every ``IterationRecord`` field but the wall
time, the problems solved and refined per iteration, the stop reason, a
sha256 of every problem's marked cells at every ``doerfler_mark`` call, of
every state's indicators at every checkpoint, of every checkpoint's union
mesh and of every final mesh, and the recombined solution at every
checkpoint.  It also records the size of the forest's node table at the end
of the run: its rows, its edges (where the table numbers forest edges) and
the bytes of each per-node column.

    python tools/fingerprint.py case1-multimesh out.json [--checkout DIR]
    python tools/fingerprint.py --compare parent.json change.json

The first form runs the named config of ``benchmarks/workloads.py``, or one
of this script's own ``sin-multimesh`` and ``case2-uniform`` configs, with
the package in ``DIR/src`` (default: this checkout), so one copy of this
script fingerprints any commit.  The second prints every integer and hash mismatch, naming for
marks and indicators the marking call or checkpoint and up to five problems,
and the largest relative difference of each float field; it exits 1 on any
mismatch.  Float differences are reported, not judged, and so are the table
sizes of both sides, which are no mismatch.  Its last line sums up: whether
the integer records are identical, and how many (marking call, problem)
mark sets, indicator hashes and final meshes differ.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np


def _sha(array, dtype=np.int64):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def _column_name(key):
    """A JSON key for a forest column: its name, or the name of the function
    that computes it, then the field's kind or the reference's type where the
    column has one per field or reference.  A column is keyed by a name, by
    (name, field or reference), or by (function, its arguments...)."""
    if isinstance(key, str):
        return key
    name, *args = key
    name = getattr(name, "__name__", name)
    return name + "".join(f"({getattr(a, 'kind', type(a).__name__)})" for a in args)


def _sin_multimesh(fa, workloads):
    """The eigenfunction psi_12 on (-1,1)^2, s = 0.5, multimesh, at a loose
    tolerance (8 iterations): the benchmark's fields need no ``sin``, so this
    config compares a field whose values come from a transcendental."""
    domain = fa.DomainSpec("square")
    config = fa.RunConfig(
        s=0.5,
        domain=domain,
        f=fa.eigenfunction_field(domain, 1, 2),
        theta=workloads.THETA,
        tol=1e-3,
        k=workloads.K,
        kappa=workloads.KAPPA,
        max_iterations=workloads.MAX_ITERATIONS,
        mode="multimesh",
    )
    return config, fa.eigenfunction_reference(domain, 1, 2, 0.5)


def _case2_uniform(fa, workloads):
    """``case2-multimesh``'s inputs in uniform mode for 3 iterations (up to
    8,192 cells): uniform refinement does not mark, so this config compares
    the refinement that no marking drives."""
    config, reference = workloads.make_inputs("case2-multimesh")
    return dataclasses.replace(config, mode="uniform", max_iterations=3), reference


_OWN_CONFIGS = {"sin-multimesh": _sin_multimesh, "case2-uniform": _case2_uniform}


def fingerprint(name, checkout):
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "benchmarks")]
    import fracadapt as fa
    import fracadapt.driver as driver
    import workloads

    if name in _OWN_CONFIGS:
        config, reference = _OWN_CONFIGS[name](fa, workloads)
    else:
        config, reference = workloads.make_inputs(name)
    marks, unions, indicators, solutions = [], [], [], []
    real_mark = driver.doerfler_mark

    def traced_mark(states, scheme, theta):
        out = real_mark(states, scheme, theta)
        # the driver passes the states in index order, so position is l
        marks.append([_sha(sorted(mk)) for mk in out])
        return out

    def on_checkpoint(m, states, union, solution):
        unions.append(_sha(union.cell_key))
        indicators.append([_sha(st.indicators, np.float64) for st in states])
        solutions.append(solution.nodal_values.tolist())

    driver.doerfler_mark = traced_mark  # the driver looks the name up per call
    try:
        res = driver.run(config, reference=reference, on_checkpoint=on_checkpoint)
    finally:
        driver.doerfler_mark = real_mark
    forest = res.states[0].mesh.base
    # the wall time is a timing, not a result
    records = [
        {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_time"} for r in res.records
    ]
    return dict(
        workload=name,
        records=records,
        solved_per_iter=res.solved_per_iter,
        marked_per_iter=res.marked_per_iter,
        stopped=res.stopped,
        marks=marks,
        unions=unions,
        indicators=indicators,
        final_cell_keys=[_sha(st.mesh.cell_key) for st in res.states],
        solutions=solutions,
        forest=dict(  # every mesh of the run, the final union too, is in this forest
            rows=len(forest.corners),
            edges=len(forest.edges) if hasattr(forest, "edges") else None,
            columns={_column_name(k): col.nbytes for k, col in forest.columns.items()},
        ),
    )


def _rel(x, y):
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def compare(a, b):
    """(mismatch messages, {float field: largest relative difference})."""
    bad, diffs = [], {}
    for key in ("workload", "solved_per_iter", "marked_per_iter", "stopped", "unions",
                "final_cell_keys"):
        if a[key] != b[key]:
            bad.append(f"{key} differs")
    for key, step in (("marks", "marking call"), ("indicators", "checkpoint")):
        for i, (ha, hb) in enumerate(zip(a[key], b[key])):
            differ = [l for l, (x, y) in enumerate(zip(ha, hb)) if x != y]
            if differ or len(ha) != len(hb):
                bad.append(f"{step} {i}: {key} of {len(differ)} problems differ, "
                           f"first l = {differ[:5]}")
        if len(a[key]) != len(b[key]):
            bad.append(f"the fingerprints hold different numbers of {step}s")
    if len(a["records"]) != len(b["records"]):
        bad.append(f"{len(a['records'])} records against {len(b['records'])}")
    for ra, rb in zip(a["records"], b["records"]):
        for field, x in ra.items():
            y = rb[field]
            if isinstance(x, float) and isinstance(y, float):
                diffs[field] = max(diffs.get(field, 0.0), _rel(x, y))
            elif x != y:
                bad.append(f"record m = {ra['m']}: {field} {x} against {y}")
    for sa, sb in zip(a["solutions"], b["solutions"]):
        if len(sa) != len(sb):
            bad.append("a checkpoint solution has another length")
            continue
        sa, sb = np.array(sa), np.array(sb)
        scale = max(np.max(np.abs(sa)), np.max(np.abs(sb)), math.ulp(0.0))
        diffs["solution"] = max(diffs.get("solution", 0.0), float(np.max(np.abs(sa - sb)) / scale))
    return bad, diffs


def forest_sizes(a, b):
    """Lines that give the node table's rows, edges and column bytes of both
    sides, or say that a side did not record them."""
    fa, fb = a.get("forest"), b.get("forest")
    missing = [side for side, f in (("A", fa), ("B", fb)) if f is None]
    if missing:
        return [f"forest table: not recorded by {' and '.join(missing)}"]
    lines = [f"forest rows: {fa['rows']} against {fb['rows']}"]
    # a table that numbers no forest edges records None, or nothing
    edges = ["not recorded" if f.get("edges") is None else f["edges"] for f in (fa, fb)]
    if edges != ["not recorded"] * 2:
        lines.append(f"forest edges: {edges[0]} against {edges[1]}")
    for name in sorted(fa["columns"].keys() | fb["columns"].keys()):
        x, y = (f["columns"].get(name, 0) for f in (fa, fb))
        lines.append(f"forest column {name}: {x} bytes against {y}")
    total = [sum(f["columns"].values()) for f in (fa, fb)]
    lines.append(f"forest columns: {total[0]} bytes against {total[1]}")
    return lines


def summary(a, b):
    """The closing line of ``--compare``: integer records (every non-float
    record field, the per-iteration lists and the stop reason) identical or
    not, and the number of differing (marking call, problem) mark sets,
    (checkpoint, problem) indicator hashes and final meshes."""

    def integers(fp):
        records = [{k: v for k, v in r.items() if not isinstance(v, float)} for r in fp["records"]]
        return records, fp["solved_per_iter"], fp["marked_per_iter"], fp["stopped"]

    def count(key):
        return sum(x != y for ha, hb in zip(a[key], b[key]) for x, y in zip(ha, hb))

    same = "identical" if integers(a) == integers(b) else "DIFFER"
    meshes = sum(x != y for x, y in zip(a["final_cell_keys"], b["final_cell_keys"]))
    return (f"summary: integer records {same}, {count('marks')} mark pairs flipped, "
            f"{count('indicators')} indicator hashes differ, {meshes} final meshes differ")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("workload", nargs="?")
    ap.add_argument("out", nargs="?")
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--checkout", default=os.path.dirname(here))
    args = ap.parse_args(argv)
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path) as fh:
                loaded.append(json.load(fh))
        bad, diffs = compare(*loaded)
        for line in bad:
            print("MISMATCH", line)
        for field, d in sorted(diffs.items()):
            print(f"{field}: largest relative difference {d:.3g}")
        for line in forest_sizes(*loaded):
            print(line)
        print(summary(*loaded))
        return 1 if bad else 0
    if not (args.workload and args.out):
        ap.error("give a workload and an output file, or --compare A B")
    with open(args.out, "w") as fh:
        json.dump(fingerprint(args.workload, args.checkout), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
