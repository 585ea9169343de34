"""Command-line front end: experiment runs, rate regression, mesh export.

Artifacts of a run directory:

    log.csv        one row per adaptive iteration, fixed schema
    config.echo    the fully resolved configuration, one ``key = value`` line each
    mesh_m*.txt    union mesh at each checkpoint, ASCII format
    solution.txt   nodal values of the final combined solution on the last
                   checkpoint's union mesh
"""

import argparse
import csv
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import driver, fem, oracle, rational
from .mesh import DomainSpec, read_mesh, write_mesh

CSV_HEADER = [
    "m",
    "solved",
    "totcost",
    "cumcost",
    "total_dofs",
    "union_dofs",
    "eta_triangle",
    "eta_union",
    "error_ref",
    "theta_eff",
    "wall_ms",
]

_SEED_CHECK_S = (0.1, 0.3, 0.5, 0.7, 0.9)


def _fmt(x):
    return "" if x is None else f"{x:.12g}"


def _mesh_filename(m):
    return f"mesh_m{m:04d}.txt"


def build_parser():
    p = argparse.ArgumentParser(
        prog="fracadapt",
        description="Adaptive multimesh solver for the spectral fractional Laplacian",
    )
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="run the adaptive loop and write artifacts")
    r.add_argument("--s", type=float, default=None, help="fractional power in (0,1)")
    r.add_argument("--domain", choices=["square", "unit-square", "lshape"],
                   default="square")
    r.add_argument("--f", choices=["one", "testII"], default="one")
    r.add_argument("--theta", type=float, default=0.5)
    r.add_argument("--tol", type=float, default=1e-4)
    r.add_argument("--k", type=int, default=1, help="checkpoint stride")
    r.add_argument("--kappa", type=float, default=0.26)
    r.add_argument("--mode", choices=["multimesh", "singlemesh", "uniform"],
                   default="multimesh")
    r.add_argument("--max-iter", type=int, default=60)
    r.add_argument("--out", metavar="DIR", default=None)
    r.add_argument("--seed-check", action="store_true",
                   help="print the pole count N(s) for the reference s values and exit")
    r.set_defaults(func=cmd_run)

    rr = sub.add_parser("rates", help="decay-rate regression from a log.csv")
    rr.add_argument("log", help="path to a run's log.csv")
    rr.add_argument("--window", type=int, default=15)
    rr.set_defaults(func=cmd_rates)

    ex = sub.add_parser("export-mesh", help="re-export a checkpoint union mesh")
    ex.add_argument("rundir", help="run directory")
    ex.add_argument("checkpoint", type=int, help="checkpoint iteration m")
    ex.add_argument("--out", default=None, help="output path (default: stdout)")
    ex.set_defaults(func=cmd_export_mesh)
    return p


def cmd_run(args):
    if args.seed_check:
        for s in _SEED_CHECK_S:
            scheme = rational.bp_coefficients(s, args.kappa, 1.0)
            print(f"s = {s:.1f}  N = {scheme.N}")
        return 0
    if args.s is None:
        print("error: --s is required (unless --seed-check)", file=sys.stderr)
        return 1

    domain = DomainSpec(args.domain)
    f = fem.RhsField.one() if args.f == "one" else fem.RhsField.test2()
    config = driver.RunConfig(
        s=args.s,
        domain=domain,
        f=f,
        theta=args.theta,
        tol=args.tol,
        k=args.k,
        kappa=args.kappa,
        max_iterations=args.max_iter,
        mode=args.mode,
    )
    scheme = rational.bp_coefficients(
        config.s, config.kappa, oracle.faber_krahn_lambda0(domain)
    )
    print(f"N = {scheme.N} parametric problems (kappa = {config.kappa})")

    out_dir = args.out
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_config_echo(os.path.join(out_dir, "config.echo"), args, config)

    reference = None
    if domain.rectangle is not None:
        reference = oracle.spectral_reference(domain, f, config.s)

    def on_checkpoint(m, states, union, solution):
        if out_dir is not None:
            write_mesh(union, os.path.join(out_dir, _mesh_filename(m)))

    result = driver.run(config, reference=reference, on_checkpoint=on_checkpoint)

    if out_dir is not None:
        _write_log(os.path.join(out_dir, "log.csv"), result.records)
        np.savetxt(
            os.path.join(out_dir, "solution.txt"),
            result.solution.nodal_values,
            fmt="%.17g",
        )
    for rec in result.records:
        if rec.eta_union is not None:
            print(
                f"m = {rec.m:3d}  solved = {rec.solved_problems:3d}  "
                f"total dofs = {rec.total_dofs:8d}  union dofs = {rec.union_dofs:7d}  "
                f"eta_union = {rec.eta_union:.6e}"
            )
    print(f"stopped: {result.stopped}")
    return 0 if result.stopped in ("tol", "converged") else 2


def _write_config_echo(path, args, config):
    lines = [
        ("command", "run"),
        ("s", config.s),
        ("domain", config.domain.kind),
        ("f", args.f),
        ("theta", config.theta),
        ("tol", config.tol),
        ("k", config.k),
        ("kappa", config.kappa),
        ("mode", config.mode),
        ("max-iter", config.max_iterations),
        ("out", args.out),
        ("initial-cells", config.initial_cells),
    ]
    with open(path, "w") as fh:
        for key, val in lines:
            fh.write(f"{key} = {val}\n")


def _write_log(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.m,
                    r.solved_problems,
                    r.totcost,
                    r.cumcost,
                    r.total_dofs,
                    "" if r.union_dofs is None else r.union_dofs,
                    _fmt(r.eta_triangle),
                    _fmt(r.eta_union),
                    _fmt(r.error_ref),
                    _fmt(r.effectivity),
                    f"{r.wall_time * 1e3:.3f}",
                ]
            )


def cmd_rates(args):
    with open(args.log, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r.get("eta_union")]
    cols = ("union_dofs", "eta_triangle", "eta_union")
    records = [SimpleNamespace(**{k: float(r[k]) for k in cols}) for r in rows]
    for col, label in [("eta_triangle", "eta"), ("eta_union", "eta_union")]:
        rate = driver.decay_rate(records, window=args.window, estimate=col)
        print(f"{label} decay rate: {rate:.4f}")
    return 0


def cmd_export_mesh(args):
    path = os.path.join(args.rundir, _mesh_filename(args.checkpoint))
    if not os.path.exists(path):
        print(f"error: no checkpoint mesh at {path}", file=sys.stderr)
        return 1
    mesh = read_mesh(path)
    if args.out is None:
        write_mesh(mesh, sys.stdout)
    else:
        write_mesh(mesh, args.out)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        fem.SolveError,
        rational.KappaSelectionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
