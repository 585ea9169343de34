import csv
import os

import numpy as np
import pytest

from fracadapt import cli
from fracadapt.cli import CSV_HEADER, main
from fracadapt.mesh import read_mesh


def run_cli(args):
    return main(args)


def test_seed_check(capsys):
    assert run_cli(["run", "--seed-check", "--kappa", "0.26"]) == 0
    out = capsys.readouterr().out
    for s, n in [(0.1, 408), (0.3, 176), (0.5, 149), (0.7, 176), (0.9, 408)]:
        assert f"s = {s:.1f}  N = {n}" in out


def test_run_requires_s(capsys):
    assert run_cli(["run"]) == 1
    assert "--s is required" in capsys.readouterr().err


# a tiny but complete run shared by several tests
@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("rundir")
    code = main(
        [
            "run",
            "--s", "0.5",
            "--domain", "unit-square",
            "--f", "one",
            "--kappa", "0.6",
            "--tol", "1e-9",
            "--max-iter", "4",
            "--k", "2",
            "--out", str(out),
        ]
    )
    return out, code


def test_run_exit_code_maxiter(small_run):
    out, code = small_run
    assert code == 2  # stopped on max-iter, not tolerance


def test_run_artifacts_exist(small_run):
    out, _ = small_run
    names = sorted(os.listdir(out))
    assert "log.csv" in names
    assert "config.echo" in names
    assert "solution.txt" in names
    assert "mesh_m0000.txt" in names and "mesh_m0002.txt" in names


def test_log_csv_schema(small_run):
    out, _ = small_run
    with open(out / "log.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 4  # header + max-iter records
    # non-checkpoint rows (m = 1, 3) leave the estimate columns empty
    byrow = {int(r[0]): r for r in rows[1:]}
    for m in (1, 3):
        assert byrow[m][5] == "" and byrow[m][6] == "" and byrow[m][7] == ""
    for m in (0, 2):
        assert float(byrow[m][7]) > 0.0  # eta_union
        assert float(byrow[m][5]) > 0  # union_dofs
        # unit square is a rectangle, so error_ref/theta_eff are populated
        assert float(byrow[m][8]) > 0 and float(byrow[m][9]) > 0


def test_config_echo_expands_defaults(small_run):
    out, _ = small_run
    text = (out / "config.echo").read_text()
    assert "theta = 0.5" in text
    assert "mode = multimesh" in text
    assert "kappa = 0.6" in text
    assert "max-iter = 4" in text


def test_rerun_reproduces_log_except_wall(small_run, tmp_path):
    out, _ = small_run
    again = tmp_path / "again"
    main(
        [
            "run",
            "--s", "0.5",
            "--domain", "unit-square",
            "--f", "one",
            "--kappa", "0.6",
            "--tol", "1e-9",
            "--max-iter", "4",
            "--k", "2",
            "--out", str(again),
        ]
    )

    def strip_wall(path):
        with open(path, newline="") as fh:
            return [row[:-1] for row in csv.reader(fh)]

    assert strip_wall(out / "log.csv") == strip_wall(again / "log.csv")


def test_export_mesh_roundtrip(small_run, tmp_path):
    out, _ = small_run
    exported = tmp_path / "exported.txt"
    assert run_cli(["export-mesh", str(out), "2", "--out", str(exported)]) == 0
    original = (out / "mesh_m0002.txt").read_bytes()
    assert exported.read_bytes() == original
    # cell/vertex counts line up with the mesh object
    m = read_mesh(exported)
    header = exported.read_text().splitlines()[0].split()
    assert m.num_vertices == int(header[1]) and m.num_cells == int(header[3])


def test_export_mesh_dofs_match_log(small_run):
    out, _ = small_run
    with open(out / "log.csv", newline="") as fh:
        rows = {r["m"]: r for r in csv.DictReader(fh)}
    m = read_mesh(out / "mesh_m0002.txt")
    assert m.num_interior_vertices == int(rows["2"]["union_dofs"])


@pytest.mark.parametrize(
    "text, problem",
    [
        ("nodes 4 cells 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n", "ends after 1 of 2 cell lines"),
        ("nodes 4 cells 1\n0 0\n1 0\n1 1\n0 1\n0 1 4\n", "cell 0 refers to a vertex"),
        ("nodes 4 cells 1\n0 0\n1 0\n1 1\n1 0\n0 1 2\n", "same coordinates"),
    ],
)
def test_export_mesh_rejects_bad_file(tmp_path, capsys, text, problem):
    (tmp_path / "mesh_m0000.txt").write_text(text)
    assert run_cli(["export-mesh", str(tmp_path), "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err


def test_export_mesh_missing_checkpoint(small_run, capsys):
    out, _ = small_run
    assert run_cli(["export-mesh", str(out), "77"]) == 1
    assert "no checkpoint mesh" in capsys.readouterr().err


def test_rates_from_synthetic_log(tmp_path, capsys):
    # exact power law: eta = dofs^-0.8, eta_triangle = dofs^-0.6
    path = tmp_path / "log.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for m in range(16):
            dofs = 100 * 2**m
            w.writerow(
                [m, 1, dofs, dofs, dofs, dofs,
                 f"{dofs**-0.6:.12g}", f"{dofs**-0.8:.12g}", "", "", "0.0"]
            )
    assert run_cli(["rates", str(path)]) == 0
    out = capsys.readouterr().out
    assert "eta decay rate: 0.6000" in out
    assert "eta_union decay rate: 0.8000" in out


def test_rates_too_few_rows(tmp_path, capsys):
    path = tmp_path / "log.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for m in range(5):
            w.writerow([m, 1, 1, 1, 10, 10, "1", "1", "", "", "0"])
    assert run_cli(["rates", str(path)]) != 0
    assert "at least 15" in capsys.readouterr().err


def test_rates_missing_file(capsys):
    assert run_cli(["rates", "/nonexistent/log.csv"]) == 1


def test_run_rejects_zero_iterations(capsys):
    assert run_cli(["run", "--s", "0.5", "--max-iter", "0"]) == 1
    assert "error: max_iterations" in capsys.readouterr().err


def test_run_rejects_bad_theta(capsys):
    assert run_cli(["run", "--s", "0.5", "--theta", "2.0"]) == 1
    assert "theta" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
def test_run_rejects_a_tolerance_that_cannot_stop(capsys, tol):
    assert run_cli(["run", "--s", "0.5", f"--tol={tol}"]) == 1
    assert "error: tol" in capsys.readouterr().err
